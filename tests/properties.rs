//! Property-style tests over the core data structures and invariants of
//! the reproduction. Each property is exercised over many seeded-random
//! cases drawn from the workspace's own [`SimRng`] — deterministic,
//! offline, and reproducible by seed.

use phoenix::hpl::{lu_factor, lu_solve, vec_norm_inf, Matrix, DEFAULT_NB};
use phoenix::kernel::security::{keyed_hash, xor_stream};
use phoenix::proto::{encoded_size, ClusterTopology, EventFilter, EventType, JobSpec};
use phoenix::pws::{pick, PolicyCtx, PolicyKind};
use phoenix::sim::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;

const CASES: usize = 128;

// ---- virtual time ----------------------------------------------------------

#[test]
fn time_addition_is_monotone() {
    let mut rng = SimRng::seed_from_u64(0x7141);
    for _ in 0..CASES {
        let base = rng.gen_range(0..u64::MAX / 4);
        let d = rng.gen_range(0..u64::MAX / 4);
        let t = SimTime(base);
        let later = t + SimDuration(d);
        assert!(later >= t);
        assert_eq!(later.since(t), SimDuration(d));
    }
}

#[test]
fn duration_sub_saturates() {
    let mut rng = SimRng::seed_from_u64(0xD0_0D);
    for _ in 0..CASES {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let d = SimDuration(a).saturating_sub(SimDuration(b));
        assert_eq!(d.as_nanos(), a.saturating_sub(b));
    }
}

// ---- wire-size estimator ---------------------------------------------------

#[test]
fn encoded_size_grows_with_string_payload() {
    let mut rng = SimRng::seed_from_u64(0x5712);
    for _ in 0..CASES {
        let s: String = (0..rng.gen_range(0usize..64)).map(|_| 'x').collect();
        let extra: String = (0..rng.gen_range(1usize..=16)).map(|_| 'y').collect();
        let small = encoded_size(&s);
        let big = encoded_size(&format!("{s}{extra}"));
        assert!(big > small);
    }
}

#[test]
fn encoded_size_of_vec_is_linear() {
    let mut rng = SimRng::seed_from_u64(0x11EC);
    for _ in 0..CASES {
        let v: Vec<u32> = (0..rng.gen_range(0usize..100)).map(|_| rng.next_u64() as u32).collect();
        assert_eq!(encoded_size(&v), 8 + 4 * v.len());
    }
}

// ---- topology --------------------------------------------------------------

#[test]
fn uniform_topology_partitions_all_nodes() {
    let mut rng = SimRng::seed_from_u64(0x7090);
    for _ in 0..32 {
        let parts = rng.gen_range(1usize..8);
        let per = rng.gen_range(2usize..12);
        let t = ClusterTopology::uniform(parts, per, 1);
        assert_eq!(t.node_count(), parts * per);
        // Every node id in range belongs to exactly one partition.
        for i in 0..(parts * per) as u32 {
            assert!(t.partition_of(phoenix::sim::NodeId(i)).is_some());
        }
        // And ids outside do not.
        assert!(t.partition_of(phoenix::sim::NodeId((parts * per) as u32)).is_none());
    }
}

// ---- security primitives ---------------------------------------------------

#[test]
fn xor_stream_is_an_involution() {
    let mut rng = SimRng::seed_from_u64(0x5EC1);
    for _ in 0..CASES {
        let key = rng.next_u64();
        let mut data: Vec<u8> =
            (0..rng.gen_range(0usize..256)).map(|_| rng.next_u64() as u8).collect();
        let orig = data.clone();
        xor_stream(key, &mut data);
        xor_stream(key, &mut data);
        assert_eq!(data, orig);
    }
}

#[test]
fn keyed_hash_separates_keys() {
    let mut rng = SimRng::seed_from_u64(0x5EC2);
    for _ in 0..CASES {
        let a = rng.next_u64();
        let b = rng.next_u64();
        if a == b {
            continue;
        }
        let data: Vec<u8> =
            (0..rng.gen_range(1usize..64)).map(|_| rng.next_u64() as u8).collect();
        // Not a cryptographic claim — just no trivial key-independence.
        assert_ne!(keyed_hash(a, &data), keyed_hash(b, &data));
    }
}

// ---- event filtering -------------------------------------------------------

#[test]
fn filter_types_accept_exactly_their_types() {
    let mut rng = SimRng::seed_from_u64(0xF117);
    for _ in 0..CASES {
        let codes: Vec<u16> =
            (0..rng.gen_range(0usize..5)).map(|_| rng.gen_range(0u16..8)).collect();
        let probe = rng.gen_range(0u16..8);
        let types: Vec<EventType> = codes.iter().map(|&c| EventType::Custom(c)).collect();
        let f = EventFilter::Types(types);
        let ev = phoenix::proto::Event::new(
            EventType::Custom(probe),
            phoenix::sim::NodeId(0),
            phoenix::proto::EventPayload::None,
        );
        assert_eq!(f.accepts(&ev), codes.contains(&probe));
    }
}

// ---- scheduling policies ---------------------------------------------------

#[test]
fn picked_job_always_fits() {
    let mut rng = SimRng::seed_from_u64(0x9011C4);
    for _ in 0..CASES {
        let sizes: Vec<u32> =
            (0..rng.gen_range(1usize..12)).map(|_| rng.gen_range(1u32..10)).collect();
        let free = rng.gen_range(0usize..12);
        let policy = [
            PolicyKind::Fifo,
            PolicyKind::Priority,
            PolicyKind::FairShare,
            PolicyKind::Backfill,
        ][rng.gen_range(0usize..4)];
        let queued: Vec<JobSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| JobSpec::simple(i as u64, "u", "p", n))
            .collect();
        let usage = HashMap::new();
        let ctx = PolicyCtx { free_nodes: free, usage: &usage };
        if let Some(i) = pick(policy, &queued, &ctx) {
            assert!(i < queued.len());
            assert!(queued[i].nodes as usize <= free);
            // Strict FIFO may only ever pick the head.
            if policy == PolicyKind::Fifo {
                assert_eq!(i, 0);
            }
        } else if policy == PolicyKind::Backfill {
            // Backfill returning None means nothing fits.
            assert!(queued.iter().all(|j| j.nodes as usize > free));
        }
    }
}

// ---- LU factorization ------------------------------------------------------

#[test]
fn lu_solves_diagonally_dominant_systems() {
    let mut rng = SimRng::seed_from_u64(0x10_F4C7);
    for _ in 0..24 {
        let n = rng.gen_range(2usize..24);
        let seed = rng.gen_range(0u64..500);
        let mut a = Matrix::random(n, seed);
        // Make it comfortably non-singular.
        for i in 0..n {
            let v = a.get(i, i) + n as f64;
            a.set(i, i, v);
        }
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let b = a.matvec(&x_true);
        let mut lu = a.clone();
        let r = lu_factor(&mut lu, 1, DEFAULT_NB.min(n));
        let x = lu_solve(&lu, &r.pivots, &b);
        let err: Vec<f64> = x.iter().zip(&x_true).map(|(p, q)| p - q).collect();
        assert!(vec_norm_inf(&err) < 1e-8, "residual too large: {:?}", vec_norm_inf(&err));
    }
}

#[test]
fn lu_parallel_equals_sequential() {
    let mut rng = SimRng::seed_from_u64(0x10_9A6);
    for _ in 0..16 {
        let n = rng.gen_range(4usize..32);
        let seed = rng.gen_range(0u64..100);
        let a = Matrix::random(n, seed);
        let mut s = a.clone();
        let mut p = a.clone();
        let rs = lu_factor(&mut s, 1, 8);
        let rp = lu_factor(&mut p, 3, 8);
        assert_eq!(rs.pivots, rp.pivots);
        for (x, y) in s.data.iter().zip(p.data.iter()) {
            assert_eq!(x, y);
        }
    }
}

// ---- wire format: full KernelMsg surface -----------------------------------

/// One exemplar of every `KernelMsg` variant, with non-default payloads so
/// field transposition bugs cannot cancel out.
fn kernel_msg_surface() -> Vec<phoenix::proto::KernelMsg> {
    use phoenix::proto::checkpoint::CheckpointData;
    use phoenix::proto::{
        Action, AppState, AppStatus, AuthToken, BulletinEntry, BulletinKey, BulletinQuery,
        BulletinValue, ConsumerReg, Event, EventFilter, EventPayload, EventType, JobId, JobSpec,
        JobState, KernelMsg, MemberInfo, NodeOp, NodeServices, PartitionId, QueueRow, RequestId,
        Role, ServiceDirectory, ServiceKind, TaskSpec, UserId,
    };
    use phoenix::sim::{Diagnosis, NicId, NodeId, Pid, ResourceUsage};

    let member = MemberInfo {
        partition: PartitionId(2),
        node: NodeId(7),
        gsd: Pid(31),
        event: Pid(32),
        bulletin: Pid(33),
        checkpoint: Pid(34),
        host_ppm: Pid(35),
    };
    let services = NodeServices {
        node: NodeId(9),
        wd: Pid(41),
        detector: Pid(42),
        ppm: Pid(43),
    };
    let directory = ServiceDirectory {
        config: Pid(1),
        security: Pid(2),
        partitions: vec![member],
        nodes: vec![services],
    };
    let usage = ResourceUsage {
        cpu: 0.25,
        memory: 0.5,
        swap: 0.125,
        disk_io: 0.75,
        net_io: 0.0625,
    };
    let entry = BulletinEntry {
        key: BulletinKey::Resource(NodeId(3)),
        value: BulletinValue::Resource(usage),
        stamp_ns: 12_345,
    };
    let app_entry = BulletinEntry {
        key: BulletinKey::App(NodeId(4), JobId(77)),
        value: BulletinValue::App(AppState {
            job: JobId(77),
            node: NodeId(4),
            cpu: 0.5,
            memory: 0.25,
            status: AppStatus::Running,
            sla_ok: true,
        }),
        stamp_ns: 67_890,
    };
    let event = Event {
        etype: EventType::Custom(513),
        origin: NodeId(6),
        partition: PartitionId(1),
        seq: 99,
        payload: EventPayload::Text("probe".into()),
    };
    let token = AuthToken {
        user: UserId::new("ops"),
        role: Role::SystemAdministrator,
        expires_ns: 5_000_000_000,
        mac: 0xDEAD_BEEF_u64,
    };
    let task = TaskSpec {
        cpus: 2,
        cpu_load: 0.8,
        mem_load: 0.3,
        duration_ns: Some(7_000_000),
    };
    let spec = JobSpec::simple(11, "alice", "hpc", 4);

    vec![
        KernelMsg::Boot(directory.clone().into()),
        KernelMsg::WdHeartbeat { node: NodeId(3), nic: NicId(1), seq: 99 },
        KernelMsg::ProbeReq { req: RequestId(5) },
        KernelMsg::ProbeResp { req: RequestId(5) },
        KernelMsg::WdHeartbeatAck { nic: NicId(1), seq: 99 },
        KernelMsg::MetaHeartbeat {
            from_partition: PartitionId(2),
            nic: NicId(2),
            epoch: 17,
            seq: 41,
        },
        KernelMsg::MetaJoin { member },
        KernelMsg::MetaMembership { epoch: 18, members: vec![member, member].into() },
        KernelMsg::RegroupPing {
            from_partition: PartitionId(3),
            epoch: 7,
            round: 21,
            witness: PartitionId(1),
            witness_epoch: 4,
        },
        KernelMsg::RegroupAck {
            from_partition: PartitionId(5),
            epoch: 9,
            round: 21,
            frozen: true,
            weight: 3,
            witness: PartitionId(2),
            witness_epoch: 5,
        },
        KernelMsg::RegroupFreeze { frozen: true },
        KernelMsg::RegroupProbe { round: 22 },
        KernelMsg::RegroupProbeAck {
            round: 22,
            partition: PartitionId(6),
            gsd: Pid(91),
            alive: true,
        },
        KernelMsg::DirectoryStale { partition: PartitionId(4), stale: true },
        KernelMsg::MetaMemberDown {
            partition: PartitionId(1),
            diagnosis: Diagnosis::NetworkFailure,
        },
        KernelMsg::SvcRegister {
            kind: ServiceKind::Event,
            pid: Pid(50),
            factory: "es".into(),
        },
        KernelMsg::SvcHeartbeat { kind: ServiceKind::DataBulletin, pid: Pid(51), seq: 3 },
        KernelMsg::PartitionView { members: vec![member].into(), local: member },
        KernelMsg::EsRegisterConsumer {
            req: RequestId(55),
            reg: ConsumerReg {
                consumer: Pid(60),
                filter: EventFilter::Types(vec![EventType::Custom(1), EventType::Custom(2)]),
            },
        },
        KernelMsg::EsRegisterAck { req: RequestId(55) },
        KernelMsg::EsUnregisterConsumer { consumer: Pid(60) },
        KernelMsg::EsRegisterSupplier {
            supplier: Pid(61),
            types: vec![EventType::Custom(4)],
        },
        KernelMsg::EsPublish { event: event.clone() },
        KernelMsg::EsNotify { event: event.clone() },
        KernelMsg::EsFedForward { event },
        KernelMsg::DbPut { entries: vec![entry.clone(), app_entry.clone()] },
        KernelMsg::DbQuery { req: RequestId(7), query: BulletinQuery::Node(NodeId(3)) },
        KernelMsg::DbResp {
            req: RequestId(7),
            entries: vec![entry.clone()].into(),
            complete: false,
        },
        KernelMsg::DbFedQuery { req: RequestId(8), query: BulletinQuery::Apps },
        KernelMsg::DbFedResp {
            req: RequestId(8),
            partition: PartitionId(2),
            entries: vec![app_entry],
        },
        KernelMsg::CkSave {
            service: ServiceKind::Event,
            partition: PartitionId(1),
            data: CheckpointData::EventService {
                consumers: vec![ConsumerReg { consumer: Pid(70), filter: EventFilter::All }],
                next_seq: 12,
            },
        },
        KernelMsg::CkLoad {
            req: RequestId(9),
            service: ServiceKind::DataBulletin,
            partition: PartitionId(0),
        },
        KernelMsg::CkLoadResp {
            req: RequestId(9),
            data: Some(CheckpointData::Bulletin { entries: vec![entry] }.into()),
        },
        KernelMsg::CkDelete { service: ServiceKind::Group, partition: PartitionId(2) },
        KernelMsg::CkReplicate {
            service: ServiceKind::UserEnvironment,
            partition: PartitionId(1),
            data: CheckpointData::Scheduler {
                queued: vec![spec.clone()],
                running: vec![(JobId(11), vec![NodeId(1), NodeId(2)])],
            }
            .into(),
        },
        KernelMsg::CkSyncReq { req: RequestId(10) },
        KernelMsg::CkSyncResp {
            req: RequestId(10),
            items: vec![(
                ServiceKind::Group,
                PartitionId(1),
                CheckpointData::Supervision { entries: vec![("pws".into(), Pid(80))] }.into(),
            )],
        },
        KernelMsg::CfgQueryTopology { req: RequestId(11) },
        KernelMsg::CfgTopology {
            req: RequestId(11),
            topology: ClusterTopology::uniform(2, 4, 1).into(),
        },
        KernelMsg::CfgQueryDirectory { req: RequestId(12) },
        KernelMsg::CfgDirectory {
            req: RequestId(12),
            directory: Box::new(directory),
        },
        KernelMsg::CfgSetParam {
            req: RequestId(13),
            key: "hb_interval_ms".into(),
            value: "250".into(),
        },
        KernelMsg::CfgAck { req: RequestId(13), ok: true },
        KernelMsg::DirectoryUpdate { partition: PartitionId(2), member },
        KernelMsg::DirectoryUpdateNode { services },
        KernelMsg::CfgNodeOp { req: RequestId(14), node: NodeId(5), op: NodeOp::Shutdown },
        KernelMsg::SecLogin {
            req: RequestId(15),
            user: UserId::new("alice"),
            secret: "hunter2".into(),
        },
        KernelMsg::SecLoginResp { req: RequestId(15), token: Some(token.clone()) },
        KernelMsg::SecCheck {
            req: RequestId(16),
            token: token.clone(),
            action: Action::Reconfigure,
        },
        KernelMsg::SecCheckResp { req: RequestId(16), allowed: false },
        KernelMsg::PpmExec {
            req: RequestId(17),
            job: JobId(21),
            task: task.clone(),
            targets: vec![NodeId(1), NodeId(3), NodeId(5)],
            reply_to: Pid(90),
        },
        KernelMsg::PpmExecAck {
            req: RequestId(17),
            job: JobId(21),
            node: NodeId(3),
            ok: true,
        },
        KernelMsg::PpmDelete {
            req: RequestId(18),
            job: JobId(21),
            targets: vec![NodeId(1)],
            reply_to: Pid(90),
        },
        KernelMsg::PpmDeleteAck { req: RequestId(18), job: JobId(21), node: NodeId(1) },
        KernelMsg::AppStarted { job: JobId(21), pid: Pid(91), task },
        KernelMsg::AppExited { job: JobId(21), pid: Pid(91), failed: true },
        KernelMsg::PwsSubmit { req: RequestId(19), token: token.clone(), spec: spec.clone() },
        KernelMsg::PwsSubmitResp {
            req: RequestId(19),
            accepted: false,
            reason: "pool full".into(),
        },
        KernelMsg::PwsCancel { req: RequestId(20), token, job: JobId(11) },
        KernelMsg::PwsCancelResp { req: RequestId(20), ok: true },
        KernelMsg::PwsJobStatus { req: RequestId(21), job: JobId(11) },
        KernelMsg::PwsJobStatusResp {
            req: RequestId(21),
            state: Some(JobState::Running),
            nodes: vec![NodeId(2), NodeId(4)],
        },
        KernelMsg::PwsQueueStatus { req: RequestId(22), pool: Some("hpc".into()) },
        KernelMsg::PwsQueueStatusResp {
            req: RequestId(22),
            rows: vec![QueueRow {
                job: JobId(11),
                pool: "hpc".into(),
                user: UserId::new("alice"),
                state: JobState::Queued,
                nodes: vec![NodeId(2)],
            }],
        },
        KernelMsg::PoolLeaseReq { req: RequestId(23), from_pool: "biz".into(), nodes: 3 },
        KernelMsg::PoolLeaseResp {
            req: RequestId(23),
            granted: vec![NodeId(10), NodeId(11)],
        },
        KernelMsg::PoolLeaseReturn { nodes: vec![NodeId(10)] },
        KernelMsg::PbsPoll { req: RequestId(24) },
        KernelMsg::PbsPollResp {
            req: RequestId(24),
            node: NodeId(6),
            usage,
            jobs: vec![JobId(11), JobId(12)],
        },
        KernelMsg::SlowPing { seq: 4_242 },
        KernelMsg::SlowPong { seq: 4_242 },
        KernelMsg::SlowLeaderYield { from_partition: PartitionId(1) },
        KernelMsg::MetaQuarantine {
            epoch: 6,
            quarantined: vec![PartitionId(2), PartitionId(5)],
        },
    ]
}

/// Round-trip every `KernelMsg` variant through the wire format, checking
/// the size estimator agrees with the actual encoding.
#[test]
fn kernel_msg_full_surface_round_trips() {
    use phoenix::proto::wire::{decode, encode};
    use phoenix::proto::KernelMsg;
    let msgs = kernel_msg_surface();
    // Every variant exactly once — a duplicate here means a copy/paste slip
    // left some variant uncovered.
    let mut seen = Vec::new();
    for m in &msgs {
        let d = std::mem::discriminant(m);
        assert!(!seen.contains(&d), "duplicate variant in surface: {m:?}");
        seen.push(d);
    }
    // Self-maintaining: the expected count is derived from an exhaustive
    // match inside the wire macro, so adding a variant without extending
    // this surface fails here — no hand-pinned constant to forget.
    assert_eq!(
        msgs.len(),
        <KernelMsg as phoenix::proto::WireVariants>::VARIANT_COUNT,
        "KernelMsg variant count changed — extend the surface"
    );
    for msg in msgs {
        let bytes = encode(&msg);
        assert_eq!(
            bytes.len(),
            encoded_size(&msg),
            "size estimator disagrees for {msg:?}"
        );
        let back: KernelMsg = decode(&bytes).expect("decode");
        assert_eq!(back, msg);
    }
}

/// The traffic classes `Metrics::by_label` is keyed by: `KernelMsg::LABELS`
/// has 16 distinct rows and each is the `label()` of at least one variant,
/// so no row counts nothing and no two classes share a key.
#[test]
fn kernel_msg_labels_are_sixteen_rows_each_in_use() {
    use phoenix::proto::KernelMsg;
    use phoenix::sim::Message;
    use std::collections::BTreeSet;
    let rows: BTreeSet<&str> = KernelMsg::LABELS.iter().copied().collect();
    assert_eq!((KernelMsg::LABELS.len(), rows.len()), (16, 16), "{:?}", KernelMsg::LABELS);
    let used: BTreeSet<&str> = kernel_msg_surface().iter().map(|m| m.label()).collect();
    assert_eq!(used, rows);
}

/// Canonicality over the whole message surface: every byte string the
/// encoder can produce decodes back, and re-encoding the decoded value
/// reproduces the input *byte for byte*. Sits next to the VARIANT_COUNT
/// pin above so a new variant cannot ship a non-canonical encoding.
#[test]
fn kernel_msg_decode_reencodes_byte_identical() {
    use phoenix::proto::wire::{decode, encode};
    use phoenix::proto::KernelMsg;
    for msg in kernel_msg_surface() {
        let bytes = encode(&msg);
        let back: KernelMsg = decode(&bytes).expect("decode");
        assert_eq!(
            encode(&back),
            bytes,
            "decode∘encode is not byte-identity for {msg:?}"
        );
    }
}

/// The view agrees with the owned decoder on every variant: every buffer
/// `decode` accepts parses, and exactly the two shapes the view decodes,
/// `WdHeartbeat` and `ProbeReq`, come out hot, field for field.
#[test]
fn kernel_msg_view_agrees_with_decode() {
    use phoenix::proto::wire::encode;
    use phoenix::proto::{KernelMsg, KernelMsgView};
    let mut hot = 0usize;
    for msg in kernel_msg_surface() {
        let view = KernelMsgView::parse(&encode(&msg)).expect("view parse");
        let want = match msg {
            KernelMsg::WdHeartbeat { node, nic, seq } => {
                KernelMsgView::WdHeartbeat { node, nic, seq }
            }
            KernelMsg::ProbeReq { req } => KernelMsgView::ProbeReq { req },
            _ => KernelMsgView::Other,
        };
        assert_eq!(view, want, "{msg:?}");
        hot += view.is_hot() as usize;
    }
    assert_eq!(hot, 2, "is_hot() holds for exactly the two decoded shapes");
}

/// Strict canonical decode: flag bytes a canonical encoder can never emit
/// (bool/Option > 1) are rejected with `BadTag`, not silently accepted.
/// Exemplars live here (not only in the random fuzz above) so the rejected
/// bytes stay pinned.
#[test]
fn kernel_msg_rejects_noncanonical_flag_bytes() {
    use phoenix::proto::wire::{decode, encode, WireError};
    use phoenix::proto::{KernelMsg, PartitionId, RequestId};

    // RegroupAck's `frozen` bool is the 25th byte region: tag(4) +
    // from_partition(8) + epoch(8) + round(8). Locate it by diffing the
    // true/false encodings instead of hand-counting offsets.
    let mk = |frozen| KernelMsg::RegroupAck {
        from_partition: PartitionId(5),
        epoch: 9,
        round: 21,
        frozen,
        weight: 3,
        witness: PartitionId(2),
        witness_epoch: 5,
    };
    let t = encode(&mk(true));
    let f = encode(&mk(false));
    let flag_at = t
        .iter()
        .zip(&f)
        .position(|(a, b)| a != b)
        .expect("encodings differ only at the flag");
    for bad in [2u8, 0x7F, 0xFF] {
        let mut bytes = t.clone();
        bytes[flag_at] = bad;
        match decode::<KernelMsg>(&bytes) {
            Err(WireError::BadTag(v)) => assert_eq!(v, bad as u32),
            other => panic!("bool flag {bad:#x} must be rejected, got {other:?}"),
        }
    }

    // Option flag: SecLoginResp { token: None } encodes the flag last.
    let none = encode(&KernelMsg::SecLoginResp { req: RequestId(15), token: None });
    for bad in [2u8, 0xEE] {
        let mut bytes = none.clone();
        *bytes.last_mut().expect("non-empty") = bad;
        match decode::<KernelMsg>(&bytes) {
            Err(WireError::BadTag(v)) => assert_eq!(v, bad as u32),
            other => panic!("Option flag {bad:#x} must be rejected, got {other:?}"),
        }
    }
}

/// Decoding must be total: random byte mutations, truncations and garbage
/// may fail, but must never panic and never round-trip to different bytes.
#[test]
fn kernel_msg_decode_survives_random_mutations() {
    use phoenix::proto::wire::{decode, encode};
    use phoenix::proto::KernelMsg;
    let mut rng = SimRng::seed_from_u64(0xFA22_u64);
    let msgs = kernel_msg_surface();
    for msg in &msgs {
        let clean = encode(msg);
        for _ in 0..CASES / 4 {
            let mut bytes = clean.clone();
            // 1-4 random single-byte corruptions.
            for _ in 0..rng.gen_range(1usize..=4) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] ^= (rng.gen_range(1u64..256)) as u8;
            }
            // Occasionally truncate too.
            if rng.gen_range(0u64..4) == 0 {
                bytes.truncate(rng.gen_range(0usize..=bytes.len()));
            }
            match decode::<KernelMsg>(&bytes) {
                // A mutation may land in a don't-care position (e.g. a
                // float payload) and still parse; decode is strictly
                // canonical (bool/Option flags > 1 are rejected), so
                // whatever parses must round-trip to the same bytes.
                Ok(back) => {
                    let re_bytes = encode(&back);
                    assert_eq!(re_bytes, bytes, "accepted bytes must be canonical");
                    let re: KernelMsg = decode(&re_bytes).expect("re-decode");
                    assert_eq!(re, back);
                }
                Err(_) => {}
            }
        }
    }
    // Pure garbage of random lengths.
    for _ in 0..CASES {
        let bytes: Vec<u8> =
            (0..rng.gen_range(0usize..200)).map(|_| rng.next_u64() as u8).collect();
        let _ = decode::<KernelMsg>(&bytes);
    }
}

/// A snapshot costs the same bytes on every hop: `CkReplicate` carrying a
/// `Shared` of a value encodes as the `CkSave` carrying the value itself,
/// but for the 4-byte message tag. One exemplar per `CheckpointData` variant.
#[test]
fn shared_snapshot_encodes_as_the_owned_one() {
    use phoenix::proto::checkpoint::CheckpointData;
    use phoenix::proto::wire::encode;
    use phoenix::proto::{
        BulletinEntry, BulletinKey, BulletinValue, ConsumerReg, JobId, KernelMsg, PartitionId,
        ServiceKind,
    };
    use phoenix::sim::{NodeId, Pid, ResourceUsage};

    let entry = BulletinEntry {
        key: BulletinKey::Resource(NodeId(3)),
        value: BulletinValue::Resource(ResourceUsage::IDLE),
        stamp_ns: 12_345,
    };
    let snapshots = [
        CheckpointData::EventService {
            consumers: vec![ConsumerReg { consumer: Pid(70), filter: EventFilter::All }],
            next_seq: 12,
        },
        CheckpointData::Bulletin { entries: vec![entry.clone(), entry] },
        CheckpointData::Scheduler {
            queued: vec![JobSpec::simple(11, "alice", "hpc", 4), JobSpec::simple(12, "bob", "hpc", 1)],
            running: vec![(JobId(9), vec![NodeId(1), NodeId(2)])],
        },
        CheckpointData::Supervision { entries: vec![("sched:hpc".into(), Pid(80))] },
        CheckpointData::Raw(vec![1, 2, 3, 5, 8]),
    ];
    let mut labels: Vec<&str> = snapshots.iter().map(CheckpointData::label).collect();
    labels.dedup();
    assert_eq!(labels.len(), 5, "one exemplar of each variant");
    for data in snapshots {
        let (service, partition) = (ServiceKind::UserEnvironment, PartitionId(3));
        let shared = data.clone().into();
        let replicate = encode(&KernelMsg::CkReplicate { service, partition, data: shared });
        let save = encode(&KernelMsg::CkSave { service, partition, data });
        assert_ne!(save[..4], replicate[..4], "the tags differ");
        assert_eq!(save[4..], replicate[4..], "and nothing else does");
    }
}

/// A name held as `Arc<str>` is the `String` of the same text on the wire:
/// same bytes, same size, each decodes the other's encoding, and both
/// reject the same malformed input.
#[test]
fn arc_str_is_string_on_the_wire() {
    use phoenix::proto::wire::{decode, encode, WireError};
    use std::sync::Arc;
    for text in ["", "alice", "batch-pool-7", "日本語 naïve ✓"] {
        let (owned, counted) = (String::from(text), Arc::<str>::from(text));
        let bytes = encode(&owned);
        assert_eq!(encode(&counted), bytes);
        assert_eq!(bytes.len(), 8 + text.len());
        assert_eq!(encoded_size(&counted), encoded_size(&owned));
        assert_eq!(decode::<Arc<str>>(&bytes).expect("decode"), counted);
        assert_eq!(decode::<String>(&encode(&counted)).expect("decode"), owned);
    }
    let mut bad_utf8 = encode(&String::from("ab"));
    bad_utf8[8] = 0xFF;
    let long_prefix = [&9u64.to_le_bytes()[..], b"ab"].concat();
    for (bytes, error) in [
        (bad_utf8, WireError::BadUtf8),
        (long_prefix, WireError::BadLen(9)),
        (vec![2, 0, 0], WireError::Eof),
    ] {
        assert_eq!(decode::<Arc<str>>(&bytes), Err(error));
        assert_eq!(decode::<String>(&bytes), Err(error));
    }
}

/// Every queued event holds a `KernelMsg` by value, so the event arena and
/// the process's resident size scale with this number.
#[test]
fn kernel_msg_does_not_grow() {
    let size = std::mem::size_of::<phoenix::proto::KernelMsg>();
    assert!(size <= 168, "KernelMsg is {size} bytes, it was 168 before the shared snapshots");
}

// ---- determinism of the whole simulated kernel (three seeds suffice;
// each case is expensive) ----------------------------------------------------

#[test]
fn booted_cluster_is_deterministic() {
    use phoenix::kernel::boot::boot_and_stabilize;
    use phoenix::kernel::KernelParams;
    for seed in [1u64, 7, 1234] {
        let run = |seed: u64| {
            let (mut w, _c) = boot_and_stabilize(
                ClusterTopology::uniform(2, 4, 1),
                KernelParams::fast(),
                seed,
            );
            w.run_for(SimDuration::from_secs(5));
            (
                w.metrics().total.sent,
                w.metrics().total.sent_bytes,
                w.metrics().events_processed,
            )
        };
        assert_eq!(run(seed), run(seed), "seed {seed} diverged");
    }
}
