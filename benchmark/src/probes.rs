//! Isolated layer probes: a layer's public functions timed directly on
//! fixed input tables built from the seed. Each figure is the median of
//! five rounds; cheap calls run 10^5 times a round, bulk ones 2,000.

use crate::report::Report;
use crate::stats;
use phoenix_kernel::regroup::AckInfo;
use phoenix_kernel::{
    NicHealth, NicHealthParams, Regroup, RegroupParams, SlowDetect, SlowDetectParams,
};
use phoenix_proto::wire::{decode, encode};
use phoenix_proto::{
    encoded_size, CheckpointData, JobSpec, KernelMsg, KernelMsgView, MemberInfo, NodeServices,
    PartitionId, RequestId, ServiceDirectory, ServiceKind, UserId,
};
use phoenix_pws::workload::{generate, WorkloadParams};
use phoenix_pws::{pick, PolicyCtx, PolicyKind};
use phoenix_sim::{
    Actor, ClusterBuilder, Ctx, HeapScheduler, Message, NicId, NodeId, NodeSpec, Pid, Scheduler,
    SimDuration, SimRng, SimTime, WheelScheduler,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 5;

/// Calls per round: full size, or a hundredth of it for the self-tests
/// (which check that the probes run, not what they read).
#[derive(Clone, Copy)]
struct Calls {
    cheap: usize,
    bulk: usize,
    null_world_secs: u64,
}

impl Calls {
    fn new(smoke: bool) -> Calls {
        if smoke {
            Calls {
                cheap: 1_000,
                bulk: 20,
                null_world_secs: 1,
            }
        } else {
            Calls {
                cheap: 100_000,
                bulk: 2_000,
                null_world_secs: 100,
            }
        }
    }
}

/// Median over `ROUNDS` of the mean host ns of `f`, called `calls` times
/// a round with the call index.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&rounds)
}

/// Replay a recorded pop stream on a bare scheduler. Pushes happen in
/// sequence-number order (the order the world made them), each as late as
/// its own pop allows: a handler's sends and timers share one burst of
/// sequence numbers, so the first of them to pop pulls the rest in and the
/// queue depth stays within one message latency of the recorded run.
/// Returns host ns per popped event; panics if the scheduler pops in any
/// other order than the recording.
fn replay_ns_per_event(stream: &[(u64, u64)], make: impl Fn() -> Box<dyn Scheduler<u32>>) -> f64 {
    if stream.is_empty() {
        return 0.0;
    }
    let mut by_seq: Vec<(u64, u64)> = stream.to_vec();
    by_seq.sort_unstable_by_key(|&(_, seq)| seq);
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut sched = make();
            let mut next = 0;
            let t = Instant::now();
            for &(at, seq) in stream {
                while next < by_seq.len() && by_seq[next].1 <= seq {
                    let (a, s) = by_seq[next];
                    sched.push(SimTime(a), s, 0);
                    next += 1;
                }
                let popped = sched.pop().map(|(a, s, _)| (a.0, s));
                assert_eq!(popped, Some((at, seq)), "scheduler replay out of order");
            }
            t.elapsed().as_nanos() as f64 / stream.len() as f64
        })
        .collect();
    stats::median(&rounds)
}

/// Substrate floor: every node re-arms a 1 s timer and sends one message
/// to its neighbour, which ignores it. Pop, `procs` lookups, route, RNG,
/// `Metrics` and push with no kernel work.
struct NullActor {
    peer: Pid,
}

impl Actor<u64> for NullActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _token: u64) {
        ctx.send(self.peer, 1);
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
}

fn null_dispatch_ns(seed: u64, secs: u64) -> f64 {
    const NODES: usize = 640;
    let mut world = ClusterBuilder::new()
        .nodes(NODES, NodeSpec::default())
        .seed(seed)
        .build::<u64>();
    // Pids are handed out in spawn order starting at 1, so node i's
    // neighbour is known before it exists.
    for i in 0..NODES {
        let peer = Pid(((i + 1) % NODES) as u64 + 1);
        let pid = world.spawn(NodeId(i as u32), Box::new(NullActor { peer }));
        assert_eq!(pid, Pid(i as u64 + 1), "pid numbering changed");
    }
    world.run_for(SimDuration::from_secs(2));
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let before = world.metrics().events_processed;
            let t = Instant::now();
            world.run_for(SimDuration::from_secs(secs));
            let ns = t.elapsed().as_nanos() as f64;
            ns / (world.metrics().events_processed - before) as f64
        })
        .collect();
    assert!(
        world.metrics().total.delivered > 0,
        "null world sent nothing"
    );
    stats::median(&rounds)
}

fn big_directory() -> ServiceDirectory {
    let mut dir = ServiceDirectory {
        config: Pid(1),
        security: Pid(2),
        ..ServiceDirectory::default()
    };
    let mut pid = 3;
    let mut next = || {
        pid += 1;
        Pid(pid)
    };
    for p in 0..160u32 {
        dir.partitions.push(MemberInfo {
            partition: PartitionId(p),
            node: NodeId(p * 16),
            gsd: next(),
            event: next(),
            bulletin: next(),
            checkpoint: next(),
            host_ppm: next(),
        });
        for n in 0..16 {
            dir.nodes.push(NodeServices {
                node: NodeId(p * 16 + n),
                wd: next(),
                detector: next(),
                ppm: next(),
            });
        }
    }
    dir
}

fn job_queue(seed: u64, len: usize) -> Vec<JobSpec> {
    let params = WorkloadParams {
        max_nodes: 8,
        ..WorkloadParams::default()
    };
    generate(&params, len, seed)
        .into_iter()
        .map(|a| a.spec)
        .collect()
}

/// Run every probe and set its per-layer metric. `stream` is the
/// workload's recorded `(time, seq)` pop stream.
pub fn run(report: &mut Report, seed: u64, smoke: bool, stream: &[(u64, u64)]) {
    let calls = Calls::new(smoke);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x70_72_6f_62_65);

    report.metric(
        "sim.sched.wheel_replay_ns_per_event",
        replay_ns_per_event(stream, || Box::new(WheelScheduler::new())),
        "ns",
    );
    report.metric(
        "sim.sched.heap_replay_ns_per_event",
        replay_ns_per_event(stream, || Box::new(HeapScheduler::new())),
        "ns",
    );
    report.metric(
        "sim.world.null_dispatch_ns",
        null_dispatch_ns(seed, calls.null_world_secs),
        "ns",
    );

    // --- proto: sizing, encode, decode, view, clone ----------------------
    let hot: Vec<KernelMsg> = (0..256u64)
        .map(|i| {
            if i % 2 == 0 {
                KernelMsg::WdHeartbeat {
                    node: NodeId(rng.gen_range(0..2560u32)),
                    nic: NicId((i % 3) as u8),
                    seq: rng.next_u64(),
                }
            } else {
                KernelMsg::ProbeReq {
                    req: RequestId(rng.next_u64()),
                }
            }
        })
        .collect();
    report.metric(
        "proto.wire.size_ns_hot",
        ns_per_call(calls.cheap, |i| {
            black_box(black_box(&hot[i % hot.len()]).wire_size());
        }),
        "ns",
    );
    let save = KernelMsg::CkSave {
        service: ServiceKind::UserEnvironment,
        partition: PartitionId(0),
        data: CheckpointData::Scheduler {
            queued: job_queue(seed, 1_000),
            running: Vec::new(),
        },
    };
    let boot_dir = big_directory();
    let bulk_ns = ns_per_call(calls.bulk, |i| {
        if i % 2 == 0 {
            black_box(black_box(&save).wire_size());
        } else {
            // A fresh `Shared` each call: the first sizing of a boot
            // directory, before the memo exists.
            let boot = KernelMsg::Boot(boot_dir.clone().into());
            black_box(black_box(&boot).wire_size());
        }
    });
    report.metric("proto.wire.size_ns_bulk", bulk_ns, "ns");
    let save_bytes = encode(&save);
    let kb = save_bytes.len() as f64 / 1024.0;
    report.metric(
        "proto.wire.encode_ns_per_kb",
        ns_per_call(calls.bulk, |_| {
            black_box(encode(black_box(&save)));
        }) / kb,
        "ns",
    );
    report.metric(
        "proto.wire.decode_ns_per_kb",
        ns_per_call(calls.bulk, |_| {
            black_box(decode::<KernelMsg>(black_box(&save_bytes)).expect("round trip"));
        }) / kb,
        "ns",
    );
    assert_eq!(
        encoded_size(&save),
        save_bytes.len(),
        "sized and encoded bytes differ"
    );
    let hot_bytes: Vec<Vec<u8>> = hot.iter().map(encode).collect();
    report.metric(
        "proto.view.parse_ns_hot",
        ns_per_call(calls.cheap, |i| {
            let view = KernelMsgView::parse(black_box(&hot_bytes[i % hot_bytes.len()]));
            black_box(view.expect("hot shape parses").is_hot());
        }),
        "ns",
    );
    report.metric(
        "proto.msg.clone_ns_bulk",
        ns_per_call(calls.bulk, |_| {
            black_box(black_box(&save).clone());
        }),
        "ns",
    );

    // --- kernel: regroup round, fail-slow and NIC-health observers ---------
    let mut regroup = Regroup::new(RegroupParams::quorum());
    let parts: Vec<PartitionId> = (0..9).map(PartitionId).collect();
    regroup.set_partitions(&parts);
    let mut now = 0u64;
    report.metric(
        "kernel.regroup.round_ns",
        ns_per_call(calls.cheap, |_| {
            now += 1_000_000;
            let round = regroup.begin_round(SimTime(now));
            for (k, &p) in parts[1..].iter().enumerate() {
                let info = AckInfo {
                    gsd: Pid(100 + p.0 as u64),
                    epoch: regroup.epoch(),
                    frozen: false,
                    weight: 1,
                };
                regroup.on_ack(round, p, info, SimTime(now + 100 * k as u64));
            }
            black_box(regroup.conclude(parts[0], SimTime(now + 1_000)));
        }),
        "ns",
    );
    let rtts: Vec<(NodeId, u64)> = (0..1024)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..16u32)),
                rng.gen_range(80_000..120_000u64),
            )
        })
        .collect();
    let mut slow = SlowDetect::new(SlowDetectParams::slow());
    report.metric(
        "kernel.slow_detect.observe_ns",
        ns_per_call(calls.cheap, |i| {
            let (peer, rtt) = rtts[i % rtts.len()];
            black_box(slow.observe_rtt(peer, rtt));
        }),
        "ns",
    );
    let mut nics = NicHealth::new(NicHealthParams::lossy(), 3);
    report.metric(
        "kernel.nic_health.observe_ns",
        ns_per_call(calls.cheap, |i| {
            let nic = NicId((i % 3) as u8);
            if i % 50 == 49 {
                black_box(nics.observe_misses(nic, 2));
            } else {
                black_box(nics.observe_delivery(nic));
            }
        }),
        "ns",
    );

    // --- pws: Backfill pick on a short and a deep queue --------------------
    let usage: HashMap<UserId, f64> = HashMap::new();
    for (name, len) in [
        ("pws.policy.pick_ns_q10", 10),
        ("pws.policy.pick_ns_q1000", 1_000),
    ] {
        let queue = job_queue(seed + 1, len);
        report.metric(
            name,
            ns_per_call(calls.cheap, |i| {
                // free_nodes 0 scans the whole queue; 1..=8 stop early.
                let ctx = PolicyCtx {
                    free_nodes: i % 9,
                    usage: &usage,
                };
                black_box(pick(PolicyKind::Backfill, black_box(&queue), &ctx));
            }),
            "ns",
        );
    }

    // --- telemetry: the three calls instrumented code makes ---------------
    let shard = phoenix_telemetry::shard_begin();
    report.metric(
        "telemetry.counter_add_ns",
        ns_per_call(calls.cheap, |_| {
            phoenix_telemetry::counter_add("perf.probe.counter", 1)
        }),
        "ns",
    );
    report.metric(
        "telemetry.observe_ns",
        ns_per_call(calls.cheap, |i| {
            phoenix_telemetry::observe("perf.probe.hist", "perf", 1_000 + i as u64)
        }),
        "ns",
    );
    report.metric(
        "telemetry.span_ns",
        ns_per_call(calls.cheap, |i| {
            phoenix_telemetry::clock::set_now(i as u64);
            let span = phoenix_telemetry::span_start("perf.probe.span", "perf", 0);
            phoenix_telemetry::span_end(span);
        }),
        "ns",
    );
    drop(shard);
}
