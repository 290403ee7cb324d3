//! The data-bulletin service.
//!
//! Paper Sec 4.2: "Based on group service, data bulletin service is an
//! in-memory database which stores the state of cluster-wide physical
//! resource and application state; it provides interfaces for
//! non-persistent data storage and data query."
//!
//! One instance per partition. Detectors push their partition's readings to
//! the local instance; the instances form a federation shaped like a
//! complete graph (paper Fig 5): a query sent to *any* instance is fanned
//! out to every peer and answered with the merged cluster-wide result —
//! the "single access point". If a peer cannot answer before the timeout,
//! the reply is delivered with `complete = false`: "only the state of one
//! partition can't be obtained".

use crate::federation::Member;
use crate::group::registry::{kernel_factory_key, RespawnArgs};
use crate::params::KernelParams;
use phoenix_proto::{
    BulletinEntry, BulletinQuery, CheckpointData, KernelMsg, MemberInfo, PartitionId, RequestId,
    ServiceKind,
};
use phoenix_sim::{Actor, Ctx, Pid, SimTime, TimerId};
use std::collections::{BTreeMap, HashMap};

const KIND: ServiceKind = ServiceKind::DataBulletin;
const TOK_CKPT: u64 = 2;
const TOK_FED_BASE: u64 = 1_000;

/// An in-flight federated query.
struct PendingQuery {
    client: Pid,
    client_req: RequestId,
    query: BulletinQuery,
    acc: Vec<BulletinEntry>,
    waiting: Vec<PartitionId>,
    timer: TimerId,
    /// When the fan-out went out (`bulletin.query.fed` times it from here).
    started: SimTime,
    /// Fan-outs sent so far.
    sends: u32,
    /// The retry policy allows another: the next federation timeout
    /// re-asks the peers that have not answered instead of giving up.
    resend: bool,
}

/// The data-bulletin actor.
pub(crate) struct DataBulletin {
    member: Member,
    params: KernelParams,
    entries: BTreeMap<phoenix_proto::BulletinKey, (phoenix_proto::BulletinValue, u64)>,
    pending: HashMap<u64, PendingQuery>,
    next_fed: u64,
    /// Set by the GSD's `RegroupFreeze` while this partition sits on a
    /// minority island: answers degrade to `complete = false` without
    /// fanning out (the federation is unreachable by definition, and a
    /// minority must not present its view as the cluster's).
    frozen: bool,
}

impl DataBulletin {
    /// Boot-time instance.
    pub(crate) fn new(partition: PartitionId, params: KernelParams) -> Self {
        let key = kernel_factory_key(KIND, partition);
        let member = Member::new(KIND, key, MemberInfo::unwired(partition), &params);
        Self::with(member, params)
    }

    /// Respawned instance; restores its soft state from checkpoint so it
    /// can answer queries before detectors re-push.
    pub(crate) fn respawn(args: &RespawnArgs) -> Self {
        let member = Member::respawn(KIND, kernel_factory_key(KIND, args.partition), args);
        Self::with(member, args.params.clone())
    }

    fn with(member: Member, params: KernelParams) -> Self {
        DataBulletin {
            member,
            params,
            entries: BTreeMap::new(),
            pending: HashMap::new(),
            next_fed: 0,
            frozen: false,
        }
    }

    fn local_matches(&self, query: BulletinQuery) -> Vec<BulletinEntry> {
        if !query.wants_partition(self.member.partition()) {
            return Vec::new();
        }
        self.entries().filter(|e| query.matches(e)).collect()
    }

    /// The stored entries in key order, as the wire carries them.
    fn entries(&self) -> impl Iterator<Item = BulletinEntry> + '_ {
        self.entries
            .iter()
            .map(|(&key, &(ref value, stamp_ns))| BulletinEntry {
                key,
                value: value.clone(),
                stamp_ns,
            })
    }

    fn save_state(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        let entries = self.entries().collect();
        self.member.save(ctx, CheckpointData::Bulletin { entries });
    }

    fn finish_query(&mut self, ctx: &mut Ctx<'_, KernelMsg>, fed: u64, complete: bool) {
        if let Some(p) = self.pending.remove(&fed) {
            let (node, now) = (ctx.node().0, ctx.now().0);
            phoenix_telemetry::flight("bulletin.query.fed", "bulletin", node, p.started.0, now);
            if complete {
                ctx.cancel_timer(p.timer);
            } else {
                // Called from that timer's own handler: it has fired.
                phoenix_telemetry::counter_add("bulletin.fed_queries.timed_out", 1);
            }
            ctx.send(
                p.client,
                KernelMsg::DbResp {
                    req: p.client_req,
                    entries: p.acc.into(),
                    complete,
                },
            );
        }
    }
}

impl Actor<KernelMsg> for DataBulletin {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.member.start(ctx, "bulletin") {
            ctx.set_timer(self.params.detector_sample * 2, TOK_CKPT);
        }
        self.member.restore(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => {
                self.member.on_message(ctx, KernelMsg::Boot(dir));
                ctx.set_timer(self.params.detector_sample * 2, TOK_CKPT);
            }
            KernelMsg::DbPut { entries } => {
                phoenix_telemetry::counter_add("bulletin.puts", entries.len() as u64);
                for e in entries {
                    self.entries.insert(e.key, (e.value, e.stamp_ns));
                }
            }
            KernelMsg::RegroupFreeze { frozen } => {
                if frozen && !self.frozen {
                    phoenix_telemetry::counter_add("bulletin.freezes", 1);
                }
                self.frozen = frozen;
            }
            KernelMsg::DbQuery { req, query } => {
                phoenix_telemetry::counter_add("bulletin.queries", 1);
                if self.frozen {
                    // Minority island: answer what we hold, honestly
                    // partial, without burning a federation timeout on
                    // peers quorum says we cannot reach.
                    phoenix_telemetry::counter_add("bulletin.frozen_queries", 1);
                    ctx.send(
                        from,
                        KernelMsg::DbResp {
                            req,
                            entries: self.local_matches(query).into(),
                            complete: false,
                        },
                    );
                    return;
                }
                let acc = self.local_matches(query);
                // Which peers need to contribute?
                let waiting: Vec<PartitionId> = self
                    .member
                    .peers()
                    .filter(|&(p, _)| query.wants_partition(p))
                    .map(|(p, _)| p)
                    .collect();
                if waiting.is_empty() {
                    ctx.send(
                        from,
                        KernelMsg::DbResp {
                            req,
                            entries: acc.into(),
                            complete: true,
                        },
                    );
                    return;
                }
                self.next_fed += 1;
                let fed = self.next_fed;
                let fed_req = RequestId(fed);
                for (p, pid) in self.member.peers() {
                    if query.wants_partition(p) {
                        ctx.send(pid, KernelMsg::DbFedQuery { req: fed_req, query });
                    }
                }
                let timer =
                    ctx.set_timer(self.params.fed_query_timeout, TOK_FED_BASE + fed);
                let mut sends = 0;
                let resend = self.params.ft.retry().on_send(&mut sends, None).is_some();
                self.pending.insert(
                    fed,
                    PendingQuery {
                        client: from,
                        client_req: req,
                        query,
                        acc,
                        waiting,
                        timer,
                        started: ctx.now(),
                        sends,
                        resend,
                    },
                );
            }
            KernelMsg::DbFedQuery { req, query } => {
                let entries = self.local_matches(query);
                ctx.send(
                    from,
                    KernelMsg::DbFedResp {
                        req,
                        partition: self.member.partition(),
                        entries,
                    },
                );
            }
            KernelMsg::DbFedResp {
                req,
                partition,
                entries,
            } => {
                let fed = req.0;
                let done = if let Some(p) = self.pending.get_mut(&fed) {
                    // A partition no longer in `waiting` already answered:
                    // this copy is a duplicate (network duplication, or a
                    // retry racing the original) — merging it again would
                    // double its entries in the reply.
                    if p.waiting.contains(&partition) {
                        p.acc.extend(entries);
                        p.waiting.retain(|&w| w != partition);
                    } else {
                        phoenix_telemetry::counter_add("rpc.dedup.hits", 1);
                    }
                    p.waiting.is_empty()
                } else {
                    false
                };
                if done {
                    self.finish_query(ctx, fed, true);
                }
            }
            KernelMsg::CkLoadResp { data, .. } => {
                if let Some(CheckpointData::Bulletin { entries }) = self.member.recovered(ctx, data)
                {
                    for e in entries {
                        self.entries.insert(e.key, (e.value, e.stamp_ns));
                    }
                }
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_CKPT => {
                self.save_state(ctx);
                ctx.set_timer(self.params.detector_sample * 2, TOK_CKPT);
            }
            t if t >= TOK_FED_BASE => {
                let fed = t - TOK_FED_BASE;
                // Federation timeout. Under the lossy rung, re-ask the
                // peers that have not answered before giving up — the
                // fan-out request or its reply may simply have been lost.
                let policy = self.params.ft.retry();
                let retry = self.pending.get_mut(&fed).filter(|p| p.resend).map(|p| {
                    p.resend = policy.on_send(&mut p.sends, None).is_some();
                    (p.query, p.waiting.clone())
                });
                if let Some((query, waiting)) = retry {
                    let targets: Vec<Pid> = self
                        .member
                        .peers()
                        .filter(|(p, _)| waiting.contains(p))
                        .map(|(_, pid)| pid)
                        .collect();
                    for pid in targets {
                        ctx.send(pid, KernelMsg::DbFedQuery { req: RequestId(fed), query });
                    }
                    let timer =
                        ctx.set_timer(self.params.fed_query_timeout, TOK_FED_BASE + fed);
                    if let Some(p) = self.pending.get_mut(&fed) {
                        p.timer = timer;
                    }
                    return;
                }
                // Partial data: the paper's "only the state of one
                // partition can't be obtained".
                self.finish_query(ctx, fed, false);
            }
            _ => self.member.on_timer(ctx, token),
        }
    }

    fn name(&self) -> &str {
        "bulletin"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use phoenix_proto::{BulletinKey, BulletinValue, MemberInfo, ServiceDirectory};
    use phoenix_sim::{ClusterBuilder, NodeId, NodeSpec, ResourceUsage, SimDuration, World};

    fn setup(n: usize) -> (World<KernelMsg>, Vec<Pid>) {
        let mut w = ClusterBuilder::new()
            .nodes(n, NodeSpec::default())
            .build::<KernelMsg>();
        let dbs: Vec<Pid> = (0..n)
            .map(|i| {
                w.spawn(
                    NodeId(i as u32),
                    Box::new(DataBulletin::new(PartitionId(i as u32), KernelParams::fast())),
                )
            })
            .collect();
        let dir = ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions: dbs
                .iter()
                .enumerate()
                .map(|(i, &db)| MemberInfo {
                    partition: PartitionId(i as u32),
                    node: NodeId(i as u32),
                    gsd: Pid(0),
                    event: Pid(0),
                    bulletin: db,
                    checkpoint: Pid(0),
                    host_ppm: Pid(0),
                })
                .collect(),
            nodes: vec![],
        };
        for &db in &dbs {
            w.inject(db, KernelMsg::Boot((dir.clone()).into()));
        }
        w.run_for(SimDuration::from_millis(5));
        (w, dbs)
    }

    fn resource_entry(node: u32, cpu: f64) -> BulletinEntry {
        BulletinEntry {
            key: BulletinKey::Resource(NodeId(node)),
            value: BulletinValue::Resource(ResourceUsage {
                cpu,
                ..ResourceUsage::IDLE
            }),
            stamp_ns: 0,
        }
    }

    #[test]
    fn single_access_point_returns_cluster_wide_state() {
        let (mut w, dbs) = setup(3);
        // Each partition holds one node's reading.
        for (i, &db) in dbs.iter().enumerate() {
            w.inject(
                db,
                KernelMsg::DbPut {
                    entries: vec![resource_entry(i as u32, 0.5)],
                },
            );
        }
        w.run_for(SimDuration::from_millis(5));
        // Query ANY instance; expect all three entries.
        for &db in &dbs {
            let client = ClientHandle::spawn(&mut w, NodeId(0));
            client.send(
                &mut w,
                db,
                KernelMsg::DbQuery {
                    req: RequestId(1),
                    query: BulletinQuery::All,
                },
            );
            w.run_for(SimDuration::from_millis(10));
            let got = client.drain();
            assert_eq!(got.len(), 1);
            match &got[0].1 {
                KernelMsg::DbResp {
                    entries, complete, ..
                } => {
                    assert_eq!(entries.len(), 3);
                    assert!(*complete);
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn dead_peer_degrades_to_partial_answer() {
        let (mut w, dbs) = setup(3);
        for (i, &db) in dbs.iter().enumerate() {
            w.inject(
                db,
                KernelMsg::DbPut {
                    entries: vec![resource_entry(i as u32, 0.1)],
                },
            );
        }
        w.run_for(SimDuration::from_millis(5));
        w.kill_process(dbs[2]);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            dbs[0],
            KernelMsg::DbQuery {
                req: RequestId(2),
                query: BulletinQuery::All,
            },
        );
        w.run_for(SimDuration::from_millis(300));
        let got = client.drain();
        assert_eq!(got.len(), 1);
        match &got[0].1 {
            KernelMsg::DbResp {
                entries, complete, ..
            } => {
                assert_eq!(entries.len(), 2, "only one partition's state is lost");
                assert!(!complete);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn node_query_filters() {
        let (mut w, dbs) = setup(2);
        w.inject(
            dbs[0],
            KernelMsg::DbPut {
                entries: vec![resource_entry(0, 0.3), resource_entry(5, 0.9)],
            },
        );
        w.run_for(SimDuration::from_millis(5));
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            dbs[0],
            KernelMsg::DbQuery {
                req: RequestId(3),
                query: BulletinQuery::Node(NodeId(5)),
            },
        );
        w.run_for(SimDuration::from_millis(10));
        let got = client.drain();
        match &got[0].1 {
            KernelMsg::DbResp { entries, .. } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].key.node(), NodeId(5));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn partition_scoped_query_skips_fanout() {
        let (mut w, dbs) = setup(2);
        w.inject(
            dbs[0],
            KernelMsg::DbPut {
                entries: vec![resource_entry(0, 0.3)],
            },
        );
        w.run_for(SimDuration::from_millis(5));
        let before = w.metrics().label("bulletin").sent;
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            dbs[0],
            KernelMsg::DbQuery {
                req: RequestId(4),
                query: BulletinQuery::Partition(PartitionId(0)),
            },
        );
        w.run_for(SimDuration::from_millis(10));
        let got = client.drain();
        assert_eq!(got.len(), 1);
        // Only query + response crossed the wire: no federation messages.
        let after = w.metrics().label("bulletin").sent;
        assert_eq!(after - before, 2);
    }

    #[test]
    fn put_overwrites_stale_values() {
        let (mut w, dbs) = setup(1);
        w.inject(
            dbs[0],
            KernelMsg::DbPut {
                entries: vec![resource_entry(0, 0.2)],
            },
        );
        w.inject(
            dbs[0],
            KernelMsg::DbPut {
                entries: vec![resource_entry(0, 0.8)],
            },
        );
        w.run_for(SimDuration::from_millis(5));
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            dbs[0],
            KernelMsg::DbQuery {
                req: RequestId(5),
                query: BulletinQuery::All,
            },
        );
        w.run_for(SimDuration::from_millis(10));
        let got = client.drain();
        match &got[0].1 {
            KernelMsg::DbResp { entries, .. } => {
                assert_eq!(entries.len(), 1);
                match &entries[0].value {
                    BulletinValue::Resource(u) => assert_eq!(u.cpu, 0.8),
                    other => panic!("unexpected value {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
