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
//!
//! The table holds current state only. A detector's `DbPut` is its node's
//! whole state (the `Resource` row first, then one `App` row per
//! application it tracks), so a put replaces every `App` row the node had:
//! a finished job's row lives until its node's next sample and no longer.
//! A node whose detector died keeps its last rows, aged by their
//! `stamp_ns`, until something restarts the detector. A respawned instance
//! restores the rows its predecessor saved, but a restored row never
//! overwrites a fresher one a detector has already put.

use crate::federation::Member;
use crate::group::registry::{kernel_factory_key, RespawnArgs};
use crate::params::KernelParams;
use phoenix_proto::{
    BulletinEntry, BulletinKey, BulletinQuery, BulletinValue, CheckpointData, JobId, KernelMsg,
    MemberInfo, PartitionId, RequestId, ServiceKind,
};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimTime, TimerId};
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
    entries: BTreeMap<BulletinKey, (BulletinValue, u64)>,
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

    /// Drop every `App` row of `node`. Keys order every `Resource` row
    /// before every `App` row, so a table whose last key is not an `App`
    /// row holds none, and a node without apps costs one range search.
    fn forget_apps(&mut self, node: NodeId) {
        if !matches!(self.entries.last_key_value(), Some((BulletinKey::App(..), _))) {
            return;
        }
        let apps = BulletinKey::App(node, JobId(0))..=BulletinKey::App(node, JobId(u64::MAX));
        while let Some((&key, _)) = self.entries.range(apps.clone()).next() {
            self.entries.remove(&key);
        }
    }

    /// Store `rows`. A restored row lands only where the table holds no
    /// row for its key or an older one: a detector's put since the respawn
    /// is fresher than any save.
    fn apply(&mut self, rows: Vec<BulletinEntry>, restored: bool) {
        for e in rows {
            let older = |&(_, stamp_ns): &(BulletinValue, u64)| stamp_ns < e.stamp_ns;
            if !restored || self.entries.get(&e.key).is_none_or(older) {
                self.entries.insert(e.key, (e.value, e.stamp_ns));
            }
        }
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
                if let Some(BulletinKey::Resource(node)) = entries.first().map(|e| e.key) {
                    self.forget_apps(node);
                }
                self.apply(entries, false);
            }
            KernelMsg::RegroupFreeze { frozen } => {
                if frozen && !self.frozen {
                    phoenix_telemetry::counter_add("bulletin.freezes", 1);
                }
                self.frozen = frozen;
            }
            KernelMsg::DbQuery { req, query } => {
                phoenix_telemetry::counter_add("bulletin.queries", 1);
                let acc = self.local_matches(query);
                // Which peers need to contribute? On a minority island,
                // none: answer what we hold, honestly partial, without
                // burning a federation timeout on peers quorum says we
                // cannot reach.
                let waiting: Vec<PartitionId> = if self.frozen {
                    phoenix_telemetry::counter_add("bulletin.frozen_queries", 1);
                    Vec::new()
                } else {
                    let peers = self.member.peers().map(|(p, _)| p);
                    peers.filter(|&p| query.wants_partition(p)).collect()
                };
                if waiting.is_empty() {
                    let (entries, complete) = (acc.into(), !self.frozen);
                    ctx.send(from, KernelMsg::DbResp { req, entries, complete });
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
                    self.apply(entries, true);
                }
            }
            other => self.member.on_message(ctx, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_CKPT => {
                let entries = self.entries().collect();
                self.member.save(ctx, CheckpointData::Bulletin { entries });
                ctx.set_timer(self.params.detector_sample * 2, TOK_CKPT);
            }
            t if t >= TOK_FED_BASE => {
                let fed = t - TOK_FED_BASE;
                // Federation timeout. Under the lossy rung, re-ask the
                // peers that have not answered before giving up — the
                // fan-out request or its reply may simply have been lost.
                let policy = self.params.ft.retry();
                if let Some(p) = self.pending.get_mut(&fed).filter(|p| p.resend) {
                    p.resend = policy.on_send(&mut p.sends, None).is_some();
                    let (req, query) = (RequestId(fed), p.query);
                    for (_, pid) in self.member.peers().filter(|(q, _)| p.waiting.contains(q)) {
                        ctx.send(pid, KernelMsg::DbFedQuery { req, query });
                    }
                    p.timer = ctx.set_timer(self.params.fed_query_timeout, TOK_FED_BASE + fed);
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
    use crate::federation::respawn_args;
    use phoenix_proto::{AppState, AppStatus, ServiceDirectory, Shared};
    use phoenix_sim::{
        ClusterBuilder, NodeSpec, RecoveryAction, ResourceUsage, SimDuration, World,
    };

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
        stamped(BulletinKey::Resource(NodeId(node)), cpu, 0)
    }

    /// A row of `key` reading `cpu`, taken at `stamp_ns`.
    fn stamped(key: BulletinKey, cpu: f64, stamp_ns: u64) -> BulletinEntry {
        let value = match key {
            BulletinKey::Resource(_) => BulletinValue::Resource(ResourceUsage {
                cpu,
                ..ResourceUsage::IDLE
            }),
            BulletinKey::App(node, job) => BulletinValue::App(AppState {
                job,
                node,
                cpu,
                memory: 0.1,
                status: AppStatus::Running,
            }),
        };
        BulletinEntry {
            key,
            value,
            stamp_ns,
        }
    }

    /// `(key, stamp_ns)` of every row `db` answers a `BulletinQuery::All` with.
    fn rows(w: &mut World<KernelMsg>, db: Pid) -> Vec<(BulletinKey, u64)> {
        let client = ClientHandle::spawn(w, NodeId(0));
        let query = BulletinQuery::All;
        client.send(w, db, KernelMsg::DbQuery { req: RequestId(9), query });
        w.run_for(SimDuration::from_millis(10));
        match client.drain().pop() {
            Some((_, KernelMsg::DbResp { entries, .. })) => {
                entries.iter().map(|e| (e.key, e.stamp_ns)).collect()
            }
            other => panic!("unexpected: {other:?}"),
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

    /// A put is its node's whole state: an app it no longer lists leaves
    /// the table, and other nodes' apps stay.
    #[test]
    fn a_put_replaces_its_nodes_app_rows() {
        let (mut w, dbs) = setup(1);
        let app = |node, job| BulletinKey::App(NodeId(node), JobId(job));
        let put = |keys: &[BulletinKey], stamp_ns| KernelMsg::DbPut {
            entries: keys.iter().map(|&k| stamped(k, 0.5, stamp_ns)).collect(),
        };
        let (r0, r1) = (BulletinKey::Resource(NodeId(0)), BulletinKey::Resource(NodeId(1)));
        w.inject(dbs[0], put(&[r0, app(0, 1), app(0, 2)], 1));
        w.inject(dbs[0], put(&[r1, app(1, 3)], 1));
        w.run_for(SimDuration::from_millis(5));
        w.inject(dbs[0], put(&[r0, app(0, 2)], 2));
        w.run_for(SimDuration::from_millis(5));
        let want = [(r0, 2), (r1, 1), (app(0, 2), 2), (app(1, 3), 1)];
        assert_eq!(rows(&mut w, dbs[0]), want);
    }

    /// A respawned instance that hears its node's detector before its
    /// checkpoint reply keeps the put's rows; the restore only fills in
    /// rows it lacks or holds older.
    #[test]
    fn a_restore_never_overwrites_a_fresher_put() {
        let mut w = ClusterBuilder::new()
            .nodes(1, NodeSpec::default())
            .build::<KernelMsg>();
        // One stand-in is both the supervisor and the checkpoint instance.
        let stub = ClientHandle::spawn(&mut w, NodeId(0));
        let info = MemberInfo {
            gsd: stub.pid,
            checkpoint: stub.pid,
            ..MemberInfo::unwired(PartitionId(0))
        };
        let action = RecoveryAction::RestartedInPlace;
        let args = respawn_args(&info, &Shared::new(vec![info]), action, &KernelParams::fast());
        let db = w.spawn(NodeId(0), Box::new(DataBulletin::respawn(&args)));
        let (r0, r1) = (BulletinKey::Resource(NodeId(0)), BulletinKey::Resource(NodeId(1)));
        let r2 = BulletinKey::Resource(NodeId(2));
        let entries = vec![stamped(r0, 0.8, 20), stamped(r2, 0.1, 5)];
        w.inject(db, KernelMsg::DbPut { entries });
        w.run_for(SimDuration::from_millis(5));
        assert!(stub.drain().iter().any(|(_, m)| matches!(m, KernelMsg::CkLoad { .. })));
        let saved = vec![stamped(r0, 0.2, 10), stamped(r1, 0.5, 10), stamped(r2, 0.3, 10)];
        let data = Some(Shared::new(CheckpointData::Bulletin { entries: saved }));
        stub.send(&mut w, db, KernelMsg::CkLoadResp { req: RequestId(0), data });
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(rows(&mut w, db), [(r0, 20), (r1, 10), (r2, 10)]);
    }
}
