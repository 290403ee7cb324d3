//! Scalability harness: Sec 5.3 (monitoring at up to 640 nodes) and the
//! Sec 4.3 ablation (flat all-to-all membership vs the partitioned
//! meta-group).

use phoenix_gridview::GridView;
use phoenix_kernel::boot::boot_cluster;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::SimDuration;

/// One point of the monitoring-scalability sweep.
#[derive(Clone, Debug)]
pub(crate) struct MonitorPoint {
    pub(crate) nodes: usize,
    /// Control-plane messages per virtual second (heartbeats + meta +
    /// svc + bulletin + event).
    pub(crate) msgs_per_sec: f64,
    /// Control-plane bytes per virtual second.
    pub(crate) bytes_per_sec: f64,
    /// GridView refreshes completed and whether the last was complete.
    pub(crate) refreshes: u64,
    pub(crate) last_complete: bool,
}

/// Run the GridView monitoring workload on `partitions × per_partition`
/// nodes for `secs` virtual seconds (Fig 6 / Sec 5.3).
pub(crate) fn monitor_run(
    partitions: usize,
    per_partition: usize,
    secs: u64,
    params: KernelParams,
    seed: u64,
) -> MonitorPoint {
    let topo = ClusterTopology::uniform(partitions, per_partition, 1);
    let nodes = topo.node_count();
    let (mut world, cluster) = boot_cluster(topo, params.clone(), seed);
    world.run_for(SimDuration::from_millis(100));
    let gv = GridView::spawn(
        &mut world,
        cluster.topology.partitions[0].compute[0],
        cluster.bulletin(),
        cluster.event(),
        params.detector_sample,
    );
    let m0 = snapshot_traffic(&world);
    let t0 = world.now();
    world.run_for(SimDuration::from_secs(secs));
    let m1 = snapshot_traffic(&world);
    let dt = world.now().since(t0).as_secs_f64();
    MonitorPoint {
        nodes,
        msgs_per_sec: (m1.0 - m0.0) as f64 / dt,
        bytes_per_sec: (m1.1 - m0.1) as f64 / dt,
        refreshes: gv.refreshes(),
        last_complete: gv.snapshot().complete,
    }
}

fn snapshot_traffic(world: &phoenix_sim::World<KernelMsg>) -> (u64, u64) {
    let m = world.metrics();
    (m.total.sent, m.total.sent_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_kernel::FtParams;
    use phoenix_proto::PartitionId;
    use phoenix_sim::{
        Actor, ClusterBuilder, Ctx, Diagnosis, FaultTarget, NicId, NodeId, NodeSpec, Pid, SimTime,
        TraceEvent,
    };
    use std::collections::HashMap;

    /// A member of the flat group the paper rejects (Sec 4.3: "when the
    /// scale of cluster system reaches thousand nodes, it is unacceptable
    /// for all nodes joining a group managed by group membership protocol,
    /// thus we improve the group structure"). Every node is a first-class
    /// member of one big group and heartbeats **every** other member each
    /// interval: all-to-all traffic, `O(n²)` messages per interval.
    struct FlatMember {
        /// All member pids (including self), fixed at construction.
        peers: Vec<Pid>,
        hb_interval: SimDuration,
        last: HashMap<Pid, SimTime>,
        down: Vec<Pid>,
        epoch: u64,
    }

    const TOK_HB: u64 = 1;
    const TOK_SCAN: u64 = 2;
    /// Slack past the interval before a beat counts as missed, and the scan
    /// period: `FtParams::fast()`'s.
    const GRACE: SimDuration = SimDuration::from_millis(50);
    const SCAN: SimDuration = SimDuration::from_millis(25);

    impl FlatMember {
        fn new(peers: Vec<Pid>, hb_interval: SimDuration) -> Self {
            FlatMember {
                peers,
                hb_interval,
                last: HashMap::new(),
                down: Vec::new(),
                epoch: 0,
            }
        }

        fn beat(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
            self.epoch += 1;
            let me = ctx.pid();
            for &p in &self.peers {
                if p != me {
                    let beat = KernelMsg::MetaHeartbeat {
                        from_partition: PartitionId(0),
                        nic: NicId(0),
                        epoch: self.epoch,
                        seq: self.epoch,
                    };
                    ctx.send(p, beat);
                }
            }
            ctx.set_timer(self.hb_interval, TOK_HB);
        }

        fn scan(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
            let now = ctx.now();
            let me = ctx.pid();
            for &p in &self.peers {
                if p == me || self.down.contains(&p) {
                    continue;
                }
                let last = self.last.get(&p).copied().unwrap_or(SimTime::ZERO);
                if last != SimTime::ZERO && now.since(last) > self.hb_interval + GRACE {
                    self.down.push(p);
                    ctx.trace(TraceEvent::FaultDetected {
                        observer: me,
                        target: FaultTarget::Process(p),
                    });
                    // Flat protocol: every member broadcasts the failure so
                    // the whole group converges (another O(n) burst).
                    for &q in &self.peers {
                        if q != me && q != p {
                            let down = KernelMsg::MetaMemberDown {
                                partition: PartitionId(0),
                                diagnosis: Diagnosis::ProcessFailure,
                            };
                            ctx.send(q, down);
                        }
                    }
                }
            }
            ctx.set_timer(SCAN, TOK_SCAN);
        }
    }

    impl Actor<KernelMsg> for FlatMember {
        fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
            self.beat(ctx);
            ctx.set_timer(SCAN, TOK_SCAN);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
            // The traffic itself is what the experiment measures: a
            // MetaMemberDown needs no handling.
            if let KernelMsg::MetaHeartbeat { .. } = msg {
                self.last.insert(from, ctx.now());
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
            match token {
                TOK_HB => self.beat(ctx),
                TOK_SCAN => self.scan(ctx),
                _ => {}
            }
        }

        fn name(&self) -> &str {
            "flat-member"
        }
    }

    /// Spawn `n` flat members, one per node; member `i` is `Pid(i + 1)`.
    fn flat_world(
        n: usize,
        hb_interval: SimDuration,
        seed: u64,
    ) -> (phoenix_sim::World<KernelMsg>, Vec<Pid>) {
        let mut w = ClusterBuilder::new()
            .nodes(n, NodeSpec::default())
            .seed(seed)
            .build::<KernelMsg>();
        let pids: Vec<Pid> = (1..=n as u64).map(Pid).collect();
        for (i, &pid) in pids.iter().enumerate() {
            let m = FlatMember::new(pids.clone(), hb_interval);
            let got = w.spawn(NodeId(i as u32), Box::new(m));
            assert_eq!(got, pid, "pid sequence must be deterministic");
        }
        (w, pids)
    }

    /// The Sec 4.3 ablation, run only by the test below: membership-protocol
    /// messages per virtual second with every node in one flat group, over
    /// the same for the Phoenix partitioned design (WD heartbeats + GSD
    /// meta-ring, 16 nodes per partition) at the same node count.
    fn membership_compare(nodes: usize, ft: FtParams, secs: u64, seed: u64) -> f64 {
        // Flat: n members all-to-all.
        let flat_rate = {
            let (mut w, _) = flat_world(nodes, ft.hb_interval, seed);
            let t0 = w.now();
            w.run_for(SimDuration::from_secs(secs));
            let dt = w.now().since(t0).as_secs_f64();
            w.metrics().label("meta").sent as f64 / dt
        };
        // Partitioned: full Phoenix boot, count hb + meta.
        let part_rate = {
            let partitions = nodes.div_ceil(16);
            let per = nodes / partitions;
            let topo = ClusterTopology::uniform(partitions, per.max(2), 1);
            let params = KernelParams {
                ft: ft.clone(),
                ..KernelParams::default()
            };
            let (mut w, _cluster) = boot_cluster(topo, params, seed + 1);
            w.run_for(SimDuration::from_millis(100));
            let m0 = {
                let m = w.metrics();
                m.label("hb").sent + m.label("meta").sent
            };
            let t0 = w.now();
            w.run_for(SimDuration::from_secs(secs));
            let dt = w.now().since(t0).as_secs_f64();
            let m1 = {
                let m = w.metrics();
                m.label("hb").sent + m.label("meta").sent
            };
            (m1 - m0) as f64 / dt
        };
        flat_rate / part_rate.max(1e-9)
    }

    #[test]
    fn monitoring_sees_whole_small_cluster() {
        let p = monitor_run(2, 4, 3, KernelParams::fast(), 5);
        assert_eq!(p.nodes, 8);
        assert!(p.last_complete);
        assert!(p.refreshes >= 2);
        assert!(p.msgs_per_sec > 0.0);
    }

    #[test]
    fn flat_membership_costs_more_and_gap_widens() {
        let ft = FtParams::fast();
        let small = membership_compare(32, ft.clone(), 5, 1);
        let big = membership_compare(64, ft, 5, 2);
        assert!(
            small > 1.0,
            "flat must already lose at 32 nodes: x{small:.2}"
        );
        assert!(
            big > small,
            "the gap must widen with scale: x{small:.2} vs x{big:.2}"
        );
    }

    /// n members → n(n-1) heartbeats per interval.
    #[test]
    fn all_to_all_traffic_is_quadratic() {
        let n = 8usize;
        let (mut w, _) = flat_world(n, FtParams::fast().hb_interval, 0x5EED);
        w.run_for(SimDuration::from_millis(2500));
        // Intervals at t≈0, 1s, 2s → 3 rounds of n(n-1) heartbeats.
        let sent = w.metrics().label("meta").sent;
        assert_eq!(sent, 3 * (n * (n - 1)) as u64);
    }

    #[test]
    fn member_failure_detected_and_broadcast() {
        let (mut w, pids) = flat_world(4, FtParams::fast().hb_interval, 0x5EED);
        w.run_for(SimDuration::from_millis(1500));
        w.kill_process(pids[2]);
        w.run_for(SimDuration::from_secs(3));
        let detections = w.trace().count(|e| {
            matches!(e, TraceEvent::FaultDetected { target: FaultTarget::Process(p), .. } if *p == pids[2])
        });
        // Every surviving member detects independently: 3 detections.
        assert_eq!(detections, 3);
    }
}
