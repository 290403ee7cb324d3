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
pub struct MonitorPoint {
    pub nodes: usize,
    pub partitions: usize,
    /// Control-plane messages per virtual second (heartbeats + meta +
    /// svc + bulletin + event).
    pub msgs_per_sec: f64,
    /// Control-plane bytes per virtual second.
    pub bytes_per_sec: f64,
    /// GridView refreshes completed and whether the last was complete.
    pub refreshes: u64,
    pub last_complete: bool,
}

/// Run the GridView monitoring workload on `partitions × per_partition`
/// nodes for `secs` virtual seconds (Fig 6 / Sec 5.3).
pub fn monitor_run(
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
        partitions,
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
    use phoenix_kernel::group::FlatMember;
    use phoenix_kernel::FtParams;
    use phoenix_sim::{ClusterBuilder, NodeId, NodeSpec, Pid};

    /// The Sec 4.3 ablation, run only by the test below: membership-protocol
    /// messages per virtual second with every node in one flat group, over
    /// the same for the Phoenix partitioned design (WD heartbeats + GSD
    /// meta-ring, 16 nodes per partition) at the same node count.
    fn membership_compare(nodes: usize, ft: FtParams, secs: u64, seed: u64) -> f64 {
        // Flat: n members all-to-all.
        let flat_rate = {
            let mut w = ClusterBuilder::new()
                .nodes(nodes, NodeSpec::default())
                .seed(seed)
                .build::<KernelMsg>();
            let pids: Vec<Pid> = (1..=nodes as u64).map(Pid).collect();
            for i in 0..nodes {
                let m = FlatMember::new(pids.clone(), ft.clone());
                let got = w.spawn(NodeId(i as u32), Box::new(m));
                assert_eq!(got, pids[i]);
            }
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
}
