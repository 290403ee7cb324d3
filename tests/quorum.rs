//! Witness/weighted quorum: even splits keep exactly one side alive.
//!
//! A 2-vs-2 split of a four-partition cluster has no count majority, and
//! the plain regroup layer froze both sides. The vote table
//! (the quorum rung, `Rung::Quorum`: one vote per partition, witness vote
//! doubled, adaptive takeover delay) must guarantee:
//!
//!   * the witness's side of an even split wins the weighted vote and
//!     stays live — whether or not it also holds the meta leader;
//!   * the weighted-losing side freezes, exactly like a count minority;
//!   * a dead witness fails over (held majority moves it, bumped witness
//!     epoch) and the *new* witness anchors later splits;
//!   * a no-majority fragmentation (three islands, none quorate) freezes
//!     everything — and after heal the witness's partition re-seeds the
//!     group first;
//!   * the adaptive takeover delay stays inside its [floor, ceiling]
//!     clamp and never licenses a spurious takeover, even on a lossy
//!     network with regroup probe traffic flying.

use phoenix::kernel::boot::{boot_and_stabilize, GsdView};
use phoenix::kernel::group::Gsd;
use phoenix::kernel::regroup::{DELAY_CEIL, DELAY_FLOOR};
use phoenix::kernel::{
    boot_cluster_custom, boot_cluster_with_net, ClientHandle, KernelParams, PhoenixCluster, Rung,
};
use phoenix::proto::{ClusterTopology, KernelMsg, NodeOp, PartitionId, RequestId};
use phoenix::sim::{Fault, NetParams, NodeId, SchedulerKind, SimDuration, TraceEvent, World};
use std::collections::HashMap;

/// The even testbed: 4 partitions × 3 nodes, witness designated away
/// from the config partition (p0) so splits can island it.
fn quorum_params() -> KernelParams {
    let mut params = KernelParams::fast_at(Rung::Quorum);
    params.ft.witness = Some(PartitionId(1));
    params
}

fn boot(seed: u64) -> (World<KernelMsg>, PhoenixCluster) {
    boot_and_stabilize(ClusterTopology::uniform(4, 3, 1), quorum_params(), seed)
}

/// Advance in 20 ms slices, asserting at every sampled instant that at
/// most one live unfrozen GSD claims the meta-leader role.
fn run_sampled_single_leader(w: &mut World<KernelMsg>, total: SimDuration, what: &str) {
    let slice = SimDuration::from_millis(20);
    let mut elapsed = SimDuration::ZERO;
    while elapsed < total {
        w.run_for(slice);
        elapsed = elapsed + slice;
        let views = PhoenixCluster::live_gsds(w);
        let leaders = views.iter().filter(|g| g.role == "leader").count();
        assert!(
            leaders <= 1,
            "{what}: {leaders} simultaneous leaders at {:?}: {views:?}",
            w.now()
        );
    }
}

/// Steady state: one live GSD per partition, one leader, nobody frozen.
fn assert_converged(w: &World<KernelMsg>, cluster: &PhoenixCluster, what: &str) {
    let views = PhoenixCluster::live_gsds(w);
    for p in 0..cluster.topology.partitions.len() {
        let owners = views.iter().filter(|g| g.partition.index() == p).count();
        assert_eq!(owners, 1, "{what}: partition {p} has {owners} live GSDs: {views:?}");
    }
    let leaders = views.iter().filter(|g| g.role == "leader").count();
    assert_eq!(leaders, 1, "{what}: exactly one leader: {views:?}");
    assert!(
        views.iter().all(|g| g.role != "frozen"),
        "{what}: nobody stays frozen: {views:?}"
    );
}

/// Assert the side given by `on_island(node) == winner_inside` runs
/// exactly one unfrozen leader while the other side is fully frozen.
fn assert_one_live_side(w: &World<KernelMsg>, mask: u64, winner_inside: bool, what: &str) {
    let views = PhoenixCluster::live_gsds(w);
    let winning = |g: &&GsdView| ((mask >> g.node.0) & 1 == 1) == winner_inside;
    let losing: Vec<_> = views.iter().filter(|g| !winning(g)).collect();
    assert!(!losing.is_empty(), "{what}: losing side has live GSDs to freeze");
    assert!(
        losing.iter().all(|g| g.role == "frozen"),
        "{what}: weighted-losing side fully frozen: {views:?}"
    );
    let winners = views.iter().filter(winning).filter(|g| g.role == "leader").count();
    assert_eq!(winners, 1, "{what}: winning side runs one unfrozen leader: {views:?}");
}

/// Even split with the witness *islanded* away from leader and config:
/// the island must win the weighted vote (witness doubled: 3 of 5) and
/// elect a replacement leader; the mainland freezes despite holding the
/// old leader. Heal converges back to one owner per partition.
#[test]
fn even_split_witness_island_survives() {
    let (mut w, cluster) = boot(601);
    w.run_for(SimDuration::from_secs(3));

    let mask = cluster.island_mask(&[1, 2]);
    w.apply_fault(Fault::Partition { island: mask });
    // Freeze pipeline ~3.1 s + the island's replacement election after
    // the 1.5 s held-majority delay: 7 s covers both with margin.
    run_sampled_single_leader(&mut w, SimDuration::from_secs(7), "witness islanded");
    assert_one_live_side(&w, mask, true, "witness islanded");

    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(12));
    assert_converged(&w, &cluster, "witness islanded, healed");
}

/// Even split that keeps witness and leader together on the mainland:
/// the mainland keeps its leader, the island freezes.
#[test]
fn even_split_leader_side_survives() {
    let (mut w, cluster) = boot(602);
    w.run_for(SimDuration::from_secs(3));

    let mask = cluster.island_mask(&[2, 3]);
    w.apply_fault(Fault::Partition { island: mask });
    run_sampled_single_leader(&mut w, SimDuration::from_secs(7), "leader kept");
    assert_one_live_side(&w, mask, false, "leader kept");

    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(12));
    assert_converged(&w, &cluster, "leader kept, healed");
}

/// Witness death → failover → the new witness anchors the next split.
/// Crash every node of the witness partition: the held majority moves
/// the witness to the lowest reachable partition under a bumped epoch.
/// Repair one home node, let the rescue revive p1, then cut {p2, p3}:
/// the mainland — now holding the failed-over witness p0 — must win.
#[test]
fn witness_failover_anchors_next_split() {
    let (mut w, cluster) = boot(603);
    w.run_for(SimDuration::from_secs(3));

    for n in cluster.topology.partitions[1].all_nodes() {
        w.apply_fault(Fault::CrashNode(n));
    }
    // Suspicion (~3.1 s) + held-majority delay before the failover may
    // fire; no backup node exists, so p1 stays down meanwhile.
    w.run_for(SimDuration::from_secs(8));
    let moved = PhoenixCluster::live_gsds(&w)
        .iter()
        .filter_map(|g| w.actor_as::<Gsd>(g.pid).and_then(|g| g.witness_view()))
        .max_by_key(|&(_, e)| e)
        .expect("live GSDs expose a witness view");
    assert_eq!(moved.0, PartitionId(0), "witness failed over to the lowest partition");
    assert!(moved.1 >= 1, "failover bumped the witness epoch");

    // Repair p1's home server through the config service; the leader's
    // rescue sweep revives p1's GSD in place.
    let home = cluster.topology.partitions[1].all_nodes()[0];
    let client = ClientHandle::spawn(&mut w, cluster.topology.partitions[0].server);
    client.send(
        &mut w,
        cluster.config(),
        KernelMsg::CfgNodeOp { req: RequestId(60_300), node: home, op: NodeOp::Start },
    );
    w.run_for(SimDuration::from_secs(8));
    client.drain();
    assert_converged(&w, &cluster, "witness partition rescued");

    // The next even split leans on the *new* witness: {p0, p1} mainland
    // holds p0 (doubled) and wins 3 of 5; {p2, p3} freezes.
    let mask = cluster.island_mask(&[2, 3]);
    w.apply_fault(Fault::Partition { island: mask });
    run_sampled_single_leader(&mut w, SimDuration::from_secs(7), "post-failover split");
    assert_one_live_side(&w, mask, false, "post-failover split");

    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(12));
    assert_converged(&w, &cluster, "post-failover split healed");
}

/// Three islands, none quorate: {p0} / {p1} / {p2, p3} hold 1, 2 and 2
/// of 5 weighted votes — everything must freeze (no side may run), and
/// after the heal the *witness's* partition re-seeds the group first
/// (the all-frozen self-thaw prefers the quorum anchor).
#[test]
fn three_island_fragmentation_freezes_all_then_witness_reseeds() {
    let (mut w, cluster) = boot(604);
    w.run_for(SimDuration::from_secs(3));

    let groups: [Vec<NodeId>; 3] = [
        cluster.topology.partitions[0].all_nodes(),
        cluster.topology.partitions[1].all_nodes(),
        {
            let mut v = cluster.topology.partitions[2].all_nodes();
            v.extend(cluster.topology.partitions[3].all_nodes());
            v
        },
    ];
    let mut pairs = Vec::new();
    for i in 0..groups.len() {
        for j in i + 1..groups.len() {
            for &a in &groups[i] {
                for &b in &groups[j] {
                    pairs.push((a, b));
                }
            }
        }
    }
    for &(a, b) in &pairs {
        w.apply_fault(Fault::PartitionLink(a, b));
    }
    w.run_for(SimDuration::from_secs(8));
    let views = PhoenixCluster::live_gsds(&w);
    assert!(
        !views.is_empty() && views.iter().all(|g| g.role == "frozen"),
        "no island holds quorum: everything frozen: {views:?}"
    );

    let t_heal = w.now();
    for &(a, b) in &pairs {
        w.apply_fault(Fault::HealLink(a, b));
    }
    w.run_for(SimDuration::from_secs(12));

    let first_thaw = w
        .trace()
        .records()
        .iter()
        .find(|r| {
            r.at >= t_heal
                && matches!(r.event, TraceEvent::Milestone { label: "gsd-thawed", .. })
        })
        .map(|r| match r.event {
            TraceEvent::Milestone { value, .. } => value,
            _ => unreachable!(),
        })
        .expect("somebody thawed after the heal");
    assert_eq!(
        first_thaw, 1.0,
        "the witness's partition re-seeds the all-frozen group first"
    );
    assert_converged(&w, &cluster, "fragmentation healed");
}

/// The adaptive takeover delay under packet loss: zero spurious
/// takeovers (the new regroup probe traffic must not destabilize
/// suspicion), exactly one leader, and every live GSD's effective delay
/// inside the [floor, ceiling] clamp.
#[test]
fn adaptive_delay_stays_clamped_with_zero_spurious_takeovers() {
    for loss_permille in [0u16, 50, 100] {
        phoenix::telemetry::reset();
        let (mut w, _cluster) = boot_cluster_with_net(
            ClusterTopology::uniform(4, 3, 1),
            quorum_params(),
            700 + loss_permille as u64,
            NetParams::unreliable(loss_permille),
        );
        w.run_for(SimDuration::from_secs(30));

        let takeovers = phoenix::telemetry::with(|reg| {
            reg.counter("gsd.takeovers")
                + reg.histogram("gsd.takeover").map(|h| h.count()).unwrap_or(0)
        });
        assert_eq!(
            takeovers, 0,
            "loss {loss_permille}‰: spurious takeover on a fault-free cluster"
        );

        let views = PhoenixCluster::live_gsds(&w);
        assert_eq!(views.len(), 4, "loss {loss_permille}‰: one live GSD per partition");
        let leaders = views.iter().filter(|g| g.role == "leader").count();
        assert_eq!(leaders, 1, "loss {loss_permille}‰: exactly one leader: {views:?}");

        let (floor, ceil) = (DELAY_FLOOR, DELAY_CEIL);
        for g in &views {
            let eff = w
                .actor_as::<Gsd>(g.pid)
                .expect("live GSD introspectable")
                .effective_takeover_delay();
            assert!(
                eff >= floor && eff <= ceil,
                "loss {loss_permille}‰: effective takeover delay {eff:?} outside \
                 [{floor:?}, {ceil:?}]"
            );
        }
    }
}

/// The quorum profile must not cost determinism: identical seeds replay
/// an even-split cycle (probes, testimony and all) to byte-identical
/// traces.
#[test]
fn quorum_split_cycle_is_deterministic() {
    let run = || {
        let (mut w, cluster) = boot(605);
        w.run_for(SimDuration::from_secs(3));
        w.apply_fault(Fault::Partition { island: cluster.island_mask(&[1, 2]) });
        w.run_for(SimDuration::from_secs(7));
        w.apply_fault(Fault::Heal);
        w.run_for(SimDuration::from_secs(10));
        let mut log = String::new();
        for r in w.trace().records() {
            log.push_str(&format!("{r:?}\n"));
        }
        log
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "trace captured something");
    assert_eq!(a, b, "identical seeds replay to byte-identical traces");
}

/// Under the vote table config pushes a repaired node's new daemons to
/// every GSD, so a foreign node's row changes after wiring, and config's
/// directory lists the node last. A regroup round still probes the
/// foreign home nodes' watch daemons in ascending node order, the
/// repaired node in its place and at its new pid.
#[test]
fn regroup_home_probes_go_out_in_node_order_after_a_repair() {
    let topology = ClusterTopology::uniform(4, 3, 1);
    let net = NetParams::default();
    let (mut w, cluster) =
        boot_cluster_custom(topology, quorum_params(), 606, net, SchedulerKind::Wheel, true);
    w.run_for(SimDuration::from_secs(3));
    let repaired = NodeId(2);
    w.apply_fault(Fault::CrashNode(repaired));
    w.run_for(SimDuration::from_secs(3));
    let client = ClientHandle::spawn(&mut w, NodeId(0));
    let start = KernelMsg::CfgNodeOp {
        req: RequestId(1),
        node: repaired,
        op: NodeOp::Start,
    };
    client.send(&mut w, cluster.config(), start);
    w.run_for(SimDuration::from_secs(1));
    client.send(&mut w, cluster.config(), KernelMsg::CfgQueryDirectory { req: RequestId(2) });
    w.run_for(SimDuration::from_millis(50));
    let dir = client
        .drain()
        .into_iter()
        .find_map(|(_, m)| match m {
            KernelMsg::CfgDirectory { directory, .. } => Some(*directory),
            _ => None,
        })
        .expect("config answers");
    assert_eq!(dir.nodes.last().map(|n| n.node), Some(repaired));

    // Partition 1's GSD dies: its ring successor suspects it and opens a
    // round that probes every foreign home node.
    w.take_event_log();
    w.kill_process(cluster.gsd(1));
    w.run_for(SimDuration::from_secs(8));
    let log = w.take_event_log();
    let node_of_wd: HashMap<u64, NodeId> = dir.nodes.iter().map(|n| (n.wd.0, n.node)).collect();
    // (send sequence, sending pid, probed node) of every regroup message
    // delivered to a watch daemon.
    let mut probes: Vec<(u64, u64, NodeId)> = log
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            if f.get(2) != Some(&"deliver") || f.get(5) != Some(&"label=regroup") {
                return None;
            }
            let to: u64 = f[3].strip_prefix("to=")?.parse().ok()?;
            let from: u64 = f[4].strip_prefix("from=")?.parse().ok()?;
            Some((f[1].parse().ok()?, from, *node_of_wd.get(&to)?))
        })
        .collect();
    probes.sort();
    let observer = probes.first().expect("a regroup round probed home nodes").1;
    let own = (0..4)
        .find(|&p| cluster.gsd(p).0 == observer)
        .and_then(|p| cluster.topology.partition(PartitionId(p as u32)))
        .expect("a boot GSD opened the round")
        .all_nodes();
    let foreign: Vec<NodeId> = (0..12).map(NodeId).filter(|n| !own.contains(n)).collect();
    assert!(foreign.contains(&repaired), "the round probes the repaired node");
    let first_round: Vec<NodeId> = probes
        .iter()
        .filter(|p| p.1 == observer)
        .take(foreign.len())
        .map(|p| p.2)
        .collect();
    assert_eq!(first_round, foreign);
}
