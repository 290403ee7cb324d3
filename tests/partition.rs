//! Split-brain survival: island partitions + MSCS-style quorum regroup.
//!
//! `Fault::Partition` severs the cluster into two link-level islands.
//! The regroup layer (`KernelParams::fast_partition()`) must guarantee:
//!
//!   * the minority island freezes (no takeovers, no elections, no
//!     directory churn) — its GSDs report the `"frozen"` pseudo-role;
//!   * only the majority island may keep or elect a meta leader, so no
//!     sampled instant ever shows two live unfrozen leaders;
//!   * directory entries for unreachable partitions are marked stale at
//!     the config service and un-marked once the partition rejoins;
//!   * after `Fault::Heal` the minority thaws (or yields to a rescued
//!     replacement) and the cluster converges back to one live GSD per
//!     partition with a complete directory;
//!   * the whole dance is deterministic: identical seeds replay to
//!     byte-identical traces.

use phoenix_kernel::boot::boot_and_stabilize;
use phoenix_kernel::config::ConfigService;
use phoenix_kernel::{ClientHandle, KernelParams, PhoenixCluster};
use phoenix_proto::{ClusterTopology, KernelMsg, PartitionId};
use phoenix_sim::{Fault, SimDuration, World};

fn boot(seed: u64) -> (World<KernelMsg>, PhoenixCluster) {
    boot_and_stabilize(
        ClusterTopology::uniform(3, 4, 1),
        KernelParams::fast_partition(),
        seed,
    )
}

fn leader_count(w: &World<KernelMsg>) -> usize {
    PhoenixCluster::live_gsds(w).iter().filter(|g| g.role == "leader").count()
}

/// Advance in small slices, asserting at every sampled instant that at
/// most one live unfrozen GSD claims the meta-leader role.
fn run_sampled_single_leader(w: &mut World<KernelMsg>, total: SimDuration, what: &str) {
    let slice = SimDuration::from_millis(20);
    let mut elapsed = SimDuration::ZERO;
    while elapsed < total {
        w.run_for(slice);
        elapsed = elapsed + slice;
        let leaders = leader_count(w);
        assert!(
            leaders <= 1,
            "{what}: {leaders} simultaneous leaders at {:?}: {:?}",
            w.now(),
            PhoenixCluster::live_gsds(w)
        );
    }
}

fn query_directory(
    w: &mut World<KernelMsg>,
    cluster: &PhoenixCluster,
    req: u64,
) -> phoenix_proto::ServiceDirectory {
    let client = ClientHandle::spawn(w, cluster.topology.partitions[1].server);
    client.send(
        w,
        cluster.config(),
        KernelMsg::CfgQueryDirectory {
            req: phoenix_proto::RequestId(req),
        },
    );
    w.run_for(SimDuration::from_millis(50));
    client
        .drain()
        .into_iter()
        .find_map(|(_, m)| match m {
            KernelMsg::CfgDirectory { directory, .. } => Some(*directory),
            _ => None,
        })
        .expect("config service answers directory queries")
}

/// Post-heal steady state: one live GSD per partition, complete
/// directory, no partitions still marked stale.
fn assert_converged(w: &mut World<KernelMsg>, cluster: &PhoenixCluster, req: u64, what: &str) {
    let views = PhoenixCluster::live_gsds(w);
    for p in 0..cluster.topology.partitions.len() {
        let owners = views.iter().filter(|g| g.partition.index() == p).count();
        assert_eq!(owners, 1, "{what}: partition {p} has {owners} live GSDs: {views:?}");
    }
    assert_eq!(leader_count(w), 1, "{what}: exactly one leader: {views:?}");
    assert!(
        views.iter().all(|g| g.role != "frozen"),
        "{what}: nobody stays frozen after heal: {views:?}"
    );
    let dir = query_directory(w, cluster, req);
    assert_eq!(dir.partitions.len(), 3, "{what}: directory complete");
    for m in &dir.partitions {
        assert!(w.is_alive(m.gsd), "{what}: {:?} entry is live", m.partition);
    }
    let stale = w
        .actor_as::<ConfigService>(cluster.config())
        .expect("config service introspectable")
        .stale_partitions();
    assert!(stale.is_empty(), "{what}: stale set drained, got {stale:?}");
}

/// Scenario A: the minority island contains the meta *leader* (partition
/// 0, which also hosts the config service). The leader must freeze; the
/// majority must elect a replacement; heal must converge back to one
/// owner per partition.
#[test]
fn minority_leader_freezes_and_majority_elects() {
    let (mut w, cluster) = boot(401);
    w.run_for(SimDuration::from_secs(3));

    let island = cluster.island_mask(&[0]);
    w.apply_fault(Fault::Partition { island });
    // The partition phase must out-last suspicion (up to ~3.1 s after the
    // cut: 3 missed 1 s beats plus scan jitter) *and* the regroup layer's
    // 1.5 s held-majority takeover delay before the replacement election.
    run_sampled_single_leader(&mut w, SimDuration::from_secs(6), "scenario A partitioned");

    let views = PhoenixCluster::live_gsds(&w);
    let minority: Vec<_> = views.iter().filter(|g| g.partition.0 == 0).collect();
    assert!(
        minority.iter().any(|g| g.role == "frozen"),
        "partition 0's GSD froze on the minority island: {views:?}"
    );
    let majority_leader = views
        .iter()
        .find(|g| g.role == "leader" && g.partition.0 != 0);
    assert!(
        majority_leader.is_some(),
        "majority island elected a replacement leader: {views:?}"
    );

    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(12));
    assert_converged(&mut w, &cluster, 11, "scenario A healed");
}

/// Scenario B: the minority island is a plain *member* (partition 2) and
/// the config service stays with the majority. The majority keeps its
/// leader, marks the unreachable partition's directory entry stale, and
/// clears the mark when the member rejoins after heal.
#[test]
fn minority_member_freezes_and_directory_goes_stale() {
    let (mut w, cluster) = boot(402);
    w.run_for(SimDuration::from_secs(3));

    let island = cluster.island_mask(&[2]);
    w.apply_fault(Fault::Partition { island });
    run_sampled_single_leader(&mut w, SimDuration::from_secs(6), "scenario B partitioned");

    let views = PhoenixCluster::live_gsds(&w);
    assert!(
        views.iter().any(|g| g.partition.0 == 2 && g.role == "frozen"),
        "partition 2's GSD froze: {views:?}"
    );
    assert!(
        views.iter().any(|g| g.partition.0 == 0 && g.role == "leader"),
        "majority kept its leader: {views:?}"
    );
    let stale = w
        .actor_as::<ConfigService>(cluster.config())
        .expect("config service introspectable")
        .stale_partitions();
    assert_eq!(
        stale,
        vec![PartitionId(2)],
        "majority marked the unreachable partition stale"
    );

    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(12));
    assert_converged(&mut w, &cluster, 22, "scenario B healed");
}

/// A split that out-lasts the leader's freeze (~3.1 s) but not the
/// majority's takeover (~4.6 s: suspicion plus the 1.5 s held-majority
/// delay) heals with nobody replaced: every peer still holds partition 0
/// as leader, and partition 0 is frozen. Its re-join must not be forwarded
/// to "the leader" — itself, which drops joins while frozen — or the
/// cluster has no leader for ever: the member that receives it vouches
/// for it with the membership that still names its pid.
#[test]
fn short_split_of_the_leader_heals_to_one_leader() {
    let (mut w, cluster) = boot_and_stabilize(
        ClusterTopology::uniform(3, 5, 1),
        KernelParams::fast_partition(),
        56,
    );
    w.run_for(SimDuration::from_secs(3));
    w.apply_fault(Fault::Partition {
        island: cluster.island_mask(&[1, 2]),
    });
    run_sampled_single_leader(&mut w, SimDuration::from_secs(4), "short split");
    let views = PhoenixCluster::live_gsds(&w);
    assert!(
        views.iter().any(|g| g.partition.0 == 0 && g.role == "frozen"),
        "the split out-lasted the leader's freeze: {views:?}"
    );
    assert_eq!(views.len(), 3, "and ended before any takeover: {views:?}");

    w.apply_fault(Fault::Heal);
    w.run_for(SimDuration::from_secs(30));
    let views = PhoenixCluster::live_gsds(&w);
    assert!(
        views.iter().any(|g| g.partition.0 == 0 && g.role == "leader"),
        "partition 0 thawed and leads again: {views:?}"
    );
    assert_eq!(leader_count(&w), 1, "exactly one leader: {views:?}");
}

/// The regroup layer must not cost determinism: identical seeds replay
/// to byte-identical traces through a partition → regroup → heal cycle.
#[test]
fn partition_cycle_is_deterministic() {
    let run = || {
        let (mut w, cluster) = boot(777);
        w.run_for(SimDuration::from_secs(3));
        w.apply_fault(Fault::Partition {
            island: cluster.island_mask(&[0]),
        });
        w.run_for(SimDuration::from_secs(6));
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

/// Forty seeded partition/heal cycles (ten worlds x four cycles each,
/// alternating which side of the cluster is severed). Zero sampled
/// double-leader instants; every heal converges.
#[test]
fn forty_partition_heal_cycles_never_double_lead() {
    for seed in 501..511u64 {
        let (mut w, cluster) = boot(seed);
        w.run_for(SimDuration::from_secs(3));
        for cycle in 0..4u64 {
            // Alternate between severing the leader's partition and a
            // member partition; both must stay single-leader.
            let parts: &[usize] = if cycle % 2 == 0 { &[0] } else { &[2] };
            w.apply_fault(Fault::Partition {
                island: cluster.island_mask(parts),
            });
            run_sampled_single_leader(
                &mut w,
                SimDuration::from_secs(6),
                &format!("seed {seed} cycle {cycle} partitioned"),
            );
            w.apply_fault(Fault::Heal);
            w.run_for(SimDuration::from_secs(12));
            assert_converged(
                &mut w,
                &cluster,
                1000 + seed * 10 + cycle,
                &format!("seed {seed} cycle {cycle} healed"),
            );
        }
    }
}
