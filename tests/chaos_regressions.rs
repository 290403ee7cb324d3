//! Pinned chaos scenarios, replayed deterministically in tier-1.
//!
//! Each test pins a seed whose generated schedule exhibits a specific
//! hard shape (found with `cargo test -p phoenix-chaos --release --
//! --ignored scan`). Because schedule generation is deterministic per
//! seed, these run bit-for-bit identically on every machine; each test
//! first *proves* the seed still exhibits the shape it was pinned for
//! (so a generator change cannot silently turn it into a no-op) and then
//! asserts the full invariant suite passes.
//!
//! Failures are reproducible outside the test harness with, e.g.:
//!
//! ```text
//! cargo run --release -p phoenix-chaos --bin chaos -- --small --replay 2881
//! ```

use phoenix::chaos::{
    crash_repair_nodes, double_nic_nodes, generate_schedule, gsd_kills, island_partitions,
    link_partitions, loss_bursts, nic_flaps, run_schedule, slow_storms, ChaosConfig,
};
use phoenix::kernel::boot_cluster;
use phoenix::proto::PartitionId;

/// Run a pinned seed end-to-end and assert a clean outcome.
fn assert_clean(seed: u64) {
    let cfg = ChaosConfig::small();
    let out = run_schedule(seed, &cfg, u64::MAX, false);
    assert!(out.quiesced, "seed {seed}: cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {seed} violated invariants: {:#?}\nreplay: cargo run --release -p \
         phoenix-chaos --bin chaos -- --small --replay {seed}",
        out.violations
    );
}

fn schedule_of(seed: u64) -> (Vec<phoenix::chaos::Step>, phoenix::kernel::PhoenixCluster) {
    let cfg = ChaosConfig::small();
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), seed);
    (generate_schedule(seed, &cfg, &cluster), cluster)
}

/// The meta-group leader's GSD is killed first; while the ring is still
/// absorbing that takeover, a partition server crashes (taking its GSD
/// with it) and a second daemon dies. Exercises leader re-election
/// overlapping a member takeover.
#[test]
fn leader_kill_during_takeover() {
    const SEED: u64 = 2881;
    let (steps, cluster) = schedule_of(SEED);
    let killed = gsd_kills(&steps, &cluster);
    assert!(
        killed.contains(&PartitionId(0)) && killed.len() >= 2,
        "pin drifted: seed {SEED} no longer kills the leader GSD plus another \
         GSD (kills: {killed:?}) — re-run the scan and re-pin"
    );
    assert_clean(SEED);
}

/// Two NICs of the same node fail with overlapping outage windows — the
/// diagnosis-ambiguity case between network failure and node failure
/// (paper Table 1 distinguishes them by per-NIC heartbeat silence).
#[test]
fn double_nic_failure() {
    const SEED: u64 = 137;
    let cfg = ChaosConfig::small();
    let (steps, _cluster) = schedule_of(SEED);
    assert!(
        !double_nic_nodes(&steps, cfg.horizon).is_empty(),
        "pin drifted: seed {SEED} no longer has overlapping NIC outages — \
         re-run the scan and re-pin"
    );
    assert_clean(SEED);
}

/// Three link partitions opened and healed in sequence; the detection
/// pipeline must ride out the suspicion windows without splitting the
/// meta group for good.
#[test]
fn partition_then_heal() {
    const SEED: u64 = 82;
    let (steps, _cluster) = schedule_of(SEED);
    assert!(
        link_partitions(&steps) >= 3,
        "pin drifted: seed {SEED} no longer partitions 3 links — re-run the \
         scan and re-pin"
    );
    assert_clean(SEED);
}

/// Two nodes crash back-to-back (≈130 ms apart), a third follows later;
/// all three are repaired through the configuration service's node-start
/// path while recovery from the earlier crashes is still in flight.
#[test]
fn crash_then_repair_storm() {
    const SEED: u64 = 62;
    let (steps, _cluster) = schedule_of(SEED);
    assert!(
        crash_repair_nodes(&steps).len() >= 3,
        "pin drifted: seed {SEED} no longer crash+repairs 3 nodes — re-run \
         the scan and re-pin"
    );
    assert_clean(SEED);
}

/// Lossy-mode pin: the whole run sits on a 2% random-loss network, three
/// loss bursts (up to 25%) open and close around two daemon kills — one of
/// them a GSD — plus a NIC outage. The retry/dedup/suspicion machinery must
/// carry detection and takeover through the bursts without a spurious
/// takeover elsewhere or a stale config directory.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --lossy 20 --replay 178`
#[test]
fn loss_burst_during_gsd_kill() {
    const SEED: u64 = 178;
    let cfg = ChaosConfig::small_lossy(20);
    let (_world, cluster) = phoenix::kernel::boot_cluster_with_net(
        cfg.topology(),
        cfg.params.clone(),
        SEED,
        cfg.net.clone(),
    );
    let steps = generate_schedule(SEED, &cfg, &cluster);
    let killed = gsd_kills(&steps, &cluster);
    assert!(
        loss_bursts(&steps) >= 3 && !killed.is_empty(),
        "pin drifted: seed {SEED} no longer mixes >=3 loss bursts with a GSD \
         kill (bursts: {}, kills: {killed:?}) — re-run the lossy scan and re-pin",
        loss_bursts(&steps)
    );
    let out = run_schedule(SEED, &cfg, u64::MAX, false);
    assert!(out.quiesced, "seed {SEED}: lossy cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED} violated invariants under loss: {:#?}\nreplay: cargo run \
         --release -p phoenix-chaos --bin chaos -- --lossy 20 --replay {SEED}",
        out.violations
    );
}

/// Flapping-NIC pin: eight NIC degrade/restore cycles across two nodes'
/// interfaces overlap two daemon kills and two loss bursts, all on a 2%
/// random-loss network. The per-NIC health layer must ride the flaps —
/// demote a degraded interface, re-promote it only after the hysteresis
/// window — without a spurious takeover or a permanently demoted NIC.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --lossy 20 --replay 4`
#[test]
fn flapping_nic_storm() {
    const SEED: u64 = 4;
    let cfg = ChaosConfig::small_lossy(20);
    let (_world, cluster) = phoenix::kernel::boot_cluster_with_net(
        cfg.topology(),
        cfg.params.clone(),
        SEED,
        cfg.net.clone(),
    );
    let steps = generate_schedule(SEED, &cfg, &cluster);
    assert!(
        nic_flaps(&steps) >= 8 && loss_bursts(&steps) >= 2,
        "pin drifted: seed {SEED} no longer mixes >=8 NIC flaps with loss \
         bursts (flaps: {}, bursts: {}) — re-run the lossy scan and re-pin",
        nic_flaps(&steps),
        loss_bursts(&steps)
    );
    let out = run_schedule(SEED, &cfg, u64::MAX, false);
    assert!(out.quiesced, "seed {SEED}: flapping cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED} violated invariants under NIC flapping: {:#?}\nreplay: \
         cargo run --release -p phoenix-chaos --bin chaos -- --lossy 20 --replay {SEED}",
        out.violations
    );
}

/// Partition-storm pin: a partition server crashes (taking its GSD), then
/// an island split cuts the config/leader side off into a 5-node minority
/// while the 10-node majority must detect the dead GSD, regroup, and take
/// over — with the minority leader frozen, not competing. Healing arrives
/// while the takeover is still settling. This seed originally surfaced
/// three distinct bugs: cross-island daemon respawns through the config
/// service, a respawned GSD giving up on directory wiring during a long
/// split, and a frozen leader's aborted rescue retracting another
/// observer's in-flight takeover telemetry mark.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --partition --replay 26`
#[test]
fn island_split_during_takeover() {
    const SEED: u64 = 26;
    let cfg = ChaosConfig::small_partition();
    let (_world, cluster) = phoenix::kernel::boot_cluster_with_net(
        cfg.topology(),
        cfg.params.clone(),
        SEED,
        cfg.net.clone(),
    );
    let steps = generate_schedule(SEED, &cfg, &cluster);
    let killed = gsd_kills(&steps, &cluster);
    assert!(
        island_partitions(&steps) >= 2 && killed.contains(&PartitionId(1)),
        "pin drifted: seed {SEED} no longer mixes >=2 island storms with a \
         server-GSD kill (storms: {}, kills: {killed:?}) — re-run the \
         partition scan and re-pin",
        island_partitions(&steps)
    );
    let out = run_schedule(SEED, &cfg, u64::MAX, false);
    assert!(out.quiesced, "seed {SEED}: split cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED} violated invariants across island splits: {:#?}\nreplay: \
         cargo run --release -p phoenix-chaos --bin chaos -- --partition --replay {SEED}",
        out.violations
    );
}

/// Partition-storm pin, shrunk to three steps: partition 2 is severed into
/// an island, its server node crashes there, and the node is repaired (the
/// harness heals the island before settling). The leader's rescue brings
/// the GSD back on the repaired node, which rebuilds the partition's
/// services *in place*; the rebuilt checkpoint instance used to start empty
/// and never resync (only a migrated one did), which left the partition's
/// bulletin without its nodes' resource entries.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --partition --replay 232:490`
#[test]
fn islanded_server_crash_then_repair() {
    use phoenix::chaos::StepAction::{Fault, RepairNode};
    use phoenix::sim::Fault::{CrashNode, Partition};
    const SEED: u64 = 232;
    const MASK: u64 = 0x490;
    let cfg = ChaosConfig::small_partition();
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), SEED);
    let steps = generate_schedule(SEED, &cfg, &cluster);
    let picked = steps.iter().enumerate().filter(|(i, _)| MASK >> i & 1 == 1);
    let picked: Vec<_> = picked.map(|(_, s)| s.action).collect();
    let island = cluster.island_mask(&[2]);
    let server = cluster.topology.partitions[2].server;
    assert_eq!(
        picked,
        [Fault(Partition { island }), Fault(CrashNode(server)), RepairNode(server)],
        "pin drifted: seed {SEED} mask {MASK:#x} no longer islands partition 2 and \
         crash+repairs its server — re-run the partition scan and re-pin"
    );
    let out = run_schedule(SEED, &cfg, MASK, false);
    assert!(out.quiesced, "seed {SEED}:{MASK:x}: islanded cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED}:{MASK:x} violated invariants: {:#?}\nreplay: cargo run --release \
         -p phoenix-chaos --bin chaos -- --partition --replay {SEED}:{MASK:x}",
        out.violations
    );
}

/// Partition-storm pin, shrunk to two steps: partitions 1 and 2 are severed
/// from the leader's for 4.3 s and healed — longer than the leader takes
/// to freeze on its minority island, shorter than the majority's takeover
/// takes to ripen, so nobody is replaced and every member still holds the
/// frozen partition 0 as leader. A member used to forward the ex-leader's
/// re-join to "the leader", the joiner itself, which drops joins while
/// frozen: no leader, for ever. The member now vouches for it.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --partition --replay 56:c`
#[test]
fn short_split_of_the_leader() {
    use phoenix::chaos::StepAction::Fault;
    use phoenix::sim::Fault::{Heal, Partition};
    const SEED: u64 = 56;
    const MASK: u64 = 0xc;
    let cfg = ChaosConfig::small_partition();
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), SEED);
    let steps = generate_schedule(SEED, &cfg, &cluster);
    let picked: Vec<_> = steps.iter().enumerate().filter(|(i, _)| MASK >> i & 1 == 1).collect();
    let island = cluster.island_mask(&[1, 2]);
    let shape: Vec<_> = picked.iter().map(|(_, s)| s.action).collect();
    let apart = picked.last().unwrap().1.offset - picked[0].1.offset;
    assert!(
        shape == [Fault(Partition { island }), Fault(Heal)] && apart.as_nanos() == 4_298_000_000,
        "pin drifted: seed {SEED} mask {MASK:#x} no longer islands partitions 1+2 for \
         4,298 ms ({shape:?}, {apart:?}) — re-run the partition scan and re-pin"
    );
    let out = run_schedule(SEED, &cfg, MASK, false);
    assert!(out.quiesced, "seed {SEED}:{MASK:x}: healed cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED}:{MASK:x} violated invariants: {:#?}\nreplay: cargo run --release \
         -p phoenix-chaos --bin chaos -- --partition --replay {SEED}:{MASK:x}",
        out.violations
    );
}

/// A 12-step mixed schedule: node crashes, a NIC outage, two link
/// partitions and three repairs, all overlapping.
#[test]
fn mixed_fault_storm() {
    const SEED: u64 = 66;
    let (steps, _cluster) = schedule_of(SEED);
    assert!(
        steps.len() >= 12 && link_partitions(&steps) >= 2 && crash_repair_nodes(&steps).len() >= 3,
        "pin drifted: seed {SEED} lost its mixed-storm shape — re-run the \
         scan and re-pin"
    );
    assert_clean(SEED);
}

/// Extracts the nodes a schedule turns fail-slow.
fn slowed_nodes(steps: &[phoenix::chaos::Step]) -> Vec<phoenix::sim::NodeId> {
    steps
        .iter()
        .filter_map(|s| match s.action {
            phoenix::chaos::StepAction::Fault(phoenix::sim::Fault::SlowNode { node, .. }) => {
                Some(node)
            }
            _ => None,
        })
        .collect()
}

/// Fail-slow pin: both non-config partition servers turn gray at once with
/// overlapping windows (plus a link partition). Each slow GSD's own
/// detector reads *everyone* as slow — the gray-failure inversion — and
/// the slow princess demands the healthy leader yield. The leader must
/// refuse (its own detector does not corroborate), quarantine both gray
/// members, drain them to healthy home nodes, and reinstate once the
/// windows close. This seed originally surfaced the false-yield cascade
/// that left a partition with two live GSDs.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --slow --replay 1`
#[test]
fn double_gray_servers() {
    const SEED: u64 = 1;
    let cfg = ChaosConfig::small_slow();
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), SEED);
    let steps = generate_schedule(SEED, &cfg, &cluster);
    let slowed = slowed_nodes(&steps);
    let p1 = cluster.topology.partitions[1].server;
    let p2 = cluster.topology.partitions[2].server;
    assert!(
        slow_storms(&steps) >= 2 && slowed.contains(&p1) && slowed.contains(&p2),
        "pin drifted: seed {SEED} no longer slows both member servers \
         (slowed: {slowed:?}) — re-run the slow scan and re-pin"
    );
    let out = run_schedule(SEED, &cfg, u64::MAX, false);
    assert!(out.quiesced, "seed {SEED}: gray cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED} violated invariants under double gray failure: {:#?}\n\
         replay: cargo run --release -p phoenix-chaos --bin chaos -- --slow --replay {SEED}",
        out.violations
    );
}

/// Fail-slow pin: the meta-leader's own node turns gray (27x) while a
/// compute node of another partition is also slow, amid crash/kill
/// steps. The princess must talk the degraded leader into the slow-leader
/// handoff (no takeover machinery, no dead verdict), the drained leader's
/// partition must migrate off the slow node, and the ring must reconverge
/// on a single leader everyone agrees on.
///
/// Replay: `cargo run --release -p phoenix-chaos --bin chaos -- --slow --replay 43`
#[test]
fn gray_leader_handoff() {
    const SEED: u64 = 43;
    let cfg = ChaosConfig::small_slow();
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), SEED);
    let steps = generate_schedule(SEED, &cfg, &cluster);
    let slowed = slowed_nodes(&steps);
    let leader_node = cluster.topology.partitions[0].server;
    assert!(
        slow_storms(&steps) >= 2 && slowed.contains(&leader_node),
        "pin drifted: seed {SEED} no longer slows the leader's node \
         (slowed: {slowed:?}) — re-run the slow scan and re-pin"
    );
    let out = run_schedule(SEED, &cfg, u64::MAX, false);
    assert!(out.quiesced, "seed {SEED}: gray-leader cluster never quiesced");
    assert!(
        out.violations.is_empty(),
        "seed {SEED} violated invariants under a gray leader: {:#?}\n\
         replay: cargo run --release -p phoenix-chaos --bin chaos -- --slow --replay {SEED}",
        out.violations
    );
}
