//! Loss-tolerance acceptance tests (tier 1).
//!
//! The paper's kernel ran over real Ethernet; this suite proves the
//! reproduction's hardened protocols survive a simulated unreliable
//! network. A fault-free cluster is booted on networks with 2% and 5%
//! random loss (plus proportional duplication and extra reordering
//! jitter) across many seeds and must, in every run:
//!
//! * raise **zero spurious takeovers** (no GSD died, so no takeover may
//!   fire — lost heartbeats are absorbed by seq-dedup, K-of-N suspicion
//!   and probe-freshness aborts);
//! * elect **exactly one meta-group leader** that every live GSD agrees
//!   on;
//! * keep **every WD heartbeating a live GSD of its own partition**.
//!
//! Deterministic unit tests for the retry/backoff schedule and the
//! server-side dedup window ride along at the bottom.

use phoenix::kernel::group::{Gsd, Wd};
use phoenix::kernel::{boot_cluster_with_net, DedupWindow, KernelParams, RetryPolicy, Rung};
use phoenix::proto::{ClusterTopology, KernelMsg, PartitionId};
use phoenix::sim::{NetParams, NodeId, SimDuration, SimRng, World};

const SEEDS: u64 = 20;

fn lossy_world(seed: u64, loss_permille: u16) -> (World<KernelMsg>, phoenix::kernel::PhoenixCluster) {
    let topo = ClusterTopology::uniform(3, 5, 1);
    boot_cluster_with_net(
        topo,
        KernelParams::fast_at(Rung::Lossy),
        seed,
        NetParams::unreliable(loss_permille),
    )
}

/// Run one fault-free lossy cluster and check all three convergence
/// properties. Telemetry is reset per run (registry is thread-local, so
/// the per-seed loop would otherwise accumulate counts).
fn assert_converges(seed: u64, loss_permille: u16) {
    phoenix::telemetry::reset();
    let (mut w, cluster) = lossy_world(seed, loss_permille);
    w.run_for(SimDuration::from_secs(20));

    let (takeovers, dropped) = phoenix::telemetry::with(|reg| {
        (
            reg.counter("gsd.takeovers")
                + reg.histogram("gsd.takeover").map(|h| h.count()).unwrap_or(0),
            reg.counter("net.loss.dropped"),
        )
    });
    assert!(
        dropped > 0,
        "seed {seed} @ {loss_permille}‰: the lossy network dropped nothing — \
         the loss model is not engaged"
    );
    assert_eq!(
        takeovers, 0,
        "seed {seed} @ {loss_permille}‰: spurious takeover(s) on a fault-free \
         cluster — random loss was diagnosed as a GSD death"
    );

    // Exactly one leader; all live GSDs agree on it.
    let mut gsds: Vec<(PartitionId, &'static str, Option<PartitionId>)> = Vec::new();
    for node in 0..w.node_count() {
        for pid in w.pids_on(NodeId(node as u32)) {
            if let Some(g) = w.actor_as::<Gsd>(pid) {
                gsds.push((g.partition_id(), g.role_name(), g.leader_view()));
            }
        }
    }
    assert_eq!(gsds.len(), 3, "seed {seed}: expected one live GSD per partition");
    let leaders: Vec<_> = gsds.iter().filter(|(_, role, _)| *role == "leader").collect();
    assert_eq!(
        leaders.len(),
        1,
        "seed {seed} @ {loss_permille}‰: {} meta-group leaders (want 1): {gsds:?}",
        leaders.len()
    );
    let lead = leaders[0].0;
    for (p, _, view) in &gsds {
        assert_eq!(
            *view,
            Some(lead),
            "seed {seed} @ {loss_permille}‰: GSD of partition {} disagrees on \
             the leader",
            p.0
        );
    }

    // Full WD → GSD convergence: every node's WD heartbeats a live GSD of
    // its own partition.
    for ns in &cluster.directory.nodes {
        let wd = w
            .actor_as::<Wd>(ns.wd)
            .unwrap_or_else(|| panic!("seed {seed}: WD of node {} is dead", ns.node.0));
        let gsd_pid = wd.gsd_pid();
        let g = w.actor_as::<Gsd>(gsd_pid).unwrap_or_else(|| {
            panic!(
                "seed {seed} @ {loss_permille}‰: WD of node {} heartbeats pid \
                 {} which is not a live GSD",
                ns.node.0, gsd_pid.0
            )
        });
        assert_eq!(
            Some(g.partition_id()),
            cluster.topology.partition_of(ns.node),
            "seed {seed}: WD of node {} converged to the wrong partition's GSD",
            ns.node.0
        );
    }

    // Leak detector: the measurement layer itself must not leak under
    // loss. No probe is legitimately mid-flight on a converged fault-free
    // cluster, so zero open spans.
    let open_spans = phoenix::telemetry::with(|reg| reg.open_spans());
    assert_eq!(
        open_spans, 0,
        "seed {seed} @ {loss_permille}‰: span(s) leaked open after a fault-free run"
    );
}

#[test]
fn no_spurious_takeovers_at_two_percent_loss() {
    for seed in 1..=SEEDS {
        assert_converges(seed, 20);
    }
}

#[test]
fn no_spurious_takeovers_at_five_percent_loss() {
    for seed in 1..=SEEDS {
        assert_converges(seed, 50);
    }
}

/// Under the default (non-lossy) parameters the same boots must stay
/// byte-for-byte identical to a zero-rate network: `NetParams::default()`
/// draws no randomness, so traces of two boots agree event for event.
#[test]
fn zero_rate_network_is_bitwise_identical() {
    let topo = ClusterTopology::uniform(3, 5, 1);
    let (mut a, _) = boot_cluster_with_net(
        topo.clone(),
        KernelParams::fast(),
        7,
        NetParams::default(),
    );
    let (mut b, _) = phoenix::kernel::boot_cluster(topo, KernelParams::fast(), 7);
    a.run_for(SimDuration::from_secs(5));
    b.run_for(SimDuration::from_secs(5));
    let ta: Vec<String> = a.trace().records().iter().map(|e| format!("{e:?}")).collect();
    let tb: Vec<String> = b.trace().records().iter().map(|e| format!("{e:?}")).collect();
    assert_eq!(ta, tb, "zero-rate NetParams changed the trace");
}

// ---------------------------------------------------------------------------
// Backoff schedule
// ---------------------------------------------------------------------------

#[test]
fn backoff_schedule_is_bounded_and_exponential() {
    let policy = RetryPolicy::lossy();
    let mut rng = SimRng::seed_from_u64(42);
    let mut prev = SimDuration::ZERO;
    for attempt in 1..policy.max_attempts {
        let d = policy
            .delay(attempt, &mut rng)
            .expect("within the attempt budget");
        // Base doubles per attempt; jitter adds at most 25%.
        let floor = SimDuration::from_millis(40 * (1 << (attempt - 1) as u64));
        let ceil = SimDuration::from_nanos(
            floor.as_nanos().min(SimDuration::from_millis(500).as_nanos()) * 125 / 100,
        );
        assert!(d >= floor && d <= ceil, "attempt {attempt}: {d:?} outside [{floor:?}, {ceil:?}]");
        assert!(d >= prev, "backoff must not shrink");
        prev = floor;
    }
    // Budget spent: no further retries.
    assert_eq!(policy.delay(policy.max_attempts, &mut rng), None);
}

#[test]
fn backoff_jitter_is_seed_deterministic() {
    let policy = RetryPolicy::lossy();
    let mut r1 = SimRng::seed_from_u64(99);
    let mut r2 = SimRng::seed_from_u64(99);
    for attempt in 1..policy.max_attempts {
        assert_eq!(policy.delay(attempt, &mut r1), policy.delay(attempt, &mut r2));
    }
}

#[test]
fn no_retry_policy_never_delays() {
    let policy = RetryPolicy::none();
    let mut rng = SimRng::seed_from_u64(1);
    assert_eq!(policy.max_attempts, 1);
    assert_eq!(policy.delay(1, &mut rng), None);
}

// ---------------------------------------------------------------------------
// Dedup window
// ---------------------------------------------------------------------------

#[test]
fn dedup_window_replays_and_evicts() {
    let mut win: DedupWindow<u64, &'static str> = DedupWindow::new(3);
    assert!(win.replay(&1).is_none());
    win.record(1, "one");
    win.record(2, "two");
    win.record(3, "three");
    // Duplicate suppressed: the cached reply comes back.
    assert_eq!(win.replay(&1), Some(&"one"));
    // Capacity 3 is FIFO: inserting a fourth evicts the oldest (1).
    win.record(4, "four");
    assert!(win.replay(&1).is_none(), "oldest entry must be evicted");
    assert_eq!(win.replay(&4), Some(&"four"));
    assert_eq!(win.replay(&2), Some(&"two"));
}
