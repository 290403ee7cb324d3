//! Schedules: what a seed means. `generate_schedule` turns `(seed,
//! ChaosConfig, booted cluster)` into a sorted list of [`Step`]s — the
//! main stream plus one salted, appended stream per optional storm kind —
//! and the classification helpers say which hard shape a schedule shows
//! (the pinned regression scenarios prove a seed still exhibits the shape
//! it was pinned for). Nothing here runs a world.

use std::fmt;
use std::ops::Range;

use phoenix_kernel::PhoenixCluster;
use phoenix_proto::PartitionId;
use phoenix_sim::{Fault, NicId, NodeId, Pid, SimDuration, SimRng};

use crate::{ChaosConfig, Storms};

/// Salt mixed into the schedule RNG so the schedule stream is independent
/// of the boot/network RNG stream seeded from the same user-facing seed.
const SCHEDULE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt for the flapping-NIC step stream. Flap steps are drawn from their
/// own RNG and *appended* to the schedule, so enabling them leaves every
/// seed's pre-existing steps (and the main schedule stream) untouched.
const FLAP_SALT: u64 = 0x6c62_272e_07bb_0142;

/// Salt for the island-partition storm stream. Like flap steps, partition
/// cycles ride their own RNG and are appended, keeping every other stream
/// byte-identical per seed whether or not storms are enabled.
const PARTITION_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// Salt for the even-split storm stream (exact half/half islands for the
/// weighted/witness quorum). Appended from its own RNG like the other
/// optional shapes, so every pre-existing stream stays byte-identical.
const QUORUM_SALT: u64 = 0x94d0_49bb_1331_11eb;

/// Salt for the fail-slow (gray failure) storm stream: nodes that stay
/// alive and keep answering — late. Appended from its own RNG like the
/// other optional shapes, so every pre-existing stream stays
/// byte-identical per seed whether or not slow storms are enabled.
const SLOW_SALT: u64 = 0xd6e8_feb8_6659_fd93;

/// Schedules are capped at 64 steps so a subset is a `u64` bitmask.
pub const MAX_STEPS: usize = 64;

/// One scheduled action: a simulator fault, or a repair request sent to the
/// configuration service (paper Sec 3: node management via the config
/// service's single access point).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StepAction {
    Fault(Fault),
    RepairNode(NodeId),
}

/// An action at a virtual-time offset from the end of stabilization.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Step {
    pub offset: SimDuration,
    pub action: StepAction,
}

impl Step {
    fn fault(offset: SimDuration, fault: Fault) -> Step {
        let action = StepAction::Fault(fault);
        Step { offset, action }
    }
}

/// `fault` at `at`, and `undo` a `hold` later: whatever window a schedule
/// opens, the schedule closes.
fn window(steps: &mut Vec<Step>, at: SimDuration, hold: SimDuration, fault: Fault, undo: Fault) {
    steps.extend([Step::fault(at, fault), Step::fault(at + hold, undo)]);
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.offset.as_nanos() / 1_000_000;
        match self.action {
            StepAction::Fault(fault) => write!(f, "+{ms:>6}ms  {fault:?}"),
            StepAction::RepairNode(n) => write!(f, "+{ms:>6}ms  RepairNode({})", n.0),
        }
    }
}

/// Generate the fault schedule for `seed`. Deterministic: the same seed and
/// config always produce the same schedule, and the pids it references are
/// the boot-time pids (boot is itself deterministic per seed).
pub fn generate_schedule(seed: u64, cfg: &ChaosConfig, cluster: &PhoenixCluster) -> Vec<Step> {
    let mut rng = SimRng::seed_from_u64(seed ^ SCHEDULE_SALT);
    let dir = &cluster.directory;
    let topo = &cluster.topology;
    let horizon_ms = (cfg.horizon.as_nanos() / 1_000_000).max(1);

    // Node-crash candidates: compute nodes anywhere, plus servers of
    // partitions >= 1. Partition 0's server hosts the config and security
    // services (single-instance by design, paper Sec 3.1) and backup nodes
    // are the migration targets the takeover invariant depends on.
    let mut crashable: Vec<NodeId> = Vec::new();
    for (i, p) in topo.partitions.iter().enumerate() {
        if i > 0 {
            crashable.push(p.server);
        }
        crashable.extend(p.compute.iter().copied());
    }

    // Killable pids: per-node daemons and per-partition services. Config and
    // security are deliberately excluded (single-instance services; their
    // loss is a different experiment than kernel self-healing).
    let mut killable: Vec<Pid> = Vec::new();
    for ns in &dir.nodes {
        killable.extend([ns.wd, ns.detector, ns.ppm]);
    }
    for m in &dir.partitions {
        killable.extend([m.gsd, m.event, m.bulletin, m.checkpoint]);
    }

    let all_nodes: Vec<NodeId> = topo.partitions.iter().flat_map(|p| p.all_nodes()).collect();

    let n_faults = rng.gen_range(1..=cfg.max_faults.min(16) as u64) as usize;
    let mut steps: Vec<Step> = Vec::new();
    let mut crashed: Vec<NodeId> = Vec::new();
    for _ in 0..n_faults {
        if steps.len() + 2 > MAX_STEPS {
            break;
        }
        let at = SimDuration::from_millis(rng.gen_range(0..horizon_ms));
        // The extra loss-burst kind is only in the draw when enabled, so
        // schedules of the default configurations are unchanged.
        let kinds = if cfg.storms == Storms::Lossy { 5u64 } else { 4 };
        match rng.gen_range(0..kinds) {
            0 => {
                let pid = killable[rng.gen_range(0..killable.len() as u64) as usize];
                steps.push(Step::fault(at, Fault::KillProcess(pid)));
            }
            1 => {
                let node = crashable[rng.gen_range(0..crashable.len() as u64) as usize];
                if crashed.contains(&node) {
                    continue;
                }
                crashed.push(node);
                steps.push(Step::fault(at, Fault::CrashNode(node)));
                // Usually repair the node later so schedules also exercise
                // the config-service restart path (and WD re-wiring).
                if rng.gen_range(0..10u64) < 7 {
                    let delay = SimDuration::from_millis(rng.gen_range(2_000u64..20_000));
                    let action = StepAction::RepairNode(node);
                    steps.push(Step {
                        offset: at + delay,
                        action,
                    });
                }
            }
            2 => {
                let node = all_nodes[rng.gen_range(0..all_nodes.len() as u64) as usize];
                let nic = NicId(rng.gen_range(0..3u64) as u8);
                let delay = SimDuration::from_millis(rng.gen_range(1_000u64..4_000));
                window(
                    &mut steps,
                    at,
                    delay,
                    Fault::NicDown(node, nic),
                    Fault::NicUp(node, nic),
                );
            }
            3 => {
                let a = all_nodes[rng.gen_range(0..all_nodes.len() as u64) as usize];
                let mut b = all_nodes[rng.gen_range(0..all_nodes.len() as u64) as usize];
                if a == b {
                    b = all_nodes[(a.0 as usize + 1) % all_nodes.len()];
                }
                let delay = SimDuration::from_millis(rng.gen_range(1_000u64..5_000));
                window(
                    &mut steps,
                    at,
                    delay,
                    Fault::PartitionLink(a, b),
                    Fault::HealLink(a, b),
                );
            }
            _ => {
                // A cluster-wide loss burst (congestion spike): random loss
                // jumps to 5-30% for a bounded window, then clears back to
                // the configured baseline.
                let permille = 50 + rng.gen_range(0..251u64) as u16;
                let delay = SimDuration::from_millis(rng.gen_range(1_000u64..6_000));
                window(
                    &mut steps,
                    at,
                    delay,
                    Fault::LossBurst { permille },
                    Fault::LossClear,
                );
            }
        }
    }
    // Flapping-NIC storms: one interface of one node oscillates between
    // heavy loss and clean several times — the adversarial input for the
    // NIC-health hysteresis (a naive scorer would flip routing every
    // cycle; a naive detector would declare the NIC down). Drawn from a
    // separate salted stream and appended, so the steps above are
    // byte-identical whether or not flaps are enabled.
    if cfg.storms == Storms::Lossy {
        let mut frng = SimRng::seed_from_u64(seed ^ FLAP_SALT);
        let storms = 1 + frng.gen_range(0..2u64);
        for _ in 0..storms {
            if steps.len() + 2 > MAX_STEPS {
                break;
            }
            let node = all_nodes[frng.gen_range(0..all_nodes.len() as u64) as usize];
            let nic = NicId(frng.gen_range(0..3u64) as u8);
            let mut at = SimDuration::from_millis(frng.gen_range(0..horizon_ms));
            let cycles = 2 + frng.gen_range(0..3u64);
            for _ in 0..cycles {
                if steps.len() + 2 > MAX_STEPS {
                    break;
                }
                // 10-50% loss while degraded: bad enough to bleed through
                // K-of-N suspicion if routing ignores it, not a hard outage.
                let permille = 100 + frng.gen_range(0..401u64) as u16;
                let hold = SimDuration::from_millis(frng.gen_range(300..2_000u64));
                let (degrade, restore) = (
                    Fault::NicDegrade(node, nic, permille),
                    Fault::NicRestore(node, nic),
                );
                window(&mut steps, at, hold, degrade, restore);
                at = at + hold + SimDuration::from_millis(frng.gen_range(200..1_500u64));
            }
        }
    }
    // Island-partition storms: one or two cycles of "sever a random subset
    // of whole topology partitions into an island, hold long enough for
    // suspicion and the regroup takeover delay to engage, heal, let the
    // cluster reconverge". The island is a nonempty proper subset of the
    // configured partitions, so one side always holds a strict majority or
    // the split is even (both sides freeze).
    if cfg.storms == Storms::Partition {
        let prng = SimRng::seed_from_u64(seed ^ PARTITION_SALT);
        let parts = topo.partitions.len() as u64;
        let size = |rng: &mut SimRng| 1 + rng.gen_range(0..parts - 1) as usize;
        let (hold_ms, gap_ms) = (4_000..8_000, 10_000..16_000);
        island_storms(&mut steps, cluster, prng, horizon_ms, size, hold_ms, gap_ms);
    }
    // Even-split storms: exactly half the configured partitions islanded
    // at once — the shape count-majority regroup cannot win (both sides
    // freeze) and the vote table must (the witness's side stays live).
    // Random halves cover witness-in-island and witness-in-rest alike.
    // Holds run longer than partition storms: the winning side may need a
    // full suspicion + held-majority + election pipeline before its
    // leader stands, and the sampled exactly-one-live-side check needs
    // instants past that deadline to bite on.
    if cfg.storms == Storms::Quorum && cfg.partitions >= 2 {
        let qrng = SimRng::seed_from_u64(seed ^ QUORUM_SALT);
        let half = |_: &mut SimRng| topo.partitions.len() / 2;
        let (hold_ms, gap_ms) = (9_000..12_000, 12_000..18_000);
        island_storms(&mut steps, cluster, qrng, horizon_ms, half, hold_ms, gap_ms);
    }
    // Fail-slow storms: a node turns gray — alive, answering, late — for a
    // bounded window, then heals. Factors run 5x-49x: far past the
    // detector's slow-after gate, far under anything that could starve the
    // fail-stop pipeline's probe timeouts (so a dead verdict during a
    // clean slow window is unambiguously a false positive). Each episode
    // is paired with its `SlowClear` so every schedule ends healed and the
    // quarantine-convergence invariant is meaningful.
    if cfg.storms == Storms::Slow {
        let mut srng = SimRng::seed_from_u64(seed ^ SLOW_SALT);
        let episodes = 1 + srng.gen_range(0..2u64);
        let mut slowed: Vec<NodeId> = Vec::new();
        for _ in 0..episodes {
            if steps.len() + 2 > MAX_STEPS {
                break;
            }
            let node = all_nodes[srng.gen_range(0..all_nodes.len() as u64) as usize];
            if slowed.contains(&node) {
                continue;
            }
            slowed.push(node);
            let at = SimDuration::from_millis(srng.gen_range(0..horizon_ms));
            let factor_permille = (4_000 + srng.gen_range(0..44_001u64)) as u16;
            let hold = SimDuration::from_millis(srng.gen_range(8_000..16_000u64));
            let slow = Fault::SlowNode {
                node,
                factor_permille,
            };
            window(&mut steps, at, hold, slow, Fault::SlowClear(node));
        }
    }
    steps.sort_by_key(|s| s.offset.as_nanos());
    steps
}

/// Append one or two island split → heal cycles drawn from `rng`, a storm
/// kind's own salted stream, so every other stream stays byte-identical per
/// seed whether or not the kind is enabled. Cycles are sequential
/// (`Fault::Partition` replaces any active island, so ordering stays
/// well-defined even interleaved with other steps). Per cycle the draws
/// are, in order: the island's size (`size`, which may draw), its member
/// partitions, the hold, the gap to the next cycle.
fn island_storms(
    steps: &mut Vec<Step>,
    cluster: &PhoenixCluster,
    mut rng: SimRng,
    horizon_ms: u64,
    mut size: impl FnMut(&mut SimRng) -> usize,
    hold_ms: Range<u64>,
    gap_ms: Range<u64>,
) {
    let parts = cluster.topology.partitions.len();
    let cycles = 1 + rng.gen_range(0..2u64);
    let mut at = SimDuration::from_millis(rng.gen_range(0..horizon_ms));
    for _ in 0..cycles {
        if steps.len() + 2 > MAX_STEPS {
            break;
        }
        let k = size(&mut rng);
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < k {
            let p = rng.gen_range(0..parts as u64) as usize;
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        let island = cluster.island_mask(&chosen);
        let hold = SimDuration::from_millis(rng.gen_range(hold_ms.clone()));
        window(steps, at, hold, Fault::Partition { island }, Fault::Heal);
        at = at + hold + SimDuration::from_millis(rng.gen_range(gap_ms.clone()));
    }
}

/// Bitmask selecting every step of a schedule of `n` steps.
pub fn full_mask(n: usize) -> u64 {
    debug_assert!(n <= MAX_STEPS);
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

// ---------------------------------------------------------------------------
// Schedule classification (used by the pinned regression scenarios to prove
// a seed still exhibits the shape it was pinned for)
// ---------------------------------------------------------------------------

/// Partitions whose boot-time GSD the schedule kills — directly via
/// `KillProcess`, or by crashing the node hosting it.
pub fn gsd_kills(steps: &[Step], cluster: &PhoenixCluster) -> Vec<PartitionId> {
    let mut out = Vec::new();
    for m in &cluster.directory.partitions {
        let hit = steps.iter().any(|s| match s.action {
            StepAction::Fault(Fault::KillProcess(pid)) => pid == m.gsd,
            StepAction::Fault(Fault::CrashNode(node)) => node == m.node,
            _ => false,
        });
        if hit && !out.contains(&m.partition) {
            out.push(m.partition);
        }
    }
    out
}

/// Nodes with two overlapping NIC-outage windows (a second interface fails
/// while another is still down — the diagnosis ambiguity case).
pub fn double_nic_nodes(steps: &[Step], horizon: SimDuration) -> Vec<NodeId> {
    let mut windows: Vec<(NodeId, NicId, u64, u64)> = Vec::new();
    for s in steps {
        if let StepAction::Fault(Fault::NicDown(node, nic)) = s.action {
            let down = s.offset.as_nanos();
            let up = steps
                .iter()
                .filter_map(|t| match t.action {
                    StepAction::Fault(Fault::NicUp(n, c)) if n == node && c == nic => {
                        Some(t.offset.as_nanos())
                    }
                    _ => None,
                })
                .find(|&u| u > down)
                .unwrap_or(horizon.as_nanos());
            windows.push((node, nic, down, up));
        }
    }
    let mut out = Vec::new();
    for (i, &(node, nic, d0, u0)) in windows.iter().enumerate() {
        for &(n2, c2, d1, u1) in &windows[i + 1..] {
            let overlaps = d0 < u1 && d1 < u0;
            if node == n2 && nic != c2 && overlaps && !out.contains(&node) {
                out.push(node);
            }
        }
    }
    out
}

/// How many of the schedule's faults `pred` matches.
fn count(steps: &[Step], pred: impl Fn(&Fault) -> bool) -> usize {
    steps
        .iter()
        .filter(|s| matches!(&s.action, StepAction::Fault(f) if pred(f)))
        .count()
}

/// Number of NIC-degrade faults (flapping-NIC storm steps) in the schedule.
pub fn nic_flaps(steps: &[Step]) -> usize {
    count(steps, |f| matches!(f, Fault::NicDegrade(..)))
}

/// Number of loss-burst faults in the schedule.
pub fn loss_bursts(steps: &[Step]) -> usize {
    count(steps, |f| matches!(f, Fault::LossBurst { .. }))
}

/// Number of link-partition faults in the schedule.
pub fn link_partitions(steps: &[Step]) -> usize {
    count(steps, |f| matches!(f, Fault::PartitionLink(..)))
}

/// Number of island-partition storms (`Fault::Partition`) in the schedule.
pub fn island_partitions(steps: &[Step]) -> usize {
    count(steps, |f| matches!(f, Fault::Partition { .. }))
}

/// Number of fail-slow storms (`Fault::SlowNode`) in the schedule.
pub fn slow_storms(steps: &[Step]) -> usize {
    count(steps, |f| matches!(f, Fault::SlowNode { .. }))
}

/// Crash/repair pairs: nodes the schedule crashes and later repairs through
/// the configuration service.
pub fn crash_repair_nodes(steps: &[Step]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for s in steps {
        if let StepAction::Fault(Fault::CrashNode(node)) = s.action {
            let repaired = steps.iter().any(|t| {
                matches!(t.action, StepAction::RepairNode(n) if n == node)
                    && t.offset.as_nanos() > s.offset.as_nanos()
            });
            if repaired && !out.contains(&node) {
                out.push(node);
            }
        }
    }
    out
}
