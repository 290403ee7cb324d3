//! Fail-slow sweep: gray-failure detection, quarantine, and handoff.
//!
//! `quorum_sweep` and `partition_sweep` cover fail-stop: a node is up or
//! it is down, and the regroup machinery votes on which side lives. This
//! bench drives the orthogonal gray-failure axis against the
//! `KernelParams::fast_slow()` profile: a node that answers *every*
//! probe, only `factor` times slower than its own baseline. The tentpole
//! claims under test:
//!
//! * **slow is never dead** — across every slowness factor, zero
//!   `NodeFailure` diagnoses of the slowed node (the fail-stop pipeline
//!   must not be fooled by stretched RTTs);
//! * **slow is acted on** — the detector suspects the node, the leader
//!   quarantines its partition, and the resident GSD drains to a healthy
//!   home node;
//! * **a slow leader hands off** — when the victim hosts the meta
//!   leader, the princess-observed suspicion plus the leader's own
//!   gray-inversion corroboration produce exactly one yield, never a
//!   dead diagnosis and never two leaders;
//! * **recovery is clean** — after the slowness clears, the quarantine
//!   empties everywhere and roles reconverge to one GSD per partition
//!   with a single leader.
//!
//! Two victim shapes per seed × factor on the 3 × 5-node testbed:
//! **member-gray** slows the p2 partition server; **leader-gray** slows
//! the p0 server hosting the meta leader. Factors sweep 6× – 48×,
//! i.e. from "double the `slow_after` bar" up to near the `u16`
//! permille envelope exercised by `chaos --slow`.
//!
//! Measured per episode from trace milestones:
//!
//! * **suspect** — `SlowNode` → first `slow-suspected` of the victim;
//! * **quarantine** — `SlowNode` → first non-empty `slow-quarantine`;
//! * **drain** — `SlowNode` → `slow-drain` of the victim's partition;
//! * **yield** — `SlowNode` → `slow-leader-yield` (leader shape only);
//! * **reinstate** — `SlowClear` → every live GSD reports an empty
//!   quarantine view and roles have reconverged.
//!
//! Results go to `results/BENCH_slow.json` (sections `slow`, `curve`,
//! `episodes`); exit status is non-zero on any dead diagnosis of a
//! slow-but-alive node, an undrained member episode, an unyielded
//! leader episode, or an unreinstated recovery — `scripts/verify.sh`
//! gates on all four.
//!
//! ```text
//! slow_sweep [--small] [--serial]
//! ```

use phoenix_bench::sweep::{mean, run_sweep};
use phoenix_kernel::boot::{boot_and_stabilize, GsdView};
use phoenix_kernel::group::Gsd;
use phoenix_kernel::{KernelParams, PhoenixCluster};
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{Diagnosis, Fault, FaultTarget, NodeId, SimDuration, SimTime, TraceEvent, World};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

/// Same testbed as `chaos --slow`: 3 partitions × 5 nodes, fail-slow
/// detector enabled on top of the fast fail-stop profile.
fn boot(seed: u64) -> (World<KernelMsg>, PhoenixCluster) {
    boot_and_stabilize(ClusterTopology::uniform(3, 5, 1), KernelParams::fast_slow(), seed)
}

/// Post-clear steady state: one live GSD per partition, exactly one
/// leader, nobody frozen, and every live GSD's quarantine view empty.
fn recovered(w: &World<KernelMsg>, cluster: &PhoenixCluster) -> bool {
    let unquarantined = |g: &GsdView| {
        let gsd = w.actor_as::<Gsd>(g.pid);
        gsd.is_none_or(|g| g.quarantine_view().1.is_empty())
    };
    cluster.roles_converged(w) && PhoenixCluster::live_gsds(w).iter().all(unquarantined)
}

/// Dead diagnoses of the victim — the zero-tolerance counter: the node
/// answered every probe, so any `NodeFailure` verdict is a false kill.
fn dead_diagnoses(w: &World<KernelMsg>, node: NodeId) -> usize {
    w.trace().count(|e| {
        matches!(
            e,
            TraceEvent::FaultDiagnosed {
                target: FaultTarget::Node(n),
                diagnosis: Diagnosis::NodeFailure,
                ..
            } if *n == node
        )
    })
}

/// Milliseconds from `from` to the first matching milestone after it.
fn milestone_ms<F>(w: &World<KernelMsg>, from: SimTime, pred: F) -> Option<f64>
where
    F: FnMut(&TraceEvent) -> bool,
{
    w.trace().find_after(from, pred).map(|r| r.at.since(from).as_nanos() as f64 / 1e6)
}

/// Which node gets slowed: a plain partition server, or the one hosting
/// the meta leader (forcing the yield path on top of the quarantine
/// path).
struct Shape {
    name: &'static str,
    victim_part: usize,
    is_leader: bool,
}

const SHAPES: [Shape; 2] = [
    Shape { name: "member-gray", victim_part: 2, is_leader: false },
    Shape { name: "leader-gray", victim_part: 0, is_leader: true },
];

struct Episode {
    suspect_ms: Option<f64>,
    quarantine_ms: Option<f64>,
    drain_ms: Option<f64>,
    yield_ms: Option<f64>,
    reinstate_ms: Option<f64>,
    false_dead: usize,
    relocated: bool,
}

/// One SlowNode → detect → quarantine → drain (→ yield) → SlowClear →
/// reinstate cycle at the given slowness factor.
fn episode(seed: u64, factor_permille: u16, shape: &Shape) -> Episode {
    let (mut w, cluster) = boot(seed);
    w.run_for(SimDuration::from_secs(3));

    let victim = cluster.topology.partitions[shape.victim_part].server;
    let part = shape.victim_part as f64;
    let t_slow = w.now();
    w.apply_fault(Fault::SlowNode { node: victim, factor_permille });

    // Detection phase: run until the victim's partition has drained (the
    // last milestone of the reaction chain) or the window closes.
    while w.now().since(t_slow) < SimDuration::from_secs(25) {
        w.run_for(SimDuration::from_millis(100));
        let drained = w.trace().find_after(t_slow, |e| {
            matches!(e, TraceEvent::Milestone { label: "slow-drain", value } if *value == part)
        });
        if drained.is_some() {
            // Give the drained clone a beat to land before clearing.
            w.run_for(SimDuration::from_secs(2));
            break;
        }
    }

    let suspect_ms = milestone_ms(&w, t_slow, |e| {
        matches!(
            e,
            TraceEvent::Milestone { label: "slow-suspected", value } if *value == victim.0 as f64
        )
    });
    let quarantine_ms = milestone_ms(&w, t_slow, |e| {
        matches!(e, TraceEvent::Milestone { label: "slow-quarantine", value } if *value > 0.0)
    });
    let drain_ms = milestone_ms(&w, t_slow, |e| {
        matches!(e, TraceEvent::Milestone { label: "slow-drain", value } if *value == part)
    });
    let yield_ms = milestone_ms(&w, t_slow, |e| {
        matches!(e, TraceEvent::Milestone { label: "slow-leader-yield", value } if *value == part)
    });

    let t_clear = w.now();
    w.apply_fault(Fault::SlowClear(victim));
    let mut reinstate_ms = None;
    while w.now().since(t_clear) < SimDuration::from_secs(40) {
        w.run_for(SimDuration::from_millis(100));
        if recovered(&w, &cluster) {
            reinstate_ms = Some(w.now().since(t_clear).as_nanos() as f64 / 1e6);
            break;
        }
    }

    let relocated = PhoenixCluster::live_gsds(&w)
        .iter()
        .any(|g| g.partition.index() == shape.victim_part && g.node != victim);

    Episode {
        suspect_ms,
        quarantine_ms,
        drain_ms,
        yield_ms,
        reinstate_ms,
        false_dead: dead_diagnoses(&w, victim),
        relocated,
    }
}

/// 6× sits at double the detector's `slow_after` bar (3×); 48× is near
/// the top of the `u16` permille envelope `chaos --slow` injects.
const FACTORS: [u16; 4] = [6_000, 12_000, 24_000, 48_000];

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let serial = std::env::args().any(|a| a == "--serial");
    let seeds: u64 = if small { 3 } else { 6 };
    println!(
        "slow_sweep: {seeds} seeds x {} factors x {} victim shapes (15-node \
         testbed, fail-slow profile, 6x-48x slowness, clear + reinstate per \
         episode)",
        FACTORS.len(),
        SHAPES.len()
    );

    let mut jobs = Vec::new();
    for seed in 1..=seeds {
        for (fi, _) in FACTORS.iter().enumerate() {
            for (si, _) in SHAPES.iter().enumerate() {
                jobs.push((seed, fi, si));
            }
        }
    }
    let out = run_sweep(&jobs, serial, |&(seed, fi, si)| {
        episode(seed, FACTORS[fi], &SHAPES[si])
    });
    println!(
        "sweep: {} episodes on {} thread(s), {} ms wall",
        jobs.len(),
        out.threads,
        out.wall.as_millis()
    );

    let mut rows = Vec::new();
    let mut curve = Vec::new();
    let mut false_dead_total = 0usize;
    let mut unsuspected = 0u64;
    let mut unquarantined = 0u64;
    let mut undrained_member = 0u64;
    let mut unyielded_leader = 0u64;
    let mut unreinstated = 0u64;
    for (si, shape) in SHAPES.iter().enumerate() {
        for (fi, &factor) in FACTORS.iter().enumerate() {
            let mut suspect = Vec::new();
            let mut quarantine = Vec::new();
            let mut drain = Vec::new();
            let mut yields = Vec::new();
            let mut reinstate = Vec::new();
            for (&(seed, f, s), ep) in jobs.iter().zip(&out.results) {
                if s != si || f != fi {
                    continue;
                }
                false_dead_total += ep.false_dead;
                unsuspected += ep.suspect_ms.is_none() as u64;
                unquarantined += ep.quarantine_ms.is_none() as u64;
                if shape.is_leader {
                    unyielded_leader += ep.yield_ms.is_none() as u64;
                } else {
                    undrained_member += ep.drain_ms.is_none() as u64;
                }
                unreinstated += ep.reinstate_ms.is_none() as u64;
                suspect.extend(ep.suspect_ms);
                quarantine.extend(ep.quarantine_ms);
                drain.extend(ep.drain_ms);
                yields.extend(ep.yield_ms);
                reinstate.extend(ep.reinstate_ms);
                rows.push(
                    Json::obj()
                        .set("seed", Json::Num(seed as f64))
                        .set("shape", Json::str(shape.name))
                        .set("factor_permille", Json::Num(factor as f64))
                        .set("suspect_ms", ep.suspect_ms.map(Json::Num).unwrap_or(Json::Null))
                        .set("quarantine_ms", ep.quarantine_ms.map(Json::Num).unwrap_or(Json::Null))
                        .set("drain_ms", ep.drain_ms.map(Json::Num).unwrap_or(Json::Null))
                        .set("yield_ms", ep.yield_ms.map(Json::Num).unwrap_or(Json::Null))
                        .set("reinstate_ms", ep.reinstate_ms.map(Json::Num).unwrap_or(Json::Null))
                        .set("false_dead", Json::Num(ep.false_dead as f64))
                        .set("relocated", Json::Num(ep.relocated as u8 as f64)),
                );
            }
            curve.push(
                Json::obj()
                    .set("shape", Json::str(shape.name))
                    .set("factor_permille", Json::Num(factor as f64))
                    .set("suspect_ms_mean", Json::Num(mean(&suspect)))
                    .set("quarantine_ms_mean", Json::Num(mean(&quarantine)))
                    .set("reinstate_ms_mean", Json::Num(mean(&reinstate))),
            );
            println!(
                "  {:>11} {:>5}x: suspect {:>7.1} ms | quarantine {:>7.1} ms | \
                 {} {:>7.1} ms | reinstate {:>8.1} ms  (n={})",
                shape.name,
                factor / 1000,
                mean(&suspect),
                mean(&quarantine),
                if shape.is_leader { "yield" } else { "drain" },
                if shape.is_leader { mean(&yields) } else { mean(&drain) },
                mean(&reinstate),
                suspect.len()
            );
        }
    }

    let summary = Json::obj()
        .set("shape", Json::str(if small { "small" } else { "full" }))
        .set("seeds", Json::Num(seeds as f64))
        .set("episodes", Json::Num(jobs.len() as f64))
        .set("false_dead_diagnoses", Json::Num(false_dead_total as f64))
        .set("unsuspected_episodes", Json::Num(unsuspected as f64))
        .set("unquarantined_episodes", Json::Num(unquarantined as f64))
        .set("undrained_member_episodes", Json::Num(undrained_member as f64))
        .set("unyielded_leader_episodes", Json::Num(unyielded_leader as f64))
        .set("unreinstated_episodes", Json::Num(unreinstated as f64));

    let mut rep = phoenix_telemetry::BenchReport::new("slow_sweep");
    rep.section("slow", summary);
    rep.section("curve", Json::Arr(curve));
    rep.section("episodes", Json::Arr(rows));
    let path = rep
        .write_to(&out.merged, workspace_root().join("results/BENCH_slow.json"))
        .expect("write BENCH_slow.json");
    println!("report written: {}", path.display());

    if false_dead_total > 0
        || unsuspected > 0
        || unquarantined > 0
        || undrained_member > 0
        || unyielded_leader > 0
        || unreinstated > 0
    {
        eprintln!(
            "slow_sweep: {false_dead_total} dead diagnosis(es) of a slow-but-\
             alive node, {unsuspected} unsuspected, {unquarantined} \
             unquarantined, {undrained_member} undrained member, \
             {unyielded_leader} unyielded leader, {unreinstated} unreinstated \
             episode(s) — fail-slow handling regressed"
        );
        std::process::exit(1);
    }
}
