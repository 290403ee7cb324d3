//! Fail-slow sweep: gray-failure detection, quarantine, and handoff.
//!
//! `quorum_sweep` and `partition_sweep` cover fail-stop: a node is up or
//! it is down, and the regroup machinery votes on which side lives. This
//! bench drives the orthogonal gray-failure axis against the
//! slow rung (`Rung::Slow`): a node that answers *every*
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

use phoenix_bench::episodes::ms_since;
use phoenix_bench::sweep::{Facts, Job, Outcome, Plan, Report, Sweep};
use phoenix_kernel::boot::{boot_and_stabilize, GsdView};
use phoenix_kernel::group::Gsd;
use phoenix_kernel::{KernelParams, PhoenixCluster, Rung};
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{Diagnosis, Fault, FaultTarget, SimDuration, SimTime, TraceEvent, World};
use phoenix_telemetry::Json;

/// Post-clear steady state: one live GSD per partition, exactly one
/// leader, nobody frozen, and every live GSD's quarantine view empty.
fn recovered(w: &World<KernelMsg>, cluster: &PhoenixCluster) -> bool {
    let unquarantined = |g: &GsdView| {
        let gsd = w.actor_as::<Gsd>(g.pid);
        gsd.is_none_or(|g| g.quarantine_view().1.is_empty())
    };
    cluster.roles_converged(w) && PhoenixCluster::live_gsds(w).iter().all(unquarantined)
}

/// Milliseconds from `from` to the first `label` milestone after it whose
/// value `hit` accepts.
fn milestone_ms(
    w: &World<KernelMsg>,
    from: SimTime,
    label: &str,
    hit: impl Fn(f64) -> bool,
) -> Option<f64> {
    let found = w.trace().find_after(
        from,
        |e| matches!(e, TraceEvent::Milestone { label: l, value } if *l == label && hit(*value)),
    );
    found.map(|r| r.at.since(from).as_nanos() as f64 / 1e6)
}

/// Which node gets slowed — a plain partition server, or the one hosting
/// the meta leader (forcing the yield path on top of the quarantine path):
/// name, victim partition, and whether that partition leads.
const SHAPES: [(&str, usize, bool); 2] = [("member-gray", 2, false), ("leader-gray", 0, true)];

/// 6× sits at double the detector's `slow_after` bar (3×); 48× is near
/// the top of the `u16` permille envelope `chaos --slow` injects.
const FACTORS: [u16; 4] = [6_000, 12_000, 24_000, 48_000];

/// One SlowNode → detect → quarantine → drain (→ yield) → SlowClear →
/// reinstate cycle at the given slowness factor, on the same testbed as
/// `chaos --slow`: 3 partitions × 5 nodes, fail-slow detector enabled on
/// top of the fast fail-stop profile.
fn episode(seed: u64, factor_permille: u16, victim_part: usize) -> Facts {
    let topology = ClusterTopology::uniform(3, 5, 1);
    let (mut w, cluster) = boot_and_stabilize(topology, KernelParams::fast_at(Rung::Slow), seed);
    w.run_for(SimDuration::from_secs(3));

    let victim = cluster.topology.partitions[victim_part].server;
    let t_slow = w.now();
    w.apply_fault(Fault::SlowNode { node: victim, factor_permille });
    let part = victim_part as f64;

    // Detection phase: run until the victim's partition has drained (the
    // last milestone of the reaction chain) or the window closes.
    while w.now().since(t_slow) < SimDuration::from_secs(25) {
        w.run_for(SimDuration::from_millis(100));
        if milestone_ms(&w, t_slow, "slow-drain", |v| v == part).is_some() {
            // Give the drained clone a beat to land before clearing.
            w.run_for(SimDuration::from_secs(2));
            break;
        }
    }
    let mut facts = vec![
        ("suspect_ms", milestone_ms(&w, t_slow, "slow-suspected", |v| v == victim.0 as f64)),
        ("quarantine_ms", milestone_ms(&w, t_slow, "slow-quarantine", |v| v > 0.0)),
        ("drain_ms", milestone_ms(&w, t_slow, "slow-drain", |v| v == part)),
        ("yield_ms", milestone_ms(&w, t_slow, "slow-leader-yield", |v| v == part)),
    ];

    let t_clear = w.now();
    w.apply_fault(Fault::SlowClear(victim));
    let mut reinstate_ms = None;
    while w.now().since(t_clear) < SimDuration::from_secs(40) {
        w.run_for(SimDuration::from_millis(100));
        if recovered(&w, &cluster) {
            reinstate_ms = Some(ms_since(&w, t_clear));
            break;
        }
    }
    // Dead diagnoses of the victim — the zero-tolerance counter: the node
    // answered every probe, so any `NodeFailure` verdict is a false kill.
    let false_dead = w.trace().count(|e| {
        matches!(
            e,
            TraceEvent::FaultDiagnosed {
                target: FaultTarget::Node(n),
                diagnosis: Diagnosis::NodeFailure,
                ..
            } if *n == victim
        )
    });
    let relocated = PhoenixCluster::live_gsds(&w)
        .iter()
        .any(|g| g.partition.index() == victim_part && g.node != victim);
    facts.extend([
        ("reinstate_ms", reinstate_ms),
        ("false_dead", Some(false_dead as f64)),
        ("relocated", Some(relocated as u8 as f64)),
    ]);
    facts
}

const SEEDS: u64 = 6;

fn plan() -> Plan {
    let mut jobs = Vec::new();
    for seed in 1..=SEEDS {
        for (fi, &factor) in FACTORS.iter().enumerate() {
            for (si, &(name, victim_part, _)) in SHAPES.iter().enumerate() {
                jobs.push(Job {
                    group: si * FACTORS.len() + fi,
                    seed,
                    labels: vec![
                        ("shape", Json::str(name)),
                        ("factor_permille", Json::Num(factor as f64)),
                    ],
                    run: Box::new(move |seed| episode(seed, factor, victim_part)),
                });
            }
        }
    }
    Plan {
        header: format!(
            "slow_sweep: {} seeds x {} factors x {} victim shapes (15-node \
             testbed, fail-slow profile, 6x-48x slowness, clear + reinstate per \
             episode)",
            SEEDS,
            FACTORS.len(),
            SHAPES.len()
        ),
        jobs,
    }
}

fn report(o: &Outcome) -> Report {
    let mut lines = Vec::new();
    let mut curve = Vec::new();
    let (mut undrained_member, mut unyielded_leader) = (0, 0);
    for (gi, g) in o.groups.iter().enumerate() {
        let (name, _, is_leader) = SHAPES[gi / FACTORS.len()];
        let factor = FACTORS[gi % FACTORS.len()];
        // A gray leader must yield; a gray member's partition must drain.
        let (reaction, reaction_ms) =
            if is_leader { ("yield", "yield_ms") } else { ("drain", "drain_ms") };
        if is_leader {
            unyielded_leader += g.missing(reaction_ms);
        } else {
            undrained_member += g.missing(reaction_ms);
        }
        curve.push(
            Json::obj()
                .set("shape", Json::str(name))
                .set("factor_permille", Json::Num(factor as f64))
                .set("suspect_ms_mean", Json::Num(g.mean("suspect_ms")))
                .set("quarantine_ms_mean", Json::Num(g.mean("quarantine_ms")))
                .set("reinstate_ms_mean", Json::Num(g.mean("reinstate_ms"))),
        );
        lines.push(format!(
            "  {:>11} {:>5}x: suspect {:>7.1} ms | quarantine {:>7.1} ms | \
             {} {:>7.1} ms | reinstate {:>8.1} ms  (n={})",
            name,
            factor / 1000,
            g.mean("suspect_ms"),
            g.mean("quarantine_ms"),
            reaction,
            g.mean(reaction_ms),
            g.mean("reinstate_ms"),
            g.n("suspect_ms")
        ));
    }

    let false_dead = o.all.sum("false_dead");
    let unsuspected = o.all.missing("suspect_ms");
    let unquarantined = o.all.missing("quarantine_ms");
    let unreinstated = o.all.missing("reinstate_ms");
    let summary = Json::obj()
        .set("seeds", Json::Num(SEEDS as f64))
        .set("episodes", Json::Num(o.all.runs as f64))
        .set("false_dead_diagnoses", Json::Num(false_dead as f64))
        .set("unsuspected_episodes", Json::Num(unsuspected as f64))
        .set("unquarantined_episodes", Json::Num(unquarantined as f64))
        .set("undrained_member_episodes", Json::Num(undrained_member as f64))
        .set("unyielded_leader_episodes", Json::Num(unyielded_leader as f64))
        .set("unreinstated_episodes", Json::Num(unreinstated as f64));
    let columns = [
        "suspect_ms",
        "quarantine_ms",
        "drain_ms",
        "yield_ms",
        "reinstate_ms",
        "false_dead",
        "relocated",
    ];
    let bad =
        [false_dead, unsuspected, unquarantined, undrained_member, unyielded_leader, unreinstated];
    Report {
        lines,
        sections: vec![
            ("slow", summary),
            ("curve", Json::Arr(curve)),
            ("episodes", o.rows(0..o.groups.len(), &columns)),
        ],
        failure: bad.iter().any(|&n| n > 0).then(|| {
            format!(
                "{false_dead} dead diagnosis(es) of a slow-but-alive node, {unsuspected} \
                 unsuspected, {unquarantined} unquarantined, {undrained_member} undrained \
                 member, {unyielded_leader} unyielded leader, {unreinstated} unreinstated \
                 episode(s) — fail-slow handling regressed"
            )
        }),
    }
}

pub const SWEEP: Sweep =
    Sweep { name: "slow_sweep", file: "BENCH_slow.json", noun: "episodes", plan, report };
