//! Quorum sweep: even-split survival under the witness/weighted vote table.
//!
//! `partition_sweep` cuts one partition off and expects the *count*
//! majority to keep running — but a 2-vs-2 split of an even partition
//! count has no count majority, and the pre-vote-table protocol froze
//! both sides. This bench drives exactly those splits against the
//! quorum rung (`Rung::Quorum`: one vote per partition, the
//! witness's doubled, adaptive takeover delay) and gates the claim:
//! **exactly one side stays alive through an even split**.
//!
//! Two split shapes per seed on the 4 × 3-node testbed (witness p1):
//!
//! * **witness-islanded** — island {p1, p2}: the witness is severed from
//!   the meta leader and the config service; its side must win the
//!   weighted vote and elect a replacement leader while {p0, p3} freezes;
//! * **leader-kept** — island {p2, p3}: witness and leader stay mainside;
//!   the island must freeze and the mainland must keep its leader.
//!
//! Sampled every 20 ms across the split and the heal:
//!
//! * **double-leader instants** — more than one live unfrozen leader;
//! * **both-frozen instants** — every live GSD frozen once the split has
//!   out-lived the freeze pipeline (the total outage the vote table
//!   exists to prevent);
//! * **decision time** — cut → losing side fully frozen *and* winning
//!   side led by exactly one unfrozen leader;
//! * **availability** — fraction of samples with a live unfrozen leader;
//! * **heal → convergence** — one live GSD per partition, one leader,
//!   nobody frozen.
//!
//! A second pass benches the adaptive takeover delay against the paper's
//! fixed 31 s constant: kill one GSD on a healthy cluster and time the
//! kill → replacement-live takeover under both settings. The adaptive
//! profile must stay within the fast-profile envelope; the fixed-31 s
//! run documents the MSCS-style worst case the adaptation removes.
//!
//! Results go to `results/BENCH_quorum.json` (sections `quorum`,
//! `episodes`, `takeover_ablation`); exit status is non-zero on any
//! double-leader instant, both-frozen instant, undecided split, or
//! unconverged heal — `scripts/verify.sh` gates on all four.

use phoenix_bench::episodes::{ms_since, split_and_heal, Split};
use phoenix_bench::sweep::{Facts, Job, Outcome, Plan, Report, Sweep};
use phoenix_kernel::boot::boot_and_stabilize;
use phoenix_kernel::{KernelParams, PhoenixCluster, Rung};
use phoenix_proto::{ClusterTopology, PartitionId};
use phoenix_sim::{Fault, SimDuration};
use phoenix_telemetry::Json;

/// The quorum profile on the even testbed: 4 partitions × 3 nodes, the
/// witness designated away from the config partition (p1) so both split
/// shapes are interesting.
fn quorum_params() -> KernelParams {
    let mut params = KernelParams::fast_at(Rung::Quorum);
    params.ft.witness = Some(PartitionId(1));
    params
}

/// The even-split shapes: name, which partitions are severed, and whether
/// the severed island is the side the weighted vote keeps alive.
const SHAPES: [(&str, &[usize], bool); 2] =
    [("witness-islanded", &[1, 2], true), ("leader-kept", &[2, 3], false)];

/// Kill one member GSD on a healthy cluster and time the replacement:
/// the regroup licence (held-majority × takeover delay) sits on this
/// path, so the adaptive-vs-fixed-31 s difference shows up directly.
/// `takeover_ms` is the report row's column; the same number under the
/// delay's own name is what the summary means and the gate counts.
fn takeover_episode(seed: u64, adaptive: bool) -> Facts {
    let mut params = quorum_params();
    if !adaptive {
        // The paper-profile ablation: MSCS's fixed "wait out the regroup
        // period" constant instead of the latency-derived delay.
        params.ft.takeover_delay = Some(SimDuration::from_secs(31));
    }
    let (mut w, cluster) = boot_and_stabilize(ClusterTopology::uniform(4, 3, 1), params, seed);
    w.run_for(SimDuration::from_secs(3));
    let victim = PartitionId(2); // plain member: not leader (p0), not witness (p1)
    let gsds = PhoenixCluster::live_gsds(&w);
    let mut takeover_ms = None;
    if let Some(pid) = gsds.iter().find(|g| g.partition == victim).map(|g| g.pid) {
        let t_kill = w.now();
        w.apply_fault(Fault::KillProcess(pid));
        while w.now().since(t_kill) < SimDuration::from_secs(45) {
            w.run_for(SimDuration::from_millis(50));
            let replaced =
                PhoenixCluster::live_gsds(&w).iter().any(|g| g.partition == victim && g.pid != pid);
            if replaced && cluster.roles_converged(&w) {
                takeover_ms = Some(ms_since(&w, t_kill));
                break;
            }
        }
    }
    let by_delay = if adaptive { "takeover_adaptive_ms" } else { "takeover_fixed31_ms" };
    vec![("takeover_ms", takeover_ms), (by_delay, takeover_ms)]
}

/// Split seeds, then takeover-ablation seeds. The acceptance gate is
/// statistical (zero bad instants across the population), hence 50
/// even-split episodes.
const SEEDS: (u64, u64) = (25, 6);

fn plan() -> Plan {
    let (split_seeds, ablation_seeds) = SEEDS;
    let mut jobs = Vec::new();
    for seed in 1..=split_seeds {
        for (group, &(name, island, island_wins)) in SHAPES.iter().enumerate() {
            let split = Split {
                topology: (4, 3),
                params: quorum_params,
                island,
                island_wins,
                hold: SimDuration::from_secs(8),
                directory: false,
            };
            jobs.push(Job {
                group,
                seed,
                labels: vec![("shape", Json::str(name))],
                run: Box::new(move |seed| split_and_heal(seed, &split)),
            });
        }
    }
    for seed in 1..=ablation_seeds {
        for (adaptive, delay) in [(true, "adaptive"), (false, "fixed_31s")] {
            jobs.push(Job {
                group: SHAPES.len(),
                seed,
                labels: vec![("delay", Json::str(delay))],
                run: Box::new(move |seed| takeover_episode(seed, adaptive)),
            });
        }
    }
    Plan {
        header: format!(
            "quorum_sweep: {split_seeds} seeds x {} even-split shapes + \
             {ablation_seeds} x 2 takeover ablations (12-node testbed, quorum \
             profile, witness p1, 8 s split + heal per episode)",
            SHAPES.len()
        ),
        jobs,
    }
}

fn report(o: &Outcome) -> Report {
    let splits = &o.groups[..SHAPES.len()];
    let mut lines: Vec<String> = splits
        .iter()
        .zip(SHAPES)
        .map(|(g, (name, ..))| {
            format!(
                "  {:>16}: decide {:>7.1} ms | freeze {:>7.1} ms | heal->roles \
                 {:>7.1} ms | avail {:.3}  (n={})",
                name,
                g.mean("decision_ms"),
                g.mean("freeze_ms"),
                g.mean("heal_converge_ms"),
                g.mean("availability"),
                g.n("decision_ms")
            )
        })
        .collect();
    lines.push(format!(
        "  takeover ablation: adaptive {:>8.1} ms vs fixed-31s {:>8.1} ms \
         (n={}+{})",
        o.all.mean("takeover_adaptive_ms"),
        o.all.mean("takeover_fixed31_ms"),
        o.all.n("takeover_adaptive_ms"),
        o.all.n("takeover_fixed31_ms")
    ));

    let double = o.all.sum("double_leader_instants");
    let both_frozen = o.all.sum("both_frozen_instants");
    let undecided = o.all.missing("decision_ms");
    let unconverged = o.all.missing("heal_converge_ms");
    let unrecovered = o.all.missing("takeover_adaptive_ms");
    let summary = Json::obj()
        .set("seeds", Json::Num(SEEDS.0 as f64))
        .set("episodes", Json::Num(splits.iter().map(|g| g.runs).sum::<usize>() as f64))
        .set("double_leader_instants", Json::Num(double as f64))
        .set("both_frozen_instants", Json::Num(both_frozen as f64))
        .set("undecided_splits", Json::Num(undecided as f64))
        .set("unconverged_episodes", Json::Num(unconverged as f64))
        .set("availability_mean", Json::Num(o.all.mean("availability")))
        .set("takeover_adaptive_ms_mean", Json::Num(o.all.mean("takeover_adaptive_ms")))
        .set("takeover_fixed31_ms_mean", Json::Num(o.all.mean("takeover_fixed31_ms")));
    let columns = [
        "decision_ms",
        "freeze_ms",
        "heal_converge_ms",
        "availability",
        "double_leader_instants",
        "both_frozen_instants",
    ];
    let bad = double > 0 || both_frozen > 0 || undecided > 0 || unconverged > 0 || unrecovered > 0;
    Report {
        lines,
        sections: vec![
            ("quorum", summary),
            ("episodes", o.rows(0..SHAPES.len(), &columns)),
            ("takeover_ablation", o.rows(SHAPES.len()..SHAPES.len() + 1, &["takeover_ms"])),
        ],
        failure: bad.then(|| {
            format!(
                "{double} double-leader instant(s), {both_frozen} both-frozen instant(s), \
                 {undecided} undecided split(s), {unconverged} unconverged episode(s), \
                 {unrecovered} unrecovered adaptive takeover(s) — even-split survival regressed"
            )
        }),
    }
}

pub const SWEEP: Sweep =
    Sweep { name: "quorum_sweep", file: "BENCH_quorum.json", noun: "episodes", plan, report };
