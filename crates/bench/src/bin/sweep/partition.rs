//! Partition sweep: split-brain survival measured end to end.
//!
//! The paper's testbed never splits its switched Ethernet in half; this
//! bench asks what the regroup layer (the partition rung, `Rung::Partition`)
//! delivers when it does. For each seeded episode one whole topology
//! partition is severed onto an island (`Fault::Partition`) for six
//! virtual seconds and then healed, alternating which side is cut:
//!
//! * **minority freeze time** — cut → the minority island's GSD reports
//!   the `"frozen"` pseudo-role (suspicion + regroup round latency);
//! * **double-leader instants** — sampled every 20 ms across the split
//!   and the heal; any instant with two live unfrozen leaders is a
//!   split-brain violation and fails the run;
//! * **heal → convergence time** — heal → one live GSD per partition,
//!   exactly one leader, nobody frozen;
//! * **heal → directory convergence** — heal → the config service
//!   answers with a complete live directory and an empty stale set.
//!
//! Results go to `results/BENCH_partition.json` (sections `partition` and
//! `episodes`); the exit status is non-zero if any double-leader instant
//! was sampled, a minority failed to freeze, or an episode failed to
//! converge — which lets `scripts/verify.sh` gate on all three.

use phoenix_bench::episodes::{split_and_heal, Split};
use phoenix_bench::sweep::{Fold, Job, Outcome, Plan, Report, Sweep};
use phoenix_kernel::{KernelParams, Rung};
use phoenix_sim::SimDuration;
use phoenix_telemetry::Json;

/// Alternate which side is severed: partition 0 carries the meta leader
/// *and* the config service (the hard case); partition 2 is a plain member
/// whose directory entry must go stale and come back. Either way the
/// island is the minority, and the majority must stay live.
const ISLANDS: [&[usize]; 2] = [&[0], &[2]];

const SEEDS: u64 = 10;

fn plan() -> Plan {
    let mut jobs = Vec::new();
    for seed in 1..=SEEDS {
        for (group, island) in ISLANDS.into_iter().enumerate() {
            let split = Split {
                topology: (3, 4),
                params: || KernelParams::fast_at(Rung::Partition),
                island,
                island_wins: false,
                hold: SimDuration::from_secs(6),
                directory: true,
            };
            jobs.push(Job {
                group,
                seed,
                labels: vec![("minority_partition", Json::Num(island[0] as f64))],
                run: Box::new(move |seed| split_and_heal(seed, &split)),
            });
        }
    }
    Plan {
        header: format!(
            "partition_sweep: {} seeds x {} islands (15-node testbed, \
             regroup profile, 6 s split + heal per episode)",
            SEEDS,
            ISLANDS.len()
        ),
        jobs,
    }
}

fn report(o: &Outcome) -> Report {
    let line = |(g, island): (&Fold, &[usize])| {
        format!(
            "  island p{}: freeze {:>7.1} ms | heal->roles {:>7.1} ms | \
             heal->directory {:>7.1} ms  (n={})",
            island[0],
            g.mean("freeze_ms"),
            g.mean("heal_converge_ms"),
            g.mean("dir_converge_ms"),
            g.n("heal_converge_ms")
        )
    };
    let double = o.all.sum("double_leader_instants");
    let unfrozen = o.all.missing("freeze_ms");
    let unconverged = o.all.missing("dir_converge_ms");
    let summary = Json::obj()
        .set("seeds", Json::Num(SEEDS as f64))
        .set("episodes", Json::Num(o.all.runs as f64))
        .set("double_leader_instants", Json::Num(double as f64))
        .set("unfrozen_minorities", Json::Num(unfrozen as f64))
        .set("unconverged_episodes", Json::Num(unconverged as f64));
    let columns = ["freeze_ms", "heal_converge_ms", "dir_converge_ms", "double_leader_instants"];
    Report {
        lines: o.groups.iter().zip(ISLANDS).map(line).collect(),
        sections: vec![("partition", summary), ("episodes", o.rows(0..ISLANDS.len(), &columns))],
        failure: (double > 0 || unfrozen > 0 || unconverged > 0).then(|| {
            format!(
                "{double} double-leader instant(s), {unfrozen} unfrozen minorit(ies), \
                 {unconverged} unconverged episode(s) — split-brain survival regressed"
            )
        }),
    }
}

pub const SWEEP: Sweep =
    Sweep { name: "partition_sweep", file: "BENCH_partition.json", noun: "episodes", plan, report };
