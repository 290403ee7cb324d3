//! Chaos-testing sweep with a JSON report: runs N random fault schedules
//! through `phoenix-chaos`, shrinks any failures, and records schedule /
//! fault / shrink statistics to `results/BENCH_chaos.json`.
//!
//! This is the one seeded chaos sweep: it prints each failing seed with its
//! shrunk reproducer and the `chaos --replay` command that re-runs it, and
//! writes the machine-readable artifact the verify pipeline asserts on. It
//! takes the `chaos` binary's flags (any preset; not `--replay`).
//!
//! Seeds run through the parallel sweep runner (`phoenix_bench::sweep`):
//! each seeded schedule (plus its shrink, if it fails) is one work item
//! under its own registry shard, merged in seed order, so the report is
//! byte-identical to a run on one worker (`PHOENIX_SWEEP_THREADS=1`).
//!
//! ```text
//! chaos_sweep [--seeds N] [--seed-base S] [--small|--paper|--partition|--quorum|--slow]
//!             [--lossy PERMILLE]
//! ```

use phoenix_bench::sweep::run_sweep;
use phoenix_chaos::{parse_args, run_seed};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).and_then(|cli| match cli.replay {
        Some(_) => Err("--replay is the chaos binary's".to_string()),
        None => Ok(cli),
    });
    let cli = cli.unwrap_or_else(|e| {
        eprintln!("chaos_sweep: {e}");
        std::process::exit(2);
    });
    let (seeds, seed_base, cfg) = (cli.seeds, cli.seed_base, &cli.cfg);
    let shape = cli.flag.trim_start_matches("--");
    println!(
        "chaos_sweep: {seeds} schedules ({shape} topology {}x{}), seeds {seed_base}..{}",
        cfg.partitions,
        cfg.nodes_per_partition,
        seed_base + (seeds - 1)
    );

    // One work item per seed: the schedule and, if it fails, its shrink
    // (the shrink re-runs are deterministic per seed). Printing happens
    // after the join, in seed order.
    let seed_list: Vec<u64> = (seed_base..=seed_base + (seeds - 1)).collect();
    let outcome = run_sweep(&seed_list, |&seed| run_seed(seed, cfg, &cli.flag));
    println!(
        "sweep: {} schedules on {} thread(s), {} ms wall",
        seed_list.len(),
        outcome.threads,
        outcome.wall.as_millis()
    );

    let runs = &outcome.results;
    let failed: Vec<_> = runs.iter().filter_map(|run| run.shrunk.as_ref()).collect();
    for run in runs {
        print!("{run}");
    }
    let total_faults: usize = runs.iter().map(|run| run.out.faults_injected).sum();
    let total_steps: usize = runs.iter().map(|run| run.out.applied_steps).sum();
    let shrink = Json::obj()
        .set("schedules_shrunk", Json::Num(failed.len() as f64))
        .set(
            "total_shrink_runs",
            Json::Num(failed.iter().map(|(s, _)| s.runs).sum::<usize>() as f64),
        )
        .set(
            "minimal_steps_total",
            Json::Num(failed.iter().map(|(s, _)| s.steps).sum::<usize>() as f64),
        );
    let summary = Json::obj()
        .set("shape", Json::str(shape))
        .set("schedules_run", Json::Num(seeds as f64))
        .set("steps_applied", Json::Num(total_steps as f64))
        .set("faults_injected", Json::Num(total_faults as f64))
        .set("violating_schedules", Json::Num(failed.len() as f64))
        .set("shrink", shrink);

    let mut rep = phoenix_telemetry::BenchReport::new("chaos_sweep");
    rep.section("chaos", summary);
    rep.section("schedules", Json::Arr(runs.iter().map(|run| run.json_row()).collect()));
    let path = rep
        .write_to(&outcome.merged, workspace_root().join("results/BENCH_chaos.json"))
        .expect("write BENCH_chaos.json");
    println!(
        "chaos_sweep done: {}/{} schedules clean, {} faults injected; report: {}",
        seeds as usize - failed.len(),
        seeds,
        total_faults,
        path.display()
    );
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
