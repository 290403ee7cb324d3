//! Chaos-testing sweep with a JSON report: runs N random fault schedules
//! through `phoenix-chaos`, shrinks any failures, and records schedule /
//! fault / shrink statistics to `results/BENCH_chaos.json`.
//!
//! This is the bench-suite face of the chaos harness: where the `chaos`
//! binary is the interactive explore/replay tool, this bin produces the
//! machine-readable artifact the verify pipeline asserts on.
//!
//! Seeds run through the parallel sweep runner (`phoenix_bench::sweep`):
//! each seeded schedule (plus its shrink, if it fails) is one work item
//! under its own registry shard, merged in seed order, so the report is
//! byte-identical to a `--serial` run.
//!
//! ```text
//! chaos_sweep [--seeds N] [--seed-base S] [--small|--paper] [--serial]
//! ```

use phoenix_bench::sweep::run_sweep;
use phoenix_chaos::{replay_command, run_schedule, shrink, ChaosConfig};
use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::Json;

fn main() {
    let mut seeds = 50u64;
    let mut seed_base = 1u64;
    let mut cfg = ChaosConfig::small();
    let mut shape = "small";
    let mut serial = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => seeds = args.next().and_then(|v| v.parse().ok()).expect("--seeds N"),
            "--seed-base" => {
                seed_base = args.next().and_then(|v| v.parse().ok()).expect("--seed-base S")
            }
            "--small" => {
                cfg = ChaosConfig::small();
                shape = "small";
            }
            "--paper" => {
                cfg = ChaosConfig::paper();
                shape = "paper";
            }
            "--serial" => serial = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    println!(
        "chaos_sweep: {seeds} schedules ({shape} topology {}x{}), seeds {seed_base}..{}",
        cfg.partitions,
        cfg.nodes_per_partition,
        seed_base + seeds - 1
    );

    // One work item per seed: run the schedule and, if it fails, shrink it
    // in the same job (the shrink re-runs are deterministic per seed).
    // Printing happens after the join, in seed order.
    let seed_list: Vec<u64> = (seed_base..seed_base + seeds).collect();
    let cfg_ref = &cfg;
    let outcome = run_sweep(&seed_list, serial, |&seed| {
        let out = run_schedule(seed, cfg_ref, u64::MAX, false);
        let shrunk = out.failed().then(|| shrink(cfg_ref, &out));
        (out, shrunk)
    });
    println!(
        "sweep: {} schedules on {} thread(s), {} ms wall",
        seed_list.len(),
        outcome.threads,
        outcome.wall.as_millis()
    );

    let mut schedules = Vec::new();
    let mut total_faults = 0usize;
    let mut total_steps = 0usize;
    let mut failures = 0u64;
    let mut shrink_runs = 0usize;
    let mut shrunk_steps = 0usize;
    for (&seed, (out, shrunk)) in seed_list.iter().zip(&outcome.results) {
        total_faults += out.faults_injected;
        total_steps += out.applied_steps;
        let mut row = Json::obj()
            .set("seed", Json::Num(seed as f64))
            .set("steps", Json::Num(out.applied_steps as f64))
            .set("faults", Json::Num(out.faults_injected as f64))
            .set("gsd_died", Json::Bool(out.gsd_died))
            .set("quiesced", Json::Bool(out.quiesced))
            .set("virtual_s", Json::Num(out.virtual_ns as f64 / 1e9))
            .set("violations", Json::Num(out.violations.len() as f64));
        if let Some(s) = shrunk {
            failures += 1;
            shrink_runs += s.runs;
            shrunk_steps += s.steps;
            println!(
                "  seed {seed}: FAIL — {} violation(s), shrunk {} -> {} steps in {} runs",
                out.violations.len(),
                out.total_steps,
                s.steps,
                s.runs
            );
            for v in &out.violations {
                println!("    {v}");
            }
            let cmd = replay_command(
                seed,
                s.mask,
                out.total_steps,
                if shape == "small" { "--small" } else { "--paper" },
            );
            println!("    replay: {cmd}");
            row = row
                .set(
                    "violation_details",
                    Json::Arr(
                        out.violations
                            .iter()
                            .map(|v| Json::str(format!("{v}")))
                            .collect(),
                    ),
                )
                .set("shrunk_mask", Json::str(format!("{:#x}", s.mask)))
                .set("shrunk_steps", Json::Num(s.steps as f64))
                .set("shrink_runs", Json::Num(s.runs as f64))
                .set("replay", Json::str(cmd));
        }
        schedules.push(row);
    }

    let summary = Json::obj()
        .set("shape", Json::str(shape))
        .set("schedules_run", Json::Num(seeds as f64))
        .set("steps_applied", Json::Num(total_steps as f64))
        .set("faults_injected", Json::Num(total_faults as f64))
        .set("violating_schedules", Json::Num(failures as f64))
        .set(
            "shrink",
            Json::obj()
                .set("schedules_shrunk", Json::Num(failures as f64))
                .set("total_shrink_runs", Json::Num(shrink_runs as f64))
                .set("minimal_steps_total", Json::Num(shrunk_steps as f64)),
        );

    let mut rep = phoenix_telemetry::BenchReport::new("chaos_sweep");
    rep.section("chaos", summary);
    rep.section("schedules", Json::Arr(schedules));
    let path = rep
        .write_to(&outcome.merged, workspace_root().join("results/BENCH_chaos.json"))
        .expect("write BENCH_chaos.json");
    println!(
        "chaos_sweep done: {}/{} schedules clean, {} faults injected; report: {}",
        seeds - failures,
        seeds,
        total_faults,
        path.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
