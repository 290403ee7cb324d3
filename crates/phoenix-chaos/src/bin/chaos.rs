//! Chaos sweep / replay driver.
//!
//! Sweep mode: run N random fault schedules and check invariants:
//!
//! ```text
//! chaos --seeds 100 --small
//! ```
//!
//! Any violation is shrunk to a minimal schedule and reported with the
//! exact `--replay SEED[:MASK]` command that reproduces it. Replay mode
//! re-runs one schedule verbosely and dumps the telemetry flight recorder:
//!
//! ```text
//! chaos --small --replay 1337:2c
//! ```
//!
//! Exit status is non-zero iff any schedule violated an invariant.

use phoenix_chaos::{
    dump_flight_recorder, full_mask, generate_schedule, parse_replay, replay_command,
    run_schedule, shrink, ChaosConfig,
};
use phoenix_kernel::boot_cluster;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seeds N] [--seed-base S] [--small] [--paper] [--partition] \
         [--quorum] [--slow] [--lossy PERMILLE] [--max-faults K] [--replay SEED[:MASK_HEX]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut seeds = 50u64;
    let mut seed_base = 1u64;
    let mut cfg = ChaosConfig::small();
    let mut mode = String::from("--small");
    let mut lossy: Option<u16> = None;
    let mut replay: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed-base" => {
                seed_base = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--small" => {
                cfg = ChaosConfig::small();
                mode = "--small".into();
            }
            "--paper" => {
                cfg = ChaosConfig::paper();
                mode = "--paper".into();
            }
            "--partition" => {
                cfg = ChaosConfig::small_partition();
                mode = "--partition".into();
            }
            "--quorum" => {
                cfg = ChaosConfig::small_quorum();
                mode = "--quorum".into();
            }
            "--slow" => {
                cfg = ChaosConfig::small_slow();
                mode = "--slow".into();
            }
            "--lossy" => {
                lossy = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--max-faults" => {
                cfg.max_faults =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--replay" => replay = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    // Applied after the parse loop: --small/--paper replace the whole
    // config, so the lossy overlay must win regardless of flag order.
    if let Some(permille) = lossy {
        let max_faults = cfg.max_faults;
        cfg = ChaosConfig::small_lossy(permille);
        cfg.max_faults = max_faults;
        mode = format!("--lossy {permille}");
    }

    if let Some(spec) = replay {
        let (seed, mask) = match parse_replay(&spec) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("chaos: {e}");
                std::process::exit(2);
            }
        };
        std::process::exit(run_replay(seed, mask, &cfg));
    }

    println!(
        "chaos sweep: {seeds} schedules, seeds {seed_base}..{}, topology {}x{} \
         ({} faults max per schedule)",
        seed_base + seeds - 1,
        cfg.partitions,
        cfg.nodes_per_partition,
        cfg.max_faults
    );
    if cfg.net.loss_permille > 0 {
        println!(
            "  unreliable network: {}‰ loss, {}‰ duplication, loss bursts in schedules",
            cfg.net.loss_permille, cfg.net.dup_permille
        );
    }
    let mut failures = 0u64;
    let mut total_faults = 0usize;
    for seed in seed_base..seed_base + seeds {
        // Every schedule's virtual clock restarts at 0: marks left in the
        // thread's registry by earlier schedules would all look recent to
        // the telemetry-leak check.
        phoenix_telemetry::reset();
        let out = run_schedule(seed, &cfg, u64::MAX, false);
        total_faults += out.faults_injected;
        if !out.failed() {
            println!(
                "  seed {seed:>5}: ok   ({} steps, {} faults, settled at {:.1}s virtual)",
                out.applied_steps,
                out.faults_injected,
                out.virtual_ns as f64 / 1e9
            );
            continue;
        }
        failures += 1;
        println!(
            "  seed {seed:>5}: FAIL ({} steps, {} faults) — {} violation(s):",
            out.applied_steps,
            out.faults_injected,
            out.violations.len()
        );
        for v in &out.violations {
            println!("      {v}");
        }
        let s = shrink(&cfg, &out);
        println!(
            "      shrunk {} -> {} steps in {} runs; minimal mask {:#x}",
            out.total_steps, s.steps, s.runs, s.mask
        );
        println!(
            "      replay: {}",
            replay_command(seed, s.mask, out.total_steps, &mode)
        );
    }
    println!(
        "chaos sweep done: {}/{} schedules clean, {} faults injected",
        seeds - failures,
        seeds,
        total_faults
    );
    std::process::exit(if failures > 0 { 1 } else { 0 });
}

fn run_replay(seed: u64, mask: Option<u64>, cfg: &ChaosConfig) -> i32 {
    // Print the schedule first so the operator sees what will be applied.
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), seed);
    let steps = generate_schedule(seed, cfg, &cluster);
    let mask = mask.unwrap_or_else(|| full_mask(steps.len()));
    println!("replay seed {seed} mask {mask:#x} — schedule ({} steps):", steps.len());
    for (i, step) in steps.iter().enumerate() {
        let selected = mask & (1u64 << i) != 0;
        println!("  {} [{i:>2}] {step}", if selected { "*" } else { " " });
    }
    println!("running:");
    // Drop what the schedule-printing boot above recorded.
    phoenix_telemetry::reset();
    let out = run_schedule(seed, cfg, mask, true);
    println!(
        "result: {} steps applied, {} faults, quiesced={}, {:.1}s virtual",
        out.applied_steps,
        out.faults_injected,
        out.quiesced,
        out.virtual_ns as f64 / 1e9
    );
    if out.violations.is_empty() {
        println!("no invariant violations.");
    } else {
        for v in &out.violations {
            println!("VIOLATION {v}");
        }
    }
    println!("flight recorder (most recent spans):");
    dump_flight_recorder(40);
    if out.failed() {
        1
    } else {
        0
    }
}
