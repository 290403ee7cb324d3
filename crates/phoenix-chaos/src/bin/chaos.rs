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
    flight_recorder_dump, full_mask, generate_schedule, parse_args, run_schedule, run_seed,
    ChaosConfig,
};
use phoenix_kernel::boot_cluster;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| {
        eprintln!(
            "chaos: {e}\nusage: chaos [--seeds N] [--seed-base S] [--small] [--paper] \
             [--partition] [--quorum] [--slow] [--lossy PERMILLE] [--max-faults K] \
             [--replay SEED[:MASK_HEX]]"
        );
        std::process::exit(2);
    });
    let (seeds, seed_base, cfg) = (cli.seeds, cli.seed_base, &cli.cfg);
    if let Some((seed, mask)) = cli.replay {
        std::process::exit(run_replay(seed, mask, cfg));
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
        // `run_seed` wants a fresh registry per schedule.
        phoenix_telemetry::reset();
        let run = run_seed(seed, cfg, &cli.flag);
        print!("{run}");
        total_faults += run.out.faults_injected;
        failures += run.out.failed() as u64;
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
    println!(
        "replay seed {seed} mask {mask:#x} — schedule ({} steps):",
        steps.len()
    );
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
    print!("{}", flight_recorder_dump(40));
    out.failed() as i32
}
