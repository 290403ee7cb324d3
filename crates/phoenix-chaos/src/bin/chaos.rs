//! Chaos replay driver: re-runs one schedule verbosely and dumps the
//! telemetry flight recorder.
//!
//! ```text
//! chaos --small --replay 1337:2c
//! ```
//!
//! Seeded sweeps are `phoenix-bench`'s `chaos_sweep`; every failing seed it
//! reports comes with the exact `--replay SEED[:MASK]` command for this
//! binary. Exit status is non-zero iff the schedule violated an invariant.

use phoenix_chaos::{flight_recorder_dump, parse_args, run_schedule};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| usage(&e));
    let Some((seed, mask)) = cli.replay else {
        usage("--replay is missing (seeded sweeps are chaos_sweep's)")
    };
    let out = run_schedule(seed, &cli.cfg, mask.unwrap_or(u64::MAX), true);
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
    std::process::exit(out.failed() as i32);
}

fn usage(e: &str) -> ! {
    eprintln!(
        "chaos: {e}\nusage: chaos [--small] [--paper] [--partition] [--quorum] [--slow] \
         [--lossy PERMILLE] --replay SEED[:MASK_HEX]"
    );
    std::process::exit(2);
}
