//! The five ablation sweeps, one command. The paper measured fault
//! tolerance on reliable switched Ethernet; each sweep measures what one
//! hardening rung adds beyond it: loss, one lossy NIC, island partitions,
//! weighted quorum and fail-slow nodes. Each module keeps its plan, its
//! report and the episodes only it runs, as a preset of
//! `phoenix_bench::sweep`.
//!
//! The sweeps run in table order, each printing its stdout and writing its
//! `results/` report; a gate failure is printed as it happens and does not
//! stop the sweeps after it. The exit status is 1 when any sweep failed its
//! gate, 2 on any argument.
//!
//! ```text
//! sweep
//! ```

mod loss;
mod nic;
mod partition;
mod quorum;
mod slow;

use phoenix_bench::sweep::{self, Sweep};

const SWEEPS: [Sweep; 5] = [loss::SWEEP, nic::SWEEP, partition::SWEEP, quorum::SWEEP, slow::SWEEP];

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("sweep: unknown argument {arg:?}\nusage: sweep");
        std::process::exit(2);
    }
    let mut failed = Vec::new();
    for s in &SWEEPS {
        if let Some(why) = sweep::run(s) {
            eprintln!("{}: {why}", s.name);
            failed.push(s.name);
        }
    }
    if !failed.is_empty() {
        eprintln!("sweep: {} failed its gate", failed.join(", "));
        std::process::exit(1);
    }
}
