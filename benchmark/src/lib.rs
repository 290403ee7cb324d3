//! The perf ledger: five workloads measured from outside the crates under
//! `crates/`, through their public functions only.
//!
//! Two clocks, always named. *Host* metrics are wall-clock of this process
//! and are noisy; *virtual* metrics and every count come from the seeded
//! simulator and repeat exactly for a seed. See `README.md`.

pub mod common;
pub mod fault_mix;
pub mod probes;
pub mod pws;
pub mod report;
pub mod spec;
pub mod stats;
pub mod steady;
pub mod tracer;

use report::Report;
use spec::Workload;

/// One run of one workload.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds an end-to-end run measures for: it replays the
    /// workload's fixed work until they have passed, twice at least.
    pub seconds: f64,
    /// Traced run: fixed work, per-layer metrics, `trace-<workload>.json`.
    pub trace: bool,
    /// Tiny fixed sizes for the self-tests; `seconds` is ignored.
    pub smoke: bool,
}

/// Run the workload once and check that the report names exactly the
/// metrics the spec lists for this kind of run.
pub fn run(opts: &Opts) -> Report {
    let opts = Opts {
        seconds: if opts.smoke { 0.0 } else { opts.seconds },
        ..opts.clone()
    };
    let mut report = match (opts.workload, opts.trace) {
        (Workload::Steady640 | Workload::Steady2560, false) => steady::run_e2e(&opts),
        (Workload::Steady640 | Workload::Steady2560, true) => steady::run_traced(&opts),
        (Workload::FaultMix, false) => fault_mix::run_e2e(&opts),
        (Workload::FaultMix, true) => fault_mix::run_traced(&opts),
        (Workload::PwsStream136 | Workload::PwsBacklog136, false) => pws::run_e2e(&opts),
        (Workload::PwsStream136 | Workload::PwsBacklog136, true) => pws::run_traced(&opts),
    };
    let want = if opts.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let names_match = report.metrics.len() == want.len()
        && report
            .metrics
            .iter()
            .zip(&want)
            .all(|(m, w)| m.name == w.name && m.unit == w.unit);
    report.check(names_match, || {
        "printed metrics differ from the spec".to_string()
    });
    report
}
