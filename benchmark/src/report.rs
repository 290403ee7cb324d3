//! What one run of one workload reports, and how it is printed.

use crate::spec::{self, Clock, Workload};
use crate::stats;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Result of one run. `metrics` are the contract's JSON metrics (every
/// end-to-end metric, or every per-layer metric for a traced run);
/// `extras` are exact counts printed as lines only.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// A traced run: its exact outputs are per-layer metrics.
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extras: Vec<Metric>,
    /// Figures that depend on the host's speed, printed as lines only
    /// (they do not repeat).
    pub host_extras: Vec<Metric>,
    /// FNV-1a over the workload's exact outputs.
    pub digest: String,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, traced: bool) -> Report {
        Report {
            workload: workload.name(),
            traced,
            ..Report::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// An exact, virtual-clock output that the spec lists per layer: a
    /// metric of a traced run, a printed line of an end-to-end run.
    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.traced {
            self.metric(name, value, unit);
        } else {
            self.extra(name, value, unit);
        }
    }

    /// `failed ÷ attempted`, once both are final.
    pub fn failed_ops_share(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.exact("failed_ops_share", share, "ratio");
    }

    pub fn host_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.host_extras.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extras)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fill every per-layer metric the run did not set with 0 (layer not
    /// run, or not visible from outside, on this workload), order the
    /// metrics as the spec lists them, and check nothing else was set.
    pub fn finish_per_layer(&mut self) {
        let set = std::mem::take(&mut self.metrics);
        for m in spec::per_layer() {
            let value = set
                .iter()
                .find(|s| s.name == m.name)
                .map_or(0.0, |s| s.value);
            self.metric(&m.name, value, m.unit);
        }
        for s in &set {
            let known = self.metrics.iter().any(|m| m.name == s.name);
            self.check(known, || format!("metric {} is not in the spec", s.name));
        }
    }

    /// Every line of the report with its clock: the spec's for a metric,
    /// `exact` for the counts printed beside them.
    fn lines(&self) -> Vec<(&Metric, Clock)> {
        let specs: Vec<_> = spec::end_to_end()
            .into_iter()
            .chain(spec::per_layer())
            .collect();
        let clock_of = |m: &Metric| {
            specs
                .iter()
                .find(|s| s.name == m.name)
                .map_or(Clock::Host, |s| s.clock)
        };
        let metrics = self.metrics.iter().map(|m| (m, clock_of(m)));
        let host = self.host_extras.iter().map(|m| (m, Clock::Host));
        let exact = self.extras.iter().map(|m| (m, Clock::Exact));
        metrics.chain(host).chain(exact).collect()
    }

    /// The exact part of a report: counts, virtual-clock metrics, digest.
    /// Two runs of one seed must agree on it.
    pub fn exact_outputs(&self) -> (Vec<Metric>, String) {
        let exact = self
            .lines()
            .into_iter()
            .filter(|(_, clock)| *clock == Clock::Exact)
            .map(|(m, _)| m.clone())
            .collect();
        (exact, self.digest.clone())
    }

    /// `workload name value unit clock` lines, then the contract's JSON
    /// object as the last line.
    pub fn print(&self) {
        for (m, clock) in self.lines() {
            println!(
                "{} {} {} {} {}",
                self.workload,
                m.name,
                m.value,
                m.unit,
                clock.as_str()
            );
        }
        println!("{} sim_digest {} - exact", self.workload, self.digest);
        for p in &self.problems {
            println!("{} CHECK-FAILED {p}", self.workload);
        }
        println!("{}", self.json_line());
    }

    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One timed slice of fixed work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slice {
    pub host_ns: u64,
    pub events: u64,
    pub virtual_ns: u64,
    pub ops: u64,
}

/// One replay of a workload's fixed work: a timed set-up, then the slices.
/// Every replay of a seed does the same work, slice for slice.
#[derive(Clone, Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the replay's exact outputs.
    pub digest: String,
}

impl Rep {
    /// What every replay of a seed must agree on.
    fn exact(&self) -> (u64, u64, &str, Vec<(u64, u64, u64)>) {
        let work = self
            .slices
            .iter()
            .map(|s| (s.events, s.virtual_ns, s.ops))
            .collect();
        (self.attempted, self.failed, &self.digest, work)
    }
}

/// Fewest replays in a run: the second is the in-process replay that the
/// first one's exact outputs are checked against.
const MIN_REPS: usize = 2;

/// An end-to-end run: replay the workload's fixed work until `seconds` of
/// host time have passed, check that the replays agree exactly, and close
/// the report with the end-to-end metrics. `rep` gets `true` on the first
/// replay, which also reports the exact outputs and runs the untimed
/// closing checks.
///
/// A host rate is the work of one replay over the sum, slice by slice, of
/// the least host time that slice took in any replay, and `setup_s` is the
/// fastest set-up. Every sample of a slice index is identical work and
/// interference from the shared host only ever adds time, so the fastest
/// sample is the one closest to what the code costs; on this box it
/// repeats two to three times better than the median sample (README,
/// "Noise calibration"), which is printed beside it as
/// `<metric>_median_replay`.
pub fn measure(report: &mut Report, seconds: f64, mut rep: impl FnMut(&mut Report, bool) -> Rep) {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let r = rep(report, reps.is_empty());
        if let Some(first) = reps.first() {
            report.check(first.exact() == r.exact(), || {
                format!(
                    "replay {} differs from the first: digest {} vs {}",
                    reps.len() + 1,
                    r.digest,
                    first.digest
                )
            });
        }
        reps.push(r);
    }
    let first = &reps[0];
    report.digest = first.digest.clone();
    // The operations of ONE replay: the others re-measure the same
    // operations (checked equal above), so the counts depend on the seed
    // alone, never on how many replays the host fitted into `seconds`.
    report.attempted = first.attempted;
    report.failed = first.failed;

    // Host ns of one replay, each slice at its fastest or its median.
    let replay_ns = |pick: fn(&[f64]) -> f64| -> f64 {
        (0..first.slices.len())
            .map(|i| {
                let samples: Vec<f64> = reps
                    .iter()
                    .filter_map(|r| r.slices.get(i))
                    .map(|s| s.host_ns as f64)
                    .collect();
                pick(&samples)
            })
            .sum()
    };
    let fastest_ns = replay_ns(|v| v.iter().copied().fold(f64::INFINITY, f64::min));
    let median_ns = replay_ns(stats::median);
    let sum = |f: fn(&Slice) -> u64| first.slices.iter().map(f).sum::<u64>() as f64;
    let (events, virtual_ns, ops) = (sum(|s| s.events), sum(|s| s.virtual_ns), sum(|s| s.ops));
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();

    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric("setup_s", fastest_setup, "s");
    report.metric("events_per_s", events * 1e9 / fastest_ns, "1/s");
    report.metric("wall_ms_per_virtual_s", fastest_ns * 1e3 / virtual_ns, "ms");
    report.metric("ops_per_s", ops * 1e9 / fastest_ns, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.host_extra("setup_s_median_replay", stats::median(&setups), "s");
    report.host_extra(
        "events_per_s_median_replay",
        events * 1e9 / median_ns,
        "1/s",
    );
    report.host_extra(
        "wall_ms_per_virtual_s_median_replay",
        median_ns * 1e3 / virtual_ns,
        "ms",
    );
    report.host_extra("ops_per_s_median_replay", ops * 1e9 / median_ns, "1/s");
    report.host_extra("replays", reps.len() as f64, "count");
    report.failed_ops_share();
    report.extra("slices_per_replay", first.slices.len() as f64, "count");
    report.extra("events_per_replay", events, "count");
    report.extra("virtual_s_per_replay", virtual_ns / 1e9, "s");
    report.extra("ops_per_replay", ops, "count");
}

/// `VmHWM` of this process in MB; 0 where /proc is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
