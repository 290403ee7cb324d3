//! `fault_mix`: seeded chaos schedules under the four hardened presets.
//!
//! An operation is one `phoenix_chaos::run_schedule` call: boot a 12–15
//! node world, apply the seed's fault schedule, wait for quiescence, check
//! every invariant, tear down. Operations are independent: the
//! thread-local telemetry registry is reset before each call (the `chaos`
//! binary never resets it, which is where its spurious `telemetry-leak`
//! reports from about seed 100 on come from).
//!
//! `--seed n` picks the schedule seeds: `base..base + per_preset` under
//! each preset, `base = 1 + (n - 1) * per_preset`, so two runs with
//! different seeds share no schedule. A schedule that violates an invariant
//! is a failed operation: counted, reported in `failed_ops_share`, never
//! skipped, and never a reason to stop (README, "Known defects").

use crate::common;
use crate::report::{self, Rep, Report, Slice};
use crate::spec::{Workload, CHAOS_PRESETS};
use crate::stats::{self, Fnv};
use crate::tracer::{self, StepTracer};
use crate::Opts;
use phoenix_bench::ft::{self, Component, FaultKind};
use phoenix_chaos::{run_schedule, ChaosConfig, RunOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

struct Shape {
    /// Schedules per preset in one slice.
    per_slice: usize,
    /// Slices of one replay.
    slices: usize,
    /// Schedules per preset in the traced run.
    traced_per_preset: usize,
    /// Run the nine Table 1–3 injections in the traced run.
    paper_tables: bool,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            per_slice: 1,
            slices: 2,
            traced_per_preset: 2,
            paper_tables: false,
        }
    } else {
        Shape {
            per_slice: 1,
            slices: 100,
            traced_per_preset: 40,
            paper_tables: true,
        }
    }
}

fn presets() -> [ChaosConfig; 4] {
    [
        ChaosConfig::small_lossy(20),
        ChaosConfig::small_partition(),
        ChaosConfig::small_quorum(),
        ChaosConfig::small_slow(),
    ]
}

/// First schedule seed of run seed `seed` when a run covers `per_preset`
/// schedule seeds under each preset.
fn base_seed(seed: u64, per_preset: usize) -> u64 {
    seed.wrapping_sub(1)
        .wrapping_mul(per_preset as u64)
        .wrapping_add(1)
}

/// What one schedule did.
struct Op {
    preset: usize,
    seed: u64,
    host_ns: u64,
    events: u64,
    outcome: RunOutcome,
    takeovers_ns: Vec<u64>,
}

impl Op {
    fn violation_names(&self) -> BTreeSet<String> {
        self.outcome
            .violations
            .iter()
            .map(|v| v.invariant.to_string())
            .collect()
    }

    fn digest(&self, fnv: &mut Fnv) {
        fnv.u64(self.preset as u64);
        fnv.u64(self.seed);
        fnv.u64(self.outcome.virtual_ns);
        fnv.u64(self.events);
        for name in self.violation_names() {
            fnv.str(&name);
        }
    }
}

/// One operation. The telemetry registry holds this schedule only, from
/// the reset until the next call; `totals` accumulates its counters.
fn run_op(
    cfgs: &[ChaosConfig; 4],
    preset: usize,
    seed: u64,
    totals: Option<&mut BTreeMap<&'static str, u64>>,
) -> Op {
    let t = Instant::now();
    phoenix_telemetry::reset();
    let outcome = run_schedule(seed, &cfgs[preset], u64::MAX, false);
    let host_ns = t.elapsed().as_nanos() as u64;
    let events = phoenix_telemetry::with(|r| r.counter("sim.events.dispatched"));
    if let Some(totals) = totals {
        common::harvest_counters(totals);
    }
    Op {
        preset,
        seed,
        host_ns,
        events,
        outcome,
        takeovers_ns: common::takeover_durations_ns(),
    }
}

/// Everything a batch of operations adds up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Schedules with at least one violation.
    failed: u64,
    takeovers_ns: Vec<u64>,
    /// Host ms per schedule, by preset.
    schedule_ms: [Vec<f64>; 4],
    fnv: Fnv,
}

impl Tally {
    fn add(&mut self, op: &Op) {
        self.attempted += 1;
        self.failed += op.outcome.failed() as u64;
        self.takeovers_ns.extend(&op.takeovers_ns);
        self.schedule_ms[op.preset].push(op.host_ns as f64 / 1e6);
        op.digest(&mut self.fnv);
    }
}

/// One replay. Set-up: build the presets and run the first schedule of
/// each once, so lazy initialisation is paid there. Then the fixed slices,
/// preset by preset within each.
fn replay(report: &mut Report, shape: &Shape, seed: u64, first: bool) -> Rep {
    let base = base_seed(seed, shape.per_slice * shape.slices);
    let t = Instant::now();
    let cfgs = presets();
    for p in 0..cfgs.len() {
        run_op(&cfgs, p, base, None);
    }
    let setup_s = t.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut slices = Vec::with_capacity(shape.slices);
    for i in 0..shape.slices {
        let mut s = Slice {
            host_ns: 0,
            events: 0,
            virtual_ns: 0,
            ops: 0,
        };
        for k in 0..shape.per_slice {
            for p in 0..cfgs.len() {
                let schedule = base.wrapping_add((i * shape.per_slice + k) as u64);
                let op = run_op(&cfgs, p, schedule, None);
                s.host_ns += op.host_ns;
                s.events += op.events;
                s.virtual_ns += op.outcome.virtual_ns;
                s.ops += 1;
                tally.add(&op);
            }
        }
        slices.push(s);
    }
    if first {
        tally.takeovers_ns.sort_unstable();
        common::takeover_metrics(report, &tally.takeovers_ns);
    }
    Rep {
        setup_s,
        slices,
        attempted: tally.attempted,
        failed: tally.failed,
        digest: tally.fnv.hex(),
    }
}

pub fn run_e2e(opts: &Opts) -> Report {
    let shape = shape(opts.smoke);
    let mut report = Report::new(Workload::FaultMix, false);
    report::measure(&mut report, opts.seconds, |report, first| {
        replay(report, &shape, opts.seed, first)
    });
    report
}

/// Largest |measured − paper| ÷ paper over the nine Table 1–3 sums
/// (EXPERIMENTS.md), in percent.
fn paper_sum_err_pct_max() -> f64 {
    // Paper sums in seconds; Table 1's process row is its components'
    // 30.29 s (the paper misprints 30.39 s).
    let rows = [
        (Component::Wd, [30.29, 32.0, 30.0]),
        (Component::Gsd, [32.32, 33.25, 30.0]),
        (Component::Es, [30.12, 33.25, 30.0]),
    ];
    let kinds = [FaultKind::Process, FaultKind::Node, FaultKind::Network];
    let mut worst: f64 = 0.0;
    for (component, sums) in rows {
        for (i, (kind, paper)) in kinds.into_iter().zip(sums).enumerate() {
            let (topo, params) = ft::paper_testbed();
            phoenix_telemetry::reset();
            // Same seeds as `ft::run_table`.
            let row = ft::run_one(topo, params, component, kind, 100 + i as u64);
            worst = worst.max((row.sum_s - paper).abs() / paper * 100.0);
        }
    }
    worst
}

pub fn run_traced(opts: &Opts) -> Report {
    let shape = shape(opts.smoke);
    let mut report = Report::new(Workload::FaultMix, true);
    let cfgs = presets();
    // The end-to-end run's schedules, cut at a fixed point.
    let base = base_seed(opts.seed, shape.per_slice * shape.slices);
    let work: Vec<(usize, u64)> = (0..shape.traced_per_preset)
        .flat_map(|k| (0..cfgs.len()).map(move |p| (p, base.wrapping_add(k as u64))))
        .collect();

    // Untraced twin: the same calls, nothing harvested.
    let t = Instant::now();
    let mut plain = Tally::default();
    for &(p, seed) in &work {
        plain.add(&run_op(&cfgs, p, seed, None));
    }
    let plain_ns = t.elapsed().as_nanos() as u64;

    // Traced: one span per call, the registry harvested after each.
    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut counters = BTreeMap::new();
    let mut calls = Vec::new();
    let mut events = 0;
    for &(p, seed) in &work {
        let start = origin.elapsed().as_nanos() as u64;
        let op = run_op(&cfgs, p, seed, Some(&mut counters));
        let end = origin.elapsed().as_nanos() as u64;
        calls.push((
            format!("run_schedule.{}.{seed}", CHAOS_PRESETS[p]),
            start,
            end,
        ));
        events += op.events;
        tally.add(&op);
    }
    let traced_ns = origin.elapsed().as_nanos() as u64;
    report.check(plain.fnv.hex() == tally.fnv.hex(), || {
        "tracing changed the run: twin digests differ".to_string()
    });

    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.failed_ops_share();
    report.metric("chaos.violations", tally.failed as f64, "count");
    for (p, name) in CHAOS_PRESETS.iter().enumerate() {
        report.metric(
            &format!("chaos.{name}.schedule_ms_p50"),
            stats::median(&tally.schedule_ms[p]),
            "ms",
        );
    }
    report.metric("sim.world.events", events as f64, "count");
    tally.takeovers_ns.sort_unstable();
    common::takeover_metrics(&mut report, &tally.takeovers_ns);
    report.metric(
        "trace.overhead_ratio",
        traced_ns as f64 / plain_ns as f64,
        "ratio",
    );
    if shape.paper_tables {
        report.metric("paper_sum_err_pct_max", paper_sum_err_pct_max(), "%");
    }

    // The scheduler replay probe needs a pop stream: record one schedule.
    let recorded = run_schedule(
        work[0].1,
        &ChaosConfig {
            record_streams: true,
            ..cfgs[work[0].0].clone()
        },
        u64::MAX,
        false,
    );
    let stream: Vec<(u64, u64)> = recorded
        .streams
        .map(|s| {
            s.events
                .lines()
                .filter_map(tracer::parse_log_line)
                .map(|l| l.at_seq())
                .collect()
        })
        .unwrap_or_default();
    report.digest = tally.fnv.hex();
    common::finish_traced(
        &mut report,
        opts,
        &StepTracer::default(),
        &calls,
        &counters,
        &stream,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_chaos::Violation;

    fn op(violations: Vec<Violation>) -> Op {
        Op {
            preset: 0,
            seed: 1,
            host_ns: 1,
            events: 1,
            outcome: RunOutcome {
                seed: 1,
                total_steps: 0,
                applied_steps: 0,
                faults_injected: 0,
                gsd_died: false,
                quiesced: true,
                virtual_ns: 1,
                violations,
                streams: None,
            },
            takeovers_ns: Vec::new(),
        }
    }

    /// A schedule with a violation is a failed operation, and its
    /// violations reach the digest.
    #[test]
    fn a_violating_schedule_is_counted_as_failed() {
        let bad = op(vec![Violation {
            invariant: "meta-leader",
            detail: String::new(),
        }]);
        let mut tally = Tally::default();
        tally.add(&op(Vec::new()));
        let clean_digest = tally.fnv.hex();
        tally.add(&bad);
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        let mut clean = Tally::default();
        clean.add(&op(Vec::new()));
        clean.add(&op(Vec::new()));
        assert_ne!(tally.fnv.hex(), clean.fnv.hex());
        assert_ne!(tally.fnv.hex(), clean_digest);
    }

    #[test]
    fn run_seeds_share_no_schedule() {
        assert_eq!(base_seed(1, 100), 1);
        assert_eq!(base_seed(2, 100), 101);
        assert_eq!(base_seed(0, 100), 1u64.wrapping_sub(100));
    }
}
