//! The sweep runner: parallel seeded runs with a deterministic telemetry
//! merge ([`run_sweep`]), and on top of it the whole life of one ablation
//! sweep ([`run`]) — job list, `sweep:` line, per-group folding of what the
//! runs measured, report file, gate verdict. A sweep is a [`Sweep`]: data,
//! and two functions that say what to run and how to word the result. The
//! `sweep` bin runs its table of five.
//!
//! The simulator is single-threaded and deterministic; a sweep over seeds
//! (or `(seed, rate)` pairs) is embarrassingly parallel as long as each run
//! owns its own telemetry. `run_sweep` gives every work item a fresh
//! registry shard ([`phoenix_telemetry::shard_begin`]) on whatever worker
//! thread picks it up, runs the caller's job, and takes the shard back.
//! After the join the shards are merged **in work-item order** — not
//! completion order — into one [`MetricsRegistry`], which makes the merged
//! report byte-identical whatever the worker count:
//!
//! * each job starts from `clock::set_now(0)` + an empty shard, so nothing
//!   about scheduling (which thread, what the previous item was) can leak
//!   into what it records;
//! * `MetricsRegistry::merge` is deterministic given merge order, and the
//!   merge order is the item order;
//! * wall-clock numbers are returned to the caller but never written into
//!   the report by this module.
//!
//! Worker count: `PHOENIX_SWEEP_THREADS` if set (useful to force real
//! sharding on a single-core CI box), else
//! [`std::thread::available_parallelism`], capped at the item count; one
//! worker is `PHOENIX_SWEEP_THREADS=1`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use phoenix_telemetry::report::workspace_root;
use phoenix_telemetry::{BenchReport, Json, MetricsRegistry};

/// What a sweep returns: per-item results in item order, the shard-merged
/// registry, and scheduling facts for the caller's stdout (never for the
/// report).
pub struct SweepOutcome<R> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// All shards merged in input order; hand this to `BenchReport`.
    pub merged: MetricsRegistry,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
}

/// Resolve the worker-thread count for `n_items` parallel jobs.
pub(crate) fn thread_count(n_items: usize) -> usize {
    let configured = std::env::var("PHOENIX_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    configured.min(n_items).max(1)
}

/// Run `job` over every item, each under a fresh registry shard with the
/// virtual clock rewound to 0, and merge the shards in item order. A scoped
/// pool of [`thread_count`] workers pulls items off a shared index; one
/// worker is the calling thread itself. The per-item wrapper is the same
/// closure either way, so the only difference is scheduling — which the
/// in-order merge erases.
pub fn run_sweep<I, R, F>(items: &[I], job: F) -> SweepOutcome<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let start = Instant::now();
    let run_one = |item: &I| -> (R, MetricsRegistry) {
        let shard = phoenix_telemetry::shard_begin();
        phoenix_telemetry::clock::set_now(0);
        let result = job(item);
        (result, shard.take())
    };

    let threads = thread_count(items.len());
    let mut slots: Vec<Option<(R, MetricsRegistry)>> = Vec::new();
    if threads == 1 {
        slots.extend(items.iter().map(|item| Some(run_one(item))));
    } else {
        let cells: Vec<Mutex<Option<(R, MetricsRegistry)>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = run_one(&items[i]);
                    *cells[i].lock().unwrap() = Some(out);
                });
            }
        });
        slots.extend(cells.into_iter().map(|c| c.into_inner().unwrap()));
    }

    let mut merged = MetricsRegistry::new();
    let mut results = Vec::with_capacity(items.len());
    for slot in slots {
        let (result, shard) = slot.expect("sweep worker left an item unfinished");
        merged.merge(&shard);
        results.push(result);
    }
    SweepOutcome { results, merged, threads, wall: start.elapsed() }
}

// ---------------------------------------------------------------------------
// One ablation sweep, plan to verdict
// ---------------------------------------------------------------------------

/// What one seeded run measured, by name: a latency in ms that may never
/// have been reached (`None`), or a count or ratio (always `Some`).
pub type Facts = Vec<(&'static str, Option<f64>)>;

/// One seeded run of a sweep.
pub struct Job {
    /// Which of the sweep's groups (a rate, a split shape, a factor …) this
    /// run's facts fold into.
    pub group: usize,
    pub seed: u64,
    /// The keys that follow `seed` in this run's report row.
    pub labels: Vec<(&'static str, Json)>,
    pub run: Box<dyn Fn(u64) -> Facts + Sync>,
}

/// What a sweep will run: its first stdout line, and its jobs in the order
/// their telemetry merges.
pub struct Plan {
    pub header: String,
    pub jobs: Vec<Job>,
}

/// Facts folded over some runs, in run order: per name, the samples that
/// were reached and how many were not.
#[derive(Default)]
pub struct Fold {
    /// How many runs were folded in.
    pub runs: usize,
    facts: Vec<(&'static str, Vec<f64>, u64)>,
}

impl Fold {
    fn add(&mut self, facts: &Facts) {
        self.runs += 1;
        for &(name, value) in facts {
            let at = self.facts.iter().position(|f| f.0 == name).unwrap_or_else(|| {
                self.facts.push((name, Vec::new(), 0));
                self.facts.len() - 1
            });
            match value {
                Some(x) => self.facts[at].1.push(x),
                None => self.facts[at].2 += 1,
            }
        }
    }

    fn of(&self, name: &str) -> Option<&(&'static str, Vec<f64>, u64)> {
        self.facts.iter().find(|f| f.0 == name)
    }

    /// How many runs reached `name`.
    pub fn n(&self, name: &str) -> usize {
        self.of(name).map_or(0, |f| f.1.len())
    }

    /// How many runs never reached `name`.
    pub fn missing(&self, name: &str) -> u64 {
        self.of(name).map_or(0, |f| f.2)
    }

    /// Mean of the reached samples, summed in run order; NaN when there
    /// are none.
    pub fn mean(&self, name: &str) -> f64 {
        match self.of(name) {
            Some((_, xs, _)) if !xs.is_empty() => xs.iter().sum::<f64>() / xs.len() as f64,
            _ => f64::NAN,
        }
    }

    /// Sum of a count.
    pub fn sum(&self, name: &str) -> u64 {
        self.of(name).map_or(0, |f| f.1.iter().sum::<f64>() as u64)
    }
}

/// Everything the runs measured.
pub struct Outcome {
    /// Per group, in group order; within a group in job order.
    pub groups: Vec<Fold>,
    /// Over every job, in job order.
    pub all: Fold,
    jobs: Vec<Job>,
    facts: Vec<Facts>,
}

impl Outcome {
    /// One report row per run of `groups` — `seed`, the job's labels, then
    /// `columns` (`null` for a latency never reached) — group by group.
    pub fn rows(&self, groups: Range<usize>, columns: &[&str]) -> Json {
        let mut rows = Vec::new();
        for group in groups {
            for (job, facts) in self.jobs.iter().zip(&self.facts) {
                if job.group != group {
                    continue;
                }
                let mut row = Json::obj().set("seed", Json::Num(job.seed as f64));
                for (key, label) in &job.labels {
                    row = row.set(*key, label.clone());
                }
                for &(name, value) in facts.iter().filter(|f| columns.contains(&f.0)) {
                    row = row.set(name, value.map_or(Json::Null, Json::Num));
                }
                rows.push(row);
            }
        }
        Json::Arr(rows)
    }
}

/// How a sweep words its result.
pub struct Report {
    /// Stdout, after the `sweep:` line.
    pub lines: Vec<String>,
    /// The report file's sections, in order.
    pub sections: Vec<(&'static str, Json)>,
    /// Why the sweep fails its gate, if it does.
    pub failure: Option<String>,
}

/// One ablation sweep.
pub struct Sweep {
    /// The report's `name`.
    pub name: &'static str,
    /// Where under `results/` the report goes.
    pub file: &'static str,
    /// What the `sweep:` line counts ("runs", "episodes").
    pub noun: &'static str,
    pub plan: fn() -> Plan,
    pub report: fn(&Outcome) -> Report,
}

/// Run `sweep`: run the plan, print, write `results/<file>`, and return why
/// the sweep fails its gate, if it does.
pub fn run(sweep: &Sweep) -> Option<String> {
    let Plan { header, jobs } = (sweep.plan)();
    println!("{header}");
    let ran = run_sweep(&jobs, |job| (job.run)(job.seed));
    println!(
        "sweep: {} {} on {} thread(s), {} ms wall",
        jobs.len(),
        sweep.noun,
        ran.threads,
        ran.wall.as_millis()
    );

    let groups = jobs.iter().map(|j| j.group + 1).max().unwrap_or(0);
    let mut outcome = Outcome {
        groups: (0..groups).map(|_| Fold::default()).collect(),
        all: Fold::default(),
        jobs,
        facts: ran.results,
    };
    for (job, facts) in outcome.jobs.iter().zip(&outcome.facts) {
        outcome.groups[job.group].add(facts);
        outcome.all.add(facts);
    }
    let report = (sweep.report)(&outcome);
    for line in &report.lines {
        println!("{line}");
    }
    let mut file = BenchReport::new(sweep.name);
    for (key, section) in report.sections {
        file.section(key, section);
    }
    // The merged registry holds every run's telemetry (shards merged in
    // item order), not just the last run's — and is identical however the
    // sweep was scheduled.
    let path = file
        .write_to(&ran.merged, workspace_root().join("results").join(sweep.file))
        .unwrap_or_else(|e| panic!("write {}: {e}", sweep.file));
    println!("report written: {}", path.display());
    report.failure
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(item: &u64) -> u64 {
        phoenix_telemetry::counter_add("sweep.jobs", 1);
        phoenix_telemetry::observe("sweep.latency", "test", item * 100);
        phoenix_telemetry::gauge_set("sweep.last_item", *item as f64);
        *item * 2
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let items: Vec<u64> = (1..=16).collect();
        std::env::set_var("PHOENIX_SWEEP_THREADS", "1");
        let serial = run_sweep(&items, job);
        // Force real multi-threading even on a 1-core box.
        std::env::set_var("PHOENIX_SWEEP_THREADS", "4");
        let parallel = run_sweep(&items, job);
        std::env::remove_var("PHOENIX_SWEEP_THREADS");

        assert_eq!(serial.results, parallel.results);
        assert_eq!((serial.threads, parallel.threads), (1, 4));
        let rep =
            |reg: &MetricsRegistry| phoenix_telemetry::BenchReport::new("t").to_json(reg).render();
        assert_eq!(
            rep(&serial.merged),
            rep(&parallel.merged),
            "merged parallel report must be byte-identical to serial"
        );
        assert_eq!(serial.merged.counter("sweep.jobs"), 16);
        assert_eq!(
            serial.merged.gauge("sweep.last_item"),
            Some(16.0),
            "gauges resolve by item order: last item wins"
        );
    }

    #[test]
    fn jobs_do_not_touch_the_callers_registry() {
        phoenix_telemetry::reset();
        phoenix_telemetry::counter_add("outer", 1);
        let out = run_sweep(&[1u64, 2], job);
        assert_eq!(out.merged.counter("outer"), 0, "shards start empty");
        phoenix_telemetry::with(|r| {
            assert_eq!(r.counter("outer"), 1, "caller registry restored");
            assert_eq!(r.counter("sweep.jobs"), 0, "sweep data stayed in shards");
        });
    }

    #[test]
    fn facts_fold_by_group_and_rows_come_out_group_by_group() {
        let job = |group, seed| Job {
            group,
            seed,
            labels: vec![("shape", Json::str(if group == 0 { "a" } else { "b" }))],
            run: Box::new(|_| Vec::new()),
        };
        let jobs = vec![job(0, 1), job(1, 1), job(0, 2), job(1, 2)];
        let facts: Vec<Facts> = vec![
            vec![("ms", Some(10.0)), ("hits", Some(2.0))],
            vec![("ms", None), ("hits", Some(1.0))],
            vec![("ms", Some(30.0)), ("hits", Some(3.0))],
            vec![("ms", Some(5.0)), ("hits", Some(0.0)), ("extra", Some(1.0))],
        ];
        let mut o = Outcome {
            groups: vec![Fold::default(), Fold::default()],
            all: Fold::default(),
            jobs,
            facts,
        };
        for (job, facts) in o.jobs.iter().zip(&o.facts) {
            o.groups[job.group].add(facts);
            o.all.add(facts);
        }
        assert_eq!(
            (o.groups[0].mean("ms"), o.groups[0].n("ms"), o.groups[0].missing("ms")),
            (20.0, 2, 0)
        );
        assert_eq!(
            (o.groups[1].mean("ms"), o.groups[1].n("ms"), o.groups[1].missing("ms")),
            (5.0, 1, 1)
        );
        assert_eq!((o.all.sum("hits"), o.all.missing("ms"), o.all.n("never")), (6, 1, 0));
        assert!(o.groups[0].mean("never").is_nan());
        let rows = o.rows(0..2, &["ms", "hits"]).render();
        let flat: String = rows.split_whitespace().collect();
        assert_eq!(
            flat,
            r#"[{"seed":1.0,"shape":"a","ms":10.0,"hits":2.0},{"seed":2.0,"shape":"a","ms":30.0,"hits":3.0},{"seed":1.0,"shape":"b","ms":null,"hits":1.0},{"seed":2.0,"shape":"b","ms":5.0,"hits":0.0}]"#
        );
    }
}
