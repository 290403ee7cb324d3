//! Parallel multi-seed sweep runner with deterministic telemetry merge.
//!
//! The simulator is single-threaded and deterministic; a sweep over seeds
//! (or `(seed, rate)` pairs) is embarrassingly parallel as long as each run
//! owns its own telemetry. This runner gives every work item a fresh
//! registry shard ([`phoenix_telemetry::shard_begin`]) on whatever worker
//! thread picks it up, runs the caller's job, and takes the shard back.
//! After the join the shards are merged **in work-item order** — not
//! completion order — into one [`MetricsRegistry`], which makes the merged
//! report byte-identical to a `--serial` run of the same items:
//!
//! * each job starts from `clock::set_now(0)` + an empty shard, so nothing
//!   about scheduling (which thread, what the previous item was) can leak
//!   into what it records;
//! * `MetricsRegistry::merge` is deterministic given merge order, and the
//!   merge order is the item order in both modes;
//! * wall-clock numbers are returned to the caller but never written into
//!   the report by this module.
//!
//! Worker count: `PHOENIX_SWEEP_THREADS` if set (useful to force real
//! sharding on a single-core CI box, or `1` to serialize without changing
//! code paths), else [`std::thread::available_parallelism`], capped at the
//! item count. `--serial` in the bench bins maps to [`run_sweep`] with
//! `serial: true`, which runs the identical per-item wrapper on the
//! calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use phoenix_telemetry::MetricsRegistry;

/// What a sweep returns: per-item results in item order, the shard-merged
/// registry, and scheduling facts for the caller's stdout (never for the
/// report).
pub struct SweepOutcome<R> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// All shards merged in input order; hand this to `BenchReport`.
    pub merged: MetricsRegistry,
    /// Worker threads actually used (1 for serial).
    pub threads: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
}

/// Arithmetic mean of a sweep's per-run samples; NaN when there are none.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Resolve the worker-thread count for `n_items` parallel jobs.
pub fn thread_count(n_items: usize) -> usize {
    let configured = std::env::var("PHOENIX_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    configured.min(n_items).max(1)
}

/// Run `job` over every item, each under a fresh registry shard with the
/// virtual clock rewound to 0, and merge the shards in item order.
///
/// `serial: true` runs the items on the calling thread (the escape hatch
/// behind the bins' `--serial` flag); otherwise a scoped thread pool pulls
/// items off a shared index. The per-item wrapper is the same closure in
/// both modes, so the only difference between them is scheduling — which
/// the in-order merge erases.
pub fn run_sweep<I, R, F>(items: &[I], serial: bool, job: F) -> SweepOutcome<R>
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

    let threads = if serial { 1 } else { thread_count(items.len()) };
    let mut slots: Vec<Option<(R, MetricsRegistry)>> = Vec::new();
    if serial || threads == 1 {
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
        let serial = run_sweep(&items, true, job);
        // Force real multi-threading even on a 1-core box.
        std::env::set_var("PHOENIX_SWEEP_THREADS", "4");
        let parallel = run_sweep(&items, false, job);
        std::env::remove_var("PHOENIX_SWEEP_THREADS");

        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.threads, 1);
        let rep = |reg: &MetricsRegistry| {
            phoenix_telemetry::BenchReport::new("t").to_json(reg).render()
        };
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
        let out = run_sweep(&[1u64, 2], true, job);
        assert_eq!(out.merged.counter("outer"), 0, "shards start empty");
        phoenix_telemetry::with(|r| {
            assert_eq!(r.counter("outer"), 1, "caller registry restored");
            assert_eq!(r.counter("sweep.jobs"), 0, "sweep data stayed in shards");
        });
    }
}
