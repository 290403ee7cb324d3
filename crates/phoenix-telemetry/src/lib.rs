//! # phoenix-telemetry — cluster-wide observability subsystem
//!
//! The paper evaluates Phoenix almost entirely through timing tables
//! (Tables 1–3) and latency figures (Figs 3–6); this crate is the
//! measurement layer that makes those numbers observable from inside the
//! reproduction rather than mined out of ad-hoc counters.
//!
//! Four pieces:
//!
//! * [`MetricsRegistry`] — counters, gauges, and log-bucketed latency
//!   [`Histogram`]s (mergeable, with p50/p90/p99/max summaries).
//! * **Spans** keyed to the simulator's *virtual* clock ([`clock`]), so a
//!   trace taken from a seeded run is bit-identical across repetitions.
//!   Spans nest (parent/child), carry a service label and belong to the
//!   process whose handler opened them: killing it aborts them. A latency
//!   whose start the ending actor already knows (a message's send instant,
//!   a query's start) is recorded whole with [`flight`]; one that is only a
//!   sample, like a heartbeat's, goes to [`observe`] and leaves no record.
//! * [`FlightRecorder`] — a bounded per-node ring buffer of recently
//!   completed spans and flights for post-mortem dumps after fault
//!   injection: episodes, not steady-state beats.
//! * [`BenchReport`] — serializes a run's registry into
//!   `results/BENCH_kernel.json` with a hand-rolled JSON writer (no serde).
//!
//! The registry is **thread-local**: the simulator is single-threaded and
//! deterministic, and a thread-local global means instrumentation needs no
//! plumbing through actor constructors while parallel `cargo test` threads
//! never observe each other's data.
//!
//! ```
//! phoenix_telemetry::reset();
//! phoenix_telemetry::clock::set_now(1_000);
//! let span = phoenix_telemetry::span_start("gsd.scan", "gsd", 0);
//! phoenix_telemetry::clock::set_now(4_000);
//! phoenix_telemetry::span_end(span);
//! let s = phoenix_telemetry::with(|r| r.histogram("gsd.scan").unwrap().summary());
//! assert_eq!(s.count, 1);
//! assert_eq!(s.max_ns, 3_000);
//! ```

pub mod clock;
pub(crate) mod hist;
mod json;
pub(crate) mod recorder;
pub(crate) mod registry;
pub mod report;

pub use hist::{Histogram, Summary};
pub use json::Json;
pub use recorder::{FlightRecorder, SpanRecord};
pub use registry::{MetricsRegistry, SpanId};
pub use report::BenchReport;

use std::cell::RefCell;

thread_local! {
    static REGISTRY: RefCell<MetricsRegistry> = RefCell::new(MetricsRegistry::new());
}

/// Run `f` against this thread's registry.
pub fn with<R>(f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Drop all recorded data (between experiment runs).
pub fn reset() {
    with(|r| *r = MetricsRegistry::new());
}

/// A registry shard installed over this thread's registry.
///
/// [`shard_begin`] swaps a fresh [`MetricsRegistry`] into the thread-local
/// slot and stashes the previous one; everything instrumented code records
/// through the convenience functions then lands in the shard. [`take`]
/// extracts the shard's registry and restores the previous one. Dropping a
/// shard without `take` also restores — the shard's data is discarded.
/// Shards nest (a shard begun inside a shard restores to the inner one).
///
/// This is what lets each seeded `World` in a parallel sweep own its own
/// registry: every worker thread begins a shard per work item, runs the
/// world, takes the shard, and the runner merges the taken registries in
/// work-item order ([`MetricsRegistry::merge`]).
///
/// [`shard_begin`]: shard_begin
/// [`take`]: RegistryShard::take
#[must_use = "dropping a shard discards everything recorded in it"]
pub struct RegistryShard {
    prev: Option<MetricsRegistry>,
}

impl RegistryShard {
    /// Extract the shard's registry and restore the previous one.
    pub fn take(mut self) -> MetricsRegistry {
        let prev = self.prev.take().expect("shard already taken");
        with(|r| std::mem::replace(r, prev))
    }
}

impl Drop for RegistryShard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            with(|r| *r = prev);
        }
    }
}

/// Install a fresh registry over this thread's slot; see [`RegistryShard`].
pub fn shard_begin() -> RegistryShard {
    let prev = with(|r| std::mem::replace(r, MetricsRegistry::new()));
    RegistryShard { prev: Some(prev) }
}

/// Increment a named counter.
pub fn counter_add(name: &'static str, by: u64) {
    with(|r| r.counter_add(name, by));
}

/// Set a named gauge.
pub fn gauge_set(name: &'static str, value: f64) {
    with(|r| r.gauge_set(name, value));
}

/// Record a latency observation directly (nanoseconds) under `path`: a
/// histogram sample with no flight-recorder record and no span id.
pub fn observe(path: &'static str, service: &'static str, nanos: u64) {
    with(|r| r.observe(path, service, nanos));
}

/// Open a root span at the current virtual time.
pub fn span_start(path: &'static str, service: &'static str, node: u32) -> SpanId {
    with(|r| r.span_start(path, service, node, SpanId::NONE))
}

/// Open a child span nested under `parent`.
pub fn span_child(path: &'static str, service: &'static str, node: u32, parent: SpanId) -> SpanId {
    with(|r| r.span_start(path, service, node, parent))
}

/// Close a span: its duration lands in the `path` histogram and the
/// completed record in the flight recorder.
pub fn span_end(id: SpanId) {
    with(|r| r.span_end(id));
}

/// Record a completed flight from `start_ns` to `end_ns` (virtual
/// nanoseconds), timed by the actor that saw it end: one `path` histogram
/// sample and one flight-recorder record on `node`.
pub fn flight(path: &'static str, service: &'static str, node: u32, start_ns: u64, end_ns: u64) {
    with(|r| r.flight(path, service, node, start_ns, end_ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_isolate_and_restore() {
        reset();
        clock::set_now(0);
        counter_add("outer", 1);

        let shard = shard_begin();
        counter_add("inner", 5);
        with(|r| assert_eq!(r.counter("outer"), 0, "shard starts fresh"));
        let taken = shard.take();
        assert_eq!(taken.counter("inner"), 5);

        with(|r| {
            assert_eq!(r.counter("outer"), 1, "previous registry restored");
            assert_eq!(r.counter("inner"), 0, "shard data not leaked back");
        });

        // Dropping without take restores too, discarding the shard.
        {
            let _shard = shard_begin();
            counter_add("dropped", 9);
        }
        with(|r| {
            assert_eq!(r.counter("outer"), 1);
            assert_eq!(r.counter("dropped"), 0);
        });
    }

    #[test]
    fn shards_nest() {
        reset();
        let a = shard_begin();
        counter_add("a", 1);
        let b = shard_begin();
        counter_add("b", 1);
        let rb = b.take();
        with(|r| assert_eq!(r.counter("a"), 1, "inner take restores outer shard"));
        let ra = a.take();
        assert_eq!(rb.counter("b"), 1);
        assert_eq!(ra.counter("a"), 1);
    }

    #[test]
    fn convenience_api_round_trip() {
        reset();
        clock::set_now(0);
        counter_add("x", 2);
        counter_add("x", 3);
        gauge_set("g", 0.5);
        flight("flight", "svc", 1, 0, 250);
        with(|r| {
            assert_eq!(r.counter("x"), 5);
            assert_eq!(r.gauge("g"), Some(0.5));
            assert_eq!(r.histogram("flight").unwrap().summary().max_ns, 250);
        });
        reset();
        with(|r| assert_eq!(r.counter("x"), 0));
    }
}
