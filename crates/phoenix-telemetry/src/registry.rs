//! The metrics registry: counters, gauges, latency histograms, spans, and
//! cross-actor mark/measure pairs.
//!
//! All names are `&'static str` — instrumentation sites use literals, so
//! the registry never allocates for keys and map order (BTreeMap) is the
//! literal's lexicographic order, keeping report output deterministic.
//!
//! Two latency idioms:
//!
//! * **Spans** ([`MetricsRegistry::span_start`]/[`span_end`]) for regions
//!   whose start and end the *same* actor observes — e.g. a GSD membership
//!   scan that begins on one timer event and concludes on a later one.
//!   Closing a span records its virtual-time duration into the `path`
//!   histogram and appends a [`SpanRecord`] to the flight recorder.
//! * **Mark/measure** ([`MetricsRegistry::mark`]/[`measure`]) for
//!   latencies that cross actors — a heartbeat in flight, a federated
//!   query fan-out — where no span id can ride along in the message; the
//!   two sides agree on a `u64` key derived from message fields.
//!
//! [`span_end`]: MetricsRegistry::span_end
//! [`measure`]: MetricsRegistry::measure

use std::collections::BTreeMap;

use crate::clock;
use crate::hist::Histogram;
use crate::recorder::{FlightRecorder, SpanRecord};

/// Opaque span handle. `SpanId::NONE` (0) means "no parent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Clone, Debug)]
struct OpenSpan {
    parent: SpanId,
    path: &'static str,
    service: &'static str,
    node: u32,
    start_ns: u64,
}

/// A histogram plus the service label it was first recorded under.
#[derive(Clone, Debug)]
pub struct PathStats {
    pub service: &'static str,
    pub hist: Histogram,
}

/// TTL for outstanding marks, in virtual nanoseconds. Legitimate
/// cross-actor flights (heartbeats, probes, detect→diagnose episodes) are
/// milliseconds-to-seconds scale even under the paper's 30 s-heartbeat
/// profile, so 120 virtual seconds only ever reaps marks whose measuring
/// message was lost.
pub(crate) const MARK_TTL_NS: u64 = 120_000_000_000;

#[derive(Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, PathStats>,
    marks: BTreeMap<(&'static str, u64), u64>,
    open: BTreeMap<SpanId, OpenSpan>,
    next_span: u64,
    recorder: FlightRecorder,
    last_mark_sweep_ns: u64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            marks: BTreeMap::new(),
            open: BTreeMap::new(),
            next_span: 1,
            recorder: FlightRecorder::default(),
            last_mark_sweep_ns: 0,
        }
    }

    // --- counters / gauges -------------------------------------------------

    pub(crate) fn counter_add(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    pub(crate) fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    // --- histograms --------------------------------------------------------

    /// Record a raw latency observation (nanoseconds) under `path`.
    pub(crate) fn observe(&mut self, path: &'static str, service: &'static str, nanos: u64) {
        self.hists
            .entry(path)
            .or_insert_with(|| PathStats { service, hist: Histogram::new() })
            .hist
            .record(nanos);
    }

    pub fn histogram(&self, path: &str) -> Option<&Histogram> {
        self.hists.get(path).map(|p| &p.hist)
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &PathStats)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    // --- spans -------------------------------------------------------------

    /// Open a span at the current virtual time ([`clock::now`]).
    pub fn span_start(
        &mut self,
        path: &'static str,
        service: &'static str,
        node: u32,
        parent: SpanId,
    ) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.open.insert(id, OpenSpan { parent, path, service, node, start_ns: clock::now() });
        id
    }

    /// Close a span. Unknown ids (double-close, or a span opened before a
    /// `reset`) are ignored.
    pub fn span_end(&mut self, id: SpanId) {
        let Some(span) = self.open.remove(&id) else { return };
        let end_ns = clock::now();
        self.observe(span.path, span.service, end_ns.saturating_sub(span.start_ns));
        self.recorder.push(SpanRecord {
            id,
            parent: span.parent,
            path: span.path,
            service: span.service,
            node: span.node,
            start_ns: span.start_ns,
            end_ns,
            aborted: false,
        });
    }

    /// Abandon a span without recording a latency observation: the region
    /// never completed (its node died mid-flight). The span still lands in
    /// the flight recorder — with `aborted: true` and the abort time as
    /// `end_ns` — so post-mortems can see what was in progress, but the
    /// `path` histogram stays untouched. Unknown ids are ignored.
    pub(crate) fn span_abort(&mut self, id: SpanId) {
        let Some(span) = self.open.remove(&id) else { return };
        self.counter_add("telemetry.spans.aborted", 1);
        self.recorder.push(SpanRecord {
            id,
            parent: span.parent,
            path: span.path,
            service: span.service,
            node: span.node,
            start_ns: span.start_ns,
            end_ns: clock::now(),
            aborted: true,
        });
    }

    /// Abort every open span owned by `node` (chaos killed it). Returns
    /// the number of spans aborted.
    pub fn abort_node_spans(&mut self, node: u32) -> usize {
        // In span-id order (`open` is a `BTreeMap`): the abort order decides
        // how the records land in the flight recorder (same abort timestamp).
        let doomed: Vec<SpanId> =
            self.open.iter().filter(|(_, s)| s.node == node).map(|(&id, _)| id).collect();
        for id in &doomed {
            self.span_abort(*id);
        }
        doomed.len()
    }

    /// Spans opened but not yet closed (leak detector for tests).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    // --- cross-actor mark/measure ------------------------------------------

    /// Stamp the current virtual time under `(path, key)`. A second mark
    /// with the same key overwrites (latest send wins — matches
    /// retransmission semantics).
    ///
    /// Marks whose measuring message was lost would otherwise live
    /// forever, so every `MARK_TTL_NS` of virtual time this lazily sweeps
    /// out entries older than the TTL (see [`expire_marks_older_than`]).
    ///
    /// [`expire_marks_older_than`]: MetricsRegistry::expire_marks_older_than
    pub(crate) fn mark(&mut self, path: &'static str, key: u64) {
        let now = clock::now();
        if now < self.last_mark_sweep_ns {
            // Virtual clock rewound (fresh run on a reused registry).
            self.last_mark_sweep_ns = now;
        } else if now.saturating_sub(self.last_mark_sweep_ns) >= MARK_TTL_NS {
            self.expire_marks_older_than(MARK_TTL_NS);
            self.last_mark_sweep_ns = now;
        }
        self.marks.insert((path, key), now);
    }

    /// Drop every outstanding mark older than `age_ns` (virtual time),
    /// bumping the `telemetry.marks.expired` counter per reaped entry.
    /// Returns how many were expired. Called lazily from [`mark`] with the
    /// TTL; tests and invariant checks may call it directly with a tighter
    /// window.
    ///
    /// [`mark`]: MetricsRegistry::mark
    pub fn expire_marks_older_than(&mut self, age_ns: u64) -> u64 {
        let now = clock::now();
        let cutoff = now.saturating_sub(age_ns);
        let before = self.marks.len();
        self.marks.retain(|_, &mut stamped| stamped >= cutoff);
        let expired = (before - self.marks.len()) as u64;
        if expired > 0 {
            self.counter_add("telemetry.marks.expired", expired);
        }
        expired
    }

    /// Consume the mark for `(path, key)`: records `now - mark` under
    /// `path` and returns the elapsed nanoseconds. `None` if no mark is
    /// outstanding (e.g. the originating message was dropped or the mark
    /// was already measured).
    pub(crate) fn measure(
        &mut self,
        path: &'static str,
        service: &'static str,
        node: u32,
        key: u64,
    ) -> Option<u64> {
        let start = self.marks.remove(&(path, key))?;
        let end = clock::now();
        let elapsed = end.saturating_sub(start);
        self.observe(path, service, elapsed);
        self.recorder.push(SpanRecord {
            id: SpanId(self.next_span),
            parent: SpanId::NONE,
            path,
            service,
            node,
            start_ns: start,
            end_ns: end,
            aborted: false,
        });
        self.next_span += 1;
        Some(elapsed)
    }

    /// Drop an outstanding mark without recording a measurement — the
    /// flight was retracted (e.g. a suspicion cleared mid-probe), not
    /// completed or lost. Returns whether a mark was outstanding.
    pub(crate) fn unmark(&mut self, path: &'static str, key: u64) -> bool {
        self.marks.remove(&(path, key)).is_some()
    }

    /// Marks stamped but never measured (messages still in flight or lost).
    pub fn outstanding_marks(&self) -> usize {
        self.marks.len()
    }

    // --- shard merge -------------------------------------------------------

    /// Merge another registry (a per-thread/per-partition shard) into this
    /// one. Merge order is the caller's contract: merging shards in
    /// ascending shard-id (work-item) order is what makes a sharded run's
    /// report byte-identical to the serial run's. Semantics per family:
    ///
    /// * **counters** — added;
    /// * **gauges** — last write wins: `other`'s value replaces ours for
    ///   shared names (the later shard in merge order is "most recent");
    /// * **histograms** — exact [`Histogram::merge`] (shard-merge == whole
    ///   is pinned by the histogram tests);
    /// * **marks** — union, `other` wins on key collision (same
    ///   latest-send-wins rule as re-marking);
    /// * **open spans** — re-numbered into this registry's id space and
    ///   kept open (shards handed to `merge` at end-of-run normally have
    ///   zero — the leak invariants gate that);
    /// * **flight recorder** — per-node interleave by `start_ns`, then
    ///   re-bounded ([`FlightRecorder::merge`]).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (&name, &v) in &other.counters {
            self.counter_add(name, v);
        }
        for (&name, &v) in &other.gauges {
            self.gauges.insert(name, v);
        }
        for (&path, stats) in &other.hists {
            self.hists
                .entry(path)
                .or_insert_with(|| PathStats { service: stats.service, hist: Histogram::new() })
                .hist
                .merge(&stats.hist);
        }
        for (&key, &stamped) in &other.marks {
            self.marks.insert(key, stamped);
        }
        for span in other.open.values() {
            let id = SpanId(self.next_span);
            self.next_span += 1;
            self.open.insert(id, span.clone());
        }
        self.next_span = self.next_span.max(other.next_span);
        self.recorder.merge(&other.recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_land_in_histogram_and_recorder() {
        let mut r = MetricsRegistry::new();
        clock::set_now(100);
        let root = r.span_start("outer", "gsd", 3, SpanId::NONE);
        clock::set_now(150);
        let child = r.span_start("inner", "gsd", 3, root);
        clock::set_now(180);
        r.span_end(child);
        clock::set_now(300);
        r.span_end(root);

        assert_eq!(r.histogram("inner").unwrap().summary().max_ns, 30);
        assert_eq!(r.histogram("outer").unwrap().summary().max_ns, 200);
        assert_eq!(r.open_spans(), 0);

        let recs: Vec<_> = r.recorder().iter().filter(|s| s.node == 3).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].path, "inner");
        assert_eq!(recs[0].parent, root);
        assert_eq!(recs[1].path, "outer");
        assert_eq!(recs[1].parent, SpanId::NONE);
    }

    #[test]
    fn span_ids_are_sequential_and_double_close_is_ignored() {
        let mut r = MetricsRegistry::new();
        clock::set_now(0);
        let a = r.span_start("p", "s", 0, SpanId::NONE);
        let b = r.span_start("p", "s", 0, SpanId::NONE);
        assert_eq!(b.0, a.0 + 1);
        r.span_end(a);
        r.span_end(a);
        assert_eq!(r.histogram("p").unwrap().count(), 1);
    }

    #[test]
    fn measure_without_mark_is_none() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.measure("p", "s", 0, 9), None);
        r.mark("p", 9);
        assert_eq!(r.outstanding_marks(), 1);
    }

    #[test]
    fn stale_marks_expire_after_ttl() {
        let mut r = MetricsRegistry::new();
        clock::set_now(0);
        r.mark("lost", 1); // its measure will never arrive
        clock::set_now(100);
        r.mark("lost", 2);
        let later = MARK_TTL_NS + 2_000;
        clock::set_now(later); // > last sweep (0) + ttl -> lazy sweep fires
        r.mark("fresh", 3);
        assert_eq!(r.outstanding_marks(), 1, "stale marks reaped, fresh kept");
        assert_eq!(r.counter("telemetry.marks.expired"), 2);
        // The fresh mark is still measurable.
        clock::set_now(later + 50);
        assert_eq!(r.measure("fresh", "s", 0, 3), Some(50));
    }

    #[test]
    fn expire_marks_older_than_is_callable_directly() {
        let mut r = MetricsRegistry::new();
        clock::set_now(0);
        r.mark("a", 1);
        clock::set_now(500);
        r.mark("b", 2);
        clock::set_now(600);
        assert_eq!(r.expire_marks_older_than(200), 1, "only the 600ns-old mark reaped");
        assert_eq!(r.outstanding_marks(), 1);
    }

    #[test]
    fn span_abort_lands_in_recorder_not_histogram() {
        let mut r = MetricsRegistry::new();
        clock::set_now(10);
        let id = r.span_start("doomed", "gsd", 4, SpanId::NONE);
        clock::set_now(90);
        r.span_abort(id);
        assert_eq!(r.open_spans(), 0);
        assert!(r.histogram("doomed").is_none(), "aborted span records no latency");
        let rec: Vec<_> = r.recorder().iter().filter(|s| s.node == 4).collect();
        assert_eq!(rec.len(), 1);
        assert!(rec[0].aborted);
        assert_eq!(rec[0].end_ns, 90);
        assert_eq!(r.counter("telemetry.spans.aborted"), 1);
        r.span_abort(id); // double-abort ignored
        assert_eq!(r.counter("telemetry.spans.aborted"), 1);
    }

    #[test]
    fn abort_node_spans_only_hits_that_node() {
        let mut r = MetricsRegistry::new();
        clock::set_now(0);
        let _a = r.span_start("p", "s", 1, SpanId::NONE);
        let _b = r.span_start("p", "s", 2, SpanId::NONE);
        let _c = r.span_start("p", "s", 1, SpanId::NONE);
        assert_eq!(r.abort_node_spans(1), 2);
        assert_eq!(r.open_spans(), 1, "node 2's span untouched");
    }

    #[test]
    fn merge_counters_gauges_hists_marks() {
        clock::set_now(0);
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 2);
        a.gauge_set("g", 1.0);
        a.observe("h", "s", 100);
        a.mark("m", 7);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.gauge_set("g", 9.0);
        b.observe("h", "s", 300);
        clock::set_now(40);
        b.mark("m", 7); // collides: other's (later) stamp must win

        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(9.0), "gauge: later shard in merge order wins");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().max_ns, 300);
        clock::set_now(100);
        assert_eq!(a.measure("m", "s", 0, 7), Some(60), "other's mark stamp won");
    }

    #[test]
    fn merge_keeps_span_ids_allocatable() {
        clock::set_now(0);
        let mut a = MetricsRegistry::new();
        let _ = a.span_start("p", "s", 0, SpanId::NONE);
        let mut b = MetricsRegistry::new();
        for _ in 0..5 {
            let id = b.span_start("p", "s", 0, SpanId::NONE);
            b.span_end(id);
        }
        a.merge(&b);
        let next = a.span_start("p", "s", 0, SpanId::NONE);
        assert!(next.0 >= 6, "post-merge ids never collide with either shard's");
        assert_eq!(a.open_spans(), 2, "a's open span + the fresh one");
    }
}
