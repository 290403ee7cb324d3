//! The metrics registry: counters, gauges, latency histograms, spans and
//! flights.
//!
//! All names are `&'static str` — instrumentation sites use literals, so
//! the registry never allocates for keys and map order (BTreeMap) is the
//! literal's lexicographic order, keeping report output deterministic.
//!
//! Spans ([`MetricsRegistry::span_start`]/[`span_end`]) are regions whose
//! start and end the *same* actor observes — e.g. a GSD probe session that
//! opens on one timer event and resolves on a later one. Closing a span
//! records its virtual-time duration into the `path` histogram and appends
//! a [`SpanRecord`] to the flight recorder. A span belongs to the process
//! whose handler opened it ([`clock::set_owner`]); killing that process
//! aborts it ([`MetricsRegistry::abort_spans_of`]).
//!
//! A latency that crosses actors — an event forwarded to a peer, a
//! federated query fan-out — is timed whole by the actor that sees it end,
//! from an instant it already holds (the simulator's send stamp, a
//! request's start): [`MetricsRegistry::flight`] records the same sample
//! and record a closed span would. A latency that is only a sample — a
//! heartbeat in flight — is [`observe`](MetricsRegistry::observe)d: the
//! histogram without a record, so the recorder keeps episodes.
//!
//! [`span_end`]: MetricsRegistry::span_end

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
    /// The pid whose handler opened the span, 0 outside any handler.
    owner: u64,
}

/// A histogram plus the service label it was first recorded under.
#[derive(Clone, Debug)]
pub struct PathStats {
    pub service: &'static str,
    pub hist: Histogram,
}

#[derive(Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, PathStats>,
    open: BTreeMap<SpanId, OpenSpan>,
    next_span: u64,
    recorder: FlightRecorder,
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
            open: BTreeMap::new(),
            next_span: 1,
            recorder: FlightRecorder::default(),
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

    /// Open a span at the current virtual time ([`clock::now`]), owned by
    /// the running handler's pid ([`clock::owner`]).
    pub fn span_start(
        &mut self,
        path: &'static str,
        service: &'static str,
        node: u32,
        parent: SpanId,
    ) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let (start_ns, owner) = (clock::now(), clock::owner());
        self.open.insert(id, OpenSpan { parent, path, service, node, start_ns, owner });
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
    /// never completed (its process died mid-flight). The span still lands in
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

    /// Abort every open span owned by the process `pid` (it was killed),
    /// in span-id order: the abort order decides how the records land in
    /// the flight recorder (same abort timestamp). Spans opened outside any
    /// handler have no owner and are never aborted here.
    pub fn abort_spans_of(&mut self, pid: u64) {
        if pid == 0 {
            return;
        }
        let doomed: Vec<SpanId> =
            self.open.iter().filter(|(_, s)| s.owner == pid).map(|(&id, _)| id).collect();
        for id in doomed {
            self.span_abort(id);
        }
    }

    /// Spans opened but not yet closed (leak detector for tests).
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    // --- flights -------------------------------------------------------------

    /// Record a flight that started at `start_ns` and ended at `end_ns`: its
    /// duration under `path`, and a root record on `node`'s ring that takes
    /// the next span id, as a span opened and closed at those instants would.
    pub(crate) fn flight(
        &mut self,
        path: &'static str,
        service: &'static str,
        node: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.observe(path, service, end_ns.saturating_sub(start_ns));
        self.recorder.push(SpanRecord {
            id: SpanId(self.next_span),
            parent: SpanId::NONE,
            path,
            service,
            node,
            start_ns,
            end_ns,
            aborted: false,
        });
        self.next_span += 1;
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
    fn a_flight_lands_one_sample_and_one_record() {
        let mut r = MetricsRegistry::new();
        clock::set_now(0);
        let before = r.span_start("p", "s", 0, SpanId::NONE);
        r.flight("hb", "wd", 5, 1_000, 1_250);
        let h = r.histogram("hb").unwrap().summary();
        assert_eq!((h.count, h.max_ns), (1, 250));
        let recs: Vec<_> = r.recorder().iter().filter(|s| s.node == 5).collect();
        assert_eq!(recs.len(), 1);
        let rec = recs[0];
        assert_eq!((rec.path, rec.service, rec.start_ns, rec.end_ns), ("hb", "wd", 1_000, 1_250));
        assert_eq!((rec.parent, rec.aborted), (SpanId::NONE, false));
        assert_eq!(rec.id.0, before.0 + 1, "numbered like a span");
        assert_eq!(r.span_start("p", "s", 0, SpanId::NONE).0, before.0 + 2);
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
    fn a_kill_aborts_the_spans_its_process_opened() {
        let mut r = MetricsRegistry::new();
        clock::set_now(0);
        clock::set_owner(7);
        let a = r.span_start("p", "s", 1, SpanId::NONE);
        clock::set_owner(8);
        let _b = r.span_start("p", "s", 1, SpanId::NONE);
        clock::set_owner(7);
        let c = r.span_start("p", "s", 2, a);
        clock::set_owner(0);
        let _outside = r.span_start("p", "s", 1, SpanId::NONE);
        r.abort_spans_of(7);
        assert_eq!(r.open_spans(), 2, "pid 8's span and the ownerless one stay");
        let ids: Vec<_> = r.recorder().iter().map(|s| (s.id, s.aborted)).collect();
        assert_eq!(ids, [(a, true), (c, true)], "in id order, across nodes");
        r.abort_spans_of(0);
        assert_eq!(r.open_spans(), 2, "no owner, nothing to abort");
    }

    #[test]
    fn merge_counters_gauges_hists() {
        clock::set_now(0);
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 2);
        a.gauge_set("g", 1.0);
        a.observe("h", "s", 100);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.gauge_set("g", 9.0);
        b.observe("h", "s", 300);

        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(9.0), "gauge: later shard in merge order wins");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().max_ns, 300);
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
