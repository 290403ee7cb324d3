//! Flight recorder: bounded per-node rings of recently completed spans.
//!
//! After a fault-injection run the interesting question is "what was the
//! kernel doing on node N right before/after the fault" — the recorder
//! keeps the last `capacity` completed spans per node and evicts the
//! oldest, black-box style. BTreeMap keyed by node id keeps dump order
//! deterministic.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::registry::SpanId;

/// A completed span as stored in the flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: SpanId,
    /// `SpanId::NONE` for root spans.
    pub parent: SpanId,
    pub path: &'static str,
    pub service: &'static str,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True when the span was abandoned (its node died) rather than
    /// closed by the instrumented code; `end_ns` is the abort time.
    pub aborted: bool,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span with its children, assembled by [`FlightRecorder::span_forest`].
#[derive(Clone, Debug)]
pub(crate) struct SpanNode {
    pub(crate) record: SpanRecord,
    pub(crate) children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first walk (self before children), calling `f(depth, record)`.
    pub(crate) fn walk(&self, f: &mut impl FnMut(usize, &SpanRecord)) {
        self.walk_at(0, f);
    }

    fn walk_at(&self, depth: usize, f: &mut impl FnMut(usize, &SpanRecord)) {
        f(depth, &self.record);
        for child in &self.children {
            child.walk_at(depth + 1, f);
        }
    }
}

#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: BTreeMap<u32, VecDeque<SpanRecord>>,
    evicted: u64,
}

/// Default per-node ring capacity.
pub(crate) const DEFAULT_CAPACITY: usize = 1024;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder { capacity: capacity.max(1), rings: BTreeMap::new(), evicted: 0 }
    }

    /// Total spans evicted across all nodes since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    pub fn push(&mut self, record: SpanRecord) {
        let ring = self.rings.entry(record.node).or_default();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted += 1;
        }
        ring.push_back(record);
    }

    /// All retained spans, grouped by node id ascending, oldest first
    /// within a node.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.rings.values().flatten()
    }

    /// The `n` retained spans that ended last, oldest first: a stable sort
    /// by `end_ns` over [`iter`](Self::iter), so ties keep node order.
    pub fn newest(&self, n: usize) -> Vec<&SpanRecord> {
        let mut all: Vec<&SpanRecord> = self.iter().collect();
        all.sort_by_key(|r| r.end_ns);
        all.split_off(all.len().saturating_sub(n))
    }

    pub fn len(&self) -> usize {
        self.rings.values().map(|r| r.len()).sum()
    }

    /// Merge another recorder's rings into this one. Per node, the union
    /// of both rings is interleaved by `start_ns` (stable: on ties, this
    /// recorder's spans sort before `other`'s) and then re-bounded to
    /// `self.capacity`, evicting from the oldest end exactly as `push`
    /// would have. `other`'s eviction count carries over so the merged
    /// total still answers "how many spans were lost to the ring bound".
    pub(crate) fn merge(&mut self, other: &FlightRecorder) {
        for (&node, ring) in &other.rings {
            let ours = self.rings.entry(node).or_default();
            ours.extend(ring.iter().cloned());
            let mut all: Vec<SpanRecord> = std::mem::take(ours).into();
            all.sort_by_key(|r| r.start_ns);
            let over = all.len().saturating_sub(self.capacity);
            if over > 0 {
                all.drain(..over);
                self.evicted += over as u64;
            }
            *ours = all.into();
        }
        self.evicted += other.evicted;
    }

    /// Assemble the retained spans into parent/child trees.
    ///
    /// Works across node rings: a child recorded on node A nests under a
    /// parent recorded on node B. A span whose parent was evicted from
    /// its ring (or never completed) becomes a root. Roots and sibling
    /// lists are ordered by start time, ties by span id, so the forest
    /// from a seeded run is bit-identical across repetitions.
    pub(crate) fn span_forest(&self) -> Vec<SpanNode> {
        let mut all: Vec<&SpanRecord> = self.iter().collect();
        all.sort_by_key(|r| (r.start_ns, r.id.0));
        let retained: HashSet<u64> = all.iter().map(|r| r.id.0).collect();
        let mut kids: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for r in &all {
            if r.parent != SpanId::NONE && retained.contains(&r.parent.0) {
                kids.entry(r.parent.0).or_default().push(r);
            } else {
                roots.push(r);
            }
        }
        fn build(r: &SpanRecord, kids: &HashMap<u64, Vec<&SpanRecord>>) -> SpanNode {
            let children = kids
                .get(&r.id.0)
                .map(|cs| cs.iter().map(|c| build(c, kids)).collect())
                .unwrap_or_default();
            SpanNode { record: r.clone(), children }
        }
        roots.into_iter().map(|r| build(r, &kids)).collect()
    }

    /// Render a text waterfall of the retained spans overlapping
    /// `[from_ns, to_ns]`: one row per span in tree order, indented by
    /// depth, with a bar on a `width`-character time axis. Closed spans
    /// draw `#`, aborted spans `~` (the region never completed — its node
    /// died mid-flight). The post-mortem view after fault injection:
    /// parentage shows *why* each region was open, the axis shows *when*.
    pub fn waterfall(&self, from_ns: u64, to_ns: u64, width: usize) -> String {
        let width = width.max(8);
        let window = to_ns.saturating_sub(from_ns).max(1);
        let mut rows: Vec<(usize, SpanRecord)> = Vec::new();
        for root in self.span_forest() {
            root.walk(&mut |depth, r| {
                if r.start_ns <= to_ns && r.end_ns >= from_ns {
                    rows.push((depth, r.clone()));
                }
            });
        }
        let label_w = rows
            .iter()
            .map(|(d, r)| 2 * d + r.path.len())
            .max()
            .unwrap_or(0)
            .max(8);
        let mut out = String::new();
        for (depth, r) in rows {
            let label = format!("{}{}", "  ".repeat(depth), r.path);
            let lo = ((r.start_ns.max(from_ns) - from_ns) as u128 * width as u128
                / window as u128) as usize;
            let lo = lo.min(width - 1);
            let hi = ((r.end_ns.min(to_ns) - from_ns) as u128 * width as u128
                / window as u128) as usize;
            let hi = hi.clamp(lo + 1, width);
            let fill = if r.aborted { '~' } else { '#' };
            let mut bar = String::with_capacity(width);
            for i in 0..width {
                bar.push(if i >= lo && i < hi { fill } else { ' ' });
            }
            out.push_str(&format!(
                "{label:<label_w$} {service:<8} n{node:<3} {start:>9.3}s {dur:>9.1}ms |{bar}|\n",
                service = r.service,
                node = r.node,
                start = r.start_ns as f64 / 1e9,
                dur = r.duration_ns() as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, id: u64, start: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId::NONE,
            path: "p",
            service: "s",
            node,
            start_ns: start,
            end_ns: start + 10,
            aborted: false,
        }
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.push(rec(0, i + 1, i * 100));
        }
        let kept: Vec<u64> = fr.iter().map(|r| r.id.0).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        assert_eq!(fr.evicted(), 2);
        assert_eq!(fr.len(), 3);
    }

    #[test]
    fn rings_are_per_node() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.push(rec(1, 1, 0));
        fr.push(rec(2, 2, 0));
        fr.push(rec(1, 3, 50));
        fr.push(rec(1, 4, 90));
        let on = |n: u32| fr.iter().filter(|r| r.node == n).count();
        assert_eq!(on(1), 2, "node 1 ring evicted independently");
        assert_eq!(on(2), 1);
        let all: Vec<u32> = fr.iter().map(|r| r.node).collect();
        assert_eq!(all, vec![1, 1, 2], "dump order: node id ascending");
    }

    #[test]
    fn merge_interleaves_by_start_and_rebounds() {
        let mut a = FlightRecorder::with_capacity(3);
        a.push(rec(7, 1, 100));
        a.push(rec(7, 2, 300));
        let mut b = FlightRecorder::with_capacity(3);
        b.push(rec(7, 3, 200));
        b.push(rec(7, 4, 400));
        b.push(rec(8, 5, 50));
        a.merge(&b);
        // Node 7 union is 4 spans; capacity 3 evicts the oldest (start 100).
        let kept: Vec<u64> = a.iter().filter(|r| r.node == 7).map(|r| r.start_ns).collect();
        assert_eq!(kept, vec![200, 300, 400]);
        assert_eq!(a.iter().filter(|r| r.node == 8).count(), 1);
        assert_eq!(a.evicted(), 1);
    }

    fn child(node: u32, id: u64, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId(parent),
            path: "child",
            service: "s",
            node,
            start_ns: start,
            end_ns: end,
            aborted: false,
        }
    }

    #[test]
    fn forest_nests_children_across_nodes() {
        let mut fr = FlightRecorder::with_capacity(16);
        fr.push(rec(0, 1, 100)); // root on node 0
        fr.push(child(3, 2, 1, 120, 180)); // child recorded on node 3
        fr.push(child(3, 3, 1, 110, 130)); // earlier-starting sibling
        fr.push(child(0, 4, 2, 125, 170)); // grandchild
        fr.push(rec(5, 9, 50)); // unrelated root on node 5
        let forest = fr.span_forest();
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].record.id.0, 9, "roots ordered by start time");
        let root = &forest[1];
        assert_eq!(root.record.id.0, 1);
        let ids: Vec<u64> = root.children.iter().map(|c| c.record.id.0).collect();
        assert_eq!(ids, vec![3, 2], "siblings ordered by start time");
        assert_eq!(root.children[1].children[0].record.id.0, 4);
    }

    #[test]
    fn evicted_parent_promotes_child_to_root() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.push(child(2, 7, 999, 40, 90)); // parent 999 never retained
        let forest = fr.span_forest();
        assert_eq!(forest.len(), 1);
        assert!(forest[0].children.is_empty());
    }

    #[test]
    fn waterfall_renders_indent_and_bars() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.push(SpanRecord {
            id: SpanId(1),
            parent: SpanId::NONE,
            path: "episode",
            service: "gsd",
            node: 0,
            start_ns: 0,
            end_ns: 1_000,
            aborted: false,
        });
        fr.push(SpanRecord {
            id: SpanId(2),
            parent: SpanId(1),
            path: "round",
            service: "gsd",
            node: 0,
            start_ns: 500,
            end_ns: 1_000,
            aborted: true,
        });
        let text = fr.waterfall(0, 1_000, 10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("episode") && lines[0].contains("##########"));
        assert!(lines[1].contains("  round"), "child indented under parent");
        assert!(
            lines[1].contains("~~~~~") && !lines[1].contains('#'),
            "aborted span drawn with ~ starting mid-axis: {}",
            lines[1]
        );
        // Span outside the window is omitted entirely.
        assert!(fr.waterfall(2_000, 3_000, 10).is_empty());
    }

    #[test]
    fn merge_ties_keep_self_before_other() {
        let mut a = FlightRecorder::with_capacity(8);
        a.push(rec(1, 10, 500));
        let mut b = FlightRecorder::with_capacity(8);
        b.push(rec(1, 20, 500));
        a.merge(&b);
        let ids: Vec<u64> = a.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![10, 20], "stable: self's span first on tied start_ns");
    }
}
