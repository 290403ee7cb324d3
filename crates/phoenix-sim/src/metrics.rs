//! Traffic and event accounting.
//!
//! Several of the paper's claims are about *message load* (PBS polling vs
//! PWS event-driven collection, flat vs partitioned membership), so the
//! world counts every send, delivery, and drop — once, in [`Counts`]:
//! arrays indexed by message class ([`Message::tag`]), drop reason and NIC
//! bucket. No map and no thread-local is touched per message. Two views
//! read the table, and [`Counts::publish`] brings both up to date each time
//! the world hands control back to its caller:
//! - [`Metrics`], which `World::metrics` lends out, keyed by class label;
//! - the thread-local telemetry registry's `sim.events.dispatched`,
//!   `sim.queue.depth`, `net.routed.*`, `net.loss.dropped[.nic*]` and
//!   `net.dup.*`.

use crate::ids::NicId;
use crate::message::Message;
use crate::network::DropReason;
use std::collections::BTreeMap;

/// Per-label traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelStats {
    pub sent: u64,
    pub sent_bytes: u64,
    pub delivered: u64,
    pub delivered_bytes: u64,
    pub dropped: u64,
}

/// A snapshot of one world's counters ([`World::metrics`](crate::World::metrics)).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Every message class that has sent at least once.
    pub by_label: BTreeMap<&'static str, LabelStats>,
    pub total: LabelStats,
    pub events_processed: u64,
    pub timers_fired: u64,
    pub spawns: u64,
    pub kills: u64,
}

impl Metrics {
    /// Stats for one message class (zero stats if the label never appeared).
    pub fn label(&self, label: &str) -> LabelStats {
        self.by_label.get(label).copied().unwrap_or_default()
    }
}

/// Registry names of the per-NIC counters, `(routed, lost)` per bucket:
/// the three networks of the Dawning 4000A testbed, then one bucket that
/// any wider NIC id shares.
const NICS: [(&str, &str); 4] = [
    ("net.routed.nic0", "net.loss.dropped.nic0"),
    ("net.routed.nic1", "net.loss.dropped.nic1"),
    ("net.routed.nic2", "net.loss.dropped.nic2"),
    ("net.routed.nicN", "net.loss.dropped.nicN"),
];

/// Counts the telemetry registry has not been given yet.
#[derive(Debug, Default)]
struct Pending {
    events: u64,
    /// Cross-node sends, by the NIC bucket they were routed over.
    routed: [u64; NICS.len()],
    /// Random-loss drops, by NIC bucket.
    lost: [u64; NICS.len()],
    dup_scheduled: u64,
    /// Duplicated copies that reached a live process.
    dup_delivered: u64,
}

/// One world's counters. Each message is counted here once, by index.
#[derive(Debug, Default)]
pub(crate) struct Counts {
    labels: &'static [&'static str],
    by_tag: Vec<LabelStats>,
    /// The rows changed since the last publish, one bit per tag.
    dirty: u64,
    /// The snapshot `World::metrics` lends out: `by_label` is refreshed
    /// from the rows at each publish, every other field counted in place.
    pub(crate) metrics: Metrics,
    /// Drops by `DropReason as usize`.
    pub(crate) drops: [u64; DropReason::RandomLoss as usize + 1],
    pending: Pending,
}

impl Counts {
    /// Zero counts for a message type with these class labels.
    pub(crate) fn new(labels: &'static [&'static str]) -> Self {
        assert!(labels.len() <= 64, "a message type has at most 64 classes");
        Counts { labels, by_tag: vec![LabelStats::default(); labels.len()], ..Counts::default() }
    }

    pub(crate) fn on_event(&mut self) {
        self.metrics.events_processed += 1;
        self.pending.events += 1;
    }

    /// Count a send; returns the message's class and wire size.
    pub(crate) fn on_send<M: Message>(&mut self, msg: &M) -> (usize, usize) {
        let (tag, bytes) = (msg.tag(), msg.wire_size());
        for s in [&mut self.by_tag[tag], &mut self.metrics.total] {
            s.sent += 1;
            s.sent_bytes += bytes as u64;
        }
        self.dirty |= 1 << tag;
        (tag, bytes)
    }

    /// A delivery to a live process; `dup` marks a duplicating link's copy.
    pub(crate) fn on_deliver(&mut self, tag: usize, bytes: usize, dup: bool) {
        for s in [&mut self.by_tag[tag], &mut self.metrics.total] {
            s.delivered += 1;
            s.delivered_bytes += bytes as u64;
        }
        self.dirty |= 1 << tag;
        self.pending.dup_delivered += u64::from(dup);
    }

    pub(crate) fn on_drop(&mut self, tag: usize, reason: DropReason) {
        self.by_tag[tag].dropped += 1;
        self.metrics.total.dropped += 1;
        self.dirty |= 1 << tag;
        self.drops[reason as usize] += 1;
    }

    /// A cross-node send routed over `nic`; `lost` when the unreliability
    /// model dropped it there.
    pub(crate) fn on_routed(&mut self, tag: usize, nic: NicId, lost: bool) {
        let bucket = usize::from(nic.0).min(NICS.len() - 1);
        self.pending.routed[bucket] += 1;
        if lost {
            self.on_drop(tag, DropReason::RandomLoss);
            self.pending.lost[bucket] += 1;
        }
    }

    pub(crate) fn on_dup_scheduled(&mut self) {
        self.pending.dup_scheduled += 1;
    }

    /// Bring both views up to date with what this world counted since the
    /// last call: copy each changed row into `metrics.by_label` (a row
    /// changes first by a send, so the map holds exactly the classes that
    /// sent), and hand the thread-local telemetry registry the counter
    /// deltas (a counter that did not move is not written), setting
    /// `sim.queue.depth` when events ran. The only place the simulator
    /// writes counters or gauges: the world calls it wherever control
    /// returns to its caller, so both views are current whenever a test,
    /// bench, sweep or console reads them. No handler reads either.
    pub(crate) fn publish(&mut self, queue_depth: usize) {
        while self.dirty != 0 {
            let tag = self.dirty.trailing_zeros() as usize;
            self.dirty &= self.dirty - 1;
            self.metrics.by_label.insert(self.labels[tag], self.by_tag[tag]);
        }
        let p = std::mem::take(&mut self.pending);
        let add = |name: &'static str, by: u64| {
            if by > 0 {
                phoenix_telemetry::counter_add(name, by);
            }
        };
        add("sim.events.dispatched", p.events);
        if p.events > 0 {
            phoenix_telemetry::gauge_set("sim.queue.depth", queue_depth as f64);
        }
        for (b, &(routed, lost)) in NICS.iter().enumerate() {
            add(routed, p.routed[b]);
            add(lost, p.lost[b]);
        }
        add("net.loss.dropped", p.lost.iter().sum());
        add("net.dup.scheduled", p.dup_scheduled);
        add("net.dup.delivered", p.dup_delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: &[&str] = &["hb", "query", "never"];

    /// A message of class `.0` and wire size `.1`.
    #[derive(Clone, Debug)]
    struct Msg(usize, usize);
    impl Message for Msg {
        const LABELS: &'static [&'static str] = LABELS;
        fn wire_size(&self) -> usize {
            self.1
        }
        fn tag(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counts::new(LABELS);
        c.on_send(&Msg(0, 32));
        c.on_send(&Msg(0, 32));
        c.on_deliver(0, 32, false);
        c.on_drop(0, DropReason::NodeDown);
        c.publish(0);
        let m = &c.metrics;
        let s = m.label("hb");
        assert_eq!(s.sent, 2);
        assert_eq!(s.sent_bytes, 64);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(m.total.sent, 2);
        assert_eq!(c.drops[DropReason::NodeDown as usize], 1);
        assert_eq!(m.total.sent_bytes, 64);
    }

    #[test]
    fn random_loss_has_its_own_drop_bucket() {
        let mut c = Counts::new(LABELS);
        c.on_send(&Msg(0, 8));
        c.on_routed(0, NicId(0), true);
        c.on_routed(0, NicId(1), false);
        c.on_routed(0, NicId(7), true);
        c.on_drop(0, DropReason::Partitioned);
        assert_eq!(c.drops[DropReason::RandomLoss as usize], 2);
        assert_eq!(c.drops[DropReason::Partitioned as usize], 1);
        assert_eq!(c.pending.routed, [1, 1, 0, 1]);
        assert_eq!(c.pending.lost, [1, 0, 0, 1], "NIC 7 shares the last bucket");
        c.publish(0);
        assert_eq!(c.metrics.label("hb").dropped, 3);
    }

    #[test]
    fn a_snapshot_holds_the_classes_that_sent() {
        let mut c = Counts::new(LABELS);
        c.on_send(&Msg(1, 100));
        c.publish(0);
        c.on_send(&Msg(0, 8));
        let keys = |c: &Counts| c.metrics.by_label.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(&c), ["query"], "as of the last publish");
        assert_eq!(c.metrics.label("query").sent_bytes, 100);
        c.publish(0);
        assert_eq!(keys(&c), ["hb", "query"]);
    }

    #[test]
    fn unknown_label_is_zero() {
        let mut c = Counts::new(LABELS);
        c.publish(0);
        let m = &c.metrics;
        assert_eq!(m.label("nope"), LabelStats::default());
        assert_eq!(m.label("hb"), LabelStats::default(), "a class that never sent");
    }

    #[test]
    fn publish_writes_deltas_and_skips_what_did_not_move() {
        phoenix_telemetry::reset();
        let mut c = Counts::new(LABELS);
        c.on_routed(0, NicId(1), false);
        c.publish(5);
        c.publish(5);
        c.on_event();
        c.on_routed(0, NicId(1), false);
        c.on_dup_scheduled();
        c.publish(3);
        phoenix_telemetry::with(|r| {
            assert_eq!(r.counter("net.routed.nic1"), 2);
            assert_eq!(r.counter("sim.events.dispatched"), 1);
            assert_eq!(r.counter("net.dup.scheduled"), 1);
            assert_eq!(r.gauge("sim.queue.depth"), Some(3.0));
            let names: Vec<_> = r.counters().map(|(name, _)| name).collect();
            assert_eq!(names, ["net.dup.scheduled", "net.routed.nic1", "sim.events.dispatched"]);
        });
    }
}
