//! Traffic and event accounting.
//!
//! Several of the paper's claims are about *message load* (PBS polling vs
//! PWS event-driven collection, flat vs partitioned membership), so the
//! simulator counts every send, delivery, and drop, bucketed by the
//! message-class label reported by [`Message::label`](crate::Message::label).

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

/// Whole-simulation counters.
#[derive(Debug, Default)]
pub struct Metrics {
    pub by_label: BTreeMap<&'static str, LabelStats>,
    pub total: LabelStats,
    pub(crate) drops_by_reason: BTreeMap<&'static str, u64>,
    pub events_processed: u64,
    pub timers_fired: u64,
    pub spawns: u64,
    pub kills: u64,
}

impl Metrics {
    pub(crate) fn on_send(&mut self, label: &'static str, bytes: usize) {
        let e = self.by_label.entry(label).or_default();
        e.sent += 1;
        e.sent_bytes += bytes as u64;
        self.total.sent += 1;
        self.total.sent_bytes += bytes as u64;
    }

    pub(crate) fn on_deliver(&mut self, label: &'static str, bytes: usize) {
        let e = self.by_label.entry(label).or_default();
        e.delivered += 1;
        e.delivered_bytes += bytes as u64;
        self.total.delivered += 1;
        self.total.delivered_bytes += bytes as u64;
    }

    pub(crate) fn on_drop(&mut self, label: &'static str, reason: DropReason) {
        self.by_label.entry(label).or_default().dropped += 1;
        self.total.dropped += 1;
        let key = match reason {
            DropReason::SenderNicDown => "sender_nic_down",
            DropReason::ReceiverNicDown => "receiver_nic_down",
            DropReason::Partitioned => "partitioned",
            DropReason::NodeDown => "node_down",
            DropReason::DeadProcess => "dead_process",
            DropReason::NoRoute => "no_route",
            DropReason::RandomLoss => "random_loss",
        };
        *self.drops_by_reason.entry(key).or_default() += 1;
    }

    /// Stats for one message class (zero stats if the label never appeared).
    pub fn label(&self, label: &str) -> LabelStats {
        self.by_label.get(label).copied().unwrap_or_default()
    }

    /// Render a compact table of per-label traffic, sorted by label.
    pub fn traffic_table(&self) -> String {
        let mut out = String::from(
            "label                       sent     bytes  delivered   dropped\n",
        );
        for (label, s) in &self.by_label {
            out.push_str(&format!(
                "{label:<24} {sent:>8} {bytes:>9} {del:>10} {drop:>9}\n",
                sent = s.sent,
                bytes = s.sent_bytes,
                del = s.delivered,
                drop = s.dropped,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.on_send("hb", 32);
        m.on_send("hb", 32);
        m.on_deliver("hb", 32);
        m.on_drop("hb", DropReason::NodeDown);
        let s = m.label("hb");
        assert_eq!(s.sent, 2);
        assert_eq!(s.sent_bytes, 64);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(m.total.sent, 2);
        assert_eq!(m.drops_by_reason["node_down"], 1);
        assert_eq!(m.total.sent_bytes, 64);
    }

    #[test]
    fn random_loss_has_its_own_drop_bucket() {
        let mut m = Metrics::default();
        m.on_drop("hb", DropReason::RandomLoss);
        m.on_drop("hb", DropReason::RandomLoss);
        m.on_drop("hb", DropReason::Partitioned);
        assert_eq!(m.drops_by_reason["random_loss"], 2);
        assert_eq!(m.drops_by_reason["partitioned"], 1);
        assert_eq!(m.label("hb").dropped, 3);
    }

    #[test]
    fn unknown_label_is_zero() {
        let m = Metrics::default();
        assert_eq!(m.label("nope"), LabelStats::default());
    }

    #[test]
    fn traffic_table_lists_labels() {
        let mut m = Metrics::default();
        m.on_send("query", 100);
        let table = m.traffic_table();
        assert!(table.contains("query"));
        assert!(table.contains("100"));
    }
}
