//! The message abstraction the simulator routes between actors.
//!
//! The simulator is generic over the payload type so the substrate stays
//! independent of the Phoenix kernel's protocol. A payload only needs to
//! report its wire size (for traffic accounting) and its message class, a
//! row of the type's fixed `LABELS` table (so experiments can break traffic
//! down by class, e.g. heartbeats vs bulletin queries). The world counts
//! traffic in one array row per class, indexed by [`Message::tag`]; the
//! label string is read only when a snapshot or the event log names a row.

/// Payload type routed by the simulated network.
///
/// `Clone` is the fan-out/duplication path: a duplicating link and every
/// multi-recipient broadcast clone the payload, so implementations should
/// keep bulk data behind cheap-to-clone handles (the kernel message type
/// routes broadcast payloads through `Arc`-backed wrappers).
pub trait Message: Clone + std::fmt::Debug + 'static {
    /// The message classes traffic is bucketed by, one row per class.
    const LABELS: &'static [&'static str];

    /// Approximate encoded size in bytes, charged to network counters.
    /// Called once per send on the hot path, so it should be O(1) for the
    /// high-rate shapes — derived from a fixed-size fast path or memoized,
    /// never a per-call walk over bulk payload data.
    fn wire_size(&self) -> usize;

    /// This message's class: its row in [`Message::LABELS`]. A payload
    /// of one class keeps the default.
    fn tag(&self) -> usize {
        0
    }

    /// The name of this message's class.
    fn label(&self) -> &'static str {
        Self::LABELS[self.tag()]
    }
}

/// A trivial payload for tests and micro-examples.
impl Message for u64 {
    const LABELS: &'static [&'static str] = &["u64"];
    fn wire_size(&self) -> usize {
        8
    }
}

impl Message for String {
    const LABELS: &'static [&'static str] = &["string"];
    fn wire_size(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_wire_size() {
        assert_eq!(42u64.wire_size(), 8);
        assert_eq!(42u64.label(), "u64");
    }

    #[test]
    fn string_wire_size_tracks_len() {
        assert_eq!("hello".to_string().wire_size(), 5);
        assert_eq!("hello".to_string().label(), "string");
    }
}
