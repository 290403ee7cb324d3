//! Per-peer heartbeat liveness: the one failure-detection state machine.
//!
//! Paper Sec 4.3–4.4 / Tables 1–2. A GSD watches its partition's watch
//! daemons and its ring predecessor by the same rule: the peer heartbeats
//! over every NIC; silence on *some* interfaces is a network fault,
//! silence on *all* of them starts a probe of the node's PPM agent, whose
//! outcome says process-or-node. [`Liveness`] is that rule's state for one
//! peer — per-NIC last-beat instants and sequence numbers, which
//! interfaces are already diagnosed down, whether the node is, and the
//! probe session in flight — and nothing else: no sends, no telemetry, no
//! simulator context. The `Gsd` actor feeds it beats and scan instants and
//! turns the answers into probes, trace records and recovery plans.

use crate::params::FtParams;
use phoenix_proto::PartitionId;
use phoenix_sim::{NicId, NodeId, SimDuration, SimTime};

/// A heartbeat seq at or below the last seen one within this window is a
/// duplicate (network-level duplication or reordering) and is dropped. A
/// backward jump of the window or more means the sender restarted and its
/// counter reset — accept and resynchronize.
const SEQ_RESTART_WINDOW: u64 = 64;

/// Whom a liveness track (and a probe session) is about. Ordered the way
/// the GSD scans: watch daemons by node, then the ring predecessor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Watched {
    /// The watch daemon on a partition node.
    Wd(NodeId),
    /// The ring predecessor: the GSD of this partition.
    Ring(PartitionId),
}

/// What one heartbeat meant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Beat {
    /// Already seen on this NIC (network duplication, or an old reordered
    /// copy): it refreshed nothing and must not count anywhere.
    Duplicate,
    Accepted {
        /// Beats that silently died on this NIC since the previous one —
        /// per-NIC loss evidence. `None` when the track has no slot for
        /// the NIC (it was sized before the observer knew its interfaces):
        /// such a beat is neither deduplicated nor evidence.
        gap: Option<u64>,
        /// First beat since the node was diagnosed down.
        node_recovered: bool,
        /// First beat on this NIC since it was diagnosed down.
        nic_recovered: bool,
    },
}

/// What a scan instant found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Silence {
    None,
    /// These interfaces went silent while another still beats: network
    /// faults. They are now marked down until their next beat.
    Partial(Vec<NicId>),
    /// Every usable interface is silent: process or node failure. The
    /// peer now counts as under probe until [`Liveness::end_probe`].
    Total,
}

/// Consecutive heartbeat intervals of silence (on every NIC) before the
/// lossy profile suspects a peer: a single beat lost to the network never
/// starts a diagnosis.
const LOSSY_SUSPECT_BEATS: u64 = 3;

/// K-of-N suspicion window. Off the lossy switch one missed beat suspects,
/// the paper's single-deadline detector exactly.
pub(crate) fn window(ft: &FtParams) -> SimDuration {
    let beats = if ft.lossy { LOSSY_SUSPECT_BEATS } else { 1 };
    ft.hb_interval * beats + ft.hb_grace
}

/// Has `last` fallen out of the suspicion `window` by `now`?
pub(crate) fn stale(now: SimTime, last: SimTime, window: SimDuration) -> bool {
    now.since(last) > window
}

fn is_dup_seq(last: u64, seq: u64) -> bool {
    seq <= last && last - seq < SEQ_RESTART_WINDOW
}

/// Zero for duplicates, restarts (backward jumps past the window) and
/// absurd forward jumps (a long partition is one fault, not `gap` loss
/// events).
fn seq_gap(last: u64, seq: u64) -> u64 {
    if last == 0 || seq <= last {
        return 0;
    }
    let gap = seq - last - 1;
    if gap >= SEQ_RESTART_WINDOW {
        return 0;
    }
    gap
}

/// Heartbeat state for one watched peer.
#[derive(Debug)]
pub(crate) struct Liveness {
    last: Vec<SimTime>,
    /// Highest heartbeat seq seen per NIC (duplicate suppression).
    last_seq: Vec<u64>,
    nic_down: Vec<bool>,
    down: bool,
    probing: bool,
}

impl Liveness {
    /// A fresh track over `nics` interfaces, every one last heard `now`.
    pub(crate) fn new(nics: usize, now: SimTime) -> Liveness {
        Liveness {
            last: vec![now; nics],
            last_seq: vec![0; nics],
            nic_down: vec![false; nics],
            down: false,
            probing: false,
        }
    }

    /// The observer has counted its interfaces: `nics`. A track opened
    /// before it had — with no slot at all, so with nothing that could
    /// ever fall silent — gets the missing ones, last heard `now`.
    pub(crate) fn size(&mut self, nics: usize, now: SimTime) {
        self.last.resize(nics, now);
        self.last_seq.resize(nics, 0);
        self.nic_down.resize(nics, false);
    }

    /// Ingest one heartbeat. A duplicate changes nothing; anything else
    /// refreshes the NIC and clears the node's and the NIC's down marks.
    pub(crate) fn observe(&mut self, nic: NicId, seq: u64, now: SimTime) -> Beat {
        let i = nic.0 as usize;
        let mut gap = None;
        if let Some(last_seq) = self.last_seq.get_mut(i) {
            if is_dup_seq(*last_seq, seq) {
                return Beat::Duplicate;
            }
            gap = Some(seq_gap(*last_seq, seq));
            *last_seq = seq;
            self.last[i] = now;
        }
        let nic_recovered = gap.is_some() && std::mem::take(&mut self.nic_down[i]);
        Beat::Accepted {
            gap,
            node_recovered: std::mem::take(&mut self.down),
            nic_recovered,
        }
    }

    /// Judge the peer at a scan instant. Interfaces already diagnosed
    /// down, and those `nic_usable` rejects (down on the observer's own
    /// side — introspection owns those), are skipped, not counted silent.
    /// A peer that is down or under probe is left alone.
    pub(crate) fn silence(
        &mut self,
        now: SimTime,
        window: SimDuration,
        nic_usable: impl Fn(NicId) -> bool,
    ) -> Silence {
        if self.down || self.probing {
            return Silence::None;
        }
        let mut silent = Vec::new();
        let mut fresh = false;
        for (i, &last) in self.last.iter().enumerate() {
            let nic = NicId(i as u8);
            if self.nic_down[i] || !nic_usable(nic) {
                continue;
            }
            if stale(now, last, window) {
                silent.push(nic);
            } else {
                fresh = true;
            }
        }
        if silent.is_empty() {
            return Silence::None;
        }
        if !fresh {
            self.probing = true;
            return Silence::Total;
        }
        for nic in &silent {
            self.nic_down[nic.0 as usize] = true;
        }
        Silence::Partial(silent)
    }

    /// Has any interface (usable or not) produced a beat inside the
    /// window? Decides whether a finished probe was a false suspicion.
    pub(crate) fn any_fresh(&self, now: SimTime, window: SimDuration) -> bool {
        self.last.iter().any(|&l| !stale(now, l, window))
    }

    /// Restart every interface's window at `now` (the cadence changed).
    pub(crate) fn rebase(&mut self, now: SimTime) {
        self.last.fill(now);
    }

    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// The probe resolved (or was abandoned): scans judge the peer again,
    /// unless the verdict was `node_down`.
    pub(crate) fn end_probe(&mut self, node_down: bool) {
        self.probing = false;
        self.down |= node_down;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;
    const MS: u64 = 1_000_000;

    fn at(ms: u64) -> SimTime {
        SimTime(ms * MS)
    }

    fn accepted(gap: u64) -> Beat {
        Beat::Accepted {
            gap: Some(gap),
            node_recovered: false,
            nic_recovered: false,
        }
    }

    /// (seq, expected outcome, whether the beat may refresh the NIC's
    /// last-heard instant).
    type Step = (u64, Beat, bool);

    /// One NIC, beats fed in order.
    #[test]
    fn seq_table() {
        let rows: &[(&str, &[Step])] = &[
            (
                "in order: every beat accepted, no gap",
                &[(1, accepted(0), true), (2, accepted(0), true)],
            ),
            (
                "gap equals the number of missed beats",
                &[(1, accepted(0), true), (5, accepted(3), true)],
            ),
            (
                "duplicate dropped without refreshing liveness",
                &[(7, accepted(0), true), (7, Beat::Duplicate, false)],
            ),
            (
                "reordered (older) seq dropped without refreshing liveness",
                &[
                    (9, accepted(0), true),
                    (10, accepted(0), true),
                    (9, Beat::Duplicate, false),
                    (11, accepted(0), true),
                ],
            ),
            (
                "a seq a whole window below is a daemon restart: accepted",
                &[
                    (100, accepted(0), true),
                    (37, Beat::Duplicate, false),
                    (36, accepted(0), true),
                    (37, accepted(0), true),
                ],
            ),
            (
                "a forward jump of a window or more is one fault, not a gap",
                &[
                    (1, accepted(0), true),
                    (65, accepted(63), true),
                    (130, accepted(0), true),
                ],
            ),
            (
                "the first beat ever carries no loss evidence",
                &[(40, accepted(0), true)],
            ),
        ];
        let window = SimDuration::from_millis(1);
        for (name, beats) in rows {
            let mut live = Liveness::new(1, at(0));
            for (step, &(seq, want, refreshes)) in beats.iter().enumerate() {
                let now = at(10 * (step as u64 + 1));
                assert_eq!(live.observe(NicId(0), seq, now), want, "{name}: seq {seq}");
                assert_eq!(
                    live.any_fresh(now, window),
                    refreshes,
                    "{name}: seq {seq} refresh"
                );
            }
        }
    }

    #[test]
    fn suspicion_window_boundary() {
        // (lossy switch, last instant still inside the window)
        for (lossy, edge_ms) in [(false, 1_050u64), (true, 3_050)] {
            let ft = FtParams {
                hb_interval: SimDuration::from_secs(1),
                hb_grace: SimDuration::from_millis(50),
                lossy,
                ..FtParams::default()
            };
            let window = window(&ft);
            let beats = if lossy { 3 } else { 1 };
            assert_eq!(window.as_nanos(), edge_ms * MS, "{beats} beats");
            for (now, want) in [
                (SimTime(edge_ms * MS - 1), Silence::None),
                (SimTime(edge_ms * MS), Silence::None),
                (SimTime(edge_ms * MS + 1), Silence::Total),
            ] {
                let mut live = Liveness::new(2, SimTime::ZERO);
                assert_eq!(live.silence(now, window, |_| true), want, "{beats} beats");
            }
        }
    }

    #[test]
    fn silence_table() {
        let window = SimDuration::from_secs(1);
        let now = SimTime(5 * SEC);
        // (name, which NICs beat just now, which NICs are usable, verdict)
        let rows: &[(&str, [bool; 2], [bool; 2], Silence)] = &[
            ("both beating", [true, true], [true, true], Silence::None),
            (
                "one silent NIC of two",
                [true, false],
                [true, true],
                Silence::Partial(vec![NicId(1)]),
            ),
            ("all silent", [false, false], [true, true], Silence::Total),
            (
                "silent NIC is down on the observer's side: skipped",
                [true, false],
                [true, false],
                Silence::None,
            ),
            (
                "only the unusable NIC still beats: the rest is total",
                [false, true],
                [true, false],
                Silence::Total,
            ),
            (
                "no usable NIC at all",
                [false, false],
                [false, false],
                Silence::None,
            ),
        ];
        for (name, beating, usable, want) in rows {
            let mut live = Liveness::new(2, SimTime::ZERO);
            for nic in (0..2).filter(|&i| beating[i]) {
                live.observe(NicId(nic as u8), 1, now);
            }
            let got = live.silence(now, window, |nic| usable[nic.0 as usize]);
            assert_eq!(&got, want, "{name}");
            // Either verdict is reported once: a partial one marks those
            // NICs down, a total one puts the peer under probe.
            assert_eq!(
                live.silence(now, window, |nic| usable[nic.0 as usize]),
                Silence::None,
                "{name}: second scan"
            );
        }
    }

    #[test]
    fn probed_or_down_peers_are_not_judged() {
        let window = SimDuration::from_secs(1);
        let now = SimTime(5 * SEC);
        let mut live = Liveness::new(1, SimTime::ZERO);
        // Total silence puts the peer under probe: scans skip it.
        assert_eq!(live.silence(now, window, |_| true), Silence::Total);
        assert_eq!(live.silence(now, window, |_| true), Silence::None);
        // Aborted (false suspicion): judged again.
        live.end_probe(false);
        assert_eq!(live.silence(now, window, |_| true), Silence::Total);
        // Node-failure verdict: left alone until it beats again.
        live.end_probe(true);
        assert!(live.is_down());
        assert_eq!(live.silence(now, window, |_| true), Silence::None);
    }

    #[test]
    fn recoveries_fire_exactly_once() {
        let window = SimDuration::from_secs(1);
        let now = SimTime(5 * SEC);
        let mut live = Liveness::new(2, SimTime::ZERO);
        live.observe(NicId(0), 1, now);
        assert_eq!(
            live.silence(now, window, |_| true),
            Silence::Partial(vec![NicId(1)])
        );
        live.end_probe(true);
        let recovered = |node, nic| Beat::Accepted {
            gap: Some(0),
            node_recovered: node,
            nic_recovered: nic,
        };
        // First beat after `down`: the node is back; NIC 0 never was down.
        assert_eq!(live.observe(NicId(0), 2, now), recovered(true, false));
        assert!(!live.is_down());
        // First beat on the NIC diagnosed down: the NIC is back.
        assert_eq!(live.observe(NicId(1), 2, now), recovered(false, true));
        // And neither fires again.
        assert_eq!(live.observe(NicId(0), 3, now), recovered(false, false));
        assert_eq!(live.observe(NicId(1), 3, now), recovered(false, false));
        // A duplicate recovers nothing.
        live.end_probe(true);
        assert_eq!(live.observe(NicId(1), 3, now), Beat::Duplicate);
        assert!(live.is_down());
    }

    #[test]
    fn a_nic_beyond_the_table_is_accepted_without_evidence() {
        // Ring tracks sized before wiring have one slot; a beat on NIC 1
        // is neither deduplicated nor loss/delivery evidence.
        let mut live = Liveness::new(1, SimTime::ZERO);
        let untracked = Beat::Accepted {
            gap: None,
            node_recovered: false,
            nic_recovered: false,
        };
        assert_eq!(live.observe(NicId(1), 5, at(10)), untracked);
        assert_eq!(live.observe(NicId(1), 5, at(20)), untracked);
        assert!(!live.any_fresh(at(2_000), SimDuration::from_secs(1)));
    }

    #[test]
    fn a_watch_opened_before_the_nic_count_is_known_is_judged_once_sized() {
        // A `DirectoryUpdateNode` that overtakes a respawned GSD's wiring
        // opens the node's track over zero interfaces.
        let window = SimDuration::from_secs(1);
        let mut live = Liveness::new(0, SimTime::ZERO);
        assert_eq!(
            live.silence(SimTime(60 * SEC), window, |_| true),
            Silence::None,
            "no slot, nothing to be silent on: never judged"
        );
        // Wiring counts two interfaces at 60 s; the daemon never beats.
        live.size(2, SimTime(60 * SEC));
        assert_eq!(live.silence(SimTime(61 * SEC), window, |_| true), Silence::None);
        assert_eq!(
            live.silence(SimTime(61 * SEC + 1), window, |_| true),
            Silence::Total,
            "one window after wiring"
        );
        // Sized, a beat is evidence like any other; sizing again is a no-op.
        live.end_probe(false);
        assert_eq!(live.observe(NicId(1), 4, SimTime(62 * SEC)), accepted(0));
        live.size(2, SimTime(70 * SEC));
        assert_eq!(
            live.silence(SimTime(63 * SEC), window, |_| true),
            Silence::Partial(vec![NicId(0)])
        );
    }

    #[test]
    fn rebase_restarts_every_window() {
        let window = SimDuration::from_secs(1);
        let mut live = Liveness::new(2, SimTime::ZERO);
        live.rebase(SimTime(10 * SEC));
        assert_eq!(
            live.silence(SimTime(11 * SEC), window, |_| true),
            Silence::None
        );
        assert_eq!(
            live.silence(SimTime(11 * SEC + 1), window, |_| true),
            Silence::Total
        );
    }
}
