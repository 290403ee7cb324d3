//! Per-NIC delivery-health scoring (adaptive multi-NIC routing).
//!
//! The paper's WDs heartbeat over *all* network interfaces so the GSD can
//! tell a NIC failure from a node failure; that redundancy is pure
//! replication. This module turns it into routing: every per-NIC delivery
//! observation the GSD makes (a WD or ring heartbeat that arrived, a
//! sequence gap that says earlier beats on that interface died on the wire)
//! feeds an EWMA health score per interface. Single-path traffic — probes,
//! meta-ring control messages, retried RPCs — then prefers the healthiest
//! interface, so one asymmetric lossy NIC degrades detection gracefully
//! instead of eating every probe.
//!
//! Demotion/promotion is hysteretic: an interface whose score falls below
//! `DEMOTE_BELOW` is demoted (and the GSD publishes `NetworkDegraded`);
//! it is promoted again only once its score recovers past `PROMOTE_ABOVE`
//! *and* it has delivered `PROMOTE_STREAK` consecutive messages — a
//! flapping NIC cannot oscillate the routing preference every beat.
//!
//! Everything here is plain arithmetic on observed traffic: no RNG, no
//! clock, fully deterministic, and completely dormant (no scores, no
//! routing changes) unless the lossy switch is on. The heartbeat acks the
//! GSD sends under the same switch feed nothing here: the WD discards them.

use phoenix_sim::NicId;

/// EWMA smoothing factor: `score = (1-ALPHA)*score + ALPHA*evidence` with
/// evidence 1.0 for a delivery, 0.0 for a miss.
const ALPHA: f64 = 0.2;
/// Demote an interface when its score falls below this.
const DEMOTE_BELOW: f64 = 0.5;
/// A demoted interface must climb back above this to be promoted...
const PROMOTE_ABOVE: f64 = 0.8;
/// ...and must also have this many consecutive clean deliveries.
const PROMOTE_STREAK: u32 = 8;
/// Score gauge per parallel network. The telemetry registry wants
/// `&'static str`; clusters model up to a handful of networks, and every
/// one past the table shares its last name.
const GAUGES: [&str; 4] = [
    "nic.health.nic0",
    "nic.health.nic1",
    "nic.health.nic2",
    "nic.health.nicN",
];

/// The per-NIC health layer's one option. Default: disabled, so the paper
/// pipeline (and every pre-existing seeded trace) is untouched; the kernel
/// derives it from the lossy switch (`FtParams::nic_health`).
#[derive(Clone, Debug, Default)]
pub struct NicHealthParams {
    /// Master switch: when false no scores move and routing falls back to
    /// the default first-healthy-NIC policy. The GSD also sends its
    /// heartbeat acks only when it is on.
    pub(crate) enabled: bool,
}

impl NicHealthParams {
    /// The layer switched on, as `KernelParams::fast_lossy()` runs it.
    pub fn lossy() -> NicHealthParams {
        NicHealthParams { enabled: true }
    }
}

/// A demotion or promotion edge, returned so the owner can publish the
/// matching event exactly once per state change (hysteresis bounds the
/// event volume).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthTransition {
    Demoted(NicId),
    Promoted(NicId),
}

#[derive(Clone, Debug)]
struct NicState {
    score: f64,
    demoted: bool,
    clean_streak: u32,
}

impl NicState {
    fn fresh() -> NicState {
        NicState {
            score: 1.0,
            demoted: false,
            clean_streak: 0,
        }
    }
}

/// EWMA health scores for one node's view of the cluster's parallel
/// networks. Evidence is aggregated across peers: network `i` is shared
/// infrastructure, so a loss spike on any path over it counts against it.
#[derive(Clone, Debug)]
pub struct NicHealth {
    params: NicHealthParams,
    nics: Vec<NicState>,
}

/// Sequence gaps are capped before they count as misses: a huge gap is a
/// restart or a long partition, not that many independent loss events, and
/// must not nuke the score in one observation.
const MAX_MISSES_PER_GAP: u64 = 8;

impl NicHealth {
    pub fn new(params: NicHealthParams, nic_count: usize) -> NicHealth {
        NicHealth {
            params,
            nics: vec![NicState::fresh(); nic_count],
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.params.enabled
    }

    pub(crate) fn nic_count(&self) -> usize {
        self.nics.len()
    }

    /// `(gauge name, score)` per interface; nothing while the layer is off.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let n = if self.params.enabled { self.nics.len() } else { 0 };
        let named = |(i, nic): (usize, &NicState)| (GAUGES[i.min(GAUGES.len() - 1)], nic.score);
        self.nics[..n].iter().enumerate().map(named)
    }

    /// One message observed arriving over `nic`. Returns `Promoted` when
    /// this delivery closes the hysteresis window of a demoted interface.
    pub fn observe_delivery(&mut self, nic: NicId) -> Option<HealthTransition> {
        if !self.params.enabled {
            return None;
        }
        let s = self.nics.get_mut(nic.0 as usize)?;
        // Written as `score += alpha*(1-score)` rather than the textbook
        // `(1-alpha)*score + alpha`: algebraically identical, but exact at
        // the fixed point, so an interface with only clean deliveries stays
        // at precisely 1.0 instead of drifting a few ULPs below it.
        s.score += ALPHA * (1.0 - s.score);
        s.clean_streak = s.clean_streak.saturating_add(1);
        if s.demoted && s.score > PROMOTE_ABOVE && s.clean_streak >= PROMOTE_STREAK {
            s.demoted = false;
            return Some(HealthTransition::Promoted(nic));
        }
        None
    }

    /// `gap` messages inferred lost on `nic` (a sequence jump). Returns
    /// `Demoted` when the score first crosses the demotion threshold.
    pub fn observe_misses(&mut self, nic: NicId, gap: u64) -> Option<HealthTransition> {
        if !self.params.enabled || gap == 0 {
            return None;
        }
        let s = self.nics.get_mut(nic.0 as usize)?;
        for _ in 0..gap.min(MAX_MISSES_PER_GAP) {
            s.score *= 1.0 - ALPHA;
        }
        s.clean_streak = 0;
        if !s.demoted && s.score < DEMOTE_BELOW {
            s.demoted = true;
            return Some(HealthTransition::Demoted(nic));
        }
        None
    }

    /// Interfaces ordered best-first: healthy before demoted, then by
    /// score (descending), ties broken by the lowest index so ordering is
    /// deterministic and the default NIC wins when everything is clean.
    pub(crate) fn ranked(&self) -> Vec<NicId> {
        let mut order: Vec<usize> = (0..self.nics.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.nics[a], &self.nics[b]);
            sa.demoted
                .cmp(&sb.demoted)
                .then(sb.score.total_cmp(&sa.score))
                .then(a.cmp(&b))
        });
        order.into_iter().map(|i| NicId(i as u8)).collect()
    }

    /// The best interface satisfying `usable` (typically "up at both
    /// endpoints"); falls back through the ranking, `None` if nothing
    /// qualifies.
    pub(crate) fn best_where<F: Fn(NicId) -> bool>(&self, usable: F) -> Option<NicId> {
        self.ranked().into_iter().find(|&nic| usable(nic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_health() -> NicHealth {
        NicHealth::new(NicHealthParams::lossy(), 3)
    }

    /// Score of one interface as the owner publishes it (`gauges`).
    fn score(h: &NicHealth, nic: NicId) -> f64 {
        h.gauges().nth(nic.0 as usize).expect("layer enabled").1
    }

    #[test]
    fn disabled_profile_is_inert() {
        let mut h = NicHealth::new(NicHealthParams::default(), 3);
        assert!(!h.enabled());
        for _ in 0..100 {
            assert_eq!(h.observe_misses(NicId(0), 5), None);
        }
        assert_eq!(h.gauges().count(), 0, "a disabled layer publishes nothing");
        assert_eq!(h.ranked(), vec![NicId(0), NicId(1), NicId(2)]);
    }

    #[test]
    fn scores_start_perfect_and_rank_by_index() {
        let h = lossy_health();
        assert_eq!(score(&h, NicId(0)), 1.0);
        assert_eq!(h.ranked(), vec![NicId(0), NicId(1), NicId(2)]);
    }

    #[test]
    fn misses_demote_exactly_once_at_threshold() {
        let mut h = lossy_health();
        // alpha = 0.2: score after n misses = 0.8^n. 0.8^3 = 0.512,
        // 0.8^4 = 0.4096 < 0.5 — the 4th miss crosses the threshold.
        assert_eq!(h.observe_misses(NicId(1), 3), None);
        assert_eq!(
            h.observe_misses(NicId(1), 1),
            Some(HealthTransition::Demoted(NicId(1)))
        );
        // Further misses do not re-announce.
        assert_eq!(h.observe_misses(NicId(1), 2), None);
        // The demoted NIC ranks last even against lower-scored healthy ones.
        assert_eq!(h.ranked(), vec![NicId(0), NicId(2), NicId(1)]);
    }

    #[test]
    fn promotion_needs_score_and_streak() {
        let mut h = lossy_health();
        assert_eq!(
            h.observe_misses(NicId(0), 4),
            Some(HealthTransition::Demoted(NicId(0)))
        );
        // Recover: score climbs back as deliveries arrive, but promotion
        // waits for both the score bar and the clean streak.
        let mut promoted_at = None;
        for i in 1..=20u32 {
            if let Some(HealthTransition::Promoted(n)) = h.observe_delivery(NicId(0)) {
                assert_eq!(n, NicId(0));
                promoted_at = Some(i);
                break;
            }
        }
        let at = promoted_at.expect("clean deliveries must eventually promote");
        assert!(
            at >= PROMOTE_STREAK,
            "promotion before the {PROMOTE_STREAK}-delivery hysteresis window (at {at})"
        );
        assert!(score(&h, NicId(0)) > 0.8);
    }

    #[test]
    fn one_miss_resets_the_promotion_streak() {
        let mut h = lossy_health();
        h.observe_misses(NicId(2), 4);
        for _ in 0..7 {
            assert_eq!(h.observe_delivery(NicId(2)), None);
        }
        // A flap right before the window closes starts the streak over.
        h.observe_misses(NicId(2), 1);
        for _ in 0..7 {
            assert_eq!(h.observe_delivery(NicId(2)), None);
        }
        let mut promoted = false;
        for _ in 0..4 {
            if h.observe_delivery(NicId(2)).is_some() {
                promoted = true;
            }
        }
        assert!(promoted, "a full clean window after the flap promotes");
    }

    #[test]
    fn giant_seq_gaps_are_capped() {
        let mut h = lossy_health();
        h.observe_misses(NicId(0), u64::MAX);
        // Capped at MAX_MISSES_PER_GAP decays, not driven to 0.
        assert!(score(&h, NicId(0)) > 0.9f64.powi(30));
        assert!((score(&h, NicId(0)) - 0.8f64.powi(8)).abs() < 1e-12);
    }

    #[test]
    fn ten_percent_loss_never_demotes() {
        // The acceptance scenario: a 10%-lossy NIC must lose best-NIC
        // preference (score < 1) without being demoted (score stays far
        // above 0.5 in steady state: fixed point of 0.9 delivery share).
        let mut h = lossy_health();
        for i in 0..1000u64 {
            let edge = if i % 10 == 0 {
                h.observe_misses(NicId(0), 1)
            } else {
                h.observe_delivery(NicId(0))
            };
            assert_eq!(edge, None, "no demotion edge at step {i}");
            h.observe_delivery(NicId(1));
        }
        assert!(score(&h, NicId(0)) < score(&h, NicId(1)));
        assert_eq!(h.ranked()[0], NicId(1), "clean NIC preferred");
    }

    #[test]
    fn best_where_respects_feasibility() {
        let mut h = lossy_health();
        h.observe_misses(NicId(0), 4);
        assert_eq!(h.best_where(|_| true), Some(NicId(1)));
        assert_eq!(h.best_where(|n| n.0 == 0), Some(NicId(0)));
        assert_eq!(h.best_where(|_| false), None);
    }
}
