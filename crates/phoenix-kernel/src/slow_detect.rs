//! Fail-slow (gray-failure) detection: per-peer RTT scoring.
//!
//! The FT pipeline the paper describes (detect → diagnose → recover,
//! Sec 5.1–5.3) is fail-stop: a node is either answering or dead. Real
//! clusters mostly degrade before they die — slow disks, half-broken
//! switches, thermal throttling — and a detector keyed only to liveness
//! either misses the degradation or, far worse, declares a late-but-alive
//! node dead. This module is the third verdict between those poles:
//! **Healthy / Slow / Dead**, with "slow ≠ down" mirroring the NIC
//! layer's "degraded ≠ down" (`nic_health`).
//!
//! Evidence is round-trip latency per peer *node*: fail-slow pings on the
//! heartbeat cadence plus the probe RTTs the suspicion pipeline already
//! measures. Each peer keeps an RFC-6298-style pair of smoothed estimates
//! (EWMA mean + EWMA absolute deviation) over a frozen-floor baseline
//! (the minimum RTT ever observed — slowness inflates samples, so the
//! floor stays honest). A peer reads *over* when its smoothed RTT exceeds
//! `max(SLOW_AFTER × base, base + DEV_GATE × dev)` — the deviation term
//! keeps a naturally jittery link from being flagged. Hysteresis on both
//! edges: `SLOW_STREAK` consecutive over-samples to quarantine,
//! `CLEAN_WINDOWS` consecutive clean samples to reinstate, so a single
//! stall cannot flap a peer's eligibility.
//!
//! The verdict never kills: a Slow peer loses leadership / meta-ring
//! eligibility and new-service placement (the owner enforces that), but
//! only the existing fail-stop diagnosis — probes, home-node testimony,
//! the takeover licence — may declare Dead, and the owner uses a Slow
//! verdict as one more veto against doing so.
//!
//! Plain arithmetic on observed traffic: no RNG, no clock reads, fully
//! deterministic, and completely dormant unless a parameter profile opts
//! in (`KernelParams::fast_slow()`).

use phoenix_sim::NodeId;
use std::collections::BTreeMap;

/// EWMA smoothing factor for both the RTT mean and the deviation.
const ALPHA: f64 = 0.3;
/// A peer reads over when its smoothed RTT exceeds this multiple of its
/// baseline (minimum-ever) RTT...
const SLOW_AFTER: f64 = 3.0;
/// ...and also exceeds `base + DEV_GATE × dev`, so jittery-but-honest
/// links are not flagged.
const DEV_GATE: f64 = 4.0;
/// Consecutive over-samples before the verdict flips to Slow.
const SLOW_STREAK: u32 = 3;
/// A Slow peer must fall back under this multiple of baseline...
const CLEAR_BEFORE: f64 = 1.5;
/// ...for this many consecutive samples ("N clean windows") before it is
/// reinstated.
const CLEAN_WINDOWS: u32 = 8;
/// Samples needed before any verdict: the baseline must mean something
/// first.
const WARMUP: u32 = 3;

/// The fail-slow detector's one option. Default: disabled, so the
/// fail-stop pipeline (and every pre-existing seeded trace) is untouched.
#[derive(Clone, Debug, Default)]
pub struct SlowDetectParams {
    /// Master switch: when false no pings are sent, no scores move, and
    /// no peer is ever quarantined.
    pub enabled: bool,
}

impl SlowDetectParams {
    /// The profile enabled by `KernelParams::fast_slow()`.
    pub fn slow() -> SlowDetectParams {
        SlowDetectParams { enabled: true }
    }
}

/// The three-state health verdict for one peer node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Latency profile within its baseline envelope.
    Healthy,
    /// Alive — every probe answered — but far outside its own baseline.
    /// Quarantine, never kill.
    Slow,
    /// Declared by the fail-stop pipeline, not by RTT evidence. Sticky
    /// until evidence of life (any fresh RTT sample) arrives.
    Dead,
}

/// A quarantine edge, returned exactly once per state change so the owner
/// can publish the matching event / broadcast without duplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowTransition {
    Quarantined(NodeId),
    Reinstated(NodeId),
}

#[derive(Clone, Debug)]
struct PeerState {
    /// Minimum RTT ever observed, in ns: the honest floor.
    base_ns: f64,
    /// Smoothed RTT estimate.
    ewma_ns: f64,
    /// Smoothed absolute deviation of samples around the estimate.
    dev_ns: f64,
    samples: u32,
    over_streak: u32,
    clean_streak: u32,
    verdict: Verdict,
}

impl PeerState {
    fn fresh(first_rtt_ns: f64) -> PeerState {
        PeerState {
            base_ns: first_rtt_ns,
            ewma_ns: first_rtt_ns,
            dev_ns: 0.0,
            samples: 0,
            over_streak: 0,
            clean_streak: 0,
            verdict: Verdict::Healthy,
        }
    }
}

/// Per-peer fail-slow scores for one observer (a GSD). Keys are peer
/// *nodes* — slowness is a property of the machine, not of one daemon on
/// it. BTreeMap so every iteration order is deterministic.
#[derive(Clone, Debug)]
pub struct SlowDetect {
    params: SlowDetectParams,
    peers: BTreeMap<NodeId, PeerState>,
}

impl SlowDetect {
    pub fn new(params: SlowDetectParams) -> SlowDetect {
        SlowDetect {
            params,
            peers: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.params.enabled
    }

    /// Current verdict for a peer (Healthy when never observed).
    pub fn verdict(&self, peer: NodeId) -> Verdict {
        self.peers
            .get(&peer)
            .map(|p| p.verdict)
            .unwrap_or(Verdict::Healthy)
    }

    pub fn is_slow(&self, peer: NodeId) -> bool {
        self.verdict(peer) == Verdict::Slow
    }

    /// Slowness score: smoothed RTT as a multiple of the peer's baseline
    /// (1.0 = at baseline; unobserved peers read 1.0).
    pub fn score(&self, peer: NodeId) -> f64 {
        self.peers
            .get(&peer)
            .map(|p| {
                if p.base_ns > 0.0 {
                    p.ewma_ns / p.base_ns
                } else {
                    1.0
                }
            })
            .unwrap_or(1.0)
    }

    /// Whether a peer has cleared the warmup window: its baseline has
    /// enough samples for the verdict to mean anything. A reinstatement
    /// decision must never ride on a cold, unwarmed Healthy default.
    pub fn warmed(&self, peer: NodeId) -> bool {
        self.peers
            .get(&peer)
            .map(|p| p.samples >= WARMUP)
            .unwrap_or(false)
    }

    /// Every observed peer with its current verdict, ascending node id.
    pub fn verdicts(&self) -> Vec<(NodeId, Verdict)> {
        self.peers.iter().map(|(&n, p)| (n, p.verdict)).collect()
    }

    /// All peers currently under a Slow verdict, ascending node id.
    pub fn slow_peers(&self) -> Vec<NodeId> {
        self.peers
            .iter()
            .filter(|(_, p)| p.verdict == Verdict::Slow)
            .map(|(&n, _)| n)
            .collect()
    }

    /// One RTT sample for a peer. Returns the quarantine / reinstatement
    /// edge when this sample closes a hysteresis window. Any sample is
    /// evidence of life: a peer the fail-stop layer had marked Dead moves
    /// back to the scored verdicts.
    pub fn observe_rtt(&mut self, peer: NodeId, rtt_ns: u64) -> Option<SlowTransition> {
        if !self.params.enabled {
            return None;
        }
        let s = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerState::fresh(rtt_ns as f64));
        let sample = rtt_ns as f64;
        if sample < s.base_ns {
            s.base_ns = sample;
        }
        // RFC 6298 order: fold the sample's deviation in against the old
        // estimate, then move the estimate.
        s.dev_ns += ALPHA * ((sample - s.ewma_ns).abs() - s.dev_ns);
        s.ewma_ns += ALPHA * (sample - s.ewma_ns);
        s.samples = s.samples.saturating_add(1);
        if s.verdict == Verdict::Dead {
            // Evidence of life; scores below decide Healthy vs Slow.
            s.verdict = Verdict::Healthy;
        }
        let over_bar = (SLOW_AFTER * s.base_ns).max(s.base_ns + DEV_GATE * s.dev_ns);
        let clean_bar = CLEAR_BEFORE * s.base_ns;
        if s.samples < WARMUP {
            return None;
        }
        match s.verdict {
            Verdict::Healthy if s.ewma_ns > over_bar => {
                s.over_streak += 1;
                s.clean_streak = 0;
                if s.over_streak >= SLOW_STREAK {
                    s.verdict = Verdict::Slow;
                    s.clean_streak = 0;
                    return Some(SlowTransition::Quarantined(peer));
                }
            }
            Verdict::Healthy => {
                s.over_streak = 0;
            }
            Verdict::Slow if s.ewma_ns < clean_bar => {
                s.clean_streak += 1;
                if s.clean_streak >= CLEAN_WINDOWS {
                    s.verdict = Verdict::Healthy;
                    s.over_streak = 0;
                    return Some(SlowTransition::Reinstated(peer));
                }
            }
            Verdict::Slow => {
                s.clean_streak = 0;
            }
            Verdict::Dead => unreachable!("cleared above"),
        }
        None
    }

    /// The fail-stop pipeline diagnosed this peer dead. Recorded for the
    /// verdict panel; any later RTT sample (life) clears it.
    pub fn mark_dead(&mut self, peer: NodeId) {
        if !self.params.enabled {
            return;
        }
        if let Some(s) = self.peers.get_mut(&peer) {
            s.verdict = Verdict::Dead;
            s.over_streak = 0;
            s.clean_streak = 0;
        }
    }

    /// Drop a peer's history (e.g. its partition migrated to another
    /// node): the next sample restarts its baseline from scratch.
    pub fn forget(&mut self, peer: NodeId) {
        self.peers.remove(&peer);
    }

    /// Peers ordered healthiest-first: non-Slow before Slow, then by
    /// slowness score ascending, ties by node id — a deterministic
    /// preference order for placement decisions.
    pub fn ranked(&self) -> Vec<NodeId> {
        let mut order: Vec<&NodeId> = self.peers.keys().collect();
        order.sort_by(|&&a, &&b| {
            let (sa, sb) = (&self.peers[&a], &self.peers[&b]);
            (sa.verdict == Verdict::Slow)
                .cmp(&(sb.verdict == Verdict::Slow))
                .then(self.score(a).total_cmp(&self.score(b)))
                .then(a.cmp(&b))
        });
        order.into_iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 300_000; // 300µs round trip

    fn detector() -> SlowDetect {
        SlowDetect::new(SlowDetectParams::slow())
    }

    fn warm(d: &mut SlowDetect, peer: NodeId, n: u32) {
        for _ in 0..n {
            assert_eq!(d.observe_rtt(peer, BASE), None);
        }
    }

    #[test]
    fn disabled_profile_is_inert() {
        let mut d = SlowDetect::new(SlowDetectParams::default());
        assert!(!d.enabled());
        for _ in 0..100 {
            assert_eq!(d.observe_rtt(NodeId(1), BASE * 100), None);
        }
        assert_eq!(d.verdict(NodeId(1)), Verdict::Healthy);
        assert_eq!(d.score(NodeId(1)), 1.0);
        assert!(d.slow_peers().is_empty());
    }

    #[test]
    fn steady_rtt_stays_healthy() {
        let mut d = detector();
        for i in 0..200u64 {
            // ±10% wobble around the baseline.
            let rtt = BASE + (i % 7) * BASE / 70;
            assert_eq!(d.observe_rtt(NodeId(2), rtt), None);
        }
        assert_eq!(d.verdict(NodeId(2)), Verdict::Healthy);
        assert!(d.score(NodeId(2)) < 1.2);
    }

    #[test]
    fn sustained_slowness_quarantines_exactly_once() {
        let mut d = detector();
        warm(&mut d, NodeId(3), 10);
        let mut edges = Vec::new();
        for i in 0..20u32 {
            if let Some(t) = d.observe_rtt(NodeId(3), BASE * 6) {
                edges.push((i, t));
            }
        }
        assert_eq!(edges.len(), 1, "one quarantine edge, no re-announce");
        assert_eq!(edges[0].1, SlowTransition::Quarantined(NodeId(3)));
        // Hysteresis: not before the streak window (warmup already done).
        assert!(edges[0].0 >= 2, "streak must gate the edge (at {})", edges[0].0);
        assert_eq!(d.verdict(NodeId(3)), Verdict::Slow);
        assert_eq!(d.slow_peers(), vec![NodeId(3)]);
        assert!(d.score(NodeId(3)) > 3.0);
    }

    #[test]
    fn reinstatement_needs_n_clean_windows() {
        let mut d = detector();
        warm(&mut d, NodeId(4), 10);
        for _ in 0..10 {
            d.observe_rtt(NodeId(4), BASE * 6);
        }
        assert_eq!(d.verdict(NodeId(4)), Verdict::Slow);
        // Recovery: the EWMA needs a few samples to fall under the clean
        // bar, then the full window must elapse with no relapse.
        let mut reinstated_at = None;
        for i in 0..40u32 {
            if let Some(SlowTransition::Reinstated(n)) = d.observe_rtt(NodeId(4), BASE) {
                assert_eq!(n, NodeId(4));
                reinstated_at = Some(i);
                break;
            }
        }
        let at = reinstated_at.expect("clean samples must eventually reinstate");
        assert!(
            at + 1 >= CLEAN_WINDOWS,
            "reinstated inside the clean window (at {at})"
        );
        assert_eq!(d.verdict(NodeId(4)), Verdict::Healthy);
    }

    #[test]
    fn a_relapse_resets_the_clean_window() {
        let mut d = detector();
        warm(&mut d, NodeId(5), 10);
        for _ in 0..10 {
            d.observe_rtt(NodeId(5), BASE * 6);
        }
        // Walk the EWMA down until clean samples start counting…
        for _ in 0..6 {
            assert_eq!(d.observe_rtt(NodeId(5), BASE), None);
        }
        // …then relapse once: the window restarts, so the next 7 clean
        // samples (one short of the window) must not reinstate.
        d.observe_rtt(NodeId(5), BASE * 6);
        for _ in 0..7 {
            assert_eq!(d.observe_rtt(NodeId(5), BASE), None);
        }
        assert_eq!(d.verdict(NodeId(5)), Verdict::Slow);
    }

    #[test]
    fn jittery_link_is_not_flagged() {
        // A link whose RTT swings 1×–3× baseline keeps a high deviation;
        // the dev gate holds the bar above the swings and the EWMA mean
        // (~2×) never crosses SLOW_AFTER (3×) anyway.
        let mut d = detector();
        for i in 0..300u64 {
            let rtt = BASE + (i % 3) * BASE;
            d.observe_rtt(NodeId(6), rtt);
        }
        assert_eq!(d.verdict(NodeId(6)), Verdict::Healthy);
    }

    #[test]
    fn dead_is_sticky_until_evidence_of_life() {
        let mut d = detector();
        warm(&mut d, NodeId(7), 5);
        d.mark_dead(NodeId(7));
        assert_eq!(d.verdict(NodeId(7)), Verdict::Dead);
        // A fresh RTT is life: back to the scored verdicts.
        d.observe_rtt(NodeId(7), BASE);
        assert_eq!(d.verdict(NodeId(7)), Verdict::Healthy);
    }

    #[test]
    fn rtt_never_declares_dead() {
        let mut d = detector();
        warm(&mut d, NodeId(8), 5);
        for _ in 0..100 {
            d.observe_rtt(NodeId(8), BASE * 50);
        }
        // Arbitrarily slow evidence saturates at Slow: "slow ≠ down".
        assert_eq!(d.verdict(NodeId(8)), Verdict::Slow);
    }

    #[test]
    fn ranked_prefers_healthy_then_fast() {
        let mut d = detector();
        warm(&mut d, NodeId(1), 10);
        warm(&mut d, NodeId(2), 10);
        warm(&mut d, NodeId(3), 10);
        for _ in 0..10 {
            d.observe_rtt(NodeId(2), BASE * 6); // quarantined
            d.observe_rtt(NodeId(3), BASE * 2); // slower but healthy
            d.observe_rtt(NodeId(1), BASE); // fastest
        }
        assert_eq!(d.ranked(), vec![NodeId(1), NodeId(3), NodeId(2)]);
    }

    #[test]
    fn forget_restarts_the_baseline() {
        let mut d = detector();
        warm(&mut d, NodeId(9), 10);
        d.forget(NodeId(9));
        // A migrated partition lands on a different machine: its old
        // 300µs floor must not make the new home's 600µs read as slow.
        for _ in 0..50 {
            assert_eq!(d.observe_rtt(NodeId(9), BASE * 2), None);
        }
        assert_eq!(d.verdict(NodeId(9)), Verdict::Healthy);
    }
}
