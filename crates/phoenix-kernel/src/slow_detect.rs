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
//! Beside the scores the detector keeps what only makes sense next to
//! them: the pings still out and when each peer last answered anything
//! (the veto above lapses when answers stop), the gray-*self* test (an
//! observer that reads most of its peers Slow is itself the slow one),
//! and the leader's two-tick convergence of the quarantine set.
//!
//! Plain arithmetic on observed traffic: no RNG, no clock reads, fully
//! deterministic, and completely dormant unless a parameter profile opts
//! in (`KernelParams::fast_slow()`).

use phoenix_proto::{MemberInfo, PartitionId};
use phoenix_sim::{NodeId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

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
/// A ping out for longer than this many heartbeat intervals is forgotten:
/// a pong that took 8 beats is not a latency sample, and the table must
/// stay bounded under loss.
const PING_HORIZON_BEATS: u64 = 8;

/// Gauge names for a node's verdict (0 = healthy, 1 = slow, 2 = dead) and
/// slowness score, as the meta-group leader exports them. The telemetry
/// registry wants `&'static str`; simulated clusters use small node ids,
/// and every node past the table shares its last row.
const GAUGES: [(&str, &str); 9] = [
    ("slow.verdict.node0", "slow.score.node0"),
    ("slow.verdict.node1", "slow.score.node1"),
    ("slow.verdict.node2", "slow.score.node2"),
    ("slow.verdict.node3", "slow.score.node3"),
    ("slow.verdict.node4", "slow.score.node4"),
    ("slow.verdict.node5", "slow.score.node5"),
    ("slow.verdict.node6", "slow.score.node6"),
    ("slow.verdict.node7", "slow.score.node7"),
    ("slow.verdict.nodeN", "slow.score.nodeN"),
];

/// `(verdict gauge, score gauge)` for `node`.
pub(crate) fn gauges(node: NodeId) -> (&'static str, &'static str) {
    GAUGES[(node.0 as usize).min(GAUGES.len() - 1)]
}

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
    /// When the peer last answered anything its observer timed.
    last_seen: Option<SimTime>,
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
            last_seen: None,
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
    /// Pings still out: seq → (target node, send time).
    pings: BTreeMap<u64, (NodeId, SimTime)>,
    ping_seq: u64,
    /// The partitions the last convergence pass wanted to quarantine.
    pending: BTreeSet<PartitionId>,
}

impl SlowDetect {
    pub fn new(params: SlowDetectParams) -> SlowDetect {
        SlowDetect {
            params,
            peers: BTreeMap::new(),
            pings: BTreeMap::new(),
            ping_seq: 0,
            pending: BTreeSet::new(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.params.enabled
    }

    /// Current verdict for a peer (Healthy when never observed).
    pub(crate) fn verdict(&self, peer: NodeId) -> Verdict {
        self.peers
            .get(&peer)
            .map(|p| p.verdict)
            .unwrap_or(Verdict::Healthy)
    }

    pub(crate) fn is_slow(&self, peer: NodeId) -> bool {
        self.verdict(peer) == Verdict::Slow
    }

    /// Slowness score: smoothed RTT as a multiple of the peer's baseline
    /// (1.0 = at baseline; unobserved peers read 1.0).
    pub(crate) fn score(&self, peer: NodeId) -> f64 {
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
    pub(crate) fn warmed(&self, peer: NodeId) -> bool {
        self.peers
            .get(&peer)
            .map(|p| p.samples >= WARMUP)
            .unwrap_or(false)
    }

    /// Every observed peer with its current verdict, ascending node id.
    pub(crate) fn verdicts(&self) -> Vec<(NodeId, Verdict)> {
        self.peers.iter().map(|(&n, p)| (n, p.verdict)).collect()
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
    pub(crate) fn mark_dead(&mut self, peer: NodeId) {
        if !self.params.enabled {
            return;
        }
        if let Some(s) = self.peers.get_mut(&peer) {
            s.verdict = Verdict::Dead;
            s.over_streak = 0;
            s.clean_streak = 0;
        }
    }

    // ---- pings and evidence of life ---------------------------------------

    /// A ping leaves for `node` at `now`: the sequence number it carries.
    pub(crate) fn ping(&mut self, node: NodeId, now: SimTime) -> u64 {
        self.ping_seq += 1;
        self.pings.insert(self.ping_seq, (node, now));
        self.ping_seq
    }

    /// Forget the pings out for more than the horizon, in beats of
    /// `hb_interval`.
    pub(crate) fn expire_pings(&mut self, now: SimTime, hb_interval: SimDuration) {
        let horizon = hb_interval * PING_HORIZON_BEATS;
        self.pings.retain(|_, (_, at)| now.since(*at) <= horizon);
    }

    /// The pong for ping `seq` arrived: one RTT sample for its target. A
    /// pong for no ping still out (expired, duplicated) is nothing.
    pub(crate) fn on_pong(&mut self, seq: u64, now: SimTime) -> Option<SlowTransition> {
        let (node, at) = self.pings.remove(&seq)?;
        self.observe(node, now.since(at).as_nanos(), now)
    }

    /// [`observe_rtt`](Self::observe_rtt), for a sample that ended `now`:
    /// also the peer's latest evidence of life.
    pub(crate) fn observe(
        &mut self,
        peer: NodeId,
        rtt_ns: u64,
        now: SimTime,
    ) -> Option<SlowTransition> {
        let transition = self.observe_rtt(peer, rtt_ns);
        if let Some(s) = self.peers.get_mut(&peer) {
            s.last_seen = Some(now);
        }
        transition
    }

    /// Slow ≠ down: a Slow verdict plus evidence of life no older than
    /// `window` vetoes a dead diagnosis of `peer`. The freshness gate
    /// keeps the veto from becoming a livelock — a slow node that later
    /// genuinely dies stops answering, the evidence goes stale within one
    /// suspicion window, and the fail-stop pipeline proceeds as if the
    /// veto never existed.
    pub(crate) fn alive_veto(&self, peer: NodeId, now: SimTime, window: SimDuration) -> bool {
        self.peers.get(&peer).is_some_and(|p| {
            p.verdict == Verdict::Slow && p.last_seen.is_some_and(|at| now.since(at) <= window)
        })
    }

    // ---- what the verdicts may be used for --------------------------------

    /// "It's not everyone else — it's me": when a strict majority of this
    /// observer's warmed peers read Slow, the common element in every one
    /// of those stretched RTTs is this node itself. While that holds, the
    /// verdicts must not be used *against* peers (no quarantine additions,
    /// no yield requests, no placement vetoes) — a degraded node handing
    /// out quarantines would decapitate a healthy cluster.
    pub(crate) fn gray_self(&self) -> bool {
        let (mut warmed, mut slow) = (0u32, 0u32);
        for p in self.peers.values() {
            if p.verdict != Verdict::Dead && p.samples >= WARMUP {
                warmed += 1;
                slow += u32::from(p.verdict == Verdict::Slow);
            }
        }
        warmed >= 2 && slow * 2 > warmed
    }

    /// The leader's convergence pass, once per maintenance tick: the
    /// quarantine set that should follow `current`, from the verdicts on
    /// the server nodes of `members` (the ring; `me` is the leader's own
    /// partition, whose health is the princess's call).
    ///
    /// An addition must survive two consecutive ticks: when this observer
    /// is the degraded one, its Slow verdicts cross their streaks a ping
    /// round apart, so at the first tick the strict-majority
    /// [`gray_self`](Self::gray_self) veto can lag the earliest verdicts —
    /// one tick later the inversion is complete and the veto holds. A
    /// healthy leader watching a genuinely slow member sees a stable
    /// candidate both ticks. Removal requires a *warmed* Healthy verdict,
    /// not the absence of a Slow one: a fresh leader whose detector never
    /// saw the node slow must re-earn the reinstatement, not inherit it.
    pub(crate) fn converge_quarantine(
        &mut self,
        me: PartitionId,
        members: &[MemberInfo],
        current: &BTreeSet<PartitionId>,
    ) -> BTreeSet<PartitionId> {
        let gray = self.gray_self();
        let mut candidates = BTreeSet::new();
        let mut next = current.clone();
        for m in members.iter().filter(|m| m.partition != me) {
            if self.is_slow(m.node) {
                if !gray {
                    candidates.insert(m.partition);
                    if self.pending.contains(&m.partition) {
                        next.insert(m.partition);
                    }
                }
            } else if self.warmed(m.node) && self.verdict(m.node) == Verdict::Healthy {
                next.remove(&m.partition);
            }
        }
        self.pending = candidates;
        // A partition that left the membership entirely is the fail-stop
        // pipeline's problem, not quarantine's.
        next.retain(|p| members.iter().any(|m| m.partition == *p));
        next
    }

    /// Health-ranked witness candidates among `members`: healthy
    /// partitions before quarantined or slow ones, then by slowness score,
    /// ties by partition id — so with no slowness observed this is exactly
    /// the lowest-id order.
    pub(crate) fn witness_preference(
        &self,
        members: &[MemberInfo],
        quarantined: &BTreeSet<PartitionId>,
    ) -> Vec<PartitionId> {
        let seat = |m: &MemberInfo| {
            let degraded = quarantined.contains(&m.partition) || self.is_slow(m.node);
            (degraded, self.score(m.node), m.partition)
        };
        let mut pref: Vec<(bool, f64, PartitionId)> = members.iter().map(seat).collect();
        pref.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        pref.into_iter().map(|(_, _, p)| p).collect()
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
        assert!(d.verdicts().is_empty());
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
        assert_eq!(d.verdicts(), vec![(NodeId(3), Verdict::Slow)]);
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

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Warm `peer` at its baseline, then hold it at 6× until it reads Slow.
    fn slow_down(d: &mut SlowDetect, peer: NodeId) {
        warm(d, peer, 10);
        for _ in 0..10 {
            d.observe_rtt(peer, BASE * 6);
        }
        assert!(d.is_slow(peer));
    }

    #[test]
    fn pings_expire_past_the_horizon() {
        let beat = SimDuration::from_secs(1);
        let mut d = detector();
        let old = d.ping(NodeId(1), at(0));
        let new = d.ping(NodeId(2), at(1_000));
        assert_eq!((old, new), (1, 2));
        d.expire_pings(at(8_000), beat);
        d.expire_pings(at(8_001), beat); // `old` is now past 8 beats
        assert_eq!(d.on_pong(old, at(8_002)), None);
        assert_eq!(d.verdicts(), vec![], "a pong that late is no sample");
        assert_eq!(d.on_pong(new, at(8_002)), None);
        assert_eq!(d.verdicts(), vec![(NodeId(2), Verdict::Healthy)]);
        assert!((d.score(NodeId(2)) - 1.0).abs() < 1e-9);
        // A duplicated pong finds its ping gone: one sample per ping.
        d.on_pong(new, at(9_000));
        assert!((d.score(NodeId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alive_veto_lapses_when_pongs_stop() {
        let window = SimDuration::from_millis(3_050);
        let peer = NodeId(3);
        let mut d = detector();
        for i in 0..10 {
            d.observe(peer, BASE, at(i * 100));
        }
        assert!(!d.alive_veto(peer, at(1_000), window), "healthy: no veto");
        for i in 10..20 {
            d.observe(peer, BASE * 6, at(i * 100));
        }
        assert!(d.is_slow(peer));
        // Last answer at 1.9 s: the veto holds for one window after it.
        assert!(d.alive_veto(peer, at(1_900) + window, window));
        assert!(!d.alive_veto(peer, at(1_901) + window, window), "lapsed");
        d.observe(peer, BASE * 6, at(9_000));
        assert!(d.alive_veto(peer, at(9_500), window), "answering again");
        // A verdict without a timed answer behind it vetoes nothing.
        slow_down(&mut d, NodeId(4));
        assert!(!d.alive_veto(NodeId(4), at(0), window));
        assert!(!d.alive_veto(NodeId(5), at(0), window), "never observed");
    }

    #[test]
    fn gray_self_is_a_strict_majority_of_warmed_live_peers() {
        let mut d = detector();
        slow_down(&mut d, NodeId(1));
        assert!(!d.gray_self(), "one warmed peer proves nothing");
        warm(&mut d, NodeId(2), 10);
        assert!(!d.gray_self(), "1 slow of 2: not a strict majority");
        slow_down(&mut d, NodeId(3));
        assert!(d.gray_self(), "2 slow of 3");
        d.observe_rtt(NodeId(4), BASE);
        assert!(d.gray_self(), "an unwarmed peer does not count");
        warm(&mut d, NodeId(4), 10);
        assert!(!d.gray_self(), "2 slow of 4");
        d.mark_dead(NodeId(4));
        assert!(d.gray_self(), "nor does a dead one");
    }

    #[test]
    fn a_quarantine_addition_must_survive_two_ticks() {
        let seat = |p: u32, node: u32| MemberInfo {
            node: NodeId(node),
            ..MemberInfo::unwired(PartitionId(p))
        };
        let (p0, p1) = (PartitionId(0), PartitionId(1));
        let ring = [seat(0, 0), seat(1, 4), seat(2, 8)];
        let (none, only_p1) = (BTreeSet::new(), BTreeSet::from([p1]));
        let mut d = detector();
        warm(&mut d, NodeId(8), 10);
        slow_down(&mut d, NodeId(4));
        assert_eq!(d.converge_quarantine(p0, &ring, &none), none, "a candidate");
        assert_eq!(d.converge_quarantine(p0, &ring, &none), only_p1, "confirmed");
        assert_eq!(d.converge_quarantine(p0, &ring, &only_p1), only_p1, "held");
        // Out again only on a warmed Healthy verdict.
        for _ in 0..40 {
            d.observe_rtt(NodeId(4), BASE);
        }
        assert_eq!(d.verdict(NodeId(4)), Verdict::Healthy);
        assert_eq!(d.converge_quarantine(p0, &ring, &only_p1), none);
        // A partition that left the ring is not quarantine's business.
        let without_p1 = [seat(0, 0), seat(2, 8)];
        assert_eq!(d.converge_quarantine(p0, &without_p1, &only_p1), none);
        // The leader never judges its own partition, slow node or not.
        slow_down(&mut d, NodeId(0));
        assert_eq!(d.converge_quarantine(p0, &ring, &none), none);
        assert_eq!(d.converge_quarantine(p0, &ring, &none), none);
        // A gray-self observer adds nobody, however long it looks.
        slow_down(&mut d, NodeId(4));
        slow_down(&mut d, NodeId(8));
        assert!(d.gray_self());
        assert_eq!(d.converge_quarantine(p0, &ring, &none), none);
        assert_eq!(d.converge_quarantine(p0, &ring, &none), none);
    }

    #[test]
    fn witness_preference_ranks_healthy_then_fast_then_low() {
        let seat = |p: u32, node: u32| MemberInfo {
            node: NodeId(node),
            ..MemberInfo::unwired(PartitionId(p))
        };
        let ring = [seat(0, 0), seat(1, 4), seat(2, 8), seat(3, 12)];
        let ids = |v: &[u32]| v.iter().map(|&p| PartitionId(p)).collect::<Vec<_>>();
        let mut d = detector();
        let none = BTreeSet::new();
        assert_eq!(d.witness_preference(&ring, &none), ids(&[0, 1, 2, 3]));
        slow_down(&mut d, NodeId(0));
        warm(&mut d, NodeId(4), 10);
        for _ in 0..10 {
            d.observe_rtt(NodeId(4), BASE * 2); // slower, but healthy
        }
        assert_eq!(d.witness_preference(&ring, &none), ids(&[2, 3, 1, 0]));
        let q = BTreeSet::from([PartitionId(2)]);
        assert_eq!(d.witness_preference(&ring, &q), ids(&[3, 1, 2, 0]));
    }
}
