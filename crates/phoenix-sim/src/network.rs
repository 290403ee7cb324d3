//! The simulated interconnect.
//!
//! The cluster has `k` parallel networks; NIC `i` of every node attaches to
//! network `i` (mirroring the Dawning 4000A, where each node had three
//! networks). A message travels over exactly one network, chosen either
//! explicitly by the sender (heartbeats probe every interface) or by default
//! routing (first interface healthy on both endpoints).
//!
//! Failures modelled here:
//! * NIC down — messages over that interface are dropped in either direction;
//! * node crash — handled by the world (all NICs effectively gone);
//! * link partition — ordered node pairs that cannot exchange messages;
//! * probabilistic unreliability — uniform message loss, duplication and
//!   extra reorder jitter, driven by the world's seeded RNG so lossy runs
//!   stay deterministic and replayable.

use crate::ids::{NicId, NodeId};
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::collections::{HashMap, HashSet};

/// One-way latency for messages between actors on the same node: loopback
/// or unix socket cost.
pub(crate) const LOCAL_LATENCY: SimDuration = SimDuration::from_micros(5);
/// Base one-way latency across the LAN: typical 2005-era cluster ethernet.
pub(crate) const LAN_LATENCY: SimDuration = SimDuration::from_micros(120);

/// Jitter and unreliability parameters of the interconnect.
#[derive(Clone, Debug)]
pub struct NetParams {
    /// Uniform jitter added on top of `LAN_LATENCY` (0..=jitter).
    pub jitter: SimDuration,
    /// Probability (in permille, 0..=1000) that a cross-node message is
    /// silently lost. Zero (the default) draws no randomness at all, so
    /// pre-existing seeded runs reproduce byte-for-byte.
    pub loss_permille: u16,
    /// Probability (in permille) that a cross-node message is delivered
    /// twice, the copy with an independently drawn latency.
    pub dup_permille: u16,
    /// Extra uniform jitter (0..=reorder_extra) added per cross-node
    /// message when non-zero: widens the reorder window well beyond the
    /// base `jitter` without shifting the latency floor.
    pub(crate) reorder_extra: SimDuration,
    /// Per-network loss overrides: index `i` replaces `loss_permille` for
    /// messages carried over network `i`. Networks beyond the vector's
    /// length keep the uniform base rate, so the empty default changes
    /// nothing.
    pub(crate) nic_loss_permille: Vec<u16>,
    /// Per-network duplication overrides, same indexing rules.
    pub(crate) nic_dup_permille: Vec<u16>,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            jitter: SimDuration::from_micros(30),
            loss_permille: 0,
            dup_permille: 0,
            reorder_extra: SimDuration::ZERO,
            nic_loss_permille: Vec::new(),
            nic_dup_permille: Vec::new(),
        }
    }
}

impl NetParams {
    /// A lossy profile: `loss_permille` uniform loss, a quarter of that as
    /// duplication, and a reorder window an order of magnitude wider than
    /// the base jitter.
    pub fn unreliable(loss_permille: u16) -> NetParams {
        NetParams {
            loss_permille,
            dup_permille: loss_permille / 4,
            reorder_extra: SimDuration::from_micros(300),
            ..NetParams::default()
        }
    }

    /// Override the loss rate of network `nic` only (other networks keep
    /// their current rate). The asymmetric-NIC benchmarks are built on
    /// this: one lossy interface, the rest clean.
    pub fn with_nic_loss(mut self, nic: NicId, permille: u16) -> NetParams {
        let i = nic.0 as usize;
        if self.nic_loss_permille.len() <= i {
            self.nic_loss_permille.resize(i + 1, self.loss_permille);
        }
        self.nic_loss_permille[i] = permille;
        // Lossy interfaces duplicate in proportion, like `unreliable`.
        if self.nic_dup_permille.len() <= i {
            self.nic_dup_permille.resize(i + 1, self.dup_permille);
        }
        self.nic_dup_permille[i] = permille / 4;
        if permille > 0 && self.reorder_extra.as_nanos() == 0 {
            self.reorder_extra = SimDuration::from_micros(300);
        }
        self
    }

    /// Base loss rate of network `nic` (override if set, uniform otherwise).
    pub(crate) fn nic_loss(&self, nic: NicId) -> u16 {
        *self
            .nic_loss_permille
            .get(nic.0 as usize)
            .unwrap_or(&self.loss_permille)
    }

    /// Base duplication rate of network `nic`.
    pub(crate) fn nic_dup(&self, nic: NicId) -> u16 {
        *self
            .nic_dup_permille
            .get(nic.0 as usize)
            .unwrap_or(&self.dup_permille)
    }
}

/// Unreliability of one routed path: the rates the world rolls against for
/// a message that crossed the wire on a specific network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) struct LinkQuality {
    pub(crate) loss_permille: u16,
    pub(crate) dup_permille: u16,
}

/// Reasons a message could not be carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    SenderNicDown,
    ReceiverNicDown,
    Partitioned,
    NodeDown,
    DeadProcess,
    NoRoute,
    /// Probabilistic loss from the unreliability model (base rate or an
    /// injected loss burst). Stays last: the world's drop table is sized
    /// from it.
    RandomLoss,
}

/// Connectivity state of the interconnect (partitions between node pairs).
#[derive(Debug, Default)]
pub struct Network {
    pub(crate) params: NetParams,
    /// Unordered blocked pairs, stored with min id first.
    blocked: HashSet<(NodeId, NodeId)>,
    /// Transient loss burst (`Fault::LossBurst`); the effective loss rate
    /// is the max of this and the configured base rate.
    burst_permille: u16,
    /// Degraded interfaces (`Fault::NicDegrade`): the NIC stays up but any
    /// path touching it loses at least this rate. Keyed per endpoint, so a
    /// degraded NIC hurts both directions of every link it carries.
    degraded: HashMap<(NodeId, NicId), u16>,
    /// Active island split (`Fault::Partition`): bit `i` set puts node `i`
    /// on the minority side of a two-way split; zero means no split. Nodes
    /// with ids ≥ 64 always sit on the zero side. Membership checks are
    /// pure bit tests — no RNG is ever drawn for a split, so zero-partition
    /// runs consume exactly the stream they did before the fault existed.
    island: u64,
    /// Fail-slow nodes (`Fault::SlowNode`): extra latency in permille of
    /// the base path latency for every message touching the node. Like the
    /// loss model, a world with no slow nodes draws no RNG for this.
    slow: HashMap<NodeId, u16>,
}

impl Network {
    pub(crate) fn new(params: NetParams) -> Network {
        Network { params, ..Network::default() }
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (a.min(b), a.max(b))
    }

    /// Block all traffic between `a` and `b` (both directions, all networks).
    pub(crate) fn partition(&mut self, a: NodeId, b: NodeId) {
        self.blocked.insert(Self::key(a, b));
    }

    /// Restore traffic between `a` and `b`.
    pub(crate) fn heal(&mut self, a: NodeId, b: NodeId) {
        self.blocked.remove(&Self::key(a, b));
    }

    /// Is the pair currently partitioned?
    pub(crate) fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.blocked.contains(&Self::key(a, b))
    }

    /// Split the cluster into two islands (`Fault::Partition`): nodes with
    /// their bit set in `island` on one side, everyone else on the other.
    /// Replaces any previous split; 0 heals it (`Fault::Heal`).
    pub(crate) fn set_island(&mut self, island: u64) {
        self.island = island;
    }

    /// The active island mask (0 when the cluster is whole).
    pub(crate) fn island(&self) -> u64 {
        self.island
    }

    /// Which side of the island split a node sits on (`false` when no
    /// split is active or the node id is ≥ 64).
    fn island_side(&self, node: NodeId) -> bool {
        node.0 < 64 && (self.island >> node.0) & 1 == 1
    }

    /// Does the active island split separate the pair?
    pub(crate) fn island_separates(&self, a: NodeId, b: NodeId) -> bool {
        self.island != 0 && self.island_side(a) != self.island_side(b)
    }

    /// Degrade the whole interconnect to at least `permille` loss
    /// (`Fault::LossBurst`). 0 ends the burst (`Fault::LossClear`); the
    /// configured base rate stays in effect.
    pub(crate) fn set_loss_burst(&mut self, permille: u16) {
        self.burst_permille = permille.min(1000);
    }

    /// Degrade one interface of one node to at least `permille` loss on
    /// every path that touches it (`Fault::NicDegrade`). The NIC stays up:
    /// routing still succeeds, messages just die more often.
    pub(crate) fn degrade_nic(&mut self, node: NodeId, nic: NicId, permille: u16) {
        self.degraded.insert((node, nic), permille.min(1000));
    }

    /// End an interface degradation (`Fault::NicRestore`).
    pub(crate) fn restore_nic(&mut self, node: NodeId, nic: NicId) {
        self.degraded.remove(&(node, nic));
    }

    /// Current degradation of an interface (0 when healthy).
    pub(crate) fn nic_degradation(&self, node: NodeId, nic: NicId) -> u16 {
        *self.degraded.get(&(node, nic)).unwrap_or(&0)
    }

    /// Mark a node fail-slow (`Fault::SlowNode`): every message it sends,
    /// receives, or services locally takes `factor_permille` extra latency
    /// (1000 = 2× the base). Replaces any previous factor for the node;
    /// 0 ends the episode (`Fault::SlowClear`).
    pub(crate) fn set_slow(&mut self, node: NodeId, factor_permille: u16) {
        if factor_permille == 0 {
            self.slow.remove(&node);
        } else {
            self.slow.insert(node, factor_permille);
        }
    }

    /// Current fail-slow factor of a node (0 when healthy).
    pub(crate) fn slow_factor(&self, node: NodeId) -> u16 {
        *self.slow.get(&node).unwrap_or(&0)
    }

    /// Combined slowness of a path: the worse of the two endpoints. A slow
    /// node drags both directions of every conversation it takes part in,
    /// including node-local service (same-node messages).
    pub(crate) fn path_slow_factor(&self, src: NodeId, dst: NodeId) -> u16 {
        if self.slow.is_empty() {
            return 0; // fast path: no map lookups in healthy worlds
        }
        self.slow_factor(src).max(self.slow_factor(dst))
    }

    /// Roll one permille-probability event. Draws from the RNG only when
    /// the rate is non-zero, so reliable runs consume exactly the same
    /// random stream as before the unreliability model existed.
    pub(crate) fn roll(permille: u16, rng: &mut SimRng) -> bool {
        permille > 0 && rng.gen_range(0..1000u64) < permille.min(1000) as u64
    }

    /// Extra reorder jitter for one cross-node message (ZERO when the
    /// model is off; no RNG draw in that case).
    pub(crate) fn reorder_extra(&self, rng: &mut SimRng) -> SimDuration {
        if self.params.reorder_extra.as_nanos() == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.gen_range(0..=self.params.reorder_extra.as_nanos()))
        }
    }

    /// Draw the one-way latency for a message from `src` to `dst`. When a
    /// fail-slow node sits on either end the base latency is stretched by
    /// its factor plus seeded jitter of up to half the added delay (a slow
    /// node smears its traffic, it doesn't just shift it); with no slow
    /// node involved the stretch branch draws no RNG, keeping pre-existing
    /// seeded runs byte-identical.
    pub(crate) fn latency(&self, src: NodeId, dst: NodeId, rng: &mut SimRng) -> SimDuration {
        let base = if src == dst {
            LOCAL_LATENCY
        } else {
            let jitter_ns = if self.params.jitter.as_nanos() == 0 {
                0
            } else {
                rng.gen_range(0..=self.params.jitter.as_nanos())
            };
            LAN_LATENCY + SimDuration::from_nanos(jitter_ns)
        };
        let slow = self.path_slow_factor(src, dst);
        if slow == 0 {
            return base;
        }
        let added = base.as_nanos().saturating_mul(slow as u64) / 1000;
        let smear = if added >= 2 {
            rng.gen_range(0..=added / 2)
        } else {
            0
        };
        base + SimDuration::from_nanos(added.saturating_add(smear))
    }

    /// Decide whether a message may travel from (`src`, `src_nic`) to
    /// (`dst`, same network), and with what unreliability. Same-node
    /// messages never touch the wire (zero rates). The loss rate of a
    /// routed path is the worst of: the network's configured rate (per-NIC
    /// override or uniform base), an active cluster-wide loss burst, and
    /// any degradation of the two endpoint interfaces.
    pub(crate) fn route(
        &self,
        src: NodeId,
        dst: NodeId,
        nic: NicId,
        src_nic_up: bool,
        dst_nic_up: bool,
    ) -> Result<LinkQuality, DropReason> {
        if src == dst {
            return Ok(LinkQuality::default());
        }
        if !src_nic_up {
            return Err(DropReason::SenderNicDown);
        }
        if !dst_nic_up {
            return Err(DropReason::ReceiverNicDown);
        }
        if self.is_partitioned(src, dst) || self.island_separates(src, dst) {
            return Err(DropReason::Partitioned);
        }
        let loss = self
            .params
            .nic_loss(nic)
            .max(self.burst_permille)
            .max(self.nic_degradation(src, nic))
            .max(self.nic_degradation(dst, nic));
        Ok(LinkQuality {
            loss_permille: loss,
            dup_permille: self.params.nic_dup(nic),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_symmetric() {
        let mut net = Network::new(NetParams::default());
        net.partition(NodeId(3), NodeId(1));
        assert!(net.is_partitioned(NodeId(1), NodeId(3)));
        assert!(net.is_partitioned(NodeId(3), NodeId(1)));
        net.heal(NodeId(1), NodeId(3));
        assert!(!net.is_partitioned(NodeId(1), NodeId(3)));
    }

    #[test]
    fn local_latency_is_constant() {
        let net = Network::new(NetParams::default());
        let mut rng = SimRng::seed_from_u64(1);
        let l = net.latency(NodeId(0), NodeId(0), &mut rng);
        assert_eq!(l, LOCAL_LATENCY);
    }

    #[test]
    fn lan_latency_within_bounds() {
        let p = NetParams::default();
        let net = Network::new(p.clone());
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            let l = net.latency(NodeId(0), NodeId(1), &mut rng);
            assert!(l >= LAN_LATENCY);
            assert!(l <= LAN_LATENCY + p.jitter);
        }
    }

    #[test]
    fn route_drops_on_nic_failure() {
        let net = Network::new(NetParams::default());
        assert_eq!(
            net.route(NodeId(0), NodeId(1), NicId(0), false, true),
            Err(DropReason::SenderNicDown)
        );
        assert_eq!(
            net.route(NodeId(0), NodeId(1), NicId(0), true, false),
            Err(DropReason::ReceiverNicDown)
        );
        assert_eq!(
            net.route(NodeId(0), NodeId(1), NicId(0), true, true),
            Ok(LinkQuality::default())
        );
    }

    #[test]
    fn route_same_node_ignores_nics() {
        let net = Network::new(NetParams::default());
        assert_eq!(
            net.route(NodeId(0), NodeId(0), NicId(0), false, false),
            Ok(LinkQuality::default())
        );
    }

    #[test]
    fn route_reports_per_nic_rates() {
        let params = NetParams::unreliable(20).with_nic_loss(NicId(0), 100);
        let net = Network::new(params);
        let q0 = net.route(NodeId(0), NodeId(1), NicId(0), true, true).unwrap();
        assert_eq!(q0.loss_permille, 100);
        assert_eq!(q0.dup_permille, 25);
        // Networks without an override keep the uniform base rates.
        let q1 = net.route(NodeId(0), NodeId(1), NicId(1), true, true).unwrap();
        assert_eq!(q1.loss_permille, 20);
        assert_eq!(q1.dup_permille, 5);
        // Out-of-range indices fall back to the base too.
        let q7 = net.route(NodeId(0), NodeId(1), NicId(7), true, true).unwrap();
        assert_eq!(q7.loss_permille, 20);
    }

    #[test]
    fn degraded_nic_raises_loss_both_directions() {
        let mut net = Network::new(NetParams::default());
        net.degrade_nic(NodeId(1), NicId(2), 400);
        let fwd = net.route(NodeId(0), NodeId(1), NicId(2), true, true).unwrap();
        let rev = net.route(NodeId(1), NodeId(0), NicId(2), true, true).unwrap();
        assert_eq!(fwd.loss_permille, 400);
        assert_eq!(rev.loss_permille, 400);
        // Other interfaces of the same node are untouched.
        let other = net.route(NodeId(0), NodeId(1), NicId(0), true, true).unwrap();
        assert_eq!(other.loss_permille, 0);
        net.restore_nic(NodeId(1), NicId(2));
        let fwd = net.route(NodeId(0), NodeId(1), NicId(2), true, true).unwrap();
        assert_eq!(fwd.loss_permille, 0);
    }

    #[test]
    fn burst_floors_per_nic_rates() {
        let params = NetParams::default().with_nic_loss(NicId(0), 100);
        let mut net = Network::new(params);
        net.set_loss_burst(300);
        let q0 = net.route(NodeId(0), NodeId(1), NicId(0), true, true).unwrap();
        let q1 = net.route(NodeId(0), NodeId(1), NicId(1), true, true).unwrap();
        assert_eq!(q0.loss_permille, 300);
        assert_eq!(q1.loss_permille, 300);
        net.set_loss_burst(0);
        let q0 = net.route(NodeId(0), NodeId(1), NicId(0), true, true).unwrap();
        assert_eq!(q0.loss_permille, 100);
    }

    #[test]
    fn route_respects_partition() {
        let mut net = Network::new(NetParams::default());
        net.partition(NodeId(0), NodeId(1));
        assert_eq!(
            net.route(NodeId(0), NodeId(1), NicId(0), true, true),
            Err(DropReason::Partitioned)
        );
    }

    #[test]
    fn island_split_blocks_only_cross_traffic() {
        let mut net = Network::new(NetParams::default());
        // Nodes 0,1 on the minority side; 2,3 (and any id ≥ 64) opposite.
        net.set_island(0b0011);
        assert_eq!(
            net.route(NodeId(0), NodeId(2), NicId(0), true, true),
            Err(DropReason::Partitioned)
        );
        assert_eq!(
            net.route(NodeId(3), NodeId(1), NicId(1), true, true),
            Err(DropReason::Partitioned)
        );
        // Same-side traffic is untouched, on both sides.
        assert!(net.route(NodeId(0), NodeId(1), NicId(0), true, true).is_ok());
        assert!(net.route(NodeId(2), NodeId(3), NicId(2), true, true).is_ok());
        net.set_island(0);
        assert!(net.route(NodeId(0), NodeId(2), NicId(0), true, true).is_ok());
    }

    #[test]
    fn island_composes_with_degradation_and_links() {
        let mut net = Network::new(NetParams::default());
        net.set_island(0b0001);
        net.degrade_nic(NodeId(2), NicId(0), 400);
        net.partition(NodeId(2), NodeId(3));
        // Cross-island: dropped regardless of degradation.
        assert!(net.route(NodeId(0), NodeId(2), NicId(0), true, true).is_err());
        // Same side: degradation and link partitions still apply.
        assert_eq!(
            net.route(NodeId(1), NodeId(2), NicId(0), true, true)
                .unwrap()
                .loss_permille,
            400
        );
        assert_eq!(
            net.route(NodeId(2), NodeId(3), NicId(1), true, true),
            Err(DropReason::Partitioned)
        );
        // Heal clears only the island; the rest persists.
        net.set_island(0);
        assert!(net.route(NodeId(0), NodeId(2), NicId(1), true, true).is_ok());
        assert!(net.route(NodeId(2), NodeId(3), NicId(1), true, true).is_err());
    }

    #[test]
    fn island_checks_draw_no_randomness() {
        let mut net = Network::new(NetParams::default());
        net.set_island(0b0110);
        let mut rng = SimRng::seed_from_u64(11);
        let before = SimRng::seed_from_u64(11).next_u64();
        // Routing across and within the split is a pure membership test,
        // and the path that stays up rolls against a zero rate.
        assert_eq!(
            net.route(NodeId(1), NodeId(3), NicId(0), true, true),
            Err(DropReason::Partitioned)
        );
        let within = net.route(NodeId(1), NodeId(2), NicId(0), true, true).unwrap();
        assert!(!Network::roll(within.loss_permille, &mut rng));
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn zero_rates_draw_no_randomness() {
        let net = Network::new(NetParams::default());
        let mut rng = SimRng::seed_from_u64(11);
        let before = rng.next_u64();
        let mut rng = SimRng::seed_from_u64(11);
        let q = net.route(NodeId(0), NodeId(1), NicId(0), true, true).unwrap();
        assert!(!Network::roll(q.loss_permille, &mut rng));
        assert!(!Network::roll(q.dup_permille, &mut rng));
        assert_eq!(net.reorder_extra(&mut rng), SimDuration::ZERO);
        // The rolls consumed nothing: the next draw matches a fresh rng.
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn slow_node_stretches_both_directions_and_local() {
        let p = NetParams::default();
        let mut net = Network::new(p.clone());
        net.set_slow(NodeId(1), 3000); // 4× latency
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..50 {
            // Outgoing and incoming paths both stretch.
            for (a, b) in [(NodeId(1), NodeId(0)), (NodeId(0), NodeId(1))] {
                let l = net.latency(a, b, &mut rng);
                let floor = LAN_LATENCY * 4;
                let ceil = LAN_LATENCY * 4 + (LAN_LATENCY + p.jitter) * 11 / 2;
                assert!(l >= floor, "{l:?} < {floor:?}");
                assert!(l <= ceil, "{l:?} > {ceil:?}");
            }
        }
        // Node-local service time stretches too (the node is slow, not a link).
        let l = net.latency(NodeId(1), NodeId(1), &mut rng);
        assert!(l >= LOCAL_LATENCY * 4);
        // Uninvolved pairs keep the normal bounds.
        let l = net.latency(NodeId(0), NodeId(2), &mut rng);
        assert!(l <= LAN_LATENCY + p.jitter);
        net.set_slow(NodeId(1), 0);
        let l = net.latency(NodeId(0), NodeId(1), &mut rng);
        assert!(l <= LAN_LATENCY + p.jitter);
    }

    #[test]
    fn zero_slow_draws_no_extra_randomness() {
        // A world with no slow nodes must consume exactly the stream it did
        // before the fail-slow model existed: same draw count per latency.
        let p = NetParams::default();
        let clean = Network::new(p.clone());
        let mut net = Network::new(p);
        net.set_slow(NodeId(7), 2000);
        net.set_slow(NodeId(7), 0);
        net.set_slow(NodeId(8), 0); // zero factor is a no-op, not an entry
        let mut a = SimRng::seed_from_u64(13);
        let mut b = SimRng::seed_from_u64(13);
        for _ in 0..100 {
            assert_eq!(
                clean.latency(NodeId(0), NodeId(1), &mut a),
                net.latency(NodeId(0), NodeId(1), &mut b)
            );
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn slow_factor_replaced_not_stacked() {
        let mut net = Network::new(NetParams::default());
        net.set_slow(NodeId(2), 1000);
        net.set_slow(NodeId(2), 5000);
        assert_eq!(net.slow_factor(NodeId(2)), 5000);
        assert_eq!(net.path_slow_factor(NodeId(2), NodeId(0)), 5000);
        assert_eq!(net.path_slow_factor(NodeId(0), NodeId(1)), 0);
        net.set_slow(NodeId(2), 0);
        assert_eq!(net.slow_factor(NodeId(2)), 0);
    }

    #[test]
    fn loss_roll_tracks_configured_rate() {
        let net = Network::new(NetParams {
            loss_permille: 100, // 10%
            ..NetParams::default()
        });
        let q = net.route(NodeId(0), NodeId(1), NicId(0), true, true).unwrap();
        let mut rng = SimRng::seed_from_u64(42);
        let lost = (0..10_000)
            .filter(|_| Network::roll(q.loss_permille, &mut rng))
            .count();
        assert!((800..1200).contains(&lost), "10% loss drew {lost}/10000");
    }

    #[test]
    fn burst_overrides_lower_base_rate() {
        let mut net = Network::new(NetParams::default());
        let loss = |net: &Network| {
            net.route(NodeId(0), NodeId(1), NicId(0), true, true)
                .unwrap()
                .loss_permille
        };
        assert_eq!(loss(&net), 0);
        net.set_loss_burst(300);
        assert_eq!(loss(&net), 300);
        net.set_loss_burst(0);
        assert_eq!(loss(&net), 0);
        // A burst never lowers a higher base rate.
        net.params.loss_permille = 500;
        net.set_loss_burst(300);
        assert_eq!(loss(&net), 500);
    }

    #[test]
    fn unreliable_profile_scales_with_loss() {
        let p = NetParams::unreliable(80);
        assert_eq!(p.loss_permille, 80);
        assert_eq!(p.dup_permille, 20);
        assert!(p.reorder_extra > SimDuration::ZERO);
    }
}
