//! MSCS-style quorum regroup: split-brain survival for the meta-group.
//!
//! Fire Phoenix's meta-group ring (paper Sec 4.4) diagnoses a silent
//! predecessor as *dead* and takes over. Under a network partition that
//! diagnosis is wrong on both sides at once: each island sees the other
//! silent, each elects a leader, and the cluster splits its brain. The
//! classical cure — Microsoft Cluster Service's *regroup* protocol
//! (Vogels et al., "The Design and Architecture of the Microsoft Cluster
//! Service") — is implemented here:
//!
//! * On suspicion (or periodically while frozen) a GSD opens a **regroup
//!   round**: it pings every member it knows and collects acks for a
//!   bounded window.
//! * The round concludes with a **connected-component** view: itself plus
//!   every acker. A side holding a **strict majority** of the configured
//!   partitions keeps operating (elections, takeovers, migrations); a
//!   minority side **freezes** — it stays alive and answers pings, but
//!   suppresses every membership-changing action and marks itself
//!   non-authoritative.
//! * A frozen GSD keeps probing. When acks from a fresher epoch appear
//!   (the partition healed), it rejoins via `MetaJoin` and thaws only
//!   when the majority's membership broadcast names it — or yields and
//!   dies if the majority already replaced it.
//!
//! The module holds the protocol state machine and its wire messages, and
//! nothing of the actor: no sends, no timers, no telemetry. The GSD hands
//! it regroup traffic, timer instants and diagnoses, and gets whole
//! answers back — a [`Round`] to send, what was [`Heard`], a
//! [`Conclusion`] that says what this partition does next, a takeover
//! [`Licence`]. Below the partition rung ([`Rung::Partition`]) every
//! answer is "nothing", so the paper pipeline stays byte-identical.
//!
//! ## Weighted / witness quorum (DESIGN.md §13)
//!
//! Strict node-count majority freezes *both* sides of an exact 50/50
//! split — correct but a total outage. MSCS answers this with a quorum
//! resource; the equivalent here is a [`VoteTable`]: one vote per
//! partition plus a designated **witness** partition whose vote counts
//! double. An even split then has a strict weighted winner (the
//! witness's side), and on a tie — possible only once the witness is
//! unreachable from both sides — the side holding the lowest configured
//! partition wins, deterministic because exactly one side can hold it.
//! If the majority observes the witness unreachable for a full
//! held-majority period it *fails the witness over* to the
//! lowest reachable partition under a bumped witness epoch, gossiped in
//! regroup traffic so a healed minority adopts the new identity. The
//! vote table is the quorum rung's ([`Rung::Quorum`]); the partition rung
//! keeps the count majority byte-identical.
//!
//! The **adaptive takeover delay** replaces the fixed 1.5 s/31 s
//! profile constants with a clamp-bounded function of observed regroup
//! round latency: an integer EWMA of (first ping → last ack) per round,
//! scaled and clamped to `[DELAY_FLOOR, DELAY_CEIL]`. Clean networks
//! converge near the floor (fast profile); lossy ones back off, never
//! past the paper's 31 s ceiling.

use crate::params::Rung;
use phoenix_proto::{KernelMsg, PartitionId};
use phoenix_sim::{Pid, SimDuration, SimTime};
use std::collections::BTreeMap;

/// How long a round collects acks before concluding. Must be shorter
/// than the suspicion→diagnosis pipeline (probe rounds + node timeout) so
/// a minority freezes *before* the majority elects a replacement leader.
pub(crate) const ROUND_WINDOW: SimDuration = SimDuration::from_millis(60);
/// Spacing between heal-probe rounds while frozen.
pub(crate) const FROZEN_RETRY: SimDuration = SimDuration::from_millis(400);
/// How long a concluded majority verdict stays valid as a takeover
/// licence. A diagnosis may only ripen into a takeover if a round
/// concluded with majority within this window (a suspicion always opens a
/// fresh round, so the licence is at most one round old by the time the
/// probe pipeline completes).
pub(crate) const VERDICT_VALIDITY: SimDuration = SimDuration::from_secs(1);
/// Adaptive clamp floor: the proven-safe fast-profile constant. The
/// derived delay never drops below it, so adaptation can never license a
/// takeover earlier than the fixed fast profile would.
pub const DELAY_FLOOR: SimDuration = SimDuration::from_millis(1500);
/// Adaptive clamp ceiling: the paper-profile constant.
pub const DELAY_CEIL: SimDuration = SimDuration::from_secs(31);

/// What the regroup layer runs, as `FtParams::regroup` derives it from
/// the one hardening setting. Off by default.
#[derive(Clone, Debug, Default)]
pub struct RegroupParams {
    /// The hardening rung: regroup rounds from [`Rung::Partition`], the
    /// vote table and the adaptive delay from [`Rung::Quorum`].
    pub(crate) rung: Rung,
    /// Initial witness partition; `None` ⇒ lowest configured partition.
    pub witness: Option<PartitionId>,
    /// How long an *unbroken chain* of majority verdicts must stand
    /// before a takeover is licensed, when fixed; `None` ⇒
    /// [`DELAY_FLOOR`], adapted to round latency at the quorum rung. This
    /// is MSCS's "wait out the regroup period": the two sides of a split
    /// suspect at different times (their heartbeat streams were cut
    /// mid-phase, so suspicion skew is up to one `hb_interval` plus scan
    /// jitter), and the majority must out-wait the minority's worst-case
    /// freeze or both a frozen ex-leader and a fresh election could
    /// briefly coexist. Must exceed `hb_interval + ROUND_WINDOW +
    /// check_interval`: 1.5 s does for the fast profile's 1 s beats and
    /// 25 ms scans, out-waiting the ≤ ~1.1 s worst-case skew between the
    /// majority's takeover licence and the minority's freeze.
    pub(crate) takeover_delay: Option<SimDuration>,
}

impl RegroupParams {
    /// The layer as `rung` runs it.
    pub(crate) fn at(rung: Rung) -> RegroupParams {
        RegroupParams {
            rung,
            ..RegroupParams::default()
        }
    }

    /// The quorum rung: even splits keep the witness's side live, and the
    /// delay tracks observed round latency inside the [1.5 s, 31 s] clamp.
    pub fn quorum() -> RegroupParams {
        RegroupParams::at(Rung::Quorum)
    }

    /// Regroup rounds run at all. Off ⇒ the GSD never sends or reacts to
    /// regroup traffic.
    pub(crate) fn regroups(&self) -> bool {
        self.rung >= Rung::Partition
    }

    /// Weighted/witness voting. Off ⇒ plain partition-count majority.
    pub(crate) fn votes(&self) -> bool {
        self.rung >= Rung::Quorum
    }

    /// The takeover delay derives from observed round latency.
    pub(crate) fn adaptive(&self) -> bool {
        self.votes() && self.takeover_delay.is_none()
    }
}

/// An acker's state, as carried in its `RegroupAck`.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// The acker's GSD pid (rejoin target).
    pub gsd: Pid,
    /// The acker's membership epoch.
    pub epoch: u64,
    /// Whether the acker itself is frozen.
    pub frozen: bool,
    /// Always 1: the tally counts one vote per partition and doubles the
    /// witness's against its own witness view. Nothing reads it and the
    /// wire does not carry it; it stays only because the frozen benchmark
    /// builds an `AckInfo` by its fields (ROADMAP item 7).
    pub weight: u32,
}

/// The outcome handed back to the GSD when a round concludes: the verdict,
/// and what this partition does about it.
#[derive(Clone, Debug)]
pub struct Conclusion {
    /// This side holds a strict (weighted) majority of the configured
    /// partitions. Otherwise it is a minority island, and frozen.
    pub majority: bool,
    /// Partitions confirmed dead by their own home nodes this round and
    /// discounted from the quorum denominator (sorted; empty while the
    /// vote table is off). A non-empty set means the verdict leans on
    /// testimony rather than pure reachability, so the all-frozen
    /// re-seed additionally out-waits the takeover delay.
    pub(crate) dead: Vec<PartitionId>,
    /// Set when this conclusion failed the witness over to a new
    /// partition (majority held, old witness unreachable for a full
    /// takeover-delay period).
    pub(crate) witness_failover: Option<PartitionId>,
    /// ...and this partition, the lowest reachable, is the one that tells
    /// the config service `(witness, witness epoch)`, so an operator can
    /// see the new quorum anchor.
    pub(crate) report_witness: Option<(PartitionId, u64)>,
    /// This conclusion froze the partition (the edge, not the state).
    pub(crate) froze: bool,
    /// Unreachable partitions whose directory entries this partition
    /// flags stale, so clients stop routing to daemons nobody can vouch
    /// for. Only an unfrozen majority's lowest reachable partition does.
    pub(crate) stale: Vec<PartitionId>,
    /// Frozen, and a majority answered — the partition healed: the
    /// freshest unfrozen acker (highest epoch, then pid), to be asked to
    /// take us back in. The thaw itself waits for a membership that names
    /// us.
    pub(crate) ask_back_in: Option<Pid>,
    /// Frozen, a majority answered and every one of them is frozen too
    /// (the whole cluster fragmented and re-healed): this partition
    /// re-seeds the group — the witness's when the witness is reachable
    /// (the rebuilt group forms around the quorum anchor), else the lowest
    /// reachable.
    pub(crate) reseed: bool,
    /// Open another round after [`FROZEN_RETRY`]: frozen (heal detection),
    /// or a majority that cannot reach its witness (so the failover fires
    /// the moment the licence ripens, and a healed witness is seen).
    pub(crate) keep_polling: bool,
}

/// A round just opened: what to send.
#[derive(Clone, Debug)]
pub(crate) struct Round {
    /// For the best-known GSD of every other *configured* partition, not
    /// just current members: a frozen side keeps pinging partitions its
    /// stale membership may have lost, and a majority side pings the
    /// minority it removed.
    pub(crate) ping: KernelMsg,
    /// Vote-table profiles also collect home-node testimony: for the
    /// watch daemon of every node outside this partition. A partition
    /// that never acks but whose own nodes unanimously report its GSD
    /// dead is discounted from the quorum denominator — the escape hatch
    /// from the all-dark state where enough GSDs (witness included) died
    /// that every island is a strict weighted minority. Only home nodes
    /// may testify: they are the nodes an in-place respawn lands on, so
    /// the evidence cannot sit on the far side of a split from a rescued
    /// replacement.
    pub(crate) home_probe: Option<KernelMsg>,
}

/// Why a round is asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Why {
    /// The topology may have changed: a ring predecessor fell silent, a
    /// takeover was deferred, a peer's round is echoed.
    Suspicion,
    /// The retry timer a conclusion asked for. Nothing to do unless still
    /// frozen or still without the witness.
    Poll,
}

/// What a piece of regroup traffic meant.
#[derive(Debug, Default)]
pub struct Heard {
    /// The gossip it carried moved the witness view: the new one.
    pub(crate) witness: Option<(PartitionId, u64)>,
    /// Send this back (the ack of a ping).
    pub(crate) reply: Option<KernelMsg>,
    /// Open a round of our own. A peer opening one suspects the topology
    /// changed. On an even split the losing side's leader can have its
    /// entire ring neighbourhood on its own island (predecessor reachable,
    /// so no suspicion ever fires) and would lead until heal — echoing
    /// makes every reachable GSD conclude a verdict within one window of
    /// the first detector. Echoes only chain while pings keep arriving,
    /// so steady state stays quiet. Vote-table profiles only.
    pub(crate) echo: bool,
}

/// May a ripened diagnosis of a ring predecessor become a takeover?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Licence {
    Granted,
    /// This side is frozen: it takes nobody over.
    Suppressed,
    /// The suspect acked the last concluded round: alive and routable.
    /// The stale beats are a transient (just-healed links), not a death.
    Vetoed,
    /// MSCS's regroup period: the majority has not been held in an
    /// unbroken chain for the takeover delay — long enough for any
    /// minority islet to have frozen itself. Open a round and let the
    /// next scan suspect again.
    Deferred,
}

/// The numbers a dashboard or an invariant checker reads; no decision
/// hangs on them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Outlook {
    /// Bumps on every concluded round.
    pub(crate) epoch: u64,
    /// `(witness, witness epoch)` while the vote table is active.
    pub(crate) witness: Option<(PartitionId, u64)>,
    /// Smoothed first-ping→last-ack latency, once a round has sampled.
    pub(crate) round_latency: Option<SimDuration>,
    /// The takeover delay currently enforced.
    pub(crate) takeover_delay: SimDuration,
}

/// Pure regroup state machine. The GSD owns one and drives it from its
/// message/timer handlers.
#[derive(Default)]
pub struct Regroup {
    params: RegroupParams,
    /// Regroup epoch: bumps on every concluded round. Telemetry-visible.
    epoch: u64,
    /// Current round id; `None` when idle.
    round: Option<u64>,
    next_round: u64,
    /// Acks collected for the current round, keyed by partition (sorted
    /// iteration for determinism).
    acks: BTreeMap<PartitionId, AckInfo>,
    /// Home-node testimony for the current round: per partition, how many
    /// of its own nodes' watch daemons reported the GSD they track dead
    /// vs. alive. A partition is *confirmed dead* — and discounted from
    /// the quorum denominator — only when it never acked, at least one
    /// home node testified, and none testified alive.
    home_reports: BTreeMap<PartitionId, (u32, u32)>,
    frozen: bool,
    /// When the last majority verdict concluded (takeover licence).
    last_majority_at: Option<SimTime>,
    /// Start of the current unbroken chain of majority verdicts; `None`
    /// when the last conclusion was a minority or the chain lapsed.
    majority_since: Option<SimTime>,
    /// When any round last concluded, and the connected component it saw
    /// — the reachability veto consults these.
    last_concluded_at: Option<SimTime>,
    last_reachable: Vec<PartitionId>,
    /// Configured partitions, sorted: the quorum denominator (not the
    /// live membership — a shrunken membership must not shrink the bar
    /// for "majority"). Empty until `set_partitions`.
    parts: Vec<PartitionId>,
    /// Current witness; `Some` only while the vote table is active.
    witness: Option<PartitionId>,
    /// Witness generation: bumps on every failover, gossiped in regroup
    /// traffic; the higher epoch wins on conflict.
    witness_epoch: u64,
    /// Health-ranked witness candidates (best first), installed by the
    /// fail-slow layer on its slow cadence. Consulted only at failover
    /// time; empty keeps the legacy lowest-reachable-id pick.
    witness_pref: Vec<PartitionId>,
    /// When the current round opened (adaptive-latency sample start).
    round_started_at: Option<SimTime>,
    /// When the current round's last ack landed.
    last_ack_at: Option<SimTime>,
    /// Integer EWMA (ns, alpha 1/4) of per-round first-ping→last-ack
    /// latency; `None` until the first completed sample.
    latency_ewma_ns: Option<u64>,
}

impl Regroup {
    pub fn new(params: RegroupParams) -> Regroup {
        Regroup {
            params,
            ..Regroup::default()
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.params.regroups()
    }

    /// Fix the configured partition set (and the quorum denominator).
    /// Activates the vote table when enabled: resolves the initial
    /// witness (explicit designation, else the lowest configured
    /// partition — the config-service host).
    pub fn set_partitions(&mut self, parts: &[PartitionId]) {
        self.parts = parts.to_vec();
        self.parts.sort();
        self.parts.dedup();
        if self.votes_enabled() {
            self.witness = self
                .params
                .witness
                .filter(|w| self.parts.contains(w))
                .or_else(|| self.parts.first().copied());
        }
    }

    /// Whether weighted/witness voting is active (the layer and its vote
    /// table on *and* a configured partition set installed).
    fn votes_enabled(&self) -> bool {
        self.params.votes() && !self.parts.is_empty()
    }

    /// Current `(witness, witness epoch)`; `None` while the vote table is
    /// off. The epoch bumps on every failover and is gossiped in regroup
    /// traffic; the higher one wins on conflict.
    fn witness_view(&self) -> Option<(PartitionId, u64)> {
        let witness = self.witness.filter(|_| self.votes_enabled())?;
        Some((witness, self.witness_epoch))
    }

    /// The witness view as the wire carries it: `PartitionId(0)` / the
    /// epoch held when there is no vote table.
    fn gossip(&self) -> (PartitionId, u64) {
        let witness = self.witness_view().map_or(PartitionId(0), |(w, _)| w);
        (witness, self.witness_epoch)
    }

    pub(crate) fn outlook(&self) -> Outlook {
        Outlook {
            epoch: self.epoch,
            witness: self.witness_view(),
            round_latency: self.latency_ewma_ns.map(SimDuration::from_nanos),
            takeover_delay: self.effective_takeover_delay(),
        }
    }

    /// The fail-slow layer's health-ranked witness candidates (best
    /// first). The ranking is only consulted when a failover fires under a
    /// ripened takeover licence, and only taken under the same licence: a
    /// minority island can never install one, and ranking churn can never
    /// move a healthy witness. An empty ranking keeps the lowest-reachable
    /// pick.
    pub(crate) fn rank_witness(
        &mut self,
        now: SimTime,
        ranking: impl FnOnce() -> Vec<PartitionId>,
    ) {
        if self.votes_enabled() && self.takeover_licensed(now) {
            self.witness_pref = ranking();
        }
    }

    /// Adopt a gossiped witness identity if it carries a higher witness
    /// epoch than ours: the view, when it changed.
    fn observe_witness(&mut self, witness: PartitionId, epoch: u64) -> Option<(PartitionId, u64)> {
        if self.votes_enabled() && epoch > self.witness_epoch {
            self.witness = Some(witness);
            self.witness_epoch = epoch;
            return Some((witness, epoch));
        }
        None
    }

    /// A partition's vote as tallied by this side: one, doubled for the
    /// current witness.
    fn vote_of(&self, p: PartitionId) -> u32 {
        if self.witness == Some(p) {
            2
        } else {
            1
        }
    }

    /// Total configured votes (the weighted quorum denominator), minus
    /// partitions confirmed dead by their own home nodes this round — a
    /// dead GSD cannot participate in a rival quorum, so keeping its
    /// vote in the denominator would only dark the whole cluster once
    /// enough partitions die (witness included) to make every island a
    /// strict weighted minority.
    fn total_votes(&self, dead: &[PartitionId]) -> u32 {
        self.parts
            .iter()
            .filter(|p| !dead.contains(p))
            .map(|&p| self.vote_of(p))
            .sum()
    }

    /// Weighted-majority verdict for this side: the votes of the acking
    /// partitions plus our own, the witness's doubled. Strict majority
    /// wins; on an exact tie the witness's side wins, else the side
    /// holding the lowest
    /// *live* configured partition (exactly one side can hold it; if it
    /// is dead both sides freeze, conservatively).
    fn weighted_majority(
        &self,
        me: PartitionId,
        reachable: &[PartitionId],
        dead: &[PartitionId],
    ) -> bool {
        let mut rv = self.vote_of(me);
        for &p in self.acks.keys() {
            if p != me {
                rv += self.vote_of(p);
            }
        }
        let tv = self.total_votes(dead);
        if 2 * rv > tv {
            return true;
        }
        if 2 * rv < tv {
            return false;
        }
        match self.witness {
            Some(w) if reachable.contains(&w) => true,
            Some(_) => self
                .parts
                .iter()
                .find(|p| !dead.contains(p))
                .is_some_and(|lowest| reachable.contains(lowest)),
            None => false,
        }
    }

    /// On a minority island: alive and answering pings, but every
    /// membership-changing action (diagnosis, takeover, rescue, rejoin,
    /// directory writes) is suppressed.
    pub(crate) fn frozen(&self) -> bool {
        self.frozen
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Open a new round; returns its id. No-op (returns the live round's
    /// id) if one is already collecting. `now` timestamps the round open
    /// for the adaptive-latency sample.
    pub fn begin_round(&mut self, now: SimTime) -> u64 {
        if let Some(r) = self.round {
            return r;
        }
        self.next_round += 1;
        self.round = Some(self.next_round);
        self.acks.clear();
        self.home_reports.clear();
        self.round_started_at = Some(now);
        self.last_ack_at = None;
        self.next_round
    }

    /// Open a round and say what to send; the caller concludes it
    /// [`ROUND_WINDOW`] later. `None`: the layer is off, a round is already
    /// collecting, or there is nothing to [`Why::Poll`] for.
    pub(crate) fn open_round(&mut self, now: SimTime, why: Why) -> Option<Round> {
        let wanted = why == Why::Suspicion || self.frozen || self.witness_lost();
        if !self.enabled() || self.round.is_some() || !wanted {
            return None;
        }
        let round = self.begin_round(now);
        let (witness, witness_epoch) = self.gossip();
        Some(Round {
            ping: KernelMsg::RegroupPing {
                round,
                witness,
                witness_epoch,
            },
            home_probe: self
                .votes_enabled()
                .then_some(KernelMsg::RegroupProbe { round }),
        })
    }

    /// Regroup traffic `from` a peer GSD or a home-node watch daemon
    /// reached `me`, whose membership epoch is `ring_epoch`.
    pub fn on_message(
        &mut self,
        me: PartitionId,
        ring_epoch: u64,
        from: Pid,
        msg: &KernelMsg,
        now: SimTime,
    ) -> Heard {
        let mut heard = Heard::default();
        if !self.enabled() {
            return heard;
        }
        match *msg {
            KernelMsg::RegroupPing {
                round,
                witness,
                witness_epoch,
            } => {
                heard.witness = self.observe_witness(witness, witness_epoch);
                // Always answered, even frozen — reachability is
                // reachability; the `frozen` bit tells the pinger whether
                // we can vouch for a membership.
                let (witness, witness_epoch) = self.gossip();
                heard.reply = Some(KernelMsg::RegroupAck {
                    from_partition: me,
                    epoch: ring_epoch,
                    round,
                    frozen: self.frozen,
                    witness,
                    witness_epoch,
                });
                heard.echo = self.votes_enabled();
            }
            KernelMsg::RegroupAck {
                from_partition,
                epoch,
                round,
                frozen,
                witness,
                witness_epoch,
            } => {
                heard.witness = self.observe_witness(witness, witness_epoch);
                let info = AckInfo {
                    gsd: from,
                    epoch,
                    frozen,
                    weight: 1,
                };
                self.on_ack(round, from_partition, info, now);
            }
            // Home-node testimony about a peer partition's GSD. Our own
            // partition never needs testifying about.
            KernelMsg::RegroupProbeAck {
                round,
                partition,
                alive,
            } if partition != me => self.on_home_report(round, partition, alive),
            _ => {}
        }
        heard
    }

    /// Record an ack for the current round. Stale/foreign round ids are
    /// ignored.
    pub fn on_ack(&mut self, round: u64, from: PartitionId, info: AckInfo, now: SimTime) {
        if self.round == Some(round) {
            self.acks.insert(from, info);
            self.last_ack_at = Some(now);
        }
    }

    /// Record home-node testimony about `partition`'s GSD for the current
    /// round (a `RegroupProbeAck` from one of that partition's own watch
    /// daemons). Stale/foreign round ids are ignored.
    fn on_home_report(&mut self, round: u64, partition: PartitionId, alive: bool) {
        if self.round == Some(round) {
            let e = self.home_reports.entry(partition).or_insert((0, 0));
            if alive {
                e.1 += 1;
            } else {
                e.0 += 1;
            }
        }
    }

    /// Partitions confirmed dead this round: never acked, and their own
    /// home nodes unanimously testified (≥ 1 report, none alive). Sorted.
    fn confirmed_dead(&self, me: PartitionId) -> Vec<PartitionId> {
        self.parts
            .iter()
            .copied()
            .filter(|&p| {
                p != me
                    && !self.acks.contains_key(&p)
                    && self
                        .home_reports
                        .get(&p)
                        .is_some_and(|&(dead, alive)| dead > 0 && alive == 0)
            })
            .collect()
    }

    /// Conclude the current round (the round-window timer fired): the
    /// connected component, the quorum verdict, and what `me` does next.
    /// Returns `None` if no round was active (stale timer).
    pub fn conclude(&mut self, me: PartitionId, now: SimTime) -> Option<Conclusion> {
        self.round.take()?;
        self.epoch += 1;
        let mut reachable: Vec<PartitionId> = self.acks.keys().copied().collect();
        if !reachable.contains(&me) {
            reachable.push(me);
        }
        reachable.sort();
        if self.params.adaptive() {
            if let (Some(start), Some(last)) = (self.round_started_at, self.last_ack_at) {
                let sample = last.since(start).as_nanos();
                self.latency_ewma_ns = Some(match self.latency_ewma_ns {
                    Some(e) => (3 * e + sample) / 4,
                    None => sample,
                });
            }
        }
        self.round_started_at = None;
        self.last_ack_at = None;
        let dead = if self.votes_enabled() {
            self.confirmed_dead(me)
        } else {
            Vec::new()
        };
        let majority = self.weighted_majority(me, &reachable, &dead);
        if majority {
            // A lapsed chain (no majority within the validity window)
            // restarts the takeover-delay clock.
            if self.majority_since.is_none() || !self.majority_confirmed(now) {
                self.majority_since = Some(now);
            }
            self.last_majority_at = Some(now);
        } else {
            self.majority_since = None;
        }
        self.last_concluded_at = Some(now);
        self.last_reachable = reachable.clone();
        // Rejoin target: the freshest unfrozen acker. Not restricted to
        // epochs above our own — a partition that heals before the
        // majority performed any takeover leaves every epoch unchanged,
        // and the frozen side must still be able to rejoin.
        let rejoin_target = self
            .acks
            .values()
            .filter(|a| !a.frozen)
            .max_by_key(|a| (a.epoch, a.gsd))
            .map(|a| a.gsd);
        self.acks.clear();
        self.home_reports.clear();
        let lowest = reachable.first() == Some(&me);
        let held = majority && !self.frozen;
        // Witness failover: an unfrozen majority that has out-waited a
        // full takeover-delay period without reaching the witness moves
        // the witness to the lowest reachable partition under a bumped
        // witness epoch. Only the majority side can conclude Majority,
        // so the two sides of a split can never fail over divergently.
        let mut witness_failover = None;
        if held && self.takeover_licensed(now) && self.witness_lost() {
            // Preference-first: the healthiest reachable candidate per the
            // fail-slow ranking, falling back to the lowest reachable id.
            let new = self
                .witness_pref
                .iter()
                .copied()
                .find(|p| reachable.contains(p))
                .or_else(|| reachable.first().copied());
            if let Some(new) = new {
                self.witness = Some(new);
                self.witness_epoch += 1;
                witness_failover = Some(new);
            }
        }
        let healed = majority && self.frozen;
        let froze = !majority && !std::mem::replace(&mut self.frozen, true);
        // Every reachable peer frozen too: one partition thaws itself and
        // announces a singleton group for the others to join. A majority
        // that leans on dead-partition discounts is testimony, not
        // reachability: out-wait a full takeover-delay chain of such
        // verdicts first, as hysteresis against a one-sided view.
        let seed = self
            .witness_view()
            .map(|(w, _)| w)
            .filter(|w| reachable.contains(w))
            .or_else(|| reachable.first().copied());
        let reseed = healed
            && rejoin_target.is_none()
            && seed == Some(me)
            && (dead.is_empty() || self.takeover_licensed(now));
        let mut stale = Vec::new();
        if held && lowest {
            stale.extend(self.parts.iter().filter(|p| !reachable.contains(p)));
        }
        Some(Conclusion {
            majority,
            keep_polling: self.frozen || self.witness_lost(),
            dead,
            report_witness: witness_failover.filter(|_| lowest).map(|w| (w, self.witness_epoch)),
            witness_failover,
            froze,
            stale,
            ask_back_in: rejoin_target.filter(|_| healed),
            reseed,
        })
    }

    /// Leave the frozen state: a majority-side membership named us, or
    /// this partition re-seeds the group. Returns true on the thaw edge,
    /// so callers fire side effects exactly once.
    pub(crate) fn thaw(&mut self) -> bool {
        std::mem::take(&mut self.frozen)
    }

    /// The witness is configured but missing from the last concluded
    /// round's reachable set. The held majority keeps its round cadence
    /// alive while this is true: witness failover fires at a round
    /// *conclusion* under a ripened takeover licence, and without a
    /// poller the rounds opened by fault probes stop exactly when the
    /// diagnosis completes — one conclude too early.
    fn witness_lost(&self) -> bool {
        self.last_concluded_at.is_some()
            && self
                .witness_view()
                .is_some_and(|(w, _)| !self.last_reachable.contains(&w))
    }

    /// Takeover licence, part 1: a round concluded with majority recently
    /// enough that the verdict still reflects post-fault connectivity.
    fn majority_confirmed(&self, now: SimTime) -> bool {
        self.last_majority_at
            .is_some_and(|at| now.since(at) <= VERDICT_VALIDITY)
    }

    /// Takeover licence, part 2: the majority verdict has been held in an
    /// unbroken chain for at least `takeover_delay` — long enough that a
    /// minority on the other side of a split has certainly concluded its
    /// own round and frozen.
    fn takeover_licensed(&self, now: SimTime) -> bool {
        self.majority_confirmed(now)
            && self
                .majority_since
                .is_some_and(|s| now.since(s) >= self.effective_takeover_delay())
    }

    /// Gate a ripened diagnosis of ring predecessor `partition` on quorum.
    /// A round opened with the suspicion has concluded by now, so the
    /// verdict is in. Anything but `Granted` unwinds the probe session;
    /// the next scan suspects again.
    pub(crate) fn licence(&self, partition: PartitionId, now: SimTime) -> Licence {
        if !self.enabled() {
            Licence::Granted
        } else if self.frozen {
            Licence::Suppressed
        } else if self.recently_reachable(partition, now) {
            Licence::Vetoed
        } else if !self.takeover_licensed(now) {
            Licence::Deferred
        } else {
            Licence::Granted
        }
    }

    /// The takeover delay actually enforced: the fixed parameter, or
    /// [`DELAY_FLOOR`] until an adaptive layer has sampled a round, then a
    /// multiple of the smoothed round latency clamped to `[DELAY_FLOOR,
    /// DELAY_CEIL]`. The floor is the proven-safe fast-profile constant, so
    /// adaptation can only ever *lengthen* the wait relative to it.
    fn effective_takeover_delay(&self) -> SimDuration {
        if let Some(fixed) = self.params.takeover_delay {
            return fixed;
        }
        match self.latency_ewma_ns {
            None => DELAY_FLOOR,
            Some(ewma) => {
                let (floor, ceil) = (DELAY_FLOOR.as_nanos(), DELAY_CEIL.as_nanos());
                let derived = floor.saturating_add(ewma.saturating_mul(16));
                SimDuration::from_nanos(derived.clamp(floor, ceil))
            }
        }
    }

    /// Reachability veto: the suspected partition *acked the last
    /// concluded round*, so it is alive and routable — the heartbeat
    /// staleness is a heal artifact (beats resume on their own cadence),
    /// not a death. A takeover of such a partition must be refused.
    fn recently_reachable(&self, p: PartitionId, now: SimTime) -> bool {
        self.last_reachable.contains(&p)
            && self.last_concluded_at
                .is_some_and(|at| now.since(at) <= VERDICT_VALIDITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partition rung: count-majority regroup, fixed delay.
    fn fast() -> RegroupParams {
        RegroupParams::at(Rung::Partition)
    }

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    fn ack(pid: u64, epoch: u64, frozen: bool) -> AckInfo {
        AckInfo {
            gsd: Pid(pid),
            epoch,
            frozen,
            weight: 1,
        }
    }

    fn witness(rg: &Regroup) -> Option<PartitionId> {
        rg.witness_view().map(|(w, _)| w)
    }

    fn parts(n: u32) -> Vec<PartitionId> {
        (0..n).map(PartitionId).collect()
    }

    #[test]
    fn quorum_is_strict_majority() {
        // (partitions, reachable including me, majority)
        let rows = [
            (3, 1, false),
            (3, 2, true),
            (4, 2, false),
            (4, 3, true),
            (8, 4, false),
            (8, 5, true),
        ];
        for (n, reachable, majority) in rows {
            let mut rg = Regroup::new(fast());
            rg.set_partitions(&parts(n));
            let others: Vec<u64> = (1..reachable).collect();
            let c = conclude_side(&mut rg, PartitionId(0), &others, t(0));
            assert_eq!(c.majority, majority, "{reachable} of {n}");
        }
    }

    #[test]
    fn round_collects_acks_and_concludes() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        let r = rg.begin_round(t(0));
        assert!(rg.round.is_some());
        assert_eq!(rg.begin_round(t(0)), r, "re-entrant begin keeps the round");
        rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
        rg.on_ack(r + 7, PartitionId(2), ack(11, 0, false), t(0)); // stale round id
        let c = rg.conclude(PartitionId(0), t(0)).unwrap();
        assert!(c.majority);
        assert_eq!(rg.last_reachable, vec![PartitionId(0), PartitionId(1)]);
        assert!(!rg.round.is_some());
        assert_eq!(rg.epoch(), 1);
        assert!(rg.conclude(PartitionId(0), t(0)).is_none(), "stale timer");
    }

    #[test]
    fn minority_concludes_and_freezes_once() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        let _ = rg.begin_round(t(0));
        let c = rg.conclude(PartitionId(2), t(0)).unwrap();
        assert!(!c.majority);
        assert_eq!(rg.last_reachable, vec![PartitionId(2)]);
        assert!(c.froze && rg.frozen(), "freeze edge fires once");
        assert!(c.keep_polling, "a frozen side probes for the heal");
        let _ = rg.begin_round(t(0));
        let c = rg.conclude(PartitionId(2), t(0)).unwrap();
        assert!(!c.froze && rg.frozen(), "already frozen");
        assert!(rg.thaw());
        assert!(!rg.thaw());
    }

    #[test]
    fn rejoin_target_prefers_fresh_unfrozen_acker() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        // Unfrozen, nobody is asked anything.
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(0), ack(20, 9, false), t(0));
        assert_eq!(rg.conclude(PartitionId(2), t(0)).unwrap().ask_back_in, None);
        let _ = rg.begin_round(t(0));
        assert!(rg.conclude(PartitionId(2), t(0)).unwrap().froze);
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(0), ack(20, 9, false), t(0));
        rg.on_ack(r, PartitionId(1), ack(21, 12, true), t(0)); // frozen: not a target
        let c = rg.conclude(PartitionId(2), t(0)).unwrap();
        assert_eq!(c.ask_back_in, Some(Pid(20)));
        // An unfrozen acker is a target even at a lower epoch (the
        // majority may never have bumped it); only all-frozen → None.
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(0), ack(20, 2, false), t(0));
        rg.on_ack(r, PartitionId(1), ack(21, 2, false), t(0));
        let c = rg.conclude(PartitionId(2), t(0)).unwrap();
        assert_eq!(c.ask_back_in, Some(Pid(21)), "same epoch: the higher pid");
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(0), ack(20, 2, true), t(0));
        let c = rg.conclude(PartitionId(2), t(0)).unwrap();
        assert_eq!(c.ask_back_in, None, "all reachable peers frozen");
        assert!(c.keep_polling && rg.frozen(), "asking is not thawing");
    }

    #[test]
    fn majority_verdict_expires() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        assert!(!rg.majority_confirmed(t(0)), "no round yet");
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
        rg.conclude(PartitionId(0), t(1_000)).unwrap();
        assert!(rg.majority_confirmed(t(1_000)));
        let validity = VERDICT_VALIDITY;
        // Within the window it holds; past it, it expires.
        let inside = SimTime::ZERO + SimDuration::from_nanos(1_000) + validity;
        let outside = inside + SimDuration::from_nanos(1);
        assert!(rg.majority_confirmed(inside));
        assert!(!rg.majority_confirmed(outside));
        // A minority conclusion does not refresh the licence.
        let _ = rg.begin_round(t(0));
        rg.conclude(PartitionId(0), outside).unwrap();
        assert!(!rg.majority_confirmed(outside));
    }

    #[test]
    fn disabled_params_by_default() {
        assert!(!RegroupParams::default().regroups());
        assert!(fast().regroups());
        // The vote table and adaptive delay are the quorum rung's: off in
        // the default *and* at the partition rung, so every pinned
        // count-majority scenario stays byte-identical.
        assert!(!RegroupParams::default().votes());
        assert!(!RegroupParams::default().adaptive());
        assert!(!fast().votes());
        assert!(!fast().adaptive());
        assert!(RegroupParams::quorum().regroups());
        assert!(RegroupParams::quorum().votes());
        assert!(RegroupParams::quorum().adaptive());
    }

    #[test]
    fn takeover_needs_majority_held_for_delay() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        let delay = DELAY_FLOOR;
        let t0 = t(0);
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
        rg.conclude(PartitionId(0), t0).unwrap();
        assert!(rg.majority_confirmed(t0));
        assert!(
            !rg.takeover_licensed(t0),
            "a fresh majority is not yet a takeover licence"
        );
        // Keep the chain alive with rounds every 500 ms until the delay
        // has been out-waited.
        let mut now = t0;
        while now.since(t0) < delay {
            now = now + SimDuration::from_millis(500);
            let r = rg.begin_round(t(0));
            rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
            rg.conclude(PartitionId(0), now).unwrap();
        }
        assert!(rg.takeover_licensed(now), "held majority licenses takeover");
        // A minority conclusion breaks the chain immediately.
        let _ = rg.begin_round(t(0));
        rg.conclude(PartitionId(0), now).unwrap();
        assert!(!rg.takeover_licensed(now));
    }

    #[test]
    fn lapsed_majority_chain_restarts_delay_clock() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
        rg.conclude(PartitionId(0), t(0)).unwrap();
        // Silence past the validity window, then a new majority: the
        // delay clock must restart, not credit the stale chain.
        let later = t(0) + VERDICT_VALIDITY + DELAY_FLOOR + SimDuration::from_millis(1);
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
        rg.conclude(PartitionId(0), later).unwrap();
        assert!(!rg.takeover_licensed(later), "chain lapsed; clock restarted");
    }

    #[test]
    fn acked_partition_is_recently_reachable() {
        let mut rg = Regroup::new(fast());
        rg.set_partitions(&parts(3));
        assert!(!rg.recently_reachable(PartitionId(1), t(0)), "no round yet");
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(1), ack(10, 0, false), t(0));
        rg.conclude(PartitionId(0), t(0)).unwrap();
        assert!(rg.recently_reachable(PartitionId(1), t(0)));
        assert!(rg.recently_reachable(PartitionId(0), t(0)), "self counts");
        assert!(
            !rg.recently_reachable(PartitionId(2), t(0)),
            "the silent partition stays takeover-eligible"
        );
        let expired = t(0) + VERDICT_VALIDITY + SimDuration::from_nanos(1);
        assert!(
            !rg.recently_reachable(PartitionId(1), expired),
            "the veto expires with the verdict"
        );
    }

    /// Drive one side of a split to a conclusion: `me` plus acks from
    /// `others`, all at time `now`.
    fn conclude_side(rg: &mut Regroup, me: PartitionId, others: &[u64], now: SimTime) -> Conclusion {
        let acks: Vec<(u32, bool)> = others.iter().map(|&p| (p as u32, false)).collect();
        concluded(rg, me, &acks, now)
    }

    #[test]
    fn even_split_witness_side_wins() {
        // 4 partitions, witness defaults to the lowest (p0): total votes
        // 5, so a 2/2 split has a strict weighted winner.
        let mut a = Regroup::new(RegroupParams::quorum());
        a.set_partitions(&parts(4));
        assert_eq!(witness(&a), Some(PartitionId(0)));
        let c = conclude_side(&mut a, PartitionId(0), &[1], t(0));
        assert!(c.majority, "witness side stays live");

        let mut b = Regroup::new(RegroupParams::quorum());
        b.set_partitions(&parts(4));
        let c = conclude_side(&mut b, PartitionId(2), &[3], t(0));
        assert!(!c.majority, "witness-less side freezes");
    }

    #[test]
    fn witness_in_minority_island_still_wins() {
        // Witness designated away from the lowest partition: its side
        // wins the even split even though the other side holds p0.
        let mut p = RegroupParams::quorum();
        p.witness = Some(PartitionId(2));
        let mut a = Regroup::new(p.clone());
        a.set_partitions(&parts(4));
        let c = conclude_side(&mut a, PartitionId(2), &[3], t(0));
        assert!(c.majority);
        let mut b = Regroup::new(p);
        b.set_partitions(&parts(4));
        let c = conclude_side(&mut b, PartitionId(0), &[1], t(0));
        assert!(!c.majority);
    }

    #[test]
    fn home_testimony_discounts_dead_partition() {
        // {p0,p3} is the witness-less side of an even split: 4 of 5
        // weighted votes reachable — minority, frozen forever if the
        // witness's GSD is simply dead rather than islanded.
        let mut p = RegroupParams::quorum();
        p.witness = Some(PartitionId(1));
        let mut rg = Regroup::new(p.clone());
        rg.set_partitions(&parts(4));
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(3), ack(103, 0, false), t(0));
        // p1's own home nodes unanimously testify its GSD dead: the
        // witness leaves the denominator (5 → 3) and {p0,p3} wins 4 > 3.
        rg.on_home_report(r, PartitionId(1), false);
        rg.on_home_report(r, PartitionId(1), false);
        let c = rg.conclude(PartitionId(0), t(0)).unwrap();
        assert_eq!(c.dead, vec![PartitionId(1)], "discount recorded");
        assert!(c.majority, "denominator shrank");

        // One dissenting "alive" report blocks the discount entirely.
        let mut rg = Regroup::new(p.clone());
        rg.set_partitions(&parts(4));
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(3), ack(103, 0, false), t(0));
        rg.on_home_report(r, PartitionId(1), false);
        rg.on_home_report(r, PartitionId(1), true);
        let c = rg.conclude(PartitionId(0), t(0)).unwrap();
        assert!(c.dead.is_empty(), "any alive vote vetoes the discount");
        assert!(!c.majority);

        // An acked partition is never discounted, whatever the reports
        // claim (a racing respawn acks mid-round: testimony is stale).
        let mut rg = Regroup::new(p.clone());
        rg.set_partitions(&parts(4));
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(3), ack(103, 0, false), t(0));
        rg.on_ack(r, PartitionId(1), ack(101, 0, false), t(0));
        rg.on_home_report(r, PartitionId(1), false);
        let c = rg.conclude(PartitionId(0), t(0)).unwrap();
        assert!(c.dead.is_empty(), "an acker is alive by definition");
        assert!(c.majority, "witness acked: 4+2 > half");

        // Reports are cleared between rounds: the next round must gather
        // fresh testimony before it may discount again.
        let mut rg = Regroup::new(p);
        rg.set_partitions(&parts(4));
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(3), ack(103, 0, false), t(0));
        rg.on_home_report(r, PartitionId(1), false);
        rg.conclude(PartitionId(0), t(0)).unwrap();
        let r2 = rg.begin_round(t(1));
        rg.on_ack(r2, PartitionId(3), ack(103, 0, false), t(1));
        let c = rg.conclude(PartitionId(0), t(1)).unwrap();
        assert!(c.dead.is_empty(), "testimony does not carry across rounds");
        assert!(!c.majority);
    }

    #[test]
    fn vote_table_off_keeps_count_majority() {
        // Below the quorum rung there is no witness and no home-node
        // testimony, so the weighted rule is the strict count majority:
        // both sides of a 2/2 split of four partitions freeze.
        // (me, acking peers, majority)
        let rows: [(u32, &[u64], bool); 3] = [
            (0, &[1], false),
            (2, &[3], false),
            (0, &[1, 2], true),
        ];
        for (me, others, majority) in rows {
            let mut rg = four(fast());
            assert_eq!(witness(&rg), None);
            let c = conclude_side(&mut rg, PartitionId(me), others, t(0));
            assert_eq!(c.majority, majority, "p{me} with {others:?}");
        }
    }

    #[test]
    fn tie_breaks_to_witness_side_then_lowest_partition() {
        // Three partitions, witness p0: total votes 4, and a {p0} /
        // {p1,p2} split ties at 2 each. The witness's side wins; the other
        // loses both tie-break clauses.
        let mut a = Regroup::new(RegroupParams::quorum());
        a.set_partitions(&parts(3));
        let _ = a.begin_round(t(0));
        let c = a.conclude(PartitionId(0), t(0)).unwrap();
        assert!(c.majority, "tie + witness reachable");

        let mut b = Regroup::new(RegroupParams::quorum());
        b.set_partitions(&parts(3));
        let r = b.begin_round(t(0));
        b.on_ack(r, PartitionId(2), ack(102, 0, false), t(0));
        let c = b.conclude(PartitionId(1), t(0)).unwrap();
        assert!(!c.majority, "tie, no witness, no p0");

        // Witness p4 dead by its home nodes' testimony: the other four
        // partitions hold 4 votes, {p0,p1} ties at 2 and wins via the
        // lowest-configured-partition clause; {p2,p3} loses.
        let mut q = RegroupParams::quorum();
        q.witness = Some(PartitionId(4));
        for (me, peer, wins) in [(0, 1, true), (2, 3, false)] {
            let mut d = Regroup::new(q.clone());
            d.set_partitions(&parts(5));
            let round = d.begin_round(t(0));
            d.on_ack(round, PartitionId(peer), ack(100 + u64::from(peer), 0, false), t(0));
            let dead_witness = KernelMsg::RegroupProbeAck {
                round,
                partition: PartitionId(4),
                alive: false,
            };
            d.on_message(PartitionId(me), 0, Pid(0), &dead_witness, t(0));
            let c = d.conclude(PartitionId(me), t(0)).unwrap();
            assert_eq!(c.dead, vec![PartitionId(4)]);
            assert_eq!(c.majority, wins, "p{me}'s side: tie broken by lowest partition");
        }
    }

    #[test]
    fn witness_failover_after_held_majority() {
        // p0 is witness and unreachable; the {p1,p2,p3} majority keeps
        // concluding. Only once the chain has been held past the
        // effective takeover delay does the witness move — to the lowest
        // reachable partition, under a bumped witness epoch.
        let mut rg = Regroup::new(RegroupParams::quorum());
        rg.set_partitions(&parts(4));
        let delay = DELAY_FLOOR + SimDuration::from_secs(1);
        let mut now = t(0);
        let c = conclude_side(&mut rg, PartitionId(1), &[2, 3], now);
        assert!(c.majority);
        assert_eq!(c.witness_failover, None, "fresh majority: no failover");
        assert!(c.keep_polling, "witness lost: rounds go on until it ripens");
        let t0 = now;
        let mut failed_over = None;
        while now.since(t0) < delay {
            now = now + SimDuration::from_millis(500);
            let c = conclude_side(&mut rg, PartitionId(1), &[2, 3], now);
            if let Some(w) = c.witness_failover {
                failed_over = Some(w);
                break;
            }
        }
        assert_eq!(failed_over, Some(PartitionId(1)), "lowest reachable");
        assert_eq!(witness(&rg), Some(PartitionId(1)));
        assert_eq!(rg.witness_epoch, 1);
        // Witness now reachable (it is us): no repeated failover.
        let c = conclude_side(&mut rg, PartitionId(1), &[2, 3], now);
        assert_eq!(c.witness_failover, None);
        assert!(!c.keep_polling);
    }

    #[test]
    fn witness_failover_honours_health_preference() {
        // Same held-majority failover, but a fail-slow ranking says p3 is
        // the healthiest reachable candidate: preference beats lowest-id.
        // Unreachable preferred entries (p0 ranks first but is the lost
        // witness) are skipped, not waited for.
        let mut rg = Regroup::new(RegroupParams::quorum());
        rg.set_partitions(&parts(4));
        rg.witness_pref = vec![
            PartitionId(0),
            PartitionId(3),
            PartitionId(2),
            PartitionId(1),
        ];
        let delay = DELAY_FLOOR + SimDuration::from_secs(1);
        let mut now = t(0);
        let c = conclude_side(&mut rg, PartitionId(1), &[2, 3], now);
        assert!(c.majority);
        let t0 = now;
        let mut failed_over = None;
        while now.since(t0) < delay {
            now = now + SimDuration::from_millis(500);
            let c = conclude_side(&mut rg, PartitionId(1), &[2, 3], now);
            if let Some(w) = c.witness_failover {
                failed_over = Some(w);
                break;
            }
        }
        assert_eq!(failed_over, Some(PartitionId(3)), "healthiest reachable");
        assert_eq!(witness(&rg), Some(PartitionId(3)));
        // An empty preference restores the legacy lowest-id pick — proven
        // by `witness_failover_after_held_majority` above.
    }

    #[test]
    fn observe_witness_adopts_higher_epoch_only() {
        let mut rg = Regroup::new(RegroupParams::quorum());
        rg.set_partitions(&parts(4));
        let adopted = rg.observe_witness(PartitionId(2), 1);
        assert_eq!(adopted, Some((PartitionId(2), 1)), "higher epoch wins");
        assert_eq!(witness(&rg), Some(PartitionId(2)));
        assert_eq!(rg.observe_witness(PartitionId(1), 1), None, "same epoch ignored");
        assert_eq!(witness(&rg), Some(PartitionId(2)));
        let mut off = Regroup::new(fast());
        off.set_partitions(&parts(4));
        assert_eq!(off.observe_witness(PartitionId(2), 9), None, "vote table off");
        assert_eq!(witness(&off), None);
    }

    #[test]
    fn adaptive_delay_tracks_latency_inside_clamp() {
        let mut rg = Regroup::new(RegroupParams::quorum());
        rg.set_partitions(&parts(4));
        let floor = DELAY_FLOOR;
        let ceil = DELAY_CEIL;
        assert_eq!(
            rg.outlook().takeover_delay,
            DELAY_FLOOR,
            "no samples yet: fixed constant"
        );
        // Constant 40 ms rounds: the EWMA converges to 40 ms and the
        // derived delay sits at floor + 16×40 ms, inside the clamp.
        let mut now = t(0);
        let lat = SimDuration::from_millis(40);
        for _ in 0..32 {
            let r = rg.begin_round(now);
            rg.on_ack(r, PartitionId(1), ack(101, 0, false), now + lat);
            rg.on_ack(r, PartitionId(2), ack(102, 0, false), now + lat);
            rg.conclude(PartitionId(0), now + lat).unwrap();
            now = now + SimDuration::from_millis(500);
            let eff = rg.outlook().takeover_delay;
            assert!(eff >= floor && eff <= ceil, "never exits the clamp");
        }
        let ewma = rg.outlook().round_latency.unwrap();
        assert!(
            ewma.as_nanos().abs_diff(lat.as_nanos()) < lat.as_nanos() / 10,
            "EWMA converged near the true latency: {ewma:?}"
        );
        let expect = floor + SimDuration::from_nanos(16 * ewma.as_nanos());
        assert_eq!(rg.outlook().takeover_delay, expect);

        // Pathological latencies pin to the clamp edges.
        for _ in 0..32 {
            let r = rg.begin_round(now);
            rg.on_ack(r, PartitionId(1), ack(101, 0, false), now + SimDuration::from_secs(10));
            rg.conclude(PartitionId(0), now + SimDuration::from_secs(10)).unwrap();
            now = now + SimDuration::from_secs(11);
        }
        assert_eq!(rg.outlook().takeover_delay, ceil, "clamped to paper ceiling");
        for _ in 0..160 {
            let r = rg.begin_round(now);
            rg.on_ack(r, PartitionId(1), ack(101, 0, false), now);
            rg.conclude(PartitionId(0), now).unwrap();
            now = now + SimDuration::from_millis(500);
        }
        assert_eq!(rg.outlook().takeover_delay, floor, "clamped to fast floor");
    }

    #[test]
    fn ack_free_rounds_leave_the_ewma_alone() {
        // A round that collects no acks (total isolation) has no latency
        // sample — the EWMA must not decay toward zero and erode the
        // delay while the node can't even observe the network.
        let mut rg = Regroup::new(RegroupParams::quorum());
        rg.set_partitions(&parts(4));
        let r = rg.begin_round(t(0));
        rg.on_ack(r, PartitionId(1), ack(101, 0, false), t(50_000_000));
        rg.conclude(PartitionId(0), t(60_000_000)).unwrap();
        let before = rg.outlook().round_latency.unwrap();
        let _ = rg.begin_round(t(100_000_000));
        rg.conclude(PartitionId(0), t(160_000_000)).unwrap();
        assert_eq!(rg.outlook().round_latency.unwrap(), before);
    }

    // ---- the answers the GSD acts on, one table per decision -------------

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);
    const P2: PartitionId = PartitionId(2);
    const P3: PartitionId = PartitionId(3);

    /// A layer over four partitions.
    fn four(params: RegroupParams) -> Regroup {
        let mut rg = Regroup::new(params);
        rg.set_partitions(&parts(4));
        rg
    }

    /// One round of `me`'s, acked by `(partition, frozen)` peers.
    fn concluded(rg: &mut Regroup, me: PartitionId, acks: &[(u32, bool)], now: SimTime) -> Conclusion {
        let r = rg.begin_round(now);
        for &(p, frozen) in acks {
            rg.on_ack(r, PartitionId(p), ack(100 + u64::from(p), 0, frozen), now);
        }
        rg.conclude(me, now).unwrap()
    }

    /// Hold `me`'s majority with `acks` in rounds 500 ms apart until the
    /// fast profile's takeover delay has passed; the instant reached.
    fn hold(rg: &mut Regroup, me: PartitionId, acks: &[(u32, bool)], from: SimTime) -> SimTime {
        let mut now = from;
        while now.since(from) < DELAY_FLOOR {
            now = now + SimDuration::from_millis(500);
            concluded(rg, me, acks, now);
        }
        now
    }

    #[test]
    fn licence_table() {
        let peers = [(1, false), (2, false)];
        // Disabled: the paper pipeline takes over on diagnosis alone.
        let off = four(RegroupParams::default());
        assert_eq!(off.licence(P3, t(0)), Licence::Granted);
        // No verdict yet, or a fresh one: deferred, and a round asked for.
        let mut rg = four(fast());
        assert_eq!(rg.licence(P3, t(0)), Licence::Deferred);
        concluded(&mut rg, P0, &peers, t(0));
        assert_eq!(rg.licence(P3, t(0)), Licence::Deferred);
        // Acked the last round: vetoed, however long the majority stood.
        let now = hold(&mut rg, P0, &peers, t(0));
        assert_eq!(rg.licence(P1, now), Licence::Vetoed);
        // Silent, and the majority held for the delay: granted...
        assert_eq!(rg.licence(P3, now), Licence::Granted);
        // ...while the verdict is valid.
        let late = now + VERDICT_VALIDITY + SimDuration::from_nanos(1);
        assert_eq!(rg.licence(P3, late), Licence::Deferred);
        // Frozen: suppressed, whatever else holds.
        assert!(concluded(&mut rg, P0, &[], now).froze);
        assert_eq!(rg.licence(P3, now), Licence::Suppressed);
        assert_eq!(rg.licence(P1, now), Licence::Suppressed);
    }

    #[test]
    fn a_held_majority_flags_the_unreachable_stale_from_its_lowest_partition_only() {
        // {p1, p2, p3} hold the majority; p0 is beyond reach.
        let mut low = four(fast());
        let c = concluded(&mut low, P1, &[(2, false), (3, false)], t(0));
        assert!(c.majority && !c.froze && !c.keep_polling);
        assert_eq!(c.stale, vec![P0], "p1 is the lowest reachable");
        assert_eq!((c.ask_back_in, c.reseed), (None, false));
        let mut high = four(fast());
        let c = concluded(&mut high, P2, &[(1, false), (3, false)], t(0));
        assert!(c.majority && c.stale.is_empty(), "p2 leaves it to p1");
        // A minority flags nothing: it freezes.
        let mut alone = four(fast());
        let c = concluded(&mut alone, P0, &[], t(0));
        assert!(!c.majority && c.froze && c.stale.is_empty() && c.keep_polling);
    }

    #[test]
    fn a_healed_minority_asks_back_in_or_reseeds() {
        // (profile, me, acks once healed, asked back in, re-seeds)
        let quorum = || RegroupParams {
            witness: Some(P2),
            ..RegroupParams::quorum()
        };
        let rows: [(fn() -> RegroupParams, _, &[(u32, bool)], _, _); 6] = [
            // An unfrozen peer answers: ask it, never re-seed.
            (fast, P1, &[(0, true), (2, false)], Some(Pid(102)), false),
            (fast, P0, &[(1, false), (2, true)], Some(Pid(101)), false),
            // Every reachable peer frozen: the lowest reachable re-seeds.
            (fast, P0, &[(1, true), (2, true)], None, true),
            (fast, P1, &[(0, true), (2, true)], None, false),
            // With a vote table, the witness's partition when reachable...
            (quorum as fn() -> _, P2, &[(0, true), (1, true)], None, true),
            (quorum as fn() -> _, P0, &[(1, true), (2, true)], None, false),
        ];
        for (params, me, acks, ask, reseed) in rows {
            let mut rg = four(params());
            assert!(concluded(&mut rg, me, &[], t(0)).froze, "{me:?} alone: frozen");
            let c = concluded(&mut rg, me, acks, t(1));
            assert!(c.majority && c.keep_polling && c.stale.is_empty());
            assert_eq!((c.ask_back_in, c.reseed), (ask, reseed), "{me:?} {acks:?}");
            assert!(rg.frozen(), "the thaw is the caller's: a membership names it");
        }
        // ...else the lowest: the witness p2 stays dark.
        let mut rg = four(quorum());
        assert!(concluded(&mut rg, P0, &[], t(0)).froze);
        let c = concluded(&mut rg, P0, &[(1, true), (3, true)], t(1));
        assert!(c.majority && c.reseed, "3 of 5 votes, no witness: p0 seeds");
    }

    #[test]
    fn no_reseed_on_dead_testimony_before_the_licence_ripens() {
        // p0 and p3 frozen; the witness p1's own nodes say its GSD is dead,
        // which is what makes {p0, p3} a majority at all.
        let mut params = RegroupParams::quorum();
        params.witness = Some(P1);
        let mut rg = four(params);
        assert!(concluded(&mut rg, P0, &[], t(0)).froze);
        let testified = |rg: &mut Regroup, now| {
            let r = rg.begin_round(now);
            rg.on_ack(r, P3, ack(103, 0, true), now);
            rg.on_home_report(r, P1, false);
            rg.conclude(P0, now).unwrap()
        };
        let c = testified(&mut rg, t(1));
        assert_eq!((c.majority, c.dead.as_slice()), (true, &[P1][..]));
        assert!(!c.reseed && c.keep_polling, "testimony is not reachability");
        let delay = rg.outlook().takeover_delay;
        let mut now = t(1);
        while now.since(t(1)) < delay {
            now = now + SimDuration::from_millis(400);
            let c = testified(&mut rg, now);
            assert_eq!(c.reseed, now.since(t(1)) >= delay, "at {now:?}");
        }
    }

    #[test]
    fn rounds_open_on_suspicion_and_poll_only_for_a_reason() {
        let mut off = four(RegroupParams::default());
        assert!(off.open_round(t(0), Why::Suspicion).is_none(), "disabled");
        let mut rg = four(fast());
        assert!(rg.open_round(t(0), Why::Poll).is_none(), "nothing to poll for");
        let opened = rg.open_round(t(0), Why::Suspicion).unwrap();
        let KernelMsg::RegroupPing {
            round,
            witness,
            witness_epoch,
        } = opened.ping
        else {
            panic!("not a ping: {:?}", opened.ping);
        };
        assert_eq!(round, 1);
        assert_eq!((witness, witness_epoch), (P0, 0), "no vote table: zeroes");
        assert!(opened.home_probe.is_none(), "no vote table: no testimony");
        assert!(rg.open_round(t(0), Why::Suspicion).is_none(), "one at a time");
        // Frozen by that round: the poll timer now opens the next.
        assert!(rg.conclude(P0, t(0)).unwrap().froze);
        assert!(rg.open_round(t(1), Why::Poll).is_some());
        // A vote table adds the home-node probe and gossips its witness.
        let mut votes = four(RegroupParams::quorum());
        let opened = votes.open_round(t(0), Why::Suspicion).unwrap();
        assert!(matches!(opened.ping, KernelMsg::RegroupPing { witness: P0, .. }));
        assert!(matches!(opened.home_probe, Some(KernelMsg::RegroupProbe { round: 1 })));
        // Unfrozen, but the witness was not in the last round: keep polling.
        votes.on_ack(1, P3, ack(103, 0, false), t(0));
        votes.on_ack(1, P1, ack(101, 0, false), t(0));
        let c = votes.conclude(P2, t(0)).unwrap();
        assert!(c.majority && !c.froze && c.keep_polling);
        assert!(votes.open_round(t(1), Why::Poll).is_some());
    }

    #[test]
    fn regroup_traffic_table() {
        let ping = |witness, witness_epoch| KernelMsg::RegroupPing {
            round: 9,
            witness,
            witness_epoch,
        };
        // Disabled: not even an ack.
        let mut off = four(RegroupParams::default());
        let heard = off.on_message(P0, 5, Pid(11), &ping(P1, 4), t(0));
        assert!(heard.reply.is_none() && heard.witness.is_none() && !heard.echo);
        // Count majority: acked with our epoch and freeze bit, no echo, and
        // witness gossip falls on deaf ears.
        let mut rg = four(fast());
        let heard = rg.on_message(P0, 5, Pid(11), &ping(P1, 4), t(0));
        let KernelMsg::RegroupAck {
            from_partition,
            epoch,
            round,
            frozen,
            witness,
            witness_epoch,
        } = heard.reply.unwrap()
        else {
            panic!("a ping is acked");
        };
        assert_eq!((from_partition, epoch, round), (P0, 5, 9), "the pinger's round");
        assert_eq!((frozen, witness, witness_epoch), (false, P0, 0));
        assert!(heard.witness.is_none() && !heard.echo);
        // A frozen side still acks, and says so.
        assert!(concluded(&mut rg, P0, &[], t(0)).froze);
        let heard = rg.on_message(P0, 5, Pid(11), &ping(P0, 0), t(1));
        assert!(matches!(heard.reply, Some(KernelMsg::RegroupAck { frozen: true, .. })));
        // Vote table: newer witness adopted and gossiped back, and the
        // pinger's round echoed.
        let mut votes = four(RegroupParams::quorum());
        let heard = votes.on_message(P2, 0, Pid(11), &ping(P3, 2), t(0));
        assert_eq!(heard.witness, Some((P3, 2)));
        assert!(heard.echo);
        let reply = heard.reply.unwrap();
        assert!(
            matches!(reply, KernelMsg::RegroupAck { witness: P3, witness_epoch: 2, .. }),
            "{reply:?}"
        );
        // An ack counts for the round it names, from the pid that sent it;
        // its gossip is heard too.
        let r = votes.begin_round(t(0));
        let acked = |round, witness_epoch| KernelMsg::RegroupAck {
            from_partition: P0,
            epoch: 8,
            round,
            frozen: false,
            witness: P1,
            witness_epoch,
        };
        let stale = votes.on_message(P2, 0, Pid(40), &acked(r + 1, 2), t(0));
        assert!(stale.reply.is_none() && stale.witness.is_none() && !stale.echo);
        let heard = votes.on_message(P2, 0, Pid(40), &acked(r, 5), t(0));
        assert_eq!(heard.witness, Some((P1, 5)));
        // Home-node testimony: never about ourselves.
        let report = |partition| KernelMsg::RegroupProbeAck {
            round: r,
            partition,
            alive: false,
        };
        votes.on_message(P2, 0, Pid(50), &report(P2), t(0));
        votes.on_message(P2, 0, Pid(51), &report(P3), t(0));
        let c = votes.conclude(P2, t(0)).unwrap();
        assert_eq!(votes.last_reachable, vec![P0, P2], "one ack, the stale one dropped");
        assert_eq!(c.dead, vec![P3]);
    }

    #[test]
    fn a_witness_ranking_is_taken_only_under_a_ripe_licence() {
        let mut rg = four(RegroupParams::quorum());
        let peers = [(2, false), (3, false)];
        rg.rank_witness(t(0), || panic!("no verdict yet: nobody is asked"));
        concluded(&mut rg, P1, &peers, t(0));
        rg.rank_witness(t(0), || panic!("a fresh majority is no licence"));
        // Ripe — and the witness p0 was never reachable: the conclusion
        // that ripens it moves the witness (no ranking yet: to the lowest
        // reachable), and p1, the lowest reachable, tells config.
        let mut now = t(0);
        let mut moved = None;
        while rg.licence(P0, now) != Licence::Granted {
            assert_eq!(moved, None, "not before the licence");
            now = now + SimDuration::from_millis(500);
            let c = concluded(&mut rg, P1, &peers, now);
            moved = c.witness_failover.map(|to| (to, c.report_witness));
        }
        assert_eq!(moved, Some((P1, Some((P1, 1)))));
        rg.rank_witness(now, || vec![P3, P2, P1]);
        assert_eq!(rg.witness_pref, vec![P3, P2, P1]);
    }
}
