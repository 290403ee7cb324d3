//! The Group Service Daemon (GSD).
//!
//! Paper Sec 4.3–4.4. One GSD runs per partition (on the partition's
//! server node) and is the keystone of both scalability and fault
//! tolerance:
//!
//! * **WD monitoring** — watch daemons on every partition node heartbeat
//!   over all NICs; the GSD analyzes the per-NIC pattern to detect and
//!   diagnose process, node, and network failures (Table 1).
//! * **Meta-group ring** — the GSDs of all partitions form a ring-structured
//!   meta-group (paper Fig 3). Each member heartbeats its successor over
//!   all NICs; the successor of a failed member diagnoses the failure and
//!   takes over: restarting the GSD in place (process fault) or migrating
//!   it — with its partition services — to a backup node (node fault).
//!   The first member is the Leader, the second the Princess; when the
//!   Leader fails the Princess takes over, and so on down the ring.
//!
//! Supervision of the partition's services (paper Fig 4) is the
//! [`federation`] layer's protocol; this actor only routes to its
//! `Supervisor` and executes what it answers.

use crate::federation::{self, Lapsed, Registered, Rejoin, Supervisor};
use crate::group::liveness::{self, Beat, Liveness, Silence, Watched};
use crate::group::registry::{kernel_factory_key, SharedRegistry};
use crate::group::wd::Wd;
use crate::nic_health::{HealthTransition, NicHealth};
use crate::params::KernelParams;
use crate::regroup::{AckInfo, Regroup, Verdict};
use crate::slow_detect::{SlowDetect, SlowTransition, Verdict as SlowVerdict};
use phoenix_proto::{
    CheckpointData, ClusterTopology, Event, EventPayload, EventType, KernelMsg, MemberInfo,
    NodeServices, PartitionId, RequestId, ServiceKind,
};
use phoenix_sim::{
    Actor, Ctx, Diagnosis, FaultTarget, NicId, NodeId, Pid, RecoveryAction, SimTime, TraceEvent,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const TOK_SCAN: u64 = 1;
const TOK_TICK: u64 = 2;
/// Retry timer for the directory query a respawned GSD sends to config.
const TOK_DIR_RETRY: u64 = 3;
/// Regroup round window: when it fires, the round concludes with
/// whatever acks arrived.
const TOK_REGROUP: u64 = 4;
/// Heal-probe cadence while frozen: opens a fresh regroup round.
const TOK_REGROUP_RETRY: u64 = 5;
/// Ticks over which a changed directory entry is re-asserted to config
/// under a retrying policy (~2 s at the fast heartbeat interval — enough
/// to straddle any loss burst a chaos schedule can generate).
const DIR_RESEND_TICKS: u32 = 20;

/// Telemetry key for a `gsd.takeover` mark/measure/unmark. Scoped by the
/// observing pid, the partition, AND a per-plan sequence number: one
/// leader can have two takeover plans for the same partition in flight
/// (a diagnosis-driven migrate racing its own rescue sweep), and a plan
/// that aborts its spawn must not retract the other plan's pending mark —
/// that would silently swallow the surviving plan's measure. The mark and
/// its matching measure/unmark always happen on the same actor, so pid
/// scoping is safe; the plan id travels inside `RestartWhat`.
fn takeover_key(observer: Pid, partition: PartitionId, plan: u64) -> u64 {
    phoenix_telemetry::key(&[3, partition.0 as u64, observer.0, plan])
}
const OP_BASE: u64 = 100;

/// Fixed-literal gauge keys (the telemetry registry requires `&'static
/// str`); clusters model up to a handful of parallel networks.
fn nic_health_gauge(nic: NicId) -> &'static str {
    match nic.0 {
        0 => "nic.health.nic0",
        1 => "nic.health.nic1",
        2 => "nic.health.nic2",
        _ => "nic.health.nicN",
    }
}

/// Per-node fail-slow verdict gauges, exported by the meta-group leader
/// (0 = healthy, 1 = slow, 2 = dead). Fixed literals for the same reason
/// as the NIC gauges; simulated clusters use small node ids.
fn slow_verdict_gauge(node: NodeId) -> &'static str {
    match node.0 {
        0 => "slow.verdict.node0",
        1 => "slow.verdict.node1",
        2 => "slow.verdict.node2",
        3 => "slow.verdict.node3",
        4 => "slow.verdict.node4",
        5 => "slow.verdict.node5",
        6 => "slow.verdict.node6",
        7 => "slow.verdict.node7",
        _ => "slow.verdict.nodeN",
    }
}

/// Per-node slowness-score gauges (smoothed RTT over baseline; 1.0 = at
/// baseline), exported alongside the verdicts.
fn slow_score_gauge(node: NodeId) -> &'static str {
    match node.0 {
        0 => "slow.score.node0",
        1 => "slow.score.node1",
        2 => "slow.score.node2",
        3 => "slow.score.node3",
        4 => "slow.score.node4",
        5 => "slow.score.node5",
        6 => "slow.score.node6",
        7 => "slow.score.node7",
        _ => "slow.score.nodeN",
    }
}

/// How this GSD instance came to exist.
enum GsdInit {
    /// Spawned by the boot driver; wiring arrives in the `Boot` message.
    Boot,
    /// Spawned by a ring neighbour taking over a failed member.
    Respawn {
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        /// The rescuer's membership epoch at spawn time. The respawn
        /// adopts it so its own announcements are credible: a rescued
        /// partition that sorts to ring position 0 *is* the leader and
        /// broadcasts directly — from epoch 0 every peer would discard
        /// the broadcast as stale and re-rescue forever.
        epoch: u64,
        action: RecoveryAction,
    },
}

/// One watched daemon — a partition node's WD or the ring predecessor —
/// and its heartbeat state.
struct Peer {
    watched: Watched,
    /// The daemon itself: what a process diagnosis names.
    pid: Pid,
    node: NodeId,
    /// The PPM agent on `node`, probed when the daemon falls silent.
    ppm: Pid,
    /// Ring only: the predecessor's coordinates as of the role refresh
    /// that started the watch — the takeover hint.
    member: Option<MemberInfo>,
    live: Liveness,
}

/// An in-flight liveness probe session.
struct ProbeSession {
    watched: Watched,
    target_ppm: Pid,
    rounds_sent: u32,
    responses: u32,
    /// When the most recent probe round was sent; each response consumes
    /// it as an RTT sample for the fail-slow detector.
    last_round_at: Option<SimTime>,
    /// Telemetry span covering the whole session (open → resolution);
    /// aborted (not closed) if this GSD dies mid-probe.
    span: phoenix_telemetry::SpanId,
}

/// Work scheduled for a later virtual instant.
enum DelayedOp {
    ProbeRound(u64),
    ProbeTimeout(u64),
    /// Network-failure analysis completes: the per-NIC heartbeat pattern
    /// of a watched node, or introspection of this node's own interface.
    NicDiag {
        node: NodeId,
        nic: NicId,
    },
    /// Local (same-host) failure classification completes.
    LocalDiagSvc(Lapsed),
    /// Execute a scheduled restart/migration.
    Restart(RestartWhat),
}

enum RestartWhat {
    Svc(Lapsed),
    /// Respawn a failed member's GSD on `to`: its old host for an
    /// in-place restart, a backup node for a migration (`action` says
    /// which).
    GsdTakeover {
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        epoch: u64,
        to: NodeId,
        action: RecoveryAction,
        plan: u64,
    },
    /// Leader safety net: a partition has had no meta-group member for a
    /// whole tick — whoever planned its takeover died before executing
    /// it. Decide restart-vs-migrate at fire time.
    GsdRescue { partition: PartitionId, plan: u64 },
}

/// The GSD actor.
pub struct Gsd {
    partition: PartitionId,
    params: KernelParams,
    topology: ClusterTopology,
    config: Pid,
    registry: SharedRegistry,
    init: Option<GsdInit>,

    local: MemberInfo,
    members: Vec<MemberInfo>,
    epoch: u64,
    node_daemons: HashMap<NodeId, NodeServices>,
    /// Watch-daemon pids for *every* cluster node (not just our own
    /// partition's): regroup rounds probe a silent partition's home-node
    /// WDs for dead-GSD testimony. Seeded from the boot/respawn
    /// directory; foreign entries refreshed by config's
    /// `DirectoryUpdateNode` fan-out (vote-table profiles only).
    cluster_wds: HashMap<NodeId, Pid>,

    /// Every daemon this GSD watches, in scan order: the partition's WDs
    /// by node, then the ring predecessor (at most one).
    peers: Vec<Peer>,
    supervisor: Supervisor,
    my_nic_known: Vec<bool>,
    /// EWMA delivery-health per parallel network, fed by heartbeat seq
    /// gaps (WD and meta-ring). Inert unless `params.ft.nic.enabled`.
    nic_health: NicHealth,

    probes: BTreeMap<u64, ProbeSession>,
    ops: HashMap<u64, DelayedOp>,
    next_id: u64,
    last_role: &'static str,
    monitoring: bool,
    /// Last known member info per partition (rescue hints).
    last_known: HashMap<PartitionId, MemberInfo>,
    /// Partitions the leader is currently rescuing.
    rescuing: std::collections::HashSet<PartitionId>,
    /// Monotone id for takeover plans; keys their telemetry marks so
    /// overlapping plans for one partition cannot clobber each other.
    takeover_seq: u64,
    /// Re-announce ourselves to the leader at the next tick (set when a
    /// membership broadcast was missing us).
    needs_rejoin: bool,
    /// Ring-heartbeat sequence counter (bumped once per tick; carried in
    /// every `MetaHeartbeat` so successors can discard duplicates).
    hb_seq: u64,
    /// Send attempts for the respawn-time directory query (retried with
    /// backoff when the retry policy allows — a lost query or reply must
    /// not strand the takeover forever).
    dir_attempts: u32,
    /// Node-daemon directory entries this GSD changed (WD restarts),
    /// re-asserted to config for a bounded number of ticks under a
    /// retrying policy: the `DirectoryUpdateNode` push is fire-and-forget,
    /// and a lost one would leave the config directory pointing at a dead
    /// pid forever. Entries are dropped when config pushes a fresher one.
    dir_resend_nodes: BTreeMap<NodeId, (NodeServices, u32)>,
    /// Remaining ticks over which our own `DirectoryUpdate` (membership
    /// announce after a takeover/migration) is re-asserted to config.
    dir_resend_local: u32,
    /// MSCS-style quorum regroup state (inert unless
    /// `params.ft.regroup.enabled`).
    regroup: Regroup,
    /// Telemetry span covering a frozen episode (freeze → thaw); aborted
    /// if this GSD dies frozen (e.g. yields to its replacement).
    frozen_span: Option<phoenix_telemetry::SpanId>,
    /// Span covering the currently collecting regroup round — a child of
    /// `frozen_span` while frozen, so a post-mortem span tree shows the
    /// heal-probing rounds nested inside the frozen episode.
    round_span: Option<phoenix_telemetry::SpanId>,
    /// Latency-aware fail-slow detector: per-peer RTT EWMA + deviation
    /// scores from slow pings, probe rounds, and heartbeat echoes. Inert
    /// unless `params.ft.slow.enabled`.
    slow: SlowDetect,
    /// Outstanding slow pings: seq → (target node, send time).
    slow_ping_sent: HashMap<u64, (NodeId, SimTime)>,
    slow_ping_seq: u64,
    /// Last time each peer answered *anything* RTT-measurable. A Slow
    /// verdict only vetoes a dead diagnosis while this is fresh — once
    /// pongs stop, the veto lapses and fail-stop diagnosis proceeds.
    slow_last_seen: HashMap<NodeId, SimTime>,
    /// Leader-maintained quarantine set (partitions whose server node is
    /// diagnosed Slow): demoted to the ring tail, skipped for new-service
    /// placement. Adopted by everyone via `MetaQuarantine`.
    quarantined: BTreeSet<PartitionId>,
    /// Epoch guard for `MetaQuarantine` broadcasts (stale ones ignored).
    quarantine_epoch: u64,
    /// Quarantine candidates from the previous maintenance tick. An
    /// addition must survive two consecutive ticks: when this observer is
    /// the degraded one, its Slow verdicts cross their streaks a ping
    /// round apart, so at the first tick the strict-majority `gray_self`
    /// veto can lag the earliest verdicts — one tick later the inversion
    /// is complete and the veto holds. A healthy leader watching a
    /// genuinely slow member sees a stable candidate both ticks.
    slow_pending: BTreeSet<PartitionId>,
    /// Set while this GSD is handing its partition to a healthier node
    /// (slow-drain): suppresses double-spawns and gates orphan-service
    /// cleanup when the replacement's membership arrives.
    draining: bool,
    /// Set on a drain-spawned replacement: this instance is already the
    /// product of a slow-drain, so a quarantine entry that merely has not
    /// warmed out yet must not bounce it to a third node. Cleared when
    /// the partition leaves the quarantine set.
    drained: bool,
}

impl Gsd {
    /// Boot-time GSD.
    pub fn new(
        partition: PartitionId,
        params: KernelParams,
        topology: ClusterTopology,
        config: Pid,
        registry: SharedRegistry,
    ) -> Self {
        Self::build(partition, params, topology, config, registry, GsdInit::Boot)
    }

    /// A GSD to replace a failed (or draining) member's, configured like
    /// this one. `hint` is the replaced member's info (for an in-place
    /// restart its service pids are still valid); `members` is the
    /// takeover-time membership snapshot (replaced member already removed).
    fn replacement(
        &self,
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        epoch: u64,
        action: RecoveryAction,
    ) -> Self {
        let init = GsdInit::Respawn {
            hint,
            members,
            epoch,
            action,
        };
        let (params, topology) = (self.params.clone(), self.topology.clone());
        let (config, registry) = (self.config, self.registry.clone());
        Self::build(hint.partition, params, topology, config, registry, init)
    }

    fn build(
        partition: PartitionId,
        params: KernelParams,
        topology: ClusterTopology,
        config: Pid,
        registry: SharedRegistry,
        init: GsdInit,
    ) -> Self {
        let nic_health = NicHealth::new(params.ft.nic.clone(), 0);
        let regroup = Regroup::new(params.ft.regroup.clone());
        let slow = SlowDetect::new(params.ft.slow.clone());
        Gsd {
            partition,
            params,
            topology,
            config,
            registry,
            init: Some(init),
            local: MemberInfo::unwired(partition),
            members: Vec::new(),
            epoch: 0,
            node_daemons: HashMap::new(),
            cluster_wds: HashMap::new(),
            peers: Vec::new(),
            supervisor: Supervisor::default(),
            my_nic_known: Vec::new(),
            nic_health,
            probes: BTreeMap::new(),
            ops: HashMap::new(),
            next_id: 0,
            last_role: "",
            monitoring: false,
            last_known: HashMap::new(),
            rescuing: std::collections::HashSet::new(),
            takeover_seq: 0,
            needs_rejoin: false,
            hb_seq: 0,
            dir_attempts: 0,
            dir_resend_nodes: BTreeMap::new(),
            dir_resend_local: 0,
            regroup,
            frozen_span: None,
            round_span: None,
            slow,
            slow_ping_sent: HashMap::new(),
            slow_ping_seq: 0,
            slow_last_seen: HashMap::new(),
            quarantined: BTreeSet::new(),
            quarantine_epoch: 0,
            slow_pending: BTreeSet::new(),
            draining: false,
            drained: false,
        }
    }

    // ---- identity & ring geometry ---------------------------------------

    fn sorted(&mut self) {
        // Quarantined partitions sink to the ring tail so they can never
        // hold leader (index 0) or princess (index 1) while degraded.
        // With an empty set this is the classic lowest-partition order.
        let q = self.quarantined.clone();
        self.members
            .sort_by_key(|m| (q.contains(&m.partition), m.partition));
        self.members.dedup_by_key(|m| m.partition);
    }

    /// Keep our own entry in the member list authoritative.
    fn patch_own_entry(&mut self) {
        let local = self.local;
        for m in &mut self.members {
            if m.partition == local.partition {
                *m = local;
            }
        }
    }

    fn my_index(&self) -> Option<usize> {
        self.members
            .iter()
            .position(|m| m.partition == self.partition)
    }

    /// The ring successor (whom I heartbeat).
    fn successor(&self) -> Option<MemberInfo> {
        let i = self.my_index()?;
        let n = self.members.len();
        if n < 2 {
            return None;
        }
        Some(self.members[(i + 1) % n])
    }

    /// The ring predecessor (whom I monitor).
    fn predecessor(&self) -> Option<MemberInfo> {
        let i = self.my_index()?;
        let n = self.members.len();
        if n < 2 {
            return None;
        }
        Some(self.members[(i + n - 1) % n])
    }

    /// "Leader" / "princess" / "member" per ring position (paper Fig 3).
    fn role(&self) -> &'static str {
        match self.my_index() {
            Some(0) => "leader",
            Some(1) => "princess",
            Some(_) => "member",
            None => "orphan",
        }
    }

    fn leader(&self) -> Option<MemberInfo> {
        self.members.first().copied()
    }

    // ---- read-only introspection (chaos / invariant harnesses) ----------
    //
    // Reached from outside the simulation through
    // `World::actor_as::<Gsd>(pid)`; nothing here mutates state.

    /// Partition this GSD serves.
    pub fn partition_id(&self) -> PartitionId {
        self.partition
    }

    /// Current ring role: "leader" / "princess" / "member" / "orphan" —
    /// or "frozen" while this GSD sits on a minority island. A frozen
    /// ex-leader is *not* a leader: the whole point of the regroup
    /// protocol is that only the majority side may report one.
    pub fn role_name(&self) -> &'static str {
        if self.regroup.frozen() {
            return "frozen";
        }
        self.role()
    }

    /// The partition this GSD believes leads the meta-group.
    pub fn leader_view(&self) -> Option<PartitionId> {
        self.leader().map(|m| m.partition)
    }

    /// Current witness view when the vote table is active:
    /// `(witness partition, witness epoch)`. Chaos invariants and the
    /// quorum bench read it to evaluate the weighted win rule the same
    /// way the GSDs themselves do.
    pub fn witness_view(&self) -> Option<(PartitionId, u64)> {
        self.regroup
            .witness()
            .map(|w| (w, self.regroup.witness_epoch()))
    }

    /// Effective takeover delay currently enforced by the regroup layer.
    pub fn effective_takeover_delay(&self) -> phoenix_sim::SimDuration {
        self.regroup.effective_takeover_delay()
    }

    /// Test/introspection: probe sessions opened and not yet resolved.
    pub fn probes_in_flight(&self) -> usize {
        self.probes.len()
    }

    fn refresh_roles(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.sorted();
        phoenix_telemetry::gauge_set("gsd.meta_group.members", self.members.len() as f64);
        for m in &self.members {
            self.last_known.insert(m.partition, *m);
        }
        let present: std::collections::HashSet<PartitionId> =
            self.members.iter().map(|m| m.partition).collect();
        self.rescuing.retain(|p| !present.contains(p));
        let role = self.role();
        if role != self.last_role {
            self.last_role = role;
            ctx.trace(TraceEvent::RoleChange {
                pid: ctx.pid(),
                role,
            });
        }
        // Reset predecessor tracking if the predecessor changed.
        let pred = self.predecessor();
        let watching = self
            .peers
            .last()
            .filter(|p| matches!(p.watched, Watched::Ring(_)))
            .map(|p| p.pid);
        if watching != pred.map(|m| m.gsd) {
            if watching.is_some() {
                self.peers.pop();
            }
            // Ring tracks always get a slot: roles can refresh before
            // wiring has counted this node's interfaces.
            let nics = self.my_nic_known.len().max(1);
            self.peers.extend(pred.map(|member| Peer {
                watched: Watched::Ring(member.partition),
                pid: member.gsd,
                node: member.node,
                ppm: member.host_ppm,
                member: Some(member),
                live: Liveness::new(nics, ctx.now()),
            }));
        }
    }

    // ---- the watch table ---------------------------------------------------

    /// Where `watched` sits in the table (`Ok`), or would (`Err`).
    fn peer_slot(&self, watched: Watched) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&watched, |p| p.watched)
    }

    fn peer_of(&self, watched: Watched) -> Option<&Peer> {
        self.peer_slot(watched).ok().map(|i| &self.peers[i])
    }

    fn peer_of_mut(&mut self, watched: Watched) -> Option<&mut Peer> {
        self.peer_slot(watched).ok().map(|i| &mut self.peers[i])
    }

    /// Start watching `node`'s watch daemon `wd` from scratch, replacing
    /// any track the node already had.
    fn watch_wd(&mut self, node: NodeId, wd: Pid, now: SimTime) {
        let peer = Peer {
            watched: Watched::Wd(node),
            pid: wd,
            node,
            ppm: self.node_daemons.get(&node).map_or(Pid(0), |n| n.ppm),
            member: None,
            live: Liveness::new(self.my_nic_known.len(), now),
        };
        match self.peer_slot(peer.watched) {
            Ok(i) => self.peers[i] = peer,
            Err(i) => self.peers.insert(i, peer),
        }
    }

    // ---- small utilities -------------------------------------------------

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn schedule(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        after: phoenix_sim::SimDuration,
        op: DelayedOp,
    ) {
        let id = self.fresh_id();
        self.ops.insert(id, op);
        ctx.set_timer(after, OP_BASE + id);
    }

    fn publish(&self, ctx: &mut Ctx<'_, KernelMsg>, etype: EventType, origin: NodeId, payload: EventPayload) {
        ctx.send(
            self.local.event,
            KernelMsg::EsPublish {
                event: Event::new(etype, origin, payload),
            },
        );
    }

    /// The healthiest interface usable toward `peer` (up at both ends), or
    /// `None` when the NIC-health layer is disabled — callers then fall
    /// back to `ctx.send`'s default first-up-NIC routing, keeping the
    /// paper pipeline byte-identical.
    fn best_nic_for(&self, ctx: &Ctx<'_, KernelMsg>, peer: NodeId) -> Option<NicId> {
        if !self.nic_health.enabled() {
            return None;
        }
        let own = ctx.node();
        self.nic_health
            .best_where(|nic| ctx.nic_is_up(own, nic) && ctx.nic_is_up(peer, nic))
    }

    /// Single-path control-plane send preferring the healthiest NIC.
    fn send_routed(&self, ctx: &mut Ctx<'_, KernelMsg>, to: Pid, peer: NodeId, msg: KernelMsg) {
        match self.best_nic_for(ctx, peer) {
            Some(nic) => ctx.send_via(to, nic, msg),
            None => ctx.send(to, msg),
        }
    }

    fn broadcast_meta(&self, ctx: &mut Ctx<'_, KernelMsg>, msg: KernelMsg) {
        for m in &self.members {
            if m.partition != self.partition {
                self.send_routed(ctx, m.gsd, m.node, msg.clone());
            }
        }
    }

    fn push_partition_view(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        phoenix_telemetry::counter_add("gsd.partition_view.pushes", 1);
        let view = KernelMsg::PartitionView {
            members: self.members.clone(),
            local: self.local,
        };
        for pid in [self.local.event, self.local.bulletin, self.local.checkpoint] {
            if pid != Pid(0) {
                ctx.send(pid, view.clone());
            }
        }
        // Supervised user-environment services also get the view.
        for (_, pid) in self.supervisor.roster() {
            ctx.send(pid, view.clone());
        }
        if let Some(spec) = self.topology.partition(self.partition) {
            for node in spec.all_nodes() {
                if let Some(ns) = self.node_daemons.get(&node) {
                    ctx.send(ns.wd, view.clone());
                    ctx.send(ns.detector, view.clone());
                }
            }
        }
    }

    /// The membership as this GSD holds it, at its current epoch.
    fn membership_msg(&self) -> KernelMsg {
        KernelMsg::MetaMembership {
            epoch: self.epoch,
            members: self.members.clone().into(),
        }
    }

    fn announce_membership_change(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Route the change through the leader (ourselves, perhaps).
        if let Some(leader) = self.leader() {
            if leader.partition == self.partition {
                self.epoch += 1;
                self.broadcast_meta(ctx, self.membership_msg());
            } else {
                self.send_routed(
                    ctx,
                    leader.gsd,
                    leader.node,
                    KernelMsg::MetaJoin { member: self.local },
                );
            }
        }
        ctx.send(
            self.config,
            KernelMsg::DirectoryUpdate {
                partition: self.partition,
                member: self.local,
            },
        );
        if self.params.rpc.retries_enabled() {
            self.dir_resend_local = DIR_RESEND_TICKS;
        }
        self.push_partition_view(ctx);
    }

    // ---- wiring ----------------------------------------------------------

    /// Ask config for the current directory (respawn wiring). Under a
    /// retrying policy a lost query or reply re-sends with backoff —
    /// otherwise the takeover would stall forever on a single lost message.
    fn send_directory_query(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Under NIC-health routing each resend rotates one step down the
        // health ranking: a query whose preferred path eats packets escapes
        // to an independent network instead of re-rolling the same dice.
        let via = if self.nic_health.enabled() && self.nic_health.nic_count() > 0 {
            let ranked = self.nic_health.ranked();
            Some(ranked[self.dir_attempts as usize % ranked.len()])
        } else {
            None
        };
        let query = KernelMsg::CfgQueryDirectory { req: RequestId(0) };
        match via {
            Some(nic) => ctx.send_via(self.config, nic, query),
            None => ctx.send(self.config, query),
        }
        self.dir_attempts += 1;
        if self.dir_attempts > 1 {
            phoenix_telemetry::counter_add("rpc.retries", 1);
        }
        if self.params.rpc.retries_enabled() {
            if let Some(delay) = self.params.rpc.delay(self.dir_attempts, ctx.rng()) {
                ctx.set_timer(delay, TOK_DIR_RETRY);
            } else if self.regroup.enabled() && self.init.is_some() {
                // Retry budget exhausted while still unwired. An island
                // split can out-last every bounded attempt, and a respawned
                // GSD that gives up on wiring is a permanent orphan — keep
                // asking at heartbeat cadence until the directory answers.
                ctx.set_timer(self.params.ft.hb_interval, TOK_DIR_RETRY);
            }
        }
    }

    fn wire_from_boot(&mut self, ctx: &mut Ctx<'_, KernelMsg>, dir: &phoenix_proto::ServiceDirectory) {
        if let Some(me) = dir.partition(self.partition) {
            self.local = *me;
            self.local.gsd = ctx.pid();
        }
        self.members = dir.partitions.clone();
        // The directory was built before spawn order.
        self.patch_own_entry();
        self.ingest_node_daemons(dir.nodes.iter());
        self.finish_wiring(ctx);
    }

    fn ingest_node_daemons<'a, I: Iterator<Item = &'a NodeServices>>(&mut self, nodes: I) {
        let Some(spec) = self.topology.partition(self.partition) else {
            return;
        };
        let mine = spec.all_nodes();
        for ns in nodes {
            self.cluster_wds.insert(ns.node, ns.wd);
            if mine.contains(&ns.node) {
                self.node_daemons.insert(ns.node, *ns);
            }
        }
    }

    fn finish_wiring(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Quorum denominator: the *configured* partition set. The live
        // membership must not shrink the bar, or a minority island would
        // promote itself to "majority of what I can still see". This also
        // resolves the initial witness when the vote table is on.
        let parts: Vec<PartitionId> = self.topology.partitions.iter().map(|p| p.id).collect();
        self.regroup.set_partitions(&parts);
        let nics = ctx.nic_count(ctx.node());
        self.my_nic_known = (0..nics)
            .map(|i| ctx.nic_is_up(ctx.node(), NicId(i as u8)))
            .collect();
        if self.nic_health.nic_count() != nics {
            self.nic_health = NicHealth::new(self.params.ft.nic.clone(), nics);
        }
        if let Some(ns) = self.node_daemons.get(&ctx.node()) {
            self.local.host_ppm = ns.ppm;
        }
        self.local.node = ctx.node();

        // Initialize WD tracking for every partition node.
        let now = ctx.now();
        if let Some(spec) = self.topology.partition(self.partition).cloned() {
            for node in spec.all_nodes() {
                // A track config already pushed (`DirectoryUpdateNode`
                // ahead of the wiring reply) stays as it is.
                let wd = self.node_daemons.get(&node).map(|ns| ns.wd);
                if let (Some(wd), None) = (wd, self.peer_of(Watched::Wd(node))) {
                    self.watch_wd(node, wd, now);
                }
            }
        }

        self.refresh_roles(ctx);
        self.monitoring = true;
        ctx.set_timer(self.params.ft.check_interval, TOK_SCAN);
        ctx.set_timer(self.params.ft.hb_interval, TOK_TICK);
        // Register as an event supplier (fault/recovery events).
        ctx.send(
            self.local.event,
            KernelMsg::EsRegisterSupplier {
                supplier: ctx.pid(),
                types: vec![
                    EventType::NodeFault,
                    EventType::NodeRecovery,
                    EventType::NetworkFault,
                    EventType::NetworkRecovery,
                    EventType::NetworkDegraded,
                    EventType::ServiceFault,
                    EventType::ServiceRecovery,
                ],
            },
        );
        // Announce initial ring heartbeat immediately so successors have a
        // fresh baseline.
        self.send_meta_heartbeats(ctx);
    }

    fn wire_from_respawn(&mut self, ctx: &mut Ctx<'_, KernelMsg>, dir: &phoenix_proto::ServiceDirectory) {
        let Some(GsdInit::Respawn {
            hint,
            members,
            epoch,
            action,
        }) = self.init.take()
        else {
            return;
        };
        self.ingest_node_daemons(dir.nodes.iter());
        self.members = members;
        self.local = hint;
        self.local.gsd = ctx.pid();
        self.local.node = ctx.node();
        self.epoch = epoch;

        // Migrated: the whole server node died, rebuild the partition
        // services here. An *in-place* rescue needs the same treatment
        // when the host crashed and rebooted between diagnosis and this
        // respawn — the old service pids died with the node even though
        // the node reports up again (a liveness check of co-resident
        // pids, not remote omniscience: in-place means they share our
        // node).
        let services_died = [hint.checkpoint, hint.event, hint.bulletin]
            .iter()
            .any(|&p| p == Pid(0) || !ctx.process_is_alive(p));
        let rebuild = matches!(action, RecoveryAction::Migrated(_)) || services_died;
        if rebuild {
            // Checkpoint first so the others can restore from it.
            for kind in [
                ServiceKind::Checkpoint,
                ServiceKind::Event,
                ServiceKind::DataBulletin,
            ] {
                let key = kernel_factory_key(kind, self.partition);
                let pid = self.respawn_service(ctx, kind, &key, action);
                if let Some(slot) = self.local.service_mut(kind) {
                    *slot = pid.unwrap_or(Pid(0));
                }
            }
        }

        // Upsert ourselves into the membership and tell the world.
        let old_gsd = hint.gsd;
        self.members.retain(|m| m.partition != self.partition);
        self.members.push(self.local);
        self.finish_wiring(ctx);
        // Adopt the surviving services: they are still bound to the GSD we
        // replace, and if that instance died *frozen* (yielded while a
        // regroup verdict had it suppressed) its last freeze fan-out is
        // stale forever — nobody else will ever thaw them. Rebind them to
        // us and clear the flag; we start unfrozen, and our own regroup
        // will re-freeze them if this island really has lost quorum.
        if !rebuild {
            self.push_partition_view(ctx);
            self.freeze_fanout(ctx, false);
        }
        self.announce_membership_change(ctx);
        // Make sure the instance we replace (if it is somehow still
        // running — false takeover) learns about us and yields.
        if old_gsd != ctx.pid() && old_gsd != Pid(0) {
            ctx.send(
                old_gsd,
                KernelMsg::MetaMembership {
                    epoch: self.epoch + 1,
                    members: self.members.clone().into(),
                },
            );
        }

        // Restore the user-environment supervision roster.
        federation::ck_load(ctx, &self.local, ServiceKind::Group);

        ctx.trace(TraceEvent::Recovered {
            target: FaultTarget::Process(ctx.pid()),
            action,
        });
        self.publish(
            ctx,
            EventType::ServiceRecovery,
            ctx.node(),
            EventPayload::Service(ServiceKind::Group, ctx.node()),
        );
    }

    /// Build a supervised service's replacement from its factory and start
    /// it on this node. The replacement registers itself (`SvcRegister`),
    /// which is what updates `local` and tells the world.
    fn respawn_service(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        kind: ServiceKind,
        factory: &str,
        action: RecoveryAction,
    ) -> Option<Pid> {
        let args = federation::respawn_args(kind, &self.local, &self.members, action, &self.params);
        let actor = self.registry.borrow_mut().build(factory, &args)?;
        Some(ctx.spawn(ctx.node(), actor))
    }

    // ---- scanning --------------------------------------------------------

    fn stale(&self, now: SimTime, last: SimTime) -> bool {
        liveness::stale(now, last, liveness::window(&self.params.ft))
    }

    /// Detect→diagnose telemetry key for a suspicion of `watched`.
    fn suspicion_key(watched: Watched) -> u64 {
        match watched {
            Watched::Wd(node) => phoenix_telemetry::key(&[1, node.0 as u64]),
            Watched::Ring(partition) => phoenix_telemetry::key(&[2, partition.0 as u64]),
        }
    }

    /// Has any NIC of the probed peer produced a fresh heartbeat since the
    /// probe started? Used by the probe-abort path.
    fn probe_target_fresh(&self, watched: Watched, now: SimTime) -> bool {
        let window = liveness::window(&self.params.ft);
        self.peer_of(watched)
            .is_some_and(|p| p.live.any_fresh(now, window))
    }

    /// Suspicion cleared: beats resumed while the probe was in flight, so
    /// they were lost in the network, not stopped at the source. Ends the
    /// session without a diagnosis (no trace events — the paper pipeline
    /// never reaches this state, so traces stay byte-identical).
    fn abort_probe(&mut self, watched: Watched) {
        phoenix_telemetry::counter_add("gsd.suspicion.aborted", 1);
        if let Some(p) = self.peer_of_mut(watched) {
            p.live.end_probe(false);
        }
        // Retract the detect→diagnose mark stamped at suspicion time — the
        // suspicion was false, so there is no diagnose latency to measure
        // and the mark must not leak.
        phoenix_telemetry::unmark("gsd.detect_to_diagnose", Self::suspicion_key(watched));
    }

    fn scan(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        self.scan_peers(ctx, now);
        for lapsed in self.supervisor.scan(now, liveness::window(&self.params.ft)) {
            ctx.trace(TraceEvent::FaultDetected {
                observer: ctx.pid(),
                target: FaultTarget::Process(lapsed.pid),
            });
            let delay = self.params.ft.local_diag_delay;
            self.schedule(ctx, delay, DelayedOp::LocalDiagSvc(lapsed));
        }
    }

    /// Judge every watched daemon, in table order: the scan order decides
    /// the order probes are sent (and suspicion marks stamped) in, and the
    /// event queue and the seeded network draws depend on it.
    fn scan_peers(&mut self, ctx: &mut Ctx<'_, KernelMsg>, now: SimTime) {
        let own_node = ctx.node();
        let window = liveness::window(&self.params.ft);
        for i in 0..self.peers.len() {
            let peer = &mut self.peers[i];
            let (watched, pid, node, ppm) = (peer.watched, peer.pid, peer.node, peer.ppm);
            match peer
                .live
                .silence(now, window, |nic| ctx.nic_is_up(own_node, nic))
            {
                Silence::None => {}
                Silence::Total => {
                    // Every interface silent: process or node failure;
                    // probe the node's PPM agent to find out.
                    ctx.trace(TraceEvent::FaultDetected {
                        observer: ctx.pid(),
                        target: FaultTarget::Process(pid),
                    });
                    phoenix_telemetry::counter_add("gsd.faults.detected", 1);
                    phoenix_telemetry::counter_add("gsd.suspicion.raised", 1);
                    phoenix_telemetry::mark("gsd.detect_to_diagnose", Self::suspicion_key(watched));
                    let ring = matches!(watched, Watched::Ring(_));
                    let timeout = if ring {
                        self.params.ft.meta_node_probe_timeout
                    } else {
                        self.params.ft.wd_node_probe_timeout
                    };
                    self.start_probe(ctx, watched, ppm, timeout);
                    if ring {
                        // A silent ring predecessor is exactly what a
                        // partition looks like from here: open a regroup
                        // round alongside the probe. The round concludes
                        // before the probe pipeline can ripen into a
                        // takeover, so the quorum verdict is in first.
                        self.start_regroup_round(ctx);
                    }
                }
                Silence::Partial(nics) => {
                    // Partial silence: network failure on those interfaces.
                    for nic in nics {
                        ctx.trace(TraceEvent::FaultDetected {
                            observer: ctx.pid(),
                            target: FaultTarget::Nic(node, nic),
                        });
                        self.schedule(
                            ctx,
                            self.params.ft.nic_analysis_delay,
                            DelayedOp::NicDiag { node, nic },
                        );
                    }
                }
            }
        }
    }

    // ---- probes ----------------------------------------------------------

    fn start_probe(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        watched: Watched,
        target_ppm: Pid,
        timeout: phoenix_sim::SimDuration,
    ) {
        let id = self.fresh_id();
        let span = phoenix_telemetry::span_start("gsd.probe.session", "gsd", ctx.node().0);
        self.probes.insert(
            id,
            ProbeSession {
                watched,
                target_ppm,
                rounds_sent: 0,
                responses: 0,
                last_round_at: None,
                span,
            },
        );
        // First probe round fires after one spacing; the paper's process
        // diagnosing time ≈ rounds × spacing.
        let spacing = self.params.ft.probe_round_interval;
        self.schedule_probe_round(ctx, id, spacing);
        self.schedule(ctx, timeout, DelayedOp::ProbeTimeout(id));
    }

    fn schedule_probe_round(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        session: u64,
        after: phoenix_sim::SimDuration,
    ) {
        let id = self.fresh_id();
        self.ops.insert(id, DelayedOp::ProbeRound(session));
        ctx.set_timer(after, OP_BASE + id);
    }

    fn probe_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some(s) = self.probes.get_mut(&session) else {
            return;
        };
        if s.rounds_sent >= self.params.ft.probe_rounds {
            return;
        }
        s.rounds_sent += 1;
        s.last_round_at = Some(ctx.now());
        let target = s.target_ppm;
        let watched = s.watched;
        phoenix_telemetry::counter_add("gsd.probes.sent", 1);
        phoenix_telemetry::mark("gsd.probe.rtt", phoenix_telemetry::key(&[session]));
        // Probes are single-path: route them over the healthiest usable
        // interface so a degraded NIC cannot eat the very traffic that
        // decides whether a silent peer is dead.
        let peer = self.peer_of(watched).map(|p| p.node);
        let req = KernelMsg::ProbeReq { req: RequestId(session) };
        match peer.and_then(|p| self.best_nic_for(ctx, p)) {
            Some(nic) => ctx.send_via(target, nic, req),
            None => ctx.send(target, req),
        }
        let spacing = self.params.ft.probe_round_interval;
        self.schedule_probe_round(ctx, session, spacing);
    }

    fn on_probe_resp(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some(s) = self.probes.get_mut(&session) else {
            return;
        };
        phoenix_telemetry::measure(
            "gsd.probe.rtt",
            "gsd",
            ctx.node().0,
            phoenix_telemetry::key(&[session]),
        );
        s.responses += 1;
        // One RTT sample per probe round (take() so a duplicate response
        // in the same round cannot double-count).
        let sent_at = s.last_round_at.take();
        let watched = s.watched;
        let done = s.responses >= self.params.ft.probe_rounds;
        if done {
            phoenix_telemetry::span_end(s.span);
            self.probes.remove(&session);
        }
        if self.slow.enabled() {
            let peer = self.peer_of(watched).map(|p| p.node);
            if let (Some(node), Some(at)) = (peer, sent_at) {
                self.observe_peer_rtt(ctx, node, (ctx.now() - at).as_nanos());
            }
        }
        if !done {
            return;
        }
        if self.params.ft.probe_abort_on_fresh && self.probe_target_fresh(watched, ctx.now()) {
            self.abort_probe(watched);
            return;
        }
        // Node is alive, daemon silent: process failure.
        self.diagnose(ctx, watched, Diagnosis::ProcessFailure);
    }

    fn on_probe_timeout(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some(s) = self.probes.remove(&session) else {
            return;
        };
        let watched = s.watched;
        let responses = s.responses;
        phoenix_telemetry::span_end(s.span);
        if self.params.ft.probe_abort_on_fresh && self.probe_target_fresh(watched, ctx.now()) {
            self.abort_probe(watched);
            return;
        }
        if responses > 0 {
            // The target's PPM answered at least one round before the
            // deadline: the node is provably reachable, so the missing
            // rounds are packet loss, not a dead machine. Diagnosing node
            // death here would strand a live node without a WD (the node
            // path never restarts daemons). On a clean network all rounds
            // complete long before the timeout, so this arm never fires.
            phoenix_telemetry::counter_add("gsd.probes.partial", 1);
            self.diagnose(ctx, watched, Diagnosis::ProcessFailure);
            return;
        }
        self.diagnose(ctx, watched, Diagnosis::NodeFailure);
    }

    // ---- diagnoses & recovery ---------------------------------------------

    /// A probe session resolved: the silent daemon's node answered
    /// (`ProcessFailure`) or never did (`NodeFailure`). One pipeline for
    /// both kinds of peer; what differs is the recovery — a WD is restarted
    /// in place, or needs nothing when its node died; a ring predecessor is
    /// taken over, and only under the regroup layer's licence.
    fn diagnose(&mut self, ctx: &mut Ctx<'_, KernelMsg>, watched: Watched, verdict: Diagnosis) {
        if let Watched::Ring(partition) = watched {
            if !self.regroup_licenses_takeover(ctx, partition) {
                return;
            }
        }
        let Ok(slot) = self.peer_slot(watched) else {
            return;
        };
        let peer = &self.peers[slot];
        let (pid, node, member) = (peer.pid, peer.node, peer.member);
        let node_down = verdict == Diagnosis::NodeFailure;
        // Slow ≠ down: a node whose RTT evidence says "alive but degraded"
        // must never be declared dead while that evidence is fresh. Once
        // its pongs stop, the veto lapses and fail-stop diagnosis resumes
        // (the quarantine path handles degraded-but-alive peers).
        let vetoed = node_down && self.slow_alive_veto(ctx.now(), node);
        self.peers[slot].live.end_probe(node_down && !vetoed);
        if vetoed {
            phoenix_telemetry::counter_add("gsd.slow.dead_vetoed", 1);
            ctx.trace(TraceEvent::Milestone {
                label: "slow-not-dead",
                value: node.0 as f64,
            });
            return;
        }
        if node_down {
            self.slow.mark_dead(node);
        }
        phoenix_telemetry::measure(
            "gsd.detect_to_diagnose",
            "gsd",
            ctx.node().0,
            Self::suspicion_key(watched),
        );
        let takeover = member.map(|failed| {
            self.takeover_seq += 1;
            let plan = self.takeover_seq;
            phoenix_telemetry::mark(
                "gsd.takeover",
                takeover_key(ctx.pid(), failed.partition, plan),
            );
            (failed, plan)
        });
        ctx.trace(TraceEvent::FaultDiagnosed {
            observer: ctx.pid(),
            target: if node_down {
                FaultTarget::Node(node)
            } else {
                FaultTarget::Process(pid)
            },
            diagnosis: verdict,
        });
        if node_down {
            if takeover.is_none() {
                // "for WD, in case of node failure, the recovery time is
                // 0, because ... migrating WD means nothing."
                ctx.trace(TraceEvent::Recovered {
                    target: FaultTarget::Node(node),
                    action: RecoveryAction::NoneNeeded,
                });
            }
            self.publish(ctx, EventType::NodeFault, node, EventPayload::Node(node));
        } else {
            let kind = match watched {
                Watched::Wd(_) => ServiceKind::WatchDaemon,
                Watched::Ring(_) => ServiceKind::Group,
            };
            self.publish(
                ctx,
                EventType::ServiceFault,
                node,
                EventPayload::Service(kind, node),
            );
        }
        match takeover {
            Some((failed, plan)) => self.plan_takeover(ctx, failed, verdict, plan),
            None if node_down => {}
            // Restart in place, at once: Table 1 reports 0 µs.
            None => self.restart_wd(ctx, node),
        }
    }

    fn restart_wd(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId) {
        let wd = Wd::respawn(
            node,
            self.partition,
            self.params.ft.clone(),
            ctx.pid(),
            RecoveryAction::RestartedInPlace,
        );
        let new_pid = ctx.spawn(node, Box::new(wd));
        if let Some(ns) = self.node_daemons.get_mut(&node) {
            ns.wd = new_pid;
            let updated = *ns;
            ctx.send(self.config, KernelMsg::DirectoryUpdateNode { services: updated });
            if self.params.rpc.retries_enabled() {
                self.dir_resend_nodes.insert(node, (updated, DIR_RESEND_TICKS));
            }
        }
        self.watch_wd(node, new_pid, ctx.now());
        self.publish(
            ctx,
            EventType::ServiceRecovery,
            node,
            EventPayload::Service(ServiceKind::WatchDaemon, node),
        );
    }

    /// The ring predecessor `failed` is diagnosed: drop it from the
    /// membership and schedule its replacement — in place when only the
    /// daemon died, on a backup node of its partition when the host did.
    fn plan_takeover(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        failed: MemberInfo,
        verdict: Diagnosis,
        plan: u64,
    ) {
        self.remove_member(ctx, failed.partition, verdict);
        let (cost, to, action) = if verdict == Diagnosis::NodeFailure {
            let Some(to) = self.takeover_node(ctx, failed.partition, failed.node) else {
                self.retract_takeover(ctx, failed.partition, plan);
                ctx.trace(TraceEvent::Milestone {
                    label: "no-backup-node",
                    value: failed.partition.0 as f64,
                });
                return;
            };
            let cost = self.params.ft.gsd_migrate_cost;
            (cost, to, RecoveryAction::Migrated(to))
        } else {
            let cost = self.params.ft.gsd_restart_cost;
            (cost, failed.node, RecoveryAction::RestartedInPlace)
        };
        let takeover = RestartWhat::GsdTakeover {
            hint: failed,
            members: self.members.clone(),
            epoch: self.epoch,
            to,
            action,
            plan,
        };
        self.schedule(ctx, cost, DelayedOp::Restart(takeover));
    }

    /// The first live home node of `partition` other than `avoid` — or,
    /// with `healthy_only`, the first the fail-slow detector does not read
    /// Slow.
    fn backup_node(
        &self,
        ctx: &Ctx<'_, KernelMsg>,
        partition: PartitionId,
        avoid: NodeId,
        healthy_only: bool,
    ) -> Option<NodeId> {
        let spec = self.topology.partition(partition)?;
        let mut nodes = spec.backups.iter().chain(spec.compute.iter()).copied();
        nodes.find(|&n| {
            n != avoid && ctx.node_is_up(n) && !(healthy_only && self.placement_degraded(n))
        })
    }

    /// Where to migrate a dead member's GSD: a healthy backup node, else a
    /// degraded one over not migrating at all.
    fn takeover_node(
        &self,
        ctx: &Ctx<'_, KernelMsg>,
        partition: PartitionId,
        avoid: NodeId,
    ) -> Option<NodeId> {
        self.backup_node(ctx, partition, avoid, true)
            .or_else(|| self.backup_node(ctx, partition, avoid, false))
    }

    /// Retract a takeover plan's mark: the plan was abandoned, and a
    /// pending mark must not linger or swallow another plan's measure.
    fn retract_takeover(&self, ctx: &Ctx<'_, KernelMsg>, partition: PartitionId, plan: u64) {
        phoenix_telemetry::unmark("gsd.takeover", takeover_key(ctx.pid(), partition, plan));
    }

    fn remove_member(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        partition: PartitionId,
        diagnosis: Diagnosis,
    ) {
        self.members.retain(|m| m.partition != partition);
        self.broadcast_meta(
            ctx,
            KernelMsg::MetaMemberDown {
                partition,
                diagnosis,
            },
        );
        self.refresh_roles(ctx);
    }

    /// A replacement GSD can only be started on a machine we can route to:
    /// remote exec across a severed island is a connection failure, not a
    /// silent success. Retracts the takeover mark stamped at diagnosis /
    /// rescue time so the skipped spawn does not leak a pending measure;
    /// the rescue sweep retries once the partition heals.
    fn spawn_target_reachable(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        partition: PartitionId,
        node: NodeId,
        plan: u64,
    ) -> bool {
        if ctx.node_reachable(node) {
            return true;
        }
        self.retract_takeover(ctx, partition, plan);
        ctx.trace(TraceEvent::Milestone {
            label: "gsd-spawn-unreachable",
            value: partition.0 as f64,
        });
        false
    }

    fn execute_restart(&mut self, ctx: &mut Ctx<'_, KernelMsg>, what: RestartWhat) {
        match what {
            RestartWhat::Svc(Lapsed { kind, factory, .. }) => {
                let action = RecoveryAction::RestartedInPlace;
                if self.respawn_service(ctx, kind, &factory, action).is_none() {
                    ctx.trace(TraceEvent::Milestone {
                        label: "no-factory",
                        value: 0.0,
                    });
                }
            }
            RestartWhat::GsdTakeover {
                hint,
                members,
                epoch,
                to,
                action,
                plan,
            } => {
                if self.members.iter().any(|m| m.partition == hint.partition) {
                    // Already rejoined (rescued by someone else).
                    self.retract_takeover(ctx, hint.partition, plan);
                    return;
                }
                if !self.spawn_target_reachable(ctx, hint.partition, to, plan) {
                    return;
                }
                phoenix_telemetry::counter_add("gsd.takeovers", 1);
                phoenix_telemetry::measure(
                    "gsd.takeover",
                    "gsd",
                    ctx.node().0,
                    takeover_key(ctx.pid(), hint.partition, plan),
                );
                let gsd = self.replacement(hint, members, epoch.max(self.epoch), action);
                ctx.spawn(to, Box::new(gsd));
            }
            RestartWhat::GsdRescue { partition, plan } => {
                self.rescuing.remove(&partition);
                let rejoined = self.members.iter().any(|m| m.partition == partition);
                let hint = self.last_known.get(&partition).filter(|_| !rejoined);
                // Restart in place if the old host is up, else migrate.
                let target = hint.and_then(|&hint| {
                    if ctx.node_is_up(hint.node) {
                        return Some((hint, hint.node, RecoveryAction::RestartedInPlace));
                    }
                    let to = self.takeover_node(ctx, partition, hint.node)?;
                    Some((hint, to, RecoveryAction::Migrated(to)))
                });
                let Some((hint, to, action)) = target else {
                    // Rejoined meanwhile, never known, or nowhere to go.
                    self.retract_takeover(ctx, partition, plan);
                    return;
                };
                let takeover = RestartWhat::GsdTakeover {
                    hint,
                    members: self.members.clone(),
                    epoch: self.epoch,
                    to,
                    action,
                    plan,
                };
                self.execute_restart(ctx, takeover);
            }
        }
    }

    // ---- tick (ring heartbeats + introspection) ----------------------------

    fn send_meta_heartbeats(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if let Some(succ) = self.successor() {
            self.hb_seq += 1;
            phoenix_telemetry::counter_add(
                "gsd.meta_heartbeats.sent",
                self.my_nic_known.len() as u64,
            );
            for i in 0..self.my_nic_known.len() {
                // Keyed on (partition, nic, seq): the successor measures the
                // same tuple from the message fields, and the per-beat seq
                // keeps duplicated deliveries from re-measuring a stale mark.
                phoenix_telemetry::mark(
                    "meta.heartbeat.flight",
                    phoenix_telemetry::key(&[self.partition.0 as u64, i as u64, self.hb_seq]),
                );
                ctx.send_via(
                    succ.gsd,
                    NicId(i as u8),
                    KernelMsg::MetaHeartbeat {
                        from_partition: self.partition,
                        nic: NicId(i as u8),
                        epoch: self.epoch,
                        seq: self.hb_seq,
                    },
                );
            }
        }
    }

    fn introspect_own_nics(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let own = ctx.node();
        for i in 0..self.my_nic_known.len() {
            let nic = NicId(i as u8);
            let up = ctx.nic_is_up(own, nic);
            let was = self.my_nic_known[i];
            if was && !up {
                ctx.trace(TraceEvent::FaultDetected {
                    observer: ctx.pid(),
                    target: FaultTarget::Nic(own, nic),
                });
                let delay = self.params.ft.local_diag_delay;
                self.schedule(ctx, delay, DelayedOp::NicDiag { node: own, nic });
            } else if !was && up {
                self.publish(
                    ctx,
                    EventType::NetworkRecovery,
                    own,
                    EventPayload::Nic(own, nic),
                );
            }
            self.my_nic_known[i] = up;
        }
    }

    /// Re-assert recently changed directory entries to config. Only active
    /// under a retrying policy; a bounded number of repeats per change.
    fn directory_anti_entropy(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.dir_resend_local > 0 {
            self.dir_resend_local -= 1;
            ctx.send(
                self.config,
                KernelMsg::DirectoryUpdate {
                    partition: self.partition,
                    member: self.local,
                },
            );
        }
        // In node order: send order decides the event queue's.
        let config = self.config;
        self.dir_resend_nodes.retain(|_, (services, left)| {
            let services = *services;
            ctx.send(config, KernelMsg::DirectoryUpdateNode { services });
            *left -= 1;
            *left > 0
        });
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.send_meta_heartbeats(ctx);
        self.introspect_own_nics(ctx);
        if self.nic_health.enabled() {
            for i in 0..self.nic_health.nic_count() {
                let nic = NicId(i as u8);
                phoenix_telemetry::gauge_set(nic_health_gauge(nic), self.nic_health.score(nic));
            }
        }
        // A frozen GSD keeps beating (so its same-island successor never
        // mistakes the freeze for a death) but performs no authoritative
        // work: no directory writes, no checkpoints, no rescues, no
        // rejoin toward a leader view that predates the partition.
        if !self.regroup.frozen() {
            self.directory_anti_entropy(ctx);
            if let Some(entries) = self.supervisor.roster_to_save() {
                let roster = CheckpointData::Supervision { entries };
                federation::ck_save(ctx, &self.local, ServiceKind::Group, roster);
            }
            self.rescue_sweep(ctx);
            if self.slow.enabled() {
                self.slow_probe_round(ctx);
                self.slow_maintenance(ctx);
            }
            if self.needs_rejoin {
                self.needs_rejoin = false;
                if let Some(leader) = self.leader() {
                    if leader.partition != self.partition {
                        self.send_routed(
                            ctx,
                            leader.gsd,
                            leader.node,
                            KernelMsg::MetaJoin { member: self.local },
                        );
                    }
                }
            }
        }
        ctx.set_timer(self.params.ft.hb_interval, TOK_TICK);
    }

    /// Leader safety net: if a topology partition has no meta-group member
    /// (its takeover plan died with the daemon that scheduled it), the
    /// leader schedules a rescue. Executed with a still-missing guard, so
    /// a concurrent normal takeover wins harmlessly.
    fn rescue_sweep(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.role() != "leader" {
            return;
        }
        let missing: Vec<PartitionId> = self
            .topology
            .partitions
            .iter()
            .map(|p| p.id)
            .filter(|p| {
                self.members.iter().all(|m| m.partition != *p) && !self.rescuing.contains(p)
            })
            .collect();
        for partition in missing {
            self.rescuing.insert(partition);
            self.takeover_seq += 1;
            let plan = self.takeover_seq;
            phoenix_telemetry::mark("gsd.takeover", takeover_key(ctx.pid(), partition, plan));
            ctx.trace(TraceEvent::Milestone {
                label: "gsd-rescue-scheduled",
                value: partition.0 as f64,
            });
            self.schedule(
                ctx,
                self.params.ft.gsd_restart_cost,
                DelayedOp::Restart(RestartWhat::GsdRescue { partition, plan }),
            );
        }
    }

    // ---- fail-slow detection (latency-aware suspicion & quarantine) --------

    /// A node is a poor placement target while the detector reads it Slow.
    /// Callers always keep a degraded fallback: quarantine must never turn
    /// "migrate somewhere imperfect" into "migrate nowhere".
    fn placement_degraded(&self, node: NodeId) -> bool {
        self.slow.enabled() && self.slow.is_slow(node)
    }

    /// "It's not everyone else — it's me": when a strict majority of this
    /// observer's warmed peers read Slow, the common element in every one
    /// of those stretched RTTs is this node itself. While that holds, the
    /// verdicts must not be used *against* peers (no quarantine additions,
    /// no yield requests, no placement vetoes) — a degraded node handing
    /// out quarantines would decapitate a healthy cluster.
    fn gray_self(&self) -> bool {
        let mut warmed = 0u32;
        let mut slow = 0u32;
        for (node, v) in self.slow.verdicts() {
            if v != SlowVerdict::Dead && self.slow.warmed(node) {
                warmed += 1;
                if v == SlowVerdict::Slow {
                    slow += 1;
                }
            }
        }
        warmed >= 2 && slow * 2 > warmed
    }

    /// Slow ≠ down: a Slow verdict plus *fresh* RTT evidence vetoes a dead
    /// diagnosis. The freshness gate keeps the veto from becoming a
    /// livelock — a slow node that later genuinely dies stops answering,
    /// the evidence goes stale within one suspicion window, and the
    /// fail-stop pipeline proceeds as if the veto never existed.
    fn slow_alive_veto(&self, now: SimTime, node: NodeId) -> bool {
        self.slow.enabled()
            && self.slow.is_slow(node)
            && self
                .slow_last_seen
                .get(&node)
                .map(|&l| !self.stale(now, l))
                .unwrap_or(false)
    }

    /// One RTT sample for a peer node, from any source (slow pong, probe
    /// response). Feeds the detector and refreshes the evidence-of-life
    /// stamp the dead-veto consults.
    fn observe_peer_rtt(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId, rtt_ns: u64) {
        if !self.slow.enabled() {
            return;
        }
        self.slow_last_seen.insert(node, ctx.now());
        if let Some(tr) = self.slow.observe_rtt(node, rtt_ns) {
            self.apply_slow_transition(ctx, tr);
        }
    }

    fn apply_slow_transition(&mut self, ctx: &mut Ctx<'_, KernelMsg>, tr: SlowTransition) {
        match tr {
            SlowTransition::Quarantined(node) => {
                phoenix_telemetry::counter_add("gsd.slow.suspected", 1);
                ctx.trace(TraceEvent::Milestone {
                    label: "slow-suspected",
                    value: node.0 as f64,
                });
            }
            SlowTransition::Reinstated(node) => {
                phoenix_telemetry::counter_add("gsd.slow.reinstated", 1);
                ctx.trace(TraceEvent::Milestone {
                    label: "slow-reinstated",
                    value: node.0 as f64,
                });
            }
        }
    }

    fn send_slow_ping(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId, to: Pid) {
        self.slow_ping_seq += 1;
        let seq = self.slow_ping_seq;
        self.slow_ping_sent.insert(seq, (node, ctx.now()));
        self.send_routed(ctx, to, node, KernelMsg::SlowPing { seq });
    }

    /// One slow-ping round per tick. Everyone samples its ring
    /// predecessor (the node it must judge before ever suspecting it —
    /// and for the princess, the predecessor *is* the leader); the leader
    /// additionally samples every member and its own partition's
    /// placement-candidate nodes via their watch daemons.
    fn slow_probe_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        // Expire pings past the horizon: a pong that took 8 beats is not
        // a latency sample, and the map must stay bounded under loss.
        let horizon = self.params.ft.hb_interval * 8;
        self.slow_ping_sent.retain(|_, (_, at)| now.since(*at) <= horizon);
        let mut targets: Vec<(NodeId, Pid)> = Vec::new();
        if let Some(p) = self.predecessor() {
            if p.gsd != Pid(0) {
                targets.push((p.node, p.gsd));
            }
        }
        if self.role() == "leader" {
            for m in &self.members {
                if m.partition != self.partition && m.gsd != Pid(0) {
                    targets.push((m.node, m.gsd));
                }
            }
            // Placement candidates: this partition's own nodes, via their
            // watch daemons (sorted node order for determinism).
            let mut wds: Vec<(NodeId, Pid)> = self
                .node_daemons
                .iter()
                .map(|(&n, s)| (n, s.wd))
                .collect();
            wds.sort_by_key(|&(n, _)| n);
            targets.extend(wds.into_iter().filter(|&(_, wd)| wd != Pid(0)));
        }
        let own = ctx.node();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for (node, to) in targets {
            if node == own || !seen.insert(node) {
                continue;
            }
            self.send_slow_ping(ctx, node, to);
        }
    }

    /// Health-ranked witness candidates: healthy partitions before
    /// quarantined/slow ones, then by slowness score, ties by partition
    /// id — so with no slowness observed this is exactly the legacy
    /// lowest-id order.
    fn witness_preference(&self) -> Vec<PartitionId> {
        let mut pref: Vec<(bool, f64, PartitionId)> = self
            .members
            .iter()
            .map(|m| {
                let degraded =
                    self.quarantined.contains(&m.partition) || self.slow.is_slow(m.node);
                (degraded, self.slow.score(m.node), m.partition)
            })
            .collect();
        pref.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        pref.into_iter().map(|(_, _, p)| p).collect()
    }

    /// Per-tick fail-slow duties beyond pinging: the princess asks a
    /// degraded leader to yield, any licensed node refreshes the witness
    /// preference, and the leader converges the quarantine set.
    fn slow_maintenance(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        // Princess duty: the leader has no ring successor judging it for
        // takeover purposes, but the princess (whose predecessor it is)
        // holds a live RTT profile — a degraded leader is asked to shed
        // leadership *without* any takeover machinery firing.
        if self.role() == "princess" && !self.gray_self() {
            if let Some(l) = self.leader() {
                if l.partition != self.partition
                    && self.slow.is_slow(l.node)
                    && !self.quarantined.contains(&l.partition)
                {
                    phoenix_telemetry::counter_add("gsd.slow.yield_requests", 1);
                    self.send_routed(
                        ctx,
                        l.gsd,
                        l.node,
                        KernelMsg::SlowLeaderYield {
                            from_partition: self.partition,
                        },
                    );
                }
            }
        }
        // Witness preference is only consulted when a failover fires
        // under a ripened licence; refresh it on the same licence so a
        // minority island can never install a ranking, and never from a
        // gray-self observer whose ranking is its own slowness.
        if self.regroup.votes_enabled() && !self.gray_self() && self.regroup.takeover_licensed(now)
        {
            let pref = self.witness_preference();
            self.regroup.set_witness_preference(pref);
        }
        if self.role() != "leader" {
            return;
        }
        for (node, v) in self.slow.verdicts() {
            let val = match v {
                SlowVerdict::Healthy => 0.0,
                SlowVerdict::Slow => 1.0,
                SlowVerdict::Dead => 2.0,
            };
            phoenix_telemetry::gauge_set(slow_verdict_gauge(node), val);
            phoenix_telemetry::gauge_set(slow_score_gauge(node), self.slow.score(node));
        }
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", self.quarantined.len() as f64);
        // Converge the quarantine set from member-server-node verdicts.
        // Removal requires a *warmed* Healthy verdict, not the absence of
        // a Slow one: a fresh leader whose detector never saw the node
        // slow must re-earn the reinstatement, not inherit it.
        let gray = self.gray_self();
        let mut cand: BTreeSet<PartitionId> = BTreeSet::new();
        let mut next = self.quarantined.clone();
        for m in &self.members {
            if m.partition == self.partition {
                continue; // the leader's own health is the princess's call
            }
            if self.slow.is_slow(m.node) {
                if !gray {
                    cand.insert(m.partition);
                    if self.slow_pending.contains(&m.partition) {
                        next.insert(m.partition);
                    }
                }
            } else if self.slow.warmed(m.node) && self.slow.verdict(m.node) == SlowVerdict::Healthy
            {
                next.remove(&m.partition);
            }
        }
        self.slow_pending = cand;
        // A partition that left the membership entirely is the fail-stop
        // pipeline's problem, not quarantine's.
        next.retain(|p| self.members.iter().any(|m| m.partition == *p));
        if next != self.quarantined {
            self.set_quarantine(ctx, next);
        } else if !self.quarantined.is_empty() {
            // Same-epoch refresh: late joiners (empty set, epoch 0) adopt
            // the ring order within one tick; everyone else no-ops.
            let msg = KernelMsg::MetaQuarantine {
                epoch: self.quarantine_epoch,
                quarantined: self.quarantined.iter().copied().collect(),
            };
            self.broadcast_meta(ctx, msg);
        }
    }

    /// Install a new quarantine set, broadcast it under a bumped epoch,
    /// and re-derive the ring order locally. Called by the leader's
    /// convergence pass and by a leader self-quarantining on yield.
    fn set_quarantine(&mut self, ctx: &mut Ctx<'_, KernelMsg>, next: BTreeSet<PartitionId>) {
        self.quarantined = next;
        self.quarantine_epoch += 1;
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", self.quarantined.len() as f64);
        ctx.trace(TraceEvent::Milestone {
            label: "slow-quarantine",
            value: self.quarantined.len() as f64,
        });
        let msg = KernelMsg::MetaQuarantine {
            epoch: self.quarantine_epoch,
            quarantined: self.quarantined.iter().copied().collect(),
        };
        self.broadcast_meta(ctx, msg);
        self.refresh_roles(ctx);
        self.push_partition_view(ctx);
        self.maybe_drain(ctx);
    }

    /// Quarantined-and-on-the-degraded-node: hand the partition to a
    /// healthier home node by spawning our own replacement there — the
    /// existing Migrate/duplicate-resolution machinery does the rest (the
    /// replacement joins, the leader replaces our entry, the membership
    /// naming the newer pid makes us yield). No `FaultDiagnosed`, no
    /// takeover marks: nothing died.
    fn maybe_drain(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.draining || self.drained || !self.quarantined.contains(&self.partition) {
            return;
        }
        let own = ctx.node();
        // A gray-self observer's placement vetoes are its own slowness
        // reflected back — ignore them, or the drain could never fire.
        let gray = self.gray_self();
        let Some(to) = self.backup_node(ctx, self.partition, own, !gray) else {
            return; // no healthy home node: stay put, keep serving
        };
        self.draining = true;
        phoenix_telemetry::counter_add("gsd.slow.drains", 1);
        ctx.trace(TraceEvent::Milestone {
            label: "slow-drain",
            value: self.partition.0 as f64,
        });
        let hint = self.local;
        let members: Vec<MemberInfo> = self
            .members
            .iter()
            .copied()
            .filter(|m| m.partition != self.partition)
            .collect();
        let mut gsd = self.replacement(hint, members, self.epoch, RecoveryAction::Migrated(to));
        // The clone must share our quarantine view (ring order!) and must
        // not re-drain off its fresh node on a not-yet-warmed-out entry.
        gsd.quarantined = self.quarantined.clone();
        gsd.quarantine_epoch = self.quarantine_epoch;
        gsd.drained = true;
        ctx.spawn(to, Box::new(gsd));
    }

    /// Test/introspection: the adopted quarantine view.
    pub fn quarantine_view(&self) -> (u64, Vec<PartitionId>) {
        (
            self.quarantine_epoch,
            self.quarantined.iter().copied().collect(),
        )
    }

    /// Test/introspection: ring membership order as currently sorted.
    pub fn ring_order(&self) -> Vec<PartitionId> {
        self.members.iter().map(|m| m.partition).collect()
    }

    // ---- quorum regroup (MSCS-style; paper-adjacent split-brain cure) ------

    /// Open a regroup round: ping the best-known GSD of every configured
    /// partition and arm the round-window timer. No-op when the layer is
    /// disabled or a round is already collecting.
    fn start_regroup_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if !self.regroup.enabled() || self.regroup.round_active() {
            return;
        }
        let round = self.regroup.begin_round(ctx.now());
        phoenix_telemetry::counter_add("gsd.regroup.rounds", 1);
        self.round_span = Some(match self.frozen_span {
            Some(parent) => phoenix_telemetry::span_child(
                "gsd.regroup.round",
                "gsd",
                ctx.node().0,
                parent,
            ),
            None => phoenix_telemetry::span_start("gsd.regroup.round", "gsd", ctx.node().0),
        });
        let ping = KernelMsg::RegroupPing {
            from_partition: self.partition,
            epoch: self.epoch,
            round,
            witness: self.regroup.witness().unwrap_or(PartitionId(0)),
            witness_epoch: self.regroup.witness_epoch(),
        };
        // Every *configured* partition, not just current members: a
        // frozen side keeps pinging partitions its stale membership may
        // have lost, and a majority side pings the minority it removed
        // (`last_known` keeps the pre-removal coordinates).
        for p in self.topology.partitions.iter().map(|p| p.id) {
            if p == self.partition {
                continue;
            }
            let target = self
                .members
                .iter()
                .find(|m| m.partition == p)
                .copied()
                .or_else(|| self.last_known.get(&p).copied());
            if let Some(m) = target {
                if m.gsd != Pid(0) {
                    self.send_routed(ctx, m.gsd, m.node, ping.clone());
                }
            }
        }
        // Vote-table profiles also collect home-node testimony: each
        // peer partition's own watch daemons are asked whether the GSD
        // they track is alive. A partition that never acks but whose own
        // nodes unanimously report its GSD dead is discounted from the
        // quorum denominator — the escape hatch from the all-dark state
        // where enough GSDs (witness included) died that every island
        // is a strict weighted minority. Only home nodes may testify:
        // they are the nodes an in-place respawn lands on, so the
        // evidence cannot sit on the far side of a split from a rescued
        // replacement.
        if self.regroup.votes_enabled() {
            let mut probe_targets: Vec<(Pid, NodeId)> = Vec::new();
            for spec in &self.topology.partitions {
                if spec.id == self.partition {
                    continue;
                }
                for node in spec.all_nodes() {
                    if let Some(&wd) = self.cluster_wds.get(&node) {
                        if wd != Pid(0) {
                            probe_targets.push((wd, node));
                        }
                    }
                }
            }
            for (wd, node) in probe_targets {
                self.send_routed(ctx, wd, node, KernelMsg::RegroupProbe { round });
            }
        }
        ctx.set_timer(self.params.ft.regroup.round_window, TOK_REGROUP);
    }

    /// The round window closed: compute the connected component and act
    /// on the quorum verdict.
    fn conclude_regroup(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let Some(c) = self.regroup.conclude(self.partition, ctx.now()) else {
            return;
        };
        if let Some(span) = self.round_span.take() {
            phoenix_telemetry::span_end(span);
        }
        phoenix_telemetry::gauge_set("gsd.regroup.epoch", self.regroup.epoch() as f64);
        if let Some(lat) = self.regroup.round_latency_ewma() {
            phoenix_telemetry::gauge_set(
                "gsd.regroup.round_latency",
                lat.as_secs_f64() * 1e3,
            );
            phoenix_telemetry::gauge_set(
                "gsd.regroup.takeover_delay",
                self.regroup.effective_takeover_delay().as_secs_f64() * 1e3,
            );
        }
        if let Some(w) = self.regroup.witness() {
            phoenix_telemetry::gauge_set("gsd.regroup.witness", w.0 as f64);
            phoenix_telemetry::gauge_set(
                "gsd.regroup.witness_epoch",
                self.regroup.witness_epoch() as f64,
            );
        }
        if !c.dead.is_empty() {
            // Quorum denominator shrank on home-node dead testimony.
            phoenix_telemetry::counter_add(
                "gsd.regroup.dead_discounts",
                c.dead.len() as u64,
            );
        }
        if let Some(w) = c.witness_failover {
            // The held majority moved the witness off an unreachable
            // partition; record it and tell the config service so an
            // operator (and GridView) can see the new quorum anchor.
            phoenix_telemetry::counter_add("gsd.regroup.witness_failover", 1);
            ctx.trace(TraceEvent::Milestone {
                label: "witness-failover",
                value: w.0 as f64,
            });
            if c.reachable.first() == Some(&self.partition) {
                ctx.send(
                    self.config,
                    KernelMsg::CfgSetParam {
                        req: RequestId(0),
                        key: "regroup_witness".to_string(),
                        value: format!("{}:{}", w.0, self.regroup.witness_epoch()),
                    },
                );
            }
        }
        match c.verdict {
            Verdict::Majority if !self.regroup.frozen() => {
                // We hold quorum: normal operation (the concluded round
                // is the takeover licence `majority_confirmed` checks).
                // The lowest reachable partition flags the unreachable
                // side's directory entries stale so clients stop routing
                // to daemons nobody can vouch for.
                if c.reachable.first() == Some(&self.partition) {
                    for p in self.topology.partitions.iter().map(|p| p.id) {
                        if !c.reachable.contains(&p) {
                            ctx.send(
                                self.config,
                                KernelMsg::DirectoryStale {
                                    partition: p,
                                    stale: true,
                                },
                            );
                        }
                    }
                }
                if self.regroup.witness_lost() {
                    ctx.set_timer(self.params.ft.regroup.frozen_retry, TOK_REGROUP_RETRY);
                }
            }
            Verdict::Majority => {
                // Frozen, but a majority answered: the partition healed.
                // Ask the freshest unfrozen peer to take us back in; thaw
                // happens only when the majority's broadcast names us.
                // If *everyone* reachable is frozen (the whole cluster
                // fragmented and re-healed), one partition re-seeds the
                // group by thawing and announcing itself: the witness's
                // partition when the vote table is on and the witness is
                // reachable (it anchors the quorum, so the rebuilt group
                // forms around it), else the lowest reachable.
                match c.rejoin_target {
                    Some((gsd, _)) => ctx.send(gsd, KernelMsg::MetaJoin { member: self.local }),
                    None => {
                        let reseed = self
                            .regroup
                            .witness()
                            .filter(|w| c.reachable.contains(w))
                            .or_else(|| c.reachable.first().copied());
                        // A majority that leans on dead-partition
                        // discounts is testimony, not reachability:
                        // out-wait a full takeover-delay chain of such
                        // verdicts before re-seeding, as hysteresis
                        // against a transient or one-sided view.
                        let licensed = c.dead.is_empty()
                            || self.regroup.takeover_licensed(ctx.now());
                        if reseed == Some(self.partition) && licensed {
                            // Re-seed as a *singleton* group. Our
                            // pre-fragmentation member list still names
                            // frozen peers, so ring leadership would point
                            // at one of them — a leader that drops every
                            // MetaJoin while frozen, wedging the rebuild.
                            // Shrinking to ourselves makes us the leader;
                            // peers' retry rounds find us unfrozen, join,
                            // and thaw when our broadcast names them.
                            self.members.retain(|m| m.partition == self.partition);
                            self.leave_frozen(ctx);
                            self.refresh_roles(ctx);
                            self.announce_membership_change(ctx);
                        }
                    }
                }
                ctx.set_timer(self.params.ft.regroup.frozen_retry, TOK_REGROUP_RETRY);
            }
            Verdict::Minority => {
                self.enter_frozen(ctx);
                ctx.set_timer(self.params.ft.regroup.frozen_retry, TOK_REGROUP_RETRY);
            }
        }
    }

    /// Lost quorum: freeze. The GSD stays alive and answers pings, but
    /// every membership-changing action (diagnosis, takeover, rescue,
    /// rejoin, directory writes) is suppressed until a majority-side
    /// membership broadcast names us again.
    fn enter_frozen(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if !self.regroup.freeze() {
            return;
        }
        phoenix_telemetry::counter_add("gsd.regroup.freezes", 1);
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 1.0);
        self.frozen_span =
            Some(phoenix_telemetry::span_start("gsd.regroup.frozen", "gsd", ctx.node().0));
        ctx.trace(TraceEvent::Milestone {
            label: "gsd-frozen",
            value: self.partition.0 as f64,
        });
        ctx.trace(TraceEvent::RoleChange {
            pid: ctx.pid(),
            role: "frozen",
        });
        self.last_role = "frozen";
        // Abort in-flight probe sessions: a pending diagnosis must not
        // ripen into a takeover after we lost quorum. `abort_probe`
        // retracts the suspicion marks so they cannot leak.
        for s in std::mem::take(&mut self.probes).into_values() {
            phoenix_telemetry::span_end(s.span);
            self.abort_probe(s.watched);
        }
        self.freeze_fanout(ctx, true);
    }

    /// Quorum regained and the majority named us: thaw.
    fn leave_frozen(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if !self.regroup.thaw() {
            return;
        }
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 0.0);
        if let Some(span) = self.frozen_span.take() {
            phoenix_telemetry::span_end(span);
        }
        ctx.trace(TraceEvent::Milestone {
            label: "gsd-thawed",
            value: self.partition.0 as f64,
        });
        let role = self.role();
        ctx.trace(TraceEvent::RoleChange {
            pid: ctx.pid(),
            role,
        });
        self.last_role = role;
        self.freeze_fanout(ctx, false);
    }

    /// Tell the partition's services they are (no longer) on a minority
    /// island: a frozen bulletin answers queries `complete = false`, a
    /// frozen detector stops exporting.
    fn freeze_fanout(&self, ctx: &mut Ctx<'_, KernelMsg>, frozen: bool) {
        let msg = KernelMsg::RegroupFreeze { frozen };
        for pid in [self.local.event, self.local.bulletin, self.local.checkpoint] {
            if pid != Pid(0) {
                ctx.send(pid, msg.clone());
            }
        }
        if let Some(spec) = self.topology.partition(self.partition) {
            for node in spec.all_nodes() {
                if let Some(ns) = self.node_daemons.get(&node) {
                    ctx.send(ns.detector, msg.clone());
                }
            }
        }
    }

    /// Gate a ripened meta diagnosis on quorum. Returns true when the
    /// takeover may proceed. On false the probe session is unwound
    /// (suspicion mark retracted, probing flag cleared) so the next scan
    /// re-suspects — by which time our own round has concluded and the
    /// verdict is in.
    fn regroup_licenses_takeover(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        partition: PartitionId,
    ) -> bool {
        if !self.regroup.enabled() {
            return true;
        }
        if self.regroup.frozen() {
            phoenix_telemetry::counter_add("gsd.regroup.suppressed", 1);
            self.abort_probe(Watched::Ring(partition));
            return false;
        }
        // Reachability veto: if the suspected partition acked the last
        // concluded regroup round it is alive and routable — the stale
        // beats are a transient (e.g. just-healed links), not a failure.
        if self.regroup.recently_reachable(partition, ctx.now()) {
            phoenix_telemetry::counter_add("gsd.regroup.vetoed", 1);
            self.abort_probe(Watched::Ring(partition));
            return false;
        }
        // MSCS-style regroup period: a takeover needs an unbroken chain
        // of majority verdicts held for at least `takeover_delay`, long
        // enough for any minority islet to have frozen itself.
        if !self.regroup.takeover_licensed(ctx.now()) {
            phoenix_telemetry::counter_add("gsd.regroup.deferred", 1);
            self.abort_probe(Watched::Ring(partition));
            self.start_regroup_round(ctx);
            return false;
        }
        true
    }

    /// Adopt a gossiped witness view (regroup ping/ack traffic) and keep
    /// the telemetry gauges current when it changes.
    fn observe_witness(&mut self, witness: PartitionId, witness_epoch: u64) {
        if self.regroup.observe_witness(witness, witness_epoch) {
            phoenix_telemetry::gauge_set("gsd.regroup.witness", witness.0 as f64);
            phoenix_telemetry::gauge_set("gsd.regroup.witness_epoch", witness_epoch as f64);
        }
    }

    // ---- heartbeat ingestion -----------------------------------------------

    /// One heartbeat from a watched daemon, WD or ring predecessor: the
    /// same per-NIC evidence stream either way (network `i` is shared
    /// infrastructure). `from` is the sender, for the WD's ack.
    fn on_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        from: Pid,
        watched: Watched,
        nic: NicId,
        seq: u64,
    ) {
        let now = ctx.now();
        let tracked = self
            .peer_of_mut(watched)
            .map(|p| (p.node, p.live.observe(nic, seq, now)));
        // A daemon not in the table (this GSD is not wired yet) is like a
        // NIC beyond a track's slots: accepted, but evidence of nothing.
        let unwatched = Beat::Accepted {
            gap: None,
            node_recovered: false,
            nic_recovered: false,
        };
        let Beat::Accepted {
            gap,
            node_recovered,
            nic_recovered,
        } = tracked.map_or(unwatched, |(_, beat)| beat)
        else {
            // Duplicate suppression before any bookkeeping: a beat already
            // seen on this NIC must not refresh liveness or count in
            // telemetry.
            phoenix_telemetry::counter_add("gsd.dedup.dropped", 1);
            return;
        };
        // The seq jump on this interface is per-NIC loss evidence; the
        // arrival itself is delivery evidence.
        let mut transitions: Vec<HealthTransition> = Vec::new();
        if let Some(gap) = gap {
            if gap > 0 {
                transitions.extend(self.nic_health.observe_misses(nic, gap));
            }
            transitions.extend(self.nic_health.observe_delivery(nic));
        }
        let (flight, service, at, id) = match watched {
            Watched::Wd(node) => ("wd.heartbeat.flight", "wd", node.0, node.0 as u64),
            Watched::Ring(p) => ("meta.heartbeat.flight", "gsd", ctx.node().0, p.0 as u64),
        };
        let wd = matches!(watched, Watched::Wd(_));
        if wd && self.nic_health.enabled() {
            // Echo the beat over the same interface — the WD's only window
            // onto its per-NIC round trips (it sends, we receive).
            ctx.send_via(from, nic, KernelMsg::WdHeartbeatAck { nic, seq });
        }
        self.apply_health_transitions(ctx, transitions);
        if wd {
            phoenix_telemetry::counter_add("gsd.wd_heartbeats.received", 1);
        }
        phoenix_telemetry::measure(
            flight,
            service,
            at,
            phoenix_telemetry::key(&[id, nic.0 as u64, seq]),
        );
        let Some((node, _)) = tracked else {
            return;
        };
        if wd && node_recovered {
            self.publish(ctx, EventType::NodeRecovery, node, EventPayload::Node(node));
        }
        if nic_recovered {
            self.publish(
                ctx,
                EventType::NetworkRecovery,
                node,
                EventPayload::Nic(node, nic),
            );
        }
    }

    /// Publish a demotion/promotion edge through the event service. A
    /// demoted interface is *degraded* — lossy but not down: WD heartbeats
    /// still fan out over it (paper semantics), but single-path traffic
    /// avoids it until the hysteresis window of clean deliveries closes.
    fn apply_health_transitions(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        transitions: Vec<HealthTransition>,
    ) {
        let own = ctx.node();
        for tr in transitions {
            match tr {
                HealthTransition::Demoted(nic) => {
                    phoenix_telemetry::counter_add("gsd.nic.demotions", 1);
                    ctx.trace(TraceEvent::Milestone {
                        label: "nic-degraded",
                        value: nic.0 as f64,
                    });
                    self.publish(
                        ctx,
                        EventType::NetworkDegraded,
                        own,
                        EventPayload::Nic(own, nic),
                    );
                }
                HealthTransition::Promoted(nic) => {
                    phoenix_telemetry::counter_add("gsd.nic.promotions", 1);
                    ctx.trace(TraceEvent::Milestone {
                        label: "nic-repromoted",
                        value: nic.0 as f64,
                    });
                    self.publish(
                        ctx,
                        EventType::NetworkRecovery,
                        own,
                        EventPayload::Nic(own, nic),
                    );
                }
            }
        }
    }

    // ---- delayed-op dispatch -------------------------------------------------

    fn run_op(&mut self, ctx: &mut Ctx<'_, KernelMsg>, op: DelayedOp) {
        match op {
            DelayedOp::ProbeRound(s) => self.probe_round(ctx, s),
            DelayedOp::ProbeTimeout(s) => self.on_probe_timeout(ctx, s),
            DelayedOp::NicDiag { node, nic } => {
                ctx.trace(TraceEvent::FaultDiagnosed {
                    observer: ctx.pid(),
                    target: FaultTarget::Nic(node, nic),
                    diagnosis: Diagnosis::NetworkFailure,
                });
                // One of several redundant networks: no recovery needed.
                ctx.trace(TraceEvent::Recovered {
                    target: FaultTarget::Nic(node, nic),
                    action: RecoveryAction::NoneNeeded,
                });
                self.publish(
                    ctx,
                    EventType::NetworkFault,
                    node,
                    EventPayload::Nic(node, nic),
                );
            }
            DelayedOp::LocalDiagSvc(lapsed) => {
                ctx.trace(TraceEvent::FaultDiagnosed {
                    observer: ctx.pid(),
                    target: FaultTarget::Process(lapsed.pid),
                    diagnosis: Diagnosis::ProcessFailure,
                });
                self.publish(
                    ctx,
                    EventType::ServiceFault,
                    ctx.node(),
                    EventPayload::Service(lapsed.kind, ctx.node()),
                );
                let cost = federation::restart_cost(&self.params.ft, lapsed.kind);
                self.schedule(ctx, cost, DelayedOp::Restart(RestartWhat::Svc(lapsed)));
            }
            DelayedOp::Restart(what) => self.execute_restart(ctx, what),
        }
    }
}

impl Actor<KernelMsg> for Gsd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.trace(TraceEvent::ServiceUp {
            pid: ctx.pid(),
            service: "gsd",
            node: ctx.node(),
        });
        self.local.gsd = ctx.pid();
        self.local.node = ctx.node();
        if matches!(self.init, Some(GsdInit::Respawn { .. })) {
            // Need the current node-daemon directory before wiring.
            self.send_directory_query(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => {
                if matches!(self.init, Some(GsdInit::Boot)) {
                    self.init = None;
                    self.wire_from_boot(ctx, &dir);
                }
            }
            KernelMsg::CfgDirectory { directory, .. } => {
                if matches!(self.init, Some(GsdInit::Respawn { .. })) {
                    self.wire_from_respawn(ctx, &directory);
                }
            }
            KernelMsg::WdHeartbeat { node, nic, seq } => {
                self.on_heartbeat(ctx, from, Watched::Wd(node), nic, seq)
            }
            KernelMsg::MetaHeartbeat {
                from_partition,
                nic,
                seq,
                ..
            } => self.on_heartbeat(ctx, from, Watched::Ring(from_partition), nic, seq),
            KernelMsg::MetaJoin { member } => {
                if self.regroup.frozen() {
                    // A frozen GSD must not admit members or bump epochs.
                    phoenix_telemetry::counter_add("gsd.regroup.suppressed", 1);
                    return;
                }
                if self.role() == "leader" {
                    let old_entry = self
                        .members
                        .iter()
                        .find(|m| m.partition == member.partition)
                        .copied();
                    // Idempotent re-join: nothing changed, do not bump the
                    // epoch or rebroadcast (damps membership wars).
                    let unchanged = old_entry == Some(member);
                    // The entry we hold is NEWER than the joiner: a stale
                    // pre-partition instance is asking back in after the
                    // majority already replaced it. The newer pid stays
                    // authoritative.
                    let superseded = old_entry.is_some_and(|old| old.gsd > member.gsd);
                    if unchanged || (self.regroup.enabled() && superseded) {
                        // Under regroup, answer with the current membership:
                        // a frozen peer asking back in after a heal that
                        // required no takeover can thaw on it, and a
                        // superseded instance yields and dies on it.
                        if self.regroup.enabled() {
                            ctx.send(member.gsd, self.membership_msg());
                        }
                        return;
                    }
                    let old_gsd = old_entry.map(|m| m.gsd);
                    self.members.retain(|m| m.partition != member.partition);
                    self.members.push(member);
                    self.refresh_roles(ctx);
                    self.epoch += 1;
                    let msg = self.membership_msg();
                    self.broadcast_meta(ctx, msg.clone());
                    // If a still-running instance was replaced (e.g. a
                    // false takeover after a link partition), tell it
                    // directly so it can yield — it is no longer in the
                    // member list and would miss the broadcast.
                    if let Some(old) = old_gsd {
                        if old != member.gsd {
                            ctx.send(old, msg);
                        }
                    }
                    if self.regroup.enabled() {
                        // The partition is vouched-for again: clear any
                        // stale flag a regroup round put on its entry.
                        ctx.send(
                            self.config,
                            KernelMsg::DirectoryStale {
                                partition: member.partition,
                                stale: false,
                            },
                        );
                    }
                    self.push_partition_view(ctx);
                } else if let Some(leader) = self.leader() {
                    self.send_routed(ctx, leader.gsd, leader.node, KernelMsg::MetaJoin { member });
                }
            }
            KernelMsg::MetaMembership { epoch, members } => {
                // Duplicate resolution first, independent of epoch: if the
                // group installed a NEWER GSD for our partition (a rescue
                // or false takeover raced us), yield to it.
                if let Some(other) = members
                    .iter()
                    .find(|m| m.partition == self.partition)
                    .map(|m| m.gsd)
                {
                    if other != ctx.pid() && other > ctx.pid() {
                        if self.draining {
                            // Slow-drain handoff complete: the replacement
                            // runs fresh kernel services on its new node,
                            // and unlike a dead-node takeover this node is
                            // still alive — ours would leak as orphans.
                            let mut orphans: BTreeSet<Pid> = self.supervisor.pids().collect();
                            orphans.extend([
                                self.local.event,
                                self.local.bulletin,
                                self.local.checkpoint,
                            ]);
                            for pid in orphans {
                                if pid != Pid(0) && pid != ctx.pid() && ctx.process_is_alive(pid) {
                                    ctx.kill(pid);
                                }
                            }
                        }
                        ctx.trace(TraceEvent::Milestone {
                            label: "gsd-yielded",
                            value: self.partition.0 as f64,
                        });
                        ctx.kill(ctx.pid());
                        return;
                    }
                }
                if epoch >= self.epoch {
                    // A fresh broadcast naming *our* pid is the majority
                    // vouching for us: the only thaw edge a frozen GSD
                    // accepts (self-election on heal would re-split the
                    // brain the moment views diverge).
                    let named_me = members
                        .iter()
                        .any(|m| m.partition == self.partition && m.gsd == ctx.pid());
                    self.epoch = epoch;
                    self.members = members.unwrap_or_clone();
                    self.patch_own_entry();
                    if self.my_index().is_none() {
                        self.members.push(self.local);
                        // Re-join at the next tick, not instantly: a
                        // stale broadcast must not trigger a join →
                        // broadcast → join cycle at network latency.
                        self.needs_rejoin = true;
                    }
                    if named_me && self.regroup.frozen() {
                        self.leave_frozen(ctx);
                    }
                    self.refresh_roles(ctx);
                    self.push_partition_view(ctx);
                }
            }
            KernelMsg::MetaMemberDown { partition, .. } => {
                if partition != self.partition {
                    self.members.retain(|m| m.partition != partition);
                    self.refresh_roles(ctx);
                }
            }
            KernelMsg::SvcRegister { kind, pid, factory } => {
                let (now, alive) = (ctx.now(), |p| ctx.process_is_alive(p));
                let sup = &mut self.supervisor;
                match sup.on_register(&mut self.local, kind, pid, factory, now, alive) {
                    Registered::Tracked => {}
                    Registered::StaleDuplicate => ctx.kill(pid),
                    Registered::Adopted { displaced } => {
                        if let Some(old) = displaced {
                            ctx.kill(old);
                        }
                        self.patch_own_entry();
                        self.announce_membership_change(ctx);
                        self.publish(
                            ctx,
                            EventType::ServiceRecovery,
                            ctx.node(),
                            EventPayload::Service(kind, ctx.node()),
                        );
                    }
                }
            }
            KernelMsg::SvcHeartbeat { pid, .. } => self.supervisor.on_heartbeat(pid, ctx.now()),
            KernelMsg::ProbeResp { req } => self.on_probe_resp(ctx, req.0),
            KernelMsg::ProbeReq { req } => {
                ctx.send(from, KernelMsg::ProbeResp { req });
            }
            KernelMsg::SlowPing { seq } => {
                // Echo immediately — the pinger turns the round trip into
                // an RTT sample; a slow node's stretched service time is
                // exactly the signal being measured.
                ctx.send(from, KernelMsg::SlowPong { seq });
            }
            KernelMsg::SlowPong { seq } => {
                if let Some((node, at)) = self.slow_ping_sent.remove(&seq) {
                    self.observe_peer_rtt(ctx, node, ctx.now().since(at).as_nanos());
                }
            }
            KernelMsg::SlowLeaderYield { from_partition } => {
                // Honoured only while actually leading, only from the
                // current ring princess, at most once per degradation —
                // and only when our own detector corroborates: a truly
                // slow leader reads a majority of its peers as Slow (its
                // own stretched latency reflected back, `gray_self`). A
                // healthy leader does not, so a request from a princess
                // that is itself the degraded one (it observes only us,
                // so it cannot tell) is rejected instead of toppling a
                // healthy leader.
                if self.slow.enabled()
                    && !self.regroup.frozen()
                    && self.role() == "leader"
                    && self.members.get(1).map(|m| m.partition) == Some(from_partition)
                    && !self.quarantined.contains(&self.partition)
                    && self.gray_self()
                {
                    phoenix_telemetry::counter_add("gsd.slow.leader_yields", 1);
                    ctx.trace(TraceEvent::Milestone {
                        label: "slow-leader-yield",
                        value: self.partition.0 as f64,
                    });
                    // Self-quarantine: the same broadcast that demotes us
                    // to the ring tail promotes the princess — a 0-leader
                    // gap at worst, never two leaders.
                    let mut next = self.quarantined.clone();
                    next.insert(self.partition);
                    self.set_quarantine(ctx, next);
                }
            }
            KernelMsg::MetaQuarantine { epoch, quarantined } => {
                if !self.slow.enabled() {
                    return;
                }
                let set: BTreeSet<PartitionId> = quarantined.into_iter().collect();
                if epoch < self.quarantine_epoch
                    || (epoch == self.quarantine_epoch && set == self.quarantined)
                {
                    return;
                }
                self.quarantine_epoch = epoch;
                self.quarantined = set;
                if !self.quarantined.contains(&self.partition) {
                    // Reinstated (or never in): a future quarantine may
                    // legitimately drain again.
                    self.draining = false;
                    self.drained = false;
                }
                self.refresh_roles(ctx);
                self.maybe_drain(ctx);
            }
            KernelMsg::RegroupPing {
                round,
                witness,
                witness_epoch,
                ..
            } => {
                // Always answer (even frozen — reachability is
                // reachability; the `frozen` bit tells the pinger whether
                // we can vouch for a membership).
                if self.regroup.enabled() {
                    self.observe_witness(witness, witness_epoch);
                    ctx.send(
                        from,
                        KernelMsg::RegroupAck {
                            from_partition: self.partition,
                            epoch: self.epoch,
                            round,
                            frozen: self.regroup.frozen(),
                            weight: self.regroup.configured_weight(self.partition),
                            witness: self.regroup.witness().unwrap_or(PartitionId(0)),
                            witness_epoch: self.regroup.witness_epoch(),
                        },
                    );
                    // Verdict propagation: a peer opening a round suspects
                    // the topology changed. On an even split the losing
                    // side's leader can have its entire ring neighbourhood
                    // on its own island (predecessor reachable, so no
                    // suspicion ever fires) and would lead until heal —
                    // echo a round of our own so every reachable GSD
                    // concludes a verdict within one window of the first
                    // detector. `start_regroup_round` dedups on an active
                    // round, and echoes only chain while pings keep
                    // arriving, so steady state stays quiet.
                    if self.regroup.votes_enabled() {
                        self.start_regroup_round(ctx);
                    }
                }
            }
            KernelMsg::RegroupAck {
                from_partition,
                epoch,
                round,
                frozen,
                weight,
                witness,
                witness_epoch,
            } => {
                if self.regroup.enabled() {
                    self.observe_witness(witness, witness_epoch);
                    self.regroup.on_ack(
                        round,
                        from_partition,
                        AckInfo {
                            gsd: from,
                            epoch,
                            frozen,
                            weight,
                        },
                        ctx.now(),
                    );
                }
            }
            KernelMsg::RegroupProbeAck {
                round,
                partition,
                alive,
                ..
            } => {
                // Home-node testimony about a peer partition's GSD. Our
                // own partition never needs testifying about.
                if self.regroup.enabled() && partition != self.partition {
                    self.regroup.on_home_report(round, partition, alive);
                }
            }
            KernelMsg::CfgSetParam { key, value, .. } => {
                if key == "hb_interval_ms" {
                    if let Ok(ms) = value.parse::<u64>() {
                        self.params.ft.hb_interval =
                            phoenix_sim::SimDuration::from_millis(ms.max(1));
                        // Reset heartbeat baselines so a *longer* interval
                        // does not trip deadlines computed from beats that
                        // were sent on the old cadence.
                        let now = ctx.now();
                        for p in &mut self.peers {
                            p.live.rebase(now);
                        }
                    }
                }
            }
            KernelMsg::DirectoryUpdateNode { services } => {
                // Config respawned a node's daemons (node brought back up).
                let node = services.node;
                self.cluster_wds.insert(node, services.wd);
                // Vote-table profiles fan this out to *every* GSD so
                // regroup probes reach fresh WD pids; only the owning
                // partition tracks the node for fault monitoring.
                let mine = self
                    .topology
                    .partition(self.partition)
                    .is_some_and(|spec| spec.all_nodes().contains(&node));
                if !mine {
                    return;
                }
                // Config's push supersedes anything we were re-asserting.
                self.dir_resend_nodes.remove(&node);
                self.node_daemons.insert(node, services);
                let was_down = self
                    .peer_of(Watched::Wd(node))
                    .is_some_and(|p| p.live.is_down());
                self.watch_wd(node, services.wd, ctx.now());
                if was_down {
                    self.publish(ctx, EventType::NodeRecovery, node, EventPayload::Node(node));
                }
            }
            KernelMsg::CkLoadResp {
                data: Some(CheckpointData::Supervision { entries }),
                ..
            } => {
                // Supervision roster restore after GSD respawn.
                for step in Supervisor::rejoin(entries, |p| ctx.process_is_alive(p)) {
                    match step {
                        Rejoin::Rebind(pid) => ctx.send(
                            pid,
                            KernelMsg::PartitionView {
                                members: self.members.clone(),
                                local: self.local,
                            },
                        ),
                        Rejoin::Respawn(factory) => {
                            let kind = ServiceKind::UserEnvironment;
                            let action = RecoveryAction::Migrated(ctx.node());
                            self.respawn_service(ctx, kind, &factory, action);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_SCAN => {
                if self.monitoring {
                    // Frozen: no suspicion processing at all — the scan
                    // deadline loop is what ripens into takeovers. The
                    // timer stays armed so monitoring resumes on thaw.
                    if !self.regroup.frozen() {
                        self.scan(ctx);
                    }
                    ctx.set_timer(self.params.ft.check_interval, TOK_SCAN);
                }
            }
            TOK_TICK => {
                if self.monitoring {
                    self.tick(ctx);
                }
            }
            TOK_DIR_RETRY => {
                // Still waiting for the respawn directory: the query or its
                // reply was lost — ask again.
                if matches!(self.init, Some(GsdInit::Respawn { .. })) {
                    self.send_directory_query(ctx);
                }
            }
            TOK_REGROUP => self.conclude_regroup(ctx),
            TOK_REGROUP_RETRY => {
                // Heal detection: while frozen, keep opening rounds until
                // a majority answers. An unfrozen majority polls too while
                // the witness is unreachable, so the failover can fire the
                // moment the takeover licence ripens (and so a healed
                // witness is re-observed promptly).
                if self.regroup.frozen() || self.regroup.witness_lost() {
                    self.start_regroup_round(ctx);
                }
            }
            t if t > OP_BASE => {
                if let Some(op) = self.ops.remove(&(t - OP_BASE)) {
                    self.run_op(ctx, op);
                }
            }
            _ => {}
        }
    }

    fn on_kill(&mut self, _now: phoenix_sim::SimTime) {
        // Probe sessions die with this GSD: abandon their spans with an
        // `aborted` disposition so `open_spans()` cannot climb across
        // fault schedules.
        for s in std::mem::take(&mut self.probes).into_values() {
            phoenix_telemetry::span_abort(s.span);
        }
        // A GSD that dies frozen (most often: yielding to the majority's
        // replacement after a heal) abandons its frozen-episode span, and
        // any round still collecting goes with it.
        if let Some(span) = self.round_span.take() {
            phoenix_telemetry::span_abort(span);
        }
        if let Some(span) = self.frozen_span.take() {
            phoenix_telemetry::span_abort(span);
        }
    }

    fn name(&self) -> &str {
        "gsd"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
