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
//! This actor is a router. What the protocol *decides* lives in layers
//! that know nothing of the simulator or of telemetry (DESIGN.md §16):
//!
//! * `liveness` — is a watched daemon silent, and on which interfaces;
//! * `probe` — what a probe session of its node's PPM agent found;
//! * `regroup` — does this side hold quorum, and what follows: the round
//!   to send, the reply to a ping, what a conclusion asks of this
//!   partition, the takeover licence;
//! * `ring` — who is a member, in which seat, and who may join;
//! * `failover` — where a replacement GSD goes, and whether it rebuilds
//!   the partition's services or adopts them;
//! * `dirsync` — what the config directory is still owed;
//! * `slow_detect`, `nic_health` — is a peer slow, is an interface lossy,
//!   and what may be done about it;
//! * [`federation`]'s `Supervisor` — the partition's services (paper
//!   Fig 4).
//!
//! The actor feeds them messages and timer instants and turns their
//! answers into sends, timers, spawns, trace records, counters and spans.
//! It keeps the watch table, the delayed-op table and the telemetry span
//! ids, which are no decisions.

use crate::directory::NodeTable;
use crate::federation::{self, Lapsed, Registered, Rejoin, Supervisor};
use crate::group::dirsync::DirSync;
use crate::group::failover::{self, Cause, Failover, Placement};
use crate::group::liveness::{self, Beat, Liveness, Silence, Watched};
use crate::group::registry::{kernel_factory_key, SharedRegistry};
use crate::group::ring::{Adoption, Join, Members, Ring, Role};
use crate::group::wd::Wd;
use crate::nic_health::{HealthTransition, NicHealth};
use crate::group::probe::{Outcome, Probes};
use crate::params::{self, FtParams, KernelParams};
use crate::regroup::{self, Licence, Regroup, Why};
use crate::slow_detect::{self, SlowDetect, SlowTransition, Verdict as SlowVerdict};
use phoenix_proto::{
    ClusterTopology, Event, EventPayload, EventType, KernelMsg, MemberInfo, NodeServices,
    PartitionId, RequestId, ServiceDirectory, ServiceKind, Shared,
};
use phoenix_sim::{
    Actor, Ctx, Diagnosis, FaultTarget, NicId, NodeId, Pid, RecoveryAction, SimDuration, SimTime,
    TimerId, TraceEvent,
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
/// Per-NIC heartbeat pattern analysis cost (Tables 1–2 network rows:
/// 348 µs).
pub(crate) const NIC_ANALYSIS_DELAY: SimDuration = SimDuration::from_micros(348);
/// Same-host failure classification cost (Table 3 process row: 12 µs).
pub(crate) const LOCAL_DIAG_DELAY: SimDuration = SimDuration::from_micros(12);

const OP_BASE: u64 = 100;

fn milestone(ctx: &mut Ctx<'_, KernelMsg>, label: &'static str, value: impl Into<f64>) {
    let value = value.into();
    ctx.trace(TraceEvent::Milestone { label, value });
}

/// Keep the witness gauges current.
fn export_witness(view: Option<(PartitionId, u64)>) {
    if let Some((witness, epoch)) = view {
        phoenix_telemetry::gauge_set("gsd.regroup.witness", witness.0 as f64);
        phoenix_telemetry::gauge_set("gsd.regroup.witness_epoch", epoch as f64);
    }
}

fn detected(ctx: &mut Ctx<'_, KernelMsg>, target: FaultTarget) {
    let observer = ctx.pid();
    ctx.trace(TraceEvent::FaultDetected { observer, target });
}

fn diagnosed(ctx: &mut Ctx<'_, KernelMsg>, target: FaultTarget, diagnosis: Diagnosis) {
    let observer = ctx.pid();
    ctx.trace(TraceEvent::FaultDiagnosed {
        observer,
        target,
        diagnosis,
    });
}

fn recovered(ctx: &mut Ctx<'_, KernelMsg>, target: FaultTarget, action: RecoveryAction) {
    ctx.trace(TraceEvent::Recovered { target, action });
}

fn role_change(ctx: &mut Ctx<'_, KernelMsg>, role: &'static str) {
    let pid = ctx.pid();
    ctx.trace(TraceEvent::RoleChange { pid, role });
}

/// Record a flight this GSD saw end, from `start` to now, on its node.
fn flight(ctx: &Ctx<'_, KernelMsg>, path: &'static str, start: SimTime) {
    phoenix_telemetry::flight(path, "gsd", ctx.node().0, start.0, ctx.now().0);
}

fn quarantine_msg(epoch: u64, set: &BTreeSet<PartitionId>) -> KernelMsg {
    KernelMsg::MetaQuarantine {
        epoch,
        quarantined: set.iter().copied().collect(),
    }
}

/// The boot directory's member list, one for every boot-time GSD of a
/// cluster: `boot_cluster` sets it once every pid exists, before the
/// `Boot` message goes out.
pub(crate) type BootMembers = std::rc::Rc<std::cell::OnceCell<Members>>;

/// How this GSD instance came to exist.
enum GsdInit {
    /// Spawned by `boot_cluster`; wiring arrives in the `Boot` message,
    /// the ring from the list `boot_cluster` shares.
    Boot(BootMembers),
    /// Spawned by a ring neighbour taking over a failed member, or by a
    /// draining member itself.
    Respawn(Handover),
}

/// What a replacement GSD starts from.
struct Handover {
    /// The replaced member's info: for an in-place restart its service
    /// pids are still valid.
    hint: MemberInfo,
    /// The membership as the rescuer held it, replaced member removed.
    members: Members,
    /// The rescuer's membership epoch. The respawn adopts it so its own
    /// announcements are credible: a rescued partition that sorts to ring
    /// position 0 *is* the leader and broadcasts directly — from epoch 0
    /// every peer would discard the broadcast as stale and re-rescue
    /// forever.
    epoch: u64,
    action: RecoveryAction,
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

fn peer_in(peers: &[Peer], watched: Watched) -> Option<&Peer> {
    let slot = peers.binary_search_by_key(&watched, |p| p.watched);
    slot.ok().map(|i| &peers[i])
}

/// Has any NIC of a watched daemon produced a heartbeat inside the
/// suspicion window ending `now`? What a resolving probe session asks:
/// such a beat was lost in the network, not stopped at the source.
fn fresh_beats<'a>(peers: &'a [Peer], ft: &FtParams, now: SimTime) -> impl Fn(Watched) -> bool + 'a {
    let window = liveness::window(ft);
    move |watched| peer_in(peers, watched).is_some_and(|p| p.live.any_fresh(now, window))
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
    /// Restart a supervised service in place.
    RestartSvc(Lapsed),
    /// Respawn a failed member's GSD on the node it was placed `on`: its
    /// old host for an in-place restart, a backup node for a migration.
    /// `planned` is when the takeover was decided (`gsd.takeover` times
    /// the spawn from it).
    GsdTakeover {
        handover: Handover,
        on: NodeId,
        planned: SimTime,
    },
    /// Leader safety net: a partition has had no meta-group member for a
    /// whole tick — whoever planned its takeover died before executing
    /// it. Decide restart-vs-migrate at fire time.
    GsdRescue {
        partition: PartitionId,
        planned: SimTime,
    },
}

/// The GSD actor.
pub struct Gsd {
    partition: PartitionId,
    params: KernelParams,
    /// The cluster's one topology, shared with config and every GSD.
    topology: Shared<ClusterTopology>,
    config: Pid,
    registry: SharedRegistry,
    init: Option<GsdInit>,

    local: MemberInfo,
    /// The meta-group as this GSD holds it: members in ring order (a list
    /// shared with every GSD that holds the same one), epoch, quarantine
    /// set, the coordinates of partitions that left.
    ring: Ring,
    /// Every cluster node's daemons: this partition's nodes (the topology
    /// says which) are watched and told about views and freezes; regroup
    /// rounds probe a silent partition's home-node WDs for dead-GSD
    /// testimony. Wired from the boot/respawn directory; refreshed by
    /// config's `DirectoryUpdateNode` pushes (foreign nodes under
    /// vote-table profiles only) and by this GSD's WD restarts.
    table: NodeTable,

    /// Every daemon this GSD watches, in scan order: the partition's WDs
    /// by node, then the ring predecessor (at most one).
    peers: Vec<Peer>,
    supervisor: Supervisor,
    my_nic_known: Vec<bool>,
    /// EWMA delivery-health per parallel network, fed by heartbeat seq
    /// gaps (WD and meta-ring). Inert below the lossy rung.
    nic_health: NicHealth,

    probes: Probes,
    /// Telemetry span covering each probe session (open → resolution), by
    /// session id, with the instant it opened (the suspicion, which
    /// `gsd.detect_to_diagnose` times from); the span is aborted if this
    /// GSD dies mid-probe.
    probe_spans: BTreeMap<u64, (phoenix_telemetry::SpanId, SimTime)>,
    ops: HashMap<u64, DelayedOp>,
    next_id: u64,
    /// The role last announced in a `RoleChange`; `None` before the first
    /// and after "frozen", which is no seat in the ring.
    last_role: Option<Role>,
    /// The partitions the leader is rescuing.
    failover: Failover,
    /// Re-announce ourselves to the leader at the next tick (set when a
    /// membership broadcast was missing us).
    needs_rejoin: bool,
    /// Ring-heartbeat sequence counter (bumped once per tick; carried in
    /// every `MetaHeartbeat` so successors can discard duplicates).
    hb_seq: u64,
    /// The pending tick, once wiring has started the ring heartbeat.
    tick_timer: Option<TimerId>,
    /// Directory queries sent and directory pushes still to be repeated.
    dir: DirSync,
    /// MSCS-style quorum regroup state (inert below the partition rung).
    regroup: Regroup,
    /// Telemetry span covering a frozen episode (freeze → thaw); aborted
    /// if this GSD dies frozen (e.g. yields to its replacement).
    frozen_span: Option<phoenix_telemetry::SpanId>,
    /// Span covering the currently collecting regroup round — a child of
    /// `frozen_span` while frozen, so a post-mortem span tree shows the
    /// heal-probing rounds nested inside the frozen episode.
    round_span: Option<phoenix_telemetry::SpanId>,
    /// Latency-aware fail-slow detector: per-peer RTT scores from slow
    /// pings and probe rounds, and what they license. Inert below the slow
    /// rung.
    slow: SlowDetect,
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
    pub(crate) fn new(
        partition: PartitionId,
        params: KernelParams,
        topology: Shared<ClusterTopology>,
        config: Pid,
        registry: SharedRegistry,
        members: BootMembers,
    ) -> Self {
        Self::build(partition, params, topology, config, registry, GsdInit::Boot(members))
    }

    /// A GSD to replace a failed (or draining) member's, configured like
    /// this one.
    fn replacement(&self, handover: Handover) -> Self {
        let partition = handover.hint.partition;
        let (params, topology) = (self.params.clone(), Shared::clone(&self.topology));
        let (config, registry) = (self.config, self.registry.clone());
        let init = GsdInit::Respawn(handover);
        Self::build(partition, params, topology, config, registry, init)
    }

    fn build(
        partition: PartitionId,
        params: KernelParams,
        topology: Shared<ClusterTopology>,
        config: Pid,
        registry: SharedRegistry,
        init: GsdInit,
    ) -> Self {
        let nic_health = NicHealth::new(params.ft.nic_health(), 0);
        let regroup = Regroup::new(params.ft.regroup());
        let slow = SlowDetect::new(params.ft.slow());
        let dir = DirSync::new(params.ft.lossy());
        let probes = Probes::new(&params.ft);
        Gsd {
            partition,
            params,
            topology,
            config,
            registry,
            init: Some(init),
            local: MemberInfo::unwired(partition),
            ring: Ring::new(partition),
            table: NodeTable::default(),
            peers: Vec::new(),
            supervisor: Supervisor::default(),
            my_nic_known: Vec::new(),
            nic_health,
            probes,
            probe_spans: BTreeMap::new(),
            ops: HashMap::new(),
            next_id: 0,
            last_role: None,
            failover: Failover::default(),
            needs_rejoin: false,
            hb_seq: 0,
            tick_timer: None,
            dir,
            regroup,
            frozen_span: None,
            round_span: None,
            slow,
            draining: false,
            drained: false,
        }
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
        self.ring.role().as_str()
    }

    /// The partition this GSD believes leads the meta-group.
    pub fn leader_view(&self) -> Option<PartitionId> {
        self.ring.leader().map(|m| m.partition)
    }

    /// Current witness view when the vote table is active:
    /// `(witness partition, witness epoch)`. Chaos invariants and the
    /// quorum bench read it to evaluate the weighted win rule the same
    /// way the GSDs themselves do.
    pub fn witness_view(&self) -> Option<(PartitionId, u64)> {
        self.regroup.outlook().witness
    }

    /// Effective takeover delay currently enforced by the regroup layer.
    pub fn effective_takeover_delay(&self) -> phoenix_sim::SimDuration {
        self.regroup.outlook().takeover_delay
    }

    /// Test/introspection: probe sessions opened and not yet resolved.
    pub fn probes_in_flight(&self) -> usize {
        self.probes.in_flight()
    }

    /// The ring changed: export its size, drop the rescues the change made
    /// moot, announce a new role, and watch the predecessor the new order
    /// gives.
    fn refresh_roles(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let ring = &self.ring;
        phoenix_telemetry::gauge_set("gsd.meta_group.members", ring.members().len() as f64);
        self.failover.forget_present(|p| ring.get(p).is_some());
        let role = ring.role();
        if Some(role) != self.last_role {
            self.last_role = Some(role);
            role_change(ctx, role.as_str());
        }
        // Reset predecessor tracking if the predecessor changed.
        let pred = self.ring.predecessor();
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
        peer_in(&self.peers, watched)
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
            ppm: self.table.get(node).map_or(Pid(0), |n| n.ppm),
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

    fn schedule(&mut self, ctx: &mut Ctx<'_, KernelMsg>, after: SimDuration, op: DelayedOp) {
        let id = self.fresh_id();
        self.ops.insert(id, op);
        ctx.set_timer(after, OP_BASE + id);
    }

    /// Publish a fault or recovery event about the node `payload` names.
    fn publish(&self, ctx: &mut Ctx<'_, KernelMsg>, etype: EventType, payload: EventPayload) {
        let origin = match payload {
            EventPayload::Node(n) | EventPayload::Nic(n, _) | EventPayload::Service(_, n) => n,
            _ => ctx.node(),
        };
        let event = Event::new(etype, origin, payload);
        ctx.send(self.local.event, KernelMsg::EsPublish { event });
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
        for m in self.ring.others() {
            self.send_routed(ctx, m.gsd, m.node, msg.clone());
        }
    }

    /// `member` asks the leader this GSD holds — unless that is this GSD —
    /// to be let in.
    fn join_leader(&self, ctx: &mut Ctx<'_, KernelMsg>, member: MemberInfo) {
        if let Some(leader) = self.ring.leader().filter(|l| l.partition != self.partition) {
            self.send_routed(ctx, leader.gsd, leader.node, KernelMsg::MetaJoin { member });
        }
    }

    /// The partition's kernel services that exist, in slot order.
    fn kernel_services(&self) -> impl Iterator<Item = Pid> {
        let slots = [self.local.event, self.local.bulletin, self.local.checkpoint];
        slots.into_iter().filter(|&pid| pid != Pid(0))
    }

    fn partition_view(&self) -> KernelMsg {
        KernelMsg::PartitionView {
            members: self.ring.members().clone(),
            local: self.local,
        }
    }

    fn push_partition_view(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        phoenix_telemetry::counter_add("gsd.partition_view.pushes", 1);
        let view = self.partition_view();
        // The kernel services, the supervised user-environment services,
        // then every node's daemons.
        for pid in self.kernel_services().chain(self.supervisor.roster().map(|(_, pid)| pid)) {
            ctx.send(pid, view.clone());
        }
        for ns in self.own_rows() {
            ctx.send(ns.wd, view.clone());
            ctx.send(ns.detector, view.clone());
        }
    }

    /// The membership as this GSD holds it, announced under `epoch`.
    fn membership_at(&self, epoch: u64) -> KernelMsg {
        KernelMsg::MetaMembership {
            epoch,
            members: self.ring.members().clone(),
        }
    }

    /// The membership as this GSD holds it, at its current epoch.
    fn membership_msg(&self) -> KernelMsg {
        self.membership_at(self.ring.epoch())
    }

    /// Tell config where this partition's services are.
    fn push_directory_entry(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        let (partition, member) = (self.partition, self.local);
        ctx.send(self.config, KernelMsg::DirectoryUpdate { partition, member });
    }

    fn announce_membership_change(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Route the change through the leader (ourselves, perhaps).
        if self.ring.role() == Role::Leader {
            self.ring.bump_epoch();
            self.broadcast_meta(ctx, self.membership_msg());
        } else {
            self.join_leader(ctx, self.local);
        }
        self.push_directory_entry(ctx);
        self.dir.local_changed();
        self.push_partition_view(ctx);
    }

    // ---- wiring ----------------------------------------------------------

    /// A replacement not wired yet: it needs the current node-daemon
    /// directory from config first.
    fn awaits_directory(&self) -> bool {
        matches!(self.init, Some(GsdInit::Respawn(_)))
    }

    /// Ask config for the current directory (respawn wiring). Under the
    /// lossy rung a lost query or reply re-sends with backoff —
    /// otherwise the takeover would stall forever on a single lost message.
    fn send_directory_query(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Under NIC-health routing each resend rotates one step down the
        // health ranking: a query whose preferred path eats packets escapes
        // to an independent network instead of re-rolling the same dice.
        let earlier = self.dir.queries;
        let via = if self.nic_health.enabled() && self.nic_health.nic_count() > 0 {
            let ranked = self.nic_health.ranked();
            Some(ranked[earlier as usize % ranked.len()])
        } else {
            None
        };
        let query = KernelMsg::CfgQueryDirectory { req: RequestId(0) };
        match via {
            Some(nic) => ctx.send_via(self.config, nic, query),
            None => ctx.send(self.config, query),
        }
        let retry = self.params.ft.retry();
        if let Some(delay) = retry.on_send(&mut self.dir.queries, Some(ctx.rng())) {
            ctx.set_timer(delay, TOK_DIR_RETRY);
        } else if self.regroup.enabled() {
            // Retry budget exhausted while still unwired. An island
            // split can out-last every bounded attempt, and a respawned
            // GSD that gives up on wiring is a permanent orphan — keep
            // asking at heartbeat cadence until the directory answers.
            ctx.set_timer(self.params.ft.hb_interval, TOK_DIR_RETRY);
        }
    }

    /// Whether `node` is one of this partition's nodes.
    fn owns(&self, node: NodeId) -> bool {
        let spec = self.topology.partition(self.partition);
        spec.is_some_and(|s| {
            s.server == node || s.backups.contains(&node) || s.compute.contains(&node)
        })
    }

    /// This partition's node daemons, in ascending node order.
    fn own_rows(&self) -> Vec<NodeServices> {
        let spec = self.topology.partition(self.partition);
        let mut nodes = spec.map_or(Vec::new(), |spec| spec.all_nodes());
        nodes.sort_unstable();
        nodes.dedup();
        nodes.into_iter().filter_map(|node| self.table.get(node)).collect()
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
            self.nic_health = NicHealth::new(self.params.ft.nic_health(), nics);
        }
        if let Some(ns) = self.table.get(ctx.node()).filter(|ns| self.owns(ns.node)) {
            self.local.host_ppm = ns.ppm;
        }

        // Initialize WD tracking for every partition node.
        let now = ctx.now();
        if let Some(spec) = self.topology.partition(self.partition).cloned() {
            for node in spec.all_nodes() {
                let wd = self.table.get(node).map(|ns| ns.wd);
                match (self.peer_of_mut(Watched::Wd(node)), wd) {
                    // A track config already pushed (`DirectoryUpdateNode`
                    // ahead of the wiring reply) stays, sized to the
                    // interfaces counted just now.
                    (Some(peer), _) => peer.live.size(nics, now),
                    (None, Some(wd)) => self.watch_wd(node, wd, now),
                    (None, None) => {}
                }
            }
        }

        self.refresh_roles(ctx);
        ctx.set_timer(self.params.ft.check_interval, TOK_SCAN);
        self.tick_timer = Some(ctx.set_timer(self.params.ft.hb_interval, TOK_TICK));
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

    /// The directory arrived: take up the partition. A boot-time GSD is
    /// wired from the boot directory's own entry and membership; a
    /// replacement from its rescuer's hint and snapshot — and it alone has
    /// a recovery to finish.
    fn wire(&mut self, ctx: &mut Ctx<'_, KernelMsg>, dir: Shared<ServiceDirectory>) {
        let Some(init) = self.init.take() else {
            return;
        };
        let (hint, members, epoch, recovery) = match init {
            // The directory was built before spawn order: our own entry
            // is ours.
            GsdInit::Boot(list) => {
                let own = dir.partition(self.partition).copied().unwrap_or(self.local);
                let members = list.get().cloned().expect("boot_cluster sets it before Boot");
                (own, members, self.ring.epoch(), None)
            }
            GsdInit::Respawn(h) => (h.hint, h.members, h.epoch, Some(h.action)),
        };
        self.table.wire(dir);
        self.local = hint;
        self.local.gsd = ctx.pid();
        self.local.node = ctx.node();
        // The recovery action again, when it means starting the partition's
        // kernel services here instead of adopting the hinted ones.
        let rebuild = recovery.filter(|&action| {
            failover::rebuild_services(&hint, action, |pid| ctx.process_is_alive(pid))
        });
        if let Some(action) = rebuild {
            // Checkpoint first so the others can restore from it.
            for kind in [
                ServiceKind::Checkpoint,
                ServiceKind::Event,
                ServiceKind::DataBulletin,
            ] {
                let key = kernel_factory_key(kind, self.partition);
                // Their peers are the rescuer's snapshot, as it held it.
                let pid = self.respawn_service(ctx, &key, action, &members);
                if let Some(slot) = self.local.service_mut(kind) {
                    *slot = pid.unwrap_or(Pid(0));
                }
            }
        }
        // Enter the membership ourselves.
        self.ring.set_epoch(epoch);
        self.ring.install(members, self.local);
        self.finish_wiring(ctx);
        if let Some(action) = recovery {
            self.announce_recovery(ctx, hint.gsd, action, rebuild.is_none());
        }
    }

    /// A replacement is wired: tell the world, and the instance replaced.
    fn announce_recovery(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        old_gsd: Pid,
        action: RecoveryAction,
        adopted: bool,
    ) {
        // Adopt the surviving services: they are still bound to the GSD we
        // replace, and if that instance died *frozen* (yielded while a
        // regroup verdict had it suppressed) its last freeze fan-out is
        // stale forever — nobody else will ever thaw them. Rebind them to
        // us and clear the flag; we start unfrozen, and our own regroup
        // will re-freeze them if this island really has lost quorum.
        if adopted {
            self.push_partition_view(ctx);
            self.freeze_fanout(ctx, false);
        }
        self.announce_membership_change(ctx);
        // Make sure the instance we replace (if it is somehow still
        // running — false takeover) learns about us and yields.
        if old_gsd != ctx.pid() && old_gsd != Pid(0) {
            ctx.send(old_gsd, self.membership_at(self.ring.epoch() + 1));
        }

        // Restore the user-environment supervision roster.
        federation::ck_load(ctx, &self.local, ServiceKind::Group);

        recovered(ctx, FaultTarget::Process(ctx.pid()), action);
        let recovered = EventPayload::Service(ServiceKind::Group, ctx.node());
        self.publish(ctx, EventType::ServiceRecovery, recovered);
    }

    /// Build a supervised service's replacement from its factory and start
    /// it on this node. The replacement registers itself (`SvcRegister`),
    /// which is what updates `local` and tells the world.
    fn respawn_service(
        &self,
        ctx: &mut Ctx<'_, KernelMsg>,
        factory: &str,
        action: RecoveryAction,
        members: &Members,
    ) -> Option<Pid> {
        let args = federation::respawn_args(&self.local, members, action, &self.params);
        let actor = self.registry.borrow_mut().build(factory, &args)?;
        Some(ctx.spawn(ctx.node(), actor))
    }

    // ---- scanning --------------------------------------------------------

    /// Suspicion cleared: beats resumed while the probe was in flight, so
    /// they were lost in the network, not stopped at the source. Ends the
    /// session without a diagnosis (no trace events — the paper pipeline
    /// never reaches this state, so traces stay byte-identical).
    fn abort_probe(&mut self, watched: Watched) {
        phoenix_telemetry::counter_add("gsd.suspicion.aborted", 1);
        if let Some(p) = self.peer_of_mut(watched) {
            p.live.end_probe(false);
        }
    }

    /// Judge every watched daemon, in table order — the scan order decides
    /// the order probes are sent in, and the event queue and the seeded
    /// network draws depend on it — then the supervised services.
    fn scan(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let (own_node, now) = (ctx.node(), ctx.now());
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
                    detected(ctx, FaultTarget::Process(pid));
                    phoenix_telemetry::counter_add("gsd.faults.detected", 1);
                    phoenix_telemetry::counter_add("gsd.suspicion.raised", 1);
                    let ring = matches!(watched, Watched::Ring(_));
                    let timeout = if ring {
                        self.params.ft.meta_node_probe_timeout
                    } else {
                        self.params.ft.wd_node_probe_timeout
                    };
                    let session = self.fresh_id();
                    let span = phoenix_telemetry::span_start("gsd.probe.session", "gsd", own_node.0);
                    self.probe_spans.insert(session, (span, now));
                    self.probes.open(session, watched, ppm);
                    let spacing = self.params.ft.probe_round_interval;
                    self.schedule(ctx, spacing, DelayedOp::ProbeRound(session));
                    self.schedule(ctx, timeout, DelayedOp::ProbeTimeout(session));
                    if ring {
                        // A silent ring predecessor is exactly what a
                        // partition looks like from here: open a regroup
                        // round alongside the probe. The round concludes
                        // before the probe pipeline can ripen into a
                        // takeover, so the quorum verdict is in first.
                        self.start_regroup_round(ctx, Why::Suspicion);
                    }
                }
                Silence::Partial(nics) => {
                    // Partial silence: network failure on those interfaces.
                    for nic in nics {
                        detected(ctx, FaultTarget::Nic(node, nic));
                        self.schedule(ctx, NIC_ANALYSIS_DELAY, DelayedOp::NicDiag { node, nic });
                    }
                }
            }
        }
        for lapsed in self.supervisor.scan(now, window) {
            detected(ctx, FaultTarget::Process(lapsed.pid));
            self.schedule(ctx, LOCAL_DIAG_DELAY, DelayedOp::LocalDiagSvc(lapsed));
        }
    }

    // ---- probes ----------------------------------------------------------

    fn probe_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some((watched, target)) = self.probes.round(session, ctx.now()) else {
            return;
        };
        phoenix_telemetry::counter_add("gsd.probes.sent", 1);
        // Probes are single-path: route them over the healthiest usable
        // interface so a degraded NIC cannot eat the very traffic that
        // decides whether a silent peer is dead.
        let req = KernelMsg::ProbeReq { req: RequestId(session) };
        match self.peer_of(watched).map(|p| p.node) {
            Some(node) => self.send_routed(ctx, target, node, req),
            None => ctx.send(target, req),
        }
        let spacing = self.params.ft.probe_round_interval;
        self.schedule(ctx, spacing, DelayedOp::ProbeRound(session));
    }

    fn on_probe_resp(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let fresh = fresh_beats(&self.peers, &self.params.ft, ctx.now());
        let Some(resp) = self.probes.on_response(session, ctx.now(), fresh) else {
            return;
        };
        if let Some(rtt) = resp.rtt {
            flight(ctx, "gsd.probe.rtt", SimTime(ctx.now().0 - rtt.as_nanos()));
        }
        let peer = self.peer_of(resp.watched).map(|p| p.node);
        if let (Some(node), Some(rtt)) = (peer, resp.rtt) {
            let transition = self.slow.observe(node, rtt.as_nanos(), ctx.now());
            self.apply_slow_transition(ctx, transition);
        }
        if let Some(outcome) = resp.outcome {
            self.resolve_probe(ctx, session, resp.watched, outcome);
        }
    }

    fn on_probe_timeout(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let fresh = fresh_beats(&self.peers, &self.params.ft, ctx.now());
        if let Some((watched, outcome)) = self.probes.on_timeout(session, fresh) {
            self.resolve_probe(ctx, session, watched, outcome);
        }
    }

    /// A probe session is over: close its span and act on the outcome.
    fn resolve_probe(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        session: u64,
        watched: Watched,
        outcome: Outcome,
    ) {
        let suspected = self.probe_spans.remove(&session).map(|(span, opened)| {
            phoenix_telemetry::span_end(span);
            opened
        });
        let verdict = match outcome {
            Outcome::Aborted => return self.abort_probe(watched),
            Outcome::NodeFailure => Diagnosis::NodeFailure,
            Outcome::ProcessFailure => Diagnosis::ProcessFailure,
            Outcome::PartialProcessFailure => {
                phoenix_telemetry::counter_add("gsd.probes.partial", 1);
                Diagnosis::ProcessFailure
            }
        };
        self.diagnose(ctx, watched, verdict, suspected);
    }

    // ---- diagnoses & recovery ---------------------------------------------

    /// A probe session resolved: the silent daemon's node answered
    /// (`ProcessFailure`) or never did (`NodeFailure`). One pipeline for
    /// both kinds of peer; what differs is the recovery — a WD is restarted
    /// in place, or needs nothing when its node died; a ring predecessor is
    /// taken over, and only under the regroup layer's licence. `suspected`
    /// is when the session opened.
    fn diagnose(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        watched: Watched,
        verdict: Diagnosis,
        suspected: Option<SimTime>,
    ) {
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
        let window = liveness::window(&self.params.ft);
        let vetoed = node_down && self.slow.alive_veto(node, ctx.now(), window);
        self.peers[slot].live.end_probe(node_down && !vetoed);
        if vetoed {
            phoenix_telemetry::counter_add("gsd.slow.dead_vetoed", 1);
            milestone(ctx, "slow-not-dead", node.0);
            return;
        }
        if node_down {
            self.slow.mark_dead(node);
        }
        if let Some(suspected) = suspected {
            flight(ctx, "gsd.detect_to_diagnose", suspected);
        }
        let target = if node_down { FaultTarget::Node(node) } else { FaultTarget::Process(pid) };
        diagnosed(ctx, target, verdict);
        if node_down {
            if member.is_none() {
                // "for WD, in case of node failure, the recovery time is
                // 0, because ... migrating WD means nothing."
                recovered(ctx, FaultTarget::Node(node), RecoveryAction::NoneNeeded);
            }
            self.publish(ctx, EventType::NodeFault, EventPayload::Node(node));
        } else {
            let kind = match watched {
                Watched::Wd(_) => ServiceKind::WatchDaemon,
                Watched::Ring(_) => ServiceKind::Group,
            };
            self.publish(ctx, EventType::ServiceFault, EventPayload::Service(kind, node));
        }
        match member {
            Some(failed) => self.plan_takeover(ctx, failed, verdict),
            None if node_down => {}
            // Restart in place, at once: Table 1 reports 0 µs.
            None => self.restart_wd(ctx, node),
        }
    }

    fn restart_wd(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId) {
        let wd = Wd::respawn(
            node,
            self.partition,
            self.params.ft.hb_interval,
            ctx.pid(),
            RecoveryAction::RestartedInPlace,
        );
        let new_pid = ctx.spawn(node, Box::new(wd));
        if let Some(mut ns) = self.table.get(node) {
            ns.wd = new_pid;
            self.table.update(ns);
            ctx.send(self.config, KernelMsg::DirectoryUpdateNode { services: ns });
            self.dir.node_changed(ns);
        }
        self.watch_wd(node, new_pid, ctx.now());
        let recovered = EventPayload::Service(ServiceKind::WatchDaemon, node);
        self.publish(ctx, EventType::ServiceRecovery, recovered);
    }

    /// Where the replacement of `hint`'s GSD goes (`failover::place`, on
    /// this GSD's view of the machines). A gray-self observer's placement
    /// vetoes are its own slowness reflected back: a drain ignores them, or
    /// it could never fire.
    fn place(
        &self,
        ctx: &Ctx<'_, KernelMsg>,
        hint: &MemberInfo,
        cause: Cause,
    ) -> Option<Placement> {
        let spec = self.topology.partition(hint.partition)?;
        let trusted = cause != Cause::Drain || !self.slow.gray_self();
        let degraded = |n| trusted && self.slow.is_slow(n);
        failover::place(spec, hint.node, cause, |n| ctx.node_is_up(n), degraded)
    }

    /// The spawn of `hint`'s replacement as placed, on the membership held
    /// now (`hint` is out of it), for a takeover decided at `planned`.
    fn takeover(&self, hint: MemberInfo, placed: Placement, planned: SimTime) -> DelayedOp {
        let handover = Handover {
            hint,
            members: self.ring.members().clone(),
            epoch: self.ring.epoch(),
            action: placed.action,
        };
        let on = placed.to;
        DelayedOp::GsdTakeover {
            handover,
            on,
            planned,
        }
    }

    /// The ring predecessor `failed` is diagnosed: drop it from the
    /// membership and schedule its replacement — in place when only the
    /// daemon died, on a backup node of its partition when the host did.
    fn plan_takeover(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        failed: MemberInfo,
        verdict: Diagnosis,
    ) {
        self.ring.remove(failed.partition);
        let (partition, diagnosis) = (failed.partition, verdict);
        self.broadcast_meta(ctx, KernelMsg::MetaMemberDown { partition, diagnosis });
        self.refresh_roles(ctx);
        let Some(placed) = self.place(ctx, &failed, Cause::Diagnosed(verdict)) else {
            milestone(ctx, "no-backup-node", failed.partition.0);
            return;
        };
        let takeover = self.takeover(failed, placed, ctx.now());
        self.schedule(ctx, placed.cost, takeover);
    }

    /// A delayed op's instant came.
    fn run_op(&mut self, ctx: &mut Ctx<'_, KernelMsg>, op: DelayedOp) {
        match op {
            DelayedOp::ProbeRound(s) => self.probe_round(ctx, s),
            DelayedOp::ProbeTimeout(s) => self.on_probe_timeout(ctx, s),
            DelayedOp::NicDiag { node, nic } => {
                diagnosed(ctx, FaultTarget::Nic(node, nic), Diagnosis::NetworkFailure);
                // One of several redundant networks: no recovery needed.
                recovered(ctx, FaultTarget::Nic(node, nic), RecoveryAction::NoneNeeded);
                self.publish(ctx, EventType::NetworkFault, EventPayload::Nic(node, nic));
            }
            DelayedOp::LocalDiagSvc(lapsed) => {
                diagnosed(ctx, FaultTarget::Process(lapsed.pid), Diagnosis::ProcessFailure);
                let failed = EventPayload::Service(lapsed.kind, ctx.node());
                self.publish(ctx, EventType::ServiceFault, failed);
                let cost = federation::restart_cost(lapsed.kind);
                self.schedule(ctx, cost, DelayedOp::RestartSvc(lapsed));
            }
            DelayedOp::RestartSvc(Lapsed { factory, .. }) => {
                let action = RecoveryAction::RestartedInPlace;
                let members = self.ring.members();
                if self.respawn_service(ctx, &factory, action, members).is_none() {
                    milestone(ctx, "no-factory", 0.0);
                }
            }
            DelayedOp::GsdTakeover {
                mut handover,
                on,
                planned,
            } => {
                let hint = handover.hint;
                if self.ring.get(hint.partition).is_some() {
                    // Already rejoined (rescued by someone else).
                    return;
                }
                if !ctx.node_reachable(on) {
                    // A replacement can only be started on a machine we
                    // can route to: remote exec across a severed island
                    // is a connection failure, not a silent success. The
                    // rescue sweep retries once the partition heals.
                    milestone(ctx, "gsd-spawn-unreachable", hint.partition.0);
                    return;
                }
                phoenix_telemetry::counter_add("gsd.takeovers", 1);
                flight(ctx, "gsd.takeover", planned);
                handover.epoch = handover.epoch.max(self.ring.epoch());
                ctx.spawn(on, Box::new(self.replacement(handover)));
            }
            DelayedOp::GsdRescue { partition, planned } => {
                self.failover.end_rescue(partition);
                let rejoined = self.ring.get(partition).is_some();
                let hint = self.ring.known(partition).filter(|_| !rejoined);
                let placed = hint.and_then(|hint| self.place(ctx, &hint, Cause::Rescue));
                let (Some(hint), Some(placed)) = (hint, placed) else {
                    // Rejoined meanwhile, never known, or nowhere to go.
                    return;
                };
                let takeover = self.takeover(hint, placed, planned);
                self.run_op(ctx, takeover);
            }
        }
    }

    // ---- tick (ring heartbeats + introspection) ----------------------------

    fn send_meta_heartbeats(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if let Some(succ) = self.ring.successor() {
            self.hb_seq += 1;
            let nics = self.my_nic_known.len();
            phoenix_telemetry::counter_add("gsd.meta_heartbeats.sent", nics as u64);
            for i in 0..nics {
                ctx.send_via(
                    succ.gsd,
                    NicId(i as u8),
                    KernelMsg::MetaHeartbeat {
                        from_partition: self.partition,
                        nic: NicId(i as u8),
                        epoch: self.ring.epoch(),
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
                detected(ctx, FaultTarget::Nic(own, nic));
                self.schedule(ctx, LOCAL_DIAG_DELAY, DelayedOp::NicDiag { node: own, nic });
            } else if !was && up {
                self.publish(ctx, EventType::NetworkRecovery, EventPayload::Nic(own, nic));
            }
            self.my_nic_known[i] = up;
        }
    }

    /// Re-assert recently changed directory entries to config. Only active
    /// under the lossy rung; a bounded number of repeats per change.
    fn directory_anti_entropy(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let (local, nodes) = self.dir.tick();
        if local {
            self.push_directory_entry(ctx);
        }
        for services in nodes {
            ctx.send(self.config, KernelMsg::DirectoryUpdateNode { services });
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.send_meta_heartbeats(ctx);
        self.introspect_own_nics(ctx);
        for (gauge, score) in self.nic_health.gauges() {
            phoenix_telemetry::gauge_set(gauge, score);
        }
        // A frozen GSD keeps beating (so its same-island successor never
        // mistakes the freeze for a death) but performs no authoritative
        // work: no directory writes, no checkpoints, no rescues, no
        // rejoin toward a leader view that predates the partition.
        if !self.regroup.frozen() {
            self.directory_anti_entropy(ctx);
            if let Some(roster) = self.supervisor.roster_to_save() {
                federation::ck_save(ctx, &self.local, ServiceKind::Group, roster);
            }
            self.rescue_sweep(ctx);
            if self.slow.enabled() {
                self.slow_probe_round(ctx);
                self.slow_maintenance(ctx);
            }
            if std::mem::take(&mut self.needs_rejoin) {
                self.join_leader(ctx, self.local);
            }
        }
        self.tick_timer = Some(ctx.set_timer(self.params.ft.hb_interval, TOK_TICK));
    }

    /// Leader safety net: if a topology partition has no meta-group member
    /// (its takeover plan died with the daemon that scheduled it), the
    /// leader schedules a rescue. Executed with a still-missing guard, so
    /// a concurrent normal takeover wins harmlessly.
    fn rescue_sweep(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.ring.role() != Role::Leader {
            return;
        }
        let configured = self.topology.partitions.iter().map(|p| p.id);
        for partition in self.ring.missing(configured) {
            if !self.failover.begin_rescue(partition) {
                continue;
            }
            milestone(ctx, "gsd-rescue-scheduled", partition.0);
            let planned = ctx.now();
            let rescue = DelayedOp::GsdRescue { partition, planned };
            self.schedule(ctx, failover::RESCUE_AFTER, rescue);
        }
    }

    // ---- fail-slow detection (latency-aware suspicion & quarantine) --------

    fn apply_slow_transition(&self, ctx: &mut Ctx<'_, KernelMsg>, tr: Option<SlowTransition>) {
        let (counter, label, node) = match tr {
            Some(SlowTransition::Quarantined(n)) => ("gsd.slow.suspected", "slow-suspected", n),
            Some(SlowTransition::Reinstated(n)) => ("gsd.slow.reinstated", "slow-reinstated", n),
            None => return,
        };
        phoenix_telemetry::counter_add(counter, 1);
        milestone(ctx, label, node.0);
    }

    /// One slow-ping round per tick. Everyone samples its ring
    /// predecessor (the node it must judge before ever suspecting it —
    /// and for the princess, the predecessor *is* the leader); the leader
    /// additionally samples every member and its own partition's
    /// placement-candidate nodes via their watch daemons.
    fn slow_probe_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        self.slow.expire_pings(now, self.params.ft.hb_interval);
        let mut targets: Vec<(NodeId, Pid)> = Vec::new();
        targets.extend(self.ring.predecessor().map(|p| (p.node, p.gsd)));
        if self.ring.role() == Role::Leader {
            targets.extend(self.ring.others().map(|m| (m.node, m.gsd)));
            targets.extend(self.own_rows().iter().map(|ns| (ns.node, ns.wd)));
        }
        let own = ctx.node();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for (node, to) in targets {
            if to == Pid(0) || node == own || !seen.insert(node) {
                continue;
            }
            let seq = self.slow.ping(node, now);
            self.send_routed(ctx, to, node, KernelMsg::SlowPing { seq });
        }
    }

    /// Per-tick fail-slow duties beyond pinging: the princess asks a
    /// degraded leader to yield, any licensed node refreshes the witness
    /// preference, and the leader converges the quarantine set.
    fn slow_maintenance(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        let gray = self.slow.gray_self();
        // Princess duty: the leader has no ring successor judging it for
        // takeover purposes, but the princess (whose predecessor it is)
        // holds a live RTT profile — a degraded leader is asked to shed
        // leadership *without* any takeover machinery firing.
        if self.ring.role() == Role::Princess && !gray {
            let held = self.ring.quarantined();
            let slow = |l: &MemberInfo| self.slow.is_slow(l.node) && !held.contains(&l.partition);
            if let Some(l) = self.ring.leader().filter(slow) {
                phoenix_telemetry::counter_add("gsd.slow.yield_requests", 1);
                let from_partition = self.partition;
                self.send_routed(ctx, l.gsd, l.node, KernelMsg::SlowLeaderYield { from_partition });
            }
        }
        // Witness preference is only consulted when a failover fires
        // under a ripened licence; refresh it on the same licence so a
        // minority island can never install a ranking, and never from a
        // gray-self observer whose ranking is its own slowness.
        if !gray {
            let (slow, ring) = (&self.slow, &self.ring);
            let ranking = || slow.witness_preference(ring.members(), ring.quarantined());
            self.regroup.rank_witness(now, ranking);
        }
        if self.ring.role() != Role::Leader {
            return;
        }
        for (node, v) in self.slow.verdicts() {
            let (verdict, score) = slow_detect::gauges(node);
            let val = match v {
                SlowVerdict::Healthy => 0.0,
                SlowVerdict::Slow => 1.0,
                SlowVerdict::Dead => 2.0,
            };
            phoenix_telemetry::gauge_set(verdict, val);
            phoenix_telemetry::gauge_set(score, self.slow.score(node));
        }
        let held = self.ring.quarantined();
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", held.len() as f64);
        // Converge the quarantine set from member-server-node verdicts.
        let next = self.slow.converge_quarantine(self.partition, self.ring.members(), held);
        if next != *held {
            self.set_quarantine(ctx, next);
        } else if !held.is_empty() {
            // Same-epoch refresh: late joiners (empty set, epoch 0) adopt
            // the ring order within one tick; everyone else no-ops.
            self.broadcast_meta(ctx, quarantine_msg(self.ring.quarantine_epoch(), held));
        }
    }

    /// Install a new quarantine set, broadcast it under a bumped epoch,
    /// and re-derive the ring order locally. Called by the leader's
    /// convergence pass and by a leader self-quarantining on yield.
    fn set_quarantine(&mut self, ctx: &mut Ctx<'_, KernelMsg>, next: BTreeSet<PartitionId>) {
        let epoch = self.ring.quarantine_epoch() + 1;
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", next.len() as f64);
        milestone(ctx, "slow-quarantine", next.len() as f64);
        // Peers hear of the change in the order the ring had before it.
        self.broadcast_meta(ctx, quarantine_msg(epoch, &next));
        self.ring.set_quarantine(epoch, next);
        self.refresh_roles(ctx);
        self.push_partition_view(ctx);
        self.maybe_drain(ctx);
    }

    /// Quarantined-and-on-the-degraded-node: hand the partition to a
    /// healthier home node by spawning our own replacement there — the
    /// existing Migrate/duplicate-resolution machinery does the rest (the
    /// replacement joins, the leader replaces our entry, the membership
    /// naming the newer pid makes us yield). No `FaultDiagnosed`, no
    /// `gsd.takeover` flight: nothing died.
    fn maybe_drain(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let ring = &self.ring;
        if self.draining || self.drained || !ring.quarantined().contains(&self.partition) {
            return;
        }
        let Some(placed) = self.place(ctx, &self.local, Cause::Drain) else {
            return; // no healthy home node: stay put, keep serving
        };
        self.draining = true;
        phoenix_telemetry::counter_add("gsd.slow.drains", 1);
        milestone(ctx, "slow-drain", self.partition.0);
        let ring = &self.ring;
        let mut gsd = self.replacement(Handover {
            hint: self.local,
            members: Shared::new(ring.others().copied().collect()),
            epoch: ring.epoch(),
            action: placed.action,
        });
        // The clone must share our quarantine view (ring order!) and must
        // not re-drain off its fresh node on a not-yet-warmed-out entry.
        gsd.ring.set_quarantine(ring.quarantine_epoch(), ring.quarantined().clone());
        gsd.drained = true;
        ctx.spawn(placed.to, Box::new(gsd));
    }

    /// Test/introspection: the adopted quarantine view.
    pub fn quarantine_view(&self) -> (u64, Vec<PartitionId>) {
        let ring = &self.ring;
        (ring.quarantine_epoch(), ring.quarantined().iter().copied().collect())
    }

    /// Test/introspection: ring membership order as currently sorted.
    pub fn ring_order(&self) -> Vec<PartitionId> {
        self.ring.members().iter().map(|m| m.partition).collect()
    }

    // ---- quorum regroup (MSCS-style; paper-adjacent split-brain cure) ------

    /// Open a regroup round if the layer wants one: send what it says and
    /// arm the round-window timer.
    fn start_regroup_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>, why: Why) {
        let (me, epoch) = (self.partition, self.ring.epoch());
        let Some(round) = self.regroup.open_round(me, epoch, ctx.now(), why) else {
            return;
        };
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
        // The ring keeps the coordinates of partitions it removed.
        for p in self.topology.partitions.iter().map(|p| p.id) {
            if p == self.partition {
                continue;
            }
            if let Some(m) = self.ring.known(p).filter(|m| m.gsd != Pid(0)) {
                self.send_routed(ctx, m.gsd, m.node, round.ping.clone());
            }
        }
        if let Some(probe) = round.home_probe {
            for ns in self.table.rows() {
                if ns.wd != Pid(0) && !self.owns(ns.node) {
                    self.send_routed(ctx, ns.wd, ns.node, probe.clone());
                }
            }
        }
        ctx.set_timer(regroup::ROUND_WINDOW, TOK_REGROUP);
    }

    /// The round window closed: record the verdict and do what the
    /// conclusion says.
    fn conclude_regroup(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let Some(c) = self.regroup.conclude(self.partition, ctx.now()) else {
            return;
        };
        if let Some(span) = self.round_span.take() {
            phoenix_telemetry::span_end(span);
        }
        let outlook = self.regroup.outlook();
        phoenix_telemetry::gauge_set("gsd.regroup.epoch", outlook.epoch as f64);
        if let Some(lat) = outlook.round_latency {
            phoenix_telemetry::gauge_set("gsd.regroup.round_latency", lat.as_secs_f64() * 1e3);
            phoenix_telemetry::gauge_set(
                "gsd.regroup.takeover_delay",
                outlook.takeover_delay.as_secs_f64() * 1e3,
            );
        }
        export_witness(outlook.witness);
        if !c.dead.is_empty() {
            // Quorum denominator shrank on home-node dead testimony.
            phoenix_telemetry::counter_add("gsd.regroup.dead_discounts", c.dead.len() as u64);
        }
        if let Some(witness) = c.witness_failover {
            phoenix_telemetry::counter_add("gsd.regroup.witness_failover", 1);
            milestone(ctx, "witness-failover", witness.0);
        }
        if let Some((witness, epoch)) = c.report_witness {
            ctx.send(
                self.config,
                KernelMsg::CfgSetParam {
                    req: RequestId(0),
                    key: "regroup_witness".to_string(),
                    value: format!("{}:{}", witness.0, epoch),
                },
            );
        }
        if c.froze {
            self.enter_frozen(ctx);
        }
        for partition in c.stale {
            let stale = true;
            ctx.send(self.config, KernelMsg::DirectoryStale { partition, stale });
        }
        if let Some(gsd) = c.ask_back_in {
            ctx.send(gsd, KernelMsg::MetaJoin { member: self.local });
        }
        if c.reseed {
            // Re-seed as a *singleton* group. Our pre-fragmentation member
            // list still names frozen peers, so ring leadership would point
            // at one of them — a leader that drops every MetaJoin while
            // frozen, wedging the rebuild. Shrinking to ourselves makes us
            // the leader; peers' retry rounds find us unfrozen, join, and
            // thaw when our broadcast names them.
            self.ring.reseed_singleton();
            self.leave_frozen(ctx, self.ring.role());
            self.refresh_roles(ctx);
            self.announce_membership_change(ctx);
        }
        if c.keep_polling {
            ctx.set_timer(regroup::FROZEN_RETRY, TOK_REGROUP_RETRY);
        }
    }

    /// Quorum just lost: tell the world, and unwind whatever could still
    /// ripen into a takeover.
    fn enter_frozen(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        phoenix_telemetry::counter_add("gsd.regroup.freezes", 1);
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 1.0);
        self.frozen_span =
            Some(phoenix_telemetry::span_start("gsd.regroup.frozen", "gsd", ctx.node().0));
        milestone(ctx, "gsd-frozen", self.partition.0);
        role_change(ctx, "frozen");
        self.last_role = None;
        // Abort in-flight probe sessions: a pending diagnosis must not
        // ripen into a takeover after we lost quorum.
        for (session, watched) in self.probes.abandon() {
            if let Some((span, _)) = self.probe_spans.remove(&session) {
                phoenix_telemetry::span_end(span);
            }
            self.abort_probe(watched);
        }
        self.freeze_fanout(ctx, true);
    }

    /// Quorum regained and the majority named us, as `role`: thaw.
    fn leave_frozen(&mut self, ctx: &mut Ctx<'_, KernelMsg>, role: Role) {
        if !self.regroup.thaw() {
            return;
        }
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 0.0);
        if let Some(span) = self.frozen_span.take() {
            phoenix_telemetry::span_end(span);
        }
        milestone(ctx, "gsd-thawed", self.partition.0);
        role_change(ctx, role.as_str());
        self.last_role = Some(role);
        self.freeze_fanout(ctx, false);
    }

    /// Tell the partition's services they are (no longer) on a minority
    /// island: a frozen bulletin answers queries `complete = false`, a
    /// frozen detector stops exporting.
    fn freeze_fanout(&self, ctx: &mut Ctx<'_, KernelMsg>, frozen: bool) {
        let msg = KernelMsg::RegroupFreeze { frozen };
        let detectors = self.own_rows().into_iter().map(|ns| ns.detector);
        for pid in self.kernel_services().chain(detectors) {
            ctx.send(pid, msg.clone());
        }
    }

    /// A ripened meta diagnosis goes ahead only under the regroup layer's
    /// licence. Refused, the probe session is unwound (probing flag
    /// cleared) so the next scan re-suspects.
    fn regroup_licenses_takeover(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        partition: PartitionId,
    ) -> bool {
        let licence = self.regroup.licence(partition, ctx.now());
        let refused = match licence {
            Licence::Granted => return true,
            Licence::Suppressed => "gsd.regroup.suppressed",
            Licence::Vetoed => "gsd.regroup.vetoed",
            Licence::Deferred => "gsd.regroup.deferred",
        };
        phoenix_telemetry::counter_add(refused, 1);
        self.abort_probe(Watched::Ring(partition));
        if licence == Licence::Deferred {
            self.start_regroup_round(ctx, Why::Suspicion);
        }
        false
    }

    /// Regroup traffic: the layer says what it meant.
    fn on_regroup_msg(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: &KernelMsg) {
        let (me, epoch) = (self.partition, self.ring.epoch());
        let heard = self.regroup.on_message(me, epoch, from, msg, ctx.now());
        export_witness(heard.witness);
        if let Some(reply) = heard.reply {
            ctx.send(from, reply);
        }
        if heard.echo {
            self.start_regroup_round(ctx, Why::Suspicion);
        }
    }

    // ---- membership traffic --------------------------------------------------

    fn on_join(&mut self, ctx: &mut Ctx<'_, KernelMsg>, member: MemberInfo) {
        if self.regroup.frozen() {
            // A frozen GSD must not admit members or bump epochs.
            phoenix_telemetry::counter_add("gsd.regroup.suppressed", 1);
            return;
        }
        let regroup = self.regroup.enabled();
        match self.ring.on_join(member, regroup) {
            Join::Forward => self.join_leader(ctx, member),
            Join::Unchanged | Join::Superseded => {
                // Under regroup, answer with the current membership: a
                // frozen peer asking back in after a heal that required no
                // takeover can thaw on it, and a superseded instance
                // yields and dies on it.
                if regroup {
                    ctx.send(member.gsd, self.membership_msg());
                }
            }
            Join::Admitted { displaced } => {
                self.refresh_roles(ctx);
                let msg = self.membership_msg();
                self.broadcast_meta(ctx, msg.clone());
                // A still-running instance that was replaced (e.g. a false
                // takeover after a link partition) is told directly so it
                // can yield: the broadcast no longer reaches it.
                if let Some(old) = displaced {
                    ctx.send(old, msg);
                }
                if regroup {
                    // The partition is vouched-for again: clear any stale
                    // flag a regroup round put on its entry.
                    let (partition, stale) = (member.partition, false);
                    ctx.send(self.config, KernelMsg::DirectoryStale { partition, stale });
                }
                self.push_partition_view(ctx);
            }
        }
    }

    fn on_membership(&mut self, ctx: &mut Ctx<'_, KernelMsg>, epoch: u64, members: Members) {
        match self.ring.on_membership(epoch, members, self.local) {
            Adoption::Stale => {}
            Adoption::Yield => {
                if self.draining {
                    // Slow-drain handoff complete: the replacement runs
                    // fresh kernel services on its new node, and unlike a
                    // dead-node takeover this node is still alive — ours
                    // would leak as orphans.
                    let mut orphans: BTreeSet<Pid> = self.supervisor.pids().collect();
                    orphans.extend(self.kernel_services());
                    for pid in orphans {
                        if pid != ctx.pid() && ctx.process_is_alive(pid) {
                            ctx.kill(pid);
                        }
                    }
                }
                milestone(ctx, "gsd-yielded", self.partition.0);
                ctx.kill(ctx.pid());
            }
            Adoption::Adopted { named_as, rejoin } => {
                // Re-join at the next tick, not instantly: a stale
                // broadcast must not trigger a join → broadcast → join
                // cycle at network latency.
                self.needs_rejoin |= rejoin;
                if let Some(role) = named_as {
                    self.leave_frozen(ctx, role);
                }
                self.refresh_roles(ctx);
                self.push_partition_view(ctx);
            }
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
        let (flight, service) = match watched {
            Watched::Wd(_) => ("wd.heartbeat.flight", "wd"),
            Watched::Ring(_) => ("meta.heartbeat.flight", "gsd"),
        };
        let wd = matches!(watched, Watched::Wd(_));
        if wd && self.nic_health.enabled() {
            // Echo the beat over the same interface. The WD discards it;
            // the send stays because every cross-node send draws the
            // world's RNG, so dropping it would reshuffle seeded runs.
            ctx.send_via(from, nic, KernelMsg::WdHeartbeatAck { nic, seq });
        }
        // The seq jump on this interface is per-NIC loss evidence; the
        // arrival itself is delivery evidence.
        if let Some(gap) = gap {
            if gap > 0 {
                let edge = self.nic_health.observe_misses(nic, gap);
                self.publish_health_edge(ctx, edge);
            }
            let edge = self.nic_health.observe_delivery(nic);
            self.publish_health_edge(ctx, edge);
        }
        if wd {
            phoenix_telemetry::counter_add("gsd.wd_heartbeats.received", 1);
        }
        // A beat is a histogram sample, not a flight-recorder record: a
        // steady cluster leaves the recorder to its episodes.
        phoenix_telemetry::observe(flight, service, now.0.saturating_sub(ctx.sent_at().0));
        let Some((node, _)) = tracked else {
            return;
        };
        if wd && node_recovered {
            self.publish(ctx, EventType::NodeRecovery, EventPayload::Node(node));
        }
        if nic_recovered {
            self.publish(ctx, EventType::NetworkRecovery, EventPayload::Nic(node, nic));
        }
    }

    /// Publish a demotion/promotion edge through the event service. A
    /// demoted interface is *degraded* — lossy but not down: WD heartbeats
    /// still fan out over it (paper semantics), but single-path traffic
    /// avoids it until the hysteresis window of clean deliveries closes.
    fn publish_health_edge(&self, ctx: &mut Ctx<'_, KernelMsg>, edge: Option<HealthTransition>) {
        let (counter, label, etype, nic) = match edge {
            Some(HealthTransition::Demoted(nic)) => {
                ("gsd.nic.demotions", "nic-degraded", EventType::NetworkDegraded, nic)
            }
            Some(HealthTransition::Promoted(nic)) => {
                ("gsd.nic.promotions", "nic-repromoted", EventType::NetworkRecovery, nic)
            }
            None => return,
        };
        phoenix_telemetry::counter_add(counter, 1);
        milestone(ctx, label, nic.0);
        self.publish(ctx, etype, EventPayload::Nic(ctx.node(), nic));
    }
}

impl Actor<KernelMsg> for Gsd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("gsd");
        self.local.gsd = ctx.pid();
        self.local.node = ctx.node();
        if self.awaits_directory() {
            self.send_directory_query(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) if !self.awaits_directory() => self.wire(ctx, dir),
            KernelMsg::CfgDirectory { directory, .. } if self.awaits_directory() => {
                self.wire(ctx, Shared::new(*directory))
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
            KernelMsg::MetaJoin { member } => self.on_join(ctx, member),
            KernelMsg::MetaMembership { epoch, members } => self.on_membership(ctx, epoch, members),
            KernelMsg::MetaMemberDown { partition, .. } => {
                if partition != self.partition {
                    self.ring.remove(partition);
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
                        self.ring.refresh_own(self.local);
                        self.announce_membership_change(ctx);
                        let recovered = EventPayload::Service(kind, ctx.node());
                        self.publish(ctx, EventType::ServiceRecovery, recovered);
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
                let transition = self.slow.on_pong(seq, ctx.now());
                self.apply_slow_transition(ctx, transition);
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
                let ring = &self.ring;
                if !self.regroup.frozen()
                    && ring.role() == Role::Leader
                    && ring.princess().map(|m| m.partition) == Some(from_partition)
                    && !ring.quarantined().contains(&self.partition)
                    && self.slow.gray_self()
                {
                    phoenix_telemetry::counter_add("gsd.slow.leader_yields", 1);
                    milestone(ctx, "slow-leader-yield", self.partition.0);
                    // Self-quarantine: the same broadcast that demotes us
                    // to the ring tail promotes the princess — a 0-leader
                    // gap at worst, never two leaders.
                    let mut next = ring.quarantined().clone();
                    next.insert(self.partition);
                    self.set_quarantine(ctx, next);
                }
            }
            KernelMsg::MetaQuarantine { epoch, quarantined } => {
                if !self.slow.enabled() {
                    return;
                }
                if !self.ring.set_quarantine(epoch, quarantined.into_iter().collect()) {
                    return;
                }
                if !self.ring.quarantined().contains(&self.partition) {
                    // Reinstated (or never in): a future quarantine may
                    // legitimately drain again.
                    self.draining = false;
                    self.drained = false;
                }
                self.refresh_roles(ctx);
                self.maybe_drain(ctx);
            }
            KernelMsg::RegroupPing { .. }
            | KernelMsg::RegroupAck { .. }
            | KernelMsg::RegroupProbeAck { .. } => self.on_regroup_msg(ctx, from, &msg),
            KernelMsg::CfgSetParam { req, key, value } => {
                if let Some(interval) = params::pushed_hb_interval(&key, &value) {
                    self.params.ft.hb_interval = interval;
                    // Judge every watched daemon, ring predecessor and
                    // supervised service from the change: beats sent on the
                    // old cadence must not be held to the new window. The
                    // services hear of the change from us.
                    let now = ctx.now();
                    for p in &mut self.peers {
                        p.live.rebase(now);
                    }
                    let push = KernelMsg::CfgSetParam { req, key, value };
                    for pid in self.supervisor.rebase(now) {
                        ctx.send(pid, push.clone());
                    }
                    // Tick now, and from now on at the new cadence.
                    if let Some(pending) = self.tick_timer {
                        ctx.cancel_timer(pending);
                        self.tick(ctx);
                    }
                }
            }
            KernelMsg::DirectoryUpdateNode { services } => {
                // Config respawned a node's daemons (node brought back up).
                let node = services.node;
                self.table.update(services);
                // Vote-table profiles fan this out to *every* GSD so
                // regroup probes reach fresh WD pids; only the owning
                // partition tracks the node for fault monitoring.
                if !self.owns(node) {
                    return;
                }
                // Config's push supersedes anything we were re-asserting.
                self.dir.node_superseded(node);
                let was_down = self
                    .peer_of(Watched::Wd(node))
                    .is_some_and(|p| p.live.is_down());
                self.watch_wd(node, services.wd, ctx.now());
                if was_down {
                    self.publish(ctx, EventType::NodeRecovery, EventPayload::Node(node));
                }
            }
            KernelMsg::CkLoadResp {
                data: Some(data), ..
            } => {
                // Supervision roster restore after GSD respawn.
                for step in Supervisor::rejoin(&data, |p| ctx.process_is_alive(p)) {
                    match step {
                        Rejoin::Rebind(pid) => ctx.send(pid, self.partition_view()),
                        Rejoin::Respawn(factory) => {
                            let action = RecoveryAction::Migrated(ctx.node());
                            self.respawn_service(ctx, &factory, action, self.ring.members());
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            // Both armed by wiring, and by themselves from then on.
            TOK_SCAN => {
                // Frozen: no suspicion processing at all — the scan
                // deadline loop is what ripens into takeovers. The timer
                // stays armed so monitoring resumes on thaw.
                if !self.regroup.frozen() {
                    self.scan(ctx);
                }
                ctx.set_timer(self.params.ft.check_interval, TOK_SCAN);
            }
            TOK_TICK => self.tick(ctx),
            // Still waiting for the respawn directory: the query or its
            // reply was lost — ask again.
            TOK_DIR_RETRY if self.awaits_directory() => self.send_directory_query(ctx),
            TOK_REGROUP => self.conclude_regroup(ctx),
            TOK_REGROUP_RETRY => self.start_regroup_round(ctx, Why::Poll),
            t if t > OP_BASE => {
                if let Some(op) = self.ops.remove(&(t - OP_BASE)) {
                    self.run_op(ctx, op);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "gsd"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::registry::shared_registry;
    use phoenix_proto::wire::encode;
    use phoenix_sim::Message;

    fn member(p: u32) -> MemberInfo {
        MemberInfo {
            gsd: Pid(10 + p as u64),
            ..MemberInfo::unwired(PartitionId(p))
        }
    }

    /// Partition `p`'s GSD, holding `list` as its ring.
    fn gsd(p: u32, list: &Members, topology: &Shared<ClusterTopology>) -> Gsd {
        let (params, registry) = (KernelParams::fast(), shared_registry());
        let (topology, boot) = (Shared::clone(topology), BootMembers::default());
        let mut g = Gsd::new(PartitionId(p), params, topology, Pid(1), registry, boot);
        g.local = member(p);
        g.ring.install(list.clone(), g.local);
        g
    }

    /// A ring change builds a new list with a size of its own: what a GSD
    /// builds from the list before the change and after it, and what a
    /// peer builds from the broadcast it adopted, each sizes as it encodes.
    #[test]
    fn ring_messages_size_as_they_encode_after_a_change() {
        let topology = Shared::new(ClusterTopology::uniform(4, 3, 1));
        let list = Shared::new((0..4).map(member).collect());
        let (mut leader, mut peer) = (gsd(0, &list, &topology), gsd(1, &list, &topology));
        let before = [leader.membership_msg(), leader.partition_view(), peer.partition_view()];
        let sized: Vec<usize> = before.iter().map(|m| m.wire_size()).collect();

        leader.ring.remove(PartitionId(2));
        leader.ring.bump_epoch();
        let KernelMsg::MetaMembership { epoch, members } = leader.membership_msg() else {
            unreachable!("membership_msg builds a MetaMembership");
        };
        let adopted = peer.ring.on_membership(epoch, members, peer.local);
        assert!(matches!(adopted, Adoption::Adopted { .. }));
        let after = [
            leader.membership_msg(),
            leader.partition_view(),
            peer.membership_msg(),
            peer.partition_view(),
        ];
        for msg in before.iter().chain(&after) {
            assert_eq!(msg.wire_size(), encode(msg).len(), "{msg:?}");
        }
        assert!(after[0].wire_size() < sized[0], "the removal shrank the list");
        assert_eq!(after[2].wire_size(), after[0].wire_size(), "one list, one size");
    }
}
