//! The simulation world: nodes, processes, the event queue, and the run loop.

use crate::actor::{live_node, Actor, Command, Ctx, WorldView};
use crate::fault::Fault;
use crate::ids::{NicId, NodeId, Pid, TimerId};
use crate::message::Message;
use crate::metrics::{Counts, Metrics};
use crate::network::{DropReason, LinkQuality, NetParams, Network, LOCAL_LATENCY};
use crate::arena::ArenaStats;
use crate::node::{NodeSpec, NodeState, ResourceUsage};
use crate::sched::{Scheduler, WheelScheduler};
use crate::time::{SimDuration, SimTime};
use crate::rng::SimRng;
use crate::trace::TraceLog;
use std::collections::HashSet;

/// Builder for a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    nodes: Vec<NodeSpec>,
    net: NetParams,
    seed: u64,
    record: bool,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            nodes: Vec::new(),
            net: NetParams::default(),
            seed: 0x5EED,
            record: false,
        }
    }
}

impl ClusterBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` identical nodes.
    pub fn nodes(mut self, n: usize, spec: NodeSpec) -> Self {
        self.nodes.extend(std::iter::repeat(spec).take(n));
        self
    }

    /// Override network latency parameters.
    pub fn net(mut self, net: NetParams) -> Self {
        self.net = net;
        self
    }

    /// Set the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record one line per dispatched event into an in-world event log
    /// (see [`World::event_log`]). Costs allocation per event; meant for
    /// the differential harness, not production sweeps.
    pub fn record_events(mut self, on: bool) -> Self {
        self.record = on;
        self
    }

    /// Construct the world.
    pub fn build<M: Message>(self) -> World<M> {
        let nodes: Vec<NodeState> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, spec)| NodeState::new(NodeId(i as u32), spec))
            .collect();
        World {
            clock: SimTime::ZERO,
            seq: 0,
            queue: WheelScheduler::new(),
            event_log: if self.record { Some(String::new()) } else { None },
            actors: Vec::new(),
            live: Vec::new(),
            pids_on: vec![Vec::new(); nodes.len()],
            nodes,
            network: Network::new(self.net),
            counts: Counts::new(M::LABELS),
            trace: TraceLog::default(),
            rng: SimRng::seed_from_u64(self.seed),
            next_pid: 0,
            next_timer: 0,
            cancelled: HashSet::new(),
            cmdbuf: Vec::new(),
        }
    }
}

enum SimEvent<M: Message> {
    Start {
        pid: Pid,
    },
    Deliver {
        to: Pid,
        from: Pid,
        msg: M,
        /// The message's class: its row in `M::LABELS`.
        tag: usize,
        bytes: usize,
        /// When the sender sent it (a duplicated copy keeps the original's).
        sent: SimTime,
        /// True for the extra copy a duplicating link scheduled; counted
        /// as `net.dup.delivered` only if it actually reaches a live
        /// process (a dup whose target dies in flight is just a drop).
        dup: bool,
    },
    Timer {
        id: TimerId,
        pid: Pid,
        token: u64,
    },
    Fault(Fault),
}

/// Error returned by [`World::schedule_fault`] for a target time before
/// the current clock. Scheduling exactly at the current tick is allowed —
/// the fault dispatches before the clock advances.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchedulePastError {
    /// The requested (past) virtual time.
    pub(crate) at: SimTime,
    /// The world clock when the request was made.
    pub(crate) now: SimTime,
}

impl std::fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot schedule fault in the past: at {} < now {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for SchedulePastError {}

/// The deterministic discrete-event world. Generic over the message type
/// exchanged by actors.
pub struct World<M: Message> {
    clock: SimTime,
    seq: u64,
    queue: WheelScheduler<SimEvent<M>>,
    /// One compact line per dispatched event when event recording is on
    /// (`ClusterBuilder::record_events`) — the differential harness's
    /// byte-comparison stream.
    event_log: Option<String>,
    /// The process table, indexed by `pid.0` (pids come from a counter and
    /// are never reused, so it is dense): two columns of equal length, so a
    /// handler can hold its actor mutably while its `Ctx` reads liveness.
    /// A slot is `None` in both for a pid that is not alive — killed, never
    /// registered (`Pid(0)`, a spawn on a down node), or past the end.
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    /// Node of each live pid: the one answer to "alive? where?" for the
    /// world and for actor contexts.
    live: Vec<Option<NodeId>>,
    /// Live pids per node, indexed by `NodeId`; ascending, because
    /// registration order is pid order.
    pids_on: Vec<Vec<Pid>>,
    nodes: Vec<NodeState>,
    network: Network,
    counts: Counts,
    trace: TraceLog,
    rng: SimRng,
    next_pid: u64,
    next_timer: u64,
    cancelled: HashSet<TimerId>,
    cmdbuf: Vec<Command<M>>,
}

impl<M: Message> World<M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's state.
    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.index()]
    }

    /// All node states.
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Traffic and event counters, as of the last time control returned
    /// to the caller.
    pub fn metrics(&self) -> &Metrics {
        &self.counts.metrics
    }

    /// The active island-split mask (`Fault::Partition`), 0 when whole.
    pub fn island(&self) -> u64 {
        self.network.island()
    }

    /// A node's fail-slow factor (`Fault::SlowNode`), 0 when healthy.
    pub fn slow_factor(&self, node: NodeId) -> u16 {
        self.network.slow_factor(node)
    }

    /// The structured trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable trace access (e.g. to clear between experiment phases).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Is the process alive?
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.node_of(pid).is_some()
    }

    /// Node a live process runs on.
    pub(crate) fn node_of(&self, pid: Pid) -> Option<NodeId> {
        live_node(&self.live, pid)
    }

    /// Spawn an actor on `node`. Its `on_start` runs at the current virtual
    /// time once the world advances. Returns the pid (never reused).
    pub fn spawn(&mut self, node: NodeId, actor: Box<dyn Actor<M>>) -> Pid {
        self.next_pid += 1;
        let pid = Pid(self.next_pid);
        self.register_proc(pid, node, actor);
        pid
    }

    fn register_proc(&mut self, pid: Pid, node: NodeId, actor: Box<dyn Actor<M>>) {
        if !self.nodes[node.index()].up {
            // Spawning on a dead node silently fails; the pid is never live.
            return;
        }
        // Growing past pids that never registered (spawns on down nodes)
        // leaves their slots empty.
        let slot = pid.0 as usize;
        if self.live.len() <= slot {
            self.live.resize(slot + 1, None);
            self.actors.resize_with(slot + 1, || None);
        }
        self.live[slot] = Some(node);
        self.actors[slot] = Some(actor);
        let on_node = &mut self.pids_on[node.index()];
        debug_assert!(on_node.last().is_none_or(|&last| last < pid));
        on_node.push(pid);
        self.counts.metrics.spawns += 1;
        self.push(self.clock, SimEvent::Start { pid });
    }

    /// Inject a message from "outside" the cluster (test driver, user
    /// client). Delivered with local latency, no NIC involved.
    pub fn inject(&mut self, to: Pid, msg: M) {
        let (tag, bytes) = self.counts.on_send(&msg);
        let at = self.clock + LOCAL_LATENCY;
        self.push(
            at,
            SimEvent::Deliver {
                to,
                from: Pid(0),
                msg,
                tag,
                bytes,
                sent: self.clock,
                dup: false,
            },
        );
        self.counts.publish(self.queue.len());
    }

    /// Send a message on behalf of a live process (driver-side RPC
    /// initiation: the reply comes back to `from`). Routed like any actor
    /// send, including NIC and partition checks.
    ///
    /// This, [`World::inject`], [`World::run_until`] and [`World::step`]
    /// are where new traffic is counted before control returns to the
    /// caller, so each ends by publishing the world's counts to
    /// [`World::metrics`] and the telemetry registry.
    pub fn send_from(&mut self, from: Pid, to: Pid, msg: M) {
        self.do_send(from, to, None, msg);
        self.counts.publish(self.queue.len());
    }

    /// Schedule a fault (or repair) at an absolute virtual time.
    /// Scheduling at exactly the current tick is valid (the fault fires
    /// before time advances); a time strictly in the past is an error.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) -> Result<(), SchedulePastError> {
        if at < self.clock {
            return Err(SchedulePastError {
                at,
                now: self.clock,
            });
        }
        self.push(at, SimEvent::Fault(fault));
        Ok(())
    }

    /// Apply a fault immediately.
    pub fn apply_fault(&mut self, fault: Fault) {
        self.do_fault(fault);
    }

    fn push(&mut self, at: SimTime, ev: SimEvent<M>) {
        self.seq += 1;
        self.queue.push(at, self.seq, ev);
    }

    /// Run until virtual time `deadline` (inclusive of events at the
    /// deadline instant). The clock ends at `deadline` even if the queue
    /// drains early. Ends by publishing (see [`World::send_from`]).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((at, seq, ev)) = self.queue.pop_before(deadline) {
            self.clock = at;
            self.dispatch(seq, ev);
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
        self.counts.publish(self.queue.len());
    }

    /// Run for a virtual duration from the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.clock + d;
        self.run_until(deadline);
    }

    /// Run until the trace log stays quiet (no new records) for a full
    /// `window` of virtual time, or until `deadline`, whichever comes
    /// first. Returns `true` iff a full quiet window was observed.
    ///
    /// Steady-state kernel traffic (heartbeats, detector sampling) emits
    /// no trace records, so trace quietness marks the end of a
    /// detect → diagnose → recover cascade after fault injection. Pick
    /// `window` larger than the slowest single recovery step (restart or
    /// migration cost plus a heartbeat round).
    pub fn run_until_quiet(&mut self, window: SimDuration, deadline: SimTime) -> bool {
        while self.clock + window <= deadline {
            let before = self.trace.len();
            let target = self.clock + window;
            self.run_until(target);
            if self.trace.len() == before {
                return true;
            }
        }
        self.run_until(deadline);
        false
    }

    /// Process a single event; returns false when the queue is empty.
    /// Ends by publishing (see [`World::send_from`]).
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, seq, ev)) => {
                self.clock = at;
                self.dispatch(seq, ev);
                self.counts.publish(self.queue.len());
                true
            }
            None => false,
        }
    }

    fn dispatch(&mut self, seq: u64, ev: SimEvent<M>) {
        // Publish virtual time to the telemetry layer so spans opened
        // inside handlers are stamped with the simulator's clock, not wall
        // time.
        phoenix_telemetry::clock::set_now(self.clock.0);
        self.counts.on_event();
        if self.event_log.is_some() {
            self.log_event(seq, &ev);
        }
        match ev {
            SimEvent::Start { pid } => {
                self.with_actor(pid, self.clock, |actor, ctx| actor.on_start(ctx));
            }
            SimEvent::Deliver {
                to,
                from,
                msg,
                tag,
                bytes,
                sent,
                dup,
            } => {
                if self.with_actor(to, sent, |actor, ctx| actor.on_message(ctx, from, msg)) {
                    self.counts.on_deliver(tag, bytes, dup);
                } else {
                    self.counts.on_drop(tag, DropReason::DeadProcess);
                }
            }
            SimEvent::Timer { id, pid, token } => {
                if self.cancelled.remove(&id) {
                    return;
                }
                if self.with_actor(pid, self.clock, |actor, ctx| actor.on_timer(ctx, token)) {
                    self.counts.metrics.timers_fired += 1;
                    // The handler may have cancelled the timer that just
                    // fired; nothing is left to suppress.
                    if !self.cancelled.is_empty() {
                        self.cancelled.remove(&id);
                    }
                }
            }
            SimEvent::Fault(f) => self.do_fault(f),
        }
    }

    /// Append one line describing a dispatched event to the event log.
    /// The line covers the full determinism-relevant identity of the event
    /// — virtual time, global sequence number, and the event's routing
    /// fields — but not message payloads (labels + wire sizes stand in for
    /// them, and payload construction is itself deterministic downstream
    /// of this ordering).
    fn log_event(&mut self, seq: u64, ev: &SimEvent<M>) {
        use std::fmt::Write as _;
        let Some(log) = self.event_log.as_mut() else {
            return;
        };
        let at = self.clock.0;
        match ev {
            SimEvent::Start { pid } => {
                let _ = writeln!(log, "{at} {seq} start pid={}", pid.0);
            }
            SimEvent::Deliver {
                to,
                from,
                tag,
                bytes,
                ..
            } => {
                let label = M::LABELS[*tag];
                let _ = writeln!(
                    log,
                    "{at} {seq} deliver to={} from={} label={label} bytes={bytes}",
                    to.0, from.0
                );
            }
            SimEvent::Timer { id, pid, token } => {
                let _ = writeln!(
                    log,
                    "{at} {seq} timer id={} pid={} token={token}",
                    id.0, pid.0
                );
            }
            SimEvent::Fault(f) => {
                let _ = writeln!(log, "{at} {seq} fault {f:?}");
            }
        }
    }

    /// The recorded event stream (empty unless built with
    /// `record_events(true)`).
    pub fn event_log(&self) -> &str {
        self.event_log.as_deref().unwrap_or("")
    }

    /// Take ownership of the recorded event stream, leaving an empty log
    /// behind (recording continues if it was enabled).
    pub fn take_event_log(&mut self) -> String {
        match self.event_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => String::new(),
        }
    }

    /// Event-pool accounting from the wheel's arena (leak tests; the
    /// chaos arena-leak invariant).
    pub fn scheduler_stats(&self) -> ArenaStats {
        self.queue.arena_stats()
    }

    /// Run one handler of a live actor, for an event sent at `sent`, then
    /// apply the commands it issued. Returns false, running nothing, when
    /// `pid` is not alive. While the handler runs, telemetry sees `pid` as
    /// the owner of the spans it opens.
    fn with_actor<F>(&mut self, pid: Pid, sent: SimTime, f: F) -> bool
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>),
    {
        let Some(node) = self.node_of(pid) else {
            return false;
        };
        let actor = self.actors[pid.0 as usize]
            .as_deref_mut()
            .expect("a live pid has an actor: the two columns change together");
        let mut buf = std::mem::take(&mut self.cmdbuf);
        let mut ctx = Ctx {
            now: self.clock,
            sent_at: sent,
            self_pid: pid,
            self_node: node,
            commands: &mut buf,
            next_timer: &mut self.next_timer,
            next_pid: &mut self.next_pid,
            rng: &mut self.rng,
            view: WorldView {
                nodes: &self.nodes,
                live: &self.live,
                island: self.network.island(),
            },
        };
        phoenix_telemetry::clock::set_owner(pid.0);
        f(actor, &mut ctx);
        phoenix_telemetry::clock::set_owner(0);
        self.apply_commands(pid, &mut buf);
        self.cmdbuf = buf;
        true
    }

    fn apply_commands(&mut self, issuer: Pid, buf: &mut Vec<Command<M>>) {
        for cmd in buf.drain(..) {
            match cmd {
                Command::Send { to, via, msg } => self.do_send(issuer, to, via, msg),
                Command::SetTimer { id, after, token } => {
                    let at = self.clock + after;
                    self.push(
                        at,
                        SimEvent::Timer {
                            id,
                            pid: issuer,
                            token,
                        },
                    );
                }
                Command::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
                Command::Spawn { node, actor, pid } => {
                    self.register_proc(pid, node, actor);
                }
                Command::Kill(pid) => self.kill_process(pid),
                Command::SetUsage(node, usage) => {
                    if let Some(n) = self.nodes.get_mut(node.index()) {
                        n.usage = usage.clamped();
                    }
                }
                Command::NodePower { node, up } => {
                    if up {
                        self.do_fault(Fault::RestartNode(node));
                    } else {
                        self.do_fault(Fault::CrashNode(node));
                    }
                }
                Command::Trace(ev) => self.trace.push(self.clock, ev),
            }
        }
    }

    fn do_send(&mut self, from: Pid, to: Pid, via: Option<NicId>, msg: M) {
        let (tag, bytes) = self.counts.on_send(&msg);

        // A dead sender killed itself earlier in the same handler.
        let (Some(src), Some(dst)) = (self.node_of(from), self.node_of(to)) else {
            self.counts.on_drop(tag, DropReason::DeadProcess);
            return;
        };

        let route = self.resolve_route(src, dst, via);
        match route {
            Ok((nic, quality)) => {
                // Unreliability model: only cross-node messages touch the
                // wire, and every roll below draws from the RNG only when
                // its rate is non-zero — a fully reliable network consumes
                // exactly the same random stream as before the model
                // existed, keeping old seeded runs byte-for-byte identical.
                // The rates come from the resolved path, so a lossy or
                // degraded interface punishes exactly the traffic routed
                // over it.
                let crossing = src != dst;
                if crossing {
                    let lost = Network::roll(quality.loss_permille, &mut self.rng);
                    self.counts.on_routed(tag, nic, lost);
                    if lost {
                        return;
                    }
                }
                let latency = self.network.latency(src, dst, &mut self.rng);
                let extra = if crossing {
                    self.network.reorder_extra(&mut self.rng)
                } else {
                    SimDuration::ZERO
                };
                if crossing && Network::roll(quality.dup_permille, &mut self.rng) {
                    let dup_latency =
                        self.network.latency(src, dst, &mut self.rng) + extra;
                    self.counts.on_dup_scheduled();
                    // `msg.clone()` here is the fan-out clone `Shared`
                    // payloads make a refcount bump; delivery is counted
                    // at dispatch, where we know the target survived.
                    self.push(
                        self.clock + dup_latency,
                        SimEvent::Deliver {
                            to,
                            from,
                            msg: msg.clone(),
                            tag,
                            bytes,
                            sent: self.clock,
                            dup: true,
                        },
                    );
                }
                let at = self.clock + latency + extra;
                self.push(
                    at,
                    SimEvent::Deliver {
                        to,
                        from,
                        msg,
                        tag,
                        bytes,
                        sent: self.clock,
                        dup: false,
                    },
                );
            }
            Err(reason) => self.counts.on_drop(tag, reason),
        }
    }

    /// Pick the network a message travels over, honouring an explicit NIC
    /// choice or falling back to the first network healthy at both ends.
    /// On success, also report the unreliability of the chosen path.
    fn resolve_route(
        &self,
        src: NodeId,
        dst: NodeId,
        via: Option<NicId>,
    ) -> Result<(NicId, LinkQuality), DropReason> {
        let src_state = &self.nodes[src.index()];
        let dst_state = &self.nodes[dst.index()];
        if !src_state.up || !dst_state.up {
            return Err(DropReason::NodeDown);
        }
        if src == dst {
            return Ok((NicId(0), LinkQuality::default()));
        }
        match via {
            Some(nic) => self
                .network
                .route(
                    src,
                    dst,
                    nic,
                    src_state.nic_healthy(nic),
                    dst_state.nic_healthy(nic),
                )
                .map(|quality| (nic, quality)),
            None => {
                let nics = src_state.nic_up.len().min(dst_state.nic_up.len());
                for i in 0..nics {
                    let nic = NicId(i as u8);
                    if let Ok(quality) = self.network.route(
                        src,
                        dst,
                        nic,
                        src_state.nic_healthy(nic),
                        dst_state.nic_healthy(nic),
                    ) {
                        return Ok((nic, quality));
                    }
                }
                Err(DropReason::NoRoute)
            }
        }
    }

    /// Kill one process immediately. The telemetry spans its handlers
    /// left open are recorded as aborted, in span-id order.
    pub fn kill_process(&mut self, pid: Pid) {
        let Some(node) = self.node_of(pid) else {
            return;
        };
        let slot = pid.0 as usize;
        self.live[slot] = None;
        self.actors[slot] = None;
        phoenix_telemetry::with(|r| r.abort_spans_of(pid.0));
        let on_node = &mut self.pids_on[node.index()];
        if let Ok(at) = on_node.binary_search(&pid) {
            on_node.remove(at);
        }
        self.counts.metrics.kills += 1;
    }

    fn do_fault(&mut self, fault: Fault) {
        match fault {
            Fault::KillProcess(pid) => self.kill_process(pid),
            Fault::CrashNode(node) => {
                let n = &mut self.nodes[node.index()];
                if !n.up {
                    return;
                }
                n.up = false;
                n.usage = ResourceUsage::IDLE;
                // Ascending pid order: the order aborted spans land in the
                // flight recorder depends on it.
                for pid in std::mem::take(&mut self.pids_on[node.index()]) {
                    self.kill_process(pid);
                }
            }
            Fault::RestartNode(node) => {
                let n = &mut self.nodes[node.index()];
                n.up = true;
                for nic in n.nic_up.iter_mut() {
                    *nic = true;
                }
            }
            Fault::NicDown(node, nic) => {
                if let Some(up) = self.nodes[node.index()].nic_up.get_mut(nic.0 as usize) {
                    *up = false;
                }
            }
            Fault::NicUp(node, nic) => {
                if let Some(up) = self.nodes[node.index()].nic_up.get_mut(nic.0 as usize) {
                    *up = true;
                }
            }
            Fault::PartitionLink(a, b) => self.network.partition(a, b),
            Fault::HealLink(a, b) => self.network.heal(a, b),
            Fault::LossBurst { permille } => self.network.set_loss_burst(permille),
            Fault::LossClear => self.network.set_loss_burst(0),
            Fault::NicDegrade(node, nic, permille) => {
                self.network.degrade_nic(node, nic, permille)
            }
            Fault::NicRestore(node, nic) => self.network.restore_nic(node, nic),
            Fault::Partition { island } => self.network.set_island(island),
            Fault::Heal => self.network.set_island(0),
            Fault::SlowNode {
                node,
                factor_permille,
            } => self.network.set_slow(node, factor_permille),
            Fault::SlowClear(node) => self.network.set_slow(node, 0),
        }
    }

    /// Live process count (for assertions in tests).
    pub fn live_processes(&self) -> usize {
        self.pids_on.iter().map(Vec::len).sum()
    }

    /// Number of events waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Borrow a live actor for read-only inspection. `None` for dead pids.
    pub fn actor(&self, pid: Pid) -> Option<&dyn Actor<M>> {
        self.actors.get(usize::try_from(pid.0).ok()?)?.as_deref()
    }

    /// Downcast a live actor to a concrete type via [`Actor::as_any`].
    /// Returns `None` for dead pids, actors that do not opt into
    /// introspection, or a type mismatch.
    pub fn actor_as<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.actor(pid)
            .and_then(|a| a.as_any())
            .and_then(|a| a.downcast_ref::<T>())
    }

    /// Pids currently hosted on `node`, ascending.
    pub fn pids_on(&self, node: NodeId) -> Vec<Pid> {
        self.pids_on.get(node.index()).cloned().unwrap_or_default()
    }

    /// Cancelled timers whose firing has not been suppressed yet (leak
    /// tests).
    pub fn cancelled_timers(&self) -> usize {
        self.cancelled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    /// Echoes every message back to the sender, incremented.
    struct Echo;
    impl Actor<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Pid, msg: u64) {
            ctx.send(from, msg + 1);
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Sends a message to a peer on start, records replies.
    struct Pinger {
        peer: Pid,
        got: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Actor<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(self.peer, 41);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, msg: u64) {
            self.got.set(msg);
        }
    }

    fn two_node_world() -> World<u64> {
        ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .build::<u64>()
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let _ping = w.spawn(
            NodeId(0),
            Box::new(Pinger {
                peer: echo,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(got.get(), 42);
        // Two messages crossed the wire.
        assert_eq!(w.metrics().total.sent, 2);
        assert_eq!(w.metrics().total.delivered, 2);
    }

    #[test]
    fn clock_advances_to_deadline_even_when_idle() {
        let mut w = two_node_world();
        w.run_until(SimTime(1_000_000));
        assert_eq!(w.now(), SimTime(1_000_000));
    }

    #[test]
    fn messages_to_dead_process_are_dropped() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.run_for(SimDuration::from_millis(1));
        w.kill_process(echo);
        w.inject(echo, 7);
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.metrics().total.dropped, 1);
        assert_eq!(w.counts.drops[DropReason::DeadProcess as usize], 1);
    }

    #[test]
    fn node_crash_kills_processes() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.run_for(SimDuration::from_millis(1));
        assert!(w.is_alive(echo));
        w.apply_fault(Fault::CrashNode(NodeId(1)));
        assert!(!w.is_alive(echo));
        assert!(!w.node(NodeId(1)).up);
    }

    #[test]
    fn restart_node_brings_nics_back() {
        let mut w = two_node_world();
        w.apply_fault(Fault::NicDown(NodeId(1), NicId(0)));
        w.apply_fault(Fault::CrashNode(NodeId(1)));
        w.apply_fault(Fault::RestartNode(NodeId(1)));
        let n = w.node(NodeId(1));
        assert!(n.up);
        assert!(n.nic_up.iter().all(|&b| b));
    }

    /// Records the virtual arrival time of the echoed reply.
    struct TimedPinger {
        peer: Pid,
        at: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Actor<u64> for TimedPinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(self.peer, 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {
            self.at.set(ctx.now().0);
        }
    }

    fn timed_round_trip(slow: Option<Fault>) -> u64 {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .seed(77)
            .build::<u64>();
        if let Some(f) = slow {
            w.apply_fault(f);
        }
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        let at = std::rc::Rc::new(std::cell::Cell::new(0));
        let _p = w.spawn(
            NodeId(0),
            Box::new(TimedPinger {
                peer: echo,
                at: at.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(100));
        at.get()
    }

    #[test]
    fn slow_node_delays_round_trip() {
        let clean = timed_round_trip(None);
        let slow = timed_round_trip(Some(Fault::SlowNode {
            node: NodeId(1),
            factor_permille: 9000,
        }));
        assert!(clean > 0 && slow > 0, "both replies must arrive");
        // 10× latency floor on both legs: at least ~5× the clean round trip
        // even with jitter and smear in the clean run's favour.
        assert!(
            slow >= clean * 5,
            "slow round trip {slow}ns not ≫ clean {clean}ns"
        );
    }

    #[test]
    fn zero_slow_world_reproduces_clean_traces() {
        // A zero-factor SlowNode and a set/clear pair are RNG- and
        // schedule-neutral: the run is bit-identical to never injecting
        // them, so every pre-fail-slow pinned trace stays byte-identical.
        let clean = timed_round_trip(None);
        let zero = timed_round_trip(Some(Fault::SlowNode {
            node: NodeId(1),
            factor_permille: 0,
        }));
        let cleared = {
            let mut w = ClusterBuilder::new()
                .nodes(2, NodeSpec::default())
                .seed(77)
                .build::<u64>();
            w.apply_fault(Fault::SlowNode {
                node: NodeId(1),
                factor_permille: 4000,
            });
            w.apply_fault(Fault::SlowClear(NodeId(1)));
            let echo = w.spawn(NodeId(1), Box::new(Echo));
            let at = std::rc::Rc::new(std::cell::Cell::new(0));
            let _p = w.spawn(
                NodeId(0),
                Box::new(TimedPinger {
                    peer: echo,
                    at: at.clone(),
                }),
            );
            w.run_for(SimDuration::from_millis(100));
            at.get()
        };
        assert_eq!(clean, zero);
        assert_eq!(clean, cleared);
    }

    /// Live slots of the process table, counted the slow way.
    fn live_slots(w: &World<u64>) -> usize {
        (0..=w.next_pid + 1).filter(|&p| w.is_alive(Pid(p))).count()
    }

    #[test]
    fn spawn_on_dead_node_leaves_a_hole() {
        let mut w = two_node_world();
        w.apply_fault(Fault::CrashNode(NodeId(1)));
        let hole = w.spawn(NodeId(1), Box::new(Echo));
        let next = w.spawn(NodeId(0), Box::new(Echo));
        w.run_for(SimDuration::from_millis(1));
        assert!(!w.is_alive(hole));
        assert_eq!(w.node_of(hole), None);
        assert!(w.actor(hole).is_none());
        assert_eq!(next, Pid(hole.0 + 1));
        assert_eq!(w.node_of(next), Some(NodeId(0)));
        assert_eq!(w.live_processes(), 1);
        assert_eq!(live_slots(&w), 1);
    }

    /// Sends one message to each target on start.
    struct SendTo(Vec<Pid>);
    impl Actor<u64> for SendTo {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for &to in &self.0 {
                ctx.send(to, 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
    }

    #[test]
    fn sends_to_pids_that_are_not_alive_drop_and_never_panic() {
        let mut w = two_node_world();
        w.apply_fault(Fault::CrashNode(NodeId(1)));
        let hole = w.spawn(NodeId(1), Box::new(Echo));
        let killed = w.spawn(NodeId(0), Box::new(Echo));
        w.kill_process(killed);
        let targets = vec![Pid(0), hole, killed, Pid(u64::MAX)];
        let sender = w.spawn(NodeId(0), Box::new(SendTo(targets.clone())));
        for &to in &targets {
            w.send_from(sender, to, 0);
            w.inject(to, 0);
            assert!(!w.is_alive(to));
            assert!(w.actor(to).is_none());
            w.kill_process(to);
        }
        w.run_for(SimDuration::from_millis(1));
        // Four targets by Ctx::send, send_from and inject: one drop each.
        assert_eq!(w.counts.drops[DropReason::DeadProcess as usize], 12);
        assert_eq!(w.metrics().total.dropped, 12);
        assert_eq!(w.metrics().total.delivered, 0);
        assert_eq!(w.metrics().kills, 1);
        assert_eq!(w.live_processes(), live_slots(&w));
    }

    #[test]
    fn scheduled_fault_fires_at_time() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.schedule_fault(SimTime(5_000_000), Fault::KillProcess(echo))
            .unwrap();
        w.run_until(SimTime(4_000_000));
        assert!(w.is_alive(echo));
        w.run_until(SimTime(6_000_000));
        assert!(!w.is_alive(echo));
    }

    #[test]
    fn scheduling_fault_at_current_tick_is_allowed() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.run_until(SimTime(1_000_000));
        assert!(w.is_alive(echo));
        // Exactly "now" is valid: the fault fires before time advances.
        w.schedule_fault(w.now(), Fault::KillProcess(echo)).unwrap();
        assert_eq!(w.queue_len(), 1);
        w.run_until(w.now());
        assert_eq!(w.queue_len(), 0, "the fault was due now");
        assert!(!w.is_alive(echo));
        assert_eq!(w.now(), SimTime(1_000_000), "clock must not move");
    }

    #[test]
    fn scheduling_fault_in_the_past_is_an_error() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.run_until(SimTime(2_000_000));
        let err = w
            .schedule_fault(SimTime(1_999_999), Fault::KillProcess(echo))
            .unwrap_err();
        assert_eq!(
            err,
            SchedulePastError {
                at: SimTime(1_999_999),
                now: SimTime(2_000_000),
            }
        );
        assert!(err.to_string().contains("cannot schedule fault in the past"));
        // Nothing was enqueued; the pid stays alive forever.
        assert_eq!(w.queue_len(), 0);
        w.run_for(SimDuration::from_secs(1));
        assert!(w.is_alive(echo));
    }

    #[test]
    fn default_route_fails_over_across_nics() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        w.apply_fault(Fault::NicDown(NodeId(1), NicId(0)));
        let _p = w.spawn(
            NodeId(0),
            Box::new(Pinger {
                peer: echo,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        // NIC 0 down at receiver: default routing picks NIC 1; round trip ok.
        assert_eq!(got.get(), 42);
    }

    #[test]
    fn all_nics_down_drops_with_no_route() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        for i in 0..3 {
            w.apply_fault(Fault::NicDown(NodeId(1), NicId(i)));
        }
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let _p = w.spawn(
            NodeId(0),
            Box::new(Pinger {
                peer: echo,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(got.get(), 0);
        assert_eq!(w.counts.drops[DropReason::NoRoute as usize], 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.apply_fault(Fault::PartitionLink(NodeId(0), NodeId(1)));
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let _p = w.spawn(
            NodeId(0),
            Box::new(Pinger {
                peer: echo,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(got.get(), 0);
        w.apply_fault(Fault::HealLink(NodeId(0), NodeId(1)));
        w.inject(echo, 1); // outside injection bypasses the wire
        w.run_for(SimDuration::from_millis(10));
        // After heal, echo's reply to pid 0 (external) is dropped as dead
        // process, but the injected message itself was delivered.
        assert!(w.metrics().total.delivered >= 1);
    }

    /// Actor that arms a timer and counts firings; cancels after 3.
    struct Ticker {
        fired: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl Actor<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimDuration::from_secs(1), 7);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
            assert_eq!(token, 7);
            self.fired.set(self.fired.get() + 1);
            if self.fired.get() < 3 {
                ctx.set_timer(SimDuration::from_secs(1), 7);
            }
        }
    }

    #[test]
    fn periodic_timer_fires_and_stops() {
        let mut w = two_node_world();
        let fired = std::rc::Rc::new(std::cell::Cell::new(0));
        w.spawn(
            NodeId(0),
            Box::new(Ticker {
                fired: fired.clone(),
            }),
        );
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(fired.get(), 3);
        assert_eq!(w.metrics().timers_fired, 3);
    }

    /// Actor that cancels its own timer before it fires.
    struct Canceller;
    impl Actor<u64> for Canceller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let id = ctx.set_timer(SimDuration::from_secs(5), 1);
            ctx.cancel_timer(id);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _token: u64) {
            panic!("cancelled timer fired");
        }
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut w = two_node_world();
        w.spawn(NodeId(0), Box::new(Canceller));
        assert_eq!(w.cancelled_timers(), 0);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.cancelled_timers(), 1, "pending until the timer comes due");
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(w.metrics().timers_fired, 0);
        assert_eq!(w.cancelled_timers(), 0);
    }

    /// Actor that cancels its timer from that timer's own handler.
    struct LateCanceller {
        timer: Option<TimerId>,
    }
    impl Actor<u64> for LateCanceller {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.timer = Some(ctx.set_timer(SimDuration::from_secs(1), 1));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _token: u64) {
            ctx.cancel_timer(self.timer.take().expect("fires once"));
        }
    }

    #[test]
    fn cancelling_a_timer_from_its_own_handler_leaks_nothing() {
        let mut w = two_node_world();
        w.spawn(NodeId(0), Box::new(LateCanceller { timer: None }));
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(w.metrics().timers_fired, 1);
        assert_eq!(w.cancelled_timers(), 0);
    }

    /// Actor that spawns a child on another node when poked.
    struct Parent {
        target: NodeId,
        child: std::rc::Rc<std::cell::Cell<Pid>>,
    }
    impl Actor<u64> for Parent {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {
            let pid = ctx.spawn(self.target, Box::new(Echo));
            self.child.set(pid);
        }
    }

    type LiveView = Vec<(bool, Option<NodeId>)>;

    /// On 1: spawns two children, kills the first of them and itself.
    /// On anything else: records what its `Ctx` says about pids 0..=8.
    struct Brood {
        seen: std::rc::Rc<std::cell::RefCell<LiveView>>,
    }
    impl Actor<u64> for Brood {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: Pid, msg: u64) {
            if msg == 1 {
                let first = ctx.spawn(NodeId(1), Box::new(Echo));
                ctx.spawn(NodeId(0), Box::new(Echo));
                ctx.kill(first);
                ctx.kill(ctx.pid());
            } else {
                *self.seen.borrow_mut() = (0..=8)
                    .map(|p| (ctx.process_is_alive(Pid(p)), ctx.node_of(Pid(p))))
                    .collect();
            }
        }
    }

    #[test]
    fn ctx_and_world_read_the_same_liveness() {
        let mut w = two_node_world();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let brood = w.spawn(NodeId(0), Box::new(Brood { seen: seen.clone() }));
        let observer = w.spawn(NodeId(1), Box::new(Brood { seen: seen.clone() }));
        w.inject(brood, 1);
        w.run_for(SimDuration::from_millis(1));
        w.inject(observer, 2);
        w.run_for(SimDuration::from_millis(1));
        let world: LiveView = (0..=8)
            .map(|p| (w.is_alive(Pid(p)), w.node_of(Pid(p))))
            .collect();
        assert_eq!(*seen.borrow(), world);
        // Pids 1-4: brood (self-killed), observer, first child (killed),
        // second child.
        let alive: Vec<u64> = (0..=8).filter(|&p| world[p as usize].0).collect();
        assert_eq!(alive, vec![2, 4]);
        assert_eq!(w.live_processes(), 2);
        assert_eq!(live_slots(&w), 2);
    }

    #[test]
    fn actors_can_spawn_actors() {
        let mut w = two_node_world();
        let child = std::rc::Rc::new(std::cell::Cell::new(Pid(0)));
        let parent = w.spawn(
            NodeId(0),
            Box::new(Parent {
                target: NodeId(1),
                child: child.clone(),
            }),
        );
        w.inject(parent, 0);
        w.run_for(SimDuration::from_millis(1));
        assert!(w.is_alive(child.get()));
        assert_eq!(w.node_of(child.get()), Some(NodeId(1)));
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed: u64| {
            let mut w = ClusterBuilder::new()
                .nodes(4, NodeSpec::default())
                .seed(seed)
                .build::<u64>();
            let e1 = w.spawn(NodeId(1), Box::new(Echo));
            let got = std::rc::Rc::new(std::cell::Cell::new(0));
            for n in 0..3 {
                w.spawn(
                    NodeId(n),
                    Box::new(Pinger {
                        peer: e1,
                        got: got.clone(),
                    }),
                );
            }
            w.run_for(SimDuration::from_secs(1));
            (w.metrics().total.sent, w.metrics().total.delivered, got.get())
        };
        assert_eq!(run(42), run(42));
    }

    /// Fires `n` one-way messages at a peer on start.
    struct Flood {
        peer: Pid,
        n: u64,
    }
    impl Actor<u64> for Flood {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for i in 0..self.n {
                ctx.send(self.peer, i);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
    }

    /// Swallows everything.
    struct Sink;
    impl Actor<u64> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
    }

    fn lossy_world(params: NetParams, seed: u64) -> (World<u64>, Pid) {
        let mut w = ClusterBuilder::new()
            .nodes(2, NodeSpec::default())
            .net(params)
            .seed(seed)
            .build::<u64>();
        let sink = w.spawn(NodeId(1), Box::new(Sink));
        (w, sink)
    }

    #[test]
    fn random_loss_is_counted_and_deterministic() {
        let run = |seed: u64| {
            let (mut w, sink) = lossy_world(
                NetParams {
                    loss_permille: 200, // 20%
                    ..NetParams::default()
                },
                seed,
            );
            w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 500 }));
            w.run_for(SimDuration::from_secs(1));
            let m = w.metrics();
            let lost = w.counts.drops[DropReason::RandomLoss as usize];
            assert!(m.total.delivered + lost == m.total.sent);
            assert!((50..200).contains(&lost), "20% of 500 lost, got {lost}");
            lost
        };
        assert_eq!(run(9), run(9), "same seed, same losses");
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (mut w, sink) = lossy_world(
            NetParams {
                dup_permille: 1000, // every message duplicated
                ..NetParams::default()
            },
            3,
        );
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 10 }));
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.metrics().total.sent, 10);
        assert_eq!(w.metrics().total.delivered, 20);
    }

    /// Logs `(handler, now, sent_at)` for every handler it runs, and sets
    /// one timer on its first message.
    struct Stamps(std::rc::Rc<std::cell::RefCell<Vec<(&'static str, SimTime, SimTime)>>>);
    impl Actor<u64> for Stamps {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.0.borrow_mut().push(("start", ctx.now(), ctx.sent_at()));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {
            let first = self.0.borrow().iter().all(|&(h, ..)| h != "message");
            self.0.borrow_mut().push(("message", ctx.now(), ctx.sent_at()));
            if first {
                ctx.set_timer(SimDuration::from_millis(5), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _token: u64) {
            self.0.borrow_mut().push(("timer", ctx.now(), ctx.sent_at()));
        }
    }

    #[test]
    fn sent_at_is_the_send_instant_and_now_outside_messages() {
        let (mut w, _) = lossy_world(
            NetParams {
                dup_permille: 1000, // every message duplicated
                ..NetParams::default()
            },
            3,
        );
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rx = w.spawn(NodeId(1), Box::new(Stamps(log.clone())));
        w.run_for(SimDuration::from_millis(1));
        let sent = w.now();
        w.spawn(NodeId(0), Box::new(Flood { peer: rx, n: 1 }));
        w.run_for(SimDuration::from_secs(1));
        let log = log.borrow();
        let handlers: Vec<_> = log.iter().map(|&(h, ..)| h).collect();
        assert_eq!(handlers, ["start", "message", "message", "timer"]);
        for &(handler, now, sent_at) in log.iter() {
            if handler == "message" {
                assert_eq!(sent_at, sent, "both copies carry the original's send instant");
                assert!(now > sent, "delivered after a network latency");
            } else {
                assert_eq!(sent_at, now, "{handler}: sent_at is now");
            }
        }
    }

    /// Opens one telemetry span on start, another on every message.
    struct Spanner;
    impl Actor<u64> for Spanner {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {
            let _ = phoenix_telemetry::span_start("test.start", "test", 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {
            let _ = phoenix_telemetry::span_start("test.message", "test", 0);
        }
    }

    #[test]
    fn a_killed_process_aborts_the_spans_it_opened() {
        phoenix_telemetry::reset();
        let mut w = two_node_world();
        let a = w.spawn(NodeId(1), Box::new(Spanner));
        let b = w.spawn(NodeId(1), Box::new(Spanner));
        let c = w.spawn(NodeId(1), Box::new(Spanner));
        w.run_for(SimDuration::from_millis(1));
        w.inject(a, 0);
        w.run_for(SimDuration::from_millis(1));
        let outside = phoenix_telemetry::span_start("test.outside", "test", 1);
        let open = || phoenix_telemetry::with(|r| r.open_spans());
        assert_eq!(open(), 5);
        w.kill_process(b);
        assert_eq!(open(), 4, "only b's span");
        w.apply_fault(Fault::CrashNode(NodeId(1)));
        assert_eq!(open(), 1, "the crash killed a and c");
        let aborted: Vec<_> = phoenix_telemetry::with(|r| {
            r.recorder().iter().filter(|s| s.aborted).map(|s| s.path).collect()
        });
        assert_eq!(aborted, ["test.start", "test.start", "test.message", "test.start"]);
        phoenix_telemetry::span_end(outside);
        assert_eq!(open(), 0, "a span opened outside any handler outlives every kill");
        assert!(!w.is_alive(c));
    }

    #[test]
    fn island_partition_blocks_and_heals() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.apply_fault(Fault::Partition { island: 0b01 });
        assert_eq!(w.island(), 0b01);
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let _p = w.spawn(
            NodeId(0),
            Box::new(Pinger {
                peer: echo,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(got.get(), 0, "cross-island message must be dropped");
        // Default routing tries every NIC; all are island-blocked.
        assert_eq!(w.counts.drops[DropReason::NoRoute as usize], 1);
        w.apply_fault(Fault::Heal);
        assert_eq!(w.island(), 0);
        let _p2 = w.spawn(
            NodeId(0),
            Box::new(Pinger {
                peer: echo,
                got: got.clone(),
            }),
        );
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(got.get(), 42, "healed split carries traffic again");
    }

    #[test]
    fn loss_burst_fault_degrades_then_clears() {
        let (mut w, sink) = lossy_world(NetParams::default(), 5);
        w.apply_fault(Fault::LossBurst { permille: 1000 });
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 5 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 0);
        assert_eq!(w.counts.drops[DropReason::RandomLoss as usize], 5);
        w.apply_fault(Fault::LossClear);
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 5 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 5);
    }

    #[test]
    fn nic_degrade_fault_drops_then_restores() {
        phoenix_telemetry::reset();
        let (mut w, sink) = lossy_world(NetParams::default(), 5);
        // Degrade NIC 0 of the receiver to 100% loss. Default routing still
        // picks NIC 0 (the interface is up, just lossy), so everything dies.
        w.apply_fault(Fault::NicDegrade(NodeId(1), NicId(0), 1000));
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 5 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 0);
        assert_eq!(w.counts.drops[DropReason::RandomLoss as usize], 5);
        let nic0_drops = phoenix_telemetry::with(|reg| reg.counter("net.loss.dropped.nic0"));
        assert_eq!(nic0_drops, 5, "drops attributed to the degraded NIC");
        w.apply_fault(Fault::NicRestore(NodeId(1), NicId(0)));
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 5 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 5);
    }

    #[test]
    fn per_nic_loss_only_hits_that_network() {
        phoenix_telemetry::reset();
        // NIC 0 always loses; NICs 1-2 are clean. Default routing still
        // prefers NIC 0, so drops land there and nowhere else.
        let params = NetParams::default().with_nic_loss(NicId(0), 1000);
        let (mut w, sink) = lossy_world(params, 8);
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 10 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 0);
        // Pinned sends over a clean NIC get through untouched.
        w.apply_fault(Fault::NicDown(NodeId(1), NicId(0)));
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 10 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 10);
        phoenix_telemetry::with(|reg| {
            assert_eq!(reg.counter("net.loss.dropped.nic0"), 10);
            assert_eq!(reg.counter("net.loss.dropped.nic1"), 0);
            assert_eq!(reg.counter("net.routed.nic0"), 10);
            assert_eq!(reg.counter("net.routed.nic1"), 10);
        });
    }

    #[test]
    fn local_messages_never_roll_for_loss() {
        // Same-node traffic bypasses the wire: even 100% loss delivers.
        let mut w = ClusterBuilder::new()
            .nodes(1, NodeSpec::default())
            .net(NetParams {
                loss_permille: 1000,
                ..NetParams::default()
            })
            .build::<u64>();
        let sink = w.spawn(NodeId(0), Box::new(Sink));
        w.spawn(NodeId(0), Box::new(Flood { peer: sink, n: 5 }));
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.metrics().total.delivered, 5);
    }

    /// Actor exposing its state through the introspection hook.
    struct Counter {
        seen: u64,
    }
    impl Actor<u64> for Counter {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {
            self.seen += 1;
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn actor_as_downcasts_opted_in_actors() {
        let mut w = two_node_world();
        let c = w.spawn(NodeId(0), Box::new(Counter { seen: 0 }));
        let e = w.spawn(NodeId(1), Box::new(Echo));
        w.inject(c, 1);
        w.inject(c, 2);
        w.run_for(SimDuration::from_millis(1));
        assert_eq!(w.actor_as::<Counter>(c).unwrap().seen, 2);
        // Echo does not opt in; wrong type also yields None.
        assert!(w.actor_as::<Counter>(e).is_none());
        assert!(w.actor_as::<Echo>(e).is_none());
        w.kill_process(c);
        assert!(w.actor_as::<Counter>(c).is_none());
    }

    #[test]
    fn queue_introspection_sees_pending_events() {
        let mut w = two_node_world();
        assert_eq!(w.queue_len(), 0);
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.schedule_fault(SimTime(5_000), Fault::KillProcess(echo))
            .unwrap();
        assert_eq!(w.queue_len(), 2); // Start + Fault
        assert!(w.step());
        assert_eq!(w.now(), SimTime::ZERO, "the Start was due first");
        assert_eq!(w.queue_len(), 1);
    }

    #[test]
    fn wheel_world_reuses_arena_slots_and_leaks_none() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        for i in 0..200 {
            w.inject(echo, i);
            w.run_for(SimDuration::from_millis(1));
        }
        w.run_for(SimDuration::from_secs(1));
        let s = w.scheduler_stats();
        assert_eq!(s.live, w.queue_len());
        assert_eq!(s.live, 0, "drained world must hold no pooled events");
        assert_eq!(s.allocs - s.frees, 0);
        assert!(
            s.capacity < 50,
            "steady-state churn must recycle slots, not grow (capacity {})",
            s.capacity
        );
    }

    #[test]
    fn run_until_quiet_stops_after_trace_silence() {
        let mut w = two_node_world();
        let echo = w.spawn(NodeId(1), Box::new(Echo));
        w.run_for(SimDuration::from_millis(1));
        let now = w.now();
        w.trace_mut().push(
            now,
            TraceEvent::Milestone {
                label: "noise",
                value: 0.0,
            },
        );
        let quiet = w.run_until_quiet(
            SimDuration::from_secs(1),
            w.now() + SimDuration::from_secs(10),
        );
        assert!(quiet);
        // Quiet long before the deadline.
        assert!(w.now() < SimTime(5_000_000_000));
        let _ = echo;
    }

    #[test]
    fn pids_on_node_tracks_spawn_and_kill() {
        let mut w = two_node_world();
        let a = w.spawn(NodeId(0), Box::new(Echo));
        let b = w.spawn(NodeId(0), Box::new(Echo));
        assert_eq!(w.pids_on(NodeId(0)), vec![a, b]);
        w.kill_process(a);
        assert_eq!(w.pids_on(NodeId(0)), vec![b]);
        // Interleaved spawns and kills on two nodes keep both lists
        // ascending.
        let c = w.spawn(NodeId(1), Box::new(Echo));
        let d = w.spawn(NodeId(0), Box::new(Echo));
        let e = w.spawn(NodeId(1), Box::new(Echo));
        w.kill_process(b);
        let f = w.spawn(NodeId(0), Box::new(Echo));
        let g = w.spawn(NodeId(1), Box::new(Echo));
        w.kill_process(e);
        assert_eq!(w.pids_on(NodeId(0)), vec![d, f]);
        assert_eq!(w.pids_on(NodeId(1)), vec![c, g]);
        assert_eq!(w.pids_on(NodeId(9)), vec![]);
        assert_eq!(w.live_processes(), 4);
        assert_eq!(live_slots(&w), 4);
    }

    /// Appends its tag to a shared list when killed (its actor dropped).
    struct KillLog {
        tag: u64,
        order: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }
    impl Actor<u64> for KillLog {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: Pid, _msg: u64) {}
    }
    impl Drop for KillLog {
        fn drop(&mut self) {
            self.order.borrow_mut().push(self.tag);
        }
    }

    #[test]
    fn crash_node_kills_in_ascending_pid_order() {
        let mut w = two_node_world();
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut on_node_1 = Vec::new();
        for i in 0..40u32 {
            let node = NodeId(i % 2);
            let pid = w.spawn(
                node,
                Box::new(KillLog {
                    tag: u64::from(i) + 1,
                    order: order.clone(),
                }),
            );
            assert_eq!(pid.0, u64::from(i) + 1);
            if node == NodeId(1) {
                on_node_1.push(pid.0);
            }
        }
        w.kill_process(Pid(on_node_1.remove(3)));
        order.borrow_mut().clear();
        w.apply_fault(Fault::CrashNode(NodeId(1)));
        assert_eq!(*order.borrow(), on_node_1);
        assert_eq!(w.pids_on(NodeId(1)), vec![]);
        assert_eq!(w.live_processes(), 20);
        assert_eq!(live_slots(&w), 20);
    }
}
