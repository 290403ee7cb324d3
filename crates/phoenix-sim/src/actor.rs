//! Actors: the unit of simulated software.
//!
//! Every daemon in the Phoenix reproduction (WD, GSD, event service, data
//! bulletin, schedulers, ...) is an [`Actor`] spawned on a simulated node.
//! Actors interact with the world exclusively through [`Ctx`], which batches
//! side effects into commands that the [`World`](crate::World) applies after
//! the handler returns — the classic command-buffer pattern that keeps the
//! borrow checker happy and the semantics deterministic.

use crate::ids::{NicId, NodeId, Pid, TimerId};
use crate::message::Message;
use crate::node::{NodeState, ResourceUsage};
use crate::time::{SimDuration, SimTime};
use crate::rng::SimRng;
use crate::trace::TraceEvent;

/// A simulated process. Handlers run to completion at a virtual instant.
pub trait Actor<M: Message> {
    /// Called once, immediately after the actor is spawned.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called when a message addressed to this actor is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: Pid, msg: M);

    /// Called when a timer set by this actor fires. `token` is the value
    /// passed to [`Ctx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {}

    /// Short human-readable name used in traces.
    fn name(&self) -> &str {
        "actor"
    }

    /// Downcast hook for read-only introspection from outside the
    /// simulation (invariant checkers, chaos harnesses). Actors that want
    /// to expose state return `Some(self)`; the default opts out. See
    /// [`World::actor_as`](crate::World::actor_as).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Side effects an actor may request; applied by the world after the
/// handler returns, in order.
pub(crate) enum Command<M: Message> {
    Send {
        to: Pid,
        via: Option<NicId>,
        msg: M,
    },
    SetTimer {
        id: TimerId,
        after: SimDuration,
        token: u64,
    },
    CancelTimer(TimerId),
    Spawn {
        node: NodeId,
        actor: Box<dyn Actor<M>>,
        pid: Pid,
    },
    Kill(Pid),
    SetUsage(NodeId, ResourceUsage),
    /// Power a node on or off (off kills its processes, like a crash).
    NodePower {
        node: NodeId,
        up: bool,
    },
    Trace(TraceEvent),
}

/// Read-only view of the world plus a command buffer, handed to actor
/// handlers.
pub struct Ctx<'a, M: Message> {
    pub(crate) now: SimTime,
    pub(crate) sent_at: SimTime,
    pub(crate) self_pid: Pid,
    pub(crate) self_node: NodeId,
    pub(crate) commands: &'a mut Vec<Command<M>>,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) next_pid: &'a mut u64,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) view: WorldView<'a>,
}

/// Immutable facts about the world that actors may consult.
pub(crate) struct WorldView<'a> {
    pub(crate) nodes: &'a [NodeState],
    /// The liveness column of the world's process table.
    pub(crate) live: &'a [Option<NodeId>],
    /// Active island-split mask (`Fault::Partition`), 0 when whole.
    pub(crate) island: u64,
}

/// Node of a live pid, read from the liveness column (indexed by `pid.0`).
/// `None` for every pid that is not alive, including ones past the end.
pub(crate) fn live_node(live: &[Option<NodeId>], pid: Pid) -> Option<NodeId> {
    *live.get(usize::try_from(pid.0).ok()?)?
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// When the message being handled was sent: the instant its sender's
    /// handler ran (a duplicated copy carries the original's). [`Ctx::now`]
    /// in start and timer handlers.
    #[inline]
    pub fn sent_at(&self) -> SimTime {
        self.sent_at
    }

    /// The pid of the running actor.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.self_pid
    }

    /// The node the running actor lives on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.self_node
    }

    /// Send `msg` to `to` over the default route (first healthy NIC).
    pub fn send(&mut self, to: Pid, msg: M) {
        self.commands.push(Command::Send {
            to,
            via: None,
            msg,
        });
    }

    /// Send `msg` to `to` pinned to a specific network interface. Used by
    /// watch daemons, which heartbeat over *all* interfaces so the GSD can
    /// tell a NIC failure from a node failure.
    pub fn send_via(&mut self, to: Pid, nic: NicId, msg: M) {
        self.commands.push(Command::Send {
            to,
            via: Some(nic),
            msg,
        });
    }

    /// Schedule `on_timer(token)` after `after`. Returns a handle that can
    /// cancel the timer.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        *self.next_timer += 1;
        let id = TimerId(*self.next_timer);
        self.commands.push(Command::SetTimer { id, after, token });
        id
    }

    /// Cancel a previously set timer. Harmless if already fired.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.commands.push(Command::CancelTimer(id));
    }

    /// Spawn a new actor on `node`; returns its pid immediately. The actor's
    /// `on_start` runs at the current virtual instant, after this handler.
    /// Spawning on a crashed node is a no-op (the pid will never be live).
    pub fn spawn(&mut self, node: NodeId, actor: Box<dyn Actor<M>>) -> Pid {
        *self.next_pid += 1;
        let pid = Pid(*self.next_pid);
        self.commands.push(Command::Spawn { node, actor, pid });
        pid
    }

    /// Kill a process (possibly self).
    pub fn kill(&mut self, pid: Pid) {
        self.commands.push(Command::Kill(pid));
    }

    /// Overwrite the resource usage readings of a node (used by workload
    /// models and the physical-resource detector's self-introspection).
    pub fn set_usage(&mut self, node: NodeId, usage: ResourceUsage) {
        self.commands.push(Command::SetUsage(node, usage));
    }

    /// Record a structured trace event for later analysis.
    pub fn trace(&mut self, ev: TraceEvent) {
        self.commands.push(Command::Trace(ev));
    }

    /// Record that the running actor is up, as `service`.
    pub fn service_up(&mut self, service: &'static str) {
        let (pid, node) = (self.self_pid, self.self_node);
        self.trace(TraceEvent::ServiceUp { pid, service, node });
    }

    /// Power a node off (killing its processes) or back on. This is the
    /// mechanism behind administrative start/shutdown-node operations.
    pub fn set_node_power(&mut self, node: NodeId, up: bool) {
        self.commands.push(Command::NodePower { node, up });
    }

    /// Can this actor's node exchange traffic with `node` right now —
    /// i.e. `node` is up and no island split (`Fault::Partition`) severs
    /// the pair? Remote operations (process spawn, remote exec) should
    /// consult this: a real cluster cannot start a process on a machine
    /// it cannot route to. Pairwise link cuts are not reflected here;
    /// they only drop individual messages.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        self.node_is_up(node) && self.node_same_island(node)
    }

    /// Is `node` on this actor's side of any active island split
    /// (`Fault::Partition`), regardless of its power state? Administrative
    /// power-on consults this instead of [`Ctx::node_reachable`]: a down
    /// node can legitimately be started, but not across a split the start
    /// command cannot traverse.
    pub fn node_same_island(&self, node: NodeId) -> bool {
        let island = self.view.island;
        let side = |n: NodeId| n.0 < 64 && (island >> n.0) & 1 == 1;
        island == 0 || side(self.self_node) == side(node)
    }

    /// Is `node` powered and running?
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.view
            .nodes
            .get(node.index())
            .map(|n| n.up)
            .unwrap_or(false)
    }

    /// Is a specific NIC of `node` healthy (node up, NIC up)?
    pub fn nic_is_up(&self, node: NodeId, nic: NicId) -> bool {
        self.view
            .nodes
            .get(node.index())
            .map(|n| n.nic_healthy(nic))
            .unwrap_or(false)
    }

    /// Number of NICs configured on `node`.
    pub fn nic_count(&self, node: NodeId) -> usize {
        self.view
            .nodes
            .get(node.index())
            .map(|n| n.nic_up.len())
            .unwrap_or(0)
    }

    /// Is the given process currently alive? (Models OS-level process
    /// liveness checks such as the application-state detector's scan.)
    pub fn process_is_alive(&self, pid: Pid) -> bool {
        self.node_of(pid).is_some()
    }

    /// Node a live process runs on.
    pub(crate) fn node_of(&self, pid: Pid) -> Option<NodeId> {
        live_node(self.view.live, pid)
    }

    /// Deterministic per-world random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}
