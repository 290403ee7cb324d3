//! # phoenix-sim — deterministic cluster simulator
//!
//! The hardware substrate for the Fire Phoenix reproduction. The paper
//! evaluated the Phoenix kernel on the Dawning 4000A (640 nodes, three
//! networks per node); this crate provides the equivalent simulated
//! machine: virtual time, nodes with multiple network interfaces, a
//! latency-modelled interconnect, and the fault-injection operations used
//! in the paper's Section 5.1 (process kill, node crash, NIC failure).
//!
//! Everything is deterministic: the event queue breaks ties FIFO and the
//! only randomness comes from a seeded RNG, so every experiment is exactly
//! reproducible.
//!
//! ```
//! use phoenix_sim::{ClusterBuilder, NodeSpec, NodeId, SimDuration, Actor, Ctx, Pid};
//!
//! struct Hello;
//! impl Actor<u64> for Hello {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: Pid, msg: u64) {
//!         ctx.send(from, msg * 2);
//!     }
//! }
//!
//! let mut world = ClusterBuilder::new().nodes(4, NodeSpec::default()).build::<u64>();
//! let pid = world.spawn(NodeId(0), Box::new(Hello));
//! world.inject(pid, 21);
//! world.run_for(SimDuration::from_millis(1));
//! assert_eq!(world.metrics().total.delivered, 1);
//! ```

pub(crate) mod actor;
pub(crate) mod arena;
pub(crate) mod fault;
pub(crate) mod ids;
pub(crate) mod message;
pub(crate) mod metrics;
pub(crate) mod network;
pub(crate) mod node;
pub(crate) mod rng;
pub mod sched;
pub(crate) mod time;
pub(crate) mod trace;
pub(crate) mod world;

pub use actor::{Actor, Ctx};
pub use arena::{ArenaStats, EventArena};
pub use fault::Fault;
pub use ids::{NicId, NodeId, Pid, TimerId};
pub use message::Message;
pub use metrics::{LabelStats, Metrics};
pub use network::{DropReason, NetParams, Network};
pub use node::{NodeSpec, NodeState, ResourceUsage};
pub use rng::SimRng;
pub use sched::{HeapScheduler, Scheduler, SchedulerKind, WheelScheduler};
pub use time::{SimDuration, SimTime};
pub use trace::{Diagnosis, FaultTarget, RecoveryAction, TraceEvent, TraceLog, TraceRecord};
pub use world::{ClusterBuilder, SchedulePastError, World};
