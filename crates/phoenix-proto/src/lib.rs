//! # phoenix-proto — the Fire Phoenix wire protocol
//!
//! Shared vocabulary of the reproduction: protocol identifiers, event and
//! bulletin types, job descriptions, security principals, the cluster
//! topology, and the [`KernelMsg`] enum every service speaks. Also provides
//! [`wire::encoded_size`], a dependency-free byte counter used to charge
//! realistic wire sizes to the simulated network.

pub(crate) mod bulletin;
pub mod checkpoint;
pub(crate) mod event;
pub(crate) mod ids;
pub(crate) mod job;
pub(crate) mod msg;
pub(crate) mod security;
pub(crate) mod shared;
pub(crate) mod topology;
pub(crate) mod view;
pub mod wire;

pub use bulletin::{AppState, AppStatus, BulletinEntry, BulletinKey, BulletinQuery, BulletinValue};
pub use checkpoint::CheckpointData;
pub use event::{ConsumerReg, Event, EventFilter, EventPayload, EventType};
pub use ids::{JobId, PartitionId, RequestId, ServiceKind, UserId};
pub use job::{JobSpec, JobState, TaskSpec};
pub use msg::{KernelMsg, MemberInfo, NodeOp, NodeServices, QueueRow, ServiceDirectory};
pub use security::{Action, AuthToken, Role};
pub use shared::Shared;
pub use topology::{ClusterTopology, PartitionSpec};
pub use view::KernelMsgView;
pub use wire::{encoded_size, Wire, WireVariants};
