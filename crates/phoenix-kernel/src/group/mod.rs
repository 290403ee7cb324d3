//! The group service (paper Sec 4.3–4.4).
//!
//! "Group service is the kernel one to solve scalability and high
//! availability at the same time. The key functions of group service are
//! guaranteeing the high availability of its meta-group; providing
//! interfaces for upper-layer service group's creating, joining and
//! leaving; and guaranteeing upper-layer service group's high
//! availability."
//!
//! * [`wd`] — the watch daemon on every node (heartbeats over all NICs);
//! * [`gsd`] — the per-partition Group Service Daemon and the ring-shaped
//!   meta-group with Leader/Princess takeover;
//! * `liveness`, `probe`, `ring`, `failover`, `dirsync` — what the GSD
//!   decides, with no actor context: is a watched daemon (watch daemon or
//!   ring predecessor alike) silent; what probing its node found; who is
//!   in the meta-group, in which seat, and who may join; where a
//!   replacement GSD goes, at what cost, and whether it rebuilds the
//!   partition's services; what the config directory is still owed;
//! * [`registry`] — respawn-policy registration for supervised services.

pub(crate) mod dirsync;
pub(crate) mod failover;
pub(crate) mod gsd;
pub(crate) mod liveness;
pub(crate) mod probe;
pub(crate) mod registry;
pub(crate) mod ring;
pub(crate) mod wd;

pub use gsd::Gsd;
pub use registry::{
    kernel_factory_key, shared_registry, Factory, FactoryRegistry, RespawnArgs, SharedRegistry,
};
pub use wd::Wd;
