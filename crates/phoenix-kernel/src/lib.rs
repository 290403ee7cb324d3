//! # phoenix-kernel — the Fire Phoenix cluster OS kernel
//!
//! The paper's contribution: "a minimum set of cluster core functions with
//! scalability and fault-tolerance support" (paper Sec 1). The kernel
//! stack (paper Fig 2) maps onto modules as follows:
//!
//! | Paper component | Module |
//! |---|---|
//! | Configuration service | [`config`] |
//! | Security service | [`security`] |
//! | Parallel process management | [`ppm`] |
//! | Detector services | [`detect`] (+ heartbeat analysis in [`group`]) |
//! | Group service (GSD/WD, meta-group ring) | [`group`] |
//! | Service federation (GSD↔service supervision) | [`federation`] |
//! | Checkpoint service | [`checkpoint`] |
//! | Event service | [`event`] |
//! | Data bulletin service | [`bulletin`] |
//! | System construction tool | [`boot`] |
//!
//! Build a whole cluster with [`boot::boot_cluster`] and interact with it
//! through [`client::ClientHandle`] — the same message interfaces the
//! paper's user environments (GridView, Phoenix-PWS) are built on.

pub mod boot;
pub(crate) mod bulletin;
pub(crate) mod checkpoint;
pub mod client;
pub mod config;
pub(crate) mod directory;
pub(crate) mod detect;
pub(crate) mod event;
pub mod federation;
pub mod group;
pub(crate) mod nic_health;
pub mod params;
pub mod ppm;
pub mod regroup;
pub(crate) mod rpc;
pub mod security;
pub(crate) mod slow_detect;

pub use boot::{
    boot_and_stabilize, boot_cluster, boot_cluster_custom, boot_cluster_with_net, PhoenixCluster,
};
pub use client::ClientHandle;
pub use detect::ALARM_CPU;
pub use nic_health::{NicHealth, NicHealthParams};
pub use params::{FtParams, KernelParams, Rung};
pub use regroup::{Regroup, RegroupParams};
pub use rpc::{DedupWindow, RetryPolicy};
pub use slow_detect::{SlowDetect, SlowDetectParams};
