//! # phoenix-pws — the Phoenix-PWS job management user environment
//!
//! Paper Sec 5.4: PWS (Partitioned Workload Solution) is the job
//! management system rebuilt on the Phoenix kernel: multi-pool scheduling
//! with customized per-pool policies, dynamic leasing between pools,
//! event-driven resource collection through the data bulletin and event
//! services, and highly available schedulers supervised by the group
//! service. The crate also contains [`pbs`], a faithful model of the
//! PBS-style monolith the paper compares against (central server, polling
//! resource monitor, no HA).

pub(crate) mod pbs;
pub(crate) mod policy;
pub(crate) mod pool;
pub(crate) mod scheduler;
pub(crate) mod setup;
pub mod ui;
pub mod workload;

pub use pbs::PbsServer;
pub use policy::{pick, PolicyCtx, PolicyKind};
pub use pool::{Lender, Placement, Pool};
pub use scheduler::{pool_directory, PoolConfig, PoolDirectory, PwsScheduler};
pub use setup::{install_pbs, install_pws, login, queue_status, submit, PwsHandle};
