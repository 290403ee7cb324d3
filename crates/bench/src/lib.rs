//! # phoenix-bench — experiment harnesses for the paper's evaluation
//!
//! [`paper`] regenerates every simulated table and figure of Sec 5 and
//! checks each number the paper prints against its measurement (the
//! `paper` bin). Its harnesses:
//!
//! * [`ft`] — Tables 1–3 (fault detection / diagnosis / recovery for WD,
//!   GSD, and the event service on the 136-node testbed shape);
//! * `scale` — Sec 5.3 monitoring scalability and the Sec 4.3 flat-vs-
//!   partitioned membership ablation;
//! * `pws_pbs` — Sec 5.4 / Figs 7–8, PWS vs the PBS baseline;
//! * `report` — the telemetry cross-check and `results/BENCH_kernel.json`.
//!
//! Table 4 (Linpack impact) is the `table4_linpack` bin over
//! `phoenix-hpl::measure_impact`, since it runs on real threads, not the
//! simulator. The `sweep` bin runs five presets of [`sweep`] over [`episodes`].
//! Host time is measured by the repo-level perf ledger
//! (`benchmark/run.sh`), not here.

pub mod episodes;
pub mod ft;
pub mod paper;
mod pws_pbs;
mod report;
mod scale;
pub mod sweep;

use phoenix_kernel::boot::PhoenixCluster;
use phoenix_sim::NodeId;

/// Every computing node of a booted cluster, partition by partition.
fn compute_nodes(cluster: &PhoenixCluster) -> Vec<NodeId> {
    let parts = &cluster.topology.partitions;
    parts.iter().flat_map(|p| p.compute.iter().copied()).collect()
}
