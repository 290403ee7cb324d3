//! # phoenix-bench — experiment harnesses for the paper's evaluation
//!
//! Each module regenerates part of Sec 5:
//!
//! * [`ft`] — Tables 1–3 (fault detection / diagnosis / recovery for WD,
//!   GSD, and the event service on the 136-node testbed shape);
//! * [`scale`] — Sec 5.3 monitoring scalability and the Sec 4.3 flat-vs-
//!   partitioned membership ablation;
//! * [`pws_pbs`] — Sec 5.4 / Figs 7–8, PWS vs the PBS baseline.
//!
//! Table 4 (Linpack impact) lives in `phoenix-hpl::measure_impact` since
//! it runs on real threads, not the simulator.
//!
//! The `src/bin/` binaries print the corresponding paper artifacts. Host
//! time is measured by the repo-level perf ledger (`benchmark/run.sh`),
//! not here.

pub mod episodes;
pub mod ft;
pub mod pws_pbs;
pub mod report;
pub mod scale;
pub mod sweep;
