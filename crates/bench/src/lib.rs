//! # traj-bench
//!
//! The experiments crate: regenerates every table and figure of the OPERB
//! paper's evaluation (§6) on the synthetic workloads of [`traj_data`].
//! End-to-end and per-layer performance is measured by `perfbench` at the
//! repository root, not here.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p traj-bench --bin experiments -- all
//! ```
//!
//! or a single experiment (`table1`, `fig12`, …, `fig19b`); add
//! `--scale full` for larger workloads (the default `quick` scale finishes
//! in a couple of minutes on a laptop).  See `docs/ARCHITECTURE.md` at the
//! repository root for the paper-section → module map this harness
//! follows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod datasets;
pub mod experiments;
pub mod table;

pub use algorithms::{standard_algorithms, AlgorithmSet};
pub use datasets::{DatasetRepository, Scale};
