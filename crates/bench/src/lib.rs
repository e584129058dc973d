//! # traj-bench
//!
//! The experiments crate: regenerates every table and figure of the OPERB
//! paper's evaluation (§6) on the synthetic workloads of [`traj_data`].
//! End-to-end and per-layer performance is measured by `perfbench` at the
//! repository root, not here.
//!
//! The `trajsimp` command line runs them, every one or one by name (the
//! names of [`experiments::EXPERIMENTS`]: `table1`, `fig12`, …, `fig19b`):
//!
//! ```text
//! cargo run --release --bin trajsimp -- experiments all
//! cargo run --release --bin trajsimp -- experiments fig15 --scale full --json results/
//! ```
//!
//! `--scale full` runs larger workloads (the default `quick` scale
//! finishes in under a minute), and `--seed N` changes the datasets.  See
//! `docs/ARCHITECTURE.md` at the repository root for the paper-section →
//! module map this harness follows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod datasets;
pub mod experiments;
pub mod table;

pub use algorithms::{standard_algorithms, AlgorithmSet};
pub use datasets::{DatasetRepository, Scale};
