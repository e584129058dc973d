//! Umbrella crate re-exporting the whole `trajsimp` workspace.
//!
//! See the individual crates for details:
//! [`traj_geo`], [`traj_model`], [`traj_data`], [`traj_baselines`],
//! [`operb`], [`traj_metrics`], [`traj_pipeline`], [`traj_store`],
//! [`traj_service`], [`traj_bench`].

pub use operb;
pub use traj_baselines as baselines;
pub use traj_bench as bench;
pub use traj_data as data;
pub use traj_geo as geo;
pub use traj_metrics as metrics;
pub use traj_model as model;
pub use traj_obs as obs;
pub use traj_pipeline as pipeline;
pub use traj_service as service;
pub use traj_store as store;
