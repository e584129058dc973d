//! # traj-store
//!
//! A **compressed trajectory storage engine** for the `trajsimp`
//! workspace: the persistence and retrieval layer the OPERB paper's
//! storage argument leads to.  Error-bounded simplification makes massive
//! trajectory archives cheap to *keep*; this crate makes them cheap to
//! *query*, answering directly from the compressed representation and
//! decoding only the blocks a query provably needs.
//!
//! There is one store type, [`ShardedStore`]: the fleet is partitioned by
//! device hash into independently locked shards (one shard is the plain
//! single-owner case), and callers see the same queries whatever the
//! shard count.  A store directory holds one flat log, so a store saved
//! at one shard count opens at any other.
//!
//! Dataflow:
//!
//! ```text
//!  traj-pipeline ──▶ FleetStoreSink ──▶ ShardedStore::ingest
//!                                           │  write-lock the device's shard,
//!                                           │  chop into ≤ block_segments chunks,
//!                                           │  encode (traj_model::codec),
//!                                           ▼  seal with bbox + time metadata
//!                         per-device append-only segment logs (per shard)
//!                                           │
//!                                           ▼  register ζ-expanded bbox
//!                         spatio-temporal grid index (data skipping)
//!                                           │
//!            time_slice ───────────────────┤   decode only overlapping blocks
//!            window_query ─────────────────┤
//!            position_at ──────────────────┘
//! ```
//!
//! Three guarantees carry the stored error bound ζ through to every
//! query result (exact for data ingested with
//! [`ShardedStore::ingest_with_original`], whose block metadata covers the
//! actual data points):
//!
//! * a time slice covers its range: every original point with a
//!   timestamp in the range is within `ζ + quantization slack` of some
//!   returned segment;
//! * a spatial window query has **no false negatives**: any original
//!   point inside the window is within `ζ + slack` of some returned
//!   segment of its device (matching is conservative by `ζ + slack` at
//!   both the block and the segment level, and a segment that owns
//!   points past its end is also tested against its own ζ-strip);
//! * [`ShardedStore::position_at`] returns a point on the stored piecewise
//!   line, which is within `ζ + slack` of the original trajectory in
//!   the paper's perpendicular sense.
//!
//! ## Example
//!
//! ```
//! use traj_model::{BatchSimplifier, Trajectory};
//! use traj_store::{ShardedStore, StoreConfig};
//!
//! // Simplify a drive under ζ = 2 m and store it for device 7.
//! let trajectory = Trajectory::from_xy(&[
//!     (0.0, 0.0), (50.0, 0.5), (100.0, -0.4), (150.0, 0.2), (200.0, 40.0),
//! ]);
//! let simplified = operb::Operb::new().simplify(&trajectory, 2.0).unwrap();
//!
//! let store = ShardedStore::new(StoreConfig::default(), 1);
//! store.ingest(7, &simplified, 2.0).unwrap();
//!
//! // Query back from the compressed representation.
//! let slice = store.time_slice(7, 1.0, 3.0);
//! assert!(!slice.segments.is_empty());
//! assert!(store.position_at(7, 2.0).is_some());
//! # // (operb is a dev-dependency of this crate, used here for the doctest.)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod index;
pub mod pager;
pub mod persist;
pub mod query;
pub mod shard;
pub mod sink;
pub mod store;
pub mod wal;

pub use block::{Block, BlockMeta};
pub use index::{BlockRef, GridIndex};
pub use pager::CacheStats;
pub use persist::RecoveryReport;
pub use query::{
    GeofenceAlert, GeofenceRegistry, GeofenceSpec, GeofenceStats, KnnCounters, KnnNeighbor,
    KnnResult, KnnStats, PollResult, Subscription,
};
pub use shard::{DurableReport, ShardedStore};
pub use sink::{compress_fleet_into_shared_store, FleetStoreSink};
pub use store::{
    DeviceMatch, MemoryStats, QueryStats, StoreConfig, StoreError, StoreStats, TimeSlice,
    WindowQuery,
};
pub use traj_model::codec::BlockFormat;
pub use wal::{DurabilityMode, Wal, WalReplayReport, WalStats};
