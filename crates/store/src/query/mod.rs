//! The query engine layered on the compressed store: standing continuous
//! geofence queries and k-nearest-trajectory search.
//!
//! Both exploit the soundness properties the range path uses: a block's
//! [`crate::BlockMeta`] bounding box, expanded by `ζ + quantization
//! slack`, conservatively covers every original point the block is
//! responsible for, and expanded by the quantization slack alone it
//! covers every stored segment.  That makes metadata-only pruning decisions
//! *provably* lossless — a pruned block cannot contain an answer — and,
//! because the metadata is computed from the segments before encoding,
//! identical across block formats and buffer-pool capacities.
//!
//! - [`GeofenceRegistry`] — standing region/time alerts evaluated
//!   incrementally as live ingest seals blocks ([`geofence`]).
//! - [`TrajStore::knn`](crate::TrajStore::knn) — k-nearest-trajectory
//!   search with a quantization-slack lower bound that prunes whole devices and
//!   blocks before any payload decode ([`knn`]).

pub mod geofence;
pub mod knn;

pub use geofence::{
    GeofenceAlert, GeofenceRegistry, GeofenceSpec, GeofenceStats, PollResult, Subscription,
};
pub use knn::{KnnNeighbor, KnnResult, KnnStats};
