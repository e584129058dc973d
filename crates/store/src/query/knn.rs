//! k-nearest-trajectory search over the compressed form.
//!
//! The distance between a query point set `Q` (sample points of a query
//! trajectory) and a stored device is
//!
//! ```text
//! d(Q, device) = (1/|Q|) · Σ_{q ∈ Q}  min over stored segments s  d(q, s)
//! ```
//!
//! where `d(q, s)` is the Euclidean distance from `q` to the closed
//! directed segment `s` — computed directly on the piecewise
//! representation, never on reconstructed points.
//!
//! # The quantization-slack lower bound
//!
//! Every decoded segment of a block lies inside the block's metadata
//! bounding box expanded by the quantization slack (endpoints move by at
//! most `quant_slack` under quantization, and a straight segment stays in
//! the convex hull of its endpoints).  Therefore, for any query point `q`
//! and any stored segment `s` of block `b`:
//!
//! ```text
//! d(q, s) ≥ mindist(q, bbox(b)) − quant_slack(b)
//! ```
//!
//! ζ plays no part: the metric is the distance to the *stored* segments,
//! not to the original points, which may sit up to ζ further out (that is
//! why the window path expands by `slack_radius = ζ + quant_slack`, and
//! kNN does not).  Taking the min over a device's blocks per query point and
//! averaging yields a sound lower bound on `d(Q, device)` computed from
//! **resident metadata only** — no payload is touched, so pruning is free
//! even when every payload lives on disk behind the pager.
//!
//! Devices are scored best-first by that bound; once `k` exact distances
//! are known, every remaining device whose bound exceeds the current
//! k-th distance is pruned.  Within a scored device, a block is skipped
//! when its per-point bound cannot improve any running minimum — a
//! condition that provably leaves the exact distance unchanged, so the
//! pruned search returns *bit-identical* distances to the brute-force
//! reference ([`crate::ShardedStore::knn_bruteforce`]).
//!
//! # Dropping a device part-way
//!
//! Blocks are visited in ascending bound order.  Before decoding the
//! block at visiting position `j`, with `cur(q)` the running minimum of
//! query point `q` and `S_j(q)` the smallest bound of `q` over the
//! blocks from position `j` on (suffix minima, O(blocks × |Q|) per
//! device),
//!
//! ```text
//! d(Q, device) ≥ (1/|Q|) · Σ_{q ∈ Q}  min(cur(q), S_j(q))
//! ```
//!
//! because no unvisited block brings `q` below `S_j(q)`.  Once that
//! bound exceeds the k-th distance the device cannot enter the top-k
//! and is dropped without decoding the rest of its log.
//!
//! # One top-k across shards
//!
//! A fleet-wide query ([`crate::ShardedStore::knn`]) runs both phases
//! shard by shard, each under its own read lock, with one running
//! top-k carried through all of them: every shard prunes and drops
//! against the k-th distance of everything searched before it, not
//! against its own.  One set of scratch buffers and one decode arena
//! serve the whole query.
//!
//! Pruning and dropping both test with a strict `>`: the top-k orders
//! equal distances by device id, so a device whose distance *equals*
//! the k-th distance still displaces the k-th neighbour when its id is
//! smaller.

use std::ops::Deref;

use traj_geo::{BoundingBox, Point};
use traj_model::codec::DecodeArena;
use traj_pipeline::DeviceId;

use crate::block::BlockMeta;
use crate::store::{StoredBlock, TrajStore};

/// One ranked answer of a kNN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnNeighbor {
    /// The matched device.
    pub device: DeviceId,
    /// Its exact trajectory distance to the query point set.
    pub distance: f64,
}

/// Work accounting for one kNN query — how much the metadata bound saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Devices with at least one stored block.
    pub devices_total: usize,
    /// Devices dismissed on their metadata lower bound alone.
    pub devices_pruned: usize,
    /// Blocks across all considered devices.
    pub blocks_total: usize,
    /// Blocks whose payload was actually decoded.
    pub blocks_decoded: usize,
}

impl KnnStats {
    /// Fraction of devices dismissed without decoding any payload.
    #[must_use]
    pub fn device_prune_ratio(&self) -> f64 {
        if self.devices_total == 0 {
            0.0
        } else {
            self.devices_pruned as f64 / self.devices_total as f64
        }
    }

    /// Fraction of blocks never decoded (pruned devices and skipped
    /// blocks inside scored devices).
    #[must_use]
    pub fn block_prune_ratio(&self) -> f64 {
        if self.blocks_total == 0 {
            0.0
        } else {
            1.0 - self.blocks_decoded as f64 / self.blocks_total as f64
        }
    }

    /// Accumulates another query's accounting (totals over a series of
    /// queries).
    pub fn merge(&mut self, other: &KnnStats) {
        self.devices_total += other.devices_total;
        self.devices_pruned += other.devices_pruned;
        self.blocks_total += other.blocks_total;
        self.blocks_decoded += other.blocks_decoded;
    }
}

/// The result of a kNN query: up to `k` neighbors ordered by
/// `(distance, device)`, plus pruning statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnnResult {
    /// Nearest devices, ascending by distance (ties broken by device id).
    pub neighbors: Vec<KnnNeighbor>,
    /// Pruning accounting for the query.
    pub stats: KnnStats,
}

/// Running totals over the kNN queries one store answered: recording a
/// query is three relaxed atomic adds.
#[derive(Debug, Default)]
pub struct KnnCounters {
    queries: traj_obs::Counter,
    devices_pruned: traj_obs::Counter,
    blocks_decoded: traj_obs::Counter,
}

impl KnnCounters {
    /// Adds one query's accounting.
    pub(crate) fn record(&self, stats: &KnnStats) {
        self.queries.inc();
        self.devices_pruned.add(stats.devices_pruned as u64);
        self.blocks_decoded.add(stats.blocks_decoded as u64);
    }

    /// Puts the `knn_*` series into a metrics snapshot.
    pub fn export(&self, series: &mut traj_obs::Snapshot) {
        series.put_counter(
            "knn_queries_total",
            "kNN queries executed",
            &[],
            self.queries.get(),
        );
        series.put_counter(
            "knn_devices_pruned_total",
            "devices dismissed on the metadata lower bound alone",
            &[],
            self.devices_pruned.get(),
        );
        series.put_counter(
            "knn_blocks_decoded_total",
            "block payloads decoded by kNN queries",
            &[],
            self.blocks_decoded.get(),
        );
    }
}

/// Euclidean distance from `q` to the closed axis-aligned box (zero
/// inside the box).
#[must_use]
pub fn mindist_point_bbox(q: &Point, bbox: &BoundingBox) -> f64 {
    let dx = (bbox.min_x - q.x).max(q.x - bbox.max_x).max(0.0);
    let dy = (bbox.min_y - q.y).max(q.y - bbox.max_y).max(0.0);
    (dx * dx + dy * dy).sqrt()
}

/// The per-query-point metadata lower bound against one block: distance
/// to the bounding box minus the block's quantization slack, clamped at
/// zero.
fn block_lower_bound(q: &Point, meta: &BlockMeta) -> f64 {
    if meta.bbox.is_empty() {
        // A degenerate box covers nothing; no segment can be closer than
        // "anywhere", so the only sound bound is zero.
        return 0.0;
    }
    (mindist_point_bbox(q, &meta.bbox) - meta.quant_slack).max(0.0)
}

/// The device-level lower bound: for each query point the min bound over
/// the device's blocks, averaged over the query points (the same
/// aggregation as the exact distance, so the bound is sound for it).
fn device_lower_bound(query: &[Point], blocks: &[StoredBlock]) -> f64 {
    let mut sum = 0.0;
    for q in query {
        let mut best = f64::INFINITY;
        for block in blocks {
            let lb = block_lower_bound(q, &block.meta);
            if lb < best {
                best = lb;
            }
        }
        sum += best;
    }
    sum / query.len() as f64
}

/// Per-device working buffers of a kNN query.
#[derive(Default)]
struct DeviceScratch {
    /// Running minimum distance per query point.
    current: Vec<f64>,
    /// `bounds[b·|Q| + i]`: the metadata bound of query point `i` against
    /// block ordinal `b`, computed once per device.
    bounds: Vec<f64>,
    /// `(bound, block ordinal)` in visiting order.
    order: Vec<(f64, usize)>,
    /// `suffix[j·|Q| + i]`: the smallest bound of query point `i` over the
    /// blocks from visiting position `j` on (row `order.len()` is +∞);
    /// built only once the top-k is full.
    suffix: Vec<f64>,
}

/// The working buffers of one kNN query.  One set serves every shard and
/// every device the query visits.
#[derive(Default)]
struct KnnScratch {
    /// `(bound, device)` of the current shard's devices, best first.
    candidates: Vec<(f64, DeviceId)>,
    device: DeviceScratch,
}

/// The running k-th distance, or +∞ while fewer than `k` devices are
/// ranked (pruning and dropping compare against it with a strict `>`;
/// see the module docs).
fn kth_distance(top: &[KnnNeighbor], k: usize) -> f64 {
    top.get(k - 1).map_or(f64::INFINITY, |n| n.distance)
}

/// Inserts `(distance, device)` into the running top-`k`, ordered by
/// `(distance, device)`.
fn push_top_k(top: &mut Vec<KnnNeighbor>, k: usize, device: DeviceId, distance: f64) {
    let pos = top.partition_point(|n| {
        n.distance.total_cmp(&distance).then(n.device.cmp(&device)) == std::cmp::Ordering::Less
    });
    if pos < k {
        top.insert(pos, KnnNeighbor { device, distance });
        top.truncate(k);
    }
}

/// One kNN query over `stores`, searched in order with one running top-k
/// carried from store to store, so that each store prunes against the
/// k-th distance of everything searched before it.  Each store is held
/// only while it is searched: a shard's read guard is dropped before the
/// next shard's is taken.  One scratch set and `arena` serve the whole
/// query.
pub(crate) fn search<S: Deref<Target = TrajStore>>(
    stores: impl IntoIterator<Item = S>,
    query: &[Point],
    k: usize,
    arena: &mut DecodeArena,
) -> KnnResult {
    let mut span = traj_obs::span("knn");
    span.attr("k", k);
    span.attr("query_points", query.len());
    let mut result = KnnResult::default();
    if k == 0 || query.is_empty() {
        return result;
    }
    let mut scratch = KnnScratch::default();
    for store in stores {
        store.knn_into(query, k, &mut scratch, arena, &mut result);
    }
    span.attr("devices_pruned", result.stats.devices_pruned);
    span.attr("blocks_decoded", result.stats.blocks_decoded);
    result
}

impl TrajStore {
    /// k-nearest-trajectory search over this shard's devices: the `k`
    /// devices whose stored trajectories are closest to the query point
    /// set, by mean min-distance-to-segment (see the [module docs](self)
    /// for the metric and the pruning math), folded into the running
    /// `result` and pruned against its current k-th distance.  Ties are
    /// broken by device id; the distances are exactly those of
    /// [`TrajStore::bruteforce_into`].
    fn knn_into(
        &self,
        query: &[Point],
        k: usize,
        scratch: &mut KnnScratch,
        arena: &mut DecodeArena,
        result: &mut KnnResult,
    ) {
        // Phase 1 (metadata only): a lower bound per device, over the
        // device's resident block metadata.
        let KnnScratch { candidates, device } = scratch;
        candidates.clear();
        let logs = self.device_blocks();
        candidates.reserve(logs.len());
        let mut longest = 0;
        for (id, blocks) in logs {
            if blocks.is_empty() {
                continue;
            }
            longest = longest.max(blocks.len());
            result.stats.blocks_total += blocks.len();
            candidates.push((device_lower_bound(query, blocks), id));
        }
        // Size the per-device buffers for this store's longest log once,
        // so their allocations do not depend on the order devices are
        // scored in.
        let width = query.len();
        device.bounds.clear();
        device.bounds.reserve(longest * width);
        device.order.clear();
        device.order.reserve(longest);
        device.suffix.clear();
        device.suffix.reserve((longest + 1) * width);
        result.stats.devices_total += candidates.len();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Phase 2: score best-first; prune the tail once the k-th exact
        // distance undercuts the remaining bounds.  Bounds ascend and the
        // k-th distance only shrinks, so the first prunable candidate
        // prunes everything after it.
        for (i, &(bound, id)) in candidates.iter().enumerate() {
            let kth = kth_distance(&result.neighbors, k);
            if bound > kth {
                result.stats.devices_pruned += candidates.len() - i;
                break;
            }
            let blocks = self.device_log(id);
            if let Some(distance) =
                self.device_distance(blocks, query, kth, arena, device, &mut result.stats)
            {
                push_top_k(&mut result.neighbors, k, id, distance);
            }
        }
    }

    /// The exact distance of one device, or `None` once a lower bound on
    /// it exceeds `kth` (the device cannot enter the top-k).  Decodes
    /// only blocks that can still improve some query point's running
    /// minimum.  Skipping is lossless: a skipped block's bound proves
    /// none of its segments can undercut any current minimum, so the
    /// min — and therefore the mean — is unchanged.
    fn device_distance(
        &self,
        blocks: &[StoredBlock],
        query: &[Point],
        kth: f64,
        arena: &mut DecodeArena,
        scratch: &mut DeviceScratch,
        stats: &mut KnnStats,
    ) -> Option<f64> {
        let DeviceScratch {
            current,
            bounds,
            order,
            suffix,
        } = scratch;
        let width = query.len();
        current.clear();
        current.resize(width, f64::INFINITY);
        bounds.clear();
        bounds.reserve(blocks.len() * width);
        for block in blocks {
            bounds.extend(query.iter().map(|q| block_lower_bound(q, &block.meta)));
        }
        // Visit blocks in ascending bound order so the minima tighten
        // early and later blocks can be skipped.
        order.clear();
        order.extend(
            bounds
                .chunks_exact(width)
                .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
                .enumerate()
                .map(|(i, bound)| (bound, i)),
        );
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Suffix minima of the per-point bounds over the visiting order:
        // O(blocks × query points), never quadratic in the block count.
        // Until the top-k is full `kth` is +∞ and nothing can be dropped.
        let may_drop = kth.is_finite();
        suffix.clear();
        if may_drop {
            suffix.resize((order.len() + 1) * width, f64::INFINITY);
            for (j, &(_, block_idx)) in order.iter().enumerate().rev() {
                let own = &bounds[block_idx * width..(block_idx + 1) * width];
                let (row, rest) = suffix[j * width..].split_at_mut(width);
                for ((slot, &later), &lb) in row.iter_mut().zip(rest.iter()).zip(own) {
                    *slot = lb.min(later);
                }
            }
        }
        for (j, &(_, block_idx)) in order.iter().enumerate() {
            let own = &bounds[block_idx * width..(block_idx + 1) * width];
            let useful = own.iter().zip(current.iter()).any(|(&lb, &cur)| lb < cur);
            if !useful {
                continue;
            }
            if may_drop {
                // No unvisited block brings a point below its suffix
                // minimum, so this mean bounds the final distance from below.
                let rest = &suffix[j * width..(j + 1) * width];
                let lower = current
                    .iter()
                    .zip(rest)
                    .map(|(&cur, &later)| cur.min(later))
                    .sum::<f64>()
                    / width as f64;
                if lower > kth {
                    return None;
                }
            }
            let block = &blocks[block_idx];
            stats.blocks_decoded += 1;
            self.decode_stored(block, arena)
                .expect("stored blocks decode");
            for s in arena.segments() {
                for (qi, q) in query.iter().enumerate() {
                    let d = s.segment.distance_to_segment(q);
                    if d < current[qi] {
                        current[qi] = d;
                    }
                }
            }
        }
        Some(current.iter().sum::<f64>() / width as f64)
    }

    /// Brute-force kNN reference: scores every device of this shard into
    /// the running `result`, decoding every block.  Same metric and
    /// tie-breaking as [`TrajStore::knn_into`]; used to verify that pruning
    /// never changes an answer.
    pub(crate) fn bruteforce_into(&self, query: &[Point], k: usize, result: &mut KnnResult) {
        if k == 0 || query.is_empty() {
            return;
        }
        let devices: Vec<DeviceId> = self.devices().collect();
        for device in devices {
            let num_blocks = self.block_metas(device).len();
            if num_blocks == 0 {
                continue;
            }
            result.stats.devices_total += 1;
            result.stats.blocks_total += num_blocks;
            let mut current: Vec<f64> = vec![f64::INFINITY; query.len()];
            for block_idx in 0..num_blocks {
                result.stats.blocks_decoded += 1;
                self.with_block_segments(device, block_idx, |segments| {
                    for s in segments {
                        for (qi, q) in query.iter().enumerate() {
                            let d = s.segment.distance_to_segment(q);
                            if d < current[qi] {
                                current[qi] = d;
                            }
                        }
                    }
                });
            }
            let distance = current.iter().sum::<f64>() / query.len() as f64;
            push_top_k(&mut result.neighbors, k, device, distance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::DirectedSegment;
    use traj_model::{SimplifiedSegment, SimplifiedTrajectory};

    use crate::StoreConfig;

    /// A store holding `device` alone, on the polyline
    /// (0,5) → (100,5) → (1000,0) → (1100,0), one segment per block.
    fn single_device_store(device: DeviceId) -> TrajStore {
        let corners = [(0.0, 5.0), (100.0, 5.0), (1000.0, 0.0), (1100.0, 0.0)];
        let segments = corners
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let a = Point::new(w[0].0, w[0].1, i as f64 * 10.0);
                let b = Point::new(w[1].0, w[1].1, (i + 1) as f64 * 10.0);
                SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1)
            })
            .collect();
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(1));
        store
            .ingest(
                device,
                None,
                &SimplifiedTrajectory::new(segments, corners.len()),
                10.0,
            )
            .unwrap();
        store
    }

    #[test]
    fn an_equal_distance_with_a_smaller_id_displaces_the_kth_neighbour() {
        // Device 7 is searched first and device 3, on the same path, after
        // it; both end at exactly the k-th distance, so device 3 must win
        // on its id.  A `>=` in pruning or dropping would dismiss it.
        let first = single_device_store(7);
        let second = single_device_store(3);
        // At (1000,0) both distances are 0, the same as device 3's
        // metadata bound: device 3 survives pruning only under a strict
        // `>`.  With (50,0) added the tie is 2.5, which device 3's
        // running bound reaches before its last block: it survives the
        // drop only under a strict `>`.
        for query in [
            vec![Point::new(1000.0, 0.0, 0.0)],
            vec![Point::new(50.0, 0.0, 0.0), Point::new(1000.0, 0.0, 0.0)],
        ] {
            let mut reference = KnnResult::default();
            first.bruteforce_into(&query, 1, &mut reference);
            second.bruteforce_into(&query, 1, &mut reference);
            let answer = search([&first, &second], &query, 1, &mut DecodeArena::default());
            assert_eq!(answer.neighbors, reference.neighbors, "{query:?}");
            assert_eq!(answer.neighbors[0].device, 3, "{query:?}");
            assert_eq!(answer.stats.devices_pruned, 0, "{query:?}");
        }
    }

    #[test]
    fn mindist_is_zero_inside_and_euclidean_outside() {
        let bbox = BoundingBox {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 10.0,
            max_y: 10.0,
        };
        assert_eq!(mindist_point_bbox(&Point::new(5.0, 5.0, 0.0), &bbox), 0.0);
        assert_eq!(mindist_point_bbox(&Point::new(13.0, 14.0, 0.0), &bbox), 5.0);
        assert_eq!(mindist_point_bbox(&Point::new(-3.0, 5.0, 0.0), &bbox), 3.0);
    }

    #[test]
    fn top_k_orders_by_distance_then_device() {
        let mut top = Vec::new();
        push_top_k(&mut top, 2, 3, 1.0);
        push_top_k(&mut top, 2, 1, 1.0);
        push_top_k(&mut top, 2, 2, 0.5);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].device, top[0].distance), (2, 0.5));
        assert_eq!((top[1].device, top[1].distance), (1, 1.0));
    }
}
