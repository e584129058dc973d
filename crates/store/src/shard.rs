//! Concurrent sharded store: device-hashed shards, one `RwLock` each.
//!
//! [`TrajStore`] is a single-owner engine (`&mut self` ingest).  A serving
//! deployment needs ingest and queries to overlap: the pipeline keeps
//! appending freshly compressed streams while query threads read.  A
//! single global lock would serialize everything; instead the fleet is
//! partitioned by device hash into N independent shards, each its own
//! [`TrajStore`] behind its own [`RwLock`]:
//!
//! * every device lives in exactly one shard, so per-device ingest order
//!   (append-only in time) is preserved;
//! * a writer takes the *write* lock of one shard only — ingest for
//!   devices in different shards proceeds in parallel, and readers of the
//!   other N−1 shards are never blocked;
//! * a reader takes a *read* lock for the duration of its query, so it
//!   sees a consistent per-shard snapshot: sealed blocks are immutable
//!   and the shard cannot change under the query.
//!
//! Fleet-wide queries ([`ShardedStore::window_query`], [`ShardedStore::knn`],
//! [`ShardedStore::stats`]) visit shards one at a time, so their result is
//! a sequence of per-shard snapshots rather than one global snapshot —
//! the documented consistency model of the serving layer (each device's
//! data is internally consistent; cross-device results may interleave
//! with concurrent ingest).
//!
//! ```
//! use traj_geo::DirectedSegment;
//! use traj_model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
//! use traj_store::ShardedStore;
//!
//! let store = ShardedStore::with_default_config(4);
//! let trajectory = Trajectory::from_xy(&[(0.0, 0.0), (50.0, 1.0), (100.0, 0.0)]);
//! let simplified = SimplifiedTrajectory::new(
//!     vec![SimplifiedSegment::new(
//!         DirectedSegment::new(trajectory.first(), trajectory.last()),
//!         0,
//!         2,
//!     )],
//!     trajectory.len(),
//! );
//! // Note: `&store`, not `&mut store` — ingest is interior-locked.
//! store.ingest(17, &simplified, 5.0).unwrap();
//! assert_eq!(store.stats().devices, 1);
//! assert!(store.position_at(17, 1.0).is_some());
//! ```

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use traj_geo::{BoundingBox, Point};
use traj_model::SimplifiedTrajectory;
use traj_pipeline::DeviceId;

use crate::block::BlockMeta;
use crate::pager::{ArenaPool, Pager};
use crate::persist::RecoveryReport;
use crate::query::geofence::GeofenceRegistry;
use crate::query::knn::{self, KnnResult};
use crate::store::{
    MemoryStats, QueryStats, StoreConfig, StoreError, StoreStats, TimeSlice, TrajStore, WindowQuery,
};
use crate::wal::{DurabilityMode, Wal, WalReplayReport, WalStats};

/// A [`TrajStore`] partitioned into independently locked shards by device
/// hash, safe to share across ingest and query threads (`&self` API).
///
/// Opened through [`ShardedStore::open_durable`] the store additionally
/// carries a write-ahead log: every ingest is appended (and, depending on
/// [`DurabilityMode`], fsynced) *before* it is applied and acknowledged,
/// and [`ShardedStore::checkpoint`] folds the log into the main files.
#[derive(Debug)]
pub struct ShardedStore {
    config: StoreConfig,
    shards: Vec<RwLock<TrajStore>>,
    /// The write-ahead log, present only on durable stores.
    wal: Option<Arc<Wal>>,
    /// Excludes ingest (readers) from checkpointing (the writer), so no
    /// ingest can land records in a WAL segment that is about to be
    /// pruned.  Lock order is always gate → shard.
    ckpt_gate: RwLock<()>,
    /// The directory a durable store checkpoints into.
    durable_dir: Option<PathBuf>,
    /// The buffer pool all shards page disk-backed payloads through
    /// (kept here too so cache stats are reported once, not per shard).
    pager: Option<Arc<Pager>>,
    /// Standing continuous geofence queries, evaluated on the sealed
    /// metadata of every ingest (see [`crate::query::geofence`]).  On a
    /// durable store its fences/cursors persist into the store directory.
    geofences: Arc<GeofenceRegistry>,
    /// Decode arenas of fleet-wide queries that span shards (kNN).
    arenas: ArenaPool,
}

/// What [`ShardedStore::open_durable`] recovered: the main-file salvage
/// report and the WAL replay on top of it.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableReport {
    /// Recovery of the main store files (see [`RecoveryReport`]).
    pub recovery: RecoveryReport,
    /// WAL replay over the recovered store (see [`WalReplayReport`]).
    pub wal: WalReplayReport,
}

impl DurableReport {
    /// `true` when both the main files and the WAL recovered without
    /// dropping anything.
    pub fn is_clean(&self) -> bool {
        self.recovery.is_clean() && self.wal.is_clean()
    }
}

/// Mixes a device id so that sequential ids spread evenly over shards
/// (Fibonacci hashing; device ids are often 0, 1, 2, …).
#[inline]
fn mix(device: DeviceId) -> u64 {
    let mut h = device.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

impl ShardedStore {
    /// Creates an empty store with `num_shards` shards (clamped to ≥ 1).
    /// A good default is the expected ingest parallelism; shards are
    /// cheap, and more shards mean fewer writer collisions.
    pub fn new(config: StoreConfig, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Self {
            config,
            shards: (0..num_shards)
                .map(|_| RwLock::new(TrajStore::new(config)))
                .collect(),
            wal: None,
            ckpt_gate: RwLock::new(()),
            durable_dir: None,
            pager: None,
            geofences: Arc::new(GeofenceRegistry::new()),
            arenas: ArenaPool::default(),
        }
    }

    /// [`ShardedStore::new`] with the default [`StoreConfig`].
    pub fn with_default_config(num_shards: usize) -> Self {
        Self::new(StoreConfig::default(), num_shards)
    }

    /// Wraps an existing single-owner store, redistributing its blocks
    /// over `num_shards` shards (used to serve a store directory written
    /// by the offline `trajsimp store` path).
    pub fn from_store(store: TrajStore, num_shards: usize) -> Self {
        let mut sharded = Self::new(*store.config(), num_shards);
        // Blocks are *moved* into their shards — a multi-GB store must
        // not transiently double in memory while being resharded — and a
        // lazily opened store's buffer pool is shared by every shard (it
        // pages one common log file).
        let (pager, points, blocks) = store.into_stored();
        if let Some(pager) = &pager {
            for shard in &sharded.shards {
                shard
                    .write()
                    .expect("store lock poisoned")
                    .set_pager(Arc::clone(pager));
            }
        }
        sharded.pager = pager;
        for block in blocks {
            let shard = sharded.shard_of(block.meta.device);
            sharded.shards[shard]
                .write()
                .expect("store lock poisoned")
                .append_stored(block);
        }
        // The flat format records only the fleet-wide point total; keep it
        // on shard 0 — per-shard counters only ever surface summed.
        sharded.shards[0]
            .write()
            .expect("store lock poisoned")
            .set_total_points(points);
        sharded
    }

    /// Opens a store directory written by [`TrajStore::save`] (or
    /// [`ShardedStore::save`]) and shards it, with runtime configuration —
    /// the buffer-pool capacity (see
    /// [`TrajStore::open_with`]; `StoreConfig::default()` gives an
    /// unbounded pool).
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::open`].
    pub fn open_with(
        dir: &Path,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        Ok(Self::from_store(
            TrajStore::open_with(dir, config)?,
            num_shards,
        ))
    }

    /// Opens a store directory in recovery mode (see
    /// [`TrajStore::open_recover_with`]) and shards the salvaged prefix —
    /// the serving path's way back up after a crash mid-append.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::open_recover`].
    pub fn open_recover_with(
        dir: &Path,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<(Self, crate::persist::RecoveryReport), StoreError> {
        let (store, report) = TrajStore::open_recover_with(dir, config)?;
        Ok((Self::from_store(store, num_shards), report))
    }

    /// Opens (or creates) a durable store at `dir`, recovering to exactly
    /// the acknowledged state:
    ///
    /// 1. the main files are opened in recovery mode (torn checkpoint
    ///    tails truncated to the longest valid prefix);
    /// 2. the write-ahead log is replayed over them — every ingest whose
    ///    commit marker reached the log durably is re-applied exactly
    ///    once, unacknowledged tails are dropped;
    /// 3. the recovered state is checkpointed back (so a second crash
    ///    replays from a clean baseline) and a fresh WAL segment is
    ///    started, pruning the replayed ones.
    ///
    /// The store's layout parameters come from the existing manifest (or
    /// `config` when creating); `config.durability` always applies —
    /// [`DurabilityMode::None`] recovers and checkpoints but runs without
    /// a log from then on.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::open_recover`], plus [`StoreError::Corrupt`]
    /// when the WAL disagrees structurally with the main files (see
    /// [`Wal::replay`]).
    pub fn open_durable(
        dir: &Path,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<(Self, DurableReport), StoreError> {
        let (mut flat, recovery) = if dir.join("manifest.json").exists() {
            let (flat, recovery) = TrajStore::open_recover_with(dir, config)?;
            (flat, recovery)
        } else {
            // A brand-new store: persist the empty baseline immediately so
            // the first WAL segment has durable main files to anchor to.
            let flat = TrajStore::new(config);
            flat.save(dir)?;
            (
                flat,
                RecoveryReport {
                    blocks_recovered: 0,
                    manifest_blocks: 0,
                    bytes_dropped: 0,
                    dropped_reason: None,
                },
            )
        };
        let wal_report = Wal::replay(dir, &mut flat)?;
        // Fold the replayed state into the main files before touching the
        // log: once the save lands, every replayed segment is stale by its
        // base_blocks header, so a crash anywhere past this point can
        // never double-apply.
        flat.save(dir)?;
        // Re-open the just-saved baseline: WAL-replayed blocks (held
        // inline so far) become disk-backed records behind the buffer
        // pool like every other block, and the pager anchors to the fresh
        // log file.  This is pure reads, so the crash-fault injection
        // points (writes/syncs/renames) cannot fire here.
        let flat = TrajStore::open_with(dir, config)?;
        let base_blocks = flat.num_blocks();
        let wal = match config.durability {
            DurabilityMode::None => {
                // No log going forward; drop the replayed segments (they
                // are stale against the fresh checkpoint anyway).
                let wal_dir = dir.join("wal");
                if wal_dir.exists() {
                    std::fs::remove_dir_all(&wal_dir)
                        .map_err(|e| StoreError::Io(format!("remove wal directory: {e}")))?;
                }
                None
            }
            mode => {
                let mut wal = Wal::start(dir, base_blocks, mode)?;
                wal.set_replayed(&wal_report);
                Some(Arc::new(wal))
            }
        };
        let mut store = Self::from_store(flat, num_shards);
        store.config.durability = config.durability;
        store.wal = wal;
        store.durable_dir = Some(dir.to_path_buf());
        // Standing geofence queries survive the reopen: reload fences and
        // per-device cursors, then catch up — blocks that recovery applied
        // but the pre-crash process never evaluated fire their alerts now
        // (exactly once; already-evaluated ordinals stay silent).
        let geofence_path = dir.join("geofences.json");
        if geofence_path.exists() {
            store.geofences = Arc::new(GeofenceRegistry::load(&geofence_path)?);
        }
        store.geofences.set_persist_path(geofence_path);
        for device in store.devices() {
            let metas = store.block_metas(device);
            store.geofences.catch_up(device, &metas);
        }
        Ok((
            store,
            DurableReport {
                recovery,
                wal: wal_report,
            },
        ))
    }

    /// Folds everything the WAL holds into the main store files and starts
    /// a fresh WAL segment, pruning the old ones.  Ingest is excluded for
    /// the duration (the checkpoint gate), queries are not.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, or when the store was
    /// not opened through [`ShardedStore::open_durable`].
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let Some(dir) = &self.durable_dir else {
            return Err(StoreError::Io(
                "checkpoint requires a durable store (open it with open_durable)".to_string(),
            ));
        };
        let _gate = self.ckpt_gate.write().expect("checkpoint gate poisoned");
        self.save(dir)?;
        if let Some(wal) = &self.wal {
            wal.rotate(self.stats().blocks)?;
        }
        Ok(())
    }

    /// WAL counters of a durable store (`None` when the store runs
    /// without a log).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|wal| wal.stats())
    }

    /// The WAL's sync-latency histogram (`None` without a log) — the
    /// distribution behind [`WalStats::sync_p50_us`], exposable through
    /// a metrics [`traj_obs::Snapshot`] and mergeable across stores.
    pub fn wal_sync_latency(&self) -> Option<traj_obs::HistogramSnapshot> {
        self.wal.as_ref().map(|wal| wal.sync_latency_snapshot())
    }

    /// Per-shard block counts, indexed by shard — the balance view a
    /// shard-labelled metrics series reports.
    pub fn per_shard_blocks(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("store lock poisoned").stats().blocks)
            .collect()
    }

    /// Persists the store in the flat single-store format (shards are an
    /// in-memory construct; the on-disk layout stays shard-count
    /// agnostic).  Takes read locks shard by shard and serializes records
    /// directly — no merged in-memory copy, so saving never doubles the
    /// store's footprint.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::save`].
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let mut log = Vec::new();
        let mut stats = crate::store::StoreStats::default();
        for shard in &self.shards {
            let guard = shard.read().expect("store lock poisoned");
            let s = guard.stats();
            stats.devices += s.devices;
            stats.blocks += s.blocks;
            stats.segments += s.segments;
            stats.points += s.points;
            stats.stored_bytes += s.stored_bytes;
            stats.resident_bytes += s.resident_bytes;
            guard.append_log_records(&mut log)?;
        }
        crate::persist::write_store_files(dir, &self.config, &stats, &log)
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a device's data lives in.
    #[inline]
    pub fn shard_of(&self, device: DeviceId) -> usize {
        (mix(device) % self.shards.len() as u64) as usize
    }

    fn read_shard_of(&self, device: DeviceId) -> std::sync::RwLockReadGuard<'_, TrajStore> {
        self.shards[self.shard_of(device)]
            .read()
            .expect("store lock poisoned")
    }

    /// Concurrent [`TrajStore::ingest`]: write-locks only the device's
    /// shard.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::ingest`].
    pub fn ingest(
        &self,
        device: DeviceId,
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        self.ingest_impl(device, None, simplified, zeta)
    }

    /// Concurrent [`TrajStore::ingest_with_original`].
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::ingest_with_original`].
    pub fn ingest_with_original(
        &self,
        device: DeviceId,
        original: &[Point],
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        self.ingest_impl(device, Some(original), simplified, zeta)
    }

    /// The one ingest path.  On a durable store the prepared blocks go to
    /// the WAL first; only a successful (and, in group-commit mode,
    /// fsynced) append is applied and acknowledged — a failed append
    /// leaves the shard untouched, so what the caller was told always
    /// matches what recovery will reconstruct.
    fn ingest_impl(
        &self,
        device: DeviceId,
        original: Option<&[Point]>,
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        // Gate before shard, always — see `ckpt_gate`.
        let _gate = self.ckpt_gate.read().expect("checkpoint gate poisoned");
        let mut shard = self.shards[self.shard_of(device)]
            .write()
            .expect("store lock poisoned");
        let Some(prepared) = shard.prepare_ingest(device, original, simplified, zeta)? else {
            return Ok(0);
        };
        if let Some(wal) = &self.wal {
            wal.append_ingest(
                prepared.device,
                prepared.zeta,
                &prepared.blocks,
                prepared.original_len,
            )?;
        }
        // Evaluate standing geofence queries on the sealed metadata while
        // the shard write lock is still held: per-device evaluations stay
        // totally ordered, so the registry's exactly-once cursor is never
        // raced past an unevaluated block.
        let base = shard.device_block_count(device);
        let metas: Vec<BlockMeta> = prepared.blocks.iter().map(|b| b.meta).collect();
        let appended = shard.apply_prepared(prepared);
        self.geofences.on_sealed(device, base, &metas);
        Ok(appended)
    }

    /// Aggregate statistics, summed over per-shard snapshots.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = shard.read().expect("store lock poisoned").stats();
            total.devices += s.devices;
            total.blocks += s.blocks;
            total.segments += s.segments;
            total.points += s.points;
            total.stored_bytes += s.stored_bytes;
            total.resident_bytes += s.resident_bytes;
        }
        total
    }

    /// Memory accounting summed over per-shard snapshots, with the shared
    /// buffer pool's counters reported once (shards page through one
    /// pool).
    pub fn memory_stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for shard in &self.shards {
            let m = shard.read().expect("store lock poisoned").memory_stats();
            total.resident_payload_bytes += m.resident_payload_bytes;
            total.index_bytes += m.index_bytes;
            total.arena_creates += m.arena_creates;
            total.arena_reuses += m.arena_reuses;
        }
        let (arena_creates, arena_reuses) = self.arenas.counters();
        total.arena_creates += arena_creates;
        total.arena_reuses += arena_reuses;
        total.cache = self.pager.as_deref().map(Pager::stats);
        total
    }

    /// Every stored device id, ascending.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("store lock poisoned")
                    .devices()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The block metadata of one device's log (empty for unknown devices).
    pub fn block_metas(&self, device: DeviceId) -> Vec<BlockMeta> {
        self.read_shard_of(device).block_metas(device)
    }

    /// [`TrajStore::time_slice`] under the device's shard read lock — a
    /// consistent snapshot of that device's log.
    pub fn time_slice(&self, device: DeviceId, t0: f64, t1: f64) -> TimeSlice {
        self.read_shard_of(device).time_slice(device, t0, t1)
    }

    /// [`TrajStore::position_at`] under the device's shard read lock.
    pub fn position_at(&self, device: DeviceId, t: f64) -> Option<Point> {
        self.read_shard_of(device).position_at(device, t)
    }

    /// Fleet-wide [`TrajStore::window_query`], merged over per-shard
    /// snapshots (shards are visited one at a time; see the module docs
    /// for the consistency model).  Matches come back sorted by device
    /// and the skip statistics are summed.
    pub fn window_query(&self, window: &BoundingBox, time: Option<(f64, f64)>) -> WindowQuery {
        let mut merged = WindowQuery {
            matches: Vec::new(),
            stats: QueryStats::default(),
            segments_decoded: 0,
        };
        for shard in &self.shards {
            let q = shard
                .read()
                .expect("store lock poisoned")
                .window_query(window, time);
            merged.stats.blocks_in_scope += q.stats.blocks_in_scope;
            merged.stats.blocks_decoded += q.stats.blocks_decoded;
            merged.stats.segments_returned += q.stats.segments_returned;
            merged.segments_decoded += q.segments_decoded;
            merged.stats.index_candidates += q.stats.index_candidates;
            merged.matches.extend(q.matches);
        }
        merged.matches.sort_by_key(|m| m.device);
        merged
    }

    /// Fleet-wide [`TrajStore::knn`]: one best-first search whose running
    /// top-k is carried from shard to shard.  Shards are visited in order,
    /// each under its own read lock (so the answer is a sequence of
    /// per-shard snapshots, as for every fleet-wide query), and each
    /// prunes devices against the k-th distance of every shard searched
    /// before it.  One decode arena and one set of scratch buffers serve
    /// the whole query.
    pub fn knn(&self, query: &[Point], k: usize) -> KnnResult {
        let mut arena = self.arenas.checkout();
        let result = knn::search(
            self.shards
                .iter()
                .map(|shard| shard.read().expect("store lock poisoned")),
            query,
            k,
            &mut arena,
        );
        self.arenas.checkin(arena);
        knn::record_global(&result.stats);
        result
    }

    /// Fleet-wide [`TrajStore::knn_bruteforce`] — the decoded reference
    /// answer, for verification.
    pub fn knn_bruteforce(&self, query: &[Point], k: usize) -> KnnResult {
        let mut result = KnnResult::default();
        for shard in &self.shards {
            shard
                .read()
                .expect("store lock poisoned")
                .bruteforce_into(query, k, &mut result);
        }
        result
    }

    /// The store's standing-query registry (register fences, subscribe,
    /// poll alerts).
    pub fn geofences(&self) -> &Arc<GeofenceRegistry> {
        &self.geofences
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::DirectedSegment;
    use traj_model::SimplifiedSegment;

    fn line(y: f64, start_t: f64, segments: usize) -> SimplifiedTrajectory {
        let mut out = Vec::with_capacity(segments);
        for i in 0..segments {
            let t0 = start_t + i as f64 * 10.0;
            let a = Point::new(i as f64 * 100.0, y, t0);
            let b = Point::new((i + 1) as f64 * 100.0, y, t0 + 10.0);
            out.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
        }
        SimplifiedTrajectory::new(out, segments + 1)
    }

    #[test]
    fn shards_agree_with_flat_store() {
        let sharded = ShardedStore::with_default_config(4);
        let mut flat = TrajStore::default();
        for d in 0..32u64 {
            let t = line(d as f64 * 500.0, 0.0, 6);
            sharded.ingest(d, &t, 5.0).unwrap();
            flat.ingest(d, &t, 5.0).unwrap();
        }
        let (a, b) = (sharded.stats(), flat.stats());
        assert_eq!(a, b);
        assert_eq!(sharded.devices(), flat.devices().collect::<Vec<_>>());
        for d in 0..32u64 {
            assert_eq!(
                sharded.time_slice(d, 10.0, 30.0).segments,
                flat.time_slice(d, 10.0, 30.0).segments
            );
            assert_eq!(sharded.position_at(d, 25.0), flat.position_at(d, 25.0));
            assert_eq!(sharded.block_metas(d), flat.block_metas(d));
        }
        let w = BoundingBox {
            min_x: 150.0,
            min_y: 1400.0,
            max_x: 450.0,
            max_y: 3100.0,
        };
        let (qa, qb) = (sharded.window_query(&w, None), flat.window_query(&w, None));
        assert_eq!(qa.matches, qb.matches);
        assert_eq!(qa.stats.blocks_in_scope, qb.stats.blocks_in_scope);
        // A block's registration depends only on its own metadata, so the
        // per-shard candidate counts sum to the flat index's.
        assert!(qb.stats.index_candidates > 0);
        assert_eq!(qa.stats.index_candidates, qb.stats.index_candidates);
    }

    #[test]
    fn devices_spread_over_shards() {
        let sharded = ShardedStore::with_default_config(8);
        let mut used = std::collections::HashSet::new();
        for d in 0..64u64 {
            used.insert(sharded.shard_of(d));
        }
        assert!(used.len() >= 6, "sequential ids landed on {used:?}");
    }

    #[test]
    fn out_of_order_still_rejected_per_device() {
        let sharded = ShardedStore::with_default_config(3);
        sharded.ingest(9, &line(0.0, 100.0, 2), 5.0).unwrap();
        let err = sharded.ingest(9, &line(0.0, 0.0, 2), 5.0).unwrap_err();
        assert!(matches!(err, StoreError::OutOfOrder { device: 9, .. }));
    }

    #[test]
    fn from_store_and_save_roundtrip() {
        let mut flat = TrajStore::new(StoreConfig::default().with_block_segments(2));
        for d in 0..10u64 {
            flat.ingest(d, &line(d as f64 * 100.0, 0.0, 5), 7.5)
                .unwrap();
        }
        let sharded = ShardedStore::from_store(flat.clone(), 4);
        assert_eq!(sharded.stats(), flat.stats());

        let dir = std::env::temp_dir().join(format!("traj-shard-test-{}", std::process::id()));
        sharded.save(&dir).unwrap();
        let back = ShardedStore::open_with(&dir, 2, StoreConfig::default()).unwrap();
        // The reopened store is lazy: payloads live on disk, not inline.
        let want = StoreStats {
            resident_bytes: 0,
            ..flat.stats()
        };
        assert_eq!(back.stats(), want);
        for d in 0..10u64 {
            assert_eq!(
                back.time_slice(d, 0.0, 100.0).segments,
                flat.time_slice(d, 0.0, 100.0).segments
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
