//! The store: device-hashed shards, one `RwLock` each.
//!
//! [`ShardedStore`] is the crate's one store type.  A serving deployment
//! needs ingest and queries to overlap: the pipeline keeps appending
//! freshly compressed streams while query threads read.  A single global
//! lock would serialize everything; instead the fleet is partitioned by
//! device hash into N independent shards, each its own single-owner
//! engine behind its own [`RwLock`]:
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
//! The shard count is an in-memory choice: every store directory holds
//! one flat log, so a store saved at one shard count opens at any other,
//! and a one-shard store is the plain single-owner case (what
//! `trajsimp store` and `query` use).
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
//! use traj_store::{ShardedStore, StoreConfig};
//!
//! let store = ShardedStore::new(StoreConfig::default(), 4);
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
//! assert_eq!(store.time_slice(17, 0.5, 1.5).segments.len(), 1);
//! let position = store.position_at(17, 1.0).unwrap();
//! assert!(position.x > 0.0 && position.x < 100.0);
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
use crate::query::knn::{self, KnnCounters, KnnResult};
use crate::store::{
    MemoryStats, QueryStats, StoreConfig, StoreError, StoreStats, TimeSlice, TrajStore, WindowQuery,
};
use crate::wal::{DurabilityMode, Wal, WalReplayReport, WalStats};

/// The compressed trajectory store, partitioned into independently
/// locked shards by device hash and safe to share across ingest and
/// query threads (`&self` API).
///
/// Simplified trajectories are ingested per device, encoded into compact
/// binary blocks ([`traj_model::codec`]), appended to per-device logs and
/// registered in a spatio-temporal grid index.  Queries answer from the
/// compressed representation, decoding only the blocks whose metadata
/// overlaps the query.
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
    /// Totals over the kNN queries this store answered.
    knn: KnnCounters,
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
            knn: KnnCounters::default(),
        }
    }

    /// Opens a store directory written by [`ShardedStore::save`] into
    /// `num_shards` shards, rebuilding the grid index from the log.
    ///
    /// The store's layout (block size, cell size, codec) comes from the
    /// manifest; the runtime fields of `config` — block format of new
    /// ingests, durability and buffer-pool capacity — come from the
    /// caller.  Opening is **lazy**: every record is fully validated
    /// (framing, decode, metadata soundness), but only the metadata stays
    /// resident — payloads are re-read on demand through a buffer pool
    /// over the log file (`StoreConfig::default()` gives an unbounded
    /// pool; see [`StoreConfig::with_cache_bytes`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when the manifest or log fails validation.
    pub fn open_with(
        dir: &Path,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        Self::open_dir(dir, false, num_shards, config).map(|(store, _)| store)
    }

    /// [`ShardedStore::open_with`], but salvaging the longest valid prefix
    /// of the segment log instead of rejecting the whole store when the
    /// log has a torn or corrupt tail (the state a crash mid-append
    /// leaves behind) — the serving path's way back up after a crash.
    /// The returned [`RecoveryReport`] says exactly what was kept and what
    /// was dropped.
    ///
    /// The manifest itself must still be valid — it carries the codec
    /// configuration, without which no block can be interpreted — and
    /// every *recovered* block passed full decode + metadata validation,
    /// so the store never serves data it cannot vouch for.  When the tail
    /// was dropped, the fleet-wide original-point counter is re-estimated
    /// from the recovered block metadata (an upper bound: blocks of one
    /// ingest share boundary points).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when the manifest fails validation.
    pub fn open_recover_with(
        dir: &Path,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_dir(dir, true, num_shards, config)
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
    /// `config` when creating); the runtime fields of `config` always
    /// apply — [`DurabilityMode::None`] recovers and checkpoints but runs
    /// without a log from then on.
    ///
    /// # Errors
    ///
    /// As for [`ShardedStore::open_recover_with`], plus
    /// [`StoreError::Corrupt`] when the WAL disagrees structurally with
    /// the main files (see [`Wal::replay`]).
    pub fn open_durable(
        dir: &Path,
        num_shards: usize,
        config: StoreConfig,
    ) -> Result<(Self, DurableReport), StoreError> {
        let (mut store, recovery) = if dir.join("manifest.json").exists() {
            Self::open_dir(dir, true, num_shards, config)?
        } else {
            // A brand-new store: persist the empty baseline immediately so
            // the first WAL segment has durable main files to anchor to.
            let store = Self::new(config, num_shards);
            store.save(dir)?;
            let recovery = RecoveryReport {
                blocks_recovered: 0,
                manifest_blocks: 0,
                bytes_dropped: 0,
                dropped_reason: None,
            };
            (store, recovery)
        };
        let wal_report = Wal::replay(dir, &mut store)?;
        // Fold the replayed state into the main files before touching the
        // log: once the save lands, every replayed segment is stale by its
        // base_blocks header, so a crash anywhere past this point can
        // never double-apply.
        store.save(dir)?;
        // Re-open the just-saved baseline: WAL-replayed blocks (held
        // inline so far) become disk-backed records behind the buffer
        // pool like every other block, and the pager anchors to the fresh
        // log file.  This is pure reads, so the crash-fault injection
        // points (writes/syncs/renames) cannot fire here.
        let (mut store, _) = Self::open_dir(dir, false, num_shards, config)?;
        store.wal = match config.durability {
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
                let mut wal = Wal::start(dir, store.num_blocks(), mode)?;
                wal.set_replayed(&wal_report);
                Some(Arc::new(wal))
            }
        };
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

    /// The shard holding `device`, borrowed exclusively — for the open and
    /// WAL-replay paths, which own the store before anyone can query it.
    pub(crate) fn shard_mut(&mut self, device: DeviceId) -> &mut TrajStore {
        let shard = self.shard_of(device);
        self.shards[shard].get_mut().expect("store lock poisoned")
    }

    /// Finishes an open: attaches the buffer pool every shard pages its
    /// disk-backed payloads through, and records the fleet-wide point
    /// total the manifest carries.  The total goes on shard 0; per-shard
    /// counters only ever surface summed.
    pub(crate) fn attach_log(&mut self, pager: Arc<Pager>, points: usize) {
        for shard in &mut self.shards {
            shard
                .get_mut()
                .expect("store lock poisoned")
                .set_pager(Arc::clone(&pager));
        }
        self.shards[0]
            .get_mut()
            .expect("store lock poisoned")
            .set_total_points(points);
        self.pager = Some(pager);
    }

    /// Sealed blocks across all shards.
    pub(crate) fn num_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store lock poisoned").num_blocks())
            .sum()
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
            wal.rotate(self.num_blocks())?;
        }
        Ok(())
    }

    /// WAL counters of a durable store (`None` when the store runs
    /// without a log).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|wal| wal.stats())
    }

    /// Per-shard block counts, indexed by shard — the balance view a
    /// shard-labelled metrics series reports.
    pub fn per_shard_blocks(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("store lock poisoned").num_blocks())
            .collect()
    }

    /// Persists the store into `dir` (created if missing, contents
    /// overwritten) as a manifest and one flat segment log, shard after
    /// shard and device after device within a shard: shards are an
    /// in-memory construct, so the directory opens at any shard count.
    /// Takes read locks shard by shard and serializes records directly —
    /// no merged in-memory copy, so saving never doubles the store's
    /// footprint.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let mut log = Vec::new();
        let mut stats = StoreStats::default();
        for shard in &self.shards {
            let guard = shard.read().expect("store lock poisoned");
            let s = guard.stats();
            stats.add(&s);
            log.reserve(s.stored_bytes);
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
    pub(crate) fn shard_of(&self, device: DeviceId) -> usize {
        (mix(device) % self.shards.len() as u64) as usize
    }

    fn read_shard_of(&self, device: DeviceId) -> std::sync::RwLockReadGuard<'_, TrajStore> {
        self.shards[self.shard_of(device)]
            .read()
            .expect("store lock poisoned")
    }

    /// Ingests one simplified trajectory for `device`, under the error
    /// bound `zeta` it was simplified with, write-locking only the
    /// device's shard.  The representation is chopped into blocks of at
    /// most [`StoreConfig::block_segments`] segments, encoded in
    /// [`StoreConfig::format`], appended to the device's log and indexed.
    /// Returns the number of blocks appended.
    ///
    /// Block skipping metadata is derived from the shape points alone,
    /// which under-covers responsibility tails absorbed by OPERB's
    /// optimization 5; when the original points are still at hand, prefer
    /// [`ShardedStore::ingest_with_original`], whose metadata is exact.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] when the new data starts before the
    /// device's stored log ends (per-device logs are append-only in
    /// time); [`StoreError::Codec`] when a coordinate cannot be encoded;
    /// [`StoreError::Io`] when a durable store's WAL append fails (the
    /// ingest is then not applied).
    pub fn ingest(
        &self,
        device: DeviceId,
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        self.ingest_impl(device, None, simplified, zeta)
    }

    /// [`ShardedStore::ingest`], additionally extending every block's
    /// skipping metadata over the original data points the block is
    /// responsible for — the exact min/max-over-actual-data metadata the
    /// no-false-negative query guarantees rest on.  This is the path the
    /// pipeline sink uses: at ingest time the original points are still
    /// in memory and extending the metadata is a single pass over them.
    ///
    /// # Errors
    ///
    /// As for [`ShardedStore::ingest`].
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
            total.add(&shard.read().expect("store lock poisoned").stats());
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

    /// The stored segments of `device` whose *responsibility* time span
    /// overlaps `[t0, t1]`, in log order, under the device's shard read
    /// lock — a consistent snapshot of that device's log.  Only blocks
    /// whose time interval overlaps the range are decoded; scope for the
    /// skip statistics is the device's log.
    ///
    /// Every original point with a timestamp in `[t0, t1]` is within
    /// `ζ + quantization slack` of some returned segment (for data
    /// ingested through [`ShardedStore::ingest_with_original`], whose
    /// block metadata is exact).
    pub fn time_slice(&self, device: DeviceId, t0: f64, t1: f64) -> TimeSlice {
        self.read_shard_of(device).time_slice(device, t0, t1)
    }

    /// The device's position at time `t`, interpolated in time on the
    /// stored representation, or `None` when `t` falls outside the stored
    /// time coverage.  At most one block is decoded, under the device's
    /// shard read lock.
    ///
    /// The point lies on the stored piecewise line, which is within ζ
    /// (+ quantization slack) of the original trajectory in the paper's
    /// perpendicular sense; the along-track placement assumes locally
    /// uniform speed.  Inside a run absorbed by OPERB's optimization 5 the
    /// last recorded fix is returned, restamped to `t`, and can deviate
    /// beyond ζ; stores built from `raw-operb` output have no such runs.
    pub fn position_at(&self, device: DeviceId, t: f64) -> Option<Point> {
        self.read_shard_of(device).position_at(device, t)
    }

    /// Fleet-wide spatial window query, optionally restricted to a time
    /// range: which devices passed through `window`, and on which stored
    /// segments?  Candidate blocks come from each shard's grid index and
    /// only those whose metadata meets the window are decoded.  Shards are
    /// visited one at a time (see the module docs for the consistency
    /// model); matches come back sorted by device and the skip statistics
    /// (scope: every block in the store) are summed.
    ///
    /// There are no false negatives with respect to the stored bound: for
    /// data ingested through [`ShardedStore::ingest_with_original`], any
    /// original point inside the window is within `ζ + slack` of some
    /// returned segment of its device.
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

    /// k-nearest-trajectory search: the `k` devices whose stored
    /// trajectories are closest to the query point set, by mean
    /// min-distance-to-segment, ties broken by device id (see
    /// [`crate::query::knn`] for the metric and the pruning math).
    /// Devices and blocks are pruned on resident metadata alone; the
    /// distances are exactly those of [`ShardedStore::knn_bruteforce`].
    ///
    /// One best-first search whose running top-k is carried from shard
    /// to shard.  Shards are visited in order,
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
        self.knn.record(&result.stats);
        result
    }

    /// Totals over the kNN queries [`ShardedStore::knn`] answered.
    pub fn knn_counters(&self) -> &KnnCounters {
        &self.knn
    }

    /// Brute-force kNN reference: decodes every block of every device.
    /// Same metric and tie-breaking as [`ShardedStore::knn`]; used to
    /// verify that pruning never changes an answer.
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

    /// Every answer the store gives about the 32-device fleet below: the
    /// device list, then per device its log, a slice and a position, then
    /// two windows and two kNN queries.
    fn answers(store: &ShardedStore) -> String {
        let mut out = format!("{:?}\n", store.devices());
        for d in 0..32u64 {
            let slice = store.time_slice(d, 10.0, 30.0);
            out += &format!(
                "{d}: {:?} {:?} {:?} {:?}\n",
                store.block_metas(d),
                slice.segments,
                slice.stats,
                store.position_at(d, 25.0)
            );
        }
        let window = BoundingBox {
            min_x: 150.0,
            min_y: 1400.0,
            max_x: 450.0,
            max_y: 3100.0,
        };
        for time in [None, Some((0.0, 15.0))] {
            // Candidate counts are per-shard index walks; only their sum
            // is shard-count independent, and it is compared with the
            // rest of the stats.
            let q = store.window_query(&window, time);
            out += &format!("{:?} {:?}\n", q.matches, q.stats);
        }
        for probe in [
            vec![Point::new(250.0, 1600.0, 0.0)],
            vec![Point::new(0.0, 0.0, 0.0), Point::new(600.0, 9000.0, 0.0)],
        ] {
            out += &format!("{:?}\n", store.knn(&probe, 5).neighbors);
        }
        out
    }

    #[test]
    fn answers_do_not_depend_on_the_shard_count() {
        let config = StoreConfig::default().with_block_segments(2);
        let build = |shards: usize| {
            let store = ShardedStore::new(config, shards);
            for d in 0..32u64 {
                store
                    .ingest(d, &line(d as f64 * 500.0, 0.0, 6), 5.0)
                    .unwrap();
            }
            assert_eq!(store.num_shards(), shards);
            store
        };
        // Built in place at 1, 4 and 16 shards.
        let one = build(1);
        let want = answers(&one);
        assert_eq!(one.stats().blocks, 96);
        for shards in [4, 16] {
            let store = build(shards);
            assert_eq!(store.stats(), one.stats(), "{shards} shards");
            assert_eq!(answers(&store), want, "{shards} shards");
        }

        // Saved at 16 shards, reopened at 1 and at 4: the directory is
        // shard-count agnostic.  A reopened store is lazy, so its
        // payloads live on disk, not inline.
        let dir = std::env::temp_dir().join(format!("traj-shard-test-{}", std::process::id()));
        build(16).save(&dir).unwrap();
        let lazy = StoreStats {
            resident_bytes: 0,
            ..one.stats()
        };
        for shards in [1, 4] {
            let back = ShardedStore::open_with(&dir, shards, StoreConfig::default()).unwrap();
            assert_eq!(back.num_shards(), shards);
            assert_eq!(back.stats(), lazy, "reopened at {shards}");
            assert_eq!(answers(&back), want, "reopened at {shards}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn devices_spread_over_shards() {
        let sharded = ShardedStore::new(StoreConfig::default(), 8);
        let mut used = std::collections::HashSet::new();
        for d in 0..64u64 {
            used.insert(sharded.shard_of(d));
        }
        assert!(used.len() >= 6, "sequential ids landed on {used:?}");
    }

    #[test]
    fn out_of_order_still_rejected_per_device() {
        let sharded = ShardedStore::new(StoreConfig::default(), 3);
        sharded.ingest(9, &line(0.0, 100.0, 2), 5.0).unwrap();
        let err = sharded.ingest(9, &line(0.0, 0.0, 2), 5.0).unwrap_err();
        assert!(matches!(err, StoreError::OutOfOrder { device: 9, .. }));
    }
}
