//! The storage engine: per-device segment logs + grid index + queries.

use std::collections::BTreeMap;
use std::sync::Arc;

use traj_geo::{BoundingBox, Point};
use traj_model::codec::{BlockFormat, CodecError, DecodeArena, SegmentCodec};
use traj_model::{SimplifiedSegment, SimplifiedTrajectory};
use traj_pipeline::DeviceId;

use crate::block::{expanded_intersects, write_record_header, Block, BlockMeta, META_RECORD_BYTES};
use crate::index::{BlockRef, GridIndex};
use crate::pager::{ArenaPool, CacheStats, Pager};
use crate::wal::DurabilityMode;

/// Tuning knobs of a [`TrajStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Maximum number of segments per sealed block.  Smaller blocks skip
    /// more precisely but pay more per-block metadata; 64 segments ≈ a few
    /// hundred bytes of payload.
    pub block_segments: usize,
    /// Edge length of the spatial grid cells, in the coordinate unit
    /// (meters).
    pub cell_size: f64,
    /// The binary codec (quantization resolutions) blocks are encoded
    /// with.
    pub codec: SegmentCodec,
    /// The payload format **new** ingests are encoded in.  Decoding
    /// always dispatches on each block's own format tag, so a store may
    /// hold a mix of formats and changing this setting never invalidates
    /// existing blocks.
    pub format: BlockFormat,
    /// How live ingest is made durable (see [`DurabilityMode`]).  A
    /// runtime policy, not part of the on-disk format — it is never
    /// persisted in the manifest, and a store written under one mode
    /// opens under any other.
    pub durability: DurabilityMode,
    /// Capacity of the payload buffer pool an opened store reads through
    /// (`None` = unbounded: every fetched payload stays cached, matching
    /// the old fully-resident behavior).  Like `durability`, a runtime
    /// policy — never persisted, and it does not affect query results,
    /// only which payloads are resident at a given moment.
    pub cache_bytes: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            block_segments: 64,
            cell_size: 500.0,
            codec: SegmentCodec::default(),
            format: BlockFormat::default(),
            durability: DurabilityMode::None,
            cache_bytes: None,
        }
    }
}

impl StoreConfig {
    /// Overrides the block size (clamped to at least 1 segment).
    pub fn with_block_segments(mut self, block_segments: usize) -> Self {
        self.block_segments = block_segments.max(1);
        self
    }

    /// Overrides the grid cell size.
    pub fn with_cell_size(mut self, cell_size: f64) -> Self {
        assert!(cell_size.is_finite() && cell_size > 0.0);
        self.cell_size = cell_size;
        self
    }

    /// Overrides the codec.
    pub fn with_codec(mut self, codec: SegmentCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Overrides the block format used for new ingests.
    pub fn with_format(mut self, format: BlockFormat) -> Self {
        self.format = format;
        self
    }

    /// Overrides the durability mode.
    pub fn with_durability(mut self, durability: DurabilityMode) -> Self {
        self.durability = durability;
        self
    }

    /// Bounds the payload buffer pool (`None` = unbounded).
    pub fn with_cache_bytes(mut self, cache_bytes: Option<usize>) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }
}

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An ingest for a device starts before the device's last stored
    /// block ends — per-device logs are append-only in time.
    OutOfOrder {
        /// The violating device.
        device: DeviceId,
        /// Start time of the rejected ingest.
        t_new: f64,
        /// End time of the device's latest stored block.
        t_last: f64,
    },
    /// The binary codec rejected the data.
    Codec(CodecError),
    /// Filesystem failure while persisting or opening a store.
    Io(String),
    /// A persisted store failed validation while being opened.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfOrder {
                device,
                t_new,
                t_last,
            } => write!(
                f,
                "out-of-order ingest for device {device}: starts at t={t_new}, log ends at t={t_last}"
            ),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Io(msg) => write!(f, "i/o error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Decode accounting attached to every query result: how much of the
/// store the query *could* have touched versus how much it actually
/// decoded.  The skip ratio is the data-skipping payoff.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryStats {
    /// Blocks in scope for the query (the device's log for per-device
    /// queries, the whole store for fleet-wide ones).
    pub blocks_in_scope: usize,
    /// Blocks whose payload was decoded.
    pub blocks_decoded: usize,
    /// Segments returned to the caller.
    pub segments_returned: usize,
    /// Blocks the grid index returned as candidates for a window query,
    /// before the precise metadata check (0 for per-device queries, which
    /// do not consult the index).
    pub index_candidates: usize,
}

impl QueryStats {
    /// Fraction of in-scope blocks that were skipped without decoding
    /// (1.0 = everything skipped, 0.0 = full scan).
    pub fn skip_ratio(&self) -> f64 {
        if self.blocks_in_scope == 0 {
            return 0.0;
        }
        1.0 - self.blocks_decoded as f64 / self.blocks_in_scope as f64
    }
}

/// Result of a per-device time-range slice.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSlice {
    /// The stored segments whose time span overlaps the queried range, in
    /// log order.
    pub segments: Vec<SimplifiedSegment>,
    /// Decode accounting (scope: the device's log).
    pub stats: QueryStats,
    /// Segments the decoded blocks held; see
    /// [`WindowQuery::segments_decoded`].
    pub segments_decoded: usize,
}

/// One device's contribution to a spatial window query.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMatch {
    /// The matching device.
    pub device: DeviceId,
    /// Stored segments that may pass through the window (each within
    /// ζ + quantization slack of it), in log order.
    pub segments: Vec<SimplifiedSegment>,
}

/// Result of a fleet-wide spatial window query.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowQuery {
    /// Per-device matches, sorted by device id.
    pub matches: Vec<DeviceMatch>,
    /// Decode accounting (scope: every block in the store).
    pub stats: QueryStats,
    /// Segments the decoded blocks held, returned or not.  Blocks decode
    /// whole, so this minus `stats.segments_returned` is the decode work
    /// the query threw away.  It sits beside [`QueryStats`], not in it:
    /// callers that keep the stats of every query (perfbench keeps one
    /// per operation) would otherwise pay for it each time.
    pub segments_decoded: usize,
}

/// Aggregate store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreStats {
    /// Number of device streams.
    pub devices: usize,
    /// Number of sealed blocks.
    pub blocks: usize,
    /// Number of stored segments.
    pub segments: usize,
    /// Number of original trajectory points the stored representations
    /// are responsible for.
    pub points: usize,
    /// Stored bytes (payloads plus nominal per-block metadata).  For a
    /// lazily opened store this counts on-disk record sizes, not memory.
    pub stored_bytes: usize,
    /// Exact payload bytes held *inline* in the store (freshly ingested,
    /// not yet checkpointed blocks).  Disk-backed payloads served through
    /// the buffer pool are accounted in
    /// [`crate::pager::CacheStats::resident_bytes`] instead.
    pub resident_bytes: usize,
}

impl StoreStats {
    /// Stored bytes per original point (the paper's storage argument in
    /// one number; raw `(x, y, t)` as three `f64` is 24 bytes/point).
    pub fn bytes_per_point(&self) -> f64 {
        if self.points == 0 {
            return 0.0;
        }
        self.stored_bytes as f64 / self.points as f64
    }

    /// How many times smaller the store is than the raw 24-byte/point
    /// representation of the original data.
    pub fn compression_factor(&self) -> f64 {
        let raw = self.points as f64 * 24.0;
        if self.stored_bytes == 0 {
            return 0.0;
        }
        raw / self.stored_bytes as f64
    }
}

/// Exact memory accounting of a store, beyond the logical counters of
/// [`StoreStats`]: where the bytes actually are (inline, cached, index)
/// and how well the reuse machinery is doing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryStats {
    /// Payload bytes held inline (same as [`StoreStats::resident_bytes`]).
    pub resident_payload_bytes: usize,
    /// Approximate heap footprint of the grid index.
    pub index_bytes: usize,
    /// Decode arenas allocated by queries.
    pub arena_creates: u64,
    /// Queries that reused a pooled decode arena instead of allocating.
    pub arena_reuses: u64,
    /// Buffer-pool counters (`None` for a purely in-memory store that has
    /// no disk-backed payloads to page).
    pub cache: Option<CacheStats>,
}

/// Where a stored block's payload bytes live.
#[derive(Debug, Clone)]
pub(crate) enum PayloadSlot {
    /// Held inline — freshly ingested (or WAL-replayed) blocks that have
    /// no on-disk home yet.  Never evicted.
    Resident(Vec<u8>),
    /// A record in the store's `segments.log`, fetched on demand through
    /// the buffer pool.
    Disk {
        /// Byte offset of the payload within the log file.
        offset: u64,
        /// Payload length.
        len: u32,
    },
}

/// A sealed block as the store holds it: metadata always resident,
/// payload either inline or on disk behind the pager.
#[derive(Debug, Clone)]
pub(crate) struct StoredBlock {
    pub(crate) meta: BlockMeta,
    pub(crate) format: BlockFormat,
    pub(crate) payload: PayloadSlot,
}

impl StoredBlock {
    fn from_block(block: Block) -> Self {
        Self {
            meta: block.meta,
            format: block.format,
            payload: PayloadSlot::Resident(block.payload),
        }
    }

    fn payload_len(&self) -> usize {
        match &self.payload {
            PayloadSlot::Resident(bytes) => bytes.len(),
            PayloadSlot::Disk { len, .. } => *len as usize,
        }
    }

    /// Approximate storage footprint: payload plus the serialized
    /// metadata record (the counterpart of [`Block::stored_bytes`]).
    fn stored_bytes(&self) -> usize {
        self.payload_len() + META_RECORD_BYTES
    }
}

/// A device's append-only block log.
#[derive(Debug, Clone, Default)]
struct DeviceLog {
    blocks: Vec<StoredBlock>,
}

/// A fully validated, encoded ingest that has not been applied yet — the
/// unit the durable path logs to the WAL before mutating the store.
#[derive(Debug, Clone)]
pub(crate) struct PreparedIngest {
    /// The target device.
    pub(crate) device: DeviceId,
    /// The error bound recorded on every block.
    pub(crate) zeta: f64,
    /// The sealed, encoded blocks in append order.
    pub(crate) blocks: Vec<Block>,
    /// Original points this ingest is responsible for.
    pub(crate) original_len: usize,
}

/// The compressed trajectory storage engine.
///
/// Simplified trajectories are ingested per device, encoded into compact
/// binary blocks ([`traj_model::codec`]), appended to per-device logs and
/// registered in a spatio-temporal grid index.  Queries answer from the
/// compressed representation, decoding only the blocks whose metadata
/// overlaps the query — every block that can be proven irrelevant from
/// its bounding box and time interval is skipped.
///
/// ```
/// use traj_geo::DirectedSegment;
/// use traj_model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
/// use traj_store::TrajStore;
///
/// let trajectory = Trajectory::from_xy(&[(0.0, 0.0), (50.0, 1.0), (100.0, 0.0)]);
/// let simplified = SimplifiedTrajectory::new(
///     vec![SimplifiedSegment::new(
///         DirectedSegment::new(trajectory.first(), trajectory.last()),
///         0,
///         2,
///     )],
///     trajectory.len(),
/// );
///
/// let mut store = TrajStore::default();
/// store.ingest(17, &simplified, 5.0).unwrap();
///
/// let slice = store.time_slice(17, 0.5, 1.5);
/// assert_eq!(slice.segments.len(), 1);
/// let position = store.position_at(17, 1.0).unwrap();
/// assert!(position.x > 0.0 && position.x < 100.0);
/// ```
#[derive(Debug)]
pub struct TrajStore {
    config: StoreConfig,
    logs: BTreeMap<DeviceId, DeviceLog>,
    index: GridIndex,
    /// The buffer pool disk-backed payloads are fetched through.  `None`
    /// for purely in-memory stores (everything resident); shared across
    /// shards of one [`crate::ShardedStore`].
    pager: Option<Arc<Pager>>,
    /// Reusable decode scratch for queries.
    arenas: ArenaPool,
    total_blocks: usize,
    total_segments: usize,
    total_points: usize,
    stored_bytes: usize,
    resident_payload_bytes: usize,
}

impl Clone for TrajStore {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            logs: self.logs.clone(),
            index: self.index.clone(),
            // The clone pages through the same pool (same underlying log
            // file) but warms its own arena pool.
            pager: self.pager.clone(),
            arenas: ArenaPool::default(),
            total_blocks: self.total_blocks,
            total_segments: self.total_segments,
            total_points: self.total_points,
            stored_bytes: self.stored_bytes,
            resident_payload_bytes: self.resident_payload_bytes,
        }
    }
}

impl Default for TrajStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl TrajStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        let index = GridIndex::new(config.cell_size);
        Self {
            config,
            logs: BTreeMap::new(),
            index,
            pager: None,
            arenas: ArenaPool::default(),
            total_blocks: 0,
            total_segments: 0,
            total_points: 0,
            stored_bytes: 0,
            resident_payload_bytes: 0,
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Switches the block format used for *subsequent* ingests.  Existing
    /// blocks keep the format they were written with (each block record
    /// carries its own format tag), so a store may legitimately hold a
    /// mix of formats — e.g. after changing the configured default on an
    /// archive that already has data.
    pub fn set_format(&mut self, format: BlockFormat) {
        self.config.format = format;
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            devices: self.logs.len(),
            blocks: self.total_blocks,
            segments: self.total_segments,
            points: self.total_points,
            stored_bytes: self.stored_bytes,
            resident_bytes: self.resident_payload_bytes,
        }
    }

    /// Exact memory accounting: inline payload bytes, index footprint,
    /// decode-arena reuse and (for lazily opened stores) buffer-pool
    /// counters.
    pub fn memory_stats(&self) -> MemoryStats {
        let (arena_creates, arena_reuses) = self.arenas.counters();
        MemoryStats {
            resident_payload_bytes: self.resident_payload_bytes,
            index_bytes: self.index.approx_bytes(),
            arena_creates,
            arena_reuses,
            cache: self.pager.as_deref().map(Pager::stats),
        }
    }

    /// The device ids present in the store, ascending.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.logs.keys().copied()
    }

    /// Number of sealed blocks across all devices.
    pub fn num_blocks(&self) -> usize {
        self.total_blocks
    }

    /// The block metadata of one device's log, in append order (empty for
    /// unknown devices).
    pub fn block_metas(&self, device: DeviceId) -> Vec<BlockMeta> {
        self.logs
            .get(&device)
            .map(|log| log.blocks.iter().map(|b| b.meta).collect())
            .unwrap_or_default()
    }

    /// Number of sealed blocks in `device`'s log (0 for unknown devices).
    pub fn device_block_count(&self, device: DeviceId) -> usize {
        self.logs.get(&device).map_or(0, |log| log.blocks.len())
    }

    /// Every device's stored blocks, borrowed, in device order.
    pub(crate) fn device_blocks(
        &self,
    ) -> impl ExactSizeIterator<Item = (DeviceId, &[StoredBlock])> + '_ {
        self.logs
            .iter()
            .map(|(&device, log)| (device, log.blocks.as_slice()))
    }

    /// One device's stored blocks, borrowed (empty for unknown devices).
    pub(crate) fn device_log(&self, device: DeviceId) -> &[StoredBlock] {
        self.logs
            .get(&device)
            .map_or(&[], |log| log.blocks.as_slice())
    }

    /// Runs `f` with one pooled decode arena.
    pub(crate) fn with_arena<R>(&self, f: impl FnOnce(&mut DecodeArena) -> R) -> R {
        let mut arena = self.arenas.checkout();
        let out = f(&mut arena);
        self.arenas.checkin(arena);
        out
    }

    /// Runs `f` over the decoded segments of one stored block (by its
    /// ordinal in the device's log), through a pooled arena.  Returns
    /// `None` for an unknown device or block.
    pub(crate) fn with_block_segments<R>(
        &self,
        device: DeviceId,
        block: usize,
        f: impl FnOnce(&[SimplifiedSegment]) -> R,
    ) -> Option<R> {
        let stored = self.logs.get(&device)?.blocks.get(block)?;
        let mut arena = self.arenas.checkout();
        self.decode_stored(stored, &mut arena)
            .expect("stored blocks decode");
        let out = f(arena.segments());
        self.arenas.checkin(arena);
        Some(out)
    }

    /// Ingests one simplified trajectory for `device`, under the error
    /// bound `zeta` it was simplified with.  The representation is chopped
    /// into blocks of at most [`StoreConfig::block_segments`] segments,
    /// encoded, appended to the device's log and indexed.  Returns the
    /// number of blocks appended.
    ///
    /// Block skipping metadata is derived from the shape points alone,
    /// which under-covers responsibility tails absorbed by OPERB's
    /// optimization 5; when the original points are still at hand, prefer
    /// [`TrajStore::ingest_with_original`], whose metadata is exact.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] when the new data starts before the
    /// device's stored log ends (per-device logs are append-only in
    /// time); [`StoreError::Codec`] when a coordinate cannot be encoded.
    pub fn ingest(
        &mut self,
        device: DeviceId,
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        self.ingest_impl(device, None, simplified, zeta)
    }

    /// [`TrajStore::ingest`], additionally extending every block's
    /// skipping metadata over the original data points the block is
    /// responsible for — the exact min/max-over-actual-data metadata the
    /// no-false-negative query guarantees rest on.  This is the path the
    /// pipeline sink uses: at ingest time the original points are still
    /// in memory and extending the metadata is a single pass over them.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::ingest`].
    pub fn ingest_with_original(
        &mut self,
        device: DeviceId,
        original: &[Point],
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        self.ingest_impl(device, Some(original), simplified, zeta)
    }

    fn ingest_impl(
        &mut self,
        device: DeviceId,
        original: Option<&[Point]>,
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<usize, StoreError> {
        match self.prepare_ingest(device, original, simplified, zeta)? {
            Some(prepared) => Ok(self.apply_prepared(prepared)),
            None => Ok(0),
        }
    }

    /// The validation + encoding half of an ingest, without mutating the
    /// store: checks append order, chops into blocks, encodes payloads and
    /// seals metadata.  `None` for an empty trajectory (a no-op ingest).
    ///
    /// The split exists for the durable path: the sharded store prepares,
    /// writes the prepared blocks to the write-ahead log, and only then
    /// applies — so an ingest whose WAL append fails is never applied,
    /// and an applied ingest is always recoverable.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::ingest`].
    pub(crate) fn prepare_ingest(
        &self,
        device: DeviceId,
        original: Option<&[Point]>,
        simplified: &SimplifiedTrajectory,
        zeta: f64,
    ) -> Result<Option<PreparedIngest>, StoreError> {
        let segments = simplified.segments();
        if segments.is_empty() {
            return Ok(None);
        }
        let t_new = segments
            .iter()
            .map(|s| s.segment.start.t.min(s.segment.end.t))
            .fold(f64::INFINITY, f64::min);
        if let Some(log) = self.logs.get(&device) {
            if let Some(last) = log.blocks.last() {
                if t_new < last.meta.t_max {
                    return Err(StoreError::OutOfOrder {
                        device,
                        t_new,
                        t_last: last.meta.t_max,
                    });
                }
            }
        }
        let slack = self.config.codec.spatial_slack();
        let mut blocks = Vec::new();
        for chunk in segments.chunks(self.config.block_segments) {
            // The chunk is encoded as a stand-alone representation; its
            // responsibility indices stay absolute within the source
            // trajectory so a later reconstruction can line blocks up.
            let fragment = SimplifiedTrajectory::new(
                chunk.to_vec(),
                chunk.last().expect("chunks are non-empty").last_index + 1,
            );
            let mut payload = self
                .config
                .codec
                .encode_block(self.config.format, &fragment)?;
            // The encoder reserves a size guess and grows past it; a
            // resident payload lives as long as the store, so keep only
            // its bytes.
            payload.shrink_to_fit();
            let mut meta = BlockMeta::from_segments(device, chunk, zeta, slack);
            if let Some(points) = original {
                meta.extend_with_points(points);
            }
            blocks.push(Block {
                meta,
                format: self.config.format,
                payload,
            });
        }
        Ok(Some(PreparedIngest {
            device,
            zeta,
            blocks,
            original_len: simplified.original_len(),
        }))
    }

    /// The mutation half of an ingest: appends a prepared ingest's sealed
    /// blocks and accounts its points.  Infallible — every check happened
    /// in [`TrajStore::prepare_ingest`].  Returns the number of blocks
    /// appended.
    pub(crate) fn apply_prepared(&mut self, prepared: PreparedIngest) -> usize {
        let appended = prepared.blocks.len();
        for block in prepared.blocks {
            self.append_block(block);
        }
        self.total_points += prepared.original_len;
        appended
    }

    /// Appends an already-sealed block with its payload inline (ingest
    /// and WAL replay share this path).  Does **not** touch the point
    /// counter.
    pub(crate) fn append_block(&mut self, block: Block) {
        self.append_stored(StoredBlock::from_block(block));
    }

    /// Appends a block whose payload stays on disk, to be fetched through
    /// the store's pager (the lazy open path).
    pub(crate) fn append_block_from_disk(
        &mut self,
        meta: BlockMeta,
        format: BlockFormat,
        offset: u64,
        len: u32,
    ) {
        self.append_stored(StoredBlock {
            meta,
            format,
            payload: PayloadSlot::Disk { offset, len },
        });
    }

    pub(crate) fn append_stored(&mut self, block: StoredBlock) {
        let device = block.meta.device;
        let log = self.logs.entry(device).or_default();
        self.index.insert(
            BlockRef {
                device,
                block: log.blocks.len(),
            },
            &block.meta,
        );
        self.total_blocks += 1;
        self.total_segments += block.meta.num_segments;
        self.stored_bytes += block.stored_bytes();
        if let PayloadSlot::Resident(bytes) = &block.payload {
            self.resident_payload_bytes += bytes.len();
        }
        log.blocks.push(block);
    }

    /// Attaches the buffer pool disk-backed payloads are fetched through
    /// (persistence loader and resharding).
    pub(crate) fn set_pager(&mut self, pager: Arc<Pager>) {
        self.pager = Some(pager);
    }

    /// Restores the original-point counter (persistence loader only).
    pub(crate) fn set_total_points(&mut self, points: usize) {
        self.total_points = points;
    }

    /// Adds to the original-point counter (WAL replay, which re-applies
    /// committed ingests block by block).
    pub(crate) fn add_total_points(&mut self, points: usize) {
        self.total_points += points;
    }

    /// Iterates every stored block in (device, append-order) order —
    /// persistence and diagnostics.
    pub(crate) fn stored_blocks(&self) -> impl Iterator<Item = &StoredBlock> + '_ {
        self.logs.values().flat_map(|log| log.blocks.iter())
    }

    /// Materializes one stored block (fetching a disk-backed payload
    /// through the pager, bypassing the cache).
    #[cfg(test)]
    pub(crate) fn materialize(&self, block: &StoredBlock) -> Result<Block, StoreError> {
        let payload = match &block.payload {
            PayloadSlot::Resident(bytes) => bytes.clone(),
            PayloadSlot::Disk { offset, len } => self
                .pager
                .as_ref()
                .expect("disk-backed block without a pager")
                .read_raw(*offset, *len)?,
        };
        Ok(Block {
            meta: block.meta,
            format: block.format,
            payload,
        })
    }

    /// Every block in (device, append-order) order, payloads materialized
    /// — diagnostics and format-migration paths, not queries.
    #[cfg(test)]
    pub(crate) fn blocks_materialized(&self) -> Result<Vec<Block>, StoreError> {
        self.stored_blocks().map(|b| self.materialize(b)).collect()
    }

    /// Serializes every block as log records onto `out` in (device,
    /// append-order) order — the save path.  Disk-backed payloads are
    /// streamed straight from the log file without entering the cache.
    pub(crate) fn append_log_records(&self, out: &mut Vec<u8>) -> Result<(), StoreError> {
        for block in self.stored_blocks() {
            write_record_header(&block.meta, block.format, block.payload_len(), out);
            match &block.payload {
                PayloadSlot::Resident(bytes) => out.extend_from_slice(bytes),
                PayloadSlot::Disk { offset, len } => {
                    let bytes = self
                        .pager
                        .as_ref()
                        .expect("disk-backed block without a pager")
                        .read_raw(*offset, *len)?;
                    out.extend_from_slice(&bytes);
                }
            }
        }
        Ok(())
    }

    /// Consumes the store, yielding every block in (device, append-order)
    /// order, materializing payloads — kept for tests that re-pack
    /// in-memory stores.
    #[cfg(test)]
    pub(crate) fn into_blocks(self) -> impl Iterator<Item = Block> {
        let blocks = self
            .blocks_materialized()
            .expect("materialize store blocks");
        blocks.into_iter()
    }

    /// Consumes the store, yielding its pager, point counter and every
    /// stored block in (device, append-order) order without copying
    /// payloads — the resharding path.
    pub(crate) fn into_stored(
        self,
    ) -> (Option<Arc<Pager>>, usize, impl Iterator<Item = StoredBlock>) {
        (
            self.pager,
            self.total_points,
            self.logs.into_values().flat_map(|log| log.blocks),
        )
    }

    /// Decodes a stored block into a reusable arena, dispatching on the
    /// block's own format tag (stores may mix formats).  Disk-backed
    /// payloads come through the buffer pool; the fetched `Arc` pins the
    /// bytes for the duration of the decode, so a concurrent eviction can
    /// never free them under the decoder.
    pub(crate) fn decode_stored(
        &self,
        block: &StoredBlock,
        arena: &mut DecodeArena,
    ) -> Result<(), StoreError> {
        let mut span = traj_obs::span("decode");
        span.attr("format", block.format.name());
        match &block.payload {
            PayloadSlot::Resident(bytes) => {
                span.attr("bytes", bytes.len());
                Ok(self
                    .config
                    .codec
                    .decode_block_into(block.format, bytes, arena)?)
            }
            PayloadSlot::Disk { offset, len } => {
                span.attr("bytes", *len);
                let pinned = self
                    .pager
                    .as_ref()
                    .expect("disk-backed block without a pager")
                    .fetch(*offset, *len)?;
                Ok(self
                    .config
                    .codec
                    .decode_block_into(block.format, &pinned, arena)?)
            }
        }
    }

    /// The stored segments of `device` whose *responsibility* time span
    /// overlaps `[t0, t1]`.  Only blocks whose time interval overlaps the
    /// range are decoded; scope for the skip statistics is the device's
    /// log.
    ///
    /// The stored error bound carries through: every original point with
    /// a timestamp in `[t0, t1]` is within `ζ + quantization slack` of
    /// some returned segment (for data ingested through
    /// [`TrajStore::ingest_with_original`], whose block metadata is
    /// exact).
    pub fn time_slice(&self, device: DeviceId, t0: f64, t1: f64) -> TimeSlice {
        let mut query_span = traj_obs::span("time_slice");
        let mut slice = TimeSlice {
            segments: Vec::new(),
            stats: QueryStats::default(),
            segments_decoded: 0,
        };
        let Some(log) = self.logs.get(&device) else {
            return slice;
        };
        slice.stats.blocks_in_scope = log.blocks.len();
        // One pooled arena for the whole query: every decoded block
        // reuses its allocations, and repeated queries reuse the arena.
        let mut arena = self.arenas.checkout();
        // Blocks are time-ordered: binary search to the first candidate,
        // stop at the first block past the range.
        let start = {
            let mut seek = traj_obs::span("index_walk");
            seek.attr("scope", "device_log");
            log.blocks.partition_point(|b| b.meta.t_max < t0)
        };
        for block in &log.blocks[start..] {
            if block.meta.t_min > t1 {
                break;
            }
            slice.stats.blocks_decoded += 1;
            self.decode_stored(block, &mut arena)
                .expect("stored blocks decode");
            let segments = arena.segments();
            slice.segments_decoded += segments.len();
            for (j, s) in segments.iter().enumerate() {
                let (lo, _) = time_span(s);
                let hi = effective_t_hi(segments, j, &block.meta);
                if lo <= t1 && t0 <= hi {
                    slice.segments.push(*s);
                }
            }
        }
        self.arenas.checkin(arena);
        slice.stats.segments_returned = slice.segments.len();
        query_span.attr("blocks_decoded", slice.stats.blocks_decoded);
        slice
    }

    /// Fleet-wide spatial window query, optionally restricted to a time
    /// range: which devices passed through `window`, and on which stored
    /// segments?
    ///
    /// Candidate blocks come from the grid index; each candidate is
    /// re-checked against its precise metadata and only survivors are
    /// decoded (scope for the skip statistics: every block in the store).
    /// A decoded segment is returned when its endpoint box, expanded by
    /// `ζ + quantization slack`, meets the window.  A segment that also
    /// owns points past its end (an absorbing one) is returned, too, when
    /// its own ζ-strip meets the block's exact box inside the window
    /// (see `strip_hits`).  So for data ingested through
    /// [`TrajStore::ingest_with_original`] any original point inside the
    /// window is within `ζ + slack` of some returned segment of its
    /// device — no false negatives with respect to the stored bound —
    /// and the answer grows with the window, not with the block size.
    pub fn window_query(&self, window: &BoundingBox, time: Option<(f64, f64)>) -> WindowQuery {
        let mut query_span = traj_obs::span("window_query");
        let mut query = WindowQuery {
            matches: Vec::new(),
            stats: QueryStats {
                blocks_in_scope: self.total_blocks,
                ..QueryStats::default()
            },
            segments_decoded: 0,
        };
        let mut current: Option<DeviceMatch> = None;
        let mut arena = self.arenas.checkout();
        let candidates = self.index.candidates(window);
        query.stats.index_candidates = candidates.len();
        for candidate in candidates {
            let block = &self.logs[&candidate.device].blocks[candidate.block];
            if !block.meta.may_intersect_window(window)
                || time.is_some_and(|(t0, t1)| !block.meta.overlaps_time(t0, t1))
            {
                continue;
            }
            query.stats.blocks_decoded += 1;
            self.decode_stored(block, &mut arena)
                .expect("stored blocks decode");
            let radius = block.meta.slack_radius();
            let segments = arena.segments();
            query.segments_decoded += segments.len();
            for (j, s) in segments.iter().enumerate() {
                // Absorbing segments are also responsible for points past
                // their end, which the endpoint box cannot see; those
                // points lie in the segment's ζ-strip.
                let hit = expanded_intersects(&endpoint_bbox(s), radius, window)
                    || (is_absorbing(segments, j, &block.meta)
                        && strip_hits(s, &block.meta, window));
                if !hit {
                    continue;
                }
                if let Some((t0, t1)) = time {
                    let (lo, _) = time_span(s);
                    let hi = effective_t_hi(segments, j, &block.meta);
                    if lo > t1 || t0 > hi {
                        continue;
                    }
                }
                // Candidates arrive sorted by (device, block), so equal
                // devices are adjacent.
                match &mut current {
                    Some(m) if m.device == candidate.device => m.segments.push(*s),
                    _ => {
                        if let Some(done) = current.take() {
                            query.matches.push(done);
                        }
                        current = Some(DeviceMatch {
                            device: candidate.device,
                            segments: vec![*s],
                        });
                    }
                }
            }
        }
        if let Some(done) = current.take() {
            query.matches.push(done);
        }
        self.arenas.checkin(arena);
        query.stats.segments_returned = query.matches.iter().map(|m| m.segments.len()).sum();
        query_span.attr("blocks_decoded", query.stats.blocks_decoded);
        query
    }

    /// The device's position at time `t`, interpolated in time on the
    /// stored representation, or `None` when `t` falls outside the
    /// stored time coverage.  At most one block is decoded.
    ///
    /// The returned point lies on the stored piecewise line, which is
    /// within the stored error bound ζ (+ quantization slack) of the
    /// original trajectory in the perpendicular sense of the paper's
    /// error definition; the along-track placement assumes locally
    /// uniform speed (`t` is mapped linearly between the segment's
    /// endpoint timestamps).  Timestamps inside an attributed-but-not-
    /// fitted run (absorbed tails) return the last recorded fix,
    /// restamped to the queried instant.
    ///
    /// Caveat: inside a run absorbed by OPERB's optimization 5 the
    /// compressed representation no longer records *where along the
    /// absorber's line* the device was at a given instant, so the
    /// interpolated position can deviate beyond ζ there.  Stores built
    /// from `raw-operb` output (optimization 5 off) do not have such
    /// runs and interpolate within the bound everywhere.
    pub fn position_at(&self, device: DeviceId, t: f64) -> Option<Point> {
        let _query_span = traj_obs::span("position_at");
        let log = self.logs.get(&device)?;
        let idx = {
            let mut seek = traj_obs::span("index_walk");
            seek.attr("scope", "device_log");
            log.blocks.partition_point(|b| b.meta.t_max < t)
        };
        let block = log.blocks.get(idx)?;
        if t < block.meta.t_min {
            return None;
        }
        let mut arena = self.arenas.checkout();
        self.decode_stored(block, &mut arena)
            .expect("stored blocks decode");
        let position = position_in_block(arena.segments(), &block.meta, t);
        self.arenas.checkin(arena);
        position
    }
}

/// The position-interpolation body of [`TrajStore::position_at`], over
/// one decoded block's segments.
fn position_in_block(segments: &[SimplifiedSegment], meta: &BlockMeta, t: f64) -> Option<Point> {
    // Prefer a segment whose geometric span contains t; fall back to
    // responsibility spans (absorbed tails) with extrapolation.
    for s in segments {
        let (lo, hi) = time_span(s);
        if lo <= t && t <= hi {
            return Some(position_on(s, t));
        }
    }
    for (j, s) in segments.iter().enumerate() {
        let (lo, _) = time_span(s);
        if lo <= t && t <= effective_t_hi(segments, j, meta) {
            // Inside an attributed-but-not-fitted run the stored data
            // no longer says how far along the line the device got;
            // clamping to the segment end returns the last recorded
            // fix (restamped to the queried instant) instead of
            // extrapolating at an assumed speed.
            let mut p = position_on(s, t.min(time_span(s).1));
            p.t = t;
            return Some(p);
        }
    }
    None
}

/// Time-linear position on a segment's supporting line.
#[inline]
fn position_on(s: &SimplifiedSegment, t: f64) -> Point {
    let duration = s.segment.end.t - s.segment.start.t;
    if duration.abs() < f64::EPSILON {
        return s.segment.start;
    }
    let alpha = (t - s.segment.start.t) / duration;
    s.segment.start.lerp(&s.segment.end, alpha)
}

/// The (min, max) timestamp span of a stored segment's shape points.
#[inline]
fn time_span(s: &SimplifiedSegment) -> (f64, f64) {
    let (a, b) = (s.segment.start.t, s.segment.end.t);
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Upper bound on the timestamps of the original points segment `j` is
/// responsible for.
///
/// OPERB can attribute points past a segment's geometric end to its
/// responsibility (break attribution, optimization 5 absorption), so the
/// endpoint timestamp under-covers.  Timestamps are strictly increasing
/// with point index, which gives a sound bound: the start time of the
/// first later segment whose responsibility begins at or after `j`'s last
/// index (its start is an original point with an index ≥ every index `j`
/// covers), or the block's exact `t_max` when no such witness exists in
/// the block.
fn effective_t_hi(segments: &[SimplifiedSegment], j: usize, meta: &BlockMeta) -> f64 {
    let own_end = time_span(&segments[j]).1;
    for g in &segments[j + 1..] {
        if g.first_index >= segments[j].last_index && !g.interpolated_start {
            return own_end.max(g.segment.start.t);
        }
    }
    own_end.max(meta.t_max)
}

/// Whether segment `j` may be responsible for points its endpoint box
/// cannot cover (an absorbed run).  Detected structurally: a later
/// segment's responsibility starts strictly before `j`'s ends (ranges
/// overlap beyond the shared boundary point), or `j` is the block's last
/// segment and the block metadata extends past its end time (a trailing
/// absorbed tail recorded by exact, original-extended metadata).
fn is_absorbing(segments: &[SimplifiedSegment], j: usize, meta: &BlockMeta) -> bool {
    if let Some(next) = segments.get(j + 1) {
        next.first_index < segments[j].last_index
    } else {
        meta.t_max > time_span(&segments[j]).1
    }
}

/// Whether an absorbing segment's ζ-strip meets the block's exact box
/// inside `window` — the test for the points it owns past its end.
///
/// Every such point lies within ζ of the line through the segment's
/// original endpoints (optimization 5 absorbs a point only within ζ of
/// that line, and inactive points attributed after the last active
/// point are checked against it too), and inside `meta.bbox`, which
/// [`BlockMeta::extend_with_points`] makes exact.  So the test projects
/// the corners of `R = meta.bbox ∩ window` onto the unit normal of the
/// *decoded* line and hits when they overlap `[−w, w]`.  Quantization
/// moves each endpoint by at most `s = quant_slack`, which tilts the
/// line: at distance `D` from the start it is off by at most
/// `s · (1 + 2(D + s)/(ℓ′ − 2s))` for decoded length `ℓ′`, so
/// `w = ζ + s · (1 + 2(D + s)/(ℓ′ − 2s))` with `D` the farthest corner
/// of `R`.  A segment too short to bound the tilt (`ℓ′ ≤ 2s`) hits.
///
/// An interpolated endpoint (an OPERB-A patch point) is not an original
/// point, so the strip argument does not hold; such a segment falls back
/// to the block's expanded box.
fn strip_hits(s: &SimplifiedSegment, meta: &BlockMeta, window: &BoundingBox) -> bool {
    if s.interpolated_start || s.interpolated_end {
        return expanded_intersects(&meta.bbox, meta.slack_radius(), window);
    }
    let r = BoundingBox {
        min_x: meta.bbox.min_x.max(window.min_x),
        min_y: meta.bbox.min_y.max(window.min_y),
        max_x: meta.bbox.max_x.min(window.max_x),
        max_y: meta.bbox.max_y.min(window.max_y),
    };
    if r.min_x > r.max_x || r.min_y > r.max_y {
        return false;
    }
    let (a, b) = (s.segment.start, s.segment.end);
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len = (dx * dx + dy * dy).sqrt();
    let slack = meta.quant_slack;
    if len <= 2.0 * slack {
        return true;
    }
    let (nx, ny) = (-dy / len, dx / len);
    let (mut lo, mut hi, mut far_sq) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
    for c in r.corners() {
        let (rx, ry) = (c.x - a.x, c.y - a.y);
        let d = rx * nx + ry * ny;
        lo = lo.min(d);
        hi = hi.max(d);
        far_sq = far_sq.max(rx * rx + ry * ry);
    }
    let far = far_sq.sqrt();
    let w = meta.zeta + slack * (1.0 + 2.0 * (far + slack) / (len - 2.0 * slack));
    lo <= w && -w <= hi
}

/// Bounding box over a segment's two endpoints.
#[inline]
fn endpoint_bbox(s: &SimplifiedSegment) -> BoundingBox {
    let mut bbox = BoundingBox::from_point(s.segment.start);
    bbox.extend(&s.segment.end);
    bbox
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::DirectedSegment;

    /// A straight eastbound drive at 10 m/s sampled every 10 s, one
    /// segment per sample pair — predictable geometry for the queries.
    fn straight_line(device_offset_y: f64, start_t: f64, segments: usize) -> SimplifiedTrajectory {
        let mut out = Vec::with_capacity(segments);
        for i in 0..segments {
            let t0 = start_t + i as f64 * 10.0;
            let a = Point::new(i as f64 * 100.0, device_offset_y, t0);
            let b = Point::new((i + 1) as f64 * 100.0, device_offset_y, t0 + 10.0);
            out.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
        }
        SimplifiedTrajectory::new(out, segments + 1)
    }

    fn window(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> BoundingBox {
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    #[test]
    fn ingest_splits_into_blocks_and_counts() {
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(4));
        let simplified = straight_line(0.0, 0.0, 10);
        let blocks = store.ingest(1, &simplified, 5.0).unwrap();
        assert_eq!(blocks, 3); // 4 + 4 + 2 segments
        let stats = store.stats();
        assert_eq!(stats.devices, 1);
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.segments, 10);
        assert_eq!(stats.points, 11);
        assert!(stats.stored_bytes > 0);
        assert!(stats.bytes_per_point() > 0.0);
        let metas = store.block_metas(1);
        assert_eq!(metas.len(), 3);
        assert_eq!(metas[0].num_segments, 4);
        assert_eq!(metas[2].num_segments, 2);
        assert_eq!(metas[0].t_min, 0.0);
        assert_eq!(metas[2].t_max, 100.0);
    }

    #[test]
    fn empty_ingest_is_a_noop() {
        let mut store = TrajStore::default();
        let n = store
            .ingest(1, &SimplifiedTrajectory::new(vec![], 1), 5.0)
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(store.stats().blocks, 0);
    }

    #[test]
    fn out_of_order_ingest_is_rejected() {
        let mut store = TrajStore::default();
        store.ingest(1, &straight_line(0.0, 100.0, 3), 5.0).unwrap();
        let err = store
            .ingest(1, &straight_line(0.0, 0.0, 3), 5.0)
            .unwrap_err();
        assert!(matches!(err, StoreError::OutOfOrder { device: 1, .. }));
        // Later data appends fine; a different device is independent.
        store.ingest(1, &straight_line(0.0, 130.0, 2), 5.0).unwrap();
        store.ingest(2, &straight_line(50.0, 0.0, 2), 5.0).unwrap();
    }

    #[test]
    fn time_slice_skips_blocks_and_filters_segments() {
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(2));
        store.ingest(1, &straight_line(0.0, 0.0, 12), 5.0).unwrap(); // 6 blocks, t ∈ [0, 120]
        let slice = store.time_slice(1, 41.0, 59.0);
        assert_eq!(slice.stats.blocks_in_scope, 6);
        // t ∈ [41, 59] touches segments [40,50] and [50,60], both in the
        // block covering t ∈ [40, 60] — one decode, five blocks skipped.
        assert_eq!(slice.stats.blocks_decoded, 1);
        assert_eq!(slice.segments.len(), 2);
        assert_eq!(slice.segments_decoded, 2);
        assert!(slice.stats.skip_ratio() > 0.8);
        // t ∈ [41, 49] needs only [40,50], but its block decodes whole.
        let narrow = store.time_slice(1, 41.0, 49.0);
        assert_eq!((narrow.segments.len(), narrow.segments_decoded), (1, 2));
        for s in &slice.segments {
            assert!(s.segment.start.t <= 59.0 && s.segment.end.t >= 41.0);
        }
        // Out-of-range and unknown-device queries return empty.
        assert!(store.time_slice(1, 500.0, 600.0).segments.is_empty());
        assert!(store.time_slice(99, 0.0, 10.0).segments.is_empty());
    }

    #[test]
    fn window_query_prunes_far_devices() {
        // 20 devices on parallel east-west lines 1 km apart.
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(4));
        for d in 0..20u64 {
            store
                .ingest(d, &straight_line(d as f64 * 1000.0, 0.0, 12), 5.0)
                .unwrap();
        }
        // A window around y = 3000 m, x ∈ [150, 450]: only device 3.
        let q = store.window_query(&window(150.0, 2990.0, 450.0, 3010.0), None);
        assert_eq!(q.matches.len(), 1);
        assert_eq!(q.matches[0].device, 3);
        assert!(!q.matches[0].segments.is_empty());
        assert!(
            q.stats.blocks_decoded < q.stats.blocks_in_scope,
            "window query must not decode the whole store"
        );
        assert!(q.stats.skip_ratio() > 0.8, "ratio {}", q.stats.skip_ratio());
        for s in &q.matches[0].segments {
            assert!(s.segment.start.x <= 450.0 + 5.1 && s.segment.end.x >= 150.0 - 5.1);
        }
    }

    #[test]
    fn window_query_with_time_filter() {
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(2));
        store.ingest(1, &straight_line(0.0, 0.0, 12), 5.0).unwrap();
        // Spatial window covers the whole path; time filter keeps t ∈ [0, 15].
        let q = store.window_query(&window(-10.0, -10.0, 1300.0, 10.0), Some((0.0, 15.0)));
        assert_eq!(q.matches.len(), 1);
        assert_eq!(q.matches[0].segments.len(), 2);
        assert!(q.stats.blocks_decoded <= 2);
    }

    #[test]
    fn position_interpolates_between_shape_points() {
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(3));
        store.ingest(1, &straight_line(7.0, 0.0, 9), 5.0).unwrap();
        // At t = 25 the device is halfway through the third segment:
        // x = 250 m, y = 7.
        let p = store.position_at(1, 25.0).unwrap();
        assert!((p.x - 250.0).abs() < 0.1, "{p}");
        assert!((p.y - 7.0).abs() < 0.1, "{p}");
        assert!((p.t - 25.0).abs() < 0.01, "{p}");
        // Exactly on a shape point.
        let p = store.position_at(1, 30.0).unwrap();
        assert!((p.x - 300.0).abs() < 0.1, "{p}");
        // Outside coverage or unknown device → None.
        assert!(store.position_at(1, -1.0).is_none());
        assert!(store.position_at(1, 91.0).is_none());
        assert!(store.position_at(9, 25.0).is_none());
    }

    #[test]
    fn position_at_exact_block_boundaries_is_continuous() {
        // block_segments = 2 → blocks cover t ∈ [0,20], [20,40], [40,60]:
        // every interior boundary instant belongs to two blocks' closed
        // intervals (t_max of one, t_min of the next).
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(2));
        store.ingest(1, &straight_line(0.0, 0.0, 6), 5.0).unwrap();
        for boundary in [20.0, 40.0] {
            // `partition_point(t_max < t)` picks the *earlier* block at
            // the shared instant; both blocks hold the same shape point
            // there, so the answer must be the same from either side.
            let p = store.position_at(1, boundary).unwrap();
            assert!((p.x - boundary * 10.0).abs() < 1e-9, "at {boundary}: {p}");
            let eps = 1e-6;
            let before = store.position_at(1, boundary - eps).unwrap();
            let after = store.position_at(1, boundary + eps).unwrap();
            assert!((p.x - before.x).abs() < 1e-3, "left limit at {boundary}");
            assert!((p.x - after.x).abs() < 1e-3, "right limit at {boundary}");
        }
        // The log's outer edges are covered too (t = t_min of the first
        // block, t = t_max of the last).
        assert!((store.position_at(1, 0.0).unwrap().x).abs() < 1e-9);
        assert!((store.position_at(1, 60.0).unwrap().x - 600.0).abs() < 1e-9);
    }

    #[test]
    fn position_at_duplicate_timestamp_block_boundary_is_left_continuous() {
        // A zero-duration segment at a block boundary: the device jumps
        // from (100, 0) to (100, 50) at t = 10 (two fixes with the same
        // timestamp).  block_segments = 2 splits [A, B] | [C], so t = 10
        // is t_max of block 0 and t_min of block 1.
        let a = SimplifiedSegment::new(
            DirectedSegment::new(Point::new(0.0, 0.0, 0.0), Point::new(100.0, 0.0, 10.0)),
            0,
            1,
        );
        let b = SimplifiedSegment::new(
            DirectedSegment::new(Point::new(100.0, 0.0, 10.0), Point::new(100.0, 50.0, 10.0)),
            1,
            2,
        );
        let c = SimplifiedSegment::new(
            DirectedSegment::new(Point::new(100.0, 50.0, 10.0), Point::new(200.0, 50.0, 20.0)),
            2,
            3,
        );
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(2));
        store
            .ingest(1, &SimplifiedTrajectory::new(vec![a, b, c], 4), 5.0)
            .unwrap();
        // At the duplicated instant the stored data genuinely holds two
        // positions; the answer is the first in stream order — the limit
        // from the left — and must come from the earlier block, not skip
        // to block 1's copy of the shared point.
        let p = store.position_at(1, 10.0).unwrap();
        assert!((p.x - 100.0).abs() < 1e-9, "{p}");
        assert!(p.y.abs() < 1e-9, "left-continuous at the jump: {p}");
        // Just past the instant the jump has happened.
        let after = store.position_at(1, 10.0 + 1e-6).unwrap();
        assert!((after.y - 50.0).abs() < 1e-3, "{after}");
        // No phantom coverage between blocks when the log has a real
        // time gap: a second ingest starting later leaves t in the gap
        // unanswered.
        store.ingest(1, &straight_line(0.0, 100.0, 2), 5.0).unwrap();
        assert!(store.position_at(1, 50.0).is_none());
        assert!(store.position_at(1, 100.0).is_some());
    }

    /// One block with an absorbing segment: A = (0,0)→(100,0) owns
    /// points 0..=4, the last three absorbed east of its end along its
    /// line; B = (100,0)→(100,400) then heads north from A's end.
    fn absorbed_tail_store() -> TrajStore {
        let originals = [
            Point::new(0.0, 0.0, 0.0),
            Point::new(100.0, 0.0, 10.0),
            Point::new(200.0, 2.0, 20.0),
            Point::new(300.0, -2.0, 30.0),
            Point::new(400.0, 1.0, 40.0),
            Point::new(100.0, 400.0, 50.0),
        ];
        let a = SimplifiedSegment::new(DirectedSegment::new(originals[0], originals[1]), 0, 4);
        let b = SimplifiedSegment::new(DirectedSegment::new(originals[1], originals[5]), 1, 5);
        let simplified = SimplifiedTrajectory::new(vec![a, b], 6);
        let mut store = TrajStore::default();
        store
            .ingest_with_original(1, &originals, &simplified, 5.0)
            .unwrap();
        store
    }

    #[test]
    fn window_finds_a_tail_absorbed_past_the_end() {
        let store = absorbed_tail_store();
        // Around the last absorbed point, 300 m past A's end: A's
        // endpoint box misses, its strip does not; B is far away.
        let q = store.window_query(&window(390.0, -10.0, 410.0, 10.0), None);
        assert_eq!(q.matches.len(), 1);
        let segments = &q.matches[0].segments;
        assert_eq!(segments.len(), 1);
        assert_eq!((segments[0].first_index, segments[0].last_index), (0, 4));
    }

    #[test]
    fn window_inside_the_block_box_but_off_the_strip_misses() {
        let store = absorbed_tail_store();
        // Inside the block box (x ∈ [0, 400], y ∈ [−2, 400]) but 150 m
        // off A's line and 150 m off B: the block is decoded, nothing is
        // returned.
        let q = store.window_query(&window(250.0, 150.0, 350.0, 250.0), None);
        assert_eq!(q.stats.blocks_decoded, 1);
        assert!(q.matches.is_empty(), "{:?}", q.matches);
    }

    /// Block metadata over `x, y ∈ [−500, 500]` at ζ = 5 m and a coarse
    /// quantization slack of 0.5 m.
    fn wide_meta(s: &SimplifiedSegment) -> BlockMeta {
        let mut meta = BlockMeta::from_segments(1, std::slice::from_ref(s), 5.0, 0.5);
        meta.bbox = window(-500.0, -500.0, 500.0, 500.0);
        meta
    }

    #[test]
    fn strip_of_a_segment_too_short_to_tilt_is_conservative() {
        let east = |len: f64| {
            SimplifiedSegment::new(
                DirectedSegment::new(Point::new(0.0, 0.0, 0.0), Point::new(len, 0.0, 1.0)),
                0,
                3,
            )
        };
        // 300 m north of the line, inside the block box.
        let off_line = window(290.0, 290.0, 310.0, 310.0);
        // ℓ′ = 1 m ≤ 2s: the tilt is unbounded, so the strip hits.
        let short = east(1.0);
        assert!(strip_hits(&short, &wide_meta(&short), &off_line));
        // A 100 m segment on the same line bounds it and misses.
        let long = east(100.0);
        assert!(!strip_hits(&long, &wide_meta(&long), &off_line));
        // Outside the block box nothing can hit, short or not.
        let outside = window(600.0, 600.0, 700.0, 700.0);
        assert!(!strip_hits(&short, &wide_meta(&short), &outside));
    }

    #[test]
    fn strip_of_an_interpolated_endpoint_falls_back_to_the_block_box() {
        let mut s = SimplifiedSegment::new(
            DirectedSegment::new(Point::new(0.0, 0.0, 0.0), Point::new(100.0, 0.0, 10.0)),
            0,
            3,
        );
        let meta = wide_meta(&s);
        let off_line = window(290.0, 290.0, 310.0, 310.0);
        // Just outside the box, within ζ + slack of it.
        let beside_box = window(503.0, 0.0, 510.0, 10.0);
        assert!(!strip_hits(&s, &meta, &off_line));
        assert!(!strip_hits(&s, &meta, &beside_box));
        s.interpolated_end = true;
        assert!(strip_hits(&s, &meta, &off_line));
        assert!(strip_hits(&s, &meta, &beside_box));
        s.interpolated_end = false;
        s.interpolated_start = true;
        assert!(strip_hits(&s, &meta, &off_line));
    }

    #[test]
    fn sealed_payloads_hold_no_spare_capacity() {
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(8));
        store.ingest(1, &straight_line(0.0, 0.0, 50), 5.0).unwrap();
        let mut resident = 0;
        for block in store.stored_blocks() {
            let PayloadSlot::Resident(bytes) = &block.payload else {
                panic!("a fresh ingest is resident");
            };
            assert_eq!(bytes.capacity(), bytes.len());
            resident += 1;
        }
        assert_eq!(resident, 7);
    }

    #[test]
    fn skip_ratio_handles_empty_store() {
        let store = TrajStore::default();
        let q = store.window_query(&window(0.0, 0.0, 10.0, 10.0), None);
        assert!(q.matches.is_empty());
        assert_eq!(q.stats.skip_ratio(), 0.0);
        assert_eq!(store.stats().bytes_per_point(), 0.0);
        assert_eq!(store.stats().compression_factor(), 0.0);
    }
}
