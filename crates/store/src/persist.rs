//! Durable storage: a store directory with a JSON manifest and a binary
//! segment log.
//!
//! ```text
//! <dir>/manifest.json   configuration + integrity counters
//! <dir>/segments.log    concatenated block records (see Block::write_record)
//! ```
//!
//! The layout is deliberately dumb: the log is a flat, append-ordered
//! sequence of self-delimiting records, and the whole spatio-temporal
//! index is rebuilt in memory while opening — indexes are derived data and
//! never persisted, so they can evolve without a format change.

use std::fs;
use std::path::Path;

use std::sync::Arc;

use traj_model::codec::{BlockFormat, ByteReader, SegmentCodec};
use traj_model::json::JsonValue;

use crate::block::{read_record_header, Block, BlockMeta};
use crate::pager::Pager;
use crate::store::{StoreConfig, StoreError, TrajStore};
use crate::wal::fault;

/// Current on-disk format version.  Version 2 added a per-record block
/// format tag (varint vs frame-of-reference payloads); version-1 stores
/// (untagged records, implicitly varint) remain readable forever.
pub const FORMAT_VERSION: usize = 2;

/// Oldest on-disk format version still accepted by `open`.
pub const MIN_FORMAT_VERSION: usize = 1;

const MANIFEST_FILE: &str = "manifest.json";
const LOG_FILE: &str = "segments.log";

fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

/// What [`TrajStore::open_recover`] salvaged and what it had to drop.
///
/// Recovery keeps the longest valid prefix of the segment log: everything
/// up to (but excluding) the first record that fails framing, decoding,
/// metadata validation or append-order checks.  A crash mid-append leaves
/// exactly such a log — complete records followed by a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks restored into the returned store.
    pub blocks_recovered: usize,
    /// Blocks the manifest promised.
    pub manifest_blocks: usize,
    /// Bytes of the log tail that were dropped.
    pub bytes_dropped: usize,
    /// Why the tail was dropped (`None` when the whole log parsed and the
    /// drop is purely a manifest/log count mismatch, or nothing dropped).
    pub dropped_reason: Option<String>,
}

impl RecoveryReport {
    /// `true` when nothing was dropped and the log matches the manifest —
    /// the store opened exactly as a strict [`TrajStore::open`] would.
    pub fn is_clean(&self) -> bool {
        self.bytes_dropped == 0
            && self.dropped_reason.is_none()
            && self.blocks_recovered == self.manifest_blocks
    }
}

/// Validates a block's metadata against its decoded payload.  The log is
/// untrusted input: bit rot can produce metadata whose bounding box no
/// longer covers the payload (queries would silently skip data — wrong
/// answers) or non-finite / absurd extents.  Sound metadata is what the
/// no-false-negative query guarantees rest on, so a block that fails here
/// is treated exactly like one that fails to decode.
pub(crate) fn validate_block(block: &Block, codec: &SegmentCodec) -> Result<(), String> {
    validate_block_parts(&block.meta, block.format, &block.payload, codec)
}

/// [`validate_block`] over a record's parts — the lazy open path
/// validates straight from the log buffer without materializing a
/// [`Block`].
pub(crate) fn validate_block_parts(
    m: &BlockMeta,
    format: BlockFormat,
    payload: &[u8],
    codec: &SegmentCodec,
) -> Result<(), String> {
    for (name, v) in [
        ("t_min", m.t_min),
        ("t_max", m.t_max),
        ("bbox.min_x", m.bbox.min_x),
        ("bbox.min_y", m.bbox.min_y),
        ("bbox.max_x", m.bbox.max_x),
        ("bbox.max_y", m.bbox.max_y),
        ("zeta", m.zeta),
        ("quant_slack", m.quant_slack),
    ] {
        if !v.is_finite() {
            return Err(format!("non-finite metadata field {name}"));
        }
    }
    if m.zeta < 0.0 || m.quant_slack < 0.0 {
        return Err("negative error bound or slack".to_string());
    }
    if m.t_min > m.t_max || m.bbox.min_x > m.bbox.max_x || m.bbox.min_y > m.bbox.max_y {
        return Err("inverted metadata extent".to_string());
    }
    if m.first_index > m.last_index {
        return Err("inverted responsibility range".to_string());
    }
    let decoded = codec
        .decode_block(format, payload)
        .map_err(|e| format!("payload: {e}"))?;
    let segments = decoded.segments();
    if segments.len() != m.num_segments || segments.is_empty() {
        return Err(format!(
            "metadata promises {} segments, payload holds {}",
            m.num_segments,
            segments.len()
        ));
    }
    if segments[0].first_index != m.first_index
        || segments[segments.len() - 1].last_index != m.last_index
    {
        return Err("responsibility range disagrees with payload".to_string());
    }
    // The metadata box must cover every decoded shape point (metadata is
    // computed before quantization, so allow the codec's slack), otherwise
    // the skipping layer would prune blocks that still hold relevant data.
    let tol_s = codec.spatial_slack() + 1e-9;
    let tol_t = codec.time_resolution + 1e-9;
    for s in segments {
        for p in [s.segment.start, s.segment.end] {
            if p.x < m.bbox.min_x - tol_s
                || p.x > m.bbox.max_x + tol_s
                || p.y < m.bbox.min_y - tol_s
                || p.y > m.bbox.max_y + tol_s
                || p.t < m.t_min - tol_t
                || p.t > m.t_max + tol_t
            {
                return Err("metadata does not cover payload geometry".to_string());
            }
        }
    }
    Ok(())
}

/// Writes a store directory from an already-serialized log and its
/// summary stats — shared by the single-owner and sharded save paths
/// (which differ only in how they gather the records).
pub(crate) fn write_store_files(
    dir: &Path,
    config: &crate::store::StoreConfig,
    stats: &crate::store::StoreStats,
    log: &[u8],
) -> Result<(), StoreError> {
    fs::create_dir_all(dir).map_err(|e| io_err("create store directory", e))?;
    let manifest = JsonValue::object([
        ("version", JsonValue::from(FORMAT_VERSION)),
        ("cell_size", JsonValue::from(config.cell_size)),
        ("block_segments", JsonValue::from(config.block_segments)),
        (
            "spatial_resolution",
            JsonValue::from(config.codec.spatial_resolution),
        ),
        (
            "time_resolution",
            JsonValue::from(config.codec.time_resolution),
        ),
        ("devices", JsonValue::from(stats.devices)),
        ("blocks", JsonValue::from(stats.blocks)),
        ("points", JsonValue::from(stats.points)),
    ]);
    // Each file lands atomically (temp + fsync + rename), the manifest
    // last: a crash at any point leaves either the old store or the new
    // one, never a half-written file, and a directory whose manifest
    // matches its log is a complete store.
    atomic_write(dir, LOG_FILE, log)?;
    atomic_write(
        dir,
        MANIFEST_FILE,
        (manifest.to_string_pretty() + "\n").as_bytes(),
    )?;
    fault::guarded_sync_dir(dir).map_err(|e| io_err("sync store directory", e))?;
    Ok(())
}

/// Replaces `dir/name` atomically: write a temp file, fsync it, rename
/// over the target.  Readers see the old contents or the new contents,
/// never a torn mix — the rename is the commit point.
fn atomic_write(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    let file = fs::File::create(&tmp).map_err(|e| io_err("create temp file", e))?;
    fault::guarded_write(&file, bytes).map_err(|e| io_err("write temp file", e))?;
    fault::guarded_sync(&file).map_err(|e| io_err("sync temp file", e))?;
    drop(file);
    fault::guarded_rename(&tmp, &target).map_err(|e| io_err("rename temp file into place", e))?;
    Ok(())
}

impl TrajStore {
    /// Persists the store into `dir` (created if missing, contents
    /// overwritten).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let stats = self.stats();
        let mut log = Vec::with_capacity(stats.stored_bytes);
        self.append_log_records(&mut log)?;
        write_store_files(dir, self.config(), &stats, &log)
    }

    /// Opens a store persisted by [`TrajStore::save`], rebuilding the
    /// grid index from the log.
    ///
    /// Opening is **lazy**: every record is fully validated (framing,
    /// decode, metadata soundness), but only the metadata stays resident
    /// — payloads are re-read on demand through a buffer pool over the
    /// log file (unbounded by default; see
    /// [`StoreConfig::with_cache_bytes`] and [`TrajStore::open_with`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when the manifest or log fails validation.
    pub fn open(dir: &Path) -> Result<TrajStore, StoreError> {
        Self::open_impl(dir, false, StoreConfig::default()).map(|(store, _)| store)
    }

    /// [`TrajStore::open`] with runtime configuration: the store's layout
    /// (block size, cell size, codec) always comes from the manifest,
    /// while the *runtime* fields of `config` — durability and buffer-pool
    /// capacity — come from the caller.
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::open`].
    pub fn open_with(dir: &Path, config: StoreConfig) -> Result<TrajStore, StoreError> {
        Self::open_impl(dir, false, config).map(|(store, _)| store)
    }

    /// Opens a store like [`TrajStore::open`], but salvages the longest
    /// valid prefix of the segment log instead of rejecting the whole
    /// store when the log has a torn or corrupt tail (the state a crash
    /// mid-append leaves behind).  The returned [`RecoveryReport`] says
    /// exactly what was kept and what was dropped.
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
    pub fn open_recover(dir: &Path) -> Result<(TrajStore, RecoveryReport), StoreError> {
        Self::open_impl(dir, true, StoreConfig::default())
    }

    /// [`TrajStore::open_recover`] with runtime configuration (see
    /// [`TrajStore::open_with`]).
    ///
    /// # Errors
    ///
    /// As for [`TrajStore::open_recover`].
    pub fn open_recover_with(
        dir: &Path,
        config: StoreConfig,
    ) -> Result<(TrajStore, RecoveryReport), StoreError> {
        Self::open_impl(dir, true, config)
    }

    fn open_impl(
        dir: &Path,
        recover: bool,
        runtime: StoreConfig,
    ) -> Result<(TrajStore, RecoveryReport), StoreError> {
        let manifest_text = fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| io_err("read manifest.json", e))?;
        let manifest = JsonValue::parse(&manifest_text)
            .map_err(|e| StoreError::Corrupt(format!("manifest: {e}")))?;
        let field = |key: &str| -> Result<f64, StoreError> {
            manifest
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| StoreError::Corrupt(format!("manifest missing '{key}'")))
        };
        let version = field("version")? as usize;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(StoreError::Corrupt(format!(
                "unsupported format version {version} (supported: {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            )));
        }
        // Version-1 logs carry untagged (implicitly varint) records.
        let tagged = version >= 2;
        // Validate config values before handing them to constructors that
        // assert — a bit-rotted manifest must fail as Corrupt, not panic.
        let positive = |key: &str| -> Result<f64, StoreError> {
            let v = field(key)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(StoreError::Corrupt(format!(
                    "manifest '{key}' must be finite and positive, got {v}"
                )));
            }
            Ok(v)
        };
        let config = StoreConfig::default()
            .with_cell_size(positive("cell_size")?)
            .with_block_segments(positive("block_segments")? as usize)
            .with_codec(SegmentCodec::new(
                positive("spatial_resolution")?,
                positive("time_resolution")?,
            ))
            // The runtime knobs are the caller's, not the manifest's.
            .with_durability(runtime.durability)
            .with_cache_bytes(runtime.cache_bytes);
        let expected_blocks = field("blocks")? as usize;
        let points = field("points")? as usize;

        // The whole log is read once for validation; only metadata and
        // payload (offset, length) pairs are kept.  Payloads are later
        // re-read on demand through the pager, which holds its own handle
        // to this exact file (a later checkpoint renames a new log into
        // place; the old inode stays readable through the open handle).
        let log_bytes = fs::read(dir.join(LOG_FILE)).map_err(|e| io_err("read segments.log", e))?;
        let mut store = TrajStore::new(config);
        let codec = config.codec;
        let mut reader = ByteReader::new(&log_bytes);
        let mut last_t_min: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        let mut dropped_reason = None;
        let mut bytes_dropped = 0;
        while reader.remaining() > 0 {
            let record_start_remaining = reader.remaining();
            // Each record is re-validated on the way in: framing, append
            // order (consecutive block *intervals* may overlap — absorbed
            // responsibility tails extend a block's t_max into its
            // successor — but start times are non-decreasing along every
            // device's log), payload decode, and metadata soundness.  A
            // failure surfaces at open time, not mid-query.
            let checked = read_record_header(&mut reader, tagged)
                .map_err(|e| format!("segments.log: {e}"))
                .and_then(|header| {
                    let payload_offset = (log_bytes.len() - reader.remaining()) as u64;
                    let payload = reader
                        .get_bytes(header.payload_len)
                        .map_err(|e| format!("segments.log: {e}"))?;
                    if let Some(&t) = last_t_min.get(&header.meta.device) {
                        if header.meta.t_min < t {
                            return Err(format!(
                                "device {} block out of time order ({} < {})",
                                header.meta.device, header.meta.t_min, t
                            ));
                        }
                    }
                    validate_block_parts(&header.meta, header.format, payload, &codec)
                        .map_err(|e| format!("block: {e}"))?;
                    Ok((header, payload_offset))
                });
            match checked {
                Ok((header, payload_offset)) => {
                    last_t_min.insert(header.meta.device, header.meta.t_min);
                    store.append_block_from_disk(
                        header.meta,
                        header.format,
                        payload_offset,
                        header.payload_len as u32,
                    );
                }
                Err(reason) if recover => {
                    // The drop starts at the failed record's first byte,
                    // not at wherever its parse gave up.
                    dropped_reason = Some(reason);
                    bytes_dropped = record_start_remaining;
                    break;
                }
                Err(reason) => return Err(StoreError::Corrupt(reason)),
            }
        }
        let report = RecoveryReport {
            blocks_recovered: store.num_blocks(),
            manifest_blocks: expected_blocks,
            bytes_dropped,
            dropped_reason,
        };
        if !recover && store.num_blocks() != expected_blocks {
            return Err(StoreError::Corrupt(format!(
                "manifest promises {expected_blocks} blocks, log holds {}",
                store.num_blocks()
            )));
        }
        if report.is_clean() || !recover {
            store.set_total_points(points);
        } else {
            // The exact fleet-wide counter died with the tail; estimate
            // from the recovered metadata (blocks of one ingest share
            // boundary points, so this slightly overcounts).
            let estimate = store.stored_blocks().map(|b| b.meta.point_count()).sum();
            store.set_total_points(estimate);
        }
        let pager = Pager::open(&dir.join(LOG_FILE), config.cache_bytes)?;
        store.set_pager(Arc::new(pager));
        Ok((store, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::{DirectedSegment, Point};
    use traj_model::{SimplifiedSegment, SimplifiedTrajectory};

    fn sample_store() -> TrajStore {
        let mut store = TrajStore::new(StoreConfig::default().with_block_segments(2));
        for d in 0..5u64 {
            let mut segments = Vec::new();
            for i in 0..7usize {
                let a = Point::new(i as f64 * 40.0, d as f64 * 300.0, i as f64 * 12.0);
                let b = Point::new(
                    (i + 1) as f64 * 40.0,
                    d as f64 * 300.0 + 3.0,
                    (i + 1) as f64 * 12.0,
                );
                segments.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
            }
            let st = SimplifiedTrajectory::new(segments, 8);
            store.ingest(d, &st, 12.5).unwrap();
        }
        store
    }

    #[test]
    fn save_open_roundtrip_preserves_everything() {
        let dir = std::env::temp_dir().join(format!("traj-store-test-{}", std::process::id()));
        let store = sample_store();
        store.save(&dir).unwrap();
        let back = TrajStore::open(&dir).unwrap();
        // A reopened store is lazy: payloads live on disk, not inline.
        let want = crate::store::StoreStats {
            resident_bytes: 0,
            ..store.stats()
        };
        assert_eq!(back.stats(), want);
        assert_eq!(back.config(), store.config());
        for d in store.devices() {
            assert_eq!(back.block_metas(d), store.block_metas(d));
            let a = store.time_slice(d, 0.0, 100.0);
            let b = back.time_slice(d, 0.0, 100.0);
            assert_eq!(a, b);
        }
        // The rebuilt index answers window queries identically.
        let w = traj_geo::BoundingBox {
            min_x: 0.0,
            min_y: 250.0,
            max_x: 300.0,
            max_y: 350.0,
        };
        assert_eq!(store.window_query(&w, None), back.window_query(&w, None));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_stores_are_rejected() {
        let dir = std::env::temp_dir().join(format!("traj-store-corrupt-{}", std::process::id()));
        let store = sample_store();
        store.save(&dir).unwrap();

        // Truncated log.
        let log_path = dir.join("segments.log");
        let bytes = fs::read(&log_path).unwrap();
        fs::write(&log_path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(TrajStore::open(&dir), Err(StoreError::Corrupt(_))));
        fs::write(&log_path, &bytes).unwrap();
        assert!(TrajStore::open(&dir).is_ok());

        // Manifest promising the wrong block count.
        let manifest_path = dir.join("manifest.json");
        let manifest = fs::read_to_string(&manifest_path).unwrap();
        fs::write(
            &manifest_path,
            manifest.replace("\"blocks\": 20", "\"blocks\": 7"),
        )
        .unwrap();
        assert!(matches!(TrajStore::open(&dir), Err(StoreError::Corrupt(_))));

        // Invalid config values must fail as Corrupt, not panic in a
        // constructor assert.
        fs::write(
            &manifest_path,
            manifest.replace("\"cell_size\": 500", "\"cell_size\": 0"),
        )
        .unwrap();
        let err = TrajStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("cell_size")));

        // Unsupported version.
        fs::write(
            &manifest_path,
            manifest.replace("\"version\": 2", "\"version\": 99"),
        )
        .unwrap();
        let err = TrajStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("version")));

        // Missing directory.
        fs::remove_dir_all(&dir).ok();
        assert!(matches!(TrajStore::open(&dir), Err(StoreError::Io(_))));
    }

    #[test]
    fn version_1_stores_open_as_varint() {
        use traj_model::codec::{get_varint, ByteReader};
        let dir = std::env::temp_dir().join(format!("traj-store-v1-{}", std::process::id()));
        let store = sample_store();
        store.save(&dir).unwrap();
        // Rewrite the directory in the version-1 layout: untagged records
        // (strip the format-tag byte that follows the device varint) and a
        // version-1 manifest.
        let mut v1_log = Vec::new();
        for block in store.blocks_materialized().unwrap() {
            let mut tmp = Vec::new();
            block.write_record(&mut tmp);
            let mut r = ByteReader::new(&tmp);
            get_varint(&mut r).unwrap();
            let device_len = tmp.len() - r.remaining();
            v1_log.extend_from_slice(&tmp[..device_len]);
            v1_log.extend_from_slice(&tmp[device_len + 1..]);
        }
        fs::write(dir.join("segments.log"), &v1_log).unwrap();
        let manifest_path = dir.join("manifest.json");
        let manifest = fs::read_to_string(&manifest_path).unwrap();
        fs::write(
            &manifest_path,
            manifest.replace("\"version\": 2", "\"version\": 1"),
        )
        .unwrap();
        let back = TrajStore::open(&dir).unwrap();
        assert_eq!(back.stats().blocks, store.stats().blocks);
        for d in store.devices() {
            assert_eq!(
                back.time_slice(d, 0.0, 100.0),
                store.time_slice(d, 0.0, 100.0)
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_format_store_roundtrips() {
        use traj_model::codec::BlockFormat;
        let dir = std::env::temp_dir().join(format!("traj-store-mixed-{}", std::process::id()));
        // Build one store holding both formats: ingest even devices as
        // varint and odd devices as frame-of-reference, then merge the
        // sealed blocks under one log.
        let config = StoreConfig::default().with_block_segments(2);
        let mut varint = TrajStore::new(config.with_format(BlockFormat::Varint));
        let mut packed = TrajStore::new(config.with_format(BlockFormat::ForFixed));
        let mut points = 0usize;
        for d in 0..6u64 {
            let mut segments = Vec::new();
            for i in 0..5usize {
                let a = Point::new(i as f64 * 40.0, d as f64 * 300.0, i as f64 * 12.0);
                let b = Point::new(
                    (i + 1) as f64 * 40.0,
                    d as f64 * 300.0 + 3.0,
                    (i + 1) as f64 * 12.0,
                );
                segments.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
            }
            let st = SimplifiedTrajectory::new(segments, 6);
            points += 6;
            let target = if d % 2 == 0 { &mut varint } else { &mut packed };
            target.ingest(d, &st, 12.5).unwrap();
        }
        let mut store = TrajStore::new(config);
        for block in varint.into_blocks().chain(packed.into_blocks()) {
            store.append_block(block);
        }
        store.set_total_points(points);
        let formats: std::collections::BTreeSet<_> =
            store.stored_blocks().map(|b| b.format.tag()).collect();
        assert_eq!(formats.len(), 2, "store must actually hold both formats");
        store.save(&dir).unwrap();
        let back = TrajStore::open(&dir).unwrap();
        let want = crate::store::StoreStats {
            resident_bytes: 0,
            ..store.stats()
        };
        assert_eq!(back.stats(), want);
        for d in store.devices() {
            assert_eq!(
                back.time_slice(d, 0.0, 100.0),
                store.time_slice(d, 0.0, 100.0)
            );
            assert_eq!(back.block_metas(d), store.block_metas(d));
        }
        fs::remove_dir_all(&dir).ok();
    }
}
