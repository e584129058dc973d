//! Crash-recovery fault injection for the persistent store.
//!
//! A production store must survive what crashes and bit rot actually
//! produce: a `segments.log` truncated mid-record (torn append) and a
//! damaged `manifest.json`.  The contract under test:
//!
//! * strict [`ShardedStore::open_with`] either succeeds on exactly the persisted
//!   data or fails with a structured [`StoreError`] — never a panic, never
//!   silently wrong data;
//! * [`ShardedStore::open_recover_with`] additionally salvages the longest valid
//!   log prefix and reports precisely what it dropped;
//! * whatever opens (strictly or recovered) answers queries without
//!   panicking, and recovered data equals the intact store's prefix.

use std::fs;
use std::path::PathBuf;

use traj_data::rng::{Rng, SmallRng};
use traj_geo::{DirectedSegment, Point};
use traj_model::{BlockFormat, SimplifiedSegment, SimplifiedTrajectory};
use traj_store::{RecoveryReport, ShardedStore, StoreConfig, StoreError};

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "traj-fault-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The deterministic test fleet: six devices, eleven segments each (four
/// blocks per device at `block_segments = 3`, twelve original points).
fn device_streams() -> Vec<(u64, SimplifiedTrajectory)> {
    let mut rng = SmallRng::seed_from_u64(20260729);
    let mut fleet = Vec::new();
    for d in 0..6u64 {
        let mut segments = Vec::new();
        let mut prev = Point::new(rng.gen_range(-500.0..500.0), d as f64 * 400.0, 0.0);
        for i in 0..11usize {
            let next = Point::new(
                prev.x + rng.gen_range(20.0..180.0),
                prev.y + rng.gen_range(-40.0..40.0),
                prev.t + rng.gen_range(5.0..30.0),
            );
            segments.push(SimplifiedSegment::new(
                DirectedSegment::new(prev, next),
                i,
                i + 1,
            ));
            prev = next;
        }
        fleet.push((d, SimplifiedTrajectory::new(segments, 12)));
    }
    fleet
}

/// A deterministic multi-device store with several blocks per device,
/// encoded in the given block format.
fn build_store_fmt(format: BlockFormat) -> ShardedStore {
    let store = ShardedStore::new(
        StoreConfig::default()
            .with_block_segments(3)
            .with_format(format),
        1,
    );
    for (d, simplified) in device_streams() {
        store.ingest(d, &simplified, 15.0).unwrap();
    }
    store
}

/// The varint-format store most single-format tests use.
fn build_store() -> ShardedStore {
    build_store_fmt(BlockFormat::Varint)
}

/// A strict one-shard open.
fn open(dir: &Path) -> Result<ShardedStore, StoreError> {
    ShardedStore::open_with(dir, 1, StoreConfig::default())
}

/// A one-shard open in recovery mode.
fn open_recover(dir: &Path) -> Result<(ShardedStore, RecoveryReport), StoreError> {
    ShardedStore::open_recover_with(dir, 1, StoreConfig::default())
}

/// Byte offsets at which each log record starts, plus the total length.
fn record_offsets(log: &[u8]) -> Vec<usize> {
    use traj_model::codec::ByteReader;
    let mut offsets = Vec::new();
    let mut reader = ByteReader::new(log);
    while reader.remaining() > 0 {
        offsets.push(log.len() - reader.remaining());
        traj_store::Block::read_record(&mut reader, true).expect("intact log parses");
    }
    offsets
}

#[test]
fn truncation_at_every_byte_of_the_last_block_recovers_the_prefix() {
    for format in BlockFormat::ALL {
        truncation_sweep(format);
    }
}

/// Truncates the log at every byte of the last block of a store encoded
/// in `format` — both on-disk formats must recover the identical prefix.
fn truncation_sweep(format: BlockFormat) {
    let dir = scratch(&format!("truncate-{format}"));
    let store = build_store_fmt(format);
    store.save(&dir).unwrap();
    let log_path = dir.join("segments.log");
    let log = fs::read(&log_path).unwrap();
    let offsets = record_offsets(&log);
    let total_blocks = offsets.len();
    let last_start = *offsets.last().unwrap();

    for cut in last_start..log.len() {
        fs::write(&log_path, &log[..cut]).unwrap();
        // Strict open: clean structured error, never a panic.
        match open(&dir) {
            Err(StoreError::Corrupt(_)) | Err(StoreError::Io(_)) => {}
            Ok(_) => panic!("strict open accepted a log truncated at byte {cut}"),
            Err(other) => panic!("unexpected error class at byte {cut}: {other}"),
        }
        // Recovery: exactly the complete records before the cut.
        let (recovered, report) =
            open_recover(&dir).unwrap_or_else(|e| panic!("recovery failed at byte {cut}: {e}"));
        assert_eq!(recovered.stats().blocks, total_blocks - 1, "cut at {cut}");
        assert_eq!(report.blocks_recovered, total_blocks - 1);
        assert_eq!(report.manifest_blocks, total_blocks);
        assert_eq!(report.bytes_dropped, cut - last_start, "cut at {cut}");
        assert!(!report.is_clean());
        assert!(report.dropped_reason.is_some() || cut == last_start);
        // The salvaged prefix answers queries identically to the intact
        // store restricted to its blocks.
        for d in recovered.devices() {
            let a = recovered.time_slice(d, 0.0, 150.0);
            let b = store.time_slice(d, 0.0, 150.0);
            for s in &a.segments {
                assert!(b.segments.contains(s), "recovered data not a prefix");
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_record_boundary_recovers_exactly_those_records() {
    let dir = scratch("boundary");
    let store = build_store();
    store.save(&dir).unwrap();
    let log_path = dir.join("segments.log");
    let log = fs::read(&log_path).unwrap();
    let offsets = record_offsets(&log);

    for (kept, cut) in offsets.iter().copied().enumerate() {
        fs::write(&log_path, &log[..cut]).unwrap();
        let (recovered, report) = open_recover(&dir).unwrap();
        assert_eq!(recovered.stats().blocks, kept, "boundary cut at {cut}");
        assert_eq!(report.bytes_dropped, 0, "a boundary cut drops no bytes");
        assert!(!report.is_clean(), "missing records must be reported");
    }
    // Cut at the very end: clean.
    fs::write(&log_path, &log).unwrap();
    let (_, report) = open_recover(&dir).unwrap();
    assert!(report.is_clean());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_anywhere_in_the_log_never_panic_or_serve_unvalidated_data() {
    for format in BlockFormat::ALL {
        log_bit_flip_sweep(format);
    }
}

fn log_bit_flip_sweep(format: BlockFormat) {
    let dir = scratch(&format!("bitflip-{format}"));
    let store = build_store_fmt(format);
    store.save(&dir).unwrap();
    let log_path = dir.join("segments.log");
    let log = fs::read(&log_path).unwrap();

    let mut strict_ok = 0usize;
    for byte in 0..log.len() {
        for bit in [0u8, 3, 7] {
            let mut mutated = log.clone();
            mutated[byte] ^= 1 << bit;
            fs::write(&log_path, &mutated).unwrap();
            // Strict open: Ok (the flip landed somewhere harmless for
            // validation, e.g. widened a bounding box) or a clean error —
            // and an Ok store must answer queries without panicking.
            match open(&dir) {
                Ok(opened) => {
                    strict_ok += 1;
                    let w = traj_geo::BoundingBox {
                        min_x: -1000.0,
                        min_y: -1000.0,
                        max_x: 2000.0,
                        max_y: 3000.0,
                    };
                    let _ = opened.window_query(&w, Some((0.0, 200.0)));
                    for d in opened.devices() {
                        let _ = opened.time_slice(d, 10.0, 90.0);
                        let _ = opened.position_at(d, 42.0);
                    }
                }
                Err(StoreError::Corrupt(msg)) => {
                    assert!(!msg.is_empty());
                }
                Err(other) => panic!("unexpected error class: {other}"),
            }
            // Recovery must always produce a usable (possibly shorter)
            // store for a corrupt *log* (the manifest is intact here).
            let (recovered, _) =
                open_recover(&dir).expect("recovery never fails on log corruption");
            let _ = recovered.stats();
        }
    }
    // Sanity: the fuzz actually exercised both outcomes somewhere.
    assert!(strict_ok < log.len() * 3, "every flip opened strictly?");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifests_fail_cleanly_in_both_modes() {
    let dir = scratch("manifest");
    let store = build_store();
    store.save(&dir).unwrap();
    let manifest_path = dir.join("manifest.json");
    let manifest = fs::read_to_string(&manifest_path).unwrap();

    let corruptions: Vec<String> = vec![
        String::new(),   // empty file
        "{".to_string(), // unterminated
        "not json at all".to_string(),
        "[1,2,3]".to_string(),                          // wrong shape
        manifest.replace("\"version\"", "\"wersion\""), // missing key
        manifest.replace("\"version\": 2", "\"version\": 99"),
        manifest.replace("\"cell_size\": 500", "\"cell_size\": 0"),
        manifest.replace("\"cell_size\": 500", "\"cell_size\": -4"),
        manifest.replace("\"cell_size\": 500", "\"cell_size\": \"wide\""),
        manifest.replace("\"spatial_resolution\": 0.01", "\"spatial_resolution\": 0"),
        manifest.replace("\"time_resolution\": 0.001", "\"time_resolution\": -0.5"),
        manifest.replace("\"block_segments\": 3", "\"block_segments\": 0"),
    ];
    for (i, text) in corruptions.iter().enumerate() {
        assert_ne!(text, &manifest, "corruption {i} is a no-op");
        fs::write(&manifest_path, text).unwrap();
        for result in [open(&dir).map(|_| ()), open_recover(&dir).map(|_| ())] {
            match result {
                Err(StoreError::Corrupt(msg)) => assert!(!msg.is_empty(), "corruption {i}"),
                Ok(()) => panic!("corrupt manifest {i} accepted"),
                Err(other) => panic!("corruption {i}: unexpected error class {other}"),
            }
        }
    }

    // Random manifest bit flips: anything may happen except a panic or a
    // store whose queries then panic.
    let mut rng = SmallRng::seed_from_u64(5150);
    for _ in 0..500 {
        let mut bytes = manifest.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8u32);
        fs::write(&manifest_path, &bytes).unwrap();
        if let Ok(opened) = open(&dir) {
            let _ = opened.stats();
            for d in opened.devices() {
                let _ = opened.time_slice(d, 0.0, 100.0);
            }
        }
    }

    // Wrong-but-well-formed block count: strict rejects, recovery reports.
    fs::write(
        &manifest_path,
        manifest.replace("\"blocks\": 24", "\"blocks\": 7"),
    )
    .unwrap();
    assert!(matches!(open(&dir), Err(StoreError::Corrupt(_))));
    let (recovered, report) = open_recover(&dir).unwrap();
    assert_eq!(recovered.stats().blocks, 24);
    assert_eq!(report.manifest_blocks, 7);
    assert!(!report.is_clean());

    // Missing files.
    fs::remove_file(dir.join("segments.log")).unwrap();
    assert!(matches!(open_recover(&dir), Err(StoreError::Io(_))));
    fs::remove_dir_all(&dir).ok();
    assert!(matches!(open(&dir), Err(StoreError::Io(_))));
}

// ─────────────────────────── WAL fault injection ───────────────────────────
//
// The same discipline for the write-ahead log: torn tails at every byte,
// bit flips, duplicated records and stale segments must recover exactly
// the acknowledged-ingest prefix — never a panic, never a double apply.

use std::path::Path;
use std::time::Duration;

use traj_store::{DurabilityMode, Wal};

const DEVICES: usize = 6;
const BLOCKS_PER_DEVICE: usize = 4;
const POINTS_PER_DEVICE: usize = 12;

fn durable_config(format: BlockFormat) -> StoreConfig {
    StoreConfig::default()
        .with_block_segments(3)
        .with_format(format)
        .with_durability(DurabilityMode::WalGroupCommit(Duration::ZERO))
}

/// Builds a durable store whose six ingests live only in the WAL (no
/// checkpoint happened), returning the live segment's path.
fn build_walled(dir: &Path, format: BlockFormat) -> PathBuf {
    let (store, report) = ShardedStore::open_durable(dir, 2, durable_config(format)).unwrap();
    assert!(report.is_clean(), "fresh durable store must open clean");
    for (d, simplified) in device_streams() {
        store.ingest(d, &simplified, 15.0).unwrap();
    }
    drop(store);
    dir.join("wal").join("wal-000001.log")
}

/// Replays whatever WAL sits under `dir` into a fresh one-shard store — the
/// read-only half of recovery, so damaged inputs can be probed thousands
/// of times without re-copying the directory.
fn replay_fresh(dir: &Path) -> (ShardedStore, traj_store::WalReplayReport) {
    let mut store = ShardedStore::new(StoreConfig::default().with_block_segments(3), 1);
    let report = Wal::replay(dir, &mut store).expect("replay of a damaged-but-present wal");
    (store, report)
}

/// Byte offsets at which each WAL record starts (after the 20-byte
/// segment header): `[kind u8][len u32 LE][crc u32 LE][payload]`.
fn wal_record_offsets(wal: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 20;
    while at < wal.len() {
        offsets.push(at);
        let len = u32::from_le_bytes(wal[at + 1..at + 5].try_into().unwrap()) as usize;
        at += 9 + len;
    }
    assert_eq!(at, wal.len(), "intact wal parses exactly");
    offsets
}

#[test]
fn wal_torn_tail_at_every_byte_recovers_the_acked_ingest_prefix() {
    for format in BlockFormat::ALL {
        wal_torn_tail_sweep(format);
    }
}

fn wal_torn_tail_sweep(format: BlockFormat) {
    const REC_BEGIN_STREAM: u8 = 1;
    const REC_POINTS_BATCH: u8 = 3;
    let dir = scratch(&format!("wal-torn-{format}"));
    let wal_path = build_walled(&dir, format);
    let wal = fs::read(&wal_path).unwrap();
    let offsets = wal_record_offsets(&wal);
    let begins: Vec<usize> = offsets
        .iter()
        .copied()
        .filter(|&o| wal[o] == REC_BEGIN_STREAM)
        .collect();
    assert_eq!(begins.len(), DEVICES);

    // Every byte of the final ingest: it is never half-applied.
    let last_begin = *begins.last().unwrap();
    for cut in last_begin..wal.len() {
        fs::write(&wal_path, &wal[..cut]).unwrap();
        let (store, report) = replay_fresh(&dir);
        assert_eq!(report.ingests_replayed, DEVICES - 1, "cut at {cut}");
        assert_eq!(store.stats().blocks, (DEVICES - 1) * BLOCKS_PER_DEVICE);
        assert_eq!(store.stats().points, (DEVICES - 1) * POINTS_PER_DEVICE);
        // A cut exactly at the ingest boundary is indistinguishable from
        // a WAL that never saw the write — everything after it is torn.
        assert!(
            !report.is_clean() || cut == last_begin,
            "torn tail unreported ({cut})"
        );
    }

    // Every record boundary in the whole WAL: exactly the ingests whose
    // commit marker (points-batch) survived are applied — in ingest
    // order, so the store is always a prefix of the fleet.
    let ends: Vec<usize> = offsets[1..].iter().copied().chain([wal.len()]).collect();
    for cut in offsets.iter().copied().chain([wal.len()]) {
        fs::write(&wal_path, &wal[..cut]).unwrap();
        let committed = offsets
            .iter()
            .zip(&ends)
            .filter(|&(&o, &e)| wal[o] == REC_POINTS_BATCH && e <= cut)
            .count();
        let (store, report) = replay_fresh(&dir);
        assert_eq!(report.ingests_replayed, committed, "boundary cut at {cut}");
        assert_eq!(store.stats().blocks, committed * BLOCKS_PER_DEVICE);
        assert_eq!(report.bytes_dropped, 0, "a boundary cut drops no bytes");
        let devices = store.devices();
        assert_eq!(devices.len(), committed, "whole devices only");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_bit_flips_never_panic_and_never_double_apply() {
    for format in BlockFormat::ALL {
        wal_bit_flip_sweep(format);
    }
}

fn wal_bit_flip_sweep(format: BlockFormat) {
    let dir = scratch(&format!("wal-flip-{format}"));
    let wal_path = build_walled(&dir, format);
    let wal = fs::read(&wal_path).unwrap();

    let mut clean = 0usize;
    for byte in 0..wal.len() {
        for bit in [0u8, 4, 7] {
            let mut mutated = wal.clone();
            mutated[byte] ^= 1 << bit;
            fs::write(&wal_path, &mutated).unwrap();
            let mut store = ShardedStore::new(StoreConfig::default().with_block_segments(3), 1);
            match Wal::replay(&dir, &mut store) {
                Ok(report) => {
                    if report.is_clean() {
                        clean += 1;
                    }
                    // Whatever survived is a subset, applied at most once.
                    assert!(report.ingests_replayed <= DEVICES);
                    assert!(store.stats().blocks <= DEVICES * BLOCKS_PER_DEVICE);
                    assert!(store.stats().points <= DEVICES * POINTS_PER_DEVICE);
                    for d in store.devices() {
                        let _ = store.time_slice(d, 0.0, 200.0);
                    }
                }
                // A flip that fabricates a plausible-but-wrong header (e.g.
                // `base_blocks` ahead of the store) must refuse cleanly.
                Err(StoreError::Corrupt(msg)) => assert!(!msg.is_empty()),
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
    }
    // The checksums must have caught the flips in the record bodies: only
    // a tiny number of flips (those in already-ignored padding, of which
    // this format has none) may replay clean.
    assert_eq!(clean, 0, "every single-bit flip must be detected");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_duplicated_ingest_is_rejected_not_double_applied() {
    for format in BlockFormat::ALL {
        wal_duplicated_ingest_case(format);
    }
}

fn wal_duplicated_ingest_case(format: BlockFormat) {
    const REC_BEGIN_STREAM: u8 = 1;
    let dir = scratch(&format!("wal-dup-{format}"));
    let wal_path = build_walled(&dir, format);
    let wal = fs::read(&wal_path).unwrap();
    let last_begin = wal_record_offsets(&wal)
        .into_iter()
        .rfind(|&o| wal[o] == REC_BEGIN_STREAM)
        .unwrap();

    // A retried/double write of the final ingest: the bytes are valid,
    // the content is a replay of data the store already holds.
    let mut doubled = wal.clone();
    doubled.extend_from_slice(&wal[last_begin..]);
    fs::write(&wal_path, &doubled).unwrap();

    let (store, report) = replay_fresh(&dir);
    assert_eq!(report.ingests_replayed, DEVICES);
    assert_eq!(report.ingests_rejected, 1, "the duplicate must be rejected");
    assert_eq!(store.stats().blocks, DEVICES * BLOCKS_PER_DEVICE);
    assert_eq!(store.stats().points, DEVICES * POINTS_PER_DEVICE);

    // End to end: a durable open over the same bytes agrees.
    let (sharded, dreport) = ShardedStore::open_durable(&dir, 2, durable_config(format)).unwrap();
    assert_eq!(dreport.wal.ingests_rejected, 1);
    assert_eq!(sharded.stats().points, DEVICES * POINTS_PER_DEVICE);
    assert_eq!(sharded.stats().blocks, DEVICES * BLOCKS_PER_DEVICE);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_wal_segments_are_skipped_and_rolled_back_manifests_refused() {
    for format in BlockFormat::ALL {
        stale_wal_segment_case(format);
    }
}

fn stale_wal_segment_case(format: BlockFormat) {
    let dir = scratch(&format!("wal-stale-{format}"));
    let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config(format)).unwrap();
    for (d, simplified) in device_streams() {
        store.ingest(d, &simplified, 15.0).unwrap();
    }
    let live = dir.join("wal").join("wal-000001.log");
    let pre_checkpoint = fs::read(&live).unwrap();
    store.checkpoint().unwrap();
    drop(store);

    // Crash between checkpoint save and segment prune: the superseded
    // segment is back on disk next to the new one.  Its ingests are
    // already in `segments.log`; replaying them would double every block.
    fs::write(&live, &pre_checkpoint).unwrap();
    let (reopened, report) = ShardedStore::open_durable(&dir, 2, durable_config(format)).unwrap();
    assert_eq!(report.wal.segments_stale, 1, "old segment skipped whole");
    assert_eq!(report.wal.ingests_replayed, 0);
    assert_eq!(reopened.stats().points, DEVICES * POINTS_PER_DEVICE);
    assert_eq!(reopened.stats().blocks, DEVICES * BLOCKS_PER_DEVICE);
    drop(reopened);

    // The inverse skew — main files rolled back behind what the WAL
    // promises (the reopen above pruned down to one segment whose header
    // expects 24 blocks; now the store files vanish underneath it) — is
    // unrecoverable and must be refused, not guessed at.
    fs::remove_file(dir.join("manifest.json")).unwrap();
    fs::remove_file(dir.join("segments.log")).unwrap();
    match ShardedStore::open_durable(&dir, 2, durable_config(format)) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(
                msg.contains("rolled back"),
                "diagnostic names the cause: {msg}"
            )
        }
        Ok(_) => panic!("a rolled-back manifest must not open"),
        Err(other) => panic!("unexpected error class: {other}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_recover_matches_at_every_shard_count() {
    let dir = scratch("shard-recover");
    let store = build_store();
    store.save(&dir).unwrap();
    let log_path = dir.join("segments.log");
    let log = fs::read(&log_path).unwrap();
    // Tear the last record in half.
    let offsets = record_offsets(&log);
    let cut = (*offsets.last().unwrap() + log.len()) / 2;
    fs::write(&log_path, &log[..cut]).unwrap();

    assert!(ShardedStore::open_with(&dir, 4, StoreConfig::default()).is_err());
    let (sharded, report) =
        ShardedStore::open_recover_with(&dir, 4, StoreConfig::default()).unwrap();
    let (one, one_report) = open_recover(&dir).unwrap();
    assert_eq!(report, one_report);
    assert_eq!(sharded.stats(), one.stats());
    for d in one.devices() {
        assert_eq!(
            sharded.time_slice(d, 0.0, 200.0).segments,
            one.time_slice(d, 0.0, 200.0).segments
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// Crash recovery with a tiny bounded payload cache behaves exactly like
/// unbounded recovery: the pager only *reads* the log, and fault
/// injection covers writes, syncs and renames — so a 512-byte cap must
/// change nothing about what is salvaged or answered.
#[test]
fn recovery_under_a_tiny_cache_matches_unbounded_recovery() {
    for format in BlockFormat::ALL {
        // Torn checkpoint log → open_recover_with under a tiny cache.
        let dir = scratch(&format!("tiny-cache-{format}"));
        let store = build_store_fmt(format);
        store.save(&dir).unwrap();
        let log_path = dir.join("segments.log");
        let log = fs::read(&log_path).unwrap();
        let cut = *record_offsets(&log).last().unwrap() + 7;
        fs::write(&log_path, &log[..cut]).unwrap();

        let (unbounded, report) = open_recover(&dir).unwrap();
        let config = StoreConfig::default().with_cache_bytes(Some(512));
        let (bounded, brep) = ShardedStore::open_recover_with(&dir, 1, config).unwrap();
        assert_eq!(brep.blocks_recovered, report.blocks_recovered);
        assert_eq!(bounded.stats(), unbounded.stats());
        for d in unbounded.devices() {
            assert_eq!(
                bounded.time_slice(d, 0.0, 150.0),
                unbounded.time_slice(d, 0.0, 150.0),
                "salvaged answers diverged under the tiny cache"
            );
        }
        let cache = bounded.memory_stats().cache.expect("cache stats");
        assert!(cache.resident_bytes <= 512, "cap exceeded");
        fs::remove_dir_all(&dir).ok();

        // Torn WAL tail → open_durable with a bounded cache: the same
        // acknowledged prefix as a one-shard replay of the damaged WAL.
        let dir = scratch(&format!("tiny-cache-wal-{format}"));
        let wal_path = build_walled(&dir, format);
        let wal = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &wal[..wal.len() - 3]).unwrap();
        let (reference, _) = replay_fresh(&dir);
        let config = durable_config(format).with_cache_bytes(Some(512));
        let (durable, report) = ShardedStore::open_durable(&dir, 2, config).unwrap();
        assert!(!report.is_clean(), "a torn tail must be reported");
        let (got, want) = (durable.stats(), reference.stats());
        assert_eq!(got.points, want.points);
        assert_eq!(got.blocks, want.blocks);
        assert_eq!(got.devices, want.devices);
        for d in reference.devices() {
            assert_eq!(
                durable.time_slice(d, 0.0, 200.0).segments,
                reference.time_slice(d, 0.0, 200.0).segments,
                "replayed answers diverged under the tiny cache"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}
