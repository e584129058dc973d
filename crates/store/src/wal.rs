//! Write-ahead log for live ingest: durable acknowledgements with group
//! commit, replay-on-open, and deterministic crash-point injection.
//!
//! The store's main files (`manifest.json` + `segments.log`) are rewritten
//! only at a *checkpoint*, so without a WAL every ingest accepted since the
//! last checkpoint dies with the process.  The WAL closes that gap: an
//! ingest is acknowledged only after its records are appended to the live
//! WAL segment (and, depending on [`DurabilityMode`], fsynced), and
//! replay-on-open re-applies every committed ingest the main files do not
//! yet contain — recovery loses **zero acknowledged writes**.
//!
//! ```text
//! <dir>/wal/wal-000001.log        numbered WAL segments
//!
//! segment  = header (magic, base_blocks, crc) + record*
//! record   = kind(1) + len(u32 LE) + crc32(u32 LE) + payload
//!
//! one ingest = BeginStream(device, ζ) + SealBlock(block)* + PointsBatch(device, n)
//!              └──────────── appended as ONE write, committed by PointsBatch ─────┘
//! ```
//!
//! * **Torn-write detection**: every record carries a CRC-32 over its kind
//!   and payload; a record whose length prefix runs past the end of the
//!   file, or whose checksum disagrees, ends replay at that point — the
//!   classic torn tail a crash mid-append leaves behind.  An ingest is one
//!   contiguous run of records terminated by its `PointsBatch` commit
//!   marker, so replay applies ingests atomically: all blocks or none.
//! * **Group commit**: in [`DurabilityMode::WalGroupCommit`] a dedicated
//!   syncer thread batches the appends of concurrent shard writers into
//!   one `sync_all`, waiting up to the configured window for more writers
//!   to pile on.  Each writer blocks until the sync covering its append
//!   completes — one fsync acknowledges many ingests.
//! * **Checkpoint pruning**: a checkpoint atomically rewrites the main
//!   store files, then starts a fresh WAL segment whose header records the
//!   store's block count (`base_blocks`) and deletes the old segments.
//!   Replay skips any segment whose `base_blocks` is below the recovered
//!   store's block count — those ingests are already in `segments.log`, so
//!   a crash between "save" and "prune" can never double-apply.
//!
//! The [`fault`] submodule is the correctness engine behind all of this: a
//! process-global crash-point injection layer that every durable write,
//! sync, and rename in this crate routes through.  Armed by the crash
//! sweep test, it can kill, tear, or drop the I/O at every numbered site;
//! disarmed (the default) it is a single relaxed atomic load per call.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use traj_model::codec::{get_varint, put_varint, ByteReader};
use traj_obs::{Histogram, HistogramSnapshot, Snapshot};

use crate::block::Block;
use crate::shard::ShardedStore;
use crate::store::StoreError;

/// How the store acknowledges live ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No write-ahead log: ingest is acknowledged from memory and
    /// everything since the last checkpoint dies with the process.  The
    /// seed behaviour, and the right choice for bulk offline loads that
    /// end in an explicit save.
    #[default]
    None,
    /// Append every ingest to the WAL before acknowledging, but leave
    /// fsync to the operating system.  Survives a process crash (the data
    /// reached the kernel), not a power cut.
    WalAsync,
    /// Append, then block the acknowledgement until a dedicated syncer
    /// thread has fsynced past the append.  The syncer waits up to the
    /// given window so concurrent writers share one `sync_all` (group
    /// commit); `Duration::ZERO` degenerates to per-write fsync.
    WalGroupCommit(Duration),
}

impl DurabilityMode {
    /// Short lowercase name for stats and logs.
    pub fn name(&self) -> &'static str {
        match self {
            DurabilityMode::None => "none",
            DurabilityMode::WalAsync => "wal-async",
            DurabilityMode::WalGroupCommit(_) => "wal-group-commit",
        }
    }
}

/// Magic of version-1 segments, whose seal-block records are untagged
/// (implicitly varint payloads).  Still accepted on replay.
const SEGMENT_MAGIC_V1: &[u8; 8] = b"TSWAL1\0\n";
/// Magic of the segments this build writes: seal-block records carry a
/// block-format tag byte.
const SEGMENT_MAGIC: &[u8; 8] = b"TSWAL2\0\n";
const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";
/// `kind` byte of each record.
const REC_BEGIN_STREAM: u8 = 1;
const REC_SEAL_BLOCK: u8 = 2;
const REC_POINTS_BATCH: u8 = 3;
const REC_CHECKPOINT: u8 = 4;
/// Upper bound on a single record payload — anything larger is corruption,
/// not data (a block is a few KiB).
const MAX_RECORD_BYTES: usize = 1 << 30;

fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

// ───────────────────────────── CRC-32 ──────────────────────────────────

/// IEEE CRC-32 lookup table, built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 over `bytes`, continuing from `seed` (start with 0).
pub(crate) fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut c = !seed;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ─────────────────────── crash-point injection ─────────────────────────

/// Deterministic crash-point injection for every durable I/O site.
///
/// Production code calls the crate-private `guarded_write`,
/// `guarded_sync`, `guarded_rename` and `guarded_sync_dir` in here
/// instead of the raw `std::fs` operations.  Disarmed (the default) these
/// forward directly after one relaxed atomic load.  A test arms a
/// [`FaultPlan`](fault::FaultPlan)
/// to simulate a crash at the N-th site: the designated operation is
/// dropped, torn (first half of the buffer only), or completed, and every
/// later site fails — from that moment the process behaves as if it died,
/// because nothing further reaches disk.  The test then drops all store
/// handles and re-opens, exactly like a restart after a real crash.
///
/// The plan is process-global (the group-commit syncer thread must see it
/// too), so tests that arm it must serialize among themselves.
pub mod fault {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// What happens to the I/O at the designated crash site.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CrashMode {
        /// The operation never reaches disk (crash just before it).
        DropOp,
        /// A write persists only its first half (torn sector); syncs and
        /// renames behave like [`CrashMode::DropOp`].
        Tear,
        /// The operation completes, then the process "dies" (crash just
        /// after — the acknowledgement may still be lost in flight).
        AfterOp,
    }

    /// A simulated crash at the `crash_at`-th guarded I/O site (0-based).
    /// Use `crash_at: usize::MAX` to count sites without crashing.
    #[derive(Debug, Clone, Copy)]
    pub struct FaultPlan {
        /// Index of the site to crash at, counted from [`arm`].
        pub crash_at: usize,
        /// How the site fails.
        pub mode: CrashMode,
    }

    struct State {
        plan: Option<FaultPlan>,
        ops: usize,
        crashed: bool,
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<State> = Mutex::new(State {
        plan: None,
        ops: 0,
        crashed: false,
    });

    /// Arms `plan`, resetting the site counter.
    pub fn arm(plan: FaultPlan) {
        let mut st = STATE.lock().expect("fault state poisoned");
        st.plan = Some(plan);
        st.ops = 0;
        st.crashed = false;
        ACTIVE.store(true, Ordering::SeqCst);
    }

    /// Disarms injection and returns how many sites were counted since
    /// [`arm`].
    pub fn disarm() -> usize {
        let mut st = STATE.lock().expect("fault state poisoned");
        let ops = st.ops;
        st.plan = None;
        st.ops = 0;
        st.crashed = false;
        ACTIVE.store(false, Ordering::SeqCst);
        ops
    }

    /// `true` once the armed crash site has been hit (the simulated
    /// process is "dead" and every later durable I/O fails).
    pub fn crashed() -> bool {
        ACTIVE.load(Ordering::SeqCst) && STATE.lock().expect("fault state poisoned").crashed
    }

    fn dead() -> std::io::Error {
        std::io::Error::other("simulated crash (fault injection)")
    }

    /// Consults the plan at one site.  Returns `Ok(None)` to perform the
    /// operation normally, `Ok(Some(mode))` to perform it *as the crash
    /// site* (the caller applies the mode and must then fail), or `Err`
    /// when the process already crashed.
    fn check_site() -> std::io::Result<Option<CrashMode>> {
        if !ACTIVE.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let mut st = STATE.lock().expect("fault state poisoned");
        if st.crashed {
            return Err(dead());
        }
        let site = st.ops;
        st.ops += 1;
        match st.plan {
            Some(plan) if plan.crash_at == site => {
                st.crashed = true;
                Ok(Some(plan.mode))
            }
            _ => Ok(None),
        }
    }

    /// A write site: appends `buf` to `file` (fully, torn, or not at all).
    pub(crate) fn guarded_write(mut file: &std::fs::File, buf: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        match check_site()? {
            None => file.write_all(buf),
            Some(CrashMode::DropOp) => Err(dead()),
            Some(CrashMode::Tear) => {
                file.write_all(&buf[..buf.len() / 2])?;
                Err(dead())
            }
            Some(CrashMode::AfterOp) => {
                file.write_all(buf)?;
                Err(dead())
            }
        }
    }

    /// A sync site: `sync_all` on `file`.
    pub(crate) fn guarded_sync(file: &std::fs::File) -> std::io::Result<()> {
        match check_site()? {
            None => file.sync_all(),
            Some(CrashMode::AfterOp) => {
                file.sync_all()?;
                Err(dead())
            }
            Some(_) => Err(dead()),
        }
    }

    /// A rename site (the atomic commit point of a file replacement).
    pub(crate) fn guarded_rename(
        from: &std::path::Path,
        to: &std::path::Path,
    ) -> std::io::Result<()> {
        match check_site()? {
            None => std::fs::rename(from, to),
            Some(CrashMode::AfterOp) => {
                std::fs::rename(from, to)?;
                Err(dead())
            }
            Some(_) => Err(dead()),
        }
    }

    /// A directory-sync site: fsync on the directory so renames and
    /// unlinks inside it are durable.
    pub(crate) fn guarded_sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
        match check_site()? {
            None => std::fs::File::open(dir)?.sync_all(),
            Some(CrashMode::AfterOp) => {
                std::fs::File::open(dir)?.sync_all()?;
                Err(dead())
            }
            Some(_) => Err(dead()),
        }
    }
}

// ───────────────────────── record encoding ─────────────────────────────

/// Appends one framed record (`kind + len + crc + payload`) to `out`.
fn put_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(crc32(0, &[kind]), payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes one complete ingest (begin + blocks + commit marker) onto
/// `out` — the unit [`Wal::append_ingest`] writes and replay applies
/// atomically.
fn put_ingest(out: &mut Vec<u8>, device: u64, zeta: f64, blocks: &[Block], original_len: usize) {
    let mut payload = Vec::new();
    put_varint(&mut payload, device);
    payload.extend_from_slice(&zeta.to_le_bytes());
    put_record(out, REC_BEGIN_STREAM, &payload);
    let mut block_record = Vec::new();
    for block in blocks {
        block_record.clear();
        block.write_record(&mut block_record);
        put_record(out, REC_SEAL_BLOCK, &block_record);
    }
    payload.clear();
    put_varint(&mut payload, device);
    put_varint(&mut payload, original_len as u64);
    put_record(out, REC_POINTS_BATCH, &payload);
}

/// One parsed WAL record.
enum Record {
    BeginStream { device: u64, zeta: f64 },
    SealBlock(Block),
    PointsBatch { device: u64, original_len: usize },
    Checkpoint { blocks: usize },
}

/// Reads one record from `bytes[pos..]`.  `Ok(None)` at a clean end of
/// input; `Err(reason)` on a torn or corrupt record (replay stops there).
/// `tagged` selects the seal-block layout of the segment's header version.
fn read_record(bytes: &[u8], pos: &mut usize, tagged: bool) -> Result<Option<Record>, String> {
    if *pos == bytes.len() {
        return Ok(None);
    }
    let rest = &bytes[*pos..];
    if rest.len() < 9 {
        return Err(format!("torn record header ({} bytes at tail)", rest.len()));
    }
    let kind = rest[0];
    let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(rest[5..9].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(format!("record length {len} exceeds the sanity bound"));
    }
    if rest.len() - 9 < len {
        return Err(format!(
            "torn record payload (promises {len} bytes, {} remain)",
            rest.len() - 9
        ));
    }
    let payload = &rest[9..9 + len];
    if crc32(crc32(0, &[kind]), payload) != crc {
        return Err("record checksum mismatch".to_string());
    }
    *pos += 9 + len;
    let mut r = ByteReader::new(payload);
    let record = match kind {
        REC_BEGIN_STREAM => {
            let device = get_varint(&mut r).map_err(|e| format!("begin-stream: {e}"))?;
            let raw: [u8; 8] = r
                .get_bytes(8)
                .map_err(|e| format!("begin-stream: {e}"))?
                .try_into()
                .expect("8 bytes");
            Record::BeginStream {
                device,
                zeta: f64::from_le_bytes(raw),
            }
        }
        REC_SEAL_BLOCK => {
            let block =
                Block::read_record(&mut r, tagged).map_err(|e| format!("seal-block: {e}"))?;
            if r.remaining() != 0 {
                return Err("seal-block: trailing bytes".to_string());
            }
            Record::SealBlock(block)
        }
        REC_POINTS_BATCH => {
            let device = get_varint(&mut r).map_err(|e| format!("points-batch: {e}"))?;
            let original_len =
                get_varint(&mut r).map_err(|e| format!("points-batch: {e}"))? as usize;
            Record::PointsBatch {
                device,
                original_len,
            }
        }
        REC_CHECKPOINT => {
            let blocks = get_varint(&mut r).map_err(|e| format!("checkpoint: {e}"))? as usize;
            Record::Checkpoint { blocks }
        }
        other => return Err(format!("unknown record kind {other}")),
    };
    Ok(Some(record))
}

// ─────────────────────────── the writer ────────────────────────────────

/// State behind the append mutex: the live segment file and its position.
#[derive(Debug)]
struct WalInner {
    file: Arc<fs::File>,
    seq: u64,
    segment_bytes: u64,
}

/// Group-commit handshake between writers and the syncer thread.
#[derive(Debug)]
struct SyncState {
    appended_lsn: u64,
    synced_lsn: u64,
    shutdown: bool,
    /// A failed sync is sticky: once the log cannot be made durable, no
    /// later acknowledgement may succeed.
    error: Option<String>,
}

#[derive(Debug)]
struct SyncShared {
    state: Mutex<SyncState>,
    appended: Condvar,
    synced: Condvar,
    /// Sync latency distribution, recorded lock-free by the syncer; its
    /// count doubles as the sync counter.
    latency: Histogram,
}

/// Point-in-time WAL counters, surfaced through `/stats` and the bench.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalStats {
    /// Durability mode name (`none` / `wal-async` / `wal-group-commit`).
    pub mode: &'static str,
    /// Bytes in the live WAL segment (header + records).
    pub wal_bytes: u64,
    /// Ingests appended since open.
    pub ingests_appended: u64,
    /// Records appended since open (3 + blocks per ingest).
    pub records_appended: u64,
    /// Group-commit `sync_all` calls since open: the count of
    /// `sync_latency`.
    pub syncs: u64,
    /// The sync latencies in microseconds, in power-of-two buckets
    /// (quantiles come back as bucket upper bounds).
    pub sync_latency: HistogramSnapshot,
    /// Records replayed from the WAL when the store was opened.
    pub records_replayed: usize,
    /// Ingests replayed from the WAL when the store was opened.
    pub ingests_replayed: usize,
    /// Checkpoints (segment rotations) since open.
    pub checkpoints: u64,
}

/// The write-ahead log of one durable store: a live segment file, an
/// append path shared by all shard writers, and (in group-commit mode) a
/// syncer thread batching their fsyncs.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    mode: DurabilityMode,
    inner: Mutex<WalInner>,
    /// The live segment file handle, mirrored outside the append mutex so
    /// the syncer thread never contends with writers for it.
    file_mirror: Arc<Mutex<Arc<fs::File>>>,
    sync: Arc<SyncShared>,
    syncer: Option<JoinHandle<()>>,
    ingests_appended: AtomicU64,
    records_appended: AtomicU64,
    checkpoints: AtomicU64,
    records_replayed: usize,
    ingests_replayed: usize,
}

/// What [`Wal::replay`] found and applied.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalReplayReport {
    /// Segment files inspected.
    pub segments_scanned: usize,
    /// Segments skipped because their `base_blocks` predates the store
    /// (their ingests were already checkpointed into `segments.log`).
    pub segments_stale: usize,
    /// Records applied or accepted.
    pub records_replayed: usize,
    /// Complete ingests re-applied to the store.
    pub ingests_replayed: usize,
    /// Complete ingests that failed validation (duplicate or out-of-order
    /// replays) and were skipped — never applied twice.
    pub ingests_rejected: usize,
    /// Ingests whose commit marker never made it to disk (unacknowledged
    /// tails, dropped cleanly).
    pub ingests_incomplete: usize,
    /// Original points restored through replayed ingests.
    pub points_replayed: usize,
    /// Bytes of torn or corrupt tail ignored.
    pub bytes_dropped: u64,
    /// Why replay stopped early, when it did.
    pub dropped_reason: Option<String>,
}

impl WalReplayReport {
    /// `true` when the WAL was empty or replayed without drops.
    pub fn is_clean(&self) -> bool {
        self.bytes_dropped == 0
            && self.dropped_reason.is_none()
            && self.ingests_rejected == 0
            && self.ingests_incomplete == 0
    }
}

/// Path of segment `seq` inside `wal_dir`.
fn segment_path(wal_dir: &Path, seq: u64) -> PathBuf {
    wal_dir.join(format!("{SEGMENT_PREFIX}{seq:06}{SEGMENT_SUFFIX}"))
}

/// The `(seq, path)` of every WAL segment in `wal_dir`, ascending.
fn list_segments(wal_dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(wal_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read wal directory", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read wal directory", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((seq, entry.path()));
    }
    out.sort_unstable();
    Ok(out)
}

/// Serialized segment header: magic + base_blocks + crc.
fn segment_header(base_blocks: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&base_blocks.to_le_bytes());
    out.extend_from_slice(&crc32(0, &base_blocks.to_le_bytes()).to_le_bytes());
    out
}

/// Parses a segment header, returning `(base_blocks, tagged)` — `tagged`
/// is `false` for version-1 segments, whose seal-block records carry no
/// format tag.
fn parse_segment_header(bytes: &[u8]) -> Result<(u64, bool), String> {
    if bytes.len() < 20 {
        return Err("torn segment header".to_string());
    }
    let tagged = match &bytes[..8] {
        m if m == SEGMENT_MAGIC => true,
        m if m == SEGMENT_MAGIC_V1 => false,
        _ => return Err("bad segment magic".to_string()),
    };
    let base = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(0, &bytes[8..16]) != crc {
        return Err("segment header checksum mismatch".to_string());
    }
    Ok((base, tagged))
}

impl Wal {
    /// Replays the WAL under `store_dir` into `store` (already loaded from
    /// the main files).  Stale segments — checkpointed before the crash —
    /// are skipped whole; in the live segment every *committed* ingest is
    /// validated and re-applied, incomplete or torn tails are dropped, and
    /// duplicate/out-of-order ingests (e.g. a crash between checkpoint
    /// save and prune, or corrupt duplication) are rejected rather than
    /// double-applied.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when a segment claims a `base_blocks`
    /// *ahead* of the recovered store (the main files must have been
    /// rolled back by hand — refusing is the only safe answer).
    pub fn replay(
        store_dir: &Path,
        store: &mut ShardedStore,
    ) -> Result<WalReplayReport, StoreError> {
        let wal_dir = store_dir.join("wal");
        let mut report = WalReplayReport::default();
        let segments = list_segments(&wal_dir)?;
        for (seq, path) in segments {
            report.segments_scanned += 1;
            let bytes = fs::read(&path).map_err(|e| io_err("read wal segment", e))?;
            let (base, tagged) = match parse_segment_header(&bytes) {
                Ok(parsed) => parsed,
                Err(reason) => {
                    // A segment with an unreadable header was mid-creation
                    // when the process died; rotation had not completed, so
                    // no acknowledged ingest can live in it.
                    report.bytes_dropped += bytes.len() as u64;
                    report.dropped_reason = Some(format!("segment {seq}: {reason}"));
                    break;
                }
            };
            if (base as usize) < store.num_blocks() {
                report.segments_stale += 1;
                continue;
            }
            if base as usize > store.num_blocks() {
                return Err(StoreError::Corrupt(format!(
                    "wal segment {seq} expects a store of {base} blocks but the main files hold \
                     {} — the manifest appears to have been rolled back",
                    store.num_blocks()
                )));
            }
            let stopped = Self::replay_segment(&bytes[20..], store, &mut report, seq, tagged);
            if stopped {
                break;
            }
        }
        Ok(report)
    }

    /// Replays the record bytes of one live segment.  Returns `true` when
    /// replay must stop (torn tail found).
    fn replay_segment(
        bytes: &[u8],
        store: &mut ShardedStore,
        report: &mut WalReplayReport,
        seq: u64,
        tagged: bool,
    ) -> bool {
        let mut pos = 0usize;
        let mut pending: Option<(u64, f64, Vec<Block>)> = None;
        loop {
            let record_start = pos;
            match read_record(bytes, &mut pos, tagged) {
                Ok(None) => {
                    if pending.is_some() {
                        // Appended but never committed: the writer was never
                        // acknowledged, so dropping is correct (and the only
                        // consistent choice).
                        report.ingests_incomplete += 1;
                    }
                    return false;
                }
                Err(reason) => {
                    if pending.is_some() {
                        report.ingests_incomplete += 1;
                    }
                    report.bytes_dropped += (bytes.len() - record_start) as u64;
                    report.dropped_reason = Some(format!("segment {seq}: {reason}"));
                    return true;
                }
                Ok(Some(Record::Checkpoint { blocks })) => {
                    if blocks != store.num_blocks() {
                        report.bytes_dropped += (bytes.len() - record_start) as u64;
                        report.dropped_reason = Some(format!(
                            "segment {seq}: checkpoint record promises {blocks} blocks, store \
                             holds {}",
                            store.num_blocks()
                        ));
                        return true;
                    }
                    report.records_replayed += 1;
                }
                Ok(Some(Record::BeginStream { device, zeta })) => {
                    if pending.is_some() {
                        report.bytes_dropped += (bytes.len() - record_start) as u64;
                        report.dropped_reason =
                            Some(format!("segment {seq}: begin-stream inside an open ingest"));
                        return true;
                    }
                    report.records_replayed += 1;
                    pending = Some((device, zeta, Vec::new()));
                }
                Ok(Some(Record::SealBlock(block))) => {
                    let Some((device, _, blocks)) = &mut pending else {
                        report.bytes_dropped += (bytes.len() - record_start) as u64;
                        report.dropped_reason =
                            Some(format!("segment {seq}: seal-block outside an ingest"));
                        return true;
                    };
                    if block.meta.device != *device {
                        report.bytes_dropped += (bytes.len() - record_start) as u64;
                        report.dropped_reason = Some(format!(
                            "segment {seq}: seal-block for device {} inside an ingest for {device}",
                            block.meta.device
                        ));
                        return true;
                    }
                    report.records_replayed += 1;
                    blocks.push(block);
                }
                Ok(Some(Record::PointsBatch {
                    device,
                    original_len,
                })) => {
                    let Some((pending_device, _zeta, blocks)) = pending.take() else {
                        report.bytes_dropped += (bytes.len() - record_start) as u64;
                        report.dropped_reason =
                            Some(format!("segment {seq}: points-batch outside an ingest"));
                        return true;
                    };
                    if device != pending_device {
                        report.bytes_dropped += (bytes.len() - record_start) as u64;
                        report.dropped_reason = Some(format!(
                            "segment {seq}: points-batch for device {device} commits an ingest \
                             for {pending_device}"
                        ));
                        return true;
                    }
                    report.records_replayed += 1;
                    if Self::apply_ingest(store, &blocks) {
                        report.ingests_replayed += 1;
                        report.points_replayed += original_len;
                        store.shard_mut(device).add_total_points(original_len);
                    } else {
                        report.ingests_rejected += 1;
                    }
                }
            }
        }
    }

    /// Validates and applies one committed ingest's blocks.  Returns
    /// `false` (ingest rejected, store untouched) when any block fails
    /// decode/metadata validation or would violate the per-device
    /// append-only-in-time order — the latter is exactly what a duplicated
    /// or double-applied ingest looks like.
    fn apply_ingest(store: &mut ShardedStore, blocks: &[Block]) -> bool {
        if blocks.is_empty() {
            return false;
        }
        let codec = store.config().codec;
        let mut last_t_min: HashMap<u64, f64> = HashMap::new();
        for block in blocks {
            if crate::persist::validate_block(block, &codec).is_err() {
                return false;
            }
            let device = block.meta.device;
            let tail = store
                .shard_mut(device)
                .device_log(device)
                .last()
                .map(|b| b.meta);
            let floor = last_t_min.get(&device).copied().or(tail.map(|m| m.t_min));
            if let Some(t) = floor {
                if block.meta.t_min < t {
                    return false;
                }
            }
            // A duplicate of the device's current tail has an equal t_min;
            // an identical last block is the signature of a double apply.
            if !last_t_min.contains_key(&device) && tail == Some(block.meta) {
                return false;
            }
            last_t_min.insert(device, block.meta.t_min);
        }
        for block in blocks {
            store
                .shard_mut(block.meta.device)
                .append_block(block.clone());
        }
        true
    }

    /// Creates the next WAL segment (pruning every older one) and starts
    /// the writer.  Call after the main store files are durable at
    /// `base_blocks` blocks — the fresh segment records that baseline in
    /// its header, which is what makes stale segments detectable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn start(
        store_dir: &Path,
        base_blocks: usize,
        mode: DurabilityMode,
    ) -> Result<Wal, StoreError> {
        assert!(
            mode != DurabilityMode::None,
            "a WAL in DurabilityMode::None is a contradiction"
        );
        let wal_dir = store_dir.join("wal");
        fs::create_dir_all(&wal_dir).map_err(|e| io_err("create wal directory", e))?;
        let old = list_segments(&wal_dir)?;
        let seq = old.last().map_or(1, |(s, _)| s + 1);
        let (file, bytes) = Self::create_segment(&wal_dir, seq, base_blocks, 0)?;
        for (_, path) in &old {
            fs::remove_file(path).map_err(|e| io_err("prune wal segment", e))?;
        }
        fault::guarded_sync_dir(&wal_dir).map_err(|e| io_err("sync wal directory", e))?;

        let sync = Arc::new(SyncShared {
            state: Mutex::new(SyncState {
                appended_lsn: 0,
                synced_lsn: 0,
                shutdown: false,
                error: None,
            }),
            appended: Condvar::new(),
            synced: Condvar::new(),
            latency: Histogram::new(),
        });
        let file = Arc::new(file);
        let file_mirror = Arc::new(Mutex::new(Arc::clone(&file)));
        let inner = Mutex::new(WalInner {
            file,
            seq,
            segment_bytes: bytes,
        });
        let mut wal = Wal {
            dir: wal_dir,
            mode,
            inner,
            file_mirror,
            sync,
            syncer: None,
            ingests_appended: AtomicU64::new(0),
            records_appended: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            records_replayed: 0,
            ingests_replayed: 0,
        };
        if let DurabilityMode::WalGroupCommit(window) = mode {
            wal.spawn_syncer(window);
        }
        Ok(wal)
    }

    /// Records what replay found so `/stats` can expose it.
    pub(crate) fn set_replayed(&mut self, report: &WalReplayReport) {
        self.records_replayed = report.records_replayed;
        self.ingests_replayed = report.ingests_replayed;
    }

    /// Writes segment `seq` with its header (+ a checkpoint record when
    /// `checkpoint_blocks > 0` or a rotation is in progress), fsynced.
    fn create_segment(
        wal_dir: &Path,
        seq: u64,
        base_blocks: usize,
        checkpoints_so_far: u64,
    ) -> Result<(fs::File, u64), StoreError> {
        let path = segment_path(wal_dir, seq);
        let file = fs::File::create(&path).map_err(|e| io_err("create wal segment", e))?;
        let mut bytes = segment_header(base_blocks as u64);
        // The checkpoint record cross-validates the header: replay checks
        // it against the recovered store's block count.
        if checkpoints_so_far > 0 || seq > 1 {
            let mut payload = Vec::new();
            put_varint(&mut payload, base_blocks as u64);
            put_record(&mut bytes, REC_CHECKPOINT, &payload);
        }
        fault::guarded_write(&file, &bytes).map_err(|e| io_err("write wal segment header", e))?;
        fault::guarded_sync(&file).map_err(|e| io_err("sync wal segment header", e))?;
        let len = bytes.len() as u64;
        Ok((file, len))
    }

    fn spawn_syncer(&mut self, window: Duration) {
        let sync = Arc::clone(&self.sync);
        // The syncer re-reads the mirrored file handle each round, so a
        // rotation takes effect on its next sync.
        let file_source = Arc::clone(&self.file_mirror);
        self.syncer = Some(
            std::thread::Builder::new()
                .name("traj-store-wal-sync".to_string())
                .spawn(move || syncer_loop(&sync, &file_source, window))
                .expect("spawn wal syncer thread"),
        );
    }

    /// Appends one prepared ingest and, depending on the mode, waits for
    /// it to be durable.  On success the caller may acknowledge the write.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the append or its sync fails — the ingest
    /// must then **not** be applied or acknowledged.
    pub fn append_ingest(
        &self,
        device: u64,
        zeta: f64,
        blocks: &[Block],
        original_len: usize,
    ) -> Result<(), StoreError> {
        let mut span = traj_obs::span("wal_append");
        span.attr("blocks", blocks.len());
        let mut buf =
            Vec::with_capacity(64 + blocks.iter().map(|b| b.payload.len() + 96).sum::<usize>());
        put_ingest(&mut buf, device, zeta, blocks, original_len);
        let lsn = {
            let mut inner = self.inner.lock().expect("wal mutex poisoned");
            fault::guarded_write(&inner.file, &buf).map_err(|e| io_err("append wal record", e))?;
            inner.segment_bytes += buf.len() as u64;
            let mut st = self.sync.state.lock().expect("wal sync state poisoned");
            st.appended_lsn += buf.len() as u64;
            let lsn = st.appended_lsn;
            self.sync.appended.notify_one();
            lsn
        };
        self.ingests_appended.fetch_add(1, Ordering::Relaxed);
        self.records_appended
            .fetch_add(2 + blocks.len() as u64, Ordering::Relaxed);
        match self.mode {
            DurabilityMode::None => unreachable!("checked at construction"),
            DurabilityMode::WalAsync => Ok(()),
            DurabilityMode::WalGroupCommit(_) => {
                let _span = traj_obs::span("wal_commit_wait");
                self.wait_synced(lsn)
            }
        }
    }

    /// Blocks until the syncer has fsynced past `lsn` (or failed).
    fn wait_synced(&self, lsn: u64) -> Result<(), StoreError> {
        let mut st = self.sync.state.lock().expect("wal sync state poisoned");
        loop {
            if let Some(e) = &st.error {
                return Err(StoreError::Io(format!("wal sync failed: {e}")));
            }
            if st.synced_lsn >= lsn {
                return Ok(());
            }
            st = self.sync.synced.wait(st).expect("wal sync state poisoned");
        }
    }

    /// Rotates to a fresh segment recording `base_blocks` and prunes every
    /// older segment — the WAL half of a checkpoint.  The caller must have
    /// made the main store files durable at `base_blocks` first, and must
    /// exclude concurrent appends (the sharded store's checkpoint gate).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn rotate(&self, base_blocks: usize) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("wal mutex poisoned");
        let seq = inner.seq + 1;
        let checkpoints = self.checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
        let (file, bytes) = Self::create_segment(&self.dir, seq, base_blocks, checkpoints)?;
        let old_path = segment_path(&self.dir, inner.seq);
        inner.file = Arc::new(file);
        inner.seq = seq;
        inner.segment_bytes = bytes;
        *self.file_mirror.lock().expect("wal mirror poisoned") = Arc::clone(&inner.file);
        // Everything appended so far is covered by the checkpointed main
        // files; mark it synced so no writer (or the syncer) waits on the
        // pruned segment.
        {
            let mut st = self.sync.state.lock().expect("wal sync state poisoned");
            st.synced_lsn = st.appended_lsn;
            self.sync.synced.notify_all();
        }
        fs::remove_file(&old_path).map_err(|e| io_err("prune wal segment", e))?;
        fault::guarded_sync_dir(&self.dir).map_err(|e| io_err("sync wal directory", e))?;
        Ok(())
    }

    /// A snapshot of the WAL counters.
    pub fn stats(&self) -> WalStats {
        let (wal_bytes,) = {
            let inner = self.inner.lock().expect("wal mutex poisoned");
            (inner.segment_bytes,)
        };
        let latency = self.sync.latency.snapshot();
        WalStats {
            mode: self.mode.name(),
            wal_bytes,
            ingests_appended: self.ingests_appended.load(Ordering::Relaxed),
            records_appended: self.records_appended.load(Ordering::Relaxed),
            syncs: latency.count(),
            sync_latency: latency,
            records_replayed: self.records_replayed,
            ingests_replayed: self.ingests_replayed,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// The durability mode this WAL runs in.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }
}

impl WalStats {
    /// Puts the log's `wal_*` series, labelled by its mode, into a metrics
    /// snapshot.
    pub fn export(&self, series: &mut Snapshot) {
        let labels = [("mode", self.mode)];
        series.put_counter(
            "wal_appends_total",
            "Ingest batches appended to the write-ahead log.",
            &labels,
            self.ingests_appended,
        );
        series.put_counter(
            "wal_records_total",
            "Records appended to the write-ahead log.",
            &labels,
            self.records_appended,
        );
        series.put_counter(
            "wal_syncs_total",
            "Group-commit fsync batches completed.",
            &labels,
            self.syncs,
        );
        series.put_counter(
            "wal_checkpoints_total",
            "Checkpoints folding the log into the base store.",
            &labels,
            self.checkpoints,
        );
        series.put_gauge(
            "wal_bytes",
            "Bytes in the live write-ahead log segment.",
            &labels,
            self.wal_bytes as f64,
        );
        series.put_gauge(
            "wal_records_replayed",
            "Records the last recovery replayed.",
            &labels,
            self.records_replayed as f64,
        );
        series.put_histogram(
            "wal_sync_duration_us",
            "Group-commit fsync latency in microseconds.",
            &labels,
            self.sync_latency.clone(),
        );
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut st = self.sync.state.lock().expect("wal sync state poisoned");
            st.shutdown = true;
            self.sync.appended.notify_all();
        }
        if let Some(handle) = self.syncer.take() {
            let _ = handle.join();
        }
        // Best effort: leave the log as durable as the filesystem allows.
        if !fault::crashed() {
            if let Ok(inner) = self.inner.lock() {
                let _ = inner.file.sync_all();
            }
        }
    }
}

fn syncer_loop(sync: &SyncShared, file_source: &Mutex<Arc<fs::File>>, window: Duration) {
    loop {
        // Wait for an append (or shutdown).
        {
            let mut st = sync.state.lock().expect("wal sync state poisoned");
            loop {
                if st.appended_lsn > st.synced_lsn && st.error.is_none() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = sync.appended.wait(st).expect("wal sync state poisoned");
            }
        }
        // Group-commit window: let concurrent writers pile on before the
        // single fsync that acknowledges them all.
        if window > Duration::ZERO {
            std::thread::sleep(window);
        }
        let target = sync
            .state
            .lock()
            .expect("wal sync state poisoned")
            .appended_lsn;
        let file = Arc::clone(&file_source.lock().expect("wal mirror poisoned"));
        let started = Instant::now();
        let result = fault::guarded_sync(&file);
        let elapsed_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut st = sync.state.lock().expect("wal sync state poisoned");
        match result {
            Ok(()) => {
                st.synced_lsn = st.synced_lsn.max(target);
                sync.latency.record(elapsed_us);
            }
            Err(e) => {
                st.error = Some(e.to_string());
            }
        }
        sync.synced.notify_all();
        if st.error.is_some() {
            // Sticky failure: wake everyone, then park until shutdown.
            drop(st);
            let mut st = sync.state.lock().expect("wal sync state poisoned");
            while !st.shutdown {
                st = sync.appended.wait(st).expect("wal sync state poisoned");
            }
            return;
        }
    }
}
