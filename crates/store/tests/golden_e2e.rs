//! Deterministic end-to-end golden test: fixed seed → synthetic fleet →
//! OPERB compression through the pipeline → store → canonical query set,
//! compared against a committed fixture.
//!
//! Every layer below this test is deterministic (the dataset generator is
//! seeded, OPERB is a deterministic single pass per stream, sticky
//! routing makes per-device pipeline output order-independent, and the
//! codec quantizes reproducibly), so the point counts and content
//! checksums of the canonical queries are stable — any cross-layer
//! regression (generator drift, algorithm change, codec change, store
//! filtering change) surfaces here as a checksum mismatch in tier-1.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p traj-store --test golden_e2e
//! ```
//!
//! The checksums hash exact `f64` bit patterns.  IEEE arithmetic is
//! reproducible across conforming platforms for the operations used, but
//! a libm with different `sin`/`cos` rounding in the generator would
//! shift them — regenerate on the CI platform if that ever happens.

use std::fmt::Write as _;
use std::path::PathBuf;

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::BoundingBox;
use traj_model::json::JsonValue;
use traj_model::{BlockFormat, SimplifiedSegment, Trajectory};
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

const SEED: u64 = 20170401;
const DEVICES: usize = 24;
const POINTS: usize = 120;
const ZETA: f64 = 25.0;

/// FNV-1a over a canonical byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.update(&v.to_bits().to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.update(&(v as u64).to_le_bytes());
    }
    fn segments(&mut self, segments: &[SimplifiedSegment]) {
        for s in segments {
            for v in [
                s.segment.start.x,
                s.segment.start.y,
                s.segment.start.t,
                s.segment.end.x,
                s.segment.end.y,
                s.segment.end.t,
            ] {
                self.f64(v);
            }
            self.usize(s.first_index);
            self.usize(s.last_index);
        }
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_e2e.json")
}

fn fleet() -> Vec<(DeviceId, Trajectory)> {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, SEED);
    (0..DEVICES)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, POINTS)))
        .collect()
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig::new(ZETA)
        .with_workers(2)
        .with_batch_size(64)
}

fn store_config(format: BlockFormat) -> StoreConfig {
    StoreConfig::default()
        .with_block_segments(16)
        .with_format(format)
}

/// Compresses `fleet` into `store`; returns the streams ingested.
fn ingest(fleet: &[(DeviceId, Trajectory)], store: &ShardedStore) -> usize {
    let algorithm = FleetAlgorithm::by_name("operb").unwrap();
    compress_fleet_into_shared_store(fleet, &pipeline_config(), &algorithm, store)
        .unwrap()
        .1
}

fn build_store(fleet: &[(DeviceId, Trajectory)], format: BlockFormat) -> ShardedStore {
    let store = ShardedStore::new(store_config(format), 1);
    assert_eq!(ingest(fleet, &store), DEVICES);
    store
}

/// Half the fleet in each format, in one store: the first twelve devices
/// land in varint blocks, the store is saved to `dir` and reopened with
/// FoR as the format of new ingests, and the rest land in FoR blocks.
fn build_mixed_store(fleet: &[(DeviceId, Trajectory)], dir: &std::path::Path) -> ShardedStore {
    let half = DEVICES / 2;
    let varint = ShardedStore::new(store_config(BlockFormat::Varint), 1);
    let a = ingest(&fleet[..half], &varint);
    varint.save(dir).unwrap();
    let store = ShardedStore::open_with(dir, 1, store_config(BlockFormat::ForFixed)).unwrap();
    let b = ingest(&fleet[half..], &store);
    assert_eq!(a + b, DEVICES);
    store
}

/// Store-level totals, including `stored_bytes` — the only number the
/// block format is *allowed* to change, so it gets a per-format row.
fn stats_row(store: &ShardedStore, label: &str) -> (String, usize, String) {
    let stats = store.stats();
    let mut h = Fnv::new();
    for v in [
        stats.devices,
        stats.blocks,
        stats.segments,
        stats.points,
        stats.stored_bytes,
    ] {
        h.usize(v);
    }
    (format!("stats/{label}"), stats.segments, h.hex())
}

/// Runs the canonical query set; returns `(name, count, checksum)` rows.
/// Every row is a pure function of the decoded geometry, so these rows
/// must be **byte-identical across block formats** — zero tolerance.
fn query_rows(
    fleet: &[(DeviceId, Trajectory)],
    store: &ShardedStore,
) -> Vec<(String, usize, String)> {
    let mut rows = Vec::new();

    // Time slices: five devices, three fractional ranges each.
    for device in [0u64, 5, 11, 17, 23] {
        let traj = &fleet[device as usize].1;
        let (t_first, duration) = (traj.first().t, traj.duration());
        for (tag, a, b) in [("head", 0.0, 0.25), ("mid", 0.4, 0.6), ("tail", 0.8, 1.0)] {
            let slice = store.time_slice(device, t_first + duration * a, t_first + duration * b);
            let mut h = Fnv::new();
            h.segments(&slice.segments);
            h.usize(slice.stats.blocks_decoded);
            h.usize(slice.stats.blocks_in_scope);
            rows.push((
                format!("time_slice/{device}/{tag}"),
                slice.segments.len(),
                h.hex(),
            ));
        }
    }

    // Spatial windows centred on real traffic (device midpoints), one
    // with a time filter.
    for (i, device) in [2usize, 9, 19].into_iter().enumerate() {
        let traj = &fleet[device].1;
        let centre = traj.point(traj.len() / 2);
        let half = 400.0 + 150.0 * i as f64;
        let window = BoundingBox {
            min_x: centre.x - half,
            min_y: centre.y - half,
            max_x: centre.x + half,
            max_y: centre.y + half,
        };
        let time = if i == 2 {
            Some((traj.first().t, traj.first().t + traj.duration() * 0.5))
        } else {
            None
        };
        let q = store.window_query(&window, time);
        let mut h = Fnv::new();
        for m in &q.matches {
            h.usize(m.device as usize);
            h.segments(&m.segments);
        }
        h.usize(q.stats.blocks_decoded);
        h.usize(q.stats.blocks_in_scope);
        rows.push((format!("window/{i}"), q.stats.segments_returned, h.hex()));
    }

    // Point-in-time lookups on a fixed grid of probe times.
    let mut h = Fnv::new();
    let mut hits = 0usize;
    for device in 0..DEVICES as u64 {
        let traj = &fleet[device as usize].1;
        for k in 1..8usize {
            let t = traj.first().t + traj.duration() * k as f64 / 8.0;
            if let Some(p) = store.position_at(device, t) {
                hits += 1;
                h.f64(p.x);
                h.f64(p.y);
                h.f64(p.t);
            }
        }
    }
    rows.push(("position_at".to_string(), hits, h.hex()));
    rows
}

fn rows_to_json(rows: &[(String, usize, String)]) -> JsonValue {
    JsonValue::object([(
        "queries",
        JsonValue::Array(
            rows.iter()
                .map(|(name, count, checksum)| {
                    JsonValue::object([
                        ("name", JsonValue::from(name.as_str())),
                        ("count", JsonValue::from(*count)),
                        ("checksum", JsonValue::from(checksum.as_str())),
                    ])
                })
                .collect(),
        ),
    )])
}

#[test]
fn golden_pipeline_store_query_results_match_fixture() {
    let fleet = fleet();
    let varint = build_store(&fleet, BlockFormat::Varint);
    let packed = build_store(&fleet, BlockFormat::ForFixed);
    let mixed_dir =
        std::env::temp_dir().join(format!("traj-golden-mixed-build-{}", std::process::id()));
    let mixed = build_mixed_store(&fleet, &mixed_dir);

    // The block format must be invisible to every query: identical rows
    // (same FNV-1a checksums over exact f64 bit patterns) from the varint
    // store, the FoR store, and the half-and-half store.  Zero tolerance.
    let queries = query_rows(&fleet, &varint);
    assert_eq!(
        query_rows(&fleet, &packed),
        queries,
        "FoR store answers differ from varint store"
    );
    assert_eq!(
        query_rows(&fleet, &mixed),
        queries,
        "mixed-format store answers differ"
    );
    // Same compressed geometry in fewer/more bytes — but the same blocks,
    // segments and points.
    let (vs, ps, ms) = (varint.stats(), packed.stats(), mixed.stats());
    for s in [&ps, &ms] {
        assert_eq!(s.blocks, vs.blocks);
        assert_eq!(s.segments, vs.segments);
        assert_eq!(s.points, vs.points);
    }

    // The same queries against saved-and-reopened stores must agree — the
    // golden path covers persistence for pure and mixed formats alike.
    for (tag, store) in [("varint", &varint), ("for", &packed), ("mixed", &mixed)] {
        let dir = std::env::temp_dir().join(format!("traj-golden-{tag}-{}", std::process::id()));
        store.save(&dir).unwrap();
        let reopened = ShardedStore::open_with(&dir, 1, StoreConfig::default()).unwrap();
        assert_eq!(query_rows(&fleet, &reopened), queries, "{tag} reopen");
        // A reopened store is lazy — payloads page in on demand — so its
        // inline-resident byte count is 0; everything else must match.
        let want = traj_store::StoreStats {
            resident_bytes: 0,
            ..store.stats()
        };
        assert_eq!(reopened.stats(), want, "{tag} reopen stats");
        // A tiny buffer pool (forcing heavy eviction) must not change a
        // single bit of any query result.
        let config = StoreConfig::default().with_cache_bytes(Some(1024));
        let bounded = ShardedStore::open_with(&dir, 1, config).unwrap();
        assert_eq!(
            query_rows(&fleet, &bounded),
            queries,
            "{tag} bounded-cache reopen"
        );
        let cache = bounded.memory_stats().cache.expect("opened store pages");
        assert!(
            cache.evictions > 0,
            "{tag}: a 1 KiB pool over {} stored bytes must evict",
            want.stored_bytes
        );
        assert!(
            cache.resident_bytes <= 1024,
            "{tag}: pool over capacity ({} bytes)",
            cache.resident_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut rows = vec![
        stats_row(&varint, "varint"),
        stats_row(&packed, "for"),
        stats_row(&mixed, "mixed"),
    ];
    rows.extend(queries);
    drop(mixed);
    std::fs::remove_dir_all(&mixed_dir).ok();

    if std::env::var("GOLDEN_REGEN").is_ok() {
        let mut text = rows_to_json(&rows).to_string_pretty();
        text.push('\n');
        std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
        std::fs::write(fixture_path(), text).unwrap();
        eprintln!("regenerated {}", fixture_path().display());
        return;
    }

    let fixture_text = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GOLDEN_REGEN=1 to create it",
            fixture_path().display()
        )
    });
    let fixture = JsonValue::parse(&fixture_text).expect("fixture parses");
    let expected = fixture
        .get("queries")
        .and_then(JsonValue::as_array)
        .expect("fixture shape");
    assert_eq!(
        expected.len(),
        rows.len(),
        "query set changed — regenerate?"
    );
    let mut failures = String::new();
    for (row, exp) in rows.iter().zip(expected) {
        let name = exp.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let count = exp.get("count").and_then(JsonValue::as_usize).unwrap_or(0);
        let checksum = exp
            .get("checksum")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        if row.0 != name || row.1 != count || row.2 != checksum {
            let _ = writeln!(
                failures,
                "  {}: got ({}, {}), fixture says {name}: ({count}, {checksum})",
                row.0, row.1, row.2
            );
        }
    }
    assert!(
        failures.is_empty(),
        "golden query results diverged from the committed fixture:\n{failures}\
         (intentional change? GOLDEN_REGEN=1 cargo test -p traj-store --test golden_e2e)"
    );
}
