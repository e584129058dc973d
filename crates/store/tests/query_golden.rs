//! Deterministic golden test for the query engine: fixed seed → fleet →
//! OPERB compression → kNN answers, pruning decisions and geofence alert
//! sets, compared against a committed fixture.
//!
//! The kNN lower bound and the geofence predicate both run on block
//! *metadata*, which is computed before encoding — so every row here must
//! be **byte-identical across block formats** (varint, FoR, mixed) and
//! under a buffer pool small enough to evict.  Zero tolerance: a checksum
//! hashes exact `f64` bit patterns.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p traj-store --test query_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, Point};
use traj_model::json::JsonValue;
use traj_model::{BlockFormat, Trajectory};
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{compress_fleet_into_shared_store, GeofenceAlert, ShardedStore, StoreConfig};

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
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("query_golden.json")
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

/// Half the fleet in varint blocks, half in FoR blocks, one store: the
/// varint half is saved to `dir` and the store reopened with FoR as the
/// format of new ingests.
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

/// The canonical kNN query set: each row hashes the ranked answer
/// (devices and exact distance bit patterns) *and* the pruning decisions
/// (devices pruned, blocks decoded).  Every answer is verified against
/// the brute-force decoded reference before it is hashed.
fn knn_rows(
    fleet: &[(DeviceId, Trajectory)],
    store: &ShardedStore,
) -> Vec<(String, usize, String)> {
    let mut rows = Vec::new();
    for (probe_device, k) in [(3usize, 5usize), (11, 3), (20, 8)] {
        let traj = &fleet[probe_device].1;
        let query: Vec<Point> = [traj.len() / 4, traj.len() / 2, 3 * traj.len() / 4]
            .map(|i| traj.point(i))
            .to_vec();
        let answer = store.knn(&query, k);
        let brute = store.knn_bruteforce(&query, k);
        assert_eq!(
            answer.neighbors, brute.neighbors,
            "knn/{probe_device}/{k}: pruned answer differs from brute force"
        );
        assert!(
            answer.stats.devices_pruned > 0,
            "knn/{probe_device}/{k}: nothing pruned ({:?})",
            answer.stats
        );
        let mut h = Fnv::new();
        for n in &answer.neighbors {
            h.usize(n.device as usize);
            h.f64(n.distance);
        }
        h.usize(answer.stats.devices_total);
        h.usize(answer.stats.devices_pruned);
        h.usize(answer.stats.blocks_total);
        h.usize(answer.stats.blocks_decoded);
        rows.push((
            format!("knn/{probe_device}/{k}"),
            answer.neighbors.len(),
            h.hex(),
        ));
    }
    rows
}

/// Compresses the fleet live into a sharded store with three standing
/// fences registered up front, and hashes the fired alert set.  Alert
/// *sequence numbers* depend on pipeline completion order, so rows hash
/// the canonical sort by `(fence, device, block)` and leave seqs out.
fn geofence_rows(
    fleet: &[(DeviceId, Trajectory)],
    format: BlockFormat,
) -> Vec<(String, usize, String)> {
    let store = ShardedStore::new(store_config(format), 4);
    let fences = store.geofences();
    // A neighbourhood fence around one device's midpoint, a fleet-wide
    // fence active only in the first fifth of the timeline, and a remote
    // fence that most blocks provably miss.
    let centre = fleet[2].1.point(fleet[2].1.len() / 2);
    fences
        .register(
            "midtown",
            BoundingBox {
                min_x: centre.x - 600.0,
                min_y: centre.y - 600.0,
                max_x: centre.x + 600.0,
                max_y: centre.y + 600.0,
            },
            None,
        )
        .unwrap();
    let t0 = fleet[0].1.first().t;
    let early_end = t0 + fleet[0].1.duration() * 0.2;
    fences
        .register(
            "everywhere-early",
            BoundingBox {
                min_x: -1e9,
                min_y: -1e9,
                max_x: 1e9,
                max_y: 1e9,
            },
            Some((t0, early_end)),
        )
        .unwrap();
    let far = fleet[23].1.point(fleet[23].1.len() - 1);
    fences
        .register(
            "outskirts",
            BoundingBox {
                min_x: far.x - 150.0,
                min_y: far.y - 150.0,
                max_x: far.x + 150.0,
                max_y: far.y + 150.0,
            },
            None,
        )
        .unwrap();

    let algorithm = FleetAlgorithm::by_name("operb").unwrap();
    let (_, ingested) =
        compress_fleet_into_shared_store(fleet, &pipeline_config(), &algorithm, &store).unwrap();
    assert_eq!(ingested, DEVICES);

    let poll = fences.alerts_after(0, 100_000, None);
    assert_eq!(poll.missed, 0, "alert volume must fit the ring");
    let mut alerts: Vec<&GeofenceAlert> = poll.alerts.iter().collect();
    alerts.sort_by_key(|a| (a.fence_id, a.device, a.block));
    let mut h = Fnv::new();
    for a in &alerts {
        h.usize(a.fence_id as usize);
        h.usize(a.device as usize);
        h.usize(a.block);
        h.f64(a.t_min);
        h.f64(a.t_max);
        h.usize(a.num_segments);
    }
    let stats = fences.stats();
    assert!(
        stats.blocks_skipped > 0,
        "the metadata predicate must dismiss blocks"
    );
    h.usize(stats.blocks_checked as usize);
    h.usize(stats.blocks_skipped as usize);
    vec![("geofence/alerts".to_string(), alerts.len(), h.hex())]
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
fn golden_knn_and_geofence_results_match_fixture() {
    let fleet = fleet();
    let varint = build_store(&fleet, BlockFormat::Varint);
    let packed = build_store(&fleet, BlockFormat::ForFixed);
    let mixed_dir =
        std::env::temp_dir().join(format!("traj-query-golden-mixed-{}", std::process::id()));
    let mixed = build_mixed_store(&fleet, &mixed_dir);

    // kNN answers AND pruning decisions are metadata-driven, so the block
    // format must be invisible to them — identical checksums everywhere.
    let knn = knn_rows(&fleet, &varint);
    assert_eq!(
        knn_rows(&fleet, &packed),
        knn,
        "FoR store kNN differs from varint"
    );
    assert_eq!(knn_rows(&fleet, &mixed), knn, "mixed store kNN differs");
    drop(mixed);
    std::fs::remove_dir_all(&mixed_dir).ok();

    // The same invariance across a save/reopen and a deliberately tiny
    // buffer pool: pruning runs on resident metadata, decode order pages
    // payloads in and out, and not a single bit of any answer may move.
    let dir = std::env::temp_dir().join(format!("traj-query-golden-{}", std::process::id()));
    varint.save(&dir).unwrap();
    let config = StoreConfig::default().with_cache_bytes(Some(1024));
    let bounded = ShardedStore::open_with(&dir, 1, config).unwrap();
    assert_eq!(knn_rows(&fleet, &bounded), knn, "bounded-cache kNN differs");
    let cache = bounded.memory_stats().cache.expect("opened store pages");
    assert!(cache.evictions > 0, "a 1 KiB pool must evict");
    std::fs::remove_dir_all(&dir).ok();

    // Geofence alert sets fire from sealed metadata during live ingest;
    // the format must be invisible to them too.
    let geofence = geofence_rows(&fleet, BlockFormat::Varint);
    assert_eq!(
        geofence_rows(&fleet, BlockFormat::ForFixed),
        geofence,
        "FoR-format geofence alert set differs from varint"
    );

    let mut rows = knn;
    rows.extend(geofence);

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
         (intentional change? GOLDEN_REGEN=1 cargo test -p traj-store --test query_golden)"
    );
}
