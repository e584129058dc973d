//! Exact counts of the OPERB family's compression on seeded fleets of all
//! four profiles, and of the block codec, the store, its buffer pool and
//! the query engine on seeded Taxi fleets (seed 20170401, OPERB at
//! ζ = 30 m).
//!
//! None of these figures depends on the machine or on timing: each is a
//! deterministic function of the seed and the sizes below, so each is
//! pinned to its exact value.  A change that moves one (a codec tweak, a
//! new index rule, a different eviction order) must update the figure
//! here and say why.  Wall-time figures live in perfbench, not here.

use trajsimp::data::{DatasetGenerator, DatasetKind};
use trajsimp::geo::{BoundingBox, Point};
use trajsimp::model::codec::{BlockFormat, SegmentCodec};
use trajsimp::model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
use trajsimp::pipeline::{
    compress_fleet, compress_fleet_sequential, DeviceId, FleetAlgorithm, PipelineConfig,
};
use trajsimp::store::{
    compress_fleet_into_shared_store, compress_fleet_into_store, KnnStats, ShardedStore,
    StoreConfig, TrajStore,
};

const SEED: u64 = 20170401;
const ZETA: f64 = 30.0;

fn taxi_fleet(devices: usize, points: usize) -> Vec<(DeviceId, Trajectory)> {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, SEED);
    (0..devices)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, points)))
        .collect()
}

fn operb() -> FleetAlgorithm {
    FleetAlgorithm::by_name("operb").expect("operb is registered")
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig::new(ZETA).with_batch_size(256)
}

/// A square window of side `2 * half` centred on `centre`.
fn square(centre: Point, half: f64) -> BoundingBox {
    BoundingBox {
        min_x: centre.x - half,
        min_y: centre.y - half,
        max_x: centre.x + half,
        max_y: centre.y + half,
    }
}

/// `simplified` cut into blocks of at most `block_segments` segments,
/// the way `TrajStore` seals them.
fn store_blocks(
    simplified: &SimplifiedTrajectory,
    block_segments: usize,
) -> Vec<SimplifiedTrajectory> {
    simplified
        .segments()
        .chunks(block_segments)
        .map(|chunk| {
            SimplifiedTrajectory::new(chunk.to_vec(), chunk[chunk.len() - 1].last_index + 1)
        })
        .collect()
}

#[test]
fn block_format_footprints() {
    // 64 trajectories × 500 points, encoded one block per trajectory and
    // cut into the 32-segment blocks the store writes.
    let fleet = taxi_fleet(64, 500);
    let run = compress_fleet(&fleet, &pipeline_config(), &operb());
    let mut simplified = Vec::new();
    let mut points = 0;
    for result in run.results {
        simplified.push(result.output.expect("operb compresses every stream"));
        points += result.points;
    }
    assert_eq!(points, 32_000);

    let codec = SegmentCodec::default();
    let stored = |format: BlockFormat, block_segments: usize| -> usize {
        simplified
            .iter()
            .flat_map(|s| store_blocks(s, block_segments))
            .map(|block| codec.encode_block(format, &block).expect("encodes").len())
            .sum()
    };
    let whole = usize::MAX;
    assert_eq!(stored(BlockFormat::Varint, whole), 150_049);
    assert_eq!(stored(BlockFormat::ForFixed, whole), 138_211);
    // At store-sized blocks FoR loses: each block's first row is absolute,
    // and a ≤ 64-segment block is one chunk, so every value pays its width.
    assert_eq!(stored(BlockFormat::Varint, 32), 155_393);
    assert_eq!(stored(BlockFormat::ForFixed, 32), 236_874);
}

#[test]
fn store_footprint_window_skipping_and_buffer_pool() {
    // 100 devices × 150 points in FoR 32-segment blocks.
    let fleet = taxi_fleet(100, 150);
    let mut store = TrajStore::new(
        StoreConfig::default()
            .with_block_segments(32)
            .with_format(BlockFormat::ForFixed),
    );
    let (_, ingested) = compress_fleet_into_store(&fleet, &pipeline_config(), &operb(), &mut store)
        .expect("ingest succeeds");
    assert_eq!(ingested, 100);
    let stats = store.stats();
    assert_eq!(
        (stats.stored_bytes, stats.points, stats.blocks),
        (114_031, 15_000, 241)
    );

    // Six 600 m windows centred on real traffic; the worst one still
    // decodes fewer than a third of the blocks, and each returns the
    // segments near the window, not every absorbing segment of the
    // blocks it decodes.
    let windows: Vec<BoundingBox> = (0..6)
        .map(|w| {
            let (_, traj) = &fleet[(w * 37) % fleet.len()];
            square(traj.point(traj.len() / (w + 2)), 300.0)
        })
        .collect();
    let answers: Vec<_> = windows
        .iter()
        .map(|w| store.window_query(w, None))
        .collect();
    let worst = answers
        .iter()
        .map(|q| (q.stats.blocks_decoded, q.stats.blocks_in_scope))
        .max();
    assert_eq!(worst, Some((71, 241)));
    let returned: Vec<usize> = answers.iter().map(|q| q.stats.segments_returned).collect();
    assert_eq!(returned, [38, 32, 85, 37, 59, 57]);
    // Blocks decode whole: what each window decoded to find them.
    let decoded: Vec<usize> = answers.iter().map(|q| q.segments_decoded).collect();
    assert_eq!(decoded, [1270, 983, 2249, 1204, 1368, 2187]);

    // Out of core: the payload cache holds a tenth of the stored bytes.
    // A cold pass slices every device and runs every window, then a hot
    // phase repeats eight times the longest device prefix whose blocks
    // (at the average block size) fit half the cache, so each hot block
    // misses once and hits seven times.
    let cap = stats.stored_bytes / 10;
    let dir = std::env::temp_dir().join(format!("trajsimp-exact-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.save(&dir).expect("save");
    let avg_block = stats.stored_bytes as f64 / stats.blocks as f64;
    let mut hot_bytes = 0.0;
    let hot_devices = fleet
        .iter()
        .take_while(|(device, traj)| {
            let blocks = store
                .time_slice(*device, 0.0, traj.duration())
                .stats
                .blocks_decoded;
            hot_bytes += blocks as f64 * avg_block;
            hot_bytes <= cap as f64 / 2.0
        })
        .count()
        .max(1);
    let config = StoreConfig::default().with_cache_bytes(Some(cap));
    let ooc = TrajStore::open_with(&dir, config).expect("reopen");
    let cache = || {
        ooc.memory_stats()
            .cache
            .expect("a capped store has cache stats")
    };
    for (device, traj) in &fleet {
        ooc.time_slice(*device, 0.0, traj.duration());
    }
    for window in &windows {
        ooc.window_query(window, None);
    }
    let cold = cache();
    for _ in 0..8 {
        for (device, traj) in fleet.iter().take(hot_devices) {
            ooc.time_slice(*device, 0.0, traj.duration());
        }
    }
    let after = cache();
    let hot = (after.hits - cold.hits, after.misses - cold.misses);
    assert_eq!(hot, (70, 10), "hot hits and misses");
    assert_eq!(
        (after.hits, after.misses, after.evictions),
        (70, 548, 522),
        "hits, misses, evictions"
    );
    assert!(after.resident_bytes <= cap, "over the cap");

    // Scan resistance: a fresh pool slices the other 94 devices once each
    // in order, and re-reads the first six devices before every sixth of
    // them.  Six scanned devices are a little more than the cache holds
    // beside the hot set, so a recency order (exact LRU: 16 hits, 465
    // misses, 437 evictions) ranks each hot page out before its next
    // read; SIEVE's visited bits keep most hot pages through the scan.
    const HOT: usize = 6;
    let ooc = TrajStore::open_with(&dir, config).expect("reopen");
    for (i, (device, traj)) in fleet.iter().skip(HOT).enumerate() {
        if i % HOT == 0 {
            for (hot, hot_traj) in fleet.iter().take(HOT) {
                ooc.time_slice(*hot, 0.0, hot_traj.duration());
            }
        }
        ooc.time_slice(*device, 0.0, traj.duration());
    }
    let scan = ooc.memory_stats().cache.expect("capped");
    assert_eq!(
        (scan.hits, scan.misses, scan.evictions),
        (128, 353, 325),
        "hot set beside a scan: hits, misses, evictions"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn knn_pruning_and_geofence_alerts() {
    // 128 devices × 500 points in 32-segment blocks.
    let fleet = taxi_fleet(128, 500);
    let config = StoreConfig::default().with_block_segments(32);

    // kNN: 16 three-point probes along real paths, k = 10, against the
    // flat store and against the same fleet in 16 shards (one top-k
    // carried from shard to shard).
    let mut store = TrajStore::new(config);
    compress_fleet_into_store(&fleet, &pipeline_config(), &operb(), &mut store)
        .expect("ingest succeeds");
    let sharded = ShardedStore::from_store(store.clone(), 16);
    let probes: Vec<Vec<Point>> = (0..16)
        .map(|p| {
            let (_, traj) = &fleet[(p * 37) % fleet.len()];
            [traj.len() / 4, traj.len() / 2, 3 * traj.len() / 4]
                .iter()
                .map(|&i| traj.point(i))
                .collect()
        })
        .collect();
    let knn_totals = |knn: &dyn Fn(&[Point]) -> KnnStats| {
        let mut total = KnnStats::default();
        for probe in &probes {
            total.merge(&knn(probe));
        }
        total
    };
    assert_eq!(
        knn_totals(&|probe| store.knn(probe, 10).stats),
        KnnStats {
            devices_total: 2_048,
            devices_pruned: 1_654,
            blocks_total: 14_320,
            blocks_decoded: 1_214,
        }
    );
    assert_eq!(
        knn_totals(&|probe| sharded.knn(probe, 10).stats),
        KnnStats {
            devices_total: 2_048,
            devices_pruned: 1_299,
            blocks_total: 14_320,
            blocks_decoded: 2_143,
        }
    );

    // Geofences: four 600 m fences on real traffic watch a live ingest
    // into four shards.
    let shared = ShardedStore::new(config, 4);
    for f in 0..4 {
        let (_, traj) = &fleet[(f * 29 + 7) % fleet.len()];
        let centre = traj.point((f + 1) * traj.len() / 5);
        shared
            .geofences()
            .register(&format!("fence-{f}"), square(centre, 300.0), None)
            .expect("fence registers");
    }
    compress_fleet_into_shared_store(&fleet, &pipeline_config(), &operb(), &shared)
        .expect("ingest succeeds");
    let stats = shared.geofences().stats();
    assert_eq!(stats.alerts_fired, 317);
    assert_eq!((stats.blocks_skipped, stats.blocks_checked), (3_263, 3_580));
}

/// FNV-1a over the exact bits of every output segment: both endpoints'
/// x/y/t, the first and last original index and the two interpolation
/// flags.
struct OutputHash(u64);

impl OutputHash {
    fn new() -> Self {
        OutputHash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn segments(&mut self, segments: &[SimplifiedSegment]) {
        for s in segments {
            let (a, b) = (s.segment.start, s.segment.end);
            for v in [a.x, a.y, a.t, b.x, b.y, b.t] {
                self.word(v.to_bits());
            }
            self.word(s.first_index as u64);
            self.word(s.last_index as u64);
            self.word(u64::from(s.interpolated_start) | u64::from(s.interpolated_end) << 1);
        }
    }
}

#[test]
fn operb_family_segment_counts_and_output_hashes() {
    // 40 devices × 500 points per profile, each fleet compressed at three
    // error bounds.  The counts pin the compression ratio of every cell;
    // the hash, one per algorithm over all twelve cells in order, pins
    // every output bit, so an arithmetic rewrite of the fitting function
    // that is meant to change nothing can show that it changed nothing.
    const ZETAS: [f64; 3] = [10.0, 30.0, 100.0];
    let fleets: Vec<Vec<(DeviceId, Trajectory)>> = DatasetKind::ALL
        .iter()
        .map(|&kind| {
            let generator = DatasetGenerator::for_kind(kind, SEED);
            (0..40)
                .map(|i| (i as DeviceId, generator.generate_trajectory(i, 500)))
                .collect()
        })
        .collect();
    let mut seen = Vec::new();
    for name in ["operb", "operb-a", "raw-operb"] {
        let algorithm = FleetAlgorithm::by_name(name).expect("registered");
        let mut counts = [[0usize; 3]; 4];
        let mut hash = OutputHash::new();
        for (fleet, row) in fleets.iter().zip(&mut counts) {
            for (&zeta, cell) in ZETAS.iter().zip(row.iter_mut()) {
                for result in compress_fleet_sequential(fleet, zeta, &algorithm).results {
                    let output = result.output.expect("compresses every stream");
                    *cell += output.segments().len();
                    hash.segments(output.segments());
                }
            }
        }
        seen.push((name, counts, format!("{:016x}", hash.0)));
    }
    // Rows: Taxi, Truck, SerCar, GeoLife; columns: ζ = 10, 30, 100 m.
    assert_eq!(
        seen,
        [
            (
                "operb",
                [
                    [12_697, 8_258, 7_214],
                    [7_095, 1_259, 1_020],
                    [6_804, 760, 508],
                    [3_584, 498, 352]
                ],
                "17bd9d18e8938a9d".to_string()
            ),
            (
                "operb-a",
                [
                    [11_102, 7_057, 6_489],
                    [6_662, 875, 709],
                    [6_593, 745, 508],
                    [3_571, 498, 352]
                ],
                "e3463731be2bf1f4".to_string()
            ),
            (
                "raw-operb",
                [
                    [16_075, 10_963, 8_022],
                    [13_948, 5_483, 1_936],
                    [13_382, 4_551, 661],
                    [10_752, 1_810, 497]
                ],
                "c68b6b455bc44db2".to_string()
            ),
        ]
    );
}
