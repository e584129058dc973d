//! Concurrency stress: writers ingesting through the pipeline's shared
//! sink while readers query the same [`ShardedStore`].
//!
//! Four writer threads each compress waves of their own sub-fleet into
//! the store (via `compress_fleet_into_shared_store`, the `trajsimp
//! serve --live` path) while four reader threads hammer window /
//! time-slice / position / stats queries.  Assertions:
//!
//! * no torn reads — every observed time slice is internally ordered and
//!   the fleet-wide point counter only ever grows;
//! * every returned segment stays within `ζ + quantization slack` of the
//!   original points it is responsible for, even mid-ingest;
//! * after the writers finish, the concurrent store's contents equal a
//!   sequentially built reference store, exactly.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::BoundingBox;
use traj_model::Trajectory;
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{
    compress_fleet_into_shared_store, compress_fleet_into_store, ShardedStore, StoreConfig,
    TrajStore,
};

const WRITERS: usize = 4;
const READERS: usize = 4;
const DEVICES_PER_WRITER: usize = 8;
const WAVES: usize = 5;
const POINTS: usize = 60;
const ZETA: f64 = 25.0;

/// Wave `w` of writer `writer`: each writer owns a disjoint device range,
/// each wave is time-shifted past the previous one (per-device logs are
/// append-only in time).
fn wave_fleet(writer: usize, wave: usize) -> Vec<(DeviceId, Trajectory)> {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, 9000 + writer as u64);
    (0..DEVICES_PER_WRITER)
        .map(|i| {
            let device = (writer * DEVICES_PER_WRITER + i) as DeviceId;
            let base = generator.generate_trajectory(i, POINTS);
            let offset = wave as f64 * (base.last().t - base.first().t + 120.0);
            let points = base
                .points()
                .iter()
                .map(|p| traj_geo::Point::new(p.x, p.y, p.t + offset))
                .collect();
            (device, Trajectory::new_unchecked(points))
        })
        .collect()
}

#[test]
fn writers_and_readers_share_the_store_without_torn_state() {
    let store = Arc::new(ShardedStore::new(
        StoreConfig::default().with_block_segments(8),
        8,
    ));
    let algorithm = FleetAlgorithm::by_name("operb").unwrap();
    let config = PipelineConfig::new(ZETA)
        .with_workers(1)
        .with_batch_size(64);
    let bound = ZETA + store.config().codec.spatial_slack() + 1e-9;

    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // ── Writers: wave after wave through the pipeline sink. ──────────
        let mut writer_handles = Vec::new();
        for writer in 0..WRITERS {
            let store = Arc::clone(&store);
            let algorithm = &algorithm;
            let config = &config;
            writer_handles.push(scope.spawn(move || {
                for wave in 0..WAVES {
                    let fleet = wave_fleet(writer, wave);
                    let (_, ingested) =
                        compress_fleet_into_shared_store(&fleet, config, algorithm, &store)
                            .expect("concurrent ingest");
                    assert_eq!(ingested, fleet.len());
                }
            }));
        }

        // ── Readers: query until every writer is done. ───────────────────
        let mut reader_handles = Vec::new();
        for reader in 0..READERS {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            let reads = Arc::clone(&reads);
            // Each reader re-derives originals for the devices it verifies
            // (generation is deterministic, so no sharing with writers).
            reader_handles.push(scope.spawn(move || {
                let mut round = 0usize;
                let mut points_before = 0usize;
                while !done.load(Ordering::Acquire) || round < 3 {
                    round += 1;
                    // Monotonic fleet counter per reader: shard counters
                    // only grow, so a later full read can never see fewer
                    // points than an earlier one — torn state would.
                    let points_now = store.stats().points;
                    assert!(
                        points_now >= points_before,
                        "point counter went backwards under concurrency \
                         ({points_before} → {points_now})"
                    );
                    points_before = points_now;

                    let writer = (reader + round) % WRITERS;
                    let device_in_writer = round % DEVICES_PER_WRITER;
                    let device = (writer * DEVICES_PER_WRITER + device_in_writer) as DeviceId;
                    let original_wave0 = wave_fleet(writer, 0)
                        .into_iter()
                        .nth(device_in_writer)
                        .unwrap()
                        .1;

                    // Time slice over wave 0's span: whatever is returned
                    // must be internally time-ordered (no torn block
                    // interleaving) and ζ-sound for wave-0 points.
                    let (t0, t1) = (original_wave0.first().t, original_wave0.last().t);
                    let slice = store.time_slice(device, t0, t1);
                    let mut last_start = f64::NEG_INFINITY;
                    for s in &slice.segments {
                        let start = s.segment.start.t.min(s.segment.end.t);
                        assert!(
                            start >= last_start,
                            "torn time slice: segment starts out of order"
                        );
                        last_start = start;
                    }
                    if !slice.segments.is_empty() {
                        // Ingest is atomic per device: once anything of
                        // wave 0 is visible, all of it is, and the bound
                        // holds for every original point in range.
                        for p in original_wave0.points() {
                            let nearest = slice
                                .segments
                                .iter()
                                .map(|s| s.distance_to_line(p))
                                .fold(f64::INFINITY, f64::min);
                            assert!(
                                nearest <= bound,
                                "ζ violated mid-ingest: {nearest:.2} m > {bound:.2} m"
                            );
                        }
                    }

                    // Window around the device's wave-0 midpoint.
                    let centre = original_wave0.point(original_wave0.len() / 2);
                    let w = BoundingBox {
                        min_x: centre.x - 300.0,
                        min_y: centre.y - 300.0,
                        max_x: centre.x + 300.0,
                        max_y: centre.y + 300.0,
                    };
                    let q = store.window_query(&w, None);
                    assert!(q.stats.blocks_decoded <= q.stats.blocks_in_scope);
                    for m in &q.matches {
                        assert!(!m.segments.is_empty(), "match without segments");
                    }

                    let _ = store.position_at(device, (t0 + t1) / 2.0);
                    let _ = store.devices();
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }

        for h in writer_handles {
            h.join().expect("writer panicked");
        }
        done.store(true, Ordering::Release);
        for h in reader_handles {
            h.join().expect("reader panicked");
        }
    });
    assert!(reads.load(Ordering::Relaxed) >= READERS * 3);

    // ── Final state: exact equality with a sequential reference. ─────────
    let mut reference = TrajStore::new(StoreConfig::default().with_block_segments(8));
    for writer in 0..WRITERS {
        for wave in 0..WAVES {
            let fleet = wave_fleet(writer, wave);
            let (_, ingested) =
                compress_fleet_into_store(&fleet, &config, &algorithm, &mut reference)
                    .expect("sequential reference ingest");
            assert_eq!(ingested, fleet.len());
        }
    }
    let (concurrent, sequential) = (store.stats(), reference.stats());
    assert_eq!(concurrent, sequential, "final counts must be exact");
    assert_eq!(store.devices(), reference.devices().collect::<Vec<_>>());
    for d in reference.devices().collect::<Vec<_>>() {
        assert_eq!(store.block_metas(d), reference.block_metas(d));
        assert_eq!(
            store.time_slice(d, 0.0, 1e7).segments,
            reference.time_slice(d, 0.0, 1e7).segments
        );
    }
}

/// Concurrent readers over a cache far smaller than the data: constant
/// eviction races against pinned decodes, yet every answer must be
/// byte-identical to an unbounded open of the same directory.
#[test]
fn bounded_cache_readers_match_unbounded_answers() {
    let algorithm = FleetAlgorithm::by_name("operb").unwrap();
    let config = PipelineConfig::new(ZETA)
        .with_workers(1)
        .with_batch_size(64);
    let mut store = TrajStore::new(StoreConfig::default().with_block_segments(8));
    for writer in 0..WRITERS {
        for wave in 0..2 {
            let fleet = wave_fleet(writer, wave);
            compress_fleet_into_store(&fleet, &config, &algorithm, &mut store).expect("ingest");
        }
    }
    let dir = std::env::temp_dir().join(format!(
        "traj-stress-bounded-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    store.save(&dir).expect("save");
    let cap = 2048usize;
    assert!(
        store.stats().stored_bytes > 4 * cap,
        "the fixture must dwarf the cache for the test to mean anything"
    );

    let unbounded = ShardedStore::open_with(&dir, 8, StoreConfig::default()).expect("open");
    let bounded =
        ShardedStore::open_with(&dir, 8, StoreConfig::default().with_cache_bytes(Some(cap)))
            .expect("bounded open");
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (bounded, unbounded) = (&bounded, &unbounded);
            scope.spawn(move || {
                for round in 0..12 {
                    let writer = (reader + round) % WRITERS;
                    let device_in_writer = round % DEVICES_PER_WRITER;
                    let device = (writer * DEVICES_PER_WRITER + device_in_writer) as DeviceId;
                    let original = wave_fleet(writer, 0)
                        .into_iter()
                        .nth(device_in_writer)
                        .unwrap()
                        .1;
                    let (t0, t1) = (original.first().t, original.last().t);
                    assert_eq!(
                        bounded.time_slice(device, t0, t1),
                        unbounded.time_slice(device, t0, t1),
                        "time slice diverged under eviction"
                    );
                    let centre = original.point(original.len() / 2);
                    let w = BoundingBox {
                        min_x: centre.x - 300.0,
                        min_y: centre.y - 300.0,
                        max_x: centre.x + 300.0,
                        max_y: centre.y + 300.0,
                    };
                    assert_eq!(
                        bounded.window_query(&w, None),
                        unbounded.window_query(&w, None),
                        "window query diverged under eviction"
                    );
                    assert_eq!(
                        bounded.position_at(device, (t0 + t1) / 2.0),
                        unbounded.position_at(device, (t0 + t1) / 2.0),
                        "position diverged under eviction"
                    );
                }
            });
        }
    });
    let cache = bounded.memory_stats().cache.expect("cache stats");
    assert!(cache.evictions > 0, "the tiny cap never evicted");
    assert!(
        cache.resident_bytes <= cap,
        "{} resident bytes over the {cap}-byte cap",
        cache.resident_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}
