//! End-to-end storage-engine tests over realistic synthetic fleets: the
//! pipeline compresses a fleet into the store, and every query answer is
//! checked against the *original* (pre-compression) points — the stored
//! error bound ζ must carry through data skipping, decoding and
//! interpolation.

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::BoundingBox;
use traj_model::Trajectory;
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

const ZETA: f64 = 25.0;

fn synthetic_fleet(count: usize, points: usize, seed: u64) -> Vec<(DeviceId, Trajectory)> {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, seed);
    (0..count)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, points)))
        .collect()
}

fn populated_store(fleet: &[(DeviceId, Trajectory)]) -> ShardedStore {
    populated_store_with(fleet, "operb")
}

fn populated_store_with(fleet: &[(DeviceId, Trajectory)], algorithm: &str) -> ShardedStore {
    let algorithm = FleetAlgorithm::by_name(algorithm).unwrap();
    let config = PipelineConfig::new(ZETA)
        .with_workers(4)
        .with_batch_size(128);
    let store = ShardedStore::new(StoreConfig::default().with_block_segments(16), 1);
    let (_, ingested) =
        compress_fleet_into_shared_store(fleet, &config, &algorithm, &store).unwrap();
    assert_eq!(ingested, fleet.len());
    store
}

/// The bound every query answer is verified against: the simplification
/// bound plus the codec's quantization slack.
fn stored_bound(store: &ShardedStore) -> f64 {
    ZETA + store.config().codec.spatial_slack()
}

#[test]
fn time_slice_respects_the_stored_bound() {
    let fleet = synthetic_fleet(30, 400, 41);
    let store = populated_store(&fleet);
    let bound = stored_bound(&store);
    for (device, trajectory) in &fleet {
        let duration = trajectory.duration();
        let (t0, t1) = (duration * 0.25, duration * 0.5);
        let slice = store.time_slice(*device, t0, t1);
        assert!(!slice.segments.is_empty(), "device {device}");
        assert!(
            slice.stats.blocks_decoded < slice.stats.blocks_in_scope,
            "device {device}: a quarter-range slice must skip blocks"
        );
        // The bound carries through: each original point inside the time
        // range is covered by some returned segment within ζ + slack.
        // (Per-segment checks would be too strong — with OPERB's
        // optimization 5 responsibility ranges overlap, and a point is
        // only guaranteed close to at least ONE covering segment.)
        for p in trajectory
            .points()
            .iter()
            .filter(|p| p.t >= t0 && p.t <= t1)
        {
            let best = slice
                .segments
                .iter()
                .map(|s| s.distance_to_line(p))
                .fold(f64::INFINITY, f64::min);
            assert!(
                best <= bound,
                "device {device}: in-range point at t={} is {best} m from the slice",
                p.t
            );
        }
    }
}

#[test]
fn window_query_has_no_false_negatives() {
    let fleet = synthetic_fleet(40, 300, 17);
    let store = populated_store(&fleet);
    let bound = stored_bound(&store);
    // Probe several windows centred on actual data points, so each window
    // is guaranteed to contain original traffic.
    for probe in 0..8 {
        let (_, trajectory) = &fleet[probe * 5 % fleet.len()];
        let centre = trajectory.point(trajectory.len() / 2);
        let window = BoundingBox {
            min_x: centre.x - 300.0,
            min_y: centre.y - 300.0,
            max_x: centre.x + 300.0,
            max_y: centre.y + 300.0,
        };
        let q = store.window_query(&window, None);
        assert!(
            q.stats.blocks_decoded < q.stats.blocks_in_scope,
            "probe {probe}: the index must prune something"
        );
        // No false negatives: every original point of every device inside
        // the window is within the bound of a returned segment of that
        // device.
        for (device, traj) in &fleet {
            let inside: Vec<_> = traj
                .points()
                .iter()
                .filter(|p| window.contains(p))
                .collect();
            if inside.is_empty() {
                continue;
            }
            let returned = q
                .matches
                .iter()
                .find(|m| m.device == *device)
                .unwrap_or_else(|| {
                    panic!(
                        "probe {probe}: device {device} has {} points in the window but no match",
                        inside.len()
                    )
                });
            for p in inside {
                let best = returned
                    .segments
                    .iter()
                    .map(|s| s.distance_to_line(p))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    best <= bound,
                    "probe {probe}: device {device} point at t={} is {best} m away",
                    p.t
                );
            }
        }
        // (Matching is deliberately conservative: an absorbing segment is
        // matched through its own ζ-strip, so a returned segment can lie
        // well past the window along its line.  Precision is covered by
        // the skip-ratio assertions, the unit tests and the pinned
        // counts of tests/exact_counts.rs.)
    }
}

#[test]
fn position_at_tracks_the_original_within_bound() {
    // raw-operb: optimization 5 (trailing-point absorption) off, so every
    // stored segment is a chord between original data points and the
    // interpolation bound below is exact (see position_at's caveat about
    // absorbed runs under full OPERB).
    let fleet = synthetic_fleet(10, 300, 7);
    let store = populated_store_with(&fleet, "raw-operb");
    let bound = stored_bound(&store);
    for (device, trajectory) in &fleet {
        // The paper's ζ is a perpendicular bound, so the time-linear
        // stored position cannot promise to coincide with the original
        // sample at the same instant (speed varies; the vehicle may even
        // stop).  What IS guaranteed for raw OPERB output: a stored
        // segment is a chord between original data points, and the
        // original polyline stays within ζ + slack of it — so any
        // interpolated position between a segment's endpoints is within
        // the bound of the original *polyline*.
        let points = trajectory.points();
        let mut checked = 0;
        for p in points {
            let Some(stored) = store.position_at(*device, p.t) else {
                continue;
            };
            checked += 1;
            assert!((stored.t - p.t).abs() < 1e-6);
            let to_polyline = points
                .windows(2)
                .map(|w| traj_geo::DirectedSegment::new(w[0], w[1]).distance_to_segment(&stored))
                .fold(f64::INFINITY, f64::min);
            assert!(
                to_polyline <= bound + 1e-6,
                "device {device}: stored position at t={} is {to_polyline} m off the original path",
                p.t
            );
        }
        assert!(
            checked >= trajectory.len() / 2,
            "device {device}: coverage too sparse ({checked}/{})",
            trajectory.len()
        );
    }
}

#[test]
fn position_at_under_full_operb_is_mostly_within_bound() {
    // Full OPERB attributes absorbed runs to a segment without fitting
    // them, so the time-linear position is documented as approximate
    // there; assert the realistic envelope instead of the strict bound.
    let fleet = synthetic_fleet(10, 300, 7);
    let store = populated_store(&fleet);
    let bound = stored_bound(&store);
    let (mut within, mut total) = (0usize, 0usize);
    for (device, trajectory) in &fleet {
        let points = trajectory.points();
        for p in points {
            let Some(stored) = store.position_at(*device, p.t) else {
                continue;
            };
            total += 1;
            let to_polyline = points
                .windows(2)
                .map(|w| traj_geo::DirectedSegment::new(w[0], w[1]).distance_to_segment(&stored))
                .fold(f64::INFINITY, f64::min);
            if to_polyline <= bound {
                within += 1;
            }
        }
    }
    assert!(total > 1_000, "probe coverage too small ({total})");
    let fraction = within as f64 / total as f64;
    assert!(
        fraction >= 0.9,
        "only {:.1}% of interpolated positions within the bound",
        fraction * 100.0
    );
}

#[test]
fn persistence_roundtrip_preserves_query_answers() {
    let fleet = synthetic_fleet(12, 250, 3);
    let store = populated_store(&fleet);
    let dir = std::env::temp_dir().join(format!("traj-store-e2e-{}", std::process::id()));
    store.save(&dir).unwrap();
    let reopened = ShardedStore::open_with(&dir, 1, StoreConfig::default()).unwrap();
    // A reopened store is lazy: payloads live on disk, not inline.
    let want = traj_store::StoreStats {
        resident_bytes: 0,
        ..store.stats()
    };
    assert_eq!(reopened.stats(), want);
    for (device, trajectory) in &fleet {
        let duration = trajectory.duration();
        assert_eq!(
            store.time_slice(*device, 0.0, duration),
            reopened.time_slice(*device, 0.0, duration),
            "device {device}"
        );
    }
    let centre = fleet[0].1.point(fleet[0].1.len() / 3);
    let window = BoundingBox {
        min_x: centre.x - 200.0,
        min_y: centre.y - 200.0,
        max_x: centre.x + 200.0,
        max_y: centre.y + 200.0,
    };
    assert_eq!(
        store.window_query(&window, None),
        reopened.window_query(&window, None)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn storage_is_compact() {
    let fleet = synthetic_fleet(50, 400, 19);
    let store = populated_store(&fleet);
    let stats = store.stats();
    assert_eq!(stats.points, 50 * 400);
    assert!(
        stats.bytes_per_point() < 8.0,
        "expected well under 8 B/point at ζ = {ZETA}, got {:.2}",
        stats.bytes_per_point()
    );
    assert!(stats.compression_factor() > 3.0);
}
