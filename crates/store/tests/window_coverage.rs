//! Window answers lose no original point the store can account for.
//!
//! A window query returns an absorbing segment (one that owns points past
//! its end) only when its endpoint box or its own ζ-strip meets the
//! window, not whenever its block is decoded.  This suite checks that
//! narrowing over every dataset profile and the three OPERB variants
//! whose segments absorb, are patched or neither: whenever an original
//! point inside a window (and inside its time range, if any) lies within
//! `ζ + slack` of its device's full stored representation, it also lies
//! within that bound of a segment the window returned for that device.
//!
//! Seeded and deterministic: fixed fleets, windows centred on original
//! points picked by a fixed stride.

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, Point};
use traj_model::{SimplifiedSegment, Trajectory};
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

const SEED: u64 = 0x5EED_0030;
const DEVICES: usize = 24;
const POINTS: usize = 400;
const ZETA: f64 = 20.0;
const BLOCK_SEGMENTS: usize = 32;
/// Windows centred per (profile, algorithm); each is queried at every
/// half-side, with and without a time range.
const CENTRES: usize = 32;
const HALF_SIDES: [f64; 3] = [50.0, 300.0, 1_000.0];
const TIME_HALF_RANGE: f64 = 900.0;

fn fleet(kind: DatasetKind) -> Vec<(DeviceId, Trajectory)> {
    let generator = DatasetGenerator::for_kind(kind, SEED);
    (0..DEVICES)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, POINTS)))
        .collect()
}

fn build_store(fleet: &[(DeviceId, Trajectory)], algorithm: &str) -> ShardedStore {
    let algorithm = FleetAlgorithm::by_name(algorithm).expect("known algorithm");
    let config = PipelineConfig::new(ZETA)
        .with_workers(2)
        .with_batch_size(64);
    let store = ShardedStore::new(
        StoreConfig::default().with_block_segments(BLOCK_SEGMENTS),
        1,
    );
    let (_, ingested) =
        compress_fleet_into_shared_store(fleet, &config, &algorithm, &store).expect("ingest");
    assert_eq!(ingested, fleet.len());
    store
}

fn nearest(segments: &[SimplifiedSegment], p: &Point) -> f64 {
    segments
        .iter()
        .map(|s| s.distance_to_line(p))
        .fold(f64::INFINITY, f64::min)
}

/// What one (profile, algorithm) pass checked.
#[derive(Default)]
struct Checked {
    windows: usize,
    originals: usize,
}

fn check_coverage(kind: DatasetKind, algorithm: &str, checked: &mut Checked) {
    let fleet = fleet(kind);
    let store = build_store(&fleet, algorithm);
    let bound = ZETA + store.config().codec.spatial_slack();
    let full: Vec<Vec<SimplifiedSegment>> = fleet
        .iter()
        .map(|(device, _)| {
            store
                .time_slice(*device, f64::NEG_INFINITY, f64::INFINITY)
                .segments
        })
        .collect();
    for c in 0..CENTRES {
        let (_, trajectory) = &fleet[(c * 5 + 1) % fleet.len()];
        let centre = trajectory.point((c * 97 + 13) % trajectory.len());
        for half in HALF_SIDES {
            let window = BoundingBox {
                min_x: centre.x - half,
                min_y: centre.y - half,
                max_x: centre.x + half,
                max_y: centre.y + half,
            };
            let around = (centre.t - TIME_HALF_RANGE, centre.t + TIME_HALF_RANGE);
            for time in [None, Some(around)] {
                let q = store.window_query(&window, time);
                checked.windows += 1;
                for (d, (device, traj)) in fleet.iter().enumerate() {
                    let returned = q
                        .matches
                        .iter()
                        .find(|m| m.device == *device)
                        .map_or(&[][..], |m| &m.segments[..]);
                    let inside = traj.points().iter().filter(|p| {
                        window.contains(p) && time.is_none_or(|(t0, t1)| t0 <= p.t && p.t <= t1)
                    });
                    for p in inside {
                        if nearest(&full[d], p) > bound {
                            continue;
                        }
                        checked.originals += 1;
                        let best = nearest(returned, p);
                        assert!(
                            best <= bound,
                            "{kind:?}/{algorithm}: window ±{half} m at ({:.1}, {:.1}), \
                             time {time:?}: device {device} original at t={} is {best} m \
                             from the {} returned segments (bound {bound})",
                            centre.x,
                            centre.y,
                            p.t,
                            returned.len()
                        );
                    }
                }
            }
        }
    }
}

fn check_all_profiles(algorithm: &str) {
    let mut checked = Checked::default();
    for kind in DatasetKind::ALL {
        check_coverage(kind, algorithm, &mut checked);
    }
    assert_eq!(checked.windows, 4 * CENTRES * HALF_SIDES.len() * 2);
    // Every window is centred on an original, so each checks at least
    // that one point.
    assert!(
        checked.originals >= checked.windows,
        "{algorithm}: {} originals over {} windows",
        checked.originals,
        checked.windows
    );
}

#[test]
fn operb_windows_cover_their_originals() {
    check_all_profiles("operb");
}

#[test]
fn operb_a_windows_cover_their_originals() {
    check_all_profiles("operb-a");
}

#[test]
fn raw_operb_windows_cover_their_originals() {
    check_all_profiles("raw-operb");
}
