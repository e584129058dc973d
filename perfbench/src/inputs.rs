//! Seeded inputs.  Everything a workload feeds the program is built here,
//! from `--seed`, before timing starts: fleets, waves, fences, query lists
//! and kNN probes.  The same seed gives the same inputs.

use traj_data::rng::{Rng, SmallRng};
use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, Point};
use traj_model::Trajectory;
use traj_pipeline::DeviceId;

/// The error bound of every workload (the paper's common ζ), metres.
pub const ZETA: f64 = 30.0;

/// Segments per sealed block, as `trajsimp serve` configures its store.
pub const BLOCK_SEGMENTS: usize = 32;

/// Shards of every sharded store, as `trajsimp serve` defaults.
pub const SHARDS: usize = 16;

/// Neighbours asked of every kNN query.
pub const KNN_K: usize = 5;

pub type Fleet = Vec<(DeviceId, Trajectory)>;

/// A generator stream derived from the run seed and a per-purpose salt, so
/// adding one input never shifts another.
pub fn rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Side of the square area a fleet's trips start in, metres.
const CITY: f64 = 30_000.0;

/// `count` devices of `kind` with ids `first_id..`, each with a length
/// drawn from `points`.  The generator starts every trip at the origin;
/// each device is moved to its own start point in the city, so windows
/// and fences see a spread fleet rather than one pile at (0, 0).
pub fn fleet(
    kind: DatasetKind,
    seed: u64,
    first_id: u64,
    count: usize,
    points: std::ops::Range<usize>,
) -> Fleet {
    let generator = DatasetGenerator::for_kind(kind, seed ^ (first_id << 20));
    let mut draw = rng(seed, 0x1e46_7400 + first_id);
    (0..count)
        .map(|i| {
            let len = draw.gen_range(points.clone());
            let (dx, dy) = (
                draw.gen_range(0.0..CITY) - CITY / 2.0,
                draw.gen_range(0.0..CITY) - CITY / 2.0,
            );
            let trip = generator.generate_trajectory(i, len);
            let moved = trip
                .points()
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy, p.t))
                .collect();
            (first_id + i as u64, Trajectory::new_unchecked(moved))
        })
        .collect()
}

/// `fleet` with every timestamp moved `offset` seconds later: the next
/// wave of a live feed (per-device logs are append-only in time).
pub fn shifted(fleet: &[(DeviceId, Trajectory)], offset: f64) -> Fleet {
    fleet
        .iter()
        .map(|(device, traj)| {
            let points = traj
                .points()
                .iter()
                .map(|p| Point::new(p.x, p.y, p.t + offset))
                .collect();
            (*device, Trajectory::new_unchecked(points))
        })
        .collect()
}

/// A random recorded point of a random device.
fn traffic_point(fleet: &[(DeviceId, Trajectory)], rng: &mut SmallRng) -> (usize, Point) {
    let index = rng.gen_range(0..fleet.len());
    let traj = &fleet[index].1;
    (index, traj.point(rng.gen_range(0..traj.len())))
}

fn square(centre: Point, half: f64) -> BoundingBox {
    BoundingBox {
        min_x: centre.x - half,
        min_y: centre.y - half,
        max_x: centre.x + half,
        max_y: centre.y + half,
    }
}

/// Standing geofence regions centred on real traffic.
pub fn fences(fleet: &[(DeviceId, Trajectory)], seed: u64, count: usize) -> Vec<BoundingBox> {
    let mut rng = rng(seed, 0xfe4ce);
    (0..count)
        .map(|_| {
            let (_, centre) = traffic_point(fleet, &mut rng);
            square(centre, rng.gen_range(200.0..800.0))
        })
        .collect()
}

/// The query types the read workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Slice,
    Window,
    Position,
    Knn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Slice, Kind::Window, Kind::Position, Kind::Knn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Slice => "slice",
            Kind::Window => "window",
            Kind::Position => "position",
            Kind::Knn => "knn",
        }
    }
}

/// One read query, with the fleet index of the device it concerns where
/// it concerns one.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Slice {
        index: usize,
        device: DeviceId,
        t0: f64,
        t1: f64,
    },
    Window {
        window: BoundingBox,
        time: Option<(f64, f64)>,
    },
    Position {
        device: DeviceId,
        t: f64,
    },
    Knn {
        points: Vec<Point>,
    },
}

impl Query {
    pub fn kind(&self) -> Kind {
        match self {
            Query::Slice { .. } => Kind::Slice,
            Query::Window { .. } => Kind::Window,
            Query::Position { .. } => Kind::Position,
            Query::Knn { .. } => Kind::Knn,
        }
    }

    /// The HTTP request target.  Floats print in shortest round-trip form,
    /// so the server parses exactly the values the direct call uses.
    pub fn path(&self) -> String {
        match self {
            Query::Slice { device, t0, t1, .. } => {
                format!("/time_slice?device={device}&from={t0}&to={t1}")
            }
            Query::Window { window, time } => {
                let mut path = format!(
                    "/window?min_x={}&min_y={}&max_x={}&max_y={}",
                    window.min_x, window.min_y, window.max_x, window.max_y
                );
                if let Some((t0, t1)) = time {
                    path.push_str(&format!("&from={t0}&to={t1}"));
                }
                path
            }
            Query::Position { device, t } => format!("/position_at?device={device}&t={t}"),
            Query::Knn { points } => {
                let list: Vec<String> = points.iter().map(|p| format!("{},{}", p.x, p.y)).collect();
                format!("/knn?points={}&k={KNN_K}", list.join(";"))
            }
        }
    }
}

/// kNN probe: one to three points jittered around real traffic.
fn knn_probe(fleet: &[(DeviceId, Trajectory)], rng: &mut SmallRng) -> Query {
    let (_, centre) = traffic_point(fleet, rng);
    let n = rng.gen_range(1..4usize);
    let points = (0..n)
        .map(|_| {
            Point::new(
                centre.x + rng.gen_range(-200.0..200.0),
                centre.y + rng.gen_range(-200.0..200.0),
                0.0,
            )
        })
        .collect();
    Query::Knn { points }
}

/// The serve_hot mix: 40% time slices, 30% windows (half time-bounded),
/// 20% position lookups, 10% kNN.
pub fn hot_queries(fleet: &[(DeviceId, Trajectory)], seed: u64, count: usize) -> Vec<Query> {
    let mut rng = rng(seed, 0x407);
    (0..count)
        .map(|_| {
            let roll = rng.gen_range(0..10u32);
            match roll {
                0..=3 => {
                    let index = rng.gen_range(0..fleet.len());
                    let (device, traj) = &fleet[index];
                    let t0 = traj.first().t + traj.duration() * rng.gen_range(0.0..0.7);
                    let t1 = t0 + traj.duration() * rng.gen_range(0.05..0.3);
                    Query::Slice {
                        index,
                        device: *device,
                        t0,
                        t1,
                    }
                }
                4..=6 => {
                    let (_, centre) = traffic_point(fleet, &mut rng);
                    let time = rng
                        .gen_bool(0.5)
                        .then_some((centre.t - 1800.0, centre.t + 1800.0));
                    Query::Window {
                        window: square(centre, 300.0),
                        time,
                    }
                }
                7 | 8 => {
                    let (device, traj) = &fleet[rng.gen_range(0..fleet.len())];
                    Query::Position {
                        device: *device,
                        t: traj.first().t + traj.duration() * rng.gen_range(0.1..0.9),
                    }
                }
                _ => knn_probe(fleet, &mut rng),
            }
        })
        .collect()
}

/// The scan_cold mix: 40% full-range time slices, 40% large time-bounded
/// windows, 20% kNN probes.
pub fn cold_queries(fleet: &[(DeviceId, Trajectory)], seed: u64, count: usize) -> Vec<Query> {
    let mut rng = rng(seed, 0xc01d);
    (0..count)
        .map(|_| match rng.gen_range(0..5u32) {
            0 | 1 => {
                let index = rng.gen_range(0..fleet.len());
                let (device, traj) = &fleet[index];
                Query::Slice {
                    index,
                    device: *device,
                    t0: traj.first().t,
                    t1: traj.last().t,
                }
            }
            2 | 3 => {
                let (index, centre) = traffic_point(fleet, &mut rng);
                let quarter = fleet[index].1.duration() / 4.0;
                Query::Window {
                    window: square(centre, 1000.0),
                    time: Some((centre.t - quarter, centre.t + quarter)),
                }
            }
            _ => knn_probe(fleet, &mut rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = fleet(DatasetKind::Taxi, 7, 0, 5, 50..80);
        let b = fleet(DatasetKind::Taxi, 7, 0, 5, 50..80);
        let c = fleet(DatasetKind::Taxi, 8, 0, 5, 50..80);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(hot_queries(&a, 7, 50), hot_queries(&b, 7, 50));
        assert_eq!(cold_queries(&a, 7, 50), cold_queries(&b, 7, 50));
        assert_eq!(fences(&a, 7, 4), fences(&b, 7, 4));
    }

    #[test]
    fn paths_round_trip_floats() {
        let q = Query::Position {
            device: 3,
            t: 0.1 + 0.2,
        };
        let t: f64 = q.path().rsplit('=').next().unwrap().parse().unwrap();
        assert_eq!(t, 0.1 + 0.2);
    }

    #[test]
    fn waves_shift_time_only() {
        let base = fleet(DatasetKind::Taxi, 1, 0, 2, 10..12);
        let wave = shifted(&base, 1000.0);
        for ((d0, a), (d1, b)) in base.iter().zip(&wave) {
            assert_eq!(d0, d1);
            for (p, q) in a.points().iter().zip(b.points()) {
                assert_eq!((p.x, p.y, p.t + 1000.0), (q.x, q.y, q.t));
            }
        }
    }
}
