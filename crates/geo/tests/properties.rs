//! Properties of the geometry primitives, checked over seeded random
//! cases.  Each property draws its inputs from its own fixed seed stream,
//! so a failure names the case and re-runs identically.

use traj_data::rng::{Rng, SmallRng};
use traj_geo::angle::{included_angle, normalize_angle, normalize_angle_signed};
use traj_geo::line::{Line, LineIntersection};
use traj_geo::{BoundingBox, DirectedSegment, GeoPoint, LocalProjection, Point, TAU};

/// Cases per property.
const CASES: u64 = 5_000;

/// Runs `property` over [`CASES`] generators seeded from `stream`; the
/// property returns the violated condition, if any.
fn check(stream: u64, mut property: impl FnMut(&mut SmallRng) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = 0x6E0_0000 + stream * 1_000_000 + case;
        if let Err(what) = property(&mut SmallRng::seed_from_u64(seed)) {
            panic!("case {case} (seed {seed:#x}): {what}");
        }
    }
}

/// Fails the property with the condition's source text and the values
/// named after it.
macro_rules! ensure {
    ($cond:expr $(, $value:expr)*) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!(
                concat!("{}", $(" ", stringify!($value), " = {:?}",)*),
                stringify!($cond) $(, $value)*
            ));
        }
    };
}

fn coord(rng: &mut SmallRng) -> f64 {
    rng.gen_range(-1.0e6..1.0e6)
}

fn point(rng: &mut SmallRng) -> Point {
    Point::xy(coord(rng), coord(rng))
}

#[test]
fn normalize_angle_is_in_range_and_idempotent() {
    check(1, |rng| {
        let theta = rng.gen_range(-1.0e3..1.0e3);
        let n = normalize_angle(theta);
        ensure!((0.0..TAU).contains(&n), theta, n);
        ensure!((normalize_angle(n) - n).abs() < 1e-12, theta, n);
        // Normalization preserves the direction (difference is a multiple of 2π).
        let k = (theta - n) / TAU;
        ensure!((k - k.round()).abs() < 1e-9, theta, n);
        Ok(())
    });
}

#[test]
fn normalize_signed_matches_unsigned() {
    check(2, |rng| {
        let theta = rng.gen_range(-1.0e3..1.0e3);
        let s = normalize_angle_signed(theta);
        ensure!(
            s > -std::f64::consts::PI - 1e-12 && s <= std::f64::consts::PI + 1e-12,
            theta,
            s
        );
        ensure!(
            (normalize_angle(s) - normalize_angle(theta)).abs() < 1e-9,
            theta,
            s
        );
        Ok(())
    });
}

#[test]
fn included_angle_is_antisymmetric_mod_tau() {
    check(3, |rng| {
        let (a, b) = (rng.gen_range(0.0..TAU), rng.gen_range(0.0..TAU));
        let sum = normalize_angle(included_angle(a, b) + included_angle(b, a));
        ensure!(sum.abs() < 1e-9 || (sum - TAU).abs() < 1e-9, a, b, sum);
        Ok(())
    });
}

#[test]
fn point_distance_is_a_metric() {
    check(4, |rng| {
        let (a, b, c) = (point(rng), point(rng), point(rng));
        // Symmetry.
        ensure!((a.distance(&b) - b.distance(&a)).abs() < 1e-9, a, b);
        // Identity.
        ensure!(a.distance(&a).abs() < 1e-12, a);
        // Triangle inequality (with slack for floating point).
        ensure!(
            a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-6,
            a,
            b,
            c
        );
        Ok(())
    });
}

#[test]
fn line_distance_never_exceeds_segment_distance() {
    check(5, |rng| {
        let seg = DirectedSegment::new(point(rng), point(rng));
        let p = point(rng);
        ensure!(
            seg.distance_to_line(&p) <= seg.distance_to_segment(&p) + 1e-6,
            seg,
            p
        );
        // Endpoints are at distance zero from the supporting line.
        ensure!(seg.distance_to_line(&seg.start) < 1e-6, seg);
        ensure!(seg.distance_to_line(&seg.end) < 1e-6, seg);
        Ok(())
    });
}

#[test]
fn distance_is_direction_independent() {
    check(6, |rng| {
        let (s, e, p) = (point(rng), point(rng), point(rng));
        let fwd = DirectedSegment::new(s, e);
        let back = DirectedSegment::new(e, s);
        ensure!(
            (fwd.distance_to_line(&p) - back.distance_to_line(&p)).abs() < 1e-6,
            fwd,
            p
        );
        Ok(())
    });
}

#[test]
fn bounding_box_contains_all_its_points() {
    check(7, |rng| {
        let len = rng.gen_range(1..50usize);
        let points: Vec<Point> = (0..len).map(|_| point(rng)).collect();
        let bb = BoundingBox::from_points(&points);
        for p in &points {
            ensure!(bb.contains(p), bb, p);
        }
        ensure!(bb.width() >= 0.0 && bb.height() >= 0.0, bb);
        Ok(())
    });
}

#[test]
fn polar_roundtrip_preserves_endpoint() {
    check(8, |rng| {
        let (s, e) = (point(rng), point(rng));
        if (s.x - e.x).abs() <= 1e-3 && (s.y - e.y).abs() <= 1e-3 {
            return Ok(()); // degenerate: no direction to round-trip
        }
        let seg = DirectedSegment::new(s, e);
        let back = seg.to_polar().to_directed();
        let scale = seg.length().max(1.0);
        ensure!(back.end.distance(&seg.end) < 1e-6 * scale, seg, back);
        Ok(())
    });
}

#[test]
fn intersection_point_lies_on_both_lines() {
    check(9, |rng| {
        let line = |rng: &mut SmallRng| {
            let anchor = Point::xy(
                rng.gen_range(-1000.0..1000.0),
                rng.gen_range(-1000.0..1000.0),
            );
            Line::new(anchor, rng.gen_range(0.0..TAU))
        };
        let (a, b) = (line(rng), line(rng));
        if let LineIntersection::Point { point, .. } = a.intersect(&b) {
            // Guard against nearly-parallel lines whose intersection is
            // astronomically far away (the residual scales with distance).
            let reach = point
                .distance(&a.anchor)
                .max(point.distance(&b.anchor))
                .max(1.0);
            ensure!(a.distance(&point) < 1e-6 * reach, a, b, point);
            ensure!(b.distance(&point) < 1e-6 * reach, a, b, point);
        }
        Ok(())
    });
}

#[test]
fn projection_roundtrip() {
    check(10, |rng| {
        let lon = rng.gen_range(-179.0..179.0);
        let lat = rng.gen_range(-80.0..80.0);
        let dlon = rng.gen_range(-0.05..0.05);
        let dlat = rng.gen_range(-0.05..0.05);
        let proj = LocalProjection::new(GeoPoint::new(lon, lat, 0.0));
        let fix = GeoPoint::new(lon + dlon, lat + dlat, 12.0);
        let planar = proj.project(&fix);
        let back = proj.unproject(&planar);
        ensure!((back.lon - fix.lon).abs() < 1e-9, fix, back);
        ensure!((back.lat - fix.lat).abs() < 1e-9, fix, back);
        ensure!(planar.t == 12.0, planar);
        Ok(())
    });
}
