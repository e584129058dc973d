//! Properties of the fitting function, checked over seeded random cases.
//! Each property draws its inputs from its own fixed seed stream, so a
//! failure names the case and re-runs identically.
//!
//! The engine-level ζ property (`engine_output_is_bounded_on_random_polylines`)
//! stays in the quarantined `proptest_fitting.rs`: OPERB with
//! optimisations 2, 3 and 4 together still exceeds ζ on some random walks.

use operb::config::OperbConfig;
use operb::fitting::{zone_index, FittedLine, PointClass};
use std::f64::consts::{FRAC_PI_2, PI, TAU};
use traj_data::rng::{Rng, SmallRng};
use traj_geo::Point;

/// Cases per property.
const CASES: u64 = 5_000;

/// Runs `property` over [`CASES`] generators seeded from `stream`; the
/// property returns the violated condition, if any.
fn check(stream: u64, mut property: impl FnMut(&mut SmallRng) -> Result<(), String>) {
    for case in 0..CASES {
        let seed = 0xF17_0000 + stream * 1_000_000 + case;
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

#[test]
fn zone_index_matches_its_definition() {
    check(1, |rng| {
        let r = rng.gen_range(0.0..1.0e5);
        let zeta = rng.gen_range(0.5..200.0);
        // Zone Z_j covers (j·ζ/2 − ζ/4, j·ζ/2 + ζ/4]; check membership.
        let j = zone_index(r, zeta);
        let center = j as f64 * zeta / 2.0;
        ensure!(r <= center + zeta / 4.0 + 1e-9, r, zeta, j);
        if j > 0 {
            ensure!(r > center - zeta / 4.0 - 1e-9, r, zeta, j);
        }
        Ok(())
    });
}

#[test]
fn incorporating_an_active_point_never_increases_its_distance() {
    check(2, |rng| {
        let first_angle = rng.gen_range(0.0..TAU);
        let zeta = rng.gen_range(1.0..50.0);
        let steps = rng.gen_range(1usize..30);
        // Build a chain of active points, each in a further zone, each
        // within the acceptable deviation of the current line; the fitting
        // function must always rotate towards (or keep the distance of)
        // the point.
        let cfg = OperbConfig::raw();
        let anchor = Point::xy(0.0, 0.0);
        let mut line = FittedLine::new(anchor, zeta);
        let mut radius = zeta; // start in zone ≥ 1
        let first = Point::xy(radius * first_angle.cos(), radius * first_angle.sin());
        line.incorporate_active(&first, &cfg);
        for _ in 0..steps {
            let angle_frac = rng.gen_range(-0.45..0.45);
            let zone_step = rng.gen_range(1.1..3.0);
            radius += zone_step * zeta / 2.0;
            // Place the point at a bounded angular offset from the current
            // fitted direction so that d ≤ ζ/2 is plausible.
            let max_offset = (zeta / 2.0 / radius).min(1.0).asin();
            let theta = line.theta() + angle_frac * 2.0 * max_offset;
            let p = Point::xy(radius * theta.cos(), radius * theta.sin());
            let d_before = line.distance_to_line(&p);
            if !line.distance_acceptable(line.sign_for(&p), d_before, &cfg)
                || line.classify(&p, &cfg) != PointClass::Active
            {
                continue;
            }
            line.incorporate_active(&p, &cfg);
            let d_after = line.distance_to_line(&p);
            ensure!(d_after <= d_before + 1e-9, zeta, p, d_before, d_after);
        }
        Ok(())
    });
}

#[test]
fn fast_sign_agrees_with_angle_interval_definition() {
    check(3, |rng| {
        let l_theta = rng.gen_range(0.0..TAU);
        let r_theta = rng.gen_range(0.0..TAU);
        let radius = rng.gen_range(1.0..1000.0);
        // The engine computes f from dot/cross products; the reference
        // definition uses the angle intervals of the paper.  They must
        // agree away from the interval boundaries.
        let delta = traj_geo::angle::included_angle(l_theta, r_theta);
        let m = delta.rem_euclid(PI);
        if (m - FRAC_PI_2).abs() <= 1e-6 || m <= 1e-6 || PI - m <= 1e-6 {
            return Ok(());
        }
        let mut line = FittedLine::new(Point::xy(0.0, 0.0), 10.0);
        // Fix the fitted direction exactly at l_theta by incorporating a
        // first active point straight along it.
        line.incorporate_active(
            &Point::xy(20.0 * l_theta.cos(), 20.0 * l_theta.sin()),
            &OperbConfig::raw(),
        );
        let p = Point::xy(radius * r_theta.cos(), radius * r_theta.sin());
        let fast = line.sign_for(&p);
        let reference = traj_geo::angle::fitting_sign(r_theta, l_theta);
        ensure!(fast == reference, l_theta, r_theta, delta, fast, reference);
        Ok(())
    });
}
