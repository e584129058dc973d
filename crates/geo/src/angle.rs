//! Angle arithmetic (paper §3.1, "Included angles (∠)") and the sign
//! function `f` used by the fitting function of OPERB (paper §4.1).

use crate::TAU;
use std::f64::consts::PI;

/// Normalizes an angle to the range `[0, 2π)`.
///
/// The paper represents segment angles `L.θ ∈ [0, 2π)`, measured against the
/// x axis of the planar coordinate system.
#[inline]
pub fn normalize_angle(theta: f64) -> f64 {
    // An angle inside (−2π, 2π) is its own remainder, so only larger ones
    // pay for `fmod`; ±∞ and NaN still take `%` and come out NaN.
    let mut a = if theta.abs() < TAU {
        theta
    } else {
        theta % TAU
    };
    if a < 0.0 {
        a += TAU;
    }
    // `-1e-18 % TAU` can round back up to TAU; keep the invariant strict.
    if a >= TAU {
        a -= TAU;
    }
    a
}

/// Normalizes an angle to the signed range `(-π, π]`.
#[inline]
pub fn normalize_angle_signed(theta: f64) -> f64 {
    let mut a = theta % TAU;
    if a > PI {
        a -= TAU;
    } else if a <= -PI {
        a += TAU;
    }
    a
}

/// The included angle `∠(L1, L2) = L2.θ − L1.θ` from a segment with angle
/// `theta_from` to a segment with angle `theta_to` (paper §3.1).
///
/// Both inputs are normalized to `[0, 2π)` first, so the result lies in
/// `(-2π, 2π)`, matching the convention of Example 1(2) of the paper.
#[inline]
pub fn included_angle(theta_from: f64, theta_to: f64) -> f64 {
    normalize_angle(theta_to) - normalize_angle(theta_from)
}

/// The sign function `f(R_i, L_{i−1})` of the fitting function F
/// (paper §4.1, item (e)).
///
/// Returns `+1.0` when the included angle `Δ = R_i.θ − L_{i−1}.θ` falls in
/// `(−2π, −3π/2] ∪ [−π, −π/2] ∪ [0, π/2] ∪ [π, 3π/2)` and `−1.0` otherwise.
/// These four intervals are exactly the angles whose value modulo `π` lies
/// in `[0, π/2]`; that is the direction in which rotating `L_{i−1}` brings
/// the fitted line closer to the new data point.
#[inline]
pub fn fitting_sign(r_theta: f64, l_theta: f64) -> f64 {
    let delta = included_angle(l_theta, r_theta);
    // Map Δ ∈ (−2π, 2π) onto [0, π) and test the half-interval.
    let mut m = delta % PI;
    if m < 0.0 {
        m += PI;
    }
    if m <= PI / 2.0 + f64::EPSILON {
        1.0
    } else {
        -1.0
    }
}

/// Absolute angular difference between two directions, folded to `[0, π]`.
///
/// Useful to measure "how sharp a turn is" independent of orientation.
#[inline]
pub fn angular_distance(a: f64, b: f64) -> f64 {
    let d = normalize_angle_signed(a - b).abs();
    d.min(TAU - d)
}

/// Returns `true` when the included angle `delta` (in `(-2π, 2π)`) is an
/// admissible direction change for patch-point interpolation
/// (paper §5.1, patching condition (3)).
///
/// Admissible ranges: `(−2π, −π−γm] ∪ [γm−π, π−γm] ∪ [π+γm, 2π)`.
/// Intuitively the turn must stay away from a full U-turn by at least `γm`.
#[inline]
pub fn patch_angle_admissible(delta: f64, gamma_m: f64) -> bool {
    debug_assert!((0.0..=PI).contains(&gamma_m), "γm must be in [0, π]");
    (delta > -TAU && delta <= -PI - gamma_m)
        || (delta >= gamma_m - PI && delta <= PI - gamma_m)
        || (delta >= PI + gamma_m && delta < TAU)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;
    use traj_data::rng::{Rng, SmallRng};

    const EPS: f64 = 1e-12;

    /// The reference for [`normalize_angle`]: `fmod` on every input, then
    /// the same two fix-ups.
    fn fmod_normalize_angle(theta: f64) -> f64 {
        let mut a = theta % TAU;
        if a < 0.0 {
            a += TAU;
        }
        if a >= TAU {
            a -= TAU;
        }
        a
    }

    #[test]
    fn normalize_matches_the_fmod_path_bit_for_bit() {
        let edges = [
            0.0,
            -0.0,
            -1e-18,
            1e-18,
            -f64::MIN_POSITIVE,
            -5e-324,
            PI,
            -PI,
            TAU,
            -TAU,
            TAU.next_down(),
            TAU.next_up(),
            -TAU.next_down(),
            -TAU.next_up(),
            3.0 * TAU,
            -3.0 * TAU,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = SmallRng::seed_from_u64(0x07a0_2f1e);
        let seeded = (0..200_000).map(|_| rng.gen_range(-3.0 * TAU..3.0 * TAU));
        for theta in edges.into_iter().chain(seeded) {
            let (fast, fmod) = (normalize_angle(theta), fmod_normalize_angle(theta));
            assert_eq!(
                fast.to_bits(),
                fmod.to_bits(),
                "θ = {theta:e}: {fast:e} vs {fmod:e}"
            );
        }
    }

    #[test]
    fn normalize_into_range() {
        assert!((normalize_angle(0.0)).abs() < EPS);
        assert!((normalize_angle(TAU) - 0.0).abs() < EPS);
        assert!((normalize_angle(-FRAC_PI_2) - 3.0 * FRAC_PI_2).abs() < EPS);
        assert!((normalize_angle(5.0 * PI) - PI).abs() < EPS);
        for theta in [-100.0, -7.5, -0.1, 0.0, 0.1, 7.5, 100.0] {
            let n = normalize_angle(theta);
            assert!((0.0..TAU).contains(&n), "{n} out of [0, 2π) for {theta}");
        }
    }

    #[test]
    fn normalize_signed_into_range() {
        assert!((normalize_angle_signed(3.0 * FRAC_PI_2) + FRAC_PI_2).abs() < EPS);
        assert!((normalize_angle_signed(-PI) - PI).abs() < EPS);
        for theta in [-100.0, -7.5, -0.1, 0.0, 0.1, 7.5, 100.0] {
            let n = normalize_angle_signed(theta);
            assert!(n > -PI - EPS && n <= PI + EPS);
        }
    }

    #[test]
    fn included_angle_examples_from_paper() {
        // Example 1(2): the included angle lies in (−2π, 2π); the paper shows
        // two cases with values −19π/12 and 3π/4.
        let a = included_angle(19.0 * PI / 12.0, 0.0);
        assert!((a + 19.0 * PI / 12.0).abs() < EPS);
        let b = included_angle(0.0, 3.0 * PI / 4.0);
        assert!((b - 3.0 * PI / 4.0).abs() < EPS);
    }

    #[test]
    fn fitting_sign_positive_intervals() {
        // Δ in [0, π/2] → +1
        assert_eq!(fitting_sign(0.3, 0.0), 1.0);
        // Δ in (π/2, π) → −1
        assert_eq!(fitting_sign(2.0, 0.0), -1.0);
        // Δ in [π, 3π/2) → +1
        assert_eq!(fitting_sign(PI + 0.3, 0.0), 1.0);
        // Δ in (3π/2, 2π) → −1
        assert_eq!(fitting_sign(TAU - 0.3, 0.0), -1.0);
        // Negative Δ: L.θ larger than R.θ.  Δ = −0.3 ≡ −0.3; −0.3 mod π = π−0.3 > π/2 → −1
        assert_eq!(fitting_sign(0.0, 0.3), -1.0);
        // Δ = −π/2 − 0.2 → mod π = π/2 − 0.2 → +1 (inside [−π, −π/2]... boundary region)
        assert_eq!(fitting_sign(0.0, PI / 2.0 + 0.2), 1.0);
    }

    #[test]
    fn fitting_sign_rotates_towards_point() {
        // The sign must be such that rotating L by a small positive
        // f * δ decreases the distance of the point to the line.
        let anchors = [0.1f64, 0.9, 1.7, 2.5, 3.3, 4.1, 4.9, 5.7];
        for &l_theta in &anchors {
            for &offset in &[0.2f64, 0.7, 1.2, 1.9, 2.4, 3.0, 3.7, 4.4, 5.1, 5.9] {
                let r_theta = normalize_angle(l_theta + offset);
                let radius = 10.0;
                let p = (radius * r_theta.cos(), radius * r_theta.sin());
                let dist = |theta: f64| -> f64 {
                    // distance of p to the line through the origin with angle theta
                    (p.0 * theta.sin() - p.1 * theta.cos()).abs()
                };
                let f = fitting_sign(r_theta, l_theta);
                let d0 = dist(l_theta);
                if d0 < 1e-9 {
                    continue; // already on the line, sign irrelevant
                }
                let d1 = dist(l_theta + f * 1e-4);
                assert!(
                    d1 < d0,
                    "sign {f} does not rotate towards point: lθ={l_theta} rθ={r_theta} d0={d0} d1={d1}"
                );
            }
        }
    }

    #[test]
    fn angular_distance_folds() {
        assert!((angular_distance(0.0, PI) - PI).abs() < EPS);
        assert!((angular_distance(0.1, TAU - 0.1) - 0.2).abs() < 1e-9);
        assert!((angular_distance(3.0, 3.0)).abs() < EPS);
    }

    #[test]
    fn patch_admissibility_default_gamma() {
        let gm = PI / 3.0;
        // straight continuation (Δ = 0) is admissible
        assert!(patch_angle_admissible(0.0, gm));
        // 90° turn is admissible (|Δ| = π/2 ≤ π − γm = 2π/3)
        assert!(patch_angle_admissible(FRAC_PI_2, gm));
        assert!(patch_angle_admissible(-FRAC_PI_2, gm));
        // near U-turn (Δ = π − 0.1 with γm = π/3) is NOT admissible
        assert!(!patch_angle_admissible(PI - 0.1, gm));
        assert!(!patch_angle_admissible(-PI + 0.1, gm));
        // Δ = π + γm is admissible again (equivalent to −(π − γm))
        assert!(patch_angle_admissible(PI + gm, gm));
        // large negative turn beyond −π−γm is admissible
        assert!(patch_angle_admissible(-PI - gm, gm));
    }

    #[test]
    fn patch_admissibility_gamma_zero_allows_everything_but_boundary() {
        // γm = 0: all of (−2π, 2π) is admissible.
        for delta in [-5.0, -PI, -1.0, 0.0, 1.0, PI, 5.0] {
            assert!(patch_angle_admissible(delta, 0.0), "delta = {delta}");
        }
    }

    #[test]
    fn patch_admissibility_gamma_pi_only_straight() {
        // γm = π: only Δ = 0 (and the extreme ±2π neighbourhood) is allowed
        // by the middle interval [γm − π, π − γm] = [0, 0].
        assert!(patch_angle_admissible(0.0, PI));
        assert!(!patch_angle_admissible(0.3, PI));
        assert!(!patch_angle_admissible(-0.3, PI));
    }
}
