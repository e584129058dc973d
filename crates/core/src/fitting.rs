//! The fitting function **F** of OPERB (paper §4.1) and its zone
//! bookkeeping.
//!
//! Given an error bound `ζ` and a sub-trajectory anchored at `P_s`, the
//! fitting function incrementally maintains a directed line segment
//! `L_i = (P_s, |L_i|, θ_i)` that "fits" all points processed so far, such
//! that checking a *single* distance `d(P_{s+i+1}, L_i)` suffices to decide
//! whether the next point can join the current segment — this is the local
//! distance checking that makes OPERB one-pass.
//!
//! The space around `P_s` is partitioned into ring-shaped zones of width
//! `ζ/2`; a point is **active** when it advances the fitted line into a new
//! zone and **inactive** otherwise (it then only needs the distance check).

use crate::config::OperbConfig;
use traj_geo::angle::normalize_angle;
use traj_geo::Point;

/// The zone index `j = ⌈2|R|/ζ − 0.5⌉` of a point at distance `|R|` from
/// the anchor (paper §4.1): zone `Z_j` covers radii
/// `(j·ζ/2 − ζ/4, j·ζ/2 + ζ/4]`.
#[inline]
pub fn zone_index(r_len: f64, zeta: f64) -> u64 {
    debug_assert!(zeta > 0.0);
    let j = (2.0 * r_len / zeta - 0.5).ceil();
    if j <= 0.0 {
        0
    } else {
        j as u64
    }
}

/// Classification of a data point relative to the current fitted line
/// (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    /// `|R_i| − |L_{i−1}| > threshold`: the point advances the fitted line
    /// into a new zone.
    Active,
    /// The point stays within the current zone of the fitted line.
    Inactive,
}

/// The incremental state of the fitting function for one output segment.
///
/// `FittedLine` deliberately exposes the exact quantities used in the
/// paper's formulas so the unit tests can check them case by case.
#[derive(Debug, Clone)]
pub struct FittedLine {
    /// The error bound ζ.
    zeta: f64,
    /// Anchor point `P_s` of the current segment.
    anchor: Point,
    /// Current length `|L|` (0 until the first active point).
    length: f64,
    /// Current angle `θ ∈ [0, 2π)` (meaningless while `length == 0`).
    theta: f64,
    /// Zone index of the last active point (0 until the first active point).
    last_zone: u64,
    /// Largest distance seen on the `f = +1` side (optimization 2/3).
    d_plus_max: f64,
    /// Largest distance seen on the `f = −1` side (optimization 2/3).
    d_minus_max: f64,
    /// Cached `cos θ` of the fitted direction (hot-path optimization: the
    /// per-point distance check must not pay for trigonometry).
    cos_theta: f64,
    /// Cached `sin θ` of the fitted direction.
    sin_theta: f64,
}

impl FittedLine {
    /// Starts a fresh fitted line anchored at `anchor` (the `L_0 = R_0` of
    /// the paper).
    pub fn new(anchor: Point, zeta: f64) -> Self {
        debug_assert!(zeta > 0.0 && zeta.is_finite());
        Self {
            zeta,
            anchor,
            length: 0.0,
            theta: 0.0,
            last_zone: 0,
            d_plus_max: 0.0,
            d_minus_max: 0.0,
            cos_theta: 1.0,
            sin_theta: 0.0,
        }
    }

    /// The anchor point `P_s`.
    #[inline]
    pub fn anchor(&self) -> Point {
        self.anchor
    }

    /// Current fitted length `|L|`.
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Current fitted angle `θ`.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// `true` until the first active point has been incorporated.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.length == 0.0
    }

    /// Zone index of the last incorporated active point.
    #[inline]
    pub fn last_zone(&self) -> u64 {
        self.last_zone
    }

    /// Largest distance seen on the positive (`f = +1`) side so far.
    #[inline]
    pub fn d_plus_max(&self) -> f64 {
        self.d_plus_max
    }

    /// Largest distance seen on the negative (`f = −1`) side so far.
    #[inline]
    pub fn d_minus_max(&self) -> f64 {
        self.d_minus_max
    }

    /// Distance from `p` to the *line* supporting the fitted segment
    /// (distance to the anchor while the line is still zero-length).
    #[inline]
    pub fn distance_to_line(&self, p: &Point) -> f64 {
        if self.is_zero() {
            return self.anchor.distance(p);
        }
        ((p.x - self.anchor.x) * self.sin_theta - (p.y - self.anchor.y) * self.cos_theta).abs()
    }

    /// Classifies `p` as active or inactive under `config`
    /// (paper §4.1 plus optimization 1).
    pub fn classify(&self, p: &Point, config: &OperbConfig) -> PointClass {
        let r_len = self.anchor.distance(p);
        if self.is_zero() {
            let threshold = if config.opt_first_active {
                self.zeta
            } else {
                self.zeta / 4.0
            };
            if r_len > threshold {
                PointClass::Active
            } else {
                PointClass::Inactive
            }
        } else if r_len - self.length > self.zeta / 4.0 {
            PointClass::Active
        } else {
            PointClass::Inactive
        }
    }

    /// The sign `f(R_i, L_{i−1})` for point `p` (meaningful only once the
    /// line is non-zero).
    ///
    /// Equivalent to [`traj_geo::angle::fitting_sign`]`(R.θ, L.θ)` but computed from the dot
    /// and cross products with the cached fitted direction, so the per-point
    /// hot path pays no `atan2`: with `Δ = R.θ − L.θ`, the paper's intervals
    /// are exactly `Δ mod π ∈ [0, π/2]`, i.e. `sin Δ · cos Δ ≥ 0`, i.e.
    /// `cross · dot ≥ 0`.
    #[inline]
    pub fn sign_for(&self, p: &Point) -> f64 {
        let dx = p.x - self.anchor.x;
        let dy = p.y - self.anchor.y;
        let dot = dx * self.cos_theta + dy * self.sin_theta;
        let cross = self.cos_theta * dy - self.sin_theta * dx;
        if cross * dot >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The cached unit direction `(cos θ, sin θ)` of the fitted line.
    #[inline]
    pub fn direction(&self) -> (f64, f64) {
        (self.cos_theta, self.sin_theta)
    }

    /// Records the distance of a processed point on its side of the fitted
    /// line (bookkeeping for optimizations 2 and 3).
    pub fn record_distance(&mut self, sign: f64, d: f64) {
        if sign >= 0.0 {
            self.d_plus_max = self.d_plus_max.max(d);
        } else {
            self.d_minus_max = self.d_minus_max.max(d);
        }
    }

    /// Whether accepting a point at distance `d` on side `sign` keeps the
    /// segment within the error bound, under the configured distance
    /// condition (the plain `d ≤ ζ/2` of Theorem 2, or optimization 2's
    /// `d⁺max + d⁻max ≤ ζ`).
    pub fn distance_acceptable(&self, sign: f64, d: f64, config: &OperbConfig) -> bool {
        if config.opt_adjusted_distance {
            let d_plus = if sign >= 0.0 {
                self.d_plus_max.max(d)
            } else {
                self.d_plus_max
            };
            let d_minus = if sign < 0.0 {
                self.d_minus_max.max(d)
            } else {
                self.d_minus_max
            };
            d_plus + d_minus <= self.zeta
        } else {
            d <= self.zeta / 2.0
        }
    }

    /// Incorporates an **active** point, applying cases (2) and (3) of the
    /// fitting function (and optimizations 3 and 4 when enabled).
    ///
    /// The caller must have verified [`Self::distance_acceptable`] first.
    /// Returns the new zone index.
    pub fn incorporate_active(&mut self, p: &Point, config: &OperbConfig) -> u64 {
        let r_len = self.anchor.distance(p);
        if self.is_zero() {
            self.start_line(p, r_len)
        } else {
            let d = self.distance_to_line(p);
            let sign = self.sign_for(p);
            self.rotate_towards(r_len, d, sign, config)
        }
    }

    /// Case (2) of [`Self::incorporate_active`]: the first active point
    /// `p`, at `r_len = |P_s → p|`, fixes the angle.  The streaming engine
    /// calls it directly because it already knows `r_len` from
    /// classification and must not pay for a second square root.  Its
    /// `atan2` and `sin_cos` run once per output segment.
    pub fn start_line(&mut self, p: &Point, r_len: f64) -> u64 {
        debug_assert!(self.is_zero());
        let j = zone_index(r_len, self.zeta).max(1);
        let r_theta = self.anchor.angle_to(p);
        self.length = j as f64 * self.zeta / 2.0;
        self.theta = r_theta;
        let (sin, cos) = r_theta.sin_cos();
        self.sin_theta = sin;
        self.cos_theta = cos;
        self.last_zone = j;
        j
    }

    /// Case (3) of [`Self::incorporate_active`]: rotates the fitted line
    /// towards an active point at `r_len = |P_s → p|`, distance `d` =
    /// [`Self::distance_to_line`] and side `sign` = [`Self::sign_for`].  The
    /// streaming engine computes all three while classifying the point
    /// (from the same expressions), so this hot path recomputes none.
    ///
    /// Its trigonometry is one `asin` for the step and one `sin_cos` for
    /// the new direction; optimization 3's cap adds an `asin` and a `sin`
    /// only when two comparisons cannot settle it.
    pub fn rotate_towards(&mut self, r_len: f64, d: f64, sign: f64, config: &OperbConfig) -> u64 {
        debug_assert!(!self.is_zero());
        let j = zone_index(r_len, self.zeta).max(1);
        let radius = j as f64 * self.zeta / 2.0;

        let dx = if config.opt_pull_towards_active {
            let side_max = if sign >= 0.0 {
                self.d_plus_max
            } else {
                self.d_minus_max
            };
            opt3_dx(d, side_max, j, radius)
        } else {
            d
        };

        // Optimization 4: compensate for skipped zones.
        let delta_j = if config.opt_missing_active {
            (j.saturating_sub(self.last_zone)).max(1) as f64
        } else {
            1.0
        };

        let step = (dx / radius).clamp(0.0, 1.0).asin() * delta_j / j as f64;
        self.theta = normalize_angle(self.theta + sign * step);
        let (sin, cos) = self.theta.sin_cos();
        self.sin_theta = sin;
        self.cos_theta = cos;
        self.length = radius;
        self.last_zone = j;
        self.record_distance(sign, d);
        j
    }
}

/// Relative shrink of optimization 3's comparison bound in [`opt3_dx`]:
/// a million times the few-ulp (~1e-15) error of the `asin`/`sin` path it
/// stands in for.
const OPT3_BOUND_SHRINK: f64 = 1.0 - 1e-9;

/// Optimization 3: the distance the rotation pulls towards, `dx ∈ [d,
/// side_max]`, capped at `dx_cap = radius·sin(min(j·asin(d/radius), π/2))`
/// so the step `asin(dx/radius)/j` never exceeds `asin(d/radius)`
/// (optimization 4 then multiplies it by `Δj`, after the cap).  That is
/// `side_max.min(dx_cap).max(d)`, bit for bit, but two comparisons settle
/// most calls without computing `dx_cap`:
///
/// * `side_max ≤ d`: then `dx = d`, whatever the cap.
/// * `asin x ≥ x`, and `sin θ ≥ 2θ/π` on `[0, π/2]`, so
///   `dx_cap ≥ min(2jd/π, radius)` (with `d ≥ radius` the angle clamps to
///   `π/2` and `dx_cap = radius`).  Below that bound the cap cannot bind,
///   so `dx = side_max`.  The bound is shrunk by [`OPT3_BOUND_SHRINK`]:
///   the computed `dx_cap` and the computed bound each sit within a few
///   ulps of their exact values, and the exact `dx_cap` is at least the
///   exact bound, so any `side_max` below the shrunk bound is also below
///   the `dx_cap` the trigonometry would have returned.
///
/// Only calls with `side_max` at or above the shrunk bound pay an `asin`
/// and a `sin`.
#[inline]
fn opt3_dx(d: f64, side_max: f64, j: u64, radius: f64) -> f64 {
    if side_max <= d {
        return d;
    }
    if side_max < opt3_bound(d, j, radius) {
        return side_max;
    }
    let base = (d / radius).clamp(0.0, 1.0).asin();
    let cap_angle = (j as f64 * base).min(std::f64::consts::FRAC_PI_2);
    let dx_cap = radius * cap_angle.sin();
    side_max.min(dx_cap).max(d)
}

/// The shrunk lower bound `min(2jd/π, radius)·(1 − 1e-9)` on optimization
/// 3's `dx_cap`; see [`opt3_dx`].
#[inline]
fn opt3_bound(d: f64, j: u64, radius: f64) -> f64 {
    (std::f64::consts::FRAC_2_PI * j as f64 * d).min(radius) * OPT3_BOUND_SHRINK
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;
    use traj_data::rng::{Rng, SmallRng};

    const ZETA: f64 = 4.0;

    fn raw() -> OperbConfig {
        OperbConfig::raw()
    }

    #[test]
    fn zone_index_ranges() {
        // Zone Z_j covers (j·ζ/2 − ζ/4, j·ζ/2 + ζ/4]; with ζ = 4 the zone
        // width is 2 and Z_1 covers (1, 3].
        assert_eq!(zone_index(0.0, ZETA), 0);
        assert_eq!(zone_index(1.0, ZETA), 0); // boundary of Z_0
        assert_eq!(zone_index(1.0001, ZETA), 1);
        assert_eq!(zone_index(2.0, ZETA), 1);
        assert_eq!(zone_index(3.0, ZETA), 1); // boundary of Z_1
        assert_eq!(zone_index(3.0001, ZETA), 2);
        assert_eq!(zone_index(5.0, ZETA), 2);
        assert_eq!(zone_index(7.0, ZETA), 3);
    }

    #[test]
    fn zone_boundaries_have_width_half_zeta() {
        // Radii j·ζ/2 always map to zone j.
        for j in 1..50u64 {
            let r = j as f64 * ZETA / 2.0;
            assert_eq!(zone_index(r, ZETA), j);
        }
    }

    #[test]
    fn case1_inactive_keeps_line() {
        // Paper Example 4 step (2): P1 close to the anchor stays inactive
        // and leaves L unchanged.
        let anchor = Point::xy(0.0, 0.0);
        let line = FittedLine::new(anchor, ZETA);
        let p1 = Point::xy(0.5, 0.3); // |R| < ζ/4 = 1
        assert_eq!(line.classify(&p1, &raw()), PointClass::Inactive);
        assert!(line.is_zero());
        // Distance to a zero line is the distance to the anchor.
        assert!((line.distance_to_line(&p1) - p1.distance(&anchor)).abs() < 1e-12);
        let _ = line; // L unchanged (still zero)
    }

    #[test]
    fn case2_first_active_point_fixes_angle() {
        // Paper Example 4 step (3): the first active point sets |L| = j·ζ/2
        // and θ = R.θ.
        let anchor = Point::xy(0.0, 0.0);
        let mut line = FittedLine::new(anchor, ZETA);
        let p2 = Point::xy(0.0, 1.5); // |R| = 1.5 ∈ Z_1, straight up
        assert_eq!(line.classify(&p2, &raw()), PointClass::Active);
        let j = line.incorporate_active(&p2, &raw());
        assert_eq!(j, 1);
        assert!((line.length() - ZETA / 2.0).abs() < 1e-12);
        assert!((line.theta() - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(line.last_zone(), 1);
    }

    #[test]
    fn case3_rotates_towards_the_point() {
        let anchor = Point::xy(0.0, 0.0);
        let mut line = FittedLine::new(anchor, ZETA);
        // First active point along the x axis at |R| = 2 (zone 1).
        line.incorporate_active(&Point::xy(2.0, 0.0), &raw());
        assert!((line.theta() - 0.0).abs() < 1e-12);
        // Second active point in zone 2, slightly above the axis.
        let p = Point::xy(4.0, 1.0);
        let d_before = line.distance_to_line(&p);
        assert_eq!(line.classify(&p, &raw()), PointClass::Active);
        let j = line.incorporate_active(&p, &raw());
        assert_eq!(j, 2);
        assert!((line.length() - ZETA).abs() < 1e-12);
        // The line rotated counter-clockwise (towards the point), by
        // arcsin(d / (j·ζ/2)) / j.
        let expected_step = (d_before / ZETA).asin() / 2.0;
        assert!((line.theta() - expected_step).abs() < 1e-9);
        // And the point is now closer to the fitted line than before.
        assert!(line.distance_to_line(&p) < d_before);
    }

    #[test]
    fn case3_rotates_clockwise_for_points_below() {
        let anchor = Point::xy(0.0, 0.0);
        let mut line = FittedLine::new(anchor, ZETA);
        line.incorporate_active(&Point::xy(2.0, 0.0), &raw());
        let p = Point::xy(4.0, -1.0);
        let d_before = line.distance_to_line(&p);
        line.incorporate_active(&p, &raw());
        // Clockwise rotation → θ just below 2π.
        assert!(line.theta() > 3.0 * FRAC_PI_2);
        assert!(line.distance_to_line(&p) < d_before);
    }

    #[test]
    fn angle_change_is_bounded_by_lemma3() {
        // Lemma 3: with d ≤ ζ/2 at every step, the cumulative angle change
        // from L_1 to L_k is below 0.8123 rad.  Build a worst-case-ish
        // stepwise spiral that always deviates by ζ/2 on the same side.
        let zeta = 2.0;
        let anchor = Point::xy(0.0, 0.0);
        let mut line = FittedLine::new(anchor, zeta);
        line.incorporate_active(&Point::xy(1.0, 0.0), &OperbConfig::raw());
        let theta0 = line.theta();
        for j in 2..200u64 {
            // Place the next active point in zone j at exactly ζ/2 distance
            // from the current fitted line, on the +1 side.
            let radius = j as f64 * zeta / 2.0;
            let d = zeta / 2.0;
            let offset = (d / radius).asin();
            let theta_p = line.theta() + offset;
            let p = Point::xy(radius * theta_p.cos(), radius * theta_p.sin());
            // The point must still be acceptable under the raw condition.
            assert!(line.distance_to_line(&p) <= zeta / 2.0 + 1e-9);
            line.incorporate_active(&p, &OperbConfig::raw());
        }
        let drift = (line.theta() - theta0).abs();
        assert!(
            drift < 0.8123,
            "angle drift {drift} exceeds the Lemma 3 bound"
        );
    }

    #[test]
    fn distance_condition_raw_vs_optimized() {
        let mut line = FittedLine::new(Point::xy(0.0, 0.0), ZETA);
        line.incorporate_active(&Point::xy(2.0, 0.0), &raw());
        // Raw condition: d ≤ ζ/2 = 2.
        assert!(line.distance_acceptable(1.0, 1.9, &raw()));
        assert!(!line.distance_acceptable(1.0, 2.1, &raw()));
        // Optimization 2: with no distance recorded on the other side, a
        // deviation of up to ζ on one side is acceptable.
        let opt = OperbConfig::optimized();
        assert!(line.distance_acceptable(1.0, 3.9, &opt));
        assert!(!line.distance_acceptable(1.0, 4.1, &opt));
        // Once 3.0 is recorded on the + side, the − side only has 1.0 left.
        line.record_distance(1.0, 3.0);
        assert!(line.distance_acceptable(-1.0, 0.9, &opt));
        assert!(!line.distance_acceptable(-1.0, 1.1, &opt));
    }

    #[test]
    fn optimization1_changes_first_active_threshold() {
        let line = FittedLine::new(Point::xy(0.0, 0.0), ZETA);
        let p = Point::xy(2.0, 0.0); // |R| = 2: > ζ/4 but < ζ
        assert_eq!(line.classify(&p, &OperbConfig::raw()), PointClass::Active);
        assert_eq!(
            line.classify(&p, &OperbConfig::optimized()),
            PointClass::Inactive
        );
        let far = Point::xy(5.0, 0.0); // > ζ
        assert_eq!(
            line.classify(&far, &OperbConfig::optimized()),
            PointClass::Active
        );
    }

    #[test]
    fn optimization3_never_overshoots() {
        // With opt 3 the rotation step towards the point must not overshoot:
        // the point must not end up further from the line than it started,
        // and never on the *other* side by more than it was off.
        let mut cfg = OperbConfig::optimized();
        cfg.opt_missing_active = false;
        let mut line = FittedLine::new(Point::xy(0.0, 0.0), ZETA);
        line.incorporate_active(&Point::xy(6.0, 0.0), &cfg);
        // Record a large deviation on the + side so opt 3 has slack to use.
        line.record_distance(1.0, 1.8);
        let p = Point::xy(10.0, 0.4);
        let d_before = line.distance_to_line(&p);
        line.incorporate_active(&p, &cfg);
        let d_after = line.distance_to_line(&p);
        assert!(
            d_after <= d_before + 1e-9,
            "opt3 made the point farther: {d_before} → {d_after}"
        );
    }

    #[test]
    fn optimization4_skipped_zones_rotate_more() {
        let anchor = Point::xy(0.0, 0.0);
        let p_far = Point::xy(10.0, 2.0); // zone 5 with ζ = 4

        let mut with4 = OperbConfig::raw();
        with4.opt_missing_active = true;
        let mut line_a = FittedLine::new(anchor, ZETA);
        line_a.incorporate_active(&Point::xy(2.0, 0.0), &with4);
        line_a.incorporate_active(&p_far, &with4);

        let without4 = OperbConfig::raw();
        let mut line_b = FittedLine::new(anchor, ZETA);
        line_b.incorporate_active(&Point::xy(2.0, 0.0), &without4);
        line_b.incorporate_active(&p_far, &without4);

        // Both rotate counter-clockwise; opt 4 rotates further (closer to
        // the far point).
        assert!(line_a.theta() > line_b.theta());
        assert!(line_a.distance_to_line(&p_far) < line_b.distance_to_line(&p_far));
    }

    #[test]
    fn duplicate_anchor_points_are_inactive() {
        let anchor = Point::xy(3.0, 3.0);
        let line = FittedLine::new(anchor, ZETA);
        assert_eq!(line.classify(&anchor, &raw()), PointClass::Inactive);
        assert_eq!(line.distance_to_line(&anchor), 0.0);
    }

    /// The reference for [`opt3_dx`]: optimization 3's cap
    /// `radius·sin(min(j·asin(d/radius), π/2))`, always through the
    /// trigonometry.
    fn trig_dx_cap(d: f64, j: u64, radius: f64) -> f64 {
        let base = (d / radius).clamp(0.0, 1.0).asin();
        let cap_angle = (j as f64 * base).min(FRAC_PI_2);
        radius * cap_angle.sin()
    }

    /// The reference `dx`: `side_max.min(dx_cap).max(d)` on every call.
    fn trig_opt3_dx(d: f64, side_max: f64, j: u64, radius: f64) -> f64 {
        side_max.min(trig_dx_cap(d, j, radius)).max(d)
    }

    /// Which of [`opt3_dx`]'s three branches a call takes: `side_max ≤ d`,
    /// below the bound, or through the trigonometry.
    fn opt3_branch(d: f64, side_max: f64, j: u64, radius: f64) -> usize {
        if side_max <= d {
            0
        } else if side_max < opt3_bound(d, j, radius) {
            1
        } else {
            2
        }
    }

    fn assert_same_dx(d: f64, side_max: f64, j: u64, radius: f64) {
        let fast = opt3_dx(d, side_max, j, radius);
        let trig = trig_opt3_dx(d, side_max, j, radius);
        assert_eq!(
            fast.to_bits(),
            trig.to_bits(),
            "d = {d:e}, side_max = {side_max:e}, j = {j}, radius = {radius:e}: {fast:e} vs {trig:e}"
        );
    }

    #[test]
    fn opt3_dx_matches_the_trigonometric_formula_on_a_seeded_sweep() {
        let mut rng = SmallRng::seed_from_u64(0x0907_3d71);
        let mut branches = [0usize; 3];
        for case in 0..240_000u32 {
            let zeta = rng.gen_range(0.5..200.0);
            let j = if rng.gen_bool(0.9) {
                rng.gen_range(1u64..64)
            } else {
                rng.gen_range(64u64..100_000)
            };
            let radius = j as f64 * zeta / 2.0;
            // d mostly within the accepted ζ, sometimes tiny, and sometimes
            // around and beyond the radius, where asin's argument clamps.
            let d = match case % 4 {
                0 => rng.gen_range(0.0..zeta),
                1 => zeta * 10f64.powf(rng.gen_range(-12.0..0.0)),
                2 => rng.gen_range(0.0..1.5 * radius),
                _ => radius * rng.gen_range(0.9..1.1),
            };
            let cap = trig_dx_cap(d, j, radius);
            let bound = opt3_bound(d, j, radius);
            let side_max = match rng.gen_range(0u32..5) {
                0 => rng.gen_range(0.0..2.0 * zeta),
                1 => d * rng.gen_range(0.0..=1.0),
                2 => bound * (1.0 + rng.gen_range(-1e-6..1e-6)),
                3 => cap * (1.0 + rng.gen_range(-1e-12..1e-12)),
                _ => rng.gen_range(bound..=cap.max(bound)),
            };
            branches[opt3_branch(d, side_max, j, radius)] += 1;
            assert_same_dx(d, side_max, j, radius);
        }
        // Every branch, the trigonometric one included, saw real traffic.
        assert!(
            branches.iter().all(|&n| n >= 20_000),
            "branches {branches:?}"
        );
    }

    #[test]
    fn opt3_dx_matches_the_trigonometric_formula_on_its_edges() {
        let mut branches = [0usize; 3];
        for zeta in [0.5, 4.0, 30.0, 200.0] {
            for j in [1u64, 2, 3, 7, 64, 4_000, 100_000] {
                let radius = j as f64 * zeta / 2.0;
                // Where j·asin(d/r) reaches π/2 and the cap angle clamps.
                let quarter_turn = radius * (FRAC_PI_2 / j as f64).sin();
                let ds = [
                    0.0,
                    f64::MIN_POSITIVE,
                    zeta / 2.0,
                    zeta,
                    quarter_turn.next_down(),
                    quarter_turn,
                    quarter_turn.next_up(),
                    radius,
                    radius.next_up(),
                    1.5 * radius,
                ];
                for d in ds {
                    let bound = opt3_bound(d, j, radius);
                    let cap = trig_dx_cap(d, j, radius);
                    let side_maxes = [
                        0.0,
                        d.next_down().max(0.0),
                        d,
                        d.next_up(),
                        bound.next_down(),
                        bound,
                        bound.next_up(),
                        cap.next_down(),
                        cap,
                        cap.next_up(),
                        radius,
                        2.0 * radius,
                    ];
                    for side_max in side_maxes {
                        branches[opt3_branch(d, side_max, j, radius)] += 1;
                        assert_same_dx(d, side_max, j, radius);
                    }
                }
            }
        }
        assert!(branches.iter().all(|&n| n > 0), "branches {branches:?}");
    }
}
