//! Directed line segments (paper §3.1, "Directed line segments (L)") in two
//! representations:
//!
//! * [`DirectedSegment`] — by its two endpoints (`P_s`, `P_e`); the natural
//!   representation for pieces of a trajectory and for the output of a
//!   simplification algorithm.
//! * [`PolarSegment`] — by an anchor point, a length and an angle
//!   (`(P_s, |L|, L.θ)`), which is how the fitting function of OPERB builds
//!   and rotates its fitted line.

use crate::angle::normalize_angle;
use crate::point::Point;

/// A directed line segment defined by its start and end points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectedSegment {
    /// Start point `P_s`.
    pub start: Point,
    /// End point `P_e`.
    pub end: Point,
}

impl DirectedSegment {
    /// Creates a segment from `start` to `end`.
    #[inline]
    pub const fn new(start: Point, end: Point) -> Self {
        Self { start, end }
    }

    /// The Euclidean length `|L|` of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.start.distance(&self.end)
    }

    /// The angle `L.θ ∈ [0, 2π)` of the segment with the x axis.
    ///
    /// A degenerate (zero-length) segment has angle `0`.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.start.angle_to(&self.end)
    }

    /// Returns `true` when start and end coincide spatially.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.start.x == self.end.x && self.start.y == self.end.y
    }

    /// Distance from `p` to the **infinite line** through this segment.
    ///
    /// This is the distance `d(P_i, L)` of the paper (§3.1, "Distances"):
    /// the Euclidean distance from the point to the *line* `P_sP_e`, which is
    /// the definition adopted by DP, OPW, BQS and OPERB alike.  For a
    /// degenerate segment the distance to the start point is returned.
    #[inline]
    pub fn distance_to_line(&self, p: &Point) -> f64 {
        let dx = self.end.x - self.start.x;
        let dy = self.end.y - self.start.y;
        let len = (dx * dx + dy * dy).sqrt();
        if len == 0.0 {
            return self.start.distance(p);
        }
        // |cross((end-start), (p-start))| / |end-start|
        ((p.x - self.start.x) * dy - (p.y - self.start.y) * dx).abs() / len
    }

    /// Distance from `p` to the **closed segment** (clamped to the
    /// endpoints).  Not used by the paper's error definition but useful for
    /// visual diagnostics and alternative absorption policies.
    #[inline]
    pub fn distance_to_segment(&self, p: &Point) -> f64 {
        let dx = self.end.x - self.start.x;
        let dy = self.end.y - self.start.y;
        let len_sq = dx * dx + dy * dy;
        if len_sq == 0.0 {
            return self.start.distance(p);
        }
        let t = ((p.x - self.start.x) * dx + (p.y - self.start.y) * dy) / len_sq;
        let t = t.clamp(0.0, 1.0);
        let proj = Point::xy(self.start.x + t * dx, self.start.y + t * dy);
        proj.distance(p)
    }

    /// Synchronous Euclidean distance (SED) from `p` to this segment.
    ///
    /// The point the trajectory *would* be at, had the object moved from
    /// `start` to `end` at constant speed, is interpolated at `p.t`; the SED
    /// is the distance from `p` to that time-synchronized position.  This is
    /// the distance used by the TD-TR baseline (related work \[15\]).
    #[inline]
    pub fn synchronous_distance(&self, p: &Point) -> f64 {
        let dt = self.end.t - self.start.t;
        if dt.abs() <= f64::EPSILON {
            return self.start.distance(p);
        }
        let alpha = ((p.t - self.start.t) / dt).clamp(0.0, 1.0);
        let expected = self.start.lerp(&self.end, alpha);
        expected.distance(p)
    }

    /// Signed perpendicular offset of `p` from the infinite line through the
    /// segment.  Positive when `p` lies on the counter-clockwise (left) side
    /// of the direction `start → end`.
    #[inline]
    pub fn signed_offset(&self, p: &Point) -> f64 {
        let dx = self.end.x - self.start.x;
        let dy = self.end.y - self.start.y;
        let len = (dx * dx + dy * dy).sqrt();
        if len == 0.0 {
            return self.start.distance(p);
        }
        ((p.x - self.start.x) * dy - (p.y - self.start.y) * dx) / -len
    }

    /// The mid point of the segment (space and time interpolated).
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.start.lerp(&self.end, 0.5)
    }

    /// Converts to the polar representation anchored at `start`.
    #[inline]
    pub fn to_polar(&self) -> PolarSegment {
        PolarSegment {
            anchor: self.start,
            length: self.length(),
            theta: self.theta(),
        }
    }
}

/// A directed line segment represented as `(anchor, |L|, θ)` — the triple
/// the OPERB fitting function manipulates (paper §3.1 and §4.1).
///
/// Unlike [`DirectedSegment`], the end point of a `PolarSegment` need not be
/// a data point of the trajectory: the fitting function synthesizes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarSegment {
    /// Anchor (start) point `P_s`.
    pub anchor: Point,
    /// Length `|L| ≥ 0`.
    pub length: f64,
    /// Angle `θ ∈ [0, 2π)` with the x axis.
    pub theta: f64,
}

impl PolarSegment {
    /// Creates a polar segment, normalizing the angle into `[0, 2π)`.
    #[inline]
    pub fn new(anchor: Point, length: f64, theta: f64) -> Self {
        debug_assert!(length >= 0.0, "length must be non-negative");
        Self {
            anchor,
            length,
            theta: normalize_angle(theta),
        }
    }

    /// A zero-length segment anchored at `anchor` (the `L_0 = R_0` of the
    /// fitting function).
    #[inline]
    pub fn zero(anchor: Point) -> Self {
        Self {
            anchor,
            length: 0.0,
            theta: 0.0,
        }
    }

    /// Returns `true` when the segment has zero length.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.length == 0.0
    }

    /// The synthesized end point of the segment (timestamp copied from the
    /// anchor, because the fitted line has no meaningful time coordinate).
    #[inline]
    pub fn endpoint(&self) -> Point {
        Point {
            x: self.anchor.x + self.length * self.theta.cos(),
            y: self.anchor.y + self.length * self.theta.sin(),
            t: self.anchor.t,
        }
    }

    /// Distance from `p` to the **infinite line** through the anchor with
    /// direction `θ`.  For a zero-length segment this is the distance to the
    /// anchor point itself (matching `DirectedSegment::distance_to_line` on a
    /// degenerate segment).
    #[inline]
    pub fn distance_to_line(&self, p: &Point) -> f64 {
        if self.is_zero() {
            return self.anchor.distance(p);
        }
        let (sin, cos) = self.theta.sin_cos();
        ((p.x - self.anchor.x) * sin - (p.y - self.anchor.y) * cos).abs()
    }

    /// Converts to an endpoint representation.
    #[inline]
    pub fn to_directed(&self) -> DirectedSegment {
        DirectedSegment {
            start: self.anchor,
            end: self.endpoint(),
        }
    }

    /// Returns a copy rotated by `delta` radians around the anchor.
    #[inline]
    pub fn rotated(&self, delta: f64) -> Self {
        Self {
            anchor: self.anchor,
            length: self.length,
            theta: normalize_angle(self.theta + delta),
        }
    }

    /// Returns a copy with a new length, keeping anchor and angle.
    #[inline]
    pub fn with_length(&self, length: f64) -> Self {
        debug_assert!(length >= 0.0);
        Self {
            anchor: self.anchor,
            length,
            theta: self.theta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    const EPS: f64 = 1e-9;

    fn seg(x0: f64, y0: f64, x1: f64, y1: f64) -> DirectedSegment {
        DirectedSegment::new(Point::xy(x0, y0), Point::xy(x1, y1))
    }

    #[test]
    fn length_and_theta() {
        let s = seg(0.0, 0.0, 1.0, 1.0);
        assert!((s.length() - 2f64.sqrt()).abs() < EPS);
        assert!((s.theta() - FRAC_PI_4).abs() < EPS);
        let back = seg(1.0, 1.0, 0.0, 0.0);
        assert!((back.theta() - (PI + FRAC_PI_4)).abs() < EPS);
    }

    #[test]
    fn degenerate_segment() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert!(s.is_degenerate());
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.theta(), 0.0);
        assert!((s.distance_to_line(&Point::xy(5.0, 6.0)) - 5.0).abs() < EPS);
        assert!((s.distance_to_segment(&Point::xy(5.0, 6.0)) - 5.0).abs() < EPS);
    }

    #[test]
    fn distance_to_line_vs_segment() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        let above = Point::xy(5.0, 3.0);
        assert!((s.distance_to_line(&above) - 3.0).abs() < EPS);
        assert!((s.distance_to_segment(&above) - 3.0).abs() < EPS);

        // Beyond the end: line distance stays 3, segment distance grows.
        let beyond = Point::xy(14.0, 3.0);
        assert!((s.distance_to_line(&beyond) - 3.0).abs() < EPS);
        assert!((s.distance_to_segment(&beyond) - 5.0).abs() < EPS);

        // Before the start.
        let before = Point::xy(-4.0, 3.0);
        assert!((s.distance_to_line(&before) - 3.0).abs() < EPS);
        assert!((s.distance_to_segment(&before) - 5.0).abs() < EPS);
    }

    #[test]
    fn distance_is_symmetric_in_direction() {
        let s = seg(0.0, 0.0, 10.0, 5.0);
        let r = seg(10.0, 5.0, 0.0, 0.0);
        let p = Point::xy(3.0, 9.0);
        assert!((s.distance_to_line(&p) - r.distance_to_line(&p)).abs() < EPS);
        assert!((s.distance_to_segment(&p) - r.distance_to_segment(&p)).abs() < EPS);
    }

    #[test]
    fn signed_offset_sides() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert!(s.signed_offset(&Point::xy(5.0, 2.0)) > 0.0);
        assert!(s.signed_offset(&Point::xy(5.0, -2.0)) < 0.0);
        assert!((s.signed_offset(&Point::xy(5.0, 2.0)).abs() - 2.0).abs() < EPS);
    }

    #[test]
    fn synchronous_distance_interpolates_time() {
        let s = DirectedSegment::new(Point::new(0.0, 0.0, 0.0), Point::new(10.0, 0.0, 10.0));
        // At t = 5 the synchronized position is (5, 0).
        let p = Point::new(5.0, 4.0, 5.0);
        assert!((s.synchronous_distance(&p) - 4.0).abs() < EPS);
        // A point that is spatially on the line but "late" has non-zero SED.
        let late = Point::new(2.0, 0.0, 8.0);
        assert!((s.synchronous_distance(&late) - 6.0).abs() < EPS);
        // Zero-duration segment falls back to distance-to-start.
        let z = DirectedSegment::new(Point::new(0.0, 0.0, 1.0), Point::new(10.0, 0.0, 1.0));
        assert!((z.synchronous_distance(&p) - (25.0f64 + 16.0).sqrt()).abs() < EPS);
    }

    #[test]
    fn midpoint_interpolates() {
        let s = DirectedSegment::new(Point::new(0.0, 0.0, 0.0), Point::new(4.0, 2.0, 8.0));
        assert_eq!(s.midpoint(), Point::new(2.0, 1.0, 4.0));
    }

    #[test]
    fn polar_roundtrip() {
        let s = seg(1.0, 2.0, 4.0, 6.0);
        let p = s.to_polar();
        let d = p.to_directed();
        assert!(d.end.approx_eq(&s.end, 1e-9));
        assert!((p.length - 5.0).abs() < EPS);
    }

    #[test]
    fn polar_distance_matches_directed() {
        let p = PolarSegment::new(Point::xy(0.0, 0.0), 10.0, FRAC_PI_2);
        let q = Point::xy(3.0, 5.0);
        assert!((p.distance_to_line(&q) - 3.0).abs() < EPS);
        let d = p.to_directed();
        assert!((d.distance_to_line(&q) - 3.0).abs() < EPS);
    }

    #[test]
    fn polar_zero_distance_is_to_anchor() {
        let p = PolarSegment::zero(Point::xy(1.0, 1.0));
        assert!(p.is_zero());
        assert!((p.distance_to_line(&Point::xy(4.0, 5.0)) - 5.0).abs() < EPS);
    }

    #[test]
    fn polar_rotation_and_resize() {
        let p = PolarSegment::new(Point::xy(0.0, 0.0), 2.0, 0.0);
        let r = p.rotated(FRAC_PI_2);
        assert!((r.theta - FRAC_PI_2).abs() < EPS);
        assert!(r.endpoint().approx_eq(&Point::xy(0.0, 2.0), 1e-9));
        let w = p.with_length(7.0);
        assert_eq!(w.length, 7.0);
        assert_eq!(w.theta, p.theta);
    }

    #[test]
    fn polar_new_normalizes_angle() {
        let p = PolarSegment::new(Point::xy(0.0, 0.0), 1.0, -FRAC_PI_2);
        assert!((p.theta - 3.0 * FRAC_PI_2).abs() < EPS);
    }
}
