//! Timestamped planar points (paper §3.1, "Points (P)").

use std::fmt;

/// A trajectory data point `P(x, y, t)`.
///
/// `x` and `y` are planar coordinates expressed in the same length unit as
/// the error bound `ζ` (meters by convention); `t` is a timestamp in seconds
/// (fractional seconds are allowed).  The paper treats data points as points
/// of a three-dimensional Euclidean space, but all distances used by the
/// simplification algorithms are purely spatial, so `t` only participates in
/// ordering and in the synchronous Euclidean distance of the TD-TR baseline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Planar x coordinate (projected longitude), in meters.
    pub x: f64,
    /// Planar y coordinate (projected latitude), in meters.
    pub y: f64,
    /// Timestamp in seconds since an arbitrary epoch.
    pub t: f64,
}

impl Point {
    /// Creates a new point.
    #[inline]
    pub const fn new(x: f64, y: f64, t: f64) -> Self {
        Self { x, y, t }
    }

    /// Creates an un-timestamped point (`t = 0`), handy in tests and for
    /// purely geometric computations.
    #[inline]
    pub const fn xy(x: f64, y: f64) -> Self {
        Self { x, y, t: 0.0 }
    }

    /// Euclidean (spatial) distance to another point, ignoring time.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        // `f64::hypot` guards against overflow but is several times slower
        // than the plain formula; trajectory coordinates are meters, far
        // from overflow territory, and this runs once per point in every
        // algorithm's hot path.
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance to another point, ignoring time.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The angle of the vector `self → other` with the x axis, normalized to
    /// `[0, 2π)`.  Returns `0` for coincident points.
    #[inline]
    pub fn angle_to(&self, other: &Point) -> f64 {
        let dx = other.x - self.x;
        let dy = other.y - self.y;
        if dx == 0.0 && dy == 0.0 {
            return 0.0;
        }
        crate::angle::normalize_angle(dy.atan2(dx))
    }

    /// Linear interpolation between `self` and `other` with parameter
    /// `alpha ∈ [0, 1]` (both space and time are interpolated).
    #[inline]
    pub fn lerp(&self, other: &Point, alpha: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * alpha,
            y: self.y + (other.y - self.y) * alpha,
            t: self.t + (other.t - self.t) * alpha,
        }
    }

    /// Returns the point translated by `(dx, dy)` keeping the timestamp.
    #[inline]
    pub fn translated(&self, dx: f64, dy: f64) -> Point {
        Point {
            x: self.x + dx,
            y: self.y + dy,
            t: self.t,
        }
    }

    /// Returns `true` when both coordinates and the timestamp are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.t.is_finite()
    }

    /// Spatially equal within `eps` (time is ignored).
    #[inline]
    pub fn approx_eq(&self, other: &Point, eps: f64) -> bool {
        self.distance(other) <= eps
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}) @ {:.3}s", self.x, self.y, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(b.distance(&a), 5.0);
    }

    #[test]
    fn distance_ignores_time() {
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(0.0, 0.0, 100.0);
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn angle_to_quadrants() {
        let o = Point::xy(0.0, 0.0);
        assert!((o.angle_to(&Point::xy(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.angle_to(&Point::xy(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((o.angle_to(&Point::xy(-1.0, 0.0)) - std::f64::consts::PI).abs() < 1e-12);
        assert!(
            (o.angle_to(&Point::xy(0.0, -1.0)) - 3.0 * std::f64::consts::FRAC_PI_2).abs() < 1e-12
        );
    }

    #[test]
    fn angle_to_self_is_zero() {
        let o = Point::xy(2.0, 3.0);
        assert_eq!(o.angle_to(&o), 0.0);
    }

    #[test]
    fn lerp_midpoint() {
        let a = Point::new(0.0, 0.0, 0.0);
        let b = Point::new(2.0, 4.0, 10.0);
        let m = a.lerp(&b, 0.5);
        assert_eq!(m, Point::new(1.0, 2.0, 5.0));
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
    }

    #[test]
    fn translated_keeps_time() {
        let a = Point::new(1.0, 1.0, 7.0);
        let b = a.translated(2.0, -1.0);
        assert_eq!(b, Point::new(3.0, 0.0, 7.0));
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0, 3.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY, 3.0).is_finite());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(0.0, 0.5);
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.49));
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", Point::new(1.0, 2.0, 3.0));
        assert!(s.contains("1.000") && s.contains("2.000") && s.contains("3.000"));
    }
}
