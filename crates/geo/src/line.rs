//! Infinite lines and line–line intersection.
//!
//! OPERB-A interpolates a *patch point* `G` as the intersection of the lines
//! supporting two directed line segments (paper §5.1).  This module provides
//! the small amount of machinery needed for that: an infinite [`Line`]
//! through an anchor point with a direction, and a robust intersection
//! routine that reports near-parallel configurations instead of returning a
//! wildly distant point.

use crate::point::Point;
use crate::segment::DirectedSegment;
use crate::EPSILON;

/// An infinite line through `anchor` with direction angle `theta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// A point on the line.
    pub anchor: Point,
    /// Direction of the line, radians from the x axis.
    pub theta: f64,
}

/// Result of intersecting two lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineIntersection {
    /// The lines intersect in a single point; `along_first` / `along_second`
    /// are the signed distances from each line's anchor to the intersection
    /// measured along the line's direction (useful to know whether the
    /// intersection lies "ahead of" or "behind" the anchor).
    Point {
        /// The intersection point (timestamp copied from the first anchor).
        point: Point,
        /// Signed distance from the first line's anchor along its direction.
        along_first: f64,
        /// Signed distance from the second line's anchor along its direction.
        along_second: f64,
    },
    /// The lines are (numerically) parallel and distinct.
    Parallel,
    /// The lines are (numerically) the same line.
    Coincident,
}

impl Line {
    /// Creates a line from an anchor point and a direction angle.
    #[inline]
    pub const fn new(anchor: Point, theta: f64) -> Self {
        Self { anchor, theta }
    }

    /// The line supporting a directed segment.  Degenerate segments produce a
    /// line with direction `0`.
    #[inline]
    pub fn through_segment(seg: &DirectedSegment) -> Self {
        Self {
            anchor: seg.start,
            theta: seg.theta(),
        }
    }

    /// The unit direction vector of the line.
    #[inline]
    pub fn direction(&self) -> (f64, f64) {
        let (s, c) = self.theta.sin_cos();
        (c, s)
    }

    /// The point at signed distance `s` from the anchor along the direction.
    #[inline]
    pub fn point_at(&self, s: f64) -> Point {
        let (dx, dy) = self.direction();
        Point {
            x: self.anchor.x + s * dx,
            y: self.anchor.y + s * dy,
            t: self.anchor.t,
        }
    }

    /// Perpendicular distance from `p` to the line.
    #[inline]
    pub fn distance(&self, p: &Point) -> f64 {
        let (dx, dy) = self.direction();
        ((p.x - self.anchor.x) * dy - (p.y - self.anchor.y) * dx).abs()
    }

    /// Intersects two lines.
    ///
    /// `parallel_tolerance` is the absolute value of the cross product of the
    /// two unit directions below which the lines are considered parallel;
    /// [`EPSILON`] is a reasonable default and is used by
    /// [`Line::intersect`].
    pub fn intersect_with_tolerance(
        &self,
        other: &Line,
        parallel_tolerance: f64,
    ) -> LineIntersection {
        let (dx1, dy1) = self.direction();
        let (dx2, dy2) = other.direction();
        let denom = dx1 * dy2 - dy1 * dx2;
        if denom.abs() <= parallel_tolerance {
            // Parallel; coincident if the other anchor is on this line.
            if self.distance(&other.anchor) <= parallel_tolerance.max(EPSILON) {
                return LineIntersection::Coincident;
            }
            return LineIntersection::Parallel;
        }
        let rx = other.anchor.x - self.anchor.x;
        let ry = other.anchor.y - self.anchor.y;
        let s = (rx * dy2 - ry * dx2) / denom;
        let u = (rx * dy1 - ry * dx1) / denom;
        LineIntersection::Point {
            point: self.point_at(s),
            along_first: s,
            along_second: u,
        }
    }

    /// Intersects two lines with the default parallel tolerance.
    #[inline]
    pub fn intersect(&self, other: &Line) -> LineIntersection {
        self.intersect_with_tolerance(other, EPSILON)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    const EPS: f64 = 1e-9;

    #[test]
    fn perpendicular_lines_intersect() {
        let a = Line::new(Point::xy(0.0, 0.0), 0.0);
        let b = Line::new(Point::xy(5.0, -3.0), FRAC_PI_2);
        match a.intersect(&b) {
            LineIntersection::Point {
                point,
                along_first,
                along_second,
            } => {
                assert!(point.approx_eq(&Point::xy(5.0, 0.0), EPS));
                assert!((along_first - 5.0).abs() < EPS);
                assert!((along_second - 3.0).abs() < EPS);
            }
            other => panic!("expected point intersection, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_intersection() {
        let a = Line::new(Point::xy(0.0, 0.0), FRAC_PI_4);
        let b = Line::new(Point::xy(4.0, 0.0), 3.0 * FRAC_PI_4);
        match a.intersect(&b) {
            LineIntersection::Point { point, .. } => {
                assert!(point.approx_eq(&Point::xy(2.0, 2.0), EPS));
            }
            other => panic!("expected point intersection, got {other:?}"),
        }
    }

    #[test]
    fn parallel_lines_detected() {
        let a = Line::new(Point::xy(0.0, 0.0), FRAC_PI_4);
        let b = Line::new(Point::xy(0.0, 1.0), FRAC_PI_4);
        assert_eq!(a.intersect(&b), LineIntersection::Parallel);
        // Opposite direction is still parallel.
        let c = Line::new(Point::xy(0.0, 1.0), FRAC_PI_4 + PI);
        assert_eq!(a.intersect(&c), LineIntersection::Parallel);
    }

    #[test]
    fn coincident_lines_detected() {
        let a = Line::new(Point::xy(0.0, 0.0), FRAC_PI_4);
        let b = Line::new(Point::xy(1.0, 1.0), FRAC_PI_4);
        assert_eq!(a.intersect(&b), LineIntersection::Coincident);
    }

    #[test]
    fn along_sign_reports_behind() {
        // The intersection lies behind the second line's anchor.
        let a = Line::new(Point::xy(0.0, 0.0), 0.0);
        let b = Line::new(Point::xy(2.0, 5.0), FRAC_PI_2);
        match a.intersect(&b) {
            LineIntersection::Point { along_second, .. } => {
                assert!(along_second < 0.0);
            }
            other => panic!("expected point intersection, got {other:?}"),
        }
    }

    #[test]
    fn distance_to_line() {
        let a = Line::new(Point::xy(0.0, 0.0), 0.0);
        assert!((a.distance(&Point::xy(10.0, 3.0)) - 3.0).abs() < EPS);
        assert!((a.distance(&Point::xy(-10.0, -3.0)) - 3.0).abs() < EPS);
    }

    #[test]
    fn through_segment_matches() {
        let seg = DirectedSegment::new(Point::xy(1.0, 1.0), Point::xy(4.0, 5.0));
        let line = Line::through_segment(&seg);
        assert!((line.distance(&Point::xy(7.0, 9.0))) < EPS);
        assert!((line.theta - seg.theta()).abs() < EPS);
    }

    #[test]
    fn point_at_walks_direction() {
        let a = Line::new(Point::xy(1.0, 2.0), FRAC_PI_2);
        assert!(a.point_at(3.0).approx_eq(&Point::xy(1.0, 5.0), EPS));
        assert!(a.point_at(-2.0).approx_eq(&Point::xy(1.0, 0.0), EPS));
    }
}
