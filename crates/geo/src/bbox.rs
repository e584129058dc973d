//! Axis-aligned bounding boxes and quadrant classification.
//!
//! The BQS / FBQS baselines (Liu et al., ICDE 2015; paper §3.2) split the
//! plane around the current window start point into four quadrants and, per
//! quadrant, maintain a rectangular bounding box plus two bounding lines.
//! This module supplies the bounding-box bookkeeping they need.

use crate::point::Point;

/// An axis-aligned bounding box over planar points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum x over the covered points.
    pub min_x: f64,
    /// Minimum y over the covered points.
    pub min_y: f64,
    /// Maximum x over the covered points.
    pub max_x: f64,
    /// Maximum y over the covered points.
    pub max_y: f64,
}

impl BoundingBox {
    /// An "empty" box that covers no point; extending it with the first point
    /// collapses it onto that point.
    #[inline]
    pub const fn empty() -> Self {
        Self {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// A box covering exactly one point.
    #[inline]
    pub const fn from_point(p: Point) -> Self {
        Self {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// Builds the box covering all points of a slice (empty box for an empty
    /// slice).
    pub fn from_points(points: &[Point]) -> Self {
        let mut bb = Self::empty();
        for p in points {
            bb.extend(p);
        }
        bb
    }

    /// Whether any point has been covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x
    }

    /// Grows the box to cover `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Width of the box (0 for an empty box).
    #[inline]
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_x - self.min_x
        }
    }

    /// Height of the box (0 for an empty box).
    #[inline]
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_y - self.min_y
        }
    }

    /// Whether `p` lies inside or on the border of the box.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        !self.is_empty()
            && p.x >= self.min_x
            && p.x <= self.max_x
            && p.y >= self.min_y
            && p.y <= self.max_y
    }

    /// The four corners `c1..c4` of the box in counter-clockwise order
    /// starting from `(min_x, min_y)`.  Corner points carry timestamp `0`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::xy(self.min_x, self.min_y),
            Point::xy(self.max_x, self.min_y),
            Point::xy(self.max_x, self.max_y),
            Point::xy(self.min_x, self.max_y),
        ]
    }
}

/// The quadrant of a point relative to an origin point, used by BQS to pick
/// which per-quadrant bound structure a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// `dx ≥ 0`, `dy ≥ 0`.
    NorthEast,
    /// `dx < 0`, `dy ≥ 0`.
    NorthWest,
    /// `dx < 0`, `dy < 0`.
    SouthWest,
    /// `dx ≥ 0`, `dy < 0`.
    SouthEast,
}

impl Quadrant {
    /// Classifies `p` relative to `origin`.  Points on the positive axes are
    /// assigned to the quadrant counter-clockwise of the axis (ties go to
    /// north-east, matching the `≥` convention above).
    #[inline]
    pub fn of(origin: &Point, p: &Point) -> Self {
        let dx = p.x - origin.x;
        let dy = p.y - origin.y;
        match (dx >= 0.0, dy >= 0.0) {
            (true, true) => Quadrant::NorthEast,
            (false, true) => Quadrant::NorthWest,
            (false, false) => Quadrant::SouthWest,
            (true, false) => Quadrant::SouthEast,
        }
    }

    /// All four quadrants, handy for iteration.
    pub const ALL: [Quadrant; 4] = [
        Quadrant::NorthEast,
        Quadrant::NorthWest,
        Quadrant::SouthWest,
        Quadrant::SouthEast,
    ];

    /// A dense index in `0..4` for array-backed per-quadrant state.
    #[inline]
    pub fn index(&self) -> usize {
        match self {
            Quadrant::NorthEast => 0,
            Quadrant::NorthWest => 1,
            Quadrant::SouthWest => 2,
            Quadrant::SouthEast => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_properties() {
        let bb = BoundingBox::empty();
        assert!(bb.is_empty());
        assert_eq!(bb.width(), 0.0);
        assert_eq!(bb.height(), 0.0);
        assert!(!bb.contains(&Point::xy(0.0, 0.0)));
    }

    #[test]
    fn extend_and_contains() {
        let mut bb = BoundingBox::empty();
        bb.extend(&Point::xy(1.0, 2.0));
        bb.extend(&Point::xy(-3.0, 5.0));
        assert!(!bb.is_empty());
        assert_eq!(bb.min_x, -3.0);
        assert_eq!(bb.max_x, 1.0);
        assert_eq!(bb.min_y, 2.0);
        assert_eq!(bb.max_y, 5.0);
        assert!((bb.width() - 4.0).abs() < 1e-12);
        assert!((bb.height() - 3.0).abs() < 1e-12);
        assert!(bb.contains(&Point::xy(0.0, 3.0)));
        assert!(bb.contains(&Point::xy(1.0, 5.0))); // on border
        assert!(!bb.contains(&Point::xy(2.0, 3.0)));
    }

    #[test]
    fn from_points_matches_incremental() {
        let pts = [
            Point::xy(0.0, 0.0),
            Point::xy(4.0, -1.0),
            Point::xy(2.0, 7.0),
        ];
        let bb = BoundingBox::from_points(&pts);
        let mut inc = BoundingBox::empty();
        for p in &pts {
            inc.extend(p);
        }
        assert_eq!(bb, inc);
        assert!(BoundingBox::from_points(&[]).is_empty());
    }

    #[test]
    fn single_point_box() {
        let bb = BoundingBox::from_point(Point::xy(3.0, 4.0));
        assert!(!bb.is_empty());
        assert_eq!(bb.width(), 0.0);
        assert_eq!(bb.height(), 0.0);
        assert!(bb.contains(&Point::xy(3.0, 4.0)));
    }

    #[test]
    fn corners_order() {
        let bb = BoundingBox::from_points(&[Point::xy(0.0, 0.0), Point::xy(2.0, 3.0)]);
        let c = bb.corners();
        assert_eq!(c[0], Point::xy(0.0, 0.0));
        assert_eq!(c[1], Point::xy(2.0, 0.0));
        assert_eq!(c[2], Point::xy(2.0, 3.0));
        assert_eq!(c[3], Point::xy(0.0, 3.0));
    }

    #[test]
    fn quadrant_classification() {
        let o = Point::xy(0.0, 0.0);
        assert_eq!(Quadrant::of(&o, &Point::xy(1.0, 1.0)), Quadrant::NorthEast);
        assert_eq!(Quadrant::of(&o, &Point::xy(-1.0, 1.0)), Quadrant::NorthWest);
        assert_eq!(
            Quadrant::of(&o, &Point::xy(-1.0, -1.0)),
            Quadrant::SouthWest
        );
        assert_eq!(Quadrant::of(&o, &Point::xy(1.0, -1.0)), Quadrant::SouthEast);
        // Boundary conventions.
        assert_eq!(Quadrant::of(&o, &Point::xy(0.0, 0.0)), Quadrant::NorthEast);
        assert_eq!(Quadrant::of(&o, &Point::xy(0.0, -1.0)), Quadrant::SouthEast);
        assert_eq!(Quadrant::of(&o, &Point::xy(-1.0, 0.0)), Quadrant::NorthWest);
    }

    #[test]
    fn quadrant_indices_are_distinct() {
        let mut seen = [false; 4];
        for q in Quadrant::ALL {
            assert!(!seen[q.index()]);
            seen[q.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
