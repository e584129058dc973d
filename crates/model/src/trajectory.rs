//! Trajectories: time-ordered sequences of data points (paper §3.1).

use crate::error::TrajectoryError;
use traj_geo::{DirectedSegment, Point};

/// A trajectory `...T [P0, …, Pn]`: a sequence of data points in strictly
/// increasing time order.
///
/// Invariants (checked by [`Trajectory::new`], assumed by the algorithms):
///
/// * at least one point;
/// * all coordinates and timestamps finite;
/// * timestamps strictly increasing.
///
/// [`Trajectory::new_unchecked`] skips validation for workload generators
/// that construct points in order by design.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<Point>,
}

impl Trajectory {
    /// Creates a trajectory after validating the invariants above.
    pub fn new(points: Vec<Point>) -> Result<Self, TrajectoryError> {
        if points.is_empty() {
            return Err(TrajectoryError::Empty);
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(TrajectoryError::NonFinitePoint { index: i });
            }
            if i > 0 && p.t <= points[i - 1].t {
                return Err(TrajectoryError::NonMonotonicTime { index: i });
            }
        }
        Ok(Self { points })
    }

    /// Creates a trajectory without validating the invariants.
    ///
    /// Intended for generators and tests that construct points in order; the
    /// invariants are checked in debug builds.
    pub fn new_unchecked(points: Vec<Point>) -> Self {
        debug_assert!(!points.is_empty(), "trajectory must not be empty");
        debug_assert!(
            points.windows(2).all(|w| w[0].t < w[1].t),
            "trajectory timestamps must be strictly increasing"
        );
        Self { points }
    }

    /// Convenience constructor from `(x, y, t)` tuples (validated).
    pub fn from_xyt(coords: &[(f64, f64, f64)]) -> Result<Self, TrajectoryError> {
        Self::new(
            coords
                .iter()
                .map(|&(x, y, t)| Point::new(x, y, t))
                .collect(),
        )
    }

    /// Convenience constructor from `(x, y)` pairs, assigning timestamps
    /// `0, 1, 2, …` seconds.  Handy in tests and examples.
    pub fn from_xy(coords: &[(f64, f64)]) -> Self {
        Self::new_unchecked(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Point::new(x, y, i as f64))
                .collect(),
        )
    }

    /// The data points, in order.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of data points (`n + 1` in the paper's `[P0, …, Pn]`).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the trajectory contains no points.  Always `false` for a
    /// validated trajectory, but kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point at index `i`.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// First point `P0`.
    #[inline]
    pub fn first(&self) -> Point {
        self.points[0]
    }

    /// Last point `Pn`.
    #[inline]
    pub fn last(&self) -> Point {
        *self.points.last().expect("trajectory is never empty")
    }

    /// Iterator over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Total travelled (polyline) length in the planar unit, i.e. the sum of
    /// consecutive point distances.
    pub fn path_length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(&w[1])).sum()
    }

    /// Duration covered by the trajectory in seconds (0 for a single point).
    pub fn duration(&self) -> f64 {
        if self.points.len() < 2 {
            0.0
        } else {
            self.last().t - self.first().t
        }
    }

    /// Mean sampling interval in seconds (0 for fewer than two points).
    pub fn mean_sampling_interval(&self) -> f64 {
        if self.points.len() < 2 {
            0.0
        } else {
            self.duration() / (self.points.len() - 1) as f64
        }
    }

    /// The sub-trajectory over the inclusive index range, cloned.
    pub fn slice(&self, first: usize, last: usize) -> Trajectory {
        assert!(first <= last && last < self.points.len());
        Trajectory {
            points: self.points[first..=last].to_vec(),
        }
    }

    /// The directed segment from point `i` to point `j`.
    #[inline]
    pub fn segment(&self, i: usize, j: usize) -> DirectedSegment {
        DirectedSegment::new(self.points[i], self.points[j])
    }

    /// Consumes the trajectory and returns the underlying points.
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }
}

impl<'a> IntoIterator for &'a Trajectory {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_monotonic_time() {
        let err = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonMonotonicTime { index: 1 });
        let err = Trajectory::from_xyt(&[(0.0, 0.0, 5.0), (1.0, 0.0, 4.0)]).unwrap_err();
        assert_eq!(err, TrajectoryError::NonMonotonicTime { index: 1 });
        assert!(Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)]).is_ok());
    }

    #[test]
    fn new_rejects_empty_and_non_finite() {
        assert_eq!(Trajectory::new(vec![]).unwrap_err(), TrajectoryError::Empty);
        let err = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(f64::NAN, 0.0, 1.0),
        ])
        .unwrap_err();
        assert_eq!(err, TrajectoryError::NonFinitePoint { index: 1 });
    }

    #[test]
    fn from_xy_assigns_increasing_time() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.point(1).t, 1.0);
        assert_eq!(t.first(), Point::new(0.0, 0.0, 0.0));
        assert_eq!(t.last(), Point::new(2.0, 0.0, 2.0));
    }

    #[test]
    fn path_length_and_duration() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (3.0, 4.0), (3.0, 4.0 + 5.0)]);
        assert!((t.path_length() - 10.0).abs() < 1e-12);
        assert_eq!(t.duration(), 2.0);
        assert_eq!(t.mean_sampling_interval(), 1.0);

        let single = Trajectory::from_xy(&[(1.0, 1.0)]);
        assert_eq!(single.path_length(), 0.0);
        assert_eq!(single.duration(), 0.0);
        assert_eq!(single.mean_sampling_interval(), 0.0);
    }

    #[test]
    fn slice_and_segment() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let s = t.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.first().x, 1.0);
        assert_eq!(s.last().x, 2.0);
        let seg = t.segment(0, 3);
        assert_eq!(seg.start.x, 0.0);
        assert_eq!(seg.end.x, 3.0);
        assert_eq!(seg.length(), 3.0);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0)]);
        let _ = t.slice(0, 2);
    }

    #[test]
    fn iteration() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let pts = t.clone().into_points();
        assert_eq!(pts.len(), 2);
    }
}
