//! Piecewise line representations — the output of a simplification
//! algorithm (paper §3.1, "Piecewise line representation (T)").

use traj_geo::{DirectedSegment, Point};

/// One directed line segment of a piecewise line representation, together
/// with the inclusive range of original point indices it is responsible
/// for.
///
/// * For algorithms whose segment endpoints are original data points (DP,
///   OPW, BQS, FBQS, OPERB), `segment.start` / `segment.end` equal the
///   points at `first_index` / `last_index`... except when OPERB's
///   optimization 5 absorbs trailing points, in which case `last_index`
///   extends past the geometric end point.
/// * For OPERB-A, patch points are interpolated, so an endpoint may be a
///   synthetic point that is not part of the original trajectory
///   (`interpolated_start` / `interpolated_end` record this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplifiedSegment {
    /// The directed line segment of the representation.
    pub segment: DirectedSegment,
    /// Index of the first original point this segment is responsible for.
    pub first_index: usize,
    /// Index of the last original point this segment is responsible for
    /// (inclusive).
    pub last_index: usize,
    /// `true` when the start point is an interpolated patch point rather
    /// than an original data point.
    pub interpolated_start: bool,
    /// `true` when the end point is an interpolated patch point.
    pub interpolated_end: bool,
}

impl SimplifiedSegment {
    /// Creates a segment whose endpoints are original data points.
    pub fn new(segment: DirectedSegment, first_index: usize, last_index: usize) -> Self {
        debug_assert!(first_index <= last_index);
        Self {
            segment,
            first_index,
            last_index,
            interpolated_start: false,
            interpolated_end: false,
        }
    }

    /// Number of original points this segment is responsible for
    /// (inclusive of both boundary points, matching the paper's convention
    /// for the Z(k) distribution of Figure 17 where boundary points are
    /// counted for both adjacent segments).
    #[inline]
    pub fn point_count(&self) -> usize {
        self.last_index - self.first_index + 1
    }

    /// Distance from `p` to the infinite line supporting this segment — the
    /// `d(P, L)` of the paper's error definitions.
    #[inline]
    pub fn distance_to_line(&self, p: &Point) -> f64 {
        self.segment.distance_to_line(p)
    }

    /// Whether the segment represents only its own two endpoints — an
    /// *anomalous line segment* in the terminology of §5.1.
    #[inline]
    pub fn is_anomalous(&self) -> bool {
        self.last_index.saturating_sub(self.first_index) <= 1
    }
}

/// A piecewise line representation `T [L0, …, Lm]` of a trajectory with
/// `original_len` points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimplifiedTrajectory {
    segments: Vec<SimplifiedSegment>,
    original_len: usize,
}

impl SimplifiedTrajectory {
    /// Creates a representation from its segments.
    pub fn new(segments: Vec<SimplifiedSegment>, original_len: usize) -> Self {
        Self {
            segments,
            original_len,
        }
    }

    /// The directed line segments, in order.
    #[inline]
    pub fn segments(&self) -> &[SimplifiedSegment] {
        &self.segments
    }

    /// Number of line segments `|T|` (the numerator of the paper's
    /// compression ratio).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of points of the original trajectory `|...T|`.
    #[inline]
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// `true` when the representation contains no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Compression ratio `|T| / |...T|` for this single trajectory (lower is
    /// better).  Multi-trajectory ratios are computed by `traj-metrics`.
    pub fn compression_ratio(&self) -> f64 {
        if self.original_len == 0 {
            return 0.0;
        }
        self.segments.len() as f64 / self.original_len as f64
    }

    /// The number of retained "shape points": the endpoints of the piecewise
    /// representation (`m + 1` for `m` continuous segments).
    pub fn num_shape_points(&self) -> usize {
        if self.segments.is_empty() {
            0
        } else {
            self.segments.len() + 1
        }
    }

    /// The polyline of segment endpoints (start of the first segment, then
    /// the end of every segment).
    pub fn shape_points(&self) -> Vec<Point> {
        let mut pts = Vec::with_capacity(self.num_shape_points());
        if let Some(first) = self.segments.first() {
            pts.push(first.segment.start);
        }
        for s in &self.segments {
            pts.push(s.segment.end);
        }
        pts
    }

    /// Segments whose responsibility range contains the original point index
    /// `i` (usually one, possibly two at shared boundaries).
    pub fn segments_covering(&self, i: usize) -> impl Iterator<Item = &SimplifiedSegment> {
        self.segments
            .iter()
            .filter(move |s| s.first_index <= i && i <= s.last_index)
    }

    /// Number of anomalous segments (§5.1): segments that represent only
    /// their own two endpoints.
    pub fn num_anomalous_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.is_anomalous()).count()
    }

    /// Checks the structural invariants of a well-formed piecewise line
    /// representation and returns a human-readable violation if any:
    ///
    /// 1. responsibility ranges start at 0, end at `original_len − 1`, and
    ///    each segment starts where the previous one's responsibility left
    ///    off (shared boundary index or the next index);
    /// 2. consecutive segments are geometrically continuous
    ///    (`L_i.Pe == L_{i+1}.Ps`);
    /// 3. every segment has a non-empty responsibility range.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return if self.original_len <= 1 {
                Ok(())
            } else {
                Err("no segments for a multi-point trajectory".into())
            };
        }
        let first = self.segments.first().expect("non-empty");
        let last = self.segments.last().expect("non-empty");
        if first.first_index != 0 {
            return Err(format!(
                "first segment starts at index {}, expected 0",
                first.first_index
            ));
        }
        if last.last_index + 1 != self.original_len {
            return Err(format!(
                "last segment ends at index {}, expected {}",
                last.last_index,
                self.original_len - 1
            ));
        }
        for (k, w) in self.segments.windows(2).enumerate() {
            let (a, b) = (&w[0], &w[1]);
            if b.first_index > a.last_index + 1 {
                return Err(format!(
                    "responsibility gap between segments {k} and {} ({} → {})",
                    k + 1,
                    a.last_index,
                    b.first_index
                ));
            }
            if b.first_index + 1 < a.first_index {
                return Err(format!("segments {k} and {} out of order", k + 1));
            }
            if !a.segment.end.approx_eq(&b.segment.start, 1e-6) {
                return Err(format!(
                    "segments {k} and {} are not continuous: {} vs {}",
                    k + 1,
                    a.segment.end,
                    b.segment.start
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(x0: f64, y0: f64, x1: f64, y1: f64, a: usize, b: usize) -> SimplifiedSegment {
        SimplifiedSegment::new(
            DirectedSegment::new(Point::xy(x0, y0), Point::xy(x1, y1)),
            a,
            b,
        )
    }

    #[test]
    fn point_count_and_anomalous() {
        let s = seg(0.0, 0.0, 5.0, 0.0, 0, 5);
        assert_eq!(s.point_count(), 6);
        assert!(!s.is_anomalous());
        let a = seg(5.0, 0.0, 6.0, 0.0, 5, 6);
        assert_eq!(a.point_count(), 2);
        assert!(a.is_anomalous());
    }

    #[test]
    fn compression_ratio() {
        let st = SimplifiedTrajectory::new(
            vec![seg(0.0, 0.0, 5.0, 0.0, 0, 5), seg(5.0, 0.0, 9.0, 0.0, 5, 9)],
            10,
        );
        assert!((st.compression_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(st.num_segments(), 2);
        assert_eq!(st.original_len(), 10);
        assert_eq!(st.num_shape_points(), 3);
        assert_eq!(st.shape_points().len(), 3);
    }

    #[test]
    fn segments_covering_shared_boundary() {
        let st = SimplifiedTrajectory::new(
            vec![seg(0.0, 0.0, 5.0, 0.0, 0, 5), seg(5.0, 0.0, 9.0, 0.0, 5, 9)],
            10,
        );
        assert_eq!(st.segments_covering(3).count(), 1);
        assert_eq!(st.segments_covering(5).count(), 2);
        assert_eq!(st.segments_covering(9).count(), 1);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let st = SimplifiedTrajectory::new(
            vec![seg(0.0, 0.0, 5.0, 0.0, 0, 5), seg(5.0, 0.0, 9.0, 0.0, 5, 9)],
            10,
        );
        assert_eq!(st.validate(), Ok(()));
    }

    #[test]
    fn validate_detects_gap_and_discontinuity() {
        // Responsibility gap: 0..=4 then 6..=9.
        let st = SimplifiedTrajectory::new(
            vec![seg(0.0, 0.0, 4.0, 0.0, 0, 4), seg(4.0, 0.0, 9.0, 0.0, 6, 9)],
            10,
        );
        assert!(st.validate().unwrap_err().contains("gap"));

        // Geometric discontinuity.
        let st = SimplifiedTrajectory::new(
            vec![seg(0.0, 0.0, 4.0, 0.0, 0, 5), seg(4.5, 0.0, 9.0, 0.0, 5, 9)],
            10,
        );
        assert!(st.validate().unwrap_err().contains("continuous"));

        // Wrong start index.
        let st = SimplifiedTrajectory::new(vec![seg(0.0, 0.0, 4.0, 0.0, 1, 9)], 10);
        assert!(st.validate().unwrap_err().contains("expected 0"));

        // Wrong end index.
        let st = SimplifiedTrajectory::new(vec![seg(0.0, 0.0, 4.0, 0.0, 0, 8)], 10);
        assert!(st.validate().unwrap_err().contains("expected 9"));
    }

    #[test]
    fn validate_empty_cases() {
        assert_eq!(SimplifiedTrajectory::new(vec![], 1).validate(), Ok(()));
        assert!(SimplifiedTrajectory::new(vec![], 5).validate().is_err());
        assert!(SimplifiedTrajectory::default().is_empty());
    }

    #[test]
    fn anomalous_count() {
        let st = SimplifiedTrajectory::new(
            vec![
                seg(0.0, 0.0, 5.0, 0.0, 0, 5),
                seg(5.0, 0.0, 6.0, 0.0, 5, 6),
                seg(6.0, 0.0, 9.0, 0.0, 6, 9),
            ],
            10,
        );
        assert_eq!(st.num_anomalous_segments(), 1);
    }
}
