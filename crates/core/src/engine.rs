//! The one-pass segment engine shared by OPERB and OPERB-A.
//!
//! This module restructures the pull-based pseudo-code of the paper
//! (algorithm `OPERB` + procedure `getActivePoint`, Figure 7) into a
//! push-based state machine so the algorithm can be driven by a streaming
//! [`traj_model::StreamingSimplifier`] interface while remaining strictly
//! one-pass: every data point is handed to [`SegmentEngine::push`] exactly
//! once and inspected O(1) times.
//!
//! Responsibilities of the engine:
//!
//! * maintain the current segment's fitted line (the fitting function F of
//!   [`crate::fitting`]);
//! * decide for each point whether it is consumed by the current segment or
//!   whether the segment *breaks* (the `flag = false` outcome of
//!   `getActivePoint`);
//! * on a break, finalize the segment `P_s → P_e`, optionally keep absorbing
//!   trailing points into it (optimization 5), and restart fitting from the
//!   previous end point;
//! * at the end of the trajectory, flush the pending segment(s) and close
//!   the piecewise representation at the final data point.
//!
//! Finalized segments are not returned directly; they are handed to the
//! caller in order so that OPERB can emit them immediately while OPERB-A can
//! hold them back for patch-point interpolation (§5.2's lazy output policy).

use crate::config::OperbConfig;
use crate::fitting::{FittedLine, PointClass};
use traj_geo::{DirectedSegment, Point};
use traj_model::SimplifiedSegment;

/// The in-progress segment: anchor (start), last incorporated active point
/// (the candidate end point `P_e`) and the fitted line.
#[derive(Debug, Clone)]
struct SegmentBuilder {
    start: Point,
    start_idx: usize,
    end: Point,
    end_idx: usize,
    line: FittedLine,
    /// Number of points consumed by this segment so far (enforces the
    /// `k ≤ 4×10⁵` cap of Theorem 2).
    points_consumed: usize,
    /// Cached direction and length of the candidate output segment
    /// `R_a = P_s → P_e`, refreshed whenever `P_e` moves (hot-path: the
    /// per-point `d(P_i, R_a) ≤ ζ` check of `getActivePoint` must not
    /// recompute the segment length).
    ra_dx: f64,
    ra_dy: f64,
    ra_len: f64,
}

impl SegmentBuilder {
    fn new(start: Point, start_idx: usize, zeta: f64) -> Self {
        Self {
            start,
            start_idx,
            end: start,
            end_idx: start_idx,
            line: FittedLine::new(start, zeta),
            points_consumed: 0,
            ra_dx: 0.0,
            ra_dy: 0.0,
            ra_len: 0.0,
        }
    }

    /// Updates the candidate end point `P_e` and the cached `R_a` geometry.
    fn set_end(&mut self, end: Point, end_idx: usize) {
        self.end = end;
        self.end_idx = end_idx;
        self.ra_dx = end.x - self.start.x;
        self.ra_dy = end.y - self.start.y;
        self.ra_len = (self.ra_dx * self.ra_dx + self.ra_dy * self.ra_dy).sqrt();
    }

    /// Distance from `p` to the line supporting `R_a = P_s → P_e` (distance
    /// to `P_s` while no end point has been incorporated yet).
    #[inline]
    fn distance_to_ra(&self, p: &Point) -> f64 {
        let dx = p.x - self.start.x;
        let dy = p.y - self.start.y;
        if self.ra_len == 0.0 {
            return (dx * dx + dy * dy).sqrt();
        }
        (dx * self.ra_dy - dy * self.ra_dx).abs() / self.ra_len
    }

    /// `true` when at least one active point has been incorporated, i.e. the
    /// candidate output segment `P_s → P_e` is non-degenerate.
    fn has_end(&self) -> bool {
        self.end_idx > self.start_idx
    }

    /// The candidate output segment `P_s → P_e`.
    fn to_segment(&self, last_index: usize) -> SimplifiedSegment {
        SimplifiedSegment::new(
            DirectedSegment::new(self.start, self.end),
            self.start_idx,
            last_index,
        )
    }
}

/// A finalized segment still waiting to be handed to the caller, possibly
/// absorbing trailing points (optimization 5).
#[derive(Debug, Clone)]
struct PendingSegment {
    segment: SimplifiedSegment,
    /// `true` while optimization 5 may still extend `segment.last_index`.
    absorbing: bool,
}

/// The push-based OPERB segment engine.
#[derive(Debug, Clone)]
pub struct SegmentEngine {
    zeta: f64,
    config: OperbConfig,
    next_idx: usize,
    builder: Option<SegmentBuilder>,
    pending: Option<PendingSegment>,
}

impl SegmentEngine {
    /// Creates an engine for one trajectory with error bound `zeta`.
    pub fn new(zeta: f64, config: OperbConfig) -> Self {
        debug_assert!(zeta.is_finite() && zeta > 0.0, "ζ must be positive");
        Self {
            zeta,
            config,
            next_idx: 0,
            builder: None,
            pending: None,
        }
    }

    /// The configured error bound ζ.
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// The configuration in use.
    pub fn config(&self) -> &OperbConfig {
        &self.config
    }

    /// Number of points pushed so far.
    pub fn points_seen(&self) -> usize {
        self.next_idx
    }

    /// Resets the engine for a new trajectory.
    pub fn reset(&mut self) {
        self.next_idx = 0;
        self.builder = None;
        self.pending = None;
    }

    /// Pushes the next data point.  Finalized segments (zero, one or —
    /// rarely — two) are appended to `out` in order.
    pub fn push(&mut self, point: Point, out: &mut Vec<SimplifiedSegment>) {
        let idx = self.next_idx;
        self.next_idx += 1;

        if self.builder.is_none() {
            // Very first point of the trajectory.
            self.builder = Some(SegmentBuilder::new(point, idx, self.zeta));
            return;
        }

        // Optimization 5: a finalized segment may still absorb this point.
        if let Some(pending) = self.pending.as_mut() {
            if pending.absorbing {
                if pending.segment.distance_to_line(&point) <= self.zeta {
                    pending.segment.last_index = idx;
                    return;
                }
                pending.absorbing = false;
            }
            // Absorption is over (or was never on): release the segment.
            out.push(self.pending.take().expect("pending is Some").segment);
        }

        let builder = self.builder.as_mut().expect("builder is Some");
        if Self::step(builder, &point, idx, self.zeta, &self.config) {
            return; // consumed by the current segment
        }

        // The current segment breaks at this point: finalize P_s → P_e with
        // responsibility up to the previous point, restart from P_e and
        // reprocess the breaking point in the fresh segment.
        let finalized = builder.to_segment(idx.saturating_sub(1).max(builder.end_idx));
        let new_start = builder.end;
        let new_start_idx = builder.end_idx;
        *builder = SegmentBuilder::new(new_start, new_start_idx, self.zeta);

        if self.config.opt_absorb_trailing {
            let mut pending = PendingSegment {
                segment: finalized,
                absorbing: true,
            };
            // Try to absorb the breaking point itself.
            if pending.segment.distance_to_line(&point) <= self.zeta {
                pending.segment.last_index = idx;
                self.pending = Some(pending);
                return;
            }
            pending.absorbing = false;
            self.pending = Some(pending);
        } else {
            self.pending = Some(PendingSegment {
                segment: finalized,
                absorbing: false,
            });
        }

        // Reprocess the breaking point in the fresh segment.  With a
        // zero-length fitted line no distance condition can fail, so this
        // cannot break again.
        let consumed = Self::step(
            self.builder.as_mut().expect("builder is Some"),
            &point,
            idx,
            self.zeta,
            &self.config,
        );
        debug_assert!(consumed, "a fresh segment must consume its first point");
    }

    /// Signals the end of the trajectory and flushes every pending segment,
    /// closing the piecewise representation at the actual last pushed point
    /// `last` (which the engine itself does not store, keeping its state
    /// strictly O(1) and explicit).
    pub fn finish_with_last(&mut self, last: Option<Point>, out: &mut Vec<SimplifiedSegment>) {
        let n = self.next_idx;
        if n == 0 {
            self.reset();
            return;
        }
        let last_idx = n - 1;
        let last_point = match last {
            Some(p) => p,
            None => {
                // No point retained by the caller: fall back to the builder's
                // end point (only reachable when the builder end is the last
                // point anyway).
                self.builder
                    .as_ref()
                    .map(|b| b.end)
                    .or_else(|| self.pending.as_ref().map(|p| p.segment.segment.end))
                    .unwrap_or_default()
            }
        };

        if let Some(pending) = self.pending.take() {
            out.push(pending.segment);
        }

        if let Some(builder) = self.builder.take() {
            if builder.has_end() {
                out.push(builder.to_segment(last_idx));
                if builder.end_idx < last_idx && !builder.end.approx_eq(&last_point, 1e-12) {
                    // Close the representation at the final data point.  The
                    // trailing points are already within ζ of the emitted
                    // segment (they were checked against it), so the extra
                    // segment does not affect the error bound.
                    out.push(SimplifiedSegment::new(
                        DirectedSegment::new(builder.end, last_point),
                        builder.end_idx,
                        last_idx,
                    ));
                }
            } else if last_idx > builder.start_idx {
                // No active point found after the segment anchor: every
                // trailing point stayed within the activation threshold
                // (≤ ζ) of the anchor, so a single closing segment is error
                // bounded.
                out.push(SimplifiedSegment::new(
                    DirectedSegment::new(builder.start, last_point),
                    builder.start_idx,
                    last_idx,
                ));
            }
            // last_idx == builder.start_idx: the previous segment already
            // ends exactly at the final point; nothing to add.
        }
        self.reset();
    }

    /// Processes one point against the current segment.  Returns `true` when
    /// the point is consumed, `false` when the segment must break.
    ///
    /// This is the per-point hot path of the whole algorithm: all distance
    /// and classification arithmetic is done on squared lengths and the
    /// cached fitted direction, so an inactive point costs no square root
    /// and no trigonometry.  An active point adds two square roots (its
    /// `|R|` and the new `|R_a|`).  The rotation of case (3) adds one `asin`
    /// for the step and one `sin_cos` for the new direction; optimization
    /// 3's cap adds an `asin` and a `sin` only where two comparisons cannot
    /// settle it.  The first active point of a segment pays one `atan2` and
    /// one `sin_cos` instead.
    fn step(
        builder: &mut SegmentBuilder,
        point: &Point,
        idx: usize,
        zeta: f64,
        config: &OperbConfig,
    ) -> bool {
        if builder.points_consumed >= config.max_points_per_segment {
            return false;
        }

        let rx = point.x - builder.start.x;
        let ry = point.y - builder.start.y;
        let r_sq = rx * rx + ry * ry;

        if builder.line.is_zero() {
            // Before the first active point every candidate is within the
            // activation threshold (≤ ζ) of the anchor, hence trivially
            // error bounded; no distance condition can fail.
            let threshold = if config.opt_first_active {
                zeta
            } else {
                zeta / 4.0
            };
            if r_sq > threshold * threshold {
                builder.line.start_line(point, r_sq.sqrt());
                builder.set_end(*point, idx);
            }
            builder.points_consumed += 1;
            true
        } else {
            let activation = builder.line.length() + zeta / 4.0;
            let class = if r_sq > activation * activation {
                PointClass::Active
            } else {
                PointClass::Inactive
            };
            // `d` and `sign` are `FittedLine::distance_to_line` and
            // `FittedLine::sign_for` written out on the same operands
            // (the anchor is `builder.start`), so an active point hands
            // them on to the rotation bit for bit.
            let (cos, sin) = builder.line.direction();
            let d = (rx * sin - ry * cos).abs();
            // The fitting-function sign f: +1 iff (R.θ − L.θ) mod π ∈ [0, π/2],
            // i.e. iff the dot and cross products with L's direction agree.
            let dot = rx * cos + ry * sin;
            let cross = cos * ry - sin * rx;
            let sign = if cross * dot >= 0.0 { 1.0 } else { -1.0 };
            let acceptable = builder.line.distance_acceptable(sign, d, config);

            match class {
                PointClass::Inactive => {
                    // `getActivePoint` lines 2–5: an inactive point must stay
                    // within ζ/2 (or the adjusted condition) of the fitted
                    // line AND within ζ of the candidate output segment
                    // R_a = P_s → P_e.
                    if !acceptable {
                        return false;
                    }
                    if builder.distance_to_ra(point) > zeta {
                        return false;
                    }
                    builder.line.record_distance(sign, d);
                    builder.points_consumed += 1;
                    true
                }
                PointClass::Active => {
                    // `getActivePoint` line 6: the candidate active point
                    // itself must satisfy the distance condition, otherwise
                    // the segment breaks.
                    if !acceptable {
                        return false;
                    }
                    builder.line.rotate_towards(r_sq.sqrt(), d, sign, config);
                    builder.set_end(*point, idx);
                    builder.points_consumed += 1;
                    true
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_engine(points: &[(f64, f64)], zeta: f64, config: OperbConfig) -> Vec<SimplifiedSegment> {
        let mut engine = SegmentEngine::new(zeta, config);
        let mut out = Vec::new();
        let pts: Vec<Point> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(x, y, i as f64))
            .collect();
        for &p in &pts {
            engine.push(p, &mut out);
        }
        engine.finish_with_last(pts.last().copied(), &mut out);
        out
    }

    #[test]
    fn straight_line_is_one_segment() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 10.0, 0.0)).collect();
        let segs = run_engine(&pts, 5.0, OperbConfig::raw());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].first_index, 0);
        assert_eq!(segs[0].last_index, 49);
        assert!(segs[0].segment.start.approx_eq(&Point::xy(0.0, 0.0), 1e-9));
        assert!(segs[0].segment.end.approx_eq(&Point::xy(490.0, 0.0), 1e-9));
    }

    #[test]
    fn right_angle_produces_two_segments() {
        let mut pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 10.0, 0.0)).collect();
        pts.extend((1..20).map(|i| (190.0, i as f64 * 10.0)));
        let segs = run_engine(&pts, 5.0, OperbConfig::raw());
        assert!(
            segs.len() >= 2 && segs.len() <= 3,
            "expected 2-3 segments, got {}",
            segs.len()
        );
        // The first segment ends near the corner.
        let corner = Point::xy(190.0, 0.0);
        assert!(segs[0].segment.end.distance(&corner) <= 15.0);
    }

    #[test]
    fn single_point_yields_no_segment() {
        let segs = run_engine(&[(3.0, 3.0)], 5.0, OperbConfig::raw());
        assert!(segs.is_empty());
    }

    #[test]
    fn two_points_yield_one_segment() {
        let segs = run_engine(&[(0.0, 0.0), (100.0, 0.0)], 5.0, OperbConfig::raw());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].first_index, 0);
        assert_eq!(segs[0].last_index, 1);
    }

    #[test]
    fn two_close_points_yield_one_segment() {
        // Below the activation threshold: the closing logic still emits the
        // connecting segment.
        let segs = run_engine(&[(0.0, 0.0), (0.5, 0.0)], 5.0, OperbConfig::raw());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].last_index, 1);
    }

    #[test]
    fn representation_always_closes_at_last_point() {
        // Trailing jitter after the last active point must still be covered
        // and the final segment must end exactly at the last input point.
        let mut pts: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 * 10.0, 0.0)).collect();
        pts.push((290.5, 0.3));
        pts.push((290.8, -0.2));
        let last = *pts.last().unwrap();
        let segs = run_engine(&pts, 5.0, OperbConfig::raw());
        let end = segs.last().unwrap().segment.end;
        assert!(end.approx_eq(&Point::xy(last.0, last.1), 1e-9));
        assert_eq!(segs.last().unwrap().last_index, pts.len() - 1);
        assert_eq!(segs[0].first_index, 0);
    }

    #[test]
    fn error_bound_holds_on_zigzag_raw() {
        let zeta = 5.0;
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let x = i as f64 * 3.0;
                let y = if i % 2 == 0 { 0.0 } else { 2.0 };
                (x, y)
            })
            .collect();
        let points: Vec<Point> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(x, y, i as f64))
            .collect();
        let segs = run_engine(&pts, zeta, OperbConfig::raw());
        // Every original point must be within ζ of at least one output line.
        for p in &points {
            let min_d = segs
                .iter()
                .map(|s| s.distance_to_line(p))
                .fold(f64::INFINITY, f64::min);
            assert!(min_d <= zeta + 1e-9, "point {p} is {min_d} away");
        }
    }

    #[test]
    fn absorption_extends_responsibility() {
        // A sharp corner followed by points that are still within ζ of the
        // first segment's line: with optimization 5 they are absorbed.
        let mut cfg_on = OperbConfig::raw();
        cfg_on.opt_absorb_trailing = true;

        // East for a while, then a tiny hook back towards the line.
        let mut pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 10.0, 0.0)).collect();
        // A point far off the line to force a break…
        pts.push((190.0, 50.0));
        // …whose successors are near the original line again (absorbable).
        pts.push((200.0, 2.0));
        pts.push((210.0, 1.0));
        pts.push((220.0, 0.0));

        let with_absorb = run_engine(&pts, 5.0, cfg_on);
        let without_absorb = run_engine(&pts, 5.0, OperbConfig::raw());
        let absorbed_last = with_absorb[0].last_index;
        let raw_last = without_absorb[0].last_index;
        assert!(
            absorbed_last >= raw_last,
            "absorption should never shrink responsibility"
        );
    }

    #[test]
    fn engine_reset_between_trajectories() {
        let mut engine = SegmentEngine::new(5.0, OperbConfig::raw());
        let mut out = Vec::new();
        for i in 0..10 {
            engine.push(Point::new(i as f64 * 10.0, 0.0, i as f64), &mut out);
        }
        engine.finish_with_last(Some(Point::new(90.0, 0.0, 9.0)), &mut out);
        assert_eq!(engine.points_seen(), 0, "finish resets the engine");
        let first_run = out.len();
        assert!(first_run >= 1);

        let mut out2 = Vec::new();
        for i in 0..10 {
            engine.push(Point::new(i as f64 * 10.0, 5.0, i as f64), &mut out2);
        }
        engine.finish_with_last(Some(Point::new(90.0, 5.0, 9.0)), &mut out2);
        assert_eq!(out2.len(), first_run);
        assert_eq!(out2[0].first_index, 0);
    }

    #[test]
    fn max_points_per_segment_forces_break() {
        let mut cfg = OperbConfig::raw();
        cfg.max_points_per_segment = 10;
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 10.0, 0.0)).collect();
        let segs = run_engine(&pts, 5.0, cfg);
        assert!(
            segs.len() >= 4,
            "the cap must split a long straight line, got {} segments",
            segs.len()
        );
    }

    #[test]
    fn responsibility_ranges_tile_without_gaps() {
        let pts: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let t = i as f64 * 0.1;
                (t * 30.0, (t * 1.3).sin() * 40.0)
            })
            .collect();
        for cfg in [OperbConfig::raw(), OperbConfig::optimized()] {
            let segs = run_engine(&pts, 8.0, cfg);
            assert!(!segs.is_empty());
            assert_eq!(segs[0].first_index, 0);
            assert_eq!(segs.last().unwrap().last_index, pts.len() - 1);
            for w in segs.windows(2) {
                assert!(
                    w[1].first_index <= w[0].last_index + 1,
                    "gap between {:?} and {:?}",
                    w[0],
                    w[1]
                );
                assert!(
                    w[0].segment.end.approx_eq(&w[1].segment.start, 1e-9),
                    "discontinuous output"
                );
            }
        }
    }
}
