//! One-call evaluation of an algorithm on a dataset: runs the simplifier,
//! times it, and computes every §6 metric in one pass.  This is the
//! building block the experiment harness (`traj-bench`) uses to regenerate
//! the paper's tables and figures.

use crate::compression::dataset_compression_ratio;
use crate::distribution::{anomalous_segment_count, segment_distribution, SegmentDistribution};
use crate::error::{dataset_average_error, max_error};
use crate::timing::{measure, Measurement};
use traj_model::{BatchSimplifier, SimplifiedTrajectory, Trajectory};

/// The full metric set for one algorithm, one dataset and one error bound.
#[derive(Debug, Clone)]
pub struct EvaluationResult {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// The error bound ζ used.
    pub epsilon: f64,
    /// Number of trajectories evaluated.
    pub num_trajectories: usize,
    /// Total number of input points.
    pub total_points: usize,
    /// Total number of output segments.
    pub total_segments: usize,
    /// Dataset compression ratio (lower is better).
    pub compression_ratio: f64,
    /// Dataset average error (meters).
    pub average_error: f64,
    /// Largest per-point error observed (meters).
    pub max_error: f64,
    /// Total number of anomalous output segments.
    pub anomalous_segments: usize,
    /// The Z(k) distribution of output segments.
    pub distribution: SegmentDistribution,
    /// Wall-clock timing of the compression step only.
    pub timing: Measurement,
}

impl EvaluationResult {
    /// Points compressed per second of compression time.
    pub fn throughput_points_per_sec(&self) -> f64 {
        self.timing.throughput(self.total_points)
    }

    /// `true` when every point of every trajectory respected the bound.
    pub fn error_bounded(&self) -> bool {
        self.max_error <= self.epsilon + 1e-9
    }
}

/// Runs `algorithm` over every trajectory with error bound `epsilon`, once
/// untimed and then `repetitions` timed times, and gathers all §6 metrics.
pub fn evaluate_batch<A: BatchSimplifier + ?Sized>(
    algorithm: &A,
    trajectories: &[Trajectory],
    epsilon: f64,
    repetitions: u32,
) -> EvaluationResult {
    // Compression only is timed, as in the paper; the untimed warm-up's
    // outputs feed the quality metrics.
    let (outputs, timing) = measure(repetitions, || {
        trajectories
            .iter()
            .map(|t| {
                algorithm
                    .simplify(t, epsilon)
                    .expect("valid epsilon and trajectory")
            })
            .collect::<Vec<SimplifiedTrajectory>>()
    });

    let total_points: usize = trajectories.iter().map(Trajectory::len).sum();
    let total_segments: usize = outputs.iter().map(SimplifiedTrajectory::num_segments).sum();
    let pairs: Vec<(&Trajectory, &SimplifiedTrajectory)> =
        trajectories.iter().zip(outputs.iter()).collect();
    let avg_error = dataset_average_error(&pairs);
    let worst = trajectories
        .iter()
        .zip(outputs.iter())
        .map(|(t, s)| max_error(t, s))
        .fold(0.0, f64::max);

    EvaluationResult {
        algorithm: algorithm.name(),
        epsilon,
        num_trajectories: trajectories.len(),
        total_points,
        total_segments,
        compression_ratio: dataset_compression_ratio(&outputs),
        average_error: avg_error,
        max_error: worst,
        anomalous_segments: anomalous_segment_count(&outputs),
        distribution: segment_distribution(&outputs),
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::DirectedSegment;
    use traj_model::{SimplifiedSegment, TrajectoryError};

    /// A trivial "keep first and last point" simplifier for testing the
    /// evaluation plumbing without depending on the algorithm crates.
    struct EndpointsOnly;

    impl BatchSimplifier for EndpointsOnly {
        fn name(&self) -> &'static str {
            "endpoints"
        }
        fn simplify(
            &self,
            trajectory: &Trajectory,
            _epsilon: f64,
        ) -> Result<SimplifiedTrajectory, TrajectoryError> {
            let n = trajectory.len();
            if n < 2 {
                return Ok(SimplifiedTrajectory::new(vec![], n));
            }
            Ok(SimplifiedTrajectory::new(
                vec![SimplifiedSegment::new(
                    DirectedSegment::new(trajectory.first(), trajectory.last()),
                    0,
                    n - 1,
                )],
                n,
            ))
        }
    }

    fn dataset() -> Vec<Trajectory> {
        vec![
            Trajectory::from_xy(&[(0.0, 0.0), (5.0, 4.0), (10.0, 0.0)]),
            Trajectory::from_xy(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]),
        ]
    }

    #[test]
    fn evaluation_gathers_all_metrics() {
        let result = evaluate_batch(&EndpointsOnly, &dataset(), 5.0, 2);
        assert_eq!(result.algorithm, "endpoints");
        assert_eq!(result.num_trajectories, 2);
        assert_eq!(result.total_points, 7);
        assert_eq!(result.total_segments, 2);
        assert!((result.compression_ratio - 2.0 / 7.0).abs() < 1e-12);
        assert!((result.max_error - 4.0).abs() < 1e-12);
        assert!(result.average_error > 0.0);
        assert!(result.error_bounded());
        assert_eq!(result.timing.runs.len(), 2);
        assert_eq!(result.distribution.total_segments(), 2);
        assert!(result.throughput_points_per_sec() > 0.0);
    }

    #[test]
    fn error_bound_flag_reflects_epsilon() {
        let result = evaluate_batch(&EndpointsOnly, &dataset(), 1.0, 1);
        assert!(!result.error_bounded());
    }
}
