//! High-level fleet compression: run a whole set of trajectories through
//! the pipeline (or through a sequential reference loop) and measure
//! throughput.
//!
//! [`compress_fleet`] emulates live ingest: it interleaves chunks across
//! all devices round-robin — thousands of streams are open concurrently,
//! exactly the multi-user load the pipeline is built for — instead of
//! feeding one trajectory after another.

use std::time::{Duration, Instant};

use traj_model::Trajectory;

use crate::algorithm::FleetAlgorithm;
use crate::config::PipelineConfig;
use crate::executor::{DeviceId, FleetPipeline, FleetResult, PipelineReport};

/// Output of a fleet run: every stream's result plus the throughput
/// report.
#[derive(Debug)]
pub struct FleetRun {
    /// One result per closed stream (arbitrary order; sort by
    /// [`FleetResult::device`] for deterministic processing).
    pub results: Vec<FleetResult>,
    /// Throughput accounting.
    pub report: PipelineReport,
}

/// A consumer of per-stream compression results.
///
/// The fleet drivers hand every finished stream to a sink as soon as it
/// becomes available, which is how downstream systems (the `traj-store`
/// storage engine, metrics collectors) receive pipeline output without
/// buffering the whole fleet in memory first.  `Vec<FleetResult>`
/// implements the trait for callers that do want the plain collection.
pub trait ResultSink {
    /// Consumes one closed stream's result.
    fn accept(&mut self, result: FleetResult);
}

impl ResultSink for Vec<FleetResult> {
    fn accept(&mut self, result: FleetResult) {
        self.push(result);
    }
}

/// Compresses a fleet through the parallel pipeline, interleaving chunks
/// across all devices (round-robin) so every stream is concurrently open.
///
/// Results arrive out of order; each entry's
/// [`device`](FleetResult::device) indexes back into `fleet`.
pub fn compress_fleet(
    fleet: &[(DeviceId, Trajectory)],
    config: &PipelineConfig,
    algorithm: &FleetAlgorithm,
) -> FleetRun {
    let mut results = Vec::with_capacity(fleet.len());
    let report = compress_fleet_with_sink(fleet, config, algorithm, &mut results);
    FleetRun { results, report }
}

/// [`compress_fleet`], but streaming every finished result into `sink` as
/// soon as it is available instead of collecting a `Vec` — the ingest path
/// of the `traj-store` storage engine.
pub fn compress_fleet_with_sink(
    fleet: &[(DeviceId, Trajectory)],
    config: &PipelineConfig,
    algorithm: &FleetAlgorithm,
    sink: &mut dyn ResultSink,
) -> PipelineReport {
    let mut pipe = FleetPipeline::spawn(config, algorithm);
    let chunk = config.batch_size.max(1);
    let mut offsets: Vec<usize> = vec![0; fleet.len()];
    // Worklist of still-open fleet indices, so each round costs O(open
    // streams) — a few closed-early streams must not make every later
    // round rescan the whole fleet.
    let mut open: Vec<usize> = (0..fleet.len()).collect();
    while !open.is_empty() {
        let mut i = 0;
        while i < open.len() {
            let index = open[i];
            let (device, traj) = &fleet[index];
            let points = traj.points();
            let end = (offsets[index] + chunk).min(points.len());
            pipe.push_points(*device, &points[offsets[index]..end]);
            offsets[index] = end;
            if end == points.len() {
                pipe.close(*device);
                open.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Keep memory bounded on very large fleets: hand off what is done.
        for result in pipe.drain_ready() {
            sink.accept(result);
        }
    }
    let (rest, report) = pipe.finish();
    for result in rest {
        sink.accept(result);
    }
    report
}

/// The sequential reference: the same algorithm over the same fleet on the
/// calling thread, one trajectory at a time.  This is the baseline the
/// pipeline's speedup is measured against.
pub fn compress_fleet_sequential(
    fleet: &[(DeviceId, Trajectory)],
    epsilon: f64,
    algorithm: &FleetAlgorithm,
) -> FleetRun {
    let started = Instant::now();
    let mut total_points = 0;
    let results: Vec<FleetResult> = fleet
        .iter()
        .map(|(device, traj)| {
            total_points += traj.len();
            let output = match algorithm {
                FleetAlgorithm::Streaming { factory, .. } => {
                    let mut simplifier = factory(epsilon);
                    let mut segments = Vec::new();
                    for &p in traj.points() {
                        simplifier.push(p, &mut segments);
                    }
                    simplifier.finish(&mut segments);
                    Ok(traj_model::SimplifiedTrajectory::new(segments, traj.len()))
                }
                FleetAlgorithm::Batch(s) => s.simplify(traj, epsilon),
            };
            FleetResult {
                device: *device,
                output,
                points: traj.len(),
            }
        })
        .collect();
    let elapsed = started.elapsed();
    FleetRun {
        results,
        report: PipelineReport {
            workers: 1,
            total_points,
            total_streams: fleet.len(),
            elapsed,
            worker_busy: vec![elapsed],
        },
    }
}

/// Sorts `results` by device and checks every stream's output against the
/// error bound, returning the worst observed error.
///
/// This is the verification every fleet consumer runs before trusting a
/// throughput number (`trajsimp fleet`, perfbench, the stress
/// tests).  `fleet` must be the input the results were produced from,
/// sorted by device id as produced by the drivers in this module.
///
/// # Errors
///
/// A human-readable message when a stream is missing, an algorithm
/// reported an error, or any stream's maximum error exceeds `epsilon`.
pub fn verify_error_bound(
    fleet: &[(DeviceId, Trajectory)],
    results: &mut [FleetResult],
    epsilon: f64,
) -> Result<f64, String> {
    if results.len() != fleet.len() {
        return Err(format!(
            "expected {} results, got {}",
            fleet.len(),
            results.len()
        ));
    }
    results.sort_by_key(|r| r.device);
    let mut worst: f64 = 0.0;
    for ((device, traj), result) in fleet.iter().zip(results.iter()) {
        if *device != result.device {
            return Err(format!(
                "result for device {} where {device} was expected",
                result.device
            ));
        }
        let simplified = result
            .output
            .as_ref()
            .map_err(|e| format!("device {device} failed: {e}"))?;
        worst = worst.max(traj_metrics::max_error(traj, simplified));
    }
    if worst > epsilon + 1e-9 {
        return Err(format!(
            "error bound violated: max error {worst:.3} > ζ = {epsilon}"
        ));
    }
    Ok(worst)
}

/// A parallel-vs-sequential comparison (what `trajsimp fleet` and the
/// pipeline bench print).
#[derive(Debug, Clone, Copy)]
pub struct Speedup {
    /// Sequential wall-clock.
    pub sequential: Duration,
    /// Parallel wall-clock.
    pub parallel: Duration,
}

impl Speedup {
    /// `sequential / parallel` — how many times faster the pipeline ran.
    pub fn factor(&self) -> f64 {
        self.sequential.as_secs_f64() / self.parallel.as_secs_f64().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::Point;

    fn fleet(n: usize, points: usize) -> Vec<(DeviceId, Trajectory)> {
        (0..n)
            .map(|d| {
                let traj = Trajectory::new_unchecked(
                    (0..points)
                        .map(|i| {
                            let t = i as f64;
                            Point::new(t * 10.0, ((t + d as f64) * 0.3).sin() * 40.0, t)
                        })
                        .collect(),
                );
                (d as DeviceId, traj)
            })
            .collect()
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let fleet = fleet(30, 400);
        let algo = FleetAlgorithm::by_name("operb").unwrap();
        let config = PipelineConfig::new(12.0)
            .with_workers(4)
            .with_batch_size(50);
        let mut par = compress_fleet(&fleet, &config, &algo);
        let seq = compress_fleet_sequential(&fleet, 12.0, &algo);
        par.results.sort_by_key(|r| r.device);
        assert_eq!(par.results.len(), seq.results.len());
        for (p, s) in par.results.iter().zip(&seq.results) {
            assert_eq!(p.device, s.device);
            assert_eq!(
                p.output.as_ref().unwrap(),
                s.output.as_ref().unwrap(),
                "device {}",
                p.device
            );
        }
        assert_eq!(par.report.total_points, seq.report.total_points);
    }

    #[test]
    fn speedup_factor() {
        let s = Speedup {
            sequential: Duration::from_millis(900),
            parallel: Duration::from_millis(300),
        };
        assert!((s.factor() - 3.0).abs() < 1e-9);
    }
}
