//! The worker-pool executor: bounded per-worker queues, deterministic
//! per-device routing, and a batching front end.
//!
//! ```text
//!             ┌── batching layer (per-device point buffers) ──┐
//!  submit ──▶ │ route(device) = hash(device) mod workers      │
//!             └──────────────┬────────────────┬───────────────┘
//!                   bounded  │        bounded │      … one queue per worker
//!                            ▼                ▼
//!                      ┌──────────┐     ┌──────────┐
//!                      │ worker 0 │     │ worker 1 │   each worker owns the
//!                      │ streams: │     │ streams: │   state of the devices
//!                      │  d0, d2… │     │  d1, d3… │   routed to it
//!                      └────┬─────┘     └────┬─────┘
//!                           └───────┬────────┘
//!                                   ▼  unbounded results channel
//!                              collector / caller
//! ```
//!
//! Routing is sticky: all chunks of one device go to the same worker, so
//! each stream's points are processed in order with no cross-thread
//! synchronization on the simplifier state.  Queues are bounded
//! ([`crate::PipelineConfig::queue_capacity`]); when a worker falls behind,
//! `submit` blocks — backpressure instead of unbounded buffering.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::time::{Duration, Instant};

use traj_geo::Point;
use traj_model::{
    BoxedStreamingSimplifier, SimplifiedSegment, SimplifiedTrajectory, Trajectory, TrajectoryError,
};

use crate::algorithm::FleetAlgorithm;
use crate::config::PipelineConfig;

/// Identifies one trajectory stream (one vehicle / user / sensor).
pub type DeviceId = u64;

/// One chunk of work routed to a worker.
enum Job {
    /// Points of one device, in trajectory order.  `close` marks the end
    /// of the stream: the simplifier is flushed and the result emitted.
    Chunk {
        device: DeviceId,
        points: Vec<Point>,
        close: bool,
    },
}

/// The compressed output of one closed device stream.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The stream this result belongs to.
    pub device: DeviceId,
    /// The piecewise line representation produced by the algorithm, or the
    /// error the algorithm reported (e.g. an invalid error bound).
    pub output: Result<SimplifiedTrajectory, TrajectoryError>,
    /// Number of points the stream contained.
    pub points: usize,
}

/// Throughput accounting returned by [`FleetPipeline::finish`].
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Number of worker threads that ran.
    pub workers: usize,
    /// Total points pushed through the pipeline.
    pub total_points: usize,
    /// Total streams closed.
    pub total_streams: usize,
    /// Wall-clock time from spawn to the last worker joining.
    pub elapsed: Duration,
    /// Per-worker busy time (time spent inside simplification, not
    /// blocked on the queue) — the imbalance diagnostic.
    pub worker_busy: Vec<Duration>,
}

impl PipelineReport {
    /// Aggregate throughput in points per second.
    pub fn points_per_sec(&self) -> f64 {
        self.total_points as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Per-stream state owned by a worker.
enum StreamState {
    /// Online algorithm: live simplifier plus the segments it has emitted.
    Streaming {
        simplifier: BoxedStreamingSimplifier,
        segments: Vec<SimplifiedSegment>,
        points: usize,
    },
    /// Batch algorithm: buffer the points until the stream closes.
    Buffering { points: Vec<Point> },
}

struct WorkerOutcome {
    busy: Duration,
    points: usize,
    streams: usize,
}

/// The parallel fleet-compression pipeline.
///
/// Create one with [`FleetPipeline::spawn`], feed it points with
/// [`FleetPipeline::push`] / [`FleetPipeline::push_points`] (ending each
/// stream with [`FleetPipeline::close`]) or whole trajectories with
/// [`FleetPipeline::submit`], then call [`FleetPipeline::finish`] to join
/// the workers and collect every result.  Results of already-closed
/// streams can be drained early with [`FleetPipeline::drain_ready`] to
/// bound memory on long runs.
pub struct FleetPipeline {
    senders: Vec<SyncSender<Job>>,
    results: Receiver<FleetResult>,
    handles: Vec<std::thread::JoinHandle<WorkerOutcome>>,
    /// Batching layer: per-device buffers not yet dispatched.
    pending: HashMap<DeviceId, Vec<Point>>,
    batch_size: usize,
    started: Instant,
}

impl FleetPipeline {
    /// Spawns the worker pool.
    pub fn spawn(config: &PipelineConfig, algorithm: &FleetAlgorithm) -> Self {
        let workers = config.workers.max(1);
        let (result_tx, results) = std::sync::mpsc::channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker_index in 0..workers {
            let (tx, rx) = sync_channel::<Job>(config.queue_capacity.max(1));
            let algorithm = algorithm.clone();
            let result_tx: Sender<FleetResult> = result_tx.clone();
            let epsilon = config.epsilon;
            let metrics = WorkerMetrics::register(worker_index);
            let handle = std::thread::Builder::new()
                .name(format!("fleet-worker-{worker_index}"))
                .spawn(move || worker_loop(rx, result_tx, algorithm, epsilon, &metrics))
                .expect("spawn pipeline worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            senders,
            results,
            handles,
            pending: HashMap::new(),
            batch_size: config.batch_size.max(1),
            started: Instant::now(),
        }
    }

    /// The worker a device's stream is routed to.  Sticky (same device →
    /// same worker) and mixing (a multiply-shift hash, so dense device id
    /// ranges still spread across workers).
    fn route(&self, device: DeviceId) -> usize {
        let mixed = device.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) % self.senders.len() as u64) as usize
    }

    fn dispatch(&mut self, device: DeviceId, points: Vec<Point>, close: bool) {
        let worker = self.route(device);
        self.senders[worker]
            .send(Job::Chunk {
                device,
                points,
                close,
            })
            .expect("pipeline worker exited early");
    }

    /// Feeds one point of `device`'s stream.  Points are buffered per
    /// device and dispatched in chunks of
    /// [`crate::PipelineConfig::batch_size`]; blocks when the target
    /// worker's queue is full (backpressure).
    pub fn push(&mut self, device: DeviceId, point: Point) {
        let buf = self.pending.entry(device).or_default();
        buf.push(point);
        if buf.len() >= self.batch_size {
            let points = std::mem::take(self.pending.get_mut(&device).expect("present"));
            self.dispatch(device, points, false);
        }
    }

    /// Feeds many points of `device`'s stream at once (bulk fast path of
    /// [`FleetPipeline::push`]: whole chunks are copied, not pushed
    /// point-by-point).
    pub fn push_points(&mut self, device: DeviceId, mut points: &[Point]) {
        loop {
            let buffered = self.pending.get(&device).map_or(0, Vec::len);
            let need = self.batch_size - buffered;
            if points.len() < need {
                if !points.is_empty() {
                    self.pending
                        .entry(device)
                        .or_default()
                        .extend_from_slice(points);
                }
                return;
            }
            let (chunk, rest) = points.split_at(need);
            // Take the buffer but keep the (now empty) entry: `finish()`
            // closes exactly the streams present in `pending`, so a stream
            // whose points land on a chunk boundary must stay registered.
            let mut batch = std::mem::take(self.pending.entry(device).or_default());
            batch.extend_from_slice(chunk);
            self.dispatch(device, batch, false);
            points = rest;
        }
    }

    /// Ends `device`'s stream: flushes its buffer, finishes the simplifier
    /// and (asynchronously) emits a [`FleetResult`].
    pub fn close(&mut self, device: DeviceId) {
        let points = self.pending.remove(&device).unwrap_or_default();
        self.dispatch(device, points, true);
    }

    /// Convenience: feeds a whole trajectory as one stream and closes it.
    pub fn submit(&mut self, device: DeviceId, trajectory: &Trajectory) {
        self.push_points(device, trajectory.points());
        self.close(device);
    }

    /// Results of streams that have already finished, without blocking.
    pub fn drain_ready(&mut self) -> Vec<FleetResult> {
        self.results.try_iter().collect()
    }

    /// Closes every still-open stream, joins the workers and returns all
    /// remaining results plus the throughput report.
    pub fn finish(mut self) -> (Vec<FleetResult>, PipelineReport) {
        let open: Vec<DeviceId> = self.pending.keys().copied().collect();
        for device in open {
            self.close(device);
        }
        // Dropping the senders ends each worker's receive loop.
        self.senders.clear();
        let mut report = PipelineReport {
            workers: self.handles.len(),
            ..PipelineReport::default()
        };
        for handle in self.handles.drain(..) {
            let outcome = handle.join().expect("pipeline worker panicked");
            // Totals are worker-derived: what was actually processed, not
            // what the producer believes it submitted.
            report.total_points += outcome.points;
            report.total_streams += outcome.streams;
            report.worker_busy.push(outcome.busy);
        }
        report.elapsed = self.started.elapsed();
        let results = self.results.iter().collect();
        (results, report)
    }
}

fn new_stream_state(algorithm: &FleetAlgorithm, epsilon: f64) -> StreamState {
    match algorithm {
        FleetAlgorithm::Streaming { factory, .. } => StreamState::Streaming {
            simplifier: factory(epsilon),
            segments: Vec::new(),
            points: 0,
        },
        FleetAlgorithm::Batch(_) => StreamState::Buffering { points: Vec::new() },
    }
}

fn finalize(
    state: StreamState,
    algorithm: &FleetAlgorithm,
    epsilon: f64,
    device: DeviceId,
) -> FleetResult {
    match state {
        StreamState::Streaming {
            mut simplifier,
            mut segments,
            points,
        } => {
            simplifier.finish(&mut segments);
            FleetResult {
                device,
                output: Ok(SimplifiedTrajectory::new(segments, points)),
                points,
            }
        }
        StreamState::Buffering { points } => {
            let n = points.len();
            let simplifier = match algorithm {
                FleetAlgorithm::Batch(s) => s,
                FleetAlgorithm::Streaming { .. } => unreachable!("buffering implies batch"),
            };
            let output = if n == 0 {
                Ok(SimplifiedTrajectory::new(Vec::new(), 0))
            } else {
                // Per-device streams are pushed in order, so the buffer is a
                // valid trajectory without re-validation.
                simplifier.simplify(&Trajectory::new_unchecked(points), epsilon)
            };
            FleetResult {
                device,
                output,
                points: n,
            }
        }
    }
}

/// Ingest counters one worker bumps as it compresses: aggregate series
/// (fleet totals) plus the same counts labelled by worker, all in the
/// process-global registry so a server scraping `/metrics` sees every
/// pipeline this process ever ran.
struct WorkerMetrics {
    points: traj_obs::Counter,
    streams: traj_obs::Counter,
    chunks: traj_obs::Counter,
    worker_points: traj_obs::Counter,
    worker_streams: traj_obs::Counter,
}

impl WorkerMetrics {
    fn register(worker_index: usize) -> Self {
        let registry = traj_obs::Registry::global();
        let worker = worker_index.to_string();
        let [points, streams, chunks] = aggregate_counters(registry);
        WorkerMetrics {
            points,
            streams,
            chunks,
            worker_points: registry.counter(
                "pipeline_worker_points_total",
                "Points compressed, by pipeline worker.",
                &[("worker", &worker)],
            ),
            worker_streams: registry.counter(
                "pipeline_worker_streams_total",
                "Streams finished, by pipeline worker.",
                &[("worker", &worker)],
            ),
        }
    }
}

/// The pipeline's fleet totals: points, streams and chunks.
fn aggregate_counters(registry: &traj_obs::Registry) -> [traj_obs::Counter; 3] {
    [
        registry.counter(
            "pipeline_points_total",
            "Points compressed through the fleet pipeline.",
            &[],
        ),
        registry.counter(
            "pipeline_streams_total",
            "Trajectory streams finished by the fleet pipeline.",
            &[],
        ),
        registry.counter(
            "pipeline_chunks_total",
            "Point chunks dispatched to pipeline workers.",
            &[],
        ),
    ]
}

/// The series of every pipeline this process ran, for a metrics scrape;
/// the fleet totals read zero if none ran yet.  Pipelines are ephemeral,
/// so their counters live in the process-wide registry, which holds
/// nothing else.
pub fn metrics_snapshot() -> traj_obs::Snapshot {
    let registry = traj_obs::Registry::global();
    aggregate_counters(registry);
    registry.snapshot()
}

fn worker_loop(
    rx: Receiver<Job>,
    results: Sender<FleetResult>,
    algorithm: FleetAlgorithm,
    epsilon: f64,
    metrics: &WorkerMetrics,
) -> WorkerOutcome {
    let mut streams: HashMap<DeviceId, StreamState> = HashMap::new();
    let mut outcome = WorkerOutcome {
        busy: Duration::ZERO,
        points: 0,
        streams: 0,
    };
    for job in rx.iter() {
        let Job::Chunk {
            device,
            points,
            close,
        } = job;
        let work_started = Instant::now();
        outcome.points += points.len();
        metrics.chunks.inc();
        metrics.points.add(points.len() as u64);
        metrics.worker_points.add(points.len() as u64);
        let state = streams
            .entry(device)
            .or_insert_with(|| new_stream_state(&algorithm, epsilon));
        match state {
            StreamState::Streaming {
                simplifier,
                segments,
                points: seen,
            } => {
                for p in points {
                    simplifier.push(p, segments);
                }
                *seen = simplifier.points_seen();
            }
            StreamState::Buffering { points: buffer } => buffer.extend(points),
        }
        if close {
            outcome.streams += 1;
            metrics.streams.inc();
            metrics.worker_streams.inc();
            let state = streams.remove(&device).expect("state just touched");
            let result = finalize(state, &algorithm, epsilon, device);
            // A disconnected collector is not an error: the caller may have
            // dropped the pipeline without finishing.
            let _ = results.send(result);
        }
        outcome.busy += work_started.elapsed();
    }
    // Channel closed with streams still open (finish() closes everything
    // first, so this only happens when the producer is dropped mid-stream):
    // flush what we have so no data is silently lost.
    for (device, state) in streams.drain() {
        outcome.streams += 1;
        metrics.streams.inc();
        metrics.worker_streams.inc();
        let _ = results.send(finalize(state, &algorithm, epsilon, device));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_model::BatchSimplifier;

    fn wave(n: usize, seed: u64) -> Trajectory {
        Trajectory::new_unchecked(
            (0..n)
                .map(|i| {
                    let t = i as f64;
                    Point::new(
                        t * 8.0 + seed as f64 * 1e4,
                        (t * 0.21 + seed as f64).sin() * 70.0,
                        t,
                    )
                })
                .collect(),
        )
    }

    fn pipeline_config(workers: usize) -> PipelineConfig {
        PipelineConfig::new(15.0)
            .with_workers(workers)
            .with_batch_size(64)
            .with_queue_capacity(8)
    }

    #[test]
    fn routing_is_sticky_and_in_range() {
        let algo = FleetAlgorithm::by_name("operb").unwrap();
        let pipe = FleetPipeline::spawn(&pipeline_config(4), &algo);
        for device in 0..1000u64 {
            let w = pipe.route(device);
            assert!(w < 4);
            assert_eq!(w, pipe.route(device));
        }
        // Dense ids must not all land on one worker.
        let mut seen = std::collections::HashSet::new();
        for device in 0..64u64 {
            seen.insert(pipe.route(device));
        }
        assert!(seen.len() >= 3, "only {} workers used", seen.len());
        let (_, _) = pipe.finish();
    }

    #[test]
    fn parallel_output_matches_batch_per_stream() {
        // Whatever the worker count or chunk size, each stream's output
        // must equal the single-threaded batch run of the same algorithm.
        let trajectories: Vec<(DeviceId, Trajectory)> = (0..20)
            .map(|i| (i as DeviceId, wave(500 + i * 37, i as u64)))
            .collect();
        for workers in [1, 4] {
            let algo = FleetAlgorithm::by_name("operb").unwrap();
            let mut pipe = FleetPipeline::spawn(&pipeline_config(workers), &algo);
            for (device, traj) in &trajectories {
                pipe.submit(*device, traj);
            }
            let (mut results, report) = pipe.finish();
            assert_eq!(results.len(), trajectories.len());
            assert_eq!(report.total_streams, trajectories.len());
            results.sort_by_key(|r| r.device);
            for ((device, traj), result) in trajectories.iter().zip(&results) {
                assert_eq!(*device, result.device);
                let expected = operb::Operb::new().simplify(traj, 15.0).unwrap();
                let got = result.output.as_ref().expect("simplification succeeds");
                assert_eq!(got, &expected, "device {device} with {workers} workers");
            }
        }
    }

    #[test]
    fn interleaved_streams_keep_per_device_order() {
        // Feed two devices alternately, one point at a time; per-device
        // output must still match the contiguous run.
        let a = wave(400, 1);
        let b = wave(400, 2);
        let algo = FleetAlgorithm::by_name("operb-a").unwrap();
        let mut pipe = FleetPipeline::spawn(&pipeline_config(2), &algo);
        for i in 0..400 {
            pipe.push(1, a.points()[i]);
            pipe.push(2, b.points()[i]);
        }
        pipe.close(1);
        pipe.close(2);
        let (mut results, _) = pipe.finish();
        results.sort_by_key(|r| r.device);
        let expect_a = operb::OperbA::new().simplify(&a, 15.0).unwrap();
        let expect_b = operb::OperbA::new().simplify(&b, 15.0).unwrap();
        assert_eq!(results[0].output.as_ref().unwrap(), &expect_a);
        assert_eq!(results[1].output.as_ref().unwrap(), &expect_b);
    }

    #[test]
    fn batch_algorithms_run_on_close() {
        let traj = wave(300, 3);
        let algo = FleetAlgorithm::by_name("dp").unwrap();
        let mut pipe = FleetPipeline::spawn(&pipeline_config(2), &algo);
        pipe.submit(9, &traj);
        let (results, _) = pipe.finish();
        assert_eq!(results.len(), 1);
        let expected = traj_baselines::DouglasPeucker::new()
            .simplify(&traj, 15.0)
            .unwrap();
        assert_eq!(results[0].output.as_ref().unwrap(), &expected);
    }

    #[test]
    fn empty_stream_yields_empty_result() {
        for name in ["operb", "dp"] {
            let algo = FleetAlgorithm::by_name(name).unwrap();
            let mut pipe = FleetPipeline::spawn(&pipeline_config(1), &algo);
            pipe.close(5);
            let (results, _) = pipe.finish();
            assert_eq!(results.len(), 1, "{name}");
            assert_eq!(results[0].points, 0);
            let out = results[0].output.as_ref().unwrap();
            assert_eq!(out.num_segments(), 0, "{name}");
        }
    }

    #[test]
    fn finish_closes_open_streams() {
        let traj = wave(100, 4);
        let algo = FleetAlgorithm::by_name("fbqs").unwrap();
        let mut pipe = FleetPipeline::spawn(&pipeline_config(2), &algo);
        pipe.push_points(7, traj.points());
        // No explicit close: finish() must flush it.
        let (results, report) = pipe.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].points, 100);
        assert_eq!(report.total_points, 100);
        assert!(report.points_per_sec() > 0.0);
    }

    #[test]
    fn chunk_boundary_stream_is_closed_by_finish() {
        // Regression: a stream whose point count is an exact multiple of
        // batch_size used to fall out of the batching layer's registry, so
        // finish() never closed it and total_streams undercounted.
        let traj = wave(128, 6); // batch_size 64 → exactly two full chunks
        let algo = FleetAlgorithm::by_name("operb").unwrap();
        let mut pipe = FleetPipeline::spawn(&pipeline_config(2), &algo);
        pipe.push_points(3, traj.points());
        let (results, report) = pipe.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(report.total_streams, 1);
        assert_eq!(report.total_points, 128);
        let expected = operb::Operb::new().simplify(&traj, 15.0).unwrap();
        assert_eq!(results[0].output.as_ref().unwrap(), &expected);
    }

    #[test]
    fn producer_drop_mid_stream_flushes_dispatched_points() {
        // When the producer side goes away without closing its streams
        // (process shutdown, dropped pipeline), the workers' receive loops
        // end and every still-open stream must be finalized and emitted —
        // no dispatched point may be silently lost.  The batching layer's
        // *undispatched* buffers are the producer's own state and die with
        // it, which is why this test pushes exact chunk multiples for the
        // streams it asserts on.
        let traj = wave(256, 8); // batch_size 64 → exactly four full chunks
        let partial = wave(100, 9); // 64 dispatched + 36 still in the buffer
        let algo = FleetAlgorithm::by_name("operb").unwrap();
        let mut pipe = FleetPipeline::spawn(&pipeline_config(2), &algo);
        pipe.push_points(1, traj.points());
        pipe.push_points(2, traj.points());
        pipe.push_points(3, partial.points());
        // Simulate the producer dropping mid-stream: tear the pipeline
        // apart without close()/finish().  Dropping the senders ends the
        // worker loops; the results channel stays alive so the flush is
        // observable.
        let FleetPipeline {
            senders,
            results,
            handles,
            pending,
            ..
        } = pipe;
        assert_eq!(pending.get(&3).map(Vec::len), Some(36));
        drop(senders);
        let mut total_worker_points = 0;
        for handle in handles {
            total_worker_points += handle.join().expect("worker must not panic").points;
        }
        assert_eq!(total_worker_points, 256 + 256 + 64);
        let mut flushed: Vec<FleetResult> = results.iter().collect();
        flushed.sort_by_key(|r| r.device);
        assert_eq!(flushed.len(), 3, "every open stream must be flushed");
        for r in &flushed[..2] {
            assert_eq!(r.points, 256, "device {}", r.device);
            let simplified = r.output.as_ref().unwrap();
            assert_eq!(simplified.original_len(), 256);
            assert_eq!(simplified.validate(), Ok(()));
        }
        assert_eq!(flushed[2].points, 64);
    }

    #[test]
    fn drain_ready_returns_completed_streams() {
        let algo = FleetAlgorithm::by_name("operb").unwrap();
        let mut pipe = FleetPipeline::spawn(&pipeline_config(2), &algo);
        let traj = wave(200, 5);
        pipe.submit(1, &traj);
        // The result arrives asynchronously; poll until it shows up.
        let mut drained = Vec::new();
        for _ in 0..500 {
            drained.extend(pipe.drain_ready());
            if !drained.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(drained.len(), 1);
        let (rest, _) = pipe.finish();
        assert!(rest.is_empty());
    }
}
