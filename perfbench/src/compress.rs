//! `compress`: a mixed fleet pushed device-interleaved through the fleet
//! pipeline, with no store.  The only workload where OPERB and the
//! pipeline do most of the work.

use std::time::{Duration, Instant};

use traj_data::DatasetKind;
use traj_pipeline::fleet::verify_error_bound;
use traj_pipeline::{FleetResult, PipelineReport};

use crate::inputs::{self, Fleet, ZETA};
use crate::layers::{self, Stream};
use crate::stats::{self, Ratio, Slice};
use crate::trace::{Recorder, Trace};
use crate::{Args, Outcome};

/// Devices per dataset profile; the fleet holds all four profiles.
const DEVICES_PER_KIND: usize = 100;
/// Points per device, drawn uniformly, so streams close at different
/// rounds of the interleaved push.
const POINTS: std::ops::Range<usize> = 200..1000;

fn setup(seed: u64) -> Fleet {
    let mut fleet = Vec::new();
    for (k, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let first = (k * DEVICES_PER_KIND) as u64;
        fleet.extend(inputs::fleet(kind, seed, first, DEVICES_PER_KIND, POINTS));
    }
    // Warm-up: one untimed pass.
    let mut rec = Recorder::new(false, Instant::now());
    layers::stamped_pass(
        &fleet,
        &layers::pipeline_config(),
        &layers::operb(),
        &mut rec,
        0,
        &mut |_, _| {},
    );
    fleet
}

struct Timed {
    points: u64,
    streams: u64,
    failed: u64,
    passes: u64,
    wall: Duration,
    /// One unit per pass: its wall time, points and stream latencies (ms).
    units: Vec<Slice>,
    reports: Vec<PipelineReport>,
    /// The first pass's results, sorted by device; every later pass must
    /// reproduce them exactly.
    reference: Vec<FleetResult>,
    mismatched_passes: u64,
    trace: Trace,
}

impl Timed {
    fn points_per_s(&self) -> f64 {
        self.points as f64 / self.wall.as_secs_f64()
    }
}

fn timed(fleet: &Fleet, seconds: f64, traced: bool) -> Timed {
    let (config, algorithm) = (layers::pipeline_config(), layers::operb());
    let points: u64 = fleet.iter().map(|(_, t)| t.len() as u64).sum();
    let mut rec = Recorder::new(traced, Instant::now());
    let window_start = rec.now_ns();
    let mut out = Timed {
        points: 0,
        streams: 0,
        failed: 0,
        passes: 0,
        wall: Duration::ZERO,
        units: Vec::new(),
        reports: Vec::new(),
        reference: Vec::new(),
        mismatched_passes: 0,
        trace: Trace::default(),
    };
    while out.wall.as_secs_f64() < seconds {
        let mut results = Vec::with_capacity(fleet.len());
        let mut latency_ms = Vec::with_capacity(fleet.len());
        let started = Instant::now();
        let report = layers::stamped_pass(
            fleet,
            &config,
            &algorithm,
            &mut rec,
            out.passes << 32,
            &mut |f, _| {
                latency_ms.push((f.drained - f.closed).as_secs_f64() * 1e3);
                results.push(f.result);
            },
        );
        let wall = started.elapsed();
        out.wall += wall;
        out.units.push(Slice {
            seconds: wall.as_secs_f64(),
            work: points as f64,
            latencies: latency_ms,
        });
        out.points += points;
        out.streams += results.len() as u64;
        out.failed += results.iter().filter(|r| r.output.is_err()).count() as u64;
        out.reports.push(report);
        out.passes += 1;
        rec.span("bench.compare_pass", out.passes, |_| {
            results.sort_by_key(|r| r.device);
            if out.reference.is_empty() {
                out.reference = results;
            } else if !same_outputs(&out.reference, &results) {
                out.mismatched_passes += 1;
            }
        });
    }
    let window_end = rec.now_ns();
    out.trace
        .push(rec.finish("main", (window_start, window_end)));
    out
}

fn same_outputs(a: &[FleetResult], b: &[FleetResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.device == y.device && x.output == y.output)
}

fn check(fleet: &Fleet, t: &mut Timed, out: &mut Outcome) {
    if t.mismatched_passes > 0 {
        out.violations.push(format!(
            "{} of {} passes differ from the first pass's output",
            t.mismatched_passes, t.passes
        ));
    }
    if let Err(e) = verify_error_bound(fleet, &mut t.reference, ZETA) {
        out.violations.push(format!("compress: {e}"));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (fleet, setup_s) = crate::repeat_setup(args, |_| Ok(setup(args.seed)))?;
    let fleet_points: usize = fleet.iter().map(|(_, t)| t.len()).sum();

    let mut t = timed(&fleet, crate::phase_seconds(args), false);
    out.attempted = t.streams;
    out.failed = t.failed;
    let slices = stats::group(&t.units);
    out.e2e
        .sliced_rate("compress_points_per_s", &slices, "points/s");
    out.e2e
        .sliced_quantile("compress_stream_p50_ms", &slices, 0.5, 1.0, "ms")?;
    out.e2e
        .pooled_quantile("compress_stream_p99_ms", &slices, 0.99, "ms")?;
    out.common(&setup_s)?;
    check(&fleet, &mut t, &mut out);
    let segments: usize = t
        .reference
        .iter()
        .filter_map(|r| r.output.as_ref().ok())
        .map(|s| s.num_segments())
        .sum();
    out.e2e.ratio(
        "segments_per_point",
        Ratio::new(segments as f64, fleet_points as f64),
        "ratio",
    );

    if args.trace {
        let mut traced = timed(&fleet, crate::phase_seconds(args), true);
        check(&fleet, &mut traced, &mut out);
        let mut rec = Recorder::new(true, Instant::now());
        let outputs: Vec<Stream<'_>> = fleet
            .iter()
            .zip(&t.reference)
            .filter_map(|((device, traj), r)| {
                let simplified = r.output.as_ref().ok()?;
                Some((*device, *device, traj.points(), simplified))
            })
            .collect();
        let layers_report = &mut out.layers;
        layers::record_replays(layers_report, &fleet, &outputs, &[], &mut rec)?;
        let latencies = traced
            .units
            .iter()
            .flat_map(|u| u.latencies.iter().copied());
        let own = (layers::busy_share(&traced.reports), latencies.collect());
        layers::record_pipeline(layers_report, &fleet, Some(own), &mut rec)?;
        let replay_end = rec.now_ns();
        let mut replay = Trace::default();
        replay.push(rec.finish("main", (0, replay_end)));
        layers::record_trace(
            layers_report,
            "compress",
            args.seed,
            &traced.trace,
            &replay,
            (t.points_per_s(), traced.points_per_s()),
        )?;
    }
    Ok(out)
}
