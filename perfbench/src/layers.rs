//! Calls into the layers that several workloads share: the stamped
//! pipeline pass every write workload drives, and the replays that time
//! one lower layer alone on a workload's recorded inputs.

use std::collections::HashMap;
use std::time::Instant;

use traj_geo::{BoundingBox, Point};
use traj_model::codec::DecodeArena;
use traj_model::{BatchSimplifier, SimplifiedTrajectory, Trajectory};
use traj_pipeline::{
    compress_fleet, compress_fleet_sequential, DeviceId, FleetAlgorithm, FleetPipeline,
    FleetResult, PipelineConfig, PipelineReport,
};
use traj_store::{ShardedStore, StoreConfig};

use crate::inputs::{BLOCK_SEGMENTS, SHARDS, ZETA};
use crate::report::Report;
use crate::stats::{median, Ratio, Sorted};
use crate::trace::{Recorder, Trace};

/// The shipped pipeline defaults: one worker per CPU, 256-point chunks.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig::new(ZETA)
}

pub fn operb() -> FleetAlgorithm {
    FleetAlgorithm::by_name("operb").expect("operb is a registered algorithm")
}

/// The store layout `trajsimp serve` uses.
pub fn store_config() -> StoreConfig {
    StoreConfig::default().with_block_segments(BLOCK_SEGMENTS)
}

/// Repeated trials of a replay run at least this long in total.
const REPLAY_SECONDS: f64 = 0.3;

/// One stream leaving a stamped pipeline pass.
pub struct Finished {
    pub result: FleetResult,
    /// Index of the stream in the pushed fleet.
    pub index: usize,
    /// When the benchmark called `close` on the stream.
    pub closed: Instant,
    /// When the result left `drain_ready` (or `finish`).
    pub drained: Instant,
}

/// Pushes `fleet` through a fresh [`FleetPipeline`] the way
/// `compress_fleet_with_sink` does — chunks interleaved round-robin over
/// every open stream, finished results drained after each round — and
/// hands each finished stream to `sink` with its close and drain stamps.
/// Spans carry `op_base + fleet index` as their op id.
pub fn stamped_pass(
    fleet: &[(DeviceId, Trajectory)],
    config: &PipelineConfig,
    algorithm: &FleetAlgorithm,
    rec: &mut Recorder,
    op_base: u64,
    sink: &mut dyn FnMut(Finished, &mut Recorder),
) -> PipelineReport {
    let mut pipe = rec.span("pipeline.spawn", op_base, |_| {
        FleetPipeline::spawn(config, algorithm)
    });
    let chunk = config.batch_size.max(1);
    let mut offsets = vec![0usize; fleet.len()];
    let mut closed: HashMap<DeviceId, (usize, Instant)> = HashMap::with_capacity(fleet.len());
    let deliver = |results: Vec<FleetResult>,
                   closed: &HashMap<DeviceId, (usize, Instant)>,
                   sink: &mut dyn FnMut(Finished, &mut Recorder),
                   rec: &mut Recorder| {
        let drained = Instant::now();
        for result in results {
            let (index, closed_at) = closed[&result.device];
            sink(
                Finished {
                    result,
                    index,
                    closed: closed_at,
                    drained,
                },
                rec,
            );
        }
    };
    let mut open: Vec<usize> = (0..fleet.len()).collect();
    while !open.is_empty() {
        let mut i = 0;
        while i < open.len() {
            let index = open[i];
            let (device, traj) = &fleet[index];
            let points = traj.points();
            let end = (offsets[index] + chunk).min(points.len());
            let op = op_base + index as u64;
            rec.span("pipeline.push_points", op, |_| {
                pipe.push_points(*device, &points[offsets[index]..end]);
            });
            offsets[index] = end;
            if end == points.len() {
                closed.insert(*device, (index, Instant::now()));
                rec.span("pipeline.close", op, |_| pipe.close(*device));
                open.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let ready = rec.span("pipeline.drain_ready", op_base, |_| pipe.drain_ready());
        deliver(ready, &closed, sink, rec);
    }
    let (rest, report) = rec.span("pipeline.finish", op_base, |_| pipe.finish());
    deliver(rest, &closed, sink, rec);
    report
}

/// Worker busy time over `workers × wall` across pipeline reports.
pub fn busy_share(reports: &[PipelineReport]) -> Ratio {
    reports.iter().fold(Ratio::default(), |acc, r| {
        let busy: f64 = r.worker_busy.iter().map(|d| d.as_secs_f64()).sum();
        Ratio::new(
            acc.num + busy,
            acc.den + r.workers as f64 * r.elapsed.as_secs_f64(),
        )
    })
}

/// `Operb::simplify` over `fleet` on one thread.
pub struct OperbReplay {
    pub ns_per_point: f64,
    pub segments: usize,
    pub points: usize,
    pub trials: usize,
}

pub fn operb_replay(fleet: &[(DeviceId, Trajectory)], rec: &mut Recorder) -> OperbReplay {
    let operb = operb::Operb::new();
    let points: usize = fleet.iter().map(|(_, t)| t.len()).sum();
    let mut per_point = Vec::new();
    let mut segments = 0;
    let started = Instant::now();
    while per_point.len() < 3 || started.elapsed().as_secs_f64() < REPLAY_SECONDS {
        let t = Instant::now();
        segments = 0;
        for (device, traj) in fleet {
            let out = rec.span("operb.simplify", *device, |_| {
                operb.simplify(std::hint::black_box(traj), ZETA)
            });
            segments += out.expect("ζ = 30 m is a valid bound").num_segments();
        }
        per_point.push(t.elapsed().as_nanos() as f64 / points as f64);
    }
    OperbReplay {
        ns_per_point: median(&per_point),
        segments,
        points,
        trials: per_point.len(),
    }
}

/// Sequential over parallel wall time on the same fleet, median of three
/// alternating trials each, plus the parallel runs' busy share.
pub fn pipeline_speedup(fleet: &[(DeviceId, Trajectory)]) -> (Ratio, Ratio) {
    let (config, algorithm) = (pipeline_config(), operb());
    let (mut sequential, mut parallel, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        sequential.push(
            compress_fleet_sequential(fleet, ZETA, &algorithm)
                .report
                .elapsed
                .as_secs_f64(),
        );
        let run = compress_fleet(fleet, &config, &algorithm);
        parallel.push(run.report.elapsed.as_secs_f64());
        reports.push(run.report);
    }
    (
        Ratio::new(median(&sequential), median(&parallel)),
        busy_share(&reports),
    )
}

/// Cuts each stream's segments into sealed-block batches exactly as the
/// store does before encoding.
pub fn block_batches<'a>(
    outputs: impl IntoIterator<Item = &'a SimplifiedTrajectory>,
) -> Vec<SimplifiedTrajectory> {
    let mut batches = Vec::new();
    for simplified in outputs {
        for chunk in simplified.segments().chunks(BLOCK_SEGMENTS) {
            let last = chunk.last().expect("chunks are non-empty").last_index;
            batches.push(SimplifiedTrajectory::new(chunk.to_vec(), last + 1));
        }
    }
    batches
}

/// `encode_block` and `decode_block_into` replayed on sealed batches.
pub struct CodecReplay {
    pub encode_ns_per_segment: f64,
    pub decode_ns_per_segment: f64,
    pub bytes: usize,
    pub segments: usize,
}

pub fn codec_replay(batches: &[SimplifiedTrajectory], rec: &mut Recorder) -> CodecReplay {
    let config = store_config();
    let (codec, format) = (config.codec, config.format);
    let segments: usize = batches.iter().map(SimplifiedTrajectory::num_segments).sum();
    let mut payloads = Vec::with_capacity(batches.len());
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut arena = DecodeArena::new();
    let started = Instant::now();
    while encode.len() < 3 || started.elapsed().as_secs_f64() < REPLAY_SECONDS {
        payloads.clear();
        let t = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            let bytes = rec.span("codec.encode_block", i as u64, |_| {
                codec.encode_block(format, std::hint::black_box(batch))
            });
            payloads.push(bytes.expect("fleet coordinates fit the codec"));
        }
        encode.push(t.elapsed().as_nanos() as f64 / segments as f64);
        let t = Instant::now();
        for (i, payload) in payloads.iter().enumerate() {
            rec.span("codec.decode_block_into", i as u64, |_| {
                codec
                    .decode_block_into(format, std::hint::black_box(payload), &mut arena)
                    .expect("freshly encoded blocks decode");
            });
        }
        decode.push(t.elapsed().as_nanos() as f64 / segments as f64);
    }
    CodecReplay {
        encode_ns_per_segment: median(&encode),
        decode_ns_per_segment: median(&decode),
        bytes: payloads.iter().map(Vec::len).sum(),
        segments,
    }
}

/// One stream to replay into a store: op id, device, original points and
/// its compressed output.
pub type Stream<'a> = (u64, DeviceId, &'a [Point], &'a SimplifiedTrajectory);

/// `ingest_with_original` of every stream, in order, into a fresh
/// in-memory store without a write-ahead log (`DurabilityMode::None`)
/// carrying `fences`.  Returns each call's time in µs by op id.
pub fn store_ingest_replay(
    streams: &[Stream<'_>],
    fences: &[BoundingBox],
    rec: &mut Recorder,
) -> Result<Vec<(u64, f64)>, String> {
    let store = ShardedStore::new(store_config(), SHARDS);
    for (i, region) in fences.iter().enumerate() {
        store
            .geofences()
            .register(&format!("fence-{i}"), *region, None)?;
    }
    let mut out = Vec::with_capacity(streams.len());
    for &(op, device, original, simplified) in streams {
        let t = Instant::now();
        rec.span("store.ingest_with_original", op, |_| {
            store.ingest_with_original(device, original, simplified, ZETA)
        })
        .map_err(|e| format!("replay ingest of device {device}: {e}"))?;
        out.push((op, t.elapsed().as_nanos() as f64 / 1e3));
    }
    Ok(out)
}

/// Adds the replays every workload shares: OPERB alone on `source`, the
/// codec on the sealed batches of `streams`, and store ingest of
/// `streams` without a write-ahead log.  Returns the store-ingest times by
/// op id.
pub fn record_replays(
    report: &mut Report,
    source: &[(DeviceId, Trajectory)],
    streams: &[Stream<'_>],
    fences: &[BoundingBox],
    rec: &mut Recorder,
) -> Result<Vec<(u64, f64)>, String> {
    let operb = operb_replay(source, rec);
    report.add(
        "operb.ns_per_point",
        operb.ns_per_point,
        "ns",
        format!(
            "median of {} trials over {} points",
            operb.trials, operb.points
        ),
    );
    report.ratio(
        "operb.segments_per_point",
        Ratio::new(operb.segments as f64, operb.points as f64),
        "ratio",
    );
    let batches = block_batches(streams.iter().map(|s| s.3));
    let codec = codec_replay(&batches, rec);
    let basis = format!("{} batches, {} segments", batches.len(), codec.segments);
    report.add(
        "codec.encode_ns_per_segment",
        codec.encode_ns_per_segment,
        "ns",
        &basis,
    );
    report.ratio(
        "codec.bytes_per_segment",
        Ratio::new(codec.bytes as f64, codec.segments as f64),
        "bytes",
    );
    report.add(
        "codec.decode_ns_per_segment",
        codec.decode_ns_per_segment,
        "ns",
        basis,
    );
    let ingest = store_ingest_replay(streams, fences, rec)?;
    let samples = Sorted::new(ingest.iter().map(|(_, us)| *us).collect());
    report.quantile("store.ingest_us_p50", &samples, 0.5, 1.0, "us")?;
    Ok(ingest)
}

/// Adds the pipeline metrics.  `busy` and `close_to_result_ms` come from
/// the workload's own passes where it runs the pipeline; otherwise one
/// stamped pass over `fleet` supplies them.
pub fn record_pipeline(
    report: &mut Report,
    fleet: &[(DeviceId, Trajectory)],
    own: Option<(Ratio, Vec<f64>)>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let (speedup, replay_busy) = pipeline_speedup(fleet);
    report.ratio("pipeline.speedup", speedup, "ratio");
    let (busy, latencies) = match own {
        Some(own) => own,
        None => {
            let mut latencies = Vec::new();
            stamped_pass(fleet, &pipeline_config(), &operb(), rec, 0, &mut |f, _| {
                latencies.push((f.drained - f.closed).as_secs_f64() * 1e3)
            });
            (replay_busy, latencies)
        }
    };
    report.ratio("pipeline.busy_share", busy, "fraction");
    report.quantile(
        "pipeline.close_to_result_ms_p50",
        &Sorted::new(latencies),
        0.5,
        1.0,
        "ms",
    )
}

/// Adds the tracing overhead and unattributed share, prints the span
/// tables and writes the spans to `.perfbench_out/`.
pub fn record_trace(
    report: &mut Report,
    workload: &str,
    seed: u64,
    timed: &Trace,
    replay: &Trace,
    (untraced_per_s, traced_per_s): (f64, f64),
) -> Result<(), String> {
    report.add(
        "bench.trace_overhead_share",
        untraced_per_s / traced_per_s - 1.0,
        "fraction",
        format!("untraced {untraced_per_s}/s, traced {traced_per_s}/s"),
    );
    let (unattributed, measured) = timed.unattributed();
    report.ratio(
        "bench.unattributed_share",
        Ratio::new(unattributed as f64, measured as f64),
        "fraction",
    );
    timed.print(workload, "timed");
    replay.print(workload, "replay");
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.spans.tsv"));
    std::fs::write(
        &path,
        "phase\tthread\tspan\tparent\top\tname\tstart_ns\tend_ns\n",
    )
    .and_then(|()| timed.write(&path, "timed"))
    .and_then(|()| replay.write(&path, "replay"))
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}
