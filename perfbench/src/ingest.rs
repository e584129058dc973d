//! `ingest`: a Taxi fleet fed as time-shifted waves into a durable sharded
//! store with standing geofences — the write path of `trajsimp serve
//! --live` (encode, index insert, WAL append and fsync, geofence
//! evaluation).  No payload is decoded.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use traj_data::DatasetKind;
use traj_geo::BoundingBox;
use traj_model::SimplifiedTrajectory;
use traj_pipeline::{DeviceId, PipelineReport};
use traj_store::{DurabilityMode, ShardedStore, StoreConfig, Subscription};

use crate::inputs::{self, Fleet, SHARDS, ZETA};
use crate::layers::{self, Stream};
use crate::stats::{self, paired_differences, Ratio, Slice, Sorted};
use crate::sys::Scratch;
use crate::trace::{Recorder, Trace};
use crate::{Args, Outcome};

const DEVICES: usize = 128;
const POINTS: std::ops::Range<usize> = 100..200;
const FENCES: usize = 16;
/// `trajsimp serve`'s default flush policy: group commit every 2 ms.
const GROUP_COMMIT: Duration = Duration::from_millis(2);
/// Waves prepared per second of measurement; a wave of this fleet takes
/// about 0.3 s, so the timed phase ends on time, not on running out.
const WAVES_PER_SECOND: f64 = 4.5;

fn store_config() -> StoreConfig {
    layers::store_config().with_durability(DurabilityMode::WalGroupCommit(GROUP_COMMIT))
}

/// One acknowledged stream.
#[derive(Debug, Clone, Copy)]
struct Ack {
    wave: usize,
    device: DeviceId,
    points: usize,
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    wall: Duration,
    points: u64,
    attempted: u64,
    failed: u64,
    /// One unit per wave: its wall time, points acked and ack latencies (ms).
    units: Vec<Slice>,
    pipeline_ms: Vec<f64>,
    /// Durable `ingest_with_original` time by op id, µs.
    ingest_us: Vec<(u64, f64)>,
    reports: Vec<PipelineReport>,
    /// `(op, wave, fleet index, output)` of every acked stream (traced
    /// phase only), for the lower-layer replays.
    outputs: Vec<(u64, usize, usize, SimplifiedTrajectory)>,
}

struct Setup {
    scratch: Scratch,
    base: Fleet,
    span: f64,
    waves: Vec<Fleet>,
    fences: Vec<BoundingBox>,
    store: ShardedStore,
    subscription: Subscription,
    next_wave: usize,
    acks: Vec<Ack>,
    alerts: HashSet<(u64, DeviceId, usize)>,
    duplicate_alerts: u64,
    first_error: Option<String>,
}

impl Setup {
    fn new(seed: u64, rep: usize, waves: usize) -> Result<Setup, String> {
        let scratch = Scratch::new(&format!("ingest-{rep}"))?;
        let base = inputs::fleet(DatasetKind::Taxi, seed, 0, DEVICES, POINTS);
        let span = base.iter().map(|(_, t)| t.last().t).fold(0.0f64, f64::max) + 60.0;
        let waves = (0..waves)
            .map(|k| inputs::shifted(&base, k as f64 * span))
            .collect();
        let fences = inputs::fences(&base, seed, FENCES);
        let (store, _) = ShardedStore::open_durable(scratch.path(), SHARDS, store_config())
            .map_err(|e| format!("open durable store: {e}"))?;
        for (i, region) in fences.iter().enumerate() {
            store
                .geofences()
                .register(&format!("fence-{i}"), *region, None)?;
        }
        let subscription = store.geofences().subscribe(1 << 20, None);
        let mut setup = Setup {
            scratch,
            base,
            span,
            waves,
            fences,
            store,
            subscription,
            next_wave: 0,
            acks: Vec::new(),
            alerts: HashSet::new(),
            duplicate_alerts: 0,
            first_error: None,
        };
        // Warm-up: the first wave, untimed.
        let mut rec = Recorder::new(false, Instant::now());
        setup.wave(&mut Phase::default(), &mut rec, false);
        Ok(setup)
    }

    /// Pushes the next wave through the pipeline, acknowledging every
    /// stream with a durable ingest, then collects the alerts it fired.
    fn wave(&mut self, phase: &mut Phase, rec: &mut Recorder, keep_outputs: bool) {
        let k = self.next_wave;
        self.next_wave += 1;
        let wave = &self.waves[k];
        let store = &self.store;
        let (acks, first_error) = (&mut self.acks, &mut self.first_error);
        let mut unit = Slice::default();
        let started = Instant::now();
        let report = layers::stamped_pass(
            wave,
            &layers::pipeline_config(),
            &layers::operb(),
            rec,
            (k as u64) << 32,
            &mut |f, rec| {
                let (device, traj) = &wave[f.index];
                let op = ((k as u64) << 32) | f.index as u64;
                phase.attempted += 1;
                let simplified = match f.result.output {
                    Ok(s) => s,
                    Err(e) => {
                        phase.failed += 1;
                        first_error.get_or_insert(format!("device {device}: {e}"));
                        return;
                    }
                };
                let called = Instant::now();
                let acked = rec.span("store.ingest_with_original", op, |_| {
                    store.ingest_with_original(*device, traj.points(), &simplified, ZETA)
                });
                let done = Instant::now();
                if let Err(e) = acked {
                    phase.failed += 1;
                    first_error.get_or_insert(format!("device {device}: {e}"));
                    return;
                }
                acks.push(Ack {
                    wave: k,
                    device: *device,
                    points: traj.len(),
                });
                phase.points += traj.len() as u64;
                unit.work += traj.len() as f64;
                unit.latencies.push((done - f.closed).as_secs_f64() * 1e3);
                phase
                    .pipeline_ms
                    .push((f.drained - f.closed).as_secs_f64() * 1e3);
                phase
                    .ingest_us
                    .push((op, (done - called).as_secs_f64() * 1e6));
                if keep_outputs {
                    phase.outputs.push((op, k, f.index, simplified));
                }
            },
        );
        let wall = started.elapsed();
        phase.wall += wall;
        unit.seconds = wall.as_secs_f64();
        phase.units.push(unit);
        phase.reports.push(report);
        self.collect_alerts();
    }

    fn collect_alerts(&mut self) {
        for alert in self.subscription.poll(usize::MAX) {
            if !self
                .alerts
                .insert((alert.fence_id, alert.device, alert.block))
            {
                self.duplicate_alerts += 1;
            }
        }
    }

    fn timed(&mut self, seconds: f64, traced: bool) -> (Phase, Trace) {
        let mut phase = Phase::default();
        let mut rec = Recorder::new(traced, Instant::now());
        let window_start = rec.now_ns();
        while phase.wall.as_secs_f64() < seconds && self.next_wave < self.waves.len() {
            self.wave(&mut phase, &mut rec, traced);
        }
        let window_end = rec.now_ns();
        let mut trace = Trace::default();
        trace.push(rec.finish("main", (window_start, window_end)));
        (phase, trace)
    }

    /// Closes the store, reopens the directory and checks that every
    /// acknowledged stream is present exactly once and that the alerts
    /// fired equal the set recomputed from the reopened block metadata.
    fn verify(self, out: &mut Outcome) -> Result<(), String> {
        let Setup {
            scratch,
            span,
            store,
            subscription,
            acks,
            alerts,
            duplicate_alerts,
            first_error,
            ..
        } = self;
        if let Some(e) = first_error {
            out.violations.push(format!("ingest failed: {e}"));
        }
        if duplicate_alerts > 0 {
            out.violations
                .push(format!("{duplicate_alerts} geofence alerts fired twice"));
        }
        drop(subscription);
        drop(store);
        let (store, _) = ShardedStore::open_durable(scratch.path(), SHARDS, store_config())
            .map_err(|e| format!("reopen durable store: {e}"))?;
        let acked_points: usize = acks.iter().map(|a| a.points).sum();
        if store.stats().points != acked_points {
            out.violations.push(format!(
                "reopened store holds {} points, {acked_points} were acknowledged",
                store.stats().points
            ));
        }
        let mut expected: BTreeMap<DeviceId, BTreeMap<usize, usize>> = BTreeMap::new();
        for a in &acks {
            if expected
                .entry(a.device)
                .or_default()
                .insert(a.wave, a.points)
                .is_some()
            {
                out.violations.push(format!(
                    "device {} wave {} acknowledged twice",
                    a.device, a.wave
                ));
            }
        }
        let mut recomputed = HashSet::new();
        let fences = store.geofences().fences();
        let devices = store.devices();
        for device in &devices {
            let metas = store.block_metas(*device);
            let mut by_wave: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
            for (ordinal, meta) in metas.iter().enumerate() {
                let wave = (meta.t_min / span).floor() as usize;
                by_wave
                    .entry(wave)
                    .or_default()
                    .push((meta.first_index, meta.last_index));
                for fence in &fences {
                    let in_time = fence.time.is_none_or(|(t0, t1)| meta.overlaps_time(t0, t1));
                    if in_time && meta.may_intersect_window(&fence.region) {
                        recomputed.insert((fence.id, *device, ordinal));
                    }
                }
            }
            let want = expected.remove(device).unwrap_or_default();
            if !want.keys().eq(by_wave.keys()) {
                out.violations.push(format!(
                    "device {device}: waves stored {:?}, acknowledged {:?}",
                    by_wave.keys().collect::<Vec<_>>(),
                    want.keys().collect::<Vec<_>>()
                ));
                continue;
            }
            for (wave, blocks) in &by_wave {
                if !covers_once(blocks, want[wave]) {
                    out.violations.push(format!(
                        "device {device} wave {wave}: blocks {blocks:?} do not cover {} points exactly once",
                        want[wave]
                    ));
                }
            }
        }
        if let Some((device, _)) = expected.into_iter().next() {
            out.violations.push(format!(
                "acknowledged device {device} is missing after reopen"
            ));
        }
        if recomputed != alerts {
            out.violations.push(format!(
                "{} alerts fired, {} recomputed from block metadata ({} in common)",
                alerts.len(),
                recomputed.len(),
                alerts.intersection(&recomputed).count()
            ));
        }
        let refired = store.geofences().stats().alerts_fired;
        if refired > 0 {
            out.violations
                .push(format!("reopen fired {refired} alerts again"));
        }
        Ok(())
    }
}

/// Whether one stream's blocks, in log order, cover points `0..n` once:
/// each block starts after the previous block's start (a second copy of
/// the stream would restart at 0) and leaves no gap.  Blocks may share
/// boundary points, since OPERB attributes a break point to both sides.
fn covers_once(blocks: &[(usize, usize)], n: usize) -> bool {
    let chained = blocks
        .windows(2)
        .all(|w| w[1].0 > w[0].0 && w[1].0 <= w[0].1 + 1);
    chained && blocks.first().map(|b| b.0) == Some(0) && blocks.last().map(|b| b.1 + 1) == Some(n)
}

fn record_phase(out: &mut Outcome, phase: &Phase) -> Result<(), String> {
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    let slices = stats::group(&phase.units);
    out.e2e
        .sliced_rate("ingest_points_per_s", &slices, "points/s");
    out.e2e
        .sliced_quantile("ingest_ack_p50_ms", &slices, 0.5, 1.0, "ms")?;
    out.e2e
        .pooled_quantile("ingest_ack_p99_ms", &slices, 0.99, "ms")
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The warm-up wave, and one wave past its end for each timed phase.
    let waves = (args.seconds * WAVES_PER_SECOND).ceil() as usize + 3;
    let (mut setup, setup_s) = crate::repeat_setup(args, |rep| Setup::new(args.seed, rep, waves))?;

    let (untraced, _) = setup.timed(crate::phase_seconds(args), false);
    record_phase(&mut out, &untraced)?;
    out.common(&setup_s)?;
    let stats = setup.store.stats();
    out.e2e.ratio(
        "bytes_per_point",
        Ratio::new(stats.stored_bytes as f64, stats.points as f64),
        "bytes",
    );

    if args.trace {
        let wal_before = setup
            .store
            .wal_stats()
            .ok_or("durable store without a WAL")?;
        let fence_before = setup.store.geofences().stats();
        let (traced, trace) = setup.timed(crate::phase_seconds(args), true);
        let wal_after = setup
            .store
            .wal_stats()
            .ok_or("durable store without a WAL")?;
        let fence_after = setup.store.geofences().stats();
        let ingests = (wal_after.ingests_appended - wal_before.ingests_appended) as f64;
        let layers_report = &mut out.layers;
        layers_report.ratio(
            "wal.syncs_per_ingest",
            Ratio::new((wal_after.syncs - wal_before.syncs) as f64, ingests),
            "ratio",
        );
        layers_report.ratio(
            "wal.bytes_per_point",
            Ratio::new(
                (wal_after.wal_bytes - wal_before.wal_bytes) as f64,
                traced.points as f64,
            ),
            "bytes",
        );
        let checked = (fence_after.blocks_checked - fence_before.blocks_checked) as f64;
        layers_report.ratio(
            "geofence.blocks_checked_per_ingest",
            Ratio::new(checked, ingests),
            "ratio",
        );
        layers_report.ratio(
            "geofence.skip_ratio",
            Ratio::new(
                (fence_after.blocks_skipped - fence_before.blocks_skipped) as f64,
                checked,
            ),
            "fraction",
        );

        let mut rec = Recorder::new(true, Instant::now());
        let streams: Vec<Stream<'_>> = traced
            .outputs
            .iter()
            .map(|(op, wave, index, simplified)| {
                let (device, traj) = &setup.waves[*wave][*index];
                (*op, *device, traj.points(), simplified)
            })
            .collect();
        let none_us = layers::record_replays(
            layers_report,
            &setup.base,
            &streams,
            &setup.fences,
            &mut rec,
        )?;
        let overhead = Sorted::new(paired_differences(&traced.ingest_us, &none_us));
        layers_report.quantile("wal.ack_overhead_us_p50", &overhead, 0.5, 1.0, "us")?;
        let own = (
            layers::busy_share(&traced.reports),
            traced.pipeline_ms.clone(),
        );
        layers::record_pipeline(layers_report, &setup.base, Some(own), &mut rec)?;
        let replay_end = rec.now_ns();
        let mut replay = Trace::default();
        replay.push(rec.finish("main", (0, replay_end)));
        let rate = |p: &Phase| p.points as f64 / p.wall.as_secs_f64();
        layers::record_trace(
            layers_report,
            "ingest",
            args.seed,
            &trace,
            &replay,
            (rate(&untraced), rate(&traced)),
        )?;
        out.attempted += traced.attempted;
        out.failed += traced.failed;
    }
    setup.verify(&mut out)?;
    Ok(out)
}
