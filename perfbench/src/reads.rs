//! What the two read workloads share: the store they read, direct query
//! execution with its work counts, the closed-loop callers, the latency
//! metrics and the answer checks.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use traj_data::DatasetKind;
use traj_geo::Point;
use traj_model::json::JsonValue;
use traj_model::{BatchSimplifier, SimplifiedSegment, SimplifiedTrajectory};
use traj_store::{
    compress_fleet_into_shared_store, CacheStats, DeviceMatch, KnnNeighbor, KnnStats, QueryStats,
    ShardedStore,
};

use crate::inputs::{self, Fleet, Kind, Query, KNN_K, SHARDS, ZETA};
use crate::layers::{self, Stream};
use crate::report::Report;
use crate::stats::{Ratio, Slice, Sorted, SLICES};
use crate::trace::{Recorder, Trace};
use crate::verify::{self, OriginalGrid};

/// Devices in the read workloads' store — well above the two clients.
const DEVICES: usize = 600;
const POINTS: std::ops::Range<usize> = 300..500;
/// Closed-loop callers: one per core.
pub const CLIENTS: usize = 2;
/// kNN answers compared against the brute-force reference per run.
const KNN_BRUTE_FORCE: usize = 16;

pub fn store_fleet(seed: u64) -> Fleet {
    inputs::fleet(DatasetKind::Taxi, seed, 0, DEVICES, POINTS)
}

/// Compresses `fleet` through the pipeline into an in-memory store and
/// saves it to `dir`.  Returns the stored bytes.
pub fn build_and_save(fleet: &Fleet, dir: &Path) -> Result<usize, String> {
    let store = ShardedStore::new(layers::store_config(), SHARDS);
    compress_fleet_into_shared_store(fleet, &layers::pipeline_config(), &layers::operb(), &store)?;
    store.save(dir).map_err(|e| format!("save store: {e}"))?;
    Ok(store.stats().stored_bytes)
}

/// Opens the saved store with a buffer pool of `cache_bytes` (`None`:
/// unbounded).
pub fn open(dir: &Path, cache_bytes: Option<usize>) -> Result<ShardedStore, String> {
    ShardedStore::open_with(
        dir,
        SHARDS,
        layers::store_config().with_cache_bytes(cache_bytes),
    )
    .map_err(|e| format!("open store: {e}"))
}

pub fn cache_stats(store: &ShardedStore) -> Option<CacheStats> {
    store.memory_stats().cache
}

/// A query's answer, comparable across the HTTP and direct paths.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Slice(Vec<SimplifiedSegment>),
    Window(Vec<DeviceMatch>),
    Position(Option<Point>),
    Knn(Vec<KnnNeighbor>),
}

/// Work one direct query did, as the store counts it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub query: QueryStats,
    pub knn: KnnStats,
}

pub fn execute(store: &ShardedStore, q: &Query) -> (Answer, Work) {
    let mut work = Work::default();
    let answer = match q {
        Query::Slice { device, t0, t1, .. } => {
            let slice = store.time_slice(*device, *t0, *t1);
            work.query = slice.stats;
            Answer::Slice(slice.segments)
        }
        Query::Window { window, time } => {
            let w = store.window_query(window, *time);
            work.query = w.stats;
            Answer::Window(w.matches)
        }
        Query::Position { device, t } => Answer::Position(store.position_at(*device, *t)),
        Query::Knn { points } => {
            let k = store.knn(points, KNN_K);
            work.knn = k.stats;
            Answer::Knn(k.neighbors)
        }
    };
    (answer, work)
}

/// Rebuilds an answer from the server's JSON body.
pub fn answer_from_json(kind: Kind, body: &str) -> Option<Answer> {
    let json = verify::parse_json(body)?;
    Some(match kind {
        Kind::Slice => Answer::Slice(verify::segments_from_json(json.get("segments"))?),
        Kind::Window => Answer::Window(verify::matches_from_json(json.get("matches"))?),
        Kind::Position => Answer::Position(match json.get("position")? {
            JsonValue::Null => None,
            p => Some(Point::new(
                p.get("x")?.as_f64()?,
                p.get("y")?.as_f64()?,
                p.get("t")?.as_f64()?,
            )),
        }),
        Kind::Knn => Answer::Knn(verify::neighbors_from_json(json.get("neighbors"))?),
    })
}

/// One executed query.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Sequence number; the query is `queries[id % queries.len()]`.
    pub id: usize,
    pub kind: Option<Kind>,
    pub ns: u64,
    pub ok: bool,
    pub work: Work,
    /// Response body bytes (HTTP only).
    pub bytes: usize,
    /// Kept for the post-run checks on a seeded sample of ids.
    pub body: Option<String>,
    pub answer: Option<Answer>,
    /// When the operation returned, from the start of the loop.
    pub done: Duration,
}

/// Runs `op` from [`CLIENTS`] closed-loop threads: each caller sends its
/// next operation only when the previous one returned.  Stops after
/// `seconds`, or after `count` operations when given.  `op` receives the
/// operation's sequence number.
pub fn closed_loop<F>(
    seconds: f64,
    count: Option<usize>,
    traced: bool,
    op: F,
) -> (Vec<Sample>, Duration, Trace)
where
    F: Fn(usize, &mut Recorder) -> Sample + Sync,
{
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let names = ["client-0", "client-1"];
    let per_thread: Vec<(Vec<Sample>, _)> = std::thread::scope(|scope| {
        let handles: Vec<_> = names
            .iter()
            .take(CLIENTS)
            .map(|name| {
                let (next, op) = (&next, &op);
                scope.spawn(move || {
                    let mut rec = Recorder::new(traced, origin);
                    let start = rec.now_ns();
                    let mut samples = Vec::new();
                    while origin.elapsed() < deadline {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        if count.is_some_and(|c| n >= c) {
                            break;
                        }
                        let mut sample = op(n, &mut rec);
                        sample.done = origin.elapsed();
                        samples.push(sample);
                    }
                    let end = rec.now_ns();
                    (samples, rec.finish(name, (start, end)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = origin.elapsed();
    let mut trace = Trace::default();
    let mut samples = Vec::new();
    for (s, t) in per_thread {
        samples.extend(s);
        trace.push(t);
    }
    samples.sort_by_key(|s| s.id);
    (samples, wall, trace)
}

pub fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Slice => "store.time_slice",
        Kind::Window => "store.window_query",
        Kind::Position => "store.position_at",
        Kind::Knn => "store.knn",
    }
}

/// The successful samples of `kind` (all kinds for `None`) cut into
/// [`SLICES`] equal time slices of the phase by completion time.
fn time_slices(samples: &[Sample], wall: Duration, kind: Option<Kind>) -> Vec<Slice> {
    let seconds = wall.as_secs_f64() / SLICES as f64;
    let mut slices = vec![
        Slice {
            seconds,
            ..Slice::default()
        };
        SLICES
    ];
    for s in samples
        .iter()
        .filter(|s| s.ok && (kind.is_none() || s.kind == kind))
    {
        let i = ((s.done.as_secs_f64() / seconds) as usize).min(SLICES - 1);
        slices[i].work += 1.0;
        slices[i].latencies.push(s.ns as f64 / 1e6);
    }
    slices
}

/// `query_per_s`, `query_p50_ms` and the per-type p50s as medians over
/// time slices, and `query_p99_ms` over the whole phase.
pub fn record_latencies(
    report: &mut Report,
    samples: &[Sample],
    wall: Duration,
    kinds: &[Kind],
) -> Result<(), String> {
    let all = time_slices(samples, wall, None);
    report.sliced_rate("query_per_s", &all, "queries/s");
    report.sliced_quantile("query_p50_ms", &all, 0.5, 1.0, "ms")?;
    report.pooled_quantile("query_p99_ms", &all, 0.99, "ms")?;
    for &kind in kinds {
        let name = format!("{}_p50_ms", kind.name());
        report.sliced_quantile(
            &name,
            &time_slices(samples, wall, Some(kind)),
            0.5,
            1.0,
            "ms",
        )?;
    }
    Ok(())
}

/// Direct store latency per query type and the store's work counts.
pub fn record_store_layers(report: &mut Report, samples: &[Sample]) -> Result<(), String> {
    for kind in Kind::ALL {
        let us = Sorted::new(
            samples
                .iter()
                .filter(|s| s.kind == Some(kind))
                .map(|s| s.ns as f64 / 1e3)
                .collect(),
        );
        if us.len() > 0 {
            let name = format!("store.{}_us_p50", kind.name());
            report.quantile(&name, &us, 0.5, 1.0, "us")?;
        }
    }
    let of = |kinds: &[Kind]| -> Vec<QueryStats> {
        samples
            .iter()
            .filter(|s| s.kind.is_some_and(|k| kinds.contains(&k)))
            .map(|s| s.work.query)
            .collect()
    };
    let sum = |stats: &[QueryStats], field: fn(&QueryStats) -> usize| -> f64 {
        stats.iter().map(|q| field(q) as f64).sum()
    };
    let windows = of(&[Kind::Window]);
    let scanned = of(&[Kind::Slice, Kind::Window]);
    let mut k = KnnStats::default();
    let mut knn_queries = 0.0;
    for s in samples.iter().filter(|s| s.kind == Some(Kind::Knn)) {
        k.merge(&s.work.knn);
        knn_queries += 1.0;
    }
    let in_scope = sum(&scanned, |q| q.blocks_in_scope);
    let decoded = sum(&scanned, |q| q.blocks_decoded);
    report.ratio(
        "index.blocks_in_scope_per_window",
        Ratio::new(sum(&windows, |q| q.blocks_in_scope), windows.len() as f64),
        "count",
    );
    report.ratio(
        "store.blocks_decoded_per_query",
        Ratio::new(
            decoded + k.blocks_decoded as f64,
            scanned.len() as f64 + knn_queries,
        ),
        "count",
    );
    report.ratio(
        "store.skip_ratio",
        Ratio::new(in_scope - decoded, in_scope),
        "fraction",
    );
    report.ratio(
        "store.segments_returned_per_query",
        Ratio::new(sum(&scanned, |q| q.segments_returned), scanned.len() as f64),
        "count",
    );
    report.ratio(
        "knn.device_prune_ratio",
        Ratio::new(k.devices_pruned as f64, k.devices_total as f64),
        "fraction",
    );
    report.ratio(
        "knn.block_prune_ratio",
        Ratio::new(
            (k.blocks_total - k.blocks_decoded) as f64,
            k.blocks_total as f64,
        ),
        "fraction",
    );
    Ok(())
}

/// Buffer-pool deltas over `queries` queries.
pub fn record_pager(report: &mut Report, before: CacheStats, after: CacheStats, queries: usize) {
    let (hits, misses) = (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
    );
    report.ratio(
        "pager.hit_ratio",
        Ratio::new(hits, hits + misses),
        "fraction",
    );
    report.ratio(
        "pager.misses_per_query",
        Ratio::new(misses, queries as f64),
        "count",
    );
    report.ratio(
        "pager.evictions_per_query",
        Ratio::new((after.evictions - before.evictions) as f64, queries as f64),
        "count",
    );
}

/// The replays both read workloads add: OPERB, codec and store ingest on
/// the store's own fleet, and one stamped pipeline pass over it.
pub fn record_fleet_replays(
    report: &mut Report,
    fleet: &Fleet,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut outputs =
        traj_pipeline::compress_fleet_sequential(fleet, ZETA, &layers::operb()).results;
    outputs.sort_by_key(|r| r.device);
    let streams: Vec<Stream<'_>> = fleet
        .iter()
        .zip(&outputs)
        .filter_map(|((device, traj), r)| {
            Some((*device, *device, traj.points(), r.output.as_ref().ok()?))
        })
        .collect();
    layers::record_replays(report, fleet, &streams, &[], rec)?;
    layers::record_pipeline(report, fleet, None, rec)
}

/// Checks answers against the originals and the kNN reference.
///
/// Slice and window answers are held to what the store promises about its
/// input: every original within ζ + quantisation slack of the answer.  An
/// original that OPERB's own output already leaves beyond ζ (a simplifier
/// defect, which `compress` checks on its own fleet) is held to its
/// distance from that output plus the slack instead, and noted.
pub struct Checker<'a> {
    fleet: &'a Fleet,
    grid: OriginalGrid,
    slack: f64,
    brute_forced: usize,
    /// OPERB's output by fleet index, computed for outliers only.
    simplified: HashMap<usize, SimplifiedTrajectory>,
    pub notes: BTreeSet<String>,
}

impl<'a> Checker<'a> {
    pub fn new(fleet: &'a Fleet, store: &ShardedStore) -> Self {
        Checker {
            fleet,
            grid: OriginalGrid::new(fleet),
            slack: store.config().codec.spatial_slack(),
            brute_forced: 0,
            simplified: HashMap::new(),
            notes: BTreeSet::new(),
        }
    }

    fn judge(&mut self, outliers: Vec<verify::Outlier>, what: &str) -> Result<(), String> {
        for (index, p, distance) in outliers {
            let (device, traj) = &self.fleet[index];
            let simplified = self.simplified.entry(index).or_insert_with(|| {
                operb::Operb::new()
                    .simplify(traj, ZETA)
                    .expect("ζ = 30 m is a valid bound")
            });
            let own = verify::nearest(simplified.segments(), &p);
            if distance > own.max(ZETA) + self.slack {
                return Err(format!(
                    "{what}: device {device} original at t={} is {distance:.2} m from the answer \
                     (bound {:.2})",
                    p.t,
                    own.max(ZETA) + self.slack
                ));
            }
            self.notes.insert(format!(
                "device {device}: OPERB's output is {own:.2} m from the original at t={}, beyond ζ = {ZETA} m",
                p.t
            ));
        }
        Ok(())
    }

    /// Slice and window answers stay within ζ + slack of the originals;
    /// positions inside a device's coverage exist; the first few kNN
    /// answers equal brute force on `store`.
    pub fn check(
        &mut self,
        store: &ShardedStore,
        q: &Query,
        answer: &Answer,
    ) -> Result<(), String> {
        let bound = ZETA + self.slack;
        match (q, answer) {
            (Query::Slice { index, t0, t1, .. }, Answer::Slice(segments)) => {
                let outliers =
                    verify::slice_outliers(self.fleet, *index, (*t0, *t1), segments, bound);
                self.judge(outliers, &q.path())
            }
            (Query::Window { window, time }, Answer::Window(matches)) => {
                let outliers =
                    verify::window_outliers(&self.grid, self.fleet, window, *time, matches, bound);
                self.judge(outliers, &q.path())
            }
            (Query::Position { device, t }, Answer::Position(p)) => match p {
                Some(_) => Ok(()),
                None => Err(format!("no position for device {device} at interior t={t}")),
            },
            (Query::Knn { points }, Answer::Knn(neighbors)) => {
                if self.brute_forced >= KNN_BRUTE_FORCE {
                    return Ok(());
                }
                self.brute_forced += 1;
                let reference = store.knn_bruteforce(points, KNN_K);
                if *neighbors == reference.neighbors {
                    Ok(())
                } else {
                    Err(format!(
                        "kNN {points:?}: {neighbors:?}, brute force {:?}",
                        reference.neighbors
                    ))
                }
            }
            _ => Err(format!("answer of the wrong type for {q:?}")),
        }
    }
}

/// Query ids below this are the ones whose answers may be checked: every
/// run executes them, so the checked set (and the memory it holds) is
/// the same for a given seed however fast the run goes.
const CHECKED_IDS: usize = 4000;

/// Whether a sample's answer should be kept for the post-run checks.
pub fn sampled(id: usize, every: usize) -> bool {
    id < CHECKED_IDS && id.is_multiple_of(every)
}

/// `(sequence number, µs)` of every successful sample — the pairing key
/// of HTTP-minus-direct differences.
pub fn latency_us_by_id(samples: &[Sample]) -> Vec<(u64, f64)> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.id as u64, s.ns as f64 / 1e3))
        .collect()
}
