//! `scan_cold`: the read workloads' store shape, saved once and reopened
//! with a buffer pool a tenth of the stored bytes.  Two reader threads call
//! the store directly with full-range time slices, large time-bounded
//! windows and kNN probes, so pager misses, file reads and decode dominate
//! while HTTP and the write path are absent.

use std::time::{Duration, Instant};

use traj_store::ShardedStore;

use crate::inputs::{self, Fleet, Kind, Query};
use crate::reads::{self, Checker, Sample};
use crate::stats::{Ratio, Sorted};
use crate::sys::Scratch;
use crate::trace::{Recorder, Trace};
use crate::{layers, Args, Outcome};

const QUERIES: usize = 20_000;
/// Every n-th answer is kept and checked after the run.
const VERIFY_EVERY: usize = 16;
/// Buffer pool capacity as a fraction of the stored bytes.
const CACHE_DIVISOR: usize = 10;
const WARM_UP_QUERIES: usize = 300;

struct Setup {
    scratch: Scratch,
    fleet: Fleet,
    store: ShardedStore,
    queries: Vec<Query>,
}

impl Setup {
    fn new(seed: u64, rep: usize) -> Result<Setup, String> {
        let scratch = Scratch::new(&format!("scan_cold-{rep}"))?;
        let fleet = reads::store_fleet(seed);
        let stored = reads::build_and_save(&fleet, scratch.path())?;
        let store = reads::open(scratch.path(), Some(stored / CACHE_DIVISOR))?;
        let queries = inputs::cold_queries(&fleet, seed, QUERIES);
        // Bring the pool to its steady state.
        for q in &queries[QUERIES - WARM_UP_QUERIES..] {
            reads::execute(&store, q);
        }
        Ok(Setup {
            scratch,
            fleet,
            store,
            queries,
        })
    }

    fn query(&self, id: usize) -> &Query {
        &self.queries[id % self.queries.len()]
    }

    /// Runs the query list against `store` from the closed-loop readers:
    /// for `seconds`, or over exactly `ids` when given.
    fn run_on(
        &self,
        store: &ShardedStore,
        seconds: f64,
        ids: Option<&[usize]>,
        traced: bool,
    ) -> (Vec<Sample>, Duration, Trace) {
        reads::closed_loop(seconds, ids.map(<[usize]>::len), traced, |n, rec| {
            let id = ids.map_or(n, |ids| ids[n]);
            let q = self.query(id);
            let started = Instant::now();
            let (answer, work) = rec.span(reads::span_name(q.kind()), id as u64, |_| {
                reads::execute(store, q)
            });
            Sample {
                id,
                kind: Some(q.kind()),
                ns: started.elapsed().as_nanos() as u64,
                ok: true,
                work,
                answer: reads::sampled(id, VERIFY_EVERY).then_some(answer),
                ..Sample::default()
            }
        })
    }

    /// Kept answers equal a fully cached open of the same directory and
    /// pass the error-bound and kNN checks.
    fn verify(&self, reference: &ShardedStore, samples: &[Sample], out: &mut Outcome) {
        let mut checker = Checker::new(&self.fleet, &self.store);
        for s in samples {
            let Some(answer) = &s.answer else { continue };
            let q = self.query(s.id);
            if reads::execute(reference, q).0 != *answer {
                out.violations.push(format!(
                    "{}: answer under a bounded pool differs from the cached one",
                    q.path()
                ));
            }
            if let Err(e) = checker.check(&self.store, q, answer) {
                out.violations.push(e);
            }
        }
        out.notes.extend(checker.notes);
    }
}

const KINDS: [Kind; 3] = [Kind::Slice, Kind::Window, Kind::Knn];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, setup_s) = crate::repeat_setup(args, |rep| Setup::new(args.seed, rep))?;

    let (samples, wall, _) = setup.run_on(&setup.store, crate::phase_seconds(args), None, false);
    out.attempted += samples.len() as u64;
    reads::record_latencies(&mut out.e2e, &samples, wall, &KINDS)?;
    out.common(&setup_s)?;
    let reference = reads::open(setup.scratch.path(), None)?;
    setup.verify(&reference, &samples, &mut out);

    if args.trace {
        let before = reads::cache_stats(&setup.store).ok_or("opened store has no pager")?;
        let (traced, traced_wall, trace) =
            setup.run_on(&setup.store, crate::phase_seconds(args), None, true);
        let after = reads::cache_stats(&setup.store).ok_or("opened store has no pager")?;
        out.attempted += traced.len() as u64;
        setup.verify(&reference, &traced, &mut out);
        let report = &mut out.layers;
        reads::record_pager(report, before, after, traced.len());
        reads::record_store_layers(report, &traced)?;

        // The same queries on a warm, unbounded pool: what is left of the
        // cold median once no read misses.
        let ids: Vec<usize> = traced.iter().map(|s| s.id).collect();
        const UNTIMED: f64 = 1e9;
        setup.run_on(&reference, UNTIMED, Some(&ids), false);
        let (warm, _, _) = setup.run_on(&reference, UNTIMED, Some(&ids), false);
        let p50 = |s: &[Sample]| -> Result<f64, String> {
            let ms = Sorted::new(s.iter().map(|s| s.ns as f64).collect());
            Ok(ms.quantile(0.5)?.value)
        };
        let (cold_p50, warm_p50) = (p50(&traced)?, p50(&warm)?);
        report.ratio(
            "pager.share_of_query",
            Ratio::new(cold_p50 - warm_p50, cold_p50),
            "fraction",
        );

        let mut rec = Recorder::new(true, Instant::now());
        reads::record_fleet_replays(report, &setup.fleet, &mut rec)?;
        let replay_end = rec.now_ns();
        let mut replay = Trace::default();
        replay.push(rec.finish("main", (0, replay_end)));
        let rate = |n: usize, w: Duration| n as f64 / w.as_secs_f64();
        layers::record_trace(
            report,
            "scan_cold",
            args.seed,
            &trace,
            &replay,
            (rate(samples.len(), wall), rate(traced.len(), traced_wall)),
        )?;
    }
    Ok(out)
}
