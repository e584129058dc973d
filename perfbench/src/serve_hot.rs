//! `serve_hot`: a fully resident Taxi store served over loopback HTTP by
//! an in-process server, driven by two closed-loop clients sending the
//! seeded read mix.  HTTP parsing, connection-per-request, JSON encoding,
//! the index and decode dominate; the pager only hits.

use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_service::{client, Server, ServerStats, ServiceConfig};
use traj_store::ShardedStore;

use crate::inputs::{self, Fleet, Kind, Query};
use crate::reads::{self, Checker, Sample};
use crate::stats::{paired_differences, Ratio, Sorted};
use crate::sys::Scratch;
use crate::trace::Recorder;
use crate::{layers, Args, Outcome};

/// Queries prepared per run; the clients cycle through them.
const QUERIES: usize = 60_000;
/// Every n-th query's response is kept and checked after the run.
const VERIFY_EVERY: usize = 8;
/// A stalled server ends the run instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
const WARM_UP_REQUESTS: usize = 1000;

struct Setup {
    _scratch: Scratch,
    fleet: Fleet,
    store: Arc<ShardedStore>,
    server: Option<Server>,
    queries: Vec<Query>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl Setup {
    fn new(seed: u64, rep: usize) -> Result<Setup, String> {
        let scratch = Scratch::new(&format!("serve_hot-{rep}"))?;
        let fleet = reads::store_fleet(seed);
        reads::build_and_save(&fleet, scratch.path())?;
        let store = reads::open(scratch.path(), None)?;
        // Fault every payload into the unbounded buffer pool.
        for (device, traj) in &fleet {
            store.time_slice(*device, traj.first().t, traj.last().t);
        }
        let store = Arc::new(store);
        let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let queries = inputs::hot_queries(&fleet, seed, QUERIES);
        for q in &queries[QUERIES - WARM_UP_REQUESTS..] {
            client::http_get_timeout(server.local_addr(), &q.path(), CLIENT_TIMEOUT)
                .map_err(|e| format!("warm-up request: {e}"))?;
        }
        Ok(Setup {
            _scratch: scratch,
            fleet,
            store,
            server: Some(server),
            queries,
        })
    }

    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("server runs until the set-up drops")
    }

    fn query(&self, id: usize) -> &Query {
        &self.queries[id % self.queries.len()]
    }

    fn timed(&self, seconds: f64, traced: bool) -> (Vec<Sample>, Duration, crate::trace::Trace) {
        let addr = self.server().local_addr();
        reads::closed_loop(seconds, None, traced, |id, rec: &mut Recorder| {
            let q = self.query(id);
            let path = q.path();
            let started = Instant::now();
            let response = rec.span("service.http_get", id as u64, |_| {
                client::http_get_timeout(addr, &path, CLIENT_TIMEOUT)
            });
            let ns = started.elapsed().as_nanos() as u64;
            let (ok, body) = match response {
                Ok((200, body)) => (true, body),
                _ => (false, String::new()),
            };
            Sample {
                id,
                kind: Some(q.kind()),
                ns,
                ok,
                bytes: body.len(),
                body: (ok && reads::sampled(id, VERIFY_EVERY)).then_some(body),
                ..Sample::default()
            }
        })
    }

    /// HTTP answers equal the direct store answers for the same query,
    /// and the direct answers pass the error-bound and kNN checks.
    fn verify(&self, samples: &[Sample], out: &mut Outcome) {
        let mut checker = Checker::new(&self.fleet, &self.store);
        for s in samples {
            let (Some(body), Some(kind)) = (&s.body, s.kind) else {
                continue;
            };
            let q = self.query(s.id);
            let (direct, _) = reads::execute(&self.store, q);
            match reads::answer_from_json(kind, body) {
                Some(http) if http == direct => {}
                Some(_) => out.violations.push(format!(
                    "{}: HTTP answer differs from the store's",
                    q.path()
                )),
                None => out
                    .violations
                    .push(format!("{}: malformed response {body}", q.path())),
            }
            if let Err(e) = checker.check(&self.store, q, &direct) {
                out.violations.push(e);
            }
        }
        out.notes.extend(checker.notes);
    }
}

const KINDS: [Kind; 4] = [Kind::Slice, Kind::Window, Kind::Knn, Kind::Position];

fn count(samples: &[Sample], out: &mut Outcome) {
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

fn server_delta(before: ServerStats, after: ServerStats) -> (f64, f64, f64) {
    (
        (after.requests - before.requests) as f64,
        (after.latency_us_total - before.latency_us_total) as f64,
        (after.rejected - before.rejected) as f64,
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, setup_s) = crate::repeat_setup(args, |rep| Setup::new(args.seed, rep))?;

    let (samples, untraced_wall, _) = setup.timed(crate::phase_seconds(args), false);
    count(&samples, &mut out);
    reads::record_latencies(&mut out.e2e, &samples, untraced_wall, &KINDS)?;
    out.common(&setup_s)?;
    setup.verify(&samples, &mut out);

    if args.trace {
        let server_before = setup.server().stats();
        let cache_before = reads::cache_stats(&setup.store).ok_or("opened store has no pager")?;
        let (http, wall, trace) = setup.timed(crate::phase_seconds(args), true);
        let cache_after = reads::cache_stats(&setup.store).ok_or("opened store has no pager")?;
        let (requests, handler_us, rejected) = server_delta(server_before, setup.server().stats());
        count(&http, &mut out);
        setup.verify(&http, &mut out);
        let ok: Vec<&Sample> = http.iter().filter(|s| s.ok).collect();
        let report = &mut out.layers;
        reads::record_pager(report, cache_before, cache_after, http.len());

        // The same queries, in the same order, straight against the store.
        let mut rec = Recorder::new(true, Instant::now());
        let direct: Vec<Sample> = ok
            .iter()
            .map(|s| {
                let q = setup.query(s.id);
                let started = Instant::now();
                let (_, work) = rec.span(reads::span_name(q.kind()), s.id as u64, |_| {
                    reads::execute(&setup.store, q)
                });
                Sample {
                    id: s.id,
                    kind: Some(q.kind()),
                    ns: started.elapsed().as_nanos() as u64,
                    ok: true,
                    work,
                    ..Sample::default()
                }
            })
            .collect();
        reads::record_store_layers(report, &direct)?;
        let overhead = Sorted::new(paired_differences(
            &reads::latency_us_by_id(&http),
            &reads::latency_us_by_id(&direct),
        ));
        report.quantile("service.overhead_us_p50", &overhead, 0.5, 1.0, "us")?;
        let client_us: f64 = ok.iter().map(|s| s.ns as f64 / 1e3).sum();
        report.ratio(
            "service.response_bytes_per_query",
            Ratio::new(ok.iter().map(|s| s.bytes as f64).sum(), ok.len() as f64),
            "bytes",
        );
        report.ratio(
            "service.handler_share",
            Ratio::new(
                handler_us / requests.max(1.0),
                client_us / ok.len().max(1) as f64,
            ),
            "fraction",
        );
        report.ratio(
            "service.rejected_ratio",
            Ratio::new(rejected, requests + rejected),
            "fraction",
        );
        reads::record_fleet_replays(report, &setup.fleet, &mut rec)?;
        let replay_end = rec.now_ns();
        let mut replay = crate::trace::Trace::default();
        replay.push(rec.finish("main", (0, replay_end)));
        let rate = |n: usize, w: Duration| n as f64 / w.as_secs_f64();
        let untraced_ok = samples.iter().filter(|s| s.ok).count();
        layers::record_trace(
            report,
            "serve_hot",
            args.seed,
            &trace,
            &replay,
            (rate(untraced_ok, untraced_wall), rate(ok.len(), wall)),
        )?;
    }
    Ok(out)
}
