//! The multi-threaded TCP server: an accept loop that admits a bounded
//! number of persistent connections, one thread per open connection,
//! handler permits that bound the requests answered at once, JSON
//! endpoints over a shared [`ShardedStore`], and graceful shutdown.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use traj_geo::{BoundingBox, Point};
use traj_model::json::{write_escaped, write_number, write_u64};
use traj_model::SimplifiedSegment;
use traj_obs::trace::SLOW_LOG_CAPACITY;
use traj_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Sample, SlowLog, Snapshot, SpanRecord,
    Trace,
};
use traj_store::{
    CacheStats, DurabilityMode, GeofenceAlert, MemoryStats, QueryStats, ShardedStore, StoreStats,
    WalStats,
};

use crate::http::{write_json_response, Connection, HttpError, Request};

/// `Content-Type` for `/metrics` (Prometheus text exposition format).
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests answered at once.  Every open connection has its own
    /// thread, which holds one of `workers` handler permits only while it
    /// answers a request; idle and header-reading connections hold none.
    pub workers: usize,
    /// Open connections allowed beyond `workers`: at most `workers +
    /// queue_depth` connections are open at once, and the accept loop
    /// answers any further one with `503` immediately instead of holding
    /// connections without bound (the closed-loop backpressure of the
    /// serving layer).
    pub queue_depth: usize,
    /// The idle deadline and the header deadline of a connection: it
    /// closes after this long without a request, and a request's line
    /// and headers must arrive within this long of its first byte.  Also
    /// the timeout of each socket write.
    pub io_timeout: Duration,
    /// Whether `GET /shutdown` stops the server.  On by default: the
    /// server binds loopback for this repo's deployments, and a clean
    /// remote stop is what the CLI and the test gate need.
    pub enable_shutdown_endpoint: bool,
    /// Requests at least this slow are traced into the global slow-query
    /// log served by `GET /trace`.  `Duration::ZERO` traces every request;
    /// `None` disables tracing entirely (spans cost one thread-local check
    /// each).  Every request is traced while this is set, but a trace
    /// that stays under the threshold is discarded without allocating:
    /// its spans reuse the connection thread's buffers, and the trace name is
    /// built only for a trace the log keeps.
    pub slow_query: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            io_timeout: Duration::from_secs(10),
            enable_shutdown_endpoint: true,
            slow_query: Some(Duration::from_millis(250)),
        }
    }
}

impl ServiceConfig {
    /// Overrides the handler permit count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the open connections allowed beyond the handler permits
    /// (clamped to ≥ 1).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Overrides the slow-query threshold (`None` disables tracing).
    pub fn with_slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query = threshold;
        self
    }
}

/// The server's counters at one instant, read from its metrics registry:
/// the request count and latency sum are the endpoint histograms'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests answered (any status).
    pub requests: u64,
    /// Responses with a 4xx status.
    pub client_errors: u64,
    /// Responses with a 5xx status.
    pub server_errors: u64,
    /// Connections refused with `503` because `workers + queue_depth`
    /// connections were already open.
    pub rejected: u64,
    /// Sum of handler latencies, microseconds.
    pub latency_us_total: u64,
    /// Blocks in scope over the `/time_slice` and `/window` queries served.
    pub blocks_in_scope: u64,
    /// Blocks decoded over the `/time_slice` and `/window` queries served.
    pub blocks_decoded: u64,
    /// Grid-index candidates over all window queries served.
    pub index_candidates: u64,
}

impl ServerStats {
    /// The server's numbers in `series`, a snapshot of its registry.
    fn read(series: &Snapshot) -> Self {
        let counter = |name| match series.total(name) {
            Some(Sample::Counter(v)) => v,
            _ => 0,
        };
        let latency = match series.total(REQUEST_DURATION) {
            Some(Sample::Histogram(h)) => h,
            _ => HistogramSnapshot::default(),
        };
        ServerStats {
            requests: latency.count(),
            client_errors: counter("service_client_errors_total"),
            server_errors: counter("service_server_errors_total"),
            rejected: counter("service_rejected_total"),
            latency_us_total: latency.sum,
            blocks_in_scope: counter("store_blocks_in_scope_total"),
            blocks_decoded: counter("store_blocks_decoded_total"),
            index_candidates: counter("store_index_candidates_total"),
        }
    }

    /// Mean handler latency in microseconds (0 with no requests).
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.latency_us_total as f64 / self.requests as f64
    }

    /// Aggregate skip ratio over the `/time_slice` and `/window` queries
    /// served.
    pub fn skip_ratio(&self) -> f64 {
        if self.blocks_in_scope == 0 {
            return 0.0;
        }
        1.0 - self.blocks_decoded as f64 / self.blocks_in_scope as f64
    }
}

/// The handler latency series, one per endpoint.
const REQUEST_DURATION: &str = "service_request_duration_us";

/// The endpoints with a latency histogram of their own, created once at
/// startup so that a request touches only atomics; every other path is
/// recorded as the last, `other`, so that a probe adds no label.
const ENDPOINTS: [&str; 12] = [
    "/devices",
    "/time_slice",
    "/window",
    "/position_at",
    "/knn",
    "/geofences",
    "/geofence_add",
    "/subscribe",
    "/stats",
    "/metrics",
    "/trace",
    "other",
];

/// Everything a connection thread needs to answer requests.
struct Shared {
    store: Arc<ShardedStore>,
    config: ServiceConfig,
    shutdown: AtomicBool,
    addr: SocketAddr,
    started: Instant,
    /// This server's series: the handles below.  A scrape adds the
    /// pipeline's and the store's (see [`scrape`]).
    registry: Registry,
    /// Handler latency, in [`ENDPOINTS`] order.
    latency: [Histogram; ENDPOINTS.len()],
    client_errors: Counter,
    server_errors: Counter,
    rejected: Counter,
    blocks_in_scope: Counter,
    blocks_decoded: Counter,
    index_candidates: Counter,
    queue_depth: Gauge,
    /// This server's slow-query ring, the store behind `/trace`.
    slow_log: SlowLog,
    /// The open connections, so that shutdown can close their read sides.
    /// Its length is the admission count.
    open: Mutex<Vec<Arc<TcpStream>>>,
    /// Handler permits left: `workers` minus the requests being answered.
    permits: Mutex<usize>,
    permit_freed: Condvar,
}

/// Locks `mutex`, ignoring poison: every value guarded here (a list of
/// streams, a permit count) stays consistent whatever panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// The latency histogram of the endpoint at `path`.
    fn latency_of(&self, path: &str) -> &Histogram {
        let endpoint = ENDPOINTS.iter().position(|e| *e == path);
        &self.latency[endpoint.unwrap_or(ENDPOINTS.len() - 1)]
    }

    /// Flags shutdown, closes the read side of every open connection so
    /// that idle ones end at once, and wakes the blocking `accept` with a
    /// throwaway connection so the accept loop observes the flag promptly.
    fn signal_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // The accept loop checks the flag under this lock before it
            // registers a connection, so none escapes this sweep.
            for stream in lock(&self.open).iter() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
            // A listener bound to the unspecified address (0.0.0.0 / ::)
            // is not itself connectable everywhere; wake it via loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
    }

    /// Takes a handler permit, waiting while all `workers` are in use;
    /// the permit returns when the guard drops.
    fn acquire_permit(&self) -> Permit<'_> {
        let mut free = lock(&self.permits);
        if *free == 0 {
            self.queue_depth.add(1);
            while *free == 0 {
                free = self
                    .permit_freed
                    .wait(free)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.queue_depth.add(-1);
        }
        *free -= 1;
        Permit { shared: self }
    }
}

/// A held handler permit.
struct Permit<'a> {
    shared: &'a Shared,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.shared.permits) += 1;
        self.shared.permit_freed.notify_one();
    }
}

/// An admitted connection; dropping it removes the stream from the open
/// list, which closes the socket once the connection thread is done.
struct Admitted {
    shared: Arc<Shared>,
    stream: Arc<TcpStream>,
}

impl Drop for Admitted {
    fn drop(&mut self) {
        let mut open = lock(&self.shared.open);
        if let Some(i) = open.iter().position(|s| Arc::ptr_eq(s, &self.stream)) {
            open.swap_remove(i);
        }
    }
}

/// A running query server.  Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] (or serve `GET /shutdown`) and then
/// [`Server::join`], or use [`Server::stop`] for both.
///
/// Start one with [`Server::start`]; see the crate docs for an end-to-end
/// example.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the accept
    /// loop, and starts serving `store`.
    ///
    /// # Errors
    ///
    /// `std::io::Error` when the address cannot be bound.
    pub fn start(
        store: Arc<ShardedStore>,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = config.workers.max(1);
        let registry = Registry::new();
        let counter = |name, help| registry.counter(name, help, &[]);
        let shared = Arc::new(Shared {
            store,
            config,
            shutdown: AtomicBool::new(false),
            addr: local,
            started: Instant::now(),
            latency: ENDPOINTS.map(|endpoint| {
                registry.histogram(
                    REQUEST_DURATION,
                    "Wall-clock request handling time in microseconds, by endpoint.",
                    &[("endpoint", endpoint)],
                )
            }),
            client_errors: counter("service_client_errors_total", "Responses with a 4xx status."),
            server_errors: counter("service_server_errors_total", "Responses with a 5xx status."),
            rejected: counter(
                "service_rejected_total",
                "Connections refused with 503 because the open-connection bound was reached.",
            ),
            blocks_in_scope: counter(
                "store_blocks_in_scope_total",
                "Blocks in scope over the /time_slice and /window queries served.",
            ),
            blocks_decoded: counter(
                "store_blocks_decoded_total",
                "Blocks actually decoded over the /time_slice and /window queries served.",
            ),
            index_candidates: counter(
                "store_index_candidates_total",
                "Grid-index candidate blocks over all window queries served, before the metadata check.",
            ),
            queue_depth: registry.gauge(
                "service_queue_depth",
                "Requests waiting for a handler permit.",
                &[],
            ),
            registry,
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            open: Mutex::new(Vec::new()),
            permits: Mutex::new(workers),
            permit_freed: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("traj-service-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .expect("spawn accept thread");

        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the request counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats::read(&self.shared.registry.snapshot())
    }

    /// Requests a graceful stop: the accept loop closes, idle connections
    /// close, and requests already read are still answered (with
    /// `Connection: close`).  Returns immediately; use [`Server::join`]
    /// to wait.
    pub fn shutdown(&self) {
        self.shared.signal_shutdown();
    }

    /// Blocks until the server has stopped (via [`Server::shutdown`] or
    /// the `/shutdown` endpoint) and every connection has closed.  Returns
    /// the final counter snapshot.
    pub fn join(mut self) -> ServerStats {
        // The accept thread joins the connection threads before it ends.
        if let Some(h) = self.accept_thread.take() {
            h.join().expect("the accept loop does not panic");
        }
        self.stats()
    }

    /// [`Server::shutdown`] followed by [`Server::join`].
    pub fn stop(self) -> ServerStats {
        self.shared.signal_shutdown();
        self.join()
    }
}

/// Admits connections until shutdown, then joins every connection
/// thread it started.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut threads = Vec::new();
    while let Some(connection) = accept_next(shared, listener) {
        // Join the threads whose connections have closed, so the list
        // stays as short as the open-connection bound.
        threads
            .extract_if(.., |t: &mut JoinHandle<()>| t.is_finished())
            .for_each(join_connection);
        // A failed spawn drops the closure, and with it the registration.
        if let Ok(thread) = std::thread::Builder::new()
            .name("traj-service-conn".to_string())
            .spawn(move || serve_connection(&connection))
        {
            threads.push(thread);
        }
    }
    threads.into_iter().for_each(join_connection);
}

/// Joins a connection thread.  A handler that panicked has already been
/// reported by the panic hook and has ended only its own connection; the
/// server goes on.
fn join_connection(thread: JoinHandle<()>) {
    let _ = thread.join();
}

/// Accepts the next connection and registers it, answering `503` to any
/// beyond the open-connection bound; `None` once the server shuts down.
fn accept_next(shared: &Arc<Shared>, listener: &TcpListener) -> Option<Admitted> {
    let max_open = shared.config.workers.max(1) + shared.config.queue_depth.max(1);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => Arc::new(stream),
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
                // Persistent accept errors (e.g. the process is out of
                // file descriptors) must not busy-spin the core; back off
                // briefly and retry.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        {
            let mut open = lock(&shared.open);
            if shared.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection (or a client racing the stop):
                // take no new connections.
                return None;
            }
            if open.len() < max_open {
                open.push(Arc::clone(&stream));
                return Some(Admitted {
                    shared: Arc::clone(shared),
                    stream,
                });
            }
        }
        // Bounded: refuse instead of holding connections without bound.
        shared.rejected.inc();
        let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
        let _ = write_json_response(
            &mut &*stream,
            503,
            "{\"error\":\"server overloaded\"}",
            false,
        );
    }
}

/// A response body: JSON for every endpoint but `/metrics`, which serves
/// plain-text Prometheus exposition.
enum Body {
    /// A JSON object written into the response buffer and left open:
    /// [`close_with_latency`] appends the last member and the brace.
    Json(String),
    Text(String),
}

/// Closes an open JSON body with the handler latency, so clients see the
/// server's cost separate from network time.
fn close_with_latency(body: &mut String, latency_us: u64) {
    write_key(body, "latency_us");
    write_u64(body, latency_us);
    body.push('}');
}

/// The trace name for a request: the full target, so the slow log shows
/// which query was slow, not just which endpoint.
fn trace_name(request: &Request) -> String {
    if request.params.is_empty() {
        return request.path.clone();
    }
    let query: Vec<String> = request
        .params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("{}?{}", request.path, query.join("&"))
}

/// Answers the requests of one connection in order, until the client or
/// the server ends it.  Only [`respond`] runs under a handler permit:
/// waiting for a request and reading its head hold none.
fn serve_connection(connection: &Admitted) {
    let shared = connection.shared.as_ref();
    let Ok(mut conn) = Connection::new(Arc::clone(&connection.stream), shared.config.io_timeout)
    else {
        return;
    };
    // `started` is when the request's first byte was available, so the
    // latency covers reading the head, the permit wait, the store call
    // and body encoding, but not the idle time before the request.
    while let Some((started, parsed)) = conn.next_request() {
        let (status, body, endpoint, keep_alive) = match parsed {
            Ok(request) => {
                let (status, body) = {
                    let _permit = shared.acquire_permit();
                    traced_respond(shared, &request)
                };
                (
                    status,
                    body,
                    shared.latency_of(&request.path),
                    request.keep_alive,
                )
            }
            // The header deadline passed or the socket failed: a partial
            // request was consumed, so the connection cannot go on.
            Err(HttpError::Io(_)) => return,
            // The rest of a rejected request is unknown: answer and close.
            Err(e) => (
                e.status(),
                Body::Json(error_body(&e.to_string())),
                shared.latency_of("other"),
                false,
            ),
        };
        let keep_alive = keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let latency_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        endpoint.record(latency_us);
        match status {
            400..=499 => shared.client_errors.inc(),
            500..=599 => shared.server_errors.inc(),
            _ => {}
        }
        let written = match body {
            Body::Json(mut body) => {
                close_with_latency(&mut body, latency_us);
                conn.write_response(status, "application/json", &body, keep_alive)
            }
            Body::Text(text) => {
                conn.write_response(status, METRICS_CONTENT_TYPE, &text, keep_alive)
            }
        };
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// [`respond`] under the slow-query trace, when tracing is on; only a
/// trace past the threshold is collected (and named) for the slow log.
fn traced_respond(shared: &Shared, request: &Request) -> (u16, Body) {
    let Some(threshold) = shared.config.slow_query else {
        return respond(shared, request);
    };
    let guard = traj_obs::trace_begin();
    let answer = respond(shared, request);
    if Duration::from_micros(guard.elapsed_us()) >= threshold {
        shared.slow_log.push(guard.finish(trace_name(request)));
    }
    answer
}

/// A handler's failure: the status and the message of its error body.
type Rejection = (u16, String);

/// Routes one parsed request.  Every JSON handler writes its answer
/// straight into the response buffer and leaves the object open, and so
/// does a rejection's error body; the caller closes it with the latency
/// member and writes it.
fn respond(shared: &Shared, request: &Request) -> (u16, Body) {
    let store = shared.store.as_ref();
    let answer = match request.path.as_str() {
        "/metrics" => return (200, Body::Text(scrape(shared).series.render_prometheus())),
        "/time_slice" => handle_time_slice(store, shared, request),
        "/window" => handle_window(store, shared, request),
        "/position_at" => handle_position_at(store, request),
        "/knn" => handle_knn(store, request),
        "/devices" => handle_devices(store, request),
        "/geofences" => handle_geofences(store),
        "/geofence_add" => handle_geofence_add(store, request),
        "/subscribe" => handle_subscribe(store, request),
        "/stats" => handle_stats(shared),
        "/trace" => handle_trace(shared, request),
        "/shutdown" if shared.config.enable_shutdown_endpoint => {
            shared.signal_shutdown();
            Ok("{\"ok\":true".to_string())
        }
        _ => Err((404, format!("no such endpoint: {}", request.path))),
    };
    match answer {
        Ok(body) => (200, Body::Json(body)),
        Err((status, message)) => (status, Body::Json(error_body(&message))),
    }
}

/// The error body `{"error":"…"`, left open like every other body.
fn error_body(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    write_escaped(&mut out, message);
    out
}

fn bad_request(msg: impl Into<String>) -> Rejection {
    (400, msg.into())
}

/// Parses a required finite f64 parameter.
fn require_f64(request: &Request, key: &str) -> Result<f64, Rejection> {
    let raw = request
        .param(key)
        .ok_or_else(|| bad_request(format!("missing parameter '{key}'")))?;
    let v: f64 = raw
        .parse()
        .map_err(|_| bad_request(format!("parameter '{key}' is not a number: '{raw}'")))?;
    if !v.is_finite() {
        return Err(bad_request(format!("parameter '{key}' must be finite")));
    }
    Ok(v)
}

fn require_device(request: &Request) -> Result<u64, Rejection> {
    let raw = request
        .param("device")
        .ok_or_else(|| bad_request("missing parameter 'device'"))?;
    raw.parse()
        .map_err(|_| bad_request(format!("parameter 'device' is not a device id: '{raw}'")))
}

/// The box of the required `min_x`, `min_y`, `max_x` and `max_y`, as
/// given.
fn require_box(request: &Request) -> Result<BoundingBox, Rejection> {
    Ok(BoundingBox {
        min_x: require_f64(request, "min_x")?,
        min_y: require_f64(request, "min_y")?,
        max_x: require_f64(request, "max_x")?,
        max_y: require_f64(request, "max_y")?,
    })
}

/// The optional `from`/`to` pair (both or neither).
fn optional_time_range(request: &Request) -> Result<Option<(f64, f64)>, Rejection> {
    match (request.param("from"), request.param("to")) {
        (None, None) => Ok(None),
        (Some(_), Some(_)) => {
            let from = require_f64(request, "from")?;
            let to = require_f64(request, "to")?;
            Ok(Some((from, to)))
        }
        _ => Err(bad_request("'from' and 'to' must be given together")),
    }
}

/// The optional count parameter `key`.
fn optional_count(request: &Request, key: &str) -> Result<Option<usize>, Rejection> {
    request
        .param(key)
        .map(|raw| {
            raw.parse()
                .map_err(|_| bad_request(format!("parameter '{key}' is not a count: '{raw}'")))
        })
        .transpose()
}

/// A streamed member's value: a measured number, or an exact integer
/// (an id, index or count) that never passes through `f64`, which would
/// round it above 2⁵³.
#[derive(Clone, Copy)]
enum Num {
    Float(f64),
    Int(u64),
}

impl From<usize> for Num {
    fn from(v: usize) -> Self {
        Num::Int(v as u64)
    }
}

/// Appends `"key":` to the object open at the end of `out`, after a
/// comma unless it is the object's first member.  Keys are static
/// identifiers and need no escaping.
fn write_key(out: &mut String, key: &str) {
    out.push_str(if out.ends_with('{') { "\"" } else { ",\"" });
    out.push_str(key);
    out.push_str("\":");
}

/// Appends `{"k1":v1,…` — an object of numbers, left open for more
/// members.
fn write_number_members(out: &mut String, members: &[(&str, Num)]) {
    out.push('{');
    for (key, value) in members {
        write_key(out, key);
        match *value {
            Num::Float(v) => write_number(out, v),
            Num::Int(v) => write_u64(out, v),
        }
    }
}

/// Appends `[item,…]`, each item written by `write_item`.
fn write_array<T>(out: &mut String, items: &[T], mut write_item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

/// Appends one stored segment as a JSON object.
fn write_segment(out: &mut String, s: &SimplifiedSegment) {
    write_number_members(
        out,
        &[
            ("x0", Num::Float(s.segment.start.x)),
            ("y0", Num::Float(s.segment.start.y)),
            ("t0", Num::Float(s.segment.start.t)),
            ("x1", Num::Float(s.segment.end.x)),
            ("y1", Num::Float(s.segment.end.y)),
            ("t1", Num::Float(s.segment.end.t)),
            ("first_index", s.first_index.into()),
            ("last_index", s.last_index.into()),
        ],
    );
    out.push('}');
}

/// Appends a store query's skip statistics as a JSON object.
fn write_query_stats(out: &mut String, stats: &QueryStats) {
    write_number_members(
        out,
        &[
            ("blocks_in_scope", stats.blocks_in_scope.into()),
            ("blocks_decoded", stats.blocks_decoded.into()),
            ("segments_returned", stats.segments_returned.into()),
            ("skip_ratio", Num::Float(stats.skip_ratio())),
        ],
    );
    out.push('}');
}

/// A response buffer with room for `segments` streamed segments, so a
/// large answer is not copied through a series of doublings.  Each
/// response gets its own buffer, freed once written.
fn response_buffer(segments: usize) -> String {
    const SEGMENT_BYTES: usize = 160;
    String::with_capacity(256 + segments * SEGMENT_BYTES)
}

fn record_query_stats(shared: &Shared, stats: &QueryStats) {
    shared.blocks_in_scope.add(stats.blocks_in_scope as u64);
    shared.blocks_decoded.add(stats.blocks_decoded as u64);
    shared.index_candidates.add(stats.index_candidates as u64);
}

fn handle_devices(store: &ShardedStore, request: &Request) -> Result<String, Rejection> {
    let devices = store.devices();
    let limit = optional_count(request, "limit")?.unwrap_or(usize::MAX);
    let mut out = response_buffer(0);
    write_number_members(&mut out, &[("count", devices.len().into())]);
    write_key(&mut out, "devices");
    let listed = &devices[..limit.min(devices.len())];
    write_array(&mut out, listed, |out, d| write_u64(out, *d));
    Ok(out)
}

fn handle_time_slice(
    store: &ShardedStore,
    shared: &Shared,
    request: &Request,
) -> Result<String, Rejection> {
    let device = require_device(request)?;
    let from = require_f64(request, "from")?;
    let to = require_f64(request, "to")?;
    let slice = store.time_slice(device, from, to);
    record_query_stats(shared, &slice.stats);
    let mut out = response_buffer(slice.segments.len());
    write_number_members(
        &mut out,
        &[
            ("device", Num::Int(device)),
            ("from", Num::Float(from)),
            ("to", Num::Float(to)),
        ],
    );
    write_key(&mut out, "segments");
    write_array(&mut out, &slice.segments, write_segment);
    write_key(&mut out, "stats");
    write_query_stats(&mut out, &slice.stats);
    Ok(out)
}

fn handle_window(
    store: &ShardedStore,
    shared: &Shared,
    request: &Request,
) -> Result<String, Rejection> {
    let given = require_box(request)?;
    let window = BoundingBox {
        min_x: given.min_x.min(given.max_x),
        min_y: given.min_y.min(given.max_y),
        max_x: given.min_x.max(given.max_x),
        max_y: given.min_y.max(given.max_y),
    };
    let time = optional_time_range(request)?;
    let q = store.window_query(&window, time);
    record_query_stats(shared, &q.stats);
    let mut out = response_buffer(q.stats.segments_returned);
    out.push_str("{\"matches\":");
    write_array(&mut out, &q.matches, |out, m| {
        write_number_members(out, &[("device", Num::Int(m.device))]);
        write_key(out, "segments");
        write_array(out, &m.segments, write_segment);
        out.push('}');
    });
    write_key(&mut out, "stats");
    write_query_stats(&mut out, &q.stats);
    Ok(out)
}

fn handle_position_at(store: &ShardedStore, request: &Request) -> Result<String, Rejection> {
    let device = require_device(request)?;
    let t = require_f64(request, "t")?;
    let mut out = response_buffer(0);
    write_number_members(
        &mut out,
        &[("device", Num::Int(device)), ("t", Num::Float(t))],
    );
    write_key(&mut out, "position");
    match store.position_at(device, t) {
        Some(p) => {
            write_number_members(
                &mut out,
                &[
                    ("x", Num::Float(p.x)),
                    ("y", Num::Float(p.y)),
                    ("t", Num::Float(p.t)),
                ],
            );
            out.push('}');
        }
        None => out.push_str("null"),
    }
    Ok(out)
}

/// The most query points one `/knn` request may send.  A kNN query costs
/// time in proportion to its points and holds a handler permit
/// throughout, so the request line alone (room for ~2,000 points) is no
/// bound.
const MAX_KNN_POINTS: usize = 64;

/// Parses the query point set of `/knn`: either `points=x1,y1;x2,y2;…`
/// (at most [`MAX_KNN_POINTS`]) or a single `x`/`y` pair.
fn parse_query_points(request: &Request) -> Result<Vec<Point>, Rejection> {
    if let Some(raw) = request.param("points") {
        let mut points = Vec::new();
        for (i, pair) in raw.split(';').filter(|p| !p.is_empty()).enumerate() {
            if i == MAX_KNN_POINTS {
                return Err(bad_request(format!(
                    "'points' lists more than {MAX_KNN_POINTS} points"
                )));
            }
            let mut coords = pair.split(',');
            let (Some(x), Some(y), None) = (coords.next(), coords.next(), coords.next()) else {
                return Err(bad_request(format!(
                    "point {i} is not 'x,y': '{pair}' (separate points with ';')"
                )));
            };
            let (Ok(x), Ok(y)) = (x.trim().parse::<f64>(), y.trim().parse::<f64>()) else {
                return Err(bad_request(format!(
                    "point {i} has non-numeric coordinates: '{pair}'"
                )));
            };
            if !x.is_finite() || !y.is_finite() {
                return Err(bad_request(format!(
                    "point {i} must have finite coordinates"
                )));
            }
            points.push(Point::new(x, y, 0.0));
        }
        if points.is_empty() {
            return Err(bad_request("'points' lists no points"));
        }
        return Ok(points);
    }
    let x = require_f64(request, "x")?;
    let y = require_f64(request, "y")?;
    Ok(vec![Point::new(x, y, 0.0)])
}

/// `GET /knn?x=…&y=…&k=…` (or `points=x1,y1;x2,y2`): the k devices whose
/// stored trajectories are nearest the query point set, pruned on the
/// ζ+slack metadata bound but with exact (brute-force-identical)
/// distances.
fn handle_knn(store: &ShardedStore, request: &Request) -> Result<String, Rejection> {
    let query = parse_query_points(request)?;
    let k = match request.param("k").unwrap_or("1").parse::<usize>() {
        Ok(k) if k >= 1 => k,
        _ => return Err(bad_request("parameter 'k' must be a positive count")),
    };
    let result = store.knn(&query, k);
    let stats = &result.stats;
    let mut out = response_buffer(0);
    write_number_members(
        &mut out,
        &[("k", k.into()), ("query_points", query.len().into())],
    );
    write_key(&mut out, "neighbors");
    write_array(&mut out, &result.neighbors, |out, n| {
        write_number_members(
            out,
            &[
                ("device", Num::Int(n.device)),
                ("distance", Num::Float(n.distance)),
            ],
        );
        out.push('}');
    });
    write_key(&mut out, "stats");
    write_number_members(
        &mut out,
        &[
            ("devices_total", stats.devices_total.into()),
            ("devices_pruned", stats.devices_pruned.into()),
            ("blocks_total", stats.blocks_total.into()),
            ("blocks_decoded", stats.blocks_decoded.into()),
            ("device_prune_ratio", Num::Float(stats.device_prune_ratio())),
            ("block_prune_ratio", Num::Float(stats.block_prune_ratio())),
        ],
    );
    out.push('}');
    Ok(out)
}

/// `GET /geofences`: the registered standing queries and the registry's
/// accounting.
fn handle_geofences(store: &ShardedStore) -> Result<String, Rejection> {
    let fences = store.geofences();
    let mut out = response_buffer(0);
    out.push_str("{\"fences\":");
    write_array(&mut out, &fences.fences(), |out, f| {
        write_number_members(out, &[("id", Num::Int(f.id))]);
        write_key(out, "name");
        write_escaped(out, &f.name);
        write_key(out, "min_x");
        write_number(out, f.region.min_x);
        write_key(out, "min_y");
        write_number(out, f.region.min_y);
        write_key(out, "max_x");
        write_number(out, f.region.max_x);
        write_key(out, "max_y");
        write_number(out, f.region.max_y);
        if let Some((t0, t1)) = f.time {
            write_key(out, "from");
            write_number(out, t0);
            write_key(out, "to");
            write_number(out, t1);
        }
        out.push('}');
    });
    let mut scrape = Scrape::default();
    fences.stats().export(&mut scrape.series);
    write_key(&mut out, "stats");
    scrape.write_object(&mut out, GEOFENCE_STATS);
    Ok(out)
}

/// `GET /geofence_add?name=…&min_x=…&min_y=…&max_x=…&max_y=…[&from=…&to=…]`:
/// registers a standing fence; alerts fire for blocks sealed from now on.
fn handle_geofence_add(store: &ShardedStore, request: &Request) -> Result<String, Rejection> {
    let name = request.param("name").unwrap_or("fence");
    let region = require_box(request)?;
    let time = optional_time_range(request)?;
    let id = store
        .geofences()
        .register(name, region, time)
        .map_err(bad_request)?;
    let mut out = response_buffer(0);
    write_number_members(&mut out, &[("id", Num::Int(id))]);
    write_key(&mut out, "name");
    write_escaped(&mut out, name);
    Ok(out)
}

/// Appends one geofence alert as a JSON object.
fn write_alert(out: &mut String, a: &GeofenceAlert) {
    write_number_members(
        out,
        &[("seq", Num::Int(a.seq)), ("fence_id", Num::Int(a.fence_id))],
    );
    write_key(out, "fence_name");
    write_escaped(out, &a.fence_name);
    write_key(out, "device");
    write_u64(out, a.device);
    write_key(out, "block");
    write_u64(out, a.block as u64);
    write_key(out, "t_min");
    write_number(out, a.t_min);
    write_key(out, "t_max");
    write_number(out, a.t_max);
    write_key(out, "num_segments");
    write_u64(out, a.num_segments as u64);
    out.push('}');
}

/// `GET /subscribe?cursor=…[&limit=…][&fence=…]`: cursor-based polling of
/// the geofence alert stream.  Pass the returned `next_cursor` to the
/// next poll; a nonzero `missed` means the client fell further behind
/// than the alert ring holds.
fn handle_subscribe(store: &ShardedStore, request: &Request) -> Result<String, Rejection> {
    let cursor = request
        .param("cursor")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| bad_request("parameter 'cursor' is not a sequence number"))?;
    let limit = match request.param("limit").unwrap_or("100").parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => return Err(bad_request("parameter 'limit' must be a positive count")),
    };
    let fence = request
        .param("fence")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| bad_request(format!("parameter 'fence' is not a fence id: '{raw}'")))
        })
        .transpose()?;
    let poll = store.geofences().alerts_after(cursor, limit, fence);
    let mut out = response_buffer(0);
    out.push_str("{\"alerts\":");
    write_array(&mut out, &poll.alerts, write_alert);
    write_key(&mut out, "next_cursor");
    write_u64(&mut out, poll.next_cursor);
    write_key(&mut out, "missed");
    write_u64(&mut out, poll.missed);
    Ok(out)
}

/// One read of every subsystem, taken once per `/metrics` or `/stats`
/// request: the series both render, and the reads they were put from,
/// which `/stats` derives its ratios from.
#[derive(Default)]
struct Scrape {
    series: Snapshot,
    /// The server's numbers, read from `series`.
    server: ServerStats,
    store: StoreStats,
    memory: MemoryStats,
    /// Under mode `none` for a store without a write-ahead log.
    wal: WalStats,
    num_shards: usize,
}

impl Scrape {
    /// A WAL sync-latency quantile, at the histogram's bucket resolution.
    fn sync_quantile(&self, q: f64) -> f64 {
        self.wal.sync_latency.quantile(q) as f64
    }

    /// The buffer pool's counters (zeros without a pool).
    fn cache(&self) -> CacheStats {
        self.memory.cache.unwrap_or_default()
    }

    /// Appends the `/stats` members of `keys`, read from this scrape, to
    /// the object open at the end of `out`.
    fn write_members<'k>(
        &self,
        out: &mut String,
        keys: impl IntoIterator<Item = &'k (&'k str, Stat)>,
    ) {
        for (key, stat) in keys {
            write_key(out, key);
            match stat {
                // A counter or gauge family's value, summed over its
                // label sets (0 when absent).
                Series(name) => match self.series.total(name) {
                    Some(Sample::Counter(v)) => write_u64(out, v),
                    Some(Sample::Gauge(v)) => write_number(out, v),
                    _ => out.push('0'),
                },
                Derived(derive) => write_number(out, derive(self)),
                Value(write) => write(self, out),
                Section(keys) => self.write_object(out, keys),
            }
        }
    }

    /// Appends the `/stats` object of `keys`, read from this scrape.
    fn write_object(&self, out: &mut String, keys: &[(&str, Stat)]) {
        out.push('{');
        self.write_members(out, keys);
        out.push('}');
    }
}

/// Reads the server's registry, the pipeline's series and each of the
/// store's accounts once, into the snapshot behind both `/metrics` and
/// `/stats`.  Every family is always present — a store without a buffer
/// pool or WAL reports zeros (the WAL's under mode `none`) rather than
/// dropping the series, so dashboards see a stable schema.
fn scrape(shared: &Shared) -> Scrape {
    let mut series = shared.registry.snapshot();
    series.merge(&traj_pipeline::executor::metrics_snapshot());
    let server = ServerStats::read(&series);
    series.put_counter(
        "service_requests_total",
        "Requests answered (any status).",
        &[],
        server.requests,
    );
    series.put_gauge(
        "service_queue_capacity",
        "Open connections allowed beyond the handler permits.",
        &[],
        shared.config.queue_depth as f64,
    );
    series.put_gauge(
        "service_workers",
        "Handler permits: requests answered at once.",
        &[],
        shared.config.workers as f64,
    );
    series.put_gauge(
        "service_uptime_seconds",
        "Seconds since the server started.",
        &[],
        shared.started.elapsed().as_secs_f64(),
    );
    series.put_gauge(
        "service_slow_queries_logged",
        "Traces currently held in the slow-query ring buffer.",
        &[],
        shared.slow_log.len() as f64,
    );

    let store = shared.store.as_ref();
    let stats = store.stats();
    let memory = store.memory_stats();
    let wal = store.wal_stats().unwrap_or_else(|| WalStats {
        mode: DurabilityMode::None.name(),
        ..WalStats::default()
    });
    stats.export(&mut series);
    memory.export(&mut series);
    wal.export(&mut series);
    store.geofences().stats().export(&mut series);
    store.knn_counters().export(&mut series);
    for (shard, blocks) in store.per_shard_blocks().iter().enumerate() {
        series.put_gauge(
            "store_shard_blocks",
            "Sealed blocks resident, by shard.",
            &[("shard", &shard.to_string())],
            *blocks as f64,
        );
    }
    Scrape {
        series,
        server,
        store: stats,
        memory,
        wal,
        num_shards: store.num_shards(),
    }
}

/// What a `/stats` key reports.
enum Stat {
    /// A series' value, summed over its label sets.
    Series(&'static str),
    /// A number worked out from the scrape.
    Derived(fn(&Scrape) -> f64),
    /// Any other value, written from the scrape.
    Value(fn(&Scrape, &mut String)),
    /// A nested object.
    Section(&'static [(&'static str, Stat)]),
}

use Stat::{Derived, Section, Series, Value};

/// The `/stats` document, a section per subsystem.  `wal` appears only for
/// a durable store, `cache` only for a store that pages from disk.
const STATS: &[(&str, Stat)] = &[
    ("store", Section(STORE_STATS)),
    ("memory", Section(MEMORY_STATS)),
    ("server", Section(SERVER_STATS)),
    ("query", Section(&[("geofence", Section(GEOFENCE_STATS))])),
    ("wal", Section(WAL_STATS)),
    ("cache", Section(CACHE_STATS)),
];

const STORE_STATS: &[(&str, Stat)] = &[
    ("devices", Series("store_devices")),
    ("blocks", Series("store_blocks")),
    ("segments", Series("store_segments")),
    ("points", Series("store_points")),
    ("stored_bytes", Series("store_stored_bytes")),
    ("resident_bytes", Series("store_resident_payload_bytes")),
    ("bytes_per_point", Derived(|s| s.store.bytes_per_point())),
    (
        "compression_factor",
        Derived(|s| s.store.compression_factor()),
    ),
];

const MEMORY_STATS: &[(&str, Stat)] = &[
    (
        "resident_payload_bytes",
        Series("store_resident_payload_bytes"),
    ),
    ("index_bytes", Series("store_index_bytes")),
    ("arena_creates", Series("store_arena_creates_total")),
    ("arena_reuses", Series("store_arena_reuses_total")),
];

const SERVER_STATS: &[(&str, Stat)] = &[
    ("requests", Series("service_requests_total")),
    ("client_errors", Series("service_client_errors_total")),
    ("server_errors", Series("service_server_errors_total")),
    ("rejected", Series("service_rejected_total")),
    ("mean_latency_us", Derived(|s| s.server.mean_latency_us())),
    ("skip_ratio", Derived(|s| s.server.skip_ratio())),
    (
        "num_shards",
        Value(|s, out| write_u64(out, s.num_shards as u64)),
    ),
    ("uptime_seconds", Series("service_uptime_seconds")),
];

const WAL_STATS: &[(&str, Stat)] = &[
    ("mode", Value(|s, out| write_escaped(out, s.wal.mode))),
    ("wal_bytes", Series("wal_bytes")),
    ("ingests_appended", Series("wal_appends_total")),
    ("records_appended", Series("wal_records_total")),
    ("syncs", Series("wal_syncs_total")),
    ("sync_p50_us", Derived(|s| s.sync_quantile(0.5))),
    ("sync_p99_us", Derived(|s| s.sync_quantile(0.99))),
    ("records_replayed", Series("wal_records_replayed")),
    (
        "ingests_replayed",
        Value(|s, out| write_u64(out, s.wal.ingests_replayed as u64)),
    ),
    ("checkpoints", Series("wal_checkpoints_total")),
];

const CACHE_STATS: &[(&str, Stat)] = &[
    (
        "capacity_bytes",
        Value(|s, out| match s.cache().capacity_bytes {
            Some(bytes) => write_u64(out, bytes as u64),
            None => out.push_str("null"),
        }),
    ),
    ("resident_bytes", Series("pager_resident_bytes")),
    ("resident_pages", Series("pager_resident_pages")),
    ("hits", Series("pager_hits_total")),
    ("misses", Series("pager_misses_total")),
    ("evictions", Series("pager_evictions_total")),
    ("hit_ratio", Derived(|s| s.cache().hit_ratio())),
];

/// The geofence registry's accounting, in `/stats` and `/geofences`.
const GEOFENCE_STATS: &[(&str, Stat)] = &[
    ("fences", Series("geofence_fences")),
    ("alerts_fired", Series("geofence_alerts_total")),
    ("blocks_checked", Series("geofence_blocks_checked_total")),
    ("blocks_skipped", Series("geofence_blocks_skipped_total")),
    ("subscriptions", Series("geofence_subscriptions")),
    ("ring_evicted", Series("geofence_ring_evicted")),
    (
        "subscriber_dropped",
        Series("geofence_subscriber_dropped_total"),
    ),
];

/// `GET /stats`: [`STATS`] read from one [`scrape`].
fn handle_stats(shared: &Shared) -> Result<String, Rejection> {
    let scrape = scrape(shared);
    let sections = STATS.iter().filter(|(section, _)| match *section {
        "wal" => scrape.wal.mode != DurabilityMode::None.name(),
        "cache" => scrape.memory.cache.is_some(),
        _ => true,
    });
    let mut out = response_buffer(0);
    out.push('{');
    scrape.write_members(&mut out, sections);
    Ok(out)
}

/// Appends one span of a kept trace as a JSON object; its attribute
/// values are text.
fn write_span(out: &mut String, s: &SpanRecord) {
    write_number_members(
        out,
        &[
            ("id", Num::Int(s.id.into())),
            ("parent", Num::Int(s.parent.into())),
        ],
    );
    write_key(out, "name");
    write_escaped(out, s.name);
    write_key(out, "start_us");
    write_u64(out, s.start_us);
    write_key(out, "dur_us");
    write_u64(out, s.dur_us);
    write_key(out, "attrs");
    out.push('{');
    for (key, value) in &s.attrs {
        write_key(out, key);
        write_escaped(out, &value.to_string());
    }
    out.push_str("}}");
}

/// Appends one kept trace as a JSON object.
fn write_trace(out: &mut String, t: &Trace) {
    out.push('{');
    write_key(out, "name");
    write_escaped(out, &t.name);
    write_key(out, "total_us");
    write_u64(out, t.total_us);
    write_key(out, "dropped_spans");
    write_u64(out, t.dropped_spans.into());
    write_key(out, "spans");
    write_array(out, &t.spans, write_span);
    out.push('}');
}

/// `GET /trace`: the slow-query ring buffer, newest first.  `limit` caps
/// how many traces are returned.
fn handle_trace(shared: &Shared, request: &Request) -> Result<String, Rejection> {
    let limit = optional_count(request, "limit")?.unwrap_or(usize::MAX);
    let traces = shared.slow_log.recent();
    let mut out = response_buffer(0);
    write_number_members(&mut out, &[("count", traces.len().into())]);
    write_key(&mut out, "traces");
    write_array(&mut out, &traces[..limit.min(traces.len())], write_trace);
    Ok(out)
}
