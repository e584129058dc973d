//! The multi-threaded TCP server: an accept loop that admits a bounded
//! number of persistent connections, one thread per open connection,
//! handler permits that bound the requests answered at once, JSON
//! endpoints over a shared [`ShardedStore`], and graceful shutdown.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use traj_geo::{BoundingBox, Point};
use traj_model::json::{write_number, JsonValue};
use traj_model::SimplifiedSegment;
use traj_obs::{Gauge, Histogram, Registry, SpanRecord, Trace};
use traj_store::{GeofenceAlert, GeofenceRegistry, QueryStats, ShardedStore};

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

/// Cumulative request counters, updated by the connection threads and
/// readable while the server runs (all relaxed atomics — these are
/// statistics, not synchronization).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    rejected: AtomicU64,
    latency_us_total: AtomicU64,
    blocks_in_scope: AtomicU64,
    blocks_decoded: AtomicU64,
    index_candidates: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Blocks in scope over all store queries served.
    pub blocks_in_scope: u64,
    /// Blocks actually decoded over all store queries served.
    pub blocks_decoded: u64,
    /// Grid-index candidates over all window queries served.
    pub index_candidates: u64,
    /// How long the server had been up when the snapshot was taken.
    pub uptime: Duration,
}

impl ServerStats {
    /// Mean handler latency in microseconds (0 with no requests).
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.latency_us_total as f64 / self.requests as f64
    }

    /// Served requests per second of uptime — the server-side throughput
    /// number (client-observed QPS additionally includes network and
    /// queueing time).
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.uptime.as_secs_f64().max(1e-12)
    }

    /// Aggregate skip ratio over every store query served.
    pub fn skip_ratio(&self) -> f64 {
        if self.blocks_in_scope == 0 {
            return 0.0;
        }
        1.0 - self.blocks_decoded as f64 / self.blocks_in_scope as f64
    }
}

/// The fixed endpoint set, each with a pre-registered latency histogram —
/// created once at startup so the per-request path touches only atomics
/// (no registry mutex), and so unknown paths collapse onto one `other`
/// series instead of creating a label per probe.
struct EndpointMetrics {
    devices: Histogram,
    time_slice: Histogram,
    window: Histogram,
    position_at: Histogram,
    knn: Histogram,
    geofences: Histogram,
    geofence_add: Histogram,
    subscribe: Histogram,
    stats: Histogram,
    metrics: Histogram,
    trace: Histogram,
    other: Histogram,
}

impl EndpointMetrics {
    const NAME: &'static str = "service_request_duration_us";
    const HELP: &'static str = "Wall-clock request handling time in microseconds, by endpoint.";

    fn register(registry: &Registry) -> Self {
        let hist =
            |endpoint: &str| registry.histogram(Self::NAME, Self::HELP, &[("endpoint", endpoint)]);
        EndpointMetrics {
            devices: hist("/devices"),
            time_slice: hist("/time_slice"),
            window: hist("/window"),
            position_at: hist("/position_at"),
            knn: hist("/knn"),
            geofences: hist("/geofences"),
            geofence_add: hist("/geofence_add"),
            subscribe: hist("/subscribe"),
            stats: hist("/stats"),
            metrics: hist("/metrics"),
            trace: hist("/trace"),
            other: hist("other"),
        }
    }

    fn for_path(&self, path: &str) -> &Histogram {
        match path {
            "/devices" => &self.devices,
            "/time_slice" => &self.time_slice,
            "/window" => &self.window,
            "/position_at" => &self.position_at,
            "/knn" => &self.knn,
            "/geofences" => &self.geofences,
            "/geofence_add" => &self.geofence_add,
            "/subscribe" => &self.subscribe,
            "/stats" => &self.stats,
            "/metrics" => &self.metrics,
            "/trace" => &self.trace,
            _ => &self.other,
        }
    }
}

/// Everything a connection thread needs to answer requests.
struct Shared {
    store: Arc<ShardedStore>,
    counters: Counters,
    config: ServiceConfig,
    shutdown: AtomicBool,
    addr: SocketAddr,
    started: Instant,
    /// Per-server metrics: endpoint latency histograms and the queue-depth
    /// gauge live here; `/metrics` merges in the process-global registry
    /// (pipeline ingest counters) and appends store/pager/WAL series read
    /// at scrape time.
    registry: Registry,
    endpoints: EndpointMetrics,
    queue_depth: Gauge,
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
        // Pipeline ingest counters live in the process-global registry;
        // make sure the aggregate series exist (at zero) before the first
        // scrape even if no pipeline ran in this process.
        traj_pipeline::executor::ensure_metrics_registered();
        traj_store::query::knn::ensure_metrics_registered();
        GeofenceRegistry::ensure_metrics_registered();
        let registry = Registry::new();
        let endpoints = EndpointMetrics::register(&registry);
        let depth_gauge = registry.gauge(
            "service_queue_depth",
            "Requests waiting for a handler permit.",
            &[],
        );
        let shared = Arc::new(Shared {
            store,
            counters: Counters::default(),
            config,
            shutdown: AtomicBool::new(false),
            addr: local,
            started: Instant::now(),
            registry,
            endpoints,
            queue_depth: depth_gauge,
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
        snapshot(&self.shared)
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
        snapshot(&self.shared)
    }

    /// [`Server::shutdown`] followed by [`Server::join`].
    pub fn stop(self) -> ServerStats {
        self.shared.signal_shutdown();
        self.join()
    }
}

fn snapshot(shared: &Shared) -> ServerStats {
    let c = &shared.counters;
    ServerStats {
        requests: c.requests.load(Ordering::Relaxed),
        client_errors: c.client_errors.load(Ordering::Relaxed),
        server_errors: c.server_errors.load(Ordering::Relaxed),
        rejected: c.rejected.load(Ordering::Relaxed),
        latency_us_total: c.latency_us_total.load(Ordering::Relaxed),
        blocks_in_scope: c.blocks_in_scope.load(Ordering::Relaxed),
        blocks_decoded: c.blocks_decoded.load(Ordering::Relaxed),
        index_candidates: c.index_candidates.load(Ordering::Relaxed),
        uptime: shared.started.elapsed(),
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
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
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
    /// A JSON object rendered into the response buffer and left open:
    /// [`close_with_latency`] appends the last member and the brace.
    Json(String),
    Text(String),
}

/// Renders a tree-built JSON object into a response buffer, left open
/// like the streamed bodies.
fn open_object(value: &JsonValue) -> String {
    let mut out = value.to_string();
    let closing = out.pop();
    assert_eq!(closing, Some('}'), "JSON response bodies are objects");
    out
}

/// Closes an open JSON body with the handler latency, so clients see the
/// server's cost separate from network time.
fn close_with_latency(body: &mut String, latency_us: u64) {
    if !body.ends_with('{') {
        body.push(',');
    }
    body.push_str("\"latency_us\":");
    write_number(body, latency_us as f64);
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
                    shared.endpoints.for_path(&request.path),
                    request.keep_alive,
                )
            }
            // The header deadline passed or the socket failed: a partial
            // request was consumed, so the connection cannot go on.
            Err(HttpError::Io(_)) => return,
            // The rest of a rejected request is unknown: answer and close.
            Err(e) => (
                e.status(),
                Body::Json(open_object(&JsonValue::object([(
                    "error",
                    JsonValue::from(e.to_string()),
                )]))),
                &shared.endpoints.other,
                false,
            ),
        };
        let keep_alive = keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let latency_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let c = &shared.counters;
        c.requests.fetch_add(1, Ordering::Relaxed);
        c.latency_us_total.fetch_add(latency_us, Ordering::Relaxed);
        endpoint.record(latency_us);
        match status {
            400..=499 => {
                c.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            500..=599 => {
                c.server_errors.fetch_add(1, Ordering::Relaxed);
            }
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
        traj_obs::slow_log().push(guard.finish(trace_name(request)));
    }
    answer
}

/// A handler's failure: the status and the JSON error object to send.
type Rejection = (u16, JsonValue);

/// Routes one parsed request.  The query endpoints stream their answer
/// straight into the response buffer; the rest build a [`JsonValue`]
/// tree.  Either way the caller closes the body with the latency field
/// and writes it.
fn respond(shared: &Shared, request: &Request) -> (u16, Body) {
    let store = shared.store.as_ref();
    let streamed = match request.path.as_str() {
        "/metrics" => return (200, Body::Text(render_metrics(shared))),
        "/time_slice" => handle_time_slice(store, shared, request),
        "/window" => handle_window(store, shared, request),
        "/position_at" => handle_position_at(store, request),
        "/knn" => handle_knn(store, request),
        _ => Err(respond_tree(shared, request)),
    };
    match streamed {
        Ok(body) => (200, Body::Json(body)),
        Err((status, body)) => (status, Body::Json(open_object(&body))),
    }
}

/// The endpoints whose answers are built as a [`JsonValue`] tree: small,
/// or off the query path.
fn respond_tree(shared: &Shared, request: &Request) -> (u16, JsonValue) {
    let store = shared.store.as_ref();
    match request.path.as_str() {
        "/devices" => handle_devices(store, request),
        "/geofences" => handle_geofences(store),
        "/geofence_add" => handle_geofence_add(store, request),
        "/subscribe" => handle_subscribe(store, request),
        "/stats" => handle_stats(store, shared),
        "/trace" => handle_trace(request),
        "/shutdown" if shared.config.enable_shutdown_endpoint => {
            shared.signal_shutdown();
            (200, JsonValue::object([("ok", JsonValue::from(true))]))
        }
        _ => (
            404,
            JsonValue::object([(
                "error",
                JsonValue::from(format!("no such endpoint: {}", request.path)),
            )]),
        ),
    }
}

fn bad_request(msg: impl Into<String>) -> Rejection {
    (
        400,
        JsonValue::object([("error", JsonValue::from(msg.into()))]),
    )
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

/// Appends `{"k1":v1,…` — an object of numbers, left open for more
/// members.  Keys are static identifiers and need no escaping.
fn write_number_members(out: &mut String, members: &[(&str, f64)]) {
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "{\"" } else { ",\"" });
        out.push_str(key);
        out.push_str("\":");
        write_number(out, *value);
    }
}

/// Appends `,"key":` after an open object's earlier members.
fn write_key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
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
            ("x0", s.segment.start.x),
            ("y0", s.segment.start.y),
            ("t0", s.segment.start.t),
            ("x1", s.segment.end.x),
            ("y1", s.segment.end.y),
            ("t1", s.segment.end.t),
            ("first_index", s.first_index as f64),
            ("last_index", s.last_index as f64),
        ],
    );
    out.push('}');
}

/// Appends a store query's skip statistics as a JSON object.
fn write_query_stats(out: &mut String, stats: &QueryStats) {
    write_number_members(
        out,
        &[
            ("blocks_in_scope", stats.blocks_in_scope as f64),
            ("blocks_decoded", stats.blocks_decoded as f64),
            ("segments_returned", stats.segments_returned as f64),
            ("skip_ratio", stats.skip_ratio()),
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
    let c = &shared.counters;
    c.blocks_in_scope
        .fetch_add(stats.blocks_in_scope as u64, Ordering::Relaxed);
    c.blocks_decoded
        .fetch_add(stats.blocks_decoded as u64, Ordering::Relaxed);
    c.index_candidates
        .fetch_add(stats.index_candidates as u64, Ordering::Relaxed);
}

fn handle_devices(store: &ShardedStore, request: &Request) -> (u16, JsonValue) {
    let devices = store.devices();
    let limit = match request.param("limit") {
        None => devices.len(),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return bad_request(format!("parameter 'limit' is not a count: '{raw}'")),
        },
    };
    let listed: Vec<JsonValue> = devices
        .iter()
        .take(limit)
        .map(|d| JsonValue::from(*d as f64))
        .collect();
    (
        200,
        JsonValue::object([
            ("count", JsonValue::from(devices.len())),
            ("devices", JsonValue::Array(listed)),
        ]),
    )
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
        &[("device", device as f64), ("from", from), ("to", to)],
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
    let mut coords = [0.0f64; 4];
    for (slot, key) in coords.iter_mut().zip(["min_x", "min_y", "max_x", "max_y"]) {
        *slot = require_f64(request, key)?;
    }
    let window = BoundingBox {
        min_x: coords[0].min(coords[2]),
        min_y: coords[1].min(coords[3]),
        max_x: coords[0].max(coords[2]),
        max_y: coords[1].max(coords[3]),
    };
    let time = optional_time_range(request)?;
    let q = store.window_query(&window, time);
    record_query_stats(shared, &q.stats);
    let mut out = response_buffer(q.stats.segments_returned);
    out.push_str("{\"matches\":");
    write_array(&mut out, &q.matches, |out, m| {
        write_number_members(out, &[("device", m.device as f64)]);
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
    write_number_members(&mut out, &[("device", device as f64), ("t", t)]);
    write_key(&mut out, "position");
    match store.position_at(device, t) {
        Some(p) => {
            write_number_members(&mut out, &[("x", p.x), ("y", p.y), ("t", p.t)]);
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
        &[("k", k as f64), ("query_points", query.len() as f64)],
    );
    write_key(&mut out, "neighbors");
    write_array(&mut out, &result.neighbors, |out, n| {
        write_number_members(
            out,
            &[("device", n.device as f64), ("distance", n.distance)],
        );
        out.push('}');
    });
    write_key(&mut out, "stats");
    write_number_members(
        &mut out,
        &[
            ("devices_total", stats.devices_total as f64),
            ("devices_pruned", stats.devices_pruned as f64),
            ("blocks_total", stats.blocks_total as f64),
            ("blocks_decoded", stats.blocks_decoded as f64),
            ("device_prune_ratio", stats.device_prune_ratio()),
            ("block_prune_ratio", stats.block_prune_ratio()),
        ],
    );
    out.push('}');
    Ok(out)
}

/// `GET /geofences`: the registered standing queries and the registry's
/// accounting.
fn handle_geofences(store: &ShardedStore) -> (u16, JsonValue) {
    let fences = store.geofences();
    let listed: Vec<JsonValue> = fences
        .fences()
        .iter()
        .map(|f| {
            let mut pairs = vec![
                ("id".to_string(), JsonValue::from(f.id as f64)),
                ("name".to_string(), JsonValue::from(f.name.as_str())),
                ("min_x".to_string(), JsonValue::from(f.region.min_x)),
                ("min_y".to_string(), JsonValue::from(f.region.min_y)),
                ("max_x".to_string(), JsonValue::from(f.region.max_x)),
                ("max_y".to_string(), JsonValue::from(f.region.max_y)),
            ];
            if let Some((t0, t1)) = f.time {
                pairs.push(("from".to_string(), JsonValue::from(t0)));
                pairs.push(("to".to_string(), JsonValue::from(t1)));
            }
            JsonValue::Object(pairs)
        })
        .collect();
    let stats = fences.stats();
    (
        200,
        JsonValue::object([
            ("fences", JsonValue::Array(listed)),
            ("stats", geofence_stats_json(&stats)),
        ]),
    )
}

fn geofence_stats_json(stats: &traj_store::GeofenceStats) -> JsonValue {
    JsonValue::object([
        ("fences", JsonValue::from(stats.fences)),
        ("alerts_fired", JsonValue::from(stats.alerts_fired as f64)),
        (
            "blocks_checked",
            JsonValue::from(stats.blocks_checked as f64),
        ),
        (
            "blocks_skipped",
            JsonValue::from(stats.blocks_skipped as f64),
        ),
        ("subscriptions", JsonValue::from(stats.subscriptions)),
        ("ring_evicted", JsonValue::from(stats.ring_evicted as f64)),
        (
            "subscriber_dropped",
            JsonValue::from(stats.subscriber_dropped as f64),
        ),
    ])
}

/// `GET /geofence_add?name=…&min_x=…&min_y=…&max_x=…&max_y=…[&from=…&to=…]`:
/// registers a standing fence; alerts fire for blocks sealed from now on.
fn handle_geofence_add(store: &ShardedStore, request: &Request) -> (u16, JsonValue) {
    let name = request.param("name").unwrap_or("fence");
    let mut coords = [0.0f64; 4];
    for (slot, key) in coords.iter_mut().zip(["min_x", "min_y", "max_x", "max_y"]) {
        *slot = match require_f64(request, key) {
            Ok(v) => v,
            Err(e) => return e,
        };
    }
    let region = BoundingBox {
        min_x: coords[0],
        min_y: coords[1],
        max_x: coords[2],
        max_y: coords[3],
    };
    let time = match optional_time_range(request) {
        Ok(t) => t,
        Err(e) => return e,
    };
    match store.geofences().register(name, region, time) {
        Ok(id) => (
            200,
            JsonValue::object([
                ("id", JsonValue::from(id as f64)),
                ("name", JsonValue::from(name)),
            ]),
        ),
        Err(reason) => bad_request(reason),
    }
}

fn alert_json(a: &GeofenceAlert) -> JsonValue {
    JsonValue::object([
        ("seq", JsonValue::from(a.seq as f64)),
        ("fence_id", JsonValue::from(a.fence_id as f64)),
        ("fence_name", JsonValue::from(&*a.fence_name)),
        ("device", JsonValue::from(a.device as f64)),
        ("block", JsonValue::from(a.block)),
        ("t_min", JsonValue::from(a.t_min)),
        ("t_max", JsonValue::from(a.t_max)),
        ("num_segments", JsonValue::from(a.num_segments)),
    ])
}

/// `GET /subscribe?cursor=…[&limit=…][&fence=…]`: cursor-based polling of
/// the geofence alert stream.  Pass the returned `next_cursor` to the
/// next poll; a nonzero `missed` means the client fell further behind
/// than the alert ring holds.
fn handle_subscribe(store: &ShardedStore, request: &Request) -> (u16, JsonValue) {
    let cursor = match request.param("cursor").unwrap_or("0").parse::<u64>() {
        Ok(c) => c,
        Err(_) => return bad_request("parameter 'cursor' is not a sequence number"),
    };
    let limit = match request.param("limit").unwrap_or("100").parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => return bad_request("parameter 'limit' must be a positive count"),
    };
    let fence = match request.param("fence") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(id) => Some(id),
            Err(_) => return bad_request(format!("parameter 'fence' is not a fence id: '{raw}'")),
        },
    };
    let poll = store.geofences().alerts_after(cursor, limit, fence);
    (
        200,
        JsonValue::object([
            (
                "alerts",
                JsonValue::Array(poll.alerts.iter().map(alert_json).collect()),
            ),
            ("next_cursor", JsonValue::from(poll.next_cursor as f64)),
            ("missed", JsonValue::from(poll.missed as f64)),
        ]),
    )
}

fn handle_stats(store: &ShardedStore, shared: &Shared) -> (u16, JsonValue) {
    let s = store.stats();
    let mem = store.memory_stats();
    let server = snapshot(shared);
    let mut sections = Vec::from([
        (
            "store",
            JsonValue::object([
                ("devices", JsonValue::from(s.devices)),
                ("blocks", JsonValue::from(s.blocks)),
                ("segments", JsonValue::from(s.segments)),
                ("points", JsonValue::from(s.points)),
                ("stored_bytes", JsonValue::from(s.stored_bytes)),
                ("resident_bytes", JsonValue::from(s.resident_bytes)),
                ("bytes_per_point", JsonValue::from(s.bytes_per_point())),
                (
                    "compression_factor",
                    JsonValue::from(s.compression_factor()),
                ),
            ]),
        ),
        (
            "memory",
            JsonValue::object([
                (
                    "resident_payload_bytes",
                    JsonValue::from(mem.resident_payload_bytes),
                ),
                ("index_bytes", JsonValue::from(mem.index_bytes)),
                ("arena_creates", JsonValue::from(mem.arena_creates as f64)),
                ("arena_reuses", JsonValue::from(mem.arena_reuses as f64)),
            ]),
        ),
        (
            "server",
            JsonValue::object([
                ("requests", JsonValue::from(server.requests as f64)),
                (
                    "client_errors",
                    JsonValue::from(server.client_errors as f64),
                ),
                (
                    "server_errors",
                    JsonValue::from(server.server_errors as f64),
                ),
                ("rejected", JsonValue::from(server.rejected as f64)),
                ("mean_latency_us", JsonValue::from(server.mean_latency_us())),
                ("skip_ratio", JsonValue::from(server.skip_ratio())),
                ("num_shards", JsonValue::from(shared.store.num_shards())),
                (
                    "uptime_seconds",
                    JsonValue::from(shared.started.elapsed().as_secs_f64()),
                ),
            ]),
        ),
    ]);
    // The query engine: standing geofence accounting.
    sections.push((
        "query",
        JsonValue::object([("geofence", geofence_stats_json(&store.geofences().stats()))]),
    ));
    // Durable stores additionally report their write-ahead log: how much
    // of the live segment is unfolded, what group commit costs, and what
    // the last recovery replayed.
    if let Some(w) = store.wal_stats() {
        sections.push((
            "wal",
            JsonValue::object([
                ("mode", JsonValue::from(w.mode)),
                ("wal_bytes", JsonValue::from(w.wal_bytes as f64)),
                (
                    "ingests_appended",
                    JsonValue::from(w.ingests_appended as f64),
                ),
                (
                    "records_appended",
                    JsonValue::from(w.records_appended as f64),
                ),
                ("syncs", JsonValue::from(w.syncs as f64)),
                ("sync_p50_us", JsonValue::from(w.sync_p50_us as f64)),
                ("sync_p99_us", JsonValue::from(w.sync_p99_us as f64)),
                ("records_replayed", JsonValue::from(w.records_replayed)),
                ("ingests_replayed", JsonValue::from(w.ingests_replayed)),
                ("checkpoints", JsonValue::from(w.checkpoints as f64)),
            ]),
        ));
    }
    // Stores opened from disk page payloads through the buffer pool;
    // report its policy and counters (absent for purely in-memory stores).
    if let Some(c) = mem.cache {
        sections.push((
            "cache",
            JsonValue::object([
                ("policy", JsonValue::from(c.policy.name())),
                (
                    "capacity_bytes",
                    match c.capacity_bytes {
                        Some(cap) => JsonValue::from(cap),
                        None => JsonValue::Null,
                    },
                ),
                ("resident_bytes", JsonValue::from(c.resident_bytes)),
                ("resident_pages", JsonValue::from(c.resident_pages)),
                ("hits", JsonValue::from(c.hits as f64)),
                ("misses", JsonValue::from(c.misses as f64)),
                ("evictions", JsonValue::from(c.evictions as f64)),
                ("hit_ratio", JsonValue::from(c.hit_ratio())),
            ]),
        ));
    }
    (200, JsonValue::object(sections))
}

/// Builds the `/metrics` exposition: the server's own registry (endpoint
/// latency histograms, queue depth), merged with the process-global
/// registry (pipeline ingest counters), plus store / pager / WAL series
/// read at scrape time.  Every family is always emitted — a store without
/// a buffer pool or WAL reports zeros rather than dropping the series, so
/// dashboards and the smoke gate see a stable schema.
fn render_metrics(shared: &Shared) -> String {
    let mut snap = shared.registry.snapshot();
    snap.merge(&Registry::global().snapshot());
    let server = snapshot(shared);

    // Service.
    snap.put_counter(
        "service_requests_total",
        "Requests answered (any status).",
        &[],
        server.requests,
    );
    snap.put_counter(
        "service_client_errors_total",
        "Responses with a 4xx status.",
        &[],
        server.client_errors,
    );
    snap.put_counter(
        "service_server_errors_total",
        "Responses with a 5xx status.",
        &[],
        server.server_errors,
    );
    snap.put_counter(
        "service_rejected_total",
        "Connections refused with 503 because the open-connection bound was reached.",
        &[],
        server.rejected,
    );
    snap.put_gauge(
        "service_queue_capacity",
        "Open connections allowed beyond the handler permits.",
        &[],
        shared.config.queue_depth as f64,
    );
    snap.put_gauge(
        "service_workers",
        "Handler permits: requests answered at once.",
        &[],
        shared.config.workers as f64,
    );
    snap.put_gauge(
        "service_uptime_seconds",
        "Seconds since the server started.",
        &[],
        server.uptime.as_secs_f64(),
    );
    snap.put_gauge(
        "service_slow_queries_logged",
        "Traces currently held in the slow-query ring buffer.",
        &[],
        traj_obs::slow_log().len() as f64,
    );

    // Store.
    let s = shared.store.stats();
    let mem = shared.store.memory_stats();
    snap.put_gauge(
        "store_devices",
        "Device streams stored.",
        &[],
        s.devices as f64,
    );
    snap.put_gauge(
        "store_blocks",
        "Sealed blocks stored.",
        &[],
        s.blocks as f64,
    );
    snap.put_gauge(
        "store_segments",
        "Simplified segments stored.",
        &[],
        s.segments as f64,
    );
    snap.put_gauge(
        "store_points",
        "Original trajectory points the store is responsible for.",
        &[],
        s.points as f64,
    );
    snap.put_gauge(
        "store_stored_bytes",
        "Stored bytes: payloads plus nominal per-block metadata.",
        &[],
        s.stored_bytes as f64,
    );
    snap.put_gauge(
        "store_resident_payload_bytes",
        "Payload bytes held inline (not yet checkpointed to disk).",
        &[],
        mem.resident_payload_bytes as f64,
    );
    snap.put_gauge(
        "store_index_bytes",
        "Approximate heap footprint of the grid index.",
        &[],
        mem.index_bytes as f64,
    );
    snap.put_counter(
        "store_arena_creates_total",
        "Decode arenas allocated by queries.",
        &[],
        mem.arena_creates,
    );
    snap.put_counter(
        "store_arena_reuses_total",
        "Queries that reused a pooled decode arena instead of allocating.",
        &[],
        mem.arena_reuses,
    );
    snap.put_counter(
        "store_blocks_in_scope_total",
        "Blocks in scope over all store queries served.",
        &[],
        server.blocks_in_scope,
    );
    snap.put_counter(
        "store_blocks_decoded_total",
        "Blocks actually decoded over all store queries served.",
        &[],
        server.blocks_decoded,
    );
    snap.put_counter(
        "store_index_candidates_total",
        "Grid-index candidate blocks over all window queries served, before the metadata check.",
        &[],
        server.index_candidates,
    );
    // Query engine.  The cumulative geofence/kNN counters live in the
    // merged global registry (registered at zero at startup); this store's
    // registry-local view is exported as gauges so a restart is visible.
    let geofence = shared.store.geofences().stats();
    snap.put_gauge(
        "geofence_fences",
        "Standing geofence queries registered on the served store.",
        &[],
        geofence.fences as f64,
    );
    snap.put_gauge(
        "geofence_subscriptions",
        "Live geofence alert subscriptions.",
        &[],
        geofence.subscriptions as f64,
    );
    snap.put_gauge(
        "geofence_ring_evicted",
        "Alerts evicted from this store's polling ring.",
        &[],
        geofence.ring_evicted as f64,
    );
    for (shard, blocks) in shared.store.per_shard_blocks().iter().enumerate() {
        snap.put_gauge(
            "store_shard_blocks",
            "Sealed blocks resident, by shard.",
            &[("shard", &shard.to_string())],
            *blocks as f64,
        );
    }

    // Pager (buffer pool).  Zeros under policy "none" when the store has
    // no disk-backed payloads to page.
    let cache = mem.cache;
    let policy = cache.as_ref().map_or("none", |c| c.policy.name());
    let labels = [("eviction_policy", policy)];
    snap.put_counter(
        "pager_hits_total",
        "Block fetches served from the buffer pool.",
        &labels,
        cache.as_ref().map_or(0, |c| c.hits),
    );
    snap.put_counter(
        "pager_misses_total",
        "Block fetches that read from disk.",
        &labels,
        cache.as_ref().map_or(0, |c| c.misses),
    );
    snap.put_counter(
        "pager_evictions_total",
        "Pages evicted to stay under the cache budget.",
        &labels,
        cache.as_ref().map_or(0, |c| c.evictions),
    );
    snap.put_gauge(
        "pager_resident_bytes",
        "Payload bytes resident in the buffer pool.",
        &labels,
        cache.as_ref().map_or(0, |c| c.resident_bytes) as f64,
    );
    snap.put_gauge(
        "pager_resident_pages",
        "Pages resident in the buffer pool.",
        &labels,
        cache.as_ref().map_or(0, |c| c.resident_pages) as f64,
    );
    snap.put_gauge(
        "pager_capacity_bytes",
        "Configured cache budget in bytes (0 = unbounded or no pager).",
        &labels,
        cache.as_ref().and_then(|c| c.capacity_bytes).unwrap_or(0) as f64,
    );

    // WAL.  Zeros under mode "none" for non-durable stores.
    let wal = shared.store.wal_stats();
    let mode = wal.as_ref().map_or("none", |w| w.mode);
    let labels = [("mode", mode)];
    snap.put_counter(
        "wal_appends_total",
        "Ingest batches appended to the write-ahead log.",
        &labels,
        wal.as_ref().map_or(0, |w| w.ingests_appended),
    );
    snap.put_counter(
        "wal_records_total",
        "Records appended to the write-ahead log.",
        &labels,
        wal.as_ref().map_or(0, |w| w.records_appended),
    );
    snap.put_counter(
        "wal_syncs_total",
        "Group-commit fsync batches completed.",
        &labels,
        wal.as_ref().map_or(0, |w| w.syncs),
    );
    snap.put_counter(
        "wal_checkpoints_total",
        "Checkpoints folding the log into the base store.",
        &labels,
        wal.as_ref().map_or(0, |w| w.checkpoints),
    );
    snap.put_gauge(
        "wal_bytes",
        "Bytes in the live write-ahead log segment.",
        &labels,
        wal.as_ref().map_or(0, |w| w.wal_bytes) as f64,
    );
    snap.put_gauge(
        "wal_records_replayed",
        "Records the last recovery replayed.",
        &labels,
        wal.as_ref().map_or(0, |w| w.records_replayed) as f64,
    );
    let sync_latency = shared
        .store
        .wal_sync_latency()
        .unwrap_or_else(|| Histogram::new().snapshot());
    snap.put_histogram(
        "wal_sync_duration_us",
        "Group-commit fsync latency in microseconds.",
        &labels,
        sync_latency,
    );

    snap.render_prometheus()
}

fn span_json(s: &SpanRecord) -> JsonValue {
    JsonValue::object([
        ("id", JsonValue::from(s.id as f64)),
        ("parent", JsonValue::from(s.parent as f64)),
        ("name", JsonValue::from(s.name)),
        ("start_us", JsonValue::from(s.start_us as f64)),
        ("dur_us", JsonValue::from(s.dur_us as f64)),
        (
            "attrs",
            JsonValue::Object(
                s.attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::from(v.to_string())))
                    .collect(),
            ),
        ),
    ])
}

fn trace_json(t: &Trace) -> JsonValue {
    JsonValue::object([
        ("name", JsonValue::from(t.name.as_str())),
        ("total_us", JsonValue::from(t.total_us as f64)),
        ("dropped_spans", JsonValue::from(t.dropped_spans as f64)),
        (
            "spans",
            JsonValue::Array(t.spans.iter().map(span_json).collect()),
        ),
    ])
}

/// `GET /trace`: the slow-query ring buffer, newest first.  `limit` caps
/// how many traces are returned.
fn handle_trace(request: &Request) -> (u16, JsonValue) {
    let limit = match request.param("limit") {
        None => usize::MAX,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return bad_request(format!("parameter 'limit' is not a count: '{raw}'")),
        },
    };
    let traces = traj_obs::slow_log().recent();
    let listed: Vec<JsonValue> = traces.iter().take(limit).map(trace_json).collect();
    (
        200,
        JsonValue::object([
            ("count", JsonValue::from(traces.len())),
            ("traces", JsonValue::Array(listed)),
        ]),
    )
}
