//! End-to-end tests of the query server over real TCP: the smoke check
//! the CI gate relies on (start server → request via the test client →
//! assert 200 + valid JSON → graceful shutdown), plus routing, error
//! paths, byte-identity of the streamed query answers, concurrent clients
//! and the ingest-while-serving path.

use std::sync::Arc;
use std::time::Duration;

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, DirectedSegment, Point};
use traj_model::json::JsonValue;
use traj_model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_service::{client, Server, ServiceConfig};
use traj_store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

/// A straight eastbound line at `y`, `segments` segments of 100 m / 10 s.
fn line(y: f64, start_t: f64, segments: usize) -> SimplifiedTrajectory {
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        let t0 = start_t + i as f64 * 10.0;
        let a = Point::new(i as f64 * 100.0, y, t0);
        let b = Point::new((i + 1) as f64 * 100.0, y, t0 + 10.0);
        out.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
    }
    SimplifiedTrajectory::new(out, segments + 1)
}

fn sample_store(devices: u64) -> Arc<ShardedStore> {
    let store = Arc::new(ShardedStore::new(StoreConfig::default(), 4));
    for d in 0..devices {
        store
            .ingest(d, &line(d as f64 * 1000.0, 0.0, 8), 5.0)
            .unwrap();
    }
    store
}

fn get_json(server: &Server, path: &str) -> (u16, JsonValue) {
    let (status, body) = client::http_get(server.local_addr(), path).unwrap();
    let json =
        JsonValue::parse(&body).unwrap_or_else(|e| panic!("non-JSON body for {path}: {e}\n{body}"));
    (status, json)
}

#[test]
fn smoke_start_request_shutdown() {
    // The canonical serve smoke test: start, one request through the test
    // client, assert 200 + valid JSON, graceful shutdown.
    let server = Server::start(sample_store(3), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let (status, json) = get_json(&server, "/stats");
    assert_eq!(status, 200);
    assert_eq!(
        json.get("store")
            .and_then(|s| s.get("devices"))
            .and_then(JsonValue::as_usize),
        Some(3)
    );
    assert!(json.get("latency_us").and_then(JsonValue::as_f64).is_some());
    let stats = server.stop();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.client_errors, 0);
}

#[test]
fn endpoints_answer_correctly() {
    let server = Server::start(sample_store(5), "127.0.0.1:0", ServiceConfig::default()).unwrap();

    let (status, json) = get_json(&server, "/devices");
    assert_eq!(status, 200);
    assert_eq!(json.get("count").and_then(JsonValue::as_usize), Some(5));
    assert_eq!(
        json.get("devices")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(5)
    );
    let (_, json) = get_json(&server, "/devices?limit=2");
    assert_eq!(
        json.get("devices")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(2)
    );
    assert_eq!(json.get("count").and_then(JsonValue::as_usize), Some(5));

    // Time slice of device 2: t ∈ [15, 35] touches three segments.
    let (status, json) = get_json(&server, "/time_slice?device=2&from=15&to=35");
    assert_eq!(status, 200);
    let segments = json.get("segments").and_then(JsonValue::as_array).unwrap();
    assert_eq!(segments.len(), 3);
    for s in segments {
        assert!(s.get("t0").and_then(JsonValue::as_f64).unwrap() <= 35.0);
        assert!(s.get("t1").and_then(JsonValue::as_f64).unwrap() >= 15.0);
    }
    assert!(json
        .get("stats")
        .and_then(|s| s.get("skip_ratio"))
        .is_some());

    // Window around device 3's line (y = 3000).
    let (status, json) = get_json(&server, "/window?min_x=150&min_y=2990&max_x=450&max_y=3010");
    assert_eq!(status, 200);
    let matches = json.get("matches").and_then(JsonValue::as_array).unwrap();
    assert_eq!(matches.len(), 1);
    assert_eq!(
        matches[0].get("device").and_then(JsonValue::as_f64),
        Some(3.0)
    );

    // Interpolated position of device 1 mid-segment.
    let (status, json) = get_json(&server, "/position_at?device=1&t=25");
    assert_eq!(status, 200);
    let p = json.get("position").unwrap();
    assert!((p.get("x").and_then(JsonValue::as_f64).unwrap() - 250.0).abs() < 0.1);
    assert!((p.get("y").and_then(JsonValue::as_f64).unwrap() - 1000.0).abs() < 0.1);
    // Outside coverage → null position, still 200.
    let (status, json) = get_json(&server, "/position_at?device=1&t=1e9");
    assert_eq!(status, 200);
    assert_eq!(json.get("position"), Some(&JsonValue::Null));

    server.stop();
}

#[test]
fn error_paths_return_structured_json() {
    let server = Server::start(sample_store(2), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    for (path, want) in [
        ("/no_such_route", 404),
        ("/time_slice?device=1&from=0", 400), // missing 'to'
        ("/time_slice?device=x&from=0&to=1", 400), // bad device
        ("/time_slice?device=1&from=nan&to=1", 400), // non-finite
        ("/window?min_x=0&min_y=0&max_x=10", 400), // missing coordinate
        ("/window?min_x=0&min_y=0&max_x=10&max_y=10&from=1", 400), // 'from' without 'to'
        ("/position_at?device=1", 400),       // missing t
        ("/devices?limit=-3", 400),           // bad limit
    ] {
        let (status, json) = get_json(&server, path);
        assert_eq!(status, want, "{path}");
        assert!(
            json.get("error").and_then(JsonValue::as_str).is_some(),
            "{path}"
        );
    }
    // Unknown device is a valid (empty) query, not an error.
    let (status, json) = get_json(&server, "/time_slice?device=999&from=0&to=10");
    assert_eq!(status, 200);
    assert_eq!(
        json.get("segments")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(0)
    );
    let stats = server.stop();
    assert_eq!(stats.client_errors, 8);
    assert_eq!(stats.server_errors, 0);
}

#[test]
fn raw_garbage_and_non_get_are_rejected_politely() {
    use std::io::{Read, Write};
    let server = Server::start(sample_store(1), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    for raw in [
        "POST /stats HTTP/1.1\r\n\r\n",
        "garbage\r\n\r\n",
        "GET /stats FTP/9\r\n\r\n",
    ] {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_ascii_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            (400..=405).contains(&status) || status == 431,
            "{raw} → {status}"
        );
    }
    server.stop();
}

/// Rebuilds a stored segment from its JSON form.
fn segment_from_json(v: &JsonValue) -> SimplifiedSegment {
    let f = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap();
    let i = |key: &str| v.get(key).and_then(JsonValue::as_usize).unwrap();
    SimplifiedSegment::new(
        DirectedSegment::new(
            Point::new(f("x0"), f("y0"), f("t0")),
            Point::new(f("x1"), f("y1"), f("t1")),
        ),
        i("first_index"),
        i("last_index"),
    )
}

fn segments_from_json(v: Option<&JsonValue>) -> Vec<SimplifiedSegment> {
    v.and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(segment_from_json)
        .collect()
}

/// The `JsonValue` trees the query endpoints answer with, built the way
/// the server built them before it streamed its answers: the reference
/// the streamed bodies are compared against.
mod tree {
    use traj_model::json::JsonValue;
    use traj_model::SimplifiedSegment;
    use traj_store::{DeviceMatch, KnnResult, QueryStats};

    fn segment(s: &SimplifiedSegment) -> JsonValue {
        JsonValue::object([
            ("x0", JsonValue::from(s.segment.start.x)),
            ("y0", JsonValue::from(s.segment.start.y)),
            ("t0", JsonValue::from(s.segment.start.t)),
            ("x1", JsonValue::from(s.segment.end.x)),
            ("y1", JsonValue::from(s.segment.end.y)),
            ("t1", JsonValue::from(s.segment.end.t)),
            ("first_index", JsonValue::from(s.first_index)),
            ("last_index", JsonValue::from(s.last_index)),
        ])
    }

    fn segments(segments: &[SimplifiedSegment]) -> JsonValue {
        JsonValue::Array(segments.iter().map(segment).collect())
    }

    fn stats(stats: &QueryStats) -> JsonValue {
        JsonValue::object([
            ("blocks_in_scope", JsonValue::from(stats.blocks_in_scope)),
            ("blocks_decoded", JsonValue::from(stats.blocks_decoded)),
            (
                "segments_returned",
                JsonValue::from(stats.segments_returned),
            ),
            ("skip_ratio", JsonValue::from(stats.skip_ratio())),
        ])
    }

    pub fn time_slice(
        device: u64,
        from: f64,
        to: f64,
        found: &[SimplifiedSegment],
        query: &QueryStats,
    ) -> JsonValue {
        JsonValue::object([
            ("device", JsonValue::from(device as f64)),
            ("from", JsonValue::from(from)),
            ("to", JsonValue::from(to)),
            ("segments", segments(found)),
            ("stats", stats(query)),
        ])
    }

    pub fn window(matches: &[DeviceMatch], query: &QueryStats) -> JsonValue {
        let matches = matches
            .iter()
            .map(|m| {
                JsonValue::object([
                    ("device", JsonValue::from(m.device as f64)),
                    ("segments", segments(&m.segments)),
                ])
            })
            .collect();
        JsonValue::object([
            ("matches", JsonValue::Array(matches)),
            ("stats", stats(query)),
        ])
    }

    pub fn position(device: u64, t: f64, found: Option<traj_geo::Point>) -> JsonValue {
        let position = match found {
            Some(p) => JsonValue::object([
                ("x", JsonValue::from(p.x)),
                ("y", JsonValue::from(p.y)),
                ("t", JsonValue::from(p.t)),
            ]),
            None => JsonValue::Null,
        };
        JsonValue::object([
            ("device", JsonValue::from(device as f64)),
            ("t", JsonValue::from(t)),
            ("position", position),
        ])
    }

    pub fn knn(k: usize, query_points: usize, result: &KnnResult) -> JsonValue {
        let neighbors = result
            .neighbors
            .iter()
            .map(|n| {
                JsonValue::object([
                    ("device", JsonValue::from(n.device as f64)),
                    ("distance", JsonValue::from(n.distance)),
                ])
            })
            .collect();
        let s = &result.stats;
        JsonValue::object([
            ("k", JsonValue::from(k)),
            ("query_points", JsonValue::from(query_points)),
            ("neighbors", JsonValue::Array(neighbors)),
            (
                "stats",
                JsonValue::object([
                    ("devices_total", JsonValue::from(s.devices_total)),
                    ("devices_pruned", JsonValue::from(s.devices_pruned)),
                    ("blocks_total", JsonValue::from(s.blocks_total)),
                    ("blocks_decoded", JsonValue::from(s.blocks_decoded)),
                    (
                        "device_prune_ratio",
                        JsonValue::from(s.device_prune_ratio()),
                    ),
                    ("block_prune_ratio", JsonValue::from(s.block_prune_ratio())),
                ]),
            ),
        ])
    }
}

/// A seeded Taxi fleet compressed by OPERB into a 4-shard store.
fn seeded_store(
    seed: u64,
    devices: usize,
    points: usize,
) -> (Vec<(DeviceId, Trajectory)>, Arc<ShardedStore>) {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, seed);
    let fleet: Vec<(DeviceId, Trajectory)> = (0..devices)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, points)))
        .collect();
    let store = Arc::new(ShardedStore::new(
        StoreConfig::default().with_block_segments(32),
        4,
    ));
    let algorithm = FleetAlgorithm::by_name("operb").unwrap();
    compress_fleet_into_shared_store(&fleet, &PipelineConfig::new(30.0), &algorithm, &store)
        .unwrap();
    (fleet, store)
}

/// The body with its trailing `,"latency_us":N` member removed.
fn without_latency(body: &str) -> String {
    let at = body
        .rfind(",\"latency_us\":")
        .unwrap_or_else(|| panic!("no latency_us in {body}"));
    let latency = &body[at + ",\"latency_us\":".len()..];
    assert!(
        latency.ends_with('}')
            && latency[..latency.len() - 1]
                .bytes()
                .all(|b| b.is_ascii_digit()),
        "latency_us is not the last member: {body}"
    );
    format!("{}}}", &body[..at])
}

#[test]
fn streamed_answers_equal_the_tree_rendering_byte_for_byte() {
    let (fleet, store) = seeded_store(7, 24, 240);
    let server =
        Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut cases: Vec<(String, JsonValue)> = Vec::new();
    for (device, trajectory) in fleet.iter().step_by(5) {
        let device = *device;
        let p = trajectory.points()[trajectory.len() / 3];
        let q = trajectory.points()[2 * trajectory.len() / 3];
        // Slices: a middle range, everything, and a range past the data.
        for (from, to) in [(p.t, q.t), (-1e9, 1e12), (1e11, 1e12)] {
            let slice = store.time_slice(device, from, to);
            cases.push((
                format!("/time_slice?device={device}&from={from}&to={to}"),
                tree::time_slice(device, from, to, &slice.segments, &slice.stats),
            ));
        }
        // Windows around a point, with and without a time range, and one
        // that matches nothing.
        let around = BoundingBox {
            min_x: p.x - 700.0,
            min_y: p.y - 700.0,
            max_x: p.x + 700.0,
            max_y: p.y + 700.0,
        };
        let nowhere = BoundingBox {
            min_x: 1e9,
            min_y: 1e9,
            max_x: 1e9 + 1.0,
            max_y: 1e9 + 1.0,
        };
        for (window, time) in [(around, None), (around, Some((p.t, q.t))), (nowhere, None)] {
            let mut path = format!(
                "/window?min_x={}&min_y={}&max_x={}&max_y={}",
                window.min_x, window.min_y, window.max_x, window.max_y
            );
            if let Some((from, to)) = time {
                path.push_str(&format!("&from={from}&to={to}"));
            }
            let q = store.window_query(&window, time);
            cases.push((path, tree::window(&q.matches, &q.stats)));
        }
        // Positions: a hit mid-trajectory and a miss (`null`).
        for t in [(p.t + q.t) / 2.0, 1e12] {
            cases.push((
                format!("/position_at?device={device}&t={t}"),
                tree::position(device, t, store.position_at(device, t)),
            ));
        }
        // kNN from one point and from three.
        let probe = [p, q, trajectory.points()[0]];
        for (k, points) in [(1, &probe[..1]), (5, &probe[..])] {
            let listed: Vec<String> = points.iter().map(|p| format!("{},{}", p.x, p.y)).collect();
            let query: Vec<Point> = points.iter().map(|p| Point::new(p.x, p.y, 0.0)).collect();
            cases.push((
                format!("/knn?points={}&k={k}", listed.join(";")),
                tree::knn(k, points.len(), &store.knn(&query, k)),
            ));
        }
    }
    let mut matched_windows = 0;
    for (path, expected) in &cases {
        let (status, body) = client::http_get(server.local_addr(), path).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        assert_eq!(without_latency(&body), expected.to_string(), "{path}");
        if path.starts_with("/window") && !body.starts_with("{\"matches\":[]") {
            matched_windows += 1;
        }
    }
    assert!(
        matched_windows >= 5,
        "only {matched_windows} windows matched"
    );
    server.stop();
}

/// Sends one `/time_slice`, `/window` or `/position_at` request (by
/// `kind`) and asserts its answer equals the direct store call.
fn assert_http_matches_store(
    addr: std::net::SocketAddr,
    store: &ShardedStore,
    kind: u64,
    device: u64,
    t0: f64,
) {
    // Spans the lines of `device` and its lower neighbour.
    let window = BoundingBox {
        min_x: t0 * 10.0 + 50.0,
        min_y: device as f64 * 1000.0 - 1010.0,
        max_x: t0 * 10.0 + 300.0,
        max_y: device as f64 * 1000.0 + 10.0,
    };
    let (t1, t) = (t0 + 25.0, t0 + 3.5);
    let path = match kind {
        0 => format!("/time_slice?device={device}&from={t0}&to={t1}"),
        1 => format!(
            "/window?min_x={}&min_y={}&max_x={}&max_y={}",
            window.min_x, window.min_y, window.max_x, window.max_y
        ),
        _ => format!("/position_at?device={device}&t={t}"),
    };
    let (status, body) = client::http_get(addr, &path).unwrap();
    assert_eq!(status, 200, "{path}: {body}");
    let json = JsonValue::parse(&body).unwrap();
    match kind {
        0 => assert_eq!(
            segments_from_json(json.get("segments")),
            store.time_slice(device, t0, t1).segments,
            "{path}"
        ),
        1 => {
            let got: Vec<(u64, Vec<SimplifiedSegment>)> = json
                .get("matches")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let device = m.get("device").and_then(JsonValue::as_usize).unwrap();
                    (device as u64, segments_from_json(m.get("segments")))
                })
                .collect();
            let want: Vec<(u64, Vec<SimplifiedSegment>)> = store
                .window_query(&window, None)
                .matches
                .into_iter()
                .map(|m| (m.device, m.segments))
                .collect();
            assert!(!want.is_empty(), "{path}");
            assert_eq!(got, want, "{path}");
        }
        _ => {
            let position = json.get("position").unwrap();
            let coord = |key: &str| position.get(key).and_then(JsonValue::as_f64).unwrap();
            let want = store.position_at(device, t).unwrap();
            assert_eq!(
                [coord("x"), coord("y"), coord("t")],
                [want.x, want.y, want.t],
                "{path}"
            );
        }
    }
}

#[test]
fn many_concurrent_clients_get_consistent_answers() {
    // 32 clients mix time slices, windows and position lookups; every
    // HTTP answer must equal the direct store call on the same store.
    let store = sample_store(16);
    let config = ServiceConfig::default()
        .with_workers(4)
        .with_queue_depth(64);
    let server = Arc::new(Server::start(Arc::clone(&store), "127.0.0.1:0", config).unwrap());
    let addr = server.local_addr();
    let handles: Vec<_> = (0..32u64)
        .map(|i| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for round in 0..6u64 {
                    let t0 = (round * 10) as f64;
                    assert_http_matches_store(addr, &store, (i + round) % 3, (i + round) % 16, t0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = Arc::try_unwrap(server).ok().unwrap().stop();
    assert_eq!(stats.requests, 32 * 6);
    assert_eq!(stats.client_errors + stats.server_errors, 0);
}

#[test]
fn ingest_while_serving_is_visible_to_queries() {
    let store = sample_store(4);
    let server =
        Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let (_, before) = get_json(&server, "/stats");
    assert_eq!(
        before
            .get("store")
            .and_then(|s| s.get("devices"))
            .and_then(JsonValue::as_usize),
        Some(4)
    );
    // New device arrives while the server is up — no restart, no relock.
    store.ingest(99, &line(9900.0, 0.0, 4), 5.0).unwrap();
    let (_, after) = get_json(&server, "/stats");
    assert_eq!(
        after
            .get("store")
            .and_then(|s| s.get("devices"))
            .and_then(JsonValue::as_usize),
        Some(5)
    );
    let (status, json) = get_json(&server, "/time_slice?device=99&from=0&to=100");
    assert_eq!(status, 200);
    assert_eq!(
        json.get("segments")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(4)
    );
    server.stop();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = Server::start(sample_store(1), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    let (status, body) = client::http_get(addr, "/shutdown").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"));
    // join() returns because the endpoint triggered the stop.
    let stats = server.join();
    assert!(stats.requests >= 1);
    // The listener is gone: new connections fail.
    std::thread::sleep(Duration::from_millis(50));
    assert!(client::http_get_timeout(addr, "/stats", Duration::from_millis(500)).is_err());
}

#[test]
fn shutdown_endpoint_can_be_disabled() {
    let config = ServiceConfig {
        enable_shutdown_endpoint: false,
        ..ServiceConfig::default()
    };
    let server = Server::start(sample_store(1), "127.0.0.1:0", config).unwrap();
    let (status, _) = get_json(&server, "/shutdown");
    assert_eq!(status, 404);
    // Still serving.
    let (status, _) = get_json(&server, "/stats");
    assert_eq!(status, 200);
    server.stop();
}

/// One response read off a raw socket.
struct RawResponse {
    status: u16,
    /// The `Connection` header's value.
    connection: String,
    body: String,
}

/// Reads one `Content-Length`-framed response from `reader`.
fn read_raw_response(reader: &mut impl std::io::BufRead) -> RawResponse {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let (mut connection, mut length) = (String::new(), None);
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').unwrap();
        match name.to_ascii_lowercase().as_str() {
            "connection" => connection = value.trim().to_string(),
            "content-length" => length = Some(value.trim().parse::<usize>().unwrap()),
            _ => {}
        }
    }
    let mut body = vec![0; length.expect("a Content-Length header")];
    reader.read_exact(&mut body).unwrap();
    RawResponse {
        status,
        connection,
        body: String::from_utf8(body).unwrap(),
    }
}

/// A raw client socket: the stream to write requests on and a buffered
/// reader over a clone of it.
fn raw_connect(
    addr: std::net::SocketAddr,
) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reader = std::io::BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Whether the server has closed the connection behind `reader`.
fn at_eof(reader: &mut impl std::io::BufRead) -> bool {
    match reader.fill_buf() {
        Ok(buf) => buf.is_empty(),
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    }
}

#[test]
fn one_socket_carries_many_requests_in_order() {
    use std::io::Write;
    let server = Server::start(sample_store(2), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let (mut stream, mut reader) = raw_connect(server.local_addr());
    let request = |t: usize| format!("GET /position_at?device=1&t={t} HTTP/1.1\r\nHost: x\r\n\r\n");
    let mut t = 0;
    while t < 20 {
        // Requests 10 and 11 leave in one write: the server must answer
        // both, in order, from what it already buffered.
        let batch = if t == 10 { 2 } else { 1 };
        let bytes: String = (t..t + batch).map(request).collect();
        stream.write_all(bytes.as_bytes()).unwrap();
        for t in t..t + batch {
            let response = read_raw_response(&mut reader);
            assert_eq!(response.status, 200, "request {t}: {}", response.body);
            assert_eq!(response.connection, "keep-alive", "request {t}");
            let json = JsonValue::parse(&response.body).unwrap();
            assert_eq!(
                json.get("t").and_then(JsonValue::as_usize),
                Some(t),
                "answers come back in request order"
            );
        }
        t += batch;
    }
    drop(stream);
    let stats = server.stop();
    assert_eq!(stats.requests, 20);
}

#[test]
fn http_1_0_and_connection_close_end_the_connection() {
    use std::io::Write;
    let server = Server::start(sample_store(1), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    for raw in [
        "GET /stats HTTP/1.0\r\n\r\n",
        "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    ] {
        let (mut stream, mut reader) = raw_connect(server.local_addr());
        stream.write_all(raw.as_bytes()).unwrap();
        let response = read_raw_response(&mut reader);
        assert_eq!(response.status, 200, "{raw:?}");
        assert_eq!(response.connection, "close", "{raw:?}");
        assert!(at_eof(&mut reader), "{raw:?}: the server must close");
    }
    server.stop();
}

#[test]
fn idle_connections_hold_no_handler_and_the_open_bound_holds() {
    use std::io::{Read, Write};
    let (workers, queue_depth) = (2, 3);
    let config = ServiceConfig::default()
        .with_workers(workers)
        .with_queue_depth(queue_depth);
    let server = Server::start(sample_store(2), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    // workers + 1 idle connections: one kept alive after a request, the
    // rest silent since they connected.
    let mut idle = Vec::new();
    let (mut stream, mut reader) = raw_connect(addr);
    stream.write_all(b"GET /devices HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_raw_response(&mut reader).status, 200);
    idle.push(stream);
    for _ in 0..workers {
        idle.push(raw_connect(addr).0);
    }
    let started = std::time::Instant::now();
    let (status, _) = client::http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "/stats took {:?} behind {} idle connections",
        started.elapsed(),
        workers + 1
    );
    // The client keeps its connection too; fill the rest of the bound.
    while idle.len() + 1 < workers + queue_depth {
        idle.push(raw_connect(addr).0);
    }
    // The refusal is written on accept; a request sent first would be
    // unread at close, and the reset could beat the answer.
    let (mut extra, _) = raw_connect(addr);
    let mut refused = String::new();
    extra.read_to_string(&mut refused).unwrap();
    assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
    assert!(refused.contains("Connection: close\r\n"), "{refused}");
    assert_eq!(server.stats().rejected, 1);
    // The admitted connections are still served.
    let (status, _) = client::http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    drop(idle);
    let stats = server.stop();
    assert_eq!(stats.rejected, 1);
}

#[test]
fn stop_is_prompt_while_a_client_holds_an_idle_connection() {
    let server = Server::start(sample_store(1), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    // The test thread's client now keeps an idle connection open.
    let (status, _) = client::http_get(server.local_addr(), "/stats").unwrap();
    assert_eq!(status, 200);
    let (_silent, _) = raw_connect(server.local_addr());
    let started = std::time::Instant::now();
    server.stop();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "stop() waited {:?} for idle connections",
        started.elapsed()
    );
}

#[test]
fn shutdown_over_a_kept_alive_connection_answers_then_closes() {
    use std::io::Write;
    let server = Server::start(sample_store(1), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let (mut stream, mut reader) = raw_connect(server.local_addr());
    stream.write_all(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_raw_response(&mut reader).connection, "keep-alive");
    stream.write_all(b"GET /shutdown HTTP/1.1\r\n\r\n").unwrap();
    let response = read_raw_response(&mut reader);
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"ok\":true"));
    assert_eq!(response.connection, "close");
    assert!(at_eof(&mut reader));
    assert_eq!(server.join().requests, 2);
}

#[test]
fn a_trickling_client_is_closed_at_the_header_deadline() {
    use std::io::{Read, Write};
    // One handler, a 1 s deadline, and a client that sends a byte every
    // 200 ms: each read would finish within its timeout, but the head
    // must be complete 1 s after its first byte.
    let config = ServiceConfig {
        io_timeout: Duration::from_secs(1),
        ..ServiceConfig::default().with_workers(1)
    };
    let server = Server::start(sample_store(1), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let (mut stream, _) = raw_connect(addr);
    let mut reader = stream.try_clone().unwrap();
    let started = std::time::Instant::now();
    let trickle = std::thread::spawn(move || {
        for byte in b"GET /stats HTTP/1.1\r\nX-Slow: "
            .iter()
            .chain([b'a'; 64].iter())
        {
            if stream.write_all(&[*byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    let asked = std::time::Instant::now();
    let (status, _) = client::http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    assert!(
        asked.elapsed() < Duration::from_millis(500),
        "/stats took {:?} beside a trickling client",
        asked.elapsed()
    );
    // The server closes without an answer: EOF, or a reset for the
    // bytes it never read.
    let mut buf = [0u8; 64];
    match reader.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected answer {:?}", String::from_utf8_lossy(&buf[..n])),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    let closed = started.elapsed();
    assert!(
        closed < Duration::from_millis(1500),
        "closed after {closed:?}"
    );
    assert!(
        closed >= Duration::from_millis(900),
        "closed after {closed:?}, before the deadline"
    );
    trickle.join().unwrap();
    server.stop();
}

#[test]
fn a_connection_the_server_idled_out_is_replaced_transparently() {
    let config = ServiceConfig {
        io_timeout: Duration::from_millis(300),
        ..ServiceConfig::default()
    };
    let server = Server::start(sample_store(1), "127.0.0.1:0", config).unwrap();
    let (status, _) = client::http_get(server.local_addr(), "/stats").unwrap();
    assert_eq!(status, 200);
    // The server closes the kept connection after 300 ms idle; the next
    // request finds it closed and goes once more on a fresh one.
    std::thread::sleep(Duration::from_millis(600));
    let (status, _) = client::http_get(server.local_addr(), "/stats").unwrap();
    assert_eq!(status, 200);
    assert_eq!(server.stop().requests, 2);
}

/// `body` with the value after each `"key":` of `keys`, and after
/// `"latency_us":`, replaced by `#`: the timings, and the counts of the
/// process-wide slow log, that change from run to run.
fn masked(body: &str, keys: &[&str]) -> String {
    let mut out = body.to_string();
    for key in keys.iter().chain(&["latency_us"]) {
        let pattern = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pattern) {
            let start = from + at + pattern.len();
            let len = out[start..]
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "#");
            from = start;
        }
    }
    out
}

/// `GET path` answered as `status body`, with the values of `volatile`
/// and the latency masked.
fn pinned_get(addr: std::net::SocketAddr, path: &str, volatile: &[&str]) -> String {
    let (status, body) = client::http_get(addr, path).unwrap();
    format!("{status} {}", masked(&body, volatile))
}

/// One request sent on a raw socket, answered as `status body` with the
/// latency masked; the server closes the connection after it.
fn raw_exchange(addr: std::net::SocketAddr, request: &str) -> String {
    use std::io::{Read, Write};
    let (mut stream, _) = raw_connect(addr);
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.split_ascii_whitespace().nth(1).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    format!("{status} {}", masked(body, &[]))
}

/// The bytes of every body the streamed-answer comparison above does not
/// cover, pinned literally: `/devices`, `/geofence_add`, `/geofences`,
/// `/subscribe`, `/trace`, `/stats` (in memory, and durable and paged),
/// each handler's 400s, the 404, the HTTP-level errors and `/shutdown`.
/// A fence name and echoed parameters hold `"`, `\`, a control character
/// and non-ASCII text, so the escaping is pinned too.  Every mismatch is
/// reported at once.
#[test]
fn every_other_body_keeps_its_bytes() {
    let mut mismatches = Vec::new();
    let mut pin = |what: &str, got: String, want: &str| {
        if got != want {
            mismatches.push(format!("{what}\n  got:  {got}\n  want: {want}"));
        }
    };
    let store = sample_store(3);
    let server =
        Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    let get = |path: &str, volatile: &[&str]| pinned_get(addr, path, volatile);

    for (path, want) in [
        (
            "/devices",
            r#"200 {"count":3,"devices":[0,1,2],"latency_us":#}"#,
        ),
        (
            "/devices?limit=2",
            r#"200 {"count":3,"devices":[0,1],"latency_us":#}"#,
        ),
        (
            "/geofence_add?name=q%22%5C%01%C3%A9&min_x=-50&min_y=-50&max_x=150&max_y=50",
            r#"200 {"id":1,"name":"q\"\\\u0001é","latency_us":#}"#,
        ),
        (
            "/geofence_add?name=timed&min_x=0&min_y=900&max_x=300&max_y=1100&from=0.5&to=40.25",
            r#"200 {"id":2,"name":"timed","latency_us":#}"#,
        ),
    ] {
        pin(path, get(path, &[]), want);
    }
    // Device 7 crosses the untimed fence, device 8 the timed one.
    store.ingest(7, &line(0.0, 100.0, 8), 5.0).unwrap();
    store.ingest(8, &line(1000.0, 0.0, 8), 5.0).unwrap();
    for (path, want) in [
        (
            "/geofences",
            r#"200 {"fences":[{"id":1,"name":"q\"\\\u0001é","min_x":-50,"min_y":-50,"max_x":150,"max_y":50},{"id":2,"name":"timed","min_x":0,"min_y":900,"max_x":300,"max_y":1100,"from":0.5,"to":40.25}],"stats":{"fences":2,"alerts_fired":2,"blocks_checked":4,"blocks_skipped":2,"subscriptions":0,"ring_evicted":0,"subscriber_dropped":0},"latency_us":#}"#,
        ),
        (
            "/subscribe",
            r#"200 {"alerts":[{"seq":1,"fence_id":1,"fence_name":"q\"\\\u0001é","device":7,"block":0,"t_min":100,"t_max":180,"num_segments":8},{"seq":2,"fence_id":2,"fence_name":"timed","device":8,"block":0,"t_min":0,"t_max":80,"num_segments":8}],"next_cursor":2,"missed":0,"latency_us":#}"#,
        ),
        (
            "/subscribe?cursor=1&limit=1&fence=2",
            r#"200 {"alerts":[{"seq":2,"fence_id":2,"fence_name":"timed","device":8,"block":0,"t_min":0,"t_max":80,"num_segments":8}],"next_cursor":2,"missed":0,"latency_us":#}"#,
        ),
        (
            "/subscribe?cursor=9",
            r#"200 {"alerts":[],"next_cursor":9,"missed":0,"latency_us":#}"#,
        ),
    ] {
        pin(path, get(path, &[]), want);
    }

    for (path, want) in [
        (
            "/devices?limit=-3",
            r#"400 {"error":"parameter 'limit' is not a count: '-3'","latency_us":#}"#,
        ),
        (
            "/time_slice?device=a%22b%5Cc&from=0&to=1",
            r#"400 {"error":"parameter 'device' is not a device id: 'a\"b\\c'","latency_us":#}"#,
        ),
        (
            "/time_slice?from=0&to=1",
            r#"400 {"error":"missing parameter 'device'","latency_us":#}"#,
        ),
        (
            "/time_slice?device=1&from=0",
            r#"400 {"error":"missing parameter 'to'","latency_us":#}"#,
        ),
        (
            "/time_slice?device=1&from=x%22%5C&to=1",
            r#"400 {"error":"parameter 'from' is not a number: 'x\"\\'","latency_us":#}"#,
        ),
        (
            "/time_slice?device=1&from=nan&to=1",
            r#"400 {"error":"parameter 'from' must be finite","latency_us":#}"#,
        ),
        (
            "/window?min_x=0&min_y=0&max_x=10",
            r#"400 {"error":"missing parameter 'max_y'","latency_us":#}"#,
        ),
        (
            "/window?min_x=0&min_y=0&max_x=10&max_y=10&from=1",
            r#"400 {"error":"'from' and 'to' must be given together","latency_us":#}"#,
        ),
        (
            "/position_at?device=1",
            r#"400 {"error":"missing parameter 't'","latency_us":#}"#,
        ),
        (
            "/knn?x=1",
            r#"400 {"error":"missing parameter 'y'","latency_us":#}"#,
        ),
        (
            "/knn?points=1,2,3",
            r#"400 {"error":"point 0 is not 'x,y': '1,2,3' (separate points with ';')","latency_us":#}"#,
        ),
        (
            "/knn?points=1,2;a,b",
            r#"400 {"error":"point 1 has non-numeric coordinates: 'a,b'","latency_us":#}"#,
        ),
        (
            "/knn?points=inf,1",
            r#"400 {"error":"point 0 must have finite coordinates","latency_us":#}"#,
        ),
        (
            "/knn?points=;",
            r#"400 {"error":"'points' lists no points","latency_us":#}"#,
        ),
        (
            "/knn?x=1&y=2&k=0",
            r#"400 {"error":"parameter 'k' must be a positive count","latency_us":#}"#,
        ),
        (
            "/geofence_add?min_x=0",
            r#"400 {"error":"missing parameter 'min_y'","latency_us":#}"#,
        ),
        (
            "/geofence_add?min_x=10&min_y=0&max_x=0&max_y=10",
            r#"400 {"error":"fence region is inverted (min > max)","latency_us":#}"#,
        ),
        (
            "/geofence_add?min_x=0&min_y=0&max_x=1&max_y=1&to=3",
            r#"400 {"error":"'from' and 'to' must be given together","latency_us":#}"#,
        ),
        (
            "/subscribe?cursor=-1",
            r#"400 {"error":"parameter 'cursor' is not a sequence number","latency_us":#}"#,
        ),
        (
            "/subscribe?limit=0",
            r#"400 {"error":"parameter 'limit' must be a positive count","latency_us":#}"#,
        ),
        (
            "/subscribe?fence=x%5C",
            r#"400 {"error":"parameter 'fence' is not a fence id: 'x\\'","latency_us":#}"#,
        ),
        (
            "/trace?limit=x",
            r#"400 {"error":"parameter 'limit' is not a count: 'x'","latency_us":#}"#,
        ),
        (
            "/no_such%22route",
            r#"404 {"error":"no such endpoint: /no_such\"route","latency_us":#}"#,
        ),
    ] {
        pin(path, get(path, &[]), want);
    }
    let many: Vec<String> = (0..65).map(|i| format!("{i},0")).collect();
    pin(
        "/knn with 65 points",
        get(&format!("/knn?points={}", many.join(";")), &[]),
        r#"400 {"error":"'points' lists more than 64 points","latency_us":#}"#,
    );
    pin(
        "POST",
        raw_exchange(addr, "POST /stats HTTP/1.1\r\n\r\n"),
        r#"405 {"error":"unsupported method POST","latency_us":#}"#,
    );
    pin(
        "garbage",
        raw_exchange(addr, "garbage\r\n\r\n"),
        r#"400 {"error":"malformed request: request line missing target","latency_us":#}"#,
    );
    pin(
        "/stats",
        get("/stats", &["mean_latency_us", "uptime_seconds"]),
        r#"200 {"store":{"devices":5,"blocks":5,"segments":40,"points":45,"stored_bytes":793,"resident_bytes":433,"bytes_per_point":17.622222222222224,"compression_factor":1.3619167717528373},"memory":{"resident_payload_bytes":433,"index_bytes":5040,"arena_creates":0,"arena_reuses":0},"server":{"requests":34,"client_errors":26,"server_errors":0,"rejected":0,"mean_latency_us":#,"skip_ratio":0,"num_shards":4,"uptime_seconds":#},"query":{"geofence":{"fences":2,"alerts_fired":2,"blocks_checked":4,"blocks_skipped":2,"subscriptions":0,"ring_evicted":0,"subscriber_dropped":0}},"latency_us":#}"#,
    );
    pin(
        "/shutdown",
        get("/shutdown", &[]),
        r#"200 {"ok":true,"latency_us":#}"#,
    );
    server.join();

    // Every request traced, so that the newest two in this server's slow
    // log are a trace with spans (one of them without attrs) and one
    // without spans.
    let config = ServiceConfig::default().with_slow_query_threshold(Some(Duration::ZERO));
    let server = Server::start(sample_store(3), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    pinned_get(addr, "/devices?limit=0", &[]);
    pinned_get(addr, "/position_at?device=1&t=25", &[]);
    pin(
        "/trace?limit=2",
        pinned_get(addr, "/trace?limit=2", &["total_us", "start_us", "dur_us"]),
        r#"200 {"count":2,"traces":[{"name":"/position_at?device=1&t=25","total_us":#,"dropped_spans":0,"spans":[{"id":2,"parent":1,"name":"index_walk","start_us":#,"dur_us":#,"attrs":{"scope":"device_log"}},{"id":3,"parent":1,"name":"decode","start_us":#,"dur_us":#,"attrs":{"format":"varint","bytes":"87"}},{"id":1,"parent":0,"name":"position_at","start_us":#,"dur_us":#,"attrs":{}}]},{"name":"/devices?limit=0","total_us":#,"dropped_spans":0,"spans":[]}],"latency_us":#}"#,
    );
    server.stop();

    // A durable, paged store with a standing fence: every `/stats`
    // section exists.
    let dir = std::env::temp_dir().join(format!("traj-service-pins-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = StoreConfig::default()
        .with_block_segments(4)
        .with_cache_bytes(Some(4096))
        .with_durability(traj_store::DurabilityMode::WalGroupCommit(
            Duration::from_millis(1),
        ));
    {
        let (store, _) = ShardedStore::open_durable(&dir, 4, config).unwrap();
        for d in 0..3 {
            store
                .ingest(d, &line(d as f64 * 1000.0, 0.0, 8), 5.0)
                .unwrap();
        }
    }
    let (store, _) = ShardedStore::open_durable(&dir, 4, config).unwrap();
    let west = BoundingBox {
        min_x: -50.0,
        min_y: -50.0,
        max_x: 150.0,
        max_y: 50.0,
    };
    store.geofences().register("west", west, None).unwrap();
    let server = Server::start(Arc::new(store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    pinned_get(addr, "/time_slice?device=1&from=0&to=40", &[]);
    pin(
        "durable /stats",
        pinned_get(
            addr,
            "/stats",
            &[
                "mean_latency_us",
                "uptime_seconds",
                "sync_p50_us",
                "sync_p99_us",
            ],
        ),
        r#"200 {"store":{"devices":3,"blocks":6,"segments":24,"points":27,"stored_bytes":722,"resident_bytes":0,"bytes_per_point":26.74074074074074,"compression_factor":0.8975069252077562},"memory":{"resident_payload_bytes":0,"index_bytes":2976,"arena_creates":1,"arena_reuses":0},"server":{"requests":1,"client_errors":0,"server_errors":0,"rejected":0,"mean_latency_us":#,"skip_ratio":0,"num_shards":4,"uptime_seconds":#},"query":{"geofence":{"fences":1,"alerts_fired":0,"blocks_checked":0,"blocks_skipped":0,"subscriptions":0,"ring_evicted":0,"subscriber_dropped":0}},"wal":{"mode":"wal-group-commit","wal_bytes":30,"ingests_appended":0,"records_appended":0,"syncs":0,"sync_p50_us":#,"sync_p99_us":#,"records_replayed":12,"ingests_replayed":3,"checkpoints":0},"cache":{"capacity_bytes":4096,"resident_bytes":98,"resident_pages":2,"hits":0,"misses":2,"evictions":0,"hit_ratio":0},"latency_us":#}"#,
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A device id above 2⁵³ comes back digit for digit from every endpoint
/// that names it: `f64` would round 2⁵³ + 1 to 2⁵³.  The raw body bytes
/// are checked, since parsing them as doubles would lose the difference.
#[test]
fn ids_above_2_pow_53_come_back_exact_on_every_endpoint() {
    const DEVICE: u64 = (1 << 53) + 1;
    let store = Arc::new(ShardedStore::new(StoreConfig::default(), 4));
    let west = BoundingBox {
        min_x: -50.0,
        min_y: -50.0,
        max_x: 150.0,
        max_y: 50.0,
    };
    store.geofences().register("west", west, None).unwrap();
    store.ingest(DEVICE, &line(0.0, 0.0, 8), 5.0).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    for (path, want) in [
        ("/devices", r#""devices":[9007199254740993]"#),
        ("/subscribe", r#""device":9007199254740993,"#),
        (
            "/time_slice?device=9007199254740993&from=0&to=80",
            r#"{"device":9007199254740993,"#,
        ),
        (
            "/position_at?device=9007199254740993&t=5",
            r#"{"device":9007199254740993,"#,
        ),
        (
            "/window?min_x=0&min_y=-10&max_x=100&max_y=10",
            r#"{"device":9007199254740993,"#,
        ),
        ("/knn?x=0&y=0", r#"{"device":9007199254740993,"#),
    ] {
        let (status, body) = client::http_get(addr, path).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        assert!(body.contains(want), "{path}: {body}");
    }
    server.stop();
}
