//! End-to-end tests of the query server over real TCP: the smoke check
//! the CI gate relies on (start server → request via the test client →
//! assert 200 + valid JSON → graceful shutdown), plus routing, error
//! paths, concurrent clients and the ingest-while-serving path.

use std::sync::Arc;
use std::time::Duration;

use traj_geo::{BoundingBox, DirectedSegment, Point};
use traj_model::json::JsonValue;
use traj_model::{SimplifiedSegment, SimplifiedTrajectory};
use traj_service::{client, Server, ServiceConfig};
use traj_store::ShardedStore;

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
    let store = Arc::new(ShardedStore::with_default_config(4));
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
