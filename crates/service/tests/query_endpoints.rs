//! End-to-end tests of the query-engine endpoints over real TCP: `/knn`
//! ranking and pruning stats, `/geofence_add` + `/geofences` + live
//! `/subscribe` polling while ingest runs, the geofence sections of
//! `/stats` and `/metrics`, and device ids beyond `f64`'s exact integers.

use std::sync::Arc;

use traj_geo::{DirectedSegment, Point};
use traj_model::json::JsonValue;
use traj_model::{SimplifiedSegment, SimplifiedTrajectory};
use traj_service::{client, Server, ServiceConfig};
use traj_store::{ShardedStore, StoreConfig};

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
fn knn_endpoint_ranks_devices_and_reports_pruning() {
    let server = Server::start(sample_store(8), "127.0.0.1:0", ServiceConfig::default()).unwrap();

    // A probe on device 2's line (y = 2000): itself first at ~0 distance,
    // then its neighbours at ~1000 m.
    let (status, json) = get_json(&server, "/knn?x=250&y=2000&k=3");
    assert_eq!(status, 200);
    let neighbors = json.get("neighbors").and_then(JsonValue::as_array).unwrap();
    assert_eq!(neighbors.len(), 3);
    assert_eq!(
        neighbors[0].get("device").and_then(JsonValue::as_f64),
        Some(2.0)
    );
    assert!(
        neighbors[0]
            .get("distance")
            .and_then(JsonValue::as_f64)
            .unwrap()
            < 1.0
    );
    let runner_up = neighbors[1]
        .get("distance")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(
        (runner_up - 1000.0).abs() < 10.0,
        "next line is ~1 km away ({runner_up})"
    );
    let stats = json.get("stats").unwrap();
    assert_eq!(
        stats.get("devices_total").and_then(JsonValue::as_usize),
        Some(8)
    );
    assert!(stats
        .get("device_prune_ratio")
        .and_then(JsonValue::as_f64)
        .is_some());

    // A multi-point query trajectory via `points=`.
    let (status, json) = get_json(&server, "/knn?points=100,2000;700,2000&k=1");
    assert_eq!(status, 200);
    let neighbors = json.get("neighbors").and_then(JsonValue::as_array).unwrap();
    assert_eq!(
        neighbors[0].get("device").and_then(JsonValue::as_f64),
        Some(2.0)
    );
    assert_eq!(
        json.get("query_points").and_then(JsonValue::as_usize),
        Some(2)
    );

    // Up to 64 query points answer; 65 are refused (see the table below).
    let points = |n: usize| -> String {
        (0..n)
            .map(|i| format!("{},2000", i * 10))
            .collect::<Vec<_>>()
            .join(";")
    };
    let (status, json) = get_json(&server, &format!("/knn?points={}&k=2", points(64)));
    assert_eq!(status, 200);
    assert_eq!(
        json.get("query_points").and_then(JsonValue::as_usize),
        Some(64)
    );
    let too_many = format!("/knn?points={}&k=2", points(65));

    // Malformed queries are client errors, not panics.
    for path in [
        too_many.as_str(),       // more than 64 points
        "/knn?k=3",              // no query point
        "/knn?x=1&y=2&k=0",      // k must be positive
        "/knn?x=1&y=2&k=nope",   // k not a count
        "/knn?points=1,2;3&k=1", // point missing a coordinate
        "/knn?points=1,2,3&k=1", // too many coordinates
        "/knn?points=a,b&k=1",   // non-numeric
        "/knn?points=inf,0&k=1", // non-finite
        "/knn?x=nan&y=0&k=1",    // non-finite
    ] {
        let (status, json) = get_json(&server, path);
        assert_eq!(status, 400, "{path}");
        assert!(
            json.get("error").and_then(JsonValue::as_str).is_some(),
            "{path}"
        );
    }
    let (_, json) = get_json(&server, &too_many);
    let error = json.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("64"), "the limit is named: {error}");
    server.stop();
}

/// Device ids are `u64`: the streamed endpoints write them exactly, not
/// through `f64`, which would round 2⁵³ + 1 down to 2⁵³.
#[test]
fn streamed_endpoints_write_device_ids_above_2_pow_53_exactly() {
    let device = (1u64 << 53) + 1;
    let store = Arc::new(ShardedStore::new(StoreConfig::default(), 4));
    store.ingest(device, &line(0.0, 0.0, 8), 5.0).unwrap();
    let server = Server::start(store, "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let want = "\"device\":9007199254740993";
    for path in [
        format!("/time_slice?device={device}&from=0&to=80"),
        format!("/position_at?device={device}&t=25"),
        "/window?min_x=0&min_y=-10&max_x=300&max_y=10".to_string(),
        "/knn?x=250&y=0&k=1".to_string(),
    ] {
        let (status, body) = client::http_get(server.local_addr(), &path).unwrap();
        assert_eq!(status, 200, "{path}: {body}");
        assert!(body.contains(want), "{path}: {body}");
    }
    server.stop();
}

#[test]
fn geofence_lifecycle_over_http_with_live_ingest() {
    let store = sample_store(3);
    let server =
        Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default()).unwrap();

    // No fences yet.
    let (status, json) = get_json(&server, "/geofences");
    assert_eq!(status, 200);
    assert_eq!(
        json.get("fences")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(0)
    );

    // Register a fence over the western 150 m of the corridor at y ≈ 0.
    let (status, json) = get_json(
        &server,
        "/geofence_add?name=west&min_x=0&min_y=-50&max_x=150&max_y=50",
    );
    assert_eq!(status, 200);
    let fence_id = json.get("id").and_then(JsonValue::as_f64).unwrap() as u64;
    let (_, json) = get_json(&server, "/geofences");
    let fences = json.get("fences").and_then(JsonValue::as_array).unwrap();
    assert_eq!(fences.len(), 1);
    assert_eq!(
        fences[0].get("name").and_then(JsonValue::as_str),
        Some("west")
    );

    // Fences are forward-only: nothing fired for pre-registration blocks.
    let (_, json) = get_json(&server, "/subscribe?cursor=0");
    assert_eq!(
        json.get("alerts")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(0)
    );

    // A new device crosses the fence while the server is up.
    store.ingest(50, &line(0.0, 0.0, 8), 5.0).unwrap();
    let (status, json) = get_json(&server, "/subscribe?cursor=0");
    assert_eq!(status, 200);
    let alerts = json.get("alerts").and_then(JsonValue::as_array).unwrap();
    assert_eq!(alerts.len(), 1);
    assert_eq!(
        alerts[0].get("device").and_then(JsonValue::as_f64),
        Some(50.0)
    );
    assert_eq!(
        alerts[0].get("fence_name").and_then(JsonValue::as_str),
        Some("west")
    );
    let next = json.get("next_cursor").and_then(JsonValue::as_f64).unwrap() as u64;
    assert_eq!(json.get("missed").and_then(JsonValue::as_f64), Some(0.0));

    // The cursor protocol: a caught-up poll is empty, a filtered poll for
    // another fence id sees nothing but still advances.
    let (_, json) = get_json(&server, &format!("/subscribe?cursor={next}"));
    assert_eq!(
        json.get("alerts")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(0)
    );
    let (_, json) = get_json(
        &server,
        &format!("/subscribe?cursor=0&fence={}", fence_id + 7),
    );
    assert_eq!(
        json.get("alerts")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(0)
    );
    assert_eq!(
        json.get("next_cursor").and_then(JsonValue::as_f64).unwrap() as u64,
        next
    );

    // Hostile fence specs and malformed polls are client errors.
    for path in [
        "/geofence_add?name=bad&min_x=nan&min_y=0&max_x=1&max_y=1",
        "/geofence_add?name=bad&min_x=5&min_y=0&max_x=1&max_y=1", // inverted
        "/geofence_add?name=bad&min_x=0&min_y=0&max_x=1",         // missing coordinate
        "/subscribe?cursor=x",
        "/subscribe?cursor=0&limit=0",
        "/subscribe?cursor=0&fence=x",
    ] {
        let (status, _) = get_json(&server, path);
        assert_eq!(status, 400, "{path}");
    }

    // The registry's accounting shows up in /stats and /metrics.
    let (_, json) = get_json(&server, "/stats");
    let geofence = json.get("query").and_then(|q| q.get("geofence")).unwrap();
    assert_eq!(
        geofence.get("fences").and_then(JsonValue::as_usize),
        Some(1)
    );
    assert_eq!(
        geofence.get("alerts_fired").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    let (status, body) = client::http_get(server.local_addr(), "/metrics").unwrap();
    assert_eq!(status, 200);
    for family in [
        "geofence_fences",
        "geofence_alerts_total",
        "knn_queries_total",
    ] {
        assert!(body.contains(family), "/metrics lacks {family}");
    }
    server.stop();
}
