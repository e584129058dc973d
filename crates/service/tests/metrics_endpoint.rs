//! Tests of the observability endpoints: `/metrics` Prometheus text
//! exposition (shape, subsystem coverage, series count) and `/trace`
//! slow-query capture (span parenting from the request root down to the
//! store's index walk, block decodes and buffer-pool fetches, and the
//! attribute text each span carries).

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use traj_geo::{DirectedSegment, Point};
use traj_model::json::JsonValue;
use traj_model::{SimplifiedSegment, SimplifiedTrajectory};
use traj_service::{client, Server, ServiceConfig};
use traj_store::{ShardedStore, StoreConfig};

/// A straight eastbound line at `y`, `segments` segments of 100 m / 10 s.
fn line(y: f64, segments: usize) -> SimplifiedTrajectory {
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        let t0 = i as f64 * 10.0;
        let a = Point::new(i as f64 * 100.0, y, t0);
        let b = Point::new((i + 1) as f64 * 100.0, y, t0 + 10.0);
        out.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
    }
    SimplifiedTrajectory::new(out, segments + 1)
}

fn sample_store(devices: u64) -> Arc<ShardedStore> {
    let store = Arc::new(ShardedStore::with_default_config(4));
    for d in 0..devices {
        store.ingest(d, &line(d as f64 * 1000.0, 8), 5.0).unwrap();
    }
    store
}

#[test]
fn metrics_exposition_covers_every_subsystem() {
    let server = Server::start(sample_store(4), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    // Serve real queries first so request and store counters move.
    client::http_get(addr, "/time_slice?device=1&from=0&to=40").unwrap();
    client::http_get(addr, "/window?min_x=150&min_y=1990&max_x=450&max_y=2010").unwrap();

    let (status, body) = client::http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    // Every subsystem must contribute series even on an in-memory,
    // non-durable store (pager and WAL report zeros then).
    for series in [
        "service_requests_total",
        "service_request_duration_us_bucket",
        "service_request_duration_us_count",
        "service_queue_depth",
        "service_rejected_total",
        "store_blocks",
        "store_points",
        "store_blocks_in_scope_total",
        "store_blocks_decoded_total",
        "store_index_candidates_total",
        "store_arena_creates_total",
        "store_shard_blocks",
        "pager_hits_total",
        "pager_misses_total",
        "wal_appends_total",
        "wal_syncs_total",
        "wal_sync_duration_us_bucket",
        "pipeline_points_total",
        "pipeline_streams_total",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    // Shape check: every non-comment line is `name{labels} value` with a
    // parseable value, and the endpoint label is present on the latency
    // histogram.
    let mut series = HashSet::new();
    for lines in body.lines() {
        if lines.is_empty() || lines.starts_with('#') {
            continue;
        }
        let (name_labels, value) = lines.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in line: {lines}"
        );
        series.insert(name_labels.to_string());
    }
    assert!(
        series.len() >= 20,
        "expected >= 20 distinct series, got {}",
        series.len()
    );
    assert!(body.contains("service_request_duration_us_count{endpoint=\"/time_slice\"} 1"));

    // Two queries before the scrape: both counted.
    let count_line = body
        .lines()
        .find(|l| l.starts_with("service_requests_total"))
        .unwrap();
    let served: f64 = count_line.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(served >= 2.0, "requests_total stuck at {served}");

    // The window query crosses device 2's line, so the index offered at
    // least that block.
    let candidates_line = body
        .lines()
        .find(|l| l.starts_with("store_index_candidates_total"))
        .unwrap();
    let candidates: f64 = candidates_line.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(
        candidates >= 1.0,
        "index_candidates_total stuck at {candidates}"
    );
    server.stop();
}

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("traj-service-metrics-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A span's attributes as `(key, value text)` pairs, in recorded order.
fn attrs(span: &JsonValue) -> Vec<(String, String)> {
    match span.get("attrs") {
        Some(JsonValue::Object(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("attr text").to_string()))
            .collect(),
        other => panic!("span attrs are not an object: {other:?}"),
    }
}

fn pairs(expected: &[(&str, &str)]) -> Vec<(String, String)> {
    expected
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn slow_queries_land_in_the_trace_endpoint_with_parented_spans() {
    // A paged store, so block decodes fetch through the buffer pool.
    let dir = scratch("paged");
    sample_store(4).save(&dir).unwrap();
    let store = Arc::new(
        ShardedStore::open_with(
            &dir,
            4,
            StoreConfig::default().with_cache_bytes(Some(1 << 20)),
        )
        .unwrap(),
    );
    // Threshold 0: every request is a slow query.
    let config = ServiceConfig::default().with_slow_query_threshold(Some(Duration::ZERO));
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    // The same block twice: a pool miss, then a hit.
    client::http_get(addr, "/time_slice?device=2&from=0&to=60").unwrap();
    client::http_get(addr, "/time_slice?device=2&from=0&to=61").unwrap();

    let (status, body) = client::http_get(addr, "/trace").unwrap();
    assert_eq!(status, 200);
    let json = JsonValue::parse(&body).unwrap();
    let traces = json.get("traces").and_then(JsonValue::as_array).unwrap();
    let trace_named = |name: &str| {
        traces
            .iter()
            .find(|t| t.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} must be in the slow log"))
    };
    let blocks_decoded = store.time_slice(2, 0.0, 60.0).stats.blocks_decoded;
    assert_eq!(blocks_decoded, 1);
    for (name, hit) in [
        ("/time_slice?device=2&from=0&to=60", "false"),
        ("/time_slice?device=2&from=0&to=61", "true"),
    ] {
        // The span tree: the store's query root span, with the index walk
        // and each block decode parented under it, and the pool fetch
        // under the decode.
        let spans = trace_named(name)
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap();
        let span_named = |name: &str| {
            spans
                .iter()
                .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let id = |span: &JsonValue| span.get("id").and_then(JsonValue::as_f64).unwrap();
        let parent = |span: &JsonValue| span.get("parent").and_then(JsonValue::as_f64).unwrap();
        let root = span_named("time_slice");
        let walk = span_named("index_walk");
        let decode = span_named("decode");
        let fetch = span_named("pager_fetch");
        assert_eq!(parent(root), 0.0);
        assert_eq!(parent(walk), id(root));
        assert_eq!(parent(decode), id(root));
        assert_eq!(parent(fetch), id(decode));

        // Attribute text as `/trace` has always rendered it.
        assert_eq!(attrs(root), pairs(&[("blocks_decoded", "1")]));
        assert_eq!(attrs(walk), pairs(&[("scope", "device_log")]));
        let decode_attrs = attrs(decode);
        assert_eq!(decode_attrs[0], ("format".into(), "varint".into()));
        let (key, bytes) = &decode_attrs[1];
        assert_eq!(key, "bytes");
        assert!(bytes.parse::<u64>().is_ok_and(|n| n > 0), "{bytes}");
        assert_eq!(
            attrs(fetch),
            pairs(&[("bytes", bytes.as_str()), ("hit", hit)]),
            "{name}"
        );
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracing_disabled_keeps_the_slow_log_quiet() {
    let config = ServiceConfig::default().with_slow_query_threshold(None);
    let server = Server::start(sample_store(2), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    client::http_get(addr, "/time_slice?device=0&from=0&to=1e12").unwrap();
    let (status, body) = client::http_get(addr, "/trace").unwrap();
    assert_eq!(status, 200);
    let json = JsonValue::parse(&body).unwrap();
    let traces = json.get("traces").and_then(JsonValue::as_array).unwrap();
    assert!(
        !traces.iter().any(|t| {
            t.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.contains("to=1e12"))
        }),
        "tracing off must not push to the slow log"
    );
    server.stop();
}
