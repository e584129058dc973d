//! Tests of the observability endpoints: `/metrics` Prometheus text
//! exposition (shape, subsystem coverage, series count) and `/trace`
//! slow-query capture (span parenting from the request root down to the
//! store's index walk, block decodes and buffer-pool fetches, and the
//! attribute text each span carries).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use traj_geo::{BoundingBox, DirectedSegment, Point};
use traj_model::json::JsonValue;
use traj_model::{SimplifiedSegment, SimplifiedTrajectory};
use traj_service::{client, Server, ServiceConfig};
use traj_store::{DurabilityMode, ShardedStore, StoreConfig, Subscription};

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
    let store = Arc::new(ShardedStore::new(StoreConfig::default(), 4));
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
        traces.is_empty(),
        "tracing off must not push to the slow log"
    );
    server.stop();
}

/// Each server keeps its own slow-query log: what one traces never shows
/// on the other's `/trace` or `service_slow_queries_logged`.
#[test]
fn two_servers_in_one_process_keep_their_own_slow_logs() {
    let traced = ServiceConfig::default().with_slow_query_threshold(Some(Duration::ZERO));
    let a = Server::start(sample_store(2), "127.0.0.1:0", traced.clone()).unwrap();
    let b = Server::start(sample_store(2), "127.0.0.1:0", traced).unwrap();
    client::http_get(a.local_addr(), "/time_slice?device=0&from=0&to=60").unwrap();
    client::http_get(a.local_addr(), "/devices").unwrap();
    for (server, logged) in [(&a, 2.0), (&b, 0.0)] {
        let addr = server.local_addr();
        let (_, body) = client::http_get(addr, "/trace").unwrap();
        let count = JsonValue::parse(&body)
            .unwrap()
            .get("count")
            .and_then(JsonValue::as_f64);
        assert_eq!(count, Some(logged), "/trace on {addr}");
        // The `/trace` request is logged once it is answered.
        let (_, body) = client::http_get(addr, "/metrics").unwrap();
        let gauge = samples(&body)["service_slow_queries_logged"];
        assert_eq!(gauge, logged + 1.0, "slow log gauge on {addr}");
    }
    a.stop();
    b.stop();
}

/// `devices` straight lines, one per device, as [`sample_store`] holds.
fn lines(devices: u64) -> Vec<(u64, SimplifiedTrajectory)> {
    (0..devices)
        .map(|d| (d, line(d as f64 * 1000.0, 8)))
        .collect()
}

/// `devices` seeded random walks of 60 segments (10 s each, steps of up
/// to 100 m) over a 5 km square, one per device.
fn seeded_walks(seed: u64, devices: u64) -> Vec<(u64, SimplifiedTrajectory)> {
    let mut state = seed | 1;
    let mut uniform = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..devices)
        .map(|d| {
            let mut at = Point::new(uniform() * 5000.0, uniform() * 5000.0, 0.0);
            let segments = (0..60)
                .map(|i| {
                    let next = Point::new(
                        at.x + (uniform() - 0.5) * 200.0,
                        at.y + (uniform() - 0.5) * 200.0,
                        at.t + 10.0,
                    );
                    let segment = SimplifiedSegment::new(DirectedSegment::new(at, next), i, i + 1);
                    at = next;
                    segment
                })
                .collect();
            (100 + d, SimplifiedTrajectory::new(segments, 61))
        })
        .collect()
}

/// The west end of device 0's line, the fence [`durable_store`] stands.
const WEST: BoundingBox = BoundingBox {
    min_x: -50.0,
    min_y: -50.0,
    max_x: 150.0,
    max_y: 50.0,
};

/// A durable store holding `fleet` in blocks of 8 segments, reopened so
/// that the fleet is replayed from its write-ahead log and paged through
/// a buffer pool of 4 KiB, with one standing fence and the returned
/// subscription left open: every section of `/stats` exists.
fn durable_store(
    dir: &std::path::Path,
    fleet: &[(u64, SimplifiedTrajectory)],
) -> (Arc<ShardedStore>, Subscription) {
    let config = StoreConfig::default()
        .with_block_segments(8)
        .with_cache_bytes(Some(4096))
        .with_durability(DurabilityMode::WalGroupCommit(Duration::from_millis(1)));
    {
        let (store, _) = ShardedStore::open_durable(dir, 4, config).unwrap();
        for (device, trajectory) in fleet {
            store.ingest(*device, trajectory, 5.0).unwrap();
        }
    }
    let (store, _) = ShardedStore::open_durable(dir, 4, config).unwrap();
    store.geofences().register("west", WEST, None).unwrap();
    let subscription = store.geofences().subscribe(16, None);
    (Arc::new(store), subscription)
}

/// The schema of one `/metrics` body: per family, its type and the label
/// sets of its series (a histogram's `le` bucket label left out), one
/// family a line in name order.
fn metrics_schema(body: &str) -> String {
    let mut kinds = BTreeMap::new();
    let mut label_sets: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for text in body.lines() {
        if let Some(rest) = text.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            kinds.insert(name.to_string(), kind.to_string());
            continue;
        }
        if text.starts_with('#') || text.is_empty() {
            continue;
        }
        let series = text.rsplit_once(' ').unwrap().0;
        let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| kinds.get(*base).is_some_and(|k| k == "histogram"))
            .unwrap_or(name);
        let labels: Vec<&str> = labels
            .trim_end_matches('}')
            .split(',')
            .filter(|l| !l.is_empty() && !l.starts_with("le="))
            .collect();
        label_sets
            .entry(family.to_string())
            .or_default()
            .insert(format!("{{{}}}", labels.join(",")));
    }
    let mut out = String::new();
    for (name, kind) in &kinds {
        let sets: Vec<&str> = label_sets[name].iter().map(String::as_str).collect();
        out.push_str(&format!("{name} {kind} {}\n", sets.join(" ")));
    }
    out
}

/// The key paths of a JSON object's leaves, in document order.
fn key_paths(value: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match value {
        JsonValue::Object(members) => {
            for (key, member) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                key_paths(member, &path, out);
            }
        }
        _ => out.push(prefix.to_string()),
    }
}

/// What `/metrics` and `/stats` expose of a server: the metrics schema,
/// then the `/stats` key paths.
fn observable_schema(addr: std::net::SocketAddr) -> String {
    let (status, metrics) = client::http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let (status, stats) = client::http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let mut paths = Vec::new();
    key_paths(&JsonValue::parse(&stats).unwrap(), "", &mut paths);
    format!(
        "{}--- /stats\n{}\n",
        metrics_schema(&metrics),
        paths.join("\n")
    )
}

/// The series, label sets and `/stats` keys an operator's dashboards read,
/// pinned for an in-memory store and for a durable, paged one.  A rename
/// or a dropped series fails here; the values are not pinned.
#[test]
fn observable_schema_is_pinned() {
    let server = Server::start(sample_store(4), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    client::http_get(server.local_addr(), "/time_slice?device=1&from=0&to=40").unwrap();
    let in_memory = observable_schema(server.local_addr());
    server.stop();
    assert_eq!(in_memory, IN_MEMORY_SCHEMA, "in-memory store:\n{in_memory}");

    let dir = scratch("schema");
    let (store, _subscription) = durable_store(&dir, &lines(4));
    let server = Server::start(store, "127.0.0.1:0", ServiceConfig::default()).unwrap();
    client::http_get(server.local_addr(), "/time_slice?device=1&from=0&to=40").unwrap();
    let durable = observable_schema(server.local_addr());
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(durable, DURABLE_SCHEMA, "durable, paged store:\n{durable}");
}

const IN_MEMORY_SCHEMA: &str = r#"geofence_alerts_total counter {}
geofence_blocks_checked_total counter {}
geofence_blocks_skipped_total counter {}
geofence_fences gauge {}
geofence_persist_errors_total counter {}
geofence_ring_evicted gauge {}
geofence_subscriber_dropped_total counter {}
geofence_subscriptions gauge {}
knn_blocks_decoded_total counter {}
knn_devices_pruned_total counter {}
knn_queries_total counter {}
pager_capacity_bytes gauge {}
pager_evictions_total counter {}
pager_hits_total counter {}
pager_misses_total counter {}
pager_resident_bytes gauge {}
pager_resident_pages gauge {}
pipeline_chunks_total counter {}
pipeline_points_total counter {}
pipeline_streams_total counter {}
service_client_errors_total counter {}
service_queue_capacity gauge {}
service_queue_depth gauge {}
service_rejected_total counter {}
service_request_duration_us histogram {endpoint="/devices"} {endpoint="/geofence_add"} {endpoint="/geofences"} {endpoint="/knn"} {endpoint="/metrics"} {endpoint="/position_at"} {endpoint="/stats"} {endpoint="/subscribe"} {endpoint="/time_slice"} {endpoint="/trace"} {endpoint="/window"} {endpoint="other"}
service_requests_total counter {}
service_server_errors_total counter {}
service_slow_queries_logged gauge {}
service_uptime_seconds gauge {}
service_workers gauge {}
store_arena_creates_total counter {}
store_arena_reuses_total counter {}
store_blocks gauge {}
store_blocks_decoded_total counter {}
store_blocks_in_scope_total counter {}
store_devices gauge {}
store_index_bytes gauge {}
store_index_candidates_total counter {}
store_points gauge {}
store_resident_payload_bytes gauge {}
store_segments gauge {}
store_shard_blocks gauge {shard="0"} {shard="1"} {shard="2"} {shard="3"}
store_stored_bytes gauge {}
wal_appends_total counter {mode="none"}
wal_bytes gauge {mode="none"}
wal_checkpoints_total counter {mode="none"}
wal_records_replayed gauge {mode="none"}
wal_records_total counter {mode="none"}
wal_sync_duration_us histogram {mode="none"}
wal_syncs_total counter {mode="none"}
--- /stats
store.devices
store.blocks
store.segments
store.points
store.stored_bytes
store.resident_bytes
store.bytes_per_point
store.compression_factor
memory.resident_payload_bytes
memory.index_bytes
memory.arena_creates
memory.arena_reuses
server.requests
server.client_errors
server.server_errors
server.rejected
server.mean_latency_us
server.skip_ratio
server.num_shards
server.uptime_seconds
query.geofence.fences
query.geofence.alerts_fired
query.geofence.blocks_checked
query.geofence.blocks_skipped
query.geofence.subscriptions
query.geofence.ring_evicted
query.geofence.subscriber_dropped
latency_us
"#;

const DURABLE_SCHEMA: &str = r#"geofence_alerts_total counter {}
geofence_blocks_checked_total counter {}
geofence_blocks_skipped_total counter {}
geofence_fences gauge {}
geofence_persist_errors_total counter {}
geofence_ring_evicted gauge {}
geofence_subscriber_dropped_total counter {}
geofence_subscriptions gauge {}
knn_blocks_decoded_total counter {}
knn_devices_pruned_total counter {}
knn_queries_total counter {}
pager_capacity_bytes gauge {}
pager_evictions_total counter {}
pager_hits_total counter {}
pager_misses_total counter {}
pager_resident_bytes gauge {}
pager_resident_pages gauge {}
pipeline_chunks_total counter {}
pipeline_points_total counter {}
pipeline_streams_total counter {}
service_client_errors_total counter {}
service_queue_capacity gauge {}
service_queue_depth gauge {}
service_rejected_total counter {}
service_request_duration_us histogram {endpoint="/devices"} {endpoint="/geofence_add"} {endpoint="/geofences"} {endpoint="/knn"} {endpoint="/metrics"} {endpoint="/position_at"} {endpoint="/stats"} {endpoint="/subscribe"} {endpoint="/time_slice"} {endpoint="/trace"} {endpoint="/window"} {endpoint="other"}
service_requests_total counter {}
service_server_errors_total counter {}
service_slow_queries_logged gauge {}
service_uptime_seconds gauge {}
service_workers gauge {}
store_arena_creates_total counter {}
store_arena_reuses_total counter {}
store_blocks gauge {}
store_blocks_decoded_total counter {}
store_blocks_in_scope_total counter {}
store_devices gauge {}
store_index_bytes gauge {}
store_index_candidates_total counter {}
store_points gauge {}
store_resident_payload_bytes gauge {}
store_segments gauge {}
store_shard_blocks gauge {shard="0"} {shard="1"} {shard="2"} {shard="3"}
store_stored_bytes gauge {}
wal_appends_total counter {mode="wal-group-commit"}
wal_bytes gauge {mode="wal-group-commit"}
wal_checkpoints_total counter {mode="wal-group-commit"}
wal_records_replayed gauge {mode="wal-group-commit"}
wal_records_total counter {mode="wal-group-commit"}
wal_sync_duration_us histogram {mode="wal-group-commit"}
wal_syncs_total counter {mode="wal-group-commit"}
--- /stats
store.devices
store.blocks
store.segments
store.points
store.stored_bytes
store.resident_bytes
store.bytes_per_point
store.compression_factor
memory.resident_payload_bytes
memory.index_bytes
memory.arena_creates
memory.arena_reuses
server.requests
server.client_errors
server.server_errors
server.rejected
server.mean_latency_us
server.skip_ratio
server.num_shards
server.uptime_seconds
query.geofence.fences
query.geofence.alerts_fired
query.geofence.blocks_checked
query.geofence.blocks_skipped
query.geofence.subscriptions
query.geofence.ring_evicted
query.geofence.subscriber_dropped
wal.mode
wal.wal_bytes
wal.ingests_appended
wal.records_appended
wal.syncs
wal.sync_p50_us
wal.sync_p99_us
wal.records_replayed
wal.ingests_replayed
wal.checkpoints
cache.capacity_bytes
cache.resident_bytes
cache.resident_pages
cache.hits
cache.misses
cache.evictions
cache.hit_ratio
latency_us
"#;

/// The samples of a `/metrics` body by `name{labels}` (a bare name when
/// unlabelled).
fn samples(body: &str) -> BTreeMap<String, f64> {
    body.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series.to_string(), value.parse().unwrap())
        })
        .collect()
}

/// A failed write of `geofences.json` is counted, and the counter is
/// exported, at 0, before any failure.  A directory where the write puts
/// its temporary file makes the write fail, for root as for anyone else.
#[test]
fn geofence_persist_errors_are_exported_from_zero() {
    let dir = scratch("persist");
    let config = StoreConfig::default()
        .with_durability(DurabilityMode::WalGroupCommit(Duration::from_millis(1)));
    let (store, _) = ShardedStore::open_durable(&dir, 4, config).unwrap();
    std::fs::create_dir(dir.join("geofences.json.tmp")).unwrap();
    let server = Server::start(Arc::new(store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    let persist_errors = || {
        let (status, body) = client::http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        samples(&body)["geofence_persist_errors_total"]
    };
    assert_eq!(persist_errors(), 0.0);
    let (status, _) = client::http_get(
        addr,
        "/geofence_add?name=west&min_x=-50&min_y=-50&max_x=150&max_y=50",
    )
    .unwrap();
    assert_eq!(status, 200, "a failed write does not fail the registration");
    assert_eq!(persist_errors(), 1.0);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two servers in one process report each on its own store: a kNN query
/// and a fence alert on one leave the other's counters at zero.
#[test]
fn two_servers_in_one_process_do_not_mix_numbers() {
    let (store_a, store_b) = (sample_store(4), sample_store(4));
    store_a.geofences().register("west", WEST, None).unwrap();
    let a = Server::start(
        Arc::clone(&store_a),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .unwrap();
    let b = Server::start(store_b, "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let (status, _) = client::http_get(a.local_addr(), "/knn?x=250&y=1000&k=2").unwrap();
    assert_eq!(status, 200);
    // A new device crosses the fence on A's store.
    store_a.ingest(50, &line(0.0, 8), 5.0).unwrap();
    for (server, want) in [(&a, 1.0), (&b, 0.0)] {
        let (_, body) = client::http_get(server.local_addr(), "/metrics").unwrap();
        let samples = samples(&body);
        for series in ["knn_queries_total", "geofence_alerts_total"] {
            assert_eq!(samples[series], want, "{series} on {}", server.local_addr());
        }
    }
    a.stop();
    b.stop();
}

/// `/stats` and `/metrics` read the same numbers: after a seeded workload
/// on a durable, paged store (slices, windows, kNN, a fence alert, a 4xx
/// and a 503 refusal), every number the two share is equal, but for the
/// `/stats` request itself, which the later `/metrics` scrape counts.
#[test]
fn stats_and_metrics_agree_on_every_shared_number() {
    use std::io::Read;
    let dir = scratch("agree");
    let fleet = seeded_walks(20170401, 24);
    let (store, _subscription) = durable_store(&dir, &fleet);
    let config = ServiceConfig::default().with_workers(1).with_queue_depth(1);
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let get = |path: &str| client::http_get(addr, path).unwrap().0;
    for (i, (device, trajectory)) in fleet.iter().enumerate().step_by(3) {
        let end = trajectory.segments()[20 + i].segment.end;
        assert_eq!(
            get(&format!("/time_slice?device={device}&from=0&to={}", end.t)),
            200
        );
        let (x, y) = (end.x, end.y);
        let window = format!(
            "min_x={}&min_y={}&max_x={}&max_y={}",
            x - 400.0,
            y - 400.0,
            x,
            y
        );
        assert_eq!(get(&format!("/window?{window}")), 200);
        assert_eq!(get(&format!("/knn?x={x}&y={y}&k=3")), 200);
        assert_eq!(
            get(&format!("/position_at?device={device}&t={}", end.t)),
            200
        );
    }
    // A fence alert, through the write-ahead log.
    store.ingest(50, &line(0.0, 8), 5.0).unwrap();
    assert_eq!(get("/subscribe?cursor=0"), 200);
    assert_eq!(get("/time_slice?device=x&from=0&to=1"), 400);
    // The test client keeps one connection; one more fills the bound of
    // workers + queue_depth = 2, and the next is refused.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    let mut refused = String::new();
    let mut extra = std::net::TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    extra.read_to_string(&mut refused).unwrap();
    assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
    drop(idle);

    let (_, body) = client::http_get(addr, "/stats").unwrap();
    let stats = JsonValue::parse(&body).unwrap();
    let (_, body) = client::http_get(addr, "/metrics").unwrap();
    let metrics = samples(&body);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();

    let stat = |section: &str, key: &str| {
        let mut value = &stats;
        for part in section.split('.') {
            value = value
                .get(part)
                .unwrap_or_else(|| panic!("no {section} in /stats"));
        }
        value
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("no number {section}.{key} in /stats"))
    };
    let wal = |name: &str| metrics[&format!("{name}{{mode=\"wal-group-commit\"}}")];
    let metric = |name: &str| {
        *metrics
            .get(name)
            .unwrap_or_else(|| panic!("no unlabelled {name} in /metrics"))
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    // Every /stats number with a series of its own.
    for (section, key, series) in [
        ("store", "devices", "store_devices"),
        ("store", "blocks", "store_blocks"),
        ("store", "segments", "store_segments"),
        ("store", "points", "store_points"),
        ("store", "stored_bytes", "store_stored_bytes"),
        ("store", "resident_bytes", "store_resident_payload_bytes"),
        (
            "memory",
            "resident_payload_bytes",
            "store_resident_payload_bytes",
        ),
        ("memory", "index_bytes", "store_index_bytes"),
        ("memory", "arena_creates", "store_arena_creates_total"),
        ("memory", "arena_reuses", "store_arena_reuses_total"),
        ("server", "client_errors", "service_client_errors_total"),
        ("server", "server_errors", "service_server_errors_total"),
        ("server", "rejected", "service_rejected_total"),
        ("query.geofence", "fences", "geofence_fences"),
        ("query.geofence", "alerts_fired", "geofence_alerts_total"),
        (
            "query.geofence",
            "blocks_checked",
            "geofence_blocks_checked_total",
        ),
        (
            "query.geofence",
            "blocks_skipped",
            "geofence_blocks_skipped_total",
        ),
        ("query.geofence", "subscriptions", "geofence_subscriptions"),
        ("query.geofence", "ring_evicted", "geofence_ring_evicted"),
        (
            "query.geofence",
            "subscriber_dropped",
            "geofence_subscriber_dropped_total",
        ),
        ("cache", "capacity_bytes", "pager_capacity_bytes"),
        ("cache", "resident_bytes", "pager_resident_bytes"),
        ("cache", "resident_pages", "pager_resident_pages"),
        ("cache", "hits", "pager_hits_total"),
        ("cache", "misses", "pager_misses_total"),
        ("cache", "evictions", "pager_evictions_total"),
    ] {
        assert_eq!(
            stat(section, key),
            metric(series),
            "{section}.{key} vs {series}"
        );
    }
    for (key, series) in [
        ("wal_bytes", "wal_bytes"),
        ("ingests_appended", "wal_appends_total"),
        ("records_appended", "wal_records_total"),
        ("syncs", "wal_syncs_total"),
        ("syncs", "wal_sync_duration_us_count"),
        ("records_replayed", "wal_records_replayed"),
        ("checkpoints", "wal_checkpoints_total"),
    ] {
        assert_eq!(stat("wal", key), wal(series), "wal.{key} vs {series}");
    }
    let mode = stats.get("wal").and_then(|w| w.get("mode"));
    assert_eq!(mode.and_then(JsonValue::as_str), Some("wal-group-commit"));

    // The workload moved what it should.
    assert!(stat("query.geofence", "alerts_fired") >= 1.0);
    assert_eq!(stat("server", "rejected"), 1.0);
    assert_eq!(stat("server", "client_errors"), 1.0);
    assert!(stat("cache", "misses") >= 1.0 && stat("cache", "evictions") >= 1.0);
    assert!(stat("wal", "syncs") >= 1.0 && stat("wal", "records_replayed") >= 1.0);

    // Derived numbers, from the series they derive from.
    let (points, stored) = (metric("store_points"), metric("store_stored_bytes"));
    assert_eq!(stat("store", "bytes_per_point"), ratio(stored, points));
    assert_eq!(
        stat("store", "compression_factor"),
        ratio(points * 24.0, stored)
    );
    let (hits, misses) = (metric("pager_hits_total"), metric("pager_misses_total"));
    assert_eq!(stat("cache", "hit_ratio"), ratio(hits, hits + misses));
    let (in_scope, decoded) = (
        metric("store_blocks_in_scope_total"),
        metric("store_blocks_decoded_total"),
    );
    assert!(decoded >= 1.0);
    assert_eq!(stat("server", "skip_ratio"), 1.0 - ratio(decoded, in_scope));
    let shards = metrics
        .keys()
        .filter(|k| k.starts_with("store_shard_blocks{"))
        .count();
    assert_eq!(stat("server", "num_shards"), shards as f64);
    let sync_buckets: Vec<(f64, f64)> = metrics
        .iter()
        .filter_map(|(series, count)| {
            let le = series
                .strip_prefix("wal_sync_duration_us_bucket{mode=\"wal-group-commit\",le=\"")?
                .strip_suffix("\"}")?;
            Some((le.parse().ok()?, *count))
        })
        .collect();
    for (key, q) in [("sync_p50_us", 0.5), ("sync_p99_us", 0.99)] {
        let rank = (q * wal("wal_sync_duration_us_count")).ceil();
        let bound = sync_buckets
            .iter()
            .filter(|(_, cumulative)| *cumulative >= rank)
            .map(|(le, _)| *le)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(stat("wal", key), bound, "wal.{key}");
    }

    // The request numbers: /metrics also counts the /stats request, whose
    // handler time /stats reports as its own latency_us.
    let own = stats.get("latency_us").and_then(JsonValue::as_f64).unwrap();
    let (mut count, mut sum) = (0.0, 0.0);
    for (series, value) in &metrics {
        if series.starts_with("service_request_duration_us_count{") {
            count += value;
        } else if series.starts_with("service_request_duration_us_sum{") {
            sum += value;
        }
    }
    assert_eq!(metric("service_requests_total"), count);
    assert_eq!(stat("server", "requests"), count - 1.0);
    assert_eq!(
        stat("server", "mean_latency_us"),
        ratio(sum - own, count - 1.0)
    );
    assert!(stat("server", "uptime_seconds") <= metric("service_uptime_seconds"));
}
