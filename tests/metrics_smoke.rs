//! End-to-end observability smoke: build a persisted store with the CLI,
//! serve it read-only with a bounded page cache and `--slow-query-ms 0`,
//! then scrape `/metrics` (valid Prometheus text, required series for
//! every subsystem) and `/trace` (the query's span tree with the index
//! walk, pager fetch and decode correctly parented).

use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use trajsimp::model::json::JsonValue;
use trajsimp::service::client;

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trajsimp-metrics-smoke-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    client::http_get_timeout(addr, path, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

#[test]
fn metrics_and_trace_over_a_paged_store() {
    let dir = scratch("paged");

    // Persist a small fleet with the CLI, exactly as an operator would.
    let status = Command::new(env!("CARGO_BIN_EXE_trajsimp"))
        .args([
            "store",
            "--out",
            dir.to_str().unwrap(),
            "--trajectories",
            "12",
            "--points",
            "200",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run trajsimp store");
    assert!(status.success(), "trajsimp store failed");

    // Serve it read-only through the pager, tracing every request.
    let mut child = Command::new(env!("CARGO_BIN_EXE_trajsimp"))
        .args([
            "serve",
            dir.to_str().unwrap(),
            "--port",
            "0",
            "--shards",
            "4",
            "--server-workers",
            "2",
            "--cache-bytes",
            "65536",
            "--slow-query-ms",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn trajsimp serve");

    let stdout = child.stdout.take().expect("child stdout piped");
    let (tx, rx) = mpsc::channel::<SocketAddr>();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if let Some(rest) = line.strip_prefix("listening on http://") {
                if let Ok(addr) = rest.trim().parse() {
                    let _ = tx.send(addr);
                }
            }
        }
    });
    let addr = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(addr) => addr,
        Err(_) => {
            let _ = child.kill();
            panic!("server never announced its address");
        }
    };

    // A query that must walk the device log and decode disk-backed blocks
    // through the pager.
    let (status, _) = get(addr, "/time_slice?device=3&from=0&to=1e12");
    assert_eq!(status, 200, "time slice over the paged store failed");

    // ── /metrics ─────────────────────────────────────────────────────────
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        // service
        "service_requests_total",
        "service_request_duration_us_bucket",
        "service_queue_depth",
        // store
        "store_blocks",
        "store_points",
        "store_blocks_decoded_total",
        "store_shard_blocks",
        // WAL — read-only store, series still present at zero
        "wal_appends_total",
        "wal_sync_duration_us_bucket",
        // pipeline
        "pipeline_points_total",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    let mut series = HashSet::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_labels, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in line: {line}"
        );
        series.insert(name_labels.to_string());
    }
    assert!(
        series.len() >= 20,
        "expected >= 20 distinct series, got {}",
        series.len()
    );
    // Decoding disk-backed blocks must have gone through the pager.
    let sample = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no unlabelled {name} sample in:\n{body}"))
    };
    assert!(sample("pager_misses_total") > 0.0, "no pager traffic");
    let resident = sample("pager_resident_bytes");
    assert!(
        (1.0..=65536.0).contains(&resident),
        "{resident} bytes resident"
    );

    // ── /trace ───────────────────────────────────────────────────────────
    let (status, body) = get(addr, "/trace");
    assert_eq!(status, 200);
    let json = JsonValue::parse(&body).expect("trace body is JSON");
    let traces = json.get("traces").and_then(JsonValue::as_array).unwrap();
    let trace = traces
        .iter()
        .find(|t| {
            t.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.starts_with("/time_slice"))
        })
        .expect("the traced time slice must be in the slow log");
    let spans = trace.get("spans").and_then(JsonValue::as_array).unwrap();
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("span '{name}' missing from trace:\n{body}"))
    };
    let id_of = |span: &JsonValue| span.get("id").and_then(JsonValue::as_f64).unwrap();
    let parent_of = |span: &JsonValue| span.get("parent").and_then(JsonValue::as_f64).unwrap();

    let root = find("time_slice");
    assert_eq!(parent_of(root), 0.0, "query root must hang off the request");
    let walk = find("index_walk");
    assert_eq!(parent_of(walk), id_of(root));
    let decode = find("decode");
    assert_eq!(parent_of(decode), id_of(root));
    let fetch = find("pager_fetch");
    assert_eq!(
        parent_of(fetch),
        id_of(decode),
        "pager fetch must be parented under the decode that triggered it"
    );

    // Graceful stop.
    let (status, _) = get(addr, "/shutdown");
    assert_eq!(status, 200);
    child.wait().expect("reap server");
    reader.join().expect("stdout reader");
    std::fs::remove_dir_all(&dir).ok();
}
