#!/usr/bin/env bash
# The full workspace gate: formatting, a guard that the server writes its
# responses without a JsonValue tree, release build, the workspace tests
# (the exact codec/store/query counts of tests/exact_counts.rs and the
# per-request allocation budgets of tests/alloc_budget.rs among them),
# the release-mode robustness, query-engine, serving and crash-recovery
# suites, the example, CLI and experiment smoke runs, a traced perfbench run of every
# workload, rustdoc and clippy.  No step compares a timing against a stored baseline:
# performance is measured by perfbench (see perfbench/README.md).
# Usage: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> one JSON writer for responses: the server names no JsonValue"
# Every response body is written by server.rs's streamed writers;
# JsonValue stays for parsing, the client and the store's own files.
if grep -n 'JsonValue' crates/service/src/server.rs; then
    echo "crates/service/src/server.rs names JsonValue: write responses with its streamed writers" >&2
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> fault-injection + fuzz + JSON number + concurrency suites (release)"
cargo test --release -q -p traj-model --test fuzz_codec
cargo test --release -q -p traj-model --test json_numbers
cargo test --release -q -p traj-store --test fault_injection
cargo test --release -q -p traj-store --test concurrent_stress
cargo test --release -q -p traj-store --test golden_e2e

echo "==> store suites: answers against the original points, grid index vs brute force, codec round trip (release)"
cargo test --release -q -p traj-store --test store_queries
cargo test --release -q -p traj-store --test index_differential
cargo test --release -q -p traj-store --test codec_roundtrip

echo "==> query engine suites: kNN vs brute force, geofence exactly-once, golden fixtures, window coverage, query and metrics endpoints (release)"
cargo test --release -q -p traj-store --test query_engine
cargo test --release -q -p traj-store --test query_golden
cargo test --release -q -p traj-store --test window_coverage
cargo test --release -q -p traj-service --test query_endpoints
cargo test --release -q -p traj-service --test metrics_endpoint

echo "==> allocation budgets per request kind, exact counts and the fitting-function properties (release; the workspace tests run them in debug)"
cargo test --release -q --test alloc_budget
cargo test --release -q --test exact_counts
cargo test --release -q -p operb --test properties

echo "==> crash-recovery gate: WAL crash-point sweep + SIGKILL'd live server (release)"
cargo test --release -q -p traj-store --test crash_sweep
cargo test --release -q --test serve_live_crash

echo "==> store example (pipeline → store → queries)"
cargo run --release --example store_query

echo "==> geofence CLI smoke (live waves + standing fences through trajsimp)"
cargo run --release --bin trajsimp -- geofence --fence center=-800,-800,800,800 \
    --waves 2 --trajectories 16 --points 120 > /dev/null

echo "==> CLI suite (release): every mode's argument errors, single-file output per algorithm, store/query/knn round trip"
cargo test --release -q --test cli

echo "==> experiments (release): the harness and timing suites, and table1 + fig17 saved as JSON through trajsimp"
cargo test --release -q -p traj-bench
cargo test --release -q -p traj-metrics
rm -rf target/experiments
cargo run --release --bin trajsimp -- experiments table1 --json target/experiments > /dev/null
cargo run --release --bin trajsimp -- experiments fig17 --json target/experiments > /dev/null
test -s target/experiments/table1.json
test -s target/experiments/fig17.json

echo "==> serving suites (release): the serve smoke test, keep-alive, admission bound, shutdown, header deadline, client reuse and retry"
# The whole suites, not only the smoke test, so that races in shutdown and
# in replacing a closed kept-alive connection also run in optimised builds.
cargo test --release -q -p traj-service --test serve_http
cargo test --release -q -p traj-service --test client_retry

echo "==> /metrics smoke (CLI store → paged serve → Prometheus scrape + /trace span tree)"
# Starts a real trajsimp serve child over a persisted store, scrapes
# /metrics (valid exposition text, required series for every subsystem,
# >= 20 distinct series) and checks /trace parents index walk, pager
# fetch and decode spans correctly.
cargo test --release -q --test metrics_smoke

echo "==> perfbench: build, self-tests, and a traced run of all four workloads"
# The repo benchmark builds the workspace crates from source through its
# own manifest, so a change that breaks its build, its answer checks or
# its traced half fails here rather than in the next benchmark run.
# A traced run gives each phase half of `--seconds`.  perfbench refuses a
# p99 with fewer than ten samples beyond it, i.e. 1,000 samples; at 6 s the
# untraced ingest phase (3 s, ~2-3 waves of 128 acks per second) got 768 to
# 1,152 acks in three runs and failed one of them, so the run takes 10 s.
# `--workload all` merges the children's verdicts into its last line, which
# must report correct answers.
BENCH_OUT=target/bench-reports
mkdir -p "$BENCH_OUT"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 10 --trace 1 > "$BENCH_OUT/perfbench_all.txt"
tail -n 1 "$BENCH_OUT/perfbench_all.txt" | grep -q '"correct": true'

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
