#!/usr/bin/env bash
# The full workspace gate: formatting, release build, tests, the storage
# engine's example + bench smoke runs, the bench-regression comparator,
# a traced perfbench run of every workload, rustdoc, clippy.
# Usage: ./scripts/check.sh
#
# The bench gate diffs the fresh BENCH_<name>.json reports against the
# committed BENCH_baseline.json and fails on a gated regression past the
# tolerance (default 10%; override with BENCH_TOLERANCE=0.25 on noisy
# hosts).  After an intentional performance change, refresh the baseline:
#
#   BENCH_REGEN=1 ./scripts/check.sh        # reruns benches, rewrites BENCH_baseline.json
#
# then commit the updated BENCH_baseline.json with the change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> fault-injection + fuzz + concurrency suites (release)"
cargo test --release -q -p traj-model --test fuzz_codec
cargo test --release -q -p traj-store --test fault_injection
cargo test --release -q -p traj-store --test concurrent_stress
cargo test --release -q -p traj-store --test golden_e2e

echo "==> query engine suites: kNN vs brute force, geofence exactly-once, planner, golden fixtures (release)"
cargo test --release -q -p traj-store --test query_engine
cargo test --release -q -p traj-store --test query_golden
cargo test --release -q -p traj-service --test query_endpoints

echo "==> crash-recovery gate: WAL crash-point sweep + SIGKILL'd live server (release)"
cargo test --release -q -p traj-store --test crash_sweep
cargo test --release -q --test serve_live_crash

echo "==> store example (pipeline → store → queries)"
cargo run --release --example store_query

echo "==> codec_bench (both block formats, differential verification + throughput)"
BENCH_OUT=target/bench-reports
mkdir -p "$BENCH_OUT"
cargo run --release -p traj-bench --bin codec_bench -- --out "$BENCH_OUT"

echo "==> store_bench smoke run (100 devices, skip ratio + ζ verification + out-of-core gate)"
# The out-of-core section reopens the store with the payload cache capped
# at stored_bytes/10 under each eviction policy (lru, clock, sieve),
# requires every answer byte-identical to the in-memory ζ-verified one,
# and fails below a 50% steady-state hit ratio.
cargo run --release -p traj-bench --bin store_bench -- --devices 100 --points 150 --windows 6 --out "$BENCH_OUT"

echo "==> query_bench (kNN prune ratios + exactly-once geofence alerts + planner, all verified)"
# Every pruned kNN ranking must be bit-identical to the exhaustive scan,
# and the fired geofence alerts must equal the qualifying set recomputed
# from block metadata; the prune/skip ratios and alert count are gated.
cargo run --release -p traj-bench --bin query_bench -- --out "$BENCH_OUT"

echo "==> geofence CLI smoke (live waves + standing fences through trajsimp)"
cargo run --release --bin trajsimp -- geofence --fence center=-800,-800,800,800 \
    --waves 2 --trajectories 16 --points 120 > /dev/null

echo "==> serve smoke test (in-process server + test client: 200 + valid JSON + shutdown)"
cargo test --release -q -p traj-service --test serve_http smoke_start_request_shutdown

echo "==> /metrics smoke (CLI store → paged serve → Prometheus scrape + /trace span tree)"
# Starts a real trajsimp serve child over a persisted store, scrapes
# /metrics (valid exposition text, required series for every subsystem,
# >= 20 distinct series) and checks /trace parents index walk, pager
# fetch and decode spans correctly.
cargo test --release -q --test metrics_smoke

echo "==> service_bench (32 concurrent clients, 100+ devices, 0 ζ violations required)"
cargo run --release -p traj-bench --bin service_bench -- --devices 100 --points 120 --clients 32 --requests 10 --out "$BENCH_OUT"

echo "==> bench-regression gate (BENCH_*.json vs committed BENCH_baseline.json)"
# The codec and store reports are gated; the service report is recorded in
# the baseline but its QPS gate is only meaningful on quiet hardware, so
# check.sh compares it with a loose tolerance instead of the default.
cargo run --release -p traj-bench --bin bench_compare -- \
    --baseline BENCH_baseline.json \
    "$BENCH_OUT/BENCH_codec.json" "$BENCH_OUT/BENCH_store.json" "$BENCH_OUT/BENCH_query.json"
BENCH_TOLERANCE="${BENCH_TOLERANCE_SERVICE:-0.60}" \
    cargo run --release -p traj-bench --bin bench_compare -- \
    --baseline BENCH_baseline.json \
    "$BENCH_OUT/BENCH_service.json"

echo "==> perfbench: build, self-tests, and a traced run of all four workloads"
# The repo benchmark builds the workspace crates from source through its
# own manifest, so a change that breaks its build, its answer checks or
# its traced half fails here rather than in the next benchmark run.
# Much shorter runs trip perfbench's own rule that a percentile needs ten
# samples beyond it.  `--workload all` merges the children's verdicts into
# its last line, which must report correct answers.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 6 --trace 1 > "$BENCH_OUT/perfbench_all.txt"
tail -n 1 "$BENCH_OUT/perfbench_all.txt" | grep -q '"correct": true'

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
