//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compress|ingest|serve_hot|scan_cold|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process (`all` spawns one per workload).
//! With `--trace 0` the run measures the end-to-end metrics untraced; with
//! `--trace 1` it measures the workload untraced and then traced, prints
//! the per-layer metrics, the span self-time table and the unattributed
//! time, and writes the spans under `.perfbench_out/`.  Every run checks
//! the program's outputs after the timed phase and exits non-zero on any
//! violation.  The last line of standard output is one JSON object.

mod compress;
mod ingest;
mod inputs;
mod layers;
mod reads;
mod report;
mod scan_cold;
mod serve_hot;
mod stats;
mod sys;
mod trace;
mod verify;

use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Report};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compress,
    Ingest,
    ServeHot,
    ScanCold,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Compress,
        Workload::Ingest,
        Workload::ServeHot,
        Workload::ScanCold,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Compress => "compress",
            Workload::Ingest => "ingest",
            Workload::ServeHot => "serve_hot",
            Workload::ScanCold => "scan_cold",
        }
    }

    /// The workload's own names for the three headline end-to-end metrics
    /// behind `throughput_per_s`, `latency_p50_ms` and `latency_p99_ms`.
    fn headline(self) -> [&'static str; 3] {
        match self {
            Workload::Compress => [
                "compress_points_per_s",
                "compress_stream_p50_ms",
                "compress_stream_p99_ms",
            ],
            Workload::Ingest => [
                "ingest_points_per_s",
                "ingest_ack_p50_ms",
                "ingest_ack_p99_ms",
            ],
            Workload::ServeHot | Workload::ScanCold => {
                ["query_per_s", "query_p50_ms", "query_p99_ms"]
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Length of each timed phase: the whole run untraced, or half of it
/// untraced and half traced, so both kinds of run measure `--seconds`.
pub fn phase_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// Sets the workload up [`SETUP_REPS`] times (once when traced), dropping
/// each set-up before the next, and returns the last one with every
/// set-up's duration in seconds.
pub fn repeat_setup<S>(
    args: &Args,
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut last, mut seconds) = (None, Vec::with_capacity(reps));
    for rep in 0..reps {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup(rep)?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), seconds))
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics under the workload's own names.
    pub e2e: Report,
    /// Per-layer metrics (traced runs only).
    pub layers: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any makes the run fail.
    pub violations: Vec<String>,
    /// Findings that do not fail the run, printed as `note` lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records the metrics every workload reports.
    pub fn common(&mut self, setup_s: &[f64]) -> Result<(), String> {
        self.e2e.add(
            "setup_s",
            stats::median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        );
        self.e2e
            .add("peak_rss_mb", sys::peak_rss_mb()?, "MiB", "VmHWM");
        self.e2e.ratio(
            "error_ratio",
            stats::Ratio::new(self.failed as f64, self.attempted as f64),
            "fraction",
        );
        Ok(())
    }
}

/// The per-layer metrics of the result line.  Those measured on every
/// workload come first; the rest are counts and ratios reported as 0 on
/// workloads where their layer is idle.  Per-layer latencies that exist
/// on one workload only (WAL overhead, direct store and HTTP overhead
/// per query type) are printed in the traced report, not here.
const PER_LAYER: &[(&str, &str)] = &[
    ("operb.ns_per_point", "ns"),
    ("operb.segments_per_point", "ratio"),
    ("pipeline.speedup", "ratio"),
    ("pipeline.busy_share", "fraction"),
    ("pipeline.close_to_result_ms_p50", "ms"),
    ("codec.encode_ns_per_segment", "ns"),
    ("codec.bytes_per_segment", "bytes"),
    ("codec.decode_ns_per_segment", "ns"),
    ("store.ingest_us_p50", "us"),
    ("bench.trace_overhead_share", "fraction"),
    ("bench.unattributed_share", "fraction"),
    ("wal.syncs_per_ingest", "ratio"),
    ("wal.bytes_per_point", "bytes"),
    ("geofence.blocks_checked_per_ingest", "ratio"),
    ("geofence.skip_ratio", "fraction"),
    ("index.blocks_in_scope_per_window", "count"),
    ("store.blocks_decoded_per_query", "count"),
    ("store.skip_ratio", "fraction"),
    ("store.segments_returned_per_query", "count"),
    ("knn.device_prune_ratio", "fraction"),
    ("knn.block_prune_ratio", "fraction"),
    ("pager.hit_ratio", "fraction"),
    ("pager.misses_per_query", "count"),
    ("pager.evictions_per_query", "count"),
    ("pager.share_of_query", "fraction"),
    ("service.response_bytes_per_query", "bytes"),
    ("service.handler_share", "fraction"),
    ("service.rejected_ratio", "fraction"),
];

/// How many leading [`PER_LAYER`] entries every workload must measure.
const PER_LAYER_UNIVERSAL: usize = 11;

fn result_metrics(
    workload: Workload,
    outcome: &Outcome,
    trace: bool,
) -> Result<Vec<Metric>, String> {
    let pick = |report: &Report, from: &str, to: &str| -> Result<Metric, String> {
        let m = report
            .get(from)
            .ok_or_else(|| format!("{}: metric {from} was not measured", workload.name()))?;
        Ok(Metric {
            name: to.to_string(),
            ..m.clone()
        })
    };
    if trace {
        return PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| match outcome.layers.get(name) {
                Some(m) => Ok(m.clone()),
                None if i >= PER_LAYER_UNIVERSAL => Ok(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit: unit.to_string(),
                    basis: "idle".into(),
                }),
                None => Err(format!("{}: {name} was not measured", workload.name())),
            })
            .collect();
    }
    let [throughput, p50, p99] = workload.headline();
    Ok(vec![
        pick(&outcome.e2e, "setup_s", "setup_s")?,
        pick(&outcome.e2e, "peak_rss_mb", "peak_rss_mb")?,
        Metric {
            unit: "1/s".into(),
            ..pick(&outcome.e2e, throughput, "throughput_per_s")?
        },
        pick(&outcome.e2e, p50, "latency_p50_ms")?,
        pick(&outcome.e2e, p99, "latency_p99_ms")?,
    ])
}

fn run_workload(workload: Workload, args: &Args) -> Result<Outcome, String> {
    match workload {
        Workload::Compress => compress::run(args),
        Workload::Ingest => ingest::run(args),
        Workload::ServeHot => serve_hot::run(args),
        Workload::ScanCold => scan_cold::run(args),
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let started = Instant::now();
    let outcome = match run_workload(workload, args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    outcome.e2e.print(workload.name(), "e2e");
    if args.trace {
        outcome.layers.print(workload.name(), "layer");
    }
    for note in &outcome.notes {
        println!("note {} {note}", workload.name());
    }
    for v in &outcome.violations {
        eprintln!("perfbench {}: VIOLATION {v}", workload.name());
    }
    let metrics = match result_metrics(workload, &outcome, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed {} finished in {:.1} s",
        workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload in its own child process, one after
/// another; the result line merges theirs.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for workload in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !output.status.success() {
            eprintln!("perfbench: {} failed ({})", workload.name(), output.status);
            return ExitCode::FAILURE;
        }
        let Ok(json) = traj_model::json::JsonValue::parse(last) else {
            eprintln!("perfbench: {} printed no result line", workload.name());
            return ExitCode::FAILURE;
        };
        correct &= json.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += json
            .get("attempted")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as u64;
        failed += json.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        if let Some(traj_model::json::JsonValue::Object(pairs)) = json.get("metrics") {
            for (name, m) in pairs {
                merged.push(Metric {
                    name: format!("{}.{name}", workload.name()),
                    value: m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
                    unit: m
                        .get("unit")
                        .and_then(|u| u.as_str())
                        .unwrap_or("")
                        .to_string(),
                    basis: String::new(),
                });
            }
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &merged)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload compress|ingest|serve_hot|scan_cold|all \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
