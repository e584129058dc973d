//! The `trajsimp` command line, driven as a user drives it: every mode
//! rejects a missing value, an unknown flag, a non-finite number and an
//! unknown algorithm with exit code 1 and the usage text; the single-file
//! mode writes exactly the shape points the fleet registry produces, for
//! every algorithm name; and a persisted store answers every query kind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use trajsimp::data::io::{read_csv, write_csv};
use trajsimp::data::{DatasetGenerator, DatasetKind};
use trajsimp::pipeline::{compress_fleet_sequential, FleetAlgorithm};

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajsimp-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `trajsimp args…`, killing it if it has not exited within a minute
/// (a `serve` that wrongly accepted its arguments would otherwise listen
/// forever).
fn trajsimp(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trajsimp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trajsimp");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll trajsimp").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("trajsimp {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect trajsimp output")
}

fn assert_success(args: &[&str]) -> String {
    let out = trajsimp(args);
    assert!(
        out.status.success(),
        "trajsimp {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A seeded track written as an `x,y,t` CSV.
fn track_csv(dir: &Path) -> PathBuf {
    let path = dir.join("track.csv");
    let track = DatasetGenerator::for_kind(DatasetKind::Taxi, 11).generate_trajectory(0, 400);
    let mut file = std::fs::File::create(&path).unwrap();
    write_csv(&mut file, &track).unwrap();
    path
}

#[test]
fn bad_arguments_exit_1_with_the_usage_text() {
    let dir = scratch("bad");
    let track = track_csv(&dir);
    let track = track.to_str().unwrap();
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    // A real store, so that a query with a non-finite number would
    // otherwise run and answer.
    assert_success(&["store", "--out", store, "-n", "4", "-p", "50", "-w", "1"]);
    // Each case must fail while its arguments are read, before any work.
    let cases: &[(&[&str], &str)] = &[
        // single-file mode
        (&[track, "--epsilon"], "needs a value"),
        (&[track, "--bogus", "1"], "unexpected argument '--bogus'"),
        (&[track, "--epsilon", "nan"], "positive finite"),
        (&[track, "--algorithm", "nope"], "unknown algorithm"),
        (&[], "missing the input file"),
        // fleet
        (&["fleet", "--points"], "needs a value"),
        (&["fleet", "--bogus"], "unexpected argument '--bogus'"),
        (&["fleet", "--epsilon", "inf"], "positive finite"),
        (&["fleet", "-a", "nope"], "unknown algorithm"),
        // store
        (&["store", "--out", store, "--format"], "needs a value"),
        (&["store", "--out", store, "--bogus", "1"], "unexpected"),
        (&["store", "--out", store, "-e", "-inf"], "positive finite"),
        (
            &["store", "--out", store, "-a", "nope"],
            "unknown algorithm",
        ),
        // query
        (&["query", store, "--device"], "needs a value"),
        (&["query", store, "--bogus", "1"], "unexpected argument"),
        (
            &["query", store, "--eviction", "lru"],
            "unexpected argument",
        ),
        (&["query", store, "--window", "nan,nan,nan,nan"], "finite"),
        (
            &[
                "query", store, "--device", "1", "--from", "nan", "--to", "1e9",
            ],
            "finite",
        ),
        (&["query", store, "--device", "1", "--at", "inf"], "finite"),
        // knn
        (&["knn", store, "--point"], "needs a value"),
        (&["knn", store, "--point", "1,2", "--bogus"], "unexpected"),
        (&["knn", store, "--point", "1,nan"], "finite"),
        (&["knn", store, "--point", "1,2,3"], "want 2"),
        // geofence
        (&["geofence", "--fence"], "needs a value"),
        (
            &["geofence", "--fence", "a=0,0,1,1", "--bogus"],
            "unexpected",
        ),
        (&["geofence", "--fence", "a=0,0,inf,1"], "finite"),
        (
            &["geofence", "--fence", "a=0,0,1,1", "-a", "nope"],
            "unknown algorithm",
        ),
        // serve
        (&["serve", "--port"], "needs a value"),
        (&["serve", "--port", "0", "--bogus", "1"], "unexpected"),
        (
            &["serve", "--port", "0", "--fence", "a=nan,0,1,1"],
            "finite",
        ),
        (
            &["serve", "--port", "0", "--algorithm", "nope"],
            "unknown algorithm",
        ),
    ];
    for (args, want) in cases {
        let out = trajsimp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "trajsimp {args:?}:\n{stderr}");
        assert!(
            stderr.contains(want),
            "trajsimp {args:?}: no '{want}' in\n{stderr}"
        );
        assert!(
            stderr.contains("usage: trajsimp"),
            "trajsimp {args:?}: no usage"
        );
        let names = FleetAlgorithm::all_names().join(", ");
        assert!(
            stderr.contains(&names),
            "trajsimp {args:?}: no algorithm list"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_file_output_matches_the_registry_for_every_algorithm() {
    let dir = scratch("single");
    let track = track_csv(&dir);
    let trajectory = read_csv(std::io::BufReader::new(
        std::fs::File::open(&track).unwrap(),
    ))
    .expect("the written track reads back");
    let fleet = [(0, trajectory)];
    for name in FleetAlgorithm::all_names() {
        let output = dir.join(format!("{name}.csv"));
        let stdout = assert_success(&[
            track.to_str().unwrap(),
            "--algorithm",
            name,
            "--epsilon",
            "25",
            "--output",
            output.to_str().unwrap(),
        ]);
        let algorithm = FleetAlgorithm::by_name(name).unwrap();
        assert!(stdout.contains(algorithm.name()), "{name}: {stdout}");
        let run = compress_fleet_sequential(&fleet, 25.0, &algorithm);
        let simplified = run.results[0].output.as_ref().expect("valid input");
        let want: String = simplified
            .shape_points()
            .iter()
            .map(|p| format!("{},{},{}\n", p.x, p.y, p.t))
            .collect();
        let got = std::fs::read_to_string(&output).unwrap();
        assert_eq!(got, want, "{name}: --output differs from the registry");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_query_knn_round_trip() {
    let dir = scratch("store");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let stdout = assert_success(&[
        "store",
        "--out",
        store,
        "--trajectories",
        "24",
        "--points",
        "150",
        "--epsilon",
        "20",
        "--workers",
        "2",
    ]);
    assert!(stdout.contains("(24 devices,"), "{stdout}");

    // The slice reads through a bounded pool, which reports on stderr:
    // one slice reads each decoded block once, so every fetch misses and
    // a 1 MiB pool evicts nothing.
    let args = [
        "query",
        store,
        "--device",
        "3",
        "--from",
        "0",
        "--to",
        "1e9",
        "--cache-bytes",
        "1048576",
    ];
    let out = trajsimp(&args);
    assert!(out.status.success(), "trajsimp {args:?} failed");
    let slice = String::from_utf8_lossy(&out.stdout);
    let decoded = slice
        .rsplit_once("decoded ")
        .and_then(|(_, rest)| rest.split_once('/'))
        .map(|(n, _)| n)
        .expect("slice reports its decoded blocks");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("cache: 0 hits, {decoded} misses, 0 evictions; hit ratio 0.0%, ");
    assert!(stderr.contains(&want), "want {want:?} in:\n{stderr}");
    let window = assert_success(&["query", store, "--window", "-1e6,-1e6,1e6,1e6"]);
    assert!(window.contains("24 devices"), "{window}");
    let position = assert_success(&["query", store, "--device", "3", "--at", "600"]);
    assert!(position.starts_with("device 3 "), "{position}");
    let knn = assert_success(&[
        "knn", store, "--point", "0,0", "--point", "500,-200", "-k", "4", "--brute",
    ]);
    assert!(knn.contains("bit-identical to brute force"), "{knn}");
    std::fs::remove_dir_all(&dir).ok();
}
