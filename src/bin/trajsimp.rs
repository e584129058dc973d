//! `trajsimp` — command-line trajectory compression.
//!
//! ```text
//! trajsimp <input.csv|input.plt> [--algorithm operb-a] [--epsilon 30] [--output out.csv]
//! trajsimp fleet [--trajectories 1000] [--points 500] [--workers N] [--algorithm operb]
//! trajsimp store --out DIR [--trajectories 200] [--input file.csv --device 7]
//! trajsimp query DIR (--device N --from T --to T | --window x0,y0,x1,y1 | --device N --at T)
//! trajsimp knn DIR --point x,y [-k 5] [--brute]
//! trajsimp geofence --fence downtown=0,0,500,500 [--waves 3]
//! ```
//!
//! The single-file mode reads a trajectory file (planar `x,y,t` CSV or a
//! GeoLife `.plt` log), simplifies it with the selected error-bounded
//! algorithm and writes the retained shape points as CSV, printing the
//! compression statistics the paper's evaluation reports (ratio, average
//! error, maximum error, throughput).
//!
//! The `fleet` subcommand generates a synthetic fleet of trajectory
//! streams, compresses it through the parallel pipeline of
//! `traj-pipeline`, verifies the error bound on every output and reports
//! the measured speedup over the sequential loop.
//!
//! The `store` subcommand compresses a fleet (synthetic, or a single
//! input file) straight into a persistent `traj-store` directory; the
//! `query` subcommand answers time-range, spatial-window and
//! point-in-time queries from such a directory, decoding only the blocks
//! whose metadata overlaps the query.
//!
//! The `knn` subcommand ranks the k stored devices nearest to a query
//! point set, pruning whole devices from the ζ-expanded block metadata
//! before touching any compressed payload; `--brute` cross-checks the
//! result against the exhaustive scan.  The `geofence` subcommand runs
//! the continuous-query engine live: it registers standing fences, keeps
//! ingesting waves of a synthetic fleet, and prints every alert as the
//! sealed blocks match.
//!
//! The `serve` subcommand puts the std-only HTTP query server of
//! `traj-service` in front of a sharded store — either a persisted store
//! directory (opened in crash-recovery mode) or a freshly compressed
//! synthetic fleet — and optionally keeps ingesting further waves of the
//! fleet live while serving.  `GET /shutdown` stops it gracefully.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use trajsimp::baselines::{Bqs, DouglasPeucker, Fbqs, OpeningWindow, TdTr};
use trajsimp::data::io::{read_csv, read_plt};
use trajsimp::data::{DatasetGenerator, DatasetKind};
use trajsimp::geo::BoundingBox;
use trajsimp::metrics::{average_error, max_error};
use trajsimp::model::{BatchSimplifier, Trajectory};
use trajsimp::operb::{Operb, OperbA};
use trajsimp::pipeline::fleet::verify_error_bound;
use trajsimp::pipeline::{
    compress_fleet, compress_fleet_sequential, DeviceId, FleetAlgorithm, PipelineConfig, Speedup,
};
use trajsimp::store::{compress_fleet_into_store, EvictionKind, TrajStore};

const USAGE: &str = "usage: trajsimp <input.csv|input.plt> [--algorithm NAME] [--epsilon METERS] [--output FILE]\n\
       trajsimp fleet [--trajectories N] [--points N] [--workers N] [--batch N]\n\
                      [--algorithm NAME] [--epsilon METERS] [--dataset taxi|truck|sercar|geolife] [--seed N]\n\
       trajsimp store --out DIR [--trajectories N] [--points N] [--workers N] [--algorithm NAME]\n\
                      [--epsilon METERS] [--dataset NAME] [--seed N] [--format varint|for]\n\
                      [--input FILE [--device ID]]\n\
       trajsimp query DIR --device N --from T --to T   (time slice)\n\
       trajsimp query DIR --window x0,y0,x1,y1 [--from T --to T]   (spatial window)\n\
       trajsimp query DIR --device N --at T   (interpolated position)\n\
                      query also takes [--cache-bytes N] [--eviction lru|clock|sieve] [--profile]\n\
       trajsimp knn DIR --point x,y [--point x,y ...] [-k N] [--brute]\n\
                      [--cache-bytes N] [--eviction lru|clock|sieve]   (k-nearest trajectories)\n\
       trajsimp geofence --fence name=x0,y0,x1,y1 [--fence ...] [--waves N] [--shards N]\n\
                      [fleet flags]   (continuous geofence demo over live synthetic ingest)\n\
       trajsimp serve [DIR] [--addr HOST] [--port P] [--server-workers N] [--shards N] [--live WAVES]\n\
                      [--fence name=x0,y0,x1,y1]\n\
                      [--durable DIR] [--durability async|group-commit[:MS]]\n\
                      [--cache-bytes N] [--eviction lru|clock|sieve] [--slow-query-ms MS]\n\
                      [--no-shutdown-endpoint] [--trajectories N] [--points N] [--algorithm NAME]\n\
                      [--epsilon METERS] [--dataset NAME] [--seed N]   (HTTP query server; GET /shutdown stops it)\n\
                     algorithms: operb (default: operb-a), operb-a, raw-operb, raw-operb-a, dp, td-tr, opw, bqs, fbqs";

struct Options {
    input: String,
    algorithm: String,
    epsilon: f64,
    output: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input = None;
    let mut algorithm = "operb-a".to_string();
    let mut epsilon = 30.0;
    let mut output = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algorithm" | "-a" => {
                algorithm = it.next().ok_or("--algorithm needs a value")?.to_lowercase();
            }
            "--epsilon" | "-e" => {
                let v = it.next().ok_or("--epsilon needs a value")?;
                epsilon = v.parse().map_err(|_| format!("invalid epsilon '{v}'"))?;
            }
            "--output" | "-o" => {
                output = Some(it.next().ok_or("--output needs a file")?.to_string());
            }
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(Options {
        input: input.ok_or(USAGE)?,
        algorithm,
        epsilon,
        output,
    })
}

fn algorithm_by_name(name: &str) -> Option<Box<dyn BatchSimplifier>> {
    Some(match name {
        "operb" => Box::new(Operb::new()),
        "raw-operb" => Box::new(Operb::raw()),
        "operb-a" => Box::new(OperbA::new()),
        "raw-operb-a" => Box::new(OperbA::raw()),
        "dp" | "douglas-peucker" => Box::new(DouglasPeucker::new()),
        "td-tr" | "tdtr" => Box::new(TdTr::new()),
        "opw" => Box::new(OpeningWindow::new()),
        "bqs" => Box::new(Bqs::new()),
        "fbqs" => Box::new(Fbqs::new()),
        _ => return None,
    })
}

fn load(path: &str) -> Result<Trajectory, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    if path.ends_with(".plt") {
        read_plt(reader).map_err(|e| format!("cannot parse {path}: {e}"))
    } else {
        read_csv(reader).map_err(|e| format!("cannot parse {path}: {e}"))
    }
}

struct FleetOptions {
    trajectories: usize,
    points: usize,
    workers: usize,
    batch: usize,
    algorithm: String,
    epsilon: f64,
    dataset: DatasetKind,
    seed: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            trajectories: 1000,
            points: 500,
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            batch: 256,
            algorithm: "operb".to_string(),
            epsilon: 30.0,
            dataset: DatasetKind::Taxi,
            seed: 20170401,
        }
    }
}

fn parse_fleet_args(args: &[String]) -> Result<FleetOptions, String> {
    let mut o = FleetOptions::default();
    let mut it = args.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trajectories" | "-n" => {
                let v = value(&mut it, arg)?;
                o.trajectories = v.parse().map_err(|_| format!("invalid count '{v}'"))?;
            }
            "--points" | "-p" => {
                let v = value(&mut it, arg)?;
                o.points = v.parse().map_err(|_| format!("invalid count '{v}'"))?;
            }
            "--workers" | "-w" => {
                let v = value(&mut it, arg)?;
                o.workers = v.parse().map_err(|_| format!("invalid count '{v}'"))?;
            }
            "--batch" | "-b" => {
                let v = value(&mut it, arg)?;
                o.batch = v.parse().map_err(|_| format!("invalid count '{v}'"))?;
            }
            "--algorithm" | "-a" => {
                o.algorithm = value(&mut it, arg)?.to_lowercase();
            }
            "--epsilon" | "-e" => {
                let v = value(&mut it, arg)?;
                o.epsilon = v.parse().map_err(|_| format!("invalid epsilon '{v}'"))?;
            }
            "--dataset" | "-d" => {
                let v = value(&mut it, arg)?;
                o.dataset = match v.to_ascii_lowercase().as_str() {
                    "taxi" => DatasetKind::Taxi,
                    "truck" => DatasetKind::Truck,
                    "sercar" => DatasetKind::SerCar,
                    "geolife" => DatasetKind::GeoLife,
                    _ => return Err(format!("unknown dataset '{v}'")),
                };
            }
            "--seed" | "-s" => {
                let v = value(&mut it, arg)?;
                o.seed = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if o.trajectories == 0 || o.points < 2 {
        return Err("fleet needs --trajectories >= 1 and --points >= 2".to_string());
    }
    if !o.epsilon.is_finite() || o.epsilon <= 0.0 {
        return Err(format!(
            "--epsilon must be a positive finite bound, got {}",
            o.epsilon
        ));
    }
    Ok(o)
}

fn run_fleet(options: &FleetOptions) -> Result<(), String> {
    let Some(algorithm) = FleetAlgorithm::by_name(&options.algorithm) else {
        return Err(format!("unknown algorithm '{}'", options.algorithm));
    };
    eprintln!(
        "generating {} {} trajectories of {} points each (seed {}) …",
        options.trajectories, options.dataset, options.points, options.seed
    );
    let generator = DatasetGenerator::for_kind(options.dataset, options.seed);
    let fleet: Vec<(DeviceId, Trajectory)> = (0..options.trajectories)
        .map(|i| {
            (
                i as DeviceId,
                generator.generate_trajectory(i, options.points),
            )
        })
        .collect();
    let total_points: usize = fleet.iter().map(|(_, t)| t.len()).sum();

    eprintln!("sequential reference ({}) …", algorithm.name());
    let sequential = compress_fleet_sequential(&fleet, options.epsilon, &algorithm);

    eprintln!("parallel pipeline ({} workers) …", options.workers);
    let config = PipelineConfig::new(options.epsilon)
        .with_workers(options.workers)
        .with_batch_size(options.batch);
    let mut parallel = compress_fleet(&fleet, &config, &algorithm);

    // Verify the error bound on every parallel output.
    let worst = verify_error_bound(&fleet, &mut parallel.results, options.epsilon)?;

    let total_segments: usize = parallel
        .results
        .iter()
        .filter_map(|r| r.output.as_ref().ok())
        .map(|s| s.num_segments())
        .sum();
    let speedup = Speedup {
        sequential: sequential.report.elapsed,
        parallel: parallel.report.elapsed,
    };
    println!(
        "fleet        : {} trajectories, {} points ({})",
        options.trajectories, total_points, options.dataset
    );
    println!(
        "algorithm    : {} (ζ = {} m)",
        algorithm.name(),
        options.epsilon
    );
    println!("segments     : {total_segments}");
    println!(
        "ratio        : {:.4}",
        total_segments as f64 / total_points.max(1) as f64
    );
    println!(
        "max error    : {worst:.2} m (bound holds on all {} streams)",
        fleet.len()
    );
    println!(
        "sequential   : {:.2} ms ({:.0} points/s)",
        sequential.report.elapsed.as_secs_f64() * 1e3,
        sequential.report.points_per_sec()
    );
    println!(
        "parallel     : {:.2} ms ({:.0} points/s, {} workers, batch {})",
        parallel.report.elapsed.as_secs_f64() * 1e3,
        parallel.report.points_per_sec(),
        parallel.report.workers,
        options.batch
    );
    println!("speedup      : {:.2}x", speedup.factor());
    Ok(())
}

struct StoreOptions {
    out: String,
    fleet: FleetOptions,
    input: Option<String>,
    device: DeviceId,
    format: trajsimp::model::codec::BlockFormat,
}

fn parse_store_args(args: &[String]) -> Result<StoreOptions, String> {
    let mut out = None;
    let mut input = None;
    let mut device: DeviceId = 0;
    let mut format = trajsimp::model::codec::BlockFormat::default();
    let mut fleet_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" | "-o" => {
                out = Some(it.next().ok_or("--out needs a directory")?.to_string());
            }
            "--input" | "-i" => {
                input = Some(it.next().ok_or("--input needs a file")?.to_string());
            }
            "--device" => {
                let v = it.next().ok_or("--device needs an id")?;
                device = v.parse().map_err(|_| format!("invalid device id '{v}'"))?;
            }
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs 'varint' or 'for'")?;
                format = trajsimp::model::codec::BlockFormat::from_name(v)
                    .ok_or_else(|| format!("unknown block format '{v}' (varint|for)"))?;
            }
            other => fleet_args.push(other.to_string()),
        }
    }
    // Everything else is shared with `fleet` (trajectories, points,
    // workers, algorithm, epsilon, dataset, seed).
    let fleet = parse_fleet_args(&fleet_args)?;
    Ok(StoreOptions {
        out: out.ok_or("store needs --out DIR")?,
        fleet,
        input,
        device,
        format,
    })
}

fn run_store(options: &StoreOptions) -> Result<(), String> {
    let Some(algorithm) = FleetAlgorithm::by_name(&options.fleet.algorithm) else {
        return Err(format!("unknown algorithm '{}'", options.fleet.algorithm));
    };
    let fleet: Vec<(DeviceId, Trajectory)> = match &options.input {
        Some(path) => {
            eprintln!("loading {path} as device {} …", options.device);
            vec![(options.device, load(path)?)]
        }
        None => {
            eprintln!(
                "generating {} {} trajectories of {} points each (seed {}) …",
                options.fleet.trajectories,
                options.fleet.dataset,
                options.fleet.points,
                options.fleet.seed
            );
            let generator = DatasetGenerator::for_kind(options.fleet.dataset, options.fleet.seed);
            (0..options.fleet.trajectories)
                .map(|i| {
                    (
                        i as DeviceId,
                        generator.generate_trajectory(i, options.fleet.points),
                    )
                })
                .collect()
        }
    };
    let config = PipelineConfig::new(options.fleet.epsilon)
        .with_workers(options.fleet.workers)
        .with_batch_size(options.fleet.batch);
    let mut store =
        TrajStore::new(trajsimp::store::StoreConfig::default().with_format(options.format));
    let start = Instant::now();
    let (_, ingested) = compress_fleet_into_store(&fleet, &config, &algorithm, &mut store)?;
    let out = std::path::Path::new(&options.out);
    store.save(out).map_err(|e| e.to_string())?;
    let stats = store.stats();
    println!(
        "store        : {} ({} devices, {} blocks, {} segments)",
        options.out, stats.devices, stats.blocks, stats.segments
    );
    println!(
        "algorithm    : {} (ζ = {} m)",
        algorithm.name(),
        options.fleet.epsilon
    );
    println!("block format : {}", options.format);
    println!("points       : {} (from {ingested} streams)", stats.points);
    println!(
        "stored bytes : {} ({:.2} B/point, {:.1}x smaller than raw)",
        stats.stored_bytes,
        stats.bytes_per_point(),
        stats.compression_factor()
    );
    println!(
        "time         : {:.2} ms ({:.0} points/s)",
        start.elapsed().as_secs_f64() * 1e3,
        stats.points as f64 / start.elapsed().as_secs_f64().max(1e-12)
    );
    Ok(())
}

struct QueryOptions {
    dir: String,
    device: Option<DeviceId>,
    from: Option<f64>,
    to: Option<f64>,
    at: Option<f64>,
    window: Option<BoundingBox>,
    cache_bytes: Option<usize>,
    eviction: EvictionKind,
    profile: bool,
}

/// Parses an `--eviction` value into a policy kind.
fn parse_eviction(value: &str) -> Result<EvictionKind, String> {
    EvictionKind::from_name(value)
        .ok_or_else(|| format!("--eviction must be one of lru, clock, sieve; got '{value}'"))
}

fn parse_query_args(args: &[String]) -> Result<QueryOptions, String> {
    let mut o = QueryOptions {
        dir: String::new(),
        device: None,
        from: None,
        to: None,
        at: None,
        window: None,
        cache_bytes: None,
        eviction: EvictionKind::default(),
        profile: false,
    };
    let mut it = args.iter();
    fn num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<f64, String> {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("invalid {flag} value '{v}'"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--device" | "-d" => {
                let v = it.next().ok_or("--device needs an id")?;
                o.device = Some(v.parse().map_err(|_| format!("invalid device id '{v}'"))?);
            }
            "--from" => o.from = Some(num(&mut it, arg)?),
            "--to" => o.to = Some(num(&mut it, arg)?),
            "--at" => o.at = Some(num(&mut it, arg)?),
            "--window" | "-w" => {
                let v = it.next().ok_or("--window needs x0,y0,x1,y1")?;
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|p| p.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid window '{v}' (want x0,y0,x1,y1)"))?;
                if parts.len() != 4 {
                    return Err(format!("invalid window '{v}' (want 4 coordinates)"));
                }
                o.window = Some(BoundingBox {
                    min_x: parts[0].min(parts[2]),
                    min_y: parts[1].min(parts[3]),
                    max_x: parts[0].max(parts[2]),
                    max_y: parts[1].max(parts[3]),
                });
            }
            "--cache-bytes" => {
                let v = it.next().ok_or("--cache-bytes needs a byte count")?;
                o.cache_bytes = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --cache-bytes '{v}'"))?,
                );
            }
            "--eviction" => {
                let v = it.next().ok_or("--eviction needs a policy name")?;
                o.eviction = parse_eviction(v)?;
            }
            "--profile" => o.profile = true,
            other if o.dir.is_empty() && !other.starts_with('-') => {
                o.dir = other.to_string();
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if o.dir.is_empty() {
        return Err("query needs a store directory".to_string());
    }
    Ok(o)
}

fn run_query(options: &QueryOptions) -> Result<(), String> {
    let config = trajsimp::store::StoreConfig::default()
        .with_cache_bytes(options.cache_bytes)
        .with_eviction(options.eviction);
    let store = TrajStore::open_with(std::path::Path::new(&options.dir), config)
        .map_err(|e| e.to_string())?;
    let stats = store.stats();
    eprintln!(
        "opened {} ({} devices, {} blocks, {} segments)",
        options.dir, stats.devices, stats.blocks, stats.segments
    );
    // Under --profile the query runs traced and the span tree (index walk,
    // pager fetches, block decodes) is printed as a stage breakdown.
    let profile_guard = options.profile.then(trajsimp::obs::trace_begin);
    match (options.window, options.at, options.device) {
        // Spatial window query across the fleet.
        (Some(window), None, None) => {
            let time = match (options.from, options.to) {
                (Some(a), Some(b)) => Some((a, b)),
                (None, None) => None,
                _ => return Err("--from and --to must be given together".into()),
            };
            let q = store.window_query(&window, time);
            for m in &q.matches {
                println!("device {:<6} {:>5} segments", m.device, m.segments.len());
            }
            println!(
                "{} devices, {} segments; decoded {}/{} blocks (skip ratio {:.1}%)",
                q.matches.len(),
                q.stats.segments_returned,
                q.stats.blocks_decoded,
                q.stats.blocks_in_scope,
                q.stats.skip_ratio() * 100.0
            );
        }
        // Interpolated position.
        (None, Some(t), Some(device)) => match store.position_at(device, t) {
            Some(p) => println!("device {device} at t={t}: {p}"),
            None => println!("device {device} has no stored coverage at t={t}"),
        },
        // Time-range slice.
        (None, None, Some(device)) => {
            let (Some(from), Some(to)) = (options.from, options.to) else {
                return Err("time slice needs --from and --to".into());
            };
            let slice = store.time_slice(device, from, to);
            for s in &slice.segments {
                println!(
                    "[{:9.1}s → {:9.1}s] {} → {} (points {}..={})",
                    s.segment.start.t,
                    s.segment.end.t,
                    s.segment.start,
                    s.segment.end,
                    s.first_index,
                    s.last_index
                );
            }
            println!(
                "{} segments; decoded {}/{} blocks (skip ratio {:.1}%)",
                slice.stats.segments_returned,
                slice.stats.blocks_decoded,
                slice.stats.blocks_in_scope,
                slice.stats.skip_ratio() * 100.0
            );
        }
        _ => {
            return Err(
                "query wants exactly one of: --device with --from/--to, --device with --at, \
                 or --window"
                    .into(),
            )
        }
    }
    if let Some(guard) = profile_guard {
        let trace = guard.finish("trajsimp query");
        eprintln!("profile:\n{}", trace.render_text());
    }
    if options.cache_bytes.is_some() {
        if let Some(cache) = store.memory_stats().cache {
            eprintln!(
                "cache[{}]: {} hits, {} misses, {} evictions; hit ratio {:.1}%, {} resident bytes",
                cache.policy,
                cache.hits,
                cache.misses,
                cache.evictions,
                cache.hit_ratio() * 100.0,
                cache.resident_bytes
            );
        }
    }
    Ok(())
}

struct KnnOptions {
    dir: String,
    points: Vec<trajsimp::geo::Point>,
    k: usize,
    brute: bool,
    cache_bytes: Option<usize>,
    eviction: EvictionKind,
}

fn parse_knn_args(args: &[String]) -> Result<KnnOptions, String> {
    let mut o = KnnOptions {
        dir: String::new(),
        points: Vec::new(),
        k: 1,
        brute: false,
        cache_bytes: None,
        eviction: EvictionKind::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--point" | "-p" => {
                let v = it.next().ok_or("--point needs x,y")?;
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|p| p.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid point '{v}' (want x,y)"))?;
                if parts.len() != 2 || parts.iter().any(|c| !c.is_finite()) {
                    return Err(format!("invalid point '{v}' (want finite x,y)"));
                }
                o.points
                    .push(trajsimp::geo::Point::new(parts[0], parts[1], 0.0));
            }
            "--k" | "-k" => {
                let v = it.next().ok_or("--k needs a count")?;
                o.k = v.parse().map_err(|_| format!("invalid k '{v}'"))?;
            }
            "--brute" => o.brute = true,
            "--cache-bytes" => {
                let v = it.next().ok_or("--cache-bytes needs a byte count")?;
                o.cache_bytes = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --cache-bytes '{v}'"))?,
                );
            }
            "--eviction" => {
                let v = it.next().ok_or("--eviction needs a policy name")?;
                o.eviction = parse_eviction(v)?;
            }
            other if o.dir.is_empty() && !other.starts_with('-') => {
                o.dir = other.to_string();
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if o.dir.is_empty() {
        return Err("knn needs a store directory".to_string());
    }
    if o.points.is_empty() {
        return Err("knn needs at least one --point x,y".to_string());
    }
    if o.k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    Ok(o)
}

fn run_knn(options: &KnnOptions) -> Result<(), String> {
    let config = trajsimp::store::StoreConfig::default()
        .with_cache_bytes(options.cache_bytes)
        .with_eviction(options.eviction);
    let store = TrajStore::open_with(std::path::Path::new(&options.dir), config)
        .map_err(|e| e.to_string())?;
    let stats = store.stats();
    eprintln!(
        "opened {} ({} devices, {} blocks, {} segments)",
        options.dir, stats.devices, stats.blocks, stats.segments
    );
    let start = Instant::now();
    let result = store.knn(&options.points, options.k);
    let elapsed = start.elapsed();
    for (rank, n) in result.neighbors.iter().enumerate() {
        println!(
            "#{:<4} device {:<8} distance {:>10.2} m",
            rank + 1,
            n.device,
            n.distance
        );
    }
    let s = &result.stats;
    println!(
        "pruned       : {}/{} devices from metadata alone ({:.1}%)",
        s.devices_pruned,
        s.devices_total,
        s.device_prune_ratio() * 100.0
    );
    println!(
        "decoded      : {}/{} blocks ({:.1}% skipped)",
        s.blocks_decoded,
        s.blocks_total,
        s.block_prune_ratio() * 100.0
    );
    println!("time         : {:.2} ms", elapsed.as_secs_f64() * 1e3);
    if options.brute {
        let brute = store.knn_bruteforce(&options.points, options.k);
        let same =
            brute.neighbors.len() == result.neighbors.len()
                && brute.neighbors.iter().zip(&result.neighbors).all(|(a, b)| {
                    a.device == b.device && a.distance.to_bits() == b.distance.to_bits()
                });
        if !same {
            return Err(format!(
                "pruned kNN disagrees with brute force: {:?} vs {:?}",
                result.neighbors, brute.neighbors
            ));
        }
        println!(
            "verified     : bit-identical to brute force over all {} devices",
            s.devices_total
        );
    }
    Ok(())
}

/// Parses a `--fence` value `name=x0,y0,x1,y1` into a named region
/// (corners in either order).
fn parse_fence(spec: &str) -> Result<(String, BoundingBox), String> {
    let (name, coords) = spec
        .split_once('=')
        .ok_or_else(|| format!("invalid fence '{spec}' (want name=x0,y0,x1,y1)"))?;
    let parts: Vec<f64> = coords
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid fence '{spec}' (want name=x0,y0,x1,y1)"))?;
    if parts.len() != 4 {
        return Err(format!("invalid fence '{spec}' (want 4 coordinates)"));
    }
    Ok((
        name.to_string(),
        BoundingBox {
            min_x: parts[0].min(parts[2]),
            min_y: parts[1].min(parts[3]),
            max_x: parts[0].max(parts[2]),
            max_y: parts[1].max(parts[3]),
        },
    ))
}

struct GeofenceOptions {
    fences: Vec<(String, BoundingBox)>,
    waves: usize,
    shards: usize,
    fleet: FleetOptions,
}

fn parse_geofence_args(args: &[String]) -> Result<GeofenceOptions, String> {
    let mut fences = Vec::new();
    let mut waves = 3usize;
    let mut shards = 4usize;
    let mut fleet_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fence" | "-f" => {
                let v = it.next().ok_or("--fence needs name=x0,y0,x1,y1")?;
                fences.push(parse_fence(v)?);
            }
            "--waves" => {
                let v = it.next().ok_or("--waves needs a count")?;
                waves = v.parse().map_err(|_| format!("invalid --waves '{v}'"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a count")?;
                shards = v.parse().map_err(|_| format!("invalid --shards '{v}'"))?;
            }
            other => fleet_args.push(other.to_string()),
        }
    }
    let fleet = parse_fleet_args(&fleet_args)?;
    if fences.is_empty() {
        return Err("geofence needs at least one --fence name=x0,y0,x1,y1".to_string());
    }
    if waves == 0 || shards == 0 {
        return Err("geofence needs --waves >= 1 and --shards >= 1".to_string());
    }
    Ok(GeofenceOptions {
        fences,
        waves,
        shards,
        fleet,
    })
}

fn run_geofence(options: &GeofenceOptions) -> Result<(), String> {
    use trajsimp::store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

    let Some(algorithm) = FleetAlgorithm::by_name(&options.fleet.algorithm) else {
        return Err(format!("unknown algorithm '{}'", options.fleet.algorithm));
    };
    eprintln!(
        "generating {} {} trajectories of {} points each (seed {}) …",
        options.fleet.trajectories, options.fleet.dataset, options.fleet.points, options.fleet.seed
    );
    let generator = DatasetGenerator::for_kind(options.fleet.dataset, options.fleet.seed);
    let fleet: Vec<(DeviceId, Trajectory)> = (0..options.fleet.trajectories)
        .map(|i| {
            (
                i as DeviceId,
                generator.generate_trajectory(i, options.fleet.points),
            )
        })
        .collect();

    let store = std::sync::Arc::new(ShardedStore::new(
        StoreConfig::default().with_block_segments(32),
        options.shards,
    ));
    for (name, region) in &options.fences {
        let id = store
            .geofences()
            .register(name, *region, None)
            .map_err(|e| format!("fence '{name}': {e}"))?;
        println!(
            "fence #{id} '{name}': ({:.1}, {:.1}) .. ({:.1}, {:.1})",
            region.min_x, region.min_y, region.max_x, region.max_y
        );
    }
    let subscription = store.geofences().subscribe(65536, None);

    let config = PipelineConfig::new(options.fleet.epsilon)
        .with_workers(options.fleet.workers)
        .with_batch_size(options.fleet.batch);
    let span = fleet.iter().map(|(_, t)| t.last().t).fold(0.0f64, f64::max) + 60.0;
    let mut total_alerts = 0usize;
    for wave in 0..options.waves {
        let shifted = shifted_fleet(&fleet, span * wave as f64);
        let (_, ingested) =
            compress_fleet_into_shared_store(&shifted, &config, &algorithm, &store)?;
        let mut alerts = subscription.poll(usize::MAX);
        alerts.sort_by_key(|a| a.seq);
        for a in &alerts {
            println!(
                "wave {:<3} alert #{:<5} fence '{}' device {:<6} block {:<4} t [{:.0}, {:.0}] ({} segments)",
                wave + 1,
                a.seq,
                a.fence_name,
                a.device,
                a.block,
                a.t_min,
                a.t_max,
                a.num_segments
            );
        }
        total_alerts += alerts.len();
        eprintln!(
            "wave {}/{}: ingested {} streams, {} alerts",
            wave + 1,
            options.waves,
            ingested,
            alerts.len()
        );
    }
    let stats = store.geofences().stats();
    println!(
        "alerts       : {total_alerts} across {} waves ({} dropped by this subscriber)",
        options.waves,
        subscription.dropped()
    );
    println!(
        "metadata walk: {} fence-block checks, {} dismissed without decode ({:.1}%)",
        stats.blocks_checked,
        stats.blocks_skipped,
        100.0 * stats.blocks_skipped as f64 / (stats.blocks_checked.max(1)) as f64
    );
    Ok(())
}

struct ServeOptions {
    dir: Option<String>,
    addr: String,
    port: u16,
    server_workers: usize,
    shards: usize,
    live_waves: usize,
    shutdown_endpoint: bool,
    durable: Option<String>,
    durability: trajsimp::store::DurabilityMode,
    cache_bytes: Option<usize>,
    eviction: EvictionKind,
    slow_query_ms: Option<u64>,
    fences: Vec<(String, BoundingBox)>,
    fleet: FleetOptions,
}

/// Parses a `--durability` value: `async`, `group-commit`, or
/// `group-commit:WINDOW_MS`.
fn parse_durability(value: &str) -> Result<trajsimp::store::DurabilityMode, String> {
    use trajsimp::store::DurabilityMode;
    match value {
        "async" => Ok(DurabilityMode::WalAsync),
        "group-commit" => Ok(DurabilityMode::WalGroupCommit(
            std::time::Duration::from_millis(2),
        )),
        other => {
            if let Some(ms) = other.strip_prefix("group-commit:") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|e| format!("--durability {other}: {e}"))?;
                Ok(DurabilityMode::WalGroupCommit(
                    std::time::Duration::from_millis(ms),
                ))
            } else {
                Err(format!(
                    "--durability must be 'async', 'group-commit' or 'group-commit:MS', got '{other}'"
                ))
            }
        }
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut dir = None;
    let mut addr = "127.0.0.1".to_string();
    let mut port = 7878u16;
    let mut server_workers = 4usize;
    let mut shards = 16usize;
    let mut live_waves = 0usize;
    let mut shutdown_endpoint = true;
    let mut durable = None;
    let mut durability =
        trajsimp::store::DurabilityMode::WalGroupCommit(std::time::Duration::from_millis(2));
    let mut cache_bytes = None;
    let mut eviction = EvictionKind::default();
    let mut slow_query_ms = None;
    let mut fences = Vec::new();
    let mut fleet_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            // The endpoint is unauthenticated; anyone binding beyond
            // loopback should turn it off (and stop the server by signal).
            "--no-shutdown-endpoint" => shutdown_endpoint = false,
            "--addr" => addr = value()?.to_string(),
            "--port" => port = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--server-workers" => {
                server_workers = value()?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--shards" => shards = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--live" => live_waves = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--durable" => durable = Some(value()?.to_string()),
            "--durability" => durability = parse_durability(value()?)?,
            "--cache-bytes" => {
                let v = value()?;
                cache_bytes = Some(v.parse().map_err(|e| format!("{arg}: {e}"))?);
            }
            "--eviction" => eviction = parse_eviction(value()?)?,
            "--fence" => fences.push(parse_fence(value()?)?),
            "--slow-query-ms" => {
                slow_query_ms = Some(value()?.parse().map_err(|e| format!("{arg}: {e}"))?)
            }
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(other.to_string());
            }
            other => {
                // A fleet flag passes through with its value, so it cannot
                // be mistaken for the store-directory positional.
                fleet_args.push(other.to_string());
                if let Some(v) = it.next() {
                    fleet_args.push(v.to_string());
                }
            }
        }
    }
    // Everything else (trajectories, points, workers, algorithm, epsilon,
    // dataset, seed) is shared with `fleet` and used for synthetic mode.
    let fleet = parse_fleet_args(&fleet_args)?;
    Ok(ServeOptions {
        dir,
        addr,
        port,
        server_workers,
        shards,
        live_waves,
        shutdown_endpoint,
        durable,
        durability,
        cache_bytes,
        eviction,
        slow_query_ms,
        fences,
        fleet,
    })
}

/// `fleet` with every timestamp shifted forward by `offset` seconds — the
/// "next wave" of a live feed (per-device logs are append-only in time).
fn shifted_fleet(fleet: &[(DeviceId, Trajectory)], offset: f64) -> Vec<(DeviceId, Trajectory)> {
    fleet
        .iter()
        .map(|(device, traj)| {
            let points = traj
                .points()
                .iter()
                .map(|p| trajsimp::geo::Point::new(p.x, p.y, p.t + offset))
                .collect();
            (*device, Trajectory::new_unchecked(points))
        })
        .collect()
}

fn run_serve(options: &ServeOptions) -> Result<(), String> {
    use trajsimp::service::{Server, ServiceConfig};
    use trajsimp::store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

    let Some(algorithm) = FleetAlgorithm::by_name(&options.fleet.algorithm) else {
        return Err(format!("unknown algorithm '{}'", options.fleet.algorithm));
    };
    if options.dir.is_some() && options.live_waves > 0 {
        // Live waves re-compress the synthetic fleet; a persisted store
        // has no originals to extend, so the flag would silently do
        // nothing — refuse instead.
        return Err("--live requires synthetic mode (omit the store directory)".to_string());
    }
    if options.dir.is_some() && options.durable.is_some() {
        return Err(
            "--durable opens its own store directory; it cannot be combined with the \
             read-only store-directory positional"
                .to_string(),
        );
    }
    let mut live_fleet = None;
    let store = match &options.dir {
        Some(dir) => {
            // Recovery mode: after a crash mid-append the store comes back
            // up with the longest valid log prefix instead of refusing.
            let config = StoreConfig::default()
                .with_cache_bytes(options.cache_bytes)
                .with_eviction(options.eviction);
            let (store, report) =
                ShardedStore::open_recover_with(std::path::Path::new(dir), options.shards, config)
                    .map_err(|e| e.to_string())?;
            if report.is_clean() {
                eprintln!("opened {dir} ({} blocks)", report.blocks_recovered);
            } else {
                eprintln!(
                    "recovered {dir}: kept {}/{} blocks, dropped {} bytes ({})",
                    report.blocks_recovered,
                    report.manifest_blocks,
                    report.bytes_dropped,
                    report.dropped_reason.as_deref().unwrap_or("count mismatch"),
                );
            }
            std::sync::Arc::new(store)
        }
        None => {
            eprintln!(
                "generating {} {} trajectories of {} points each (seed {}) …",
                options.fleet.trajectories,
                options.fleet.dataset,
                options.fleet.points,
                options.fleet.seed
            );
            let generator = DatasetGenerator::for_kind(options.fleet.dataset, options.fleet.seed);
            let fleet: Vec<(DeviceId, Trajectory)> = (0..options.fleet.trajectories)
                .map(|i| {
                    (
                        i as DeviceId,
                        generator.generate_trajectory(i, options.fleet.points),
                    )
                })
                .collect();
            let store_config = StoreConfig::default()
                .with_block_segments(32)
                .with_cache_bytes(options.cache_bytes)
                .with_eviction(options.eviction);
            let store = match &options.durable {
                // Durable live ingest: every acknowledged stream is in the
                // write-ahead log before the sink moves on, and a crash
                // recovers to exactly the acknowledged prefix.
                Some(dir) => {
                    let (store, report) = ShardedStore::open_durable(
                        std::path::Path::new(dir),
                        options.shards,
                        store_config.with_durability(options.durability),
                    )
                    .map_err(|e| format!("open durable store {dir}: {e}"))?;
                    if report.is_clean() {
                        eprintln!(
                            "durable store {dir}: {} blocks, {} ingests replayed from wal",
                            store.stats().blocks,
                            report.wal.ingests_replayed
                        );
                    } else {
                        eprintln!(
                            "durable store {dir} recovered: {} ingests replayed, {} incomplete, \
                             {} rejected, {} wal bytes dropped",
                            report.wal.ingests_replayed,
                            report.wal.ingests_incomplete,
                            report.wal.ingests_rejected,
                            report.wal.bytes_dropped,
                        );
                    }
                    std::sync::Arc::new(store)
                }
                None => std::sync::Arc::new(ShardedStore::new(store_config, options.shards)),
            };
            // A durable directory that already holds data (recovered or
            // checkpointed) keeps it: the initial synthetic ingest is the
            // time range the store already covers, so re-running it would
            // only bounce off the per-device out-of-order guard.  Live
            // waves resume *past* the recovered data instead (below).
            if store.stats().points == 0 {
                let config = PipelineConfig::new(options.fleet.epsilon)
                    .with_workers(options.fleet.workers)
                    .with_batch_size(options.fleet.batch);
                let (_, ingested) =
                    compress_fleet_into_shared_store(&fleet, &config, &algorithm, &store)?;
                eprintln!("ingested {ingested} streams");
            } else {
                eprintln!(
                    "resuming durable store with {} points — skipping the initial synthetic \
                     ingest",
                    store.stats().points
                );
            }
            live_fleet = Some(fleet);
            store
        }
    };

    // Standing fences watch ingests from here on (forward-only); poll
    // them with GET /subscribe.  A durable store reloads its persisted
    // fences, so a same-named fence is kept rather than duplicated.
    for (name, region) in &options.fences {
        if store.geofences().fences().iter().any(|f| f.name == *name) {
            eprintln!("geofence '{name}' already registered (persisted) — keeping it");
            continue;
        }
        let id = store
            .geofences()
            .register(name, *region, None)
            .map_err(|e| format!("--fence {name}: {e}"))?;
        eprintln!(
            "geofence #{id} '{name}': ({:.1}, {:.1}) .. ({:.1}, {:.1}) — poll /subscribe",
            region.min_x, region.min_y, region.max_x, region.max_y
        );
    }

    let mut service_config = ServiceConfig::default().with_workers(options.server_workers);
    service_config.enable_shutdown_endpoint = options.shutdown_endpoint;
    if let Some(ms) = options.slow_query_ms {
        // 0 traces every request into the slow log — handy for probing a
        // healthy server's span tree.
        service_config =
            service_config.with_slow_query_threshold(Some(std::time::Duration::from_millis(ms)));
    }
    if options.shutdown_endpoint && options.addr != "127.0.0.1" && options.addr != "localhost" {
        eprintln!(
            "warning: binding {} with the unauthenticated /shutdown endpoint enabled — \
             anyone who can reach the port can stop the server; consider --no-shutdown-endpoint",
            options.addr
        );
    }
    let server = Server::start(
        std::sync::Arc::clone(&store),
        (options.addr.as_str(), options.port),
        service_config,
    )
    .map_err(|e| format!("cannot bind {}:{}: {e}", options.addr, options.port))?;
    let stats = store.stats();
    println!("listening on http://{}", server.local_addr());
    println!(
        "serving {} devices, {} blocks, {} segments ({} shards, {} workers); {}",
        stats.devices,
        stats.blocks,
        stats.segments,
        store.num_shards(),
        options.server_workers,
        if options.shutdown_endpoint {
            "GET /shutdown stops"
        } else {
            "shutdown endpoint disabled — stop by signal"
        }
    );

    // Live mode: keep compressing later waves of the same fleet into the
    // store while the server answers queries — ingest and reads overlap.
    let ingest_thread = match (options.live_waves, live_fleet) {
        (waves, Some(fleet)) if waves > 0 => {
            let store = std::sync::Arc::clone(&store);
            let config = PipelineConfig::new(options.fleet.epsilon)
                .with_workers(options.fleet.workers)
                .with_batch_size(options.fleet.batch);
            let algorithm_name = options.fleet.algorithm.clone();
            let span = fleet.iter().map(|(_, t)| t.last().t).fold(0.0f64, f64::max) + 60.0;
            // Each wave shifts the fleet by `span`; the initial ingest is
            // wave 0.  A resumed durable store starts past everything it
            // already holds — a partially ingested wave (crash mid-wave)
            // is rounded up and skipped whole, so no device replays time
            // it has already logged.
            let per_wave: usize = fleet.iter().map(|(_, t)| t.len()).sum();
            let first = store.stats().points.div_ceil(per_wave.max(1)).max(1);
            Some(std::thread::spawn(move || {
                let algorithm =
                    FleetAlgorithm::by_name(&algorithm_name).expect("algorithm validated above");
                for offset in 0..waves {
                    let (wave, n_of) = (first + offset, offset + 1);
                    let shifted = shifted_fleet(&fleet, span * wave as f64);
                    match compress_fleet_into_shared_store(&shifted, &config, &algorithm, &store) {
                        Ok((_, n)) => eprintln!("live wave {n_of}/{waves}: ingested {n} streams"),
                        Err(e) => {
                            eprintln!("live wave {n_of}/{waves} failed: {e}");
                            return;
                        }
                    }
                }
            }))
        }
        _ => None,
    };

    let final_stats = server.join();
    if let Some(h) = ingest_thread {
        let _ = h.join();
    }
    if options.durable.is_some() {
        // A graceful shutdown folds the WAL into the main files, so the
        // next open starts from a clean checkpoint instead of a replay.
        match store.checkpoint() {
            Ok(()) => eprintln!("checkpointed durable store on shutdown"),
            Err(e) => eprintln!("warning: shutdown checkpoint failed: {e}"),
        }
    }
    println!(
        "served {} requests ({} client errors, {} rejected), mean handler latency {:.0} µs, skip ratio {:.1}%",
        final_stats.requests,
        final_stats.client_errors,
        final_stats.rejected,
        final_stats.mean_latency_us(),
        final_stats.skip_ratio() * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            return match parse_serve_args(&args[1..]).and_then(|o| run_serve(&o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("store") => {
            return match parse_store_args(&args[1..]).and_then(|o| run_store(&o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("query") => {
            return match parse_query_args(&args[1..]).and_then(|o| run_query(&o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("knn") => {
            return match parse_knn_args(&args[1..]).and_then(|o| run_knn(&o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("geofence") => {
            return match parse_geofence_args(&args[1..]).and_then(|o| run_geofence(&o)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}\n{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    if args.first().map(String::as_str) == Some("fleet") {
        let options = match parse_fleet_args(&args[1..]) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        return match run_fleet(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(algorithm) = algorithm_by_name(&options.algorithm) else {
        eprintln!("unknown algorithm '{}'\n{USAGE}", options.algorithm);
        return ExitCode::FAILURE;
    };
    let trajectory = match load(&options.input) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let start = Instant::now();
    let simplified = match algorithm.simplify(&trajectory, options.epsilon) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simplification failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    println!(
        "input        : {} ({} points)",
        options.input,
        trajectory.len()
    );
    println!(
        "algorithm    : {} (ζ = {} m)",
        algorithm.name(),
        options.epsilon
    );
    println!("segments     : {}", simplified.num_segments());
    println!("ratio        : {:.4}", simplified.compression_ratio());
    println!(
        "max error    : {:.2} m",
        max_error(&trajectory, &simplified)
    );
    println!(
        "avg error    : {:.2} m",
        average_error(&trajectory, &simplified)
    );
    println!(
        "time         : {:.2} ms ({:.0} points/s)",
        elapsed.as_secs_f64() * 1e3,
        trajectory.len() as f64 / elapsed.as_secs_f64().max(1e-12)
    );

    if let Some(out_path) = options.output {
        let file = match File::create(&out_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut writer = BufWriter::new(file);
        for p in simplified.shape_points() {
            if let Err(e) = writeln!(writer, "{},{},{}", p.x, p.y, p.t) {
                eprintln!("write error: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "output       : {out_path} ({} shape points)",
            simplified.num_shape_points()
        );
    }
    ExitCode::SUCCESS
}
