//! `trajsimp` — command-line trajectory compression.
//!
//! ```text
//! trajsimp <input.csv|input.plt> [--algorithm operb-a] [--epsilon 30] [--output out.csv]
//! trajsimp fleet [--trajectories 1000] [--points 500] [--workers N] [--algorithm operb]
//! trajsimp store --out DIR [--trajectories 200] [--input file.csv --device 7]
//! trajsimp query DIR (--device N --from T --to T | --window x0,y0,x1,y1 | --device N --at T)
//! trajsimp knn DIR --point x,y [-k 5] [--brute]
//! trajsimp geofence --fence downtown=0,0,500,500 [--waves 3]
//! trajsimp experiments fig15 [--scale quick|full] [--json DIR] [--seed N]
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
//!
//! The `experiments` subcommand regenerates a table or figure of the
//! paper's evaluation (§6) through `traj-bench`, or `all` of them in
//! order, and with `--json DIR` also saves each result as `DIR/NAME.json`.
//!
//! Every mode reads its arguments through one [`Flags`] reader, and every
//! algorithm name resolves through [`FleetAlgorithm::by_name`].

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trajsimp::bench::experiments::{select, EXPERIMENTS};
use trajsimp::bench::{DatasetRepository, Scale};
use trajsimp::data::io::{read_csv, read_plt};
use trajsimp::data::{DatasetGenerator, DatasetKind};
use trajsimp::geo::{BoundingBox, Point};
use trajsimp::metrics::{average_error, max_error};
use trajsimp::model::codec::BlockFormat;
use trajsimp::model::Trajectory;
use trajsimp::pipeline::fleet::verify_error_bound;
use trajsimp::pipeline::{
    compress_fleet, compress_fleet_sequential, DeviceId, FleetAlgorithm, PipelineConfig, Speedup,
};
use trajsimp::store::{
    compress_fleet_into_shared_store, DurabilityMode, ShardedStore, StoreConfig,
};

const USAGE: &str = "usage: trajsimp <input.csv|input.plt> [--algorithm NAME] [--epsilon METERS] [--output FILE]\n\
       trajsimp fleet [--trajectories N] [--points N] [--workers N] [--batch N]\n\
                      [--algorithm NAME] [--epsilon METERS] [--dataset taxi|truck|sercar|geolife] [--seed N]\n\
       trajsimp store --out DIR [--trajectories N] [--points N] [--workers N] [--algorithm NAME]\n\
                      [--epsilon METERS] [--dataset NAME] [--seed N] [--format varint|for]\n\
                      [--input FILE [--device ID]]\n\
       trajsimp query DIR --device N --from T --to T   (time slice)\n\
       trajsimp query DIR --window x0,y0,x1,y1 [--from T --to T]   (spatial window)\n\
       trajsimp query DIR --device N --at T   (interpolated position)\n\
                      query also takes [--cache-bytes N] [--profile]\n\
       trajsimp knn DIR --point x,y [--point x,y ...] [-k N] [--brute]\n\
                      [--cache-bytes N]   (k-nearest trajectories)\n\
       trajsimp geofence --fence name=x0,y0,x1,y1 [--fence ...] [--waves N] [--shards N]\n\
                      [fleet flags]   (continuous geofence demo over live synthetic ingest)\n\
       trajsimp serve [DIR] [--addr HOST] [--port P] [--server-workers N] [--shards N] [--live WAVES]\n\
                      [--fence name=x0,y0,x1,y1]\n\
                      [--durable DIR] [--durability async|group-commit[:MS]]\n\
                      [--cache-bytes N] [--slow-query-ms MS]\n\
                      [--no-shutdown-endpoint] [--trajectories N] [--points N] [--algorithm NAME]\n\
                      [--epsilon METERS] [--dataset NAME] [--seed N]   (HTTP query server; GET /shutdown stops it)\n\
       trajsimp experiments NAME [--scale quick|full] [--json DIR] [--seed N]   (the paper's tables and figures)\n\
       coordinates and times must be finite; the algorithm defaults to operb-a for a file, operb otherwise";

/// The one argument reader.  Each mode takes its flags out of it — a
/// flag's typed value, every value of a repeated flag, a switch — then the
/// positional argument, and [`Flags::finish`] rejects whatever is left.
struct Flags(Vec<String>);

impl Flags {
    /// Every value given for the flag `names` (a name and its aliases), in
    /// order, each checked by `parse`.
    fn all<T>(
        &mut self,
        names: &[&str],
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            if !names.contains(&self.0[i].as_str()) {
                i += 1;
                continue;
            }
            let flag = self.0.remove(i);
            if i == self.0.len() {
                return Err(format!("{flag} needs a value"));
            }
            let value = self.0.remove(i);
            values.push(parse(&value).map_err(|e| format!("{flag} '{value}': {e}"))?);
        }
        Ok(values)
    }

    /// The value of the flag `names`; the last one wins when it repeats.
    fn get<T>(
        &mut self,
        names: &[&str],
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        Ok(self.all(names, parse)?.pop())
    }

    /// Whether the valueless flag `name` was given.
    fn switch(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|arg| arg != name);
        self.0.len() != before
    }

    /// The positional argument.  Read it after every flag, so that no
    /// flag's value is taken for it.
    fn positional(&mut self) -> Option<String> {
        let i = self.0.iter().position(|arg| !arg.starts_with('-'))?;
        Some(self.0.remove(i))
    }

    /// Rejects whatever no read took.
    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(arg) => Err(format!("unexpected argument '{arg}'")),
            None => Ok(()),
        }
    }
}

fn parsed<T: std::str::FromStr>(value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

fn text(value: &str) -> Result<String, String> {
    Ok(value.to_string())
}

/// A coordinate or a time: any finite number (the server's rule too).
fn finite(value: &str) -> Result<f64, String> {
    match value.trim().parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err("not a finite number".to_string()),
    }
}

/// An error bound ζ: a positive finite number of metres.
fn bound(value: &str) -> Result<f64, String> {
    match finite(value) {
        Ok(v) if v > 0.0 => Ok(v),
        _ => Err("the error bound must be a positive finite number".to_string()),
    }
}

/// `N` comma-separated finite numbers.
fn coords<const N: usize>(value: &str) -> Result<[f64; N], String> {
    value
        .split(',')
        .map(finite)
        .collect::<Result<Vec<_>, _>>()?
        .try_into()
        .map_err(|_| format!("want {N} comma-separated numbers"))
}

fn point(value: &str) -> Result<Point, String> {
    let [x, y] = coords(value)?;
    Ok(Point::new(x, y, 0.0))
}

/// `x0,y0,x1,y1`, corners in either order.
fn region(value: &str) -> Result<BoundingBox, String> {
    let [x0, y0, x1, y1] = coords(value)?;
    Ok(BoundingBox {
        min_x: x0.min(x1),
        min_y: y0.min(y1),
        max_x: x0.max(x1),
        max_y: y0.max(y1),
    })
}

/// `name=x0,y0,x1,y1`.
fn fence(value: &str) -> Result<(String, BoundingBox), String> {
    let (name, coords) = value.split_once('=').ok_or("want name=x0,y0,x1,y1")?;
    Ok((name.to_string(), region(coords)?))
}

fn algorithm(value: &str) -> Result<FleetAlgorithm, String> {
    FleetAlgorithm::by_name(value).ok_or_else(|| "unknown algorithm".to_string())
}

fn dataset(value: &str) -> Result<DatasetKind, String> {
    DatasetKind::ALL
        .into_iter()
        .find(|kind| kind.name().eq_ignore_ascii_case(value))
        .ok_or_else(|| "want taxi, truck, sercar or geolife".to_string())
}

fn scale(value: &str) -> Result<Scale, String> {
    Scale::parse(value).ok_or_else(|| "want quick or full".to_string())
}

fn block_format(value: &str) -> Result<BlockFormat, String> {
    BlockFormat::from_name(value).ok_or_else(|| "want varint or for".to_string())
}

/// `async`, `group-commit` or `group-commit:WINDOW_MS`.
fn durability(value: &str) -> Result<DurabilityMode, String> {
    match value {
        "async" => Ok(DurabilityMode::WalAsync),
        "group-commit" => Ok(DurabilityMode::WalGroupCommit(Duration::from_millis(2))),
        other => match other.strip_prefix("group-commit:") {
            Some(ms) => Ok(DurabilityMode::WalGroupCommit(Duration::from_millis(
                parsed(ms)?,
            ))),
            None => Err("want async, group-commit or group-commit:MS".to_string()),
        },
    }
}

/// The buffer-pool flag `query`, `knn` and `serve` share.
fn store_config(flags: &mut Flags) -> Result<StoreConfig, String> {
    Ok(StoreConfig::default().with_cache_bytes(flags.get(&["--cache-bytes"], parsed)?))
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

/// Opens a store directory as one shard: `query` and `knn` are
/// single-threaded.
fn open_store(dir: &str, config: StoreConfig) -> Result<ShardedStore, String> {
    let store = ShardedStore::open_with(Path::new(dir), 1, config).map_err(|e| e.to_string())?;
    let stats = store.stats();
    eprintln!(
        "opened {dir} ({} devices, {} blocks, {} segments)",
        stats.devices, stats.blocks, stats.segments
    );
    Ok(store)
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
                .map(|p| Point::new(p.x, p.y, p.t + offset))
                .collect();
            (*device, Trajectory::new_unchecked(points))
        })
        .collect()
}

/// The synthetic-fleet flags `fleet`, `store`, `geofence` and `serve`
/// share.
struct FleetOptions {
    trajectories: usize,
    points: usize,
    workers: usize,
    batch: usize,
    algorithm: FleetAlgorithm,
    epsilon: f64,
    dataset: DatasetKind,
    seed: u64,
}

impl FleetOptions {
    fn parse(flags: &mut Flags) -> Result<Self, String> {
        let options = Self {
            trajectories: flags
                .get(&["--trajectories", "-n"], parsed)?
                .unwrap_or(1000),
            points: flags.get(&["--points", "-p"], parsed)?.unwrap_or(500),
            workers: flags
                .get(&["--workers", "-w"], parsed)?
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from)),
            batch: flags.get(&["--batch", "-b"], parsed)?.unwrap_or(256),
            algorithm: match flags.get(&["--algorithm", "-a"], algorithm)? {
                Some(algorithm) => algorithm,
                None => algorithm("operb")?,
            },
            epsilon: flags.get(&["--epsilon", "-e"], bound)?.unwrap_or(30.0),
            dataset: flags
                .get(&["--dataset", "-d"], dataset)?
                .unwrap_or(DatasetKind::Taxi),
            seed: flags.get(&["--seed", "-s"], parsed)?.unwrap_or(20170401),
        };
        if options.trajectories == 0 || options.points < 2 {
            return Err("the fleet needs --trajectories >= 1 and --points >= 2".to_string());
        }
        Ok(options)
    }

    fn generate(&self) -> Vec<(DeviceId, Trajectory)> {
        eprintln!(
            "generating {} {} trajectories of {} points each (seed {}) …",
            self.trajectories, self.dataset, self.points, self.seed
        );
        let generator = DatasetGenerator::for_kind(self.dataset, self.seed);
        (0..self.trajectories)
            .map(|i| (i as DeviceId, generator.generate_trajectory(i, self.points)))
            .collect()
    }

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::new(self.epsilon)
            .with_workers(self.workers)
            .with_batch_size(self.batch)
    }
}

fn single_file(mut flags: Flags) -> Result<(), String> {
    let algorithm = match flags.get(&["--algorithm", "-a"], algorithm)? {
        Some(algorithm) => algorithm,
        None => algorithm("operb-a")?,
    };
    let epsilon = flags.get(&["--epsilon", "-e"], bound)?.unwrap_or(30.0);
    let output = flags.get(&["--output", "-o"], text)?;
    let input = flags.positional().ok_or("missing the input file")?;
    flags.finish()?;

    // One stream through the fleet registry: the same code path, and the
    // same names, as every other mode.
    let fleet = [(0, load(&input)?)];
    let trajectory = &fleet[0].1;
    let run = compress_fleet_sequential(&fleet, epsilon, &algorithm);
    let elapsed = run.report.elapsed;
    let simplified = run
        .results
        .into_iter()
        .next()
        .expect("one stream in, one result out")
        .output
        .map_err(|e| format!("simplification failed: {e}"))?;

    println!("input        : {input} ({} points)", trajectory.len());
    println!("algorithm    : {} (ζ = {epsilon} m)", algorithm.name());
    println!("segments     : {}", simplified.num_segments());
    println!("ratio        : {:.4}", simplified.compression_ratio());
    println!("max error    : {:.2} m", max_error(trajectory, &simplified));
    println!(
        "avg error    : {:.2} m",
        average_error(trajectory, &simplified)
    );
    println!(
        "time         : {:.2} ms ({:.0} points/s)",
        elapsed.as_secs_f64() * 1e3,
        trajectory.len() as f64 / elapsed.as_secs_f64().max(1e-12)
    );

    if let Some(out_path) = output {
        let file = File::create(&out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
        let mut writer = BufWriter::new(file);
        for p in simplified.shape_points() {
            writeln!(writer, "{},{},{}", p.x, p.y, p.t).map_err(|e| format!("write error: {e}"))?;
        }
        writer.flush().map_err(|e| format!("write error: {e}"))?;
        println!(
            "output       : {out_path} ({} shape points)",
            simplified.num_shape_points()
        );
    }
    Ok(())
}

fn fleet(mut flags: Flags) -> Result<(), String> {
    let options = FleetOptions::parse(&mut flags)?;
    flags.finish()?;
    let algorithm = &options.algorithm;
    let fleet = options.generate();
    let total_points: usize = fleet.iter().map(|(_, t)| t.len()).sum();

    eprintln!("sequential reference ({}) …", algorithm.name());
    let sequential = compress_fleet_sequential(&fleet, options.epsilon, algorithm);

    eprintln!("parallel pipeline ({} workers) …", options.workers);
    let mut parallel = compress_fleet(&fleet, &options.pipeline(), algorithm);

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

fn store(mut flags: Flags) -> Result<(), String> {
    let out = flags
        .get(&["--out", "-o"], text)?
        .ok_or("store needs --out DIR")?;
    let input = flags.get(&["--input", "-i"], text)?;
    let device = flags.get(&["--device"], parsed)?.unwrap_or(0);
    let format = flags
        .get(&["--format", "-f"], block_format)?
        .unwrap_or_default();
    let options = FleetOptions::parse(&mut flags)?;
    flags.finish()?;

    let fleet = match &input {
        Some(path) => {
            eprintln!("loading {path} as device {device} …");
            vec![(device, load(path)?)]
        }
        None => options.generate(),
    };
    let store = ShardedStore::new(StoreConfig::default().with_format(format), 1);
    let start = Instant::now();
    let (_, ingested) =
        compress_fleet_into_shared_store(&fleet, &options.pipeline(), &options.algorithm, &store)?;
    store.save(Path::new(&out)).map_err(|e| e.to_string())?;
    let stats = store.stats();
    println!(
        "store        : {out} ({} devices, {} blocks, {} segments)",
        stats.devices, stats.blocks, stats.segments
    );
    println!(
        "algorithm    : {} (ζ = {} m)",
        options.algorithm.name(),
        options.epsilon
    );
    println!("block format : {format}");
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

fn query(mut flags: Flags) -> Result<(), String> {
    let device: Option<DeviceId> = flags.get(&["--device", "-d"], parsed)?;
    let from = flags.get(&["--from"], finite)?;
    let to = flags.get(&["--to"], finite)?;
    let at = flags.get(&["--at"], finite)?;
    let window = flags.get(&["--window", "-w"], region)?;
    let config = store_config(&mut flags)?;
    let profile = flags.switch("--profile");
    let dir = flags.positional().ok_or("query needs a store directory")?;
    flags.finish()?;

    let store = open_store(&dir, config)?;
    // Under --profile the query runs traced and the span tree (index walk,
    // pager fetches, block decodes) is printed as a stage breakdown.
    let profile_guard = profile.then(trajsimp::obs::trace_begin);
    match (window, at, device) {
        // Spatial window query across the fleet.
        (Some(window), None, None) => {
            let time = match (from, to) {
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
            let (Some(from), Some(to)) = (from, to) else {
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
    // Only a pool bounded by --cache-bytes is worth reporting.
    if let Some(cache) = store
        .memory_stats()
        .cache
        .filter(|c| c.capacity_bytes.is_some())
    {
        eprintln!(
            "cache: {} hits, {} misses, {} evictions; hit ratio {:.1}%, {} resident bytes",
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.hit_ratio() * 100.0,
            cache.resident_bytes
        );
    }
    Ok(())
}

fn knn(mut flags: Flags) -> Result<(), String> {
    let points = flags.all(&["--point", "-p"], point)?;
    let k = flags.get(&["--k", "-k"], parsed)?.unwrap_or(1);
    let brute = flags.switch("--brute");
    let config = store_config(&mut flags)?;
    let dir = flags.positional().ok_or("knn needs a store directory")?;
    flags.finish()?;
    if points.is_empty() {
        return Err("knn needs at least one --point x,y".to_string());
    }
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }

    let store = open_store(&dir, config)?;
    let start = Instant::now();
    let result = store.knn(&points, k);
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
    if brute {
        let brute = store.knn_bruteforce(&points, k);
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

fn geofence(mut flags: Flags) -> Result<(), String> {
    let fences = flags.all(&["--fence", "-f"], fence)?;
    let waves = flags.get(&["--waves"], parsed)?.unwrap_or(3usize);
    let shards = flags.get(&["--shards"], parsed)?.unwrap_or(4usize);
    let options = FleetOptions::parse(&mut flags)?;
    flags.finish()?;
    if fences.is_empty() {
        return Err("geofence needs at least one --fence name=x0,y0,x1,y1".to_string());
    }
    if waves == 0 || shards == 0 {
        return Err("geofence needs --waves >= 1 and --shards >= 1".to_string());
    }

    let fleet = options.generate();
    let store = Arc::new(ShardedStore::new(
        StoreConfig::default().with_block_segments(32),
        shards,
    ));
    for (name, region) in &fences {
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

    let config = options.pipeline();
    let span = fleet.iter().map(|(_, t)| t.last().t).fold(0.0f64, f64::max) + 60.0;
    let mut total_alerts = 0usize;
    for wave in 0..waves {
        let shifted = shifted_fleet(&fleet, span * wave as f64);
        let (_, ingested) =
            compress_fleet_into_shared_store(&shifted, &config, &options.algorithm, &store)?;
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
            "wave {}/{waves}: ingested {ingested} streams, {} alerts",
            wave + 1,
            alerts.len()
        );
    }
    let stats = store.geofences().stats();
    println!(
        "alerts       : {total_alerts} across {waves} waves ({} dropped by this subscriber)",
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

fn serve(mut flags: Flags) -> Result<(), String> {
    use trajsimp::service::{Server, ServiceConfig};

    // The endpoint is unauthenticated; anyone binding beyond loopback
    // should turn it off (and stop the server by signal).
    let shutdown_endpoint = !flags.switch("--no-shutdown-endpoint");
    let addr = flags
        .get(&["--addr"], text)?
        .unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = flags.get(&["--port"], parsed)?.unwrap_or(7878);
    let server_workers = flags.get(&["--server-workers"], parsed)?.unwrap_or(4usize);
    let shards = flags.get(&["--shards"], parsed)?.unwrap_or(16usize);
    let live_waves = flags.get(&["--live"], parsed)?.unwrap_or(0usize);
    let durable = flags.get(&["--durable"], text)?;
    let durability = flags
        .get(&["--durability"], durability)?
        .unwrap_or(DurabilityMode::WalGroupCommit(Duration::from_millis(2)));
    let slow_query_ms = flags.get(&["--slow-query-ms"], parsed)?;
    let fences = flags.all(&["--fence"], fence)?;
    let config = store_config(&mut flags)?;
    // The fleet flags build the synthetic store when no DIR is given.
    let options = FleetOptions::parse(&mut flags)?;
    let dir = flags.positional();
    flags.finish()?;

    if dir.is_some() && live_waves > 0 {
        // Live waves re-compress the synthetic fleet; a persisted store
        // has no originals to extend, so the flag would silently do
        // nothing — refuse instead.
        return Err("--live requires synthetic mode (omit the store directory)".to_string());
    }
    if dir.is_some() && durable.is_some() {
        return Err(
            "--durable opens its own store directory; it cannot be combined with the \
             read-only store-directory positional"
                .to_string(),
        );
    }
    let mut live_fleet = None;
    let store = match &dir {
        Some(dir) => {
            // Recovery mode: after a crash mid-append the store comes back
            // up with the longest valid log prefix instead of refusing.
            let (store, report) = ShardedStore::open_recover_with(Path::new(dir), shards, config)
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
            Arc::new(store)
        }
        None => {
            let fleet = options.generate();
            let store_config = config.with_block_segments(32);
            let store = match &durable {
                // Durable live ingest: every acknowledged stream is in the
                // write-ahead log before the sink moves on, and a crash
                // recovers to exactly the acknowledged prefix.
                Some(dir) => {
                    let (store, report) = ShardedStore::open_durable(
                        Path::new(dir),
                        shards,
                        store_config.with_durability(durability),
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
                    Arc::new(store)
                }
                None => Arc::new(ShardedStore::new(store_config, shards)),
            };
            // A durable directory that already holds data (recovered or
            // checkpointed) keeps it: the initial synthetic ingest is the
            // time range the store already covers, so re-running it would
            // only bounce off the per-device out-of-order guard.  Live
            // waves resume *past* the recovered data instead (below).
            if store.stats().points == 0 {
                let (_, ingested) = compress_fleet_into_shared_store(
                    &fleet,
                    &options.pipeline(),
                    &options.algorithm,
                    &store,
                )?;
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
    for (name, region) in &fences {
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

    let mut service_config = ServiceConfig::default().with_workers(server_workers);
    service_config.enable_shutdown_endpoint = shutdown_endpoint;
    if let Some(ms) = slow_query_ms {
        // 0 traces every request into the slow log — handy for probing a
        // healthy server's span tree.
        service_config = service_config.with_slow_query_threshold(Some(Duration::from_millis(ms)));
    }
    if shutdown_endpoint && addr != "127.0.0.1" && addr != "localhost" {
        eprintln!(
            "warning: binding {addr} with the unauthenticated /shutdown endpoint enabled — \
             anyone who can reach the port can stop the server; consider --no-shutdown-endpoint"
        );
    }
    let server = Server::start(Arc::clone(&store), (addr.as_str(), port), service_config)
        .map_err(|e| format!("cannot bind {addr}:{port}: {e}"))?;
    let stats = store.stats();
    println!("listening on http://{}", server.local_addr());
    println!(
        "serving {} devices, {} blocks, {} segments ({} shards, {server_workers} workers); {}",
        stats.devices,
        stats.blocks,
        stats.segments,
        store.num_shards(),
        if shutdown_endpoint {
            "GET /shutdown stops"
        } else {
            "shutdown endpoint disabled — stop by signal"
        }
    );

    // Live mode: keep compressing later waves of the same fleet into the
    // store while the server answers queries — ingest and reads overlap.
    let ingest_thread = match (live_waves, live_fleet) {
        (waves, Some(fleet)) if waves > 0 => {
            let store = Arc::clone(&store);
            let config = options.pipeline();
            let algorithm = options.algorithm.clone();
            let span = fleet.iter().map(|(_, t)| t.last().t).fold(0.0f64, f64::max) + 60.0;
            // Each wave shifts the fleet by `span`; the initial ingest is
            // wave 0.  A resumed durable store starts past everything it
            // already holds — a partially ingested wave (crash mid-wave)
            // is rounded up and skipped whole, so no device replays time
            // it has already logged.
            let per_wave: usize = fleet.iter().map(|(_, t)| t.len()).sum();
            let first = store.stats().points.div_ceil(per_wave.max(1)).max(1);
            Some(std::thread::spawn(move || {
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
    if durable.is_some() {
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

/// Runs the experiments `NAME` selects, printing each one's tables and,
/// with `--json DIR`, saving its result as `DIR/NAME.json`.
fn experiments(mut flags: Flags) -> Result<(), String> {
    let scale = flags.get(&["--scale"], scale)?.unwrap_or(Scale::Quick);
    let json_dir = flags.get(&["--json"], text)?;
    let repo = match flags.get(&["--seed"], parsed)? {
        Some(seed) => DatasetRepository::with_seed(seed),
        None => DatasetRepository::new(),
    };
    let name = flags.positional().ok_or("missing the experiment name")?;
    flags.finish()?;
    let selected = select(&name).ok_or_else(|| format!("unknown experiment '{name}'"))?;

    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }
    if selected.len() > 1 {
        eprintln!("generating datasets …");
        repo.prewarm(scale);
    }
    for (name, run) in selected {
        eprintln!("running {name} …");
        let output = run(&repo, scale);
        println!("{}", output.text);
        if let Some(dir) = &json_dir {
            let path = Path::new(dir).join(format!("{name}.json"));
            std::fs::write(&path, output.json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// A mode of the command line: it reads its arguments, then runs.
type Mode = fn(Flags) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, rest): (Mode, &[String]) = match args.first().map(String::as_str) {
        Some("fleet") => (fleet, &args[1..]),
        Some("store") => (store, &args[1..]),
        Some("query") => (query, &args[1..]),
        Some("knn") => (knn, &args[1..]),
        Some("geofence") => (geofence, &args[1..]),
        Some("serve") => (serve, &args[1..]),
        Some("experiments") => (experiments, &args[1..]),
        _ => (single_file, &args),
    };
    match run(Flags(rest.to_vec())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let experiments: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "{msg}\n{USAGE}\nalgorithms: {}\nexperiments: all, {}",
                FleetAlgorithm::all_names().join(", "),
                experiments.join(", ")
            );
            ExitCode::FAILURE
        }
    }
}
