//! The storage engine end to end: compress a fleet into a `traj-store`,
//! persist it, reopen it and answer queries from the compressed
//! representation — decoding only the blocks each query needs.
//!
//! ```text
//! cargo run --release --example store_query
//! ```

use trajsimp::data::{DatasetGenerator, DatasetKind};
use trajsimp::geo::BoundingBox;
use trajsimp::model::Trajectory;
use trajsimp::pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use trajsimp::store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

fn main() {
    let zeta = 30.0; // meters
    let devices = 24;
    let points = 400;

    // ── 1. Compress a fleet straight into the store ──────────────────────
    println!(
        "compressing {devices} taxi streams ({points} points each, ζ = {zeta} m) into the store …"
    );
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, 7);
    let fleet: Vec<(DeviceId, Trajectory)> = (0..devices)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, points)))
        .collect();
    let algorithm = FleetAlgorithm::by_name("operb").expect("known algorithm");
    let config = PipelineConfig::new(zeta);
    let store = ShardedStore::new(StoreConfig::default(), 1);
    let (_, ingested) = compress_fleet_into_shared_store(&fleet, &config, &algorithm, &store)
        .expect("fleet compresses cleanly");
    let stats = store.stats();
    println!(
        "  {} streams → {} blocks, {} segments, {:.2} bytes/point ({:.1}x smaller than raw)\n",
        ingested,
        stats.blocks,
        stats.segments,
        stats.bytes_per_point(),
        stats.compression_factor()
    );

    // ── 2. Persist and reopen ────────────────────────────────────────────
    let dir = std::env::temp_dir().join("trajsimp-store-example");
    store.save(&dir).expect("store persists");
    let store = ShardedStore::open_with(&dir, 1, StoreConfig::default()).expect("store reopens");
    println!(
        "persisted to {} and reopened (index rebuilt from the log)\n",
        dir.display()
    );

    // ── 3. Time-range slice for one device ───────────────────────────────
    let device = 5;
    let duration = fleet[device as usize].1.duration();
    let slice = store.time_slice(device, duration * 0.25, duration * 0.5);
    println!(
        "time slice of device {device} (middle quarter): {} segments, decoded {}/{} blocks (skip ratio {:.0}%)",
        slice.segments.len(),
        slice.stats.blocks_decoded,
        slice.stats.blocks_in_scope,
        slice.stats.skip_ratio() * 100.0
    );

    // ── 4. Spatial window query across the fleet ─────────────────────────
    let centre = fleet[device as usize].1.point(points / 2);
    let window = BoundingBox {
        min_x: centre.x - 400.0,
        min_y: centre.y - 400.0,
        max_x: centre.x + 400.0,
        max_y: centre.y + 400.0,
    };
    let q = store.window_query(&window, None);
    println!(
        "window query (800 m × 800 m): {} devices matched, decoded {}/{} blocks (skip ratio {:.0}%)",
        q.matches.len(),
        q.stats.blocks_decoded,
        q.stats.blocks_in_scope,
        q.stats.skip_ratio() * 100.0
    );
    assert!(
        q.stats.blocks_decoded < q.stats.blocks_in_scope,
        "data skipping must beat a full scan"
    );

    // ── 5. Point-in-time position lookup ─────────────────────────────────
    let t = duration * 0.4;
    if let Some(p) = store.position_at(device, t) {
        println!("device {device} at t = {t:.0} s: {p} (interpolated from the compressed log)");
    }

    std::fs::remove_dir_all(&dir).ok();
}
