//! Differential tests of the multi-level grid index against brute force.
//!
//! The index may return extra candidates (a cell is coarser than a box,
//! and a coarse level's cells are coarser still), but it must never miss
//! a block whose metadata may intersect the window: answers depend on it.
//! These tests draw seeded blocks whose ζ-expanded extents run from 1 m to
//! 50 km, so every level from the finest up is populated, and windows from
//! a single point to the whole fleet, then check every lookup against the
//! exhaustive `may_intersect_window` scan.  A second test pins the
//! footprint bound — at most 16 cell references per block — on a realistic
//! Taxi fleet at the default 500 m cell.

use traj_data::rng::{Rng, SmallRng};
use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, DirectedSegment, Point};
use traj_model::SimplifiedSegment;
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{
    compress_fleet_into_shared_store, BlockMeta, BlockRef, GridIndex, ShardedStore, StoreConfig,
};

/// Half the side of the square the blocks are centred in, metres.
const REGION: f64 = 60_000.0;

/// Draws from a log-uniform distribution over `[lo, hi]`.
fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

/// A coordinate in `[-half, half)`, snapped onto a multiple of `cell`
/// a third of the time so box and window edges often sit exactly on cell
/// boundaries of some level.
fn coordinate(rng: &mut SmallRng, half: f64, cell: f64) -> f64 {
    let v = rng.gen_range(-half..half);
    if rng.gen_bool(0.3) {
        let scale = cell * f64::from(1u32 << rng.gen_range(0..6u32));
        (v / scale).round() * scale
    } else {
        v
    }
}

/// A block whose ζ-expanded box is `extent_x` × `extent_y` metres.
fn block_meta(rng: &mut SmallRng, device: DeviceId, cell: f64) -> BlockMeta {
    let extent_x = log_uniform(rng, 1.0, 50_000.0);
    let extent_y = if rng.gen_bool(0.5) {
        extent_x
    } else {
        log_uniform(rng, 1.0, 50_000.0)
    };
    // ζ + slack takes up to a quarter of the smaller extent.
    let radius = extent_x.min(extent_y) * rng.gen_range(0.0..0.25);
    let cx = coordinate(rng, REGION, cell);
    let cy = coordinate(rng, REGION, cell);
    let (hx, hy) = (extent_x / 2.0 - radius, extent_y / 2.0 - radius);
    let seg = SimplifiedSegment::new(
        DirectedSegment::new(
            Point::new(cx - hx, cy - hy, 0.0),
            Point::new(cx + hx, cy + hy, 60.0),
        ),
        0,
        5,
    );
    let zeta = radius * rng.gen_range(0.5..1.0);
    BlockMeta::from_segments(device, &[seg], zeta, radius - zeta)
}

/// A window from a single point up to the whole fleet.
fn window(rng: &mut SmallRng, cell: f64) -> BoundingBox {
    let (w, h) = match rng.gen_range(0..4u32) {
        0 => (0.0, 0.0),
        1 => (
            log_uniform(rng, 0.01, 2_000.0),
            log_uniform(rng, 0.01, 2_000.0),
        ),
        2 => (
            log_uniform(rng, 1.0, 4.0 * REGION),
            log_uniform(rng, 1.0, 4.0 * REGION),
        ),
        _ => (4.0 * REGION, 4.0 * REGION),
    };
    let x = coordinate(rng, 1.5 * REGION, cell);
    let y = coordinate(rng, 1.5 * REGION, cell);
    BoundingBox {
        min_x: x - w / 2.0,
        min_y: y - h / 2.0,
        max_x: x + w / 2.0,
        max_y: y + h / 2.0,
    }
}

#[test]
fn candidates_are_a_sorted_deduplicated_superset_of_brute_force() {
    let mut checked = 0usize;
    let mut hits = 0usize;
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x1d3c_0000 + seed);
        let cell = [37.5, 100.0, 500.0, 1_000.0][seed as usize % 4];
        let mut index = GridIndex::new(cell);
        let mut blocks = Vec::new();
        for device in 0..300u64 {
            for block in 0..rng.gen_range(1..3usize) {
                let meta = block_meta(&mut rng, device, cell);
                let r = BlockRef { device, block };
                index.insert(r, &meta);
                blocks.push((r, meta));
            }
        }
        assert_eq!(index.num_blocks(), blocks.len());
        assert!(
            index.num_references() <= 16 * blocks.len(),
            "seed {seed}: {} references for {} blocks",
            index.num_references(),
            blocks.len()
        );
        for _ in 0..120 {
            let w = window(&mut rng, cell);
            let got = index.candidates(&w);
            assert!(
                got.windows(2).all(|p| p[0] < p[1]),
                "seed {seed}, window {w:?}: candidates not strictly sorted"
            );
            let mut got = got.into_iter().peekable();
            for (r, meta) in &blocks {
                // Both lists are ordered by (device, block): merge-walk.
                while got.next_if(|c| c < r).is_some() {}
                let offered = got.next_if_eq(r).is_some();
                if meta.may_intersect_window(&w) {
                    hits += 1;
                    assert!(
                        offered,
                        "seed {seed}, window {w:?}: index missed {r:?} with {meta:?}"
                    );
                }
            }
            assert!(got.next().is_none(), "candidate that was never inserted");
            checked += 1;
        }
    }
    assert_eq!(checked, 24 * 120);
    assert!(hits > 10_000, "windows too selective to test much: {hits}");
}

#[test]
fn taxi_fleet_stays_within_sixteen_references_per_block() {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, 7);
    let fleet: Vec<_> = (0..120)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, 400)))
        .collect();
    let store = ShardedStore::new(StoreConfig::default().with_block_segments(32), 1);
    let config = PipelineConfig::new(30.0).with_workers(2);
    let algorithm = FleetAlgorithm::by_name("operb").unwrap();
    compress_fleet_into_shared_store(&fleet, &config, &algorithm, &store).unwrap();

    let mut index = GridIndex::new(500.0);
    assert_eq!(index.cell_size(), store.config().cell_size);
    let mut widest = 0;
    for (device, _) in &fleet {
        for (block, meta) in store.block_metas(*device).iter().enumerate() {
            let before = index.num_references();
            index.insert(
                BlockRef {
                    device: *device,
                    block,
                },
                meta,
            );
            widest = widest.max(index.num_references() - before);
        }
    }
    assert_eq!(index.num_blocks(), store.stats().blocks);
    assert!(index.num_blocks() > 500, "fleet too small to mean much");
    assert!(widest <= 16, "a block holds {widest} references");
    // The one-shard store builds the same index from the same metadata.
    assert_eq!(store.memory_stats().index_bytes, index.approx_bytes());
}
