//! The in-memory spatio-temporal grid index.
//!
//! A multi-level grid over the plane maps each cell to the blocks whose
//! ζ-expanded bounding boxes touch it.  Level `l` has square cells of edge
//! `cell_size · 2^l`, and every level-`l` cell is exactly four level-`l-1`
//! cells.  A block is registered on the *finest* level where its expanded
//! box spans at most 4 × 4 cells, so no block holds more than 16 cell
//! references however long or fast its vehicle travelled: the index grows
//! with the number of blocks, not with the area they cover.
//!
//! A spatial window query walks the cells the window overlaps on every
//! occupied level, collects candidate blocks, and then the store filters
//! the candidates on their precise metadata (bbox and time interval) — the
//! decode cost is paid only for blocks that survive both levels of
//! pruning.  A coarse level returns more candidates per cell than the
//! finest would, but the precise check prunes them before any decode, so
//! answers do not depend on which level a block landed on.

use std::collections::HashMap;
use std::mem::size_of;

use traj_geo::BoundingBox;
use traj_pipeline::DeviceId;

use crate::block::BlockMeta;

/// Identifies one block: the device stream and the block's position in
/// that device's append-only log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// The owning device stream.
    pub device: DeviceId,
    /// Index into the device's log.
    pub block: usize,
}

/// Most cells a block spans along one axis of the level it is registered
/// on, hence at most `MAX_SPAN * MAX_SPAN` = 16 references per block.  A
/// 2 × 2 rule halves the footprint again but makes lookups on the coarse
/// levels return more candidates per window.
const MAX_SPAN: u64 = 4;

/// Coarsest level.  At the default 500 m cell its cells are 2 · 10^12 m
/// wide, far beyond any real coordinate; a block whose expanded box would
/// need a coarser level carries corrupt metadata or an absurd ζ and goes
/// to the oversize list instead, which every lookup scans — correct
/// (never skipped), just not O(1).
const MAX_LEVEL: usize = 32;

/// Upper bound on the number of cells a lookup probes on one level.
/// Lookup windows come from untrusted callers (HTTP query parameters);
/// a level whose window range spans more cells than this (or more than
/// the level has occupied cells) is scanned entry by entry instead, so a
/// huge window costs at most one pass over the index.
const MAX_CELLS_PER_QUERY: u64 = 1 << 16;

/// The allocator's bookkeeping per heap allocation (two words on common
/// allocators), counted by [`GridIndex::approx_bytes`].
const ALLOC_OVERHEAD: usize = 2 * size_of::<usize>();

type Cell = (i64, i64);

/// One level: occupied cells and the blocks registered under each.
type Level = HashMap<Cell, Vec<BlockRef>>;

/// A multi-level spatial grid over block bounding boxes.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    /// `levels[l]` holds the blocks registered on level `l`; grown on
    /// demand, so it ends at the coarsest level in use.
    levels: Vec<Level>,
    /// Blocks too large (or too malformed) for any level; always
    /// candidates.
    oversize: Vec<BlockRef>,
    blocks: usize,
}

impl GridIndex {
    /// Creates an empty index with the given finest cell edge length
    /// (meters).
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "grid cell size must be finite and positive"
        );
        Self {
            cell_size,
            levels: Vec::new(),
            oversize: Vec::new(),
            blocks: 0,
        }
    }

    /// The configured cell edge length of the finest level.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of blocks inserted.
    pub fn num_blocks(&self) -> usize {
        self.blocks
    }

    /// Number of non-empty grid cells, summed over the levels.
    pub fn num_cells(&self) -> usize {
        self.levels.iter().map(HashMap::len).sum()
    }

    /// Number of block references held: one per (block, cell) pair plus
    /// one per oversize block.  At most 16 per block by construction.
    pub fn num_references(&self) -> usize {
        let cells: usize = self
            .levels
            .iter()
            .flat_map(HashMap::values)
            .map(Vec::len)
            .sum();
        cells + self.oversize.len()
    }

    /// Approximate heap footprint of the index in bytes: each level's hash
    /// table at its allocated bucket count (entry plus control byte per
    /// bucket), every reference vector at its capacity, and the
    /// allocator's header on each allocation.
    pub fn approx_bytes(&self) -> usize {
        let vec_bytes = |v: &Vec<BlockRef>| match v.capacity() {
            0 => 0,
            cap => cap * size_of::<BlockRef>() + ALLOC_OVERHEAD,
        };
        let levels: usize = self
            .levels
            .iter()
            .map(|level| table_bytes(level) + level.values().map(vec_bytes).sum::<usize>())
            .sum();
        let spine = self.levels.capacity() * size_of::<Level>();
        levels + spine + vec_bytes(&self.oversize)
    }

    /// The finest-level cell holding `(x, y)`.  Saturating for coordinates
    /// beyond `i64` cells, so the mapping stays monotone on every finite
    /// or infinite input; level `l`'s cell is this one shifted right by
    /// `l` (an exact floor division by `2^l`).
    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> Cell {
        (
            (x / self.cell_size).floor() as i64,
            (y / self.cell_size).floor() as i64,
        )
    }

    /// Finest-level cell range covered by a box expanded by `radius`.
    fn cell_range(&self, bbox: &BoundingBox, radius: f64) -> (Cell, Cell) {
        let lo = self.cell_of(bbox.min_x - radius, bbox.min_y - radius);
        let hi = self.cell_of(bbox.max_x + radius, bbox.max_y + radius);
        (lo, hi)
    }

    /// Registers a block on the finest level where its ζ-expanded bounding
    /// box spans at most 4 × 4 cells, under every cell of that level the
    /// box touches.  The expansion at insert time means lookups do not
    /// have to expand the *query* window by a per-block ζ they do not know.
    pub fn insert(&mut self, block: BlockRef, meta: &BlockMeta) {
        if meta.bbox.is_empty() {
            return;
        }
        self.blocks += 1;
        let radius = meta.slack_radius();
        let bounds = [
            meta.bbox.min_x,
            meta.bbox.min_y,
            meta.bbox.max_x,
            meta.bbox.max_y,
            radius,
        ];
        let ((x0, y0), (x1, y1)) = self.cell_range(&meta.bbox, radius);
        // A corrupt or pathological box (bit-rotted meta, NaN, absurd ζ)
        // must not land in some arbitrary cell or drive a huge level
        // search: park it on the always-checked oversize list.
        if bounds.iter().any(|v| !v.is_finite()) || x0 > x1 || y0 > y1 {
            self.oversize.push(block);
            return;
        }
        let Some(level) = (0..=MAX_LEVEL).find(|&l| {
            (x1 >> l).abs_diff(x0 >> l) < MAX_SPAN && (y1 >> l).abs_diff(y0 >> l) < MAX_SPAN
        }) else {
            self.oversize.push(block);
            return;
        };
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, HashMap::new);
        }
        let cells = &mut self.levels[level];
        for cx in x0 >> level..=x1 >> level {
            for cy in y0 >> level..=y1 >> level {
                cells.entry((cx, cy)).or_default().push(block);
            }
        }
    }

    /// Candidate blocks for a spatial window: every block registered under
    /// a cell the window overlaps on any level, deduplicated and in
    /// deterministic order.  Candidates still need the precise
    /// [`BlockMeta::may_intersect_window`] check — a cell is coarser than
    /// a bounding box.
    pub fn candidates(&self, window: &BoundingBox) -> Vec<BlockRef> {
        let mut span = traj_obs::span("index_walk");
        let out = self.candidates_impl(window);
        span.attr("candidates", out.len());
        out
    }

    fn candidates_impl(&self, window: &BoundingBox) -> Vec<BlockRef> {
        if window.is_empty() {
            return Vec::new();
        }
        // Hostile non-finite windows must never reach the cell walk.
        // `is_empty()` (a `min > max` comparison) does not catch NaN —
        // every NaN comparison is false — and `(NaN / cell).floor() as
        // i64` saturates to 0, silently walking the cells around the
        // origin.  A NaN bound can match nothing (all downstream
        // comparisons are false), so answer that directly; an infinite
        // bound means "unbounded on that side", which is exactly the
        // full-scan path (the precise per-block check still runs).
        let bounds = [window.min_x, window.min_y, window.max_x, window.max_y];
        if bounds.iter().any(|v| v.is_nan()) {
            return Vec::new();
        }
        if bounds.iter().any(|v| v.is_infinite()) {
            return self.all_candidates();
        }
        let ((x0, y0), (x1, y1)) = self.cell_range(window, 0.0);
        let mut out = Vec::new();
        for (l, cells) in self.levels.iter().enumerate() {
            if cells.is_empty() {
                continue;
            }
            let (x0, y0, x1, y1) = (x0 >> l, y0 >> l, x1 >> l, y1 >> l);
            // Probe the window's cells when they are few; a window
            // spanning more cells than the level holds (possible with
            // untrusted query parameters) scans the level's entries
            // instead, so the walk is bounded by the index, not the
            // window.
            let span = (x1.abs_diff(x0).saturating_add(1))
                .saturating_mul(y1.abs_diff(y0).saturating_add(1));
            if span <= MAX_CELLS_PER_QUERY && span <= cells.len() as u64 {
                for cx in x0..=x1 {
                    for cy in y0..=y1 {
                        if let Some(refs) = cells.get(&(cx, cy)) {
                            out.extend_from_slice(refs);
                        }
                    }
                }
            } else {
                for (&(cx, cy), refs) in cells {
                    if (x0..=x1).contains(&cx) && (y0..=y1).contains(&cy) {
                        out.extend_from_slice(refs);
                    }
                }
            }
        }
        // Oversize blocks are never skipped at the cell level; the precise
        // metadata check downstream prunes them.
        out.extend_from_slice(&self.oversize);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every registered block, deduplicated and ordered — the answer for
    /// windows unbounded on some side.
    fn all_candidates(&self) -> Vec<BlockRef> {
        let mut out: Vec<BlockRef> = self
            .levels
            .iter()
            .flat_map(HashMap::values)
            .flatten()
            .copied()
            .collect();
        out.extend_from_slice(&self.oversize);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Heap bytes of a level's hash table: std's `HashMap` allocates a
/// power-of-two bucket count at most 7/8 full, one control byte per
/// bucket plus one 16-byte group of trailing control bytes.
fn table_bytes(level: &Level) -> usize {
    match level.capacity() {
        0 => 0,
        cap => {
            let buckets = (cap * 8 / 7).next_power_of_two();
            buckets * (size_of::<(Cell, Vec<BlockRef>)>() + 1) + 16 + ALLOC_OVERHEAD
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::{DirectedSegment, Point};
    use traj_model::SimplifiedSegment;

    fn meta_at(device: DeviceId, x: f64, y: f64, zeta: f64) -> BlockMeta {
        let seg = SimplifiedSegment::new(
            DirectedSegment::new(Point::new(x, y, 0.0), Point::new(x + 50.0, y + 20.0, 60.0)),
            0,
            5,
        );
        BlockMeta::from_segments(device, &[seg], zeta, 0.0)
    }

    fn window(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> BoundingBox {
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    #[test]
    fn finds_only_nearby_blocks() {
        let mut index = GridIndex::new(100.0);
        for d in 0..10u64 {
            let meta = meta_at(d, d as f64 * 1000.0, 0.0, 10.0);
            index.insert(
                BlockRef {
                    device: d,
                    block: 0,
                },
                &meta,
            );
        }
        assert_eq!(index.num_blocks(), 10);
        let hits = index.candidates(&window(2990.0, -10.0, 3060.0, 30.0));
        assert!(hits.contains(&BlockRef {
            device: 3,
            block: 0
        }));
        assert!(
            hits.len() < 10,
            "distant blocks must be pruned, got {hits:?}"
        );
    }

    #[test]
    fn block_spanning_cells_is_found_once_from_each_side() {
        let mut index = GridIndex::new(50.0);
        let meta = meta_at(1, -30.0, -10.0, 5.0); // spans several 50 m cells
        index.insert(
            BlockRef {
                device: 1,
                block: 4,
            },
            &meta,
        );
        for w in [
            window(-40.0, -15.0, -25.0, 0.0),
            window(10.0, 5.0, 30.0, 15.0),
        ] {
            let hits = index.candidates(&w);
            assert_eq!(
                hits,
                vec![BlockRef {
                    device: 1,
                    block: 4
                }]
            );
        }
    }

    #[test]
    fn expansion_by_zeta_keeps_near_misses() {
        let mut index = GridIndex::new(100.0);
        // Block near x=200, ζ=30: a window 20 m away from the bbox must
        // still see the block as a candidate.
        let meta = meta_at(2, 200.0, 0.0, 30.0);
        index.insert(
            BlockRef {
                device: 2,
                block: 0,
            },
            &meta,
        );
        let hits = index.candidates(&window(155.0, 0.0, 175.0, 10.0));
        assert_eq!(hits.len(), 1);
        assert!(meta.may_intersect_window(&window(155.0, 0.0, 175.0, 10.0)));
    }

    #[test]
    fn pathological_bbox_goes_to_oversize_list_and_is_still_found() {
        let mut index = GridIndex::new(10.0);
        // A bit-rot-scale bounding box: enumerating its cells would take
        // effectively forever; it must land on the oversize list instead.
        let mut huge = meta_at(1, 0.0, 0.0, 5.0);
        huge.bbox = window(-1e300, -1e300, 1e300, 1e300);
        let r = BlockRef {
            device: 1,
            block: 0,
        };
        index.insert(r, &huge);
        assert_eq!(index.num_blocks(), 1);
        assert_eq!(index.num_cells(), 0, "oversize blocks occupy no cells");
        // Every lookup still surfaces it as a candidate.
        assert_eq!(index.candidates(&window(0.0, 0.0, 5.0, 5.0)), vec![r]);
    }

    #[test]
    fn huge_query_window_degrades_to_full_scan() {
        let mut index = GridIndex::new(10.0);
        for d in 0..5u64 {
            let meta = meta_at(d, d as f64 * 100.0, 0.0, 5.0);
            index.insert(
                BlockRef {
                    device: d,
                    block: 0,
                },
                &meta,
            );
        }
        // This window spans ~1e299 cells; the lookup must return (all
        // candidates) promptly instead of walking the range.
        let hits = index.candidates(&window(-1e300, -1e300, 1e300, 1e300));
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn nan_window_bounds_are_rejected_before_the_cell_walk() {
        let mut index = GridIndex::new(100.0);
        // A block registered around the origin: exactly the cells a
        // saturated NaN cast would land on.
        let meta = meta_at(1, 0.0, 0.0, 5.0);
        index.insert(
            BlockRef {
                device: 1,
                block: 0,
            },
            &meta,
        );
        // `is_empty()` cannot catch these (NaN comparisons are false);
        // they must yield no candidates, not a walk of cell (0, 0).
        for w in [
            window(f64::NAN, -10.0, 100.0, 10.0),
            window(-10.0, f64::NAN, 100.0, 10.0),
            window(-10.0, -10.0, f64::NAN, 10.0),
            window(-10.0, -10.0, 100.0, f64::NAN),
            window(f64::NAN, f64::NAN, f64::NAN, f64::NAN),
        ] {
            assert!(
                index.candidates(&w).is_empty(),
                "NaN-bounded window {w:?} must produce no candidates"
            );
        }
    }

    #[test]
    fn infinite_window_bounds_route_to_the_full_scan() {
        let mut index = GridIndex::new(100.0);
        for d in 0..5u64 {
            let meta = meta_at(d, d as f64 * 1000.0, 0.0, 5.0);
            index.insert(
                BlockRef {
                    device: d,
                    block: 0,
                },
                &meta,
            );
        }
        // An unbounded side selects everything (precise per-block checks
        // run downstream); it must not enter the cell enumeration.
        for w in [
            window(f64::NEG_INFINITY, -10.0, 100.0, 10.0),
            window(-10.0, -10.0, f64::INFINITY, 10.0),
            window(
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ),
        ] {
            assert_eq!(index.candidates(&w).len(), 5, "window {w:?}");
        }
    }

    #[test]
    fn long_blocks_climb_levels_and_keep_at_most_sixteen_references() {
        let mut index = GridIndex::new(100.0);
        // One block per extent from 1 m to 80 km: the single-level grid
        // registered the longest under ~640,000 cells.
        for (d, extent) in [1.0, 90.0, 350.0, 2_000.0, 15_000.0, 80_000.0]
            .into_iter()
            .enumerate()
        {
            let mut meta = meta_at(d as u64, 0.0, 0.0, 10.0);
            meta.bbox = window(-extent / 2.0, 0.0, extent / 2.0, extent / 3.0);
            let before = index.num_references();
            index.insert(
                BlockRef {
                    device: d as u64,
                    block: 0,
                },
                &meta,
            );
            let added = index.num_references() - before;
            assert!((1..=16).contains(&added), "extent {extent}: {added} refs");
            assert!(index.oversize.is_empty(), "extent {extent} went oversize");
        }
        assert!(index.levels.len() > 5, "long blocks use coarse levels");
        // A window touching only the origin finds every block.
        assert_eq!(index.candidates(&window(-0.1, 0.1, 0.1, 0.2)).len(), 6);
    }

    #[test]
    fn non_finite_meta_goes_to_the_oversize_list() {
        let mut index = GridIndex::new(100.0);
        for (d, v) in [f64::NAN, f64::INFINITY].into_iter().enumerate() {
            let mut meta = meta_at(d as u64, 0.0, 0.0, 5.0);
            meta.bbox.max_x = v;
            index.insert(
                BlockRef {
                    device: d as u64,
                    block: 0,
                },
                &meta,
            );
        }
        assert_eq!(index.num_cells(), 0);
        assert_eq!(index.oversize.len(), 2);
        assert_eq!(
            index.candidates(&window(500.0, 500.0, 501.0, 501.0)).len(),
            2
        );
    }

    #[test]
    fn approx_bytes_counts_capacity_and_table_overhead() {
        let mut index = GridIndex::new(100.0);
        for d in 0..200u64 {
            let meta = meta_at(d, (d % 20) as f64 * 70.0, (d / 20) as f64 * 70.0, 10.0);
            index.insert(
                BlockRef {
                    device: d,
                    block: 0,
                },
                &meta,
            );
        }
        let capacity: usize = index
            .levels
            .iter()
            .flat_map(HashMap::values)
            .map(Vec::capacity)
            .sum::<usize>()
            + index.oversize.capacity();
        let floor = capacity * size_of::<BlockRef>();
        assert!(capacity > index.num_references(), "vectors over-allocate");
        assert!(
            index.approx_bytes() >= floor + index.num_cells() * size_of::<(Cell, Vec<BlockRef>)>(),
            "{} bytes reported for {floor} bytes of capacity",
            index.approx_bytes()
        );
    }

    #[test]
    fn empty_window_or_meta_yields_nothing() {
        let mut index = GridIndex::new(100.0);
        let mut meta = meta_at(1, 0.0, 0.0, 5.0);
        meta.bbox = BoundingBox::empty();
        index.insert(
            BlockRef {
                device: 1,
                block: 0,
            },
            &meta,
        );
        assert_eq!(index.num_blocks(), 0);
        assert!(index.candidates(&BoundingBox::empty()).is_empty());
    }
}
