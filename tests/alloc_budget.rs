//! Allocation budgets per request kind, counted by this binary's own
//! global allocator — a cost gate that does not depend on the machine.
//!
//! A seeded Taxi store is served with one handler permit, once with the
//! default configuration (the 250 ms slow-query log armed on every
//! request) and once with tracing off.  A fixed list of time-slice,
//! window, position and kNN requests is replayed one at a time; each
//! request's count is every allocation made in the process between
//! sending it and reading its whole answer, client and server together.
//! The client keeps one connection to each server, opened during the
//! warm-up pass, so no count includes setting up a connection.  The test
//! asserts:
//!
//! * an armed trace that the slow log does not keep allocates nothing:
//!   both servers make the same number of allocations per kind;
//! * an HTTP window answer costs at most twice the allocations of the
//!   direct `window_query` behind it, plus 64;
//! * no kind exceeds its budget (allocations per request, summed over
//!   the list).  Budgets only ever tighten.
//!
//! Each count is the minimum over a few replays after a warm-up pass, so
//! a request slow enough for the slow log to keep (a scheduling stall)
//! cannot move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::BoundingBox;
use traj_model::Trajectory;
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_service::{client, Server, ServiceConfig};
use traj_store::{compress_fleet_into_shared_store, ShardedStore, StoreConfig};

/// Counts every allocator call that hands out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

/// Replays after the warm-up pass; each count is their minimum.
const REPLAYS: usize = 3;

/// The request kinds, in the order the budgets list them.
const KINDS: [&str; 4] = ["slice", "window", "position", "knn"];

/// Allocations per request kind, summed over the request list, at most.
/// Set at the counts this code makes; lower them when a change makes
/// fewer, never raise them.
const BUDGETS: [u64; 4] = [157, 509, 104, 194];

struct Request {
    kind: usize,
    path: String,
    /// The window behind a `/window` request, for the direct call.
    window: Option<(BoundingBox, Option<(f64, f64)>)>,
}

fn seeded_store() -> (Vec<(DeviceId, Trajectory)>, Arc<ShardedStore>) {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, 1);
    let fleet: Vec<(DeviceId, Trajectory)> = (0..120)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, 300)))
        .collect();
    let store = Arc::new(ShardedStore::new(
        StoreConfig::default().with_block_segments(32),
        16,
    ));
    let algorithm = FleetAlgorithm::by_name("operb").expect("operb is registered");
    compress_fleet_into_shared_store(&fleet, &PipelineConfig::new(30.0), &algorithm, &store)
        .expect("the seeded fleet compresses");
    (fleet, store)
}

/// Eight requests of each kind, spread over the fleet.
fn requests(fleet: &[(DeviceId, Trajectory)]) -> Vec<Request> {
    let mut out = Vec::new();
    for i in 0..8 {
        let (device, trajectory) = &fleet[(i * 37) % fleet.len()];
        let points = trajectory.points();
        let at = |share: f64| points[((points.len() - 1) as f64 * share) as usize];
        let (from, to) = (at(0.2).t, at(0.45).t);
        out.push(Request {
            kind: 0,
            path: format!("/time_slice?device={device}&from={from}&to={to}"),
            window: None,
        });
        let centre = at(0.1 * i as f64 + 0.1);
        let window = BoundingBox {
            min_x: centre.x - 300.0,
            min_y: centre.y - 300.0,
            max_x: centre.x + 300.0,
            max_y: centre.y + 300.0,
        };
        let time = (i % 2 == 1).then_some((centre.t - 1800.0, centre.t + 1800.0));
        let mut path = format!(
            "/window?min_x={}&min_y={}&max_x={}&max_y={}",
            window.min_x, window.min_y, window.max_x, window.max_y
        );
        if let Some((t0, t1)) = time {
            path.push_str(&format!("&from={t0}&to={t1}"));
        }
        out.push(Request {
            kind: 1,
            path,
            window: Some((window, time)),
        });
        let t = at(0.3 + 0.05 * i as f64).t;
        out.push(Request {
            kind: 2,
            path: format!("/position_at?device={device}&t={t}"),
            window: None,
        });
        let probe: Vec<String> = (0..=i % 3)
            .map(|j| {
                let p = at(0.15 * j as f64 + 0.05 * i as f64);
                format!("{},{}", p.x + 40.0, p.y - 25.0)
            })
            .collect();
        out.push(Request {
            kind: 3,
            path: format!("/knn?points={}&k=5", probe.join(";")),
            window: None,
        });
    }
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    let (status, body) = client::http_get_timeout(addr, path, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(status, 200, "{path}: {body}");
    body
}

/// Each request's allocations over HTTP: the minimum of [`REPLAYS`]
/// replays after one warm-up pass.
fn http_counts(addr: SocketAddr, requests: &[Request]) -> Vec<u64> {
    for r in requests {
        get(addr, &r.path);
    }
    let mut counts = vec![u64::MAX; requests.len()];
    for _ in 0..REPLAYS {
        for (slot, r) in counts.iter_mut().zip(requests) {
            let (n, _) = count(|| get(addr, &r.path));
            *slot = (*slot).min(n);
        }
    }
    counts
}

fn per_kind(requests: &[Request], counts: &[u64]) -> [u64; 4] {
    let mut sums = [0; 4];
    for (r, n) in requests.iter().zip(counts) {
        sums[r.kind] += n;
    }
    sums
}

#[test]
fn requests_stay_within_their_allocation_budgets() {
    let (fleet, store) = seeded_store();
    let requests = requests(&fleet);
    let start = |config: ServiceConfig| {
        Server::start(Arc::clone(&store), "127.0.0.1:0", config.with_workers(1))
            .expect("bind a loopback port")
    };
    let armed = start(ServiceConfig::default());
    let untraced = start(ServiceConfig::default().with_slow_query_threshold(None));
    let armed_counts = http_counts(armed.local_addr(), &requests);
    let untraced_counts = http_counts(untraced.local_addr(), &requests);
    armed.stop();
    untraced.stop();

    let armed_sums = per_kind(&requests, &armed_counts);
    let untraced_sums = per_kind(&requests, &untraced_counts);
    for (kind, name) in KINDS.iter().enumerate() {
        eprintln!(
            "{name}: {} allocations over 8 requests (slow log armed), {} untraced, budget {}",
            armed_sums[kind], untraced_sums[kind], BUDGETS[kind]
        );
    }
    for (kind, name) in KINDS.iter().enumerate() {
        assert_eq!(
            armed_sums[kind], untraced_sums[kind],
            "{name}: an armed but unkept trace must allocate nothing"
        );
        assert!(
            armed_sums[kind] <= BUDGETS[kind],
            "{name}: {} allocations over budget {}",
            armed_sums[kind],
            BUDGETS[kind]
        );
    }

    // HTTP windows cost at most twice the direct call, plus a constant.
    for (r, &http) in requests.iter().zip(&armed_counts) {
        let Some((window, time)) = r.window else {
            continue;
        };
        let direct = (0..REPLAYS)
            .map(|_| count(|| store.window_query(&window, time)).0)
            .min()
            .expect("at least one replay");
        eprintln!("{}: direct {direct}, http {http}", r.path);
        assert!(
            http <= 2 * direct + 64,
            "{}: HTTP made {http} allocations, direct {direct}",
            r.path
        );
    }
}
