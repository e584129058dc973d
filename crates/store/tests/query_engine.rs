//! End-to-end tests of the query engine: exact kNN over the compressed
//! form (pruned answers must be bit-identical to the brute-force decoded
//! reference) and standing geofence queries
//! (exactly-once alert delivery under live ingest, bounded subscriptions,
//! cursor-based polling, and durability across reopen and crash).

use std::time::Duration;

use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, DirectedSegment, Point};
use traj_model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{
    compress_fleet_into_shared_store, DurabilityMode, GeofenceAlert, GeofenceRegistry, KnnNeighbor,
    ShardedStore, StoreConfig,
};

const ZETA: f64 = 25.0;

fn synthetic_fleet(count: usize, points: usize, seed: u64) -> Vec<(DeviceId, Trajectory)> {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, seed);
    (0..count)
        .map(|i| (i as DeviceId, generator.generate_trajectory(i, points)))
        .collect()
}

fn populated_store(fleet: &[(DeviceId, Trajectory)]) -> ShardedStore {
    compressed_store(fleet, "operb", 16, 1)
}

fn compressed_store(
    fleet: &[(DeviceId, Trajectory)],
    algorithm: &str,
    block_segments: usize,
    shards: usize,
) -> ShardedStore {
    let algorithm = FleetAlgorithm::by_name(algorithm).unwrap();
    let config = PipelineConfig::new(ZETA)
        .with_workers(4)
        .with_batch_size(128);
    let store = ShardedStore::new(
        StoreConfig::default().with_block_segments(block_segments),
        shards,
    );
    let (_, ingested) =
        compress_fleet_into_shared_store(fleet, &config, &algorithm, &store).unwrap();
    assert_eq!(ingested, fleet.len());
    store
}

/// A straight west-to-east line at height `y`: `segments` chords of 100 m
/// per 10 s each, starting at `start_t`.
fn line(y: f64, start_t: f64, segments: usize) -> SimplifiedTrajectory {
    let mut out = Vec::with_capacity(segments);
    for i in 0..segments {
        let t0 = start_t + i as f64 * 10.0;
        let a = Point::new(i as f64 * 100.0, y, t0);
        let b = Point::new((i + 1) as f64 * 100.0, y, t0 + 10.0);
        out.push(SimplifiedSegment::new(DirectedSegment::new(a, b), i, i + 1));
    }
    SimplifiedTrajectory::new(out, segments + 1)
}

fn region(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> BoundingBox {
    BoundingBox {
        min_x,
        min_y,
        max_x,
        max_y,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("traj-query-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn durable_config() -> StoreConfig {
    StoreConfig::default()
        .with_block_segments(2)
        .with_durability(DurabilityMode::WalGroupCommit(Duration::ZERO))
}

// ───────────────────────────────── kNN ─────────────────────────────────

#[test]
fn knn_matches_bruteforce_bit_exactly_while_pruning() {
    let fleet = synthetic_fleet(40, 300, 23);
    let store = populated_store(&fleet);
    // A query trajectory sampled from one device's original points — a
    // localized query, so the metadata bound can dismiss far-away fleets.
    let probe = &fleet[3].1;
    let query: Vec<Point> = [probe.len() / 4, probe.len() / 2, 3 * probe.len() / 4]
        .map(|i| probe.point(i))
        .to_vec();
    for k in [1, 3, 10] {
        let pruned = store.knn(&query, k);
        let brute = store.knn_bruteforce(&query, k);
        // Bit-identical, not approximately equal: pruning is lossless.
        assert_eq!(pruned.neighbors, brute.neighbors, "k={k}");
        assert_eq!(pruned.neighbors.len(), k);
        assert!(
            pruned.stats.devices_pruned > 0,
            "k={k}: the ζ+slack bound must dismiss some devices ({:?})",
            pruned.stats
        );
        assert!(
            pruned.stats.blocks_decoded < pruned.stats.blocks_total,
            "k={k}: pruning must avoid decoding some payloads ({:?})",
            pruned.stats
        );
        assert!(
            brute.stats.blocks_decoded == brute.stats.blocks_total,
            "the reference must decode everything"
        );
    }
    // The query device itself must rank first (its own points are on it).
    assert_eq!(store.knn(&query, 1).neighbors[0].device, 3);
    // Degenerate inputs.
    assert!(store.knn(&query, 0).neighbors.is_empty());
    assert!(store.knn(&[], 5).neighbors.is_empty());
    // k beyond the fleet: every device comes back, still exactly.
    let all = store.knn(&query, 100);
    assert_eq!(all.neighbors.len(), 40);
    assert_eq!(all.neighbors, store.knn_bruteforce(&query, 100).neighbors);
}

/// Neighbours as `(device, distance bits)`: equal means bit-identical.
fn neighbor_bits(neighbors: &[KnnNeighbor]) -> Vec<(DeviceId, u64)> {
    neighbors
        .iter()
        .map(|n| (n.device, n.distance.to_bits()))
        .collect()
}

#[test]
fn knn_agrees_at_every_shard_count() {
    // 32 devices plus one long-lived device whose log runs past 200
    // blocks, so that dropping a device part-way through its blocks (on
    // suffix minima of the block bounds) runs on a long log.
    const LONG_DEVICE: DeviceId = 1_000;
    let mut fleet = synthetic_fleet(32, 250, 5);
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, 5);
    fleet.push((LONG_DEVICE, generator.generate_trajectory(1_000, 5_000)));
    let probe = |device: usize, shares: &[f64]| -> Vec<Point> {
        let traj = &fleet[device].1;
        shares
            .iter()
            .map(|share| traj.point(((traj.len() - 1) as f64 * share) as usize))
            .collect()
    };
    let queries = [
        probe(17, &[1.0 / 3.0, 2.0 / 3.0]),
        probe(32, &[0.2, 0.5, 0.8]),
        probe(4, &[0.5]),
    ];
    for algorithm in ["operb", "operb-a"] {
        let one = compressed_store(&fleet, algorithm, 8, 1);
        let long_blocks = one.block_metas(LONG_DEVICE).len();
        assert!(
            long_blocks >= 200,
            "{algorithm}: the long device has {long_blocks} blocks"
        );
        for shards in [1, 2, 4, 16] {
            let sharded = compressed_store(&fleet, algorithm, 8, shards);
            for (q, query) in queries.iter().enumerate() {
                for k in [1, 5, 10, fleet.len() + 3] {
                    let expected = neighbor_bits(&one.knn_bruteforce(query, k).neighbors);
                    assert_eq!(expected.len(), k.min(fleet.len()));
                    let context = format!("{algorithm}, {shards} shards, query {q}, k={k}");
                    assert_eq!(
                        neighbor_bits(&sharded.knn(query, k).neighbors),
                        expected,
                        "sharded {context}"
                    );
                    assert_eq!(
                        neighbor_bits(&sharded.knn_bruteforce(query, k).neighbors),
                        expected,
                        "sharded brute force {context}"
                    );
                }
            }
        }
    }
}

// ─────────────────────────────── geofence ──────────────────────────────

/// The expected alert key set, computed independently from the block
/// metadata with the same conservative predicate the registry documents.
fn expected_alerts(store: &ShardedStore) -> Vec<(u64, DeviceId, usize)> {
    let mut expected = Vec::new();
    for device in store.devices() {
        for (ordinal, meta) in store.block_metas(device).iter().enumerate() {
            for fence in store.geofences().fences() {
                let time_ok = fence.time.is_none_or(|(t0, t1)| meta.overlaps_time(t0, t1));
                if time_ok && meta.may_intersect_window(&fence.region) {
                    expected.push((fence.id, device, ordinal));
                }
            }
        }
    }
    expected.sort_unstable();
    expected
}

fn alert_keys(alerts: &[GeofenceAlert]) -> Vec<(u64, DeviceId, usize)> {
    let mut keys: Vec<_> = alerts
        .iter()
        .map(|a| (a.fence_id, a.device, a.block))
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn geofence_fires_exactly_once_per_qualifying_block() {
    let store = ShardedStore::new(StoreConfig::default().with_block_segments(2), 4);
    let fences = store.geofences();
    // Fence A: the western 150 m, any time.  Fence B: around the third
    // block's x-span, but only during the first 25 s.
    fences
        .register("west", region(0.0, -50.0, 150.0, 850.0), None)
        .unwrap();
    fences
        .register(
            "mid-early",
            region(350.0, -50.0, 450.0, 850.0),
            Some((0.0, 25.0)),
        )
        .unwrap();
    for d in 0..6u64 {
        store
            .ingest(d, &line(d as f64 * 100.0, 0.0, 6), 5.0)
            .unwrap();
    }
    let after_wave_1 = fences.alerts_after(0, 10_000, None);
    assert_eq!(after_wave_1.missed, 0);
    let keys = alert_keys(&after_wave_1.alerts);
    assert_eq!(keys, expected_alerts(&store), "first wave");
    // Exactly once: no duplicate (fence, device, block) keys.
    let mut dedup = keys.clone();
    dedup.dedup();
    assert_eq!(dedup, keys, "no duplicate alert keys");
    assert!(
        fences.stats().blocks_skipped > 0,
        "metadata must dismiss non-qualifying blocks"
    );

    // A second live wave: only the new ordinals may fire, and the full
    // alert history still matches the full expected set exactly once.
    for d in 0..6u64 {
        store
            .ingest(d, &line(d as f64 * 100.0, 60.0, 6), 5.0)
            .unwrap();
    }
    let after_wave_2 = fences.alerts_after(0, 10_000, None);
    let keys = alert_keys(&after_wave_2.alerts);
    assert_eq!(keys, expected_alerts(&store), "after second wave");
    let mut dedup = keys.clone();
    dedup.dedup();
    assert_eq!(dedup, keys, "still no duplicates across waves");
    assert_eq!(fences.stats().alerts_fired, keys.len() as u64);
}

#[test]
fn subscriptions_are_bounded_drop_oldest_and_fence_filtered() {
    let store = ShardedStore::new(StoreConfig::default().with_block_segments(1), 2);
    let fences = store.geofences();
    let everywhere = fences
        .register("everywhere", region(-1e6, -1e6, 1e6, 1e6), None)
        .unwrap();
    let west = fences
        .register("west", region(-10.0, -10.0, 10.0, 10.0), None)
        .unwrap();
    let all_sub = fences.subscribe(3, None);
    let west_sub = fences.subscribe(8, Some(west));

    // 6 single-segment blocks: "everywhere" fires 6 alerts, "west" only
    // for block 0 → 7 alerts total.
    store.ingest(9, &line(0.0, 0.0, 6), 5.0).unwrap();

    let west_alert = west_sub
        .recv_timeout(Duration::from_secs(5))
        .expect("west alert delivered");
    assert_eq!(west_alert.fence_id, west);
    assert_eq!(west_alert.block, 0);
    assert_eq!(&*west_alert.fence_name, "west");
    assert!(
        west_sub.poll(100).is_empty(),
        "only block 0 matches the west fence"
    );

    // The bounded all-fences queue kept only the newest 3 of 7.
    let kept = all_sub.poll(100);
    assert_eq!(kept.len(), 3);
    let seqs: Vec<u64> = kept.iter().map(|a| a.seq).collect();
    assert_eq!(seqs, vec![5, 6, 7], "drop-oldest keeps the newest alerts");
    assert_eq!(all_sub.dropped(), 4);

    let stats = fences.stats();
    assert_eq!(stats.fences, 2);
    assert_eq!(stats.alerts_fired, 7);
    assert_eq!(stats.blocks_checked, 12);
    assert_eq!(stats.blocks_skipped, 5);
    assert_eq!(stats.subscriptions, 2);
    assert_eq!(stats.subscriber_dropped, 4);

    // Dropping the consumer detaches the subscription on the next seal.
    drop(west_sub);
    store.ingest(9, &line(0.0, 60.0, 1), 5.0).unwrap();
    assert_eq!(fences.stats().subscriptions, 1);
    let _ = everywhere;
}

#[test]
fn alert_polling_pages_by_cursor_and_reports_evictions() {
    let store = ShardedStore::new(StoreConfig::default().with_block_segments(1), 2);
    let fences = store.geofences();
    fences
        .register("everywhere", region(-1e9, -1e9, 1e9, 1e9), None)
        .unwrap();
    let silent = fences
        .register("nowhere", region(9e8, 9e8, 9.1e8, 9.1e8), None)
        .unwrap();
    // 4200 single-segment blocks → 4200 alerts; the ring holds 4096, so
    // the first 104 are evicted.
    store.ingest(7, &line(0.0, 0.0, 4200), 5.0).unwrap();
    assert_eq!(fences.stats().alerts_fired, 4200);
    assert_eq!(fences.stats().ring_evicted, 104);

    let first = fences.alerts_after(0, 50, None);
    assert_eq!(first.missed, 104, "evicted alerts surface as missed");
    assert_eq!(first.alerts.len(), 50);
    assert_eq!(
        first.alerts[0].seq, 105,
        "oldest retained alert comes first"
    );
    assert_eq!(first.next_cursor, first.alerts.last().unwrap().seq);

    // Page through the rest: the union is every retained alert, no
    // duplicates, and a caught-up cursor reports nothing missed.
    let mut cursor = first.next_cursor;
    let mut seen: Vec<u64> = first.alerts.iter().map(|a| a.seq).collect();
    loop {
        let page = fences.alerts_after(cursor, 1000, None);
        assert_eq!(page.missed, 0, "a live cursor never misses");
        if page.alerts.is_empty() {
            break;
        }
        seen.extend(page.alerts.iter().map(|a| a.seq));
        cursor = page.next_cursor;
    }
    assert_eq!(seen.len(), 4096);
    assert_eq!(seen, (105..=4200).collect::<Vec<u64>>());
    let done = fences.alerts_after(cursor, 10, None);
    assert!(done.alerts.is_empty());
    assert_eq!(done.next_cursor, cursor);

    // A fence filter still advances the cursor past non-matching alerts.
    let filtered = fences.alerts_after(0, 10_000, Some(silent));
    assert!(filtered.alerts.is_empty());
    assert_eq!(filtered.next_cursor, 4200);
}

#[test]
fn hostile_fence_specs_are_rejected() {
    let fences = GeofenceRegistry::new();
    assert!(fences
        .register("nan", region(f64::NAN, 0.0, 1.0, 1.0), None)
        .is_err());
    assert!(fences
        .register("inf", region(0.0, 0.0, f64::INFINITY, 1.0), None)
        .is_err());
    assert!(fences
        .register("inverted", region(5.0, 0.0, 1.0, 1.0), None)
        .is_err());
    assert!(fences
        .register(
            "bad-time",
            region(0.0, 0.0, 1.0, 1.0),
            Some((f64::NAN, 5.0))
        )
        .is_err());
    assert!(fences
        .register(
            "inverted-time",
            region(0.0, 0.0, 1.0, 1.0),
            Some((9.0, 5.0))
        )
        .is_err());
    assert_eq!(fences.fences().len(), 0);
    let id = fences
        .register("ok", region(0.0, 0.0, 1.0, 1.0), Some((0.0, 10.0)))
        .unwrap();
    assert!(fences.remove(id));
    assert!(!fences.remove(id));
}

#[test]
fn geofence_alerts_do_not_refire_across_durable_reopen() {
    let dir = temp_dir("geofence-reopen");
    {
        let (store, report) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
        assert!(report.is_clean());
        store
            .geofences()
            .register("west", region(0.0, -50.0, 150.0, 50.0), None)
            .unwrap();
        for d in 0..3u64 {
            store.ingest(d, &line(0.0, 0.0, 6), 5.0).unwrap();
        }
        // Only block 0 of each device touches the western fence.
        let fired = store.geofences().alerts_after(0, 100, None);
        assert_eq!(
            alert_keys(&fired.alerts),
            vec![(1, 0, 0), (1, 1, 0), (1, 2, 0)]
        );
        assert_eq!(store.geofences().stats().alerts_fired, 3);
    }
    // Reopen: cursors were persisted with the fences, so catch-up finds
    // every block already evaluated — nothing re-fires.
    let (store, report) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
    assert!(report.is_clean());
    assert_eq!(store.geofences().fences().len(), 1);
    assert_eq!(
        store.geofences().stats().alerts_fired,
        0,
        "no re-fired alerts"
    );
    assert!(store
        .geofences()
        .alerts_after(0, 100, None)
        .alerts
        .is_empty());

    // New ingest keeps alerting, with sequence numbers continuing past
    // the pre-reopen history.
    for d in 0..3u64 {
        store.ingest(d, &line(0.0, 100.0, 6), 5.0).unwrap();
    }
    let fired = store.geofences().alerts_after(0, 100, None);
    assert_eq!(
        alert_keys(&fired.alerts),
        vec![(1, 0, 3), (1, 1, 3), (1, 2, 3)]
    );
    let mut seqs: Vec<u64> = fired.alerts.iter().map(|a| a.seq).collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        vec![4, 5, 6],
        "the persisted sequence counter continues"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catch_up_fires_alerts_the_crash_swallowed() {
    let dir = temp_dir("geofence-catchup");
    {
        let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
        store
            .geofences()
            .register("west", region(0.0, -50.0, 150.0, 50.0), None)
            .unwrap();
        for d in 0..2u64 {
            store.ingest(d, &line(0.0, 0.0, 6), 5.0).unwrap();
        }
        assert_eq!(store.geofences().stats().alerts_fired, 2);
    }
    // Simulate a crash between applying the blocks and persisting the
    // evaluation cursors: same fences and sequence counter, no cursors.
    std::fs::write(
        dir.join("geofences.json"),
        r#"{"version": 1, "next_fence_id": 2, "next_seq": 3,
            "fences": [{"id": 1, "name": "west",
                        "min_x": 0.0, "min_y": -50.0, "max_x": 150.0, "max_y": 50.0}],
            "cursors": []}"#,
    )
    .unwrap();
    // Catch-up on reopen walks every block again and fires exactly the
    // qualifying ones the lost cursors had covered.
    let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
    assert_eq!(store.geofences().stats().alerts_fired, 2);
    let fired = store.geofences().alerts_after(0, 100, None);
    assert_eq!(alert_keys(&fired.alerts), vec![(1, 0, 0), (1, 1, 0)]);
    let mut seqs: Vec<u64> = fired.alerts.iter().map(|a| a.seq).collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        vec![3, 4],
        "catch-up continues the persisted sequence"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alerts_for_a_device_above_2_pow_53_fire_once_across_durable_reopen() {
    const DEVICE: DeviceId = (1 << 53) + 1;
    let dir = temp_dir("geofence-big-id");
    {
        let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
        store
            .geofences()
            .register("west", region(0.0, -50.0, 150.0, 50.0), None)
            .unwrap();
        store.ingest(DEVICE, &line(0.0, 0.0, 6), 5.0).unwrap();
        assert_eq!(store.geofences().stats().alerts_fired, 1);
    }
    // The reopen replays the ingest from the WAL; catch-up must find its
    // blocks evaluated under the device's own cursor, not under one
    // rounded to 2⁵³.
    let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
    assert_eq!(
        store.geofences().stats().alerts_fired,
        0,
        "no re-fired alert"
    );
    store.ingest(DEVICE, &line(0.0, 100.0, 6), 5.0).unwrap();
    let fired = store.geofences().alerts_after(0, 100, None);
    assert_eq!(alert_keys(&fired.alerts), vec![(1, DEVICE, 3)]);
    assert_eq!(fired.alerts[0].seq, 2, "the sequence continues");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_without_fences_writes_no_geofence_file() {
    let dir = temp_dir("geofence-none");
    let file = dir.join("geofences.json");
    {
        let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
        for d in 0..3u64 {
            store.ingest(d, &line(0.0, 0.0, 6), 5.0).unwrap();
        }
        assert!(!file.exists(), "no fence, no file after ingest");
    }
    // The reopen catches up every device; with no fence there is nothing
    // to save.
    let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
    assert!(!file.exists(), "no fence, no file after a reopen");

    // Forward-only: the first fence sees the next block, not the blocks
    // ingested before it.
    store
        .geofences()
        .register("west", region(0.0, -50.0, 150.0, 50.0), None)
        .unwrap();
    assert!(file.exists(), "registering a fence writes the file");
    store.ingest(3, &line(0.0, 0.0, 6), 5.0).unwrap();
    let fired = store.geofences().alerts_after(0, 100, None);
    assert_eq!(alert_keys(&fired.alerts), vec![(1, 3, 0)]);
    drop(store);

    let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
    assert_eq!(store.geofences().fences().len(), 1, "the fence survives");
    assert_eq!(
        store.geofences().stats().alerts_fired,
        0,
        "no re-fired alert"
    );
    // Removing the last fence is written too, or a reopen would bring it
    // back.
    assert!(store.geofences().remove(1));
    drop(store);
    let (store, _) = ShardedStore::open_durable(&dir, 2, durable_config()).unwrap();
    assert!(store.geofences().fences().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
