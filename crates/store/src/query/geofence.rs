//! Standing continuous geofence queries over live ingest.
//!
//! A registered fence is a spatial region plus an optional time range.
//! Every time the ingest path seals blocks for a device, the freshly
//! sealed [`BlockMeta`]s are evaluated against all registered fences —
//! metadata only, never a payload decode.  A block *qualifies* for a
//! fence when its ζ+slack-expanded bounding box intersects the fence
//! region and its time interval overlaps the fence's range: the same
//! conservative, no-false-negative predicate the window-query path uses,
//! so an alert means "this device may have entered the region during
//! this interval" and a non-alert means it provably did not (with
//! respect to the stored error bound).
//!
//! # Exactly-once delivery
//!
//! Every alert is keyed by `(fence, device, block ordinal)`.  The
//! registry tracks a per-device cursor — the number of block ordinals
//! already evaluated — so a WAL replay that re-applies blocks after a
//! crash cannot re-fire alerts, and a catch-up scan after a durable
//! reopen fires alerts exactly for the qualifying blocks the crash
//! prevented from being evaluated.  Registered fences, cursors and the
//! alert sequence counter persist to `geofences.json` in the store
//! directory (atomic write-then-rename) whenever the registry is
//! attached to a durable store.
//!
//! # Delivery paths
//!
//! - [`GeofenceRegistry::subscribe`] — a bounded in-process channel;
//!   when a slow consumer lets the queue fill, the *oldest* alert is
//!   dropped and counted, so ingest never blocks on delivery.
//! - [`GeofenceRegistry::alerts_after`] — cursor-based polling over a
//!   bounded ring of recent alerts, backing the `/subscribe` endpoint;
//!   clients that fall further behind than the ring capacity observe a
//!   `missed` count instead of silently losing alerts.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use traj_geo::BoundingBox;
use traj_model::json::JsonValue;
use traj_obs::{Counter, Snapshot};
use traj_pipeline::DeviceId;

use crate::block::BlockMeta;
use crate::store::StoreError;

/// Alerts kept for cursor-based polling; older alerts are evicted and
/// reported as `missed`.
const RING_CAPACITY: usize = 4096;

/// A registered standing query: region, optional time range, a name for
/// humans.
#[derive(Debug, Clone, PartialEq)]
pub struct GeofenceSpec {
    /// Registry-assigned identifier.
    pub id: u64,
    /// Human-readable name (not necessarily unique).
    pub name: String,
    /// The watched region.
    pub region: BoundingBox,
    /// Optional closed time range `[t0, t1]` the fence watches.
    pub time: Option<(f64, f64)>,
}

/// One fired alert: device `device`'s block `block` qualifies for fence
/// `fence_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct GeofenceAlert {
    /// Global, strictly increasing delivery sequence number (starts
    /// at 1; survives durable reopens).
    pub seq: u64,
    /// The fence that matched.
    pub fence_id: u64,
    /// The fence's name at the time of the match.
    pub fence_name: Arc<str>,
    /// The device whose sealed block qualified.
    pub device: DeviceId,
    /// The block's ordinal in the device's append-only log.
    pub block: usize,
    /// The qualifying block's time interval.
    pub t_min: f64,
    /// See [`GeofenceAlert::t_min`].
    pub t_max: f64,
    /// Segments in the qualifying block.
    pub num_segments: usize,
}

/// Registry-wide accounting, exported through `/metrics` and `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeofenceStats {
    /// Currently registered fences.
    pub fences: usize,
    /// Alerts fired since the registry was created (or reopened).
    pub alerts_fired: u64,
    /// Fence×block metadata evaluations.
    pub blocks_checked: u64,
    /// Evaluations dismissed by the metadata predicate.
    pub blocks_skipped: u64,
    /// Live subscriptions.
    pub subscriptions: usize,
    /// Alerts evicted from the polling ring.
    pub ring_evicted: u64,
    /// Alerts dropped from full subscription queues.
    pub subscriber_dropped: u64,
    /// Failed writes of the persisted fence state.
    pub persist_errors: u64,
}

impl GeofenceStats {
    /// Puts the registry's `geofence_*` series into a metrics snapshot,
    /// every one of them always, so that a persist-error count of 0 is
    /// told apart from a series that is not exported.
    pub fn export(&self, series: &mut Snapshot) {
        series.put_gauge(
            "geofence_fences",
            "Standing geofence queries registered on the served store.",
            &[],
            self.fences as f64,
        );
        series.put_gauge(
            "geofence_subscriptions",
            "Live geofence alert subscriptions.",
            &[],
            self.subscriptions as f64,
        );
        series.put_gauge(
            "geofence_ring_evicted",
            "Alerts evicted from this store's polling ring.",
            &[],
            self.ring_evicted as f64,
        );
        series.put_counter(
            "geofence_alerts_total",
            "geofence alerts fired",
            &[],
            self.alerts_fired,
        );
        series.put_counter(
            "geofence_blocks_checked_total",
            "fence-block metadata evaluations",
            &[],
            self.blocks_checked,
        );
        series.put_counter(
            "geofence_blocks_skipped_total",
            "fence-block evaluations dismissed by metadata",
            &[],
            self.blocks_skipped,
        );
        series.put_counter(
            "geofence_subscriber_dropped_total",
            "alerts dropped from full subscription queues",
            &[],
            self.subscriber_dropped,
        );
        series.put_counter(
            "geofence_persist_errors_total",
            "failed geofence state writes",
            &[],
            self.persist_errors,
        );
    }
}

/// The result of one [`GeofenceRegistry::alerts_after`] poll.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PollResult {
    /// Alerts after the given cursor, oldest first.
    pub alerts: Vec<GeofenceAlert>,
    /// Pass this as the next poll's cursor.
    pub next_cursor: u64,
    /// Alerts between the cursor and the ring's oldest entry that were
    /// evicted before this poll (counted across all fences even when a
    /// fence filter is active).
    pub missed: u64,
}

#[derive(Debug)]
struct SubscriptionState {
    queue: Mutex<VecDeque<GeofenceAlert>>,
    capacity: usize,
    fence: Option<u64>,
    ready: Condvar,
}

/// The consumer end of a bounded alert channel.  Dropping the
/// subscription detaches it from the registry.
#[derive(Debug, Clone)]
pub struct Subscription {
    state: Arc<SubscriptionState>,
    dropped: Counter,
}

impl Subscription {
    /// Drains up to `max` queued alerts without blocking.
    pub fn poll(&self, max: usize) -> Vec<GeofenceAlert> {
        let mut queue = self.state.queue.lock().expect("subscription poisoned");
        let n = max.min(queue.len());
        queue.drain(..n).collect()
    }

    /// Blocks up to `timeout` for the next alert.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<GeofenceAlert> {
        let queue = self.state.queue.lock().expect("subscription poisoned");
        let (mut queue, _) = self
            .state
            .ready
            .wait_timeout_while(queue, timeout, |q| q.is_empty())
            .expect("subscription poisoned");
        queue.pop_front()
    }

    /// Alerts dropped from this subscription's queue because the
    /// consumer fell behind its capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

#[derive(Debug, Default)]
struct Inner {
    fences: Vec<GeofenceSpec>,
    next_fence_id: u64,
    next_seq: u64,
    /// Blocks already evaluated per device (ordinals `< cursor` are
    /// done).  The exactly-once key together with the fence set.
    cursors: HashMap<DeviceId, usize>,
    ring: VecDeque<GeofenceAlert>,
    ring_evicted: u64,
    subscribers: Vec<Arc<SubscriptionState>>,
    persist_path: Option<PathBuf>,
}

/// The version of `geofences.json` this registry writes.  Version 2
/// writes fence ids, `next_fence_id`, `next_seq` and cursor device ids as
/// decimal strings, exact above 2⁵³ where a JSON number read as `f64` is
/// not; version 1 wrote them as numbers and still loads.
const FILE_VERSION: usize = 2;

/// A persisted id or counter: a decimal string (version 2) or a number
/// (version 1).
fn exact_u64(value: Option<&JsonValue>) -> Option<u64> {
    match value? {
        JsonValue::String(text) => text.parse().ok(),
        number => number.as_f64().map(|v| v as u64),
    }
}

/// The standing-query registry.  One per [`crate::ShardedStore`]; safe to
/// share across the ingest threads and the serving threads.
#[derive(Debug)]
pub struct GeofenceRegistry {
    inner: Mutex<Inner>,
    alerts_fired: Counter,
    blocks_checked: Counter,
    blocks_skipped: Counter,
    subscriber_dropped: Counter,
    persist_errors: Counter,
}

impl Default for GeofenceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl GeofenceRegistry {
    /// An empty registry with no persistence.  The stats counters are
    /// per-registry: a reopened store starts from zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                next_fence_id: 1,
                next_seq: 1,
                ..Inner::default()
            }),
            alerts_fired: Counter::new(),
            blocks_checked: Counter::new(),
            blocks_skipped: Counter::new(),
            subscriber_dropped: Counter::new(),
            persist_errors: Counter::new(),
        }
    }

    /// Registers a standing fence and returns its id.  Alerts fire for
    /// blocks sealed from this point on (forward-only).
    ///
    /// # Errors
    ///
    /// Rejects regions with non-finite bounds, inverted regions, and
    /// time ranges that are NaN or inverted — a hostile fence must not
    /// reach the metadata walk (cf. the grid-index hardening).
    pub fn register(
        &self,
        name: &str,
        region: BoundingBox,
        time: Option<(f64, f64)>,
    ) -> Result<u64, String> {
        let bounds = [region.min_x, region.min_y, region.max_x, region.max_y];
        if bounds.iter().any(|v| !v.is_finite()) {
            return Err("fence region bounds must be finite".into());
        }
        if region.min_x > region.max_x || region.min_y > region.max_y {
            return Err("fence region is inverted (min > max)".into());
        }
        if let Some((t0, t1)) = time {
            if t0.is_nan() || t1.is_nan() || t0 > t1 {
                return Err("fence time range must be ordered and not NaN".into());
            }
        }
        let mut inner = self.lock();
        let id = inner.next_fence_id;
        inner.next_fence_id += 1;
        inner.fences.push(GeofenceSpec {
            id,
            name: name.to_string(),
            region,
            time,
        });
        self.persist(&inner);
        Ok(id)
    }

    /// Removes a fence; returns whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        let mut inner = self.lock();
        let before = inner.fences.len();
        inner.fences.retain(|f| f.id != id);
        let removed = inner.fences.len() != before;
        if removed {
            self.persist(&inner);
        }
        removed
    }

    /// The currently registered fences.
    #[must_use]
    pub fn fences(&self) -> Vec<GeofenceSpec> {
        self.lock().fences.clone()
    }

    /// Whether any fence is registered (ingest-path fast check).
    #[must_use]
    pub fn has_fences(&self) -> bool {
        !self.lock().fences.is_empty()
    }

    /// Opens a bounded subscription (`capacity` queued alerts; the
    /// oldest is dropped on overflow).  `fence` restricts delivery to
    /// one fence id.
    pub fn subscribe(&self, capacity: usize, fence: Option<u64>) -> Subscription {
        let state = Arc::new(SubscriptionState {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            fence,
            ready: Condvar::new(),
        });
        self.lock().subscribers.push(Arc::clone(&state));
        Subscription {
            state,
            dropped: self.subscriber_dropped.clone(),
        }
    }

    /// Cursor-based polling: alerts with `seq > cursor`, oldest first,
    /// up to `limit`, optionally restricted to one fence.
    #[must_use]
    pub fn alerts_after(&self, cursor: u64, limit: usize, fence: Option<u64>) -> PollResult {
        let inner = self.lock();
        let mut result = PollResult {
            next_cursor: cursor,
            ..PollResult::default()
        };
        if let Some(front) = inner.ring.front() {
            // Seqs 1..front.seq-1 are gone from the ring; everything the
            // cursor had not consumed among them was missed.
            result.missed = (front.seq - 1).saturating_sub(cursor);
        }
        for alert in &inner.ring {
            if alert.seq <= cursor {
                continue;
            }
            if result.alerts.len() >= limit {
                return result;
            }
            // Advance past non-matching alerts too: the cursor is a
            // position in the global sequence, not a per-fence one.
            result.next_cursor = alert.seq;
            if fence.is_none_or(|id| alert.fence_id == id) {
                result.alerts.push(alert.clone());
            }
        }
        result
    }

    /// Registry-wide accounting.
    #[must_use]
    pub fn stats(&self) -> GeofenceStats {
        let inner = self.lock();
        GeofenceStats {
            fences: inner.fences.len(),
            alerts_fired: self.alerts_fired.get(),
            blocks_checked: self.blocks_checked.get(),
            blocks_skipped: self.blocks_skipped.get(),
            subscriptions: inner
                .subscribers
                .iter()
                .filter(|s| Arc::strong_count(s) > 1)
                .count(),
            ring_evicted: inner.ring_evicted,
            subscriber_dropped: self.subscriber_dropped.get(),
            persist_errors: self.persist_errors.get(),
        }
    }

    /// Evaluates freshly sealed blocks of `device` whose ordinals are
    /// `base .. base + metas.len()`.  Ordinals below the device's cursor
    /// were already evaluated (e.g. by a pre-crash ingest that a WAL
    /// replay re-applied) and are skipped — this is what makes delivery
    /// exactly-once.  Called with the ingesting shard's write lock held,
    /// so per-device evaluations are totally ordered.
    pub(crate) fn on_sealed(&self, device: DeviceId, base: usize, metas: &[BlockMeta]) {
        if metas.is_empty() {
            return;
        }
        let mut span = traj_obs::span("geofence_eval");
        span.attr("device", device);
        let mut inner = self.lock();
        let cursor = inner.cursors.get(&device).copied().unwrap_or(0);
        let mut fired = 0u64;
        let mut checked = 0u64;
        let mut skipped = 0u64;
        for (i, meta) in metas.iter().enumerate() {
            let ordinal = base + i;
            if ordinal < cursor {
                continue;
            }
            let matches: Vec<(u64, Arc<str>)> = inner
                .fences
                .iter()
                .filter_map(|fence| {
                    checked += 1;
                    let time_ok = fence.time.is_none_or(|(t0, t1)| meta.overlaps_time(t0, t1));
                    if time_ok && meta.may_intersect_window(&fence.region) {
                        Some((fence.id, Arc::from(fence.name.as_str())))
                    } else {
                        skipped += 1;
                        None
                    }
                })
                .collect();
            for (fence_id, fence_name) in matches {
                let seq = inner.next_seq;
                inner.next_seq += 1;
                fired += 1;
                let alert = GeofenceAlert {
                    seq,
                    fence_id,
                    fence_name,
                    device,
                    block: ordinal,
                    t_min: meta.t_min,
                    t_max: meta.t_max,
                    num_segments: meta.num_segments,
                };
                if inner.ring.len() >= RING_CAPACITY {
                    inner.ring.pop_front();
                    inner.ring_evicted += 1;
                }
                inner.ring.push_back(alert.clone());
                for sub in &inner.subscribers {
                    if sub.fence.is_some_and(|id| id != fence_id) {
                        continue;
                    }
                    let mut queue = sub.queue.lock().expect("subscription poisoned");
                    if queue.len() >= sub.capacity {
                        queue.pop_front();
                        self.subscriber_dropped.inc();
                    }
                    queue.push_back(alert.clone());
                    sub.ready.notify_one();
                }
            }
        }
        self.alerts_fired.add(fired);
        self.blocks_checked.add(checked);
        self.blocks_skipped.add(skipped);
        let new_cursor = cursor.max(base + metas.len());
        inner.cursors.insert(device, new_cursor);
        // Detach subscriptions whose consumer side is gone.
        inner.subscribers.retain(|s| Arc::strong_count(s) > 1);
        // With no fence there is nothing to deliver twice: the cursors
        // stay in memory, and the next `register` writes them all.
        if !inner.fences.is_empty() {
            self.persist(&inner);
        }
        drop(inner);
        span.attr("alerts", fired);
    }

    /// Catch-up after a durable reopen: `metas` is the device's full log.
    /// Blocks before the persisted cursor were evaluated pre-crash and
    /// stay silent; blocks past it (applied by recovery but never
    /// evaluated) fire now.  A cursor beyond the log (recovery dropped
    /// unacknowledged blocks) is clamped.
    pub(crate) fn catch_up(&self, device: DeviceId, metas: &[BlockMeta]) {
        {
            let mut inner = self.lock();
            if let Some(cursor) = inner.cursors.get_mut(&device) {
                *cursor = (*cursor).min(metas.len());
            }
        }
        self.on_sealed(device, 0, metas);
    }

    /// Attaches a persistence path.  From now on every fence change saves
    /// the state, and so does every evaluation while a fence is
    /// registered; a registry that already holds a fence is saved at once.
    /// A registry that never had a fence writes no file.
    pub fn set_persist_path(&self, path: PathBuf) {
        let mut inner = self.lock();
        inner.persist_path = Some(path);
        if !inner.fences.is_empty() {
            self.persist(&inner);
        }
    }

    /// Loads fences, cursors and the sequence counter from a persisted
    /// `geofences.json` of version 2 (ids and counters as decimal strings)
    /// or version 1 (as numbers).  The returned registry has no
    /// persistence path attached yet (call
    /// [`GeofenceRegistry::set_persist_path`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be read,
    /// [`StoreError::Corrupt`] when it does not parse.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StoreError::Io(format!("read {}: {e}", path.display())))?;
        let value = JsonValue::parse(&text)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
        let registry = Self::new();
        {
            let mut inner = registry.lock();
            inner.next_fence_id = exact_u64(value.get("next_fence_id")).unwrap_or(1);
            inner.next_seq = exact_u64(value.get("next_seq")).unwrap_or(1);
            if let Some(fences) = value.get("fences").and_then(JsonValue::as_array) {
                for f in fences {
                    let num = |key: &str| f.get(key).and_then(JsonValue::as_f64);
                    let (Some(id), Some(min_x), Some(min_y), Some(max_x), Some(max_y)) = (
                        exact_u64(f.get("id")),
                        num("min_x"),
                        num("min_y"),
                        num("max_x"),
                        num("max_y"),
                    ) else {
                        continue;
                    };
                    let time = match (num("t0"), num("t1")) {
                        (Some(t0), Some(t1)) => Some((t0, t1)),
                        _ => None,
                    };
                    inner.fences.push(GeofenceSpec {
                        id,
                        name: f
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string(),
                        region: BoundingBox {
                            min_x,
                            min_y,
                            max_x,
                            max_y,
                        },
                        time,
                    });
                }
            }
            if let Some(cursors) = value.get("cursors").and_then(JsonValue::as_array) {
                for c in cursors {
                    if let (Some(device), Some(blocks)) = (
                        exact_u64(c.get("device")),
                        c.get("blocks").and_then(JsonValue::as_usize),
                    ) {
                        inner.cursors.insert(device, blocks);
                    }
                }
            }
        }
        Ok(registry)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("geofence registry poisoned")
    }

    /// Writes the registry state (atomic write-then-rename).  Delivery
    /// already happened by the time this runs, so a persist failure can
    /// only widen delivery to at-least-once after the *next* crash; it
    /// must not fail the ingest that triggered it.
    fn persist(&self, inner: &Inner) {
        let Some(path) = &inner.persist_path else {
            return;
        };
        let fences: Vec<JsonValue> = inner
            .fences
            .iter()
            .map(|f| {
                let mut pairs = vec![
                    ("id".to_string(), JsonValue::from(f.id.to_string())),
                    ("name".to_string(), JsonValue::from(f.name.as_str())),
                    ("min_x".to_string(), JsonValue::from(f.region.min_x)),
                    ("min_y".to_string(), JsonValue::from(f.region.min_y)),
                    ("max_x".to_string(), JsonValue::from(f.region.max_x)),
                    ("max_y".to_string(), JsonValue::from(f.region.max_y)),
                ];
                if let Some((t0, t1)) = f.time {
                    pairs.push(("t0".to_string(), JsonValue::from(t0)));
                    pairs.push(("t1".to_string(), JsonValue::from(t1)));
                }
                JsonValue::Object(pairs)
            })
            .collect();
        let cursors: Vec<JsonValue> = inner
            .cursors
            .iter()
            .map(|(device, blocks)| {
                JsonValue::object([
                    ("device", JsonValue::from(device.to_string())),
                    ("blocks", JsonValue::from(*blocks)),
                ])
            })
            .collect();
        let doc = JsonValue::object([
            ("version", JsonValue::from(FILE_VERSION)),
            (
                "next_fence_id",
                JsonValue::from(inner.next_fence_id.to_string()),
            ),
            ("next_seq", JsonValue::from(inner.next_seq.to_string())),
            ("fences", JsonValue::Array(fences)),
            ("cursors", JsonValue::Array(cursors)),
        ]);
        let tmp = path.with_extension("json.tmp");
        let write =
            std::fs::write(&tmp, doc.to_string_pretty()).and_then(|()| std::fs::rename(&tmp, path));
        if write.is_err() {
            self.persist_errors.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_above_2_pow_53_survive_a_persist_and_load() {
        const BIG: u64 = (1 << 53) + 1;
        let path = std::env::temp_dir().join(format!("traj-geofence-{}.json", std::process::id()));
        let registry = GeofenceRegistry::new();
        let region = BoundingBox {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 10.0,
            max_y: 10.0,
        };
        {
            let mut inner = registry.lock();
            inner.next_fence_id = BIG;
            inner.next_seq = BIG + 2;
            inner.cursors.insert(BIG, 3);
            inner.cursors.insert(BIG + 2, 4);
        }
        assert_eq!(registry.register("far", region, None), Ok(BIG));
        registry.set_persist_path(path.clone());
        let back = GeofenceRegistry::load(&path).unwrap();
        let inner = back.lock();
        assert_eq!((inner.next_fence_id, inner.next_seq), (BIG + 1, BIG + 2));
        assert_eq!(inner.fences[0].id, BIG);
        let mut cursors: Vec<_> = inner.cursors.iter().map(|(&d, &b)| (d, b)).collect();
        cursors.sort_unstable();
        assert_eq!(cursors, [(BIG, 3), (BIG + 2, 4)]);
        std::fs::remove_file(&path).ok();
    }
}
