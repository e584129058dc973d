//! Lock-light metrics: atomic counters, gauges, log-bucket histograms,
//! a get-or-create registry, mergeable snapshots and the Prometheus
//! text exposition encoder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets.  Bucket `i` holds values in
/// `(2^(i-1), 2^i]` (bucket 0 holds `0..=1`), so the top bucket's upper
/// bound is `2^31` — about 36 minutes when recording microseconds.
/// Larger values clamp into the top bucket.
pub const BUCKETS: usize = 32;

/// The bucket a value falls into: the smallest `i` with `value <= 2^i`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        // ceil(log2(value)) via the position of the highest set bit of
        // value - 1.
        let ceil_log2 = 64 - (value - 1).leading_zeros();
        (ceil_log2 as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `index`.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    1u64 << index.min(BUCKETS - 1)
}

/// A monotonically increasing counter.  Clones share the same value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero, not attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.  Clones share the value.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero, not attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed power-of-two-bucket histogram.  Recording is one relaxed
/// atomic increment plus one atomic add (for the sum); snapshots are
/// consistent enough for monitoring (buckets are read one at a time
/// while writers may still be recording).  Clones share the buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram, not attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s buckets: the unit quantiles
/// are extracted from and the unit that merges across threads (and,
/// later, across nodes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative), `BUCKETS` long.
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// The quantile `q` in `[0, 1]` at bucket resolution: the upper
    /// bound of the bucket holding the `ceil(q * count)`-th smallest
    /// observation.  The true value lies in `(result/2, result]` when
    /// `result > 1`; a result of 1 is bucket 0, whose range is `0..=1`
    /// (an all-zero histogram therefore reports 1, the bucket bound,
    /// not 0).  Returns 0 only for an *empty* histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Adds `other`'s observations into `self` (plain bucket addition —
    /// the merge is exact, order-independent and associative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

/// What a registered series measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotonic count.
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl SampleKind {
    fn prometheus_type(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
            SampleKind::Histogram => "histogram",
        }
    }
}

/// A label set in a canonical order.  Labels are compared as given;
/// callers must use a consistent key order per series (instrumentation
/// in this workspace always does).
type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: String,
    kind: SampleKind,
    instruments: BTreeMap<LabelSet, Instrument>,
}

/// A get-or-create home for metric handles.  The mutex guards only
/// registration and snapshotting; the handles it returns update their
/// values with lone atomic operations.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry (used by layers with no natural owner
    /// to thread a registry through, e.g. the pipeline's worker pool).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn instrument<T: Clone>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: SampleKind,
        make: impl FnOnce() -> Instrument,
        pick: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let family = inner.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            instruments: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric '{name}' registered as {:?} and requested as {kind:?}",
            family.kind
        );
        let instrument = family
            .instruments
            .entry(label_set(labels))
            .or_insert_with(make);
        pick(instrument).expect("instrument kind checked above")
    }

    /// The counter `(name, labels)`, created at zero on first use.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.instrument(
            name,
            help,
            labels,
            SampleKind::Counter,
            || Instrument::Counter(Counter::new()),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge `(name, labels)`, created at zero on first use.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.instrument(
            name,
            help,
            labels,
            SampleKind::Gauge,
            || Instrument::Gauge(Gauge::new()),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram `(name, labels)`, created empty on first use.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.instrument(
            name,
            help,
            labels,
            SampleKind::Histogram,
            || Instrument::Histogram(Histogram::new()),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// A point-in-time copy of every registered series.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut snapshot = Snapshot::new();
        for (name, family) in inner.iter() {
            for (labels, instrument) in &family.instruments {
                let sample = match instrument {
                    Instrument::Counter(c) => Sample::Counter(c.get()),
                    Instrument::Gauge(g) => Sample::Gauge(g.get() as f64),
                    Instrument::Histogram(h) => Sample::Histogram(h.snapshot()),
                };
                snapshot.put(name, &family.help, family.kind, labels.clone(), sample);
            }
        }
        snapshot
    }
}

/// One sampled value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum Sample {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(f64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

impl Sample {
    /// Adds `other` into `self`: counters and gauges add, histograms merge
    /// bucket-wise.  A sample of another kind leaves `self` as it is.
    fn add(&mut self, other: &Sample) {
        match (self, other) {
            (Sample::Counter(a), Sample::Counter(b)) => *a += b,
            (Sample::Gauge(a), Sample::Gauge(b)) => *a += b,
            (Sample::Histogram(a), Sample::Histogram(b)) => a.merge(b),
            _ => {}
        }
    }
}

struct FamilySnapshot {
    help: String,
    kind: SampleKind,
    samples: BTreeMap<LabelSet, Sample>,
}

/// A point-in-time view of many series: the scrape-time working set.
/// Registry snapshots [`merge`](Snapshot::merge) into it, scrape-only
/// values (read from subsystem stats structs rather than kept hot in a
/// registry) are appended with the `put_*` methods, and the result
/// renders to the Prometheus text format.  Merging sums counters,
/// gauges and histogram buckets, which is exactly the aggregation a
/// multi-node deployment needs.
#[derive(Default)]
pub struct Snapshot {
    families: BTreeMap<String, FamilySnapshot>,
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn put(&mut self, name: &str, help: &str, kind: SampleKind, labels: LabelSet, sample: Sample) {
        let family = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| FamilySnapshot {
                help: help.to_string(),
                kind,
                samples: BTreeMap::new(),
            });
        family.samples.insert(labels, sample);
    }

    /// Sets the counter `(name, labels)` to `value`.
    pub fn put_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.put(
            name,
            help,
            SampleKind::Counter,
            label_set(labels),
            Sample::Counter(value),
        );
    }

    /// Sets the gauge `(name, labels)` to `value`.
    pub fn put_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.put(
            name,
            help,
            SampleKind::Gauge,
            label_set(labels),
            Sample::Gauge(value),
        );
    }

    /// Sets the histogram `(name, labels)` to `value`.
    pub fn put_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: HistogramSnapshot,
    ) {
        self.put(
            name,
            help,
            SampleKind::Histogram,
            label_set(labels),
            Sample::Histogram(value),
        );
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise, series absent from `self` are copied in.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, family) in &other.families {
            for (labels, s) in &family.samples {
                match self
                    .families
                    .get_mut(name)
                    .and_then(|f| f.samples.get_mut(labels))
                {
                    Some(existing) => existing.add(s),
                    None => self.put(name, &family.help, family.kind, labels.clone(), s.clone()),
                }
            }
        }
    }

    /// The sample for `(name, labels)`, if present.
    #[must_use]
    pub fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.families.get(name)?.samples.get(&label_set(labels))
    }

    /// The family `name` summed over its label sets — counters and gauges
    /// add, histograms merge — or `None` when no series has that name.
    #[must_use]
    pub fn total(&self, name: &str) -> Option<Sample> {
        let mut samples = self.families.get(name)?.samples.values();
        let mut total = samples.next()?.clone();
        samples.for_each(|sample| total.add(sample));
        Some(total)
    }

    /// Number of distinct `(name, labels)` series.
    #[must_use]
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.samples.len()).sum()
    }

    /// The snapshot in Prometheus text exposition format: families in
    /// name order, label sets in canonical order, `# HELP` / `# TYPE`
    /// once per family, histograms expanded into cumulative
    /// `_bucket{le=…}` plus `_sum` and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.prometheus_type());
            for (labels, sample) in &family.samples {
                match sample {
                    Sample::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    Sample::Gauge(v) => {
                        let _ =
                            writeln!(out, "{name}{} {}", render_labels(labels, None), fmt_f64(*v));
                    }
                    Sample::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, &c) in h.buckets.iter().enumerate() {
                            cumulative += c;
                            let le = bucket_upper_bound(i).to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(labels, Some("+Inf"))
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum);
                        let _ = writeln!(
                            out,
                            "{name}_count{} {cumulative}",
                            render_labels(labels, None)
                        );
                    }
                }
            }
        }
        out
    }
}

/// Formats a gauge value: integral values print without a trailing
/// `.0`, everything else uses the shortest round-trip form.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a label value: backslash, double quote and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a HELP string: backslash and newline.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",…}` (empty string when there are no labels), with
/// an optional trailing `le` label for histogram buckets.
fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS {
            // The upper bound of every bucket falls into that bucket…
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            // …and one past it falls into the next (until the clamp).
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
            }
        }
    }

    /// The xorshift* generator — enough randomness for sampling tests.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn quantiles_match_a_sorted_vector_reference() {
        // The histogram quantile must equal the upper bound of the
        // bucket holding the rank-th smallest sample — check against a
        // sorted-vector reference on seeded random samples at several
        // scales and quantiles.
        for seed in [3u64, 17, 20170401] {
            let mut rng = TestRng(seed);
            let histogram = Histogram::new();
            let mut samples: Vec<u64> = (0..5000)
                .map(|_| {
                    // Mix magnitudes so many buckets participate.
                    let magnitude = rng.next() % 20;
                    rng.next() % (1u64 << (magnitude + 1))
                })
                .collect();
            for &s in &samples {
                histogram.record(s);
            }
            samples.sort_unstable();
            let snapshot = histogram.snapshot();
            assert_eq!(snapshot.count(), samples.len() as u64);
            assert_eq!(snapshot.sum, samples.iter().sum::<u64>());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let reference = samples[rank - 1];
                assert_eq!(
                    snapshot.quantile(q),
                    bucket_upper_bound(bucket_index(reference)),
                    "seed {seed}, q {q}: reference value {reference}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn all_zero_histogram_reports_bucket_zero_bound() {
        // Observations of 0 land in bucket 0 (range 0..=1); the quantile
        // is that bucket's *upper bound*, 1 — distinguishable from the
        // empty histogram's 0.  Pinned: a "fix" that returned 0 here
        // would make all-zero and empty snapshots indistinguishable.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10);
        assert_eq!(s.sum, 0);
        assert_eq!(s.mean(), 0.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 1, "q = {q}");
        }
    }

    #[test]
    fn quantiles_of_values_exactly_on_bucket_bounds() {
        // A value exactly on a bucket's upper bound belongs to that
        // bucket, so the quantile returns the value itself — no
        // off-by-one into the next bucket.
        for value in [1u64, 2, 4, 1024, 1 << 31] {
            let h = Histogram::new();
            h.record(value);
            assert_eq!(h.snapshot().quantile(1.0), value, "value {value}");
        }
        // One past a bound rounds up to the next bucket's bound…
        let h = Histogram::new();
        h.record(1025);
        assert_eq!(h.snapshot().quantile(1.0), 2048);
        // …and everything past the top bucket clamps to its bound.
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().quantile(0.5), bucket_upper_bound(BUCKETS - 1));
        assert_eq!(bucket_upper_bound(BUCKETS - 1), 1 << 31);
        // q = 0 clamps to rank 1 (the smallest observation), never rank 0.
        let h = Histogram::new();
        h.record(3);
        h.record(1 << 20);
        assert_eq!(h.snapshot().quantile(0.0), 4);
    }

    #[test]
    fn cross_thread_merge_equals_single_histogram() {
        // N threads record into their own histograms; merging the
        // snapshots must equal one histogram that saw every sample.
        let reference = Histogram::new();
        let snapshots: Vec<HistogramSnapshot> = std::thread::scope(|scope| {
            (0u64..4)
                .map(|t| {
                    let reference = reference.clone();
                    scope.spawn(move || {
                        let mut rng = TestRng(0x9E37 + t);
                        let own = Histogram::new();
                        for _ in 0..2500 {
                            let v = rng.next() % 100_000;
                            own.record(v);
                            reference.record(v);
                        }
                        own.snapshot()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("recorder thread"))
                .collect()
        });
        let mut merged = HistogramSnapshot::default();
        for s in &snapshots {
            merged.merge(s);
        }
        assert_eq!(merged, reference.snapshot());
    }

    #[test]
    fn shared_handles_accumulate_concurrently() {
        let registry = Registry::new();
        let counter = registry.counter("ops_total", "Operations.", &[]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = registry.counter("ops_total", "Operations.", &[]);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 8000);
    }

    #[test]
    fn registry_distinguishes_label_sets() {
        let registry = Registry::new();
        registry
            .counter("hits_total", "Hits.", &[("policy", "lru")])
            .add(3);
        registry
            .counter("hits_total", "Hits.", &[("policy", "sieve")])
            .add(5);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.series_count(), 2);
        assert_eq!(
            snapshot.sample("hits_total", &[("policy", "lru")]),
            Some(&Sample::Counter(3))
        );
        assert_eq!(
            snapshot.sample("hits_total", &[("policy", "sieve")]),
            Some(&Sample::Counter(5))
        );
    }

    #[test]
    fn snapshot_merge_sums_counters_and_histograms() {
        let mut a = Snapshot::new();
        a.put_counter("reqs_total", "Requests.", &[("node", "a")], 7);
        a.put_counter("shared_total", "Shared.", &[], 1);
        let h1 = Histogram::new();
        h1.record(10);
        a.put_histogram("lat_us", "Latency.", &[], h1.snapshot());

        let mut b = Snapshot::new();
        b.put_counter("reqs_total", "Requests.", &[("node", "b")], 5);
        b.put_counter("shared_total", "Shared.", &[], 2);
        let h2 = Histogram::new();
        h2.record(300);
        b.put_histogram("lat_us", "Latency.", &[], h2.snapshot());

        a.merge(&b);
        assert_eq!(a.sample("shared_total", &[]), Some(&Sample::Counter(3)));
        assert_eq!(
            a.sample("reqs_total", &[("node", "b")]),
            Some(&Sample::Counter(5))
        );
        // A family's total adds over its label sets.
        assert_eq!(a.total("reqs_total"), Some(Sample::Counter(12)));
        assert_eq!(a.total("absent_total"), None);
        match a.sample("lat_us", &[]) {
            Some(Sample::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum, 310);
            }
            other => panic!("expected merged histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_exposition_golden() {
        // The full text format for a small registry: family ordering is
        // alphabetical, HELP/TYPE come once per family, label values are
        // escaped, histograms expand into cumulative buckets.
        let registry = Registry::new();
        registry
            .counter(
                "b_requests_total",
                "Requests by endpoint.",
                &[("endpoint", "/stats")],
            )
            .add(2);
        registry
            .counter(
                "b_requests_total",
                "Requests by endpoint.",
                &[("endpoint", "quote\"back\\slash\nnewline")],
            )
            .inc();
        registry
            .gauge("a_queue_depth", "Queued connections.", &[])
            .set(3);
        let h = registry.histogram(
            "c_latency_us",
            "Handler latency.",
            &[("endpoint", "/stats")],
        );
        h.record(1);
        h.record(3);
        h.record(5);
        let mut golden = String::new();
        golden.push_str("# HELP a_queue_depth Queued connections.\n");
        golden.push_str("# TYPE a_queue_depth gauge\n");
        golden.push_str("a_queue_depth 3\n");
        golden.push_str("# HELP b_requests_total Requests by endpoint.\n");
        golden.push_str("# TYPE b_requests_total counter\n");
        golden.push_str("b_requests_total{endpoint=\"/stats\"} 2\n");
        golden.push_str("b_requests_total{endpoint=\"quote\\\"back\\\\slash\\nnewline\"} 1\n");
        golden.push_str("# HELP c_latency_us Handler latency.\n");
        golden.push_str("# TYPE c_latency_us histogram\n");
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            // Observations 1, 3, 5 land in buckets 0, 2, 3.
            cumulative += [1u64, 0, 1, 1].get(i).copied().unwrap_or(0);
            golden.push_str(&format!(
                "c_latency_us_bucket{{endpoint=\"/stats\",le=\"{}\"}} {cumulative}\n",
                bucket_upper_bound(i)
            ));
        }
        golden.push_str("c_latency_us_bucket{endpoint=\"/stats\",le=\"+Inf\"} 3\n");
        golden.push_str("c_latency_us_sum{endpoint=\"/stats\"} 9\n");
        golden.push_str("c_latency_us_count{endpoint=\"/stats\"} 3\n");
        assert_eq!(registry.snapshot().render_prometheus(), golden);
    }

    #[test]
    fn gauge_values_format_cleanly() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-2.0), "-2");
        assert_eq!(fmt_f64(0.25), "0.25");
    }
}
