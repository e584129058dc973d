//! # traj-obs — std-only observability for the trajsimp workspace
//!
//! The monitoring layer every other crate threads through: a lock-light
//! **metrics registry** (atomic counters, gauges and power-of-two-bucket
//! histograms with label support), a **Prometheus text exposition**
//! encoder, and **span-based tracing** with a global slow-query ring.
//! Everything is `std`-only — no external crates — and every primitive is
//! cheap enough for hot paths:
//!
//! * counters, gauges and histogram recording are single relaxed atomic
//!   operations on pre-registered handles (the registry mutex is only
//!   taken at registration and snapshot time);
//! * a [`span`] on a thread with no active trace is one thread-local
//!   check — instrumentation in the store stays disarmed unless the
//!   request above it opened a trace;
//! * spans under a trace that is then discarded allocate nothing:
//!   attributes are inline [`AttrValue`]s, and the span buffers belong to
//!   the thread and are reused by its next trace.
//!
//! ## Metrics
//!
//! A [`Registry`] hands out clonable handles keyed by `(name, labels)`;
//! the same key always returns the same underlying atomic, so a series
//! can be bumped from many threads without coordination.  Histograms use
//! fixed power-of-two buckets (`(2^(i-1), 2^i]`), which makes snapshots
//! mergeable across threads — and later across nodes — by plain bucket
//! addition, with deterministic p50/p90/p99 extraction at bucket
//! resolution.  [`Snapshot`] is the scrape-time form: registry snapshots
//! merge into it, scrape-only gauges append to it, and
//! [`Snapshot::render_prometheus`] emits the classic text format with
//! stable ordering.
//!
//! ```
//! use traj_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total", "Cache hits.", &[("policy", "lru")]);
//! hits.inc();
//! let text = registry.snapshot().render_prometheus();
//! assert!(text.contains("cache_hits_total{policy=\"lru\"} 1"));
//! ```
//!
//! ## Tracing
//!
//! [`trace_begin`] opens a bounded per-request trace on the current
//! thread; every [`span`] guard dropped while it is active records
//! `(name, parent, start, duration, attrs)` into it.  The finished
//! [`Trace`] can be rendered as an indented tree or pushed into a
//! [`SlowLog`] ring (each server owns one) for retrieval over `/trace`.
//! The guard reports [`TraceGuard::elapsed_us`] first, so a caller
//! keeping only slow traces builds the owned [`Trace`] (and its name)
//! only for those.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Sample, SampleKind, Snapshot, BUCKETS,
};
pub use trace::{span, trace_begin, AttrValue, SlowLog, Span, SpanRecord, Trace, TraceGuard};
