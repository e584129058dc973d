//! Span-based tracing: a bounded per-request trace assembled from RAII
//! span guards, plus the process-wide slow-query ring.
//!
//! A trace is thread-local: [`trace_begin`] arms the current thread,
//! every [`span`] guard dropped while it is armed records itself, and
//! [`TraceGuard::finish`] collects the result.  A [`span`] on a thread
//! with no active trace does nothing beyond one thread-local check, so
//! instrumentation deep in the store costs (almost) nothing for
//! untraced callers — e.g. the WAL syncer thread or an unprofiled CLI
//! query.
//!
//! An armed trace that is then discarded (its guard dropped unfinished)
//! allocates nothing once its thread has warmed up: span attributes are
//! plain values ([`AttrValue`]) held inline in the guard, and the span
//! and stack buffers belong to the thread and are reused by its next
//! trace.  Only [`TraceGuard::finish`] builds an owned [`Trace`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per trace; further spans are counted, not stored.
pub const MAX_SPANS: usize = 256;

/// Attributes kept per span; further [`Span::attr`] calls are ignored.
pub const MAX_SPAN_ATTRS: usize = 4;

/// Finished traces a server's slow-query ring keeps.
pub const SLOW_LOG_CAPACITY: usize = 64;

/// A span attribute value: a count, a flag or a static label.  Rendered
/// (by [`fmt::Display`]) only when a kept trace is shown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// A count or size.
    U64(u64),
    /// A flag, shown as `true` / `false`.
    Bool(bool),
    /// A static label, e.g. a block format name.
    Str(&'static str),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => f.write_str(v),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

/// One closed span inside a [`Trace`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// This span's id (ids start at 1; 0 is the trace root itself).
    pub id: u32,
    /// The enclosing span's id, or 0 when opened directly under the root.
    pub parent: u32,
    /// Static span name, e.g. `"index_walk"`.
    pub name: &'static str,
    /// Microseconds from the start of the trace to the span opening.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Key/value attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// A finished bounded trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Root name — for a served request, the request target.
    pub name: String,
    /// Total wall time from [`trace_begin`] to [`TraceGuard::finish`].
    pub total_us: u64,
    /// Closed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped once the [`MAX_SPANS`] bound was hit.
    pub dropped_spans: u32,
}

impl Trace {
    /// The trace as an indented tree, children under their parents:
    ///
    /// ```text
    /// /window — 1234 µs total, 5 spans
    ///   index_walk 12 µs [cells=4]
    ///   decode 210 µs [bytes=1536]
    ///     pager_fetch 170 µs [hit=false]
    /// ```
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — {} µs total, {} spans{}",
            self.name,
            self.total_us,
            self.spans.len(),
            if self.dropped_spans > 0 {
                format!(" ({} dropped)", self.dropped_spans)
            } else {
                String::new()
            }
        );
        self.render_children(0, 1, &mut out);
        out
    }

    fn render_children(&self, parent: u32, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let mut children: Vec<&SpanRecord> =
            self.spans.iter().filter(|s| s.parent == parent).collect();
        children.sort_by_key(|s| s.start_us);
        for child in children {
            let _ = write!(
                out,
                "{}{} {} µs",
                "  ".repeat(depth),
                child.name,
                child.dur_us
            );
            if !child.attrs.is_empty() {
                let attrs: Vec<String> = child
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let _ = write!(out, " [{}]", attrs.join(","));
            }
            out.push('\n');
            self.render_children(child.id, depth + 1, out);
        }
    }
}

/// A span's attributes, held inline so that attaching one allocates
/// nothing.
type InlineAttrs = [Option<(&'static str, AttrValue)>; MAX_SPAN_ATTRS];

/// A closed span as the thread buffers it until the trace is kept or
/// discarded.
struct ClosedSpan {
    id: u32,
    parent: u32,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    attrs: InlineAttrs,
}

/// The current thread's trace state.  The buffers outlive each trace, so
/// a thread that has traced once reuses their capacity.
struct ThreadTrace {
    /// When the armed trace began; `None` while the thread is disarmed.
    started: Option<Instant>,
    /// Counts [`trace_begin`] calls, so a guard can tell whether a later
    /// trace replaced its own.
    generation: u64,
    next_id: u32,
    /// Open span ids, innermost last.
    stack: Vec<u32>,
    spans: Vec<ClosedSpan>,
    dropped: u32,
}

impl ThreadTrace {
    /// Disarms the thread, keeping the buffers' capacity.
    fn disarm(&mut self) {
        self.started = None;
        self.stack.clear();
        self.spans.clear();
        self.dropped = 0;
    }
}

thread_local! {
    static ACTIVE: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace {
            started: None,
            generation: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        })
    };
}

/// Arms tracing on the current thread and returns the guard that will
/// collect the trace.  Replaces any trace already active on the thread.
pub fn trace_begin() -> TraceGuard {
    let started = Instant::now();
    let generation = ACTIVE.with(|active| {
        let mut trace = active.borrow_mut();
        trace.disarm();
        trace.started = Some(started);
        trace.generation += 1;
        trace.next_id = 1;
        trace.generation
    });
    TraceGuard {
        started,
        generation,
    }
}

/// The handle to an in-progress trace; dropping it unfinished discards
/// the trace. Not `Send` — the trace lives in this thread's storage.
#[derive(Debug)]
pub struct TraceGuard {
    started: Instant,
    generation: u64,
}

impl TraceGuard {
    /// Microseconds since [`trace_begin`] — what the trace's total would
    /// be if it finished now, so a caller can decide whether to keep it
    /// before paying for [`TraceGuard::finish`].
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        instant_us(self.started.elapsed())
    }

    /// Disarms tracing on this thread and returns the collected trace
    /// under `name`.
    #[must_use]
    pub fn finish(self, name: impl Into<String>) -> Trace {
        let mut finished = Trace {
            name: name.into(),
            total_us: 0,
            spans: Vec::new(),
            dropped_spans: 0,
        };
        ACTIVE.with(|active| {
            let trace = active.borrow();
            // A nested trace_begin replaced ours: return an empty trace.
            if trace.generation != self.generation || trace.started.is_none() {
                return;
            }
            finished.total_us = self.elapsed_us();
            finished.dropped_spans = trace.dropped;
            finished.spans = trace
                .spans
                .iter()
                .map(|s| SpanRecord {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                    attrs: s.attrs.iter().flatten().copied().collect(),
                })
                .collect();
        });
        // Dropping `self` disarms the thread.
        finished
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|active| {
            let mut trace = active.borrow_mut();
            if trace.generation == self.generation {
                trace.disarm();
            }
        });
    }
}

fn instant_us(d: std::time::Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Opens a span on the current thread.  When no trace is active this is
/// a no-op guard whose construction costs one thread-local check.
pub fn span(name: &'static str) -> Span {
    let armed = ACTIVE.with(|active| {
        let mut trace = active.borrow_mut();
        let started = trace.started?;
        let id = trace.next_id;
        trace.next_id += 1;
        let parent = trace.stack.last().copied().unwrap_or(0);
        trace.stack.push(id);
        let now = Instant::now();
        Some(Armed {
            id,
            parent,
            start_us: instant_us(now.saturating_duration_since(started)),
            started: now,
        })
    });
    Span {
        name,
        armed,
        attrs: [None; MAX_SPAN_ATTRS],
    }
}

#[derive(Debug)]
struct Armed {
    id: u32,
    parent: u32,
    start_us: u64,
    started: Instant,
}

/// An RAII span guard: records itself into the thread's active trace on
/// drop.  Disarmed (free) when no trace was active at construction.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    armed: Option<Armed>,
    attrs: InlineAttrs,
}

impl Span {
    /// Attaches a key/value attribute (no-op on a disarmed span, and past
    /// [`MAX_SPAN_ATTRS`] attributes).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.armed.is_some() {
            if let Some(slot) = self.attrs.iter_mut().find(|slot| slot.is_none()) {
                *slot = Some((key, value.into()));
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(armed) = self.armed.take() else {
            return;
        };
        let record = ClosedSpan {
            id: armed.id,
            parent: armed.parent,
            name: self.name,
            start_us: armed.start_us,
            dur_us: instant_us(armed.started.elapsed()),
            attrs: self.attrs,
        };
        ACTIVE.with(|active| {
            let mut trace = active.borrow_mut();
            // The trace this span belongs to may already be finished (a
            // span outliving its TraceGuard); then there is nothing to
            // record into.
            if trace.started.is_none() {
                return;
            }
            // Spans are strictly nested per thread, so ours is on top;
            // being defensive about out-of-order drops keeps the stack
            // consistent anyway.
            if trace.stack.last() == Some(&armed.id) {
                trace.stack.pop();
            } else {
                trace.stack.retain(|&id| id != armed.id);
            }
            if trace.spans.len() < MAX_SPANS {
                trace.spans.push(record);
            } else {
                trace.dropped += 1;
            }
        });
    }
}

/// A bounded ring of finished traces — the store behind `/trace`.
pub struct SlowLog {
    capacity: usize,
    inner: Mutex<VecDeque<Trace>>,
}

impl SlowLog {
    /// An empty ring keeping at most `capacity` traces.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a trace, evicting the oldest past capacity.
    pub fn push(&self, trace: Trace) {
        let mut inner = self.inner.lock().expect("slow log poisoned");
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back(trace);
    }

    /// The retained traces, newest first.
    #[must_use]
    pub fn recent(&self) -> Vec<Trace> {
        let inner = self.inner.lock().expect("slow log poisoned");
        inner.iter().rev().cloned().collect()
    }

    /// Number of retained traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("slow log poisoned").len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_parenting_and_attrs() {
        let guard = trace_begin();
        {
            let _outer = span("handler");
            {
                let mut inner = span("index_walk");
                inner.attr("cells", 4u64);
                inner.attr("hit", true);
                inner.attr("format", "varint");
            }
            {
                let _decode = span("decode");
                let _fetch = span("pager_fetch");
            }
        }
        let trace = guard.finish("/window");
        assert_eq!(trace.name, "/window");
        assert_eq!(trace.spans.len(), 4);
        let by_name = |n: &str| {
            trace
                .spans
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("span {n} missing"))
        };
        let handler = by_name("handler");
        assert_eq!(handler.parent, 0);
        assert_eq!(by_name("index_walk").parent, handler.id);
        assert_eq!(
            by_name("index_walk").attrs,
            vec![
                ("cells", AttrValue::U64(4)),
                ("hit", AttrValue::Bool(true)),
                ("format", AttrValue::Str("varint")),
            ]
        );
        let decode = by_name("decode");
        assert_eq!(decode.parent, handler.id);
        assert_eq!(by_name("pager_fetch").parent, decode.id);
        let rendered = trace.render_text();
        assert!(rendered.contains("index_walk"));
        assert!(rendered.contains("[cells=4,hit=true,format=varint]"));
    }

    #[test]
    fn spans_without_a_trace_are_disarmed() {
        let mut s = span("orphan");
        s.attr("ignored", 1u64);
        drop(s);
        // Still disarmed: a later trace sees none of it.
        let guard = trace_begin();
        let trace = guard.finish("t");
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn traces_are_bounded() {
        let guard = trace_begin();
        for _ in 0..(MAX_SPANS + 10) {
            let _s = span("tick");
        }
        let trace = guard.finish("burst");
        assert_eq!(trace.spans.len(), MAX_SPANS);
        assert_eq!(trace.dropped_spans, 10);
    }

    #[test]
    fn dropping_an_unfinished_guard_disarms_the_thread() {
        drop(trace_begin());
        let guard = trace_begin();
        let _s = span("only");
        drop(_s);
        assert_eq!(guard.finish("fresh").spans.len(), 1);
    }

    #[test]
    fn a_replaced_trace_finishes_empty_and_leaves_the_new_one_armed() {
        let first = trace_begin();
        drop(span("early"));
        let second = trace_begin();
        drop(span("late"));
        let stale = first.finish("first");
        assert!(stale.spans.is_empty());
        assert_eq!(stale.total_us, 0);
        // Finishing the stale guard did not disarm the newer trace.
        drop(span("later"));
        let names: Vec<_> = second
            .finish("second")
            .spans
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["late", "later"]);
    }

    #[test]
    fn attributes_past_the_inline_bound_are_ignored() {
        let guard = trace_begin();
        {
            let mut s = span("busy");
            for i in 0..(MAX_SPAN_ATTRS as u64 + 2) {
                s.attr("n", i);
            }
        }
        let trace = guard.finish("t");
        assert_eq!(trace.spans[0].attrs.len(), MAX_SPAN_ATTRS);
    }

    #[test]
    fn slow_log_is_a_ring() {
        let log = SlowLog::new(2);
        for name in ["a", "b", "c"] {
            log.push(trace_begin().finish(name));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].name, "c");
        assert_eq!(recent[1].name, "b");
    }
}
