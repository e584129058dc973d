//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into a layer's public
//! functions; nothing inside the program is instrumented.  Each thread
//! records into its own [`Recorder`] (no locking on the hot path), spans
//! stay in memory, and [`Trace::write`] dumps them when the run ends.
//!
//! A span's self time is its duration minus the part of its interval its
//! children cover, overlapping children counted once.  Time inside a
//! thread's measured window that no root span covers is reported as
//! `unattributed`, never dropped.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans written out per thread and phase.
pub const WRITE_LIMIT: usize = 100_000;

/// One recorded span.  Times are nanoseconds since the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one request or stream.
    pub op: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records the spans of one thread.  A disabled recorder runs the wrapped
/// call and nothing else.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans `f` opens on the recorder it is handed
    /// become children of this one.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Closes the recorder over the measured window `[start_ns, end_ns]`.
    pub fn finish(self, thread: &'static str, window: (u64, u64)) -> ThreadTrace {
        ThreadTrace {
            thread,
            window,
            spans: self.spans,
        }
    }
}

/// The spans of one thread over its measured window.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    pub thread: &'static str,
    pub window: (u64, u64),
    pub spans: Vec<Span>,
}

/// Total length of the union of `intervals` (overlaps counted once).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Clips `(start, end)` to `window`; `None` when they do not meet.
fn clip((start, end): (u64, u64), window: (u64, u64)) -> Option<(u64, u64)> {
    let (s, e) = (start.max(window.0), end.min(window.1));
    (s < e).then_some((s, e))
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let window = (spans[parent].start_ns, spans[parent].end_ns);
            if let Some(iv) = clip((span.start_ns, span.end_ns), window) {
                children[parent].push(iv);
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| (span.end_ns - span.start_ns).saturating_sub(union_len(kids)))
        .collect()
}

/// Time inside `window` that no root span covers.
pub fn unattributed(spans: &[Span], window: (u64, u64)) -> u64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .filter_map(|s| clip((s.start_ns, s.end_ns), window))
        .collect();
    (window.1 - window.0).saturating_sub(union_len(&mut roots))
}

/// Per-name totals of one traced phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
}

/// Every thread's spans for one traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    pub fn push(&mut self, thread: ThreadTrace) {
        self.threads.push(thread);
    }

    /// Self time and call count per span name, over every thread.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for thread in &self.threads {
            for (span, self_ns) in thread.spans.iter().zip(self_times(&thread.spans)) {
                let entry = out.entry(span.name).or_default();
                entry.count += 1;
                entry.self_ns += self_ns;
            }
        }
        out
    }

    /// `(unattributed, measured)` nanoseconds summed over threads.
    pub fn unattributed(&self) -> (u64, u64) {
        self.threads.iter().fold((0, 0), |(u, m), t| {
            (
                u + unattributed(&t.spans, t.window),
                m + (t.window.1 - t.window.0),
            )
        })
    }

    /// Prints the self-time table and the `unattributed` line.
    pub fn print(&self, workload: &str, phase: &str) {
        let (unattributed_ns, measured_ns) = self.unattributed();
        let measured = measured_ns.max(1) as f64;
        for (name, totals) in self.totals() {
            println!(
                "span {workload} {phase} {name:<32} calls {:>8}  self {:>12.3} ms  share {:.4}",
                totals.count,
                totals.self_ns as f64 / 1e6,
                totals.self_ns as f64 / measured
            );
        }
        println!(
            "span {workload} {phase} {:<32} calls {:>8}  self {:>12.3} ms  share {:.4}",
            "unattributed",
            "-",
            unattributed_ns as f64 / 1e6,
            unattributed_ns as f64 / measured
        );
    }

    /// Appends the spans as tab-separated lines to `path`, at most
    /// [`WRITE_LIMIT`] per thread (the tables above cover every span).
    pub fn write(&self, path: &Path, phase: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for thread in &self.threads {
            for (i, s) in thread.spans.iter().enumerate().take(WRITE_LIMIT) {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{phase}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                    thread.thread, s.op, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            // Sticks out of its parent: only the inside part counts.
            span(Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30, 30, 40]);
    }

    #[test]
    fn uncovered_window_time_is_unattributed() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 20),
            span(None, 150, 160),
        ];
        assert_eq!(unattributed(&spans, (0, 200)), 90);
        // Roots outside the window do not count.
        assert_eq!(unattributed(&spans, (120, 140)), 20);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let origin = Instant::now();
        let mut rec = Recorder::new(true, origin);
        let v = rec.span("outer", 1, |rec| rec.span("inner", 1, |_| 7));
        assert_eq!(v, 7);
        let trace = rec.finish("main", (0, u64::MAX));
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert!(trace.spans[0].start_ns <= trace.spans[1].start_ns);
        assert!(trace.spans[1].end_ns <= trace.spans[0].end_ns);

        let mut off = Recorder::new(false, origin);
        assert_eq!(off.span("outer", 1, |_| 3), 3);
        assert!(off.finish("main", (0, 1)).spans.is_empty());
    }

    #[test]
    fn union_of_intervals() {
        assert_eq!(union_len(&mut [(5, 10), (0, 3), (2, 4), (10, 12)]), 11);
        assert_eq!(union_len(&mut []), 0);
    }
}
