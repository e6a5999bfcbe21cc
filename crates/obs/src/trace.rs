//! Lightweight tracing spans with per-thread ring buffers.
//!
//! [`Span::enter`] is the only instrumentation call sites need: it returns
//! an RAII guard that records `(name, depth, duration, rows)` into a
//! bounded thread-local ring buffer when the guard drops. The switch
//! ([`set_tracing`]) sits beside the ring it gates, per thread, because
//! only the recording thread reads its spans back. When off, `Span::enter`
//! reads it and returns an inert guard without touching the clock, so
//! instrumentation left in hot paths costs one predictable branch.
//!
//! The `snapshot_db` shell brackets each statement with
//! [`reset_thread_trace`] / [`take_thread_trace`] (local sessions only; a
//! server refuses `.trace`); the latter assembles the ring into a
//! [`SpanTree`] (spans from worker threads of the parallel join land in
//! *their* threads' rings and are not part of the statement's tree — the
//! sequential spine is what the tree shows).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// Ring capacity per thread; the oldest records are dropped beyond this.
const RING_CAPACITY: usize = 4096;

/// Enable or disable span recording on the calling thread.
pub fn set_tracing(on: bool) {
    TRACE.with(|t| t.on.set(on));
}

/// One completed span, as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (a static label like `"execute"` or an operator name).
    pub name: &'static str,
    /// Enter order on this thread since the last reset (pre-order key).
    pub seq: u64,
    /// Nesting depth at enter time (0 = root).
    pub depth: u32,
    /// Duration, in nanoseconds (inclusive of children).
    pub dur_ns: u64,
    /// Row count annotation, if the span recorded one.
    pub rows: Option<u64>,
}

/// Per-thread trace state: the gate and the ring it gates. The scalar
/// fields live in `Cell`s so the enter-side hot path (gate read, seq/depth
/// bump) is plain loads and stores with no `RefCell` borrow-flag traffic;
/// only the ring push on drop borrows.
struct ThreadTrace {
    on: Cell<bool>,
    next_seq: Cell<u64>,
    depth: Cell<u32>,
    ring: RefCell<VecDeque<SpanRecord>>,
    dropped: Cell<u64>,
}

thread_local! {
    static TRACE: ThreadTrace = const {
        ThreadTrace {
            on: Cell::new(false),
            next_seq: Cell::new(0),
            depth: Cell::new(0),
            ring: RefCell::new(VecDeque::new()),
            dropped: Cell::new(0),
        }
    };
}

/// Clear this thread's ring buffer. Call at the start of the unit of work
/// (e.g. one SQL statement).
pub fn reset_thread_trace() {
    TRACE.with(|t| {
        t.next_seq.set(0);
        t.depth.set(0);
        t.ring.borrow_mut().clear();
        t.dropped.set(0);
    });
}

/// An RAII span guard; see [`Span::enter`].
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    seq: u64,
    depth: u32,
    rows: Option<u64>,
}

impl Span {
    /// Enter a span named `name`. When tracing is off on this thread this
    /// returns an inert guard after one thread-local load.
    pub fn enter(name: &'static str) -> Span {
        let Some((seq, depth)) = TRACE.with(|t| {
            t.on.get().then(|| {
                let seq = t.next_seq.get();
                t.next_seq.set(seq + 1);
                let depth = t.depth.get();
                t.depth.set(depth + 1);
                (seq, depth)
            })
        }) else {
            return Span { active: None };
        };
        Span {
            active: Some(ActiveSpan {
                name,
                start: Instant::now(),
                seq,
                depth,
                rows: None,
            }),
        }
    }

    /// Annotate the span with an output row count.
    pub fn record_rows(&mut self, rows: u64) {
        if let Some(a) = &mut self.active {
            a.rows = Some(rows);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        TRACE.with(|t| {
            t.depth.set(t.depth.get().saturating_sub(1));
            let mut ring = t.ring.borrow_mut();
            if ring.len() == RING_CAPACITY {
                ring.pop_front();
                t.dropped.set(t.dropped.get() + 1);
            }
            ring.push_back(SpanRecord {
                name: a.name,
                seq: a.seq,
                depth: a.depth,
                dur_ns,
                rows: a.rows,
            });
        });
    }
}

/// One node of an assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// Duration in nanoseconds (inclusive of children).
    pub dur_ns: u64,
    /// Row count annotation, if any.
    pub rows: Option<u64>,
    /// Child spans, in enter order.
    pub children: Vec<SpanNode>,
}

/// A per-query span tree assembled from one thread's ring buffer.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Top-level spans, in enter order.
    pub roots: Vec<SpanNode>,
    /// Records lost to the bounded ring (oldest-first eviction).
    pub dropped: u64,
}

impl SpanTree {
    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Render the tree as indented text, durations in milliseconds.
    pub fn render(&self) -> String {
        fn walk(out: &mut String, node: &SpanNode, depth: usize) {
            let _ = write!(
                out,
                "{:indent$}{} {:.3} ms",
                "",
                node.name,
                node.dur_ns as f64 / 1e6,
                indent = depth * 2
            );
            if let Some(rows) = node.rows {
                let _ = write!(out, " rows={rows}");
            }
            out.push('\n');
            for child in &node.children {
                walk(out, child, depth + 1);
            }
        }
        let mut out = String::new();
        for root in &self.roots {
            walk(&mut out, root, 0);
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} span records dropped)", self.dropped);
        }
        out
    }
}

/// Drain this thread's ring buffer into a [`SpanTree`] (and clear it).
pub fn take_thread_trace() -> SpanTree {
    let (records, dropped) = TRACE.with(|t| {
        let records: Vec<SpanRecord> = t.ring.borrow_mut().drain(..).collect();
        let dropped = t.dropped.get();
        t.dropped.set(0);
        (records, dropped)
    });
    SpanTree {
        roots: assemble(records),
        dropped,
    }
}

/// Build the nesting from completed records: sorting by `seq` recovers
/// pre-order; a record at depth `d` is a child of the most recent record
/// at depth `d - 1`.
fn assemble(mut records: Vec<SpanRecord>) -> Vec<SpanNode> {
    records.sort_by_key(|r| r.seq);
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<(u32, SpanNode)> = Vec::new();

    fn close(roots: &mut Vec<SpanNode>, stack: &mut Vec<(u32, SpanNode)>) {
        if let Some((_, node)) = stack.pop() {
            match stack.last_mut() {
                Some((_, parent)) => parent.children.push(node),
                None => roots.push(node),
            }
        }
    }

    for r in records {
        while stack.last().is_some_and(|(d, _)| *d >= r.depth) {
            close(&mut roots, &mut stack);
        }
        stack.push((
            r.depth,
            SpanNode {
                name: r.name,
                dur_ns: r.dur_ns,
                rows: r.rows,
                children: Vec::new(),
            },
        ));
    }
    while !stack.is_empty() {
        close(&mut roots, &mut stack);
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        set_tracing(false);
        reset_thread_trace();
        {
            let mut s = Span::enter("noop");
            assert!(s.active.is_none());
            s.record_rows(3);
        }
        assert!(take_thread_trace().is_empty());
    }

    #[test]
    fn spans_assemble_into_a_tree() {
        set_tracing(true);
        reset_thread_trace();
        {
            let _stmt = Span::enter("statement");
            {
                let _parse = Span::enter("parse");
            }
            {
                let mut exec = Span::enter("execute");
                exec.record_rows(42);
                {
                    let _scan = Span::enter("Scan");
                }
            }
        }
        set_tracing(false);
        let tree = take_thread_trace();
        assert_eq!(tree.dropped, 0);
        assert_eq!(tree.roots.len(), 1);
        let stmt = &tree.roots[0];
        assert_eq!(stmt.name, "statement");
        assert_eq!(stmt.children.len(), 2);
        assert_eq!(stmt.children[0].name, "parse");
        assert_eq!(stmt.children[1].name, "execute");
        assert_eq!(stmt.children[1].rows, Some(42));
        assert_eq!(stmt.children[1].children[0].name, "Scan");
        let text = tree.render();
        assert!(text.contains("statement"));
        assert!(text.contains("rows=42"));
        assert!(text.contains("  parse"));
    }

    #[test]
    fn sibling_order_is_enter_order() {
        set_tracing(true);
        reset_thread_trace();
        {
            let _root = Span::enter("root");
            for _ in 0..3 {
                let _child = Span::enter("child");
            }
        }
        set_tracing(false);
        let tree = take_thread_trace();
        assert_eq!(tree.roots[0].children.len(), 3);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        set_tracing(true);
        reset_thread_trace();
        {
            let _root = Span::enter("root");
            for _ in 0..(RING_CAPACITY + 10) {
                let _s = Span::enter("leaf");
            }
        }
        set_tracing(false);
        let tree = take_thread_trace();
        assert!(tree.dropped >= 10, "oldest records must be evicted");
        let total: usize = {
            fn count(n: &SpanNode) -> usize {
                1 + n.children.iter().map(count).sum::<usize>()
            }
            tree.roots.iter().map(count).sum()
        };
        assert!(total <= RING_CAPACITY);
    }
}
