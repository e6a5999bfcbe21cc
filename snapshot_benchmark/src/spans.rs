//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! system's public functions — nothing inside the system is instrumented.
//! Each span carries its parent's id and the statement it belongs to; a
//! span's *self time* is its duration minus the part of its interval that
//! its children cover (overlapping children are not counted twice, and a
//! child reaching outside its parent is clipped to it).

use crate::json::{object, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifies a span within one [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The statement (request) this span belongs to.
    pub stmt: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; dumped as JSON when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, stmt: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, stmt, now, now)
    }

    /// Closes a span opened by [`Recorder::start`] and returns its duration.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now.max(span.start_ns);
        span.duration_ns()
    }

    /// Records a span with explicit bounds (for durations the system
    /// reports itself, such as per-operator times).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.start(name, parent, stmt);
        let out = f();
        self.end(id);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration_ns() - union_length(kids))
            .collect()
    }

    /// Self times grouped per `(statement, span name)`: spans of one name
    /// within one statement add up (e.g. two `Scan` operators).
    pub fn self_ns_by_stmt_and_name(&self) -> BTreeMap<(u64, &'static str), u64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry((span.stmt, span.name)).or_insert(0) += self_ns;
        }
        out
    }

    /// The dump format: one object per span,
    /// `{id, parent, stmt, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    object([
                        ("id".to_string(), Json::Num(s.id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("stmt".to_string(), Json::Num(s.stmt as f64)),
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Total length covered by a set of intervals (sorted in place).
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_of(rec: &Recorder, id: SpanId) -> u64 {
        rec.self_times_ns()[id]
    }

    #[test]
    fn nested_children_subtract_from_their_own_parent_only() {
        let mut rec = Recorder::new();
        let root = rec.record("root", None, 1, 0, 100);
        let mid = rec.record("mid", Some(root), 1, 10, 60);
        let leaf = rec.record("leaf", Some(mid), 1, 20, 30);
        assert_eq!(self_of(&rec, root), 50);
        assert_eq!(self_of(&rec, mid), 40);
        assert_eq!(self_of(&rec, leaf), 10);
    }

    #[test]
    fn siblings_add_up() {
        let mut rec = Recorder::new();
        let root = rec.record("root", None, 1, 0, 100);
        rec.record("a", Some(root), 1, 0, 25);
        rec.record("b", Some(root), 1, 50, 75);
        assert_eq!(self_of(&rec, root), 50);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let mut rec = Recorder::new();
        let root = rec.record("root", None, 1, 100, 200);
        rec.record("a", Some(root), 1, 110, 150);
        rec.record("b", Some(root), 1, 140, 170); // overlaps a by 10
        rec.record("c", Some(root), 1, 190, 260); // sticks out by 60
        rec.record("d", Some(root), 1, 10, 50); // entirely outside
                                                // covered: [110,170) + [190,200) = 70
        assert_eq!(self_of(&rec, root), 30);
    }

    #[test]
    fn zero_length_spans_are_harmless() {
        let mut rec = Recorder::new();
        let root = rec.record("root", None, 1, 5, 5);
        rec.record("kid", Some(root), 1, 5, 5);
        assert_eq!(self_of(&rec, root), 0);
        let other = rec.record("other", None, 2, 0, 10);
        rec.record("empty", Some(other), 2, 3, 3);
        assert_eq!(self_of(&rec, other), 10);
        // An end before the start is stored as zero-length, not negative.
        let odd = rec.record("odd", None, 3, 9, 4);
        assert_eq!(rec.get(odd).duration_ns(), 0);
    }

    #[test]
    fn start_end_and_grouping() {
        let mut rec = Recorder::new();
        let ((), root) = rec.time("stmt", None, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(rec.get(root).duration_ns() >= 2_000_000);
        rec.record(
            "Scan",
            Some(root),
            7,
            rec.get(root).start_ns,
            rec.get(root).start_ns + 10,
        );
        rec.record(
            "Scan",
            Some(root),
            7,
            rec.get(root).start_ns + 10,
            rec.get(root).start_ns + 30,
        );
        let grouped = rec.self_ns_by_stmt_and_name();
        assert_eq!(grouped[&(7, "Scan")], 30);
        let dumped = rec.to_json();
        assert_eq!(dumped.as_array().len(), 3);
        assert_eq!(
            dumped.as_array()[1].get("parent").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(dumped.as_array()[0].get("parent"), Some(&Json::Null));
    }
}
