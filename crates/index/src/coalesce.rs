//! Coalescing accelerator: precomputed per-group endpoint events.
//!
//! Multiset coalescing (paper Definition 8.2) orders rows so that
//! value-equivalent ones are adjacent, sorts each such run's interval
//! endpoints, and emits maximal constant-multiplicity segments
//! ([`emit_coalesced`] — the one endpoint sweep `engine::coalesce` runs
//! too). The ordering and the endpoint sort dominate; both depend only on
//! the stored rows, not on the query. A [`CoalesceIndex`] performs them
//! once per table version — on the first coalesce that asks for it
//! ([`crate::TableIndex::coalesce`]) — so every later coalesce of that
//! version is a linear emission pass over presorted events.

use storage::{Row, Value};

/// One value-equivalence group: the data-column key and its `(t, ±1)`
/// endpoint events, sorted by `(t, delta)`.
type GroupEvents = (Vec<Value>, Vec<(i64, i64)>);

/// Per-group sorted endpoint events of a period table.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalesceIndex {
    /// Groups sorted by key for deterministic emission.
    groups: Vec<GroupEvents>,
    rows: usize,
}

impl CoalesceIndex {
    /// Builds the accelerator. `rows` must carry the period in the last two
    /// (integer) columns; everything before is the value-equivalence key.
    pub fn build(rows: &[Row], arity: usize) -> CoalesceIndex {
        assert!(arity >= 2, "period rows need the two period columns");
        let data_cols = arity - 2;
        // Row order is (key, begin, end): one sort makes every
        // value-equivalence group a contiguous run, runs ascending by key.
        let mut sorted: Vec<&Row> = rows.iter().collect();
        sorted.sort_unstable();
        let groups = sorted
            .chunk_by(|a, b| a.values()[..data_cols] == b.values()[..data_cols])
            .map(|run| {
                let mut events = Vec::with_capacity(run.len() * 2);
                for r in run {
                    debug_assert_eq!(r.arity(), arity);
                    events.push((r.int(data_cols), 1));
                    events.push((r.int(data_cols + 1), -1));
                }
                events.sort_unstable();
                (run[0].values()[..data_cols].to_vec(), events)
            })
            .collect();
        CoalesceIndex {
            groups,
            rows: rows.len(),
        }
    }

    /// Number of rows the accelerator was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct value-equivalence groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Emits the coalesced multiset — row for row what
    /// `engine::coalesce::coalesce_rows` returns on the same input (groups
    /// ascend by key and a group's segments by time, which is the canonical
    /// row order), without re-grouping or re-sorting.
    pub fn coalesced_rows(&self) -> Vec<Row> {
        let mut out: Vec<Row> = Vec::with_capacity(self.rows);
        for (key, events) in &self.groups {
            emit_coalesced(key, events, &mut out);
        }
        out
    }
}

/// The coalescing sweep over one value-equivalence group: `events` are the
/// group's `(t, ±1)` interval endpoints in ascending `t` order; for every
/// maximal interval of constant multiplicity `m > 0` pushes `m` copies of
/// `key ++ [b, e]`, in time order.
pub fn emit_coalesced(key: &[Value], events: &[(i64, i64)], out: &mut Vec<Row>) {
    let mut depth: i64 = 0;
    let mut seg_start: i64 = 0;
    let mut i = 0usize;
    while i < events.len() {
        let t = events[i].0;
        let mut delta = 0;
        while i < events.len() && events[i].0 == t {
            delta += events[i].1;
            i += 1;
        }
        if delta == 0 {
            continue; // equal opens and closes: multiplicity unchanged
        }
        if depth > 0 {
            // Close the maximal segment [seg_start, t) at depth `depth`.
            let mut values = Vec::with_capacity(key.len() + 2);
            values.extend_from_slice(key);
            values.push(Value::Int(seg_start));
            values.push(Value::Int(t));
            out.extend(std::iter::repeat_n(Row::new(values), depth as usize));
        }
        depth += delta;
        seg_start = t;
    }
    debug_assert_eq!(depth, 0, "unbalanced interval events");
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    #[test]
    fn example_5_3_multiset_coalescing() {
        let rows = vec![row![30, 3, 13], row![30, 3, 10]];
        let idx = CoalesceIndex::build(&rows, 3);
        assert_eq!(idx.rows(), 2);
        assert_eq!(idx.group_count(), 1);
        assert_eq!(
            idx.coalesced_rows(),
            vec![row![30, 3, 10], row![30, 3, 10], row![30, 10, 13]]
        );
    }

    #[test]
    fn multiple_groups_sorted_output() {
        let rows = vec![
            row!["b", 5, 9],
            row!["a", 1, 5],
            row!["a", 3, 8],
            row!["b", 2, 9],
        ];
        let idx = CoalesceIndex::build(&rows, 3);
        assert_eq!(idx.group_count(), 2);
        let out = idx.coalesced_rows();
        assert!(out.is_sorted(), "output is canonically sorted");
    }

    #[test]
    fn empty_input() {
        let idx = CoalesceIndex::build(&[], 3);
        assert!(idx.coalesced_rows().is_empty());
    }
}
