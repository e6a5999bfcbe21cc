//! Multiset temporal coalescing (paper Sections 8–9).
//!
//! The coalesce operator `C` (Definition 8.2) brings a `PERIODENC`-encoded
//! relation into the unique normal form of N-coalescing: for every group of
//! value-equivalent rows it emits, per maximal interval over which the
//! multiplicity is constant, exactly that multiplicity of duplicate rows.
//!
//! The algorithm mirrors the paper's analytic-window SQL implementation
//! (Section 9, after [Zhou et al.]) as one sorted pass — the shape
//! [`crate::temporal`] shares: order the rows once so that value-equivalent
//! ones form contiguous runs, then per run count open intervals per
//! endpoint (+1 at begin, −1 at end) and emit maximal constant segments.
//! Row order *is* the canonical output order (key, then begin), so the one
//! sort also settles the encoding's row order, and a run whose intervals
//! neither meet nor overlap — nearly every row of a join result (the
//! fused operators never reach here) — is already in normal form: its rows
//! move to the output untouched. `O(n log n)` overall.

use crate::exec::CANCEL_CHECK_INTERVAL;
use std::convert::Infallible;
use storage::Row;

/// Counts the input rows a normalisation kernel has taken up and polls the
/// statement's cancellation check once per [`CANCEL_CHECK_INTERVAL`] of
/// them.
pub(crate) struct Poll<C> {
    pub(crate) check: C,
    /// Rows counted so far (start at 0).
    pub(crate) rows: u64,
}

impl<E, C: FnMut() -> Result<(), E>> Poll<C> {
    /// `n` more input rows are being processed.
    pub(crate) fn check(&mut self, n: usize) -> Result<(), E> {
        let due = self.rows / CANCEL_CHECK_INTERVAL;
        self.rows += n as u64;
        if self.rows / CANCEL_CHECK_INTERVAL != due {
            (self.check)()?;
        }
        Ok(())
    }
}

/// The cancellation check of a caller outside any statement: never fails.
pub fn never() -> Result<(), Infallible> {
    Ok(())
}

/// Coalesces a multiset of period rows.
///
/// `rows` must carry the period in the last two (integer) columns; data
/// columns are everything before. The output is canonically ordered (sorted
/// rows), making the encoding unique per Definition 4.5.
pub fn coalesce_rows(rows: &[Row], arity: usize) -> Vec<Row> {
    match try_coalesce_rows(rows.to_vec(), arity, never) {
        Ok(rows) => rows,
        Err(never) => match never {},
    }
}

/// [`coalesce_rows`] over rows the caller gives up, polling `check` once
/// per 1 024 input rows; its error aborts the pass.
pub fn try_coalesce_rows<E>(
    mut rows: Vec<Row>,
    arity: usize,
    check: impl FnMut() -> Result<(), E>,
) -> Result<Vec<Row>, E> {
    assert!(
        arity >= 2,
        "period rows need at least the two period columns"
    );
    let (ts, te) = (arity - 2, arity - 1);
    let mut poll = Poll { check, rows: 0 };
    rows.sort_unstable();
    let mut out: Vec<Row> = Vec::with_capacity(rows.len());
    let mut events: Vec<(i64, i64)> = Vec::new();
    for run in rows.chunk_by_mut(|a, b| a.values()[..ts] == b.values()[..ts]) {
        poll.check(run.len())?;
        // Begin-ordered, non-empty, and each interval ends before the next
        // begins: nothing to merge or split.
        if run.iter().all(|r| r.int(ts) < r.int(te))
            && run.windows(2).all(|w| w[0].int(te) < w[1].int(ts))
        {
            out.extend(run.iter_mut().map(std::mem::take));
            continue;
        }
        events.clear();
        for r in run.iter() {
            events.push((r.int(ts), 1));
            events.push((r.int(te), -1));
        }
        events.sort_unstable();
        index::coalesce::emit_coalesced(&run[0].values()[..ts], &events, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    #[test]
    fn example_5_3_multiset_coalescing() {
        // S = {(30k,[3,13)), (30k,[3,10))}  ==>  30k×2 on [3,10), 30k×1 on [10,13)
        let rows = vec![row![30, 3, 13], row![30, 3, 10]];
        let out = coalesce_rows(&rows, 3);
        assert_eq!(
            out,
            vec![row![30, 3, 10], row![30, 3, 10], row![30, 10, 13],]
        );
    }

    #[test]
    fn merges_adjacent_equal_multiplicity() {
        // [1,5) and [5,9) with equal multiplicity merge into [1,9).
        let rows = vec![row!["a", 1, 5], row!["a", 5, 9]];
        assert_eq!(coalesce_rows(&rows, 3), vec![row!["a", 1, 9]]);
    }

    #[test]
    fn distinct_values_do_not_merge() {
        let rows = vec![row!["a", 1, 5], row!["b", 5, 9]];
        let out = coalesce_rows(&rows, 3);
        assert_eq!(out, vec![row!["a", 1, 5], row!["b", 5, 9]]);
    }

    #[test]
    fn idempotent() {
        let rows = vec![
            row!["x", 0, 10],
            row!["x", 5, 15],
            row!["x", 5, 15],
            row!["y", 2, 4],
        ];
        let once = coalesce_rows(&rows, 3);
        let twice = coalesce_rows(&once, 3);
        assert_eq!(once, twice);
    }

    #[test]
    fn unique_encoding_of_equivalent_inputs() {
        // Same temporal content presented two ways.
        let a = vec![row!["x", 0, 10]];
        let b = vec![row!["x", 0, 6], row!["x", 6, 10]];
        assert_eq!(coalesce_rows(&a, 3), coalesce_rows(&b, 3));
    }

    #[test]
    fn figure_1b_shape_counts() {
        // works SP rows: Ann [3,10), Sam [8,16), Ann [18,20) — projecting to
        // skill only, coalescing yields the multiplicity profile of Π_skill.
        let rows = vec![row!["SP", 3, 10], row!["SP", 8, 16], row!["SP", 18, 20]];
        let out = coalesce_rows(&rows, 3);
        assert_eq!(
            out,
            vec![
                row!["SP", 3, 8],
                row!["SP", 8, 10],
                row!["SP", 8, 10],
                row!["SP", 10, 16],
                row!["SP", 18, 20],
            ]
        );
    }

    #[test]
    fn empty_intervals_vanish() {
        let rows = vec![row!["a", 4, 4], row!["b", 1, 3], row!["b", 6, 6]];
        assert_eq!(coalesce_rows(&rows, 3), vec![row!["b", 1, 3]]);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce_rows(&[], 3).is_empty());
    }

    #[test]
    fn equal_open_close_at_same_point_does_not_split() {
        // [0,5) and [5,5+5): one closes exactly where another opens with the
        // same multiplicity — stays merged ([0,10) ×1).
        let rows = vec![row!["k", 0, 5], row!["k", 5, 10]];
        assert_eq!(coalesce_rows(&rows, 3), vec![row!["k", 0, 10]]);
    }

    /// Reference implementation: per-point multiplicity counting.
    fn pointwise(rows: &[Row], arity: usize, horizon: i64) -> Vec<(Vec<storage::Value>, i64, i64)> {
        let data = arity - 2;
        let mut acc = Vec::new();
        let mut keys: Vec<Vec<storage::Value>> =
            rows.iter().map(|r| r.values()[..data].to_vec()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            for t in 0..horizon {
                let m = rows
                    .iter()
                    .filter(|r| {
                        r.values()[..data] == key[..] && r.int(data) <= t && t < r.int(data + 1)
                    })
                    .count() as i64;
                if m > 0 {
                    acc.push((key.clone(), t, m));
                }
            }
        }
        acc
    }

    #[test]
    fn agrees_with_pointwise_reference() {
        use rand_like::*;
        // Deterministic pseudo-random rows (no rand dependency in engine).
        let mut state = 42u64;
        let mut rows = Vec::new();
        for _ in 0..200 {
            let v = (next(&mut state) % 3) as i64;
            let b = (next(&mut state) % 20) as i64;
            let len = 1 + (next(&mut state) % 8) as i64;
            rows.push(row![v, b, b + len]);
        }
        let out = coalesce_rows(&rows, 3);
        // Compare point-wise multiplicity of input and output.
        assert_eq!(pointwise(&rows, 3, 40), pointwise(&out, 3, 40));
        // Output must be normal form: per key, intervals disjoint and
        // adjacent segments have different multiplicities.
        let mut per_key: std::collections::BTreeMap<Vec<storage::Value>, Vec<(i64, i64, i64)>> =
            Default::default();
        for r in &out {
            let key = r.values()[..1].to_vec();
            let entry = per_key.entry(key).or_default();
            if let Some(last) = entry.last_mut() {
                if last.0 == r.int(1) && last.1 == r.int(2) {
                    last.2 += 1;
                    continue;
                }
            }
            entry.push((r.int(1), r.int(2), 1));
        }
        for (_, segs) in per_key {
            for w in segs.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping output segments");
                if w[0].1 == w[1].0 {
                    assert_ne!(w[0].2, w[1].2, "adjacent equal-multiplicity segments");
                }
            }
        }
    }

    mod rand_like {
        /// xorshift64* — deterministic pseudo-random for tests.
        pub fn next(state: &mut u64) -> u64 {
            let mut x = *state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            *state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }
}
