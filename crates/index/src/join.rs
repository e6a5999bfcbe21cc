//! Sort-merge temporal join: an endpoint sweep over two period relations.
//!
//! The classic plane-sweep overlap join (Piatov et al. / Bouros &
//! Mamoulis): process rows of both sides in ascending begin order, keep an
//! *active set* per side (rows whose interval is still open), and emit a
//! pair exactly when the later-starting row is inserted. Every emitted pair
//! overlaps, every overlapping pair is emitted exactly once, and no
//! non-overlapping pair is ever inspected:
//! `O(n log n + m log m + |output|)` — asymptotically sort-merge, unlike the
//! nested-loop overlap test of the naive path.
//!
//! When both inputs carry an [`crate::EventList`] (i.e. they are indexed
//! base tables), the `O(n log n)` sort is skipped entirely by handing the
//! precomputed begin order to [`sweep_join_presorted`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use storage::Row;

/// Sweeps two sides already sorted by interval begin.
///
/// `left`/`right` are the row sequences in ascending begin order;
/// `lts`/`lte` and `rts`/`rte` are the period column positions in each
/// side's schema. `emit` receives every overlapping pair exactly once
/// (left row first).
pub fn sweep_join_presorted<'a>(
    left: &[&'a Row],
    right: &[&'a Row],
    lcols: (usize, usize),
    rcols: (usize, usize),
    mut emit: impl FnMut(&'a Row, &'a Row),
) {
    let infallible: Result<(), std::convert::Infallible> =
        try_sweep_join_presorted(left, right, lcols, rcols, |l, r| {
            emit(l, r);
            Ok(())
        });
    let Ok(()) = infallible;
}

/// The fallible form of [`sweep_join_presorted`]: `emit` may return an
/// error (e.g. a cooperative-cancellation check tripping), which aborts
/// the sweep immediately and is returned to the caller.
pub fn try_sweep_join_presorted<'a, E>(
    left: &[&'a Row],
    right: &[&'a Row],
    (lts, lte): (usize, usize),
    (rts, rte): (usize, usize),
    mut emit: impl FnMut(&'a Row, &'a Row) -> Result<(), E>,
) -> Result<(), E> {
    // Active sets as min-heaps on end: after purging entries with
    // `end <= t`, everything remaining is alive at t, so pair enumeration
    // can walk the raw heap storage without order concerns.
    let mut active_l: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
    let mut active_r: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();

    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() || j < right.len() {
        // Take the side with the smaller next begin; ties go left so the
        // pair is emitted once, at the right row's insertion.
        let take_left = match (left.get(i), right.get(j)) {
            (Some(l), Some(r)) => l.int(lts) <= r.int(rts),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_left {
            let l = left[i];
            let t = l.int(lts);
            // lint:allow(cancellation) amortized: one pop per insertion
            while let Some(&Reverse((e, _))) = active_r.peek() {
                if e > t {
                    break;
                }
                active_r.pop();
            }
            for &Reverse((_, rid)) in active_r.iter() {
                emit(l, right[rid as usize])?;
            }
            active_l.push(Reverse((l.int(lte), i as u32)));
            i += 1;
        } else {
            let r = right[j];
            let t = r.int(rts);
            // lint:allow(cancellation) amortized: one pop per insertion
            while let Some(&Reverse((e, _))) = active_l.peek() {
                if e > t {
                    break;
                }
                active_l.pop();
            }
            for &Reverse((_, lid)) in active_l.iter() {
                emit(left[lid as usize], r)?;
            }
            active_r.push(Reverse((r.int(rte), j as u32)));
            j += 1;
        }
    }
    Ok(())
}

/// Sweeps two unsorted sides: sorts both by begin, then runs
/// [`sweep_join_presorted`] — the unit tests' driver.
#[cfg(test)]
pub(crate) fn sweep_join<'a>(
    left: &'a [Row],
    right: &'a [Row],
    (lts, lte): (usize, usize),
    (rts, rte): (usize, usize),
    emit: impl FnMut(&'a Row, &'a Row),
) {
    let mut l: Vec<&Row> = left.iter().collect();
    let mut r: Vec<&Row> = right.iter().collect();
    l.sort_by_key(|row| row.int(lts));
    r.sort_by_key(|row| row.int(rts));
    sweep_join_presorted(&l, &r, (lts, lte), (rts, rte), emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    fn nested_loop_pairs(
        left: &[Row],
        right: &[Row],
        (lts, lte): (usize, usize),
        (rts, rte): (usize, usize),
    ) -> Vec<(Row, Row)> {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                if l.int(lts) < r.int(rte) && r.int(rts) < l.int(lte) {
                    out.push((l.clone(), r.clone()));
                }
            }
        }
        out.sort();
        out
    }

    fn sweep_pairs(
        left: &[Row],
        right: &[Row],
        lcols: (usize, usize),
        rcols: (usize, usize),
    ) -> Vec<(Row, Row)> {
        let mut out = Vec::new();
        sweep_join(left, right, lcols, rcols, |l, r| {
            out.push((l.clone(), r.clone()));
        });
        out.sort();
        out
    }

    #[test]
    fn paper_works_self_join() {
        let rows = vec![
            row!["Ann", 3, 10],
            row!["Joe", 8, 16],
            row!["Sam", 8, 16],
            row!["Ann", 18, 20],
        ];
        let got = sweep_pairs(&rows, &rows, (1, 2), (1, 2));
        let want = nested_loop_pairs(&rows, &rows, (1, 2), (1, 2));
        assert_eq!(got, want);
        // Every row overlaps itself, so at least n pairs.
        assert!(got.len() >= rows.len());
    }

    #[test]
    fn disjoint_sides_produce_nothing() {
        let l = vec![row!["a", 0, 5]];
        let r = vec![row!["b", 5, 9]];
        assert_eq!(sweep_pairs(&l, &r, (1, 2), (1, 2)), vec![]);
    }

    #[test]
    fn touching_intervals_excluded_exactly() {
        // [0,5) and [4,6) overlap; [0,5) and [5,9) do not (half-open).
        let l = vec![row!["l", 0, 5]];
        let r = vec![row!["a", 4, 6], row!["b", 5, 9]];
        let got = sweep_pairs(&l, &r, (1, 2), (1, 2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, row!["a", 4, 6]);
    }

    #[test]
    fn duplicates_multiply() {
        let l = vec![row!["x", 0, 10], row!["x", 0, 10]];
        let r = vec![row!["y", 5, 6], row!["y", 5, 6], row!["y", 5, 6]];
        assert_eq!(sweep_pairs(&l, &r, (1, 2), (1, 2)).len(), 6);
    }

    #[test]
    fn agrees_with_nested_loop_on_pseudorandom_input() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut gen_side = |n: usize| -> Vec<Row> {
            (0..n)
                .map(|k| {
                    let b = (next() % 60) as i64;
                    let len = 1 + (next() % 12) as i64;
                    row![k as i64, b, b + len]
                })
                .collect()
        };
        let l = gen_side(120);
        let r = gen_side(90);
        assert_eq!(
            sweep_pairs(&l, &r, (1, 2), (1, 2)),
            nested_loop_pairs(&l, &r, (1, 2), (1, 2))
        );
    }

    #[test]
    fn try_sweep_aborts_on_first_error() {
        let rows = [row!["a", 0, 10], row!["b", 1, 10], row!["c", 2, 10]];
        let refs: Vec<&Row> = rows.iter().collect();
        let mut emitted = 0;
        let err = try_sweep_join_presorted(&refs, &refs, (1, 2), (1, 2), |_, _| {
            emitted += 1;
            if emitted == 2 {
                Err("stop".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "stop");
        assert_eq!(emitted, 2, "no pairs inspected after the error");
    }

    #[test]
    fn different_period_columns_per_side() {
        let l = vec![row![1, 2, "pad", 9]]; // period (1, 3) = [2, 9)
        let r = vec![row![5, 8, 10]]; // period (1, 2) = [8, 10)
        let mut n = 0;
        sweep_join(&l, &r, (1, 3), (1, 2), |_, _| n += 1);
        assert_eq!(n, 1);
    }
}
