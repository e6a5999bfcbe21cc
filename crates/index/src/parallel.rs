//! Parallel endpoint-sweep temporal join: elementary-interval slab
//! partitioning over the proven sequential kernel.
//!
//! The sequenced-join reduction makes the interval-overlap join the
//! dominant cost of every `SEQ VT` query, and the elementary-interval
//! decomposition underlying the paper's split/alignment operators gives a
//! natural disjoint partitioning for data-parallel execution: the distinct
//! interval endpoints of both inputs cut the time line into elementary
//! intervals, and any grouping of those into `P` contiguous *slabs*
//! partitions the endpoint domain. Each slab is handed to a scoped worker
//! thread that runs the ordinary [`try_sweep_join_presorted`] kernel over
//! the rows overlapping the slab.
//!
//! A pair of intervals whose overlap straddles a slab cut would be found
//! by both workers, so duplicates are suppressed by a *credit rule*: a
//! pair is emitted only by the slab containing the overlap's start
//! `max(lb, rb)`. Slabs partition the time line, so exactly one slab
//! contains that point, and both intervals of the pair overlap that slab
//! (each contains the overlap's start) — every overlapping pair is
//! emitted exactly once, making the parallel join bag-equivalent to the
//! sequential sweep by construction. The differential tests hold it to
//! that against the sequential routes and the point-wise oracle.

use crate::events::EventList;
use crate::join::try_sweep_join_presorted;
use storage::Row;

/// Counters describing one parallel join execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelJoinStats {
    /// Slabs the endpoint domain was partitioned into (1 = sequential).
    pub slabs: usize,
    /// Boundary-straddling pairs found in a slab other than the one the
    /// credit rule assigns them to, and therefore suppressed.
    pub suppressed: u64,
}

/// The distinct interval endpoints of both join sides, ascending — the
/// elementary-interval boundaries of the join's endpoint domain. Inputs
/// are row sequences (begin-sorted or not; only the multiset of endpoint
/// values matters). `O(n log n)`; prefer
/// [`elementary_boundaries_from_events`] when both sides carry prebuilt
/// event lists.
pub fn elementary_boundaries(
    left: &[&Row],
    (lts, lte): (usize, usize),
    right: &[&Row],
    (rts, rte): (usize, usize),
) -> Vec<i64> {
    let mut b: Vec<i64> = Vec::with_capacity(2 * (left.len() + right.len()));
    // lint:allow(cancellation) linear endpoint collection, no pair blowup
    for r in left {
        b.push(r.int(lts));
        b.push(r.int(lte));
    }
    // lint:allow(cancellation) linear endpoint collection, no pair blowup
    for r in right {
        b.push(r.int(rts));
        b.push(r.int(rte));
    }
    b.sort_unstable();
    b.dedup();
    b
}

/// [`elementary_boundaries`] from two prebuilt [`EventList`]s: the four
/// endpoint streams are already sorted, so the boundaries come out of
/// three linear merges — `O(n)`, no re-sort.
pub fn elementary_boundaries_from_events(l: &EventList, r: &EventList) -> Vec<i64> {
    let keys = |evs: &[(i64, u32)]| evs.iter().map(|&(k, _)| k).collect::<Vec<_>>();
    let lb = merge_dedup(&keys(l.by_begin()), &keys(l.by_end()));
    let rb = merge_dedup(&keys(r.by_begin()), &keys(r.by_end()));
    merge_dedup(&lb, &rb)
}

/// Linear merge of two ascending lists, deduplicated.
fn merge_dedup(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let push = |out: &mut Vec<i64>, v: i64| {
        if out.last() != Some(&v) {
            out.push(v);
        }
    };
    // lint:allow(cancellation) linear merge of already-materialized lists
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            push(&mut out, a[i]);
            i += 1;
        } else {
            push(&mut out, b[j]);
            j += 1;
        }
    }
    // lint:allow(cancellation) linear merge tail
    for &v in &a[i..] {
        push(&mut out, v);
    }
    // lint:allow(cancellation) linear merge tail
    for &v in &b[j..] {
        push(&mut out, v);
    }
    out
}

/// Picks up to `slabs - 1` interior cut points from the ascending
/// elementary-interval `boundaries`, spaced evenly *by boundary count* (so
/// endpoint-dense regions get proportionally more slabs than sparse ones
/// — the balance heuristic). Cuts are strictly increasing; slab `k`
/// covers `[cuts[k-1], cuts[k])` with the first and last slab unbounded.
/// Fewer cuts than requested come back when the domain has fewer distinct
/// endpoints than slabs (the `P > #endpoints` degenerate case).
pub fn choose_cuts(boundaries: &[i64], slabs: usize) -> Vec<i64> {
    if slabs <= 1 || boundaries.len() < 2 {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(slabs - 1);
    // lint:allow(cancellation) bounded by the requested slab count
    for i in 1..slabs {
        let idx = (i * boundaries.len() / slabs).min(boundaries.len() - 1);
        let c = boundaries[idx];
        // Skip degenerate cuts: a repeat produces an empty slab with no
        // possible overlap start, and the minimum boundary would make
        // slab 0 vacuous.
        if c != boundaries[0] && cuts.last() != Some(&c) {
            cuts.push(c);
        }
    }
    cuts
}

/// The parallel endpoint-sweep join over begin-sorted sides.
///
/// `cuts` are strictly increasing slab boundaries (see [`choose_cuts`]);
/// `cuts.len() + 1` slabs run on scoped worker threads (the calling
/// thread takes the first slab), each sweeping the rows overlapping its
/// slab with the sequential kernel and emitting only the pairs whose
/// overlap start lies inside the slab. `map` is applied to every
/// surviving pair in the worker (so per-pair work — row construction,
/// residual predicates — parallelizes too); `None` results are dropped.
/// Output order is slab-major (deterministic for fixed cuts).
///
/// With `cuts` empty this *is* the sequential sweep (no threads spawned).
///
/// `map` may return an error (e.g. a cooperative-cancellation check
/// tripping inside a slab worker), which aborts that slab's sweep
/// immediately and fails the whole join. All workers are scoped, so every
/// thread has finished before the first error is returned; with multiple
/// failing slabs the lowest slab's error wins (deterministic for fixed
/// cuts).
pub fn try_parallel_sweep_join_presorted<'a, R, E, F>(
    left: &[&'a Row],
    right: &[&'a Row],
    (lts, lte): (usize, usize),
    (rts, rte): (usize, usize),
    cuts: &[i64],
    map: F,
) -> Result<(Vec<R>, ParallelJoinStats), E>
where
    R: Send,
    E: Send,
    F: Fn(&'a Row, &'a Row) -> Result<Option<R>, E> + Sync,
{
    if cuts.is_empty() {
        let mut out = Vec::new();
        try_sweep_join_presorted(left, right, (lts, lte), (rts, rte), |l, r| {
            if let Some(v) = map(l, r)? {
                out.push(v);
            }
            Ok(())
        })?;
        return Ok((
            out,
            ParallelJoinStats {
                slabs: 1,
                suppressed: 0,
            },
        ));
    }
    debug_assert!(
        cuts.windows(2).all(|w| w[0] < w[1]),
        "slab cuts must be strictly increasing"
    );
    let slabs = cuts.len() + 1;
    let run_slab = |k: usize| -> Result<(Vec<R>, u64), E> {
        let lo = (k > 0).then(|| cuts[k - 1]);
        let hi = (k < cuts.len()).then(|| cuts[k]);
        let l_slab = slab_rows(left, (lts, lte), lo, hi);
        let r_slab = slab_rows(right, (rts, rte), lo, hi);
        let mut out = Vec::new();
        let mut suppressed = 0u64;
        try_sweep_join_presorted(&l_slab, &r_slab, (lts, lte), (rts, rte), |l, r| {
            // Credit rule: the overlap's start is below this slab exactly
            // when a lower slab already emitted the pair. (It cannot be
            // at or above `hi`: both begins are < `hi` by construction.)
            let start = l.int(lts).max(r.int(rts));
            if lo.is_some_and(|lo| start < lo) {
                suppressed += 1;
                return Ok(());
            }
            if let Some(v) = map(l, r)? {
                out.push(v);
            }
            Ok(())
        })?;
        Ok((out, suppressed))
    };
    let results: Vec<Result<(Vec<R>, u64), E>> = std::thread::scope(|scope| {
        let run_slab = &run_slab;
        let handles: Vec<_> = (1..slabs)
            .map(|k| scope.spawn(move || run_slab(k)))
            .collect();
        // The calling thread works slab 0 instead of idling on join().
        let first = run_slab(0);
        let mut all = Vec::with_capacity(slabs);
        all.push(first);
        all.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("slab worker panicked")),
        );
        all
    });
    let mut stats = ParallelJoinStats {
        slabs,
        suppressed: 0,
    };
    let mut out = Vec::new();
    // lint:allow(cancellation) bounded by slab count; workers already checked
    for r in results {
        let (v, s) = r?;
        out.extend(v);
        stats.suppressed += s;
    }
    Ok((out, stats))
}

/// The rows of a begin-sorted side whose interval overlaps the slab
/// `[lo, hi)` (`None` = unbounded): the begin-order prefix with
/// `begin < hi`, filtered to `end > lo` — still begin-sorted.
fn slab_rows<'a>(
    side: &[&'a Row],
    (ts, te): (usize, usize),
    lo: Option<i64>,
    hi: Option<i64>,
) -> Vec<&'a Row> {
    let prefix = match hi {
        Some(hi) => &side[..side.partition_point(|r| r.int(ts) < hi)],
        None => side,
    };
    match lo {
        Some(lo) => prefix.iter().copied().filter(|r| r.int(te) > lo).collect(),
        None => prefix.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::sweep_join;
    use storage::row;

    fn sequential_pairs(
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

    fn parallel_pairs(
        left: &[Row],
        right: &[Row],
        lcols: (usize, usize),
        rcols: (usize, usize),
        slabs: usize,
    ) -> (Vec<(Row, Row)>, ParallelJoinStats) {
        let mut l: Vec<&Row> = left.iter().collect();
        let mut r: Vec<&Row> = right.iter().collect();
        l.sort_by_key(|row| row.int(lcols.0));
        r.sort_by_key(|row| row.int(rcols.0));
        let cuts = choose_cuts(&elementary_boundaries(&l, lcols, &r, rcols), slabs);
        let joined: Result<_, std::convert::Infallible> =
            try_parallel_sweep_join_presorted(&l, &r, lcols, rcols, &cuts, |a, b| {
                Ok(Some((a.clone(), b.clone())))
            });
        let Ok((mut out, stats)) = joined;
        out.sort();
        (out, stats)
    }

    #[test]
    fn merge_dedup_merges_and_dedups() {
        assert_eq!(merge_dedup(&[1, 3, 3, 5], &[0, 3, 6]), vec![0, 1, 3, 5, 6]);
        assert_eq!(merge_dedup(&[], &[2, 2]), vec![2]);
        assert_eq!(merge_dedup(&[], &[]), Vec::<i64>::new());
    }

    #[test]
    fn boundaries_from_events_match_sorted_collect() {
        let rows = vec![row![1, 3, 10], row![2, 8, 16], row![3, 0, 4], row![4, 8, 9]];
        let refs: Vec<&Row> = rows.iter().collect();
        let ev = EventList::build(&rows, 1, 2);
        assert_eq!(
            elementary_boundaries_from_events(&ev, &ev),
            elementary_boundaries(&refs, (1, 2), &refs, (1, 2)),
        );
    }

    #[test]
    fn choose_cuts_handles_degenerate_domains() {
        assert!(choose_cuts(&[], 4).is_empty());
        assert!(choose_cuts(&[7], 4).is_empty(), "one endpoint, no cut");
        assert!(choose_cuts(&[3, 9], 1).is_empty(), "one slab, no cut");
        // More slabs than endpoints: cuts collapse, stay strictly
        // increasing, and never include the minimum.
        let cuts = choose_cuts(&[3, 9], 8);
        assert_eq!(cuts, vec![9]);
        let cuts = choose_cuts(&[0, 5, 9], 5);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        assert!(!cuts.contains(&0));
    }

    #[test]
    fn single_slab_equals_sequential() {
        let l = vec![row![1, 0, 10], row![2, 5, 7]];
        let r = vec![row![3, 6, 12]];
        let (got, stats) = parallel_pairs(&l, &r, (1, 2), (1, 2), 1);
        assert_eq!(got, sequential_pairs(&l, &r, (1, 2), (1, 2)));
        assert_eq!(stats.slabs, 1);
        assert_eq!(stats.suppressed, 0);
    }

    #[test]
    fn straddling_pairs_are_emitted_exactly_once() {
        // Every interval covers the whole domain: every pair overlaps in
        // every slab, so all the dedup pressure is on the credit rule.
        let l = vec![row![1, 0, 100], row![2, 0, 100], row![3, 0, 100]];
        let r = l.clone();
        for slabs in [1, 2, 3, 4, 8] {
            let (got, _) = parallel_pairs(&l, &r, (1, 2), (1, 2), slabs);
            assert_eq!(got.len(), 9, "{slabs} slabs");
            assert_eq!(got, sequential_pairs(&l, &r, (1, 2), (1, 2)));
        }
    }

    #[test]
    fn duplicates_multiply_like_the_sequential_sweep() {
        let l = vec![row![1, 0, 10], row![1, 0, 10]];
        let r = vec![row![2, 5, 6], row![2, 5, 6], row![2, 5, 6]];
        for slabs in [1, 2, 4, 16] {
            let (got, _) = parallel_pairs(&l, &r, (1, 2), (1, 2), slabs);
            assert_eq!(got.len(), 6, "{slabs} slabs");
        }
    }

    #[test]
    fn empty_inputs_and_empty_slabs() {
        let l: Vec<Row> = Vec::new();
        let r = vec![row![1, 0, 5]];
        let (got, _) = parallel_pairs(&l, &r, (1, 2), (1, 2), 4);
        assert!(got.is_empty());
        // Gappy data: slabs in the gap have no rows at all.
        let l = vec![row![1, 0, 2], row![2, 1000, 1002]];
        let (got, stats) = parallel_pairs(&l, &l, (1, 2), (1, 2), 4);
        assert_eq!(got, sequential_pairs(&l, &l, (1, 2), (1, 2)));
        assert!(stats.slabs >= 2);
    }

    #[test]
    fn try_variant_propagates_worker_errors_across_slab_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let l: Vec<Row> = (0..40).map(|k| row![k as i64, 0, 100]).collect();
        let refs: Vec<&Row> = l.iter().collect();
        for slabs in [1, 2, 4, 8] {
            let cuts = choose_cuts(&elementary_boundaries(&refs, (1, 2), &refs, (1, 2)), slabs);
            let pairs = AtomicU64::new(0);
            let err =
                try_parallel_sweep_join_presorted(&refs, &refs, (1, 2), (1, 2), &cuts, |a, b| {
                    if pairs.fetch_add(1, Ordering::Relaxed) >= 10 {
                        Err(format!("cancelled at {slabs}"))
                    } else {
                        Ok(Some((a.clone(), b.clone())))
                    }
                })
                .unwrap_err();
            assert_eq!(err, format!("cancelled at {slabs}"));
            // Each slab stops at its first error, so pair work is bounded
            // well below the 1600 the full join would consider.
            assert!(pairs.load(Ordering::Relaxed) < 10 + slabs as u64 + 1);
        }
        // And without errors the same kernel agrees with the sequential path.
        let (got, _) = parallel_pairs(&l, &l, (1, 2), (1, 2), 4);
        assert_eq!(got, sequential_pairs(&l, &l, (1, 2), (1, 2)));
    }

    #[test]
    fn agrees_with_sequential_on_pseudorandom_input_across_slab_counts() {
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut gen_side = |n: usize| -> Vec<Row> {
            (0..n)
                .map(|k| {
                    let b = (next() % 50) as i64;
                    let len = 1 + (next() % 20) as i64;
                    row![k as i64, b, b + len]
                })
                .collect()
        };
        let l = gen_side(150);
        let r = gen_side(110);
        let want = sequential_pairs(&l, &r, (1, 2), (1, 2));
        for slabs in [1, 2, 3, 4, 7, 8, 64] {
            let (got, stats) = parallel_pairs(&l, &r, (1, 2), (1, 2), slabs);
            assert_eq!(got, want, "{slabs} slabs");
            if slabs > 1 {
                assert!(stats.suppressed > 0, "straddlers exist at {slabs} slabs");
            }
        }
    }
}
