//! Fused temporal aggregation and bag difference (paper Section 9).
//!
//! The naive rewrites of Figure 4 express snapshot aggregation and snapshot
//! `EXCEPT ALL` by materializing the split operator's output and then
//! applying ordinary hash aggregation / bag difference. The paper found it
//! "most effective to pre-aggregate the input before splitting and then
//! compute the final aggregation results during the split step": that fused
//! strategy is what these operators implement, in the one sorted pass
//! [`crate::coalesce`] is built on — order row references once by group
//! key, walk the contiguous runs, and per run sweep the endpoint events
//! through the elementary segments between them, adding each row's
//! contribution at its begin and removing it at its end. A segment that
//! meets the previous one with equal values extends it: the output is the
//! coalesced encoding in canonical row order, and `algebra::Plan::coalesce`
//! absorbs a coalesce above. The unfused path (`Aggregate`/`ExceptAll` over
//! `Split`) remains for the paper's ablation (`paper_tables ablation`).
//!
//! The aggregate reads borrowed rows or, over a join, the matched pairs
//! themselves through the join's `output`: no join row is ever built. The
//! difference sorts each side, which arrives nearly sorted, adaptively (as
//! [`crate::coalesce`] does) and merges the two in one pass.

use crate::coalesce::{sort_nearly_sorted, Poll};
use crate::eval::{eval_expr, Columns, Prepared};
use crate::hash::{group_hash, seed, PrehashedMap};
use crate::sliding::SlidingAgg;
use algebra::{AggExpr, AggFunc, Expr};
use std::borrow::{Borrow, Cow};
use storage::{Row, SqlType, Value};

/// Walks the elementary segments between consecutive distinct times of
/// `events`, which ascend by time: `apply` sees every event, `segment`
/// every `[b, e)` with all events at or before `b` applied.
fn sweep_segments<T: Copy, S>(
    events: &[(i64, T)],
    state: &mut S,
    mut apply: impl FnMut(&mut S, T),
    mut segment: impl FnMut(&S, i64, i64),
) {
    let mut i = 0usize;
    // lint:allow(cancellation) linear in one run, whose rows the caller counted against its poll
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            apply(state, events[i].1);
            i += 1;
        }
        if let Some(&(next, _)) = events.get(i) {
            segment(state, t, next);
        }
    }
}

/// The low bits of an order word: the segment's position in time order.
const POSITION_BITS: u32 = 61;

/// `v`'s place in `Value`'s order as one integer — type rank above the bits
/// of an `Int` (sign flipped) or `Double` (in `total_cmp` order), else `None`.
fn order_word(v: &Value) -> Option<u128> {
    let (rank, bits) = match *v {
        Value::Null => (0, 0),
        Value::Int(i) => (2, (i as u64) ^ (1 << 63)),
        Value::Double(d) => (
            3,
            d.to_bits() ^ ((d.to_bits() as i64 >> 63) as u64 | 1 << 63),
        ),
        Value::Bool(_) | Value::Str(_) => return None,
    };
    Some((rank as u128) << 64 | bits as u128)
}

/// Fused snapshot aggregation.
///
/// `rows` carry the period in the last two columns. Produces, per group and
/// per maximal interval over which its aggregates stay the same, one row
/// `group ++ aggregates ++ [ts, te]`: the coalesced encoding, in canonical
/// (sorted-row) order. With `add_gap_neutral` (global aggregation,
/// `group_cols` empty), intervals of `[tmin, tmax)` not covered by any row
/// still produce output — `count` reports 0 and other functions NULL,
/// closing the aggregation gap (AG bug). `check` is polled once per 1 024
/// input rows, then segments, and its error aborts the pass; outside a
/// statement pass [`crate::coalesce::never`]. `rows` are rows or row
/// references.
#[allow(clippy::too_many_arguments)]
pub fn temporal_aggregate<C: Columns, E>(
    rows: &[C],
    arity: usize,
    group_cols: &[usize],
    aggs: &[AggExpr],
    arg_types: &[SqlType],
    add_gap_neutral: bool,
    domain: (i64, i64),
    check: impl FnMut() -> Result<(), E>,
) -> Result<Vec<Row>, E> {
    let columns: Vec<Expr> = (0..arity).map(Expr::Col).collect();
    let spec = (group_cols, aggs, arg_types);
    temporal_aggregate_over(rows, &columns, spec, add_gap_neutral, domain, check)
}

/// [`temporal_aggregate`] over items whose input column `j` is
/// `columns[j]` evaluated on the item — a row and the identity, or a
/// join's matched [`crate::Pair`] and its `output`.
pub(crate) fn temporal_aggregate_over<C: Columns, E>(
    items: &[C],
    columns: &[Expr],
    (group_cols, aggs, arg_types): (&[usize], &[AggExpr], &[SqlType]),
    add_gap_neutral: bool,
    domain: (i64, i64),
    check: impl FnMut() -> Result<(), E>,
) -> Result<Vec<Row>, E> {
    assert!(
        !add_gap_neutral || group_cols.is_empty(),
        "gap rows are only defined for aggregation without grouping"
    );
    let (arity, g, k) = (columns.len(), group_cols.len(), aggs.len());
    let mut poll = Poll { check, rows: 0 };
    // `count(*)` adds any non-NULL constant per row.
    let (one, group) = (Expr::lit(1), group_cols.iter().map(|&g| &columns[g]));
    let given = aggs.iter().map(|a| a.arg.as_ref().unwrap_or(&one));
    let arg_exprs: Vec<Expr> = given.map(|e| e.substitute(columns)).collect();
    let reads: Vec<Prepared> = group.chain(&arg_exprs).map(Prepared::new).collect();
    let period = [arity - 2, arity - 1].map(|j| Prepared::new(&columns[j]));

    // One pass lends item `n`'s group key and arguments at `lent[n * r..]`
    // (evaluated once unless a bare column), evaluates its period, and
    // files it under its group: each distinct key takes an id as the items
    // arrive (a seeded hash nominates, `Value`'s `Eq` decides) and chains
    // its items through `next`.
    let r = reads.len();
    let mut lent: Vec<Cow<Value>> = Vec::with_capacity(items.len() * r);
    let mut periods: Vec<[i64; 2]> = Vec::with_capacity(items.len());
    const NONE: usize = usize::MAX;
    let seed = seed();
    // Per hash, its newest distinct key; per distinct key, the next older
    // one with the same hash, one item of it, and its newest item.
    let mut heads: PrehashedMap<usize> = PrehashedMap::default();
    let (mut older, mut first, mut newest) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = Vec::with_capacity(items.len());
    for (n, item) in items.iter().enumerate() {
        poll.check(1)?;
        lent.extend(reads.iter().map(|e| e.lend(item)));
        let endpoint = |p: &Prepared| p.value(item).as_int().expect("INT period");
        periods.push(period.each_ref().map(endpoint));
        let key = |n: usize| &lent[n * r..][..g];
        let hash = group_hash(key(n).iter().map(|v| &**v), seed);
        let mut d = heads.get(&hash).copied().unwrap_or(NONE);
        while d != NONE && key(first[d]) != key(n) {
            d = older[d];
        }
        if d == NONE {
            d = first.len();
            older.push(heads.insert(hash, d).unwrap_or(NONE));
            first.push(n);
            newest.push(NONE);
        }
        next.push(newest[d]);
        newest[d] = n;
    }
    let key = |n: usize| &lent[n * r..][..g];
    let args = |n: usize| &lent[n * r + g..][..k];
    // Only the distinct keys are sorted.
    let mut groups: Vec<usize> = (0..first.len()).collect();
    groups.sort_unstable_by(|&a, &b| key(first[a]).cmp(key(first[b])));

    /// Marks the two domain-bound events of a global aggregation.
    const ANCHOR: usize = usize::MAX;
    struct Active {
        aggs: Vec<SlidingAgg>,
        rows: i64,
        /// Inside `[domain.0, domain.1)`, where gaps are reported.
        anchored: bool,
    }
    // One event per endpoint: the item, doubled, plus one for its end.
    let mut events: Vec<(i64, usize)> = Vec::new();
    // The run's maximal segments in time order, the `i`-th one's aggregates
    // at `values[i * k..][..k]`.
    let mut segments: Vec<(i64, i64)> = Vec::new();
    let mut values: Vec<Value> = Vec::new();
    let mut order: Vec<u128> = Vec::new();
    let mut out = Vec::new();
    // A group's items, gathered from its chain.
    let mut run: Vec<usize> = Vec::new();
    let mut groups = groups.into_iter().map(|d| newest[d]);
    // No input at all: the whole domain is one gap.
    let mut empty = add_gap_neutral && items.is_empty();
    while let Some(mut n) = groups
        .next()
        .or_else(|| std::mem::take(&mut empty).then_some(NONE))
    {
        run.clear();
        while n != NONE {
            run.push(n);
            n = next[n];
        }
        events.clear();
        segments.clear();
        values.clear();
        for &n in &run {
            events.push((periods[n][0], 2 * n));
            events.push((periods[n][1], 2 * n + 1));
        }
        if add_gap_neutral {
            // Anchor the sweep at the domain bounds so leading/trailing gaps
            // are emitted too (the `∪ {(null, Tmin, Tmax)}` of Figure 4).
            events.push((domain.0, ANCHOR));
            events.push((domain.1, ANCHOR));
        }
        let mut active = Active {
            aggs: aggs
                .iter()
                .zip(arg_types)
                .map(|(a, ty)| SlidingAgg::new(a.func.clone(), *ty))
                .collect(),
            rows: 0,
            anchored: false,
        };
        // An instant's events all apply (counts are signed) before its segment.
        events.sort_unstable_by_key(|&(t, _)| t);
        sweep_segments(
            &events,
            &mut active,
            |active, tag| {
                if tag == ANCHOR {
                    active.anchored = !active.anchored;
                    return;
                }
                let sign = 1 - 2 * (tag % 2) as i64;
                for (s, v) in active.aggs.iter_mut().zip(args(tag / 2)) {
                    s.slide(v, sign);
                }
                active.rows += sign;
            },
            |active, b, e| {
                if active.rows == 0 && !active.anchored {
                    return;
                }
                let at = values.len();
                if active.rows > 0 {
                    values.extend(active.aggs.iter().map(SlidingAgg::current));
                } else {
                    values.extend(aggs.iter().map(|a| SlidingAgg::gap_value(&a.func)));
                }
                match segments.last_mut() {
                    Some(last) if last.1 == b && values[at - k..at] == values[at..] => {
                        last.1 = e;
                        values.truncate(at);
                    }
                    _ => segments.push((b, e)),
                }
            },
        );
        poll.check(segments.len())?;
        // Canonical order: by aggregates, then (distinct) begin. One non-string
        // aggregate sorts as plain integers, its order word above the position.
        order.clear();
        if k == 1 {
            let words = values.iter().zip(0..);
            order.extend(words.map_while(|(v, i)| Some(order_word(v)? << POSITION_BITS | i)));
        }
        if order.len() == segments.len() {
            order.sort_unstable();
        } else {
            order.clear();
            order.extend(0..segments.len() as u128);
            order.sort_unstable_by_key(|&i| (&values[i as usize * k..][..k], segments[i as usize]));
        }
        let group = run.first().map_or(&[][..], |&n| key(n));
        out.reserve(order.len());
        for &word in &order {
            poll.check(1)?;
            let i = (word & ((1 << POSITION_BITS) - 1)) as usize;
            let mut row = Vec::with_capacity(g + k + 2);
            row.extend(group.iter().map(|v| v.clone().into_owned()));
            row.extend_from_slice(&values[i * k..][..k]);
            row.extend([Value::Int(segments[i].0), Value::Int(segments[i].1)]);
            out.push(Row::new(row));
        }
    }
    Ok(out)
}

/// Fused snapshot bag difference (`EXCEPT ALL` under snapshot semantics).
///
/// Both inputs carry the period in their last two columns and are
/// union-compatible. For every value-equivalent row group and every maximal
/// interval over which `max(0, multiplicity_left − multiplicity_right)`
/// stays the same, emits that many copies — the monus of `N^T` (Theorem
/// 7.1) on the interval refinement instead of per time point, coalesced
/// and in canonical order. `check` is polled like [`temporal_aggregate`]'s.
/// Either side is a slice of rows or of row references.
pub fn temporal_except_all<L: Borrow<Row>, R: Borrow<Row>, E>(
    left: &[L],
    right: &[R],
    arity: usize,
    check: impl FnMut() -> Result<(), E>,
) -> Result<Vec<Row>, E> {
    let (ts, te) = (arity - 2, arity - 1);
    let mut poll = Poll { check, rows: 0 };
    // Each side sorted, then both merged into one list by value-equivalence
    // key, each entry with what it adds to (left, right) multiplicity.
    let mut l: Vec<&Row> = left.iter().map(Borrow::borrow).collect();
    let mut r: Vec<&Row> = right.iter().map(Borrow::borrow).collect();
    sort_nearly_sorted(&mut l, Ord::cmp, &mut poll)?;
    sort_nearly_sorted(&mut r, Ord::cmp, &mut poll)?;
    let mut sorted: Vec<(&Row, [i64; 2])> = Vec::with_capacity(l.len() + r.len());
    let (mut i, mut j) = (0, 0);
    while i < l.len() || j < r.len() {
        poll.check(1)?;
        if j == r.len() || (i < l.len() && l[i] <= r[j]) {
            sorted.push((l[i], [1, 0]));
            i += 1;
        } else {
            sorted.push((r[j], [0, 1]));
            j += 1;
        }
    }
    drop((l, r)); // freed before the output grows, so they add nothing to the peak

    let mut events: Vec<(i64, [i64; 2])> = Vec::new();
    // The run's maximal segments `(begin, end, copies)` in time order.
    let mut segments: Vec<(i64, i64, i64)> = Vec::new();
    let mut out = Vec::new();
    for run in sorted.chunk_by(|a, b| a.0.values()[..ts] == b.0.values()[..ts]) {
        poll.check(run.len())?;
        if let [(only, [1, 0])] = run {
            // Nothing to subtract, nothing to split.
            if only.int(ts) < only.int(te) {
                out.push((*only).clone());
            }
            continue;
        }
        events.clear();
        segments.clear();
        for (r, [l, rt]) in run {
            events.push((r.int(ts), [*l, *rt]));
            events.push((r.int(te), [-l, -rt]));
        }
        events.sort_unstable_by_key(|&(t, _)| t);
        sweep_segments(
            &events,
            &mut [0i64; 2],
            |mult, [l, r]| {
                mult[0] += l;
                mult[1] += r;
            },
            |mult, b, e| match segments.last_mut() {
                _ if mult[0] <= mult[1] => {}
                Some(last) if last.1 == b && last.2 == mult[0] - mult[1] => last.1 = e,
                _ => segments.push((b, e, mult[0] - mult[1])),
            },
        );
        for &(b, e, copies) in &segments {
            poll.check(1)?;
            let mut values = run[0].0.values()[..ts].to_vec();
            values.extend([Value::Int(b), Value::Int(e)]);
            out.extend(std::iter::repeat_n(Row::new(values), copies as usize));
        }
    }
    Ok(out)
}

/// What `agg` takes of `row`: its argument's value or, for `count(*)`,
/// which counts rows, any non-NULL constant.
pub fn agg_arg(agg: &AggExpr, row: &Row) -> Value {
    agg.arg
        .as_ref()
        .map_or(Value::Int(1), |e| eval_expr(e, row))
}

/// Resolves the argument type of each aggregate against an input schema —
/// helper shared by the executor and the baselines.
pub fn agg_arg_types(aggs: &[AggExpr], schema: &storage::Schema) -> Result<Vec<SqlType>, String> {
    aggs.iter()
        .map(|a| match (&a.func, &a.arg) {
            (AggFunc::CountStar, _) => Ok(SqlType::Int),
            (_, Some(e)) => e.infer_type(schema),
            (f, None) => Err(format!("{f} requires an argument")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::never;
    use algebra::Expr;
    use storage::row;

    /// The operators as a caller outside any statement sees them.
    fn temporal_aggregate(
        rows: &[Row],
        arity: usize,
        group_cols: &[usize],
        aggs: &[AggExpr],
        arg_types: &[SqlType],
        add_gap_neutral: bool,
        domain: (i64, i64),
    ) -> Vec<Row> {
        let (gap, check) = (add_gap_neutral, never);
        super::temporal_aggregate(rows, arity, group_cols, aggs, arg_types, gap, domain, check)
            .unwrap()
    }

    fn temporal_except_all(left: &[Row], right: &[Row], arity: usize) -> Vec<Row> {
        super::temporal_except_all(left, right, arity, never).unwrap()
    }

    /// Q_onduty, fused: count(*) over works SP rows with gap rows.
    #[test]
    fn figure_1b_counts_with_gaps() {
        // σ_skill=SP(works) projected to (ts, te) only: arity 2.
        let rows = vec![row![3, 10], row![8, 16], row![18, 20]];
        let aggs = vec![AggExpr::count_star("cnt")];
        let out = temporal_aggregate(&rows, 2, &[], &aggs, &[SqlType::Int], true, (0, 24));
        let mut got: Vec<(i64, i64, i64)> =
            out.iter().map(|r| (r.int(1), r.int(2), r.int(0))).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![
                (0, 3, 0),
                (3, 8, 1),
                (8, 10, 2),
                (10, 16, 1),
                (16, 18, 0),
                (18, 20, 1),
                (20, 24, 0),
            ]
        );
    }

    #[test]
    fn grouped_aggregation_no_gap_rows() {
        // salaries per department over time.
        let rows = vec![
            row!["d1", 100, 0, 10],
            row!["d1", 200, 5, 10],
            row!["d2", 50, 2, 4],
        ];
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "total")];
        let out = temporal_aggregate(&rows, 4, &[0], &aggs, &[SqlType::Int], false, (0, 24));
        let mut got: Vec<(String, i64, i64, Value)> = out
            .iter()
            .map(|r| (r.get(0).to_string(), r.int(2), r.int(3), r.get(1).clone()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                ("d1".into(), 0, 5, Value::Int(100)),
                ("d1".into(), 5, 10, Value::Int(300)),
                ("d2".into(), 2, 4, Value::Int(50)),
            ]
        );
    }

    #[test]
    fn min_max_slide_correctly_through_time() {
        let rows = vec![row!["g", 5, 0, 10], row!["g", 1, 3, 6]];
        let aggs = vec![
            AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
            AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
        ];
        let out = temporal_aggregate(
            &rows,
            4,
            &[0],
            &aggs,
            &[SqlType::Int, SqlType::Int],
            false,
            (0, 24),
        );
        let mut got: Vec<(i64, i64, i64, i64)> = out
            .iter()
            .map(|r| (r.int(3), r.int(4), r.int(1), r.int(2)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 3, 5, 5), (3, 6, 1, 5), (6, 10, 5, 5)]);
    }

    #[test]
    fn avg_over_gap_is_null() {
        let rows = vec![row![10, 2, 4]];
        let aggs = vec![AggExpr::new(AggFunc::Avg, Expr::col(0), "a")];
        let out = temporal_aggregate(&rows, 3, &[], &aggs, &[SqlType::Int], true, (0, 6));
        let mut got: Vec<(i64, i64, Value)> = out
            .iter()
            .map(|r| (r.int(1), r.int(2), r.get(0).clone()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (0, 2, Value::Null),
                (2, 4, Value::Double(10.0)),
                (4, 6, Value::Null),
            ]
        );
    }

    #[test]
    fn empty_input_global_aggregation_covers_domain() {
        let aggs = vec![AggExpr::count_star("cnt")];
        let out = temporal_aggregate(&[], 2, &[], &aggs, &[SqlType::Int], true, (0, 24));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], row![0, 0, 24]);
    }

    /// An empty interval `[t, t)` holds at no time point: it opens no
    /// segment of its own and leaves no value behind in the min/max
    /// multiset. Its endpoint cuts the segment it falls into during the
    /// sweep, and the two halves, equal on both sides, merge again.
    #[test]
    fn empty_intervals_contribute_nothing() {
        let rows = vec![row!["g", 1, 5, 5], row!["g", 7, 2, 8], row!["h", 9, 3, 3]];
        let aggs = vec![AggExpr::new(AggFunc::Min, Expr::col(1), "lo")];
        let out = temporal_aggregate(&rows, 4, &[0], &aggs, &[SqlType::Int], false, (0, 24));
        assert_eq!(out, vec![row!["g", 7, 2, 8]]);
        let left = vec![row!["x", 4, 4], row!["y", 0, 3], row!["y", 2, 2]];
        assert_eq!(temporal_except_all(&left, &[], 3), vec![row!["y", 0, 3]]);
    }

    /// Segments that meet with equal values are one row; the rows of a
    /// group are in canonical order — by aggregate values, then time — for
    /// a single numeric aggregate (sorted as integers), a string one and
    /// several at once (sorted as values).
    #[test]
    fn output_is_coalesced_and_canonically_ordered() {
        let rows = vec![
            row!["g", 5, "b", 0, 10],
            row!["g", 1, "a", 2, 4],
            row!["g", 1, "a", 6, 8],
            row!["g", -3, "c", 12, 14],
        ];
        let min = |col| AggExpr::new(AggFunc::Min, Expr::col(col), "lo");
        let one = temporal_aggregate(&rows, 5, &[0], &[min(1)], &[SqlType::Int], false, (0, 24));
        assert_eq!(
            one,
            vec![
                row!["g", -3, 12, 14],
                row!["g", 1, 2, 4],
                row!["g", 1, 6, 8],
                row!["g", 5, 0, 2],
                row!["g", 5, 4, 6],
                row!["g", 5, 8, 10],
            ]
        );
        let types = [SqlType::Int, SqlType::Str];
        let two = temporal_aggregate(&rows, 5, &[0], &[min(1), min(2)], &types, false, (0, 24));
        let strings = temporal_aggregate(&rows, 5, &[0], &[min(2)], &types[1..], false, (0, 24));
        for (out, k) in [(&two, 2), (&strings, 1)] {
            assert_eq!(out, &crate::coalesce::coalesce_rows(out, k + 3));
            assert_eq!(out.len(), 6);
        }
        // Adjacent copies of equal multiplicity are one segment.
        let left = vec![row!["x", 0, 4], row!["x", 4, 9], row!["x", 2, 6]];
        assert_eq!(
            temporal_except_all(&left, &[row!["x", 3, 5]], 3),
            vec![
                row!["x", 0, 2],
                row!["x", 2, 3],
                row!["x", 2, 3],
                row!["x", 3, 5],
                row!["x", 5, 6],
                row!["x", 5, 6],
                row!["x", 6, 9],
            ]
        );
    }

    // ---- snapshot bag difference -----------------------------------

    #[test]
    fn figure_1c_except_all() {
        // Π_skill(assign) EXCEPT ALL Π_skill(works), periods attached.
        let assign = vec![row!["SP", 3, 12], row!["SP", 6, 14], row!["NS", 3, 16]];
        let works = vec![
            row!["SP", 3, 10],
            row!["SP", 8, 16],
            row!["SP", 18, 20],
            row!["NS", 8, 16],
        ];
        let mut out = temporal_except_all(&assign, &works, 3);
        out.sort();
        assert_eq!(
            out,
            vec![row!["NS", 3, 8], row!["SP", 6, 8], row!["SP", 10, 12],]
        );
    }

    #[test]
    fn multiplicities_subtract_not_exist() {
        // 3 copies minus 1 copy leaves 2 copies — NOT EXISTS-style difference
        // would wrongly remove all (the BD bug).
        let left = vec![row!["x", 0, 10], row!["x", 0, 10], row!["x", 0, 10]];
        let right = vec![row!["x", 0, 10]];
        let out = temporal_except_all(&left, &right, 3);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn subtraction_respects_time() {
        let left = vec![row!["x", 0, 10]];
        let right = vec![row!["x", 4, 6]];
        let mut out = temporal_except_all(&left, &right, 3);
        out.sort();
        assert_eq!(out, vec![row!["x", 0, 4], row!["x", 6, 10]]);
    }

    #[test]
    fn excess_right_ignored() {
        let left = vec![row!["x", 0, 5]];
        let right = vec![row!["x", 0, 5], row!["x", 0, 5]];
        assert!(temporal_except_all(&left, &right, 3).is_empty());
        // And right-only keys produce nothing.
        let right_only = vec![row!["y", 0, 5]];
        assert!(temporal_except_all(&[], &right_only, 3).is_empty());
    }
}
