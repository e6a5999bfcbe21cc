//! "Native"-style snapshot evaluators with the AG and BD bugs.
//!
//! These reproduce, inside our engine, the two classes of approaches the
//! paper benchmarks against and catalogues in Table 1:
//!
//! * [`BaselineKind::Alignment`] — temporal alignment as in the PG-Nat
//!   kernel patches (paper refs [16, 18]): every binary operator first
//!   *aligns* its inputs (splits each side at the other side's interval
//!   endpoints within matching groups), aggregation splits its input and
//!   aggregates per fragment without pre-aggregation, and difference is
//!   evaluated with **set** semantics. Snapshot aggregation yields no rows
//!   for gaps (AG bug) and difference ignores multiplicities (BD bug).
//! * [`BaselineKind::IntervalPreservation`] — ATSQL-style evaluation
//!   (paper ref \[9\]): joins intersect intervals pairwise, inputs survive
//!   fragmentarily into outputs, no coalescing — so the output encoding
//!   depends on the input encoding (non-unique). Shares the AG and BD bugs.
//!
//! Both evaluators optionally append our multiset coalescing as a final
//! step, matching the experimental setup of Section 10 ("paired with our
//! implementation of coalescing to produce a coalesced result").

use algebra::{BinOp, Expr, Plan, SnapshotNode, SnapshotPlan};
use engine::coalesce::coalesce_rows;
use engine::sliding::SlidingAgg;
use engine::split::split_rows;
use engine::{eval_expr, eval_predicate};
use std::collections::HashMap;
use storage::{Catalog, Column, Row, Schema, SqlType, Table, Value};

/// Which native approach to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Temporal alignment (PG-Nat-like).
    Alignment,
    /// Interval preservation (ATSQL-like).
    IntervalPreservation,
}

/// A native-style evaluator for snapshot plans.
#[derive(Debug, Clone)]
pub struct NativeEvaluator {
    kind: BaselineKind,
    /// Coalesce the final result (the Section 10 experimental setup).
    coalesce_result: bool,
}

impl NativeEvaluator {
    /// Evaluator of the given kind with final coalescing enabled.
    pub fn new(kind: BaselineKind) -> Self {
        NativeEvaluator {
            kind,
            coalesce_result: true,
        }
    }

    /// Controls whether the final result is coalesced.
    pub fn with_final_coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce_result = coalesce;
        self
    }

    /// Evaluates a snapshot plan, returning rows `data ++ [ts, te]` as a
    /// table (schema = plan data schema plus the period columns).
    pub fn eval(&self, plan: &SnapshotPlan, catalog: &Catalog) -> Result<Table, String> {
        let rows = self.eval_rows(plan, catalog)?;
        let arity = plan.schema.arity() + 2;
        let rows = if self.coalesce_result {
            coalesce_rows(&rows, arity)
        } else {
            rows
        };
        let mut schema_cols: Vec<Column> = plan.schema.columns().to_vec();
        schema_cols.push(Column::new("__ts", SqlType::Int));
        schema_cols.push(Column::new("__te", SqlType::Int));
        let mut out = Table::new(Schema::new(schema_cols));
        out.extend(rows);
        Ok(out)
    }

    fn eval_rows(&self, plan: &SnapshotPlan, catalog: &Catalog) -> Result<Vec<Row>, String> {
        match &plan.node {
            SnapshotNode::Access {
                table,
                data_cols,
                period,
            } => {
                let stored = catalog.require(table)?;
                Ok(stored
                    .rows()
                    .iter()
                    .map(|r| {
                        let mut values: Vec<Value> =
                            data_cols.iter().map(|&i| r.get(i).clone()).collect();
                        values.push(r.get(period.0).clone());
                        values.push(r.get(period.1).clone());
                        Row::new(values)
                    })
                    .collect())
            }
            SnapshotNode::Filter { input, predicate } => {
                let rows = self.eval_rows(input, catalog)?;
                Ok(rows
                    .into_iter()
                    .filter(|r| eval_predicate(predicate, r))
                    .collect())
            }
            SnapshotNode::Project { input, exprs } => {
                let rows = self.eval_rows(input, catalog)?;
                let d = input.schema.arity();
                Ok(rows
                    .iter()
                    .map(|r| {
                        let mut values: Vec<Value> =
                            exprs.iter().map(|e| eval_expr(e, r)).collect();
                        values.push(r.get(d).clone());
                        values.push(r.get(d + 1).clone());
                        Row::new(values)
                    })
                    .collect())
            }
            SnapshotNode::Join {
                left,
                right,
                condition,
            } => {
                let l = self.eval_rows(left, catalog)?;
                let r = self.eval_rows(right, catalog)?;
                let (ld, rd) = (left.schema.arity(), right.schema.arity());
                let keys = equi_pairs(condition, ld, rd);
                match self.kind {
                    BaselineKind::Alignment => Ok(aligned_join(&l, &r, ld, rd, &keys, condition)),
                    BaselineKind::IntervalPreservation => {
                        Ok(intersect_join(&l, &r, ld, rd, &keys, condition))
                    }
                }
            }
            SnapshotNode::Union { left, right } => {
                let mut l = self.eval_rows(left, catalog)?;
                l.extend(self.eval_rows(right, catalog)?);
                Ok(l)
            }
            SnapshotNode::ExceptAll { left, right } => {
                // Both native families treat difference as NOT EXISTS over
                // time: a left tuple survives only while *no* value-equal
                // right tuple is valid — multiplicities are ignored.
                // This is the bag difference (BD) bug.
                let l = self.eval_rows(left, catalog)?;
                let r = self.eval_rows(right, catalog)?;
                Ok(set_minus_over_time(&l, &r, left.schema.arity()))
            }
            SnapshotNode::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                // Split at the group's endpoints, then aggregate each
                // fragment group. No gap rows are produced — fragments only
                // exist where input tuples exist (the AG bug) — and the
                // split output is fully materialized (no pre-aggregation).
                let rows = self.eval_rows(input, catalog)?;
                let arity = input.schema.arity() + 2;
                let fragments = split_rows(&rows, &rows, group_cols, arity);
                let (ts, te) = (arity - 2, arity - 1);
                let mut input_schema_cols = input.schema.columns().to_vec();
                input_schema_cols.push(Column::new("__ts", SqlType::Int));
                input_schema_cols.push(Column::new("__te", SqlType::Int));
                let input_schema = Schema::new(input_schema_cols);
                let arg_types = engine::temporal::agg_arg_types(aggs, &input_schema)?;

                let mut groups: HashMap<Vec<Value>, Vec<SlidingAgg>> = HashMap::new();
                for r in &fragments {
                    let mut key: Vec<Value> =
                        group_cols.iter().map(|&i| r.get(i).clone()).collect();
                    key.push(r.get(ts).clone());
                    key.push(r.get(te).clone());
                    let state = groups.entry(key).or_insert_with(|| {
                        aggs.iter()
                            .zip(&arg_types)
                            .map(|(a, ty)| SlidingAgg::new(a.func.clone(), *ty))
                            .collect()
                    });
                    for (a, s) in aggs.iter().zip(state.iter_mut()) {
                        s.slide(&engine::temporal::agg_arg(a, r), 1);
                    }
                }
                let g = group_cols.len();
                Ok(groups
                    .into_iter()
                    .map(|(key, state)| {
                        // key = [G..., ts, te] → output [G..., aggs..., ts, te]
                        let mut values: Vec<Value> = key[..g].to_vec();
                        values.extend(state.iter().map(|s| s.current()));
                        values.push(key[g].clone());
                        values.push(key[g + 1].clone());
                        Row::new(values)
                    })
                    .collect())
            }
        }
    }
}

/// Maps a snapshot plan to a plain (non-temporal) plan over a catalog of
/// *snapshot* tables — used by the point-wise oracle, where each table
/// already contains only the rows valid at the current time point.
pub fn snapshot_to_plain_plan(plan: &SnapshotPlan, catalog: &Catalog) -> Result<Plan, String> {
    match &plan.node {
        SnapshotNode::Access {
            table, data_cols, ..
        } => {
            let stored = catalog.require(table)?;
            let scan = Plan::scan(table.clone(), stored.schema().clone());
            let names = plan
                .schema
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            scan.project(data_cols.iter().map(|&i| Expr::Col(i)).collect(), names)
        }
        SnapshotNode::Filter { input, predicate } => {
            Ok(snapshot_to_plain_plan(input, catalog)?.filter(predicate.clone()))
        }
        SnapshotNode::Project { input, exprs } => {
            let names = plan
                .schema
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            snapshot_to_plain_plan(input, catalog)?.project(exprs.clone(), names)
        }
        SnapshotNode::Join {
            left,
            right,
            condition,
        } => Ok(snapshot_to_plain_plan(left, catalog)?
            .join(snapshot_to_plain_plan(right, catalog)?, condition.clone())),
        SnapshotNode::Union { left, right } => {
            snapshot_to_plain_plan(left, catalog)?.union(snapshot_to_plain_plan(right, catalog)?)
        }
        SnapshotNode::ExceptAll { left, right } => snapshot_to_plain_plan(left, catalog)?
            .except_all(snapshot_to_plain_plan(right, catalog)?),
        SnapshotNode::Aggregate {
            input,
            group_cols,
            aggs,
        } => snapshot_to_plain_plan(input, catalog)?.aggregate(group_cols.clone(), aggs.clone()),
    }
}

/// `left_col = right_col` pairs from a snapshot join condition (indices in
/// the concatenated *data* schemas).
fn equi_pairs(condition: &Expr, ld: usize, _rd: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    fn walk(e: &Expr, ld: usize, out: &mut Vec<(usize, usize)>) {
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                walk(left, ld, out);
                walk(right, ld, out);
            }
            Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => {
                if let (Expr::Col(i), Expr::Col(j)) = (left.as_ref(), right.as_ref()) {
                    if *i < ld && *j >= ld {
                        out.push((*i, *j - ld));
                    } else if *j < ld && *i >= ld {
                        out.push((*j, *i - ld));
                    }
                }
            }
            _ => {}
        }
    }
    walk(condition, ld, &mut out);
    out
}

fn row_interval(r: &Row, data: usize) -> (i64, i64) {
    (r.int(data), r.int(data + 1))
}

/// Condition evaluation layout: `ldata ++ rdata` (+ period appended after).
fn joined_row(l: &Row, r: &Row, ld: usize, rd: usize, b: i64, e: i64) -> Row {
    let mut values = Vec::with_capacity(ld + rd + 2);
    values.extend_from_slice(&l.values()[..ld]);
    values.extend_from_slice(&r.values()[..rd]);
    values.push(Value::Int(b));
    values.push(Value::Int(e));
    Row::new(values)
}

/// ATSQL-style join: hash (or loop) on the equality columns, intersect
/// overlapping validity intervals pairwise.
fn intersect_join(
    left: &[Row],
    right: &[Row],
    ld: usize,
    rd: usize,
    keys: &[(usize, usize)],
    condition: &Expr,
) -> Vec<Row> {
    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for r in right {
        let key: Vec<Value> = keys.iter().map(|&(_, j)| r.get(j).clone()).collect();
        table.entry(key).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left {
        let key: Vec<Value> = keys.iter().map(|&(i, _)| l.get(i).clone()).collect();
        let Some(candidates) = table.get(&key) else {
            continue;
        };
        let (lb, le) = row_interval(l, ld);
        for r in candidates {
            let (rb, re) = row_interval(r, rd);
            let (b, e) = (lb.max(rb), le.min(re));
            if b >= e {
                continue;
            }
            let row = joined_row(l, r, ld, rd, b, e);
            if eval_predicate(condition, &row) {
                out.push(row);
            }
        }
    }
    out
}

/// Alignment join: both sides are first split at the union of interval
/// endpoints of value-matching partners, after which overlapping fragments
/// have identical intervals and join with an equality on the period.
fn aligned_join(
    left: &[Row],
    right: &[Row],
    ld: usize,
    rd: usize,
    keys: &[(usize, usize)],
    condition: &Expr,
) -> Vec<Row> {
    // Endpoint sets per join-key group, from both sides.
    let mut endpoints: HashMap<Vec<Value>, Vec<i64>> = HashMap::new();
    for l in left {
        let key: Vec<Value> = keys.iter().map(|&(i, _)| l.get(i).clone()).collect();
        let (b, e) = row_interval(l, ld);
        let ep = endpoints.entry(key).or_default();
        ep.push(b);
        ep.push(e);
    }
    for r in right {
        let key: Vec<Value> = keys.iter().map(|&(_, j)| r.get(j).clone()).collect();
        let (b, e) = row_interval(r, rd);
        let ep = endpoints.entry(key).or_default();
        ep.push(b);
        ep.push(e);
    }
    for ep in endpoints.values_mut() {
        ep.sort_unstable();
        ep.dedup();
    }

    let fragment = |rows: &[Row], data: usize, key_cols: &dyn Fn(&Row) -> Vec<Value>| -> Vec<Row> {
        let mut out = Vec::new();
        for r in rows {
            let key = key_cols(r);
            let ep = &endpoints[&key];
            let (b, e) = row_interval(r, data);
            let mut cur = b;
            let start = ep.partition_point(|&p| p <= b);
            for &p in &ep[start..] {
                if p >= e {
                    break;
                }
                out.push(replace_period(r, data, cur, p));
                cur = p;
            }
            out.push(replace_period(r, data, cur, e));
        }
        out
    };
    let lfrag = fragment(left, ld, &|r: &Row| {
        keys.iter().map(|&(i, _)| r.get(i).clone()).collect()
    });
    let rfrag = fragment(right, rd, &|r: &Row| {
        keys.iter().map(|&(_, j)| r.get(j).clone()).collect()
    });

    // Equijoin on (key, ts, te): aligned fragments match exactly.
    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    for r in &rfrag {
        let mut key: Vec<Value> = keys.iter().map(|&(_, j)| r.get(j).clone()).collect();
        let (b, e) = row_interval(r, rd);
        key.push(Value::Int(b));
        key.push(Value::Int(e));
        table.entry(key).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in &lfrag {
        let mut key: Vec<Value> = keys.iter().map(|&(i, _)| l.get(i).clone()).collect();
        let (b, e) = row_interval(l, ld);
        key.push(Value::Int(b));
        key.push(Value::Int(e));
        let Some(candidates) = table.get(&key) else {
            continue;
        };
        for r in candidates {
            let row = joined_row(l, r, ld, rd, b, e);
            if eval_predicate(condition, &row) {
                out.push(row);
            }
        }
    }
    out
}

fn replace_period(r: &Row, data: usize, b: i64, e: i64) -> Row {
    let mut values = r.values().to_vec();
    values[data] = Value::Int(b);
    values[data + 1] = Value::Int(e);
    Row::new(values)
}

/// NOT-EXISTS-over-time difference (the BD bug): each left row keeps the
/// parts of its interval not covered by *any* value-equal right row.
fn set_minus_over_time(left: &[Row], right: &[Row], data: usize) -> Vec<Row> {
    // Merge right coverage per value-equivalent key.
    let mut coverage: HashMap<Vec<Value>, Vec<(i64, i64)>> = HashMap::new();
    for r in right {
        coverage
            .entry(r.values()[..data].to_vec())
            .or_default()
            .push(row_interval(r, data));
    }
    for intervals in coverage.values_mut() {
        intervals.sort_unstable();
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(intervals.len());
        for &(b, e) in intervals.iter() {
            match merged.last_mut() {
                Some(last) if b <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((b, e)),
            }
        }
        *intervals = merged;
    }

    let mut out = Vec::new();
    for l in left {
        let (mut cur, e) = row_interval(l, data);
        let key = l.values()[..data].to_vec();
        if let Some(cover) = coverage.get(&key) {
            for &(cb, ce) in cover {
                if ce <= cur {
                    continue;
                }
                if cb >= e {
                    break;
                }
                if cb > cur {
                    out.push(replace_period(l, data, cur, cb));
                }
                cur = cur.max(ce);
                if cur >= e {
                    break;
                }
            }
        }
        if cur < e {
            out.push(replace_period(l, data, cur, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql::{bind_statement, parse_statement, BoundStatement};
    use storage::row;

    fn catalog() -> Catalog {
        let works = Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let assign = Schema::of(&[
            ("mach", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut w = Table::with_period(works, 2, 3);
        w.push(row!["Ann", "SP", 3, 10]);
        w.push(row!["Joe", "NS", 8, 16]);
        w.push(row!["Sam", "SP", 8, 16]);
        w.push(row!["Ann", "SP", 18, 20]);
        let mut a = Table::with_period(assign, 2, 3);
        a.push(row!["M1", "SP", 3, 12]);
        a.push(row!["M2", "SP", 6, 14]);
        a.push(row!["M3", "NS", 3, 16]);
        let mut c = Catalog::new();
        c.register("works", w);
        c.register("assign", a);
        c
    }

    fn snapshot_plan(sql: &str, c: &Catalog) -> SnapshotPlan {
        let stmt = parse_statement(sql).unwrap();
        match bind_statement(&stmt, c).unwrap() {
            BoundStatement::Snapshot { plan, .. } => plan,
            _ => panic!("expected snapshot query"),
        }
    }

    /// The AG bug: the native evaluators return NO rows for the gaps of
    /// Figure 1b (times [0,3), [16,18), [20,24)).
    #[test]
    fn aggregation_gap_bug_reproduced() {
        let c = catalog();
        let plan = snapshot_plan(
            "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
            &c,
        );
        for kind in [BaselineKind::Alignment, BaselineKind::IntervalPreservation] {
            let out = NativeEvaluator::new(kind).eval(&plan, &c).unwrap();
            let rows = out.canonicalized();
            assert_eq!(
                rows.rows(),
                &[
                    row![1, 3, 8],
                    row![1, 10, 16],
                    row![1, 18, 20],
                    row![2, 8, 10],
                ],
                "{kind:?} must miss the gap rows (AG bug)"
            );
        }
    }

    /// The BD bug: NOT EXISTS-style difference drops the SP rows of
    /// Figure 1c entirely.
    #[test]
    fn bag_difference_bug_reproduced() {
        let c = catalog();
        let plan = snapshot_plan(
            "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)",
            &c,
        );
        for kind in [BaselineKind::Alignment, BaselineKind::IntervalPreservation] {
            let out = NativeEvaluator::new(kind).eval(&plan, &c).unwrap();
            let rows = out.canonicalized();
            assert_eq!(
                rows.rows(),
                &[row!["NS", 3, 8]],
                "{kind:?} must drop the SP rows (BD bug)"
            );
        }
    }

    /// Joins are snapshot-reducible in both baselines: they agree with the
    /// correct pipeline (positive relational algebra is safe, Section 2).
    #[test]
    fn joins_agree_with_rewrite() {
        let c = catalog();
        let domain = timeline::TimeDomain::new(0, 24);
        let q = "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a \
                 ON w.skill = a.skill)";
        let plan = snapshot_plan(q, &c);
        let compiled = rewrite::SnapshotCompiler::new(domain)
            .compile(&plan, &c)
            .unwrap();
        let reference = engine::Engine::new()
            .execute(&compiled, &c)
            .unwrap()
            .canonicalized();
        for kind in [BaselineKind::Alignment, BaselineKind::IntervalPreservation] {
            let out = NativeEvaluator::new(kind).eval(&plan, &c).unwrap();
            assert_eq!(
                out.canonicalized().rows(),
                reference.rows(),
                "{kind:?} join diverges"
            );
        }
    }

    /// Without final coalescing, interval preservation's output encoding
    /// depends on the input encoding: the non-unique-encoding row of
    /// Table 1.
    #[test]
    fn interval_preservation_encoding_not_unique() {
        let mk_catalog = |split: bool| {
            let schema = Schema::of(&[
                ("name", SqlType::Str),
                ("skill", SqlType::Str),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]);
            let mut w = Table::with_period(schema, 2, 3);
            if split {
                // (Ann, SP, [3,10)) presented as two adjacent rows.
                w.push(row!["Ann", "SP", 3, 8]);
                w.push(row!["Ann", "SP", 8, 10]);
            } else {
                w.push(row!["Ann", "SP", 3, 10]);
            }
            let mut c = Catalog::new();
            c.register("works", w);
            c
        };
        let q = "SEQ VT (SELECT name FROM works)";
        let eval = |c: &Catalog| {
            let plan = snapshot_plan(q, c);
            NativeEvaluator::new(BaselineKind::IntervalPreservation)
                .with_final_coalesce(false)
                .eval(&plan, c)
                .unwrap()
                .canonicalized()
        };
        let a = eval(&mk_catalog(false));
        let b = eval(&mk_catalog(true));
        assert_ne!(
            a.rows(),
            b.rows(),
            "outputs differ though inputs are equivalent"
        );
    }

    #[test]
    fn set_minus_over_time_edges() {
        // Coverage merging across adjacent right intervals.
        let left = vec![row!["x", 0, 10]];
        let right = vec![row!["x", 2, 5], row!["x", 5, 7]];
        let out = set_minus_over_time(&left, &right, 1);
        assert_eq!(out, vec![row!["x", 0, 2], row!["x", 7, 10]]);
        // Full coverage leaves nothing.
        let right = vec![row!["x", 0, 10]];
        assert!(set_minus_over_time(&left, &right, 1).is_empty());
        // Unrelated values untouched.
        let right = vec![row!["y", 0, 10]];
        assert_eq!(set_minus_over_time(&left, &right, 1), left);
    }
}
