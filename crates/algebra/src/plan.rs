//! Logical plans: multiset relational algebra plus the temporal operators
//! of the paper's implementation layer.

use crate::{AggExpr, Expr};
use std::fmt;
use storage::{Column, Row, Schema, SqlType};

/// Physical-choice hint on a join: which algorithm the engine runs.
///
/// `Auto` lets the engine pick — the sweep for a pure interval-overlap
/// join whose inputs are both indexed scans, the hash join when the
/// condition has equality conjuncts, the nested loop otherwise. The
/// explicit variants pin one algorithm (with a safe fallback when the
/// condition does not support it), which is how the benchmark harness and
/// the differential tests compare routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Engine decides (index-aware).
    #[default]
    Auto,
    /// Force the nested-loop join.
    NestedLoop,
    /// Force the hash join on equality conjuncts.
    Hash,
    /// Force the endpoint-sweep temporal join on the overlap pattern. An
    /// indexed-scan input lends its table's begin order, any other input
    /// is sorted on the fly; it runs on the calling thread like every
    /// other operator.
    Sweep,
}

/// A logical plan node. See [`Plan`] for construction; every constructor
/// computes and validates the output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan of a catalog table.
    Scan {
        /// Table name in the catalog.
        table: String,
    },
    /// Scan of an introspection virtual table (see [`crate::vtab`]): the
    /// rows are materialized by the engine from observability state at
    /// execution time, not read from the catalog. Not a temporal
    /// relation — never valid under snapshot (`SEQ VT`) semantics.
    VirtualScan {
        /// Virtual table name (one of [`crate::vtab::VIRTUAL_TABLES`]).
        table: String,
    },
    /// Inline constant relation.
    Values {
        /// The rows.
        rows: Vec<Row>,
    },
    /// `σ_pred(input)`.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// `Π_exprs(input)` (multiset projection, no dedup).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Projection expressions.
        exprs: Vec<Expr>,
    },
    /// Inner join with arbitrary condition over the concatenated schema.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Condition over `left.schema ++ right.schema` column positions.
        condition: Expr,
        /// Physical-choice hint (index-aware when [`JoinAlgo::Auto`]).
        algo: JoinAlgo,
        /// What a matching pair emits, over the same column positions as
        /// `condition`. [`Plan::join`] starts it as every column in order
        /// (the concatenation); a [`Plan::project`] over the join replaces
        /// it, so the engine builds the projected row straight from the
        /// pair.
        output: Vec<Expr>,
    },
    /// `UNION ALL`.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input (schema must be union-compatible).
        right: Box<Plan>,
    },
    /// `EXCEPT ALL` (bag difference).
    ExceptAll {
        /// Left input.
        left: Box<Plan>,
        /// Right input (schema must be union-compatible).
        right: Box<Plan>,
    },
    /// Hash aggregation: group columns by position, aggregates over rows.
    /// With `group_cols` empty this is global aggregation producing exactly
    /// one row (even for empty input).
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping columns (positions in the input).
        group_cols: Vec<usize>,
        /// Aggregate calls.
        aggs: Vec<AggExpr>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Sort (top-level only; snapshot queries do not support ORDER BY, per
    /// paper Section 10.1).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(expression, ascending)` keys.
        keys: Vec<(Expr, bool)>,
    },
    /// Multiset temporal coalescing `C` (Def. 8.2): period = last two
    /// columns, all other columns are the value-equivalence key.
    Coalesce {
        /// Input plan (period-last convention).
        input: Box<Plan>,
    },
    /// Point-in-time selection `τ_t` (period-last convention): keeps every
    /// row whose validity interval contains `at`. The schema is unchanged —
    /// projecting the period away afterwards yields the snapshot at `at`.
    /// An indexed scan answers this with an interval-tree stab.
    Timeslice {
        /// Input plan (period-last convention).
        input: Box<Plan>,
        /// The time point.
        at: i64,
    },
    /// Time-range selection (period-last convention): keeps every row whose
    /// validity interval overlaps the half-open window `[begin, end)`. The
    /// schema is unchanged; clipping the survivors' periods to the window
    /// (a projection above) yields the range-restricted encoding. Indexed
    /// scans answer this with an `O(log n + k)` interval-tree overlap
    /// probe.
    TimeRange {
        /// Input plan (period-last convention).
        input: Box<Plan>,
        /// The half-open query window `[begin, end)`.
        range: (i64, i64),
    },
    /// The split operator `N_G(left, right)` (Def. 8.3): refines the
    /// intervals of `left` rows at all endpoints of `left ∪ right` rows in
    /// the same group. Output schema = left schema.
    Split {
        /// The relation whose rows are split.
        left: Box<Plan>,
        /// The partner providing additional endpoints.
        right: Box<Plan>,
        /// Group columns (positions valid in both inputs).
        group_cols: Vec<usize>,
    },
    /// Fused snapshot aggregation with pre-aggregation (Section 9): splits
    /// and aggregates in one operator. With `add_gap_neutral` (global
    /// aggregation), gaps produce rows — `count` yields 0, other functions
    /// yield NULL — exactly the `∪ {(null, Tmin, Tmax)}` rewrite of Fig. 4.
    TemporalAggregate {
        /// Input plan (period-last convention).
        input: Box<Plan>,
        /// Grouping columns (positions in the input, excluding period).
        group_cols: Vec<usize>,
        /// Aggregate calls (arguments positional in the input).
        aggs: Vec<AggExpr>,
        /// Whether to produce rows for gaps over `[Tmin, Tmax)`.
        add_gap_neutral: bool,
        /// `Tmin`/`Tmax` of the time domain (needed for gap rows).
        domain: (i64, i64),
    },
    /// Fused snapshot bag difference (Section 9): aligns both sides on their
    /// common refinement and applies the monus per elementary interval.
    TemporalExceptAll {
        /// Left input (period-last convention).
        left: Box<Plan>,
        /// Right input (union-compatible).
        right: Box<Plan>,
    },
}

/// A logical plan: a node plus its computed output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The operator.
    pub node: PlanNode,
    /// The output schema.
    pub schema: Schema,
}

impl Plan {
    /// Scan of a named table with the given schema (captured at bind time).
    pub fn scan(table: impl Into<String>, schema: Schema) -> Plan {
        Plan {
            node: PlanNode::Scan {
                table: table.into(),
            },
            schema,
        }
    }

    /// Scan of an introspection virtual table; `schema` comes from
    /// [`crate::vtab::virtual_table_schema`].
    pub fn virtual_scan(table: impl Into<String>, schema: Schema) -> Plan {
        Plan {
            node: PlanNode::VirtualScan {
                table: table.into(),
            },
            schema,
        }
    }

    /// Constant relation.
    pub fn values(schema: Schema, rows: Vec<Row>) -> Plan {
        for r in &rows {
            assert_eq!(r.arity(), schema.arity(), "Values row arity mismatch");
        }
        Plan {
            node: PlanNode::Values { rows },
            schema,
        }
    }

    /// Filter. Over a `Join` it is the join's condition: `predicate`,
    /// restated over the pair through the join's `output`
    /// ([`Expr::substitute`]), is `AND`ed onto `condition` — so a rejected
    /// pair builds no row, and an equality or overlap among the filter's
    /// conjuncts can pick the join's route. As in [`Plan::project`], only
    /// while that reads no computed output expression twice. Over a
    /// `Project` whose columns it reads are all bare columns or literals it
    /// moves below the projection (σ_p Π = Π σ_{p∘Π}), so it runs on the
    /// projection's input and the projection builds only the survivors.
    pub fn filter(self, predicate: Expr) -> Plan {
        let schema = self.schema.clone();
        let node = match self.node {
            PlanNode::Project { input, exprs }
                if inlines(std::slice::from_ref(&predicate), &exprs, 0) =>
            {
                PlanNode::Project {
                    input: Box::new(input.filter(predicate.substitute(&exprs))),
                    exprs,
                }
            }
            PlanNode::Join {
                left,
                right,
                condition,
                algo,
                output,
            } if inlines(std::slice::from_ref(&predicate), &output, 1) => PlanNode::Join {
                left,
                right,
                condition: condition.and(predicate.substitute(&output)),
                algo,
                output,
            },
            node => PlanNode::Filter {
                input: Box::new(Plan {
                    node,
                    schema: self.schema,
                }),
                predicate,
            },
        };
        Plan { node, schema }
    }

    /// Projection; output columns named by `names` (or synthesized).
    ///
    /// This constructor is the one place projections are absorbed, so the
    /// binder, the rewriter and hand-built plans all get it: the input's
    /// columns in order come back as the input node itself under the new
    /// names, a projection over a `Project` composes into it
    /// ([`Expr::substitute`]), and a projection over a `Join` becomes the
    /// join's `output`. Composition never copies work: it happens only when
    /// no computed inner expression is referenced twice, so the composed
    /// expressions are no larger than the two lists together. Only what is
    /// left is a `Project` node.
    pub fn project(self, exprs: Vec<Expr>, names: Vec<String>) -> Result<Plan, String> {
        assert_eq!(exprs.len(), names.len(), "one name per projection");
        let mut cols = Vec::with_capacity(exprs.len());
        for (e, n) in exprs.iter().zip(&names) {
            let ty = e.infer_type(&self.schema)?;
            cols.push(Column::new(n.clone(), ty));
        }
        Ok(self.projected(exprs, Schema::new(cols)))
    }

    /// Projection keeping input column names where the expression is a bare
    /// column reference.
    pub fn project_cols(self, indices: &[usize]) -> Plan {
        let schema = Schema::new(
            indices
                .iter()
                .map(|&i| self.schema.column(i).clone())
                .collect(),
        );
        self.projected(indices.iter().map(|&i| Expr::Col(i)).collect(), schema)
    }

    /// `Π_exprs(self)` with output `schema`, absorbed where it can be (see
    /// [`Plan::project`]); `exprs` are already type-checked against `self`.
    fn projected(self, exprs: Vec<Expr>, schema: Schema) -> Plan {
        let compose = |inner: &[Expr]| exprs.iter().map(|e| e.substitute(inner)).collect();
        let node = match self.node {
            node if is_identity(&exprs, self.schema.arity()) => node,
            PlanNode::Project {
                input,
                exprs: inner,
            } if inlines(&exprs, &inner, 1) => PlanNode::Project {
                input,
                exprs: compose(&inner),
            },
            PlanNode::Join {
                left,
                right,
                condition,
                algo,
                output,
            } if inlines(&exprs, &output, 1) => PlanNode::Join {
                left,
                right,
                condition,
                algo,
                output: compose(&output),
            },
            node => PlanNode::Project {
                input: Box::new(Plan {
                    node,
                    schema: self.schema,
                }),
                exprs,
            },
        };
        Plan { node, schema }
    }

    /// Inner join; `condition` refers to the concatenated schema. The
    /// engine picks the physical algorithm ([`JoinAlgo::Auto`]).
    pub fn join(self, right: Plan, condition: Expr) -> Plan {
        self.join_with(right, condition, JoinAlgo::Auto)
    }

    /// Inner join with an explicit physical-choice hint.
    pub fn join_with(self, right: Plan, condition: Expr, algo: JoinAlgo) -> Plan {
        let schema = self.schema.concat(&right.schema);
        Plan {
            node: PlanNode::Join {
                left: Box::new(self),
                right: Box::new(right),
                condition,
                algo,
                output: (0..schema.arity()).map(Expr::Col).collect(),
            },
            schema,
        }
    }

    /// `UNION ALL`; schemas must have equal arity and column types.
    pub fn union(self, right: Plan) -> Result<Plan, String> {
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::Union {
                left: Box::new(self),
                right: Box::new(right),
            },
            schema,
        })
    }

    /// `EXCEPT ALL`.
    pub fn except_all(self, right: Plan) -> Result<Plan, String> {
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::ExceptAll {
                left: Box::new(self),
                right: Box::new(right),
            },
            schema,
        })
    }

    /// Hash aggregation.
    pub fn aggregate(self, group_cols: Vec<usize>, aggs: Vec<AggExpr>) -> Result<Plan, String> {
        let mut cols: Vec<Column> = group_cols
            .iter()
            .map(|&i| self.schema.column(i).clone())
            .collect();
        for a in &aggs {
            cols.push(Column::new(a.name.clone(), a.output_type(&self.schema)?));
        }
        Ok(Plan {
            node: PlanNode::Aggregate {
                input: Box::new(self),
                group_cols,
                aggs,
            },
            schema: Schema::new(cols),
        })
    }

    /// Duplicate elimination.
    pub fn distinct(self) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Distinct {
                input: Box::new(self),
            },
            schema,
        }
    }

    /// Sort.
    pub fn sort(self, keys: Vec<(Expr, bool)>) -> Plan {
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Sort {
                input: Box::new(self),
                keys,
            },
            schema,
        }
    }

    /// Temporal multiset coalescing (period-last convention) — absorbed over
    /// the operators that already emit the coalesced encoding in canonical order.
    pub fn coalesce(self) -> Plan {
        assert_period_last(&self.schema);
        use PlanNode::{Coalesce, TemporalAggregate, TemporalExceptAll};
        if let TemporalAggregate { .. } | TemporalExceptAll { .. } | Coalesce { .. } = self.node {
            return self;
        }
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Coalesce {
                input: Box::new(self),
            },
            schema,
        }
    }

    /// Point-in-time selection at `at` (period-last convention).
    pub fn timeslice(self, at: i64) -> Plan {
        assert_period_last(&self.schema);
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::Timeslice {
                input: Box::new(self),
                at,
            },
            schema,
        }
    }

    /// Time-range selection over `[begin, end)` (period-last convention).
    ///
    /// # Panics
    /// Panics when the window is empty (`begin >= end`).
    pub fn time_range(self, begin: i64, end: i64) -> Plan {
        assert_period_last(&self.schema);
        assert!(begin < end, "empty time range [{begin}, {end})");
        let schema = self.schema.clone();
        Plan {
            node: PlanNode::TimeRange {
                input: Box::new(self),
                range: (begin, end),
            },
            schema,
        }
    }

    /// The split operator `N_G`.
    pub fn split(self, right: Plan, group_cols: Vec<usize>) -> Result<Plan, String> {
        assert_period_last(&self.schema);
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::Split {
                left: Box::new(self),
                right: Box::new(right),
                group_cols,
            },
            schema,
        })
    }

    /// Fused snapshot aggregation (see [`PlanNode::TemporalAggregate`]).
    /// Output schema: group columns, aggregate outputs, then the period.
    pub fn temporal_aggregate(
        self,
        group_cols: Vec<usize>,
        aggs: Vec<AggExpr>,
        add_gap_neutral: bool,
        domain: (i64, i64),
    ) -> Result<Plan, String> {
        assert_period_last(&self.schema);
        let mut cols: Vec<Column> = group_cols
            .iter()
            .map(|&i| self.schema.column(i).clone())
            .collect();
        for a in &aggs {
            cols.push(Column::new(a.name.clone(), a.output_type(&self.schema)?));
        }
        cols.push(Column::new("__ts", SqlType::Int));
        cols.push(Column::new("__te", SqlType::Int));
        Ok(Plan {
            node: PlanNode::TemporalAggregate {
                input: Box::new(self),
                group_cols,
                aggs,
                add_gap_neutral,
                domain,
            },
            schema: Schema::new(cols),
        })
    }

    /// Fused snapshot bag difference.
    pub fn temporal_except_all(self, right: Plan) -> Result<Plan, String> {
        assert_period_last(&self.schema);
        check_union_compatible(&self.schema, &right.schema)?;
        let schema = self.schema.clone();
        Ok(Plan {
            node: PlanNode::TemporalExceptAll {
                left: Box::new(self),
                right: Box::new(right),
            },
            schema,
        })
    }

    /// Names of every catalog table this plan scans, sorted and
    /// deduplicated — what the session layer refreshes indexes for before
    /// executing.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_tables(&mut names);
        names.sort_unstable();
        names.dedup();
        names
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match &self.node {
            PlanNode::Scan { table } => out.push(table.clone()),
            // Virtual tables are not catalog tables: nothing to refresh,
            // nothing for a transaction to record as read.
            PlanNode::VirtualScan { .. } | PlanNode::Values { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Sort { input, .. }
            | PlanNode::Coalesce { input }
            | PlanNode::Timeslice { input, .. }
            | PlanNode::TimeRange { input, .. }
            | PlanNode::TemporalAggregate { input, .. } => input.collect_tables(out),
            PlanNode::Join { left, right, .. }
            | PlanNode::Union { left, right }
            | PlanNode::ExceptAll { left, right }
            | PlanNode::Split { left, right, .. }
            | PlanNode::TemporalExceptAll { left, right } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// Renders the plan as an indented tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push_str(&self.node_label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// The single-line EXPLAIN label of this node (no children, no
    /// indentation) — the building block the engine's `EXPLAIN ANALYZE`
    /// renderer annotates with actual row counts and timings.
    pub fn node_label(&self) -> String {
        match &self.node {
            PlanNode::Scan { table } => format!("Scan {table} {}", self.schema),
            PlanNode::VirtualScan { table } => {
                format!("VirtualScan {table} {}", self.schema)
            }
            PlanNode::Values { rows } => format!("Values ({} rows)", rows.len()),
            PlanNode::Filter { predicate, .. } => format!("Filter {predicate}"),
            PlanNode::Project { exprs, .. } => format!("Project [{}]", list(exprs)),
            PlanNode::Join {
                left,
                right,
                condition,
                algo,
                output,
            } => {
                let mut label = if *algo == JoinAlgo::Auto {
                    format!("Join on {condition}")
                } else {
                    format!("Join[{algo:?}] on {condition}")
                };
                if !is_identity(output, left.schema.arity() + right.schema.arity()) {
                    label.push_str(&format!(" → [{}]", list(output)));
                }
                label
            }
            PlanNode::Union { .. } => "UnionAll".to_string(),
            PlanNode::ExceptAll { .. } => "ExceptAll".to_string(),
            PlanNode::Aggregate {
                group_cols, aggs, ..
            } => {
                let gs: Vec<String> = group_cols.iter().map(|g| format!("#{g}")).collect();
                let as_: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!(
                    "Aggregate group=[{}] aggs=[{}]",
                    gs.join(","),
                    as_.join(",")
                )
            }
            PlanNode::Distinct { .. } => "Distinct".to_string(),
            PlanNode::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort [{}]", ks.join(", "))
            }
            PlanNode::Coalesce { .. } => "Coalesce (multiset temporal)".to_string(),
            PlanNode::Timeslice { at, .. } => format!("Timeslice at {at}"),
            PlanNode::TimeRange { range, .. } => format!("TimeRange [{}, {})", range.0, range.1),
            PlanNode::Split { group_cols, .. } => {
                let gs: Vec<String> = group_cols.iter().map(|g| format!("#{g}")).collect();
                format!("Split N_G group=[{}]", gs.join(","))
            }
            PlanNode::TemporalAggregate {
                group_cols,
                aggs,
                add_gap_neutral,
                ..
            } => {
                let gs: Vec<String> = group_cols.iter().map(|g| format!("#{g}")).collect();
                let as_: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!(
                    "TemporalAggregate group=[{}] aggs=[{}]{}",
                    gs.join(","),
                    as_.join(","),
                    if *add_gap_neutral { " with-gaps" } else { "" }
                )
            }
            PlanNode::TemporalExceptAll { .. } => "TemporalExceptAll".to_string(),
        }
    }

    /// The direct child plans of this node, in plan order (empty for the
    /// leaves `Scan` and `Values`).
    pub fn children(&self) -> Vec<&Plan> {
        match &self.node {
            PlanNode::Scan { .. } | PlanNode::VirtualScan { .. } | PlanNode::Values { .. } => {
                Vec::new()
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Sort { input, .. }
            | PlanNode::Coalesce { input }
            | PlanNode::Timeslice { input, .. }
            | PlanNode::TimeRange { input, .. }
            | PlanNode::TemporalAggregate { input, .. } => vec![input],
            PlanNode::Join { left, right, .. }
            | PlanNode::Union { left, right }
            | PlanNode::ExceptAll { left, right }
            | PlanNode::Split { left, right, .. }
            | PlanNode::TemporalExceptAll { left, right } => vec![left, right],
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// Whether `exprs` are exactly the columns `#0 .. #arity` in order.
fn is_identity(exprs: &[Expr], arity: usize) -> bool {
    exprs.len() == arity && exprs.iter().enumerate().all(|(i, e)| *e == Expr::Col(i))
}

/// Whether substituting `inner` into `exprs` evaluates no inner expression
/// that computes something (not a bare column or literal) more than `times`
/// over: each is referenced at most `times` across `exprs`. With 1, nothing
/// is evaluated twice — without it, each level of
/// `SELECT x + x AS x FROM (…)` would double the composed expression; with
/// 0, only bare columns and literals are read.
fn inlines(exprs: &[Expr], inner: &[Expr], times: usize) -> bool {
    let mut refs = Vec::new();
    for e in exprs {
        e.referenced_columns(&mut refs);
    }
    let mut uses = vec![0usize; inner.len()];
    refs.into_iter().all(|i| {
        uses[i] += 1;
        uses[i] <= times || matches!(inner[i], Expr::Col(_) | Expr::Lit(_))
    })
}

fn list(exprs: &[Expr]) -> String {
    let es: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
    es.join(", ")
}

fn check_union_compatible(a: &Schema, b: &Schema) -> Result<(), String> {
    if a.arity() != b.arity() {
        return Err(format!(
            "inputs are not union-compatible: arity {} vs {}",
            a.arity(),
            b.arity()
        ));
    }
    for i in 0..a.arity() {
        let (ta, tb) = (a.column(i).ty, b.column(i).ty);
        let numeric = |t: SqlType| matches!(t, SqlType::Int | SqlType::Double);
        if ta != tb && !(numeric(ta) && numeric(tb)) {
            return Err(format!(
                "inputs are not union-compatible: column {i} has type {ta} vs {tb}"
            ));
        }
    }
    Ok(())
}

fn assert_period_last(schema: &Schema) {
    let n = schema.arity();
    assert!(
        n >= 2
            && schema.column(n - 2).ty == SqlType::Int
            && schema.column(n - 1).ty == SqlType::Int,
        "temporal operator requires the period (two INT columns) as the last two columns, got {schema}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, BinOp};
    use storage::row;

    fn works_schema() -> Schema {
        Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ])
    }

    #[test]
    fn scan_filter_project_schema() {
        let p = Plan::scan("works", works_schema())
            .filter(Expr::col(1).eq(Expr::lit("SP")))
            .project(vec![Expr::col(0)], vec!["name".into()])
            .unwrap();
        assert_eq!(p.schema.arity(), 1);
        assert_eq!(p.schema.column(0).name, "name");
    }

    #[test]
    fn join_concatenates_schema() {
        let l = Plan::scan("a", works_schema());
        let r = Plan::scan("b", works_schema());
        let j = l.join(r, Expr::col(1).eq(Expr::col(5)));
        assert_eq!(j.schema.arity(), 8);
    }

    #[test]
    fn identity_projection_is_the_input_renamed() {
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let p = Plan::scan("works", works_schema())
            .project(
                (0..4).map(Expr::col).collect(),
                names(&["n", "s", "b", "e"]),
            )
            .unwrap();
        assert!(matches!(&p.node, PlanNode::Scan { table } if table == "works"));
        let got: Vec<&str> = p.schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(got, ["n", "s", "b", "e"]);
        assert_eq!(p.schema.column(2).ty, SqlType::Int);
        // Same columns, other order or fewer of them: a real projection.
        let swapped = Plan::scan("works", works_schema())
            .project(vec![Expr::col(1), Expr::col(0)], names(&["s", "n"]))
            .unwrap();
        assert!(matches!(swapped.node, PlanNode::Project { .. }));
        let prefix = Plan::scan("works", works_schema()).project_cols(&[0, 1]);
        assert!(matches!(prefix.node, PlanNode::Project { .. }));
        // Ill-typed expressions are still refused before anything is absorbed.
        assert!(Plan::scan("works", works_schema())
            .project(vec![Expr::col(7)], names(&["x"]))
            .is_err());
    }

    #[test]
    fn stacked_projections_compose_by_substitution() {
        let e1 = vec![
            Expr::col(3),
            Expr::binary(BinOp::Sub, Expr::col(3), Expr::col(2)),
        ];
        let e2 = vec![
            Expr::binary(BinOp::Add, Expr::col(1), Expr::col(0)),
            Expr::col(0),
        ];
        let p = Plan::scan("works", works_schema())
            .project(e1.clone(), vec!["te".into(), "len".into()])
            .unwrap()
            .project(e2.clone(), vec!["x".into(), "te".into()])
            .unwrap();
        let PlanNode::Project { input, exprs } = &p.node else {
            panic!("expected one Project, got\n{p}")
        };
        assert!(matches!(input.node, PlanNode::Scan { .. }));
        let want: Vec<Expr> = e2.iter().map(|e| e.substitute(&e1)).collect();
        assert_eq!(exprs, &want);
        assert_eq!(p.schema.column(0).name, "x");
        assert_eq!(p.explain().matches("Project").count(), 1);
    }

    #[test]
    fn composition_never_copies_a_computed_expression() {
        let sum = |a, b| Expr::binary(BinOp::Add, Expr::col(a), Expr::col(b));
        let names = |n: usize| (0..n).map(|i| format!("c{i}")).collect::<Vec<_>>();
        // `SELECT y, y FROM (SELECT ts + te AS y …)`: inlining would compute
        // the sum twice per row, so the inner `Project` stays.
        let twice = Plan::scan("works", works_schema())
            .project(vec![sum(2, 3)], names(1))
            .unwrap()
            .project_cols(&[0, 0]);
        assert_eq!(twice.explain().matches("Project").count(), 2);
        // A bare column or literal is free to repeat.
        let free = Plan::scan("works", works_schema())
            .project(vec![Expr::col(3), Expr::lit(1i64), sum(2, 3)], names(3))
            .unwrap()
            .project(vec![sum(0, 0), sum(1, 1), Expr::col(2)], names(3))
            .unwrap();
        let PlanNode::Project { input, exprs } = &free.node else {
            panic!("expected one Project, got\n{free}")
        };
        assert!(matches!(input.node, PlanNode::Scan { .. }));
        assert_eq!(exprs[0], sum(3, 3));
        // Same rule over a join: the second reference keeps a `Project`.
        let joined = Plan::scan("a", works_schema())
            .join(Plan::scan("b", works_schema()), Expr::lit(true))
            .project(vec![sum(2, 6)], names(1))
            .unwrap()
            .project(vec![sum(0, 0)], names(1))
            .unwrap();
        let PlanNode::Project { input, .. } = &joined.node else {
            panic!("expected a Project over the join, got\n{joined}")
        };
        assert!(matches!(&input.node, PlanNode::Join { output, .. } if output == &[sum(2, 6)]));
        // Stacked `x + x` used to double the expression per level; 64
        // levels would never finish. Now the plan is one node per level.
        let mut p = Plan::scan("works", works_schema()).project_cols(&[2]);
        for _ in 0..64 {
            p = p.project(vec![sum(0, 0)], names(1)).unwrap();
        }
        assert_eq!(p.explain().matches("Project [(#0 + #0)]").count(), 63);
        assert_eq!(p.explain().matches("Project [(#2 + #2)]").count(), 1);
    }

    #[test]
    fn projection_over_a_join_is_the_joins_output() {
        let cond = Expr::col(1).eq(Expr::col(5));
        let bare = Plan::scan("a", works_schema()).join(Plan::scan("b", works_schema()), cond);
        assert_eq!(bare.node_label(), "Join on (#1 = #5)");
        let es = vec![
            Expr::col(0),
            Expr::Greatest(vec![Expr::col(2), Expr::col(6)]),
            Expr::Least(vec![Expr::col(3), Expr::col(7)]),
        ];
        let p = bare
            .project(es.clone(), vec!["name".into(), "b".into(), "e".into()])
            .unwrap();
        let PlanNode::Join { output, .. } = &p.node else {
            panic!("expected a Join, got\n{p}")
        };
        assert_eq!(output, &es);
        assert_eq!(p.schema.arity(), 3);
        assert_eq!(p.schema.column(1).ty, SqlType::Int);
        assert_eq!(
            p.node_label(),
            "Join on (#1 = #5) → [#0, GREATEST(#2, #6), LEAST(#3, #7)]"
        );
        // A second projection composes into the same join.
        let q = p.project_cols(&[2, 0]);
        let PlanNode::Join { output, .. } = &q.node else {
            panic!("expected a Join, got\n{q}")
        };
        assert_eq!(output, &[es[2].clone(), es[0].clone()]);
        assert_eq!(q.children().len(), 2);
    }

    #[test]
    fn filter_over_a_join_is_the_joins_condition() {
        let cond = Expr::col(1).eq(Expr::col(5));
        let join = |output: Vec<Expr>| {
            let n = output.len();
            Plan::scan("a", works_schema())
                .join(Plan::scan("b", works_schema()), cond.clone())
                .project(output, (0..n).map(|i| format!("c{i}")).collect())
                .unwrap()
        };
        let begin = Expr::Greatest(vec![Expr::col(2), Expr::col(6)]);
        // The predicate is restated over the pair and joins the condition;
        // schema and output stay what they were.
        let p = join(vec![Expr::col(4), begin.clone()]).filter(
            Expr::col(0)
                .eq(Expr::lit("Ann"))
                .and(Expr::col(1).lt(Expr::lit(9))),
        );
        assert_eq!(
            p.node_label(),
            "Join on ((#1 = #5) AND ((#4 = 'Ann') AND (GREATEST(#2, #6) < 9))) → \
             [#4, GREATEST(#2, #6)]"
        );
        assert_eq!(p.schema.arity(), 2);
        assert_eq!(p.schema.column(0).name, "c0");
        // A computed output read twice would be computed twice per pair on
        // top of the row's own copy: the Filter stays a node.
        let twice = join(vec![begin]).filter(Expr::col(0).lt(Expr::col(0)));
        let PlanNode::Filter { input, .. } = &twice.node else {
            panic!("expected a Filter over the join, got\n{twice}")
        };
        assert!(matches!(&input.node, PlanNode::Join { condition, .. } if *condition == cond));
        // Over anything else a filter is a Filter.
        let scan = Plan::scan("a", works_schema()).filter(Expr::col(2).lt(Expr::lit(9)));
        assert!(matches!(scan.node, PlanNode::Filter { .. }));
    }

    #[test]
    fn filter_moves_below_a_projection_of_bare_columns() {
        let names = |n: usize| (0..n).map(|i| format!("c{i}")).collect::<Vec<_>>();
        // The `AS OF` audit: the period-dropping projection, the WHERE over
        // it, the SELECT list. The filter reads a bare column, so it runs
        // under the projection, and the two projections compose into one.
        let audit = Plan::scan("works", works_schema())
            .timeslice(9)
            .project_cols(&[0, 1])
            .filter(Expr::col(1).eq(Expr::lit("SP")))
            .project_cols(&[0]);
        let text = audit.explain();
        let shape: Vec<&str> = text.lines().map(str::trim_start).collect();
        assert_eq!(
            shape,
            [
                "Project [#0]",
                "Filter (#1 = 'SP')",
                "Timeslice at 9",
                "Scan works (name TEXT, skill TEXT, ts INT, te INT)"
            ]
        );
        assert_eq!(audit.schema.column(0).name, "name");
        // A literal column is substituted like a bare one.
        let lit = Plan::scan("works", works_schema())
            .project(vec![Expr::col(0), Expr::lit(5i64)], names(2))
            .unwrap()
            .filter(Expr::col(1).lt(Expr::col(0)));
        let PlanNode::Project { input, .. } = &lit.node else {
            panic!("expected a Project over the filter, got\n{lit}")
        };
        assert_eq!(input.node_label(), "Filter (5 < #0)");
        assert_eq!(lit.schema.column(1).name, "c1");
    }

    #[test]
    fn filter_over_a_computed_column_stays_above_the_projection() {
        // `SELECT ts + 1 AS y … WHERE y > 3`: below the projection the sum
        // would be computed for the filter and again for the row.
        let p = Plan::scan("works", works_schema())
            .project(
                vec![
                    Expr::col(0),
                    Expr::binary(BinOp::Add, Expr::col(2), Expr::lit(1i64)),
                ],
                vec!["name".into(), "y".into()],
            )
            .unwrap()
            .filter(Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(3i64)));
        let PlanNode::Filter { input, predicate } = &p.node else {
            panic!("expected a Filter over the projection, got\n{p}")
        };
        assert_eq!(predicate.to_string(), "(#1 > 3)");
        assert!(matches!(input.node, PlanNode::Project { .. }));
        // Reading only the bare column of the same projection, it moves.
        let bare = Plan::scan("works", works_schema())
            .project(
                vec![
                    Expr::col(0),
                    Expr::binary(BinOp::Add, Expr::col(2), Expr::lit(1i64)),
                ],
                vec!["name".into(), "y".into()],
            )
            .unwrap()
            .filter(Expr::col(0).eq(Expr::lit("Ann")));
        assert!(matches!(bare.node, PlanNode::Project { .. }), "{bare}");
    }

    #[test]
    fn filter_over_a_projection_over_a_join_reaches_the_condition() {
        let sum = Expr::binary(BinOp::Add, Expr::col(2), Expr::col(6));
        let cond = Expr::col(1).eq(Expr::col(5));
        // The outer projection reads the computed sum twice, so it stays a
        // `Project` over the join; a filter on its bare column still goes
        // through it into the join's condition.
        let p = Plan::scan("a", works_schema())
            .join(Plan::scan("b", works_schema()), cond.clone())
            .project(
                vec![sum.clone(), Expr::col(0)],
                vec!["s".into(), "n".into()],
            )
            .unwrap()
            .project(
                vec![
                    Expr::binary(BinOp::Add, Expr::col(0), Expr::col(0)),
                    Expr::col(1),
                ],
                vec!["d".into(), "n".into()],
            )
            .unwrap()
            .filter(Expr::col(1).eq(Expr::lit("Ann")));
        let PlanNode::Project { input, .. } = &p.node else {
            panic!("expected a Project over the join, got\n{p}")
        };
        let PlanNode::Join { condition, .. } = &input.node else {
            panic!("expected the join under the projection, got\n{p}")
        };
        assert_eq!(*condition, cond.and(Expr::col(0).eq(Expr::lit("Ann"))));
        assert_eq!(p.explain().lines().count(), 4, "{p}");
    }

    #[test]
    fn union_compatibility_enforced() {
        let l = Plan::scan("a", works_schema());
        let bad = Plan::scan("b", Schema::of(&[("x", SqlType::Int)]));
        assert!(l.clone().union(bad).is_err());
        let ok = Plan::scan("b", works_schema());
        assert!(l.union(ok).is_ok());
    }

    #[test]
    fn aggregate_schema() {
        let p = Plan::scan("works", works_schema())
            .aggregate(
                vec![1],
                vec![
                    AggExpr::count_star("cnt"),
                    AggExpr::new(AggFunc::Min, Expr::col(2), "first_ts"),
                ],
            )
            .unwrap();
        assert_eq!(p.schema.arity(), 3);
        assert_eq!(p.schema.column(0).name, "skill");
        assert_eq!(p.schema.column(1).ty, SqlType::Int);
    }

    #[test]
    fn temporal_aggregate_schema_has_period_last() {
        let p = Plan::scan("works", works_schema())
            .temporal_aggregate(vec![1], vec![AggExpr::count_star("cnt")], false, (0, 24))
            .unwrap();
        let names: Vec<&str> = p.schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["skill", "cnt", "__ts", "__te"]);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn coalesce_requires_period_columns() {
        let _ = Plan::scan("x", Schema::of(&[("a", SqlType::Str)])).coalesce();
    }

    /// Over an operator that already emits the coalesced encoding, a
    /// coalesce is that operator; over anything else it is a node.
    #[test]
    fn coalesce_is_absorbed_where_it_does_nothing() {
        let scan = || Plan::scan("works", works_schema());
        let aggregate = scan()
            .temporal_aggregate(vec![1], vec![AggExpr::count_star("cnt")], false, (0, 24))
            .unwrap();
        let except = scan().temporal_except_all(scan()).unwrap();
        let coalesced = scan().coalesce();
        for p in [aggregate, except, coalesced] {
            assert_eq!(p.clone().coalesce(), p);
        }
        let over_join = scan()
            .join(scan(), Expr::lit(true))
            .project_cols(&[0, 1, 2, 3]);
        let PlanNode::Coalesce { input } = over_join.clone().coalesce().node else {
            panic!("a coalesce over a join stays a node")
        };
        assert_eq!(*input, over_join);
    }

    #[test]
    fn values_arity_checked() {
        let res = std::panic::catch_unwind(|| {
            Plan::values(Schema::of(&[("a", SqlType::Int)]), vec![row![1, 2]])
        });
        assert!(res.is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = Plan::scan("works", works_schema())
            .filter(Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit("SP")))
            .coalesce();
        let text = p.explain();
        assert!(text.contains("Coalesce"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan works"));
    }

    #[test]
    fn time_range_schema_and_explain() {
        let p = Plan::scan("works", works_schema()).time_range(3, 9);
        assert_eq!(p.schema.arity(), 4);
        assert!(p.explain().contains("TimeRange [3, 9)"));
        assert!(
            std::panic::catch_unwind(|| Plan::scan("works", works_schema()).time_range(9, 9))
                .is_err(),
            "empty windows are rejected"
        );
    }

    #[test]
    fn referenced_tables_deduplicated() {
        let p = Plan::scan("a", works_schema())
            .join(Plan::scan("b", works_schema()), Expr::lit(true))
            .join(Plan::scan("a", works_schema()), Expr::lit(true));
        assert_eq!(p.referenced_tables(), vec!["a", "b"]);
    }
}
