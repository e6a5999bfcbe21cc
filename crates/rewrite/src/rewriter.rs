//! The `REWR` rewriting (paper Figure 4) with the Section 9 optimizations.

use algebra::{AggExpr, AggFunc, Expr, JoinAlgo, Plan, SnapshotNode, SnapshotPlan};
use sql::{BoundStatement, SeqWindow};
use storage::{Catalog, Row, Value};
use timeline::TimeDomain;

/// Optimization switches (paper Section 9). Defaults match the evaluated
/// configuration; `paper_tables ablation` flips them individually.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Apply coalescing once, as the final operator, instead of after every
    /// rewritten operator (justified by Lemma 6.1 and its monus extension).
    pub final_coalesce_only: bool,
    /// Use the engine's fused split operators with pre-aggregation for
    /// snapshot aggregation and bag difference instead of materializing
    /// `N_G` output.
    pub fused_split: bool,
    /// Physical-choice hint stamped on the interval-overlap joins the
    /// rewriting produces. [`JoinAlgo::Auto`] (the default) lets the engine
    /// pick the indexed sweep when table indexes are available; pinning a
    /// variant is how the harness compares join routes.
    pub temporal_join_algo: JoinAlgo,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            final_coalesce_only: true,
            fused_split: true,
            temporal_join_algo: JoinAlgo::Auto,
        }
    }
}

/// Compiles snapshot plans into executable plans over period relations.
#[derive(Debug, Clone)]
pub struct SnapshotCompiler {
    domain: TimeDomain,
    options: RewriteOptions,
}

impl SnapshotCompiler {
    /// Compiler for a database over the given time domain, with the paper's
    /// default optimizations.
    pub fn new(domain: TimeDomain) -> Self {
        SnapshotCompiler {
            domain,
            options: RewriteOptions::default(),
        }
    }

    /// Compiler with explicit options.
    pub fn with_options(domain: TimeDomain, options: RewriteOptions) -> Self {
        SnapshotCompiler { domain, options }
    }

    /// The time domain.
    pub fn domain(&self) -> TimeDomain {
        self.domain
    }

    /// Applies `REWR` to a snapshot plan. The result is an ordinary plan
    /// over the period encoding whose schema is the snapshot plan's data
    /// schema followed by the two period columns.
    pub fn compile(&self, plan: &SnapshotPlan, catalog: &Catalog) -> Result<Plan, String> {
        let rewritten = self.rewr(plan, catalog, None)?;
        Ok(if self.options.final_coalesce_only {
            rewritten.coalesce()
        } else {
            rewritten
        })
    }

    /// Convenience: compiles a bound statement — snapshot queries via
    /// [`SnapshotCompiler::compile`], [`SnapshotCompiler::compile_timeslice`]
    /// (`AS OF`), or [`SnapshotCompiler::compile_between`] (`BETWEEN`)
    /// according to the block's window, plus the outer ORDER BY; plain
    /// queries pass through.
    pub fn compile_statement(
        &self,
        bound: &BoundStatement,
        catalog: &Catalog,
    ) -> Result<Plan, String> {
        match bound {
            BoundStatement::Query(p) => Ok(p.clone()),
            BoundStatement::Snapshot {
                plan,
                order_by,
                window,
            } => {
                let mut p = match window {
                    SeqWindow::Full => self.compile(plan, catalog)?,
                    SeqWindow::AsOf(at) => self.compile_timeslice(plan, catalog, *at)?,
                    SeqWindow::Between(t1, t2) => self.compile_between(plan, catalog, *t1, *t2)?,
                };
                if !order_by.is_empty() {
                    p = p.sort(order_by.clone());
                }
                Ok(p)
            }
        }
    }

    /// Compiles a snapshot plan into a *range-restricted* plan: the period
    /// encoding of the query result over the snapshots at `t1 <= t <= t2`
    /// (both inclusive), i.e. the full result with every interval clipped
    /// to the window and window-external tuples dropped.
    ///
    /// Like [`SnapshotCompiler::compile_timeslice`], the restriction is
    /// pushed to the leaves (timeslices commute with every snapshot
    /// operator, Theorem 6.3, applied point-wise across the window): each
    /// base-table access keeps only the rows whose validity interval
    /// overlaps the window — an `O(log n + k)` interval-tree probe
    /// (`IntervalTree::overlapping`) when the table is indexed — with their
    /// periods clipped to it, and the ordinary `REWR` rewriting runs on
    /// top. Gap rows of global aggregation span the window instead of the
    /// full time domain.
    pub fn compile_between(
        &self,
        plan: &SnapshotPlan,
        catalog: &Catalog,
        t1: i64,
        t2: i64,
    ) -> Result<Plan, String> {
        if t1 > t2 {
            return Err(format!(
                "empty SEQ VT window: BETWEEN {t1} AND {t2} has no time points"
            ));
        }
        let window = (t1, t2.saturating_add(1));
        let rewritten = self.rewr(plan, catalog, Some(window))?;
        Ok(if self.options.final_coalesce_only {
            rewritten.coalesce()
        } else {
            rewritten
        })
    }

    /// Compiles a snapshot plan into a *point-in-time* plan: the snapshot of
    /// the query result at time `at`, as a plain (non-temporal) relation.
    ///
    /// Because the timeslice is a semiring homomorphism it commutes with
    /// every snapshot operator (Theorem 6.3), so instead of evaluating the
    /// full temporal query and slicing the result, the timeslice is pushed
    /// to the leaves: each base-table access becomes
    /// `Timeslice(Scan)` — which the engine answers with an `O(log n + k)`
    /// interval-tree stab when the table is indexed — and the query above it
    /// runs as an ordinary non-temporal plan.
    pub fn compile_timeslice(
        &self,
        plan: &SnapshotPlan,
        catalog: &Catalog,
        at: i64,
    ) -> Result<Plan, String> {
        match &plan.node {
            SnapshotNode::Access {
                table,
                data_cols,
                period,
            } => {
                let stored = catalog.require(table)?;
                let scan = Plan::scan(table.clone(), stored.schema().clone());
                // Reshape to period-last for the timeslice. When the stored
                // period already trails, `project` hands the bare scan back
                // — the indexed fast path.
                let kept: Vec<usize> = (0..stored.schema().arity())
                    .filter(|i| *i != period.0 && *i != period.1)
                    .collect();
                let mut exprs: Vec<Expr> = kept.iter().map(|&i| Expr::Col(i)).collect();
                exprs.push(Expr::Col(period.0));
                exprs.push(Expr::Col(period.1));
                let names: Vec<String> = (0..exprs.len()).map(|i| format!("__c{i}")).collect();
                let sliced = scan.project(exprs, names)?.timeslice(at);
                // Project to the visible data columns, in `data_cols` order.
                let mut exprs = Vec::with_capacity(data_cols.len());
                for &want in data_cols {
                    let pos = kept
                        .iter()
                        .position(|&k| k == want)
                        .ok_or_else(|| format!("data column {want} is a period column"))?;
                    exprs.push(Expr::Col(pos));
                }
                let names: Vec<String> = plan
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                sliced.project(exprs, names)
            }
            SnapshotNode::Filter { input, predicate } => Ok(self
                .compile_timeslice(input, catalog, at)?
                .filter(predicate.clone())),
            SnapshotNode::Project { input, exprs } => {
                let names: Vec<String> = plan
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                self.compile_timeslice(input, catalog, at)?
                    .project(exprs.clone(), names)
            }
            SnapshotNode::Join {
                left,
                right,
                condition,
            } => Ok(self.compile_timeslice(left, catalog, at)?.join(
                self.compile_timeslice(right, catalog, at)?,
                condition.clone(),
            )),
            SnapshotNode::Union { left, right } => self
                .compile_timeslice(left, catalog, at)?
                .union(self.compile_timeslice(right, catalog, at)?),
            SnapshotNode::ExceptAll { left, right } => self
                .compile_timeslice(left, catalog, at)?
                .except_all(self.compile_timeslice(right, catalog, at)?),
            SnapshotNode::Aggregate {
                input,
                group_cols,
                aggs,
            } => self
                .compile_timeslice(input, catalog, at)?
                .aggregate(group_cols.clone(), aggs.clone()),
        }
    }

    fn maybe_c(&self, plan: Plan) -> Plan {
        if self.options.final_coalesce_only {
            plan
        } else {
            plan.coalesce()
        }
    }

    /// The `REWR` recursion. With `window = Some([w0, w1))` the compilation
    /// is *range-restricted*: every base access keeps only rows overlapping
    /// the window (a [`Plan::time_range`] the engine can answer with an
    /// interval-tree overlap probe) with their periods clipped to it, and
    /// gap rows of global aggregation span the window instead of the time
    /// domain. Snapshot-at-`t` of the clipped access equals that of the
    /// stored table for every `t` in the window, so the rewriting above the
    /// leaves is unchanged.
    fn rewr(
        &self,
        plan: &SnapshotPlan,
        catalog: &Catalog,
        window: Option<(i64, i64)>,
    ) -> Result<Plan, String> {
        match &plan.node {
            SnapshotNode::Access {
                table,
                data_cols,
                period,
            } => {
                let stored = catalog.require(table)?;
                let scan = Plan::scan(table.clone(), stored.schema().clone());
                // An identity access (data columns in stored order, period
                // trailing) comes back from `project` as the bare scan, so
                // the engine sees indexed base tables underneath temporal
                // joins, timeslices, and coalescing (`indexed_scan` matches
                // `Scan` leaves only).
                let mut exprs: Vec<Expr> = data_cols.iter().map(|&i| Expr::Col(i)).collect();
                exprs.push(Expr::Col(period.0));
                exprs.push(Expr::Col(period.1));
                let mut names: Vec<String> = plan
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                names.push("__ts".into());
                names.push("__te".into());
                let base = scan.project(exprs, names)?;
                // REWR(R) = R: no coalescing on base access (Figure 4).
                let Some((w0, w1)) = window else {
                    return Ok(base);
                };
                // Range restriction: keep overlapping rows (indexed overlap
                // probe for identity accesses) and clip periods to the
                // window.
                let d = base.schema.arity() - 2;
                let mut exprs: Vec<Expr> = (0..d).map(Expr::Col).collect();
                exprs.push(Expr::Greatest(vec![Expr::Col(d), Expr::lit(w0)]));
                exprs.push(Expr::Least(vec![Expr::Col(d + 1), Expr::lit(w1)]));
                let names = base
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                base.time_range(w0, w1).project(exprs, names)
            }
            SnapshotNode::Filter { input, predicate } => {
                let rin = self.rewr(input, catalog, window)?;
                Ok(self.maybe_c(rin.filter(predicate.clone())))
            }
            SnapshotNode::Project { input, exprs } => {
                let rin = self.rewr(input, catalog, window)?;
                let d = rin.schema.arity() - 2;
                let mut all = exprs.clone();
                all.push(Expr::Col(d));
                all.push(Expr::Col(d + 1));
                let mut names: Vec<String> = plan
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                names.push("__ts".into());
                names.push("__te".into());
                Ok(self.maybe_c(rin.project(all, names)?))
            }
            SnapshotNode::Join {
                left,
                right,
                condition,
            } => {
                let l = self.rewr(left, catalog, window)?;
                let r = self.rewr(right, catalog, window)?;
                let ld = l.schema.arity() - 2; // left data arity
                let rd = r.schema.arity() - 2;
                // The snapshot condition addresses [0..ld) ++ [ld..ld+rd);
                // in the rewritten concat the right block starts at ld + 2.
                let shifted = condition.map_columns(&|i| if i < ld { i } else { i + 2 });
                // overlaps(Q1, Q2): lts < rte AND rts < lte.
                let (lts, lte) = (ld, ld + 1);
                let (rts, rte) = (ld + 2 + rd, ld + 2 + rd + 1);
                let full = shifted
                    .and(Expr::Col(lts).lt(Expr::Col(rte)))
                    .and(Expr::Col(rts).lt(Expr::Col(lte)));
                let joined = l.join_with(r, full, self.options.temporal_join_algo);
                // Π over data columns plus the intersected period:
                // [max(lts, rts), min(lte, rte)).
                let mut exprs: Vec<Expr> = (0..ld).map(Expr::Col).collect();
                exprs.extend((ld + 2..ld + 2 + rd).map(Expr::Col));
                exprs.push(Expr::Greatest(vec![Expr::Col(lts), Expr::Col(rts)]));
                exprs.push(Expr::Least(vec![Expr::Col(lte), Expr::Col(rte)]));
                let mut names: Vec<String> = plan
                    .schema
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect();
                names.push("__ts".into());
                names.push("__te".into());
                Ok(self.maybe_c(joined.project(exprs, names)?))
            }
            SnapshotNode::Union { left, right } => {
                let l = self.rewr(left, catalog, window)?;
                let r = self.rewr(right, catalog, window)?;
                Ok(self.maybe_c(l.union(r)?))
            }
            SnapshotNode::ExceptAll { left, right } => {
                let l = self.rewr(left, catalog, window)?;
                let r = self.rewr(right, catalog, window)?;
                if self.options.fused_split {
                    return Ok(self.maybe_c(l.temporal_except_all(r)?));
                }
                // Literal Figure 4: C(N_sch(R1,R2) −bag N_sch(R2,R1)).
                let d = l.schema.arity() - 2;
                let group: Vec<usize> = (0..d).collect();
                let nl = l.clone().split(r.clone(), group.clone())?;
                let nr = r.split(l, group)?;
                Ok(self.maybe_c(nl.except_all(nr)?))
            }
            SnapshotNode::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let rin = self.rewr(input, catalog, window)?;
                let (tmin, tmax) = window
                    .unwrap_or_else(|| (self.domain.tmin().value(), self.domain.tmax().value()));
                if self.options.fused_split {
                    return Ok(self.maybe_c(rin.temporal_aggregate(
                        group_cols.clone(),
                        aggs.clone(),
                        group_cols.is_empty(),
                        (tmin, tmax),
                    )?));
                }
                self.rewrite_aggregate_unfused(rin, group_cols, aggs, (tmin, tmax))
                    .map(|p| self.maybe_c(p))
            }
        }
    }

    /// The literal Figure 4 aggregation rewrites, including the
    /// `count(*) → count(A) over Π_{1→A}` preprocessing rule.
    fn rewrite_aggregate_unfused(
        &self,
        rin: Plan,
        group_cols: &[usize],
        aggs: &[AggExpr],
        (tmin, tmax): (i64, i64),
    ) -> Result<Plan, String> {
        let mut rin = rin;
        let mut aggs = aggs.to_vec();
        let d = rin.schema.arity() - 2;

        // count(*) preprocessing: project a constant-1 column A so that the
        // neutral NULL tuple is not counted.
        if aggs.iter().any(|a| a.func == AggFunc::CountStar) {
            let mut exprs: Vec<Expr> = (0..d).map(Expr::Col).collect();
            exprs.push(Expr::lit(1i64));
            exprs.push(Expr::Col(d));
            exprs.push(Expr::Col(d + 1));
            let mut names: Vec<String> = rin
                .schema
                .columns()
                .iter()
                .take(d)
                .map(|c| c.name.clone())
                .collect();
            names.push("__one".into());
            names.push("__ts".into());
            names.push("__te".into());
            rin = rin.project(exprs, names)?;
            for a in &mut aggs {
                if a.func == AggFunc::CountStar {
                    a.func = AggFunc::Count;
                    a.arg = Some(Expr::Col(d));
                }
            }
        }
        let d = rin.schema.arity() - 2;
        let (ts, te) = (d, d + 1);

        if group_cols.is_empty() {
            // REWR(γf(A)(Q)) =
            //   C(γ_{Ab,Ae;f(A)}(N_∅(REWR(Q) ∪ {(null, Tmin, Tmax)}, REWR(Q))))
            let mut neutral = vec![Value::Null; d];
            neutral.push(Value::Int(tmin));
            neutral.push(Value::Int(tmax));
            let values = Plan::values(rin.schema.clone(), vec![Row::new(neutral)]);
            let unioned = rin.clone().union(values)?;
            let split = unioned.split(rin, vec![])?;
            let n_aggs = aggs.len();
            let agg = split.aggregate(vec![ts, te], aggs)?;
            // [ts, te, aggs...] → [aggs..., ts, te]
            let mut exprs: Vec<Expr> = (2..2 + n_aggs).map(Expr::Col).collect();
            exprs.push(Expr::Col(0));
            exprs.push(Expr::Col(1));
            let mut names: Vec<String> = agg
                .schema
                .columns()
                .iter()
                .skip(2)
                .map(|c| c.name.clone())
                .collect();
            names.push("__ts".into());
            names.push("__te".into());
            agg.project(exprs, names)
        } else {
            // REWR(Gγf(A)(Q)) = C(γ_{G,Ab,Ae;f(A)}(N_G(REWR(Q), REWR(Q))))
            let split = rin.clone().split(rin, group_cols.to_vec())?;
            let mut gcols = group_cols.to_vec();
            gcols.push(ts);
            gcols.push(te);
            let g = group_cols.len();
            let n_aggs = aggs.len();
            let agg = split.aggregate(gcols, aggs)?;
            // [G..., ts, te, aggs...] → [G..., aggs..., ts, te]
            let mut exprs: Vec<Expr> = (0..g).map(Expr::Col).collect();
            exprs.extend((g + 2..g + 2 + n_aggs).map(Expr::Col));
            exprs.push(Expr::Col(g));
            exprs.push(Expr::Col(g + 1));
            let mut names: Vec<String> = agg
                .schema
                .columns()
                .iter()
                .take(g)
                .map(|c| c.name.clone())
                .collect();
            names.extend(
                agg.schema
                    .columns()
                    .iter()
                    .skip(g + 2)
                    .map(|c| c.name.clone()),
            );
            names.push("__ts".into());
            names.push("__te".into());
            agg.project(exprs, names)
        }
    }
}

/// Derives the time domain `[Tmin, Tmax)` of a database from the period
/// endpoints present in its tables (falls back to `[0, 1)` for an empty
/// catalog). Each table keeps its own extent current
/// ([`storage::Table::period_extent`]), so this reads one pair per table.
pub fn infer_domain(catalog: &Catalog) -> TimeDomain {
    catalog
        .table_names()
        .filter_map(|name| catalog.get(name)?.period_extent())
        .reduce(|(lo, hi), (b, e)| (lo.min(b), hi.max(e)))
        .map_or(TimeDomain::new(0, 1), |(lo, hi)| TimeDomain::new(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periodenc::{decode_rows, decode_table};
    use engine::Engine;
    use semiring::Natural;
    use snapshot_core::PeriodRelation;
    use sql::{bind_statement, parse_statement};
    use storage::{row, Schema, SqlType, Table};

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

    fn run(sql: &str, options: RewriteOptions) -> Table {
        let c = catalog();
        let stmt = parse_statement(sql).unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let compiler = SnapshotCompiler::with_options(TimeDomain::new(0, 24), options);
        let plan = compiler.compile_statement(&bound, &c).unwrap();
        Engine::new().execute(&plan, &c).unwrap().canonicalized()
    }

    #[test]
    fn q_onduty_matches_figure_1b() {
        let out = run(
            "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
            RewriteOptions::default(),
        );
        assert_eq!(
            out.rows(),
            &[
                row![0, 0, 3],
                row![0, 16, 18],
                row![0, 20, 24],
                row![1, 3, 8],
                row![1, 10, 16],
                row![1, 18, 20],
                row![2, 8, 10],
            ]
        );
    }

    #[test]
    fn q_skillreq_matches_figure_1c() {
        let out = run(
            "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)",
            RewriteOptions::default(),
        );
        assert_eq!(
            out.rows(),
            &[row!["NS", 3, 8], row!["SP", 6, 8], row!["SP", 10, 12],]
        );
    }

    #[test]
    fn all_option_combinations_agree() {
        let combos = [(true, true), (true, false), (false, true), (false, false)];
        let queries = [
            "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
            "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)",
            "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)",
            "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill)",
            "SEQ VT (SELECT name FROM works UNION ALL SELECT mach FROM assign)",
        ];
        for q in queries {
            let reference = run(q, RewriteOptions::default());
            for (fc, fs) in combos {
                let out = run(
                    q,
                    RewriteOptions {
                        final_coalesce_only: fc,
                        fused_split: fs,
                        ..RewriteOptions::default()
                    },
                );
                assert_eq!(
                    out.rows(),
                    reference.rows(),
                    "options (final_coalesce_only={fc}, fused_split={fs}) diverge on {q}"
                );
            }
        }
    }

    /// Theorem 8.1: the commuting diagram — running REWR(Q) on PERIODENC(R)
    /// equals PERIODENC(Q(R)) where Q runs in the logical model.
    #[test]
    fn commuting_diagram_join() {
        let c = catalog();
        let domain = TimeDomain::new(0, 24);
        let stmt = parse_statement(
            "SEQ VT (SELECT w.skill FROM works w JOIN assign a ON w.skill = a.skill)",
        )
        .unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let compiler = SnapshotCompiler::new(domain);
        let plan = compiler.compile_statement(&bound, &c).unwrap();
        let via_rewrite = Engine::new().execute(&plan, &c).unwrap();
        let decoded = decode_rows(via_rewrite.rows(), via_rewrite.schema().arity(), domain);

        // Same query in the logical model.
        let works = decode_table(c.get("works").unwrap(), domain);
        let assign = decode_table(c.get("assign").unwrap(), domain);
        let logical: PeriodRelation<Row, Natural> = works
            .join(&assign, |w, a| {
                (w.get(1) == a.get(1)).then(|| Row::new(vec![w.get(1).clone()]))
            })
            .project(|t| t.clone());
        assert_eq!(decoded, logical);
    }

    #[test]
    fn rewritten_plan_contains_expected_operators() {
        let c = catalog();
        let explain = |sql: &str| {
            let bound = bind_statement(&parse_statement(sql).unwrap(), &c).unwrap();
            SnapshotCompiler::new(TimeDomain::new(0, 24))
                .compile_statement(&bound, &c)
                .unwrap()
                .explain()
        };
        // The fused aggregation emits the coalesced encoding itself: the
        // final coalesce is absorbed into it.
        let text = explain("SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')");
        assert!(
            text.starts_with("TemporalAggregate"),
            "fused aggregation on top:\n{text}"
        );
        assert!(!text.contains("Coalesce"), "no coalesce left:\n{text}");
        let text = explain(
            "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill)",
        );
        assert_eq!(
            text.matches("Coalesce").count(),
            1,
            "single final coalesce:\n{text}"
        );
    }

    #[test]
    fn naive_options_insert_per_operator_coalesce() {
        let c = catalog();
        let stmt = parse_statement("SEQ VT (SELECT skill FROM works WHERE skill = 'SP')").unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let plan = SnapshotCompiler::with_options(
            TimeDomain::new(0, 24),
            RewriteOptions {
                final_coalesce_only: false,
                fused_split: false,
                ..RewriteOptions::default()
            },
        )
        .compile_statement(&bound, &c)
        .unwrap();
        assert!(plan.explain().matches("Coalesce").count() >= 2);
    }

    #[test]
    fn compile_timeslice_via_as_of_window() {
        // `SEQ VT AS OF t` routes through compile_timeslice and yields the
        // Figure 1b snapshot at t as a plain relation.
        let c = catalog();
        let stmt = parse_statement(
            "SEQ VT AS OF 9 (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
        )
        .unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let plan = SnapshotCompiler::new(TimeDomain::new(0, 24))
            .compile_statement(&bound, &c)
            .unwrap();
        let out = Engine::new().execute(&plan, &c).unwrap();
        assert_eq!(out.rows(), &[row![2]]); // Ann [3,10) and Sam [8,16)
        assert!(plan.explain().contains("Timeslice"));
    }

    #[test]
    fn compile_between_matches_clipped_full_result() {
        // The range-restricted compilation equals the full compilation with
        // every interval clipped to the (inclusive) window, for the whole
        // query suite of this module.
        let c = catalog();
        let domain = TimeDomain::new(0, 24);
        let queries = [
            "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
            "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)",
            "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)",
            "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill)",
            "SEQ VT (SELECT name FROM works UNION ALL SELECT mach FROM assign)",
        ];
        let compiler = SnapshotCompiler::new(domain);
        for q in queries {
            let stmt = parse_statement(q).unwrap();
            let bound = bind_statement(&stmt, &c).unwrap();
            let BoundStatement::Snapshot { plan, .. } = &bound else {
                panic!()
            };
            for (t1, t2) in [(0i64, 23i64), (5, 12), (9, 9)] {
                let ranged = compiler.compile_between(plan, &c, t1, t2).unwrap();
                let got = Engine::new().execute(&ranged, &c).unwrap().canonicalized();

                // Reference: clip the full result to [t1, t2 + 1).
                let full_plan = compiler.compile(plan, &c).unwrap();
                let full = Engine::new().execute(&full_plan, &c).unwrap();
                let n = full.schema().arity();
                let (w0, w1) = (t1, t2 + 1);
                let mut want: Vec<Row> = full
                    .rows()
                    .iter()
                    .filter(|r| r.int(n - 2) < w1 && w0 < r.int(n - 1))
                    .map(|r| {
                        let mut vals = r.values().to_vec();
                        vals[n - 2] = Value::Int(r.int(n - 2).max(w0));
                        vals[n - 1] = Value::Int(r.int(n - 1).min(w1));
                        Row::new(vals)
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got.rows(), want.as_slice(), "{q} BETWEEN {t1} AND {t2}");
            }
        }
        // Degenerate windows are rejected.
        let stmt = parse_statement(queries[0]).unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let BoundStatement::Snapshot { plan, .. } = &bound else {
            panic!()
        };
        assert!(compiler.compile_between(plan, &c, 5, 4).is_err());

        // A window reaching beyond the stored data behaves like AS OF does
        // there: the global count is 0, as gap rows span the *window*.
        let ranged = compiler.compile_between(plan, &c, -3, 40).unwrap();
        let got = Engine::new().execute(&ranged, &c).unwrap().canonicalized();
        assert!(got.rows().contains(&row![0, -3, 3]), "{got}");
        assert!(got.rows().contains(&row![0, 20, 41]), "{got}");
    }

    #[test]
    fn compile_between_via_sql_window_uses_time_range() {
        let c = catalog();
        let stmt = parse_statement(
            "SEQ VT BETWEEN 5 AND 12 (SELECT skill, count(*) AS c FROM works GROUP BY skill)",
        )
        .unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let plan = SnapshotCompiler::new(TimeDomain::new(0, 24))
            .compile_statement(&bound, &c)
            .unwrap();
        let text = plan.explain();
        assert!(
            text.contains("TimeRange [5, 13)"),
            "range pushdown:\n{text}"
        );
        let out = Engine::new().execute(&plan, &c).unwrap();
        let n = out.schema().arity();
        for r in out.rows() {
            assert!(r.int(n - 2) >= 5 && r.int(n - 1) <= 13, "clipped: {r}");
        }
    }

    #[test]
    fn infer_domain_from_catalog() {
        let d = infer_domain(&catalog());
        assert_eq!(d, TimeDomain::new(3, 20));
        assert_eq!(infer_domain(&Catalog::new()), TimeDomain::new(0, 1));
    }

    #[test]
    fn plain_statement_passthrough() {
        let c = catalog();
        let stmt = parse_statement("SELECT name FROM works WHERE skill = 'SP'").unwrap();
        let bound = bind_statement(&stmt, &c).unwrap();
        let plan = SnapshotCompiler::new(TimeDomain::new(0, 24))
            .compile_statement(&bound, &c)
            .unwrap();
        let out = Engine::new().execute(&plan, &c).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn snapshot_order_by_applies_after_rewrite() {
        let out = run(
            "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill) ORDER BY skill DESC",
            RewriteOptions::default(),
        );
        // canonicalized() re-sorts, so instead check the plan executes; the
        // row set matches the grouped aggregation.
        assert!(out.rows().iter().any(|r| r.get(0) == &Value::str("SP")));
        assert!(out.rows().iter().any(|r| r.get(0) == &Value::str("NS")));
    }
}
