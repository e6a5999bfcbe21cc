//! Plan execution.

use crate::coalesce::try_coalesce_rows;
use crate::eval::{conjuncts, eval_expr, Pair, Prepared};
use crate::sliding::SlidingAgg;
use crate::split::split_rows;
use crate::temporal::{agg_arg, agg_arg_types, temporal_aggregate, temporal_except_all};
use algebra::{BinOp, Expr, JoinAlgo, Plan, PlanNode};
use index::{
    choose_cuts, elementary_boundaries, elementary_boundaries_from_events,
    try_parallel_sweep_join_presorted, try_sweep_join_presorted, IndexCatalog, TableIndex,
};
use snapshot_obs::{self as obs, StatementError};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{Catalog, Row, Table, Value};

/// Join pairs — or, in the linear operators, input rows — between
/// cooperative cancellation checks: frequent enough that a runaway join
/// reacts within microseconds, rare enough that the per-pair cost is one
/// counter bump.
pub(crate) const CANCEL_CHECK_INTERVAL: u64 = 1024;

/// Per-statement execution context: the live [`obs::ResourceAccount`]
/// the operators bump and the [`obs::CancelToken`] they check at batch
/// boundaries. Shared (`Arc`) with the owning session's entry in the
/// activity registry, so `snapshot_stat_progress` sees counters move
/// while the statement runs and `.kill` can reach into the executor. The
/// default context — what an engine built outside a session runs under —
/// owns a private account and a token nobody else holds, so it never
/// cancels.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    account: Arc<obs::ResourceAccount>,
    token: Arc<obs::CancelToken>,
}

impl ExecContext {
    /// Context over a session's shared account and token.
    pub fn new(account: Arc<obs::ResourceAccount>, token: Arc<obs::CancelToken>) -> Self {
        ExecContext { account, token }
    }

    /// The live resource counters.
    pub fn account(&self) -> &obs::ResourceAccount {
        &self.account
    }

    /// The cooperative check (see [`obs::CancelToken::check`]).
    fn check(&self) -> Result<(), StatementError> {
        self.token.check(&self.account)
    }

    /// A linear operator is at its `seen`-th input row: poll the token
    /// every [`CANCEL_CHECK_INTERVAL`] rows.
    fn row_considered(&self, seen: usize) -> Result<(), StatementError> {
        if (seen as u64).is_multiple_of(CANCEL_CHECK_INTERVAL) {
            self.check()?;
        }
        Ok(())
    }

    /// A join has considered its `seen`-th candidate pair: every
    /// [`CANCEL_CHECK_INTERVAL`] pairs the tally is flushed to the account
    /// (so `snapshot_stat_progress` moves while the join runs) and the
    /// token is polled. The caller owns the counter — a plain local for
    /// sequential joins, one shared atomic for the slab workers.
    fn pair_considered(&self, seen: u64) -> Result<(), StatementError> {
        if seen.is_multiple_of(CANCEL_CHECK_INTERVAL) {
            self.account.add_join_pairs(CANCEL_CHECK_INTERVAL);
            self.check()?;
        }
        Ok(())
    }

    /// A join finished after `seen` pairs: account the tail that
    /// [`ExecContext::pair_considered`] has not flushed yet.
    fn pairs_done(&self, seen: u64) {
        self.account.add_join_pairs(seen % CANCEL_CHECK_INTERVAL);
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Worker threads for parallel operators (the endpoint-sweep temporal
    /// join). `0` and `1` both mean sequential execution; above `1` every
    /// sweep join — picked by [`JoinAlgo::Auto`] or pinned by
    /// [`JoinAlgo::Sweep`] — runs slab-parallel with that many slabs at most.
    pub parallelism: usize,
}

/// Per-operator execution counters (operator name → (invocations, rows
/// produced)); useful for explaining benchmark results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    counters: BTreeMap<&'static str, (u64, u64)>,
}

impl ExecStats {
    fn record(&mut self, op: &'static str, rows: usize) {
        let e = self.counters.entry(op).or_insert((0, 0));
        e.0 += 1;
        e.1 += rows as u64;
    }

    /// `(invocations, rows produced)` for an operator name.
    pub fn get(&self, op: &str) -> Option<(u64, u64)> {
        self.counters.get(op).copied()
    }

    /// All counters, sorted by operator name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, (u64, u64))> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Publish these counters into the global metrics registry as
    /// `engine_<op>_invocations_total` / `engine_<op>_rows_total` (operator
    /// names lower-cased). The session layer calls this once per statement
    /// when metrics collection is on, so the per-operator hot path stays a
    /// plain `BTreeMap` bump.
    pub fn publish_to_registry(&self) {
        let reg = obs::registry();
        // lint:allow(cancellation) bounded by the number of operator kinds
        for (op, (invocations, rows)) in self.iter() {
            let op = op.to_lowercase();
            reg.counter(&format!("engine_{op}_invocations_total"))
                .add(invocations);
            reg.counter(&format!("engine_{op}_rows_total")).add(rows);
        }
    }
}

/// Actual execution figures for one plan node, as collected by
/// [`Engine::execute_analyzed`] for `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeActuals {
    /// Times the node produced its output (re-runs under retries add up).
    pub calls: u64,
    /// Total rows produced across calls.
    pub rows: u64,
    /// Total wall-clock nanoseconds, inclusive of children.
    pub nanos: u64,
}

/// Per-plan-node actuals keyed by node *identity* (not operator name, so
/// two `Scan`s of the same table report separately). Valid only for the
/// exact [`Plan`] value that was executed.
#[derive(Debug, Default)]
pub struct NodeStats {
    map: HashMap<usize, NodeActuals>,
}

impl NodeStats {
    fn record(&mut self, plan: &Plan, rows: usize, elapsed: Duration) {
        let e = self.map.entry(plan_key(plan)).or_default();
        e.calls += 1;
        e.rows += rows as u64;
        e.nanos += elapsed.as_nanos() as u64;
    }

    /// Actuals for a node of the executed plan; `None` when the node was
    /// never executed (e.g. an input short-circuited by an indexed route).
    pub fn get(&self, plan: &Plan) -> Option<NodeActuals> {
        self.map.get(&plan_key(plan)).copied()
    }
}

fn plan_key(plan: &Plan) -> usize {
    plan as *const Plan as usize
}

/// Renders `plan` as its EXPLAIN tree with per-node actuals appended:
/// `(actual rows=R calls=C time=T ms)`, or `(never executed)` for nodes an
/// accelerated route short-circuited (e.g. the scan under an indexed
/// timeslice).
pub fn explain_analyzed(plan: &Plan, nodes: &NodeStats) -> String {
    fn walk(out: &mut String, plan: &Plan, depth: usize, nodes: &NodeStats) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&plan.node_label());
        match nodes.get(plan) {
            Some(a) => {
                out.push_str(&format!(
                    " (actual rows={} calls={} time={:.3} ms)",
                    a.rows,
                    a.calls,
                    a.nanos as f64 / 1e6
                ));
            }
            None => out.push_str(" (never executed)"),
        }
        out.push('\n');
        // lint:allow(cancellation) bounded by plan size
        for child in plan.children() {
            walk(out, child, depth + 1, nodes);
        }
    }
    let mut out = String::new();
    walk(&mut out, plan, 0, nodes);
    out
}

/// Resolves a user-facing parallelism setting to a worker count: `0`
/// means one worker per hardware thread (the convention shared by the
/// shell's `--parallelism 0`, the `SNAPSHOT_PARALLELISM` environment
/// variable, and the test harness), anything else passes through.
pub fn resolve_parallelism(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        n
    }
}

/// The in-memory plan executor. Operators run on the calling thread,
/// except the parallel sweep join, which fans slab workers out over
/// `std::thread::scope` when [`EngineConfig::parallelism`] asks for it.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Resource accounting + cooperative cancellation for the statement
    /// being executed.
    ctx: ExecContext,
}

/// Rows handed up the plan: a scan lends the catalog's (or the plan's)
/// slice, every other operator owns what it built. Read-only consumers
/// take the slice; consuming ones call `into_owned` (or [`retain`]).
type Rows<'a> = Cow<'a, [Row]>;

/// The rows of `rows` that satisfy `keep`: moved when owned, cloned — the
/// survivors only — when lent.
fn retain(
    mut rows: Rows<'_>,
    ctx: &ExecContext,
    mut keep: impl FnMut(&Row) -> bool,
) -> Result<Vec<Row>, StatementError> {
    let mut out = Vec::new();
    for n in 0..rows.len() {
        ctx.row_considered(n + 1)?;
        if keep(&rows[n]) {
            out.push(match &mut rows {
                Cow::Borrowed(lent) => lent[n].clone(),
                Cow::Owned(own) => std::mem::take(&mut own[n]),
            });
        }
    }
    Ok(out)
}

/// What one execution runs against and reports into; `run` threads a
/// single `&mut` of it through the plan.
struct ExecEnv<'a> {
    catalog: &'a Catalog,
    /// `None` pins every operator to its naive route.
    indexes: Option<&'a IndexCatalog>,
    stats: &'a mut ExecStats,
    nodes: &'a mut NodeStats,
}

impl Engine {
    /// Engine with default configuration (sequential).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Engine {
            config,
            ctx: ExecContext::default(),
        }
    }

    /// Engine with the given worker-thread count.
    pub fn with_parallelism(parallelism: usize) -> Self {
        Engine::with_config(EngineConfig { parallelism })
    }

    /// Attach a per-statement execution context: operators bump its
    /// resource account and honor its cancellation token.
    pub fn with_context(mut self, ctx: ExecContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Executes a plan on the naive routes only — no index is consulted,
    /// which is what makes this the reference the differential tests and
    /// `.verify on` compare the indexed routes against.
    pub fn execute(&self, plan: &Plan, catalog: &Catalog) -> Result<Table, StatementError> {
        self.execute_analyzed(
            plan,
            catalog,
            None,
            &mut ExecStats::default(),
            &mut NodeStats::default(),
        )
    }

    /// Executes a plan, recording per-operator counters in `stats` and
    /// per-node actuals (row counts, call counts, inclusive wall-clock,
    /// keyed by node identity — what `EXPLAIN ANALYZE` prints) in `nodes`.
    /// With `indexes`, joins and timeslices over indexed base tables
    /// dispatch to the `index` crate's operators (they appear in `stats` as
    /// `IndexSweepJoin`, `IndexTimeslice` and `IndexTimeRange`); everything
    /// else, and any stale index, takes the naive route.
    pub fn execute_analyzed(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        indexes: Option<&IndexCatalog>,
        stats: &mut ExecStats,
        nodes: &mut NodeStats,
    ) -> Result<Table, StatementError> {
        let rows = self.run(
            plan,
            &mut ExecEnv {
                catalog,
                indexes,
                stats,
                nodes,
            },
        )?;
        let mut table = Table::new(plan.schema.clone());
        table.extend(rows.into_owned());
        Ok(table)
    }

    fn run<'a>(&self, plan: &'a Plan, env: &mut ExecEnv<'a>) -> Result<Rows<'a>, StatementError> {
        let started = Instant::now();
        // The span and profile guards are each a single relaxed atomic
        // load when disabled.
        let mut span = obs::Span::enter(op_name(&plan.node));
        let _frame = obs::ProfileSpan::enter(op_name(&plan.node));
        // Operator boundary: a cancelled statement stops before producing
        // another node's output.
        self.ctx.check()?;
        let rows: Rows<'a> = match &plan.node {
            PlanNode::Scan { table } => {
                let t = env.catalog.require(table)?;
                if t.schema().arity() != plan.schema.arity() {
                    return Err(format!(
                        "table '{table}' changed since binding: arity {} vs {}",
                        t.schema().arity(),
                        plan.schema.arity()
                    )
                    .into());
                }
                Cow::Borrowed(t.rows())
            }
            PlanNode::VirtualScan { table } => {
                crate::vtab::virtual_table_rows(table, env.catalog, env.indexes)?.into()
            }
            PlanNode::Values { rows } => Cow::Borrowed(&rows[..]),
            PlanNode::Filter { input, predicate } => {
                let predicate = Prepared::new(predicate);
                retain(self.run(input, env)?, &self.ctx, |r| predicate.holds(r))?.into()
            }
            PlanNode::Project { input, exprs } => {
                let input_rows = self.run(input, env)?;
                let exprs: Vec<Prepared> = exprs.iter().map(Prepared::new).collect();
                input_rows
                    .iter()
                    .map(|r| exprs.iter().map(|e| e.value(r)).collect())
                    .collect()
            }
            PlanNode::Join {
                left,
                right,
                condition,
                algo,
                output,
            } => {
                let l = self.run(left, env)?;
                let r = self.run(right, env)?;
                self.join((left, &l), (right, &r), (condition, output), *algo, env)?
                    .into()
            }
            PlanNode::Union { left, right } => {
                let mut l = self.run(left, env)?.into_owned();
                l.extend(self.run(right, env)?.into_owned());
                l.into()
            }
            PlanNode::ExceptAll { left, right } => {
                let l = self.run(left, env)?;
                let r = self.run(right, env)?;
                except_all(l, &r, &self.ctx)?.into()
            }
            PlanNode::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let input_rows = self.run(input, env)?;
                let arg_types = agg_arg_types(aggs, &input.schema)?;
                hash_aggregate(&input_rows, group_cols, aggs, &arg_types, &self.ctx)?.into()
            }
            PlanNode::Distinct { input } => {
                let input_rows = self.run(input, env)?;
                let set: std::collections::BTreeSet<&Row> = input_rows.iter().collect();
                set.into_iter().cloned().collect()
            }
            PlanNode::Sort { input, keys } => {
                let mut input_rows = self.run(input, env)?.into_owned();
                input_rows.sort_by(|a, b| {
                    // lint:allow(cancellation) bounded by sort-key arity
                    for (e, asc) in keys {
                        let (va, vb) = (eval_expr(e, a), eval_expr(e, b));
                        let ord = va.cmp(&vb);
                        let ord = if *asc { ord } else { ord.reverse() };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                input_rows.into()
            }
            PlanNode::Coalesce { input } => {
                let input_rows = self.run(input, env)?.into_owned();
                try_coalesce_rows(input_rows, input.schema.arity(), || self.ctx.check())?.into()
            }
            PlanNode::Timeslice { input, at } => {
                let at = *at;
                self.period_filter(
                    input,
                    env,
                    ("IndexTimeslice", "NaiveTimeslice"),
                    |idx, table| idx.timeslice_rows(table, at),
                    |ts, te| ts <= at && at < te,
                )?
                .into()
            }
            PlanNode::TimeRange { input, range } => {
                let (b, e) = *range;
                self.period_filter(
                    input,
                    env,
                    ("IndexTimeRange", "NaiveTimeRange"),
                    |idx, table| idx.overlapping_rows(table, b, e),
                    |ts, te| ts < e && b < te,
                )?
                .into()
            }
            PlanNode::Split {
                left,
                right,
                group_cols,
            } => {
                let l = self.run(left, env)?;
                let r = self.run(right, env)?;
                split_rows(&l, &r, group_cols, left.schema.arity()).into()
            }
            PlanNode::TemporalAggregate {
                input,
                group_cols,
                aggs,
                add_gap_neutral,
                domain,
            } => {
                let input_rows = self.run(input, env)?;
                let arg_types = agg_arg_types(aggs, &input.schema)?;
                temporal_aggregate(
                    &input_rows,
                    input.schema.arity(),
                    group_cols,
                    aggs,
                    &arg_types,
                    *add_gap_neutral,
                    *domain,
                    || self.ctx.check(),
                )?
                .into()
            }
            PlanNode::TemporalExceptAll { left, right } => {
                let l = self.run(left, env)?;
                let r = self.run(right, env)?;
                temporal_except_all(&l, &r, left.schema.arity(), || self.ctx.check())?.into()
            }
        };
        span.record_rows(rows.len() as u64);
        env.stats.record(op_name(&plan.node), rows.len());
        env.nodes.record(plan, rows.len(), started.elapsed());
        let n = rows.len() as u64;
        let account = &self.ctx.account;
        account.add_rows_emitted(n);
        // Approximate materialization: rows × arity × a 16-byte value.
        account.add_bytes_materialized(n * plan.schema.arity() as u64 * 16);
        if matches!(
            plan.node,
            PlanNode::Scan { .. } | PlanNode::VirtualScan { .. } | PlanNode::Values { .. }
        ) {
            account.add_rows_scanned(n);
        }
        // Re-check after bumping so `max_rows_scanned` /
        // `max_result_rows` trip at the node that crossed them.
        self.ctx.check()?;
        Ok(rows)
    }

    /// `Timeslice` / `TimeRange`: the rows of `input` whose period (the
    /// trailing two columns) satisfies `keep(ts, te)`. A scanned table with
    /// a fresh index over exactly those columns answers through `probe`
    /// (an interval-tree stab or overlap probe); anything else filters the
    /// materialized input. `ops` names the indexed and the linear route in
    /// [`ExecStats`].
    fn period_filter<'a>(
        &self,
        input: &'a Plan,
        env: &mut ExecEnv<'a>,
        ops: (&'static str, &'static str),
        probe: impl FnOnce(&TableIndex, &Table) -> Vec<Row>,
        keep: impl Fn(i64, i64) -> bool,
    ) -> Result<Vec<Row>, StatementError> {
        let n = input.schema.arity();
        let indexed = indexed_scan(input, env.catalog, env.indexes)?
            .filter(|(idx, _)| n >= 2 && idx.period() == (n - 2, n - 1));
        let (op, rows) = match indexed {
            Some((idx, table)) => {
                self.ctx.account.add_index_probes(1);
                (ops.0, probe(idx, table))
            }
            None => {
                let rows = retain(self.run(input, env)?, &self.ctx, |r| {
                    keep(r.int(n - 2), r.int(n - 1))
                })?;
                (ops.1, rows)
            }
        };
        env.stats.record(op, rows.len());
        Ok(rows)
    }

    /// Joins two materialized inputs; each side is `(plan, rows)` — the
    /// plan carries the schema and reveals an indexed scan. A pair that
    /// satisfies `condition` emits one row: the `output` expressions over it.
    fn join(
        &self,
        (left_plan, left): (&Plan, &[Row]),
        (right_plan, right): (&Plan, &[Row]),
        (condition, output): (&Expr, &[Expr]),
        algo: JoinAlgo,
        env: &mut ExecEnv<'_>,
    ) -> Result<Vec<Row>, StatementError> {
        let ctx = &self.ctx;
        let l_arity = left_plan.schema.arity();
        let r_arity = right_plan.schema.arity();
        let conjuncts = conjuncts(condition);
        let equi = equi_keys(&conjuncts, l_arity);
        let overlap = overlap_pattern(&conjuncts, l_arity, r_arity);

        // Physical choice: the plan hint wins; Auto is index-aware. An
        // index is only usable for the sweep when it was built on the very
        // columns the overlap pattern sweeps (the trailing period pair) —
        // a table whose declared period sits elsewhere would hand the
        // sweep a begin order over the wrong columns.
        let (l_index, r_index) = match overlap {
            Some((lts, lte, rts, rte)) => (
                indexed_scan(left_plan, env.catalog, env.indexes)?
                    .map(|(idx, _)| idx)
                    .filter(|idx| idx.period() == (lts, lte)),
                indexed_scan(right_plan, env.catalog, env.indexes)?
                    .map(|(idx, _)| idx)
                    .filter(|idx| idx.period() == (rts, rte)),
            ),
            None => (None, None),
        };
        let both_indexed = l_index.is_some() && r_index.is_some();
        // Auto resolution: equality conjuncts win — a hash join touches
        // only key matches, while the sweep would enumerate every
        // temporally co-valid pair across all keys before the equality
        // filter. The indexed sweep is the automatic choice only for
        // *pure* overlap joins.
        let resolved = match algo {
            JoinAlgo::Auto if overlap.is_some() && both_indexed && equi.is_empty() => {
                JoinAlgo::Sweep
            }
            JoinAlgo::Auto if !equi.is_empty() => JoinAlgo::Hash,
            JoinAlgo::Auto => JoinAlgo::NestedLoop,
            explicit => explicit,
        };

        // A pair that passed a join's own matching still has to satisfy
        // the full condition (residual conjuncts included); both it and
        // the output row are prepared once here and evaluated on the
        // borrowed pair, so a rejected pair allocates nothing and a
        // surviving one allocates once.
        let condition = Prepared::new(condition);
        let output: Vec<Prepared> = output.iter().map(Prepared::new).collect();
        let matched = |l: &Row, r: &Row| {
            let pair = Pair(l, r);
            condition
                .holds(&pair)
                .then(|| output.iter().map(|e| e.value(&pair)).collect::<Row>())
        };

        Ok(match (resolved, overlap) {
            (JoinAlgo::Sweep, Some((lts, lte, rts, rte))) => {
                let l_sorted = begin_sorted(left, l_index, lts);
                let r_sorted = begin_sorted(right, r_index, rts);
                ctx.account
                    .add_index_probes(if both_indexed { 2 } else { 0 });
                if self.config.parallelism > 1 {
                    // A worker pool runs the sweep slab-parallel (the same
                    // bag by the credit rule; the differential tests
                    // enforce it). Slab boundaries follow the elementary
                    // intervals of the join's endpoint domain; with both
                    // sides indexed they come out of the prebuilt event
                    // lists in O(n).
                    let boundaries = match (l_index, r_index) {
                        (Some(li), Some(ri)) => {
                            elementary_boundaries_from_events(li.events(), ri.events())
                        }
                        _ => elementary_boundaries(&l_sorted, (lts, lte), &r_sorted, (rts, rte)),
                    };
                    let cuts = choose_cuts(&boundaries, self.config.parallelism);
                    // Slab workers share one pair counter, so a kill or
                    // timeout lands mid-sweep on every thread.
                    let pairs = AtomicU64::new(0);
                    let (out, pstats) = try_parallel_sweep_join_presorted(
                        &l_sorted,
                        &r_sorted,
                        (lts, lte),
                        (rts, rte),
                        &cuts,
                        |l, r| -> Result<_, StatementError> {
                            ctx.pair_considered(pairs.fetch_add(1, Ordering::Relaxed) + 1)?;
                            Ok(matched(l, r))
                        },
                    )?;
                    ctx.pairs_done(pairs.load(Ordering::Relaxed));
                    env.stats.record("ParallelSweepJoin", out.len());
                    env.stats.record("ParallelSweepSlabs", pstats.slabs);
                    out
                } else {
                    let mut out = Vec::new();
                    let mut pairs = 0u64;
                    try_sweep_join_presorted(
                        &l_sorted,
                        &r_sorted,
                        (lts, lte),
                        (rts, rte),
                        |l, r| -> Result<(), StatementError> {
                            pairs += 1;
                            ctx.pair_considered(pairs)?;
                            out.extend(matched(l, r));
                            Ok(())
                        },
                    )?;
                    ctx.pairs_done(pairs);
                    let op = if both_indexed {
                        "IndexSweepJoin"
                    } else {
                        "SweepJoin"
                    };
                    env.stats.record(op, out.len());
                    out
                }
            }
            (JoinAlgo::Hash | JoinAlgo::Sweep, _) if !equi.is_empty() => {
                let out = hash_join(left, right, &equi, ctx, matched)?;
                env.stats.record("HashJoin", out.len());
                out
            }
            _ => {
                // Nested loop fallback.
                let mut out = Vec::new();
                let mut pairs = 0u64;
                for l in left {
                    for r in right {
                        pairs += 1;
                        ctx.pair_considered(pairs)?;
                        out.extend(matched(l, r));
                    }
                }
                ctx.pairs_done(pairs);
                env.stats.record("NestedLoopJoin", out.len());
                out
            }
        })
    }
}

/// When `plan` is a scan of a table with a fresh index, returns the index
/// and the table. Errors only when the scanned table vanished from the
/// catalog.
fn indexed_scan<'a>(
    plan: &Plan,
    catalog: &'a Catalog,
    indexes: Option<&'a IndexCatalog>,
) -> Result<Option<(&'a TableIndex, &'a Table)>, String> {
    let Some(reg) = indexes else {
        return Ok(None);
    };
    let PlanNode::Scan { table } = &plan.node else {
        return Ok(None);
    };
    let t = catalog.require(table)?;
    if t.schema().arity() != plan.schema.arity() {
        return Ok(None); // stale binding: let the naive path report it
    }
    Ok(reg.get_fresh(table, t).map(|idx| (idx, t)))
}

/// One side of a begin-ordered join, ascending by its `ts` column. An
/// indexed scan reuses the table's begin-sorted event list (scan output
/// preserves table row order, so the index row ids address the
/// materialized rows directly); other inputs are sorted on the fly.
fn begin_sorted<'r>(rows: &'r [Row], index: Option<&TableIndex>, ts: usize) -> Vec<&'r Row> {
    match index {
        Some(idx) => idx.events().begin_order().map(|i| &rows[i]).collect(),
        None => {
            let mut v: Vec<&Row> = rows.iter().collect();
            v.sort_by_key(|r| r.int(ts));
            v
        }
    }
}

fn op_name(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::Scan { .. } => "Scan",
        PlanNode::VirtualScan { .. } => "VirtualScan",
        PlanNode::Values { .. } => "Values",
        PlanNode::Filter { .. } => "Filter",
        PlanNode::Project { .. } => "Project",
        PlanNode::Join { .. } => "Join",
        PlanNode::Union { .. } => "Union",
        PlanNode::ExceptAll { .. } => "ExceptAll",
        PlanNode::Aggregate { .. } => "Aggregate",
        PlanNode::Distinct { .. } => "Distinct",
        PlanNode::Sort { .. } => "Sort",
        PlanNode::Coalesce { .. } => "Coalesce",
        PlanNode::Timeslice { .. } => "Timeslice",
        PlanNode::TimeRange { .. } => "TimeRange",
        PlanNode::Split { .. } => "Split",
        PlanNode::TemporalAggregate { .. } => "TemporalAggregate",
        PlanNode::TemporalExceptAll { .. } => "TemporalExceptAll",
    }
}

/// Extracts `left_col = right_col` pairs from conjuncts.
fn equi_keys(conjuncts: &[&Expr], l_arity: usize) -> Vec<(usize, usize)> {
    let mut keys = Vec::new();
    // lint:allow(cancellation) bounded by predicate size
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        {
            if let (Expr::Col(i), Expr::Col(j)) = (left.as_ref(), right.as_ref()) {
                if *i < l_arity && *j >= l_arity {
                    keys.push((*i, *j - l_arity));
                } else if *j < l_arity && *i >= l_arity {
                    keys.push((*j, *i - l_arity));
                }
            }
        }
    }
    keys
}

/// Detects the `overlaps` pattern produced by the rewriter:
/// `Col(lts) < Col(rte) AND Col(rts) < Col(lte)` on the trailing period
/// columns of both inputs. Returns local indices `(lts, lte, rts, rte)`.
fn overlap_pattern(
    conjuncts: &[&Expr],
    l_arity: usize,
    r_arity: usize,
) -> Option<(usize, usize, usize, usize)> {
    if l_arity < 2 || r_arity < 2 {
        return None;
    }
    let (lts, lte) = (l_arity - 2, l_arity - 1);
    let (rts_g, rte_g) = (l_arity + r_arity - 2, l_arity + r_arity - 1);
    let mut has_l_lt_r = false;
    let mut has_r_lt_l = false;
    // lint:allow(cancellation) bounded by predicate size
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Lt,
            left,
            right,
        } = c
        {
            if let (Expr::Col(i), Expr::Col(j)) = (left.as_ref(), right.as_ref()) {
                if *i == lts && *j == rte_g {
                    has_l_lt_r = true;
                }
                if *i == rts_g && *j == lte {
                    has_r_lt_l = true;
                }
            }
        }
    }
    (has_l_lt_r && has_r_lt_l).then_some((lts, lte, rts_g - l_arity, rte_g - l_arity))
}

/// Identity [`Hasher`]: the map's keys already are [`key_hash`] mixes.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("Prehashed maps are keyed by u64 only")
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Hashes the key columns of `row` where they sit; `None` for a NULL key,
/// which never joins. Values equal under SQL comparison hash alike — an
/// integral `Double` as the `Int` it equals (the cast saturates, so doubles
/// beyond `i64` merely collide); unequal ones may collide too, but which
/// ones depends on `seed`, so colliding keys cannot be prepared offline.
fn key_hash(row: &Row, cols: &[usize], seed: u64) -> Option<u64> {
    let mut h = seed;
    // lint:allow(cancellation) bounded by join-key arity
    for &c in cols {
        h = match row.get(c) {
            Value::Null => return None,
            Value::Bool(b) => h ^ *b as u64,
            Value::Int(i) => h ^ *i as u64,
            Value::Double(d) if d.fract() == 0.0 => h ^ *d as i64 as u64,
            Value::Double(d) => h ^ d.to_bits(),
            Value::Str(s) => s.bytes().fold(h ^ 0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3) // FNV-1a
            }),
        };
        // splitmix64's finalizer: the map takes bucket and tag bits from
        // both ends of the word, so every input bit has to reach both.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    Some(h)
}

/// Equi-join on `keys` (`(left, right)` column pairs). The hash table only
/// nominates candidates: every pair whose key hashes agree goes to
/// `matched`, which judges the whole condition — the equalities included —
/// under SQL comparison.
fn hash_join(
    left: &[Row],
    right: &[Row],
    keys: &[(usize, usize)],
    ctx: &ExecContext,
    matched: impl Fn(&Row, &Row) -> Option<Row>,
) -> Result<Vec<Row>, StatementError> {
    let (l_keys, r_keys): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    // Build on the smaller side; probe with the larger.
    let build_left = left.len() <= right.len();
    let ((build, build_keys), (probe, probe_keys)) = if build_left {
        ((left, l_keys), (right, r_keys))
    } else {
        ((right, r_keys), (left, l_keys))
    };

    // `heads[hash]` is the first build row with that hash, `next[row]` the
    // one after it; rows go in last to first, so chains run in input order.
    const END: usize = usize::MAX;
    let seed = RandomState::new().hash_one(0u64);
    let mut heads: HashMap<u64, usize, BuildHasherDefault<Prehashed>> =
        HashMap::with_capacity_and_hasher(build.len(), Default::default());
    let mut next = vec![END; build.len()];
    for (n, row) in build.iter().enumerate().rev() {
        // The build side can be arbitrarily large; poll the token at
        // the same cadence as the probe phase's pair counting.
        ctx.row_considered(build.len() - n)?;
        if let Some(hash) = key_hash(row, &build_keys, seed) {
            next[n] = heads.insert(hash, n).unwrap_or(END);
        }
    }

    let mut out = Vec::new();
    let mut pairs = 0u64;
    for row in probe {
        let Some(hash) = key_hash(row, &probe_keys, seed) else {
            continue;
        };
        let mut m = heads.get(&hash).copied().unwrap_or(END);
        while m != END {
            pairs += 1;
            ctx.pair_considered(pairs)?;
            out.extend(if build_left {
                matched(&build[m], row)
            } else {
                matched(row, &build[m])
            });
            m = next[m];
        }
    }
    ctx.pairs_done(pairs);
    Ok(out)
}

fn except_all(
    left: Rows<'_>,
    right: &[Row],
    ctx: &ExecContext,
) -> Result<Vec<Row>, StatementError> {
    let mut counts: HashMap<&Row, usize> = HashMap::with_capacity(right.len());
    for (n, r) in right.iter().enumerate() {
        ctx.row_considered(n + 1)?;
        *counts.entry(r).or_insert(0) += 1;
    }
    retain(left, ctx, |l| match counts.get_mut(l) {
        Some(c) if *c > 0 => {
            *c -= 1;
            false
        }
        _ => true,
    })
}

fn hash_aggregate(
    rows: &[Row],
    group_cols: &[usize],
    aggs: &[algebra::AggExpr],
    arg_types: &[storage::SqlType],
    ctx: &ExecContext,
) -> Result<Vec<Row>, StatementError> {
    let new_state = || -> Vec<SlidingAgg> {
        aggs.iter()
            .zip(arg_types)
            .map(|(a, ty)| SlidingAgg::new(a.func.clone(), *ty))
            .collect()
    };
    let mut groups: BTreeMap<Vec<Value>, Vec<SlidingAgg>> = BTreeMap::new();
    for (n, r) in rows.iter().enumerate() {
        ctx.row_considered(n + 1)?;
        let key: Vec<Value> = group_cols.iter().map(|&i| r.get(i).clone()).collect();
        let state = groups.entry(key).or_insert_with(new_state);
        for (a, s) in aggs.iter().zip(state.iter_mut()) {
            s.slide(&agg_arg(a, r), 1);
        }
    }
    // Global aggregation produces one row even over empty input.
    if group_cols.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), new_state());
    }
    Ok(groups
        .into_iter()
        .map(|(mut key, state)| {
            key.extend(state.iter().map(|s| s.current()));
            Row::new(key)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::{AggExpr, AggFunc};
    use storage::{row, Schema, SqlType};

    fn works_catalog() -> Catalog {
        let schema = Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 2, 3);
        t.push(row!["Ann", "SP", 3, 10]);
        t.push(row!["Joe", "NS", 8, 16]);
        t.push(row!["Sam", "SP", 8, 16]);
        t.push(row!["Ann", "SP", 18, 20]);
        let mut c = Catalog::new();
        c.register("works", t);
        c
    }

    fn works_schema() -> Schema {
        works_catalog().get("works").unwrap().schema().clone()
    }

    /// Runs `plan` through the general entry point (`indexes: None` pins
    /// the naive routes) and returns the result with the operator counters.
    fn run_with(
        engine: &Engine,
        plan: &Plan,
        catalog: &Catalog,
        indexes: Option<&IndexCatalog>,
    ) -> (Table, ExecStats) {
        let mut stats = ExecStats::default();
        let out = engine
            .execute_analyzed(
                plan,
                catalog,
                indexes,
                &mut stats,
                &mut NodeStats::default(),
            )
            .unwrap();
        (out, stats)
    }

    #[test]
    fn scan_filter_project() {
        let c = works_catalog();
        let plan = Plan::scan("works", works_schema())
            .filter(Expr::col(1).eq(Expr::lit("SP")))
            .project_cols(&[0]);
        let out = Engine::new().execute(&plan, &c).unwrap();
        let mut names: Vec<String> = out.rows().iter().map(|r| r.get(0).to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["Ann", "Ann", "Sam"]);
    }

    #[test]
    fn hash_join_with_residual() {
        let c = works_catalog();
        let l = Plan::scan("works", works_schema());
        let r = Plan::scan("works", works_schema());
        // Self-join on skill with a residual inequality on names.
        let cond =
            Expr::col(1)
                .eq(Expr::col(5))
                .and(Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4)));
        let plan = l.join(r, cond);
        let out = Engine::new().execute(&plan, &c).unwrap();
        // SP pairs with name_l < name_r: (Ann,Sam) twice (two Ann rows).
        assert_eq!(out.len(), 2);
        for row in out.rows() {
            assert_eq!(row.get(0), &Value::str("Ann"));
            assert_eq!(row.get(4), &Value::str("Sam"));
        }
    }

    #[test]
    fn join_null_keys_never_match() {
        let schema = Schema::of(&[("k", SqlType::Int)]);
        let mut t = Table::new(schema.clone());
        t.push(Row::new(vec![Value::Null]));
        t.push(row![1]);
        let mut c = Catalog::new();
        c.register("t", t);
        let plan = Plan::scan("t", schema.clone())
            .join(Plan::scan("t", schema), Expr::col(0).eq(Expr::col(1)));
        let out = Engine::new().execute(&plan, &c).unwrap();
        assert_eq!(out.len(), 1); // only (1,1)
    }

    #[test]
    fn except_all_is_bag_difference() {
        let schema = Schema::of(&[("x", SqlType::Int)]);
        let l = Plan::values(schema.clone(), vec![row![1], row![1], row![1], row![2]]);
        let r = Plan::values(schema, vec![row![1], row![3]]);
        let plan = l.except_all(r).unwrap();
        let out = Engine::new().execute(&plan, &Catalog::new()).unwrap();
        let mut xs: Vec<i64> = out.rows().iter().map(|r| r.int(0)).collect();
        xs.sort();
        assert_eq!(xs, vec![1, 1, 2]); // one 1 removed, not all (no BD bug)
    }

    #[test]
    fn aggregation_groups_and_global() {
        let c = works_catalog();
        let plan = Plan::scan("works", works_schema())
            .aggregate(vec![1], vec![AggExpr::count_star("cnt")])
            .unwrap();
        let out = Engine::new().execute(&plan, &c).unwrap();
        let mut got: Vec<(String, i64)> = out
            .rows()
            .iter()
            .map(|r| (r.get(0).to_string(), r.int(1)))
            .collect();
        got.sort();
        assert_eq!(got, vec![("NS".into(), 1), ("SP".into(), 3)]);

        // Global count over empty input yields one row with 0.
        let empty = Plan::values(works_schema(), vec![])
            .aggregate(vec![], vec![AggExpr::count_star("cnt")])
            .unwrap();
        let out = Engine::new().execute(&empty, &Catalog::new()).unwrap();
        assert_eq!(out.rows(), &[row![0]]);
    }

    #[test]
    fn aggregation_min_max_sum_avg() {
        let schema = Schema::of(&[("g", SqlType::Str), ("v", SqlType::Int)]);
        let plan = Plan::values(schema, vec![row!["a", 1], row!["a", 5], row!["b", 10]])
            .aggregate(
                vec![0],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                    AggExpr::new(AggFunc::Avg, Expr::col(1), "avg"),
                    AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
                    AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
                ],
            )
            .unwrap();
        let out = Engine::new().execute(&plan, &Catalog::new()).unwrap();
        let rows = out.canonicalized();
        assert_eq!(
            rows.rows(),
            &[row!["a", 6, 3.0, 1, 5], row!["b", 10, 10.0, 10, 10]]
        );
    }

    #[test]
    fn distinct_and_sort() {
        let schema = Schema::of(&[("x", SqlType::Int)]);
        let plan = Plan::values(schema, vec![row![3], row![1], row![3], row![2]])
            .distinct()
            .sort(vec![(Expr::col(0), false)]);
        let out = Engine::new().execute(&plan, &Catalog::new()).unwrap();
        assert_eq!(out.rows(), &[row![3], row![2], row![1]]);
    }

    #[test]
    fn stats_are_collected() {
        let c = works_catalog();
        let plan = Plan::scan("works", works_schema()).filter(Expr::col(1).eq(Expr::lit("SP")));
        let (_, stats) = run_with(&Engine::new(), &plan, &c, None);
        assert_eq!(stats.get("Scan"), Some((1, 4)));
        assert_eq!(stats.get("Filter"), Some((1, 3)));
    }

    #[test]
    fn unknown_table_is_an_error() {
        let plan = Plan::scan("nope", works_schema());
        let err = Engine::new().execute(&plan, &Catalog::new()).unwrap_err();
        assert!(matches!(&err, StatementError::Failed(m) if m.contains("unknown table")));
    }

    /// Equality on skill plus the rewriter's overlap pattern.
    fn equi_overlap_self_join_plan() -> Plan {
        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::col(1)
            .eq(Expr::col(5))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        Plan::scan("works", works_schema()).join(Plan::scan("works", works_schema()), cond)
    }

    /// Pure overlap join (non-equality residual on names).
    fn pure_overlap_self_join_plan() -> Plan {
        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        Plan::scan("works", works_schema()).join(Plan::scan("works", works_schema()), cond)
    }

    #[test]
    fn indexed_sweep_join_matches_naive_and_is_dispatched() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = pure_overlap_self_join_plan();

        let naive = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let (indexed, stats) = run_with(&Engine::new(), &plan, &c, Some(&indexes));
        let indexed = indexed.canonicalized();
        assert_eq!(naive, indexed);
        assert!(
            stats.get("IndexSweepJoin").is_some(),
            "indexed dispatch must be taken: {stats:?}"
        );
    }

    #[test]
    fn equi_keys_beat_the_sweep_under_auto() {
        // Equality conjuncts present: hash is the selective choice even
        // with fresh indexes on both sides — the sweep would enumerate all
        // temporally co-valid pairs before the equality filter.
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = equi_overlap_self_join_plan();
        let hash = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let (indexed, stats) = run_with(&Engine::new(), &plan, &c, Some(&indexes));
        let indexed = indexed.canonicalized();
        assert_eq!(hash, indexed);
        assert!(
            stats.get("IndexSweepJoin").is_none() && stats.get("SweepJoin").is_none(),
            "Auto must pick hash over the sweep for equi joins: {stats:?}"
        );
    }

    #[test]
    fn stale_index_falls_back_to_naive_join() {
        let mut c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        // Mutate the table after indexing: version mismatch → fallback.
        let mut t = c.get("works").unwrap().clone();
        t.push(row!["Eve", "SP", 0, 2]);
        c.register("works", t);

        let plan = pure_overlap_self_join_plan();
        let (indexed, stats) = run_with(&Engine::new(), &plan, &c, Some(&indexes));
        let indexed = indexed.canonicalized();
        assert!(
            stats.get("IndexSweepJoin").is_none(),
            "must not use stale index"
        );
        let naive = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        assert_eq!(naive, indexed);
    }

    #[test]
    fn explicit_sweep_without_indexes_matches_hash() {
        let c = works_catalog();
        let plan = {
            let (lts, lte) = (2, 3);
            let (rts_g, rte_g) = (6, 7);
            let cond = Expr::col(1)
                .eq(Expr::col(5))
                .and(Expr::col(lts).lt(Expr::col(rte_g)))
                .and(Expr::col(rts_g).lt(Expr::col(lte)));
            Plan::scan("works", works_schema()).join_with(
                Plan::scan("works", works_schema()),
                cond,
                JoinAlgo::Sweep,
            )
        };
        let (sweep, stats) = run_with(&Engine::new(), &plan, &c, None);
        let sweep = sweep.canonicalized();
        assert!(
            stats.get("SweepJoin").is_some(),
            "sort-on-the-fly sweep used"
        );
        let hash = Engine::new()
            .execute(&equi_overlap_self_join_plan(), &c)
            .unwrap()
            .canonicalized();
        assert_eq!(hash, sweep);
        assert!(
            hash.len() >= 4,
            "self overlap join must match each row with itself"
        );
    }

    #[test]
    fn index_on_non_sweep_columns_is_not_used_for_the_sweep() {
        // The table's declared period is columns (0, 1), but the overlap
        // pattern always sweeps the trailing two columns (2, 3) of each
        // side. The index's begin order is over the wrong columns, so the
        // engine must ignore it (hash fallback), not feed it to the sweep.
        let schema = Schema::of(&[
            ("a", SqlType::Int),
            ("b", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema.clone(), 0, 1);
        // Declared period (cols 0..1) deliberately orders differently than
        // the trailing columns the join sweeps.
        t.push(row![1, 9, 5, 7]);
        t.push(row![2, 9, 0, 6]);
        t.push(row![3, 9, 6, 8]);
        let mut c = Catalog::new();
        c.register("t", t);
        let indexes = IndexCatalog::build_all(&c);
        assert_eq!(indexes.len(), 1, "the (0,1) period is indexed");

        let (lts, lte) = (2, 3);
        let (rts_g, rte_g) = (6, 7);
        let cond = Expr::col(lts)
            .lt(Expr::col(rte_g))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        let plan = Plan::scan("t", schema.clone()).join(Plan::scan("t", schema), cond);
        let naive = Engine::new().execute(&plan, &c).unwrap().canonicalized();
        let (indexed, stats) = run_with(&Engine::new(), &plan, &c, Some(&indexes));
        let indexed = indexed.canonicalized();
        assert_eq!(naive, indexed);
        assert!(
            stats.get("IndexSweepJoin").is_none(),
            "mismatched period columns must not drive the sweep: {stats:?}"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential_and_is_dispatched() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let plan = pure_overlap_self_join_plan();
        let sequential = run_with(&Engine::new(), &plan, &c, Some(&indexes))
            .0
            .canonicalized();
        for parallelism in [1usize, 2, 4, 8] {
            let engine = Engine::with_parallelism(parallelism);
            let (parallel, stats) = run_with(&engine, &plan, &c, Some(&indexes));
            let parallel = parallel.canonicalized();
            assert_eq!(sequential, parallel, "parallelism {parallelism}");
            if parallelism > 1 {
                assert!(
                    stats.get("ParallelSweepJoin").is_some(),
                    "Auto must route to the parallel sweep at parallelism \
                     {parallelism}: {stats:?}"
                );
            } else {
                assert!(
                    stats.get("IndexSweepJoin").is_some(),
                    "parallelism 1 keeps the sequential sweep: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_parallel_sweep_hint_without_indexes() {
        // A worker pool runs a pinned sweep slab-parallel on non-indexed
        // inputs too (sort-on-the-fly), and the hint falls back to hash
        // when the condition has no overlap pattern.
        let c = works_catalog();
        let plan = {
            let (lts, lte) = (2, 3);
            let (rts_g, rte_g) = (6, 7);
            let cond = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4))
                .and(Expr::col(lts).lt(Expr::col(rte_g)))
                .and(Expr::col(rts_g).lt(Expr::col(lte)));
            Plan::scan("works", works_schema()).join_with(
                Plan::scan("works", works_schema()),
                cond,
                JoinAlgo::Sweep,
            )
        };
        let (parallel, stats) = run_with(&Engine::with_parallelism(3), &plan, &c, None);
        let parallel = parallel.canonicalized();
        assert!(stats.get("ParallelSweepJoin").is_some(), "{stats:?}");
        let naive = Engine::new()
            .execute(&pure_overlap_self_join_plan(), &c)
            .unwrap()
            .canonicalized();
        assert_eq!(naive, parallel);

        // Equality-only condition: no overlap pattern, hash fallback.
        let equi = Plan::scan("works", works_schema()).join_with(
            Plan::scan("works", works_schema()),
            Expr::col(0).eq(Expr::col(4)),
            JoinAlgo::Sweep,
        );
        let (_, stats) = run_with(&Engine::with_parallelism(3), &equi, &c, None);
        assert!(stats.get("ParallelSweepJoin").is_none(), "{stats:?}");
    }

    fn cancelled_as(err: &StatementError, expect: obs::CancelKind) -> bool {
        matches!(err, StatementError::Cancelled { kind, .. } if *kind == expect)
    }

    #[test]
    fn context_accounts_and_cancels() {
        let c = works_catalog();
        let account = Arc::new(obs::ResourceAccount::default());
        let token = Arc::new(obs::CancelToken::default());
        token.arm(None, None, None);
        let engine =
            Engine::new().with_context(ExecContext::new(Arc::clone(&account), Arc::clone(&token)));
        let plan = Plan::scan("works", works_schema()).filter(Expr::col(1).eq(Expr::lit("SP")));
        engine.execute(&plan, &c).unwrap();
        let usage = account.usage();
        assert_eq!(usage.rows_scanned, 4, "scan accounted");
        assert_eq!(usage.rows_emitted, 4 + 3, "scan + filter outputs");
        assert!(usage.bytes_materialized > 0);

        // A pre-tripped token fails execution as `Cancelled`, and the
        // result is an error, not a partial table.
        token.cancel(obs::CancelKind::Killed);
        let err = engine.execute(&plan, &c).unwrap_err();
        assert!(cancelled_as(&err, obs::CancelKind::Killed), "{err:?}");
        assert_eq!(err.to_string(), "statement cancelled: killed by request");

        // A row-scan limit trips mid-plan.
        account.reset();
        token.arm(None, Some(2), None);
        let err = engine.execute(&plan, &c).unwrap_err();
        assert!(
            cancelled_as(&err, obs::CancelKind::RowsScannedLimit),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "statement cancelled: max_rows_scanned (2) exceeded"
        );

        // Join pairs are accounted, and a pre-tripped token aborts, on
        // every join route — each pinned by its plan hint over the same
        // 4x4 self join. The condition carries an equality, the overlap
        // pattern and a residual, so every hint reaches its own operator.
        let indexes = IndexCatalog::build_all(&c);
        let scan = || Plan::scan("works", works_schema());
        let cond = Expr::col(1)
            .eq(Expr::col(5))
            .and(Expr::col(2).lt(Expr::col(7)))
            .and(Expr::col(6).lt(Expr::col(3)))
            .and(Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(4)));
        // Pairs each route considers: all 16, the 10 with equal skills, or
        // the 10 whose periods overlap (Ann's second stint meets only
        // itself); exactly one pair — (Ann, Sam) — passes the condition.
        // The operator is the one at parallelism 1, then at 3.
        let routes = [
            (JoinAlgo::NestedLoop, ["NestedLoopJoin"; 2], 16),
            (JoinAlgo::Hash, ["HashJoin"; 2], 10),
            (JoinAlgo::Sweep, ["IndexSweepJoin", "ParallelSweepJoin"], 10),
            (JoinAlgo::Auto, ["HashJoin"; 2], 10),
        ];
        for (algo, ops, pairs) in routes {
            let join = scan().join_with(scan(), cond.clone(), algo);
            for (parallelism, op) in [1, 3].into_iter().zip(ops) {
                let engine = Engine::with_parallelism(parallelism)
                    .with_context(ExecContext::new(Arc::clone(&account), Arc::clone(&token)));
                account.reset();
                token.arm(None, None, None);
                let (out, stats) = run_with(&engine, &join, &c, Some(&indexes));
                assert_eq!(out.len(), 1, "{algo:?}");
                assert!(stats.get(op).is_some(), "{algo:?}: {stats:?}");
                assert_eq!(account.usage().join_pairs, pairs, "{algo:?} pairs");
                token.cancel(obs::CancelKind::Killed);
                let err = engine.execute(&join, &c).unwrap_err();
                assert!(
                    cancelled_as(&err, obs::CancelKind::Killed),
                    "{algo:?}: {err:?}"
                );
            }
            // An engine built outside a session runs under its own default
            // context: the sequential route, never cancelled.
            let (out, stats) = run_with(&Engine::new(), &join, &c, Some(&indexes));
            assert_eq!(out.len(), 1, "{algo:?} under the default context");
            assert!(stats.get(ops[0]).is_some(), "{algo:?}: {stats:?}");
        }
    }

    /// A join that took its parent's projection is still one `Join` to
    /// every observer: operator counters, `EXPLAIN ANALYZE`, and a resource
    /// account that sees each surviving pair once.
    #[test]
    fn fused_join_reports_as_one_join_node() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let scan = || Plan::scan("works", works_schema());
        let cond = Expr::col(1)
            .eq(Expr::col(5))
            .and(Expr::col(2).lt(Expr::col(7)))
            .and(Expr::col(6).lt(Expr::col(3)));
        let output = vec![
            Expr::col(0),
            Expr::col(4),
            Expr::Greatest(vec![Expr::col(2), Expr::col(6)]),
            Expr::Least(vec![Expr::col(3), Expr::col(7)]),
        ];
        let names = ["l", "r", "ts", "te"].map(String::from).to_vec();
        let plan = scan()
            .join(scan(), cond)
            .project(output, names)
            .unwrap()
            .coalesce();
        let account = Arc::new(obs::ResourceAccount::default());
        let engine = Engine::new().with_context(ExecContext::new(
            Arc::clone(&account),
            Arc::new(obs::CancelToken::default()),
        ));
        let (mut stats, mut nodes) = (ExecStats::default(), NodeStats::default());
        let out = engine
            .execute_analyzed(&plan, &c, Some(&indexes), &mut stats, &mut nodes)
            .unwrap();
        // Same-skill pairs with overlapping stints: Ann–Ann, Ann–Sam,
        // Sam–Ann, Sam–Sam, Joe–Joe, and Ann's second stint with itself.
        assert_eq!(out.len(), 6);
        assert!(out.rows().contains(&row!["Ann", "Sam", 8, 10]), "{out}");
        assert_eq!(stats.get("Join"), Some((1, 6)));
        assert_eq!(stats.get("HashJoin"), Some((1, 6)));
        assert_eq!(stats.get("Project"), None);
        let text = explain_analyzed(&plan, &nodes);
        assert!(
            text.contains(
                "  Join on (((#1 = #5) AND (#2 < #7)) AND (#6 < #3)) \
                 → [#0, #4, GREATEST(#2, #6), LEAST(#3, #7)] (actual rows=6 calls=1 "
            ),
            "{text}"
        );
        assert!(!text.contains("never executed"), "{text}");
        // Two scans of 4, the join's 6, the coalesced 6 — no projected copies.
        assert_eq!(account.usage().rows_emitted, 4 + 4 + 6 + 6);
    }

    #[test]
    fn timeslice_indexed_and_linear_agree() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        for at in -1..25 {
            let plan = Plan::scan("works", works_schema()).timeslice(at);
            let linear = Engine::new().execute(&plan, &c).unwrap();
            let (indexed, stats) = run_with(&Engine::new(), &plan, &c, Some(&indexes));
            assert_eq!(linear, indexed, "timeslice at {at}");
            assert!(
                stats.get("IndexTimeslice").is_some(),
                "indexed stabbing must be taken"
            );
        }
    }

    #[test]
    fn time_range_indexed_and_linear_agree() {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        for b in -1..22 {
            for e in [b + 1, b + 4, b + 12] {
                let plan = Plan::scan("works", works_schema()).time_range(b, e);
                let linear = Engine::new().execute(&plan, &c).unwrap();
                let (indexed, stats) = run_with(&Engine::new(), &plan, &c, Some(&indexes));
                assert_eq!(linear, indexed, "time range [{b}, {e})");
                assert!(
                    stats.get("IndexTimeRange").is_some(),
                    "indexed overlap probe must be taken"
                );
            }
        }
    }
}
