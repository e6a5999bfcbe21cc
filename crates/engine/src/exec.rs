//! Plan execution.

use crate::coalesce::try_coalesce_rows;
use crate::eval::{conjuncts, eval_expr, Pair, Prepared};
use crate::hash::{key_hash, seed, PrehashedMap};
use crate::sliding::SlidingAgg;
use crate::split::split_rows;
use crate::temporal::{
    agg_arg, agg_arg_types, temporal_aggregate, temporal_aggregate_over, temporal_except_all,
};
use algebra::{BinOp, Expr, JoinAlgo, Plan, PlanNode};
use index::{try_sweep_join_presorted, IndexCatalog, TableIndex};
use snapshot_obs::{self as obs, StatementError};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{Catalog, Row, Table, Value};

/// Join pairs — or, in the linear operators, input rows — between
/// cooperative cancellation checks: frequent enough that a runaway join
/// reacts within microseconds, rare enough that the per-pair cost is one
/// counter bump.
pub(crate) const CANCEL_CHECK_INTERVAL: u64 = 1024;

/// Per-statement execution context: the live [`obs::ResourceAccount`]
/// the operators bump, the [`obs::CancelToken`] they check at batch
/// boundaries, and the database's [`obs::Obs`] (what the virtual tables
/// read). The account and token are shared
/// (`Arc`) with the owning session's entry in the activity registry, so
/// `snapshot_stat_progress` sees counters move while the statement runs
/// and `.kill` can reach into the executor. The default context — what an
/// engine built outside a session runs under — owns a private account and
/// a token nobody else holds, so it never cancels, and has no database:
/// it cannot read the observability tables.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    account: Arc<obs::ResourceAccount>,
    token: Arc<obs::CancelToken>,
    obs: Option<Arc<obs::Obs>>,
}

impl ExecContext {
    /// Context over a session's shared account and token, reporting into
    /// its database's `obs`.
    pub fn new(
        account: Arc<obs::ResourceAccount>,
        token: Arc<obs::CancelToken>,
        obs: Option<Arc<obs::Obs>>,
    ) -> Self {
        ExecContext {
            account,
            token,
            obs,
        }
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
    /// token is polled. The caller owns the counter.
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
    /// Read by nothing: every statement runs on the calling thread. Kept
    /// only so existing callers of [`Engine::with_config`] still build.
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

    /// Publish these counters into a database's metrics registry as
    /// `engine_<op>_invocations_total` / `engine_<op>_rows_total` (operator
    /// names lower-cased). The session layer calls this once per statement
    /// when metrics collection is on, so the per-operator hot path stays a
    /// plain `BTreeMap` bump.
    pub fn publish_to_registry(&self, reg: &obs::MetricsRegistry) {
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
    /// Times the node ran, re-runs included; a run that a cancellation, a
    /// budget or an error stopped counts too (its time, but no rows).
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

    /// Folds the executed nodes of `plan` into profile paths — operator
    /// names from the root down → (samples: the calls, self time: `nanos`
    /// minus the executed children's); nodes on one path add up.
    pub fn profile(&self, plan: &Plan) -> BTreeMap<String, (u64, u64)> {
        let mut paths: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut stack: Vec<String> = Vec::new();
        walk(plan, 0, &mut |depth, node| {
            stack.truncate(depth);
            let name = op_name(&node.node);
            let path = stack
                .last()
                .map_or(name.into(), |up| format!("{up};{name}"));
            if let Some(a) = self.get(node) {
                if let Some(up) = stack.last().and_then(|up| paths.get_mut(up)) {
                    up.1 = up.1.saturating_sub(a.nanos);
                }
                let e = paths.entry(path.clone()).or_default();
                e.0 += a.calls;
                e.1 += a.nanos;
            }
            stack.push(path);
        });
        paths
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
    let mut out = String::new();
    walk(plan, 0, &mut |depth, node| {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&node.node_label());
        match nodes.get(node) {
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
    });
    out
}

/// Visits `plan` and its descendants depth-first, each parent before its
/// children, with its depth below `plan`.
fn walk<'p>(plan: &'p Plan, depth: usize, visit: &mut impl FnMut(usize, &'p Plan)) {
    visit(depth, plan);
    // lint:allow(cancellation) bounded by plan size
    for child in plan.children() {
        walk(child, depth + 1, visit);
    }
}

/// The in-memory plan executor. Every operator runs on the calling
/// thread.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Resource accounting + cooperative cancellation for the statement
    /// being executed.
    ctx: ExecContext,
}

/// Rows handed up the plan: a scan lends the catalog's rows, every other
/// operator owns what it built, except that a stab or a filter lends what
/// its input lent. Read-only consumers take the rows through
/// [`with_rows!`] (or [`Rows::iter`]); consuming ones call
/// [`Rows::into_owned`] (or [`retain`]).
enum Rows<'a> {
    /// One slice: a table without sealed blocks, or a plan's `Values`.
    Slice(&'a [Row]),
    /// References in table order: a sealed table, a stab's hits, a
    /// filter's survivors among lent rows.
    Lent(Vec<&'a Row>),
    Owned(Vec<Row>),
}

/// The rows of a [`Rows`] as a slice of `Row`s or of `&Row`s, without
/// re-referencing an owned input.
enum View<'s> {
    Rows(&'s [Row]),
    Refs(&'s [&'s Row]),
}

/// `$body` with `$rows` bound to the rows of the [`Rows`] `$input` as a
/// slice of `Row`s or of `&Row`s, whichever it holds: the kernels are
/// generic over [`Borrow<Row>`], so each runs over either.
macro_rules! with_rows {
    ($input:expr, |$rows:ident| $body:expr) => {
        match $input.view() {
            View::Rows($rows) => $body,
            View::Refs($rows) => $body,
        }
    };
}

impl<'a> Rows<'a> {
    fn len(&self) -> usize {
        match self {
            Rows::Slice(rows) => rows.len(),
            Rows::Lent(rows) => rows.len(),
            Rows::Owned(rows) => rows.len(),
        }
    }

    fn view(&self) -> View<'_> {
        match self {
            Rows::Slice(rows) => View::Rows(rows),
            Rows::Lent(rows) => View::Refs(rows),
            Rows::Owned(rows) => View::Rows(rows),
        }
    }

    /// The rows in order.
    fn iter(&self) -> impl Iterator<Item = &Row> {
        let (rows, refs): (&[Row], &[&Row]) = match self.view() {
            View::Rows(rows) => (rows, &[]),
            View::Refs(refs) => (&[], refs),
        };
        rows.iter().chain(refs.iter().copied())
    }

    /// The rows, cloned where lent.
    fn into_owned(self) -> Vec<Row> {
        match self {
            Rows::Slice(rows) => rows.to_vec(),
            Rows::Lent(rows) => rows.into_iter().cloned().collect(),
            Rows::Owned(rows) => rows,
        }
    }
}

impl From<Vec<Row>> for Rows<'_> {
    fn from(rows: Vec<Row>) -> Self {
        Rows::Owned(rows)
    }
}

impl FromIterator<Row> for Rows<'_> {
    fn from_iter<I: IntoIterator<Item = Row>>(rows: I) -> Self {
        Rows::Owned(rows.into_iter().collect())
    }
}

/// What a node hands up, counted as rows (a join's: matched pairs).
trait Produced {
    fn count(&self) -> usize;
}

impl Produced for Rows<'_> {
    fn count(&self) -> usize {
        self.len()
    }
}

impl<T> Produced for Vec<T> {
    fn count(&self) -> usize {
        self.len()
    }
}

/// The rows of `rows` that satisfy `keep`: moved when owned, lent — the
/// survivors only — when lent.
fn retain<'a>(
    rows: Rows<'a>,
    ctx: &ExecContext,
    mut keep: impl FnMut(&Row) -> bool,
) -> Result<Rows<'a>, StatementError> {
    let (slice, refs) = match rows {
        Rows::Owned(rows) => {
            let mut out = Vec::new();
            for (n, row) in rows.into_iter().enumerate() {
                ctx.row_considered(n + 1)?;
                if keep(&row) {
                    out.push(row);
                }
            }
            return Ok(Rows::Owned(out));
        }
        Rows::Slice(rows) => (rows, Vec::new()),
        Rows::Lent(refs) => (&[][..], refs),
    };
    let mut out = Vec::new();
    for (n, row) in slice.iter().chain(refs).enumerate() {
        ctx.row_considered(n + 1)?;
        if keep(row) {
            out.push(row);
        }
    }
    Ok(Rows::Lent(out))
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
    /// Engine with default configuration.
    pub fn new() -> Self {
        Engine::default()
    }

    /// The same engine as [`Engine::new`]: `config` is ignored.
    pub fn with_config(_config: EngineConfig) -> Self {
        Engine::default()
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
        let env = &mut ExecEnv {
            catalog,
            indexes,
            stats,
            nodes,
        };
        let rows = self.run(plan, env).map(Rows::into_owned);
        let mut table = Table::new(plan.schema.clone());
        table.extend(rows?);
        Ok(table)
    }

    /// Closes `plan`'s node with its rows (a join: matched pairs) or the
    /// error that stopped it, which counts only the call and time in
    /// [`NodeStats`]; then re-checks so a budget trips at the node that
    /// crossed it.
    fn leave<T: Produced>(
        &self,
        plan: &Plan,
        env: &mut ExecEnv<'_>,
        started: Instant,
        out: Result<T, StatementError>,
    ) -> Result<T, StatementError> {
        let rows = out.as_ref().map_or(0, Produced::count);
        env.nodes.record(plan, rows, started.elapsed());
        let out = out?;
        env.stats.record(op_name(&plan.node), rows);
        let n = rows as u64;
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
        self.ctx.check().map(|()| out)
    }

    /// Runs `plan`'s node; a cancelled statement stops at its boundary.
    fn run<'a>(&self, plan: &'a Plan, env: &mut ExecEnv<'a>) -> Result<Rows<'a>, StatementError> {
        self.node(plan, env, Self::eval)
    }

    /// `plan`'s node: `eval` ([`Engine::eval`], or [`Engine::lent`] for an
    /// operator that reads its input's rows as references), timed from
    /// its start to [`Engine::leave`].
    fn node<'a, T: Produced>(
        &self,
        plan: &'a Plan,
        env: &mut ExecEnv<'a>,
        eval: impl FnOnce(&Self, &'a Plan, &mut ExecEnv<'a>) -> Result<T, StatementError>,
    ) -> Result<T, StatementError> {
        let started = Instant::now();
        let rows = self.ctx.check().and_then(|()| eval(self, plan, env));
        self.leave(plan, env, started, rows)
    }

    /// `plan`'s own operator over its inputs' rows.
    fn eval<'a>(&self, plan: &'a Plan, env: &mut ExecEnv<'a>) -> Result<Rows<'a>, StatementError> {
        if lent_stab(plan, env)?.is_some() {
            return Ok(Rows::Lent(self.lent(plan, env)?));
        }
        Ok(match &plan.node {
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
                match t.as_slice() {
                    Some(rows) => Rows::Slice(rows),
                    None => Rows::Lent(t.iter().collect()),
                }
            }
            PlanNode::VirtualScan { table } => {
                let obs = self.ctx.obs.as_deref().ok_or("no database to introspect")?;
                crate::vtab::virtual_table_rows(table, env.catalog, env.indexes, obs)?.into()
            }
            PlanNode::Values { rows } => Rows::Slice(rows),
            PlanNode::Filter { input, predicate } => {
                let predicate = Prepared::new(predicate);
                retain(self.run(input, env)?, &self.ctx, |r| predicate.holds(r))?
            }
            PlanNode::Project { input, exprs } => {
                let exprs: Vec<Prepared> = exprs.iter().map(Prepared::new).collect();
                let row = |r: &Row| exprs.iter().map(|e| e.value(r)).collect();
                self.run(input, env)?.iter().map(row).collect()
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
                // A surviving pair allocates once: its output row.
                let output: Vec<Prepared> = output.iter().map(Prepared::new).collect();
                let row = |pair: Pair| Some(output.iter().map(|e| e.value(&pair)).collect::<Row>());
                let (plans, algo) = ((&**left, &**right), *algo);
                with_rows!(l, |l| with_rows!(r, |r| {
                    self.join(plans, (l, r), condition, algo, env, row)
                }))?
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
                with_rows!(r, |r| except_all(l, r, &self.ctx))?
            }
            PlanNode::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let input_rows = self.run(input, env)?;
                let arg_types = agg_arg_types(aggs, &input.schema)?;
                with_rows!(input_rows, |rows| {
                    hash_aggregate(rows, group_cols, aggs, &arg_types, &self.ctx)
                })?
                .into()
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
                self.period_filter(input, env, "NaiveTimeslice", |ts, te| ts <= at && at < te)?
            }
            PlanNode::TimeRange { input, range } => {
                let (b, e) = *range;
                self.period_filter(input, env, "NaiveTimeRange", |ts, te| ts < e && b < te)?
            }
            PlanNode::Split {
                left,
                right,
                group_cols,
            } => {
                let l = self.run(left, env)?;
                let r = self.run(right, env)?;
                let arity = left.schema.arity();
                with_rows!(l, |l| with_rows!(r, |r| {
                    split_rows(l, r, group_cols, arity)
                }))
                .into()
            }
            PlanNode::TemporalAggregate {
                input,
                group_cols,
                aggs,
                add_gap_neutral,
                domain,
            } => {
                let arg_types = agg_arg_types(aggs, &input.schema)?;
                let spec = (&group_cols[..], &aggs[..], &arg_types[..]);
                let (gap, check) = (*add_gap_neutral, || self.ctx.check());
                if let PlanNode::Join { left, right, .. } = &input.node {
                    // The aggregate reads the matched pairs; the join is
                    // still a node, but builds no row.
                    let started = Instant::now();
                    let sides = self
                        .ctx
                        .check()
                        .and_then(|()| Ok((self.run(left, env)?, self.run(right, env)?)));
                    let (l, r) = match sides {
                        Ok(sides) => sides,
                        Err(e) => return self.leave(input, env, started, Err(e)).map(Rows::Owned),
                    };
                    let over = (gap, *domain, check);
                    with_rows!(l, |l| with_rows!(r, |r| {
                        self.aggregate_join(input, (l, r), env, started, spec, over)
                    }))?
                    .into()
                } else {
                    let rows = self.run(input, env)?;
                    let arity = input.schema.arity();
                    let domain = *domain;
                    with_rows!(rows, |rows| {
                        temporal_aggregate(
                            rows, arity, group_cols, aggs, &arg_types, gap, domain, check,
                        )
                    })?
                    .into()
                }
            }
            PlanNode::TemporalExceptAll { left, right } => {
                let l = self.run(left, env)?;
                let r = self.run(right, env)?;
                let (arity, check) = (left.schema.arity(), || self.ctx.check());
                with_rows!(l, |l| with_rows!(r, |r| {
                    temporal_except_all(l, r, arity, check)
                }))?
                .into()
            }
        })
    }

    /// `Timeslice` / `TimeRange` on the linear route (`op` in
    /// [`ExecStats`]): the rows of `input` whose period (the trailing two
    /// columns) satisfies `keep(ts, te)`.
    fn period_filter<'a>(
        &self,
        input: &'a Plan,
        env: &mut ExecEnv<'a>,
        op: &'static str,
        keep: impl Fn(i64, i64) -> bool,
    ) -> Result<Rows<'a>, StatementError> {
        let n = input.schema.arity();
        let rows = retain(self.run(input, env)?, &self.ctx, |r| {
            keep(r.int(n - 2), r.int(n - 1))
        })?;
        env.stats.record(op, rows.len());
        Ok(rows)
    }

    /// The rows of `plan`, one that [`lent_stab`] answers, as references
    /// into the pinned table: a `Timeslice` / `TimeRange` stabs the index
    /// (an interval-tree stab or overlap probe), a `Filter` keeps the
    /// survivors among its lent input. The operator above builds or clones
    /// only what it keeps.
    fn lent<'a>(
        &self,
        plan: &'a Plan,
        env: &mut ExecEnv<'a>,
    ) -> Result<Vec<&'a Row>, StatementError> {
        if let PlanNode::Filter { input, predicate } = &plan.node {
            let rows = self.node(input, env, Self::lent)?;
            let predicate = Prepared::new(predicate);
            let mut out = Vec::new();
            for (n, r) in rows.into_iter().enumerate() {
                self.ctx.row_considered(n + 1)?;
                if predicate.holds(r) {
                    out.push(r);
                }
            }
            return Ok(out);
        }
        let (op, ids, table) = match (&plan.node, lent_stab(plan, env)?) {
            (PlanNode::Timeslice { at, .. }, Some((idx, t))) => {
                ("IndexTimeslice", idx.stab(*at), t)
            }
            (PlanNode::TimeRange { range, .. }, Some((idx, t))) => {
                ("IndexTimeRange", idx.overlapping(range.0, range.1), t)
            }
            _ => unreachable!("only what `lent_stab` answers is lent"),
        };
        self.ctx.account.add_index_probes(1);
        env.stats.record(op, ids.len());
        Ok(ids.into_iter().map(|id| table.row(id)).collect())
    }

    /// A `TemporalAggregate` over `join`, a `Join` node whose inputs ran
    /// into `sides`: the join, timed from `started` as its own node, hands
    /// the matched pairs to the aggregate, which reads them through the
    /// join's `output`.
    #[allow(clippy::type_complexity)]
    fn aggregate_join<L: Borrow<Row>, R: Borrow<Row>>(
        &self,
        join: &Plan,
        sides: (&[L], &[R]),
        env: &mut ExecEnv<'_>,
        started: Instant,
        spec: (&[usize], &[algebra::AggExpr], &[storage::SqlType]),
        (gap, domain, check): (bool, (i64, i64), impl FnMut() -> Result<(), StatementError>),
    ) -> Result<Vec<Row>, StatementError> {
        let PlanNode::Join {
            left,
            right,
            condition,
            algo,
            output,
        } = &join.node
        else {
            unreachable!("only a join's pairs are aggregated")
        };
        let pairs = self.join((left, right), sides, condition, *algo, env, Some);
        let pairs = self.leave(join, env, started, pairs)?;
        temporal_aggregate_over(&pairs, output, spec, gap, domain, check)
    }

    /// Joins two materialized inputs; each side is `(plan, rows)` — the
    /// plan carries the schema and reveals an indexed scan. A pair that
    /// satisfies `condition` yields what `emit` makes of it: the join's
    /// output row, or the pair itself for an aggregate that reads it.
    fn join<'r, L: Borrow<Row>, R: Borrow<Row>, T>(
        &self,
        (left_plan, right_plan): (&Plan, &Plan),
        (left, right): (&'r [L], &'r [R]),
        condition: &Expr,
        algo: JoinAlgo,
        env: &mut ExecEnv<'_>,
        emit: impl Fn(Pair<'r>) -> Option<T>,
    ) -> Result<Vec<T>, StatementError> {
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
        // the full condition (residual conjuncts included), prepared once
        // here and evaluated on the borrowed pair: a rejected pair
        // allocates nothing.
        let condition = Prepared::new(condition);
        let matched = |l: &'r Row, r: &'r Row| {
            let pair = Pair(l, r);
            condition.holds(&pair).then(|| emit(pair)).flatten()
        };

        let (op, out) = match (resolved, overlap) {
            (JoinAlgo::Sweep, Some((lts, lte, rts, rte))) => {
                let l_sorted = begin_sorted(left, l_index, lts);
                let r_sorted = begin_sorted(right, r_index, rts);
                ctx.account
                    .add_index_probes(if both_indexed { 2 } else { 0 });
                let mut out = Vec::new();
                let mut pairs = 0u64;
                let swept = try_sweep_join_presorted(
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
                );
                ctx.pairs_done(pairs);
                let op = if both_indexed {
                    "IndexSweepJoin"
                } else {
                    "SweepJoin"
                };
                (op, swept.map(|()| out))
            }
            (JoinAlgo::Hash | JoinAlgo::Sweep, _) if !equi.is_empty() => {
                ("HashJoin", hash_join(left, right, &equi, ctx, matched))
            }
            _ => (
                "NestedLoopJoin",
                nested_loop_join(left, right, ctx, matched),
            ),
        };
        // A route that a cancellation stopped still counts its call, with no
        // rows — as its node does in `NodeStats`.
        env.stats.record(op, out.as_ref().map_or(0, Vec::len));
        out
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

/// The index and table that answer `plan` through a stab: `plan` is a
/// `Timeslice` / `TimeRange` over a scan with a fresh index over exactly
/// its period columns (the trailing two), or a `Filter` over such a plan.
/// Errors only when the scanned table vanished from the catalog.
fn lent_stab<'a>(
    plan: &Plan,
    env: &ExecEnv<'a>,
) -> Result<Option<(&'a TableIndex, &'a Table)>, String> {
    match &plan.node {
        PlanNode::Filter { input, .. } => lent_stab(input, env),
        PlanNode::Timeslice { input, .. } | PlanNode::TimeRange { input, .. } => {
            let n = input.schema.arity();
            Ok(indexed_scan(input, env.catalog, env.indexes)?
                .filter(|(idx, _)| n >= 2 && idx.period() == (n - 2, n - 1)))
        }
        _ => Ok(None),
    }
}

/// One side of a begin-ordered join, ascending by its `ts` column. An
/// indexed scan reuses the table's begin-sorted event list (scan output
/// preserves table row order, so the index row ids address the
/// materialized rows directly); other inputs are sorted on the fly.
fn begin_sorted<'r, R: Borrow<Row>>(
    rows: &'r [R],
    index: Option<&TableIndex>,
    ts: usize,
) -> Vec<&'r Row> {
    match index {
        Some(idx) => idx
            .events()
            .begin_order()
            .map(|i| rows[i].borrow())
            .collect(),
        None => {
            let mut v: Vec<&Row> = rows.iter().map(Borrow::borrow).collect();
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

/// Every pair of `left` × `right` goes to `matched`.
fn nested_loop_join<'r, L: Borrow<Row>, R: Borrow<Row>, T>(
    left: &'r [L],
    right: &'r [R],
    ctx: &ExecContext,
    matched: impl Fn(&'r Row, &'r Row) -> Option<T>,
) -> Result<Vec<T>, StatementError> {
    let mut out = Vec::new();
    let mut pairs = 0u64;
    for l in left {
        for r in right {
            pairs += 1;
            ctx.pair_considered(pairs)?;
            out.extend(matched(l.borrow(), r.borrow()));
        }
    }
    ctx.pairs_done(pairs);
    Ok(out)
}

/// Equi-join on `keys` (`(left, right)` column pairs). The hash table only
/// nominates candidates: every pair whose key hashes agree goes to
/// `matched`, which judges the whole condition — the equalities included —
/// under SQL comparison.
fn hash_join<'r, L: Borrow<Row>, R: Borrow<Row>, T>(
    left: &'r [L],
    right: &'r [R],
    keys: &[(usize, usize)],
    ctx: &ExecContext,
    matched: impl Fn(&'r Row, &'r Row) -> Option<T>,
) -> Result<Vec<T>, StatementError> {
    let (l_keys, r_keys): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    // Build on the smaller side; probe with the larger.
    if left.len() <= right.len() {
        hash_probe((left, &l_keys), (right, &r_keys), ctx, matched)
    } else {
        hash_probe((right, &r_keys), (left, &l_keys), ctx, |r, l| matched(l, r))
    }
}

/// [`hash_join`] with the hash table on `build`: `matched` takes each
/// candidate as `(build row, probe row)`.
fn hash_probe<'r, B: Borrow<Row>, P: Borrow<Row>, T>(
    (build, build_keys): (&'r [B], &[usize]),
    (probe, probe_keys): (&'r [P], &[usize]),
    ctx: &ExecContext,
    matched: impl Fn(&'r Row, &'r Row) -> Option<T>,
) -> Result<Vec<T>, StatementError> {
    // `heads[hash]` is the first build row with that hash, `next[row]` the
    // one after it; rows go in last to first, so chains run in input order.
    const END: usize = usize::MAX;
    let seed = seed();
    let mut heads: PrehashedMap<usize> =
        HashMap::with_capacity_and_hasher(build.len(), Default::default());
    let mut next = vec![END; build.len()];
    for (n, row) in build.iter().enumerate().rev() {
        // The build side can be arbitrarily large; poll the token at
        // the same cadence as the probe phase's pair counting.
        ctx.row_considered(build.len() - n)?;
        if let Some(hash) = key_hash(row.borrow(), build_keys, seed) {
            next[n] = heads.insert(hash, n).unwrap_or(END);
        }
    }

    let mut out = Vec::new();
    let mut pairs = 0u64;
    for row in probe {
        let row = row.borrow();
        let Some(hash) = key_hash(row, probe_keys, seed) else {
            continue;
        };
        let mut m = heads.get(&hash).copied().unwrap_or(END);
        while m != END {
            pairs += 1;
            ctx.pair_considered(pairs)?;
            out.extend(matched(build[m].borrow(), row));
            m = next[m];
        }
    }
    ctx.pairs_done(pairs);
    Ok(out)
}

fn except_all<'a, R: Borrow<Row>>(
    left: Rows<'a>,
    right: &[R],
    ctx: &ExecContext,
) -> Result<Rows<'a>, StatementError> {
    let mut counts: HashMap<&Row, usize> = HashMap::with_capacity(right.len());
    for (n, r) in right.iter().enumerate() {
        ctx.row_considered(n + 1)?;
        *counts.entry(r.borrow()).or_insert(0) += 1;
    }
    retain(left, ctx, |l| match counts.get_mut(l) {
        Some(c) if *c > 0 => {
            *c -= 1;
            false
        }
        _ => true,
    })
}

fn hash_aggregate<R: Borrow<Row>>(
    rows: &[R],
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
        let r = r.borrow();
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
    fn explicit_parallel_sweep_hint_without_indexes() {
        // A pinned sweep sorts non-indexed inputs on the fly when the
        // condition is a pure overlap plus a residual, and the hint falls
        // back to hash when the condition has no overlap pattern. (The
        // name predates the removal of the slab-parallel sweep; the one
        // sequential sweep now serves the hint.)
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
        let (sweep, stats) = run_with(&Engine::new(), &plan, &c, None);
        let sweep = sweep.canonicalized();
        assert!(stats.get("SweepJoin").is_some(), "{stats:?}");
        let naive = Engine::new()
            .execute(&pure_overlap_self_join_plan(), &c)
            .unwrap()
            .canonicalized();
        assert_eq!(naive, sweep);

        // Equality-only condition: no overlap pattern, hash fallback.
        let equi = Plan::scan("works", works_schema()).join_with(
            Plan::scan("works", works_schema()),
            Expr::col(0).eq(Expr::col(4)),
            JoinAlgo::Sweep,
        );
        let (_, stats) = run_with(&Engine::new(), &equi, &c, None);
        assert!(stats.get("SweepJoin").is_none(), "{stats:?}");
        assert!(stats.get("HashJoin").is_some(), "{stats:?}");
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

    fn cancelled_as(err: &StatementError, expect: obs::CancelKind) -> bool {
        matches!(err, StatementError::Cancelled { kind, .. } if *kind == expect)
    }

    #[test]
    fn context_accounts_and_cancels() {
        let c = works_catalog();
        let account = Arc::new(obs::ResourceAccount::default());
        let token = Arc::new(obs::CancelToken::default());
        token.arm(None, None, None);
        let engine = Engine::new().with_context(ExecContext::new(
            Arc::clone(&account),
            Arc::clone(&token),
            None,
        ));
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
        let routes = [
            (JoinAlgo::NestedLoop, "NestedLoopJoin", 16),
            (JoinAlgo::Hash, "HashJoin", 10),
            (JoinAlgo::Sweep, "IndexSweepJoin", 10),
            (JoinAlgo::Auto, "HashJoin", 10),
        ];
        for (algo, op, pairs) in routes {
            let join = scan().join_with(scan(), cond.clone(), algo);
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
            // An engine built outside a session runs under its own default
            // context, never cancelled.
            let (out, stats) = run_with(&Engine::new(), &join, &c, Some(&indexes));
            assert_eq!(out.len(), 1, "{algo:?} under the default context");
            assert!(stats.get(op).is_some(), "{algo:?}: {stats:?}");
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
        let join = scan().join(scan(), cond).project(output, names).unwrap();
        let plan = join.clone().coalesce();
        let account = Arc::new(obs::ResourceAccount::default());
        let engine = Engine::new().with_context(ExecContext::new(
            Arc::clone(&account),
            Arc::new(obs::CancelToken::default()),
            None,
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

        // An aggregate over the same join reads its six pairs: the join is
        // the same node to every observer, and the aggregate equals the one
        // over the rows the join builds.
        let agg = |input: Plan| {
            let arg = Expr::binary(BinOp::Sub, Expr::col(3), Expr::col(2));
            let aggs = vec![AggExpr::new(AggFunc::Sum, arg, "len")];
            input
                .temporal_aggregate(vec![0], aggs, false, (0, 24))
                .unwrap()
        };
        let plan = agg(join.clone());
        let (mut stats, mut nodes) = (ExecStats::default(), NodeStats::default());
        account.reset();
        let out = engine
            .execute_analyzed(&plan, &c, Some(&indexes), &mut stats, &mut nodes)
            .unwrap();
        let rows = Engine::new().execute(&join, &c).unwrap().rows().to_vec();
        let values = Plan::values(join.schema.clone(), rows);
        assert_eq!(out, Engine::new().execute(&agg(values), &c).unwrap());
        assert_eq!(stats.get("Join"), Some((1, 6)));
        assert_eq!(stats.get("HashJoin"), Some((1, 6)));
        let text = explain_analyzed(&plan, &nodes);
        assert!(
            text.contains(" LEAST(#3, #7)] (actual rows=6 calls=1 "),
            "{text}"
        );
        let usage = account.usage();
        assert_eq!(usage.rows_emitted, 4 + 4 + 6 + out.len() as u64);
        assert_eq!(usage.join_pairs, 10, "pairs with equal skills");
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

    /// Executes `plan` over `works` with its indexes and folds the node
    /// actuals: the profile's `(path, samples)` and its summed self time,
    /// with the root's time.
    fn profile_of(plan: &Plan) -> (Vec<(String, u64)>, u64, u64) {
        let c = works_catalog();
        let indexes = IndexCatalog::build_all(&c);
        let mut nodes = NodeStats::default();
        let mut stats = ExecStats::default();
        Engine::new()
            .execute_analyzed(plan, &c, Some(&indexes), &mut stats, &mut nodes)
            .unwrap();
        let profile = nodes.profile(plan);
        let self_ns = profile.values().map(|&(_, self_ns)| self_ns).sum();
        let paths = profile.into_iter().map(|(p, (n, _))| (p, n)).collect();
        (paths, self_ns, nodes.get(plan).unwrap().nanos)
    }

    fn paths(expected: &[(&str, u64)]) -> Vec<(String, u64)> {
        expected.iter().map(|&(p, n)| (p.to_string(), n)).collect()
    }

    /// A `TemporalAggregate` directly over a `Join`, whose pairs it reads.
    fn aggregate_over_join() -> Plan {
        let output = vec![Expr::col(0), Expr::col(2), Expr::col(7)];
        let names = ["name", "ts", "te"].map(String::from).to_vec();
        let join = equi_overlap_self_join_plan()
            .project(output, names)
            .unwrap();
        let aggs = vec![AggExpr::new(AggFunc::Count, Expr::col(0), "n")];
        join.temporal_aggregate(vec![0], aggs, false, (0, 24))
            .unwrap()
    }

    #[test]
    fn profile_self_times_sum_to_the_root_time() {
        let scan = Plan::scan("works", works_schema());
        for plan in [scan.clone(), scan.coalesce(), aggregate_over_join()] {
            let (_, self_ns, root_ns) = profile_of(&plan);
            assert_eq!(self_ns, root_ns, "{plan:?}");
        }
    }

    #[test]
    fn profile_skips_the_scan_an_indexed_timeslice_never_runs() {
        let plan = Plan::scan("works", works_schema()).timeslice(9);
        assert_eq!(profile_of(&plan).0, paths(&[("Timeslice", 1)]));
    }

    #[test]
    fn profile_folds_sibling_scans_into_one_path() {
        let plan = equi_overlap_self_join_plan();
        let expected = paths(&[("Join", 1), ("Join;Scan", 2)]);
        assert_eq!(profile_of(&plan).0, expected);
    }

    #[test]
    fn profile_paths_run_root_first_through_the_pair_route() {
        let expected = paths(&[
            ("TemporalAggregate", 1),
            ("TemporalAggregate;Join", 1),
            ("TemporalAggregate;Join;Scan", 2),
        ]);
        assert_eq!(profile_of(&aggregate_over_join()).0, expected);
    }
}
