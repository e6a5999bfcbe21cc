//! Sessions: the statement-level execution pipeline.
//!
//! [`Session::execute`] runs one SQL statement end-to-end: parse → (for
//! queries) bind and `REWR`-compile → refresh the indexes of the scanned
//! tables → execute, or (for DDL/DML) validate and apply the mutation
//! through the storage layer's version-bumping API. This is the paper's
//! middleware picture (Section 9) made operational: the `SEQ VT` language
//! feature over a *live* database instead of a preloaded one.
//!
//! A session runs against one of two backends:
//!
//! * **owned** — the session exclusively owns an in-memory [`Database`]
//!   ([`Session::new`]); bare statements apply directly (autocommit).
//! * **shared** — the session is one of many over a
//!   [`crate::SharedDatabase`]; reads pin an MVCC snapshot, and every
//!   write — bare or transactional — publishes through the transaction
//!   manager's serialized, first-committer-wins commit path. A durable
//!   database ([`crate::SharedDatabase::open_durable`]) is always shared:
//!   that commit path is where the write-ahead log sits.
//!
//! `BEGIN` / `COMMIT` / `ROLLBACK` work on both backends: statements
//! inside a transaction run against a private copy-on-write snapshot
//! (snapshot isolation — the transaction reads its own writes, nobody else
//! does), `COMMIT` validates them, logs them (when durable) as *one* WAL
//! commit unit with a single fsync, and publishes them; `ROLLBACK`
//! discards them — the catalog is bit-for-bit what it was at `BEGIN`. A
//! failed `COMMIT` (write-write conflict, durability failure) rolls the
//! transaction back.
//!
//! What a failure does to the session is decided by the variant of its
//! [`StatementError`], never by the message: `Cancelled` rolls the open
//! transaction back and is counted, `Conflict` makes an autocommit
//! statement retry, `Failed` leaves an open transaction open.

use crate::database::{
    conform_row, create_table_in, delete_where_in, insert_rows_in, update_where_in, Database,
};
use crate::shared::SharedDatabase;
use algebra::Plan;
use engine::{eval_expr, Engine, EngineConfig, ExecContext, ExecStats, NodeStats, Prepared};
use index::{IndexCatalog, MaintenanceStats};
use rewrite::{infer_domain, RewriteOptions, SnapshotCompiler};
use snapshot_obs::{self as obs, LazyCounter, LazyHistogram, StatementError};
use snapshot_txn::{CatalogSnapshot, Transaction};
use sql::{
    bind_scalar_expr, bind_statement, parse_sql_statement, split_script, AstExpr, ColumnDef,
    InsertSource, SqlStatement, Statement,
};
use std::fmt;
use std::time::Instant;
use storage::{Catalog, Column, Row, Schema, SqlType, Table, Value};

/// What executing one statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A query result.
    Rows(Table),
    /// `CREATE TABLE` succeeded.
    Created {
        /// The new table's name.
        table: String,
    },
    /// `DROP TABLE` succeeded.
    Dropped {
        /// The dropped table's name.
        table: String,
        /// Whether the table existed (`false` only under `IF EXISTS`).
        existed: bool,
    },
    /// `INSERT` succeeded.
    Inserted {
        /// Target table.
        table: String,
        /// Rows inserted.
        rows: usize,
    },
    /// `DELETE` succeeded.
    Deleted {
        /// Target table.
        table: String,
        /// Rows removed.
        rows: usize,
    },
    /// `UPDATE` succeeded.
    Updated {
        /// Target table.
        table: String,
        /// Rows changed.
        rows: usize,
    },
    /// `BEGIN` opened a transaction.
    Began,
    /// `COMMIT` published the open transaction.
    Committed {
        /// Tables published (0 for a read-only transaction).
        tables: usize,
    },
    /// `ROLLBACK` discarded the open transaction.
    RolledBack,
    /// `SET` changed a session option.
    Set {
        /// Option name.
        name: String,
        /// The raw value it was set to.
        value: String,
    },
}

impl StatementResult {
    /// The result table, for query statements.
    pub fn rows(&self) -> Option<&Table> {
        match self {
            StatementResult::Rows(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for StatementResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementResult::Rows(t) => write!(f, "SELECT {}", t.len()),
            StatementResult::Created { table } => write!(f, "CREATE TABLE {table}"),
            StatementResult::Dropped { table, existed } => {
                if *existed {
                    write!(f, "DROP TABLE {table}")
                } else {
                    write!(f, "DROP TABLE {table} (did not exist)")
                }
            }
            StatementResult::Inserted { table, rows } => write!(f, "INSERT {rows} INTO {table}"),
            StatementResult::Deleted { table, rows } => write!(f, "DELETE {rows} FROM {table}"),
            StatementResult::Updated { table, rows } => write!(f, "UPDATE {rows} IN {table}"),
            StatementResult::Began => write!(f, "BEGIN"),
            StatementResult::Committed { tables } => write!(f, "COMMIT ({tables} table(s))"),
            StatementResult::RolledBack => write!(f, "ROLLBACK"),
            StatementResult::Set { name, value } => write!(f, "SET {name} = {value}"),
        }
    }
}

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionOptions {
    /// Route queries through the index registry (on by default; indexes
    /// are refreshed lazily before each indexed query).
    pub use_indexes: bool,
    /// After every indexed query, re-execute on the naive route and fail
    /// on divergence — the end-to-end check that version-based index
    /// invalidation works (used by the test suite and `.verify on`).
    pub verify_indexed: bool,
    /// Worker threads for parallel operators — currently the
    /// slab-partitioned endpoint-sweep temporal join. `1` (the default)
    /// keeps execution sequential; above `1`, interval-overlap joins that
    /// would take the sequential sweep take the parallel one instead
    /// (same bag, verified by the differential tests and `.verify on`).
    pub parallelism: usize,
    /// Rewriting options for `SEQ VT` compilation.
    pub rewrite: RewriteOptions,
    /// Publish per-statement engine operator counters to the global
    /// metrics registry ([`snapshot_obs::registry`]), and feed the
    /// statement fingerprint statistics behind `snapshot_stat_statements`.
    /// On by default — the publication is a handful of atomic adds once
    /// per statement, after execution, so the engine hot path never
    /// touches the registry.
    pub collect_metrics: bool,
    /// Slow-query threshold, in milliseconds: a statement whose total
    /// wall time reaches it is recorded in the global slow-query log
    /// ([`snapshot_obs::slow_queries`], queryable as
    /// `snapshot_stat_slow_queries`) together with its phase split and
    /// `EXPLAIN ANALYZE`-style operator actuals. `None` (the default)
    /// disables the log *and* the per-statement rendering of those
    /// actuals; set it via `SET slow_query_ms = <ms>`, the shell's
    /// `--slow-ms` flag or `.slow`.
    pub slow_query_ms: Option<u64>,
    /// Statement timeout, in milliseconds: a statement still executing
    /// past it is cooperatively cancelled at the next operator batch
    /// boundary and surfaces [`StatementError::Cancelled`]. `None` (the
    /// default) and `0` both mean no timeout. Set it per session via
    /// `SET statement_timeout = <ms>`, the shell's `--timeout-ms` flag,
    /// or `.timeout`.
    pub statement_timeout_ms: Option<u64>,
    /// Resource limit: cancel a statement once its scans have produced
    /// more than this many rows (`SET max_rows_scanned = <n>`).
    pub max_rows_scanned: Option<u64>,
    /// Resource limit: cancel a statement once its operators have emitted
    /// more than this many rows (`SET max_result_rows = <n>`).
    pub max_result_rows: Option<u64>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            use_indexes: true,
            verify_indexed: false,
            parallelism: default_parallelism(),
            rewrite: RewriteOptions::default(),
            collect_metrics: true,
            slow_query_ms: None,
            statement_timeout_ms: None,
            max_rows_scanned: None,
            max_result_rows: None,
        }
    }
}

/// The default worker count for new sessions: `1` (sequential), unless
/// the `SNAPSHOT_PARALLELISM` environment variable overrides it — the CI
/// hook that runs the *entire* test suite over the parallel join route
/// without touching any call site. `0` means one worker per hardware
/// thread, the same convention as the shell's `--parallelism 0`. Read
/// once per process.
fn default_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("SNAPSHOT_PARALLELISM")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(engine::resolve_parallelism)
            .unwrap_or(1)
    })
}

/// Conflict-retry counters for implicit (autocommit) statements on a
/// shared database — see [`Session::conflict_retries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries the most recent autocommit statement needed (0 = first
    /// attempt succeeded or failed non-retryably).
    pub last_statement: u32,
    /// Retries across the session's lifetime.
    pub total: u64,
    /// Statements that exhausted the retry budget and surfaced the
    /// conflict to the caller.
    pub gave_up: u64,
}

impl RetryStats {
    fn record(&mut self, attempts: u32) {
        self.last_statement = attempts;
        self.total += attempts as u64;
    }
}

/// How often an implicit transaction re-runs after losing a
/// first-committer-wins race before the conflict is surfaced.
const CONFLICT_RETRY_LIMIT: u32 = 6;

/// Registry mirrors of [`RetryStats`], aggregated across all sessions of
/// the process (the per-session struct stays the precise view).
static SESSION_RETRIES: LazyCounter = LazyCounter::new("session_retries_total");
static SESSION_RETRY_GIVE_UPS: LazyCounter = LazyCounter::new("session_retry_give_ups_total");

// Per-phase latency histograms, fed once per statement from the session's
// [`PhaseTimings`] when [`SessionOptions::collect_metrics`] is on. These
// are what lets `benches/observe.rs` attribute workload time to pipeline
// phases across many sessions and threads.
static PHASE_PARSE: LazyHistogram = LazyHistogram::new("session_parse_seconds");
static PHASE_BIND: LazyHistogram = LazyHistogram::new("session_bind_seconds");
static PHASE_REWRITE: LazyHistogram = LazyHistogram::new("session_rewrite_seconds");
static PHASE_INDEX: LazyHistogram = LazyHistogram::new("session_index_seconds");
static PHASE_EXECUTE: LazyHistogram = LazyHistogram::new("session_execute_seconds");
static PHASE_COMMIT: LazyHistogram = LazyHistogram::new("session_commit_seconds");

/// Wall-clock nanoseconds the most recent statement spent in each phase
/// of the pipeline. Zero for phases the statement never entered (a plain
/// `INSERT` has no bind/rewrite phase; only transactional or autocommit
/// writes have a commit phase). Phases are additive across sub-queries:
/// an `INSERT ... SELECT` accumulates its source query's phases too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Parsing the statement text.
    pub parse_ns: u64,
    /// Binding names and types against the catalog.
    pub bind_ns: u64,
    /// `SEQ VT` rewrite and physical-plan compilation.
    pub rewrite_ns: u64,
    /// Lazy index repair of the scanned tables.
    pub index_ns: u64,
    /// Plan execution (including any `.verify on` cross-check).
    pub execute_ns: u64,
    /// Commit work — validate, WAL append, publish — explicit or implicit.
    pub commit_ns: u64,
}

impl PhaseTimings {
    /// Sum of all recorded phases.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns
            + self.bind_ns
            + self.rewrite_ns
            + self.index_ns
            + self.execute_ns
            + self.commit_ns
    }

    /// One-line rendering of the non-zero phases, e.g.
    /// `parse 0.012 ms · bind 0.034 ms · execute 1.400 ms`.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (name, ns) in [
            ("parse", self.parse_ns),
            ("bind", self.bind_ns),
            ("rewrite", self.rewrite_ns),
            ("index", self.index_ns),
            ("execute", self.execute_ns),
            ("commit", self.commit_ns),
        ] {
            if ns > 0 {
                parts.push(format!("{name} {:.3} ms", ns as f64 / 1e6));
            }
        }
        if parts.is_empty() {
            return "(no phases recorded)".into();
        }
        parts.join(" · ")
    }

    /// Feeds the non-zero phases into the per-phase registry histograms.
    fn publish_to_registry(&self) {
        for (hist, ns) in [
            (&PHASE_PARSE, self.parse_ns),
            (&PHASE_BIND, self.bind_ns),
            (&PHASE_REWRITE, self.rewrite_ns),
            (&PHASE_INDEX, self.index_ns),
            (&PHASE_EXECUTE, self.execute_ns),
            (&PHASE_COMMIT, self.commit_ns),
        ] {
            if ns > 0 {
                hist.observe(ns as f64 / 1e9);
            }
        }
    }
}

/// What recovering a database directory found and did (see
/// [`crate::SharedDatabase::open_durable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint the catalog was loaded from
    /// (`None` when the directory had no valid checkpoint).
    pub checkpoint_seq: Option<u64>,
    /// WAL statements replayed through the execution pipeline on top of
    /// the checkpoint.
    pub replayed: usize,
    /// Bytes of torn/corrupt WAL tail truncated away during recovery.
    pub truncated_bytes: u64,
    /// WAL records of an unterminated transaction (a `BEGIN` whose
    /// `COMMIT` never reached the log) that recovery discarded — the
    /// transaction never committed, so none of it replays.
    pub discarded_uncommitted: usize,
}

/// Where a session's statements read and write.
#[derive(Debug)]
enum Backend {
    /// Exclusive ownership of a database (single-session; boxed so the
    /// slim shared handle doesn't pay for the owned variant's size).
    Owned(Box<Database>),
    /// One session of many over a shared, transaction-managed database.
    Shared(SharedDatabase),
}

/// A statement-level connection to a database.
#[derive(Debug)]
pub struct Session {
    backend: Backend,
    options: SessionOptions,
    /// The open explicit transaction, if any.
    txn: Option<Transaction>,
    /// Transaction ids handed out on the owned backend (diagnostics).
    next_owned_txn_id: u64,
    /// Conflict-retry bookkeeping for implicit transactions.
    retries: RetryStats,
    /// Per-phase breakdown of the most recent statement.
    phases: PhaseTimings,
    /// Rendered operator actuals of the most recent plan execution, kept
    /// only while the slow-query log is armed (see
    /// [`SessionOptions::slow_query_ms`]).
    slow_actuals: Option<String>,
    /// This session's entry in the global live-activity registry
    /// (`snapshot_stat_activity`); dropping the session deregisters it.
    activity: obs::ActivityHandle,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(Database::new())
    }
}

impl Session {
    /// A session over an exclusively owned database, with default options.
    pub fn new(db: Database) -> Self {
        Session::with_options(db, SessionOptions::default())
    }

    /// A session over an exclusively owned database, with explicit options.
    pub fn with_options(db: Database, options: SessionOptions) -> Self {
        Session::over(Backend::Owned(Box::new(db)), "owned", options)
    }

    /// A session over a shared database (one of many — see
    /// [`SharedDatabase::session`]).
    pub(crate) fn from_shared(shared: SharedDatabase, options: SessionOptions) -> Self {
        Session::over(Backend::Shared(shared), "shared", options)
    }

    fn over(backend: Backend, kind: &'static str, options: SessionOptions) -> Self {
        Session {
            backend,
            options,
            txn: None,
            next_owned_txn_id: 0,
            retries: RetryStats::default(),
            phases: PhaseTimings::default(),
            slow_actuals: None,
            activity: obs::register_session(kind),
        }
    }

    /// This session's id in the live-activity registry — what
    /// `snapshot_stat_activity` reports and what `.kill <id>` /
    /// `SELECT snapshot_cancel(<id>)` target.
    pub fn session_id(&self) -> u64 {
        self.activity.session_id()
    }

    /// Stamp the peer address (`host:port`) of the network client this
    /// session serves — shown as `remote_addr` in
    /// `snapshot_stat_activity`, turning `.kill <id>` /
    /// `snapshot_cancel(<id>)` into an admin plane over remote
    /// connections. Local sessions never call this and report NULL.
    pub fn set_remote_addr(&self, addr: &str) {
        self.activity.set_remote_addr(addr);
    }

    /// Cancels the current statement of session `id` process-wide (the
    /// `.kill` entry point). Returns `false` when `id` is unknown or
    /// idle — killing an idle session is a clean no-op.
    pub fn cancel_session(id: u64) -> bool {
        obs::cancel_session(id)
    }

    /// The underlying database (owned backends only: direct inspection,
    /// bulk loads through [`Database`]).
    ///
    /// # Panics
    /// Panics on a session over a [`SharedDatabase`] — there is no
    /// exclusively owned database to hand out; use
    /// [`Session::read_view`] to read, and transactions to write.
    pub fn database(&self) -> &Database {
        match &self.backend {
            Backend::Owned(db) => db,
            Backend::Shared(_) => {
                panic!("Session::database() on a shared session — use read_view()")
            }
        }
    }

    /// The underlying database, mutably (owned backends only).
    ///
    /// # Panics
    /// Panics on a session over a [`SharedDatabase`] (see
    /// [`Session::database`]).
    pub fn database_mut(&mut self) -> &mut Database {
        match &mut self.backend {
            Backend::Owned(db) => db,
            Backend::Shared(_) => {
                panic!(
                    "Session::database_mut() on a shared session — writes go through transactions"
                )
            }
        }
    }

    /// A consistent snapshot of what this session's next read would see:
    /// the open transaction's working state (its pinned snapshot plus its
    /// own writes), or the current committed/owned state. Cheap — tables
    /// are `Arc`-shared, not copied.
    pub fn read_view(&self) -> CatalogSnapshot {
        if let Some(txn) = &self.txn {
            return CatalogSnapshot::new(
                txn.catalog().clone(),
                txn.indexes().clone(),
                txn.snapshot().commit_seq(),
            );
        }
        match &self.backend {
            Backend::Owned(db) => {
                CatalogSnapshot::new(db.catalog().clone(), db.indexes().clone(), 0)
            }
            Backend::Shared(shared) => shared.snapshot(),
        }
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The snapshot pinned by the open transaction at `BEGIN` (its reads
    /// are evaluated against this plus its own writes), if one is open.
    pub fn transaction_snapshot(&self) -> Option<&CatalogSnapshot> {
        self.txn.as_ref().map(Transaction::snapshot)
    }

    /// The session options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The session options, mutably (`.verify on`, pinned join routes,
    /// parallelism — queries pick the change up immediately, the engine is
    /// derived from the options per statement).
    pub fn options_mut(&mut self) -> &mut SessionOptions {
        &mut self.options
    }

    /// How often this session's implicit (autocommit) transactions had to
    /// retry after losing a first-committer-wins race. A non-zero
    /// [`RetryStats::total`] under concurrent bare DML is expected and
    /// harmless — the retry loop is what turns raw conflicts into
    /// successes; [`RetryStats::gave_up`] counts the ones that exhausted
    /// the budget and surfaced the conflict.
    pub fn conflict_retries(&self) -> RetryStats {
        self.retries
    }

    /// Per-phase wall-clock breakdown of the most recent statement —
    /// parse, bind, rewrite, index refresh, execute, commit — replacing
    /// the single total the shell used to report. Reset by every
    /// statement; phases a statement never entered stay zero.
    pub fn last_phase_timings(&self) -> PhaseTimings {
        self.phases
    }

    /// Registers a batch of tables wholesale — the bulk-load entry point
    /// (`.load` in the shell), routed to the owned database or the shared
    /// install path. Refused inside a transaction (bulk loads have no
    /// statement form, so they cannot join a commit unit).
    pub fn register_tables<I>(&mut self, tables: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (String, Table)>,
    {
        if self.txn.is_some() {
            return Err("cannot bulk-load inside a transaction".into());
        }
        match &mut self.backend {
            Backend::Owned(db) => {
                db.register_tables(tables);
                Ok(())
            }
            Backend::Shared(shared) => shared.register_tables(tables),
        }
    }

    /// Checkpoints the current committed state now (durable databases
    /// only; returns `None` in memory).
    pub fn checkpoint(&mut self) -> Result<Option<u64>, String> {
        match &self.backend {
            Backend::Owned(_) => Ok(None),
            Backend::Shared(shared) => shared.checkpoint(),
        }
    }

    /// How index maintenance repaired stale entries so far, on the state
    /// this session reads (committed state for shared sessions).
    pub fn index_maintenance(&self) -> MaintenanceStats {
        match &self.backend {
            Backend::Owned(db) => db.index_maintenance(),
            Backend::Shared(shared) => shared.index_maintenance(),
        }
    }

    /// Repairs the indexes of `table` (all tables when `None`) on the
    /// state this session reads: the open transaction's working state, the
    /// owned database, or the shared committed state.
    pub fn refresh_indexes(&mut self, table: Option<&str>) -> Result<(), String> {
        let names: Vec<String> = {
            let view = self.read_view();
            match table {
                Some(name) => {
                    if view.catalog().get(name).is_none() {
                        return Err(format!("unknown table '{name}'"));
                    }
                    vec![name.to_string()]
                }
                None => view.catalog().table_names().map(String::from).collect(),
            }
        };
        if let Some(txn) = self.txn.as_mut() {
            txn.refresh_indexes(&names);
            return Ok(());
        }
        match &mut self.backend {
            Backend::Owned(db) => db.refresh_indexes(&names),
            Backend::Shared(shared) => shared.refresh_indexes(Some(&names)),
        }
        Ok(())
    }

    /// Parses and executes one statement. On a durable database (see
    /// [`crate::SharedDatabase::open_durable`]), a bare DDL/DML statement
    /// is a single-statement commit unit, in the write-ahead log before it
    /// is visible and before this returns; statements inside a transaction
    /// are buffered and logged as one atomic commit unit (single fsync) at
    /// `COMMIT`.
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult, StatementError> {
        let started = Instant::now();
        let stmt = {
            let _span = obs::Span::enter("session.parse");
            parse_sql_statement(sql)?
        };
        let parse_ns = started.elapsed().as_nanos() as u64;
        self.execute_parsed(&stmt, sql, parse_ns)
    }

    /// Parses and executes a `;`-separated script, stopping at the first
    /// error. The whole script is parsed up front, so a syntax error
    /// anywhere prevents any statement from running; execution errors stop
    /// the script mid-way. On a durable database each bare DDL/DML
    /// statement is its own commit unit (inside transactions, the unit is
    /// the transaction).
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, StatementError> {
        let pieces = split_script(sql);
        let mut stmts = Vec::with_capacity(pieces.len());
        for piece in &pieces {
            let started = Instant::now();
            let _span = obs::Span::enter("session.parse");
            let stmt = parse_sql_statement(piece)?;
            stmts.push((stmt, started.elapsed().as_nanos() as u64));
        }
        stmts
            .iter()
            .zip(&pieces)
            .map(|((stmt, parse_ns), piece)| self.execute_parsed(stmt, piece, *parse_ns))
            .collect()
    }

    /// Runs one parsed statement and does the post-statement bookkeeping
    /// [`Session::execute`] and [`Session::execute_script`] share.
    fn execute_parsed(
        &mut self,
        stmt: &SqlStatement,
        sql: &str,
        parse_ns: u64,
    ) -> Result<StatementResult, StatementError> {
        let result = self.apply_inner(stmt, Some(sql));
        // `apply_inner` reset the phase breakdown; fold the parse time in
        // afterwards so it survives the reset.
        self.phases.parse_ns = parse_ns;
        if let Ok(r) = &result {
            if self.options.collect_metrics {
                self.phases.publish_to_registry();
            }
            self.observe_statement(sql, r);
        }
        result
    }

    /// Executes one parsed statement without recording its text — the
    /// recovery-replay entry point: a replayed statement is already in the
    /// log and must not be buffered for it again.
    pub(crate) fn execute_statement(
        &mut self,
        stmt: &SqlStatement,
    ) -> Result<StatementResult, StatementError> {
        self.apply_inner(stmt, None)
    }

    /// Compiles a query statement to its physical plan without executing it
    /// (the `.explain` entry point), against this session's read view. The
    /// compilation cost is recorded phase by phase in
    /// [`Session::last_phase_timings`] (parse/bind/rewrite; the other
    /// phases stay zero — nothing executed).
    pub fn compile(&mut self, sql: &str) -> Result<Plan, String> {
        self.phases = PhaseTimings::default();
        let started = Instant::now();
        let stmt = parse_sql_statement(sql)?;
        self.phases.parse_ns = started.elapsed().as_nanos() as u64;
        let SqlStatement::Query(q) = stmt else {
            return Err("only query statements have plans to explain".into());
        };
        let view = self.read_view();
        compile_query_timed(&self.options, view.catalog(), &q, &mut self.phases, None)
    }

    /// Feed the global statement statistics and (past the threshold) the
    /// slow-query log with one successfully executed statement.
    fn observe_statement(&mut self, sql: &str, result: &StatementResult) {
        let total_ns = self.phases.total_ns();
        let rows = result.rows().map(|t| t.len() as u64);
        if self.options.collect_metrics {
            obs::record_statement(sql, rows, total_ns as f64 / 1e9);
        }
        let Some(threshold_ms) = self.options.slow_query_ms else {
            return;
        };
        if total_ns as f64 / 1e6 >= threshold_ms as f64 {
            self.record_slow_query(sql, rows, None);
        }
    }

    /// Appends the current statement to the slow-query log: its phase
    /// split from [`Session::last_phase_timings`], the operator actuals
    /// of its last plan execution, and why it was cancelled, if it was.
    fn record_slow_query(&mut self, text: &str, rows: Option<u64>, cancelled: Option<String>) {
        let p = &self.phases;
        obs::record_slow_query(obs::SlowQuery {
            seq: 0, // assigned by the log
            statement: clean_statement(text),
            total_ms: p.total_ns() as f64 / 1e6,
            parse_ms: p.parse_ns as f64 / 1e6,
            bind_ms: p.bind_ns as f64 / 1e6,
            rewrite_ms: p.rewrite_ns as f64 / 1e6,
            index_ms: p.index_ns as f64 / 1e6,
            execute_ms: p.execute_ns as f64 / 1e6,
            commit_ms: p.commit_ns as f64 / 1e6,
            rows,
            plan: self.slow_actuals.take(),
            cancelled,
        });
    }

    /// Routes one statement: transaction control, query, or mutation —
    /// bracketed by live-activity registration ([`snapshot_obs::activity`])
    /// and followed by the cancellation unwind if the statement died
    /// [`StatementError::Cancelled`].
    fn apply_inner(
        &mut self,
        stmt: &SqlStatement,
        text: Option<&str>,
    ) -> Result<StatementResult, StatementError> {
        self.phases = PhaseTimings::default();
        self.slow_actuals = None;
        self.activity.begin_statement(
            text.unwrap_or("<prepared statement>"),
            self.options.statement_timeout_ms,
            self.options.max_rows_scanned,
            self.options.max_result_rows,
        );
        let result = self.dispatch(stmt, text);
        if let Err(StatementError::Cancelled { kind, .. }) = &result {
            self.unwind_cancelled(*kind, text);
        }
        self.activity.set_in_txn(self.txn.is_some());
        self.activity.end_statement();
        result
    }

    /// The statement router proper (see [`Session::apply_inner`]).
    fn dispatch(
        &mut self,
        stmt: &SqlStatement,
        text: Option<&str>,
    ) -> Result<StatementResult, StatementError> {
        match stmt {
            SqlStatement::Query(q) => {
                // `SELECT snapshot_cancel(<id>)` is a session-level verb,
                // not a query: intercept it before binding (the algebra
                // has no scalar-function form for it).
                if let Some(id) = cancel_request(q) {
                    return Ok(StatementResult::Rows(cancel_result_table(
                        Session::cancel_session(id),
                    )));
                }
                Ok(StatementResult::Rows(self.run_query(q, false)?))
            }
            SqlStatement::Explain {
                analyze: true,
                statement,
            } => Ok(StatementResult::Rows(self.run_query(statement, true)?)),
            SqlStatement::Explain {
                analyze: false,
                statement,
            } => {
                let view = self.read_view();
                let plan = compile_query(&self.options, view.catalog(), statement)?;
                Ok(StatementResult::Rows(plan_text_table(&plan.explain())))
            }
            SqlStatement::Begin => self.begin_txn(),
            SqlStatement::Commit => {
                let tables = self.commit_open()?;
                Ok(StatementResult::Committed { tables })
            }
            SqlStatement::Rollback => self.rollback_txn(),
            SqlStatement::Set { name, value } => {
                self.set_option(name, value)?;
                Ok(StatementResult::Set {
                    name: name.to_string(),
                    value: value.to_string(),
                })
            }
            _ => self.apply_mutation(stmt, text),
        }
    }

    /// Sets one option by name — what SQL `SET <name> = <value>` and the
    /// wire protocol's `SetOption` frame both run. Values are a number or
    /// `off`. `off` clears `statement_timeout` (alias
    /// `statement_timeout_ms`), `max_rows_scanned`, `max_result_rows` and
    /// `slow_query_ms`; `0` clears the first three too, while
    /// `slow_query_ms = 0` logs every statement. `parallelism = 0` means
    /// one worker per hardware thread. `slow_log_capacity` resizes the
    /// process-wide slow-query ring and takes a positive number.
    pub fn set_option(&mut self, name: &str, value: &str) -> Result<(), String> {
        let parsed = if value.eq_ignore_ascii_case("off") {
            None
        } else {
            Some(value.parse::<u64>().map_err(|_| {
                format!("invalid value '{value}' for '{name}' (expected a number or 'off')")
            })?)
        };
        let options = &mut self.options;
        match name {
            "statement_timeout" | "statement_timeout_ms" => {
                options.statement_timeout_ms = parsed.filter(|&ms| ms > 0);
            }
            "max_rows_scanned" => options.max_rows_scanned = parsed.filter(|&n| n > 0),
            "max_result_rows" => options.max_result_rows = parsed.filter(|&n| n > 0),
            "slow_query_ms" => options.slow_query_ms = parsed,
            "parallelism" => {
                let n = parsed
                    .ok_or("parallelism must be a number (0 = one worker per hardware thread)")?;
                options.parallelism = engine::resolve_parallelism(n as usize);
            }
            "slow_log_capacity" => {
                let n = parsed
                    .filter(|&n| n > 0)
                    .ok_or("slow_log_capacity must be a positive number")?;
                obs::set_slow_log_capacity(n as usize);
            }
            other => return Err(format!("unknown session option '{other}'")),
        }
        Ok(())
    }

    /// A statement died with a cancellation error: count it in the
    /// registry, roll back whatever transaction it was running in (the
    /// WAL never saw its writes — statements are only logged at COMMIT),
    /// and stamp the slow log (when armed) with the cancellation reason.
    fn unwind_cancelled(&mut self, kind: obs::CancelKind, text: Option<&str>) {
        obs::note_cancellation(kind);
        // Drop the open transaction (explicit or implicit): its pinned
        // snapshot is what everyone else still sees, so this is the whole
        // rollback — buffered statement text only reaches the WAL at
        // COMMIT.
        self.txn = None;
        if self.options.slow_query_ms.is_some() {
            self.record_slow_query(
                text.unwrap_or("<prepared statement>"),
                None,
                Some(kind.reason().to_string()),
            );
        }
    }

    /// `BEGIN`: pin a snapshot and open a transaction over it.
    fn begin_txn(&mut self) -> Result<StatementResult, StatementError> {
        if self.txn.is_some() {
            return Err(
                "a transaction is already open (nested transactions are not supported)".into(),
            );
        }
        self.txn = Some(match &self.backend {
            Backend::Owned(db) => {
                self.next_owned_txn_id += 1;
                Transaction::begin(
                    self.next_owned_txn_id,
                    CatalogSnapshot::new(db.catalog().clone(), db.indexes().clone(), 0),
                )
            }
            Backend::Shared(shared) => shared.begin(),
        });
        Ok(StatementResult::Began)
    }

    /// Commits the open transaction — validate, log the commit unit,
    /// publish — and returns how many tables it published. A failed commit
    /// (conflict or durability error) rolls the transaction back — the
    /// committed state is untouched either way.
    fn commit_open(&mut self) -> Result<usize, StatementError> {
        let txn = self.txn.take().ok_or("no transaction is open")?;
        self.activity.set_phase(obs::Phase::Commit);
        let started = Instant::now();
        let _span = obs::Span::enter("session.commit");
        let tables = match &mut self.backend {
            Backend::Owned(db) => commit_owned(db, txn)?,
            Backend::Shared(shared) => shared.commit(txn)?.published,
        };
        self.phases.commit_ns += started.elapsed().as_nanos() as u64;
        Ok(tables)
    }

    /// `ROLLBACK`: drop the working state; the snapshot pinned at `BEGIN`
    /// is what everyone still sees, so there is nothing to undo.
    fn rollback_txn(&mut self) -> Result<StatementResult, StatementError> {
        if self.txn.take().is_none() {
            return Err("no transaction is open".into());
        }
        Ok(StatementResult::RolledBack)
    }

    /// The catalog the next mutation targets: the open transaction's
    /// working catalog, or the owned database's. (Shared bare mutations
    /// are wrapped in an implicit transaction before this is consulted.)
    fn target_catalog(&self) -> &Catalog {
        if let Some(txn) = &self.txn {
            return txn.catalog();
        }
        match &self.backend {
            Backend::Owned(db) => db.catalog(),
            Backend::Shared(_) => unreachable!("shared mutations run inside a transaction"),
        }
    }

    /// See [`Session::target_catalog`].
    fn target_catalog_mut(&mut self) -> &mut Catalog {
        if let Some(txn) = self.txn.as_mut() {
            return txn.catalog_mut();
        }
        match &mut self.backend {
            Backend::Owned(db) => db.catalog_mut(),
            Backend::Shared(_) => unreachable!("shared mutations run inside a transaction"),
        }
    }

    /// Executes a DDL/DML statement: against the open transaction if one
    /// is open; otherwise directly on an owned database (autocommit) or
    /// wrapped in an implicit single-statement transaction on a shared
    /// one (with conflict retries — see [`Session::shared_autocommit`]).
    fn apply_mutation(
        &mut self,
        stmt: &SqlStatement,
        text: Option<&str>,
    ) -> Result<StatementResult, StatementError> {
        if self.txn.is_some() {
            return self.mutate_buffered(stmt, text);
        }
        if matches!(self.backend, Backend::Shared(_)) {
            return self.shared_autocommit(stmt, text);
        }
        let (result, written) = self.mutate(stmt)?;
        if let (Some(table), Backend::Owned(db)) = (written, &mut self.backend) {
            db.note_write(&table);
        }
        Ok(result)
    }

    /// Applies one mutation inside the open transaction, recording the
    /// write and buffering the statement text for the WAL commit unit.
    /// Only statements that actually wrote are buffered: a no-op's
    /// "nothing matched" was established under *this* snapshot and is not
    /// in the write set, so replaying its text against a different state
    /// could do real work — it must never reach the WAL. (Skipping it is
    /// replay-equivalent: it changed nothing.)
    fn mutate_buffered(
        &mut self,
        stmt: &SqlStatement,
        text: Option<&str>,
    ) -> Result<StatementResult, StatementError> {
        let (result, written) = self.mutate(stmt)?;
        let txn = self.txn.as_mut().expect("caller opened the transaction");
        if let Some(table) = written {
            txn.record_write(&table);
            if let Some(text) = text {
                txn.push_statement(clean_statement(text));
            }
        }
        Ok(result)
    }

    /// A bare mutation on a shared database: wrapped in an implicit
    /// single-statement transaction, with a bounded conflict-retry loop.
    /// Losing a first-committer-wins race is not a statement error — the
    /// statement is valid, it merely raced — so instead of surfacing the
    /// raw conflict the session re-runs it against a *fresh* snapshot
    /// (every attempt re-evaluates predicates and sources against the
    /// then-current committed state, exactly as if the user had typed it
    /// again), up to [`CONFLICT_RETRY_LIMIT`] times with jittered
    /// exponential backoff. Explicit `BEGIN`…`COMMIT` transactions are
    /// *not* retried: the session cannot re-run statements it no longer
    /// has, and the user asked to manage the transaction themselves.
    fn shared_autocommit(
        &mut self,
        stmt: &SqlStatement,
        text: Option<&str>,
    ) -> Result<StatementResult, StatementError> {
        let mut attempts = 0u32;
        loop {
            let txn = match &self.backend {
                Backend::Shared(shared) => shared.begin(),
                Backend::Owned(_) => unreachable!("caller checked the backend"),
            };
            self.txn = Some(txn);
            let outcome = self
                .mutate_buffered(stmt, text)
                .and_then(|result| self.commit_open().map(|_| result));
            // `commit_open` consumed the transaction; a failed mutation
            // never got there and must not leak it.
            self.txn = None;
            match outcome {
                Ok(result) => {
                    self.retries.record(attempts);
                    return Ok(result);
                }
                Err(StatementError::Conflict(_)) if attempts < CONFLICT_RETRY_LIMIT => {
                    attempts += 1;
                    SESSION_RETRIES.inc();
                    conflict_backoff(attempts);
                }
                Err(e) => {
                    self.retries.record(attempts);
                    if matches!(e, StatementError::Conflict(_)) {
                        self.retries.gave_up += 1;
                        SESSION_RETRY_GIVE_UPS.inc();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Applies one mutation to the target catalog. Returns the result plus
    /// the table name *actually written* (`None` when the statement turned
    /// out to be a no-op — those never enter a write set, so they can
    /// never conflict).
    fn mutate(
        &mut self,
        stmt: &SqlStatement,
    ) -> Result<(StatementResult, Option<String>), StatementError> {
        match stmt {
            SqlStatement::CreateTable {
                name,
                columns,
                period,
            } => {
                let (schema, period) = build_schema(columns, period.as_ref())?;
                create_table_in(self.target_catalog_mut(), name, schema, period)?;
                Ok((
                    StatementResult::Created {
                        table: name.clone(),
                    },
                    Some(name.clone()),
                ))
            }
            SqlStatement::DropTable { name, if_exists } => {
                let existed = self.target_catalog_mut().remove(name).is_some();
                if !existed && !if_exists {
                    return Err(format!("unknown table '{name}'").into());
                }
                Ok((
                    StatementResult::Dropped {
                        table: name.clone(),
                        existed,
                    },
                    existed.then(|| name.clone()),
                ))
            }
            SqlStatement::Insert { table, source } => {
                let rows = self.eval_insert_source(source)?;
                if let (InsertSource::Query(q), true) = (source, self.txn.is_some()) {
                    // The inserted rows depend on the *source* tables'
                    // pinned state; record them as replay dependencies so
                    // commit validation refuses to log a statement whose
                    // WAL replay would read a different source.
                    let sources =
                        compile_query(&self.options, self.target_catalog(), q)?.referenced_tables();
                    let txn = self.txn.as_mut().expect("checked");
                    for name in &sources {
                        txn.record_read(name);
                    }
                }
                let n = insert_rows_in(self.target_catalog_mut(), table, rows)?;
                Ok((
                    StatementResult::Inserted {
                        table: table.clone(),
                        rows: n,
                    },
                    (n > 0).then(|| table.clone()),
                ))
            }
            SqlStatement::Delete {
                table,
                where_clause,
            } => {
                let (_, pred) = bind_where_in(self.target_catalog(), table, where_clause.as_ref())?;
                let pred = pred.as_ref().map(Prepared::new);
                let rows = delete_where_in(self.target_catalog_mut(), table, |r| {
                    pred.as_ref().is_none_or(|p| p.holds(r))
                })?;
                Ok((
                    StatementResult::Deleted {
                        table: table.clone(),
                        rows,
                    },
                    (rows > 0).then(|| table.clone()),
                ))
            }
            SqlStatement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let (schema, pred) =
                    bind_where_in(self.target_catalog(), table, where_clause.as_ref())?;
                let mut bound: Vec<(usize, algebra::Expr)> = Vec::with_capacity(assignments.len());
                for (col, ast) in assignments {
                    let idx = schema.resolve(None, col)?;
                    bound.push((idx, bind_scalar_expr(ast, &schema)?));
                }
                let pred = pred.as_ref().map(Prepared::new);
                let assign: Vec<(usize, Prepared)> =
                    bound.iter().map(|(i, e)| (*i, Prepared::new(e))).collect();
                let matches = |r: &Row| pred.as_ref().is_none_or(|p| p.holds(r));
                // One pass: evaluate the assignments and conform each
                // replacement to the schema; `Table::update_where` folds in
                // the arity/period check and applies atomically (any error
                // leaves the table untouched).
                let stored_schema = self
                    .target_catalog()
                    .get(table)
                    .expect("bound above")
                    .schema()
                    .clone();
                let rows = update_where_in(self.target_catalog_mut(), table, matches, |r| {
                    let mut values = r.values().to_vec();
                    for (idx, e) in &assign {
                        values[*idx] = e.value(r);
                    }
                    conform_row(&stored_schema, Row::new(values))
                })?;
                Ok((
                    StatementResult::Updated {
                        table: table.clone(),
                        rows,
                    },
                    (rows > 0).then(|| table.clone()),
                ))
            }
            SqlStatement::Query(_)
            | SqlStatement::Explain { .. }
            | SqlStatement::Begin
            | SqlStatement::Commit
            | SqlStatement::Rollback
            | SqlStatement::Set { .. } => {
                unreachable!("routed by apply_inner")
            }
        }
    }

    /// Evaluates an `INSERT` source to rows: constant `VALUES` tuples, or
    /// a query run through the full pipeline (against this session's
    /// current read context — inside a transaction, that includes its own
    /// uncommitted writes).
    fn eval_insert_source(&mut self, source: &InsertSource) -> Result<Vec<Row>, StatementError> {
        match source {
            InsertSource::Values(value_rows) => {
                // Constant rows: bind against the empty schema (so stray
                // column references are rejected) and evaluate.
                let empty = Schema::default();
                let mut rows = Vec::with_capacity(value_rows.len());
                for exprs in value_rows {
                    let mut values = Vec::with_capacity(exprs.len());
                    for ast in exprs {
                        let e = bind_scalar_expr(ast, &empty)?;
                        values.push(eval_expr(&e, &Row::default()));
                    }
                    rows.push(Row::new(values));
                }
                Ok(rows)
            }
            InsertSource::Query(q) => Ok(self.run_query(q, false)?.rows().to_vec()),
        }
    }

    /// The one read route: compiles `stmt` against this session's read
    /// state (see [`ReadState`]), repairs the indexes of the tables the
    /// plan scans, and executes it. With `explain_analyze` the result is
    /// not the rows but the plan as a one-column table of text lines, every
    /// operator line carrying its actual row count, call count, and
    /// inclusive wall-clock time; operators an accelerated route
    /// short-circuited read `(never executed)`.
    ///
    /// The engine is derived from the session options per statement, so a
    /// parallelism change applies to the very next one, and runs under the
    /// session's resource account and cancellation token, so operators
    /// bill their work to `snapshot_stat_progress` and observe kills,
    /// timeouts, and resource limits at batch boundaries.
    fn run_query(
        &mut self,
        stmt: &Statement,
        explain_analyze: bool,
    ) -> Result<Table, StatementError> {
        let Session {
            backend,
            txn,
            options,
            phases,
            slow_actuals,
            activity,
            ..
        } = self;
        let mut state = match (txn.as_mut(), backend) {
            (Some(txn), _) => ReadState::Txn(txn),
            (None, Backend::Owned(db)) => ReadState::Owned(db),
            (None, Backend::Shared(shared)) => ReadState::Pinned(shared.snapshot()),
        };
        let plan = compile_query_timed(options, state.catalog(), stmt, phases, Some(activity))?;
        if options.use_indexes {
            activity.set_phase(obs::Phase::Index);
            let started = Instant::now();
            let _span = obs::Span::enter("session.index");
            state.refresh_indexes(&plan.referenced_tables());
            phases.index_ns += started.elapsed().as_nanos() as u64;
        }
        activity.set_phase(obs::Phase::Execute);
        let engine = Engine::with_config(EngineConfig {
            parallelism: options.parallelism,
        })
        .with_context(ExecContext::new(activity.account(), activity.token()));
        let catalog = state.catalog();
        let started = Instant::now();
        let mut stats = ExecStats::default();
        let mut nodes = NodeStats::default();
        let result = {
            let _span = obs::Span::enter("session.execute");
            let indexes = options.use_indexes.then(|| state.indexes());
            engine
                .execute_analyzed(&plan, catalog, indexes, &mut stats, &mut nodes)
                .and_then(|executed| {
                    if options.use_indexes && options.verify_indexed {
                        // The cross-check runs sequentially on purpose:
                        // divergence then implicates either index
                        // invalidation or the parallel route, never both.
                        let naive = Engine::new().execute(&plan, catalog)?;
                        if naive.canonicalized() != executed.canonicalized() {
                            return Err(format!(
                                "indexed and naive results diverge: {} vs {} rows — index invalidation bug",
                                executed.len(),
                                naive.len()
                            )
                            .into());
                        }
                    }
                    Ok(executed)
                })
        };
        phases.execute_ns += started.elapsed().as_nanos() as u64;
        if options.collect_metrics {
            stats.publish_to_registry();
        }
        let executed = result?;
        if explain_analyze {
            let mut text = engine::explain_analyzed(&plan, &nodes);
            text.push_str(&format!(
                "(result: {} rows in {:.3} ms)\n",
                executed.len(),
                phases.execute_ns as f64 / 1e6
            ));
            return Ok(plan_text_table(&text));
        }
        if options.slow_query_ms.is_some() {
            // Rendered only while the slow-query log is armed (a string per
            // operator); the session attaches it if the statement turns
            // out slow.
            *slow_actuals = Some(engine::explain_analyzed(&plan, &nodes));
        }
        Ok(executed)
    }
}

/// What a read runs against: a catalog, its index registry, and a way to
/// repair that registry for the tables a plan scans.
enum ReadState<'a> {
    /// The open transaction's working state (its own writes included).
    Txn(&'a mut Transaction),
    /// The exclusively owned database.
    Owned(&'a mut Database),
    /// A committed snapshot pinned for this one read (shared autocommit).
    /// Repairs go to the *pinned* registry: the repaired entries match the
    /// pinned tables exactly (version epochs), never a newer committed
    /// state.
    Pinned(CatalogSnapshot),
}

impl ReadState<'_> {
    fn catalog(&self) -> &Catalog {
        match self {
            ReadState::Txn(txn) => txn.catalog(),
            ReadState::Owned(db) => db.catalog(),
            ReadState::Pinned(snap) => snap.catalog(),
        }
    }

    fn indexes(&self) -> &IndexCatalog {
        match self {
            ReadState::Txn(txn) => txn.indexes(),
            ReadState::Owned(db) => db.indexes(),
            ReadState::Pinned(snap) => snap.indexes(),
        }
    }

    fn refresh_indexes(&mut self, tables: &[String]) {
        match self {
            ReadState::Txn(txn) => txn.refresh_indexes(tables),
            ReadState::Owned(db) => db.refresh_indexes(tables),
            ReadState::Pinned(snap) => snap.refresh_indexes(tables),
        }
    }
}

/// The owned-backend commit path: validate against the live database
/// (first-committer-wins — the database can only have moved if the caller
/// mutated it directly mid-transaction), then publish.
fn commit_owned(db: &mut Database, txn: Transaction) -> Result<usize, StatementError> {
    snapshot_txn::validate_first_committer_wins(&txn, db.catalog())?;
    let published = txn.write_set().count();
    db.publish_transaction(txn.catalog(), txn.write_set());
    Ok(published)
}

/// Compiles a query statement against a catalog.
fn compile_query(
    options: &SessionOptions,
    catalog: &Catalog,
    stmt: &Statement,
) -> Result<Plan, String> {
    compile_query_timed(options, catalog, stmt, &mut PhaseTimings::default(), None)
}

/// [`compile_query`], splitting the bind and rewrite wall-clock into the
/// caller's phase breakdown (and, when the statement runs on behalf of a
/// registered session, into its live-activity phase).
fn compile_query_timed(
    options: &SessionOptions,
    catalog: &Catalog,
    stmt: &Statement,
    phases: &mut PhaseTimings,
    activity: Option<&obs::ActivityHandle>,
) -> Result<Plan, String> {
    if let Some(a) = activity {
        a.set_phase(obs::Phase::Bind);
    }
    let started = Instant::now();
    let bound = {
        let _span = obs::Span::enter("session.bind");
        bind_statement(stmt, catalog)?
    };
    phases.bind_ns += started.elapsed().as_nanos() as u64;
    if let Some(a) = activity {
        a.set_phase(obs::Phase::Rewrite);
    }
    let started = Instant::now();
    let _span = obs::Span::enter("session.rewrite");
    let compiler = SnapshotCompiler::with_options(infer_domain(catalog), options.rewrite);
    let plan = compiler.compile_statement(&bound, catalog)?;
    phases.rewrite_ns += started.elapsed().as_nanos() as u64;
    Ok(plan)
}

/// Recognizes `SELECT snapshot_cancel(<id>)` — a bare select with no
/// FROM/WHERE/GROUP BY and exactly that one function call — and returns
/// the target session id.
fn cancel_request(stmt: &Statement) -> Option<u64> {
    if !stmt.order_by.is_empty() {
        return None;
    }
    let sql::QueryExpr::Select(select) = &stmt.query else {
        return None;
    };
    if !select.from.is_empty()
        || select.where_clause.is_some()
        || !select.group_by.is_empty()
        || select.having.is_some()
    {
        return None;
    }
    let [sql::SelectItem::Expr { expr, .. }] = select.items.as_slice() else {
        return None;
    };
    let AstExpr::Func { name, args, star } = expr else {
        return None;
    };
    if name != "snapshot_cancel" || *star {
        return None;
    }
    let [AstExpr::Lit(Value::Int(id))] = args.as_slice() else {
        return None;
    };
    u64::try_from(*id).ok()
}

/// The one-row result of `SELECT snapshot_cancel(<id>)`: whether a
/// running statement was actually signalled (`false` for unknown or idle
/// sessions — killing those is a clean no-op).
fn cancel_result_table(signalled: bool) -> Table {
    let schema = Schema::new(vec![Column::new("cancelled".to_string(), SqlType::Bool)]);
    let mut table = Table::new(schema);
    table.push(Row::new(vec![Value::Bool(signalled)]));
    table
}

/// Wraps rendered plan text as a one-column result table, one row per
/// line — so `EXPLAIN` flows through [`StatementResult::Rows`] and every
/// caller (shell, scripts, tests) renders it like any other result.
fn plan_text_table(text: &str) -> Table {
    let schema = Schema::new(vec![Column::new("query plan".to_string(), SqlType::Str)]);
    let mut table = Table::new(schema);
    table.extend(text.lines().map(|l| Row::new(vec![Value::str(l)])));
    table
}

/// Builds a `CREATE TABLE` schema and resolves its period columns.
fn build_schema(
    columns: &[ColumnDef],
    period: Option<&(String, String)>,
) -> Result<(Schema, Option<(usize, usize)>), String> {
    let schema = Schema::new(
        columns
            .iter()
            .map(|c| Column::new(c.name.clone(), c.ty))
            .collect(),
    );
    let period = period
        .map(|(b, e)| Ok::<_, String>((schema.resolve(None, b)?, schema.resolve(None, e)?)))
        .transpose()?;
    Ok((schema, period))
}

/// Binds an optional WHERE clause against the table's schema (columns
/// resolvable bare or qualified by the table name) and checks it is
/// boolean. `None` means "all rows".
fn bind_where_in(
    catalog: &Catalog,
    table: &str,
    where_clause: Option<&AstExpr>,
) -> Result<(Schema, Option<algebra::Expr>), String> {
    let stored = catalog
        .get(table)
        .ok_or_else(|| format!("unknown table '{table}'"))?;
    let schema = stored.schema().with_qualifier(table);
    let pred = where_clause
        .map(|ast| {
            let e = bind_scalar_expr(ast, &schema)?;
            if e.infer_type(&schema)? != SqlType::Bool {
                return Err("WHERE predicate must be boolean".into());
            }
            Ok::<_, String>(e)
        })
        .transpose()?;
    Ok((schema, pred))
}

/// The canonical statement text for the write-ahead log and the slow-query
/// log: trimmed, no trailing `;`.
fn clean_statement(text: &str) -> String {
    text.trim().trim_end_matches(';').trim_end().to_string()
}

/// Sleeps before a conflict retry: an exponential base doubling per
/// attempt, with full jitter so sessions that collided once do not march
/// in lockstep into the next collision. No external RNG dependency — the
/// jitter seed mixes the thread id with a wall-clock nanosecond sample
/// through a splitmix64 finalizer.
fn conflict_backoff(attempt: u32) {
    use std::hash::{Hash, Hasher};
    let base_us = 50u64 << attempt.min(6); // 100 µs .. 3.2 ms
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0)
        .hash(&mut h);
    let mut x = h.finish();
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let jitter = x % base_us;
    std::thread::sleep(std::time::Duration::from_micros(base_us / 2 + jitter));
}
