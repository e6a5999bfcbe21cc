//! Sessions: the statement-level execution pipeline.
//!
//! [`Session::execute`] runs one SQL statement end-to-end: parse → (for
//! queries) bind and `REWR`-compile → execute, or (for DDL/DML) validate
//! and apply the mutation to a transaction's working catalog through the
//! storage layer's version-bumping API, then commit it.
//! This is the paper's middleware picture (Section 9) made operational:
//! the `SEQ VT` language feature over a *live* database instead of a
//! preloaded one.
//!
//! Every write — bare or transactional — runs inside a transaction: a bare
//! DDL/DML statement is an implicit single-statement one (autocommit, with
//! conflict retries). Its commit publishes the written tables and repairs
//! their indexes, so a read never repairs one. A session runs
//! against one of two backends, which differ only in where a transaction
//! begins and where it commits:
//!
//! * **owned** — the session exclusively owns an in-memory [`Database`]
//!   ([`Session::new`]), builds its indexes when it adopts it, and commits
//!   into it.
//! * **shared** — the session is one of many over a
//!   [`crate::SharedDatabase`]; reads pin an MVCC snapshot, and commits go
//!   through the transaction manager's serialized, first-committer-wins
//!   commit path. A durable database
//!   ([`crate::SharedDatabase::open_durable`]) is always shared: that
//!   commit path is where the write-ahead log sits.
//!
//! `BEGIN` / `COMMIT` / `ROLLBACK` work on both backends: statements
//! inside a transaction run against a private copy-on-write snapshot
//! (snapshot isolation — the transaction reads its own writes, nobody else
//! does), `COMMIT` validates them, logs them (when durable) as *one* WAL
//! commit unit with a single fsync, and publishes them; `ROLLBACK`
//! discards them — the catalog is bit-for-bit what it was at `BEGIN`. A
//! failed `COMMIT` (write-write conflict, durability failure) rolls the
//! transaction back. Inside a transaction, a table it wrote is read on the
//! naive routes until `COMMIT` (its pinned index is stale by version).
//!
//! What a failure does to the session is decided by the variant of its
//! [`StatementError`], never by the message: `Cancelled` rolls the open
//! transaction back and is counted, `Conflict` makes an autocommit
//! statement retry, `Failed` leaves an open transaction open.

use crate::database::{
    conform_row, create_table_in, delete_where_in, insert_rows_in, update_where_in, Database,
    Telemetry,
};
use crate::shared::{CommitReport, SharedDatabase};
use algebra::Plan;
use engine::{eval_expr, Engine, ExecContext, ExecStats, NodeStats, Prepared};
use index::MaintenanceStats;
use rewrite::{infer_domain, RewriteOptions, SnapshotCompiler};
use snapshot_obs::{self as obs, Histogram, Obs, StatementError};
use snapshot_txn::{CatalogSnapshot, Transaction};
use sql::{
    bind_scalar_expr, bind_statement, parse_script, AstExpr, ColumnDef, InsertSource,
    ParsedStatement, SqlStatement, Statement,
};
use std::fmt::{self, Write as _};
use std::sync::Arc;
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
    /// Route queries through the index registry (on by default). Indexes
    /// are fresh whenever a table is published, on both backends; a table
    /// written since (inside the open transaction, or directly through
    /// [`Session::database_mut`]) reads on the naive route.
    pub use_indexes: bool,
    /// After every indexed query, re-execute on the naive route and fail
    /// on divergence — the end-to-end check that version-based index
    /// invalidation works (used by the test suite and `.verify on`).
    pub verify_indexed: bool,
    /// Rewriting options for `SEQ VT` compilation.
    pub rewrite: RewriteOptions,
    /// Publish per-statement engine operator counters and phase timings to
    /// the database's metrics registry, and feed its statement fingerprint
    /// statistics behind `snapshot_stat_statements`.
    /// On by default — the publication is a handful of atomic adds once
    /// per statement, after execution, so the engine hot path never
    /// touches the registry.
    pub collect_metrics: bool,
    /// Slow-query threshold, in milliseconds: a statement whose total
    /// wall time reaches it is recorded in the database's slow-query log
    /// (queryable as `snapshot_stat_slow_queries`) together with its phase
    /// split and `EXPLAIN ANALYZE`-style operator actuals, rendered from
    /// its [`StatementRecord`] only then. `None` (the default) disables
    /// the log; set it via `SET slow_query_ms = <ms>`, the shell's
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
            rewrite: RewriteOptions::default(),
            collect_metrics: true,
            slow_query_ms: None,
            statement_timeout_ms: None,
            max_rows_scanned: None,
            max_result_rows: None,
        }
    }
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
    /// Not recorded: no statement repairs an index (the commit that
    /// publishes a table does). Always 0; kept because the frozen
    /// benchmark's trace reads it.
    pub index_ns: u64,
    /// Plan execution (including any `.verify on` cross-check).
    pub execute_ns: u64,
    /// Commit work — validate, WAL append, publish — explicit or implicit.
    pub commit_ns: u64,
}

/// The phases of [`PhaseTimings`], in pipeline order.
const PHASES: [&str; 5] = ["parse", "bind", "rewrite", "execute", "commit"];

impl PhaseTimings {
    /// Each phase's nanoseconds, in [`PHASES`] order.
    fn by_phase(&self) -> [u64; 5] {
        [
            self.parse_ns,
            self.bind_ns,
            self.rewrite_ns,
            self.execute_ns,
            self.commit_ns,
        ]
    }

    /// Sum of all recorded phases.
    pub fn total_ns(&self) -> u64 {
        self.by_phase().iter().sum()
    }

    /// One-line rendering of the non-zero phases, e.g.
    /// `parse 0.012 ms · bind 0.034 ms · execute 1.400 ms`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = (PHASES.iter().zip(self.by_phase()))
            .filter(|&(_, ns)| ns > 0)
            .map(|(name, ns)| format!("{name} {:.3} ms", ns as f64 / 1e6))
            .collect();
        if parts.is_empty() {
            return "(no phases recorded)".into();
        }
        parts.join(" · ")
    }

    /// Feeds the non-zero phases into the database's per-phase latency
    /// histograms (`session_<phase>_seconds`, in [`PHASES`] order), once
    /// per statement when [`SessionOptions::collect_metrics`] is on.
    fn publish(&self, hists: &[Arc<Histogram>; 5]) {
        for (hist, ns) in hists.iter().zip(self.by_phase()) {
            if ns > 0 {
                hist.observe(ns as f64 / 1e9);
            }
        }
    }
}

/// What one statement left behind, kept by its session until the
/// session's next call ([`Session::last_statements`]): what the shell's
/// `.trace` prints and what the slow-query log builds its entry from. Kept
/// by move; nothing is rendered until asked.
#[derive(Debug, Default)]
pub struct StatementRecord {
    /// The per-phase wall-clock split.
    pub(crate) phases: PhaseTimings,
    /// Query plans bound and compiled: one per query the statement ran
    /// (an `INSERT ... SELECT` compiles its source; other DDL/DML none).
    pub compiled: usize,
    /// The plan the statement executed, with its per-node actuals. Boxed
    /// before it ran, since [`NodeStats`] is keyed by node address.
    pub executed: Option<(Box<Plan>, NodeStats)>,
    /// The engine's operator counters over every plan the statement ran
    /// (a conflict retry runs an `INSERT ... SELECT` source again).
    pub(crate) stats: ExecStats,
    /// A shared-database commit's split (`None` when nothing was
    /// published).
    pub(crate) commit: Option<CommitReport>,
}

impl StatementRecord {
    /// The record as an indented tree, durations in milliseconds: one
    /// `session.<phase>` line per phase the statement entered, the
    /// executed plan's `EXPLAIN ANALYZE` lines under `session.execute`,
    /// and the commit split under `session.commit`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (phase, ns) in PHASES.iter().zip(self.phases.by_phase()) {
            if ns == 0 {
                continue;
            }
            let _ = writeln!(out, "session.{phase} {:.3} ms", ns as f64 / 1e6);
            if let (&"execute", Some((plan, nodes))) = (phase, &self.executed) {
                for node in engine::explain_analyzed(plan, nodes).lines() {
                    let _ = writeln!(out, "  {node}");
                }
            }
            if let (&"commit", Some(c)) = (phase, &self.commit) {
                let t = &c.outcome;
                let append = t.durable.map(|a| a.elapsed);
                let total = t.wait + t.validate + append.unwrap_or_default() + t.publish;
                let split = [
                    (1, "txn.commit", Some(total)),
                    (2, "txn.wait", Some(t.wait)),
                    (2, "txn.validate", Some(t.validate)),
                    (2, "wal.append", append),
                    (3, "wal.fsync", t.durable.and_then(|a| a.fsync)),
                    (2, "txn.publish", Some(t.publish)),
                    (1, "wal.checkpoint", c.checkpoint),
                ];
                for (depth, name, took) in split {
                    if let Some(took) = took {
                        let ms = took.as_secs_f64() * 1e3;
                        let _ = writeln!(out, "{:w$}{name} {ms:.3} ms", "", w = depth * 2);
                    }
                }
            }
        }
        out
    }
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
    /// The record of the statement running now.
    record: StatementRecord,
    /// The records of the statements the last call ran, in order.
    records: Vec<StatementRecord>,
    /// The database's observability state and session-layer handles.
    telemetry: Arc<Telemetry>,
    /// This session's entry in the database's live-activity registry
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

    /// A session over an exclusively owned database, with explicit
    /// options. Every period table's index is built here, as
    /// [`crate::SharedDatabase::new`] builds them.
    pub fn with_options(mut db: Database, options: SessionOptions) -> Self {
        db.build_indexes();
        Session::over(Backend::Owned(Box::new(db)), "owned", options)
    }

    /// A session over a shared database (one of many — see
    /// [`SharedDatabase::session`]).
    pub(crate) fn from_shared(shared: SharedDatabase, options: SessionOptions) -> Self {
        Session::over(Backend::Shared(shared), "shared", options)
    }

    fn over(backend: Backend, kind: &'static str, options: SessionOptions) -> Self {
        let telemetry = Arc::clone(match &backend {
            Backend::Owned(db) => &db.telemetry,
            Backend::Shared(shared) => shared.telemetry(),
        });
        Session {
            backend,
            options,
            txn: None,
            next_owned_txn_id: 0,
            retries: RetryStats::default(),
            record: StatementRecord::default(),
            records: Vec::new(),
            activity: telemetry.obs.activity.register(kind),
            telemetry,
        }
    }

    /// The observability state of the database this session serves.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.telemetry.obs
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

    /// The underlying database (owned backends only: direct inspection).
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

    /// The underlying database, mutably (owned backends only). A write
    /// made through it bypasses the commit path, so the written table's
    /// index stays stale and its reads take the naive route.
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
    /// own writes, over the pinned indexes), or the current committed/owned
    /// state. Cheap — tables are `Arc`-shared, not copied.
    pub fn read_view(&self) -> CatalogSnapshot {
        let (catalog, indexes, commit_seq) = match (&self.txn, &self.backend) {
            (Some(txn), _) => {
                let pinned = txn.snapshot();
                (txn.catalog(), pinned.indexes(), pinned.commit_seq())
            }
            (None, Backend::Shared(shared)) => return shared.snapshot(),
            (None, Backend::Owned(db)) => (db.catalog(), db.indexes(), 0),
        };
        CatalogSnapshot::new(catalog.clone(), indexes.clone(), commit_seq)
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

    /// The session options, mutably (`.verify on`, pinned join routes —
    /// queries pick the change up immediately, the engine is derived from
    /// the options per statement).
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
    /// parse, bind, rewrite, execute, commit — replacing the single total
    /// the shell used to report. Reset by every statement; phases a
    /// statement never entered stay zero.
    pub fn last_phase_timings(&self) -> PhaseTimings {
        self.records.last().map(|r| r.phases).unwrap_or_default()
    }

    /// The records of the statements the last [`Session::execute`] or
    /// [`Session::run_script`] (or [`Session::execute_script`]) call ran,
    /// in order (a statement that failed leaves one too, and ends the
    /// script's).
    pub fn last_statements(&self) -> &[StatementRecord] {
        &self.records
    }

    /// Registers a batch of tables wholesale — the bulk-load entry point
    /// (`.load` in the shell), routed to the owned database or the shared
    /// install path; either builds the loaded tables' indexes. Refused
    /// inside a transaction (bulk loads have no statement form, so they
    /// cannot join a commit unit).
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
                db.build_indexes();
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

    /// How index maintenance has repaired stale entries so far, across
    /// the database this session serves.
    pub fn index_maintenance(&self) -> MaintenanceStats {
        MaintenanceStats::read(&self.telemetry.obs.metrics)
    }

    /// What `.index` runs: checks that `table` (when given) exists. There
    /// is nothing to repair — a table's index is fresh when the table is
    /// published, on both backends.
    pub fn refresh_indexes(&self, table: Option<&str>) -> Result<(), String> {
        match table {
            Some(name) if self.read_view().catalog().get(name).is_none() => {
                Err(format!("unknown table '{name}'"))
            }
            _ => Ok(()),
        }
    }

    /// Parses and executes one statement. On a durable database (see
    /// [`crate::SharedDatabase::open_durable`]), a bare DDL/DML statement
    /// is a single-statement commit unit, in the write-ahead log before it
    /// is visible and before this returns; statements inside a transaction
    /// are buffered and logged as one atomic commit unit (single fsync) at
    /// `COMMIT`. `sql` holds one statement (a trailing `;` is optional);
    /// its text and fingerprint are [`sql::parse_script`]'s.
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult, StatementError> {
        self.records.clear();
        let started = Instant::now();
        let [stmt] = <[ParsedStatement; 1]>::try_from(parse_script(sql)?)
            .map_err(|stmts| format!("expected one statement, found {}", stmts.len()))?;
        let parse_ns = started.elapsed().as_nanos() as u64;
        self.apply_inner(&stmt.statement, Some(&stmt), parse_ns)
    }

    /// Parses and executes a `;`-separated script, stopping at the first
    /// error: the collecting form of [`Session::run_script`].
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, StatementError> {
        let mut results = Vec::new();
        self.run_script(sql, |result| {
            results.push(result);
            true
        })?;
        Ok(results)
    }

    /// Runs a `;`-separated script: the one script loop. The whole script
    /// is parsed first ([`sql::parse_script`], which also gives each
    /// statement its text and fingerprint), so a syntax error anywhere
    /// runs nothing; then each statement runs in order and hands its
    /// result to `each`. The first error, or `each` returning `false`,
    /// stops the script. On a durable database each bare DDL/DML
    /// statement is its own commit unit (inside transactions, the unit is
    /// the transaction).
    pub fn run_script(
        &mut self,
        sql: &str,
        mut each: impl FnMut(StatementResult) -> bool,
    ) -> Result<(), StatementError> {
        self.records.clear();
        let started = Instant::now();
        let stmts = parse_script(sql)?;
        // One parse for the whole script: its statements share it evenly.
        let parse_ns = started.elapsed().as_nanos() as u64 / stmts.len().max(1) as u64;
        for stmt in &stmts {
            if !each(self.apply_inner(&stmt.statement, Some(stmt), parse_ns)?) {
                break;
            }
        }
        Ok(())
    }

    /// Executes one parsed statement without recording its text — the
    /// recovery-replay entry point: a replayed statement is already in the
    /// log and must not be buffered for it again.
    pub(crate) fn execute_statement(
        &mut self,
        stmt: &SqlStatement,
    ) -> Result<StatementResult, StatementError> {
        self.apply_inner(stmt, None, 0)
    }

    /// Routes one statement: transaction control, query, or mutation —
    /// bracketed by live-activity registration ([`snapshot_obs::activity`]),
    /// followed by the cancellation unwind if the statement died
    /// [`StatementError::Cancelled`], then reported and kept. A client
    /// statement comes with its `source` (text and fingerprint); one
    /// without is a replayed one, already committed history: it arms no
    /// client limit, reports nothing and leaves no record.
    fn apply_inner(
        &mut self,
        stmt: &SqlStatement,
        source: Option<&ParsedStatement>,
        parse_ns: u64,
    ) -> Result<StatementResult, StatementError> {
        self.record = StatementRecord::default();
        self.record.phases.parse_ns = parse_ns;
        let limits = source.map(|_| &self.options);
        let replayed = "<replayed statement>";
        self.activity.begin_statement(
            source.map_or(replayed, |s| &s.text),
            source.map_or(replayed, |s| &s.fingerprint),
            limits.and_then(|o| o.statement_timeout_ms),
            limits.and_then(|o| o.max_rows_scanned),
            limits.and_then(|o| o.max_result_rows),
        );
        let result = self.dispatch(stmt, source.map(|s| s.text.as_str()));
        if let Err(StatementError::Cancelled { kind, .. }) = &result {
            // The WAL never saw an explicit transaction's writes: they are
            // logged at COMMIT.
            self.telemetry.obs.activity.note_cancellation(*kind);
            self.abort_txn();
        }
        self.activity.set_in_txn(self.txn.is_some());
        self.activity.end_statement();
        if let Some(source) = source {
            self.report(source, &result);
            self.records.push(std::mem::take(&mut self.record));
        }
        result
    }

    /// Reports a client statement from its record, the one place that feeds
    /// the metrics, profile, statement statistics and slow-query log: the
    /// executed plan's counters and profile however it ended (never the
    /// `.verify` cross-check's), phases and statistics on success, and a
    /// slow-log entry on success past the threshold or on a cancellation
    /// while the log is armed.
    fn report(&self, source: &ParsedStatement, result: &Result<StatementResult, StatementError>) {
        let (t, record, options) = (&*self.telemetry, &self.record, &self.options);
        if let Some((plan, nodes)) = &record.executed {
            if options.collect_metrics {
                record.stats.publish_to_registry(&t.obs.metrics);
            }
            if t.obs.profile.enabled() {
                t.obs.profile.record(nodes.profile(plan));
            }
        }
        let (p, total_ms) = (&record.phases, record.phases.total_ns() as f64 / 1e6);
        let rows = |r: &StatementResult| r.rows().map(|table| table.len() as u64);
        if let (Ok(r), true) = (result, options.collect_metrics) {
            p.publish(&t.phases);
            t.obs
                .statements
                .record(&source.fingerprint, rows(r), p.total_ns() as f64 / 1e9);
        }
        let threshold = options.slow_query_ms;
        let (rows, cancelled) = match result {
            Ok(r) if threshold.is_some_and(|ms| total_ms >= ms as f64) => (rows(r), None),
            Err(StatementError::Cancelled { kind, .. }) if threshold.is_some() => {
                (None, Some(kind.reason().to_string()))
            }
            _ => return,
        };
        t.obs.slow_log.record(obs::SlowQuery {
            seq: 0, // assigned by the log
            statement: source.text.clone(),
            total_ms,
            parse_ms: p.parse_ns as f64 / 1e6,
            bind_ms: p.bind_ns as f64 / 1e6,
            rewrite_ms: p.rewrite_ns as f64 / 1e6,
            index_ms: 0.0, // no statement repairs an index
            execute_ms: p.execute_ns as f64 / 1e6,
            commit_ms: p.commit_ns as f64 / 1e6,
            rows,
            plan: (record.executed.as_ref())
                .map(|(plan, nodes)| engine::explain_analyzed(plan, nodes)),
            cancelled,
        });
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
                    let signalled = self.telemetry.obs.activity.cancel(id);
                    return Ok(StatementResult::Rows(cancel_result_table(signalled)));
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
                let (options, record, activity) =
                    (&self.options, &mut self.record, Some(&self.activity));
                let plan = compile_query(options, view.catalog(), statement, record, activity)?;
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
            _ if self.txn.is_some() => self.mutate_buffered(stmt, text),
            _ => self.autocommit(stmt, text),
        }
    }

    /// Sets one option by name — what SQL `SET <name> = <value>` and the
    /// wire protocol's `SetOption` frame both run. Values are a number or
    /// `off`. `off` clears `statement_timeout` (alias
    /// `statement_timeout_ms`), `max_rows_scanned`, `max_result_rows` and
    /// `slow_query_ms`; `0` clears the first three too, while
    /// `slow_query_ms = 0` logs every statement. `slow_log_capacity`
    /// resizes the database's slow-query ring (shared by all its sessions)
    /// and takes a positive number.
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
            "slow_log_capacity" => {
                let n = parsed
                    .filter(|&n| n > 0)
                    .ok_or("slow_log_capacity must be a positive number")?;
                self.telemetry.obs.slow_log.set_capacity(n as usize);
            }
            other => return Err(format!("unknown session option '{other}'")),
        }
        Ok(())
    }

    /// `BEGIN`: pin a snapshot and open a transaction over it.
    fn begin_txn(&mut self) -> Result<StatementResult, StatementError> {
        if self.txn.is_some() {
            return Err(
                "a transaction is already open (nested transactions are not supported)".into(),
            );
        }
        self.txn = Some(self.pin());
        Ok(StatementResult::Began)
    }

    /// Opens a transaction over the current committed state — the owned
    /// database's catalog and indexes, or a snapshot the shared database's
    /// transaction manager pins: where `BEGIN` and an autocommit statement
    /// begin.
    fn pin(&mut self) -> Transaction {
        match &self.backend {
            Backend::Owned(db) => {
                self.next_owned_txn_id += 1;
                Transaction::begin(
                    self.next_owned_txn_id,
                    CatalogSnapshot::new(db.catalog().clone(), db.indexes().clone(), 0),
                )
            }
            Backend::Shared(shared) => shared.begin(),
        }
    }

    /// Commits the open transaction — validate, log the commit unit,
    /// publish — and returns how many tables it published. A failed commit
    /// (conflict or durability error) rolls the transaction back — the
    /// committed state is untouched either way.
    fn commit_open(&mut self) -> Result<usize, StatementError> {
        let txn = self.txn.take().ok_or("no transaction is open")?;
        self.activity.set_phase(obs::Phase::Commit);
        let started = Instant::now();
        let tables = match &mut self.backend {
            Backend::Owned(db) => commit_owned(db, txn)?,
            Backend::Shared(shared) => {
                let report = shared.commit(txn)?;
                let published = report.outcome.published;
                self.record.commit = (published > 0).then_some(report);
                published
            }
        };
        self.record.phases.commit_ns += started.elapsed().as_nanos() as u64;
        Ok(tables)
    }

    /// `ROLLBACK`: drop the working state; the snapshot pinned at `BEGIN`
    /// is what everyone still sees, so there is nothing to undo.
    fn rollback_txn(&mut self) -> Result<StatementResult, StatementError> {
        if !self.abort_txn() {
            return Err("no transaction is open".into());
        }
        Ok(StatementResult::RolledBack)
    }

    /// Drops the open transaction, if any, and reports whether there was
    /// one. On a shared database the transaction manager counts it in
    /// `txn_rollbacks_total`; an owned database has no transaction
    /// counters.
    fn abort_txn(&mut self) -> bool {
        let Some(txn) = self.txn.take() else {
            return false;
        };
        if let Backend::Shared(shared) = &self.backend {
            shared.rollback(txn);
        }
        true
    }

    /// The open transaction, which every mutation runs inside: an explicit
    /// one, or [`Session::autocommit`]'s implicit one.
    fn open_txn(&mut self) -> &mut Transaction {
        self.txn
            .as_mut()
            .expect("mutations run inside a transaction")
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
        let txn = self.open_txn();
        if let Some(table) = written {
            txn.record_write(&table);
            if let Some(text) = text {
                txn.push_statement(text.to_string());
            }
        }
        Ok(result)
    }

    /// A bare mutation: wrapped in an implicit single-statement
    /// transaction, with a bounded conflict-retry loop.
    /// Losing a first-committer-wins race is not a statement error — the
    /// statement is valid, it merely raced — so instead of surfacing the
    /// raw conflict the session re-runs it against a *fresh* snapshot
    /// (every attempt re-evaluates predicates and sources against the
    /// then-current committed state, exactly as if the user had typed it
    /// again), up to [`CONFLICT_RETRY_LIMIT`] times with jittered
    /// exponential backoff. Explicit `BEGIN`…`COMMIT` transactions are
    /// *not* retried: the session cannot re-run statements it no longer
    /// has, and the user asked to manage the transaction themselves.
    fn autocommit(
        &mut self,
        stmt: &SqlStatement,
        text: Option<&str>,
    ) -> Result<StatementResult, StatementError> {
        let mut attempts = 0u32;
        loop {
            self.txn = Some(self.pin());
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
                    self.telemetry.retries.inc();
                    conflict_backoff(attempts);
                }
                Err(e) => {
                    self.retries.record(attempts);
                    if matches!(e, StatementError::Conflict(_)) {
                        self.retries.gave_up += 1;
                        self.telemetry.retry_give_ups.inc();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Applies one mutation to the open transaction's working catalog.
    /// Returns the result plus the table name *actually written* (`None`
    /// when the statement turned out to be a no-op — those never enter a
    /// write set, so they can never conflict).
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
                create_table_in(self.open_txn().catalog_mut(), name, schema, period)?;
                Ok((
                    StatementResult::Created {
                        table: name.clone(),
                    },
                    Some(name.clone()),
                ))
            }
            SqlStatement::DropTable { name, if_exists } => {
                let existed = self.open_txn().catalog_mut().remove(name).is_some();
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
                let (rows, sources) = self.eval_insert_source(source)?;
                let txn = self.open_txn();
                // The inserted rows depend on the *source* tables' pinned
                // state; record them as replay dependencies so commit
                // validation refuses to log a statement whose WAL replay
                // would read a different source.
                for name in &sources {
                    txn.record_read(name);
                }
                let n = insert_rows_in(txn.catalog_mut(), table, rows)?;
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
                let catalog = self.open_txn().catalog_mut();
                let (_, pred) = bind_where_in(catalog, table, where_clause.as_ref())?;
                let pred = pred.as_ref().map(Prepared::new);
                let rows =
                    delete_where_in(catalog, table, |r| pred.as_ref().is_none_or(|p| p.holds(r)))?;
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
                let catalog = self.open_txn().catalog_mut();
                let (schema, pred) = bind_where_in(catalog, table, where_clause.as_ref())?;
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
                let stored_schema = catalog.get(table).expect("bound above").schema().clone();
                let rows = update_where_in(catalog, table, matches, |r| {
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

    /// Evaluates an `INSERT` source to rows, plus the tables they were read
    /// from: constant `VALUES` tuples (no tables), or a query run through
    /// the full pipeline (against this session's current read context —
    /// inside a transaction, that includes its own uncommitted writes).
    fn eval_insert_source(
        &mut self,
        source: &InsertSource,
    ) -> Result<(Vec<Row>, Vec<String>), StatementError> {
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
                Ok((rows, Vec::new()))
            }
            InsertSource::Query(q) => {
                let table = self.run_query(q, false)?;
                let (plan, _) = (self.record.executed.as_ref()).expect("run_query keeps its plan");
                Ok((table.rows().to_vec(), plan.referenced_tables()))
            }
        }
    }

    /// The one read route: compiles `stmt` against this session's
    /// [`Session::read_view`] and executes it over that view's indexes
    /// (which it never repairs), keeping the plan and its actuals in the
    /// statement's record (stopped or not). With
    /// `explain_analyze` the result is not the rows but the plan as a
    /// one-column table of text lines, every operator line carrying its
    /// actual row count, call count, and inclusive wall-clock time;
    /// operators an accelerated route short-circuited read
    /// `(never executed)`.
    ///
    /// The engine runs under the session's resource account and
    /// cancellation token, so operators bill their work to
    /// `snapshot_stat_progress` and observe kills, timeouts, and resource
    /// limits at batch boundaries.
    fn run_query(
        &mut self,
        stmt: &Statement,
        explain_analyze: bool,
    ) -> Result<Table, StatementError> {
        let view = self.read_view();
        let (options, record, activity) = (&self.options, &mut self.record, Some(&self.activity));
        let plan = compile_query(options, view.catalog(), stmt, record, activity)?;
        // Boxed before it runs: `NodeStats` is keyed by node address.
        let plan = Box::new(plan);
        let Session {
            options,
            record,
            telemetry,
            activity,
            ..
        } = self;
        activity.set_phase(obs::Phase::Execute);
        let obs = Some(Arc::clone(&telemetry.obs));
        let engine = Engine::new().with_context(ExecContext::new(
            activity.account(),
            activity.token(),
            obs.clone(),
        ));
        let catalog = view.catalog();
        let started = Instant::now();
        let mut nodes = NodeStats::default();
        let indexes = options.use_indexes.then(|| view.indexes());
        let result = engine
            .execute_analyzed(&plan, catalog, indexes, &mut record.stats, &mut nodes)
            .and_then(|executed| {
                if options.use_indexes && options.verify_indexed {
                    // A divergence implicates index invalidation: the
                    // naive route consults no index.
                    let detached = ExecContext::new(Default::default(), Default::default(), obs);
                    let naive = Engine::new()
                        .with_context(detached)
                        .execute(&plan, catalog)?;
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
            });
        record.phases.execute_ns += started.elapsed().as_nanos() as u64;
        let (plan, nodes) = &*record.executed.insert((plan, nodes));
        let executed = result?;
        if explain_analyze {
            let mut text = engine::explain_analyzed(plan, nodes);
            text.push_str(&format!(
                "(result: {} rows in {:.3} ms)\n",
                executed.len(),
                record.phases.execute_ns as f64 / 1e6
            ));
            return Ok(plan_text_table(&text));
        }
        Ok(executed)
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

/// Compiles a query statement against a catalog, counting the plan in the
/// caller's statement record and splitting the bind and rewrite wall-clock
/// into its phases (and, when the statement runs on behalf of a registered
/// session, into its live-activity phase).
fn compile_query(
    options: &SessionOptions,
    catalog: &Catalog,
    stmt: &Statement,
    record: &mut StatementRecord,
    activity: Option<&obs::ActivityHandle>,
) -> Result<Plan, String> {
    if let Some(a) = activity {
        a.set_phase(obs::Phase::Bind);
    }
    record.compiled += 1;
    let started = Instant::now();
    let bound = bind_statement(stmt, catalog)?;
    record.phases.bind_ns += started.elapsed().as_nanos() as u64;
    if let Some(a) = activity {
        a.set_phase(obs::Phase::Rewrite);
    }
    let started = Instant::now();
    let compiler = SnapshotCompiler::with_options(infer_domain(catalog), options.rewrite);
    let plan = compiler.compile_statement(&bound, catalog)?;
    record.phases.rewrite_ns += started.elapsed().as_nanos() as u64;
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
