//! The shared database: one catalog, many concurrent sessions.
//!
//! [`SharedDatabase`] is the `Arc`-based handle that turns a [`Database`]
//! into a multi-session object: any number of threads hold clones of the
//! handle and open [`crate::Session`]s over it. Reads pin MVCC snapshots
//! from the [`snapshot_txn::TxnManager`] (readers never block, never see
//! in-flight writes, and never build an index: the manager builds them all
//! when the database is promoted and repairs them as it publishes);
//! writes — bare statements wrapped in implicit transactions, or explicit
//! `BEGIN`…`COMMIT` blocks — go through the serialized,
//! first-committer-wins commit path.
//!
//! Durability lives at the commit boundary, and only here — this is the
//! one durable write path and the one recovery driver: the write-ahead
//! log receives each transaction as one commit unit (one frame, one
//! fsync), written under the commit lock *after* conflict validation and
//! after its publication is prepared (written tables installed and their
//! indexes repaired on a private copy), *before* that copy is swapped in.
//! So the log contains exactly the committed history in commit order, a
//! logged unit's publication has nothing left that can fail, and a unit
//! that fails to log aborts cleanly.
//! Recovery replays it through an ordinary session, the whole tail as one
//! transaction; a torn unit never reaches it.

use crate::database::{Database, Telemetry};
use crate::session::{Session, SessionOptions};
use index::MaintenanceStats;
use snapshot_obs::{Counter, Histogram, Obs, StatementError};
use snapshot_txn::{CatalogSnapshot, CommitOutcome, Transaction, TxnManager};
use snapshot_wal::{AppendReport, CheckpointReport, Persistence, PersistenceOptions};
use sql::{parse_sql_statement, SqlStatement};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use storage::Table;

#[derive(Debug)]
struct Inner {
    txns: TxnManager,
    telemetry: Arc<Telemetry>,
    /// The database directory, when durable. Behind its own lock: the
    /// commit path appends under the transaction manager's commit lock,
    /// checkpoints snapshot the committed catalog. As in
    /// [`snapshot_txn::manager`], poisoning means a panic elsewhere, not
    /// inconsistent data: the lock type recovers the guard.
    persistence: snapshot_obs::Named<Option<Persistence>>,
    // WAL and checkpoint telemetry in the database's registry, fed from
    // what `Persistence` reports about each append and checkpoint.
    append_seconds: Arc<Histogram>,
    appended_frames: Arc<Counter>,
    appended_bytes: Arc<Counter>,
    fsync_seconds: Arc<Histogram>,
    fsyncs: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_seconds: Arc<Histogram>,
    checkpoint_bytes: Arc<Counter>,
    /// Auto-checkpoints that failed after their commit was already logged
    /// and published (the commit stands; the next commit retries).
    checkpoint_failures: Arc<Counter>,
    /// Rows the commits' table copies duplicated
    /// ([`CommitOutcome::copied_rows`]).
    copied_rows: Arc<Counter>,
}

impl Inner {
    fn fsynced(&self, took: Option<Duration>) {
        if let Some(took) = took {
            self.fsyncs.inc();
            self.fsync_seconds.observe_duration(took);
        }
    }

    fn appended(&self, r: AppendReport) {
        if r.bytes > 0 {
            self.appended_frames.inc();
            self.appended_bytes.add(r.bytes);
            self.append_seconds.observe_duration(r.elapsed);
        }
        self.fsynced(r.fsync);
    }

    fn checkpointed(&self, r: &CheckpointReport) {
        self.fsynced(r.fsync);
        self.checkpoints.inc();
        self.checkpoint_seconds.observe_duration(r.elapsed);
        self.checkpoint_bytes.add(r.bytes);
    }
}

/// What recovering a database directory found and did (see
/// [`SharedDatabase::open_durable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint the catalog was loaded from
    /// (`None` when the directory had no valid checkpoint).
    pub checkpoint_seq: Option<u64>,
    /// WAL statements replayed through the execution pipeline on top of
    /// the checkpoint.
    pub replayed: usize,
    /// Bytes of torn/corrupt WAL tail truncated away during recovery (a
    /// torn commit unit goes whole).
    pub truncated_bytes: u64,
}

/// A shared-database commit, split as its parts measured it for their
/// histograms: the transaction manager's lock wait, validation and
/// publication, the WAL append (with its fsync) a durable database made,
/// and the auto-checkpoint the commit ran, if it ran one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitReport {
    /// The transaction manager's split, carrying the WAL append.
    pub(crate) outcome: CommitOutcome<Option<AppendReport>>,
    /// How long the auto-checkpoint took.
    pub(crate) checkpoint: Option<Duration>,
}

/// A shared, multi-session database handle (`Arc`-based; clone freely and
/// move clones across threads).
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<Inner>,
}

impl SharedDatabase {
    /// Promotes an in-memory database into a shared, multi-session
    /// object (durable ones come from [`SharedDatabase::open_durable`]);
    /// it keeps the database's observability state, and every period
    /// table's index is built here.
    pub fn new(db: Database) -> Self {
        let (catalog, indexes, telemetry) = db.into_parts();
        let m = &telemetry.obs.metrics;
        SharedDatabase {
            inner: Arc::new(Inner {
                txns: TxnManager::new(catalog, indexes, m),
                persistence: snapshot_obs::Named::new("session.persistence", None),
                append_seconds: m.histogram("wal_append_seconds"),
                appended_frames: m.counter("wal_appended_frames_total"),
                appended_bytes: m.counter("wal_appended_bytes_total"),
                fsync_seconds: m.histogram("wal_fsync_seconds"),
                fsyncs: m.counter("wal_fsyncs_total"),
                checkpoints: m.counter("wal_checkpoints_total"),
                checkpoint_seconds: m.histogram("wal_checkpoint_seconds"),
                checkpoint_bytes: m.counter("wal_checkpoint_bytes_total"),
                checkpoint_failures: m.counter("wal_checkpoint_failures_total"),
                copied_rows: m.counter("txn_copied_rows_total"),
                telemetry,
            }),
        }
    }

    /// An empty, in-memory shared database.
    pub fn in_memory() -> Self {
        SharedDatabase::new(Database::new())
    }

    /// Opens a *durable* shared database on a directory, recovering
    /// whatever it holds: the newest valid checkpoint is loaded and the
    /// WAL tail beyond it is replayed through an ordinary session — the
    /// same parse → bind → execute pipeline as live traffic — as **one**
    /// transaction: `BEGIN`, every statement of every unit in log order,
    /// `COMMIT` (none when the tail is empty). The units apply in the order
    /// they committed to one working catalog, so the state equals a
    /// unit-by-unit replay, but each written table is copied once and
    /// published once with one index repair, and a recovery counts as one
    /// commit in `txn_commits_total`. A replay error fails the open and
    /// publishes nothing. (A torn or corrupt tail was truncated to the
    /// longest valid prefix of whole units by the persistence layer, which
    /// also folds a format-1 log's `BEGIN` … `COMMIT` runs into units.)
    /// Then the log is attached, so every later commit is written ahead of
    /// publication. A directory holding a file older than this build's
    /// format (a format-1 log or checkpoint) is checkpointed once its tail
    /// has replayed, which rewrites both in this build's formats. An empty
    /// or missing directory starts an empty durable database. The replay
    /// runs with `options`' routes, but a replayed statement arms none of
    /// their limits and reports nothing: recovery never depends on client
    /// policy.
    pub fn open_durable(
        dir: &Path,
        options: SessionOptions,
        persistence: PersistenceOptions,
    ) -> Result<(SharedDatabase, RecoveryReport), String> {
        let (persistence, recovery) = Persistence::open(dir, persistence)?;
        let db = match recovery.catalog {
            Some(catalog) => Database::from_catalog(catalog),
            None => Database::new(),
        };
        let shared = SharedDatabase::new(db); // no persistence yet: replay must not re-log
        let mut session = shared.session_with_options(options);
        // Units were validated when first executed; a replay failure
        // means the directory does not match this binary's dialect (or was
        // tampered with) — surface it. Nobody else can hold a snapshot yet,
        // so the whole tail is one transaction.
        let mut replay = |stmt: &SqlStatement, lsn: u64| {
            session
                .execute_statement(stmt)
                .map(drop)
                .map_err(|e| format!("WAL replay failed at lsn {lsn}: {e}"))
        };
        let tail = &recovery.replay;
        if let (Some(first), Some(last)) = (tail.first(), tail.last()) {
            replay(&SqlStatement::Begin, first.lsn)?;
            for unit in tail {
                for sql in &unit.stmts {
                    let stmt = parse_sql_statement(sql)
                        .map_err(|e| format!("WAL replay: cannot parse lsn {}: {e}", unit.lsn))?;
                    replay(&stmt, unit.lsn)?;
                }
            }
            replay(&SqlStatement::Commit, last.lsn)?;
        }
        drop(session);
        *shared.inner.persistence.lock() = Some(persistence);
        if recovery.outdated {
            shared.checkpoint()?;
        }
        Ok((
            shared,
            RecoveryReport {
                checkpoint_seq: recovery.checkpoint_seq,
                replayed: recovery.replay.iter().map(|u| u.stmts.len()).sum(),
                truncated_bytes: recovery.truncated_bytes,
            },
        ))
    }

    /// Opens a session over this database, with default options.
    pub fn session(&self) -> Session {
        self.session_with_options(SessionOptions::default())
    }

    /// Opens a session over this database, with explicit options.
    pub fn session_with_options(&self, options: SessionOptions) -> Session {
        Session::from_shared(self.clone(), options)
    }

    /// This database's observability state: metrics, live sessions,
    /// statement statistics, slow log, profile.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.telemetry.obs
    }

    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// Pins a snapshot of the current committed state (readers never
    /// block; the snapshot never changes underneath its holder).
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.inner.txns.snapshot()
    }

    /// The current commit sequence number.
    pub fn commit_seq(&self) -> u64 {
        self.inner.txns.commit_seq()
    }

    /// Opens a transaction over a freshly pinned snapshot.
    pub(crate) fn begin(&self) -> Transaction {
        self.inner.txns.begin()
    }

    /// Rolls a transaction back: drops it and counts it in
    /// `txn_rollbacks_total`.
    pub(crate) fn rollback(&self, txn: Transaction) {
        self.inner.txns.rollback(txn);
    }

    /// Commits a transaction: validate first-committer-wins, prepare the
    /// publication, append the commit unit to the WAL (one fsync), swap
    /// the prepared state in, auto-checkpoint.
    pub(crate) fn commit(&self, txn: Transaction) -> Result<CommitReport, StatementError> {
        let inner = &*self.inner;
        let outcome =
            inner
                .txns
                .commit_with(txn, |stmts| match &mut *inner.persistence.lock() {
                    Some(p) => p.log_transaction(stmts).map(|r| {
                        inner.appended(r);
                        Some(r)
                    }),
                    None => Ok(None),
                })?;
        inner.copied_rows.add(outcome.copied_rows as u64);
        Ok(CommitReport {
            outcome,
            checkpoint: self.auto_checkpoint(),
        })
    }

    /// Checkpoints under [`snapshot_txn::TxnManager::with_committed_serialized`]:
    /// with the commit path locked out, every WAL unit the checkpoint's
    /// `covered_lsn` absorbs is also in the catalog it snapshots — a
    /// checkpoint racing a half-durable commit would otherwise cover the
    /// commit's LSNs (and reset the log) while writing a catalog that does
    /// not yet contain it, losing an acknowledged transaction on recovery.
    /// The persistence mutex is taken *inside* (commit lock → state lock →
    /// persistence — the same order as the commit path).
    fn checkpoint_serialized(
        &self,
        only_when_due: bool,
    ) -> Result<Option<CheckpointReport>, String> {
        self.inner.txns.with_committed_serialized(|catalog, _| {
            let mut guard = self.inner.persistence.lock();
            match &mut *guard {
                Some(p) if !only_when_due || p.should_checkpoint() => {
                    let report = p.checkpoint(catalog)?;
                    self.inner.checkpointed(&report);
                    Ok(Some(report))
                }
                _ => Ok(None),
            }
        })
    }

    /// Checkpoints when the threshold is reached, and returns how long
    /// that took. Runs after a commit is logged and published, so a
    /// failure here must not fail that commit (the client would retry an
    /// already-durable statement): it is counted, and since a failed
    /// checkpoint leaves the statement count since the last one untouched,
    /// the next commit tries again.
    fn auto_checkpoint(&self) -> Option<Duration> {
        // Cheap pre-check without the commit lock; the authoritative check
        // repeats under it.
        let due = match &*self.inner.persistence.lock() {
            Some(p) => p.should_checkpoint(),
            None => false,
        };
        if !due {
            return None;
        }
        match self.checkpoint_serialized(true) {
            Ok(report) => report.map(|r| r.elapsed),
            Err(_) => {
                self.inner.checkpoint_failures.inc();
                None
            }
        }
    }

    /// Checkpoints the committed state now. Returns the checkpoint's
    /// sequence number, or `None` for an in-memory database.
    pub fn checkpoint(&self) -> Result<Option<u64>, String> {
        Ok(self.checkpoint_serialized(false)?.map(|r| r.seq))
    }

    /// Installs tables wholesale (the bulk-load path — no statement form):
    /// serialized against commits like a competing transaction that wins,
    /// published with their indexes built, then checkpointed immediately
    /// when durable (the WAL cannot replay a bulk load).
    pub fn register_tables<I>(&self, tables: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (String, Table)>,
    {
        self.inner.txns.install_tables(tables);
        self.checkpoint_serialized(false).map(|_| ())
    }

    /// How committed-index maintenance repaired stale entries so far.
    pub fn index_maintenance(&self) -> MaintenanceStats {
        MaintenanceStats::read(&self.inner.telemetry.obs.metrics)
    }

    /// Does nothing: the committed indexes are fresh whenever a table is
    /// published, so there is nothing to build on request. Kept so that
    /// existing callers compile.
    pub fn refresh_indexes(&self, _tables: Option<&[String]>) {}
}
