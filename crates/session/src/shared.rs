//! The shared database: one catalog, many concurrent sessions.
//!
//! [`SharedDatabase`] is the `Arc`-based handle that turns a [`Database`]
//! into a multi-session object: any number of threads hold clones of the
//! handle and open [`crate::Session`]s over it. Reads pin MVCC snapshots
//! from the [`snapshot_txn::TxnManager`] (readers never block and never
//! see in-flight writes); writes — bare statements wrapped in implicit
//! transactions, or explicit `BEGIN`…`COMMIT` blocks — go through the
//! serialized, first-committer-wins commit path.
//!
//! Durability lives at the commit boundary, and only here — this is the
//! one durable write path and the one recovery driver: the write-ahead
//! log receives each transaction as one atomic commit unit (single
//! fsync), written under the commit lock *after* conflict validation and
//! *before* publication, so the log contains exactly the committed
//! history in commit order and a unit that fails to log aborts cleanly.
//! Recovery replays it through an ordinary session; an unterminated unit
//! at the tail was already discarded by the persistence layer.

use crate::database::Database;
use crate::session::{RecoveryReport, Session, SessionOptions};
use index::MaintenanceStats;
use snapshot_obs::{LazyCounter, StatementError};
use snapshot_txn::{CatalogSnapshot, CommitOutcome, Transaction, TxnManager};
use snapshot_wal::{Persistence, PersistenceOptions};
use sql::parse_sql_statement;
use std::path::Path;
use std::sync::Arc;
use storage::Table;

/// Auto-checkpoints that failed after their commit was already logged and
/// published (the commit stands; the next commit retries the checkpoint).
static CHECKPOINT_FAILURES: LazyCounter = LazyCounter::new("wal_checkpoint_failures_total");

#[derive(Debug)]
struct Inner {
    txns: TxnManager,
    /// The database directory, when durable. Behind its own lock: the
    /// commit path appends under the transaction manager's commit lock,
    /// checkpoints snapshot the committed catalog. As in
    /// [`snapshot_txn::manager`], poisoning means a panic elsewhere, not
    /// inconsistent data: the lock type recovers the guard.
    persistence: snapshot_obs::Named<Option<Persistence>>,
}

/// A shared, multi-session database handle (`Arc`-based; clone freely and
/// move clones across threads).
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<Inner>,
}

impl SharedDatabase {
    /// Promotes an in-memory database into a shared, multi-session
    /// object (durable ones come from [`SharedDatabase::open_durable`]).
    pub fn new(db: Database) -> Self {
        let (catalog, indexes) = db.into_parts();
        SharedDatabase {
            inner: Arc::new(Inner {
                txns: TxnManager::new(catalog, indexes),
                persistence: snapshot_obs::Named::new("session.persistence", None),
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
    /// same parse → bind → execute pipeline as live traffic (a torn or
    /// corrupt tail was truncated to the longest valid prefix and an
    /// unterminated commit unit discarded by the persistence layer) — then
    /// the log is attached, so every later commit is written ahead of
    /// publication. An empty or missing directory starts an empty durable
    /// database.
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
        // Records were validated when first executed; a replay failure
        // means the directory does not match this binary's dialect (or was
        // tampered with) — surface it.
        for record in &recovery.replay {
            let stmt = parse_sql_statement(&record.sql)
                .map_err(|e| format!("WAL replay: cannot parse record {}: {e}", record.lsn))?;
            session
                .execute_statement(&stmt)
                .map_err(|e| format!("WAL replay failed at lsn {}: {e}", record.lsn))?;
        }
        drop(session);
        *shared.inner.persistence.lock() = Some(persistence);
        Ok((
            shared,
            RecoveryReport {
                checkpoint_seq: recovery.checkpoint_seq,
                replayed: recovery.replay.len(),
                truncated_bytes: recovery.truncated_bytes,
                discarded_uncommitted: recovery.discarded_uncommitted,
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

    /// Pins a snapshot of the current committed state (readers never
    /// block; the snapshot never changes underneath its holder).
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.inner.txns.snapshot()
    }

    /// The current commit sequence number.
    pub fn commit_seq(&self) -> u64 {
        self.inner.txns.commit_seq()
    }

    /// Whether a database directory is attached.
    pub fn is_durable(&self) -> bool {
        self.inner.persistence.lock().is_some()
    }

    /// Opens a transaction over a freshly pinned snapshot.
    pub(crate) fn begin(&self) -> Transaction {
        self.inner.txns.begin()
    }

    /// Commits a transaction: validate first-committer-wins, append the
    /// commit unit to the WAL (one fsync), publish, auto-checkpoint.
    pub(crate) fn commit(&self, txn: Transaction) -> Result<CommitOutcome, StatementError> {
        let inner = &*self.inner;
        let outcome =
            inner
                .txns
                .commit_with(txn, |stmts| match &mut *inner.persistence.lock() {
                    Some(p) => p.log_transaction(stmts),
                    None => Ok(()),
                })?;
        self.auto_checkpoint();
        Ok(outcome)
    }

    /// Checkpoints under [`snapshot_txn::TxnManager::with_committed_serialized`]:
    /// with the commit path locked out, every WAL unit the checkpoint's
    /// `covered_lsn` absorbs is also in the catalog it snapshots — a
    /// checkpoint racing a half-durable commit would otherwise cover the
    /// commit's LSNs (and reset the log) while writing a catalog that does
    /// not yet contain it, losing an acknowledged transaction on recovery.
    /// The persistence mutex is taken *inside* (commit lock → state lock →
    /// persistence — the same order as the commit path).
    fn checkpoint_serialized(&self, only_when_due: bool) -> Result<Option<u64>, String> {
        self.inner.txns.with_committed_serialized(|catalog, _| {
            let mut guard = self.inner.persistence.lock();
            match &mut *guard {
                Some(p) if !only_when_due || p.should_checkpoint() => {
                    p.checkpoint(catalog).map(Some)
                }
                _ => Ok(None),
            }
        })
    }

    /// Checkpoints when the threshold is reached. Runs after a commit is
    /// logged and published, so a failure here must not fail that commit
    /// (the client would retry an already-durable statement): it is
    /// counted, and since a failed checkpoint leaves the statement count
    /// since the last one untouched, the next commit tries again.
    fn auto_checkpoint(&self) {
        // Cheap pre-check without the commit lock; the authoritative check
        // repeats under it.
        let due = match &*self.inner.persistence.lock() {
            Some(p) => p.should_checkpoint(),
            None => false,
        };
        if due && self.checkpoint_serialized(true).is_err() {
            CHECKPOINT_FAILURES.inc();
        }
    }

    /// Checkpoints the committed state now. Returns the checkpoint's
    /// sequence number, or `None` for an in-memory database.
    pub fn checkpoint(&self) -> Result<Option<u64>, String> {
        self.checkpoint_serialized(false)
    }

    /// Installs tables wholesale (the bulk-load path — no statement form):
    /// serialized against commits like a competing transaction that wins,
    /// then checkpointed immediately when durable (the WAL cannot replay a
    /// bulk load).
    pub fn register_tables<I>(&self, tables: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (String, Table)>,
    {
        self.inner.txns.install_tables(tables);
        self.checkpoint_serialized(false).map(|_| ())
    }

    /// How committed-index maintenance repaired stale entries so far.
    pub fn index_maintenance(&self) -> MaintenanceStats {
        self.inner
            .txns
            .with_committed(|_, indexes| indexes.maintenance())
    }

    /// Repairs the committed indexes of the named tables (all when
    /// `None`).
    pub fn refresh_indexes(&self, tables: Option<&[String]>) {
        self.inner.txns.refresh_committed_indexes(tables);
    }
}
