//! The transaction manager: shared committed state, snapshot handout, and
//! the serialized first-committer-wins commit path.

use crate::snapshot::CatalogSnapshot;
use crate::transaction::Transaction;
use index::IndexCatalog;
use snapshot_obs::{self as obs, Counter, Histogram, MetricsRegistry, StatementError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{Catalog, Table};

/// What a successful commit published, and where its time went: the
/// split the commit-path histograms observe, plus the report `D` of the
/// durability callback (see [`TxnManager::commit_with`]). A read-only
/// commit and a bulk install measure nothing (zero durations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitOutcome<D = ()> {
    /// The commit sequence number this transaction became (snapshots with
    /// `commit_seq >= this` see its writes).
    pub commit_seq: u64,
    /// Tables published (write-set size; `0` for a read-only commit, which
    /// does not consume a sequence number).
    pub published: usize,
    /// Waiting for the commit lock.
    pub wait: Duration,
    /// First-committer-wins validation.
    pub validate: Duration,
    /// What the durability callback returned.
    pub durable: D,
    /// Publication: preparing the new committed state (index repair
    /// included) before the durability callback, and swapping it in after.
    pub publish: Duration,
    /// Rows the published tables duplicated when the transaction first
    /// wrote them and as it wrote ([`Table::copied_rows`]): open tails
    /// copied, sealed blocks unshared, shared rows a delete or sort copied
    /// out.
    pub copied_rows: usize,
}

/// The shared transaction manager over one committed catalog.
///
/// Concurrency model — snapshot isolation with a single-writer commit
/// path:
///
/// * **Readers never block.** [`TxnManager::begin`] and
///   [`TxnManager::snapshot`] take the state read-lock only long enough to
///   `Arc`-bump every table (`O(#tables)`); they never wait on a writer's
///   *work*, only on the equally short publish swap.
/// * **Writers never disturb readers.** A transaction's writes go to its
///   private copy-on-write working catalog; publication swaps `Arc`
///   handles in the committed catalog, so a pinned snapshot keeps the old
///   tables bit-for-bit.
/// * **Commits are serialized and validated.** The commit lock admits one
///   committer at a time; under it, every write-set table is checked
///   *first-committer-wins*: if its committed version epoch differs from
///   the epoch the transaction pinned at `BEGIN`, a concurrent transaction
///   committed it first and this one is refused (version epochs are
///   globally unique, so a drop-and-recreate look-alike can never slip
///   through). Plain reads are not validated — this is snapshot isolation,
///   not serializability: write skew is admitted, lost updates are not.
///   Recorded *replay dependencies* ([`Transaction::record_read`], e.g.
///   `INSERT ... SELECT` sources) do join validation, so the logical WAL
///   replays every logged statement deterministically.
/// * **Durability slots in between.** The callback passed to
///   [`TxnManager::commit_with`] runs under the commit lock after
///   validation and after the new committed state is *prepared* (written
///   tables installed in a private copy, their indexes repaired), just
///   before that copy is swapped in — the write-ahead log receives only
///   committable units whose publication cannot fail half-way, in commit
///   order, and a unit that fails to log aborts the commit: the prepared
///   copy is dropped and the committed state is untouched.
/// * **Published tables are sealed.** Every table the manager publishes —
///   at construction, in [`TxnManager::install_tables`] and in
///   [`TxnManager::commit_with`] — is cut into shared blocks
///   ([`Table::seal`]), so the next writer's copy duplicates only an open
///   tail shorter than a block and the blocks it rewrites.
/// * **Indexes are fresh when published.** The manager owns the committed
///   index registry and is its only writer: it builds every period
///   table's index when it is constructed, and each publication
///   ([`TxnManager::commit_with`], [`TxnManager::install_tables`]) repairs
///   the indexes of the tables it publishes before they become visible. A
///   pinned snapshot therefore never has to repair anything, and a
///   transaction reads the tables it wrote — whose pinned indexes are
///   stale by version — on the naive routes until it commits.
#[derive(Debug)]
pub struct TxnManager {
    // The committed state: what a new snapshot pins; every period table's
    // index in it is fresh. Poisoning only happens when a thread panicked
    // mid-operation; the committed state is swapped atomically
    // (publication prepares the new state before touching the guard), so
    // the data is still consistent — the `obs::lock` types recover the
    // guard instead of cascading panics through every session, and
    // enforce `docs/lock_order.md` in debug.
    state: obs::NamedRw<CatalogSnapshot>,
    /// Held for the whole validate → prepare → log → swap sequence.
    commit_lock: obs::Named<()>,
    next_txn_id: AtomicU64,
    // Telemetry in the database's registry; the histograms split the
    // commit path (lock wait, validation, publication) and the snapshot.
    snapshots: Arc<Counter>,
    snapshot_seconds: Arc<Histogram>,
    commits: Arc<Counter>,
    conflicts: Arc<Counter>,
    rollbacks: Arc<Counter>,
    commit_wait_seconds: Arc<Histogram>,
    validate_seconds: Arc<Histogram>,
    publish_seconds: Arc<Histogram>,
}

/// First-committer-wins validation of `txn` against `committed`: every
/// conflict-set table (written, or read as a replay dependency) must still
/// carry the version epoch the transaction pinned at `BEGIN`. Version
/// epochs are globally unique, so a drop-and-recreate look-alike can never
/// slip through. A refusal is [`StatementError::Conflict`] — the
/// *retryable* class: nothing about the statements is invalid, the
/// transaction merely raced. Shared by [`TxnManager::commit_with`] and the
/// session layer's owned-database commit path.
pub fn validate_first_committer_wins(
    txn: &Transaction,
    committed: &Catalog,
) -> Result<(), StatementError> {
    for name in txn.conflict_set() {
        let now = committed.get(name).map(Table::version);
        let pinned = txn.snapshot().catalog().get(name).map(Table::version);
        if now != pinned {
            return Err(StatementError::Conflict(format!(
                "write-write conflict on table '{name}': a concurrent transaction \
                 committed it first (first-committer-wins) — rollback and retry"
            )));
        }
    }
    Ok(())
}

/// Publishes a validated transaction's write set from its `working`
/// catalog into `catalog`/`indexes`: written tables swap in by `Arc`
/// handle (no row copying), dropped ones leave with their index, and the
/// published tables' indexes are repaired (edited in proportion to the
/// rows written when the writes were appends and in-place updates) so the
/// next reader finds them fresh. Shared by the
/// owned-database commit path and [`TxnManager::commit_with`], which
/// applies it to a private copy of the committed state so the index
/// builds hold no state lock and finish before the commit is logged.
pub fn publish_write_set<'a>(
    working: &Catalog,
    write_set: impl Iterator<Item = &'a str>,
    catalog: &mut Catalog,
    indexes: &mut IndexCatalog,
) {
    let names: Vec<&str> = write_set.collect();
    for name in &names {
        match working.get_shared(name) {
            Some(table) => catalog.register_shared(name.to_string(), table.clone()),
            None => {
                catalog.remove(name);
            }
        }
    }
    indexes.refresh(catalog, names);
}

impl TxnManager {
    /// A manager over an initial catalog, recording into its database's
    /// `metrics`. Brings every period table's entry in `indexes` up to
    /// date first, so the first snapshot is already fully indexed.
    pub fn new(mut catalog: Catalog, mut indexes: IndexCatalog, metrics: &MetricsRegistry) -> Self {
        let names: Vec<String> = catalog.table_names().map(String::from).collect();
        for name in &names {
            catalog.seal(name);
        }
        indexes.refresh(&catalog, catalog.table_names());
        TxnManager {
            state: obs::NamedRw::new("txn.state", CatalogSnapshot::new(catalog, indexes, 0)),
            commit_lock: obs::Named::new("txn.commit", ()),
            next_txn_id: AtomicU64::new(1),
            snapshots: metrics.counter("txn_snapshots_total"),
            snapshot_seconds: metrics.histogram("txn_snapshot_seconds"),
            commits: metrics.counter("txn_commits_total"),
            conflicts: metrics.counter("txn_conflicts_total"),
            rollbacks: metrics.counter("txn_rollbacks_total"),
            commit_wait_seconds: metrics.histogram("txn_commit_wait_seconds"),
            validate_seconds: metrics.histogram("txn_validate_seconds"),
            publish_seconds: metrics.histogram("txn_publish_seconds"),
        }
    }

    /// Pins a snapshot of the current committed state.
    pub fn snapshot(&self) -> CatalogSnapshot {
        let started = Instant::now();
        let snap = self.state.read().clone();
        self.snapshots.inc();
        self.snapshot_seconds.observe_duration(started.elapsed());
        snap
    }

    /// Opens a transaction over a freshly pinned snapshot.
    pub fn begin(&self) -> Transaction {
        let id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
        Transaction::begin(id, self.snapshot())
    }

    /// The current commit sequence number.
    pub fn commit_seq(&self) -> u64 {
        self.state.read().commit_seq()
    }

    /// Commits a transaction: validate (first-committer-wins), prepare
    /// the publication (index repair included), make durable, swap the
    /// prepared state in. `durability` receives the buffered statement
    /// texts and is called only for validated, non-read-only commits whose
    /// publication is prepared; what it returns comes back as
    /// [`CommitOutcome::durable`] (`D::default()` for a read-only commit).
    /// An `Err` from it aborts the commit — the prepared state is dropped,
    /// the committed state untouched — and surfaces as
    /// [`StatementError::Failed`] (not retryable).
    pub fn commit_with<F, D>(
        &self,
        mut txn: Transaction,
        durability: F,
    ) -> Result<CommitOutcome<D>, StatementError>
    where
        F: FnOnce(&[String]) -> Result<D, String>,
        D: Default,
    {
        if txn.is_read_only() {
            // Nothing to validate, log, or publish; the snapshot simply
            // unpins. (Statements cannot have been buffered: only writes
            // are.)
            return Ok(CommitOutcome {
                commit_seq: txn.snapshot().commit_seq(),
                ..CommitOutcome::default()
            });
        }
        // Sealing moves only the rows the transaction appended, and touches
        // nothing committed: done before the lock.
        let written: Vec<String> = txn.write_set().map(String::from).collect();
        let catalog = txn.catalog_mut();
        for name in &written {
            catalog.seal(name);
        }
        let copied_rows = written
            .iter()
            .filter_map(|name| catalog.get(name))
            .map(Table::copied_rows)
            .sum();
        let started = Instant::now();
        let commit = self.commit_lock.lock();
        let wait = started.elapsed();
        self.commit_wait_seconds.observe_duration(wait);
        // Validate against the committed state *now*. The commit lock
        // keeps it stable through publication; concurrent `begin`s only
        // read.
        let started = Instant::now();
        let verdict = validate_first_committer_wins(&txn, self.state.read().catalog());
        let validate = started.elapsed();
        self.validate_seconds.observe_duration(validate);
        if let Err(e) = verdict {
            self.conflicts.inc();
            return Err(e);
        }
        let (_, working, write_set, statements) = txn.into_parts();
        let started = Instant::now();
        let written = write_set.iter().map(String::as_str);
        let prepared = self.prepare(|c, i| publish_write_set(&working, written, c, i));
        let prepare = started.elapsed();
        let durable = durability(&statements)?;
        let started = Instant::now();
        let commit_seq = prepared.commit_seq();
        let superseded = self.swap(prepared);
        let publish = prepare + started.elapsed();
        self.publish_seconds.observe_duration(publish);
        self.commits.inc();
        // Free the superseded state (the old versions of the written
        // tables, unless a snapshot pins them) once the next writer can go.
        drop(commit);
        drop((superseded, working));
        Ok(CommitOutcome {
            commit_seq,
            published: write_set.len(),
            wait,
            validate,
            durable,
            publish,
            copied_rows,
        })
    }

    /// The first step of publication: `apply` runs on a private copy of
    /// the committed catalog and index registry — the `O(#tables)` handle
    /// copy a snapshot makes, under the read side of `txn.state` — with no
    /// state lock held while it builds indexes. Returns the next committed
    /// state, one commit sequence number on. The caller holds the commit
    /// lock, so the committed state cannot move before [`Self::swap`].
    fn prepare(&self, apply: impl FnOnce(&mut Catalog, &mut IndexCatalog)) -> CatalogSnapshot {
        let state = self.state.read();
        let (mut catalog, mut indexes) = (state.catalog().clone(), state.indexes().clone());
        let commit_seq = state.commit_seq() + 1;
        drop(state);
        apply(&mut catalog, &mut indexes);
        CatalogSnapshot::new(catalog, indexes, commit_seq)
    }

    /// The second step of publication: the write side of `txn.state` is
    /// taken only to install the prepared state. Returns the swapped-out
    /// state, for the caller to drop once it has released the commit lock:
    /// freeing a superseded table version costs time in proportion to its
    /// rows.
    fn swap(&self, prepared: CatalogSnapshot) -> CatalogSnapshot {
        std::mem::replace(&mut *self.state.write(), prepared)
    }

    /// Rolls a transaction back. The committed state was never touched, so
    /// this only drops the working catalog — kept as an explicit method
    /// because "rollback is free" is an API promise worth naming. Counted
    /// in `txn_rollbacks_total`: a session's explicit `ROLLBACK` and the
    /// unwind of a statement cancelled inside `BEGIN` both land here (an
    /// autocommit statement's implicit transaction is not counted).
    pub fn rollback(&self, txn: Transaction) {
        self.rollbacks.inc();
        drop(txn);
    }

    /// Runs `f` over the committed catalog and index registry (a consistent
    /// read view; prefer [`TxnManager::snapshot`] for anything that
    /// outlives the call).
    pub fn with_committed<R>(&self, f: impl FnOnce(&Catalog, &IndexCatalog) -> R) -> R {
        let state = self.state.read();
        f(state.catalog(), state.indexes())
    }

    /// Runs `f` over the committed catalog with the *commit path locked
    /// out* — the checkpointing entry point. A checkpoint must not run
    /// between a commit's WAL append and its publication: it would cover
    /// the commit's LSNs (and reset the log) while snapshotting a catalog
    /// that does not yet contain the commit, losing an acknowledged
    /// transaction on recovery. Under the commit lock, every unit in the
    /// WAL is also in the catalog `f` sees.
    ///
    /// Lock order: commit lock, then state read lock, then whatever `f`
    /// takes — the same order as the commit path, so callers may lock
    /// their durability state inside `f`.
    pub fn with_committed_serialized<R>(&self, f: impl FnOnce(&Catalog, &IndexCatalog) -> R) -> R {
        let _commit = self.commit_lock.lock();
        let state = self.state.read();
        f(state.catalog(), state.indexes())
    }

    /// Installs tables wholesale into the committed state (the bulk-load
    /// path, which has no statement form): serialized against commits,
    /// published as one commit with the installed tables' indexes built.
    /// Concurrent transactions that wrote any of these tables will fail
    /// their commit validation — exactly as if the load were a competing
    /// transaction that committed first.
    pub fn install_tables<I>(&self, tables: I) -> CommitOutcome
    where
        I: IntoIterator<Item = (String, Table)>,
    {
        let commit = self.commit_lock.lock();
        let mut names = Vec::new();
        let prepared = self.prepare(|catalog, indexes| {
            for (name, mut table) in tables {
                table.seal();
                catalog.register(name.clone(), table);
                names.push(name);
            }
            indexes.refresh(catalog, names.iter().map(String::as_str));
        });
        let commit_seq = prepared.commit_seq();
        let superseded = self.swap(prepared);
        drop(commit);
        drop(superseded);
        CommitOutcome {
            commit_seq,
            published: names.len(),
            ..CommitOutcome::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{row, Schema, SqlType};

    fn works_table() -> Table {
        let schema = Schema::of(&[
            ("name", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 1, 2);
        t.push(row!["Ann", 3, 10]);
        t.push(row!["Joe", 8, 16]);
        t
    }

    fn manager() -> TxnManager {
        let mut catalog = Catalog::new();
        catalog.register("works", works_table());
        TxnManager::new(catalog, IndexCatalog::new(), &MetricsRegistry::new())
    }

    #[test]
    fn snapshot_is_immune_to_later_commits() {
        let mgr = manager();
        let reader = mgr.snapshot();
        let v_pinned = reader.catalog().get("works").unwrap().version();

        let mut txn = mgr.begin();
        txn.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["Sam", 1, 4]);
        txn.record_write("works");
        mgr.commit_with(txn, |_| Ok(())).unwrap();

        // The committed state moved on; the pinned snapshot did not.
        assert_eq!(mgr.snapshot().catalog().get("works").unwrap().len(), 3);
        assert_eq!(reader.catalog().get("works").unwrap().len(), 2);
        assert_eq!(reader.catalog().get("works").unwrap().version(), v_pinned);
    }

    #[test]
    fn transaction_reads_its_own_writes_only() {
        let mgr = manager();
        let mut txn = mgr.begin();
        txn.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["Sam", 1, 4]);
        txn.record_write("works");
        assert_eq!(txn.catalog().get("works").unwrap().len(), 3);
        // Uncommitted: invisible to fresh snapshots.
        assert_eq!(mgr.snapshot().catalog().get("works").unwrap().len(), 2);
        mgr.rollback(txn);
        assert_eq!(mgr.snapshot().catalog().get("works").unwrap().len(), 2);
    }

    #[test]
    fn first_committer_wins_on_write_write_conflict() {
        let mgr = manager();
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["A", 1, 2]);
        a.record_write("works");
        b.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["B", 1, 2]);
        b.record_write("works");

        mgr.commit_with(a, |_| Ok(())).unwrap();
        let err = mgr.commit_with(b, |_| Ok(())).unwrap_err();
        assert!(matches!(err, StatementError::Conflict(_)), "{err}");
        assert!(err.to_string().contains("write-write conflict"), "{err}");
        // The winner's row is there; the loser's never lands.
        let state = mgr.snapshot();
        let names: Vec<String> = state
            .catalog()
            .get("works")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(0).to_string())
            .collect();
        assert!(names.contains(&"'A'".to_string()) || names.iter().any(|n| n.contains('A')));
        assert!(!names.iter().any(|n| n.contains('B')));
    }

    #[test]
    fn disjoint_write_sets_commit_concurrently() {
        let mgr = manager();
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.catalog_mut().register("a_new", works_table());
        a.record_write("a_new");
        b.catalog_mut().register("b_new", works_table());
        b.record_write("b_new");
        mgr.commit_with(a, |_| Ok(())).unwrap();
        mgr.commit_with(b, |_| Ok(())).unwrap();
        let snap = mgr.snapshot();
        assert!(snap.catalog().get("a_new").is_some());
        assert!(snap.catalog().get("b_new").is_some());
    }

    #[test]
    fn create_create_and_drop_races_conflict() {
        let mgr = manager();
        // Both create the same table.
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.catalog_mut().register("t", works_table());
        a.record_write("t");
        b.catalog_mut().register("t", works_table());
        b.record_write("t");
        mgr.commit_with(a, |_| Ok(())).unwrap();
        assert!(mgr.commit_with(b, |_| Ok(())).is_err());

        // Drop racing an insert: the insert commits first, the drop (which
        // pinned the pre-insert version) must conflict.
        let mut ins = mgr.begin();
        let mut drp = mgr.begin();
        ins.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["X", 1, 2]);
        ins.record_write("works");
        drp.catalog_mut().remove("works");
        drp.record_write("works");
        mgr.commit_with(ins, |_| Ok(())).unwrap();
        assert!(mgr.commit_with(drp, |_| Ok(())).is_err());
        assert!(mgr.snapshot().catalog().get("works").is_some());
    }

    #[test]
    fn durability_failure_aborts_before_publication() {
        let mgr = manager();
        let mut txn = mgr.begin();
        txn.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["X", 1, 2]);
        txn.record_write("works");
        txn.push_statement("INSERT INTO works VALUES ('X', 1, 2)".into());
        let err = mgr
            .commit_with(txn, |stmts| {
                assert_eq!(stmts.len(), 1);
                Err::<(), _>("disk on fire".into())
            })
            .unwrap_err();
        assert_eq!(err, StatementError::Failed("disk on fire".into()));
        assert_eq!(mgr.snapshot().catalog().get("works").unwrap().len(), 2);
        assert_eq!(mgr.commit_seq(), 0);
    }

    /// A commit prepares its publication before it logs: when the
    /// durability callback runs, the written period table's index repair
    /// is already counted, so a panic in the repair cannot leave a logged
    /// unit that was never published.
    #[test]
    fn index_repair_is_done_before_the_commit_is_logged() {
        let metrics = MetricsRegistry::new();
        let mut catalog = Catalog::new();
        catalog.register("works", works_table());
        let mgr = TxnManager::new(catalog, IndexCatalog::recording_into(&metrics), &metrics);
        let repairs = || {
            let stats = index::MaintenanceStats::read(&metrics);
            stats.full_builds + stats.incremental_builds
        };
        let built = repairs();
        let mut txn = mgr.begin();
        txn.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["X", 1, 2]);
        txn.record_write("works");
        txn.push_statement("INSERT INTO works VALUES ('X', 1, 2)".into());
        let outcome = mgr.commit_with(txn, |_| Ok(repairs())).unwrap();
        assert_eq!(outcome.durable, built + 1, "repaired before durability");
        assert_eq!(repairs(), built + 1, "and only once");
        assert_eq!(mgr.snapshot().catalog().get("works").unwrap().len(), 3);
    }

    #[test]
    fn read_only_commit_is_free_and_skips_durability() {
        let mgr = manager();
        let txn = mgr.begin();
        let outcome: CommitOutcome = mgr
            .commit_with(txn, |_| panic!("durability must not run"))
            .unwrap();
        assert_eq!(outcome.published, 0);
        assert_eq!(mgr.commit_seq(), 0);
    }

    #[test]
    fn committed_indexes_are_refreshed_on_publish() {
        let mgr = manager();
        let before = mgr.snapshot();
        let works = before.catalog().get("works").unwrap();
        assert!(before.indexes().get_fresh("works", works).is_some());

        let mut txn = mgr.begin();
        txn.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["Sam", 1, 4]);
        txn.record_write("works");
        mgr.commit_with(txn, |_| Ok(())).unwrap();

        let after = mgr.snapshot();
        let works = after.catalog().get("works").unwrap();
        assert!(
            after.indexes().get_fresh("works", works).is_some(),
            "publish repairs the committed index for the new version"
        );
    }

    #[test]
    fn install_tables_competes_like_a_committed_transaction() {
        let mgr = manager();
        let mut txn = mgr.begin();
        txn.catalog_mut()
            .get_mut("works")
            .unwrap()
            .push(row!["X", 1, 2]);
        txn.record_write("works");
        // A bulk load replaces the table while the transaction is open.
        mgr.install_tables(vec![("works".to_string(), works_table())]);
        assert!(mgr.commit_with(txn, |_| Ok(())).is_err());
    }
}
