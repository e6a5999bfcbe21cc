//! Transactions: a pinned snapshot plus a private working catalog.

use crate::snapshot::CatalogSnapshot;
use std::collections::BTreeSet;
use storage::Catalog;

/// One open transaction under snapshot isolation.
///
/// Reads see the transaction's *working* catalog: a copy-on-write clone of
/// the pinned snapshot that receives this transaction's own writes (so the
/// transaction reads its own writes, and nobody else reads them). Writes
/// additionally enter the *write set* — the table names whose identity
/// this transaction changed — which [`crate::TxnManager::commit_with`]
/// validates first-committer-wins against the committed state, and the
/// *statement buffer* — the SQL texts the session layer logs as one atomic
/// WAL commit unit on commit.
///
/// A transaction keeps no index registry of its own and never repairs
/// one: in a registry of committed tables, every table it wrote reads as
/// stale (new version epoch), so its reads of those tables take the naive
/// routes until `COMMIT` publishes them with repaired indexes.
///
/// Dropping a transaction (or explicit rollback) is the undo: the
/// committed state was never touched, so discarding the working catalog
/// restores exactly the pinned snapshot's world.
#[derive(Debug)]
pub struct Transaction {
    id: u64,
    snapshot: CatalogSnapshot,
    working: Catalog,
    write_set: BTreeSet<String>,
    /// Tables whose *contents* a logged statement depends on without
    /// writing them — today the source tables of `INSERT ... SELECT`.
    /// They join conflict validation so the logical WAL replays the
    /// statement deterministically (see
    /// [`crate::manager::validate_first_committer_wins`]).
    read_set: BTreeSet<String>,
    statements: Vec<String>,
}

impl Transaction {
    /// Opens a transaction over a pinned snapshot (use
    /// [`crate::TxnManager::begin`] for the shared, managed path).
    pub fn begin(id: u64, snapshot: CatalogSnapshot) -> Self {
        let working = snapshot.catalog().clone();
        Transaction {
            id,
            snapshot,
            working,
            write_set: BTreeSet::new(),
            read_set: BTreeSet::new(),
            statements: Vec::new(),
        }
    }

    /// The transaction id (process-unique, diagnostic).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The snapshot pinned at `BEGIN` — the state this transaction's reads
    /// are based on and conflicts are validated against.
    pub fn snapshot(&self) -> &CatalogSnapshot {
        &self.snapshot
    }

    /// The working catalog: the pinned snapshot plus this transaction's
    /// own writes.
    pub fn catalog(&self) -> &Catalog {
        &self.working
    }

    /// The working catalog, mutably — the DML/DDL entry point. Callers
    /// must also [`Transaction::record_write`] every table they change;
    /// the borrow is split so validation helpers can hold the catalog
    /// while deciding.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.working
    }

    /// Marks `name` as written by this transaction (created, dropped, or
    /// mutated): it joins the write set for conflict validation and
    /// publication.
    pub fn record_write(&mut self, name: &str) {
        self.write_set.insert(name.to_string());
    }

    /// Marks `name` as a *replay dependency*: a logged statement of this
    /// transaction reads it without writing it (an `INSERT ... SELECT`
    /// source). It joins conflict validation — without this, the
    /// statement's WAL replay could see a different source state than the
    /// transaction's snapshot did.
    pub fn record_read(&mut self, name: &str) {
        self.read_set.insert(name.to_string());
    }

    /// Buffers one executed statement's text for the WAL commit unit.
    pub fn push_statement(&mut self, sql: String) {
        self.statements.push(sql);
    }

    /// Tables written by this transaction, sorted.
    pub fn write_set(&self) -> impl Iterator<Item = &str> {
        self.write_set.iter().map(String::as_str)
    }

    /// Every table whose pinned state this transaction's outcome depends
    /// on: the write set plus the recorded replay dependencies, sorted and
    /// deduplicated.
    pub fn conflict_set(&self) -> impl Iterator<Item = &str> {
        self.write_set.union(&self.read_set).map(String::as_str)
    }

    /// Whether the transaction has written nothing (commit is a no-op).
    pub fn is_read_only(&self) -> bool {
        self.write_set.is_empty()
    }

    /// Decomposes the transaction for publication: `(snapshot, working
    /// catalog, write set, statements)`.
    pub(crate) fn into_parts(self) -> (CatalogSnapshot, Catalog, BTreeSet<String>, Vec<String>) {
        (self.snapshot, self.working, self.write_set, self.statements)
    }
}
