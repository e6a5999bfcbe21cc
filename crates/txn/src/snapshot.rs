//! Pinned catalog snapshots: the consistent read view of a transaction.

use index::IndexCatalog;
use storage::Catalog;

/// A consistent, immutable view of the catalog (and its index registry) as
/// of one commit sequence number.
///
/// Pinning is cheap: tables and index bundles live behind `Arc`, so the
/// snapshot is an `O(#tables)` handle copy. Whatever later writers commit,
/// the pinned tables — identified by their globally unique version epochs
/// — stay alive and bit-for-bit unchanged until the snapshot drops.
///
/// A snapshot pinned from a [`crate::TxnManager`] holds a fully fresh index
/// registry: the manager repairs indexes when it publishes tables, so a
/// reader never repairs. [`CatalogSnapshot::refresh_indexes`] stays for
/// callers that assemble a snapshot from an unrepaired registry; its
/// repair is private to the snapshot, and version epochs guarantee a
/// repaired entry matches the pinned table, never a newer committed one.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    catalog: Catalog,
    indexes: IndexCatalog,
    commit_seq: u64,
}

impl CatalogSnapshot {
    /// Pins a snapshot of `catalog`/`indexes` at `commit_seq`.
    pub fn new(catalog: Catalog, indexes: IndexCatalog, commit_seq: u64) -> Self {
        CatalogSnapshot {
            catalog,
            indexes,
            commit_seq,
        }
    }

    /// The pinned catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The pinned index registry.
    pub fn indexes(&self) -> &IndexCatalog {
        &self.indexes
    }

    /// The commit sequence number this snapshot reflects: every commit
    /// published up to (and including) this one, nothing after.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Repairs the pinned indexes of the named tables against the pinned
    /// catalog (an edit after appends and in-place updates, a full
    /// rebuild otherwise — see [`IndexCatalog::ensure`]). Unknown names lose their entry;
    /// non-temporal ones have none.
    pub fn refresh_indexes(&mut self, tables: &[String]) {
        self.indexes
            .refresh(&self.catalog, tables.iter().map(String::as_str));
    }
}
