//! MVCC concurrency subsystem: multi-version catalog snapshots,
//! snapshot-isolation transactions, and the transaction manager.
//!
//! The paper's snapshot-reducibility result (Theorem 5.4 and the
//! point-wise semantics of Definition 4.4) means a sequenced query is
//! fully determined by one consistent state of its input relations — so a
//! reader that pins a *catalog snapshot* and never sees anything else is
//! already correct under bag semantics. Multi-version concurrency control
//! hands out exactly that for free:
//!
//! * [`CatalogSnapshot`] — a consistent, immutable point-in-version view
//!   of the whole catalog plus its index registry. Cloning a
//!   [`storage::Catalog`] is an `O(#tables)` `Arc` bump (PR 4 made tables
//!   copy-on-write), so pinning is cheap and readers never block writers,
//!   and writers never disturb readers.
//! * [`Transaction`] — a pinned snapshot plus a private copy-on-write
//!   *working* catalog that receives the transaction's own writes (it
//!   reads its own writes; nobody else does), the write set, and the
//!   statement texts to log as one WAL commit unit.
//! * [`TxnManager`] — `begin`/`commit`/`rollback` over a shared committed
//!   state. Commits are serialized (single-writer commit path) and
//!   validated *first-committer-wins*: a transaction whose write set
//!   overlaps a table that changed identity (its globally unique
//!   [`storage::Table::version`] epoch) since the transaction began is
//!   refused. Rollback is trivial — the committed state was never touched,
//!   dropping the working catalog *is* the snapshot restore.
//!
//! The subsystem is storage-level by design: it never parses SQL and never
//! touches the write-ahead log directly. The session layer
//! (`snapshot_session`) drives statements into transactions and passes a
//! durability callback into [`TxnManager::commit_with`], which is invoked
//! under the commit lock, after conflict validation and before publication
//! — the WAL sees only committable units, and a unit that fails to reach
//! the log aborts cleanly.

#![forbid(unsafe_code)]

pub mod manager;
pub mod snapshot;
pub mod transaction;

pub use manager::{publish_write_set, validate_first_committer_wins, CommitOutcome, TxnManager};
pub use snapshot::CatalogSnapshot;
pub use transaction::Transaction;
