//! Statement-level database subsystem: sessions, temporal DDL/DML, and the
//! shell meta-command library.
//!
//! The paper's middleware (Section 9) exposes snapshot semantics as a SQL
//! language feature over a *live* database. This crate supplies the
//! "live" part on top of every other layer of the reproduction:
//!
//! * [`Database`] — the in-memory value: owns the [`storage::Catalog`] and
//!   the [`index::IndexCatalog`], with validated mutation entry points; every
//!   mutation bumps [`storage::Table::version`], so indexes invalidate
//!   automatically and are repaired lazily (incrementally after pure
//!   appends) right before the next indexed query,
//! * [`Session`] — the `execute(sql) -> StatementResult` pipeline: DDL
//!   (`CREATE TABLE ... PERIOD (b, e)`, `DROP TABLE`), non-sequenced DML
//!   (`INSERT ... VALUES`/`... SELECT`, `DELETE`, `UPDATE`), and queries —
//!   plain, `SEQ VT (...)`, `SEQ VT AS OF t (...)` (timeslice pushdown,
//!   Theorem 6.3), and `SEQ VT BETWEEN t1 AND t2 (...)` (range-restricted
//!   compilation over interval-tree overlap probes),
//! * [`meta`] — the shell meta commands (`.tables`, `.kill`, `.dump`, …)
//!   as a library, shared by the `snapshot_db` shell and the network
//!   server (both live in the `snapshot_server` crate).
//!
//! A database is durable when opened on a database directory
//! ([`SharedDatabase::open_durable`]): every commit — a bare DDL/DML
//! statement is a single-statement one — is validated, appended to a
//! write-ahead log as one unit, and only then published, and the catalog
//! is checkpointed periodically (see the `snapshot_wal` crate), so the
//! database survives restarts — and crashes: recovery loads the newest
//! valid checkpoint, replays the WAL tail through the same pipeline, and
//! truncates torn tails instead of failing.

pub mod database;
pub mod meta;
pub mod session;
pub mod shared;

pub use database::Database;
pub use session::{
    PhaseTimings, RecoveryReport, RetryStats, Session, SessionOptions, StatementResult,
};
pub use shared::SharedDatabase;
// The error type of the statement path, re-exported so embedders can
// match on it without depending on `snapshot_obs` directly.
pub use snapshot_obs::{CancelKind, StatementError};
// Concurrency surface, re-exported so tests and the shell need not depend
// on `snapshot_txn` directly.
pub use snapshot_txn::CatalogSnapshot;
// Durability configuration, re-exported so shell/bench/tests need not
// depend on `snapshot_wal` directly.
pub use snapshot_wal::{PersistenceOptions, SyncPolicy};
