//! Umbrella crate for the *Snapshot Semantics for Temporal Multiset
//! Relations* reproduction (Dignös, Glavic, Niu, Böhlen, Gamper — PVLDB
//! 12(6), 2019).
//!
//! Re-exports every layer of the system so examples and integration tests
//! can use a single dependency:
//!
//! * [`timeline`] — time domains and interval algebra,
//! * [`semiring`] — the K-relation annotation framework,
//! * [`snapshot_core`] — temporal K-elements, K-coalescing, period semirings,
//!   snapshot/period K-relations (the paper's abstract + logical models),
//! * [`storage`] — values, rows, schemas, period relations, catalog,
//! * [`index`] — sweep-line interval indexes (endpoint event lists,
//!   interval trees, the endpoint-sweep join) over stored period tables,
//! * [`algebra`] — logical plans and scalar expressions,
//! * [`engine`] — the embedded multiset execution engine,
//! * [`sql`] — the SQL dialect with `SEQ VT (...)` snapshot blocks (plus
//!   `AS OF`/`BETWEEN` windows) and temporal DDL/DML,
//! * [`rewrite`] — `PERIODENC` and the `REWR` rewriting scheme,
//! * [`wal`] — the durability subsystem (binary codec, write-ahead log,
//!   catalog checkpoints, crash recovery, SQL dumps),
//! * [`txn`] — the MVCC concurrency subsystem (copy-on-write catalog
//!   snapshots, snapshot-isolation transactions, the transaction manager
//!   with its first-committer-wins commit path),
//! * [`session`] — the statement-level database subsystem (`Database`,
//!   `SharedDatabase`, `Session::execute` with `BEGIN`/`COMMIT`/
//!   `ROLLBACK`; durable when opened on a database directory),
//! * [`server`] — the network subsystem: a threaded TCP server speaking a
//!   length-prefixed CRC32-framed binary protocol, the `Client` library
//!   type, and the `snapshot_server` / `snapshot_db` binaries,
//! * [`baseline`] — comparator implementations (point-wise oracle, ATSQL
//!   interval preservation, alignment-based native evaluation),
//! * [`datagen`] — synthetic Employees / TPC-BiH-style datasets.

#![forbid(unsafe_code)]

pub use algebra;
pub use baseline;
pub use datagen;
pub use engine;
pub use index;
pub use rewrite;
pub use semiring;
pub use snapshot_core;
pub use snapshot_server as server;
pub use snapshot_session as session;
pub use snapshot_txn as txn;
pub use snapshot_wal as wal;
pub use sql;
pub use storage;
pub use timeline;
