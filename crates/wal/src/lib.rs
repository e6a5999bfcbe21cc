//! Durability subsystem: write-ahead log, catalog checkpoints, and crash
//! recovery for the snapshot database.
//!
//! The paper's snapshot semantics assume a temporal database that outlives
//! any single query session; this crate supplies the "outlives" part for
//! the reproduction. It is deliberately *logical* and *offline-friendly*:
//! no crates.io dependencies (the codec is hand-rolled, CRC included), no
//! page cache — the unit of durability is the validated SQL statement and
//! the unit of checkpointing is the whole [`storage::Catalog`].
//!
//! * [`codec`] — length-/CRC-framed little-endian binary encoding of
//!   values, rows, schemas, tables (including version epochs and
//!   append-checkpoint histories), and catalogs; plus the column block
//!   the wire protocol ships result batches in,
//! * [`log`] — the statement-level WAL ([`Wal`]): append with a
//!   configurable [`SyncPolicy`], scan-with-truncation of torn tails,
//! * [`checkpoint`] — atomic (temp file + rename) catalog snapshots with
//!   newest-valid-wins recovery and pruning,
//! * [`persistence`] — [`Persistence`] ties both together for a database
//!   directory: open → recover (checkpoint catalog + WAL tail to replay),
//!   log commit units (a bare statement is a unit of one), checkpoint,
//! * [`dump`] — [`dump_sql`], the catalog as a re-loadable SQL script
//!   (logical backups, recovery debugging).
//!
//! The session layer (`snapshot_session`) drives replay: this crate never
//! parses SQL, it only stores and returns statement text, so recovery runs
//! through the exact same parse → bind → execute pipeline as live traffic.

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod dump;
pub mod log;
pub mod persistence;

pub use checkpoint::{
    list_checkpoints, read_checkpoint, write_checkpoint, write_checkpoint_with, Checkpoint,
    CheckpointReuse, TableEncodeCache,
};
pub use crc::crc32;
pub use dump::dump_sql;
pub use log::{SyncPolicy, Wal, WalRecord, WalScan};
pub use persistence::{
    Persistence, PersistenceOptions, Recovery, TXN_BEGIN_MARKER, TXN_COMMIT_MARKER,
    TXN_ROLLBACK_MARKER,
};
