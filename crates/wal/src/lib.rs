//! Durability subsystem: write-ahead log, catalog checkpoints, and crash
//! recovery for the snapshot database.
//!
//! The paper's snapshot semantics assume a temporal database that outlives
//! any single query session; this crate supplies the "outlives" part for
//! the reproduction. It is deliberately *logical* and *offline-friendly*:
//! no crates.io dependencies (the codec is hand-rolled, CRC included), no
//! page cache — the unit of durability is the commit unit (the SQL text of
//! the statements one transaction wrote, in one WAL frame) and the unit of
//! checkpointing is the whole [`storage::Catalog`].
//!
//! * [`codec`] — length-/CRC-framed little-endian binary encoding of
//!   values, schemas and row sets: a row header and column blocks, which
//!   the wire protocol ships results in and a checkpoint stores tables in,
//! * [`log`] — the WAL ([`Wal`]), one frame per commit unit: append with a
//!   configurable [`SyncPolicy`], scan-with-truncation of torn tails,
//! * [`checkpoint`] — atomic (temp file + rename + directory `fsync`)
//!   snapshots of the whole catalog, every table encoded afresh, with
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

// `deny`, not `forbid`: the checkpoint tests' tracking allocator allows it.
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod dump;
pub mod log;
pub mod persistence;

pub use checkpoint::{list_checkpoints, read_checkpoint, write_checkpoint, Checkpoint};
pub use crc::crc32;
pub use dump::dump_sql;
pub use log::{AppendReport, SyncPolicy, Wal, WalRecord, WalScan};
pub use persistence::{CheckpointReport, Persistence, PersistenceOptions, Recovery};

/// A scratch directory for this crate's unit tests.
#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh directory, removed with everything in it when the guard
    /// drops — also while a failed assertion unwinds. Declare it before
    /// whatever writes into it.
    pub(crate) struct TestDir(PathBuf);

    impl TestDir {
        /// Makes `snapshot_wal_test_<name>_<pid>_<n>` in the temp directory.
        pub(crate) fn new(name: &str) -> TestDir {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "snapshot_wal_test_{name}_{}_{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create a test directory");
            TestDir(dir)
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
