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

// `deny`, not `forbid`: the unit tests' tracking allocator allows it.
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

/// The unit tests' global allocator: it tracks the largest single
/// allocation each thread asks for, so a fuzz test can bound what corrupt
/// bytes make a decoder allocate.
#[cfg(test)]
pub(crate) mod test_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    struct Tracking;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    }

    #[allow(unsafe_code)]
    // SAFETY: every call forwards to `System` unchanged; `note` only
    // touches a const-initialised thread-local `Cell`, which never
    // allocates.
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: Tracking = Tracking;

    /// Runs `f`, returning what it returns and the largest single
    /// allocation it made on this thread.
    pub(crate) fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|m| m.set(0));
        let out = f();
        (out, LARGEST.with(Cell::get))
    }
}
