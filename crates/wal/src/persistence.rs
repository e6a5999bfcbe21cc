//! The persistence manager: one database directory, one WAL, a chain of
//! checkpoints, and the recovery procedure that ties them together.
//!
//! On-disk layout of a database directory `DIR/`:
//!
//! ```text
//! DIR/wal.log        — the logical write-ahead log (statement records)
//! DIR/checkpoint.N   — catalog snapshots, N strictly increasing
//! ```
//!
//! [`Persistence::open`] recovers: load the newest checkpoint whose CRC
//! validates (older ones are fallbacks), scan the WAL (truncating a torn
//! tail), and hand back the statements with `lsn > covered_lsn` for the
//! caller to replay through the ordinary execution pipeline. The session
//! layer owns that pipeline, so this type never parses SQL — it only
//! stores and returns it.

use crate::checkpoint::{self, CheckpointReuse, TableEncodeCache};
use crate::log::{SyncPolicy, Wal, WalRecord};
use snapshot_obs::{self as obs, LazyCounter, LazyHistogram};
use std::path::{Path, PathBuf};
use std::time::Instant;
use storage::Catalog;

/// Checkpoint telemetry: end-to-end latency (sync + encode + reset +
/// prune) and the incremental-encoding split (cache-spliced vs freshly
/// serialized tables).
static CHECKPOINTS: LazyCounter = LazyCounter::new("wal_checkpoints_total");
static CHECKPOINT_SECONDS: LazyHistogram = LazyHistogram::new("wal_checkpoint_seconds");
static CHECKPOINT_REUSED: LazyCounter = LazyCounter::new("wal_checkpoint_reused_tables_total");
static CHECKPOINT_ENCODED: LazyCounter = LazyCounter::new("wal_checkpoint_encoded_tables_total");

/// WAL marker framing the statements of a multi-statement transaction's
/// commit unit (also the literal SQL the session replays on recovery).
pub const TXN_BEGIN_MARKER: &str = "BEGIN";
/// Terminates a transaction's commit unit. A commit unit whose terminator
/// never reached the log (crash or torn write mid-batch) is *discarded* by
/// recovery: [`Persistence::open`] drops the trailing unterminated suffix
/// and truncates the log back to the record boundary before its
/// [`TXN_BEGIN_MARKER`], so an uncommitted transaction can never replay —
/// not even partially, and not by later appends extending the dangling
/// suffix into something that looks committed.
pub const TXN_COMMIT_MARKER: &str = "COMMIT";
/// Recognized for symmetry when scanning (rolled-back transactions are
/// normally never logged at all).
pub const TXN_ROLLBACK_MARKER: &str = "ROLLBACK";

/// Durability configuration.
#[derive(Debug, Clone, Copy)]
pub struct PersistenceOptions {
    /// When appended WAL records are forced to stable storage.
    pub sync: SyncPolicy,
    /// Auto-checkpoint after this many logged statements (`0` disables
    /// auto-checkpointing; explicit checkpoints still work).
    pub checkpoint_every: usize,
}

impl Default for PersistenceOptions {
    fn default() -> Self {
        PersistenceOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 64,
        }
    }
}

/// What recovery found in a database directory.
#[derive(Debug)]
pub struct Recovery {
    /// The newest valid checkpoint's catalog, when one exists.
    pub catalog: Option<Catalog>,
    /// Sequence number of the loaded checkpoint.
    pub checkpoint_seq: Option<u64>,
    /// WAL records not covered by the checkpoint, in log order — the
    /// caller must replay these through its statement pipeline.
    pub replay: Vec<WalRecord>,
    /// Bytes of torn/corrupt WAL tail that were truncated away.
    pub truncated_bytes: u64,
    /// Records of an *unterminated* transaction at the log's tail (a
    /// `BEGIN` marker with no `COMMIT`) that were discarded and truncated
    /// away — the transaction never committed, so replaying any of it
    /// would be wrong.
    pub discarded_uncommitted: usize,
}

/// An open database directory: the WAL plus checkpoint bookkeeping.
#[derive(Debug)]
pub struct Persistence {
    dir: PathBuf,
    options: PersistenceOptions,
    wal: Wal,
    /// LSN to assign to the next logged statement.
    next_lsn: u64,
    /// Sequence number for the next checkpoint file.
    next_checkpoint_seq: u64,
    /// Statements logged since the last checkpoint.
    since_checkpoint: usize,
    /// Set when a WAL append failed in a way that may have left unknown
    /// frames behind: the log tail no longer provably matches the
    /// committed history. Appending past it could write a tail that
    /// replays differently from what was published, so further appends
    /// are refused until a successful checkpoint re-captures the full
    /// committed state (clearing the poison).
    poisoned: Option<String>,
    /// Checkpoints newer than the loaded one that failed validation at
    /// open time. Deleted as soon as a fresh checkpoint supersedes them —
    /// left in place, they would count toward the prune quota and evict
    /// the *valid* spare that fallback recovery depends on.
    invalid_checkpoints: Vec<u64>,
    /// Per-table encoding cache for incremental checkpoints (tables with
    /// an unchanged version epoch reuse their previous on-disk bytes).
    encode_cache: TableEncodeCache,
    /// How the most recent checkpoint split its tables.
    last_reuse: CheckpointReuse,
    /// Exclusive advisory lock on `DIR/lock`, held for this value's
    /// lifetime: two processes appending to one `wal.log` with independent
    /// LSN counters would corrupt the log, so the second opener is
    /// refused. Released when the file handle drops.
    _lock: std::fs::File,
}

impl Persistence {
    /// Opens (creating if needed) the database directory and runs
    /// recovery. The returned [`Recovery`] carries the checkpoint catalog
    /// and the WAL tail to replay; the `Persistence` is ready for logging
    /// once the caller has applied both.
    pub fn open(
        dir: &Path,
        options: PersistenceOptions,
    ) -> Result<(Persistence, Recovery), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create database directory '{}': {e}", dir.display()))?;
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("lock"))
            .map_err(|e| format!("cannot open lock file in '{}': {e}", dir.display()))?;
        if let Err(e) = lock.try_lock() {
            return Err(format!(
                "database directory '{}' is locked by another process ({e})",
                dir.display()
            ));
        }
        let cp_scan = checkpoint::scan_checkpoints(dir);
        let (covered_lsn, checkpoint_seq, catalog) = match cp_scan.newest_valid {
            Some(cp) => (cp.covered_lsn, Some(cp.seq), Some(cp.catalog)),
            None => (0, None, None),
        };
        let (mut wal, scan) = Wal::open(&dir.join("wal.log"), options.sync)?;
        // Records at or below the covered LSN are already in the
        // checkpoint (a crash between checkpoint-rename and WAL-reset
        // leaves such records behind; skipping them here makes that
        // window harmless). LSNs increase through the log, so the kept
        // records are a suffix of the scan.
        let record_starts = scan.record_starts;
        let skipped = scan
            .records
            .iter()
            .take_while(|r| r.lsn <= covered_lsn)
            .count();
        let mut replay: Vec<WalRecord> = scan
            .records
            .into_iter()
            .filter(|r| r.lsn > covered_lsn)
            .collect();
        // Statements are logged with consecutive LSNs, so the tail beyond
        // the checkpoint must start at covered_lsn + 1 and step by one. A
        // gap means acknowledged statements are gone — typically because a
        // *newer* checkpoint (which absorbed them when the WAL was reset)
        // exists but no longer validates. Refusing to open is the only
        // honest answer: replaying across the gap would silently produce
        // a wrong database.
        for (expected, r) in (covered_lsn.saturating_add(1)..).zip(replay.iter()) {
            if r.lsn != expected {
                return Err(format!(
                    "recovery would lose statements: WAL jumps from lsn {expected} to {} \
                     over checkpoint #{} (newer but invalid checkpoints: {:?}); refusing \
                     to open '{}'",
                    r.lsn,
                    checkpoint_seq.unwrap_or(0),
                    cp_scan.invalid_newer,
                    dir.display()
                ));
            }
        }
        if !cp_scan.invalid_newer.is_empty() && replay.is_empty() {
            // A newer checkpoint exists but is unreadable, and the WAL
            // holds nothing beyond the older one we loaded. Whatever the
            // corrupt checkpoint absorbed (its WAL was reset when it was
            // written) is unreachable — unless it was a no-op checkpoint,
            // which we cannot distinguish. Refuse rather than guess.
            return Err(format!(
                "checkpoint(s) {:?} in '{}' are newer than the newest readable one but \
                 fail to validate, and the WAL does not bridge them; refusing to open a \
                 possibly stale state",
                cp_scan.invalid_newer,
                dir.display()
            ));
        }
        // A transaction reaches the log only as a whole commit unit
        // (`BEGIN` … statements … `COMMIT`, one batched write). A crash —
        // of the process mid-write, or of the storage tearing the batch —
        // can still leave a prefix of a unit behind: a `BEGIN` whose
        // terminator never made it. Those statements never committed;
        // discard them and truncate the log back to the `BEGIN` record's
        // boundary. (Merely skipping them at replay would not be enough:
        // statements appended after this open would extend the dangling
        // suffix, and the *next* recovery would replay them inside the
        // unterminated transaction.)
        let mut open_begin: Option<usize> = None;
        for (i, r) in replay.iter().enumerate() {
            match r.sql.as_str() {
                TXN_BEGIN_MARKER => open_begin = Some(i),
                TXN_COMMIT_MARKER | TXN_ROLLBACK_MARKER => open_begin = None,
                _ => {}
            }
        }
        let discarded_uncommitted = match open_begin
            .and_then(|i| record_starts.get(skipped + i).map(|&offset| (i, offset)))
        {
            Some((i, offset)) => {
                wal.truncate_to(offset)?;
                let discarded = replay.split_off(i);
                discarded.len()
            }
            None => 0,
        };
        let last_lsn = replay.last().map(|r| r.lsn).unwrap_or(covered_lsn);
        let next_checkpoint_seq = checkpoint::list_checkpoints(dir)
            .last()
            .map(|&s| s + 1)
            .unwrap_or(1);
        let persistence = Persistence {
            dir: dir.to_path_buf(),
            options,
            wal,
            next_lsn: last_lsn + 1,
            next_checkpoint_seq,
            since_checkpoint: replay.len(),
            poisoned: None,
            invalid_checkpoints: cp_scan.invalid_newer,
            encode_cache: TableEncodeCache::new(),
            last_reuse: CheckpointReuse::default(),
            _lock: lock,
        };
        Ok((
            persistence,
            Recovery {
                catalog,
                checkpoint_seq,
                replay,
                truncated_bytes: scan.truncated_bytes,
                discarded_uncommitted,
            },
        ))
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durability options this directory was opened with.
    pub fn options(&self) -> PersistenceOptions {
        self.options
    }

    /// The LSN the next logged statement will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Statements logged since the last checkpoint.
    pub fn since_checkpoint(&self) -> usize {
        self.since_checkpoint
    }

    /// Appends one committed transaction as a single atomic commit unit:
    /// the statements framed by [`TXN_BEGIN_MARKER`]/[`TXN_COMMIT_MARKER`]
    /// (a lone statement is logged bare — one record *is* already atomic),
    /// written as one batch with **one** `fsync` under
    /// [`SyncPolicy::Always`] — the group-commit path.
    ///
    /// Contract: call this *before* publishing the transaction's effects
    /// (WAL-ahead of the commit, not of each statement). On an error with
    /// the log rolled back, the commit can be cleanly aborted and
    /// durability is intact — nothing is poisoned. Only a failure that may
    /// have left unknown frames behind poisons the log (see
    /// [`Persistence::is_poisoned`]); the burned LSNs are covered by the
    /// next checkpoint, so they can never replay on top of a snapshot.
    pub fn log_transaction(&mut self, stmts: &[String]) -> Result<(), String> {
        if stmts.is_empty() {
            return Ok(());
        }
        if let Some(why) = &self.poisoned {
            return Err(format!(
                "WAL is poisoned by an earlier append failure ({why}); \
                 checkpoint to restore durability"
            ));
        }
        let mut frames: Vec<&str> = Vec::with_capacity(stmts.len() + 2);
        if stmts.len() > 1 {
            frames.push(TXN_BEGIN_MARKER);
        }
        frames.extend(stmts.iter().map(String::as_str));
        if stmts.len() > 1 {
            frames.push(TXN_COMMIT_MARKER);
        }
        match self.wal.append_batch(self.next_lsn, &frames) {
            Ok(()) => {
                self.next_lsn += frames.len() as u64;
                self.since_checkpoint += stmts.len();
                Ok(())
            }
            Err(failure) if failure.rolled_back => Err(format!(
                "{}; the transaction is not logged — abort the commit",
                failure.error
            )),
            Err(failure) => {
                // Unknown frames may linger in the batch's LSN range; burn
                // the whole range so nothing can ever be logged into it,
                // and poison until a checkpoint re-covers it.
                self.next_lsn += frames.len() as u64;
                self.poisoned = Some(failure.error.clone());
                Err(format!(
                    "{}; the log tail is in an unknown state — checkpoint to restore \
                     durability, or restart to fall back to what actually reached disk",
                    failure.error
                ))
            }
        }
    }

    /// Whether an append failure has poisoned the log (cleared by the next
    /// successful checkpoint).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Whether the auto-checkpoint threshold has been reached.
    pub fn should_checkpoint(&self) -> bool {
        self.options.checkpoint_every > 0 && self.since_checkpoint >= self.options.checkpoint_every
    }

    /// Writes a checkpoint of `catalog` covering everything logged so far,
    /// resets the WAL, and prunes old checkpoint files. Returns the new
    /// checkpoint's sequence number.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<u64, String> {
        let _span = obs::Span::enter("wal.checkpoint");
        let started = Instant::now();
        // Everything below next_lsn is either in the WAL (synced below,
        // before the snapshot becomes the recovery source) or already
        // applied to `catalog`; the snapshot covers it all.
        self.wal.sync()?;
        let seq = self.next_checkpoint_seq;
        let covered_lsn = self.next_lsn - 1;
        let (_, reuse) = checkpoint::write_checkpoint_with(
            &self.dir,
            seq,
            covered_lsn,
            catalog,
            &mut self.encode_cache,
        )?;
        self.last_reuse = reuse;
        self.next_checkpoint_seq = seq + 1;
        self.since_checkpoint = 0;
        // Known-invalid checkpoints are superseded now; remove them so
        // they cannot count toward the prune quota below and evict the
        // valid spare (best-effort, like pruning itself).
        for stale in self.invalid_checkpoints.drain(..) {
            let _ = std::fs::remove_file(checkpoint::checkpoint_path(&self.dir, stale));
        }
        // The WAL's content is now covered: an empty log plus the new
        // checkpoint is the same state. A crash before the reset is safe
        // (recovery filters lsn <= covered_lsn); one after it is too. The
        // reset also discards any partial frame left by a failed append,
        // and the snapshot captured the full committed catalog, so
        // durability is whole again: clear the poison.
        self.wal.reset()?;
        self.poisoned = None;
        checkpoint::prune(&self.dir, 2);
        CHECKPOINTS.inc();
        CHECKPOINT_REUSED.add(reuse.reused as u64);
        CHECKPOINT_ENCODED.add(reuse.encoded as u64);
        CHECKPOINT_SECONDS.observe_duration(started.elapsed());
        Ok(seq)
    }

    /// How the most recent [`Persistence::checkpoint`] split its tables
    /// between cache reuse and fresh serialization (all zeros before the
    /// first checkpoint of this process).
    pub fn last_checkpoint_reuse(&self) -> CheckpointReuse {
        self.last_reuse
    }

    /// Forces pending WAL appends to stable storage (meaningful under
    /// [`SyncPolicy::OnCheckpoint`]).
    pub fn sync(&mut self) -> Result<(), String> {
        self.wal.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{row, Schema, SqlType, Table};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "snapshot_persist_test_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A bare statement: a single-statement commit unit.
    fn log_one(p: &mut Persistence, sql: &str) -> Result<(), String> {
        p.log_transaction(&[sql.to_string()])
    }

    fn catalog_with(n: i64) -> Catalog {
        let mut t = Table::new(Schema::of(&[("x", SqlType::Int)]));
        for i in 0..n {
            t.push(row![i]);
        }
        let mut c = Catalog::new();
        c.register("t", t);
        c
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = tmp_dir("empty");
        let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert!(rec.catalog.is_none());
        assert!(rec.replay.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(p.next_lsn(), 1);
    }

    #[test]
    fn wal_only_then_checkpoint_then_tail() {
        let dir = tmp_dir("phases");
        // Phase 1: WAL only.
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
        }
        // Phase 2: recovery sees both records; checkpoint covers them.
        {
            let (mut p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            assert!(rec.catalog.is_none());
            assert_eq!(
                rec.replay.iter().map(|r| r.lsn).collect::<Vec<_>>(),
                vec![1, 2]
            );
            assert_eq!(p.next_lsn(), 3);
            p.checkpoint(&catalog_with(1)).unwrap();
            // Post-checkpoint statements form the new tail.
            log_one(&mut p, "INSERT INTO t VALUES (1)").unwrap();
        }
        // Phase 3: checkpoint + tail.
        let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(rec.checkpoint_seq, Some(1));
        assert_eq!(rec.catalog.unwrap().get("t").unwrap().len(), 1);
        assert_eq!(
            rec.replay.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![3]
        );
        assert_eq!(p.next_lsn(), 4);
    }

    #[test]
    fn auto_checkpoint_threshold() {
        let dir = tmp_dir("threshold");
        let opts = PersistenceOptions {
            checkpoint_every: 2,
            ..PersistenceOptions::default()
        };
        let (mut p, _) = Persistence::open(&dir, opts).unwrap();
        log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
        assert!(!p.should_checkpoint());
        log_one(&mut p, "INSERT INTO t VALUES (1)").unwrap();
        assert!(p.should_checkpoint());
        p.checkpoint(&catalog_with(2)).unwrap();
        assert!(!p.should_checkpoint());

        let zero = PersistenceOptions {
            checkpoint_every: 0,
            ..PersistenceOptions::default()
        };
        let dir = tmp_dir("threshold_zero");
        let (mut p, _) = Persistence::open(&dir, zero).unwrap();
        for i in 0..100 {
            log_one(&mut p, &format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert!(!p.should_checkpoint(), "0 disables auto-checkpointing");
    }

    #[test]
    fn crash_between_checkpoint_and_wal_reset_is_harmless() {
        let dir = tmp_dir("crash_window");
        let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
        log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
        // Simulate the crash window: write the checkpoint by hand (as
        // `checkpoint()` would) but leave the WAL un-reset.
        checkpoint::write_checkpoint(&dir, 1, 2, &catalog_with(1)).unwrap();
        drop(p);
        let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(rec.checkpoint_seq, Some(1));
        assert!(
            rec.replay.is_empty(),
            "covered records must not be replayed: {:?}",
            rec.replay
        );
    }

    /// Corrupts a checkpoint file in place (flips a byte mid-file).
    fn corrupt_checkpoint(dir: &Path, seq: u64) {
        let path = checkpoint::checkpoint_path(dir, seq);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn gapped_wal_after_lost_checkpoint_is_refused() {
        let dir = tmp_dir("gap");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
            // Checkpoint #1 absorbs lsn 1..2 and resets the WAL...
            p.checkpoint(&catalog_with(1)).unwrap();
            // ...so lsn 3 is the only WAL record left.
            log_one(&mut p, "INSERT INTO t VALUES (1)").unwrap();
        }
        // The checkpoint rots: statements 1..2 now exist nowhere. Opening
        // must refuse (replaying only lsn 3 would be silently wrong).
        corrupt_checkpoint(&dir, 1);
        let err = Persistence::open(&dir, PersistenceOptions::default()).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert!(err.contains("lsn 1 to 3"), "{err}");
    }

    #[test]
    fn corrupt_newest_checkpoint_with_empty_wal_is_refused() {
        let dir = tmp_dir("corrupt_empty_wal");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            p.checkpoint(&catalog_with(0)).unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
            p.checkpoint(&catalog_with(1)).unwrap(); // resets the WAL again
        }
        // Checkpoint #2 (the only copy of lsn 2) rots; the WAL is empty,
        // so falling back to #1 would silently lose the INSERT.
        corrupt_checkpoint(&dir, 2);
        let err = Persistence::open(&dir, PersistenceOptions::default()).unwrap_err();
        assert!(err.contains("fail to validate"), "{err}");
    }

    #[test]
    fn corrupt_newest_checkpoint_with_bridging_wal_falls_back() {
        let dir = tmp_dir("corrupt_bridged");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            p.checkpoint(&catalog_with(0)).unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (1)").unwrap();
            // Crash window: checkpoint #2 is written but the WAL was not
            // reset (records 2..3 still present).
            checkpoint::write_checkpoint(&dir, 2, 3, &catalog_with(2)).unwrap();
        }
        // #2 rots, but the WAL still bridges #1 contiguously: recovery
        // falls back and loses nothing.
        corrupt_checkpoint(&dir, 2);
        let (mut p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(rec.checkpoint_seq, Some(1));
        assert_eq!(
            rec.replay.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![2, 3]
        );
        // The next checkpoint deletes the known-invalid #2 instead of
        // letting it crowd the valid spare (#1) out of the prune quota.
        p.checkpoint(&catalog_with(2)).unwrap();
        assert_eq!(checkpoint::list_checkpoints(&dir), vec![1, 3]);
    }

    #[test]
    fn second_opener_of_a_locked_directory_is_refused() {
        let dir = tmp_dir("lock");
        let first = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        let err = Persistence::open(&dir, PersistenceOptions::default()).unwrap_err();
        assert!(err.contains("locked by another process"), "{err}");
        // Releasing the first opener frees the directory.
        drop(first);
        Persistence::open(&dir, PersistenceOptions::default()).unwrap();
    }

    #[test]
    fn oversized_statement_is_refused_before_writing_and_leaves_the_log_usable() {
        let dir = tmp_dir("oversized");
        let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
        // A statement too large to frame is refused up front: nothing is
        // written (recovery can never mistake it for corruption) and — the
        // unit is logged *before* publication — nothing was applied, so
        // the log is not behind anything and stays unpoisoned.
        let huge = "x".repeat((1 << 28) + 1);
        let err = log_one(&mut p, &huge).unwrap_err();
        assert!(err.contains("frame limit"), "{err}");
        assert!(err.contains("abort the commit"), "{err}");
        assert!(!p.is_poisoned());
        assert_eq!(p.next_lsn(), 2, "the refused unit burned no LSN");
        // The next unit appends without a checkpoint in between.
        log_one(&mut p, "INSERT INTO t VALUES (1)").unwrap();
        drop(p);
        let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(rec.checkpoint_seq, None);
        assert_eq!(
            rec.replay.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn transaction_units_are_framed_and_singletons_stay_bare() {
        let dir = tmp_dir("txn_frame");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            p.log_transaction(&[]).unwrap(); // empty: nothing logged
            p.log_transaction(&["CREATE TABLE t (x INT)".to_string()])
                .unwrap(); // singleton: bare record
            p.log_transaction(&[
                "INSERT INTO t VALUES (1)".to_string(),
                "INSERT INTO t VALUES (2)".to_string(),
            ])
            .unwrap();
            assert_eq!(p.next_lsn(), 6, "1 bare + (BEGIN + 2 + COMMIT)");
            assert_eq!(p.since_checkpoint(), 3, "markers are not statements");
        }
        let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        let sqls: Vec<&str> = rec.replay.iter().map(|r| r.sql.as_str()).collect();
        assert_eq!(
            sqls,
            vec![
                "CREATE TABLE t (x INT)",
                TXN_BEGIN_MARKER,
                "INSERT INTO t VALUES (1)",
                "INSERT INTO t VALUES (2)",
                TXN_COMMIT_MARKER,
            ]
        );
        assert_eq!(rec.discarded_uncommitted, 0);
    }

    #[test]
    fn torn_commit_marker_discards_the_whole_transaction() {
        let dir = tmp_dir("torn_commit");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            p.log_transaction(&[
                "INSERT INTO t VALUES (1)".to_string(),
                "INSERT INTO t VALUES (2)".to_string(),
            ])
            .unwrap();
        }
        // Tear the COMMIT marker off the log (crash mid-batch): the whole
        // transaction must vanish, not just the torn record.
        let wal_path = dir.join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 3]).unwrap();
        {
            let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            assert_eq!(
                rec.replay
                    .iter()
                    .map(|r| r.sql.as_str())
                    .collect::<Vec<_>>(),
                vec!["CREATE TABLE t (x INT)"]
            );
            assert_eq!(rec.discarded_uncommitted, 3, "BEGIN + 2 statements");
            assert!(rec.truncated_bytes > 0);
            // The discarded LSNs are free again: the next unit starts
            // right after the surviving prefix.
            assert_eq!(p.next_lsn(), 2);
        }
        // The truncation is persistent — and crucially, statements logged
        // *after* the discard can never be captured by the dangling BEGIN.
        {
            let (mut p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            assert_eq!(rec.discarded_uncommitted, 0, "already truncated away");
            log_one(&mut p, "INSERT INTO t VALUES (9)").unwrap();
        }
        let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(
            rec.replay
                .iter()
                .map(|r| r.sql.as_str())
                .collect::<Vec<_>>(),
            vec!["CREATE TABLE t (x INT)", "INSERT INTO t VALUES (9)"]
        );
    }

    #[test]
    fn tearing_inside_a_transaction_body_discards_back_to_its_begin() {
        let dir = tmp_dir("torn_body");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            // A committed unit, then a second unit torn mid-body.
            p.log_transaction(&[
                "INSERT INTO t VALUES (1)".to_string(),
                "INSERT INTO t VALUES (2)".to_string(),
            ])
            .unwrap();
            p.log_transaction(&[
                "INSERT INTO t VALUES (3)".to_string(),
                "INSERT INTO t VALUES (4)".to_string(),
            ])
            .unwrap();
        }
        let wal_path = dir.join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        // Chop deep enough to lose the second unit's COMMIT and one
        // statement, leaving BEGIN + one statement valid on disk.
        std::fs::write(&wal_path, &full[..full.len() - 60]).unwrap();
        let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        let sqls: Vec<&str> = rec.replay.iter().map(|r| r.sql.as_str()).collect();
        assert_eq!(
            sqls,
            vec![
                "CREATE TABLE t (x INT)",
                TXN_BEGIN_MARKER,
                "INSERT INTO t VALUES (1)",
                "INSERT INTO t VALUES (2)",
                TXN_COMMIT_MARKER,
            ],
            "the committed unit survives; the torn one is gone entirely"
        );
        assert!(rec.discarded_uncommitted > 0);
    }

    #[test]
    fn incremental_checkpoint_reuse_is_observable() {
        let dir = tmp_dir("ckpt_reuse");
        let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(p.last_checkpoint_reuse(), CheckpointReuse::default());
        p.checkpoint(&catalog_with(3)).unwrap();
        assert_eq!(p.last_checkpoint_reuse().encoded, 1);
        assert_eq!(p.last_checkpoint_reuse().reused, 0);
        // A rebuilt look-alike table carries a *different* epoch, so it
        // must encode fresh — only an identical epoch may reuse.
        let c = catalog_with(5);
        p.checkpoint(&c).unwrap();
        assert_eq!(p.last_checkpoint_reuse().encoded, 1);
        p.checkpoint(&c).unwrap();
        assert_eq!(p.last_checkpoint_reuse().reused, 1);
        assert_eq!(p.last_checkpoint_reuse().encoded, 0);
    }

    #[test]
    fn lsns_stay_monotonic_across_checkpoints_and_restarts() {
        let dir = tmp_dir("monotonic");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (0)").unwrap();
            p.checkpoint(&catalog_with(1)).unwrap();
            log_one(&mut p, "INSERT INTO t VALUES (1)").unwrap();
            assert_eq!(p.next_lsn(), 3);
        }
        let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(
            rec.replay.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(p.next_lsn(), 3);
    }
}
