//! The persistence manager: one database directory, one WAL, a chain of
//! checkpoints, and the recovery procedure that ties them together.
//!
//! On-disk layout of a database directory `DIR/`:
//!
//! ```text
//! DIR/wal.log        — the logical write-ahead log (one frame per commit unit)
//! DIR/checkpoint.N   — catalog snapshots, N strictly increasing
//! ```
//!
//! [`Persistence::open`] recovers: load the newest checkpoint whose CRC
//! validates (older ones are fallbacks), scan the WAL (truncating a torn
//! tail — a unit is one frame, so a torn unit goes whole), and hand back
//! the units with `lsn > covered_lsn` for the caller to replay through the
//! ordinary execution pipeline (a format-1 log's marker-bracketed
//! transactions folded into units first). The session layer owns that
//! pipeline, so this type never parses SQL — it only stores and returns it.

use crate::checkpoint;
use crate::log::{AppendReport, SyncPolicy, Wal, WalRecord};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use storage::Catalog;

/// What one [`Persistence::checkpoint`] did: the owner turns it into its
/// database's checkpoint metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The new checkpoint's sequence number.
    pub seq: u64,
    /// End-to-end latency: sync + encode + reset + prune.
    pub elapsed: Duration,
    /// The latency of the WAL `fsync` it forced, if the log was dirty.
    pub fsync: Option<Duration>,
}

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
    /// WAL units not covered by the checkpoint, in log order — the
    /// caller must replay these through its statement pipeline, in order
    /// and all-or-nothing (`SharedDatabase::open_durable` runs the whole
    /// tail as one transaction). No unit holds a transaction-control
    /// statement: a format-1 log's `BEGIN` … `COMMIT` runs arrive folded
    /// into units, and a run whose `COMMIT` is missing is not here.
    pub replay: Vec<WalRecord>,
    /// Bytes of torn/corrupt WAL tail that were truncated away.
    pub truncated_bytes: u64,
    /// The directory holds a file older than this build's format: a log
    /// below [`crate::log::FORMAT`] or a loaded checkpoint below
    /// [`checkpoint::FORMAT_VERSION`]. The caller must then checkpoint once
    /// the tail has replayed, before it logs anything: that rewrites both
    /// in this build's formats.
    pub outdated: bool,
}

/// An open database directory: the WAL plus checkpoint bookkeeping.
#[derive(Debug)]
pub struct Persistence {
    dir: PathBuf,
    options: PersistenceOptions,
    wal: Wal,
    /// LSN to assign to the next logged commit unit.
    next_lsn: u64,
    /// Sequence number for the next checkpoint file.
    next_checkpoint_seq: u64,
    /// Statements logged since the last checkpoint, the replayed tail's
    /// included.
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
        let (covered_lsn, checkpoint_seq, catalog, cp_format) = match cp_scan.newest_valid {
            Some(cp) => (cp.covered_lsn, Some(cp.seq), Some(cp.catalog), cp.format),
            None => (0, None, None, checkpoint::FORMAT_VERSION),
        };
        let (wal, scan) = Wal::open(&dir.join("wal.log"), options.sync)?;
        // Units at or below the covered LSN are already in the checkpoint
        // (a crash between checkpoint-rename and WAL-reset leaves such
        // units behind; skipping them here makes that window harmless).
        let replay: Vec<WalRecord> = scan
            .records
            .into_iter()
            .filter(|r| r.lsn > covered_lsn)
            .collect();
        // Units are logged with consecutive LSNs, so the tail beyond the
        // checkpoint must start at covered_lsn + 1 and step by one. A gap
        // means acknowledged commits are gone — typically because a
        // *newer* checkpoint (which absorbed them when the WAL was reset)
        // exists but no longer validates. Refusing to open is the only
        // honest answer: replaying across the gap would silently produce
        // a wrong database.
        for (expected, r) in (covered_lsn.saturating_add(1)..).zip(replay.iter()) {
            if r.lsn != expected {
                return Err(format!(
                    "recovery would lose commits: WAL jumps from lsn {expected} to {} \
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
        let last_lsn = replay.last().map(|r| r.lsn).unwrap_or(covered_lsn);
        let since_checkpoint = replay.iter().map(|r| r.stmts.len()).sum();
        let replay = if scan.format == 1 {
            fold_format_1(replay).map_err(|e| {
                format!("format-1 WAL in '{}': {e}; refusing to open", dir.display())
            })?
        } else {
            replay
        };
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
            since_checkpoint,
            poisoned: None,
            invalid_checkpoints: cp_scan.invalid_newer,
            _lock: lock,
        };
        Ok((
            persistence,
            Recovery {
                catalog,
                checkpoint_seq,
                replay,
                truncated_bytes: scan.truncated_bytes,
                outdated: scan.format < crate::log::FORMAT
                    || cp_format < checkpoint::FORMAT_VERSION,
            },
        ))
    }

    /// The LSN the next logged commit unit will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Statements logged since the last checkpoint, counting the tail
    /// [`Persistence::open`] handed back for replay.
    pub fn since_checkpoint(&self) -> usize {
        self.since_checkpoint
    }

    /// Appends one committed transaction as a single atomic commit unit:
    /// its statements in one frame under one LSN, written with **one**
    /// `fsync` under [`SyncPolicy::Always`] — the group-commit path. An
    /// empty transaction logs nothing.
    ///
    /// Contract: call this *before* publishing the transaction's effects
    /// (WAL-ahead of the commit, not of each statement). On an error with
    /// the log rolled back, the commit can be cleanly aborted and
    /// durability is intact — nothing is poisoned. Only a failure that may
    /// have left an unknown frame behind poisons the log (see
    /// [`Persistence::is_poisoned`]); the burned LSN is covered by the
    /// next checkpoint, so it can never replay on top of a snapshot.
    pub fn log_transaction(&mut self, stmts: &[String]) -> Result<AppendReport, String> {
        if stmts.is_empty() {
            return Ok(AppendReport::default());
        }
        if let Some(why) = &self.poisoned {
            return Err(format!(
                "WAL is poisoned by an earlier append failure ({why}); \
                 checkpoint to restore durability"
            ));
        }
        match self.wal.append(self.next_lsn, stmts) {
            Ok(report) => {
                self.next_lsn += 1;
                self.since_checkpoint += stmts.len();
                Ok(report)
            }
            Err(failure) if failure.rolled_back => Err(format!(
                "{}; the transaction is not logged — abort the commit",
                failure.error
            )),
            Err(failure) => {
                // An unknown frame may linger at this LSN; burn it so
                // nothing can ever be logged under it, and poison until a
                // checkpoint re-covers it.
                self.next_lsn += 1;
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
    /// resets the WAL, and prunes old checkpoint files.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<CheckpointReport, String> {
        let started = Instant::now();
        // Everything below next_lsn is either in the WAL (synced below,
        // before the snapshot becomes the recovery source) or already
        // applied to `catalog`; the snapshot covers it all.
        let fsync = self.wal.sync()?;
        let seq = self.next_checkpoint_seq;
        let covered_lsn = self.next_lsn - 1;
        // Returns once the rename is durable (the directory is fsynced): on
        // an error the WAL is left whole and stays the recovery source.
        checkpoint::write_checkpoint(&self.dir, seq, covered_lsn, catalog)?;
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
        Ok(CheckpointReport {
            seq,
            elapsed: started.elapsed(),
            fsync,
        })
    }
}

/// Folds a format-1 tail into commit units. Format 1 logged one statement
/// per record and bracketed a transaction with `BEGIN` and `COMMIT` marker
/// records: each bracketed run becomes one unit of the statements between
/// its markers, under its `COMMIT` marker's LSN, and a trailing run whose
/// `COMMIT` never reached the log is dropped — that transaction never
/// committed. Any other marker (a `ROLLBACK`, a `BEGIN` inside a run, a
/// `COMMIT` outside one) is refused: no format-1 writer logged one.
fn fold_format_1(records: Vec<WalRecord>) -> Result<Vec<WalRecord>, String> {
    let mut units = Vec::with_capacity(records.len());
    let mut open: Option<Vec<String>> = None;
    for WalRecord { lsn, stmts } in records {
        for sql in stmts {
            // Transaction control is a lone keyword, optionally followed
            // by TRANSACTION or WORK; the first word names the marker.
            let word = sql.split_whitespace().next().unwrap_or("");
            let word = word.trim_end_matches(';').to_ascii_uppercase();
            match (word.as_str(), open.as_mut()) {
                ("BEGIN", None) => open = Some(Vec::new()),
                ("COMMIT", Some(_)) => {
                    let stmts = open.take().unwrap_or_default();
                    if !stmts.is_empty() {
                        units.push(WalRecord { lsn, stmts });
                    }
                }
                ("BEGIN" | "COMMIT" | "ROLLBACK", _) => {
                    return Err(format!("unexpected '{sql}' record at lsn {lsn}"))
                }
                (_, Some(run)) => run.push(sql),
                (_, None) => units.push(WalRecord {
                    lsn,
                    stmts: vec![sql],
                }),
            }
        }
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use storage::{row, Schema, SqlType, Table};

    /// A bare statement: a single-statement commit unit.
    fn log_one(p: &mut Persistence, sql: &str) -> Result<(), String> {
        p.log_transaction(&[sql.to_string()]).map(|_| ())
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
        let dir = TestDir::new("persist_empty");
        let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert!(rec.catalog.is_none());
        assert!(rec.replay.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(p.next_lsn(), 1);
    }

    #[test]
    fn wal_only_then_checkpoint_then_tail() {
        let dir = TestDir::new("persist_phases");
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
        let dir = TestDir::new("persist_threshold");
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
        let dir = TestDir::new("persist_threshold_zero");
        let (mut p, _) = Persistence::open(&dir, zero).unwrap();
        for i in 0..100 {
            log_one(&mut p, &format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert!(!p.should_checkpoint(), "0 disables auto-checkpointing");
    }

    #[test]
    fn crash_between_checkpoint_and_wal_reset_is_harmless() {
        let dir = TestDir::new("persist_crash_window");
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
        let dir = TestDir::new("persist_gap");
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
        let dir = TestDir::new("persist_corrupt_empty_wal");
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
        let dir = TestDir::new("persist_corrupt_bridged");
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
        let dir = TestDir::new("persist_lock");
        let first = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        let err = Persistence::open(&dir, PersistenceOptions::default()).unwrap_err();
        assert!(err.contains("locked by another process"), "{err}");
        // Releasing the first opener frees the directory.
        drop(first);
        Persistence::open(&dir, PersistenceOptions::default()).unwrap();
    }

    #[test]
    fn oversized_statement_is_refused_before_writing_and_leaves_the_log_usable() {
        let dir = TestDir::new("persist_oversized");
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

    fn stmts(sqls: &[&str]) -> Vec<String> {
        sqls.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn transaction_units_are_framed_and_singletons_stay_bare() {
        let dir = TestDir::new("persist_txn_frame");
        let txn = stmts(&["INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"]);
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            p.log_transaction(&[]).unwrap(); // empty: nothing logged
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            p.log_transaction(&txn).unwrap();
            assert_eq!(p.next_lsn(), 3, "one LSN per unit");
            assert_eq!(p.since_checkpoint(), 3, "statements, not units");
        }
        let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert_eq!(
            rec.replay,
            vec![
                WalRecord {
                    lsn: 1,
                    stmts: stmts(&["CREATE TABLE t (x INT)"])
                },
                WalRecord { lsn: 2, stmts: txn },
            ]
        );
        assert_eq!(p.since_checkpoint(), 3, "the replayed tail counts");
        assert!(!rec.outdated);
    }

    /// Cutting the last unit's frame at any length loses exactly that
    /// unit — never a part of it — and frees its LSN for the next one.
    #[test]
    fn a_torn_unit_is_discarded_whole_at_every_cut() {
        let dir = TestDir::new("persist_torn_unit");
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
        }
        let wal_path = dir.join("wal.log");
        let base = std::fs::read(&wal_path).unwrap();
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            p.log_transaction(&stmts(&["INSERT INTO t VALUES (1)", "DELETE FROM t"]))
                .unwrap();
        }
        let full = std::fs::read(&wal_path).unwrap();
        for keep in 1..full.len() - base.len() {
            std::fs::write(&wal_path, &full[..base.len() + keep]).unwrap();
            {
                let (mut p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
                let lsns: Vec<u64> = rec.replay.iter().map(|r| r.lsn).collect();
                assert_eq!(lsns, vec![1], "cut at {keep}");
                assert_eq!(rec.truncated_bytes, keep as u64);
                assert_eq!(p.next_lsn(), 2);
                log_one(&mut p, "INSERT INTO t VALUES (9)").unwrap();
            }
            let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            let tail: Vec<&[String]> = rec.replay.iter().map(|r| &r.stmts[..]).collect();
            assert_eq!(
                tail,
                vec![
                    &stmts(&["CREATE TABLE t (x INT)"])[..],
                    &stmts(&["INSERT INTO t VALUES (9)"])[..]
                ],
                "cut at {keep}"
            );
        }
    }

    #[test]
    fn tearing_inside_a_transaction_body_discards_back_to_its_begin() {
        let dir = TestDir::new("persist_torn_body");
        let first = stmts(&["INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"]);
        {
            let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
            log_one(&mut p, "CREATE TABLE t (x INT)").unwrap();
            // A committed unit, then a second unit torn mid-body.
            p.log_transaction(&first).unwrap();
            p.log_transaction(&stmts(&[
                "INSERT INTO t VALUES (3)",
                "INSERT INTO t VALUES (4)",
            ]))
            .unwrap();
        }
        let wal_path = dir.join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        // Chop into the second unit's first statement: its frame is
        // 8 + 8 + 2 × 28 = 72 bytes long.
        std::fs::write(&wal_path, &full[..full.len() - 60]).unwrap();
        let (_, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        let tail: Vec<&Vec<String>> = rec.replay.iter().map(|r| &r.stmts).collect();
        assert_eq!(
            tail,
            vec![&stmts(&["CREATE TABLE t (x INT)"]), &first],
            "the committed unit survives; the torn one is gone entirely"
        );
        assert_eq!(rec.truncated_bytes, 12);
    }

    #[test]
    fn lsns_stay_monotonic_across_checkpoints_and_restarts() {
        let dir = TestDir::new("persist_monotonic");
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

    /// Writes `dir/wal.log` in format 1: one `[lsn][sql]` frame per
    /// record, LSNs from 1.
    fn write_format_1_log(dir: &Path, records: &[&str]) {
        std::fs::create_dir_all(dir).unwrap();
        let mut bytes = b"SNAPWAL\x01".to_vec();
        for (lsn, sql) in (1u64..).zip(records) {
            let mut payload = crate::codec::Writer::new();
            payload.put_u64(lsn);
            payload.put_str(sql);
            let payload = payload.into_bytes();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(dir.join("wal.log"), bytes).unwrap();
    }

    /// A format-1 `BEGIN` … `COMMIT` run reads as one unit of the
    /// statements between its markers; a trailing run whose `COMMIT` is
    /// missing never committed and is dropped, though its LSNs stay used.
    #[test]
    fn a_format_1_transaction_reads_as_one_unit_and_a_torn_run_is_dropped() {
        let dir = TestDir::new("persist_format_1_fold");
        write_format_1_log(
            &dir,
            &[
                "CREATE TABLE t (x INT)",
                "BEGIN",
                "INSERT INTO t VALUES (1)",
                "DELETE FROM t WHERE x = 0",
                "COMMIT",
                "INSERT INTO t VALUES (2)",
                "BEGIN",
                "INSERT INTO t VALUES (3)",
            ],
        );
        let (p, rec) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        assert!(rec.outdated);
        assert_eq!(
            rec.replay,
            vec![
                WalRecord {
                    lsn: 1,
                    stmts: stmts(&["CREATE TABLE t (x INT)"])
                },
                WalRecord {
                    lsn: 5,
                    stmts: stmts(&["INSERT INTO t VALUES (1)", "DELETE FROM t WHERE x = 0"])
                },
                WalRecord {
                    lsn: 6,
                    stmts: stmts(&["INSERT INTO t VALUES (2)"])
                },
            ]
        );
        assert_eq!(p.next_lsn(), 9, "the dropped run's LSNs are not reused");
    }

    /// A marker no format-1 writer logged is refused, not guessed at.
    #[test]
    fn a_format_1_log_with_a_stray_marker_is_refused() {
        for (name, records) in [
            (
                "rollback",
                &["BEGIN", "INSERT INTO t VALUES (1)", "ROLLBACK"][..],
            ),
            ("nested", &["BEGIN", "BEGIN", "COMMIT"][..]),
            ("unopened", &["INSERT INTO t VALUES (1)", "COMMIT"][..]),
        ] {
            let dir = TestDir::new(&format!("persist_format_1_{name}"));
            write_format_1_log(&dir, records);
            let err = Persistence::open(&dir, PersistenceOptions::default()).unwrap_err();
            assert!(err.contains("unexpected"), "{name}: {err}");
            assert!(err.contains("refusing to open"), "{name}: {err}");
        }
    }
}
