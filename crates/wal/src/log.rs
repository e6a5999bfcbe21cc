//! The logical write-ahead log: length- and CRC-framed statement records.
//!
//! The log is *logical*: each record is one successfully validated DDL/DML
//! statement (its SQL text plus a monotonically increasing LSN), replayed
//! through the ordinary parse → bind → execute pipeline on recovery. The
//! file layout is
//!
//! ```text
//! [8-byte magic "SNAPWAL\x01"]
//! repeated: [payload_len: u32][crc32(payload): u32][payload]
//!           payload = [lsn: u64][sql: len-prefixed string]
//! ```
//!
//! Reading stops at the first frame that is truncated, fails its CRC, or
//! decodes to a non-increasing LSN — the *torn tail*. [`Wal::open`]
//! truncates the file back to the valid prefix, so a crash mid-append
//! costs at most the statement being written, never the log.

use crate::codec::{Reader, Writer};
use crate::crc::crc32;
use snapshot_obs as obs;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The WAL file's magic header.
pub const WAL_MAGIC: &[u8; 8] = b"SNAPWAL\x01";

/// Upper bound on one frame's payload (a defense against interpreting
/// corrupt length fields as multi-gigabyte allocations).
const MAX_PAYLOAD: u32 = 1 << 28;

/// When to force appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: a statement reported as
    /// executed survives any crash (the default).
    #[default]
    Always,
    /// `fsync` only when a checkpoint is written (and on clean shutdown):
    /// much cheaper per statement, but statements since the last sync can
    /// be lost to a power failure — never to a clean process exit.
    OnCheckpoint,
}

/// What one successful append did: the log's owner turns it into its
/// database's WAL metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendReport {
    /// Frames appended.
    pub frames: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Append latency: the write plus any immediate sync.
    pub elapsed: Duration,
    /// The `fsync` latency, when the append synced ([`SyncPolicy::Always`]).
    pub fsync: Option<Duration>,
}

/// Why a [`Wal::append`] failed, and whether the log was restored to its
/// pre-append state.
#[derive(Debug)]
pub struct AppendFailure {
    /// The underlying error.
    pub error: String,
    /// `true` when the log holds exactly what it held before the failed
    /// append. `false` means an unknown — possibly complete — frame may
    /// remain at the failed LSN; the caller must not reuse that LSN.
    pub rolled_back: bool,
}

/// One recovered WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (strictly increasing across the log's life,
    /// surviving checkpoint truncation).
    pub lsn: u64,
    /// The statement text, exactly as logged.
    pub sql: String,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalScan {
    /// The valid record prefix, in log order.
    pub records: Vec<WalRecord>,
    /// For each record, the absolute file offset of its first byte —
    /// `record_starts[i]` is where record `i`'s frame begins. Recovery uses
    /// this to truncate the log back to a *record* boundary (discarding an
    /// uncommitted transaction suffix), not just a frame-validity boundary.
    pub record_starts: Vec<u64>,
    /// How many bytes of torn/corrupt tail were truncated away (0 for a
    /// clean log).
    pub truncated_bytes: u64,
}

/// An open write-ahead log (append handle plus sync policy).
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    /// Whether appends since the last fsync are pending (OnCheckpoint).
    dirty: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans it, truncates
    /// any torn tail, and returns the log plus the valid records.
    pub fn open(path: &Path, sync: SyncPolicy) -> Result<(Wal, WalScan), String> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot open WAL '{}': {e}", path.display()))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read WAL '{}': {e}", path.display()))?;

        // Refuse anything that is not ours: a full header with the wrong
        // magic, or a short file that is not a prefix of our magic (a
        // short *prefix* can only be our own torn header write and is
        // safe to rewrite; any other content is someone else's file).
        let head_len = bytes.len().min(WAL_MAGIC.len());
        let is_ours = matches!(
            (bytes.get(..head_len), WAL_MAGIC.get(..head_len)),
            (Some(head), Some(magic)) if head == magic
        );
        if !is_ours {
            return Err(format!(
                "'{}' is not a snapshot_wal log (bad magic)",
                path.display()
            ));
        }
        let (records, record_starts, valid_len) = if bytes.len() < WAL_MAGIC.len() {
            // Empty or torn mid-header: rewrite the header.
            file.set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .and_then(|()| file.write_all(WAL_MAGIC))
                .and_then(|()| file.sync_all())
                .map_err(|e| format!("cannot initialize WAL '{}': {e}", path.display()))?;
            (Vec::new(), Vec::new(), WAL_MAGIC.len() as u64)
        } else {
            let (records, starts, valid_len) =
                scan_frames(bytes.get(WAL_MAGIC.len()..).unwrap_or(&[]));
            let starts = starts
                .into_iter()
                .map(|s| WAL_MAGIC.len() as u64 + s)
                .collect();
            (records, starts, WAL_MAGIC.len() as u64 + valid_len)
        };

        let truncated_bytes = (bytes.len() as u64).saturating_sub(valid_len);
        if truncated_bytes > 0 {
            file.set_len(valid_len)
                .and_then(|()| file.sync_all())
                .map_err(|e| format!("cannot truncate torn WAL tail: {e}"))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("cannot seek WAL: {e}"))?;
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                sync,
                dirty: false,
            },
            WalScan {
                records,
                record_starts,
                truncated_bytes,
            },
        ))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record; under [`SyncPolicy::Always`] the record is on
    /// stable storage when this returns. On failure, the log is rolled
    /// back to its pre-append length when possible (see
    /// [`AppendFailure::rolled_back`]), so no half-appended or
    /// written-but-unsynced frame can linger at the tail unnoticed.
    pub fn append(&mut self, lsn: u64, sql: &str) -> Result<AppendReport, AppendFailure> {
        self.append_batch(lsn, &[sql])
    }

    /// Appends a *batch* of records as one write and (under
    /// [`SyncPolicy::Always`]) one `fsync` — the group-commit path: a
    /// transaction's statements reach stable storage together, at the cost
    /// of a single sync instead of one per statement. LSNs are assigned
    /// consecutively starting at `first_lsn`. On failure the log is rolled
    /// back to its pre-batch length when possible; `rolled_back == false`
    /// means an unknown number of the batch's frames may remain, and the
    /// caller must not reuse *any* of the batch's LSNs.
    pub fn append_batch(
        &mut self,
        first_lsn: u64,
        sqls: &[&str],
    ) -> Result<AppendReport, AppendFailure> {
        let _span = obs::Span::enter("wal.append");
        let append_started = Instant::now();
        let mut batch = Writer::new();
        for (i, sql) in sqls.iter().enumerate() {
            let mut payload = Writer::new();
            payload.put_u64(first_lsn + i as u64);
            payload.put_str(sql);
            let payload = payload.into_bytes();
            // Recovery treats frames over MAX_PAYLOAD as corrupt length
            // fields; writing one would get the batch acknowledged now and
            // silently truncated away on the next open. Refuse up front,
            // before anything touches the file.
            if payload.len() as u64 > MAX_PAYLOAD as u64 {
                return Err(AppendFailure {
                    error: format!(
                        "statement of {} bytes exceeds the WAL frame limit of {MAX_PAYLOAD} bytes",
                        payload.len()
                    ),
                    rolled_back: true, // nothing was written
                });
            }
            batch.put_u32(payload.len() as u32);
            batch.put_u32(crc32(&payload));
            batch.put_raw(&payload);
        }
        let before = match self.file.metadata() {
            Ok(m) => m.len(),
            Err(e) => {
                return Err(AppendFailure {
                    error: format!("cannot stat WAL before append: {e}"),
                    rolled_back: true, // nothing was written
                });
            }
        };
        let batch = batch.into_bytes();
        let batch_len = batch.len() as u64;
        let result = self
            .file
            .write_all(&batch)
            .map_err(|e| format!("cannot append to WAL: {e}"));
        let result = result.and_then(|()| match self.sync {
            SyncPolicy::Always => self.fsync().map(Some),
            SyncPolicy::OnCheckpoint => {
                self.dirty = true;
                Ok(None)
            }
        });
        match result {
            Ok(fsync) => Ok(AppendReport {
                frames: sqls.len() as u64,
                bytes: batch_len,
                elapsed: append_started.elapsed(),
                fsync,
            }),
            Err(error) => {
                let rolled_back = self
                    .file
                    .set_len(before)
                    .and_then(|()| self.file.seek(SeekFrom::Start(before)).map(|_| ()))
                    .is_ok();
                Err(AppendFailure { error, rolled_back })
            }
        }
    }

    /// Truncates the log to `offset` bytes (a record boundary the caller
    /// took from [`WalScan::record_starts`]) — recovery's tool for
    /// discarding an uncommitted transaction suffix so it can never be
    /// replayed, or extended into a wrong replay, by a later open.
    ///
    /// `offset` must not be before the magic header.
    pub fn truncate_to(&mut self, offset: u64) -> Result<(), String> {
        if offset < WAL_MAGIC.len() as u64 {
            return Err(format!(
                "refusing to truncate WAL into its header (offset {offset})"
            ));
        }
        self.file
            .set_len(offset)
            .and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()))
            .and_then(|()| self.file.sync_all())
            .map_err(|e| format!("cannot truncate WAL to {offset} bytes: {e}"))
    }

    /// Forces buffered appends to stable storage; returns the `fsync`
    /// latency when there was anything to sync.
    pub fn sync(&mut self) -> Result<Option<Duration>, String> {
        if !self.dirty {
            return Ok(None);
        }
        let took = self.fsync()?;
        self.dirty = false;
        Ok(Some(took))
    }

    fn fsync(&mut self) -> Result<Duration, String> {
        let _span = obs::Span::enter("wal.fsync");
        let started = Instant::now();
        self.file
            .sync_all()
            .map_err(|e| format!("cannot sync WAL: {e}"))?;
        Ok(started.elapsed())
    }

    /// Resets the log to its empty (header-only) state — called after a
    /// checkpoint has captured everything the log held.
    pub fn reset(&mut self) -> Result<(), String> {
        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()))
            .and_then(|()| self.file.sync_all())
            .map_err(|e| format!("cannot reset WAL: {e}"))?;
        self.dirty = false;
        Ok(())
    }
}

impl Drop for Wal {
    /// Best-effort final sync, so a clean exit under
    /// [`SyncPolicy::OnCheckpoint`] loses nothing.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// Reads a little-endian `u32` at `pos`, `None` when out of bounds.
fn le_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let word: [u8; 4] = bytes.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(word))
}

/// Parses frames from `body` (the file minus its magic header). Returns
/// the valid records, each record's start offset *within* `body`, and the
/// byte length of the valid prefix; parsing stops at the first truncated
/// frame, CRC mismatch, malformed payload, or non-increasing LSN.
fn scan_frames(body: &[u8]) -> (Vec<WalRecord>, Vec<u64>, u64) {
    let mut records = Vec::new();
    let mut starts = Vec::new();
    let mut pos = 0usize;
    let mut last_lsn: Option<u64> = None;
    while let (Some(len), Some(crc)) = (le_u32_at(body, pos), le_u32_at(body, pos + 4)) {
        if len > MAX_PAYLOAD {
            break; // corrupt length field
        }
        let Some(payload) = body.get(pos + 8..pos + 8 + len as usize) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // bit rot or torn write inside the payload
        }
        let mut r = Reader::new(payload);
        let Ok(lsn) = r.get_u64() else { break };
        let Ok(sql) = r.get_str() else { break };
        if !r.is_empty() || last_lsn.is_some_and(|prev| lsn <= prev) {
            break; // trailing garbage in payload, or LSN went backwards
        }
        last_lsn = Some(lsn);
        records.push(WalRecord { lsn, sql });
        starts.push(pos as u64);
        pos += 8 + len as usize;
    }
    (records, starts, pos as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snapshot_wal_test_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_and_rescan() {
        let path = tmp_path("append");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
            assert!(scan.records.is_empty());
            wal.append(1, "CREATE TABLE t (x INT)").unwrap();
            wal.append(2, "INSERT INTO t VALUES (1)").unwrap();
        }
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.records,
            vec![
                WalRecord {
                    lsn: 1,
                    sql: "CREATE TABLE t (x INT)".into()
                },
                WalRecord {
                    lsn: 2,
                    sql: "INSERT INTO t VALUES (1)".into()
                },
            ]
        );
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(1, "INSERT INTO t VALUES (1)").unwrap();
            wal.append(2, "INSERT INTO t VALUES (2)").unwrap();
        }
        // Simulate a torn write: chop the final record mid-frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].lsn, 1);
        assert!(scan.truncated_bytes > 0);
        // The truncation is persistent: a rescan is clean.
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn bit_flip_truncates_from_the_flip() {
        let path = tmp_path("flip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(1, "INSERT INTO t VALUES (1)").unwrap();
            wal.append(2, "INSERT INTO t VALUES (2)").unwrap();
            wal.append(3, "INSERT INTO t VALUES (3)").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the second record's payload.
        let second_start = WAL_MAGIC.len() + 8 + (bytes.len() - WAL_MAGIC.len()) / 3;
        bytes[second_start] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1, "only the first record survives");
        assert_eq!(scan.records[0].lsn, 1);
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"PK\x03\x04 definitely not a wal").unwrap();
        assert!(Wal::open(&path, SyncPolicy::Always)
            .unwrap_err()
            .contains("bad magic"));
        // A *short* foreign file must be refused too, not clobbered.
        std::fs::write(&path, b"hi").unwrap();
        assert!(Wal::open(&path, SyncPolicy::Always)
            .unwrap_err()
            .contains("bad magic"));
        assert_eq!(std::fs::read(&path).unwrap(), b"hi");
        // A short *prefix of our magic* is our own torn header write:
        // rewritten in place.
        std::fs::write(&path, &WAL_MAGIC[..4]).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert!(scan.records.is_empty());
    }

    #[test]
    fn batch_append_is_one_contiguous_unit() {
        let path = tmp_path("batch");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(1, "CREATE TABLE t (x INT)").unwrap();
            wal.append_batch(2, &["BEGIN", "INSERT INTO t VALUES (1)", "COMMIT"])
                .unwrap();
        }
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(
            scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(scan.records[1].sql, "BEGIN");
        assert_eq!(scan.records[3].sql, "COMMIT");
        // Offsets point at record boundaries: truncating to a start
        // offset removes that record and everything after it.
        assert_eq!(scan.record_starts.len(), 4);
        assert_eq!(scan.record_starts[0], WAL_MAGIC.len() as u64);
        let (mut wal, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.truncate_to(scan.record_starts[1]).unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(
            scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(scan.truncated_bytes, 0, "clean cut at a boundary");
    }

    #[test]
    fn oversized_batch_statement_is_refused_before_writing() {
        let path = tmp_path("batch_oversized");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.append(1, "INSERT INTO t VALUES (0)").unwrap();
        let huge = "x".repeat((1 << 28) + 1);
        let err = wal
            .append_batch(2, &["BEGIN", &huge, "COMMIT"])
            .unwrap_err();
        assert!(err.error.contains("frame limit"), "{}", err.error);
        assert!(err.rolled_back, "nothing may have been written");
        drop(wal);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1, "log unchanged by the refused batch");
    }

    #[test]
    fn reset_empties_the_log_but_monotonic_lsns_continue() {
        let path = tmp_path("reset");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
        wal.append(1, "INSERT INTO t VALUES (1)").unwrap();
        wal.reset().unwrap();
        wal.append(7, "INSERT INTO t VALUES (2)").unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].lsn, 7);
    }
}
