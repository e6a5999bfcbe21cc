//! The logical write-ahead log: length- and CRC-framed commit units.
//!
//! The log is *logical*: each frame is one commit unit — the SQL text of
//! the statements one transaction wrote, under one monotonically
//! increasing LSN — replayed through the ordinary parse → bind → execute
//! pipeline on recovery. The file layout (format 2; the magic's last byte
//! is the format version) is
//!
//! ```text
//! [8-byte magic "SNAPWAL\x02"]
//! repeated: [payload_len: u32][crc32(payload): u32][payload]
//!           payload = [lsn: u64][sql: len-prefixed string]+
//! ```
//!
//! A format-1 frame, `[lsn][sql]`, is a unit of one statement, so one
//! scanner reads both formats. Reading stops at the first frame that is
//! truncated, fails its CRC, holds no statement or bytes that do not
//! decode, or has a non-increasing LSN — the *torn tail*. [`Wal::open`]
//! truncates the file back to the valid prefix, so a crash mid-append
//! costs at most the unit being written, whole, never the log.

use crate::codec::{Reader, Writer};
use crate::crc::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The WAL file's magic header; its last byte is the format version.
pub const WAL_MAGIC: &[u8; 8] = b"SNAPWAL\x02";

/// The format version this build writes (the last byte of [`WAL_MAGIC`]);
/// it reads this one and format 1.
pub const FORMAT: u8 = 2;

/// Upper bound on one frame's payload — a whole commit unit's SQL text (a
/// defense against interpreting corrupt length fields as multi-gigabyte
/// allocations).
const MAX_PAYLOAD: u32 = 1 << 28;

/// When to force appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended unit: a commit reported as done
    /// survives any crash (the default).
    #[default]
    Always,
    /// `fsync` only when a checkpoint is written (and on clean shutdown):
    /// much cheaper per commit, but commits since the last sync can be
    /// lost to a power failure — never to a clean process exit.
    OnCheckpoint,
}

/// What one successful append did: the log's owner turns it into its
/// database's WAL metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendReport {
    /// Bytes appended (one frame; 0 when nothing was).
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

/// One recovered commit unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (strictly increasing across the log's life,
    /// surviving checkpoint truncation).
    pub lsn: u64,
    /// The unit's statements, exactly as logged (never empty).
    pub stmts: Vec<String>,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalScan {
    /// The valid unit prefix, in log order.
    pub records: Vec<WalRecord>,
    /// How many bytes of torn/corrupt tail were truncated away (0 for a
    /// clean log).
    pub truncated_bytes: u64,
    /// The log's format version, as its header named it.
    pub format: u8,
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
    /// any torn tail, and returns the log plus the valid units.
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

        // Refuse anything that is not ours: a full header that does not
        // name a format this build reads, or a short file that is not a
        // prefix of our magic (a short *prefix* can only be our own torn
        // header write and is safe to rewrite; any other content is
        // someone else's file).
        let head = bytes.get(..WAL_MAGIC.len()).unwrap_or(bytes.as_slice());
        let format = match head {
            [stem @ .., version]
                if head.len() == WAL_MAGIC.len()
                    && WAL_MAGIC.starts_with(stem)
                    && (1..=FORMAT).contains(version) =>
            {
                Some(*version)
            }
            _ if WAL_MAGIC.starts_with(head) => None,
            _ => {
                return Err(format!(
                    "'{}' is not a snapshot_wal log (bad magic)",
                    path.display()
                ))
            }
        };
        let (records, valid_len) = match format {
            // Empty or torn mid-header: rewrite the header.
            None => {
                file.set_len(0)
                    .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                    .and_then(|()| file.write_all(WAL_MAGIC))
                    .and_then(|()| file.sync_all())
                    .map_err(|e| format!("cannot initialize WAL '{}': {e}", path.display()))?;
                (Vec::new(), WAL_MAGIC.len() as u64)
            }
            Some(_) => {
                let (records, valid_len) = scan_frames(bytes.get(WAL_MAGIC.len()..).unwrap_or(&[]));
                (records, WAL_MAGIC.len() as u64 + valid_len)
            }
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
                truncated_bytes,
                format: format.unwrap_or(FORMAT),
            },
        ))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one commit unit — `stmts` under one LSN — as one frame:
    /// one write and, under [`SyncPolicy::Always`], one `fsync`, after
    /// which the unit is on stable storage. Recovery reads a frame whole
    /// or not at all, so a unit can never replay in part. On failure, the
    /// log is rolled back to its pre-append length when possible (see
    /// [`AppendFailure::rolled_back`]), so no half-appended or
    /// written-but-unsynced frame can linger at the tail unnoticed.
    pub fn append(&mut self, lsn: u64, stmts: &[String]) -> Result<AppendReport, AppendFailure> {
        let append_started = Instant::now();
        let mut payload = Writer::new();
        payload.put_u64(lsn);
        for sql in stmts {
            payload.put_str(sql);
        }
        let payload = payload.into_bytes();
        // Recovery treats an empty unit or a frame over MAX_PAYLOAD as the
        // end of the valid prefix; writing one would get the unit
        // acknowledged now and silently truncated away on the next open.
        // Refuse up front, before anything touches the file.
        if stmts.is_empty() || payload.len() as u64 > MAX_PAYLOAD as u64 {
            return Err(AppendFailure {
                error: format!(
                    "commit unit of {} statement(s) and {} bytes is outside the WAL frame \
                     limit (1 or more statements in at most {MAX_PAYLOAD} bytes)",
                    stmts.len(),
                    payload.len()
                ),
                rolled_back: true, // nothing was written
            });
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
        let mut frame = Writer::new();
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32(&payload));
        frame.put_raw(&payload);
        let frame = frame.into_bytes();
        let result = self
            .file
            .write_all(&frame)
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
                bytes: frame.len() as u64,
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
        let started = Instant::now();
        self.file
            .sync_all()
            .map_err(|e| format!("cannot sync WAL: {e}"))?;
        Ok(started.elapsed())
    }

    /// Resets the log to an empty log in this build's format (header
    /// only) — called after a checkpoint has captured everything the log
    /// held, which is how a format-1 log is upgraded.
    pub fn reset(&mut self) -> Result<(), String> {
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(WAL_MAGIC))
            .and_then(|()| self.file.set_len(WAL_MAGIC.len() as u64))
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
/// the valid units and the byte length of the valid prefix; parsing stops
/// at the first truncated frame, CRC mismatch, malformed or empty
/// payload, or non-increasing LSN.
fn scan_frames(body: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut pos = 0usize;
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
        let Some(unit) = decode_unit(payload) else {
            break;
        };
        if records.last().is_some_and(|prev| unit.lsn <= prev.lsn) {
            break; // LSN went backwards
        }
        records.push(unit);
        pos += 8 + len as usize;
    }
    (records, pos as u64)
}

/// Decodes one frame's payload; `None` when it holds no statement or ends
/// in bytes that are not a whole statement.
fn decode_unit(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    let lsn = r.get_u64().ok()?;
    let mut stmts = Vec::new();
    while !r.is_empty() {
        stmts.push(r.get_str().ok()?);
    }
    (!stmts.is_empty()).then_some(WalRecord { lsn, stmts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use proptest::prelude::*;

    /// A fresh log path, inside the guard that removes its directory.
    fn tmp_path(name: &str) -> (TestDir, PathBuf) {
        let dir = TestDir::new(&format!("log_{name}"));
        let path = dir.join("wal.log");
        (dir, path)
    }

    fn unit(stmts: &[&str]) -> Vec<String> {
        stmts.iter().map(|s| s.to_string()).collect()
    }

    fn lsns(scan: &WalScan) -> Vec<u64> {
        scan.records.iter().map(|r| r.lsn).collect()
    }

    /// The frame ends of a log, walked by length field alone.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut at = WAL_MAGIC.len();
        while at < bytes.len() {
            at += 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            ends.push(at);
        }
        ends
    }

    #[test]
    fn append_and_rescan() {
        let (_dir, path) = tmp_path("append");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
            assert!(scan.records.is_empty());
            assert_eq!(scan.format, FORMAT);
            wal.append(1, &unit(&["CREATE TABLE t (x INT)"])).unwrap();
            wal.append(2, &unit(&["INSERT INTO t VALUES (1)"])).unwrap();
        }
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.records,
            vec![
                WalRecord {
                    lsn: 1,
                    stmts: unit(&["CREATE TABLE t (x INT)"])
                },
                WalRecord {
                    lsn: 2,
                    stmts: unit(&["INSERT INTO t VALUES (1)"])
                },
            ]
        );
    }

    #[test]
    fn torn_tail_is_truncated() {
        let (_dir, path) = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(1, &unit(&["INSERT INTO t VALUES (1)"])).unwrap();
            wal.append(2, &unit(&["INSERT INTO t VALUES (2)"])).unwrap();
        }
        // Simulate a torn write: chop the final unit mid-frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(lsns(&scan), vec![1]);
        assert!(scan.truncated_bytes > 0);
        // The truncation is persistent: a rescan is clean.
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn bit_flip_truncates_from_the_flip() {
        let (_dir, path) = tmp_path("flip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            for lsn in 1..=3 {
                wal.append(lsn, &unit(&[&format!("INSERT INTO t VALUES ({lsn})")]))
                    .unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the second unit's payload.
        let second_start = WAL_MAGIC.len() + 8 + (bytes.len() - WAL_MAGIC.len()) / 3;
        bytes[second_start] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(lsns(&scan), vec![1], "only the first unit survives");
    }

    #[test]
    fn foreign_file_is_refused() {
        let (_dir, path) = tmp_path("foreign");
        std::fs::write(&path, b"PK\x03\x04 definitely not a wal").unwrap();
        assert!(Wal::open(&path, SyncPolicy::Always)
            .unwrap_err()
            .contains("bad magic"));
        // A format this build does not know is not ours either.
        std::fs::write(&path, b"SNAPWAL\x03").unwrap();
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
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
    }

    #[test]
    fn batch_append_is_one_contiguous_unit() {
        let (_dir, path) = tmp_path("batch");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(1, &unit(&["CREATE TABLE t (x INT)"])).unwrap();
            let report = wal
                .append(
                    2,
                    &unit(&["INSERT INTO t VALUES (1)", "DELETE FROM t WHERE x = 0"]),
                )
                .unwrap();
            assert!(report.fsync.is_some(), "one unit, one fsync");
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(frame_ends(&bytes).len(), 2, "one frame per unit");
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(lsns(&scan), vec![1, 2], "one LSN per unit");
        assert_eq!(
            scan.records[1].stmts,
            unit(&["INSERT INTO t VALUES (1)", "DELETE FROM t WHERE x = 0"])
        );
    }

    #[test]
    fn oversized_batch_statement_is_refused_before_writing() {
        let (_dir, path) = tmp_path("batch_oversized");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.append(1, &unit(&["INSERT INTO t VALUES (0)"])).unwrap();
        // The limit bounds the whole unit: two statements that each fit
        // do not fit together.
        let half = "x".repeat(1 << 27);
        for stmts in [vec![half.clone(), half], vec![]] {
            let err = wal.append(2, &stmts).unwrap_err();
            assert!(err.error.contains("frame limit"), "{}", err.error);
            assert!(err.rolled_back, "nothing may have been written");
        }
        drop(wal);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(lsns(&scan), vec![1], "log unchanged by the refused units");
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn reset_empties_the_log_but_monotonic_lsns_continue() {
        let (_dir, path) = tmp_path("reset");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
        wal.append(1, &unit(&["INSERT INTO t VALUES (1)"])).unwrap();
        wal.reset().unwrap();
        wal.append(7, &unit(&["INSERT INTO t VALUES (2)"])).unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(lsns(&scan), vec![7]);
    }

    /// A format-1 log is one statement per frame (`[lsn][sql]`): the
    /// scanner reads it as units of one, and a reset rewrites it as an
    /// empty log in this build's format.
    #[test]
    fn a_format_1_log_reads_as_units_of_one_and_a_reset_upgrades_it() {
        let (_dir, path) = tmp_path("format_1");
        let mut bytes = b"SNAPWAL\x01".to_vec();
        for (lsn, sql) in [
            (4u64, "BEGIN"),
            (5, "INSERT INTO t VALUES (1)"),
            (6, "COMMIT"),
        ] {
            let mut payload = Writer::new();
            payload.put_u64(lsn);
            payload.put_str(sql);
            let payload = payload.into_bytes();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.format, 1);
        assert_eq!(lsns(&scan), vec![4, 5, 6]);
        assert_eq!(scan.records[2].stmts, unit(&["COMMIT"]));
        wal.reset().unwrap();
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        let (_, scan) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scan.format, FORMAT);
    }

    /// Statement texts for the hostile-bytes property: empty, ASCII, and
    /// multi-byte UTF-8.
    const TEXTS: &[&str] = &[
        "",
        "INSERT INTO t VALUES (1)",
        "UPDATE works SET skill = 'Ärger' WHERE name = 'Zoë'",
        "DELETE FROM t WHERE name = '時間 🕰'",
        "CREATE TABLE t (x INT)",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One mutation of a valid log, past its header or in it: `open`
        /// never panics, a damaged header is "bad magic", and anything else
        /// recovers exactly the units before the first damaged frame.
        #[test]
        fn prop_hostile_bytes_recover_a_prefix_of_the_units_written(
            shape in proptest::collection::vec(
                proptest::collection::vec(0..TEXTS.len(), 1..5),
                1..6,
            ),
            kind in 0u8..6,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
        ) {
            let units: Vec<Vec<String>> = shape
                .iter()
                .map(|u| u.iter().map(|&i| TEXTS[i].to_string()).collect())
                .collect();
            let (_dir, path) = tmp_path("hostile");
            let _ = std::fs::remove_file(&path);
            {
                let (mut wal, _) = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
                for (lsn, stmts) in (1..).zip(&units) {
                    wal.append(lsn, stmts).unwrap();
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            let ends = frame_ends(&bytes);
            let starts: Vec<usize> = std::iter::once(WAL_MAGIC.len())
                .chain(ends.iter().copied())
                .collect();
            let body = (bytes.len() - WAL_MAGIC.len()) as u64;
            // The frame `at` lands in: everything from it on is lost.
            let frame_of = |at: usize| ends.iter().position(|&end| at < end).unwrap();
            let i = (a % units.len() as u64) as usize; // a frame to damage
            let len_at = starts[i];
            let kept = match kind {
                // A bit flip anywhere past the header.
                0 => {
                    let at = WAL_MAGIC.len() + (a % body) as usize;
                    bytes[at] ^= 1 << (b % 8);
                    frame_of(at)
                }
                // Truncation at any length past the header.
                1 => {
                    let keep = WAL_MAGIC.len() + (a % body) as usize;
                    bytes.truncate(keep);
                    ends.iter().filter(|&&end| end <= keep).count()
                }
                // A length field inflated past the end of the file...
                2 => {
                    let past = (bytes.len() - len_at - 8) as u64 + 1 + b % 1024;
                    bytes[len_at..len_at + 4].copy_from_slice(&(past as u32).to_le_bytes());
                    i
                }
                // ...or past the frame limit.
                3 => {
                    let huge = MAX_PAYLOAD + 1 + (b % u64::from(u32::MAX - MAX_PAYLOAD)) as u32;
                    bytes[len_at..len_at + 4].copy_from_slice(&huge.to_le_bytes());
                    i
                }
                // The file cut between two of the frame's statements.
                4 => {
                    let n = units[i].len();
                    let whole = (b % n as u64) as usize;
                    let cut = len_at + 16 + units[i][..whole].iter().map(|s| 4 + s.len()).sum::<usize>();
                    bytes.truncate(cut);
                    i
                }
                // A frame whose CRC is right but whose payload holds no
                // statement, or stops inside one.
                _ => {
                    let n = units[i].len();
                    let whole = (b % n as u64) as usize;
                    let mut payload = bytes[len_at + 8..len_at + 16].to_vec();
                    for s in &units[i][..whole] {
                        payload.extend_from_slice(&bytes[len_at + 8 + payload.len()..][..4 + s.len()]);
                    }
                    let next = 4 + units[i][whole].len();
                    let part = if whole == 0 { (a % next as u64) as usize } else { 1 + (a % (next as u64 - 1)) as usize };
                    payload.extend_from_slice(&bytes[len_at + 8 + payload.len()..][..part]);
                    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
                    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
                    frame.extend_from_slice(&payload);
                    bytes.splice(len_at..ends[i], frame);
                    i
                }
            };
            std::fs::write(&path, &bytes).unwrap();
            let (_, scan) = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
            let got: Vec<&Vec<String>> = scan.records.iter().map(|r| &r.stmts).collect();
            let want: Vec<&Vec<String>> = units[..kept].iter().collect();
            prop_assert_eq!(got, want, "mutation {} of {:?}", kind, shape);
            prop_assert_eq!(lsns(&scan), (1..=kept as u64).collect::<Vec<_>>());
            // What was cut off stays cut off.
            let (_, rescan) = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
            prop_assert_eq!(rescan.records.len(), kept);
            prop_assert_eq!(rescan.truncated_bytes, 0);

            // A flip inside the header names the file as foreign.
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[(a % 8) as usize] ^= 1 << (b % 8);
            std::fs::write(&path, &bytes).unwrap();
            let err = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap_err();
            prop_assert!(err.contains("bad magic"), "{}", err);
        }
    }
}
