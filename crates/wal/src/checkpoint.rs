//! Checkpoint files: durable snapshots of the full catalog.
//!
//! A checkpoint `DIR/checkpoint.N` holds the complete
//! [`storage::Catalog`] — each table's schema, period pair and rows — plus
//! the LSN up to which the WAL is *covered* (already reflected in the
//! snapshot). The file layout is
//!
//! ```text
//! [8-byte magic "SNAPCKPT"][format version: u32][crc32(body): u32]
//! [body_len: u64][body]
//! body  = [seq: u64][covered_lsn: u64][tables: u32] table*
//! table = [name: str][row header][blocks: varint] column block*
//! ```
//!
//! A table rests in the layout the wire protocol streams a result in
//! ([`crate::codec`]): the row header is a `RowHeader` frame's body and
//! each column block a `RowBatch` frame's body, [`crate::codec::block_rows`]
//! rows to a block. Nothing about a table's history is stored: a loaded
//! table is built afresh and draws fresh version epochs.
//!
//! Format history: 1 stored rows value by value, after each table's
//! version epoch and append history; 2 stored column blocks; 3 lets a
//! block write a string column as a dictionary of its distinct strings
//! (column kind 3). Formats 1 and 2 are still read — 2 by the same decoder
//! as 3 — and a directory whose newest checkpoint is in either is
//! checkpointed at once on open, which leaves format 3 behind.
//!
//! Checkpoints are written atomically: encode to `checkpoint.N.tmp`,
//! `fsync`, rename over the final name, `fsync` the directory. A crash at
//! any point leaves either the old state or the new one, never a
//! half-written file that parses; recovery takes the newest checkpoint
//! whose CRC validates and falls back to older ones otherwise.

use crate::codec::{decode_catalog, encode_table, Reader, Writer};
use crate::crc::crc32;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use storage::{Catalog, Table};

/// The checkpoint file magic.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SNAPCKPT";

/// On-disk format version (1 → 2: tables as row sets of column blocks,
/// without version epochs or append histories; 2 → 3: a block's string
/// column may be dictionary-coded).
pub const FORMAT_VERSION: u32 = 3;

/// A decoded checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    /// The format version the file was written in.
    pub format: u32,
    /// Checkpoint sequence number (the `N` in `checkpoint.N`).
    pub seq: u64,
    /// WAL records with `lsn <= covered_lsn` are already reflected in
    /// `catalog` and must not be replayed.
    pub covered_lsn: u64,
    /// The catalog snapshot.
    pub catalog: Catalog,
}

/// The path of checkpoint number `seq` inside `dir`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint.{seq}"))
}

/// Encodes `catalog` into `w` as a checkpoint body holds it: the table
/// count, then each table's name and [`encode_table`] block in name order.
pub(crate) fn encode_catalog(w: &mut Writer, catalog: &Catalog) {
    let tables: Vec<(&str, &Table)> = catalog
        .table_names()
        .filter_map(|name| catalog.get(name).map(|t| (name, t)))
        .collect();
    w.put_u32(tables.len() as u32);
    for (name, table) in tables {
        w.put_str(name);
        encode_table(w, table);
    }
}

/// Serializes a checkpoint into its file bytes.
fn encode(seq: u64, covered_lsn: u64, catalog: &Catalog) -> Vec<u8> {
    let mut body = Writer::new();
    body.put_u64(seq);
    body.put_u64(covered_lsn);
    encode_catalog(&mut body, catalog);
    framed(FORMAT_VERSION, &body.into_bytes())
}

/// The file bytes of a checkpoint in `format` whose body is `body`.
fn framed(format: u32, body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(CHECKPOINT_MAGIC);
    w.put_u32(format);
    w.put_u32(crc32(body));
    w.put_u64(body.len() as u64);
    w.put_raw(body);
    w.into_bytes()
}

/// Parses and validates checkpoint file bytes.
fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
    let Some(after_magic) = bytes.strip_prefix(CHECKPOINT_MAGIC) else {
        return Err(if bytes.len() < CHECKPOINT_MAGIC.len() {
            "checkpoint file shorter than its magic".into()
        } else {
            "not a snapshot checkpoint file (bad magic)".into()
        });
    };
    let mut r = Reader::new(after_magic);
    let format = r.get_u32()?;
    if !(1..=FORMAT_VERSION).contains(&format) {
        return Err(format!(
            "unsupported checkpoint format version {format} (this build reads 1 to \
             {FORMAT_VERSION})"
        ));
    }
    let crc = r.get_u32()?;
    let body_len = r.get_u64()? as usize;
    if r.remaining() != body_len {
        return Err(format!(
            "checkpoint body length mismatch: header says {body_len}, file has {}",
            r.remaining()
        ));
    }
    let Some(body) = bytes.get(bytes.len().saturating_sub(body_len)..) else {
        return Err("checkpoint body length exceeds the file".into());
    };
    if crc32(body) != crc {
        return Err("checkpoint CRC mismatch (torn or corrupted write)".into());
    }
    let mut r = Reader::new(body);
    let seq = r.get_u64()?;
    let covered_lsn = r.get_u64()?;
    let catalog = decode_catalog(&mut r, format)?;
    if !r.is_empty() {
        return Err(format!(
            "checkpoint has {} bytes of trailing garbage",
            r.remaining()
        ));
    }
    Ok(Checkpoint {
        format,
        seq,
        covered_lsn,
        catalog,
    })
}

/// Writes checkpoint `seq` of `catalog` atomically (temp file + `fsync` +
/// rename + directory `fsync`) and returns its final path; an error at any
/// step means the checkpoint may not survive a crash. Every table is
/// encoded afresh from the catalog it is given.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    covered_lsn: u64,
    catalog: &Catalog,
) -> Result<PathBuf, String> {
    let bytes = encode(seq, covered_lsn, catalog);
    let final_path = checkpoint_path(dir, seq);
    let tmp_path = dir.join(format!("checkpoint.{seq}.tmp"));
    let mut tmp = fs::File::create(&tmp_path)
        .map_err(|e| format!("cannot create '{}': {e}", tmp_path.display()))?;
    tmp.write_all(&bytes)
        .and_then(|()| tmp.sync_all())
        .map_err(|e| format!("cannot write '{}': {e}", tmp_path.display()))?;
    drop(tmp);
    fs::rename(&tmp_path, &final_path)
        .map_err(|e| format!("cannot rename checkpoint into place: {e}"))?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Forces `dir`'s metadata — a rename into it — to stable storage. Until
/// it returns `Ok`, a renamed checkpoint may vanish in a crash, so nothing
/// may rely on it (the WAL must not be reset behind it). On unix a failure
/// to open or `fsync` the directory is an error; other platforms cannot
/// open a directory as a file, and there the step is best-effort.
fn sync_dir(dir: &Path) -> Result<(), String> {
    let synced = fs::File::open(dir).and_then(|d| d.sync_all());
    match synced {
        Err(e) if cfg!(unix) => Err(format!("cannot fsync directory '{}': {e}", dir.display())),
        _ => Ok(()),
    }
}

/// Reads and validates one checkpoint file.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
    decode(&bytes).map_err(|e| format!("'{}': {e}", path.display()))
}

/// Checkpoint sequence numbers present in `dir`, sorted ascending.
/// Temp files and unrelated names are ignored.
pub fn list_checkpoints(dir: &Path) -> Vec<u64> {
    let mut seqs = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return seqs;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name.strip_prefix("checkpoint.") {
            if let Ok(seq) = seq.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    seqs
}

/// The result of scanning a directory's checkpoint chain.
#[derive(Debug, Default)]
pub struct CheckpointScan {
    /// The newest checkpoint that validates, when any does.
    pub newest_valid: Option<Checkpoint>,
    /// Sequence numbers of checkpoints *newer* than the loaded one that
    /// failed to validate. Falling back across these is only safe when the
    /// WAL still bridges the gap — recovery must check (a renamed
    /// checkpoint was fully written and fsynced, so an invalid one here
    /// means post-write corruption, not a torn write).
    pub invalid_newer: Vec<u64>,
}

/// Scans `dir` for the newest valid checkpoint, recording any newer
/// checkpoints that exist but fail to validate.
pub fn scan_checkpoints(dir: &Path) -> CheckpointScan {
    let mut scan = CheckpointScan::default();
    for seq in list_checkpoints(dir).into_iter().rev() {
        match read_checkpoint(&checkpoint_path(dir, seq)) {
            Ok(cp) => {
                scan.newest_valid = Some(cp);
                return scan;
            }
            Err(_) => scan.invalid_newer.push(seq),
        }
    }
    scan
}

/// Loads the newest valid checkpoint in `dir`, trying older ones when the
/// newest is torn or corrupt. Returns `None` when no checkpoint validates.
pub fn load_newest(dir: &Path) -> Option<Checkpoint> {
    scan_checkpoints(dir).newest_valid
}

/// Deletes checkpoints older than `keep_newest` entries (the newest is the
/// recovery source; one predecessor is kept as a spare). Best-effort:
/// deletion failures are ignored, stale files only cost disk.
pub fn prune(dir: &Path, keep_newest: usize) {
    let seqs = list_checkpoints(dir);
    for &seq in seqs.iter().take(seqs.len().saturating_sub(keep_newest)) {
        let _ = fs::remove_file(checkpoint_path(dir, seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use proptest::prelude::*;
    use storage::{row, Row, Schema, SqlType, Table, Value};

    /// Magic, format version, CRC and body length: what precedes the body.
    const HEADER_LEN: usize = 8 + 4 + 4 + 8;

    fn sample_catalog() -> Catalog {
        let mut t = Table::with_period(
            Schema::of(&[
                ("name", SqlType::Str),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]),
            1,
            2,
        );
        t.push(row!["Ann", 3, 10]);
        t.push(row!["Joe", 8, 16]);
        let mut c = Catalog::new();
        c.register("works", t);
        c
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = TestDir::new("ckpt_roundtrip");
        let catalog = sample_catalog();
        let path = write_checkpoint(&dir, 3, 17, &catalog).unwrap();
        let cp = read_checkpoint(&path).unwrap();
        assert_eq!(cp.seq, 3);
        assert_eq!(cp.covered_lsn, 17);
        assert_eq!(cp.format, FORMAT_VERSION);
        assert_eq!(cp.catalog.get("works"), catalog.get("works"));
        // A loaded table is built afresh: it draws a fresh epoch.
        assert!(
            cp.catalog.get("works").unwrap().version() > catalog.get("works").unwrap().version()
        );
    }

    #[test]
    fn newest_valid_wins_and_corrupt_newest_falls_back() {
        let dir = TestDir::new("ckpt_fallback");
        let catalog = sample_catalog();
        write_checkpoint(&dir, 1, 5, &catalog).unwrap();
        write_checkpoint(&dir, 2, 9, &catalog).unwrap();
        assert_eq!(load_newest(&dir).unwrap().seq, 2);

        // Corrupt the newest: recovery falls back to seq 1.
        let p2 = checkpoint_path(&dir, 2);
        let mut bytes = fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&p2, &bytes).unwrap();
        assert!(read_checkpoint(&p2).is_err());
        assert_eq!(load_newest(&dir).unwrap().seq, 1);

        // A truncated newest also falls back, never panics.
        fs::write(&p2, &fs::read(checkpoint_path(&dir, 1)).unwrap()[..10]).unwrap();
        assert_eq!(load_newest(&dir).unwrap().seq, 1);
    }

    /// A catalog of two tables: `a_works`, `rows` period rows whose
    /// `status` cycles through three strings (a dictionary-coded column,
    /// past a row or two), whose `name` holds runs of strings `run` rows
    /// long and whose `pay` is NULL on every `nulls`-th row, and `other`,
    /// one `BOOL` row per flag.
    fn generated_catalog(rows: i64, run: i64, nulls: i64, flags: &[bool]) -> Catalog {
        let mut t = Table::with_period(
            Schema::of(&[
                ("status", SqlType::Str),
                ("name", SqlType::Str),
                ("pay", SqlType::Double),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]),
            3,
            4,
        );
        t.extend((0..rows).map(|i| {
            let pay = if i % nulls == 0 {
                Value::Null
            } else {
                Value::Double(i as f64 / 4.0)
            };
            Row::new(vec![
                Value::str(["draft", "active", "retired"][i as usize % 3]),
                Value::str(["Ann", "Joe"][(i / run) as usize % 2]),
                pay,
                Value::Int(i),
                Value::Int(i + 5),
            ])
        }));
        let mut other = Table::new(Schema::of(&[("x", SqlType::Bool)]));
        other.extend(flags.iter().map(|&b| Row::new(vec![Value::Bool(b)])));
        let mut c = Catalog::new();
        c.register("a_works", t);
        c.register("other", other);
        c
    }

    /// The fuzz test's catalog: its first column block's row count and
    /// arity, its dictionary's entry count and first index, and the first
    /// run length of its run-length string column sit at known offsets.
    fn fuzz_catalog() -> Catalog {
        generated_catalog(300, 100, 3, &[])
    }

    /// The length of the varint at the start of `bytes`.
    fn varint_len(bytes: &[u8]) -> usize {
        bytes
            .iter()
            .position(|b| b & 0x80 == 0)
            .map_or(bytes.len(), |i| i + 1)
    }

    /// `body` with the varint at `at` replaced by `v`.
    fn with_varint(body: &[u8], at: usize, v: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(&body[..at]);
        w.put_varint(v);
        w.put_raw(&body[at + varint_len(&body[at..])..]);
        w.into_bytes()
    }

    /// Reads `bytes` as a checkpoint file, returning the result and the
    /// largest single allocation the read made.
    fn read_bytes(dir: &Path, bytes: &[u8]) -> (Result<Checkpoint, String>, usize) {
        let path = checkpoint_path(dir, 1);
        fs::write(&path, bytes).unwrap();
        crate::test_alloc::largest_allocation(|| read_checkpoint(&path))
    }

    /// The body offsets a structural mutation edits, each with the value
    /// it adds the mutation's amount to. For format 3: the first table's
    /// block count, and in its first block the row count, the arity, the
    /// dictionary's entry count, its first index (from the last valid
    /// index, so every amount puts it outside) and the first run length of
    /// the `name` column; each but the index from its own value. For the
    /// format-1 fixture: its one table's row count, which precedes the one
    /// row's three tagged `INT`s.
    fn offsets(format: u32, body: &[u8]) -> [(usize, u64); 6] {
        if format == 1 {
            return [(body.len() - 3 * 9 - 8, 0); 6];
        }
        let works = fuzz_catalog();
        let works = works.get("a_works").unwrap();
        let mut header = Writer::new();
        crate::codec::encode_row_header(
            &mut header,
            works.schema(),
            crate::codec::header_period(works),
        );
        // seq, covered LSN, table count, the name, the header.
        let blocks = 8 + 8 + 4 + 4 + "a_works".len() + header.into_bytes().len();
        // Walk the first block, noting where each field starts.
        let mut r = Reader::new(&body[blocks..]);
        let at = |r: &Reader| body.len() - r.remaining();
        let field = |r: &mut Reader| (at(r), r.get_varint().unwrap());
        let (block_count, count, arity) = (field(&mut r), field(&mut r), field(&mut r));
        assert_eq!(r.get_u8().unwrap(), 3, "`status` is dictionary-coded");
        let entries = field(&mut r);
        for _ in 0..entries.1 {
            for _ in 0..r.get_varint().unwrap() {
                r.get_u8().unwrap();
            }
        }
        let mut rows = r.get_varint().unwrap();
        let index = (at(&r), entries.1 - 1);
        r.get_u8().unwrap();
        while rows < count.1 {
            rows += r.get_varint().unwrap();
            r.get_u8().unwrap();
        }
        assert_eq!(r.get_u8().unwrap(), 1, "`name` is run-length coded");
        [block_count, count, arity, entries, index, field(&mut r)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Corrupt checkpoint files are refused, never panic, and never
        /// make the decoder allocate past the block ceilings (or a small
        /// multiple of the input). The body CRC is recomputed after a
        /// mutation of the body, so it reaches the decoder; a flipped bit
        /// may then decode to another valid catalog, every other mutation
        /// must be an error. The same runs over a format-1 file, whose
        /// structural mutation inflates its row count.
        /// Mutations 4–9 are structural: they add an amount to a field
        /// [`offsets`] names.
        #[test]
        fn prop_corrupt_checkpoint_files_are_refused(
            format_1 in 0u8..4,
            mutation in 0usize..11,
            at in 0usize..1 << 20,
            bit in 0u8..8,
            big in 0usize..5,
        ) {
            let dir = TestDir::new("ckpt_fuzz");
            let (format, body) = if format_1 == 0 {
                let v1 = include_bytes!("../../../tests/fixtures/ckpt_v1_epoch_max/checkpoint.1");
                (1, v1[HEADER_LEN..].to_vec())
            } else {
                let file = encode(1, 0, &fuzz_catalog());
                (FORMAT_VERSION, file[HEADER_LEN..].to_vec())
            };
            prop_assert!(read_bytes(&dir, &framed(format, &body)).0.is_ok());
            let big = [1, 1 << 16, (1 << 16) + 1, 1 << 22, u64::MAX][big];
            let file = match mutation {
                0 => {
                    let mut body = body.clone();
                    let at = at % body.len();
                    body[at] ^= 1 << bit;
                    framed(format, &body)
                }
                1 => {
                    let mut file = framed(format, &body);
                    let at = at % file.len();
                    file[at] ^= 1 << bit;
                    file
                }
                2 => framed(format, &body[..at % body.len()]),
                3 => {
                    let file = framed(format, &body);
                    file[..at % file.len()].to_vec()
                }
                4..=9 if format == 1 => {
                    let mut body = body.clone();
                    let (rows, _) = offsets(format, &body)[0];
                    body[rows..rows + 8].copy_from_slice(&big.saturating_add(1).to_le_bytes());
                    framed(format, &body)
                }
                4..=9 => {
                    let (at, from) = offsets(format, &body)[mutation - 4];
                    framed(format, &with_varint(&body, at, from.saturating_add(big)))
                }
                _ => {
                    let mut file = framed(format, &body);
                    let len = big.saturating_add(body.len() as u64);
                    file[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
                    file
                }
            };
            let (read, largest) = read_bytes(&dir, &file);
            let bound = (file.len() * std::mem::size_of::<Value>())
                .max(crate::codec::MAX_BLOCK_ROWS * std::mem::size_of::<Row>());
            prop_assert!(
                largest <= bound,
                "allocated {} bytes for a {}-byte file",
                largest,
                file.len()
            );
            if mutation != 0 {
                prop_assert!(read.is_err(), "mutation {} at {} decoded", mutation, at);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A checkpoint is a function of the catalog it is given: writing
        /// the same catalog twice gives the same file, and encoding the
        /// catalog a checkpoint decodes to gives that file again.
        #[test]
        fn prop_checkpoint_bytes_are_a_function_of_the_catalog(
            rows in 0i64..700,
            run in 1i64..300,
            nulls in 1i64..5,
            flags in proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 0..40),
        ) {
            let dir = TestDir::new("ckpt_deterministic");
            let catalog = generated_catalog(rows, run, nulls, &flags);
            let path = write_checkpoint(&dir, 7, 11, &catalog).unwrap();
            let first = fs::read(&path).unwrap();
            write_checkpoint(&dir, 7, 11, &catalog).unwrap();
            prop_assert_eq!(&fs::read(&path).unwrap(), &first);
            let cp = read_checkpoint(&path).unwrap();
            prop_assert_eq!(&encode(cp.seq, cp.covered_lsn, &cp.catalog), &first);
        }
    }

    #[cfg(unix)]
    #[test]
    fn syncing_a_missing_directory_is_an_error() {
        let scratch = TestDir::new("ckpt_sync_dir");
        let dir = scratch.join("missing");
        let err = sync_dir(&dir).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn tmp_files_are_ignored_and_prune_keeps_newest() {
        let dir = TestDir::new("ckpt_prune");
        let catalog = sample_catalog();
        for seq in 1..=4 {
            write_checkpoint(&dir, seq, seq * 10, &catalog).unwrap();
        }
        fs::write(dir.join("checkpoint.9.tmp"), b"half-written").unwrap();
        fs::write(dir.join("unrelated.txt"), b"hello").unwrap();
        assert_eq!(list_checkpoints(&dir), vec![1, 2, 3, 4]);
        prune(&dir, 2);
        assert_eq!(list_checkpoints(&dir), vec![3, 4]);
        assert_eq!(load_newest(&dir).unwrap().seq, 4);
    }
}
