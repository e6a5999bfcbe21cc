//! Hand-rolled binary codec for the durability layer.
//!
//! The environment has no crates.io access (no serde), so checkpoints and
//! WAL payloads are encoded with an explicit little-endian writer/reader
//! pair. Every decode path is fallible and bounds-checked: a truncated or
//! bit-flipped input comes back as `Err`, never as a panic — recovery
//! depends on that to distinguish "torn tail" from "valid prefix".
//!
//! Layout conventions: integers are little-endian; strings are a `u32`
//! length followed by UTF-8 bytes; options are a `u8` presence flag;
//! sequences are a `u32`/`u64` count followed by the elements.
//!
//! Rows travel and rest as *column blocks* ([`encode_columns`] /
//! [`decode_columns`]): one batch of rows written column by column —
//! delta-coded integers, run-length or dictionary-coded strings, and
//! run-length NULLs. A row set is a
//! header ([`encode_row_header`]: schema and period pair) followed by
//! blocks of [`block_rows`] rows each; the wire protocol's `RowHeader` /
//! `RowBatch` frames carry exactly these bodies, and a checkpoint stores
//! each table the same way ([`encode_table`]). This module is the only
//! place that knows those layouts.
//!
//! Format history of a column block (checkpoint format and protocol
//! version alike): 2 introduced column blocks with kinds 0–2; 3 added kind
//! 3, a per-block string dictionary. One decoder reads both, since a
//! format-2 block is a format-3 block that never uses kind 3.

use std::sync::Arc;
use storage::{Catalog, Column, Row, Schema, SqlType, Table, Value};

/// Encoder: append-only byte buffer with fixed-width little-endian writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer that keeps `buf`'s allocation (its contents are
    /// dropped): how a caller encoding many messages in a row pays for one
    /// buffer, handing it back through [`Writer::into_bytes`] each time.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an unsigned LEB128 varint: seven bits per byte, least
    /// significant group first, the high bit set on every byte but the last
    /// (1 byte below 128, at most 10).
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends pre-encoded bytes verbatim (no length prefix) — the splice
    /// point for cached encodings (incremental checkpoints) and batched
    /// WAL frames.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Decoder: a cursor over an input slice; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the input is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        // `checked_add`: `n` can be a decoded length as large as the input
        // cares to claim.
        let end = self.pos.checked_add(n);
        let out = end.and_then(|end| self.bytes.get(self.pos..end));
        let out = out.ok_or_else(|| {
            format!(
                "truncated input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )
        })?;
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        self.take(N)?
            .try_into()
            .map_err(|_| format!("truncated input at offset {}", self.pos))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, String> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| format!("truncated input at offset {}", self.pos))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a varint written by [`Writer::put_varint`]; an encoding that
    /// does not fit 64 bits is an error.
    pub fn get_varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..u64::BITS).step_by(7) {
            let byte = self.get_u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                break; // the tenth byte has room for bit 63 only
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(format!("varint overflows 64 bits at offset {}", self.pos))
    }

    /// Reads a varint that counts something held in memory.
    fn get_len(&mut self) -> Result<usize, String> {
        let v = self.get_varint()?;
        usize::try_from(v).map_err(|_| format!("length {v} exceeds the address space"))
    }

    /// Reads `len` bytes of UTF-8, borrowed from the input.
    fn get_utf8(&mut self, len: usize) -> Result<&'a str, String> {
        std::str::from_utf8(self.take(len)?).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, String> {
        let len = self.get_u32()? as usize;
        self.get_utf8(len).map(str::to_owned)
    }
}

// Value tags (part of the on-disk format — append-only, never renumber).
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

/// Encodes one SQL value.
pub fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(TAG_NULL),
        Value::Bool(b) => {
            w.put_u8(TAG_BOOL);
            w.put_u8(*b as u8);
        }
        Value::Int(i) => {
            w.put_u8(TAG_INT);
            w.put_i64(*i);
        }
        Value::Double(d) => {
            w.put_u8(TAG_DOUBLE);
            w.put_f64(*d);
        }
        Value::Str(s) => {
            w.put_u8(TAG_STR);
            w.put_str(s);
        }
    }
}

/// Decodes one SQL value.
pub fn decode_value(r: &mut Reader) -> Result<Value, String> {
    match r.get_u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match r.get_u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(format!("invalid bool byte {other}")),
        },
        TAG_INT => Ok(Value::Int(r.get_i64()?)),
        TAG_DOUBLE => Ok(Value::Double(r.get_f64()?)),
        TAG_STR => {
            let len = r.get_u32()? as usize;
            Ok(Value::Str(Arc::from(r.get_utf8(len)?)))
        }
        other => Err(format!("invalid value tag {other}")),
    }
}

/// Ceiling on the rows of one column block, enforced by the decoder
/// before it allocates. A run of any length costs a few bytes, so bytes
/// remaining say nothing about how many rows a block may claim; a fixed
/// ceiling does.
pub const MAX_BLOCK_ROWS: usize = 1 << 16;

/// Ceiling on `rows × columns` of one column block, for the same reason:
/// what the decoder allocates is bounded by this, not by the input.
pub const MAX_BLOCK_VALUES: usize = 1 << 22;

/// Rows per column block of a row set, unless its rows are too wide for
/// that many (see [`block_rows`]): a table's sealed block, so that a block
/// of a sealed table is one of its column blocks.
pub const ROW_BATCH: usize = storage::BLOCK_ROWS;

/// Rows per column block for rows of `arity` columns: [`ROW_BATCH`], or as
/// many as fit [`MAX_BLOCK_VALUES`] (at least one). Every writer of blocks
/// cuts by this rule, so [`decode_columns`] accepts every block written.
pub fn block_rows(arity: usize) -> usize {
    (MAX_BLOCK_VALUES / arity.max(1)).clamp(1, ROW_BATCH)
}

/// `table`'s rows cut into column blocks by [`block_rows`]: each of its
/// contiguous runs ([`Table::chunks`]: the sealed blocks, then the open
/// tail) in turn. Up to `MAX_BLOCK_VALUES / ROW_BATCH` columns a column
/// block is a whole sealed block, so the cuts fall where they fall in the
/// table's rows as one slice, sealed or not; wider rows are also cut at
/// each sealed block's end.
pub fn blocks(table: &Table) -> impl Iterator<Item = &[Row]> + Clone {
    let rows = block_rows(table.schema().arity());
    table.chunks().flat_map(move |run| run.chunks(rows))
}

// Column kinds of a column block (part of the wire format).
/// Every value is an `Int`: zig-zag varint deltas.
const COL_INT: u8 = 0;
/// Every value is a `Str`: runs of equal strings.
const COL_STR: u8 = 1;
/// Anything else: runs of [`encode_value`]s.
const COL_ANY: u8 = 2;
/// Every value is a `Str`: the block's distinct strings once, then runs of
/// indexes into them.
const COL_DICT: u8 = 3;

/// Most entries [`encode_columns`] puts in one column's dictionary, so
/// the entry count and every index are one byte; a column with more
/// distinct strings is written as [`COL_STR`] runs.
const MAX_DICT_ENTRIES: usize = 127;

/// Slots of the table a column's dictionary entries are found through
/// (see [`dictionary_index`]): twice [`MAX_DICT_ENTRIES`], rounded up.
const DICT_SLOTS: usize = 256;

/// The bytes [`Writer::put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Zig-zag: small magnitudes of either sign become small unsigned numbers.
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Encodes a batch of rows column by column:
///
/// ```text
/// [count: varint] [arity: varint] arity × ( [kind: u8] [column data] )
/// ```
///
/// Each column's kind is chosen from the values it holds in *this* batch
/// (a schema says `DOUBLE` where an aggregate over no rows says NULL):
///
/// * all `Int` → `count` zig-zag varints, each the wrapping difference
///   from the value above it (the first from 0);
/// * all `Str` → runs `[run: varint] [len: varint] [bytes]` of equal
///   neighbours (kind 1), or, when that is smaller and the column holds at
///   most 127 distinct strings, a dictionary (kind 3): `[entries: varint]`,
///   each entry `[len: varint] [bytes]`, then runs `[run: varint] [index:
///   varint]`;
/// * otherwise → runs `[run: varint] [encode_value]`, where only NULLs are
///   gathered into runs longer than 1.
///
/// Runs are never empty and add up to `count`. The arity is the first
/// row's; a [`Table`]'s rows all share it (a row short of it would encode
/// NULLs there, values beyond it are not sent).
pub fn encode_columns(w: &mut Writer, rows: &[Row]) {
    let arity = rows.first().map_or(0, Row::arity);
    debug_assert!(rows.iter().all(|r| r.arity() == arity));
    w.put_varint(rows.len() as u64);
    w.put_varint(arity as u64);
    for c in 0..arity {
        let column = || {
            rows.iter()
                .map(|r| r.values().get(c).unwrap_or(&Value::Null))
        };
        if column().all(|v| matches!(v, Value::Int(_))) {
            w.put_u8(COL_INT);
            let mut prev = 0i64;
            for i in column().filter_map(Value::as_int) {
                w.put_varint(zigzag(i.wrapping_sub(prev)));
                prev = i;
            }
        } else if column().all(|v| matches!(v, Value::Str(_))) {
            encode_strs(w, column().filter_map(Value::as_str));
        } else {
            w.put_u8(COL_ANY);
            let mut values = column().peekable();
            while let Some(v) = values.next() {
                let mut run = 1u64;
                while v.is_null() && values.next_if(|next| next.is_null()).is_some() {
                    run += 1;
                }
                w.put_varint(run);
                encode_value(w, v);
            }
        }
    }
}

/// Encodes an all-`Str` column. One pass over its runs looks each run up
/// once in the column's dictionary and counts the bytes kind 1 would take;
/// kind 3 is written when that pass met at most [`MAX_DICT_ENTRIES`]
/// distinct strings and the dictionary is smaller, and kind 1, in a pass of
/// its own, otherwise.
fn encode_strs<'s>(w: &mut Writer, strs: impl Iterator<Item = &'s str> + Clone) {
    let mut entries: Vec<&str> = Vec::new();
    let mut slots = [0u8; DICT_SLOTS];
    let mut runs: Vec<(u64, u8)> = Vec::new();
    // Kind 1's bytes but the run lengths, which both kinds write alike.
    let mut as_runs = 0;
    let mut column = strs.clone().peekable();
    while let Some(s) = column.next() {
        let mut run = 1u64;
        while column.next_if(|next| *next == s).is_some() {
            run += 1;
        }
        as_runs += varint_len(s.len() as u64) + s.len();
        match dictionary_index(&mut slots, &mut entries, s) {
            Some(index) => runs.push((run, index)),
            None => return encode_str_runs(w, strs),
        }
    }
    // Kind 3's bytes but the run lengths: the entry count, the entries,
    // and an index byte per run.
    let as_dictionary = 1
        + entries
            .iter()
            .map(|e| varint_len(e.len() as u64) + e.len())
            .sum::<usize>()
        + runs.len();
    if as_dictionary >= as_runs {
        return encode_str_runs(w, strs);
    }
    w.put_u8(COL_DICT);
    w.put_u8(entries.len() as u8);
    for e in &entries {
        w.put_varint(e.len() as u64);
        w.put_raw(e.as_bytes());
    }
    for (run, index) in runs {
        w.put_varint(run);
        w.put_u8(index);
    }
}

/// Encodes an all-`Str` column as kind 1: its runs of equal strings.
fn encode_str_runs<'s>(w: &mut Writer, strs: impl Iterator<Item = &'s str>) {
    w.put_u8(COL_STR);
    let mut strs = strs.peekable();
    while let Some(s) = strs.next() {
        let mut run = 1u64;
        while strs.next_if(|next| *next == s).is_some() {
            run += 1;
        }
        w.put_varint(run);
        w.put_varint(s.len() as u64);
        w.put_raw(s.as_bytes());
    }
}

/// The index of `s` among a column's dictionary `entries`, which it joins
/// when it is new and the dictionary has room; `None` when it is new and
/// the dictionary is full. `slots` finds it: an open-addressed table of
/// entry index + 1 (0 is empty) by a hash of the bytes, each candidate
/// compared by pointer first, then by bytes. At most half its slots fill,
/// so a probe soon meets an empty one; strings crafted to collide cost a
/// scan of at most [`MAX_DICT_ENTRIES`] entries, as a linear search would.
fn dictionary_index<'s>(
    slots: &mut [u8; DICT_SLOTS],
    entries: &mut Vec<&'s str>,
    s: &'s str,
) -> Option<u8> {
    let mut slot = slot_of(s);
    loop {
        let at = slots.get_mut(slot % DICT_SLOTS)?;
        match *at {
            0 if entries.len() < MAX_DICT_ENTRIES => {
                entries.push(s);
                *at = entries.len() as u8;
                return Some(*at - 1);
            }
            0 => return None,
            i => match entries.get(usize::from(i - 1)) {
                Some(e) if std::ptr::eq(*e, s) || *e == s => return Some(i - 1),
                _ => slot += 1,
            },
        }
    }
}

/// `s`'s first slot in a dictionary's table: a multiplicative hash of its
/// length and its bytes, eight at a time, whose top eight bits pick one of
/// the [`DICT_SLOTS`].
fn slot_of(s: &str) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (s.len() as u64).wrapping_mul(K);
    for chunk in s.as_bytes().chunks(8) {
        let word = match <[u8; 8]>::try_from(chunk) {
            Ok(word) => u64::from_le_bytes(word),
            Err(_) => chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
        };
        h = (h ^ word).wrapping_mul(K);
    }
    (h >> 56) as usize
}

/// Decodes a column block written by [`encode_columns`]. Total: a count
/// above [`MAX_BLOCK_ROWS`], `count × arity` above [`MAX_BLOCK_VALUES`], an
/// arity the remaining bytes cannot hold (a column costs at least its kind
/// byte), an empty or overlong run, an unknown kind, an overflowing varint
/// or invalid UTF-8 are errors, all found before the allocation they would
/// size; so are a dictionary claiming more entries than bytes left, rows
/// with an empty dictionary and an index outside the dictionary. The
/// strings of one run share one `Arc<str>`, and so do the rows of one
/// dictionary entry.
pub fn decode_columns(r: &mut Reader) -> Result<Vec<Row>, String> {
    let count = r.get_len()?;
    if count > MAX_BLOCK_ROWS {
        return Err(format!(
            "column block claims {count} rows, above the ceiling of {MAX_BLOCK_ROWS}"
        ));
    }
    let arity = r.get_len()?;
    if arity > r.remaining() {
        return Err(format!(
            "column block claims {arity} columns in {} bytes",
            r.remaining()
        ));
    }
    if count.saturating_mul(arity) > MAX_BLOCK_VALUES {
        return Err(format!(
            "column block claims {count} × {arity} values, above the ceiling of {MAX_BLOCK_VALUES}"
        ));
    }
    let mut rows: Vec<Row> = (0..count)
        .map(|_| Row::new(Vec::with_capacity(arity)))
        .collect();
    for _ in 0..arity {
        match r.get_u8()? {
            COL_INT => {
                let mut prev = 0i64;
                for row in &mut rows {
                    prev = prev.wrapping_add(unzigzag(r.get_varint()?));
                    row.0.push(Value::Int(prev));
                }
            }
            COL_STR => fill_runs(r, &mut rows, |r| {
                let len = r.get_len()?;
                Ok(Value::Str(Arc::from(r.get_utf8(len)?)))
            })?,
            COL_ANY => fill_runs(r, &mut rows, decode_value)?,
            COL_DICT => {
                let entries = decode_dictionary(r, count)?;
                fill_runs(r, &mut rows, |r| {
                    let index = r.get_len()?;
                    entries.get(index).cloned().ok_or_else(|| {
                        format!(
                            "dictionary index {index} outside its {} entries",
                            entries.len()
                        )
                    })
                })?
            }
            other => return Err(format!("invalid column kind {other}")),
        }
    }
    Ok(rows)
}

/// Reads a kind-3 column's dictionary for a block of `count` rows: each
/// entry's `Arc<str>` is built once, for its rows to clone. An entry costs
/// at least its length byte, so a count above the bytes left is refused
/// before the entries are allocated.
fn decode_dictionary(r: &mut Reader, count: usize) -> Result<Vec<Value>, String> {
    let n = r.get_len()?;
    if n > r.remaining() {
        return Err(format!(
            "dictionary claims {n} entries in {} bytes",
            r.remaining()
        ));
    }
    if n == 0 && count > 0 {
        return Err(format!("{count} row(s) with an empty dictionary"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.get_len()?;
        entries.push(Value::Str(Arc::from(r.get_utf8(len)?)));
    }
    Ok(entries)
}

/// Appends one run-length column to `rows`: `[run: varint] [value]` until
/// every row has its value, each run's value decoded once and cloned.
fn fill_runs(
    r: &mut Reader,
    rows: &mut [Row],
    mut value: impl FnMut(&mut Reader) -> Result<Value, String>,
) -> Result<(), String> {
    let mut rest = rows;
    while !rest.is_empty() {
        let run = r.get_len()?;
        if run == 0 || run > rest.len() {
            return Err(format!("run of {run} with {} row(s) left", rest.len()));
        }
        let v = value(r)?;
        let (filled, tail) = rest.split_at_mut(run);
        for row in filled {
            row.0.push(v.clone());
        }
        rest = tail;
    }
    Ok(())
}

fn encode_type(w: &mut Writer, ty: SqlType) {
    w.put_u8(match ty {
        SqlType::Bool => 0,
        SqlType::Int => 1,
        SqlType::Double => 2,
        SqlType::Str => 3,
    });
}

fn decode_type(r: &mut Reader) -> Result<SqlType, String> {
    match r.get_u8()? {
        0 => Ok(SqlType::Bool),
        1 => Ok(SqlType::Int),
        2 => Ok(SqlType::Double),
        3 => Ok(SqlType::Str),
        other => Err(format!("invalid type tag {other}")),
    }
}

/// Encodes a schema (column names, optional qualifiers, types).
fn encode_schema(w: &mut Writer, schema: &Schema) {
    w.put_u32(schema.arity() as u32);
    for c in schema.columns() {
        w.put_str(&c.name);
        match &c.table {
            Some(t) => {
                w.put_u8(1);
                w.put_str(t);
            }
            None => w.put_u8(0),
        }
        encode_type(w, c.ty);
    }
}

/// Decodes a schema.
fn decode_schema(r: &mut Reader) -> Result<Schema, String> {
    let arity = r.get_u32()? as usize;
    let mut columns = Vec::with_capacity(arity.min(1024));
    for _ in 0..arity {
        let name = r.get_str()?;
        let table = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_str()?),
            other => return Err(format!("invalid qualifier flag {other}")),
        };
        let ty = decode_type(r)?;
        columns.push(match table {
            Some(t) => Column::qualified(t, name, ty),
            None => Column::new(name, ty),
        });
    }
    Ok(Schema::new(columns))
}

/// `table`'s period column pair as a row-set header carries it.
pub fn header_period(table: &Table) -> Option<(u32, u32)> {
    table.period().map(|(b, e)| (b as u32, e as u32))
}

/// Encodes the header of a row set: its schema, then a period flag and,
/// when set, the period's `u32` column pair.
pub fn encode_row_header(w: &mut Writer, schema: &Schema, period: Option<(u32, u32)>) {
    encode_schema(w, schema);
    match period {
        Some((b, e)) => {
            w.put_u8(1);
            w.put_u32(b);
            w.put_u32(e);
        }
        None => w.put_u8(0),
    }
}

/// Decodes a header written by [`encode_row_header`]. A period pair must
/// name two distinct `INT` columns of the schema it came with, since
/// whoever reads the rows builds a period table from it.
pub fn decode_row_header(r: &mut Reader) -> Result<(Schema, Option<(u32, u32)>), String> {
    let schema = decode_schema(r)?;
    let period = match r.get_u8()? {
        0 => None,
        1 => {
            let (b, e) = (r.get_u32()?, r.get_u32()?);
            Table::check_period(&schema, b as usize, e as usize)?;
            Some((b, e))
        }
        other => return Err(format!("invalid period flag {other}")),
    };
    Ok((schema, period))
}

/// Encodes a full table as a row set: the [`encode_row_header`] body, the
/// block count, and the [`blocks`] as column blocks.
pub fn encode_table(w: &mut Writer, table: &Table) {
    encode_row_header(w, table.schema(), header_period(table));
    let blocks = blocks(table);
    w.put_varint(blocks.clone().count() as u64);
    for block in blocks {
        encode_columns(w, block);
    }
}

/// Decodes a table written by [`encode_table`] (checkpoint `format` 2 or
/// 3, which differ only in the column kinds a block may use), or
/// by format 1 (schema, `u64` period pair, version epoch and append
/// history — read and dropped — then the rows value by value). Either way
/// the table is built afresh, so it draws fresh version epochs; a format-2
/// or 3 table comes back sealed ([`Table::seal`]).
pub fn decode_table(r: &mut Reader, format: u32) -> Result<Table, String> {
    if format == 1 {
        return decode_table_v1(r);
    }
    let (schema, period) = decode_row_header(r)?;
    let arity = schema.arity();
    let mut table = table_of(
        schema,
        period.map(|(b, e)| (b as usize, e as usize)),
        Vec::new(),
    )?;
    for _ in 0..r.get_len()? {
        let block = decode_columns(r)?;
        if block.is_empty() || block.len() > block_rows(arity) {
            return Err(format!(
                "a block of {} rows, outside 1..={} for arity {arity}",
                block.len(),
                block_rows(arity)
            ));
        }
        table.try_extend(block)?;
        // A checkpoint's tables are for a shared database, which seals
        // them anyway: sealed block by block, no row set is ever held
        // whole in one allocation.
        table.seal();
    }
    Ok(table)
}

/// A table of `schema` and `period` holding `rows`, every one checked.
fn table_of(
    schema: Schema,
    period: Option<(usize, usize)>,
    rows: Vec<Row>,
) -> Result<Table, String> {
    let mut table = match period {
        Some((b, e)) => {
            Table::check_period(&schema, b, e)?;
            Table::with_period(schema, b, e)
        }
        None => Table::new(schema),
    };
    table.try_extend(rows)?;
    Ok(table)
}

/// The format-1 table layout, which only a directory written before
/// checkpoint format 2 holds.
fn decode_table_v1(r: &mut Reader) -> Result<Table, String> {
    let schema = decode_schema(r)?;
    let period = match r.get_u8()? {
        0 => None,
        1 => {
            let b = usize::try_from(r.get_u64()?).map_err(|e| e.to_string())?;
            let e = usize::try_from(r.get_u64()?).map_err(|e| e.to_string())?;
            Some((b, e))
        }
        other => return Err(format!("invalid period flag {other}")),
    };
    let _epoch = r.get_u64()?;
    for _ in 0..r.get_u32()? {
        let _history = (r.get_u64()?, r.get_u64()?);
    }
    let n_rows = r.get_u64()? as usize;
    // Guard against absurd counts from corrupt input before allocating:
    // every row costs at least one byte per value (the tag), and at least
    // one byte overall (`max(1)` keeps a zero-arity schema from voiding
    // the bound).
    if n_rows.saturating_mul(schema.arity().max(1)) > r.remaining() {
        return Err(format!(
            "row count {n_rows} exceeds remaining input ({} bytes)",
            r.remaining()
        ));
    }
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let values: Result<Vec<Value>, String> =
            (0..schema.arity()).map(|_| decode_value(r)).collect();
        rows.push(Row::new(values?));
    }
    table_of(schema, period, rows)
}

/// Decodes a catalog of checkpoint `format`: table count, then `(name,
/// table)` pairs.
pub fn decode_catalog(r: &mut Reader, format: u32) -> Result<Catalog, String> {
    let n = r.get_u32()? as usize;
    let mut catalog = Catalog::new();
    for _ in 0..n {
        let name = r.get_str()?;
        let table = decode_table(r, format)?;
        catalog.register(name, table);
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use storage::row;

    fn encoded_columns(rows: &[Row]) -> Vec<u8> {
        let mut w = Writer::new();
        encode_columns(&mut w, rows);
        w.into_bytes()
    }

    fn decoded_columns(bytes: &[u8]) -> Result<Vec<Row>, String> {
        let mut r = Reader::new(bytes);
        let rows = decode_columns(&mut r)?;
        assert!(r.is_empty(), "decode must consume the full block");
        Ok(rows)
    }

    /// One cell of a random batch. `mode` is the column's: 0 → all `Int`
    /// (extremes next to each other, so deltas wrap), 1 → all `Str` from a
    /// small pool (runs; each a fresh `Arc`), otherwise a mixture heavy in
    /// NULLs and awkward doubles.
    fn cell(mode: u8, pick: u8, n: i64) -> Value {
        const STRS: [&str; 4] = ["", "Ann", "žluťoučký kůň 🐎", "Ann "];
        const DOUBLES: [f64; 6] = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 2.5];
        match (mode, pick % 8) {
            (0, 0) => Value::Int(i64::MIN),
            (0, 1) => Value::Int(i64::MAX),
            (0, _) => Value::Int(n),
            (1, p) => Value::str(STRS[p as usize % 4]),
            (_, 0..=2) => Value::Null,
            (_, 3) => Value::Int(n),
            (_, 4) => Value::Double(DOUBLES[n.unsigned_abs() as usize % 6]),
            (_, 5) => Value::Double(n as f64 / 3.0),
            (_, 6) => Value::Bool(n % 2 == 0),
            (_, _) => Value::str(STRS[n.unsigned_abs() as usize % 4]),
        }
    }

    proptest! {
        /// Any batch comes back as it went in — zero rows, zero-arity rows,
        /// doubles by bit pattern — and no trailing byte is left.
        #[test]
        fn prop_column_blocks_round_trip(
            count in 0usize..40,
            modes in proptest::collection::vec(0u8..4, 0..5),
            cells in proptest::collection::vec((0u8..8, -50i64..50), 200),
        ) {
            let arity = modes.len();
            let rows: Vec<Row> = (0..count)
                .map(|i| {
                    modes
                        .iter()
                        .enumerate()
                        .map(|(c, &mode)| {
                            let (pick, n) = cells[i * arity + c];
                            cell(mode, pick, n)
                        })
                        .collect()
                })
                .collect();
            let back = decoded_columns(&encoded_columns(&rows)).unwrap();
            prop_assert_eq!(back.len(), rows.len());
            for (a, b) in rows.iter().zip(&back) {
                prop_assert_eq!(a.arity(), b.arity());
                for (x, y) in a.values().iter().zip(b.values()) {
                    match (x, y) {
                        (Value::Double(x), Value::Double(y)) => {
                            prop_assert_eq!(x.to_bits(), y.to_bits())
                        }
                        _ => prop_assert_eq!(x, y),
                    }
                }
            }
        }

        /// Varints of every width round-trip.
        #[test]
        fn prop_varints_round_trip(v in 0u64..u64::MAX, shift in 0u32..64) {
            for v in [v >> shift, u64::MAX >> shift, 1u64 << shift] {
                let mut w = Writer::new();
                w.put_varint(v);
                let bytes = w.into_bytes();
                prop_assert_eq!(bytes.len(), varint_len(v));
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(r.get_varint().unwrap(), v);
                prop_assert!(r.is_empty());
            }
        }

        /// String columns drawn from a small alphabet (few distinct
        /// strings: a dictionary) and from a large one (many: runs), each
        /// string a shared or a fresh `Arc`, beside an `Int` column and a
        /// column of strings and NULLs: each all-`Str` column is written
        /// in the kind the layouts' sizes call for, the block comes back
        /// as it went in, and the rows of one dictionary entry share one
        /// `Arc`.
        #[test]
        fn prop_string_columns_take_the_smaller_kind_and_round_trip(
            count in 1usize..300,
            small in 1usize..8,
            large in 60usize..400,
            cells in proptest::collection::vec((0usize..1000, 0usize..1000, 0u8..2), 300),
        ) {
            let pool = |n: usize| -> Vec<Value> {
                let stems = ["", "a", "žluť", "object_type_"];
                (0..n).map(|k| Value::str(format!("{}{k}", stems[k % 4]))).collect()
            };
            let (small_pool, large_pool) = (pool(small), pool(large));
            let pick = |pool: &[Value], k: usize, shared: u8| {
                let v = &pool[k % pool.len()];
                if shared == 1 { v.clone() } else { Value::str(v.as_str().unwrap_or("")) }
            };
            let rows: Vec<Row> = cells[..count]
                .iter()
                .map(|&(a, b, shared)| {
                    let mixed = if b % 3 == 0 { Value::Null } else { pick(&small_pool, b, shared) };
                    Row::new(vec![
                        pick(&small_pool, a, shared),
                        Value::Int(a as i64 - 500),
                        mixed,
                        pick(&large_pool, a * 7 + b, shared),
                    ])
                })
                .collect();
            prop_assert_eq!(&decoded_columns(&encoded_columns(&rows)).unwrap(), &rows);
            for c in [0, 3] {
                let column: Vec<Row> = rows.iter().map(|r| Row::new(vec![r.get(c).clone()])).collect();
                let strs: Vec<&str> = column.iter().filter_map(|r| r.get(0).as_str()).collect();
                let bytes = encoded_columns(&column);
                let kind = bytes[varint_len(count as u64) + 1];
                prop_assert_eq!(kind, expected_str_kind(&strs), "column {}", c);
                let back = decoded_columns(&bytes).unwrap();
                prop_assert_eq!(&back, &column);
                if kind == COL_DICT {
                    let mut first: Vec<(&str, &Arc<str>)> = Vec::new();
                    for row in &back {
                        let Value::Str(arc) = row.get(0) else { unreachable!() };
                        match first.iter().find(|(s, _)| **s == **arc) {
                            Some((_, seen)) => prop_assert!(Arc::ptr_eq(seen, arc)),
                            None => first.push((arc, arc)),
                        }
                    }
                }
            }
        }

        /// A valid dictionary block with one field edited — an entry count
        /// past the bytes left, an index outside the entries, a run of 0
        /// or past the rows, an entry of invalid UTF-8, rows with an empty
        /// dictionary — is refused, before any allocation past the block
        /// ceilings.
        #[test]
        fn prop_edited_dictionary_blocks_are_refused(
            n in 2usize..6,
            picks in proptest::collection::vec(0usize..6, 4..120),
            edit in 0usize..6,
            big in 0usize..6,
        ) {
            let names: Vec<String> = (0..n).map(|k| format!("status_{k}")).collect();
            let strs: Vec<&str> = picks.iter().map(|&k| names[k % n].as_str()).collect();
            let runs: Vec<(u64, u64)> = strs
                .chunk_by(|a, b| a == b)
                .map(|run| (run.len() as u64, names.iter().position(|e| e == run[0]).unwrap() as u64))
                .collect();
            let entries: Vec<Vec<u8>> = names.iter().map(|e| e.clone().into_bytes()).collect();
            let count = strs.len() as u64;
            let valid = dict_block(count, n as u64, &entries, &runs);
            let want: Vec<Row> = strs.iter().map(|s| row![*s]).collect();
            prop_assert_eq!(decoded_columns(&valid).unwrap(), want);

            let big = [1, 2, 127, 1 << 16, 1 << 22, u64::MAX][big];
            let (mut entries, mut runs) = (entries, runs);
            let (edited, refusal) = match edit {
                0 => {
                    let n = (valid.len() as u64).saturating_add(big);
                    (dict_block(count, n, &entries, &runs), "dictionary claims")
                }
                1 => {
                    runs[0].1 = (n as u64).saturating_add(big - 1);
                    (dict_block(count, n as u64, &entries, &runs), "dictionary index")
                }
                2 => {
                    runs[0].0 = 0;
                    (dict_block(count, n as u64, &entries, &runs), "run of 0")
                }
                3 => {
                    runs[0].0 = count.saturating_add(big);
                    (dict_block(count, n as u64, &entries, &runs), "row(s) left")
                }
                4 => {
                    entries[0][0] = 0xFF;
                    (dict_block(count, n as u64, &entries, &runs), "UTF-8")
                }
                _ => (dict_block(count, 0, &[], &runs), "empty dictionary"),
            };
            let (decoded, largest) = crate::test_alloc::largest_allocation(|| {
                decode_columns(&mut Reader::new(&edited))
            });
            let err = decoded.unwrap_err();
            prop_assert!(err.contains(refusal), "edit {}: {}", edit, err);
            let bound = (edited.len() * std::mem::size_of::<Value>())
                .max(MAX_BLOCK_ROWS * std::mem::size_of::<Row>());
            prop_assert!(largest <= bound, "allocated {} bytes for {}", largest, edited.len());
        }

        /// Garbage never panics the block decoder, whatever it claims.
        #[test]
        fn prop_garbage_column_blocks_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            let _ = decode_columns(&mut Reader::new(&bytes));
        }
    }

    /// The kind [`encode_columns`] must write for an all-`Str` column,
    /// from the two layouts' sizes: kind 3 when the dictionary has at most
    /// [`MAX_DICT_ENTRIES`] entries and is smaller than kind 1's runs.
    fn expected_str_kind(strs: &[&str]) -> u8 {
        let len = |v: usize| varint_len(v as u64);
        let runs: Vec<(usize, &str)> = strs
            .chunk_by(|a, b| a == b)
            .map(|r| (r.len(), r[0]))
            .collect();
        let mut entries: Vec<&str> = Vec::new();
        for &(_, s) in &runs {
            if !entries.contains(&s) {
                entries.push(s);
            }
        }
        let as_runs: usize = runs
            .iter()
            .map(|&(n, s)| len(n) + len(s.len()) + s.len())
            .sum();
        let as_dict = len(entries.len())
            + entries
                .iter()
                .map(|e| len(e.len()) + e.len())
                .sum::<usize>()
            + runs.iter().map(|&(n, _)| len(n) + 1).sum::<usize>();
        if entries.len() <= MAX_DICT_ENTRIES && as_dict < as_runs {
            COL_DICT
        } else {
            COL_STR
        }
    }

    /// A one-column dictionary block from its fields: `count` rows, an
    /// entry count of `n`, the `entries`, and the `(run, index)` runs.
    fn dict_block(count: u64, n: u64, entries: &[Vec<u8>], runs: &[(u64, u64)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(count);
        w.put_varint(1);
        w.put_u8(COL_DICT);
        w.put_varint(n);
        for e in entries {
            w.put_varint(e.len() as u64);
            w.put_raw(e);
        }
        for &(run, index) in runs {
            w.put_varint(run);
            w.put_varint(index);
        }
        w.into_bytes()
    }

    #[test]
    fn a_dictionary_is_written_when_smaller_and_within_its_cap() {
        // 256 rows of a status that changes every row: a dictionary of four
        // entries and one-byte runs and indexes.
        let statuses = ["draft", "active", "deprecated", "retired"];
        let rows: Vec<Row> = (0..256).map(|i| row![statuses[i * 3 % 4]]).collect();
        let bytes = encoded_columns(&rows);
        // count (2) + arity + kind + entries + 4 × (len, bytes) + 256 × (run, index)
        assert_eq!(bytes.len(), 2 + 1 + 1 + 1 + (4 + 5 + 6 + 10 + 7) + 256 * 2);
        assert_eq!(bytes[3], COL_DICT);
        assert_eq!(decoded_columns(&bytes).unwrap(), rows);
        // 127 distinct strings, each twice apart: a dictionary; 128: runs.
        for (distinct, kind) in [(127, COL_DICT), (128, COL_STR)] {
            let rows: Vec<Row> = (0..2 * distinct)
                .map(|i| row![format!("entity_type_def_{}", i % distinct)])
                .collect();
            let bytes = encoded_columns(&rows);
            assert_eq!(bytes[3], kind, "{distinct} distinct strings");
            assert_eq!(decoded_columns(&bytes).unwrap(), rows);
        }
        // Equal sizes keep kind 1: runs of 100, 100, 56 cost 3 × (1 + 1 + 3)
        // either way (1 + 2 × (1 + 3) + 3 × (1 + 1) as a dictionary).
        let rows: Vec<Row> = (0..256)
            .map(|i| row![["Ann", "Joe"][i / 100 % 2]])
            .collect();
        let bytes = encoded_columns(&rows);
        assert_eq!((bytes[3], bytes.len()), (COL_STR, 4 + 15));
        // Empty strings are entries like any other.
        let rows: Vec<Row> = (0..40).map(|i| row![["", "x", "yy"][i % 3]]).collect();
        let bytes = encoded_columns(&rows);
        assert_eq!(bytes[2], COL_DICT);
        assert_eq!(decoded_columns(&bytes).unwrap(), rows);
    }

    #[test]
    fn varint_overflow_and_truncation_are_errors() {
        // Ten continuation bytes never end; an eleventh group has no bits left.
        assert!(Reader::new(&[0xFF; 10]).get_varint().is_err());
        // The tenth byte may carry bit 63 only.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).get_varint().unwrap(), u64::MAX);
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert!(Reader::new(&over)
            .get_varint()
            .unwrap_err()
            .contains("overflows"));
        assert!(Reader::new(&[0x80]).get_varint().is_err());
        assert!(Reader::new(&[]).get_varint().is_err());
    }

    #[test]
    fn extreme_integers_wrap_through_the_delta() {
        let rows: Vec<Row> = [i64::MAX, i64::MIN, -1, i64::MIN, i64::MAX, 0, i64::MAX]
            .into_iter()
            .map(|i| row![i])
            .collect();
        assert_eq!(decoded_columns(&encoded_columns(&rows)).unwrap(), rows);
    }

    #[test]
    fn a_sorted_result_shrinks_to_runs_and_deltas() {
        // 200 rows of (key, begin, end) as a coalesced result has them: one
        // byte per endpoint, one run for the key.
        let rows: Vec<Row> = (0..200i64).map(|i| row!["Ann", 3 * i, 3 * i + 2]).collect();
        let bytes = encoded_columns(&rows);
        // count (2) + arity + kind, run (2), len, "Ann" + 2 × (kind + 200 deltas)
        assert_eq!(bytes.len(), 3 + 1 + 2 + 1 + 3 + 2 * 201);
        assert_eq!(decoded_columns(&bytes).unwrap(), rows);
    }

    #[test]
    fn equal_strings_of_a_run_come_back_as_one_arc() {
        // Different `Arc`s with equal content going in...
        let rows: Vec<Row> = ["a", "a", "a", "b", "a"].map(|s| row![s, 1]).into();
        let back = decoded_columns(&encoded_columns(&rows)).unwrap();
        assert_eq!(back, rows);
        let arc = |i: usize| match back[i].get(0) {
            Value::Str(s) => Arc::clone(s),
            other => panic!("string expected, got {other}"),
        };
        // ...one shared `Arc` per run coming out.
        assert!(Arc::ptr_eq(&arc(0), &arc(1)) && Arc::ptr_eq(&arc(1), &arc(2)));
        assert!(!Arc::ptr_eq(&arc(2), &arc(3)));
    }

    #[test]
    fn null_runs_collapse_and_other_values_do_not() {
        let mut rows: Vec<Row> = (0..100).map(|_| Row::new(vec![Value::Null])).collect();
        rows.push(row![1.5]);
        rows.push(row![1.5]);
        let bytes = encoded_columns(&rows);
        // count, arity, kind, (100, NULL), 2 × (1, tag + f64)
        assert_eq!(bytes.len(), 3 + 2 + 2 * 10);
        assert_eq!(decoded_columns(&bytes).unwrap(), rows);
    }

    /// Satellite: a few bytes must not be able to claim a mountain of rows.
    #[test]
    fn absurd_column_blocks_are_refused_before_allocation() {
        let block = |parts: &[u64], tail: &[u8]| {
            let mut w = Writer::new();
            for &p in parts {
                w.put_varint(p);
            }
            w.put_raw(tail);
            w.into_bytes()
        };
        let err = |bytes: Vec<u8>| decoded_columns(&bytes).unwrap_err();
        // 2^28 rows in a dozen bytes: over the row ceiling.
        assert!(err(block(
            &[1 << 28, 1],
            &[COL_ANY, 0xFF, 0xFF, 0xFF, 0x7F, TAG_NULL]
        ))
        .contains("ceiling"));
        assert!(err(block(&[u64::MAX, 0], &[])).contains("ceiling"));
        // Exactly the ceiling is fine when the bytes back it up.
        let at_ceiling = block(&[MAX_BLOCK_ROWS as u64, 0], &[]);
        assert_eq!(decoded_columns(&at_ceiling).unwrap().len(), MAX_BLOCK_ROWS);
        // More columns than bytes left.
        assert!(err(block(&[1, 5], &[COL_INT, 0])).contains("columns"));
        // Rows × columns over the value ceiling, each under its own.
        let wide = block(&[MAX_BLOCK_ROWS as u64, 65], &[COL_INT; 80]);
        assert!(err(wide).contains("values"));
        // A run of 0, and a run past the rows left.
        assert!(err(block(&[2, 1], &[COL_ANY, 0, TAG_NULL])).contains("run of 0"));
        assert!(err(block(&[2, 1], &[COL_ANY, 3, TAG_NULL])).contains("run of 3"));
        assert!(err(block(&[2, 1], &[COL_STR, 1, 0, 2, 0])).contains("run of 2"));
        // An unknown column kind, invalid UTF-8, a string longer than the input.
        assert!(err(block(&[1, 1], &[9, 0])).contains("column kind"));
        assert!(err(block(&[1, 1], &[COL_STR, 1, 2, 0xC3, 0x28])).contains("UTF-8"));
        assert!(err(block(
            &[1, 1],
            &[COL_STR, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, b'a']
        ))
        .contains("truncated"));
        let mut huge_len = block(&[1, 1], &[COL_STR, 1]);
        huge_len.extend_from_slice(&block(&[u64::MAX], b"a"));
        assert!(err(huge_len).contains("truncated"));
        // Truncation anywhere in a valid block.
        let rows: Vec<Row> = (0..5i64).map(|i| row!["k", i, Value::Null, 0.5]).collect();
        let bytes = encoded_columns(&rows);
        for cut in 0..bytes.len() {
            assert!(
                decode_columns(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }

    fn sample_catalog() -> Catalog {
        let mut works = Table::with_period(
            Schema::of(&[
                ("name", SqlType::Str),
                ("skill", SqlType::Str),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]),
            2,
            3,
        );
        works.push(row!["Ann", "SP", 3, 10]);
        works.push(row!["Joe", "NS", 8, 16]);
        let mut plain = Table::new(Schema::of(&[
            ("x", SqlType::Int),
            ("d", SqlType::Double),
            ("b", SqlType::Bool),
        ]));
        plain.push(row![1, 2.5, true]);
        // SQL DML cannot store NaN (the session layer's conform_row
        // validator rejects it); infinity is the extreme a DML-populated
        // catalog can actually hold. The codec itself stays lossless for
        // every double — see the bit-pattern test below.
        plain.push(Row::new(vec![
            Value::Null,
            Value::Double(f64::INFINITY),
            Value::Bool(false),
        ]));
        let mut c = Catalog::new();
        c.register("works", works);
        c.register("plain", plain);
        c
    }

    /// A catalog as a checkpoint body holds it.
    fn encoded_catalog(catalog: &Catalog) -> Vec<u8> {
        let mut w = Writer::new();
        crate::checkpoint::encode_catalog(&mut w, catalog);
        w.into_bytes()
    }

    fn roundtrip(catalog: &Catalog) -> Catalog {
        let bytes = encoded_catalog(catalog);
        let mut r = Reader::new(&bytes);
        let decoded = decode_catalog(&mut r, 2).unwrap();
        assert!(r.is_empty(), "decode must consume the full encoding");
        decoded
    }

    #[test]
    fn catalog_roundtrip_is_identical() {
        let catalog = sample_catalog();
        let decoded = roundtrip(&catalog);
        let names: Vec<&str> = catalog.table_names().collect();
        assert_eq!(names, decoded.table_names().collect::<Vec<_>>());
        for name in names {
            let (a, b) = (catalog.get(name).unwrap(), decoded.get(name).unwrap());
            assert_eq!(a, b, "{name}: schema/rows/period");
            assert_eq!(a.period_extent(), b.period_extent(), "{name}: extent");
        }
    }

    #[test]
    fn non_finite_doubles_survive_via_bit_pattern() {
        // The value codec is below the ingestion check, so it must stay
        // lossless for every double — NaN included (a future policy change
        // must not silently corrupt bit patterns).
        for d in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let mut w = Writer::new();
            encode_value(&mut w, &Value::Double(d));
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let Value::Double(back) = decode_value(&mut r).unwrap() else {
                panic!("double expected");
            };
            assert_eq!(back.to_bits(), d.to_bits());
        }
        // And through a stored catalog: infinity round-trips.
        let decoded = roundtrip(&sample_catalog());
        let v = decoded.get("plain").unwrap().rows()[1].get(1).clone();
        assert!(matches!(v, Value::Double(d) if d == f64::INFINITY));
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let bytes = encoded_catalog(&sample_catalog());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_catalog(&mut r, 2).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_tags_error() {
        let mut r = Reader::new(&[9]);
        assert!(decode_value(&mut r).unwrap_err().contains("value tag"));
        // A bool byte that is neither 0 nor 1.
        let mut r = Reader::new(&[TAG_BOOL, 7]);
        assert!(decode_value(&mut r).unwrap_err().contains("bool"));
    }

    #[test]
    fn decode_rejects_absurd_row_counts() {
        // With a normal schema, and with a zero-arity schema (whose rows
        // cost zero payload bytes — the guard must not be voided by it).
        for schema in [Schema::of(&[("x", SqlType::Int)]), Schema::default()] {
            // Format 1: a row count.
            let mut w = Writer::new();
            encode_schema(&mut w, &schema);
            w.put_u8(0); // no period
            w.put_u64(1); // version
            w.put_u32(1); // one checkpoint
            w.put_u64(1);
            w.put_u64(0);
            w.put_u64(u64::MAX); // absurd row count
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert!(decode_table(&mut r, 1).unwrap_err().contains("row count"));
            // Format 2: a block count, and a block longer than the rule.
            let mut w = Writer::new();
            encode_row_header(&mut w, &schema, None);
            let header = w.into_bytes();
            let mut w = Writer::new();
            w.put_raw(&header);
            w.put_varint(u64::MAX);
            let bytes = w.into_bytes();
            let err = decode_table(&mut Reader::new(&bytes), 2).unwrap_err();
            assert!(err.contains("truncated"), "{err}");
            let mut w = Writer::new();
            w.put_raw(&header);
            w.put_varint(1);
            let long: Vec<Row> = (0..ROW_BATCH as i64 + 1)
                .map(|i| Row::new((0..schema.arity()).map(|_| Value::Int(i)).collect()))
                .collect();
            encode_columns(&mut w, &long);
            let bytes = w.into_bytes();
            let err = decode_table(&mut Reader::new(&bytes), 2).unwrap_err();
            assert!(err.contains("a block of 257 rows"), "{err}");
        }
    }

    /// The block rule keeps every block of a wide row set under the value
    /// ceiling, and a row set of any width decodes.
    #[test]
    fn wide_tables_are_cut_into_blocks_their_decoder_accepts() {
        assert_eq!(block_rows(0), ROW_BATCH);
        assert_eq!(block_rows(4), ROW_BATCH);
        assert_eq!(block_rows(MAX_BLOCK_VALUES / ROW_BATCH), ROW_BATCH);
        assert_eq!(block_rows(20_000), 209);
        assert_eq!(block_rows(MAX_BLOCK_VALUES + 1), 1);
        let arity = 20_000;
        let schema = Schema::new(
            (0..arity)
                .map(|c| Column::new(format!("c{c}"), SqlType::Int))
                .collect(),
        );
        let mut t = Table::new(schema);
        t.extend((0..210).map(|r| Row::new((0..arity).map(|c| Value::Int(r + c)).collect())));
        assert_eq!(blocks(&t).map(<[Row]>::len).collect::<Vec<_>>(), [209, 1]);
        let mut w = Writer::new();
        encode_table(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_table(&mut r, 2).unwrap(), t);
        assert!(r.is_empty());
    }
}
