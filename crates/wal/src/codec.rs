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
//! Beside the value-at-a-time table encoding sits a *column block*
//! ([`encode_columns`] / [`decode_columns`]): one batch of rows written
//! column by column — delta-coded integers, run-length strings and NULLs —
//! which is what the wire protocol's `RowBatch` carries. This module is
//! the only place that knows that layout.

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
/// ceiling does. (The server streams 256-row batches.)
pub const MAX_BLOCK_ROWS: usize = 1 << 16;

/// Ceiling on `rows × columns` of one column block, for the same reason:
/// what the decoder allocates is bounded by this, not by the input.
pub const MAX_BLOCK_VALUES: usize = 1 << 22;

// Column kinds of a column block (part of the wire format).
/// Every value is an `Int`: zig-zag varint deltas.
const COL_INT: u8 = 0;
/// Every value is a `Str`: runs of equal strings.
const COL_STR: u8 = 1;
/// Anything else: runs of [`encode_value`]s.
const COL_ANY: u8 = 2;

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
///   neighbours;
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
            w.put_u8(COL_STR);
            let mut strs = column().filter_map(Value::as_str).peekable();
            while let Some(s) = strs.next() {
                let mut run = 1u64;
                while strs.next_if(|next| *next == s).is_some() {
                    run += 1;
                }
                w.put_varint(run);
                w.put_varint(s.len() as u64);
                w.put_raw(s.as_bytes());
            }
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

/// Decodes a column block written by [`encode_columns`]. Total: a count
/// above [`MAX_BLOCK_ROWS`], `count × arity` above [`MAX_BLOCK_VALUES`], an
/// arity the remaining bytes cannot hold (a column costs at least its kind
/// byte), an empty or overlong run, an unknown kind, an overflowing varint
/// or invalid UTF-8 are errors, all found before the allocation they would
/// size. The strings of one run share one `Arc<str>`.
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
            other => return Err(format!("invalid column kind {other}")),
        }
    }
    Ok(rows)
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
pub fn encode_schema(w: &mut Writer, schema: &Schema) {
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
pub fn decode_schema(r: &mut Reader) -> Result<Schema, String> {
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

/// Encodes a full table: schema, period spec, version epoch, append
/// checkpoints, and rows.
pub fn encode_table(w: &mut Writer, table: &Table) {
    encode_schema(w, table.schema());
    match table.period() {
        Some((b, e)) => {
            w.put_u8(1);
            w.put_u64(b as u64);
            w.put_u64(e as u64);
        }
        None => w.put_u8(0),
    }
    w.put_u64(table.version());
    let checkpoints = table.append_checkpoints();
    w.put_u32(checkpoints.len() as u32);
    for &(v, len) in checkpoints {
        w.put_u64(v);
        w.put_u64(len as u64);
    }
    w.put_u64(table.len() as u64);
    for row in table.rows() {
        for v in row.values() {
            encode_value(w, v);
        }
    }
}

/// Decodes a table encoded by [`encode_table`], restoring its version
/// epoch and append-checkpoint history (the process-wide epoch counter is
/// advanced past every restored version, keeping staleness checks sound).
pub fn decode_table(r: &mut Reader) -> Result<Table, String> {
    let schema = decode_schema(r)?;
    let period = match r.get_u8()? {
        0 => None,
        1 => {
            let b = r.get_u64()? as usize;
            let e = r.get_u64()? as usize;
            if b >= schema.arity() || e >= schema.arity() {
                return Err(format!(
                    "period columns ({b}, {e}) out of range for arity {}",
                    schema.arity()
                ));
            }
            Some((b, e))
        }
        other => return Err(format!("invalid period flag {other}")),
    };
    let version = r.get_u64()?;
    let n_checkpoints = r.get_u32()? as usize;
    let mut checkpoints = Vec::with_capacity(n_checkpoints.min(1024));
    for _ in 0..n_checkpoints {
        let v = r.get_u64()?;
        let len = r.get_u64()? as usize;
        checkpoints.push((v, len));
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
        let mut values = Vec::with_capacity(schema.arity());
        for _ in 0..schema.arity() {
            values.push(decode_value(r)?);
        }
        rows.push(Row::new(values));
    }
    Table::restore(schema, period, rows, version, checkpoints)
}

/// Encodes a catalog: table count, then `(name, table)` pairs in the
/// catalog's (sorted) iteration order.
pub fn encode_catalog(w: &mut Writer, catalog: &Catalog) {
    // Collect the pairs first so the count prefix stays exact even if a
    // listed name were ever to miss its table (impossible today — both
    // come from the same map — but the encoder must not be able to panic).
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

/// Decodes a catalog encoded by [`encode_catalog`].
pub fn decode_catalog(r: &mut Reader) -> Result<Catalog, String> {
    let n = r.get_u32()? as usize;
    let mut catalog = Catalog::new();
    for _ in 0..n {
        let name = r.get_str()?;
        let table = decode_table(r)?;
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
                prop_assert!(bytes.len() <= 10);
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(r.get_varint().unwrap(), v);
                prop_assert!(r.is_empty());
            }
        }

        /// Garbage never panics the block decoder, whatever it claims.
        #[test]
        fn prop_garbage_column_blocks_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            let _ = decode_columns(&mut Reader::new(&bytes));
        }
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

    fn roundtrip(catalog: &Catalog) -> Catalog {
        let mut w = Writer::new();
        encode_catalog(&mut w, catalog);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = decode_catalog(&mut r).unwrap();
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
            assert_eq!(a.version(), b.version(), "{name}: version epoch");
            assert_eq!(
                a.append_checkpoints(),
                b.append_checkpoints(),
                "{name}: append checkpoints"
            );
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
        let mut w = Writer::new();
        encode_catalog(&mut w, &sample_catalog());
        let bytes = w.into_bytes();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_catalog(&mut r).is_err(), "cut at {cut}");
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
            assert!(decode_table(&mut r).unwrap_err().contains("row count"));
        }
    }
}
