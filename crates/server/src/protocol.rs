//! The wire protocol: length-prefixed, CRC32-framed binary messages.
//!
//! Every message travels as one frame, using the exact framing idiom of
//! the write-ahead log (`snapshot_wal::log`):
//!
//! ```text
//! [payload_len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! and the payload is `[tag: u8][body]`, with the body encoded by the
//! same bounds-checked little-endian codec the WAL uses
//! ([`snapshot_wal::codec`]). A result set travels as that codec's row
//! set: the [`Frame::RowHeader`] body is its row header
//! ([`snapshot_wal::codec::encode_row_header`]) and each
//! [`Frame::RowBatch`] body one *column block*
//! ([`snapshot_wal::codec::encode_columns`]) — byte for byte how a
//! checkpoint stores a table. A result arrives sorted by (key, begin,
//! end), so its columns are runs of equal strings and slowly rising
//! integers, which a column block stores as runs and deltas (protocol
//! version 2); a string column whose few distinct values recur away from
//! their equal neighbours is stored as a dictionary of them (version 3).
//! A frame longer than
//! [`MAX_FRAME`] is refused before allocation (a corrupt or hostile
//! length prefix must not OOM the peer), a CRC mismatch is refused before
//! decoding, a row batch claiming more rows than
//! [`snapshot_wal::codec::MAX_BLOCK_ROWS`] is refused before its rows are
//! allocated, and every decode path returns an error rather than
//! panicking — the same standard the WAL codec is held to.
//!
//! Each frame is built once, header and payload in one buffer, and handed
//! to the socket in one write; [`write_rowset`] streams a whole result
//! that way from the borrowed rows of the executor's table.
//!
//! ## Conversation shape
//!
//! The protocol is strictly request → response-stream:
//!
//! 1. client: [`Frame::Hello`] — server: [`Frame::Welcome`] (or
//!    [`Frame::Error`] + close on a version mismatch).
//! 2. client: one of [`Frame::Query`] / [`Frame::Meta`] /
//!    [`Frame::SetOption`] — server: a response sequence terminated by
//!    [`Frame::Ready`]:
//!    * per result-set: [`Frame::RowHeader`], zero or more
//!      [`Frame::RowBatch`]es, [`Frame::RowEnd`];
//!    * per non-row statement: [`Frame::Done`];
//!    * on failure: [`Frame::Error`] (statement error) or
//!      [`Frame::Cancelled`] (timeout / kill / resource limit — the
//!      connection stays usable);
//! 3. client: [`Frame::Close`] — server: [`Frame::Goodbye`], then both
//!    sides drop the socket. [`Frame::Shutdown`] additionally asks the
//!    whole server to shut down gracefully after the goodbye; a server
//!    honours it from a loopback peer only, and answers any other peer
//!    with [`Frame::Error`] and [`Frame::Ready`], its connection open.

use snapshot_wal::codec::{blocks, decode_columns, decode_row_header, encode_columns};
use snapshot_wal::codec::{encode_row_header, header_period, Reader, Writer};
use snapshot_wal::crc32;
use std::io::{Read, Write};
use storage::{Row, Schema, Table};

pub use snapshot_wal::codec::ROW_BATCH;

/// Protocol version spoken by this build; the handshake refuses a client
/// whose version differs. (1 → 2: [`Frame::RowBatch`] became a column
/// block; 2 → 3: a column block may hold a string dictionary.)
pub const PROTOCOL_VERSION: u32 = 3;

/// Hard ceiling on one frame's payload size (matches the WAL's own
/// guard): a corrupt length prefix must not trigger an absurd allocation.
pub const MAX_FRAME: u32 = 1 << 28;

/// One protocol message. See the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: protocol version + a free-form client name.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        protocol_version: u32,
        /// Client software name, for diagnostics.
        client: String,
    },
    /// Server handshake reply: the server's version and the session id
    /// this connection got (the `.kill` / `snapshot_cancel` target).
    Welcome {
        /// The server's protocol version.
        protocol_version: u32,
        /// Server software name, for diagnostics.
        server: String,
        /// The connection's live-activity session id.
        session_id: u64,
    },
    /// Execute a `;`-separated SQL script in the connection's session.
    Query {
        /// The script text.
        sql: String,
    },
    /// Execute a shell meta command (without the leading dot) server-side.
    Meta {
        /// e.g. `"tables"`, `"kill 7"`, `"timeout 250"`.
        command: String,
    },
    /// Set a session option without going through SQL.
    SetOption {
        /// Option name (the `SET` names: `statement_timeout`,
        /// `max_rows_scanned`, …).
        name: String,
        /// Option value (a number, or `off`).
        value: String,
    },
    /// Clean close; the server answers [`Frame::Goodbye`].
    Close,
    /// Ask the server to shut down gracefully (stop accepting, cancel
    /// in-flight statements, checkpoint, exit 0). Honoured from a
    /// loopback peer only; any other gets [`Frame::Error`].
    Shutdown,
    /// A non-row statement result or meta-command output.
    Done {
        /// Rendered summary (`INSERT 3 INTO works`, meta output text, …).
        summary: String,
    },
    /// Start of one streamed result set.
    RowHeader {
        /// The result schema.
        schema: Schema,
        /// The result's period column pair, if it is a period relation.
        period: Option<(u32, u32)>,
    },
    /// A batch of result rows, all of one arity
    /// ([`snapshot_wal::codec::block_rows`] per frame from the server —
    /// [`ROW_BATCH`] unless the rows are very wide; the decoder's ceiling
    /// is [`snapshot_wal::codec::MAX_BLOCK_ROWS`]).
    RowBatch {
        /// The rows.
        rows: Vec<Row>,
    },
    /// End of one streamed result set.
    RowEnd {
        /// Total rows streamed for this result set.
        rows: u64,
    },
    /// Statement or protocol error; the connection stays usable.
    Error {
        /// The error text.
        message: String,
    },
    /// The statement was cooperatively cancelled (timeout, kill, resource
    /// limit); the connection stays usable.
    Cancelled {
        /// The cancellation reason.
        reason: String,
    },
    /// The request is fully processed; the client may send the next one.
    Ready {
        /// Whether the session has an explicit transaction open (drives
        /// the remote shell's `*` prompt).
        in_txn: bool,
    },
    /// Farewell: the server is dropping this connection cleanly.
    Goodbye,
}

const TAG_HELLO: u8 = 0x01;
const TAG_QUERY: u8 = 0x02;
const TAG_META: u8 = 0x03;
const TAG_SET_OPTION: u8 = 0x04;
const TAG_CLOSE: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;
const TAG_WELCOME: u8 = 0x10;
const TAG_DONE: u8 = 0x11;
const TAG_ROW_HEADER: u8 = 0x12;
const TAG_ROW_BATCH: u8 = 0x13;
const TAG_ROW_END: u8 = 0x14;
const TAG_ERROR: u8 = 0x15;
const TAG_CANCELLED: u8 = 0x16;
const TAG_READY: u8 = 0x17;
const TAG_GOODBYE: u8 = 0x18;

/// Length of the `[payload_len][crc32]` header in front of every payload.
const HEADER_LEN: usize = 8;

fn put_row_header(w: &mut Writer, schema: &Schema, period: Option<(u32, u32)>) {
    w.put_u8(TAG_ROW_HEADER);
    encode_row_header(w, schema, period);
}

fn put_row_batch(w: &mut Writer, rows: &[Row]) {
    w.put_u8(TAG_ROW_BATCH);
    encode_columns(w, rows);
}

fn put_row_end(w: &mut Writer, rows: u64) {
    w.put_u8(TAG_ROW_END);
    w.put_u64(rows);
}

impl Frame {
    /// Encode the payload (`[tag][body]`, without the length/CRC header).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    fn encode_into(&self, w: &mut Writer) {
        match self {
            Frame::Hello {
                protocol_version,
                client,
            } => {
                w.put_u8(TAG_HELLO);
                w.put_u32(*protocol_version);
                w.put_str(client);
            }
            Frame::Welcome {
                protocol_version,
                server,
                session_id,
            } => {
                w.put_u8(TAG_WELCOME);
                w.put_u32(*protocol_version);
                w.put_str(server);
                w.put_u64(*session_id);
            }
            Frame::Query { sql } => {
                w.put_u8(TAG_QUERY);
                w.put_str(sql);
            }
            Frame::Meta { command } => {
                w.put_u8(TAG_META);
                w.put_str(command);
            }
            Frame::SetOption { name, value } => {
                w.put_u8(TAG_SET_OPTION);
                w.put_str(name);
                w.put_str(value);
            }
            Frame::Close => w.put_u8(TAG_CLOSE),
            Frame::Shutdown => w.put_u8(TAG_SHUTDOWN),
            Frame::Done { summary } => {
                w.put_u8(TAG_DONE);
                w.put_str(summary);
            }
            Frame::RowHeader { schema, period } => put_row_header(w, schema, *period),
            Frame::RowBatch { rows } => put_row_batch(w, rows),
            Frame::RowEnd { rows } => put_row_end(w, *rows),
            Frame::Error { message } => {
                w.put_u8(TAG_ERROR);
                w.put_str(message);
            }
            Frame::Cancelled { reason } => {
                w.put_u8(TAG_CANCELLED);
                w.put_str(reason);
            }
            Frame::Ready { in_txn } => {
                w.put_u8(TAG_READY);
                w.put_u8(u8::from(*in_txn));
            }
            Frame::Goodbye => w.put_u8(TAG_GOODBYE),
        }
    }

    /// Decode a payload produced by [`Frame::encode`]. Fallible on every
    /// byte: torn, truncated, or bit-flipped payloads error, never panic.
    pub fn decode(payload: &[u8]) -> Result<Frame, String> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                protocol_version: r.get_u32()?,
                client: r.get_str()?,
            },
            TAG_WELCOME => Frame::Welcome {
                protocol_version: r.get_u32()?,
                server: r.get_str()?,
                session_id: r.get_u64()?,
            },
            TAG_QUERY => Frame::Query { sql: r.get_str()? },
            TAG_META => Frame::Meta {
                command: r.get_str()?,
            },
            TAG_SET_OPTION => Frame::SetOption {
                name: r.get_str()?,
                value: r.get_str()?,
            },
            TAG_CLOSE => Frame::Close,
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_DONE => Frame::Done {
                summary: r.get_str()?,
            },
            TAG_ROW_HEADER => {
                let (schema, period) = decode_row_header(&mut r)?;
                Frame::RowHeader { schema, period }
            }
            TAG_ROW_BATCH => Frame::RowBatch {
                rows: decode_columns(&mut r)?,
            },
            TAG_ROW_END => Frame::RowEnd { rows: r.get_u64()? },
            TAG_ERROR => Frame::Error {
                message: r.get_str()?,
            },
            TAG_CANCELLED => Frame::Cancelled {
                reason: r.get_str()?,
            },
            TAG_READY => Frame::Ready {
                in_txn: match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("invalid in_txn flag {other}")),
                },
            },
            TAG_GOODBYE => Frame::Goodbye,
            other => return Err(format!("unknown frame tag 0x{other:02x}")),
        };
        if !r.is_empty() {
            return Err(format!("{} trailing byte(s) after frame", r.remaining()));
        }
        Ok(frame)
    }
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// The underlying socket failed (including read timeouts).
    Io(std::io::Error),
    /// The bytes arrived but are not a valid frame (bad length, CRC
    /// mismatch, undecodable payload).
    Corrupt(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::Io(e) => write!(f, "socket error: {e}"),
            ReadError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
        }
    }
}

/// One frame's wire image (`len + crc + payload`) in `buf`'s allocation:
/// the header's room is reserved first, `payload` writes behind it, and the
/// length and checksum are patched in once they are known — the payload is
/// never copied.
fn frame_image(buf: Vec<u8>, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::reusing(buf);
    w.put_raw(&[0; HEADER_LEN]);
    payload(&mut w);
    let mut image = w.into_bytes();
    if let Some((header, payload)) = image.split_first_chunk_mut::<HEADER_LEN>() {
        debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
        let [l0, l1, l2, l3] = (payload.len() as u32).to_le_bytes();
        let [c0, c1, c2, c3] = crc32(payload).to_le_bytes();
        *header = [l0, l1, l2, l3, c0, c1, c2, c3];
    }
    image
}

/// Write one frame (`len + crc + payload`); returns the bytes written.
pub fn write_frame<W: Write>(out: &mut W, frame: &Frame) -> std::io::Result<usize> {
    let image = frame_image(Vec::new(), |w| frame.encode_into(w));
    out.write_all(&image)?;
    Ok(image.len())
}

/// Stream `table` as one result set — `RowHeader`, `RowBatch`es of
/// [`snapshot_wal::codec::block_rows`] rows, `RowEnd` — straight from its
/// borrowed rows: every frame
/// is encoded into one reused buffer and written with one `write_all`.
/// Byte for byte what [`write_frame`] over [`rowset_frames`] sends, without
/// cloning a row. Returns the bytes written; the first failed write ends
/// the stream.
pub fn write_rowset<W: Write>(out: &mut W, table: &Table) -> std::io::Result<usize> {
    let mut buf = Vec::new();
    let mut written = 0;
    let mut send = |payload: &dyn Fn(&mut Writer)| -> std::io::Result<()> {
        buf = frame_image(std::mem::take(&mut buf), payload);
        written += buf.len();
        out.write_all(&buf)
    };
    send(&|w| put_row_header(w, table.schema(), header_period(table)))?;
    for block in blocks(table) {
        send(&|w| put_row_batch(w, block))?;
    }
    send(&|w| put_row_end(w, table.len() as u64))?;
    Ok(written)
}

/// Read one frame; returns the frame and the bytes consumed.
///
/// [`ReadError::Eof`] only when the stream ends *between* frames — a
/// stream dying mid-frame is [`ReadError::Io`] (the peer was torn away),
/// and bytes that fail the length guard, the CRC, or the decode are
/// [`ReadError::Corrupt`].
pub fn read_frame<R: Read>(input: &mut R) -> Result<(Frame, usize), ReadError> {
    let mut header = [0u8; 8];
    // Distinguish clean EOF (zero bytes of a new frame) from a torn one.
    let mut got = 0;
    while got < header.len() {
        // lint:allow(panic_freedom) `got < header.len()` by the loop condition
        match input.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(ReadError::Eof),
            Ok(0) => {
                return Err(ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_FRAME {
        return Err(ReadError::Corrupt(format!(
            "frame length {len} exceeds maximum {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload).map_err(ReadError::Io)?;
    if crc32(&payload) != crc {
        return Err(ReadError::Corrupt("CRC mismatch".into()));
    }
    let frame = Frame::decode(&payload).map_err(ReadError::Corrupt)?;
    Ok((frame, 8 + payload.len()))
}

/// The frame sequence [`write_rowset`] streams for `table`, as owned
/// [`Frame`]s (which costs a clone of every row — for callers that want
/// the frames themselves; the server does not).
pub fn rowset_frames(table: &Table) -> Vec<Frame> {
    let mut frames = vec![Frame::RowHeader {
        schema: table.schema().clone(),
        period: header_period(table),
    }];
    for block in blocks(table) {
        frames.push(Frame::RowBatch {
            rows: block.to_vec(),
        });
    }
    frames.push(Frame::RowEnd {
        rows: table.len() as u64,
    });
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use storage::{SqlType, Value};

    fn sample_schema() -> Schema {
        Schema::of(&[
            ("name", SqlType::Str),
            ("n", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            Row::new(vec![
                Value::str("Ann"),
                Value::Int(1),
                Value::Int(3),
                Value::Int(10),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Double(2.5),
                Value::Bool(true),
                Value::Int(-7),
            ]),
        ]
    }

    /// `n` rows shaped like a coalesced result: string runs, a NULL run, a
    /// double column, rising period endpoints.
    fn run_rows(n: usize) -> Vec<Row> {
        (0..n as i64)
            .map(|i| {
                Row::new(vec![
                    Value::str(["Ann", "Joe", "Žofie"][(i / 100) as usize % 3]),
                    if i % 64 < 40 {
                        Value::Null
                    } else {
                        Value::Double(i as f64 / 7.0)
                    },
                    Value::Int(2 * i),
                    Value::Int(2 * i + 5),
                ])
            })
            .collect()
    }

    fn run_table(n: usize, period: bool) -> Table {
        let mut t = if period {
            Table::with_period(sample_schema(), 2, 3)
        } else {
            Table::new(sample_schema())
        };
        t.extend(run_rows(n));
        t
    }

    /// One representative of every frame type, for exhaustive coverage.
    fn one_of_each() -> Vec<Frame> {
        vec![
            Frame::Hello {
                protocol_version: PROTOCOL_VERSION,
                client: "snapshot_db".into(),
            },
            Frame::Welcome {
                protocol_version: PROTOCOL_VERSION,
                server: "snapshot_server".into(),
                session_id: 42,
            },
            Frame::Query {
                sql: "SEQ VT (SELECT count(*) AS c FROM works);".into(),
            },
            Frame::Meta {
                command: "tables".into(),
            },
            Frame::SetOption {
                name: "statement_timeout".into(),
                value: "250".into(),
            },
            Frame::Close,
            Frame::Shutdown,
            Frame::Done {
                summary: "INSERT 3 INTO works".into(),
            },
            Frame::RowHeader {
                schema: sample_schema(),
                period: Some((2, 3)),
            },
            Frame::RowHeader {
                schema: sample_schema(),
                period: None,
            },
            Frame::RowBatch {
                rows: sample_rows(),
            },
            Frame::RowBatch { rows: Vec::new() },
            Frame::RowBatch { rows: run_rows(40) },
            Frame::RowEnd { rows: 31337 },
            Frame::Error {
                message: "unknown table 'nope'".into(),
            },
            Frame::Cancelled {
                reason: "statement timeout (250 ms) exceeded".into(),
            },
            Frame::Ready { in_txn: true },
            Frame::Ready { in_txn: false },
            Frame::Goodbye,
        ]
    }

    #[test]
    fn every_frame_type_round_trips_through_payload_and_wire() {
        for frame in one_of_each() {
            let payload = frame.encode();
            assert_eq!(Frame::decode(&payload).unwrap(), frame, "{frame:?}");
            // And through the framed stream form.
            let mut wire = Vec::new();
            let wrote = write_frame(&mut wire, &frame).unwrap();
            assert_eq!(wrote, wire.len());
            let (back, read) = read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(back, frame);
            assert_eq!(read, wire.len());
        }
    }

    #[test]
    fn rowset_frames_stream_header_batches_end() {
        let mut t = Table::with_period(sample_schema(), 2, 3);
        for i in 0..(ROW_BATCH + 3) {
            t.push(Row::new(vec![
                Value::str("x"),
                Value::Int(i as i64),
                Value::Int(0),
                Value::Int(5),
            ]));
        }
        let frames = rowset_frames(&t);
        assert!(matches!(
            frames[0],
            Frame::RowHeader {
                period: Some((2, 3)),
                ..
            }
        ));
        assert_eq!(frames.len(), 4, "header + 2 batches + end");
        assert!(matches!(frames[3], Frame::RowEnd { rows } if rows == (ROW_BATCH + 3) as u64));
    }

    /// What the server sends (`write_rowset`, from borrowed rows) is byte
    /// for byte `write_frame` over `rowset_frames` — so a caller holding
    /// the frames measures the bytes and frame count of the real path.
    #[test]
    fn write_rowset_is_write_frame_over_rowset_frames() {
        for (n, period) in [
            (0, true),
            (1, false),
            (ROW_BATCH, true),
            (ROW_BATCH + 1, true),
            (3 * ROW_BATCH + 17, false),
        ] {
            let table = run_table(n, period);
            let mut streamed = Vec::new();
            let wrote = write_rowset(&mut streamed, &table).unwrap();
            assert_eq!(wrote, streamed.len());
            let mut framed = Vec::new();
            for frame in rowset_frames(&table).iter() {
                write_frame(&mut framed, frame).unwrap();
            }
            assert_eq!(streamed, framed, "{n} rows");
        }
    }

    /// Each batch stands alone: the deltas restart from 0 and a string run
    /// ends at the batch boundary, so a frame decodes without its
    /// neighbours — at exactly one batch and one row over.
    #[test]
    fn batches_at_the_row_batch_boundary_decode_alone() {
        for n in [ROW_BATCH, ROW_BATCH + 1] {
            let table = run_table(n, true);
            let mut rows: Vec<Row> = Vec::new();
            let frames = rowset_frames(&table);
            assert_eq!(frames.len(), 2 + n.div_ceil(ROW_BATCH));
            for frame in &frames {
                let back = Frame::decode(&frame.encode()).unwrap();
                assert_eq!(&back, frame);
                if let Frame::RowBatch { rows: batch } = back {
                    assert!(batch.len() <= ROW_BATCH);
                    rows.extend(batch);
                }
            }
            assert_eq!(rows, table.rows());
        }
    }

    /// A checkpoint stores a table in the wire's layout: after the table's
    /// name come its `RowHeader` body, the block count and each `RowBatch`
    /// body, byte for byte.
    #[test]
    fn a_checkpointed_table_is_its_row_header_then_its_row_batches() {
        let table = run_table(3 * ROW_BATCH + 17, true);
        let mut catalog = storage::Catalog::new();
        catalog.register("t", table.clone());
        let dir = std::env::temp_dir().join(format!("snapshot_layout_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = snapshot_wal::write_checkpoint(&dir, 1, 0, &catalog).unwrap();
        let file = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // Magic, format, CRC and body length; seq and covered LSN; the
        // table count; the name "t".
        let table_at = 24 + 16 + 4 + 4 + 1;
        let payloads: Vec<Vec<u8>> = rowset_frames(&table).iter().map(Frame::encode).collect();
        let (header, rest) = payloads.split_first().unwrap();
        let batches = &rest[..rest.len() - 1];
        assert_eq!(batches.len(), 4);
        let mut want = Writer::new();
        want.put_raw(&header[1..]);
        want.put_varint(batches.len() as u64);
        for batch in batches {
            want.put_raw(&batch[1..]);
        }
        assert_eq!(&file[table_at..], want.into_bytes().as_slice());
    }

    /// A `RowHeader` whose period is not two distinct INT columns of its
    /// own schema is a decode error: the client builds a period table
    /// from it.
    #[test]
    fn row_header_period_is_checked_against_its_schema() {
        for (period, why) in [
            ((7, 9), "out of range"),
            ((2, 4), "out of range"),
            ((0, 3), "must be INT"),
            ((2, 2), "distinct"),
        ] {
            let payload = Frame::RowHeader {
                schema: sample_schema(),
                period: Some(period),
            }
            .encode();
            let err = Frame::decode(&payload).unwrap_err();
            assert!(err.contains(why), "{period:?}: {err}");
        }
    }

    /// Run-length batches cost O(1) bytes per run, so bytes remaining no
    /// longer bound the rows a frame may claim; the ceiling does.
    #[test]
    fn absurd_row_count_and_run_length_are_refused_before_allocation() {
        let batch = |parts: &[u64], tail: &[u8]| {
            let mut w = Writer::new();
            w.put_u8(TAG_ROW_BATCH);
            for &p in parts {
                w.put_varint(p);
            }
            w.put_raw(tail);
            w.into_bytes()
        };
        // A 14-byte payload claiming 2^28 rows as one NULL run.
        let bomb = batch(&[1 << 28, 1], &[2, 0x80, 0x80, 0x80, 0x80, 0x01, 0]);
        assert_eq!(bomb.len(), 14);
        assert!(Frame::decode(&bomb).unwrap_err().contains("ceiling"));
        // Under the row ceiling, a run longer than the batch.
        let overrun = batch(&[4, 1], &[2, 5, 0]);
        assert!(Frame::decode(&overrun).unwrap_err().contains("run of 5"));
        // An empty run would never finish the column.
        let stall = batch(&[4, 1], &[2, 0, 0]);
        assert!(Frame::decode(&stall).unwrap_err().contains("run of 0"));
        // More columns than bytes; a varint that overflows; trailing bytes.
        assert!(Frame::decode(&batch(&[1, 1 << 20], &[0, 0])).is_err());
        assert!(Frame::decode(&batch(&[], &[0xFF; 11])).is_err());
        let trailing = batch(&[1, 1], &[0, 2, 0]);
        assert!(Frame::decode(&trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn truncated_wire_frames_error_never_panic() {
        for frame in one_of_each() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            for cut in 0..wire.len() {
                let torn = &wire[..cut];
                match read_frame(&mut &torn[..]) {
                    Err(_) => {}
                    Ok((f, _)) => panic!("torn frame decoded as {f:?}"),
                }
            }
        }
    }

    #[test]
    fn truncated_payloads_error_never_panic() {
        for frame in one_of_each() {
            let payload = frame.encode();
            for cut in 0..payload.len() {
                assert!(
                    Frame::decode(&payload[..cut]).is_err(),
                    "truncated {frame:?} at {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn absurd_length_prefix_is_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(ReadError::Corrupt(e)) => assert!(e.contains("exceeds maximum"), "{e}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// Random printable-ASCII strings (the shim has no regex strategies).
    fn ascii(max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(32u8..127, 0..max)
            .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
    }

    proptest! {
        /// Random frames of every type survive the round trip.
        #[test]
        fn prop_round_trip(
            which in 0usize..8,
            text in ascii(80),
            n in 0u64..u64::MAX,
            flag in (0u8..2).prop_map(|b| b == 1),
            ints in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 0..12),
        ) {
            let frame = match which {
                0 => Frame::Hello { protocol_version: n as u32, client: text.clone() },
                1 => Frame::Welcome { protocol_version: n as u32, server: text.clone(), session_id: n },
                2 => Frame::Query { sql: text.clone() },
                3 => Frame::Meta { command: text.clone() },
                4 => Frame::SetOption { name: text.clone(), value: n.to_string() },
                5 => Frame::RowBatch {
                    rows: ints
                        .iter()
                        .map(|&i| Row::new(vec![
                            Value::Int(i),
                            if flag { Value::str(&text) } else { Value::Null },
                            Value::Double(i as f64 / 3.0),
                        ]))
                        .collect(),
                },
                6 => Frame::RowEnd { rows: n },
                _ => Frame::Ready { in_txn: flag },
            };
            let payload = frame.encode();
            prop_assert_eq!(Frame::decode(&payload).unwrap(), frame.clone());
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let (back, _) = read_frame(&mut wire.as_slice()).unwrap();
            prop_assert_eq!(back, frame);
        }

        /// A single flipped bit anywhere in the wire image must surface as
        /// an error (usually the CRC), never a panic or a silent
        /// mis-decode into the original frame.
        #[test]
        fn prop_bit_flips_are_detected(
            which in 0usize..5,
            text in ascii(40),
            byte_seed in 0u64..1_000_000_000,
            bit in 0usize..8,
        ) {
            let frame = match which {
                0 => Frame::Query { sql: text.clone() },
                1 => Frame::Done { summary: text.clone() },
                2 => Frame::Error { message: text.clone() },
                3 => Frame::Cancelled { reason: text.clone() },
                _ => Frame::RowBatch { rows: run_rows(text.len()) },
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let idx = (byte_seed as usize) % wire.len();
            wire[idx] ^= 1 << bit;
            match read_frame(&mut wire.as_slice()) {
                Err(_) => {}
                // A flip in the length prefix can only "succeed" by
                // shortening the frame; the CRC then rejects it, so any
                // Ok here must at least not equal the original.
                Ok((back, _)) => prop_assert_ne!(back, frame),
            }
        }

        /// Arbitrary garbage payloads never panic the decoder.
        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
            let _ = Frame::decode(&bytes);
            let _ = read_frame(&mut bytes.as_slice());
            // And as the body of a row batch, the one frame with structure
            // a length prefix does not bound.
            let mut batch = vec![TAG_ROW_BATCH];
            batch.extend_from_slice(&bytes);
            let _ = Frame::decode(&batch);
        }
    }
}
