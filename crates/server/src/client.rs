//! The client side of the wire protocol: [`Client`] connects, handshakes,
//! and exposes typed request/response methods over the framed stream.
//!
//! One request maps to one response *sequence*: a query produces zero or
//! more result sets (each `RowHeader`/`RowBatch…`/`RowEnd` or a `Done`
//! summary, one per statement in the script) terminated by `Ready`; meta
//! commands and option sets produce a single `Done`/`Error` plus `Ready`.
//! [`Client::query`] collects the whole sequence into [`RemoteResult`]s.

use crate::protocol::{read_frame, write_frame, Frame, ReadError, PROTOCOL_VERSION};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use storage::Table;

/// One statement's outcome, as seen over the wire.
#[derive(Debug, Clone)]
pub enum RemoteResult {
    /// A result set, reassembled from the streamed row batches.
    Rows(Table),
    /// A non-query statement's one-line summary.
    Done(String),
}

/// A client-side error.
#[derive(Debug, Clone)]
pub enum RemoteError {
    /// The server reported a statement error.
    Server(String),
    /// The server cancelled the statement (timeout, resource limit, or an
    /// explicit `snapshot_cancel`); the connection is still usable.
    Cancelled(String),
    /// The connection itself failed (I/O, corruption, protocol breach).
    Connection(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Server(m) => write!(f, "{m}"),
            RemoteError::Cancelled(m) => write!(f, "{m}"),
            RemoteError::Connection(m) => write!(f, "connection error: {m}"),
        }
    }
}

impl From<ReadError> for RemoteError {
    fn from(e: ReadError) -> Self {
        RemoteError::Connection(e.to_string())
    }
}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        RemoteError::Connection(e.to_string())
    }
}

/// A query's full response: per-statement results plus whether the
/// session is left inside an open transaction (drives the shell's `*`
/// prompt).
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub results: Vec<RemoteResult>,
    /// The first statement error/cancellation, if any (the server stops
    /// the script there; earlier statements' results still arrive).
    pub error: Option<RemoteError>,
    pub in_txn: bool,
}

/// Size of the client's read buffer: several whole [`Frame::RowBatch`]es.
const READ_BUFFER: usize = 64 << 10;

/// A connection to a `snapshot_server`, post-handshake.
#[derive(Debug)]
pub struct Client {
    /// The write half.
    stream: TcpStream,
    /// The read half: a clone of `stream` behind one buffer, so a frame's
    /// header and payload — and the small frames around a result — come
    /// out of one `read` instead of two each.
    reader: BufReader<TcpStream>,
    /// The server-assigned session id (the one `snapshot_stat_activity`
    /// and `snapshot_cancel(id)` use).
    pub session_id: u64,
    /// The server's name/version string from the handshake.
    pub server: String,
}

impl Client {
    /// Connect and handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, RemoteError> {
        let stream = TcpStream::connect(addr)?;
        Client::handshake(stream)
    }

    /// Connect with a timeout on the TCP dial (the handshake itself uses
    /// the default blocking reads).
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> Result<Client, RemoteError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::handshake(stream)
    }

    fn handshake(mut stream: TcpStream) -> Result<Client, RemoteError> {
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::with_capacity(READ_BUFFER, stream.try_clone()?);
        write_frame(
            &mut stream,
            &Frame::Hello {
                protocol_version: PROTOCOL_VERSION,
                client: format!("snapshot_db/{}", env!("CARGO_PKG_VERSION")),
            },
        )?;
        match read_frame(&mut reader)? {
            (
                Frame::Welcome {
                    protocol_version,
                    server,
                    session_id,
                },
                _,
            ) => {
                if protocol_version != PROTOCOL_VERSION {
                    return Err(RemoteError::Connection(format!(
                        "protocol version mismatch: client {PROTOCOL_VERSION}, \
                         server {protocol_version}"
                    )));
                }
                Ok(Client {
                    stream,
                    reader,
                    session_id,
                    server,
                })
            }
            (Frame::Error { message }, _) => Err(RemoteError::Server(message)),
            (other, _) => Err(RemoteError::Connection(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// Run a SQL script (one or more `;`-separated statements) and collect
    /// every statement's result. A statement error stops the script
    /// server-side and lands in [`QueryResponse::error`]; a *connection*
    /// error is returned as `Err` and poisons the client.
    pub fn query(&mut self, sql: &str) -> Result<QueryResponse, RemoteError> {
        write_frame(
            &mut self.stream,
            &Frame::Query {
                sql: sql.to_string(),
            },
        )?;
        self.collect_response()
    }

    /// Run a shell meta command (e.g. `.tables`, `.metrics`) remotely and
    /// return its rendered output.
    pub fn meta(&mut self, command: &str) -> Result<QueryResponse, RemoteError> {
        write_frame(
            &mut self.stream,
            &Frame::Meta {
                command: command.to_string(),
            },
        )?;
        self.collect_response()
    }

    /// Set a session option by name (`statement_timeout`, `parallelism`,
    /// `max_rows_scanned`, `max_result_rows`, `slow_query_ms`); the value
    /// is a number or `off`.
    pub fn set_option(&mut self, name: &str, value: &str) -> Result<QueryResponse, RemoteError> {
        write_frame(
            &mut self.stream,
            &Frame::SetOption {
                name: name.to_string(),
                value: value.to_string(),
            },
        )?;
        self.collect_response()
    }

    /// Close the connection cleanly (Close → Goodbye).
    pub fn close(mut self) -> Result<(), RemoteError> {
        write_frame(&mut self.stream, &Frame::Close)?;
        loop {
            match read_frame(&mut self.reader) {
                Ok((Frame::Goodbye, _)) | Err(ReadError::Eof) => return Ok(()),
                Ok(_) => continue, // drain whatever was still in flight
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Ask the server to shut down gracefully, then close this connection.
    pub fn shutdown_server(mut self) -> Result<(), RemoteError> {
        write_frame(&mut self.stream, &Frame::Shutdown)?;
        loop {
            match read_frame(&mut self.reader) {
                Ok((Frame::Goodbye, _)) | Err(ReadError::Eof) => return Ok(()),
                Ok(_) => continue,
                Err(ReadError::Io(_)) => return Ok(()), // racing the server's exit
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Read one response sequence: result sets / summaries / errors until
    /// the terminating `Ready` (or `Goodbye`, for `.quit` over Meta).
    fn collect_response(&mut self) -> Result<QueryResponse, RemoteError> {
        let mut results = Vec::new();
        let mut error = None;
        // The result set being streamed; batches land in it as they arrive.
        let mut pending: Option<Table> = None;
        loop {
            match read_frame(&mut self.reader)?.0 {
                Frame::RowHeader { schema, period } => {
                    // `Frame::decode` has checked the pair against the schema.
                    pending = Some(match period {
                        Some((b, e)) => Table::with_period(schema, b as usize, e as usize),
                        None => Table::new(schema),
                    });
                }
                Frame::RowBatch { rows } => pending
                    .as_mut()
                    .ok_or_else(|| "RowBatch without RowHeader".to_string())
                    .and_then(|table| table.try_extend(rows))
                    .map_err(RemoteError::Connection)?,
                Frame::RowEnd { rows } => {
                    let table = pending.take().ok_or_else(|| {
                        RemoteError::Connection("RowEnd without RowHeader".to_string())
                    })?;
                    if table.len() as u64 != rows {
                        return Err(RemoteError::Connection(format!(
                            "row count mismatch: streamed {}, trailer says {rows}",
                            table.len()
                        )));
                    }
                    results.push(RemoteResult::Rows(table));
                }
                Frame::Done { summary } => results.push(RemoteResult::Done(summary)),
                Frame::Error { message } => {
                    if error.is_none() {
                        error = Some(RemoteError::Server(message));
                    }
                }
                Frame::Cancelled { reason } => {
                    if error.is_none() {
                        error = Some(RemoteError::Cancelled(reason));
                    }
                }
                Frame::Ready { in_txn } => {
                    return Ok(QueryResponse {
                        results,
                        error,
                        in_txn,
                    })
                }
                Frame::Goodbye => {
                    return Ok(QueryResponse {
                        results,
                        error,
                        in_txn: false,
                    })
                }
                other => {
                    return Err(RemoteError::Connection(format!(
                        "unexpected frame {other:?}"
                    )))
                }
            }
        }
    }
}
