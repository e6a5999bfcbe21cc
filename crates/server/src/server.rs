//! The threaded TCP server: accept loop, per-connection sessions, and
//! graceful shutdown.
//!
//! Each accepted connection gets its own [`Session`] over the shared
//! database and two threads:
//!
//! * the **executor** (the connection's main thread) pulls decoded frames
//!   off a channel, runs them against the session, and streams response
//!   frames back;
//! * the **reader** blocks on the socket, decodes request frames, and
//!   feeds the channel. Because it keeps reading *while* a statement
//!   executes, a client that disappears mid-query is noticed immediately:
//!   the reader trips the session's [`snapshot_obs::CancelToken`] (via
//!   [`snapshot_obs::cancel_session`]) so the orphaned statement unwinds
//!   at its next cooperative check instead of running to completion —
//!   and the executor then drops the session, deregistering its activity
//!   entry exactly once.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]): stop accepting, give
//! in-flight statements a grace window to drain, cancel the stragglers
//! through their cancel tokens, close every socket, join every thread,
//! checkpoint the database, and return — the `snapshot_server` binary
//! then exits 0.

use crate::protocol::{read_frame, write_frame, write_rowset, Frame, ReadError, PROTOCOL_VERSION};
use snapshot_obs as obs;
use snapshot_session::meta::{run_meta, MetaFlow};
use snapshot_session::{Session, SessionOptions, SharedDatabase, StatementError, StatementResult};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously served connections; the excess is refused
    /// with an [`Frame::Error`] at the handshake.
    pub max_connections: usize,
    /// Per-connection socket read timeout. A connection whose client
    /// sends nothing for this long is closed (slow-loris guard); pick it
    /// larger than the longest expected statement + think time. `None`
    /// (the default) waits forever.
    pub read_timeout: Option<Duration>,
    /// The option template every accepted connection's session starts
    /// from — this is how server-wide defaults (`--timeout-ms`,
    /// `--parallelism`, …) propagate to every connection; clients
    /// override per connection via `SET` / [`Frame::SetOption`].
    pub options: SessionOptions,
    /// How long shutdown waits for in-flight statements to drain before
    /// cancelling them through their tokens.
    pub shutdown_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: None,
            options: SessionOptions::default(),
            shutdown_grace: Duration::from_millis(500),
        }
    }
}

/// Shared mutable server state: the shutdown flag and the live-connection
/// registry (socket clones + session ids, so shutdown can cancel and
/// close them).
#[derive(Debug)]
struct ServerState {
    shutting_down: AtomicBool,
    conns: obs::Named<Vec<ConnReg>>,
}

#[derive(Debug)]
struct ConnReg {
    session_id: u64,
    stream: TcpStream,
}

impl ServerState {
    fn live_connections(&self) -> usize {
        self.conns.lock().len()
    }

    fn register(&self, session_id: u64, stream: TcpStream) {
        self.conns.lock().push(ConnReg { session_id, stream });
        obs::registry()
            .gauge("server_connections_active")
            .set(self.live_connections() as i64);
    }

    fn deregister(&self, session_id: u64) {
        self.conns.lock().retain(|c| c.session_id != session_id);
        obs::registry()
            .gauge("server_connections_active")
            .set(self.live_connections() as i64);
    }
}

/// A handle for stopping a running server from another thread (or from a
/// connection that sent [`Frame::Shutdown`]).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begin graceful shutdown: the accept loop stops, in-flight
    /// statements drain or are cancelled, and [`Server::run`] returns.
    pub fn shutdown(&self) {
        if self.state.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop: it is blocked in accept(2), so poke it
        // with a throwaway connection. Failure is fine — it means the
        // listener is already gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::SeqCst)
    }
}

/// The embeddable network server; see the module docs. Bind with
/// [`Server::bind`], serve with [`Server::run`], stop via the
/// [`ServerHandle`].
#[derive(Debug)]
pub struct Server {
    shared: SharedDatabase,
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind a server over `shared` on `addr` (use port 0 for an
    /// OS-assigned port, then [`Server::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        shared: SharedDatabase,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            shared,
            listener,
            addr,
            config,
            state: Arc::new(ServerState {
                shutting_down: AtomicBool::new(false),
                conns: obs::Named::new("server.conns", Vec::new()),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable handle that can stop this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// Serve until [`ServerHandle::shutdown`]: accept connections, spawn
    /// a handler per connection, then drain/cancel, close, join,
    /// checkpoint, and return. The returned count is the total number of
    /// connections served.
    pub fn run(self) -> Result<u64, String> {
        let Server {
            shared,
            listener,
            addr,
            config,
            state,
        } = self;
        let handle = ServerHandle {
            state: Arc::clone(&state),
            addr,
        };
        let connections_total = obs::registry().counter("server_connections_total");
        let mut served: u64 = 0;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for incoming in listener.incoming() {
            if state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            workers.retain(|w| !w.is_finished());
            if state.live_connections() >= config.max_connections {
                // Over the limit: answer the handshake with an error and
                // close, so the client sees *why* instead of a raw RST.
                let mut stream = stream;
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        message: format!(
                            "server at capacity ({} connections)",
                            config.max_connections
                        ),
                    },
                );
                continue;
            }
            served += 1;
            connections_total.inc();
            let shared = shared.clone();
            let config = config.clone();
            let state = Arc::clone(&state);
            let conn_handle = handle.clone();
            workers.push(std::thread::spawn(move || {
                serve_connection(stream, shared, config, state, conn_handle);
            }));
        }
        drop(listener); // stop accepting before draining

        // Drain: give in-flight statements the grace window...
        let deadline = Instant::now() + config.shutdown_grace;
        while state.live_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...then cancel the stragglers through their tokens and close
        // their sockets (the readers wake with EOF, the executors drop
        // their sessions).
        {
            let conns = state.conns.lock();
            for conn in conns.iter() {
                obs::cancel_session(conn.session_id);
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
        // Leave a WAL-consistent, checkpointed database behind (a no-op
        // for in-memory databases).
        shared
            .checkpoint()
            .map_err(|e| format!("shutdown checkpoint: {e}"))?;
        Ok(served)
    }
}

/// What the reader thread feeds the executor.
enum Msg {
    /// A decoded request frame.
    Frame(Frame),
    /// The socket died (EOF, reset, or read timeout) — any running
    /// statement has already been cancelled.
    Disconnect,
    /// The peer sent bytes that are not a valid frame.
    Corrupt(String),
}

/// Serve one connection: handshake, then the executor loop (the reader
/// thread is spawned after a successful handshake).
fn serve_connection(
    mut stream: TcpStream,
    shared: SharedDatabase,
    config: ServerConfig,
    state: Arc<ServerState>,
    server: ServerHandle,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.read_timeout);
    let peer = match stream.peer_addr() {
        Ok(p) => p.to_string(),
        Err(_) => "unknown".to_string(),
    };
    let bytes_in = obs::registry().counter("server_bytes_received_total");
    let bytes_out = obs::registry().counter("server_bytes_sent_total");

    // Handshake: the first frame must be a version-matched Hello.
    match read_frame(&mut stream) {
        Ok((
            Frame::Hello {
                protocol_version, ..
            },
            n,
        )) => {
            bytes_in.add(n as u64);
            if protocol_version != PROTOCOL_VERSION {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        message: format!(
                            "protocol version mismatch: client {protocol_version}, \
                             server {PROTOCOL_VERSION}"
                        ),
                    },
                );
                return;
            }
        }
        Ok((other, _)) => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    message: format!("expected Hello, got {other:?}"),
                },
            );
            return;
        }
        Err(_) => return,
    }

    // The connection's session: the server-wide option template applies
    // (statement timeout, parallelism, …); the client overrides per
    // connection from here on.
    let mut session = shared.session_with_options(config.options);
    session.set_remote_addr(&peer);
    let session_id = session.session_id();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let registry_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    state.register(session_id, registry_stream);

    if write_frame(
        &mut stream,
        &Frame::Welcome {
            protocol_version: PROTOCOL_VERSION,
            server: format!("snapshot_server/{}", env!("CARGO_PKG_VERSION")),
            session_id,
        },
    )
    .map(|n| bytes_out.add(n as u64))
    .is_err()
    {
        state.deregister(session_id);
        return;
    }

    // Reader thread: decodes request frames while the executor may be
    // busy, so a dead socket cancels the in-flight statement immediately.
    let (tx, rx): (Sender<Msg>, Receiver<Msg>) = channel();
    let reader = std::thread::spawn({
        let bytes_in = bytes_in.clone();
        let mut reader_stream = reader_stream;
        move || loop {
            match read_frame(&mut reader_stream) {
                Ok((frame, n)) => {
                    bytes_in.add(n as u64);
                    let closing = matches!(frame, Frame::Close | Frame::Shutdown);
                    if tx.send(Msg::Frame(frame)).is_err() || closing {
                        return;
                    }
                }
                Err(ReadError::Eof) | Err(ReadError::Io(_)) => {
                    // Peer torn away (or idle past the read timeout):
                    // cancel whatever the executor is running, then tell
                    // it the connection is gone. `cancel_session` is a
                    // no-op when the session is between statements.
                    obs::cancel_session(session_id);
                    let _ = tx.send(Msg::Disconnect);
                    return;
                }
                Err(ReadError::Corrupt(e)) => {
                    let _ = tx.send(Msg::Corrupt(e));
                    return;
                }
            }
        }
    });

    executor_loop(
        &mut stream,
        &mut session,
        &shared,
        &config,
        &server,
        rx,
        &bytes_out,
    );

    // Teardown, in order: close the socket (unblocks the reader if it is
    // still alive), join the reader, then drop the session — its
    // ActivityHandle deregisters the activity row exactly once, here and
    // nowhere else.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    drop(session);
    state.deregister(session_id);
}

/// The executor: one request off the channel, one response sequence back.
fn executor_loop(
    stream: &mut TcpStream,
    session: &mut Session,
    shared: &SharedDatabase,
    config: &ServerConfig,
    server: &ServerHandle,
    rx: Receiver<Msg>,
    bytes_out: &Arc<obs::Counter>,
) {
    // The per-connection option template `.parallel` readers and bare
    // `.timeout`/`.slow` state queries see; starts as the server default.
    let mut template = config.options;
    let send = |stream: &mut TcpStream, frame: &Frame| -> bool {
        match write_frame(stream, frame) {
            Ok(n) => {
                bytes_out.add(n as u64);
                true
            }
            Err(_) => false,
        }
    };
    loop {
        let msg = match rx.recv() {
            Ok(m) => m,
            Err(_) => return, // reader gone without a Disconnect: bail
        };
        match msg {
            Msg::Frame(Frame::Query { sql }) => {
                for piece in sql::split_script(&sql) {
                    match session.execute(&piece) {
                        Ok(StatementResult::Rows(table)) => match write_rowset(stream, &table) {
                            Ok(n) => bytes_out.add(n as u64),
                            Err(_) => return,
                        },
                        Ok(other) => {
                            if !send(
                                stream,
                                &Frame::Done {
                                    summary: other.to_string(),
                                },
                            ) {
                                return;
                            }
                        }
                        Err(e) => {
                            let frame = match e {
                                StatementError::Cancelled { .. } => Frame::Cancelled {
                                    reason: e.to_string(),
                                },
                                StatementError::Conflict(message)
                                | StatementError::Failed(message) => Frame::Error { message },
                            };
                            if !send(stream, &frame) {
                                return;
                            }
                            break; // scripts stop at the first error
                        }
                    }
                }
                if !send(
                    stream,
                    &Frame::Ready {
                        in_txn: session.in_transaction(),
                    },
                ) {
                    return;
                }
            }
            Msg::Frame(Frame::Meta { command }) => {
                match run_meta(&command, session, shared, &mut template) {
                    Ok(outcome) => {
                        if !send(
                            stream,
                            &Frame::Done {
                                summary: outcome.output,
                            },
                        ) {
                            return;
                        }
                        if outcome.flow == MetaFlow::Quit {
                            let _ = send(stream, &Frame::Goodbye);
                            return;
                        }
                    }
                    Err(e) => {
                        if !send(stream, &Frame::Error { message: e }) {
                            return;
                        }
                    }
                }
                if !send(
                    stream,
                    &Frame::Ready {
                        in_txn: session.in_transaction(),
                    },
                ) {
                    return;
                }
            }
            Msg::Frame(Frame::SetOption { name, value }) => {
                let response = match apply_option(session, &name, &value) {
                    Ok(()) => {
                        template = *session.options();
                        Frame::Done {
                            summary: format!("SET {name} = {value}"),
                        }
                    }
                    Err(e) => Frame::Error { message: e },
                };
                if !send(stream, &response)
                    || !send(
                        stream,
                        &Frame::Ready {
                            in_txn: session.in_transaction(),
                        },
                    )
                {
                    return;
                }
            }
            Msg::Frame(Frame::Close) => {
                let _ = send(stream, &Frame::Goodbye);
                return;
            }
            Msg::Frame(Frame::Shutdown) => {
                let _ = send(stream, &Frame::Goodbye);
                server.shutdown();
                return;
            }
            Msg::Frame(other) => {
                // Hello after the handshake, or a server-side frame.
                if !send(
                    stream,
                    &Frame::Error {
                        message: format!("unexpected frame {other:?}"),
                    },
                ) || !send(
                    stream,
                    &Frame::Ready {
                        in_txn: session.in_transaction(),
                    },
                ) {
                    return;
                }
            }
            Msg::Disconnect => return,
            Msg::Corrupt(e) => {
                let _ = send(
                    stream,
                    &Frame::Error {
                        message: format!("corrupt frame: {e}"),
                    },
                );
                let _ = send(stream, &Frame::Goodbye);
                return;
            }
        }
    }
}

/// Apply one wire-set session option ([`Frame::SetOption`]) — the same
/// names `SET` accepts, without a round trip through the SQL parser.
fn apply_option(session: &mut Session, name: &str, value: &str) -> Result<(), String> {
    let parsed = if value.eq_ignore_ascii_case("off") {
        None
    } else {
        Some(value.parse::<u64>().map_err(|_| {
            format!("invalid value '{value}' for '{name}' (expected a number or 'off')")
        })?)
    };
    let options = session.options_mut();
    match name {
        "statement_timeout" | "statement_timeout_ms" => {
            options.statement_timeout_ms = parsed.filter(|&ms| ms > 0);
        }
        "max_rows_scanned" => options.max_rows_scanned = parsed.filter(|&n| n > 0),
        "max_result_rows" => options.max_result_rows = parsed.filter(|&n| n > 0),
        "slow_query_ms" => options.slow_query_ms = parsed,
        "parallelism" => {
            let n = parsed.ok_or_else(|| {
                "parallelism must be a number (0 = one worker per hardware thread)".to_string()
            })?;
            options.parallelism = engine::resolve_parallelism(n as usize);
        }
        other => return Err(format!("unknown session option '{other}'")),
    }
    Ok(())
}
