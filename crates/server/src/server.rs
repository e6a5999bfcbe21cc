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
//!   [`snapshot_obs::Activity::cancel`]) so the orphaned statement unwinds
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
use snapshot_session::meta::{file_argument, run_meta, MetaFlow};
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
    /// `--slow-ms`, …) propagate to every connection; clients
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

/// Shared mutable server state: the shutdown flag, the live-connection
/// registry (socket clones + session ids, so shutdown can cancel and
/// close them), and the server's handles into its database's registry.
#[derive(Debug)]
struct ServerState {
    shutting_down: AtomicBool,
    conns: obs::Named<Vec<ConnReg>>,
    connections_active: Arc<obs::Gauge>,
    bytes_in: Arc<obs::Counter>,
    bytes_out: Arc<obs::Counter>,
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
        self.connections_active.set(self.live_connections() as i64);
    }

    fn deregister(&self, session_id: u64) {
        self.conns.lock().retain(|c| c.session_id != session_id);
        self.connections_active.set(self.live_connections() as i64);
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

/// Keep the memory a statement frees in the process for the next
/// statement, instead of handing it back to the kernel.
///
/// By default glibc returns the free top of a heap once it passes
/// 128 KiB, and serves blocks of 128 KiB or more from a mapping of their
/// own, unmapped again on `free` (a threshold glibc raises as it sees such
/// blocks freed). A statement with a big result frees megabytes of such
/// memory, and the next statement faults every page of it back in.
///
/// Setting the two thresholds below turns glibc's dynamic adjustment off:
/// from then on every block at or above the mmap threshold gets a mapping
/// of its own and is unmapped on `free`, however often a block of that
/// size recurs. What the policy bounds is the memory each glibc arena
/// keeps beyond what is in use: up to the trim threshold of free heap top
/// per arena, plus freed blocks below the mmap threshold, which stay in
/// the arena for reuse. It sets an allocator policy for the whole
/// process, so the binaries and [`Server::bind`] call it, and the
/// [`crate::Client`] library never does. On targets other than Linux with
/// glibc it does nothing. CHANGES.md has the measurements that sized it.
#[allow(unsafe_code)]
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // `<malloc.h>` parameter numbers.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // Free heap top an arena keeps instead of trimming: the most
        // memory an arena holds beyond what is in use. Sized by the
        // steady-state minor faults per statement of the big-result
        // classes (`join-1`, `join-2`, `diff-2`, `agg-1`) served on the
        // benchmark's 2 000-employee data: the smallest power of two that
        // takes all four to about 0 (at 4 MiB `agg-1` still faults).
        const TRIM_THRESHOLD: c_int = 8 << 20;
        // Blocks at least this large always get a mapping of their own,
        // unmapped on free; freed smaller ones stay in the arena. Same
        // measurement: below 1 MiB `agg-1` still faults.
        const MMAP_THRESHOLD: c_int = 1 << 20;
        // SAFETY: `mallopt` takes two integers by value and only writes
        // the allocator's own tuning parameters, under the allocator's
        // lock; glibc allows calling it at any time from any thread. Its
        // status is ignored: a refused value leaves glibc's defaults,
        // which are correct, only slower.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
        }
    }
}

impl Server {
    /// Bind a server over `shared` on `addr` (use port 0 for an
    /// OS-assigned port, then [`Server::local_addr`]). Also sets the
    /// process's allocator to [`keep_freed_memory`].
    pub fn bind<A: ToSocketAddrs>(
        shared: SharedDatabase,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        keep_freed_memory();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = &shared.obs().metrics;
        let state = Arc::new(ServerState {
            shutting_down: AtomicBool::new(false),
            conns: obs::Named::new("server.conns", Vec::new()),
            connections_active: metrics.gauge("server_connections_active"),
            bytes_in: metrics.counter("server_bytes_received_total"),
            bytes_out: metrics.counter("server_bytes_sent_total"),
        });
        Ok(Server {
            shared,
            listener,
            addr,
            config,
            state,
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
        let connections_total = shared.obs().metrics.counter("server_connections_total");
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
                shared.obs().activity.cancel(conn.session_id);
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
    let (bytes_in, bytes_out) = (&state.bytes_in, &state.bytes_out);

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
    // (statement timeout, slow-query threshold, …); the client overrides per
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
        let bytes_in = Arc::clone(bytes_in);
        let obs = Arc::clone(shared.obs());
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
                    // it the connection is gone. `cancel` is a no-op when
                    // the session is between statements.
                    obs.activity.cancel(session_id);
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

    executor_loop(&mut stream, &mut session, &shared, &server, rx, bytes_out);

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
    server: &ServerHandle,
    rx: Receiver<Msg>,
    bytes_out: &Arc<obs::Counter>,
) {
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
                // Each result is streamed as its statement completes; a
                // failed write means the client is gone and stops the script.
                // The last streamed table is freed after `Ready` is out:
                // freeing a large result costs time the client would wait.
                let mut alive = true;
                let mut streamed = None;
                let outcome = session.run_script(&sql, |result| {
                    let written = match result {
                        StatementResult::Rows(table) => {
                            let written = write_rowset(stream, &table);
                            streamed = Some(table);
                            written
                        }
                        other => write_frame(
                            stream,
                            &Frame::Done {
                                summary: other.to_string(),
                            },
                        ),
                    };
                    alive = written.map(|n| bytes_out.add(n as u64)).is_ok();
                    alive
                });
                if !alive {
                    return;
                }
                if let Err(e) = outcome {
                    let frame = match e {
                        StatementError::Cancelled { .. } => Frame::Cancelled {
                            reason: e.to_string(),
                        },
                        StatementError::Conflict(message) | StatementError::Failed(message) => {
                            Frame::Error { message }
                        }
                    };
                    if !send(stream, &frame) {
                        return;
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
                drop(streamed);
            }
            Msg::Frame(Frame::Meta { command }) => {
                // `.trace` prints the records the local shell's session
                // keeps; no frame carries them back to a remote shell. A
                // peer writes no file here: FILE is the client's to write.
                let outcome = match command.split_whitespace().next() {
                    Some("trace") => Err(".trace works in a local shell only".to_string()),
                    _ if file_argument(&command).is_some() => Err("a server writes no FILE".into()),
                    _ => run_meta(&command, session, shared),
                };
                match outcome {
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
                let response = match session.set_option(&name, &value) {
                    Ok(()) => Frame::Done {
                        summary: format!("SET {name} = {value}"),
                    },
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
