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
//! checkpoint the database, and return — `snapshot_db --listen` then
//! exits 0. A peer starts it with [`Frame::Shutdown`] only from a
//! loopback address (`may_shut_down`): the protocol has no
//! authentication, so any other peer gets an error and keeps its
//! connection.

use crate::protocol::{read_frame, write_frame, write_rowset, Frame, ReadError, PROTOCOL_VERSION};
use snapshot_obs as obs;
use snapshot_session::meta;
use snapshot_session::{Session, SessionOptions, SharedDatabase, StatementError, StatementResult};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// override per connection via SQL `SET`.
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
    fn new(metrics: &obs::MetricsRegistry) -> Self {
        ServerState {
            shutting_down: AtomicBool::new(false),
            conns: obs::Named::new("server.conns", Vec::new()),
            connections_active: metrics.gauge("server_connections_active"),
            bytes_in: metrics.counter("server_bytes_received_total"),
            bytes_out: metrics.counter("server_bytes_sent_total"),
        }
    }

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
/// loopback connection that sent [`Frame::Shutdown`]).
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
        let state = Arc::new(ServerState::new(&shared.obs().metrics));
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
    let peer = stream.peer_addr().ok();
    let may_stop = peer.is_some_and(|p| may_shut_down(p.ip()));
    let peer = peer.map_or_else(|| "unknown".to_string(), |p| p.to_string());
    let (bytes_in, bytes_out) = (Arc::clone(&state.bytes_in), Arc::clone(&state.bytes_out));

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
    let session = shared.session_with_options(config.options);
    session.set_remote_addr(&peer);
    let session_id = session.session_id();
    let (Ok(reader_stream), Ok(registry_stream)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    state.register(session_id, registry_stream);
    let mut conn = Connection {
        stream,
        reader: None,
        session: Some(session),
        state,
        session_id,
    };

    let welcome = Frame::Welcome {
        protocol_version: PROTOCOL_VERSION,
        server: format!("snapshot_server/{}", env!("CARGO_PKG_VERSION")),
        session_id,
    };
    match write_frame(&mut conn.stream, &welcome) {
        Ok(n) => bytes_out.add(n as u64),
        Err(_) => return,
    }

    // Reader thread: decodes request frames while the executor may be
    // busy, so a dead socket cancels the in-flight statement immediately.
    let (tx, rx): (Sender<Msg>, Receiver<Msg>) = channel();
    conn.reader = Some(std::thread::spawn({
        let obs = Arc::clone(shared.obs());
        let mut reader_stream = reader_stream;
        move || loop {
            match read_frame(&mut reader_stream) {
                Ok((frame, n)) => {
                    bytes_in.add(n as u64);
                    let closing = match frame {
                        Frame::Close => true,
                        Frame::Shutdown => may_stop,
                        _ => false,
                    };
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
    }));

    if let Connection {
        stream,
        session: Some(session),
        ..
    } = &mut conn
    {
        let server = may_stop.then_some(&server);
        executor_loop(stream, session, server, rx, &bytes_out);
    }
}

/// A registered connection. Dropping it tears the connection down, also
/// when its executor unwinds: close the socket (which unblocks the reader
/// if it is still alive), join the reader, drop the session (its
/// `ActivityHandle` deregisters the activity row exactly once, here and
/// nowhere else), then free the connection's slot.
struct Connection {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    session: Option<Session>,
    state: Arc<ServerState>,
    session_id: u64,
}

impl Drop for Connection {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        drop(self.session.take());
        self.state.deregister(self.session_id);
    }
}

/// Whether a peer at `ip` may stop the server with [`Frame::Shutdown`]:
/// only one on this machine, since the protocol has no authentication. An
/// IPv4 address mapped into IPv6 counts as the address it maps.
fn may_shut_down(ip: IpAddr) -> bool {
    ip.to_canonical().is_loopback()
}

/// The executor: one request off the channel, one response sequence back.
/// `server` is the handle a [`Frame::Shutdown`] stops, present only when
/// the peer [`may_shut_down`] it.
fn executor_loop(
    stream: &mut TcpStream,
    session: &mut Session,
    server: Option<&ServerHandle>,
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
        let response = match msg {
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
                continue;
            }
            // Five words with no SQL form: the shells send every command
            // that duplicates SQL as that SQL, and keep their tools
            // (`.load`, `.parallel`, `.trace`) and FILEs local. The words
            // are named here so that what a peer may run is decided by
            // the server, not by what `meta::run` grows to answer.
            Msg::Frame(Frame::Meta { command }) => match command.split_whitespace().next() {
                Some("checkpoint" | "dump" | "index" | "metrics" | "profile") => {
                    match meta::run(&command, session) {
                        Ok(summary) => Frame::Done { summary },
                        Err(message) => Frame::Error { message },
                    }
                }
                _ => Frame::Error {
                    message: format!(
                        "a server answers .checkpoint, .dump, .index, .metrics and .profile \
                         only, not '.{command}'"
                    ),
                },
            },
            Msg::Frame(Frame::Close) => {
                let _ = send(stream, &Frame::Goodbye);
                return;
            }
            Msg::Frame(Frame::Shutdown) => match server {
                Some(server) => {
                    let _ = send(stream, &Frame::Goodbye);
                    server.shutdown();
                    return;
                }
                None => Frame::Error {
                    message: "only a loopback peer may shut the server down".into(),
                },
            },
            // Hello after the handshake, or a server-side frame.
            Msg::Frame(other) => Frame::Error {
                message: format!("unexpected frame {other:?}"),
            },
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
        };
        let ready = Frame::Ready {
            in_txn: session.in_transaction(),
        };
        if !send(stream, &response) || !send(stream, &ready) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A connection whose executor panics is torn down by the unwind: its
    /// slot and its activity row are freed, its reader is joined, and the
    /// peer reads EOF.
    #[test]
    fn a_panic_in_a_connection_frees_its_slot_and_closes_its_socket() {
        let shared = SharedDatabase::in_memory();
        let state = Arc::new(ServerState::new(&shared.obs().metrics));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let session = shared.session();
        let session_id = session.session_id();
        state.register(session_id, stream.try_clone().unwrap());
        let mut reader_stream = stream.try_clone().unwrap();
        let reader = std::thread::spawn(move || {
            let _ = reader_stream.read(&mut [0; 1]);
        });
        assert_eq!(state.live_connections(), 1);

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _conn = Connection {
                stream,
                reader: Some(reader),
                session: Some(session),
                state: Arc::clone(&state),
                session_id,
            };
            panic!("the executor panics");
        }));
        assert!(unwound.is_err());
        assert_eq!(state.live_connections(), 0);
        assert!(shared.obs().activity.snapshot().is_empty());
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(peer.read(&mut [0; 1]).unwrap(), 0, "the peer reads EOF");
    }

    #[test]
    fn only_a_loopback_peer_may_shut_the_server_down() {
        for (ip, may) in [
            ("127.0.0.1", true),
            ("127.45.0.9", true),
            ("::1", true),
            ("::ffff:127.0.0.1", true),
            ("10.0.0.7", false),
            ("192.168.1.20", false),
            ("0.0.0.0", false),
            ("fe80::1", false),
            ("2001:db8::1", false),
            ("::ffff:10.0.0.7", false),
        ] {
            let ip: IpAddr = ip.parse().unwrap();
            assert_eq!(may_shut_down(ip), may, "{ip}");
        }
    }

    /// A `Shutdown` from a peer that may not stop the server is answered
    /// with `Error` then `Ready`, and the connection goes on serving.
    #[test]
    fn a_refused_shutdown_leaves_the_connection_open() {
        let shared = SharedDatabase::in_memory();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let (tx, rx) = channel();
        for frame in [
            Frame::Shutdown,
            Frame::Query {
                sql: "CREATE TABLE t (x INT)".into(),
            },
            Frame::Close,
        ] {
            tx.send(Msg::Frame(frame)).unwrap();
        }
        let mut session = shared.session();
        let bytes_out = shared.obs().metrics.counter("test_bytes_out");
        executor_loop(&mut stream, &mut session, None, rx, &bytes_out);
        drop(stream);
        let mut frames = Vec::new();
        while let Ok((frame, _)) = read_frame(&mut peer) {
            frames.push(frame);
        }
        assert!(
            matches!(&frames[0], Frame::Error { message } if message.contains("loopback")),
            "{frames:?}"
        );
        assert_eq!(frames[1], Frame::Ready { in_txn: false });
        assert!(
            matches!(&frames[2], Frame::Done { summary } if summary.contains("CREATE TABLE")),
            "{frames:?}"
        );
        assert_eq!(frames.last(), Some(&Frame::Goodbye));
    }
}
