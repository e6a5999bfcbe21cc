//! Network subsystem: serve a [`snapshot_session::SharedDatabase`] over
//! TCP.
//!
//! The paper's middleware (Section 9) runs *inside* a live database
//! system; this crate supplies the system boundary for the reproduction —
//! a threaded TCP server speaking a hand-rolled, length-prefixed,
//! CRC32-checked binary protocol (the same framing discipline as the
//! write-ahead log in `snapshot_wal::codec`):
//!
//! * [`protocol`] — the frame types, their fallible wire codec, and
//!   [`protocol::write_rowset`], which streams a result set from borrowed
//!   rows as column-block batches,
//! * [`server`] — [`Server`]: accept loop, one session per connection,
//!   per-statement row-batch streaming, cooperative cancellation of
//!   statements whose client disappeared, graceful shutdown
//!   (drain → cancel → checkpoint),
//! * [`client`] — [`Client`]: the typed request/response library the
//!   remote shell (`snapshot_db --connect`), the integration tests, and
//!   the load bench are built on.
//!
//! Binaries: `snapshot_server` (the daemon) and `snapshot_db` (the shell,
//! local-embedded by default, remote with `--connect HOST:PORT`).
//!
//! See `docs/protocol.md` for the wire format specification.
//!
//! [`keep_freed_memory`] holds the one `unsafe` block in product code (a
//! `mallopt` call); everything else here is safe code.

#![deny(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, QueryResponse, RemoteError, RemoteResult};
pub use protocol::{Frame, ReadError, MAX_FRAME, PROTOCOL_VERSION};
pub use server::{keep_freed_memory, Server, ServerConfig, ServerHandle};
