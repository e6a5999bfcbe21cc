//! `snapshot_server` — serve a database directory (or an in-memory
//! database) over TCP.
//!
//! ```text
//! $ snapshot_server --db ./data --listen 127.0.0.1:5433
//! snapshot_server: serving ./data on 127.0.0.1:5433 (max 64 connections)
//! ```
//!
//! Clients are `snapshot_db --connect HOST:PORT`, the
//! [`snapshot_server::Client`] library type, or anything speaking the wire
//! protocol in `docs/protocol.md`. `SIGTERM`-free graceful shutdown is
//! cooperative: a client sends the Shutdown frame (`snapshot_db`'s
//! `.quit` does *not* — use the `shutdown_server` client call), the
//! server drains or cancels in-flight statements, checkpoints, and exits
//! with status 0. Only a client connected from a loopback address may
//! send it; any other gets an error and keeps its connection.

#![forbid(unsafe_code)]

use snapshot_server::{Server, ServerConfig};
use snapshot_session::{PersistenceOptions, SharedDatabase, SyncPolicy};
use std::path::Path;
use std::time::Duration;

const USAGE: &str = "usage: snapshot_server [--db DIR] [--listen HOST:PORT]
                       [--max-connections N] [--read-timeout-ms N]
                       [--timeout-ms N] [--slow-ms N]
                       [--sync POLICY] [--checkpoint-every N] [--quiet]
  --db DIR              serve a durable database in DIR (created if missing);
                        omitted = a process-lifetime in-memory database
  --listen HOST:PORT    bind address (default 127.0.0.1:5433; port 0 = any
                        free port, printed on startup); whatever it is, only
                        a client connected over loopback may shut the
                        server down (the protocol has no authentication)
  --max-connections N   refuse connections beyond N concurrent (default 64)
  --read-timeout-ms N   close connections idle for N ms (default: no limit)
  --timeout-ms N        default statement timeout for every connection
                        (0 = none; clients override per session via SET
                        statement_timeout or snapshot_db --timeout-ms)
  --slow-ms N           default slow-query log threshold for every connection
  --sync POLICY         WAL sync policy: 'always' (default) or 'checkpoint'
  --checkpoint-every N  auto-checkpoint after N logged statements
                        (default 64; 0 disables auto-checkpointing)
  --quiet               no startup/shutdown banners
  --help, -h            print this usage";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn die_usage(msg: &str) -> ! {
    die(&format!("{msg}\n{USAGE}"))
}

fn main() {
    let mut db_dir: Option<String> = None;
    let mut listen = "127.0.0.1:5433".to_string();
    let mut config = ServerConfig::default();
    let mut persistence = PersistenceOptions::default();
    let mut durability_flag: Option<&str> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--db" => match args.next() {
                Some(dir) => db_dir = Some(dir),
                None => die_usage("--db requires a directory path"),
            },
            "--listen" => match args.next() {
                Some(addr) => listen = addr,
                None => die_usage("--listen requires a HOST:PORT address"),
            },
            "--max-connections" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.max_connections = n,
                _ => die_usage("--max-connections requires a count > 0"),
            },
            "--read-timeout-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => config.read_timeout = Some(Duration::from_millis(n)),
                _ => die_usage("--read-timeout-ms requires a limit in milliseconds > 0"),
            },
            "--timeout-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => config.options.statement_timeout_ms = (n > 0).then_some(n),
                None => die_usage("--timeout-ms requires a limit in milliseconds"),
            },
            "--slow-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => config.options.slow_query_ms = Some(n),
                None => die_usage("--slow-ms requires a threshold in milliseconds"),
            },
            "--sync" => {
                durability_flag = Some("--sync");
                match args.next().as_deref() {
                    Some("always") => persistence.sync = SyncPolicy::Always,
                    Some("checkpoint") => persistence.sync = SyncPolicy::OnCheckpoint,
                    _ => die_usage("--sync requires a policy: 'always' or 'checkpoint'"),
                }
            }
            "--checkpoint-every" => {
                durability_flag = Some("--checkpoint-every");
                match args.next().and_then(|n| n.parse().ok()) {
                    Some(n) => persistence.checkpoint_every = n,
                    None => die_usage("--checkpoint-every requires a statement count"),
                }
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die_usage(&format!("unknown argument '{other}'")),
        }
    }
    if let (Some(flag), None) = (durability_flag, &db_dir) {
        die_usage(&format!("{flag} has no effect without --db DIR"));
    }

    let shared = match &db_dir {
        Some(dir) => {
            // Recovery replays through a session built from the server's
            // option template, but a replayed statement arms none of its
            // limits and reports to none of its sinks.
            match SharedDatabase::open_durable(Path::new(dir), config.options, persistence) {
                Ok((shared, report)) => {
                    if !quiet {
                        let view = shared.snapshot();
                        eprintln!(
                            "snapshot_server: recovered {dir}: checkpoint {:?} + {} replayed \
                             statement(s) — {} table(s), {} row(s)",
                            report.checkpoint_seq,
                            report.replayed,
                            view.catalog().table_names().count(),
                            view.catalog().total_rows(),
                        );
                    }
                    shared
                }
                Err(e) => die(&format!("cannot open database '{dir}': {e}")),
            }
        }
        None => SharedDatabase::in_memory(),
    };

    let server = match Server::bind(shared, listen.as_str(), config.clone()) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot listen on '{listen}': {e}")),
    };
    if !quiet {
        let what = db_dir.as_deref().unwrap_or("an in-memory database");
        eprintln!(
            "snapshot_server: serving {what} on {} (max {} connections)",
            server.local_addr(),
            config.max_connections
        );
    }
    match server.run() {
        Ok(served) => {
            if !quiet {
                eprintln!("snapshot_server: graceful shutdown after {served} connection(s)");
            }
        }
        Err(e) => die(&format!("snapshot_server: {e}")),
    }
}
