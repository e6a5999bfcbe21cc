//! `snapshot_db` — a line-oriented shell over [`snapshot_session`],
//! embedded or remote, and the server that the remote shell talks to.
//!
//! Statements in, pretty tables and timings out:
//!
//! ```text
//! $ snapshot_db
//! snapshot_db> CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
//! CREATE TABLE works [0.1 ms]
//! snapshot_db> INSERT INTO works VALUES ('Ann', 'SP', 3, 10);
//! INSERT 1 INTO works [0.1 ms]
//! snapshot_db> SEQ VT (SELECT count(*) AS cnt FROM works);
//! ...
//! ```
//!
//! Without `--script`, reads statements from stdin (the buffer runs once
//! a line leaves it ending in a `;` outside any string literal, as the
//! SQL lexer reads it). Lines starting with `.` are meta commands — see
//! `.help`: a command that duplicates SQL runs as that SQL. With
//! `--db DIR`, the database is durable: statements are
//! write-ahead-logged into `DIR` and survive restarts. With
//! `--listen HOST:PORT`, the database is opened the same way and served
//! over TCP instead of a shell, until a loopback client sends the
//! Shutdown frame ([`snapshot_server::Client::shutdown_server`]). With
//! `--connect HOST:PORT`, the shell runs against such a server over the
//! binary wire protocol instead of an embedded database — same
//! statements, same meta commands but the local-shell tools (`.load`,
//! `.parallel`, `.trace`).

#![forbid(unsafe_code)]

use snapshot_server::{Client, RemoteResult, Server, ServerConfig};
use snapshot_session::meta::{self, file_argument, HELP};
use snapshot_session::{
    PersistenceOptions, Session, SessionOptions, SharedDatabase, StatementResult, SyncPolicy,
};
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

fn main() {
    let mut script: Option<String> = None;
    let mut db_dir: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut options = SessionOptions::default();
    let mut persistence = PersistenceOptions::default();
    let mut server = ServerConfig::default();
    let mut durability_flag: Option<&str> = None;
    let mut server_flag: Option<&str> = None;
    let mut quiet = false;
    let mut continue_on_error = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--script" => match args.next() {
                Some(path) => script = Some(path),
                None => die_usage("--script requires a file path"),
            },
            "--db" => match args.next() {
                Some(dir) => db_dir = Some(dir),
                None => die_usage("--db requires a directory path"),
            },
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => die_usage("--connect requires a HOST:PORT address"),
            },
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr),
                None => die_usage("--listen requires a HOST:PORT address"),
            },
            "--max-connections" => {
                server_flag = Some("--max-connections");
                match args.next().and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n > 0 => server.max_connections = n,
                    _ => die_usage("--max-connections requires a count > 0"),
                }
            }
            "--read-timeout-ms" => {
                server_flag = Some("--read-timeout-ms");
                match args.next().and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) if n > 0 => server.read_timeout = Some(Duration::from_millis(n)),
                    _ => die_usage("--read-timeout-ms requires a limit in milliseconds > 0"),
                }
            }
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
            "--no-index" => options.use_indexes = false,
            "--verify" => options.verify_indexed = true,
            "--slow-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => options.slow_query_ms = Some(n),
                None => die_usage("--slow-ms requires a threshold in milliseconds"),
            },
            "--timeout-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => options.statement_timeout_ms = (n > 0).then_some(n),
                None => die_usage("--timeout-ms requires a limit in milliseconds"),
            },
            "--continue-on-error" => continue_on_error = true,
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
    if let (Some(flag), None) = (server_flag, &listen) {
        die_usage(&format!("{flag} has no effect without --listen HOST:PORT"));
    }
    if listen.is_some() {
        for (flag, given) in [
            ("--connect", connect.is_some()),
            ("--script", script.is_some()),
            ("--continue-on-error", continue_on_error),
        ] {
            if given {
                die_usage(&format!("--listen and {flag} are mutually exclusive"));
            }
        }
    }
    if connect.is_some() {
        if db_dir.is_some() {
            die_usage("--connect and --db are mutually exclusive");
        }
        if !options.use_indexes {
            die_usage(
                "--no-index configures the embedded engine and cannot be used with --connect",
            );
        }
    }

    let backend = match &connect {
        Some(addr) => Backend::Remote {
            client: connect_remote(addr, &options, quiet),
            in_txn: false,
        },
        None => {
            // Statements run in this process: reuse what they free.
            snapshot_server::keep_freed_memory();
            let shared = open_database(db_dir.as_deref(), options, persistence, quiet);
            if let Some(addr) = &listen {
                server.options = options;
                let what = db_dir.as_deref().unwrap_or("an in-memory database");
                serve(shared, addr, server, what, quiet);
            }
            // The shell always runs over a SharedDatabase: the single-user
            // REPL is simply the one-session case of the multi-session
            // object, and `.parallel` can fan reader sessions out over the
            // same handle.
            Backend::Local {
                session: Box::new(shared.session_with_options(options)),
                shared,
            }
        }
    };
    let mut shell = Shell {
        backend,
        quiet,
        interactive: script.is_none(),
        continue_on_error,
        pending: String::new(),
        trace: false,
    };

    let status = match script {
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => die(&format!("cannot read script '{path}': {e}")),
            };
            let mut status = 0;
            'feed: {
                for line in text.lines() {
                    match shell.feed_line(line) {
                        Flow::Continue => {}
                        Flow::Quit => break 'feed, // .quit ends the script successfully
                        Flow::Fail => {
                            status = 1;
                            break 'feed;
                        }
                    }
                }
                if shell.flush_pending() == Flow::Fail {
                    status = 1;
                }
            }
            status
        }
        None => {
            println!("snapshot_db — temporal SQL shell (.help for help, .quit to exit)");
            let stdin = std::io::stdin();
            shell.prompt();
            for line in stdin.lock().lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => die(&format!("stdin error: {e}")),
                };
                if shell.feed_line(&line) == Flow::Quit {
                    break;
                }
                shell.prompt();
            }
            0
        }
    };
    // A remote shell closes its connection cleanly (Close → Goodbye) so
    // the server deregisters the session before we exit.
    if let Backend::Remote { client, .. } = shell.backend {
        let _ = client.close();
    }
    std::process::exit(status);
}

/// Connects the remote shell and propagates its option flags to the
/// server-side session as SQL `SET`: the server applied its own template
/// at accept time, these are this connection's overrides.
fn connect_remote(addr: &str, options: &SessionOptions, quiet: bool) -> Client {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => die(&format!("cannot connect to '{addr}': {e}")),
    };
    if !quiet {
        println!(
            "connected to {addr} ({}, session {})",
            client.server, client.session_id
        );
    }
    let mut set = |name: &str, value: String| {
        let outcome = client.query(&format!("SET {name} = {value};"));
        if let Some(e) = outcome.map_or_else(Some, |resp| resp.error) {
            die(&format!("cannot set {name}: {e}"));
        }
    };
    let limit = |ms: Option<u64>| ms.map_or_else(|| "off".to_string(), |ms| ms.to_string());
    let defaults = SessionOptions::default();
    if options.statement_timeout_ms != defaults.statement_timeout_ms {
        set("statement_timeout", limit(options.statement_timeout_ms));
    }
    if options.slow_query_ms != defaults.slow_query_ms {
        set("slow_query_ms", limit(options.slow_query_ms));
    }
    if options.verify_indexed {
        set("verify_indexed", "on".into());
    }
    client
}

/// Opens the database the shell and the server run over: durable in
/// `dir` (recovered, with a one-line report unless `quiet`), or in memory.
fn open_database(
    dir: Option<&str>,
    options: SessionOptions,
    persistence: PersistenceOptions,
    quiet: bool,
) -> SharedDatabase {
    let Some(dir) = dir else {
        return SharedDatabase::in_memory();
    };
    // Recovery replays through a session built from `options`, but a
    // replayed statement arms none of its limits and reports to none of
    // its sinks.
    let (shared, report) = match SharedDatabase::open_durable(Path::new(dir), options, persistence)
    {
        Ok(opened) => opened,
        Err(e) => die(&format!("cannot open database '{dir}': {e}")),
    };
    if !quiet {
        let view = shared.snapshot();
        let tables = view.catalog().table_names().count();
        let rows = view.catalog().total_rows();
        let source = match report.checkpoint_seq {
            Some(seq) => format!("checkpoint #{seq}"),
            None => "no checkpoint".to_string(),
        };
        let torn = if report.truncated_bytes > 0 {
            format!(", {} torn byte(s) truncated", report.truncated_bytes)
        } else {
            String::new()
        };
        println!(
            "opened {dir}: {source} + {} replayed statement(s){torn} \
             — {tables} table(s), {rows} row(s)",
            report.replayed
        );
    }
    shared
}

/// Serves `shared` (`what`) on `addr` until a loopback client sends the
/// Shutdown frame, then exits: 0 after a graceful shutdown, 1 on an error.
fn serve(shared: SharedDatabase, addr: &str, config: ServerConfig, what: &str, quiet: bool) -> ! {
    let max = config.max_connections;
    let server = match Server::bind(shared, addr, config) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot listen on '{addr}': {e}")),
    };
    if !quiet {
        let addr = server.local_addr();
        eprintln!("snapshot_db: serving {what} on {addr} (max {max} connections)");
    }
    match server.run() {
        Ok(_) => std::process::exit(0),
        Err(e) => die(&format!("snapshot_db: {e}")),
    }
}

/// What a processed line means for the surrounding loop. Interactive
/// sessions report errors and continue (never `Fail`); script mode turns
/// every error into `Fail` (exit status 1) while `.quit` stays a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    Quit,
    Fail,
}

const USAGE: &str = "usage: snapshot_db [--db DIR] [--connect HOST:PORT | --listen HOST:PORT]
                   [--script FILE] [--sync POLICY] [--checkpoint-every N]
                   [--no-index] [--verify] [--slow-ms N] [--timeout-ms N]
                   [--max-connections N] [--read-timeout-ms N]
                   [--continue-on-error] [--quiet]
  --db DIR              open a durable database in DIR (created if missing):
                        statements are write-ahead-logged and the catalog is
                        checkpointed, so the database survives restarts
  --connect HOST:PORT   run against a server (snapshot_db --listen) over TCP
                        instead of an embedded database — same statements,
                        same meta commands but .load, .parallel and .trace
                        (local tools); --timeout-ms/--slow-ms/--verify are
                        forwarded as SQL SET
  --listen HOST:PORT    serve the database over TCP instead of a shell (port
                        0 = any free port, printed), until a loopback client
                        sends Shutdown; the option flags are every
                        connection's defaults
  --max-connections N   with --listen: refuse connections beyond N (default 64)
  --read-timeout-ms N   with --listen: close connections idle for N ms
  --script FILE         execute a .sql script (meta commands allowed) and exit
  --sync POLICY         WAL sync policy: 'always' (fsync per statement, the
                        default) or 'checkpoint' (fsync only at checkpoints)
  --checkpoint-every N  auto-checkpoint after N logged statements
                        (default 64; 0 disables auto-checkpointing)
  --no-index            execute queries on the naive route only
  --verify              re-run every indexed query naively and fail on divergence
                        (also per session via SET verify_indexed = on)
  --slow-ms N           log statements taking >= N ms to the slow-query log
                        (queryable as snapshot_stat_slow_queries)
  --timeout-ms N        cancel statements still executing after N ms
                        (cooperative; also per session via SET
                        statement_timeout = N)
  --continue-on-error   in script mode, report statement errors and carry
                        on instead of exiting with status 1
  --quiet               print summaries and timings but not result tables
                        (and no banners)
  --help, -h            print this usage";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// An argument error: the message plus the full usage string.
fn die_usage(msg: &str) -> ! {
    die(&format!("{msg}\n{USAGE}"))
}

/// Where statements go: an embedded database, or a server connection.
enum Backend {
    Local {
        // Boxed: a Session is hundreds of bytes, a Client a few dozen.
        session: Box<Session>,
        /// The shared handle behind `session` — `.parallel` opens more
        /// sessions over it.
        shared: SharedDatabase,
    },
    Remote {
        client: Client,
        /// The server's transaction state after the last response —
        /// drives the `*` prompt.
        in_txn: bool,
    },
}

struct Shell {
    backend: Backend,
    quiet: bool,
    interactive: bool,
    /// `--continue-on-error` — script mode reports statement errors and
    /// carries on instead of exiting (the CI smoke scripts drive expected
    /// cancellations through this).
    continue_on_error: bool,
    /// Multi-line statement accumulator (REPL and scripts alike).
    pending: String,
    /// `.trace on` — print each statement's record after it runs
    /// (embedded backend only; a server refuses `.trace`, as no frame
    /// carries a record back).
    trace: bool,
}

impl Shell {
    fn prompt(&self) {
        // A `*` marks an open transaction (statements apply to its
        // private snapshot until COMMIT/ROLLBACK).
        let in_txn = match &self.backend {
            Backend::Local { session, .. } => session.in_transaction(),
            Backend::Remote { in_txn, .. } => *in_txn,
        };
        if in_txn {
            print!("snapshot_db*> ");
        } else {
            print!("snapshot_db> ");
        }
        let _ = std::io::stdout().flush();
    }

    /// Handles one input line.
    fn feed_line(&mut self, line: &str) -> Flow {
        let trimmed = line.trim();
        if self.pending.is_empty() {
            if trimmed.is_empty() || trimmed.starts_with("--") {
                return Flow::Continue;
            }
            if let Some(meta) = trimmed.strip_prefix('.') {
                return self.meta_command(meta);
            }
        }
        self.pending.push_str(line);
        self.pending.push('\n');
        // Only a line with a `;` can end the buffer (it did not end
        // before), so a long statement is not lexed once per line.
        if line.contains(';') && sql::ends_statement(&self.pending) {
            return self.flush_pending();
        }
        Flow::Continue
    }

    /// Reports an error; interactive sessions (and scripts run with
    /// `--continue-on-error`) carry on, other scripts fail.
    fn fail(&self, e: &str) -> Flow {
        eprintln!("error: {e}");
        if self.interactive || self.continue_on_error {
            Flow::Continue
        } else {
            Flow::Fail
        }
    }

    /// Executes the accumulated statement buffer, if any.
    fn flush_pending(&mut self) -> Flow {
        if self.pending.trim().is_empty() {
            self.pending.clear();
            return Flow::Continue;
        }
        let sql = std::mem::take(&mut self.pending);
        if !self.interactive {
            for line in sql.trim_end().lines() {
                println!("> {line}");
            }
        }
        match &mut self.backend {
            Backend::Local { .. } => self.execute_local(&sql),
            Backend::Remote { .. } => self.execute_remote(&sql),
        }
    }

    fn execute_local(&mut self, sql: &str) -> Flow {
        let Backend::Local { session, .. } = &mut self.backend else {
            unreachable!("execute_local on a remote backend");
        };
        let (quiet, started) = (self.quiet, Instant::now());
        let retries_before = session.conflict_retries().total;
        // Results print as their statements complete, as over `--connect`.
        let outcome = session.run_script(sql, |r| {
            if let (false, StatementResult::Rows(t)) = (quiet, &r) {
                print!("{}", t.to_pretty_string());
            }
            println!("{r} [{:.3} ms]", started.elapsed().as_secs_f64() * 1e3);
            true
        });
        if let Err(e) = outcome {
            return self.fail(&e.to_string());
        }
        // The phase split of the buffer's last statement, from its record.
        if !quiet {
            println!("  ({})", session.last_phase_timings().render());
        }
        let retried = session.conflict_retries().total - retries_before;
        if retried > 0 {
            println!("(retried {retried} time(s) after write-write conflicts)");
        }
        if self.trace {
            for record in session.last_statements() {
                print!("{}", record.render());
            }
        }
        Flow::Continue
    }

    fn execute_remote(&mut self, sql: &str) -> Flow {
        let Backend::Remote { client, in_txn } = &mut self.backend else {
            unreachable!("execute_remote on a local backend");
        };
        let started = Instant::now();
        match client.query(sql) {
            Ok(resp) => {
                let elapsed = started.elapsed();
                *in_txn = resp.in_txn;
                for r in &resp.results {
                    match r {
                        RemoteResult::Rows(t) => {
                            if !self.quiet {
                                print!("{}", t.to_pretty_string());
                            }
                            // Mirror the embedded shell's summary line
                            // (`StatementResult::Rows` renders as
                            // `SELECT <n>`); the timing is the round trip.
                            println!("SELECT {} [{:.3} ms]", t.len(), elapsed.as_secs_f64() * 1e3);
                        }
                        RemoteResult::Done(summary) => {
                            println!("{summary} [{:.3} ms]", elapsed.as_secs_f64() * 1e3);
                        }
                    }
                }
                match resp.error {
                    Some(e) => self.fail(&e.to_string()),
                    None => Flow::Continue,
                }
            }
            // The connection itself is gone — nothing left to shell.
            Err(e) => die(&format!("connection lost: {e}")),
        }
    }

    /// Runs one meta command: a command that duplicates SQL runs as that
    /// SQL, as the buffer of a typed statement does; the others print
    /// their text, or write it to their FILE on this host.
    fn meta_command(&mut self, meta: &str) -> Flow {
        let (word, args) = meta.split_once(char::is_whitespace).unwrap_or((meta, ""));
        match word {
            "quit" | "exit" => return Flow::Quit,
            "help" => {
                println!("{HELP}");
                return Flow::Continue;
            }
            _ => {}
        }
        let own_session = match &self.backend {
            Backend::Local { session, .. } => session.session_id(),
            Backend::Remote { client, .. } => client.session_id,
        };
        match meta::expand(meta, own_session) {
            Some(Ok(sql)) => {
                self.pending = sql;
                return self.flush_pending();
            }
            Some(Err(e)) => return self.fail(&e),
            None => {}
        }
        // The bare form answers the text that the shell writes to FILE.
        let file = file_argument(meta);
        let bare = if file.is_some() { word } else { meta };
        let output = match &mut self.backend {
            Backend::Local { session, shared } => match word {
                "load" => meta::load(session, args),
                "parallel" => meta::parallel(session, shared, args),
                "trace" => match args.trim() {
                    "on" => {
                        self.trace = true;
                        Ok("trace: on (each statement's record printed after it runs)\n".into())
                    }
                    "off" => {
                        self.trace = false;
                        Ok("trace: off\n".into())
                    }
                    _ => Err("usage: .trace on|off".into()),
                },
                _ => meta::run(bare, session),
            },
            Backend::Remote { .. } if matches!(word, "load" | "parallel" | "trace") => {
                Err(format!(
                    ".{word} is a tool of the local shell: run it in snapshot_db without --connect"
                ))
            }
            Backend::Remote { client, in_txn } => match client.meta(bare) {
                Ok(resp) => {
                    *in_txn = resp.in_txn;
                    match resp.error {
                        Some(e) => Err(e.to_string()),
                        None => Ok(resp
                            .results
                            .iter()
                            .map(|r| match r {
                                RemoteResult::Done(s) => s.as_str(),
                                RemoteResult::Rows(_) => "",
                            })
                            .collect()),
                    }
                }
                Err(e) => die(&format!("connection lost: {e}")),
            },
        };
        match (output, file) {
            (Ok(text), Some(path)) => match std::fs::write(path, &text) {
                Ok(()) => {
                    println!("wrote {} byte(s) to {path}", text.len());
                    Flow::Continue
                }
                Err(e) => self.fail(&format!("cannot write '{path}': {e}")),
            },
            (Ok(text), None) => {
                print!("{text}");
                Flow::Continue
            }
            (Err(e), _) => self.fail(&e),
        }
    }
}
