//! Shell meta commands (`.tables`, `.kill`, `.dump`, …) as a library.
//!
//! The `snapshot_db` shell historically implemented these inline and
//! printed straight to stdout. The network server needs the exact same
//! verbs executed *server-side* against a connection's session (so
//! `snapshot_db --connect` behaves like the local shell), which means the
//! implementation must produce its output as a value instead of printing
//! it. [`run_meta`] is that implementation; the shell prints the returned
//! text, the server ships it back in a frame.
//!
//! Commands that take a `FILE` argument (`.dump FILE`, `.metrics FILE`,
//! `.profile FILE`) write the file from the process that runs them — the
//! server, for remote sessions. The remote shell rewrites those to the
//! bare (text-returning) form and writes the file client-side instead.

use crate::session::{Session, SessionOptions};
use crate::shared::SharedDatabase;
use std::fmt::Write as _;
use std::time::Instant;

/// What the surrounding loop should do after a meta command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaFlow {
    /// Keep reading input.
    Continue,
    /// `.quit` — end the session.
    Quit,
}

/// A successfully executed meta command: its printed output (newline
/// terminated unless empty) and the resulting control flow.
#[derive(Debug)]
pub struct MetaOutcome {
    /// What the shell would have printed to stdout.
    pub output: String,
    /// Whether the session goes on.
    pub flow: MetaFlow,
}

impl MetaOutcome {
    fn text(output: String) -> Self {
        MetaOutcome {
            output,
            flow: MetaFlow::Continue,
        }
    }
}

/// The `.help` text, shared by the local shell and remote sessions.
pub const HELP: &str = "statements end with ';' and may span lines. Transactions:
  BEGIN; ... COMMIT;  run statements against a private snapshot, publish
                      atomically (snapshot isolation, one WAL fsync);
                      ROLLBACK discards — the prompt shows * while open.
Meta commands:
  .help              this help
  .tables            list tables (rows, period, index state)
  .load employees N  load the synthetic Employees dataset (~N employees)
  .index [t]         refresh the index of table t (all tables when omitted)
  .parallel N SQL    run a query on N concurrent reader sessions and check
                     they all agree (the shared-database demo)
  .explain SQL       show the compiled physical plan of a query (use the
                     EXPLAIN ANALYZE SQL statement for actual row counts
                     and per-operator timings)
  .verify on|off     cross-check indexed queries against the naive route
  .metrics [FILE]    dump the global metrics registry (Prometheus text
                     format) to stdout or FILE
  .trace on|off      print the tracing-span tree after every statement
  .activity          list live sessions (id, state, phase, statement,
                     elapsed, rows) — the snapshot_stat_activity view
  .kill ID           cooperatively cancel session ID's running statement
                     (same as SELECT snapshot_cancel(ID); idle = no-op)
  .timeout [N|off]   cancel statements still executing after N ms; bare
                     .timeout shows the state (also: SET statement_timeout)
  .slow [N|off]      log statements taking >= N ms (with phase split and
                     operator actuals) to the slow-query log, queryable as
                     snapshot_stat_slow_queries; bare .slow shows the state
  .profile [on|off|FILE]
                     operator-level profiler: 'on' starts (resets) folded
                     stack collection, 'off' stops it, bare .profile prints
                     the folded stacks (flamegraph format), FILE writes them

Introspection: the snapshot_stat_* virtual tables (activity, progress,
metrics, statements, tables, indexes, transactions, slow_queries) answer
ordinary SELECTs, e.g.
  SELECT * FROM snapshot_stat_statements ORDER BY total_time_ms DESC;
  .checkpoint        write a checkpoint now (durable databases only)
  .dump [FILE]       write the catalog as a re-loadable SQL script
                     (to stdout when FILE is omitted)
  .quit              exit";

/// Execute one meta command (`meta` is the line without its leading dot).
///
/// `session` is the command's target session, `shared` the database handle
/// behind it (`.parallel` opens reader sessions over it), and `template`
/// the option set those readers inherit — `.timeout`/`.slow` update it
/// alongside the live session, exactly as the interactive shell always
/// did.
pub fn run_meta(
    meta: &str,
    session: &mut Session,
    shared: &SharedDatabase,
    template: &mut SessionOptions,
) -> Result<MetaOutcome, String> {
    let mut words = meta.split_whitespace();
    let cmd = words.next().unwrap_or("");
    let out = match cmd {
        "help" => format!("{HELP}\n"),
        "quit" | "exit" => {
            return Ok(MetaOutcome {
                output: String::new(),
                flow: MetaFlow::Quit,
            })
        }
        "tables" => show_tables(session),
        "load" => load_dataset(session, words.next(), words.next())?,
        "index" => refresh_index(session, words.next())?,
        "parallel" => {
            let rest = meta.strip_prefix("parallel").unwrap_or("").trim();
            parallel(session, shared, template, rest)?
        }
        "explain" => {
            let rest = meta.strip_prefix("explain").unwrap_or("").trim();
            explain(session, rest)?
        }
        "checkpoint" => checkpoint(session)?,
        "dump" => dump(session, words.next())?,
        "metrics" => metrics(words.next())?,
        "activity" => activity(session),
        "kill" => kill(words.next())?,
        "timeout" => timeout(session, template, words.next())?,
        "slow" => slow(session, template, words.next())?,
        "profile" => profile(words.next())?,
        "trace" => match words.next() {
            Some("on") => {
                snapshot_obs::set_tracing(true);
                "trace: on (span tree printed after every statement)\n".to_string()
            }
            Some("off") => {
                snapshot_obs::set_tracing(false);
                "trace: off\n".to_string()
            }
            _ => return Err("usage: .trace on|off".to_string()),
        },
        "verify" => match words.next() {
            Some("on") => {
                session.options_mut().verify_indexed = true;
                "verify: on (indexed queries are cross-checked)\n".to_string()
            }
            Some("off") => {
                session.options_mut().verify_indexed = false;
                "verify: off\n".to_string()
            }
            _ => return Err("usage: .verify on|off".to_string()),
        },
        other => return Err(format!("unknown meta command '.{other}' (try .help)")),
    };
    Ok(MetaOutcome::text(out))
}

fn show_tables(session: &Session) -> String {
    let view = session.read_view();
    let names: Vec<String> = view.catalog().table_names().map(String::from).collect();
    if names.is_empty() {
        return "(no tables)\n".to_string();
    }
    let mut out = String::new();
    for name in names {
        let t = view.catalog().get(&name).unwrap();
        let period = match t.period() {
            Some((b, e)) => format!(
                " PERIOD ({}, {})",
                t.schema().column(b).name,
                t.schema().column(e).name
            ),
            None => String::new(),
        };
        let index = match view.indexes().get_fresh(&name, t) {
            Some(_) => " [indexed]",
            None => "",
        };
        let _ = writeln!(
            out,
            "{name} {}{period} — {} rows{index}",
            t.schema(),
            t.len()
        );
    }
    out
}

/// `.parallel N SQL` — runs the query once per each of N concurrent
/// reader sessions over the shared database and checks that all of them
/// (and the target session) agree: the multi-session object, demonstrated
/// from the shell.
fn parallel(
    session: &mut Session,
    shared: &SharedDatabase,
    template: &SessionOptions,
    rest: &str,
) -> Result<String, String> {
    let (n_word, sql) = rest
        .split_once(char::is_whitespace)
        .ok_or("usage: .parallel N SELECT ...")?;
    let n: usize = n_word
        .parse()
        .map_err(|_| "usage: .parallel N SELECT ...".to_string())?;
    if n == 0 || n > 64 {
        return Err("reader count must be between 1 and 64".into());
    }
    let sql = sql.trim().trim_end_matches(';').to_string();
    // Refuse non-queries *before* executing anything: running a DML
    // statement N times in parallel is never what ".parallel" means.
    match sql::parse_sql_statement(&sql) {
        Ok(sql::SqlStatement::Query(_)) => {}
        Ok(_) => return Err("only query statements can run in parallel".into()),
        Err(e) => return Err(e),
    }
    let reference = session
        .execute(&sql)?
        .rows()
        .ok_or("only query statements can run in parallel")?
        .canonicalized();
    let started = Instant::now();
    let results: Vec<Result<storage::Table, String>> = std::thread::scope(|scope| {
        let sql = &sql;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = shared.clone();
                let options = *template;
                scope.spawn(move || -> Result<storage::Table, String> {
                    let mut session = shared.session_with_options(options);
                    let result = session.execute(sql)?;
                    let rows = result.rows().ok_or("not a query")?;
                    Ok(rows.canonicalized())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("reader panicked".into())))
            .collect()
    });
    let elapsed = started.elapsed();
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(t) if *t == reference => {}
            Ok(t) => {
                return Err(format!(
                    "reader {i} diverged: {} vs {} rows",
                    t.len(),
                    reference.len()
                ))
            }
            Err(e) => return Err(format!("reader {i} failed: {e}")),
        }
    }
    Ok(format!(
        "{n} concurrent reader(s) agree: {} row(s) each [{:.3} ms total]\n",
        reference.len(),
        elapsed.as_secs_f64() * 1e3
    ))
}

fn load_dataset(
    session: &mut Session,
    which: Option<&str>,
    size: Option<&str>,
) -> Result<String, String> {
    match which {
        Some("employees") => {
            let n: f64 = size
                .unwrap_or("600")
                .parse()
                .map_err(|_| "usage: .load employees N".to_string())?;
            let scale = n / 300_000.0;
            let started = Instant::now();
            let catalog = datagen::employees::generate(scale, 42);
            let total = catalog.total_rows();
            let names: Vec<String> = catalog.table_names().map(String::from).collect();
            // One batch registration: on a durable database this
            // checkpoints once for the whole load (bulk loads have no
            // statement form to log).
            let tables = names
                .iter()
                .map(|name| (name.clone(), catalog.get(name).unwrap().clone()));
            session.register_tables(tables)?;
            Ok(format!(
                "loaded employees (~{n} employees): {} tables, {total} rows [{:.1} ms]\n",
                names.len(),
                started.elapsed().as_secs_f64() * 1e3
            ))
        }
        _ => Err("usage: .load employees N".to_string()),
    }
}

fn refresh_index(session: &mut Session, table: Option<&str>) -> Result<String, String> {
    let before = session.index_maintenance();
    let started = Instant::now();
    let lowered = table.map(str::to_lowercase);
    session.refresh_indexes(lowered.as_deref())?;
    let after = session.index_maintenance();
    Ok(format!(
        "indexes: {} full build(s), {} incremental [{:.3} ms]\n",
        after.full_builds - before.full_builds,
        after.incremental_builds - before.incremental_builds,
        started.elapsed().as_secs_f64() * 1e3
    ))
}

fn checkpoint(session: &mut Session) -> Result<String, String> {
    let started = Instant::now();
    match session.checkpoint()? {
        Some(seq) => Ok(format!(
            "checkpoint #{seq} written [{:.3} ms]\n",
            started.elapsed().as_secs_f64() * 1e3
        )),
        None => Err("not a durable database (start with --db DIR)".to_string()),
    }
}

fn dump(session: &Session, file: Option<&str>) -> Result<String, String> {
    let sql = snapshot_wal::dump_sql(session.read_view().catalog());
    match file {
        Some(path) => {
            std::fs::write(path, &sql).map_err(|e| format!("cannot write '{path}': {e}"))?;
            Ok(format!("dumped {} byte(s) to {path}\n", sql.len()))
        }
        None => Ok(sql),
    }
}

fn explain(session: &mut Session, sql: &str) -> Result<String, String> {
    if sql.is_empty() {
        return Err("usage: .explain SELECT ...".to_string());
    }
    let plan = session.compile(sql.trim_end_matches(';'))?;
    // Compilation cost, split by phase (parse/bind/rewrite) — run the
    // query itself (or EXPLAIN ANALYZE) for execution timings.
    Ok(format!(
        "{}  ({})\n",
        plan.explain(),
        session.last_phase_timings().render()
    ))
}

/// `.activity` — list the live sessions of this process: who is running
/// what, since when, and how much work it has done (the shell rendering of
/// `snapshot_stat_activity`). The command's own session is marked.
fn activity(session: &Session) -> String {
    let own = session.session_id();
    let mut out = String::new();
    for s in snapshot_obs::sessions_snapshot() {
        let marker = if s.session_id == own {
            " (this shell)"
        } else {
            ""
        };
        let elapsed = s
            .elapsed_ms
            .map(|ms| format!("{ms:.1} ms"))
            .unwrap_or_else(|| "-".into());
        let statement = s.statement.as_deref().unwrap_or("-");
        let peer = s
            .remote_addr
            .as_deref()
            .map(|a| format!(" peer={a}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "session {} [{} {}]{}{} phase={} elapsed={} rows={} — {}",
            s.session_id,
            s.backend,
            s.state,
            marker,
            peer,
            s.phase.as_str(),
            elapsed,
            s.usage.rows_emitted,
            statement,
        );
    }
    out
}

/// `.kill <id>` — cooperatively cancel the running statement of another
/// session (same as `SELECT snapshot_cancel(<id>)`).
fn kill(id: Option<&str>) -> Result<String, String> {
    let id: u64 = id
        .and_then(|w| w.parse().ok())
        .ok_or("usage: .kill <session-id> (see .activity)")?;
    if Session::cancel_session(id) {
        Ok(format!("session {id}: cancellation signalled\n"))
    } else {
        Ok(format!(
            "session {id}: idle or unknown — nothing to cancel\n"
        ))
    }
}

/// `.timeout [N|off]` — set, clear, or show the statement timeout.
/// Updates both the live session and the option template `.parallel`
/// readers inherit.
fn timeout(
    session: &mut Session,
    template: &mut SessionOptions,
    arg: Option<&str>,
) -> Result<String, String> {
    match arg {
        None => Ok(match template.statement_timeout_ms {
            Some(ms) => format!("statement timeout: {ms} ms\n"),
            None => "statement timeout: off\n".to_string(),
        }),
        Some("off") => {
            session.options_mut().statement_timeout_ms = None;
            template.statement_timeout_ms = None;
            Ok("statement timeout: off\n".to_string())
        }
        Some(n) => match n.parse::<u64>() {
            Ok(ms) if ms > 0 => {
                session.options_mut().statement_timeout_ms = Some(ms);
                template.statement_timeout_ms = Some(ms);
                Ok(format!("statement timeout: {ms} ms\n"))
            }
            _ => Err("usage: .timeout [N|off] (N in milliseconds, > 0)".to_string()),
        },
    }
}

/// `.slow [N|off]` — set, clear, or show the slow-query threshold.
/// Updates both the live session and the option template `.parallel`
/// readers inherit.
fn slow(
    session: &mut Session,
    template: &mut SessionOptions,
    arg: Option<&str>,
) -> Result<String, String> {
    match arg {
        None => {
            let mut out = match template.slow_query_ms {
                Some(ms) => format!("slow-query log: on (threshold {ms} ms)\n"),
                None => "slow-query log: off\n".to_string(),
            };
            let logged = snapshot_obs::slow_queries().len();
            let _ = writeln!(
                out,
                "{logged} entr(ies) logged — SELECT * FROM snapshot_stat_slow_queries;"
            );
            Ok(out)
        }
        Some("off") => {
            session.options_mut().slow_query_ms = None;
            template.slow_query_ms = None;
            Ok("slow-query log: off\n".to_string())
        }
        Some(n) => match n.parse::<u64>() {
            Ok(ms) => {
                session.options_mut().slow_query_ms = Some(ms);
                template.slow_query_ms = Some(ms);
                Ok(format!("slow-query log: on (threshold {ms} ms)\n"))
            }
            Err(_) => Err("usage: .slow [N|off] (N in milliseconds)".to_string()),
        },
    }
}

/// `.profile [on|off|FILE]` — control the operator-level profiler and
/// print or save its folded-stack output.
fn profile(arg: Option<&str>) -> Result<String, String> {
    match arg {
        Some("on") => {
            snapshot_obs::reset_profile();
            snapshot_obs::set_profiling(true);
            Ok(
                "profile: on (folded operator stacks; .profile prints, .profile FILE saves)\n"
                    .to_string(),
            )
        }
        Some("off") => {
            snapshot_obs::set_profiling(false);
            Ok("profile: off\n".to_string())
        }
        arg => {
            let text = snapshot_obs::render_folded();
            if text.is_empty() {
                return Ok(
                    "(no profile samples — enable with .profile on, then run queries)\n"
                        .to_string(),
                );
            }
            match arg {
                Some(path) => {
                    std::fs::write(path, &text)
                        .map_err(|e| format!("cannot write '{path}': {e}"))?;
                    Ok(format!("wrote {} byte(s) to {path}\n", text.len()))
                }
                None => Ok(text),
            }
        }
    }
}

/// `.metrics [FILE]` — dump the global registry in Prometheus text
/// exposition format, to stdout or a file.
fn metrics(file: Option<&str>) -> Result<String, String> {
    snapshot_obs::refresh_process_metrics();
    let text = snapshot_obs::registry().render_text();
    match file {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write '{path}': {e}"))?;
            Ok(format!("wrote {} byte(s) to {path}\n", text.len()))
        }
        None => Ok(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedDatabase;

    fn setup() -> (SharedDatabase, Session, SessionOptions) {
        let shared = SharedDatabase::in_memory();
        let session = shared.session();
        (shared, session, SessionOptions::default())
    }

    fn run(
        meta: &str,
        session: &mut Session,
        shared: &SharedDatabase,
        template: &mut SessionOptions,
    ) -> String {
        run_meta(meta, session, shared, template).unwrap().output
    }

    #[test]
    fn tables_timeout_and_kill_render_like_the_shell() {
        let (shared, mut session, mut template) = setup();
        assert_eq!(
            run("tables", &mut session, &shared, &mut template),
            "(no tables)\n"
        );
        session
            .execute("CREATE TABLE works (name TEXT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        let out = run("tables", &mut session, &shared, &mut template);
        assert!(out.contains("works"), "{out}");
        assert!(out.contains("PERIOD (ts, te)"), "{out}");

        let out = run("timeout 250", &mut session, &shared, &mut template);
        assert_eq!(out, "statement timeout: 250 ms\n");
        assert_eq!(session.options().statement_timeout_ms, Some(250));
        assert_eq!(template.statement_timeout_ms, Some(250));
        let out = run("timeout off", &mut session, &shared, &mut template);
        assert_eq!(out, "statement timeout: off\n");
        assert_eq!(template.statement_timeout_ms, None);

        let out = run("kill 999999999", &mut session, &shared, &mut template);
        assert!(out.contains("idle or unknown"), "{out}");
    }

    #[test]
    fn quit_signals_and_unknown_commands_error() {
        let (shared, mut session, mut template) = setup();
        let outcome = run_meta("quit", &mut session, &shared, &mut template).unwrap();
        assert_eq!(outcome.flow, MetaFlow::Quit);
        assert!(run_meta("nonsense", &mut session, &shared, &mut template).is_err());
        assert!(run_meta("verify sideways", &mut session, &shared, &mut template).is_err());
    }

    #[test]
    fn activity_marks_the_calling_session_and_dump_roundtrips() {
        let (shared, mut session, mut template) = setup();
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
        let out = run("activity", &mut session, &shared, &mut template);
        assert!(out.contains("(this shell)"), "{out}");
        let dumped = run("dump", &mut session, &shared, &mut template);
        assert!(dumped.contains("CREATE TABLE t"), "{dumped}");
        assert!(dumped.contains("INSERT INTO t"), "{dumped}");
    }
}
