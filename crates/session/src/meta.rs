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
//! `.profile FILE`, see [`file_argument`]) write the file from the process
//! that runs them. A server refuses them, so no peer writes a file on the
//! server's host; the remote shell sends the bare (text-returning) form
//! and writes the file client-side instead.

use crate::session::Session;
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
  .load employees N  load the synthetic Employees dataset (N: 1..=300000)
  .index [t]         report index builds for table t (all tables when
                     omitted): 0, since every index is built when its
                     table is published (the commit repairs it)
  .parallel N SQL    run a query on N concurrent reader sessions and check
                     they all agree (the shared-database demo)
  .explain SQL       show the compiled physical plan of a query (use the
                     EXPLAIN ANALYZE SQL statement for actual row counts
                     and per-operator timings)
  .verify on|off     cross-check indexed queries against the naive route
  .metrics [FILE]    dump the database's metrics registry (Prometheus
                     text format) to stdout or FILE
  .trace on|off      after every statement print its phases, executed plan
                     with actuals and commit split (local only)
  .activity          list live sessions (id, state, phase, statement,
                     elapsed, rows) — the snapshot_stat_activity view
  .kill ID           cooperatively cancel session ID's running statement
                     (same as SELECT snapshot_cancel(ID); idle = no-op)
  .timeout [N|off]   cancel statements still executing after N ms; bare
                     .timeout shows the state (also: SET statement_timeout)
  .slow [N|off]      log statements taking >= N ms (with phase split and
                     operator actuals) to the slow-query log, queryable as
                     snapshot_stat_slow_queries; bare .slow shows the state
                     (also: SET slow_query_ms)
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

/// The `FILE` argument of `.dump FILE`, `.metrics FILE` or `.profile FILE`
/// (not `.profile on|off`); `meta` is the line without its leading dot.
pub fn file_argument(meta: &str) -> Option<&str> {
    let mut words = meta.split_whitespace();
    match (words.next()?, words.next()?) {
        ("profile", "on" | "off") => None,
        ("dump" | "metrics" | "profile", file) => Some(file),
        _ => None,
    }
}

/// Execute one meta command (`meta` is the line without its leading dot).
///
/// `session` is the command's target session and `shared` the database
/// handle behind it (`.parallel` opens reader sessions over it, each with
/// a copy of `session`'s options).
pub fn run_meta(
    meta: &str,
    session: &mut Session,
    shared: &SharedDatabase,
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
            parallel(session, shared, rest)?
        }
        "explain" => {
            let rest = meta.strip_prefix("explain").unwrap_or("").trim();
            explain(session, rest)?
        }
        "checkpoint" => checkpoint(session)?,
        "dump" => dump(session, words.next())?,
        "metrics" => metrics(session, words.next())?,
        "activity" => activity(session),
        "kill" => kill(session, words.next())?,
        "timeout" => timeout(session, words.next())?,
        "slow" => slow(session, words.next())?,
        "profile" => profile(session, words.next())?,
        // The shell keeps the switch: it prints each statement's record
        // (`Session::last_statements`) after running a buffer.
        "trace" => match words.next() {
            Some("on") => "trace: on (each statement's record printed after it runs)\n".to_string(),
            Some("off") => "trace: off\n".to_string(),
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
fn parallel(session: &mut Session, shared: &SharedDatabase, rest: &str) -> Result<String, String> {
    let (n_word, sql) = rest
        .split_once(char::is_whitespace)
        .ok_or("usage: .parallel N SELECT ...")?;
    let n: usize = n_word
        .parse()
        .map_err(|_| "usage: .parallel N SELECT ...".to_string())?;
    if n == 0 || n > 64 {
        return Err("reader count must be between 1 and 64".into());
    }
    // Refuse non-queries *before* executing anything: running a DML
    // statement N times in parallel is never what ".parallel" means.
    match sql::parse_sql_statement(sql) {
        Ok(sql::SqlStatement::Query(_)) => {}
        Ok(_) => return Err("only query statements can run in parallel".into()),
        Err(e) => return Err(e),
    }
    let reference = session
        .execute(sql)?
        .rows()
        .ok_or("only query statements can run in parallel")?
        .canonicalized();
    let started = Instant::now();
    let options = *session.options();
    let results: Vec<Result<storage::Table, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = shared.clone();
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
            let full = datagen::employees::FULL_SCALE_EMPLOYEES;
            let n = (size.unwrap_or("600").parse().ok())
                .filter(|n| (1..=full).contains(n))
                .ok_or_else(|| format!("usage: .load employees N (N from 1 to {full})"))?;
            let scale = n as f64 / full as f64;
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

fn refresh_index(session: &Session, table: Option<&str>) -> Result<String, String> {
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
    let result = session
        .execute(&format!("EXPLAIN {sql}"))
        .map_err(|e| e.to_string())?;
    let mut out: String = (result.rows().into_iter())
        .flat_map(|plan| plan.rows())
        .map(|line| format!("{}\n", line.get(0)))
        .collect();
    // Compilation cost, split by phase (parse/bind/rewrite) — run the
    // query itself (or EXPLAIN ANALYZE) for execution timings.
    let _ = writeln!(out, "  ({})", session.last_phase_timings().render());
    Ok(out)
}

/// `.activity` — list the live sessions of this database: who is running
/// what, since when, and how much work it has done (the shell rendering of
/// `snapshot_stat_activity`). The command's own session is marked.
fn activity(session: &Session) -> String {
    let own = session.session_id();
    let mut out = String::new();
    for s in session.obs().activity.snapshot() {
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
/// session of the same database (same as `SELECT snapshot_cancel(<id>)`).
fn kill(session: &Session, id: Option<&str>) -> Result<String, String> {
    let id: u64 = id
        .and_then(|w| w.parse().ok())
        .ok_or("usage: .kill <session-id> (see .activity)")?;
    if session.obs().activity.cancel(id) {
        Ok(format!("session {id}: cancellation signalled\n"))
    } else {
        Ok(format!(
            "session {id}: idle or unknown — nothing to cancel\n"
        ))
    }
}

/// `.timeout [N|off]` — set (as `SET statement_timeout` does), clear, or
/// show the session's statement timeout.
fn timeout(session: &mut Session, arg: Option<&str>) -> Result<String, String> {
    if let Some(value) = arg {
        session.set_option("statement_timeout", value)?;
    }
    Ok(match session.options().statement_timeout_ms {
        Some(ms) => format!("statement timeout: {ms} ms\n"),
        None => "statement timeout: off\n".to_string(),
    })
}

/// `.slow [N|off]` — set (as `SET slow_query_ms` does), clear, or show the
/// session's slow-query threshold; bare `.slow` also counts the log.
fn slow(session: &mut Session, arg: Option<&str>) -> Result<String, String> {
    if let Some(value) = arg {
        session.set_option("slow_query_ms", value)?;
    }
    let mut out = match session.options().slow_query_ms {
        Some(ms) => format!("slow-query log: on (threshold {ms} ms)\n"),
        None => "slow-query log: off\n".to_string(),
    };
    if arg.is_none() {
        let logged = session.obs().slow_log.entries().len();
        let _ = writeln!(
            out,
            "{logged} entr(ies) logged — SELECT * FROM snapshot_stat_slow_queries;"
        );
    }
    Ok(out)
}

/// `.profile [on|off|FILE]` — control the database's operator-level
/// profiler and print or save its folded-stack output.
fn profile(session: &Session, arg: Option<&str>) -> Result<String, String> {
    let profile = &session.obs().profile;
    match arg {
        Some("on") => {
            profile.set_enabled(true);
            Ok(
                "profile: on (folded operator stacks; .profile prints, .profile FILE saves)\n"
                    .to_string(),
            )
        }
        Some("off") => {
            profile.set_enabled(false);
            Ok("profile: off\n".to_string())
        }
        // Exactly the folded stacks, empty or not: a remote shell writes
        // what bare `.profile` returns into its FILE.
        arg => {
            let text = profile.render_folded();
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

/// `.metrics [FILE]` — dump the database's registry in Prometheus text
/// exposition format, to stdout or a file.
fn metrics(session: &Session, file: Option<&str>) -> Result<String, String> {
    let registry = &session.obs().metrics;
    registry.refresh_process_metrics();
    let text = registry.render_text();
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

    fn setup() -> (SharedDatabase, Session) {
        let shared = SharedDatabase::in_memory();
        let session = shared.session();
        (shared, session)
    }

    fn run(meta: &str, session: &mut Session, shared: &SharedDatabase) -> String {
        run_meta(meta, session, shared).unwrap().output
    }

    #[test]
    fn tables_timeout_and_kill_render_like_the_shell() {
        let (shared, mut session) = setup();
        assert_eq!(run("tables", &mut session, &shared), "(no tables)\n");
        session
            .execute("CREATE TABLE works (name TEXT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        let out = run("tables", &mut session, &shared);
        assert!(out.contains("works"), "{out}");
        assert!(out.contains("PERIOD (ts, te)"), "{out}");

        let out = run("timeout 250", &mut session, &shared);
        assert_eq!(out, "statement timeout: 250 ms\n");
        assert_eq!(session.options().statement_timeout_ms, Some(250));
        let out = run("timeout off", &mut session, &shared);
        assert_eq!(out, "statement timeout: off\n");
        assert_eq!(session.options().statement_timeout_ms, None);
        assert!(run_meta("timeout soon", &mut session, &shared).is_err());

        let out = run("kill 999999999", &mut session, &shared);
        assert!(out.contains("idle or unknown"), "{out}");
    }

    /// `SET` and the meta commands share one option set: `.timeout` and
    /// `.slow` report what `SET` left, and `.parallel` readers start from
    /// the live session's options — here `slow_query_ms = 0`, which puts
    /// the reference run and every reader into the slow-query log.
    #[test]
    fn meta_commands_see_what_set_left() {
        let (shared, mut session) = setup();
        session.execute("SET statement_timeout = 250").unwrap();
        let out = run("timeout", &mut session, &shared);
        assert_eq!(out, "statement timeout: 250 ms\n");
        session.execute("SET slow_query_ms = 0").unwrap();
        let out = run("slow", &mut session, &shared);
        assert!(
            out.starts_with("slow-query log: on (threshold 0 ms)\n"),
            "{out}"
        );

        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
        let out = run("parallel 3 SELECT x FROM t", &mut session, &shared);
        assert!(out.starts_with("3 concurrent reader(s) agree"), "{out}");
        let logged = shared
            .obs()
            .slow_log
            .entries()
            .iter()
            .filter(|q| q.statement.to_lowercase().contains("from t"))
            .count();
        assert_eq!(logged, 1 + 3, "the reference run and every reader");

        let out = run("slow off", &mut session, &shared);
        assert_eq!(out, "slow-query log: off\n");
    }

    /// `.explain` prints what the `EXPLAIN` statement answers, a plan line
    /// per row, then the compilation phases; it executes nothing.
    #[test]
    fn explain_prints_the_plan_and_its_compilation_phases() {
        let (shared, mut session) = setup();
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        let query = "explain SEQ VT (SELECT count(*) AS c FROM t);";
        let out = run(query, &mut session, &shared);
        let (plan, phases) = out.trim_end().rsplit_once('\n').unwrap();
        assert!(plan.starts_with("TemporalAggregate"), "{out}");
        assert!(phases.starts_with("  (parse "), "{out}");
        assert!(!phases.contains("execute"), "nothing ran: {out}");
        let insert = "explain INSERT INTO t VALUES (1, 0, 5)";
        assert!(run_meta(insert, &mut session, &shared).is_err());
        assert_eq!(session.read_view().catalog().get("t").unwrap().len(), 0);
    }

    /// `.load employees N` takes a whole number of employees up to the
    /// generator's full scale and refuses anything else before generating.
    #[test]
    fn load_refuses_all_but_a_whole_number_up_to_full_scale() {
        let (shared, mut session) = setup();
        for n in ["0", "-1", "NaN", "inf", "1e15", "300001", "2.5"] {
            let refused = run_meta(&format!("load employees {n}"), &mut session, &shared);
            assert!(refused.is_err(), "{n}: {refused:?}");
        }
        assert_eq!(session.read_view().catalog().table_names().count(), 0);
        let out = run("load employees 10", &mut session, &shared);
        assert!(out.starts_with("loaded employees (~10 employees)"), "{out}");
    }

    #[test]
    fn file_arguments_are_those_of_dump_metrics_and_profile() {
        assert_eq!(file_argument("dump /tmp/x.sql"), Some("/tmp/x.sql"));
        assert_eq!(file_argument("metrics on"), Some("on"));
        assert_eq!(file_argument("profile out.folded"), Some("out.folded"));
        for bare in [
            "dump",
            "metrics",
            "profile",
            "profile on",
            "profile off",
            "load employees 9",
        ] {
            assert_eq!(file_argument(bare), None, "{bare}");
        }
    }

    #[test]
    fn quit_signals_and_unknown_commands_error() {
        let (shared, mut session) = setup();
        let outcome = run_meta("quit", &mut session, &shared).unwrap();
        assert_eq!(outcome.flow, MetaFlow::Quit);
        assert!(run_meta("nonsense", &mut session, &shared).is_err());
        assert!(run_meta("verify sideways", &mut session, &shared).is_err());
    }

    #[test]
    fn activity_marks_the_calling_session_and_dump_roundtrips() {
        let (shared, mut session) = setup();
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
        let out = run("activity", &mut session, &shared);
        assert!(out.contains("(this shell)"), "{out}");
        let dumped = run("dump", &mut session, &shared);
        assert!(dumped.contains("CREATE TABLE t"), "{dumped}");
        assert!(dumped.contains("INSERT INTO t"), "{dumped}");
    }
}
