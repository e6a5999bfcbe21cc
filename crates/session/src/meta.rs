//! Shell meta commands (`.tables`, `.kill`, `.dump`, …) as a library.
//!
//! A command that duplicates SQL is that SQL: [`expand`] turns it into
//! statement text, which a shell runs as it runs a typed statement (the
//! local shell through `Session::run_script`, the remote shell in a
//! `Query` frame), so it prints the same on both backends. The commands
//! with no SQL form produce their output as a value: [`run`] answers the
//! five a server answers too (`.checkpoint`, `.dump`, `.index`,
//! `.metrics`, `.profile`), and [`load`] and [`parallel`] are the local
//! shell's own tools.
//!
//! The `FILE` argument of `.dump FILE`, `.metrics FILE` and
//! `.profile FILE` (see [`file_argument`]) is the shell's to write, from
//! the bare form's text, on the shell's own host: [`run`] writes no file.

use crate::session::Session;
use crate::shared::SharedDatabase;
use std::time::Instant;

/// The `.help` text, shared by the local shell and remote sessions.
pub const HELP: &str = "statements end with ';' and may span lines. Transactions:
  BEGIN; ... COMMIT;  run statements against a private snapshot, publish
                      atomically (snapshot isolation, one WAL fsync);
                      ROLLBACK discards — the prompt shows * while open.
Session options: SET name = value writes one, SHOW name reads it back.

Meta commands that are SQL (the shell runs the statement, the same way
with or without --connect):
  .tables            SELECT name, schema, rows FROM snapshot_stat_tables
  .explain SQL       EXPLAIN SQL: the compiled physical plan of one query
                     (EXPLAIN ANALYZE SQL also runs it, with actuals)
  .activity          the live sessions, from snapshot_stat_activity; the
                     this_shell column marks the shell's own
  .kill ID           SELECT snapshot_cancel(ID): cooperatively cancel
                     session ID's running statement (idle = no-op)
  .timeout [N|off]   SET statement_timeout: cancel statements still
                     executing after N ms; bare: SHOW statement_timeout
  .slow [N|off]      SET slow_query_ms: log statements taking >= N ms to
                     snapshot_stat_slow_queries; bare: SHOW slow_query_ms
  .verify on|off     SET verify_indexed: cross-check indexed queries
                     against the naive route
Meta commands a server answers too (FILE is written by the shell):
  .checkpoint        write a checkpoint now (durable databases only)
  .dump [FILE]       the catalog as a re-loadable SQL script
  .index [t]         report index builds for table t (all tables when
                     omitted): 0, since every index is built when its
                     table is published (the commit repairs it)
  .metrics [FILE]    the database's metrics registry (Prometheus text)
  .profile [on|off|FILE]
                     operator-level profiler: 'on' starts (resets) folded
                     stack collection, 'off' stops it, bare .profile prints
                     the folded stacks (flamegraph format)
Tools of the local shell (refused with --connect):
  .load employees N  load the synthetic Employees dataset (N: 1..=300000)
  .parallel N SQL    run a query on N concurrent reader sessions and check
                     they all agree (the shared-database demo)
  .trace on|off      after every statement print its phases, executed plan
                     with actuals and commit split
  .help              this help
  .quit              exit

Introspection: the snapshot_stat_* virtual tables (activity, progress,
metrics, statements, tables, indexes, transactions, slow_queries) answer
ordinary SELECTs, e.g.
  SELECT * FROM snapshot_stat_statements ORDER BY total_time_ms DESC;";

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

/// The SQL text of a meta command that duplicates SQL (`meta` is the line
/// without its leading dot): `None` for a command with no SQL form, an
/// error for bad arguments. The statement of `.explain` is the only user
/// text it carries; every other command formats only the arguments it
/// parsed (a number, `on` or `off`). `own_session` is the caller's
/// session id, which `.activity` marks.
pub fn expand(meta: &str, own_session: u64) -> Option<Result<String, String>> {
    let (word, rest) = meta.split_once(char::is_whitespace).unwrap_or((meta, ""));
    let mut args = rest.split_whitespace();
    let (arg, extra) = (args.next(), args.next());
    let option = |name: &str, usage: &str| match (arg, extra) {
        (None, _) => Ok(format!("SHOW {name}")),
        (Some("off"), None) => Ok(format!("SET {name} = off")),
        (Some(n), None) => (n.parse::<u64>())
            .map(|n| format!("SET {name} = {n}"))
            .map_err(|_| usage.to_string()),
        _ => Err(usage.to_string()),
    };
    Some(match word {
        "tables" => Ok("SELECT name, schema, rows FROM snapshot_stat_tables ORDER BY name".into()),
        "explain" => match sql::split_script(rest).as_slice() {
            [] => Err("usage: .explain SELECT ...".to_string()),
            [statement] => Ok(format!("EXPLAIN {statement}")),
            more => Err(format!("expected one statement, found {}", more.len())),
        },
        "activity" => Ok(format!(
            "SELECT session_id, session_id = {own_session} AS this_shell, backend, state, \
             phase, elapsed_ms, rows_emitted, remote_addr, statement \
             FROM snapshot_stat_activity ORDER BY session_id"
        )),
        "kill" => match (arg.map(str::parse::<u64>), extra) {
            (Some(Ok(id)), None) => Ok(format!("SELECT snapshot_cancel({id})")),
            _ => Err("usage: .kill <session-id> (see .activity)".to_string()),
        },
        "timeout" => option("statement_timeout", "usage: .timeout [N|off]"),
        "slow" => option("slow_query_ms", "usage: .slow [N|off]"),
        "verify" => match (arg, extra) {
            (Some(v @ ("on" | "off")), None) => Ok(format!("SET verify_indexed = {v}")),
            _ => Err("usage: .verify on|off".to_string()),
        },
        _ => return None,
    })
}

/// Runs one of the meta commands with no SQL form that a server answers
/// too, in its bare form: `.checkpoint`, `.dump`, `.index [t]`,
/// `.metrics` and `.profile [on|off]`.
pub fn run(meta: &str, session: &mut Session) -> Result<String, String> {
    let mut words = meta.split_whitespace();
    let started = Instant::now();
    let ms = || started.elapsed().as_secs_f64() * 1e3;
    match (words.next().unwrap_or(""), words.next(), words.next()) {
        ("checkpoint", None, _) => match session.checkpoint()? {
            Some(seq) => Ok(format!("checkpoint #{seq} written [{:.3} ms]\n", ms())),
            None => Err("not a durable database (start with --db DIR)".to_string()),
        },
        ("dump", None, _) => Ok(snapshot_wal::dump_sql(session.read_view().catalog())),
        ("index", table, None) => {
            let before = session.index_maintenance();
            session.refresh_indexes(table.map(str::to_lowercase).as_deref())?;
            let after = session.index_maintenance();
            Ok(format!(
                "indexes: {} full build(s), {} incremental [{:.3} ms]\n",
                after.full_builds - before.full_builds,
                after.incremental_builds - before.incremental_builds,
                ms()
            ))
        }
        ("metrics", None, _) => {
            let registry = &session.obs().metrics;
            registry.refresh_process_metrics();
            Ok(registry.render_text())
        }
        ("profile", switch @ (None | Some("on" | "off")), None) => {
            let profile = &session.obs().profile;
            Ok(match switch {
                Some("on") => {
                    profile.set_enabled(true);
                    "profile: on (folded operator stacks; .profile prints, .profile FILE saves)\n"
                        .to_string()
                }
                Some(_) => {
                    profile.set_enabled(false);
                    "profile: off\n".to_string()
                }
                // Exactly the folded stacks, empty or not: what a shell
                // writes into `.profile FILE`.
                None => profile.render_folded(),
            })
        }
        _ if file_argument(meta).is_some() => {
            Err("FILE is written by the shell: send the bare form".to_string())
        }
        _ => Err(format!("unknown meta command '.{meta}' (try .help)")),
    }
}

/// `.load employees N` — generates the synthetic Employees dataset at N
/// employees (1 to the generator's full scale) and registers it;
/// `args` are the words after `load`.
pub fn load(session: &mut Session, args: &str) -> Result<String, String> {
    let full = datagen::employees::FULL_SCALE_EMPLOYEES;
    let usage = || format!("usage: .load employees N (N from 1 to {full})");
    let mut words = args.split_whitespace();
    if words.next() != Some("employees") {
        return Err(usage());
    }
    let n = (words.next().unwrap_or("600").parse().ok())
        .filter(|n| (1..=full).contains(n))
        .ok_or_else(usage)?;
    let scale = n as f64 / full as f64;
    let started = Instant::now();
    let catalog = datagen::employees::generate(scale, 42);
    let total = catalog.total_rows();
    let names: Vec<String> = catalog.table_names().map(String::from).collect();
    // One batch registration: on a durable database this checkpoints once
    // for the whole load (bulk loads have no statement form to log).
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

/// `.parallel N SQL` — runs the query once per each of N concurrent
/// reader sessions over the shared database and checks that all of them
/// (and the target session) agree: the multi-session object, demonstrated
/// from the shell. `args` are the words after `parallel`.
pub fn parallel(
    session: &mut Session,
    shared: &SharedDatabase,
    args: &str,
) -> Result<String, String> {
    let (n_word, sql) = args
        .trim()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedDatabase;
    use crate::StatementResult;

    fn setup() -> (SharedDatabase, Session) {
        let shared = SharedDatabase::in_memory();
        let session = shared.session();
        (shared, session)
    }

    /// The SQL `meta` stands for.
    fn sql_of(meta: &str, session: &Session) -> String {
        expand(meta, session.session_id()).unwrap().unwrap()
    }

    /// Runs `meta`'s SQL as the shell runs a typed statement: the result
    /// tables of the script, in order.
    fn rows_of(meta: &str, session: &mut Session) -> Vec<storage::Table> {
        let sql = sql_of(meta, session);
        let results = session.execute_script(&sql).unwrap();
        results
            .iter()
            .filter_map(StatementResult::rows)
            .cloned()
            .collect()
    }

    fn cell(table: &storage::Table, row: usize, column: &str) -> storage::Value {
        let i = table.schema().resolve(None, column).unwrap();
        table.rows()[row].get(i).clone()
    }

    #[test]
    fn tables_timeout_and_kill_render_like_the_shell() {
        let (_shared, mut session) = setup();
        assert!(rows_of("tables", &mut session)[0].is_empty());
        session
            .execute("CREATE TABLE works (name TEXT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        let tables = &rows_of("tables", &mut session)[0];
        assert_eq!(cell(tables, 0, "name"), storage::Value::str("works"));
        let schema = "(name TEXT, ts INT, te INT) PERIOD (ts, te)";
        assert_eq!(cell(tables, 0, "schema"), storage::Value::str(schema));

        assert_eq!(
            sql_of("timeout 250", &session),
            "SET statement_timeout = 250"
        );
        session
            .execute_script(&sql_of("timeout 250", &session))
            .unwrap();
        assert_eq!(session.options().statement_timeout_ms, Some(250));
        let shown = &rows_of("timeout", &mut session)[0];
        assert_eq!(
            cell(shown, 0, "statement_timeout"),
            storage::Value::str("250")
        );
        session
            .execute_script(&sql_of("timeout off", &session))
            .unwrap();
        assert_eq!(session.options().statement_timeout_ms, None);
        assert!(expand("timeout soon", 1).unwrap().is_err());

        let killed = &rows_of("kill 999999999", &mut session)[0];
        assert_eq!(cell(killed, 0, "cancelled"), storage::Value::Bool(false));
    }

    /// `SET` and the meta commands share one option set: bare `.timeout`
    /// and `.slow` read what `SET` left, and `.parallel` readers start
    /// from the live session's options — here `slow_query_ms = 0`, which
    /// puts the reference run and every reader into the slow-query log.
    #[test]
    fn meta_commands_see_what_set_left() {
        let (shared, mut session) = setup();
        session.execute("SET statement_timeout = 250").unwrap();
        let shown = &rows_of("timeout", &mut session)[0];
        assert_eq!(
            cell(shown, 0, "statement_timeout"),
            storage::Value::str("250")
        );
        session.execute("SET slow_query_ms = 0").unwrap();
        let shown = &rows_of("slow", &mut session)[0];
        assert_eq!(cell(shown, 0, "slow_query_ms"), storage::Value::str("0"));

        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
        let out = parallel(&mut session, &shared, "3 SELECT x FROM t").unwrap();
        assert!(out.starts_with("3 concurrent reader(s) agree"), "{out}");
        let logged = shared
            .obs()
            .slow_log
            .entries()
            .iter()
            .filter(|q| q.statement.to_lowercase().contains("from t"))
            .count();
        assert_eq!(logged, 1 + 3, "the reference run and every reader");

        assert_eq!(sql_of("slow off", &session), "SET slow_query_ms = off");
        assert_eq!(sql_of("verify on", &session), "SET verify_indexed = on");
        session
            .execute_script(&sql_of("verify on", &session))
            .unwrap();
        assert!(session.options().verify_indexed);
    }

    /// `.explain` is `EXPLAIN` of one statement: the plan, a line per row,
    /// with its compilation phases in the statement's record; it executes
    /// nothing, and text holding more than one statement is refused.
    #[test]
    fn explain_prints_the_plan_and_its_compilation_phases() {
        let (_shared, mut session) = setup();
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        let query = "explain SEQ VT (SELECT count(*) AS c FROM t);";
        assert_eq!(
            sql_of(query, &session),
            "EXPLAIN SEQ VT (SELECT count(*) AS c FROM t)"
        );
        let plan = &rows_of(query, &mut session)[0];
        let first = cell(plan, 0, "query plan").to_string();
        assert!(first.starts_with("TemporalAggregate"), "{first}");
        let phases = session.last_phase_timings().render();
        assert!(phases.starts_with("parse "), "{phases}");
        assert!(!phases.contains("execute"), "nothing ran: {phases}");
        let insert = sql_of("explain INSERT INTO t VALUES (1, 0, 5)", &session);
        assert!(session.execute_script(&insert).is_err());
        assert_eq!(
            expand("explain SELECT x FROM t; DROP TABLE t", 1),
            Some(Err("expected one statement, found 2".to_string()))
        );
        assert!(expand("explain", 1).unwrap().is_err());
        assert_eq!(session.read_view().catalog().get("t").unwrap().len(), 0);
    }

    /// `.load employees N` takes a whole number of employees up to the
    /// generator's full scale and refuses anything else before generating.
    #[test]
    fn load_refuses_all_but_a_whole_number_up_to_full_scale() {
        let (_shared, mut session) = setup();
        for n in ["0", "-1", "NaN", "inf", "1e15", "300001", "2.5"] {
            let refused = load(&mut session, &format!("employees {n}"));
            assert!(refused.is_err(), "{n}: {refused:?}");
        }
        assert!(load(&mut session, "departments 10").is_err());
        assert_eq!(session.read_view().catalog().table_names().count(), 0);
        let out = load(&mut session, "employees 10").unwrap();
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

    /// Arguments are parsed before any SQL is formatted: a bad one is a
    /// usage error, and the words with no SQL form expand to nothing.
    /// `run` refuses what it does not answer, FILE forms included.
    #[test]
    fn unknown_commands_and_bad_arguments_error() {
        let (_shared, mut session) = setup();
        for bad in [
            "kill 1); DROP TABLE t; --",
            "kill",
            "kill 1 2",
            "kill -1",
            "timeout 1 2",
            "slow soon",
            "verify sideways",
            "verify",
        ] {
            assert!(expand(bad, 1).unwrap().is_err(), "{bad}");
        }
        // What is formatted is the parsed number, not the text typed.
        let parsed = expand("timeout +0250", 1).unwrap();
        assert_eq!(parsed.as_deref(), Ok("SET statement_timeout = 250"));
        for word in [
            "help",
            "quit",
            "checkpoint",
            "dump",
            "load employees 9",
            "trace on",
        ] {
            assert_eq!(expand(word, 1), None, "{word}");
        }
        for refused in [
            "nonsense",
            "dump out.sql",
            "profile out.folded",
            "load employees 9",
        ] {
            assert!(run(refused, &mut session).is_err(), "{refused}");
        }
    }

    #[test]
    fn activity_marks_the_calling_session_and_dump_roundtrips() {
        let (shared, mut session) = setup();
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
        let _other = shared.session();
        let activity = &rows_of("activity", &mut session)[0];
        assert_eq!(activity.len(), 2);
        let own: Vec<_> = (0..activity.len())
            .filter(|&i| cell(activity, i, "this_shell") == storage::Value::Bool(true))
            .map(|i| cell(activity, i, "session_id"))
            .collect();
        assert_eq!(own, [storage::Value::Int(session.session_id() as i64)]);
        let dumped = run("dump", &mut session).unwrap();
        assert!(dumped.contains("CREATE TABLE t"), "{dumped}");
        assert!(dumped.contains("INSERT INTO t"), "{dumped}");
    }
}
