//! Observability end-to-end tests: `EXPLAIN [ANALYZE]`, per-phase
//! statement timings, registry publication, the text exposition's format,
//! and the statement records the shell's `.trace` prints.
//!
//! The differential heart of the suite replays the CI smoke script
//! (`tests/sql/smoke.sql`, meta commands stripped) and, for every query
//! statement, runs `EXPLAIN ANALYZE` against the same database state: the
//! root operator's `actual rows=` annotation and the `(result: N rows …)`
//! footer must both equal the cardinality the query actually returns.

#[path = "support/expofmt.rs"]
mod expofmt;

use snapshot_session::{
    PersistenceOptions, Session, SessionOptions, SharedDatabase, StatementRecord, StatementResult,
};
use std::path::PathBuf;
use storage::Value;

/// The smoke script's statement stream, meta commands and comments
/// stripped (the same filtering the persistence suite applies).
fn smoke_statements() -> Vec<String> {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/sql/smoke.sql"),
    )
    .expect("smoke script readable");
    let sql: String = text
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("--") && !t.starts_with('.')
        })
        .collect::<Vec<_>>()
        .join("\n");
    sql::split_script(&sql)
}

/// The rendered plan lines of an `EXPLAIN` result.
fn plan_lines(result: &StatementResult) -> Vec<String> {
    let table = result.rows().expect("EXPLAIN returns rows");
    assert_eq!(table.schema().column(0).name, "query plan");
    table
        .rows()
        .iter()
        .map(|r| match &r.values()[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("plan line is not text: {other:?}"),
        })
        .collect()
}

/// Extracts the integer right after `key` in `line`.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The smoke-script differential: for every query, actual cardinality ==
/// the root operator's `actual rows=` == the `(result: N rows …)` footer.
fn run_smoke_differential(session: &mut Session) {
    let mut queries_checked = 0;
    for stmt_text in smoke_statements() {
        let is_query = matches!(
            sql::parse_sql_statement(&stmt_text),
            Ok(sql::SqlStatement::Query(_))
        );
        if is_query {
            // Queries are read-only, so running the query and then
            // EXPLAIN ANALYZE sees the identical state.
            let actual = session
                .execute(&stmt_text)
                .unwrap_or_else(|e| panic!("{stmt_text}: {e}"))
                .rows()
                .unwrap()
                .len() as u64;
            let explained = session
                .execute(&format!("EXPLAIN ANALYZE {stmt_text}"))
                .unwrap_or_else(|e| panic!("EXPLAIN ANALYZE {stmt_text}: {e}"));
            let lines = plan_lines(&explained);
            let root_rows = number_after(&lines[0], "actual rows=")
                .unwrap_or_else(|| panic!("no actual rows on root: {}", lines[0]));
            let footer = lines.last().unwrap();
            let footer_rows = number_after(footer, "(result: ")
                .unwrap_or_else(|| panic!("no result footer: {footer}"));
            assert_eq!(root_rows, actual, "root operator rows for {stmt_text}");
            assert_eq!(footer_rows, actual, "result footer for {stmt_text}");
            queries_checked += 1;
        } else {
            session
                .execute(&stmt_text)
                .unwrap_or_else(|e| panic!("{stmt_text}: {e}"));
        }
    }
    assert!(
        queries_checked >= 8,
        "smoke script should exercise plenty of queries, got {queries_checked}"
    );
}

/// For every query in the smoke script: actual cardinality == the root
/// operator's `actual rows=` == the `(result: N rows …)` footer.
#[test]
fn explain_analyze_matches_actual_cardinalities_on_smoke_queries() {
    run_smoke_differential(&mut Session::default());
}

/// The same differential on a shared (MVCC) session — EXPLAIN ANALYZE
/// runs against a pinned snapshot like any other read.
#[test]
fn explain_analyze_matches_cardinalities_on_shared_sessions() {
    let shared = SharedDatabase::in_memory();
    let mut session = shared.session();
    session
        .execute("CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session
        .execute("INSERT INTO works VALUES ('Ann','SP',3,10), ('Joe','NS',8,16), ('Sam','SP',8,16)")
        .unwrap();
    let query = "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";
    let actual = session.execute(query).unwrap().rows().unwrap().len() as u64;
    let lines = plan_lines(
        &session
            .execute(&format!("EXPLAIN ANALYZE {query}"))
            .unwrap(),
    );
    assert_eq!(number_after(&lines[0], "actual rows="), Some(actual));
}

/// Plain `EXPLAIN` renders the compiled plan without executing: no
/// annotations, no footer — and the statement works inside the SQL
/// dialect (not just the shell's `.explain`).
#[test]
fn explain_without_analyze_renders_plan_only() {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
    let lines = plan_lines(
        &session
            .execute("EXPLAIN SEQ VT (SELECT count(*) AS c FROM t)")
            .unwrap(),
    );
    assert!(!lines.is_empty());
    for line in &lines {
        assert!(!line.contains("actual rows="), "unexpected actuals: {line}");
        assert!(!line.contains("(result: "), "unexpected footer: {line}");
    }
}

/// Operators an accelerated route short-circuits are reported as never
/// executed instead of silently showing zero rows.
#[test]
fn explain_analyze_marks_short_circuited_operators() {
    let mut session = Session::default(); // indexes on by default
    session
        .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session
        .execute("INSERT INTO t VALUES (1, 0, 5), (2, 3, 9)")
        .unwrap();
    // AS OF compiles to a timeslice over a scan; the indexed route answers
    // from the index and never runs the scan below it.
    let lines = plan_lines(
        &session
            .execute("EXPLAIN ANALYZE SEQ VT AS OF 4 (SELECT x FROM t)")
            .unwrap(),
    );
    let text = lines.join("\n");
    assert!(
        text.contains("(never executed)"),
        "expected a short-circuited operator in:\n{text}"
    );
}

/// Statement timings come split by phase: a query populates
/// bind/rewrite/execute, a commit populates the commit phase, and the
/// report resets per statement.
#[test]
fn phase_timings_split_per_statement() {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
    session
        .execute("SEQ VT (SELECT count(*) AS c FROM t)")
        .unwrap();
    let phases = session.last_phase_timings();
    assert!(phases.parse_ns > 0, "parse phase recorded");
    assert!(phases.bind_ns > 0, "bind phase recorded");
    assert!(phases.rewrite_ns > 0, "rewrite phase recorded");
    assert!(phases.execute_ns > 0, "execute phase recorded");
    assert_eq!(phases.commit_ns, 0, "no commit phase for a bare query");
    let rendered = phases.render();
    assert!(rendered.contains("execute "), "{rendered}");

    session.execute("BEGIN").unwrap();
    session.execute("INSERT INTO t VALUES (2, 1, 4)").unwrap();
    session.execute("COMMIT").unwrap();
    let phases = session.last_phase_timings();
    assert!(phases.commit_ns > 0, "commit phase recorded at COMMIT");
    assert_eq!(phases.execute_ns, 0, "phase report is per statement");
}

/// `EXPLAIN ANALYZE` takes the bare query's read route, index repair
/// included: on a freshly mutated table its phase split reports the index
/// phase just as the bare query's does — on an owned session and inside
/// an open transaction on one. A shared session reports none for either:
/// its commits already repaired the index.
#[test]
fn explain_analyze_reports_the_index_phase_like_the_bare_query() {
    let shared = SharedDatabase::in_memory();
    for (kind, mut session, in_txn) in [
        ("owned", Session::default(), false),
        ("shared", shared.session(), false),
        ("in-transaction", Session::default(), true),
    ] {
        let repairs = kind != "shared";
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        if in_txn {
            session.execute("BEGIN").unwrap();
        }
        let query = "SEQ VT (SELECT count(*) AS c FROM t)";
        for statement in [query.to_string(), format!("EXPLAIN ANALYZE {query}")] {
            // Each statement meets indexes its predecessor's insert staled.
            session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
            session.execute(&statement).unwrap();
            let phases = session.last_phase_timings();
            assert_eq!(
                phases.index_ns > 0,
                repairs,
                "{kind}: {statement}: {phases:?}"
            );
            assert!(phases.execute_ns > 0, "{kind}: {statement}: {phases:?}");
        }
    }
}

/// With `collect_metrics` on (the default), executed statements publish
/// per-operator counters and per-phase histograms to their database's
/// registry; with it off, nothing.
#[test]
fn statements_publish_to_the_global_registry() {
    let published = |collect_metrics: bool| {
        let mut session = Session::with_options(
            snapshot_session::Database::new(),
            SessionOptions {
                collect_metrics,
                ..SessionOptions::default()
            },
        );
        session
            .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
        session
            .execute("SEQ VT (SELECT count(*) AS c FROM t)")
            .unwrap();
        assert!(session.last_phase_timings().execute_ns > 0);
        let reg = &session.obs().metrics;
        (
            reg.counter("engine_scan_invocations_total").get(),
            reg.histogram("session_execute_seconds").count(),
        )
    };
    let (scans, executes) = published(true);
    assert!(scans > 0, "scan invocations published");
    assert!(executes > 0, "execute phase histogram fed");
    assert_eq!(published(false), (0, 0), "the opt-out publishes nothing");
}

/// The registry's text exposition — the dump the shell's `.metrics`
/// prints — is well-formed after a session has run a `SEQ VT` statement,
/// and carries the statement, engine, cancellation and process families.
#[test]
fn exposition_parses_and_names_the_core_families() {
    let mut session = SharedDatabase::in_memory().session();
    session
        .execute("CREATE TABLE expo (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session
        .execute("INSERT INTO expo VALUES (1, 0, 5)")
        .unwrap();
    session
        .execute("SEQ VT (SELECT count(*) AS c FROM expo)")
        .unwrap();
    let registry = &session.obs().metrics;
    registry.refresh_process_metrics();
    let exposition = registry.render_text();
    expofmt::check_exposition(&exposition).expect("metrics exposition must parse");
    for required in [
        "txn_snapshot_seconds",
        "session_execute_seconds",
        "engine_scan_invocations_total",
        "statements_cancelled_total",
        "statement_timeouts_total",
        "snapshot_build_info",
        "snapshot_uptime_seconds",
    ] {
        assert!(
            exposition.contains(required),
            "exposition is missing {required}"
        );
    }
}

/// `EXPLAIN ANALYZE` of a query inside an open transaction sees the
/// transaction's own uncommitted writes.
#[test]
fn explain_analyze_inside_transaction_reads_own_writes() {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
    session.execute("BEGIN").unwrap();
    session.execute("INSERT INTO t VALUES (2, 1, 6)").unwrap();
    let query = "SELECT x FROM t";
    let actual = session.execute(query).unwrap().rows().unwrap().len() as u64;
    assert_eq!(actual, 2, "transaction reads its own write");
    let lines = plan_lines(
        &session
            .execute(&format!("EXPLAIN ANALYZE {query}"))
            .unwrap(),
    );
    assert_eq!(number_after(&lines[0], "actual rows="), Some(actual));
    session.execute("ROLLBACK").unwrap();
}

/// `INSERT ... SELECT` binds its source once: on a shared database the
/// statement runs in an implicit transaction, whose replay dependencies
/// come from the plan the insert already compiled and ran.
#[test]
fn insert_select_binds_its_source_once() {
    let shared = SharedDatabase::in_memory();
    let mut session = shared.session();
    session
        .execute_script(
            "CREATE TABLE a (x INT, ts INT, te INT) PERIOD (ts, te);
             CREATE TABLE b (x INT, ts INT, te INT) PERIOD (ts, te);
             INSERT INTO b VALUES (1, 0, 5), (2, 3, 9);",
        )
        .unwrap();
    let inserted = session.execute("INSERT INTO a SELECT x, ts, te FROM b");
    assert_eq!(
        inserted.unwrap(),
        StatementResult::Inserted {
            table: "a".into(),
            rows: 2
        }
    );
    let [record] = session.last_statements() else {
        panic!("one statement, one record");
    };
    assert_eq!(record.compiled, 1, "{}", record.render());
    assert!(record.executed.is_some(), "the source's plan ran");
}

/// A durable shared database in a fresh scratch directory, unique per
/// test.
fn durable_database(name: &str) -> (SharedDatabase, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "snapshot_observability_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (shared, _) = SharedDatabase::open_durable(
        &dir,
        SessionOptions::default(),
        PersistenceOptions::default(),
    )
    .unwrap();
    (shared, dir)
}

/// A plan line without its wall-clock, which differs between runs.
fn without_time(line: &str) -> String {
    match line.find(" time=") {
        Some(at) => format!("{})", &line[..at]),
        None => line.to_string(),
    }
}

/// `.trace` over a `SEQ VT` join: the statement's block lists every node
/// of the executed plan under `session.execute`, with the same operator
/// lines and `actual rows=` as `EXPLAIN ANALYZE` of the same query.
#[test]
fn trace_block_lists_the_executed_plan_like_explain_analyze() {
    let (shared, dir) = durable_database("trace_join");
    let mut session = shared.session();
    session
        .execute_script(
            "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
             CREATE TABLE assign (mach TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
             INSERT INTO works VALUES ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
                                      ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
             INSERT INTO assign VALUES ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14),
                                       ('M3', 'NS', 3, 16);",
        )
        .unwrap();
    let query = "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill)";
    session.execute(query).unwrap();
    let [record] = session.last_statements() else {
        panic!("one statement, one record");
    };
    let block = record.render();
    let phases: Vec<&str> = (block.lines())
        .filter(|l| !l.starts_with(' '))
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    assert_eq!(
        phases,
        [
            "session.parse",
            "session.bind",
            "session.rewrite",
            "session.execute"
        ],
        "{block}"
    );
    let nodes: Vec<String> = (block.lines())
        .skip_while(|l| !l.starts_with("session.execute "))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| without_time(&l[2..]))
        .collect();

    let analyzed = plan_lines(
        &session
            .execute(&format!("EXPLAIN ANALYZE {query}"))
            .unwrap(),
    );
    let (footer, analyzed) = analyzed.split_last().unwrap();
    assert!(footer.starts_with("(result: "), "{footer}");
    let analyzed: Vec<String> = analyzed.iter().map(|l| without_time(l)).collect();
    assert_eq!(nodes, analyzed, "{block}");
    assert!(
        nodes.iter().any(|n| n.trim_start().starts_with("Join")),
        "{block}"
    );
    let rows: Vec<Option<u64>> = nodes
        .iter()
        .map(|n| number_after(n, "actual rows="))
        .collect();
    assert_eq!(rows[0], Some(5), "{block}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `.trace` over a `BEGIN; INSERT …; COMMIT;` buffer on a durable
/// database prints one block per statement, and COMMIT's block carries
/// the commit split: lock wait, validation, WAL append with its fsync,
/// publication.
#[test]
fn trace_of_a_transaction_prints_a_block_per_statement_and_the_commit_split() {
    let (shared, dir) = durable_database("trace_commit");
    let mut session = shared.session();
    session
        .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session
        .execute_script("BEGIN; INSERT INTO t VALUES (1, 0, 5); COMMIT;")
        .unwrap();
    let blocks: Vec<String> = (session.last_statements().iter())
        .map(StatementRecord::render)
        .collect();
    assert_eq!(blocks.len(), 3, "{blocks:#?}");
    assert!(blocks.iter().all(|b| b.starts_with("session.parse ")));
    assert!(!blocks[1].contains("session.commit"), "{}", blocks[1]);
    let commit = &blocks[2];
    for name in [
        "session.commit",
        "txn.wait",
        "txn.validate",
        "wal.append",
        "wal.fsync",
        "txn.publish",
    ] {
        let line = format!("{name} ");
        assert!(
            commit.lines().any(|l| l.trim_start().starts_with(&line)),
            "no {name} line in\n{commit}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
