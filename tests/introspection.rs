//! Introspection end-to-end tests: the `snapshot_stat_*` virtual tables,
//! statement fingerprint statistics, the slow-query log, and the
//! operator-level profiler.
//!
//! Statement stats, the slow log, and the profiler belong to the database
//! a test builds (see the `snapshot_obs` crate docs), so the tests run in
//! parallel and assert exact values.

use snapshot_session::{Session, SessionOptions, SharedDatabase, StatementResult};
use std::sync::Arc;
use storage::Value;

fn rows_of(result: &StatementResult) -> Vec<Vec<Value>> {
    result
        .rows()
        .expect("query returns rows")
        .rows()
        .iter()
        .map(|r| r.values().to_vec())
        .collect()
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected text, got {other:?}"),
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected int, got {other:?}"),
    }
}

fn double(v: &Value) -> f64 {
    match v {
        Value::Double(d) => *d,
        other => panic!("expected double, got {other:?}"),
    }
}

/// The acceptance-criteria workload: a scripted mix on an owned session,
/// differentially verified against `snapshot_stat_statements`.
#[test]
fn stat_statements_differential_on_owned_session() {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE intro_own (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    // 4 inserts (same shape, different literals -> one fingerprint), then
    // 3 runs of the same query shape with different constants.
    for i in 0..4 {
        session
            .execute(&format!(
                "INSERT INTO intro_own VALUES ({i}, {i}, {})",
                i + 10
            ))
            .unwrap();
    }
    let mut returned = 0;
    for bound in [0, 1, 2] {
        returned += session
            .execute(&format!("SELECT x FROM intro_own WHERE x >= {bound}"))
            .unwrap()
            .rows()
            .unwrap()
            .len() as i64;
    }
    let result = session
        .execute(
            "SELECT fingerprint, calls, rows, total_time_ms, mean_time_ms, p95_time_ms \
             FROM snapshot_stat_statements ORDER BY total_time_ms DESC",
        )
        .unwrap();
    let rows = rows_of(&result);
    assert!(
        rows.windows(2)
            .all(|w| double(&w[0][3]) >= double(&w[1][3])),
        "ORDER BY total_time_ms DESC respected"
    );
    let find = |fp: &str| {
        rows.iter()
            .find(|r| text(&r[0]) == fp)
            .unwrap_or_else(|| panic!("fingerprint {fp:?} missing from {rows:?}"))
    };
    let q = find("select x from intro_own where x >= ?");
    assert_eq!(int(&q[1]), 3, "three calls folded into one fingerprint");
    assert_eq!(int(&q[2]), returned, "row counts accumulate");
    let total = double(&q[3]);
    let mean = double(&q[4]);
    assert!(total > 0.0);
    assert!((mean * 3.0 - total).abs() < 1e-6 * total.max(1.0));
    assert!(double(&q[5]) > 0.0, "p95 populated");
    let ins = find("insert into intro_own values (?, ?, ?)");
    assert_eq!(int(&ins[1]), 4);
    assert_eq!(int(&ins[2]), 0, "DML reports no result rows");
}

/// The same surface works on shared (MVCC) sessions, and statistics are
/// per database: statements from two of its sessions land in one
/// collector.
#[test]
fn stat_statements_differential_on_shared_sessions() {
    let shared = SharedDatabase::in_memory();
    let mut writer = shared.session();
    writer
        .execute("CREATE TABLE intro_shared (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    writer
        .execute("INSERT INTO intro_shared VALUES (1, 0, 5), (2, 3, 9)")
        .unwrap();
    let mut reader = shared.session();
    for _ in 0..2 {
        writer
            .execute("SELECT x FROM intro_shared WHERE x = 1")
            .unwrap();
        reader
            .execute("SELECT x FROM intro_shared WHERE x = 2")
            .unwrap();
    }
    let result = reader
        .execute(
            "SELECT fingerprint, calls, total_time_ms FROM snapshot_stat_statements \
             ORDER BY total_time_ms DESC",
        )
        .unwrap();
    let rows = rows_of(&result);
    let calls: i64 = rows
        .iter()
        .filter(|r| text(&r[0]) == "select x from intro_shared where x = ?")
        .map(|r| int(&r[1]))
        .sum();
    assert_eq!(calls, 4, "both sessions feed the same fingerprint");
}

/// `snapshot_stat_tables` and `snapshot_stat_indexes` reflect the
/// session's storage state, compose with ordinary SQL (filter, join
/// against a user table), and a real table shadows a virtual name.
#[test]
fn stat_tables_and_indexes_compose_with_sql() {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE intro_t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session
        .execute("INSERT INTO intro_t VALUES (1, 0, 5), (2, 3, 9)")
        .unwrap();
    // Run one indexed query so the index registry has a fresh entry.
    session
        .execute("SEQ VT (SELECT count(*) AS c FROM intro_t)")
        .unwrap();
    let rows = rows_of(
        &session
            .execute("SELECT name, rows, temporal FROM snapshot_stat_tables WHERE name = 'intro_t'")
            .unwrap(),
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(int(&rows[0][1]), 2);
    assert_eq!(rows[0][2], Value::Bool(true));
    let rows = rows_of(
        &session
            .execute(
                "SELECT table_name, fresh FROM snapshot_stat_indexes \
                 WHERE table_name = 'intro_t'",
            )
            .unwrap(),
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], Value::Bool(true), "index fresh after query");
    // Join a stat table against a user table.
    let rows = rows_of(
        &session
            .execute(
                "SELECT t.x, s.rows FROM intro_t t \
                 JOIN snapshot_stat_tables s ON s.name = 'intro_t'",
            )
            .unwrap(),
    );
    assert_eq!(rows.len(), 2, "one joined row per user row");
    assert!(rows.iter().all(|r| int(&r[1]) == 2));
    // A real catalog table shadows the virtual name.
    session
        .execute("CREATE TABLE snapshot_stat_tables (y INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    let shadowed = session
        .execute("SELECT y FROM snapshot_stat_tables")
        .unwrap();
    assert_eq!(shadowed.rows().unwrap().len(), 0, "real (empty) table wins");
    session.execute("DROP TABLE snapshot_stat_tables").unwrap();
    let back = session
        .execute("SELECT name FROM snapshot_stat_tables WHERE name = 'intro_t'")
        .unwrap();
    assert_eq!(back.rows().unwrap().len(), 1, "virtual table is back");
}

/// Virtual tables are not temporal relations: SEQ VT rejects them, and
/// unknown names still fail with the usual error.
#[test]
fn virtual_tables_are_rejected_under_snapshot_semantics() {
    let mut session = Session::default();
    let err = session
        .execute("SEQ VT (SELECT count(*) AS c FROM snapshot_stat_statements)")
        .unwrap_err();
    assert!(err.to_string().contains("not a temporal relation"), "{err}");
    let err = session.execute("SELECT x FROM no_such_table").unwrap_err();
    assert!(err.to_string().contains("unknown table"), "{err}");
}

/// The slow-query log captures threshold crossers with their phase split
/// and operator actuals, queryable through `snapshot_stat_slow_queries`.
#[test]
fn slow_query_log_captures_phase_split_and_actuals() {
    let mut session = Session::with_options(
        snapshot_session::Database::new(),
        SessionOptions {
            slow_query_ms: Some(0), // everything is slow
            ..SessionOptions::default()
        },
    );
    session
        .execute("CREATE TABLE intro_slow (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session
        .execute("INSERT INTO intro_slow VALUES (1, 0, 5), (2, 3, 9)")
        .unwrap();
    session
        .execute("SEQ VT (SELECT count(*) AS c FROM intro_slow)")
        .unwrap();
    let entries = session.obs().slow_log.entries();
    let q = entries
        .iter()
        .find(|e| e.statement.contains("SEQ VT"))
        .expect("query logged");
    assert!(q.total_ms > 0.0);
    assert!(q.execute_ms > 0.0, "phase split present");
    assert!(q.rows.is_some());
    let plan = q.plan.as_deref().expect("operator actuals captured");
    assert!(plan.contains("actual rows="), "{plan}");
    // DDL/DML entries carry no plan but keep the phase split.
    let ddl = entries
        .iter()
        .find(|e| e.statement.starts_with("CREATE TABLE"))
        .expect("DDL logged");
    assert!(ddl.plan.is_none());
    // And the same ring answers SQL.
    let rows = rows_of(
        &session
            .execute(
                "SELECT statement, total_ms, execute_ms, plan FROM snapshot_stat_slow_queries \
                 ORDER BY total_ms DESC",
            )
            .unwrap(),
    );
    assert!(rows.iter().any(|r| text(&r[0]).contains("SEQ VT")));
    // A session without the threshold never logs.
    let mut quiet = Session::default();
    quiet
        .execute("CREATE TABLE intro_quiet (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    quiet.execute("SELECT x FROM intro_quiet").unwrap();
    assert!(quiet.obs().slow_log.entries().is_empty());
}

/// The acceptance criterion for the profiler: folded-stack operator self
/// times sum to ~the execute phase the session measured for the same
/// statements.
#[test]
fn profiler_self_times_sum_to_the_execute_phase() {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE intro_prof (x INT, s TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    // A workload big enough that execute dominates clock noise.
    let mut stmt = String::from("INSERT INTO intro_prof VALUES ");
    for i in 0..4000 {
        if i > 0 {
            stmt.push_str(", ");
        }
        stmt.push_str(&format!("({i}, 's{}', {}, {})", i % 7, i % 97, i % 97 + 5));
    }
    session.execute(&stmt).unwrap();
    let obs = Arc::clone(session.obs());
    let profile = &obs.profile;
    profile.set_enabled(true);
    let mut execute_ns = 0u64;
    for _ in 0..3 {
        session
            .execute("SEQ VT (SELECT s, count(*) AS cnt FROM intro_prof GROUP BY s)")
            .unwrap();
        execute_ns += session.last_phase_timings().execute_ns;
    }
    profile.set_enabled(false);
    let stats = profile.stats();
    assert!(!stats.is_empty());
    let folded_ns: u64 = stats.iter().map(|s| s.self_ns).sum();
    let ratio = folded_ns as f64 / execute_ns as f64;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "folded self times ({folded_ns} ns) should sum to ~the execute \
         phase ({execute_ns} ns), ratio {ratio:.3}"
    );
    // Paths are operator stacks, root-first.
    assert!(
        stats.iter().any(|s| s.path.contains(';')),
        "nested operator paths present: {stats:?}"
    );
    let folded = profile.render_folded();
    let first = folded.lines().next().expect("non-empty folded output");
    assert!(first.rsplit_once(' ').unwrap().1.parse::<u64>().is_ok());
}

/// A statement a budget stops is still profiled: every node it entered
/// counts its call, the scan that crossed the budget included.
#[test]
fn a_statement_stopped_by_a_budget_is_still_profiled() {
    let mut session = Session::default();
    for stmt in [
        "CREATE TABLE intro_budget (x INT, ts INT, te INT) PERIOD (ts, te)",
        "INSERT INTO intro_budget VALUES (1, 0, 5), (2, 3, 9), (3, 4, 6)",
        "SET max_rows_scanned = 2",
    ] {
        session.execute(stmt).unwrap();
    }
    let obs = Arc::clone(session.obs());
    let profile = &obs.profile;
    profile.set_enabled(true);
    let stopped = session.execute("SEQ VT (SELECT count(*) AS c FROM intro_budget)");
    profile.set_enabled(false);
    let err = stopped.expect_err("three rows scanned against a budget of two");
    assert!(err.to_string().contains("max_rows_scanned"), "{err}");
    let mut paths: Vec<(String, u64)> = profile
        .stats()
        .into_iter()
        .map(|s| (s.path, s.samples))
        .collect();
    paths.sort();
    assert_eq!(
        paths,
        [
            ("TemporalAggregate".to_string(), 1),
            ("TemporalAggregate;Scan".to_string(), 1)
        ]
    );
}

/// The `.verify on` naive cross-check re-runs each query on the naive
/// route; the profile counts the statement once, not its cross-check too.
#[test]
fn verify_on_profiles_each_statement_once() {
    let shared = SharedDatabase::in_memory();
    let mut session = shared.session_with_options(SessionOptions {
        verify_indexed: true,
        ..SessionOptions::default()
    });
    for stmt in [
        "CREATE TABLE intro_verify (x INT, ts INT, te INT) PERIOD (ts, te)",
        "INSERT INTO intro_verify VALUES (1, 0, 5), (2, 3, 9), (1, 4, 6)",
    ] {
        session.execute(stmt).unwrap();
    }
    let profile = &shared.obs().profile;
    profile.set_enabled(true);
    session
        .execute("SEQ VT (SELECT x, count(*) AS c FROM intro_verify GROUP BY x)")
        .unwrap();
    profile.set_enabled(false);
    let root = profile
        .stats()
        .into_iter()
        .find(|s| s.path == "TemporalAggregate")
        .expect("the root path is profiled");
    assert_eq!(root.samples, 1);
}

/// A query that a limit cancels mid-flight is slow-logged with the
/// actuals of the operators it entered, not without a plan.
#[test]
fn a_cancelled_query_is_slow_logged_with_its_plan() {
    let mut session = Session::default();
    for stmt in [
        "CREATE TABLE intro_cut (x INT, ts INT, te INT) PERIOD (ts, te)",
        "INSERT INTO intro_cut VALUES (1, 0, 5), (2, 1, 6), (3, 2, 7), (4, 3, 8), (5, 4, 9)",
        "SET slow_query_ms = 0",
        "SET max_result_rows = 2",
    ] {
        session.execute(stmt).unwrap();
    }
    let err = session
        .execute("SEQ VT (SELECT x FROM intro_cut)")
        .unwrap_err();
    assert!(err.to_string().contains("max_result_rows"), "{err}");
    let entries = session.obs().slow_log.entries();
    let entry = entries
        .iter()
        .find(|e| e.statement.contains("SEQ VT"))
        .expect("the cancelled query is logged");
    assert_eq!(entry.cancelled.as_deref(), Some("max_result_rows exceeded"));
    let plan = entry.plan.as_deref().expect("operator actuals captured");
    assert!(plan.contains("Scan") && plan.contains("calls=1"), "{plan}");
}
