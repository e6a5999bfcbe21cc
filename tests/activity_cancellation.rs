//! Live activity and cooperative cancellation, end to end: concurrent
//! sessions are visible in `snapshot_stat_activity`, a running statement
//! can be killed from another session, statement timeouts and resource
//! limits cancel cooperatively at operator batch boundaries, and a
//! cancelled statement unwinds cleanly — transaction rolled back, WAL
//! untouched, session and indexes immediately usable.
//!
//! The activity registry and the cancellation counters are process
//! globals, so every test takes `snapshot_obs::testing::serial_guard()`.

use snapshot_session::{
    CancelKind, Database, PersistenceOptions, Session, SessionOptions, SharedDatabase,
    StatementError, StatementResult, SyncPolicy,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
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

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected int, got {other:?}"),
    }
}

/// Whether `err` is a cancellation of exactly `expect`'s kind.
fn cancelled_as(err: &StatementError, expect: CancelKind) -> bool {
    matches!(err, StatementError::Cancelled { kind, .. } if *kind == expect)
}

fn counter(name: &str) -> u64 {
    snapshot_obs::registry()
        .get_counter(name)
        .map_or(0, |c| c.get())
}

/// A fresh, empty scratch directory, unique per call.
fn scratch_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "snapshot_activity_{}_{name}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One multi-row INSERT of `n` rows whose periods all overlap — the
/// quadratic raw material for deliberately slow joins.
fn bulk_insert(table: &str, n: usize) -> String {
    let mut stmt = format!("INSERT INTO {table} VALUES ");
    for i in 0..n {
        if i > 0 {
            stmt.push_str(", ");
        }
        stmt.push_str(&format!("({i}, 0, 1000000)"));
    }
    stmt
}

/// Tentpole acceptance: session B's long-running statement is visible in
/// `snapshot_stat_activity` from session A (text, state, progress
/// counters), `SELECT snapshot_cancel(<id>)` kills it, the kill is
/// counted, and B's very next statement works (indexed == naive ==
/// oracle).
#[test]
fn concurrent_statement_is_visible_and_killable() {
    let _guard = snapshot_obs::testing::serial_guard();
    let shared = SharedDatabase::in_memory();
    let mut monitor = shared.session();
    monitor
        .execute("CREATE TABLE act_kill (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    monitor.execute(&bulk_insert("act_kill", 3000)).unwrap();
    let cancelled_before = counter("statements_cancelled_total");

    // The victim: a quadratic nested-loop self-join (9M pairs) that only
    // a cancellation will end in reasonable time.
    let slow_sql = "SELECT count(*) AS c FROM act_kill a JOIN act_kill b ON a.x <> b.x";
    let (id_tx, id_rx) = std::sync::mpsc::channel();
    let shared_clone = shared.clone();
    let victim = std::thread::spawn(move || {
        let mut worker = shared_clone.session();
        id_tx.send(worker.session_id()).unwrap();
        let err = worker.execute(slow_sql).unwrap_err();
        // Clean unwind: the very next statement on the same session runs
        // on both routes and agrees with the arithmetic oracle.
        let mut opts = *worker.options();
        opts.verify_indexed = true; // indexed == naive cross-check
        *worker.options_mut() = opts;
        let next = worker
            .execute("SELECT count(*) AS c FROM act_kill WHERE x < 10")
            .unwrap();
        let rows = next.rows().unwrap().rows().to_vec();
        (err, rows)
    });
    let victim_id = id_rx.recv().unwrap() as i64;

    // Poll the activity view until the victim's statement shows up live.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "victim statement never appeared in snapshot_stat_activity"
        );
        let rows = rows_of(
            &monitor
                .execute(&format!(
                    "SELECT session_id, statement FROM snapshot_stat_activity \
                     WHERE session_id = {victim_id} AND state = 'active'"
                ))
                .unwrap(),
        );
        if !rows.is_empty() {
            let text = match &rows[0][1] {
                Value::Str(s) => s.to_string(),
                other => panic!("statement column: {other:?}"),
            };
            assert!(text.contains("FROM act_kill"), "{text}");
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Progress counters tick while it runs (join pairs considered).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "no join-pair progress observed");
        let rows = rows_of(
            &monitor
                .execute(&format!(
                    "SELECT join_pairs FROM snapshot_stat_progress \
                     WHERE session_id = {victim_id}"
                ))
                .unwrap(),
        );
        if rows.len() == 1 && int(&rows[0][0]) > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // Kill it through SQL and check the one-row verdict.
    let verdict = rows_of(
        &monitor
            .execute(&format!("SELECT snapshot_cancel({victim_id})"))
            .unwrap(),
    );
    assert_eq!(
        verdict,
        vec![vec![Value::Bool(true)]],
        "statement signalled"
    );

    let (err, next_rows) = victim.join().unwrap();
    assert!(cancelled_as(&err, CancelKind::Killed), "{err:?}");
    assert_eq!(err.to_string(), "statement cancelled: killed by request");
    assert_eq!(next_rows.len(), 1);
    assert_eq!(
        int(&next_rows[0].values()[0]),
        10,
        "oracle count after kill"
    );
    assert!(
        counter("statements_cancelled_total") > cancelled_before,
        "kill counted"
    );

    // The victim session is gone from the registry once dropped.
    let rows = rows_of(
        &monitor
            .execute(&format!(
                "SELECT session_id FROM snapshot_stat_activity WHERE session_id = {victim_id}"
            ))
            .unwrap(),
    );
    assert!(rows.is_empty(), "dropped session deregistered");
}

/// Satellite: a timeout that fires mid-parallel-sweep (parallelism 4)
/// aborts all slab workers, and the next statement agrees across the
/// indexed, naive, and oracle routes.
#[test]
fn timeout_mid_parallel_sweep_leaves_session_consistent() {
    let _guard = snapshot_obs::testing::serial_guard();
    let n = 2000usize;
    let mut session = Session::with_options(
        Database::new(),
        SessionOptions {
            parallelism: 4,
            ..SessionOptions::default()
        },
    );
    session
        .execute("CREATE TABLE act_par (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute(&bulk_insert("act_par", n)).unwrap();
    let timeouts_before = counter("statement_timeouts_total");

    session.execute("SET statement_timeout = 5").unwrap();
    // A snapshot self-join over all-overlapping periods: ~n^2 join pairs
    // through the slab-parallel endpoint sweep — far more than 5 ms.
    let err = session
        .execute("SEQ VT (SELECT count(*) AS c FROM act_par a JOIN act_par b ON a.x <> b.x)")
        .unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Timeout), "{err:?}");
    assert_eq!(
        err.to_string(),
        "statement cancelled: statement timeout (5 ms) exceeded"
    );
    assert!(
        counter("statement_timeouts_total") > timeouts_before,
        "timeout counted"
    );

    // Next statement: timeout off, indexed == naive (cross-check) ==
    // oracle (every row overlaps every other, so the coalesced snapshot
    // count is just n at any instant; check a simple aggregate instead).
    session.execute("SET statement_timeout = off").unwrap();
    session.options_mut().verify_indexed = true;
    let rows = rows_of(
        &session
            .execute("SEQ VT (SELECT count(*) AS c FROM act_par)")
            .unwrap(),
    );
    assert_eq!(rows.len(), 1, "one coalesced period");
    assert_eq!(int(&rows[0][0]), n as i64, "oracle count after timeout");
}

/// A join that emits its parent's projection itself (`Coalesce ← Join`,
/// no `Project` between them) still counts and polls every candidate
/// pair: a timeout lands inside the hash route's chain walk — all 2 000
/// rows share one key, so the table nominates n² pairs and the residual
/// rejects almost none — and the session carries on.
#[test]
fn timeout_inside_a_fused_join_cancels_and_leaves_the_session_usable() {
    let _guard = snapshot_obs::testing::serial_guard();
    let n = 2000usize;
    let mut session = Session::default();
    session
        .execute("CREATE TABLE act_fused (x INT, k INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    let values: Vec<String> = (0..n).map(|i| format!("({i}, 7, 0, 1000000)")).collect();
    session
        .execute(&format!(
            "INSERT INTO act_fused VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    let query =
        "SEQ VT (SELECT a.x, b.x AS y FROM act_fused a JOIN act_fused b ON a.k = b.k AND a.x <> b.x)";
    let plan: Vec<String> = rows_of(&session.execute(&format!("EXPLAIN {query}")).unwrap())
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    assert_eq!(plan.len(), 4, "Coalesce, Join, two scans: {plan:#?}");
    assert!(plan[0].starts_with("Coalesce"), "{plan:#?}");
    assert!(
        plan[1].trim_start().starts_with("Join on ") && plan[1].contains(" → [#0, #4, GREATEST("),
        "{plan:#?}"
    );

    session.execute("SET statement_timeout = 5").unwrap();
    let err = session.execute(query).unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Timeout), "{err:?}");

    session.execute("SET statement_timeout = off").unwrap();
    session.options_mut().verify_indexed = true;
    session
        .execute("DELETE FROM act_fused WHERE x >= 3")
        .unwrap();
    let rows = rows_of(&session.execute(query).unwrap());
    assert_eq!(rows.len(), 6, "3 x 3 pairs minus the diagonal: {rows:?}");
}

/// Satellite: killing an idle or unknown session is a clean no-op — the
/// verdict is `false` and nothing is poisoned.
#[test]
fn killing_idle_or_unknown_sessions_is_a_noop() {
    let _guard = snapshot_obs::testing::serial_guard();
    let shared = SharedDatabase::in_memory();
    let mut active = shared.session();
    let idle = shared.session();
    let idle_id = idle.session_id();
    let verdict = rows_of(
        &active
            .execute(&format!("SELECT snapshot_cancel({idle_id})"))
            .unwrap(),
    );
    assert_eq!(
        verdict,
        vec![vec![Value::Bool(false)]],
        "idle kill is a no-op"
    );
    assert!(!Session::cancel_session(u64::MAX), "unknown id is a no-op");
    // The idle session was not poisoned: its next statement runs.
    let mut idle = idle;
    idle.execute("SELECT name FROM snapshot_stat_tables")
        .unwrap();
}

/// Satellite: a timeout inside an explicit transaction rolls the
/// transaction back (nothing reaches the WAL) without poisoning the
/// session — and the cancellation is stamped into the slow-query log.
#[test]
fn timeout_in_explicit_transaction_rolls_back_cleanly() {
    let _guard = snapshot_obs::testing::serial_guard();
    snapshot_obs::reset_slow_log();
    let dir = scratch_dir("txn_timeout");
    let options = SessionOptions {
        slow_query_ms: Some(0), // log everything, incl. cancellations
        ..SessionOptions::default()
    };
    let (shared, _) = SharedDatabase::open_durable(
        &dir,
        options,
        PersistenceOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let mut session = shared.session_with_options(options);
    drop(shared); // the session holds the last handle on the directory
    session
        .execute("CREATE TABLE act_txn (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute(&bulk_insert("act_txn", 2500)).unwrap();

    session.execute("BEGIN").unwrap();
    session
        .execute("INSERT INTO act_txn VALUES (-1, 0, 1000000)")
        .unwrap();
    assert!(session.in_transaction());
    session.execute("SET statement_timeout = 5").unwrap();
    let err = session
        .execute("SELECT count(*) AS c FROM act_txn a JOIN act_txn b ON a.x <> b.x")
        .unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Timeout), "{err:?}");
    assert!(!session.in_transaction(), "transaction rolled back");

    // Not poisoned: the uncommitted insert is gone and new statements run.
    session.execute("SET statement_timeout = off").unwrap();
    let rows = rows_of(
        &session
            .execute("SELECT count(*) AS c FROM act_txn WHERE x = -1")
            .unwrap(),
    );
    assert_eq!(int(&rows[0][0]), 0, "txn insert rolled back");

    // The slow log carries the cancellation reason, queryable via SQL.
    let rows = rows_of(
        &session
            .execute("SELECT statement, cancelled FROM snapshot_stat_slow_queries")
            .unwrap(),
    );
    let stamped: Vec<_> = rows
        .iter()
        .filter(|r| r[1] == Value::str("statement timeout"))
        .collect();
    assert_eq!(stamped.len(), 1, "cancellation stamped into the slow log");

    // The WAL never saw the rolled-back transaction: reopening the
    // directory recovers only the committed statements.
    drop(session);
    let (reopened, _) = SharedDatabase::open_durable(
        &dir,
        SessionOptions::default(),
        PersistenceOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let mut reopened = reopened.session();
    let rows = rows_of(
        &reopened
            .execute("SELECT count(*) AS c FROM act_txn WHERE x = -1")
            .unwrap(),
    );
    assert_eq!(int(&rows[0][0]), 0, "WAL clean after cancelled txn");
    let rows = rows_of(
        &reopened
            .execute("SELECT count(*) AS c FROM act_txn")
            .unwrap(),
    );
    assert_eq!(int(&rows[0][0]), 2500, "committed rows recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: resource limits (`max_rows_scanned`, `max_result_rows`)
/// cancel at batch boundaries with a limit-specific reason, and clear
/// with `SET ... = off`.
#[test]
fn resource_limits_cancel_with_specific_reasons() {
    let _guard = snapshot_obs::testing::serial_guard();
    let mut session = Session::default();
    session
        .execute("CREATE TABLE act_lim (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    session.execute(&bulk_insert("act_lim", 5000)).unwrap();
    let cancelled_before = counter("statements_cancelled_total");

    session.execute("SET max_rows_scanned = 100").unwrap();
    let err = session.execute("SELECT x FROM act_lim").unwrap_err();
    assert!(cancelled_as(&err, CancelKind::RowsScannedLimit), "{err:?}");
    assert_eq!(
        err.to_string(),
        "statement cancelled: max_rows_scanned (100) exceeded"
    );

    session.execute("SET max_rows_scanned = off").unwrap();
    session.execute("SET max_result_rows = 100").unwrap();
    let err = session.execute("SELECT x FROM act_lim").unwrap_err();
    assert!(cancelled_as(&err, CancelKind::ResultRowsLimit), "{err:?}");
    assert_eq!(
        err.to_string(),
        "statement cancelled: max_result_rows (100) exceeded"
    );

    // Limits generous enough are not tripped; clearing restores defaults.
    session.execute("SET max_result_rows = off").unwrap();
    session.execute("SET max_rows_scanned = 1000000").unwrap();
    let rows = rows_of(
        &session
            .execute("SELECT count(*) AS c FROM act_lim")
            .unwrap(),
    );
    assert_eq!(int(&rows[0][0]), 5000);
    assert_eq!(
        counter("statements_cancelled_total"),
        cancelled_before + 2,
        "both limit trips counted once each"
    );
}

/// Regression: an ordinary error whose *text* echoes the words
/// "statement cancelled" (a bad `SET` value, a parse error quoting a
/// literal) is `Failed`, not a cancellation — the open transaction stays
/// open, nothing is counted, and the slow log carries no cancel reason.
/// The class comes from the error's variant, never from its message.
#[test]
fn error_text_echoing_the_cancel_words_is_not_a_cancellation() {
    let _guard = snapshot_obs::testing::serial_guard();
    snapshot_obs::reset_slow_log();
    let shared = SharedDatabase::in_memory();
    let mut session = shared.session_with_options(SessionOptions {
        slow_query_ms: Some(0), // armed: a cancellation would be stamped
        ..SessionOptions::default()
    });
    session
        .execute("CREATE TABLE act_echo (x INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    let cancelled_before = counter("statements_cancelled_total");

    session.execute("BEGIN").unwrap();
    session
        .execute("INSERT INTO act_echo VALUES (2, 0, 10)")
        .unwrap();
    for echoing in [
        "SET max_result_rows = 'statement cancelled'",
        "SELECT x FROM act_echo 'statement cancelled'",
    ] {
        let err = session.execute(echoing).unwrap_err();
        assert!(
            matches!(&err, StatementError::Failed(m) if m.contains("statement cancelled")),
            "{echoing}: {err:?}"
        );
        assert!(
            session.in_transaction(),
            "{echoing}: transaction still open"
        );
    }
    assert_eq!(
        session.execute("COMMIT").unwrap(),
        StatementResult::Committed { tables: 1 }
    );
    let rows = rows_of(&session.execute("SELECT x FROM act_echo").unwrap());
    assert_eq!(rows, vec![vec![Value::Int(2)]], "the insert survived");
    assert_eq!(
        counter("statements_cancelled_total"),
        cancelled_before,
        "nothing was cancelled"
    );
    assert!(
        snapshot_obs::slow_queries()
            .iter()
            .all(|q| q.cancelled.is_none()),
        "no slow-log entry carries a cancel reason"
    );
}

/// Satellite: cancellation reaches *inside* the normalisation kernels a
/// `SEQ VT … GROUP BY` spends its time in — not just the operator
/// boundaries around them. Each kernel polls the statement's check once
/// per 1 024 rows taken up (input rows; for the fused operators then the
/// segments they order and emit): under a tripped token
/// Coalesce, TemporalAggregate and TemporalExceptAll abort mid-pass with
/// the token's typed error, an untripped one changes nothing, a pass
/// shorter than one interval is never polled at all, and a cancel that
/// arrives after the sweep — while segments are merged, ordered and
/// emitted — still lands.
#[test]
fn tripped_token_aborts_inside_the_normalisation_kernels() {
    use snapshot_semantics::algebra::AggExpr;
    use snapshot_semantics::engine::coalesce::{coalesce_rows, try_coalesce_rows};
    use snapshot_semantics::engine::temporal::{temporal_aggregate, temporal_except_all};
    use std::cell::Cell;
    use storage::{row, Row, SqlType};

    let rows = |n: i64| -> Vec<Row> { (0..n).map(|i| row![i % 7, i, i + 5]).collect() };
    // `short` is 300 rows, 300 disjoint segments and 300 output rows.
    let (long, short) = (rows(3000), rows(300));
    let aggs = [AggExpr::count_star("c")];
    let types = [SqlType::Int];
    let account = snapshot_obs::ResourceAccount::default();
    let token = snapshot_obs::CancelToken::default();
    let check = || token.check(&account);
    let aggregate =
        |rows: &[Row]| temporal_aggregate(rows, 3, &[0], &aggs, &types, false, (0, 4000), check);

    let coalesced = try_coalesce_rows(long.clone(), 3, check).unwrap();
    assert_eq!(coalesced, coalesce_rows(&long, 3));
    let aggregated = aggregate(&long).unwrap();
    let diffed = temporal_except_all(&long, &short, 3, check).unwrap();

    token.cancel(CancelKind::Killed);
    let err = try_coalesce_rows(long.clone(), 3, check).unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Killed), "{err:?}");
    let err = aggregate(&long).unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Killed), "{err:?}");
    let err = temporal_except_all(&long, &short, 3, check).unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Killed), "{err:?}");
    assert!(try_coalesce_rows(short.clone(), 3, check).is_ok());
    assert!(aggregate(&short).is_ok());

    token.disarm();
    assert_eq!(
        try_coalesce_rows(long.clone(), 3, check).unwrap(),
        coalesced
    );
    assert_eq!(aggregate(&long).unwrap(), aggregated);
    assert_eq!(
        temporal_except_all(&long, &short, 3, check).unwrap(),
        diffed
    );

    // 3 000 disjoint, non-meeting rows of one group: the sweep takes them
    // up in 1 024-row polls — two for the global count, one for the
    // difference's single run — and the next poll comes after it. A token
    // tripped by exactly that poll aborts the pass.
    let spaced: Vec<Row> = (0..3000).map(|i| row![0, 2 * i, 2 * i + 1]).collect();
    let polls = Cell::new(0);
    let cancel_at = |n| {
        polls.set(0);
        token.disarm();
        let (polls, token, account) = (&polls, &token, &account);
        move || {
            polls.set(polls.get() + 1);
            if polls.get() == n {
                token.cancel(CancelKind::Killed);
            }
            token.check(account)
        }
    };
    let global = |rows: &[Row], check| {
        temporal_aggregate(rows, 3, &[], &aggs, &types, true, (0, 6000), check)
    };
    let err = global(&spaced, cancel_at(3)).unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Killed), "{err:?}");
    assert_eq!(polls.get(), 3, "the sweep polled twice before");
    let err = temporal_except_all(&spaced, &[], 3, cancel_at(2)).unwrap_err();
    assert!(cancelled_as(&err, CancelKind::Killed), "{err:?}");
    assert_eq!(polls.get(), 2, "the sweep polled once before");
}
