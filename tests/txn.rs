//! Concurrency tests: MVCC transaction semantics through the SQL surface
//! (`BEGIN`/`COMMIT`/`ROLLBACK`), snapshot isolation across concurrent
//! sessions of a [`SharedDatabase`], first-committer-wins conflicts, and
//! the multithreaded stress invariant — every concurrent read is
//! bag-equivalent to the point-wise oracle evaluated on the exact snapshot
//! the reader pinned (snapshot reducibility, Definition 4.4, under
//! concurrency).

use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::engine::Engine;
use snapshot_semantics::index::IndexCatalog;
use snapshot_semantics::rewrite::infer_domain;
use snapshot_semantics::session::{
    Database, Session, SessionOptions, SharedDatabase, StatementError, StatementResult,
};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{row, Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::txn::TxnManager;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SETUP: &str = "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
     INSERT INTO works VALUES
       ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
       ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);";

/// The oracle's canonical row encoding of a `SEQ VT` query over an
/// explicit catalog (domain inferred exactly as the session infers it).
fn oracle_rows_on(catalog: &Catalog, sql: &str) -> Vec<Row> {
    let stmt = parse_statement(sql).unwrap();
    let bound = bind_statement(&stmt, catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("not a snapshot query: {sql}")
    };
    PointwiseOracle::new(infer_domain(catalog))
        .eval_rows(plan, catalog)
        .unwrap()
}

fn query_rows(session: &mut Session, sql: &str) -> Vec<Row> {
    let result = session.execute(sql).unwrap();
    let mut rows = result.rows().expect("query result").rows().to_vec();
    rows.sort_unstable();
    rows
}

#[test]
fn rollback_leaves_the_catalog_bit_for_bit_identical() {
    let mut s = Session::new(Database::new());
    s.execute_script(SETUP).unwrap();
    let before_rows = s.database().catalog().get("works").unwrap().rows().to_vec();
    let before_version = s.database().catalog().get("works").unwrap().version();

    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2)")
        .unwrap();
    s.execute("UPDATE works SET skill = 'NS' WHERE name = 'Sam'")
        .unwrap();
    s.execute("DELETE FROM works WHERE name = 'Joe'").unwrap();
    s.execute("CREATE TABLE scratch (x INT)").unwrap();
    // The transaction reads its own writes...
    assert_eq!(
        query_rows(&mut s, "SELECT count(*) AS c FROM works"),
        vec![Row::new(vec![4i64.into()])]
    );
    assert!(s.in_transaction());
    let r = s.execute("ROLLBACK").unwrap();
    assert_eq!(r, StatementResult::RolledBack);
    assert!(!s.in_transaction());

    // ...and rollback restores the exact pre-BEGIN state: same rows, same
    // version epoch (the table object was never touched, only a private
    // copy was).
    let works = s.database().catalog().get("works").unwrap();
    assert_eq!(works.rows(), &before_rows[..]);
    assert_eq!(works.version(), before_version);
    assert!(s.database().catalog().get("scratch").is_none());
}

#[test]
fn commit_publishes_and_is_visible_to_other_sessions() {
    let shared = SharedDatabase::in_memory();
    let mut writer = shared.session();
    let mut reader = shared.session();
    writer.execute_script(SETUP).unwrap();

    writer.execute("BEGIN").unwrap();
    writer
        .execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2)")
        .unwrap();
    writer
        .execute("CREATE TABLE audit (who TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    writer
        .execute("INSERT INTO audit VALUES ('Eve', 0, 2)")
        .unwrap();

    // Uncommitted writes are invisible to every other session...
    assert_eq!(
        query_rows(&mut reader, "SELECT count(*) AS c FROM works"),
        vec![Row::new(vec![4i64.into()])]
    );
    assert!(reader.execute("SELECT * FROM audit").is_err());

    // ...and a commit publishes all of them atomically.
    let r = writer.execute("COMMIT").unwrap();
    assert_eq!(r, StatementResult::Committed { tables: 2 });
    assert_eq!(
        query_rows(&mut reader, "SELECT count(*) AS c FROM works"),
        vec![Row::new(vec![5i64.into()])]
    );
    assert_eq!(
        query_rows(&mut reader, "SELECT count(*) AS c FROM audit"),
        vec![Row::new(vec![1i64.into()])]
    );
}

#[test]
fn pinned_snapshot_reads_through_a_concurrent_commit() {
    let shared = SharedDatabase::in_memory();
    let mut a = shared.session();
    let mut b = shared.session();
    a.execute_script(SETUP).unwrap();

    // b pins a snapshot, a commits a write, b must keep seeing its pin.
    b.execute("BEGIN").unwrap();
    assert_eq!(
        query_rows(&mut b, "SELECT count(*) AS c FROM works"),
        vec![Row::new(vec![4i64.into()])]
    );
    a.execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2)")
        .unwrap();
    assert_eq!(
        query_rows(&mut b, "SELECT count(*) AS c FROM works"),
        vec![Row::new(vec![4i64.into()])],
        "snapshot isolation: the concurrent commit is invisible"
    );
    b.execute("COMMIT").unwrap(); // read-only commit
    assert_eq!(
        query_rows(&mut b, "SELECT count(*) AS c FROM works"),
        vec![Row::new(vec![5i64.into()])],
        "after the transaction, the committed write is visible"
    );
}

#[test]
fn first_committer_wins_and_loser_can_retry() {
    let shared = SharedDatabase::in_memory();
    let mut a = shared.session();
    let mut b = shared.session();
    a.execute_script(SETUP).unwrap();

    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("INSERT INTO works VALUES ('A', 'SP', 1, 2)")
        .unwrap();
    b.execute("INSERT INTO works VALUES ('B', 'SP', 1, 2)")
        .unwrap();
    a.execute("COMMIT").unwrap();
    // The class is the variant (what the autocommit retry loop and the
    // server match on); the message is for the user.
    let err = b.execute("COMMIT").unwrap_err();
    assert!(
        matches!(&err, StatementError::Conflict(m) if m.contains("write-write conflict")),
        "{err:?}"
    );
    assert!(!b.in_transaction(), "failed COMMIT rolls back");

    // The loser's write never landed; a retry on a fresh snapshot works.
    assert_eq!(
        query_rows(&mut b, "SELECT count(*) AS c FROM works WHERE name = 'B'"),
        vec![Row::new(vec![0i64.into()])]
    );
    b.execute("BEGIN").unwrap();
    b.execute("INSERT INTO works VALUES ('B', 'SP', 1, 2)")
        .unwrap();
    b.execute("COMMIT").unwrap();
    assert_eq!(
        query_rows(&mut a, "SELECT count(*) AS c FROM works WHERE name = 'B'"),
        vec![Row::new(vec![1i64.into()])]
    );
}

#[test]
fn disjoint_writers_both_commit() {
    let shared = SharedDatabase::in_memory();
    let mut a = shared.session();
    let mut b = shared.session();
    a.execute_script(SETUP).unwrap();
    a.execute("CREATE TABLE other (x INT)").unwrap();

    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("INSERT INTO works VALUES ('A', 'SP', 1, 2)")
        .unwrap();
    b.execute("INSERT INTO other VALUES (1)").unwrap();
    a.execute("COMMIT").unwrap();
    b.execute("COMMIT").unwrap();
    let view = a.read_view();
    assert_eq!(view.catalog().get("works").unwrap().len(), 5);
    assert_eq!(view.catalog().get("other").unwrap().len(), 1);
}

/// Write skew, pinned as today's behaviour (ROADMAP direction 5c). The
/// registry's invariant "a set has at most one active version, whichever
/// tier it lives in" spans both registry tables. Two publishers each check
/// it on their own snapshot, find no active version of set 7, and activate
/// one — in different tiers. Their write sets are disjoint, plain reads are
/// not validated, so both commits succeed and the committed registry breaks
/// the invariant neither transaction broke alone. This is what
/// `snapshot_txn::manager` documents as "snapshot isolation, not
/// serializability: write skew is admitted"; closing it means validating
/// read sets in `validate_first_committer_wins`, and this test then flips.
/// (Had both written the *same* table, first-committer-wins would have
/// refused the second — see `first_committer_wins_and_loser_can_retry`.)
#[test]
fn write_skew_is_admitted_under_snapshot_isolation() {
    const TIERS: [&str; 2] = ["reg_governed", "reg_operational"];
    let shared = SharedDatabase::in_memory();
    let mut a = shared.session();
    let mut b = shared.session();
    for tier in TIERS {
        a.execute(&format!(
            "CREATE TABLE {tier} (object_id INT, object_type TEXT, status TEXT, \
             version INT, set_id INT, ts INT, te INT) PERIOD (ts, te)"
        ))
        .unwrap();
        a.execute(&format!(
            "INSERT INTO {tier} VALUES (1, 'view_def', 'deprecated', 1, 7, 0, 10)"
        ))
        .unwrap();
    }
    let active_versions = |s: &mut Session| -> i64 {
        TIERS
            .iter()
            .map(|tier| {
                let rows = query_rows(
                    s,
                    &format!(
                        "SELECT count(*) AS c FROM {tier} \
                         WHERE set_id = 7 AND status = 'active'"
                    ),
                );
                rows[0].int(0)
            })
            .sum()
    };

    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    assert_eq!(active_versions(&mut a), 0, "A: set 7 has no active version");
    assert_eq!(active_versions(&mut b), 0, "B: set 7 has no active version");
    a.execute("INSERT INTO reg_governed VALUES (1, 'view_def', 'active', 2, 7, 10, 99)")
        .unwrap();
    b.execute("INSERT INTO reg_operational VALUES (1, 'view_def', 'active', 2, 7, 10, 99)")
        .unwrap();
    assert_eq!(active_versions(&mut a), 1, "A sees only its own activation");
    assert_eq!(active_versions(&mut b), 1, "B sees only its own activation");
    a.execute("COMMIT").unwrap();
    b.execute("COMMIT").unwrap();

    assert_eq!(
        active_versions(&mut a),
        2,
        "both activations committed: the skew is admitted"
    );
}

#[test]
fn transaction_control_errors() {
    let mut s = Session::new(Database::new());
    assert!(s
        .execute("COMMIT")
        .unwrap_err()
        .to_string()
        .contains("no transaction"));
    assert!(s
        .execute("ROLLBACK")
        .unwrap_err()
        .to_string()
        .contains("no transaction"));
    s.execute("BEGIN").unwrap();
    assert!(s
        .execute("BEGIN")
        .unwrap_err()
        .to_string()
        .contains("already open"));
    s.execute("ROLLBACK").unwrap();

    // A failed statement inside a transaction leaves it open (the client
    // decides); an implicit (bare) statement on shared never leaks one.
    let shared = SharedDatabase::in_memory();
    let mut sh = shared.session();
    sh.execute_script(SETUP).unwrap();
    sh.execute("BEGIN").unwrap();
    assert!(sh.execute("INSERT INTO nope VALUES (1)").is_err());
    assert!(sh.in_transaction());
    sh.execute("ROLLBACK").unwrap();
    assert!(sh.execute("INSERT INTO nope VALUES (1)").is_err());
    assert!(!sh.in_transaction());
}

#[test]
fn insert_select_inside_a_transaction_reads_own_writes() {
    let mut s = Session::new(Database::new());
    s.execute_script(SETUP).unwrap();
    s.execute("CREATE TABLE archive (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2)")
        .unwrap();
    let r = s
        .execute("INSERT INTO archive SELECT * FROM works WHERE skill = 'SP'")
        .unwrap();
    assert_eq!(
        r,
        StatementResult::Inserted {
            table: "archive".into(),
            rows: 4, // Ann, Sam, Ann + the uncommitted Eve
        }
    );
    s.execute("COMMIT").unwrap();
    assert_eq!(s.database().catalog().get("archive").unwrap().len(), 4);
}

#[test]
fn indexed_queries_stay_correct_inside_transactions() {
    // verify_indexed cross-checks every indexed query against the naive
    // route — inside a transaction this exercises the pinned registry's
    // version-based invalidation across uncommitted mutations.
    let shared = SharedDatabase::in_memory();
    let mut s = shared.session_with_options(SessionOptions {
        verify_indexed: true,
        ..SessionOptions::default()
    });
    s.execute_script(SETUP).unwrap();
    let q = "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";
    let _ = query_rows(&mut s, q); // an indexed read before the transaction
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO works VALUES ('Eve', 'NS', 2, 9)")
        .unwrap();
    let in_txn = query_rows(&mut s, q);
    let oracle = {
        let pinned = s.read_view();
        oracle_rows_on(pinned.catalog(), q)
    };
    assert_eq!(in_txn, oracle);
    s.execute("DELETE FROM works WHERE name = 'Sam'").unwrap();
    let after_delete = query_rows(&mut s, q);
    let oracle = {
        let pinned = s.read_view();
        oracle_rows_on(pinned.catalog(), q)
    };
    assert_eq!(after_delete, oracle);
    s.execute("COMMIT").unwrap();
    let committed = query_rows(&mut s, q);
    assert_eq!(committed, after_delete);
}

#[test]
fn insert_select_source_tables_join_conflict_detection() {
    // A's INSERT .. SELECT materializes rows from its *snapshot* of
    // `works`; if a concurrent commit changes `works` before A commits,
    // A's statement text would replay against the changed state — so the
    // source table joins conflict validation and A must be refused.
    let shared = SharedDatabase::in_memory();
    let mut a = shared.session();
    let mut b = shared.session();
    a.execute_script(SETUP).unwrap();
    a.execute("CREATE TABLE archive (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();

    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO archive SELECT * FROM works WHERE skill = 'SP'")
        .unwrap();
    b.execute("INSERT INTO works VALUES ('Late', 'SP', 1, 2)")
        .unwrap();
    let err = a.execute("COMMIT").unwrap_err();
    assert!(matches!(err, StatementError::Conflict(_)), "{err:?}");
    assert_eq!(
        query_rows(&mut b, "SELECT count(*) AS c FROM archive"),
        vec![Row::new(vec![0i64.into()])],
        "the refused transaction published nothing"
    );

    // Without the concurrent source change, the same transaction commits.
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO archive SELECT * FROM works WHERE skill = 'SP'")
        .unwrap();
    a.execute("COMMIT").unwrap();
    assert_eq!(
        query_rows(&mut b, "SELECT count(*) AS c FROM archive"),
        vec![Row::new(vec![4i64.into()])]
    );
}

/// Bare (autocommit) DML under write-write contention succeeds instead of
/// surfacing raw first-committer-wins conflicts: the implicit-transaction
/// retry loop re-runs the statement on a fresh snapshot with jittered
/// backoff. Explicit transactions still surface the conflict (covered
/// above) — the retry applies only where the session can re-run the
/// statement itself.
#[test]
fn autocommit_conflicts_are_retried_transparently() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 12;

    let shared = SharedDatabase::in_memory();
    let mut setup = shared.session();
    setup
        .execute("CREATE TABLE counters (w INT, i INT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    drop(setup);

    let retry_totals: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut s = shared.session();
                    for i in 0..PER_WRITER {
                        // All writers hammer the same table: every commit
                        // races every other, so first-committer-wins
                        // refusals are near-certain without the retry.
                        s.execute(&format!(
                            "INSERT INTO counters VALUES ({w}, {i}, {}, {})",
                            i,
                            i + 1
                        ))
                        .unwrap_or_else(|e| {
                            panic!("writer {w} statement {i} surfaced an error: {e}")
                        });
                    }
                    assert_eq!(s.conflict_retries().gave_up, 0);
                    s.conflict_retries().total
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every statement landed exactly once — retries never double-apply
    // (each attempt runs on a fresh snapshot, the losing attempt's work is
    // discarded with its transaction).
    let mut check = shared.session();
    assert_eq!(
        query_rows(&mut check, "SELECT count(*) AS c FROM counters"),
        vec![Row::new(vec![((WRITERS * PER_WRITER) as i64).into()])]
    );
    let mut pairs = query_rows(&mut check, "SELECT w, i FROM counters");
    pairs.sort_unstable(); // query_rows sorts already; keep dedup sound regardless
    pairs.dedup();
    assert_eq!(
        pairs.len(),
        WRITERS * PER_WRITER,
        "no duplicated statement effects"
    );
    // Not asserted > 0 (a lucky schedule could serialize perfectly), but
    // recorded for the log.
    println!("conflict retries per writer: {retry_totals:?}");
}

#[test]
fn a_cloned_database_is_an_independent_fork() {
    let mut s = Session::new(Database::new());
    s.execute_script(SETUP).unwrap();
    let mut forked = Session::new(s.database().clone());
    forked.execute("DELETE FROM works").unwrap();
    assert_eq!(forked.database().catalog().get("works").unwrap().len(), 0);
    assert_eq!(
        s.database().catalog().get("works").unwrap().len(),
        4,
        "the fork's writes never reach the original"
    );
}

/// The stress invariant (acceptance criterion): N reader threads running
/// `SEQ VT` queries against a writer committing (and rolling back) DML
/// transactions — every read result is bag-equivalent to the point-wise
/// oracle evaluated on the snapshot the reader pinned.
///
/// `TXN_STRESS_ITERS` scales the per-reader iteration count (CI runs the
/// release build with a larger value).
#[test]
fn stress_concurrent_readers_match_the_oracle_on_their_pinned_snapshot() {
    let iters: usize = std::env::var("TXN_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    const READERS: usize = 4;
    const QUERY: &str = "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";

    let shared = SharedDatabase::in_memory();
    let mut setup = shared.session();
    setup.execute_script(SETUP).unwrap();
    drop(setup);

    let stop = AtomicBool::new(false);
    let commits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let shared_ref = &shared;
        let stop_ref = &stop;
        let commits_ref = &commits;
        // The writer: a stream of multi-statement transactions — inserts,
        // deletes, some rolled back — plus bare autocommit statements,
        // with the table size kept bounded so the readers' oracle stays
        // cheap.
        scope.spawn(move || {
            let mut s = shared_ref.session();
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) && i < 100_000 {
                i += 1;
                let ts = (i % 19) as i64;
                s.execute("BEGIN").unwrap();
                s.execute(&format!(
                    "INSERT INTO works VALUES ('w{}', 'SP', {ts}, {}), ('v{}', 'NS', {}, {})",
                    i % 7,
                    ts + 4,
                    i % 5,
                    ts + 1,
                    ts + 6,
                ))
                .unwrap();
                if i.is_multiple_of(3) {
                    s.execute(&format!(
                        "DELETE FROM works WHERE name = 'w{}'",
                        (i + 2) % 7
                    ))
                    .unwrap();
                }
                if i.is_multiple_of(5) {
                    s.execute("ROLLBACK").unwrap();
                } else {
                    s.execute("COMMIT").unwrap();
                    commits_ref.fetch_add(1, Ordering::Relaxed);
                }
                if i.is_multiple_of(7) {
                    // Bare autocommit write (implicit transaction) that
                    // also bounds the table's growth.
                    s.execute("DELETE FROM works WHERE name LIKE 'v%'").unwrap();
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut s = shared_ref.session_with_options(SessionOptions {
                        verify_indexed: true, // indexed == naive on every read, too
                        ..SessionOptions::default()
                    });
                    for k in 0..iters {
                        s.execute("BEGIN").unwrap();
                        let pinned = s
                            .transaction_snapshot()
                            .expect("transaction open")
                            .catalog()
                            .clone();
                        let got = query_rows(&mut s, QUERY);
                        let want = oracle_rows_on(&pinned, QUERY);
                        assert_eq!(
                            got, want,
                            "reader {r} iteration {k}: result diverges from the \
                             point-wise oracle on the pinned snapshot"
                        );
                        s.execute(if k % 2 == 0 { "COMMIT" } else { "ROLLBACK" })
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in readers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        commits.load(Ordering::Relaxed) > 0,
        "the writer must actually have committed during the stress run"
    );
}

/// Publication builds the written tables' indexes with no state lock held
/// and takes the write side of `txn.state` only to swap handles: a reader
/// parked inside `with_committed` (read side held) does not stop a
/// concurrent commit from *building* — only from swapping. On a manager
/// that builds under the write side, the build counters never move while
/// the reader holds on, and this test times out.
#[test]
fn a_commit_builds_its_indexes_while_a_reader_holds_the_state_lock() {
    let schema = Schema::of(&[
        ("name", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut works = Table::with_period(schema, 1, 2);
    works.extend((0..500).map(|i| row![format!("w{i}"), i, i + 10]));
    let mut catalog = Catalog::new();
    catalog.register("works", works);
    let metrics = snapshot_obs::MetricsRegistry::new();
    let mgr = TxnManager::new(catalog, IndexCatalog::recording_into(&metrics), &metrics);
    let (full, incremental) = (
        metrics.counter("index_full_builds_total"),
        metrics.counter("index_incremental_builds_total"),
    );
    // An 8-row close of 500 edits the index: any repair counts.
    let builds = || full.get() + incremental.get();
    let seq_before = mgr.commit_seq();

    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let mgr = &mgr;
    std::thread::scope(|s| {
        // Dropped on unwind too, so a failed wait still frees the reader.
        let release = release_tx;
        let reader = s.spawn(move || {
            mgr.with_committed(|_, _| {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        });
        held_rx.recv().unwrap();
        let builds_before = builds();
        let writer = s.spawn(move || {
            let mut txn = mgr.begin();
            let closed = txn
                .catalog_mut()
                .get_mut("works")
                .unwrap()
                .update_where(
                    |r| r.int(1) < 8,
                    |r| Ok(row![r.get(0).clone(), r.int(1), 20]),
                )
                .unwrap();
            assert_eq!(closed, 8);
            txn.record_write("works");
            mgr.commit_with(txn, |_| Ok(()))
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while builds() == builds_before {
            assert!(
                Instant::now() < deadline,
                "the commit did not build its index while a reader held txn.state"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(release);
        reader.join().unwrap();
        let outcome = writer.join().unwrap().expect("the commit returns");
        assert_eq!(outcome.commit_seq, seq_before + 1);
    });
    assert_eq!(mgr.commit_seq(), seq_before + 1);
    let snap = mgr.snapshot();
    let works = snap.catalog().get("works").unwrap();
    assert!(snap.indexes().get("works").unwrap().is_fresh(works));
}

/// After `INSERT` and `UPDATE` commits, the first coalesce over the bare
/// scan of the freshly indexed table returns the naive route's rows, in
/// order.
#[test]
fn first_coalesce_after_dml_commits_matches_the_naive_route() {
    const QUERY: &str = "SEQ VT (SELECT name, skill FROM works)";
    let shared = SharedDatabase::in_memory();
    let mut s = shared.session();
    s.execute_script(SETUP).unwrap();
    s.execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2), ('Ann', 'SP', 10, 14)")
        .unwrap();
    s.execute("UPDATE works SET te = 12 WHERE name = 'Joe'")
        .unwrap();
    let result = s.execute(QUERY).unwrap();

    let (plan, _) = s.last_statements()[0]
        .executed
        .as_ref()
        .expect("the query ran a plan");
    let naive = Engine::new()
        .execute(plan, shared.snapshot().catalog())
        .unwrap();
    assert_eq!(result.rows().unwrap().rows(), naive.rows());
    assert_eq!(naive.len(), 5, "Ann's [3, 10) and [10, 14) coalesce");
}

/// The reader contract on a shared database: inside a transaction, a table
/// it wrote reads on the naive route (its pinned index is stale by
/// version) and an untouched one on the index; after `COMMIT` the written
/// table is indexed again. No read builds an index — only the commit does.
#[test]
fn a_transaction_reads_the_tables_it_wrote_on_the_naive_route() {
    let shared = SharedDatabase::in_memory();
    let mut s = shared.session_with_options(SessionOptions {
        verify_indexed: true,
        ..SessionOptions::default()
    });
    s.execute_script(
        "CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te);
         CREATE TABLE u (x INT, ts INT, te INT) PERIOD (ts, te);
         INSERT INTO t VALUES (1, 0, 10), (2, 5, 15);
         INSERT INTO u VALUES (3, 0, 10), (4, 5, 15);",
    )
    .unwrap();
    let obs = std::sync::Arc::clone(shared.obs());
    let counts = || {
        [
            "index_full_builds_total",
            "index_incremental_builds_total",
            "engine_indextimeslice_invocations_total",
            "engine_naivetimeslice_invocations_total",
        ]
        .map(|name| obs.metrics.get_counter(name).map_or(0, |c| c.get()))
    };
    // Runs `sql` (cross-checked against the naive route) and names the
    // timeslice route it took; asserts it built no index.
    let route = |s: &mut Session, sql: &str| {
        let [full, incremental, stabs, scans] = counts();
        s.execute(sql).unwrap();
        let after = counts();
        assert_eq!([after[0], after[1]], [full, incremental], "{sql}: built");
        match [after[2] - stabs, after[3] - scans] {
            [1, 0] => "IndexTimeslice",
            [0, 1] => "NaiveTimeslice",
            other => panic!("{sql}: [index, naive] timeslices {other:?}"),
        }
    };
    let (on_t, on_u) = (
        "SEQ VT AS OF 6 (SELECT x FROM t)",
        "SEQ VT AS OF 6 (SELECT x FROM u)",
    );
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (5, 2, 8)").unwrap();
    assert_eq!(route(&mut s, on_t), "NaiveTimeslice");
    assert_eq!(query_rows(&mut s, on_t).len(), 3, "reads its own write");
    assert_eq!(route(&mut s, on_u), "IndexTimeslice");
    s.execute("COMMIT").unwrap();
    assert_eq!(route(&mut s, on_t), "IndexTimeslice");
}

/// On a shared database `ROLLBACK` is counted in `txn_rollbacks_total`
/// (`snapshot_stat_transactions.rollbacks`), and so is the rollback of a
/// transaction whose statement was cancelled.
#[test]
fn rollbacks_and_cancelled_transactions_are_counted() {
    let shared = SharedDatabase::in_memory();
    let mut s = shared.session();
    s.execute_script(SETUP).unwrap();
    let rollbacks = |s: &mut Session| {
        let result = s
            .execute("SELECT value FROM snapshot_stat_transactions WHERE stat = 'rollbacks'")
            .unwrap();
        result.rows().unwrap().rows()[0].get(0).clone()
    };
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2)")
        .unwrap();
    s.execute("ROLLBACK").unwrap();
    assert_eq!(rollbacks(&mut s), Value::Double(1.0));

    s.execute("SET max_rows_scanned = 2").unwrap();
    s.execute("BEGIN").unwrap();
    let err = s.execute("SELECT name FROM works").unwrap_err();
    assert!(matches!(err, StatementError::Cancelled { .. }), "{err:?}");
    assert!(!s.in_transaction(), "the cancellation rolled back");
    s.execute("SET max_rows_scanned = off").unwrap();
    assert_eq!(rollbacks(&mut s), Value::Double(2.0));
}

/// A write copies the blocks it touches, not the table. A shared database
/// seals the tables it publishes into shared blocks of 256 rows, so a
/// transaction's copy of a 20 000-row table duplicates its open tail (under
/// 256 rows) and, for an `UPDATE`, the block holding the rewritten row —
/// what `txn_copied_rows_total` counts. A `DELETE` moves positions and
/// still copies the whole table.
#[test]
fn a_write_copies_the_blocks_it_touches_not_the_table() {
    let db = SharedDatabase::in_memory();
    let schema = Schema::of(&[
        ("id", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut table = Table::with_period(schema, 1, 2);
    table.extend((0..20_000).map(|i| row![i, i, i + 10]));
    db.register_tables([("r".to_string(), table)]).unwrap();
    let copied = || {
        db.obs()
            .metrics
            .get_counter("txn_copied_rows_total")
            .map_or(0, |c| c.get())
    };
    let mut s = db.session();
    let mut step = |sql: &str| {
        let before = copied();
        s.execute(sql).unwrap();
        copied() - before
    };
    let insert = step("INSERT INTO r VALUES (-1, 1, 2)");
    assert!(insert <= 255, "a one-row INSERT copied {insert} rows");
    let update = step("UPDATE r SET te = 12 WHERE id = 5");
    assert!(
        (256..=511).contains(&update),
        "a one-row UPDATE copied {update} rows"
    );
    let delete = step("DELETE FROM r WHERE id = 7");
    assert!(delete >= 20_000, "a DELETE copied {delete} rows");

    let snapshot = db.snapshot();
    let r = snapshot.catalog().get("r").unwrap();
    assert_eq!(r.len(), 20_000);
    assert!(r.as_slice().is_none(), "published again, sealed again");
    assert_eq!(
        r.iter()
            .filter(|row| row.int(0) == 5)
            .map(|row| row.int(2))
            .collect::<Vec<_>>(),
        vec![12]
    );
}
