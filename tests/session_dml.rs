//! Differential and round-trip tests for the session subsystem: every
//! statement goes through `Session::execute` (the full parse → bind →
//! compile → execute pipeline), and after every mutation batch the indexed
//! route must agree with the naive route and the point-wise oracle —
//! exercising version-based index invalidation end-to-end.

use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::rewrite::infer_domain;
use snapshot_semantics::session::{Database, Session, SessionOptions, StatementResult};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Row, Value};

fn fresh_session(verify: bool) -> Session {
    Session::with_options(
        Database::new(),
        SessionOptions {
            verify_indexed: verify,
            ..SessionOptions::default()
        },
    )
}

fn setup(session: &mut Session) {
    session
        .execute_script(
            "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
             CREATE TABLE assign (mach TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
             INSERT INTO works VALUES
               ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
               ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);
             INSERT INTO assign VALUES
               ('M1', 'SP', 3, 12), ('M2', 'SP', 6, 14), ('M3', 'NS', 3, 16);",
        )
        .unwrap();
}

/// The oracle's canonical row encoding of a SEQ VT query over the session's
/// current database (domain inferred exactly as the session infers it).
fn oracle_rows(session: &Session, sql: &str) -> Vec<Row> {
    let catalog = session.database().catalog();
    let stmt = parse_statement(sql).unwrap();
    let bound = bind_statement(&stmt, catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("not a snapshot query: {sql}")
    };
    PointwiseOracle::new(infer_domain(catalog))
        .eval_rows(plan, catalog)
        .unwrap()
}

fn session_rows(session: &mut Session, sql: &str) -> Vec<Row> {
    let result = session.execute(sql).unwrap();
    let mut rows = result.rows().expect("query result").rows().to_vec();
    rows.sort_unstable();
    rows
}

#[test]
fn dml_round_trip() {
    let mut s = fresh_session(false);
    setup(&mut s);

    // INSERT reports counts; SELECT sees the rows.
    let r = s
        .execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 2)")
        .unwrap();
    assert_eq!(
        r,
        StatementResult::Inserted {
            table: "works".into(),
            rows: 1
        }
    );
    let out = s
        .execute("SELECT name FROM works WHERE skill = 'SP' ORDER BY name")
        .unwrap();
    let names: Vec<String> = out
        .rows()
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(0).to_string())
        .collect();
    assert_eq!(names, vec!["Ann", "Ann", "Eve", "Sam"]);

    // UPDATE rewrites matching rows (non-sequenced: period columns are
    // plain columns).
    let r = s
        .execute("UPDATE works SET te = te + 1, skill = 'NS' WHERE name = 'Eve'")
        .unwrap();
    assert_eq!(
        r,
        StatementResult::Updated {
            table: "works".into(),
            rows: 1
        }
    );
    let out = s
        .execute("SELECT skill, te FROM works WHERE name = 'Eve'")
        .unwrap();
    assert_eq!(
        out.rows().unwrap().rows(),
        &[Row::new(vec![Value::str("NS"), Value::Int(3)])]
    );

    // DELETE removes them again.
    let r = s.execute("DELETE FROM works WHERE name = 'Eve'").unwrap();
    assert_eq!(
        r,
        StatementResult::Deleted {
            table: "works".into(),
            rows: 1
        }
    );

    // INSERT ... SELECT round-trips through the query pipeline.
    s.execute("CREATE TABLE archive (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    let r = s
        .execute("INSERT INTO archive SELECT * FROM works WHERE te <= 16")
        .unwrap();
    assert_eq!(
        r,
        StatementResult::Inserted {
            table: "archive".into(),
            rows: 3
        }
    );

    // DROP TABLE (and IF EXISTS semantics).
    s.execute("DROP TABLE archive").unwrap();
    assert!(s.execute("DROP TABLE archive").is_err());
    assert_eq!(
        s.execute("DROP TABLE IF EXISTS archive").unwrap(),
        StatementResult::Dropped {
            table: "archive".into(),
            existed: false
        }
    );
}

const SNAPSHOT_QUERIES: &[&str] = &[
    "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
    "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)",
    "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)",
    "SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill)",
    "SEQ VT (SELECT name FROM works UNION ALL SELECT mach FROM assign)",
];

/// After every mutation batch, the session's indexed route (with the
/// built-in indexed-vs-naive cross-check enabled) must match the point-wise
/// oracle on the mutated database.
#[test]
fn index_staleness_differential_across_mutations() {
    let mut s = fresh_session(true);
    setup(&mut s);

    let batches: &[&str] = &[
        // Pure appends (incremental index maintenance).
        "INSERT INTO works VALUES ('Eve', 'SP', 0, 2), ('Pam', 'SP', 12, 19);
         INSERT INTO assign VALUES ('M4', 'WE', 2, 9);",
        // Non-sequenced update (full rebuild).
        "UPDATE works SET skill = 'WE' WHERE name = 'Sam';",
        // Delete (full rebuild).
        "DELETE FROM works WHERE te <= 2;",
        // Mixed batch.
        "INSERT INTO works VALUES ('Zoe', 'WE', 1, 21);
         DELETE FROM assign WHERE mach = 'M2';
         UPDATE assign SET te = te + 2 WHERE skill = 'NS';",
    ];

    // Prime the indexes, then mutate and re-verify after every batch: a
    // stale index that kept serving would diverge from the oracle here.
    for sql in SNAPSHOT_QUERIES {
        assert_eq!(session_rows(&mut s, sql), oracle_rows(&s, sql), "{sql}");
    }
    for batch in batches {
        s.execute_script(batch).unwrap();
        for sql in SNAPSHOT_QUERIES {
            assert_eq!(
                session_rows(&mut s, sql),
                oracle_rows(&s, sql),
                "after '{batch}': {sql}"
            );
        }
    }

    // The appends-only batch exercised the incremental maintenance path,
    // the others the full rebuilds.
    let stats = s.database().index_maintenance();
    assert!(
        stats.incremental_builds >= 2,
        "append batches must extend indexes incrementally: {stats:?}"
    );
    assert!(
        stats.full_builds >= 4,
        "initial builds plus update/delete rebuilds: {stats:?}"
    );
}

/// `SEQ VT AS OF t` equals the oracle's snapshot at `t`, and
/// `SEQ VT BETWEEN t1 AND t2` equals the oracle's encoding clipped to the
/// inclusive window — through the SQL surface, before and after mutations.
#[test]
fn as_of_and_between_match_oracle() {
    let mut s = fresh_session(true);
    setup(&mut s);

    for round in 0..2 {
        if round == 1 {
            s.execute_script(
                "INSERT INTO works VALUES ('Eve', 'SP', 2, 6);
                 DELETE FROM works WHERE name = 'Joe';",
            )
            .unwrap();
        }
        for base in SNAPSHOT_QUERIES {
            let inner = base.strip_prefix("SEQ VT ").unwrap();
            let oracle = oracle_rows(&s, base);

            // AS OF: slice the oracle's period encoding at t. Points
            // outside the inferred time domain are excluded — there the
            // oracle's encoding has no rows while AS OF (correctly) sees
            // the empty snapshot, e.g. count(*) = 0.
            for at in [3i64, 5, 9, 15, 19] {
                let got = session_rows(&mut s, &format!("SEQ VT AS OF {at} {inner}"));
                let mut want: Vec<Row> = oracle
                    .iter()
                    .filter(|r| {
                        let n = r.arity();
                        r.int(n - 2) <= at && at < r.int(n - 1)
                    })
                    .map(|r| Row::new(r.values()[..r.arity() - 2].to_vec()))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{base} AS OF {at} (round {round})");
            }

            // BETWEEN: clip the oracle's encoding to [t1, t2 + 1).
            for (t1, t2) in [(4i64, 11i64), (8, 8), (3, 19)] {
                let got = session_rows(&mut s, &format!("SEQ VT BETWEEN {t1} AND {t2} {inner}"));
                let (w0, w1) = (t1, t2 + 1);
                let mut want: Vec<Row> = oracle
                    .iter()
                    .filter(|r| {
                        let n = r.arity();
                        r.int(n - 2) < w1 && w0 < r.int(n - 1)
                    })
                    .map(|r| {
                        let n = r.arity();
                        let mut vals = r.values().to_vec();
                        vals[n - 2] = Value::Int(r.int(n - 2).max(w0));
                        vals[n - 1] = Value::Int(r.int(n - 1).min(w1));
                        Row::new(vals)
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{base} BETWEEN {t1} AND {t2} (round {round})");
            }
        }
    }
}

/// Statement-level errors come back as `Err`, never as panics, and failed
/// mutations leave the database untouched.
#[test]
fn errors_are_reported_and_atomic() {
    let mut s = fresh_session(false);
    setup(&mut s);

    // Parser and binder errors.
    assert!(s.execute("SELEKT 1").is_err());
    assert!(s.execute("SELECT nope FROM works").is_err());
    assert!(s.execute("SELECT * FROM missing").is_err());

    // DDL errors.
    assert!(s
        .execute("CREATE TABLE works (x INT)")
        .unwrap_err()
        .to_string()
        .contains("already exists"));
    assert!(s
        .execute("CREATE TABLE t (a TEXT, ts INT, te INT) PERIOD (a, te)")
        .unwrap_err()
        .to_string()
        .contains("must be INT"));

    // INSERT validation: arity, types, period — all atomic.
    let before = s.database().catalog().get("works").unwrap().clone();
    assert!(s
        .execute("INSERT INTO works VALUES ('X', 'SP', 1)")
        .unwrap_err()
        .to_string()
        .contains("arity"));
    assert!(s
        .execute("INSERT INTO works VALUES ('X', 'SP', 1, 5), ('Y', 2, 3, 4)")
        .unwrap_err()
        .to_string()
        .contains("does not fit"));
    assert!(s
        .execute("INSERT INTO works VALUES ('X', 'SP', 9, 4)")
        .unwrap_err()
        .to_string()
        .contains("begin < end"));
    assert_eq!(s.database().catalog().get("works").unwrap(), &before);

    // UPDATE that would invalidate a period is rejected atomically.
    assert!(s
        .execute("UPDATE works SET te = 0 WHERE name = 'Ann'")
        .unwrap_err()
        .to_string()
        .contains("begin < end"));
    assert_eq!(s.database().catalog().get("works").unwrap(), &before);

    // Aggregates are not valid in DML scalar positions.
    assert!(s.execute("DELETE FROM works WHERE count(*) > 1").is_err());
    // Non-boolean WHERE is rejected.
    assert!(s
        .execute("DELETE FROM works WHERE ts + 1")
        .unwrap_err()
        .to_string()
        .contains("boolean"));
}

/// The session's lazily maintained indexes are actually used, and
/// `use_indexes: false` bypasses them.
#[test]
fn session_routes_through_indexes() {
    let mut s = fresh_session(false);
    setup(&mut s);
    assert!(s.database().indexes().is_empty(), "indexes build lazily");
    s.execute(SNAPSHOT_QUERIES[0]).unwrap();
    assert_eq!(
        s.database().indexes().len(),
        1,
        "the scanned table got indexed"
    );

    let mut naive = Session::with_options(
        Database::from_catalog(s.database().catalog().clone()),
        SessionOptions {
            use_indexes: false,
            ..SessionOptions::default()
        },
    );
    for sql in SNAPSHOT_QUERIES {
        assert_eq!(
            session_rows(&mut s, sql),
            session_rows(&mut naive, sql),
            "{sql}"
        );
    }
    assert!(
        naive.database().indexes().is_empty(),
        "the naive session never builds indexes"
    );
}
