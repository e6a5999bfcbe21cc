//! End-to-end SQL pipeline tests: plain queries, snapshot queries, ORDER
//! BY placement, and error reporting.

use snapshot_semantics::engine::Engine;
use snapshot_semantics::rewrite::{infer_domain, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement};
use snapshot_semantics::storage::{row, Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::timeline::TimeDomain;

fn catalog() -> Catalog {
    let works = Schema::of(&[
        ("name", SqlType::Str),
        ("skill", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut w = Table::with_period(works, 2, 3);
    w.push(row!["Ann", "SP", 3, 10]);
    w.push(row!["Joe", "NS", 8, 16]);
    w.push(row!["Sam", "SP", 8, 16]);
    w.push(row!["Ann", "SP", 18, 20]);
    let mut c = Catalog::new();
    c.register("works", w);
    c
}

fn run(sql: &str) -> Result<Vec<Row>, String> {
    let c = catalog();
    let stmt = parse_statement(sql)?;
    let bound = bind_statement(&stmt, &c)?;
    let plan = SnapshotCompiler::new(TimeDomain::new(0, 24)).compile_statement(&bound, &c)?;
    Ok(Engine::new().execute(&plan, &c)?.rows().to_vec())
}

#[test]
fn plain_queries_see_period_columns_as_data() {
    // Outside SEQ VT, ts/te are ordinary columns.
    let rows = run("SELECT name, te - ts AS hours FROM works WHERE skill = 'SP'").unwrap();
    let mut sorted = rows;
    sorted.sort_unstable();
    assert_eq!(sorted, vec![row!["Ann", 2], row!["Ann", 7], row!["Sam", 8]]);
}

#[test]
fn plain_aggregation_and_order_by() {
    let rows =
        run("SELECT skill, count(*) AS c FROM works GROUP BY skill ORDER BY c DESC").unwrap();
    assert_eq!(rows, vec![row!["SP", 3], row!["NS", 1]]);
}

#[test]
fn snapshot_query_with_outer_order_by() {
    let rows = run("SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill) ORDER BY skill")
        .unwrap();
    // NS rows sort before SP rows; periods trail each data row.
    assert!(!rows.is_empty());
    let first_sp = rows.iter().position(|r| r.get(0) == &"SP".into()).unwrap();
    assert!(rows[..first_sp]
        .iter()
        .all(|r| r.get(0) == &snapshot_semantics::storage::Value::str("NS")));
}

#[test]
fn order_by_inside_seq_vt_is_rejected() {
    let err = run("SEQ VT (SELECT name FROM works ORDER BY name)").unwrap_err();
    assert!(err.contains("expected"), "got: {err}");
}

#[test]
fn helpful_binder_errors() {
    assert!(run("SELECT nope FROM works")
        .unwrap_err()
        .contains("unknown column"));
    assert!(run("SELECT * FROM nope")
        .unwrap_err()
        .contains("unknown table"));
    assert!(run("SELECT name FROM works WHERE name")
        .unwrap_err()
        .contains("boolean"));
    assert!(
        run("SEQ VT (SELECT skill FROM works) UNION ALL SELECT skill FROM works")
            .unwrap_err()
            .contains("top level")
    );
}

#[test]
fn infer_domain_covers_data() {
    let c = catalog();
    assert_eq!(infer_domain(&c), TimeDomain::new(3, 20));
}

#[test]
fn string_escapes_and_case_expressions() {
    let rows = run(
        "SELECT name, CASE WHEN skill = 'SP' THEN 'specialized' ELSE 'not' END AS kind \
         FROM works WHERE name <> 'it''s'",
    )
    .unwrap();
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().any(|r| r.get(1) == &"specialized".into()));
}

#[test]
fn seq_vt_of_set_operations_binds_whole_tree() {
    let rows = run("SEQ VT (SELECT skill FROM works WHERE name = 'Ann' \
         UNION ALL SELECT skill FROM works WHERE name = 'Sam')")
    .unwrap();
    // Ann SP [3,10)+[18,20), Sam SP [8,16) — summed and coalesced.
    let mut sorted = rows;
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        vec![
            row!["SP", 3, 8],
            row!["SP", 8, 10],
            row!["SP", 8, 10],
            row!["SP", 10, 16],
            row!["SP", 18, 20],
        ]
    );
}

/// Runs one SQL statement through the full pipeline over an explicit
/// catalog (for the numeric-regression fixtures below).
fn run_on(c: &Catalog, sql: &str) -> Result<Vec<Row>, String> {
    let stmt = parse_statement(sql)?;
    let bound = bind_statement(&stmt, c)?;
    let plan = SnapshotCompiler::new(TimeDomain::new(0, 24)).compile_statement(&bound, c)?;
    Ok(Engine::new().execute(&plan, c)?.rows().to_vec())
}

/// Regression: `Int` `+ - * /` used to wrap in release builds and panic in
/// debug ones — and `i64::MIN / -1` panicked in both, taking a server's
/// connection thread with it. A result outside `i64` is NULL, as `x / 0`
/// is; a snapshot `sum` passing beyond the edge is NULL there and comes
/// back.
#[test]
fn int_overflow_is_null_and_a_sliding_sum_survives_it() {
    let schema = Schema::of(&[
        ("a", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut t = Table::with_period(schema, 1, 2);
    t.push(row![i64::MAX, 0, 10]);
    t.push(row![i64::MAX, 5, 15]);
    let mut c = Catalog::new();
    c.register("edge", t);

    let null_over = |b, e| Row::new(vec![Value::Null, Value::Int(b), Value::Int(e)]);
    for expr in [
        "(0 - a - 1) / (0 - 1)",
        "a + 1",
        "a * 2",
        "0 - a - 2",
        "a / 0",
    ] {
        let rows = run_on(&c, &format!("SEQ VT (SELECT {expr} AS x FROM edge)")).unwrap();
        assert_eq!(
            rows,
            vec![
                null_over(0, 5),
                null_over(5, 10),
                null_over(5, 10),
                null_over(10, 15)
            ],
            "{expr}"
        );
    }
    assert_eq!(
        run_on(&c, "SELECT a - 1 + 1 AS x FROM edge WHERE ts = 0").unwrap(),
        vec![row![i64::MAX]]
    );
    // Overflow in a WHERE is unknown: the row is filtered out, not kept.
    assert_eq!(
        run_on(&c, "SELECT ts FROM edge WHERE a + 1 > 0 OR a + 1 <= 0").unwrap(),
        Vec::<Row>::new()
    );
    assert_eq!(
        run_on(&c, "SEQ VT (SELECT sum(a) AS total FROM edge)").unwrap(),
        vec![
            null_over(5, 10),
            null_over(15, 24),
            row![i64::MAX, 0, 5],
            row![i64::MAX, 10, 15],
        ]
    );
}

/// Regression: mixed `Int`/`Double` comparisons used to widen the int
/// with `as f64`, which is lossy above 2^53 — `9007199254740993` compared
/// `Equal` to `9007199254740992.0`. The comparison is now exact.
#[test]
fn int_double_comparisons_are_exact_beyond_2_53() {
    let schema = Schema::of(&[("v", SqlType::Int)]);
    let mut t = Table::new(schema);
    t.push(row![9_007_199_254_740_993i64]); // 2^53 + 1
    let mut c = Catalog::new();
    c.register("big", t);

    // Not equal to the double 2^53 (the old widening said it was)...
    assert_eq!(
        run_on(&c, "SELECT v FROM big WHERE v = 9007199254740992.0").unwrap(),
        Vec::<Row>::new()
    );
    // ...but strictly greater.
    assert_eq!(
        run_on(&c, "SELECT v FROM big WHERE v > 9007199254740992.0")
            .unwrap()
            .len(),
        1
    );
    // The exactly representable neighbour still compares equal.
    assert_eq!(
        run_on(&c, "SELECT v FROM big WHERE v - 1 = 9007199254740992.0")
            .unwrap()
            .len(),
        1
    );
    // And `<>` (sql_eq inherits sql_cmp) agrees.
    assert_eq!(
        run_on(&c, "SELECT v FROM big WHERE v <> 9007199254740992.0")
            .unwrap()
            .len(),
        1
    );
}

/// Regression: `UNION ALL` / `EXCEPT ALL` of an `INT` and a `DOUBLE` column
/// kept the `INT` side's values in the result, so the kernels, which group
/// by value and type, saw `2` and `2.0` as two rows: `2 EXCEPT ALL 2.0`
/// subtracted nothing and a `GROUP BY` over the union counted two `2`
/// groups. The result column is `DOUBLE` now, the `INT` side widened.
/// Sequenced == `AS OF` 0/6/12 == the point-wise oracle, and the plain form
/// agrees.
#[test]
fn int_beside_double_in_a_set_operation_is_one_value() {
    use snapshot_semantics::baseline::PointwiseOracle;
    use snapshot_semantics::sql::BoundStatement;
    let schema = |name, ty| Schema::of(&[(name, ty), ("ts", SqlType::Int), ("te", SqlType::Int)]);
    let mut ints = Table::with_period(schema("x", SqlType::Int), 1, 2);
    ints.extend([row![2, 0, 10], row![3, 0, 10]]);
    let mut doubles = Table::with_period(schema("y", SqlType::Double), 1, 2);
    doubles.push(row![2.0, 5, 15]);
    let mut c = Catalog::new();
    c.register("ints", ints);
    c.register("doubles", doubles);

    let except = "(SELECT x FROM ints EXCEPT ALL SELECT y FROM doubles)";
    let counts = "(SELECT x, count(*) AS c FROM \
                  (SELECT x FROM ints UNION ALL SELECT y FROM doubles) u GROUP BY x)";
    for (query, want) in [
        (except, vec![row![2.0, 0, 5], row![3.0, 0, 10]]),
        (
            counts,
            vec![
                row![2.0, 1, 0, 5],
                row![2.0, 1, 10, 15],
                row![2.0, 2, 5, 10],
                row![3.0, 1, 0, 10],
            ],
        ),
    ] {
        let sql = format!("SEQ VT {query}");
        let out = run_on(&c, &sql).unwrap();
        assert_eq!(out, want, "{sql}");
        let bound = bind_statement(&parse_statement(&sql).unwrap(), &c).unwrap();
        let BoundStatement::Snapshot { plan, .. } = &bound else {
            panic!("{sql} is not a snapshot query")
        };
        let oracle = PointwiseOracle::new(TimeDomain::new(0, 24)).eval_rows(plan, &c);
        assert_eq!(oracle.unwrap(), want, "{sql}");
        for at in [0, 6, 12] {
            let arity = want[0].arity() - 2;
            let mut snapshot: Vec<Row> = want
                .iter()
                .filter(|r| r.int(arity) <= at && at < r.int(arity + 1))
                .map(|r| Row::new(r.values()[..arity].to_vec()))
                .collect();
            let mut got = run_on(&c, &format!("SEQ VT AS OF {at} {query}")).unwrap();
            snapshot.sort();
            got.sort();
            assert_eq!(got, snapshot, "AS OF {at} {query}");
        }
    }
    assert_eq!(
        run_on(&c, &except[1..except.len() - 1]).unwrap(),
        vec![row![3.0]]
    );
    let mut plain = run_on(&c, &counts[1..counts.len() - 1]).unwrap();
    plain.sort();
    assert_eq!(plain, vec![row![2.0, 2], row![3.0, 1]]);
}

/// Regression + policy test for NaN: it is rejected at DML ingestion
/// (the session's `conform_row` validator — storage primitives and bulk
/// loads are below the policy), and a *computed* NaN — which can still flow
/// through expressions — behaves like NULL in predicates (the row drops
/// out) while ORDER BY gives it a deterministic total-order position
/// (IEEE total order: after every other double). Documented in the
/// README's SQL notes.
#[test]
fn nan_is_rejected_at_ingestion_and_totally_ordered_in_sorts() {
    use snapshot_semantics::algebra::{Expr, Plan};
    use snapshot_semantics::session::database::conform_row;
    use snapshot_semantics::storage::Value;

    // Ingestion: the session's DML validator (conform_row — both INSERT
    // and UPDATE run replacement rows through it) refuses NaN, naming the
    // column; infinities remain storable.
    let schema_x = Schema::of(&[("x", SqlType::Double)]);
    let err = conform_row(&schema_x, row![f64::NAN]).unwrap_err();
    assert!(err.contains("NaN") && err.contains("'x'"), "{err}");
    assert!(conform_row(&schema_x, row![f64::INFINITY]).is_ok());
    assert!(conform_row(&schema_x, row![1.5]).is_ok());

    // Predicates: NaN compares as unknown, so the row silently drops —
    // exactly like NULL (this is the documented behavior, pinned here).
    let schema = Schema::of(&[("x", SqlType::Double)]);
    let values = Plan::values(schema.clone(), vec![row![1.0], row![f64::NAN], row![2.0]]);
    let filtered = Engine::new()
        .execute(
            &values.clone().filter(Expr::col(0).eq(Expr::col(0))),
            &Catalog::new(),
        )
        .unwrap();
    assert_eq!(filtered.len(), 2, "NaN = NaN is unknown, the row drops");

    // ORDER BY: total order, NaN deterministically after all doubles.
    let sorted = Engine::new()
        .execute(&values.sort(vec![(Expr::col(0), true)]), &Catalog::new())
        .unwrap();
    let xs: Vec<Value> = sorted.rows().iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(xs[0], Value::Double(1.0));
    assert_eq!(xs[1], Value::Double(2.0));
    assert!(matches!(xs[2], Value::Double(d) if d.is_nan()));
}

/// The compiled plans of the Employee workload, pinned: every projection
/// REWR and the binder put above a join, another projection, or the
/// columns in order is absorbed where the plan is built
/// (`Plan::project`). A `Project` chain sneaking back in changes these
/// texts — and costs one full copy of an 18 k-row intermediate per link.
/// Likewise the final `Coalesce` over a fused aggregate or difference,
/// which emit the coalesced encoding themselves (`Plan::coalesce`): only
/// the joins keep one.
#[test]
fn employee_plans_have_no_project_chains() {
    use snapshot_semantics::datagen::employees;
    const SAL: &str = "Scan salaries (emp_no INT, salary INT, __ts INT, __te INT)";
    const DEPT: &str = "Scan dept_emp (emp_no INT, dept_no TEXT, __ts INT, __te INT)";
    const MGR: &str = "Scan dept_manager (emp_no INT, dept_no TEXT, __ts INT, __te INT)";
    const EMP: &str = "Scan employees (emp_no INT, name TEXT, gender TEXT, __ts INT, __te INT)";
    const TITLES: &str = "Scan titles (emp_no INT, title TEXT, __ts INT, __te INT)";
    // The overlap join of two four-column tables on their first column.
    const ON: &str = "Join on (((#0 = #4) AND (#2 < #7)) AND (#6 < #3))";
    const PERIOD: &str = "GREATEST(#2, #6), LEAST(#3, #7)";
    let want: [(&str, Vec<String>); 10] = [
        (
            "join-1",
            vec![
                "Coalesce (multiset temporal)".into(),
                format!("  {ON} → [#0, #1, #5, {PERIOD}]"),
                format!("    {SAL}"),
                format!("    {DEPT}"),
            ],
        ),
        (
            "join-2",
            vec![
                "Coalesce (multiset temporal)".into(),
                format!("  {ON} → [#0, #1, #5, {PERIOD}]"),
                format!("    {SAL}"),
                format!("    {TITLES}"),
            ],
        ),
        (
            "join-3",
            vec![
                "Coalesce (multiset temporal)".into(),
                // The WHERE is the join's last conjunct, not a Filter.
                format!(
                    "  Join on ({} AND (#5 > 70000)) → [#1, {PERIOD}]",
                    ON.strip_prefix("Join on ").unwrap()
                ),
                format!("    {MGR}"),
                format!("    {SAL}"),
            ],
        ),
        (
            "join-4",
            vec![
                "Coalesce (multiset temporal)".into(),
                "  Join on (((#0 = #6) AND (#4 < #10)) AND (#9 < #5)) → \
                 [#0, #1, #3, #7, GREATEST(#4, #9), LEAST(#5, #10)]"
                    .into(),
                format!("    {ON} → [#0, #1, #4, #5, {PERIOD}]"),
                format!("      {MGR}"),
                format!("      {SAL}"),
                format!("    {EMP}"),
            ],
        ),
        (
            "agg-1",
            vec![
                "TemporalAggregate group=[#3] aggs=[avg(#1)]".into(),
                format!("  {ON} → [#0, #1, #4, #5, {PERIOD}]"),
                format!("    {SAL}"),
                format!("    {DEPT}"),
            ],
        ),
        (
            "agg-2",
            vec![
                "TemporalAggregate group=[] aggs=[avg(#3)] with-gaps".into(),
                format!("  {ON} → [#0, #1, #4, #5, {PERIOD}]"),
                format!("    {MGR}"),
                format!("    {SAL}"),
            ],
        ),
        (
            "agg-3",
            vec![
                "TemporalAggregate group=[] aggs=[count(*)] with-gaps".into(),
                "  Filter (#1 > 21)".into(),
                "    TemporalAggregate group=[#1] aggs=[count(*)]".into(),
                format!("      {DEPT}"),
            ],
        ),
        (
            "agg-join",
            vec![
                "Coalesce (multiset temporal)".into(),
                // `s.salary = m.msal` is a second hash key of the top join.
                "  Join on ((((#4 = #9) AND (#7 < #12)) AND (#11 < #8)) AND (#6 = #10)) → \
                 [#1, GREATEST(#7, #11), LEAST(#8, #12)]"
                    .into(),
                "    Join on (((#0 = #7) AND (#5 < #10)) AND (#9 < #6)) → \
                 [#0, #1, #2, #3, #4, #7, #8, GREATEST(#5, #9), LEAST(#6, #10)]"
                    .into(),
                "      Join on (((#0 = #5) AND (#3 < #8)) AND (#7 < #4)) → \
                 [#0, #1, #2, #5, #6, GREATEST(#3, #7), LEAST(#4, #8)]"
                    .into(),
                format!("        {EMP}"),
                format!("        {DEPT}"),
                format!("      {SAL}"),
                "    TemporalAggregate group=[#3] aggs=[max(#1)]".into(),
                format!("      {ON} → [#0, #1, #4, #5, {PERIOD}]"),
                format!("        {SAL}"),
                format!("        {DEPT}"),
            ],
        ),
        (
            "diff-1",
            vec![
                "TemporalExceptAll".into(),
                "  Project [#0, #3, #4]".into(),
                format!("    {EMP}"),
                "  Project [#0, #2, #3]".into(),
                format!("    {MGR}"),
            ],
        ),
        (
            "diff-2",
            vec![
                "TemporalExceptAll".into(),
                format!("  {SAL}"),
                format!("  {ON} → [#0, #5, {PERIOD}]"),
                format!("    {MGR}"),
                format!("    {SAL}"),
            ],
        ),
    ];
    let c = employees::generate(0.0002, 42);
    let compiler = SnapshotCompiler::new(employees::domain());
    let queries = employees::queries();
    assert_eq!(queries.len(), want.len());
    for ((name, sql), (want_name, lines)) in queries.iter().zip(&want) {
        assert_eq!(name, want_name);
        let bound = bind_statement(&parse_statement(sql).unwrap(), &c).unwrap();
        let plan = compiler.compile_statement(&bound, &c).unwrap();
        assert_eq!(plan.explain().trim_end(), lines.join("\n"), "{name}");
    }
}

/// Absorbing projections must not copy work: `SELECT x + x AS x FROM (…)`
/// nested 40 deep would, composed by blind substitution, bind into an
/// expression of 2^40 leaves (and never return); it binds into one small
/// `Project` per level and doubles a value 40 times. A computed column read
/// twice keeps its own node, so it is also evaluated once per row.
#[test]
fn nested_self_referencing_projections_stay_linear() {
    let mut sql = "SELECT ts AS x FROM works WHERE name = 'Joe'".to_string();
    for level in 0..40 {
        sql = format!("SELECT x + x AS x FROM ({sql}) s{level}");
    }
    assert_eq!(run(&sql).unwrap(), vec![row![8i64 << 40]]);
    let c = catalog();
    let bound = bind_statement(&parse_statement(&sql).unwrap(), &c).unwrap();
    let plan = SnapshotCompiler::new(TimeDomain::new(0, 24))
        .compile_statement(&bound, &c)
        .unwrap();
    let text = plan.explain();
    assert_eq!(text.matches("Project").count(), 40, "{text}");
    assert!(text.len() < 4096, "{} bytes of plan", text.len());
}

/// A grouped `SEQ VT` over a join reads the join's matched pairs and builds
/// no join row — and the join is still a node to every observer: `agg-1`
/// at N = 2 000, seed 7321, reports its `Join` with the 17 692 pairs it
/// matched (never "never executed"), and the operator counters the session
/// publishes as `engine_join_*` / `engine_hashjoin_*` see the same.
#[test]
fn aggregate_over_a_join_still_reports_the_join() {
    use snapshot_semantics::datagen::employees;
    use snapshot_semantics::engine::{explain_analyzed, ExecStats, NodeStats};
    use snapshot_semantics::index::IndexCatalog;
    let c = employees::generate(2000.0 / 300_000.0, 7321);
    let (_, sql) = employees::queries()
        .into_iter()
        .find(|(name, _)| *name == "agg-1")
        .unwrap();
    let bound = bind_statement(&parse_statement(sql).unwrap(), &c).unwrap();
    let plan = SnapshotCompiler::new(employees::domain())
        .compile_statement(&bound, &c)
        .unwrap();
    let (mut stats, mut nodes) = (ExecStats::default(), NodeStats::default());
    let indexes = IndexCatalog::build_all(&c);
    let out = Engine::new()
        .execute_analyzed(&plan, &c, Some(&indexes), &mut stats, &mut nodes)
        .unwrap();
    let text = explain_analyzed(&plan, &nodes);
    let join = text.lines().nth(1).unwrap();
    assert!(
        join.starts_with("  Join on ") && join.contains(" (actual rows=17692 calls=1 "),
        "{text}"
    );
    assert!(!text.contains("never executed"), "{text}");
    assert_eq!(stats.get("Join"), Some((1, 17692)));
    assert_eq!(stats.get("HashJoin"), Some((1, 17692)));
    assert_eq!(stats.get("TemporalAggregate"), Some((1, out.len() as u64)));
}

/// `BETWEEN t AND i64::MAX` ends its half-open window at `i64::MAX`
/// (`t2 + 1` saturates), so `BETWEEN i64::MAX AND i64::MAX` holds no
/// representable time point: an "empty SEQ VT window" error like
/// `BETWEEN 5 AND 4` — it used to panic building the empty range — and the
/// session goes on; one point earlier the window answers.
#[test]
fn between_at_the_end_of_time_is_an_error_not_a_panic() {
    use snapshot_semantics::session::{Session, StatementError};
    let mut s = Session::default();
    s.execute("CREATE TABLE w (name TEXT, ts INT, te INT) PERIOD (ts, te)")
        .unwrap();
    s.execute("INSERT INTO w VALUES ('Ann', 9223372036854775805, 9223372036854775807)")
        .unwrap();
    let err = s
        .execute("SEQ VT BETWEEN 9223372036854775807 AND 9223372036854775807 (SELECT name FROM w)")
        .unwrap_err();
    assert!(
        matches!(&err, StatementError::Failed(m) if m.starts_with("empty SEQ VT window")),
        "{err:?}"
    );
    let out = s
        .execute("SEQ VT BETWEEN 9223372036854775806 AND 9223372036854775807 (SELECT name FROM w)")
        .unwrap();
    assert_eq!(
        out.rows().unwrap().rows(),
        &[row!["Ann", i64::MAX - 1, i64::MAX]]
    );
}
