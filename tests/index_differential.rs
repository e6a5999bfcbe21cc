//! Differential testing of the temporal index subsystem: every indexed
//! route (sweep join, interval-tree timeslice and time range) must be
//! bag-equivalent to the naive engine paths and to the point-wise oracle
//! on randomized databases and the datagen workloads.

use proptest::prelude::*;
use snapshot_semantics::algebra::{Expr, JoinAlgo, Plan, PlanNode};
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::datagen::random::{random_period_table, RandomTableSpec};
use snapshot_semantics::engine::coalesce::never;
use snapshot_semantics::engine::{temporal, Engine, ExecStats, NodeStats};
use snapshot_semantics::index::{IndexCatalog, MaintenanceStats, TableIndex};
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{row, Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::timeline::TimeDomain;

/// Runs `plan` through the engine's general entry point — over `indexes`,
/// or on the naive routes when `None` — returning the result and the
/// operator counters that name the physical routes taken.
fn run_with_stats(
    engine: &Engine,
    plan: &Plan,
    catalog: &Catalog,
    indexes: Option<&IndexCatalog>,
) -> (Table, ExecStats) {
    let mut stats = ExecStats::default();
    let out = engine
        .execute_analyzed(
            plan,
            catalog,
            indexes,
            &mut stats,
            &mut NodeStats::default(),
        )
        .unwrap();
    (out, stats)
}

/// [`run_with_stats`] over an index registry, result only.
fn run_indexed(engine: &Engine, plan: &Plan, catalog: &Catalog, indexes: &IndexCatalog) -> Table {
    run_with_stats(engine, plan, catalog, Some(indexes)).0
}

fn random_catalog(seed: u64) -> (Catalog, TimeDomain) {
    let domain = TimeDomain::new(0, 30);
    let spec = RandomTableSpec {
        rows: 40,
        int_cols: 1,
        str_cols: 1,
        cardinality: 3,
        domain,
        max_len: 8,
    };
    let mut c = Catalog::new();
    c.register("r", random_period_table(&spec, seed));
    c.register("s", random_period_table(&spec, seed + 31));
    (c, domain)
}

/// Every join hint the rewriter can stamp on its overlap joins.
const JOIN_ALGOS: [JoinAlgo; 4] = [
    JoinAlgo::Auto,
    JoinAlgo::NestedLoop,
    JoinAlgo::Hash,
    JoinAlgo::Sweep,
];

const QUERIES: &[&str] = &[
    "SEQ VT (SELECT * FROM r)",
    "SEQ VT (SELECT r.i0, s.s0 FROM r JOIN s ON r.i0 = s.i0)",
    "SEQ VT (SELECT r.i0 FROM r JOIN s ON r.s0 = s.s0 WHERE s.i0 = 2)",
    "SEQ VT (SELECT r.s0 FROM r JOIN s ON r.i0 < s.i0)",
    "SEQ VT (SELECT i0 FROM r EXCEPT ALL SELECT i0 FROM s)",
    "SEQ VT (SELECT i0, count(*) AS c FROM r GROUP BY i0)",
    "SEQ VT (SELECT count(*) AS c FROM r)",
];

/// The full SQL pipeline over the index registry equals the naive engine
/// and the point-wise oracle, for every rewrite-level join hint.
#[test]
fn indexed_pipeline_matches_naive_and_oracle() {
    for seed in 0..4 {
        let (catalog, domain) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        for sql in QUERIES {
            let stmt = parse_statement(sql).unwrap();
            let bound = bind_statement(&stmt, &catalog).unwrap();
            let BoundStatement::Snapshot { plan, .. } = &bound else {
                panic!()
            };
            let oracle = PointwiseOracle::new(domain)
                .eval_rows(plan, &catalog)
                .unwrap();
            for algo in JOIN_ALGOS {
                let compiler = SnapshotCompiler::with_options(
                    domain,
                    RewriteOptions {
                        temporal_join_algo: algo,
                        ..RewriteOptions::default()
                    },
                );
                let compiled = compiler.compile_statement(&bound, &catalog).unwrap();
                let naive = Engine::new().execute(&compiled, &catalog).unwrap();
                let indexed = run_indexed(&Engine::new(), &compiled, &catalog, &indexes);
                let mut naive_rows = naive.rows().to_vec();
                let mut indexed_rows = indexed.rows().to_vec();
                naive_rows.sort_unstable();
                indexed_rows.sort_unstable();
                assert_eq!(
                    naive_rows, indexed_rows,
                    "indexed vs naive: seed {seed}, {sql}, {algo:?}"
                );
                assert_eq!(
                    indexed_rows, oracle,
                    "indexed vs oracle: seed {seed}, {sql}, {algo:?}"
                );
            }
        }
    }
}

/// Per join hint: the operator it records without and with indexes, when
/// the condition carries an equality conjunct and when it is a pure
/// overlap (no equality to hash on: `Hash` falls back to the nested loop,
/// `Auto` sweeps only over indexes).
const JOIN_ROUTES: [(JoinAlgo, [&str; 2], [&str; 2]); 4] = [
    (
        JoinAlgo::NestedLoop,
        ["NestedLoopJoin"; 2],
        ["NestedLoopJoin"; 2],
    ),
    (JoinAlgo::Hash, ["HashJoin"; 2], ["NestedLoopJoin"; 2]),
    (
        JoinAlgo::Sweep,
        ["SweepJoin", "IndexSweepJoin"],
        ["SweepJoin", "IndexSweepJoin"],
    ),
    (
        JoinAlgo::Auto,
        ["HashJoin"; 2],
        ["NestedLoopJoin", "IndexSweepJoin"],
    ),
];

/// Runs the join `plan_for(hint)` builds under every hint, indexed and
/// not, asserting that each records its route from [`JOIN_ROUTES`] and
/// returns the same bag; returns that bag, sorted.
fn join_routes_agree(
    catalog: &Catalog,
    plan_for: impl Fn(JoinAlgo) -> Plan,
    equi: bool,
    label: &str,
) -> Vec<Row> {
    const JOIN_OPS: [&str; 4] = ["NestedLoopJoin", "HashJoin", "SweepJoin", "IndexSweepJoin"];
    let indexes = IndexCatalog::build_all(catalog);
    let mut reference: Option<Vec<Row>> = None;
    for (algo, equi_ops, overlap_ops) in JOIN_ROUTES {
        let plan = plan_for(algo);
        let ops = if equi { equi_ops } else { overlap_ops };
        for (use_index, want) in [false, true].into_iter().zip(ops) {
            let (out, stats) = run_with_stats(
                &Engine::new(),
                &plan,
                catalog,
                use_index.then_some(&indexes),
            );
            let recorded: Vec<&str> = JOIN_OPS
                .into_iter()
                .filter(|op| stats.get(op).is_some())
                .collect();
            let route = format!("{label}, {algo:?}, use_index={use_index}");
            assert_eq!(recorded, [want], "{route}");
            let mut rows = out.rows().to_vec();
            rows.sort_unstable();
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(want, &rows, "{route}"),
            }
        }
    }
    reference.unwrap()
}

/// Every join hint, indexed or not, produces the same bag on a raw
/// interval-overlap join (no rewriting involved) over the random catalogs
/// (equality plus overlap, the rewriter's pattern), and records the route
/// it took under its established `ExecStats` name.
#[test]
fn join_algos_bag_equivalent() {
    for seed in 0..6 {
        let (catalog, _domain) = random_catalog(seed);
        let schema = catalog.get("r").unwrap().schema().clone();
        let arity = schema.arity();
        let (lts, lte) = (arity - 2, arity - 1);
        let (rts_g, rte_g) = (2 * arity - 2, 2 * arity - 1);
        let cond = Expr::col(1)
            .eq(Expr::col(arity + 1))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));
        let plan_for = |algo| {
            Plan::scan("r", schema.clone()).join_with(
                Plan::scan("s", schema.clone()),
                cond.clone(),
                algo,
            )
        };
        let rows = join_routes_agree(&catalog, plan_for, true, &format!("seed {seed}"));
        assert!(
            !rows.is_empty(),
            "seed {seed}: join produced no rows — the test would be vacuous"
        );
    }
}

/// Sweep adversaries (pure overlap): whole-domain spans, duplicates,
/// straddlers, shared and adjacent endpoints, clusters across gaps, an
/// empty side. Every join hint, indexed or not, returns the same bag and
/// records its route; the `SEQ VT` join under every hint, indexed or not,
/// also equals the point-wise oracle. (The name predates the removal of
/// the slab-parallel sweep, whose slab boundaries these inputs first
/// attacked; they now exercise the one sequential sweep.)
#[test]
fn parallel_sweep_survives_slab_boundary_adversaries() {
    type Intervals = Vec<(i64, i64)>;
    let adversaries: Vec<(&str, Intervals, Intervals)> = vec![
        (
            "all rows span the whole domain (2 distinct endpoints)",
            vec![(0, 100); 8],
            vec![(0, 100); 5],
        ),
        (
            "duplicates plus straddlers at every scale",
            vec![
                (0, 100),
                (0, 100),
                (10, 90),
                (10, 90),
                (49, 51),
                (49, 51),
                (0, 1),
                (99, 100),
                (25, 75),
            ],
            vec![
                (0, 100),
                (50, 51),
                (50, 51),
                (20, 80),
                (20, 80),
                (0, 50),
                (50, 100),
            ],
        ),
        (
            "clusters with huge gaps",
            vec![(0, 3), (1, 4), (2, 5), (1_000, 1_003), (1_001, 1_004)],
            vec![(2, 4), (1_000, 1_001), (1_002, 1_005), (500, 600)],
        ),
        ("one side empty", vec![(0, 10), (5, 15)], vec![]),
        (
            "single shared endpoint pair, maximal duplication",
            vec![(7, 8); 6],
            vec![(7, 8); 7],
        ),
        (
            "adjacent endpoints: one side ends where the other begins",
            vec![(0, 5), (5, 10), (10, 15)],
            vec![(5, 10), (0, 5), (15, 20)],
        ),
    ];
    let domain = TimeDomain::new(0, 1_010);
    for (name, r_rows, s_rows) in adversaries {
        let mut catalog = Catalog::new();
        catalog.register("r", interval_table(&r_rows));
        catalog.register("s", interval_table(&s_rows));
        join_routes_agree(
            &catalog,
            |algo| overlap_join_plan(&catalog, algo),
            false,
            name,
        );

        let sql = "SEQ VT (SELECT r.id, s.id AS sid FROM r, s)";
        let bound = bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap();
        let BoundStatement::Snapshot { plan, .. } = &bound else {
            panic!()
        };
        let oracle = PointwiseOracle::new(domain)
            .eval_rows(plan, &catalog)
            .unwrap();
        let indexes = IndexCatalog::build_all(&catalog);
        for algo in JOIN_ALGOS {
            let options = RewriteOptions {
                temporal_join_algo: algo,
                ..RewriteOptions::default()
            };
            let compiled = SnapshotCompiler::with_options(domain, options)
                .compile_statement(&bound, &catalog)
                .unwrap();
            for use_index in [false, true] {
                let (out, _) = run_with_stats(
                    &Engine::new(),
                    &compiled,
                    &catalog,
                    use_index.then_some(&indexes),
                );
                let mut rows = out.rows().to_vec();
                rows.sort_unstable();
                assert_eq!(rows, oracle, "{name}: {algo:?}, use_index={use_index}");
            }
        }
    }
}

/// A grouped or global `SEQ VT` aggregate over a join reads the join's
/// matched pairs on every route: each hint, indexed and not, returns row for row what `temporal_aggregate` returns over the
/// rows the naive engine builds for the join (and the oracle's encoding),
/// and the join still reports as one `Join` node of that many rows under
/// its route's name.
#[test]
fn aggregate_over_a_join_matches_the_aggregate_over_its_rows_on_every_route() {
    const SQL: [&str; 4] = [
        "SEQ VT (SELECT r.s0, count(*) AS c, sum(s.i0) AS total FROM r JOIN s ON r.i0 = s.i0 \
         GROUP BY r.s0)",
        "SEQ VT (SELECT count(*) AS c, max(s.s0) AS hi, avg(r.i0) AS mean \
         FROM r JOIN s ON r.s0 = s.s0)",
        // No equality: the sweep is Auto's choice over indexes.
        "SEQ VT (SELECT r.i0, min(s.s0) AS lo FROM r JOIN s ON r.i0 < s.i0 GROUP BY r.i0)",
        "SEQ VT (SELECT x.k, sum(x.v) AS total FROM \
         (SELECT r.i0 + s.i0 AS k, r.i0 * 2 AS v FROM r JOIN s ON r.s0 = s.s0) x GROUP BY x.k)",
    ];
    const ROUTES: [&str; 4] = ["NestedLoopJoin", "HashJoin", "SweepJoin", "IndexSweepJoin"];
    for seed in 0..4 {
        let (catalog, domain) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        for sql in SQL {
            let bound = bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap();
            let BoundStatement::Snapshot { plan: snapshot, .. } = &bound else {
                panic!()
            };
            let oracle = PointwiseOracle::new(domain)
                .eval_rows(snapshot, &catalog)
                .unwrap();
            for algo in JOIN_ALGOS {
                let options = RewriteOptions {
                    temporal_join_algo: algo,
                    ..RewriteOptions::default()
                };
                let plan = SnapshotCompiler::with_options(domain, options)
                    .compile_statement(&bound, &catalog)
                    .unwrap();
                let PlanNode::TemporalAggregate {
                    input,
                    group_cols,
                    aggs,
                    add_gap_neutral,
                    domain,
                } = &plan.node
                else {
                    panic!("{plan}")
                };
                assert!(matches!(input.node, PlanNode::Join { .. }), "{plan}");
                let joined = Engine::new().execute(input, &catalog).unwrap();
                let types = temporal::agg_arg_types(aggs, &input.schema).unwrap();
                let want = temporal::temporal_aggregate(
                    joined.rows(),
                    input.schema.arity(),
                    group_cols,
                    aggs,
                    &types,
                    *add_gap_neutral,
                    *domain,
                    never,
                )
                .unwrap();
                let mut sorted = want.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, oracle, "seed {seed}, {sql}");
                for use_index in [false, true] {
                    let route = format!("seed {seed}, {sql}, {algo:?}, use_index={use_index}");
                    let (out, stats) = run_with_stats(
                        &Engine::new(),
                        &plan,
                        &catalog,
                        use_index.then_some(&indexes),
                    );
                    assert_eq!(out.rows(), &want[..], "{route}");
                    let pairs = joined.len() as u64;
                    assert_eq!(stats.get("Join"), Some((1, pairs)), "{route}");
                    let taken: Vec<_> = ROUTES.iter().filter_map(|op| stats.get(op)).collect();
                    assert_eq!(taken, [(1, pairs)], "{route}: {stats:?}");
                }
            }
        }
    }
}

/// The indexed timeslice and time range equal the naive route's linear
/// filters (`Engine::execute`) at every point of the domain, and each
/// route is recorded under its established `ExecStats` name.
#[test]
fn timeslice_routes_agree_across_domain() {
    for seed in 0..4 {
        let (catalog, domain) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        let schema = catalog.get("r").unwrap().schema().clone();
        let mut indexed_hits = 0u64;
        for t in domain.points() {
            let at = t.value();
            let plan = Plan::scan("r", schema.clone()).timeslice(at);
            let (linear, linear_stats) = run_with_stats(&Engine::new(), &plan, &catalog, None);
            assert!(linear_stats.get("NaiveTimeslice").is_some());
            assert!(linear_stats.get("IndexTimeslice").is_none());
            let (indexed, stats) = run_with_stats(&Engine::new(), &plan, &catalog, Some(&indexes));
            assert_eq!(linear, indexed, "seed {seed}, timeslice at {at}");
            if stats.get("IndexTimeslice").is_some() {
                indexed_hits += 1;
            }
            assert!(stats.get("NaiveTimeslice").is_none());

            let plan = Plan::scan("r", schema.clone()).time_range(at, at + 5);
            let (range_linear, linear_stats) =
                run_with_stats(&Engine::new(), &plan, &catalog, None);
            let (range_indexed, stats) =
                run_with_stats(&Engine::new(), &plan, &catalog, Some(&indexes));
            assert_eq!(range_linear, range_indexed, "seed {seed}, range at {at}");
            assert!(linear_stats.get("NaiveTimeRange").is_some());
            assert!(linear_stats.get("IndexTimeRange").is_none());
            assert!(stats.get("IndexTimeRange").is_some());
            assert!(stats.get("NaiveTimeRange").is_none());
        }
        assert_eq!(
            indexed_hits,
            domain.len(),
            "every timeslice must take the interval-tree route"
        );
    }
}

/// Point-in-time compilation (timeslice pushed to the leaves, Theorem 6.3)
/// equals slicing the oracle's full temporal result.
#[test]
fn compile_timeslice_matches_oracle_snapshots() {
    for seed in 0..3 {
        let (catalog, domain) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        for sql in QUERIES {
            let stmt = parse_statement(sql).unwrap();
            let bound = bind_statement(&stmt, &catalog).unwrap();
            let BoundStatement::Snapshot { plan, .. } = &bound else {
                panic!()
            };
            let oracle = PointwiseOracle::new(domain)
                .eval_rows(plan, &catalog)
                .unwrap();
            let compiler = SnapshotCompiler::new(domain);
            for at in [0i64, 7, 15, 29] {
                let point_plan = compiler.compile_timeslice(plan, &catalog, at).unwrap();
                let out = run_indexed(&Engine::new(), &point_plan, &catalog, &indexes);
                let mut got = out.rows().to_vec();
                got.sort_unstable();
                // Slice the oracle's period encoding at `at`.
                let arity = out.schema().arity() + 2;
                let mut want: Vec<Row> = oracle
                    .iter()
                    .filter(|r| r.int(arity - 2) <= at && at < r.int(arity - 1))
                    .map(|r| Row::new(r.values()[..arity - 2].to_vec()))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}, {sql}, at {at}");
            }
        }
    }
}

/// A coalesce over an indexed scan runs the one sorted-pass kernel and
/// equals the naive route row for row on random tables.
#[test]
fn indexed_coalesce_matches_naive() {
    for seed in 0..6 {
        let (catalog, _) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        for table in ["r", "s"] {
            let schema = catalog.get(table).unwrap().schema().clone();
            let plan = Plan::scan(table, schema).coalesce();
            let naive = Engine::new().execute(&plan, &catalog).unwrap();
            let (indexed, stats) = run_with_stats(&Engine::new(), &plan, &catalog, Some(&indexes));
            assert_eq!(naive, indexed, "seed {seed}, table {table}");
            assert_eq!(stats.get("Coalesce"), Some((1, naive.len() as u64)));
        }
    }
}

/// The indexed route survives the full Employee workload at a small scale,
/// agreeing with the hash route query-by-query, including under the
/// `Sweep` plan hint (sort-on-the-fly sweep) without any index.
#[test]
fn employee_workload_indexed_matches_hash() {
    let catalog = snapshot_semantics::datagen::employees::generate(0.0005, 42);
    let domain = snapshot_semantics::datagen::employees::domain();
    let indexes = IndexCatalog::build_all(&catalog);
    for (name, sql) in snapshot_semantics::datagen::employees::queries() {
        let stmt = parse_statement(sql).unwrap();
        let bound = bind_statement(&stmt, &catalog).unwrap();
        let compiler = SnapshotCompiler::new(domain);
        let plan = compiler.compile_statement(&bound, &catalog).unwrap();
        let hash = Engine::new()
            .execute(&plan, &catalog)
            .unwrap()
            .canonicalized();
        let indexed = run_indexed(&Engine::new(), &plan, &catalog, &indexes).canonicalized();
        assert_eq!(hash, indexed, "{name}: hash vs indexed");
        let sweep_plan = SnapshotCompiler::with_options(
            domain,
            RewriteOptions {
                temporal_join_algo: JoinAlgo::Sweep,
                ..RewriteOptions::default()
            },
        )
        .compile_statement(&bound, &catalog)
        .unwrap();
        let sweep = Engine::new()
            .execute(&sweep_plan, &catalog)
            .unwrap()
            .canonicalized();
        assert_eq!(hash, sweep, "{name}: hash vs sweep hint");
    }
}

/// `INT = DOUBLE` equi-joins compare under SQL equality on every route.
/// The hash route used to key its table on `Vec<Value>`, whose `Eq`/`Hash`
/// is the *storage* order (type rank first), so `2 = 2.0` never met; the
/// table is a candidate filter now and the condition the only judge.
#[test]
fn mixed_numeric_equi_join_keys_agree_on_every_route() {
    use snapshot_semantics::storage::Value;
    const BIG: i64 = 9_007_199_254_740_993; // 2^53 + 1: rounds to 2^53 as f64
    let period = |name: &str, ty| {
        let schema = Schema::of(&[(name, ty), ("ts", SqlType::Int), ("te", SqlType::Int)]);
        Table::with_period(schema, 1, 2)
    };
    let mut a = period("x", SqlType::Int);
    for x in [Value::Int(2), Value::Int(3), Value::Int(BIG), Value::Null] {
        a.push(Row::new(vec![x, Value::Int(0), Value::Int(10)]));
    }
    let mut b = period("y", SqlType::Double);
    for y in [2.0, 2.5, 9_007_199_254_740_992.0, f64::NAN, -0.0] {
        b.push(row![y, 5, 15]);
    }
    b.push(Row::new(vec![Value::Null, Value::Int(5), Value::Int(15)]));
    a.push(row![0, 2, 8]); // meets -0.0
    let mut catalog = Catalog::new();
    catalog.register("a", a);
    catalog.register("b", b);
    let indexes = IndexCatalog::build_all(&catalog);
    let domain = TimeDomain::new(0, 20);
    // `cmp_int_double` is exact: 2^53 + 1 is not 2^53; NULL and NaN meet nothing.
    let want = vec![row![0, -0.0, 5, 8], row![2, 2.0, 5, 10]];

    for from in ["a JOIN b ON a.x = b.y", "b JOIN a ON b.y = a.x"] {
        let sql = format!("SEQ VT (SELECT a.x, b.y FROM {from})");
        let bound = bind_statement(&parse_statement(&sql).unwrap(), &catalog).unwrap();
        let BoundStatement::Snapshot { plan, .. } = &bound else {
            panic!()
        };
        let oracle = PointwiseOracle::new(domain)
            .eval_rows(plan, &catalog)
            .unwrap();
        assert_eq!(oracle, want, "oracle: {sql}");
        for algo in JOIN_ALGOS {
            let options = RewriteOptions {
                temporal_join_algo: algo,
                ..RewriteOptions::default()
            };
            let compiled = SnapshotCompiler::with_options(domain, options)
                .compile_statement(&bound, &catalog)
                .unwrap();
            for use_index in [false, true] {
                let (out, _) = run_with_stats(
                    &Engine::new(),
                    &compiled,
                    &catalog,
                    use_index.then_some(&indexes),
                );
                let got = out.canonicalized();
                assert_eq!(got.rows(), oracle, "{sql}, {algo:?}, indexed={use_index}");
            }
        }
    }

    // The non-sequenced join (periods are plain columns, `Auto` hashes)
    // agrees with the same predicate spelled so that only a nested loop
    // can run it.
    let run = |on: &str| {
        let sql = format!("SELECT a.x, b.y FROM a JOIN b ON {on}");
        let bound = bind_statement(&parse_statement(&sql).unwrap(), &catalog).unwrap();
        let plan = SnapshotCompiler::new(domain)
            .compile_statement(&bound, &catalog)
            .unwrap();
        let (out, stats) = run_with_stats(&Engine::new(), &plan, &catalog, None);
        (out.canonicalized().rows().to_vec(), stats)
    };
    let (hashed, stats) = run("a.x = b.y");
    assert!(stats.get("HashJoin").is_some());
    let (looped, stats) = run("a.x <= b.y AND a.x >= b.y");
    assert!(stats.get("NestedLoopJoin").is_some());
    assert_eq!(hashed, vec![row![0, -0.0], row![2, 2.0]]);
    assert_eq!(hashed, looped);
}

/// A period table over explicit `(id, ts, te)` rows (period trailing, the
/// engine's temporal-operator convention).
fn interval_table(rows: &[(i64, i64)]) -> Table {
    let schema = Schema::of(&[
        ("id", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut t = Table::with_period(schema, 1, 2);
    for (k, &(b, e)) in rows.iter().enumerate() {
        t.push(row![k as i64, b, e]);
    }
    t
}

/// The rewriter's overlap pattern over two scans of 3-column tables.
fn overlap_join_plan(catalog: &Catalog, algo: JoinAlgo) -> Plan {
    let schema = catalog.get("r").unwrap().schema().clone();
    let s_schema = catalog.get("s").unwrap().schema().clone();
    let (lts, lte) = (1, 2);
    let (rts_g, rte_g) = (4, 5);
    let cond = Expr::col(lts)
        .lt(Expr::col(rte_g))
        .and(Expr::col(rts_g).lt(Expr::col(lte)));
    Plan::scan("r", schema).join_with(Plan::scan("s", s_schema), cond, algo)
}

/// A period table `r (k INT, x DOUBLE, name TEXT, ts, te)` for the lending
/// routes: NULLs in every data column, integral doubles beside the ints (so
/// `k = x` meets 2 and 2.0), and every fifth row a verbatim duplicate of an
/// earlier one.
fn lending_catalog(seed: u64) -> (Catalog, TimeDomain) {
    let domain = TimeDomain::new(0, 40);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |n: u64| {
        // xorshift64: deterministic per seed, no dependency.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let schema = Schema::of(&[
        ("k", SqlType::Int),
        ("x", SqlType::Double),
        ("name", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut table = Table::with_period(schema, 3, 4);
    let mut rows: Vec<Row> = Vec::new();
    for i in 0..80 {
        if i % 5 == 4 {
            let dup = rows[next(rows.len() as u64) as usize].clone();
            rows.push(dup);
            continue;
        }
        let k = match next(5) {
            0 => Value::Null,
            v => Value::Int(v as i64),
        };
        let x = match next(6) {
            0 => Value::Null,
            v if v % 2 == 0 => Value::Double(v as f64 / 2.0),
            v => Value::Double(v as f64 + 0.5),
        };
        let name = match next(5) {
            0 => Value::Null,
            v => Value::str(["ann", "bob", "abe", "cy"][v as usize - 1]),
        };
        let ts = next(36) as i64;
        let te = ts + 1 + next(10) as i64;
        rows.push(Row::new(vec![k, x, name, Value::Int(ts), Value::Int(te)]));
    }
    table.extend(rows);
    let mut catalog = Catalog::new();
    catalog.register("r", table);
    (catalog, domain)
}

/// `AS OF` / `BETWEEN` reads whose index stab lends its rows to the
/// `Filter` and `Project` above it equal the naive route row for row and
/// the point-wise oracle's snapshots, for `WHERE`
/// predicates of every shape (`=`, `<>`, `LIKE`, `IS NULL`, `AND`/`OR`,
/// mixed `INT`/`DOUBLE`, always false, always true) under bare and
/// computed projections; and the stab is what `ExecStats` reports.
#[test]
fn lent_stab_routes_match_naive_and_oracle() {
    const PREDICATES: &[&str] = &[
        "k = 2",
        "name <> 'bob'",
        "name LIKE 'a%'",
        "x IS NULL",
        "k = 1 AND x > 1.5",
        "k = 3 OR name = 'cy'",
        "k = x",
        "1 = 0",
        "1 = 1",
    ];
    const PROJECTIONS: &[&str] = &["k, name", "k + 1 AS k1, x * 2 AS x2, name"];
    for seed in 0..3 {
        let (catalog, domain) = lending_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        let periods: Vec<(i64, i64)> = catalog
            .get("r")
            .unwrap()
            .rows()
            .iter()
            .map(|r| (r.int(3), r.int(4)))
            .collect();
        let compiler = SnapshotCompiler::new(domain);
        for predicate in PREDICATES {
            for projection in PROJECTIONS {
                let query = format!("(SELECT {projection} FROM r WHERE {predicate})");
                let full = bind_statement(
                    &parse_statement(&format!("SEQ VT {query}")).unwrap(),
                    &catalog,
                )
                .unwrap();
                let BoundStatement::Snapshot { plan, .. } = &full else {
                    panic!()
                };
                let oracle = PointwiseOracle::new(domain)
                    .eval_rows(plan, &catalog)
                    .unwrap();
                let arity = plan.schema.arity();
                for (t1, t2) in [(0, 0), (9, 9), (17, 23), (30, 39), (5, 38)] {
                    let (window, op, stabbed, mut want) = if t1 == t2 {
                        let want: Vec<Row> = oracle
                            .iter()
                            .filter(|r| r.int(arity) <= t1 && t1 < r.int(arity + 1))
                            .map(|r| Row::new(r.values()[..arity].to_vec()))
                            .collect();
                        let stabbed = periods.iter().filter(|&&(b, e)| b <= t1 && t1 < e).count();
                        (format!("AS OF {t1}"), "IndexTimeslice", stabbed, want)
                    } else {
                        let want: Vec<Row> = oracle
                            .iter()
                            .filter(|r| r.int(arity) <= t2 && t1 < r.int(arity + 1))
                            .map(|r| {
                                let mut v = r.values()[..arity].to_vec();
                                v.push(Value::Int(r.int(arity).max(t1)));
                                v.push(Value::Int(r.int(arity + 1).min(t2 + 1)));
                                Row::new(v)
                            })
                            .collect();
                        let stabbed = periods.iter().filter(|&&(b, e)| b <= t2 && t1 < e).count();
                        (
                            format!("BETWEEN {t1} AND {t2}"),
                            "IndexTimeRange",
                            stabbed,
                            want,
                        )
                    };
                    want.sort_unstable();
                    let sql = format!("SEQ VT {window} {query}");
                    let bound = bind_statement(&parse_statement(&sql).unwrap(), &catalog).unwrap();
                    let compiled = compiler.compile_statement(&bound, &catalog).unwrap();
                    let naive = Engine::new().execute(&compiled, &catalog).unwrap();
                    let (indexed, stats) =
                        run_with_stats(&Engine::new(), &compiled, &catalog, Some(&indexes));
                    assert_eq!(
                        indexed.rows(),
                        naive.rows(),
                        "indexed vs naive: seed {seed}, {sql}"
                    );
                    assert_eq!(
                        stats.get(op),
                        Some((1, stabbed as u64)),
                        "seed {seed}, {sql}: {stats:?}"
                    );
                    assert_eq!(stats.get("NaiveTimeslice"), None, "{sql}");
                    assert_eq!(stats.get("NaiveTimeRange"), None, "{sql}");
                    let mut got = naive.rows().to_vec();
                    got.sort_unstable();
                    assert_eq!(got, want, "vs oracle: seed {seed}, {sql}");
                }
            }
        }
    }
}

// ---- edit-proportional index repair ----------------------------------------

/// One mutation of the table under repair.
#[derive(Debug, Clone)]
enum Step {
    /// Appends `(k, begin, length)` rows.
    Append(Vec<(i64, i64, i64)>),
    /// Rewrites `field` (0 payload, 1 begin, 2 end) of the rows at the
    /// given positions (taken modulo the length), in place.
    Update(Vec<usize>, usize, i64),
    /// Deletes the row at the position (modulo the length).
    Delete(usize),
    Canonicalize,
    /// Sets a clone of the table aside.
    Fork,
    /// Continues with the clone set aside; the table diverged since goes
    /// aside instead.
    Swap,
}

/// A table being written, beside the model of its write record — what
/// `Table::edited_since` should report: `(version copied from, length
/// then, positions below that length rewritten since)`; `None` once
/// positions moved.
struct Working {
    table: Table,
    written: Option<(u64, usize, std::collections::BTreeSet<usize>)>,
}

impl Working {
    /// A copy of `table`, as a commit's first write takes one
    /// (`Catalog::get_mut` → `Arc::make_mut`).
    fn of(table: &Table) -> Working {
        Working {
            table: table.clone(),
            written: Some((table.version(), table.len(), Default::default())),
        }
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    let append =
        || proptest::collection::vec((0i64..4, 0i64..40, 1i64..10), 1..4).prop_map(Step::Append);
    // Positions from a narrow range, so the same row is often rewritten
    // twice, in one step or across steps.
    let update = || {
        (
            proptest::collection::vec(0usize..12, 1..3),
            0usize..3,
            0i64..48,
        )
            .prop_map(|(at, field, value)| Step::Update(at, field, value))
    };
    prop_oneof![
        append(),
        append(),
        append(),
        update(),
        update(),
        update(),
        update(),
        (0usize..64).prop_map(Step::Delete),
        Just(Step::Canonicalize),
        Just(Step::Fork),
        Just(Step::Swap),
    ]
}

fn apply(step: &Step, working: &mut Working, aside: &mut Option<Working>) {
    let period_row = |k: i64, b: i64, e: i64| row![k, b, e];
    let table = &mut working.table;
    match step {
        Step::Append(rows) => table.extend(rows.iter().map(|&(k, b, l)| period_row(k, b, b + l))),
        Step::Update(at, field, value) => {
            let len = table.len().max(1);
            let at: Vec<usize> = at.iter().map(|p| p % len).collect();
            let mut pos = 0;
            table
                .update_where(
                    |_| {
                        pos += 1;
                        at.contains(&(pos - 1))
                    },
                    |r| {
                        let (k, b, e) = (r.int(0), r.int(1), r.int(2));
                        Ok(match field {
                            0 => period_row(*value, b, e),
                            1 => period_row(k, (e - 1 - value % 6).max(0).min(e - 1), e),
                            _ => period_row(k, b, b + 1 + value % 9),
                        })
                    },
                )
                .unwrap();
            // Positions appended since the copy are not replaced ones.
            if let Some((_, len, replaced)) = &mut working.written {
                replaced.extend(at.iter().filter(|&p| p < len));
            }
        }
        Step::Delete(at) => {
            let target = at % table.len().max(1);
            let mut pos = 0;
            let removed = table.delete_where(|_| {
                pos += 1;
                pos - 1 == target
            });
            if removed > 0 {
                working.written = None;
            }
        }
        Step::Canonicalize => {
            table.canonicalize();
            working.written = None;
        }
        Step::Fork => *aside = Some(Working::of(table)),
        Step::Swap => {
            if let Some(other) = aside.as_mut() {
                std::mem::swap(working, other);
            }
        }
    }
}

/// What the registry should hold for the table: the version it covers,
/// the length its base tree was built over, and the positions in its tail.
struct Expected {
    version: u64,
    base_len: usize,
    tail: std::collections::BTreeSet<usize>,
}

impl Expected {
    fn built(table: &Table) -> Self {
        Expected {
            version: table.version(),
            base_len: table.len(),
            tail: Default::default(),
        }
    }

    /// The repair `ensure` should make when `working` is published:
    /// `Some(true)` an edit to the base, `Some(false)` a build or
    /// re-base, `None` nothing (still fresh). An edit needs a copy of
    /// the indexed version that moved no position, and a tail within an
    /// eighth of the base.
    fn repair(&mut self, working: &Working) -> Option<bool> {
        let table = &working.table;
        if self.version == table.version() {
            return None;
        }
        let copied = working.written.as_ref().filter(|w| w.0 == self.version);
        let Some((_, len, replaced)) = copied else {
            *self = Expected::built(table);
            return Some(false);
        };
        self.tail.extend(replaced);
        self.tail.extend(*len..table.len());
        if self.tail.len() * 8 > self.base_len {
            *self = Expected::built(table);
            return Some(false);
        }
        self.version = table.version();
        Some(true)
    }
}

/// Stabs at every endpoint and its neighbours, overlap probes from every
/// endpoint, and the begin order: `index` against a fresh build and a scan.
fn assert_repaired_like_a_build(index: &TableIndex, table: &Table) {
    let fresh = TableIndex::build(table).unwrap();
    assert!(index.is_fresh(table));
    assert!(
        index
            .events()
            .begin_order()
            .eq(fresh.events().begin_order()),
        "begin order"
    );
    let rows = table.rows();
    let scan = |hit: &dyn Fn(i64, i64) -> bool| -> Vec<usize> {
        (0..rows.len())
            .filter(|&i| hit(rows[i].int(1), rows[i].int(2)))
            .collect()
    };
    let mut points: Vec<i64> = rows
        .iter()
        .flat_map(|r| [r.int(1), r.int(2)])
        .flat_map(|p| [p - 1, p, p + 1])
        .collect();
    points.sort_unstable();
    points.dedup();
    for &t in &points {
        let stab = index.stab(t);
        assert_eq!(stab, fresh.stab(t), "stab at {t} vs build");
        assert_eq!(stab, scan(&|b, e| b <= t && t < e), "stab at {t} vs scan");
        for w in [1, 4, 13] {
            let overlap = index.overlapping(t, t + w);
            assert_eq!(overlap, fresh.overlapping(t, t + w), "[{t}, +{w}) vs build");
            assert_eq!(
                overlap,
                scan(&|b, e| b < t + w && t < e),
                "[{t}, +{w}) vs scan"
            );
        }
    }
    assert_eq!(
        index.timeslice_rows(table, 7),
        fresh.timeslice_rows(table, 7)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However a table is appended to, updated in place, deleted from,
    /// sorted or forked, in commits that each write a copy of the
    /// committed table, the index `IndexCatalog::ensure` repairs at each
    /// commit answers exactly as a fresh build and a scan, and the
    /// maintenance counters split edits from builds and re-bases as the
    /// copy's write record and the tail-size rule say.
    #[test]
    fn a_repaired_index_answers_exactly_as_a_fresh_build(
        initial in proptest::collection::vec((0i64..4, 0i64..40, 1i64..10), 8..64),
        steps in proptest::collection::vec((arb_step(), 0u8..4), 1..48),
    ) {
        repairs_answer_like_builds(&initial, &steps, false);
    }

    /// The same over tables of a few sealed blocks, sealed again at every
    /// commit as a shared database seals what it publishes: the block
    /// layout changes no row id, so no repair either.
    #[test]
    fn a_repaired_index_of_a_sealed_table_answers_exactly_as_a_fresh_build(
        initial in proptest::collection::vec((0i64..4, 0i64..40, 1i64..10), 300..700),
        steps in proptest::collection::vec((arb_step(), 0u8..4), 1..24),
    ) {
        repairs_answer_like_builds(&initial, &steps, true);
    }
}

/// Commits `steps` to a table of `initial` rows (a step with a nonzero
/// flag leaves its copy open for the next step), sealing each committed
/// version when `seal` is set; after each commit, the index
/// `IndexCatalog::ensure` repairs answers like a build, and the counters
/// split edits from builds as [`Expected::repair`] says.
fn repairs_answer_like_builds(initial: &[(i64, i64, i64)], steps: &[(Step, u8)], seal: bool) {
    let mut committed = Table::with_period(
        Schema::of(&[
            ("k", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        1,
        2,
    );
    committed.extend(initial.iter().map(|&(k, b, l)| row![k, b, b + l]));
    if seal {
        committed.seal();
    }
    let metrics = snapshot_obs::MetricsRegistry::new();
    let mut reg = IndexCatalog::recording_into(&metrics);
    reg.ensure("t", &committed);
    let mut expected = Expected::built(&committed);
    let mut counted = MaintenanceStats {
        full_builds: 1,
        incremental_builds: 0,
    };
    let mut working = Working::of(&committed);
    let mut aside = None;
    for (i, (step, commit)) in steps.iter().enumerate() {
        apply(step, &mut working, &mut aside);
        if *commit != 0 && i + 1 < steps.len() {
            continue;
        }
        match expected.repair(&working) {
            Some(true) => counted.incremental_builds += 1,
            Some(false) => counted.full_builds += 1,
            None => {}
        }
        committed = working.table;
        if seal {
            committed.seal();
        }
        let index = reg.ensure("t", &committed).unwrap();
        assert_repaired_like_a_build(index, &committed);
        assert_eq!(
            MaintenanceStats::read(&metrics),
            counted,
            "after {:?}",
            step
        );
        working = Working::of(&committed);
    }
}
