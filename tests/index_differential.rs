//! Differential testing of the temporal index subsystem: every indexed
//! route (sweep join, interval-tree timeslice, coalescing accelerator) must
//! be bag-equivalent to the naive engine paths and to the point-wise
//! oracle on randomized databases and the datagen workloads.

use snapshot_semantics::algebra::{Expr, JoinAlgo, Plan, TimesliceAlgo};
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::datagen::random::{random_period_table, RandomTableSpec};
use snapshot_semantics::engine::{Engine, ExecStats, NodeStats};
use snapshot_semantics::index::IndexCatalog;
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{row, Catalog, Row, Schema, SqlType, Table};
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
const JOIN_ALGOS: [JoinAlgo; 6] = [
    JoinAlgo::Auto,
    JoinAlgo::NestedLoop,
    JoinAlgo::Hash,
    JoinAlgo::MergeInterval,
    JoinAlgo::IndexSweep,
    JoinAlgo::ParallelSweep,
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

/// Every join algorithm, indexed or not, produces the same bag on a raw
/// interval-overlap join (no rewriting involved), and records the route it
/// took under its established `ExecStats` name.
#[test]
fn join_algos_bag_equivalent() {
    for seed in 0..6 {
        let (catalog, _domain) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        let schema = catalog.get("r").unwrap().schema().clone();
        let arity = schema.arity();
        let (lts, lte) = (arity - 2, arity - 1);
        let (rts_g, rte_g) = (2 * arity - 2, 2 * arity - 1);
        // skill-equality plus interval overlap, the rewriter's pattern.
        let cond = Expr::col(1)
            .eq(Expr::col(arity + 1))
            .and(Expr::col(lts).lt(Expr::col(rte_g)))
            .and(Expr::col(rts_g).lt(Expr::col(lte)));

        const JOIN_OPS: [&str; 7] = [
            "NestedLoopJoin",
            "HashJoin",
            "MergeIntervalJoin",
            "SweepJoin",
            "IndexSweepJoin",
            "ParallelSweepJoin",
            "ParallelSweepSlabs",
        ];
        let mut reference: Option<Vec<Row>> = None;
        // Per hint: the operators recorded without and with indexes.
        for (algo, naive_ops, indexed_ops) in [
            (
                JoinAlgo::NestedLoop,
                &["NestedLoopJoin"][..],
                &["NestedLoopJoin"][..],
            ),
            (JoinAlgo::Hash, &["HashJoin"], &["HashJoin"]),
            (
                JoinAlgo::MergeInterval,
                &["MergeIntervalJoin"],
                &["MergeIntervalJoin"],
            ),
            (JoinAlgo::IndexSweep, &["SweepJoin"], &["IndexSweepJoin"]),
            (
                JoinAlgo::ParallelSweep,
                &["ParallelSweepJoin", "ParallelSweepSlabs"],
                &["ParallelSweepJoin", "ParallelSweepSlabs"],
            ),
            // Equality keys present: Auto hashes, indexed or not.
            (JoinAlgo::Auto, &["HashJoin"], &["HashJoin"]),
        ] {
            let plan = Plan::scan("r", schema.clone()).join_with(
                Plan::scan("s", schema.clone()),
                cond.clone(),
                algo,
            );
            for use_index in [false, true] {
                let (out, stats) = run_with_stats(
                    &Engine::new(),
                    &plan,
                    &catalog,
                    use_index.then_some(&indexes),
                );
                let recorded: Vec<&str> = JOIN_OPS
                    .into_iter()
                    .filter(|op| stats.get(op).is_some())
                    .collect();
                let want = if use_index { indexed_ops } else { naive_ops };
                assert_eq!(
                    recorded, want,
                    "seed {seed}, {algo:?}, use_index={use_index}"
                );
                let mut rows = out.rows().to_vec();
                rows.sort_unstable();
                match &reference {
                    None => reference = Some(rows),
                    Some(want) => {
                        assert_eq!(want, &rows, "seed {seed}, {algo:?}, use_index={use_index}")
                    }
                }
            }
        }
        assert!(
            !reference.unwrap().is_empty(),
            "seed {seed}: join produced no rows — the test would be vacuous"
        );
    }
}

/// The indexed timeslice and time range equal their linear filters at every
/// point of the domain, and each route is recorded under its established
/// `ExecStats` name.
#[test]
fn timeslice_routes_agree_across_domain() {
    for seed in 0..4 {
        let (catalog, domain) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        let schema = catalog.get("r").unwrap().schema().clone();
        let mut indexed_hits = 0u64;
        for t in domain.points() {
            let at = t.value();
            let (linear, linear_stats) = run_with_stats(
                &Engine::new(),
                &Plan::scan("r", schema.clone()).timeslice_with(at, TimesliceAlgo::Linear),
                &catalog,
                Some(&indexes),
            );
            assert!(linear_stats.get("NaiveTimeslice").is_some());
            assert!(linear_stats.get("IndexTimeslice").is_none());
            let (indexed, stats) = run_with_stats(
                &Engine::new(),
                &Plan::scan("r", schema.clone()).timeslice(at),
                &catalog,
                Some(&indexes),
            );
            assert_eq!(linear, indexed, "seed {seed}, timeslice at {at}");
            if stats.get("IndexTimeslice").is_some() {
                indexed_hits += 1;
            }
            assert!(stats.get("NaiveTimeslice").is_none());

            let scan = || Plan::scan("r", schema.clone());
            let (range_linear, linear_stats) = run_with_stats(
                &Engine::new(),
                &scan().time_range_with(at, at + 5, TimesliceAlgo::Linear),
                &catalog,
                Some(&indexes),
            );
            let (range_indexed, stats) = run_with_stats(
                &Engine::new(),
                &scan().time_range(at, at + 5),
                &catalog,
                Some(&indexes),
            );
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

/// The coalescing accelerator equals the naive coalesce on random tables.
#[test]
fn indexed_coalesce_matches_naive() {
    for seed in 0..6 {
        let (catalog, _) = random_catalog(seed);
        let indexes = IndexCatalog::build_all(&catalog);
        for table in ["r", "s"] {
            let schema = catalog.get(table).unwrap().schema().clone();
            let plan = Plan::scan(table, schema).coalesce();
            let naive = Engine::new().execute(&plan, &catalog).unwrap();
            let (accel, stats) = run_with_stats(&Engine::new(), &plan, &catalog, Some(&indexes));
            assert_eq!(naive, accel, "seed {seed}, table {table}");
            assert!(stats.get("IndexCoalesce").is_some());
        }
    }
}

/// The indexed route survives the full Employee workload at a small scale,
/// agreeing with the hash route query-by-query, including under the
/// `IndexSweep` plan hint (sort-on-the-fly sweep) without any index.
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
                temporal_join_algo: JoinAlgo::IndexSweep,
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
                    &Engine::with_parallelism(2),
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

// ---------------------------------------------------------------------------
// Parallel sweep join: the slab-partitioned route must be bag-equivalent to
// the sequential sweep and the point-wise oracle at every parallelism level,
// including adversarial slab-boundary data.
// ---------------------------------------------------------------------------

/// Parallelism levels to exercise. `SNAPSHOT_PARALLELISM` pins a single
/// level, which is how CI runs the differential suite once sequentially
/// and once with a worker pool; the default sweeps several.
fn parallelism_levels() -> Vec<usize> {
    match std::env::var("SNAPSHOT_PARALLELISM")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        // Shared convention: 0 = one worker per hardware thread.
        Some(n) => vec![snapshot_semantics::engine::resolve_parallelism(n)],
        None => vec![1, 2, 3, 4, 8],
    }
}

/// The full SQL pipeline with the `ParallelSweep` rewrite hint equals the
/// sequential routes and the point-wise oracle at every parallelism level.
#[test]
fn parallel_pipeline_matches_sequential_and_oracle() {
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
            let compiler = SnapshotCompiler::with_options(
                domain,
                RewriteOptions {
                    temporal_join_algo: JoinAlgo::ParallelSweep,
                    ..RewriteOptions::default()
                },
            );
            let compiled = compiler.compile_statement(&bound, &catalog).unwrap();
            for p in parallelism_levels() {
                let out = run_indexed(&Engine::with_parallelism(p), &compiled, &catalog, &indexes);
                let mut rows = out.rows().to_vec();
                rows.sort_unstable();
                assert_eq!(rows, oracle, "seed {seed}, {sql}, parallelism {p}");
            }
        }
    }
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

/// Slab-boundary adversaries: every interval straddling every cut,
/// duplicates, gaps that leave slabs empty, and more workers than
/// distinct endpoints — the parallel join must stay bag-identical to the
/// sequential sweep and the nested loop on all of them.
#[test]
fn parallel_sweep_survives_slab_boundary_adversaries() {
    type Intervals = Vec<(i64, i64)>;
    let cases: Vec<(&str, Intervals, Intervals)> = vec![
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
            "clusters with huge gaps (empty slabs between)",
            vec![(0, 3), (1, 4), (2, 5), (1_000, 1_003), (1_001, 1_004)],
            vec![(2, 4), (1_000, 1_001), (1_002, 1_005), (500, 600)],
        ),
        ("one side empty", vec![(0, 10), (5, 15)], vec![]),
        (
            "single shared endpoint pair, maximal duplication",
            vec![(7, 8); 6],
            vec![(7, 8); 7],
        ),
    ];
    for (name, r_rows, s_rows) in cases {
        let mut catalog = Catalog::new();
        catalog.register("r", interval_table(&r_rows));
        catalog.register("s", interval_table(&s_rows));
        let indexes = IndexCatalog::build_all(&catalog);
        let reference = {
            let plan = overlap_join_plan(&catalog, JoinAlgo::NestedLoop);
            let mut rows = Engine::new()
                .execute(&plan, &catalog)
                .unwrap()
                .rows()
                .to_vec();
            rows.sort_unstable();
            rows
        };
        let sequential = {
            let plan = overlap_join_plan(&catalog, JoinAlgo::IndexSweep);
            let mut rows = run_indexed(&Engine::new(), &plan, &catalog, &indexes)
                .rows()
                .to_vec();
            rows.sort_unstable();
            rows
        };
        assert_eq!(reference, sequential, "{name}: sequential sweep");
        // P far beyond the distinct endpoint count included.
        for p in [1usize, 2, 3, 4, 8, 16, 64] {
            for use_index in [false, true] {
                let plan = overlap_join_plan(&catalog, JoinAlgo::ParallelSweep);
                let (out, stats) = run_with_stats(
                    &Engine::with_parallelism(p),
                    &plan,
                    &catalog,
                    use_index.then_some(&indexes),
                );
                let mut rows = out.rows().to_vec();
                rows.sort_unstable();
                assert_eq!(
                    reference, rows,
                    "{name}: parallelism {p}, use_index={use_index}"
                );
                assert!(
                    stats.get("ParallelSweepJoin").is_some(),
                    "{name}: parallel route must be taken ({stats:?})"
                );
            }
        }
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random interval multisets and a random worker count,
    /// the parallel sweep join is bag-identical to the sequential sweep.
    #[test]
    fn prop_parallel_join_equals_sequential(
        r_rows in proptest::collection::vec((0i64..40, 1i64..15), 0..50),
        s_rows in proptest::collection::vec((0i64..40, 1i64..15), 0..50),
        parallelism in 1usize..12,
    ) {
        let to_intervals = |v: &[(i64, i64)]| -> Vec<(i64, i64)> {
            v.iter().map(|&(b, len)| (b, b + len)).collect()
        };
        let mut catalog = Catalog::new();
        catalog.register("r", interval_table(&to_intervals(&r_rows)));
        catalog.register("s", interval_table(&to_intervals(&s_rows)));
        let indexes = IndexCatalog::build_all(&catalog);
        let sequential = {
            let plan = overlap_join_plan(&catalog, JoinAlgo::IndexSweep);
            let mut rows = run_indexed(&Engine::new(), &plan, &catalog, &indexes)
                .rows()
                .to_vec();
            rows.sort_unstable();
            rows
        };
        let parallel = {
            let plan = overlap_join_plan(&catalog, JoinAlgo::ParallelSweep);
            let mut rows = run_indexed(&Engine::with_parallelism(parallelism), &plan, &catalog, &indexes)
                .rows()
                .to_vec();
            rows.sort_unstable();
            rows
        };
        prop_assert_eq!(sequential, parallel);
    }
}
