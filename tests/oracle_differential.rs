//! Differential testing: every evaluation route against the point-wise
//! oracle on randomized databases, across all rewrite options.
//!
//! This is the executable form of the paper's correctness claims: the
//! middleware (any option combination, any join strategy) must be
//! snapshot-equivalent to evaluating the query at every time point, while
//! the native baselines must diverge exactly on the AG/BD-prone operators.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::ScratchDir;
use snapshot_semantics::algebra::JoinAlgo;
use snapshot_semantics::baseline::bugs;
use snapshot_semantics::engine::{Engine, ExecStats, NodeStats};
use snapshot_semantics::index::IndexCatalog;
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::server::protocol::write_rowset;
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, BLOCK_ROWS};
use snapshot_semantics::timeline::TimeDomain;
use snapshot_semantics::wal::write_checkpoint;

const QUERIES: &[&str] = &[
    "SEQ VT (SELECT * FROM r)",
    "SEQ VT (SELECT i0 FROM r WHERE i0 <> 0)",
    "SEQ VT (SELECT s0, i0 + 1 AS next FROM r)",
    "SEQ VT (SELECT r.i0, s.s0 FROM r JOIN s ON r.i0 = s.i0)",
    "SEQ VT (SELECT r.i0 FROM r JOIN s ON r.s0 = s.s0 WHERE s.i0 = 2)",
    "SEQ VT (SELECT i0 FROM r UNION ALL SELECT i0 FROM s)",
    "SEQ VT (SELECT i0 FROM r EXCEPT ALL SELECT i0 FROM s)",
    "SEQ VT (SELECT s0 FROM r EXCEPT ALL SELECT s0 FROM s)",
    "SEQ VT (SELECT count(*) AS c FROM r)",
    "SEQ VT (SELECT count(*) AS c FROM r WHERE i0 = 1)",
    "SEQ VT (SELECT i0, count(*) AS c, min(i0) AS lo FROM r GROUP BY i0)",
    "SEQ VT (SELECT s0, sum(i0) AS total, avg(i0) AS mean FROM r GROUP BY s0)",
    "SEQ VT (SELECT max(i0) AS hi FROM r)",
    "SEQ VT (SELECT x.c FROM (SELECT i0, count(*) AS c FROM r GROUP BY i0) x WHERE x.c > 2)",
];

fn random_catalog(seed: u64) -> (Catalog, TimeDomain) {
    random_catalog_of(seed, 40, 3)
}

fn random_catalog_of(seed: u64, rows: usize, cardinality: u64) -> (Catalog, TimeDomain) {
    let domain = TimeDomain::new(0, 30);
    let spec = snapshot_semantics::datagen::random::RandomTableSpec {
        rows,
        int_cols: 1,
        str_cols: 1,
        cardinality,
        domain,
        max_len: 8,
    };
    let mut c = Catalog::new();
    c.register(
        "r",
        snapshot_semantics::datagen::random::random_period_table(&spec, seed),
    );
    c.register(
        "s",
        snapshot_semantics::datagen::random::random_period_table(&spec, seed + 31),
    );
    (c, domain)
}

#[test]
fn middleware_matches_oracle_on_random_databases() {
    for seed in 0..5 {
        let (catalog, domain) = random_catalog(seed);
        for sql in QUERIES {
            let stmt = parse_statement(sql).unwrap();
            let bound = bind_statement(&stmt, &catalog).unwrap();
            let BoundStatement::Snapshot { plan, .. } = &bound else {
                panic!()
            };
            let oracle = snapshot_semantics::baseline::PointwiseOracle::new(domain)
                .eval_rows(plan, &catalog)
                .unwrap();
            for fc in [true, false] {
                for fs in [true, false] {
                    for strategy in [JoinAlgo::Hash, JoinAlgo::Sweep] {
                        let compiler = SnapshotCompiler::with_options(
                            domain,
                            RewriteOptions {
                                final_coalesce_only: fc,
                                fused_split: fs,
                                temporal_join_algo: strategy,
                            },
                        );
                        let compiled = compiler.compile_statement(&bound, &catalog).unwrap();
                        let out = Engine::new().execute(&compiled, &catalog).unwrap();
                        // The optimized pipeline's final coalesce gives the
                        // canonical encoding; compare as snapshot histories
                        // and, when coalescing ran, bit-exactly.
                        assert!(
                            bugs::snapshot_equivalent(
                                out.rows(),
                                &oracle,
                                out.schema().arity(),
                                domain
                            ),
                            "seed {seed}, {sql}, fc={fc}, fs={fs}, {strategy:?}"
                        );
                        let mut sorted = out.rows().to_vec();
                        sorted.sort_unstable();
                        assert_eq!(
                            sorted, oracle,
                            "unique encoding violated: seed {seed}, {sql}, fc={fc}, fs={fs}"
                        );
                    }
                }
            }
        }
    }
}

/// The native baselines are correct on positive relational algebra
/// (selection, projection, join, union) but must diverge from the oracle
/// somewhere on aggregation and difference across random databases.
#[test]
fn baselines_safe_on_ra_plus_buggy_beyond() {
    use snapshot_semantics::baseline::{BaselineKind, NativeEvaluator};
    let ra_plus = &QUERIES[..6];
    let mut agg_diff_divergences = 0;
    for seed in 0..5 {
        let (catalog, domain) = random_catalog(seed);
        for (qi, sql) in QUERIES.iter().enumerate() {
            let stmt = parse_statement(sql).unwrap();
            let bound = bind_statement(&stmt, &catalog).unwrap();
            let BoundStatement::Snapshot { plan, .. } = &bound else {
                panic!()
            };
            let oracle = snapshot_semantics::baseline::PointwiseOracle::new(domain)
                .eval_rows(plan, &catalog)
                .unwrap();
            for kind in [BaselineKind::Alignment, BaselineKind::IntervalPreservation] {
                let out = NativeEvaluator::new(kind).eval(plan, &catalog).unwrap();
                let clean =
                    bugs::diff_against_oracle(out.rows(), &oracle, out.schema().arity(), domain)
                        .is_clean();
                if qi < ra_plus.len() {
                    assert!(
                        clean,
                        "{kind:?} diverged on RA+ query {sql} (seed {seed}) — baselines \
                         must be snapshot-reducible for positive algebra"
                    );
                } else if !clean {
                    agg_diff_divergences += 1;
                }
            }
        }
    }
    assert!(
        agg_diff_divergences > 0,
        "expected the baselines to exhibit AG/BD divergences on aggregation/difference"
    );
}

/// A table's sealed blocks are invisible to every route. On a catalog and
/// its sealed twin — tables of a sealed block and an open tail — every
/// query, compiled with every option (and every join hint, if it joins),
/// returns the same row sequence
/// on the naive route and through fresh indexes; and the wire's row set and
/// a checkpoint encode the twins to the same bytes.
#[test]
fn sealed_and_unsealed_twins_answer_and_encode_alike() {
    for seed in 0..2 {
        // Keys wide enough that a join stays small in a debug build.
        let (plain, domain) = random_catalog_of(seed, BLOCK_ROWS + 100, 40);
        let mut sealed = plain.clone();
        for name in ["r", "s"] {
            sealed.seal(name);
            assert!(
                sealed.get(name).unwrap().as_slice().is_none(),
                "{name} sealed"
            );
            assert!(plain.get(name).unwrap().as_slice().is_some(), "{name} open");
        }
        let indexed = |c: &Catalog| {
            let mut indexes = IndexCatalog::new();
            indexes.refresh(c, c.table_names());
            indexes
        };
        let twins = [(&plain, indexed(&plain)), (&sealed, indexed(&sealed))];
        // The join hint reaches only the plans that join.
        let strategies = |sql: &str| match sql.contains(" JOIN ") {
            true => &[
                JoinAlgo::Auto,
                JoinAlgo::NestedLoop,
                JoinAlgo::Hash,
                JoinAlgo::Sweep,
            ][..],
            false => &[JoinAlgo::Auto][..],
        };
        for sql in QUERIES {
            let stmt = parse_statement(sql).unwrap();
            let bound = bind_statement(&stmt, &plain).unwrap();
            for fc in [true, false] {
                for fs in [true, false] {
                    for &strategy in strategies(sql) {
                        let compiler = SnapshotCompiler::with_options(
                            domain,
                            RewriteOptions {
                                final_coalesce_only: fc,
                                fused_split: fs,
                                temporal_join_algo: strategy,
                            },
                        );
                        let plan = compiler.compile_statement(&bound, &plain).unwrap();
                        let [naive, fast] = [false, true].map(|use_index| {
                            twins.each_ref().map(|(catalog, indexes)| {
                                Engine::new()
                                    .execute_analyzed(
                                        &plan,
                                        catalog,
                                        use_index.then_some(indexes),
                                        &mut ExecStats::default(),
                                        &mut NodeStats::default(),
                                    )
                                    .unwrap()
                            })
                        });
                        let case = format!("seed {seed}, {sql}, fc={fc}, fs={fs}, {strategy:?}");
                        assert_eq!(naive[0].rows(), naive[1].rows(), "naive: {case}");
                        assert_eq!(fast[0].rows(), fast[1].rows(), "indexed: {case}");
                    }
                }
            }
        }

        for name in ["r", "s"] {
            let [a, b] = [&plain, &sealed].map(|c| {
                let mut bytes = Vec::new();
                write_rowset(&mut bytes, c.get(name).unwrap()).unwrap();
                bytes
            });
            assert!(a == b, "row set of {name}, seed {seed}");
        }
        let [a, b] = [&plain, &sealed].map(|c| {
            let dir = ScratchDir::new("twin_checkpoint");
            let path = write_checkpoint(&dir, 1, 0, c).unwrap();
            std::fs::read(path).unwrap()
        });
        assert!(a == b, "checkpoint, seed {seed}");
    }
}
