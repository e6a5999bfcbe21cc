//! Differential testing: every evaluation route against the point-wise
//! oracle on randomized databases, across all rewrite options.
//!
//! This is the executable form of the paper's correctness claims: the
//! middleware (any option combination, any join strategy) must be
//! snapshot-equivalent to evaluating the query at every time point, while
//! the native baselines must diverge exactly on the AG/BD-prone operators.

use snapshot_semantics::algebra::JoinAlgo;
use snapshot_semantics::baseline::bugs;
use snapshot_semantics::engine::Engine;
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::Catalog;
use snapshot_semantics::timeline::TimeDomain;

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
    let domain = TimeDomain::new(0, 30);
    let spec = snapshot_semantics::datagen::random::RandomTableSpec {
        rows: 40,
        int_cols: 1,
        str_cols: 1,
        cardinality: 3,
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
                    for strategy in [JoinAlgo::Hash, JoinAlgo::MergeInterval] {
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
