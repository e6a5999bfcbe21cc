//! The two evaluation workloads, run end to end at test scale, with the
//! oracle validating results where feasible.

use snapshot_semantics::algebra::JoinAlgo;
use snapshot_semantics::baseline::bugs;
use snapshot_semantics::engine::Engine;
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::Catalog;
use snapshot_semantics::timeline::TimeDomain;

fn run(
    sql: &str,
    catalog: &Catalog,
    domain: TimeDomain,
    strategy: JoinAlgo,
    options: RewriteOptions,
) -> snapshot_semantics::storage::Table {
    // The join route is pinned through the plan hint the rewriter stamps
    // on its overlap joins.
    let options = RewriteOptions {
        temporal_join_algo: strategy,
        ..options
    };
    let stmt = parse_statement(sql).unwrap();
    let bound = bind_statement(&stmt, catalog).unwrap();
    let plan = SnapshotCompiler::with_options(domain, options)
        .compile_statement(&bound, catalog)
        .unwrap();
    Engine::new()
        .execute(&plan, catalog)
        .unwrap()
        .canonicalized()
}

/// All ten Employee queries: every option/strategy combination produces the
/// identical canonical result.
#[test]
fn employee_workload_options_agree() {
    let catalog = snapshot_semantics::datagen::employees::generate(0.0008, 42);
    let domain = snapshot_semantics::datagen::employees::domain();
    for (name, sql) in snapshot_semantics::datagen::employees::queries() {
        let reference = run(
            sql,
            &catalog,
            domain,
            JoinAlgo::Hash,
            RewriteOptions::default(),
        );
        assert!(!reference.is_empty(), "{name} returned nothing");
        for strategy in [JoinAlgo::Hash, JoinAlgo::MergeInterval] {
            for fused in [true, false] {
                let options = RewriteOptions {
                    final_coalesce_only: true,
                    fused_split: fused,
                    ..RewriteOptions::default()
                };
                let out = run(sql, &catalog, domain, strategy, options);
                assert_eq!(
                    out.rows(),
                    reference.rows(),
                    "{name}: {strategy:?} fused={fused} diverged"
                );
            }
        }
    }
}

/// A micro Employee database against the oracle: the full workload is
/// snapshot-correct, not just internally consistent.
#[test]
fn employee_workload_matches_oracle_at_micro_scale() {
    let catalog = snapshot_semantics::datagen::employees::generate(0.0002, 11);
    // Narrow the domain to the data (oracle cost is linear in |T|).
    let domain = snapshot_semantics::rewrite::infer_domain(&catalog);
    for (name, sql) in snapshot_semantics::datagen::employees::queries() {
        let stmt = parse_statement(sql).unwrap();
        let bound = bind_statement(&stmt, &catalog).unwrap();
        let BoundStatement::Snapshot { plan, .. } = &bound else {
            panic!()
        };
        let oracle = snapshot_semantics::baseline::PointwiseOracle::new(domain)
            .eval_rows(plan, &catalog)
            .unwrap();
        let out = run(
            sql,
            &catalog,
            domain,
            JoinAlgo::Hash,
            RewriteOptions::default(),
        );
        assert!(
            bugs::snapshot_equivalent(out.rows(), &oracle, out.schema().arity(), domain),
            "{name} diverges from the oracle"
        );
    }
}

/// The TPC-BiH workload: Seq variants agree pairwise on all eleven queries.
///
/// Double-typed aggregates are compared with a small relative tolerance:
/// the join strategies feed the aggregation in different row orders, and
/// floating-point summation is order-dependent (as in any real DBMS).
#[test]
fn tpcbih_workload_strategies_agree() {
    let catalog = snapshot_semantics::datagen::tpcbih::generate(0.0005, 7);
    let domain = snapshot_semantics::datagen::tpcbih::domain();
    for (name, sql) in snapshot_semantics::datagen::tpcbih::queries() {
        let hash = run(
            sql,
            &catalog,
            domain,
            JoinAlgo::Hash,
            RewriteOptions::default(),
        );
        let merge = run(
            sql,
            &catalog,
            domain,
            JoinAlgo::MergeInterval,
            RewriteOptions::default(),
        );
        assert_eq!(
            rounded_rows(&hash),
            rounded_rows(&merge),
            "{name}: results diverge beyond FP tolerance"
        );
    }
}

/// Canonicalizes a result for FP-tolerant comparison: quantizes double
/// columns to 7 significant digits, then *re-coalesces*. Join strategies
/// feed aggregations in different row orders; float summation noise can
/// make two adjacent intervals coalesce under one order but not the other,
/// so comparison must re-normalize after quantization.
fn rounded_rows(
    table: &snapshot_semantics::storage::Table,
) -> Vec<snapshot_semantics::storage::Row> {
    use snapshot_semantics::storage::{Row, Value};
    let rows: Vec<Row> = table
        .rows()
        .iter()
        .map(|r| {
            Row::new(
                r.values()
                    .iter()
                    .map(|v| match v {
                        // Cancellation noise around zero snaps to exactly
                        // zero, everything else keeps 7 significant digits.
                        Value::Double(d) => {
                            let d = if d.abs() < 1e-9 { 0.0 } else { *d };
                            Value::str(format!("{d:.6e}"))
                        }
                        other => other.clone(),
                    })
                    .collect(),
            )
        })
        .collect();
    snapshot_semantics::engine::coalesce::coalesce_rows(&rows, table.schema().arity())
}

/// Q1 aggregates validated against a direct computation at one time point.
#[test]
fn tpcbih_q1_spot_check() {
    let catalog = snapshot_semantics::datagen::tpcbih::generate(0.0005, 7);
    let domain = snapshot_semantics::datagen::tpcbih::domain();
    let (_, sql) = snapshot_semantics::datagen::tpcbih::queries()
        .into_iter()
        .find(|(n, _)| *n == "Q1")
        .unwrap();
    let out = run(
        sql,
        &catalog,
        domain,
        JoinAlgo::Hash,
        RewriteOptions::default(),
    );

    // Pick the middle of the domain and recompute count per (flag, status)
    // directly from the lineitem table.
    let t = 1_200i64;
    let lineitem = catalog.get("lineitem").unwrap();
    let (b, e) = lineitem.period().unwrap();
    let mut counts: std::collections::HashMap<(String, String), i64> = Default::default();
    for r in lineitem.rows() {
        if r.int(b) <= t && t < r.int(e) {
            *counts
                .entry((r.get(7).to_string(), r.get(8).to_string()))
                .or_default() += 1;
        }
    }
    // Find the Q1 output rows covering t and compare count_order (last
    // aggregate before the period columns).
    let arity = out.schema().arity();
    let mut seen = 0;
    for r in out.rows() {
        if r.int(arity - 2) <= t && t < r.int(arity - 1) {
            let key = (r.get(0).to_string(), r.get(1).to_string());
            let expect = counts.get(&key).copied().unwrap_or(0);
            assert_eq!(r.int(arity - 3), expect, "count_order for {key:?} at {t}");
            seen += 1;
        }
    }
    assert_eq!(
        seen,
        counts.len(),
        "one output row per (returnflag, linestatus) active at {t}"
    );
}
