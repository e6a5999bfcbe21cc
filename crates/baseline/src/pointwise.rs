//! The point-wise oracle: snapshot semantics by definition.
//!
//! Evaluates a snapshot plan by materializing the database snapshot at
//! *every* time point of the domain (Definition 4.4), running the
//! non-temporal query over it with the ordinary engine, and encoding the
//! per-point results into the logical model. `O(|T| · query)` — usable for
//! verification on small domains, and as the SQL/TP-style comparator the
//! paper's related work discusses.

use crate::native::snapshot_to_plain_plan;
use algebra::SnapshotPlan;
use engine::Engine;
use semiring::Natural;
use snapshot_core::{PeriodRelation, SnapshotRelation};
use storage::{Catalog, Row, Table};
use timeline::TimeDomain;

/// The oracle evaluator.
#[derive(Debug, Clone)]
pub struct PointwiseOracle {
    domain: TimeDomain,
}

impl PointwiseOracle {
    /// Oracle over the given time domain.
    pub fn new(domain: TimeDomain) -> Self {
        PointwiseOracle { domain }
    }

    /// Evaluates the snapshot plan per time point, returning the logical
    /// model of the result (the unique coalesced encoding).
    pub fn eval(
        &self,
        plan: &SnapshotPlan,
        catalog: &Catalog,
    ) -> Result<PeriodRelation<Row, Natural>, String> {
        let engine = Engine::new();
        let mut result: SnapshotRelation<Row, Natural> = SnapshotRelation::empty(self.domain);
        for t in self.domain.points() {
            // Materialize the snapshot database at t: data columns of every
            // row whose interval contains t.
            let mut snapshot_catalog = Catalog::new();
            for name in catalog.table_names().collect::<Vec<_>>() {
                let table = catalog.get(name).unwrap();
                let Some((b, e)) = table.period() else {
                    snapshot_catalog.register(name, table.clone());
                    continue;
                };
                let mut snap = Table::new(table.schema().clone());
                for row in table.iter() {
                    if row.int(b) <= t.value() && t.value() < row.int(e) {
                        snap.push(row.clone());
                    }
                }
                snapshot_catalog.register(name, snap);
            }
            // The snapshot query as a plain plan over the materialized
            // snapshot (period columns projected away at the leaves).
            let plain = snapshot_to_plain_plan(plan, &snapshot_catalog)?;
            let out = engine.execute(&plain, &snapshot_catalog)?;
            for row in out.rows() {
                result.add_at(t, row.clone(), Natural(1));
            }
        }
        Ok(PeriodRelation::encode(&result))
    }

    /// Evaluates and returns the `PERIODENC` row encoding (sorted).
    pub fn eval_rows(&self, plan: &SnapshotPlan, catalog: &Catalog) -> Result<Vec<Row>, String> {
        Ok(rewrite::periodenc::encode_relation(
            &self.eval(plan, catalog)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql::{bind_statement, parse_statement, BoundStatement};
    use storage::{row, Schema, SqlType};

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

    fn snapshot_plan(sql: &str, c: &Catalog) -> SnapshotPlan {
        let stmt = parse_statement(sql).unwrap();
        match bind_statement(&stmt, c).unwrap() {
            BoundStatement::Snapshot { plan, .. } => plan,
            _ => panic!("expected snapshot query"),
        }
    }

    #[test]
    fn oracle_reproduces_figure_1b() {
        let c = catalog();
        let plan = snapshot_plan(
            "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
            &c,
        );
        let rows = PointwiseOracle::new(TimeDomain::new(0, 24))
            .eval_rows(&plan, &c)
            .unwrap();
        assert_eq!(
            rows,
            vec![
                row![0, 0, 3],
                row![0, 16, 18],
                row![0, 20, 24],
                row![1, 3, 8],
                row![1, 10, 16],
                row![1, 18, 20],
                row![2, 8, 10],
            ]
        );
    }

    #[test]
    fn oracle_matches_rewrite_pipeline() {
        let c = catalog();
        let domain = TimeDomain::new(0, 24);
        let queries = [
            "SEQ VT (SELECT skill FROM works)",
            "SEQ VT (SELECT name, skill FROM works WHERE skill = 'SP')",
            "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)",
        ];
        for q in queries {
            let plan = snapshot_plan(q, &c);
            let oracle = PointwiseOracle::new(domain).eval_rows(&plan, &c).unwrap();
            let compiled = rewrite::SnapshotCompiler::new(domain)
                .compile(&plan, &c)
                .unwrap();
            let engine_out = Engine::new()
                .execute(&compiled, &c)
                .unwrap()
                .canonicalized();
            assert_eq!(oracle, engine_out.rows().to_vec(), "mismatch for {q}");
        }
    }
}
