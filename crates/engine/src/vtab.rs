//! Row production for the introspection virtual tables.
//!
//! The engine materializes `snapshot_stat_*` rows at execution time from
//! two kinds of state: the database's observability state (its metrics
//! registry, statement statistics, slow-query log and live sessions — one
//! [`Obs`]) and the session-visible storage state the engine already holds
//! (the catalog snapshot and the index catalog). Schemas are fixed in
//! [`algebra::vtab`]; rows here must match them column for column.

use index::{IndexCatalog, MaintenanceStats};
use snapshot_obs::Obs;
use storage::{Catalog, Row, Value};

fn opt_f64(v: Option<f64>) -> Value {
    v.map(Value::Double).unwrap_or(Value::Null)
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map(|n| Value::Int(n as i64)).unwrap_or(Value::Null)
}

/// Materialize the rows of virtual table `table`.
///
/// `indexes` is the engine's index catalog when the session runs with
/// indexes enabled; without it, `snapshot_stat_indexes` is simply empty.
/// `obs` is the observability state of the database the session serves.
pub fn virtual_table_rows(
    table: &str,
    catalog: &Catalog,
    indexes: Option<&IndexCatalog>,
    obs: &Obs,
) -> Result<Vec<Row>, String> {
    match table {
        "snapshot_stat_metrics" => {
            let metrics = &obs.metrics;
            metrics.refresh_process_metrics();
            Ok(metrics
                .snapshot()
                .into_iter()
                .map(|s| {
                    Row::new(vec![
                        Value::str(&s.name),
                        Value::str(s.kind),
                        opt_f64(s.value),
                        opt_u64(s.count),
                        opt_f64(s.sum),
                        opt_f64(s.p50),
                        opt_f64(s.p95),
                        opt_f64(s.p99),
                    ])
                })
                .collect())
        }
        "snapshot_stat_statements" => Ok(obs
            .statements
            .snapshot()
            .into_iter()
            .map(|s| {
                Row::new(vec![
                    Value::str(&s.fingerprint),
                    Value::Int(s.calls as i64),
                    Value::Int(s.rows as i64),
                    Value::Double(s.total_seconds * 1e3),
                    Value::Double(s.mean_seconds * 1e3),
                    opt_f64(s.p95_seconds.map(|p| p * 1e3)),
                ])
            })
            .collect()),
        "snapshot_stat_tables" => Ok(catalog
            .table_names()
            .map(|name| {
                let t = catalog.get(name).expect("listed table present");
                let mut schema = t.schema().to_string();
                if let Some((b, e)) = t.period() {
                    let column = |i| &t.schema().column(i).name;
                    schema = format!("{schema} PERIOD ({}, {})", column(b), column(e));
                }
                Row::new(vec![
                    Value::str(name),
                    Value::Int(t.len() as i64),
                    Value::Int(t.schema().arity() as i64),
                    Value::Bool(t.period().is_some()),
                    Value::Int(t.version() as i64),
                    Value::str(&schema),
                ])
            })
            .collect()),
        "snapshot_stat_indexes" => {
            let Some(reg) = indexes else {
                return Ok(Vec::new());
            };
            let maint = MaintenanceStats::read(&obs.metrics);
            Ok(reg
                .table_names()
                .map(|name| {
                    let idx = reg.get(name).expect("listed index present");
                    let fresh = catalog.get(name).is_some_and(|t| idx.is_fresh(t));
                    Row::new(vec![
                        Value::str(name),
                        Value::Bool(fresh),
                        Value::Int(idx.version() as i64),
                        Value::Int(idx.events().len() as i64),
                        Value::Int(maint.full_builds as i64),
                        Value::Int(maint.incremental_builds as i64),
                    ])
                })
                .collect())
        }
        "snapshot_stat_activity" => Ok(obs
            .activity
            .snapshot()
            .into_iter()
            .map(|s| {
                Row::new(vec![
                    Value::Int(s.session_id as i64),
                    Value::str(s.backend),
                    s.remote_addr
                        .as_deref()
                        .map(Value::str)
                        .unwrap_or(Value::Null),
                    Value::str(s.state),
                    Value::Bool(s.in_txn),
                    Value::str(s.phase.as_str()),
                    s.statement
                        .as_deref()
                        .map(Value::str)
                        .unwrap_or(Value::Null),
                    s.fingerprint
                        .as_deref()
                        .map(Value::str)
                        .unwrap_or(Value::Null),
                    opt_f64(s.elapsed_ms),
                    Value::Int(s.usage.rows_emitted as i64),
                ])
            })
            .collect()),
        "snapshot_stat_progress" => Ok(obs
            .activity
            .snapshot()
            .into_iter()
            .map(|s| {
                Row::new(vec![
                    Value::Int(s.session_id as i64),
                    Value::str(s.phase.as_str()),
                    opt_f64(s.elapsed_ms),
                    Value::Int(s.usage.rows_scanned as i64),
                    Value::Int(s.usage.rows_emitted as i64),
                    Value::Int(s.usage.join_pairs as i64),
                    Value::Int(s.usage.index_probes as i64),
                    Value::Int(s.usage.bytes_materialized as i64),
                ])
            })
            .collect()),
        "snapshot_stat_transactions" => {
            // Name/value pairs over the database registry's
            // transaction-layer counters: every session's view.
            let reg = &obs.metrics;
            let counter = |name: &str| reg.get_counter(name).map_or(0, |c| c.get()) as f64;
            let stats = [
                ("snapshots", counter("txn_snapshots_total")),
                ("commits", counter("txn_commits_total")),
                ("conflicts", counter("txn_conflicts_total")),
                ("rollbacks", counter("txn_rollbacks_total")),
                ("retries", counter("session_retries_total")),
                ("retry_give_ups", counter("session_retry_give_ups_total")),
            ];
            Ok(stats
                .into_iter()
                .map(|(name, value)| Row::new(vec![Value::str(name), Value::Double(value)]))
                .collect())
        }
        "snapshot_stat_slow_queries" => Ok(obs
            .slow_log
            .entries()
            .into_iter()
            .map(|q| {
                Row::new(vec![
                    Value::Int(q.seq as i64),
                    Value::str(&q.statement),
                    Value::Double(q.total_ms),
                    Value::Double(q.parse_ms),
                    Value::Double(q.bind_ms),
                    Value::Double(q.rewrite_ms),
                    Value::Double(q.execute_ms),
                    Value::Double(q.commit_ms),
                    opt_u64(q.rows),
                    q.plan.as_deref().map(Value::str).unwrap_or(Value::Null),
                    q.cancelled
                        .as_deref()
                        .map(Value::str)
                        .unwrap_or(Value::Null),
                ])
            })
            .collect()),
        other => Err(format!("unknown virtual table '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::vtab;
    use storage::{Schema, SqlType, Table};

    fn catalog_with_table() -> Catalog {
        let mut catalog = Catalog::new();
        let mut t = Table::with_period(
            Schema::of(&[
                ("x", SqlType::Int),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]),
            1,
            2,
        );
        t.push(Row::new(vec![Value::Int(1), Value::Int(0), Value::Int(5)]));
        catalog.register("t", t);
        catalog
    }

    #[test]
    fn rows_match_the_declared_schemas() {
        let catalog = catalog_with_table();
        let indexes = IndexCatalog::build_all(&catalog);
        let obs = Obs::default();
        let _session = obs.activity.register("owned");
        for name in vtab::VIRTUAL_TABLES {
            let schema = vtab::virtual_table_schema(name).unwrap();
            let rows = virtual_table_rows(name, &catalog, Some(&indexes), &obs).unwrap();
            for row in &rows {
                assert_eq!(row.arity(), schema.arity(), "arity of {name}");
            }
        }
        assert!(virtual_table_rows("nope", &catalog, None, &obs).is_err());
    }

    #[test]
    fn stat_tables_reports_the_catalog_snapshot() {
        let catalog = catalog_with_table();
        let rows =
            virtual_table_rows("snapshot_stat_tables", &catalog, None, &Obs::default()).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.values()[0], Value::str("t"));
        assert_eq!(r.values()[1], Value::Int(1));
        assert_eq!(r.values()[2], Value::Int(3));
        assert_eq!(r.values()[3], Value::Bool(true));
        assert_eq!(
            r.values()[5],
            Value::str("(x INT, ts INT, te INT) PERIOD (ts, te)")
        );
    }

    #[test]
    fn stat_indexes_reports_freshness() {
        let obs = Obs::default();
        let mut catalog = catalog_with_table();
        let indexes = IndexCatalog::build_all(&catalog);
        let rows =
            virtual_table_rows("snapshot_stat_indexes", &catalog, Some(&indexes), &obs).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[1], Value::Bool(true), "fresh after build");
        // Mutate the table: the registered index goes stale but stays listed.
        catalog.get_mut("t").unwrap().push(Row::new(vec![
            Value::Int(2),
            Value::Int(3),
            Value::Int(9),
        ]));
        let rows =
            virtual_table_rows("snapshot_stat_indexes", &catalog, Some(&indexes), &obs).unwrap();
        assert_eq!(rows[0].values()[1], Value::Bool(false), "stale after write");
        // And without an index catalog the table is empty, not an error.
        assert!(
            virtual_table_rows("snapshot_stat_indexes", &catalog, None, &obs)
                .unwrap()
                .is_empty()
        );
    }
}
