//! Introspection virtual tables: names and schemas.
//!
//! The `snapshot_stat_*` family exposes observability state through the
//! ordinary SQL surface — any `SELECT` can scan, filter, order, aggregate,
//! or join them against user tables. This module is the single source of
//! truth for their names and fixed schemas; it lives in `algebra` because
//! both the binder (name resolution, [`virtual_table_schema`]) and the
//! engine (row production) need it, and `algebra` is beneath both.
//!
//! Virtual tables are *not* temporal relations: they have no application
//! period, cannot appear under snapshot (`SEQ VT`) semantics, and are
//! shadowed by a real catalog table of the same name. Their contents come
//! from the database's in-memory observability state (the metrics
//! registry, the statement statistics collector, the slow-query log) and
//! session-visible storage state (catalog, index catalog) at execution
//! time — nothing persists.

use storage::{Schema, SqlType};

/// Every virtual table name, sorted.
pub const VIRTUAL_TABLES: [&str; 8] = [
    "snapshot_stat_activity",
    "snapshot_stat_indexes",
    "snapshot_stat_metrics",
    "snapshot_stat_progress",
    "snapshot_stat_slow_queries",
    "snapshot_stat_statements",
    "snapshot_stat_tables",
    "snapshot_stat_transactions",
];

/// The fixed schema of virtual table `name`, or `None` if `name` is not a
/// virtual table.
pub fn virtual_table_schema(name: &str) -> Option<Schema> {
    let cols: &[(&str, SqlType)] = match name {
        // One row per registered metric; histogram-only columns are NULL
        // for counters/gauges and vice versa.
        "snapshot_stat_metrics" => &[
            ("name", SqlType::Str),
            ("kind", SqlType::Str),
            ("value", SqlType::Double),
            ("count", SqlType::Int),
            ("sum", SqlType::Double),
            ("p50", SqlType::Double),
            ("p95", SqlType::Double),
            ("p99", SqlType::Double),
        ],
        // One row per live session: who is running what, right now.
        // `elapsed_ms` is time since the current statement started (for
        // idle sessions: since the last one started); `statement` is the
        // current or most recent statement text.
        "snapshot_stat_activity" => &[
            ("session_id", SqlType::Int),
            ("backend", SqlType::Str),
            ("remote_addr", SqlType::Str),
            ("state", SqlType::Str),
            ("in_txn", SqlType::Bool),
            ("phase", SqlType::Str),
            ("statement", SqlType::Str),
            ("fingerprint", SqlType::Str),
            ("elapsed_ms", SqlType::Double),
            ("rows_emitted", SqlType::Int),
        ],
        // One row per live session: the statement's live resource
        // counters (engine operators bump them while it runs).
        "snapshot_stat_progress" => &[
            ("session_id", SqlType::Int),
            ("phase", SqlType::Str),
            ("elapsed_ms", SqlType::Double),
            ("rows_scanned", SqlType::Int),
            ("rows_emitted", SqlType::Int),
            ("join_pairs", SqlType::Int),
            ("index_probes", SqlType::Int),
            ("bytes_materialized", SqlType::Int),
        ],
        // One row per retained statement fingerprint. The collector is a
        // bounded LRU: when the workload exceeds its capacity in distinct
        // shapes, the coldest rows are evicted and the drop count is the
        // `stmt_stats_evictions_total` counter in `snapshot_stat_metrics`.
        "snapshot_stat_statements" => &[
            ("fingerprint", SqlType::Str),
            ("calls", SqlType::Int),
            ("rows", SqlType::Int),
            ("total_time_ms", SqlType::Double),
            ("mean_time_ms", SqlType::Double),
            ("p95_time_ms", SqlType::Double),
        ],
        // One row per catalog table visible to the session's snapshot.
        "snapshot_stat_tables" => &[
            ("name", SqlType::Str),
            ("rows", SqlType::Int),
            ("columns", SqlType::Int),
            ("temporal", SqlType::Bool),
            ("version", SqlType::Int),
        ],
        // One row per registered temporal index.
        "snapshot_stat_indexes" => &[
            ("table_name", SqlType::Str),
            ("fresh", SqlType::Bool),
            ("version", SqlType::Int),
            ("events", SqlType::Int),
            ("full_builds", SqlType::Int),
            ("incremental_builds", SqlType::Int),
        ],
        // One row per transaction-layer statistic (name/value pairs over
        // the database registry's txn counters).
        "snapshot_stat_transactions" => &[("stat", SqlType::Str), ("value", SqlType::Double)],
        // One row per retained slow query, oldest first.
        "snapshot_stat_slow_queries" => &[
            ("seq", SqlType::Int),
            ("statement", SqlType::Str),
            ("total_ms", SqlType::Double),
            ("parse_ms", SqlType::Double),
            ("bind_ms", SqlType::Double),
            ("rewrite_ms", SqlType::Double),
            ("index_ms", SqlType::Double),
            ("execute_ms", SqlType::Double),
            ("commit_ms", SqlType::Double),
            ("rows", SqlType::Int),
            ("plan", SqlType::Str),
            ("cancelled", SqlType::Str),
        ],
        _ => return None,
    };
    Some(Schema::of(cols))
}

/// Is `name` a virtual table?
pub fn is_virtual_table(name: &str) -> bool {
    VIRTUAL_TABLES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_has_a_schema_and_nothing_else_does() {
        for name in VIRTUAL_TABLES {
            let schema =
                virtual_table_schema(name).unwrap_or_else(|| panic!("no schema for {name}"));
            assert!(schema.arity() >= 2, "{name}");
            assert!(is_virtual_table(name));
        }
        assert!(virtual_table_schema("works").is_none());
        assert!(!is_virtual_table("works"));
        let mut sorted = VIRTUAL_TABLES;
        sorted.sort_unstable();
        assert_eq!(sorted, VIRTUAL_TABLES, "names are kept sorted");
    }
}
