//! Statement fingerprint statistics (pg_stat_statements-style).
//!
//! Every executed statement is folded to a *fingerprint* — literals
//! stripped, whitespace runs collapsed, case folded; the SQL parser
//! builds it from the statement's tokens and the session hands it in —
//! and accumulated in its database's bounded collector
//! ([`StatementStats`], owned by the database's [`crate::Obs`]) keyed by
//! fingerprint: calls, rows returned, total wall time, and a latency
//! [`Histogram`] for p95 extraction. The collector is a
//! least-recently-used map capped at [`FINGERPRINT_CAPACITY`] distinct
//! fingerprints so a pathological workload of unique statement *shapes*
//! (not unique literals — those share a fingerprint) cannot grow it
//! without bound.
//!
//! The session layer calls [`StatementStats::record`] after each
//! successful statement; the `snapshot_stat_statements` virtual table and
//! tests read back via [`StatementStats::snapshot`]. Stats live in memory
//! only — they start empty with every database value, never with the
//! database files.

use crate::lock::Named;
use crate::metrics::{default_latency_bounds, Counter, Histogram, MetricsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum number of distinct fingerprints retained (LRU eviction beyond).
pub const FINGERPRINT_CAPACITY: usize = 256;

/// One fingerprint's accumulated statistics, as read back by
/// [`StatementStats::snapshot`].
#[derive(Debug, Clone)]
pub struct StatementStat {
    /// The normalized statement shape.
    pub fingerprint: String,
    /// Number of executions.
    pub calls: u64,
    /// Total rows returned (queries only; DML counts zero).
    pub rows: u64,
    /// Total wall time across all calls, in seconds.
    pub total_seconds: f64,
    /// `total_seconds / calls`.
    pub mean_seconds: f64,
    /// p95 latency estimate from the per-fingerprint histogram.
    pub p95_seconds: Option<f64>,
}

#[derive(Debug)]
struct Entry {
    calls: u64,
    rows: u64,
    total_seconds: f64,
    hist: Histogram,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Collector {
    map: HashMap<String, Entry>,
    clock: u64,
}

/// A database's statement statistics: the LRU collector and its eviction
/// counter.
#[derive(Debug)]
pub struct StatementStats {
    collector: Named<Collector>,
    /// Fingerprints evicted from the LRU under capacity pressure. A
    /// non-zero value means `snapshot_stat_statements` is missing shapes —
    /// the workload ran more than [`FINGERPRINT_CAPACITY`] distinct
    /// statement shapes and the coldest were dropped.
    evictions: Arc<Counter>,
}

impl StatementStats {
    /// An empty collector counting its evictions in `metrics`.
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        StatementStats {
            collector: Named::new("obs.stmtstats", Collector::default()),
            evictions: metrics.counter("stmt_stats_evictions_total"),
        }
    }

    /// Record one executed statement under its `fingerprint`: `rows` is
    /// the result cardinality for queries (`None` for DML/DDL), `seconds`
    /// the statement's total wall time.
    pub fn record(&self, fingerprint: &str, rows: Option<u64>, seconds: f64) {
        let mut c = self.collector.lock();
        c.clock += 1;
        let now = c.clock;
        if !c.map.contains_key(fingerprint) && c.map.len() >= FINGERPRINT_CAPACITY {
            if let Some(victim) = c
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                c.map.remove(&victim);
                self.evictions.inc();
            }
        }
        let e = c
            .map
            .entry(fingerprint.to_string())
            .or_insert_with(|| Entry {
                calls: 0,
                rows: 0,
                total_seconds: 0.0,
                hist: Histogram::new(default_latency_bounds()),
                last_used: now,
            });
        e.calls += 1;
        e.rows += rows.unwrap_or(0);
        e.total_seconds += seconds;
        e.hist.observe(seconds);
        e.last_used = now;
    }

    /// Snapshot every retained fingerprint, hottest (by total time) first;
    /// ties break on the fingerprint text so the order is deterministic.
    pub fn snapshot(&self) -> Vec<StatementStat> {
        let c = self.collector.lock();
        let mut stats: Vec<StatementStat> = c
            .map
            .iter()
            .map(|(fp, e)| StatementStat {
                fingerprint: fp.clone(),
                calls: e.calls,
                rows: e.rows,
                total_seconds: e.total_seconds,
                mean_seconds: e.total_seconds / e.calls as f64,
                p95_seconds: e.hist.quantile(0.95),
            })
            .collect();
        stats.sort_by(|a, b| {
            b.total_seconds
                .partial_cmp(&a.total_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_is_bounded() {
        let metrics = MetricsRegistry::new();
        let stats = StatementStats::new(&metrics);
        let fp = "select x from stmtstats_t where y = ?";
        stats.record(fp, Some(3), 0.010);
        stats.record(fp, Some(5), 0.030);
        let snap = stats.snapshot();
        let s = snap
            .iter()
            .find(|s| s.fingerprint == fp)
            .expect("fingerprint present");
        assert_eq!(s.calls, 2);
        assert_eq!(s.rows, 8);
        assert!((s.total_seconds - 0.040).abs() < 1e-9);
        assert!((s.mean_seconds - 0.020).abs() < 1e-9);
        assert!(s.p95_seconds.is_some());

        // LRU bound: flooding with unique shapes never exceeds capacity,
        // the hot (recently touched) fingerprint survives, and every
        // eviction is counted.
        for i in 0..(2 * FINGERPRINT_CAPACITY) {
            stats.record(&format!("select c{i} from stmtstats_t"), None, 0.001);
            stats.record(fp, Some(1), 0.001);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.len(), FINGERPRINT_CAPACITY);
        assert!(snap.iter().any(|s| s.fingerprint == fp));
        assert_eq!(
            metrics.counter("stmt_stats_evictions_total").get(),
            (2 * FINGERPRINT_CAPACITY + 1 - FINGERPRINT_CAPACITY) as u64,
            "every capacity-pressure eviction is counted"
        );
    }
}
