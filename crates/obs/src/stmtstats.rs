//! Statement fingerprint statistics (pg_stat_statements-style).
//!
//! Every executed statement is folded to a *fingerprint* — literals
//! stripped, whitespace runs collapsed, case folded — and accumulated in a
//! process-global, bounded collector keyed by fingerprint: calls, rows
//! returned, total wall time, and a latency [`Histogram`] for p95
//! extraction. The collector is a least-recently-used map capped at
//! [`FINGERPRINT_CAPACITY`] distinct fingerprints so a pathological
//! workload of unique statement *shapes* (not unique literals — those
//! share a fingerprint) cannot grow it without bound.
//!
//! The session layer calls [`record_statement`] after each successful
//! statement; the `snapshot_stat_statements` virtual table and tests read
//! back via [`statement_stats`]. Stats live in memory only — they reset
//! with the process, never with the database files.

use crate::lock::Named;
use crate::metrics::{default_latency_bounds, Histogram, LazyCounter};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Maximum number of distinct fingerprints retained (LRU eviction beyond).
pub const FINGERPRINT_CAPACITY: usize = 256;

/// Fingerprints evicted from the LRU under capacity pressure. A non-zero
/// value means `snapshot_stat_statements` is missing shapes — the
/// workload ran more than [`FINGERPRINT_CAPACITY`] distinct statement
/// shapes and the coldest were dropped.
static STMT_STATS_EVICTIONS: LazyCounter = LazyCounter::new("stmt_stats_evictions_total");

/// Normalize a SQL statement into its fingerprint: string and numeric
/// literals become `?`, whitespace runs collapse to one space, letters
/// fold to lower case, and any trailing `;` is dropped. Digits that are
/// part of an identifier (`t1`, `x_2`) survive.
pub fn fingerprint(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            // String literal; '' is the escaped quote.
            while let Some(c2) = chars.next() {
                if c2 == '\'' {
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            out.push('?');
        } else if c.is_ascii_digit()
            && !out
                .chars()
                .last()
                .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_' || p == '?')
        {
            // Numeric literal: digits, fraction, optional exponent.
            while chars
                .peek()
                .is_some_and(|&c2| c2.is_ascii_digit() || c2 == '.')
            {
                chars.next();
            }
            if chars.peek().is_some_and(|&c2| c2 == 'e' || c2 == 'E') {
                let mut ahead = chars.clone();
                ahead.next();
                if ahead.peek().is_some_and(|&c2| c2 == '+' || c2 == '-') {
                    ahead.next();
                }
                if ahead.peek().is_some_and(char::is_ascii_digit) {
                    chars.next();
                    if chars.peek().is_some_and(|&c2| c2 == '+' || c2 == '-') {
                        chars.next();
                    }
                    while chars.peek().is_some_and(char::is_ascii_digit) {
                        chars.next();
                    }
                }
            }
            out.push('?');
        } else if c.is_whitespace() {
            if !out.is_empty() && !out.ends_with(' ') {
                out.push(' ');
            }
        } else {
            out.push(c.to_ascii_lowercase());
        }
    }
    out.trim().trim_end_matches(';').trim_end().to_string()
}

/// One fingerprint's accumulated statistics, as read back by
/// [`statement_stats`].
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

struct Entry {
    calls: u64,
    rows: u64,
    total_seconds: f64,
    hist: Histogram,
    last_used: u64,
}

#[derive(Default)]
struct Collector {
    map: HashMap<String, Entry>,
    clock: u64,
}

fn collector() -> crate::lock::LockGuard<'static, Collector> {
    static GLOBAL: OnceLock<Named<Collector>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Named::new("obs.stmtstats", Collector::default()))
        .lock()
}

/// Record one executed statement: `rows` is the result cardinality for
/// queries (`None` for DML/DDL), `seconds` the statement's total wall time.
pub fn record_statement(sql: &str, rows: Option<u64>, seconds: f64) {
    let fp = fingerprint(sql);
    if fp.is_empty() {
        return;
    }
    let mut c = collector();
    c.clock += 1;
    let now = c.clock;
    if !c.map.contains_key(&fp) && c.map.len() >= FINGERPRINT_CAPACITY {
        if let Some(victim) = c
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        {
            c.map.remove(&victim);
            STMT_STATS_EVICTIONS.inc();
        }
    }
    let e = c.map.entry(fp).or_insert_with(|| Entry {
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
pub fn statement_stats() -> Vec<StatementStat> {
    let c = collector();
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

/// Drop every retained fingerprint (benches and tests).
pub fn reset_statement_stats() {
    collector().map.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_strips_literals_and_folds() {
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE x = 42 AND name = 'Ann';"),
            "select * from t where x = ? and name = ?"
        );
        assert_eq!(
            fingerprint("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)"),
            "insert into works values (?, ?, ?, ?)"
        );
        // Same shape, different literals -> same fingerprint.
        assert_eq!(
            fingerprint("SELECT x FROM t WHERE ts < 10"),
            fingerprint("select   x from t\nwhere ts < 99")
        );
    }

    #[test]
    fn fingerprint_keeps_identifier_digits() {
        assert_eq!(fingerprint("SELECT x1 FROM t2"), "select x1 from t2");
        assert_eq!(fingerprint("SELECT a_1 FROM t"), "select a_1 from t");
        // But a number after whitespace or punctuation is a literal.
        assert_eq!(
            fingerprint("SEQ VT AS OF 9 (SELECT x FROM t)"),
            "seq vt as of ? (select x from t)"
        );
        assert_eq!(fingerprint("VALUES (1.5e3, 2)"), "values (?, ?)");
    }

    #[test]
    fn fingerprint_handles_escaped_quotes() {
        assert_eq!(
            fingerprint("SELECT * FROM t WHERE s = 'it''s'"),
            "select * from t where s = ?"
        );
    }

    #[test]
    fn collector_accumulates_and_is_bounded() {
        reset_statement_stats();
        record_statement("SELECT x FROM stmtstats_t WHERE y = 1", Some(3), 0.010);
        record_statement("SELECT x FROM stmtstats_t WHERE y = 2", Some(5), 0.030);
        let stats = statement_stats();
        let s = stats
            .iter()
            .find(|s| s.fingerprint == "select x from stmtstats_t where y = ?")
            .expect("fingerprint present");
        assert_eq!(s.calls, 2);
        assert_eq!(s.rows, 8);
        assert!((s.total_seconds - 0.040).abs() < 1e-9);
        assert!((s.mean_seconds - 0.020).abs() < 1e-9);
        assert!(s.p95_seconds.is_some());

        // LRU bound: flooding with unique shapes never exceeds capacity,
        // the hot (recently touched) fingerprint survives, and every
        // eviction is counted.
        let evicted_before = crate::registry()
            .counter("stmt_stats_evictions_total")
            .get();
        for i in 0..(2 * FINGERPRINT_CAPACITY) {
            record_statement(&format!("SELECT c{i} FROM stmtstats_t"), None, 0.001);
            record_statement("SELECT x FROM stmtstats_t WHERE y = 3", Some(1), 0.001);
        }
        let stats = statement_stats();
        assert!(stats.len() <= FINGERPRINT_CAPACITY);
        assert!(stats
            .iter()
            .any(|s| s.fingerprint == "select x from stmtstats_t where y = ?"));
        assert!(
            crate::registry()
                .counter("stmt_stats_evictions_total")
                .get()
                > evicted_before,
            "capacity-pressure evictions are counted"
        );
        reset_statement_stats();
        assert!(statement_stats().is_empty());
    }
}
