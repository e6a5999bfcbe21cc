//! The slow-query log: a bounded ring of offenders, one per database.
//!
//! The session layer, when a statement's wall time crosses the session's
//! configured threshold (`SessionOptions::slow_query_ms`, `SET
//! slow_query_ms`, the shell's `.slow` command, or the `--slow-ms` flag),
//! records a [`SlowQuery`] with the statement text, the per-phase time
//! split, and — when available — the `EXPLAIN ANALYZE`-style operator
//! actuals of the executed plan. The ring keeps the most recent
//! [`SLOW_LOG_CAPACITY`] entries by default — configurable per database
//! via [`SlowLog::set_capacity`] (`SET slow_log_capacity`) — and every
//! eviction is counted in `slow_log_evictions_total` rather than dropped
//! silently. The `snapshot_stat_slow_queries` virtual table and the tests
//! read it back via [`SlowLog::entries`]. Like all obs state it is
//! in-memory only.

use crate::lock::Named;
use crate::metrics::{Counter, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default number of retained slow queries (oldest evicted beyond).
pub const SLOW_LOG_CAPACITY: usize = 32;

/// One logged slow statement.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Monotone sequence number (arrival order in its database's log).
    pub seq: u64,
    /// The statement text as executed.
    pub statement: String,
    /// Total wall time, milliseconds.
    pub total_ms: f64,
    /// Parse phase, milliseconds.
    pub parse_ms: f64,
    /// Bind phase, milliseconds.
    pub bind_ms: f64,
    /// Rewrite phase, milliseconds.
    pub rewrite_ms: f64,
    /// Index-maintenance phase, milliseconds.
    pub index_ms: f64,
    /// Execute phase, milliseconds.
    pub execute_ms: f64,
    /// Commit phase, milliseconds.
    pub commit_ms: f64,
    /// Result cardinality for queries, `None` for DML/DDL.
    pub rows: Option<u64>,
    /// Rendered operator actuals (`EXPLAIN ANALYZE` style), when the
    /// statement ran a plan.
    pub plan: Option<String>,
    /// Cancellation reason (`"statement timeout"`, `"killed by request"`,
    /// …) when the statement was cancelled rather than completed.
    pub cancelled: Option<String>,
}

#[derive(Debug)]
struct Log {
    ring: VecDeque<SlowQuery>,
    next_seq: u64,
    capacity: usize,
}

/// A database's slow-query ring and its eviction counter.
#[derive(Debug)]
pub struct SlowLog {
    log: Named<Log>,
    /// Entries pushed out of the ring by capacity pressure.
    evictions: Arc<Counter>,
}

impl SlowLog {
    /// An empty ring of [`SLOW_LOG_CAPACITY`] entries counting its
    /// evictions in `metrics`.
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        let log = Log {
            ring: VecDeque::new(),
            next_seq: 0,
            capacity: SLOW_LOG_CAPACITY,
        };
        SlowLog {
            log: Named::new("obs.slowlog", log),
            evictions: metrics.counter("slow_log_evictions_total"),
        }
    }

    /// Append one slow query to the ring (the `seq` field is assigned
    /// here; the caller's value is ignored). Evictions under capacity
    /// pressure are counted in `slow_log_evictions_total`.
    pub fn record(&self, mut q: SlowQuery) {
        let mut l = self.log.lock();
        q.seq = l.next_seq;
        l.next_seq += 1;
        while l.ring.len() >= l.capacity {
            l.ring.pop_front();
            self.evictions.inc();
        }
        l.ring.push_back(q);
    }

    /// Resize the ring (clamped to ≥ 1). Shrinking below the current
    /// length evicts the oldest entries, counting them.
    pub fn set_capacity(&self, capacity: usize) {
        let mut l = self.log.lock();
        l.capacity = capacity.max(1);
        while l.ring.len() > l.capacity {
            l.ring.pop_front();
            self.evictions.inc();
        }
    }

    /// The ring's current capacity.
    pub fn capacity(&self) -> usize {
        self.log.lock().capacity
    }

    /// Snapshot the retained slow queries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.log.lock().ring.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(text: &str, total_ms: f64) -> SlowQuery {
        SlowQuery {
            seq: 0,
            statement: text.to_string(),
            total_ms,
            parse_ms: 0.01,
            bind_ms: 0.02,
            rewrite_ms: 0.03,
            index_ms: 0.0,
            execute_ms: total_ms - 0.06,
            commit_ms: 0.0,
            rows: Some(7),
            plan: Some("Scan t (actual rows=7)".to_string()),
            cancelled: None,
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let log = SlowLog::new(&MetricsRegistry::new());
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            log.record(entry(&format!("q{i}"), 10.0 + i as f64));
        }
        let got = log.entries();
        assert_eq!(got.len(), SLOW_LOG_CAPACITY);
        // Oldest entries were evicted; order is arrival order.
        assert_eq!(got.first().unwrap().statement, "q5");
        assert_eq!(
            got.last().unwrap().statement,
            format!("q{}", SLOW_LOG_CAPACITY + 4)
        );
        assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(got[0].rows, Some(7));
        assert!(got[0].plan.as_deref().unwrap().contains("actual rows=7"));
    }

    #[test]
    fn capacity_is_configurable_and_evictions_are_counted() {
        let metrics = MetricsRegistry::new();
        let log = SlowLog::new(&metrics);
        log.set_capacity(4);
        assert_eq!(log.capacity(), 4);
        for i in 0..6 {
            log.record(entry(&format!("c{i}"), 1.0));
        }
        let got = log.entries();
        assert_eq!(got.len(), 4);
        assert_eq!(got.first().unwrap().statement, "c2");
        let evictions = metrics.counter("slow_log_evictions_total");
        assert_eq!(evictions.get(), 2, "two evictions counted");
        // Shrinking evicts (and counts) immediately; 0 clamps to 1.
        log.set_capacity(0);
        assert_eq!(log.capacity(), 1);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(evictions.get(), 5);
    }
}
