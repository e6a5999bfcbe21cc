//! Observability subsystem: metrics and introspection state.
//!
//! The runtime now spans seven layers (parse → bind → rewrite → indexed
//! execute → txn → WAL → checkpoint) and this crate is their single
//! telemetry story. It is hand-rolled over `std` only — the build
//! environment has no registry access, so no `prometheus`/`tracing`
//! dependencies — and deliberately sits at the *bottom* of the workspace
//! dependency graph so that every layer (index, engine, txn, wal, session)
//! can report into it.
//!
//! Five facilities, all owned by an [`Obs`] per database:
//!
//! * [`metrics`] — a thread-safe [`MetricsRegistry`] of atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket latency [`Histogram`]s
//!   (p50/p95/p99 extraction), rendered in Prometheus text exposition
//!   format by [`MetricsRegistry::render_text`] and readable in bulk via
//!   [`MetricsRegistry::snapshot`]. Recording is always-on and lock-free —
//!   a handful of relaxed atomic operations — so there is no "metrics off"
//!   switch to get wrong; each component resolves its handles once, when
//!   its database is built, so the registry lock is never touched per
//!   event.
//! * [`stmtstats`] — pg_stat_statements-style statement statistics:
//!   calls, rows, and total/mean/p95 latency per fingerprint (which the
//!   SQL parser builds; no SQL is read here) in a bounded LRU.
//! * [`slowlog`] — a bounded ring of statements that crossed the session's
//!   slow-query threshold, with phase splits and operator actuals.
//! * [`profile`] — the operator-level executor profiler: the session folds
//!   each statement's per-node actuals into operator stack paths with
//!   self wall time and hands them to [`Profile::record`]
//!   ([`Profile::render_folded`] emits flamegraph-compatible output).
//! * [`activity`] — the in-flight plane: a registry of live sessions and
//!   their current statement (phase, start time, live [`ResourceAccount`]
//!   counters), plus cooperative cancellation via per-statement
//!   [`CancelToken`]s (statement timeouts, resource limits, explicit
//!   kills). Feeds the `snapshot_stat_activity` and
//!   `snapshot_stat_progress` virtual tables and the shell's `.activity`.
//!   Also home of [`StatementError`], the one error type of the statement
//!   path — it lives here because this is the lowest crate the engine,
//!   the transaction manager, the session and the server all share.
//!
//! # Ownership
//!
//! Every database value builds one [`Obs`] and shares it (`Arc`) with
//! everything that serves it: its sessions, the engine's virtual tables
//! and profiler, its transaction manager, its server. Two databases in one
//! process share no metric, session, statistic, log entry or switch, so a
//! test that asserts an absolute value builds its own database and runs
//! in parallel with every other test. What one statement did — its phase
//! split, executed plan and commit split — is kept by the session that ran
//! it, not here (the shell's `.trace` renders it).

#![forbid(unsafe_code)]

pub mod activity;
pub mod lock;
pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod stmtstats;

pub use activity::{
    Activity, ActivityHandle, CancelKind, CancelToken, Phase, ResourceAccount, ResourceUsage,
    SessionSnapshot, StatementError,
};
pub use lock::{LockGuard, Named, NamedRw, ReadGuard, WriteGuard};
pub use metrics::{
    default_latency_bounds, process_start, Counter, Gauge, Histogram, MetricSample, MetricsRegistry,
};
pub use profile::{PathStat, Profile};
pub use slowlog::{SlowLog, SlowQuery, SLOW_LOG_CAPACITY};
pub use stmtstats::{StatementStat, StatementStats, FINGERPRINT_CAPACITY};

/// One database's observability state (see the crate docs' *Ownership*).
#[derive(Debug)]
pub struct Obs {
    /// The metrics registry every component of the database records into.
    pub metrics: MetricsRegistry,
    /// Live sessions, their session-id counter, and cancellation.
    pub activity: Activity,
    /// Statement fingerprint statistics (`snapshot_stat_statements`).
    pub statements: StatementStats,
    /// The slow-query ring (`snapshot_stat_slow_queries`).
    pub slow_log: SlowLog,
    /// The operator profiler and its switch (`.profile`).
    pub profile: Profile,
}

impl Default for Obs {
    fn default() -> Self {
        let metrics = MetricsRegistry::new();
        Obs {
            activity: Activity::new(&metrics),
            statements: StatementStats::new(&metrics),
            slow_log: SlowLog::new(&metrics),
            profile: Profile::default(),
            metrics,
        }
    }
}
