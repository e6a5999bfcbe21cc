//! Observability subsystem: metrics, tracing, and introspection state.
//!
//! The runtime now spans seven layers (parse → bind → rewrite → indexed
//! execute → txn → WAL → checkpoint) and this crate is their single
//! telemetry story. It is hand-rolled over `std` only — the build
//! environment has no registry access, so no `prometheus`/`tracing`
//! dependencies — and deliberately sits at the *bottom* of the workspace
//! dependency graph so that every layer (index, engine, txn, wal, session)
//! can report into it.
//!
//! Six facilities:
//!
//! * [`metrics`] — a global, thread-safe [`MetricsRegistry`] of atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket latency [`Histogram`]s
//!   (p50/p95/p99 extraction), rendered in Prometheus text exposition
//!   format by [`MetricsRegistry::render_text`] and readable in bulk via
//!   [`MetricsRegistry::snapshot`]. Recording is always-on and lock-free —
//!   a handful of relaxed atomic operations — so there is no "metrics off"
//!   switch to get wrong; hot paths pin their handles in
//!   [`LazyCounter`]/[`LazyHistogram`] statics so the registry lock is
//!   touched once per process, not per event.
//! * [`trace`] — lightweight tracing spans: [`Span::enter`] returns an
//!   RAII guard that, *when tracing is enabled*, records its lifetime into
//!   a bounded per-thread ring buffer; [`take_thread_trace`] assembles the
//!   buffer into a per-query span tree. When tracing is disabled (the
//!   default) `Span::enter` is a single relaxed atomic load returning an
//!   inert guard — no clock read, no allocation.
//! * [`stmtstats`] — pg_stat_statements-style statement statistics:
//!   normalized query [`fingerprint`]s with per-fingerprint calls, rows,
//!   and total/mean/p95 latency in a bounded LRU.
//! * [`slowlog`] — a bounded ring of statements that crossed the session's
//!   slow-query threshold, with phase splits and operator actuals.
//! * [`profile`] — the operator-level executor profiler: the engine folds
//!   each statement's per-node actuals into operator stack paths with
//!   self wall time and hands them to [`record_profile`]
//!   ([`render_folded`] emits flamegraph-compatible output).
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
//! # Testing against process-global state
//!
//! The registry, statement stats, slow log, and profiler are process
//! globals, and `cargo test` runs tests in parallel threads — a test that
//! asserts an *absolute* counter value races with its neighbours. The
//! convention, used throughout this workspace:
//!
//! * Prefer **delta assertions** on metric values (`get()` before, assert
//!   `>` after) over absolute equality, and tolerate concurrent bumps.
//! * When a test needs exclusive access to global observability state
//!   (absolute equality, `reset()`, toggling tracing/profiling), take
//!   [`testing::serial_guard()`] for its whole body so such tests
//!   serialize against each other.
//! * For statement stats, use table/column names unique to the test so
//!   its fingerprints cannot collide with other tests' statements.

pub mod activity;
pub mod lock;
pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod stmtstats;
pub mod trace;

pub use activity::{
    cancel_session, note_cancellation, register_session, sessions_snapshot, ActivityHandle,
    CancelKind, CancelToken, Phase, ResourceAccount, ResourceUsage, SessionSnapshot,
    StatementError,
};
pub use lock::{LockGuard, Named, NamedRw, ReadGuard, WriteGuard};
pub use metrics::{
    default_latency_bounds, process_start, refresh_process_metrics, registry, Counter, Gauge,
    Histogram, LazyCounter, LazyHistogram, MetricSample, MetricsRegistry,
};
pub use profile::{
    profile_stats, profiling_enabled, record_profile, render_folded, reset_profile, set_profiling,
    PathStat,
};
pub use slowlog::{
    record_slow_query, reset_slow_log, set_slow_log_capacity, slow_log_capacity, slow_queries,
    SlowQuery, SLOW_LOG_CAPACITY,
};
pub use stmtstats::{
    fingerprint, record_statement, reset_statement_stats, statement_stats, StatementStat,
    FINGERPRINT_CAPACITY,
};
pub use trace::{
    reset_thread_trace, set_tracing, take_thread_trace, tracing_enabled, Span, SpanNode,
    SpanRecord, SpanTree,
};

/// Test-support utilities; see the crate docs' *Testing against
/// process-global state* section.
pub mod testing {
    /// A process-global lock serializing tests that need exclusive access
    /// to global observability state (absolute-value assertions, registry
    /// resets, tracing/profiling toggles). A panic while holding the
    /// guard poisons nothing observable — the lock is recovered. Declared
    /// as `obs.test_serial` (rank 0): it is held across whole test bodies,
    /// so it must be outermost in `docs/lock_order.md`.
    pub fn serial_guard() -> crate::lock::LockGuard<'static, ()> {
        static LOCK: crate::Named<()> = crate::Named::new("obs.test_serial", ());
        LOCK.lock()
    }
}
