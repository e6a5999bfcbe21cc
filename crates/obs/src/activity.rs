//! Live activity: the in-flight observability and resource-governance
//! plane.
//!
//! Three cooperating pieces, std-only, owned by a database's
//! [`crate::Obs`]:
//!
//! * **The activity registry** ([`Activity`]) — every session registers an
//!   entry ([`Activity::register`]) describing what it is doing *right now*:
//!   backend kind, transaction state, current statement text +
//!   fingerprint, pipeline phase, start time, and live resource counters.
//!   The `snapshot_stat_activity` / `snapshot_stat_progress` virtual
//!   tables and the shell's `.activity` render [`Activity::snapshot`].
//! * **[`ResourceAccount`]** — a handful of relaxed atomics the engine
//!   bumps as it works (rows scanned/emitted, join pairs considered,
//!   index probes, approximate bytes materialized). Cheap enough to stay
//!   on while a statement runs, readable live from any thread.
//! * **[`CancelToken`]** — cooperative cancellation, checked by the
//!   engine at operator and batch boundaries (including inside parallel
//!   sweep-join workers). A statement dies when its wall-clock deadline
//!   passes (`statement_timeout`), a resource limit trips
//!   (`max_rows_scanned` / `max_result_rows`), or another session of the
//!   same database kills it ([`Activity::cancel`], surfaced as `.kill <id>`
//!   and `SELECT snapshot_cancel(<id>)`). The check returns
//!   [`StatementError::Cancelled`], so callers tell a cancellation from a
//!   genuine statement failure by matching the variant — in particular
//!   the session's conflict-retry loop must *not* retry a cancelled
//!   statement.
//!
//! Cancelled statements and timeouts are counted in the metrics registry
//! (`statements_cancelled_total`, `statement_timeouts_total`) by the
//! session layer via [`Activity::note_cancellation`].

use crate::lock::Named;
use crate::metrics::{process_start, Counter, MetricsRegistry};
use crate::stmtstats::fingerprint;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a statement was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// `statement_timeout` deadline passed.
    Timeout,
    /// Another session (or the shell) killed it explicitly.
    Killed,
    /// `max_rows_scanned` tripped.
    RowsScannedLimit,
    /// `max_result_rows` tripped.
    ResultRowsLimit,
}

impl CancelKind {
    fn code(self) -> u8 {
        match self {
            CancelKind::Timeout => 1,
            CancelKind::Killed => 2,
            CancelKind::RowsScannedLimit => 3,
            CancelKind::ResultRowsLimit => 4,
        }
    }

    fn from_code(code: u8) -> Option<CancelKind> {
        match code {
            1 => Some(CancelKind::Timeout),
            2 => Some(CancelKind::Killed),
            3 => Some(CancelKind::RowsScannedLimit),
            4 => Some(CancelKind::ResultRowsLimit),
            _ => None,
        }
    }

    /// Short reason text, stamped into errors and the slow log.
    pub fn reason(self) -> &'static str {
        match self {
            CancelKind::Timeout => "statement timeout",
            CancelKind::Killed => "killed by request",
            CancelKind::RowsScannedLimit => "max_rows_scanned exceeded",
            CancelKind::ResultRowsLimit => "max_result_rows exceeded",
        }
    }
}

/// Why a statement failed, for the callers that branch on it: the
/// session (roll back and count a cancellation; retry a conflict), and
/// the server (which wire frame to send). The class is fixed where it is
/// known — [`CancelToken::check`] and commit validation — never re-read
/// from the message. Everything below that path keeps `Result<_, String>`
/// and converts with `?` into [`StatementError::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementError {
    /// Cooperatively cancelled: timeout, kill, or resource limit. Never
    /// retried — the statement was aborted on purpose.
    Cancelled {
        /// What tripped the token.
        kind: CancelKind,
        /// The tripped limit, spelled out (`statement timeout (5 ms)
        /// exceeded`).
        reason: String,
    },
    /// The commit lost a first-committer-wins race (or a replay
    /// dependency moved); an autocommit statement may be retried.
    Conflict(String),
    /// Any other failure: parse, bind, constraint, I/O.
    Failed(String),
}

impl fmt::Display for StatementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementError::Cancelled { reason, .. } => {
                write!(f, "statement cancelled: {reason}")
            }
            StatementError::Conflict(msg) | StatementError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for StatementError {
    fn from(msg: String) -> Self {
        StatementError::Failed(msg)
    }
}

impl From<&str> for StatementError {
    fn from(msg: &str) -> Self {
        StatementError::Failed(msg.to_string())
    }
}

impl From<StatementError> for String {
    fn from(e: StatementError) -> String {
        e.to_string()
    }
}

/// Nanoseconds since the process-wide epoch ([`process_start`]) — the
/// base every activity timestamp and deadline is expressed in.
fn now_ns() -> u64 {
    process_start().elapsed().as_nanos() as u64
}

/// Live resource counters for one running statement: relaxed atomics the
/// engine bumps at operator and batch boundaries, readable from any
/// thread while the statement runs.
#[derive(Debug, Default)]
pub struct ResourceAccount {
    rows_scanned: AtomicU64,
    rows_emitted: AtomicU64,
    join_pairs: AtomicU64,
    index_probes: AtomicU64,
    bytes_materialized: AtomicU64,
}

/// A point-in-time copy of a [`ResourceAccount`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Rows read out of stored (or virtual) tables.
    pub rows_scanned: u64,
    /// Rows produced by operators (every operator's output counts).
    pub rows_emitted: u64,
    /// Join pairs considered (emitted or filtered).
    pub join_pairs: u64,
    /// Temporal-index probes (sweep inputs, tree stabs, coalesce accels).
    pub index_probes: u64,
    /// Approximate bytes of intermediate rows materialized.
    pub bytes_materialized: u64,
}

impl ResourceAccount {
    /// Add `n` scanned rows.
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` emitted rows.
    pub fn add_rows_emitted(&self, n: u64) {
        self.rows_emitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` considered join pairs.
    pub fn add_join_pairs(&self, n: u64) {
        self.join_pairs.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` index probes.
    pub fn add_index_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` approximate materialized bytes.
    pub fn add_bytes_materialized(&self, n: u64) {
        self.bytes_materialized.fetch_add(n, Ordering::Relaxed);
    }

    /// Rows scanned so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Rows emitted so far.
    pub fn rows_emitted(&self) -> u64 {
        self.rows_emitted.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn usage(&self) -> ResourceUsage {
        ResourceUsage {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_emitted: self.rows_emitted.load(Ordering::Relaxed),
            join_pairs: self.join_pairs.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            bytes_materialized: self.bytes_materialized.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (statement start).
    pub fn reset(&self) {
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.rows_emitted.store(0, Ordering::Relaxed);
        self.join_pairs.store(0, Ordering::Relaxed);
        self.index_probes.store(0, Ordering::Relaxed);
        self.bytes_materialized.store(0, Ordering::Relaxed);
    }
}

/// Per-statement cooperative cancellation state. The session arms it at
/// statement start ([`CancelToken::arm`]); the engine calls
/// [`CancelToken::check`] at operator and batch boundaries; anybody with
/// the session id can kill the running statement through
/// [`Activity::cancel`].
#[derive(Debug, Default)]
pub struct CancelToken {
    /// `epoch << 8 | code`: the statement epoch, bumped by every
    /// [`CancelToken::arm`] and [`CancelToken::disarm`], and the
    /// cancellation reason code (0 = not cancelled; see
    /// [`CancelKind::code`]). One word, so a kill aimed at one statement
    /// ([`CancelToken::kill`]) can never land on the next.
    state: AtomicU64,
    /// Deadline in nanoseconds since [`process_start`] (0 = none).
    deadline_ns: AtomicU64,
    /// Statement timeout in milliseconds, kept for the error text.
    timeout_ms: AtomicU64,
    /// Row-scan budget (0 = unlimited).
    max_rows_scanned: AtomicU64,
    /// Result-row budget (0 = unlimited).
    max_result_rows: AtomicU64,
}

impl CancelToken {
    /// Re-arm for a new statement: start a new epoch with no cancellation,
    /// set the wall-clock deadline (`None` = no timeout) and resource
    /// limits (`None` = unlimited).
    pub fn arm(
        &self,
        timeout_ms: Option<u64>,
        max_rows_scanned: Option<u64>,
        max_result_rows: Option<u64>,
    ) {
        let deadline = timeout_ms
            .filter(|&ms| ms > 0)
            .map(|ms| now_ns().saturating_add(ms.saturating_mul(1_000_000)))
            .unwrap_or(0);
        self.deadline_ns.store(deadline, Ordering::Relaxed);
        self.timeout_ms
            .store(timeout_ms.unwrap_or(0), Ordering::Relaxed);
        self.max_rows_scanned
            .store(max_rows_scanned.unwrap_or(0), Ordering::Relaxed);
        self.max_result_rows
            .store(max_result_rows.unwrap_or(0), Ordering::Relaxed);
        self.next_epoch();
    }

    /// Disarm (statement finished): a new epoch, so a kill aimed at the
    /// finished statement cannot poison the session's *next* one.
    pub fn disarm(&self) {
        self.deadline_ns.store(0, Ordering::Relaxed);
        self.max_rows_scanned.store(0, Ordering::Relaxed);
        self.max_result_rows.store(0, Ordering::Relaxed);
        self.next_epoch();
    }

    /// `(epoch + 1) << 8`: the code bits all set, plus one, carry over.
    fn next_epoch(&self) {
        let next = |w| Some((w | 0xff) + 1);
        let _ = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, next);
    }

    /// The current statement epoch (what [`CancelToken::kill`] targets).
    pub fn epoch(&self) -> u64 {
        self.state.load(Ordering::Acquire) >> 8
    }

    /// Trip the current statement with `kind`. First writer wins; later
    /// trips keep the original reason.
    pub fn cancel(&self, kind: CancelKind) {
        let trip = |w: u64| (w & 0xff == 0).then_some(w | u64::from(kind.code()));
        let _ = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, trip);
    }

    /// Kill the statement of `epoch`: trips the token only while that
    /// statement is still the current one and not yet cancelled. Returns
    /// whether it did.
    pub fn kill(&self, epoch: u64) -> bool {
        let live = epoch << 8;
        let killed = live | u64::from(CancelKind::Killed.code());
        self.state
            .compare_exchange(live, killed, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Why the current statement was cancelled, if it was.
    pub fn cancel_kind(&self) -> Option<CancelKind> {
        CancelKind::from_code(self.state.load(Ordering::Acquire) as u8)
    }

    /// The cancellation error for `kind` (built only once tripped).
    fn error(&self, kind: CancelKind) -> StatementError {
        let reason = match kind {
            CancelKind::Timeout => format!(
                "statement timeout ({} ms) exceeded",
                self.timeout_ms.load(Ordering::Relaxed)
            ),
            CancelKind::Killed => "killed by request".to_string(),
            CancelKind::RowsScannedLimit => format!(
                "max_rows_scanned ({}) exceeded",
                self.max_rows_scanned.load(Ordering::Relaxed)
            ),
            CancelKind::ResultRowsLimit => format!(
                "max_result_rows ({}) exceeded",
                self.max_result_rows.load(Ordering::Relaxed)
            ),
        };
        StatementError::Cancelled { kind, reason }
    }

    /// The cooperative check: returns the cancellation error if the token
    /// was tripped, the deadline passed, or `account` exceeds a limit.
    /// Cheap when nothing is armed — three relaxed loads and (only with a
    /// deadline armed) one clock read.
    pub fn check(&self, account: &ResourceAccount) -> Result<(), StatementError> {
        if let Some(kind) = self.cancel_kind() {
            return Err(self.error(kind));
        }
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline != 0 && now_ns() >= deadline {
            self.cancel(CancelKind::Timeout);
            return Err(self.error(CancelKind::Timeout));
        }
        let max_scanned = self.max_rows_scanned.load(Ordering::Relaxed);
        if max_scanned != 0 && account.rows_scanned() > max_scanned {
            self.cancel(CancelKind::RowsScannedLimit);
            return Err(self.error(CancelKind::RowsScannedLimit));
        }
        let max_result = self.max_result_rows.load(Ordering::Relaxed);
        if max_result != 0 && account.rows_emitted() > max_result {
            self.cancel(CancelKind::ResultRowsLimit);
            return Err(self.error(CancelKind::ResultRowsLimit));
        }
        Ok(())
    }
}

/// The pipeline phase a session is in, stored as one atomic byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Between statements.
    Idle,
    /// Parsing statement text.
    Parse,
    /// Binding names and types.
    Bind,
    /// `SEQ VT` rewrite / plan compilation.
    Rewrite,
    /// Plan execution.
    Execute,
    /// Commit (validate, WAL, publish).
    Commit,
}

impl Phase {
    fn code(self) -> u8 {
        match self {
            Phase::Idle => 0,
            Phase::Parse => 1,
            Phase::Bind => 2,
            Phase::Rewrite => 3,
            Phase::Execute => 4,
            Phase::Commit => 5,
        }
    }

    fn from_code(code: u8) -> Phase {
        match code {
            1 => Phase::Parse,
            2 => Phase::Bind,
            3 => Phase::Rewrite,
            4 => Phase::Execute,
            5 => Phase::Commit,
            _ => Phase::Idle,
        }
    }

    /// The phase name as shown in `snapshot_stat_activity`.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Parse => "parse",
            Phase::Bind => "bind",
            Phase::Rewrite => "rewrite",
            Phase::Execute => "execute",
            Phase::Commit => "commit",
        }
    }
}

/// Session states shown in `snapshot_stat_activity`.
const STATE_IDLE: u8 = 0;
const STATE_ACTIVE: u8 = 1;

/// One live session's registry entry. Shared (`Arc`) between the owning
/// session's handle and snapshot readers.
#[derive(Debug)]
struct SessionEntry {
    id: u64,
    backend: &'static str,
    state: AtomicU8,
    in_txn: AtomicBool,
    phase: AtomicU8,
    /// Current (or most recent) statement text + fingerprint.
    statement: Named<Option<(String, String)>>,
    /// Peer address for server-backed sessions (`None` for local ones).
    remote_addr: Named<Option<String>>,
    /// When the current statement started, ns since [`process_start`]
    /// (0 = never ran one).
    statement_started_ns: AtomicU64,
    /// Statements this session has finished.
    statements_run: AtomicUsize,
    account: Arc<ResourceAccount>,
    token: Arc<CancelToken>,
}

/// A point-in-time copy of one session's activity, as rendered by the
/// `snapshot_stat_activity` / `snapshot_stat_progress` virtual tables.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Session id.
    pub session_id: u64,
    /// Backend kind (`"owned"` or `"shared"`).
    pub backend: &'static str,
    /// Peer address (`host:port`) when the session serves a network
    /// client; `None` for local sessions.
    pub remote_addr: Option<String>,
    /// `"active"` (statement running) or `"idle"`.
    pub state: &'static str,
    /// Whether an explicit transaction is open.
    pub in_txn: bool,
    /// Current pipeline phase.
    pub phase: Phase,
    /// Current (or most recent) statement text.
    pub statement: Option<String>,
    /// The statement's normalized fingerprint.
    pub fingerprint: Option<String>,
    /// Milliseconds since the current statement started (for idle
    /// sessions: how long the last statement ran until now — `None` when
    /// the session never ran one).
    pub elapsed_ms: Option<f64>,
    /// Statements finished so far.
    pub statements_run: u64,
    /// Live resource counters of the current statement.
    pub usage: ResourceUsage,
}

type Registry = BTreeMap<u64, Arc<SessionEntry>>;

/// A database's live-session registry, its session-id counter, and the
/// cancellation counters (see the module docs).
#[derive(Debug)]
pub struct Activity {
    sessions: Arc<Named<Registry>>,
    next_id: AtomicU64,
    /// Every cancelled statement, whatever tripped it.
    cancelled: Arc<Counter>,
    /// The `statement_timeout` subset of cancellations.
    timeouts: Arc<Counter>,
}

/// The owning side of a registry entry, held by the session; dropping it
/// deregisters the session.
#[derive(Debug)]
pub struct ActivityHandle {
    entry: Arc<SessionEntry>,
    sessions: Arc<Named<Registry>>,
}

impl Drop for ActivityHandle {
    fn drop(&mut self) {
        self.sessions.lock().remove(&self.entry.id);
    }
}

impl ActivityHandle {
    /// This session's id.
    pub fn session_id(&self) -> u64 {
        self.entry.id
    }

    /// The statement's live resource counters (shared with the engine).
    pub fn account(&self) -> Arc<ResourceAccount> {
        Arc::clone(&self.entry.account)
    }

    /// The statement's cancellation token (shared with the engine).
    pub fn token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.entry.token)
    }

    /// Statement start: record the text, reset the counters, and arm the
    /// token with the session's timeout and resource limits.
    pub fn begin_statement(
        &self,
        text: &str,
        timeout_ms: Option<u64>,
        max_rows_scanned: Option<u64>,
        max_result_rows: Option<u64>,
    ) {
        let fp = fingerprint(text);
        *self.entry.statement.lock() = Some((text.to_string(), fp));
        self.entry
            .statement_started_ns
            .store(now_ns(), Ordering::Relaxed);
        self.entry.account.reset();
        self.entry
            .token
            .arm(timeout_ms, max_rows_scanned, max_result_rows);
        self.entry
            .phase
            .store(Phase::Parse.code(), Ordering::Relaxed);
        self.entry.state.store(STATE_ACTIVE, Ordering::Release);
    }

    /// Statement end: back to idle (the statement text stays visible as
    /// "most recent"), and the token is disarmed so a late `.kill` cannot
    /// leak into the next statement.
    pub fn end_statement(&self) {
        self.entry.token.disarm();
        self.entry
            .phase
            .store(Phase::Idle.code(), Ordering::Relaxed);
        self.entry.state.store(STATE_IDLE, Ordering::Release);
        self.entry.statements_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Update the pipeline phase shown in `snapshot_stat_activity`.
    pub fn set_phase(&self, phase: Phase) {
        self.entry.phase.store(phase.code(), Ordering::Relaxed);
    }

    /// Update the transaction-state flag.
    pub fn set_in_txn(&self, in_txn: bool) {
        self.entry.in_txn.store(in_txn, Ordering::Relaxed);
    }

    /// Stamp the peer address (`host:port`) of the network client this
    /// session serves. Shown as `remote_addr` in `snapshot_stat_activity`
    /// so `.kill <id>` / `snapshot_cancel(id)` work as an admin plane
    /// against remote connections.
    pub fn set_remote_addr(&self, addr: &str) {
        *self.entry.remote_addr.lock() = Some(addr.to_string());
    }
}

impl Activity {
    /// An empty registry whose cancellation counters live in `metrics`.
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        Activity {
            sessions: Arc::new(Named::new("obs.activity.registry", Registry::new())),
            next_id: AtomicU64::new(1),
            cancelled: metrics.counter("statements_cancelled_total"),
            timeouts: metrics.counter("statement_timeouts_total"),
        }
    }

    /// Register a new live session of the given backend kind; the returned
    /// handle deregisters it on drop.
    pub fn register(&self, backend: &'static str) -> ActivityHandle {
        let entry = Arc::new(SessionEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            backend,
            state: AtomicU8::new(STATE_IDLE),
            in_txn: AtomicBool::new(false),
            phase: AtomicU8::new(Phase::Idle.code()),
            statement: Named::new("obs.activity.statement", None),
            remote_addr: Named::new("obs.activity.remote_addr", None),
            statement_started_ns: AtomicU64::new(0),
            statements_run: AtomicUsize::new(0),
            account: Arc::new(ResourceAccount::default()),
            token: Arc::new(CancelToken::default()),
        });
        self.sessions.lock().insert(entry.id, Arc::clone(&entry));
        ActivityHandle {
            entry,
            sessions: Arc::clone(&self.sessions),
        }
    }

    /// Kill the statement running in session `id`: trips its cancel token,
    /// and the statement unwinds at its next cooperative check. Returns
    /// `true` if a running statement was cancelled; killing an idle (or
    /// unknown) session is a clean no-op returning `false`, and so is a
    /// kill that loses the race with the statement's end — it never lands
    /// on the session's next statement.
    pub fn cancel(&self, id: u64) -> bool {
        let Some(entry) = self.sessions.lock().get(&id).cloned() else {
            return false;
        };
        // Epoch first: if the state then says active, it is this statement's or older.
        let epoch = entry.token.epoch();
        entry.state.load(Ordering::Acquire) == STATE_ACTIVE && entry.token.kill(epoch)
    }

    /// Count one cancelled statement (called once per cancelled statement
    /// by the session layer, never per worker).
    pub fn note_cancellation(&self, kind: CancelKind) {
        self.cancelled.inc();
        if kind == CancelKind::Timeout {
            self.timeouts.inc();
        }
    }

    /// A point-in-time copy of every live session, ascending by session id.
    pub fn snapshot(&self) -> Vec<SessionSnapshot> {
        let entries: Vec<Arc<SessionEntry>> = self.sessions.lock().values().cloned().collect();
        let now = now_ns();
        entries
            .iter()
            .map(|e| {
                let (statement, fingerprint) = e
                    .statement
                    .lock()
                    .clone()
                    .map(|(s, f)| (Some(s), Some(f)))
                    .unwrap_or((None, None));
                let started = e.statement_started_ns.load(Ordering::Relaxed);
                let remote_addr = e.remote_addr.lock().clone();
                SessionSnapshot {
                    session_id: e.id,
                    backend: e.backend,
                    remote_addr,
                    state: if e.state.load(Ordering::Acquire) == STATE_ACTIVE {
                        "active"
                    } else {
                        "idle"
                    },
                    in_txn: e.in_txn.load(Ordering::Relaxed),
                    phase: Phase::from_code(e.phase.load(Ordering::Relaxed)),
                    statement,
                    fingerprint,
                    elapsed_ms: (started > 0).then(|| now.saturating_sub(started) as f64 / 1e6),
                    statements_run: e.statements_run.load(Ordering::Relaxed) as u64,
                    usage: e.account.usage(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity() -> Activity {
        Activity::new(&MetricsRegistry::new())
    }

    #[test]
    fn register_snapshot_deregister() {
        let activity = activity();
        let h = activity.register("owned");
        let id = h.session_id();
        let snap = activity.snapshot();
        let me = snap.iter().find(|s| s.session_id == id).expect("listed");
        assert_eq!(me.backend, "owned");
        assert_eq!(me.state, "idle");
        assert!(me.remote_addr.is_none());
        h.set_remote_addr("127.0.0.1:4777");
        let snap = activity.snapshot();
        let me = snap.iter().find(|s| s.session_id == id).expect("listed");
        assert_eq!(me.remote_addr.as_deref(), Some("127.0.0.1:4777"));
        assert_eq!(me.phase, Phase::Idle);
        assert!(me.statement.is_none());
        assert!(me.elapsed_ms.is_none());
        h.begin_statement("SELECT x FROM t WHERE y = 7", None, None, None);
        h.set_phase(Phase::Execute);
        let snap = activity.snapshot();
        let me = snap.iter().find(|s| s.session_id == id).expect("listed");
        assert_eq!(me.state, "active");
        assert_eq!(me.phase, Phase::Execute);
        assert_eq!(me.statement.as_deref(), Some("SELECT x FROM t WHERE y = 7"));
        assert_eq!(
            me.fingerprint.as_deref(),
            Some("select x from t where y = ?")
        );
        assert!(me.elapsed_ms.is_some());
        h.end_statement();
        drop(h);
        assert!(!activity.snapshot().iter().any(|s| s.session_id == id));
    }

    #[test]
    fn token_trips_on_deadline_kill_and_limits() {
        let account = ResourceAccount::default();
        let token = CancelToken::default();
        token.arm(None, None, None);
        assert!(token.check(&account).is_ok());

        // Each trip is matched on its kind; the returned `to_string()`
        // pins the user-visible text (shell, wire, CI greps) once per kind.
        let tripped = |expect: CancelKind| {
            let err = token.check(&account).unwrap_err();
            assert!(
                matches!(err, StatementError::Cancelled { kind, .. } if kind == expect),
                "{err:?}"
            );
            assert_eq!(token.cancel_kind(), Some(expect));
            err.to_string()
        };

        // Explicit kill.
        token.cancel(CancelKind::Killed);
        let text = tripped(CancelKind::Killed);
        assert_eq!(text, "statement cancelled: killed by request");
        // First reason sticks.
        token.cancel(CancelKind::Timeout);
        assert_eq!(token.cancel_kind(), Some(CancelKind::Killed));

        // Re-arming clears it.
        token.arm(Some(0), None, None); // 0 = no timeout
        assert!(token.check(&account).is_ok());

        // An already-passed deadline trips as a timeout.
        token.arm(Some(1), None, None);
        std::thread::sleep(std::time::Duration::from_millis(3));
        let text = tripped(CancelKind::Timeout);
        assert_eq!(
            text,
            "statement cancelled: statement timeout (1 ms) exceeded"
        );

        // Resource limits.
        token.arm(None, Some(10), None);
        account.reset();
        account.add_rows_scanned(11);
        let text = tripped(CancelKind::RowsScannedLimit);
        assert_eq!(text, "statement cancelled: max_rows_scanned (10) exceeded");
        token.arm(None, None, Some(5));
        account.reset();
        account.add_rows_emitted(6);
        let text = tripped(CancelKind::ResultRowsLimit);
        assert_eq!(text, "statement cancelled: max_result_rows (5) exceeded");

        token.disarm();
        assert!(token.check(&account).is_ok());
    }

    #[test]
    fn cancel_session_is_a_no_op_on_idle_and_unknown_sessions() {
        let activity = activity();
        let h = activity.register("shared");
        let id = h.session_id();
        assert!(!activity.cancel(id), "idle session: no-op");
        assert!(!activity.cancel(u64::MAX), "unknown session: no-op");
        h.begin_statement("SELECT 1", None, None, None);
        assert!(activity.cancel(id), "active session: cancelled");
        let err = h.token().check(&h.account()).unwrap_err();
        let killed =
            matches!(err, StatementError::Cancelled { kind, .. } if kind == CancelKind::Killed);
        assert!(killed, "{err:?}");
        h.end_statement();
        // The kill must not leak into the next statement.
        h.begin_statement("SELECT 2", None, None, None);
        assert!(h.token().check(&h.account()).is_ok());
        h.end_statement();
    }

    /// A kill aimed at a statement that has already ended must not land on
    /// the session's next statement: the interleaving `Activity::cancel`
    /// races against, driven by hand.
    #[test]
    fn a_stale_kill_misses_the_next_statement() {
        let activity = activity();
        let h = activity.register("shared");
        let (token, account) = (h.token(), h.account());
        h.begin_statement("SELECT 1", None, None, None);
        let stale = token.epoch();
        h.end_statement();
        h.begin_statement("SELECT 2", None, None, None);
        assert!(!token.kill(stale), "the statement it aimed at is gone");
        assert!(token.check(&account).is_ok());
        assert!(token.kill(token.epoch()), "the live statement is killable");
        let err = token.check(&account).unwrap_err();
        let killed =
            matches!(err, StatementError::Cancelled { kind, .. } if kind == CancelKind::Killed);
        assert!(killed, "{err:?}");
        // Timeouts and limits still trip the current epoch.
        h.end_statement();
        h.begin_statement("SELECT 3", None, Some(1), None);
        account.add_rows_scanned(2);
        assert!(token.check(&account).is_err());
        h.end_statement();
    }

    #[test]
    fn accounts_accumulate_and_reset() {
        let a = ResourceAccount::default();
        a.add_rows_scanned(5);
        a.add_rows_emitted(3);
        a.add_join_pairs(7);
        a.add_index_probes(2);
        a.add_bytes_materialized(640);
        let u = a.usage();
        assert_eq!(u.rows_scanned, 5);
        assert_eq!(u.rows_emitted, 3);
        assert_eq!(u.join_pairs, 7);
        assert_eq!(u.index_probes, 2);
        assert_eq!(u.bytes_materialized, 640);
        a.reset();
        assert_eq!(a.usage(), ResourceUsage::default());
    }
}
