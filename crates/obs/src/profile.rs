//! Operator-level executor profiler: folded-stack wall-time attribution.
//!
//! After each statement the engine folds its per-node actuals into
//! operator stack paths — e.g. `Aggregate;Split;Scan` — each with its
//! samples (the node's calls) and *self* time (the node's time minus its
//! children's), and hands them to [`record_profile`]. Paths accumulate in
//! a process-global table rendered by [`render_folded`] in the
//! folded-stack format flamegraph tooling consumes (`path value`, one line
//! per path, values in microseconds of self time).
//!
//! Like tracing, profiling is off by default, and the engine folds
//! nothing while [`profiling_enabled`] is false. Attribution is wall-clock
//! on the dispatching thread — time the parallel sweep join spends in
//! worker threads lands as self time of the join operator, which is the
//! per-operator share we want.

use crate::lock::Named;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable operator profiling.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Is operator profiling enabled?
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Accumulated self time for one operator stack path.
#[derive(Debug, Clone)]
pub struct PathStat {
    /// `;`-joined operator names, root first (folded-stack convention).
    pub path: String,
    /// Number of operator calls folded into this path.
    pub samples: u64,
    /// Self time (exclusive of child operators), nanoseconds.
    pub self_ns: u64,
}

#[derive(Default)]
struct Accumulator {
    paths: HashMap<String, (u64, u64)>, // path -> (samples, self_ns)
}

fn accumulator() -> crate::lock::LockGuard<'static, Accumulator> {
    static GLOBAL: OnceLock<Named<Accumulator>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Named::new("obs.profile", Accumulator::default()))
        .lock()
}

/// Adds one statement's folded paths (path → (samples, self ns)) to the
/// accumulated profile.
pub fn record_profile(paths: impl IntoIterator<Item = (String, (u64, u64))>) {
    let mut acc = accumulator();
    for (path, (samples, self_ns)) in paths {
        let e = acc.paths.entry(path).or_insert((0, 0));
        e.0 += samples;
        e.1 += self_ns;
    }
}

/// Snapshot the accumulated paths, hottest (by self time) first; ties
/// break on the path text so the order is deterministic.
pub fn profile_stats() -> Vec<PathStat> {
    let acc = accumulator();
    let mut stats: Vec<PathStat> = acc
        .paths
        .iter()
        .map(|(path, &(samples, self_ns))| PathStat {
            path: path.clone(),
            samples,
            self_ns,
        })
        .collect();
    stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    stats
}

/// Render the accumulated profile in folded-stack format: one
/// `path value` line per path, values in integer microseconds of self
/// time (flamegraph tooling wants integers), hottest path first.
pub fn render_folded() -> String {
    let mut out = String::new();
    for stat in profile_stats() {
        let _ = writeln!(out, "{} {}", stat.path, stat.self_ns / 1_000);
    }
    out
}

/// Clear the accumulated profile (the enable switch is unaffected).
pub fn reset_profile() {
    accumulator().paths.clear();
}
