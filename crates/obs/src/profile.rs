//! Operator-level executor profiler: folded-stack wall-time attribution.
//!
//! After each query the session folds its per-node actuals into
//! operator stack paths — e.g. `Aggregate;Split;Scan` — each with its
//! samples (the node's calls) and *self* time (the node's time minus its
//! children's), and hands them to [`Profile::record`]. Paths accumulate in
//! the database's [`Profile`], rendered by [`Profile::render_folded`] in
//! the folded-stack format flamegraph tooling consumes (`path value`, one
//! line per path, values in microseconds of self time).
//!
//! Profiling is off by default, and the session folds nothing while
//! [`Profile::enabled`] is false. Attribution is wall-clock on the
//! statement's thread, which runs every operator.

use crate::lock::Named;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// A database's profiler: the on/off switch and the accumulated paths
/// (path → (samples, self ns)).
#[derive(Debug)]
pub struct Profile {
    on: AtomicBool,
    paths: Named<HashMap<String, (u64, u64)>>,
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            on: AtomicBool::new(false),
            paths: Named::new("obs.profile", HashMap::new()),
        }
    }
}

impl Profile {
    /// Switch profiling on (starting from an empty profile) or off (the
    /// accumulated paths stay readable).
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.paths.lock().clear();
        }
        self.on.store(on, Ordering::Relaxed);
    }

    /// Is operator profiling on?
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Adds one statement's folded paths (path → (samples, self ns)).
    pub fn record(&self, paths: impl IntoIterator<Item = (String, (u64, u64))>) {
        let mut acc = self.paths.lock();
        for (path, (samples, self_ns)) in paths {
            let e = acc.entry(path).or_insert((0, 0));
            e.0 += samples;
            e.1 += self_ns;
        }
    }

    /// Snapshot the accumulated paths, hottest (by self time) first; ties
    /// break on the path text so the order is deterministic.
    pub fn stats(&self) -> Vec<PathStat> {
        let mut stats: Vec<PathStat> = self
            .paths
            .lock()
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
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for stat in self.stats() {
            let _ = writeln!(out, "{} {}", stat.path, stat.self_ns / 1_000);
        }
        out
    }
}
