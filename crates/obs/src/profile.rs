//! Operator-level executor profiler: folded-stack wall-time attribution.
//!
//! The engine's dispatch loop brackets every operator it runs with a
//! [`ProfileSpan`]; the guard maintains a per-thread operator stack and,
//! on drop, attributes the frame's *self* time (inclusive elapsed minus
//! the time spent in child operators) to its full stack path — e.g.
//! `Aggregate;Split;Scan`. Paths accumulate in a process-global table
//! rendered by [`render_folded`] in the folded-stack format flamegraph
//! tooling consumes (`path value`, one line per path, values in
//! microseconds of self time).
//!
//! Like tracing, profiling is off by default: [`ProfileSpan::enter`] is a
//! single relaxed atomic load returning an inert guard when disabled, so
//! the engine can leave the instrumentation in its hot dispatch path.
//! Attribution is wall-clock on the dispatching thread — time the
//! parallel sweep join spends in worker threads lands as self time of the
//! join operator's frame, which is the per-operator share we want.

use crate::lock::Named;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable operator profiling.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Is operator profiling enabled?
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Accumulated self time for one operator stack path.
#[derive(Debug, Clone)]
pub struct PathStat {
    /// `;`-joined operator names, root first (folded-stack convention).
    pub path: String,
    /// Number of frames folded into this path.
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

/// RAII guard for one operator frame; see the module docs.
pub struct ProfileSpan {
    active: bool,
}

impl ProfileSpan {
    /// Push a frame named `name` onto this thread's operator stack. When
    /// profiling is disabled this is one relaxed atomic load and an inert
    /// guard.
    pub fn enter(name: &'static str) -> ProfileSpan {
        if !profiling_enabled() {
            return ProfileSpan { active: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        ProfileSpan { active: true }
    }
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let (path, self_ns) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().expect("profile stack underflow");
            let inclusive_ns = frame.start.elapsed().as_nanos() as u64;
            let self_ns = inclusive_ns.saturating_sub(frame.child_ns);
            let mut path = String::new();
            for f in s.iter() {
                path.push_str(f.name);
                path.push(';');
            }
            path.push_str(frame.name);
            if let Some(parent) = s.last_mut() {
                parent.child_ns += inclusive_ns;
            }
            (path, self_ns)
        });
        let mut acc = accumulator();
        let e = acc.paths.entry(path).or_insert((0, 0));
        e.0 += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_for(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_profiling_is_inert() {
        let _guard = crate::testing::serial_guard();
        set_profiling(false);
        reset_profile();
        {
            let _f = ProfileSpan::enter("noop");
        }
        assert!(profile_stats().is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_paths_nest() {
        let _guard = crate::testing::serial_guard();
        set_profiling(true);
        reset_profile();
        let wall = Instant::now();
        {
            let _root = ProfileSpan::enter("Aggregate");
            spin_for(200_000);
            {
                let _child = ProfileSpan::enter("Scan");
                spin_for(400_000);
            }
        }
        let wall_ns = wall.elapsed().as_nanos() as u64;
        set_profiling(false);
        let stats = profile_stats();
        let find = |p: &str| {
            stats
                .iter()
                .find(|s| s.path == p)
                .unwrap_or_else(|| panic!("missing path {p}: {stats:?}"))
                .clone()
        };
        let root = find("Aggregate");
        let child = find("Aggregate;Scan");
        assert_eq!(root.samples, 1);
        assert_eq!(child.samples, 1);
        assert!(child.self_ns >= 400_000, "child self time: {child:?}");
        // Root's self time excludes the child's 400 µs: the two self
        // times fit in the wall time (a root that counted the child would
        // overshoot it by those 400 µs). No absolute upper bound — a
        // preempted spin would fail it.
        assert!(
            root.self_ns >= 200_000 && root.self_ns + child.self_ns <= wall_ns,
            "root self time should exclude the child: {root:?} {child:?} wall {wall_ns}"
        );
        let folded = render_folded();
        assert!(folded.contains("Aggregate;Scan "));
        reset_profile();
        assert!(profile_stats().is_empty());
    }

    #[test]
    fn sibling_frames_fold_into_one_path() {
        let _guard = crate::testing::serial_guard();
        set_profiling(true);
        reset_profile();
        {
            let _root = ProfileSpan::enter("Join");
            for _ in 0..3 {
                let _s = ProfileSpan::enter("Scan");
                spin_for(50_000);
            }
        }
        set_profiling(false);
        let stats = profile_stats();
        let scans = stats.iter().find(|s| s.path == "Join;Scan").unwrap();
        assert_eq!(scans.samples, 3);
        assert!(scans.self_ns >= 150_000);
        reset_profile();
    }
}
