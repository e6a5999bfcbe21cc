//! Observability bench: where does multi-reader time actually go, and
//! what does the instrumentation itself cost?
//!
//! Two parts, one `BENCH_observe.json` at the repository root:
//!
//! * **Attribution** — re-runs the `BENCH_txn.json` multi-reader read
//!   workload (N reader threads, each running indexed `SEQ VT` queries
//!   over a shared database) with the metrics registry on, and splits the
//!   aggregate CPU time across pipeline components from registry deltas:
//!   snapshot acquisition (`txn_snapshot_seconds`), index refresh
//!   (`session_index_seconds`), compile (`session_parse/bind/rewrite`),
//!   execute (`session_execute_seconds`), and commit-mutex wait
//!   (`txn_commit_wait_seconds`). The component with the largest share at
//!   the highest reader count is named as the flat-throughput bottleneck.
//! * **Overhead** — the parallel-join workload's sequential sweep, run
//!   with tracing off (the default) and on. The tracing-off median is
//!   compared against the `sequential_s` recorded in
//!   `BENCH_parallel_join.json` (the un-instrumented figure CI produced
//!   moments earlier); if instrumentation costs more than
//!   `OBSERVE_OVERHEAD_MAX_PCT` (default 3%), the bench fails. The
//!   spans-on run gets its own, laxer gate: tracing-on may cost at most
//!   `OBSERVE_SPAN_OVERHEAD_MAX_PCT` (default 8%) over tracing-off.
//! * **Decomposition** — the same workload run once under the operator
//!   profiler: the execute-dominant verdict from the attribution is
//!   broken down into per-operator self-time shares (folded stack
//!   paths), emitted as `operator_decomposition` in the JSON.
//!
//! The run also asserts that the registry's text exposition passes
//! [`bench_harness::expofmt::check_exposition`] — the same dump the
//! shell's `.metrics` prints — including the `snapshot_build_info`
//! info gauge and the process uptime metric.

use algebra::{Expr, JoinAlgo, Plan};
use bench_harness::{execute_with_indexes, expofmt, meta::BenchMeta};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::random::{random_period_table, RandomTableSpec};
use engine::Engine;
use index::IndexCatalog;
use snapshot_obs as obs;
use snapshot_session::SharedDatabase;
use storage::Catalog;
use timeline::TimeDomain;

// The BENCH_txn read workload, repeated here verbatim so the attribution
// measures the same queries whose throughput flattens there.
const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const QUERIES_PER_THREAD: usize = 8;
const READ_ROWS: usize = 4_000;
/// Measured rounds per reader count.
const ROUNDS: usize = 6;
const CREATE: &str = "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)";
const QUERY: &str = "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)";

// The parallel_join bench's sequential workload, repeated here so the
// overhead comparison runs the identical computation (keep in sync with
// benches/parallel_join.rs).
const PJ_ROWS: usize = 30_000;
const PJ_DOMAIN: i64 = 60_000;
const PJ_MAX_LEN: i64 = 40;

/// The components the registry can attribute reader time to.
const COMPONENTS: [(&str, &[&str]); 5] = [
    ("snapshot_acquire", &["txn_snapshot_seconds"]),
    ("index_refresh", &["session_index_seconds"]),
    (
        "compile",
        &[
            "session_parse_seconds",
            "session_bind_seconds",
            "session_rewrite_seconds",
        ],
    ),
    ("execute", &["session_execute_seconds"]),
    ("commit_wait", &["txn_commit_wait_seconds"]),
];

fn hist_sum(name: &str) -> f64 {
    obs::registry()
        .get_histogram(name)
        .map(|h| h.sum())
        .unwrap_or(0.0)
}

fn component_sums() -> [f64; COMPONENTS.len()] {
    let mut out = [0.0; COMPONENTS.len()];
    for (slot, (_, names)) in out.iter_mut().zip(COMPONENTS) {
        *slot = names.iter().map(|n| hist_sum(n)).sum();
    }
    out
}

/// An in-memory shared database with `rows` rows and fresh committed
/// indexes (the `BENCH_txn` seed).
fn seeded_shared(rows: usize) -> SharedDatabase {
    let shared = SharedDatabase::in_memory();
    let mut s = shared.session();
    s.execute(CREATE).unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(256) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&i| {
                let ts = (i % 97) as i64;
                format!("('p{}', 'S{}', {ts}, {})", i % 31, i % 5, ts + 5)
            })
            .collect();
        s.execute(&format!("INSERT INTO works VALUES {}", values.join(", ")))
            .unwrap();
    }
    shared.refresh_indexes(None);
    shared
}

fn run_reader_round(shared: &SharedDatabase, n: usize) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = shared.clone();
                scope.spawn(move || {
                    let mut s = shared.session();
                    for _ in 0..QUERIES_PER_THREAD {
                        let r = s.execute(QUERY).unwrap();
                        assert!(r.rows().is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

/// One attribution entry per reader count, plus the name of the dominant
/// component at the highest count.
fn attribution() -> (Vec<String>, String) {
    let shared = seeded_shared(READ_ROWS);
    run_reader_round(&shared, 1); // warm: indexes fresh, caches hot
    let mut entries = Vec::new();
    let mut bottleneck = String::from("unknown");
    for &n in &READER_COUNTS {
        let before = component_sums();
        let started = std::time::Instant::now();
        for _ in 0..ROUNDS {
            run_reader_round(&shared, n);
        }
        let wall = started.elapsed().as_secs_f64();
        let after = component_sums();
        let deltas: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let cpu_total: f64 = deltas.iter().sum();
        let qps = (ROUNDS * n * QUERIES_PER_THREAD) as f64 / wall;
        let parts: Vec<String> = COMPONENTS
            .iter()
            .zip(&deltas)
            .map(|((name, _), d)| {
                format!(
                    "\"{name}_s\": {d:.6e}, \"{name}_share\": {:.3}",
                    if cpu_total > 0.0 { d / cpu_total } else { 0.0 }
                )
            })
            .collect();
        entries.push(format!(
            "    {{\"readers\": {n}, \"queries_per_s\": {qps:.0}, \
             \"wall_s\": {wall:.6e}, \"attributed_cpu_s\": {cpu_total:.6e}, {}}}",
            parts.join(", ")
        ));
        // The flat region is the highest reader count; name whatever
        // dominates the attributed time there.
        let (mut max_name, mut max_d) = ("unknown", f64::MIN);
        for ((name, _), d) in COMPONENTS.iter().zip(&deltas) {
            if *d > max_d {
                (max_name, max_d) = (name, *d);
            }
        }
        bottleneck = max_name.to_string();
    }
    (entries, bottleneck)
}

/// The parallel_join sequential workload: a pure interval-overlap join
/// over two indexed random period tables, on the sequential endpoint
/// sweep.
fn pj_workload() -> (Catalog, IndexCatalog, Plan) {
    let spec = RandomTableSpec {
        rows: PJ_ROWS,
        int_cols: 1,
        str_cols: 1,
        cardinality: 16,
        domain: TimeDomain::new(0, PJ_DOMAIN),
        max_len: PJ_MAX_LEN,
    };
    let mut catalog = Catalog::new();
    catalog.register("r", random_period_table(&spec, 7));
    catalog.register("s", random_period_table(&spec, 1031));
    let indexes = IndexCatalog::build_all(&catalog);
    let schema = catalog.get("r").unwrap().schema().clone();
    let arity = schema.arity();
    let (lts, lte) = (arity - 2, arity - 1);
    let (rts_g, rte_g) = (2 * arity - 2, 2 * arity - 1);
    let cond = Expr::col(lts)
        .lt(Expr::col(rte_g))
        .and(Expr::col(rts_g).lt(Expr::col(lte)));
    let plan = Plan::scan("r", schema.clone()).join_with(
        Plan::scan("s", schema),
        cond,
        JoinAlgo::IndexSweep,
    );
    (catalog, indexes, plan)
}

/// The `sequential_s` the parallel_join bench recorded, if it ran.
fn baseline_sequential_s() -> Option<f64> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_join.json"
    );
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"sequential_s\": ";
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn overhead_limit_pct() -> f64 {
    std::env::var("OBSERVE_OVERHEAD_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0)
}

/// The spans-on gate is laxer than the metrics-off one: recording a span
/// per operator invocation is allowed to cost more than the passive
/// registry, but not much more.
fn span_limit_pct() -> f64 {
    std::env::var("OBSERVE_SPAN_OVERHEAD_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8.0)
}

/// One profiled run of the overhead workload: folded operator stacks with
/// per-path self-time shares, largest first.
fn operator_decomposition(catalog: &Catalog, indexes: &IndexCatalog, plan: &Plan) -> Vec<String> {
    obs::reset_profile();
    obs::set_profiling(true);
    for _ in 0..3 {
        execute_with_indexes(&Engine::new(), plan, catalog, indexes).unwrap();
    }
    obs::set_profiling(false);
    let stats = obs::profile_stats();
    let total_ns: u64 = stats.iter().map(|s| s.self_ns).sum::<u64>().max(1);
    let out = stats
        .iter()
        .take(8)
        .map(|s| {
            format!(
                "    {{\"path\": \"{}\", \"self_s\": {:.6e}, \"share\": {:.3}}}",
                s.path,
                s.self_ns as f64 / 1e9,
                s.self_ns as f64 / total_ns as f64
            )
        })
        .collect();
    obs::reset_profile();
    out
}

fn bench_observe(c: &mut Criterion) {
    // Part 1 — overhead of the always-on instrumentation, measured on the
    // engine's hottest path with tracing off (the production default) and
    // on (every operator records a span).
    let (catalog, indexes, plan) = pj_workload();
    let mut group = c.benchmark_group("observe");
    group.sample_size(5);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    obs::set_tracing(false);
    group.bench_function(BenchmarkId::new("tracing-off", PJ_ROWS), |b| {
        b.iter(|| execute_with_indexes(&Engine::new(), &plan, &catalog, &indexes).unwrap())
    });
    obs::set_tracing(true);
    group.bench_function(BenchmarkId::new("tracing-on", PJ_ROWS), |b| {
        b.iter(|| {
            obs::reset_thread_trace();
            execute_with_indexes(&Engine::new(), &plan, &catalog, &indexes).unwrap()
        })
    });
    obs::set_tracing(false);
    obs::reset_thread_trace();
    group.finish();

    // Part 2 — per-operator decomposition of the same workload under the
    // profiler.
    let operators = operator_decomposition(&catalog, &indexes, &plan);

    // Part 3 — attribution of the multi-reader workload.
    let (entries, bottleneck) = attribution();

    // Part 4 — the exposition dump must parse (the shell's `.metrics`
    // prints exactly this text), including the process-level samples.
    obs::refresh_process_metrics();
    let exposition = obs::registry().render_text();
    expofmt::check_exposition(&exposition).expect("metrics exposition must parse");
    for required in [
        "txn_snapshot_seconds",
        "session_execute_seconds",
        "engine_scan_invocations_total",
        "statements_cancelled_total",
        "statement_timeouts_total",
        "snapshot_build_info",
        "snapshot_uptime_seconds",
    ] {
        assert!(
            exposition.contains(required),
            "exposition is missing {required}"
        );
    }

    emit_json(c, &entries, &bottleneck, &operators);
}

fn emit_json(c: &Criterion, entries: &[String], bottleneck: &str, operators: &[String]) {
    let median_of =
        |id: &str| -> Option<f64> { c.summaries().iter().find(|s| s.id == id).map(|s| s.median) };
    let (Some(off), Some(on)) = (
        median_of(&format!("observe/tracing-off/{PJ_ROWS}")),
        median_of(&format!("observe/tracing-on/{PJ_ROWS}")),
    ) else {
        eprintln!("missing overhead summaries; not writing BENCH_observe.json");
        return;
    };
    let baseline = baseline_sequential_s();
    let overhead_pct = baseline.map(|b| (off - b) / b * 100.0);
    let span_pct = (on - off) / off * 100.0;
    let meta = BenchMeta::new("observe")
        .param("read_rows", READ_ROWS)
        .param("queries_per_thread", QUERIES_PER_THREAD)
        .param("rounds", ROUNDS)
        .param("pj_rows_per_side", PJ_ROWS)
        .param_str("query", QUERY);
    let json = format!(
        "{{\n{},\n  \"read_attribution\": [\n{}\n  ],\n  \
         \"bottleneck\": \"{bottleneck}\",\n  \
         \"operator_decomposition\": [\n{}\n  ],\n  \"overhead\": {{\n    \
         \"tracing_off_s\": {off:.6e},\n    \"tracing_on_s\": {on:.6e},\n    \
         \"span_overhead_pct\": {span_pct:.2},\n    \
         \"span_limit_pct\": {:.1},\n    \
         \"baseline_sequential_s\": {},\n    \
         \"metrics_off_overhead_pct\": {},\n    \
         \"limit_pct\": {:.1}\n  }}\n}}\n",
        meta.render(),
        entries.join(",\n"),
        operators.join(",\n"),
        span_limit_pct(),
        baseline.map_or("null".into(), |b| format!("{b:.6e}")),
        overhead_pct.map_or("null".into(), |p| format!("{p:.2}")),
        overhead_limit_pct(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_observe.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    match overhead_pct {
        Some(p) if p > overhead_limit_pct() => panic!(
            "instrumentation overhead {p:.2}% exceeds the {:.1}% budget \
             (tracing-off {off:.6e}s vs baseline {:.6e}s)",
            overhead_limit_pct(),
            baseline.unwrap()
        ),
        Some(p) => println!(
            "instrumentation overhead vs un-instrumented baseline: {p:.2}% \
             (budget {:.1}%)",
            overhead_limit_pct()
        ),
        None => eprintln!(
            "note: BENCH_parallel_join.json not found — run the parallel_join \
             bench first for the cross-run overhead comparison"
        ),
    }
    if span_pct > span_limit_pct() {
        panic!(
            "span overhead {span_pct:.2}% exceeds the {:.1}% budget \
             (tracing-on {on:.6e}s vs tracing-off {off:.6e}s)",
            span_limit_pct()
        );
    }
    println!(
        "span overhead tracing-on vs tracing-off: {span_pct:.2}% (budget {:.1}%)",
        span_limit_pct()
    );
}

criterion_group!(benches, bench_observe);
criterion_main!(benches);
