//! Parallel sweep-join benchmark: speedup vs worker-thread count.
//!
//! One pure interval-overlap join (the rewriter's pattern, the dominant
//! cost of `SEQ VT` queries) over two indexed random period tables, run
//! through the engine on the sequential endpoint sweep and on the
//! slab-parallel sweep at increasing thread counts. Besides the criterion
//! output, the run emits a machine-readable `BENCH_parallel_join.json`
//! summary at the repository root: seconds and speedup per thread count,
//! plus the hardware thread count (speedup is bounded by the smaller of
//! the two — a single-core container will honestly report ~1x).

use algebra::{Expr, JoinAlgo, Plan, PlanNode};
use bench_harness::execute_with_indexes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::random::{random_period_table, RandomTableSpec};
use engine::Engine;
use index::IndexCatalog;
use storage::Catalog;
use timeline::TimeDomain;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Rows per join side.
const ROWS: usize = 30_000;
/// Time domain width; with `MAX_LEN` this sets the expected output size
/// (~ROWS·MAX_LEN/2/DOMAIN pairs per row).
const DOMAIN: i64 = 60_000;
const MAX_LEN: i64 = 40;

fn workload() -> (Catalog, IndexCatalog, Plan) {
    let spec = RandomTableSpec {
        rows: ROWS,
        int_cols: 1,
        str_cols: 1,
        cardinality: 16,
        domain: TimeDomain::new(0, DOMAIN),
        max_len: MAX_LEN,
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
    let plan = Plan::scan("r", schema.clone()).join(Plan::scan("s", schema), cond);
    (catalog, indexes, plan)
}

fn with_algo(plan: &Plan, algo: JoinAlgo) -> Plan {
    let PlanNode::Join {
        left,
        right,
        condition,
        ..
    } = &plan.node
    else {
        panic!("workload plan is a join")
    };
    left.as_ref()
        .clone()
        .join_with(right.as_ref().clone(), condition.clone(), algo)
}

fn bench_parallel_join(c: &mut Criterion) {
    let (catalog, indexes, plan) = workload();

    // Output size (and a cross-route sanity check) once, outside timing.
    let sequential_plan = with_algo(&plan, JoinAlgo::IndexSweep);
    let output_pairs = execute_with_indexes(&Engine::new(), &sequential_plan, &catalog, &indexes)
        .unwrap()
        .len();

    let mut group = c.benchmark_group("parallel_join");
    group.sample_size(5);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    group.bench_function(BenchmarkId::new("sequential", ROWS), |b| {
        b.iter(|| {
            execute_with_indexes(&Engine::new(), &sequential_plan, &catalog, &indexes).unwrap()
        })
    });
    let parallel_plan = with_algo(&plan, JoinAlgo::ParallelSweep);
    for &n in &THREAD_COUNTS {
        let engine = Engine::with_parallelism(n);
        group.bench_function(BenchmarkId::new("threads", n), |b| {
            b.iter(|| execute_with_indexes(&engine, &parallel_plan, &catalog, &indexes).unwrap())
        });
    }
    group.finish();
    emit_json(c, output_pairs);
}

/// Writes `BENCH_parallel_join.json` at the repository root.
fn emit_json(c: &Criterion, output_pairs: usize) {
    let median_of =
        |id: &str| -> Option<f64> { c.summaries().iter().find(|s| s.id == id).map(|s| s.median) };
    let Some(seq) = median_of(&format!("parallel_join/sequential/{ROWS}")) else {
        eprintln!("missing sequential summary; not writing BENCH_parallel_join.json");
        return;
    };
    let hardware = bench_harness::meta::hardware_threads();
    let mut entries = Vec::new();
    for &n in &THREAD_COUNTS {
        let Some(t) = median_of(&format!("parallel_join/threads/{n}")) else {
            continue;
        };
        entries.push(format!(
            "    {{\"threads\": {n}, \"seconds\": {t:.6e}, \"speedup_x\": {:.2}}}",
            seq / t
        ));
    }
    let meta = bench_harness::meta::BenchMeta::new("parallel_join")
        .param("rows_per_side", ROWS)
        .param("domain", DOMAIN)
        .param("max_len", MAX_LEN);
    let json = format!(
        "{{\n{},\n  \"output_pairs\": {output_pairs},\n  \
         \"sequential_s\": {seq:.6e},\n  \"parallel\": [\n{}\n  ]\n}}\n",
        meta.render(),
        entries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_join.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if hardware < 4 {
        eprintln!(
            "note: only {hardware} hardware thread(s) available — parallel speedup \
             is bounded by the hardware, not the partitioning"
        );
    }
}

criterion_group!(benches, bench_parallel_join);
criterion_main!(benches);
