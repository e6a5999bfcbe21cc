//! Indexed vs naive temporal join across dataset sizes.
//!
//! Three routes over the same pure interval-overlap join
//! (`l.ts < r.te AND r.ts < l.te`):
//!
//! * **nested-loop** — the `O(n·m)` per-pair overlap test (the seed
//!   engine's fallback),
//! * **sweep** — the endpoint-sweep sort-merge join, sorting on the fly
//!   (`O(n log n + output)`),
//! * **indexed-sweep** — the same sweep fed by prebuilt table event lists
//!   (`O(n + m + output)` after the one-time index build).
//!
//! Besides the criterion output, the run emits a machine-readable
//! `BENCH_index.json` summary at the repository root.

use algebra::{Expr, JoinAlgo, Plan};
use bench_harness::execute_with_indexes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use engine::Engine;
use index::IndexCatalog;
use storage::Catalog;
use timeline::TimeDomain;

const SIZES: [usize; 3] = [500, 2_000, 8_000];

fn build_catalog(n: usize) -> Catalog {
    // Sparse intervals over a domain that grows with n keeps the join
    // output linear in n, so the measured asymptotics are the algorithms',
    // not the output's.
    let spec = datagen::random::RandomTableSpec {
        rows: n,
        int_cols: 1,
        str_cols: 0,
        cardinality: 16,
        domain: TimeDomain::new(0, (n as i64) * 4),
        max_len: 50,
    };
    let mut catalog = Catalog::new();
    catalog.register("l", datagen::random::random_period_table(&spec, 1));
    catalog.register("r", datagen::random::random_period_table(&spec, 2));
    catalog
}

fn overlap_join_plan(catalog: &Catalog, algo: JoinAlgo) -> Plan {
    let schema = catalog.get("l").unwrap().schema().clone();
    let arity = schema.arity();
    let (lts, lte) = (arity - 2, arity - 1);
    let (rts_g, rte_g) = (2 * arity - 2, 2 * arity - 1);
    let cond = Expr::col(lts)
        .lt(Expr::col(rte_g))
        .and(Expr::col(rts_g).lt(Expr::col(lte)));
    Plan::scan("l", schema.clone()).join_with(Plan::scan("r", schema), cond, algo)
}

fn bench_index_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_join");
    group.sample_size(5);
    group.warm_up_time(std::time::Duration::from_millis(150));
    group.measurement_time(std::time::Duration::from_millis(750));
    for &n in &SIZES {
        let catalog = build_catalog(n);
        let indexes = IndexCatalog::build_all(&catalog);
        let routes: [(&str, JoinAlgo, bool); 3] = [
            ("nested-loop", JoinAlgo::NestedLoop, false),
            ("sweep", JoinAlgo::IndexSweep, false),
            ("indexed-sweep", JoinAlgo::Auto, true),
        ];
        for (label, algo, use_index) in routes {
            let plan = overlap_join_plan(&catalog, algo);
            group.bench_with_input(BenchmarkId::new(label, n), &plan, |b, plan| {
                b.iter(|| {
                    if use_index {
                        execute_with_indexes(&Engine::new(), plan, &catalog, &indexes).unwrap()
                    } else {
                        Engine::new().execute(plan, &catalog).unwrap()
                    }
                });
            });
        }
    }
    group.finish();
    emit_json(c);
}

/// Writes `BENCH_index.json` at the repository root from the recorded
/// summaries.
fn emit_json(c: &Criterion) {
    let median_of = |label: &str, n: usize| -> Option<f64> {
        let id = format!("index_join/{label}/{n}");
        c.summaries().iter().find(|s| s.id == id).map(|s| s.median)
    };
    let mut entries = Vec::new();
    for &n in &SIZES {
        let (Some(nl), Some(sweep), Some(idx)) = (
            median_of("nested-loop", n),
            median_of("sweep", n),
            median_of("indexed-sweep", n),
        ) else {
            continue;
        };
        entries.push(format!(
            "    {{\"n\": {n}, \"nested_loop_s\": {nl:.6e}, \"sweep_s\": {sweep:.6e}, \
             \"indexed_sweep_s\": {idx:.6e}, \"speedup_indexed_vs_nested\": {:.2}}}",
            nl / idx
        ));
    }
    let meta = bench_harness::meta::BenchMeta::new("index_join")
        .param_str(
            "join",
            "pure interval overlap, both sides random period tables",
        )
        .param_str("sizes", &SIZES.map(|n| n.to_string()).join("/"));
    let json = format!(
        "{{\n{},\n  \"routes\": [\"nested-loop\", \"sweep\", \
         \"indexed-sweep\"],\n  \"results\": [\n{}\n  ]\n}}\n",
        meta.render(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_index.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_index_join);
criterion_main!(benches);
