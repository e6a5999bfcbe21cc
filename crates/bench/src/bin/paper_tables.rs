//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! paper_tables [table1|table2|table3|table3-tpch|figure5|ablation|all]
//!              [--employee-scale S] [--tpch-sf S1,S2] [--check-scale S]
//! ```
//!
//! Absolute numbers depend on the host; the reproduction targets are the
//! *shapes* reported in Section 10: who wins per query class, the bug
//! column, and the linear scaling of multiset coalescing.

use bench_harness::{run_approach, run_oracle, timed, Approach, TextTable};
use engine::coalesce::{never, try_coalesce_rows};
use rewrite::RewriteOptions;
use snapshot_core::TemporalElement;
use std::collections::HashMap;
use storage::Catalog;
use timeline::TimeDomain;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut employee_scale = 0.005f64;
    let mut tpch_sfs = vec![0.002f64, 0.01f64];
    let mut check_scale = 0.0005f64;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--employee-scale" => {
                i += 1;
                employee_scale = args[i].parse().expect("bad --employee-scale");
            }
            "--tpch-sf" => {
                i += 1;
                tpch_sfs = args[i]
                    .split(',')
                    .map(|s| s.parse().expect("bad --tpch-sf"))
                    .collect();
            }
            "--check-scale" => {
                i += 1;
                check_scale = args[i].parse().expect("bad --check-scale");
            }
            cmd => command = cmd.to_string(),
        }
        i += 1;
    }

    match command.as_str() {
        "table1" => table1(),
        "table2" => table2(employee_scale, &tpch_sfs),
        "table3" => table3(employee_scale, check_scale),
        "table3-tpch" => table3_tpch(&tpch_sfs),
        "figure5" => figure5(),
        "ablation" => ablation(employee_scale),
        "all" => {
            table1();
            table2(employee_scale, &tpch_sfs);
            table3(employee_scale, check_scale);
            table3_tpch(&tpch_sfs);
            figure5();
            ablation(employee_scale);
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!(
                "usage: paper_tables [table1|table2|table3|table3-tpch|figure5|ablation|all]"
            );
            std::process::exit(2);
        }
    }
}

/// The Figure 1 database, used by Table 1.
fn figure1_catalog() -> (Catalog, TimeDomain) {
    use storage::{row, Schema, SqlType, Table};
    let works = Schema::of(&[
        ("name", SqlType::Str),
        ("skill", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let assign = Schema::of(&[
        ("mach", SqlType::Str),
        ("skill", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut w = Table::with_period(works, 2, 3);
    w.push(row!["Ann", "SP", 3, 10]);
    w.push(row!["Joe", "NS", 8, 16]);
    w.push(row!["Sam", "SP", 8, 16]);
    w.push(row!["Ann", "SP", 18, 20]);
    let mut a = Table::with_period(assign, 2, 3);
    a.push(row!["M1", "SP", 3, 12]);
    a.push(row!["M2", "SP", 6, 14]);
    a.push(row!["M3", "NS", 3, 16]);
    let mut c = Catalog::new();
    c.register("works", w);
    c.register("assign", a);
    (c, TimeDomain::new(0, 24))
}

/// Table 1: approach × {AG-bug-free, BD-bug-free, unique encoding},
/// determined experimentally on the Figure 1 queries.
fn table1() {
    println!("\n== Table 1: interval-based approaches (checked experimentally) ==\n");
    let (catalog, domain) = figure1_catalog();
    let agg_q = "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')";
    let diff_q = "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)";
    let agg_oracle = run_oracle(agg_q, &catalog, domain).unwrap();
    let diff_oracle = run_oracle(diff_q, &catalog, domain).unwrap();

    let mut table = TextTable::new(&["Approach", "AG bug free", "BD bug free", "Unique encoding"]);
    for approach in Approach::all() {
        let agg =
            run_approach(approach, agg_q, &catalog, domain, RewriteOptions::default()).unwrap();
        let diff = run_approach(
            approach,
            diff_q,
            &catalog,
            domain,
            RewriteOptions::default(),
        )
        .unwrap();
        let ag_free = baseline::bugs::diff_against_oracle(
            agg.rows(),
            &agg_oracle,
            agg.schema().arity(),
            domain,
        )
        .is_clean();
        let bd_free = baseline::bugs::diff_against_oracle(
            diff.rows(),
            &diff_oracle,
            diff.schema().arity(),
            domain,
        )
        .is_clean();
        let unique = encoding_unique_for(approach);
        table.row(vec![
            approach.name().to_string(),
            tick(ag_free),
            tick(bd_free),
            tick(unique),
        ]);
    }
    println!("{}", table.render());
}

/// Checks the unique-encoding property: equivalent input encodings must
/// yield byte-identical outputs. Native approaches are tested *without*
/// the final coalescing patch (their own semantics).
fn encoding_unique_for(approach: Approach) -> bool {
    use storage::{row, Schema, SqlType, Table};
    let q = "SEQ VT (SELECT name FROM works)";
    let domain = TimeDomain::new(0, 24);
    let mk = |split: bool| {
        let schema = Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut w = Table::with_period(schema, 2, 3);
        if split {
            w.push(row!["Ann", "SP", 3, 8]);
            w.push(row!["Ann", "SP", 8, 10]);
        } else {
            w.push(row!["Ann", "SP", 3, 10]);
        }
        let mut c = Catalog::new();
        c.register("works", w);
        c
    };
    let eval = |c: &Catalog| -> Vec<storage::Row> {
        match approach {
            Approach::SeqHash | Approach::SeqMerge | Approach::SeqIndex => {
                run_approach(approach, q, c, domain, RewriteOptions::default())
                    .unwrap()
                    .canonicalized()
                    .rows()
                    .to_vec()
            }
            Approach::NatAlignment | Approach::NatIntervalPreservation => {
                let bound = bench_harness::bind_snapshot(q, c).unwrap();
                let sql::BoundStatement::Snapshot { plan, .. } = bound else {
                    unreachable!()
                };
                let kind = if approach == Approach::NatAlignment {
                    baseline::BaselineKind::Alignment
                } else {
                    baseline::BaselineKind::IntervalPreservation
                };
                baseline::NativeEvaluator::new(kind)
                    .with_final_coalesce(false)
                    .eval(&plan, c)
                    .unwrap()
                    .canonicalized()
                    .rows()
                    .to_vec()
            }
        }
    };
    eval(&mk(false)) == eval(&mk(true))
}

fn tick(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

/// Table 2: result row counts for both workloads.
fn table2(employee_scale: f64, tpch_sfs: &[f64]) {
    println!("\n== Table 2: number of query result rows ==\n");
    println!("Employee dataset (scale {employee_scale}):");
    let catalog = datagen::employees::generate(employee_scale, 42);
    let domain = datagen::employees::domain();
    let mut t = TextTable::new(&["query", "rows"]);
    for (name, sql_text) in datagen::employees::queries() {
        let out = run_approach(
            Approach::SeqHash,
            sql_text,
            &catalog,
            domain,
            RewriteOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        t.row(vec![name.to_string(), out.len().to_string()]);
    }
    println!("{}", t.render());

    for &sf in tpch_sfs {
        println!("TPC-BiH (sf {sf}):");
        let catalog = datagen::tpcbih::generate(sf, 7);
        let domain = datagen::tpcbih::domain();
        let mut t = TextTable::new(&["query", "rows"]);
        for (name, sql_text) in datagen::tpcbih::queries() {
            let out = run_approach(
                Approach::SeqHash,
                sql_text,
                &catalog,
                domain,
                RewriteOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            t.row(vec![name.to_string(), out.len().to_string()]);
        }
        println!("{}", t.render());
    }
}

/// Table 3 (top): Employee workload runtimes per approach + bug column.
fn table3(employee_scale: f64, check_scale: f64) {
    println!("\n== Table 3 (top): Employee workload, runtimes in seconds ==");
    println!(
        "(scale {employee_scale}; bug column checked against the oracle at scale {check_scale})\n"
    );
    let catalog = datagen::employees::generate(employee_scale, 42);
    let domain = datagen::employees::domain();

    // Bug detection at a small scale so the point-wise oracle is feasible.
    let check_catalog = datagen::employees::generate(check_scale, 42);
    let check_domain = rewrite::infer_domain(&check_catalog);

    let mut t = TextTable::new(&[
        "Query",
        "Seq (hash)",
        "Seq (merge)",
        "Nat-Align",
        "Nat-IP",
        "Bug",
    ]);
    for (name, sql_text) in datagen::employees::queries() {
        let mut cells = vec![name.to_string()];
        for approach in Approach::all() {
            let (res, secs) = timed(|| {
                run_approach(
                    approach,
                    sql_text,
                    &catalog,
                    domain,
                    RewriteOptions::default(),
                )
            });
            res.unwrap_or_else(|e| panic!("{name} ({approach:?}): {e}"));
            cells.push(format!("{secs:.3}"));
        }
        cells.push(bug_flags(name, sql_text, &check_catalog, check_domain));
        t.row(cells);
    }
    println!("{}", t.render());
}

/// Diffs the native approaches against the oracle and names the bugs found.
///
/// AG is detected directly on the workload data. BD is detected with the
/// Figure 1c multiplicity canary: the workload's difference queries can
/// coincide with NOT-EXISTS semantics when all overlapping multiplicities
/// are 1, but the *approach* still carries the bug — exactly what the
/// paper's Bug column records.
fn bug_flags(_name: &str, sql_text: &str, catalog: &Catalog, domain: TimeDomain) -> String {
    let Ok(oracle) = run_oracle(sql_text, catalog, domain) else {
        return "-".into();
    };
    let mut flags = Vec::new();
    for approach in [Approach::NatAlignment, Approach::NatIntervalPreservation] {
        let out = run_approach(
            approach,
            sql_text,
            catalog,
            domain,
            RewriteOptions::default(),
        );
        let Ok(out) = out else { continue };
        let d =
            baseline::bugs::diff_against_oracle(out.rows(), &oracle, out.schema().arity(), domain);
        if !d.is_clean() && !flags.contains(&"AG") && !sql_text.contains("EXCEPT ALL") {
            flags.push("AG");
        }
    }
    if sql_text.contains("EXCEPT ALL") && native_fails_bd_canary() {
        flags.push("BD");
    }
    if flags.is_empty() {
        "-".into()
    } else {
        flags.join("+")
    }
}

/// Whether the native approaches fail the Figure 1c bag-difference canary.
fn native_fails_bd_canary() -> bool {
    let (catalog, domain) = figure1_catalog();
    let q = "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)";
    let Ok(oracle) = run_oracle(q, &catalog, domain) else {
        return false;
    };
    [Approach::NatAlignment, Approach::NatIntervalPreservation]
        .into_iter()
        .any(|a| {
            run_approach(a, q, &catalog, domain, RewriteOptions::default())
                .map(|out| {
                    !baseline::bugs::diff_against_oracle(
                        out.rows(),
                        &oracle,
                        out.schema().arity(),
                        domain,
                    )
                    .is_clean()
                })
                .unwrap_or(false)
        })
}

/// Table 3 (bottom): TPC-BiH runtimes at the requested scale factors.
///
/// As in the paper, the DBX-style configuration (merge interval joins) is
/// skipped for this workload: the paper could not run most TPC queries on
/// DBX, and the sweep join degenerates on TPC's dense temporal overlap.
fn table3_tpch(tpch_sfs: &[f64]) {
    println!("\n== Table 3 (bottom): TPC-BiH snapshot queries, runtimes in seconds ==\n");
    for &sf in tpch_sfs {
        println!("scale factor {sf}:");
        let catalog = datagen::tpcbih::generate(sf, 7);
        let domain = datagen::tpcbih::domain();
        let mut t = TextTable::new(&["Query", "Seq (hash)", "Nat-Align", "Nat-IP"]);
        for (name, sql_text) in datagen::tpcbih::table3_queries() {
            let mut cells = vec![name.to_string()];
            for approach in [
                Approach::SeqHash,
                Approach::NatAlignment,
                Approach::NatIntervalPreservation,
            ] {
                let (res, secs) = timed(|| {
                    run_approach(
                        approach,
                        sql_text,
                        &catalog,
                        domain,
                        RewriteOptions::default(),
                    )
                });
                res.unwrap_or_else(|e| panic!("{name} ({approach:?}): {e}"));
                cells.push(format!("{secs:.3}"));
            }
            t.row(cells);
        }
        println!("{}", t.render());
    }
}

/// Figure 5: multiset coalescing runtime vs input size. Two series: the
/// engine's sweep-based operator (the paper's analytic-window SQL
/// implementation) and the generic-semiring `C_K` of the logical model.
fn figure5() {
    println!("\n== Figure 5: multiset coalescing, runtime (s) vs input size ==\n");
    let sizes = [1_000usize, 10_000, 50_000, 100_000, 300_000, 1_000_000];
    let mut t = TextTable::new(&["rows", "engine sweep", "logical-model C_K"]);
    for &n in &sizes {
        // A materialized selection over salaries: low-cardinality values
        // with many overlapping periods (the Section 10.2 setup).
        let spec = datagen::random::RandomTableSpec {
            rows: n,
            int_cols: 1,
            str_cols: 0,
            cardinality: (n as u64 / 50).max(4),
            domain: TimeDomain::new(0, 10_000),
            max_len: 800,
        };
        let table = datagen::random::random_period_table(&spec, 99);
        let arity = table.schema().arity();

        // The kernel the served path runs: it takes the rows over, so the
        // copy that hands them over stays outside the timer.
        let owned = table.rows().to_vec();
        let (_, sweep) = timed(|| try_coalesce_rows(owned, arity, never));

        // Generic K-coalescing: group rows per tuple and run C_N.
        let (_, generic) = timed(|| {
            let mut groups: HashMap<
                Vec<storage::Value>,
                Vec<(timeline::Interval, semiring::Natural)>,
            > = HashMap::new();
            for r in table.rows() {
                groups
                    .entry(r.values()[..arity - 2].to_vec())
                    .or_default()
                    .push((
                        timeline::Interval::new(r.int(arity - 2), r.int(arity - 1)),
                        semiring::Natural(1),
                    ));
            }
            let mut total = 0usize;
            for (_, pairs) in groups {
                total += TemporalElement::from_pairs(pairs).len();
            }
            total
        });
        t.row(vec![
            n.to_string(),
            format!("{sweep:.4}"),
            format!("{generic:.4}"),
        ]);
    }
    println!("{}", t.render());
}

/// Section 9 ablation: single-final-coalesce and fused pre-aggregation,
/// each toggled independently on aggregation- and difference-heavy queries.
fn ablation(employee_scale: f64) {
    println!("\n== Ablation (Section 9 optimizations), runtimes in seconds ==\n");
    let catalog = datagen::employees::generate(employee_scale, 42);
    let domain = datagen::employees::domain();
    let queries: Vec<(&str, &str)> = datagen::employees::queries()
        .into_iter()
        .filter(|(n, _)| matches!(*n, "agg-1" | "agg-2" | "agg-3" | "diff-1" | "diff-2"))
        .collect();
    let configs = [
        ("optimized", true, true),
        ("per-op C", false, true),
        ("unfused split", true, false),
        ("naive", false, false),
    ];
    let mut t = TextTable::new(&[
        "Query",
        configs[0].0,
        configs[1].0,
        configs[2].0,
        configs[3].0,
    ]);
    for (name, sql_text) in queries {
        let mut cells = vec![name.to_string()];
        let mut reference: Option<storage::Table> = None;
        for (_, fc, fs) in configs {
            let options = RewriteOptions {
                final_coalesce_only: fc,
                fused_split: fs,
                ..RewriteOptions::default()
            };
            let (res, secs) =
                timed(|| run_approach(Approach::SeqHash, sql_text, &catalog, domain, options));
            let out = res
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .canonicalized();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(
                    r.rows(),
                    out.rows(),
                    "{name}: ablation config changed the result"
                ),
            }
            cells.push(format!("{secs:.3}"));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}
