//! The middleware view: what `REWR` actually does to your SQL.
//!
//! Shows, for a few `SEQ VT` queries, the bound snapshot plan, the
//! rewritten executable plan (Figure 4 + Section 9 optimizations), and the
//! result — the full journey a query takes through the system.
//!
//! ```text
//! cargo run --example sql_middleware
//! ```

use snapshot_semantics::engine::{Engine, ExecStats, NodeStats};
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{row, Catalog, Schema, SqlType, Table};
use snapshot_semantics::timeline::TimeDomain;

fn main() -> Result<(), String> {
    let works = Schema::of(&[
        ("name", SqlType::Str),
        ("skill", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut w = Table::with_period(works, 2, 3);
    w.push(row!["Ann", "SP", 3, 10]);
    w.push(row!["Joe", "NS", 8, 16]);
    w.push(row!["Sam", "SP", 8, 16]);
    w.push(row!["Ann", "SP", 18, 20]);
    let mut catalog = Catalog::new();
    catalog.register("works", w);
    let domain = TimeDomain::new(0, 24);

    let queries = [
        "SEQ VT (SELECT name FROM works WHERE skill = 'SP')",
        "SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)",
        "SEQ VT (SELECT w1.name, w2.name AS colleague FROM works w1 \
         JOIN works w2 ON w1.skill = w2.skill WHERE w1.name <> w2.name)",
    ];

    for sql in queries {
        println!("================================================================");
        println!("SQL: {sql}\n");
        let stmt = parse_statement(sql)?;
        let bound = bind_statement(&stmt, &catalog)?;
        let BoundStatement::Snapshot { plan, .. } = &bound else {
            unreachable!()
        };
        println!("bound snapshot plan (period columns hidden from the query):");
        println!("{}", indent(&plan.explain()));

        let optimized = SnapshotCompiler::new(domain).compile_statement(&bound, &catalog)?;
        println!("REWR, optimized (single final coalesce, fused operators):");
        println!("{}", indent(&optimized.explain()));

        let naive = SnapshotCompiler::with_options(
            domain,
            RewriteOptions {
                final_coalesce_only: false,
                fused_split: false,
                ..RewriteOptions::default()
            },
        )
        .compile_statement(&bound, &catalog)?;
        println!("REWR, literal Figure 4 (coalesce after every operator):");
        println!("{}", indent(&naive.explain()));

        let mut stats = ExecStats::default();
        let out = Engine::new().execute_analyzed(
            &optimized,
            &catalog,
            None,
            &mut stats,
            &mut NodeStats::default(),
        )?;
        println!("result ({} rows):", out.len());
        println!("{}", indent(&out.canonicalized().to_pretty_string()));
        println!("operator row counts:");
        for (op, (calls, rows)) in stats.iter() {
            println!("    {op:<18} calls={calls:<3} rows_out={rows}");
        }
        println!();
    }
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
