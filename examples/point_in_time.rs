//! Point-in-time queries over the temporal index subsystem.
//!
//! ```text
//! cargo run --example point_in_time
//! ```
//!
//! Builds a small staffing database, registers table indexes, and then:
//! 1. answers "who is on duty at hour t?" via the indexed timeslice,
//! 2. runs a temporal join through the indexed endpoint sweep,
//! 3. shows the engine falling back to the naive path after a mutation.

use snapshot_semantics::algebra::Plan;
use snapshot_semantics::engine::{Engine, ExecStats, NodeStats};
use snapshot_semantics::index::IndexCatalog;
use snapshot_semantics::rewrite::SnapshotCompiler;
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{row, Catalog, Schema, SqlType, Table};
use snapshot_semantics::timeline::TimeDomain;

/// Executes over the index registry; the returned [`ExecStats`] name the
/// physical route each operator took.
fn run(
    plan: &Plan,
    catalog: &Catalog,
    indexes: &IndexCatalog,
) -> Result<(Table, ExecStats), String> {
    let mut stats = ExecStats::default();
    let out = Engine::new().execute_analyzed(
        plan,
        catalog,
        Some(indexes),
        &mut stats,
        &mut NodeStats::default(),
    )?;
    Ok((out, stats))
}

fn main() -> Result<(), String> {
    // The paper's running example: who works with which skill, when.
    let schema = Schema::of(&[
        ("name", SqlType::Str),
        ("skill", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut works = Table::with_period(schema.clone(), 2, 3);
    works.push(row!["Ann", "SP", 3, 10]);
    works.push(row!["Joe", "NS", 8, 16]);
    works.push(row!["Sam", "SP", 8, 16]);
    works.push(row!["Ann", "SP", 18, 20]);
    let mut catalog = Catalog::new();
    catalog.register("works", works);

    // One-time index construction: endpoint event lists and an interval
    // tree per period table.
    let indexes = IndexCatalog::build_all(&catalog);
    println!(
        "indexed tables: {:?}\n",
        indexes.table_names().collect::<Vec<_>>()
    );

    let domain = TimeDomain::new(0, 24);
    let compiler = SnapshotCompiler::new(domain);

    // 1. Point-in-time: the snapshot of a snapshot query at one instant.
    //    compile_timeslice pushes the timeslice to the leaves (the paper's
    //    timeslice homomorphism), so each table access becomes an
    //    O(log n + k) interval-tree stab.
    let sql = "SEQ VT (SELECT name, skill FROM works)";
    let stmt = parse_statement(sql)?;
    let BoundStatement::Snapshot { plan, .. } = bind_statement(&stmt, &catalog)? else {
        unreachable!()
    };
    for at in [4, 9, 17] {
        let point_plan = compiler.compile_timeslice(&plan, &catalog, at)?;
        let (out, stats) = run(&point_plan, &catalog, &indexes)?;
        let names: Vec<String> = out.rows().iter().map(|r| r.get(0).to_string()).collect();
        println!(
            "on duty at {at:>2}: {:<20} (IndexTimeslice: {:?})",
            names.join(", "),
            stats.get("IndexTimeslice")
        );
    }

    // 2. A temporal self-join: pairs of people working at the same time
    //    (pure overlap join — no equality keys, so with both inputs indexed
    //    the engine picks the endpoint-sweep sort-merge join and reuses the
    //    prebuilt begin order).
    let join_sql = "SEQ VT (SELECT a.name, b.name \
                    FROM works a JOIN works b ON a.name < b.name)";
    let stmt = parse_statement(join_sql)?;
    let bound = bind_statement(&stmt, &catalog)?;
    let join_plan = compiler.compile_statement(&bound, &catalog)?;
    let (out, stats) = run(&join_plan, &catalog, &indexes)?;
    println!(
        "\ntemporal self-join: {} rows (IndexSweepJoin: {:?})",
        out.len(),
        stats.get("IndexSweepJoin"),
    );

    // 3. Mutate the table: the registered index is now stale, so the same
    //    call silently falls back to the naive operators — same answer.
    let mut works2 = catalog.get("works").unwrap().clone();
    works2.push(row!["Eve", "SP", 0, 2]);
    catalog.register("works", works2);
    let (out2, stats) = run(&join_plan, &catalog, &indexes)?;
    println!(
        "after mutation:     {} rows (IndexSweepJoin: {:?} — stale index, naive fallback)",
        out2.len(),
        stats.get("IndexSweepJoin"),
    );

    // Index maintenance: rebuild the stale entry and the fast path returns.
    let mut indexes = indexes;
    indexes.ensure("works", catalog.get("works").unwrap());
    let (out3, stats) = run(&join_plan, &catalog, &indexes)?;
    println!(
        "after ensure():     {} rows (IndexSweepJoin: {:?})",
        out3.len(),
        stats.get("IndexSweepJoin"),
    );
    assert_eq!(out2.canonicalized(), out3.canonicalized());
    Ok(())
}
