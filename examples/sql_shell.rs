//! The session subsystem as a library: a whole database life cycle —
//! temporal DDL, DML, snapshot queries, windows, mutation, and index
//! maintenance — driven through `Session::execute` alone.
//!
//! ```text
//! cargo run --example sql_shell
//! ```
//!
//! (The same statements run interactively under
//! `cargo run --bin snapshot_db`, or scripted via `--script file.sql`.)

use snapshot_semantics::session::{Database, Session, SessionOptions};

fn main() -> Result<(), String> {
    // Cross-check every indexed query against the naive route: any index
    // that survived a mutation it shouldn't have would fail the run.
    let mut session = Session::with_options(
        Database::new(),
        SessionOptions {
            verify_indexed: true,
            ..SessionOptions::default()
        },
    );

    // 1. DDL + DML: build the paper's Figure 1a database through SQL.
    session.execute_script(
        "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
         INSERT INTO works VALUES
           ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
           ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);",
    )?;

    // 2. The Figure 1b query, over the live table.
    let q_onduty = "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')";
    let result = session.execute(q_onduty)?;
    println!("{q_onduty}\n{}", result.rows().unwrap().canonicalized());

    // 3. Windows: one snapshot (AS OF), and a restricted range (BETWEEN).
    for sql in [
        "SEQ VT AS OF 9 (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
        "SEQ VT BETWEEN 5 AND 12 (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
    ] {
        let result = session.execute(sql)?;
        println!("{sql}\n{}", result.rows().unwrap().canonicalized());
    }

    // 4. Mutate and re-query: the table version bumps, the index registry
    //    notices, and the next query repairs the index from the rows the
    //    insert wrote.
    session.execute("INSERT INTO works VALUES ('Eve', 'SP', 0, 6)")?;
    let result = session.execute(q_onduty)?;
    println!("after INSERT:\n{}", result.rows().unwrap().canonicalized());

    // A non-sequenced UPDATE rewrites its row in place — repaired the same
    // way as the insert (a DELETE, which moves rows, would rebuild).
    session.execute("UPDATE works SET te = 12 WHERE name = 'Sam'")?;
    let result = session.execute(q_onduty)?;
    println!("after UPDATE:\n{}", result.rows().unwrap().canonicalized());

    // Each repair here wrote one row of four or five: more than an eighth
    // of the indexed rows, so the edit re-bases the interval tree, which
    // counts as a full build. On a large table it would be an edit.
    let stats = session.database().index_maintenance();
    println!(
        "index maintenance: {} full build(s), {} edit(s)",
        stats.full_builds, stats.incremental_builds
    );
    assert_eq!((stats.full_builds, stats.incremental_builds), (3, 0));
    Ok(())
}
