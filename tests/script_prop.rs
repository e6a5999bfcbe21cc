//! Generated scripts mean what their statements mean alone. Each script
//! holds 1–6 statements whose string literals contain `;`, `--`, `''` and
//! newlines, separated by `;` with line comments and stray `;`s around
//! them. The script parser must report each statement's text as it was
//! written, `split_script` must cut the same pieces, and `run_script` must
//! run exactly the statements `parse_sql_statement` reads from those
//! texts: the same results, in order, as executing them one at a time.

use proptest::collection::vec;
use proptest::prelude::*;
use snapshot_semantics::session::Session;
use snapshot_semantics::sql::{parse_script, parse_sql_statement, split_script};

/// Pieces of string-literal text, as written between the quotes (`''` is
/// an escaped quote).
const TEXT: [&str; 8] = ["a", ";", "--", "''", "\n", " -- x;\n", "b;", "\n-- b"];

/// What may stand between two statements: at least one `;`, with
/// comments, blank lines and stray `;`s.
const GAPS: [&str; 6] = [
    ";",
    ";\n",
    "; -- done;\n",
    ";;\n",
    "\n;\n-- only a comment;\n;",
    " ;\n\n",
];

/// One statement, as its kind and the text pieces of its literal.
#[derive(Debug, Clone)]
struct Stmt(usize, Vec<usize>);

impl Stmt {
    fn sql(&self) -> String {
        let literal: String = self.1.iter().map(|&i| TEXT[i]).collect();
        match self.0 {
            0 => format!("INSERT INTO notes VALUES ('{literal}', 1)"),
            1 => format!("SELECT count(*) AS c FROM notes WHERE s = '{literal}'"),
            _ => format!("DELETE FROM notes WHERE s <> '{literal}'"),
        }
    }
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    (0usize..3, vec(0usize..TEXT.len(), 0..5)).prop_map(|(kind, text)| Stmt(kind, text))
}

fn session() -> Session {
    let mut session = Session::default();
    session
        .execute("CREATE TABLE notes (s TEXT, n INT)")
        .unwrap();
    session
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_script_runs_the_statements_its_texts_parse_to(
        stmts in vec(stmt_strategy(), 1..7),
        gaps in vec(0usize..GAPS.len(), 7..8),
        header in 0usize..3,
        end_gap in 0usize..2,
    ) {
        let want: Vec<String> = stmts.iter().map(Stmt::sql).collect();
        let mut script = ["", "-- a script;\n", "\n;\n"][header].to_string();
        for (i, sql) in want.iter().enumerate() {
            if i > 0 {
                script.push_str(GAPS[gaps[i]]);
            }
            script.push_str(sql);
        }
        if end_gap == 1 {
            script.push_str(GAPS[gaps[0]]);
        }

        let parsed = parse_script(&script).unwrap();
        let texts: Vec<&str> = parsed.iter().map(|p| p.text.as_str()).collect();
        prop_assert_eq!(&texts, &want, "script: {:?}", script);
        prop_assert_eq!(split_script(&script), want.clone());
        for (p, sql) in parsed.iter().zip(&want) {
            prop_assert_eq!(&p.statement, &parse_sql_statement(sql).unwrap());
        }

        let mut whole = session();
        let mut ran = Vec::new();
        whole.run_script(&script, |r| { ran.push(r); true }).unwrap();
        let mut alone = session();
        let one_by_one: Vec<_> = want.iter().map(|sql| alone.execute(sql).unwrap()).collect();
        prop_assert_eq!(ran, one_by_one);
        let rows = |s: &Session| s.read_view().catalog().get("notes").unwrap().canonicalized();
        prop_assert_eq!(rows(&whole), rows(&alone));
    }
}
