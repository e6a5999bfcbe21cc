//! The `snapshot_db` shell ends a statement where the SQL lexer does: a
//! line inside a string literal that ends in `;` (or starts with `--`)
//! does not end it, and a comment after the final `;` does not hold it
//! back.

use std::process::Command;

#[test]
fn the_shell_ends_statements_where_the_lexer_does() {
    let dir = std::env::temp_dir().join(format!("snapshot_shell_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("notes.sql");
    std::fs::write(
        &script,
        "CREATE TABLE notes (s TEXT);\n\
         INSERT INTO notes VALUES ('a;\n-- b');\n\
         SELECT count(*) AS c FROM notes; -- done\n\
         SELECT s FROM notes WHERE s = 'a;\n-- b';\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_snapshot_db"))
        .arg("--script")
        .arg(&script)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    // Each statement ran once, whole: one summary line apiece.
    let summaries: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_suffix(" ms]")?.rsplit_once(" [").map(|(s, _)| s))
        .collect();
    assert_eq!(
        summaries,
        [
            "CREATE TABLE notes",
            "INSERT 1 INTO notes",
            "SELECT 1",
            "SELECT 1"
        ],
        "{stdout}"
    );
}
