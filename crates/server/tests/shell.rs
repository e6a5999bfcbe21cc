//! The `snapshot_db` shell ends a statement where the SQL lexer does: a
//! line inside a string literal that ends in `;` (or starts with `--`)
//! does not end it, and a comment after the final `;` does not hold it
//! back. A meta command that duplicates SQL runs as that SQL on both
//! backends, splicing no user text into it but `.explain`'s one
//! statement; over `--connect` the local-shell tools are refused and
//! `--verify` is forwarded.

use snapshot_server::{Server, ServerConfig};
use snapshot_session::SharedDatabase;
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

/// The outcome of running `script` through `snapshot_db` with `args`.
struct Run {
    success: bool,
    stdout: String,
    stderr: String,
}

fn shell(name: &str, args: &[&str], script: &str) -> Run {
    let dir = std::env::temp_dir().join(format!("snapshot_shell_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("script.sql");
    std::fs::write(&path, script).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_snapshot_db"))
        .args(args)
        .arg("--script")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    Run {
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Runs `body` with the address of a fresh in-memory server over `shared`,
/// then stops the server.
fn with_server(shared: &SharedDatabase, body: impl FnOnce(&str)) {
    let server = Server::bind(shared.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run());
    body(&addr);
    handle.shutdown();
    serving.join().unwrap().unwrap();
}

#[test]
fn an_alias_splices_no_user_text_into_sql_on_either_backend() {
    let script = "CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te);\n\
                  .explain SELECT x FROM t; DROP TABLE t\n\
                  .kill 1); DROP TABLE t; --\n\
                  SELECT count(*) AS c FROM t;\n";
    let check = |backend: &str, run: Run| {
        let Run { stdout, stderr, .. } = &run;
        assert!(run.success, "{backend}: {stdout}\n{stderr}");
        assert_eq!(
            stderr.lines().collect::<Vec<_>>(),
            [
                "error: expected one statement, found 2",
                "error: usage: .kill <session-id> (see .activity)"
            ],
            "{backend}"
        );
        assert!(!stdout.contains("DROP TABLE"), "{backend}: {stdout}");
        assert!(
            stdout.contains("\nSELECT 1 ["),
            "{backend}: t answers\n{stdout}"
        );
    };
    check(
        "local",
        shell("alias_local", &["--continue-on-error"], script),
    );
    let shared = SharedDatabase::in_memory();
    with_server(&shared, |addr| {
        let args = ["--connect", addr, "--continue-on-error"];
        check("remote", shell("alias_remote", &args, script));
    });
    assert!(shared.snapshot().catalog().get("t").is_some());
}

#[test]
fn over_connect_the_local_tools_are_refused_and_verify_is_forwarded() {
    let script = "SHOW verify_indexed;\n\
                  .parallel 2 SELECT count(*) AS c FROM snapshot_stat_tables\n\
                  .load employees 10\n\
                  .trace on\n";
    let local = shell("tools_local", &["--verify"], "SHOW verify_indexed;\n");
    assert!(local.success, "{}", local.stderr);
    let shared = SharedDatabase::in_memory();
    with_server(&shared, |addr| {
        let args = ["--connect", addr, "--verify", "--continue-on-error"];
        let remote = shell("tools_remote", &args, script);
        assert!(remote.success, "{}\n{}", remote.stdout, remote.stderr);
        for run in [&local, &remote] {
            assert!(run.stdout.contains("\n| on "), "{}", run.stdout);
        }
        let refused: Vec<&str> = remote.stderr.lines().collect();
        assert_eq!(
            refused,
            ["parallel", "load", "trace"].map(|tool| format!(
                "error: .{tool} is a tool of the local shell: run it in snapshot_db without --connect"
            )),
        );
        let no_index = shell("no_index", &["--connect", addr, "--no-index"], "");
        assert!(!no_index.success);
        let first = no_index.stderr.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            "--no-index configures the embedded engine and cannot be used with --connect"
        );
    });
    assert_eq!(shared.snapshot().catalog().table_names().count(), 0);
}
