//! The `snapshot_db` shell ends a statement where the SQL lexer does: a
//! line inside a string literal that ends in `;` (or starts with `--`)
//! does not end it, and a comment after the final `;` does not hold it
//! back. A meta command that duplicates SQL runs as that SQL on both
//! backends, splicing no user text into it but `.explain`'s one
//! statement; over `--connect` the local-shell tools are refused and
//! `--verify` is forwarded. With `--listen` the same program opens the
//! database as the shell does and serves it until a loopback client
//! shuts it down; beside the shell's own flags it is refused.

#[path = "../../../tests/support/scratch.rs"]
mod scratch;

use scratch::ScratchDir;
use snapshot_server::{Client, RemoteResult, Server, ServerConfig};
use snapshot_session::{PersistenceOptions, SessionOptions, SharedDatabase};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

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

/// A `snapshot_db --listen` child, killed if a failed assertion unwinds
/// before the test has stopped it.
struct Listening(Child);

impl Drop for Listening {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn listen_serves_the_durable_database_until_a_loopback_shutdown() {
    let dir = ScratchDir::new("listen");
    let db = dir.join("db");
    let child = Command::new(env!("CARGO_BIN_EXE_snapshot_db"))
        .arg("--db")
        .arg(&db)
        .args(["--listen", "127.0.0.1:0", "--timeout-ms", "60000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut server = Listening(child);
    // The banner names the bound address: port 0 took any free one.
    let mut stderr = BufReader::new(server.0.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix(&format!("snapshot_db: serving {} on ", db.display()))
        .and_then(|rest| rest.strip_suffix(" (max 64 connections)\n"))
        .unwrap_or_else(|| panic!("no serving banner: {banner:?}"))
        .to_string();

    let mut client = Client::connect(addr.as_str()).unwrap();
    let resp = client
        .query(
            "CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te);
             INSERT INTO t VALUES (7, 1, 5);
             SHOW statement_timeout;",
        )
        .unwrap();
    assert!(resp.error.is_none(), "{:?}", resp.error);
    let Some(RemoteResult::Rows(shown)) = resp.results.last() else {
        panic!("SHOW answers a table: {:?}", resp.results);
    };
    assert_eq!(
        shown.rows()[0].get(0).to_string(),
        "60000",
        "--timeout-ms is every connection's template"
    );
    client.shutdown_server().unwrap();
    let status = server.0.wait().unwrap();
    assert_eq!(status.code(), Some(0));

    let (reopened, _) = SharedDatabase::open_durable(
        &db,
        SessionOptions::default(),
        PersistenceOptions::default(),
    )
    .unwrap();
    let snapshot = reopened.snapshot();
    let rows = snapshot.catalog().get("t").expect("t was recovered").rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0).to_string(), "7");
}

#[test]
fn listen_is_refused_beside_the_shell_flags() {
    for flags in [
        &["--connect", "127.0.0.1:1"][..],
        &["--script", "never_read.sql"],
        &["--continue-on-error"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_snapshot_db"))
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        let mut lines = stderr.lines();
        assert_eq!(
            lines.next(),
            Some(format!("--listen and {} are mutually exclusive", flags[0]).as_str())
        );
        assert!(lines
            .next()
            .unwrap_or_default()
            .starts_with("usage: snapshot_db "));
    }
}
