//! The network subsystem, end to end over real TCP sockets: concurrent
//! remote clients read bag-equal to the point-wise oracle on their pinned
//! snapshots while a writer churns, cancellation crosses connections
//! (`snapshot_cancel` from one client kills another's statement), the
//! server-wide statement-timeout default propagates to every connection
//! (and per-connection overrides clear it), SQL `SET` takes every option
//! name and `SHOW` reads back what it left, graceful shutdown leaves a
//! recoverable WAL-consistent database, a socket killed mid-query or
//! mid-result leaves no ghost rows in `snapshot_stat_activity`, a
//! multi-batch result arrives in the executor's row order with every byte
//! accounted, bare `.profile` returns exactly the folded stacks while
//! every `Meta` word but five is refused, a server that sends a malformed result or frames
//! out of order gets an `Err` from the client, not a panic, and a script
//! that fails means the same over the wire as in process.
//!
//! Every test serves a database of its own, with its own activity table
//! and metrics, so the tests run in parallel.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::ScratchDir;
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::rewrite::infer_domain;
use snapshot_semantics::server::protocol::{
    read_frame, write_frame, Frame, PROTOCOL_VERSION, ROW_BATCH,
};
use snapshot_semantics::server::{
    Client, RemoteError, RemoteResult, Server, ServerConfig, ServerHandle,
};
use snapshot_semantics::session::StatementResult;
use snapshot_semantics::session::{PersistenceOptions, SessionOptions, SharedDatabase, SyncPolicy};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, Column, Row, Schema, SqlType, Table, Value};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP: &str = "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
     INSERT INTO works VALUES
       ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
       ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);";

/// Bind a server over `shared` on an OS-assigned port and serve it from a
/// background thread.
fn start_server(
    shared: SharedDatabase,
    config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<Result<u64, String>>,
) {
    let server = Server::bind(shared, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

/// Ask the server to shut down through `client`, wait for it, and return
/// how many connections it served.
fn stop(client: Client, server: std::thread::JoinHandle<Result<u64, String>>) -> u64 {
    client.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown")
}

/// One multi-row INSERT of `n` rows whose periods all overlap — the
/// quadratic raw material for deliberately slow joins.
fn bulk_insert(table: &str, n: usize) -> String {
    let mut stmt = format!("INSERT INTO {table} VALUES ");
    for i in 0..n {
        if i > 0 {
            stmt.push_str(", ");
        }
        stmt.push_str(&format!("({i}, 0, 1000000)"));
    }
    stmt
}

/// Run a script and panic on any statement error.
fn run_ok(client: &mut Client, sql: &str) -> Vec<RemoteResult> {
    let resp = client.query(sql).expect("connection alive");
    if let Some(e) = resp.error {
        panic!("statement failed: {e}\n(script: {sql})");
    }
    resp.results
}

/// The text a meta command returns, or its error.
fn meta(client: &mut Client, command: &str) -> Result<String, String> {
    let resp = client.meta(command).expect("connection alive");
    match (resp.error, &resp.results[..]) {
        (Some(e), _) => Err(e.to_string()),
        (None, [RemoteResult::Done(text)]) => Ok(text.clone()),
        (None, other) => panic!(".{command}: {other:?}"),
    }
}

/// The first result set of a response.
fn first_rows(results: &[RemoteResult]) -> &Table {
    results
        .iter()
        .find_map(|r| match r {
            RemoteResult::Rows(t) => Some(t),
            RemoteResult::Done(_) => None,
        })
        .expect("a result set")
}

fn sorted_rows(t: &Table) -> Vec<Row> {
    let mut rows = t.rows().to_vec();
    rows.sort_unstable();
    rows
}

/// The oracle's canonical row encoding of a `SEQ VT` query over an
/// explicit catalog (domain inferred exactly as the session infers it).
fn oracle_rows_on(catalog: &Catalog, sql: &str) -> Vec<Row> {
    let stmt = parse_statement(sql).unwrap();
    let bound = bind_statement(&stmt, catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("not a snapshot query: {sql}")
    };
    let mut rows = PointwiseOracle::new(infer_domain(catalog))
        .eval_rows(plan, catalog)
        .unwrap();
    rows.sort_unstable();
    rows
}

/// Acceptance: ≥4 concurrent remote clients, each pinning a snapshot with
/// `BEGIN … COMMIT` over the wire while a fifth connection writes. Every
/// reader's `SEQ VT` result must be bag-equal to the point-wise oracle
/// evaluated on the *raw rows of its own snapshot* (shipped back in the
/// same transaction) — snapshot reducibility, through the socket.
#[test]
fn concurrent_remote_readers_are_bag_equal_to_the_oracle() {
    let (addr, handle, server) = start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut setup = Client::connect(addr).expect("connect");
    run_ok(&mut setup, SETUP);

    const SEQ_SQL: &str = "SEQ VT (SELECT name, count(*) AS cnt FROM works GROUP BY name)";
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                for _ in 0..12 {
                    // One wire script, one transaction: the raw rows and
                    // the SEQ VT result come from the same snapshot.
                    let results = {
                        let resp = client
                            .query(&format!(
                                "BEGIN; SELECT name, skill, ts, te FROM works; {SEQ_SQL}; COMMIT;"
                            ))
                            .expect("reader connection alive");
                        if let Some(e) = resp.error {
                            panic!("reader script failed: {e}");
                        }
                        resp.results
                    };
                    let tables: Vec<&Table> = results
                        .iter()
                        .filter_map(|r| match r {
                            RemoteResult::Rows(t) => Some(t),
                            RemoteResult::Done(_) => None,
                        })
                        .collect();
                    assert_eq!(tables.len(), 2, "raw rows + SEQ VT result");
                    // Rebuild the snapshot as a one-table catalog and ask
                    // the oracle.
                    let mut snapshot = Table::with_period(tables[0].schema().clone(), 2, 3);
                    snapshot.extend(tables[0].rows().to_vec());
                    let mut catalog = Catalog::new();
                    catalog.register("works", snapshot);
                    assert_eq!(
                        sorted_rows(tables[1]),
                        oracle_rows_on(&catalog, SEQ_SQL),
                        "remote SEQ VT result bag-equal to the oracle on its snapshot"
                    );
                }
                client.close().expect("clean close");
            })
        })
        .collect();

    // The churn: inserts, updates, and deletes racing the readers.
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("writer connects");
        for i in 0..24 {
            let a = 2 + (i * 3) % 40;
            let b = a + 5 + (i % 7);
            run_ok(
                &mut client,
                &format!("INSERT INTO works VALUES ('W{i}', 'SP', {a}, {b});"),
            );
            if i % 4 == 1 {
                run_ok(
                    &mut client,
                    &format!("UPDATE works SET skill = 'NS' WHERE name = 'W{}';", i - 1),
                );
            }
            if i % 6 == 2 {
                run_ok(
                    &mut client,
                    &format!("DELETE FROM works WHERE name = 'W{}';", i - 2),
                );
            }
        }
        client.close().expect("clean close");
    });

    for r in readers {
        r.join().expect("reader thread");
    }
    writer.join().expect("writer thread");
    let served = stop(setup, server);
    assert!(served >= 6, "all clients served, got {served}");
    assert!(handle.is_shutting_down());
}

/// Cross-connection cancellation: client B finds client A's statement in
/// `snapshot_stat_activity` *over the wire* (with its socket address —
/// the remote_addr satellite) and kills it with `snapshot_cancel`; A gets
/// a Cancelled frame and its connection stays usable.
#[test]
fn snapshot_cancel_crosses_connections() {
    let (addr, handle, server) = start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut monitor = Client::connect(addr).expect("connect");
    run_ok(
        &mut monitor,
        "CREATE TABLE srv_kill (x INT, ts INT, te INT) PERIOD (ts, te);",
    );
    run_ok(&mut monitor, &bulk_insert("srv_kill", 3000));

    // Satellite witness: a server-backed session carries its peer socket
    // address in the activity view, queryable over the wire.
    let my_id = monitor.session_id;
    let results = run_ok(
        &mut monitor,
        &format!("SELECT remote_addr FROM snapshot_stat_activity WHERE session_id = {my_id};"),
    );
    let rows = sorted_rows(first_rows(&results));
    assert_eq!(rows.len(), 1);
    match &rows[0].values()[0] {
        Value::Str(s) => assert!(s.starts_with("127.0.0.1:"), "peer address, got {s}"),
        other => panic!("remote_addr should be set for a remote session, got {other:?}"),
    }

    let (id_tx, id_rx) = std::sync::mpsc::channel();
    let victim = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("victim connects");
        let id = client.session_id;
        id_tx.send(id).unwrap();
        // A quadratic self-join only a cancellation will end in
        // reasonable time.
        let resp = client
            .query("SELECT count(*) AS c FROM srv_kill a JOIN srv_kill b ON a.x <> b.x;")
            .expect("victim connection alive");
        let err = resp.error.expect("statement was killed");
        assert!(
            matches!(err, RemoteError::Cancelled(_)),
            "kill surfaces as a Cancelled frame, got {err:?}"
        );
        assert!(err.to_string().contains("killed by request"), "{err}");
        // The connection survives its statement's death.
        let results = {
            let resp = client
                .query("SELECT count(*) AS c FROM srv_kill WHERE x < 10;")
                .expect("victim connection still alive");
            assert!(resp.error.is_none(), "next statement clean");
            resp.results
        };
        let rows = sorted_rows(first_rows(&results));
        assert_eq!(rows[0].values()[0], Value::Int(10));
        client.close().expect("clean close");
        id
    });

    // Find the victim's active statement from the other connection, then
    // kill it through SQL.
    let victim_id = id_rx.recv().unwrap() as i64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "victim never became active");
        let results = run_ok(
            &mut monitor,
            &format!(
                "SELECT session_id FROM snapshot_stat_activity \
                 WHERE session_id = {victim_id} AND state = 'active';"
            ),
        );
        if !first_rows(&results).is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let results = run_ok(
        &mut monitor,
        &format!("SELECT snapshot_cancel({victim_id});"),
    );
    assert_eq!(
        sorted_rows(first_rows(&results))[0].values()[0],
        Value::Bool(true),
        "cancellation signalled"
    );
    let reported = victim.join().expect("victim thread");
    assert_eq!(reported as i64, victim_id, "killed the right session");

    stop(monitor, server);
    drop(handle);
}

/// Satellite: the server's `--timeout-ms` default reaches every
/// connection — a slow join over the wire comes back as a Cancelled
/// frame, the connection stays usable, and `SET statement_timeout = off`
/// overrides the default for that connection only.
#[test]
fn server_timeout_default_propagates_and_is_overridable() {
    let config = ServerConfig {
        options: SessionOptions {
            statement_timeout_ms: Some(5),
            ..SessionOptions::default()
        },
        ..ServerConfig::default()
    };
    let (addr, _handle, server) = start_server(SharedDatabase::in_memory(), config);
    let mut client = Client::connect(addr).expect("connect");
    run_ok(
        &mut client,
        "CREATE TABLE srv_slow (x INT, ts INT, te INT) PERIOD (ts, te);",
    );
    run_ok(&mut client, &bulk_insert("srv_slow", 800));

    // The server-wide default applies to this connection: the quadratic
    // join (640k pairs) cannot finish in 5 ms.
    let slow = "SELECT count(*) AS c FROM srv_slow a JOIN srv_slow b ON a.x <> b.x;";
    let resp = client.query(slow).expect("connection alive");
    match resp.error {
        Some(RemoteError::Cancelled(reason)) => {
            assert!(reason.contains("statement timeout"), "{reason}")
        }
        other => panic!("expected a Cancelled frame from the default timeout, got {other:?}"),
    }

    // The connection survived and the override clears the default: the
    // same join now runs to completion on this connection.
    let resp = client
        .query("SET statement_timeout = off;")
        .expect("connection alive");
    assert!(resp.error.is_none());
    let results = {
        let resp = client.query(slow).expect("connection alive");
        assert!(
            resp.error.is_none(),
            "override lifted the timeout: {:?}",
            resp.error
        );
        resp.results
    };
    let rows = sorted_rows(first_rows(&results));
    assert_eq!(rows[0].values()[0], Value::Int(800 * 799));

    // A *new* connection still gets the server default (the override was
    // per-connection) — and a limit of 0 clears it too.
    let mut fresh = Client::connect(addr).expect("connect");
    let resp = fresh.query(slow).expect("connection alive");
    assert!(
        matches!(resp.error, Some(RemoteError::Cancelled(_))),
        "fresh connection inherits the server default, got {:?}",
        resp.error
    );
    let resp = fresh
        .query("SET statement_timeout = 0;")
        .expect("connection alive");
    assert!(resp.error.is_none());
    let resp = fresh
        .query("SELECT count(*) AS c FROM srv_slow;")
        .expect("alive");
    assert!(resp.error.is_none());

    client.close().expect("clean close");
    stop(fresh, server);
}

/// SQL `SET` takes every option name over the wire: an accepted value
/// answers `SET name = value` and `SHOW` reads back what it left — as do
/// the resource limits, a scan shows them, and the database's slow-log
/// ring — while a bad name or value is refused with its message and
/// changes nothing that `SHOW`, a scan, a join or the ring shows. There is
/// no `parallelism` option: every value is refused as an unknown name,
/// and an overlap join after the largest of them still answers.
#[test]
fn sql_set_takes_every_option_name_and_refuses_bad_values() {
    let shared = SharedDatabase::in_memory();
    let obs = Arc::clone(shared.obs());
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(&mut client, SETUP);

    fn show(client: &mut Client, name: &str) -> String {
        let results = run_ok(client, &format!("SHOW {name};"));
        first_rows(&results).rows()[0].get(0).to_string()
    }
    fn outcome(client: &mut Client, sql: &str) -> Option<String> {
        let resp = client.query(sql).expect("connection alive");
        resp.error.map(|e| e.to_string())
    }
    fn state(client: &mut Client, obs: &snapshot_obs::Obs) -> String {
        let ring = show(client, "slow_log_capacity");
        assert_eq!(ring, obs.slow_log.capacity().to_string(), "one ring");
        // A pure overlap self-join over indexed scans: the sweep.
        let join = outcome(
            client,
            "SEQ VT (SELECT a.name FROM works a JOIN works b ON a.name < b.name);",
        );
        format!(
            "{} | {} | {ring} | {} | scan: {:?} | join: {join:?}",
            show(client, "statement_timeout"),
            show(client, "slow_query_ms"),
            show(client, "verify_indexed"),
            outcome(client, "SELECT name FROM works;"),
        )
    }

    let default_ring = snapshot_obs::SLOW_LOG_CAPACITY.to_string();
    let default_ring = default_ring.as_str();
    let unknown_parallelism = Err("unknown session option 'parallelism'");
    let cases = [
        ("statement_timeout", "60000", Ok("60000")),
        ("statement_timeout_ms", "0", Ok("off")),
        ("statement_timeout", "250", Ok("250")),
        ("statement_timeout", "off", Ok("off")),
        ("slow_query_ms", "60000", Ok("60000")),
        ("slow_query_ms", "0", Ok("0")),
        ("slow_query_ms", "off", Ok("off")),
        ("max_rows_scanned", "2", Ok("2")),
        ("max_rows_scanned", "off", Ok("off")),
        ("max_result_rows", "2", Ok("2")),
        ("max_result_rows", "0", Ok("off")),
        ("slow_log_capacity", "7", Ok("7")),
        ("slow_log_capacity", default_ring, Ok(default_ring)),
        ("verify_indexed", "on", Ok("on")),
        ("verify_indexed", "off", Ok("off")),
        (
            "no_such_option",
            "1",
            Err("unknown session option 'no_such_option'"),
        ),
        (
            "verify_indexed",
            "1",
            Err("invalid value '1' for 'verify_indexed' (expected 'on' or 'off')"),
        ),
        (
            "statement_timeout",
            "soon",
            Err("invalid value 'soon' for 'statement_timeout' (expected a number or 'off')"),
        ),
        ("parallelism", "1", unknown_parallelism),
        ("parallelism", "3", unknown_parallelism),
        ("parallelism", "4611686018427387904", unknown_parallelism),
        ("parallelism", "off", unknown_parallelism),
        (
            "slow_log_capacity",
            "0",
            Err("slow_log_capacity must be a positive number"),
        ),
    ];
    for (name, value, expected) in cases {
        let case = format!("{name} = {value}");
        let before = state(&mut client, &obs);
        let resp = client
            .query(&format!("SET {case};"))
            .expect("connection alive");
        let error = resp.error.map(|e| e.to_string());
        match expected {
            Ok(shown) => {
                assert_eq!(error, None, "{case}");
                assert_eq!(
                    format!("{:?}", resp.results),
                    format!("{:?}", [RemoteResult::Done(format!("SET {case}"))]),
                    "{case}"
                );
                assert_eq!(show(&mut client, name), shown, "{case}");
                if value == "2" {
                    let scan = outcome(&mut client, "SELECT name FROM works;");
                    let limit = format!("{name} (2) exceeded");
                    assert!(scan.is_some_and(|e| e.contains(&limit)), "{case}");
                }
            }
            Err(message) => {
                assert_eq!(error.as_deref(), Some(message), "{case}");
                assert!(resp.results.is_empty(), "{case}");
                assert_eq!(state(&mut client, &obs), before, "{case} changes nothing");
            }
        }
    }
    run_ok(
        &mut client,
        "CREATE TABLE a (x INT, ts INT, te INT) PERIOD (ts, te);
         INSERT INTO a VALUES (1, 0, 10), (2, 0, 10);
         CREATE TABLE b (y INT, ts INT, te INT) PERIOD (ts, te);
         INSERT INTO b VALUES (3, 5, 15), (4, 5, 15);",
    );
    let results = run_ok(
        &mut client,
        "SEQ VT (SELECT x, y FROM a JOIN b ON a.x <> b.y);",
    );
    assert_eq!(first_rows(&results).len(), 4);
    stop(client, server);
}

/// Over the wire, bare `.profile` returns exactly the folded stacks —
/// nothing at all before anything was profiled — which is what the remote
/// shell's `.profile FILE` writes; and the server refuses `.trace`, whose
/// statement records no frame could carry back.
#[test]
fn remote_profile_is_the_folded_stacks_and_trace_is_refused() {
    let shared = SharedDatabase::in_memory();
    let obs = Arc::clone(shared.obs());
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(&mut client, SETUP);
    assert_eq!(meta(&mut client, "profile"), Ok(String::new()));
    meta(&mut client, "profile on").unwrap();
    run_ok(&mut client, "SEQ VT (SELECT count(*) AS c FROM works);");
    meta(&mut client, "profile off").unwrap();
    let folded = meta(&mut client, "profile").unwrap();
    assert_eq!(folded, obs.profile.render_folded());
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("TemporalAggregate;Scan ")),
        "{folded}"
    );
    assert_eq!(
        meta(&mut client, "trace on"),
        Err(
            "a server answers .checkpoint, .dump, .index, .metrics and .profile only, \
             not '.trace on'"
                .to_string()
        )
    );

    stop(client, server);
}

/// A peer cannot make the server write a file: `.dump`, `.metrics` and
/// `.profile` with a FILE argument are refused and write nothing, while
/// their bare forms (what the remote shell writes client-side), `.index`
/// and `.checkpoint` answer.
#[test]
fn meta_file_arguments_are_refused_and_the_bare_forms_answer() {
    let out = ScratchDir::new("server_meta_out");
    let dir = ScratchDir::new("server_meta_db");
    let (shared, _) =
        SharedDatabase::open_durable(&dir, SessionOptions::default(), Default::default()).unwrap();
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(&mut client, SETUP);
    for cmd in ["dump", "metrics", "profile"] {
        let path = out.join(format!("{cmd}.out"));
        let refused = meta(&mut client, &format!("{cmd} {}", path.display()));
        assert!(refused.is_err(), ".{cmd} FILE: {refused:?}");
        assert!(!path.exists(), ".{cmd} FILE wrote {}", path.display());
    }
    let dump = meta(&mut client, "dump").unwrap();
    assert!(dump.contains("CREATE TABLE works"), "{dump}");
    assert!(meta(&mut client, "metrics").unwrap().contains("snapshot_"));
    meta(&mut client, "profile on").unwrap();
    meta(&mut client, "profile off").unwrap();
    meta(&mut client, "index").unwrap();
    meta(&mut client, "checkpoint").unwrap();
    assert_eq!(std::fs::read_dir(&*out).unwrap().count(), 0);
    stop(client, server);
}

/// The server answers `Meta` for five words only. Every other word — the
/// commands that are SQL (a shell sends their SQL), the local shell's
/// tools, `help`, `quit` and unknown words — gets `Error` then `Ready`:
/// it starts no thread, generates no data, and leaves the connection
/// answering.
#[test]
fn meta_words_other_than_the_five_are_refused() {
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(&mut client, SETUP);
    let catalog = |client: &mut Client| {
        let results = run_ok(
            client,
            "SELECT name, rows, version FROM snapshot_stat_tables;",
        );
        first_rows(&results).rows().to_vec()
    };
    let before = catalog(&mut client);
    for word in [
        "help",
        "quit",
        "tables",
        "load employees 10",
        "parallel 2 SELECT 1",
        "explain SELECT name FROM works",
        "activity",
        "kill 1",
        "timeout",
        "slow",
        "verify on",
        "trace on",
        "no_such_word",
    ] {
        let resp = client.meta(word).expect("connection alive");
        assert!(resp.results.is_empty(), ".{word}: {:?}", resp.results);
        let error = resp.error.map(|e| e.to_string()).unwrap_or_default();
        assert!(
            error.ends_with(&format!("not '.{word}'")),
            ".{word}: {error}"
        );
        let results = run_ok(&mut client, "SELECT count(*) AS c FROM works;");
        assert_eq!(
            first_rows(&results).rows()[0].get(0),
            &Value::Int(4),
            "after .{word}"
        );
    }
    assert_eq!(
        catalog(&mut client),
        before,
        "nothing was loaded or written"
    );
    stop(client, server);
}

/// A line of a string literal that starts with `--` is string text, not
/// a comment: the script runs whole over the wire and the value arrives
/// as written.
#[test]
fn a_dash_dash_line_inside_a_string_is_text_over_the_wire() {
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let results = run_ok(
        &mut client,
        "CREATE TABLE notes (s TEXT);\nINSERT INTO notes VALUES ('a\n-- b');\n-- done\n\
         SELECT s FROM notes;",
    );
    let notes = first_rows(&results);
    assert_eq!(notes.rows(), [Row::new(vec![Value::str("a\n-- b")])]);
    stop(client, server);
}

/// Regression: an ordinary error whose text echoes "statement cancelled"
/// arrives as an `Error` frame, not a `Cancelled` one, and leaves the
/// connection's transaction open — the server picks the frame from the
/// error's variant, not from its message.
#[test]
fn error_echoing_the_cancel_words_is_an_error_frame_and_keeps_the_transaction() {
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(
        &mut client,
        "CREATE TABLE srv_echo (x INT, ts INT, te INT) PERIOD (ts, te);",
    );
    run_ok(
        &mut client,
        "BEGIN; INSERT INTO srv_echo VALUES (2, 0, 10);",
    );

    let resp = client
        .query("SET max_result_rows = 'statement cancelled';")
        .expect("connection alive");
    match &resp.error {
        Some(RemoteError::Server(message)) => {
            assert!(message.contains("statement cancelled"), "{message}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert!(resp.in_txn, "the Ready frame still reports the transaction");

    let results = run_ok(&mut client, "COMMIT; SELECT x FROM srv_echo;");
    assert!(
        matches!(&results[0], RemoteResult::Done(s) if s == "COMMIT (1 table(s))"),
        "{results:?}"
    );
    assert_eq!(first_rows(&results).rows()[0].values()[0], Value::Int(2));

    stop(client, server);
}

/// A statement the compiler refuses — `BETWEEN i64::MAX AND i64::MAX`, a
/// window with no representable time point, which used to panic and take
/// the connection's thread with it — comes back as an `Error` frame, and
/// the same connection answers its next query.
#[test]
fn empty_window_at_the_end_of_time_is_an_error_frame_and_the_connection_lives() {
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(&mut client, SETUP);
    let resp = client
        .query(
            "SEQ VT BETWEEN 9223372036854775807 AND 9223372036854775807 \
             (SELECT name FROM works);",
        )
        .expect("connection alive");
    match &resp.error {
        Some(RemoteError::Server(message)) => {
            assert!(message.contains("empty SEQ VT window"), "{message}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    let results = run_ok(
        &mut client,
        "SEQ VT AS OF 9 (SELECT name FROM works WHERE skill = 'SP');",
    );
    assert_eq!(first_rows(&results).len(), 2);
    stop(client, server);
}

/// The server accounts every operation it served: after N statements of a
/// few shapes over two real connections, `snapshot_stat_statements` read
/// *over the wire* reports at least N calls for them.
#[test]
fn statement_stats_over_the_wire_account_every_operation() {
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut clients = [
        Client::connect(addr).expect("connect"),
        Client::connect(addr).expect("connect"),
    ];
    run_ok(
        &mut clients[0],
        "CREATE TABLE srv_acct (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);",
    );
    const SENT: i64 = 40;
    for op in 0..SENT as usize {
        let sql = match op % 4 {
            0 => format!(
                "INSERT INTO srv_acct VALUES ('p{op}', 'S{}', {op}, {});",
                op % 3,
                op + 5
            ),
            1 => "SEQ VT (SELECT skill, count(*) AS cnt FROM srv_acct GROUP BY skill);".to_string(),
            2 => format!(
                "UPDATE srv_acct SET skill = 'S9' WHERE name = 'p{}';",
                op - 2
            ),
            _ => format!("SELECT name FROM srv_acct WHERE ts >= {op};"),
        };
        run_ok(&mut clients[op % 2], &sql);
    }

    let results = run_ok(
        &mut clients[1],
        "SELECT fingerprint, calls FROM snapshot_stat_statements;",
    );
    let accounted: Vec<(String, i64)> = first_rows(&results)
        .rows()
        .iter()
        .filter_map(|r| match r.values() {
            [Value::Str(fp), Value::Int(calls)] if fp.contains("srv_acct") => {
                Some((fp.to_string(), *calls))
            }
            _ => None,
        })
        .collect();
    // The four DML/query shapes (literals normalised away) plus the DDL.
    assert!(accounted.len() >= 4, "{accounted:?}");
    let calls: i64 = accounted.iter().map(|(_, calls)| calls).sum();
    assert!(
        calls >= SENT,
        "server-side statement stats must cover the workload: \
         {calls} accounted < {SENT} sent ({accounted:?})"
    );

    let [client, _] = clients;
    stop(client, server);
}

/// Acceptance: graceful shutdown with connected clients leaves a
/// recoverable, WAL-consistent database directory — reopening it recovers
/// exactly the committed rows.
#[test]
fn graceful_shutdown_leaves_a_recoverable_database() {
    let dir = ScratchDir::new("server_graceful");
    let persistence = PersistenceOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 0, // recovery must come from the WAL tail
    };
    let (shared, _) =
        SharedDatabase::open_durable(&dir, SessionOptions::default(), persistence).unwrap();
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());

    let mut client = Client::connect(addr).expect("connect");
    run_ok(&mut client, SETUP);
    let results = run_ok(&mut client, "SELECT count(*) AS c FROM works;");
    let committed = sorted_rows(first_rows(&results))[0].values()[0].clone();
    assert_eq!(committed, Value::Int(4));

    // An idle second connection rides through the drain.
    let idle = Client::connect(addr).expect("idle connects");
    let served = stop(client, server);
    assert_eq!(served, 2, "both connections counted");
    drop(idle);

    // Reopen the directory: recovery replays the WAL into the same bag.
    let (reopened, report) =
        SharedDatabase::open_durable(&dir, SessionOptions::default(), persistence).unwrap();
    let mut session = reopened.session();
    let result = session.execute("SELECT count(*) AS c FROM works").unwrap();
    assert_eq!(result.rows().unwrap().rows()[0].values()[0], Value::Int(4));
    assert!(
        report.truncated_bytes == 0,
        "graceful shutdown leaves no torn tail"
    );
}

/// Satellite regression: a socket killed mid-query cancels the in-flight
/// statement and deregisters the connection's ActivityHandle exactly once
/// — no ghost rows linger in `snapshot_stat_activity`.
#[test]
fn killed_socket_mid_query_leaves_no_ghost_activity_rows() {
    let shared = SharedDatabase::in_memory();
    let obs = Arc::clone(shared.obs());
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());
    let mut setup = Client::connect(addr).expect("connect");
    run_ok(
        &mut setup,
        "CREATE TABLE srv_ghost (x INT, ts INT, te INT) PERIOD (ts, te);",
    );
    run_ok(&mut setup, &bulk_insert("srv_ghost", 3000));

    // Speak the protocol by hand so we can vanish without a Close frame.
    let mut raw = TcpStream::connect(addr).expect("connect");
    write_frame(
        &mut raw,
        &Frame::Hello {
            protocol_version: PROTOCOL_VERSION,
            client: "socket-killer".to_string(),
        },
    )
    .unwrap();
    let (welcome, _) = read_frame(&mut raw).expect("welcome");
    let Frame::Welcome { session_id, .. } = welcome else {
        panic!("expected Welcome, got {welcome:?}")
    };
    write_frame(
        &mut raw,
        &Frame::Query {
            sql: "SELECT count(*) AS c FROM srv_ghost a JOIN srv_ghost b ON a.x <> b.x;"
                .to_string(),
        },
    )
    .unwrap();

    // Wait until the statement is live in the registry...
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "statement never became active");
        let live = obs
            .activity
            .snapshot()
            .into_iter()
            .any(|s| s.session_id == session_id && s.state == "active");
        if live {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...then kill the socket without so much as a goodbye.
    raw.shutdown(Shutdown::Both).unwrap();
    drop(raw);

    // The reader notices, cancels the statement, and the executor drops
    // the session — its activity row must disappear (and only the row of
    // the torn connection; the setup client's stays).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "ghost activity row: session {session_id} still registered"
        );
        let sessions = obs.activity.snapshot();
        if !sessions.iter().any(|s| s.session_id == session_id) {
            assert!(
                sessions.iter().any(|s| s.session_id == setup.session_id),
                "the surviving connection keeps its row"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let cancelled = obs.metrics.counter("statements_cancelled_total").get();
    assert_eq!(
        cancelled, 1,
        "the orphaned statement was cancelled, not run to completion"
    );

    stop(setup, server);
}

/// Two databases served from one process share no observability state:
/// each server sees only its own database's sessions, cancellations,
/// statement statistics, slow log, profile, slow-log capacity and commit
/// counter.
#[test]
fn two_databases_in_one_process_share_no_observability_state() {
    let (a, b) = (SharedDatabase::in_memory(), SharedDatabase::in_memory());
    let (obs_a, obs_b) = (Arc::clone(a.obs()), Arc::clone(b.obs()));
    let (addr_a, _handle_a, server_a) = start_server(a, ServerConfig::default());
    let (addr_b, _handle_b, server_b) = start_server(b, ServerConfig::default());
    // Session ids count per database: A has 1 and 2 (`busy`), B only 1.
    let mut in_a = Client::connect(addr_a).expect("connect");
    let mut busy = Client::connect(addr_a).expect("connect");
    let mut in_b = Client::connect(addr_b).expect("connect");
    let busy_id = busy.session_id;
    let table = "CREATE TABLE iso_a (x INT, ts INT, te INT) PERIOD (ts, te)";
    let rows = bulk_insert("iso_a", 2000);
    run_ok(
        &mut in_a,
        &format!("{table}; {rows}; INSERT INTO iso_a VALUES (-1, 0, 5);"),
    );
    run_ok(&mut in_b, "CREATE TABLE iso_b (y INT);");
    let column = |client: &mut Client, sql: &str| -> Vec<String> {
        let results = run_ok(client, sql);
        first_rows(&results)
            .rows()
            .iter()
            .map(|r| r.get(0).to_string())
            .collect()
    };
    let activity = "SELECT session_id FROM snapshot_stat_activity;";
    assert_eq!(
        column(&mut in_b, activity),
        ["1"],
        "B lists only its own session"
    );
    assert_eq!(column(&mut in_a, activity).len(), 2);

    // B cannot cancel A's running statement, which completes.
    let statement = std::thread::spawn(move || {
        let sql = "SELECT count(*) AS c FROM iso_a a JOIN iso_a b ON a.x <> b.x;";
        let count = first_rows(&run_ok(&mut busy, sql)).rows()[0].get(0).clone();
        (busy, count)
    });
    wait_until("A's statement never became active", || {
        let live = obs_a.activity.snapshot();
        live.iter()
            .any(|s| s.session_id == busy_id && s.state == "active")
    });
    let kill = format!("SELECT snapshot_cancel({busy_id});");
    assert_eq!(column(&mut in_b, &kill), ["false"]);
    let (busy, count) = statement.join().expect("A's statement thread");
    assert_eq!(count, Value::Int(2001 * 2000), "A's statement completed");

    // Statistics, slow log, profile and slow-log capacity stay in A.
    run_ok(
        &mut in_a,
        "SET slow_query_ms = 0; SET slow_log_capacity = 1;",
    );
    in_a.meta("profile on").expect("connection alive");
    run_ok(&mut in_a, "SEQ VT (SELECT count(*) AS c FROM iso_a);");
    // The one-entry ring still holds the query above when read first.
    for sql in [
        "SELECT statement FROM snapshot_stat_slow_queries;",
        "SELECT fingerprint FROM snapshot_stat_statements;",
    ] {
        let mentions_a = |client| column(client, sql).iter().any(|v| v.contains("iso_a"));
        assert!(mentions_a(&mut in_a) && !mentions_a(&mut in_b), "{sql}");
    }
    let profile = |client: &mut Client| format!("{:?}", client.meta("profile").unwrap().results);
    assert!(profile(&mut in_a).contains("TemporalAggregate;Scan "));
    assert_eq!(
        profile(&mut in_b),
        format!("{:?}", [RemoteResult::Done(String::new())])
    );
    let capacities = (obs_a.slow_log.capacity(), obs_b.slow_log.capacity());
    assert_eq!(capacities, (1, snapshot_obs::SLOW_LOG_CAPACITY));
    let commits = |obs: &snapshot_obs::Obs| obs.metrics.counter("txn_commits_total").get();
    assert_eq!(
        (commits(&obs_a), commits(&obs_b)),
        (3, 1),
        "A: 3 commits, B: 1"
    );

    busy.close().expect("clean close");
    stop(in_a, server_a);
    stop(in_b, server_b);
}

/// The connection limit refuses the surplus connection with a protocol
/// error (not a raw reset), and a mismatched protocol version is refused
/// at the handshake.
#[test]
fn connection_limit_and_version_mismatch_are_refused_cleanly() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let shared = SharedDatabase::in_memory();
    let gauge = shared.obs().metrics.gauge("server_connections_active");
    let (addr, _handle, server) = start_server(shared, config);
    let first = Client::connect(addr).expect("first connection fits");
    let surplus = Client::connect(addr);
    match surplus {
        Err(RemoteError::Server(msg)) => assert!(msg.contains("capacity"), "{msg}"),
        other => panic!("expected a capacity refusal, got {other:?}"),
    }

    // Free the one slot and wait for the server to deregister it, so the
    // next connection is refused for its *version*, not for capacity.
    drop(first.close());
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauge.get() > 0 {
        assert!(
            Instant::now() < deadline,
            "closed connection never deregistered"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // A wrong protocol version — the row-wise version 1 this server used
    // to speak, or one from the future — is answered with an Error frame.
    for version in [1, PROTOCOL_VERSION + 1] {
        let mut raw = TcpStream::connect(addr).expect("connect");
        write_frame(
            &mut raw,
            &Frame::Hello {
                protocol_version: version,
                client: "time-traveller".to_string(),
            },
        )
        .unwrap();
        match read_frame(&mut raw) {
            Ok((Frame::Error { message }, _)) => {
                assert!(message.contains("protocol version mismatch"), "{message}")
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
    }

    // The server is still healthy: a well-versioned client connects.
    let mut ok = Client::connect(addr).expect("healthy after refusals");
    let results = run_ok(&mut ok, "SELECT count(*) AS c FROM snapshot_stat_tables;");
    assert_eq!(
        sorted_rows(first_rows(&results))[0].values()[0],
        Value::Int(0)
    );
    stop(ok, server);
}

/// Handshake a hand-driven connection; returns the session id it got and
/// the size of the `Welcome` frame that carried it.
fn raw_hello(raw: &mut TcpStream, client: &str) -> (u64, u64) {
    write_frame(
        raw,
        &Frame::Hello {
            protocol_version: PROTOCOL_VERSION,
            client: client.to_string(),
        },
    )
    .unwrap();
    match read_frame(raw).expect("welcome") {
        (Frame::Welcome { session_id, .. }, n) => (session_id, n as u64),
        (other, _) => panic!("expected Welcome, got {other:?}"),
    }
}

/// Poll `done` until it holds; panics with `what` after 30 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A `SEQ VT` join whose result crosses four batch boundaries — string
/// runs, NULLs and doubles straddling them — comes off a real socket as
/// the *same row sequence* the in-process session produces (the order is
/// part of the encoding's uniqueness, not just the bag), and
/// `server_bytes_sent_total` counts exactly the bytes the client read.
#[test]
fn multi_batch_result_arrives_in_order_with_every_byte_accounted() {
    let shared = SharedDatabase::in_memory();
    let (addr, _handle, server) = start_server(shared.clone(), ServerConfig::default());
    // Loaded in process: the first connection's bytes are all the server
    // sends, so the count below is exact without a racy baseline.
    let mut load = shared.session();
    load.execute_script(
        "CREATE TABLE srv_emp (name TEXT, dept TEXT, pay DOUBLE, ts INT, te INT) PERIOD (ts, te);
         CREATE TABLE srv_dept (dept TEXT, boss TEXT, ts INT, te INT) PERIOD (ts, te);",
    )
    .unwrap();
    let mut emp = String::from("INSERT INTO srv_emp VALUES ");
    for i in 0..400 {
        let pay = match i % 5 {
            0 | 1 => "NULL".to_string(),
            _ => format!("{}.25", 1000 + i),
        };
        let sep = if i == 0 { "" } else { ", " };
        emp.push_str(&format!(
            "{sep}('emp{:03}', 'D{}', {pay}, {}, {})",
            i / 3,
            i % 4,
            i % 50,
            i % 50 + 30
        ));
    }
    let mut dept = String::from("INSERT INTO srv_dept VALUES ");
    for d in 0..4 {
        for k in 0..3 {
            let sep = if d + k == 0 { "" } else { ", " };
            dept.push_str(&format!(
                "{sep}('D{d}', 'boss{k}', {}, {})",
                20 * k,
                20 * k + 45
            ));
        }
    }
    load.execute_script(&format!("{emp}; {dept};")).unwrap();
    let sql =
        "SEQ VT (SELECT e.name, e.pay, d.boss FROM srv_emp e JOIN srv_dept d ON e.dept = d.dept);";

    let StatementResult::Rows(expected) = shared.session().execute(sql).expect("in-process") else {
        panic!("rows expected")
    };
    assert!(
        expected.len() > 4 * ROW_BATCH,
        "the result must span more than four batches, got {} rows",
        expected.len()
    );
    let column = |c: usize| expected.rows().iter().map(move |r| r.get(c));
    assert!(column(1).any(Value::is_null) && column(1).any(|v| matches!(v, Value::Double(_))));

    // By hand, counting every byte of a connection: `Welcome`, then the
    // response up to `Ready`.
    let sent = shared.obs().metrics.counter("server_bytes_sent_total");
    let mut raw = TcpStream::connect(addr).expect("connect");
    let (_, mut consumed) = raw_hello(&mut raw, "byte-counter");
    write_frame(&mut raw, &Frame::Query { sql: sql.into() }).unwrap();
    let (mut batches, mut rows) = (0, Vec::new());
    loop {
        let (frame, n) = read_frame(&mut raw).expect("response frame");
        consumed += n as u64;
        match frame {
            Frame::RowBatch { rows: batch } => {
                batches += 1;
                rows.extend(batch);
            }
            Frame::Ready { .. } => break,
            Frame::RowHeader { .. } | Frame::RowEnd { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(batches, expected.len().div_ceil(ROW_BATCH));
    assert_eq!(rows, expected.rows());
    // The server counts a frame after writing it, so the last add can trail
    // the client's read of `Ready`; it must land on the byte.
    wait_until("server_bytes_sent_total never caught up", || {
        sent.get() >= consumed
    });
    assert_eq!(sent.get(), consumed);
    drop(raw);

    // Through `Client`: same rows, same order.
    let mut client = Client::connect(addr).expect("connect");
    let results = run_ok(&mut client, sql);
    assert_eq!(first_rows(&results).rows(), expected.rows());
    assert_eq!(first_rows(&results).period(), expected.period());
    stop(client, server);
}

/// A result 20 000 columns wide: a 256-row batch of it would hold more
/// values than a column block may, so the server cuts fewer rows per
/// batch and all 300 rows arrive intact.
#[test]
fn a_result_20000_columns_wide_arrives_intact() {
    let (arity, n) = (20_000, 300);
    let wide = |r: usize| Row::new((0..arity).map(|c| Value::Int((r * 7 + c) as i64)).collect());
    let schema = Schema::new(
        (0..arity)
            .map(|c| Column::new(format!("c{c}"), SqlType::Int))
            .collect(),
    );
    let mut table = Table::new(schema);
    table.extend((0..n).map(wide));
    let shared = SharedDatabase::in_memory();
    shared
        .register_tables([("srv_wide20k".to_string(), table)])
        .unwrap();
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let results = run_ok(&mut client, "SELECT * FROM srv_wide20k");
    let got = first_rows(&results);
    assert_eq!(got.len(), n);
    assert!(got
        .rows()
        .iter()
        .enumerate()
        .all(|(r, row)| *row == wide(r)));
    drop(results);
    stop(client, server);
}

/// A client that vanishes in the middle of a multi-batch result: the
/// server is parked in a write the client will never drain, the write
/// fails, the connection thread exits and the session's activity row
/// deregisters exactly once.
#[test]
fn client_dropped_mid_result_fails_the_stream_and_deregisters_once() {
    let shared = SharedDatabase::in_memory();
    let obs = Arc::clone(shared.obs());
    // Loaded in process, so the two welcomes below are all the bytes the
    // server sends before the dropped stream.
    let mut load = shared.session();
    load.execute("CREATE TABLE srv_wide (x INT, pad TEXT)")
        .unwrap();
    // 300 rows of distinct 200-byte strings; the self-join below ships
    // ~90 000 rows × 400 bytes that no run or delta shrinks — far more
    // than the socket buffers between the two ends hold.
    let mut insert = String::from("INSERT INTO srv_wide VALUES ");
    for i in 0..300 {
        let sep = if i == 0 { "" } else { ", " };
        insert.push_str(&format!("{sep}({i}, '{}')", format!("{i:04}").repeat(50)));
    }
    load.execute(&insert).unwrap();
    let (addr, _handle, server) = start_server(shared, ServerConfig::default());
    let mut survivor = TcpStream::connect(addr).expect("connect");
    let (survivor_id, survivor_bytes) = raw_hello(&mut survivor, "survivor");

    let sent = obs.metrics.counter("server_bytes_sent_total");
    let mut raw = TcpStream::connect(addr).expect("connect");
    let (session_id, welcome_bytes) = raw_hello(&mut raw, "half-reader");
    write_frame(
        &mut raw,
        &Frame::Query {
            sql: "SELECT a.pad, b.pad FROM srv_wide a JOIN srv_wide b ON a.x <> b.x;".into(),
        },
    )
    .unwrap();
    // Read into the result — header and two batches — then vanish.
    for expected in ["RowHeader", "RowBatch", "RowBatch"] {
        let (frame, _) = read_frame(&mut raw).expect("result frame");
        assert!(format!("{frame:?}").starts_with(expected), "{frame:?}");
    }
    raw.shutdown(Shutdown::Both).unwrap();
    drop(raw);

    let listed = |id| obs.activity.snapshot().iter().any(|s| s.session_id == id);
    wait_until("ghost activity row after a mid-result drop", || {
        !listed(session_id)
    });
    assert!(
        listed(survivor_id),
        "the surviving connection keeps its row"
    );
    let gauge = obs.metrics.gauge("server_connections_active");
    wait_until("torn connection never left the registry", || {
        gauge.get() == 1
    });
    // Bytes are counted per completed result: a stream that failed midway
    // added nothing, which is how the failure shows from outside.
    assert_eq!(
        sent.get(),
        survivor_bytes + welcome_bytes,
        "write_rowset must have failed"
    );

    drop(survivor);
    stop(Client::connect(addr).expect("connect"), server);
}

/// A scripted stand-in for the server: handshakes, reads one request and
/// answers it with `response`, then hangs up at once (`hang_up`) or holds
/// the socket until the client lets go. Returns the address to connect to.
fn fake_server(response: Vec<Frame>, hang_up: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (hello, _) = read_frame(&mut stream).expect("hello");
        assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
        write_frame(
            &mut stream,
            &Frame::Welcome {
                protocol_version: PROTOCOL_VERSION,
                server: "fake".into(),
                session_id: 1,
            },
        )
        .unwrap();
        let (request, _) = read_frame(&mut stream).expect("request");
        assert!(matches!(request, Frame::Query { .. }), "{request:?}");
        // The client may hang up at the first frame it refuses.
        let _ = response
            .iter()
            .try_for_each(|frame| write_frame(&mut stream, frame).map(drop));
        if hang_up {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        while read_frame(&mut stream).is_ok() {}
    });
    (addr, thread)
}

/// North-star 3 on the client's side of the wire: a buggy or hostile
/// server cannot panic `Client`. A period naming columns the schema does
/// not have, or a `STR` column; a batch of the wrong arity; a row whose
/// period is empty — each is a `Connection` error and the process lives.
#[test]
fn malformed_results_are_connection_errors_not_panics() {
    let schema = || {
        Schema::of(&[
            ("name", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ])
    };
    let header = |period| Frame::RowHeader {
        schema: schema(),
        period: Some(period),
    };
    let batch = |values: Vec<Value>| Frame::RowBatch {
        rows: vec![Row::new(values)],
    };
    let ann = || Value::str("Ann");
    let scripts: Vec<(&str, Vec<Frame>)> = vec![
        ("period out of range", vec![header((7, 9))]),
        ("period on a STR column", vec![header((0, 2))]),
        (
            "batch of the wrong arity",
            vec![header((1, 2)), batch(vec![ann(), Value::Int(3)])],
        ),
        (
            "begin >= end",
            vec![
                header((1, 2)),
                batch(vec![ann(), Value::Int(5), Value::Int(5)]),
            ],
        ),
        (
            "NULL period endpoint",
            vec![
                header((1, 2)),
                batch(vec![ann(), Value::Null, Value::Int(5)]),
            ],
        ),
    ];
    for (what, mut response) in scripts {
        // A trailer that agrees with the batches: nothing else is wrong.
        let rows = response.len() as u64 - 1;
        response.push(Frame::RowEnd { rows });
        response.push(Frame::Ready { in_txn: false });
        let (addr, fake) = fake_server(response, false);
        let mut client = Client::connect(addr).expect("handshake with the fake");
        match client.query("SELECT 1;") {
            Err(RemoteError::Connection(_)) => {}
            other => panic!("{what}: expected a connection error, got {other:?}"),
        }
        drop(client);
        fake.join().expect("fake server thread");
    }
}

/// Frames that are each well formed but come in an order the protocol
/// forbids cannot panic `Client` either: a `RowBatch` before any
/// `RowHeader`, a batch whose arity disagrees with its header, a `RowEnd`
/// whose count disagrees with the batches, and a socket closed in the
/// middle of a result each make `query` return `Err`.
#[test]
fn bad_result_sequences_are_errors_not_panics() {
    let header = || Frame::RowHeader {
        schema: Schema::of(&[
            ("x", SqlType::Int),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]),
        period: Some((1, 2)),
    };
    let batch = |values: &[i64]| Frame::RowBatch {
        rows: vec![Row::new(values.iter().map(|&v| Value::Int(v)).collect())],
    };
    let ready = || Frame::Ready { in_txn: false };
    let end = |rows| Frame::RowEnd { rows };
    let scripts: Vec<(&str, Vec<Frame>, bool)> = vec![
        (
            "RowBatch before any RowHeader",
            vec![batch(&[7, 1, 5]), end(1), ready()],
            false,
        ),
        (
            "RowBatch arity disagrees with its RowHeader",
            vec![header(), batch(&[7, 1]), end(1), ready()],
            false,
        ),
        (
            "RowEnd count disagrees with the batches",
            vec![header(), batch(&[7, 1, 5]), end(2), ready()],
            false,
        ),
        (
            "socket closed mid-result",
            vec![header(), batch(&[7, 1, 5])],
            true,
        ),
    ];
    for (what, response, hang_up) in scripts {
        let (addr, fake) = fake_server(response, hang_up);
        let mut client = Client::connect(addr).expect("handshake with the fake");
        let outcome = client.query("SELECT 1;");
        assert!(outcome.is_err(), "{what}: expected Err, got {outcome:?}");
        drop(client);
        fake.join().expect("fake server thread");
    }
}

/// A script means the same over the wire as through the session's loop in
/// process: it is parsed whole before any statement runs, so a syntax
/// error in its last statement runs nothing; a run-time failure stops it,
/// and the results of the statements before it are streamed before its
/// `Error`.
#[test]
fn a_script_means_the_same_over_the_wire_and_in_process() {
    const SYNTAX: &str =
        "CREATE TABLE se_one (x INT); INSERT INTO se_one VALUES (1); SELEC x FROM se_one;";
    const RUNTIME: &str = "CREATE TABLE se_two (x INT); INSERT INTO se_two VALUES (1), (2); \
         INSERT INTO se_missing VALUES (3); INSERT INTO se_two VALUES (4);";
    let remote = SharedDatabase::in_memory();
    let (addr, _handle, server) = start_server(remote.clone(), ServerConfig::default());
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw_hello(&mut raw, "script-semantics");
    let mut wire = |sql: &str| {
        write_frame(&mut raw, &Frame::Query { sql: sql.into() }).unwrap();
        let mut reply = Vec::new();
        loop {
            match read_frame(&mut raw).expect("response frame").0 {
                Frame::Done { summary } => reply.push(format!("Done {summary}")),
                Frame::Error { message } => reply.push(format!("Error {message}")),
                Frame::Ready { .. } => return reply,
                other => panic!("unexpected frame {other:?}"),
            }
        }
    };
    let local = SharedDatabase::in_memory();
    let mut session = local.session();
    let mut in_process = |sql: &str| {
        let mut reply = Vec::new();
        let outcome = session.run_script(sql, |r| {
            reply.push(format!("Done {r}"));
            true
        });
        if let Err(e) = outcome {
            reply.push(format!("Error {e}"));
        }
        reply
    };

    let syntax = wire(SYNTAX);
    assert!(
        matches!(syntax.as_slice(), [e] if e.starts_with("Error ")),
        "{syntax:?}"
    );
    assert_eq!(syntax, in_process(SYNTAX));
    let runtime = wire(RUNTIME);
    assert!(
        matches!(runtime.as_slice(), [create, insert, e]
            if create == "Done CREATE TABLE se_two"
                && insert == "Done INSERT 2 INTO se_two"
                && e.starts_with("Error ")),
        "{runtime:?}"
    );
    assert_eq!(runtime, in_process(RUNTIME));
    for db in [&remote, &local] {
        let view = db.snapshot();
        assert!(view.catalog().get("se_one").is_none());
        // The fourth statement never ran.
        assert_eq!(view.catalog().get("se_two").map(|t| t.len()), Some(2));
    }
    drop(raw);
    stop(Client::connect(addr).expect("connect"), server);
}

/// A shared database seals the tables it publishes, and a sealed table is
/// read through its blocks: no served statement of an employees class (the
/// fetches, joins, aggregates and differences) or of a registry kind
/// (census, audit, publish, register) flattens one into the copy that
/// `Table::rows` keeps. Each statement's snapshot is pinned before it runs,
/// so a table a write superseded is checked too.
#[test]
fn served_statements_never_flatten_a_sealed_table() {
    use snapshot_semantics::datagen::employees;

    let shared = SharedDatabase::in_memory();
    let data = employees::generate(600.0 / employees::FULL_SCALE_EMPLOYEES as f64, 42);
    let tables = data
        .table_names()
        .map(|n| (n.to_string(), data.get(n).unwrap().clone()));
    shared.register_tables(tables).unwrap();
    let (addr, _handle, server) = start_server(shared.clone(), ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let registry: Vec<String> = (0..600)
        .map(|i| {
            format!(
                "({i}, 'type{}', 'active', 1, {}, {i}, 100000)",
                i % 13,
                i / 8
            )
        })
        .collect();
    let mut statements: Vec<String> = vec![
        "CREATE TABLE reg (object_id INT, object_type TEXT, status TEXT, version INT, \
         set_id INT, ts INT, te INT) PERIOD (ts, te)"
            .into(),
        format!("INSERT INTO reg VALUES {}", registry.join(", ")),
        "SEQ VT (SELECT status, count(*) AS n FROM reg GROUP BY status)".into(),
        "SEQ VT AS OF 300 (SELECT object_id, status, version, set_id FROM reg \
         WHERE object_type = 'type3')"
            .into(),
        "INSERT INTO reg VALUES (8, 'type8', 'draft', 2, 90, 1000, 100000), \
         (9, 'type9', 'draft', 2, 90, 1000, 100000)"
            .into(),
        "UPDATE reg SET te = 1000 WHERE object_id BETWEEN 8 AND 9 AND te = 100000 AND ts < 1000"
            .into(),
        "INSERT INTO reg VALUES (600, 'type2', 'draft', 1, 91, 1001, 100000)".into(),
        "SEQ VT (SELECT dept_no, count(*) FROM dept_emp GROUP BY dept_no)".into(),
        "SEQ VT AS OF 5000 (SELECT emp_no, salary FROM salaries)".into(),
        "SEQ VT BETWEEN 4000 AND 4500 (SELECT emp_no, salary FROM salaries)".into(),
    ];
    statements.extend(employees::queries().into_iter().map(|(_, q)| q.to_string()));

    let mut sealed = std::collections::BTreeSet::new();
    for sql in &statements {
        let before = shared.snapshot();
        run_ok(&mut client, sql);
        for snapshot in [before, shared.snapshot()] {
            let catalog = snapshot.catalog();
            for name in catalog.table_names() {
                let table = catalog.get(name).unwrap();
                assert!(!table.rows_cached(), "{sql}\nflattened table '{name}'");
                if table.as_slice().is_none() {
                    sealed.insert(name.to_string());
                }
            }
        }
    }
    for name in ["reg", "salaries", "dept_emp", "titles", "employees"] {
        assert!(
            sealed.contains(name),
            "'{name}' was never sealed: {sealed:?}"
        );
    }
    stop(client, server);
}
