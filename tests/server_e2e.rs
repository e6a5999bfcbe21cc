//! The network subsystem, end to end over real TCP sockets: concurrent
//! remote clients read bag-equal to the point-wise oracle on their pinned
//! snapshots while a writer churns, cancellation crosses connections
//! (`snapshot_cancel` from one client kills another's statement), the
//! server-wide statement-timeout default propagates to every connection
//! (and per-connection overrides clear it), SQL `SET` and the `SetOption`
//! frame take the same names to the same effect, graceful shutdown leaves a
//! recoverable WAL-consistent database, a socket killed mid-query or
//! mid-result leaves no ghost rows in `snapshot_stat_activity`, a
//! multi-batch result arrives in the executor's row order with every byte
//! accounted, and a server that sends a malformed result gets an `Err`
//! from the client, not a panic.
//!
//! The activity registry and metrics are process globals, so every test
//! takes `snapshot_obs::testing::serial_guard()`.

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
use snapshot_semantics::storage::{Catalog, Row, Schema, SqlType, Table, Value};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A fresh, empty scratch directory, unique per call.
fn scratch_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "snapshot_server_{}_{name}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
    let _guard = snapshot_obs::testing::serial_guard();
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
    setup.shutdown_server().expect("shutdown request");
    let served = server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    assert!(served >= 6, "all clients served, got {served}");
    assert!(handle.is_shutting_down());
}

/// Cross-connection cancellation: client B finds client A's statement in
/// `snapshot_stat_activity` *over the wire* (with its socket address —
/// the remote_addr satellite) and kills it with `snapshot_cancel`; A gets
/// a Cancelled frame and its connection stays usable.
#[test]
fn snapshot_cancel_crosses_connections() {
    let _guard = snapshot_obs::testing::serial_guard();
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

    monitor.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    drop(handle);
}

/// Satellite: the server's `--timeout-ms` default reaches every
/// connection — a slow join over the wire comes back as a Cancelled
/// frame, the connection stays usable, and `SET statement_timeout = off`
/// overrides the default for that connection only.
#[test]
fn server_timeout_default_propagates_and_is_overridable() {
    let _guard = snapshot_obs::testing::serial_guard();
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
    // per-connection) — and the SetOption frame route works too.
    let mut fresh = Client::connect(addr).expect("connect");
    let resp = fresh.query(slow).expect("connection alive");
    assert!(
        matches!(resp.error, Some(RemoteError::Cancelled(_))),
        "fresh connection inherits the server default, got {:?}",
        resp.error
    );
    let resp = fresh
        .set_option("statement_timeout", "off")
        .expect("connection alive");
    assert!(resp.error.is_none());
    let resp = fresh
        .query("SELECT count(*) AS c FROM srv_slow;")
        .expect("alive");
    assert!(resp.error.is_none());

    client.close().expect("clean close");
    fresh.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// SQL `SET` and the `SetOption` frame run one function: every option
/// name, spelled either way, answers the same and leaves the same state —
/// as `.timeout` / `.slow` report it, as the resource limits and the join
/// route show it, and in the process-wide slow-log ring — and a bad name
/// or value gets the same error on both paths.
#[test]
fn sql_set_and_set_option_frame_take_the_same_names() {
    let _guard = snapshot_obs::testing::serial_guard();
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut by_sql = Client::connect(addr).expect("connect");
    let mut by_frame = Client::connect(addr).expect("connect");
    run_ok(&mut by_sql, SETUP);

    fn state(client: &mut Client) -> String {
        let meta = |client: &mut Client, command: &str| match &client
            .meta(command)
            .expect("connection alive")
            .results[..]
        {
            [RemoteResult::Done(text)] => text.lines().next().unwrap_or("").to_string(),
            other => panic!(".{command}: {other:?}"),
        };
        let outcome = |client: &mut Client, sql: &str| {
            let resp = client.query(sql).expect("connection alive");
            resp.error.map(|e| e.to_string())
        };
        let parallel_joins =
            snapshot_obs::registry().counter("engine_parallelsweepjoin_invocations_total");
        let before = parallel_joins.get();
        // A pure overlap self-join over indexed scans: the sweep, run
        // slab-parallel exactly when the session's parallelism is above 1.
        let join = outcome(
            client,
            "SEQ VT (SELECT a.name FROM works a JOIN works b ON a.name < b.name);",
        );
        format!(
            "{} | {} | scan: {:?} | join: {join:?}, slab-parallel: {} | ring: {}",
            meta(client, "timeout"),
            meta(client, "slow"),
            outcome(client, "SELECT name FROM works;"),
            parallel_joins.get() > before,
            snapshot_obs::slow_log_capacity(),
        )
    }

    let default_ring = snapshot_obs::SLOW_LOG_CAPACITY.to_string();
    let cases = [
        ("statement_timeout", "60000"),
        ("statement_timeout_ms", "0"),
        ("statement_timeout", "250"),
        ("statement_timeout", "off"),
        ("slow_query_ms", "60000"),
        ("slow_query_ms", "0"),
        ("slow_query_ms", "off"),
        ("max_rows_scanned", "2"),
        ("max_rows_scanned", "off"),
        ("max_result_rows", "2"),
        ("max_result_rows", "0"),
        ("parallelism", "1"),
        ("parallelism", "3"),
        ("slow_log_capacity", "7"),
        ("slow_log_capacity", default_ring.as_str()),
        // Refused on both paths, with one message.
        ("no_such_option", "1"),
        ("statement_timeout", "soon"),
        ("parallelism", "off"),
        ("slow_log_capacity", "0"),
    ];
    let mut refused = 0;
    for (name, value) in cases {
        let sql = by_sql
            .query(&format!("SET {name} = {value};"))
            .expect("connection alive");
        let frame = by_frame.set_option(name, value).expect("connection alive");
        let case = format!("{name} = {value}");
        assert_eq!(
            format!("{:?}", sql.results),
            format!("{:?}", frame.results),
            "{case}"
        );
        let error = sql.error.map(|e| e.to_string());
        assert_eq!(error, frame.error.map(|e| e.to_string()), "{case}");
        refused += usize::from(error.is_some());
        assert_eq!(state(&mut by_sql), state(&mut by_frame), "{case}");
    }
    assert_eq!(refused, 4, "only the last four cases are refused");
    assert_eq!(
        by_sql
            .set_option("no_such_option", "1")
            .expect("connection alive")
            .error
            .map(|e| e.to_string())
            .as_deref(),
        Some("unknown session option 'no_such_option'")
    );

    snapshot_obs::reset_slow_log();
    by_sql.close().expect("clean close");
    by_frame.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// Regression: an ordinary error whose text echoes "statement cancelled"
/// arrives as an `Error` frame, not a `Cancelled` one, and leaves the
/// connection's transaction open — the server picks the frame from the
/// error's variant, not from its message.
#[test]
fn error_echoing_the_cancel_words_is_an_error_frame_and_keeps_the_transaction() {
    let _guard = snapshot_obs::testing::serial_guard();
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

    client.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// The server accounts every operation it served: after N statements of a
/// few shapes over two real connections, `snapshot_stat_statements` read
/// *over the wire* reports at least N calls for them.
#[test]
fn statement_stats_over_the_wire_account_every_operation() {
    let _guard = snapshot_obs::testing::serial_guard();
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
    client.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// Acceptance: graceful shutdown with connected clients leaves a
/// recoverable, WAL-consistent database directory — reopening it recovers
/// exactly the committed rows.
#[test]
fn graceful_shutdown_leaves_a_recoverable_database() {
    let _guard = snapshot_obs::testing::serial_guard();
    let dir = scratch_dir("graceful");
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
    client.shutdown_server().expect("shutdown request");
    let served = server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
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
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: a socket killed mid-query cancels the in-flight
/// statement and deregisters the connection's ActivityHandle exactly once
/// — no ghost rows linger in `snapshot_stat_activity`.
#[test]
fn killed_socket_mid_query_leaves_no_ghost_activity_rows() {
    let _guard = snapshot_obs::testing::serial_guard();
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut setup = Client::connect(addr).expect("connect");
    run_ok(
        &mut setup,
        "CREATE TABLE srv_ghost (x INT, ts INT, te INT) PERIOD (ts, te);",
    );
    run_ok(&mut setup, &bulk_insert("srv_ghost", 3000));
    let cancelled_before = snapshot_obs::registry()
        .get_counter("statements_cancelled_total")
        .map_or(0, |c| c.get());

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
        let live = snapshot_obs::sessions_snapshot()
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
        let sessions = snapshot_obs::sessions_snapshot();
        if !sessions.iter().any(|s| s.session_id == session_id) {
            assert!(
                sessions.iter().any(|s| s.session_id == setup.session_id),
                "the surviving connection keeps its row"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let cancelled_after = snapshot_obs::registry()
        .get_counter("statements_cancelled_total")
        .map_or(0, |c| c.get());
    assert!(
        cancelled_after > cancelled_before,
        "the orphaned statement was cancelled, not run to completion"
    );

    setup.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// The connection limit refuses the surplus connection with a protocol
/// error (not a raw reset), and a mismatched protocol version is refused
/// at the handshake.
#[test]
fn connection_limit_and_version_mismatch_are_refused_cleanly() {
    let _guard = snapshot_obs::testing::serial_guard();
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let (addr, _handle, server) = start_server(SharedDatabase::in_memory(), config);
    let first = Client::connect(addr).expect("first connection fits");
    let surplus = Client::connect(addr);
    match surplus {
        Err(RemoteError::Server(msg)) => assert!(msg.contains("capacity"), "{msg}"),
        other => panic!("expected a capacity refusal, got {other:?}"),
    }

    // Free the one slot and wait for the server to deregister it, so the
    // next connection is refused for its *version*, not for capacity.
    drop(first.close());
    let gauge = snapshot_obs::registry().gauge("server_connections_active");
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
    ok.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
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
/// `server_bytes_sent_total` moves by exactly the bytes the client read.
#[test]
fn multi_batch_result_arrives_in_order_with_every_byte_accounted() {
    let _guard = snapshot_obs::testing::serial_guard();
    let shared = SharedDatabase::in_memory();
    let (addr, _handle, server) = start_server(shared.clone(), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    run_ok(
        &mut client,
        "CREATE TABLE srv_emp (name TEXT, dept TEXT, pay DOUBLE, ts INT, te INT) PERIOD (ts, te);
         CREATE TABLE srv_dept (dept TEXT, boss TEXT, ts INT, te INT) PERIOD (ts, te);",
    );
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
    run_ok(&mut client, &format!("{emp}; {dept};"));
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

    // Through `Client`: same rows, same order.
    let results = run_ok(&mut client, sql);
    assert_eq!(first_rows(&results).rows(), expected.rows());
    assert_eq!(first_rows(&results).period(), expected.period());

    // By hand, counting every byte of a connection: `Welcome`, then the
    // response up to `Ready`.
    let sent = snapshot_obs::registry().counter("server_bytes_sent_total");
    let sent_before = sent.get();
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
        sent.get() - sent_before >= consumed
    });
    assert_eq!(sent.get() - sent_before, consumed);

    drop(raw);
    client.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A client that vanishes in the middle of a multi-batch result: the
/// server is parked in a write the client will never drain, the write
/// fails, the connection thread exits and the session's activity row
/// deregisters exactly once.
#[test]
fn client_dropped_mid_result_fails_the_stream_and_deregisters_once() {
    let _guard = snapshot_obs::testing::serial_guard();
    let (addr, _handle, server) =
        start_server(SharedDatabase::in_memory(), ServerConfig::default());
    let mut setup = Client::connect(addr).expect("connect");
    run_ok(&mut setup, "CREATE TABLE srv_wide (x INT, pad TEXT);");
    // 300 rows of distinct 200-byte strings; the self-join below ships
    // ~90 000 rows × 400 bytes that no run or delta shrinks — far more
    // than the socket buffers between the two ends hold.
    let mut insert = String::from("INSERT INTO srv_wide VALUES ");
    for i in 0..300 {
        let sep = if i == 0 { "" } else { ", " };
        insert.push_str(&format!("{sep}({i}, '{}')", format!("{i:04}").repeat(50)));
    }
    run_ok(&mut setup, &insert);

    let sent = snapshot_obs::registry().counter("server_bytes_sent_total");
    let sent_before = sent.get();
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

    wait_until("ghost activity row after a mid-result drop", || {
        !snapshot_obs::sessions_snapshot()
            .iter()
            .any(|s| s.session_id == session_id)
    });
    assert!(
        snapshot_obs::sessions_snapshot()
            .iter()
            .any(|s| s.session_id == setup.session_id),
        "the surviving connection keeps its row"
    );
    let gauge = snapshot_obs::registry().gauge("server_connections_active");
    wait_until("torn connection never left the registry", || {
        gauge.get() == 1
    });
    // Bytes are counted per completed result: a stream that failed midway
    // added nothing, which is how the failure shows from outside.
    assert_eq!(
        sent.get() - sent_before,
        welcome_bytes,
        "write_rowset must have failed"
    );

    setup.shutdown_server().expect("shutdown request");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A scripted stand-in for the server: handshakes, reads one request and
/// answers it with `response`, then holds the socket until the client
/// lets go. Returns the address to connect to.
fn fake_server(response: Vec<Frame>) -> (SocketAddr, std::thread::JoinHandle<()>) {
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
        let (addr, fake) = fake_server(response);
        let mut client = Client::connect(addr).expect("handshake with the fake");
        match client.query("SELECT 1;") {
            Err(RemoteError::Connection(_)) => {}
            other => panic!("{what}: expected a connection error, got {other:?}"),
        }
        drop(client);
        fake.join().expect("fake server thread");
    }
}
