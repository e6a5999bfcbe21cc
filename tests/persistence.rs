//! Durability tests: crash recovery edge cases, the kill-and-restart
//! invariant over script prefixes, codec round-trips, and replay
//! differentials against the in-memory session and the point-wise oracle.
//!
//! The central invariant (ISSUE 3): for any prefix of a statement stream
//! executed durably, reopening the database directory yields a catalog
//! equal (rows, periods, schemas — versions aside) to the uninterrupted
//! in-memory run of the same prefix, with indexes that refresh soundly —
//! including when a checkpoint plus a WAL tail are on disk, and when the
//! WAL tail is torn or bit-flipped (recover the longest valid prefix,
//! never panic).
//!
//! Every directory is opened the way the binaries open it —
//! `SharedDatabase::open_durable` — so these tests exercise the one
//! durable write path (validate → log → publish) and the one recovery
//! driver. The checkpoint counters are process globals: every test that
//! can write a checkpoint takes `snapshot_obs::testing::serial_guard()`,
//! which is what makes the counter deltas of the reuse test exact.

use snapshot_obs::testing::serial_guard;
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::rewrite::infer_domain;
use snapshot_semantics::session::{
    Database, PersistenceOptions, RecoveryReport, Session, SessionOptions, SharedDatabase,
    SyncPolicy,
};
use snapshot_semantics::sql::{self, bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::wal::codec::{decode_catalog, encode_catalog, Reader, Writer};
use snapshot_semantics::wal::dump_sql;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty scratch directory, unique per call.
fn scratch_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "snapshot_persistence_{}_{name}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_options() -> SessionOptions {
    SessionOptions {
        verify_indexed: true,
        ..SessionOptions::default()
    }
}

/// Opens the directory the way every binary does — a durable
/// [`SharedDatabase`] — and hands back one session over it (dropping the
/// session drops the last handle, releasing the directory).
fn open(dir: &std::path::Path, checkpoint_every: usize) -> (Session, RecoveryReport) {
    open_with(dir, SyncPolicy::Always, checkpoint_every)
}

fn open_with(
    dir: &std::path::Path,
    sync: SyncPolicy,
    checkpoint_every: usize,
) -> (Session, RecoveryReport) {
    let (shared, report) = SharedDatabase::open_durable(
        dir,
        durable_options(),
        PersistenceOptions {
            sync,
            checkpoint_every,
        },
    )
    .unwrap_or_else(|e| panic!("open_durable({}): {e}", dir.display()));
    (shared.session_with_options(durable_options()), report)
}

fn counter(name: &str) -> u64 {
    snapshot_obs::registry()
        .get_counter(name)
        .map_or(0, |c| c.get())
}

/// Asserts that two catalogs are equal as multiset relations: same table
/// names, and per table same schema, period spec, and row multiset
/// (version epochs are intentionally not compared — a recovered table and
/// its in-memory twin live in different epoch histories).
fn assert_catalogs_equal(got: &Catalog, want: &Catalog, ctx: &str) {
    let got_names: Vec<&str> = got.table_names().collect();
    let want_names: Vec<&str> = want.table_names().collect();
    assert_eq!(got_names, want_names, "{ctx}: table sets differ");
    for name in want_names {
        let (g, w) = (got.get(name).unwrap(), want.get(name).unwrap());
        assert_eq!(
            g.canonicalized(),
            w.canonicalized(),
            "{ctx}: table '{name}' diverged"
        );
    }
}

/// Queries that exercise every scanned table with the indexed-vs-naive
/// cross-check on (session options enable `verify_indexed`): running them
/// after recovery proves the rebuilt indexes are epoch-fresh and correct.
fn assert_indexes_sound(session: &mut Session, ctx: &str) {
    let view = session.read_view();
    for name in view.catalog().table_names() {
        if view.catalog().get(name).unwrap().period().is_none() {
            continue;
        }
        session
            .execute(&format!("SEQ VT (SELECT count(*) AS c FROM {name})"))
            .unwrap_or_else(|e| panic!("{ctx}: indexed query on '{name}' failed: {e}"));
    }
}

const SETUP: &[&str] = &[
    "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)",
    "INSERT INTO works VALUES ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16)",
    "INSERT INTO works VALUES ('Sam', 'SP', 8, 16)",
    "UPDATE works SET skill = 'WE' WHERE name = 'Sam'",
    "INSERT INTO works VALUES ('Eve', 'SP', 0, 2)",
    "DELETE FROM works WHERE te <= 2",
];

/// The in-memory reference state after executing `statements`.
fn reference_catalog(statements: &[&str]) -> Catalog {
    let mut s = Session::with_options(Database::new(), durable_options());
    for sql in statements {
        s.execute(sql).unwrap();
    }
    s.database().catalog().clone()
}

#[test]
fn empty_wal_recovers_to_empty_database() {
    let dir = scratch_dir("empty");
    {
        let (_s, report) = open(&dir, 0);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.checkpoint_seq, None);
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(s.read_view().catalog().table_names().count(), 0);
}

#[test]
fn checkpoint_only_recovery() {
    let _guard = serial_guard();
    let dir = scratch_dir("ckpt_only");
    {
        let (mut s, _) = open(&dir, 0);
        for sql in SETUP {
            s.execute(sql).unwrap();
        }
        assert_eq!(s.checkpoint().unwrap(), Some(1));
    }
    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.checkpoint_seq, Some(1));
    assert_eq!(report.replayed, 0, "checkpoint covers the whole WAL");
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference_catalog(SETUP),
        "checkpoint-only",
    );
    assert_indexes_sound(&mut s, "checkpoint-only");
}

#[test]
fn wal_only_recovery() {
    let dir = scratch_dir("wal_only");
    {
        let (mut s, _) = open(&dir, 0); // auto-checkpoint disabled
        for sql in SETUP {
            s.execute(sql).unwrap();
        }
    }
    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.checkpoint_seq, None);
    assert_eq!(report.replayed, SETUP.len());
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference_catalog(SETUP),
        "wal-only",
    );
    assert_indexes_sound(&mut s, "wal-only");
}

/// The time domain is derived from each table's period extent, which is
/// not on disk: recovery has to rebuild it (checkpoint load through
/// `Table::restore`, the WAL tail through the ordinary mutators), shrinking
/// deletes and widening updates included. Observed the way a user sees it —
/// the gap rows of a global snapshot count span `[Tmin, Tmax)`.
#[test]
fn time_domain_is_the_same_before_a_kill_and_after_recovery() {
    let _guard = serial_guard();
    let dir = scratch_dir("domain");
    let query = "SEQ VT (SELECT count(*) AS c FROM works WHERE skill = 'SP')";
    let before = {
        let (mut s, _) = open(&dir, 0);
        for sql in SETUP {
            s.execute(sql).unwrap();
        }
        s.execute("CREATE TABLE wide (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        s.execute("INSERT INTO wide VALUES (1, -100, 500), (2, 20, 40)")
            .unwrap();
        assert_eq!(s.checkpoint().unwrap(), Some(1));
        // The tail the restart replays: the extent shrinks, then widens.
        s.execute("DELETE FROM wide WHERE x = 1").unwrap();
        s.execute("UPDATE wide SET te = te + 30 WHERE x = 2")
            .unwrap();
        assert_eq!(
            infer_domain(s.read_view().catalog()),
            snapshot_semantics::timeline::TimeDomain::new(3, 70)
        );
        session_rows(&mut s, query)
    };
    let int = |n: i64| Value::Int(n);
    let gap = Row::new(vec![int(0), int(10), int(70)]);
    assert!(before.contains(&gap), "gap row spans to Tmax: {before:?}");

    let (mut s, report) = open(&dir, 0);
    assert_eq!((report.checkpoint_seq, report.replayed), (Some(1), 2));
    assert_eq!(session_rows(&mut s, query), before);
    assert_eq!(session_rows(&mut s, query), oracle_rows(&s, query));
}

#[test]
fn torn_final_record_recovers_to_prefix() {
    let dir = scratch_dir("torn");
    {
        let (mut s, _) = open(&dir, 0);
        for sql in SETUP {
            s.execute(sql).unwrap();
        }
    }
    // Chop the final record mid-frame: the last statement is lost, the
    // prefix survives.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();
    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.replayed, SETUP.len() - 1);
    assert!(report.truncated_bytes > 0);
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference_catalog(&SETUP[..SETUP.len() - 1]),
        "torn tail",
    );
    assert_indexes_sound(&mut s, "torn tail");
    // The truncation is durable: reopening again is clean and identical
    // (the directory is single-opener — release the first session first).
    let recovered = s.read_view().catalog().clone();
    drop(s);
    let (s2, report) = open(&dir, 0);
    assert_eq!(report.truncated_bytes, 0);
    assert_catalogs_equal(s2.read_view().catalog(), &recovered, "rescan");
}

#[test]
fn bit_flipped_crc_recovers_to_prefix() {
    let dir = scratch_dir("bitflip");
    {
        let (mut s, _) = open(&dir, 0);
        for sql in SETUP {
            s.execute(sql).unwrap();
        }
    }
    // Flip one bit inside the very last record's payload.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 3;
    bytes[last] ^= 0x04;
    std::fs::write(&wal, &bytes).unwrap();
    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.replayed, SETUP.len() - 1);
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference_catalog(&SETUP[..SETUP.len() - 1]),
        "bit flip",
    );
    assert_indexes_sound(&mut s, "bit flip");
}

#[test]
fn failed_statements_are_not_logged() {
    let dir = scratch_dir("failed");
    {
        let (mut s, _) = open(&dir, 0);
        for sql in &SETUP[..2] {
            s.execute(sql).unwrap();
        }
        assert!(s
            .execute("INSERT INTO works VALUES ('X', 'SP', 9, 4)")
            .is_err());
        assert!(s.execute("INSERT INTO missing VALUES (1)").is_err());
        assert!(s.execute("UPDATE works SET te = 0").is_err());
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 2, "only the successful statements replay");
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference_catalog(&SETUP[..2]),
        "failed statements",
    );
}

/// The statement stream of the CI smoke script, meta commands stripped.
#[test]
fn transaction_commit_units_replay_atomically_after_restart() {
    let dir = scratch_dir("txn_unit");
    {
        let (mut s, _) = open(&dir, 0);
        s.execute(SETUP[0]).unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO works VALUES ('Ann', 'SP', 3, 10)")
            .unwrap();
        s.execute("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)")
            .unwrap();
        s.execute("UPDATE works SET skill = 'WE' WHERE name = 'Joe'")
            .unwrap();
        s.execute("COMMIT").unwrap();
    }
    let (mut s, report) = open(&dir, 0);
    // CREATE + BEGIN marker + 3 statements + COMMIT marker.
    assert_eq!(report.replayed, 6);
    assert_eq!(report.discarded_uncommitted, 0);
    assert_eq!(s.read_view().catalog().get("works").unwrap().len(), 2);
    assert_indexes_sound(&mut s, "after transactional replay");
}

#[test]
fn rolled_back_transactions_never_reach_the_wal() {
    let dir = scratch_dir("txn_rollback");
    {
        let (mut s, _) = open(&dir, 0);
        s.execute(SETUP[0]).unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO works VALUES ('Ghost', 'SP', 1, 5)")
            .unwrap();
        s.execute("ROLLBACK").unwrap();
        s.execute("INSERT INTO works VALUES ('Real', 'SP', 1, 5)")
            .unwrap();
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 2, "CREATE + the bare INSERT only");
    let names: Vec<String> = s
        .read_view()
        .catalog()
        .get("works")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(0).to_string())
        .collect();
    assert_eq!(names, vec!["Real"]);
}

#[test]
fn crash_before_the_commit_marker_discards_the_whole_transaction() {
    let dir = scratch_dir("txn_torn");
    let reference = {
        let (mut s, _) = open(&dir, 0);
        s.execute(SETUP[0]).unwrap();
        s.execute("INSERT INTO works VALUES ('Ann', 'SP', 3, 10)")
            .unwrap();
        let reference = s.read_view().catalog().clone();
        // A committed multi-statement transaction...
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)")
            .unwrap();
        s.execute("DELETE FROM works WHERE name = 'Ann'").unwrap();
        s.execute("COMMIT").unwrap();
        reference
    };
    // ...whose COMMIT marker is torn off by the crash: recovery must
    // discard the *entire* unit — replaying its prefix (the INSERT
    // without the DELETE, or either alone) would be a state no client was
    // ever shown.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 4]).unwrap();
    {
        let (mut s, report) = open(&dir, 0);
        assert_eq!(report.replayed, 2, "CREATE + bare INSERT");
        assert!(report.discarded_uncommitted >= 3, "BEGIN + 2 statements");
        assert_catalogs_equal(
            s.read_view().catalog(),
            &reference,
            "torn commit marker rolls back to the pre-transaction state",
        );
        assert_indexes_sound(&mut s, "after discarding the torn unit");
        // New statements appended after the discard can never be captured
        // by the (now truncated) dangling BEGIN.
        s.execute("INSERT INTO works VALUES ('After', 'SP', 2, 4)")
            .unwrap();
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.discarded_uncommitted, 0);
    assert_eq!(report.replayed, 3);
    assert_eq!(s.read_view().catalog().get("works").unwrap().len(), 2);
}

#[test]
fn noop_statements_inside_transactions_are_not_logged() {
    // A statement that matched nothing under the transaction's snapshot is
    // not in the write set (it cannot conflict) — so its text must not be
    // logged either: replaying it after a concurrent commit could suddenly
    // match and corrupt recovery.
    let dir = scratch_dir("txn_noop");
    {
        let (mut s, _) = open(&dir, 0);
        s.execute(SETUP[0]).unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("DELETE FROM works WHERE name = 'Nobody'")
            .unwrap();
        s.execute("INSERT INTO works VALUES ('Ann', 'SP', 3, 10)")
            .unwrap();
        s.execute("UPDATE works SET te = 11 WHERE name = 'Ghost'")
            .unwrap();
        s.execute("COMMIT").unwrap();
    }
    let (s, report) = open(&dir, 0);
    // CREATE + the lone effective INSERT (a single-statement unit is
    // logged bare — no markers); the two no-ops are absent.
    assert_eq!(report.replayed, 2);
    assert_eq!(s.read_view().catalog().get("works").unwrap().len(), 1);
}

#[test]
fn checkpoint_during_an_open_transaction_captures_committed_state_only() {
    let _guard = serial_guard();
    let dir = scratch_dir("ckpt_vs_txn");
    {
        let (shared, _) = SharedDatabase::open_durable(
            &dir,
            durable_options(),
            PersistenceOptions {
                sync: SyncPolicy::Always,
                checkpoint_every: 0,
            },
        )
        .unwrap();
        let mut a = shared.session();
        let mut b = shared.session();
        a.execute(SETUP[0]).unwrap();
        a.execute("INSERT INTO works VALUES ('Ann', 'SP', 3, 10)")
            .unwrap();
        b.execute("BEGIN").unwrap();
        b.execute("INSERT INTO works VALUES ('Uncommitted', 'NS', 1, 2)")
            .unwrap();
        // Checkpoint while b's transaction is open: it must capture the
        // committed state only (and not deadlock against the commit path).
        shared.checkpoint().unwrap().unwrap();
        b.execute("COMMIT").unwrap();
    }
    let (shared, report) = SharedDatabase::open_durable(
        &dir,
        durable_options(),
        PersistenceOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    // b's commit landed *after* the checkpoint, so it replays from the WAL.
    assert_eq!(report.replayed, 1);
    let view = shared.snapshot();
    assert_eq!(view.catalog().get("works").unwrap().len(), 2);
}

#[test]
fn shared_database_recovers_concurrent_commits() {
    let dir = scratch_dir("shared_durable");
    {
        let (shared, _) = SharedDatabase::open_durable(
            &dir,
            durable_options(),
            PersistenceOptions {
                sync: SyncPolicy::Always,
                checkpoint_every: 0,
            },
        )
        .unwrap();
        let mut a = shared.session();
        let mut b = shared.session();
        a.execute(SETUP[0]).unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO works VALUES ('A1', 'SP', 1, 4)")
            .unwrap();
        a.execute("INSERT INTO works VALUES ('A2', 'SP', 2, 5)")
            .unwrap();
        a.execute("COMMIT").unwrap();
        b.execute("INSERT INTO works VALUES ('B1', 'NS', 3, 6)")
            .unwrap(); // bare: implicit transaction
                       // A losing transaction must leave no trace in the log.
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("INSERT INTO works VALUES ('A3', 'SP', 1, 2)")
            .unwrap();
        b.execute("INSERT INTO works VALUES ('B2', 'NS', 1, 2)")
            .unwrap();
        a.execute("COMMIT").unwrap();
        assert!(b.execute("COMMIT").is_err());
    }
    let (shared, report) = SharedDatabase::open_durable(
        &dir,
        durable_options(),
        PersistenceOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    assert_eq!(report.discarded_uncommitted, 0);
    let view = shared.snapshot();
    let mut names: Vec<String> = view
        .catalog()
        .get("works")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(0).to_string())
        .collect();
    names.sort();
    assert_eq!(names, vec!["A1", "A2", "A3", "B1"]);
}

#[test]
fn incremental_checkpoints_skip_unchanged_tables_and_recover_exactly() {
    let _guard = serial_guard();
    let dir = scratch_dir("incr_ckpt");
    let (mut s, _) = open(&dir, 0);
    s.execute(SETUP[0]).unwrap();
    s.execute("CREATE TABLE stable (x INT)").unwrap();
    s.execute("INSERT INTO stable VALUES (1), (2), (3)")
        .unwrap();
    s.execute("INSERT INTO works VALUES ('Ann', 'SP', 3, 10)")
        .unwrap();
    // How a checkpoint split its tables, read off the registry counters.
    let split = || {
        (
            counter("wal_checkpoint_encoded_tables_total"),
            counter("wal_checkpoint_reused_tables_total"),
        )
    };
    let (encoded0, reused0) = split();
    s.checkpoint().unwrap();
    let (encoded1, reused1) = split();
    assert_eq!(encoded1 - encoded0, 2);
    assert_eq!(reused1 - reused0, 0);

    // Touch only `works`: `stable` must be spliced from the cache.
    s.execute("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)")
        .unwrap();
    s.checkpoint().unwrap();
    let (encoded2, reused2) = split();
    assert_eq!(encoded2 - encoded1, 1);
    assert_eq!(reused2 - reused1, 1);
    let reference = s.read_view().catalog().clone();
    drop(s);

    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 0, "everything is in the checkpoint");
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference,
        "incremental checkpoint recovers bit-exact",
    );
    assert_indexes_sound(&mut s, "after incremental-checkpoint recovery");
}

/// A failed *auto*-checkpoint runs after its commit was logged and
/// published, so it must not turn that commit into a failed statement (a
/// client that retries would double-insert): the commit stands, the
/// failure is counted, and the next commit retries the checkpoint.
#[test]
fn failed_auto_checkpoint_does_not_fail_the_commit() {
    let _guard = serial_guard();
    let dir = scratch_dir("auto_ckpt_fail");
    let (mut s, _) = open(&dir, 2);
    s.execute("CREATE TABLE t (x INT)").unwrap();
    assert_eq!(s.checkpoint().unwrap(), Some(1));
    // The next checkpoint's temp file cannot be created: a directory is
    // in its place.
    let obstacle = dir.join("checkpoint.2.tmp");
    std::fs::create_dir(&obstacle).unwrap();
    let failures = counter("wal_checkpoint_failures_total");
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    // This one reaches the threshold; its auto-checkpoint fails.
    s.execute("INSERT INTO t VALUES (2)")
        .expect("a logged and published commit is not failed by its auto-checkpoint");
    assert_eq!(s.read_view().catalog().get("t").unwrap().len(), 2);
    assert_eq!(counter("wal_checkpoint_failures_total"), failures + 1);
    // The explicit checkpoint still reports the error.
    assert!(s.checkpoint().unwrap_err().contains("checkpoint.2.tmp"));

    // Obstacle gone: the threshold is still reached, so the very next
    // commit checkpoints.
    std::fs::remove_dir(&obstacle).unwrap();
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(counter("wal_checkpoint_failures_total"), failures + 1);
    drop(s);

    let (s, report) = open(&dir, 2);
    assert_eq!(report.checkpoint_seq, Some(2));
    assert_eq!(report.replayed, 0, "the retried checkpoint covers it all");
    let mut xs: Vec<i64> = s
        .read_view()
        .catalog()
        .get("t")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.int(0))
        .collect();
    xs.sort_unstable();
    assert_eq!(xs, vec![1, 2, 3]);
}

/// Both shapes of commit unit — a bare statement and a `BEGIN`…`COMMIT`
/// block — survive a kill (drop without checkpoint) under both sync
/// policies: reopening yields the uninterrupted in-memory run's catalog.
#[test]
fn every_commit_unit_shape_survives_a_kill_under_every_sync_policy() {
    let mut unit = vec![SETUP[0], "BEGIN"];
    unit.extend_from_slice(&SETUP[1..]);
    unit.push("COMMIT");
    for (shape, statements) in [("bare statements", SETUP), ("BEGIN…COMMIT unit", &unit[..])] {
        for sync in [SyncPolicy::Always, SyncPolicy::OnCheckpoint] {
            let ctx = format!("{shape}, {sync:?}");
            let dir = scratch_dir("unit_shapes");
            {
                let (mut s, _) = open_with(&dir, sync, 0);
                for sql in statements {
                    s.execute(sql).unwrap();
                }
            } // kill
            let (mut s, report) = open_with(&dir, sync, 0);
            assert_eq!(report.checkpoint_seq, None, "{ctx}");
            assert_eq!(report.discarded_uncommitted, 0, "{ctx}");
            assert_catalogs_equal(
                s.read_view().catalog(),
                &reference_catalog(statements),
                &ctx,
            );
            assert_indexes_sound(&mut s, &ctx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

fn smoke_statements() -> Vec<String> {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/sql/smoke.sql"),
    )
    .unwrap();
    let sql_only: String = text
        .lines()
        .filter(|l| !l.trim().starts_with('.'))
        .collect::<Vec<_>>()
        .join("\n");
    sql::split_script(&sql_only)
}

/// Kill-and-restart invariant: for every prefix of the smoke script,
/// executing it durably (auto-checkpoint every 3 statements, so longer
/// prefixes leave a checkpoint *and* a WAL tail), dropping the session
/// ("kill"), and reopening the directory recovers exactly the state of
/// the uninterrupted in-memory run — and again after a simulated torn
/// write on the recovered directory.
#[test]
fn kill_and_restart_matches_uninterrupted_run_on_every_prefix() {
    let _guard = serial_guard();
    let statements = smoke_statements();
    assert!(statements.len() >= 15, "smoke script shrank unexpectedly?");
    for k in 1..=statements.len() {
        let prefix: Vec<&str> = statements[..k].iter().map(String::as_str).collect();
        let want = reference_catalog(&prefix);

        let dir = scratch_dir("prefix");
        {
            let (mut s, _) = open(&dir, 3);
            for sql in &prefix {
                s.execute(sql).unwrap();
            }
        } // kill
        let (mut s, _) = open(&dir, 3);
        assert_catalogs_equal(s.read_view().catalog(), &want, &format!("prefix {k}"));
        assert_indexes_sound(&mut s, &format!("prefix {k}"));
        drop(s);

        // A torn write appended to the recovered directory's WAL must not
        // cost any recovered statement.
        let wal = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0x99, 0x12, 0x00]); // garbage partial frame
        std::fs::write(&wal, &bytes).unwrap();
        let (mut s, report) = open(&dir, 3);
        assert_eq!(report.truncated_bytes, 3, "prefix {k}: garbage truncated");
        assert_catalogs_equal(
            s.read_view().catalog(),
            &want,
            &format!("prefix {k} after torn write"),
        );
        assert_indexes_sound(&mut s, &format!("prefix {k} after torn write"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn dump_is_reloadable_and_faithful() {
    let mut s = Session::new(Database::new());
    s.execute_script(
        "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te);
         INSERT INTO works VALUES ('it''s Ann', 'SP', 3, 10), ('Joe', 'NS', -5, 16);
         CREATE TABLE mixed (b BOOL, d DOUBLE, s TEXT);
         INSERT INTO mixed VALUES (TRUE, 2.5, 'x'), (FALSE, -0.125, NULL), (NULL, 17, 'z');",
    )
    .unwrap();
    let dump = dump_sql(s.database().catalog());
    let mut restored = Session::new(Database::new());
    restored.execute_script(&dump).unwrap();
    assert_catalogs_equal(
        restored.database().catalog(),
        s.database().catalog(),
        "dump round-trip",
    );
}

// ---------------------------------------------------------------------
// Property tests (offline proptest shim: deterministic seeded cases).
// ---------------------------------------------------------------------

/// Tiny deterministic PRNG for structured generation from one drawn seed.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        // xorshift64*.
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random catalog whose tables went through a realistic mutation
/// history (pushes, batch extends, deletes), so version epochs and
/// append-checkpoint histories are non-trivial.
fn random_catalog(seed: u64) -> Catalog {
    let mut rng = Prng(seed | 1);
    let mut catalog = Catalog::new();
    let n_tables = 1 + rng.below(3);
    for t in 0..n_tables {
        let temporal = rng.below(2) == 0;
        let mut cols = vec![
            ("k".to_string(), SqlType::Int),
            ("v".to_string(), SqlType::Double),
            ("s".to_string(), SqlType::Str),
        ];
        if temporal {
            cols.push(("ts".to_string(), SqlType::Int));
            cols.push(("te".to_string(), SqlType::Int));
        }
        let schema = Schema::new(
            cols.iter()
                .map(|(n, ty)| snapshot_semantics::storage::Column::new(n.clone(), *ty))
                .collect(),
        );
        let mut table = if temporal {
            Table::with_period(schema, 3, 4)
        } else {
            Table::new(schema)
        };
        let rows = rng.below(24) as usize;
        let mut batch = Vec::new();
        for _ in 0..rows {
            let mut values = vec![
                Value::Int(rng.below(50) as i64 - 25),
                Value::Double((rng.below(1000) as f64 - 500.0) / 8.0),
                if rng.below(5) == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", rng.below(9)))
                },
            ];
            if temporal {
                let ts = rng.below(40) as i64;
                let len = 1 + rng.below(10) as i64;
                values.push(Value::Int(ts));
                values.push(Value::Int(ts + len));
            }
            if rng.below(3) == 0 {
                batch.push(Row::new(values));
            } else {
                table.push(Row::new(values));
            }
            if !batch.is_empty() && rng.below(4) == 0 {
                table.extend(std::mem::take(&mut batch));
            }
        }
        if !batch.is_empty() {
            table.extend(batch);
        }
        if rng.below(4) == 0 && !table.is_empty() {
            let cutoff = rng.below(10) as i64 - 5;
            table.delete_where(|r| r.int(0) < cutoff);
        }
        catalog.register(format!("t{t}"), table);
    }
    catalog
}

/// One random DML statement against the `works` table.
fn random_statement(rng: &mut Prng) -> String {
    match rng.below(6) {
        0..=2 => {
            let n = 1 + rng.below(3);
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    let ts = rng.below(30) as i64;
                    let te = ts + 1 + rng.below(12) as i64;
                    format!(
                        "('p{}', '{}', {ts}, {te})",
                        rng.below(8),
                        ["SP", "NS", "WE"][rng.below(3) as usize],
                    )
                })
                .collect();
            format!("INSERT INTO works VALUES {}", rows.join(", "))
        }
        3 => format!(
            "DELETE FROM works WHERE ts >= {}",
            10 + rng.below(25) as i64
        ),
        4 => format!(
            "UPDATE works SET skill = '{}' WHERE name = 'p{}'",
            ["SP", "NS", "WE"][rng.below(3) as usize],
            rng.below(8)
        ),
        _ => format!(
            "UPDATE works SET te = te + 1 WHERE te < {}",
            5 + rng.below(25) as i64
        ),
    }
}

/// The point-wise oracle's canonical rows for a snapshot query (same
/// machinery as `tests/session_dml.rs`).
fn oracle_rows(session: &Session, query: &str) -> Vec<Row> {
    let view = session.read_view();
    let catalog = view.catalog();
    let stmt = parse_statement(query).unwrap();
    let bound = bind_statement(&stmt, catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("not a snapshot query: {query}")
    };
    PointwiseOracle::new(infer_domain(catalog))
        .eval_rows(plan, catalog)
        .unwrap()
}

fn session_rows(session: &mut Session, query: &str) -> Vec<Row> {
    let mut rows = session
        .execute(query)
        .unwrap()
        .rows()
        .expect("query result")
        .rows()
        .to_vec();
    rows.sort_unstable();
    rows
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Encode → decode of a random catalog is the identity, including
    /// version epochs and append-checkpoint histories.
    #[test]
    fn codec_roundtrip_of_random_catalogs(seed in 1u64..u64::MAX) {
        let catalog = random_catalog(seed);
        let mut w = Writer::new();
        encode_catalog(&mut w, &catalog);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = decode_catalog(&mut r).unwrap();
        prop_assert!(r.is_empty(), "decode must consume the full encoding");
        prop_assert_eq!(
            catalog.table_names().collect::<Vec<_>>(),
            decoded.table_names().collect::<Vec<_>>()
        );
        for name in catalog.table_names() {
            let (a, b) = (catalog.get(name).unwrap(), decoded.get(name).unwrap());
            prop_assert_eq!(a, b, "{}: content", name);
            prop_assert_eq!(a.version(), b.version(), "{}: version epoch", name);
            prop_assert_eq!(
                a.append_checkpoints(),
                b.append_checkpoints(),
                "{}: append checkpoints",
                name
            );
        }
    }

    /// Replaying a random statement batch after a restart yields a
    /// database on which indexed == naive == oracle, and whose tables
    /// equal the uninterrupted in-memory run.
    #[test]
    fn random_batch_replay_matches_memory_and_oracle(seed in 1u64..u64::MAX) {
        let _guard = serial_guard();
        let mut rng = Prng(seed);
        let statements: Vec<String> = std::iter::once(
            "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)"
                .to_string(),
        )
        .chain((0..8 + rng.below(8)).map(|_| random_statement(&mut rng)))
        .collect();

        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let want = reference_catalog(&refs);

        let dir = scratch_dir("proptest");
        {
            let (mut s, _) = open(&dir, 4);
            for sql in &statements {
                s.execute(sql).unwrap();
            }
        }
        let (mut s, _) = open(&dir, 4);
        assert_catalogs_equal(s.read_view().catalog(), &want, "random batch");

        // indexed == naive is enforced by verify_indexed; compare both
        // against the oracle explicitly.
        for query in [
            "SEQ VT (SELECT count(*) AS c FROM works)",
            "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)",
        ] {
            let got = session_rows(&mut s, query);
            let mut want_rows = oracle_rows(&s, query);
            want_rows.sort_unstable();
            prop_assert_eq!(&got, &want_rows, "{} diverged from oracle", query);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
