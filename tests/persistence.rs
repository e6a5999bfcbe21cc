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
//! driver. Each opened directory is a database of its own, with its own
//! checkpoint counters, so the tests run in parallel.

#[path = "support/scratch.rs"]
mod scratch;

use scratch::ScratchDir;
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::index::TableIndex;
use snapshot_semantics::rewrite::infer_domain;
use snapshot_semantics::session::{
    Database, PersistenceOptions, RecoveryReport, Session, SessionOptions, SharedDatabase,
    SyncPolicy,
};
use snapshot_semantics::sql::{self, bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{Catalog, Column, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::wal::checkpoint::{
    checkpoint_path, list_checkpoints, read_checkpoint, FORMAT_VERSION,
};
use snapshot_semantics::wal::{dump_sql, write_checkpoint, Persistence};
use std::path::PathBuf;

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

fn counter(s: &Session, name: &str) -> u64 {
    s.obs().metrics.get_counter(name).map_or(0, |c| c.get())
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
    let dir = ScratchDir::new("persistence_empty");
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
    let dir = ScratchDir::new("persistence_ckpt_only");
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

/// Readers of a shared database never build an index: the transaction
/// manager builds every period table's index when the shared database is
/// created — by promotion, by recovery from a checkpoint-only directory —
/// and when a bulk load installs tables. Three indexed reads of a
/// 10 000-row table in each case move neither build counter, and each
/// read takes the interval-tree stab.
#[test]
fn shared_readers_never_build_an_index() {
    const ROWS: i64 = 10_000;
    const QUERY: &str = "SEQ VT AS OF 500 (SELECT count(*) AS cnt FROM works)";
    let works = || {
        let schema = Schema::of(&[
            ("name", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 1, 2);
        t.extend((0..ROWS).map(|i| {
            Row::new(vec![
                Value::str(format!("w{i}")),
                Value::Int(i % 1000),
                Value::Int(i % 1000 + 50),
            ])
        }));
        t
    };
    let three_reads_build_nothing = |shared: &SharedDatabase, ctx: &str| {
        let mut s = shared.session();
        let counts = |s: &Session| {
            [
                "index_full_builds_total",
                "index_incremental_builds_total",
                "engine_indextimeslice_invocations_total",
            ]
            .map(|name| counter(s, name))
        };
        let [full, incremental, stabs] = counts(&s);
        for _ in 0..3 {
            s.execute(QUERY).unwrap();
        }
        assert_eq!(
            counts(&s),
            [full, incremental, stabs + 3],
            "{ctx}: [full builds, incremental builds, tree stabs]"
        );
    };

    let mut catalog = Catalog::new();
    catalog.register("works", works());
    let promoted = SharedDatabase::new(Database::from_catalog(catalog));
    three_reads_build_nothing(&promoted, "promoted");

    let dir = ScratchDir::new("persistence_readers_never_build");
    {
        let (shared, _) =
            SharedDatabase::open_durable(&dir, SessionOptions::default(), Default::default())
                .unwrap();
        shared
            .register_tables([("works".to_string(), works())])
            .unwrap();
    }
    let (recovered, report) =
        SharedDatabase::open_durable(&dir, SessionOptions::default(), Default::default()).unwrap();
    assert_eq!(report.replayed, 0, "checkpoint-only directory");
    three_reads_build_nothing(&recovered, "recovered");

    let loaded = SharedDatabase::in_memory();
    loaded
        .register_tables([("works".to_string(), works())])
        .unwrap();
    three_reads_build_nothing(&loaded, "bulk-loaded");
}

#[test]
fn wal_only_recovery() {
    let dir = ScratchDir::new("persistence_wal_only");
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
/// not on disk: recovery has to rebuild it (checkpoint load and the WAL
/// tail both through the ordinary mutators), shrinking
/// deletes and widening updates included. Observed the way a user sees it —
/// the gap rows of a global snapshot count span `[Tmin, Tmax)`.
#[test]
fn time_domain_is_the_same_before_a_kill_and_after_recovery() {
    let dir = ScratchDir::new("persistence_domain");
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
    let dir = ScratchDir::new("persistence_torn");
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
    let dir = ScratchDir::new("persistence_bitflip");
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
    let dir = ScratchDir::new("persistence_failed");
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
    let dir = ScratchDir::new("persistence_txn_unit");
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
    // CREATE + the transaction's 3 statements.
    assert_eq!(report.replayed, 4);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(s.read_view().catalog().get("works").unwrap().len(), 2);
    assert_indexes_sound(&mut s, "after transactional replay");
}

#[test]
fn rolled_back_transactions_never_reach_the_wal() {
    let dir = ScratchDir::new("persistence_txn_rollback");
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
    let dir = ScratchDir::new("persistence_txn_torn");
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
    // ...whose commit unit's frame is torn by the crash: recovery must
    // discard the *entire* unit — replaying its prefix (the INSERT
    // without the DELETE, or either alone) would be a state no client was
    // ever shown.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 4]).unwrap();
    {
        let (mut s, report) = open(&dir, 0);
        assert_eq!(report.replayed, 2, "CREATE + bare INSERT");
        assert!(report.truncated_bytes > 0, "the torn unit's frame");
        assert_catalogs_equal(
            s.read_view().catalog(),
            &reference,
            "torn commit marker rolls back to the pre-transaction state",
        );
        assert_indexes_sound(&mut s, "after discarding the torn unit");
        // New statements appended after the discard replay on their own.
        s.execute("INSERT INTO works VALUES ('After', 'SP', 2, 4)")
            .unwrap();
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.replayed, 3);
    assert_eq!(s.read_view().catalog().get("works").unwrap().len(), 2);
}

/// The session's committed index on `name` answers exactly as a fresh
/// build: the begin order, a stab at every endpoint and its neighbours,
/// and overlaps of width 1, 4 and 13 from each of those points.
fn assert_index_is_a_build(s: &Session, name: &str) {
    let view = s.read_view();
    let table = view.catalog().get(name).unwrap();
    let built = TableIndex::build(table).unwrap();
    let index = view
        .indexes()
        .get_fresh(name, table)
        .unwrap_or_else(|| panic!("'{name}' has no fresh index"));
    assert_eq!(index.events().by_begin(), built.events().by_begin());
    let (b, e) = table.period().unwrap();
    let mut points: Vec<i64> = (table.rows().iter())
        .flat_map(|r| [r.int(b), r.int(e)])
        .flat_map(|p| [p - 1, p, p + 1])
        .collect();
    points.sort_unstable();
    points.dedup();
    for t in points {
        assert_eq!(index.stab(t), built.stab(t), "'{name}' stab {t}");
        for width in [1, 4, 13] {
            assert_eq!(
                index.overlapping(t, t + width),
                built.overlapping(t, t + width),
                "'{name}' overlap [{t}, +{width})"
            );
        }
    }
}

/// A WAL tail mixing every kind of commit unit — an autocommit `INSERT`,
/// an explicit transaction, a `DELETE`, a `CREATE` then an `INSERT …
/// SELECT` from a table an earlier unit wrote, a `DROP` then a re-`CREATE`
/// under the same name — replays as one transaction: the recovered dump
/// equals the live database's before the kill, the open counts one commit
/// (a unit-by-unit replay counts one per unit), and every recovered index
/// answers like a fresh build.
#[test]
fn a_mixed_tail_replays_as_one_transaction() {
    let dir = ScratchDir::new("persistence_one_txn_tail");
    let rows = |n: i64| {
        (0..n)
            .map(|i| format!("('r{i}', 'SP', {}, {})", i % 7, 10 + i % 5))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let before = {
        let (mut s, _) = open(&dir, 0);
        // A checkpointed base, padded so the tail's edits stay under an
        // eighth of each table and repair its index in place.
        s.execute(SETUP[0]).unwrap();
        s.execute(&format!("INSERT INTO works VALUES {}", rows(64)))
            .unwrap();
        s.execute("CREATE TABLE old (x INT, ts INT, te INT) PERIOD (ts, te)")
            .unwrap();
        s.execute("INSERT INTO old VALUES (1, 0, 4)").unwrap();
        s.checkpoint().unwrap();
        for script in [
            "INSERT INTO works VALUES ('Ann', 'NS', 3, 9)",
            "BEGIN; INSERT INTO works VALUES ('Joe', 'WE', 8, 16); \
             UPDATE works SET te = 12 WHERE name = 'r3'; COMMIT",
            "DELETE FROM works WHERE name = 'r5'",
            "CREATE TABLE skills (skill TEXT, ts INT, te INT) PERIOD (ts, te)",
            "INSERT INTO skills SELECT skill, ts, te FROM works WHERE ts < 2",
            "DROP TABLE old",
            "CREATE TABLE old (y TEXT, ts INT, te INT) PERIOD (ts, te)",
            "INSERT INTO old VALUES ('back', 2, 6)",
        ] {
            s.execute_script(script).unwrap();
        }
        dump_sql(s.read_view().catalog())
    };
    let units = {
        let (_, recovery) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        recovery.replay.len()
    };
    assert_eq!(units, 8, "one unit per autocommit statement or transaction");

    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 9);
    assert_eq!(dump_sql(s.read_view().catalog()), before);
    assert_eq!(
        counter(&s, "txn_commits_total"),
        1,
        "one commit for the tail"
    );
    for name in s.read_view().catalog().table_names() {
        assert_index_is_a_build(&s, name);
    }
    assert_indexes_sound(&mut s, "after the one-transaction replay");
}

/// A period table `(id, ts, te)` of `rows` rows over a short time domain,
/// so a stab at every endpoint is a few dozen probes.
fn registry_table(rows: i64) -> Table {
    let schema = Schema::of(&[
        ("id", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut t = Table::with_period(schema, 1, 2);
    t.extend((0..rows).map(|i| {
        Row::new(vec![
            Value::Int(i),
            Value::Int(i % 40),
            Value::Int(i % 40 + 5 + i % 11),
        ])
    }));
    t
}

/// `[full, incremental]` index builds so far.
fn index_builds(s: &Session) -> [u64; 2] {
    ["index_full_builds_total", "index_incremental_builds_total"].map(|name| counter(s, name))
}

/// However long a recovery tail is, its one transaction edits each
/// written table's index once: 100 statements on a checkpointed
/// 20 000-row table (one-row `INSERT`s alternating with period-closing
/// `UPDATE`s) reopen with the open's build from the checkpoint and one
/// edit, and the edited index answers as a build.
#[test]
fn a_long_recovery_tail_edits_the_index_once() {
    const ROWS: i64 = 20_000;
    let dir = ScratchDir::new("persistence_long_tail");
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
        (shared.register_tables([("reg".to_string(), registry_table(ROWS))])).unwrap();
        let mut s = shared.session_with_options(durable_options());
        for k in 0..50 {
            s.execute(&format!(
                "INSERT INTO reg VALUES ({}, {}, {})",
                ROWS + k,
                k % 40,
                k % 40 + 30
            ))
            .unwrap();
            s.execute(&format!(
                "UPDATE reg SET te = ts + 1 WHERE id = {}",
                k * 397
            ))
            .unwrap();
        }
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 100);
    assert_eq!(index_builds(&s), [1, 1], "[full, incremental] builds");
    assert_index_is_a_build(&s, "reg");
}

/// Reads between a transaction's writes do not copy the written table
/// again, so its commit is one edit of the index.
#[test]
fn a_transaction_with_reads_between_its_writes_is_one_edit() {
    let shared = SharedDatabase::in_memory();
    (shared.register_tables([("reg".to_string(), registry_table(1_000))])).unwrap();
    let mut s = shared.session_with_options(durable_options());
    let [full, incremental] = index_builds(&s);
    s.execute_script(
        "BEGIN;
         INSERT INTO reg VALUES (5000, 3, 9);
         SEQ VT AS OF 4 (SELECT count(*) AS c FROM reg);
         UPDATE reg SET te = ts + 1 WHERE id = 17;
         INSERT INTO reg SELECT id + 10000, ts, te FROM reg WHERE id < 3;
         SEQ VT BETWEEN 2 AND 6 (SELECT id FROM reg WHERE id > 990);
         UPDATE reg SET te = ts + 2 WHERE id = 400;
         COMMIT",
    )
    .unwrap();
    assert_eq!(index_builds(&s), [full, incremental + 1]);
    assert_index_is_a_build(&s, "reg");
}

/// The byte offsets at which `wal.log`'s frames end, walked by their
/// length fields (`[magic: 8]`, then `[len: u32][crc: u32][payload]`).
fn wal_frame_ends(dir: &std::path::Path) -> Vec<usize> {
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let mut ends = Vec::new();
    let mut at = 8;
    while at < log.len() {
        at += 8 + u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at);
    }
    assert_eq!(at, log.len(), "the log ends on a frame boundary");
    ends
}

/// A commit unit is one WAL frame: bare statements and `BEGIN`…`COMMIT`
/// blocks alike, with no marker records around a transaction.
#[test]
fn wal_holds_exactly_one_frame_per_commit_unit() {
    let dir = ScratchDir::new("persistence_one_frame");
    let (mut s, _) = open(&dir, 0);
    let script = [
        SETUP[0],
        "INSERT INTO works VALUES ('Ann', 'SP', 3, 10)",
        "BEGIN",
        "INSERT INTO works VALUES ('Joe', 'NS', 8, 16)",
        "UPDATE works SET skill = 'WE' WHERE name = 'Joe'",
        "DELETE FROM works WHERE name = 'Ann'",
        "COMMIT",
        "INSERT INTO works VALUES ('Sam', 'SP', 8, 16)",
        "BEGIN",
        "INSERT INTO works VALUES ('Eve', 'SP', 0, 2)",
        "COMMIT",
    ];
    for sql in script {
        s.execute(sql).unwrap();
    }
    drop(s);
    // CREATE, INSERT, the 3-statement transaction, INSERT, the
    // 1-statement transaction.
    assert_eq!(wal_frame_ends(&dir).len(), 5);
    let (s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 7, "statements, not frames");
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference_catalog(&script),
        "one frame per unit",
    );
}

/// Cutting the last multi-statement unit's frame at any length recovers
/// the state before that unit, and the log stays appendable.
#[test]
fn a_torn_last_unit_recovers_to_the_state_before_it_at_every_cut() {
    let dir = ScratchDir::new("persistence_torn_every_cut");
    let committed = [SETUP[0], "INSERT INTO works VALUES ('Ann', 'SP', 3, 10)"];
    {
        let (mut s, _) = open(&dir, 0);
        for sql in committed {
            s.execute(sql).unwrap();
        }
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)")
            .unwrap();
        s.execute("DELETE FROM works WHERE name = 'Ann'").unwrap();
        s.execute("COMMIT").unwrap();
    }
    let ends = wal_frame_ends(&dir);
    let (unit_start, unit_end) = (ends[ends.len() - 2], ends[ends.len() - 1]);
    let full = std::fs::read(dir.join("wal.log")).unwrap();
    let before = reference_catalog(&committed);
    let after = "INSERT INTO works VALUES ('After', 'SP', 2, 4)";
    for keep in 1..unit_end - unit_start {
        let ctx = format!("cut at {keep} of {}", unit_end - unit_start);
        std::fs::write(dir.join("wal.log"), &full[..unit_start + keep]).unwrap();
        {
            let (mut s, report) = open(&dir, 0);
            assert_eq!(report.truncated_bytes, keep as u64, "{ctx}");
            assert_eq!(report.replayed, committed.len(), "{ctx}");
            assert_catalogs_equal(s.read_view().catalog(), &before, &ctx);
            s.execute(after).unwrap();
        }
        let (s, report) = open(&dir, 0);
        assert_eq!(report.replayed, committed.len() + 1, "{ctx}");
        assert_eq!(report.truncated_bytes, 0, "{ctx}");
        assert_catalogs_equal(
            s.read_view().catalog(),
            &reference_catalog(&[committed[0], committed[1], after]),
            &ctx,
        );
    }
}

/// `RecoveryReport::replayed` and the auto-checkpoint count statements:
/// neither counts a transaction's bracketing.
#[test]
fn recovery_counts_statements_and_the_next_checkpoint_comes_on_time() {
    let dir = ScratchDir::new("persistence_stmt_counts");
    {
        let (mut s, _) = open(&dir, 0);
        for sql in [
            SETUP[0],
            "BEGIN",
            "INSERT INTO works VALUES ('Ann', 'SP', 3, 10)",
            "INSERT INTO works VALUES ('Joe', 'NS', 8, 16)",
            "COMMIT",
        ] {
            s.execute(sql).unwrap();
        }
    }
    let (_, report) = open(&dir, 0);
    assert_eq!(report.replayed, 3);

    // A tail of k = 5 statements, 4 of them in two 2-statement units,
    // under checkpoint_every = 8: the 3rd statement after the restart is
    // the one that checkpoints.
    let dir = ScratchDir::new("persistence_stmt_counts_checkpoint");
    {
        let (mut s, _) = open(&dir, 8);
        s.execute(SETUP[0]).unwrap();
        for pair in [["Ann", "Joe"], ["Sam", "Eve"]] {
            s.execute("BEGIN").unwrap();
            for name in pair {
                s.execute(&format!("INSERT INTO works VALUES ('{name}', 'SP', 1, 9)"))
                    .unwrap();
            }
            s.execute("COMMIT").unwrap();
        }
        assert_eq!(counter(&s, "wal_checkpoints_total"), 0);
    }
    let (mut s, report) = open(&dir, 8);
    assert_eq!(report.replayed, 5);
    for i in 0..3 {
        assert_eq!(
            counter(&s, "wal_checkpoints_total"),
            0,
            "after {i} statement(s)"
        );
        s.execute(&format!("INSERT INTO works VALUES ('x{i}', 'NS', 1, 2)"))
            .unwrap();
    }
    assert_eq!(counter(&s, "wal_checkpoints_total"), 1);
}

/// A directory whose WAL tail ends in an `INSERT ... SELECT` that scans and
/// emits several rows of a multi-row table.
fn insert_select_tail(name: &str) -> ScratchDir {
    let dir = ScratchDir::new(&format!("persistence_{name}"));
    let (mut s, _) = open(&dir, 0);
    for sql in [
        "CREATE TABLE t (x INT, ts INT, te INT) PERIOD (ts, te)",
        "INSERT INTO t VALUES (1, 0, 5), (2, 1, 6), (3, 2, 7), (4, 3, 8)",
        "CREATE TABLE u (x INT, ts INT, te INT) PERIOD (ts, te)",
        "INSERT INTO u SELECT x, ts, te FROM t WHERE x > 1",
    ] {
        s.execute(sql).unwrap();
    }
    dir
}

/// A replayed statement is committed history: the client limits of the
/// options a directory is opened with never refuse it, so the directory
/// opens under `max_rows_scanned = 1` / `max_result_rows = 1` to the state
/// it opens to without them.
#[test]
fn replay_runs_under_no_client_limit() {
    let dir = insert_select_tail("replay_limits");
    let want = dump_sql(open(&dir, 0).0.read_view().catalog());
    let limited = SessionOptions {
        max_rows_scanned: Some(1),
        max_result_rows: Some(1),
        ..durable_options()
    };
    let (shared, report) =
        SharedDatabase::open_durable(&dir, limited, PersistenceOptions::default())
            .unwrap_or_else(|e| panic!("open_durable under client limits: {e}"));
    assert_eq!(report.replayed, 4);
    assert_eq!(dump_sql(shared.snapshot().catalog()), want);
    assert!(want.contains("INSERT INTO u"), "the tail filled u:\n{want}");
}

/// Replay is not client work: a database no client has queried since the
/// restart shows no engine operator invocations and no statement phases.
#[test]
fn replay_reports_no_engine_work_and_no_statement() {
    let dir = insert_select_tail("replay_counters");
    let (s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 4);
    let reported: Vec<String> = (s.obs().metrics.snapshot().into_iter())
        .filter(|m| {
            let engine = m.name.starts_with("engine_") && m.name.ends_with("_invocations_total");
            let phase = m.name.starts_with("session_") && m.name.ends_with("_seconds");
            (engine && m.value != Some(0.0)) || (phase && m.count != Some(0))
        })
        .map(|m| m.name)
        .collect();
    assert!(reported.is_empty(), "replay reported {reported:?}");
}

/// The format version of the newest checkpoint in `dir`.
fn newest_checkpoint_format(dir: &std::path::Path) -> u32 {
    let seq = *list_checkpoints(dir).last().expect("a checkpoint");
    read_checkpoint(&checkpoint_path(dir, seq)).unwrap().format
}

/// A scratch copy of the checked-in directory `tests/fixtures/<name>`
/// (recovery rewrites the directory it opens).
fn copy_fixture(name: &str) -> ScratchDir {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let dir = ScratchDir::new(&format!("persistence_{name}"));
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// A directory written in WAL format 1 (`tests/fixtures/wal_v1`, see its
/// README): one statement per frame, `BEGIN`/`COMMIT` marker records,
/// and a last transaction whose `COMMIT` marker is torn. It opens to the
/// committed state, its log is rewritten as an empty format-2 log, and
/// what runs next is logged after it under the LSNs that follow.
#[test]
fn a_format_1_directory_opens_to_its_committed_state_and_is_upgraded() {
    let dir = copy_fixture("wal_v1");
    let committed = script_statements("tests/fixtures/wal_v1.sql");
    let mut statements: Vec<&str> = committed.iter().map(String::as_str).collect();
    {
        let (mut s, report) = open(&dir, 0);
        assert_eq!(report.checkpoint_seq, Some(1));
        assert!(report.truncated_bytes > 0, "the torn COMMIT marker");
        assert_catalogs_equal(
            s.read_view().catalog(),
            &reference_catalog(&statements),
            "format-1 recovery",
        );
        assert_indexes_sound(&mut s, "format-1 recovery");
        assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), b"SNAPWAL\x02");
        assert_eq!(newest_checkpoint_format(&dir), FORMAT_VERSION);
        statements.push("INSERT INTO works VALUES ('Next', 'NS', 5, 6)");
        s.execute(statements[statements.len() - 1]).unwrap();
    }
    {
        let (s, report) = open(&dir, 0);
        assert_eq!(
            (
                report.checkpoint_seq,
                report.replayed,
                report.truncated_bytes
            ),
            (Some(2), 1, 0)
        );
        assert_catalogs_equal(
            s.read_view().catalog(),
            &reference_catalog(&statements),
            "after the upgrade",
        );
    }
    // checkpoint.1 covers LSNs 1..=3 and the format-1 tail that survived
    // the tear holds 4..=13, so the upgrade checkpoint covers 13 and the
    // next unit is 14.
    let (_, recovery) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
    let lsns: Vec<u64> = recovery.replay.iter().map(|r| r.lsn).collect();
    assert_eq!(lsns, vec![14]);
}

/// A format-1 checkpoint whose one table was saved at version epoch
/// `u64::MAX` (`tests/fixtures/ckpt_v1_epoch_max`, see its README). A
/// loaded table draws fresh epochs, so the row inserted after the load is
/// seen by the indexed `AS OF` (checked against the naive route by
/// `verify_indexed`) and by the checkpoint that follows it, and survives
/// the restart.
#[test]
fn a_checkpoint_saved_at_the_last_epoch_loads_under_fresh_epochs() {
    let dir = copy_fixture("ckpt_v1_epoch_max");
    let as_of = "SEQ VT AS OF 5 (SELECT k FROM r)";
    let want = vec![
        Row::new(vec![Value::Int(1), Value::Int(0), Value::Int(10)]),
        Row::new(vec![Value::Int(2), Value::Int(3), Value::Int(8)]),
    ];
    {
        let (mut s, _) = open(&dir, 0);
        s.checkpoint().unwrap();
        s.execute("INSERT INTO r VALUES (2, 3, 8)").unwrap();
        let got = session_rows(&mut s, as_of);
        assert_eq!(
            got,
            [vec![Value::Int(1)], vec![Value::Int(2)]].map(Row::new)
        );
        s.checkpoint().unwrap();
    }
    let (s, _) = open(&dir, 0);
    let r = s.read_view().catalog().get("r").unwrap().canonicalized();
    assert_eq!(r.rows(), want);
    assert_eq!(newest_checkpoint_format(&dir), FORMAT_VERSION);
}

/// A table 20 000 columns wide is stored in blocks of fewer than 256 rows
/// (a 256-row block of it would hold more values than a block may), so it
/// survives its checkpoint and a restart.
#[test]
fn a_table_20000_columns_wide_survives_checkpoint_and_restart() {
    let (arity, n) = (20_000, 300);
    let wide = || {
        let schema = Schema::new(
            (0..arity)
                .map(|c| Column::new(format!("c{c}"), SqlType::Int))
                .collect(),
        );
        let mut t = Table::new(schema);
        t.extend(
            (0..n).map(|r| Row::new((0..arity).map(|c| Value::Int((r * 7 + c) as i64)).collect())),
        );
        t
    };
    let dir = ScratchDir::new("persistence_wide20k");
    {
        let (mut s, _) = open(&dir, 0);
        s.register_tables([("wide".to_string(), wide())]).unwrap();
    }
    let (s, report) = open(&dir, 0);
    assert_eq!(report.checkpoint_seq, Some(1));
    assert!(s.read_view().catalog().get("wide") == Some(&wide()));
}

#[test]
fn noop_statements_inside_transactions_are_not_logged() {
    // A statement that matched nothing under the transaction's snapshot is
    // not in the write set (it cannot conflict) — so its text must not be
    // logged either: replaying it after a concurrent commit could suddenly
    // match and corrupt recovery.
    let dir = ScratchDir::new("persistence_txn_noop");
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
    let dir = ScratchDir::new("persistence_ckpt_vs_txn");
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
    let dir = ScratchDir::new("persistence_shared_durable");
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
    assert_eq!(report.truncated_bytes, 0);
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

/// A checkpoint holds the whole committed catalog: after two of them, one
/// of the tables untouched in between, a reopen replays nothing and
/// recovers it bit-exact.
#[test]
fn two_checkpoints_then_a_reopen_replays_nothing_and_recovers_exactly() {
    let dir = ScratchDir::new("persistence_two_ckpts");
    let (mut s, _) = open(&dir, 0);
    s.execute(SETUP[0]).unwrap();
    s.execute("CREATE TABLE stable (x INT)").unwrap();
    s.execute("INSERT INTO stable VALUES (1), (2), (3)")
        .unwrap();
    s.execute("INSERT INTO works VALUES ('Ann', 'SP', 3, 10)")
        .unwrap();
    s.checkpoint().unwrap();
    // Touch only `works` before the second checkpoint.
    s.execute("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)")
        .unwrap();
    s.checkpoint().unwrap();
    let reference = s.read_view().catalog().clone();
    drop(s);

    let (mut s, report) = open(&dir, 0);
    assert_eq!(report.replayed, 0, "everything is in the checkpoint");
    assert_catalogs_equal(
        s.read_view().catalog(),
        &reference,
        "the second checkpoint recovers bit-exact",
    );
    assert_indexes_sound(&mut s, "after recovery from the second checkpoint");
}

/// A failed *auto*-checkpoint runs after its commit was logged and
/// published, so it must not turn that commit into a failed statement (a
/// client that retries would double-insert): the commit stands, the
/// failure is counted, and the next commit retries the checkpoint.
#[test]
fn failed_auto_checkpoint_does_not_fail_the_commit() {
    let dir = ScratchDir::new("persistence_auto_ckpt_fail");
    let (mut s, _) = open(&dir, 2);
    s.execute("CREATE TABLE t (x INT)").unwrap();
    assert_eq!(s.checkpoint().unwrap(), Some(1));
    // The next checkpoint's temp file cannot be created: a directory is
    // in its place.
    let obstacle = dir.join("checkpoint.2.tmp");
    std::fs::create_dir(&obstacle).unwrap();
    let failures = counter(&s, "wal_checkpoint_failures_total");
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    // This one reaches the threshold; its auto-checkpoint fails.
    s.execute("INSERT INTO t VALUES (2)")
        .expect("a logged and published commit is not failed by its auto-checkpoint");
    assert_eq!(s.read_view().catalog().get("t").unwrap().len(), 2);
    assert_eq!(counter(&s, "wal_checkpoint_failures_total"), failures + 1);
    // The explicit checkpoint still reports the error.
    assert!(s.checkpoint().unwrap_err().contains("checkpoint.2.tmp"));

    // Obstacle gone: the threshold is still reached, so the very next
    // commit checkpoints.
    std::fs::remove_dir(&obstacle).unwrap();
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(counter(&s, "wal_checkpoint_failures_total"), failures + 1);
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
            let dir = ScratchDir::new("persistence_unit_shapes");
            {
                let (mut s, _) = open_with(&dir, sync, 0);
                for sql in statements {
                    s.execute(sql).unwrap();
                }
            } // kill
            let (mut s, report) = open_with(&dir, sync, 0);
            assert_eq!(report.checkpoint_seq, None, "{ctx}");
            assert_eq!(report.truncated_bytes, 0, "{ctx}");
            assert_catalogs_equal(
                s.read_view().catalog(),
                &reference_catalog(statements),
                &ctx,
            );
            assert_indexes_sound(&mut s, &ctx);
        }
    }
}

fn smoke_statements() -> Vec<String> {
    script_statements("tests/sql/smoke.sql")
}

/// The SQL statements of a checked-in script, meta commands stripped.
fn script_statements(path: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)).unwrap();
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
    let statements = smoke_statements();
    assert!(statements.len() >= 15, "smoke script shrank unexpectedly?");
    for k in 1..=statements.len() {
        let prefix: Vec<&str> = statements[..k].iter().map(String::as_str).collect();
        let want = reference_catalog(&prefix);

        let dir = ScratchDir::new("persistence_prefix");
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

/// `i64::MIN` has a literal only under a minus (its magnitude overflows
/// `i64`): a dump holding it as a value and as a period begin reloads,
/// and a time point can name it.
#[test]
fn dump_round_trips_the_smallest_int() {
    const AS_OF_MIN: &str = "SEQ VT AS OF -9223372036854775808 (SELECT name, v FROM works)";
    let mut s = Session::new(Database::new());
    s.execute_script(
        "CREATE TABLE works (name TEXT, v INT, ts INT, te INT) PERIOD (ts, te);
         INSERT INTO works VALUES ('Ann', 0, 3, 10), ('Joe', 7, 0, 16);
         UPDATE works SET v = v - 9223372036854775807 - 1 WHERE name = 'Ann';
         UPDATE works SET ts = ts - 9223372036854775807 - 1 WHERE name = 'Joe';",
    )
    .unwrap();
    let dump = dump_sql(s.database().catalog());
    assert!(
        dump.contains("('Ann', -9223372036854775808, 3, 10)"),
        "{dump}"
    );
    assert!(
        dump.contains("('Joe', 7, -9223372036854775808, 16)"),
        "{dump}"
    );
    let mut restored = Session::new(Database::new());
    restored.execute_script(&dump).unwrap();
    assert_catalogs_equal(
        restored.database().catalog(),
        s.database().catalog(),
        "dump round-trip",
    );
    for session in [&mut s, &mut restored] {
        let result = session.execute(AS_OF_MIN).unwrap();
        assert_eq!(
            result.rows().unwrap().rows(),
            &[Row::new(vec![Value::str("Joe"), Value::Int(7)])]
        );
    }
    let err = restored.execute("SELECT 9223372036854775808").unwrap_err();
    assert!(
        err.to_string()
            .contains("bad number '9223372036854775808': number too large"),
        "{err}"
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
/// history (pushes, batch extends, deletes).
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
                .map(|(n, ty)| Column::new(n.clone(), *ty))
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

    /// Writing a random catalog as a checkpoint and reading it back is the
    /// identity on every table's schema, period, rows and extent.
    #[test]
    fn codec_roundtrip_of_random_catalogs(seed in 1u64..u64::MAX) {
        let catalog = random_catalog(seed);
        let dir = ScratchDir::new("persistence_codec_roundtrip");
        let path = write_checkpoint(&dir, 1, 0, &catalog).unwrap();
        let decoded = read_checkpoint(&path).unwrap().catalog;
        prop_assert_eq!(
            catalog.table_names().collect::<Vec<_>>(),
            decoded.table_names().collect::<Vec<_>>()
        );
        for name in catalog.table_names() {
            let (a, b) = (catalog.get(name).unwrap(), decoded.get(name).unwrap());
            prop_assert_eq!(a, b, "{}: content", name);
            prop_assert_eq!(a.period_extent(), b.period_extent(), "{}: extent", name);
        }
    }

    /// Replaying a random statement batch after a restart yields a
    /// database on which indexed == naive == oracle, and whose tables
    /// equal the uninterrupted in-memory run.
    #[test]
    fn random_batch_replay_matches_memory_and_oracle(seed in 1u64..u64::MAX) {
        let mut rng = Prng(seed);
        let statements: Vec<String> = std::iter::once(
            "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)"
                .to_string(),
        )
        .chain((0..8 + rng.below(8)).map(|_| random_statement(&mut rng)))
        .collect();

        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let want = reference_catalog(&refs);

        let dir = ScratchDir::new("persistence_proptest");
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
    }
}
