//! Micro-measurements of single layers, taken by calling their public
//! functions directly on the workload's own data. They put a number on the
//! layers a statement trace cannot isolate (index build and extend rates,
//! copy-on-write, checkpoint write/load, WAL append vs fsync, replay).

use crate::run::{metric, metric_n, write_database, Metrics};
use crate::stats::median;
use crate::workloads::{Workload, REGISTRY_TABLES};
use algebra::Plan;
use engine::Engine;
use index::TableIndex;
use snapshot_session::{PersistenceOptions, SessionOptions, SharedDatabase, SyncPolicy};
use snapshot_wal::Persistence;
use std::path::Path;
use std::time::Instant;
use storage::{Catalog, Row, Table};

/// Times `f` `reps` times; the median in seconds and the last result.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let out = f();
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("ran at least once"))
}

fn table<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table, String> {
    catalog.require(name)
}

/// Index, engine-kernel and storage rates on the workload's main table.
pub fn data_structures(w: &Workload, catalog: &Catalog, m: &mut Metrics) -> Result<(), String> {
    let main = table(catalog, w.main_table())?;
    let (ts, te) = main.period().ok_or("main table has no period")?;
    let rows = main.len();

    // index: full build, and extension after a pure append.
    let (build_s, built) = timed(5, || TableIndex::build(main));
    let built = built.ok_or("main table is not indexable")?;
    m.insert(
        "index.build_rows_per_s",
        metric_n(rows as f64 / build_s, "1/s", rows),
    );
    let appended: Vec<Row> = main.rows().iter().take(256).cloned().collect();
    let mut grown = main.clone();
    grown.extend(appended.iter().cloned());
    let (extend_s, extended) = timed(5, || built.extend_appended(&grown, rows));
    extended.ok_or("extend_appended refused a pure append")?;
    m.insert(
        "index.extend_rows_per_s",
        metric_n(appended.len() as f64 / extend_s, "1/s", appended.len()),
    );

    // index: tree stabs and overlap probes at evenly spaced instants.
    let (lo, hi) = main
        .rows()
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), r| {
            (lo.min(r.int(ts)), hi.max(r.int(ts)))
        });
    let mut stab_us = Vec::new();
    for i in 1..=32 {
        let t = lo + (hi - lo) * i / 33;
        let started = Instant::now();
        std::hint::black_box(built.timeslice_rows(main, t));
        stab_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        std::hint::black_box(built.overlapping_rows(main, t, t + 30));
        stab_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    m.insert(
        "index.stab_us",
        metric_n(median(&stab_us), "us", stab_us.len()),
    );

    // index: the endpoint sweep over the workload's join inputs.
    let other_name = match w.name {
        "registry_mix" => REGISTRY_TABLES[1],
        _ => "dept_emp",
    };
    let other = table(catalog, other_name)?;
    let other_index = TableIndex::build(other).ok_or("join input is not indexable")?;
    let left: Vec<&Row> = built
        .events()
        .begin_order()
        .map(|i| &main.rows()[i])
        .collect();
    let right: Vec<&Row> = other_index
        .events()
        .begin_order()
        .map(|i| &other.rows()[i])
        .collect();
    let other_period = other.period().ok_or("join input has no period")?;
    let (sweep_s, pairs) = timed(3, || {
        let mut pairs = 0u64;
        index::sweep_join_presorted(&left, &right, (ts, te), other_period, |l, r| {
            std::hint::black_box((l, r));
            pairs += 1;
        });
        pairs
    });
    m.insert(
        "index.sweep_pairs_per_s",
        metric_n(pairs as f64 / sweep_s, "1/s", pairs as usize),
    );

    // engine: the coalescing kernel on a split output (key, period).
    let keyed = Plan::scan(w.main_table(), main.schema().clone()).project_cols(&[0, ts, te]);
    let split = keyed.clone().split(keyed, vec![0])?;
    let split_rows = Engine::new().execute(&split, catalog)?.rows().to_vec();
    let (coalesce_s, coalesced) = timed(3, || engine::coalesce::coalesce_rows(&split_rows, 3));
    std::hint::black_box(coalesced);
    m.insert(
        "engine.coalesce_rows_per_s",
        metric_n(
            split_rows.len() as f64 / coalesce_s,
            "1/s",
            split_rows.len(),
        ),
    );

    // storage: first write to a table a snapshot still pins, and appends.
    let mut cow_us = Vec::new();
    let mut working = catalog.clone();
    for _ in 0..5 {
        let pinned = working.clone();
        let started = Instant::now();
        std::hint::black_box(working.get_mut(w.main_table()).map(|t| t.len()));
        cow_us.push(started.elapsed().as_secs_f64() * 1e6);
        drop(pinned);
    }
    m.insert(
        "storage.cow_copy_us",
        metric_n(median(&cow_us), "us", cow_us.len()),
    );
    let (append_s, _) = timed(5, || {
        let mut target = Table::with_period(main.schema().clone(), ts, te);
        target.extend(main.rows().iter().take(4096).cloned());
        target.len()
    });
    m.insert(
        "storage.append_rows_per_s",
        metric_n(rows.min(4096) as f64 / append_s, "1/s", rows.min(4096)),
    );
    Ok(())
}

/// Checkpoint write and load, and a cold durable open, on `catalog`.
pub fn persistence(catalog: &Catalog, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let (write_s, written) = timed(3, || {
        let _ = std::fs::remove_dir_all(dir);
        write_database(dir, catalog)
    });
    written?;
    m.insert("wal.checkpoint_ms", metric_n(write_s * 1e3, "ms", 3));
    let bytes = std::fs::metadata(snapshot_wal::checkpoint::checkpoint_path(dir, 1))
        .map_err(|e| e.to_string())?
        .len();
    m.insert("wal.checkpoint_bytes", metric(bytes as f64, "bytes"));
    let (load_s, loaded) = timed(3, || snapshot_wal::checkpoint::load_newest(dir).is_some());
    if !loaded {
        return Err("the checkpoint just written does not load".into());
    }
    m.insert("wal.checkpoint_load_ms", metric_n(load_s * 1e3, "ms", 3));
    let (open_s, opened) = timed(3, || {
        SharedDatabase::open_durable(
            dir,
            SessionOptions::default(),
            PersistenceOptions::default(),
        )
        .map(|_| ())
    });
    opened?;
    m.insert("session.open_durable_ms", metric_n(open_s * 1e3, "ms", 3));
    Ok(())
}

/// The commit path's parts, on the registry's own commit units: WAL append
/// with and without fsync (their difference is the fsync), and replay.
pub fn commit_path(
    w: &Workload,
    catalog: &Catalog,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    const UNITS: usize = 30;
    // Each commit's statements exactly as the WAL receives them.
    let units: Vec<Vec<String>> = (0..UNITS)
        .map(|k| {
            sql::split_script(&w.commit_op(&w.commit(0, k)).sql)
                .into_iter()
                .map(|s| s.trim().trim_end_matches(';').to_string())
                .filter(|s| s != "BEGIN" && s != "COMMIT")
                .collect()
        })
        .collect();
    let mut medians = Vec::new();
    for (sub, sync) in [
        ("wal-nosync", SyncPolicy::OnCheckpoint),
        ("wal-sync", SyncPolicy::Always),
    ] {
        let wal_dir = dir.join(sub);
        write_database(&wal_dir, catalog)?;
        let options = PersistenceOptions {
            sync,
            checkpoint_every: 0,
        };
        let (mut persistence, _) = Persistence::open(&wal_dir, options)?;
        let mut us = Vec::new();
        for unit in &units {
            let started = Instant::now();
            persistence.log_transaction(unit)?;
            us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        medians.push(median(&us));
    }
    m.insert("wal.append_us", metric_n(medians[0], "us", UNITS));
    m.insert(
        "wal.fsync_us",
        metric_n((medians[1] - medians[0]).max(0.0), "us", UNITS),
    );

    // Replay: open the directory whose WAL holds the units just logged.
    let load_ms = m.get("wal.checkpoint_load_ms").map_or(0.0, |x| x.value);
    let started = Instant::now();
    let (_, report) = SharedDatabase::open_durable(
        &dir.join("wal-sync"),
        SessionOptions::default(),
        PersistenceOptions::default(),
    )?;
    let replay_s = (started.elapsed().as_secs_f64() - load_ms / 1e3).max(1e-9);
    m.insert(
        "wal.replay_stmts_per_s",
        metric_n(report.replayed as f64 / replay_s, "1/s", report.replayed),
    );
    Ok(())
}
