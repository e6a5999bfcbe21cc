//! The traced run (`--trace 1`): the per-layer budget.
//!
//! Every span is recorded by this file around a call into a *public*
//! function of the system; nothing inside the system is instrumented.
//!
//! 1. A shorter wire window against the untraced child gives the RTTs the
//!    budget must close against, and — read **over the wire** from
//!    `snapshot_stat_metrics` before and after — the server's own counters.
//! 2. A fixed sample of statements (same seed, same statements every run)
//!    then runs against an identically seeded in-process `SharedDatabase`:
//!    untraced (`Session::execute` back to back), pass A (`Session::execute`
//!    timed whole, with its public `last_phase_timings()`), and pass B — the
//!    pipeline by hand, one span per layer boundary.
//! 3. Micro-measurements ([`crate::micro`]) cover what a statement trace
//!    cannot isolate.

use crate::check::{self, Mirror};
use crate::micro;
use crate::run::{
    class_notes, metric, metric_n, output_root, rtt, set_up, write_database, Metrics, Outcome,
    Ready, RunConfig, Scratch,
};
use crate::spans::{Recorder, SpanId};
use crate::stats::median;
use crate::wire::{self, Stop};
use crate::workloads::{ClassKind, Op, Workload};
use algebra::{Plan, PlanNode};
use engine::{Engine, EngineConfig, ExecStats, NodeStats};
use rewrite::{infer_domain, RewriteOptions, SnapshotCompiler};
use snapshot_server::protocol::{read_frame, rowset_frames, write_frame};
use snapshot_server::{Client, Frame};
use snapshot_session::{PersistenceOptions, Session, SessionOptions, SharedDatabase};
use sql::SqlStatement;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use storage::{Row, Table};

/// Every per-layer metric with its unit, so a run reports all of them —
/// `0` where the layer does no work on the workload.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("server.request_decode_us", "us"),
    ("server.result_encode_us", "us"),
    ("server.result_write_us", "us"),
    ("server.client_decode_us", "us"),
    ("server.result_bytes_per_stmt", "bytes"),
    ("server.frames_per_stmt", "count"),
    ("server.residual_us", "us"),
    ("server.connect_us", "us"),
    ("server.rtt_p99_ms", "ms"),
    ("session.execute_us", "us"),
    ("session.self_us", "us"),
    ("session.snapshot_us", "us"),
    ("session.open_durable_ms", "ms"),
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.stmt_bytes", "bytes"),
    ("rewrite.compile_us", "us"),
    ("rewrite.plan_nodes", "count"),
    ("index.refresh_us", "us"),
    ("index.full_builds", "count"),
    ("index.incremental_builds", "count"),
    ("index.incremental_share", "ratio"),
    ("index.build_rows_per_s", "1/s"),
    ("index.extend_rows_per_s", "1/s"),
    ("index.sweep_pairs_per_s", "1/s"),
    ("index.stab_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.scan_self_us", "us"),
    ("engine.join_self_us", "us"),
    ("engine.split_self_us", "us"),
    ("engine.aggregate_self_us", "us"),
    ("engine.diff_self_us", "us"),
    ("engine.coalesce_self_us", "us"),
    ("engine.other_self_us", "us"),
    ("engine.rows_in_per_row_out", "ratio"),
    ("engine.result_rows_per_stmt", "count"),
    ("engine.coalesce_rows_per_s", "1/s"),
    ("storage.cow_copy_us", "us"),
    ("storage.append_rows_per_s", "1/s"),
    ("txn.commit_us", "us"),
    ("txn.commit_durable_us", "us"),
    ("txn.commit_wait_ms_total", "ms"),
    ("txn.conflicts", "count"),
    ("txn.retries", "count"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoint_bytes", "bytes"),
    ("wal.checkpoint_reuse_share", "ratio"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_load_ms", "ms"),
    ("wal.replay_stmts_per_s", "1/s"),
    ("read_rtt_p95_ms", "ms"),
    ("write_rtt_p50_ms", "ms"),
    ("write_rtt_p95_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("budget.closure_share", "ratio"),
    ("setup.datagen_s", "s"),
    ("setup.load_s", "s"),
    ("setup.index_build_s", "s"),
    ("setup.warmup_s", "s"),
];

// ---------------------------------------------------------------------------
// Wire witnesses
// ---------------------------------------------------------------------------

/// One `snapshot_stat_metrics` row: a counter/gauge `value`, or a
/// histogram's `sum`.
#[derive(Debug, Clone, Copy, Default)]
struct Witness {
    value: f64,
    sum: f64,
}

/// The server's metrics registry, read over the wire.
fn witnesses(addr: SocketAddr) -> Result<BTreeMap<String, Witness>, String> {
    let table = wire::query_rows(addr, "SELECT name, value, sum FROM snapshot_stat_metrics")?;
    Ok(table
        .rows()
        .iter()
        .filter_map(|r| {
            let name = r.get(0).as_str()?.to_string();
            let num = |i: usize| r.get(i).as_double().unwrap_or(0.0);
            Some((
                name,
                Witness {
                    value: num(1),
                    sum: num(2),
                },
            ))
        })
        .collect())
}

/// Counter growth between two witness reads (a counter the server never
/// touched is not registered yet and reads as 0).
struct Deltas {
    before: BTreeMap<String, Witness>,
    after: BTreeMap<String, Witness>,
}

impl Deltas {
    fn get(&self, name: &str, field: fn(&Witness) -> f64) -> f64 {
        let read = |m: &BTreeMap<String, Witness>| m.get(name).map_or(0.0, field);
        read(&self.after) - read(&self.before)
    }

    fn counter(&self, name: &str) -> f64 {
        self.get(name, |w| w.value)
    }

    fn histogram_sum(&self, name: &str) -> f64 {
        self.get(name, |w| w.sum)
    }
}

// ---------------------------------------------------------------------------
// The in-process passes
// ---------------------------------------------------------------------------

/// A loopback socket whose far end only drains: writing to it costs what
/// the server's socket writes cost, without a decoder on the other side.
struct Loopback {
    stream: TcpStream,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Loopback {
    fn open() -> Result<Loopback, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let drain = std::thread::spawn(move || {
            if let Ok((mut peer, _)) = listener.accept() {
                let mut sink = vec![0u8; 1 << 16];
                while matches!(peer.read(&mut sink), Ok(n) if n > 0) {}
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Loopback {
            stream,
            drain: Some(drain),
        })
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, frame).expect("writing to a Vec cannot fail");
    out
}

/// The client's reassembly, as `snapshot_server::Client` does it: frames
/// off the byte stream until `Ready`, row batches gathered into a table.
fn client_decode(mut bytes: &[u8]) -> Result<Table, String> {
    /// A result set being streamed: schema, period columns, rows so far.
    type Pending = (storage::Schema, Option<(u32, u32)>, Vec<Row>);
    let mut pending: Option<Pending> = None;
    let mut result = None;
    loop {
        match read_frame(&mut bytes).map_err(|e| e.to_string())?.0 {
            Frame::RowHeader { schema, period } => pending = Some((schema, period, Vec::new())),
            Frame::RowBatch { rows } => match pending.as_mut() {
                Some(p) => p.2.extend(rows),
                None => return Err("RowBatch without RowHeader".into()),
            },
            Frame::RowEnd { .. } => {
                let (schema, period, rows) = pending.take().ok_or("RowEnd without RowHeader")?;
                let mut table = match period {
                    Some((b, e)) => Table::with_period(schema, b as usize, e as usize),
                    None => Table::new(schema),
                };
                table.extend(rows);
                result = Some(table);
            }
            Frame::Ready { .. } => return result.ok_or_else(|| "no result set".to_string()),
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// The span name an operator's self time is accounted under.
fn operator_group(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::Scan { .. }
        | PlanNode::VirtualScan { .. }
        | PlanNode::Values { .. }
        | PlanNode::Timeslice { .. }
        | PlanNode::TimeRange { .. } => "engine.scan",
        PlanNode::Join { .. } => "engine.join",
        PlanNode::Split { .. } => "engine.split",
        PlanNode::Aggregate { .. } | PlanNode::TemporalAggregate { .. } => "engine.aggregate",
        PlanNode::ExceptAll { .. } | PlanNode::TemporalExceptAll { .. } => "engine.diff",
        PlanNode::Coalesce { .. } => "engine.coalesce",
        PlanNode::Filter { .. }
        | PlanNode::Project { .. }
        | PlanNode::Union { .. }
        | PlanNode::Distinct { .. }
        | PlanNode::Sort { .. } => "engine.other",
    }
}

/// Turns the engine's public per-operator inclusive times into spans under
/// `parent`. Durations are the engine's own; *positions* are synthetic
/// (children laid end to end from their parent's start), which is all a
/// self-time computation needs. Returns `(duration, rows read at leaves)`.
fn operator_spans(
    rec: &mut Recorder,
    parent: SpanId,
    stmt: u64,
    plan: &Plan,
    nodes: &NodeStats,
    start_ns: u64,
) -> (u64, u64) {
    let Some(actuals) = nodes.get(plan) else {
        return (0, 0);
    };
    let id = rec.record(
        operator_group(&plan.node),
        Some(parent),
        stmt,
        start_ns,
        start_ns + actuals.nanos,
    );
    let mut offset = start_ns;
    let mut leaf_rows = 0;
    let mut any_child_ran = false;
    for child in plan.children() {
        let (nanos, rows) = operator_spans(rec, id, stmt, child, nodes, offset);
        any_child_ran |= nodes.get(child).is_some();
        offset += nanos;
        leaf_rows += rows;
    }
    if !any_child_ran {
        // A leaf, or an indexed route that answered without its input.
        leaf_rows = actuals.rows;
    }
    (actuals.nanos, leaf_rows)
}

fn plan_nodes(plan: &Plan) -> usize {
    1 + plan.children().into_iter().map(plan_nodes).sum::<usize>()
}

/// Per-statement counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    stmt_bytes: f64,
    plan_nodes: f64,
    result_rows: f64,
    rows_in: f64,
    result_bytes: f64,
    frames: f64,
}

/// Pass B for one read statement: the server's pipeline by hand.
fn traced_read(
    rec: &mut Recorder,
    stmt: u64,
    sql_text: &str,
    shared: &SharedDatabase,
    loopback: &mut Loopback,
) -> Result<Counts, String> {
    let request = frame_bytes(&Frame::Query {
        sql: sql_text.to_string(),
    });
    let root = rec.start("stmt", None, stmt);
    let root_some = Some(root);

    let (frame, _) = rec.time("server.request_decode", root_some, stmt, || {
        read_frame(&mut &request[..]).map(|(f, _)| f)
    });
    let Frame::Query { sql } = frame.map_err(|e| e.to_string())? else {
        return Err("request did not decode to a Query frame".into());
    };
    let (parsed, _) = rec.time("sql.parse", root_some, stmt, || {
        sql::parse_sql_statement(&sql)
    });
    let SqlStatement::Query(query) = parsed? else {
        return Err(format!("not a query: {sql}"));
    };
    let (mut snap, _) = rec.time("session.snapshot", root_some, stmt, || shared.snapshot());
    let (bound, _) = rec.time("sql.bind", root_some, stmt, || {
        sql::bind_statement(&query, snap.catalog())
    });
    let bound = bound?;
    let (plan, _) = rec.time("rewrite.compile", root_some, stmt, || {
        // What the session does per statement, domain inference included.
        SnapshotCompiler::with_options(infer_domain(snap.catalog()), RewriteOptions::default())
            .compile_statement(&bound, snap.catalog())
    });
    let plan = plan?;
    let tables = plan.referenced_tables();
    rec.time("index.refresh", root_some, stmt, || {
        snap.refresh_indexes(&tables)
    });

    let mut stats = ExecStats::default();
    let mut nodes = NodeStats::default();
    let engine = Engine::with_config(EngineConfig {
        parallelism: 1,
        ..EngineConfig::default()
    });
    let (result, exec) = rec.time("engine.execute", root_some, stmt, || {
        engine.execute_analyzed(
            &plan,
            snap.catalog(),
            Some(snap.indexes()),
            &mut stats,
            &mut nodes,
        )
    });
    let result = result?;
    let exec_start = rec.get(exec).start_ns;
    let (_, rows_in) = operator_spans(rec, exec, stmt, &plan, &nodes, exec_start);

    let (encoded, _) = rec.time("server.result_encode", root_some, stmt, || {
        let mut frames: Vec<Vec<u8>> = rowset_frames(&result).iter().map(frame_bytes).collect();
        frames.push(frame_bytes(&Frame::Ready { in_txn: false }));
        frames
    });
    let (written, _) = rec.time("server.result_write", root_some, stmt, || {
        encoded
            .iter()
            .try_for_each(|bytes| loopback.stream.write_all(bytes))
    });
    written.map_err(|e| format!("loopback write: {e}"))?;
    let stream: Vec<u8> = encoded.concat();
    let (decoded, _) = rec.time("server.client_decode", root_some, stmt, || {
        client_decode(&stream)
    });
    let decoded = decoded?;
    rec.end(root);
    if decoded.len() != result.len() {
        return Err(format!("client reassembly lost rows: {sql}"));
    }
    Ok(Counts {
        stmt_bytes: sql_text.len() as f64,
        plan_nodes: plan_nodes(&plan) as f64,
        result_rows: result.len() as f64,
        rows_in: rows_in as f64,
        result_bytes: stream.len() as f64,
        frames: encoded.len() as f64,
    })
}

/// Executes one operation through `Session::execute`, piece by piece as the
/// server does; returns the summed phase timings.
fn execute_op(session: &mut Session, op: &Op) -> Result<snapshot_session::PhaseTimings, String> {
    let mut total = snapshot_session::PhaseTimings::default();
    for piece in sql::split_script(&op.sql) {
        session.execute(&piece)?;
        let p = session.last_phase_timings();
        total.parse_ns += p.parse_ns;
        total.bind_ns += p.bind_ns;
        total.rewrite_ns += p.rewrite_ns;
        total.index_ns += p.index_ns;
        total.execute_ns += p.execute_ns;
        total.commit_ns += p.commit_ns;
    }
    Ok(total)
}

/// The fixed statement sample: connection 0's first `trace_sample` cycles.
/// Reads are the same statements in every pass; commits continue from
/// `writes_done` so every pass applies fresh ones.
fn sample_ops(w: &Workload, cycles: usize, writes_done: &mut usize) -> Vec<Op> {
    (0..cycles * w.cycle_len())
        .map(|i| {
            let op = w.op(0, i, *writes_done);
            if op.writes.is_some() {
                *writes_done += 1;
            }
            op
        })
        .collect()
}

/// Per class: the median of `values` over that class's statements.
/// Statements of a class missing from `values` count as 0.
fn class_medians(
    w: &Workload,
    classes: &[usize],
    values: &BTreeMap<u64, f64>,
    stmt_base: u64,
) -> Vec<f64> {
    (0..w.classes.len())
        .map(|c| {
            let of_class: Vec<f64> = classes
                .iter()
                .enumerate()
                .filter(|(_, class)| **class == c)
                .map(|(i, _)| values.get(&(stmt_base + i as u64)).copied().unwrap_or(0.0))
                .collect();
            median(&of_class)
        })
        .collect()
}

/// Mix-weighted mean over the classes of `kind`.
fn mix(w: &Workload, per_class: &[f64], kind: ClassKind) -> f64 {
    let mut value = 0.0;
    let mut weight = 0.0;
    for (class, v) in w.classes.iter().zip(per_class) {
        if class.kind == kind {
            value += class.weight * v;
            weight += class.weight;
        }
    }
    if weight == 0.0 {
        0.0
    } else {
        value / weight
    }
}

const PASS_A: u64 = 1_000_000;
const PASS_B: u64 = 2_000_000;

struct Passes {
    rec: Recorder,
    /// Class of the `i`-th sampled statement.
    classes: Vec<usize>,
    untraced_wall_s: f64,
    pass_a_wall_s: f64,
    counts: Vec<(usize, Counts)>,
    /// Commit-phase microseconds of pass A's write statements.
    commit_us: Vec<f64>,
}

fn run_passes(w: &Workload, shared: &SharedDatabase) -> Result<Passes, String> {
    let mut session = shared.session_with_options(SessionOptions::default());
    let mut writes_done = 0;
    // Warm the in-process database like the served one.
    for op in sample_ops(w, 3, &mut writes_done) {
        execute_op(&mut session, &op)?;
    }

    let ops = sample_ops(w, w.scale.trace_sample, &mut writes_done);
    let started = Instant::now();
    for op in &ops {
        execute_op(&mut session, op)?;
    }
    let untraced_wall_s = started.elapsed().as_secs_f64();

    let mut rec = Recorder::new();
    let ops = sample_ops(w, w.scale.trace_sample, &mut writes_done);
    let classes: Vec<usize> = ops.iter().map(|op| op.class).collect();
    let mut commit_us = Vec::new();
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let stmt = PASS_A + i as u64;
        let span = rec.start("session.execute", None, stmt);
        let phases = execute_op(&mut session, op)?;
        rec.end(span);
        // The phases the session reports become children (laid end to
        // end); what they do not cover is the session's own work.
        let mut at = rec.get(span).start_ns;
        for (name, ns) in [
            ("session.phase.parse", phases.parse_ns),
            ("session.phase.bind", phases.bind_ns),
            ("session.phase.rewrite", phases.rewrite_ns),
            ("session.phase.index", phases.index_ns),
            ("session.phase.execute", phases.execute_ns),
            ("session.phase.commit", phases.commit_ns),
        ] {
            rec.record(name, Some(span), stmt, at, at + ns);
            at += ns;
        }
        if op.writes.is_some() {
            commit_us.push(phases.commit_ns as f64 / 1e3);
        }
    }
    let pass_a_wall_s = started.elapsed().as_secs_f64();

    let mut loopback = Loopback::open()?;
    let mut counts = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if w.classes[op.class].kind == ClassKind::Read {
            let c = traced_read(&mut rec, PASS_B + i as u64, &op.sql, shared, &mut loopback)?;
            counts.push((op.class, c));
        }
    }
    Ok(Passes {
        rec,
        classes,
        untraced_wall_s,
        pass_a_wall_s,
        counts,
        commit_us,
    })
}

/// In-memory `COMMIT` cost of the registry's commit units: validate +
/// publish + committed-index repair, no log.
fn in_memory_commit_us(w: &Workload, catalog: &storage::Catalog) -> Result<f64, String> {
    let shared = SharedDatabase::new(snapshot_session::Database::from_catalog(catalog.clone()));
    shared.refresh_indexes(None);
    let mut session = shared.session();
    let mut us = Vec::new();
    for k in 0..w.scale.trace_sample.max(6) {
        let phases = execute_op(&mut session, &w.commit_op(&w.commit(0, k)))?;
        us.push(phases.commit_ns as f64 / 1e3);
    }
    Ok(median(&us))
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

pub fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let scratch = Scratch::new(&format!("{}-trace", cfg.workload))?;
    let (w, catalog) = Workload::new(&cfg.workload, cfg.seed, cfg.scale)?;
    let expected = check::expected_statics(&w, &catalog)?;
    let mut outcome = Outcome::default();
    let mut m: Metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, metric(0.0, unit)))
        .collect();

    // 1. The wire window against the untraced child, with witnesses.
    let Ready {
        child,
        mut driver,
        split,
        ..
    } = set_up(&w, &expected, scratch.sub("db"))?;
    m.insert("setup.datagen_s", metric(split.datagen_s, "s"));
    m.insert("setup.load_s", metric(split.load_s, "s"));
    m.insert("setup.index_build_s", metric(split.index_build_s, "s"));
    m.insert("setup.warmup_s", metric(split.warmup_s, "s"));

    let mut connect_us = Vec::new();
    for _ in 0..20 {
        let started = Instant::now();
        let client = Client::connect_timeout(&child.addr, Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        connect_us.push(started.elapsed().as_secs_f64() * 1e6);
        let _ = client.close();
    }
    m.insert(
        "server.connect_us",
        metric_n(median(&connect_us), "us", connect_us.len()),
    );

    let before = witnesses(child.addr)?;
    let window = driver.run(Stop::After(Duration::from_secs_f64(cfg.seconds / 2.0)));
    let deltas = Deltas {
        before,
        after: witnesses(child.addr)?,
    };
    outcome.absorb(&window);
    driver.close();
    child.kill9();
    if w.name == "registry_mix" {
        let mut mirror = Mirror::new(&w, &catalog);
        let (checked, failures) = check::check_censuses(&w, &mut mirror, &window.censuses)?;
        outcome.attempted += checked as u64;
        for f in failures {
            outcome.fail(f);
        }
    }
    outcome.notes = class_notes(&w, &window);

    let reads = rtt(&w, &window, ClassKind::Read, 99);
    let writes = rtt(&w, &window, ClassKind::Write, 95);
    m.insert("server.rtt_p99_ms", metric_n(reads.tail_ms, "ms", reads.n));
    outcome.notes.push(format!(
        "server.rtt_p99_ms is the p{} of {} read samples (the highest with 10 beyond it)",
        reads.tail_percent, reads.n
    ));
    let read_p95 = rtt(&w, &window, ClassKind::Read, 95);
    m.insert(
        "read_rtt_p95_ms",
        metric_n(read_p95.tail_ms, "ms", read_p95.n),
    );
    m.insert("write_rtt_p50_ms", metric_n(writes.p50_ms, "ms", writes.n));
    m.insert("write_rtt_p95_ms", metric_n(writes.tail_ms, "ms", writes.n));

    let commits = deltas.counter("txn_commits_total");
    let full = deltas.counter("index_full_builds_total");
    let incremental = deltas.counter("index_incremental_builds_total");
    m.insert("index.full_builds", metric(full, "count"));
    m.insert("index.incremental_builds", metric(incremental, "count"));
    if full + incremental > 0.0 {
        m.insert(
            "index.incremental_share",
            metric(incremental / (full + incremental), "ratio"),
        );
    }
    m.insert(
        "txn.commit_wait_ms_total",
        metric(deltas.histogram_sum("txn_commit_wait_seconds") * 1e3, "ms"),
    );
    m.insert(
        "txn.conflicts",
        metric(deltas.counter("txn_conflicts_total"), "count"),
    );
    m.insert(
        "txn.retries",
        metric(deltas.counter("session_retries_total"), "count"),
    );
    m.insert(
        "wal.checkpoints",
        metric(deltas.counter("wal_checkpoints_total"), "count"),
    );
    if commits > 0.0 {
        m.insert(
            "wal.bytes_per_commit",
            metric(
                deltas.counter("wal_appended_bytes_total") / commits,
                "bytes",
            ),
        );
        m.insert(
            "wal.fsyncs_per_commit",
            metric(deltas.counter("wal_fsyncs_total") / commits, "ratio"),
        );
    }
    let reused = deltas.counter("wal_checkpoint_reused_tables_total");
    let encoded = deltas.counter("wal_checkpoint_encoded_tables_total");
    if reused + encoded > 0.0 {
        m.insert(
            "wal.checkpoint_reuse_share",
            metric(reused / (reused + encoded), "ratio"),
        );
    }
    // The acceptance conditions on the server's own counters.
    outcome.attempted += 1;
    if w.name == "registry_mix" {
        if deltas.counter("txn_conflicts_total") != 0.0 {
            outcome.fail("disjoint write tables, yet txn_conflicts_total moved".into());
        }
    } else if full != 0.0 {
        outcome.fail(format!(
            "a read-only window rebuilt {full} indexes (index_full_builds_total)"
        ));
    }

    // 2. The in-process passes on an identically seeded durable database.
    let inproc_dir = scratch.sub("inproc");
    write_database(&inproc_dir, &catalog)?;
    let (shared, _) = SharedDatabase::open_durable(
        &inproc_dir,
        SessionOptions::default(),
        PersistenceOptions::default(),
    )?;
    shared.refresh_indexes(None);
    let passes = run_passes(&w, &shared)?;
    drop(shared);

    let self_ns = passes.rec.self_ns_by_stmt_and_name();
    // Per span name → per statement → microseconds of self time.
    let mut by_name: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for ((stmt, name), ns) in &self_ns {
        by_name
            .entry(name)
            .or_default()
            .insert(*stmt, *ns as f64 / 1e3);
    }
    // Inclusive durations of pass A's `session.execute` and pass B's
    // `engine.execute` spans, per statement.
    let mut inclusive: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for span in passes.rec.spans() {
        if matches!(span.name, "session.execute" | "engine.execute") {
            inclusive
                .entry(span.name)
                .or_default()
                .insert(span.stmt, span.duration_ns() as f64 / 1e3);
        }
    }
    // One number per layer: per read class the median over its sampled
    // statements (numbered from `base`), mix-weighted over the classes.
    let empty = BTreeMap::new();
    let layer = |per_stmt: &BTreeMap<&'static str, BTreeMap<u64, f64>>, name: &str, base: u64| {
        let values = per_stmt.get(name).unwrap_or(&empty);
        mix(
            &w,
            &class_medians(&w, &passes.classes, values, base),
            ClassKind::Read,
        )
    };
    let layer_self = |name: &str, base: u64| layer(&by_name, name, base);
    let layer_inclusive = |name: &str, base: u64| layer(&inclusive, name, base);

    let session_execute_us = layer_inclusive("session.execute", PASS_A);
    let session_self_us = layer_self("session.execute", PASS_A);
    let engine_execute_us = layer_inclusive("engine.execute", PASS_B);
    m.insert("session.execute_us", metric(session_execute_us, "us"));
    m.insert("session.self_us", metric(session_self_us, "us"));
    m.insert("engine.execute_us", metric(engine_execute_us, "us"));
    let mut pipeline_us = 0.0;
    for (metric_name, span_name) in [
        ("server.request_decode_us", "server.request_decode"),
        ("server.result_encode_us", "server.result_encode"),
        ("server.result_write_us", "server.result_write"),
        ("server.client_decode_us", "server.client_decode"),
        ("session.snapshot_us", "session.snapshot"),
        ("sql.parse_us", "sql.parse"),
        ("sql.bind_us", "sql.bind"),
        ("rewrite.compile_us", "rewrite.compile"),
        ("index.refresh_us", "index.refresh"),
        ("engine.scan_self_us", "engine.scan"),
        ("engine.join_self_us", "engine.join"),
        ("engine.split_self_us", "engine.split"),
        ("engine.aggregate_self_us", "engine.aggregate"),
        ("engine.diff_self_us", "engine.diff"),
        ("engine.coalesce_self_us", "engine.coalesce"),
    ] {
        let us = layer_self(span_name, PASS_B);
        pipeline_us += us;
        m.insert(metric_name, metric(us, "us"));
    }
    // Operators outside the named groups, plus the executor's own wrapper
    // (materialising the result table).
    let other_us = layer_self("engine.other", PASS_B) + layer_self("engine.execute", PASS_B);
    pipeline_us += other_us;
    m.insert("engine.other_self_us", metric(other_us, "us"));

    let count_mix = |field: fn(&Counts) -> f64| -> f64 {
        let per_class: Vec<f64> = (0..w.classes.len())
            .map(|c| {
                let of_class: Vec<f64> = passes
                    .counts
                    .iter()
                    .filter(|(class, _)| *class == c)
                    .map(|(_, counts)| field(counts))
                    .collect();
                if of_class.is_empty() {
                    0.0
                } else {
                    of_class.iter().sum::<f64>() / of_class.len() as f64
                }
            })
            .collect();
        mix(&w, &per_class, ClassKind::Read)
    };
    m.insert(
        "sql.stmt_bytes",
        metric(count_mix(|c| c.stmt_bytes), "bytes"),
    );
    m.insert(
        "rewrite.plan_nodes",
        metric(count_mix(|c| c.plan_nodes), "count"),
    );
    let result_rows = count_mix(|c| c.result_rows);
    m.insert("engine.result_rows_per_stmt", metric(result_rows, "count"));
    if result_rows > 0.0 {
        m.insert(
            "engine.rows_in_per_row_out",
            metric(count_mix(|c| c.rows_in) / result_rows, "ratio"),
        );
    }
    m.insert(
        "server.result_bytes_per_stmt",
        metric(count_mix(|c| c.result_bytes), "bytes"),
    );
    m.insert(
        "server.frames_per_stmt",
        metric(count_mix(|c| c.frames), "count"),
    );

    let wire_us = reads.p50_ms * 1e3;
    let server_spans_us: f64 = [
        "server.request_decode_us",
        "server.result_encode_us",
        "server.result_write_us",
        "server.client_decode_us",
    ]
    .iter()
    .map(|name| m[*name].value)
    .sum();
    m.insert(
        "server.residual_us",
        metric(wire_us - session_execute_us - server_spans_us, "us"),
    );
    if wire_us > 0.0 {
        m.insert(
            "budget.closure_share",
            metric((pipeline_us + session_self_us) / wire_us, "ratio"),
        );
    }
    m.insert(
        "bench.trace_overhead_pct",
        metric(
            100.0 * (passes.pass_a_wall_s - passes.untraced_wall_s) / passes.untraced_wall_s,
            "%",
        ),
    );

    // 3. Micro-measurements.
    micro::data_structures(&w, &catalog, &mut m)?;
    micro::persistence(&catalog, &scratch.sub("micro"), &mut m)?;
    if w.name == "registry_mix" {
        m.insert(
            "txn.commit_durable_us",
            metric_n(median(&passes.commit_us), "us", passes.commit_us.len()),
        );
        m.insert(
            "txn.commit_us",
            metric(in_memory_commit_us(&w, &catalog)?, "us"),
        );
        micro::commit_path(&w, &catalog, &scratch.sub("commit"), &mut m)?;
    }

    let trace_path = output_root()?.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, passes.rec.to_json().render() + "\n")
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    outcome.notes.push(format!(
        "{} spans written to {}",
        passes.rec.spans().len(),
        trace_path.display()
    ));
    outcome.metrics = m;
    Ok(outcome)
}
