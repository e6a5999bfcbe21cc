//! One benchmark run of one workload: set-up, the measured window over the
//! wire, the correctness gate, kill -9 → restart — and the metrics.

use crate::calib::{self, Calibrator};
use crate::check::{self, BagHash, Mirror};
use crate::child::Child;
use crate::stats::{median, Sample};
use crate::wire::{self, Driver, Stop, Window};
use crate::workloads::{ClassKind, Scale, Workload, REGISTRY_TABLES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use storage::Catalog;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of a sample.
    pub n: Option<usize>,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn metric(value: f64, unit: &'static str) -> Metric {
    Metric {
        value,
        unit,
        n: None,
    }
}

pub fn metric_n(value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        value,
        unit,
        n: Some(n),
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable detail printed above the metrics (per-class
    /// statistics, where the checks spent their time).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub(crate) fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub(crate) fn absorb(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        self.failures.extend(window.failures.iter().cloned());
    }
}

/// Everything a run needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

/// `<target dir>/benchmark`: everything the benchmark writes lives beside
/// its own build output (the executable is `<target dir>/<profile>/…`).
pub fn output_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("unexpected executable location {}", exe.display()))?;
    let root = target.join("benchmark");
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok(root)
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Result<Scratch, String> {
        let dir = output_root()?.join(format!("run-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Generating the data from the seed.
    pub datagen_s: f64,
    /// Writing the checkpoint directory, starting the child, its recovery.
    pub load_s: f64,
    /// The documented `.index` step.
    pub index_build_s: f64,
    /// Warming every statement class.
    pub warmup_s: f64,
}

impl SetupSplit {
    pub fn total(&self) -> f64 {
        self.datagen_s + self.load_s + self.index_build_s + self.warmup_s
    }
}

/// A served, indexed, warmed database.
pub struct Ready<'a> {
    pub child: Child,
    pub driver: Driver<'a>,
    pub dir: PathBuf,
    pub split: SetupSplit,
}

/// Writes `catalog` as a database directory: one checkpoint, no WAL.
pub fn write_database(dir: &Path, catalog: &Catalog) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    snapshot_wal::write_checkpoint(dir, 1, 0, catalog).map(|_| ())
}

/// The full set-up a user of the system pays before the first measured
/// statement: data → checkpoint directory → server start and recovery →
/// `.index` → warm-up (`scale.warmup` cycles, every class at least that
/// often). Warm-up responses go through the correctness gate too.
pub fn set_up<'a>(
    w: &'a Workload,
    expected: &'a [BagHash],
    dir: PathBuf,
) -> Result<Ready<'a>, String> {
    let mut split = SetupSplit::default();
    let started = Instant::now();
    let (_, catalog) = Workload::new(w.name, w.seed, w.scale)?;
    split.datagen_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    write_database(&dir, &catalog)?;
    let child = Child::spawn(&dir)?;
    let mut driver = Driver::connect(w, expected, child.addr)?;
    split.load_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut control = child.connect()?;
    let indexed = control.meta("index").map_err(|e| e.to_string())?;
    if let Some(e) = indexed.error {
        return Err(format!(".index failed: {e}"));
    }
    let _ = control.close();
    split.index_build_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let warm = driver.run(Stop::Cycles(w.scale.warmup));
    split.warmup_s = started.elapsed().as_secs_f64();
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.failures));
    }
    Ok(Ready {
        child,
        driver,
        dir,
        split,
    })
}

// ---------------------------------------------------------------------------
// RTT statistics
// ---------------------------------------------------------------------------

/// RTT statistics of one kind of statement (reads or commits) over a
/// window, robust to classes of very different cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rtt {
    /// Mix-weighted mean of the class medians: the typical RTT of a
    /// statement drawn from the mix.
    pub p50_ms: f64,
    /// The tail: the `tail_percent`-th percentile of every sample's RTT
    /// *relative to its class median*, pooled over the classes and scaled
    /// by `p50_ms`. Pooling lets all samples support one percentile;
    /// normalising first keeps a slow class from being mistaken for a tail.
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_percent: u32,
    /// Samples behind it.
    pub n: usize,
}

/// The typical RTT of a statement of `kind` drawn from the mix: the
/// mix-weighted mean of the class medians (0 without samples).
pub fn p50_ms(w: &Workload, window: &Window, kind: ClassKind) -> f64 {
    let mut p50 = 0.0;
    let mut weight = 0.0;
    for (c, class) in w.classes.iter().enumerate() {
        if class.kind == kind && !window.rtt_ms[c].is_empty() {
            p50 += class.weight * median(&window.rtt_ms[c]);
            weight += class.weight;
        }
    }
    if weight == 0.0 {
        0.0
    } else {
        p50 / weight
    }
}

/// [`Rtt`] of the classes of `kind`; `cap` is the percentile asked for
/// (reported lower when fewer than 10 samples would lie beyond it).
pub fn rtt(w: &Workload, window: &Window, kind: ClassKind, cap: u32) -> Rtt {
    let mut ratios = Vec::new();
    for (c, class) in w.classes.iter().enumerate() {
        if class.kind == kind && !window.rtt_ms[c].is_empty() {
            let class_median = median(&window.rtt_ms[c]);
            ratios.extend(window.rtt_ms[c].iter().map(|r| r / class_median));
        }
    }
    if ratios.is_empty() {
        return Rtt::default();
    }
    let p50_ms = p50_ms(w, window, kind);
    let ratios = Sample::new(ratios);
    let (tail_percent, ratio) = ratios.tail(cap);
    Rtt {
        p50_ms,
        tail_ms: ratio * p50_ms,
        tail_percent,
        n: ratios.len(),
    }
}

/// One line per statement class: sample count, median and p95 RTT.
pub fn class_notes(w: &Workload, window: &Window) -> Vec<String> {
    w.classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let s = Sample::new(window.rtt_ms[c].clone());
            format!(
                "class {:<12} n={:<6} rtt p50 {:>9.3} ms  p95 {:>9.3} ms",
                class.name,
                s.len(),
                s.median(),
                s.quantile(0.95)
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Restarts a server on a pristine copy of the killed database directory
/// and times child spawn → service restored: the restarted server has
/// recovered (checkpoint load, WAL replay) and answered one statement of
/// every read class of the workload — cold, so the first reads also pay
/// for rebuilding the indexes recovery does not restore. With `mirror`,
/// the restarted server's registry tables must equal the mirror after
/// every acknowledged commit.
fn recover_once(
    w: &Workload,
    killed: &Path,
    copy: &Path,
    verify: Option<(&mut Mirror, [usize; 2])>,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    copy_dir(killed, copy)?;
    let child = Child::spawn(copy)?;
    let mut client = child.connect()?;
    for (_, sql) in w.representatives() {
        let response = client.query(&sql).map_err(|e| e.to_string())?;
        if let Some(e) = response.error {
            return Err(format!("after restart: {sql}: {e}"));
        }
    }
    let recovery_s = child.spawned.elapsed().as_secs_f64();
    let _ = client.close();
    if let Some((mirror, acked)) = verify {
        for (table, name) in REGISTRY_TABLES.iter().enumerate() {
            mirror.advance(w, table, acked[table])?;
            let served = wire::query_rows(child.addr, &format!("SELECT * FROM {name}"))?;
            outcome.attempted += 1;
            if check::bag_hash(served.rows()) != mirror.table(table) {
                outcome.fail(format!(
                    "after kill -9 and restart {name} differs from its {} acknowledged commits \
                     ({} rows served, {} expected)",
                    acked[table],
                    served.len(),
                    mirror.table(table).rows
                ));
            }
        }
    }
    child.kill9();
    let _ = std::fs::remove_dir_all(copy);
    Ok(recovery_s)
}

// ---------------------------------------------------------------------------
// The untraced run
// ---------------------------------------------------------------------------

/// The window is cut into this many sub-windows (see [`crate::calib`]).
const SUB_WINDOWS: usize = 16;

/// Set-ups cheaper than this in total are repeated beyond `scale.setups`.
const CHEAP_SETUP_BUDGET_S: f64 = 3.0;

/// Restarts cheaper than this in total are repeated beyond
/// `scale.recovery_copies`.
const CHEAP_RECOVERY_BUDGET_S: f64 = 1.0;

/// Whether a quantity measured `done.len()` times needs another round: at
/// least `rounds`, and up to three times as many while they are cheap
/// (a 0.1 s piece is mostly process start, and noisy).
fn another_round(done: &[f64], rounds: usize, budget_s: f64) -> bool {
    done.len() < rounds || (done.len() < 3 * rounds && done.iter().sum::<f64>() < budget_s)
}

/// Cycles per connection run after the forced checkpoint on
/// `registry_mix`: 15 commits per table, 50 logged statements in all.
const RECOVERY_TAIL_CYCLES: usize = 5;

/// `--trace 0`: the end-to-end metrics, with the benchmark's tracing off.
pub fn run_untraced(cfg: &RunConfig) -> Result<Outcome, String> {
    let scratch = Scratch::new(&cfg.workload)?;
    let (w, catalog) = Workload::new(&cfg.workload, cfg.seed, cfg.scale)?;
    let expected = check::expected_statics(&w, &catalog)?;
    let mut outcome = Outcome::default();

    // Set up several times; the last one serves. A kernel reading precedes
    // every piece of every phase and follows its last (see `calib`).
    let calib = Calibrator::new();
    let mut setup_readings: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut ready = None;
    while another_round(&setups, cfg.scale.setups.max(1), CHEAP_SETUP_BUDGET_S) {
        if let Some(Ready {
            child, driver, dir, ..
        }) = ready.take()
        {
            driver.close();
            child.kill9();
            let _ = std::fs::remove_dir_all(dir);
        }
        setup_readings.push(calib.factor());
        let r = set_up(&w, &expected, scratch.sub(&format!("db{}", setups.len())))?;
        setups.push(r.split.total());
        ready = Some(r);
    }
    let Ready {
        child,
        mut driver,
        dir,
        ..
    } = ready.expect("at least one set-up ran");

    // The measured window, in sub-windows: throughput, read RTT and CPU
    // cost are taken per sub-window, so a burst of interference moves only
    // the sub-windows it hits.
    let mut window = Window::default();
    let mut window_readings: Vec<f64> = Vec::new();
    let mut per_s = Vec::new();
    let mut read_rtt_ms = Vec::new();
    let mut cpu_ms_per_stmt = Vec::new();
    let sub = Duration::from_secs_f64(cfg.seconds / SUB_WINDOWS as f64);
    for _ in 0..SUB_WINDOWS {
        window_readings.push(calib.factor());
        let cpu_before = child.cpu_ms()?;
        let piece = driver.run(Stop::After(sub));
        let cpu_ms = child.cpu_ms()? - cpu_before;
        let statements = piece.statements() as f64;
        per_s.push(statements / piece.wall_s);
        if statements > 0.0 {
            cpu_ms_per_stmt.push(cpu_ms / statements);
            read_rtt_ms.push(p50_ms(&w, &piece, ClassKind::Read));
        }
        window.merge(piece);
    }
    window_readings.push(calib.factor());
    setup_readings.push(window_readings[0]);
    let peak_rss_mb = child.peak_rss_mb()?;
    outcome.absorb(&window);
    let mut censuses = window.censuses.clone();
    let mut write_sql_bytes = window.write_sql_bytes;

    // Registry: leave a WAL tail of known length behind, so that recovery
    // replays the same work every run — checkpoint, then 5 more cycles per
    // connection (30 commit units, 50 logged statements: under the
    // auto-checkpoint threshold of 64).
    if w.name == "registry_mix" {
        let mut control = child.connect()?;
        let done = control.meta("checkpoint").map_err(|e| e.to_string())?;
        if let Some(e) = done.error {
            return Err(format!(".checkpoint failed: {e}"));
        }
        let _ = control.close();
        let tail = driver.run(Stop::Cycles(RECOVERY_TAIL_CYCLES));
        outcome.absorb(&tail);
        censuses.extend(tail.censuses);
        write_sql_bytes += tail.write_sql_bytes;
    }
    let acked = driver.acked();
    driver.close();

    // Registry: censuses against the mirror.
    let mut mirror = (w.name == "registry_mix").then(|| Mirror::new(&w, &catalog));
    if let Some(mirror) = mirror.as_mut() {
        let (checked, failures) = check::check_censuses(&w, mirror, &censuses)?;
        outcome.attempted += checked as u64;
        for f in failures {
            outcome.fail(f);
        }
    }

    // Space: what the directory holds per byte the user handed over (the
    // loaded data as SQL text, plus every acknowledged write's SQL text).
    let user_bytes = snapshot_wal::dump_sql(&catalog).len() as u64 + write_sql_bytes;
    let disk_bytes = dir_bytes(&dir)?;

    // kill -9, then restart on copies of what it left behind.
    child.kill9();
    let mut recovery_readings: Vec<f64> = Vec::new();
    let mut recoveries: Vec<f64> = Vec::new();
    let copies = cfg.scale.recovery_copies.max(1);
    while another_round(&recoveries, copies, CHEAP_RECOVERY_BUDGET_S) {
        let verify = match (recoveries.len(), mirror.as_mut()) {
            (0, Some(m)) => Some((m, acked)),
            _ => None,
        };
        let copy = scratch.sub(&format!("recover{}", recoveries.len()));
        recovery_readings.push(calib.factor());
        recoveries.push(recover_once(&w, &dir, &copy, verify, &mut outcome)?);
    }
    recovery_readings.push(calib.factor());

    // Every statement class against the point-wise oracle, reduced scale.
    let (classes, failures) = check::oracle_check(w.name, cfg.seed)?;
    outcome.attempted += classes as u64;
    for f in failures {
        outcome.fail(f);
    }

    outcome.notes.splice(0..0, class_notes(&w, &window));
    outcome.notes.push(format!(
        "client-side response checking took {:.1}% of the window",
        100.0 * window.check_s / (window.wall_s * w.connections as f64)
    ));
    outcome.notes.push(format!(
        "medians as measured: setup {:.3} s, {} statements in {:.2} s ({:.2}/s per sub-window), \
         read RTT p50 {:.3} ms, server CPU {:.3} ms/stmt, recovery {:.4} s",
        median(&setups),
        window.statements(),
        window.wall_s,
        median(&per_s),
        median(&read_rtt_ms),
        median(&cpu_ms_per_stmt),
        median(&recoveries)
    ));
    for (what, pieces) in [
        ("set-up pieces (s)", &setups),
        ("recovery pieces (s)", &recoveries),
        ("window pieces (1/s)", &per_s),
        ("window pieces (read RTT ms)", &read_rtt_ms),
        ("window pieces (CPU ms/stmt)", &cpu_ms_per_stmt),
        ("window kernel readings", &window_readings),
    ] {
        let pieces: Vec<String> = pieces.iter().map(|s| format!("{s:.4}")).collect();
        outcome.notes.push(format!("{what}: {}", pieces.join(" ")));
    }
    // Every time of this run is reported at reference speed: the quiet
    // quarter of its pieces over the quiet quarter of the kernel readings
    // taken around them (see `calib`).
    for (phase, readings) in [
        ("set-up", &setup_readings),
        ("window", &window_readings),
        ("recovery", &recovery_readings),
    ] {
        let r = Sample::new(readings.clone());
        outcome.notes.push(format!(
            "{phase}: {} kernel readings, quartiles {:.3} {:.3} {:.3}, max {:.3} (above 1 = box \
             slower than reference): times / {:.3}",
            r.len(),
            r.quantile(0.25),
            r.median(),
            r.quantile(0.75),
            r.quantile(1.0),
            calib::quiet_speed(readings)
        ));
    }
    let m = &mut outcome.metrics;
    m.insert(
        "setup_s",
        metric_n(
            calib::quiet_time(&setups, &setup_readings),
            "s",
            setups.len(),
        ),
    );
    m.insert(
        "stmt_per_s",
        metric_n(
            calib::quiet_rate(&per_s, &window_readings),
            "1/s",
            per_s.len(),
        ),
    );
    m.insert(
        "read_rtt_p50_ms",
        metric_n(
            calib::quiet_time(&read_rtt_ms, &window_readings),
            "ms",
            read_rtt_ms.len(),
        ),
    );
    m.insert(
        "server_cpu_ms_per_stmt",
        metric_n(
            calib::quiet_time(&cpu_ms_per_stmt, &window_readings),
            "ms",
            cpu_ms_per_stmt.len(),
        ),
    );
    m.insert("server_peak_rss_mb", metric(peak_rss_mb, "MB"));
    m.insert(
        "recovery_s",
        metric_n(
            calib::quiet_time(&recoveries, &recovery_readings),
            "s",
            recoveries.len(),
        ),
    );
    m.insert(
        "disk_bytes_per_user_byte",
        metric(disk_bytes as f64 / user_bytes.max(1) as f64, "ratio"),
    );
    Ok(outcome)
}
