//! `snapshot_benchmark`: one socket-to-last-`RowBatch` benchmark.
//!
//! ```text
//! snapshot_benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! snapshot_benchmark --seed N [--seconds S] [--out FILE]             every workload, both modes
//! snapshot_benchmark --compare A.json B.json                         two --out files, per bound
//! ```
//!
//! See `README.md` beside this package for the metric and workload tables.

pub mod calib;
pub mod check;
pub mod child;
pub mod compare;
pub mod json;
pub mod micro;
pub mod run;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;

use json::{object, Json};
use run::{Outcome, RunConfig};
use std::path::PathBuf;
use workloads::{Scale, FULL, SMOKE, WORKLOADS};

const USAGE: &str = "usage:
  snapshot_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]
      one run of one workload; the last stdout line is the result as JSON
      (--trace 0: end-to-end metrics, tracing off; --trace 1: per-layer metrics)
  snapshot_benchmark --seed N [--seconds S] [--scale full|smoke] [--out FILE]
      every workload, untraced then traced; --out writes all metrics as JSON
  snapshot_benchmark --compare A.json B.json [--benchmark BENCHMARK.json]
      per workload x end-to-end metric: both values, relative difference, bound;
      exits non-zero outside a bound
  workloads: agg_read join_read bulk_fetch registry_mix";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Option<String>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark_json: Option<PathBuf>,
    serve: bool,
    db: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seed requires a whole number".to_string())?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a duration")?
                    .parse()
                    .map_err(|_| "--seconds requires a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace requires 0 or 1".into()),
                })
            }
            "--scale" => args.scale = Some(value("full or smoke")?),
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(it.next().ok_or("--compare requires two files")?);
                args.compare = Some((a, b));
            }
            "--benchmark" => args.benchmark_json = Some(PathBuf::from(value("a file")?)),
            "--serve" => args.serve = true,
            "--db" => args.db = Some(PathBuf::from(value("a directory")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn scale_of(name: Option<&str>) -> Result<Scale, String> {
    match name.unwrap_or("full") {
        "full" => Ok(FULL),
        "smoke" => Ok(SMOKE),
        other => Err(format!("unknown scale '{other}' (full or smoke)")),
    }
}

fn print_outcome(workload: &str, traced: bool, outcome: &Outcome) {
    println!(
        "== {workload} ({}) — attempted {}, failed {} ==",
        if traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, m) in &outcome.metrics {
        match m.n {
            Some(n) => println!("{name:<32} {:>14.4} {:<6} n={n}", m.value, m.unit),
            None => println!("{name:<32} {:>14.4} {}", m.value, m.unit),
        }
    }
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
}

fn metrics_json(outcome: &Outcome) -> Json {
    object(outcome.metrics.iter().map(|(name, m)| {
        (
            name.to_string(),
            object([
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(outcome: &Outcome) -> String {
    object([
        ("correct".to_string(), Json::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), metrics_json(outcome)),
    ])
    .render()
}

fn run_one(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    let outcome = if traced {
        trace::run_traced(cfg)?
    } else {
        run::run_untraced(cfg)?
    };
    print_outcome(&cfg.workload, traced, &outcome);
    Ok(outcome)
}

/// Every workload, untraced then traced. Returns whether all were correct.
fn run_all(seed: u64, seconds: f64, scale: Scale, out: Option<PathBuf>) -> Result<bool, String> {
    let mut all = std::collections::BTreeMap::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let cfg = RunConfig {
            workload: workload.to_string(),
            seed,
            seconds,
            scale,
        };
        let mut merged = std::collections::BTreeMap::new();
        for traced in [false, true] {
            let outcome = run_one(&cfg, traced)?;
            correct &= outcome.correct();
            if let Json::Obj(m) = metrics_json(&outcome) {
                merged.extend(m);
            }
        }
        all.insert(workload.to_string(), Json::Obj(merged));
    }
    if let Some(path) = out {
        let doc = object([
            ("seed".to_string(), Json::Num(seed as f64)),
            ("seconds".to_string(), Json::Num(seconds)),
            ("scale".to_string(), Json::Str(scale.name.to_string())),
            ("workloads".to_string(), Json::Obj(all)),
        ]);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.serve {
        let db = args.db.ok_or("--serve requires --db DIR")?;
        return child::serve(&db).map(|()| true);
    }
    if let Some((a, b)) = args.compare {
        let benchmark = args
            .benchmark_json
            .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
        return compare::compare(&a, &b, &benchmark);
    }
    let scale = scale_of(args.scale.as_deref())?;
    let seed = args
        .seed
        .ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    match args.workload {
        Some(workload) => {
            let cfg = RunConfig {
                workload,
                seed,
                seconds: args
                    .seconds
                    .ok_or("--seconds is required with --workload")?,
                scale,
            };
            let traced = args.trace.ok_or("--trace is required with --workload")?;
            let outcome = run_one(&cfg, traced)?;
            println!("{}", result_line(&outcome));
            // A completed run exits 0 — its verdict is the `correct` field.
            Ok(true)
        }
        None => run_all(seed, args.seconds.unwrap_or(16.0), scale, args.out),
    }
}

/// The binary's entry point: parses the arguments, runs, sets the exit code.
pub fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("snapshot_benchmark: {e}");
            std::process::exit(2);
        }
    }
}
