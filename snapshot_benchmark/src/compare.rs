//! `--compare A.json B.json`: the repeatability tool.
//!
//! Reads two `--out` files and `BENCHMARK.json`; per workload × end-to-end
//! metric prints both values, how much worse B is than A, and the declared
//! bound. Returns `false` (exit code 1) when any metric is worse by more
//! than its bound. Per-layer *counts* that did not repeat exactly are
//! listed: a count that moves between two runs of one commit cannot carry
//! a claim.

use crate::json::{parse, Json};
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value_of(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn compare(a_path: &Path, b_path: &Path, benchmark_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let benchmark = load(benchmark_path)?;
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let mut within = true;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in &workloads {
        for m in benchmark
            .get("end_to_end")
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                return Err(format!(
                    "{}: malformed end_to_end entry",
                    benchmark_path.display()
                ));
            };
            let (Some(va), Some(vb)) = (value_of(&a, workload, name), value_of(&b, workload, name))
            else {
                println!("{workload:<14} {name:<26} missing from one of the files");
                within = false;
                continue;
            };
            let worse = worsening(va, vb, better);
            let verdict = if worse > bound { "  OUTSIDE" } else { "" };
            within &= worse <= bound;
            println!(
                "{workload:<14} {name:<26} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%{verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    let mut moved = Vec::new();
    for workload in &workloads {
        for m in benchmark
            .get("per_layer")
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let (Some(name), Some(unit)) = (
                m.get("name").and_then(Json::as_str),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            if !matches!(unit, "count" | "bytes") {
                continue;
            }
            if let (Some(va), Some(vb)) =
                (value_of(&a, workload, name), value_of(&b, workload, name))
            {
                if va != vb {
                    moved.push(format!("  {workload} {name}: {va} vs {vb}"));
                }
            }
        }
    }
    if moved.is_empty() {
        println!("every per-layer count repeated exactly");
    } else {
        println!("per-layer counts that did not repeat exactly (window counts follow how many statements fit the window):");
        for line in moved {
            println!("{line}");
        }
    }
    println!(
        "{}",
        if within {
            "every end-to-end metric is within its bound"
        } else {
            "at least one end-to-end metric is OUTSIDE its bound"
        }
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "lower") + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, "lower"), 0.0);
        assert!(worsening(0.0, 1.0, "lower").is_infinite());
    }
}
