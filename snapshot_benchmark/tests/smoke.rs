//! Runs the benchmark binary at `--scale smoke` (a few seconds) and checks
//! that what it prints is what `BENCHMARK.json` declares — so the
//! benchmark cannot rot silently.

use snapshot_benchmark::json::{parse, Json};
use snapshot_benchmark::workloads::{why, WORKLOADS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}'"))
        .as_array()
        .iter()
        .map(|entry| entry.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One driver-form run; returns the parsed result line.
fn run(workload: &str, traced: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_snapshot_benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "2"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale", "smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={traced} exited with {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn printed_names_are_the_declared_ones_and_nothing_fails() {
    let declared = declared();
    let workloads = names(&declared, "workloads");
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.to_string()).collect(),
        "BENCHMARK.json workloads differ from the binary's"
    );
    for entry in declared.get("workloads").unwrap().as_array() {
        let name = entry.get("name").unwrap().as_str().unwrap();
        assert_eq!(
            entry.get("why").unwrap().as_str().unwrap(),
            why(name),
            "{name}: the reason in BENCHMARK.json differs from the binary's"
        );
    }
    let end_to_end = names(&declared, "end_to_end");
    let per_layer = names(&declared, "per_layer");
    assert!(end_to_end.contains("setup_s"));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "badly formed name {name:?}");
    }

    for workload in WORKLOADS {
        for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let result = run(workload, traced);
            let keys: BTreeSet<&str> = result
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            assert_eq!(
                result.get("failed").unwrap().as_f64(),
                Some(0.0),
                "{workload} trace={traced}: failures"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap().as_object().unwrap();
            let printed: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(
                &printed, expected,
                "{workload} trace={traced}: printed metrics differ from BENCHMARK.json"
            );
            for (name, m) in metrics {
                let unit = m.get("unit").unwrap().as_str().unwrap();
                let declared_unit = declared
                    .get(if traced { "per_layer" } else { "end_to_end" })
                    .unwrap()
                    .as_array()
                    .iter()
                    .find(|e| e.get("name").unwrap().as_str() == Some(name))
                    .and_then(|e| e.get("unit").unwrap().as_str());
                assert_eq!(Some(unit), declared_unit, "{name}: unit");
                let value = m.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite(), "{name} is not finite");
                if !traced {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
            if traced {
                let trace = trace_file(workload);
                let spans = parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
                assert!(!spans.as_array().is_empty(), "{}", trace.display());
                let first = &spans.as_array()[0];
                for key in ["id", "parent", "stmt", "name", "start_ns", "end_ns"] {
                    assert!(first.get(key).is_some(), "span lacks '{key}'");
                }
            }
        }
    }
}

/// `<target dir>/benchmark/trace-<workload>.json`, beside the binary's
/// profile directory.
fn trace_file(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_snapshot_benchmark"))
        .parent()
        .and_then(Path::parent)
        .expect("binary lives in <target>/<profile>/")
        .join("benchmark")
        .join(format!("trace-{workload}.json"))
}
