//! CLI for `snapshot_lint`: `cargo run -p snapshot_lint [-- --json] [--root PATH]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. CI runs this as
//! a required gate (see `.github/workflows/ci.yml` and `docs/lint.md`).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "snapshot_lint: workspace invariant checks (see docs/lint.md)\n\
                     \n\
                     usage: cargo run -p snapshot_lint [-- OPTIONS]\n\
                       --json        machine-readable output\n\
                       --root PATH   scan PATH instead of this workspace"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace this binary was built from (two levels up
    // from crates/lint).
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or(manifest)
    });

    let findings = match snapshot_lint::run(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("snapshot_lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", snapshot_lint::to_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            println!("snapshot_lint: clean");
        } else {
            println!(
                "snapshot_lint: {} finding(s) — fix them or add `// lint:allow(rule) reason`",
                findings.len()
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
