//! `snapshot_lint`: workspace-invariant static analysis.
//!
//! The workspace has invariants `rustc` and `clippy` cannot see — recovery
//! decoders must never panic, every lock must be a declared row of
//! `docs/lock_order.md`, long-running executor loops must poll the
//! cancellation token, and metric names must follow the naming scheme and
//! stay in sync with `docs/metrics.md`. This crate enforces them with a
//! purpose-built lexer ([`lexer`]) and a set of token-level rules
//! ([`rules`]), run over the workspace's own sources by
//! `cargo run -p snapshot_lint` (a required CI gate; see `docs/lint.md`).
//!
//! Rules are deliberately syntactic: no type information, no macro
//! expansion. That keeps them fast, dependency-free, and predictable — and
//! it means every rule ships with an escape hatch
//! (`// lint:allow(rule) reason`) for the cases the syntax-level view gets
//! wrong. The escape hatch is part of the design: an allow comment is a
//! reviewable artifact, a silent false negative is not.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::Finding;

use std::fs;
use std::path::{Path, PathBuf};

/// One workspace source file, lexed and ready for rule checking.
pub struct SourceFile {
    /// Path relative to the scan root, always with `/` separators.
    pub rel_path: String,
    pub lexed: lexer::LexedFile,
}

/// Collects and lexes every Rust source under `root` that the rules cover:
/// `crates/*/src/**/*.rs` plus the root package's `src/**/*.rs`. Crate
/// `tests/`, `benches/`, `shims/`, and anything under a `fixtures/`
/// directory are out of scope (integration tests and benches may panic and
/// poll nothing; fixtures are deliberately full of violations).
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries =
            fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    if root.join("src").is_dir() {
        dirs.push(root.join("src"));
    }
    if dirs.is_empty() {
        return Err(format!("no crate sources found under {}", root.display()));
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in dirs {
        walk(&dir, &mut files)?;
    }
    files.sort();

    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>();
        if rel.iter().any(|c| c == "fixtures") {
            continue;
        }
        let rel_path = rel.join("/");
        let src = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.push(SourceFile {
            rel_path,
            lexed: lexer::lex(&src),
        });
    }
    Ok(out)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Runs every rule over the workspace at `root` and returns the surviving
/// findings (allow comments already applied), sorted by file then line.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let files = collect_sources(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    for file in &files {
        rules::panic_freedom::check(file, &mut findings);
        rules::cancellation::check(file, &mut findings);
    }
    rules::locks::check(root, &files, &mut findings);
    rules::metrics::check(root, &files, &mut findings);

    findings.retain(|f| {
        !files
            .iter()
            .any(|s| s.rel_path == f.file && s.lexed.allowed(f.rule, f.line))
    });
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Renders findings as a JSON array (stable key order, no dependencies).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
