//! Rule `metric_hygiene`: metric names are snake_case, prefixed, unique
//! per kind, and documented.
//!
//! Registration sites are recognized syntactically:
//!
//! - `.counter("name")` / `.gauge(..)` / `.histogram(..)` /
//!   `.histogram_with(..)` / `.info(..)` with a literal first argument;
//! - the same with `&format!("engine_{op}_rows_total")` — the `{..}` hole
//!   becomes a wildcard, matched against `<..>` placeholders in the docs.
//!
//! Checks: names are `[a-z][a-z0-9_]*` with a known subsystem prefix; a
//! name is registered under at most one metric kind workspace-wide; every
//! registered name appears in the `docs/metrics.md` catalog and every
//! cataloged name resolves to a registration (both directions, so the doc
//! can neither rot nor pad); and every metric-shaped identifier cited in
//! backticks anywhere in `README.md` or `docs/*.md` resolves to a real
//! registration. A non-literal name outside the registry implementation
//! (`crates/obs/src/metrics.rs`, which hosts the forwarding internals) is
//! itself a finding: dynamic names defeat the doc cross-check.

use crate::lexer::Tok;
use crate::rules::Finding;
use crate::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

pub const RULE: &str = "metric_hygiene";

/// Registration methods on the registry (and their metric kind).
const METHODS: &[(&str, &str)] = &[
    ("counter", "counter"),
    ("gauge", "gauge"),
    ("histogram", "histogram"),
    ("histogram_with", "histogram"),
    ("info", "info"),
];

/// Allowed name prefixes, one per subsystem.
const PREFIXES: &[&str] = &[
    "snapshot_",
    "session_",
    "engine_",
    "txn_",
    "wal_",
    "index_",
    "server_",
    "statements_",
    "statement_",
    "slow_log_",
    "stmt_stats_",
];

/// Suffixes that make a backticked doc token "metric-shaped" for the
/// citation check.
const CITATION_SUFFIXES: &[&str] = &["_total", "_seconds", "_info", "_active", "_bytes"];

/// The registry implementation: the one place non-literal names are fine
/// (its internals forward already-validated names).
const REGISTRY_IMPL: &str = "crates/obs/src/metrics.rs";

struct Registration {
    /// Name with `{..}` holes normalized to the wildcard byte `*`.
    pattern: String,
    kind: &'static str,
    file: String,
    line: u32,
}

pub fn check(root: &Path, files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut regs: Vec<Registration> = Vec::new();
    for file in files {
        collect_registrations(file, &mut regs, out);
    }

    // Shape and prefix checks.
    for r in &regs {
        if !well_formed(&r.pattern) {
            out.push(Finding {
                file: r.file.clone(),
                line: r.line,
                rule: RULE,
                message: format!(
                    "metric name `{}` is not snake_case (`[a-z][a-z0-9_]*`)",
                    display(&r.pattern)
                ),
            });
        } else if !PREFIXES.iter().any(|p| r.pattern.starts_with(p)) {
            out.push(Finding {
                file: r.file.clone(),
                line: r.line,
                rule: RULE,
                message: format!(
                    "metric name `{}` lacks a known subsystem prefix ({})",
                    display(&r.pattern),
                    PREFIXES.join(" ")
                ),
            });
        }
    }

    // Kind uniqueness: the same name must not register as two kinds.
    let mut kinds: BTreeMap<&str, (&Registration, &'static str)> = BTreeMap::new();
    for r in &regs {
        match kinds.get(r.pattern.as_str()) {
            Some(&(first, kind)) if kind != r.kind => {
                out.push(Finding {
                    file: r.file.clone(),
                    line: r.line,
                    rule: RULE,
                    message: format!(
                        "metric `{}` registered as {} here but as {} at {}:{}",
                        display(&r.pattern),
                        r.kind,
                        kind,
                        first.file,
                        first.line
                    ),
                });
            }
            Some(_) => {}
            None => {
                kinds.insert(&r.pattern, (r, r.kind));
            }
        }
    }

    // docs/metrics.md: bidirectional cross-check.
    let doc_rel = "docs/metrics.md";
    match std::fs::read_to_string(root.join(doc_rel)) {
        Err(e) => out.push(Finding {
            file: doc_rel.to_string(),
            line: 1,
            rule: RULE,
            message: format!("cannot read the metric catalog: {e}"),
        }),
        Ok(doc) => {
            let cataloged = catalog_names(&doc);
            let mut seen: Vec<&str> = Vec::new();
            for r in &regs {
                if seen.contains(&r.pattern.as_str()) {
                    continue;
                }
                seen.push(&r.pattern);
                if !cataloged
                    .iter()
                    .any(|(n, _)| n == &r.pattern || patterns_match(n, &r.pattern))
                {
                    out.push(Finding {
                        file: r.file.clone(),
                        line: r.line,
                        rule: RULE,
                        message: format!(
                            "metric `{}` is not cataloged in {doc_rel}",
                            display(&r.pattern)
                        ),
                    });
                }
            }
            for (name, line) in &cataloged {
                if !regs.iter().any(|r| patterns_match(&r.pattern, name)) {
                    out.push(Finding {
                        file: doc_rel.to_string(),
                        line: *line,
                        rule: RULE,
                        message: format!(
                            "cataloged metric `{}` has no registration in the source tree",
                            display(name)
                        ),
                    });
                }
            }
        }
    }

    // Citation check: metric-shaped backticked tokens in prose must exist.
    for doc_rel in doc_files(root) {
        let Ok(text) = std::fs::read_to_string(root.join(&doc_rel)) else {
            continue;
        };
        for (token, line) in backticked_tokens(&text) {
            let normalized = normalize(&token);
            let shaped = PREFIXES.iter().any(|p| normalized.starts_with(p))
                && CITATION_SUFFIXES.iter().any(|s| normalized.ends_with(s));
            if !shaped {
                continue;
            }
            if !regs.iter().any(|r| patterns_match(&r.pattern, &normalized)) {
                out.push(Finding {
                    file: doc_rel.clone(),
                    line,
                    rule: RULE,
                    message: format!("`{token}` looks like a metric name but nothing registers it"),
                });
            }
        }
    }
}

fn collect_registrations(file: &SourceFile, regs: &mut Vec<Registration>, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let in_registry_impl = file.rel_path.ends_with(REGISTRY_IMPL);
    for (i, t) in toks.iter().enumerate() {
        // `.method("name", ..)` and the format! variant.
        if t.in_test || t.tok != Tok::Punct('.') {
            continue;
        }
        let Some(Tok::Ident(method)) = toks.get(i + 1).map(|t| &t.tok) else {
            continue;
        };
        let Some(&(_, kind)) = METHODS.iter().find(|(m, _)| m == method) else {
            continue;
        };
        if toks.get(i + 2).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
            continue;
        }
        match name_argument(toks, i + 3) {
            Some((pattern, line)) => regs.push(Registration {
                pattern,
                kind,
                file: file.rel_path.clone(),
                line,
            }),
            None if in_registry_impl => {} // forwarding internals
            None => out.push(Finding {
                file: file.rel_path.clone(),
                line: t.line,
                rule: RULE,
                message: format!(
                    "`.{method}(..)` with a non-literal metric name; dynamic names \
                     defeat the docs/metrics.md cross-check (use a literal or \
                     `format!` with literal skeleton)"
                ),
            }),
        }
    }
}

/// Reads the metric-name argument starting at token `i`: a string literal,
/// or `&format!("...")` whose holes become wildcards. `None` = non-literal.
fn name_argument(toks: &[crate::lexer::Token], i: usize) -> Option<(String, u32)> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Str(s)) => Some((normalize_holes(s), toks[i].line)),
        Some(Tok::Punct('&')) => {
            if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "format")
                && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct('!'))
                && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct('('))
            {
                if let Some(Tok::Str(s)) = toks.get(i + 4).map(|t| &t.tok) {
                    return Some((normalize_holes(s), toks[i + 4].line));
                }
            }
            None
        }
        _ => None,
    }
}

/// `engine_{op}_rows_total` → `engine_*_rows_total`.
fn normalize_holes(s: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// `engine_<op>_rows_total` (docs notation) → `engine_*_rows_total`.
fn normalize(s: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '<' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '>' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

fn display(pattern: &str) -> String {
    pattern.replace('*', "<..>")
}

/// Snake-case with optional wildcard segments.
fn well_formed(pattern: &str) -> bool {
    !pattern.is_empty()
        && pattern.starts_with(|c: char| c.is_ascii_lowercase())
        && pattern
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '*')
        && !pattern.contains("__")
}

/// True when `name` (a literal or another pattern) is described by
/// `pattern`. Two patterns match only if identical; a literal matches a
/// pattern if the `*`-separated segments appear in order at the ends.
fn patterns_match(pattern: &str, name: &str) -> bool {
    if pattern == name {
        return true;
    }
    if !pattern.contains('*') || name.contains('*') {
        return false;
    }
    let segments: Vec<&str> = pattern.split('*').collect();
    let (first, rest) = segments.split_first().unwrap_or((&"", &[]));
    let (last, middle) = rest.split_last().unwrap_or((&"", &[]));
    if !name.starts_with(first) || !name.ends_with(last) {
        return false;
    }
    if name.len() < first.len() + last.len() {
        return false;
    }
    let mut hay = &name[first.len()..name.len() - last.len()];
    for seg in middle {
        match hay.find(seg) {
            Some(pos) => hay = &hay[pos + seg.len()..],
            None => return false,
        }
    }
    true
}

/// Extracts backticked names from the catalog's table rows (first cell).
fn catalog_names(doc: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let name_cell = cells[1];
        if let Some(name) = name_cell
            .strip_prefix('`')
            .and_then(|n| n.strip_suffix('`'))
        {
            if !name.is_empty() {
                out.push((normalize(name), idx as u32 + 1));
            }
        }
    }
    out
}

/// All backticked single-token code spans in a markdown file, with lines.
fn backticked_tokens(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let mut parts = line.split('`');
        parts.next(); // before the first backtick
        let mut inside = true;
        for part in parts {
            if inside
                && !part.is_empty()
                && part
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_<>".contains(c))
            {
                out.push((part.to_string(), idx as u32 + 1));
            }
            inside = !inside;
        }
    }
    out
}

/// `README.md` plus everything directly under `docs/`.
fn doc_files(root: &Path) -> Vec<String> {
    let mut out = vec!["README.md".to_string()];
    if let Ok(entries) = std::fs::read_dir(root.join("docs")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "md") {
                if let Some(name) = path.file_name() {
                    out.push(format!("docs/{}", name.to_string_lossy()));
                }
            }
        }
    }
    out.sort();
    out
}
