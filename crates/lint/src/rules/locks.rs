//! Rule `lock_order`: every lock is a declared `Named`/`NamedRw`.
//!
//! `snapshot_obs::lock::{Named, NamedRw}` own a `Mutex`/`RwLock` together
//! with its declared name and expose only the poison-recovering,
//! rank-tracked accessors, so *how* a lock is taken is the type's business.
//! What the type cannot see is the workspace as a whole; this rule checks
//! the declarations against `docs/lock_order.md` (the table the runtime
//! tracker embeds):
//!
//! - outside test code, the identifiers `Mutex` and `RwLock` appear only in
//!   `crates/obs/src/lock.rs` — any other mention is a lock the tracker
//!   would never see;
//! - every `Named::new("name", ..)` / `NamedRw::new("name", ..)` names a
//!   row of the table, with a literal;
//! - every row has exactly one constructor (both directions, like
//!   `metric_hygiene`: an undeclared lock fails, and so does a stale row).
//!
//! The *order* itself — no acquisition at or below a rank already held —
//! is enforced at run time by the debug-build tracker in
//! `snapshot_obs::lock`, which sees every acquisition of every test run,
//! across function boundaries.

use crate::lexer::{Tok, Token};
use crate::rules::Finding;
use crate::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

pub const RULE: &str = "lock_order";

const DOC: &str = "docs/lock_order.md";

/// The one file allowed to name the raw lock types: the wrappers' home.
const LOCK_IMPL: &str = "crates/obs/src/lock.rs";

/// Parses the rank table out of `docs/lock_order.md`: rows shaped
/// `| <rank> | `name` | ... |`, as `(name, line)`.
pub fn declared_rows(doc: &str) -> Vec<(String, u32)> {
    let mut rows = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 3 || cells[1].parse::<usize>().is_err() {
            continue;
        }
        let name = cells[2].trim_matches('`');
        if !name.is_empty() {
            rows.push((name.to_string(), idx as u32 + 1));
        }
    }
    rows
}

pub fn check(root: &Path, files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut finding = |file: &str, line: u32, message: String| {
        out.push(Finding {
            file: file.to_string(),
            line,
            rule: RULE,
            message,
        })
    };
    let rows = match std::fs::read_to_string(root.join(DOC)) {
        Ok(doc) => declared_rows(&doc),
        Err(e) => return finding(DOC, 1, format!("cannot read the declared lock order: {e}")),
    };
    if rows.is_empty() {
        let shape = "no rank table rows found (expected `| <rank> | `name` | ... |`)";
        return finding(DOC, 1, shape.to_string());
    }

    // Name → where its one constructor was seen.
    let mut constructed: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for file in files {
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            let Tok::Ident(id) = &t.tok else { continue };
            if t.in_test {
                continue;
            }
            match id.as_str() {
                "Mutex" | "RwLock" if !file.rel_path.ends_with(LOCK_IMPL) => finding(
                    &file.rel_path,
                    t.line,
                    format!(
                        "raw `{id}` outside {LOCK_IMPL}: declare the lock in {DOC} and \
                         hold it in a `snapshot_obs::lock::Named`/`NamedRw`"
                    ),
                ),
                "Named" | "NamedRw" if is_constructor_call(toks, i) => {
                    let Some(Tok::Str(name)) = toks.get(i + 5).map(|t| &t.tok) else {
                        finding(
                            &file.rel_path,
                            t.line,
                            format!("`{id}::new(..)` with a non-literal lock name"),
                        );
                        continue;
                    };
                    let Some((row, _)) = rows.iter().find(|(row, _)| row == name) else {
                        finding(
                            &file.rel_path,
                            t.line,
                            format!("lock `{name}` is not declared in {DOC}"),
                        );
                        continue;
                    };
                    if let Some((first_file, first_line)) = constructed.get(row.as_str()) {
                        finding(
                            &file.rel_path,
                            t.line,
                            format!(
                                "lock `{name}` is already constructed at \
                                 {first_file}:{first_line}; one row, one lock"
                            ),
                        );
                    } else {
                        constructed.insert(row, (&file.rel_path, t.line));
                    }
                }
                _ => {}
            }
        }
    }
    for (name, line) in &rows {
        if !constructed.contains_key(name.as_str()) {
            finding(
                DOC,
                *line,
                format!("declared lock `{name}` is constructed nowhere in the source tree"),
            );
        }
    }
}

/// `Named :: new (` starting at the type ident `at`.
fn is_constructor_call(toks: &[Token], at: usize) -> bool {
    let next = |k: usize| toks.get(at + k).map(|t| &t.tok);
    next(1) == Some(&Tok::Punct(':'))
        && next(2) == Some(&Tok::Punct(':'))
        && matches!(next(3), Some(Tok::Ident(m)) if m == "new")
        && next(4) == Some(&Tok::Punct('('))
}
