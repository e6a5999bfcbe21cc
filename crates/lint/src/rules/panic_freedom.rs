//! Rule `panic_freedom`: recovery and wire-protocol code must be total.
//!
//! The WAL decode path runs against whatever bytes survived a crash, the
//! recovery driver replays whatever statements that yields, and the
//! server's frame parser runs against whatever bytes a client sent. A
//! panic in any of them turns "corrupt input" into "database won't start"
//! or "connection thread dies without a response". Inside the zone files, any
//! non-test use of `.unwrap()` / `.expect(..)`, the panicking macros, or
//! `[...]` indexing on a value is a finding; fallible alternatives
//! (`get`, `strip_prefix`, `try_into`, pattern matching) always exist.
//!
//! `unwrap_or`, `unwrap_or_else`, `unwrap_or_default` are distinct
//! identifiers and therefore (correctly) not matched.

use crate::lexer::Tok;
use crate::rules::Finding;
use crate::SourceFile;

pub const RULE: &str = "panic_freedom";

/// Files where panics are forbidden (suffix-matched against the
/// scan-root-relative path, so fixture trees exercise the same list).
const ZONES: &[&str] = &[
    "crates/wal/src/codec.rs",
    "crates/wal/src/log.rs",
    "crates/wal/src/persistence.rs",
    "crates/wal/src/checkpoint.rs",
    "crates/wal/src/dump.rs",
    "crates/session/src/shared.rs",
    "crates/server/src/protocol.rs",
];

/// Keywords that legitimately precede `[` (array literals, not indexing).
const BEFORE_ARRAY_LITERAL: &[&str] = &[
    "in", "return", "if", "else", "match", "loop", "while", "for", "let", "mut", "ref", "move",
    "break", "continue", "as", "where", "do",
];

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !ZONES.iter().any(|z| file.rel_path.ends_with(z)) {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match &t.tok {
            Tok::Ident(id)
                if (id == "unwrap" || id == "expect")
                    && i > 0
                    && toks[i - 1].tok == Tok::Punct('.') =>
            {
                out.push(Finding {
                    file: file.rel_path.clone(),
                    line: t.line,
                    rule: RULE,
                    message: format!(
                        "`.{id}()` in a panic-freedom zone; decode paths must be total \
                         (use `get`/`ok_or`/`match`)"
                    ),
                });
            }
            Tok::Ident(id)
                if matches!(
                    id.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && toks.get(i + 1).map(|n| &n.tok) == Some(&Tok::Punct('!')) =>
            {
                out.push(Finding {
                    file: file.rel_path.clone(),
                    line: t.line,
                    rule: RULE,
                    message: format!("`{id}!` in a panic-freedom zone"),
                });
            }
            Tok::Punct('[') if indexes_a_value(file, i) => {
                out.push(Finding {
                    file: file.rel_path.clone(),
                    line: t.line,
                    rule: RULE,
                    message: "slice/array indexing can panic on corrupt input; use `.get(..)`"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// True when the `[` at `i` indexes a value: it directly follows an
/// expression-ending token (identifier, `)`, `]`, `?`) rather than opening
/// an array literal, attribute, or type.
fn indexes_a_value(file: &SourceFile, i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| file.lexed.tokens.get(p)) else {
        return false;
    };
    match &prev.tok {
        Tok::Ident(id) => !BEFORE_ARRAY_LITERAL.contains(&id.as_str()),
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
        _ => false,
    }
}
