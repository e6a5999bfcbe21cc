//! Rule `cancellation`: executor loops must poll the cancel token.
//!
//! Cooperative cancellation only works if every loop that can run long
//! reaches `CancelToken::check` (directly, via a helper that checks, or
//! via an enclosing loop that checks each iteration). This rule walks every
//! `for` / `while` / `loop` in the executor, its normalisation kernels
//! (coalesce, temporal aggregate / difference) and the index join/sweep
//! kernels and demands one of:
//!
//! - the loop body (including nested calls to *local* functions, resolved
//!   to a fixpoint) contains a call to `check(..)` or to one of the known
//!   cancellation-propagating helpers;
//! - an enclosing loop in the same function is covered (the inner loop then
//!   runs at most once per checked iteration);
//! - a `// lint:allow(cancellation) reason` states why the loop is bounded.
//!
//! The rule is intraprocedural plus one level of local-call resolution; it
//! does not track closures by name. Tight bounded loops (per-row column
//! walks, key-arity loops) are exactly what the allow comment is for.

use crate::lexer::Tok;
use crate::rules::Finding;
use crate::SourceFile;
use std::collections::BTreeSet;
use std::ops::Range;

pub const RULE: &str = "cancellation";

const ZONES: &[&str] = &[
    "crates/engine/src/exec.rs",
    "crates/engine/src/coalesce.rs",
    "crates/engine/src/temporal.rs",
    "crates/index/src/join.rs",
    "crates/index/src/parallel.rs",
];

/// Calls that count as reaching the token: `check` itself, the sweep
/// kernels' fallible per-pair callback (`emit` — its error is how the
/// caller's check aborts the sweep), and the fallible kernels that run it.
/// The infallible `sweep_join` / `sweep_join_presorted` are deliberately
/// absent: their callback cannot fail, so they never poll the token.
const PROPAGATORS: &[&str] = &[
    "check",
    "emit",
    "try_sweep_join_presorted",
    "try_parallel_sweep_join_presorted",
];

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !ZONES.iter().any(|z| file.rel_path.ends_with(z)) {
        return;
    }
    let toks = &file.lexed.tokens;

    // Fixpoint over local functions: a function "checks" if its body calls
    // a propagator or another local function that checks.
    let fns = collect_fns(toks);
    let mut checking: BTreeSet<&str> = BTreeSet::new();
    for (name, body) in &fns {
        if calls_any(toks, body.clone(), PROPAGATORS) {
            checking.insert(name.as_str());
        }
    }
    loop {
        let names: Vec<&str> = checking.iter().copied().collect();
        let mut grew = false;
        for (name, body) in &fns {
            if !checking.contains(name.as_str()) && calls_any(toks, body.clone(), &names) {
                checking.insert(name.as_str());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let checking: Vec<&str> = checking.into_iter().collect();

    // Walk loops outermost-first; a covered ancestor covers its children.
    let mut stack: Vec<(usize, bool)> = Vec::new(); // (body end, covered)
    for lp in collect_loops(toks) {
        while stack.last().is_some_and(|&(end, _)| end <= lp.kw_index) {
            stack.pop();
        }
        let inherited = stack.iter().any(|&(_, covered)| covered);
        let own = calls_any(toks, lp.body.clone(), PROPAGATORS)
            || calls_any(toks, lp.body.clone(), &checking)
            || file.lexed.allowed(RULE, lp.line);
        if !own && !inherited {
            out.push(Finding {
                file: file.rel_path.clone(),
                line: lp.line,
                rule: RULE,
                message: format!(
                    "`{}` loop never reaches CancelToken::check; poll the token or add \
                     `// lint:allow({RULE}) <why bounded>`",
                    lp.keyword
                ),
            });
        }
        stack.push((lp.body.end, own || inherited));
    }
}

struct Loop {
    keyword: &'static str,
    kw_index: usize,
    line: u32,
    body: Range<usize>,
}

/// True when any token in `range` is a call `name(` with `name` in `names`.
fn calls_any(toks: &[crate::lexer::Token], range: Range<usize>, names: &[&str]) -> bool {
    let end = range.end.min(toks.len());
    for i in range.start..end {
        if let Tok::Ident(id) = &toks[i].tok {
            if names.contains(&id.as_str())
                && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
            {
                return true;
            }
        }
    }
    false
}

/// Finds `fn name ... { body }` items and returns their body token ranges.
fn collect_fns(toks: &[crate::lexer::Token]) -> Vec<(String, Range<usize>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].tok == Tok::Ident("fn".into()) {
            if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                // Scan the signature for the body `{` (or `;` for decls).
                let mut j = i + 2;
                let mut depth = 0i32;
                let body_open = loop {
                    match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                        Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                        Some(Tok::Punct('{')) if depth == 0 => break Some(j),
                        Some(Tok::Punct(';')) if depth == 0 => break None,
                        None => break None,
                        _ => {}
                    }
                    j += 1;
                };
                if let Some(open) = body_open {
                    let close = matching_brace(toks, open);
                    out.push((name.clone(), open + 1..close));
                }
            }
        }
        i += 1;
    }
    out
}

/// Finds every `for`/`while`/`loop` outside test code, in source order.
fn collect_loops(toks: &[crate::lexer::Token]) -> Vec<Loop> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Tok::Ident(id) = &t.tok else { continue };
        let keyword: &'static str = match id.as_str() {
            "for" => "for",
            "while" => "while",
            "loop" => "loop",
            _ => continue,
        };
        // Find the body `{` at group depth 0 (skipping closure bodies in
        // the loop header, which sit inside parens).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut saw_in = false;
        let open = loop {
            match toks.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                Some(Tok::Ident(w)) if depth == 0 && w == "in" => saw_in = true,
                Some(Tok::Punct('{')) if depth == 0 => break Some(j),
                Some(Tok::Punct(';')) if depth == 0 => break None,
                None => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        // `impl Trait for Type { .. }` also hits the `for` keyword: a real
        // for-loop always has `in` between the pattern and the body.
        if keyword == "for" && !saw_in {
            continue;
        }
        out.push(Loop {
            keyword,
            kw_index: i,
            line: t.line,
            body: open + 1..matching_brace(toks, open),
        });
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or EOF).
fn matching_brace(toks: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}
