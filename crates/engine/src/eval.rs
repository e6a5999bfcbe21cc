//! Scalar expression evaluation with SQL three-valued logic.

use algebra::{BinOp, Expr};
use std::cmp::Ordering;
use std::str::Chars;
use storage::{Row, Value};

/// What an expression reads its columns from: a [`Row`], or a [`Pair`]
/// of rows standing in for their concatenation.
pub trait Columns {
    /// The value at column `i`.
    fn col(&self, i: usize) -> &Value;
}

impl Columns for Row {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        self.get(i)
    }
}

/// A join candidate `(left, right)` viewed as `left ++ right` without
/// building it: column `i` is `left[i]`, or `right[i - left.arity()]`.
#[derive(Debug, Clone, Copy)]
pub struct Pair<'a>(pub &'a Row, pub &'a Row);

impl Columns for Pair<'_> {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        match i.checked_sub(self.0.arity()) {
            None => self.0.get(i),
            Some(j) => self.1.get(j),
        }
    }
}

/// Evaluates an expression against a row. NULL propagates through
/// arithmetic and comparisons; `AND`/`OR` use Kleene three-valued logic
/// (with "unknown" represented as [`Value::Null`]).
pub fn eval_expr<C: Columns>(expr: &Expr, row: &C) -> Value {
    match expr {
        Expr::Col(i) => row.col(*i).clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, row);
            // Short-circuit logical operators (three-valued).
            match op {
                BinOp::And => {
                    if l == Value::Bool(false) {
                        return Value::Bool(false);
                    }
                    let r = eval_expr(right, row);
                    return match (l, r) {
                        (_, Value::Bool(false)) => Value::Bool(false),
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        _ => Value::Null,
                    };
                }
                BinOp::Or => {
                    if l == Value::Bool(true) {
                        return Value::Bool(true);
                    }
                    let r = eval_expr(right, row);
                    return match (l, r) {
                        (_, Value::Bool(true)) => Value::Bool(true),
                        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    };
                }
                _ => {}
            }
            let r = eval_expr(right, row);
            if op.is_comparison() {
                return truth(compare(*op, &l, &r));
            }
            arithmetic(*op, &l, &r)
        }
        Expr::Not(e) => match eval_expr(e, row) {
            Value::Bool(b) => Value::Bool(!b),
            _ => Value::Null,
        },
        Expr::IsNull { expr, negated } => {
            let isnull = eval_expr(expr, row).is_null();
            Value::Bool(isnull != *negated)
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                if eval_expr(cond, row) == Value::Bool(true) {
                    return eval_expr(result, row);
                }
            }
            else_expr
                .as_ref()
                .map(|e| eval_expr(e, row))
                .unwrap_or(Value::Null)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match eval_expr(expr, row) {
            Value::Str(s) => Value::Bool(like_match(pattern, &s) != *negated),
            _ => Value::Null,
        },
        Expr::Least(es) => fold_extreme(es, row, Ordering::Less),
        Expr::Greatest(es) => fold_extreme(es, row, Ordering::Greater),
    }
}

/// Evaluates a predicate: a row passes only when the expression evaluates to
/// `TRUE` (NULL/unknown filters the row out, as in SQL `WHERE`).
#[inline]
pub fn eval_predicate<C: Columns>(expr: &Expr, row: &C) -> bool {
    eval_expr(expr, row) == Value::Bool(true)
}

/// The comparison `l op r` under SQL semantics: `None` (unknown) when
/// [`Value::sql_cmp`] has no answer. The one op → [`Ordering`] table, read
/// by [`eval_expr`] on evaluated operands and by [`Prepared`] on borrowed
/// ones.
#[inline]
fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    let ord = order(l, r)?;
    Some(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Neq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Leq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Geq => ord != Ordering::Less,
        _ => unreachable!("non-comparison op {op} reached compare"),
    })
}

/// [`Value::sql_cmp`], with the pair every period endpoint and most keys
/// are — two `Int`s — compared in line.
#[inline]
fn order(l: &Value, r: &Value) -> Option<Ordering> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        _ => l.sql_cmp(r),
    }
}

/// A three-valued truth as a [`Value`] (unknown is NULL).
#[inline]
fn truth(t: Option<bool>) -> Value {
    t.map_or(Value::Null, Value::Bool)
}

/// The top-level `AND` chain of `e`, flattened in order (`e` alone when it
/// is not an `AND`).
pub(crate) fn conjuncts(e: &Expr) -> Vec<&Expr> {
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

/// An expression prepared once for evaluation on many rows — what an
/// operator builds per invocation and calls per row or per join pair.
///
/// [`eval_expr`] stays the definition; this is a specialisation of it for
/// the shapes every rewritten query is made of. The top-level `AND` chain is
/// flattened into a list [`Prepared::holds`] tests left to right, stopping at
/// the first conjunct that is not TRUE (under `WHERE` that is Kleene `AND`:
/// the whole is TRUE only if every conjunct is). A conjunct, or a value,
/// that is a column, a literal, a comparison of those, or a two-argument
/// `LEAST`/`GREATEST` of those reads the row's values where they sit —
/// nothing is cloned but the result. Anything else goes to [`eval_expr`].
#[derive(Debug)]
pub struct Prepared<'e> {
    expr: &'e Expr,
    /// `expr`'s top-level `AND` chain in order; `expr` alone when it is
    /// not an `AND`.
    conjuncts: Vec<Step<'e>>,
}

/// A column or a literal: an operand that can be lent.
#[derive(Debug, Clone, Copy)]
enum Operand<'e> {
    Col(usize),
    Lit(&'e Value),
}

impl<'e> Operand<'e> {
    fn of(e: &'e Expr) -> Option<Self> {
        match e {
            Expr::Col(i) => Some(Operand::Col(*i)),
            Expr::Lit(v) => Some(Operand::Lit(v)),
            _ => None,
        }
    }

    #[inline]
    fn get<'r, C: Columns>(self, row: &'r C) -> &'r Value
    where
        'e: 'r,
    {
        match self {
            Operand::Col(i) => row.col(i),
            Operand::Lit(v) => v,
        }
    }
}

/// One prepared (sub)expression.
#[derive(Debug)]
enum Step<'e> {
    Operand(Operand<'e>),
    Compare(BinOp, Operand<'e>, Operand<'e>),
    /// `LEAST` (`Less`) / `GREATEST` (`Greater`) of two operands.
    Extreme(Ordering, Operand<'e>, Operand<'e>),
    Other(&'e Expr),
}

impl<'e> Step<'e> {
    fn of(e: &'e Expr) -> Self {
        let extreme = |keep, es: &'e [Expr]| match es {
            [a, b] => Some(Step::Extreme(keep, Operand::of(a)?, Operand::of(b)?)),
            _ => None,
        };
        match e {
            Expr::Col(_) | Expr::Lit(_) => Operand::of(e).map(Step::Operand),
            Expr::Binary { op, left, right } if op.is_comparison() => Operand::of(left)
                .zip(Operand::of(right))
                .map(|(l, r)| Step::Compare(*op, l, r)),
            Expr::Least(es) => extreme(Ordering::Less, es),
            Expr::Greatest(es) => extreme(Ordering::Greater, es),
            _ => None,
        }
        .unwrap_or(Step::Other(e))
    }

    #[inline]
    fn holds<C: Columns>(&self, row: &C) -> bool {
        match self {
            Step::Compare(op, l, r) => compare(*op, l.get(row), r.get(row)) == Some(true),
            Step::Other(e) => eval_predicate(e, row),
            Step::Operand(_) | Step::Extreme(..) => self.value(row) == Value::Bool(true),
        }
    }

    #[inline]
    fn value<C: Columns>(&self, row: &C) -> Value {
        match self {
            Step::Operand(o) => o.get(row).clone(),
            Step::Compare(op, l, r) => truth(compare(*op, l.get(row), r.get(row))),
            Step::Extreme(keep, a, b) => {
                let (a, b) = (a.get(row), b.get(row));
                if displaces(b, a, *keep) { b } else { a }.clone()
            }
            Step::Other(e) => eval_expr(e, row),
        }
    }
}

impl<'e> Prepared<'e> {
    /// Prepares `expr`; the cost is linear in its size.
    pub fn new(expr: &'e Expr) -> Self {
        Prepared {
            expr,
            conjuncts: conjuncts(expr).into_iter().map(Step::of).collect(),
        }
    }

    /// [`eval_predicate`] of the expression on `row`.
    #[inline]
    pub fn holds<C: Columns>(&self, row: &C) -> bool {
        // As long as the predicate is, not as the input: nothing to poll.
        self.conjuncts.iter().all(|c| c.holds(row))
    }

    /// [`eval_expr`] of the expression on `row`.
    #[inline]
    pub fn value<C: Columns>(&self, row: &C) -> Value {
        match &self.conjuncts[..] {
            [only] => only.value(row),
            _ => eval_expr(self.expr, row),
        }
    }
}

/// `Int` arithmetic is checked: a result outside `i64` is NULL, like `x / 0`
/// (`checked_div` refuses both that and `i64::MIN / -1`).
fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinOp::Add => a.checked_add(*b),
            BinOp::Sub => a.checked_sub(*b),
            BinOp::Mul => a.checked_mul(*b),
            BinOp::Div => a.checked_div(*b),
            _ => unreachable!("non-arithmetic op {op} reached arithmetic"),
        }
        .map_or(Value::Null, Value::Int),
        _ => {
            let (Some(a), Some(b)) = (l.as_double(), r.as_double()) else {
                return Value::Null;
            };
            match op {
                BinOp::Add => Value::Double(a + b),
                BinOp::Sub => Value::Double(a - b),
                BinOp::Mul => Value::Double(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
                _ => unreachable!("non-arithmetic op {op} reached arithmetic"),
            }
        }
    }
}

fn fold_extreme<C: Columns>(es: &[Expr], row: &C, keep: Ordering) -> Value {
    let mut best = Value::Null;
    for e in es {
        let v = eval_expr(e, row);
        if displaces(&v, &best, keep) {
            best = v;
        }
    }
    best
}

/// Whether `v` replaces `best` as the running `LEAST` (`keep` = `Less`) /
/// `GREATEST` (`Greater`). Postgres semantics: NULL arguments are ignored,
/// so all-NULL gives NULL; an incomparable later argument never wins.
#[inline]
fn displaces(v: &Value, best: &Value, keep: Ordering) -> bool {
    !v.is_null() && (best.is_null() || order(v, best) == Some(keep))
}

/// SQL `LIKE` pattern matching: `%` matches any sequence, `_` any single
/// character. Case-sensitive, no escape support (not needed by the
/// workloads). Walks both strings where they are — nothing is decoded into
/// a buffer per row.
pub fn like_match(pattern: &str, s: &str) -> bool {
    // Classic two-pointer wildcard matcher with backtracking to the last %.
    let (mut p, mut t) = (pattern.chars(), s.chars());
    // The pattern behind the last `%` and the text that `%` has not
    // swallowed yet.
    let mut star: Option<(Chars<'_>, Chars<'_>)> = None;
    loop {
        let (mut p_rest, mut t_rest) = (p.clone(), t.clone());
        match (p_rest.next(), t_rest.next()) {
            (Some('%'), _) => {
                star = Some((p_rest.clone(), t.clone()));
                p = p_rest;
            }
            (Some(pc), Some(tc)) if pc == '_' || pc == tc => (p, t) = (p_rest, t_rest),
            (None, None) => return true,
            _ => {
                // The last `%` swallows one more character; retry after it.
                let Some((after, text)) = &mut star else {
                    return false;
                };
                if text.next().is_none() {
                    return false;
                }
                (p, t) = (after.clone(), text.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    #[test]
    fn comparisons() {
        let r = row![5, "abc"];
        assert_eq!(
            eval_expr(&Expr::col(0).eq(Expr::lit(5)), &r),
            Value::Bool(true)
        );
        assert_eq!(
            eval_expr(&Expr::col(0).lt(Expr::lit(3)), &r),
            Value::Bool(false)
        );
        assert_eq!(
            eval_expr(&Expr::col(1).eq(Expr::lit("abc")), &r),
            Value::Bool(true)
        );
    }

    #[test]
    fn null_propagation() {
        let r = Row::new(vec![Value::Null, Value::Int(1)]);
        assert_eq!(eval_expr(&Expr::col(0).eq(Expr::lit(1)), &r), Value::Null);
        assert_eq!(
            eval_expr(&Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)), &r),
            Value::Null
        );
        assert!(!eval_predicate(&Expr::col(0).eq(Expr::lit(1)), &r));
    }

    #[test]
    fn three_valued_logic() {
        let r = Row::new(vec![Value::Null]);
        let null_cmp = Expr::col(0).eq(Expr::lit(1)); // unknown
                                                      // false AND unknown = false
        let e = Expr::binary(BinOp::And, Expr::lit(false), null_cmp.clone());
        assert_eq!(eval_expr(&e, &r), Value::Bool(false));
        // true OR unknown = true
        let e = Expr::binary(BinOp::Or, Expr::lit(true), null_cmp.clone());
        assert_eq!(eval_expr(&e, &r), Value::Bool(true));
        // true AND unknown = unknown
        let e = Expr::binary(BinOp::And, Expr::lit(true), null_cmp.clone());
        assert_eq!(eval_expr(&e, &r), Value::Null);
        // NOT unknown = unknown
        assert_eq!(eval_expr(&Expr::Not(Box::new(null_cmp)), &r), Value::Null);
    }

    #[test]
    fn is_null() {
        let r = Row::new(vec![Value::Null, Value::Int(1)]);
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(0)),
            negated: false,
        };
        assert_eq!(eval_expr(&e, &r), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(1)),
            negated: true,
        };
        assert_eq!(eval_expr(&e, &r), Value::Bool(true));
    }

    #[test]
    fn arithmetic_types() {
        let r = row![7, 2, 1.5];
        let div = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(1));
        assert_eq!(eval_expr(&div, &r), Value::Int(3)); // integer division
        let mixed = Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(2));
        assert_eq!(eval_expr(&mixed, &r), Value::Double(10.5));
        let div0 = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(0));
        assert_eq!(eval_expr(&div0, &r), Value::Null);
    }

    /// `Int` results outside `i64` are NULL — not a wrapped number (release)
    /// or a panic (debug; for `MIN / -1`, release too).
    #[test]
    fn int_arithmetic_is_null_on_overflow() {
        use BinOp::{Add, Div, Mul, Sub};
        let (min, max) = (i64::MIN, i64::MAX);
        let cases = [
            (Add, max, 1, None),
            (Add, min, -1, None),
            (Add, max, min, Some(-1)),
            (Add, max - 1, 1, Some(max)),
            (Sub, min, 1, None),
            (Sub, max, -1, None),
            (Sub, 0, min, None),
            (Sub, -1, max, Some(min)),
            (Mul, max, 2, None),
            (Mul, min, -1, None),
            (Mul, min, 1, Some(min)),
            (Mul, max / 2, 2, Some(max - 1)),
            (Div, min, -1, None),
            (Div, min, 0, None),
            (Div, min, 1, Some(min)),
            (Div, max, -1, Some(-max)),
        ];
        for (op, a, b, want) in cases {
            let e = Expr::binary(op, Expr::col(0), Expr::col(1));
            let want = want.map_or(Value::Null, Value::Int);
            assert_eq!(eval_expr(&e, &row![a, b]), want, "{a} {op} {b}");
            assert_eq!(Prepared::new(&e).value(&row![a, b]), want, "{a} {op} {b}");
        }
        // The statement that used to kill its connection thread.
        let neg = |e| Expr::binary(Sub, Expr::lit(0), e);
        let e = Expr::binary(
            Div,
            Expr::binary(Sub, neg(Expr::col(0)), Expr::lit(1)),
            neg(Expr::lit(1)),
        );
        assert_eq!(eval_expr(&e, &row![max]), Value::Null);
        assert_eq!(eval_expr(&e, &row![7]), Value::Int(8));
    }

    fn agrees(e: &Expr, r: &Row) -> Value {
        let p = Prepared::new(e);
        let v = eval_expr(e, r);
        assert_eq!(p.value(r), v, "{e} on {r}");
        assert_eq!(p.holds(r), eval_predicate(e, r), "{e} on {r}");
        // The same columns read through a pair, split at every position.
        for k in 0..=r.arity() {
            let (l, rest) = r.values().split_at(k);
            let (l, rest) = (Row::new(l.to_vec()), Row::new(rest.to_vec()));
            assert_eq!(p.value(&Pair(&l, &rest)), v, "{e} on {l} ++ {rest}");
            assert_eq!(
                p.holds(&Pair(&l, &rest)),
                p.holds(r),
                "{e} on {l} ++ {rest}"
            );
        }
        v
    }

    #[test]
    fn prepared_comparisons_borrow_and_agree() {
        let big = 9_007_199_254_740_993i64; // 2^53 + 1
        let r = Row::new(vec![
            Value::Int(2),
            Value::Double(2.0),
            Value::Int(big),
            Value::Double(9_007_199_254_740_992.0),
            Value::Double(f64::NAN),
            Value::str("2"),
            Value::Null,
        ]);
        let cmp = |op, l, r| Expr::binary(op, Expr::col(l), Expr::col(r));
        assert_eq!(agrees(&cmp(BinOp::Eq, 0, 1), &r), Value::Bool(true));
        assert_eq!(agrees(&cmp(BinOp::Eq, 2, 3), &r), Value::Bool(false));
        assert_eq!(agrees(&cmp(BinOp::Gt, 2, 3), &r), Value::Bool(true));
        // NaN, a string against a number, NULL: unknown, so not TRUE — under
        // every operator, `<>` included.
        for other in [4, 5, 6] {
            for op in [
                BinOp::Eq,
                BinOp::Neq,
                BinOp::Lt,
                BinOp::Leq,
                BinOp::Gt,
                BinOp::Geq,
            ] {
                assert_eq!(agrees(&cmp(op, 0, other), &r), Value::Null);
                assert_eq!(agrees(&cmp(op, other, 0), &r), Value::Null);
            }
        }
        assert_eq!(
            agrees(&Expr::col(5).eq(Expr::lit("2")), &r),
            Value::Bool(true)
        );
        assert_eq!(
            agrees(&Expr::lit(3).lt(Expr::col(0)), &r),
            Value::Bool(false)
        );
    }

    #[test]
    fn prepared_conjunction_is_kleene_and_under_where() {
        let r = Row::new(vec![Value::Int(1), Value::Null, Value::Int(i64::MAX)]);
        let t = Expr::col(0).eq(Expr::lit(1));
        let f = Expr::col(0).eq(Expr::lit(2));
        let unknown = Expr::col(1).eq(Expr::lit(1));
        // Would overflow (to NULL) if evaluated; after a FALSE it may be
        // skipped, and either way the chain is not TRUE.
        let overflows = Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(2)).lt(Expr::lit(0));
        for (chain, holds) in [
            (vec![t.clone(), t.clone(), t.clone()], true),
            (vec![t.clone(), unknown.clone(), t.clone()], false),
            (vec![unknown.clone(), f.clone()], false),
            (vec![t.clone(), f.clone(), overflows.clone()], false),
            (vec![t.clone(), overflows.clone()], false),
            (vec![Expr::lit(true), t.clone()], true),
            (vec![Expr::Lit(Value::Null), t.clone()], false),
        ] {
            // Left-deep (what `conjunction` and the rewriter build) and
            // right-deep chains flatten to the same list.
            let right_deep = chain
                .iter()
                .cloned()
                .rev()
                .reduce(|acc, e| e.and(acc))
                .unwrap();
            for e in [Expr::conjunction(chain.clone()), right_deep] {
                agrees(&e, &r);
                assert_eq!(Prepared::new(&e).holds(&r), holds, "{e}");
            }
        }
        // Nested connectives with unknowns go to the recursive walk.
        let nested = Expr::Not(Box::new(unknown.clone().and(t.clone())));
        assert_eq!(agrees(&nested, &r), Value::Null);
        let or = Expr::binary(BinOp::Or, unknown, t.clone());
        assert_eq!(agrees(&or.and(t), &r), Value::Bool(true));
    }

    #[test]
    fn prepared_outputs_clone_only_the_winner() {
        let r = Row::new(vec![
            Value::Int(5),
            Value::Int(3),
            Value::Null,
            Value::str("x"),
        ]);
        let two = |a, b| vec![Expr::col(a), Expr::col(b)];
        assert_eq!(agrees(&Expr::Greatest(two(0, 1)), &r), Value::Int(5));
        assert_eq!(agrees(&Expr::Least(two(0, 1)), &r), Value::Int(3));
        assert_eq!(agrees(&Expr::Least(two(1, 0)), &r), Value::Int(3));
        // NULLs are ignored on either side; two of them give NULL.
        assert_eq!(agrees(&Expr::Greatest(two(2, 1)), &r), Value::Int(3));
        assert_eq!(agrees(&Expr::Greatest(two(1, 2)), &r), Value::Int(3));
        assert_eq!(agrees(&Expr::Least(two(2, 2)), &r), Value::Null);
        // Incomparable arguments: the first stays.
        assert_eq!(agrees(&Expr::Greatest(two(0, 3)), &r), Value::Int(5));
        assert_eq!(agrees(&Expr::Greatest(two(3, 0)), &r), Value::str("x"));
        assert_eq!(
            agrees(&Expr::Least(vec![Expr::col(0), Expr::lit(4)]), &r),
            Value::Int(4)
        );
        assert_eq!(agrees(&Expr::col(3), &r), Value::str("x"));
        assert_eq!(agrees(&Expr::lit(1.5), &r), Value::Double(1.5));
        // Three arguments, or a computed one, fall back.
        let three = Expr::Least(vec![Expr::col(0), Expr::col(1), Expr::lit(9)]);
        assert_eq!(agrees(&three, &r), Value::Int(3));
    }

    #[test]
    fn case_expression() {
        let r = row![5];
        let e = Expr::Case {
            branches: vec![
                (Expr::col(0).lt(Expr::lit(3)), Expr::lit("low")),
                (Expr::col(0).lt(Expr::lit(10)), Expr::lit("mid")),
            ],
            else_expr: Some(Box::new(Expr::lit("high"))),
        };
        assert_eq!(eval_expr(&e, &r), Value::str("mid"));
        let no_else = Expr::Case {
            branches: vec![(Expr::col(0).lt(Expr::lit(3)), Expr::lit("low"))],
            else_expr: None,
        };
        assert_eq!(eval_expr(&no_else, &r), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO%", "PROMO BURNISHED"));
        assert!(!like_match("PROMO%", "STANDARD"));
        assert!(like_match("%BRASS", "SMALL BRASS"));
        assert!(like_match("%ECONOMY%", "LARGE ECONOMY CASE"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "aXXbYY"));
        // `_` is one character, however many bytes it takes.
        assert!(like_match("a_c", "aéc"));
        assert!(like_match("_", "é"));
        assert!(!like_match("_", "éé"));
        assert!(like_match("%é", "cafeé"));
        assert!(like_match("é%", "été"));
        assert!(!like_match("e%", "été"));
        // `%_%`: at least one character.
        assert!(!like_match("%_%", ""));
        assert!(like_match("%_%", "x"));
        assert!(like_match("%_%", "日本"));
        assert!(like_match("%_b_%", "aabbcc"));
        assert!(!like_match("%_b_", "aabbcc"));
        // A `%` in the text is an ordinary character to match over.
        assert!(like_match("%a", "%ba"));
        assert!(like_match("100%", "100%"));
    }

    #[test]
    fn least_greatest() {
        let r = row![5, 3];
        let least = Expr::Least(vec![Expr::col(0), Expr::col(1), Expr::lit(9)]);
        assert_eq!(eval_expr(&least, &r), Value::Int(3));
        let greatest = Expr::Greatest(vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(eval_expr(&greatest, &r), Value::Int(5));
        // NULLs ignored.
        let r = Row::new(vec![Value::Null, Value::Int(3)]);
        let least = Expr::Least(vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(eval_expr(&least, &r), Value::Int(3));
        let all_null = Expr::Least(vec![Expr::col(0)]);
        assert_eq!(eval_expr(&all_null, &r), Value::Null);
    }
}
