//! Scalar expression evaluation with SQL three-valued logic.

use algebra::{BinOp, Expr};
use std::cmp::Ordering;
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
                return match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Neq => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Leq => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Geq => ord != Ordering::Less,
                        _ => unreachable!(),
                    }),
                };
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

fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinOp::Add => Value::Int(a + b),
            BinOp::Sub => Value::Int(a - b),
            BinOp::Mul => Value::Int(a * b),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            _ => unreachable!("non-arithmetic op {op} reached arithmetic"),
        },
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
    // Postgres semantics: NULL arguments are ignored; all-NULL gives NULL.
    let mut best = Value::Null;
    for e in es {
        let v = eval_expr(e, row);
        if v.is_null() {
            continue;
        }
        if best.is_null() || v.sql_cmp(&best) == Some(keep) {
            best = v;
        }
    }
    best
}

/// SQL `LIKE` pattern matching: `%` matches any sequence, `_` any single
/// character. Case-sensitive, no escape support (not needed by the
/// workloads).
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    // Classic two-pointer wildcard matcher with backtracking to the last %.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star_p, mut star_t) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_t = ti;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
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
