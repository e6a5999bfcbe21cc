//! Scalar expressions over rows, and aggregate function descriptors.
//!
//! Expressions are *bound*: column references are positional indices into
//! the input schema (name resolution happens in the `sql` crate). SQL
//! three-valued logic is respected by the evaluator in the `engine` crate.

use std::fmt;
use storage::{Schema, SqlType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Leq,
    /// `>`
    Gt,
    /// `>=`
    Geq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Whether this is a comparison producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Leq | BinOp::Gt | BinOp::Geq
        )
    }

    /// Whether this is `AND`/`OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Leq => "<=",
            BinOp::Gt => ">",
            BinOp::Geq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// `IS NULL` (`negated` = `IS NOT NULL`).
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Searched `CASE WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// `(condition, result)` branches, first match wins.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result (NULL when absent).
        else_expr: Option<Box<Expr>>,
    },
    /// `expr LIKE 'pattern'` with `%`/`_` wildcards (literal pattern only).
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern with `%` and `_` wildcards.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `LEAST(e...)` — smallest non-NULL argument (used by the join rewrite
    /// for interval intersection).
    Least(Vec<Expr>),
    /// `GREATEST(e...)` — largest non-NULL argument.
    Greatest(Vec<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Convenience builder for binary nodes.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Lt, self, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// Conjunction of several expressions (`TRUE` for the empty list).
    pub fn conjunction(mut exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::lit(true),
            1 => exprs.pop().unwrap(),
            _ => {
                let mut it = exprs.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, e| acc.and(e))
            }
        }
    }

    /// Infers the result type against an input schema; errors on unknown
    /// columns or type mismatches the engine cannot evaluate.
    pub fn infer_type(&self, schema: &Schema) -> Result<SqlType, String> {
        match self {
            Expr::Col(i) => {
                if *i >= schema.arity() {
                    return Err(format!(
                        "column index {i} out of range for arity {}",
                        schema.arity()
                    ));
                }
                Ok(schema.column(*i).ty)
            }
            Expr::Lit(v) => Ok(match v {
                Value::Null => SqlType::Int, // NULL is typeless; Int is a neutral default
                Value::Bool(_) => SqlType::Bool,
                Value::Int(_) => SqlType::Int,
                Value::Double(_) => SqlType::Double,
                Value::Str(_) => SqlType::Str,
            }),
            Expr::Binary { op, left, right } => {
                let (lt, rt) = (left.infer_type(schema)?, right.infer_type(schema)?);
                if op.is_logical() {
                    return Ok(SqlType::Bool);
                }
                if op.is_comparison() {
                    return Ok(SqlType::Bool);
                }
                // Arithmetic: Int op Int = Int, anything with Double = Double.
                match (lt, rt) {
                    (SqlType::Int, SqlType::Int) => Ok(SqlType::Int),
                    (SqlType::Int | SqlType::Double, SqlType::Int | SqlType::Double) => {
                        Ok(SqlType::Double)
                    }
                    _ => Err(format!("cannot apply {op} to {lt} and {rt}")),
                }
            }
            Expr::Not(_) | Expr::IsNull { .. } | Expr::Like { .. } => Ok(SqlType::Bool),
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut ty = None;
                for (_, r) in branches {
                    let t = r.infer_type(schema)?;
                    ty = Some(ty.map_or(t, |prev| unify(prev, t)));
                }
                if let Some(e) = else_expr {
                    let t = e.infer_type(schema)?;
                    ty = Some(ty.map_or(t, |prev| unify(prev, t)));
                }
                ty.ok_or_else(|| "CASE requires at least one branch".to_string())
            }
            Expr::Least(es) | Expr::Greatest(es) => {
                let mut ty = None;
                for e in es {
                    let t = e.infer_type(schema)?;
                    ty = Some(ty.map_or(t, |prev| unify(prev, t)));
                }
                ty.ok_or_else(|| "LEAST/GREATEST require arguments".to_string())
            }
        }
    }

    /// All column indices referenced by the expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) => e.referenced_columns(out),
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.referenced_columns(out);
                    r.referenced_columns(out);
                }
                if let Some(e) = else_expr {
                    e.referenced_columns(out);
                }
            }
            Expr::Like { expr, .. } => expr.referenced_columns(out),
            Expr::Least(es) | Expr::Greatest(es) => {
                for e in es {
                    e.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrites every column reference through `f` (used when plans splice
    /// schemas together, e.g. shifting the right side of a join).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        self.replace_columns(&|i| Expr::Col(f(i)))
    }

    /// Substitutes `exprs[i]` for every column reference `#i`: the
    /// expression `self` over the output of `Π_exprs`, restated over that
    /// projection's input (how [`crate::Plan::project`] composes stacked
    /// projections).
    ///
    /// # Panics
    /// Panics when a referenced column has no expression in `exprs`.
    pub fn substitute(&self, exprs: &[Expr]) -> Expr {
        self.replace_columns(&|i| exprs[i].clone())
    }

    fn replace_columns(&self, f: &impl Fn(usize) -> Expr) -> Expr {
        match self {
            Expr::Col(i) => f(*i),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.replace_columns(f)),
                right: Box::new(right.replace_columns(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.replace_columns(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.replace_columns(f)),
                negated: *negated,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.replace_columns(f), r.replace_columns(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.replace_columns(f))),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.replace_columns(f)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Least(es) => Expr::Least(es.iter().map(|e| e.replace_columns(f)).collect()),
            Expr::Greatest(es) => Expr::Greatest(es.iter().map(|e| e.replace_columns(f)).collect()),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE '{pattern}'",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Least(es) => {
                write!(f, "LEAST(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Greatest(es) => {
                write!(f, "GREATEST(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` — counts rows including all-NULL ones.
    CountStar,
    /// `count(e)` — counts non-NULL values of `e`.
    Count,
    /// `sum(e)` — NULL over empty/all-NULL input.
    Sum,
    /// `avg(e)`.
    Avg,
    /// `min(e)`.
    Min,
    /// `max(e)`.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// An aggregate call: function, argument, and output column name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument (ignored for `count(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// A `count(*)` aggregate.
    pub fn count_star(name: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            name: name.into(),
        }
    }

    /// An aggregate over an expression.
    pub fn new(func: AggFunc, arg: Expr, name: impl Into<String>) -> Self {
        AggExpr {
            func,
            arg: Some(arg),
            name: name.into(),
        }
    }

    /// The output type of the aggregate against an input schema.
    pub fn output_type(&self, schema: &Schema) -> Result<SqlType, String> {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Ok(SqlType::Int),
            AggFunc::Avg => Ok(SqlType::Double),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => self
                .arg
                .as_ref()
                .ok_or_else(|| format!("{} requires an argument", self.func))?
                .infer_type(schema),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.func, &self.arg) {
            (AggFunc::CountStar, _) => write!(f, "count(*)"),
            (func, Some(a)) => write!(f, "{func}({a})"),
            (func, None) => write!(f, "{func}()"),
        }
    }
}

fn unify(a: SqlType, b: SqlType) -> SqlType {
    match (a, b) {
        (SqlType::Int, SqlType::Double) | (SqlType::Double, SqlType::Int) => SqlType::Double,
        _ => a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[
            ("name", SqlType::Str),
            ("salary", SqlType::Int),
            ("bonus", SqlType::Double),
        ])
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(Expr::col(1).infer_type(&s), Ok(SqlType::Int));
        assert_eq!(
            Expr::binary(BinOp::Add, Expr::col(1), Expr::col(1)).infer_type(&s),
            Ok(SqlType::Int)
        );
        assert_eq!(
            Expr::binary(BinOp::Add, Expr::col(1), Expr::col(2)).infer_type(&s),
            Ok(SqlType::Double)
        );
        assert_eq!(
            Expr::col(1).eq(Expr::lit(5)).infer_type(&s),
            Ok(SqlType::Bool)
        );
        assert!(Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1))
            .infer_type(&s)
            .is_err());
        assert!(Expr::col(9).infer_type(&s).is_err());
    }

    #[test]
    fn conjunction_builder() {
        assert_eq!(Expr::conjunction(vec![]), Expr::lit(true));
        let e = Expr::conjunction(vec![Expr::lit(true), Expr::lit(false)]);
        assert_eq!(
            e,
            Expr::binary(BinOp::And, Expr::lit(true), Expr::lit(false))
        );
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::binary(
            BinOp::And,
            Expr::col(0).eq(Expr::lit("x")),
            Expr::col(3).lt(Expr::col(1)),
        );
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 3]);
    }

    #[test]
    fn map_columns_shifts() {
        let e = Expr::col(0).eq(Expr::col(2));
        let shifted = e.map_columns(&|i| i + 10);
        assert_eq!(shifted, Expr::col(10).eq(Expr::col(12)));
    }

    #[test]
    fn substitute_inlines_the_inner_projection() {
        let inner = [
            Expr::col(3),
            Expr::Greatest(vec![Expr::col(1), Expr::col(2)]),
        ];
        let outer = Expr::col(1).lt(Expr::col(0)).and(Expr::lit(true));
        assert_eq!(
            outer.substitute(&inner),
            Expr::Greatest(vec![Expr::col(1), Expr::col(2)])
                .lt(Expr::col(3))
                .and(Expr::lit(true))
        );
    }

    #[test]
    fn display_round_trip_is_readable() {
        let e = Expr::binary(
            BinOp::And,
            Expr::col(1).eq(Expr::lit(5)),
            Expr::Like {
                expr: Box::new(Expr::col(0)),
                pattern: "PROMO%".into(),
                negated: false,
            },
        );
        assert_eq!(e.to_string(), "((#1 = 5) AND #0 LIKE 'PROMO%')");
    }

    #[test]
    fn agg_output_types() {
        let s = schema();
        assert_eq!(AggExpr::count_star("c").output_type(&s), Ok(SqlType::Int));
        assert_eq!(
            AggExpr::new(AggFunc::Sum, Expr::col(1), "s").output_type(&s),
            Ok(SqlType::Int)
        );
        assert_eq!(
            AggExpr::new(AggFunc::Avg, Expr::col(1), "a").output_type(&s),
            Ok(SqlType::Double)
        );
    }
}
