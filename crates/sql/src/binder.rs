//! Name resolution and typing: AST → logical plans.
//!
//! Binding runs in one of two modes. Outside `SEQ VT`, a query binds to a
//! plain [`Plan`] in which period columns are ordinary columns. Inside
//! `SEQ VT`, the query binds to a [`SnapshotPlan`]: each table access must
//! have a period specification (explicit `PERIOD (b, e)` or the catalog
//! default), the period attributes are hidden from the query, and the
//! resulting plan is handed to the `rewrite` crate for the `REWR`
//! translation of Figure 4.

use crate::ast::*;
use algebra::{AggExpr, AggFunc, BinOp, Expr, Plan, SnapshotPlan};
use storage::{Catalog, Column, Schema, SqlType};

/// The result of binding a statement.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// A plain non-temporal query (ORDER BY folded in as a Sort node).
    Query(Plan),
    /// A snapshot-semantics query with optional top-level sort keys.
    ///
    /// The sort keys are bound against the snapshot plan's data schema;
    /// after rewriting, the period columns are appended *behind* the data
    /// columns, so the key indices stay valid (and for an `AS OF` window,
    /// whose result has no period columns, they address the data directly).
    Snapshot {
        /// The snapshot plan for `rewrite::SnapshotCompiler`.
        plan: SnapshotPlan,
        /// Bound `(key, ascending)` pairs.
        order_by: Vec<(Expr, bool)>,
        /// The temporal window of the `SEQ VT` block.
        window: SeqWindow,
    },
}

/// Binds a parsed statement against a catalog.
pub fn bind_statement(stmt: &Statement, catalog: &Catalog) -> Result<BoundStatement, String> {
    match &stmt.query {
        QueryExpr::SeqVt(inner, window) => {
            let bound = bind_query(inner, catalog, Mode::Snapshot)?;
            let QB::Snap(plan) = bound.qb else {
                unreachable!("snapshot mode produced a plain plan")
            };
            let mut order_by = Vec::new();
            for item in &stmt.order_by {
                let e = bind_order_key(&item.expr, &plan.schema)?;
                order_by.push((e, item.asc));
            }
            Ok(BoundStatement::Snapshot {
                plan,
                order_by,
                window: *window,
            })
        }
        _ => {
            let bound = bind_query(&stmt.query, catalog, Mode::Plain)?;
            let QB::Plain(mut plan) = bound.qb else {
                unreachable!("plain mode produced a snapshot plan")
            };
            if !stmt.order_by.is_empty() {
                let mut keys = Vec::new();
                for item in &stmt.order_by {
                    keys.push((bind_order_key(&item.expr, &plan.schema)?, item.asc));
                }
                plan = plan.sort(keys);
            }
            Ok(BoundStatement::Query(plan))
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Snapshot,
}

/// Either kind of plan, with parallel combinators.
enum QB {
    Plain(Plan),
    Snap(SnapshotPlan),
}

impl QB {
    fn schema(&self) -> &Schema {
        match self {
            QB::Plain(p) => &p.schema,
            QB::Snap(p) => &p.schema,
        }
    }

    fn filter(self, predicate: Expr) -> QB {
        match self {
            QB::Plain(p) => QB::Plain(p.filter(predicate)),
            QB::Snap(p) => QB::Snap(p.filter(predicate)),
        }
    }

    fn project(self, exprs: Vec<Expr>, names: Vec<String>) -> Result<QB, String> {
        match self {
            QB::Plain(p) => Ok(QB::Plain(p.project(exprs, names)?)),
            QB::Snap(p) => Ok(QB::Snap(p.project(exprs, names)?)),
        }
    }

    fn join(self, right: QB, condition: Expr) -> Result<QB, String> {
        match (self, right) {
            (QB::Plain(l), QB::Plain(r)) => Ok(QB::Plain(l.join(r, condition))),
            (QB::Snap(l), QB::Snap(r)) => Ok(QB::Snap(l.join(r, condition))),
            _ => Err("cannot mix snapshot and plain inputs in a join".into()),
        }
    }

    fn union(self, right: QB) -> Result<QB, String> {
        match (self, right) {
            (QB::Plain(l), QB::Plain(r)) => Ok(QB::Plain(l.union(r)?)),
            (QB::Snap(l), QB::Snap(r)) => Ok(QB::Snap(l.union(r)?)),
            _ => Err("cannot mix snapshot and plain inputs in UNION ALL".into()),
        }
    }

    fn except_all(self, right: QB) -> Result<QB, String> {
        match (self, right) {
            (QB::Plain(l), QB::Plain(r)) => Ok(QB::Plain(l.except_all(r)?)),
            (QB::Snap(l), QB::Snap(r)) => Ok(QB::Snap(l.except_all(r)?)),
            _ => Err("cannot mix snapshot and plain inputs in EXCEPT ALL".into()),
        }
    }

    fn aggregate(self, group_cols: Vec<usize>, aggs: Vec<AggExpr>) -> Result<QB, String> {
        match self {
            QB::Plain(p) => Ok(QB::Plain(p.aggregate(group_cols, aggs)?)),
            QB::Snap(p) => Ok(QB::Snap(p.aggregate(group_cols, aggs)?)),
        }
    }
}

/// A bound query: the plan plus the qualified schema used for name
/// resolution by enclosing scopes (positions align with the plan schema).
struct Bound {
    qb: QB,
    visible: Schema,
}

fn bind_query(query: &QueryExpr, catalog: &Catalog, mode: Mode) -> Result<Bound, String> {
    match query {
        QueryExpr::Select(sel) => bind_select(sel, catalog, mode),
        QueryExpr::UnionAll(l, r) | QueryExpr::ExceptAll(l, r) => {
            let lb = bind_query(l, catalog, mode)?;
            let rb = bind_query(r, catalog, mode)?;
            let (left, right) = widen_int_beside_double(lb.qb, rb.qb)?;
            let qb = match query {
                QueryExpr::UnionAll(..) => left.union(right)?,
                _ => left.except_all(right)?,
            };
            let visible = qb.schema().clone();
            Ok(Bound { qb, visible })
        }
        QueryExpr::SeqVt(..) => {
            Err("SEQ VT is only supported at the top level of a statement".into())
        }
    }
}

/// Where one side of a `UNION ALL` / `EXCEPT ALL` has an `INT` column and
/// the other a `DOUBLE` one, the result column is `DOUBLE`: the `INT` side
/// is widened (`x * 1.0`, exact up to 2^53), as storing an `INT` into a
/// `DOUBLE` column widens it, so `2` and `2.0` are one value to the
/// operators, which compare values by type as well. Equal types are left
/// as they are.
fn widen_int_beside_double(left: QB, right: QB) -> Result<(QB, QB), String> {
    let (ls, rs) = (left.schema().clone(), right.schema().clone());
    let widen = |qb: QB, mine: &Schema, theirs: &Schema| {
        let int_vs_double =
            |i: usize| (mine.column(i).ty, theirs.column(i).ty) == (SqlType::Int, SqlType::Double);
        if mine.arity() != theirs.arity() || !(0..mine.arity()).any(int_vs_double) {
            return Ok(qb); // the set operation reports any mismatch
        }
        let exprs = (0..mine.arity()).map(|i| match int_vs_double(i) {
            true => Expr::binary(BinOp::Mul, Expr::col(i), Expr::lit(1.0)),
            false => Expr::col(i),
        });
        let names = mine.columns().iter().map(|c| c.name.clone()).collect();
        qb.project(exprs.collect(), names)
    };
    Ok((widen(left, &ls, &rs)?, widen(right, &rs, &ls)?))
}

fn bind_select(sel: &SelectStmt, catalog: &Catalog, mode: Mode) -> Result<Bound, String> {
    // FROM: fold the comma list into cross joins.
    let mut from_iter = sel.from.iter();
    let first = from_iter
        .next()
        .ok_or("queries without FROM are not supported")?;
    let mut bound = bind_from_item(first, catalog, mode)?;
    for item in from_iter {
        let right = bind_from_item(item, catalog, mode)?;
        let visible = bound.visible.concat(&right.visible);
        bound = Bound {
            qb: bound.qb.join(right.qb, Expr::lit(true))?,
            visible,
        };
    }

    // WHERE.
    if let Some(w) = &sel.where_clause {
        let pred = bind_expr(w, &bound.visible)?;
        expect_bool(&pred, bound.qb.schema(), "WHERE")?;
        bound = Bound {
            qb: bound.qb.filter(pred),
            visible: bound.visible,
        };
    }

    let has_aggs = sel.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => contains_aggregate(expr),
        _ => false,
    });

    if !sel.group_by.is_empty() || has_aggs || sel.having.is_some() {
        bind_aggregate_select(sel, bound, catalog)
    } else {
        bind_plain_select(sel, bound)
    }
}

fn bind_plain_select(sel: &SelectStmt, bound: Bound) -> Result<Bound, String> {
    let mut exprs = Vec::new();
    let mut names = Vec::new();
    for (idx, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in bound.visible.columns().iter().enumerate() {
                    exprs.push(Expr::Col(i));
                    names.push(c.name.clone());
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for (i, c) in bound.visible.columns().iter().enumerate() {
                    if c.table.as_deref() == Some(q.as_str()) {
                        exprs.push(Expr::Col(i));
                        names.push(c.name.clone());
                        any = true;
                    }
                }
                if !any {
                    return Err(format!("unknown table alias '{q}' in {q}.*"));
                }
            }
            SelectItem::Expr { expr, alias } => {
                exprs.push(bind_expr(expr, &bound.visible)?);
                names.push(output_name(expr, alias.as_deref(), idx));
            }
        }
    }
    let qb = bound.qb.project(exprs, names.clone())?;
    let visible = qb.schema().clone();
    Ok(Bound { qb, visible })
}

fn bind_aggregate_select(
    sel: &SelectStmt,
    bound: Bound,
    _catalog: &Catalog,
) -> Result<Bound, String> {
    // GROUP BY: bare columns only (pre-project for anything else).
    let mut group_cols = Vec::new();
    for g in &sel.group_by {
        match bind_expr(g, &bound.visible)? {
            Expr::Col(i) => group_cols.push(i),
            other => {
                return Err(format!(
                    "GROUP BY supports plain columns only, got expression {other}"
                ))
            }
        }
    }

    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut post_exprs = Vec::new();
    let mut post_names = Vec::new();
    for (idx, item) in sel.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err("* is not allowed in an aggregating SELECT".into());
        };
        let post = bind_post_agg(expr, &bound.visible, &group_cols, &mut aggs)?;
        post_exprs.push(post);
        post_names.push(output_name(expr, alias.as_deref(), idx));
    }

    // HAVING may reference (and introduce) aggregates.
    let having = sel
        .having
        .as_ref()
        .map(|h| bind_post_agg(h, &bound.visible, &group_cols, &mut aggs))
        .transpose()?;

    if aggs.is_empty() {
        return Err("GROUP BY query without aggregates; use SELECT DISTINCT instead".into());
    }

    let qb = bound.qb.aggregate(group_cols, aggs)?;
    let qb = match having {
        Some(h) => {
            expect_bool(&h, qb.schema(), "HAVING")?;
            qb.filter(h)
        }
        None => qb,
    };
    let qb = qb.project(post_exprs, post_names)?;
    let visible = qb.schema().clone();
    Ok(Bound { qb, visible })
}

fn bind_from_item(item: &FromItem, catalog: &Catalog, mode: Mode) -> Result<Bound, String> {
    match item {
        FromItem::Table {
            name,
            alias,
            period,
        } => {
            let qualifier = alias.clone().unwrap_or_else(|| name.clone());
            // A real catalog table shadows a virtual table of the same
            // name; the virtual route only answers catalog misses.
            let table = match catalog.get(name) {
                Some(t) => t,
                None => match algebra::vtab::virtual_table_schema(name) {
                    Some(schema) => {
                        if mode == Mode::Snapshot {
                            return Err(format!(
                                "virtual table '{name}' is not a temporal relation and \
                                 cannot appear in a SEQ VT block"
                            ));
                        }
                        if period.is_some() {
                            return Err(format!(
                                "PERIOD specification is not valid on virtual table '{name}'"
                            ));
                        }
                        let visible = schema.with_qualifier(&qualifier);
                        return Ok(Bound {
                            qb: QB::Plain(Plan::virtual_scan(name.clone(), schema)),
                            visible,
                        });
                    }
                    None => return Err(format!("unknown table '{name}'")),
                },
            };
            match mode {
                Mode::Plain => {
                    if period.is_some() {
                        return Err(format!(
                            "PERIOD specification on '{name}' requires a SEQ VT block"
                        ));
                    }
                    let plan = Plan::scan(name.clone(), table.schema().clone());
                    let visible = table.schema().with_qualifier(&qualifier);
                    Ok(Bound {
                        qb: QB::Plain(plan),
                        visible,
                    })
                }
                Mode::Snapshot => {
                    let (b, e) = match period {
                        Some((bn, en)) => {
                            let b = table.schema().resolve(None, bn)?;
                            let e = table.schema().resolve(None, en)?;
                            if table.schema().column(b).ty != SqlType::Int
                                || table.schema().column(e).ty != SqlType::Int
                            {
                                return Err(format!("period attributes of '{name}' must be INT"));
                            }
                            (b, e)
                        }
                        None => table.period().ok_or_else(|| {
                            format!(
                                "table '{name}' accessed in SEQ VT without a period: \
                                 add PERIOD (begin, end) or register the table with one"
                            )
                        })?,
                    };
                    let data_cols: Vec<usize> = (0..table.schema().arity())
                        .filter(|&i| i != b && i != e)
                        .collect();
                    let data_schema = Schema::new(
                        data_cols
                            .iter()
                            .map(|&i| {
                                let c = table.schema().column(i);
                                Column::qualified(qualifier.clone(), c.name.clone(), c.ty)
                            })
                            .collect(),
                    );
                    let plan =
                        SnapshotPlan::access(name.clone(), data_cols, (b, e), data_schema.clone());
                    Ok(Bound {
                        qb: QB::Snap(plan),
                        visible: data_schema,
                    })
                }
            }
        }
        FromItem::Subquery { query, alias } => {
            let inner = bind_query(query, catalog, mode)?;
            let visible = inner.visible.unqualified().with_qualifier(alias);
            Ok(Bound {
                qb: inner.qb,
                visible,
            })
        }
        FromItem::Join { left, right, on } => {
            let lb = bind_from_item(left, catalog, mode)?;
            let rb = bind_from_item(right, catalog, mode)?;
            let visible = lb.visible.concat(&rb.visible);
            let condition = bind_expr(on, &visible)?;
            Ok(Bound {
                qb: lb.qb.join(rb.qb, condition)?,
                visible,
            })
        }
    }
}

// ---- expression binding ---------------------------------------------

/// Binds a scalar (non-aggregate) expression against a schema — the entry
/// point the session layer uses for DML: `WHERE` predicates of
/// `DELETE`/`UPDATE`, `SET` value expressions, and `INSERT ... VALUES`
/// literals (bound against the empty schema).
pub fn bind_scalar_expr(ast: &AstExpr, schema: &Schema) -> Result<Expr, String> {
    bind_expr(ast, schema)
}

fn bind_expr(ast: &AstExpr, schema: &Schema) -> Result<Expr, String> {
    match ast {
        AstExpr::Column { table, name } => {
            let i = schema.resolve(table.as_deref(), name)?;
            Ok(Expr::Col(i))
        }
        AstExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_expr(left, schema)?),
            right: Box::new(bind_expr(right, schema)?),
        }),
        AstExpr::Not(e) => Ok(Expr::Not(Box::new(bind_expr(e, schema)?))),
        AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(bind_expr(expr, schema)?),
            negated: *negated,
        }),
        AstExpr::Case {
            branches,
            else_expr,
        } => Ok(Expr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| Ok((bind_expr(c, schema)?, bind_expr(r, schema)?)))
                .collect::<Result<_, String>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|e| Ok::<_, String>(Box::new(bind_expr(e, schema)?)))
                .transpose()?,
        }),
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(bind_expr(expr, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        AstExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let e = bind_expr(expr, schema)?;
            let lo = bind_expr(low, schema)?;
            let hi = bind_expr(high, schema)?;
            let in_range =
                Expr::binary(BinOp::Geq, e.clone(), lo).and(Expr::binary(BinOp::Leq, e, hi));
            Ok(if *negated {
                Expr::Not(Box::new(in_range))
            } else {
                in_range
            })
        }
        AstExpr::InList {
            expr,
            list,
            negated,
        } => {
            let e = bind_expr(expr, schema)?;
            let mut disjunction: Option<Expr> = None;
            for candidate in list {
                let c = bind_expr(candidate, schema)?;
                let eq = e.clone().eq(c);
                disjunction = Some(match disjunction {
                    None => eq,
                    Some(d) => Expr::binary(BinOp::Or, d, eq),
                });
            }
            let d = disjunction.ok_or("IN requires a non-empty list")?;
            Ok(if *negated { Expr::Not(Box::new(d)) } else { d })
        }
        AstExpr::Func { name, args, star } => match name.as_str() {
            "least" | "greatest" => {
                let bound: Vec<Expr> = args
                    .iter()
                    .map(|a| bind_expr(a, schema))
                    .collect::<Result<_, _>>()?;
                if bound.is_empty() {
                    return Err(format!("{name} requires at least one argument"));
                }
                Ok(if name == "least" {
                    Expr::Least(bound)
                } else {
                    Expr::Greatest(bound)
                })
            }
            "count" | "sum" | "avg" | "min" | "max" => Err(format!(
                "aggregate {name}({}) is not allowed in this context",
                if *star { "*" } else { "..." }
            )),
            other => Err(format!("unknown function '{other}'")),
        },
    }
}

/// Binds an expression appearing *above* an aggregation (select item or
/// HAVING): aggregate calls are collected into `aggs` and replaced by
/// references to the aggregate output; plain columns must be group columns.
fn bind_post_agg(
    ast: &AstExpr,
    input: &Schema,
    group_cols: &[usize],
    aggs: &mut Vec<AggExpr>,
) -> Result<Expr, String> {
    match ast {
        AstExpr::Func { name, args, star }
            if matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max") =>
        {
            let agg = if *star {
                if name != "count" {
                    return Err(format!("{name}(*) is not valid"));
                }
                AggExpr::count_star(format!("agg{}", aggs.len()))
            } else {
                if args.len() != 1 {
                    return Err(format!("{name} takes exactly one argument"));
                }
                if contains_aggregate(&args[0]) {
                    return Err("nested aggregates are not allowed".into());
                }
                let arg = bind_expr(&args[0], input)?;
                let func = match name.as_str() {
                    "count" => AggFunc::Count,
                    "sum" => AggFunc::Sum,
                    "avg" => AggFunc::Avg,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    _ => unreachable!(),
                };
                AggExpr {
                    func,
                    arg: Some(arg),
                    name: format!("agg{}", aggs.len()),
                }
            };
            // Reuse an identical aggregate if present (ignoring the name).
            let pos = aggs
                .iter()
                .position(|a| a.func == agg.func && a.arg == agg.arg)
                .unwrap_or_else(|| {
                    aggs.push(agg);
                    aggs.len() - 1
                });
            Ok(Expr::Col(group_cols.len() + pos))
        }
        AstExpr::Column { table, name } => {
            let i = input.resolve(table.as_deref(), name)?;
            let pos = group_cols.iter().position(|&g| g == i).ok_or_else(|| {
                format!("column {name} must appear in GROUP BY or be used in an aggregate")
            })?;
            Ok(Expr::Col(pos))
        }
        AstExpr::Lit(v) => Ok(Expr::Lit(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_post_agg(left, input, group_cols, aggs)?),
            right: Box::new(bind_post_agg(right, input, group_cols, aggs)?),
        }),
        AstExpr::Not(e) => Ok(Expr::Not(Box::new(bind_post_agg(
            e, input, group_cols, aggs,
        )?))),
        AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(bind_post_agg(expr, input, group_cols, aggs)?),
            negated: *negated,
        }),
        AstExpr::Case {
            branches,
            else_expr,
        } => Ok(Expr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| {
                    Ok((
                        bind_post_agg(c, input, group_cols, aggs)?,
                        bind_post_agg(r, input, group_cols, aggs)?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            else_expr: else_expr
                .as_ref()
                .map(|e| Ok::<_, String>(Box::new(bind_post_agg(e, input, group_cols, aggs)?)))
                .transpose()?,
        }),
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(bind_post_agg(expr, input, group_cols, aggs)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        AstExpr::Between { .. } | AstExpr::InList { .. } => {
            Err("BETWEEN/IN above aggregates are not supported; compare explicitly".into())
        }
        AstExpr::Func { name, .. } => Err(format!("unknown function '{name}'")),
    }
}

fn bind_order_key(ast: &AstExpr, schema: &Schema) -> Result<Expr, String> {
    // ORDER BY 2 — ordinal reference.
    if let AstExpr::Lit(storage::Value::Int(i)) = ast {
        let idx = *i - 1;
        if idx < 0 || idx as usize >= schema.arity() {
            return Err(format!("ORDER BY position {i} out of range"));
        }
        return Ok(Expr::Col(idx as usize));
    }
    bind_expr(ast, schema)
}

fn contains_aggregate(ast: &AstExpr) -> bool {
    match ast {
        AstExpr::Func { name, args, .. } => {
            matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max")
                || args.iter().any(contains_aggregate)
        }
        AstExpr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        AstExpr::Not(e) => contains_aggregate(e),
        AstExpr::IsNull { expr, .. } => contains_aggregate(expr),
        AstExpr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .any(|(c, r)| contains_aggregate(c) || contains_aggregate(r))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        AstExpr::Like { expr, .. } => contains_aggregate(expr),
        AstExpr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        AstExpr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        AstExpr::Column { .. } | AstExpr::Lit(_) => false,
    }
}

fn output_name(expr: &AstExpr, alias: Option<&str>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Func { name, .. } => name.clone(),
        _ => format!("col{idx}"),
    }
}

fn expect_bool(e: &Expr, schema: &Schema, clause: &str) -> Result<(), String> {
    let ty = e.infer_type(schema)?;
    if ty != SqlType::Bool {
        return Err(format!("{clause} predicate must be boolean, got {ty}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;
    use algebra::{PlanNode, SnapshotNode};
    use storage::{row, Table};

    fn catalog() -> Catalog {
        let works = Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let assign = Schema::of(&[
            ("mach", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut c = Catalog::new();
        let mut w = Table::with_period(works, 2, 3);
        w.push(row!["Ann", "SP", 3, 10]);
        c.register("works", w);
        c.register("assign", Table::with_period(assign, 2, 3));
        c
    }

    fn bind(sql: &str) -> Result<BoundStatement, String> {
        bind_statement(&parse_statement(sql)?, &catalog())
    }

    #[test]
    fn plain_query_binds_to_plan() {
        let b = bind("SELECT name FROM works WHERE skill = 'SP'").unwrap();
        let BoundStatement::Query(plan) = b else {
            panic!("expected plain query")
        };
        assert_eq!(plan.schema.arity(), 1);
        assert_eq!(plan.schema.column(0).name, "name");
    }

    #[test]
    fn snapshot_query_hides_period_columns() {
        let b = bind("SEQ VT (SELECT * FROM works)").unwrap();
        let BoundStatement::Snapshot { plan, .. } = b else {
            panic!("expected snapshot query")
        };
        // * expands to data columns only.
        assert_eq!(plan.schema.arity(), 2);
        assert_eq!(plan.schema.column(0).name, "name");
        assert_eq!(plan.schema.column(1).name, "skill");
    }

    #[test]
    fn snapshot_query_period_override() {
        let b = bind("SEQ VT (SELECT * FROM works PERIOD (ts, te))").unwrap();
        let BoundStatement::Snapshot { plan, .. } = b else {
            panic!()
        };
        // Walk to the access leaf.
        fn find_access(p: &SnapshotPlan) -> Option<(usize, usize)> {
            match &p.node {
                SnapshotNode::Access { period, .. } => Some(*period),
                SnapshotNode::Project { input, .. } | SnapshotNode::Filter { input, .. } => {
                    find_access(input)
                }
                _ => None,
            }
        }
        assert_eq!(find_access(&plan), Some((2, 3)));
    }

    #[test]
    fn q_onduty_binds() {
        let b = bind("SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')").unwrap();
        let BoundStatement::Snapshot { plan, .. } = b else {
            panic!()
        };
        assert_eq!(plan.schema.arity(), 1);
        assert_eq!(plan.schema.column(0).name, "cnt");
    }

    #[test]
    fn q_skillreq_binds() {
        let b =
            bind("SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)").unwrap();
        assert!(matches!(b, BoundStatement::Snapshot { .. }));
    }

    #[test]
    fn group_by_with_having_and_arithmetic() {
        let b = bind(
            "SELECT skill, count(*) AS c, max(te) - min(ts) AS span \
             FROM works GROUP BY skill HAVING count(*) > 1",
        )
        .unwrap();
        let BoundStatement::Query(plan) = b else {
            panic!()
        };
        assert_eq!(plan.schema.arity(), 3);
        // Having introduces no extra output column.
        assert_eq!(plan.schema.column(1).name, "c");
        assert_eq!(plan.schema.column(2).name, "span");
        // The plan is Project over Filter over Aggregate.
        let PlanNode::Project { input, .. } = &plan.node else {
            panic!("expected project on top")
        };
        assert!(matches!(input.node, PlanNode::Filter { .. }));
    }

    #[test]
    fn aggregates_are_deduplicated() {
        let b = bind("SELECT sum(ts), sum(ts) + count(*) FROM works").unwrap();
        let BoundStatement::Query(plan) = b else {
            panic!()
        };
        fn find_agg_count(p: &Plan) -> usize {
            match &p.node {
                PlanNode::Aggregate { aggs, .. } => aggs.len(),
                PlanNode::Project { input, .. } | PlanNode::Filter { input, .. } => {
                    find_agg_count(input)
                }
                _ => 0,
            }
        }
        assert_eq!(find_agg_count(&plan), 2); // sum(ts) reused, count(*) added
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let err = bind("SELECT name, count(*) FROM works GROUP BY skill").unwrap_err();
        assert!(err.contains("GROUP BY"));
    }

    #[test]
    fn missing_period_reported() {
        let mut c = catalog();
        c.register("noperiod", Table::new(Schema::of(&[("x", SqlType::Int)])));
        let stmt = parse_statement("SEQ VT (SELECT x FROM noperiod)").unwrap();
        let err = bind_statement(&stmt, &c).unwrap_err();
        assert!(err.contains("without a period"));
    }

    #[test]
    fn nested_seq_vt_rejected() {
        let err = bind("SELECT * FROM (SEQ VT (SELECT name FROM works)) s").unwrap_err();
        assert!(err.contains("top level"));
    }

    #[test]
    fn ambiguous_columns_detected() {
        let err = bind("SELECT skill FROM works w JOIN assign a ON w.skill = a.skill").unwrap_err();
        assert!(err.contains("ambiguous"));
    }

    #[test]
    fn subquery_alias_requalifies() {
        let b = bind("SELECT s.n FROM (SELECT name AS n FROM works) s WHERE s.n <> 'Joe'").unwrap();
        assert!(matches!(b, BoundStatement::Query(_)));
    }

    #[test]
    fn order_by_binds_ordinal_and_name() {
        let b = bind("SELECT name, skill FROM works ORDER BY 2 DESC, name").unwrap();
        let BoundStatement::Query(plan) = b else {
            panic!()
        };
        let PlanNode::Sort { keys, .. } = &plan.node else {
            panic!("expected sort")
        };
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, Expr::Col(1));
        assert!(!keys[0].1);
    }

    #[test]
    fn snapshot_order_by_binds_against_data_schema() {
        let b = bind("SEQ VT (SELECT name, skill FROM works) ORDER BY skill").unwrap();
        let BoundStatement::Snapshot { order_by, .. } = b else {
            panic!()
        };
        assert_eq!(order_by, vec![(Expr::Col(1), true)]);
    }

    #[test]
    fn seq_vt_window_carried_through_binding() {
        let b = bind("SEQ VT AS OF 7 (SELECT name FROM works)").unwrap();
        let BoundStatement::Snapshot { window, .. } = b else {
            panic!()
        };
        assert_eq!(window, crate::ast::SeqWindow::AsOf(7));

        let b = bind("SEQ VT BETWEEN 3 AND 9 (SELECT name FROM works)").unwrap();
        let BoundStatement::Snapshot { window, .. } = b else {
            panic!()
        };
        assert_eq!(window, crate::ast::SeqWindow::Between(3, 9));
    }

    #[test]
    fn scalar_expr_binding_for_dml() {
        let schema = catalog()
            .get("works")
            .unwrap()
            .schema()
            .with_qualifier("works");
        let ast = crate::parser::parse_sql_statement("DELETE FROM works WHERE te <= 10").unwrap();
        let crate::ast::SqlStatement::Delete {
            where_clause: Some(pred),
            ..
        } = ast
        else {
            panic!()
        };
        let bound = bind_scalar_expr(&pred, &schema).unwrap();
        assert_eq!(bound.infer_type(&schema).unwrap(), SqlType::Bool);
        // Aggregates are rejected in scalar position.
        let bad = AstExpr::Func {
            name: "count".into(),
            args: vec![],
            star: true,
        };
        assert!(bind_scalar_expr(&bad, &schema).is_err());
    }
}
