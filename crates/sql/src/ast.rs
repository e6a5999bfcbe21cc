//! The parse tree of the SQL dialect.

use algebra::BinOp;
use storage::{SqlType, Value};

/// A parsed SQL statement: a query, or one of the DDL/DML commands the
/// session layer executes against a live [`storage::Catalog`].
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStatement {
    /// A query statement (possibly a `SEQ VT` snapshot query).
    Query(Statement),
    /// `CREATE TABLE name (col type, ...) [PERIOD (b, e)]`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions in order.
        columns: Vec<ColumnDef>,
        /// `PERIOD (begin_col, end_col)` — names of the period attributes.
        period: Option<(String, String)>,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        /// Table name.
        name: String,
        /// Whether `IF EXISTS` was given.
        if_exists: bool,
    },
    /// `INSERT INTO name VALUES (...), ...` or `INSERT INTO name query`.
    Insert {
        /// Target table.
        table: String,
        /// The inserted rows.
        source: InsertSource,
    },
    /// `DELETE FROM name [WHERE pred]` (non-sequenced: the period columns
    /// are ordinary columns of the predicate, per the paper's storage
    /// model).
    Delete {
        /// Target table.
        table: String,
        /// Row predicate (`None` deletes everything).
        where_clause: Option<AstExpr>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE pred]` (non-sequenced).
    Update {
        /// Target table.
        table: String,
        /// `(column, value expression)` assignments.
        assignments: Vec<(String, AstExpr)>,
        /// Row predicate (`None` updates everything).
        where_clause: Option<AstExpr>,
    },
    /// `BEGIN [TRANSACTION | WORK]` — opens an explicit transaction; until
    /// `COMMIT`/`ROLLBACK`, statements run against a private snapshot of
    /// the catalog (snapshot isolation).
    Begin,
    /// `COMMIT [TRANSACTION | WORK]` — publishes the open transaction's
    /// writes (first-committer-wins on write-write conflicts).
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]` — discards the open transaction's
    /// writes; the catalog is exactly as it was at `BEGIN`.
    Rollback,
    /// `EXPLAIN [ANALYZE] <query>` — renders the compiled plan; with
    /// `ANALYZE`, also executes it and annotates every operator with the
    /// actual row count, call count, and inclusive wall-clock time.
    Explain {
        /// Whether `ANALYZE` was given (execute and annotate).
        analyze: bool,
        /// The explained query statement.
        statement: Box<Statement>,
    },
    /// `SET <name> [= | TO] <value>` — a session option assignment. The
    /// value is kept as raw text; the session layer interprets it (e.g.
    /// `SET statement_timeout = 500`).
    Set {
        /// Option name (lower-cased by the lexer).
        name: String,
        /// Raw option value (number, identifier, or string literal).
        value: String,
    },
    /// `SHOW <name>` — reads a session option back, by the names `SET`
    /// takes.
    Show {
        /// Option name (lower-cased by the lexer).
        name: String,
    },
}

/// One column of a `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (lower-cased by the lexer).
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
}

/// The row source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (expr, ...), (expr, ...)` — constant rows.
    Values(Vec<Vec<AstExpr>>),
    /// `INSERT INTO t SELECT ...` (or any query statement, including
    /// `SEQ VT` blocks).
    Query(Box<Statement>),
}

/// The temporal window of a `SEQ VT` block.
///
/// `SEQ VT (...)` evaluates the snapshot query over the whole time domain;
/// `SEQ VT AS OF t (...)` asks for the single snapshot at `t` (a plain,
/// non-temporal result); `SEQ VT BETWEEN t1 AND t2 (...)` restricts
/// evaluation to the snapshots with `t1 <= t <= t2` (both inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqWindow {
    /// The whole time domain.
    Full,
    /// A single time point.
    AsOf(i64),
    /// An inclusive range of time points.
    Between(i64, i64),
}

/// A parsed statement: a query expression plus an optional top-level
/// `ORDER BY` (sorting a snapshot query's result happens *outside* the
/// `SEQ VT` block, per paper Section 10.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The query.
    pub query: QueryExpr,
    /// Top-level sort keys.
    pub order_by: Vec<OrderItem>,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: AstExpr,
    /// Ascending?
    pub asc: bool,
}

/// A query expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A `SELECT` block.
    Select(Box<SelectStmt>),
    /// `UNION ALL`.
    UnionAll(Box<QueryExpr>, Box<QueryExpr>),
    /// `EXCEPT ALL`.
    ExceptAll(Box<QueryExpr>, Box<QueryExpr>),
    /// `SEQ VT [AS OF t | BETWEEN t1 AND t2] ( query )`: evaluate under
    /// snapshot semantics over the given temporal window.
    SeqVt(Box<QueryExpr>, SeqWindow),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// `FROM` items (comma list = cross join).
    pub from: Vec<FromItem>,
    /// `WHERE` predicate.
    pub where_clause: Option<AstExpr>,
    /// `GROUP BY` expressions (bare columns in this dialect).
    pub group_by: Vec<AstExpr>,
    /// `HAVING` predicate.
    pub having: Option<AstExpr>,
}

/// An item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// An item of the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A stored table, optionally `PERIOD (b, e)` and/or aliased.
    Table {
        /// Catalog name.
        name: String,
        /// `AS alias`.
        alias: Option<String>,
        /// `PERIOD (begin_col, end_col)` — names of the period attributes
        /// (only meaningful inside `SEQ VT`; overrides the catalog default).
        period: Option<(String, String)>,
    },
    /// A parenthesized subquery with a mandatory alias.
    Subquery {
        /// The subquery.
        query: QueryExpr,
        /// Alias.
        alias: String,
    },
    /// `left JOIN right ON condition`.
    Join {
        /// Left input.
        left: Box<FromItem>,
        /// Right input.
        right: Box<FromItem>,
        /// Join condition.
        on: AstExpr,
    },
}

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Column reference, optionally qualified.
    Column {
        /// Table qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// `NOT e`.
    Not(Box<AstExpr>),
    /// `e IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<AstExpr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// Searched `CASE`.
    Case {
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(AstExpr, AstExpr)>,
        /// `ELSE`.
        else_expr: Option<Box<AstExpr>>,
    },
    /// `e [NOT] LIKE 'pattern'`.
    Like {
        /// Operand.
        expr: Box<AstExpr>,
        /// Pattern.
        pattern: String,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// `e [NOT] BETWEEN lo AND hi` (desugared by the binder).
    Between {
        /// Operand.
        expr: Box<AstExpr>,
        /// Lower bound (inclusive).
        low: Box<AstExpr>,
        /// Upper bound (inclusive).
        high: Box<AstExpr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
    /// `e [NOT] IN (v, ...)` (desugared by the binder).
    InList {
        /// Operand.
        expr: Box<AstExpr>,
        /// The candidate list.
        list: Vec<AstExpr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// Function call — aggregate (`count`/`sum`/`avg`/`min`/`max`) or
    /// scalar (`least`/`greatest`).
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments (`count(*)` has `star = true` and no args).
        args: Vec<AstExpr>,
        /// Whether the argument is `*`.
        star: bool,
    },
}
