//! SQL front end with `SEQ VT (...)` snapshot blocks.
//!
//! The paper's middleware "exposes snapshot semantics as a new language
//! feature in SQL": a query enclosed in `SEQ VT (...)` is evaluated under
//! snapshot semantics, and each table accessed inside the block names the
//! attributes storing its validity period — `works PERIOD (ts, te)` —
//! unless the catalog already registered a period for the table
//! (Section 9). This crate provides that dialect:
//!
//! * [`lexer`] / [`parser`] — hand-written lexer and recursive-descent
//!   parser for the supported subset (SELECT/FROM/WHERE/GROUP BY/HAVING,
//!   JOIN..ON, UNION ALL, EXCEPT ALL, subqueries in FROM, CASE, LIKE,
//!   BETWEEN, IN, aggregates, top-level ORDER BY),
//! * [`ast`] — the parse tree,
//! * [`binder`] — name resolution and typing against a
//!   [`storage::Catalog`], producing either a plain [`algebra::Plan`] or a
//!   snapshot [`algebra::SnapshotPlan`] ready for the `rewrite` crate.
//!
//! `SEQ VT` is supported at statement level (optionally under a top-level
//! `ORDER BY`), which covers every query of the paper's evaluation;
//! `ORDER BY` *inside* a snapshot block is rejected, as in the paper.
//!
//! Beyond queries, the dialect covers the statement surface the session
//! layer (`snapshot_session`) executes against a live database: temporal
//! DDL (`CREATE TABLE ... PERIOD (b, e)`, `DROP TABLE`), non-sequenced DML
//! (`INSERT ... VALUES`/`... SELECT`, `DELETE`, `UPDATE`), and windowed
//! snapshot queries (`SEQ VT AS OF t (...)`,
//! `SEQ VT BETWEEN t1 AND t2 (...)`). Use [`parse_sql_statement`] /
//! [`parse_script`] for the full dialect and [`parse_statement`] for
//! queries alone.
//! The lexer is the one scanner of SQL text: [`parse_script`] returns each
//! statement with its text and [`fingerprint`], taken from one
//! tokenization's spans, for the session to hand to the log and the
//! statistics; [`split_script`] and [`ends_statement`] read the same tokens.

#![forbid(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

pub use ast::{
    AstExpr, ColumnDef, FromItem, InsertSource, OrderItem, QueryExpr, SelectItem, SelectStmt,
    SeqWindow, SqlStatement, Statement,
};
pub use binder::{bind_scalar_expr, bind_statement, BoundStatement};
pub use lexer::{ends_statement, fingerprint};
pub use parser::{
    parse_script, parse_sql_statement, parse_statement, split_script, ParsedStatement,
};
