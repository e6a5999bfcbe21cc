//! The embedded multiset execution engine.
//!
//! This crate plays the role of the DBMS underneath the paper's middleware:
//! it executes the logical plans of the `algebra` crate over the period
//! tables of the `storage` crate. It implements
//!
//! * the classic operators — filter, project, hash/nested-loop joins (plus
//!   the `index` crate's endpoint-sweep join, which stands in for the merge
//!   interval join the paper observed in system DBX), union all, bag
//!   difference, hash aggregation, distinct, sort — with SQL NULL
//!   semantics, and
//! * the temporal operators of the paper's implementation layer:
//!   multiset coalescing ([`coalesce`], Section 9's analytic-window
//!   algorithm), the split operator `N_G` ([`split`], Definition 8.3), and
//!   the fused pre-aggregating forms of snapshot bag difference and
//!   snapshot aggregation ([`temporal`], Section 9) — the latter over
//!   borrowed rows or a join's matched [`Pair`]s, never building a join row.
//!
//! The engine is in-memory and single-threaded: a statement runs every
//! operator on its caller's thread, and concurrency comes from sessions.
//! The paper's contribution is the *rewriting* and *encoding*, and keeping
//! the substrate simple lets the benchmark harness compare approaches
//! rather than runtimes-of-substrates.

#![forbid(unsafe_code)]

pub mod coalesce;
mod eval;
mod exec;
mod hash;
pub mod sliding;
pub mod split;
pub mod temporal;
pub mod vtab;

pub use eval::{eval_expr, eval_predicate, like_match, Columns, Pair, Prepared};
pub use exec::{
    explain_analyzed, Engine, EngineConfig, ExecContext, ExecStats, NodeActuals, NodeStats,
};
