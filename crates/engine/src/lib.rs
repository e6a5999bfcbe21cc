//! The embedded multiset execution engine.
//!
//! This crate plays the role of the DBMS underneath the paper's middleware:
//! it executes the logical plans of the `algebra` crate over the period
//! tables of the `storage` crate. It implements
//!
//! * the classic operators — filter, project, hash/nested-loop joins (plus a
//!   merge interval join, the strategy the paper observed in system DBX),
//!   union all, bag difference, hash aggregation, distinct, sort — with SQL
//!   NULL semantics, and
//! * the temporal operators of the paper's implementation layer:
//!   multiset coalescing ([`coalesce`], Section 9's analytic-window
//!   algorithm), the split operator `N_G` ([`split`], Definition 8.3), and
//!   the fused pre-aggregating forms of snapshot aggregation and snapshot
//!   bag difference ([`temporal`], Section 9).
//!
//! The engine is in-memory and, by default, single-threaded: the paper's
//! contribution is the *rewriting* and *encoding*, and keeping the substrate
//! simple lets the benchmark harness compare approaches rather than
//! runtimes-of-substrates. The one multi-core path is opt-in and
//! bag-equivalent to its sequential twin: with
//! [`EngineConfig::parallelism`] above 1, interval-overlap joins take the
//! slab-parallel endpoint sweep of the `index` crate (elementary-interval
//! partitioning over scoped worker threads).

pub mod coalesce;
mod eval;
mod exec;
pub mod sliding;
pub mod split;
pub mod temporal;
pub mod vtab;

pub use eval::{eval_expr, eval_predicate, like_match, Columns, Pair, Prepared};
pub use exec::{
    explain_analyzed, resolve_parallelism, Engine, EngineConfig, ExecContext, ExecStats,
    NodeActuals, NodeStats,
};
