//! Logical relational algebra and scalar expressions.
//!
//! The `sql` crate binds SQL text into these [`Plan`]s; the `rewrite` crate
//! transforms snapshot-semantics plans into non-temporal plans over the
//! period encoding (the paper's `REWR`, Figure 4); the `engine` crate
//! executes them.
//!
//! The plan language is ordinary multiset relational algebra plus the three
//! temporal operators the implementation layer needs (paper Sections 8–9):
//!
//! * [`PlanNode::Coalesce`] — multiset temporal coalescing (`C`, Def. 8.2),
//! * [`PlanNode::Split`] — the split operator (`N_G`, Def. 8.3),
//! * [`PlanNode::TemporalAggregate`] / [`PlanNode::TemporalExceptAll`] — the
//!   fused, pre-aggregating forms of the aggregation and difference rewrites
//!   described in Section 9 (the unfused forms express the same queries via
//!   `Aggregate`/`ExceptAll` over `Split`, and `paper_tables ablation`
//!   measures both).
//!
//! Temporal operators follow one convention: **the period columns are the
//! last two columns** of their input and output. The rewriter establishes
//! and maintains this invariant.

#![forbid(unsafe_code)]

mod expr;
mod plan;
mod snapshot_plan;
pub mod vtab;

pub use expr::{AggExpr, AggFunc, BinOp, Expr};
pub use plan::{JoinAlgo, Plan, PlanNode};
pub use snapshot_plan::{SnapshotNode, SnapshotPlan};
