//! `PERIODENC` and the `REWR` rewriting scheme (paper Sections 8–9).
//!
//! This crate is the middleware of the paper: it translates snapshot
//! semantics queries ([`algebra::SnapshotPlan`], produced from `SEQ VT`
//! blocks by the `sql` crate) into ordinary multiset plans over SQL period
//! relations, which the `engine` crate executes. Two optimization levers
//! from Section 9 are exposed as [`RewriteOptions`]:
//!
//! * **single final coalesce** — by Lemma 6.1 (extended to the monus in the
//!   paper's technical report) the per-operator `C` applications of Figure 4
//!   can all be dropped except one final application;
//! * **fused split with pre-aggregation** — snapshot aggregation and bag
//!   difference can either materialize the split operator's output and
//!   aggregate it (the literal Figure 4 reading) or use the engine's fused
//!   operators that pre-aggregate per interval and compute final results
//!   during the sweep — coalesced, so the final `C` above them is absorbed
//!   (`algebra::Plan::coalesce`).
//!
//! The defaults enable both, matching the configuration the paper evaluates;
//! `paper_tables ablation` turns them off individually.
//!
//! [`periodenc`] hosts the `PERIODENC`/`PERIODENC⁻¹` mappings between
//! engine tables and the logical model of `snapshot_core`, used by the
//! equivalence tests (the commuting diagram of Theorem 8.1).

#![forbid(unsafe_code)]

pub mod periodenc;
mod rewriter;

pub use rewriter::{infer_domain, RewriteOptions, SnapshotCompiler};
