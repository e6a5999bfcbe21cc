//! Comparator implementations for the paper's evaluation.
//!
//! Three evaluators for snapshot queries, mirroring the systems compared in
//! Section 10 and the approach matrix of Table 1:
//!
//! * [`pointwise`] — the executable form of the *abstract model*: evaluate
//!   the query over every snapshot of the time domain and encode the result.
//!   Slow by construction (the paper notes the same about SQL/TP-style
//!   evaluation), but it is the ground truth every other implementation is
//!   tested against.
//! * [`native`] with [`BaselineKind::Alignment`] — a PG-Nat-style
//!   evaluator (temporal alignment, refs [16, 18] of the paper):
//!   per-operator input splitting, aggregation *without* gap rows (the AG
//!   bug), difference with *set* semantics (the BD bug), and no
//!   pre-aggregation.
//! * [`native`] with [`BaselineKind::IntervalPreservation`] — an
//!   ATSQL-style evaluator: intervals of input tuples survive into outputs,
//!   with the same AG and BD bugs and a non-unique output encoding.
//!
//! The bug-detection helpers in [`bugs`] compare any evaluator against the
//! oracle and report aggregation-gap and bag-difference discrepancies —
//! that is how the harness fills in the "Bug" column of Table 3 and the
//! matrix of Table 1 experimentally.

#![forbid(unsafe_code)]

pub mod bugs;
pub mod native;
pub mod pointwise;

pub use native::{BaselineKind, NativeEvaluator};
pub use pointwise::PointwiseOracle;
