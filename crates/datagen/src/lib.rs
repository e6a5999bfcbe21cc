//! Deterministic synthetic datasets for the paper's evaluation workloads.
//!
//! The paper evaluates on (a) the MySQL *Employees* dataset (~4M rows, six
//! period tables) and (b) *TPC-BiH*, a bitemporal TPC-H variant, restricted
//! to valid time (Section 10.1). Neither ships with this repository, so
//! this crate generates structurally equivalent stand-ins:
//!
//! * [`employees`] — the six-table Employees schema with the same temporal
//!   texture (multi-year careers, ~yearly salary slices, occasional title
//!   and department changes, a handful of manager stints), scaled by a
//!   single factor;
//! * [`tpcbih`] — a TPC-H schema subset with valid-time periods attached to
//!   every table, scaled by the usual TPC-H scale factor;
//! * [`random`] — arbitrary period relations for property-based testing.
//!
//! All generators are seeded and deterministic: the same scale produces the
//! same catalog, so benchmark numbers are reproducible run-to-run. Each
//! module also exports the workload queries of Section 10.1 in this
//! repository's SQL dialect.

#![forbid(unsafe_code)]

pub mod employees;
pub mod random;
pub mod tpcbih;
