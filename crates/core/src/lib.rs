//! The abstract and logical temporal models of *Snapshot Semantics for
//! Temporal Multiset Relations* (Dignös et al., PVLDB 2019).
//!
//! The paper's three-level architecture (its Figure 2):
//!
//! 1. **Abstract model** — [`SnapshotRelation`]: a function from time points
//!    to K-relations. Queries are evaluated snapshot-by-snapshot, which makes
//!    snapshot-reducibility hold *by construction* (Section 4.2). Verbose,
//!    but the semantic ground truth.
//! 2. **Logical model** — [`PeriodRelation`]: one tuple per distinct data
//!    value, annotated with a [`TemporalElement`] in K-coalesced normal form
//!    (Sections 5 and 6). The annotations form the *period semiring* `K^T`;
//!    queries are ordinary K-relational queries over that semiring. This
//!    crate verifies the representation-system properties empirically via
//!    extensive property tests (uniqueness, snapshot-preservation,
//!    snapshot-reducibility; Definition 4.5).
//! 3. **Implementation model** — SQL period relations and the `REWR`
//!    rewriting, provided by the `rewrite` and `engine` crates on top of the
//!    types defined here.
//!
//! The module split mirrors the paper:
//!
//! * [`telement`] — temporal K-elements and K-coalescing (Section 5),
//! * [`period_semiring`] — the semiring structure `K^T` on coalesced
//!   elements, its monus, and the timeslice homomorphism (Sections 6–7),
//! * [`krelation`] — generic K-relations and `RA+`/monus/aggregation over
//!   them (Section 4.1),
//! * [`snapshot`] — snapshot K-relations, the abstract model (Section 4.2),
//! * [`period_relation`] — period K-relations, `ENC_K`, and queries over the
//!   logical model (Sections 6.2–6.3, 7),
//! * [`repr`] — executable checks for the representation-system conditions
//!   (Definition 4.5).

#![forbid(unsafe_code)]

pub mod krelation;
pub mod period_relation;
pub mod period_semiring;
pub mod repr;
pub mod snapshot;
pub mod telement;

pub use krelation::KRelation;
pub use period_relation::PeriodRelation;
pub use period_semiring::timeslice_hom;
pub use snapshot::SnapshotRelation;
pub use telement::TemporalElement;
