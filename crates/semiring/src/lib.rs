//! Commutative semirings, m-semirings, and homomorphisms for K-relations.
//!
//! The annotation framework of Green et al. (PODS 2007) models set relations,
//! multiset relations, provenance-annotated relations, and more as
//! *K-relations*: relations in which every tuple carries an annotation from a
//! commutative semiring `K`. *Snapshot Semantics for Temporal Multiset
//! Relations* (Dignös et al., PVLDB 2019) builds its temporal models on top
//! of this framework, so this crate provides:
//!
//! * [`CommutativeSemiring`] — the algebraic interface (Definition 4.1 of the
//!   paper relies on `+K` and `·K`),
//! * [`NaturallyOrdered`] and [`MSemiring`] — semirings with a well-defined
//!   *monus* (truncated difference), following Geerts & Poggi, used for
//!   snapshot bag difference (Section 7.1),
//! * [`SemiringHomomorphism`] — structure-preserving maps, which commute with
//!   queries and are the key proof device for the timeslice operator
//!   (Theorem 6.3),
//! * concrete semirings: [`Boolean`] (set semantics), [`Natural`] (multiset
//!   semantics), [`Lineage`], [`Why`] (provenance), [`Polynomial`] (N\[X\]
//!   provenance polynomials), and [`Tropical`] (min-cost), demonstrating that
//!   the temporal construction of the paper applies to *any* semiring `K`.
//!
//! # Context
//!
//! Some semirings need external data to construct their neutral elements: the
//! period semiring `K^T` of the paper needs the time domain `T` to build its
//! multiplicative identity (the annotation mapping `[Tmin, Tmax)` to `1K`).
//! The trait therefore threads an associated [`CommutativeSemiring::Ctx`]
//! through `zero`/`one`; plain semirings use `Ctx = ()`.

#![forbid(unsafe_code)]

mod boolean;
mod hom;
pub mod laws;
mod lineage;
mod natural;
mod polynomial;
mod traits;
mod tropical;
mod why;

pub use boolean::Boolean;
pub use hom::{support, FnHom, SemiringHomomorphism};
pub use lineage::{Lineage, TupleId};
pub use natural::Natural;
pub use polynomial::{CountDerivations, Monomial, Polynomial};
pub use traits::{CommutativeSemiring, MSemiring, NaturallyOrdered};
pub use tropical::Tropical;
pub use why::Why;
