//! Relational storage for the embedded engine: values, rows, schemas,
//! period tables, and the catalog.
//!
//! The paper's implementation layer operates on *SQL period relations*:
//! ordinary multiset relations in which two designated attributes hold the
//! begin and end points of each tuple's validity interval (Section 8). This
//! crate provides exactly that substrate:
//!
//! * [`Value`] — a dynamically typed SQL value with SQL-style `NULL` and a
//!   total canonical order (so relations have a deterministic, unique
//!   physical order — part of delivering the paper's *unique encoding*),
//! * [`Row`] — a tuple of values,
//! * [`Schema`]/[`Column`]/[`SqlType`] — named, typed, optionally
//!   table-qualified columns,
//! * [`Table`] — a multiset of rows plus an optional period specification,
//!   its rows in blocks of [`BLOCK_ROWS`] that copies share once sealed,
//! * [`Catalog`] — the named-table namespace queries are bound against.

#![forbid(unsafe_code)]

mod catalog;
mod row;
mod schema;
mod table;
mod value;

pub use catalog::Catalog;
pub use row::Row;
pub use schema::{Column, Schema, SqlType};
pub use table::{Table, BLOCK_ROWS};
pub use value::Value;
