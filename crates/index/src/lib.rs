//! Temporal index subsystem: sweep-line interval indexes for the snapshot
//! engine.
//!
//! Interval-overlap joins and timeslice/point-in-time lookups reduce to
//! questions about sorted interval endpoints, so this crate builds, once
//! per stored table, the structures that answer them without per-query
//! sorting (in the spirit of the Timeline Index line of work the paper
//! benchmarks against). Multiset coalescing is not served here: it runs
//! over derived rows (join and window outputs), not over a stored table,
//! so it stays one sorted pass in the engine.
//!
//! * [`EventList`] — begin- and end-sorted event lists, the sweep-line
//!   backbone ([`events`]),
//! * [`IntervalTree`] — a static centered interval tree for `O(log n + k)`
//!   timeslice stabbing and overlap probes ([`interval_tree`]),
//! * [`try_sweep_join_presorted`] / [`sweep_join_presorted`] — the
//!   `O(n + output)` endpoint-sweep temporal join over begin-sorted sides
//!   ([`join`]),
//! * [`TableIndex`] / [`IndexCatalog`] — per-table bundles and the
//!   registry the engine consults at dispatch time ([`table_index`]).
//!
//! Indexes are immutable snapshots keyed by [`storage::Table::version`];
//! the engine falls back to the naive operators whenever an index is
//! missing or stale, so both routes stay live and comparable (the
//! differential tests and the `baseline` oracle validate them against each
//! other). Maintenance is version-driven: [`IndexCatalog::ensure`] repairs
//! a stale entry by *extending* it when the table's append history
//! proves only appends happened since the indexed version
//! ([`TableIndex::extend_appended`] — event lists merge in
//! `O(n + k log k)` instead of re-sorting; the static interval tree is
//! rebuilt from the merged begin order, sorting nothing of its own), and
//! by a full rebuild otherwise (deletes, updates, replaced tables).

pub mod events;
pub mod interval_tree;
pub mod join;
pub mod table_index;

pub use events::EventList;
pub use interval_tree::IntervalTree;
pub use join::{sweep_join_presorted, try_sweep_join_presorted};
pub use table_index::{IndexCatalog, MaintenanceStats, TableIndex};
