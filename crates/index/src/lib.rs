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
//! * [`EventList`] — the begin-sorted event list, the sweep-line backbone
//!   ([`events`]),
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
//! other). Maintenance is version-driven and proportional to what a commit
//! wrote: when the table is a copy of the indexed version on which only
//! in-place updates and appends happened ([`storage::Table::edited_since`]),
//! [`IndexCatalog::ensure`] *edits* the index
//! ([`TableIndex::edited`]): the begin order merges the written rows in
//! without re-sorting the untouched ones, and the written positions join a
//! linearly stabbed tail beside the shared base tree, which is rebuilt
//! from the merged order once the tail passes an eighth of it. A pure
//! append is the edit with nothing replaced. Deletes and sorts (positions
//! move), replaced tables, and tables written in place rather than on a
//! copy since their index was built are rebuilt in full.

pub mod events;
pub mod interval_tree;
pub mod join;
pub mod table_index;

pub use events::EventList;
pub use interval_tree::IntervalTree;
pub use join::{sweep_join_presorted, try_sweep_join_presorted};
pub use table_index::{IndexCatalog, MaintenanceStats, TableIndex};
