//! Temporal index subsystem: sweep-line interval indexes for the snapshot
//! engine.
//!
//! The paper's snapshot-reducible operators spend their runtime in three
//! places: interval-overlap joins, timeslice/point-in-time lookups, and
//! multiset coalescing. All three reduce to questions about sorted interval
//! endpoints, so this crate builds — once per stored table — the structures
//! that answer them without per-query sorting (in the spirit of the
//! Timeline Index line of work the paper benchmarks against):
//!
//! * [`EventList`] — begin- and end-sorted event lists, the sweep-line
//!   backbone ([`events`]),
//! * [`IntervalTree`] — a static centered interval tree for `O(log n + k)`
//!   timeslice stabbing and overlap probes ([`interval_tree`]),
//! * [`CoalesceIndex`] — presorted per-group endpoint events, the
//!   coalescing accelerator ([`coalesce`]),
//! * [`sweep_join`] / [`sweep_join_presorted`] — the `O(n log n + output)`
//!   endpoint-sweep temporal join ([`join`]),
//! * [`try_parallel_sweep_join_presorted`] — the same join partitioned into
//!   contiguous time slabs along elementary-interval boundaries and run on
//!   scoped worker threads, with boundary-straddling duplicates suppressed
//!   by an overlap-start credit rule ([`parallel`]),
//! * [`TableIndex`] / [`IndexCatalog`] — per-table bundles and the
//!   registry the engine consults at dispatch time ([`table_index`]).
//!
//! Indexes are immutable snapshots keyed by [`storage::Table::version`];
//! the engine falls back to the naive operators whenever an index is
//! missing or stale, so both routes stay live and comparable (the
//! differential tests and the `baseline` oracle validate them against each
//! other). Maintenance is version-driven: [`IndexCatalog::ensure`] repairs
//! a stale entry by *extending* it when the table's append-checkpoint
//! history proves only appends happened since the indexed version
//! ([`TableIndex::extend_appended`] — event lists merge in
//! `O(n + k log k)` instead of re-sorting; the static interval tree is
//! rebuilt from the merged begin order, sorting nothing of its own), and
//! by a full rebuild otherwise (deletes, updates, replaced tables). The
//! coalescing accelerator is never maintained: a bundle builds it on the
//! first coalesce that asks ([`TableIndex::coalesce`]) and keeps it.

pub mod coalesce;
pub mod events;
pub mod interval_tree;
pub mod join;
pub mod parallel;
pub mod table_index;

pub use coalesce::CoalesceIndex;
pub use events::EventList;
pub use interval_tree::IntervalTree;
pub use join::{sweep_join, sweep_join_presorted, try_sweep_join_presorted};
pub use parallel::{
    choose_cuts, elementary_boundaries, elementary_boundaries_from_events,
    try_parallel_sweep_join_presorted, ParallelJoinStats,
};
pub use table_index::{IndexCatalog, MaintenanceStats, TableIndex};
