//! Per-table index bundles and the catalog-level index registry.

use crate::{EventList, IntervalTree};
use snapshot_obs::{self as obs, LazyCounter, LazyHistogram};
use storage::{Catalog, Row, Table};

/// Index-maintenance telemetry: the repair split mirrors
/// [`MaintenanceStats`] in the global registry, and the histograms time the
/// two repair paths (an `ensure` hitting a fresh entry records nothing).
static FULL_BUILDS: LazyCounter = LazyCounter::new("index_full_builds_total");
static INCREMENTAL_BUILDS: LazyCounter = LazyCounter::new("index_incremental_builds_total");
static FULL_BUILD_SECONDS: LazyHistogram = LazyHistogram::new("index_full_build_seconds");
static INCREMENTAL_SECONDS: LazyHistogram = LazyHistogram::new("index_incremental_build_seconds");

/// The full index bundle of one stored period table:
///
/// * an [`EventList`] — sorted begin/end event lists, the sweep-line
///   backbone reused by the sort-merge temporal join,
/// * an [`IntervalTree`] — `O(log n + k)` timeslice stabbing and overlap
///   probes, built from the event list's begin order.
///
/// An index is a snapshot of the table at one [`Table::version`];
/// [`TableIndex::is_fresh`] detects staleness and [`IndexCatalog::ensure`]
/// rebuilds on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct TableIndex {
    version: u64,
    period: (usize, usize),
    events: EventList,
    tree: IntervalTree,
}

impl TableIndex {
    /// Builds the index bundle for a period table; returns `None` for
    /// non-temporal tables (nothing to index).
    pub fn build(table: &Table) -> Option<TableIndex> {
        let (ts, te) = table.period()?;
        let events = EventList::build(table.rows(), ts, te);
        Some(TableIndex::over(table, (ts, te), events))
    }

    /// The bundle around a finished event list: the tree takes its begin
    /// order.
    fn over(table: &Table, (ts, te): (usize, usize), events: EventList) -> TableIndex {
        let rows = table.rows();
        let tree = IntervalTree::from_begin_order(events.by_begin(), |id| rows[id].int(te));
        TableIndex {
            version: table.version(),
            period: (ts, te),
            events,
            tree,
        }
    }

    /// Incremental maintenance: the index for `table` given that this index
    /// covers exactly `table.rows()[0..old_len]` (i.e. only appends happened
    /// since it was built — the caller establishes this via
    /// [`Table::appended_since`]). The endpoint event lists *merge* the new
    /// rows' events into the existing sorted orders instead of re-sorting
    /// everything; the static interval tree is rebuilt from the merged begin
    /// order. Returns `None` when the table's period moved or `old_len` is
    /// inconsistent — callers then fall back to [`TableIndex::build`].
    pub fn extend_appended(&self, table: &Table, old_len: usize) -> Option<TableIndex> {
        let (ts, te) = table.period()?;
        if (ts, te) != self.period || old_len != self.events.len() || old_len > table.len() {
            return None;
        }
        let events = self.events.extended(table.rows(), ts, te, old_len);
        Some(TableIndex::over(table, (ts, te), events))
    }

    /// Whether the index still matches the table contents (version-based:
    /// every mutation of [`Table`] bumps its version).
    pub fn is_fresh(&self, table: &Table) -> bool {
        self.version == table.version() && Some(self.period) == table.period()
    }

    /// The table version the index was built at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The indexed period columns.
    pub fn period(&self) -> (usize, usize) {
        self.period
    }

    /// The endpoint event lists.
    pub fn events(&self) -> &EventList {
        &self.events
    }

    /// The interval tree.
    pub fn tree(&self) -> &IntervalTree {
        &self.tree
    }

    /// The timeslice at `t`: clones of all rows valid at `t`, in table
    /// order. `O(log n + k)` via interval-tree stabbing.
    pub fn timeslice_rows(&self, table: &Table, t: i64) -> Vec<Row> {
        debug_assert!(self.is_fresh(table));
        let rows = table.rows();
        self.tree
            .stab(t)
            .into_iter()
            .map(|id| rows[id].clone())
            .collect()
    }

    /// All rows whose validity interval overlaps the half-open query
    /// `[b, e)`, in table order. `O(log n + k)` via interval-tree overlap
    /// probing — the physical backbone of range-restricted
    /// (`SEQ VT BETWEEN`) evaluation.
    ///
    /// # Panics
    /// Panics when the query interval is empty.
    pub fn overlapping_rows(&self, table: &Table, b: i64, e: i64) -> Vec<Row> {
        debug_assert!(self.is_fresh(table));
        let rows = table.rows();
        self.tree
            .overlapping(b, e)
            .into_iter()
            .map(|id| rows[id].clone())
            .collect()
    }
}

/// Counters describing how [`IndexCatalog::ensure`] repaired stale entries
/// — the observable split between full rebuilds and the append-only
/// incremental fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Indexes built from scratch (first build, or structural mutation).
    pub full_builds: u64,
    /// Indexes extended in place after pure appends.
    pub incremental_builds: u64,
}

/// The namespace of table indexes, mirroring [`storage::Catalog`].
///
/// The registry is deliberately separate from the catalog (the storage
/// layer stays index-agnostic); the engine consults it at dispatch time and
/// silently falls back to the naive operators for unindexed or stale
/// entries.
///
/// Entries are held behind [`std::sync::Arc`], so cloning the registry is
/// cheap — an MVCC snapshot pins the index registry together with the
/// catalog and keeps serving index-accelerated reads no matter how the
/// committed registry evolves. Repairs ([`IndexCatalog::ensure`]) swap in
/// a fresh `Arc`; pinned clones keep the entry they saw.
#[derive(Debug, Clone, Default)]
pub struct IndexCatalog {
    indexes: std::collections::BTreeMap<String, std::sync::Arc<TableIndex>>,
    maintenance: MaintenanceStats,
}

// Equality compares the registered indexes only; the maintenance counters
// are observability, not state.
impl PartialEq for IndexCatalog {
    fn eq(&self, other: &Self) -> bool {
        self.indexes == other.indexes
    }
}

impl IndexCatalog {
    /// An empty registry.
    pub fn new() -> Self {
        IndexCatalog::default()
    }

    /// Builds indexes for every period table of the catalog.
    pub fn build_all(catalog: &Catalog) -> Self {
        let mut reg = IndexCatalog::new();
        for name in catalog.table_names().collect::<Vec<_>>() {
            let table = catalog.get(name).unwrap();
            if let Some(idx) = TableIndex::build(table) {
                reg.indexes
                    .insert(name.to_string(), std::sync::Arc::new(idx));
            }
        }
        reg
    }

    /// Registers (or replaces) an index for `name`.
    pub fn register(&mut self, name: impl Into<String>, index: TableIndex) {
        self.indexes.insert(name.into(), std::sync::Arc::new(index));
    }

    /// A fresh index for `name`, or `None` when missing or stale.
    pub fn get_fresh(&self, name: &str, table: &Table) -> Option<&TableIndex> {
        self.indexes
            .get(name)
            .map(std::sync::Arc::as_ref)
            .filter(|idx| idx.is_fresh(table))
    }

    /// Index maintenance: repairs the entry when missing or stale, then
    /// returns it (`None` for non-temporal tables).
    ///
    /// When the table's [`Table::appended_since`] history shows that only
    /// appends happened since the indexed version, the existing index is
    /// *extended* ([`TableIndex::extend_appended`] — sorted structures
    /// merge instead of re-sorting); deletes, updates, and replaced tables
    /// fall back to a full [`TableIndex::build`]. The split is observable
    /// via [`IndexCatalog::maintenance`].
    pub fn ensure(&mut self, name: &str, table: &Table) -> Option<&TableIndex> {
        let stale = self
            .indexes
            .get(name)
            .map(|idx| !idx.is_fresh(table))
            .unwrap_or(true);
        if stale {
            let _span = obs::Span::enter("index.ensure");
            let started = std::time::Instant::now();
            let incremental = self.indexes.get(name).and_then(|idx| {
                table
                    .appended_since(idx.version())
                    .and_then(|old_len| idx.extend_appended(table, old_len))
            });
            let (built, was_incremental) = match incremental {
                Some(idx) => (Some(idx), true),
                None => (TableIndex::build(table), false),
            };
            match built {
                Some(idx) => {
                    if was_incremental {
                        self.maintenance.incremental_builds += 1;
                        INCREMENTAL_BUILDS.inc();
                        INCREMENTAL_SECONDS.observe_duration(started.elapsed());
                    } else {
                        self.maintenance.full_builds += 1;
                        FULL_BUILDS.inc();
                        FULL_BUILD_SECONDS.observe_duration(started.elapsed());
                    }
                    self.indexes
                        .insert(name.to_string(), std::sync::Arc::new(idx));
                }
                None => {
                    self.indexes.remove(name);
                }
            }
        }
        self.indexes.get(name).map(std::sync::Arc::as_ref)
    }

    /// Drops the index for `name` (table dropped or replaced).
    pub fn remove(&mut self, name: &str) -> Option<std::sync::Arc<TableIndex>> {
        self.indexes.remove(name)
    }

    /// How `ensure` repaired stale entries so far.
    pub fn maintenance(&self) -> MaintenanceStats {
        self.maintenance
    }

    /// Look up the registered index for `name` regardless of freshness
    /// (introspection: the `snapshot_stat_indexes` virtual table reports
    /// stale entries as such instead of hiding them).
    pub fn get(&self, name: &str) -> Option<&TableIndex> {
        self.indexes.get(name).map(|arc| arc.as_ref())
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Names of all indexed tables, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.indexes.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{row, Schema, SqlType};

    fn works_table() -> Table {
        let schema = Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 2, 3);
        t.push(row!["Ann", "SP", 3, 10]);
        t.push(row!["Joe", "NS", 8, 16]);
        t.push(row!["Sam", "SP", 8, 16]);
        t.push(row!["Ann", "SP", 18, 20]);
        t
    }

    #[test]
    fn builds_for_period_tables_only() {
        let t = works_table();
        let idx = TableIndex::build(&t).unwrap();
        assert_eq!(idx.period(), (2, 3));
        assert_eq!(idx.events().len(), 4);

        let schema = Schema::of(&[
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
            ("name", SqlType::Str),
        ]);
        let mut leading = Table::with_period(schema, 0, 1);
        leading.push(row![1, 2, "x"]);
        let idx = TableIndex::build(&leading).unwrap();
        assert_eq!(idx.period(), (0, 1), "the period need not be last");
        assert_eq!(idx.timeslice_rows(&leading, 1), leading.rows());

        let plain = Table::new(Schema::of(&[("x", SqlType::Int)]));
        assert!(TableIndex::build(&plain).is_none());
    }

    #[test]
    fn timeslice_matches_scan() {
        let t = works_table();
        let idx = TableIndex::build(&t).unwrap();
        for at in -1..25 {
            let via_index = idx.timeslice_rows(&t, at);
            let via_scan: Vec<Row> = t
                .rows()
                .iter()
                .filter(|r| r.int(2) <= at && at < r.int(3))
                .cloned()
                .collect();
            assert_eq!(via_index, via_scan, "timeslice at {at}");
        }
    }

    #[test]
    fn staleness_detected_and_repaired() {
        let mut t = works_table();
        let idx = TableIndex::build(&t).unwrap();
        assert!(idx.is_fresh(&t));
        t.push(row!["Eve", "SP", 0, 2]);
        assert!(!idx.is_fresh(&t), "mutation must invalidate");

        let mut c = Catalog::new();
        c.register("works", t.clone());
        let mut reg = IndexCatalog::build_all(&c);
        assert_eq!(reg.len(), 1);
        assert!(reg.get_fresh("works", &t).is_some());

        t.push(row!["Zed", "NS", 1, 3]);
        assert!(reg.get_fresh("works", &t).is_none(), "stale after push");
        let rebuilt = reg.ensure("works", &t).unwrap();
        assert_eq!(rebuilt.version(), t.version());
        assert_eq!(rebuilt.events().len(), 6);
    }

    #[test]
    fn begin_order_is_begin_sorted() {
        let t = works_table();
        let idx = TableIndex::build(&t).unwrap();
        let rows = t.rows();
        let begins: Vec<i64> = idx.events().begin_order().map(|i| rows[i].int(2)).collect();
        let mut sorted = begins.clone();
        sorted.sort_unstable();
        assert_eq!(begins, sorted);
    }

    #[test]
    fn append_only_mutations_take_the_incremental_path() {
        let mut t = works_table();
        let mut c = Catalog::new();
        c.register("works", t.clone());
        let mut reg = IndexCatalog::build_all(&c);
        assert_eq!(reg.maintenance(), MaintenanceStats::default());

        // Pure appends: the repaired index must equal a full rebuild, via
        // the incremental path.
        t.push(row!["Eve", "SP", 0, 2]);
        t.extend(vec![row!["Zed", "NS", 1, 3], row!["Pam", "SP", 2, 19]]);
        let repaired = reg.ensure("works", &t).unwrap().clone();
        assert_eq!(repaired, TableIndex::build(&t).unwrap());
        assert_eq!(repaired.version(), t.version());
        assert_eq!(
            reg.maintenance(),
            MaintenanceStats {
                full_builds: 0,
                incremental_builds: 1
            }
        );

        // The incremental index answers probes exactly like a fresh one.
        for at in -1..21 {
            let via_index = repaired.timeslice_rows(&t, at);
            let via_scan: Vec<Row> = t
                .rows()
                .iter()
                .filter(|r| r.int(2) <= at && at < r.int(3))
                .cloned()
                .collect();
            assert_eq!(via_index, via_scan, "timeslice at {at}");
        }

        // A structural mutation forces the full rebuild path.
        t.delete_where(|r| r.int(2) >= 18);
        reg.ensure("works", &t).unwrap();
        assert_eq!(
            reg.maintenance(),
            MaintenanceStats {
                full_builds: 1,
                incremental_builds: 1
            }
        );
    }

    #[test]
    fn replaced_table_never_takes_the_incremental_path() {
        // A look-alike table replacing the catalog entry must not be
        // treated as "the indexed table plus appends".
        let t = works_table();
        let mut c = Catalog::new();
        c.register("works", t.clone());
        let mut reg = IndexCatalog::build_all(&c);

        let mut replacement = works_table();
        replacement.push(row!["Eve", "SP", 0, 2]);
        let repaired = reg.ensure("works", &replacement).unwrap();
        assert_eq!(repaired.version(), replacement.version());
        assert_eq!(reg.maintenance().full_builds, 1);
        assert_eq!(reg.maintenance().incremental_builds, 0);
    }

    #[test]
    fn overlapping_rows_matches_scan() {
        let t = works_table();
        let idx = TableIndex::build(&t).unwrap();
        for b in -2..22 {
            for e in (b + 1)..23 {
                let via_index = idx.overlapping_rows(&t, b, e);
                let via_scan: Vec<Row> = t
                    .rows()
                    .iter()
                    .filter(|r| r.int(2) < e && b < r.int(3))
                    .cloned()
                    .collect();
                assert_eq!(via_index, via_scan, "overlap [{b}, {e})");
            }
        }
    }

    #[test]
    fn build_all_skips_non_temporal() {
        let mut c = Catalog::new();
        c.register("works", works_table());
        c.register("plain", Table::new(Schema::of(&[("x", SqlType::Int)])));
        let reg = IndexCatalog::build_all(&c);
        assert_eq!(reg.table_names().collect::<Vec<_>>(), vec!["works"]);
    }
}
