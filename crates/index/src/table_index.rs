//! Per-table index bundles and the catalog-level index registry.

use crate::{EventList, IntervalTree};
use snapshot_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
use storage::{Catalog, Row, Table};

/// Index-maintenance telemetry in a database's registry: the two repair
/// counters [`MaintenanceStats::read`] reports, and histograms timing the
/// two repair paths (an `ensure` hitting a fresh entry records nothing).
#[derive(Debug)]
struct IndexMetrics {
    full_builds: Arc<Counter>,
    incremental_builds: Arc<Counter>,
    full_build_seconds: Arc<Histogram>,
    incremental_build_seconds: Arc<Histogram>,
}

/// An edited index re-bases once its tail holds more than
/// `base.len() / REBASE_SHARE` positions.
const REBASE_SHARE: usize = 8;

/// The full index bundle of one stored period table:
///
/// * an [`EventList`] — the begin-sorted event list, the sweep-line
///   backbone reused by the sort-merge temporal join,
/// * a *base* [`IntervalTree`] — `O(log n + k)` timeslice stabbing and
///   overlap probes over the table as it was at some version, built from
///   that version's begin order and shared by every later index edited
///   from it,
/// * a *tail* — the positions replaced or appended since the base, with
///   their current endpoints, stabbed linearly; the base's answers for
///   those positions are stale and skipped during its walk.
///
/// An index is a snapshot of the table at one [`Table::version`];
/// [`TableIndex::is_fresh`] detects staleness and [`IndexCatalog::ensure`]
/// repairs it. Every answer equals that of [`TableIndex::build`] over the
/// same table, whatever the split between base and tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TableIndex {
    version: u64,
    period: (usize, usize),
    events: EventList,
    base: Arc<IntervalTree>,
    /// `(id, begin, end)`, ascending by id.
    tail: Vec<(u32, i64, i64)>,
    /// One bit per base position (bit `id % 64` of word `id / 64`), set
    /// for the tail's: the base's entries for them are stale. Empty while
    /// the tail is.
    stale: Vec<u64>,
}

impl TableIndex {
    /// Builds the index bundle for a period table; returns `None` for
    /// non-temporal tables (nothing to index).
    pub fn build(table: &Table) -> Option<TableIndex> {
        let (ts, te) = table.period()?;
        let events = EventList::build(table.iter(), ts);
        Some(TableIndex::rebased(table, (ts, te), events))
    }

    /// The bundle around a finished event list, with an empty tail: the
    /// base tree takes the list's begin order.
    fn rebased(table: &Table, (ts, te): (usize, usize), events: EventList) -> TableIndex {
        let base = IntervalTree::from_begin_order(events.by_begin(), |id| table.row(id).int(te));
        TableIndex {
            version: table.version(),
            period: (ts, te),
            events,
            base: Arc::new(base),
            tail: Vec::new(),
            stale: Vec::new(),
        }
    }

    /// Edit-proportional maintenance: the index for `table` given that
    /// this index covers a version at which the table had `old_len` rows,
    /// and that since then only the rows at `replaced` (ascending, each
    /// below `old_len`) were rewritten in place and `rows[old_len..]`
    /// appended — what [`Table::edited_since`] reports. The begin order
    /// merges the edited rows in ([`EventList::edited`]) and the tail takes
    /// their current endpoints, sharing the base tree; once the tail holds
    /// more than an eighth of the base, the tree is re-based on the merged
    /// begin order (sorting nothing). Returns `None` when the table's
    /// period moved or `old_len` is inconsistent — callers then fall back
    /// to [`TableIndex::build`].
    pub fn edited(&self, table: &Table, old_len: usize, replaced: &[usize]) -> Option<TableIndex> {
        let (ts, te) = table.period()?;
        if (ts, te) != self.period || old_len != self.events.len() || old_len > table.len() {
            return None;
        }
        let events = self.events.edited(table, ts, old_len, replaced);
        let mut ids: Vec<usize> = self.tail.iter().map(|&(id, ..)| id as usize).collect();
        // Two ascending runs: the stable sort merges them in linear time.
        ids.extend_from_slice(replaced);
        ids.sort();
        ids.dedup();
        ids.extend(old_len..table.len());
        if ids.len() * REBASE_SHARE > self.base.len() {
            return Some(TableIndex::rebased(table, self.period, events));
        }
        let mut stale = vec![0u64; self.base.len().div_ceil(64)];
        for &id in ids.iter().filter(|&&id| id < self.base.len()) {
            stale[id / 64] |= 1 << (id % 64);
        }
        let tail = ids
            .into_iter()
            .map(|id| {
                let row = table.row(id);
                (id as u32, row.int(ts), row.int(te))
            })
            .collect();
        Some(TableIndex {
            version: table.version(),
            period: self.period,
            events,
            base: Arc::clone(&self.base),
            tail,
            stale,
        })
    }

    /// [`TableIndex::edited`] after pure appends: this index covers
    /// exactly the first `old_len` rows of `table` (the caller establishes this via
    /// [`Table::edited_since`]).
    pub fn extend_appended(&self, table: &Table, old_len: usize) -> Option<TableIndex> {
        self.edited(table, old_len, &[])
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

    /// The begin-sorted event list.
    pub fn events(&self) -> &EventList {
        &self.events
    }

    /// Ids of all rows valid at `t`, ascending: a base-tree stab merged
    /// with the tail's. `O(log n + k + tail)`.
    pub fn stab(&self, t: i64) -> Vec<usize> {
        if self.tail.is_empty() {
            return self.base.stab(t);
        }
        let from_base = self.base.stab_where(t, |id| self.fresh_in_base(id));
        self.with_tail(from_base, |b, e| b <= t && t < e)
    }

    /// Ids of all rows whose interval overlaps the half-open query
    /// `[b, e)`, ascending: a base-tree overlap probe merged with the
    /// tail's.
    ///
    /// # Panics
    /// Panics when the query interval is empty.
    pub fn overlapping(&self, b: i64, e: i64) -> Vec<usize> {
        if self.tail.is_empty() {
            return self.base.overlapping(b, e);
        }
        let from_base = self
            .base
            .overlapping_where(b, e, |id| self.fresh_in_base(id));
        self.with_tail(from_base, |tb, te| tb < e && b < te)
    }

    /// Whether the base's entry for position `id` is current: `id` is not
    /// in the tail.
    fn fresh_in_base(&self, id: u32) -> bool {
        let id = id as usize;
        self.stale
            .get(id / 64)
            .is_none_or(|word| word >> (id % 64) & 1 == 0)
    }

    /// The base's ascending answer `from_base`, which holds no tail
    /// position, merged with the tail positions whose current endpoints
    /// `hit` accepts.
    fn with_tail(&self, from_base: Vec<usize>, hit: impl Fn(i64, i64) -> bool) -> Vec<usize> {
        let mut out = Vec::with_capacity(from_base.len() + self.tail.len());
        let mut base = from_base.into_iter().peekable();
        for &(id, b, e) in &self.tail {
            if hit(b, e) {
                let id = id as usize;
                while let Some(earlier) = base.next_if(|&h| h < id) {
                    out.push(earlier);
                }
                out.push(id);
            }
        }
        out.extend(base);
        out
    }

    /// The timeslice at `t`: clones of all rows valid at `t`, in table
    /// order, via [`TableIndex::stab`]. The engine stabs the index itself
    /// and lends the rows instead of cloning them; this (and
    /// [`TableIndex::overlapping_rows`]) is the benchmark's micro-measure
    /// of the stab.
    pub fn timeslice_rows(&self, table: &Table, t: i64) -> Vec<Row> {
        debug_assert!(self.is_fresh(table));
        self.stab(t)
            .into_iter()
            .map(|id| table.row(id).clone())
            .collect()
    }

    /// All rows whose validity interval overlaps the half-open query
    /// `[b, e)`, in table order, via [`TableIndex::overlapping`] — the
    /// physical backbone of range-restricted (`SEQ VT BETWEEN`)
    /// evaluation.
    ///
    /// # Panics
    /// Panics when the query interval is empty.
    pub fn overlapping_rows(&self, table: &Table, b: i64, e: i64) -> Vec<Row> {
        debug_assert!(self.is_fresh(table));
        self.overlapping(b, e)
            .into_iter()
            .map(|id| table.row(id).clone())
            .collect()
    }
}

/// How [`IndexCatalog::ensure`] has repaired stale entries across one
/// database — the split between full builds and edits applied to a base,
/// as its metrics registry counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Indexes built from scratch (first build, a mutation that moved
    /// positions, a replaced table, a table that is no copy of the indexed
    /// version) and re-bases of an edited index.
    pub full_builds: u64,
    /// Edits (in-place updates and appends) applied to a base in
    /// proportion to the rows they wrote.
    pub incremental_builds: u64,
}

impl MaintenanceStats {
    /// The repair counts recorded in `metrics` by every registry built
    /// with [`IndexCatalog::recording_into`] it.
    pub fn read(metrics: &MetricsRegistry) -> Self {
        let count = |name| metrics.get_counter(name).map_or(0, |c| c.get());
        MaintenanceStats {
            full_builds: count("index_full_builds_total"),
            incremental_builds: count("index_incremental_builds_total"),
        }
    }
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
/// committed registry evolves. Only the registry's owner repairs it
/// ([`IndexCatalog::ensure`], [`IndexCatalog::refresh`]) when a write
/// publishes tables into it: a shared database's transaction manager, or
/// an owned database's session as it commits. Readers never do; a stale
/// entry just sends them down the naive route.
#[derive(Debug, Clone, Default)]
pub struct IndexCatalog {
    indexes: std::collections::BTreeMap<String, std::sync::Arc<TableIndex>>,
    /// `None` records nothing (a registry built outside any database).
    metrics: Option<Arc<IndexMetrics>>,
}

// Equality compares the registered indexes only; the metrics handles are
// observability, not state.
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

    /// An empty registry whose repairs are recorded in `metrics` (a
    /// database's registry).
    pub fn recording_into(metrics: &MetricsRegistry) -> Self {
        IndexCatalog {
            metrics: Some(Arc::new(IndexMetrics {
                full_builds: metrics.counter("index_full_builds_total"),
                incremental_builds: metrics.counter("index_incremental_builds_total"),
                full_build_seconds: metrics.histogram("index_full_build_seconds"),
                incremental_build_seconds: metrics.histogram("index_incremental_build_seconds"),
            })),
            ..IndexCatalog::default()
        }
    }

    /// Builds indexes for every period table of the catalog.
    pub fn build_all(catalog: &Catalog) -> Self {
        let mut reg = IndexCatalog::new();
        reg.refresh(catalog, catalog.table_names());
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
    /// When the table is a copy of the indexed version that moved no
    /// position ([`Table::edited_since`]; a commit writes such a copy),
    /// the existing index is *edited* ([`TableIndex::edited`] — the begin
    /// order merges the written rows in, the tail takes their endpoints,
    /// and past an eighth of the base the tree re-bases). Deletes, sorts,
    /// replaced tables and tables written in place, not on a copy, fall
    /// back to a full [`TableIndex::build`]. The split is
    /// observable via [`MaintenanceStats::read`]: an edit that keeps its
    /// base counts as incremental, a build or a re-base as full.
    pub fn ensure(&mut self, name: &str, table: &Table) -> Option<&TableIndex> {
        let stale = self
            .indexes
            .get(name)
            .map(|idx| !idx.is_fresh(table))
            .unwrap_or(true);
        if stale {
            let started = std::time::Instant::now();
            let old = self.indexes.get(name);
            let edited = old.and_then(|idx| {
                let (old_len, replaced) = table.edited_since(idx.version())?;
                idx.edited(table, old_len, replaced)
            });
            let incremental = matches!((old, &edited),
                (Some(old), Some(new)) if Arc::ptr_eq(&old.base, &new.base));
            match edited.or_else(|| TableIndex::build(table)) {
                Some(idx) => {
                    if let Some(m) = self.metrics.as_deref() {
                        let (count, seconds) = if incremental {
                            (&m.incremental_builds, &m.incremental_build_seconds)
                        } else {
                            (&m.full_builds, &m.full_build_seconds)
                        };
                        count.inc();
                        seconds.observe_duration(started.elapsed());
                    }
                    self.indexes.insert(name.to_string(), Arc::new(idx));
                }
                None => {
                    self.indexes.remove(name);
                }
            }
        }
        self.indexes.get(name).map(Arc::as_ref)
    }

    /// Repairs the entries of `names` against `catalog` ([`IndexCatalog::ensure`]);
    /// a name the catalog no longer holds loses its entry.
    pub fn refresh<'a>(&mut self, catalog: &Catalog, names: impl IntoIterator<Item = &'a str>) {
        for name in names {
            if let Some(table) = catalog.get(name) {
                self.ensure(name, table);
            } else {
                self.indexes.remove(name);
            }
        }
    }

    /// Drops the index for `name` (table dropped or replaced).
    pub fn remove(&mut self, name: &str) -> Option<std::sync::Arc<TableIndex>> {
        self.indexes.remove(name)
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

    /// `works_table` padded with `n` short periods, so that a few edits
    /// stay within an eighth of the base.
    fn padded_works_table(n: i64) -> Table {
        let mut t = works_table();
        t.extend((0..n).map(|i| row!["Pad", "NS", i, i + 2]));
        t
    }

    /// The repaired `idx` answers exactly like a fresh build over `t`: the
    /// begin order, a stab at every endpoint and its neighbours, and an
    /// overlap probe between every pair of such points.
    fn assert_answers_like_a_build(idx: &TableIndex, t: &Table) {
        let fresh = TableIndex::build(t).unwrap();
        assert!(idx.is_fresh(t));
        assert!(
            idx.events().begin_order().eq(fresh.events().begin_order()),
            "begin order"
        );
        let mut points: Vec<i64> = t
            .rows()
            .iter()
            .flat_map(|r| [r.int(2), r.int(3)])
            .flat_map(|p| [p - 1, p, p + 1])
            .collect();
        points.sort_unstable();
        points.dedup();
        for &at in &points {
            assert_eq!(idx.stab(at), fresh.stab(at), "stab at {at}");
        }
        for (i, &b) in points.iter().enumerate() {
            for &e in &points[i + 1..] {
                assert_eq!(idx.overlapping(b, e), fresh.overlapping(b, e));
            }
        }
    }

    #[test]
    fn append_only_mutations_take_the_incremental_path() {
        let mut t = padded_works_table(28);
        let metrics = MetricsRegistry::new();
        let mut reg = IndexCatalog::recording_into(&metrics);
        reg.register("works", TableIndex::build(&t).unwrap());
        let maintenance = || MaintenanceStats::read(&metrics);
        assert_eq!(maintenance(), MaintenanceStats::default());

        // Writes land on a copy, which records what it wrote (as a
        // commit's copy-on-write does). Pure appends: the repaired index
        // must answer like a full rebuild, via the incremental path.
        t = t.clone();
        t.push(row!["Eve", "SP", 0, 2]);
        t.extend(vec![row!["Zed", "NS", 1, 3], row!["Pam", "SP", 2, 19]]);
        let repaired = reg.ensure("works", &t).unwrap().clone();
        assert_answers_like_a_build(&repaired, &t);
        assert_eq!(repaired.version(), t.version());
        assert_eq!(
            maintenance(),
            MaintenanceStats {
                full_builds: 0,
                incremental_builds: 1
            }
        );

        // The incremental index answers probes exactly like a scan.
        for at in -1..31 {
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
            maintenance(),
            MaintenanceStats {
                full_builds: 1,
                incremental_builds: 1
            }
        );
    }

    #[test]
    fn in_place_updates_edit_the_index_and_rebase_past_an_eighth() {
        let mut t = padded_works_table(28);
        let metrics = MetricsRegistry::new();
        let mut reg = IndexCatalog::recording_into(&metrics);
        reg.ensure("works", &t);
        let maintenance = || MaintenanceStats::read(&metrics);
        let set_end = |t: &mut Table, name: &str, te: i64| {
            t.update_where(
                |r| r.get(0) == &storage::Value::str(name),
                |r| {
                    let mut vals = r.values().to_vec();
                    vals[3] = storage::Value::Int(te);
                    Ok(Row::new(vals))
                },
            )
            .unwrap()
        };

        // Closing a period in place edits the index; so does closing it
        // again, and the second close is the one the index answers by.
        // Each repair covers one copy of the table, as each commit does.
        t = t.clone();
        set_end(&mut t, "Joe", 12);
        assert_answers_like_a_build(reg.ensure("works", &t).unwrap(), &t);
        t = t.clone();
        set_end(&mut t, "Joe", 9);
        t.push(row!["Eve", "SP", 0, 2]);
        assert_answers_like_a_build(reg.ensure("works", &t).unwrap(), &t);
        assert_eq!(
            maintenance(),
            MaintenanceStats {
                full_builds: 1,
                incremental_builds: 2
            }
        );

        // Tail {Joe, Eve, Sam, Ann x2} is five positions over a 32-row
        // base: past an eighth, so the tree re-bases (a full build).
        t = t.clone();
        set_end(&mut t, "Sam", 11);
        assert_eq!(set_end(&mut t, "Ann", 30), 2);
        let rebased = reg.ensure("works", &t).unwrap();
        assert_answers_like_a_build(rebased, &t);
        assert_eq!(rebased, &TableIndex::build(&t).unwrap());
        assert_eq!(
            maintenance(),
            MaintenanceStats {
                full_builds: 2,
                incremental_builds: 2
            }
        );
    }

    #[test]
    fn replaced_table_never_takes_the_incremental_path() {
        // A look-alike table replacing the catalog entry must not be
        // treated as "the indexed table plus appends".
        let metrics = MetricsRegistry::new();
        let mut reg = IndexCatalog::recording_into(&metrics);
        reg.register("works", TableIndex::build(&works_table()).unwrap());

        let mut replacement = works_table();
        replacement.push(row!["Eve", "SP", 0, 2]);
        let repaired = reg.ensure("works", &replacement).unwrap();
        assert_eq!(repaired.version(), replacement.version());
        assert_eq!(
            MaintenanceStats::read(&metrics),
            MaintenanceStats {
                full_builds: 1,
                incremental_builds: 0
            }
        );
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
