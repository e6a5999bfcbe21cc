//! Tables: multisets of rows, optionally with a period specification.

use crate::{Row, Schema, SqlType};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use timeline::Interval;

/// Process-wide version epoch source: every table construction and every
/// mutation draws a fresh, never-repeated value. Uniqueness (rather than a
/// per-instance counter) is what makes version comparison a sound staleness
/// check even when a catalog entry is *replaced* by a different table, or
/// when two clones of one table diverge independently.
static VERSION_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    VERSION_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A stored relation: a schema, a multiset of rows (duplicates are separate
/// rows, as in SQL), and an optional *period specification* naming the two
/// integer columns that hold each tuple's validity interval `[begin, end)`.
///
/// Every construction and mutation stamps the table with a fresh, globally
/// unique [`Table::version`] epoch — the maintenance hook the `index` crate
/// uses to detect stale table indexes without storing back-pointers in the
/// storage layer.
///
/// A clone is a private copy that remembers what it was copied from, so
/// that the `index` crate can repair the original's index in proportion
/// to the rows the copy wrote (see [`Table::edited_since`]).
#[derive(Debug, Eq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    period: Option<(usize, usize)>,
    version: u64,
    /// The write record of a copy: `(v, l, r)` means "cloned from a table
    /// at version `v` that had `l` rows; since then the positions `r`
    /// (ascending, each below `l`) were rewritten in place and the rows
    /// past `l` appended". Started only by [`Clone`]; ended (`None`) by a
    /// delete or a sort, which move positions.
    written: Option<(u64, usize, Vec<usize>)>,
    /// `(min begin, max end)` over the rows of a period table — derived
    /// state, kept current by every mutation (see [`Table::period_extent`]);
    /// [`NO_PERIODS`] while there is nothing to cover.
    extent: (i64, i64),
}

/// The extent of no periods at all: the identity of [`widen`].
const NO_PERIODS: (i64, i64) = (i64::MAX, i64::MIN);

/// `extent` widened to cover the period `[b, e)`.
fn widen((lo, hi): (i64, i64), (b, e): (i64, i64)) -> (i64, i64) {
    (lo.min(b), hi.max(e))
}

/// The period of a row already in a table whose period columns are
/// `period`; [`NO_PERIODS`] (which widens nothing) when it has none.
fn period_of(period: Option<(usize, usize)>, row: &Row) -> (i64, i64) {
    period.map_or(NO_PERIODS, |(b, e)| (row.int(b), row.int(e)))
}

// A copy starts its write record at the original's version: whatever the
// original recorded describes how *it* was copied, not this copy.
impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            written: Some((self.version, self.rows.len(), Vec::new())),
            ..*self
        }
    }
}

// Equality ignores the version counter, the write record and the derived
// extent: two tables with the same schema, rows, and period are the same
// relation regardless of mutation history.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows && self.period == other.period
    }
}

impl Table {
    /// Creates an empty, non-temporal table.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            period: None,
            version: next_version(),
            written: None,
            extent: NO_PERIODS,
        }
    }

    /// Whether columns `begin`/`end` of `schema` can hold a period: two
    /// distinct, in-range `INT` columns. The check for a period pair that
    /// arrives as data (a stored table, a wire header) rather than from
    /// the program — [`Table::with_period`] panics where this errors.
    pub fn check_period(schema: &Schema, begin: usize, end: usize) -> Result<(), String> {
        if begin == end {
            return Err("period begin and end must be distinct columns".into());
        }
        for idx in [begin, end] {
            let col = schema
                .columns()
                .get(idx)
                .ok_or_else(|| format!("period column {idx} out of range"))?;
            if col.ty != SqlType::Int {
                return Err(format!("period column '{}' must be INT", col.name));
            }
        }
        Ok(())
    }

    /// Creates an empty period table; `begin`/`end` are column indices.
    ///
    /// # Panics
    /// Panics when the indicated columns are not integers.
    pub fn with_period(schema: Schema, begin: usize, end: usize) -> Self {
        assert_eq!(
            schema.column(begin).ty,
            SqlType::Int,
            "period begin column must be INT"
        );
        assert_eq!(
            schema.column(end).ty,
            SqlType::Int,
            "period end column must be INT"
        );
        Table {
            period: Some((begin, end)),
            ..Table::new(schema)
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows (multiset: duplicates appear repeatedly).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The period column indices, when this is a period table.
    pub fn period(&self) -> Option<(usize, usize)> {
        self.period
    }

    /// The version epoch: refreshed to a globally unique value by every
    /// content change ([`Table::push`], [`Table::extend`],
    /// [`Table::delete_where`], [`Table::update_where`],
    /// [`Table::canonicalize`]). Index structures record the version they
    /// were built at and treat any mismatch as stale; uniqueness across
    /// tables means a replaced catalog entry can never masquerade as the
    /// indexed one. Clones share the epoch until either side mutates (a
    /// clone has identical content, so sharing is sound).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `(min begin, max end)` over all rows: the smallest interval covering
    /// every stored period. `None` for an empty table and for a table
    /// without a period. Maintained by the mutators — widened on append,
    /// recomputed in the pass a delete or update makes anyway —
    /// so reading the time domain of a database costs O(tables), not
    /// O(rows). Derived from the rows: not persisted, ignored by `==`.
    pub fn period_extent(&self) -> Option<(i64, i64)> {
        (self.extent != NO_PERIODS).then_some(self.extent)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validates a row against the schema (arity, and `begin < end` for
    /// period tables), returning a diagnostic instead of panicking.
    ///
    /// This is the *structural* check (result materialization passes
    /// through it too); value-level ingestion policy — e.g. the session
    /// layer's NaN rejection — lives in the DML validators above storage.
    pub fn check_row(&self, row: &Row) -> Result<(), String> {
        self.checked_period(row).map(|_| ())
    }

    /// [`Table::check_row`], handing back the period it had to read
    /// ([`NO_PERIODS`] when the table has none).
    fn checked_period(&self, row: &Row) -> Result<(i64, i64), String> {
        if row.arity() != self.schema.arity() {
            return Err(format!(
                "row arity {} does not match schema arity {}",
                row.arity(),
                self.schema.arity()
            ));
        }
        let Some((b, e)) = self.period else {
            return Ok(NO_PERIODS);
        };
        let (vb, ve) = (row.get(b), row.get(e));
        let (Some(ib), Some(ie)) = (vb.as_int(), ve.as_int()) else {
            return Err(format!(
                "period endpoints must be non-NULL integers, got ({vb}, {ve})"
            ));
        };
        if ib >= ie {
            return Err(format!(
                "period tuple must satisfy begin < end, got [{ib}, {ie})"
            ));
        }
        Ok((ib, ie))
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics on arity mismatch or (for period tables) `begin >= end`.
    pub fn push(&mut self, row: Row) {
        match self.checked_period(&row) {
            Ok(period) => self.extent = widen(self.extent, period),
            Err(e) => panic!("{e}"),
        }
        self.rows.push(row);
        self.version = next_version();
    }

    /// Bulk-extends the table (one version bump for the whole batch).
    ///
    /// # Panics
    /// Panics when any row fails [`Table::check_row`]; rows before the
    /// offending one stay appended.
    pub fn extend<I: IntoIterator<Item = Row>>(&mut self, rows: I) {
        if let Err(e) = self.try_extend(rows) {
            panic!("{e}");
        }
    }

    /// [`Table::extend`] for rows that arrive as data (off the wire): the
    /// first row failing [`Table::check_row`] is an error, not a panic;
    /// rows before it stay appended.
    pub fn try_extend<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<(), String> {
        let before = self.rows.len();
        let mut extent = self.extent;
        let mut refused = Ok(());
        let rows = rows.into_iter();
        self.rows.reserve(rows.size_hint().0);
        for r in rows {
            match self.checked_period(&r) {
                Ok(period) => extent = widen(extent, period),
                Err(e) => {
                    refused = Err(e);
                    break;
                }
            }
            self.rows.push(r);
        }
        self.extent = extent;
        if self.rows.len() > before {
            self.version = next_version();
        }
        refused
    }

    /// Deletes every row matching `pred`, returning how many were removed.
    /// A no-op delete leaves the version (and thus any index) untouched.
    pub fn delete_where<P: FnMut(&Row) -> bool>(&mut self, mut pred: P) -> usize {
        let before = self.rows.len();
        let (period, mut extent) = (self.period, NO_PERIODS);
        self.rows.retain(|r| {
            let keep = !pred(r);
            if keep {
                extent = widen(extent, period_of(period, r));
            }
            keep
        });
        self.extent = extent;
        let removed = before - self.rows.len();
        if removed > 0 {
            self.version = next_version();
            self.written = None;
        }
        removed
    }

    /// Replaces every row matching `pred` with `update(row)`, returning how
    /// many rows changed. The updater is fallible so callers can fold their
    /// own validation (e.g. type conformance) into the single pass.
    /// Validation is atomic: if `update` errors or any replacement row is
    /// invalid (arity, period), the table is left untouched and an error is
    /// returned. A no-op update leaves the version untouched.
    pub fn update_where<P, U>(&mut self, mut pred: P, mut update: U) -> Result<usize, String>
    where
        P: FnMut(&Row) -> bool,
        U: FnMut(&Row) -> Result<Row, String>,
    {
        let mut replacements: Vec<(usize, Row)> = Vec::new();
        let mut extent = NO_PERIODS;
        for (i, row) in self.rows.iter().enumerate() {
            let period = if pred(row) {
                let new_row = update(row)?;
                let period = self.checked_period(&new_row)?;
                replacements.push((i, new_row));
                period
            } else {
                period_of(self.period, row)
            };
            extent = widen(extent, period);
        }
        let updated = replacements.len();
        if updated == 0 {
            return Ok(0);
        }
        if let Some((_, len, replaced)) = &mut self.written {
            // Two ascending runs: merge them, keeping each position once.
            let mut merged = Vec::with_capacity(replaced.len() + updated);
            let mut earlier = replaced.iter().copied().peekable();
            for &(i, _) in replacements.iter().take_while(|(i, _)| i < len) {
                merged.extend(std::iter::from_fn(|| earlier.next_if(|&p| p < i)));
                earlier.next_if_eq(&i);
                merged.push(i);
            }
            merged.extend(earlier);
            *replaced = merged;
        }
        for (i, new_row) in replacements {
            self.rows[i] = new_row;
        }
        self.extent = extent;
        self.version = next_version();
        Ok(updated)
    }

    /// What this copy wrote since it was cloned from the table at
    /// `version`: `Some((len, replaced))` when the original had `len` rows
    /// and since then only the positions `replaced` (ascending, each once,
    /// all below `len`) were rewritten in place and the rows past `len`
    /// appended. `None` for any other version, for a table that is no
    /// copy, and once a delete or a sort moved positions. Versions are
    /// globally unique, so a hit can never be a look-alike from another
    /// table or a diverged clone.
    pub fn edited_since(&self, version: u64) -> Option<(usize, &[usize])> {
        match &self.written {
            Some((from, len, replaced)) if *from == version => Some((*len, replaced)),
            _ => None,
        }
    }

    /// The validity interval of a row (requires a period table).
    pub fn interval_of(&self, row: &Row) -> Interval {
        let (b, e) = self
            .period
            .expect("interval_of called on a non-temporal table");
        Interval::new(row.int(b), row.int(e))
    }

    /// Sorts rows into the canonical order, making the physical encoding of
    /// the multiset deterministic. Together with coalesced annotations this
    /// realizes the *unique encoding* requirement of Definition 4.5 at the
    /// implementation layer.
    pub fn canonicalize(&mut self) {
        self.rows.sort_unstable();
        self.version = next_version();
        self.written = None;
    }

    /// A canonically sorted copy.
    pub fn canonicalized(&self) -> Table {
        let mut t = self.clone();
        t.canonicalize();
        t
    }

    /// Renders the table like a psql result, for examples and debugging.
    pub fn to_pretty_string(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!(" {c:<w$} "))
                .collect();
            format!("|{}|", body.join("|"))
        };
        let sep: String = format!(
            "+{}+",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("+")
        );
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push_str(&format!("\n({} rows)\n", self.rows.len()));
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_pretty_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, Value};

    fn works_schema() -> Schema {
        Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ])
    }

    #[test]
    fn period_table_roundtrip() {
        let mut t = Table::with_period(works_schema(), 2, 3);
        t.push(row!["Ann", "SP", 3, 10]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.interval_of(&t.rows()[0]), Interval::new(3, 10));
    }

    #[test]
    #[should_panic(expected = "begin < end")]
    fn invalid_period_rejected() {
        let mut t = Table::with_period(works_schema(), 2, 3);
        t.push(row!["Ann", "SP", 10, 3]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(works_schema());
        t.push(row!["Ann", "SP"]);
    }

    #[test]
    #[should_panic(expected = "must be INT")]
    fn period_column_type_checked() {
        let _ = Table::with_period(works_schema(), 0, 3);
    }

    #[test]
    fn versions_are_globally_unique_epochs() {
        // Two tables built with identical push sequences must not share a
        // version: a catalog entry replaced by a look-alike table has to
        // read as stale to any index built on the original.
        let build = || {
            let mut t = Table::with_period(works_schema(), 2, 3);
            t.push(row!["Ann", "SP", 3, 10]);
            t
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b, "content-equal (version ignored by Eq)");
        assert_ne!(a.version(), b.version(), "but version epochs differ");

        // Divergent clones also end on different epochs.
        let (mut c1, mut c2) = (a.clone(), a.clone());
        assert_eq!(c1.version(), c2.version(), "unchanged clones share");
        c1.push(row!["Joe", "NS", 8, 16]);
        c2.push(row!["Sam", "SP", 8, 16]);
        assert_ne!(c1.version(), c2.version());

        // Every mutation refreshes the epoch.
        let before = c1.version();
        c1.canonicalize();
        assert_ne!(before, c1.version());
    }

    #[test]
    fn delete_and_update_where() {
        let mut t = Table::with_period(works_schema(), 2, 3);
        t.push(row!["Ann", "SP", 3, 10]);
        t.push(row!["Joe", "NS", 8, 16]);
        t.push(row!["Sam", "SP", 8, 16]);

        let v = t.version();
        assert_eq!(t.delete_where(|r| r.get(0) == &Value::str("Zed")), 0);
        assert_eq!(t.version(), v, "no-op delete keeps the version");

        assert_eq!(t.delete_where(|r| r.get(1) == &Value::str("NS")), 1);
        assert_eq!(t.len(), 2);
        assert_ne!(t.version(), v);

        let updated = t
            .update_where(
                |r| r.get(0) == &Value::str("Ann"),
                |r| {
                    let mut vals = r.values().to_vec();
                    vals[1] = Value::str("NS");
                    Ok(Row::new(vals))
                },
            )
            .unwrap();
        assert_eq!(updated, 1);
        assert_eq!(t.rows()[0].get(1), &Value::str("NS"));

        // Invalid replacement rows leave the table untouched.
        let before = t.clone();
        let err = t
            .update_where(|_| true, |r| Ok(Row::new(r.values()[..2].to_vec())))
            .unwrap_err();
        assert!(err.contains("arity"));
        assert_eq!(t, before);
        assert_eq!(t.version(), before.version());

        let err = t
            .update_where(
                |_| true,
                |r| {
                    let mut vals = r.values().to_vec();
                    vals[2] = Value::Int(99);
                    vals[3] = Value::Int(1);
                    Ok(Row::new(vals))
                },
            )
            .unwrap_err();
        assert!(err.contains("begin < end"));
        assert_eq!(t, before);

        // An updater error aborts atomically, too.
        let err = t
            .update_where(|_| true, |_| Err::<Row, _>("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(t, before);
    }

    #[test]
    fn append_history_tracks_pure_appends() {
        let mut t = Table::with_period(works_schema(), 2, 3);
        t.push(row!["Ann", "SP", 3, 10]);
        let v1 = t.version();
        assert_eq!(
            t.edited_since(v1),
            None,
            "a table built in place is no copy"
        );
        let mut copy = t.clone();
        assert_eq!(copy.edited_since(v1), Some((1, &[][..])));
        copy.push(row!["Joe", "NS", 8, 16]);
        copy.extend(vec![row!["Sam", "SP", 8, 16], row!["Eve", "SP", 0, 2]]);
        // From v1 (one row), only appends happened; the record answers
        // for the version copied from only.
        assert_eq!(copy.edited_since(v1), Some((1, &[][..])));
        assert_eq!(copy.edited_since(copy.version()), None);
        // Unknown versions (e.g. from another table) never match.
        let other = Table::with_period(works_schema(), 2, 3);
        assert_eq!(copy.edited_since(other.version()), None);

        // A copy of the copy starts a record of its own: it does not
        // inherit the one that says how its original was copied.
        let v2 = copy.version();
        let mut again = copy.clone();
        assert_eq!(again.edited_since(v1), None);
        again.push(row!["Zed", "NS", 1, 3]);
        assert_eq!(again.edited_since(v2), Some((4, &[][..])));

        // A delete moves positions and ends the record.
        copy.delete_where(|r| r.get(0) == &Value::str("Eve"));
        assert_eq!(copy.edited_since(v1), None);

        // Divergent clones do not see each other's states.
        let (mut a, mut b) = (t.clone(), t.clone());
        a.push(row!["A1", "SP", 2, 4]);
        b.push(row!["B1", "SP", 2, 4]);
        assert_eq!(b.edited_since(a.version()), None);
        assert_eq!(a.edited_since(b.version()), None);
        assert_eq!(a.edited_since(v1), b.edited_since(v1));
    }

    /// Rewrites the end of every row named `name`.
    fn close(t: &mut Table, name: &str, te: i64) -> usize {
        t.update_where(
            |r| r.get(0) == &Value::str(name),
            |r| {
                let mut vals = r.values().to_vec();
                vals[3] = Value::Int(te);
                Ok(Row::new(vals))
            },
        )
        .unwrap()
    }

    #[test]
    fn edit_history_records_replaced_positions() {
        let mut t = Table::with_period(works_schema(), 2, 3);
        t.extend((0..40).map(|i| row![format!("r{i}"), "SP", i, 100]));
        let v0 = t.version();
        let mut t = t.clone();
        assert_eq!(close(&mut t, "r5", 50), 1);
        t.push(row!["new", "NS", 1, 2]);
        assert_eq!(close(&mut t, "r2", 40), 1);
        assert_eq!(close(&mut t, "r5", 60), 1);
        // Positions replaced since v0, each once and ascending; the
        // append shows as the length at v0.
        assert_eq!(t.edited_since(v0), Some((40, &[2, 5][..])));
        // A position appended since v0 is not reported as replaced.
        assert_eq!(close(&mut t, "new", 3), 1);
        assert_eq!(t.edited_since(v0), Some((40, &[2, 5][..])));

        // However many rows an update rewrites, it merges into the record.
        assert_eq!(t.update_where(|r| r.int(2) < 6, |r| Ok(r.clone())), Ok(7));
        assert_eq!(t.edited_since(v0), Some((40, &[0, 1, 2, 3, 4, 5][..])));
        assert_eq!(close(&mut t, "r39", 70), 1);
        assert_eq!(t.edited_since(v0), Some((40, &[0, 1, 2, 3, 4, 5, 39][..])));

        // A no-op update keeps the record; a sort ends it.
        assert_eq!(close(&mut t, "nobody", 1), 0);
        assert_eq!(t.edited_since(v0).map(|(_, r)| r.len()), Some(7));
        t.canonicalize();
        assert_eq!(t.edited_since(v0), None);
    }

    #[test]
    fn check_row_reports_instead_of_panicking() {
        let t = Table::with_period(works_schema(), 2, 3);
        assert!(t.check_row(&row!["Ann", "SP", 3, 10]).is_ok());
        assert!(t
            .check_row(&row!["Ann", "SP", 10, 3])
            .unwrap_err()
            .contains("begin < end"));
        assert!(t
            .check_row(&row!["Ann", "SP"])
            .unwrap_err()
            .contains("arity"));
        assert!(t
            .check_row(&Row::new(vec![
                Value::str("Ann"),
                Value::str("SP"),
                Value::Null,
                Value::Int(3),
            ]))
            .unwrap_err()
            .contains("non-NULL"));
    }

    #[test]
    fn canonicalization_sorts() {
        let mut t = Table::new(Schema::of(&[("x", SqlType::Int)]));
        t.push(row![3]);
        t.push(row![1]);
        t.push(row![2]);
        t.canonicalize();
        assert_eq!(t.rows(), &[row![1], row![2], row![3]]);
    }

    #[test]
    fn pretty_print_contains_data() {
        let mut t = Table::new(Schema::of(&[("n", SqlType::Str)]));
        t.push(row!["hello"]);
        let s = t.to_pretty_string();
        assert!(s.contains("hello"));
        assert!(s.contains("(1 rows)"));
    }
}
