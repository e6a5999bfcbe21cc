//! The begin-ordered event list: the sweep-line backbone.
//!
//! An [`EventList`] stores a period relation's row ids ordered by interval
//! begin. Every sweep-line algorithm in this subsystem (sort-merge temporal
//! join, timeslice pre-filtering) and the interval tree's build start from
//! this order; building it once per table and reusing it replaces the
//! per-operator `O(n log n)` sorts of the naive paths with `O(n)` merges.

use storage::{Row, Table};

/// The begin-sorted endpoint view of a multiset of period rows.
///
/// Row ids are positions in the original row slice; intervals are the
/// half-open `[begin, end)` values of the period columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventList {
    /// `(begin, row id)`, ascending.
    by_begin: Vec<(i64, u32)>,
}

impl EventList {
    /// Builds the event list for `rows` (a slice, or a [`Table::iter`]),
    /// reading the period begin from column `ts`.
    ///
    /// # Panics
    /// Panics when a row's begin column is not an integer, or when the
    /// relation has more than `u32::MAX` rows.
    pub fn build<'r>(rows: impl IntoIterator<Item = &'r Row>, ts: usize) -> EventList {
        let mut by_begin: Vec<(i64, u32)> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let id = u32::try_from(i).expect("EventList supports at most u32::MAX rows");
                (r.int(ts), id)
            })
            .collect();
        by_begin.sort_unstable();
        EventList { by_begin }
    }

    /// The event list for `table` given that this list was built over a
    /// table of `old_len` rows that has since been edited in place: the
    /// rows at `replaced` (ascending, each below `old_len`) were rewritten
    /// and the rows past `old_len` appended. The untouched entries keep their
    /// order; only the `k` edited rows' events are sorted (`O(k log k)`)
    /// and merged in (`O(n log k + k)`), replacing the `O(n log n)` re-sort
    /// of [`EventList::build`]. A pure append is the edit with no
    /// replaced positions.
    ///
    /// # Panics
    /// Panics when `old_len` disagrees with the indexed length, the begin
    /// column is not an integer, or the result exceeds `u32::MAX` rows.
    pub fn edited(
        &self,
        table: &Table,
        ts: usize,
        old_len: usize,
        replaced: &[usize],
    ) -> EventList {
        assert_eq!(old_len, self.len(), "edited from a different table");
        assert!(
            u32::try_from(table.len()).is_ok(),
            "EventList supports at most u32::MAX rows"
        );
        let mut fresh: Vec<(i64, u32)> = replaced
            .iter()
            .copied()
            .chain(old_len..table.len())
            .map(|i| (table.row(i).int(ts), i as u32))
            .collect();
        fresh.sort_unstable();
        let kept = self
            .by_begin
            .iter()
            .filter(|&&(_, id)| replaced.binary_search(&(id as usize)).is_err());
        EventList {
            by_begin: merge_sorted(kept, &fresh),
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.by_begin.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.by_begin.is_empty()
    }

    /// `(begin, row id)` pairs, ascending by begin (ties by row id).
    pub fn by_begin(&self) -> &[(i64, u32)] {
        &self.by_begin
    }

    /// Row ids in begin order — the input order of every sweep.
    pub fn begin_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_begin.iter().map(|&(_, id)| id as usize)
    }
}

/// Linear merge of two `(key, id)` sequences sorted ascending by
/// `(key, id)`; ids are distinct, so ties on the key break by id.
fn merge_sorted<'a>(a: impl Iterator<Item = &'a (i64, u32)>, b: &[(i64, u32)]) -> Vec<(i64, u32)> {
    let mut out = Vec::with_capacity(a.size_hint().0 + b.len());
    let mut b = b.iter().peekable();
    for &x in a {
        while let Some(&y) = b.next_if(|&&y| y < x) {
            out.push(y);
        }
        out.push(x);
    }
    out.extend(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{row, Schema, SqlType};

    fn rows() -> Vec<Row> {
        vec![
            row!["a", 3, 10],
            row!["b", 8, 16],
            row!["c", 0, 4],
            row!["d", 8, 9],
        ]
    }

    #[test]
    fn orders_are_sorted() {
        let ev = EventList::build(&rows(), 1);
        assert_eq!(ev.len(), 4);
        assert_eq!(
            ev.by_begin(),
            &[(0, 2), (3, 0), (8, 1), (8, 3)],
            "begin order with ties by row id"
        );
        assert_eq!(ev.begin_order().collect::<Vec<_>>(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn empty() {
        let ev = EventList::build(&[], 0);
        assert!(ev.is_empty());
        let ev = EventList::build(table(&[]).iter(), 1);
        assert!(ev.is_empty());
        assert_eq!(ev.begin_order().count(), 0);
    }

    fn table(rows: &[Row]) -> Table {
        let schema = Schema::of(&[
            ("n", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ]);
        let mut t = Table::with_period(schema, 1, 2);
        t.extend(rows.iter().cloned());
        t
    }

    #[test]
    fn extended_matches_full_build() {
        let mut all = rows();
        let ev_prefix = EventList::build(&all, 1);
        all.push(row!["e", 1, 20]);
        all.push(row!["f", 8, 12]);
        all.push(row!["g", 0, 1]);
        let merged = ev_prefix.edited(&table(&all), 1, 4, &[]);
        assert_eq!(merged, EventList::build(&all, 1));

        // Editing nothing is the identity.
        assert_eq!(ev_prefix.edited(&table(&rows()), 1, 4, &[]), ev_prefix);

        // Rewritten begins move; a tie on the begin still breaks by id.
        all[1] = row!["b", 0, 16];
        all[3] = row!["d", 9, 10];
        all.push(row!["h", 8, 9]);
        let edited = merged.edited(&table(&all), 1, 7, &[1, 3]);
        assert_eq!(edited, EventList::build(&all, 1));
    }
}
