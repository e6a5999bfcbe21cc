//! The catalog: the namespace of stored tables.

use crate::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named collection of tables; queries are bound against a catalog.
///
/// Tables are held behind [`Arc`], so cloning a catalog is a cheap
/// copy-on-write *snapshot*: the clone shares every table with the
/// original, and [`Catalog::get_mut`] unshares ([`Arc::make_mut`]) a table
/// only when someone actually mutates it. Combined with the globally
/// unique [`Table::version`] epochs this is the substrate of the MVCC
/// layer — a snapshot pinned by a reader keeps its tables alive and
/// unchanged no matter what later writers do to other clones.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table under `name`.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Registers (or replaces) a table that is already shared — the MVCC
    /// publish path, which moves a transaction's copy-on-write table into
    /// the committed catalog without copying its rows.
    pub fn register_shared(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.tables.insert(name.into(), table);
    }

    /// Removes (drops) a table, returning it when it existed.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Table>> {
        self.tables.remove(name)
    }

    /// Looks up a table.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Looks up a table's shared handle (snapshot pinning and the MVCC
    /// publish path).
    pub fn get_shared(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Looks up a table mutably (DML entry point of the session layer).
    /// When the table is shared with a snapshot, this *unshares* it first
    /// (clones it: its open tail is copied, its sealed blocks are shared
    /// until a write unshares them), so pinned snapshots never observe the
    /// mutation; the copy records what it writes from then on
    /// ([`Table::edited_since`]), which is how a commit's index repair
    /// learns the rows it wrote. A table nobody shares is written in place
    /// and records nothing.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// [`Table::update_where`] on the table `name`, which is unshared (see
    /// [`Catalog::get_mut`]) only when some row matches: the rows are read
    /// once, through the shared table, and only the replacements are
    /// written.
    pub fn update_where<P, U>(&mut self, name: &str, pred: P, update: U) -> Result<usize, String>
    where
        P: FnMut(&crate::Row) -> bool,
        U: FnMut(&crate::Row) -> Result<crate::Row, String>,
    {
        let rewrite = self.require(name)?.rewrite(pred, update)?;
        if rewrite.replacements.is_empty() {
            return Ok(0);
        }
        Ok(self.get_mut(name).expect("found above").apply(rewrite))
    }

    /// Seals the table `name` ([`Table::seal`]) when its open tail holds at
    /// least one whole block; a table with nothing to seal is left alone,
    /// shared or not.
    pub fn seal(&mut self, name: &str) {
        if let Some(table) = self.tables.get_mut(name) {
            if table.open_rows() >= crate::BLOCK_ROWS {
                Arc::make_mut(table).seal();
            }
        }
    }

    /// Looks up a table, with a useful error.
    pub fn require(&self, name: &str) -> Result<&Table, String> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| format!("unknown table '{name}'"))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Total rows across all tables (used by dataset loaders to report
    /// sizes).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, Schema, SqlType};

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        let mut t = Table::new(Schema::of(&[("x", SqlType::Int)]));
        t.push(row![1]);
        c.register("nums", t);
        assert!(c.get("nums").is_some());
        assert!(c.get("other").is_none());
        assert!(c.require("other").unwrap_err().contains("unknown table"));
        assert_eq!(c.total_rows(), 1);
        assert_eq!(c.table_names().collect::<Vec<_>>(), vec!["nums"]);
    }

    #[test]
    fn clones_are_copy_on_write_snapshots() {
        let mut c = Catalog::new();
        let mut t = Table::new(Schema::of(&[("x", SqlType::Int)]));
        t.push(row![1]);
        c.register("nums", t);
        let snapshot = c.clone();
        // The clone shares the table...
        assert!(Arc::ptr_eq(
            c.get_shared("nums").unwrap(),
            snapshot.get_shared("nums").unwrap()
        ));
        // ...until a writer mutates it: the snapshot keeps the old rows
        // (and the old version epoch — its identity).
        let v_before = snapshot.get("nums").unwrap().version();
        c.get_mut("nums").unwrap().push(row![2]);
        assert_eq!(c.get("nums").unwrap().len(), 2);
        assert_eq!(snapshot.get("nums").unwrap().len(), 1);
        assert_eq!(snapshot.get("nums").unwrap().version(), v_before);
        assert!(!Arc::ptr_eq(
            c.get_shared("nums").unwrap(),
            snapshot.get_shared("nums").unwrap()
        ));
    }
}
