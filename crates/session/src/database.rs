//! The database: the storage catalog and the index registry under one
//! owner, with validated mutation entry points.
//!
//! The storage layer stays index-agnostic and the index layer stays
//! storage-agnostic (PR 1); this type is where the two meet. Every mutation
//! goes through [`storage::Table`]'s version-bumping API, so indexes
//! invalidate automatically, and [`Database::refresh_indexes`] repairs them
//! lazily right before an indexed query — taking the append-only
//! incremental path whenever the table's checkpoint history allows it.

use index::{IndexCatalog, MaintenanceStats};
use storage::{Catalog, Row, Schema, SqlType, Table, Value};

/// An in-memory database: named tables plus their (lazily maintained)
/// indexes. Tables are copy-on-write, so `clone()` is an independent fork
/// that is cheap until either side mutates.
///
/// Durability is not a property of this type: a database directory is
/// opened with [`crate::SharedDatabase::open_durable`], which logs every
/// commit to the write-ahead log before publishing it.
#[derive(Debug, Default, Clone)]
pub struct Database {
    catalog: Catalog,
    indexes: IndexCatalog,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Decomposes the database for promotion into a shared, multi-session
    /// object (see `SharedDatabase`).
    pub(crate) fn into_parts(self) -> (Catalog, IndexCatalog) {
        (self.catalog, self.indexes)
    }

    /// A database over an existing catalog (indexes are built lazily, on
    /// first indexed query).
    pub fn from_catalog(catalog: Catalog) -> Self {
        Database {
            catalog,
            indexes: IndexCatalog::new(),
        }
    }

    /// The table namespace.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The catalog, mutably — the session layer's unified mutation entry
    /// point (validation lives in the catalog-level ops below).
    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Post-mutation bookkeeping for direct (autocommit) writes: a
    /// dropped table's index leaves the registry; everything else repairs
    /// lazily through the version epochs.
    pub(crate) fn note_write(&mut self, name: &str) {
        if self.catalog.get(name).is_none() {
            self.indexes.remove(name);
        }
    }

    /// The index registry.
    pub fn indexes(&self) -> &IndexCatalog {
        &self.indexes
    }

    /// How index maintenance repaired stale entries so far (full rebuilds
    /// vs. append-only incremental extensions).
    pub fn index_maintenance(&self) -> MaintenanceStats {
        self.indexes.maintenance()
    }

    /// Creates a table. `period` names the two INT columns holding each
    /// tuple's validity interval; without it the table is non-temporal.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        period: Option<(usize, usize)>,
    ) -> Result<(), String> {
        create_table_in(&mut self.catalog, name, schema, period)
    }

    /// Drops a table, returning whether it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        self.indexes.remove(name);
        self.catalog.remove(name).is_some()
    }

    /// Registers (or replaces) tables wholesale — the bulk-load entry
    /// point (`.load` in the shell). Any index on a replaced entry reads as
    /// stale through the version epoch.
    pub fn register_tables<I>(&mut self, tables: I)
    where
        I: IntoIterator<Item = (String, Table)>,
    {
        for (name, table) in tables {
            self.catalog.register(name, table);
        }
    }

    /// Inserts rows into a table after conforming each one to the schema
    /// (type check with Int→Double widening) and validating arity and
    /// period. Validation is atomic: on any error nothing is inserted.
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Row>) -> Result<usize, String> {
        insert_rows_in(&mut self.catalog, name, rows)
    }

    /// Deletes every row of `name` matching `pred`.
    pub fn delete_where<P: FnMut(&Row) -> bool>(
        &mut self,
        name: &str,
        pred: P,
    ) -> Result<usize, String> {
        delete_where_in(&mut self.catalog, name, pred)
    }

    /// Replaces every row of `name` matching `pred` with `update(row)`
    /// (atomic, fallible updater — see [`Table::update_where`]).
    pub fn update_where<P, U>(&mut self, name: &str, pred: P, update: U) -> Result<usize, String>
    where
        P: FnMut(&Row) -> bool,
        U: FnMut(&Row) -> Result<Row, String>,
    {
        update_where_in(&mut self.catalog, name, pred, update)
    }

    /// Publishes a committed transaction's write set into this database
    /// (the owned-backend twin of the `TxnManager` publish path — one
    /// shared implementation in `snapshot_txn`).
    pub(crate) fn publish_transaction<'a>(
        &mut self,
        working: &Catalog,
        write_set: impl Iterator<Item = &'a str>,
    ) {
        snapshot_txn::publish_write_set(working, write_set, &mut self.catalog, &mut self.indexes);
    }

    /// Repairs the indexes of the named tables (incremental when only
    /// appends happened, full rebuild otherwise). Non-temporal and unknown
    /// names are skipped.
    pub fn refresh_indexes(&mut self, tables: &[String]) {
        for name in tables {
            if let Some(table) = self.catalog.get(name) {
                self.indexes.ensure(name, table);
            }
        }
    }

    /// Repairs the indexes of every period table.
    pub fn refresh_all_indexes(&mut self) {
        let names: Vec<String> = self.catalog.table_names().map(String::from).collect();
        self.refresh_indexes(&names);
    }
}

/// Conforms a row to a schema: checks arity, checks each value against the
/// column type, and widens Int values into DOUBLE columns. NULL conforms to
/// every column type (period endpoints are rejected later by
/// [`Table::check_row`]).
///
/// NaN is rejected here — at ingestion — rather than given storage
/// semantics: a stored NaN would silently fall out of every comparison
/// (SQL three-valued logic treats an unordered result like NULL), so
/// predicates and joins would drop the row with no diagnostic ever being
/// raised. Query results may still *compute* NaN (it displays, and ORDER
/// BY places it deterministically via the IEEE total order); it just can
/// never enter a stored table through INSERT or UPDATE. Infinities stay
/// storable — they order totally against every number.
pub fn conform_row(schema: &Schema, row: Row) -> Result<Row, String> {
    if row.arity() != schema.arity() {
        return Err(format!(
            "row arity {} does not match schema arity {}",
            row.arity(),
            schema.arity()
        ));
    }
    let mut values = row.0;
    for (i, v) in values.iter_mut().enumerate() {
        let col = schema.column(i);
        if matches!(v, Value::Double(d) if d.is_nan()) {
            return Err(format!(
                "column '{}': NaN is not storable (it would compare as \
                 unknown everywhere; normalize it to NULL or a number first)",
                col.name
            ));
        }
        let ok = match (&*v, col.ty) {
            (Value::Null, _) => true,
            (Value::Int(_), SqlType::Int) => true,
            (Value::Int(n), SqlType::Double) => {
                *v = Value::Double(*n as f64);
                true
            }
            (Value::Double(_), SqlType::Double) => true,
            (Value::Str(_), SqlType::Str) => true,
            (Value::Bool(_), SqlType::Bool) => true,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "value {v} does not fit column '{}' of type {}",
                col.name, col.ty
            ));
        }
    }
    Ok(Row::new(values))
}

/// Creates a table inside `catalog` — the validation lives at catalog
/// level so the same code serves [`Database::create_table`] and a
/// transaction's private working catalog.
pub(crate) fn create_table_in(
    catalog: &mut Catalog,
    name: &str,
    schema: Schema,
    period: Option<(usize, usize)>,
) -> Result<(), String> {
    if catalog.get(name).is_some() {
        return Err(format!("table '{name}' already exists"));
    }
    for (i, a) in schema.columns().iter().enumerate() {
        for b in schema.columns().iter().skip(i + 1) {
            if a.name == b.name {
                return Err(format!("duplicate column '{}' in table '{name}'", a.name));
            }
        }
    }
    let table = match period {
        Some((b, e)) => {
            if b == e {
                return Err("period begin and end must be distinct columns".into());
            }
            for idx in [b, e] {
                if schema.column(idx).ty != SqlType::Int {
                    return Err(format!(
                        "period column '{}' must be INT",
                        schema.column(idx).name
                    ));
                }
            }
            Table::with_period(schema, b, e)
        }
        None => Table::new(schema),
    };
    catalog.register(name, table);
    Ok(())
}

/// Inserts rows into a table of `catalog` (atomic validation; see
/// [`Database::insert_rows`]).
pub(crate) fn insert_rows_in(
    catalog: &mut Catalog,
    name: &str,
    rows: Vec<Row>,
) -> Result<usize, String> {
    let table = catalog
        .get(name)
        .ok_or_else(|| format!("unknown table '{name}'"))?;
    let mut conformed = Vec::with_capacity(rows.len());
    for row in rows {
        let row = conform_row(table.schema(), row)?;
        table.check_row(&row)?;
        conformed.push(row);
    }
    let n = conformed.len();
    if n > 0 {
        catalog
            .get_mut(name)
            .expect("checked above")
            .extend(conformed);
    }
    Ok(n)
}

/// Deletes matching rows from a table of `catalog`. A no-op delete is
/// detected *before* taking mutable access, so it never unshares a table
/// that a snapshot still pins (tables are copy-on-write).
pub(crate) fn delete_where_in<P: FnMut(&Row) -> bool>(
    catalog: &mut Catalog,
    name: &str,
    mut pred: P,
) -> Result<usize, String> {
    let table = catalog
        .get(name)
        .ok_or_else(|| format!("unknown table '{name}'"))?;
    if !table.rows().iter().any(&mut pred) {
        return Ok(0);
    }
    Ok(catalog
        .get_mut(name)
        .expect("checked above")
        .delete_where(pred))
}

/// Replaces matching rows of a table of `catalog` (atomic, fallible
/// updater). Like [`delete_where_in`], a no-op update never unshares the
/// table.
pub(crate) fn update_where_in<P, U>(
    catalog: &mut Catalog,
    name: &str,
    mut pred: P,
    update: U,
) -> Result<usize, String>
where
    P: FnMut(&Row) -> bool,
    U: FnMut(&Row) -> Result<Row, String>,
{
    let table = catalog
        .get(name)
        .ok_or_else(|| format!("unknown table '{name}'"))?;
    if !table.rows().iter().any(&mut pred) {
        return Ok(0);
    }
    catalog
        .get_mut(name)
        .expect("checked above")
        .update_where(pred, update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    fn works_schema() -> Schema {
        Schema::of(&[
            ("name", SqlType::Str),
            ("skill", SqlType::Str),
            ("ts", SqlType::Int),
            ("te", SqlType::Int),
        ])
    }

    #[test]
    fn create_insert_drop() {
        let mut db = Database::new();
        db.create_table("works", works_schema(), Some((2, 3)))
            .unwrap();
        assert!(db
            .create_table("works", works_schema(), None)
            .unwrap_err()
            .contains("already exists"));
        assert_eq!(
            db.insert_rows("works", vec![row!["Ann", "SP", 3, 10]])
                .unwrap(),
            1
        );
        assert_eq!(db.catalog().get("works").unwrap().len(), 1);
        assert!(db.drop_table("works"));
        assert!(!db.drop_table("works"));
    }

    #[test]
    fn create_table_validates_period() {
        let mut db = Database::new();
        assert!(db
            .create_table("t", works_schema(), Some((0, 3)))
            .unwrap_err()
            .contains("must be INT"));
        assert!(db
            .create_table("t", works_schema(), Some((2, 2)))
            .unwrap_err()
            .contains("distinct"));
        let dup = Schema::of(&[("x", SqlType::Int), ("x", SqlType::Int)]);
        assert!(db
            .create_table("t", dup, None)
            .unwrap_err()
            .contains("duplicate column"));
    }

    #[test]
    fn insert_is_atomic_and_conforms_types() {
        let mut db = Database::new();
        let schema = Schema::of(&[("x", SqlType::Int), ("d", SqlType::Double)]);
        db.create_table("t", schema, None).unwrap();
        // Second row fails the type check: nothing is inserted.
        let err = db
            .insert_rows("t", vec![row![1, 2], row!["oops", 3]])
            .unwrap_err();
        assert!(err.contains("does not fit"));
        assert_eq!(db.catalog().get("t").unwrap().len(), 0);
        // Int widens into DOUBLE.
        db.insert_rows("t", vec![row![1, 2]]).unwrap();
        assert_eq!(
            db.catalog().get("t").unwrap().rows()[0].get(1),
            &Value::Double(2.0)
        );
    }
}
