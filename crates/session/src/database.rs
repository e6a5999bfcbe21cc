//! The database: the storage catalog and the index registry under one
//! owner, plus the validated catalog-level mutations every statement runs.
//!
//! The storage layer stays index-agnostic and the index layer stays
//! storage-agnostic; this type is where the two meet. It is a plain value:
//! statements write a transaction's working catalog through the `*_in`
//! functions below, and a commit publishes the written tables into the
//! registry's owner, which repairs their indexes as it publishes (an edit
//! for a copy that only appended and updated in place, a rebuild
//! otherwise). An owned [`Database`] is that owner for its one session,
//! which builds every index when it adopts the database; once promoted
//! into a [`crate::SharedDatabase`], the registry belongs to the
//! transaction manager. Either way a reader never repairs. A write made
//! directly through [`Database::insert_rows`] or
//! [`Database::update_where`] bumps the table's version, so its index
//! reads as stale and the engine takes the naive route past it.

use index::{IndexCatalog, MaintenanceStats};
use snapshot_obs::{Counter, Histogram, Obs};
use std::sync::Arc;
use storage::{Catalog, Row, Schema, SqlType, Table, Value};

/// A database's observability: its [`Obs`] plus the handles the session
/// layer records into, resolved once when the database is built.
#[derive(Debug)]
pub(crate) struct Telemetry {
    pub(crate) obs: Arc<Obs>,
    /// Per-phase latency, in [`crate::PhaseTimings`] order.
    pub(crate) phases: [Arc<Histogram>; 5],
    /// Implicit-transaction conflict retries across all sessions (each
    /// session's [`crate::RetryStats`] stays the precise view).
    pub(crate) retries: Arc<Counter>,
    pub(crate) retry_give_ups: Arc<Counter>,
}

/// An in-memory database: named tables plus their indexes. Tables are
/// copy-on-write, so `clone()` is an independent fork that is cheap until
/// either side mutates; a clone shares the original's observability state
/// (one [`Obs`], see [`crate::Session::obs`]).
///
/// Durability is not a property of this type: a database directory is
/// opened with [`crate::SharedDatabase::open_durable`], which logs every
/// commit to the write-ahead log before publishing it.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    indexes: IndexCatalog,
    pub(crate) telemetry: Arc<Telemetry>,
}

impl Default for Database {
    fn default() -> Self {
        Database::from_catalog(Catalog::new())
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Decomposes the database for promotion into a shared, multi-session
    /// object (see `SharedDatabase`).
    pub(crate) fn into_parts(self) -> (Catalog, IndexCatalog, Arc<Telemetry>) {
        (self.catalog, self.indexes, self.telemetry)
    }

    /// A database over an existing catalog (its indexes are built when a
    /// [`crate::Session`] adopts it or [`crate::SharedDatabase::new`]
    /// promotes it), with observability state of its own.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let obs = Obs::default();
        let m = &obs.metrics;
        let telemetry = Telemetry {
            phases: [
                m.histogram("session_parse_seconds"),
                m.histogram("session_bind_seconds"),
                m.histogram("session_rewrite_seconds"),
                m.histogram("session_execute_seconds"),
                m.histogram("session_commit_seconds"),
            ],
            retries: m.counter("session_retries_total"),
            retry_give_ups: m.counter("session_retry_give_ups_total"),
            obs: Arc::new(obs),
        };
        Database {
            catalog,
            indexes: IndexCatalog::recording_into(&telemetry.obs.metrics),
            telemetry: Arc::new(telemetry),
        }
    }

    /// The table namespace.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The index registry.
    pub fn indexes(&self) -> &IndexCatalog {
        &self.indexes
    }

    /// How index maintenance repaired stale entries so far (full builds
    /// and re-bases vs. edits), across this database and its clones (they
    /// share one metrics registry).
    pub fn index_maintenance(&self) -> MaintenanceStats {
        MaintenanceStats::read(&self.telemetry.obs.metrics)
    }

    /// Registers (or replaces) tables wholesale — the bulk-load entry
    /// point (`.load` in the shell). Any index on a replaced entry reads as
    /// stale through the version epoch; an owned session's
    /// [`crate::Session::register_tables`] builds the loaded tables'
    /// indexes.
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

    /// Brings every period table's index up to date: what an owned
    /// session runs when it adopts the database and after a bulk load.
    pub(crate) fn build_indexes(&mut self) {
        self.indexes
            .refresh(&self.catalog, self.catalog.table_names());
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

/// Creates a table inside `catalog` (a transaction's private working
/// catalog). `period` names the two INT columns holding each tuple's
/// validity interval; without it the table is non-temporal.
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
    if !table.iter().any(&mut pred) {
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
    pred: P,
    update: U,
) -> Result<usize, String>
where
    P: FnMut(&Row) -> bool,
    U: FnMut(&Row) -> Result<Row, String>,
{
    catalog.update_where(name, pred, update)
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
        let mut catalog = Catalog::new();
        create_table_in(&mut catalog, "works", works_schema(), Some((2, 3))).unwrap();
        assert!(create_table_in(&mut catalog, "works", works_schema(), None)
            .unwrap_err()
            .contains("already exists"));
        assert_eq!(
            insert_rows_in(&mut catalog, "works", vec![row!["Ann", "SP", 3, 10]]).unwrap(),
            1
        );
        assert_eq!(catalog.get("works").unwrap().len(), 1);
        let ann = |r: &Row| r.get(0) == &Value::str("Ann");
        assert_eq!(delete_where_in(&mut catalog, "works", ann).unwrap(), 1);
        assert_eq!(catalog.get("works").unwrap().len(), 0);
        assert!(catalog.remove("works").is_some());
        assert!(catalog.remove("works").is_none());
    }

    #[test]
    fn create_table_validates_period() {
        let mut catalog = Catalog::new();
        assert!(
            create_table_in(&mut catalog, "t", works_schema(), Some((0, 3)))
                .unwrap_err()
                .contains("must be INT")
        );
        assert!(
            create_table_in(&mut catalog, "t", works_schema(), Some((2, 2)))
                .unwrap_err()
                .contains("distinct")
        );
        let dup = Schema::of(&[("x", SqlType::Int), ("x", SqlType::Int)]);
        assert!(create_table_in(&mut catalog, "t", dup, None)
            .unwrap_err()
            .contains("duplicate column"));
    }

    #[test]
    fn insert_is_atomic_and_conforms_types() {
        let mut catalog = Catalog::new();
        let schema = Schema::of(&[("x", SqlType::Int), ("d", SqlType::Double)]);
        create_table_in(&mut catalog, "t", schema, None).unwrap();
        // Second row fails the type check: nothing is inserted.
        let err = insert_rows_in(&mut catalog, "t", vec![row![1, 2], row!["oops", 3]]).unwrap_err();
        assert!(err.contains("does not fit"));
        assert_eq!(catalog.get("t").unwrap().len(), 0);
        // Int widens into DOUBLE.
        insert_rows_in(&mut catalog, "t", vec![row![1, 2]]).unwrap();
        assert_eq!(
            catalog.get("t").unwrap().rows()[0].get(1),
            &Value::Double(2.0)
        );
    }
}
