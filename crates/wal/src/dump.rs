//! Logical SQL dumps: the catalog as a re-loadable script.
//!
//! [`dump_sql`] renders every table as a `CREATE TABLE` (with its `PERIOD`
//! spec) followed by batched `INSERT ... VALUES` statements, in the SQL
//! dialect the parser reads back — a human-readable backup and a recovery
//! debugging aid (diff two dumps to see what a replay changed).
//!
//! Lossiness: non-finite doubles (`NaN`, `±inf`) have no literal in the
//! dialect and dump as `NULL` (flagged with a `--` comment on the batch);
//! everything else round-trips exactly, including negative numbers,
//! quotes inside strings, and the full `f64` precision of finite doubles.

use storage::{Catalog, Table, Value, BLOCK_ROWS};

/// Rows per generated `INSERT` statement: a table's block, so that every
/// statement renders one contiguous run of rows.
const BATCH: usize = BLOCK_ROWS;

/// Renders `catalog` as a SQL script that recreates it (see module docs).
pub fn dump_sql(catalog: &Catalog) -> String {
    let tables: Vec<(&str, &Table)> = catalog
        .table_names()
        .filter_map(|name| catalog.get(name).map(|t| (name, t)))
        .collect();
    let mut out = format!(
        "-- snapshot_db logical dump: {} table(s), {} row(s)\n",
        tables.len(),
        catalog.total_rows()
    );
    for (name, table) in tables {
        out.push('\n');
        dump_table(&mut out, name, table);
    }
    out
}

fn dump_table(out: &mut String, name: &str, table: &Table) {
    let schema = table.schema();
    let cols: Vec<String> = schema
        .columns()
        .iter()
        .map(|c| format!("{} {}", c.name, c.ty))
        .collect();
    out.push_str(&format!("CREATE TABLE {name} ({})", cols.join(", ")));
    if let Some((b, e)) = table.period() {
        out.push_str(&format!(
            " PERIOD ({}, {})",
            schema.column(b).name,
            schema.column(e).name
        ));
    }
    out.push_str(";\n");

    for batch in table.chunks().flat_map(|run| run.chunks(BATCH)) {
        let mut lossy = false;
        let rendered: Vec<String> = batch
            .iter()
            .map(|row| {
                let vals: Vec<String> = row
                    .values()
                    .iter()
                    .map(|v| {
                        let (s, l) = format_value(v);
                        lossy |= l;
                        s
                    })
                    .collect();
                format!("  ({})", vals.join(", "))
            })
            .collect();
        if lossy {
            out.push_str("-- note: non-finite doubles below dumped as NULL\n");
        }
        out.push_str(&format!(
            "INSERT INTO {name} VALUES\n{};\n",
            rendered.join(",\n")
        ));
    }
}

/// Renders one value as a SQL literal; the flag reports lossiness
/// (non-finite doubles).
fn format_value(v: &Value) -> (String, bool) {
    match v {
        Value::Null => ("NULL".into(), false),
        Value::Bool(true) => ("TRUE".into(), false),
        Value::Bool(false) => ("FALSE".into(), false),
        Value::Int(i) => (i.to_string(), false),
        Value::Double(d) => format_double(*d),
        Value::Str(s) => (format!("'{}'", s.replace('\'', "''")), false),
    }
}

/// A plain-decimal rendering of a finite double that parses back to the
/// identical bit pattern (the lexer has no exponent syntax, so exponent
/// renderings are expanded).
fn format_double(d: f64) -> (String, bool) {
    if !d.is_finite() {
        return ("NULL".into(), true);
    }
    let shortest = format!("{d:?}"); // shortest round-trip repr
    if !shortest.contains(['e', 'E']) {
        return (shortest, false);
    }
    if d.abs() >= 1.0 {
        // Large magnitudes with exponent reprs are exact integers
        // (>= 2^53): the full decimal expansion round-trips exactly.
        (format!("{d:.1}"), false)
    } else {
        // Small magnitudes: print enough fractional digits that parsing
        // rounds back to the same double (340 covers subnormals), then
        // trim trailing zeros.
        let mut s = format!("{d:.340}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.push('0');
        }
        (s, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{row, Schema, SqlType};

    #[test]
    fn dump_renders_period_create_and_batched_inserts() {
        let mut t = Table::with_period(
            Schema::of(&[
                ("name", SqlType::Str),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]),
            1,
            2,
        );
        t.push(row!["it's Ann", 3, 10]);
        t.push(row!["Joe", -2, 16]);
        let mut c = Catalog::new();
        c.register("works", t);
        c.register(
            "empty",
            Table::new(Schema::of(&[("b", SqlType::Bool), ("d", SqlType::Double)])),
        );
        let dump = dump_sql(&c);
        assert!(dump.contains("CREATE TABLE works (name TEXT, ts INT, te INT) PERIOD (ts, te);"));
        assert!(dump.contains("CREATE TABLE empty (b BOOL, d DOUBLE);"));
        assert!(dump.contains("('it''s Ann', 3, 10)"));
        assert!(dump.contains("('Joe', -2, 16)"));
        assert!(
            !dump.contains("INSERT INTO empty"),
            "no INSERT for empty tables"
        );
    }

    #[test]
    fn double_literals_round_trip_through_parse() {
        for d in [
            0.0,
            -0.0,
            2.5,
            0.1,
            -0.1,
            1.0 / 3.0,
            1e300,
            -1e300,
            5e-324,
            1e-20,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let (s, lossy) = format_double(d);
            assert!(!lossy);
            let digits = s.strip_prefix('-').unwrap_or(&s);
            let parsed: f64 = digits.parse().unwrap();
            let parsed = if s.starts_with('-') { -parsed } else { parsed };
            assert_eq!(parsed.to_bits(), d.to_bits(), "{d} -> {s}");
        }
        assert_eq!(format_double(f64::NAN), ("NULL".into(), true));
        assert_eq!(format_double(f64::INFINITY), ("NULL".into(), true));
    }
}
