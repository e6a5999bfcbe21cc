//! `PERIODENC` / `PERIODENC⁻¹` (paper Definition 8.1): the bridge between
//! the implementation layer (multiset rows with period columns) and the
//! logical model (`N^T`-annotated period K-relations).
//!
//! A tuple annotated with a temporal N-element is encoded as one row per
//! interval, duplicated by the interval's multiplicity. The inverse groups
//! value-equivalent rows and coalesces their interval histories. These
//! mappings power the executable form of the paper's commuting diagram
//! (Equation 1 / Theorem 8.1): tests run a query through `REWR`+engine and
//! through the logical model and compare after `PERIODENC⁻¹`.

use semiring::Natural;
use snapshot_core::PeriodRelation;
use storage::{Row, Table, Value};
use timeline::{Interval, TimeDomain};

/// `PERIODENC⁻¹`: reads a period table (period = last two columns) into the
/// logical model. Tuples are the data-column prefixes of the rows.
pub fn decode_table(table: &Table, domain: TimeDomain) -> PeriodRelation<Row, Natural> {
    decode_rows(table.iter(), table.schema().arity(), domain)
}

/// `PERIODENC⁻¹` over raw rows with the given arity.
pub fn decode_rows<'r>(
    rows: impl IntoIterator<Item = &'r Row>,
    arity: usize,
    domain: TimeDomain,
) -> PeriodRelation<Row, Natural> {
    assert!(arity >= 2);
    let data = arity - 2;
    PeriodRelation::from_facts(
        domain,
        rows.into_iter().map(|r| {
            let tuple = Row::new(r.values()[..data].to_vec());
            let iv = Interval::new(r.int(data), r.int(data + 1));
            (tuple, iv, Natural(1))
        }),
    )
}

/// `PERIODENC`: writes the logical model back to rows (data columns plus
/// `[begin, end)`), duplicated per multiplicity, in canonical order.
pub fn encode_relation(rel: &PeriodRelation<Row, Natural>) -> Vec<Row> {
    let mut out = Vec::new();
    for (tuple, element) in rel.iter() {
        for (iv, Natural(m)) in element.entries() {
            let mut values = tuple.values().to_vec();
            values.push(Value::Int(iv.begin().value()));
            values.push(Value::Int(iv.end().value()));
            let row = Row::new(values);
            for _ in 0..*m {
                out.push(row.clone());
            }
        }
    }
    out.sort_unstable();
    out
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
    fn figure_2_decoding() {
        let rel = decode_table(&works_table(), TimeDomain::new(0, 24));
        assert_eq!(rel.len(), 3); // Ann merged into one tuple
        let ann = rel.annotation(&row!["Ann", "SP"]);
        assert_eq!(
            ann.entries(),
            &[
                (Interval::new(3, 10), Natural(1)),
                (Interval::new(18, 20), Natural(1)),
            ]
        );
    }

    #[test]
    fn roundtrip_is_identity_on_coalesced_data() {
        let domain = TimeDomain::new(0, 24);
        let rel = decode_table(&works_table(), domain);
        let rows = encode_relation(&rel);
        let back = decode_rows(&rows, 4, domain);
        assert_eq!(rel, back);
    }

    #[test]
    fn duplicates_become_multiplicities() {
        let domain = TimeDomain::new(0, 24);
        let rows = vec![row!["x", 0, 10], row!["x", 0, 10]];
        let rel = decode_rows(&rows, 3, domain);
        assert_eq!(
            rel.annotation(&row!["x"]).entries(),
            &[(Interval::new(0, 10), Natural(2))]
        );
        // Encoding duplicates them back, sorted.
        assert_eq!(encode_relation(&rel), rows);
    }

    #[test]
    fn overlapping_rows_coalesce_on_decode() {
        let domain = TimeDomain::new(0, 24);
        let rows = vec![row!["x", 0, 10], row!["x", 5, 15]];
        let rel = decode_rows(&rows, 3, domain);
        assert_eq!(
            rel.annotation(&row!["x"]).entries(),
            &[
                (Interval::new(0, 5), Natural(1)),
                (Interval::new(5, 10), Natural(2)),
                (Interval::new(10, 15), Natural(1)),
            ]
        );
    }
}
