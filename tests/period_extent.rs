//! `Table::period_extent` is derived state every mutator has to keep
//! current: after any sequence of operations it must equal a full scan,
//! and `infer_domain`, which folds it over the catalog, must equal the
//! row-scanning definition it replaced.

use proptest::prelude::*;
use snapshot_semantics::rewrite::infer_domain;
use snapshot_semantics::storage::{row, Catalog, Row, Schema, SqlType, Table};
use snapshot_semantics::timeline::TimeDomain;
use snapshot_semantics::wal::checkpoint::FORMAT_VERSION;
use snapshot_semantics::wal::codec::{decode_table, encode_table, Reader, Writer};

/// `(v INT, ts INT, te INT, w INT)` — the period deliberately not trailing.
fn schema() -> Schema {
    Schema::of(&[
        ("v", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
        ("w", SqlType::Int),
    ])
}

/// The definition: min begin / max end over all rows.
fn scanned_extent(t: &Table) -> Option<(i64, i64)> {
    let (b, e) = t.period()?;
    t.rows()
        .iter()
        .map(|r| (r.int(b), r.int(e)))
        .reduce(|(lo, hi), (b, e)| (lo.min(b), hi.max(e)))
}

/// `infer_domain` as it was before tables kept their extent.
fn row_scanning_domain(catalog: &Catalog) -> TimeDomain {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for name in catalog.table_names() {
        let table = catalog.get(name).unwrap();
        if let Some((b, e)) = table.period() {
            for row in table.rows() {
                min = min.min(row.int(b));
                max = max.max(row.int(e));
            }
        }
    }
    if min >= max {
        TimeDomain::new(0, 1)
    } else {
        TimeDomain::new(min, max)
    }
}

fn period_row((v, b, len): (i64, i64, i64)) -> Row {
    row![v, b, b + len, v * 2]
}

fn arb_row() -> impl Strategy<Value = (i64, i64, i64)> {
    (0i64..6, -50i64..50, 1i64..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn extent_equals_a_full_scan_after_every_mutation(
        ops in proptest::collection::vec(
            (0usize..8, arb_row(), proptest::collection::vec(arb_row(), 0..4)),
            1..24,
        ),
    ) {
        let mut t = Table::with_period(schema(), 1, 2);
        let mut plain = Table::new(schema());
        prop_assert_eq!(t.period_extent(), None);
        for (op, one, many) in ops {
            let (v, b, _) = one;
            match op {
                0 => {
                    t.push(period_row(one));
                    plain.push(period_row(one));
                }
                1 => t.extend(many.into_iter().map(period_row)),
                // Deletes that trim the low end, the high end, or nothing.
                2 => drop(t.delete_where(|r| r.int(1) < b)),
                3 => drop(t.delete_where(|r| r.int(2) > b + 20 || r.int(0) == v)),
                // Updates that move periods; one that fails half-way must
                // leave rows and extent as they were.
                4 => {
                    let moved = t.update_where(
                        |r| r.int(0) == v,
                        |r| Ok(row![r.int(0), r.int(1) + b, r.int(2) + b + 1, r.int(3)]),
                    );
                    prop_assert!(moved.is_ok());
                    let before = (t.rows().to_vec(), t.period_extent());
                    let failed = t.update_where(
                        |_| true,
                        |r| if r.int(0) == v {
                            Err("no".to_string())
                        } else {
                            Ok(row![r.int(0), r.int(1) - 100, r.int(2), r.int(3)])
                        },
                    );
                    if failed.is_err() {
                        prop_assert_eq!((t.rows().to_vec(), t.period_extent()), before);
                    }
                }
                5 => t.canonicalize(),
                // A clone starts equal and diverges without touching the
                // original (catalog copy-on-write relies on this).
                6 => {
                    let mut copy = t.clone();
                    prop_assert_eq!(copy.period_extent(), t.period_extent());
                    copy.delete_where(|r| r.int(0) != v);
                    copy.extend(many.into_iter().map(period_row));
                    prop_assert_eq!(copy.period_extent(), scanned_extent(&copy));
                    prop_assert_eq!(t.period_extent(), scanned_extent(&t));
                    if b % 2 == 0 {
                        t = copy;
                    }
                }
                // A checkpoint round trip derives it afresh.
                _ => {
                    let mut w = Writer::new();
                    encode_table(&mut w, &t);
                    let bytes = w.into_bytes();
                    let loaded = decode_table(&mut Reader::new(&bytes), FORMAT_VERSION).unwrap();
                    prop_assert_eq!(loaded.period_extent(), t.period_extent());
                    prop_assert_eq!(&loaded, &t);
                    t = loaded;
                }
            }
            prop_assert_eq!(t.period_extent(), scanned_extent(&t), "after op {}", op);
            prop_assert_eq!(plain.period_extent(), None, "no period, no extent");
        }
        t.delete_where(|_| true);
        prop_assert_eq!(t.period_extent(), None, "empty again");
    }

    #[test]
    fn infer_domain_equals_the_row_scan(
        tables in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(arb_row(), 0..6), 0i64..40),
            0..5,
        ),
    ) {
        let mut catalog = Catalog::new();
        for (i, (kind, rows, cut)) in tables.into_iter().enumerate() {
            let mut t = match kind {
                0 => Table::new(schema()),
                1 => Table::with_period(schema(), 1, 2),
                _ => Table::with_period(schema(), 2, 3),
            };
            for r in rows {
                // Periods over (ts, te) or (te, w): keep both pairs valid.
                t.push(row![r.0, r.1, r.1 + r.2, r.1 + 2 * r.2]);
            }
            t.delete_where(|r| r.int(1) > cut);
            catalog.register(format!("t{i}"), t);
            prop_assert_eq!(infer_domain(&catalog), row_scanning_domain(&catalog));
        }
        prop_assert_eq!(infer_domain(&catalog), row_scanning_domain(&catalog));
    }
}

#[test]
fn empty_catalogs_fall_back_to_the_unit_domain() {
    let mut catalog = Catalog::new();
    assert_eq!(infer_domain(&catalog), TimeDomain::new(0, 1));
    catalog.register("plain", Table::new(schema()));
    catalog.register("empty", Table::with_period(schema(), 1, 2));
    assert_eq!(infer_domain(&catalog), TimeDomain::new(0, 1));
    catalog.get_mut("empty").unwrap().push(row![1, -4, 9, 0]);
    assert_eq!(infer_domain(&catalog), TimeDomain::new(-4, 9));
}
