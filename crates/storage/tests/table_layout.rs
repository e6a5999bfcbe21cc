//! A table's sealed-block layout is invisible: random sequences of writes,
//! clones and seals against a plain `Vec<Row>` model.

use proptest::prelude::*;
use std::collections::BTreeSet;
use storage::{row, Row, Schema, SqlType, Table, Value, BLOCK_ROWS};

/// One step of a sequence.
#[derive(Debug, Clone)]
enum Step {
    Push(Row),
    Extend(Vec<Row>),
    /// Appends the rows, the one at the index (if any) made invalid.
    TryExtend(Vec<Row>, usize),
    /// Moves the end of every row whose begin is `k` modulo `m` by one;
    /// with the flag, one of them is made invalid instead.
    Update(i64, i64, bool),
    /// Deletes every row whose begin is `k` modulo `m`.
    Delete(i64, i64),
    Canonicalize,
    /// Keeps the table as an original that no later step may change and
    /// goes on with its clone.
    Clone,
    Seal,
}

fn schema() -> Schema {
    Schema::of(&[
        ("n", SqlType::Str),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ])
}

fn cell((n, ts, len): (i64, i64, i64)) -> Row {
    row![format!("r{n}"), ts, ts + len]
}

fn rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0i64..9, 0i64..600, 1i64..40).prop_map(cell), 0..max)
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..9, 0i64..600, 1i64..40).prop_map(|c| Step::Push(cell(c))),
        rows(2 * BLOCK_ROWS).prop_map(Step::Extend),
        (rows(300), 0usize..400).prop_map(|(r, bad)| Step::TryExtend(r, bad)),
        (1i64..40, 0i64..40, 0u8..4).prop_map(|(m, k, f)| Step::Update(m, k % m, f == 0)),
        (1i64..60, 0i64..60).prop_map(|(m, k)| Step::Delete(m, k % m)),
        Just(Step::Canonicalize),
        Just(Step::Clone),
        Just(Step::Seal),
        Just(Step::Seal),
    ]
}

fn matches(m: i64, k: i64) -> impl Fn(&Row) -> bool {
    move |r: &Row| r.int(1) % m == k
}

/// The model's write record: version copied from, length then, replaced
/// positions.
type Record = Option<(u64, usize, BTreeSet<usize>)>;

fn check(t: &Table, model: &[Row], written: &Record) {
    assert_eq!(t.len(), model.len());
    assert_eq!(t.is_empty(), model.is_empty());
    assert!(t.iter().eq(model.iter()), "iter");
    for (i, r) in model.iter().enumerate() {
        assert_eq!(t.row(i), r, "row({i})");
    }
    let chunked: Vec<&Row> = t.chunks().flatten().collect();
    assert!(chunked.into_iter().eq(model.iter()), "chunks");
    let extent = model.iter().fold(None, |acc: Option<(i64, i64)>, r| {
        let (b, e) = (r.int(1), r.int(2));
        Some(acc.map_or((b, e), |(lo, hi)| (lo.min(b), hi.max(e))))
    });
    assert_eq!(t.period_extent(), extent, "period_extent");
    match written {
        Some((from, len, replaced)) => {
            let replaced: Vec<usize> = replaced.iter().copied().collect();
            assert_eq!(t.edited_since(*from), Some((*len, &replaced[..])));
        }
        None => assert!(
            t.edited_since(t.version()).is_none(),
            "no record answers for the table's own version"
        ),
    }
    let mut plain = Table::with_period(schema(), 1, 2);
    plain.extend(model.iter().cloned());
    assert_eq!(*t, plain, "==");
    assert_eq!(plain, *t, "== the other way");
    assert_eq!(t.rows(), model, "rows");
}

/// The rows past the sealed blocks.
fn tail(t: &Table) -> usize {
    t.chunks().last().map_or(0, <[Row]>::len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_sealed_layout_behaves_like_a_vec(steps in proptest::collection::vec(step(), 1..40)) {
        let mut t = Table::with_period(schema(), 1, 2);
        let mut model: Vec<Row> = Vec::new();
        let mut written: Record = None;
        let mut originals: Vec<(Table, Vec<Row>)> = Vec::new();
        for step in steps {
            let before = t.version();
            match step.clone() {
                Step::Push(r) => {
                    t.push(r.clone());
                    model.push(r);
                }
                Step::Extend(rows) => {
                    t.extend(rows.clone());
                    model.extend(rows);
                }
                Step::TryExtend(mut rows, bad) => {
                    let good = bad.min(rows.len());
                    if let Some(r) = rows.get_mut(bad) {
                        *r = row!["bad", 5, 5];
                    }
                    prop_assert_eq!(t.try_extend(rows.clone()).is_err(), good < rows.len());
                    model.extend(rows.into_iter().take(good));
                }
                Step::Update(m, k, invalid) => {
                    let hit = matches(m, k);
                    let bump = |r: &Row| {
                        let mut v = r.values().to_vec();
                        v[2] = Value::Int(r.int(2) + 1);
                        Row::new(v)
                    };
                    let hits: Vec<usize> = (0..model.len()).filter(|&i| hit(&model[i])).collect();
                    let out = t.update_where(&hit, |r| match invalid {
                        true => Ok(row!["bad", 5, 5]),
                        false => Ok(bump(r)),
                    });
                    if invalid && !hits.is_empty() {
                        prop_assert!(out.is_err());
                        prop_assert_eq!(t.version(), before, "a refused update changes nothing");
                    } else {
                        prop_assert_eq!(out, Ok(hits.len()));
                        for &i in &hits {
                            model[i] = bump(&model[i]);
                        }
                        if let Some((_, len, replaced)) = &mut written {
                            replaced.extend(hits.iter().filter(|&&i| i < *len));
                        }
                    }
                }
                Step::Delete(m, k) => {
                    let hit = matches(m, k);
                    let removed = t.delete_where(&hit);
                    let kept: Vec<Row> = model.iter().filter(|r| !hit(r)).cloned().collect();
                    prop_assert_eq!(removed, model.len() - kept.len());
                    if removed > 0 {
                        written = None;
                    }
                    model = kept;
                }
                Step::Canonicalize => {
                    t.canonicalize();
                    model.sort();
                    written = None;
                }
                Step::Clone => {
                    let copy = t.clone();
                    prop_assert_eq!(copy.version(), t.version());
                    prop_assert_eq!(copy.copied_rows(), tail(&t), "a clone copies its tail");
                    written = Some((t.version(), t.len(), BTreeSet::new()));
                    originals.push((std::mem::replace(&mut t, copy), model.clone()));
                    if originals.len() > 4 {
                        originals.remove(0);
                    }
                }
                Step::Seal => {
                    t.seal();
                    prop_assert_eq!(t.version(), before, "sealing changes no content");
                    prop_assert!(tail(&t) < BLOCK_ROWS);
                    let blocks: Vec<usize> = t.chunks().map(<[Row]>::len).collect();
                    prop_assert!(blocks[..blocks.len() - 1].iter().all(|&n| n == BLOCK_ROWS));
                }
            }
            if t.version() != before {
                prop_assert!(!t.rows_cached(), "a write clears the flattened rows");
            }
            check(&t, &model, &written);
            for (original, rows) in &originals {
                prop_assert!(original.iter().eq(rows.iter()), "a clone's write reached its original");
            }
        }
    }
}

/// A copy shares its original's sealed blocks: writing one row copies that
/// row's block, and appending copies nothing sealed.
#[test]
fn a_copy_duplicates_only_its_tail_and_the_blocks_it_writes() {
    let mut t = Table::with_period(schema(), 1, 2);
    t.extend((0..20_000).map(|i| row![format!("r{i}"), i, i + 10]));
    t.seal();
    let tail = 20_000 % BLOCK_ROWS;

    let mut copy = t.clone();
    assert_eq!(copy.copied_rows(), tail);
    copy.push(row!["new", 1, 2]);
    assert_eq!(copy.copied_rows(), tail, "an append copies nothing more");

    let at = |i: i64| move |r: &Row| r.int(1) == i;
    let end = |r: &Row| Ok(row![r.get(0).clone(), r.int(1), r.int(2) + 1]);
    assert_eq!(copy.update_where(at(7), end), Ok(1));
    assert_eq!(copy.copied_rows(), tail + BLOCK_ROWS);
    assert_eq!(copy.update_where(at(8), end), Ok(1));
    assert_eq!(
        copy.copied_rows(),
        tail + BLOCK_ROWS,
        "a block unshares once"
    );
    assert_eq!(t.row(7).int(2), 17, "the original keeps its row");
    assert_eq!(copy.row(7).int(2), 18);

    assert_eq!(copy.delete_where(at(9)), 1);
    assert!(
        copy.copied_rows() >= 20_000 - BLOCK_ROWS,
        "a delete copies every shared row"
    );
    assert_eq!(t.len(), 20_000);
}
