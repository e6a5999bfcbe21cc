//! The split operator `N_G` (paper Definition 8.3).
//!
//! `N_G(R1, R2)` refines the validity intervals of `R1`'s rows at every
//! interval endpoint occurring in `R1 ∪ R2` within the same group `G`. After
//! splitting, any two intervals within a group are either identical or
//! disjoint — which is what lets snapshot aggregation and snapshot bag
//! difference be evaluated per-interval instead of per-time-point
//! (Sections 7–8).

use std::borrow::Borrow;
use std::collections::HashMap;
use storage::{Row, Value};

/// Applies `N_G(left, right)`.
///
/// Both inputs carry the period in their last two columns; `group_cols`
/// are data-column positions meaningful in both schemas (union-compatible
/// inputs). Returns the refined version of `left`. Either side is a slice
/// of rows or of row references.
pub fn split_rows<L: Borrow<Row>, R: Borrow<Row>>(
    left: &[L],
    right: &[R],
    group_cols: &[usize],
    arity: usize,
) -> Vec<Row> {
    let (ts, te) = (arity - 2, arity - 1);
    let key_of = |r: &Row| -> Vec<Value> { group_cols.iter().map(|&i| r.get(i).clone()).collect() };

    // Endpoint sets per group, from both inputs (EP_G of Def. 8.3).
    let mut endpoints: HashMap<Vec<Value>, Vec<i64>> = HashMap::new();
    let (l, r) = (
        left.iter().map(Borrow::borrow),
        right.iter().map(Borrow::borrow),
    );
    for r in l.chain(r) {
        let ep = endpoints.entry(key_of(r)).or_default();
        ep.push(r.int(ts));
        ep.push(r.int(te));
    }
    for ep in endpoints.values_mut() {
        ep.sort_unstable();
        ep.dedup();
    }

    let mut out = Vec::with_capacity(left.len());
    for r in left {
        let r = r.borrow();
        let ep = &endpoints[&key_of(r)];
        let (b, e) = (r.int(ts), r.int(te));
        // Walk the endpoints inside (b, e) and cut the row at each.
        let mut cur = b;
        let start = ep.partition_point(|&p| p <= b);
        for &p in &ep[start..] {
            if p >= e {
                break;
            }
            out.push(with_period(r, ts, cur, p));
            cur = p;
        }
        out.push(with_period(r, ts, cur, e));
    }
    out
}

fn with_period(r: &Row, ts: usize, b: i64, e: i64) -> Row {
    let mut values = r.values().to_vec();
    values[ts] = Value::Int(b);
    values[ts + 1] = Value::Int(e);
    Row::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::row;

    #[test]
    fn splits_at_partner_endpoints() {
        // left: x over [0,10); right: x over [3,7) → left splits at 3 and 7.
        let left = vec![row!["x", 0, 10]];
        let right = vec![row!["x", 3, 7]];
        let out = split_rows(&left, &right, &[0], 3);
        assert_eq!(
            out,
            vec![row!["x", 0, 3], row!["x", 3, 7], row!["x", 7, 10]]
        );
    }

    #[test]
    fn groups_are_independent() {
        let left = vec![row!["x", 0, 10], row!["y", 0, 10]];
        let right = vec![row!["x", 5, 6]];
        let mut out = split_rows(&left, &right, &[0], 3);
        out.sort();
        // y is untouched: its group has no extra endpoints.
        assert_eq!(
            out,
            vec![
                row!["x", 0, 5],
                row!["x", 5, 6],
                row!["x", 6, 10],
                row!["y", 0, 10],
            ]
        );
    }

    #[test]
    fn empty_group_cols_is_global_split() {
        let left = vec![row!["a", 0, 4], row!["b", 2, 6]];
        let right: Vec<Row> = vec![];
        let mut out = split_rows(&left, &right, &[], 3);
        out.sort();
        // Global endpoints {0,2,4,6}: both rows split at interior points.
        assert_eq!(
            out,
            vec![
                row!["a", 0, 2],
                row!["a", 2, 4],
                row!["b", 2, 4],
                row!["b", 4, 6],
            ]
        );
    }

    #[test]
    fn after_split_intervals_identical_or_disjoint() {
        let left = vec![
            row!["g", 0, 10],
            row!["g", 3, 12],
            row!["g", 3, 12],
            row!["g", 5, 6],
        ];
        let out = split_rows(&left, &left, &[0], 3);
        for a in &out {
            for b in &out {
                let (ab, ae) = (a.int(1), a.int(2));
                let (bb, be) = (b.int(1), b.int(2));
                let overlap = ab < be && bb < ae;
                let identical = ab == bb && ae == be;
                assert!(
                    !overlap || identical,
                    "intervals [{ab},{ae}) and [{bb},{be}) overlap but differ"
                );
            }
        }
    }

    #[test]
    fn multiplicities_preserved_pointwise() {
        let left = vec![row!["g", 0, 8], row!["g", 0, 8], row!["g", 4, 12]];
        let right = vec![row!["g", 2, 5]];
        let out = split_rows(&left, &right, &[0], 3);
        for t in 0..14 {
            let before = left
                .iter()
                .filter(|r| r.int(1) <= t && t < r.int(2))
                .count();
            let after = out.iter().filter(|r| r.int(1) <= t && t < r.int(2)).count();
            assert_eq!(before, after, "multiplicity changed at {t}");
        }
    }

    #[test]
    fn duplicates_split_identically() {
        let left = vec![row!["g", 0, 10], row!["g", 0, 10]];
        let right = vec![row!["g", 5, 7]];
        let out = split_rows(&left, &right, &[0], 3);
        assert_eq!(out.len(), 6);
    }
}
