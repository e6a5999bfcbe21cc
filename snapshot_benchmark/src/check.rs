//! The correctness gate: always on, every run.
//!
//! * Every read response's row **bag** (multiplicities included) is hashed
//!   and compared with the same statement run in-process on the identically
//!   seeded data through the *naive* route (no indexes) — a different
//!   physical path than the server's.
//! * Every statement class is checked once per run against
//!   `baseline::PointwiseOracle` at a reduced scale.
//! * `registry_mix` replays each table's commit history in a [`Mirror`]
//!   and requires every checked census to equal the mirror at one of the
//!   commit prefixes it can legally have seen (so a half-visible publish
//!   matches nothing), and the restarted server's tables to equal the
//!   mirror after all acknowledged commits.

use crate::workloads::{Commit, Workload, ORACLE, REGISTRY_TABLES};
use baseline::PointwiseOracle;
use snapshot_session::{Database, Session, SessionOptions};
use sql::{BoundStatement, SeqWindow};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use storage::{Catalog, Row, Value};

/// An order-independent digest of a row bag: the row count and the
/// wrapping sum of per-row SipHash values (fixed keys, so it repeats
/// across processes). Duplicates add twice — a bag, not a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BagHash {
    pub rows: u64,
    pub sum: u64,
}

pub fn bag_hash(rows: &[Row]) -> BagHash {
    let mut out = BagHash::default();
    for row in rows {
        // `DefaultHasher::new()` uses fixed keys.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        out.sum = out.sum.wrapping_add(h.finish());
        out.rows += 1;
    }
    out
}

/// Options of the checking route: naive operators, no metrics side effects.
fn naive_options() -> SessionOptions {
    SessionOptions {
        use_indexes: false,
        collect_metrics: false,
        ..SessionOptions::default()
    }
}

fn naive_session(catalog: &Catalog) -> Session {
    Session::with_options(Database::from_catalog(catalog.clone()), naive_options())
}

fn query_rows(session: &mut Session, sql: &str) -> Result<Vec<Row>, String> {
    let result = session.execute(sql)?;
    result
        .rows()
        .map(|t| t.rows().to_vec())
        .ok_or_else(|| format!("not a query: {sql}"))
}

/// The expected bag of every static read variant, via the naive route.
pub fn expected_statics(w: &Workload, catalog: &Catalog) -> Result<Vec<BagHash>, String> {
    let mut session = naive_session(catalog);
    w.statics
        .iter()
        .map(|(_, sql)| query_rows(&mut session, sql).map(|rows| bag_hash(&rows)))
        .collect()
}

// ---------------------------------------------------------------------------
// Registry mirror
// ---------------------------------------------------------------------------

/// An independent model of the registry tables: commits are applied as
/// data (rows appended, periods closed) straight onto the tables — not by
/// running the SQL the server ran — and censuses run on the naive route.
#[derive(Debug)]
pub struct Mirror {
    session: Session,
    applied: [usize; 2],
    end: i64,
}

impl Mirror {
    pub fn new(w: &Workload, catalog: &Catalog) -> Mirror {
        Mirror {
            session: naive_session(catalog),
            applied: [0, 0],
            end: w.scale.registry_time.end,
        }
    }

    fn apply(&mut self, commit: &Commit) -> Result<(), String> {
        let name = REGISTRY_TABLES[commit.table];
        let db = self.session.database_mut();
        db.insert_rows(name, commit.rows.clone())?;
        if let Some((first, last)) = commit.closes {
            let (stamp, end) = (commit.stamp, self.end);
            let closed = db.update_where(
                name,
                |r| (first..=last).contains(&r.int(0)) && r.int(6) == end && r.int(5) < stamp,
                |r| {
                    let mut values = r.values().to_vec();
                    values[6] = Value::Int(stamp);
                    Ok(Row::new(values))
                },
            )?;
            if closed != commit.rows.len() {
                return Err(format!(
                    "mirror: publish at {stamp} closed {closed} versions, expected {}",
                    commit.rows.len()
                ));
            }
        }
        Ok(())
    }

    /// Brings `table` to exactly `k` applied commits (forward only).
    pub fn advance(&mut self, w: &Workload, table: usize, k: usize) -> Result<(), String> {
        if k < self.applied[table] {
            return Err(format!(
                "mirror cannot rewind table {table} from {} to {k}",
                self.applied[table]
            ));
        }
        while self.applied[table] < k {
            let commit = w.commit(table, self.applied[table]);
            self.apply(&commit)?;
            self.applied[table] += 1;
        }
        Ok(())
    }

    pub fn census(&mut self, table: usize) -> Result<BagHash, String> {
        query_rows(&mut self.session, &Workload::census_sql(table)).map(|r| bag_hash(&r))
    }

    /// The whole table's bag.
    pub fn table(&self, table: usize) -> BagHash {
        let catalog = self.session.database().catalog();
        bag_hash(
            catalog
                .get(REGISTRY_TABLES[table])
                .map(|t| t.rows())
                .unwrap_or(&[]),
        )
    }
}

/// One census response awaiting its check: it ran somewhere between `lo`
/// commits of `table` acknowledged before it was sent and `hi` commits
/// sent by the time it returned.
#[derive(Debug, Clone, Copy)]
pub struct CensusSeen {
    pub table: usize,
    pub lo: usize,
    pub hi: usize,
    pub seen: BagHash,
}

/// Censuses checked per table: evenly spaced over the run (a naive-route
/// census costs ~10 ms, so checking all of them would outlast the run).
const CENSUS_CHECKS_PER_TABLE: usize = 24;

/// Checks an evenly spaced sample of the censuses against the mirror.
/// Returns `(checked, mismatches)`; the mirror ends up past the last one.
pub fn check_censuses(
    w: &Workload,
    mirror: &mut Mirror,
    seen: &[CensusSeen],
) -> Result<(usize, Vec<String>), String> {
    let mut checked = 0;
    let mut failures = Vec::new();
    for (table, name) in REGISTRY_TABLES.iter().enumerate() {
        let mut of_table: Vec<CensusSeen> =
            seen.iter().copied().filter(|c| c.table == table).collect();
        of_table.sort_by_key(|c| (c.lo, c.hi));
        let step = of_table.len().div_ceil(CENSUS_CHECKS_PER_TABLE).max(1);
        let mut expected: BTreeMap<usize, BagHash> = BTreeMap::new();
        for census in of_table.iter().step_by(step) {
            let mut matched = false;
            for k in census.lo..=census.hi {
                let hash = match expected.get(&k) {
                    Some(h) => *h,
                    None => {
                        mirror.advance(w, table, k)?;
                        let h = mirror.census(table)?;
                        expected.insert(k, h);
                        h
                    }
                };
                matched |= hash == census.seen;
            }
            checked += 1;
            if !matched {
                failures.push(format!(
                    "census of {} matches no commit prefix in {}..={} ({} rows seen)",
                    name, census.lo, census.hi, census.seen.rows
                ));
            }
        }
    }
    Ok((checked, failures))
}

// ---------------------------------------------------------------------------
// Point-wise oracle
// ---------------------------------------------------------------------------

/// Checks every statement class of workload `name` against the point-wise
/// oracle on a tiny instance of the same seed. Statements run through the
/// default (indexed) route — the one the server takes. Returns
/// `(classes checked, failures)`.
pub fn oracle_check(name: &str, seed: u64) -> Result<(usize, Vec<String>), String> {
    let (w, catalog) = Workload::new(name, seed, ORACLE)?;
    let mut session = Session::with_options(
        Database::from_catalog(catalog),
        SessionOptions {
            collect_metrics: false,
            ..SessionOptions::default()
        },
    );
    // Registry statements are checked on a table that already took a few
    // commits, so the census sees closed and superseded versions.
    if name == "registry_mix" {
        for table in 0..REGISTRY_TABLES.len() {
            for k in 0..6 {
                for piece in sql::split_script(&w.commit_op(&w.commit(table, k)).sql) {
                    session.execute(&piece)?;
                }
            }
        }
    }
    let mut failures = Vec::new();
    let representatives = w.representatives();
    for (class, sql) in &representatives {
        let catalog = session.database().catalog().clone();
        let stmt = sql::parse_statement(sql)?;
        let BoundStatement::Snapshot { plan, window, .. } = sql::bind_statement(&stmt, &catalog)?
        else {
            return Err(format!("not a snapshot statement: {sql}"));
        };
        let domain = rewrite::infer_domain(&catalog);
        let oracle = PointwiseOracle::new(domain).eval_rows(&plan, &catalog)?;
        let expected = restrict_to_window(oracle, window);
        let mut got = query_rows(&mut session, sql)?;
        got.sort_unstable();
        if got != expected {
            failures.push(format!(
                "{name}/{}: {} rows, the point-wise oracle has {}",
                w.classes[*class].name,
                got.len(),
                expected.len()
            ));
        }
    }
    Ok((representatives.len(), failures))
}

/// Restricts the oracle's full-history encoding (period = last two
/// columns) to a `SEQ VT` window, sorted: the snapshot at `t` for `AS OF`
/// (period dropped), the clipped encoding for `BETWEEN`.
fn restrict_to_window(rows: Vec<Row>, window: SeqWindow) -> Vec<Row> {
    let mut out: Vec<Row> = match window {
        SeqWindow::Full => rows,
        SeqWindow::AsOf(t) => rows
            .into_iter()
            .filter_map(|r| {
                let n = r.arity();
                (r.int(n - 2) <= t && t < r.int(n - 1))
                    .then(|| Row::new(r.values()[..n - 2].to_vec()))
            })
            .collect(),
        SeqWindow::Between(t1, t2) => rows
            .into_iter()
            .filter_map(|r| {
                let n = r.arity();
                let (b, e) = (r.int(n - 2).max(t1), r.int(n - 1).min(t2.saturating_add(1)));
                (b < e).then(|| {
                    let mut values = r.values().to_vec();
                    values[n - 2] = Value::Int(b);
                    values[n - 1] = Value::Int(e);
                    Row::new(values)
                })
            })
            .collect(),
    };
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{SMOKE, WORKLOADS};
    use storage::row;

    #[test]
    fn bag_hash_counts_multiplicities_and_ignores_order() {
        let a = [row![1, "x"], row![2, "y"], row![1, "x"]];
        let b = [row![1, "x"], row![1, "x"], row![2, "y"]];
        let set = [row![1, "x"], row![2, "y"]];
        assert_eq!(bag_hash(&a), bag_hash(&b));
        assert_ne!(bag_hash(&a), bag_hash(&set));
        assert_eq!(bag_hash(&a).rows, 3);
    }

    #[test]
    fn window_restriction_slices_and_clips() {
        let rows = vec![row!["a", 0, 10], row!["b", 5, 8], row!["c", 20, 30]];
        assert_eq!(
            restrict_to_window(rows.clone(), SeqWindow::AsOf(6)),
            vec![row!["a"], row!["b"]]
        );
        assert_eq!(
            restrict_to_window(rows, SeqWindow::Between(7, 20)),
            vec![row!["a", 7, 10], row!["b", 7, 8], row!["c", 20, 21]]
        );
    }

    #[test]
    fn every_class_agrees_with_the_oracle_at_reduced_scale() {
        for name in WORKLOADS {
            let (checked, failures) = oracle_check(name, 11).unwrap();
            assert!(checked >= 2, "{name}");
            assert!(failures.is_empty(), "{failures:?}");
        }
    }

    #[test]
    fn mirror_replay_matches_running_the_sql() {
        let (w, catalog) = Workload::new("registry_mix", 5, SMOKE).unwrap();
        let mut mirror = Mirror::new(&w, &catalog);
        let mut session = Session::new(Database::from_catalog(catalog));
        for k in 0..40 {
            for piece in sql::split_script(&w.commit_op(&w.commit(1, k)).sql) {
                session.execute(&piece).unwrap();
            }
        }
        mirror.advance(&w, 1, 40).unwrap();
        let served = session
            .database()
            .catalog()
            .get(REGISTRY_TABLES[1])
            .unwrap()
            .rows()
            .to_vec();
        assert_eq!(mirror.table(1), bag_hash(&served));
        let census = query_rows(&mut session, &Workload::census_sql(1)).unwrap();
        assert_eq!(mirror.census(1).unwrap(), bag_hash(&census));
        // A half-applied publish (rows inserted, predecessors left open)
        // is told apart.
        let commit = w.commit(1, 40);
        assert!(commit.closes.is_some());
        session
            .database_mut()
            .insert_rows(REGISTRY_TABLES[1], commit.rows)
            .unwrap();
        let torn = query_rows(&mut session, &Workload::census_sql(1)).unwrap();
        mirror.advance(&w, 1, 41).unwrap();
        assert_ne!(mirror.census(1).unwrap(), bag_hash(&torn));
    }
}
