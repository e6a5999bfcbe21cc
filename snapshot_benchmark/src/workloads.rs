//! The four workloads: their data, statement classes and operation
//! sequences — everything derived from `--seed`, nothing from the clock.
//!
//! The system under test only ever receives the generated inputs (a
//! checkpoint directory and SQL text); the seed stays on this side.

use datagen::employees;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{Catalog, Row, Schema, SqlType, Table, Value};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["agg_read", "join_read", "bulk_fetch", "registry_mix"];

/// Why each workload exists (one line each; also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "agg_read" => {
            "snapshot aggregation (the paper's headline case): engine aggregate/coalesce/join are \
             most of the RTT, wal/txn idle; where column batches or a fused aggregate must show"
        }
        "join_read" => {
            "overlap joins and bag difference with 18-20k-row results: engine join/diff plus row \
             materialisation and result encode"
        }
        "bulk_fetch" => {
            "AS OF / BETWEEN fetches answered by index tree stabs in under 1 ms: wire encode, \
             socket and per-statement fixed cost dominate; engine changes must not move it"
        }
        "registry_mix" => {
            "writes beside reads on the durable server: txn validate/publish, wal append, fsync \
             and checkpoint, index maintenance, storage copy-on-write; ends with kill -9 and restart"
        }
        _ => "",
    }
}

/// Data and repetition sizes. `full` is what `BENCHMARK.json` measures;
/// `smoke` shrinks everything so the smoke test finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    /// `datagen::employees` employee count N.
    pub employees: usize,
    /// Seed versions per registry table.
    pub registry_versions: usize,
    /// Registry objects that stay live and take new versions (multiple of 8).
    pub registry_pool: usize,
    /// Warm-up executions per statement class.
    pub warmup: usize,
    /// Full set-ups per untraced run (`setup_s` is their median).
    pub setups: usize,
    /// Directory copies restarted for `recovery_s` (median).
    pub recovery_copies: usize,
    /// Traced statements per class.
    pub trace_sample: usize,
    /// The registry's time line.
    pub registry_time: RegistryTime,
}

pub const FULL: Scale = Scale {
    name: "full",
    employees: 2000,
    registry_versions: 8000,
    registry_pool: 1024,
    warmup: 20,
    setups: 3,
    recovery_copies: 7,
    trace_sample: 40,
    registry_time: RegistryTime {
        t0: 10_000,
        end: 100_000,
    },
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    employees: 120,
    registry_versions: 400,
    registry_pool: 64,
    warmup: 2,
    setups: 1,
    recovery_copies: 1,
    trace_sample: 4,
    registry_time: RegistryTime {
        t0: 400,
        end: 4_000,
    },
};

/// The reduced scale at which every statement class is checked against
/// `baseline::PointwiseOracle` (which evaluates per time point, so the
/// data and the registry's time line must be tiny).
pub const ORACLE: Scale = Scale {
    name: "oracle",
    employees: 60,
    registry_versions: 64,
    registry_pool: 16,
    warmup: 0,
    setups: 0,
    recovery_copies: 0,
    trace_sample: 0,
    registry_time: RegistryTime { t0: 60, end: 90 },
};

/// Whether a statement class reads or commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    Read,
    Write,
}

/// One statement class: the unit RTT percentiles are taken over. A
/// workload's RTT metric is the mix-weighted mean of its classes'
/// percentiles, so a class keeps its weight however fast it is (a pooled
/// percentile over classes of very different cost would sit on a class
/// boundary and jump between them from run to run).
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    pub name: &'static str,
    pub kind: ClassKind,
    /// Share of this class among the workload's operations of its kind.
    pub weight: f64,
}

/// How a response is checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// The row bag must hash to the in-process naive-route result of the
    /// same statement on the seed data (`variant` keys the expectation).
    Static { variant: usize },
    /// A census of `table`: checked against the mirror replay at every
    /// commit prefix the census can legally have seen.
    Census { table: usize },
    /// A commit unit: every statement must report the expected summary.
    Commit { summaries: Vec<String> },
}

/// One registry commit, as data: the rows it inserts and, for a publish,
/// the `object_id` range whose open versions it closes at `stamp`.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    pub table: usize,
    pub rows: Vec<Row>,
    pub closes: Option<(i64, i64)>,
    pub stamp: i64,
}

/// One operation: a single `Query` frame.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: usize,
    pub sql: String,
    pub check: Check,
    /// For commits: the table written (index into [`REGISTRY_TABLES`]).
    pub writes: Option<usize>,
}

// ---------------------------------------------------------------------------
// Employees workloads
// ---------------------------------------------------------------------------

const DEPT_CENSUS: &str = "SEQ VT (SELECT dept_no, count(*) FROM dept_emp GROUP BY dept_no)";

fn employee_query(name: &str) -> String {
    employees::queries()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, sql)| sql.to_string())
        .unwrap_or_else(|| panic!("datagen::employees has no query '{name}'"))
}

/// Variants per bulk-fetch class: few enough to precompute every expected
/// bag, many enough that result sizes span the stated range.
pub const FETCH_VARIANTS: usize = 64;

/// Audit-read variants per registry table.
pub const AUDIT_VARIANTS: usize = 32;

// ---------------------------------------------------------------------------
// Registry workload (schema after SNIPPETS.md Snippet 1)
// ---------------------------------------------------------------------------

pub const REGISTRY_TABLES: [&str; 2] = ["reg_governed", "reg_operational"];
const OBJECT_TYPES: [&str; 13] = [
    "attribute_def",
    "entity_type_def",
    "relationship_type_def",
    "verb_contract",
    "taxonomy_def",
    "taxonomy_node",
    "membership_rule",
    "view_def",
    "policy_rule",
    "evidence_requirement",
    "document_type_def",
    "observation_def",
    "derivation_spec",
];
const STATUSES: [&str; 4] = ["draft", "active", "deprecated", "retired"];
/// Versions per snapshot set: one `publish` replaces this many.
pub const SET_SIZE: usize = 8;

/// The registry's time line: seed history lies in `[0, t0)`, the run's
/// commits are stamped `t0 + 1, t0 + 2, …`, open periods end at `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryTime {
    pub t0: i64,
    pub end: i64,
}

fn registry_schema() -> Schema {
    Schema::of(&[
        ("object_id", SqlType::Int),
        ("object_type", SqlType::Str),
        ("status", SqlType::Str),
        ("version", SqlType::Int),
        ("set_id", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ])
}

fn object_type(object_id: i64) -> &'static str {
    OBJECT_TYPES[(object_id.rem_euclid(OBJECT_TYPES.len() as i64)) as usize]
}

fn status_of(version: i64) -> &'static str {
    STATUSES[((version - 1).rem_euclid(STATUSES.len() as i64)) as usize]
}

/// A row as a SQL `VALUES` tuple (registry rows hold only ints and plain
/// strings).
fn sql_tuple(row: &Row) -> String {
    let cells: Vec<String> = row
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => format!("'{s}'"),
            other => other.to_string(),
        })
        .collect();
    format!("({})", cells.join(", "))
}

fn registry_row(object_id: i64, version: i64, set_id: i64, ts: i64, te: i64) -> Row {
    Row::new(vec![
        Value::Int(object_id),
        Value::str(object_type(object_id)),
        Value::str(status_of(version)),
        Value::Int(version),
        Value::Int(set_id),
        Value::Int(ts),
        Value::Int(te),
    ])
}

/// One seeded registry table: `versions` rows. Objects `0..pool` end in an
/// open version (they are what `publish` supersedes); the rest are closed
/// or open history that no write ever touches.
fn registry_table(rng: &mut StdRng, versions: usize, pool: usize, time: RegistryTime) -> Table {
    let mut table = Table::with_period(registry_schema(), 5, 6);
    let mut object_id = 0i64;
    let span = (time.t0 - 2).max(4);
    while table.len() < versions {
        let chain = rng.gen_range(1..=3usize).min(versions - table.len());
        let mut ts = rng.gen_range(0..span / 2);
        let pooled = (object_id as usize) < pool;
        for v in 1..=chain as i64 {
            let natural = ts + rng.gen_range(1..=(span / 6).max(1));
            let ends_chain = v == chain as i64 || natural >= time.t0 - 1;
            let te = if ends_chain && (pooled || rng.gen_bool(0.2)) {
                time.end
            } else {
                natural.min(time.t0 - 1)
            };
            let set_id = table.len() as i64 / SET_SIZE as i64;
            table.push(registry_row(object_id, v, set_id, ts, te));
            if ends_chain {
                break;
            }
            ts = te;
        }
        object_id += 1;
    }
    table
}

/// The current version of each pooled object in a freshly seeded table
/// (`publish` bumps from here).
fn pool_versions(table: &Table, pool: usize, time: RegistryTime) -> Vec<i64> {
    let mut versions = vec![0i64; pool];
    for row in table.rows() {
        let id = row.int(0) as usize;
        if id < pool && row.int(6) == time.end {
            versions[id] = row.int(3);
        }
    }
    versions
}

// ---------------------------------------------------------------------------
// The workload object
// ---------------------------------------------------------------------------

/// A workload instantiated for one seed and scale.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub scale: Scale,
    pub seed: u64,
    pub classes: Vec<Class>,
    pub connections: usize,
    /// Read statements with seed-independent results per variant
    /// (`Check::Static` indexes into this).
    pub statics: Vec<(usize, String)>,
    /// Registry state (`registry_mix` only).
    registry: Option<Registry>,
}

#[derive(Debug, Clone)]
struct Registry {
    /// Version of every pooled object at seed time, per table.
    pool_versions: [Vec<i64>; 2],
}

fn class(name: &'static str, kind: ClassKind, weight: f64) -> Class {
    Class { name, kind, weight }
}

impl Workload {
    /// Builds the workload and its seed data.
    pub fn new(name: &str, seed: u64, scale: Scale) -> Result<(Workload, Catalog), String> {
        let name = WORKLOADS
            .iter()
            .copied()
            .find(|w| *w == name)
            .ok_or_else(|| format!("unknown workload '{name}' (one of {WORKLOADS:?})"))?;
        let registry_time = scale.registry_time;
        let mut w = Workload {
            name,
            scale,
            seed,
            classes: Vec::new(),
            connections: 1,
            statics: Vec::new(),
            registry: None,
        };
        let catalog = match name {
            "agg_read" => {
                for (i, q) in ["agg-1", "agg-2", "agg-3"].into_iter().enumerate() {
                    w.classes.push(class(q, ClassKind::Read, 0.25));
                    w.statics.push((i, employee_query(q)));
                }
                w.classes.push(class("dept-census", ClassKind::Read, 0.25));
                w.statics.push((3, DEPT_CENSUS.to_string()));
                employees_catalog(seed, scale)
            }
            "join_read" => {
                for (i, q) in ["join-1", "join-2", "join-4", "diff-1", "diff-2"]
                    .into_iter()
                    .enumerate()
                {
                    w.classes.push(class(q, ClassKind::Read, 0.2));
                    w.statics.push((i, employee_query(q)));
                }
                employees_catalog(seed, scale)
            }
            "bulk_fetch" => {
                w.connections = 2;
                w.classes.push(class("as-of", ClassKind::Read, 0.5));
                w.classes.push(class("between", ClassKind::Read, 0.5));
                // Instants and windows over the busy middle of the time
                // line: 600-2400 salary rows come back. Stratified — the
                // k-th instant comes from the k-th of 64 equal slices, the
                // windows' widths likewise, in an order unrelated to their
                // starts — so that the statements differ with the seed but
                // the rows a cycle of the mix returns hardly do: drawn
                // freely, the mix's RTT moved 15 % with the seed alone.
                let mut rng = StdRng::seed_from_u64(seed ^ 0xB01C_FE7C);
                let n = FETCH_VARIANTS as i64;
                let mut slice = |lo: i64, hi: i64, k: i64| {
                    rng.gen_range(lo + (hi - lo) * k / n..lo + (hi - lo) * (k + 1) / n)
                };
                for k in 0..n {
                    let t = slice(2_000, 10_000, k);
                    w.statics.push((
                        0,
                        format!("SEQ VT AS OF {t} (SELECT emp_no, salary FROM salaries)"),
                    ));
                }
                for k in 0..n {
                    let t1 = slice(2_000, 9_000, k);
                    // 29 is odd, so k -> 29 k mod 64 is a permutation.
                    let t2 = t1 + slice(30, 1_000, k * 29 % n);
                    w.statics.push((
                        1,
                        format!(
                            "SEQ VT BETWEEN {t1} AND {t2} (SELECT emp_no, salary FROM salaries)"
                        ),
                    ));
                }
                employees_catalog(seed, scale)
            }
            "registry_mix" => {
                w.connections = 2;
                w.classes.push(class("audit", ClassKind::Read, 6.0 / 7.0));
                w.classes.push(class("census", ClassKind::Read, 1.0 / 7.0));
                w.classes
                    .push(class("publish", ClassKind::Write, 2.0 / 3.0));
                w.classes
                    .push(class("register", ClassKind::Write, 1.0 / 3.0));
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5E6_12E6);
                let mut catalog = Catalog::new();
                let mut pools: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
                for (t, table_name) in REGISTRY_TABLES.iter().enumerate() {
                    let table = registry_table(
                        &mut rng,
                        scale.registry_versions,
                        scale.registry_pool,
                        registry_time,
                    );
                    pools[t] = pool_versions(&table, scale.registry_pool, registry_time);
                    catalog.register(*table_name, table);
                }
                // Audit reads: instants before the first publish, so their
                // results never depend on the run's writes.
                for table_name in REGISTRY_TABLES {
                    for _ in 0..AUDIT_VARIANTS {
                        let t = rng.gen_range(registry_time.t0 / 4..registry_time.t0 - 1);
                        let ty = OBJECT_TYPES[rng.gen_range(0..OBJECT_TYPES.len())];
                        w.statics.push((
                            0,
                            format!(
                                "SEQ VT AS OF {t} (SELECT object_id, status, version, set_id \
                                 FROM {table_name} WHERE object_type = '{ty}')"
                            ),
                        ));
                    }
                }
                w.registry = Some(Registry {
                    pool_versions: pools,
                });
                catalog
            }
            _ => unreachable!("name checked above"),
        };
        Ok((w, catalog))
    }

    /// The workload's largest period table (micro-measurements use it).
    pub fn main_table(&self) -> &'static str {
        match self.name {
            "registry_mix" => REGISTRY_TABLES[0],
            _ => "salaries",
        }
    }

    /// Operations per cycle of connection `conn`'s pattern. The closed loop
    /// always finishes whole cycles, so the mix is exact.
    pub fn cycle_len(&self) -> usize {
        match self.name {
            "registry_mix" => 10,
            "bulk_fetch" => 2,
            _ => self.classes.len(),
        }
    }

    /// The census statement over registry table `table`.
    pub fn census_sql(table: usize) -> String {
        format!(
            "SEQ VT (SELECT status, count(*) AS n FROM {} GROUP BY status)",
            REGISTRY_TABLES[table]
        )
    }

    /// The `i`-th operation of connection `conn`. `writes_done` is how many
    /// commits this connection's table has taken so far (it stamps the next
    /// commit's time and picks its snapshot set).
    pub fn op(&self, conn: usize, i: usize, writes_done: usize) -> Op {
        match self.name {
            "agg_read" | "join_read" => {
                let variant = i % self.statics.len();
                self.static_op(variant)
            }
            "bulk_fetch" => {
                let class = i % 2;
                let k = (i / 2 + conn * FETCH_VARIANTS / 2) % FETCH_VARIANTS;
                self.static_op(class * FETCH_VARIANTS + k)
            }
            "registry_mix" => self.registry_op(conn, i, writes_done),
            _ => unreachable!(),
        }
    }

    fn static_op(&self, variant: usize) -> Op {
        let (class, sql) = &self.statics[variant];
        Op {
            class: *class,
            sql: sql.clone(),
            check: Check::Static { variant },
            writes: None,
        }
    }

    /// Per 10 operations: 6 audit reads, 1 census, 2 publishes, 1 register;
    /// connection `conn` writes only table `conn`, reads either.
    fn registry_op(&self, conn: usize, i: usize, writes_done: usize) -> Op {
        let cycle = i / 10;
        match i % 10 {
            2 | 6 | 8 => self.commit_op(&self.commit(conn, writes_done)),
            4 => {
                let table = (conn + cycle) % 2;
                Op {
                    class: 1,
                    sql: Workload::census_sql(table),
                    check: Check::Census { table },
                    writes: None,
                }
            }
            slot => {
                // Audit reads walk both tables' variants.
                let n = cycle * 6 + [0, 1, 0, 2, 0, 3, 0, 4, 0, 5][slot];
                let variant = (n * 7 + conn * AUDIT_VARIANTS) % (2 * AUDIT_VARIANTS);
                self.static_op(variant)
            }
        }
    }

    /// The `k`-th commit (0-based) of registry table `table`. Writes
    /// interleave two publishes and one register; a commit is stamped
    /// `t0 + 1 + k`, so a table's history is a function of `k` alone and
    /// the mirror can replay it without the wire.
    pub fn commit(&self, table: usize, k: usize) -> Commit {
        let registry = self.registry.as_ref().expect("registry workload");
        let stamp = self.scale.registry_time.t0 + 1 + k as i64;
        let end = self.scale.registry_time.end;
        if k % 3 == 2 {
            // register: 8 brand-new objects enter as drafts.
            let rows = (0..SET_SIZE as i64)
                .map(|j| {
                    let id = 10_000_000 + (k * SET_SIZE) as i64 + j;
                    registry_row(id, 1, 2_000_000 + k as i64, stamp, end)
                })
                .collect();
            return Commit {
                table,
                rows,
                closes: None,
                stamp,
            };
        }
        // publish: the next block of 8 pooled objects takes new versions.
        let blocks = self.scale.registry_pool / SET_SIZE;
        let ordinal = k - k / 3;
        let first = ((ordinal % blocks) * SET_SIZE) as i64;
        let pass = (ordinal / blocks) as i64;
        let rows = (0..SET_SIZE as i64)
            .map(|j| {
                let id = first + j;
                let version = registry.pool_versions[table][id as usize] + pass + 1;
                registry_row(id, version, 1_000_000 + k as i64, stamp, end)
            })
            .collect();
        Commit {
            table,
            rows,
            closes: Some((first, first + SET_SIZE as i64 - 1)),
            stamp,
        }
    }

    /// The commit as one `Query` frame. `publish` inserts the new set and
    /// closes the superseded versions' periods in one `BEGIN`…`COMMIT`
    /// unit; `register` is a bare insert (an implicit transaction).
    pub fn commit_op(&self, commit: &Commit) -> Op {
        let name = REGISTRY_TABLES[commit.table];
        let values: Vec<String> = commit.rows.iter().map(sql_tuple).collect();
        let insert = format!("INSERT INTO {name} VALUES {}", values.join(", "));
        let inserted = format!("INSERT {} INTO {name}", commit.rows.len());
        match commit.closes {
            Some((first, last)) => Op {
                class: 2,
                sql: format!(
                    "BEGIN; {insert}; UPDATE {name} SET te = {stamp} WHERE object_id BETWEEN \
                     {first} AND {last} AND te = {end} AND ts < {stamp}; COMMIT;",
                    stamp = commit.stamp,
                    end = self.scale.registry_time.end,
                ),
                check: Check::Commit {
                    summaries: vec![
                        "BEGIN".to_string(),
                        inserted,
                        format!("UPDATE {SET_SIZE} IN {name}"),
                        "COMMIT (1 table(s))".to_string(),
                    ],
                },
                writes: Some(commit.table),
            },
            None => Op {
                class: 3,
                sql: format!("{insert};"),
                check: Check::Commit {
                    summaries: vec![inserted],
                },
                writes: Some(commit.table),
            },
        }
    }

    /// One representative statement per class, for warm-up and the oracle
    /// check: `(class index, sql)`.
    pub fn representatives(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (c, class) in self.classes.iter().enumerate() {
            let sql = match (self.name, class.kind) {
                ("registry_mix", ClassKind::Read) if class.name == "census" => {
                    Workload::census_sql(0)
                }
                (_, ClassKind::Read) => self
                    .statics
                    .iter()
                    .find(|(cls, _)| *cls == c)
                    .map(|(_, sql)| sql.clone())
                    .expect("every read class has a static statement"),
                (_, ClassKind::Write) => continue,
            };
            out.push((c, sql));
        }
        out
    }
}

fn employees_catalog(seed: u64, scale: Scale) -> Catalog {
    employees::generate(scale.employees as f64 / 300_000.0, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for name in WORKLOADS {
            let (a, ca) = Workload::new(name, 9, SMOKE).unwrap();
            let (b, cb) = Workload::new(name, 9, SMOKE).unwrap();
            assert_eq!(a.statics, b.statics);
            for table in ca.table_names() {
                assert_eq!(ca.get(table).unwrap().rows(), cb.get(table).unwrap().rows());
            }
            for i in 0..40 {
                assert_eq!(
                    a.op(1 % a.connections, i, i / 3).sql,
                    b.op(1 % b.connections, i, i / 3).sql
                );
            }
            let (c, _) = Workload::new(name, 10, SMOKE).unwrap();
            if name == "bulk_fetch" || name == "registry_mix" {
                assert_ne!(a.statics, c.statics, "{name}: seed must change the inputs");
            }
        }
    }

    #[test]
    fn registry_mix_has_the_stated_shape() {
        let (w, catalog) = Workload::new("registry_mix", 3, SMOKE).unwrap();
        for table in REGISTRY_TABLES {
            assert_eq!(catalog.get(table).unwrap().len(), SMOKE.registry_versions);
        }
        let mut counts = [0usize; 4];
        let mut writes = 0;
        for i in 0..100 {
            let op = w.op(0, i, writes);
            counts[op.class] += 1;
            if let Some(table) = op.writes {
                assert_eq!(table, 0, "a connection writes only its own table");
                writes += 1;
            }
        }
        assert_eq!(counts, [60, 10, 20, 10]);
        // The write pattern seen by the mirror equals the one the
        // connection issues.
        let mut k = 0;
        for i in 0..30 {
            let op = w.op(1, i, k);
            if op.writes.is_some() {
                assert_eq!(op.sql, w.commit_op(&w.commit(1, k)).sql);
                k += 1;
            }
        }
    }

    #[test]
    fn publish_ordinals_walk_the_blocks_in_order() {
        let (w, _) = Workload::new("registry_mix", 3, SMOKE).unwrap();
        // k = 0,1 publish; 2 register; 3,4 publish; ...
        let firsts: Vec<String> = [0usize, 1, 3, 4, 6]
            .iter()
            .map(|&k| w.commit_op(&w.commit(0, k)).sql)
            .collect();
        for (ordinal, sql) in firsts.iter().enumerate() {
            let first = ordinal * SET_SIZE;
            assert!(
                sql.contains(&format!("BETWEEN {first} AND {}", first + SET_SIZE - 1)),
                "{sql}"
            );
        }
    }
}
