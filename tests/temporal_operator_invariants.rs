//! Property tests for the temporal operators of the implementation layer:
//! multiset coalescing (Def. 8.2), the split operator (Def. 8.3), and the
//! fused temporal aggregation/difference (Section 9) — each checked against
//! its defining point-wise semantics on random inputs — plus the contract
//! of the sorted-run kernel they share: exact output order, determinism,
//! incremental index maintenance equal to a rebuild, scans that lend rows
//! without aliasing the table, fused operators that emit the coalesced
//! encoding themselves, and exact sliding sums of doubles.

use proptest::prelude::*;
use snapshot_semantics::algebra::{AggExpr, AggFunc, BinOp, Expr, JoinAlgo, Plan, PlanNode};
use snapshot_semantics::baseline::PointwiseOracle;
use snapshot_semantics::engine::coalesce::{coalesce_rows, never};
use snapshot_semantics::engine::split::split_rows;
use snapshot_semantics::engine::{eval_expr, eval_predicate, temporal, Pair, Prepared};
use snapshot_semantics::engine::{Engine, ExecStats, NodeStats};
use snapshot_semantics::index::{IndexCatalog, TableIndex};
use snapshot_semantics::rewrite::{RewriteOptions, SnapshotCompiler};
use snapshot_semantics::sql::{bind_statement, parse_statement, BoundStatement};
use snapshot_semantics::storage::{row, Catalog, Row, Schema, SqlType, Table, Value};
use snapshot_semantics::timeline::TimeDomain;

/// The fused operators as a caller outside any statement sees them.
fn temporal_aggregate(
    rows: &[Row],
    arity: usize,
    group_cols: &[usize],
    aggs: &[AggExpr],
    arg_types: &[SqlType],
    add_gap_neutral: bool,
    domain: (i64, i64),
) -> Vec<Row> {
    let (gap, check) = (add_gap_neutral, never);
    temporal::temporal_aggregate(rows, arity, group_cols, aggs, arg_types, gap, domain, check)
        .unwrap()
}

fn temporal_except_all(left: &[Row], right: &[Row], arity: usize) -> Vec<Row> {
    temporal::temporal_except_all(left, right, arity, never).unwrap()
}

const HORIZON: i64 = 40;

fn arb_period_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (0i64..3, 0i64..HORIZON - 1, 1i64..10)
            .prop_map(|(v, b, len)| row![v, b, (b + len).min(HORIZON)]),
        0..20,
    )
}

/// Multiplicity of value `v` at time `t` in a row set (data col 0).
fn mult_at(rows: &[Row], v: i64, t: i64) -> i64 {
    rows.iter()
        .filter(|r| r.int(0) == v && r.int(1) <= t && t < r.int(2))
        .count() as i64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coalescing preserves every snapshot and is idempotent; the output is
    /// in normal form (disjoint or identical intervals per value, maximal).
    #[test]
    fn coalesce_preserves_and_normalizes(rows in arb_period_rows()) {
        let out = coalesce_rows(&rows, 3);
        for v in 0..3 {
            for t in 0..HORIZON {
                prop_assert_eq!(mult_at(&out, v, t), mult_at(&rows, v, t));
            }
        }
        prop_assert_eq!(coalesce_rows(&out, 3), out);
    }

    /// Splitting never changes snapshots and produces identical-or-disjoint
    /// intervals within each group.
    #[test]
    fn split_preserves_snapshots(l in arb_period_rows(), r in arb_period_rows()) {
        let out = split_rows(&l, &r, &[0], 3);
        for v in 0..3 {
            for t in 0..HORIZON {
                prop_assert_eq!(mult_at(&out, v, t), mult_at(&l, v, t));
            }
        }
        for a in &out {
            for b in &out {
                if a.int(0) != b.int(0) {
                    continue;
                }
                let overlap = a.int(1) < b.int(2) && b.int(1) < a.int(2);
                let identical = a.int(1) == b.int(1) && a.int(2) == b.int(2);
                prop_assert!(!overlap || identical);
            }
        }
    }

    /// Fused temporal count(*) grouped by the value column equals counting
    /// per snapshot (Definition 7.1).
    #[test]
    fn temporal_count_matches_pointwise(rows in arb_period_rows()) {
        let aggs = vec![AggExpr::count_star("c")];
        let out = temporal_aggregate(
            &rows, 3, &[0], &aggs, &[SqlType::Int], false, (0, HORIZON),
        );
        // out rows: [v, count, ts, te]
        for v in 0..3 {
            for t in 0..HORIZON {
                let expect = mult_at(&rows, v, t);
                let got: Vec<i64> = out
                    .iter()
                    .filter(|r| r.int(0) == v && r.int(2) <= t && t < r.int(3))
                    .map(|r| r.int(1))
                    .collect();
                if expect == 0 {
                    prop_assert!(got.is_empty(), "group absent at {}", t);
                } else {
                    prop_assert_eq!(got, vec![expect], "count at {} for {}", t, v);
                }
            }
        }
    }

    /// Fused global sum with gap rows: every time point of the domain is
    /// covered by exactly one output row, with the correct (NULL on gaps)
    /// value.
    #[test]
    fn temporal_global_sum_covers_domain(rows in arb_period_rows()) {
        let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col(0), "s")];
        let out = temporal_aggregate(
            &rows, 3, &[], &aggs, &[SqlType::Int], true, (0, HORIZON),
        );
        for t in 0..HORIZON {
            let covering: Vec<&Row> = out
                .iter()
                .filter(|r| r.int(1) <= t && t < r.int(2))
                .collect();
            prop_assert_eq!(covering.len(), 1, "exactly one row at {}", t);
            let expect: i64 = rows
                .iter()
                .filter(|r| r.int(1) <= t && t < r.int(2))
                .map(|r| r.int(0))
                .sum();
            let any_input = rows.iter().any(|r| r.int(1) <= t && t < r.int(2));
            if any_input {
                prop_assert_eq!(covering[0].int(0), expect);
            } else {
                prop_assert!(covering[0].get(0).is_null(), "gap must be NULL at {}", t);
            }
        }
    }

    /// Fused temporal EXCEPT ALL equals the point-wise monus.
    #[test]
    fn temporal_except_matches_monus(l in arb_period_rows(), r in arb_period_rows()) {
        let out = temporal_except_all(&l, &r, 3);
        for v in 0..3 {
            for t in 0..HORIZON {
                let expect = (mult_at(&l, v, t) - mult_at(&r, v, t)).max(0);
                prop_assert_eq!(
                    mult_at(&out, v, t),
                    expect,
                    "monus at {} for {}", t, v
                );
            }
        }
    }

    /// Coalescing commutes with union at the snapshot level: coalescing the
    /// concatenation equals coalescing the concatenation of coalesced parts
    /// (the engine-level face of Lemma 6.1).
    #[test]
    fn coalesce_pushes_through_union(a in arb_period_rows(), b in arb_period_rows()) {
        let mut all = a.clone();
        all.extend(b.iter().cloned());
        let direct = coalesce_rows(&all, 3);
        let mut parts = coalesce_rows(&a, 3);
        parts.extend(coalesce_rows(&b, 3));
        prop_assert_eq!(coalesce_rows(&parts, 3), direct);
    }
}

// ---- the sorted-run kernel's contract ------------------------------------

const SPAN: i64 = 16;

/// Bags over `(ks TEXT, kd DOUBLE, v INT, ts, te)` that provoke every run
/// shape: two-valued keys with NULLs in both key columns, begins and
/// lengths from a coarse grid (so identical, adjacent and nested intervals
/// are the norm), and a third of the rows doubled outright.
fn arb_bag() -> impl Strategy<Value = Vec<Row>> {
    let key_d = prop_oneof![
        Just(Value::Null),
        Just(Value::Double(0.5)),
        Just(Value::Double(-1.5))
    ];
    bag_of(key_d, 1)
}

/// [`arb_bag`]'s shape with what merging equal values and ordering them
/// stumbles on in `kd` — ±0.0, NaN, an `Int` next to an equal `Double` —
/// and intervals that may be empty.
fn arb_edge_bag() -> impl Strategy<Value = Vec<Row>> {
    let key_d = prop_oneof![
        Just(Value::Null),
        Just(Value::Double(0.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(1.0)),
        Just(Value::Int(1)),
        Just(Value::Double(0.5))
    ];
    bag_of(key_d, 0)
}

/// [`arb_bag`]'s shape with doubles of every magnitude in `kd` — sums that
/// round, cancel and overflow, ±0.0, ±inf and NaN.
fn arb_double_bag() -> impl Strategy<Value = Vec<Row>> {
    let key_d = prop_oneof![
        Just(Value::Double(0.1)),
        Just(Value::Double(0.2)),
        Just(Value::Double(0.3)),
        Just(Value::Double(0.7)),
        Just(Value::Double(1e16)),
        Just(Value::Double(-1e16)),
        Just(Value::Double(f64::MAX)),
        Just(Value::Double(1e-300)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(f64::INFINITY)),
        Just(Value::Double(f64::NEG_INFINITY)),
        Just(Value::Double(f64::NAN)),
        Just(Value::Null)
    ];
    bag_of(key_d, 1)
}

/// Bags as [`arb_bag`] describes, with `kd` drawn from `key_d` and
/// interval lengths from `min_len` up.
fn bag_of(key_d: impl Strategy<Value = Value>, min_len: i64) -> impl Strategy<Value = Vec<Row>> {
    let key_s = prop_oneof![
        Just(Value::Null),
        Just(Value::str("a")),
        Just(Value::str("b"))
    ];
    let one = (key_s, key_d, 0i64..4, 0i64..SPAN - 1, min_len..6, 0usize..3).prop_map(
        |(ks, kd, v, b, len, copies)| {
            let (b, e) = (b / 2 * 2, (b / 2 * 2 + len).min(SPAN));
            let r = Row::new(vec![ks, kd, Value::Int(v), Value::Int(b), Value::Int(e)]);
            vec![r; if copies == 0 { 2 } else { 1 }]
        },
    );
    proptest::collection::vec(one, 0..14).prop_map(|rows| rows.concat())
}

fn bag_catalog(r: &[Row], s: &[Row]) -> Catalog {
    let schema = Schema::of(&[
        ("ks", SqlType::Str),
        ("kd", SqlType::Double),
        ("v", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut catalog = Catalog::new();
    for (name, rows) in [("r", r), ("s", s)] {
        let mut t = Table::with_period(schema.clone(), 3, 4);
        t.extend(rows.iter().cloned());
        catalog.register(name, t);
    }
    catalog
}

/// The engine's result for `sql`, in result order, next to the point-wise
/// oracle's unique encoding of the same query.
fn engine_and_oracle(sql: &str, catalog: &Catalog) -> (Vec<Row>, Vec<Row>) {
    let domain = TimeDomain::new(0, SPAN);
    let bound = bind_statement(&parse_statement(sql).unwrap(), catalog).unwrap();
    let BoundStatement::Snapshot { plan, .. } = &bound else {
        panic!("{sql} is not a snapshot query")
    };
    let oracle = PointwiseOracle::new(domain)
        .eval_rows(plan, catalog)
        .unwrap();
    let compiled = SnapshotCompiler::new(domain)
        .compile_statement(&bound, catalog)
        .unwrap();
    let out = Engine::new().execute(&compiled, catalog).unwrap();
    (out.rows().to_vec(), oracle)
}

const KERNEL_QUERIES: &[&str] = &[
    // Coalesce alone.
    "SEQ VT (SELECT * FROM r)",
    "SEQ VT (SELECT ks, kd FROM r UNION ALL SELECT ks, kd FROM s)",
    // TemporalAggregate: grouped on NULL / Str / Double keys with a mix of
    // typed (count, avg) and multiset (min, max) accumulators; and global,
    // with gap rows.
    "SEQ VT (SELECT ks, kd, count(*) AS c, min(v) AS lo, max(v) AS hi, avg(v) AS mean \
     FROM r GROUP BY ks, kd)",
    "SEQ VT (SELECT ks, max(kd) AS hi, count(kd) AS n, sum(v) AS total FROM r GROUP BY ks)",
    "SEQ VT (SELECT count(*) AS c, min(ks) AS lo, avg(v) AS mean FROM r)",
    // TemporalExceptAll.
    "SEQ VT (SELECT ks, kd, v FROM r EXCEPT ALL SELECT ks, kd, v FROM s)",
    "SEQ VT (SELECT ks FROM r EXCEPT ALL SELECT ks FROM s)",
];

/// Queries whose compiled plan is a fused kernel with nothing above it.
const FUSED_QUERIES: &[&str] = &[
    "SEQ VT (SELECT ks, kd, count(*) AS c, min(v) AS lo, max(ks) AS hi FROM r GROUP BY ks, kd)",
    "SEQ VT (SELECT ks, sum(kd) AS s, avg(kd) AS a, max(kd) AS hi FROM r GROUP BY ks)",
    "SEQ VT (SELECT kd, min(ks) AS lo FROM r GROUP BY kd)",
    "SEQ VT (SELECT max(kd) AS hi FROM r)",
    "SEQ VT (SELECT count(*) AS c, min(ks) AS lo, sum(kd) AS s FROM r)",
    "SEQ VT (SELECT ks, kd, v FROM r EXCEPT ALL SELECT ks, kd, v FROM s)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Coalesce, aggregate and except-all equal the point-wise oracle —
    /// not merely snapshot by snapshot but as the oracle's unique encoding,
    /// row for row, which pins the result *order* as well.
    #[test]
    fn kernels_equal_the_pointwise_oracle(r in arb_bag(), s in arb_bag()) {
        let catalog = bag_catalog(&r, &s);
        for sql in KERNEL_QUERIES {
            let (out, oracle) = engine_and_oracle(sql, &catalog);
            prop_assert_eq!(out, oracle, "{}", sql);
        }
    }

    /// (b) Coalesce output is exactly sorted and a fixpoint; (c) an index
    /// extended by an append answers every stab, overlap probe and begin
    /// order exactly as the index built over the whole table.
    #[test]
    fn coalesce_is_sorted_idempotent_and_extension_equals_a_build(
        rows in arb_bag(),
        cut in 0usize..30,
    ) {
        let out = coalesce_rows(&rows, 5);
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]), "not sorted: {:?}", out);
        prop_assert_eq!(coalesce_rows(&out, 5), out);
        let (old, new) = rows.split_at(cut.min(rows.len()));
        let mut table = bag_catalog(old, &[]).get("r").unwrap().clone();
        let before = TableIndex::build(&table).unwrap();
        table.extend(new.iter().cloned());
        let extended = before.extend_appended(&table, old.len()).unwrap();
        let built = TableIndex::build(&table).unwrap();
        prop_assert!(extended.events().begin_order().eq(built.events().begin_order()));
        for t in -1..=SPAN + 1 {
            prop_assert_eq!(extended.stab(t), built.stab(t), "stab at {}", t);
            for w in [1, 3, 8] {
                prop_assert_eq!(extended.overlapping(t, t + w), built.overlapping(t, t + w));
            }
        }
    }

    /// (d) The fused operators' output order is a function of the input
    /// bag: canonical row order (group key, aggregate values, then time) —
    /// the same on every run and under any input order.
    #[test]
    fn fused_operators_are_deterministic(rows in arb_bag(), other in arb_bag()) {
        let aggs = vec![
            AggExpr::count_star("c"),
            AggExpr::new(AggFunc::Min, Expr::col(2), "lo"),
            AggExpr::new(AggFunc::Avg, Expr::col(2), "mean"),
        ];
        let types = [SqlType::Int; 3];
        let agg = |rows: &[Row]| {
            temporal_aggregate(rows, 5, &[0, 1], &aggs, &types, false, (0, SPAN))
        };
        let mut reversed = rows.clone();
        reversed.reverse();
        let out = agg(&rows);
        prop_assert_eq!(agg(&rows), out.clone());
        prop_assert_eq!(agg(&reversed), out.clone());
        // Strictly ascending: no two rows share a group and a begin.
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]));

        let diff = temporal_except_all(&rows, &other, 5);
        prop_assert_eq!(temporal_except_all(&rows, &other, 5), diff.clone());
        prop_assert_eq!(temporal_except_all(&reversed, &other, 5), diff.clone());
        prop_assert!(diff.windows(2).all(|w| w[0] <= w[1]));
    }

    /// (e) A scan lends the table's rows to the plan above it; what the
    /// statement returns is a copy. Mutating or dropping a `SELECT *`
    /// result leaves the table as it was.
    #[test]
    fn scanned_table_is_unchanged_and_unaliased(rows in arb_bag()) {
        let catalog = bag_catalog(&rows, &[]);
        let stored = catalog.get("r").unwrap();
        let plan = Plan::scan("r", stored.schema().clone());
        let mut out = Engine::new().execute(&plan, &catalog).unwrap();
        prop_assert_eq!(out.rows(), &rows[..]);
        for (mine, theirs) in out.rows().iter().zip(stored.rows()) {
            prop_assert!(!std::ptr::eq(mine.values().as_ptr(), theirs.values().as_ptr()));
        }
        out.update_where(|_| true, |r| Ok(Row::new(vec![Value::Null; r.arity()])))
            .unwrap();
        prop_assert_eq!(stored.rows(), &rows[..]);
        out.delete_where(|_| true);
        drop(out);
        prop_assert_eq!(catalog.get("r").unwrap().rows(), &rows[..]);
        let again = Engine::new().execute(&plan, &catalog).unwrap();
        prop_assert_eq!(again.rows(), &rows[..]);
    }

    /// (f) The fused kernels emit the coalesced encoding themselves, which
    /// is why `Plan::coalesce` over them is them: each one's output is a
    /// fixed point of `coalesce_rows`, row for row, and equals
    /// `coalesce_rows` of the unfused `Aggregate` / `ExceptAll` over
    /// `Split` — through NULL, ±0.0, NaN, `Int` beside `Double`, string
    /// `min`/`max`, several aggregates at once, gap rows and empty
    /// intervals.
    #[test]
    fn fused_kernels_emit_the_coalesced_encoding(r in arb_edge_bag(), s in arb_edge_bag()) {
        // A table holds no empty period; the kernels meet them directly.
        let nonempty = |rows: &[Row]| -> Vec<Row> {
            rows.iter().filter(|r| r.int(3) < r.int(4)).cloned().collect()
        };
        let (r_held, s_held) = (nonempty(&r), nonempty(&s));
        let catalog = bag_catalog(&r_held, &s_held);
        let domain = TimeDomain::new(0, SPAN);
        for sql in FUSED_QUERIES {
            let bound = bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap();
            let compile = |fused_split| {
                let options = RewriteOptions { fused_split, ..RewriteOptions::default() };
                SnapshotCompiler::with_options(domain, options)
                    .compile_statement(&bound, &catalog)
                    .unwrap()
            };
            let fused = compile(true);
            prop_assert!(
                matches!(
                    fused.node,
                    PlanNode::TemporalAggregate { .. } | PlanNode::TemporalExceptAll { .. }
                ),
                "{}", fused
            );
            let out = Engine::new().execute(&fused, &catalog).unwrap().rows().to_vec();
            prop_assert_eq!(coalesce_rows(&out, fused.schema.arity()), out.clone(), "{}", sql);
            // `Coalesce` over the literal Figure 4 rewriting.
            let unfused = compile(false);
            prop_assert!(matches!(unfused.node, PlanNode::Coalesce { .. }), "{}", unfused);
            let want = Engine::new().execute(&unfused, &catalog).unwrap();
            prop_assert_eq!(&out[..], want.rows(), "{}", sql);
        }
        // An empty interval holds at no time point: with or without them,
        // each kernel returns one and the same coalesced encoding.
        let aggs = [
            AggExpr::count_star("c"),
            AggExpr::new(AggFunc::Min, Expr::col(0), "lo"),
            AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
        ];
        let types = [SqlType::Int, SqlType::Str, SqlType::Double];
        for group in [&[0, 1][..], &[]] {
            let agg = |rows: &[Row]| {
                temporal_aggregate(rows, 5, group, &aggs, &types, group.is_empty(), (0, SPAN))
            };
            let out = agg(&r);
            prop_assert_eq!(coalesce_rows(&out, group.len() + 5), out.clone());
            prop_assert_eq!(agg(&r_held), out);
        }
        let diff = temporal_except_all(&r, &s, 5);
        prop_assert_eq!(coalesce_rows(&diff, 5), diff.clone());
        prop_assert_eq!(temporal_except_all(&r_held, &s_held, 5), diff);
    }

    /// (g) A sequenced `sum` / `avg` over doubles is, at every instant,
    /// what the same aggregate over that instant's snapshot returns (the
    /// point-wise oracle runs the non-temporal `Aggregate` once per time
    /// point), bit for bit: adding and removing in sweep order drifts
    /// nowhere.
    #[test]
    fn sequenced_double_sums_equal_their_snapshots(r in arb_double_bag()) {
        let catalog = bag_catalog(&r, &[]);
        for sql in [
            "SEQ VT (SELECT ks, sum(kd) AS s, avg(kd) AS a FROM r GROUP BY ks)",
            "SEQ VT (SELECT sum(kd) AS s, avg(kd) AS a FROM r)",
        ] {
            let (out, oracle) = engine_and_oracle(sql, &catalog);
            prop_assert_eq!(out, oracle, "{}", sql);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (i) `Coalesce` and `TemporalExceptAll` sort adaptively: one bag
    /// presented sorted, nearly sorted (every third pair of neighbours
    /// swapped), reversed and shuffled gives one and the same row sequence,
    /// the point-wise oracle's unique encoding.
    #[test]
    fn kernels_give_one_sequence_under_any_input_order(
        r in arb_bag(), s in arb_bag(), seed in 0u64..u64::MAX,
    ) {
        let mut dice = Dice(seed);
        let mut presented = |rows: &[Row]| -> Vec<Vec<Row>> {
            let mut sorted = rows.to_vec();
            sorted.sort();
            let mut nearly = sorted.clone();
            for i in (1..nearly.len()).step_by(3) {
                nearly.swap(i - 1, i);
            }
            let reversed: Vec<Row> = sorted.iter().rev().cloned().collect();
            let mut shuffled = rows.to_vec();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, dice.roll(i + 1));
            }
            vec![sorted, nearly, reversed, shuffled]
        };
        let catalog = bag_catalog(&r, &s);
        let (_, coalesced) = engine_and_oracle("SEQ VT (SELECT * FROM r)", &catalog);
        let (_, diffed) = engine_and_oracle(
            "SEQ VT (SELECT ks, kd, v FROM r EXCEPT ALL SELECT ks, kd, v FROM s)",
            &catalog,
        );
        let (rs, ss) = (presented(&r), presented(&s));
        for (l, right) in rs.iter().zip(&ss) {
            prop_assert_eq!(&coalesce_rows(l, 5), &coalesced);
            prop_assert_eq!(&temporal_except_all(l, right, 5), &diffed);
            prop_assert_eq!(&temporal_except_all(l, &ss[3], 5), &diffed);
        }
    }
}

/// FNV-1a over the rendered rows, in result order.
fn sequence_hash(rows: &[Row]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for b in r.to_string().bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The unique encoding's row *sequence* on the Employee workload (N = 60),
/// recorded before the operators were rebuilt on the sorted-run kernel:
/// the result order did not move.
#[test]
fn employee_result_sequences_match_the_recorded_golden() {
    let golden = [
        ("join-1", 540, 0x45ea_5a5b_d506_bb53u64),
        ("agg-1", 582, 0x895f_12ed_82a8_c3d0),
        ("diff-2", 528, 0xf9d1_f22c_275f_bc2b),
    ];
    let catalog = snapshot_semantics::datagen::employees::generate(0.0002, 42);
    let domain = snapshot_semantics::datagen::employees::domain();
    let queries = snapshot_semantics::datagen::employees::queries();
    for (name, rows, hash) in golden {
        let (_, sql) = queries.iter().find(|(n, _)| *n == name).unwrap();
        let bound = bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap();
        let plan = SnapshotCompiler::new(domain)
            .compile_statement(&bound, &catalog)
            .unwrap();
        let out = Engine::new().execute(&plan, &catalog).unwrap();
        assert_eq!(out.rows().len(), rows, "{name}");
        assert_eq!(
            sequence_hash(out.rows()),
            hash,
            "{name}: result order moved"
        );
    }
}

// ---- absorbed projections and the pair evaluator --------------------------

/// A deterministic die for growing expression trees (the offline proptest
/// shim has no recursive strategies): splitmix64 over a proptest-drawn seed.
struct Dice(u64);

impl Dice {
    fn roll(&mut self, sides: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % sides as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.roll(from.len())]
    }
}

/// The columns a generated expression may read, by what `infer_type`
/// accepts there.
struct Cols {
    numeric: Vec<usize>,
    text: Vec<usize>,
}

/// Columns of `n` concatenated [`arb_bag`] rows `(ks, kd, v, ts, te)`.
fn bag_cols(n: usize) -> Cols {
    Cols {
        numeric: (0..n)
            .flat_map(|k| (1..5).map(move |i| 5 * k + i))
            .collect(),
        text: (0..n).map(|k| 5 * k).collect(),
    }
}

/// A well-typed numeric expression: every `Expr` form that yields a number,
/// NULL literals and division (by zero too) included.
fn numeric_expr(d: &mut Dice, c: &Cols, depth: usize) -> Expr {
    let sub = depth.saturating_sub(1);
    match d.roll(if depth == 0 { 2 } else { 6 }) {
        0 => Expr::col(d.pick(&c.numeric)),
        1 if d.roll(5) == 0 => Expr::Lit(Value::Null),
        1 => Expr::lit(d.roll(7) as i64 - 3),
        2 => {
            use BinOp::{Add, Div, Mul, Sub};
            let (l, r) = (numeric_expr(d, c, sub), numeric_expr(d, c, sub));
            Expr::binary(d.pick(&[Add, Sub, Mul, Div]), l, r)
        }
        3 => Expr::Least(vec![numeric_expr(d, c, sub), numeric_expr(d, c, sub)]),
        4 => Expr::Greatest(vec![numeric_expr(d, c, sub), numeric_expr(d, c, sub)]),
        _ => Expr::Case {
            branches: vec![(bool_expr(d, c, sub), numeric_expr(d, c, sub))],
            else_expr: (d.roll(2) == 0).then(|| Box::new(numeric_expr(d, c, sub))),
        },
    }
}

/// A well-typed predicate: comparisons, `IS [NOT] NULL`, `LIKE`, and the
/// three-valued connectives over them.
fn bool_expr(d: &mut Dice, c: &Cols, depth: usize) -> Expr {
    use BinOp::{And, Eq, Geq, Gt, Leq, Lt, Neq, Or};
    let sub = depth.saturating_sub(1);
    match d.roll(if depth == 0 { 3 } else { 6 }) {
        0 | 5 => {
            let (l, r) = (numeric_expr(d, c, sub), numeric_expr(d, c, sub));
            Expr::binary(d.pick(&[Eq, Neq, Lt, Leq, Gt, Geq]), l, r)
        }
        1 => Expr::IsNull {
            expr: Box::new(Expr::col(d.roll(c.numeric.len() + c.text.len()))),
            negated: d.roll(2) == 0,
        },
        2 if !c.text.is_empty() => Expr::Like {
            expr: Box::new(Expr::col(d.pick(&c.text))),
            pattern: d.pick(&["a%", "_", "%b", "c"]).to_string(),
            negated: d.roll(2) == 0,
        },
        2 => Expr::lit(d.roll(2) == 0),
        3 => {
            let (l, r) = (bool_expr(d, c, sub), bool_expr(d, c, sub));
            Expr::binary(d.pick(&[And, Or]), l, r)
        }
        _ => Expr::Not(Box::new(bool_expr(d, c, sub))),
    }
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("c{i}")).collect()
}

fn count_nodes(plan: &Plan, is: fn(&PlanNode) -> bool) -> usize {
    is(&plan.node) as usize
        + plan
            .children()
            .into_iter()
            .map(|c| count_nodes(c, is))
            .sum::<usize>()
}

/// Rows of four values drawn from everything a comparison can stumble on:
/// NULL, `Int`s and `Double`s that are equal across types (`2`, `2.0`) or
/// differ only beyond 2^53, the `i64` edges (so arithmetic overflows), NaN,
/// strings and booleans (incomparable with numbers) — in every position.
fn arb_edge_row() -> impl Strategy<Value = Row> {
    let value = prop_oneof![
        Just(Value::Null),
        Just(Value::Int(2)),
        Just(Value::Double(2.0)),
        Just(Value::Int((1 << 53) + 1)),
        Just(Value::Double((1u64 << 53) as f64)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(-1)),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(-0.5)),
        Just(Value::str("a")),
        Just(Value::str("2")),
        Just(Value::Bool(true)),
    ];
    proptest::collection::vec(value, 4).prop_map(Row::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Prepared` is `eval_expr` / `eval_predicate`, on a `Row` and on a
    /// `Pair`: over shallow expressions (the column/literal comparisons,
    /// two-argument `LEAST`/`GREATEST` and bare columns it specialises),
    /// deep ones (`CASE`, arithmetic, nested `AND`/`OR`/`NOT` — the
    /// fallback), and `AND` chains of both whose last conjunct overflows
    /// wherever the row holds an `i64` edge.
    #[test]
    fn prepared_evaluates_like_the_recursive_walk(
        l in arb_edge_row(), r in arb_edge_row(), seed in 0u64..u64::MAX,
    ) {
        let mut dice = Dice(seed);
        // The evaluator is dynamically typed, and so are these rows: what
        // `Cols` calls a numeric column holds a string as often as not.
        let cols = Cols { numeric: (0..6).collect(), text: vec![6, 7] };
        let mut exprs = Vec::new();
        for depth in 0..4 {
            exprs.push(numeric_expr(&mut dice, &cols, depth));
            exprs.push(bool_expr(&mut dice, &cols, depth));
            let mut chain: Vec<Expr> =
                (0..2 + depth).map(|k| bool_expr(&mut dice, &cols, k % 3)).collect();
            let product =
                Expr::binary(BinOp::Mul, Expr::col(dice.roll(8)), Expr::col(dice.roll(8)));
            chain.push(product.lt(Expr::lit(0)));
            exprs.push(Expr::conjunction(chain.clone()));
            exprs.push(chain.into_iter().rev().reduce(|acc, e| e.and(acc)).unwrap());
        }
        let (pair, joined) = (Pair(&l, &r), l.concat(&r));
        for e in &exprs {
            let p = Prepared::new(e);
            prop_assert_eq!(p.value(&joined), eval_expr(e, &joined), "{} on {}", e, joined);
            prop_assert_eq!(p.value(&pair), eval_expr(e, &joined), "{} on pair {}", e, joined);
            prop_assert_eq!(p.holds(&joined), eval_predicate(e, &joined), "{} on {}", e, joined);
            prop_assert_eq!(p.holds(&pair), eval_predicate(e, &joined), "{} on pair {}", e, joined);
        }
    }

    /// The evaluator reads a `Pair` exactly as it reads the concatenated
    /// row — values of every type and NULL in every position, every
    /// expression form.
    #[test]
    fn pair_view_evaluates_like_the_concatenation(
        l in arb_bag(), r in arb_bag(), seed in 0u64..u64::MAX,
    ) {
        let mut dice = Dice(seed);
        let cols = bag_cols(2);
        let exprs: Vec<Expr> = (0..4)
            .flat_map(|_| [numeric_expr(&mut dice, &cols, 3), bool_expr(&mut dice, &cols, 3)])
            .collect();
        for (l, r) in l.iter().zip(&r) {
            let (pair, joined) = (Pair(l, r), l.concat(r));
            for e in &exprs {
                prop_assert_eq!(eval_expr(e, &pair), eval_expr(e, &joined), "{} on {}", e, joined);
                prop_assert_eq!(eval_predicate(e, &pair), eval_predicate(e, &joined));
            }
        }
    }

    /// `scan.project(e1).project(e2)` is one `Project` — unless `e2` reads a
    /// computed column of `e1` twice, which composing would evaluate twice —
    /// and returns, row for row, what evaluating `e1` and then `e2` by hand
    /// does.
    #[test]
    fn stacked_projections_execute_as_their_composition(
        rows in arb_bag(), seed in 0u64..u64::MAX,
    ) {
        let mut dice = Dice(seed);
        let e1: Vec<Expr> = (0..3).map(|_| numeric_expr(&mut dice, &bag_cols(1), 2)).collect();
        let mid = Cols { numeric: vec![0, 1, 2], text: vec![] };
        let e2: Vec<Expr> = (0..2).map(|_| numeric_expr(&mut dice, &mid, 2)).collect();
        let catalog = bag_catalog(&rows, &[]);
        let plan = Plan::scan("r", catalog.get("r").unwrap().schema().clone())
            .project(e1.clone(), names(3))
            .unwrap()
            .project(e2.clone(), names(2))
            .unwrap();
        let mut refs = Vec::new();
        e2.iter().for_each(|e| e.referenced_columns(&mut refs));
        let copies = (0..3).any(|i| {
            !matches!(e1[i], Expr::Col(_) | Expr::Lit(_))
                && refs.iter().filter(|&&c| c == i).count() > 1
        });
        prop_assert_eq!(
            count_nodes(&plan, |n| matches!(n, PlanNode::Project { .. })),
            1 + copies as usize,
            "{}", plan
        );
        let by_hand: Vec<Row> = rows
            .iter()
            .map(|r| e1.iter().map(|e| eval_expr(e, r)).collect::<Row>())
            .map(|m| e2.iter().map(|e| eval_expr(e, &m)).collect::<Row>())
            .collect();
        let out = Engine::new().execute(&plan, &catalog).unwrap();
        prop_assert_eq!(out.rows(), &by_hand[..]);
    }

    /// `join(l, r, θ).project(es).filter(p)` is one `Join` node and returns
    /// the bag of the step-by-step evaluation — every pair satisfying θ on
    /// the concatenation, then `es` over it, then `p` over that — on every
    /// join route, naive and indexed. θ
    /// carries an equality on a key with NULLs, the overlap pattern, and a
    /// residual (`l.v <= r.v` or a random predicate); `p` reads two computed
    /// outputs and the intersected begin, once each.
    #[test]
    fn fused_join_output_equals_join_then_project(
        l in arb_bag(), r in arb_bag(), seed in 0u64..u64::MAX,
    ) {
        let mut dice = Dice(seed);
        let cols = bag_cols(2);
        let theta = Expr::col(0)
            .eq(Expr::col(5))
            .and(Expr::col(3).lt(Expr::col(9)))
            .and(Expr::col(8).lt(Expr::col(4)))
            .and(Expr::binary(
                BinOp::Or,
                Expr::binary(BinOp::Leq, Expr::col(2), Expr::col(7)),
                bool_expr(&mut dice, &cols, 2),
            ));
        let mut es: Vec<Expr> = (0..2).map(|_| numeric_expr(&mut dice, &cols, 2)).collect();
        es.push(Expr::col(5));
        es.push(Expr::Greatest(vec![Expr::col(3), Expr::col(8)]));
        es.push(Expr::Least(vec![Expr::col(4), Expr::col(9)]));

        let p = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Leq, Expr::col(0), Expr::col(1)),
            Expr::col(3).lt(Expr::lit(dice.roll(SPAN as usize) as i64)),
        );

        let mut two_step: Vec<Row> = l
            .iter()
            .flat_map(|l| r.iter().map(move |r| l.concat(r)))
            .filter(|joined| eval_predicate(&theta, joined))
            .map(|joined| es.iter().map(|e| eval_expr(e, &joined)).collect())
            .filter(|out: &Row| eval_predicate(&p, out))
            .collect();
        two_step.sort_unstable();

        let catalog = bag_catalog(&l, &r);
        let indexes = IndexCatalog::build_all(&catalog);
        let schema = catalog.get("r").unwrap().schema().clone();
        for algo in [
            JoinAlgo::Auto,
            JoinAlgo::NestedLoop,
            JoinAlgo::Hash,
            JoinAlgo::Sweep,
        ] {
            let plan = Plan::scan("r", schema.clone())
                .join_with(Plan::scan("s", schema.clone()), theta.clone(), algo)
                .project(es.clone(), names(es.len()))
                .unwrap()
                .filter(p.clone());
            prop_assert!(matches!(plan.node, PlanNode::Join { .. }), "{}", plan);
            for indexed in [false, true] {
                let out = Engine::new()
                    .execute_analyzed(
                        &plan,
                        &catalog,
                        indexed.then_some(&indexes),
                        &mut ExecStats::default(),
                        &mut NodeStats::default(),
                    )
                    .unwrap();
                let mut got = out.rows().to_vec();
                got.sort_unstable();
                prop_assert_eq!(
                    &got, &two_step,
                    "{:?}, indexed={}\n{}", algo, indexed, plan
                );
            }
        }
    }
}

// ---- an aggregate over a join reads the matched pairs ---------------------

/// Grouped and global aggregates over joins: NULL group keys, `INT = DOUBLE`
/// and `DOUBLE = DOUBLE` keys (±0.0, NaN, an `Int` in a `DOUBLE` column),
/// string `min`/`max`, several aggregates at once, gap rows, a computed
/// group column and a computed argument.
const PAIR_QUERIES: &[&str] = &[
    "SEQ VT (SELECT r.ks, count(*) AS c, min(s.ks) AS lo, max(r.ks) AS hi, avg(r.v) AS mean \
     FROM r JOIN s ON r.kd = s.kd GROUP BY r.ks)",
    "SEQ VT (SELECT s.ks, r.kd, sum(r.v + 1) AS total, count(s.kd) AS n \
     FROM r JOIN s ON r.ks = s.ks GROUP BY s.ks, r.kd)",
    "SEQ VT (SELECT x.w, count(*) AS c, max(x.ks) AS hi \
     FROM (SELECT r.v * 2 AS w, s.ks AS ks FROM r JOIN s ON r.ks = s.ks) x GROUP BY x.w)",
    "SEQ VT (SELECT count(*) AS c, sum(s.v) AS total, min(r.ks) AS lo FROM r JOIN s ON r.v = s.kd)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (h) A `TemporalAggregate` over a `Join` reads the join's matched
    /// pairs and builds no join row, on every join route — each hint,
    /// naive and indexed — and returns, row for row, what
    /// `temporal_aggregate` returns over the rows the naive engine builds
    /// for the join, which is the point-wise oracle's unique encoding.
    #[test]
    fn aggregate_over_a_join_equals_the_aggregate_over_its_rows(
        r in arb_edge_bag(), s in arb_edge_bag(),
    ) {
        let nonempty = |rows: Vec<Row>| -> Vec<Row> {
            rows.into_iter().filter(|r| r.int(3) < r.int(4)).collect()
        };
        let catalog = bag_catalog(&nonempty(r), &nonempty(s));
        let indexes = IndexCatalog::build_all(&catalog);
        let domain = TimeDomain::new(0, SPAN);
        for sql in PAIR_QUERIES {
            let bound = bind_statement(&parse_statement(sql).unwrap(), &catalog).unwrap();
            let BoundStatement::Snapshot { plan: snapshot, .. } = &bound else {
                panic!("{sql} is not a snapshot query")
            };
            let oracle = PointwiseOracle::new(domain).eval_rows(snapshot, &catalog).unwrap();
            for algo in [JoinAlgo::Auto, JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Sweep] {
                let options = RewriteOptions { temporal_join_algo: algo, ..RewriteOptions::default() };
                let plan = SnapshotCompiler::with_options(domain, options)
                    .compile_statement(&bound, &catalog)
                    .unwrap();
                let PlanNode::TemporalAggregate { input, group_cols, aggs, add_gap_neutral, domain } =
                    &plan.node
                else {
                    panic!("{sql}: {plan}")
                };
                prop_assert!(matches!(input.node, PlanNode::Join { .. }), "{}", plan);
                let joined = Engine::new().execute(input, &catalog).unwrap();
                let types = temporal::agg_arg_types(aggs, &input.schema).unwrap();
                let (arity, gap) = (input.schema.arity(), *add_gap_neutral);
                let want = temporal::temporal_aggregate(
                    joined.rows(), arity, group_cols, aggs, &types, gap, *domain, never,
                )
                .unwrap();
                prop_assert_eq!(&want, &oracle, "{}", sql);
                for indexed in [false, true] {
                    let out = Engine::new()
                        .execute_analyzed(
                            &plan,
                            &catalog,
                            indexed.then_some(&indexes),
                            &mut ExecStats::default(),
                            &mut NodeStats::default(),
                        )
                        .unwrap();
                    prop_assert_eq!(
                        out.rows(), &want[..],
                        "{:?}, indexed={}\n{}", algo, indexed, sql
                    );
                }
            }
        }
    }
}

/// Regression: `sum` and `avg` over `INT` wrapped silently — with
/// `i64::MAX` and 10 both active, `sum` reported `-9223372036854775799`
/// and `avg` `-4611686018427388000`, sequenced and `AS OF` alike. The sum
/// is exact now: NULL where it leaves `i64` (as `+` is), the value again
/// where it comes back, and `avg` divides the exact sum. Sequenced ==
/// `AS OF` == the point-wise oracle.
#[test]
fn int_sum_and_avg_beyond_i64_equal_their_snapshots() {
    let schema = Schema::of(&[
        ("g", SqlType::Str),
        ("v", SqlType::Int),
        ("ts", SqlType::Int),
        ("te", SqlType::Int),
    ]);
    let mut t = Table::with_period(schema, 2, 3);
    t.push(row!["x", 10, 0, 10]);
    t.push(row!["x", i64::MAX, 1, 4]);
    let mut catalog = Catalog::new();
    catalog.register("a", t);
    let query = "(SELECT g, sum(v) AS s, avg(v) AS m FROM a GROUP BY g)";
    let (out, oracle) = engine_and_oracle(&format!("SEQ VT {query}"), &catalog);
    let mean = (i64::MAX as f64 + 10.0) / 2.0;
    let over = |b: i64, e: i64, s: Value, m: f64| {
        Row::new(vec![
            Value::str("x"),
            s,
            Value::Double(m),
            Value::Int(b),
            Value::Int(e),
        ])
    };
    assert_eq!(
        out,
        vec![
            over(1, 4, Value::Null, mean),
            over(0, 1, Value::Int(10), 10.0),
            over(4, 10, Value::Int(10), 10.0),
        ]
    );
    assert_eq!(out, oracle);
    for (at, want) in [(0, &out[1]), (2, &out[0]), (5, &out[2])] {
        let sql = format!("SEQ VT AS OF {at} {query}");
        let bound = bind_statement(&parse_statement(&sql).unwrap(), &catalog).unwrap();
        let plan = SnapshotCompiler::new(TimeDomain::new(0, SPAN))
            .compile_statement(&bound, &catalog)
            .unwrap();
        let snapshot = Engine::new().execute(&plan, &catalog).unwrap();
        assert_eq!(
            snapshot.rows(),
            &[Row::new(want.values()[..3].to_vec())],
            "{sql}"
        );
    }
}
