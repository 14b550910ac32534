//! Parallel determinism suite: the morsel-driven engine must produce
//! bit-identical results and work profiles at any thread count.
//!
//! Morsel boundaries depend only on the row count and the configured morsel
//! size — never on the thread count — and per-morsel partials merge in
//! morsel order, so every float reduction tree, group order, and join chain
//! is the serial one (DESIGN.md §execution). The full 22-query sweep runs
//! in release CI (`cargo test --workspace --release`); debug runs keep the
//! Q1/Q6 smoke.

use wimpi::engine::{
    execute_query_with, EngineConfig, Executor, PlanBuilder, QueryContext, SortKey, Tracer,
};
use wimpi::queries::{query, run_governed};
use wimpi::storage::{Catalog, Value};
use wimpi::tpch::Generator;

const SF: f64 = 0.01;

fn catalog() -> Catalog {
    Generator::new(SF).generate_catalog().expect("generation succeeds")
}

/// Serial vs 2- and 4-thread runs, at the default morsel size and at a tiny
/// one that forces many morsels per kernel even at SF 0.01.
fn assert_bit_exact(qn: usize, cat: &Catalog) {
    let q = query(qn);
    for morsel_rows in [wimpi::engine::exec::parallel::DEFAULT_MORSEL_ROWS, 4096] {
        let serial_cfg = EngineConfig::serial().with_morsel_rows(morsel_rows);
        let (rel0, prof0) =
            run_governed(&q, cat, &serial_cfg, &QueryContext::default()).expect("serial run");
        for threads in [2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel_rows);
            let (rel, prof) =
                run_governed(&q, cat, &cfg, &QueryContext::default()).expect("parallel run");
            assert_eq!(
                rel, rel0,
                "Q{qn}: result diverged at {threads} threads, morsel {morsel_rows}"
            );
            assert_eq!(
                prof, prof0,
                "Q{qn}: work profile diverged at {threads} threads, morsel {morsel_rows}"
            );
        }
    }
}

#[test]
fn q1_q6_parallel_bit_exact_smoke() {
    let cat = catalog();
    assert_bit_exact(1, &cat);
    assert_bit_exact(6, &cat);
}

/// Regression for the sort key-representation sweep: a multi-key sort that
/// mixes dictionary-ranked string keys with a *descending* decimal key must
/// order correctly and stay bit-exact across thread counts. Exercises the
/// Rank (u32) and I64 (negated for DESC) key representations together.
#[test]
fn multi_key_string_and_decimal_desc_sort() {
    let cat = catalog();
    let plan = PlanBuilder::scan("lineitem")
        .sort(vec![
            SortKey::asc("l_returnflag"),
            SortKey::asc("l_linestatus"),
            SortKey::desc("l_extendedprice"),
        ])
        .build();
    let (rel0, prof0) = execute_query_with(
        &plan,
        &cat,
        &EngineConfig::serial(),
        &QueryContext::default(),
        Tracer::off(),
    )
    .expect("serial");
    for threads in [2, 4] {
        let cfg = EngineConfig::with_threads(threads);
        let (rel, prof) =
            execute_query_with(&plan, &cat, &cfg, &QueryContext::default(), Tracer::off())
                .expect("parallel run");
        assert_eq!(rel, rel0, "sort result diverged at {threads} threads");
        assert_eq!(prof, prof0, "sort work profile diverged at {threads} threads");
    }
    // Independently verify the ordering: (flag asc, status asc, price desc).
    let key = |row: usize| -> (String, String, f64) {
        let s = |name: &str| match rel0.value(row, name).expect("column present") {
            Value::Str(s) => s,
            v => panic!("expected string, got {v:?}"),
        };
        let price = match rel0.value(row, "l_extendedprice").expect("column present") {
            Value::Dec(d) => d.to_f64(),
            v => panic!("expected decimal, got {v:?}"),
        };
        (s("l_returnflag"), s("l_linestatus"), -price)
    };
    let mut prev = key(0);
    for row in 1..rel0.num_rows() {
        let cur = key(row);
        assert!(prev <= cur, "rows {row} out of order: {prev:?} then {cur:?}");
        prev = cur;
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full 22-query sweep; run with --release")]
fn all_22_queries_parallel_bit_exact() {
    let cat = catalog();
    for qn in 1..=22 {
        assert_bit_exact(qn, &cat);
    }
}

// ---------------------------------------------------------------------------
// Fused price list (DESIGN.md §13): same guarantees, second cost form.
// ---------------------------------------------------------------------------

/// Fused runs (threads 1/2/4 × two morsel sizes) must reproduce the serial
/// materializing result bit-exactly, and the fused work profile itself must
/// be invariant to thread count and morsel size.
fn assert_fused_bit_exact(qn: usize, cat: &Catalog) {
    let q = query(qn);
    let (mat_rel, _) = run_governed(&q, cat, &EngineConfig::serial(), &QueryContext::default())
        .expect("materializing run");
    let mut prof0 = None;
    for morsel_rows in [wimpi::engine::exec::parallel::DEFAULT_MORSEL_ROWS, 4096] {
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads)
                .with_morsel_rows(morsel_rows)
                .with_executor(Executor::Fused);
            let (rel, prof) =
                run_governed(&q, cat, &cfg, &QueryContext::default()).expect("fused run");
            assert_eq!(
                rel, mat_rel,
                "Q{qn}: fused diverged from materializing at {threads} threads, morsel {morsel_rows}"
            );
            let baseline = *prof0.get_or_insert(prof);
            assert_eq!(
                prof, baseline,
                "Q{qn}: fused profile varied at {threads} threads, morsel {morsel_rows}"
            );
        }
    }
}

#[test]
fn fused_choke_points_bit_exact_smoke() {
    let cat = catalog();
    for qn in [1, 6, 19] {
        assert_fused_bit_exact(qn, &cat);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full 22-query sweep; run with --release")]
fn all_22_queries_fused_bit_exact() {
    let cat = catalog();
    for qn in 1..=22 {
        assert_fused_bit_exact(qn, &cat);
    }
}

/// The headline of the fused price list: scan→filter→eval→aggregate
/// pipelines are not charged for materializing intermediates, so the
/// profile's `seq_write_bytes` — the term the paper's bandwidth model charges
/// for — collapses.
#[test]
fn fused_collapses_materialized_write_traffic() {
    let cat = catalog();
    for qn in [1, 6, 19] {
        let q = query(qn);
        let (_, mat) = run_governed(&q, &cat, &EngineConfig::serial(), &QueryContext::default())
            .expect("materializing run");
        let fused_cfg = EngineConfig::serial().with_executor(Executor::Fused);
        let (_, fused) =
            run_governed(&q, &cat, &fused_cfg, &QueryContext::default()).expect("fused run");
        assert!(
            fused.seq_write_bytes < mat.seq_write_bytes,
            "Q{qn}: fused wrote {} bytes, materializing {}",
            fused.seq_write_bytes,
            mat.seq_write_bytes
        );
    }
}

/// Budgeted fused runs: bit-exact against the budgeted serial materializing
/// baseline at every thread count and morsel size, whether the fold fit the
/// budget or fell back to dense input under it.
#[test]
fn fused_budgeted_runs_stay_bit_exact() {
    let cat = catalog();
    for qn in [1usize, 6] {
        let q = query(qn);
        let serial_ctx = QueryContext::with_budget(64 << 10);
        let (rel0, _) = run_governed(&q, &cat, &EngineConfig::serial(), &serial_ctx)
            .expect("budgeted materializing run");
        let mut prof0 = None;
        for morsel_rows in [wimpi::engine::exec::parallel::DEFAULT_MORSEL_ROWS, 4096] {
            for threads in [1, 2, 4] {
                let ctx = QueryContext::with_budget(64 << 10);
                let cfg = EngineConfig::with_threads(threads)
                    .with_morsel_rows(morsel_rows)
                    .with_executor(Executor::Fused);
                let (rel, prof) = run_governed(&q, &cat, &cfg, &ctx).expect("budgeted fused run");
                assert_eq!(rel, rel0, "Q{qn}: budgeted fused diverged at {threads} threads");
                let baseline = *prof0.get_or_insert(prof);
                assert_eq!(prof, baseline, "Q{qn}: budgeted fused profile varied");
            }
        }
    }
}

/// When the merged group table exceeds the budget, the fold descends the
/// ladder — Grace partitioning — under either price list: the same answer
/// and the same descent. The `Materialize` profile is pinned from the commit
/// before the fold folded filters under both lists; the `Fused` one is its
/// own, the same at every thread count. The keys are a permutation: in key
/// order the aggregate would take the run form, which reserves nothing and
/// cannot exceed a budget.
#[test]
fn fused_budget_fallback_matches_materializing() {
    use wimpi::engine::{col, AggExpr, PlanBuilder};
    use wimpi::storage::{Column, DataType, Field, Schema, Table};

    let n = 50_000i64;
    let keys: Vec<i64> = (0..n).map(|i| i * 7919 % n).collect();
    let vals: Vec<i64> = (0..n).map(|i| i * 3 % 101).collect();
    let mut cat = Catalog::new();
    let table = Table::new(
        Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]),
        vec![Column::Int64(keys), Column::Int64(vals)],
    )
    .expect("table builds");
    cat.register("t", table);
    let plan = PlanBuilder::scan("t")
        .aggregate(vec![(col("k"), "k")], vec![AggExpr::sum(col("v"), "s")])
        .build();
    // 50k distinct 64-byte group slots blow a 64 KB budget; both price
    // lists must degrade identically.
    let mat_ctx = QueryContext::with_budget(64 << 10);
    let (rel0, prof0) =
        execute_query_with(&plan, &cat, &EngineConfig::serial(), &mat_ctx, Tracer::off())
            .expect("budgeted materializing run");
    assert_eq!(rel0.num_rows(), n as usize);
    assert_eq!((mat_ctx.fallbacks(), mat_ctx.max_fallback_parts()), (1, 64));
    let pinned = wimpi::engine::WorkProfile {
        cpu_ops: 100_000,
        seq_write_bytes: 800_000,
        rand_accesses: 50_000,
        hash_bytes: 3_200_000,
        rows_in: 50_000,
        rows_out: 50_000,
        peak_bytes: 800_000,
        ..Default::default()
    };
    assert_eq!(prof0, pinned);
    let mut fused_prof = None;
    for threads in [1, 2, 4] {
        let ctx = QueryContext::with_budget(64 << 10);
        let cfg = EngineConfig::with_threads(threads).with_executor(Executor::Fused);
        let (rel, prof) =
            execute_query_with(&plan, &cat, &cfg, &ctx, Tracer::off()).expect("budgeted fused run");
        assert_eq!(rel, rel0, "result diverged at {threads} threads");
        assert_eq!(prof, *fused_prof.get_or_insert(prof), "profile varied at {threads} threads");
        assert_eq!(ctx.fallbacks(), mat_ctx.fallbacks(), "one descent, the same one");
        assert_eq!(ctx.max_fallback_parts(), mat_ctx.max_fallback_parts());
    }
}

/// `min`/`max` fold the filter beneath them like every other aggregate: the
/// materializing answer bit for bit at any thread count, in the fused cost
/// form — no gather of the filter's survivors is charged, so nothing is
/// written but the output.
#[test]
fn fused_min_max_stay_fused_and_bit_exact() {
    use wimpi::engine::plan::{AggExpr, AggFunc};
    use wimpi::engine::{col, lit, PlanBuilder};

    let cat = catalog();
    let agg = |func, column: &str, name: &str| AggExpr {
        func,
        expr: Some(col(column)),
        name: name.into(),
    };
    let plan = PlanBuilder::scan("lineitem")
        .filter(col("l_quantity").lt(lit(25i64)))
        .aggregate(
            vec![(col("l_returnflag"), "f")],
            vec![
                agg(AggFunc::Max, "l_extendedprice", "hi"),
                agg(AggFunc::Min, "l_shipdate", "first"),
                agg(AggFunc::Max, "l_shipmode", "mode"),
            ],
        )
        .build();
    let (rel0, prof0) = execute_query_with(
        &plan,
        &cat,
        &EngineConfig::serial(),
        &QueryContext::default(),
        Tracer::off(),
    )
    .expect("materializing run");
    let mut fused_prof = None;
    for threads in [1, 2, 4] {
        let cfg = EngineConfig::with_threads(threads).with_executor(Executor::Fused);
        let (rel, prof) =
            execute_query_with(&plan, &cat, &cfg, &QueryContext::default(), Tracer::off())
                .expect("fused run");
        assert_eq!(rel, rel0, "fused result diverged at {threads} threads");
        assert_eq!(prof, *fused_prof.get_or_insert(prof), "fused profile varied with threads");
        assert_eq!(prof.seq_write_bytes, rel.stream_bytes() as u64, "only the output is written");
        assert!(prof.seq_write_bytes < prof0.seq_write_bytes);
        assert_eq!((prof.rand_accesses, prof.hash_bytes), (prof0.rand_accesses, prof0.hash_bytes));
    }
}

mod reference_eval;

mod bytecode_vs_evaluator {
    //! Property test: on random expressions the production path — the
    //! compiled `Program`, run over morsels and charged through its
    //! compile-time cost form — must agree with the reference interpreter
    //! (`tests/reference_eval`, the recursive evaluator the engine used to
    //! run) on the column bit for bit, on the `WorkProfile`, and on the
    //! error variant, at threads 1/2/4 × two morsel sizes.
    //!
    //! Expressions are grown from a drawn opcode stream (the vendored
    //! proptest shim has no recursive strategies), covering arithmetic over
    //! mixed int/decimal/float columns, mixed-scale decimal rescales
    //! (literal scales 0–4 against scale-1/2 columns), comparisons, logical
    //! combinations, LIKE / IN / BETWEEN / CASE / EXTRACT(YEAR), `SUBSTR`,
    //! string column-vs-column compares, scalar-only trees, and ill-typed
    //! shapes (CASE over strings, NOT of a number, mixed-type IN lists, …).
    //!
    //! One charge is defined differently on purpose, and the generator keeps
    //! it out of the row subsets where it would show: a predicate over a
    //! *computed* string (`SUBSTR(s, …) = 'x'`) pays one comparison per
    //! value of the dictionary the program carries — every substring the
    //! source dictionary can produce — where the interpreter re-interned
    //! the substrings row by row and paid per value present in the rows it
    //! happened to see. The two agree whenever the rows cover the
    //! dictionary (any base-table scan), so such predicates are generated
    //! only for full-relation inputs (`covering`).

    use super::reference_eval::{reference_filter, Interpreter};
    use proptest::prelude::*;
    use std::sync::Arc;
    use wimpi::engine::eval::Evaluator;
    use wimpi::engine::exec::filter::exec_filter;
    use wimpi::engine::expr::BinOp;
    use wimpi::engine::{
        col, lit, EngineConfig, EngineError, Expr, QueryContext, Relation, Tracer, WorkProfile,
    };
    use wimpi::storage::{Column, Decimal64, DictColumn, Value};

    /// A small relation exercising every column type the VM handles.
    fn test_relation() -> Relation {
        let n = 257usize; // deliberately not a power of two
        let i64s: Vec<i64> = (0..n).map(|i| (i as i64 * 7 % 50) - 25).collect();
        let i32s: Vec<i32> = (0..n).map(|i| (i as i32 * 13 % 40) - 20).collect();
        let dec2: Vec<i64> = (0..n).map(|i| (i as i64 * 31 % 2000) - 1000).collect();
        let dec1: Vec<i64> = (0..n).map(|i| (i as i64 * 17 % 500) - 250).collect();
        let f64s: Vec<f64> = (0..n).map(|i| (i as f64 - 128.0) / 3.0).collect();
        let dates: Vec<i32> = (0..n).map(|i| 9000 + (i as i32 * 37 % 2000)).collect();
        let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"];
        let strs: DictColumn = (0..n).map(|i| modes[i * 11 % modes.len()]).collect();
        let others = ["SHIP", "AIR", "REG AIR", "FOB"];
        let strs2: DictColumn = (0..n).map(|i| others[i * 7 % others.len()]).collect();
        Relation::new(vec![
            ("i".to_string(), Arc::new(Column::Int64(i64s))),
            ("j".to_string(), Arc::new(Column::Int32(i32s))),
            ("d".to_string(), Arc::new(Column::Decimal(dec2, 2))),
            ("e".to_string(), Arc::new(Column::Decimal(dec1, 1))),
            ("f".to_string(), Arc::new(Column::Float64(f64s))),
            ("t".to_string(), Arc::new(Column::Date(dates))),
            ("b".to_string(), Arc::new(Column::Bool(bools))),
            ("s".to_string(), Arc::new(Column::Str(strs))),
            ("u".to_string(), Arc::new(Column::Str(strs2))),
        ])
        .expect("relation builds")
    }

    /// Bit-exact column equality: floats compare by IEEE bits, so a shared
    /// NaN (e.g. from `i / i` at `i = 0`) counts as agreement — `PartialEq`
    /// would report bit-identical NaN columns as different.
    fn bit_eq(a: &Column, b: &Column) -> bool {
        match (a, b) {
            (Column::Float64(x), Column::Float64(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => a == b,
        }
    }

    fn rel_bit_eq(a: &Relation, b: &Relation) -> bool {
        a.fields().len() == b.fields().len()
            && a.fields().iter().zip(b.fields()).all(|(x, y)| x.0 == y.0 && bit_eq(&x.1, &y.1))
    }

    /// How a production outcome departs from the reference's, if it does:
    /// both must succeed with equal values and equal charges, or both fail
    /// with the same error variant.
    fn divergence<T>(
        produced: (&Result<T, EngineError>, &WorkProfile),
        reference: (&Result<T, EngineError>, &WorkProfile),
        same: impl Fn(&T, &T) -> bool,
    ) -> Option<String> {
        match (produced.0, reference.0) {
            (Ok(got), Ok(want)) if !same(got, want) => Some("values diverged".to_string()),
            (Ok(_), Ok(_)) if produced.1 != reference.1 => {
                Some(format!("charges diverged: {:?} vs {:?}", produced.1, reference.1))
            }
            (Ok(_), Ok(_)) => None,
            (Err(e), Err(want)) if std::mem::discriminant(e) == std::mem::discriminant(want) => {
                None
            }
            (Err(e), Err(want)) => Some(format!("error `{e}`, reference `{want}`")),
            (Ok(_), Err(want)) => Some(format!("production succeeded, reference failed: {want}")),
            (Err(e), Ok(_)) => Some(format!("production failed, reference succeeded: {e}")),
        }
    }

    /// Deterministic expression growth from a drawn opcode stream.
    struct Gen<'a> {
        stream: &'a [u32],
        pos: std::cell::Cell<usize>,
        /// The input rows cover every dictionary value, so predicates over
        /// computed strings may be generated (see the module docs).
        covering: bool,
        /// One ill-typed shape is still to be planted.
        ill: std::cell::Cell<bool>,
    }

    impl<'a> Gen<'a> {
        fn new(stream: &'a [u32], covering: bool, ill: bool) -> Self {
            Gen { stream, pos: std::cell::Cell::new(0), covering, ill: std::cell::Cell::new(ill) }
        }

        fn next(&self) -> u32 {
            let p = self.pos.get();
            self.pos.set(p + 1);
            self.stream[p % self.stream.len()].wrapping_add((p / self.stream.len()) as u32)
        }

        /// An expression the type checker must reject.
        fn ill_typed(&self) -> Expr {
            match self.next() % 7 {
                0 => col("b").case(col("s"), col("u")),
                1 => lit(5i64).negate(),
                2 => col("i").negate(),
                3 => col("i").in_list(vec![Value::I64(1), Value::Str("x".to_string())]),
                4 => col("s").in_list(vec![Value::Str("AIR".to_string()), Value::I64(1)]),
                5 => col("t").add(lit(1.5)),
                6 => col("i").like("%1%"),
                _ => unreachable!(),
            }
        }

        fn take_ill(&self) -> bool {
            self.ill.get() && self.next().is_multiple_of(3) && self.ill.replace(false)
        }

        fn num_leaf(&self) -> Expr {
            match self.next() % 10 {
                0 => col("i"),
                1 => col("j"),
                2 => col("d"),
                3 => col("e"),
                4 => col("f"),
                5 => col("t"),
                6 => lit((self.next() % 100) as i64 - 50),
                7 => lit(Value::Dec(Decimal64::new((self.next() % 2000) as i64 - 1000, 2))),
                8 => lit((self.next() % 100) as f64 / 4.0 - 12.5),
                // Decimal literals at scales 0–4: combined with the scale-1
                // and scale-2 columns these force both widening and
                // narrowing rescales, pinning the VM to the evaluator's
                // rounding convention on every mixed-scale path.
                9 => self.dec_lit(),
                _ => unreachable!(),
            }
        }

        fn dec_lit(&self) -> Expr {
            lit(self.dec_value())
        }

        fn dec_value(&self) -> Value {
            Value::Dec(Decimal64::new((self.next() % 4000) as i64 - 2000, (self.next() % 5) as u8))
        }

        /// A literal-only numeric tree: folds at compile time.
        fn scalar_num(&self, depth: u32) -> Expr {
            if depth == 0 {
                return match self.next() % 3 {
                    0 => lit((self.next() % 20) as i64 - 10),
                    1 => self.dec_lit(),
                    _ => lit((self.next() % 40) as f64 / 8.0),
                };
            }
            let (a, b) = (self.scalar_num(depth - 1), self.scalar_num(depth - 1));
            match self.next() % 4 {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                _ => a.div(b),
            }
        }

        fn num(&self, depth: u32) -> Expr {
            if self.take_ill() {
                return self.ill_typed();
            }
            if depth == 0 {
                return self.num_leaf();
            }
            match self.next() % 9 {
                0..=2 => self.num_leaf(),
                3 => self.num(depth - 1).add(self.num(depth - 1)),
                4 => self.num(depth - 1).sub(self.num(depth - 1)),
                5 => self.num(depth - 1).mul(self.num(depth - 1)),
                6 => self.num(depth - 1).div(self.num(depth - 1)),
                7 => self.boolean(depth - 1).case(self.num(depth - 1), self.num(depth - 1)),
                8 => self.scalar_num(depth),
                _ => unreachable!(),
            }
        }

        /// A string-valued expression: a column, a literal, or `SUBSTR`s.
        fn string(&self, depth: u32) -> Expr {
            let leaf = match self.next() % 5 {
                0 | 1 => col("s"),
                2 | 3 => col("u"),
                _ => lit(["AIR", "SHIPMENT", ""][self.next() as usize % 3]),
            };
            (0..depth.min(self.next() % 3))
                .fold(leaf, |e, _| e.substr((self.next() % 5) as usize, (self.next() % 5) as usize))
        }

        fn cmp(&self, a: Expr, b: Expr) -> Expr {
            match self.next() % 6 {
                0 => a.eq(b),
                1 => a.neq(b),
                2 => a.lt(b),
                3 => a.lte(b),
                4 => a.gt(b),
                5 => a.gte(b),
                _ => unreachable!(),
            }
        }

        /// A predicate over a computed string (covering inputs only).
        fn computed_string_pred(&self) -> Expr {
            let e = self.string(2);
            let strs = |v: &[&str]| v.iter().map(|s| Value::Str(s.to_string())).collect();
            match self.next() % 3 {
                0 => self.cmp(e, lit(["AI", "SH", "R", ""][self.next() as usize % 4])),
                1 => e.in_list(strs(&["AI", "RA", "IP", "HIP"])),
                _ => e.like(["%A%", "S_", "%"][self.next() as usize % 3]),
            }
        }

        fn boolean(&self, depth: u32) -> Expr {
            if self.take_ill() {
                return self.ill_typed();
            }
            if depth == 0 {
                return self.cmp(self.num_leaf(), self.num_leaf());
            }
            match self.next() % 17 {
                0..=3 => self.cmp(self.num(depth - 1), self.num(depth - 1)),
                4 => self.boolean(depth - 1).and(self.boolean(depth - 1)),
                5 => self.boolean(depth - 1).or(self.boolean(depth - 1)),
                6 => self.boolean(depth - 1).negate(),
                7 => col("b"),
                8 => {
                    let pats = ["%AI%", "R_IL", "SHIP", "%K", "M%"];
                    col("s").like(pats[self.next() as usize % pats.len()])
                }
                9 => col("s")
                    .in_list(vec![Value::Str("AIR".to_string()), Value::Str("SHIP".to_string())]),
                10 => {
                    let lo = (self.next() % 40) as i64 - 20;
                    col("i").between(lo, lo + (self.next() % 20) as i64)
                }
                11 => self.cmp(col("t").year(), lit(1994i64 + (self.next() % 6) as i64)),
                // String column-vs-column compares decode row-wise.
                12 => self.cmp(col("s"), col("u")),
                // Numeric IN lists at scales the column cannot represent.
                13 => {
                    let list = (0..1 + self.next() % 3).map(|_| self.dec_value()).collect();
                    let probe = [col("d"), col("e"), col("i"), col("j")];
                    let probe = probe[self.next() as usize % 4].clone();
                    if self.next().is_multiple_of(2) {
                        probe.in_list(list)
                    } else {
                        probe.not_in_list(list)
                    }
                }
                14 if self.covering => self.computed_string_pred(),
                14 => self.cmp(col("s"), lit(["AIR", "MAIL", "ZZZ"][self.next() as usize % 3])),
                // Scalar-only predicates: folded, or a broadcast AND/OR.
                15 => match self.next() % 4 {
                    0 => self.cmp(self.scalar_num(1), self.scalar_num(1)),
                    1 => lit(self.next().is_multiple_of(2)).and(lit(self.next().is_multiple_of(2))),
                    2 => lit("AIRMAIL").like(["AIR%", "%X"][self.next() as usize % 2]),
                    _ => lit(5i64).in_list(vec![Value::I64(1), Value::I64(5)]),
                },
                16 => lit(!self.next().is_multiple_of(4)),
                _ => unreachable!(),
            }
        }
    }

    /// Every production configuration a result must not depend on.
    fn configs() -> Vec<EngineConfig> {
        let mut out = Vec::new();
        for morsel_rows in [64, wimpi::engine::exec::parallel::DEFAULT_MORSEL_ROWS] {
            for threads in [1, 2, 4] {
                out.push(EngineConfig::with_threads(threads).with_morsel_rows(morsel_rows));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Evaluator::eval` (the aggregate-input / group-key / projection
        /// path) against the interpreter, over the full relation and — for
        /// expressions whose charges do not depend on dictionary coverage —
        /// over zero rows that still carry the full dictionaries (the
        /// per-dictionary constants are charged even at `n = 0`).
        #[test]
        fn eval_matches_the_reference_interpreter(
            stream in prop::collection::vec(0u32..u32::MAX, 8..40),
            kind in 0u32..3,
            depth in 1u32..4,
            covering in any::<bool>(),
            ill in 0u32..4,
        ) {
            let full = test_relation();
            let g = Gen::new(&stream, covering, ill == 0);
            let expr = match kind {
                0 => g.boolean(depth),
                1 => g.num(depth),
                _ => g.string(depth),
            };
            let inputs = if covering { vec![full] } else { vec![full.take(&[]), full] };
            for rel in &inputs {
                let mut ref_prof = WorkProfile::new();
                let reference = Interpreter::new(rel, &mut ref_prof).eval(&expr);
                for cfg in configs() {
                    let mut prof = WorkProfile::new();
                    let produced = Evaluator::with_config(rel, &mut prof, cfg).eval(&expr);
                    let diff = divergence((&produced, &prof), (&reference, &ref_prof), |a, b| bit_eq(a, b));
                    prop_assert!(diff.is_none(), "{expr:?} ({cfg:?}): {}", diff.unwrap());
                }
            }
        }

        /// The materializing filter against the interpreter's conjunct loop:
        /// same survivors, same charges — dense first conjunct, modelled
        /// gathers after it, constants decided on one row, and nothing
        /// charged once a conjunct has emptied the candidates.
        #[test]
        fn filter_matches_the_reference_conjunct_loop(
            stream in prop::collection::vec(0u32..u32::MAX, 8..40),
            nconj in 1usize..4,
            depth in 0u32..3,
            covering in any::<bool>(),
            reject_all_at in 0usize..6,
            ill in 0u32..4,
        ) {
            let full = test_relation();
            // A covering case is one conjunct over the full relation: a
            // top-level AND is kept from splitting by an `OR false`.
            let g = Gen::new(&stream, covering, ill == 0);
            let conjuncts: Vec<Expr> = (0..if covering { 1 } else { nconj })
                .map(|k| match (k == reject_all_at, g.boolean(depth)) {
                    (true, _) => col("i").gt(lit(1000i64)),
                    (_, and @ Expr::Bin { op: BinOp::And, .. }) if covering => and.or(lit(false)),
                    (_, conjunct) => conjunct,
                })
                .collect();
            let pred = conjuncts.iter().cloned().reduce(Expr::and).expect("at least one conjunct");
            // Production type-checks every conjunct before running any; the
            // interpreter only those a row reaches. Hoist its check — each
            // conjunct over zero rows — so both report the first ill-typed
            // conjunct whatever the data (`filter_semantics.rs` pins that).
            let empty = full.take(&[]);
            let typecheck = conjuncts.iter().try_for_each(|c| {
                Interpreter::new(&empty, &mut WorkProfile::new()).eval_mask(c).map(|_| ())
            });
            let inputs = if covering { vec![full] } else { vec![full.take(&[]), full] };
            for rel in &inputs {
                let mut ref_prof = WorkProfile::new();
                let reference =
                    typecheck.clone().and_then(|()| reference_filter(rel, &pred, &mut ref_prof));
                for cfg in configs() {
                    let mut prof = WorkProfile::new();
                    let ctx = QueryContext::default();
                    let produced =
                        exec_filter(rel, &pred, None, &mut prof, &cfg, Tracer::off(), &ctx);
                    let diff = divergence((&produced, &prof), (&reference, &ref_prof), rel_bit_eq);
                    prop_assert!(diff.is_none(), "{pred:?} ({cfg:?}): {}", diff.unwrap());
                }
            }
        }
    }
}

/// The determinism guarantee survives the out-of-core rung (DESIGN.md §16):
/// a budget ladder descending past the Grace cliff with a spill disk
/// attached must yield bit-identical relations *and* work profiles — spill
/// ledger included — at threads 1/2/4 × two morsel sizes. Spill partition
/// layout depends only on (plan, budget, fan-out), never on scheduling, so
/// `spilled_bytes` is part of the deterministic contract, not a statistic.
#[test]
fn spill_budget_ladder_stays_parallel_bit_exact() {
    use std::sync::Arc;
    use wimpi::storage::spill::{SpillConfig, SpillDisk};

    let cat = catalog();
    // Budgets bracketing the cliff at SF 0.01: 16 MB runs in memory, 2 KB
    // pushes Q3's join build past Grace onto the disk, 64 B spills the
    // aggregate/sort rungs of Q5/Q14 too.
    for qn in [3usize, 5, 14] {
        let q = query(qn);
        for budget in [16u64 << 20, 2 << 10, 64] {
            let fresh_disk = || Arc::new(SpillDisk::new(SpillConfig::with_capacity(256 << 20)));
            let serial_disk = fresh_disk();
            let serial_ctx = QueryContext::with_budget(budget).with_spill(Arc::clone(&serial_disk));
            let serial = run_governed(&q, &cat, &EngineConfig::serial(), &serial_ctx);
            match serial {
                Ok((rel0, prof0)) => {
                    for morsel_rows in [wimpi::engine::exec::parallel::DEFAULT_MORSEL_ROWS, 4096] {
                        for threads in [1, 2, 4] {
                            let disk = fresh_disk();
                            let ctx =
                                QueryContext::with_budget(budget).with_spill(Arc::clone(&disk));
                            let cfg =
                                EngineConfig::with_threads(threads).with_morsel_rows(morsel_rows);
                            let (rel, prof) =
                                run_governed(&q, &cat, &cfg, &ctx).expect("spill run");
                            assert_eq!(
                                rel, rel0,
                                "Q{qn} budget {budget}: result diverged at {threads} \
                                 threads, morsel {morsel_rows}"
                            );
                            assert_eq!(
                                prof, prof0,
                                "Q{qn} budget {budget}: profile (incl. spill ledger) \
                                 diverged at {threads} threads, morsel {morsel_rows}"
                            );
                            assert_eq!(
                                disk.used(),
                                0,
                                "Q{qn} budget {budget}: spill capacity leaked"
                            );
                        }
                    }
                    if budget == 64 {
                        assert!(
                            prof0.spilled_bytes > 0,
                            "Q{qn}: a 64-byte budget must actually exercise the spill rung"
                        );
                    }
                }
                Err(e) => {
                    // Exhaustion must be just as deterministic as success.
                    for threads in [2, 4] {
                        let ctx = QueryContext::with_budget(budget).with_spill(fresh_disk());
                        let err =
                            run_governed(&q, &cat, &EngineConfig::with_threads(threads), &ctx)
                                .expect_err("serial exhausted; parallel must too");
                        assert_eq!(
                            err.to_string(),
                            e.to_string(),
                            "Q{qn} budget {budget}: error diverged at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

/// The determinism guarantee survives memory governance: a budget tight
/// enough to force Grace-partitioned builds (64 KB at SF 0.01) must yield
/// the same relation and work profile at every thread count, because
/// reservation decisions are taken once on the coordinator — never raced by
/// workers.
#[test]
fn budget_constrained_runs_stay_parallel_bit_exact() {
    let cat = catalog();
    for qn in [1usize, 3, 6, 13] {
        let q = query(qn);
        let serial_ctx = QueryContext::with_budget(64 << 10);
        let (rel0, prof0) = run_governed(&q, &cat, &EngineConfig::serial(), &serial_ctx)
            .expect("budgeted serial run");
        for threads in [2, 4] {
            let ctx = QueryContext::with_budget(64 << 10);
            let cfg = EngineConfig::with_threads(threads);
            let (rel, prof) = run_governed(&q, &cat, &cfg, &ctx).expect("budgeted parallel run");
            assert_eq!(rel, rel0, "Q{qn}: budgeted result diverged at {threads} threads");
            assert_eq!(prof, prof0, "Q{qn}: budgeted profile diverged at {threads} threads");
        }
    }
}
