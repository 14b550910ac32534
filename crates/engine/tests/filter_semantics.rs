//! Filter semantics: exact `IN` lists, sound zone-map elision, type errors
//! that do not depend on the data, and the string forms (`SUBSTR`,
//! column-vs-column compares) in the one compiled loop.

use wimpi_engine::expr::{col, lit};
use wimpi_engine::plan::{AggExpr, PlanBuilder};
use wimpi_engine::{
    execute, execute_priced, EngineConfig, EngineError, Expr, QueryContext, Relation, Tracer,
};
use wimpi_storage::{Catalog, Column, DataType, Decimal64, Field, Schema, Table, Value};

/// 300 rows sealed on a 100-row zone grid: `k` ascending, `d` a scale-1
/// decimal cycling 1.2 / 1.3, `s` and `u` strings.
fn catalog() -> Catalog {
    let names = ["alpha", "beta", "alps", "gamma"];
    let table = Table::new(
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("d", DataType::Decimal(1)),
            Field::new("s", DataType::Utf8),
            Field::new("u", DataType::Utf8),
        ]),
        vec![
            Column::Int64((0..300).collect()),
            Column::Decimal((0..300).map(|i| 12 + i % 2).collect(), 1),
            Column::Str((0..300).map(|i| names[i % 4]).collect()),
            Column::Str((0..300).map(|i| names[i % 3]).collect()),
        ],
    )
    .expect("table builds")
    .with_zone_maps_at(100);
    let mut cat = Catalog::new();
    cat.register("t", table);
    cat
}

/// With and without pruning, on a 100-row morsel grid.
fn configs() -> Vec<EngineConfig> {
    let cfg = EngineConfig::with_threads(2).with_morsel_rows(100);
    [false, true].map(|prune| cfg.with_prune_scans(prune)).to_vec()
}

fn filtered(pred: Expr, cfg: &EngineConfig) -> Result<Relation, EngineError> {
    let plan = PlanBuilder::scan("t").filter(pred).build();
    execute(&plan, &catalog(), cfg, &QueryContext::default(), Tracer::off()).map(|(rel, _)| rel)
}

fn dec(mantissa: i64, scale: u8) -> Value {
    Value::Dec(Decimal64::new(mantissa, scale))
}

#[test]
fn in_list_literal_finer_than_the_column_matches_no_row() {
    for cfg in configs() {
        // 1.25 is not representable at scale 1: it used to be truncated to
        // 1.2 and keep every 1.2 row, while `d = 1.25` kept none.
        let rel = filtered(col("d").in_list(vec![dec(125, 2)]), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 0, "{cfg:?}");
        let rel = filtered(col("d").eq(lit(dec(125, 2))), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 0, "{cfg:?}");
        // Exactly representable literals at a finer scale still match.
        let rel = filtered(col("d").in_list(vec![dec(125, 2), dec(130, 2)]), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 150, "{cfg:?}");
        // NOT IN is unaffected by the unmatchable literal.
        let rel = filtered(col("d").not_in_list(vec![dec(125, 2)]), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 300, "{cfg:?}");
        let rel =
            filtered(col("d").not_in_list(vec![dec(125, 2), dec(12, 1)]), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 150, "{cfg:?}");
    }
}

#[test]
fn a_conjunct_the_zone_maps_prove_true_keeps_every_row() {
    for cfg in configs() {
        let rel = filtered(col("k").gte(lit(0i64)), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 300, "{cfg:?}");
        let rel =
            filtered(col("k").gte(lit(0i64)).and(col("k").lt(lit(150i64))), &cfg).expect("runs");
        assert_eq!(rel.num_rows(), 150, "{cfg:?}");
    }
}

#[test]
fn type_errors_do_not_depend_on_which_rows_survive() {
    for cfg in configs() {
        // No row passes the first conjunct, so no row ever reaches the
        // ill-typed second one; it is a type error all the same.
        let err = filtered(col("k").lt(lit(0i64)).and(lit(5i64).negate()), &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)), "{cfg:?}: {err}");
        let err = filtered(col("k").add(lit(1i64)), &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "{cfg:?}: {err}");
        // Arithmetic on strings is a type error, not a panic.
        let err = filtered(col("s").add(col("u")).eq(lit("x")), &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)), "{cfg:?}: {err}");
    }
}

#[test]
fn string_forms_agree_across_configs() {
    let cat = catalog();
    let plan = PlanBuilder::scan("t")
        .filter(col("s").substr(1, 2).eq(lit("al")).and(col("s").neq(col("u"))))
        .aggregate(vec![(col("u").substr(1, 3), "prefix")], vec![AggExpr::count_star("n")])
        .build();
    let (reference, _) =
        execute(&plan, &cat, &EngineConfig::serial(), &QueryContext::default(), Tracer::off())
            .expect("runs");
    // alpha/alps rows (150) whose `u` differs, grouped by u's prefix.
    assert!(reference.num_rows() >= 2);
    for cfg in configs() {
        let (rel, _) =
            execute(&plan, &cat, &cfg, &QueryContext::default(), Tracer::off()).expect("runs");
        assert_eq!(rel, reference, "{cfg:?}");
    }
}

#[test]
fn both_price_lists_prune_by_the_same_per_morsel_verdicts() {
    // On the 100-row grid `k >= 150` kills morsel 0 and is proven true over
    // morsel 2 only, `k < 250` over morsel 1 only: each is skipped exactly
    // where it is proven, in either price list.
    let pred =
        col("k").gte(lit(150i64)).and(col("k").lt(lit(250i64))).and(col("s").eq(lit("alpha")));
    let plan = PlanBuilder::scan("t").filter(pred).build();
    let cfg = configs()[1];
    assert!(cfg.prune_scans);
    let (rel, prices) =
        execute_priced(&plan, &catalog(), &cfg, &QueryContext::default(), Tracer::off())
            .expect("runs");
    assert_eq!(rel.num_rows(), 25);
    let pruned = prices.lists().map(|(_, p)| (p.pruned_morsels, p.pruned_bytes));
    assert_eq!(pruned[0], pruned[1], "materialize vs fused");
    // Morsel 0's first-conjunct scan, `k < 250` over morsel 1's 50 survivors
    // of `k >= 150`, `k >= 150` over all of morsel 2: 8-byte rows each.
    assert_eq!(pruned[0], (1, (100 + 50 + 100) * 8));
}
