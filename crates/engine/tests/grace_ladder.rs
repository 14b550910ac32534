//! The Grace rung of the aggregate's budget ladder, through the public
//! operator: float folds stay bit-exact across morsel boundaries when a
//! partition's groups are merged from the morsel partials in the order the
//! partitioner's buckets list them, and the coordinator checkpoints — one after the morsel partials, then one per
//! partition per fan-out attempt — fall where they always have.

use std::sync::Arc;
use wimpi_engine::exec::aggregate::exec_aggregate;
use wimpi_engine::exec::Ledger;
use wimpi_engine::expr::{col, Expr};
use wimpi_engine::plan::AggExpr;
use wimpi_engine::{
    CancelToken, EngineConfig, EngineError, QueryContext, Relation, Tracer, WorkProfile,
};
use wimpi_storage::Column;

/// 64 groups of ~9 rows each, scattered so every morsel holds most groups;
/// the float column makes every sum depend on the fold order.
fn input() -> (Relation, Vec<(Expr, String)>, Vec<AggExpr>) {
    let n = 600i64;
    let rel = Relation::new(vec![
        ("g".into(), Arc::new(Column::Int64((0..n).map(|i| (i * 7) % 64).collect()))),
        ("f".into(), Arc::new(Column::Float64((0..n).map(|i| i as f64 * 0.37 + 0.1).collect()))),
    ])
    .unwrap();
    let group = vec![(col("g"), "g".to_string())];
    let aggs =
        vec![AggExpr::sum(col("f"), "sf"), AggExpr::avg(col("f"), "af"), AggExpr::count_star("n")];
    (rel, group, aggs)
}

/// Width is 32 B × (1 key + 3 aggregates) = 128 B per group, so this holds
/// 10 table entries: 64 groups need a fan-out of at least 8.
const BUDGET: u64 = 1280;

fn run(cfg: &EngineConfig, ctx: &QueryContext) -> wimpi_engine::Result<(Relation, WorkProfile)> {
    let (rel, group, aggs) = input();
    let mut led = Ledger::default();
    exec_aggregate(&rel, &[], None, &group, &aggs, &mut led, cfg, Tracer::off(), ctx)
        .map(|out| (out, led.prices().materialize))
}

#[test]
fn multi_morsel_float_aggregate_is_bit_exact_under_grace() {
    for morsel_rows in [37, 101] {
        let serial = EngineConfig::serial().with_morsel_rows(morsel_rows);
        let (want, want_prof) = run(&serial, &QueryContext::default()).unwrap();
        assert_eq!(want.num_rows(), 64);
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel_rows);
            let ctx = QueryContext::with_budget(BUDGET);
            let (got, prof) = run(&cfg, &ctx).unwrap();
            assert_eq!(got, want, "{threads} threads, {morsel_rows}-row morsels");
            assert_eq!(prof, want_prof, "{threads} threads, {morsel_rows}-row morsels");
            assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, GRACE_PARTS));
            assert_eq!(ctx.used(), 0, "all reservations released");
        }
    }
}

/// The fan-out the budget above settles at, and the coordinator checkpoints
/// the whole aggregate passes on the way. Both are decided by the partition
/// assignment alone (never by morsel size or thread count), and both are
/// pinned: a cancellation fuse must keep cutting the query at the same point.
const GRACE_PARTS: u32 = 16;
const CHECKPOINTS: u64 = 26;

#[test]
fn cancellation_cuts_the_grace_aggregate_at_the_same_checkpoints() {
    let (want, _) = run(&EngineConfig::serial(), &QueryContext::default()).unwrap();
    for (threads, morsel_rows) in [(1, 37), (4, 101)] {
        let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel_rows);
        for fuse in 0..CHECKPOINTS {
            let ctx = QueryContext::with_budget(BUDGET)
                .with_cancel_token(CancelToken::after_checks(fuse));
            let err = run(&cfg, &ctx).unwrap_err();
            assert!(matches!(err, EngineError::Cancelled), "fuse {fuse}: got {err:?}");
            assert_eq!(ctx.used(), 0, "fuse {fuse}: a cancelled run leaves no reservation");
        }
        let ctx = QueryContext::with_budget(BUDGET)
            .with_cancel_token(CancelToken::after_checks(CHECKPOINTS));
        let (got, _) = run(&cfg, &ctx).unwrap();
        assert_eq!(got.num_rows(), want.num_rows(), "the fuse outlasts the last checkpoint");
    }
}
