//! Resource-governor suite: reservation accounting under arbitrary
//! (including concurrent) interleavings, cooperative cancellation at morsel
//! boundaries, and budget-constrained determinism.
//!
//! The contract under test (DESIGN.md §10): a budget may slow a query down
//! or fail it with a typed error — it may never change an answer, leak a
//! byte of accounted scratch, or behave differently at different thread
//! counts.

use proptest::prelude::*;
use std::sync::Arc;
use std::thread;
use wimpi::engine::{CancelToken, EngineConfig, EngineError, MemoryReservation, QueryContext};
use wimpi::queries::{query, run_governed};
use wimpi::storage::Catalog;
use wimpi::tpch::Generator;

const SF: f64 = 0.01;

fn catalog() -> Catalog {
    Generator::new(SF).generate_catalog().expect("generation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serial reserve/release sequences against a scalar model: `used()`
    /// tracks the live sum exactly at every step, `high_water()` ends up as
    /// the max prefix sum, and draining every held reservation restores the
    /// account to zero.
    #[test]
    fn high_water_is_the_max_prefix_sum(
        ops in prop::collection::vec((1u64..64_000, any::<bool>()), 1..40),
    ) {
        let mem = MemoryReservation::unlimited();
        let mut held: Vec<u64> = Vec::new();
        let (mut live, mut peak) = (0u64, 0u64);
        for (bytes, pop) in ops {
            if pop && !held.is_empty() {
                let b = held.pop().expect("nonempty");
                mem.release(b);
                live -= b;
            } else {
                prop_assert!(mem.try_reserve(bytes), "unlimited must always grant");
                held.push(bytes);
                live += bytes;
                peak = peak.max(live);
            }
            prop_assert_eq!(mem.used(), live);
            prop_assert_eq!(mem.high_water(), peak);
        }
        for b in held.drain(..) {
            mem.release(b);
        }
        prop_assert_eq!(mem.used(), 0, "budget must be exactly restored");
        prop_assert_eq!(mem.high_water(), peak, "draining must not move the peak");
    }

    /// Concurrent reserve/release storms on a budgeted account: no
    /// interleaving oversubscribes the budget (the compare-and-swap grant is
    /// all-or-nothing), the balance never goes negative (released bytes were
    /// always granted first), and the account drains back to zero.
    #[test]
    fn concurrent_interleavings_never_oversubscribe(
        budget in 1u64..10_000,
        sizes in prop::collection::vec(1u64..4_000, 4..33),
    ) {
        let mem = Arc::new(MemoryReservation::with_budget(budget));
        let mut handles = Vec::new();
        for chunk in sizes.chunks(8) {
            let mem = Arc::clone(&mem);
            let chunk = chunk.to_vec();
            handles.push(thread::spawn(move || {
                for b in chunk {
                    if mem.try_reserve(b) {
                        // A racing observer may see other threads' grants,
                        // but never more than the budget.
                        assert!(mem.used() <= budget, "oversubscribed mid-flight");
                        mem.release(b);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no reservation thread may panic");
        }
        prop_assert_eq!(mem.used(), 0, "all grants must be returned");
        prop_assert!(mem.high_water() <= budget);
        prop_assert!(mem.hard_high_water() <= budget);
    }
}

/// Cancellation is checked at morsel boundaries through a shared fuse, so a
/// token armed to fire after `n` checks either cancels the query at every
/// thread count or at none — and a cancelled run releases its whole budget.
#[test]
fn cancellation_mid_join_is_prompt_and_thread_deterministic() {
    let cat = catalog();
    let q = query(3); // two joins + aggregate + sort: plenty of boundaries
    let (baseline, _) =
        run_governed(&q, &cat, &EngineConfig::serial(), &QueryContext::new()).expect("baseline");

    let mut saw_cancel = false;
    for fuse in [0u64, 1, 2, 5, 10_000] {
        let mut verdicts = Vec::new();
        for threads in [1usize, 2, 4] {
            let cfg = if threads == 1 {
                EngineConfig::serial()
            } else {
                EngineConfig::with_threads(threads)
            };
            let ctx = QueryContext::new().with_cancel_token(CancelToken::after_checks(fuse));
            match run_governed(&q, &cat, &cfg, &ctx) {
                Err(EngineError::Cancelled) => {
                    assert_eq!(ctx.used(), 0, "cancelled run must release its budget");
                    verdicts.push(true);
                }
                Ok((rel, _)) => {
                    assert_eq!(rel, baseline, "uncancelled run must be bit-exact");
                    verdicts.push(false);
                }
                Err(e) => panic!("fuse {fuse}, {threads} threads: unexpected error {e}"),
            }
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "fuse {fuse}: cancellation verdict varied with thread count: {verdicts:?}"
        );
        saw_cancel |= verdicts[0];
    }
    assert!(saw_cancel, "a short fuse must actually cancel mid-query");

    // Regression: the catalog is untouched — an immediate re-run after a
    // cancellation is bit-exact against the uncancelled baseline.
    let (rerun, _) =
        run_governed(&q, &cat, &EngineConfig::serial(), &QueryContext::new()).expect("rerun");
    assert_eq!(rerun, baseline, "re-run after cancellation must match");
}

/// A budget tight enough to force the Grace fallback must not change the
/// answer — at any thread count — and the degraded plan itself must be
/// thread-count-deterministic (same fallback count, same fan-out).
#[test]
fn grace_degraded_runs_stay_bit_exact_across_threads() {
    let cat = catalog();
    // Budgets that force each query's largest build at SF 0.01 into Grace
    // partitioning without exhausting anything. (Q3's `lineitem ⋈ orders` is
    // a cursor and its group-by a run fold, neither of which reserves; what
    // is left to squeeze is the 4.8 KB hash build over filtered `customer`.)
    for (qn, budget) in [(1usize, 1u64 << 10), (3, 4 << 10), (13, 64 << 10)] {
        let q = query(qn);
        let (baseline, _) = run_governed(&q, &cat, &EngineConfig::serial(), &QueryContext::new())
            .expect("unbudgeted baseline");

        let serial = QueryContext::with_budget(budget);
        let (rel0, prof0) =
            run_governed(&q, &cat, &EngineConfig::serial(), &serial).expect("budgeted serial");
        assert!(serial.fallbacks() > 0, "Q{qn} under {budget} B must take the Grace fallback");
        assert_eq!(rel0, baseline, "Q{qn}: budgeted answer must be bit-exact");
        assert_eq!(serial.used(), 0, "Q{qn}: budget fully restored");

        for threads in [2usize, 4] {
            let ctx = QueryContext::with_budget(budget);
            let cfg = EngineConfig::with_threads(threads);
            let (rel, prof) = run_governed(&q, &cat, &cfg, &ctx).expect("budgeted parallel");
            assert_eq!(rel, rel0, "Q{qn}: diverged at {threads} threads under budget");
            assert_eq!(prof, prof0, "Q{qn}: work profile diverged at {threads} threads");
            assert_eq!(ctx.fallbacks(), serial.fallbacks(), "Q{qn}: fallback count diverged");
            assert_eq!(
                ctx.max_fallback_parts(),
                serial.max_fallback_parts(),
                "Q{qn}: Grace fan-out diverged"
            );
            assert!(ctx.hard_high_water() <= budget, "Q{qn}: reservations broke the budget");
        }
    }
}

/// Operators that find their input in key order build no table, so no budget
/// can push them down the ladder: under 8 KiB with a spill disk attached,
/// Q18's and Q21's `GROUP BY l_orderkey` and the `lineitem ⋈ orders` join
/// answer bit-exactly with no fallback and not a byte spilled.
#[test]
fn ordered_inputs_need_no_budget() {
    use wimpi::engine::{col, execute, AggExpr, PlanBuilder, Tracer};
    let cat = catalog();
    let by_order =
        |agg| PlanBuilder::scan("lineitem").aggregate(vec![(col("l_orderkey"), "k")], vec![agg]);
    let plans = [
        by_order(AggExpr::sum(col("l_quantity"), "sum_qty")).build(),
        by_order(AggExpr::count_distinct(col("l_suppkey"), "nsupp")).build(),
        PlanBuilder::scan("lineitem")
            .inner_join(PlanBuilder::scan("orders"), vec![("l_orderkey", "o_orderkey")])
            .build(),
    ];
    for plan in &plans {
        let free = QueryContext::new();
        let (want, _) = execute(plan, &cat, &EngineConfig::serial(), &free, Tracer::off()).unwrap();
        for threads in [1usize, 2, 4] {
            let disk = Arc::new(wimpi::storage::SpillDisk::new(
                wimpi::storage::SpillConfig::with_capacity(1 << 30),
            ));
            let ctx = QueryContext::with_budget(8 << 10).with_spill(Arc::clone(&disk));
            let cfg = EngineConfig::with_threads(threads);
            let (got, prof) =
                execute(plan, &cat, &cfg, &ctx, Tracer::off()).expect("fits any budget");
            assert_eq!(got, want);
            assert_eq!((ctx.fallbacks(), prof.spilled_bytes, disk.sim_seconds()), (0, 0, 0.0));
            assert_eq!((ctx.used(), disk.used(), ctx.hard_high_water()), (0, 0, 0));
        }
    }
}

/// Panic-safety audit (DESIGN.md §10): the `Reservation` RAII guard must
/// restore the full budget when an operator panics mid-query — the unwind
/// drops the guards, so the account drains to zero and keeps granting. A
/// grown reservation must release its grown size, not its original one.
#[test]
fn reservation_guard_restores_budget_when_an_operator_panics() {
    let ctx = QueryContext::with_budget(10_000);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut outer = ctx.reserve(4_000, "join build").expect("fits");
        assert!(outer.grow(1_000), "growth within budget succeeds");
        let _inner = ctx.reserve(2_000, "sort run").expect("fits");
        assert_eq!(ctx.used(), 7_000);
        panic!("operator blew up mid-query");
    }));
    assert!(result.is_err(), "the closure must actually panic");
    assert_eq!(ctx.used(), 0, "unwind must drop every guard and restore the budget");
    assert_eq!(ctx.high_water(), 7_000, "the peak survives as telemetry");

    // The account is not poisoned: the full budget grants again.
    let g = ctx.reserve(10_000, "post-panic").expect("full budget available after the panic");
    drop(g);
    assert_eq!(ctx.used(), 0);
}

/// Exhaustion is a typed error, not a poisoned engine: the failed run
/// releases everything and the same catalog answers the same query again.
#[test]
fn exhaustion_releases_the_budget_and_engine_stays_usable() {
    let cat = catalog();
    let q = query(1);
    let zero = QueryContext::with_budget(0);
    match run_governed(&q, &cat, &EngineConfig::serial(), &zero) {
        Err(EngineError::ResourceExhausted { budget: 0, requested, operator }) => {
            assert!(requested > 0, "the failing reservation asked for something");
            assert!(!operator.is_empty(), "the failing operator is named");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_eq!(zero.used(), 0, "failed run must release everything");

    let (a, _) =
        run_governed(&q, &cat, &EngineConfig::serial(), &QueryContext::new()).expect("fresh run");
    let (b, _) = run_governed(&q, &cat, &EngineConfig::serial(), &QueryContext::new())
        .expect("engine reusable");
    assert_eq!(a, b);
}
