//! Criterion benchmarks for the engine's core operators on TPC-H data.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wimpi_engine::eval::Evaluator;
use wimpi_engine::expr::{col, date, dec2};
use wimpi_engine::plan::{AggExpr, PlanBuilder, SortKey};
use wimpi_engine::{
    exec, execute_query, execute_query_with, EngineConfig, QueryContext, Relation, Tracer,
    WorkProfile,
};
use wimpi_storage::Catalog;
use wimpi_tpch::Generator;

const SF: f64 = 0.05;

fn catalog() -> Catalog {
    Generator::new(SF).generate_catalog().expect("generation succeeds")
}

fn bench_operators(c: &mut Criterion) {
    let cat = catalog();
    let mut g = c.benchmark_group("operators");
    g.sample_size(10);

    g.bench_function("scan_filter_q6_predicates", |b| {
        let plan = PlanBuilder::scan("lineitem")
            .filter(
                col("l_shipdate")
                    .gte(date("1994-01-01"))
                    .and(col("l_shipdate").lt(date("1995-01-01")))
                    .and(col("l_quantity").lt(dec2("24"))),
            )
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        b.iter(|| black_box(execute_query(&plan, &cat).expect("runs")));
    });

    g.bench_function("hash_join_lineitem_orders", |b| {
        let plan = PlanBuilder::scan("lineitem")
            .inner_join(PlanBuilder::scan("orders"), vec![("l_orderkey", "o_orderkey")])
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        b.iter(|| black_box(execute_query(&plan, &cat).expect("runs")));
    });

    g.bench_function("group_by_two_dict_keys_q1_style", |b| {
        let plan = PlanBuilder::scan("lineitem")
            .aggregate(
                vec![(col("l_returnflag"), "f"), (col("l_linestatus"), "s")],
                vec![AggExpr::sum(col("l_quantity"), "q"), AggExpr::count_star("n")],
            )
            .build();
        b.iter(|| black_box(execute_query(&plan, &cat).expect("runs")));
    });

    // One group per order: the group map's hash-and-insert dominates.
    let by_orderkey = PlanBuilder::scan("lineitem")
        .aggregate(
            vec![(col("l_orderkey"), "k")],
            vec![AggExpr::sum(col("l_quantity"), "q"), AggExpr::count_star("n")],
        )
        .build();
    g.bench_function("hash_aggregate_high_cardinality", |b| {
        b.iter(|| black_box(execute_query(&by_orderkey, &cat).expect("runs")));
    });
    // The same aggregate degraded to Grace partitioning: 128 KiB holds about
    // 1 400 of its 75 000 group-table entries.
    g.bench_function("grace_aggregate_128k", |b| {
        b.iter(|| {
            let ctx = QueryContext::with_budget(128 << 10);
            let out = execute_query_with(
                &by_orderkey,
                &cat,
                &EngineConfig::serial(),
                &ctx,
                Tracer::off(),
            );
            assert!(ctx.fallbacks() > 0, "the budget must engage the Grace rung");
            black_box(out.expect("runs"))
        });
    });

    // Build on all of `orders`, probe with `customer`: the build dominates.
    g.bench_function("hash_join_build_probe_orders", |b| {
        let plan = PlanBuilder::scan("customer")
            .inner_join(PlanBuilder::scan("orders"), vec![("c_custkey", "o_custkey")])
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        b.iter(|| black_box(execute_query(&plan, &cat).expect("runs")));
    });

    g.bench_function("sort_orders_by_totalprice", |b| {
        let plan = PlanBuilder::scan("orders")
            .sort(vec![SortKey::desc("o_totalprice")])
            .limit(100)
            .build();
        b.iter(|| black_box(execute_query(&plan, &cat).expect("runs")));
    });

    g.bench_function("like_over_dictionary", |b| {
        let plan = PlanBuilder::scan("orders")
            .filter(col("o_comment").not_like("%special%requests%"))
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        b.iter(|| black_box(execute_query(&plan, &cat).expect("runs")));
    });

    // Full-column expression evaluation, as projections and aggregate inputs
    // run it. These two forms were the ones the bytecode VM ran slower than
    // the recursive interpreter it replaced, while it still filled `i64`
    // slots for the whole column and converted them in a second pass.
    let lineitem = Relation::from_table(cat.table("lineitem").expect("generated"), None)
        .expect("relation over lineitem");
    let case = col("l_discount").gt(dec2("0.05")).case(col("l_extendedprice"), dec2("0"));
    for (name, expr) in [("eval_case", case), ("eval_extract_year", col("l_shipdate").year())] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut prof = WorkProfile::new();
                black_box(Evaluator::new(&lineitem, &mut prof).eval(&expr).expect("evaluates"))
            });
        });
    }

    // Optimizer value: the same plan with and without optimization.
    g.bench_function("q3_optimized", |b| {
        let q = match wimpi_queries::query(3) {
            wimpi_queries::QueryPlan::Single(p) => p,
            _ => unreachable!(),
        };
        b.iter_batched(
            || q.clone(),
            |p| black_box(execute_query(&p, &cat).expect("runs")),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("q3_unoptimized", |b| {
        let q = match wimpi_queries::query(3) {
            wimpi_queries::QueryPlan::Single(p) => p,
            _ => unreachable!(),
        };
        b.iter(|| {
            let (cfg, ctx) = (EngineConfig::serial(), QueryContext::default());
            black_box(exec::execute(&q, &cat, &cfg, &ctx, Tracer::off()).expect("runs"))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_operators);
criterion_main!(benches);
