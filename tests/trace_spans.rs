//! Operator-trace invariants: a trace is an *audit* of the work profile,
//! not a parallel bookkeeping system that can drift from it.
//!
//! Three properties, checked end to end through the public surfaces:
//!
//! 1. The root span's inclusive counters equal the query's [`WorkProfile`]
//!    exactly (tracing observes execution; it never re-derives costs).
//! 2. The span tree's *structure* — operators, rows, counters, morsel
//!    children — is identical at every thread count; only wall times and
//!    worker ids may differ (see `Span::structure_eq`).
//! 3. The emitted JSON round-trips through `wimpi-core`'s independent
//!    hand-rolled checker, including the Σ self == root-total invariant.

use wimpi::core::validate_trace_json;
use wimpi::engine::{EngineConfig, Executor, QueryContext, Span, Tracer};
use wimpi::queries::{query, run_governed, run_traced_governed};
use wimpi::sql::{execute_sql_with, strip_explain_analyze};
use wimpi::storage::Catalog;
use wimpi::tpch::Generator;

const SF: f64 = 0.01;

/// Q1 (agg-heavy), Q6 (filter-heavy), Q9 (join-heavy), Q15 (two-phase
/// scalar subquery — the synthetic `query[two-phase]` root).
const TRACED: [usize; 4] = [1, 6, 9, 15];

fn catalog() -> Catalog {
    Generator::new(SF).generate_catalog().expect("generation succeeds")
}

#[test]
fn root_span_counters_equal_work_profile() {
    let cat = catalog();
    for qn in TRACED {
        let (_, prof, span) = run_traced_governed(
            &query(qn),
            &cat,
            &EngineConfig::serial(),
            &QueryContext::default(),
        )
        .unwrap_or_else(|e| panic!("Q{qn} traces: {e}"));
        assert_eq!(
            span.counters,
            prof.counter_pairs(),
            "Q{qn}: root span counters must be the work profile, verbatim"
        );
        assert_eq!(span.rows_out, prof.rows_out, "Q{qn}: root rows_out");
        assert!(span.len() > 1, "Q{qn}: trace must have operator children");
    }
}

#[test]
fn tracing_never_changes_results_or_profiles() {
    let cat = catalog();
    for qn in TRACED {
        let cfg = EngineConfig::with_threads(2);
        let (rel0, prof0) =
            run_governed(&query(qn), &cat, &cfg, &QueryContext::default()).expect("untraced run");
        let (rel, prof, _) = run_traced_governed(&query(qn), &cat, &cfg, &QueryContext::default())
            .expect("traced run");
        assert_eq!(rel, rel0, "Q{qn}: tracing changed the result");
        assert_eq!(prof, prof0, "Q{qn}: tracing changed the work profile");
    }
}

#[test]
fn trace_structure_is_thread_count_invariant() {
    let cat = catalog();
    for (qn, executor) in
        TRACED.iter().flat_map(|&qn| [(qn, Executor::Materialize), (qn, Executor::Fused)])
    {
        let spans: Vec<_> = [1, 2, 4]
            .iter()
            .map(|&t| {
                let cfg = EngineConfig::with_threads(t).with_executor(executor);
                run_traced_governed(&query(qn), &cat, &cfg, &QueryContext::default())
                    .expect("traced run")
                    .2
            })
            .collect();
        for (i, s) in spans.iter().enumerate().skip(1) {
            assert!(
                s.structure_eq(&spans[0]),
                "Q{qn} {executor:?}: trace structure diverged between 1 and {} threads:\n{}\nvs\n{}",
                [1, 2, 4][i],
                spans[0].render(),
                s.render()
            );
        }
    }
}

fn labels_of(span: &Span, op: &str, out: &mut Vec<String>) {
    if span.op == op {
        out.push(span.label.clone());
    }
    span.children.iter().for_each(|child| labels_of(child, op, out));
}

/// One conjunct loop, one `predicates` leaf: under either executor a filter
/// reports the rows each of its conjuncts examined — the per-conjunct
/// selectivity — and the materializing filter has no per-conjunct children.
#[test]
fn predicates_leaf_labels_each_conjuncts_examined_rows() {
    let cat = catalog();
    let lineitem = cat.table("lineitem").expect("generated").num_rows() as u64;
    let mut labels = Vec::new();
    for executor in [Executor::Materialize, Executor::Fused] {
        let cfg = EngineConfig::with_threads(2).with_morsel_rows(4096).with_executor(executor);
        let (_, _, span) = run_traced_governed(&query(6), &cat, &cfg, &QueryContext::default())
            .expect("traced run");
        let mut leaves = Vec::new();
        labels_of(&span, "predicates", &mut leaves);
        let mut evals = Vec::new();
        labels_of(&span, "eval", &mut evals);
        assert_eq!((leaves.len(), evals.len()), (1, 0), "Q6 {executor:?}:\n{}", span.render());
        labels.push(leaves.remove(0));
    }
    assert_eq!(labels[0], labels[1], "the same loop examines the same rows");
    let (count, flow) = labels[0].split_once(" conjuncts: ").expect("`N conjuncts: a → b`");
    let rows: Vec<u64> = flow.split(" → ").map(|r| r.parse().expect("a row count")).collect();
    assert_eq!(rows.len(), count.parse::<usize>().unwrap(), "{}", labels[0]);
    assert_eq!(rows[0], lineitem, "the first conjunct scans every row: {}", labels[0]);
    assert!(rows.windows(2).all(|w| w[0] >= w[1]), "candidates only shrink: {}", labels[0]);
}

/// One line per span, `op[label] rows_in→rows_out`, indented by depth: the
/// trace with its counters and wall times left out.
fn shape(span: &Span, depth: usize, out: &mut String) {
    let line = format!(
        "{}{}[{}] {}→{}\n",
        "  ".repeat(depth),
        span.op,
        span.label,
        span.rows_in,
        span.rows_out
    );
    out.push_str(&line);
    span.children.iter().for_each(|child| shape(child, depth + 1, out));
}

/// `Executor` is a price list and nothing else: under either one a query
/// runs the same operators over the same rows — the same answer, the same
/// span tree, the same operator scratch and the same descents down the
/// ladder. Covers the 22 queries and an aggregate over a filter whose group
/// table outgrows its budget (the fold then runs its filter dense).
#[test]
fn price_list_changes_no_execution_decision() {
    use wimpi::engine::{col, lit, AggExpr, PlanBuilder};
    use wimpi::queries::QueryPlan;
    use wimpi::storage::{Column, DataType, Field, Schema, Table};

    let run = |plan: &QueryPlan, cat: &Catalog, budget: Option<u64>, executor| {
        let ctx = budget.map_or_else(QueryContext::default, QueryContext::with_budget);
        let cfg = EngineConfig::serial().with_executor(executor);
        let (rel, _, span) = run_traced_governed(plan, cat, &cfg, &ctx).expect("runs");
        let mut tree = String::new();
        shape(&span, 0, &mut tree);
        let governed = (ctx.hard_high_water(), ctx.fallbacks(), ctx.max_fallback_parts());
        (rel, tree, governed)
    };
    let both = |what: &str, plan: &QueryPlan, cat: &Catalog, budget| {
        let (rel, tree, governed) = run(plan, cat, budget, Executor::Materialize);
        let (fused_rel, fused_tree, fused_governed) = run(plan, cat, budget, Executor::Fused);
        assert_eq!(fused_rel, rel, "{what}: answers");
        assert_eq!(fused_tree, tree, "{what}: span trees\n{tree}\nvs\n{fused_tree}");
        assert_eq!(fused_governed, governed, "{what}: scratch peak, fallbacks, fan-out");
        governed
    };
    let cat = catalog();
    for qn in 1..=22 {
        both(&format!("Q{qn}"), &query(qn), &cat, None);
    }

    let n = 50_000i64;
    let mut keyed = Catalog::new();
    let table = Table::new(
        Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]),
        vec![
            Column::Int64((0..n).map(|i| i * 7919 % n).collect()),
            Column::Int64((0..n).map(|i| i * 3 % 101).collect()),
        ],
    )
    .expect("table builds");
    keyed.register("t", table);
    let plan = PlanBuilder::scan("t")
        .filter(col("v").lt(lit(90i64)))
        .aggregate(vec![(col("k"), "k")], vec![AggExpr::sum(col("v"), "s")])
        .build();
    let plan = QueryPlan::Single(plan);
    let (_, fallbacks, _) = both("permuted keys under 64 KiB", &plan, &keyed, Some(64 << 10));
    assert!(fallbacks > 0, "the merged table must really exceed the budget");
}

#[test]
fn emitted_json_passes_the_independent_checker() {
    let cat = catalog();
    for qn in TRACED {
        let (_, _, span) = run_traced_governed(
            &query(qn),
            &cat,
            &EngineConfig::with_threads(4),
            &QueryContext::default(),
        )
        .expect("traced run");
        let stats = validate_trace_json(&span.to_json())
            .unwrap_or_else(|e| panic!("Q{qn} trace rejected: {e}"));
        assert_eq!(stats.spans, span.len(), "Q{qn}: checker span count");
    }
}

#[test]
fn pruned_counters_reconcile_through_the_trace_checker() {
    // Zone-map pruning surfaces `pruned_morsels`/`pruned_bytes` through the
    // generic counter pairs; the root span must still equal the profile
    // verbatim and the emitted JSON must satisfy the independent checker's
    // Σ self == root-total invariant — with skips actually firing.
    // Re-seal on a fine grid: SF 0.01 lineitem fits one default-grid chunk.
    let mut cat = wimpi::tpch::clustered_catalog(SF).expect("clustered catalog generates");
    let names: Vec<String> = cat.names().map(String::from).collect();
    for name in names {
        let fine = cat.table(&name).unwrap().as_ref().clone().with_zone_maps_at(1024);
        cat.register(&name, fine);
    }
    for qn in [6, 14] {
        let cfg = EngineConfig::with_threads(2).with_morsel_rows(4096).with_prune_scans(true);
        let (rel, prof, span) =
            run_traced_governed(&query(qn), &cat, &cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{qn} traces pruned: {e}"));
        let (rel0, _) =
            run_governed(&query(qn), &cat, &cfg.with_prune_scans(false), &QueryContext::default())
                .expect("baseline");
        assert_eq!(rel, rel0, "Q{qn}: pruning changed the traced result");
        assert_eq!(span.counters, prof.counter_pairs(), "Q{qn}: root counters == profile");
        validate_trace_json(&span.to_json()).unwrap_or_else(|e| panic!("Q{qn} rejected: {e}"));
    }
    // Non-vacuous: the clustered fine-morsel Q6 really skipped work.
    let cfg = EngineConfig::with_threads(2).with_morsel_rows(4096).with_prune_scans(true);
    let (_, prof, _) =
        run_traced_governed(&query(6), &cat, &cfg, &QueryContext::default()).expect("traced run");
    assert!(prof.pruned_morsels > 0, "Q6 must skip morsels on the clustered catalog");
}

#[test]
fn spill_ledgers_reconcile_across_disk_profile_and_trace() {
    // A query pushed past Grace onto a fault-injecting spill disk (torn
    // views, bit flips and stragglers, one roll in eight each) keeps three
    // ledgers of the same events: the disk's own counters, the work
    // profile's spill fields, and the traced root span. They must agree
    // counter for counter, every detected corruption must have been retried
    // exactly once, and none of it may change a byte of the answer.
    use std::sync::Arc;
    use wimpi::storage::spill::{SpillConfig, SpillDisk, SpillFaults};

    let cat = catalog();
    let mut corruptions = 0;
    // Budgets under which each query's largest build spills at SF 0.01.
    for (qn, budget) in [(3usize, 2u64 << 10), (13, 1 << 10), (14, 64)] {
        let (baseline, _) =
            run_governed(&query(qn), &cat, &EngineConfig::serial(), &QueryContext::default())
                .expect("baseline");
        // At ≈ 0.23 failures per read attempt, 17 attempts make a permanent
        // failure astronomically unlikely while retries stay common.
        let disk = Arc::new(SpillDisk::new(
            SpillConfig::with_capacity(256 << 20)
                .with_faults(SpillFaults::every(42 + qn as u64, 8))
                .with_max_read_retries(16),
        ));
        let ctx = QueryContext::with_budget(budget).with_spill(Arc::clone(&disk));
        let (rel, prof, span) =
            run_traced_governed(&query(qn), &cat, &EngineConfig::serial(), &ctx)
                .unwrap_or_else(|e| panic!("Q{qn} at budget {budget}: {e}"));
        assert_eq!(rel, baseline, "Q{qn}: spilled answer must be bit-exact");
        let d = disk.counters();
        assert!(d.spilled_bytes > 0, "Q{qn} at budget {budget} must actually spill");
        for (name, profv, diskv) in [
            ("spilled_bytes", prof.spilled_bytes, d.spilled_bytes),
            ("spill_read_retries", prof.spill_read_retries, d.read_retries),
            ("spill_corruptions_detected", prof.spill_corruptions_detected, d.corruptions_detected),
        ] {
            assert_eq!(profv, diskv, "Q{qn}: profile {name} must equal the disk ledger");
            assert_eq!(span.counter(name), profv, "Q{qn}: root span {name} must equal the profile");
        }
        assert_eq!(d.read_retries, d.corruptions_detected, "Q{qn}: one retry per corruption");
        assert_eq!(disk.used(), 0, "Q{qn}: all spill capacity must be freed");
        validate_trace_json(&span.to_json()).unwrap_or_else(|e| panic!("Q{qn} rejected: {e}"));
        corruptions += d.corruptions_detected;
    }
    assert!(corruptions > 0, "the fault plan must have corrupted at least one spill read");
}

#[test]
fn explain_analyze_traces_sql() {
    let cat = catalog();
    let sql = "EXPLAIN ANALYZE SELECT l_returnflag, count(*) AS n \
               FROM lineitem GROUP BY l_returnflag";
    let inner = strip_explain_analyze(sql).expect("prefix recognized");
    let tracer = Tracer::enabled();
    let (cfg, ctx) = (EngineConfig::serial(), QueryContext::default());
    let (rel, prof) =
        execute_sql_with(inner, &cat, &cfg, &ctx, &tracer).expect("explain analyze runs");
    let span = tracer.take_root().expect("an enabled tracer yields a root span");
    assert_eq!(rel.num_rows() as u64, prof.rows_out);
    assert_eq!(span.counters, prof.counter_pairs());
    let text = span.render();
    assert!(text.contains("aggregate"), "span tree names the aggregate:\n{text}");
    assert!(text.contains("scan[lineitem]"), "span tree names the scan:\n{text}");
}
