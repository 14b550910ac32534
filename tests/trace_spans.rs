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
use wimpi::engine::{
    col, lit, AggExpr, EngineConfig, PlanBuilder, QueryContext, Relation, Span, Tracer, WorkProfile,
};
use wimpi::queries::{query, run_governed, run_priced, run_traced_governed, QueryPlan};
use wimpi::sql::{execute_sql_with, strip_explain_analyze};
use wimpi::storage::{Catalog, Column, DataType, Field, Schema, Table};
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
    for qn in TRACED {
        let spans: Vec<_> = [1, 2, 4]
            .iter()
            .map(|&t| {
                let cfg = EngineConfig::with_threads(t);
                run_traced_governed(&query(qn), &cat, &cfg, &QueryContext::default())
                    .expect("traced run")
                    .2
            })
            .collect();
        for (i, s) in spans.iter().enumerate().skip(1) {
            assert!(
                s.structure_eq(&spans[0]),
                "Q{qn}: trace structure diverged between 1 and {} threads:\n{}\nvs\n{}",
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

/// One conjunct loop, one `predicates` leaf: a filter reports the rows each
/// of its conjuncts examined — the per-conjunct selectivity — and has no
/// per-conjunct children.
#[test]
fn predicates_leaf_labels_each_conjuncts_examined_rows() {
    let cat = catalog();
    let lineitem = cat.table("lineitem").expect("generated").num_rows() as u64;
    let cfg = EngineConfig::with_threads(2).with_morsel_rows(4096);
    let (_, _, span) =
        run_traced_governed(&query(6), &cat, &cfg, &QueryContext::default()).expect("traced run");
    let mut labels = Vec::new();
    labels_of(&span, "predicates", &mut labels);
    let mut evals = Vec::new();
    labels_of(&span, "eval", &mut evals);
    assert_eq!((labels.len(), evals.len()), (1, 0), "Q6:\n{}", span.render());
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

/// The governor's high-water mark, scratch peak, fallbacks and largest
/// fan-out after a run.
type Governed = (u64, u64, u32, u32);

/// A traced run's answer, reported profile, span-tree `shape`, and what the
/// governor recorded.
type Traced = (Relation, WorkProfile, String, Governed);

/// One traced run of `plan` under `budget` and `cfg`.
fn traced(plan: &QueryPlan, cat: &Catalog, budget: Option<u64>, cfg: &EngineConfig) -> Traced {
    let ctx = budget.map_or_else(QueryContext::default, QueryContext::with_budget);
    let (rel, prof, span) = run_traced_governed(plan, cat, cfg, &ctx).expect("runs");
    let mut tree = String::new();
    shape(&span, 0, &mut tree);
    (rel, prof, tree, governed(&ctx))
}

fn governed(ctx: &QueryContext) -> Governed {
    (ctx.high_water(), ctx.hard_high_water(), ctx.fallbacks(), ctx.max_fallback_parts())
}

/// An aggregate over a filter whose group table outgrows [`PERMUTED_BUDGET`]:
/// 50 000 permuted keys, nine in ten rows kept.
fn permuted_keys() -> (QueryPlan, Catalog) {
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
    (QueryPlan::Single(plan), keyed)
}

const PERMUTED_BUDGET: u64 = 64 << 10;

/// `cfg.executor` decides only which price list a single-profile API
/// reports: under either list a query runs the same operators over the same
/// rows — the same answer, the same span tree, the same governor high-water
/// mark and scratch peak, the same descents down the ladder — and the
/// profile it reports is that list's entry in the pair one run prices.
/// Covers the 22 queries and the permuted keys under 64 KiB.
#[test]
fn price_list_changes_no_execution_decision() {
    let check = |what: &str, plan: &QueryPlan, cat: &Catalog, budget: Option<u64>| {
        let ctx = budget.map_or_else(QueryContext::default, QueryContext::with_budget);
        let (_, prices) = run_priced(plan, cat, &EngineConfig::serial(), &ctx).expect("runs");
        let [(rel, tree, marks), (fused_rel, fused_tree, fused_marks)] =
            prices.lists().map(|(list, want)| {
                let cfg = EngineConfig { executor: list, ..EngineConfig::serial() };
                let (rel, prof, tree, marks) = traced(plan, cat, budget, &cfg);
                assert_eq!(prof, want, "{what}: {list:?} reports its entry in the pair");
                (rel, tree, marks)
            });
        assert_eq!(fused_rel, rel, "{what}: answers");
        assert_eq!(fused_tree, tree, "{what}: span trees\n{tree}\nvs\n{fused_tree}");
        assert_eq!(fused_marks, marks, "{what}: high water, scratch peak, fallbacks, fan-out");
        assert_eq!(governed(&ctx), marks, "{what}: the pair's run decides the same");
        marks
    };
    let cat = catalog();
    for qn in 1..=22 {
        check(&format!("Q{qn}"), &query(qn), &cat, None);
    }
    let (plan, keyed) = permuted_keys();
    let (_, _, fallbacks, _) = check("permuted keys", &plan, &keyed, Some(PERMUTED_BUDGET));
    assert!(fallbacks > 0, "the merged table must really exceed the budget");
}

/// The paper list's `peak_bytes` counts the survivors' gather an aggregate
/// fold stands in for, on top of what the query holds; the governor tracks
/// only what the query holds. Serial Q1 at SF 0.01 leaves one high-water mark
/// under either `cfg.executor` — the fused list's peak — below the paper
/// list's pinned 2 614 348 B.
#[test]
fn the_governor_tracks_only_what_a_query_holds() {
    let cat = catalog();
    let serial = EngineConfig::serial();
    let (_, prices) = run_priced(&query(1), &cat, &serial, &QueryContext::default()).expect("runs");
    assert_eq!(prices.materialize.peak_bytes, 2_614_348, "the golden's paper-list peak");
    let marks = prices.lists().map(|(list, _)| {
        let ctx = QueryContext::default();
        let cfg = EngineConfig { executor: list, ..serial };
        run_governed(&query(1), &cat, &cfg, &ctx).expect("Q1 runs");
        ctx.high_water()
    });
    assert_eq!(marks[0], marks[1], "one high-water mark under either list");
    assert_eq!(marks[0], prices.fused.peak_bytes, "the fused list's peak is the held peak");
    assert!(marks[0] < prices.materialize.peak_bytes, "{} B", marks[0]);
}

/// A budget changes no execution decision either: the aggregate over budget
/// still folds its filter — one `predicates` leaf, no `filter` span — and
/// the ladder partitions the groups of the fold's partials, so its span tree
/// is the unbudgeted run's and so is its answer.
#[test]
fn an_aggregate_over_budget_still_folds_its_filter() {
    let (plan, keyed) = permuted_keys();
    let serial = EngineConfig::serial();
    let (rel, _, tree, (.., fallbacks, _)) = traced(&plan, &keyed, Some(PERMUTED_BUDGET), &serial);
    let (free_rel, _, free_tree, _) = traced(&plan, &keyed, None, &serial);
    assert!(fallbacks > 0 && rel == free_rel, "over budget, the same answer");
    assert_eq!(tree, free_tree, "span trees\n{tree}\nvs\n{free_tree}");
    assert!(!tree.contains("filter["), "no filter span\n{tree}");
    assert_eq!(tree.matches("predicates[").count(), 1, "{tree}");
}

/// A budget changes no join decision either: a join whose probe a bitset
/// of its build keys filters partitions only the candidates down the ladder,
/// so under a budget that forces Grace the span tree, `bits: N` labels
/// included, is the unbudgeted run's, and so is the answer. Under 4 KiB, Q9
/// degrades its `partsupp` join and its aggregate, while its filtered
/// `lineitem ⋈ part` fits; Q3's filtered `customer ⋈ orders` (a 4 640 B
/// hash table) degrades itself.
#[test]
fn a_join_over_budget_still_filters_its_probe() {
    let cat = catalog();
    for (qn, filtered) in
        [(9, &["probe[bits: 3156]"][..]), (3, &["probe[bits: 261]", "probe[bits: 1387]"])]
    {
        let (plan, serial) = (query(qn), EngineConfig::serial());
        let (rel, _, tree, (.., fallbacks, _)) = traced(&plan, &cat, Some(4 << 10), &serial);
        let (free_rel, _, free_tree, (.., free_fallbacks, _)) = traced(&plan, &cat, None, &serial);
        let what = format!("Q{qn}");
        assert!(fallbacks > 0 && free_fallbacks == 0, "{what}: the budget forces Grace");
        assert!(rel == free_rel, "{what}: over budget, the same answer");
        assert_eq!(tree, free_tree, "{what}: span trees\n{tree}\nvs\n{free_tree}");
        for label in filtered {
            assert_eq!(tree.matches(label).count(), 1, "{what}: {label}\n{tree}");
        }
    }
}

/// Q1's four groups are a compact key domain, and the `partials` label is
/// the fold's, which a budget does not touch: under a budget that sends the
/// merge down the ladder the span tree is the unbudgeted one, structure and
/// counters alike, and both read `partials[compact]`.
#[test]
fn q1_is_compact_at_any_budget() {
    let cat = catalog();
    let run = |ctx: &QueryContext| {
        run_traced_governed(&query(1), &cat, &EngineConfig::serial(), ctx).expect("Q1 runs")
    };
    let (free_rel, _, free) = run(&QueryContext::default());
    // Two of Q1's 320-byte group entries.
    let ctx = QueryContext::with_budget(640);
    let (rel, _, budgeted) = run(&ctx);
    assert!(ctx.fallbacks() > 0, "the budget forces Grace");
    assert_eq!(rel, free_rel, "over budget, the same answer");
    assert!(budgeted.structure_eq(&free), "{}\nvs\n{}", budgeted.render(), free.render());
    for span in [&free, &budgeted] {
        let mut forms = Vec::new();
        labels_of(span, "partials", &mut forms);
        assert_eq!(forms, ["compact"], "{}", span.render());
    }
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
