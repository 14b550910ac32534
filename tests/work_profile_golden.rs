//! Exact work-count goldens, the float-sum fold and the form census.
//!
//! `sim_pi3b_s` is a pure function of the [`WorkProfile`], so a refactor
//! that moves a single `cpu_ops` unit changes the paper-facing numbers. The
//! benchmark catches that after the fact; this test catches it in tier-1:
//! every TPC-H query's profile in the three configurations the repo ships
//! is pinned in `tests/golden/work_profiles_sf001.tsv`: both price lists of
//! one run on the raw catalog, and the fused list of one pruned run on the
//! clustered catalog.
//!
//! The file was generated at the commit *before* the materializing
//! operators moved onto the bytecode VM (PR 16), so it is the recursive
//! interpreter's charge model that is pinned, not the VM's own. Two rows
//! were re-blessed by that PR on purpose: Q22 under `fused` and
//! `fused+prune`, which used to fall back to the materializing operators at
//! its three `SUBSTR` sites (and so repeated the `materialize` row) and now
//! runs fused. Regenerate the file only when a charge is changed on purpose:
//! `WIMPI_BLESS_GOLDEN=1 cargo test --test work_profile_golden -- --nocapture`
//! prints, per re-blessed row, the counters that moved (paste them into
//! CHANGES.md with the reason).

use std::collections::{BTreeMap, BTreeSet};

use wimpi::engine::{EngineConfig, QueryContext, Span, WorkProfile};
use wimpi::queries::{query, run_priced, run_traced_governed};
use wimpi::storage::Catalog;

const SF: f64 = 0.01;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/work_profiles_sf001.tsv");

/// The clustered catalog resealed on a 1024-row zone grid (SF 0.01
/// `lineitem` is a single chunk of the default grid), so the pruned
/// configuration really skips morsels at 4096-row morsels.
fn clustered_fine() -> Catalog {
    let mut cat = wimpi::tpch::clustered_catalog(SF).expect("clustered catalog generates");
    let names: Vec<String> = cat.names().map(String::from).collect();
    for name in names {
        let fine = cat.table(&name).unwrap().as_ref().clone().with_zone_maps_at(1024);
        cat.register(&name, fine);
    }
    cat
}

#[test]
fn work_profiles_match_the_pinned_goldens() {
    let raw = wimpi::tpch::Generator::new(SF).generate_catalog().expect("generation succeeds");
    let clustered = clustered_fine();
    let pruning = EngineConfig::serial().with_morsel_rows(4096).with_prune_scans(true);
    let mut lines = Vec::new();
    for qn in 1..=22 {
        let q = query(qn);
        let priced = |cat, cfg| {
            run_priced(&q, cat, cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{qn}: {e}"))
                .1
        };
        let (both, pruned) = (priced(&raw, &EngineConfig::serial()), priced(&clustered, &pruning));
        for (name, prof) in [
            ("materialize", both.materialize),
            ("fused", both.fused),
            ("fused+prune@clustered", pruned.fused),
        ] {
            lines.push(format!("Q{qn}\t{name}\t{}", row(&prof)));
        }
    }
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("WIMPI_BLESS_GOLDEN").is_some() {
        // Say what moved, one line per re-blessed row, for CHANGES.md.
        let old = std::fs::read_to_string(GOLDEN).unwrap_or_default();
        for (was, now) in old.lines().zip(actual.lines()).filter(|(was, now)| was != now) {
            println!("{}", moved(was, now));
        }
        std::fs::write(GOLDEN, &actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "work profile drifted from the pinned golden");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden row count");
}

/// The `name=value` counters of one golden row, by name (a counter at zero
/// is left out of the row).
fn counters(row: &str) -> BTreeMap<&str, &str> {
    let pairs = row.rsplit('\t').next().unwrap_or("").split(',');
    pairs.filter_map(|pair| pair.split_once('=')).collect()
}

/// What a re-blessed row changed: `Q18 fused: rand_accesses 120472 → 60236`.
fn moved(was: &str, now: &str) -> String {
    let (old, new) = (counters(was), counters(now));
    let names: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    let value = |of: &BTreeMap<&str, &str>, name| of.get(name).copied().unwrap_or("0").to_string();
    let moves: Vec<String> = names
        .into_iter()
        .filter(|name| old.get(name) != new.get(name))
        .map(|name| format!("{name} {} → {}", value(&old, name), value(&new, name)))
        .collect();
    let head: Vec<&str> = now.split('\t').take(2).collect();
    format!("{}: {}", head.join(" "), moves.join(", "))
}

/// A golden row's counters: `name=value`, comma-separated, zeros left out.
fn row(prof: &WorkProfile) -> String {
    let counters: Vec<String> =
        prof.counter_pairs().iter().map(|(k, v)| format!("{k}={v}")).collect();
    counters.join(",")
}

/// A float sum under a filter folds the filter like every aggregate: its
/// partials are cut in the base table's morsels, so its bits follow
/// `morsel_rows` and never the thread count. The paper list is still the
/// materializing operators' — the gathers charged from counts, zone-map
/// pruning included, the filter scanning the sealed table — pinned from the
/// commit before the fold folded filters under both lists. The bits were
/// re-pinned when the fold stopped gathering a float sum's filtered rows
/// first (CHANGES.md).
#[test]
fn a_float_sum_under_a_filter_is_cut_in_base_table_morsels() {
    use wimpi::engine::{
        col, date, execute_priced, lit, optimizer, AggExpr, PlanBuilder, Prices, Tracer,
    };

    let unit_price = col("l_extendedprice").div(col("l_quantity"));
    let run = |cat: &Catalog, filter, threads, pruned: bool| -> (Vec<u64>, Prices) {
        let plan = PlanBuilder::scan("lineitem")
            .filter(filter)
            .aggregate(
                vec![(col("l_returnflag"), "f")],
                vec![AggExpr::sum(unit_price.clone(), "s")],
            )
            .build();
        let cfg = EngineConfig::with_threads(threads).with_morsel_rows(4096);
        let cfg = cfg.with_prune_scans(pruned);
        let plan = optimizer::optimize(plan, cat).expect("optimizes");
        let (rel, prices) =
            execute_priced(&plan, cat, &cfg, &QueryContext::default(), Tracer::off())
                .expect("runs");
        let sums = rel.column("s").expect("the sum").as_f64().expect("a float sum");
        (sums.iter().map(|s| s.to_bits()).collect(), prices)
    };
    let raw = wimpi::tpch::Generator::new(SF).generate_catalog().expect("generation succeeds");
    let cheap = || col("l_quantity").lt(lit(25i64));
    let (bits, prices) = run(&raw, cheap(), 1, false);
    assert_eq!(bits, [0x416313c87f5c28f4, 0x41735ef4b8f5c28e, 0x41638b59c8000000]);
    assert_eq!(
        row(&prices.materialize),
        "cpu_ops=233954,seq_read_bytes=1524196,seq_write_bytes=870956,rand_accesses=28953,\
         hash_bytes=192,rows_in=60236,rows_out=3,peak_bytes=579060"
    );
    assert_eq!(run(&raw, cheap(), 2, false), (bits, prices), "at 2 threads");

    let clustered = clustered_fine();
    let early = || col("l_shipdate").lt(date("1993-01-01"));
    let (bits, prices) = run(&clustered, early(), 1, true);
    assert_eq!(bits, [0x4153cc41d51eb850, 0x4153f2f81eb851e8]);
    assert_eq!(
        row(&prices.materialize),
        "cpu_ops=60195,seq_read_bytes=329928,seq_write_bytes=258232,rand_accesses=7429,\
         hash_bytes=128,rows_in=60236,rows_out=2,pruned_morsels=13,pruned_bytes=224560,\
         peak_bytes=178296"
    );
    let fused = prices.fused;
    assert_eq!((fused.pruned_morsels, fused.pruned_bytes), (13, 224560), "the same pruning");
    assert_eq!(run(&clustered, early(), 2, true), (bits, prices), "at 2 threads");
}

/// The form of every join and aggregate under `span`, in plan order: the
/// label of each aggregate's `partials` stage span, and of each join's `build`
/// stage span — with `+bits` when its `probe` sibling reports a filter.
fn form_labels(span: &Span, out: &mut Vec<String>) {
    if span.op == "partials" {
        out.push(span.label.clone());
    }
    for (i, child) in span.children.iter().enumerate() {
        if child.op == "build" {
            let probe = &span.children[i + 1];
            assert_eq!(probe.op, "probe", "a join's build is followed by its probe");
            let filter = if probe.label.starts_with("bits: ") { "+bits" } else { "" };
            out.push(format!("{}{filter}", child.label));
        }
        form_labels(child, out);
    }
}

fn forms_of(qn: usize, cat: &Catalog) -> String {
    let (_, _, span) =
        run_traced_governed(&query(qn), cat, &EngineConfig::serial(), &QueryContext::default())
            .expect("traced run");
    let mut labels = Vec::new();
    form_labels(&span, &mut labels);
    labels.join(" ")
}

/// Which form every join (`cursor` / `offsets` / `hash`, each `+bits` when a
/// bitset of its build keys filters its probe) and every aggregate (`runs` /
/// `compact` / `hash`) of the 22 queries takes on the raw, key-ordered
/// catalog, in plan order (inputs before the operator that consumes them).
/// Forms and filters are read off the key vectors at run time, so nothing but
/// this census stops a change of generator, plan or operator from silently
/// sending a query back to hashing — which the benchmark would only report as
/// "slower". The price list decides no form (`trace_spans.rs` checks it), so
/// one census does.
#[test]
fn every_join_and_aggregate_takes_its_pinned_form() {
    let raw = wimpi::tpch::Generator::new(SF).generate_catalog().expect("generation succeeds");
    let census: Vec<String> = (1..=22).map(|qn| format!("Q{qn}: {}", forms_of(qn, &raw))).collect();
    assert_eq!(census, PINNED_FORMS, "\n{}", census.join("\n"));

    // The clustered catalog orders `lineitem` by `l_shipdate`: the plans
    // pinned above as `runs` over `l_orderkey` (Q18's first aggregate, both
    // of Q21's) must find no order there, and hash.
    let clustered = wimpi::tpch::clustered_catalog(SF).expect("clustered catalog generates");
    assert!(forms_of(18, &clustered).starts_with("hash "));
    assert!(!forms_of(21, &clustered).contains("runs"));
}

/// Zone-map pruning skips bytes, never a decision: on the clustered catalog
/// at 1 024-row zones and 4 096-row morsels, each of the 22 queries gives the
/// same answer, every join and aggregate takes the same form, and the
/// governor records the same scratch peak, fallbacks and fan-out with
/// `prune_scans` as without.
#[test]
fn pruning_changes_no_execution_decision() {
    let clustered = clustered_fine();
    let cfg = EngineConfig::serial().with_morsel_rows(4096);
    for qn in 1..=22 {
        let [pruned, unpruned] = [true, false].map(|prune| {
            let ctx = QueryContext::default();
            let (rel, _, span) =
                run_traced_governed(&query(qn), &clustered, &cfg.with_prune_scans(prune), &ctx)
                    .unwrap_or_else(|e| panic!("Q{qn}: {e}"));
            let mut forms = Vec::new();
            form_labels(&span, &mut forms);
            (rel, forms, (ctx.hard_high_water(), ctx.fallbacks(), ctx.max_fallback_parts()))
        });
        assert!(pruned.0 == unpruned.0, "Q{qn}: answers");
        assert_eq!(pruned.1, unpruned.1, "Q{qn}: forms");
        assert_eq!(pruned.2, unpruned.2, "Q{qn}: scratch peak, fallbacks, fan-out");
    }
}

const PINNED_FORMS: [&str; 22] = [
    "Q1: compact",
    "Q2: offsets offsets offsets+bits hash+bits offsets offsets+bits hash+bits runs cursor",
    "Q3: hash+bits cursor+bits runs",
    "Q4: offsets compact",
    "Q5: offsets cursor+bits offsets hash+bits hash+bits compact",
    "Q6: runs",
    "Q7: cursor+bits offsets offsets offsets offsets compact",
    "Q8: hash+bits cursor offsets offsets hash+bits offsets offsets compact",
    "Q9: hash+bits offsets hash cursor offsets compact",
    "Q10: cursor+bits offsets offsets hash",
    "Q11: offsets hash+bits runs offsets hash+bits runs",
    "Q12: cursor compact",
    "Q13: offsets+bits runs compact",
    "Q14: offsets runs",
    "Q15: compact runs compact cursor",
    "Q16: cursor+bits offsets hash",
    "Q17: hash hash runs cursor runs",
    "Q18: runs cursor cursor offsets runs",
    "Q19: offsets runs",
    "Q20: offsets cursor+bits hash hash offsets",
    "Q21: cursor+bits offsets offsets runs cursor runs cursor compact",
    "Q22: runs offsets compact",
];
