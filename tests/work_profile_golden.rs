//! Exact work-count goldens, the float-sum fold and the form census.
//!
//! `sim_pi3b_s` is a pure function of the [`WorkProfile`], so a refactor
//! that moves a single `cpu_ops` unit changes the paper-facing numbers. The
//! benchmark catches that after the fact; this test catches it in tier-1:
//! every TPC-H query's profile under the three executor configurations the
//! repo ships is pinned in `tests/golden/work_profiles_sf001.tsv`.
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

use wimpi::engine::{EngineConfig, Executor, QueryContext, Span, WorkProfile};
use wimpi::queries::{query, run_governed, run_traced_governed};
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
    let fused = EngineConfig::serial().with_executor(Executor::Fused);
    let configs: [(&str, &Catalog, EngineConfig); 3] = [
        ("materialize", &raw, EngineConfig::serial()),
        ("fused", &raw, fused),
        ("fused+prune@clustered", &clustered, fused.with_morsel_rows(4096).with_prune_scans(true)),
    ];
    let mut lines = Vec::new();
    for qn in 1..=22 {
        let q = query(qn);
        for (name, cat, cfg) in &configs {
            let (_, prof) = run_governed(&q, cat, cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{qn} {name}: {e}"));
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

/// A float sum is exact only in the morsels it was cut in, so under a filter
/// the fold aggregates the filtered rows, gathered by the `Filter` operator,
/// under either price list: the answer bits are the materializing
/// operators', and so is the `Materialize` profile — zone-map pruning
/// included, the filter scanning the sealed table. Both are pinned from the
/// commit before the fold folded filters under both lists.
#[test]
fn a_float_sum_under_a_filter_folds_the_filtered_rows() {
    use wimpi::engine::{col, date, execute_query_with, lit, AggExpr, PlanBuilder, Tracer};

    let unit_price = col("l_extendedprice").div(col("l_quantity"));
    let run = |cat: &Catalog, filter, executor, pruned: bool| {
        let plan = PlanBuilder::scan("lineitem")
            .filter(filter)
            .aggregate(
                vec![(col("l_returnflag"), "f")],
                vec![AggExpr::sum(unit_price.clone(), "s")],
            )
            .build();
        let cfg = EngineConfig::serial().with_executor(executor);
        let cfg = if pruned { cfg.with_morsel_rows(4096).with_prune_scans(true) } else { cfg };
        let (rel, prof) =
            execute_query_with(&plan, cat, &cfg, &QueryContext::default(), Tracer::off())
                .expect("runs");
        let sums = rel.column("s").expect("the sum").as_f64().expect("a float sum");
        (sums.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(), prof)
    };
    let raw = wimpi::tpch::Generator::new(SF).generate_catalog().expect("generation succeeds");
    let cheap = || col("l_quantity").lt(lit(25i64));
    let (bits, prof) = run(&raw, cheap(), Executor::Materialize, false);
    assert_eq!(bits, [0x416313c87f5c290f, 0x41735ef4b8f5c280, 0x41638b59c7ffffef]);
    assert_eq!(
        row(&prof),
        "cpu_ops=233954,seq_read_bytes=1524196,seq_write_bytes=870956,rand_accesses=28953,\
         hash_bytes=192,rows_in=60236,rows_out=3,peak_bytes=579060"
    );
    assert_eq!(run(&raw, cheap(), Executor::Fused, false).0, bits);

    let clustered = clustered_fine();
    let early = || col("l_shipdate").lt(date("1993-01-01"));
    let (bits, prof) = run(&clustered, early(), Executor::Materialize, true);
    assert_eq!(bits, [0x4153cc41d51eb850, 0x4153f2f81eb851e8]);
    assert_eq!(
        row(&prof),
        "cpu_ops=60195,seq_read_bytes=329928,seq_write_bytes=258232,rand_accesses=7429,\
         hash_bytes=128,rows_in=60236,rows_out=2,pruned_morsels=13,pruned_bytes=224560,\
         peak_bytes=178296"
    );
    let (fused_bits, fused) = run(&clustered, early(), Executor::Fused, true);
    assert_eq!(fused_bits, bits);
    assert_eq!((fused.pruned_morsels, fused.pruned_bytes), (13, 224560), "the same pruning");
}

/// The labels of every join `build` and aggregate `partials` stage span under
/// `span`, in plan order: which form each join and aggregate took.
fn form_labels(span: &Span, out: &mut Vec<String>) {
    if span.op == "build" || span.op == "partials" {
        out.push(span.label.clone());
    }
    for child in &span.children {
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

/// Which form every join (`cursor` / `offsets` / `hash`) and every aggregate
/// (`runs` / `hash`) of the 22 queries takes on the raw, key-ordered catalog,
/// in plan order (inputs before the operator that consumes them). The forms
/// are read off the key vectors at run time, so nothing but this census stops
/// a change of generator, plan or operator from silently sending a query back
/// to hashing — which the benchmark would only report as "slower". The price
/// list decides no form (`trace_spans.rs` checks it), so one census does.
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

const PINNED_FORMS: [&str; 22] = [
    "Q1: hash",
    "Q2: offsets offsets offsets hash offsets offsets hash runs cursor",
    "Q3: hash cursor runs",
    "Q4: offsets hash",
    "Q5: offsets cursor offsets hash hash hash",
    "Q6: runs",
    "Q7: cursor offsets offsets offsets offsets hash",
    "Q8: hash cursor offsets offsets hash offsets offsets hash",
    "Q9: hash offsets hash cursor offsets hash",
    "Q10: cursor offsets offsets hash",
    "Q11: offsets hash runs offsets hash runs",
    "Q12: cursor hash",
    "Q13: offsets runs hash",
    "Q14: offsets runs",
    "Q15: hash runs hash cursor",
    "Q16: cursor offsets hash",
    "Q17: hash hash runs cursor runs",
    "Q18: runs cursor cursor offsets runs",
    "Q19: offsets runs",
    "Q20: offsets cursor hash hash offsets",
    "Q21: cursor offsets offsets runs cursor runs cursor hash",
    "Q22: runs offsets hash",
];
