//! Exact work-count goldens and the fused-fallback census.
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
//! `WIMPI_BLESS_GOLDEN=1 cargo test --test work_profile_golden`.

use wimpi::engine::{EngineConfig, Executor, QueryContext, Span};
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
            let counters: Vec<String> =
                prof.counter_pairs().iter().map(|(k, v)| format!("{k}={v}")).collect();
            lines.push(format!("Q{qn}\t{name}\t{}", counters.join(",")));
        }
    }
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("WIMPI_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "work profile drifted from the pinned golden");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden row count");
}

fn fallback_labels(span: &Span, out: &mut Vec<String>) {
    if span.op == "fallback" {
        out.push(span.label.clone());
    }
    for child in &span.children {
        fallback_labels(child, out);
    }
}

/// Under `Executor::Fused` the only reason left to run the materializing
/// operators is an aggregate with no slot form; over the 22 queries that is
/// Q2's `min` and Q15's `max`, nothing else.
#[test]
fn only_q2_and_q15_fall_back_under_fused() {
    let cat = wimpi::tpch::Generator::new(SF).generate_catalog().expect("generation succeeds");
    let cfg = EngineConfig::serial().with_executor(Executor::Fused);
    let mut census = Vec::new();
    for qn in 1..=22 {
        let (_, _, span) = run_traced_governed(&query(qn), &cat, &cfg, &QueryContext::default())
            .expect("traced fused run");
        let mut labels = Vec::new();
        fallback_labels(&span, &mut labels);
        for label in labels {
            census.push((qn, label));
        }
    }
    assert_eq!(
        census,
        [
            (2, "aggregate has no slot form: min".to_string()),
            (15, "aggregate has no slot form: max".to_string()),
        ]
    );
}
