//! Zone-map pruning must be invisible in every answer.
//!
//! Two catalogs, both price lists of each run, threads 1/2/4:
//!
//! * an *unsealed* catalog (no zone maps) — `prune_scans` finds nothing to
//!   consult and must behave as a strict no-op;
//! * a *clustered, sealed* catalog (lineitem by `l_shipdate`, orders by
//!   `o_orderdate`) where pruning actively skips morsels — results must
//!   still be bit-identical to the pruning-off run, and the profile's
//!   `rows_in`/`rows_out` untouched (DESIGN.md §14).
//!
//! The choke-point subset runs in every build; the full 22-query sweep is
//! release-only (debug-build TPC-H generation plus 22 × 4 runs is too slow
//! for the tier-1 loop).

use wimpi_engine::{EngineConfig, QueryContext};
use wimpi_queries::{query, run_priced, CHOKEPOINT_QUERIES};
use wimpi_storage::Catalog;
use wimpi_tpch::{clustered_catalog, Generator};

const SF: f64 = 0.01;

fn assert_prune_invisible(
    cat: &Catalog,
    queries: &[usize],
    morsel_rows: usize,
    expect_skips_somewhere: bool,
) {
    let mut any_skipped = 0u64;
    for &qn in queries {
        let plan = query(qn);
        // Baseline shares the morsel grid: float reduction boundaries (and
        // thus bit-exactness) depend on it.
        let base = EngineConfig::serial().with_morsel_rows(morsel_rows);
        let (reference, ref_prices) = run_priced(&plan, cat, &base, &QueryContext::default())
            .unwrap_or_else(|e| panic!("Q{qn} baseline: {e}"));
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads)
                .with_morsel_rows(morsel_rows)
                .with_prune_scans(true);
            let (rel, prices) = run_priced(&plan, cat, &cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{qn} pruned: {e}"));
            assert_eq!(rel, reference, "Q{qn}: pruned at {threads} threads diverged");
            for ((list, prof), (_, ref_prof)) in prices.lists().into_iter().zip(ref_prices.lists())
            {
                assert_eq!(
                    (prof.rows_in, prof.rows_out),
                    (ref_prof.rows_in, ref_prof.rows_out),
                    "Q{qn}: pruning changed operator row counts ({list:?})"
                );
            }
            let (mat, fused) = (prices.materialize, prices.fused);
            assert_eq!(
                (mat.pruned_morsels, mat.pruned_bytes),
                (fused.pruned_morsels, fused.pruned_bytes),
                "Q{qn}: both lists prune the same"
            );
            any_skipped += mat.pruned_morsels;
            if cat.table("lineitem").unwrap().zones().is_none() {
                assert_eq!(
                    (mat.pruned_morsels, mat.pruned_bytes),
                    (0, 0),
                    "Q{qn}: no zone maps sealed, yet the profile claims pruning"
                );
            }
        }
    }
    if expect_skips_somewhere {
        assert!(any_skipped > 0, "clustered+sealed catalog never skipped a morsel");
    }
}

#[test]
fn pruning_is_a_noop_without_zone_maps() {
    let cat = Generator::new(SF).generate_catalog().expect("generates");
    assert_prune_invisible(&cat, &CHOKEPOINT_QUERIES, 65_536, false);
}

#[test]
fn active_pruning_keeps_chokepoint_answers_bit_exact() {
    // SF 0.01 lineitem is a single default-grid chunk; reseal zone maps on
    // a fine grid and shrink the engine's morsels so pruning really fires
    // (the bench covers the default grid at SF 0.1, where Q6 must skip
    // whole 64Ki-row morsels). Morsels of 4× the chunk grid also exercise
    // the union path in `range_over`/`presence_over`.
    let mut cat = clustered_catalog(SF).expect("clustered catalog generates");
    reseal_fine(&mut cat);
    assert_prune_invisible(&cat, &CHOKEPOINT_QUERIES, 4096, true);
}

#[test]
fn active_pruning_keeps_all_22_answers_bit_exact() {
    if cfg!(debug_assertions) {
        return; // release-only: the full sweep is ~20x the chokepoint cost
    }
    let mut cat = clustered_catalog(SF).expect("clustered catalog generates");
    reseal_fine(&mut cat);
    let all: Vec<usize> = (1..=22).collect();
    assert_prune_invisible(&cat, &all, 4096, true);
}

/// Re-seals every table's zone map on a grid small enough that SF 0.01
/// tables span many chunks.
fn reseal_fine(cat: &mut Catalog) {
    let names: Vec<String> = cat.names().map(String::from).collect();
    for name in names {
        let fine = cat.table(&name).unwrap().as_ref().clone().with_zone_maps_at(1024);
        cat.register(&name, fine);
    }
}
