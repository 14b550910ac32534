//! Repair × pruning interaction (DESIGN.md §12 + §14): a BitFlip repair
//! swaps column bytes through `Table::with_replaced_column`, which keeps the
//! integrity manifest (the stale manifest *detects* the swap) but drops the
//! zone maps (a stale summary over swapped bytes would silently mis-prune).
//! These tests pin that contract end to end: detection still fires through
//! a pruned scan, the repaired table answers bit-exactly with pruning
//! configured on (degrading to a full scan, never mis-pruning), and
//! re-sealing restores pruning without perturbing the answer.

use wimpi::engine::{EngineConfig, EngineError, QueryContext};
use wimpi::queries::{query, run_governed};
use wimpi::storage::integrity::flip_bits;
use wimpi::storage::Catalog;

const SF: f64 = 0.01;
const ZONE_CHUNK_ROWS: usize = 1024;

/// The clustered catalog (lineitem ordered by `l_shipdate`) with fine zone
/// maps and integrity manifests sealed on every table — the layout where Q6
/// actually prunes and every scan verifies.
fn sealed_catalog() -> Catalog {
    let mut cat = wimpi::tpch::clustered_catalog(SF).expect("clustered catalog generates");
    let names: Vec<String> = cat.names().map(String::from).collect();
    for name in names {
        let sealed = cat
            .table(&name)
            .unwrap()
            .as_ref()
            .clone()
            .with_zone_maps_at(ZONE_CHUNK_ROWS)
            .with_integrity();
        cat.register(&name, sealed);
    }
    cat
}

fn pruned_verified() -> EngineConfig {
    EngineConfig::serial().with_morsel_rows(4096).with_prune_scans(true).with_verify_checksums(true)
}

#[test]
fn bitflip_repair_drops_zones_and_resealing_restores_pruning_bit_exactly() {
    let cat = sealed_catalog();

    // Baseline: pruned + verified Q6 equals the unpruned answer, and the
    // clustered layout makes pruning non-vacuous.
    let (unpruned, _) = run_governed(
        &query(6),
        &cat,
        &EngineConfig::serial().with_verify_checksums(true),
        &QueryContext::default(),
    )
    .expect("unpruned baseline runs");
    let (baseline, base_prof) =
        run_governed(&query(6), &cat, &pruned_verified(), &QueryContext::default())
            .expect("pruned baseline runs");
    assert_eq!(baseline, unpruned, "pruning must be a no-op on answers");
    assert!(base_prof.pruned_morsels > 0, "clustered Q6 must actually skip morsels");

    // Corruption: flipped bits in l_quantity, swapped in through the repair
    // API. The swap must drop the zone maps (stale summaries would
    // mis-prune) and keep the manifest (stale checksums detect the swap).
    let clean = cat.table("lineitem").expect("registered");
    let qty = clean.schema().index_of("l_quantity").expect("column exists");
    let rows = clean.num_rows();
    let clean_col = clean.column(qty).as_ref().clone();
    let dirty_col = flip_bits(clean.column(qty).as_ref(), 0..rows, 2, 0xBAD5EED);
    let dirty = (**clean).clone().with_replaced_column(qty, dirty_col).expect("replace");
    assert!(dirty.zones().is_none(), "with_replaced_column must drop zone maps");
    assert!(dirty.manifest().is_some(), "with_replaced_column must keep the manifest");

    let mut corrupted = cat.clone();
    corrupted.register("lineitem", dirty);
    let err = run_governed(&query(6), &corrupted, &pruned_verified(), &QueryContext::default())
        .expect_err("verified scan must detect the flipped bits");
    match err {
        EngineError::Integrity { table, column, .. } => {
            assert_eq!((table.as_str(), column.as_str()), ("lineitem", "l_quantity"));
        }
        other => panic!("expected a typed integrity violation, got {other}"),
    }

    // Repair: the regenerated (clean) column swapped back in. Zones stay
    // dropped, so a pruning-enabled config degrades to a full scan — the
    // answer must be bit-exact with pruning *configured on* but nothing
    // actually pruned.
    let repaired = corrupted
        .table("lineitem")
        .expect("registered")
        .as_ref()
        .clone()
        .with_replaced_column(qty, clean_col)
        .expect("repair swap");
    assert!(repaired.zones().is_none(), "repair must not resurrect stale zone maps");
    let mut healed = cat.clone();
    healed.register("lineitem", repaired);
    let (after_repair, repair_prof) =
        run_governed(&query(6), &healed, &pruned_verified(), &QueryContext::default())
            .expect("repaired scan verifies clean");
    assert_eq!(after_repair, baseline, "repaired answer must be bit-exact");
    assert_eq!(
        repair_prof.pruned_morsels, 0,
        "no zones may mean no pruning — a stale-zone skip here would be a mis-prune"
    );

    // Re-seal: fresh zone maps over the repaired bytes restore pruning, and
    // the pruned answer still matches bit-exactly.
    let resealed = healed
        .table("lineitem")
        .expect("registered")
        .as_ref()
        .clone()
        .with_zone_maps_at(ZONE_CHUNK_ROWS);
    assert!(resealed.zones().is_some(), "re-sealing must rebuild zone maps");
    healed.register("lineitem", resealed);
    let (after_reseal, reseal_prof) =
        run_governed(&query(6), &healed, &pruned_verified(), &QueryContext::default())
            .expect("resealed scan runs");
    assert_eq!(after_reseal, baseline, "re-sealed pruned answer must be bit-exact");
    assert_eq!(
        reseal_prof.pruned_morsels, base_prof.pruned_morsels,
        "fresh zones over identical bytes must prune exactly as the baseline did"
    );
    assert_eq!(
        (reseal_prof.rows_in, reseal_prof.rows_out),
        (base_prof.rows_in, base_prof.rows_out),
        "pruning must never change operator row counts"
    );
}

#[test]
fn catalog_seal_zone_maps_reseals_only_tables_that_lost_their_zones() {
    // The catalog-level idiom the shell's `SET prune_scans = on` uses:
    // `seal_zone_maps` covers tables whose zones were dropped by repair
    // while leaving already-sealed tables' zone handles untouched.
    let mut cat = sealed_catalog();
    let orders_zones_before =
        cat.table("orders").expect("registered").zones().map(std::sync::Arc::as_ptr);

    let clean = cat.table("lineitem").expect("registered");
    let qty = clean.schema().index_of("l_quantity").expect("column exists");
    let col = clean.column(qty).as_ref().clone();
    let repaired = (**clean).clone().with_replaced_column(qty, col).expect("identity swap");
    cat.register("lineitem", repaired);
    assert!(cat.table("lineitem").unwrap().zones().is_none());

    cat.seal_zone_maps();
    assert!(cat.table("lineitem").unwrap().zones().is_some(), "lost zones get re-sealed");
    let orders_zones_after =
        cat.table("orders").expect("registered").zones().map(std::sync::Arc::as_ptr);
    assert_eq!(
        orders_zones_before, orders_zones_after,
        "tables with live zones keep their existing handle"
    );
}
