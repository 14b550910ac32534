//! Physical clustering: re-ordering a generated table on a sort key.
//!
//! The raw TPC-H layout emits `l_shipdate` (and the other date columns) in
//! key order, which spreads every date uniformly across the file — a
//! per-morsel min/max summary then spans the whole domain and zone-map
//! pruning can never skip anything. Real ingest pipelines land data in
//! arrival (≈ date) order, so the prune benchmark clusters `lineitem` by
//! `l_shipdate` to restore that locality before sealing zone maps
//! (DESIGN.md §14). Clustering is a pure row permutation: every query
//! result is bit-identical to the unclustered catalog's.

use std::cmp::Ordering;

use wimpi_storage::morsel::{pool_workers, run_each};
use wimpi_storage::{Catalog, Column, Result, StorageError, Table};

use crate::gen::Generator;

/// A copy of `table` with its rows stably re-ordered so `column` ascends,
/// each column gathered by a task on the pool.
///
/// The stable argsort keeps equal-key rows in their original relative
/// order, so the permutation — and thus every sealed summary over it — is
/// deterministic. Seals (integrity manifest, zone maps) are *not* carried
/// over: the caller re-seals the permuted bytes.
pub fn cluster_by(table: &Table, column: &str) -> Result<Table> {
    if table.num_rows() > u32::MAX as usize {
        return Err(StorageError::LengthMismatch {
            left: table.num_rows(),
            right: u32::MAX as usize,
        });
    }
    let order = match table.column_by_name(column)?.as_ref() {
        Column::Int64(v) | Column::Decimal(v, _) => stable_order(v.iter().copied(), i64::cmp),
        Column::Int32(v) | Column::Date(v) => stable_order(v.iter().copied(), i32::cmp),
        Column::Bool(v) => stable_order(v.iter().copied(), bool::cmp),
        Column::Float64(v) => stable_order(v.iter().copied(), f64::total_cmp),
        Column::Str(d) => stable_order(d.iter(), <&str>::cmp),
    };
    // The outputs are allocated here; the pool's tasks gather a column each.
    let mut columns: Vec<Column> =
        (0..table.num_columns()).map(|j| table.column(j).zeroed_like(order.len())).collect();
    let outputs = columns.iter_mut().enumerate().collect();
    run_each(pool_workers(), outputs, |(j, out)| table.column(j).take_into(&order, out));
    Table::new(table.schema().as_ref().clone(), columns)
}

/// The row ids in ascending key order, equal keys in row order: the stable
/// argsort. It sorts `(key, row)` pairs stably by key, so a comparison reads
/// its keys in place rather than loading them through row ids. The ids are
/// copied out into a vector of their own (collecting in place would keep
/// the pairs' allocation alive through the gather that follows).
fn stable_order<K>(keys: impl Iterator<Item = K>, cmp: impl Fn(&K, &K) -> Ordering) -> Vec<u32> {
    let mut pairs: Vec<(K, u32)> = keys.zip(0u32..).collect();
    pairs.sort_by(|a, b| cmp(&a.0, &b.0));
    pairs.iter().map(|&(_, row)| row).collect()
}

/// The single-node catalog with `lineitem` clustered by `l_shipdate` and
/// `orders` by `o_orderdate`, then sealed (integrity + zone maps) — the
/// layout the scan-pruning benchmark and CI smoke run against.
pub fn clustered_catalog(sf: f64) -> Result<Catalog> {
    let mut cat = Generator::new(sf).generate_catalog()?;
    for (name, key) in [("lineitem", "l_shipdate"), ("orders", "o_orderdate")] {
        let sorted = cluster_by(cat.table(name)?, key)?;
        cat.register(name, sorted);
    }
    cat.seal_integrity();
    cat.seal_zone_maps();
    Ok(cat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_is_a_stable_permutation() {
        let gen = Generator::new(0.001);
        let (_, lineitem) = gen.orders_lineitem().unwrap();
        let sorted = cluster_by(&lineitem, "l_shipdate").unwrap();
        assert_eq!(sorted.num_rows(), lineitem.num_rows());

        // Sorted key, and the multiset of every column is preserved — spot
        // check via per-column sums that a permutation cannot change.
        let dates = match sorted.column_by_name("l_shipdate").unwrap().as_ref() {
            Column::Date(v) => v.clone(),
            other => panic!("unexpected type {:?}", other.data_type()),
        };
        assert!(dates.windows(2).all(|w| w[0] <= w[1]), "l_shipdate must ascend");
        for j in 0..lineitem.num_columns() {
            let (a, b) = (lineitem.column(j), sorted.column(j));
            let sum = |c: &Column| -> i128 {
                match c {
                    Column::Int64(v) => v.iter().map(|&x| x as i128).sum(),
                    Column::Decimal(v, _) => v.iter().map(|&x| x as i128).sum(),
                    Column::Date(v) => v.iter().map(|&x| x as i128).sum(),
                    Column::Str(d) => (0..d.len()).map(|i| d.get(i).len() as i128).sum(),
                    _ => 0,
                }
            };
            assert_eq!(sum(a), sum(b), "column {j} multiset changed");
        }

        // Determinism: clustering twice yields identical bytes.
        let again = cluster_by(&lineitem, "l_shipdate").unwrap();
        for j in 0..sorted.num_columns() {
            assert_eq!(sorted.column(j), again.column(j));
        }
    }

    #[test]
    fn pair_sort_equals_the_stable_argsort() {
        // Keys with many ties, in every order the row ids must break.
        let keys: Vec<i64> = (0..5000u64).map(|i| ((i * 7919) % 13) as i64 - 6).collect();
        let mut want: Vec<u32> = (0..keys.len() as u32).collect();
        want.sort_by_key(|&i| keys[i as usize]);
        assert_eq!(stable_order(keys.iter().copied(), i64::cmp), want);

        let floats = [0.5, -0.0, f64::NAN, 0.0, -1.5, 0.5, f64::INFINITY, -0.0, -f64::NAN];
        let mut want: Vec<u32> = (0..floats.len() as u32).collect();
        want.sort_by(|&a, &b| floats[a as usize].total_cmp(&floats[b as usize]));
        let table = |col: Column| {
            let schema =
                wimpi_storage::Schema::new(vec![wimpi_storage::Field::new("k", col.data_type())]);
            Table::new(schema, vec![col]).unwrap()
        };
        let sorted = cluster_by(&table(Column::Float64(floats.to_vec())), "k").unwrap();
        let want_f: Vec<u64> = want.iter().map(|&i| floats[i as usize].to_bits()).collect();
        let got_f: Vec<u64> =
            sorted.column(0).as_f64().unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got_f, want_f);

        let words = ["pear", "fig", "apple", "fig", "kiwi", "apple", "pear", "fig"];
        let col = Column::Str(words.iter().copied().collect());
        let sorted = cluster_by(&table(col.clone()), "k").unwrap();
        let mut want: Vec<u32> = (0..words.len() as u32).collect();
        want.sort_by_key(|&i| words[i as usize]);
        assert_eq!(sorted.column(0).as_ref(), &col.take(&want));
    }

    #[test]
    fn clustered_catalog_is_sealed_and_sorted() {
        let cat = clustered_catalog(0.001).unwrap();
        let li = cat.table("lineitem").unwrap();
        assert!(li.zones().is_some(), "clustered catalog seals zone maps");
        assert!(li.manifest().is_some(), "and integrity manifests");
        let dates = match li.column_by_name("l_shipdate").unwrap().as_ref() {
            Column::Date(v) => v.clone(),
            other => panic!("unexpected type {:?}", other.data_type()),
        };
        assert!(dates.windows(2).all(|w| w[0] <= w[1]), "l_shipdate must ascend");
    }

    #[test]
    fn any_worker_count_clusters_and_seals_the_same_bytes() {
        use wimpi_storage::morsel::with_pool_workers;
        // SF 0.02: 120 000 lineitem rows, two morsel-aligned chunks.
        let serial = with_pool_workers(1, || clustered_catalog(0.02).unwrap());
        for workers in [2, 3, 4] {
            let cat = with_pool_workers(workers, || clustered_catalog(0.02).unwrap());
            for name in serial.names() {
                let (a, b) = (cat.table(name).unwrap(), serial.table(name).unwrap());
                assert_eq!(a.schema(), b.schema(), "{name} at {workers} workers");
                for ci in 0..a.num_columns() {
                    assert_eq!(a.column(ci), b.column(ci), "{name} column {ci} at {workers}");
                }
                assert_eq!(a.manifest(), b.manifest(), "{name} manifest at {workers} workers");
                assert_eq!(a.zones(), b.zones(), "{name} zone map at {workers} workers");
                assert!(a.manifest().is_some() && a.zones().is_some(), "{name} is sealed");
            }
        }
    }

    #[test]
    fn clustering_tightens_zone_ranges() {
        // Re-seal on a fine grid so even tiny test data spans many chunks:
        // after clustering, one chunk covers a sliver of the date domain.
        let gen = Generator::new(0.001);
        let (_, lineitem) = gen.orders_lineitem().unwrap();
        let sorted = cluster_by(&lineitem, "l_shipdate").unwrap().with_zone_maps_at(512);
        let zones = sorted.zones().unwrap();
        let full =
            zones.range_over("l_shipdate", 0..sorted.num_rows()).expect("date ranges sealed");
        let chunk = zones.range_over("l_shipdate", 0..512).expect("first chunk range");
        assert!(
            chunk.1 - chunk.0 < (full.1 - full.0) / 2,
            "a clustered chunk must span a fraction of the domain: {chunk:?} vs {full:?}"
        );
    }
}
