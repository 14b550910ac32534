//! Property-based tests for the TPC-H generator: spec invariants must hold
//! for arbitrary scale factors and chunkings.

use proptest::prelude::*;
use std::collections::HashSet;
use wimpi::tpch::gen::{chunk_range, order_key_for_index, suppliers_of_part};
use wimpi::tpch::Generator;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chunk ranges partition [0, total) exactly, for any chunking.
    #[test]
    fn chunks_partition_exactly(total in 0u64..5_000_000, nchunks in 1u64..64) {
        let mut cursor = 0;
        for c in 0..nchunks {
            let (lo, hi) = chunk_range(total, c, nchunks);
            prop_assert_eq!(lo, cursor);
            prop_assert!(hi >= lo);
            cursor = hi;
        }
        prop_assert_eq!(cursor, total);
    }

    /// Order keys are strictly increasing in the row index and use exactly
    /// 8 of every 32 key values (spec §4.2.3 sparseness).
    #[test]
    fn order_keys_sparse_and_monotone(idx in 0u64..10_000_000) {
        let k = order_key_for_index(idx);
        let next = order_key_for_index(idx + 1);
        prop_assert!(next > k);
        // Key offsets within a 32-block are 1..=8.
        prop_assert!((1..=8).contains(&((k - 1) % 32 + 1)));
    }

    /// The four suppliers of any part are distinct and in range, for any
    /// plausible supplier count.
    #[test]
    fn part_suppliers_distinct(partkey in 1i64..1_000_000, suppliers in 4i64..50_000) {
        let s = suppliers_of_part(partkey, suppliers);
        let set: HashSet<i64> = s.iter().copied().collect();
        prop_assert_eq!(set.len(), 4, "suppliers {:?}", s);
        prop_assert!(s.iter().all(|&x| (1..=suppliers).contains(&x)));
    }
}

proptest! {
    // Generation is expensive: few cases, tiny SFs.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Foreign keys hold at any tiny scale factor: every lineitem references
    /// an existing order, part, and (part, supplier) pair.
    #[test]
    fn referential_integrity(sf_millis in 1u64..6) {
        let sf = sf_millis as f64 / 1000.0;
        let g = Generator::new(sf);
        let cat = g.generate_catalog().expect("generates");
        let orders = cat.table("orders").expect("orders");
        let okeys: HashSet<i64> = orders
            .column_by_name("o_orderkey").expect("col")
            .as_i64().expect("i64").iter().copied().collect();
        let ps = cat.table("partsupp").expect("partsupp");
        let ps_pairs: HashSet<(i64, i64)> = {
            let p = ps.column_by_name("ps_partkey").expect("col");
            let p = p.as_i64().expect("i64");
            let s = ps.column_by_name("ps_suppkey").expect("col");
            let s = s.as_i64().expect("i64");
            p.iter().copied().zip(s.iter().copied()).collect()
        };
        let li = cat.table("lineitem").expect("lineitem");
        let lo = li.column_by_name("l_orderkey").expect("col");
        let lo = lo.as_i64().expect("i64");
        let lp = li.column_by_name("l_partkey").expect("col");
        let lp = lp.as_i64().expect("i64");
        let ls = li.column_by_name("l_suppkey").expect("col");
        let ls = ls.as_i64().expect("i64");
        for i in 0..li.num_rows() {
            prop_assert!(okeys.contains(&lo[i]), "dangling orderkey {}", lo[i]);
            prop_assert!(
                ps_pairs.contains(&(lp[i], ls[i])),
                "lineitem ({}, {}) not stocked per partsupp",
                lp[i], ls[i]
            );
        }
        // Every order has at least one lineitem (1–7 per spec).
        let li_orders: HashSet<i64> = lo.iter().copied().collect();
        prop_assert_eq!(li_orders.len(), orders.num_rows());
    }

    /// Generation is deterministic: same SF → identical bytes.
    #[test]
    fn generation_deterministic(sf_millis in 1u64..4) {
        let sf = sf_millis as f64 / 1000.0;
        let a = Generator::new(sf).generate_catalog().expect("generates");
        let b = Generator::new(sf).generate_catalog().expect("generates");
        for name in ["lineitem", "orders", "customer"] {
            let ta = a.table(name).expect("table");
            let tb = b.table(name).expect("table");
            prop_assert_eq!(ta.num_rows(), tb.num_rows());
            for col in 0..ta.num_columns() {
                prop_assert_eq!(
                    ta.column(col).as_ref(), tb.column(col).as_ref(),
                    "{} column {} differs", name, col
                );
            }
        }
    }
}

#[test]
fn decimal_domains_follow_spec() {
    let cat = Generator::new(0.005).generate_catalog().expect("generates");
    let li = cat.table("lineitem").expect("lineitem");
    let (qty, s) = {
        let c = li.column_by_name("l_quantity").expect("col");
        let (m, s) = c.as_decimal().expect("dec");
        (m.to_vec(), s)
    };
    assert_eq!(s, 2);
    assert!(qty.iter().all(|&q| (100..=5000).contains(&q)), "quantity in [1, 50]");
    let disc = li.column_by_name("l_discount").expect("col");
    let (disc, _) = disc.as_decimal().expect("dec");
    assert!(disc.iter().all(|&d| (0..=10).contains(&d)), "discount in [0.00, 0.10]");
    let tax = li.column_by_name("l_tax").expect("col");
    let (tax, _) = tax.as_decimal().expect("dec");
    assert!(tax.iter().all(|&t| (0..=8).contains(&t)), "tax in [0.00, 0.08]");
}

#[test]
fn date_windows_follow_spec() {
    let cat = Generator::new(0.005).generate_catalog().expect("generates");
    let orders = cat.table("orders").expect("orders");
    let od = orders.column_by_name("o_orderdate").expect("col");
    let od = od.as_date().expect("date");
    let lo = wimpi::storage::Date32::from_ymd(1992, 1, 1).0;
    let hi = wimpi::storage::Date32::from_ymd(1998, 8, 2).0;
    assert!(od.iter().all(|&d| (lo..=hi).contains(&d)));
}

/// The generator's bytes, pinned: one CRC32C per table over its codes,
/// dictionary values and numeric column bytes, at two scale factors, in
/// `tests/golden/catalog.tsv`. A change to how the generator builds a column
/// (how it interns strings, say) must leave every line as it is; a change
/// that moves a line on purpose re-blesses the file with
/// `WIMPI_BLESS_GOLDEN=1 cargo test --test tpch_properties generated_catalog`
/// and says in CHANGES.md what moved and why.
#[test]
fn generated_catalog_matches_the_pinned_checksums() {
    use wimpi::storage::checksum::Crc32c;
    use wimpi::storage::Column;

    const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/catalog.tsv");
    let mut lines = Vec::new();
    for sf in [0.01, 0.05] {
        let cat = Generator::new(sf).generate_catalog().expect("generates");
        let mut names: Vec<&str> = cat.names().collect();
        names.sort_unstable();
        for name in names {
            let table = cat.table(name).expect("table");
            let mut crc = Crc32c::new();
            for (i, field) in table.schema().fields().iter().enumerate() {
                match table.column(i).as_ref() {
                    Column::Int64(v) | Column::Decimal(v, _) => {
                        v.iter().for_each(|&x| crc.update_u64(x as u64))
                    }
                    Column::Int32(v) | Column::Date(v) => {
                        v.iter().for_each(|&x| crc.update_u32(x as u32))
                    }
                    Column::Float64(v) => v.iter().for_each(|&x| crc.update_u64(x.to_bits())),
                    Column::Bool(v) => v.iter().for_each(|&x| crc.update(&[x as u8])),
                    Column::Str(d) => {
                        let distinct: HashSet<&str> =
                            d.values().iter().map(String::as_str).collect();
                        assert_eq!(
                            distinct.len(),
                            d.cardinality(),
                            "{name}.{}: repeated value",
                            field.name
                        );
                        let used: HashSet<u32> = d.codes().iter().copied().collect();
                        assert_eq!(
                            used.len(),
                            d.cardinality(),
                            "{name}.{}: unused value",
                            field.name
                        );
                        for v in d.values() {
                            crc.update_u32(v.len() as u32);
                            crc.update(v.as_bytes());
                        }
                        d.codes().iter().for_each(|&c| crc.update_u32(c));
                    }
                }
            }
            lines.push(format!("{sf}\t{name}\t{}\t{:08x}", table.num_rows(), crc.finish()));
        }
    }
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("WIMPI_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "generated catalog drifted from the pinned checksums");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden row count");
}
