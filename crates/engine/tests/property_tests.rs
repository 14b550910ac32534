//! Property-based tests over the engine's operators: decimal arithmetic
//! through the evaluator, join/aggregate identities on arbitrary data.

use proptest::prelude::*;
use std::sync::Arc;
use wimpi_engine::expr::{col, lit};
use wimpi_engine::plan::{AggExpr, JoinType, PlanBuilder, SortKey};
use wimpi_engine::{execute_query, Relation};
use wimpi_storage::{Catalog, Column, DataType, Field, Schema, Table, Value};

fn table_from(keys: Vec<i64>, vals: Vec<i64>) -> Table {
    Table::new(
        Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]),
        vec![Column::Int64(keys), Column::Int64(vals)],
    )
    .expect("table builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter + count == direct count of matching elements.
    #[test]
    fn filter_count_matches_oracle(vals in prop::collection::vec(-50i64..50, 1..300),
                                   threshold in -50i64..50) {
        let n = vals.len();
        let mut cat = Catalog::new();
        cat.register("t", table_from((0..n as i64).collect(), vals.clone()));
        let plan = PlanBuilder::scan("t")
            .filter(col("v").gt(lit(threshold)))
            .aggregate(vec![], vec![AggExpr::count_star("n")])
            .build();
        let (r, _) = execute_query(&plan, &cat).expect("runs");
        let expected = vals.iter().filter(|&&v| v > threshold).count() as i64;
        prop_assert_eq!(r.column("n").expect("col").as_i64().expect("i64")[0], expected);
    }

    /// Grouped sums partition the global sum, whatever the grouping.
    #[test]
    fn group_sums_partition_total(rows in prop::collection::vec((0i64..5, -100i64..100), 1..300)) {
        let (keys, vals): (Vec<i64>, Vec<i64>) = rows.into_iter().unzip();
        let total: i64 = vals.iter().sum();
        let mut cat = Catalog::new();
        cat.register("t", table_from(keys, vals));
        let plan = PlanBuilder::scan("t")
            .aggregate(vec![(col("k"), "k")], vec![AggExpr::sum(col("v"), "s")])
            .build();
        let (r, _) = execute_query(&plan, &cat).expect("runs");
        let grouped: i64 = r.column("s").expect("col").as_i64().expect("i64").iter().sum();
        prop_assert_eq!(grouped, total);
    }

    /// Semi + anti join partition the probe side for any key sets.
    #[test]
    fn semi_anti_partition(left in prop::collection::vec(0i64..20, 0..200),
                           right in prop::collection::vec(0i64..20, 0..200)) {
        let mut cat = Catalog::new();
        let ln = left.len();
        cat.register("l", table_from(left, vec![0; ln]));
        let rn = right.len();
        cat.register(
            "r",
            Table::new(
                Schema::new(vec![Field::new("rk", DataType::Int64)]),
                vec![Column::Int64(right)],
            ).expect("table builds"),
        );
        let _ = rn;
        let semi = PlanBuilder::scan("l")
            .join(PlanBuilder::scan("r"), vec![("k", "rk")], JoinType::Semi)
            .build();
        let anti = PlanBuilder::scan("l")
            .join(PlanBuilder::scan("r"), vec![("k", "rk")], JoinType::Anti)
            .build();
        let (s, _) = execute_query(&semi, &cat).expect("runs");
        let (a, _) = execute_query(&anti, &cat).expect("runs");
        prop_assert_eq!(s.num_rows() + a.num_rows(), ln);
    }

    /// Sorting is a permutation and is ordered.
    #[test]
    fn sort_is_ordered_permutation(vals in prop::collection::vec(-1000i64..1000, 1..300)) {
        let n = vals.len();
        let mut cat = Catalog::new();
        cat.register("t", table_from((0..n as i64).collect(), vals.clone()));
        let plan = PlanBuilder::scan("t").sort(vec![SortKey::asc("v")]).build();
        let (r, _) = execute_query(&plan, &cat).expect("runs");
        let sorted = r.column("v").expect("col");
        let sorted = sorted.as_i64().expect("i64");
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut expected = vals.clone();
        expected.sort_unstable();
        let mut actual = sorted.to_vec();
        actual.sort_unstable();
        prop_assert_eq!(actual, expected);
    }

    /// Inner-join cardinality equals the key-frequency dot product.
    #[test]
    fn join_cardinality_oracle(left in prop::collection::vec(0i64..8, 0..100),
                               right in prop::collection::vec(0i64..8, 0..100)) {
        let expected: usize = (0..8)
            .map(|k| {
                left.iter().filter(|&&x| x == k).count()
                    * right.iter().filter(|&&x| x == k).count()
            })
            .sum();
        let mut cat = Catalog::new();
        let ln = left.len();
        cat.register("l", table_from(left, vec![0; ln]));
        cat.register(
            "r",
            Table::new(
                Schema::new(vec![Field::new("rk", DataType::Int64)]),
                vec![Column::Int64(right)],
            ).expect("table builds"),
        );
        let plan = PlanBuilder::scan("l")
            .inner_join(PlanBuilder::scan("r"), vec![("k", "rk")])
            .build();
        let (r, _) = execute_query(&plan, &cat).expect("runs");
        prop_assert_eq!(r.num_rows(), expected);
    }

    /// take() over a relation preserves per-row cell identity.
    #[test]
    fn relation_take_preserves_cells(vals in prop::collection::vec(-100i64..100, 1..100),
                                     picks in prop::collection::vec(any::<prop::sample::Index>(), 0..50)) {
        let n = vals.len();
        let rel = Relation::new(vec![
            ("v".to_string(), Arc::new(Column::Int64(vals.clone()))),
        ]).expect("relation builds");
        let sel: Vec<u32> = picks.iter().map(|ix| ix.index(n) as u32).collect();
        let taken = rel.take(&sel);
        for (out_row, &src) in sel.iter().enumerate() {
            prop_assert_eq!(
                taken.value(out_row, "v").expect("cell"),
                Value::I64(vals[src as usize])
            );
        }
    }
}

/// Ground-truth LIKE: exponential recursive descent over chars. Obviously
/// correct, unusably slow on big inputs — which is why `like_match` exists.
fn naive_like(text: &[char], pattern: &[char]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => (0..=text.len()).any(|i| naive_like(&text[i..], rest)),
        Some(('_', rest)) => !text.is_empty() && naive_like(&text[1..], rest),
        Some((c, rest)) => text.first() == Some(c) && naive_like(&text[1..], rest),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `like_match` (iterative, backtracking, with an ASCII byte fast path)
    /// agrees with the naive recursive reference on every ASCII input. The
    /// generator's `c`/`d` become `%`/`_` in the pattern only, so texts also
    /// contain characters the pattern can never match literally.
    #[test]
    fn like_matches_naive_reference_ascii(text in "[a-d]{0,8}", raw in "[a-d]{0,8}") {
        let pattern: String =
            raw.chars().map(|c| match c { 'c' => '%', 'd' => '_', c => c }).collect();
        let expected = naive_like(
            &text.chars().collect::<Vec<_>>(),
            &pattern.chars().collect::<Vec<_>>(),
        );
        prop_assert_eq!(wimpi_engine::like::like_match(&text, &pattern), expected,
            "text={:?} pattern={:?}", text, pattern);
    }

    /// Same agreement off the ASCII fast path: `b` maps to a multi-byte
    /// char in both text and pattern, forcing the char-wise slow path.
    #[test]
    fn like_matches_naive_reference_unicode(text in "[a-d]{0,8}", raw in "[a-d]{0,8}") {
        let widen = |s: &str, wild: bool| -> String {
            s.chars()
                .map(|c| match c {
                    'b' => 'é',
                    'c' if wild => '%',
                    'd' if wild => '_',
                    c => c,
                })
                .collect()
        };
        let text = widen(&text, false);
        let pattern = widen(&raw, true);
        let expected = naive_like(
            &text.chars().collect::<Vec<_>>(),
            &pattern.chars().collect::<Vec<_>>(),
        );
        prop_assert_eq!(wimpi_engine::like::like_match(&text, &pattern), expected,
            "text={:?} pattern={:?}", text, pattern);
    }
}

/// Builds a [`wimpi_engine::WorkProfile`] from two sampled 4-tuples (the
/// proptest shim's tuple strategies cap at four elements).
#[allow(clippy::type_complexity)]
fn profile_from(
    ((cpu, sr, sw, ra), (hb, ri, ro, nb)): ((u64, u64, u64, u64), (u64, u64, u64, u64)),
) -> wimpi_engine::WorkProfile {
    wimpi_engine::WorkProfile {
        cpu_ops: cpu,
        seq_read_bytes: sr,
        seq_write_bytes: sw,
        rand_accesses: ra,
        hash_bytes: hb,
        rows_in: ri,
        rows_out: ro,
        network_bytes: nb,
        pruned_morsels: 0,
        pruned_bytes: 0,
        peak_bytes: 0,
        spilled_bytes: 0,
        spill_read_retries: 0,
        spill_corruptions_detected: 0,
    }
}

type CounterRanges =
    (std::ops::Range<u64>, std::ops::Range<u64>, std::ops::Range<u64>, std::ops::Range<u64>);

/// Full-width counters so saturating sums are exercised routinely.
fn arb_counters() -> (CounterRanges, CounterRanges) {
    (
        (0..u64::MAX, 0..u64::MAX, 0..u64::MAX, 0..u64::MAX),
        (0..u64::MAX, 0..u64::MAX, 0..u64::MAX, 0..u64::MAX),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The morsel kernels reduce per-worker profiles with `merge`; any
    /// reduction tree must give the same total, so `merge` has to be
    /// associative and commutative — including at the u64 saturation
    /// boundary, which full-width counters reach on roughly half the cases.
    #[test]
    fn work_profile_merge_associative_commutative(a in arb_counters(),
                                                  b in arb_counters(),
                                                  c in arb_counters()) {
        let (a, b, c) = (profile_from(a), profile_from(b), profile_from(c));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);

        let mut ab_then_c = ab;
        ab_then_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_then_bc = a;
        a_then_bc.merge(&bc);
        prop_assert_eq!(ab_then_c, a_then_bc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_budget` round-trip: formatting a whole number of units with
    /// any recognized suffix (IEC powers of 1024, SI powers of 1000, upper
    /// or lower case, optional padding) parses back to exactly
    /// `value × multiplier`. Values stay below 2^20 so every product is
    /// f64-exact.
    #[test]
    fn parse_budget_round_trips_whole_units(
        v in 1u64..(1 << 20),
        unit_idx in 0usize..8,
        upper in any::<bool>(),
        pad in any::<bool>(),
    ) {
        use wimpi_engine::governor::parse_budget;
        let units: [(&str, u64); 8] = [
            ("", 1),
            ("K", 1 << 10),
            ("KiB", 1 << 10),
            ("M", 1 << 20),
            ("MiB", 1 << 20),
            ("G", 1 << 30),
            ("KB", 1_000),
            ("MB", 1_000_000),
        ];
        let (unit, mult) = units[unit_idx];
        let unit = if upper { unit.to_ascii_uppercase() } else { unit.to_ascii_lowercase() };
        let s = if pad { format!("  {v} {unit} ") } else { format!("{v}{unit}") };
        prop_assert_eq!(parse_budget(&s), Ok(v * mult), "input {:?}", s);
    }

    /// Fractional round-trip through halves: `x.5` of a unit is exactly
    /// representable in f64, so `(2v+1)/2` units must parse to exactly
    /// `(2v+1) × multiplier / 2` bytes (all multipliers here are even).
    #[test]
    fn parse_budget_handles_fractional_units_exactly(
        v in 0u64..(1 << 19),
        unit_idx in 0usize..4,
    ) {
        use wimpi_engine::governor::parse_budget;
        let units: [(&str, u64); 4] = [("K", 1 << 10), ("MiB", 1 << 20), ("G", 1 << 30), ("MB", 1_000_000)];
        let (unit, mult) = units[unit_idx];
        let s = format!("{v}.5{unit}");
        let want = v * mult + mult / 2;
        prop_assert_eq!(parse_budget(&s), Ok(want), "input {:?}", s);
    }

    /// Zero and negatives are always a typed `NonPositive` rejection, with
    /// or without a unit.
    #[test]
    fn parse_budget_rejects_non_positive(
        v in 0i64..(1 << 20),
        unit_idx in 0usize..4,
        negative in any::<bool>(),
    ) {
        use wimpi_engine::governor::{parse_budget, BudgetParseError};
        // Positive values without a sign would parse fine; keep only the
        // non-positive inputs: any negative, or an unsigned zero.
        let v = if negative { v } else { 0 };
        let unit = ["", "K", "MiB", "GB"][unit_idx];
        let s = format!("{}{v}{unit}", if negative { "-" } else { "" });
        match parse_budget(&s) {
            Err(BudgetParseError::NonPositive(got)) => prop_assert_eq!(got, s),
            other => prop_assert!(false, "expected NonPositive for {:?}, got {:?}", s, other),
        }
    }
}
