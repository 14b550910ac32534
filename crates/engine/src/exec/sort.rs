//! Multi-key sorting over one key encoding (DESIGN.md §16).
//!
//! Every key is a normalized key: [`SortCol::at`] maps it to a `u64` whose
//! unsigned order is the key's order (sign-flipped integers, the IEEE
//! total-order trick for floats, lexicographic dictionary ranks, all bits
//! flipped for a descending key). [`order`] is the one run sort: it encodes
//! a range of rows once and stable-sorts their ids, so ties keep input
//! order — the `(keys, row id)` rule that keeps results deterministic
//! across runs, thread counts and cluster merges. The resident sort is one
//! run over every row; the external sort stages budget-sized runs on the
//! spill disk and merges them.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

use crate::error::{EngineError, Result};
use crate::governor::QueryContext;
use crate::plan::SortKey;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_storage::{Column, DictColumn};

/// Sorts the relation by `keys` (most significant first) and hands on the
/// order as row ids: only the key columns are gathered here.
///
/// Sorting has no Grace-style fallback — the encoded keys and the id vector
/// are the algorithm — so the whole buffer is reserved up front and the
/// rows are ordered as one run. When it does not fit and a spill disk is
/// attached, it degrades to [`external_order`] over the same encoding
/// (DESIGN.md §16); otherwise an impossible budget fails fast with
/// `ResourceExhausted`.
pub fn exec_sort(
    rel: &Relation,
    keys: &[SortKey],
    prof: &mut WorkProfile,
    ctx: &QueryContext,
) -> Result<Relation> {
    if keys.is_empty() {
        return Err(EngineError::Plan("sort requires at least one key".to_string()));
    }
    let n = rel.num_rows();
    super::ensure_u32_indexable(n, "sort")?;
    // Encoded keys at their real widths (4 B ranks, 8 B ints/floats) plus
    // the 4 B/row id vector being sorted.
    let mut key_width = 4u64;
    let mut cols = Vec::with_capacity(keys.len());
    for k in keys {
        key_width += rel.data_type(&k.column)?.sort_key_bytes();
        cols.push(SortCol::new(rel.column(&k.column)?, k.descending));
    }
    let idx = match ctx.try_reserve(n as u64 * key_width) {
        Some(_guard) => {
            ctx.checkpoint()?;
            order(&cols, 0..n)
        }
        None if ctx.spill().is_some() => {
            super::ladder::ledgered(ctx, prof, || external_order(&cols, n, ctx))?
        }
        None => {
            return Err(EngineError::ResourceExhausted {
                requested: n as u64 * key_width,
                budget: ctx.budget(),
                operator: "sort".to_string(),
            })
        }
    };
    // n log n comparisons over all keys, plus the output gather. log2 is
    // rounded to nearest — truncation undercharged by up to one comparison
    // level per row (e.g. n=1000 paid for 9 of its ~10 levels). Each
    // comparison streams the encoded keys at their real widths (4 B
    // dictionary ranks, 8 B integer/float keys — charging 8 B for a rank
    // would over-price ORDER BY on dictionary columns by 2×). The charges do
    // not depend on which path ordered the rows (spill traffic is ledgered
    // separately), so profiles stay budget-invariant.
    let logn = (n.max(2) as f64).log2().round() as u64;
    prof.cpu_ops += n as u64 * logn * keys.len() as u64;
    prof.seq_read_bytes += n as u64 * (key_width - 4);
    let out = rel.take_ids(idx, false);
    super::filter::charge_gather(rel, &out, n, prof);
    Ok(out)
}

/// One sort key: its column resolved once to a typed slice, and its
/// direction as a mask.
struct SortCol<'a> {
    vals: Vals<'a>,
    /// All ones for a descending key, zero for an ascending one.
    flip: u64,
}

enum Vals<'a> {
    I64(&'a [i64]), // Int64 and Decimal
    I32(&'a [i32]), // Int32 and Date
    Bool(&'a [bool]),
    F64(&'a [f64]),
    /// Dictionary codes and the lexicographic rank of each code.
    Rank(&'a [u32], Vec<u32>),
}

impl<'a> SortCol<'a> {
    fn new(col: &'a Column, descending: bool) -> Self {
        let vals = match col {
            Column::Int64(v) | Column::Decimal(v, _) => Vals::I64(v),
            Column::Int32(v) | Column::Date(v) => Vals::I32(v),
            Column::Bool(v) => Vals::Bool(v),
            Column::Float64(v) => Vals::F64(v),
            Column::Str(d) => Vals::Rank(d.codes(), dict_ranks(d)),
        };
        SortCol { vals, flip: if descending { u64::MAX } else { 0 } }
    }

    /// Row `i`'s key as an order-preserving `u64`: integers sign-flipped,
    /// floats in IEEE total order (negatives complemented, the rest with the
    /// sign bit set, so `u64` order is `f64::total_cmp`'s), strings as their
    /// rank; then XORed with the flip mask.
    #[inline]
    fn at(&self, i: usize) -> u64 {
        const SIGN: u64 = 1 << 63;
        let v = match &self.vals {
            Vals::I64(v) => v[i] as u64 ^ SIGN,
            Vals::I32(v) => v[i] as i64 as u64 ^ SIGN,
            Vals::Bool(v) => v[i] as u64,
            Vals::F64(v) => {
                let b = v[i].to_bits(); // a negative flips every bit, the rest the sign
                b ^ ((b as i64 >> 63) as u64 | SIGN)
            }
            Vals::Rank(codes, rank) => rank[codes[i] as usize] as u64,
        };
        v ^ self.flip
    }
}

/// A key encoded over one run: dictionary ranks keep their 4 B width.
enum Encoded {
    Wide(Vec<u64>),
    Narrow(Vec<u32>),
}

/// The one run sort: the ids of `rows` in key order, ties in row order.
///
/// Each key is encoded once over the range — a rank XORed with the low half
/// of the flip mask, which orders it as [`SortCol::at`] does — then the
/// ascending ids are stable-sorted, so equal keys keep row order: the
/// `(keys, row id)` order the external merge continues across runs.
fn order(cols: &[SortCol], rows: Range<usize>) -> Vec<u32> {
    let lo = rows.start;
    let keys: Vec<Encoded> = cols
        .iter()
        .map(|c| match &c.vals {
            Vals::Rank(codes, rank) => Encoded::Narrow(
                codes[rows.clone()].iter().map(|&k| rank[k as usize] ^ c.flip as u32).collect(),
            ),
            _ => Encoded::Wide(rows.clone().map(|i| c.at(i)).collect()),
        })
        .collect();
    let mut ids: Vec<u32> = (lo as u32..rows.end as u32).collect();
    ids.sort_by(|&a, &b| {
        let (a, b) = (a as usize - lo, b as usize - lo);
        keys.iter()
            .map(|k| match k {
                Encoded::Wide(v) => v[a].cmp(&v[b]),
                Encoded::Narrow(v) => v[a].cmp(&v[b]),
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    ids
}

/// The sort below its resident path (DESIGN.md §16): an external merge
/// sort over the spill disk.
///
/// Budget-sized runs are ordered by [`order`] and staged on the disk as
/// fixed-size pages of `(row id, at(i)…)` records; the merge holds one page
/// per run and emits the least `(keys, row id)` record each step. A run's
/// ties are in row order and runs cover ascending row ranges, so the
/// permutation is the resident sort's. Everything is decided by row counts
/// and the budget on the coordinator thread, so it is bit-identical at any
/// thread count.
fn external_order(cols: &[SortCol], n: usize, ctx: &QueryContext) -> Result<Vec<u32>> {
    use super::spill::{SpillRowReader, SpillSet};

    let nkeys = cols.len();
    let rb = 4 + 8 * nkeys as u64; // serialized row: u32 id + u64 per key
    for c in cols {
        if let Vals::Rank(_, rank) = &c.vals {
            ctx.track(rank.len() as u64 * 4);
        }
    }

    // Split the remaining budget between run scratch and merge pages.
    let available = ctx.budget().saturating_sub(ctx.used()).max(1);
    let run_rows = ((available / 2 / rb) as usize).clamp(1, n.max(1));
    let nruns = n.div_ceil(run_rows).max(1);
    let page_rows = ((available / 2 / (nruns as u64 * rb)) as usize).max(1);

    let mut set = SpillSet::new(ctx, "sort").expect("disk attached");
    let mut run_chunks: Vec<Vec<usize>> = Vec::with_capacity(nruns);
    {
        // Sorted runs: order a budget-sized slice, stage its records in
        // sorted order as merge-sized pages.
        let _scratch = ctx.reserve(run_rows as u64 * rb, "sort")?;
        for r in 0..nruns {
            ctx.checkpoint()?;
            let run = order(cols, r * run_rows..((r + 1) * run_rows).min(n));
            let mut chunks = Vec::new();
            for page in run.chunks(page_rows) {
                let mut buf = Vec::with_capacity(page.len() * rb as usize);
                for &i in page {
                    buf.extend_from_slice(&i.to_le_bytes());
                    for c in cols {
                        buf.extend_from_slice(&c.at(i as usize).to_le_bytes());
                    }
                }
                chunks.push(set.write(&buf)?);
            }
            run_chunks.push(chunks);
        }
    }

    // Merge: one resident page per run, and a min-heap of each run's head
    // record, which yields the least (keys, row id) record at each step.
    let _pages = ctx.reserve(nruns as u64 * page_rows as u64 * rb, "sort")?;
    struct Run {
        chunks: std::vec::IntoIter<usize>,
        /// The resident page.
        page: SpillRowReader,
    }
    impl Run {
        /// The run's next row id, its keys written into `keys`; `None` once
        /// the run is drained.
        fn next(
            &mut self,
            keys: &mut Vec<u64>,
            set: &SpillSet,
            nkeys: usize,
            ctx: &QueryContext,
        ) -> Result<Option<u32>> {
            loop {
                if let Some((row, slots)) = self.page.next() {
                    keys.clear();
                    keys.extend(slots.iter().map(|&s| s as u64));
                    return Ok(Some(row));
                }
                let Some(chunk) = self.chunks.next() else { return Ok(None) };
                ctx.checkpoint()?;
                self.page = SpillRowReader::new(set.read(chunk)?, nkeys);
            }
        }
    }
    let mut runs: Vec<Run> = run_chunks
        .into_iter()
        .map(|chunks| Run {
            chunks: chunks.into_iter(),
            page: SpillRowReader::new(Vec::new(), nkeys),
        })
        .collect();
    // Heads as `(keys, row id, run)`: row ids are distinct, so the run
    // index never decides an order.
    let mut heads = BinaryHeap::with_capacity(nruns);
    for (r, run) in runs.iter_mut().enumerate() {
        let mut keys = Vec::with_capacity(nkeys);
        if let Some(row) = run.next(&mut keys, &set, nkeys, ctx)? {
            heads.push(Reverse((keys, row, r)));
        }
    }
    // The output permutation is a sequential append, tracked like any
    // materialized intermediate.
    ctx.track(n as u64 * 4);
    let mut idx: Vec<u32> = Vec::with_capacity(n);
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((keys, row, r)) = &mut *head;
        idx.push(*row);
        match runs[*r].next(keys, &set, nkeys, ctx)? {
            Some(next) => *row = next,
            None => drop(PeekMut::pop(head)),
        }
    }
    debug_assert_eq!(idx.len(), n);
    ctx.note_fallback(nruns as u32);
    Ok(idx)
}

/// The lexicographic rank of each dictionary code, computed once per key.
fn dict_ranks(d: &DictColumn) -> Vec<u32> {
    let mut order: Vec<u32> = (0..d.cardinality() as u32).collect();
    order.sort_by(|&a, &b| d.decode(a).cmp(d.decode(b)));
    let mut rank = vec![0u32; d.cardinality()];
    for (r, &code) in order.iter().enumerate() {
        rank[code as usize] = r as u32;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wimpi_storage::Value;

    fn rel() -> Relation {
        Relation::new(vec![
            (
                "name".into(),
                Arc::new(Column::Str(["beta", "alpha", "beta", "alpha"].into_iter().collect())),
            ),
            ("v".into(), Arc::new(Column::Int64(vec![2, 9, 1, 4]))),
        ])
        .unwrap()
    }

    fn sort(keys: Vec<SortKey>) -> Relation {
        let mut p = WorkProfile::new();
        exec_sort(&rel(), &keys, &mut p, &QueryContext::default()).unwrap()
    }

    #[test]
    fn single_key_ascending() {
        let out = sort(vec![SortKey::asc("v")]);
        assert_eq!(out.column("v").unwrap().as_i64().unwrap(), &[1, 2, 4, 9]);
    }

    #[test]
    fn single_key_descending() {
        let out = sort(vec![SortKey::desc("v")]);
        assert_eq!(out.column("v").unwrap().as_i64().unwrap(), &[9, 4, 2, 1]);
    }

    #[test]
    fn string_key_sorts_lexicographically() {
        let out = sort(vec![SortKey::asc("name"), SortKey::asc("v")]);
        assert_eq!(out.value(0, "name").unwrap(), Value::Str("alpha".into()));
        assert_eq!(out.column("v").unwrap().as_i64().unwrap(), &[4, 9, 1, 2]);
    }

    #[test]
    fn stability_preserves_input_order_on_ties() {
        let out = sort(vec![SortKey::asc("name")]);
        // betas keep their original relative order (v=2 before v=1)
        assert_eq!(out.column("v").unwrap().as_i64().unwrap(), &[9, 4, 2, 1]);
    }

    #[test]
    fn cost_charges_actual_key_widths() {
        // name is a Str key (4 B rank), v an Int64 key (8 B).
        let mut both = WorkProfile::new();
        let out = exec_sort(
            &rel(),
            &[SortKey::asc("name"), SortKey::asc("v")],
            &mut both,
            &QueryContext::default(),
        )
        .unwrap();
        let mut gather_only = WorkProfile::new();
        super::super::filter::charge_gather(&rel(), &out, 4, &mut gather_only);
        let key_bytes = both.seq_read_bytes - gather_only.seq_read_bytes;
        assert_eq!(key_bytes, 4 * (4 + 8), "4 rows × (rank 4 B + i64 8 B)");
        // log2 rounds to nearest: n=4 → exactly 2 levels, 2 keys.
        assert_eq!(both.cpu_ops - gather_only.cpu_ops, 4 * 2 * 2);
    }

    #[test]
    fn missing_key_errors() {
        let mut p = WorkProfile::new();
        assert!(
            exec_sort(&rel(), &[SortKey::asc("zzz")], &mut p, &QueryContext::default()).is_err()
        );
        assert!(exec_sort(&rel(), &[], &mut p, &QueryContext::default()).is_err());
    }

    #[test]
    fn budget_without_disk_still_errors_typed() {
        let mut p = WorkProfile::new();
        let err = exec_sort(&rel(), &[SortKey::asc("v")], &mut p, &QueryContext::with_budget(8))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "sort"),
            "got {err:?}"
        );
    }

    /// Many duplicate keys (ties exercise the stability argument), negative
    /// and fractional floats (the total-order encoding), strings (rank
    /// encoding), and mixed ascending/descending directions.
    fn big_rel(n: i64) -> Relation {
        let words = ["delta", "alpha", "echo", "bravo", "charlie"];
        Relation::new(vec![
            ("g".into(), Arc::new(Column::Int64((0..n).map(|i| (i * 37) % 11 - 5).collect()))),
            (
                "f".into(),
                Arc::new(Column::Float64(
                    (0..n).map(|i| ((i * 73) % 19 - 9) as f64 * 0.37).collect(),
                )),
            ),
            ("s".into(), Arc::new(Column::Str((0..n).map(|i| words[(i % 5) as usize]).collect()))),
            ("v".into(), Arc::new(Column::Int64((0..n).collect()))),
        ])
        .unwrap()
    }

    #[test]
    fn spill_sort_is_bit_exact_across_budgets() {
        let rel = big_rel(2_000);
        let keys = [
            vec![SortKey::asc("g"), SortKey::desc("f")],
            vec![SortKey::desc("s"), SortKey::asc("g")],
            vec![SortKey::asc("f")],
        ];
        for ks in &keys {
            let mut bp = WorkProfile::new();
            let want = exec_sort(&rel, ks, &mut bp, &QueryContext::default()).unwrap();
            // Budgets chosen to force a few, ~8, and ~20 runs respectively
            // (all below every key set's n·key_width in-memory footprint).
            for budget in [20_000u64, 6_000, 2_000] {
                let disk = std::sync::Arc::new(wimpi_storage::SpillDisk::new(
                    wimpi_storage::SpillConfig::with_capacity(4 << 20),
                ));
                let ctx =
                    QueryContext::with_budget(budget).with_spill(std::sync::Arc::clone(&disk));
                let mut p = WorkProfile::new();
                let got = exec_sort(&rel, ks, &mut p, &ctx).unwrap();
                assert_eq!(got, want, "spill sort diverged at budget {budget} for {ks:?}");
                assert!(p.spilled_bytes > 0, "budget {budget} must engage the spill rung");
                assert_eq!(
                    WorkProfile { spilled_bytes: 0, ..p },
                    bp,
                    "work charges stay budget-invariant"
                );
                assert!(ctx.fallbacks() > 0);
                assert_eq!(disk.used(), 0, "all spill chunks freed");
                assert_eq!(ctx.used(), 0, "all reservations released");
            }
            // A budget below ~2·row_bytes·√n cannot hold one page per run in
            // the single-pass merge: the typed error survives the disk.
            let disk = std::sync::Arc::new(wimpi_storage::SpillDisk::new(
                wimpi_storage::SpillConfig::with_capacity(4 << 20),
            ));
            let ctx = QueryContext::with_budget(300).with_spill(std::sync::Arc::clone(&disk));
            let mut p = WorkProfile::new();
            let err = exec_sort(&rel, ks, &mut p, &ctx).unwrap_err();
            assert!(
                matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "sort"),
                "got {err:?}"
            );
            assert_eq!(disk.used(), 0, "the failed sort freed its chunks");
        }
    }

    #[test]
    fn spill_sort_survives_injected_faults_bit_exactly() {
        let rel = big_rel(2_000);
        let ks = vec![SortKey::asc("g"), SortKey::desc("f"), SortKey::asc("s")];
        let mut bp = WorkProfile::new();
        let want = exec_sort(&rel, &ks, &mut bp, &QueryContext::default()).unwrap();
        let cfg = wimpi_storage::SpillConfig::with_capacity(4 << 20)
            .with_faults(wimpi_storage::SpillFaults::every(42, 8))
            .with_max_read_retries(16);
        let disk = std::sync::Arc::new(wimpi_storage::SpillDisk::new(cfg));
        let ctx = QueryContext::with_budget(2_000).with_spill(std::sync::Arc::clone(&disk));
        let mut p = WorkProfile::new();
        let got = exec_sort(&rel, &ks, &mut p, &ctx).unwrap();
        assert_eq!(got, want, "faulted spill sort must stay bit-exact");
        assert!(p.spill_corruptions_detected > 0, "fault injection must fire");
        assert_eq!(disk.used(), 0);
    }

    /// A key column of the oracle's table, kept as the typed values it was
    /// built from.
    enum Typed {
        I64(Vec<i64>),
        I32(Vec<i32>),
        Bool(Vec<bool>),
        F64(Vec<f64>),
        Str(Vec<&'static str>),
    }

    impl Typed {
        /// The values' own order: no encoding, no ranks.
        fn cmp(&self, a: usize, b: usize) -> Ordering {
            match self {
                Typed::I64(v) => v[a].cmp(&v[b]),
                Typed::I32(v) => v[a].cmp(&v[b]),
                Typed::Bool(v) => v[a].cmp(&v[b]),
                Typed::F64(v) => v[a].total_cmp(&v[b]),
                Typed::Str(v) => v[a].cmp(v[b]),
            }
        }
    }

    /// Seven key columns, one per column type, drawn from small pools (heavy
    /// ties) that hold each type's extremes and negatives, ±0.0, ±∞, NaN of
    /// both signs, and `""`; plus `id`, the row id, to read permutations by.
    fn oracle_table(n: usize) -> (Relation, Vec<(&'static str, Typed)>) {
        let mut rng = wimpi_storage::SplitMix64::new(n as u64);
        let mut draws = |k: usize| -> Vec<usize> {
            (0..n).map(|_| (rng.next_u64() % k as u64) as usize).collect()
        };
        let pick =
            |d: Vec<usize>, pool: &[i64]| -> Vec<i64> { d.iter().map(|&i| pool[i]).collect() };
        let i64s = pick(draws(6), &[i64::MIN, -7, -1, 0, 5, i64::MAX]);
        let decs = pick(draws(5), &[-123_456, -1, 0, 99, 100]);
        let i32s: Vec<i32> = pick(draws(6), &[i32::MIN as i64, -40_000, -1, 0, 3, i32::MAX as i64])
            .into_iter()
            .map(|v| v as i32)
            .collect();
        let dates: Vec<i32> = draws(4).iter().map(|&i| [-3_650, -1, 0, 9_000][i]).collect();
        let bools: Vec<bool> = draws(2).iter().map(|&i| i == 1).collect();
        let floats = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, -2.5, 1.25];
        let f64s: Vec<f64> = draws(8).iter().map(|&i| floats[i]).collect();
        // Codes are assigned out of lexicographic order.
        let words = ["pear", "", "apple", "zebra", "Apple", "pea"];
        let codes: Vec<u32> = draws(6).iter().map(|&i| i as u32).collect();
        let strs: Vec<&'static str> = codes.iter().map(|&c| words[c as usize]).collect();
        let dict = DictColumn::from_parts(codes, words.iter().map(|w| w.to_string()).collect());
        let cols = vec![
            ("i64", Column::Int64(i64s.clone()), Typed::I64(i64s)),
            ("dec", Column::Decimal(decs.clone(), 2), Typed::I64(decs)),
            ("i32", Column::Int32(i32s.clone()), Typed::I32(i32s)),
            ("date", Column::Date(dates.clone()), Typed::I32(dates)),
            ("bool", Column::Bool(bools.clone()), Typed::Bool(bools)),
            ("f64", Column::Float64(f64s.clone()), Typed::F64(f64s)),
            ("str", Column::Str(dict), Typed::Str(strs)),
        ];
        let mut fields = vec![("id".to_string(), Arc::new(Column::Int64((0..n as i64).collect())))];
        let mut typed = Vec::new();
        for (name, col, t) in cols {
            fields.push((name.to_string(), Arc::new(col)));
            typed.push((name, t));
        }
        (Relation::new(fields).unwrap(), typed)
    }

    /// `exec_sort` against `slice::sort_by` over the typed values, with
    /// every key set in every direction, unbudgeted (the resident sort, one
    /// run) and at spill budgets that force 4, 12, 50 and 100 runs. A
    /// spilled sort always has two runs or more: one run of n rows needs
    /// 2·n·(4 + 8 per key) bytes, more than the resident path's reservation.
    /// The merge holds a page per run within the budget, so a sort of n rows
    /// has at most √(2n) runs: 100 runs take n ≥ 5 000.
    #[test]
    fn sort_matches_an_oracle_that_shares_no_encoding() {
        let key_sets: [&[usize]; 14] = [
            &[0],
            &[1],
            &[2],
            &[3],
            &[4],
            &[5],
            &[6],
            &[6, 5],
            &[4, 0],
            &[3, 1],
            &[2, 6],
            &[4, 6, 5],
            &[1, 4, 2],
            &[5, 3, 6],
        ];
        for n in [0, 1, 2, 8_000] {
            let (rel, typed) = oracle_table(n);
            for set in key_sets {
                for dirs in 0..1u32 << set.len() {
                    let desc = |j: usize| dirs >> j & 1 == 1;
                    let keys: Vec<SortKey> = set
                        .iter()
                        .enumerate()
                        .map(|(j, &c)| SortKey {
                            column: typed[c].0.to_string(),
                            descending: desc(j),
                        })
                        .collect();
                    let mut want: Vec<i64> = (0..n as i64).collect();
                    want.sort_by(|&a, &b| {
                        let (a, b) = (a as usize, b as usize);
                        set.iter()
                            .enumerate()
                            .map(|(j, &c)| {
                                let o = typed[c].1.cmp(a, b);
                                if desc(j) {
                                    o.reverse()
                                } else {
                                    o
                                }
                            })
                            .find(|o| o.is_ne())
                            .unwrap_or(Ordering::Equal)
                    });
                    let ids = |ctx: &QueryContext| {
                        let out = exec_sort(&rel, &keys, &mut WorkProfile::new(), ctx).unwrap();
                        out.column("id").unwrap().as_i64().unwrap().to_vec()
                    };
                    assert_eq!(ids(&QueryContext::default()), want, "n={n} {keys:?}");
                    let rb = 4 + 8 * keys.len() as u64;
                    for runs in [4, 12, 50, 100] {
                        let budget = 2 * rb * n.div_ceil(runs).max(1) as u64;
                        let disk = Arc::new(wimpi_storage::SpillDisk::new(
                            wimpi_storage::SpillConfig::with_capacity(4 << 20),
                        ));
                        let ctx = QueryContext::with_budget(budget).with_spill(Arc::clone(&disk));
                        assert_eq!(ids(&ctx), want, "n={n} {keys:?} at {runs} runs");
                        if n == 8_000 {
                            assert_eq!(ctx.max_fallback_parts(), runs as u32, "{keys:?}");
                        }
                        assert_eq!(disk.used(), 0);
                    }
                }
            }
        }
    }
}
