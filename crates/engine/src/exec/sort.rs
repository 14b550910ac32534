//! Multi-key sorting.
//!
//! Keys are prepared as cheap orderable representations (dictionary codes are
//! replaced by lexicographic ranks), then row indices are sorted with a
//! stable comparison — ties preserve input order, keeping results
//! deterministic across runs and cluster merges.

use std::cmp::Ordering;

use crate::error::{EngineError, Result};
use crate::governor::QueryContext;
use crate::plan::SortKey;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_storage::{Column, DictColumn};

/// One prepared sort key.
enum KeyRep {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Rank(Vec<u32>),
}

impl KeyRep {
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match self {
            KeyRep::I64(v) => v[a].cmp(&v[b]),
            KeyRep::F64(v) => v[a].total_cmp(&v[b]),
            KeyRep::Rank(v) => v[a].cmp(&v[b]),
        }
    }
}

/// Sorts the relation by `keys` (most significant first) and hands on the
/// order as row ids: only the key columns are gathered here.
///
/// Sorting has no Grace-style fallback — the key representations and the
/// index vector are the algorithm — so the whole buffer is reserved up
/// front. When it does not fit and a spill disk is attached, it degrades to
/// [`external_order`] (DESIGN.md §16); otherwise an impossible budget fails
/// fast with `ResourceExhausted`.
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
    // Key reps at their real widths (4 B ranks, 8 B ints/floats) plus the
    // 4 B/row index vector being sorted.
    let mut key_width = 4u64;
    for k in keys {
        key_width += rel.data_type(&k.column)?.sort_key_bytes();
    }
    let idx = match ctx.try_reserve(n as u64 * key_width) {
        Some(_guard) => resident_order(rel, keys, n, ctx)?,
        None if ctx.spill().is_some() => {
            super::ladder::ledgered(ctx, prof, || external_order(rel, keys, n, ctx))?
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
    // comparison streams the key representations at their real widths (4 B
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

/// The stable in-memory sort: the permutation that orders `rel` by `keys`.
fn resident_order(
    rel: &Relation,
    keys: &[SortKey],
    n: usize,
    ctx: &QueryContext,
) -> Result<Vec<u32>> {
    let mut reps = Vec::with_capacity(keys.len());
    for k in keys {
        let col = rel.column(&k.column)?;
        reps.push((prepare_key(col), k.descending));
    }
    ctx.checkpoint()?;
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_by(|&a, &b| {
        for (rep, desc) in &reps {
            let ord = rep.cmp_rows(a as usize, b as usize);
            if ord != Ordering::Equal {
                return if *desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    });
    Ok(idx)
}

/// The sort below its resident path (DESIGN.md §16): an external merge
/// sort over the spill disk.
///
/// Each key is mapped to an order-preserving `u64` (sign-flipped integers,
/// the IEEE total-order trick for floats, lexicographic dictionary ranks;
/// descending keys are bitwise-complemented), so row order under the
/// in-memory comparator equals lexicographic order of `(encoded keys,
/// row id)` — the unique row id tie-break *is* the stable sort's
/// preserve-input-order rule. Sorted runs of budget-bounded size are staged
/// on the disk in fixed-size pages; the merge holds one page per run and
/// emits the globally least row each step. Everything is decided by row
/// counts and the budget on the coordinator thread, so the permutation is
/// bit-identical to the in-memory stable sort at any thread count.
fn external_order(
    rel: &Relation,
    keys: &[SortKey],
    n: usize,
    ctx: &QueryContext,
) -> Result<Vec<u32>> {
    use super::spill::{SpillRowReader, SpillSet};

    let nkeys = keys.len();
    let rb = 4 + 8 * nkeys as u64; // serialized row: u32 id + u64 per key
    let mut encs = Vec::with_capacity(nkeys);
    for k in keys {
        let enc = RowEnc::new(rel.column(&k.column)?, k.descending);
        if let Some(rank) = &enc.rank {
            ctx.track(rank.len() as u64 * 4);
        }
        encs.push(enc);
    }

    // Split the remaining budget between run scratch and merge pages.
    let available = ctx.budget().saturating_sub(ctx.used()).max(1);
    let run_rows = ((available / 2 / rb) as usize).clamp(1, n.max(1));
    let nruns = n.div_ceil(run_rows).max(1);
    let page_rows = ((available / 2 / (nruns as u64 * rb)) as usize).max(1);

    let mut set = SpillSet::new(ctx, "sort").expect("disk attached");
    let mut run_chunks: Vec<Vec<usize>> = Vec::with_capacity(nruns);
    {
        // Sorted runs: encode a budget-sized slice, sort its row ids, stage
        // the (row id, keys) records in sorted order as merge-sized pages.
        let _scratch = ctx.reserve(run_rows as u64 * rb, "sort")?;
        let mut keybuf: Vec<u64> = Vec::with_capacity(run_rows * nkeys);
        for r in 0..nruns {
            ctx.checkpoint()?;
            let (lo, hi) = (r * run_rows, ((r + 1) * run_rows).min(n));
            keybuf.clear();
            for i in lo..hi {
                for e in &encs {
                    keybuf.push(e.at(i));
                }
            }
            let mut order: Vec<u32> = (lo as u32..hi as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                let (ka, kb) = ((a as usize - lo) * nkeys, (b as usize - lo) * nkeys);
                keybuf[ka..ka + nkeys].cmp(&keybuf[kb..kb + nkeys]).then(a.cmp(&b))
            });
            let mut chunks = Vec::new();
            for page in order.chunks(page_rows) {
                let mut buf = Vec::with_capacity(page.len() * rb as usize);
                for &i in page {
                    buf.extend_from_slice(&i.to_le_bytes());
                    let k = (i as usize - lo) * nkeys;
                    for &e in &keybuf[k..k + nkeys] {
                        buf.extend_from_slice(&e.to_le_bytes());
                    }
                }
                chunks.push(set.write(&buf)?);
            }
            run_chunks.push(chunks);
        }
    }

    // Merge: one resident page per run, emit the least (keys, row id) row.
    let _pages = ctx.reserve(nruns as u64 * page_rows as u64 * rb, "sort")?;
    struct Cursor {
        chunks: std::vec::IntoIter<usize>,
        /// The resident page.
        page: SpillRowReader,
        cur_row: u32,
        cur_keys: Vec<u64>,
        exhausted: bool,
    }
    impl Cursor {
        fn advance(&mut self, set: &SpillSet, nkeys: usize, ctx: &QueryContext) -> Result<()> {
            loop {
                if let Some((row, slots)) = self.page.next() {
                    self.cur_row = row;
                    self.cur_keys.clear();
                    self.cur_keys.extend(slots.iter().map(|&s| s as u64));
                    return Ok(());
                }
                let Some(chunk) = self.chunks.next() else {
                    self.exhausted = true;
                    return Ok(());
                };
                ctx.checkpoint()?;
                self.page = SpillRowReader::new(set.read(chunk)?, nkeys);
            }
        }
    }
    let mut cursors: Vec<Cursor> = run_chunks
        .into_iter()
        .map(|chunks| Cursor {
            chunks: chunks.into_iter(),
            page: SpillRowReader::new(Vec::new(), nkeys),
            cur_row: 0,
            cur_keys: Vec::with_capacity(nkeys),
            exhausted: false,
        })
        .collect();
    for c in cursors.iter_mut() {
        c.advance(&set, nkeys, ctx)?;
    }
    // The output permutation is a sequential append, tracked like any
    // materialized intermediate.
    ctx.track(n as u64 * 4);
    let mut idx: Vec<u32> = Vec::with_capacity(n);
    while let Some(least) = cursors
        .iter_mut()
        .filter(|c| !c.exhausted)
        .min_by(|a, b| (&a.cur_keys, a.cur_row).cmp(&(&b.cur_keys, b.cur_row)))
    {
        idx.push(least.cur_row);
        least.advance(&set, nkeys, ctx)?;
    }
    debug_assert_eq!(idx.len(), n);
    ctx.note_fallback(nruns as u32);
    Ok(idx)
}

/// Per-row order-preserving `u64` key encoder for the external sort.
struct RowEnc<'a> {
    col: &'a Column,
    /// Lexicographic rank per dictionary code (string keys only).
    rank: Option<Vec<u32>>,
    desc: bool,
}

impl<'a> RowEnc<'a> {
    fn new(col: &'a Column, desc: bool) -> Self {
        let rank = match col {
            Column::Str(d) => Some(dict_ranks(d)),
            _ => None,
        };
        RowEnc { col, rank, desc }
    }

    #[inline]
    fn at(&self, i: usize) -> u64 {
        let v = match self.col {
            Column::Int64(v) => enc_i64(v[i]),
            Column::Int32(v) => enc_i64(v[i] as i64),
            Column::Date(v) => enc_i64(v[i] as i64),
            Column::Decimal(v, _) => enc_i64(v[i]),
            Column::Bool(v) => v[i] as u64,
            Column::Float64(v) => enc_f64(v[i]),
            Column::Str(d) => {
                self.rank.as_ref().expect("built for Str")[d.codes()[i] as usize] as u64
            }
        };
        if self.desc {
            !v
        } else {
            v
        }
    }
}

/// Sign-flip: `u64` order equals `i64` order.
#[inline]
fn enc_i64(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

/// IEEE-754 total-order trick: `u64` order equals `f64::total_cmp` order
/// (negatives complemented, positives offset above them).
#[inline]
fn enc_f64(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn prepare_key(col: &Column) -> KeyRep {
    match col {
        Column::Int64(v) => KeyRep::I64(v.clone()),
        Column::Int32(v) => KeyRep::I64(v.iter().map(|&x| x as i64).collect()),
        Column::Date(v) => KeyRep::I64(v.iter().map(|&x| x as i64).collect()),
        Column::Decimal(v, _) => KeyRep::I64(v.clone()),
        Column::Bool(v) => KeyRep::I64(v.iter().map(|&b| b as i64).collect()),
        Column::Float64(v) => KeyRep::F64(v.clone()),
        Column::Str(d) => {
            let rank = dict_ranks(d);
            KeyRep::Rank(d.codes().iter().map(|&c| rank[c as usize]).collect())
        }
    }
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
}
