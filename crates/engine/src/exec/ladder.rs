//! The one degradation ladder below the resident path (DESIGN.md §10, §16).
//!
//! An operator whose table does not fit the query budget partitions its
//! input by key hash and works one partition at a time, doubling the fan-out
//! until every partition's table fits. [`descend`] owns what is not
//! operator-specific: the fan-out sequence 2, 4, … up to [`MAX_GRACE_PARTS`]
//! (or [`MAX_SPILL_PARTS`] with a spill disk), hashing each input once for all
//! attempts, staging the partitions on the disk past `MAX_GRACE_PARTS`, the
//! per-partition checkpoint, the fallback note, the typed `ResourceExhausted`
//! and the spill ledger. The operator supplies the attempt body, answers with
//! a [`Verdict`], and reads each partition as one `(id, key)` stream without
//! learning whether it came from memory or from the disk. An id is whatever
//! the operator numbered its input by: a source row for the join, a position
//! among the morsel partials' groups for the aggregate.

use std::hash::Hash;
use std::marker::PhantomData;

use super::partition::{Buckets, Partitioner};
use super::spill::{note_spill_delta, SpillRowReader, SpillSet, MAX_SPILL_PARTS};
use crate::error::{EngineError, Result};
use crate::governor::QueryContext;
use crate::stats::WorkProfile;

/// The deepest fan-out whose partitions are walked straight from memory
/// ("Grace"); without a spill disk the ladder ends here. Deeper attempts
/// round-trip each partition's `(row id, key slots)` records through the disk.
pub(crate) const MAX_GRACE_PARTS: usize = 1024;

/// A hash-table key built from `key_values`-encoded `i64` slots: read from
/// column-major key columns (borrowed, never copied), or from one row-major
/// decoded spill record. The two must agree, so a staged partition rebuilds
/// exactly the keys it hashed.
pub(super) trait FromSlots: Hash + Eq + Sized {
    fn at(cols: &[&[i64]], i: usize) -> Self;
    fn from_row(slots: &[i64]) -> Self;
}

/// Column-major key slots owned as vectors, borrowed as the slices
/// [`FromSlots::at`] and [`descend`] read.
pub(super) fn as_slices(cols: &[Vec<i64>]) -> Vec<&[i64]> {
    cols.iter().map(Vec::as_slice).collect()
}

impl FromSlots for i64 {
    #[inline]
    fn at(cols: &[&[i64]], i: usize) -> Self {
        cols[0][i]
    }
    #[inline]
    fn from_row(slots: &[i64]) -> Self {
        slots[0]
    }
}

impl FromSlots for (i64, i64) {
    #[inline]
    fn at(cols: &[&[i64]], i: usize) -> Self {
        (cols[0][i], cols[1][i])
    }
    #[inline]
    fn from_row(slots: &[i64]) -> Self {
        (slots[0], slots[1])
    }
}

impl FromSlots for Vec<i64> {
    #[inline]
    fn at(cols: &[&[i64]], i: usize) -> Self {
        cols.iter().map(|c| c[i]).collect()
    }
    #[inline]
    fn from_row(slots: &[i64]) -> Self {
        slots.to_vec()
    }
}

/// What one attempt at one fan-out found. The `u64` is the reservation that
/// did not fit — the `requested` of the error if the ladder ends there.
pub(super) enum Verdict<T> {
    /// Every partition fit; this is the operator's result.
    Fit(T),
    /// Some partition's table outgrew the budget: retry at twice the fan-out.
    Double(u64),
    /// Doubling cannot help — one table entry alone exceeds the budget.
    /// Terminal with or without a disk.
    Hopeless(u64),
}

/// Runs `f` and folds the spill traffic it caused into `prof` — also when it
/// fails: bytes written before a `DiskFull` were priced all the same.
pub(super) fn ledgered<T>(
    ctx: &QueryContext,
    prof: &mut WorkProfile,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let Some(disk) = ctx.spill() else { return f() };
    let before = disk.counters();
    let result = f();
    note_spill_delta(prof, disk.counters().delta_since(&before));
    result
}

/// Descends the ladder: calls `attempt` at fan-outs 2, 4, … until it answers
/// [`Verdict::Fit`]. Each input — `(rows, column-major key slots)` — is hashed
/// once, here, for every attempt. Errors from the body (cancellation, a full
/// disk, an unreadable chunk) pass through; only a verdict moves the ladder.
pub(super) fn descend<K: FromSlots, T>(
    ctx: &QueryContext,
    prof: &mut WorkProfile,
    operator: &'static str,
    inputs: &[(usize, &[&[i64]])],
    mut attempt: impl FnMut(&mut Attempt<'_, K>) -> Result<Verdict<T>>,
) -> Result<T> {
    let hashed: Vec<(&[&[i64]], Partitioner)> = inputs
        .iter()
        .map(|&(rows, cols)| (cols, Partitioner::new(rows, |i| K::at(cols, i))))
        .collect();
    let cap = if ctx.spill().is_some() { MAX_SPILL_PARTS } else { MAX_GRACE_PARTS };
    ledgered(ctx, prof, || {
        let mut nparts = 2;
        loop {
            let mut att = Attempt {
                ctx,
                operator,
                inputs: &hashed,
                nparts,
                staging: nparts > MAX_GRACE_PARTS,
                buckets: hashed.iter().map(|_| None).collect(),
                _key: PhantomData,
            };
            match attempt(&mut att)? {
                Verdict::Fit(out) => {
                    ctx.note_fallback(nparts as u32);
                    return Ok(out);
                }
                Verdict::Double(_) if nparts < cap => nparts *= 2,
                Verdict::Double(requested) | Verdict::Hopeless(requested) => {
                    let (budget, operator) = (ctx.budget(), operator.to_string());
                    return Err(EngineError::ResourceExhausted { requested, budget, operator });
                }
            }
        }
    })
}

/// One attempt at one fan-out, before its partitions are laid out.
pub(super) struct Attempt<'a, K> {
    ctx: &'a QueryContext,
    operator: &'static str,
    inputs: &'a [(&'a [&'a [i64]], Partitioner)],
    nparts: usize,
    staging: bool,
    /// Each input's counting-sorted row ids, sorted on first use.
    buckets: Vec<Option<Buckets>>,
    _key: PhantomData<fn() -> K>,
}

impl<K: FromSlots> Attempt<'_, K> {
    /// The size of `input`'s largest partition — what an operator that can
    /// size its table up front asks before anything is staged.
    pub(super) fn largest(&mut self, input: usize) -> usize {
        let (_, part) = &self.inputs[input];
        self.buckets[input].get_or_insert_with(|| part.buckets(self.nparts)).max_len()
    }

    /// Lays out every input's partitions; past `MAX_GRACE_PARTS` that stages
    /// one chunk per non-empty partition on the spill disk, inputs in order.
    /// The chunks are freed when the result drops, so a failed attempt returns
    /// its disk space before the next one stages.
    pub(super) fn stage(&mut self) -> Result<Partitions<'_, K>> {
        let lazy = self.buckets.iter_mut().zip(self.inputs);
        let buckets: Vec<&Buckets> = lazy
            .map(|(b, (_, part))| &*b.get_or_insert_with(|| part.buckets(self.nparts)))
            .collect();
        let mut staged = None;
        if self.staging {
            let mut set = SpillSet::new(self.ctx, self.operator)
                .expect("a fan-out past MAX_GRACE_PARTS means a disk is attached");
            let mut chunks = Vec::with_capacity(buckets.len());
            for (b, (cols, _)) in buckets.iter().zip(self.inputs) {
                chunks.push(set.stage(b, cols, self.ctx)?);
            }
            staged = Some((set, chunks));
        }
        Ok(Partitions { ctx: self.ctx, inputs: self.inputs, buckets, staged, _key: PhantomData })
    }
}

/// One attempt's partitions, resident or staged.
pub(super) struct Partitions<'t, K> {
    ctx: &'t QueryContext,
    inputs: &'t [(&'t [&'t [i64]], Partitioner)],
    buckets: Vec<&'t Buckets>,
    /// The chunk set and each input's per-partition chunk index.
    staged: Option<(SpillSet<'t>, Vec<Vec<Option<usize>>>)>,
    _key: PhantomData<fn() -> K>,
}

impl<K: FromSlots> Partitions<'_, K> {
    /// The fan-out.
    pub(super) fn len(&self) -> usize {
        self.buckets[0].nparts()
    }

    /// The partition indices in order, one cancellation checkpoint before each.
    pub(super) fn iter(&self) -> impl Iterator<Item = Result<usize>> + '_ {
        (0..self.len()).map(|p| self.ctx.checkpoint().map(|()| p))
    }

    /// The partition row `row` of `input` belongs to.
    #[inline]
    pub(super) fn part_of(&self, input: usize, row: usize) -> usize {
        self.inputs[input].1.part(row, self.len())
    }

    /// How many rows of `input` fall in partition `p`.
    pub(super) fn rows_in(&self, input: usize, p: usize) -> usize {
        self.buckets[input].rows(p).len()
    }

    /// Partition `p`'s rows of `input` with their keys, rows ascending: read
    /// back from the verified (checksummed, fault-retried) chunk when the
    /// attempt staged, else from the bucket and the resident key columns.
    pub(super) fn rows(&self, input: usize, p: usize) -> Result<Rows<'_, K>> {
        let cols = self.inputs[input].0;
        let chunk = self.staged.as_ref().and_then(|(set, chunks)| Some((set, chunks[input][p]?)));
        Ok(match chunk {
            Some((set, c)) => Rows::Staged(SpillRowReader::new(set.read(c)?, cols.len())),
            None => Rows::Resident(self.buckets[input].rows(p).iter(), cols, PhantomData),
        })
    }
}

/// A partition's `(row id, key)` stream.
pub(super) enum Rows<'p, K> {
    Resident(std::slice::Iter<'p, u32>, &'p [&'p [i64]], PhantomData<fn() -> K>),
    Staged(SpillRowReader),
}

impl<K: FromSlots> Iterator for Rows<'_, K> {
    type Item = (u32, K);

    #[inline]
    fn next(&mut self) -> Option<(u32, K)> {
        match self {
            Rows::Resident(rows, cols, _) => rows.next().map(|&i| (i, K::at(cols, i as usize))),
            Rows::Staged(rd) => rd.next().map(|(row, slots)| (row, K::from_row(slots))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::aggregate::Key;
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use wimpi_storage::{SpillConfig, SpillDisk};

    fn ctx(budget: u64, with_disk: bool) -> QueryContext {
        let ctx = QueryContext::with_budget(budget);
        if !with_disk {
            return ctx;
        }
        ctx.with_spill(Arc::new(SpillDisk::new(SpillConfig::with_capacity(1 << 20))))
    }

    /// At every power-of-two fan-out, each partition's stream read back from
    /// staged chunks equals the one read from the buckets: the rows routed
    /// there, ascending, each with the key its columns hold.
    fn staged_streams_equal_resident<K: FromSlots + std::fmt::Debug>(cols: &[&[i64]], n: usize) {
        let ctx = ctx(1 << 20, true);
        let disk = ctx.spill().unwrap();
        let inputs = [(cols, Partitioner::new(n, |i| K::at(cols, i)))];
        let attempt = |nparts, staging| {
            let (ctx, inputs, buckets) = (&ctx, &inputs[..], vec![None]);
            Attempt::<K> {
                ctx,
                operator: "test",
                inputs,
                nparts,
                staging,
                buckets,
                _key: PhantomData,
            }
        };
        for nparts in (0..=16).map(|e| 1 << e) {
            let (mut resident, mut staged) = (attempt(nparts, false), attempt(nparts, true));
            let (resident, staged) = (resident.stage().unwrap(), staged.stage().unwrap());
            assert_eq!(disk.used() as usize, n * (4 + 8 * cols.len()));
            let mut seen = 0;
            for p in resident.iter().map(|p| p.unwrap()) {
                let want: Vec<(u32, K)> = resident.rows(0, p).unwrap().collect();
                let got: Vec<(u32, K)> = staged.rows(0, p).unwrap().collect();
                assert_eq!(got, want, "partition {p} of {nparts}");
                assert_eq!(want.len(), resident.rows_in(0, p));
                assert!(want.windows(2).all(|w| w[0].0 < w[1].0), "rows ascend");
                for (row, k) in &want {
                    assert_eq!(resident.part_of(0, *row as usize), p);
                    assert_eq!(*k, K::at(cols, *row as usize));
                }
                seen += want.len();
            }
            assert_eq!(seen, n, "every row is in exactly one partition");
            drop(staged);
            assert_eq!(disk.used(), 0, "dropping an attempt's partitions frees its chunks");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn staged_partitions_stream_what_resident_ones_do(
            rows in proptest::collection::vec((-40i64..40, -(1i64 << 40)..1i64 << 40, 0i64..3), 0..120),
        ) {
            let owned: [Vec<i64>; 3] =
                [rows.iter().map(|r| r.0).collect(), rows.iter().map(|r| r.1).collect(), rows.iter().map(|r| r.2).collect()];
            let cols = as_slices(&owned);
            staged_streams_equal_resident::<i64>(&cols[..1], rows.len());
            staged_streams_equal_resident::<(i64, i64)>(&cols[..2], rows.len());
            for ncols in 0..=3 {
                staged_streams_equal_resident::<Vec<i64>>(&cols[..ncols], rows.len());
                staged_streams_equal_resident::<Key>(&cols[..ncols], rows.len());
            }
        }
    }

    /// Drives the ladder over 100 one-column rows (1 200 staged bytes) under a
    /// 64 B budget with a toy body that holds a reservation, stages, and
    /// answers `verdict(fan-out)`. Returns the result, each attempt's
    /// `(fan-out, chunks on disk?)`, the ledgered spill bytes and the
    /// fallback telemetry.
    type Driven = (Result<usize>, Vec<(usize, bool)>, u64, (u32, u32));
    fn drive(disk: bool, verdict: impl Fn(usize) -> Result<Verdict<usize>>) -> Driven {
        let (ctx, keys) = (ctx(64, disk), (0..100i64).collect::<Vec<_>>());
        let cols = [&keys[..]];
        let (mut prof, mut seen) = (WorkProfile::new(), Vec::new());
        let result = descend::<i64, _>(&ctx, &mut prof, "toy", &[(100, &cols)], |att| {
            let _table = ctx.reserve(8, "toy")?;
            let parts = att.stage()?;
            seen.push((parts.len(), ctx.spill().is_some_and(|d| d.used() > 0)));
            verdict(parts.len())
        });
        assert_eq!(ctx.used(), 0, "no reservation outlives the ladder");
        assert_eq!(ctx.spill().map_or(0, |d| d.used()), 0, "no chunk outlives the ladder");
        (result, seen, prof.spilled_bytes, (ctx.fallbacks(), ctx.max_fallback_parts()))
    }

    fn exhausted(result: Result<usize>) -> u64 {
        match result {
            Err(EngineError::ResourceExhausted { requested, budget: 64, operator })
                if operator == "toy" =>
            {
                requested
            }
            other => panic!("expected the typed ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn fan_outs_double_to_the_cap_and_stage_only_past_grace() {
        let upto =
            |cap| (1..=16).map(|e| 1 << e).take_while(move |&p| p <= cap).map(|p| (p, p > 1024));
        let double = |p| Ok(Verdict::Double(p as u64));
        // Without a disk the ladder ends at the Grace cap, with the last request.
        let (result, seen, spilled, fallbacks) = drive(false, double);
        assert_eq!((exhausted(result), spilled, fallbacks), (1024, 0, (0, 0)));
        assert_eq!(seen, upto(1024).collect::<Vec<_>>());
        // With one it goes on to the spill cap, staging exactly past Grace.
        let (result, seen, spilled, fallbacks) = drive(true, double);
        assert_eq!((exhausted(result), spilled, fallbacks), (65_536, 6 * 1200, (0, 0)));
        assert_eq!(seen, upto(65_536).collect::<Vec<_>>());
        // A fit ends the descent and is the one thing noted as a fallback.
        let fit = |p| Ok(if p == 4096 { Verdict::Fit(p) } else { Verdict::Double(0) });
        let (result, seen, spilled, fallbacks) = drive(true, fit);
        assert_eq!((result.unwrap(), spilled, fallbacks), (4096, 2 * 1200, (1, 4096)));
        assert_eq!(seen, upto(4096).collect::<Vec<_>>());
    }

    #[test]
    fn hopeless_and_errors_end_the_descent_where_they_occur() {
        for disk in [false, true] {
            let (result, seen, spilled, _) = drive(disk, |_| Ok(Verdict::Hopeless(99)));
            assert_eq!((exhausted(result), seen, spilled), (99, vec![(2, false)], 0));
        }
        // An error from the body passes through; what it spilled stays ledgered.
        let cancel =
            |p| if p == 2048 { Err(EngineError::Cancelled) } else { Ok(Verdict::Double(0)) };
        let (result, seen, spilled, _) = drive(true, cancel);
        assert!(matches!(result, Err(EngineError::Cancelled)));
        assert_eq!((seen.last(), spilled), (Some(&(2048, true)), 1200));
    }
}
