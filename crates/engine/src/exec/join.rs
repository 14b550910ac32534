//! Equi-joins: inner, semi, anti, and left outer — morsel-driven.
//!
//! The right input is the build side, as the plan puts it; the join does not
//! swap them. The TPC-H plans in `wimpi-queries` mostly build on the smaller
//! relation, but not always: Q4 and Q18 build on `lineitem` against a probe
//! of about 11 000 and 14 rows at SF 0.2. *How* a probe key finds its build
//! rows is not the plan's to pick: every invocation looks at the key columns,
//! read in place, and takes one of three `Form`s (DESIGN.md §5.1) — a forward
//! cursor when both sides are already in key order, an array indexed by
//! `key − min` when the build's key domain is compact, the hash table
//! otherwise. All three resolve a probe row to the head of its build chain
//! and hand it to one `emit_row`, so join types, duplicate expansion and
//! output order exist once. Duplicate build keys use the classic head+next
//! chain layout, avoiding per-key allocations.
//!
//! Ahead of every form, a bitset of the leading build key may reject the
//! probe rows that cannot match (`Bits`, chosen from the same key vectors):
//! one branch-free pass per probe morsel collects the candidates, and only
//! they reach the form's resolver — or the degradation ladder's partitions.
//!
//! Parallel hash builds partition the build by a deterministic key hash: each
//! partition owner scans all build keys and inserts only its own rows, in
//! global row order, so every chain is laid out exactly as the serial build
//! would lay it out (most-recent-first). The probe then walks left-side
//! morsels independently and the per-morsel selections are concatenated in
//! morsel order — the output row order is bit-identical to the serial join
//! at any thread count (see `exec::parallel`).

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use super::hash::{fx_map, fx_slot, FxMap};
use super::ladder::{self, FromSlots, Verdict};
use super::parallel::{morsel_ranges, run_morsels, run_morsels_spanned, EngineConfig};
use super::{bounds, ensure_u32_indexable, key_values};
use crate::error::{EngineError, Result};
use crate::governor::QueryContext;
use crate::plan::JoinType;
use crate::relation::{Relation, NONE_ROW};
use crate::stats::WorkProfile;
use wimpi_obs::{MorselSink, MorselSpan, Span, Tracer};
use wimpi_storage::{selection, Column, DataType};

/// Estimated bytes per build-side row per key in the hash table — the same
/// constant the work profile charges to `hash_bytes`, so the governor's
/// reservations and the cost model agree about what a build "weighs".
const BUILD_BYTES_PER_ROW_KEY: u64 = 16;

/// Synthetic column marking matched rows in a left outer join.
pub const MATCHED_COL: &str = "__matched";

/// How probe keys find their build rows. Chosen per invocation by
/// [`Form::observe`] from the encoded key vectors alone — never a knob, the
/// budget or the thread count — so the form, the charges that follow from it
/// and the `build` span label that names it are functions of the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// One key, build strictly increasing, probe non-decreasing: a forward
    /// cursor over the build keys per probe morsel. Nothing is built or
    /// reserved, no access is random.
    Cursor,
    /// One key whose build domain `[min, min + span)` is compact: chain heads
    /// in a `Vec<u32>` indexed by `key − min`, duplicates on the `next` chain.
    Offsets { min: i64, span: usize },
    /// Everything else: chain heads in a hash map.
    Hash,
}

impl Form {
    /// One early-exit order pass per side, then one min/max pass over the
    /// leading build key (the cursor's are its ends). The offset array is
    /// taken only when it weighs no more than the hash table it replaces, so
    /// it fits whenever that would have. Also returns that key's `(min,
    /// max)`, which [`Bits::observe`] reads; `None` for an empty build.
    fn observe(lkeys: &[&[i64]], rkeys: &[&[i64]]) -> (Form, Option<(i64, i64)>) {
        let (lk, rk) = (lkeys[0], rkeys[0]);
        let one = rkeys.len() == 1;
        if one && rk.windows(2).all(|w| w[0] < w[1]) && lk.windows(2).all(|w| w[0] <= w[1]) {
            return (Form::Cursor, rk.first().zip(rk.last()).map(|(&lo, &hi)| (lo, hi)));
        }
        let Some((min, max)) = bounds(rk) else { return (Form::Hash, None) };
        // In i128: `i64::MIN` and `i64::MAX` may both be build keys.
        let span = max as i128 - min as i128 + 1;
        let hash_bytes = Form::Hash.table_bytes(rk.len(), 1) as i128;
        let form = if one && 4 * (span + rk.len() as i128) <= hash_bytes {
            Form::Offsets { min, span: span as usize }
        } else {
            Form::Hash
        };
        (form, Some((min, max)))
    }

    fn label(self) -> &'static str {
        match self {
            Form::Cursor => "cursor",
            Form::Offsets { .. } => "offsets",
            Form::Hash => "hash",
        }
    }

    /// The resident build's bytes: what it reserves against the query budget
    /// and what the work profile charges to `hash_bytes`.
    fn table_bytes(self, nright: usize, nkeys: usize) -> u64 {
        match self {
            Form::Cursor => 0,
            Form::Offsets { span, .. } => 4 * (span + nright) as u64,
            Form::Hash => nright as u64 * BUILD_BYTES_PER_ROW_KEY * nkeys as u64,
        }
    }
}

/// `k`'s slot in an offset array starting at `min`. Wrapping is exact: a key
/// outside `[min, min + span)` lands at or past `span` (DESIGN.md §5).
#[inline]
fn offset(k: i64, min: i64) -> usize {
    k.wrapping_sub(min) as u64 as usize
}

/// The leading build key's bitset over its span `[min, min + span)`: the
/// filter ahead of every probe. A probe row whose leading key is not in it
/// cannot match; on a one-key join the converse holds too.
#[derive(Debug)]
struct Bits {
    min: i64,
    span: u64,
    /// One bit per key of the span, then at least one clear bit: every key
    /// outside the span tests bit `span`.
    words: Vec<u64>,
    /// The join has one key, so a candidate is a match.
    exact: bool,
}

impl Bits {
    /// The filter the key vectors call for, from the leading build key's
    /// `(min, max)`: a bitset when it weighs at most one byte per probe row
    /// (`span ≤ 8 × nleft`) and the build keys leave a hole in their span;
    /// otherwise none. A build that covers its span — all of `part`, say —
    /// rejects nothing the forms' own range checks do not.
    fn observe(rk: &[i64], nleft: usize, (min, max): (i64, i64), exact: bool) -> Option<Bits> {
        // In i128, as the offset array's span.
        let span = max as i128 - min as i128 + 1;
        if span > 8 * nleft as i128 {
            return None;
        }
        let bits = Bits::new(rk, min, span as u64, exact);
        let set: u64 = bits.words.iter().map(|w| w.count_ones() as u64).sum();
        (set < bits.span).then_some(bits)
    }

    /// The bitset of `rk`, every key of which lies in `[min, min + span)`.
    fn new(rk: &[i64], min: i64, span: u64, exact: bool) -> Bits {
        let mut words = vec![0u64; (span / 64 + 1) as usize];
        for &k in rk {
            let o = k.wrapping_sub(min) as u64;
            words[(o / 64) as usize] |= 1 << (o % 64);
        }
        Bits { min, span, words, exact }
    }

    /// Appends to `out` the rows of `r` whose leading key `lk[i]` is in the
    /// set, ascending. Branch-free: each row is written, and kept by
    /// advancing past it when its bit is set — one dependent load per row.
    fn candidates(&self, lk: &[i64], r: Range<usize>, out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + r.len(), 0);
        let dst = &mut out[start..];
        let mut m = 0;
        for (i, &k) in r.clone().zip(&lk[r]) {
            let o = (k.wrapping_sub(self.min) as u64).min(self.span);
            dst[m] = i as u32;
            m += (self.words[(o / 64) as usize] >> (o % 64)) as usize & 1;
        }
        out.truncate(start + m);
    }
}

/// Executes an equi-join.
#[allow(clippy::too_many_arguments)]
pub fn exec_join(
    left: &Relation,
    right: &Relation,
    on: &[(String, String)],
    join_type: JoinType,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    if on.is_empty() {
        return Err(EngineError::Plan("join requires at least one key".to_string()));
    }
    ensure_u32_indexable(left.num_rows(), "join (probe side)")?;
    ensure_u32_indexable(right.num_rows(), "join (build side)")?;
    for (l, r) in on {
        let lt = left.data_type(l)?;
        let rt = right.data_type(r)?;
        let joinable =
            |t: DataType| matches!(t, DataType::Int64 | DataType::Int32 | DataType::Date);
        if !joinable(lt) || !joinable(rt) {
            return Err(EngineError::Unsupported(format!(
                "join keys must be integer/date columns, got {l}: {lt} = {r}: {rt}"
            )));
        }
    }
    // Read in place: `Int64` keys are borrowed, not copied.
    let lcols: Vec<Cow<[i64]>> =
        on.iter().map(|(l, _)| Ok(key_values(left.column(l)?))).collect::<Result<_>>()?;
    let rcols: Vec<Cow<[i64]>> =
        on.iter().map(|(_, r)| Ok(key_values(right.column(r)?))).collect::<Result<_>>()?;
    let lkeys: Vec<&[i64]> = lcols.iter().map(|c| &**c).collect();
    let rkeys: Vec<&[i64]> = rcols.iter().map(|c| &**c).collect();

    let (form, range) = Form::observe(&lkeys, &rkeys);
    let bits = range.and_then(|r| Bits::observe(rkeys[0], lkeys[0].len(), r, on.len() == 1));
    let keys = Keys { left: &lkeys, right: &rkeys, form, bits: bits.as_ref() };
    let (lsel, rsel) = join_rows(cfg, &keys, join_type, tracer, ctx, prof)?;

    // Work: build inserts + probe lookups are random accesses — except under
    // the cursor, which makes none — and the build table's real footprint
    // informs the LLC model. Charged once from global row counts and the
    // form, so parallel, serial and budget-degraded runs record identical
    // profiles. A bit test is one dependent load per probe row, as the
    // lookup it stands in for is, so the filter moves no charge.
    let rows = (left.num_rows() + right.num_rows()) as u64;
    if form != Form::Cursor {
        prof.rand_accesses += rows;
    }
    prof.cpu_ops += 2 * rows;
    prof.hash_bytes += form.table_bytes(right.num_rows(), on.len());
    prof.seq_read_bytes += rows * 8 * on.len() as u64;

    // The output selects rows and gathers no column: each side's fields
    // compose one id vector per source, the unmatched rows of a left outer
    // join reading as their type's default.
    let nsel = lsel.len();
    let kept = left.take_ids(lsel, false);
    let out = match join_type {
        JoinType::Inner => kept.concat(right.take_ids(rsel, false))?,
        JoinType::Semi | JoinType::Anti => kept,
        JoinType::LeftOuter => {
            let matched = Column::Bool(rsel.iter().map(|&r| r != NONE_ROW).collect());
            let matched = Relation::new(vec![(MATCHED_COL.to_string(), Arc::new(matched))])?;
            kept.concat(right.take_ids(rsel, true))?.concat(matched)?
        }
    };
    super::filter::charge_gather(left, &out, nsel, prof);
    Ok(out)
}

/// [`probe`] at the hash key type the key count calls for.
fn join_rows(
    cfg: &EngineConfig,
    keys: &Keys<'_>,
    join_type: JoinType,
    tracer: &Tracer,
    ctx: &QueryContext,
    prof: &mut WorkProfile,
) -> Result<Sels> {
    match keys.left.len() {
        1 => probe::<i64>(cfg, keys, join_type, tracer, ctx, prof),
        2 => probe::<(i64, i64)>(cfg, keys, join_type, tracer, ctx, prof),
        _ => probe::<Vec<i64>>(cfg, keys, join_type, tracer, ctx, prof),
    }
}

/// Selected row ids per side: `(left, right)`.
type Sels = (Vec<u32>, Vec<u32>);

/// Both sides' key columns, as read in place, and what the join observed in
/// them: the form and the filter.
struct Keys<'a> {
    left: &'a [&'a [i64]],
    right: &'a [&'a [i64]],
    form: Form,
    bits: Option<&'a Bits>,
}

/// Links build row `row` into its key's chain: `head` maps a key to its most
/// recent build row, `next` threads through the earlier ones.
#[inline]
fn chain<K: Hash + Eq>(head: &mut FxMap<K, u32>, next: &mut [u32], k: K, row: u32) {
    match head.entry(k) {
        Entry::Occupied(mut e) => next[row as usize] = e.insert(row),
        Entry::Vacant(e) => {
            e.insert(row);
        }
    }
}

/// Appends the (left, right) output rows that left row `i` contributes given
/// its head-chain hit — the per-row core shared by every form and by the
/// partitioned probe. A build row past the end of `next` has no chain (the
/// cursor form, whose build keys are unique, passes an empty one).
#[inline]
fn emit_row(i: usize, hit: Option<u32>, next: &[u32], join_type: JoinType, out: &mut Sels) {
    let (lsel, rsel) = out;
    match join_type {
        JoinType::Inner => {
            let mut cur = hit;
            while let Some(r) = cur {
                lsel.push(i as u32);
                rsel.push(r);
                cur = next.get(r as usize).copied().filter(|&n| n != NONE_ROW);
            }
        }
        JoinType::Semi => {
            if hit.is_some() {
                lsel.push(i as u32);
            }
        }
        JoinType::Anti => {
            if hit.is_none() {
                lsel.push(i as u32);
            }
        }
        JoinType::LeftOuter => {
            let mut cur = hit;
            if cur.is_none() {
                lsel.push(i as u32);
                rsel.push(NONE_ROW);
            }
            while let Some(r) = cur {
                lsel.push(i as u32);
                rsel.push(r);
                cur = next.get(r as usize).copied().filter(|&n| n != NONE_ROW);
            }
        }
    }
}

/// Walks the probe rows `rows` given their candidates `cand` (ascending,
/// within `rows`): `matched(j, i, out)` emits the `j`-th candidate, row `i`,
/// and every other row is a miss, which only anti and left-outer joins emit
/// — in row order either way, so the output is the one an unfiltered walk
/// gives.
#[inline]
fn walk_candidates(
    rows: Range<usize>,
    cand: impl IntoIterator<Item = usize>,
    join_type: JoinType,
    out: &mut Sels,
    mut matched: impl FnMut(usize, usize, &mut Sels),
) {
    let misses = matches!(join_type, JoinType::Anti | JoinType::LeftOuter);
    let mut at = rows.start;
    for (j, c) in cand.into_iter().enumerate() {
        if misses {
            (at..c).for_each(|i| emit_row(i, None, &[], join_type, out));
        }
        matched(j, c, out);
        at = c + 1;
    }
    if misses {
        (at..rows.end).for_each(|i| emit_row(i, None, &[], join_type, out));
    }
}

/// Builds on the right (in the form the key vectors allow), probes with the
/// left. Returns selected row ids per side; for semi/anti the right vector is
/// empty; for left outer, unmatched right slots hold `NONE_ROW`.
///
/// The whole build table is reserved against the query budget up front; when
/// it does not fit, [`partitioned_probe`] degrades to a partitioned hash
/// build with the same output and trace structure.
fn probe<K: FromSlots + Send + Sync>(
    cfg: &EngineConfig,
    keys: &Keys<'_>,
    join_type: JoinType,
    tracer: &Tracer,
    ctx: &QueryContext,
    prof: &mut WorkProfile,
) -> Result<Sels> {
    let (lkeys, rkeys, form) = (keys.left, keys.right, keys.form);
    let nright = rkeys[0].len();
    let Some(_guard) = ctx.try_reserve(form.table_bytes(nright, rkeys.len())) else {
        return partitioned_probe::<K>(cfg, keys, join_type, tracer, ctx, prof);
    };
    let build_started = tracer.is_enabled().then(Instant::now);
    let (lk, rk) = (lkeys[0], rkeys[0]);
    let bits = keys.bits;
    let phase = ProbePhase { cfg, form, bits, join_type, tracer, ctx, lk, nright, build_started };
    match form {
        // Binary-search each morsel's start so morsels stay independent,
        // then only ever step forward: both sides ascend, and so do the
        // candidates.
        Form::Cursor => phase.run(&[], |start| {
            let mut at = rk.partition_point(|&k| k < lk[start]);
            move |i| {
                while rk.get(at).is_some_and(|&k| k < lk[i]) {
                    at += 1;
                }
                (rk.get(at) == Some(&lk[i])).then_some(at as u32)
            }
        }),
        // Filled sequentially, in row order: each slot ends up holding its
        // key's most recent build row, `next` the earlier ones — the chains
        // the hash build lays out.
        Form::Offsets { min, span } => {
            let mut heads = vec![NONE_ROW; span];
            let mut next = vec![NONE_ROW; nright];
            for (i, &k) in rk.iter().enumerate() {
                next[i] = std::mem::replace(&mut heads[offset(k, min)], i as u32);
            }
            phase.run(&next, |_| {
                |i| heads.get(offset(lk[i], min)).copied().filter(|&r| r != NONE_ROW)
            })
        }
        Form::Hash => {
            let mut next = vec![NONE_ROW; nright];
            let heads = build_hash::<K>(cfg, rkeys, &mut next, ctx);
            phase.run(&next, |_| {
                |i| {
                    let k = K::at(lkeys, i);
                    let slot = if heads.len() == 1 { 0 } else { fx_slot(&k, heads.len()) };
                    heads[slot].get(&k).copied()
                }
            })
        }
    }
}

/// The hash build: key → most recent build row, one map per build thread,
/// with `next` threading through each key's earlier rows.
///
/// With more than one thread, partition owner `p` scans every build key and
/// inserts only the rows routed to `p`, in global row order — all rows of one
/// key share a partition, so each chain is laid out exactly as the serial
/// build lays it out. (No morsel spans here: the partition count follows the
/// thread count, so per-partition children would break trace-structure
/// determinism — and for the same reason the routing is unobservable, so it
/// uses the table hasher, not the fallbacks' SipHash.)
fn build_hash<K: FromSlots + Send + Sync>(
    cfg: &EngineConfig,
    rkeys: &[&[i64]],
    next: &mut [u32],
    ctx: &QueryContext,
) -> Vec<FxMap<K, u32>> {
    let nright = next.len();
    if cfg.threads <= 1 {
        let mut head: FxMap<K, u32> = fx_map(nright);
        for i in 0..nright {
            chain(&mut head, next, K::at(rkeys, i), i as u32);
        }
        return vec![head];
    }
    let nparts = cfg.threads;
    let part_ranges: Vec<Range<usize>> = (0..nparts).map(|p| p..p + 1).collect();
    let built = run_morsels(cfg, &part_ranges, |p, _| {
        let mut head: FxMap<K, u32> = FxMap::default();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        if ctx.interrupted() {
            return (head, edges);
        }
        for i in 0..nright {
            let k = K::at(rkeys, i);
            if fx_slot(&k, nparts) != p {
                continue;
            }
            match head.entry(k) {
                Entry::Occupied(mut e) => edges.push((i as u32, e.insert(i as u32))),
                Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
            }
        }
        (head, edges)
    });
    let mut heads = Vec::with_capacity(nparts);
    for (head, edges) in built {
        for (row, prev) in edges {
            next[row as usize] = prev;
        }
        heads.push(head);
    }
    heads
}

/// The probe every resident form shares, called once its build (if any) is
/// done: walks the left-side morsels — inline on one thread, in parallel on
/// more — and concatenates the per-morsel selections in morsel order, which
/// is the serial output order. `start(first row)` opens one morsel's resolver
/// from probe row to chain head; under a filter it sees the morsel's
/// candidates only, in ascending order. Workers bail out at morsel
/// boundaries once cancellation is signalled (the partial result is
/// discarded — the final checkpoint turns it into `Cancelled`).
///
/// When tracing, `build` (labelled with the form) and `probe` (labelled with
/// the filter) phase spans are attached to the open join span; the probe span
/// gets one child per `morsel_ranges(nleft, morsel_rows)` morsel at any
/// thread count.
struct ProbePhase<'a> {
    cfg: &'a EngineConfig,
    form: Form,
    bits: Option<&'a Bits>,
    join_type: JoinType,
    tracer: &'a Tracer,
    ctx: &'a QueryContext,
    /// The leading probe key.
    lk: &'a [i64],
    nright: usize,
    build_started: Option<Instant>,
}

impl ProbePhase<'_> {
    fn run<R: FnMut(usize) -> Option<u32>>(
        &self,
        next: &[u32],
        start: impl Fn(usize) -> R + Sync,
    ) -> Result<Sels> {
        let build_ns = elapsed_ns(&self.build_started);
        let probe_started = self.tracer.is_enabled().then(Instant::now);
        let sink = self.tracer.morsel_sink();
        let nleft = self.lk.len();
        let jt = self.join_type;
        let ranges = morsel_ranges(nleft, self.cfg.morsel_rows);
        let parts = run_morsels_spanned(self.cfg, &ranges, &sink, |_, r| {
            let mut out = Sels::default();
            if self.ctx.interrupted() || r.is_empty() {
                return (out, 0);
            }
            let mut resolve = start(r.start);
            let Some(bits) = self.bits else {
                r.for_each(|i| emit_row(i, resolve(i), next, jt, &mut out));
                return (out, 0);
            };
            // Two passes: the bit test over every row, then the resolver
            // over the candidates. A semi or anti join on one key reads only
            // whether a row has a hit, and the bitset already says.
            let mut cand = selection::take_scratch();
            bits.candidates(self.lk, r.clone(), &mut cand);
            let known = bits.exact && matches!(jt, JoinType::Semi | JoinType::Anti);
            let rows = cand.iter().map(|&i| i as usize);
            walk_candidates(r, rows, jt, &mut out, |_, i, out| {
                let hit = if known { Some(NONE_ROW) } else { resolve(i) };
                emit_row(i, hit, next, jt, out);
            });
            let ncand = cand.len();
            selection::put_scratch(cand);
            (out, ncand)
        });
        self.ctx.checkpoint()?;
        let mut parts = parts.into_iter();
        let ((mut lsel, mut rsel), mut ncand) = parts.next().unwrap_or_default();
        for ((l, r), n) in parts {
            lsel.extend(l);
            rsel.extend(r);
            ncand += n;
        }
        let probe = ProbeSpan { rows_out: lsel.len(), ncand, started: probe_started, sink };
        attach_phases(self.tracer, self.form, self.nright, build_ns, nleft, self.bits, probe);
        Ok((lsel, rsel))
    }
}

/// The degraded build below the resident one, down the shared ladder
/// ([`ladder::descend`]): build and probe one partition of both sides at a
/// time, then splice the per-partition outputs back into global left-row
/// order. An attempt fits when the *largest* partition's build table does —
/// sized from the bucket lengths before anything is staged, so a join that
/// spills stages once. Under a filter only the probe's candidates are
/// partitioned: their key slots are gathered and their row ids mapped back,
/// so a rejected row is never hashed, bucketed or staged, and the splice
/// reinserts it as a miss. The build side is the unfiltered join's, so is
/// every fan-out.
///
/// Determinism argument: all rows of one key hash to one partition, and each
/// partition inserts its build rows in ascending global row order — so every
/// chain is laid out exactly as the serial build lays it out, and each left
/// row's matches are emitted in the same order the serial probe emits them.
/// The splice then visits left rows 0..nleft in order, which reproduces the
/// serial output byte for byte. Partition choice depends only on row counts
/// and the budget, never on the thread count.
fn partitioned_probe<K: FromSlots>(
    cfg: &EngineConfig,
    keys: &Keys<'_>,
    join_type: JoinType,
    tracer: &Tracer,
    ctx: &QueryContext,
    prof: &mut WorkProfile,
) -> Result<Sels> {
    const BUILD: usize = 0;
    const PROBE: usize = 1;
    let (lkeys, rkeys) = (keys.left, keys.right);
    let (nleft, nright) = (lkeys[0].len(), rkeys[0].len());
    let traced = tracer.is_enabled();
    let sink = tracer.morsel_sink();
    let build_started = traced.then(Instant::now);
    // Linear bookkeeping (partition hashes and buckets, the shared chain
    // array — about 8 B/row) is *measured* but not capped: like selection
    // vectors and materialized outputs it streams sequentially, and only the
    // random-access hash table is what thrashes a wimpy node (the same line
    // the cluster's MemoryModel draws around `hash_bytes`).
    ctx.track((nleft + nright) as u64 * 8);

    // The probe rows the ladder partitions: the candidates, with their key
    // slots gathered, or every row, with its key columns as they are.
    let cand = keys.bits.map(|bits| {
        let mut cand = Vec::new();
        bits.candidates(lkeys[0], 0..nleft, &mut cand);
        cand
    });
    let gathered: Vec<Vec<i64>> = match &cand {
        Some(cand) => lkeys.iter().map(|k| cand.iter().map(|&i| k[i as usize]).collect()).collect(),
        None => Vec::new(),
    };
    let pkeys = if cand.is_some() { ladder::as_slices(&gathered) } else { lkeys.to_vec() };
    let nprobe = cand.as_ref().map_or(nleft, Vec::len);
    let row_of = |at: usize| cand.as_ref().map_or(at, |c| c[at] as usize);

    let table_bytes = |rows: usize| Form::Hash.table_bytes(rows, rkeys.len());
    let inputs = [(nright, rkeys), (nprobe, &pkeys[..])];
    let (sels, build_ns, probe_started) =
        ladder::descend::<K, _>(ctx, prof, "join build", &inputs, |att| {
            let need = table_bytes(att.largest(BUILD));
            if ctx.try_reserve(need).is_none() {
                return Ok(Verdict::Double(need));
            }
            let parts = att.stage()?;
            let build_ns = elapsed_ns(&build_started);
            let probe_started = traced.then(Instant::now);

            // One partition at a time: build, probe, drop. Each partition's
            // output is keyed by global row ids, ascending.
            let mut next: Vec<u32> = vec![NONE_ROW; nright];
            let mut part_sels: Vec<Sels> = Vec::with_capacity(parts.len());
            for p in parts.iter() {
                let p = p?;
                let _table = ctx.reserve(table_bytes(parts.rows_in(BUILD, p)), "join build")?;
                let mut head: FxMap<K, u32> = fx_map(parts.rows_in(BUILD, p));
                let mut out = Sels::default();
                for (row, k) in parts.rows(BUILD, p)? {
                    chain(&mut head, &mut next, k, row);
                }
                for (at, k) in parts.rows(PROBE, p)? {
                    emit_row(
                        row_of(at as usize),
                        head.get(&k).copied(),
                        &next,
                        join_type,
                        &mut out,
                    );
                }
                part_sels.push(out);
            }

            // Splice back to global left-row order, the rejected rows as
            // misses between the candidates.
            let mut cursors = vec![0usize; parts.len()];
            let mut out = Sels::default();
            let cand_rows = (0..nprobe).map(row_of);
            walk_candidates(0..nleft, cand_rows, join_type, &mut out, |at, i, (lsel, rsel)| {
                let p = parts.part_of(PROBE, at);
                let (pl, pr) = &part_sels[p];
                let c = &mut cursors[p];
                while *c < pl.len() && pl[*c] == i as u32 {
                    lsel.push(i as u32);
                    if !pr.is_empty() {
                        rsel.push(pr[*c]);
                    }
                    *c += 1;
                }
            });
            Ok(Verdict::Fit((out, build_ns, probe_started)))
        })?;

    // Identical trace structure to the resident-build paths: the probe span
    // carries one child per left morsel (synthetic here — the fallback
    // probes by partition, but the *structure* must not leak the budget).
    if sink.is_enabled() {
        for (mi, r) in morsel_ranges(nleft, cfg.morsel_rows).into_iter().enumerate() {
            sink.record(MorselSpan { index: mi, rows: r.len() as u64, worker: 0, wall_ns: 0 });
        }
    }
    let probe = ProbeSpan { rows_out: sels.0.len(), ncand: nprobe, started: probe_started, sink };
    attach_phases(tracer, keys.form, nright, build_ns, nleft, keys.bits, probe);
    Ok(sels)
}

#[inline]
fn elapsed_ns(started: &Option<Instant>) -> u64 {
    started.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
}

/// What the `probe` span reports: its output rows, the filter's candidates,
/// its start and its morsel children.
struct ProbeSpan {
    rows_out: usize,
    ncand: usize,
    started: Option<Instant>,
    sink: MorselSink,
}

/// Attaches `build` (labelled with the form the key vectors selected — also
/// when the budget degraded it to partitions) and `probe` (labelled `bits:
/// <candidates>` under a filter, else empty; with its morsel children) phase
/// spans to the open join span. Both labels come from the data, so the tree
/// is the same at any thread count and budget. No-op when the tracer is
/// disabled.
fn attach_phases(
    tracer: &Tracer,
    form: Form,
    nright: usize,
    build_ns: u64,
    nleft: usize,
    bits: Option<&Bits>,
    span: ProbeSpan,
) {
    if !tracer.is_enabled() {
        return;
    }
    let mut build = Span::leaf("build", form.label());
    build.rows_in = nright as u64;
    build.rows_out = nright as u64;
    build.wall_ns = build_ns;
    let label = bits.map_or_else(String::new, |_| format!("bits: {}", span.ncand));
    let mut probe = Span::leaf("probe", &label);
    probe.rows_in = nleft as u64;
    probe.rows_out = span.rows_out as u64;
    probe.wall_ns = elapsed_ns(&span.started);
    probe.children = span.sink.into_spans();
    tracer.attach(build);
    tracer.attach(probe);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::filter::exec_filter;
    use crate::exec::Ledger;
    use crate::expr::{col, lit};
    use wimpi_storage::Value;

    fn rel(pairs: Vec<(&str, Vec<i64>)>) -> Relation {
        Relation::new(
            pairs.into_iter().map(|(n, v)| (n.to_string(), Arc::new(Column::Int64(v)))).collect(),
        )
        .unwrap()
    }

    fn run(l: &Relation, r: &Relation, on: Vec<(&str, &str)>, jt: JoinType) -> Relation {
        let on: Vec<(String, String)> =
            on.into_iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        let mut p = WorkProfile::new();
        let ctx = QueryContext::default();
        exec_join(l, r, &on, jt, &mut p, &EngineConfig::serial(), Tracer::off(), &ctx).unwrap()
    }

    /// Joins on `lk = rk` under `cfg` and `ctx`; the profile comes back even
    /// when the join fails.
    fn join(
        l: &Relation,
        r: &Relation,
        jt: JoinType,
        cfg: &EngineConfig,
        ctx: &QueryContext,
    ) -> (Result<Relation>, WorkProfile) {
        let mut p = WorkProfile::new();
        let on = [("lk".to_string(), "rk".to_string())];
        let out = exec_join(l, r, &on, jt, &mut p, cfg, Tracer::off(), ctx);
        (out, p)
    }

    #[test]
    fn inner_join_matches_keys() {
        let l = rel(vec![("lk", vec![1, 2, 3, 2]), ("lv", vec![10, 20, 30, 40])]);
        let r = rel(vec![("rk", vec![2, 4]), ("rv", vec![200, 400])]);
        let out = run(&l, &r, vec![("lk", "rk")], JoinType::Inner);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("lv").unwrap().as_i64().unwrap(), &[20, 40]);
        assert_eq!(out.column("rv").unwrap().as_i64().unwrap(), &[200, 200]);
    }

    #[test]
    fn inner_join_expands_duplicates() {
        let l = rel(vec![("lk", vec![1])]);
        let r = rel(vec![("rk", vec![1, 1, 1])]);
        let out = run(&l, &r, vec![("lk", "rk")], JoinType::Inner);
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let l = rel(vec![("lk", vec![1, 2, 3])]);
        let r = rel(vec![("rk", vec![2, 2])]);
        let semi = run(&l, &r, vec![("lk", "rk")], JoinType::Semi);
        assert_eq!(semi.column("lk").unwrap().as_i64().unwrap(), &[2]);
        let anti = run(&l, &r, vec![("lk", "rk")], JoinType::Anti);
        assert_eq!(anti.column("lk").unwrap().as_i64().unwrap(), &[1, 3]);
        assert_eq!(semi.num_rows() + anti.num_rows(), l.num_rows());
    }

    #[test]
    fn left_outer_marks_matches() {
        let l = rel(vec![("lk", vec![1, 2])]);
        let r = rel(vec![("rk", vec![2]), ("rv", vec![99])]);
        let out = run(&l, &r, vec![("lk", "rk")], JoinType::LeftOuter);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(MATCHED_COL).unwrap().as_bool().unwrap(), &[false, true]);
        assert_eq!(out.column("rv").unwrap().as_i64().unwrap(), &[0, 99]);
    }

    #[test]
    fn two_key_join() {
        let l = rel(vec![("a", vec![1, 1, 2]), ("b", vec![10, 20, 10])]);
        let r = rel(vec![("c", vec![1, 2]), ("d", vec![20, 10]), ("rv", vec![7, 8])]);
        let out = run(&l, &r, vec![("a", "c"), ("b", "d")], JoinType::Inner);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("rv").unwrap().as_i64().unwrap(), &[7, 8]);
    }

    #[test]
    fn string_keys_rejected() {
        let l =
            Relation::new(vec![("s".into(), Arc::new(Column::Str(["a"].into_iter().collect())))])
                .unwrap();
        let r = rel(vec![("rk", vec![1])]);
        let mut p = WorkProfile::new();
        let err = exec_join(
            &l,
            &r,
            &[("s".to_string(), "rk".to_string())],
            JoinType::Inner,
            &mut p,
            &EngineConfig::serial(),
            Tracer::off(),
            &QueryContext::default(),
        );
        assert!(matches!(err, Err(EngineError::Unsupported(_))));
    }

    #[test]
    fn parallel_join_matches_serial_exactly() {
        // Duplicate keys on both sides so chain layout and duplicate
        // expansion order are exercised; tiny morsels force multi-morsel
        // probes. All join types must be bit-identical to serial.
        let n = 200i64;
        let l = rel(vec![("lk", (0..n).map(|i| i % 17).collect()), ("lv", (0..n).collect())]);
        let r = rel(vec![
            ("rk", (0..60).map(|i| i % 23).collect()),
            ("rv", (0..60).map(|i| i * 3).collect()),
        ]);
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter] {
            let on = [("lk".to_string(), "rk".to_string())];
            let mut sp = WorkProfile::new();
            let ctx = QueryContext::default();
            let serial =
                exec_join(&l, &r, &on, jt, &mut sp, &EngineConfig::serial(), Tracer::off(), &ctx)
                    .unwrap();
            for threads in [2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
                let mut pp = WorkProfile::new();
                let ctx = QueryContext::default();
                let par = exec_join(&l, &r, &on, jt, &mut pp, &cfg, Tracer::off(), &ctx).unwrap();
                assert_eq!(par, serial, "{jt:?} diverged at {threads} threads");
                assert_eq!(pp, sp, "{jt:?} profile diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn grace_fallback_is_bit_exact_and_budget_bounded() {
        // Duplicate keys exercise the chain layout the determinism argument
        // leans on. The 60 build rows' 23 compact keys get the offset array:
        // 4 B × (23 slots + 60 chain links) = 332 B resident, where the hash
        // table weighed 960 B. A budget under that forces the Grace path —
        // hash partitions, as ever — at every thread count.
        let n = 200i64;
        let l = rel(vec![("lk", (0..n).map(|i| i % 17).collect()), ("lv", (0..n).collect())]);
        let r = rel(vec![
            ("rk", (0..60).map(|i| i % 23).collect()),
            ("rv", (0..60).map(|i| i * 3).collect()),
        ]);
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter] {
            let on = [("lk".to_string(), "rk".to_string())];
            let (want, _) = join(&l, &r, jt, &EngineConfig::serial(), &QueryContext::default());
            let want = want.unwrap();
            for threads in [1, 2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
                let ctx = QueryContext::with_budget(300);
                let mut p = WorkProfile::new();
                let got = exec_join(&l, &r, &on, jt, &mut p, &cfg, Tracer::off(), &ctx).unwrap();
                assert_eq!(got, want, "{jt:?} grace diverged at {threads} threads");
                // Pinned: partition assignment decides the fan-out, and must
                // not drift silently.
                assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 8), "{jt:?}");
                assert_eq!(p.spilled_bytes, 0);
                assert_eq!(ctx.mem.used(), 0, "{jt:?}: all reservations released");
            }
        }
        // A budget below one key's chain (keys repeat 3×: 48 B minimum even
        // at max fan-out) errors, typed.
        let ctx = QueryContext::with_budget(40);
        let err = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx).0.unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "join build"),
            "got {err:?}"
        );
        assert_eq!(ctx.mem.used(), 0, "failed join released everything");
    }

    fn spill_disk(cfg: wimpi_storage::SpillConfig) -> Arc<wimpi_storage::SpillDisk> {
        Arc::new(wimpi_storage::SpillDisk::new(cfg))
    }

    /// A join whose build is too large for Grace's 1024-partition cap under
    /// the budget, but fits once the spill rung keeps doubling: 20 000
    /// distinct build keys at a budget of ~8 table rows needs several
    /// thousand partitions.
    fn spill_join_inputs() -> (Relation, Relation) {
        let l = rel(vec![("lk", (0..2_000i64).rev().map(|i| (i * 7) % 20_000).collect())]);
        let r = rel(vec![
            ("rk", (0..20_000i64).collect()),
            ("rv", (0..20_000i64).map(|i| i * 3).collect()),
        ]);
        (l, r)
    }

    #[test]
    fn spill_rung_is_bit_exact_past_grace() {
        let (l, r) = spill_join_inputs();
        let on = [("lk".to_string(), "rk".to_string())];
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter] {
            let (want, _) = join(&l, &r, jt, &EngineConfig::serial(), &QueryContext::default());
            let want = want.unwrap();
            for threads in [1, 2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(257);
                let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(4 << 20));
                let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
                let mut p = WorkProfile::new();
                let got = exec_join(&l, &r, &on, jt, &mut p, &cfg, Tracer::off(), &ctx).unwrap();
                assert_eq!(got, want, "{jt:?} spill diverged at {threads} threads");
                // Pinned (see the Grace test): 22 000 staged 12-byte records.
                assert_eq!(p.spilled_bytes, 264_000, "{jt:?}: the spill rung must engage");
                assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 16384), "{jt:?}");
                assert_eq!(disk.used(), 0, "{jt:?}: all spill chunks freed");
                assert_eq!(ctx.mem.used(), 0, "{jt:?}: all reservations released");
            }
        }
    }

    /// A selective join: 12 500 probe keys against 20 000 build keys spread
    /// over a 99 996-key span (every fifth), so one probe row in five is a
    /// candidate and the bitset filters the probe — through the ladder too.
    fn selective_join_inputs() -> (Relation, Relation) {
        let l = rel(vec![("lk", (0..12_500i64).map(|i| i * 7919 % 100_000).collect())]);
        let r = rel(vec![
            ("rk", (0..20_000i64).map(|i| i * 5).collect()),
            ("rv", (0..20_000i64).collect()),
        ]);
        (l, r)
    }

    /// One traced join: its answer, its profile and its `probe` label.
    fn traced_join(
        l: &Relation,
        r: &Relation,
        jt: JoinType,
        cfg: &EngineConfig,
        ctx: &QueryContext,
    ) -> (Relation, WorkProfile, String) {
        let tracer = Tracer::enabled();
        tracer.push("join", "");
        let (mut p, on) = (WorkProfile::new(), [("lk".to_string(), "rk".to_string())]);
        let out = exec_join(l, r, &on, jt, &mut p, cfg, &tracer, ctx).unwrap();
        tracer.pop(0, 0, Vec::new());
        let span = tracer.take_root().unwrap();
        assert_eq!(span.children[1].op, "probe");
        (out, p, span.children[1].label.clone())
    }

    /// Down the ladder — Grace, and the spill rung with a disk — the filter
    /// partitions the candidates only: the same answer and the same `probe`
    /// label as the resident run at every thread count, the same fan-out as
    /// an unfiltered probe would take (the build side decides it), and staged
    /// records for the 2 500 candidates, not the 12 500 probe rows.
    #[test]
    fn the_ladder_partitions_only_the_candidates() {
        let (l, r) = selective_join_inputs();
        for jt in ALL_TYPES {
            let serial = EngineConfig::serial();
            let (want, want_prof, label) =
                traced_join(&l, &r, jt, &serial, &QueryContext::default());
            assert_eq!(label, "bits: 2500", "{jt:?}");
            for threads in [1, 2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(1000);
                let ctx = QueryContext::with_budget(8 << 10);
                let (got, p, got_label) = traced_join(&l, &r, jt, &cfg, &ctx);
                assert_eq!((&got, &got_label), (&want, &label), "{jt:?} Grace, {threads} threads");
                assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 64), "{jt:?}");
                assert_eq!((p.spilled_bytes, p.hash_bytes), (0, want_prof.hash_bytes));
                assert_eq!(ctx.used(), 0, "{jt:?}: all reservations released");

                let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(4 << 20));
                let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
                let (got, p, got_label) = traced_join(&l, &r, jt, &cfg, &ctx);
                assert_eq!((&got, &got_label), (&want, &label), "{jt:?} spill, {threads} threads");
                assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 32768), "{jt:?}");
                // Pinned: 20 000 build + 2 500 candidate 12-byte records.
                assert_eq!(p.spilled_bytes, 12 * 22_500, "{jt:?}: candidates only");
                assert_eq!((ctx.used(), disk.used()), (0, 0), "{jt:?}: all released");
            }
        }
    }

    #[test]
    fn spill_rung_survives_injected_faults_bit_exactly() {
        use wimpi_storage::SpillFaults;
        let (l, r) = spill_join_inputs();
        let (want, _) =
            join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &QueryContext::default());
        let want = want.unwrap();
        // 1-in-8 per fault kind: thousands of partition chunks guarantee
        // many injected corruptions, while 16 retries make an exhausted
        // chunk (p ≈ 0.23¹⁷ per chunk) impossible in practice.
        let cfg = wimpi_storage::SpillConfig::with_capacity(4 << 20)
            .with_faults(SpillFaults::every(42, 8))
            .with_max_read_retries(16);
        let disk = spill_disk(cfg);
        let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
        let (got, p) = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx);
        let got = got.unwrap();
        assert_eq!(got, want, "faulted spill run must stay bit-exact");
        assert!(p.spill_corruptions_detected > 0, "fault injection must fire");
        assert_eq!(
            p.spill_read_retries, p.spill_corruptions_detected,
            "every detection forced one verified retry"
        );
        assert_eq!(disk.used(), 0);
    }

    #[test]
    fn spill_rung_escalates_on_disk_full_and_frees_chunks() {
        let (l, r) = spill_join_inputs();
        let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(1024));
        let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
        let (err, p) = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx);
        let err = err.unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. }
                if operator.contains("spill disk full")),
            "got {err:?}"
        );
        assert!(p.spilled_bytes > 0, "partial spill traffic stays on the ledger");
        assert_eq!(disk.used(), 0, "failed spill freed its chunks");
        assert_eq!(ctx.mem.used(), 0);
    }

    #[test]
    fn spill_rung_escalates_persistent_corruption_to_integrity() {
        use wimpi_storage::SpillFaults;
        let (l, r) = spill_join_inputs();
        let cfg = wimpi_storage::SpillConfig::with_capacity(4 << 20)
            .with_faults(SpillFaults { seed: 9, torn_every: 0, corrupt_every: 1, slow_every: 0 })
            .with_max_read_retries(2);
        let disk = spill_disk(cfg);
        let ctx = QueryContext::with_budget(128).with_spill(Arc::clone(&disk));
        let err = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx).0.unwrap_err();
        assert!(
            matches!(err, EngineError::Integrity { ref table, .. } if table == "__spill"),
            "got {err:?}"
        );
        assert_eq!(disk.used(), 0, "escalation still freed the chunks");
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn impossible_budget_still_errors_with_a_spill_disk() {
        // Keys repeat 3×, so even the deepest fan-out cannot shrink a partition
        // below one 48 B chain — the typed error must survive the disk.
        let n = 200i64;
        let l = rel(vec![("lk", (0..n).map(|i| i % 17).collect())]);
        let r = rel(vec![("rk", (0..60).map(|i| i % 23).collect())]);
        let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(4 << 20));
        let ctx = QueryContext::with_budget(40).with_spill(Arc::clone(&disk));
        let (err, p) = join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &ctx);
        let err = err.unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "join build"),
            "got {err:?}"
        );
        // Sized from the bucket lengths: a doomed query never reaches the disk.
        assert_eq!(p.spilled_bytes, 0);
        assert_eq!(disk.sim_seconds(), 0.0);
        assert_eq!(disk.used(), 0);
        assert_eq!(ctx.used(), 0);
    }
    const ALL_TYPES: [JoinType; 4] =
        [JoinType::Inner, JoinType::Semi, JoinType::Anti, JoinType::LeftOuter];

    /// Row selections of `lkeys ⋈ rkeys` in `form` behind the filter `bits`,
    /// called the way `exec_join` calls them — the form and the filter are
    /// arguments here, never a switch out there.
    fn sels(
        (lkeys, rkeys): (&[&[i64]], &[&[i64]]),
        form: Form,
        bits: Option<&Bits>,
        jt: JoinType,
        cfg: &EngineConfig,
    ) -> Sels {
        let (ctx, mut p) = (QueryContext::default(), WorkProfile::new());
        let keys = Keys { left: lkeys, right: rkeys, form, bits };
        let out = join_rows(cfg, &keys, jt, Tracer::off(), &ctx, &mut p);
        assert_eq!(ctx.used(), 0);
        out.unwrap()
    }

    const CONFIGS: [(usize, usize); 6] = [(1, 5), (2, 5), (4, 5), (1, 64), (2, 64), (4, 64)];

    /// The filters that are *valid* for a build: none, the observed one, and
    /// a bitset over the leading key's whole span when that is small enough
    /// to allocate — the empty span for an empty build.
    fn filters(lkeys: &[&[i64]], rkeys: &[&[i64]]) -> Vec<Option<Bits>> {
        let (rk, exact) = (rkeys[0], rkeys.len() == 1);
        let (_, range) = Form::observe(lkeys, rkeys);
        let mut out = vec![None, range.and_then(|r| Bits::observe(rk, lkeys[0].len(), r, exact))];
        match range {
            None => out.push(Some(Bits::new(rk, 0, 0, exact))),
            Some((min, max)) => {
                if let Some(span) = max.checked_sub(min).filter(|d| *d < 1 << 16) {
                    out.push(Some(Bits::new(rk, min, span as u64 + 1, exact)));
                }
            }
        }
        out
    }

    /// Every form that is *valid* for the input (the observed one, and the
    /// offset array over any domain small enough to allocate), behind every
    /// valid filter, selects exactly the unfiltered hash form's rows in its
    /// order, for every join type, at 1/2/4 threads and two morsel sizes.
    fn forms_match_the_hash_form(lk: &[i64], rk: &[i64]) {
        let keys: (&[&[i64]], &[&[i64]]) = (&[lk], &[rk]);
        let (observed, _) = Form::observe(keys.0, keys.1);
        let mut forms = vec![observed];
        if let (Some(&min), Some(&max)) = (rk.iter().min(), rk.iter().max()) {
            if let Some(span) = max.checked_sub(min).filter(|d| *d < 1 << 16) {
                forms.push(Form::Offsets { min, span: span as usize + 1 });
            }
        }
        let strictly_up = rk.windows(2).all(|w| w[0] < w[1]);
        let up = lk.windows(2).all(|w| w[0] <= w[1]);
        assert_eq!(observed == Form::Cursor, strictly_up && up, "cursor iff both sides in order");
        let filters = filters(keys.0, keys.1);
        for jt in ALL_TYPES {
            let want = sels(keys, Form::Hash, None, jt, &EngineConfig::serial());
            for form in &forms {
                for bits in &filters {
                    for (threads, morsel) in CONFIGS {
                        let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel);
                        let got = sels(keys, *form, bits.as_ref(), jt, &cfg);
                        let what =
                            format!("{form:?} {bits:?} {jt:?} {threads} threads, morsel {morsel}");
                        assert_eq!(got, want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn forms_match_the_hash_form_on_the_edge_shapes() {
        let up: Vec<i64> = (0..40).map(|i| i * 3).collect();
        let dups: Vec<i64> = (0..40).map(|i| i / 3).collect();
        let mut inverted = up.clone();
        inverted.push(0); // one inversion, at the very end
        let extremes = [i64::MIN, -1, 0, i64::MAX];
        // Probe keys below the build's `min` and above its `max`, around it.
        let outside: Vec<i64> = (-20..140).step_by(7).collect();
        // 80 probe rows against a 640-key span with a hole: exactly one byte
        // of bitset per probe row, so the filter is taken; 79 rows, not.
        let sparse: Vec<i64> = (0..640).filter(|k| k % 5 == 0 || *k == 639).collect();
        let at_limit: Vec<i64> = (0..80).map(|i| i * 11 % 700 - 30).collect();
        let short = &at_limit[..79];
        let shapes: [&[i64]; 11] = [
            &up,
            &dups,
            &inverted,
            &[7; 9],
            &[],
            &[5],
            &extremes,
            &[i64::MAX, i64::MIN],
            &outside,
            &at_limit,
            short,
        ];
        for lk in shapes {
            for rk in shapes.iter().copied().chain([&sparse[..]]) {
                forms_match_the_hash_form(lk, rk);
            }
        }
    }

    /// On two keys the filter tests the leading key only — a necessary
    /// condition — and the hash form, with or without it, selects the same
    /// rows in the same order.
    #[test]
    fn a_leading_key_filter_matches_the_unfiltered_two_key_join() {
        let l0: Vec<i64> = (0..300).map(|i| i * 7 % 200).collect();
        let l1: Vec<i64> = (0..300).map(|i| i % 3).collect();
        let r0: Vec<i64> = (0..60).map(|i| i * 13 % 190).collect();
        let r1: Vec<i64> = (0..60).map(|i| i % 2).collect();
        let keys: (&[&[i64]], &[&[i64]]) = (&[&l0, &l1], &[&r0, &r1]);
        assert_eq!(Form::observe(keys.0, keys.1).0, Form::Hash);
        let filters = filters(keys.0, keys.1);
        let observed = filters[1].as_ref().expect("a sparse leading key is filtered");
        assert!(!observed.exact, "two keys: the filter is only necessary");
        for jt in ALL_TYPES {
            let want = sels(keys, Form::Hash, None, jt, &EngineConfig::serial());
            for bits in &filters {
                for (threads, morsel) in CONFIGS {
                    let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel);
                    let got = sels(keys, Form::Hash, bits.as_ref(), jt, &cfg);
                    assert_eq!(got, want, "{bits:?} {jt:?} {threads} threads, morsel {morsel}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn forms_match_the_hash_form_on_random_keys(
            l in proptest::collection::vec(-20i64..60, 0..90),
            r in proptest::collection::vec(-20i64..60, 0..50),
            sort_l in proptest::prelude::any::<bool>(),
            shape_r in 0usize..3,
        ) {
            let (mut l, mut r) = (l, r);
            if sort_l {
                l.sort_unstable();
            }
            match shape_r {
                0 => {}
                1 => r.sort_unstable(), // sorted with duplicates: the cursor must decline
                _ => {
                    r.sort_unstable();
                    r.dedup();
                }
            }
            forms_match_the_hash_form(&l, &r);
        }
    }

    #[test]
    fn observe_reads_the_form_off_the_key_vectors() {
        let form = |lk: &[i64], rk: &[i64]| Form::observe(&[lk], &[rk]).0;
        assert_eq!(form(&[1, 1, 4, 9], &[1, 4, 1000]), Form::Cursor);
        assert_eq!(form(&[], &[]), Form::Cursor, "nothing to build, nothing to probe");
        // Duplicate build keys, or a probe out of order: never the cursor.
        assert_eq!(form(&[1, 4], &[1, 4, 4]), Form::Offsets { min: 1, span: 4 });
        assert_eq!(form(&[4, 1], &[1, 4, 6]), Form::Offsets { min: 1, span: 6 });
        assert_eq!(form(&[4, 1], &[1, 4, 1000]), Form::Hash, "1000 slots for 3 rows");
        // Compact means 4 B × (slots + rows) ≤ the hash table's 16 B × rows.
        assert_eq!(form(&[2, 1], &[0, 9, 3]), Form::Hash);
        assert_eq!(form(&[2, 1], &[0, 8, 3]), Form::Offsets { min: 0, span: 9 });
        assert_eq!(form(&[2, 1], &[9, 9, 9]), Form::Offsets { min: 9, span: 1 });
        // `max − min + 1` is taken in i128.
        assert_eq!(form(&[0, -1], &[i64::MAX, i64::MIN]), Form::Hash);
        assert_eq!(form(&[0, 1], &[i64::MIN, i64::MAX]), Form::Cursor);
        assert_eq!(
            form(&[i64::MIN, 0], &[i64::MAX - 1, i64::MAX, i64::MAX - 1]).label(),
            "offsets"
        );
        // More than one key column: the hash form.
        let two: [&[i64]; 2] = [&[1, 2], &[1, 2]];
        assert_eq!(Form::observe(&two, &two).0, Form::Hash);
    }

    /// The filter is read off the key vectors and the probe row count alone:
    /// a bitset over the leading build key's span when that weighs at most
    /// one byte per probe row and the build leaves a hole in it.
    #[test]
    fn observe_reads_the_filter_off_the_key_vectors() {
        let kind = |lkeys: &[&[i64]], rkeys: &[&[i64]]| {
            let (_, range) = Form::observe(lkeys, rkeys);
            let bits = range.and_then(|r| Bits::observe(rkeys[0], lkeys[0].len(), r, false));
            bits.map(|b| (b.min, b.span))
        };
        let kind1 = |lk: &[i64], rk: &[i64]| kind(&[lk], &[rk]);
        let probe = |n: i64| (0..n).map(|i| i * 37 % 500).collect::<Vec<_>>();
        // An 800-key span with a hole: ≥ 100 probe rows take the bitset.
        let sparse = [0i64, 500, 799];
        assert_eq!(kind1(&probe(100), &sparse), Some((0, 800)), "span / 8 == probe rows");
        assert_eq!(kind1(&probe(99), &sparse), None, "one probe row short");
        assert_eq!(kind1(&probe(1000), &sparse), Some((0, 800)));
        // The same under the cursor, whose range is its ends.
        let mut sorted = probe(100);
        sorted.sort_unstable();
        assert_eq!(Form::observe(&[&sorted], &[&sparse]).0, Form::Cursor);
        assert_eq!(kind1(&sorted, &sparse), Some((0, 800)));
        // A build that covers its span gets none, duplicates or not.
        let dense: Vec<i64> = (0..800).rev().collect();
        assert_eq!(kind1(&probe(1000), &dense), None, "dense");
        let dense_dups: Vec<i64> = dense.iter().chain(&[5, 5, 799]).copied().collect();
        assert_eq!(kind1(&probe(1000), &dense_dups), None, "dense with duplicates");
        let mut holed = dense.clone();
        holed[400] = 0;
        assert_eq!(kind1(&probe(1000), &holed), Some((0, 800)), "one hole is enough");
        // No build, no range, no filter; and the span is taken in i128.
        assert_eq!(kind1(&probe(100), &[]), None, "empty build");
        assert_eq!(kind1(&probe(100), &[i64::MIN, i64::MAX]), None);
        assert_eq!(kind1(&probe(100), &[i64::MAX, i64::MAX - 9]), Some((i64::MAX - 9, 10)));
        assert_eq!(kind1(&[i64::MIN, 0], &[i64::MIN + 2, i64::MIN]), Some((i64::MIN, 3)));
        // Two keys: the leading one decides, whatever the second holds.
        let (l1, r1) = (vec![0; 100], vec![1, 2, 3]);
        assert_eq!(kind(&[&probe(100), &l1], &[&sparse, &r1]), Some((0, 800)));
        assert_eq!(kind(&[&probe(100), &l1], &[&dense[..3], &r1]), None);
    }

    /// The bit test keeps exactly the rows whose key is a build key, in
    /// order, whatever the span and wherever the keys fall outside it.
    #[test]
    fn candidates_are_the_rows_whose_key_is_in_the_build() {
        for (rk, min) in [(vec![3i64, 9, 70, 64, 63], 3), (vec![i64::MIN, i64::MIN + 5], i64::MIN)]
        {
            let max = *rk.iter().max().unwrap();
            let bits = Bits::new(&rk, min, (max - min) as u64 + 1, true);
            let lk: Vec<i64> =
                rk.iter().flat_map(|&k| [k, k.wrapping_add(1), k.wrapping_sub(1)]).collect();
            let lk: Vec<i64> = lk.into_iter().chain([i64::MIN, i64::MAX, 0, -1]).collect();
            let want: Vec<u32> =
                (0..lk.len() as u32).filter(|&i| rk.contains(&lk[i as usize])).collect();
            let mut got = vec![99];
            bits.candidates(&lk, 0..lk.len(), &mut got);
            assert_eq!(got[1..], want[..], "appended after what was there");
            let mut tail = Vec::new();
            bits.candidates(&lk, 4..lk.len(), &mut tail);
            assert_eq!(tail, want.iter().copied().filter(|&i| i >= 4).collect::<Vec<_>>());
        }
    }

    #[test]
    fn offsets_chain_duplicates_most_recent_first() {
        let got = sels(
            (&[&[7, 5, 6]], &[&[5, 7, 5, 5]]),
            Form::Offsets { min: 5, span: 3 },
            None,
            JoinType::Inner,
            &EngineConfig::serial(),
        );
        assert_eq!(got, (vec![0, 1, 1, 1], vec![1, 3, 2, 0]));
    }

    /// Through `exec_join`: relations and work profiles are identical at every
    /// thread count and morsel size whichever form the data selects, on
    /// `Int32` and `Date` keys too; the cursor charges no random access and no
    /// table, the offset array its real bytes.
    #[test]
    fn every_form_is_thread_and_morsel_invariant_with_the_stated_charges() {
        let int32 =
            |v: Vec<i64>| Arc::new(Column::Int32(v.into_iter().map(|x| x as i32).collect()));
        let date = |v: Vec<i64>| Arc::new(Column::Date(v.into_iter().map(|x| x as i32).collect()));
        let rel2 = |k: &str, kc: Arc<Column>, v: &str| {
            let payload = Arc::new(Column::Int64((0..kc.len() as i64).collect()));
            Relation::new(vec![(k.to_string(), kc), (v.to_string(), payload)]).unwrap()
        };
        let probe_sorted: Vec<i64> = (0..300).map(|i| i / 2).collect();
        let probe_mixed: Vec<i64> = (0..300).map(|i| (i * 37) % 150).collect();
        let build_unique: Vec<i64> = (0..100).map(|i| i * 2).collect();
        let build_dups: Vec<i64> = (0..100).map(|i| (i * 7) % 40).collect();
        let build_sparse: Vec<i64> = (0..100).map(|i| (i * 7919) % 5000).collect();
        let cases = [
            (
                "cursor",
                rel2("lk", int32(probe_sorted.clone()), "lv"),
                rel2("rk", int32(build_unique.clone()), "rv"),
                0,
                0,
            ),
            (
                "offsets",
                rel2("lk", date(probe_mixed.clone()), "lv"),
                rel2("rk", date(build_dups), "rv"),
                400,
                4 * (40 + 100),
            ),
            (
                "hash",
                rel2("lk", int32(probe_mixed), "lv"),
                rel2("rk", int32(build_sparse), "rv"),
                400,
                1600,
            ),
        ];
        for (label, l, r, rand, table) in &cases {
            for jt in ALL_TYPES {
                let tracer = Tracer::enabled();
                tracer.push("join", "");
                let on = [("lk".to_string(), "rk".to_string())];
                let (ctx, mut base_prof) = (QueryContext::default(), WorkProfile::new());
                let serial = EngineConfig::serial();
                let base =
                    exec_join(l, r, &on, jt, &mut base_prof, &serial, &tracer, &ctx).unwrap();
                tracer.pop(0, 0, Vec::new());
                let span = tracer.take_root().unwrap();
                assert_eq!(
                    (span.children[0].op.as_str(), span.children[0].label.as_str()),
                    ("build", *label)
                );
                assert_eq!(
                    (base_prof.rand_accesses, base_prof.hash_bytes),
                    (*rand, *table),
                    "{label} {jt:?}"
                );
                for (threads, morsel) in [(1, 7), (2, 7), (4, 7), (2, 64), (4, 64)] {
                    let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel);
                    let (got, prof) = join(l, r, jt, &cfg, &ctx);
                    assert_eq!(
                        got.unwrap(),
                        base,
                        "{label} {jt:?} at {threads} threads, morsel {morsel}"
                    );
                    assert_eq!(prof, base_prof, "{label} {jt:?} profile at {threads} threads");
                }
            }
        }
    }

    /// The cursor reserves nothing: under an 8 KiB budget with a spill disk a
    /// 20 000-row build neither falls back nor spills, and a cancellation
    /// mid-probe leaves no reservation and no chunk behind.
    #[test]
    fn cursor_join_needs_no_budget_and_cancels_clean() {
        let l = rel(vec![("lk", (0..60_000i64).map(|i| i / 3 * 2).collect())]);
        let r = rel(vec![("rk", (0..20_000i64).map(|i| i * 3).collect())]);
        let (want, _) =
            join(&l, &r, JoinType::Inner, &EngineConfig::serial(), &QueryContext::default());
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(1000);
            let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(4 << 20));
            let ctx = QueryContext::with_budget(8 << 10).with_spill(Arc::clone(&disk));
            let (got, p) = join(&l, &r, JoinType::Inner, &cfg, &ctx);
            assert_eq!(got.as_ref().unwrap(), want.as_ref().unwrap());
            assert_eq!((ctx.fallbacks(), p.spilled_bytes, disk.sim_seconds()), (0, 0, 0.0));
            assert_eq!((ctx.used(), disk.used()), (0, 0));

            // Cancelled between two probe morsels of a worker's queue.
            let token = crate::governor::CancelToken::new();
            let ctx = QueryContext::with_budget(8 << 10)
                .with_spill(Arc::clone(&disk))
                .with_cancel_token(token.clone());
            let lk = vec![0; 60_000];
            let phase = ProbePhase {
                cfg: &cfg,
                form: Form::Cursor,
                bits: None,
                join_type: JoinType::Inner,
                tracer: Tracer::off(),
                ctx: &ctx,
                lk: &lk,
                nright: 20_000,
                build_started: None,
            };
            let cancelled = phase.run(&[], |start| {
                if start >= 30_000 {
                    token.cancel();
                }
                |_| None
            });
            assert!(matches!(cancelled, Err(EngineError::Cancelled)), "{threads} threads");
            assert_eq!((ctx.used(), disk.used()), (0, 0));
        }
    }

    /// A relation as plain rows of values: what the reference join reads
    /// and writes, and what a join's answer is compared as — equal whatever
    /// codes a dictionary gave its strings.
    #[derive(Debug, PartialEq)]
    struct Rows {
        names: Vec<String>,
        types: Vec<DataType>,
        rows: Vec<Vec<Value>>,
    }

    fn rows_of(rel: &Relation) -> Rows {
        let names: Vec<String> = rel.names().map(str::to_string).collect();
        let types = names.iter().map(|n| rel.data_type(n).unwrap()).collect();
        let rows = (0..rel.num_rows())
            .map(|i| names.iter().map(|n| rel.value(i, n).unwrap()).collect())
            .collect();
        Rows { names, types, rows }
    }

    /// `rel` narrowed to the rows where `f > 0` by the `Filter` operator — a
    /// lazy relation — and the same rows picked out of its plain rows (`f`
    /// is never negative).
    fn filtered(rel: &Relation, f: &str) -> (Relation, Rows) {
        let (mut led, ctx, serial) =
            (Ledger::default(), QueryContext::default(), EngineConfig::serial());
        let pred = col(f).gt(lit(0i64));
        let lazy = exec_filter(rel, &pred, None, &mut led, &serial, Tracer::off(), &ctx).unwrap();
        let mut want = rows_of(rel);
        let at = want.names.iter().position(|n| n == f).unwrap();
        want.rows.retain(|row| row[at] != Value::I64(0));
        (lazy, want)
    }

    /// The reference join, a nested loop over plain rows: each left row in
    /// order with its matching right rows latest first — the chain order
    /// every form emits — and the unmatched rows as the join type says, a
    /// left outer join's right side reading as its type's default.
    fn nested_loop(l: &Rows, r: &Rows, (lk, rk): (&str, &str), jt: JoinType) -> Rows {
        let (li, ri) = (l.names.iter().position(|n| n == lk), r.names.iter().position(|n| n == rk));
        let (li, ri) = (li.unwrap(), ri.unwrap());
        let defaults: Vec<Value> = r.types.iter().map(|&t| default_of(t)).collect();
        let mut rows = Vec::new();
        for left in &l.rows {
            let hits: Vec<&Vec<Value>> =
                r.rows.iter().rev().filter(|row| row[ri] == left[li]).collect();
            let joined = |right: &[Value], matched: bool| {
                let mut row = left.clone();
                row.extend_from_slice(right);
                if jt == JoinType::LeftOuter {
                    row.push(Value::Bool(matched));
                }
                row
            };
            match jt {
                JoinType::Semi if !hits.is_empty() => rows.push(left.clone()),
                JoinType::Anti if hits.is_empty() => rows.push(left.clone()),
                JoinType::LeftOuter if hits.is_empty() => rows.push(joined(&defaults, false)),
                JoinType::Inner | JoinType::LeftOuter => {
                    rows.extend(hits.into_iter().map(|right| joined(right, true)))
                }
                _ => {}
            }
        }
        let (mut names, mut types) = (l.names.clone(), l.types.clone());
        if matches!(jt, JoinType::Inner | JoinType::LeftOuter) {
            names.extend(r.names.iter().cloned());
            types.extend(&r.types);
        }
        if jt == JoinType::LeftOuter {
            names.push(MATCHED_COL.to_string());
            types.push(DataType::Bool);
        }
        Rows { names, types, rows }
    }

    fn default_of(t: DataType) -> Value {
        match t {
            DataType::Int64 => Value::I64(0),
            DataType::Int32 => Value::I32(0),
            DataType::Float64 => Value::F64(0.0),
            DataType::Decimal(s) => Value::Dec(wimpi_storage::Decimal64::new(0, s)),
            DataType::Date => Value::Date(wimpi_storage::Date32(0)),
            DataType::Utf8 => Value::Str(String::new()),
            DataType::Bool => Value::Bool(false),
        }
    }

    /// The three regimes every join runs under: unbudgeted, a 300 B budget
    /// (Grace partitions), and a 32 B budget with a spill disk (the spill
    /// rung), each at 1/2/4 threads on 13-row morsels. Runs `f` under each
    /// and checks the regime engaged: `f` returns the profile of its joins.
    fn under_every_regime(mut f: impl FnMut(&EngineConfig, &QueryContext) -> WorkProfile) {
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
            let ctx = QueryContext::default();
            f(&cfg, &ctx);
            assert_eq!(ctx.fallbacks(), 0, "{threads} threads, unbudgeted");

            let ctx = QueryContext::with_budget(300);
            let p = f(&cfg, &ctx);
            assert!(ctx.fallbacks() > 0 && p.spilled_bytes == 0, "{threads} threads, Grace");
            assert_eq!(ctx.used(), 0);

            let disk = spill_disk(wimpi_storage::SpillConfig::with_capacity(16 << 20));
            let ctx = QueryContext::with_budget(32).with_spill(Arc::clone(&disk));
            let p = f(&cfg, &ctx);
            assert!(p.spilled_bytes > 0, "{threads} threads: the spill rung must engage");
            assert_eq!((ctx.used(), disk.used()), (0, 0));
        }
    }

    /// A relation of `n` rows: a key `{key}` from `k(i)`, a second key
    /// `{key}2` (`5i mod 200`), a filter column `{key}_f` that keeps two rows
    /// in three, and payloads of four types named after `key`.
    fn source(key: &str, n: i64, k: impl Fn(i64) -> i64) -> Relation {
        let names = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"];
        let int = |f: &dyn Fn(i64) -> i64| Arc::new(Column::Int64((0..n).map(f).collect()));
        let strs = Column::Str((0..n).map(|i| names[i as usize % 5]).collect());
        Relation::new(vec![
            (key.to_string(), int(&k)),
            (format!("{key}2"), int(&|i| i * 5 % 200)),
            (format!("{key}_f"), int(&|i| i % 3)),
            (format!("{key}_i"), Arc::new(Column::Int32((1..=n as i32).collect()))),
            (format!("{key}_s"), Arc::new(strs)),
            (format!("{key}_b"), Arc::new(Column::Bool((0..n).map(|i| i % 4 != 0).collect()))),
            (
                format!("{key}_d"),
                Arc::new(Column::Decimal((0..n).map(|i| i * 25 + 1).collect(), 2)),
            ),
        ])
        .unwrap()
    }

    /// Each join type with a lazy probe side and a lazy build side — both
    /// the `Filter` operator's output, made afresh for every run — answers
    /// what the nested loop over the inputs' plain rows does, in every regime;
    /// a left outer join's unmatched rows read `0`, `""` and `false`.
    #[test]
    fn every_join_type_over_lazy_inputs_answers_the_nested_loop() {
        // 600 probe keys over 0..500 against the even keys of 3j mod 1000,
        // some twice.
        let inputs = || {
            let (l, lg) = filtered(&source("lk", 600, |i| i * 7 % 500), "lk_f");
            let (r, rg) = filtered(&source("rk", 400, |j| j * 3 % 1000 / 2 * 2), "rk_f");
            ((l, r), (lg, rg))
        };
        let (_, (lg, rg)) = inputs();
        for jt in ALL_TYPES {
            let want = nested_loop(&lg, &rg, ("lk", "rk"), jt);
            if jt == JoinType::LeftOuter {
                let cell = |row: &[Value], n: &str| {
                    row[want.names.iter().position(|m| m == n).unwrap()].clone()
                };
                let miss =
                    want.rows.iter().find(|row| cell(row, MATCHED_COL) == Value::Bool(false));
                let miss = miss.expect("some row is unmatched");
                assert_eq!(cell(miss, "rk_i"), Value::I32(0));
                assert_eq!(cell(miss, "rk_s"), Value::Str(String::new()));
                assert_eq!(cell(miss, "rk_b"), Value::Bool(false));
            }
            under_every_regime(|cfg, ctx| {
                let ((l, r), _) = inputs();
                let (mut p, on) = (WorkProfile::new(), [("lk".to_string(), "rk".to_string())]);
                let got = exec_join(&l, &r, &on, jt, &mut p, cfg, Tracer::off(), ctx).unwrap();
                assert_eq!(rows_of(&got), want, "{jt:?}");
                p
            });
        }
    }

    /// A three-level inner chain whose inputs are each filtered, lazy
    /// relations — the second level joins on a key of the first level's
    /// build side, the third on the probe's again — answers what the nested
    /// loop does level by level over the inputs' plain rows, in every regime.
    #[test]
    fn a_three_level_chain_over_lazy_inputs_answers_the_nested_loop() {
        let inputs = || {
            [
                ("ak", source("ak", 900, |i| i * 11 % 450)),
                ("bk", source("bk", 300, |j| j * 3 / 2)),
                ("ck", source("ck", 250, |j| j)),
                ("dk", source("dk", 260, |j| 199 - j % 200)),
            ]
            .map(|(k, rel)| filtered(&rel, &format!("{k}_f")))
        };
        let keys = [("ak", "bk"), ("bk2", "ck"), ("ak2", "dk")];
        let [(_, ag), (_, bg), (_, cg), (_, dg)] = inputs();
        let inner = JoinType::Inner;
        let mut want = ag;
        for ((lk, rk), build) in keys.iter().zip([&bg, &cg, &dg]) {
            want = nested_loop(&want, build, (lk, rk), inner);
        }
        assert!(want.rows.len() > 100, "a chain that keeps rows: {}", want.rows.len());
        under_every_regime(|cfg, ctx| {
            let [(a, _), (b, _), (c, _), (d, _)] = inputs();
            let mut p = WorkProfile::new();
            let mut acc = a;
            for ((lk, rk), build) in keys.iter().zip([&b, &c, &d]) {
                let on = [(lk.to_string(), rk.to_string())];
                acc = exec_join(&acc, build, &on, inner, &mut p, cfg, Tracer::off(), ctx).unwrap();
            }
            assert_eq!(rows_of(&acc), want);
            p
        });
    }
}
