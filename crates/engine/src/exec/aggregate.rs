//! Group-by aggregation: one morsel-driven fold, under both price lists.
//!
//! The interpreter hands [`exec_aggregate`] an aggregate's source together
//! with the `Filter` chain beneath it, whose conjuncts the fold runs per
//! morsel (DESIGN.md §13). Group keys and aggregate inputs are arbitrary
//! expressions, compiled once into [`Program`]s. Each worker takes one morsel
//! of the source — a dense range, or the rows the conjuncts kept — evaluates
//! the key programs into pooled slot buffers, resolves every row's group
//! once, then evaluates and sweeps one aggregate input at a time with the
//! accumulator dispatch outside the row loop. No intermediate column exists
//! between the source and the fold. `Executor` decides only what the work is
//! *priced* as: MonetDB's full materialization (`bytecode::Cost`, each
//! filter's gather included) or the base columns streamed.
//!
//! The morsel partials are merged **in morsel order**, so the global group
//! order is exactly the serial first-appearance order and every float
//! reduction tree depends only on the data and the morsel size — never on the
//! thread count (bit-exact determinism; see `exec::parallel`).
//!
//! The form is observed where the keys are (DESIGN.md §5.1). A morsel whose
//! key tuples never decrease (`in_key_order`, one early-exit pass over its
//! key buffers) has contiguous groups: its partial is cut at the run
//! boundaries and builds no map. When every partial is in that **run form**
//! and no key falls across a morsel boundary the whole input is in key order,
//! and the merge too compares with the previous key: no table, nothing
//! reserved (its memory is its output), never the degradation ladder.
//! Otherwise the merge is the hash form, which takes partials of either kind.
//! Both forms cut and merge the same partials, so every accumulator sees the
//! same values in the same order and the output is bit-identical.
//!
//! Decimal sums accumulate in `i128`, which is exact and order-free; `avg`
//! over fixed-point inputs (decimal/int) likewise sums mantissas in `i128`
//! and divides once at the end, and `min`/`max` keep the first extreme slot
//! in the order of its type — all independent of where the morsels are cut,
//! which is what lets the fold cut base-table morsels under a filter and
//! still equal an aggregate over the filtered relation. Float `sum`/`avg` are
//! exact in the morsels they were cut in only: under a filter the fold
//! aggregates the filtered relation instead. `avg` over an empty group yields
//! `0.0` — SQL would say NULL, but no reproduced query aggregates an empty
//! group (DESIGN.md §7).

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::sync::Arc;
use std::time::Instant;

use super::bytecode::{self, Program, Rows, Ty};
use super::filter::{exec_filter, Conjuncts};
use super::hash::{FxMap, SmallSet};
use super::ladder::{self, Attempt, FromSlots, Verdict};
use super::parallel::{morsel_ranges, run_morsels_spanned, EngineConfig, Executor};
use super::partition::Partitioner;
use super::{ensure_u32_indexable, expr_sketch, Scope};
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::governor::{QueryContext, Reservation};
use crate::plan::{AggExpr, AggFunc};
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{Span, Tracer};
use wimpi_storage::{selection, Column, StorageError, Table};

/// The one aggregation fold (see the module doc): the rows of `src` that pass
/// `filters` — the predicates of the `Filter` nodes beneath the aggregate,
/// innermost first; with none, every row — grouped and accumulated morsel by
/// morsel, merged in morsel order and materialized; empty `group_by` means
/// one global group. `table` is the table `src` scans, when its zone maps may
/// prune the innermost filter's morsels (DESIGN.md §14). When tracing, a
/// `partials` stage span (labelled `runs` or `hash` after the form merged,
/// with per-morsel children) is attached to the open aggregate span.
///
/// Two shapes fold dense input instead: a float `sum`/`avg` under a filter
/// (its sums are cut in the filtered rows' morsels), and a merged group
/// table over budget under a filter (the ladder partitions a relation, not a
/// selection). The filters then run as the `Filter` operator, each in its own
/// span, and the fold aggregates the last one's output. Without filters, an
/// over-budget table descends the ladder here.
///
/// The hash form's coordinator merge reserves one `width`-byte table entry
/// per distinct group (the same constant the work profile charges to
/// `hash_bytes`); the run form reserves nothing, so its merge always fits.
#[allow(clippy::too_many_arguments)]
pub fn exec_aggregate(
    src: &Relation,
    filters: &[&Expr],
    table: Option<&Table>,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    let n = src.num_rows();
    ensure_u32_indexable(n, "aggregate")?;
    let dense = |prof: &mut WorkProfile| -> Result<Relation> {
        let mut rel = src.clone();
        for (i, f) in filters.iter().enumerate() {
            ctx.checkpoint()?;
            let span = Scope::open(tracer, prof, || ("filter", expr_sketch(f)));
            let out = exec_filter(&rel, f, table.filter(|_| i == 0), prof, cfg, tracer, ctx)?;
            ctx.track(out.stream_bytes() as u64); // as the interpreter tracks it
            prof.peak_bytes = prof.peak_bytes.max(ctx.high_water());
            span.close(rel.num_rows() as u64, out.num_rows() as u64, prof);
            rel = out;
        }
        exec_aggregate(&rel, &[], None, group_by, aggs, prof, cfg, tracer, ctx)
    };
    // 1. Compile the conjuncts, the keys and the aggregate inputs.
    let chain = Conjuncts::compile(filters, src)?;
    let compile = |e: &Expr| Program::compile(e, src);
    let keys = group_by.iter().map(|(e, _)| compile(e)).collect::<Result<Vec<_>>>()?;
    let inputs = aggs
        .iter()
        .map(|a| a.expr.as_ref().filter(|_| a.func != AggFunc::CountStar).map(compile).transpose())
        .collect::<Result<Vec<_>>>()?;
    let empty = aggs
        .iter()
        .zip(&inputs)
        .map(|(a, input)| AggState::bind(a.func, input.as_ref()))
        .collect::<Result<Vec<_>>>()?;
    if !filters.is_empty() && empty.iter().any(AggState::sums_floats) {
        return dense(prof);
    }
    let feed = Feed { keys: &keys, inputs: &inputs, empty: &empty };
    let pruner = chain.pruner(table, n);

    // 2. Morsel-local partials, then an in-order merge.
    let sink = tracer.morsel_sink();
    let stage_started = tracer.is_enabled().then(Instant::now);
    let ranges = morsel_ranges(n, cfg.morsel_rows);
    let morsels = run_morsels_spanned(cfg, &ranges, &sink, |_, r| {
        let r = if ctx.interrupted() { 0..0 } else { r };
        if filters.is_empty() {
            return (MorselAgg::fold(&Rows::Dense(r.clone()), &feed), r.len(), chain.tally());
        }
        let (sel, tally) = chain.filter_morsel(pruner.as_ref(), r);
        let folded = (MorselAgg::fold(&Rows::Sparse(&sel), &feed), sel.len(), tally);
        selection::put_scratch(sel);
        folded
    });
    ctx.checkpoint()?;
    let mut partials = Vec::with_capacity(morsels.len());
    let (mut nsel, mut tally) = (0u64, chain.tally());
    for (partial, rows, kept) in morsels {
        partials.push(partial);
        nsel += rows as u64;
        tally.add(&kept);
    }
    let width = 32 * (group_by.len() + aggs.len()).max(1) as u64;
    let (first_rows, mut states, runs) = match merge_partials(partials, &feed, width, ctx) {
        Some(merged) => merged,
        None if !filters.is_empty() => return dense(prof),
        None => {
            // Redo the merge down the ladder: partition the groups by key
            // hash and build one bounded table per partition, sequentially.
            let encoded: Vec<Vec<i64>> =
                keys.iter().map(|k| k.slots_of(&Rows::Dense(0..n))).collect();
            let morsel_len = ranges.first().map_or(1, |r| r.len());
            ctx.track(n as u64 * Partitioner::BYTES_PER_ROW);
            let (first_rows, states) =
                ladder::descend(ctx, prof, "aggregate", &[(n, &encoded)], |att| {
                    attempt(att, morsel_len, &feed, width, ctx)
                })?;
            (first_rows, states, false)
        }
    };
    let ngroups = if group_by.is_empty() { 1 } else { first_rows.len() };
    states.iter_mut().for_each(|st| st.grow_to(ngroups));
    // Settled only now: a fold over budget reruns its filters dense.
    chain.settle(&tally, n, nsel, None, Some((src, ctx)), prof, cfg, tracer);
    if let Some(started) = stage_started {
        let mut stage = Span::leaf("partials", if runs { "runs" } else { "hash" });
        stage.rows_in = nsel;
        stage.rows_out = ngroups as u64;
        stage.wall_ns = started.elapsed().as_nanos() as u64;
        stage.children = sink.into_spans();
        tracer.attach(stage);
    }

    // 3. Charge the work. The expression programs are priced in the
    //    executor's cost form: full materialization streams every node's
    //    operands in and its result out; the fused form reads the base
    //    columns and *writes nothing* — the intermediate `seq_write_bytes`
    //    term collapses to just the output.
    let programs = || keys.iter().chain(inputs.iter().flatten());
    match cfg.executor {
        Executor::Materialize => programs().for_each(|p| p.cost().charge(nsel, prof)),
        Executor::Fused => {
            for p in programs() {
                prof.cpu_ops += nsel;
                prof.seq_read_bytes += nsel * p.width_bytes();
            }
        }
    }
    prof.cpu_ops += nsel * (1 + aggs.len() as u64);
    if !runs {
        prof.rand_accesses += nsel;
        prof.hash_bytes += ngroups as u64 * width;
    }
    let distincts = aggs.iter().filter(|a| a.func == AggFunc::CountDistinct).count();
    prof.rand_accesses += nsel * distincts as u64;

    // 4. Materialize the output: every key at its group's first row, every
    //    aggregate from its merged state.
    let mut fields: Vec<(String, Arc<Column>)> = Vec::with_capacity(keys.len() + aggs.len());
    for ((e, name), key) in group_by.iter().zip(&keys) {
        let col = match e {
            // A plain column is gathered as it is, dictionary and all.
            Expr::Col(c) => src.column(c)?.take(&first_rows),
            _ => key.column_from_slots(key.slots_of(&Rows::Sparse(&first_rows))),
        };
        fields.push((name.clone(), Arc::new(col)));
    }
    for ((agg, st), input) in aggs.iter().zip(states).zip(&inputs) {
        fields.push((agg.name.clone(), Arc::new(st.finish(input.as_ref())?)));
    }
    prof.seq_write_bytes += fields.iter().map(|(_, c)| c.stream_bytes() as u64).sum::<u64>();
    Relation::new(fields)
}

/// What every partial of one fold is built from: the compiled key and input
/// programs (`None`: `count(*)`) and each aggregate's empty state.
struct Feed<'p> {
    keys: &'p [Program],
    inputs: &'p [Option<Program>],
    empty: &'p [AggState<'p>],
}

/// True when the key tuples never decrease, lexicographically, over the `n`
/// rows — so every group's rows are contiguous and the run form applies. One
/// pass that stops at the first inversion; zero key columns (the global
/// group) are trivially in order.
fn in_key_order(cols: &[Vec<i64>], n: usize) -> bool {
    match cols {
        [c] => c.windows(2).all(|w| w[0] <= w[1]),
        _ => (1..n).all(|i| {
            cols.iter().map(|c| c[i - 1].cmp(&c[i])).find(|o| o.is_ne()) != Some(Ordering::Greater)
        }),
    }
}

/// Every group's first row, the merged states, and whether the merge took the
/// run form.
type Merged<'p> = (Vec<u32>, Vec<AggState<'p>>, bool);

/// Merges the morsel partials into one global table, in morsel order (see the
/// module doc): in the run form when every non-empty partial was cut in it
/// and starts at or after the key its predecessor ended on — the whole input
/// is then in key order — else in the hash form. Returns `None` as soon as a
/// new group no longer fits the query budget. The reservation is released on
/// return either way: the table's peak is already recorded, and what survives
/// the merge is the output itself.
fn merge_partials<'p>(
    partials: Vec<MorselAgg<'p>>,
    feed: &Feed<'p>,
    width: u64,
    ctx: &QueryContext,
) -> Option<Merged<'p>> {
    let mut last = None;
    let runs = partials.iter().filter(|p| !p.keys.is_empty()).all(|p| {
        let follows = p.runs && last <= p.keys.first();
        last = p.keys.last();
        follows
    });
    let mut table = GroupTable::new(feed.empty.to_vec(), width, runs, ctx)?;
    for partial in partials {
        if !table.absorb(partial) {
            return None;
        }
    }
    Some((table.first_rows, table.states, runs))
}

/// One budgeted group table — the whole input's, or one partition's: a
/// reservation grown by `width` bytes per distinct group (the same constant
/// the work profile charges to `hash_bytes`), the key → group map, and the
/// accumulated states. Dropping the table releases the reservation. In the
/// run form it is only the states: the map stays empty, nothing is reserved,
/// and `last` — the newest group's key — is all it compares with.
struct GroupTable<'p> {
    guard: Reservation,
    width: u64,
    runs: bool,
    map: KeyMap,
    last: Option<Key>,
    first_rows: Vec<u32>,
    states: Vec<AggState<'p>>,
}

impl<'p> GroupTable<'p> {
    fn new(states: Vec<AggState<'p>>, width: u64, runs: bool, ctx: &QueryContext) -> Option<Self> {
        let guard = ctx.try_reserve(0)?;
        let (map, last, first_rows) = (KeyMap::default(), None, Vec::new());
        Some(GroupTable { guard, width, runs, map, last, first_rows, states })
    }

    /// Folds one morsel partial in. Returns `false` — leaving the table
    /// unusable — as soon as a new group no longer fits the budget.
    fn absorb(&mut self, partial: MorselAgg<'p>) -> bool {
        let mut gid_map: Vec<u32> = Vec::with_capacity(partial.keys.len());
        for (k, fr) in partial.keys.into_iter().zip(partial.first_rows) {
            let next = self.first_rows.len() as u32;
            gid_map.push(if self.runs {
                // A partial's first run may continue the table's last one;
                // every other run is a new group.
                if self.last.as_ref() == Some(&k) {
                    next - 1
                } else {
                    self.last = Some(k);
                    self.first_rows.push(fr);
                    next
                }
            } else {
                match self.map.entry(k) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        if !self.guard.grow(self.width) {
                            return false;
                        }
                        self.first_rows.push(fr);
                        *e.insert(next)
                    }
                }
            });
        }
        for (gst, lst) in self.states.iter_mut().zip(partial.states) {
            gst.grow_to(self.first_rows.len());
            gst.merge_from(lst, &gid_map);
        }
        true
    }
}

/// One attempt of the degradation ladder ([`ladder::descend`]) below the
/// in-memory merge: aggregate one partition of the groups at a time, each
/// against its own reservation. Only the routing is staged: keys and inputs
/// are evaluated from the resident source by row id, like any other morsel.
///
/// Bit-exactness: every row of a group lands in the same partition and a
/// partition's rows are walked in ascending order, cut into partials at the
/// morsel stride, so each group's accumulator sees exactly the per-morsel
/// partial values of the unpartitioned merge, folded in the same morsel
/// order. Distinct groups have distinct first rows, so sorting the stitched
/// groups by first row reproduces the unpartitioned first-appearance group
/// order exactly.
fn attempt<'p>(
    att: &mut Attempt<'_, Key>,
    morsel_len: usize,
    feed: &Feed<'p>,
    width: u64,
    ctx: &QueryContext,
) -> Result<Verdict<(Vec<u32>, Vec<AggState<'p>>)>> {
    let parts = att.stage()?;
    // (first row, partition, local gid) of every group, in discovery
    // order, plus each partition's group count and accumulated states.
    let mut order: Vec<(u32, u32, u32)> = Vec::new();
    let mut part_states: Vec<(usize, Vec<AggState>)> = Vec::with_capacity(parts.len());
    for p in parts.iter() {
        let p = p?;
        let mut table = GroupTable::new(feed.empty.to_vec(), width, false, ctx)
            .expect("an empty reservation always fits");
        // The partition's rows of each morsel (`row / morsel_len`) form one
        // partial: within a morsel a group's rows are the rows the
        // unpartitioned partial saw, so its local sums are identical.
        let mut rows = parts.rows(0, p)?.map(|(row, _)| row).peekable();
        let (mut sel, mut fits) = (selection::take_scratch(), true);
        while let (true, Some(&row0)) = (fits, rows.peek()) {
            let morsel = row0 as usize / morsel_len;
            sel.clear();
            sel.extend(std::iter::from_fn(|| rows.next_if(|&r| r as usize / morsel_len == morsel)));
            fits = table.absorb(MorselAgg::fold(&Rows::Sparse(&sel), feed));
        }
        selection::put_scratch(sel);
        if !fits {
            // A partition of one group cannot shrink further.
            let alone = table.first_rows.is_empty();
            let verdict = if alone { Verdict::Hopeless } else { Verdict::Double };
            return Ok(verdict(table.guard.bytes() + width));
        }
        let groups = table.first_rows.iter().enumerate();
        order.extend(groups.map(|(lg, &fr)| (fr, p as u32, lg as u32)));
        part_states.push((table.first_rows.len(), table.states));
        // `table.guard` drops here: the partition's table scratch is
        // released before the next partition reserves its own.
    }
    // Every partition fit. Stitch the global table in first-appearance
    // order; folding each partition total into a fresh accumulator is
    // exact (0 + x, None → x, set ∪ ∅).
    order.sort_unstable_by_key(|&(fr, _, _)| fr);
    let first_rows: Vec<u32> = order.iter().map(|&(fr, _, _)| fr).collect();
    let mut gid_maps: Vec<Vec<u32>> = part_states.iter().map(|&(c, _)| vec![0; c]).collect();
    for (g, &(_, p, lg)) in order.iter().enumerate() {
        gid_maps[p as usize][lg as usize] = g as u32;
    }
    let mut gstates = feed.empty.to_vec();
    for st in &mut gstates {
        st.grow_to(first_rows.len());
    }
    for ((_, pstates), gid_map) in part_states.into_iter().zip(&gid_maps) {
        for (gst, lst) in gstates.iter_mut().zip(pstates) {
            gst.merge_from(lst, gid_map);
        }
    }
    Ok(Verdict::Fit((first_rows, gstates)))
}

type KeyMap = FxMap<Key, u32>;

/// A group key of `key_values`-encoded slots, as the key programs emit them:
/// the common 0/1/2-column cases avoid heap allocation. Keys of one fold
/// share a variant, so the derived order is the tuples' lexicographic one.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Key {
    Unit,
    One(i64),
    Two(i64, i64),
    Many(Vec<i64>),
}

impl FromSlots for Key {
    #[inline]
    fn at(cols: &[Vec<i64>], i: usize) -> Key {
        match cols.len() {
            0 => Key::Unit,
            1 => Key::One(cols[0][i]),
            2 => Key::Two(cols[0][i], cols[1][i]),
            _ => Key::Many(cols.iter().map(|k| k[i]).collect()),
        }
    }

    #[inline]
    fn from_row(slots: &[i64]) -> Key {
        match slots.len() {
            0 => Key::Unit,
            1 => Key::One(slots[0]),
            2 => Key::Two(slots[0], slots[1]),
            _ => Key::Many(slots.to_vec()),
        }
    }
}

/// One morsel's thread-local partial aggregation.
struct MorselAgg<'p> {
    /// Cut in the run form: the morsel's key tuples never decreased, so its
    /// groups are its runs and `keys` ascends.
    runs: bool,
    keys: Vec<Key>,
    first_rows: Vec<u32>,
    states: Vec<AggState<'p>>,
}

impl<'p> MorselAgg<'p> {
    /// Folds the given rows of the source: one group-resolution pass over
    /// the key buffers, then one accumulation sweep per aggregate with the
    /// state dispatch hoisted out of the row loop. `first_rows` carry the
    /// source's own row ids, so the merged group order and the key gathers do
    /// not depend on how the rows were selected.
    fn fold(rows: &Rows, feed: &Feed<'p>) -> Self {
        let keybufs: Vec<Vec<i64>> = feed.keys.iter().map(|k| k.slots_of(rows)).collect();
        let runs = in_key_order(&keybufs, rows.len());
        let (keys, first_rows, states) = (Vec::new(), Vec::new(), feed.empty.to_vec());
        let mut partial = MorselAgg { runs, keys, first_rows, states };
        let mut gids = selection::take_scratch();
        match rows {
            Rows::Dense(r) => partial.resolve(&keybufs, r.clone().map(|i| i as u32), &mut gids),
            Rows::Sparse(s) => partial.resolve(&keybufs, s.iter().copied(), &mut gids),
        }
        keybufs.into_iter().for_each(bytecode::put_slots);
        let ngroups = partial.keys.len();
        for (st, input) in partial.states.iter_mut().zip(feed.inputs) {
            st.grow_to(ngroups);
            let slots = input.as_ref().map(|p| p.slots_of(rows));
            st.push_batch(&gids, slots.as_deref());
            slots.into_iter().for_each(bytecode::put_slots);
        }
        selection::put_scratch(gids);
        partial
    }

    /// Resolves each row's local group from the key buffers: in the run form
    /// a row opens a group exactly when its key differs from the row before
    /// it, in the hash form when the morsel's map has not seen its key.
    fn resolve(
        &mut self,
        keybufs: &[Vec<i64>],
        ids: impl Iterator<Item = u32>,
        gids: &mut Vec<u32>,
    ) {
        if self.runs {
            for (i, row) in ids.enumerate() {
                if i == 0 || keybufs.iter().any(|c| c[i - 1] != c[i]) {
                    self.keys.push(Key::at(keybufs, i));
                    self.first_rows.push(row);
                }
                gids.push(self.keys.len() as u32 - 1);
            }
            return;
        }
        let mut map = KeyMap::default();
        for (i, row) in ids.enumerate() {
            let key = Key::at(keybufs, i);
            // `get` first, not `entry`: rows of known groups dominate, and the
            // entry API measured 10 % slower on them (it moves the key around).
            gids.push(map.get(&key).copied().unwrap_or_else(|| {
                let g = self.keys.len() as u32;
                map.insert(key.clone(), g);
                self.keys.push(key);
                self.first_rows.push(row);
                g
            }));
        }
    }
}

/// The order of one `min`/`max` input's slots: that of the values they
/// encode (`key_values` is injective, not monotone, for floats and strings).
#[derive(Clone, Copy)]
enum SlotOrder<'p> {
    /// Integers, dates, decimal mantissas of one scale, booleans.
    Fixed,
    /// `f64::to_bits` slots, in `total_cmp` order.
    Float,
    /// Codes into the input program's dictionary.
    Str(&'p [String]),
}

impl SlotOrder<'_> {
    #[inline]
    fn cmp(self, a: i64, b: i64) -> Ordering {
        match self {
            SlotOrder::Fixed => a.cmp(&b),
            SlotOrder::Float => f64::from_bits(a as u64).total_cmp(&f64::from_bits(b as u64)),
            SlotOrder::Str(dict) => dict[a as usize].cmp(&dict[b as usize]),
        }
    }

    /// Offers `x` to a `min`/`max` entry: it is taken when the entry is empty
    /// or `x` compares as `want` with what it holds — so ties keep the first.
    #[inline]
    fn offer(self, best: &mut Option<i64>, x: i64, want: Ordering) {
        if best.is_none_or(|cur| self.cmp(x, cur) == want) {
            *best = Some(x);
        }
    }
}

/// Per-aggregate accumulator state, one entry per group, fed one
/// `key_values`-encoded slot per row (decimal mantissas, bools as 0/1,
/// `f64::to_bits`, dictionary codes) — the encoding the programs emit.
#[derive(Clone)]
enum AggState<'p> {
    /// `count(*)` (no input) and `count_if` (0/1 slots).
    Count(Vec<i64>),
    Distinct(Vec<SmallSet>),
    SumDec(Vec<i128>, u8),
    SumInt(Vec<i64>),
    SumFloat(Vec<f64>),
    /// `avg` over fixed-point inputs: mantissas (scale 0 for integers) summed
    /// exactly in `i128`, divided once at finish. Order-free.
    AvgFixed {
        sum: Vec<i128>,
        cnt: Vec<i64>,
        scale: u8,
    },
    /// `avg` over floats: per-row `f64` accumulation (morsel-order
    /// deterministic like every float sum).
    Avg {
        sum: Vec<f64>,
        cnt: Vec<i64>,
    },
    /// `min`/`max`: the first slot no later one beats (`want` is how a better
    /// slot compares with it), `None` until the group has a row.
    Extreme {
        best: Vec<Option<i64>>,
        want: Ordering,
        order: SlotOrder<'p>,
    },
}

impl<'p> AggState<'p> {
    /// The empty state of `func` over the slots of `input` (`None`: the
    /// aggregate names no input) — the one place an ill-typed aggregate is
    /// rejected, under either executor.
    fn bind(func: AggFunc, input: Option<&'p Program>) -> Result<AggState<'p>> {
        let (input, ty) = match (func, input) {
            (AggFunc::CountStar, _) => return Ok(AggState::Count(Vec::new())),
            (_, None) => {
                return Err(EngineError::Plan(format!("{func:?} requires an input expression")))
            }
            (_, Some(input)) => (input, input.out()),
        };
        let non_numeric = |name: &str| {
            Err(EngineError::Plan(format!(
                "{name} over non-numeric column of type {}",
                ty.data_type()
            )))
        };
        Ok(match (func, ty) {
            (AggFunc::CountIf, Ty::Bool) => AggState::Count(Vec::new()),
            (AggFunc::CountIf, _) => {
                let (expected, actual) = ("bool".to_string(), ty.data_type().to_string());
                return Err(StorageError::TypeMismatch { expected, actual }.into());
            }
            (AggFunc::CountDistinct, _) => AggState::Distinct(Vec::new()),
            (AggFunc::Sum, Ty::Dec(s)) => AggState::SumDec(Vec::new(), s),
            (AggFunc::Sum, Ty::I64 | Ty::I32) => AggState::SumInt(Vec::new()),
            (AggFunc::Sum, Ty::F64) => AggState::SumFloat(Vec::new()),
            (AggFunc::Sum, _) => return non_numeric("sum"),
            (AggFunc::Avg, Ty::Dec(scale)) => {
                AggState::AvgFixed { sum: Vec::new(), cnt: Vec::new(), scale }
            }
            (AggFunc::Avg, Ty::I64 | Ty::I32) => {
                AggState::AvgFixed { sum: Vec::new(), cnt: Vec::new(), scale: 0 }
            }
            (AggFunc::Avg, Ty::F64) => AggState::Avg { sum: Vec::new(), cnt: Vec::new() },
            (AggFunc::Avg, _) => return non_numeric("avg"),
            (AggFunc::Min | AggFunc::Max, _) => AggState::Extreme {
                best: Vec::new(),
                want: if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater },
                order: match (input.out_strings(), ty) {
                    (Some(dict), _) => SlotOrder::Str(dict),
                    (None, Ty::F64) => SlotOrder::Float,
                    (None, _) => SlotOrder::Fixed,
                },
            },
            (AggFunc::CountStar, _) => unreachable!("returned above"),
        })
    }

    /// A float accumulation: exact only in the morsels it was cut in.
    fn sums_floats(&self) -> bool {
        matches!(self, AggState::SumFloat(_) | AggState::Avg { .. })
    }

    fn grow_to(&mut self, ngroups: usize) {
        match self {
            AggState::Count(v) | AggState::SumInt(v) => v.resize(ngroups, 0),
            AggState::Distinct(v) => v.resize_with(ngroups, SmallSet::default),
            AggState::SumDec(v, _) => v.resize(ngroups, 0),
            AggState::SumFloat(v) => v.resize(ngroups, 0.0),
            AggState::AvgFixed { sum, cnt, .. } => {
                sum.resize(ngroups, 0);
                cnt.resize(ngroups, 0);
            }
            AggState::Avg { sum, cnt } => {
                sum.resize(ngroups, 0.0);
                cnt.resize(ngroups, 0);
            }
            AggState::Extreme { best, .. } => best.resize(ngroups, None),
        }
    }

    /// Accumulates one morsel: row `i` belongs to group `gids[i]` and feeds
    /// it `slots[i]` (no slots: `count(*)`), in row order.
    fn push_batch(&mut self, gids: &[u32], slots: Option<&[i64]>) {
        let rows = gids.iter().map(|&g| g as usize).zip(slots.unwrap_or_default().iter().copied());
        match self {
            AggState::Count(v) if slots.is_none() => gids.iter().for_each(|&g| v[g as usize] += 1),
            AggState::Count(v) | AggState::SumInt(v) => rows.for_each(|(g, x)| v[g] += x),
            AggState::Distinct(v) => rows.for_each(|(g, x)| {
                v[g].insert(x);
            }),
            AggState::SumDec(v, _) => rows.for_each(|(g, x)| v[g] += x as i128),
            AggState::SumFloat(v) => rows.for_each(|(g, x)| v[g] += f64::from_bits(x as u64)),
            AggState::AvgFixed { sum, cnt, .. } => rows.for_each(|(g, x)| {
                sum[g] += x as i128;
                cnt[g] += 1;
            }),
            AggState::Avg { sum, cnt } => rows.for_each(|(g, x)| {
                sum[g] += f64::from_bits(x as u64);
                cnt[g] += 1;
            }),
            AggState::Extreme { best, want, order } => {
                rows.for_each(|(g, x)| order.offer(&mut best[g], x, *want))
            }
        }
    }

    /// Folds a morsel-local state into this global one; `gid_map` maps local
    /// group ids to global ones. Merging in morsel order keeps float sums
    /// and min/max tie-breaks identical to the serial scan.
    fn merge_from(&mut self, other: AggState, gid_map: &[u32]) {
        let global = |lg: usize| gid_map[lg] as usize;
        match (self, other) {
            (AggState::Count(g), AggState::Count(l))
            | (AggState::SumInt(g), AggState::SumInt(l)) => {
                l.into_iter().enumerate().for_each(|(lg, x)| g[global(lg)] += x)
            }
            (AggState::Distinct(g), AggState::Distinct(l)) => {
                l.into_iter().enumerate().for_each(|(lg, set)| g[global(lg)].absorb(set))
            }
            (AggState::SumDec(g, _), AggState::SumDec(l, _)) => {
                l.into_iter().enumerate().for_each(|(lg, x)| g[global(lg)] += x)
            }
            (AggState::SumFloat(g), AggState::SumFloat(l)) => {
                l.into_iter().enumerate().for_each(|(lg, x)| g[global(lg)] += x)
            }
            (
                AggState::AvgFixed { sum: gs, cnt: gc, .. },
                AggState::AvgFixed { sum: ls, cnt: lc, .. },
            ) => {
                for (lg, (s, c)) in ls.into_iter().zip(lc).enumerate() {
                    gs[global(lg)] += s;
                    gc[global(lg)] += c;
                }
            }
            (AggState::Avg { sum: gs, cnt: gc }, AggState::Avg { sum: ls, cnt: lc }) => {
                for (lg, (s, c)) in ls.into_iter().zip(lc).enumerate() {
                    gs[global(lg)] += s;
                    gc[global(lg)] += c;
                }
            }
            (AggState::Extreme { best: g, want, order }, AggState::Extreme { best: l, .. }) => {
                for (lg, x) in l.into_iter().enumerate().filter_map(|(lg, x)| Some((lg, x?))) {
                    order.offer(&mut g[global(lg)], x, *want);
                }
            }
            _ => unreachable!("partials share one state layout"),
        }
    }

    /// The aggregate's output column; `input` is the program whose slots a
    /// `min`/`max` kept, which types (and decodes) them.
    fn finish(self, input: Option<&Program>) -> Result<Column> {
        let mean = |sum: f64, cnt: i64| if cnt == 0 { 0.0 } else { sum / cnt as f64 };
        Ok(match self {
            AggState::Count(v) | AggState::SumInt(v) => Column::Int64(v),
            AggState::Distinct(v) => Column::Int64(v.into_iter().map(|s| s.len() as i64).collect()),
            AggState::SumDec(v, s) => {
                let narrow = |x| i64::try_from(x).map_err(|_| StorageError::DecimalOverflow);
                Column::Decimal(
                    v.into_iter().map(narrow).collect::<std::result::Result<_, _>>()?,
                    s,
                )
            }
            AggState::SumFloat(v) => Column::Float64(v),
            AggState::AvgFixed { sum, cnt, scale } => {
                let div = crate::eval::POW10[scale as usize] as f64;
                Column::Float64(
                    sum.iter().zip(cnt).map(|(&s, c)| mean(s as f64 / div, c)).collect(),
                )
            }
            AggState::Avg { sum, cnt } => {
                Column::Float64(sum.into_iter().zip(cnt).map(|(s, c)| mean(s, c)).collect())
            }
            AggState::Extreme { best, .. } => {
                let input = input.expect("min/max bound an input");
                let ngroups = best.len();
                match best.into_iter().collect::<Option<Vec<i64>>>() {
                    Some(slots) => input.column_from_slots(slots),
                    // Only the global group of no rows has seen nothing; it
                    // reads as its type's zero value (DESIGN.md §7).
                    None if input.out() == Ty::Str => {
                        Column::Str(std::iter::repeat_n("", ngroups).collect())
                    }
                    None => input.column_from_slots(vec![0; ngroups]),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use wimpi_storage::Value;

    /// The aggregate over every row of `rel`: no filter beneath it.
    fn unfiltered(
        rel: &Relation,
        group_by: &[(crate::expr::Expr, String)],
        aggs: &[AggExpr],
        prof: &mut WorkProfile,
        cfg: &EngineConfig,
        ctx: &QueryContext,
    ) -> Result<Relation> {
        super::exec_aggregate(rel, &[], None, group_by, aggs, prof, cfg, Tracer::off(), ctx)
    }

    fn exec_aggregate(
        rel: &Relation,
        group_by: &[(crate::expr::Expr, String)],
        aggs: &[AggExpr],
        prof: &mut WorkProfile,
    ) -> Result<Relation> {
        let ctx = QueryContext::default();
        unfiltered(rel, group_by, aggs, prof, &EngineConfig::serial(), &ctx)
    }

    fn rel() -> Relation {
        Relation::new(vec![
            ("flag".into(), Arc::new(Column::Str(["A", "B", "A", "A"].into_iter().collect()))),
            ("qty".into(), Arc::new(Column::Decimal(vec![100, 200, 300, 400], 2))),
            ("f".into(), Arc::new(Column::Float64(vec![1.0, 2.0, 3.0, 4.0]))),
            ("b".into(), Arc::new(Column::Bool(vec![true, false, false, true]))),
        ])
        .unwrap()
    }

    fn agg(group: Vec<(crate::expr::Expr, &str)>, aggs: Vec<AggExpr>) -> Relation {
        let group: Vec<(crate::expr::Expr, String)> =
            group.into_iter().map(|(e, n)| (e, n.to_string())).collect();
        let mut p = WorkProfile::new();
        exec_aggregate(&rel(), &group, &aggs, &mut p).unwrap()
    }

    #[test]
    fn grouped_sum_and_count() {
        let out = agg(
            vec![(col("flag"), "flag")],
            vec![AggExpr::sum(col("qty"), "s"), AggExpr::count_star("n")],
        );
        assert_eq!(out.num_rows(), 2);
        // group order = first appearance: A then B
        assert_eq!(out.value(0, "flag").unwrap(), Value::Str("A".into()));
        let (m, s) = out.column("s").unwrap().as_decimal().unwrap();
        assert_eq!((m[0], s), (800, 2)); // 1+3+4 = 8.00
        assert_eq!(m[1], 200);
        assert_eq!(out.column("n").unwrap().as_i64().unwrap(), &[3, 1]);
    }

    #[test]
    fn global_aggregates() {
        let out = agg(
            vec![],
            vec![
                AggExpr::avg(col("qty"), "a"),
                AggExpr::min(col("qty"), "lo"),
                AggExpr::max(col("qty"), "hi"),
            ],
        );
        assert_eq!(out.num_rows(), 1);
        assert!((out.column("a").unwrap().as_f64().unwrap()[0] - 2.5).abs() < 1e-9);
        assert_eq!(out.column("lo").unwrap().as_decimal().unwrap().0, &[100]);
        assert_eq!(out.column("hi").unwrap().as_decimal().unwrap().0, &[400]);
    }

    #[test]
    fn count_if_counts_true() {
        let out = agg(vec![(col("flag"), "g")], vec![AggExpr::count_if(col("b"), "n")]);
        assert_eq!(out.column("n").unwrap().as_i64().unwrap(), &[2, 0]);
    }

    #[test]
    fn count_distinct() {
        let out = agg(vec![], vec![AggExpr::count_distinct(col("flag"), "d")]);
        assert_eq!(out.column("d").unwrap().as_i64().unwrap(), &[2]);
    }

    #[test]
    fn min_max_on_strings() {
        let out =
            agg(vec![], vec![AggExpr::min(col("flag"), "lo"), AggExpr::max(col("flag"), "hi")]);
        assert_eq!(out.value(0, "lo").unwrap(), Value::Str("A".into()));
        assert_eq!(out.value(0, "hi").unwrap(), Value::Str("B".into()));
    }

    #[test]
    fn empty_input_global_group() {
        let empty = Relation::new(vec![("x".into(), Arc::new(Column::Int64(vec![])))]).unwrap();
        let mut p = WorkProfile::new();
        let out = exec_aggregate(
            &empty,
            &[],
            &[AggExpr::count_star("n"), AggExpr::sum(col("x"), "s")],
            &mut p,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("n").unwrap().as_i64().unwrap(), &[0]);
        assert_eq!(out.column("s").unwrap().as_i64().unwrap(), &[0]);
    }

    #[test]
    fn sum_float() {
        let out = agg(vec![(col("flag"), "g")], vec![AggExpr::sum(col("f"), "s")]);
        let f = out.column("s").unwrap().as_f64().unwrap();
        assert!((f[0] - 8.0).abs() < 1e-9);
        assert!((f[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_morsel_merge_matches_serial() {
        // A relation wide enough to span many tiny morsels; group keys cycle
        // so every morsel sees every group. Parallel runs (2 and 4 threads,
        // 7-row morsels) must be bit-identical to the serial result —
        // including group order and the profile counters.
        let n = 100i64;
        let rel = Relation::new(vec![
            ("g".into(), Arc::new(Column::Int64((0..n).map(|i| i % 5).collect()))),
            ("d".into(), Arc::new(Column::Decimal((0..n).map(|i| i * 7).collect(), 2))),
            ("f".into(), Arc::new(Column::Float64((0..n).map(|i| i as f64 * 0.31).collect()))),
        ])
        .unwrap();
        let group = vec![(col("g"), "g".to_string())];
        let aggs = vec![
            AggExpr::sum(col("d"), "sd"),
            AggExpr::sum(col("f"), "sf"),
            AggExpr::avg(col("f"), "af"),
            AggExpr::min(col("d"), "lo"),
            AggExpr::max(col("f"), "hi"),
            AggExpr::count_star("n"),
            AggExpr::count_distinct(col("d"), "u"),
        ];
        let base_cfg = EngineConfig::serial().with_morsel_rows(7);
        let mut base_prof = WorkProfile::new();
        let ctx = QueryContext::default();
        let base = unfiltered(&rel, &group, &aggs, &mut base_prof, &base_cfg, &ctx).unwrap();
        for threads in [2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(7);
            let mut prof = WorkProfile::new();
            let out = unfiltered(&rel, &group, &aggs, &mut prof, &cfg, &ctx).unwrap();
            assert_eq!(out, base, "parallel aggregate diverged at {threads} threads");
            assert_eq!(prof, base_prof, "profile counters diverged at {threads} threads");
        }
    }

    #[test]
    fn grace_fallback_is_bit_exact_and_budget_bounded() {
        // 10 groups × width 32·(1 key + 3 aggs) = 128 B/group: a 640 B budget
        // fits at most 5 group table entries at once, forcing the Grace path,
        // which must still be bit-identical to the unconstrained serial run
        // at every thread count.
        let n = 200i64;
        let rel = Relation::new(vec![
            ("g".into(), Arc::new(Column::Int64((0..n).map(|i| i % 10).collect()))),
            ("d".into(), Arc::new(Column::Decimal((0..n).map(|i| i * 3).collect(), 2))),
            ("f".into(), Arc::new(Column::Float64((0..n).map(|i| i as f64 * 0.17).collect()))),
        ])
        .unwrap();
        let group = vec![(col("g"), "g".to_string())];
        let aggs = vec![
            AggExpr::sum(col("d"), "sd"),
            AggExpr::avg(col("f"), "af"),
            AggExpr::count_star("n"),
        ];
        let mut base_prof = WorkProfile::new();
        let base = unfiltered(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &EngineConfig::serial().with_morsel_rows(13),
            &QueryContext::default(),
        )
        .unwrap();
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
            let ctx = QueryContext::with_budget(640);
            let mut prof = WorkProfile::new();
            let out = unfiltered(&rel, &group, &aggs, &mut prof, &cfg, &ctx).unwrap();
            assert_eq!(out, base, "grace aggregate diverged at {threads} threads");
            assert_eq!(prof, base_prof, "grace profile diverged at {threads} threads");
            // Pinned: partition assignment decides the fan-out, and must not
            // drift silently.
            assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 4));
            assert_eq!(prof.spilled_bytes, 0);
            assert_eq!(ctx.used(), 0, "all reservations released after the query");
        }
        // A budget below one table entry cannot be partitioned around.
        let ctx = QueryContext::with_budget(100);
        let mut prof = WorkProfile::new();
        let err =
            unfiltered(&rel, &group, &aggs, &mut prof, &EngineConfig::serial(), &ctx).unwrap_err();
        match err {
            EngineError::ResourceExhausted { operator, budget, .. } => {
                assert_eq!(operator, "aggregate");
                assert_eq!(budget, 100);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(ctx.used(), 0, "failed queries leave no reservation behind");
    }

    /// 5 000 distinct groups at width 64 (one key, one agg): a 320 B budget
    /// holds 5 table entries, which Grace's 1024-partition cap cannot reach
    /// (≈ 5 groups/partition expected, with hot bins well past it) but the
    /// spill rung's deeper fan-out can.
    fn spill_agg_inputs() -> (Relation, Vec<(crate::expr::Expr, String)>, Vec<AggExpr>) {
        let n = 5_000i64;
        let rel = Relation::new(vec![
            ("g".into(), Arc::new(Column::Int64((0..n).map(|i| (i * 13) % 5_000).collect()))),
            ("d".into(), Arc::new(Column::Decimal((0..n).map(|i| i * 3).collect(), 2))),
        ])
        .unwrap();
        let group = vec![(col("g"), "g".to_string())];
        let aggs = vec![AggExpr::sum(col("d"), "sd")];
        (rel, group, aggs)
    }

    #[test]
    fn spill_rung_is_bit_exact_past_grace() {
        let (rel, group, aggs) = spill_agg_inputs();
        let mut base_prof = WorkProfile::new();
        let base = unfiltered(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &EngineConfig::serial().with_morsel_rows(257),
            &QueryContext::default(),
        )
        .unwrap();
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(257);
            let disk = Arc::new(wimpi_storage::SpillDisk::new(
                wimpi_storage::SpillConfig::with_capacity(16 << 20),
            ));
            let ctx = QueryContext::with_budget(320).with_spill(Arc::clone(&disk));
            let mut prof = WorkProfile::new();
            let out = unfiltered(&rel, &group, &aggs, &mut prof, &cfg, &ctx).unwrap();
            assert_eq!(out, base, "spill aggregate diverged at {threads} threads");
            // Pinned (see the Grace test): three staged attempts of 5 000
            // 12-byte records, the last at 8 192 partitions.
            assert_eq!(prof.spilled_bytes, 180_000, "the spill rung must engage");
            assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (1, 8192));
            assert_eq!(disk.used(), 0, "all spill chunks freed");
            assert_eq!(ctx.used(), 0, "all reservations released");
        }
    }

    #[test]
    fn spill_rung_survives_injected_faults_bit_exactly() {
        let (rel, group, aggs) = spill_agg_inputs();
        let mut base_prof = WorkProfile::new();
        let base = unfiltered(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &EngineConfig::serial().with_morsel_rows(257),
            &QueryContext::default(),
        )
        .unwrap();
        let disk_cfg = wimpi_storage::SpillConfig::with_capacity(16 << 20)
            .with_faults(wimpi_storage::SpillFaults::every(42, 8))
            .with_max_read_retries(16);
        let disk = Arc::new(wimpi_storage::SpillDisk::new(disk_cfg));
        let ctx = QueryContext::with_budget(320).with_spill(Arc::clone(&disk));
        let mut prof = WorkProfile::new();
        let out = unfiltered(
            &rel,
            &group,
            &aggs,
            &mut prof,
            &EngineConfig::serial().with_morsel_rows(257),
            &ctx,
        )
        .unwrap();
        assert_eq!(out, base, "faulted spill aggregate must stay bit-exact");
        assert!(prof.spill_corruptions_detected > 0, "fault injection must fire");
        assert_eq!(disk.used(), 0);
    }

    #[test]
    fn impossible_budget_still_errors_with_a_spill_disk() {
        // A budget below one table entry cannot be partitioned around at any
        // fan-out, disk or no disk.
        let (rel, group, aggs) = spill_agg_inputs();
        let disk = Arc::new(wimpi_storage::SpillDisk::new(
            wimpi_storage::SpillConfig::with_capacity(16 << 20),
        ));
        let ctx = QueryContext::with_budget(32).with_spill(Arc::clone(&disk));
        let mut prof = WorkProfile::new();
        let err =
            unfiltered(&rel, &group, &aggs, &mut prof, &EngineConfig::serial(), &ctx).unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { ref operator, .. } if operator == "aggregate"),
            "got {err:?}"
        );
        // Hopeless from the first attempt: a doomed query never reaches the disk.
        assert_eq!(prof.spilled_bytes, 0);
        assert_eq!(disk.sim_seconds(), 0.0);
        assert_eq!(disk.used(), 0);
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn key_order_is_the_tuples_lexicographic_order() {
        let cols = |a: &[i64], b: &[i64]| [a.to_vec(), b.to_vec()];
        assert!(in_key_order(&[], 5), "the global group");
        assert!(in_key_order(&[vec![]], 0) && in_key_order(&[vec![4]], 1));
        assert!(in_key_order(&[vec![1, 1, 2, 2, 9]], 5) && !in_key_order(&[vec![1, 2, 9, 8]], 4));
        assert!(in_key_order(&[vec![i64::MIN, -1, i64::MAX]], 3));
        assert!(
            in_key_order(&cols(&[1, 1, 2], &[5, 5, 0]), 3),
            "a later column may fall when an earlier one rises"
        );
        assert!(
            !in_key_order(&cols(&[1, 1, 2], &[5, 4, 0]), 3),
            "ties are broken by the next column"
        );
        assert!(!in_key_order(&cols(&[1, 1, 0], &[5, 5, 9]), 3));
    }

    /// The run form reserves nothing: under an 8 KiB budget with a spill disk
    /// 20 000 groups in key order neither fall back nor spill (the same groups
    /// out of order do), and cancellation leaves nothing behind.
    #[test]
    fn run_form_needs_no_budget_and_cancels_clean() {
        let n = 60_000i64;
        let ordered = (0..n).map(|i| i / 3).collect::<Vec<_>>();
        let shuffled = (0..n).map(|i| (i * 7919) % 20_000).collect::<Vec<_>>();
        let rel = |k: Vec<i64>| {
            let d = Column::Decimal((0..n).map(|i| i % 50).collect(), 2);
            let fields = [
                ("k", Column::Int64(k)),
                ("d", d),
                ("s", Column::Int64((0..n).map(|i| i % 7).collect())),
            ];
            Relation::new(fields.into_iter().map(|(n, c)| (n.to_string(), Arc::new(c))).collect())
                .unwrap()
        };
        let group = vec![(col("k"), "k".to_string())];
        let aggs = vec![AggExpr::sum(col("d"), "sd"), AggExpr::count_distinct(col("s"), "u")];
        let budgeted = |rel: &Relation, token: crate::governor::CancelToken| {
            let disk = Arc::new(wimpi_storage::SpillDisk::new(
                wimpi_storage::SpillConfig::with_capacity(64 << 20),
            ));
            let ctx = QueryContext::with_budget(8 << 10)
                .with_spill(Arc::clone(&disk))
                .with_cancel_token(token);
            let cfg = EngineConfig::with_threads(2).with_morsel_rows(4096);
            let mut prof = WorkProfile::new();
            let out = unfiltered(rel, &group, &aggs, &mut prof, &cfg, &ctx);
            assert_eq!((ctx.used(), disk.used()), (0, 0));
            (out, ctx.fallbacks(), prof.spilled_bytes)
        };
        let never = crate::governor::CancelToken::new;
        let (out, fallbacks, spilled) = budgeted(&rel(ordered.clone()), never());
        assert_eq!(out.unwrap().num_rows(), 20_000);
        assert_eq!((fallbacks, spilled), (0, 0));
        let (out, fallbacks, spilled) = budgeted(&rel(shuffled), never());
        assert_eq!(out.unwrap().num_rows(), 20_000);
        assert_eq!(
            (fallbacks, spilled),
            (1, 0),
            "the hash form of the same groups needs the ladder"
        );
        let (out, ..) = budgeted(&rel(ordered), crate::governor::CancelToken::after_checks(0));
        assert!(matches!(out, Err(EngineError::Cancelled)));
    }
}
