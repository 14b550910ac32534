//! Group-by aggregation: one morsel-driven fold, under both price lists.
//!
//! The interpreter hands [`exec_aggregate`] an aggregate's source together
//! with the `Filter` chain beneath it, whose conjuncts the fold runs per
//! morsel (DESIGN.md §13). Group keys and aggregate inputs are arbitrary
//! expressions, compiled once: the keys into [`Program`]s, the inputs into
//! one `bytecode::MultiProgram`, which evaluates each subtree they share
//! once (Q1's `sum_charge` reads the slots of its `sum_disc_price`). Each
//! worker takes one morsel of the source — a dense range when the conjuncts
//! kept every row, else the row ids they kept — evaluates the key programs
//! into pooled slot buffers, finds its groups once (its runs of equal keys,
//! or by index into a compact key domain or through a map, then sorted into
//! runs), then evaluates the inputs and folds one aggregate at a time, run
//! by run, with the accumulator dispatch outside the row loop. No
//! intermediate column exists between the source and the fold. The work is
//! *priced* twice from the same counts: as MonetDB's full materialization
//! (`bytecode::Cost`, each filter's gather included) and as the base columns
//! streamed.
//!
//! The morsel partials are merged **in morsel order**, so the global group
//! order is exactly the serial first-appearance order and every float
//! reduction tree depends only on the data and the morsel size — never on the
//! thread count (bit-exact determinism; see `exec::parallel`).
//!
//! The form is observed where the keys are (DESIGN.md §5.1). One pass over
//! a morsel's key buffers (`key_runs`) records where each run of equal key
//! tuples starts, and stops at an inversion. A morsel whose tuples never
//! decrease has contiguous groups, and its partial is cut in the **run
//! form**: one `u32` start per run, no map and no per-row group id. Each
//! aggregate folds its input run by run; `count(distinct)` copies out each
//! run's distinct values, through a set only when the run is long.
//!
//! Any other morsel first gives each row a group id, handed out in
//! first-appearance order: in the **compact form** by index, when its key
//! columns' spans multiply to at most `COMPACT_GROUPS` (each row's
//! mixed-radix slot indexes one array of group ids), else in the **hash
//! form**, through a map of each row's key. The two forms differ in nothing
//! else. A stable counting sort orders the morsel's row ids by group, and
//! the inputs are evaluated over the rows in that order — each input read
//! once, straight into group order — and folded as runs: one accumulator
//! kernel for every form and no per-row scatter (slower on Q1: DESIGN.md
//! §13). Every partial keeps per group only its key slots and first row;
//! only a hash merge takes one cut out of key order.
//!
//! When every partial is in the run form and none starts below the key its
//! predecessor ended on, the whole input is in key order and the merge
//! appends: a partial's first group may continue the table's last, and the
//! rest move in behind it. No table, nothing reserved (its memory is its
//! output), never the degradation ladder. Otherwise the merge is the hash
//! form, which takes partials of every kind. Every form feeds each group its
//! rows in row order and every merge folds the partials in morsel order, so
//! every accumulator sees the same values in the same order and the output
//! is bit-identical. The compact form is priced as the hash form.
//!
//! Decimal sums accumulate in `i128`, which is exact and order-free; `avg`
//! over fixed-point inputs (decimal/int) likewise sums mantissas in `i128`
//! and divides once at the end, and `min`/`max` keep the first extreme slot
//! in the order of its type — all independent of where the morsels are cut.
//! Float `sum`/`avg` are cut like every other accumulator, in the base
//! table's morsels with or without a filter folded in: their bits depend on
//! `morsel_rows` and never on the thread count. `avg` over an empty group
//! yields `0.0` — SQL would say NULL, but no reproduced query aggregates an
//! empty group (DESIGN.md §7).
//!
//! A merged group table over budget descends the degradation ladder
//! (`exec::ladder`) over the partials the fold already cut: it partitions
//! their groups by key, so a partition's table merges, partial by partial in
//! morsel order, exactly the per-morsel values the resident merge would have.
//! Nothing is filtered, evaluated or folded twice.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use super::bytecode::{self, MultiProgram, Program, Rows, Ty};
use super::filter::Conjuncts;
use super::hash::{FxMap, FxSet, SmallSet};
use super::ladder::{self, Attempt, FromSlots, Verdict};
use super::parallel::{morsel_ranges, run_morsels_spanned, EngineConfig, Executor};
use super::partition::Partitioner;
use super::Ledger;
use super::{bounds, ensure_u32_indexable};
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
/// `partials` stage span (labelled `runs` when the merge took the run form,
/// else `compact` when no morsel was cut in the hash form, else `hash`, with
/// per-morsel children) is attached to the open aggregate span.
///
/// A merged table over budget descends the ladder over the partials' groups
/// (see the module doc); the filters run, and are charged and traced, once
/// either way.
///
/// The hash merge reserves one `width`-byte table entry per distinct group
/// (the same constant the work profile charges to `hash_bytes`); the run
/// merge reserves nothing, so it always fits.
#[allow(clippy::too_many_arguments)]
pub fn exec_aggregate(
    src: &Relation,
    filters: &[&Expr],
    table: Option<&Table>,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    led: &mut Ledger,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    let n = src.num_rows();
    ensure_u32_indexable(n, "aggregate")?;
    // 1. Compile the conjuncts, the keys and the aggregate inputs.
    let chain = Conjuncts::compile(filters, src)?;
    let keys =
        group_by.iter().map(|(e, _)| Program::compile(e, src)).collect::<Result<Vec<_>>>()?;
    let exprs: Vec<Option<&Expr>> =
        aggs.iter().map(|a| a.expr.as_ref().filter(|_| a.func != AggFunc::CountStar)).collect();
    let inputs = MultiProgram::compile(&exprs, src)?;
    let empty = aggs
        .iter()
        .zip(inputs.outputs())
        .map(|(a, input)| AggState::bind(a.func, input))
        .collect::<Result<Vec<_>>>()?;
    let feed = Feed { keys: &keys, inputs: &inputs, empty: &empty };
    let pruner = chain.pruner(table, n);

    // 2. Morsel-local partials, then an in-order merge.
    let sink = tracer.morsel_sink();
    let stage_started = tracer.is_enabled().then(Instant::now);
    let morsels = run_morsels_spanned(cfg, &morsel_ranges(n, cfg.morsel_rows), &sink, |_, r| {
        let r = if ctx.interrupted() { 0..0 } else { r };
        let (kept, tally) = chain.filter_morsel(pruner.as_ref(), r.clone());
        let rows = kept_rows(kept.as_deref(), r);
        let folded = (MorselAgg::fold(&rows, &feed), rows.len(), tally);
        kept.into_iter().for_each(selection::put_scratch);
        folded
    });
    ctx.checkpoint()?;
    let mut partials: Vec<MorselAgg> = Vec::with_capacity(morsels.len());
    let (mut nsel, mut tally) = (0u64, chain.tally());
    for (partial, rows, kept) in morsels {
        partials.push(partial);
        nsel += rows as u64;
        tally.add(&kept);
    }
    chain.settle(&tally, n, nsel, None, Some((src, ctx)), led, tracer);
    let width = 32 * (group_by.len() + aggs.len()).max(1) as u64;
    // The fold above runs the same with or without a budget, so the form it
    // cut its partials in names the stage at any budget.
    let hashed = partials.iter().any(|p| p.cut == Cut::Hash);
    let (first_rows, mut states, runs) = match merge_partials(partials, &feed, width, ctx) {
        Ok(merged) => merged,
        Err(partials) => {
            // Redo the merge down the ladder: partition the partials' groups
            // by key hash and merge one bounded table per partition,
            // sequentially. The partitioner keeps 6 B per group, but the
            // rows the fold kept are tracked: never fewer, and unlike the
            // groups, not a function of where the morsels were cut.
            let slots: Vec<Vec<i64>> = (0..keys.len())
                .map(|c| partials.iter().flat_map(|p| &p.keys[c]).copied().collect())
                .collect();
            let slots = ladder::as_slices(&slots);
            let groups = partials.iter().map(|p| p.first_rows.len()).sum();
            ctx.track(nsel * Partitioner::BYTES_PER_ROW);
            let (first_rows, states) =
                ladder::descend(ctx, &mut led.shared, "aggregate", &[(groups, &slots)], |att| {
                    attempt(att, &partials, &feed, width, ctx)
                })?;
            (first_rows, states, false)
        }
    };
    let ngroups = if group_by.is_empty() { 1 } else { first_rows.len() };
    states.iter_mut().for_each(|st| st.grow_to(ngroups));
    if let Some(started) = stage_started {
        let form = match (runs, hashed) {
            (true, _) => "runs",
            (false, false) => "compact",
            (false, true) => "hash",
        };
        let mut stage = Span::leaf("partials", form);
        stage.rows_in = nsel;
        stage.rows_out = ngroups as u64;
        stage.wall_ns = started.elapsed().as_nanos() as u64;
        stage.children = sink.into_spans();
        tracer.attach(stage);
    }

    // 3. Charge the work, the expression programs in both price lists.
    let programs = || keys.iter().chain(inputs.outputs().flatten());
    led.lists.materialize += price(programs(), nsel, Executor::Materialize);
    led.lists.fused += price(programs(), nsel, Executor::Fused);
    let prof = &mut led.shared;
    prof.cpu_ops += nsel * (1 + aggs.len() as u64);
    if !runs {
        prof.rand_accesses += nsel;
        prof.hash_bytes += ngroups as u64 * width;
    }
    // `count(distinct)` is one hashed insert per row in every form: that is
    // MonetDB's price, though the run form deduplicates in the slot buffer.
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
    for ((agg, st), input) in aggs.iter().zip(states).zip(inputs.outputs()) {
        fields.push((agg.name.clone(), Arc::new(st.finish(input)?)));
    }
    prof.seq_write_bytes += fields.iter().map(|(_, c)| c.stream_bytes() as u64).sum::<u64>();
    Relation::new(fields)
}

/// What evaluating `programs` over `rows` rows costs in `list`: full
/// materialization streams every node's operands in and its result out; the
/// fused form reads the base columns and *writes nothing* — the intermediate
/// `seq_write_bytes` term collapses to just the output.
fn price<'p>(
    programs: impl Iterator<Item = &'p Program>,
    rows: u64,
    list: Executor,
) -> WorkProfile {
    let mut p = WorkProfile::new();
    for program in programs {
        match list {
            Executor::Materialize => program.cost().charge(rows, &mut p),
            Executor::Fused => {
                p.cpu_ops += rows;
                p.seq_read_bytes += rows * program.width_bytes();
            }
        }
    }
    p
}

/// The rows of the morsel `r` that its filter kept, as
/// [`Conjuncts::filter_morsel`] returns them: a morsel whose every row was
/// kept folds as its range, whether or not the filter built their ids.
fn kept_rows(kept: Option<&[u32]>, r: Range<usize>) -> Rows<'_> {
    match kept {
        Some(ids) if ids.len() < r.len() => Rows::Sparse(ids),
        _ => Rows::Dense(r),
    }
}

/// What every partial of one fold is built from: the compiled key programs,
/// the aggregates' inputs (one output per aggregate; `None`: `count(*)`),
/// and each aggregate's empty state.
struct Feed<'p> {
    keys: &'p [Program],
    inputs: &'p MultiProgram,
    empty: &'p [AggState<'p>],
}

/// Fills `starts` with the first row of every run of equal key tuples over
/// the `n` rows, then `n`, and returns true — or returns false once a row's
/// tuple is lexicographically below its predecessor's: the rows are then not
/// in key order, and their groups need not be contiguous. Zero key columns
/// (the global group) are one run, read off `n` alone.
fn key_runs(cols: &[Vec<i64>], n: usize, starts: &mut Vec<u32>) -> bool {
    match cols {
        [] => {
            starts.clear();
            starts.extend((n > 0).then_some(0));
            starts.push(n as u32);
            true
        }
        [c] => runs_by(n, starts, |i| (c[i - 1] != c[i], c[i - 1] > c[i])),
        _ => runs_by(n, starts, |i| {
            let (mut new, mut down) = (false, false);
            for c in cols {
                down |= !new & (c[i - 1] > c[i]);
                new |= c[i - 1] != c[i];
            }
            (new, down)
        }),
    }
}

/// [`key_runs`] over `step(i)`: whether row `i` starts a run, and whether
/// its key is below row `i - 1`'s. No branch depends on the keys: every row
/// writes its index at the end of `starts` and only a new run keeps it, and
/// order is checked once per block of rows, so an inversion stops the pass
/// within a block.
fn runs_by(n: usize, starts: &mut Vec<u32>, step: impl Fn(usize) -> (bool, bool)) -> bool {
    const BLOCK: usize = 1024;
    starts.clear();
    starts.resize(n + 1, 0);
    let mut kept = usize::from(n > 0);
    for from in (1..n).step_by(BLOCK) {
        let mut ordered = true;
        for i in from..(from + BLOCK).min(n) {
            let (new, down) = step(i);
            starts[kept] = i as u32;
            kept += usize::from(new);
            ordered &= !down;
        }
        if !ordered {
            return false;
        }
    }
    starts[kept] = n as u32;
    starts.truncate(kept + 1);
    true
}

/// The most groups a morsel's key domain may hold for its partial to be cut
/// in the compact form: the product of its key columns' spans. A group-id
/// array of this many `u32`s is 16 KiB, well inside L1 + L2 on either host
/// the study models. The join's offset array weighs its domain against the
/// hash table instead (DESIGN.md §5.1).
const COMPACT_GROUPS: u64 = 4096;

/// The compact form's group resolution over `n` rows of the key columns
/// `cols`: when the spans `max − min + 1` of the columns multiply to at most
/// [`COMPACT_GROUPS`] (in checked `u64`: a column spanning all of `i64`
/// overflows and fails), fills `gids` with each row's group and `firsts`
/// with each group's first row, both in first-appearance order, and returns
/// true. Each row's mixed-radix slot indexes one array of group ids; no key
/// is built and nothing is hashed. Otherwise returns false, and `gids` and
/// `firsts` are unspecified.
fn compact_groups(cols: &[Vec<i64>], n: usize, gids: &mut Vec<u32>, firsts: &mut Vec<u32>) -> bool {
    let mut radix = Vec::with_capacity(cols.len());
    let mut size = 1u64;
    for c in cols {
        let Some((lo, hi)) = bounds(&c[..n]) else { break };
        match hi.abs_diff(lo).checked_add(1).and_then(|span| size.checked_mul(span)) {
            Some(next) if next <= COMPACT_GROUPS => {
                radix.push((lo, std::mem::replace(&mut size, next)))
            }
            _ => return false,
        }
    }
    gids.clear();
    gids.resize(n, 0);
    for (c, &(lo, stride)) in cols.iter().zip(&radix) {
        for (slot, &k) in gids.iter_mut().zip(c) {
            // Every slot is below `size`, at most `COMPACT_GROUPS`.
            *slot += k.wrapping_sub(lo) as u32 * stride as u32;
        }
    }
    let mut group_of = vec![u32::MAX; size as usize];
    firsts.clear();
    for (i, slot) in gids.iter_mut().enumerate() {
        let g = &mut group_of[*slot as usize];
        if *g == u32::MAX {
            *g = firsts.len() as u32;
            firsts.push(i as u32);
        }
        *slot = *g;
    }
    true
}

/// The hash form's group resolution, with [`compact_groups`]'s contract over
/// any key domain: fills `gids` with the group of each of the `n` rows and
/// `firsts` with each group's first row, both in first-appearance order,
/// through a map of each row's [`Key`].
fn hash_groups(cols: &[Vec<i64>], n: usize, gids: &mut Vec<u32>, firsts: &mut Vec<u32>) {
    let cols = ladder::as_slices(cols);
    let mut map = KeyMap::default();
    gids.clear();
    firsts.clear();
    for i in 0..n {
        let key = Key::at(&cols, i);
        // `get` first, not `entry`: rows of known groups dominate, and the
        // entry API measured 10 % slower on them (it moves the key around).
        gids.push(map.get(&key).copied().unwrap_or_else(|| {
            let g = firsts.len() as u32;
            map.insert(key, g);
            firsts.push(i as u32);
            g
        }));
    }
}

/// A stable counting sort of `rows` by their group ids `gids`, which are
/// below `ngroups`: fills `ids` with the row ids group by group, each
/// group's in row order, and `starts` with where each group begins in it,
/// then the row count — the runs [`AggState::push_runs`] folds.
fn sort_by_group(
    gids: &[u32],
    ngroups: usize,
    rows: &Rows,
    starts: &mut Vec<u32>,
    ids: &mut Vec<u32>,
) {
    starts.clear();
    starts.resize(ngroups + 1, 0);
    gids.iter().for_each(|&g| starts[g as usize + 1] += 1);
    for g in 0..ngroups {
        starts[g + 1] += starts[g];
    }
    let mut at = selection::take_scratch();
    at.extend_from_slice(&starts[..ngroups]);
    ids.clear();
    ids.resize(gids.len(), 0);
    match rows {
        Rows::Dense(r) => place(gids, &mut at, ids, r.clone().map(|i| i as u32)),
        Rows::Sparse(s) => place(gids, &mut at, ids, s.iter().copied()),
    }
    selection::put_scratch(at);
}

/// Writes each of `row_ids` at the next position `at` holds for its group.
fn place(gids: &[u32], at: &mut [u32], ids: &mut [u32], row_ids: impl Iterator<Item = u32>) {
    for (&g, id) in gids.iter().zip(row_ids) {
        ids[at[g as usize] as usize] = id;
        at[g as usize] += 1;
    }
}

/// How group `i` of the key columns `a` compares with group `j` of `b`:
/// lexicographically, slot by slot (zero columns compare equal).
fn cmp_keys(a: &[Vec<i64>], i: usize, b: &[Vec<i64>], j: usize) -> Ordering {
    a.iter().zip(b).map(|(x, y)| x[i].cmp(&y[j])).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// Every group's first row, the merged states, and whether the merge took the
/// run form.
type Merged<'p> = (Vec<u32>, Vec<AggState<'p>>, bool);

/// Merges the morsel partials into one global table, in morsel order (see the
/// module doc): in the run form when every non-empty partial was cut in it
/// and starts at or after the key its predecessor ended on — the whole input
/// is then in key order — else in the hash form. Hands the partials back as
/// soon as a new group no longer fits the query budget. The reservation is
/// released on return either way: the table's peak is already recorded, and
/// what survives the merge is the output itself.
fn merge_partials<'p>(
    partials: Vec<MorselAgg<'p>>,
    feed: &Feed<'p>,
    width: u64,
    ctx: &QueryContext,
) -> std::result::Result<Merged<'p>, Vec<MorselAgg<'p>>> {
    // Whether each partial's first group continues the group the non-empty
    // partial before it ended on.
    let (mut runs, mut prev) = (true, None::<(&[Vec<i64>], usize)>);
    let continues: Vec<bool> = partials
        .iter()
        .map(|p| {
            if p.first_rows.is_empty() {
                return false;
            }
            let order = prev.map(|(last, at)| cmp_keys(last, at, &p.keys, 0));
            runs &= p.cut == Cut::Runs && order != Some(Ordering::Greater);
            prev = Some((&p.keys, p.first_rows.len() - 1));
            order == Some(Ordering::Equal)
        })
        .collect();
    if runs {
        let (first_rows, states) = append_runs(partials, &continues, feed);
        return Ok((first_rows, states, true));
    }
    let groups = partials.iter().map(|p| p.first_rows.len()).sum();
    let Some(mut table) = GroupTable::new(feed.empty.to_vec(), width, ctx) else {
        return Err(partials);
    };
    if !table.absorb(&partials, 0..groups) {
        return Err(partials);
    }
    Ok((table.first_rows, table.states, false))
}

/// The run form's merge: the whole input is in key order, so each partial's
/// groups follow the table's, and only its first may continue the table's
/// last (`continues`, per partial). That one group is folded in; the rest are
/// moved in behind it. No map, no reservation, and the states are sized once,
/// for every partial group.
fn append_runs<'p>(
    partials: Vec<MorselAgg<'p>>,
    continues: &[bool],
    feed: &Feed<'p>,
) -> (Vec<u32>, Vec<AggState<'p>>) {
    let total = partials.iter().map(|p| p.first_rows.len()).sum();
    let mut first_rows = Vec::with_capacity(total);
    let mut states: Vec<AggState> = feed.empty.iter().map(|st| st.run_table(total)).collect();
    for (partial, &joins) in partials.into_iter().zip(continues) {
        first_rows.extend_from_slice(&partial.first_rows[joins as usize..]);
        for (st, part) in states.iter_mut().zip(partial.states) {
            st.append(part, joins);
        }
    }
    (first_rows, states)
}

/// One budgeted hash group table — the whole input's, or one partition's: a
/// reservation grown by `width` bytes per distinct group (the same constant
/// the work profile charges to `hash_bytes`), the key → group map, and the
/// accumulated states. It absorbs partials of every form. Dropping the
/// table releases the reservation.
struct GroupTable<'p> {
    guard: Reservation,
    width: u64,
    map: KeyMap,
    first_rows: Vec<u32>,
    states: Vec<AggState<'p>>,
}

impl<'p> GroupTable<'p> {
    fn new(states: Vec<AggState<'p>>, width: u64, ctx: &QueryContext) -> Option<Self> {
        let guard = ctx.try_reserve(0)?;
        Some(GroupTable { guard, width, map: KeyMap::default(), first_rows: Vec::new(), states })
    }

    /// Folds in the partials' groups at the positions `at`, ascending. A
    /// position numbers one group of one partial, the partials' groups laid
    /// end to end in morsel order, so the groups arrive partial by partial,
    /// each partial's in its first-appearance order. The partials are only
    /// read. Returns `false` — leaving the table unusable — as soon as a new
    /// group no longer fits the budget.
    fn absorb(&mut self, partials: &[MorselAgg<'p>], at: impl Iterator<Item = usize>) -> bool {
        let (mut at, mut end) = (at.peekable(), 0);
        // (local group, table group) of each absorbed group of a partial.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for partial in partials {
            let from = end;
            end += partial.first_rows.len();
            pairs.clear();
            pairs.extend(std::iter::from_fn(|| at.next_if(|&i| i < end)).map(|i| (i - from, 0)));
            if pairs.is_empty() {
                continue;
            }
            let cols = ladder::as_slices(&partial.keys);
            for (g, global) in &mut pairs {
                let next = self.first_rows.len();
                *global = match self.map.entry(Key::at(&cols, *g)) {
                    Entry::Occupied(e) => *e.get() as usize,
                    Entry::Vacant(e) => {
                        if !self.guard.grow(self.width) {
                            return false;
                        }
                        self.first_rows.push(partial.first_rows[*g]);
                        *e.insert(next as u32) as usize
                    }
                };
            }
            for (gst, lst) in self.states.iter_mut().zip(&partial.states) {
                gst.grow_to(self.first_rows.len());
                gst.merge_from(lst, &pairs);
            }
        }
        true
    }
}

/// One attempt of the degradation ladder ([`ladder::descend`]) below the
/// in-memory merge: merge one partition of the groups at a time, each into
/// its own table against its own reservation. The ladder partitions
/// positions among the `partials`' groups, laid end to end in morsel order
/// ([`GroupTable::absorb`]); only that routing is staged, and every group's
/// state is read from its partial.
///
/// Bit-exactness: a group's partition depends only on its key, so each
/// partition's table absorbs every group it holds from every partial, in
/// morsel order, with exactly the per-morsel values of the unpartitioned
/// merge. Distinct groups have distinct first rows, so sorting the stitched
/// groups by first row reproduces the unpartitioned first-appearance group
/// order exactly.
fn attempt<'p>(
    att: &mut Attempt<'_, Key>,
    partials: &[MorselAgg<'p>],
    feed: &Feed<'p>,
    width: u64,
    ctx: &QueryContext,
) -> Result<Verdict<(Vec<u32>, Vec<AggState<'p>>)>> {
    let parts = att.stage()?;
    // (first row, partition, local gid) of every group, in discovery
    // order, plus each partition's accumulated states.
    let mut order: Vec<(u32, u32, u32)> = Vec::new();
    let mut part_states: Vec<Vec<AggState>> = Vec::with_capacity(parts.len());
    for p in parts.iter() {
        let p = p?;
        let mut table = GroupTable::new(feed.empty.to_vec(), width, ctx)
            .expect("an empty reservation always fits");
        if !table.absorb(partials, parts.rows(0, p)?.map(|(at, _)| at as usize)) {
            // A partition of one group cannot shrink further.
            let alone = table.first_rows.is_empty();
            let verdict = if alone { Verdict::Hopeless } else { Verdict::Double };
            return Ok(verdict(table.guard.bytes() + width));
        }
        let groups = table.first_rows.iter().enumerate();
        order.extend(groups.map(|(lg, &fr)| (fr, p as u32, lg as u32)));
        part_states.push(table.states);
        // `table.guard` drops here: the partition's table scratch is
        // released before the next partition reserves its own.
    }
    // Every partition fit. Stitch the global table in first-appearance
    // order; folding each partition total into a fresh accumulator is
    // exact (0 + x, None → x, set ∪ ∅).
    order.sort_unstable_by_key(|&(fr, _, _)| fr);
    let mut pairs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); part_states.len()];
    for (g, &(_, p, lg)) in order.iter().enumerate() {
        pairs[p as usize].push((lg as usize, g));
    }
    let mut gstates = feed.empty.to_vec();
    for (pstates, pairs) in part_states.iter().zip(&pairs) {
        for (gst, lst) in gstates.iter_mut().zip(pstates) {
            gst.grow_to(order.len());
            gst.merge_from(lst, pairs);
        }
    }
    Ok(Verdict::Fit((order.into_iter().map(|(fr, _, _)| fr).collect(), gstates)))
}

type KeyMap = FxMap<Key, u32>;

/// A group key of `key_values`-encoded slots, as the key programs emit them:
/// the common 0/1/2-column cases avoid heap allocation. The hash form's
/// resolver builds one per row to look its group up; every partial keeps key
/// slots, and a hash merge builds one per partial group from them.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(super) enum Key {
    Unit,
    One(i64),
    Two(i64, i64),
    Many(Vec<i64>),
}

impl FromSlots for Key {
    #[inline]
    fn at(cols: &[&[i64]], i: usize) -> Key {
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
#[cfg_attr(test, derive(Debug))]
struct MorselAgg<'p> {
    /// Each group's key slots, in first-appearance order, one vector per key
    /// column (the layout [`FromSlots::at`] reads): the run merge compares a
    /// partial's first with the last before it, and a hash merge makes them
    /// keys.
    keys: Vec<Vec<i64>>,
    first_rows: Vec<u32>,
    states: Vec<AggState<'p>>,
    cut: Cut,
}

/// How a morsel found its groups, which names its form.
#[derive(Clone, Copy, PartialEq, Eq)]
#[cfg_attr(test, derive(Debug))]
enum Cut {
    /// Its runs: the key tuples never decreased, so its groups are
    /// contiguous and their keys ascend.
    Runs,
    /// By index into a compact key domain, then sorted into runs.
    Compact,
    /// Through a map, then sorted into runs.
    Hash,
}

impl<'p> MorselAgg<'p> {
    /// Folds the given rows of the source. One pass over the key buffers
    /// finds the runs of equal keys; when it meets no inversion the morsel
    /// is cut in runs, the inputs are evaluated over `rows` and each
    /// aggregate folds its input run by run, with no per-row group id.
    /// Otherwise each row is given its group — by one array indexed by its
    /// key when the key domain is compact, else through a map — a stable
    /// counting sort orders the row ids by group, and the inputs are
    /// evaluated over the rows in that order, so each is read once, already
    /// in runs of its groups. Either way the state dispatch is hoisted out of
    /// the row loop. `first_rows` carry the source's own row ids, so the
    /// merged group order and the key gathers do not depend on how the rows
    /// were selected. Scratch buffers come from the thread-local pools; what
    /// the partial keeps is allocated at its final size.
    fn fold(rows: &Rows, feed: &Feed<'p>) -> Self {
        let n = rows.len();
        let keybufs: Vec<Vec<i64>> = feed.keys.iter().map(|k| k.slots_of(rows)).collect();
        let mut states = feed.empty.to_vec();
        let mut starts = selection::take_scratch();
        let (mut gids, mut firsts) = (selection::take_scratch(), selection::take_scratch());
        let cut = if key_runs(&keybufs, n, &mut starts) {
            feed.inputs.eval(rows, |a, x| states[a].push_runs(&starts, x));
            firsts.extend_from_slice(&starts[..starts.len() - 1]);
            Cut::Runs
        } else {
            let cut = if compact_groups(&keybufs, n, &mut gids, &mut firsts) {
                Cut::Compact
            } else {
                hash_groups(&keybufs, n, &mut gids, &mut firsts);
                Cut::Hash
            };
            // Sorted by group, stably, each group is a run of its rows in
            // row order.
            let mut ids = selection::take_scratch();
            sort_by_group(&gids, firsts.len(), rows, &mut starts, &mut ids);
            feed.inputs.eval(&Rows::Sparse(&ids), |a, x| states[a].push_runs(&starts, x));
            selection::put_scratch(ids);
            cut
        };
        let partial = MorselAgg {
            keys: keybufs.iter().map(|c| firsts.iter().map(|&i| c[i as usize]).collect()).collect(),
            first_rows: firsts.iter().map(|&i| rows.id(i as usize)).collect(),
            states,
            cut,
        };
        [starts, gids, firsts].into_iter().for_each(selection::put_scratch);
        keybufs.into_iter().for_each(bytecode::put_slots);
        partial
    }
}

/// The order of one `min`/`max` input's slots: that of the values they
/// encode (`key_values` is injective, not monotone, for floats and strings).
#[derive(Clone, Copy)]
#[cfg_attr(test, derive(Debug))]
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
#[cfg_attr(test, derive(Debug))]
enum AggState<'p> {
    /// `count(*)` (no input) and `count_if` (0/1 slots).
    Count(Vec<i64>),
    /// `count(distinct)` in a hash merge's table, and the empty state every
    /// partial starts from: one set per group.
    Distinct(Vec<SmallSet>),
    /// `count(distinct)` in a partial, `(starts, vals)`: every group's
    /// distinct values back to back, group `g`'s at `starts[g]..starts[g + 1]`,
    /// because a merge may yet need them.
    DistinctRuns(Vec<u32>, Vec<i64>),
    /// `count(distinct)` in the run merge, `(counts, open)`: each group's
    /// distinct count, and the values of its last group, the one a later
    /// partial can continue.
    DistinctCounts(Vec<i64>, SmallSet),
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

/// Runs longer than this deduplicate their `count(distinct)` values through a
/// hash set; shorter ones by a scan of the values already kept.
const LONG_RUN: usize = 16;

/// A float partial sum over `xs` (`f64::to_bits` slots): from `+0.0`, adding
/// in row order.
fn float_sum(xs: &[i64]) -> f64 {
    xs.iter().fold(0.0, |sum, &x| sum + f64::from_bits(x as u64))
}

/// Appends a partial's per-group values to the run merge's: when `joins`,
/// its first group continues the table's last and is folded into it.
fn append_with<T>(g: &mut Vec<T>, l: Vec<T>, joins: bool, fold: impl Fn(&mut T, T)) {
    let mut l = l.into_iter();
    if let (true, Some(last)) = (joins, g.last_mut()) {
        if let Some(x) = l.next() {
            fold(last, x);
        }
    }
    g.extend(l);
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

    fn grow_to(&mut self, ngroups: usize) {
        match self {
            AggState::Count(v) | AggState::SumInt(v) => v.resize(ngroups, 0),
            AggState::DistinctCounts(v, _) => v.resize(ngroups, 0),
            AggState::Distinct(v) => v.resize_with(ngroups, SmallSet::default),
            AggState::DistinctRuns(..) => unreachable!("a partial is never grown"),
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

    /// This empty state as the run merge's table, with room for `cap` groups.
    fn run_table(&self, cap: usize) -> Self {
        match self {
            AggState::Count(_) => AggState::Count(Vec::with_capacity(cap)),
            AggState::Distinct(_) | AggState::DistinctRuns(..) | AggState::DistinctCounts(..) => {
                AggState::DistinctCounts(Vec::with_capacity(cap), SmallSet::default())
            }
            AggState::SumDec(_, s) => AggState::SumDec(Vec::with_capacity(cap), *s),
            AggState::SumInt(_) => AggState::SumInt(Vec::with_capacity(cap)),
            AggState::SumFloat(_) => AggState::SumFloat(Vec::with_capacity(cap)),
            AggState::AvgFixed { scale, .. } => AggState::AvgFixed {
                sum: Vec::with_capacity(cap),
                cnt: Vec::with_capacity(cap),
                scale: *scale,
            },
            AggState::Avg { .. } => {
                AggState::Avg { sum: Vec::with_capacity(cap), cnt: Vec::with_capacity(cap) }
            }
            AggState::Extreme { want, order, .. } => {
                AggState::Extreme { best: Vec::with_capacity(cap), want: *want, order: *order }
            }
        }
    }

    /// Accumulates one morsel whose rows are in runs of their groups, the one
    /// kernel every form feeds: group `g` is rows `starts[g]..starts[g + 1]`
    /// and is fed their `slots` in row order (no slots: `count(*)`), so the
    /// state is built at its final size and no row needs a group id. The
    /// slots are only read: other aggregates may read the same buffer.
    fn push_runs(&mut self, starts: &[u32], slots: Option<&[i64]>) {
        let runs = || starts.windows(2).map(|w| w[0] as usize..w[1] as usize);
        let Some(xs) = slots else {
            if let AggState::Count(v) = self {
                *v = runs().map(|r| r.len() as i64).collect();
            }
            return;
        };
        match self {
            AggState::Count(v) | AggState::SumInt(v) => {
                *v = runs().map(|r| xs[r].iter().sum()).collect()
            }
            AggState::SumDec(v, _) => {
                *v = runs().map(|r| xs[r].iter().map(|&x| x as i128).sum()).collect()
            }
            AggState::SumFloat(v) => *v = runs().map(|r| float_sum(&xs[r])).collect(),
            AggState::AvgFixed { sum, cnt, .. } => {
                *sum = runs().map(|r| xs[r].iter().map(|&x| x as i128).sum()).collect();
                *cnt = runs().map(|r| r.len() as i64).collect();
            }
            AggState::Avg { sum, cnt } => {
                *sum = runs().map(|r| float_sum(&xs[r])).collect();
                *cnt = runs().map(|r| r.len() as i64).collect();
            }
            AggState::Extreme { best, want, order } => {
                *best = runs()
                    .map(|r| {
                        let mut b = None;
                        xs[r].iter().for_each(|&x| order.offer(&mut b, x, *want));
                        b
                    })
                    .collect()
            }
            AggState::Distinct(_) | AggState::DistinctRuns(..) | AggState::DistinctCounts(..) => {
                // Each run's distinct values are appended to a scratch
                // buffer, checked against a set when the run is long.
                let (mut kept, mut seen) = (bytecode::take_slots(), FxSet::default());
                let ends = runs().map(|r| {
                    let (from, long) = (kept.len(), r.len() > LONG_RUN);
                    seen.clear();
                    for &x in &xs[r] {
                        if if long { seen.insert(x) } else { !kept[from..].contains(&x) } {
                            kept.push(x);
                        }
                    }
                    kept.len() as u32
                });
                let starts = std::iter::once(0).chain(ends).collect();
                *self = AggState::DistinctRuns(starts, kept.to_vec());
                bytecode::put_slots(kept);
            }
        }
    }

    /// Moves a partial's groups in behind the run merge's, folding its first
    /// into the table's last when `joins`. Moving a group in equals folding
    /// it into a fresh one: counts and exact sums start at 0 and `min`/`max`
    /// at `None`; a float partial sum starts at `+0.0`, so it is never `-0.0`
    /// (`+0.0 + -0.0` is `+0.0`) and has the bits of `0.0 + x`.
    fn append(&mut self, part: AggState<'p>, joins: bool) {
        match (self, part) {
            (AggState::Count(g), AggState::Count(l))
            | (AggState::SumInt(g), AggState::SumInt(l)) => {
                append_with(g, l, joins, |a, b| *a += b)
            }
            (AggState::SumDec(g, _), AggState::SumDec(l, _)) => {
                append_with(g, l, joins, |a, b| *a += b)
            }
            (AggState::SumFloat(g), AggState::SumFloat(l)) => {
                append_with(g, l, joins, |a, b| *a += b)
            }
            (
                AggState::AvgFixed { sum: gs, cnt: gc, .. },
                AggState::AvgFixed { sum: ls, cnt: lc, .. },
            ) => {
                append_with(gs, ls, joins, |a, b| *a += b);
                append_with(gc, lc, joins, |a, b| *a += b);
            }
            (AggState::Avg { sum: gs, cnt: gc }, AggState::Avg { sum: ls, cnt: lc }) => {
                append_with(gs, ls, joins, |a, b| *a += b);
                append_with(gc, lc, joins, |a, b| *a += b);
            }
            (AggState::Extreme { best: g, want, order }, AggState::Extreme { best: l, .. }) => {
                append_with(g, l, joins, |a, b| {
                    b.into_iter().for_each(|x| order.offer(a, x, *want))
                })
            }
            (AggState::DistinctCounts(counts, open), AggState::DistinctRuns(starts, vals)) => {
                let group = |g: usize| &vals[starts[g] as usize..starts[g + 1] as usize];
                let (groups, mut from) = (starts.len() - 1, 0);
                if let (true, Some(last)) = (joins && groups > 0, counts.last_mut()) {
                    group(0).iter().for_each(|&v| open.insert(v));
                    *last = open.len() as i64;
                    from = 1;
                }
                counts.extend(starts[from..].windows(2).map(|w| i64::from(w[1] - w[0])));
                if groups > from {
                    // The partial's last group is new: it is the one left open.
                    *open = SmallSet::default();
                    group(groups - 1).iter().for_each(|&v| open.insert(v));
                }
            }
            _ => unreachable!("partials share one state layout"),
        }
    }

    /// Folds groups of a morsel-local state into this global one: each
    /// `(local, global)` of `pairs` folds local group `local` into global
    /// group `global`. Merging in morsel order keeps float sums and min/max
    /// tie-breaks identical to the serial scan.
    fn merge_from(&mut self, other: &AggState, pairs: &[(usize, usize)]) {
        match (self, other) {
            (AggState::Count(g), AggState::Count(l))
            | (AggState::SumInt(g), AggState::SumInt(l)) => {
                pairs.iter().for_each(|&(lg, gg)| g[gg] += l[lg])
            }
            (AggState::Distinct(g), AggState::Distinct(l)) => {
                pairs.iter().for_each(|&(lg, gg)| g[gg].absorb(&l[lg]))
            }
            (AggState::Distinct(g), AggState::DistinctRuns(starts, vals)) => {
                for &(lg, gg) in pairs {
                    let group = &vals[starts[lg] as usize..starts[lg + 1] as usize];
                    group.iter().for_each(|&v| g[gg].insert(v));
                }
            }
            (AggState::SumDec(g, _), AggState::SumDec(l, _)) => {
                pairs.iter().for_each(|&(lg, gg)| g[gg] += l[lg])
            }
            (AggState::SumFloat(g), AggState::SumFloat(l)) => {
                pairs.iter().for_each(|&(lg, gg)| g[gg] += l[lg])
            }
            (
                AggState::AvgFixed { sum: gs, cnt: gc, .. },
                AggState::AvgFixed { sum: ls, cnt: lc, .. },
            ) => {
                for &(lg, gg) in pairs {
                    gs[gg] += ls[lg];
                    gc[gg] += lc[lg];
                }
            }
            (AggState::Avg { sum: gs, cnt: gc }, AggState::Avg { sum: ls, cnt: lc }) => {
                for &(lg, gg) in pairs {
                    gs[gg] += ls[lg];
                    gc[gg] += lc[lg];
                }
            }
            (AggState::Extreme { best: g, want, order }, AggState::Extreme { best: l, .. }) => {
                for &(lg, gg) in pairs {
                    l[lg].into_iter().for_each(|x| order.offer(&mut g[gg], x, *want));
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
            AggState::DistinctCounts(v, _) => Column::Int64(v),
            AggState::Distinct(v) => Column::Int64(v.into_iter().map(|s| s.len() as i64).collect()),
            AggState::DistinctRuns(..) => unreachable!("a partial is merged before it finishes"),
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
    use crate::expr::{col, lit};
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
        let mut led = Ledger::default();
        let out = super::exec_aggregate(
            rel,
            &[],
            None,
            group_by,
            aggs,
            &mut led,
            cfg,
            Tracer::off(),
            ctx,
        );
        *prof += led.prices().materialize;
        out
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

    /// The spill rung stages the partials' groups, not the rows the fold
    /// kept: 5 000 hash-form groups of three adjacent rows each, out of key
    /// order. 257-row morsels cut 39 of them in two (a boundary at `257·m`
    /// splits a group unless `3 | m`), so the partials hold 5 039 groups
    /// against 15 000 rows. The key set is `spill_agg_inputs`', so the ladder
    /// takes the same three staged attempts to 8 192 partitions.
    #[test]
    fn spill_rung_stages_groups_not_rows() {
        let n = 15_000i64;
        let rel = Relation::new(vec![
            ("g".into(), Arc::new(Column::Int64((0..n).map(|i| (i / 3 * 1237) % 5_000).collect()))),
            ("d".into(), Arc::new(Column::Decimal((0..n).map(|i| i * 3).collect(), 2))),
        ])
        .unwrap();
        let group = vec![(col("g"), "g".to_string())];
        let aggs = vec![AggExpr::sum(col("d"), "sd")];
        let serial = EngineConfig::serial().with_morsel_rows(257);
        let mut base_prof = WorkProfile::new();
        let free = QueryContext::default();
        let base = unfiltered(&rel, &group, &aggs, &mut base_prof, &serial, &free).unwrap();
        assert_eq!(base.num_rows(), 5_000);
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(257);
            let disk = Arc::new(wimpi_storage::SpillDisk::new(
                wimpi_storage::SpillConfig::with_capacity(16 << 20),
            ));
            let ctx = QueryContext::with_budget(320).with_spill(Arc::clone(&disk));
            let mut prof = WorkProfile::new();
            let out = unfiltered(&rel, &group, &aggs, &mut prof, &cfg, &ctx).unwrap();
            assert_eq!(out, base, "spill aggregate diverged at {threads} threads");
            // Three staged attempts of 5 039 12-byte records.
            assert_eq!(prof.spilled_bytes, 3 * 5_039 * 12, "one record per partial group");
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
        // The run starts (then the row count), or `None` at an inversion.
        let runs = |cols: &[Vec<i64>], n: usize| {
            let mut starts = vec![7];
            key_runs(cols, n, &mut starts).then_some(starts)
        };
        let cols = |a: &[i64], b: &[i64]| [a.to_vec(), b.to_vec()];
        assert_eq!(runs(&[], 5), Some(vec![0, 5]), "the global group is one run");
        assert_eq!(runs(&[], 0), Some(vec![0]), "no rows, no run");
        assert_eq!(runs(&[vec![]], 0), Some(vec![0]));
        assert_eq!(runs(&[vec![4]], 1), Some(vec![0, 1]));
        assert_eq!(runs(&[vec![1, 1, 2, 2, 9]], 5), Some(vec![0, 2, 4, 5]));
        assert_eq!(runs(&[vec![1, 2, 9, 8]], 4), None);
        assert_eq!(runs(&[vec![i64::MIN, -1, i64::MAX]], 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(
            runs(&cols(&[1, 1, 2], &[5, 5, 0]), 3),
            Some(vec![0, 2, 3]),
            "a later column may fall when an earlier one rises"
        );
        assert_eq!(runs(&cols(&[1, 1, 1], &[5, 6, 6]), 3), Some(vec![0, 1, 3]));
        assert_eq!(runs(&cols(&[1, 1, 2], &[5, 4, 0]), 3), None, "ties go to the next column");
        assert_eq!(runs(&cols(&[1, 1, 0], &[5, 5, 9]), 3), None);
    }

    #[test]
    fn compact_groups_are_first_appearances_found_by_index() {
        // Each row's group and each group's first row, or `None` when the
        // key domain is not compact.
        let groups = |cols: &[Vec<i64>], n: usize| {
            let (mut gids, mut firsts) = (vec![7], vec![7]);
            compact_groups(cols, n, &mut gids, &mut firsts).then_some((gids, firsts))
        };
        let ids = |gids: &[u32], firsts: &[u32]| Some((gids.to_vec(), firsts.to_vec()));
        assert_eq!(groups(&[vec![5, -3, 5, 7, -3]], 5), ids(&[0, 1, 0, 2, 1], &[0, 1, 3]));
        assert_eq!(
            groups(&[vec![1, 2, 1, 2], vec![2, 1, 1, 2]], 4),
            ids(&[0, 1, 2, 3], &[0, 1, 2, 3]),
            "a tuple is its slots, not their sum"
        );
        assert_eq!(groups(&[vec![4, 4, 9], vec![0, 0, 0]], 2), ids(&[0, 0], &[0]), "rows past n");
        assert_eq!(groups(&[vec![]], 0), ids(&[], &[]), "no rows, no group");
        assert_eq!(groups(&[], 0), ids(&[], &[]));
        // The spans' product against the bound.
        assert!(groups(&[vec![-2048, 2047]], 2).is_some());
        assert!(groups(&[vec![-2048, 2048]], 2).is_none());
        assert!(groups(&[vec![0, 63, 5], vec![-9, 54, 0]], 3).is_some(), "64 × 64");
        assert!(groups(&[vec![0, 63, 5], vec![-9, 55, 0]], 3).is_none(), "64 × 65");
        // Spans that overflow `u64`, alone or multiplied, never wrap.
        assert!(groups(&[vec![i64::MAX, 0, i64::MIN]], 3).is_none());
        assert!(groups(&[vec![0, 1], vec![i64::MIN + 1, i64::MAX]], 2).is_none());
    }

    #[test]
    fn hash_groups_are_first_appearances_found_through_a_map() {
        let groups = |cols: &[Vec<i64>], n: usize| {
            let (mut gids, mut firsts) = (vec![7], vec![7]);
            hash_groups(cols, n, &mut gids, &mut firsts);
            (gids, firsts)
        };
        assert_eq!(groups(&[vec![5, -3, 5, 7, -3]], 5), (vec![0, 1, 0, 2, 1], vec![0, 1, 3]));
        assert_eq!(groups(&[vec![4, 4, 9]], 2), (vec![0, 0], vec![0]), "rows past n");
        assert_eq!(groups(&[vec![]], 0), (vec![], vec![]), "no rows, no group");
        let three = [vec![1, 1, 1, 1, 2], vec![2, 2, 3, 2, 2], vec![5, 6, 5, 5, 5]];
        assert_eq!(
            groups(&three, 5),
            (vec![0, 1, 2, 0, 3], vec![0, 1, 2, 4]),
            "three columns are one `Key::Many` tuple"
        );
        assert_eq!(
            groups(&[vec![i64::MAX, i64::MIN, i64::MAX, 0, i64::MIN]], 5),
            (vec![0, 1, 0, 2, 1], vec![0, 1, 3])
        );
    }

    /// Over any key domain compact enough for both, the two resolvers hand
    /// every row the same group and every group the same first row.
    #[test]
    fn compact_and_hash_groups_agree() {
        for seed in 0..64 {
            let mut rng = proptest::rng::Rng::for_case("compact_vs_hash_groups", seed);
            let n = [1, 2, 4096][rng.below(3) as usize];
            let mut room = COMPACT_GROUPS;
            let cols: Vec<Vec<i64>> = (0..1 + rng.below(3))
                .map(|_| {
                    let span = 1 + rng.below(room);
                    room /= span;
                    let lo = rng.below(2001) as i64 - 1000;
                    (0..n).map(|_| lo + rng.below(span) as i64).collect()
                })
                .collect();
            let (mut compact, mut hashed) = ((vec![], vec![]), (vec![], vec![]));
            let fits = compact_groups(&cols, n, &mut compact.0, &mut compact.1);
            hash_groups(&cols, n, &mut hashed.0, &mut hashed.1);
            assert!(fits, "replay seed {seed}: spans multiply past the bound");
            assert_eq!(compact, hashed, "replay seed {seed}: the resolvers disagree");
        }
    }

    #[test]
    fn rows_sort_by_group_stably() {
        let sorted = |gids: &[u32], ngroups: usize, rows: &Rows| {
            let (mut starts, mut ids) = (vec![9], vec![9]);
            sort_by_group(gids, ngroups, rows, &mut starts, &mut ids);
            (starts, ids)
        };
        let gids = [0, 1, 0, 2, 1, 0];
        assert_eq!(
            sorted(&gids, 3, &Rows::Dense(10..16)),
            (vec![0, 3, 5, 6], vec![10, 12, 15, 11, 14, 13])
        );
        assert_eq!(
            sorted(&gids, 3, &Rows::Sparse(&[1, 4, 5, 8, 9, 30])),
            (vec![0, 3, 5, 6], vec![1, 5, 30, 4, 9, 8])
        );
        assert_eq!(sorted(&[], 0, &Rows::Dense(3..3)), (vec![0], vec![]));
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

    /// A relation whose keys take each form over 700-row morsels: `up`
    /// ascends (runs), `few` cycles through 6 values (compact), `wide`
    /// scatters over a domain too wide to index (hash). The inputs cover
    /// every state: decimal, integer and float sums (group `few = 0` sums
    /// only `-0.0`), fixed and float averages, `count_if`, string and float
    /// extremes, and `count(distinct)`.
    fn every_state() -> (Relation, Vec<AggExpr>) {
        let n = 2_100i64;
        let modes = ["AIR", "RAIL", "SHIP", "MAIL"];
        let float = |i: i64| if i % 6 == 0 { -0.0 } else { (i % 97) as f64 * 0.37 - 11.0 };
        let fields = [
            ("up", Column::Int64((0..n).map(|i| i / 50).collect())),
            ("few", Column::Int64((0..n).map(|i| i % 6).collect())),
            ("wide", Column::Int64((0..n).map(|i| (i * 7919) % 1_000_003 * 1_000).collect())),
            ("d", Column::Decimal((0..n).map(|i| i * 13 % 1000 - 500).collect(), 2)),
            ("k", Column::Int64((0..n).map(|i| i % 11).collect())),
            ("f", Column::Float64((0..n).map(float).collect())),
            ("b", Column::Bool((0..n).map(|i| i % 3 == 1).collect())),
            ("s", Column::Str((0..n).map(|i| modes[(i * 5 % 4) as usize]).collect())),
        ];
        let rel =
            Relation::new(fields.into_iter().map(|(n, c)| (n.to_string(), Arc::new(c))).collect())
                .unwrap();
        let aggs = vec![
            AggExpr::sum(col("d"), "sd"),
            AggExpr::sum(col("k"), "sk"),
            AggExpr::sum(col("f"), "sf"),
            AggExpr::avg(col("d"), "ad"),
            AggExpr::avg(col("f"), "af"),
            AggExpr::count_if(col("b"), "nb"),
            AggExpr::min(col("s"), "lo"),
            AggExpr::max(col("f"), "hi"),
            AggExpr::count_distinct(col("k"), "uk"),
            AggExpr::count_star("n"),
        ];
        (rel, aggs)
    }

    /// A morsel folded as its range equals the same rows folded as ids, bit
    /// for bit, in every form and state — including a filter that keeps
    /// every row of some morsels (which then fold as ranges) and part of
    /// others.
    #[test]
    fn dense_and_sparse_folds_are_bit_identical() {
        let (rel, aggs) = every_state();
        let exprs: Vec<Option<&Expr>> = aggs.iter().map(|a| a.expr.as_ref()).collect();
        let inputs = MultiProgram::compile(&exprs, &rel).unwrap();
        let empty: Vec<AggState> = aggs
            .iter()
            .zip(inputs.outputs())
            .map(|(a, input)| AggState::bind(a.func, input).unwrap())
            .collect();
        // Keeps all of the morsels 0..700 and 1400..2100, part of 700..1400.
        let filter = col("up").lt(lit(14i64)).or(col("up").gte(lit(28i64))).or(col("b"));
        let chain = Conjuncts::compile(&[&filter], &rel).unwrap();
        for (key, cut) in [("up", Cut::Runs), ("few", Cut::Compact), ("wide", Cut::Hash)] {
            let keys = [Program::compile(&col(key), &rel).unwrap()];
            let feed = Feed { keys: &keys, inputs: &inputs, empty: &empty };
            let fold = |rows: &Rows| format!("{:?}", MorselAgg::fold(rows, &feed));
            let mut whole = 0;
            for r in [0..700, 700..1400, 1400..2100, 35..36, 0..0] {
                let all: Vec<u32> = r.clone().map(|i| i as u32).collect();
                let dense = MorselAgg::fold(&Rows::Dense(r.clone()), &feed);
                assert_eq!(format!("{dense:?}"), fold(&Rows::Sparse(&all)), "{key} over {r:?}");
                assert!(r.len() < 2 || dense.cut == cut, "{key} over {r:?} is cut {:?}", dense.cut);
                // As the aggregate folds the rows the filter kept.
                let (kept, _) = chain.filter_morsel(None, r.clone());
                let rows = kept_rows(kept.as_deref(), r.clone());
                let dense = matches!(rows, Rows::Dense(_));
                whole += usize::from(dense && !r.is_empty());
                let ids = kept.clone().unwrap_or(all);
                assert_eq!(fold(&rows), fold(&Rows::Sparse(&ids)), "{key} over {r:?}, filtered");
                assert!(dense == (ids.len() == r.len()), "a partial morsel keeps its ids");
            }
            assert_eq!(whole, 3, "the filter keeps every row of all but one morsel");
            // The whole aggregate, filtered and not, at several threads.
            for filters in [vec![], vec![&filter]] {
                let run = |cfg: &EngineConfig| {
                    let group = [(col(key), key.to_string())];
                    let ctx = QueryContext::default();
                    let mut led = Ledger::default();
                    let out = super::exec_aggregate(
                        &rel,
                        &filters,
                        None,
                        &group,
                        &aggs,
                        &mut led,
                        cfg,
                        Tracer::off(),
                        &ctx,
                    )
                    .unwrap();
                    (out, led.prices())
                };
                let serial = run(&EngineConfig::serial().with_morsel_rows(700));
                for threads in [2, 4] {
                    let cfg = EngineConfig::with_threads(threads).with_morsel_rows(700);
                    assert_eq!(run(&cfg), serial, "{key} at {threads} threads");
                }
            }
        }
    }

    /// `count(distinct)` reads the same slots as the aggregates over its
    /// input and leaves them as they were: each aggregate over a shared
    /// input equals itself computed alone, in every form.
    #[test]
    fn count_distinct_leaves_shared_slots_intact() {
        let (rel, _) = every_state();
        let aggs = [
            AggExpr::count_distinct(col("k"), "u"),
            AggExpr::sum(col("k"), "s"),
            AggExpr::count_distinct(col("k").mul(lit(3i64)), "u3"),
            AggExpr::max(col("k").mul(lit(3i64)), "m3"),
            AggExpr::count_distinct(col("k"), "v"),
        ];
        for key in ["up", "few", "wide"] {
            let group = [(col(key), key.to_string())];
            let cfg = EngineConfig::serial().with_morsel_rows(700);
            let ctx = QueryContext::default();
            let mut prof = WorkProfile::new();
            let all = unfiltered(&rel, &group, &aggs, &mut prof, &cfg, &ctx).unwrap();
            for agg in &aggs {
                let alone =
                    unfiltered(&rel, &group, std::slice::from_ref(agg), &mut prof, &cfg, &ctx)
                        .unwrap();
                assert_eq!(all.column(&agg.name).unwrap(), alone.column(&agg.name).unwrap());
            }
        }
    }
}
