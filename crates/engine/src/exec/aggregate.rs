//! Group-by aggregation, morsel-driven: a hash table per morsel, or — when the
//! input already arrives in group-key order — no table at all.
//!
//! Group keys are arbitrary expressions; states are accumulated column-at-a-
//! time. Each morsel builds a thread-local partial (its own key→gid map plus
//! per-aggregate state vectors); the partials are then merged **in morsel
//! order**, so the global group order is exactly the serial first-appearance
//! order and every float reduction tree depends only on the data and the
//! morsel size — never on the thread count (bit-exact determinism; see
//! `exec::parallel`).
//!
//! One early-exit pass over the encoded key vectors (`in_key_order`) picks
//! the form (DESIGN.md §5). Key tuples that never decrease mean a group's
//! rows are contiguous, so a row either belongs to the group before it or
//! opens a new one: the **run form** resolves groups by comparing with the
//! previous key — in the morsel partials and again in their merge — builds no
//! map, reserves nothing (its memory is its output) and never needs the
//! degradation ladder. It cuts and merges partials exactly as the hash form
//! does, so every accumulator sees the same values in the same order and the
//! output is bit-identical.
//!
//! Decimal sums accumulate in `i128`, which is exact and
//! order-free; `avg` over fixed-point inputs (decimal/int) likewise sums
//! mantissas in `i128` and divides once at the end, so its value is
//! independent of morsel boundaries too — which is what lets the fused
//! executor (DESIGN.md §13) fold rows in base-table morsel order and still
//! produce bit-identical averages. `avg` over an empty group yields `0.0` —
//! SQL would say NULL, but no reproduced query aggregates an empty group
//! (DESIGN.md §7).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::sync::Arc;

use super::hash::{FxMap, SmallSet};
use super::ladder::{self, Attempt, FromSlots, Verdict};
use super::parallel::{morsel_ranges, run_morsels_spanned, EngineConfig};
use super::partition::Partitioner;
use super::{ensure_u32_indexable, key_values};
use crate::error::{EngineError, Result};
use crate::eval::Evaluator;
use crate::governor::{QueryContext, Reservation};
use crate::plan::{AggExpr, AggFunc};
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{MorselSink, Span, Tracer};
use wimpi_storage::{Column, DataType, DictBuilder, StorageError, Value};

/// Executes an aggregation; empty `group_by` means one global group. When
/// tracing, a `partials` stage span (labelled `runs` or `hash` after the form
/// the key vectors selected, with per-morsel children) covering the
/// morsel-local partials and their in-order merge is attached to the open
/// aggregate span.
pub fn exec_aggregate(
    rel: &Relation,
    group_by: &[(crate::expr::Expr, String)],
    aggs: &[AggExpr],
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    let n = rel.num_rows();
    ensure_u32_indexable(n, "aggregate")?;
    // 1. Evaluate group keys and aggregate inputs as full columns (their
    //    element-wise primitives parallelize inside the evaluator).
    let mut key_cols: Vec<(String, Arc<Column>)> = Vec::with_capacity(group_by.len());
    for (e, name) in group_by {
        let c = Evaluator::with_config(rel, prof, *cfg).eval(e)?;
        key_cols.push((name.clone(), c));
    }
    let encoded: Vec<Vec<i64>> =
        key_cols.iter().map(|(_, c)| key_values(c.as_ref())).collect::<Result<_>>()?;

    let mut input_cols: Vec<Option<Arc<Column>>> = Vec::with_capacity(aggs.len());
    for agg in aggs {
        input_cols.push(match (&agg.expr, agg.func) {
            (None, AggFunc::CountStar) => None,
            (None, f) => {
                return Err(EngineError::Plan(format!("{f:?} requires an input expression")))
            }
            (Some(e), _) => Some(Evaluator::with_config(rel, prof, *cfg).eval(e)?),
        });
    }
    let inputs: Vec<AggInput> = aggs
        .iter()
        .zip(&input_cols)
        .map(|(agg, c)| AggInput::bind(agg.func, c.as_deref()))
        .collect::<Result<_>>()?;

    // 2. Morsel-local partials, then an in-order merge — in the run form
    //    when the key vectors are already in order, else the hash form.
    let runs = in_key_order(&encoded, n);
    let width = 32 * (group_by.len() + aggs.len()).max(1) as u64;
    let sink = tracer.morsel_sink();
    let stage_started = tracer.is_enabled().then(std::time::Instant::now);
    let (first_rows, mut gstates) = fold(&encoded, n, &inputs, runs, width, prof, cfg, &sink, ctx)?;
    let ngroups = if group_by.is_empty() { 1 } else { first_rows.len() };
    for st in &mut gstates {
        st.grow_to(ngroups);
    }
    if let Some(started) = stage_started {
        let mut stage = Span::leaf("partials", if runs { "runs" } else { "hash" });
        stage.rows_in = n as u64;
        stage.rows_out = ngroups as u64;
        stage.wall_ns = started.elapsed().as_nanos() as u64;
        stage.children = sink.into_spans();
        tracer.attach(stage);
    }

    prof.cpu_ops += n as u64 * (1 + aggs.len() as u64);
    if !runs {
        prof.rand_accesses += n as u64;
        prof.hash_bytes += ngroups as u64 * width;
    }
    for agg in aggs {
        if agg.func == AggFunc::CountDistinct {
            prof.rand_accesses += n as u64;
        }
    }

    // 3. Materialize output columns.
    let mut out_fields: Vec<(String, Arc<Column>)> =
        key_cols.iter().map(|(name, c)| (name.clone(), Arc::new(c.take(&first_rows)))).collect();
    for (agg, st) in aggs.iter().zip(gstates) {
        out_fields.push((agg.name.clone(), Arc::new(st.finish()?)));
    }
    prof.seq_write_bytes += out_fields.iter().map(|(_, c)| c.stream_bytes() as u64).sum::<u64>();
    Relation::new(out_fields)
}

/// Step 2 of [`exec_aggregate`] in one form: cuts the `n` rows into morsel
/// partials (`runs`: the run form, else the hash form) and merges them in
/// morsel order. Returns every group's first row and the merged states.
///
/// The hash form's coordinator merge reserves one `width`-byte table entry
/// per distinct group (the same constant the work profile charges to
/// `hash_bytes`). When the table would exceed the query budget the merge is
/// abandoned and redone down the ladder: partition the groups by key hash and
/// build one bounded table per partition, sequentially. The run form reserves
/// nothing, so its merge always fits.
#[allow(clippy::too_many_arguments)]
fn fold(
    encoded: &[Vec<i64>],
    n: usize,
    inputs: &[AggInput],
    runs: bool,
    width: u64,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    sink: &MorselSink,
    ctx: &QueryContext,
) -> Result<(Vec<u32>, Vec<AggState>)> {
    let ranges = morsel_ranges(n, cfg.morsel_rows);
    let partials = run_morsels_spanned(cfg, &ranges, sink, |_, r| {
        let mut p = MorselAgg::new(inputs, runs);
        if ctx.interrupted() {
            return p;
        }
        for i in r {
            p.push_keyed(Key::at(encoded, i), i as u32, inputs);
        }
        p
    });
    ctx.checkpoint()?;
    let empty_states = || inputs.iter().map(AggState::empty_like).collect();
    if let Some(table) = merge_partials(partials, &empty_states, width, ctx) {
        return Ok(table);
    }
    let morsel_len = ranges.first().map_or(1, |r| r.len());
    ctx.track(n as u64 * Partitioner::BYTES_PER_ROW);
    ladder::descend(ctx, prof, "aggregate", &[(n, encoded)], |att| {
        attempt(att, morsel_len, inputs, width, ctx)
    })
}

/// True when the key tuples never decrease, lexicographically, over the `n`
/// input rows — so every group's rows are contiguous and the run form
/// applies. One pass that stops at the first inversion; zero key columns
/// (the global group) are trivially in order.
fn in_key_order(cols: &[Vec<i64>], n: usize) -> bool {
    match cols {
        [c] => c.windows(2).all(|w| w[0] <= w[1]),
        _ => (1..n).all(|i| {
            cols.iter().map(|c| c[i - 1].cmp(&c[i])).find(|o| o.is_ne()) != Some(Ordering::Greater)
        }),
    }
}

/// Merges the morsel partials into one global table (in morsel order — see
/// the module doc), in the form the partials were cut in. Returns `None` as
/// soon as a new group no longer fits the query budget; the caller then takes
/// the partitioned ladder (the fused executor instead re-runs the pipeline
/// through the materializing engine).
/// The reservation is released on return either way: the table's peak is
/// already recorded, and what survives the merge is the output itself.
pub(super) fn merge_partials(
    partials: Vec<MorselAgg>,
    empty_states: &dyn Fn() -> Vec<AggState>,
    width: u64,
    ctx: &QueryContext,
) -> Option<(Vec<u32>, Vec<AggState>)> {
    let mut table = GroupTable::new(empty_states(), width, ctx)?;
    for partial in partials {
        if !table.absorb(partial) {
            return None;
        }
    }
    Some((table.first_rows, table.states))
}

/// One budgeted group table — the whole input's, or one partition's: a
/// reservation grown by `width` bytes per distinct group (the same constant
/// the work profile charges to `hash_bytes`), the key → group map, and the
/// accumulated states. Dropping the table releases the reservation. Fed
/// run-form partials it is only the states: the map stays empty, nothing is
/// reserved, and `last` — the newest group's key — is all it compares with.
struct GroupTable {
    guard: Reservation,
    width: u64,
    map: KeyMap,
    last: Option<Key>,
    first_rows: Vec<u32>,
    states: Vec<AggState>,
}

impl GroupTable {
    fn new(states: Vec<AggState>, width: u64, ctx: &QueryContext) -> Option<Self> {
        let guard = ctx.try_reserve(0)?;
        let (map, last, first_rows) = (KeyMap::default(), None, Vec::new());
        Some(GroupTable { guard, width, map, last, first_rows, states })
    }

    /// Folds one morsel partial in. Returns `false` — leaving the table
    /// unusable — as soon as a new group no longer fits the budget.
    fn absorb(&mut self, partial: MorselAgg) -> bool {
        let mut gid_map: Vec<u32> = Vec::with_capacity(partial.keys.len());
        let runs = partial.map.is_none();
        for (k, fr) in partial.keys.into_iter().zip(partial.first_rows) {
            let next = self.first_rows.len() as u32;
            gid_map.push(if runs {
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

    /// Folds one partition's `(row id, key)` stream in, rows ascending: the
    /// rows of each morsel (`row / morsel_len`) form one partial, absorbed in
    /// morsel order. Within a morsel a group's rows are the rows the
    /// unpartitioned partial saw, so its local sums are identical.
    fn absorb_rows(
        &mut self,
        rows: impl Iterator<Item = (u32, Key)>,
        morsel_len: usize,
        inputs: &[AggInput],
    ) -> bool {
        let mut rows = rows.peekable();
        while let Some(&(row0, _)) = rows.peek() {
            let morsel = row0 as usize / morsel_len;
            let mut partial = MorselAgg::new(inputs, false);
            while let Some((row, k)) = rows.next_if(|(r, _)| *r as usize / morsel_len == morsel) {
                partial.push_keyed(k, row, inputs);
            }
            if !self.absorb(partial) {
                return false;
            }
        }
        true
    }
}

/// One attempt of the degradation ladder ([`ladder::descend`]) below the
/// in-memory merge: aggregate one partition of the groups at a time, each
/// against its own reservation. Aggregate *input* values are read from the
/// resident columns by row id whether or not the routing was staged.
///
/// Bit-exactness: every row of a group lands in the same partition and a
/// partition's rows are walked in ascending order, cut into partials at the
/// morsel stride, so each group's accumulator sees exactly the per-morsel
/// partial values of the unpartitioned merge, folded in the same morsel
/// order. Distinct groups have distinct first rows, so sorting the stitched
/// groups by first row reproduces the unpartitioned first-appearance group
/// order exactly.
fn attempt(
    att: &mut Attempt<'_, Key>,
    morsel_len: usize,
    inputs: &[AggInput],
    width: u64,
    ctx: &QueryContext,
) -> Result<Verdict<(Vec<u32>, Vec<AggState>)>> {
    let empty_states = || inputs.iter().map(AggState::empty_like).collect::<Vec<_>>();
    let parts = att.stage()?;
    // (first row, partition, local gid) of every group, in discovery
    // order, plus each partition's group count and accumulated states.
    let mut order: Vec<(u32, u32, u32)> = Vec::new();
    let mut part_states: Vec<(usize, Vec<AggState>)> = Vec::with_capacity(parts.len());
    for p in parts.iter() {
        let p = p?;
        let mut table =
            GroupTable::new(empty_states(), width, ctx).expect("an empty reservation always fits");
        if !table.absorb_rows(parts.rows(0, p)?, morsel_len, inputs) {
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
    let mut gstates = empty_states();
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

/// A group key: the common 0/1/2-column cases avoid heap allocation. Keys
/// hold `key_values`-encoded slots, so the fused executor's VM (which emits
/// the same encoding) builds identical keys from its per-morsel buffers.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
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

/// One aggregate's input, typed once up front so the per-row hot loop is a
/// slice index, not a `Column` match.
enum AggInput<'c> {
    None,
    Mask(&'c [bool]),
    Encoded(Vec<i64>),
    Dec(&'c [i64], u8),
    I64(&'c [i64]),
    I32(&'c [i32]),
    SumF64(&'c [f64]),
    /// `avg` over fixed-point inputs: mantissas (scale 0 for integers) summed
    /// exactly in `i128`, divided once at finish. Order-free, so the fused
    /// executor reproduces it bit-exactly whatever the fold boundaries.
    AvgFixed(Cow<'c, [i64]>, u8),
    /// `avg` over a float column: per-row f64 accumulation (morsel-order
    /// deterministic like every float sum; the fused path falls back).
    Avg(&'c [f64]),
    MinMax(&'c Column, bool),
}

impl<'c> AggInput<'c> {
    fn bind(func: AggFunc, col: Option<&'c Column>) -> Result<AggInput<'c>> {
        Ok(match func {
            AggFunc::CountStar => AggInput::None,
            AggFunc::CountIf => AggInput::Mask(col.expect("checked above").as_bool()?),
            AggFunc::CountDistinct => AggInput::Encoded(key_values(col.expect("checked above"))?),
            AggFunc::Sum => match col.expect("checked above") {
                Column::Decimal(v, s) => AggInput::Dec(v, *s),
                Column::Int64(v) => AggInput::I64(v),
                Column::Int32(v) => AggInput::I32(v),
                Column::Float64(v) => AggInput::SumF64(v),
                other => {
                    return Err(EngineError::Plan(format!(
                        "sum over non-numeric column of type {}",
                        other.data_type()
                    )))
                }
            },
            AggFunc::Avg => match col.expect("checked above") {
                Column::Decimal(v, s) => AggInput::AvgFixed(Cow::Borrowed(&v[..]), *s),
                Column::Int64(v) => AggInput::AvgFixed(Cow::Borrowed(&v[..]), 0),
                Column::Int32(v) => {
                    AggInput::AvgFixed(Cow::Owned(v.iter().map(|&x| x as i64).collect()), 0)
                }
                Column::Float64(v) => AggInput::Avg(v),
                other => {
                    return Err(EngineError::Plan(format!(
                        "avg over non-numeric column of type {}",
                        other.data_type()
                    )))
                }
            },
            AggFunc::Min | AggFunc::Max => {
                AggInput::MinMax(col.expect("checked above"), func == AggFunc::Min)
            }
        })
    }
}

/// One morsel's thread-local partial aggregation.
pub(super) struct MorselAgg {
    /// Key → local group. `None` is the run form: rows arrive in key order,
    /// so a row's group is the newest one or a new one.
    map: Option<KeyMap>,
    keys: Vec<Key>,
    first_rows: Vec<u32>,
    states: Vec<AggState>,
}

impl MorselAgg {
    fn new(inputs: &[AggInput], runs: bool) -> Self {
        let hashed = Self::with_states(inputs.iter().map(AggState::empty_like).collect());
        Self { map: (!runs).then(KeyMap::default), ..hashed }
    }

    /// An empty partial for the fused executor's slot-fed aggregates.
    pub(super) fn for_slots(kinds: &[SlotAgg]) -> Self {
        Self::with_states(kinds.iter().map(|k| k.empty_state()).collect())
    }

    fn with_states(states: Vec<AggState>) -> Self {
        Self { map: Some(KeyMap::default()), keys: Vec::new(), first_rows: Vec::new(), states }
    }

    /// Accumulates row `row`, whose group key is `k`.
    #[inline]
    fn push_keyed(&mut self, k: Key, row: u32, inputs: &[AggInput]) {
        let g = self.group_of(k, row);
        for (st, input) in self.states.iter_mut().zip(inputs) {
            st.push(g as usize, row as usize, input);
        }
    }

    /// Fused-path morsel push: one group-resolution pass over the key
    /// buffers, then one accumulation sweep per aggregate with the state
    /// dispatch hoisted out of the row loop. Keys are built from per-morsel
    /// VM buffers and `rows` carries *global* base-table row ids, so merged
    /// `first_rows` (and with them the output group order and key gathers)
    /// are identical to the materializing path's; each state sees its rows
    /// in the same order row-at-a-time pushing would feed them.
    pub(super) fn push_slot_batch(
        &mut self,
        keybufs: &[Vec<i64>],
        rows: &[u32],
        aggbufs: &[Option<Vec<i64>>],
        kinds: &[SlotAgg],
        gids: &mut Vec<u32>,
    ) {
        gids.clear();
        gids.reserve(rows.len());
        for (vi, &row) in rows.iter().enumerate() {
            let g = self.group_of(Key::at(keybufs, vi), row);
            gids.push(g);
        }
        for (st, (buf, &kind)) in self.states.iter_mut().zip(aggbufs.iter().zip(kinds)) {
            st.push_slot_batch(gids, buf.as_deref(), kind);
        }
    }

    #[inline]
    fn group_of(&mut self, k: Key, row_id: u32) -> u32 {
        // `get` first, not `entry`: rows of known groups dominate, and the
        // entry API measured 10 % slower on them (it moves the key around).
        let known = match &self.map {
            Some(map) => map.get(&k).copied(),
            None => (self.keys.last() == Some(&k)).then(|| self.keys.len() as u32 - 1),
        };
        if let Some(g) = known {
            return g;
        }
        let g = self.keys.len() as u32;
        if let Some(map) = &mut self.map {
            map.insert(k.clone(), g);
        }
        self.keys.push(k);
        self.first_rows.push(row_id);
        for st in &mut self.states {
            st.grow_to(g as usize + 1);
        }
        g
    }
}

/// How the fused executor feeds one VM-computed `i64` slot per row into an
/// [`AggState`]. Slots carry the `key_values` encoding (decimal mantissas,
/// bools as 0/1, …), so the states accumulate exactly the values the
/// materializing path's typed inputs would. Aggregates without an exact
/// slot form (float sums/avgs, min/max) are not represented — plans using
/// them fall back to the materializing executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum SlotAgg {
    CountStar,
    CountIf,
    CountDistinct,
    SumDec(u8),
    SumInt,
    AvgFixed(u8),
}

impl SlotAgg {
    /// The slot form of `func` over an input of type `dtype` (`None` for
    /// `count(*)`); `None` means the pairing has no exact slot form.
    pub(super) fn bind(func: AggFunc, dtype: Option<DataType>) -> Option<SlotAgg> {
        Some(match (func, dtype) {
            (AggFunc::CountStar, _) => SlotAgg::CountStar,
            (AggFunc::CountIf, Some(DataType::Bool)) => SlotAgg::CountIf,
            (AggFunc::CountDistinct, Some(_)) => SlotAgg::CountDistinct,
            (AggFunc::Sum, Some(DataType::Decimal(s))) => SlotAgg::SumDec(s),
            (AggFunc::Sum, Some(DataType::Int64 | DataType::Int32)) => SlotAgg::SumInt,
            (AggFunc::Avg, Some(DataType::Decimal(s))) => SlotAgg::AvgFixed(s),
            (AggFunc::Avg, Some(DataType::Int64 | DataType::Int32)) => SlotAgg::AvgFixed(0),
            _ => return None,
        })
    }

    fn empty_state(self) -> AggState {
        match self {
            SlotAgg::CountStar | SlotAgg::CountIf => AggState::Count(Vec::new()),
            SlotAgg::CountDistinct => AggState::Distinct(Vec::new()),
            SlotAgg::SumDec(s) => AggState::SumDec(Vec::new(), s),
            SlotAgg::SumInt => AggState::SumInt(Vec::new()),
            SlotAgg::AvgFixed(s) => {
                AggState::AvgFixed { sum: Vec::new(), cnt: Vec::new(), scale: s }
            }
        }
    }

    /// Builds the empty global states for a fused aggregation.
    pub(super) fn empty_states(kinds: &[SlotAgg]) -> Vec<AggState> {
        kinds.iter().map(|k| k.empty_state()).collect()
    }
}

/// Per-aggregate accumulator state, one slot per group.
pub(super) enum AggState {
    Count(Vec<i64>),
    Distinct(Vec<SmallSet>),
    SumDec(Vec<i128>, u8),
    SumInt(Vec<i64>),
    SumFloat(Vec<f64>),
    AvgFixed { sum: Vec<i128>, cnt: Vec<i64>, scale: u8 },
    Avg { sum: Vec<f64>, cnt: Vec<i64> },
    MinMax { best: Vec<Option<Value>>, want_min: bool, dtype: DataType },
}

impl AggState {
    /// An empty state matching the input/function pairing of `input`.
    fn empty_like(input: &AggInput) -> AggState {
        match input {
            AggInput::None | AggInput::Mask(_) => AggState::Count(Vec::new()),
            AggInput::Encoded(_) => AggState::Distinct(Vec::new()),
            AggInput::Dec(_, s) => AggState::SumDec(Vec::new(), *s),
            AggInput::I64(_) | AggInput::I32(_) => AggState::SumInt(Vec::new()),
            AggInput::SumF64(_) => AggState::SumFloat(Vec::new()),
            AggInput::AvgFixed(_, s) => {
                AggState::AvgFixed { sum: Vec::new(), cnt: Vec::new(), scale: *s }
            }
            AggInput::Avg(_) => AggState::Avg { sum: Vec::new(), cnt: Vec::new() },
            AggInput::MinMax(c, want_min) => {
                AggState::MinMax { best: Vec::new(), want_min: *want_min, dtype: c.data_type() }
            }
        }
    }

    pub(super) fn grow_to(&mut self, ngroups: usize) {
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
            AggState::MinMax { best, .. } => best.resize(ngroups, None),
        }
    }

    #[inline]
    fn push(&mut self, g: usize, i: usize, input: &AggInput) {
        match (self, input) {
            (AggState::Count(v), AggInput::None) => v[g] += 1,
            (AggState::Count(v), AggInput::Mask(m)) => v[g] += i64::from(m[i]),
            (AggState::Distinct(v), AggInput::Encoded(e)) => {
                v[g].insert(e[i]);
            }
            (AggState::SumDec(v, _), AggInput::Dec(m, _)) => v[g] += m[i] as i128,
            (AggState::SumInt(v), AggInput::I64(x)) => v[g] += x[i],
            (AggState::SumInt(v), AggInput::I32(x)) => v[g] += x[i] as i64,
            (AggState::SumFloat(v), AggInput::SumF64(x)) => v[g] += x[i],
            (AggState::AvgFixed { sum, cnt, .. }, AggInput::AvgFixed(m, _)) => {
                sum[g] += m[i] as i128;
                cnt[g] += 1;
            }
            (AggState::Avg { sum, cnt }, AggInput::Avg(x)) => {
                sum[g] += x[i];
                cnt[g] += 1;
            }
            (AggState::MinMax { best, want_min, .. }, AggInput::MinMax(c, _)) => {
                let v = c.value(i);
                Self::consider(&mut best[g], v, *want_min);
            }
            _ => unreachable!("state/input pairing fixed at bind time"),
        }
    }

    /// Fused-path push: one `key_values`-encoded slot per row (see
    /// [`SlotAgg`]), swept a whole morsel at a time. Every arm accumulates
    /// exactly what the matching [`AggInput`] arm of [`AggState::push`]
    /// would, in the same row order.
    fn push_slot_batch(&mut self, gids: &[u32], slots: Option<&[i64]>, kind: SlotAgg) {
        let input = |name| slots.unwrap_or_else(|| panic!("{name} has an input column"));
        match (self, kind) {
            (AggState::Count(v), SlotAgg::CountStar) => {
                for &g in gids {
                    v[g as usize] += 1;
                }
            }
            (AggState::Count(v), SlotAgg::CountIf) => {
                for (&g, &x) in gids.iter().zip(input("count_if")) {
                    v[g as usize] += x;
                }
            }
            (AggState::Distinct(v), SlotAgg::CountDistinct) => {
                for (&g, &x) in gids.iter().zip(input("count_distinct")) {
                    v[g as usize].insert(x);
                }
            }
            (AggState::SumDec(v, _), SlotAgg::SumDec(_)) => {
                for (&g, &x) in gids.iter().zip(input("sum")) {
                    v[g as usize] += x as i128;
                }
            }
            (AggState::SumInt(v), SlotAgg::SumInt) => {
                for (&g, &x) in gids.iter().zip(input("sum")) {
                    v[g as usize] += x;
                }
            }
            (AggState::AvgFixed { sum, cnt, .. }, SlotAgg::AvgFixed(_)) => {
                for (&g, &x) in gids.iter().zip(input("avg")) {
                    sum[g as usize] += x as i128;
                    cnt[g as usize] += 1;
                }
            }
            _ => unreachable!("state/kind pairing fixed at compile time"),
        }
    }

    #[inline]
    fn consider(slot: &mut Option<Value>, v: Value, want_min: bool) {
        let replace = match slot {
            None => true,
            Some(cur) => {
                let ord = v.total_cmp(cur);
                if want_min {
                    ord.is_lt()
                } else {
                    ord.is_gt()
                }
            }
        };
        if replace {
            *slot = Some(v);
        }
    }

    /// Folds a morsel-local state into this global one; `gid_map` maps local
    /// group ids to global ones. Merging in morsel order keeps float sums
    /// and min/max tie-breaks identical to the serial scan.
    fn merge_from(&mut self, other: AggState, gid_map: &[u32]) {
        match (self, other) {
            (AggState::Count(g), AggState::Count(l))
            | (AggState::SumInt(g), AggState::SumInt(l)) => {
                for (lg, x) in l.into_iter().enumerate() {
                    g[gid_map[lg] as usize] += x;
                }
            }
            (AggState::Distinct(g), AggState::Distinct(l)) => {
                for (lg, set) in l.into_iter().enumerate() {
                    g[gid_map[lg] as usize].absorb(set);
                }
            }
            (AggState::SumDec(g, _), AggState::SumDec(l, _)) => {
                for (lg, x) in l.into_iter().enumerate() {
                    g[gid_map[lg] as usize] += x;
                }
            }
            (AggState::SumFloat(g), AggState::SumFloat(l)) => {
                for (lg, x) in l.into_iter().enumerate() {
                    g[gid_map[lg] as usize] += x;
                }
            }
            (
                AggState::AvgFixed { sum: gs, cnt: gc, .. },
                AggState::AvgFixed { sum: ls, cnt: lc, .. },
            ) => {
                for (lg, (s, c)) in ls.into_iter().zip(lc).enumerate() {
                    gs[gid_map[lg] as usize] += s;
                    gc[gid_map[lg] as usize] += c;
                }
            }
            (AggState::Avg { sum: gs, cnt: gc }, AggState::Avg { sum: ls, cnt: lc }) => {
                for (lg, (s, c)) in ls.into_iter().zip(lc).enumerate() {
                    gs[gid_map[lg] as usize] += s;
                    gc[gid_map[lg] as usize] += c;
                }
            }
            (AggState::MinMax { best: g, want_min, .. }, AggState::MinMax { best: l, .. }) => {
                let want_min = *want_min;
                for (lg, v) in l.into_iter().enumerate() {
                    if let Some(v) = v {
                        Self::consider(&mut g[gid_map[lg] as usize], v, want_min);
                    }
                }
            }
            _ => unreachable!("partials share one state layout"),
        }
    }

    pub(super) fn finish(self) -> Result<Column> {
        match self {
            AggState::Count(v) | AggState::SumInt(v) => Ok(Column::Int64(v)),
            AggState::Distinct(v) => {
                Ok(Column::Int64(v.into_iter().map(|s| s.len() as i64).collect()))
            }
            AggState::SumDec(v, s) => {
                let out: Vec<i64> = v
                    .into_iter()
                    .map(|x| i64::try_from(x).map_err(|_| StorageError::DecimalOverflow))
                    .collect::<std::result::Result<_, _>>()?;
                Ok(Column::Decimal(out, s))
            }
            AggState::SumFloat(v) => Ok(Column::Float64(v)),
            AggState::AvgFixed { sum, cnt, scale } => {
                let div = crate::eval::POW10[scale as usize] as f64;
                Ok(Column::Float64(
                    sum.iter()
                        .zip(&cnt)
                        .map(|(&s, &c)| if c == 0 { 0.0 } else { (s as f64 / div) / c as f64 })
                        .collect(),
                ))
            }
            AggState::Avg { sum, cnt } => Ok(Column::Float64(
                sum.iter()
                    .zip(&cnt)
                    .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect(),
            )),
            AggState::MinMax { best, dtype, .. } => column_from_values(dtype, best),
        }
    }
}

/// Builds a typed column from per-group optional values (None → type default,
/// only reachable for empty global groups).
fn column_from_values(dtype: DataType, vals: Vec<Option<Value>>) -> Result<Column> {
    match dtype {
        DataType::Int64 => Ok(Column::Int64(
            vals.into_iter().map(|v| v.and_then(|v| v.as_i64()).unwrap_or(0)).collect(),
        )),
        DataType::Int32 => Ok(Column::Int32(
            vals.into_iter().map(|v| v.and_then(|v| v.as_i64()).unwrap_or(0) as i32).collect(),
        )),
        DataType::Float64 => Ok(Column::Float64(
            vals.into_iter().map(|v| v.and_then(|v| v.as_f64()).unwrap_or(0.0)).collect(),
        )),
        DataType::Decimal(s) => Ok(Column::Decimal(
            vals.into_iter()
                .map(|v| match v {
                    Some(Value::Dec(d)) => d.mantissa(),
                    _ => 0,
                })
                .collect(),
            s,
        )),
        DataType::Date => Ok(Column::Date(
            vals.into_iter()
                .map(|v| match v {
                    Some(Value::Date(d)) => d.0,
                    _ => 0,
                })
                .collect(),
        )),
        DataType::Utf8 => {
            let mut b = DictBuilder::with_capacity(vals.len());
            for v in vals {
                match v {
                    Some(Value::Str(s)) => b.push(&s),
                    _ => b.push(""),
                }
            }
            Ok(Column::Str(b.finish()))
        }
        DataType::Bool => Ok(Column::Bool(
            vals.into_iter().map(|v| matches!(v, Some(Value::Bool(true)))).collect(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;

    fn exec_aggregate(
        rel: &Relation,
        group_by: &[(crate::expr::Expr, String)],
        aggs: &[AggExpr],
        prof: &mut WorkProfile,
    ) -> Result<Relation> {
        let ctx = QueryContext::default();
        super::exec_aggregate(
            rel,
            group_by,
            aggs,
            prof,
            &EngineConfig::serial(),
            Tracer::off(),
            &ctx,
        )
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
        let base = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &base_cfg,
            Tracer::off(),
            &ctx,
        )
        .unwrap();
        for threads in [2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(7);
            let mut prof = WorkProfile::new();
            let out =
                super::exec_aggregate(&rel, &group, &aggs, &mut prof, &cfg, Tracer::off(), &ctx)
                    .unwrap();
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
        let base = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &EngineConfig::serial().with_morsel_rows(13),
            Tracer::off(),
            &QueryContext::default(),
        )
        .unwrap();
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(13);
            let ctx = QueryContext::with_budget(640);
            let mut prof = WorkProfile::new();
            let out =
                super::exec_aggregate(&rel, &group, &aggs, &mut prof, &cfg, Tracer::off(), &ctx)
                    .unwrap();
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
        let err = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut prof,
            &EngineConfig::serial(),
            Tracer::off(),
            &ctx,
        )
        .unwrap_err();
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
        let base = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &EngineConfig::serial().with_morsel_rows(257),
            Tracer::off(),
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
            let out =
                super::exec_aggregate(&rel, &group, &aggs, &mut prof, &cfg, Tracer::off(), &ctx)
                    .unwrap();
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
        let base = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut base_prof,
            &EngineConfig::serial().with_morsel_rows(257),
            Tracer::off(),
            &QueryContext::default(),
        )
        .unwrap();
        let disk_cfg = wimpi_storage::SpillConfig::with_capacity(16 << 20)
            .with_faults(wimpi_storage::SpillFaults::every(42, 8))
            .with_max_read_retries(16);
        let disk = Arc::new(wimpi_storage::SpillDisk::new(disk_cfg));
        let ctx = QueryContext::with_budget(320).with_spill(Arc::clone(&disk));
        let mut prof = WorkProfile::new();
        let out = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut prof,
            &EngineConfig::serial().with_morsel_rows(257),
            Tracer::off(),
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
        let err = super::exec_aggregate(
            &rel,
            &group,
            &aggs,
            &mut prof,
            &EngineConfig::serial(),
            Tracer::off(),
            &ctx,
        )
        .unwrap_err();
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

    /// The hash form's answer for `rel`, assembled around `fold(.., runs =
    /// false, ..)` the way `exec_aggregate` assembles its own — the oracle the
    /// run form is held to, with no switch in the operator to force either.
    fn hash_form(
        rel: &Relation,
        group: &[(crate::expr::Expr, String)],
        aggs: &[AggExpr],
        cfg: &EngineConfig,
    ) -> Relation {
        let (mut prof, ctx, n) = (WorkProfile::new(), QueryContext::default(), rel.num_rows());
        let mut eval = |e| Evaluator::with_config(rel, &mut prof, *cfg).eval(e).unwrap();
        let key_cols: Vec<Arc<Column>> = group.iter().map(|(e, _)| eval(e)).collect();
        let in_cols: Vec<Option<Arc<Column>>> =
            aggs.iter().map(|a| a.expr.as_ref().map(&mut eval)).collect();
        let encoded: Vec<Vec<i64>> = key_cols.iter().map(|c| key_values(c).unwrap()).collect();
        let inputs: Vec<AggInput> = aggs
            .iter()
            .zip(&in_cols)
            .map(|(a, c)| AggInput::bind(a.func, c.as_deref()).unwrap())
            .collect();
        let sink = Tracer::off().morsel_sink();
        let (first_rows, states) =
            fold(&encoded, n, &inputs, false, 64, &mut prof, cfg, &sink, &ctx).unwrap();
        let ngroups = if group.is_empty() { 1 } else { first_rows.len() };
        let mut fields: Vec<(String, Arc<Column>)> = group
            .iter()
            .zip(&key_cols)
            .map(|((_, name), c)| (name.clone(), Arc::new(c.take(&first_rows))))
            .collect();
        for (agg, mut st) in aggs.iter().zip(states) {
            st.grow_to(ngroups);
            fields.push((agg.name.clone(), Arc::new(st.finish().unwrap())));
        }
        Relation::new(fields).unwrap()
    }

    /// One row's (Int64, Date, dictionary-coded Str) keys.
    type Keys = (i64, i64, i64);

    /// The given rows' keys plus one input per accumulator kind, in row order.
    fn keyed_rel(rows: &[Keys]) -> Relation {
        let n = rows.len() as i64;
        // A dictionary whose codes are the key values themselves.
        let names =
            (0..=rows.iter().map(|r| r.2).max().unwrap_or(0)).map(|v| format!("name#{v:03}"));
        let names = wimpi_storage::DictColumn::from_parts(
            rows.iter().map(|r| r.2 as u32).collect(),
            names.collect(),
        );
        let fields: Vec<(&str, Column)> = vec![
            ("k", Column::Int64(rows.iter().map(|r| r.0).collect())),
            ("day", Column::Date(rows.iter().map(|r| r.1 as i32).collect())),
            ("name", Column::Str(names)),
            ("d", Column::Decimal((0..n).map(|i| (i * 37) % 101 - 50).collect(), 2)),
            ("f", Column::Float64((0..n).map(|i| i as f64 * 0.31 - 7.0).collect())),
            ("s", Column::Int64((0..n).map(|i| (i * 5) % 11).collect())),
        ];
        Relation::new(fields.into_iter().map(|(n, c)| (n.to_string(), Arc::new(c))).collect())
            .unwrap()
    }

    fn every_kind_of_agg() -> Vec<AggExpr> {
        vec![
            AggExpr::sum(col("f"), "sf"),
            AggExpr::avg(col("f"), "af"),
            AggExpr::sum(col("d"), "sd"),
            AggExpr::avg(col("d"), "ad"),
            AggExpr::min(col("d"), "lo"),
            AggExpr::max(col("f"), "hi"),
            AggExpr::count_distinct(col("s"), "u"),
            AggExpr::count_star("n"),
        ]
    }

    /// `exec_aggregate` over `rel` — whose keys must be in order when `runs`
    /// — equals the hash form bit for bit at 1/2/4 threads and two morsel
    /// sizes, with one work profile throughout and the form's charges.
    fn check_against_the_hash_form(rel: &Relation, keys: &[&str], runs: bool) {
        let group: Vec<_> = keys.iter().map(|&k| (col(k), k.to_string())).collect();
        let aggs = every_kind_of_agg();
        let n = rel.num_rows() as u64;
        let mut profs = Vec::new();
        for morsel in [7, 64] {
            let want =
                hash_form(rel, &group, &aggs, &EngineConfig::serial().with_morsel_rows(morsel));
            for threads in [1, 2, 4] {
                let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel);
                let (mut prof, ctx) = (WorkProfile::new(), QueryContext::default());
                let got =
                    super::exec_aggregate(rel, &group, &aggs, &mut prof, &cfg, Tracer::off(), &ctx);
                assert_eq!(got.unwrap(), want, "{keys:?}: {threads} threads, morsel {morsel}");
                assert_eq!(ctx.used(), 0);
                profs.push(prof);
            }
        }
        assert!(profs.windows(2).all(|w| w[0] == w[1]), "{keys:?}: one profile at any config");
        // Count-distinct's set inserts are charged in both forms; the table
        // probes and the table itself only in the hash form.
        assert_eq!(profs[0].rand_accesses, if runs { n } else { 2 * n }, "{keys:?}");
        assert_eq!(profs[0].hash_bytes == 0, runs, "{keys:?}");
    }

    #[test]
    fn run_form_matches_the_hash_form_on_the_edge_shapes() {
        let sorted: Vec<Keys> = (0..100).map(|i| (i / 9, i / 4, i / 2)).collect();
        let mut inverted = sorted.clone();
        inverted.push((0, 0, 0)); // one inversion, at the very end
        let extremes =
            [(i64::MIN, 0, 0), (i64::MIN, 1, 1), (-1, 2, 2), (i64::MAX, 2, 3), (i64::MAX, 2, 3)];
        // (rows, keys in order?)
        let shapes: [(&[Keys], bool); 6] = [
            (&sorted, true),
            (&inverted, false),
            (&[(3, 3, 3); 20], true),
            (&[], true),
            (&[(1, 2, 3)], true),
            (&extremes, true),
        ];
        for (rows, ordered) in shapes {
            let rel = keyed_rel(rows);
            for keys in [&["k"][..], &["day"], &["name"], &["k", "day"], &["k", "day", "name"], &[]]
            {
                check_against_the_hash_form(&rel, keys, ordered || keys.is_empty());
            }
        }
        // Ordered by the tuple, not by its second column alone.
        let tuple: Vec<Keys> = (0..60).map(|i| (i / 10, 9 - (i % 10) / 2, i)).collect();
        check_against_the_hash_form(&keyed_rel(&tuple), &["k", "name"], true);
        check_against_the_hash_form(&keyed_rel(&tuple), &["day", "name"], false);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn run_form_matches_the_hash_form_on_random_sorted_keys(
            rows in proptest::collection::vec((-3i64..4, 0i64..5, 0i64..3), 0..120),
        ) {
            let mut rows = rows;
            rows.sort_unstable();
            let rel = keyed_rel(&rows);
            for keys in [&["k"][..], &["k", "day"], &["k", "day", "name"]] {
                check_against_the_hash_form(&rel, keys, true);
            }
        }
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
            let out =
                super::exec_aggregate(rel, &group, &aggs, &mut prof, &cfg, Tracer::off(), &ctx);
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
