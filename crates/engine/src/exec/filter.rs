//! Filter: one candidate-propagating conjunct loop, under both executors.
//!
//! A conjunctive predicate is split into conjuncts, each compiled once
//! ([`compile_conjunct`]) and run per morsel by `Conjuncts::filter_morsel`:
//! the first conjunct scans the morsel, every later one only the surviving
//! candidates, through selection vectors on the base columns — no mask
//! column, no gathered sub-relation. For selective scans like Q6 this reads a
//! fraction of the bytes a naive evaluate-everything-fully filter would —
//! exactly the candidate-list optimization MonetDB applies, and the reason Q6
//! is cheap even on a bandwidth-starved Pi (paper §II-D1). The same loop feeds
//! the `Filter` operator ([`exec_filter`], which hands on the survivors as
//! row ids) and the aggregation fold, which folds the filters beneath an
//! aggregate.
//!
//! The loop runs once and is *priced* in both lists from the rows each
//! conjunct examined, one `Filter` node at a time (`Conjuncts::settle`, by
//! the pure `Conjuncts::price`). The fused list charges the base-column bytes
//! streamed. The materializing list charges what MonetDB's column-at-a-time
//! execution pays for one pass per conjunct: its full-materialization `Cost`
//! over the rows it examined, plus, once a candidate list exists, the gather
//! of the columns it touches; a constant conjunct is decided on one row.
//! Under an aggregate it also charges the survivors' gather the `Filter`
//! operator would have made, and counts the largest in its `peak_bytes`;
//! no run makes that gather, so the governor never tracks it.
//!
//! With a sealed table the zone maps decide per morsel (`prune::ScanPruner`,
//! DESIGN.md §14) the conjuncts of the node that scans the table: a morsel
//! proven dead is not touched, and a conjunct proven true over a morsel is
//! skipped there — same survivors, fewer bytes, in both price lists.

use std::ops::Range;
use std::time::Instant;

use crate::error::Result;
use crate::exec::bytecode::{Cost, Program};
use crate::exec::parallel::{morsel_ranges, run_morsels, EngineConfig, Executor};
use crate::exec::prune::{ScanPruner, Verdict};
use crate::exec::{ensure_u32_indexable, Ledger};
use crate::expr::{BinOp, Expr};
use crate::governor::QueryContext;
use crate::optimizer::split_conjuncts;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{Span, Tracer};
use wimpi_storage::{selection, Table};

/// Filters `rel` by `predicate` and hands on the survivors as row ids — the
/// candidate list, gathering no column — charged to `led` in both price lists
/// (see the module docs) and as the gather of every column it selects.
///
/// When `table` is the sealed table this filter scans (passed only under
/// `cfg.prune_scans`), its zone maps may prove whole morsels dead and
/// conjuncts true over a morsel (DESIGN.md §14) — same survivors, fewer bytes.
pub fn exec_filter(
    rel: &Relation,
    predicate: &Expr,
    table: Option<&Table>,
    led: &mut Ledger,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    let n = rel.num_rows();
    ensure_u32_indexable(n, "filter")?;
    let chain = Conjuncts::compile(&[predicate], rel)?;
    let pruner = chain.pruner(table, n);
    let started = tracer.is_enabled().then(Instant::now);
    let morsels = run_morsels(cfg, &morsel_ranges(n, cfg.morsel_rows), |_, r| {
        let r = if ctx.interrupted() { 0..0 } else { r };
        let (kept, tally) = chain.filter_morsel(pruner.as_ref(), r.clone());
        let kept = kept.unwrap_or_else(|| {
            let mut all = selection::take_scratch();
            all.extend(r.map(|i| i as u32));
            all
        });
        (kept, tally)
    });
    ctx.checkpoint()?;
    let mut sel = Vec::with_capacity(morsels.iter().map(|(kept, _)| kept.len()).sum());
    let mut tally = chain.tally();
    for (kept, counts) in morsels {
        sel.extend_from_slice(&kept);
        selection::put_scratch(kept);
        tally.add(&counts);
    }
    let (wall_ns, nsel) = (started.map(|s| s.elapsed().as_nanos() as u64), sel.len());
    chain.settle(&tally, n, nsel as u64, wall_ns, None, led, tracer);
    let out = rel.take_ids(sel, false);
    charge_gather(rel, &out, nsel, &mut led.shared);
    Ok(out)
}

/// Charges the gather of every column of `output`, made now or on its first
/// read (computed from its types and row count: see
/// [`Relation::stream_bytes`]). Selection vectors are sorted, so the gather
/// walks every column *forward* — it is priced as streaming (reads of the
/// touched fraction plus the written output), not as random access; random
/// pricing is reserved for hash probes.
pub(crate) fn charge_gather(
    input: &Relation,
    output: &Relation,
    nsel: usize,
    prof: &mut WorkProfile,
) {
    prof.seq_read_bytes += output.stream_bytes() as u64;
    prof.seq_write_bytes += output.stream_bytes() as u64;
    prof.cpu_ops += (nsel * input.num_columns().max(1)) as u64;
}

/// A chain of filter conjuncts compiled once, in order, constants included.
pub(super) struct Conjuncts {
    preds: Vec<Pred>,
    /// Per conjunct: its full-materialization cost, and the bytes per row of
    /// the columns it reads — what the materializing gather of them streams.
    /// Zero marks a constant: it reads no column, so it folded to a `Const`.
    priced: Vec<(Cost, u64)>,
    /// The conjuncts of each predicate compiled — one `Filter` node each,
    /// innermost first.
    nodes: Vec<Range<usize>>,
}

impl Conjuncts {
    /// Splits `predicates` into conjuncts, in order, and compiles each
    /// against `src` — every one, so a type error never depends on which
    /// rows survive.
    pub(super) fn compile(predicates: &[&Expr], src: &Relation) -> Result<Conjuncts> {
        let (mut parts, mut nodes) = (Vec::new(), Vec::new());
        for &p in predicates {
            let start = parts.len();
            split_conjuncts(p.clone(), &mut parts);
            nodes.push(start..parts.len());
        }
        let (mut preds, mut priced) = (Vec::new(), Vec::new());
        for c in &parts {
            let (pred, cost) = compile_conjunct(c, src)?;
            let needed = c.column_set();
            let widths = src.widths().filter(|(name, _)| needed.contains(*name));
            preds.push(pred);
            priced.push((cost, widths.map(|(_, w)| w).sum()));
        }
        Ok(Conjuncts { preds, priced, nodes })
    }

    /// The zone-map pruner over `table`, when it can decide anything for the
    /// `n` rows filtered (see `ScanPruner::new`). It decides the innermost
    /// node's conjuncts only: the node that scans the table.
    pub(super) fn pruner<'a>(&'a self, t: Option<&'a Table>, n: usize) -> Option<ScanPruner<'a>> {
        let scanning = &self.preds[..self.nodes.first().map_or(0, |node| node.end)];
        t.and_then(|t| ScanPruner::new(t, scanning, n))
    }

    /// What no morsel did yet.
    pub(super) fn tally(&self) -> Tally {
        let k = self.preds.len();
        Tally { examined: vec![0; k], proven: vec![0; k], dead_morsels: 0, dead_rows: 0 }
    }

    /// The conjunct loop over the morsel `r`: the first conjunct scans every
    /// row, each later one only the survivors, through recycled selection
    /// vectors and with no intermediate column. A morsel the zone maps prove
    /// dead is not touched; a conjunct they prove true over it is skipped.
    /// Returns the survivors, ascending (a `selection` scratch buffer), or
    /// `None` when no conjunct ran (none, or every one proven true over `r`):
    /// every row survives, and no id list is built.
    pub(super) fn filter_morsel(
        &self,
        pruner: Option<&ScanPruner>,
        r: Range<usize>,
    ) -> (Option<Vec<u32>>, Tally) {
        let (mut sel, mut tally) = (selection::take_scratch(), self.tally());
        let verdicts = pruner.map(|p| p.verdicts(&r));
        if verdicts.as_ref().is_some_and(|v| v.contains(&Verdict::False)) {
            (tally.dead_morsels, tally.dead_rows) = (1, r.len() as u64);
            return (Some(sel), tally);
        }
        // Until a conjunct has run, the candidates are every row of `r`.
        let mut narrowed = false;
        for (k, pred) in self.preds.iter().enumerate() {
            let rows = if narrowed { sel.len() } else { r.len() } as u64;
            if verdicts.as_ref().is_some_and(|v| v.get(k) == Some(&Verdict::True)) {
                tally.proven[k] = rows;
                continue;
            }
            tally.examined[k] = rows;
            if rows == 0 {
                break;
            }
            let mut next = selection::take_scratch();
            if narrowed {
                pred.filter_sel(&sel, &mut next);
            } else {
                pred.filter_range(r.clone(), &mut next);
            }
            selection::put_scratch(std::mem::replace(&mut sel, next));
            narrowed = true;
        }
        if !narrowed {
            selection::put_scratch(sel);
            return (None, tally);
        }
        (Some(sel), tally)
    }

    /// Settles the summed `tally` of the loop over `n` rows that kept `nsel`,
    /// one `Filter` node at a time, as that node's own loop would have: the
    /// pruning counters, the conjuncts' charge in both price lists
    /// ([`Conjuncts::price`]), and — when tracing — one `predicates` leaf per
    /// node, labelled with the rows each conjunct examined (Q6 at SF 0.01: `4
    /// conjuncts: 60236 → 43398 → 9347 → 2558`). `wall_ns` is the loop's own
    /// time, when it can be told apart from its consumer's. `folded` is the
    /// source and the governor of an aggregate fold standing in for the
    /// `Filter` operators: there the paper list also pays each node's gather
    /// of its survivors, and its `peak_bytes` counts the largest of them on
    /// top of what the query holds — a gather no run makes, so the governor
    /// never tracks it.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn settle(
        &self,
        t: &Tally,
        n: usize,
        nsel: u64,
        wall_ns: Option<u64>,
        folded: Option<(&Relation, &QueryContext)>,
        led: &mut Ledger,
        tracer: &Tracer,
    ) {
        let widths: Vec<u64> = self.preds.iter().map(Pred::width_bytes).collect();
        led.shared.pruned_morsels += t.dead_morsels;
        led.shared.pruned_bytes +=
            t.proven.iter().zip(&widths).map(|(rows, w)| rows * w).sum::<u64>();
        // Zone maps decide the innermost node only. A dead morsel is credited
        // with its first conjunct's scan of it — the bytes the unpruned loop
        // is guaranteed to have streamed.
        if let Some(node) = self.nodes.first() {
            let first = widths[node.clone()].iter().copied().find(|&w| w > 0).unwrap_or(0);
            led.shared.pruned_bytes += t.dead_rows * first;
        }
        let gather =
            folded.map(|(src, _)| (src.widths().map(|(_, w)| w).sum::<u64>(), src.num_columns()));
        led.lists.materialize += self.price(t, nsel, gather, Executor::Materialize);
        led.lists.fused += self.price(t, nsel, gather, Executor::Fused);
        if let (Some((_, ctx)), Some((width, _)), Some(largest)) =
            (folded, gather, self.kept(t, nsel).max())
        {
            let peak = &mut led.lists.materialize.peak_bytes;
            *peak = (*peak).max(ctx.high_water()).max(ctx.used() + largest * width);
        }
        if tracer.is_enabled() {
            let mut fed = n as u64;
            for (node, kept) in self.nodes.iter().zip(self.kept(t, nsel)) {
                let flow: Vec<String> =
                    t.examined[node.clone()].iter().map(u64::to_string).collect();
                let label = format!("{} conjuncts: {}", flow.len(), flow.join(" → "));
                let mut leaf = Span::leaf("predicates", label);
                (leaf.rows_in, leaf.rows_out) = (fed, kept);
                leaf.wall_ns = wall_ns.unwrap_or(0);
                tracer.attach(leaf);
                fed = kept;
            }
        }
    }

    /// The rows each `Filter` node kept, innermost first: the rows its
    /// successor's first conjunct examined (zone maps skip no conjunct past
    /// the innermost node), the last node's being `nsel`.
    fn kept<'a>(&'a self, t: &'a Tally, nsel: u64) -> impl Iterator<Item = u64> + 'a {
        let next = self.nodes.iter().skip(1).map(|next| t.examined[next.start]);
        next.chain(std::iter::once(nsel)).take(self.nodes.len())
    }

    /// What the conjuncts cost in `list`, from the rows each examined and the
    /// `nsel` the loop kept. `Fused`: the base-column bytes each conjunct
    /// streamed. `Materialize`: one column-at-a-time pass per conjunct, and
    /// under a fold each node's gather of its survivors from a source of
    /// `gather`'s bytes per row and columns.
    fn price(
        &self,
        t: &Tally,
        nsel: u64,
        gather: Option<(u64, usize)>,
        list: Executor,
    ) -> WorkProfile {
        let mut p = WorkProfile::new();
        for (i, (node, kept)) in self.nodes.iter().zip(self.kept(t, nsel)).enumerate() {
            match list {
                Executor::Materialize => {
                    // A dead morsel starts a candidate list.
                    let seeded = i == 0 && t.dead_morsels > 0;
                    self.price_materialized(node.clone(), t, seeded, &mut p);
                    if let Some((width, columns)) = gather {
                        p.seq_read_bytes += kept * width;
                        p.seq_write_bytes += kept * width;
                        p.cpu_ops += kept * columns.max(1) as u64;
                    }
                }
                Executor::Fused => {
                    for k in node.clone() {
                        p.cpu_ops += t.examined[k];
                        p.seq_read_bytes += t.examined[k] * self.preds[k].width_bytes();
                    }
                }
            }
        }
        p
    }

    /// The materializing cost form of one node: one column-at-a-time pass
    /// per conjunct, priced from the rows it examined, until the candidates
    /// run out. `seeded`: a candidate list already exists.
    fn price_materialized(
        &self,
        node: Range<usize>,
        t: &Tally,
        mut seeded: bool,
        prof: &mut WorkProfile,
    ) {
        // Once a candidate list exists, a conjunct pays for gathering the
        // columns it reads.
        for k in node {
            let (pred, (cost, gather), rows) = (&self.preds[k], &self.priced[k], t.examined[k]);
            if *gather == 0 {
                // A constant, decided on one row: false empties the
                // selection, true leaves the candidates as they are.
                prof.cpu_ops += 1;
                cost.charge(1, prof);
                if !matches!(pred, Pred::Const(true)) {
                    break;
                }
            } else if rows == 0 && t.proven[k] > 0 {
                // Proven true wherever it was reached: no pass at all.
                continue;
            } else if seeded && rows == 0 {
                break;
            } else {
                if seeded {
                    // The modelled gather: only the columns this conjunct
                    // touches, only for the candidates it examined.
                    prof.seq_read_bytes += rows * gather;
                    prof.seq_write_bytes += rows * gather;
                    prof.cpu_ops += rows;
                }
                cost.charge(rows, prof);
            }
            seeded = true;
        }
    }
}

/// What the conjunct loop did — over one morsel, or summed over all of them.
/// Counts only, so every charge made from it is invariant to the thread
/// count and to which worker ran what.
pub(super) struct Tally {
    /// Per conjunct: the rows it was evaluated over.
    examined: Vec<u64>,
    /// Per conjunct: the rows the zone maps proved it true over (skipped).
    proven: Vec<u64>,
    /// Morsels the zone maps proved dead, and their rows.
    dead_morsels: u64,
    dead_rows: u64,
}

impl Tally {
    pub(super) fn add(&mut self, o: &Tally) {
        self.examined.iter_mut().zip(&o.examined).for_each(|(a, b)| *a += b);
        self.proven.iter_mut().zip(&o.proven).for_each(|(a, b)| *a += b);
        self.dead_morsels += o.dead_morsels;
        self.dead_rows += o.dead_rows;
    }
}

/// One compiled filter conjunct. A top-level OR compiles to its disjuncts'
/// separate AND-chains so the filter can cascade: each disjunct's own most
/// selective conjunct (often a single-pass `Quick` form) prunes candidates
/// before the wider arms are touched, instead of every arm evaluating over
/// every row the way one flat program would.
pub(super) enum Pred {
    One(Program),
    /// Disjuncts, each an AND-chain of programs; a row survives when any
    /// chain passes it.
    AnyOf(Vec<Vec<Program>>),
    /// Folded at compile time: every row passes, or none does.
    Const(bool),
}

impl Pred {
    fn filter_range(&self, r: Range<usize>, out: &mut Vec<u32>) {
        match self {
            Pred::One(p) => p.filter_range(r, out),
            Pred::AnyOf(chains) => {
                let mut cand = selection::take_scratch();
                cand.extend(r.map(|i| i as u32));
                or_cascade(chains, &cand, out);
                selection::put_scratch(cand);
            }
            Pred::Const(keep) => out.extend(r.filter(|_| *keep).map(|i| i as u32)),
        }
    }

    fn filter_sel(&self, cand: &[u32], out: &mut Vec<u32>) {
        match self {
            Pred::One(p) => p.filter_sel(cand, out),
            Pred::AnyOf(chains) => or_cascade(chains, cand, out),
            Pred::Const(true) => out.extend_from_slice(cand),
            Pred::Const(false) => {}
        }
    }

    /// The fused executor's bytes-per-row pricing: every program's base
    /// columns, an OR's arms each counted — flat evaluation reads every arm
    /// for every row, and the charge stays invariant to how the cascade
    /// happened to prune.
    fn width_bytes(&self) -> u64 {
        match self {
            Pred::One(p) => p.width_bytes(),
            Pred::AnyOf(chains) => chains.iter().flatten().map(Program::width_bytes).sum(),
            Pred::Const(_) => 0,
        }
    }
}

/// Runs each disjunct's AND-chain over the candidates not yet accepted,
/// unioning survivors. Disjunct sets are disjoint by construction (later
/// chains only see rows earlier chains rejected), so sorting the
/// concatenation restores ascending row order — exactly the rows a flat
/// evaluation of the OR would keep.
fn or_cascade(chains: &[Vec<Program>], cand: &[u32], out: &mut Vec<u32>) {
    let mut remaining = selection::take_scratch();
    remaining.extend_from_slice(cand);
    let mut pass = selection::take_scratch();
    let mut tmp = selection::take_scratch();
    let start = out.len();
    for chain in chains {
        if remaining.is_empty() {
            break;
        }
        pass.clear();
        chain[0].filter_sel(&remaining, &mut pass);
        for conj in &chain[1..] {
            if pass.is_empty() {
                break;
            }
            tmp.clear();
            conj.filter_sel(&pass, &mut tmp);
            std::mem::swap(&mut pass, &mut tmp);
        }
        if pass.is_empty() {
            continue;
        }
        // remaining -= pass (both ascending).
        tmp.clear();
        let mut pi = 0;
        for &row in remaining.iter() {
            if pi < pass.len() && pass[pi] == row {
                pi += 1;
            } else {
                tmp.push(row);
            }
        }
        std::mem::swap(&mut remaining, &mut tmp);
        out.extend_from_slice(&pass);
    }
    out[start..].sort_unstable();
    selection::put_scratch(remaining);
    selection::put_scratch(pass);
    selection::put_scratch(tmp);
}

/// Splits an OR tree into disjuncts (mirror of `split_conjuncts`).
fn split_disjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Bin { op: BinOp::Or, left, right } => {
            split_disjuncts(left, out);
            split_disjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Compiles one already-split conjunct, recognizing top-level OR chains,
/// together with the full-materialization cost of the *flat* expression:
/// the cascade only changes which rows each arm looks at, never what
/// evaluating the conjunct column-at-a-time is priced as.
pub(super) fn compile_conjunct(c: &Expr, src: &Relation) -> Result<(Pred, Cost)> {
    let mut disjuncts = Vec::new();
    split_disjuncts(c, &mut disjuncts);
    if disjuncts.len() == 1 {
        let prog = Program::compile(c, src)?.into_predicate()?;
        let cost = *prog.cost();
        return Ok((prog.const_bool().map_or_else(|| Pred::One(prog), Pred::Const), cost));
    }
    let mut cost = Cost::default();
    let (mut chains, mut nparts, mut any_true) = (Vec::new(), 0, false);
    for d in &disjuncts {
        let mut parts = Vec::new();
        split_conjuncts(d.clone(), &mut parts);
        nparts += parts.len();
        let (mut chain, mut dead) = (Vec::new(), false);
        for p in &parts {
            let Ok(prog) = Program::compile(p, src)?.into_predicate() else {
                // A non-boolean arm: the flat OR/AND tree names the error.
                Program::compile(c, src)?;
                unreachable!("the flat tree rejects a non-boolean operand");
            };
            cost.add(prog.cost());
            match prog.const_bool() {
                Some(keep) => dead |= !keep,
                None => chain.push(prog),
            }
        }
        // A constant-false part kills its arm; an arm of only constant-true
        // parts accepts every row.
        if !dead {
            any_true |= chain.is_empty();
            chains.push(chain);
        }
    }
    cost.add(&Cost::logical(nparts as u64 - 1));
    let pred =
        if any_true || chains.is_empty() { Pred::Const(any_true) } else { Pred::AnyOf(chains) };
    Ok((pred, cost))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use std::sync::Arc;
    use wimpi_storage::Column;

    fn exec_filter(rel: &Relation, pred: &Expr, prof: &mut WorkProfile) -> Result<Relation> {
        let (mut led, ctx) = (Ledger::default(), QueryContext::default());
        let out = super::exec_filter(
            rel,
            pred,
            None,
            &mut led,
            &EngineConfig::serial(),
            Tracer::off(),
            &ctx,
        );
        *prof += led.prices().materialize;
        out
    }

    fn rel() -> Relation {
        Relation::new(vec![
            ("k".into(), Arc::new(Column::Int64(vec![1, 2, 3, 4]))),
            ("v".into(), Arc::new(Column::Int64(vec![10, 20, 30, 40]))),
        ])
        .unwrap()
    }

    #[test]
    fn keeps_matching_rows() {
        let mut p = WorkProfile::new();
        let out = exec_filter(&rel(), &col("k").gt(lit(2i64)), &mut p).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("v").unwrap().as_i64().unwrap(), &[30, 40]);
    }

    #[test]
    fn conjunction_propagates_candidates() {
        let mut p = WorkProfile::new();
        let pred = col("k").gt(lit(1i64)).and(col("v").lt(lit(40i64)));
        let out = exec_filter(&rel(), &pred, &mut p).unwrap();
        assert_eq!(out.column("k").unwrap().as_i64().unwrap(), &[2, 3]);
        // Compare work against a wider relation: the second conjunct only
        // touched rows surviving the first.
        assert!(p.cpu_ops < 4 * 10, "candidate propagation keeps work small");
    }

    #[test]
    fn selective_first_conjunct_reduces_bytes() {
        // A 1%-selective first conjunct should make the whole filter much
        // cheaper than a 100%-selective one.
        let n = 10_000i64;
        let rel = Relation::new(vec![
            ("a".into(), Arc::new(Column::Int64((0..n).collect()))),
            ("b".into(), Arc::new(Column::Int64((0..n).rev().collect()))),
        ])
        .unwrap();
        let mut cheap = WorkProfile::new();
        exec_filter(&rel, &col("a").lt(lit(100i64)).and(col("b").gt(lit(0i64))), &mut cheap)
            .unwrap();
        let mut dear = WorkProfile::new();
        exec_filter(&rel, &col("a").lt(lit(n)).and(col("b").gt(lit(0i64))), &mut dear).unwrap();
        assert!(
            cheap.seq_bytes() < dear.seq_bytes() / 2,
            "selective scans must stream fewer bytes: {} vs {}",
            cheap.seq_bytes(),
            dear.seq_bytes()
        );
    }

    #[test]
    fn empty_result_short_circuits() {
        let mut p = WorkProfile::new();
        let pred = col("k").gt(lit(100i64)).and(col("v").lt(lit(0i64)));
        let out = exec_filter(&rel(), &pred, &mut p).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn constant_conjuncts_keep_or_clear_candidates() {
        // A later conjunct with an empty column set must not silently drop
        // the surviving candidates (it used to build a 0-row sub-relation
        // whose empty mask zipped everything away).
        let mut p = WorkProfile::new();
        let pred = col("k").gt(lit(1i64)).and(lit(true));
        let out = exec_filter(&rel(), &pred, &mut p).unwrap();
        assert_eq!(out.column("k").unwrap().as_i64().unwrap(), &[2, 3, 4]);

        let pred = col("k").gt(lit(1i64)).and(lit(false));
        let out = exec_filter(&rel(), &pred, &mut p).unwrap();
        assert_eq!(out.num_rows(), 0);

        // Constant-first conjunctions skip the full-column evaluation too.
        let pred = Expr::Lit(wimpi_storage::Value::Bool(true)).and(col("k").lt(lit(3i64)));
        let out = exec_filter(&rel(), &pred, &mut p).unwrap();
        assert_eq!(out.column("k").unwrap().as_i64().unwrap(), &[1, 2]);
    }

    #[test]
    fn disjunctions_still_work() {
        let mut p = WorkProfile::new();
        let pred = col("k").eq(lit(1i64)).or(col("k").eq(lit(4i64)));
        let out = exec_filter(&rel(), &pred, &mut p).unwrap();
        assert_eq!(out.column("k").unwrap().as_i64().unwrap(), &[1, 4]);
    }

    /// What filtering `full` (or its first zero rows) by each shape charges
    /// in both price lists, from one run on 25-row morsels — `[cpu_ops, seq_read_bytes,
    /// seq_write_bytes, pruned_morsels, pruned_bytes]`, the gather included —
    /// pinned from the two loops this one replaced. Every `Materialize` row is
    /// the conjunct-at-a-time loop's to the unit. The `Fused` rows marked
    /// `was` (the old `cpu_ops`, then `seq_read_bytes`) changed on purpose:
    /// constants now run in the one loop like any conjunct, so a constant is
    /// charged the rows it examined, and the real conjuncts before a constant
    /// false run (the old fused loop dropped a constant true and returned
    /// nothing, charging nothing, on a false).
    #[test]
    fn charges_on_edge_shapes_in_both_price_lists() {
        use wimpi_storage::{DataType, Field, Schema, Value};
        let n = 100i64;
        let sealed = Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("v", DataType::Int64),
                Field::new("s", DataType::Utf8),
            ]),
            vec![
                Column::Int64((0..n).collect()),
                Column::Int64((0..n).map(|i| i * 37 % 100).collect()),
                Column::Str((0..n).map(|i| ["AIR", "RAIL", "SHIP"][i as usize % 3]).collect()),
            ],
        )
        .unwrap()
        .with_zone_maps_at(25);
        let full = Relation::from_table(&sealed, None).unwrap();
        let (k, v) = (|| col("k"), || col("v"));
        let (yes, no) = (|| Expr::Lit(Value::Bool(true)), || Expr::Lit(Value::Bool(false)));
        let shipped = k().lt(lit(10i64)).or(col("s").eq(lit("SHIP")));
        // (shape, predicate, zero rows, pruned, materialize, fused)
        #[rustfmt::skip]
        let cases = [
            ("true first", yes().and(k().lt(lit(50i64))), false, false,
                [351, 2600, 1900, 0, 0], [350, 1800, 1000, 0, 0]), // was 250
            ("true middle", k().lt(lit(50i64)).and(yes()).and(v().gt(lit(10i64))), false, false,
                [333, 2480, 1430, 0, 0], [332, 2080, 880, 0, 0]), // was 282
            ("true last", k().lt(lit(50i64)).and(yes()), false, false,
                [251, 1800, 1100, 0, 0], [300, 1800, 1000, 0, 0]), // was 250
            ("false first", no().and(k().lt(lit(50i64))), false, false,
                [1, 0, 0, 0, 0], [100, 0, 0, 0, 0]), // was 0
            ("false middle", k().lt(lit(50i64)).and(no()).and(v().gt(lit(10i64))), false, false,
                [101, 800, 100, 0, 0], [150, 800, 0, 0, 0]), // was 0, 0
            ("false last", k().lt(lit(50i64)).and(no()), false, false,
                [101, 800, 100, 0, 0], [150, 800, 0, 0, 0]), // was 0, 0
            ("or cascade", shipped.and(v().gt(lit(20i64))), false, false,
                [473, 2640, 1260, 0, 0], [230, 2120, 600, 0, 0]),
            ("ran out", k().gt(lit(200i64)).and(v().gt(lit(10i64))).and(yes()), false, false,
                [100, 800, 100, 0, 0], [100, 800, 0, 0, 0]),
            ("ran out, constant next", k().gt(lit(200i64)).and(yes()).and(v().gt(lit(10i64))),
                false, false, [101, 800, 100, 0, 0], [100, 800, 0, 0, 0]),
            ("0 rows", col("s").eq(lit("AIR")).and(k().lt(lit(50i64))), true, false,
                [3, 0, 0, 0, 0], [0, 0, 0, 0, 0]),
            ("dead morsels", k().lt(lit(50i64)).and(v().gt(lit(10i64))), false, true,
                [232, 1680, 1330, 2, 800], [182, 1280, 880, 2, 800]),
            ("dead, proven later", v().gt(lit(10i64)).and(k().lt(lit(50i64))), false, true,
                [232, 1680, 1330, 2, 752], [182, 1280, 880, 2, 752]),
        ];
        let (ctx, cfg) = (QueryContext::default(), EngineConfig::serial().with_morsel_rows(25));
        let got = |p: WorkProfile| {
            [p.cpu_ops, p.seq_read_bytes, p.seq_write_bytes, p.pruned_morsels, p.pruned_bytes]
        };
        for (shape, pred, zero_rows, pruned, materialize, fused) in cases {
            let rel = if zero_rows { full.take(&[]) } else { full.clone() };
            let mut led = Ledger::default();
            let table = pruned.then_some(&sealed);
            super::exec_filter(&rel, &pred, table, &mut led, &cfg, Tracer::off(), &ctx).unwrap();
            let prices = led.prices();
            assert_eq!(got(prices.materialize), materialize, "{shape}: materialize");
            assert_eq!(got(prices.fused), fused, "{shape}: fused");
        }
    }
}
