//! Fused morsel-at-a-time execution (DESIGN.md §13): the conjunct machinery
//! both loop orders of the filter share, and the peeling of an aggregate's
//! filter chain.
//!
//! The materializing executor runs scan → filter → eval → aggregate as
//! separate full-column passes, paying memory bandwidth — the scarcest
//! resource on a wimpy node — for every filtered intermediate. The fused
//! executor collapses that pipeline: [`exec_fused`] peels the `Filter` chain
//! under an `Aggregate` and hands the conjuncts to the one aggregation fold
//! (`aggregate::fold`), where each worker walks one morsel of the *base*
//! relation, runs the conjuncts into a reusable selection vector
//! ([`filter_morsel`] — the one candidate-propagating conjunct loop, which
//! the materializing filter drives too, one conjunct per pass) and folds the
//! survivors exactly as [`aggregate::exec_aggregate`] folds a whole relation.
//!
//! Determinism argument: morsel boundaries depend only on the row count and
//! morsel size; each partial sees exactly the rows of its morsel in row
//! order; `first_rows` hold the base relation's row ids, so the merged group
//! order (first appearance) and every order-free accumulator match the
//! materializing path's, whose partials over the filtered relation see the
//! same rows in the same relative order — which also makes the form the
//! aggregate observes (`runs` or `hash`) the same under both executors.
//!
//! The fold is the same code under both executors, so no expression and no
//! aggregate function changes the code path. The peeled pipeline is handed
//! back, and run one operator at a time over the already-executed source
//! ([`unfused`]), for exactly two reasons: a float `sum`/`avg` under a
//! filter, whose partial sums must be cut in the *filtered* relation's
//! morsels, and a budget too small for the merged group table, which wants
//! the degradation ladder. Either way results, errors, charges and governor
//! behaviour are `Executor::Materialize`'s, and the trace carries a
//! `fallback` leaf naming the reason.

use std::ops::Range;

use super::aggregate::{self, Peeled};
use super::bytecode::{Cost, Program};
use super::parallel::{EngineConfig, Executor};
use super::{expr_sketch, filter, prune, Scope};
use crate::error::Result;
use crate::expr::{BinOp, Expr};
use crate::governor::QueryContext;
use crate::optimizer::split_conjuncts;
use crate::plan::{AggExpr, LogicalPlan};
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{Span, Tracer};
use wimpi_storage::selection;

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
    pub(super) fn filter_range(&self, r: Range<usize>, out: &mut Vec<u32>) {
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
    pub(super) fn width_bytes(&self) -> u64 {
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

/// Compiles conjuncts for morsel-at-a-time execution: constant-true ones
/// dropped, and whether one folded to constant false (no row survives).
pub(super) fn compile_conjuncts(parts: &[Expr], src: &Relation) -> Result<(Vec<Pred>, bool)> {
    let (mut conjuncts, mut const_false) = (Vec::new(), false);
    for c in parts {
        match compile_conjunct(c, src)?.0 {
            Pred::Const(keep) => const_false |= !keep,
            pred => conjuncts.push(pred),
        }
    }
    Ok((conjuncts, const_false))
}

/// What the conjunct loop did over one morsel.
pub(super) struct MorselFilter {
    /// Surviving row ids, ascending (a `selection` scratch buffer).
    pub sel: Vec<u32>,
    /// Rows each conjunct was evaluated over (0 when skipped).
    pub examined: Vec<u64>,
    /// Bytes the zone maps proved need not be streamed, and whether they
    /// proved the whole morsel dead.
    pub pruned_bytes: u64,
    pub pruned_morsel: bool,
}

/// The candidate-propagating conjunct loop over one morsel: the first
/// conjunct scans the candidates it is given (`None` — every row of `r`),
/// each later one only the survivors, through recycled selection vectors
/// and with no intermediate column. With a pruner, a conjunct the zone maps
/// prove true for the whole morsel is skipped, and a morsel they prove dead
/// is not touched at all — credited with the first conjunct's scan of it,
/// the bytes the unpruned loop is guaranteed to have streamed.
pub(super) fn filter_morsel(
    conjuncts: &[Pred],
    pruner: Option<&prune::ScanPruner>,
    r: Range<usize>,
    cand: Option<&[u32]>,
) -> MorselFilter {
    let mut out = MorselFilter {
        sel: selection::take_scratch(),
        examined: vec![0; conjuncts.len()],
        pruned_bytes: 0,
        pruned_morsel: false,
    };
    let verdicts = pruner.map(|p| p.verdicts(&r));
    if verdicts.as_ref().is_some_and(|v| v.contains(&prune::Verdict::False)) {
        out.pruned_morsel = true;
        out.pruned_bytes = r.len() as u64 * conjuncts[0].width_bytes();
        return out;
    }
    // Until a conjunct has run, the candidates are the caller's, untouched.
    let mut narrowed = false;
    for (k, conj) in conjuncts.iter().enumerate() {
        let rows = if narrowed { out.sel.len() } else { cand.map_or(r.len(), <[u32]>::len) };
        if verdicts.as_ref().is_some_and(|v| v[k] == prune::Verdict::True) {
            out.pruned_bytes += rows as u64 * conj.width_bytes();
            continue;
        }
        out.examined[k] = rows as u64;
        if rows == 0 {
            break;
        }
        let mut next = selection::take_scratch();
        match (narrowed, cand) {
            (true, _) => conj.filter_sel(&out.sel, &mut next),
            (false, Some(c)) => conj.filter_sel(c, &mut next),
            (false, None) => conj.filter_range(r.clone(), &mut next),
        }
        selection::put_scratch(std::mem::replace(&mut out.sel, next));
        narrowed = true;
    }
    if !narrowed {
        match cand {
            Some(c) => out.sel.extend_from_slice(c),
            None => out.sel.extend(r.map(|i| i as u32)),
        }
    }
    out
}

/// Executes an `Aggregate` node (and the chain of `Filter`s beneath it) as
/// one fused pipeline over the materialized source. Called from the
/// interpreter's `Aggregate` arm when `cfg.executor == Executor::Fused`; the
/// enclosing span (op `fused`) is already open.
#[allow(clippy::too_many_arguments)]
pub(super) fn exec_fused(
    input: &LogicalPlan,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    catalog: &wimpi_storage::Catalog,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<(u64, Relation)> {
    // Peel the filter chain; everything below it (scan, joins, …) executes
    // through the interpreter and becomes the fused source.
    let mut filters: Vec<&Expr> = Vec::new();
    let mut src_plan = input;
    while let LogicalPlan::Filter { input, predicate } = src_plan {
        filters.push(predicate);
        src_plan = input;
    }
    filters.reverse(); // innermost (first-executed) conjuncts first
    let src = super::exec_node(src_plan, catalog, prof, cfg, tracer, ctx)?;
    // Zone-map pruning (opt-in, DESIGN.md §14): only when the pipeline's
    // source is a bare table scan can morsel offsets be resolved against the
    // table's sealed summaries. Verdicts are sound, so pruning changes no
    // survivor, group, or row count — only which bytes get streamed.
    let table = match (cfg.prune_scans, src_plan) {
        (true, LogicalPlan::Scan { table, .. }) => catalog.table(table).ok().map(|t| t.as_ref()),
        _ => None,
    };
    let peeled = Peeled { filters, table };
    let folded = aggregate::fold(&src, Some(&peeled), group_by, aggs, prof, cfg, tracer, ctx)?;
    let out = match folded {
        Ok(out) => out,
        Err(reason) => {
            unfused(&src, &peeled.filters, group_by, aggs, reason, prof, cfg, tracer, ctx)?
        }
    };
    Ok((src.num_rows() as u64, out))
}

/// The fallback: run the peeled filters and the aggregate one operator at a
/// time, in place, over the already-executed source — reproducing
/// `Executor::Materialize`'s results, errors, charges, and governor behavior
/// exactly. Each operator gets its own child span inside the open `fused`
/// span, after a `fallback` leaf labelled with the reason.
#[allow(clippy::too_many_arguments)]
fn unfused(
    src: &Relation,
    filters: &[&Expr],
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    reason: &str,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    let cfg = &cfg.with_executor(Executor::Materialize);
    if tracer.is_enabled() {
        tracer.attach(Span::leaf("fallback", reason));
    }
    let mut rel = src.clone();
    for f in filters {
        ctx.checkpoint()?;
        let span = Scope::open(tracer, prof, || ("filter", expr_sketch(f)));
        let out = filter::exec_filter(&rel, f, None, prof, cfg, tracer, ctx)?;
        ctx.track(out.stream_bytes() as u64);
        prof.peak_bytes = prof.peak_bytes.max(ctx.high_water());
        span.close(rel.num_rows() as u64, out.num_rows() as u64, prof);
        rel = out;
    }
    ctx.checkpoint()?;
    let label = || format!("{} keys, {} aggs", group_by.len(), aggs.len());
    let span = Scope::open(tracer, prof, || ("aggregate", label()));
    let out = aggregate::exec_aggregate(&rel, group_by, aggs, prof, cfg, tracer, ctx)?;
    span.close(rel.num_rows() as u64, out.num_rows() as u64, prof);
    // The enclosing exec_node wrapper tracks the output and ratchets the
    // peak, exactly as it would for a materializing Aggregate.
    Ok(out)
}
