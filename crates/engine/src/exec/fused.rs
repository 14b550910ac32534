//! Fused morsel-at-a-time execution (DESIGN.md §13): the peeling of an
//! aggregate's filter chain.
//!
//! The materializing executor runs scan → filter → eval → aggregate as
//! separate operators, gathering every filtered intermediate and paying
//! memory bandwidth — the scarcest resource on a wimpy node — for it. The
//! fused executor collapses that pipeline: [`exec_fused`] peels the `Filter`
//! chain under an `Aggregate` and hands the conjuncts to the one aggregation
//! fold (`aggregate::fold`), where each worker walks one morsel of the *base*
//! relation, runs the conjuncts into a reusable selection vector through the
//! one conjunct loop (`filter::Conjuncts`, which the `Filter` operator runs
//! too) and folds the survivors exactly as [`aggregate::exec_aggregate`]
//! folds a whole relation.
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

use super::aggregate::{self, Peeled};
use super::parallel::{EngineConfig, Executor};
use super::{expr_sketch, filter, Scope};
use crate::error::Result;
use crate::expr::Expr;
use crate::governor::QueryContext;
use crate::plan::{AggExpr, LogicalPlan};
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{Span, Tracer};

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
    let peeled = Peeled { filters, table: super::prunable(src_plan, catalog, cfg) };
    let folded = aggregate::fold(&src, Some(&peeled), group_by, aggs, prof, cfg, tracer, ctx)?;
    let out = match folded {
        Ok(out) => out,
        Err(reason) => unfused(&src, &peeled, group_by, aggs, reason, prof, cfg, tracer, ctx)?,
    };
    Ok((src.num_rows() as u64, out))
}

/// The fallback: run the peeled filters and the aggregate one operator at a
/// time, in place, over the already-executed source — reproducing
/// `Executor::Materialize`'s results, errors, charges, and governor behavior
/// exactly, pruning included: the innermost filter scans the peeled table's
/// own rows. Each operator gets its own child span inside the open `fused`
/// span, after a `fallback` leaf labelled with the reason.
#[allow(clippy::too_many_arguments)]
fn unfused(
    src: &Relation,
    peeled: &Peeled,
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
    for (i, f) in peeled.filters.iter().enumerate() {
        ctx.checkpoint()?;
        let span = Scope::open(tracer, prof, || ("filter", expr_sketch(f)));
        let table = peeled.table.filter(|_| i == 0);
        let out = filter::exec_filter(&rel, f, table, prof, cfg, tracer, ctx)?;
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
