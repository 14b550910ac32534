//! Filter: one operator, two loop orders over the same compiled conjuncts.
//!
//! A conjunctive predicate is split into conjuncts, each compiled once
//! ([`compile_conjunct`]) and run candidate-propagating: the first conjunct
//! scans full columns, every later one only the surviving candidates,
//! through selection vectors on the base columns — no mask column, no
//! gathered sub-relation. For selective scans like Q6 this reads a fraction
//! of the bytes a naive evaluate-everything-fully filter would — exactly
//! the candidate-list optimization MonetDB applies, and the reason Q6 is
//! cheap even on a bandwidth-starved Pi (paper §II-D1).
//!
//! `Executor::Materialize` runs conjunct-at-a-time — one pass over every
//! morsel per conjunct, an `eval` span each — and charges what MonetDB's
//! column-at-a-time execution would pay for that pass: the conjunct's
//! full-materialization `Cost` over the candidates it saw, plus, once
//! there is a candidate list, the gather of the columns it touches.
//! `Executor::Fused` runs morsel-at-a-time — every conjunct over one morsel
//! before the next morsel — and charges only the base-column bytes it
//! streams. The survivors are identical, and gathered exactly once.

use std::time::Instant;

use crate::error::Result;
use crate::exec::bytecode::Ty;
use crate::exec::fused::{compile_conjunct, compile_conjuncts, filter_morsel, Pred};
use crate::exec::parallel::{morsel_ranges, run_morsels, EngineConfig, Executor};
use crate::exec::prune::ScanPruner;
use crate::exec::{ensure_u32_indexable, expr_sketch, Scope};
use crate::expr::Expr;
use crate::governor::QueryContext;
use crate::optimizer::split_conjuncts;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_obs::{Span, Tracer};
use wimpi_storage::{selection, Table};

/// Filters `rel` by `predicate` and gathers the surviving rows of every
/// column, in the loop order of `cfg.executor` (see the module docs).
///
/// When `table` is the sealed table this filter scans (passed only under
/// `cfg.prune_scans`), its zone maps may prove whole morsels dead and
/// conjuncts always-true (DESIGN.md §14) — same survivors, fewer bytes.
pub fn exec_filter(
    rel: &Relation,
    predicate: &Expr,
    table: Option<&Table>,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    ensure_u32_indexable(rel.num_rows(), "filter")?;
    let mut parts = Vec::new();
    split_conjuncts(predicate.clone(), &mut parts);
    let sel = match cfg.executor {
        Executor::Materialize => conjunct_at_a_time(rel, &parts, table, prof, cfg, tracer, ctx)?,
        Executor::Fused => morsel_at_a_time(rel, &parts, table, prof, cfg, tracer, ctx)?,
    };
    let out = rel.take(&sel);
    charge_gather(rel, &out, sel.len(), prof);
    selection::put_scratch(sel);
    Ok(out)
}

/// The materializing loop: one pass per conjunct, an `eval` child span each
/// when tracing (rows in = candidates it scanned, rows out = survivors).
fn conjunct_at_a_time(
    rel: &Relation,
    parts: &[Expr],
    table: Option<&Table>,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Vec<u32>> {
    let n = rel.num_rows();
    let (preds, costs): (Vec<_>, Vec<_>) = parts
        .iter()
        .map(|c| compile_conjunct(c, rel))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();
    let ranges = morsel_ranges(n, cfg.morsel_rows);
    // Per-morsel candidates; `None` is every row of the morsel. `seeded`
    // says a candidate list exists at all — from then on a conjunct pays
    // for gathering the columns it reads.
    let mut cands: Vec<Option<Vec<u32>>> = vec![None; ranges.len()];
    let mut seeded = false;
    let mut always_true = vec![false; preds.len()];
    if let Some(pruner) = table.and_then(|t| ScanPruner::new(t, &preds, n)) {
        let (dead, proven) = pruner.sweep(&ranges);
        always_true = proven;
        // A dead morsel is credited with the first conjunct's scan of it —
        // the bytes the unpruned filter is guaranteed to have streamed.
        let first_width = preds.iter().map(Pred::width_bytes).find(|&w| w > 0).unwrap_or(0);
        for (m, r) in ranges.iter().enumerate().filter(|(m, _)| dead[*m]) {
            cands[m] = Some(Vec::new());
            seeded = true;
            prof.pruned_morsels += 1;
            prof.pruned_bytes += r.len() as u64 * first_width;
        }
    }
    let count = |cands: &[Option<Vec<u32>>]| -> u64 {
        cands.iter().zip(&ranges).map(|(c, r)| c.as_ref().map_or(r.len(), Vec::len) as u64).sum()
    };
    for (k, (pred, cost)) in preds.iter().zip(&costs).enumerate() {
        ctx.checkpoint()?;
        let needed = parts[k].column_set();
        if needed.is_empty() {
            // Constant conjunct: decide it once, on one row. False empties
            // the selection; true leaves the candidates as they are.
            prof.cpu_ops += 1;
            cost.charge(1, prof);
            let mut one = Vec::new();
            pred.filter_range(0..1, &mut one);
            if one.is_empty() {
                cands = vec![Some(Vec::new()); ranges.len()];
                break;
            }
            seeded = true;
            continue;
        }
        let rows = count(&cands);
        if always_true[k] {
            // Proven true over every candidate morsel: skip the pass,
            // crediting the bytes it would have streamed.
            prof.pruned_bytes += rows * pred.width_bytes();
            continue;
        }
        let span = Scope::open(tracer, prof, || ("eval", expr_sketch(&parts[k])));
        if seeded && rows == 0 {
            break;
        }
        if seeded {
            // The modelled gather: only the columns this conjunct touches,
            // only for the surviving candidates.
            let width: u64 = rel
                .fields()
                .iter()
                .filter(|(name, _)| needed.contains(name))
                .map(|(_, c)| Ty::of_column(c).width())
                .sum();
            prof.seq_read_bytes += rows * width;
            prof.seq_write_bytes += rows * width;
            prof.cpu_ops += rows;
        }
        cost.charge(rows, prof);
        let next = run_morsels(cfg, &ranges, |m, r| {
            filter_morsel(std::slice::from_ref(pred), None, r, cands[m].as_deref()).sel
        });
        for old in std::mem::replace(&mut cands, next.into_iter().map(Some).collect()) {
            selection::put_scratch(old.unwrap_or_default());
        }
        seeded = true;
        span.close(rows, count(&cands), prof);
    }
    let mut sel = selection::take_scratch();
    for (c, r) in cands.into_iter().zip(ranges) {
        match c {
            None => sel.extend(r.map(|i| i as u32)),
            Some(c) => {
                sel.extend_from_slice(&c);
                selection::put_scratch(c);
            }
        }
    }
    Ok(sel)
}

/// The fused loop, for `Filter` nodes not consumed by a fused aggregate
/// (e.g. below a join): every conjunct over one morsel before the next
/// morsel, summarized as one `predicates` leaf when tracing.
fn morsel_at_a_time(
    rel: &Relation,
    parts: &[Expr],
    table: Option<&Table>,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Vec<u32>> {
    let n = rel.num_rows();
    let (conjuncts, const_false) = compile_conjuncts(parts, rel)?;
    let pruner = table.and_then(|t| ScanPruner::new(t, &conjuncts, n));
    let started = tracer.is_enabled().then(Instant::now);
    let results = run_morsels(cfg, &morsel_ranges(n, cfg.morsel_rows), |_, r| {
        if ctx.interrupted() || const_false {
            return filter_morsel(&[], None, 0..0, None);
        }
        filter_morsel(&conjuncts, pruner.as_ref(), r, None)
    });
    ctx.checkpoint()?;
    let mut sel = selection::take_scratch();
    let mut examined = vec![0u64; conjuncts.len()];
    for morsel in results {
        sel.extend_from_slice(&morsel.sel);
        selection::put_scratch(morsel.sel);
        for (total, rows) in examined.iter_mut().zip(morsel.examined) {
            *total += rows;
        }
        prof.pruned_morsels += morsel.pruned_morsel as u64;
        prof.pruned_bytes += morsel.pruned_bytes;
    }
    for (rows, conj) in examined.iter().zip(&conjuncts) {
        prof.cpu_ops += rows;
        prof.seq_read_bytes += rows * conj.width_bytes();
    }
    if let Some(started) = started {
        let mut pred = Span::leaf("predicates", format!("{} conjuncts", conjuncts.len()));
        pred.rows_in = n as u64;
        pred.rows_out = sel.len() as u64;
        pred.wall_ns = started.elapsed().as_nanos() as u64;
        tracer.attach(pred);
    }
    Ok(sel)
}

/// Charges a gather/materialization. Selection vectors are sorted, so the
/// gather walks every column *forward* — it is priced as streaming (reads
/// of the touched fraction plus the written output), not as random access;
/// random pricing is reserved for hash probes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use std::sync::Arc;
    use wimpi_storage::Column;

    fn exec_filter(rel: &Relation, pred: &Expr, prof: &mut WorkProfile) -> Result<Relation> {
        let ctx = QueryContext::default();
        super::exec_filter(rel, pred, None, prof, &EngineConfig::serial(), Tracer::off(), &ctx)
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
}
