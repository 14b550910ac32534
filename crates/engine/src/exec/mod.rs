//! Physical execution: a recursive operator-at-a-time interpreter over
//! [`LogicalPlan`]. Each operator hands the next a materialized relation,
//! except that an aggregate folds the `Filter` chain beneath it, building no
//! filtered copy. Every operator charges its work to a [`WorkProfile`] in the
//! price list [`parallel::Executor`] names — MonetDB's full materialization,
//! the execution style the paper benchmarks, or the base columns streamed —
//! which changes no result, span or governor decision.
//!
//! Tracing is an argument, not a second entry point: [`execute`] threads the
//! caller's [`Tracer`] through the interpreter, and under an enabled one
//! every operator becomes a span in a tree mirroring the plan. Span counters
//! are *inclusive* (operator plus its inputs), measured as work-profile
//! deltas around each subtree, so summing each span's `self` counters
//! reproduces the query's total profile exactly. Callers that want no trace
//! pass [`Tracer::off`], which reduces every trace call to a branch on a
//! `None` (see [`Scope`]).

pub mod aggregate;
pub mod bytecode;
pub mod filter;
mod hash;
pub mod join;
mod ladder;
pub mod parallel;
mod partition;
mod prune;
pub mod sort;
mod spill;

use crate::error::{EngineError, Result};
use crate::eval::Evaluator;
use crate::expr::Expr;
use crate::governor::QueryContext;
use crate::plan::LogicalPlan;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use parallel::EngineConfig;
use wimpi_obs::Tracer;
use wimpi_storage::{Catalog, Table};

/// Executes a plan against a catalog — the interpreter's one entry point.
///
/// `cfg` picks the price list, thread count and scan options; results and work
/// profiles are bit-identical at any thread count (see [`parallel`]). `ctx`
/// is the resource governor: its budget caps operator scratch (joins and
/// aggregates degrade to Grace partitioning before erroring), its
/// token/deadline cancel cooperatively at morsel boundaries, and the measured
/// peak lands in [`WorkProfile::peak_bytes`]; the default context is
/// ungoverned. `tracer` is [`Tracer::off`] for an untraced run; an `EXPLAIN
/// ANALYZE` caller passes [`Tracer::enabled`] and takes its root afterwards —
/// a `query` span whose counters equal the returned profile exactly (one
/// tracer records one call). Tracing never changes results or profiles.
pub fn execute(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
    tracer: &Tracer,
) -> Result<(Relation, WorkProfile)> {
    let mut prof = WorkProfile::new();
    let span = Scope::open(tracer, &prof, || ("query", String::new()));
    let rel = exec_node(plan, catalog, &mut prof, cfg, tracer, ctx)?;
    prof.rows_out = rel.num_rows() as u64;
    span.close(prof.rows_in, prof.rows_out, &prof);
    Ok((rel, prof))
}

/// One open trace span around a stretch of work on a profile. [`Scope::close`]
/// records the rows and the profile delta since [`Scope::open`]; a scope
/// dropped unclosed — an early `?` — closes empty, which keeps the span stack
/// balanced (the trace is discarded on error anyway). With the tracer off a
/// scope is inert: no label is built, no profile snapshot taken.
pub(crate) struct Scope<'a> {
    tracer: &'a Tracer,
    before: Option<WorkProfile>,
}

impl<'a> Scope<'a> {
    pub(crate) fn open(
        tracer: &'a Tracer,
        prof: &WorkProfile,
        head: impl FnOnce() -> (&'static str, String),
    ) -> Self {
        let before = tracer.is_enabled().then(|| {
            let (op, label) = head();
            tracer.push(op, &label);
            *prof
        });
        Scope { tracer, before }
    }

    pub(crate) fn close(mut self, rows_in: u64, rows_out: u64, prof: &WorkProfile) {
        if let Some(before) = self.before.take() {
            self.tracer.pop(rows_in, rows_out, prof.delta_since(&before).counter_pairs());
        }
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        // A panicking operator abandons its trace; never pop while unwinding.
        if self.before.is_some() && !std::thread::panicking() {
            self.tracer.pop(0, 0, Vec::new());
        }
    }
}

/// Recursive node interpreter; every node runs inside a [`Scope`]. Every
/// node entry is a cancellation checkpoint, and every node exit ratchets the
/// measured memory peak into the profile.
pub(crate) fn exec_node(
    plan: &LogicalPlan,
    catalog: &Catalog,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<Relation> {
    ctx.checkpoint()?;
    let span = Scope::open(tracer, prof, || span_head(plan));
    let (rows_in, rel) = exec_node_inner(plan, catalog, prof, cfg, tracer, ctx)?;
    finish_node(plan, &rel, prof, ctx);
    span.close(rows_in, rel.num_rows() as u64, prof);
    Ok(rel)
}

/// Closes out one operator under the governor: materialized intermediates
/// count toward the measured peak (scans share the catalog's columns and are
/// not an allocation), and the profile's `peak_bytes` ratchets up to the
/// query-wide high-water mark. The ratchet is monotone over the operator
/// sequence, so traced span deltas telescope to exactly the root's peak —
/// the property the independent trace checker validates.
fn finish_node(plan: &LogicalPlan, rel: &Relation, prof: &mut WorkProfile, ctx: &QueryContext) {
    if !matches!(plan, LogicalPlan::Scan { .. }) {
        ctx.track(rel.stream_bytes() as u64);
    }
    prof.peak_bytes = prof.peak_bytes.max(ctx.high_water());
}

/// The actual interpreter. Returns the operator's input row count alongside
/// its output so the caller can fill the span without re-deriving it.
fn exec_node_inner(
    plan: &LogicalPlan,
    catalog: &Catalog,
    prof: &mut WorkProfile,
    cfg: &EngineConfig,
    tracer: &Tracer,
    ctx: &QueryContext,
) -> Result<(u64, Relation)> {
    match plan {
        LogicalPlan::Scan { table, projection } => {
            let t = catalog.table(table)?;
            if cfg.verify_checksums {
                verify_scan(table, t, projection.as_deref(), ctx)?;
            }
            let rel = Relation::from_table(t, projection.as_deref())?;
            prof.rows_in += rel.num_rows() as u64;
            Ok((0, rel))
        }
        LogicalPlan::Filter { input, predicate } => {
            let rel = exec_node(input, catalog, prof, cfg, tracer, ctx)?;
            let rows_in = rel.num_rows() as u64;
            let table = prunable(input, catalog, cfg);
            Ok((rows_in, filter::exec_filter(&rel, predicate, table, prof, cfg, tracer, ctx)?))
        }
        LogicalPlan::Project { input, exprs } => {
            let rel = exec_node(input, catalog, prof, cfg, tracer, ctx)?;
            let n = rel.num_rows() as u64;
            let mut fields = Vec::with_capacity(exprs.len());
            for (e, name) in exprs {
                let span = Scope::open(tracer, prof, || ("eval", name.clone()));
                let col = Evaluator::with_config(&rel, prof, *cfg).eval(e)?;
                span.close(n, n, prof);
                fields.push((name.clone(), col));
            }
            if fields.is_empty() {
                return Err(EngineError::Plan("empty projection".to_string()));
            }
            Ok((n, Relation::new(fields)?))
        }
        LogicalPlan::Join { left, right, on, join_type } => {
            let l = exec_node(left, catalog, prof, cfg, tracer, ctx)?;
            let r = exec_node(right, catalog, prof, cfg, tracer, ctx)?;
            let rows_in = (l.num_rows() + r.num_rows()) as u64;
            Ok((rows_in, join::exec_join(&l, &r, on, *join_type, prof, cfg, tracer, ctx)?))
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            // The filters beneath the aggregate fold into it: their source
            // runs through the interpreter, their conjuncts in the fold.
            let (mut filters, mut src) = (Vec::new(), input.as_ref());
            while let LogicalPlan::Filter { input, predicate } = src {
                filters.push(predicate);
                src = input;
            }
            filters.reverse(); // innermost (first-executed) first
            let table = prunable(src, catalog, cfg);
            let rel = exec_node(src, catalog, prof, cfg, tracer, ctx)?;
            let out = aggregate::exec_aggregate(
                &rel, &filters, table, group_by, aggs, prof, cfg, tracer, ctx,
            )?;
            Ok((rel.num_rows() as u64, out))
        }
        LogicalPlan::Sort { input, keys } => {
            let rel = exec_node(input, catalog, prof, cfg, tracer, ctx)?;
            let rows_in = rel.num_rows() as u64;
            Ok((rows_in, sort::exec_sort(&rel, keys, prof, ctx)?))
        }
        LogicalPlan::Limit { input, n } => {
            let rel = exec_node(input, catalog, prof, cfg, tracer, ctx)?;
            let rows_in = rel.num_rows() as u64;
            let keep = rel.num_rows().min(*n);
            if keep == rel.num_rows() {
                // The limit keeps everything: pass the input through instead
                // of gathering a full copy of every column.
                return Ok((rows_in, rel));
            }
            ensure_u32_indexable(keep, "limit")?;
            let sel: Vec<u32> = (0..keep as u32).collect();
            Ok((rows_in, rel.take(&sel)))
        }
    }
}

/// The sealed table whose zone maps a filter over `input` may consult
/// (DESIGN.md §14): only under `cfg.prune_scans`, and only when `input` is a
/// bare scan — anything else has no stable morsel-to-table alignment and
/// runs unpruned. Verdicts are sound, so pruning changes no survivor, group
/// or row count — only which bytes get streamed.
fn prunable<'c>(
    input: &LogicalPlan,
    catalog: &'c Catalog,
    cfg: &EngineConfig,
) -> Option<&'c Table> {
    match (cfg.prune_scans, input) {
        (true, LogicalPlan::Scan { table, .. }) => catalog.table(table).ok().map(|t| t.as_ref()),
        _ => None,
    }
}

/// Scan-time integrity verification (DESIGN.md §12): recomputes the CRC32C
/// of every morsel-aligned chunk of the columns this scan actually reads and
/// compares them against the table's sealed manifest. Unsealed tables verify
/// trivially — manifests are opt-in like the verification itself. The
/// manifest's own self-checksum is checked first, so a bit flip *inside the
/// manifest* is reported as such rather than falsely accusing a data chunk.
fn verify_scan(
    name: &str,
    table: &Table,
    projection: Option<&[String]>,
    ctx: &QueryContext,
) -> Result<()> {
    use wimpi_storage::integrity::MANIFEST_PSEUDO_COLUMN;
    let Some(manifest) = table.manifest() else { return Ok(()) };
    if !manifest.verify_self() {
        return Err(EngineError::Integrity {
            table: name.to_string(),
            column: MANIFEST_PSEUDO_COLUMN.to_string(),
            chunk: 0,
            expected: 0,
            actual: 0,
        });
    }
    let verify_col = |cname: &str, col: &wimpi_storage::Column| -> Result<u64> {
        manifest.verify_column(cname, col).map(|n| n as u64).map_err(|v| EngineError::Integrity {
            table: name.to_string(),
            column: v.column,
            chunk: v.chunk,
            expected: v.expected,
            actual: v.actual,
        })
    };
    let mut checks = 1u64; // the self-check above
    let mut outcome = Ok(());
    let columns: Vec<&str> = match projection {
        Some(cols) => cols.iter().map(String::as_str).collect(),
        None => table.schema().fields().iter().map(|f| f.name.as_str()).collect(),
    };
    for cname in columns {
        match table.column_by_name(cname) {
            Ok(col) => match verify_col(cname, col.as_ref()) {
                Ok(n) => checks += n,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            },
            Err(e) => {
                outcome = Err(e.into());
                break;
            }
        }
    }
    // Checks performed up to (and including) a failure are still checks;
    // the service/cluster ledgers read this to reconcile their counters.
    ctx.note_integrity_checks(checks);
    outcome
}

/// Span `(op, label)` for a plan node. Labels are short human sketches —
/// table names, predicate/key summaries — not full expression dumps. An
/// aggregate's span covers the filters folded into it too.
fn span_head(plan: &LogicalPlan) -> (&'static str, String) {
    match plan {
        LogicalPlan::Scan { table, .. } => ("scan", table.clone()),
        LogicalPlan::Filter { predicate, .. } => ("filter", expr_sketch(predicate)),
        LogicalPlan::Project { exprs, .. } => ("project", format!("{} exprs", exprs.len())),
        LogicalPlan::Join { on, join_type, .. } => {
            let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
            ("join", format!("{join_type:?} {}", keys.join(",")))
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            ("aggregate", format!("{} keys, {} aggs", group_by.len(), aggs.len()))
        }
        LogicalPlan::Sort { keys, .. } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|k| format!("{}{}", k.column, if k.descending { " desc" } else { "" }))
                .collect();
            ("sort", ks.join(","))
        }
        LogicalPlan::Limit { n, .. } => ("limit", n.to_string()),
    }
}

/// A short (≤ 48 char) debug sketch of an expression for span labels.
pub(crate) fn expr_sketch(e: &Expr) -> String {
    let full = format!("{e:?}");
    if full.len() <= 48 {
        full
    } else {
        let mut cut = 45;
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &full[..cut])
    }
}

/// Rejects row counts the engine's `u32` selection vectors cannot index.
/// `u32::MAX` itself is excluded — it is the join's "no row" sentinel.
///
/// Every operator that builds a `u32` row-index vector (`filter`, `join`,
/// `aggregate`, `sort`, `limit`) guards its input through this before
/// casting; `Relation::take` can then assume in-range indices.
pub(crate) fn ensure_u32_indexable(n: usize, op: &str) -> Result<()> {
    if n >= u32::MAX as usize {
        return Err(EngineError::Unsupported(format!(
            "{op} over {n} rows exceeds the engine's u32 row-index limit"
        )));
    }
    Ok(())
}

/// Extracts a join key column as `i64` values — the slot encoding the
/// expression programs emit, which is what group keys are read in.
///
/// Strings use their dictionary codes (valid within one column; joins on
/// strings are rejected at a higher level), decimals their mantissas, floats
/// their IEEE bits — all injective encodings.
pub(crate) fn key_values(col: &wimpi_storage::Column) -> Result<Vec<i64>> {
    use wimpi_storage::Column;
    Ok(match col {
        Column::Int64(v) => v.clone(),
        Column::Int32(v) => v.iter().map(|&x| x as i64).collect(),
        Column::Date(v) => v.iter().map(|&x| x as i64).collect(),
        Column::Decimal(v, _) => v.clone(),
        Column::Bool(v) => v.iter().map(|&b| b as i64).collect(),
        Column::Str(d) => d.codes().iter().map(|&c| c as i64).collect(),
        Column::Float64(v) => v.iter().map(|&f| f.to_bits() as i64).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_guard_rejects_only_unindexable_sizes() {
        assert!(ensure_u32_indexable(0, "test").is_ok());
        assert!(ensure_u32_indexable(u32::MAX as usize - 1, "test").is_ok());
        let err = ensure_u32_indexable(u32::MAX as usize, "sort").unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
        assert!(err.to_string().contains("sort"));
        assert!(ensure_u32_indexable(u32::MAX as usize + 1, "test").is_err());
    }

    #[test]
    fn expr_sketch_truncates_long_expressions() {
        use crate::expr::{col, lit};
        let short = expr_sketch(&col("k"));
        assert!(short.len() <= 48);
        let mut e = col("a").gt(lit(0i64));
        for i in 0..10 {
            e = e.and(col("abcdefgh").lt(lit(i)));
        }
        let sketch = expr_sketch(&e);
        assert!(sketch.len() <= 48, "{}: {}", sketch.len(), sketch);
        assert!(sketch.ends_with("..."));
    }
}
