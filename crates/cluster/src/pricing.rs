//! What a node's work costs on the simulated clock: governed executions
//! priced by the Pi hardware model and the memory model, scanned bytes,
//! checksum verification passes, and partition regeneration.

use wimpi_engine::{
    optimizer, CancelToken, EngineConfig, EngineError, LogicalPlan, QueryContext, Relation, Tracer,
    WorkProfile,
};
use wimpi_hwsim::predict_all_cores;
use wimpi_storage::Catalog;

use crate::faults::RecoveryReport;
use crate::memory::MeasuredPeak;
use crate::{Result, WimpiCluster};

/// One governed, memory-model-priced execution of a plan on one catalog.
pub(crate) enum Priced {
    /// The run fits (possibly only after the reduced-budget retry): result,
    /// scaled profile, simulated seconds (hardware model plus thrash
    /// penalty), and the cancellation token of the governed run.
    Fit { rel: Relation, prof: WorkProfile, exec_s: f64, cancel: CancelToken },
    /// Even the budget-governed retry could not fit: deterministic OOM.
    Oom { needed: u64 },
}

impl WimpiCluster {
    /// Executes `plan` on `cat` under the resource governor and prices the
    /// run with the memory model, preferring the governor's *measured*
    /// peaks (scaled by `scale`) over the model's `hash_bytes` estimate.
    ///
    /// When the model still predicts a hard OOM, the node gets exactly one
    /// more attempt under a reduced budget — the modelled available memory
    /// mapped back to host scale — so joins and aggregates degrade to
    /// Grace-partitioned builds that shrink the real reservation peak. Only
    /// when even that budgeted run cannot fit (`ResourceExhausted`, or a
    /// measured peak the partitioning cannot reduce) is the OOM final. A run
    /// that fit only under the reduced budget is counted in `report`.
    pub(crate) fn priced_execution(
        &self,
        cfg: &EngineConfig,
        plan: &LogicalPlan,
        cat: &Catalog,
        base: u64,
        scale: f64,
        report: &mut RecoveryReport,
    ) -> Result<Priced> {
        let mut needed = 0;
        for budgeted in [false, true] {
            let ctx = if budgeted {
                let avail = self.config.memory.available() as f64;
                QueryContext::with_budget(((avail / scale) as u64).max(1))
            } else {
                QueryContext::new()
            };
            let run = wimpi_engine::execute_query_with(plan, cat, cfg, &ctx, Tracer::off());
            let checks = ctx.integrity_checks();
            if checks > 0 {
                self.metrics.inc("integrity_checks_total", checks);
            }
            let (rel, prof) = match run {
                Err(EngineError::ResourceExhausted { .. }) if budgeted => break,
                run => run?,
            };
            let peak = scaled_peak(&ctx, prof.peak_bytes, scale);
            let prof = prof.scale(scale);
            match self.config.memory.evaluate_measured(base, &prof, peak) {
                Ok(penalty_s) => {
                    if budgeted {
                        self.metrics.inc("cluster_degraded_budget_runs_total", 1);
                        report.budget_degraded += 1;
                    }
                    let exec_s = predict_all_cores(&self.pi, &prof).total_s() + penalty_s;
                    return Ok(Priced::Fit { rel, prof, exec_s, cancel: ctx.cancel });
                }
                Err(short) => needed = short,
            }
        }
        Ok(Priced::Oom { needed })
    }

    /// [`Self::priced_execution`] of a node's plan, serial and at the
    /// cluster's model scale, over the bytes it scans on `cat`.
    pub(crate) fn priced_node_run(
        &self,
        plan: &LogicalPlan,
        cat: &Catalog,
        report: &mut RecoveryReport,
    ) -> Result<Priced> {
        let scale = self.config.model_scale;
        let base = (scan_bytes(plan, cat)? as f64 * scale) as u64;
        self.priced_execution(&EngineConfig::serial(), plan, cat, base, scale, report)
    }

    /// Simulated seconds for one verified pass over `scanned_bytes`: the
    /// CRC32C kernel is ~one table-lookup op per byte over a sequential
    /// read of the scanned columns.
    pub(crate) fn verification_seconds(&self, scanned_bytes: u64) -> f64 {
        let work = WorkProfile {
            cpu_ops: scanned_bytes,
            seq_read_bytes: scanned_bytes,
            ..WorkProfile::default()
        };
        predict_all_cores(&self.pi, &work).total_s()
    }

    /// Simulated seconds for a survivor to regenerate a lineitem chunk:
    /// generator CPU/stream work priced by the Pi hardware model, plus
    /// persisting the regenerated columns through the microSD card (MonetDB
    /// base columns are mmap-backed files).
    pub(crate) fn regeneration_seconds(&self, rows: u64, heap_bytes: u64) -> f64 {
        let scaled_rows = (rows as f64 * self.config.model_scale) as u64;
        let scaled_heap = (heap_bytes as f64 * self.config.model_scale) as u64;
        let work = WorkProfile {
            // ~64 data-dependent ops per generated row (RNG draws, text
            // synthesis, column appends) — the generator is CPU-heavy.
            cpu_ops: scaled_rows * 64,
            seq_write_bytes: scaled_heap,
            rows_in: scaled_rows,
            ..WorkProfile::default()
        };
        predict_all_cores(&self.pi, &work).total_s()
            + self.config.memory.reload_seconds(scaled_heap)
    }
}

/// The run's peaks, scaled to the modelled SF: the governor's scratch peak,
/// and the run's `peak_bytes` — the paper list's, the one the cluster prices,
/// which also counts the survivors' gathers an aggregate fold stands in for
/// and no run makes. `None` when the run reserved and held nothing (e.g. a
/// bare scan) — the model estimate stands in then.
fn scaled_peak(ctx: &QueryContext, peak_bytes: u64, scale: f64) -> Option<MeasuredPeak> {
    (peak_bytes > 0).then(|| MeasuredPeak {
        hard_bytes: (ctx.hard_high_water() as f64 * scale) as u64,
        transient_bytes: (peak_bytes as f64 * scale) as u64,
    })
}

/// Bytes of base-table columns a plan actually scans on a catalog —
/// projection-pruned, so Q1 charges only the seven lineitem columns it
/// touches. Strings count at their *raw* width (the modelled MonetDB keeps
/// text memory-mapped uncompressed), which is what makes comment-heavy Q13
/// memory-hungry on a 1 GB node.
pub fn scan_bytes(plan: &LogicalPlan, catalog: &Catalog) -> Result<u64> {
    let optimized = optimizer::optimize(plan.clone(), catalog)?;
    fn walk(p: &LogicalPlan, cat: &Catalog, sum: &mut u64) -> Result<()> {
        if let LogicalPlan::Scan { table, projection } = p {
            let t = cat.table(table)?;
            match projection {
                Some(cols) => {
                    for c in cols {
                        *sum += t.column_by_name(c)?.resident_bytes() as u64;
                    }
                }
                None => {
                    for c in 0..t.num_columns() {
                        *sum += t.column(c).resident_bytes() as u64;
                    }
                }
            }
        }
        for child in p.inputs() {
            walk(child, cat, sum)?;
        }
        Ok(())
    }
    let mut sum = 0;
    walk(&optimized, catalog, &mut sum)?;
    Ok(sum)
}
