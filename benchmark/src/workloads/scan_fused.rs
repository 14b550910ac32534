//! `scan_fused_t2`: the six scan-dominated queries on the date-clustered,
//! sealed catalog with the fused executor, zone-map pruning and two threads.
//! The bytecode VM, the fused pipeline, the zone maps and the morsel pool do
//! nearly all the work and joins almost none: the same scan, filter and eval
//! layers as `tpch22_serial`, used the other way.

use std::sync::Arc;

use wimpi_engine::{EngineConfig, Executor};
use wimpi_queries::{query, QueryPlan};
use wimpi_storage::Catalog;
use wimpi_tpch::clustered_catalog;

use crate::harness::{engine_pass, Cell, Params, Pass, Size, Workload};
use crate::layers::Parts;
use crate::trace::Recorder;
use crate::verify::{fingerprint, Golden};
use crate::workloads::tpch22::Tpch22;

/// The queries whose time is almost all scan, filter and expression work.
pub const QUERIES: [usize; 6] = [1, 6, 12, 14, 15, 19];

/// Fused pipelines, pruned scans, and both of this machine's cores.
pub fn config(threads: usize) -> EngineConfig {
    EngineConfig::with_threads(threads).with_executor(Executor::Fused).with_prune_scans(true)
}

pub struct ScanFused {
    catalog: Arc<Catalog>,
    queries: Vec<QueryPlan>,
    /// Smoke data is not the golden data, so the cross-check has nothing to
    /// compare with.
    golden_applies: bool,
}

impl ScanFused {
    pub fn over(catalog: Arc<Catalog>, golden_applies: bool) -> Self {
        ScanFused { catalog, queries: QUERIES.map(query).into(), golden_applies }
    }
}

impl Workload for ScanFused {
    const NAME: &'static str = "scan_fused_t2";
    const GOLDEN: &'static str = include_str!("../../golden/scan_fused_t2.tsv");

    fn size(p: &Params) -> Size {
        // A pass is about 0.06 s at SF 0.2. The first passes in a process
        // run up to twice as slow as the rest, hence the long warm-up.
        Size::scaled(p, 0.2, 10, 240, 30)
    }

    fn build(size: &Size) -> Self {
        let catalog = clustered_catalog(size.sf).expect("clustered TPC-H generates");
        ScanFused::over(Arc::new(catalog), size.golden)
    }

    fn from_parts(parts: &Parts, size: &Size) -> Self {
        ScanFused::over(Arc::clone(&parts.clustered), size.golden)
    }

    fn classes(&self) -> Vec<String> {
        QUERIES.iter().map(|n| format!("q{n:02}")).collect()
    }

    fn pass(&self, index: usize, seed: u64, rec: &Recorder) -> Pass {
        let cells: Vec<Cell> =
            self.queries.iter().map(|query| Cell { query, budget: None }).collect();
        engine_pass(index, seed, rec, &self.classes(), &cells, &self.catalog, &config(2))
    }

    /// Two executors and two layouts of one data set must agree: every
    /// answer here equals the same query's committed `tpch22_serial` answer.
    fn cross_check(&self, passes: &mut [Pass]) -> Vec<String> {
        if !self.golden_applies {
            return Vec::new();
        }
        let serial = Golden::parse(Tpch22::GOLDEN);
        let mut problems = Vec::new();
        for op in passes.iter_mut().flat_map(|p| p.ops.iter_mut()) {
            let Some(answer) = &op.answer else { continue };
            if serial.get(&op.key) != Some((answer.num_rows(), fingerprint(answer))) {
                op.failed = true;
                problems.push(format!("{}: differs from the tpch22_serial answer", op.key));
            }
        }
        problems.dedup();
        problems
    }
}
