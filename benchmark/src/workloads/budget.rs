//! `budget_ladder`: the six join- and aggregate-heavy queries under three
//! per-query memory budgets with a fault-free spill disk attached. The same
//! join, aggregate and sort operators as `tpch22_serial`, but in Grace and
//! spill mode: a gain for the in-memory path that costs the degraded path
//! shows here. This is the paper's 1 GB-node memory cliff (§III-C2).

use std::sync::Arc;

use wimpi_engine::{EngineConfig, QueryContext};
use wimpi_queries::{query, run_governed, QueryPlan};
use wimpi_storage::Catalog;
use wimpi_tpch::Generator;

use crate::harness::{engine_pass, Cell, Params, Pass, Size, Workload};
use crate::layers::Parts;
use crate::trace::Recorder;

pub const QUERIES: [usize; 6] = [3, 5, 9, 10, 13, 18];

/// In memory, Grace-partitioned, spilling. ISSUE 14 put the ladder at 4 MiB,
/// 256 KiB and 16 KiB on SF 0.2; the run-time cap moved the data to SF 0.08,
/// and the two lower rungs moved with it so that the same cells still
/// degrade the same way (at SF 0.08, Q18 spills 11 MB at 8 KiB but falls
/// back to a very slow Grace plan with no spill at 16 KiB).
pub const BUDGETS: [(&str, u64); 3] = [("b4m", 4 << 20), ("b128k", 128 << 10), ("b8k", 8 << 10)];

pub struct BudgetLadder {
    catalog: Arc<Catalog>,
    queries: Vec<QueryPlan>,
}

impl BudgetLadder {
    pub fn over(catalog: Arc<Catalog>) -> Self {
        BudgetLadder { catalog, queries: QUERIES.map(query).into() }
    }
}

impl Workload for BudgetLadder {
    const NAME: &'static str = "budget_ladder";
    const GOLDEN: &'static str = include_str!("../../golden/budget_ladder.tsv");

    fn size(p: &Params) -> Size {
        // A pass is about 1.5 s at SF 0.08; nine passes keep six, which time
        // 108 ops.
        Size::scaled(p, 0.08, 1, 9, 9)
    }

    fn build(size: &Size) -> Self {
        let catalog = Generator::new(size.sf).generate_catalog().expect("TPC-H generates");
        BudgetLadder::over(Arc::new(catalog))
    }

    const BUDGETED: bool = true;

    fn from_parts(parts: &Parts, _size: &Size) -> Self {
        BudgetLadder::over(Arc::clone(&parts.raw))
    }

    fn classes(&self) -> Vec<String> {
        QUERIES
            .iter()
            .flat_map(|n| BUDGETS.iter().map(move |(label, _)| format!("q{n:02}.{label}")))
            .collect()
    }

    fn pass(&self, index: usize, seed: u64, rec: &Recorder) -> Pass {
        let cells: Vec<Cell> = self
            .queries
            .iter()
            .flat_map(|query| BUDGETS.iter().map(move |&(_, b)| Cell { query, budget: Some(b) }))
            .collect();
        engine_pass(
            index,
            seed,
            rec,
            &self.classes(),
            &cells,
            &self.catalog,
            &EngineConfig::serial(),
        )
    }

    /// Degraded answers must be bit-exact: every cell equals the same query
    /// run with no budget at all.
    fn cross_check(&self, passes: &mut [Pass]) -> Vec<String> {
        let classes = self.classes();
        let mut problems = Vec::new();
        for (qi, q) in self.queries.iter().enumerate() {
            let (unconstrained, _) =
                run_governed(q, &self.catalog, &EngineConfig::serial(), &QueryContext::default())
                    .expect("unconstrained run succeeds");
            for op in passes.iter_mut().flat_map(|p| p.ops.iter_mut()) {
                if op.class / BUDGETS.len() == qi && op.answer.as_ref() != Some(&unconstrained) {
                    op.failed = true;
                    problems
                        .push(format!("{}: differs from the unconstrained run", classes[op.class]));
                }
            }
        }
        problems.dedup();
        problems
    }
}
