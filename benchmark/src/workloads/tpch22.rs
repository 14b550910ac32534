//! `tpch22_serial`: all 22 TPC-H queries on the raw, key-ordered catalog with
//! `EngineConfig::serial()` — exactly what `wimpi_queries::run` gives a user
//! (materializing executor, one thread, no pruning). Joins, aggregates and
//! sorts dominate a pass, and each query's cost is per row.

use std::sync::Arc;

use wimpi_engine::EngineConfig;
use wimpi_queries::{query, QueryPlan};
use wimpi_storage::Catalog;
use wimpi_tpch::Generator;

use crate::harness::{engine_pass, Cell, Params, Pass, Size, Workload};
use crate::layers::Parts;
use crate::trace::Recorder;

pub struct Tpch22 {
    catalog: Arc<Catalog>,
    queries: Vec<QueryPlan>,
}

impl Tpch22 {
    pub fn over(catalog: Arc<Catalog>) -> Self {
        Tpch22 { catalog, queries: (1..=22).map(query).collect() }
    }
}

impl Workload for Tpch22 {
    const NAME: &'static str = "tpch22_serial";
    const GOLDEN: &'static str = include_str!("../../golden/tpch22_serial.tsv");

    fn size(p: &Params) -> Size {
        // A pass is about 1.6 s at SF 0.2, and the first three in a process
        // run up to 40 % slower than the rest. Eight passes keep six, which
        // time 132 ops.
        Size::scaled(p, 0.2, 3, 9, 8)
    }

    fn build(size: &Size) -> Self {
        let catalog = Generator::new(size.sf).generate_catalog().expect("TPC-H generates");
        Tpch22::over(Arc::new(catalog))
    }

    fn from_parts(parts: &Parts, _size: &Size) -> Self {
        Tpch22::over(Arc::clone(&parts.raw))
    }

    fn classes(&self) -> Vec<String> {
        (1..=22).map(|n| format!("q{n:02}")).collect()
    }

    fn pass(&self, index: usize, seed: u64, rec: &Recorder) -> Pass {
        let cells: Vec<Cell> =
            self.queries.iter().map(|query| Cell { query, budget: None }).collect();
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

    fn cross_check(&self, _passes: &mut [Pass]) -> Vec<String> {
        Vec::new()
    }
}
