//! # wimpi-strategies
//!
//! Hand-coded single-threaded implementations of the eight choke-point
//! queries under the three execution paradigms the paper's §II-D3 evaluates
//! (from Crotty et al., "Getting Swole", ICDE 2020), plus the engine's own
//! compiled-fused paradigm:
//!
//! * **data-centric** — tuple-at-a-time fused pipelines; minimum bytes,
//!   maximum branches.
//! * **hybrid** — relaxed-operator-fusion: cache-resident batches staged
//!   through selection vectors.
//! * **access-aware** — predicate pullups: whole-column passes into masks,
//!   branch-free accumulation; extra memory traffic for consistent access.
//! * **compiled-fused** — the hybrid kernels with the staged selection
//!   vectors kept cache-resident instead of materialized: same vectorized
//!   evaluation work, but the per-batch intermediate write traffic
//!   collapses to zero (the engine's morsel pipelines, as its fused price
//!   list charges them).
//!
//! Every (query, paradigm) pair computes an exact integer [`Digest`];
//! paradigms must agree with each other and (tested) with the engine. Each
//! run reports wall time *and* a [`WorkProfile`] so `wimpi-hwsim` can map
//! one host execution onto op-e5 / op-gold / Pi 3B+ for Figure 4.

// The kernels index several parallel arrays per loop — iterator zips would
// obscure the access patterns the paradigms are about.
#![allow(clippy::needless_range_loop)]

pub mod common;
mod q01;
mod q03;
mod q04;
mod q05;
mod q06;
mod q13;
mod q14;
mod q19;

use std::time::Instant;

use wimpi_engine::WorkProfile;
use wimpi_storage::Catalog;

/// The execution paradigms: the paper's three, plus the engine's
/// compiled-fused morsel pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// Tuple-at-a-time fused pipelines.
    DataCentric,
    /// Vectorized relaxed operator fusion.
    Hybrid,
    /// Predicate-pullup, access-pattern-first execution.
    AccessAware,
    /// Compiled bytecode pipelines fusing scan→filter→eval→aggregate per
    /// morsel: hybrid's vectorized work minus all intermediate
    /// materialization (the engine's fused price list).
    Fused,
}

impl Paradigm {
    /// All paradigms: the paper's three, worst-to-best per the source
    /// paper, then the engine's compiled-fused pipeline appended last so
    /// existing `[0..3]` indexing keeps its meaning.
    pub const ALL: [Paradigm; 4] =
        [Paradigm::DataCentric, Paradigm::Hybrid, Paradigm::AccessAware, Paradigm::Fused];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Paradigm::DataCentric => "data-centric",
            Paradigm::Hybrid => "hybrid",
            Paradigm::AccessAware => "access-aware",
            Paradigm::Fused => "compiled-fused",
        }
    }
}

/// An exact, strategy-independent result summary: cross-paradigm agreement
/// on `Digest` proves the implementations compute the same answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Result rows (groups) produced.
    pub rows: u64,
    /// Exact integer fold of the result values.
    pub checksum: i128,
}

/// One strategy execution: digest, measured host time, and modelled work.
#[derive(Debug, Clone, Copy)]
pub struct StrategyRun {
    /// Query number.
    pub query: usize,
    /// Paradigm used.
    pub paradigm: Paradigm,
    /// Result digest.
    pub digest: Digest,
    /// Host wall time, seconds.
    pub host_seconds: f64,
    /// Work counters for hardware-model pricing.
    pub work: WorkProfile,
}

/// The queries implemented (the paper's choke-point subset).
pub const STRATEGY_QUERIES: [usize; 8] = [1, 3, 4, 5, 6, 13, 14, 19];

/// Runs query `n` under `paradigm` against `catalog`, single-threaded.
///
/// Panics if `n` is not in [`STRATEGY_QUERIES`] — the paper hand-coded
/// exactly these eight.
pub fn run(n: usize, paradigm: Paradigm, catalog: &Catalog) -> StrategyRun {
    let mut work = WorkProfile::new();
    let start = Instant::now();
    let digest = {
        // Compiled-fused runs the hybrid kernels (same vectorized inner
        // loops, same answer); its pricing is fixed up after the run by
        // collapsing the staged-batch write traffic the compiled pipeline
        // never emits.
        let f = match (n, paradigm) {
            (1, Paradigm::DataCentric) => q01::data_centric,
            (1, Paradigm::Hybrid | Paradigm::Fused) => q01::hybrid,
            (1, Paradigm::AccessAware) => q01::access_aware,
            (3, Paradigm::DataCentric) => q03::data_centric,
            (3, Paradigm::Hybrid | Paradigm::Fused) => q03::hybrid,
            (3, Paradigm::AccessAware) => q03::access_aware,
            (4, Paradigm::DataCentric) => q04::data_centric,
            (4, Paradigm::Hybrid | Paradigm::Fused) => q04::hybrid,
            (4, Paradigm::AccessAware) => q04::access_aware,
            (5, Paradigm::DataCentric) => q05::data_centric,
            (5, Paradigm::Hybrid | Paradigm::Fused) => q05::hybrid,
            (5, Paradigm::AccessAware) => q05::access_aware,
            (6, Paradigm::DataCentric) => q06::data_centric,
            (6, Paradigm::Hybrid | Paradigm::Fused) => q06::hybrid,
            (6, Paradigm::AccessAware) => q06::access_aware,
            (13, Paradigm::DataCentric) => q13::data_centric,
            (13, Paradigm::Hybrid | Paradigm::Fused) => q13::hybrid,
            (13, Paradigm::AccessAware) => q13::access_aware,
            (14, Paradigm::DataCentric) => q14::data_centric,
            (14, Paradigm::Hybrid | Paradigm::Fused) => q14::hybrid,
            (14, Paradigm::AccessAware) => q14::access_aware,
            (19, Paradigm::DataCentric) => q19::data_centric,
            (19, Paradigm::Hybrid | Paradigm::Fused) => q19::hybrid,
            (19, Paradigm::AccessAware) => q19::access_aware,
            _ => panic!("strategy implementations cover queries {STRATEGY_QUERIES:?}, got {n}"),
        };
        f(catalog, &mut work)
    };
    if paradigm == Paradigm::Fused {
        common::Charge::fuse(&mut work);
    }
    StrategyRun { query: n, paradigm, digest, host_seconds: start.elapsed().as_secs_f64(), work }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_query_agrees_across_paradigms() {
        let cat = wimpi_tpch::Generator::new(0.003).generate_catalog().unwrap();
        for &q in &STRATEGY_QUERIES {
            let runs: Vec<StrategyRun> = Paradigm::ALL.iter().map(|&p| run(q, p, &cat)).collect();
            assert_eq!(runs[0].digest, runs[1].digest, "Q{q} data-centric vs hybrid");
            assert_eq!(runs[0].digest, runs[2].digest, "Q{q} data-centric vs access-aware");
            assert_eq!(runs[0].digest, runs[3].digest, "Q{q} data-centric vs compiled-fused");
            for r in &runs {
                assert!(r.work.cpu_ops > 0, "Q{q} {:?} recorded no work", r.paradigm);
            }
        }
    }

    #[test]
    fn paradigms_have_distinct_work_signatures() {
        let cat = wimpi_tpch::Generator::new(0.003).generate_catalog().unwrap();
        let dc = run(6, Paradigm::DataCentric, &cat).work;
        let aa = run(6, Paradigm::AccessAware, &cat).work;
        assert!(aa.seq_bytes() > dc.seq_bytes(), "pullup streams more bytes");
        assert!(dc.cpu_ops > aa.cpu_ops, "branchy per-row work costs more CPU units");
    }

    #[test]
    fn fused_collapses_hybrid_write_traffic() {
        let cat = wimpi_tpch::Generator::new(0.003).generate_catalog().unwrap();
        for &q in &STRATEGY_QUERIES {
            let hy = run(q, Paradigm::Hybrid, &cat);
            let fu = run(q, Paradigm::Fused, &cat);
            assert_eq!(hy.digest, fu.digest, "Q{q} fused answer must match hybrid");
            assert!(
                fu.work.cpu_ops < hy.work.cpu_ops,
                "Q{q} compiled dispatch must shed the per-batch staging cpu"
            );
            assert_eq!(fu.work.seq_read_bytes, hy.work.seq_read_bytes, "Q{q} same input stream");
            assert!(hy.work.seq_write_bytes > 0, "Q{q} hybrid stages batches");
            assert_eq!(fu.work.seq_write_bytes, 0, "Q{q} fused materializes nothing");
        }
    }

    #[test]
    #[should_panic(expected = "strategy implementations cover")]
    fn unimplemented_query_panics() {
        let cat = wimpi_tpch::Generator::new(0.001).generate_catalog().unwrap();
        run(2, Paradigm::Hybrid, &cat);
    }
}
