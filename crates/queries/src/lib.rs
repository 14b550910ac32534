//! # wimpi-queries
//!
//! All 22 TPC-H queries expressed against the engine's plan-builder API with
//! the specification's validation substitution parameters. Correlated
//! subqueries are decorrelated into joins/aggregations the standard way;
//! scalar subqueries become [`QueryPlan::TwoPhase`] (run the inner plan,
//! extract one value, instantiate the outer plan with it).
//!
//! [`run_governed`] runs a [`QueryPlan`] under a config and a governor,
//! [`run_priced`] prices that one run in both lists, [`run_traced_governed`]
//! also returns the span tree, and [`run`] is the all-defaults shorthand. All
//! go through [`run_phases`], the one place the two-phase protocol is
//! written; the cluster coordinator shares it.
//!
//! `CHOKEPOINT_QUERIES` is the 8-query subset the paper uses for its
//! distributed (SF 10) and execution-strategy experiments: Q1, Q3, Q4, Q5,
//! Q6, Q13, Q14, Q19 (paper §II-D2, citing Boncz et al.'s choke-point
//! analysis).

mod q01_06;
mod q07_11;
mod q12_17;
mod q18_22;

use wimpi_engine::{
    execute_priced, optimizer, EngineConfig, EngineError, LogicalPlan, Prices, QueryContext,
    Relation, Result, Span, Tracer, WorkProfile,
};
use wimpi_storage::{Catalog, Value};

/// A TPC-H query, possibly needing a scalar pre-pass.
pub enum QueryPlan {
    /// One plan.
    Single(LogicalPlan),
    /// Run `first`, read `scalar_col` of row 0, feed it to `second`.
    TwoPhase {
        /// The scalar-producing inner plan.
        first: LogicalPlan,
        /// Column holding the scalar in the first result.
        scalar_col: String,
        /// Builds the outer plan from the scalar.
        second: Box<dyn Fn(Value) -> LogicalPlan + Send + Sync>,
    },
}

impl QueryPlan {
    /// Every base table the query touches (both phases).
    pub fn tables(&self) -> Vec<String> {
        match self {
            QueryPlan::Single(p) => p.tables(),
            QueryPlan::TwoPhase { first, second, .. } => {
                let mut t = first.tables();
                // Probe the builder with a placeholder to enumerate tables.
                for extra in second(Value::F64(0.0)).tables() {
                    if !t.contains(&extra) {
                        t.push(extra);
                    }
                }
                t
            }
        }
    }
}

/// The two-phase protocol, written once: run `first`, read the scalar off
/// row 0 of its result (an empty result means a neutral `0.0`), build and
/// run `second` with it, and `merge` the two outcomes. A single-phase query
/// is one call of `run_one`, which is handed each plan and whether it is a
/// two-phase query's scalar pass; `result_of` finds the relation in whatever
/// `run_one` returns.
pub fn run_phases<T, E: From<EngineError>>(
    q: &QueryPlan,
    mut run_one: impl FnMut(&LogicalPlan, bool) -> std::result::Result<T, E>,
    result_of: impl FnOnce(&T) -> &Relation,
    merge: impl FnOnce(T, T) -> T,
) -> std::result::Result<T, E> {
    match q {
        QueryPlan::Single(p) => run_one(p, false),
        QueryPlan::TwoPhase { first, scalar_col, second } => {
            let a = run_one(first, true)?;
            let r1 = result_of(&a);
            let scalar =
                if r1.num_rows() == 0 { Value::F64(0.0) } else { r1.value(0, scalar_col)? };
            let b = run_one(&second(scalar), false)?;
            Ok(merge(a, b))
        }
    }
}

/// Runs every phase of `q` on one catalog, optimized, each with its own
/// `new_tracer()`, and prices it in both lists. Each list's profiles add.
/// Single-phase queries return the engine's root span directly; two-phase
/// queries nest each phase's tree under a synthetic root whose counters are
/// the summed `cfg.executor` profile, preserving the invariant that the
/// root's totals equal that list's profile.
fn run_local(
    q: &QueryPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
    new_tracer: fn() -> Tracer,
) -> Result<(Relation, Prices, Option<Span>)> {
    let run_one = |plan: &LogicalPlan, _| {
        let tracer = new_tracer();
        let optimized = optimizer::optimize(plan.clone(), catalog)?;
        let (rel, prices) = execute_priced(&optimized, catalog, cfg, ctx, &tracer)?;
        Ok((rel, prices, tracer.take_root()))
    };
    run_phases(
        q,
        run_one,
        |(rel, ..)| rel,
        |(_, p1, s1), (r2, p2, s2)| {
            let prices = p1 + p2;
            let prof = prices.get(cfg.executor);
            let root = s1.zip(s2).map(|(mut s1, mut s2)| {
                s1.op = "phase".to_string();
                s1.label = "1 (scalar)".to_string();
                s2.op = "phase".to_string();
                s2.label = "2 (outer)".to_string();
                let mut root = Span::leaf("query", "two-phase");
                root.rows_in = prof.rows_in;
                root.rows_out = prof.rows_out;
                root.wall_ns = s1.wall_ns + s2.wall_ns;
                root.counters = prof.counter_pairs();
                root.children = vec![s1, s2];
                root
            });
            (r2, prices, root)
        },
    )
}

/// Executes a query (all phases) serially, summing work profiles.
pub fn run(q: &QueryPlan, catalog: &Catalog) -> Result<(Relation, WorkProfile)> {
    run_governed(q, catalog, &EngineConfig::serial(), &QueryContext::default())
}

/// Executes a query (all phases) under an execution configuration (results
/// are bit-identical at any thread count) and a resource governor. Both
/// phases of a two-phase query share the one context: the budget,
/// cancellation token, and deadline span the whole query, and the context's
/// high-water mark is the true measured peak. Note that the summed profile's
/// `peak_bytes` *overcounts* for two-phase queries (phase 2's ratchet starts
/// from phase 1's peak, and the phase profiles are added) — read
/// [`QueryContext::high_water`] when the exact peak matters.
pub fn run_governed(
    q: &QueryPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
) -> Result<(Relation, WorkProfile)> {
    run_priced(q, catalog, cfg, ctx).map(|(rel, prices)| (rel, prices.get(cfg.executor)))
}

/// [`run_governed`] priced in both lists: the one run's profile as MonetDB's
/// materialization and as a fused pipeline (DESIGN.md §13).
/// `cfg.executor` plays no part.
pub fn run_priced(
    q: &QueryPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
) -> Result<(Relation, Prices)> {
    run_local(q, catalog, cfg, ctx, Tracer::disabled).map(|(rel, prices, _)| (rel, prices))
}

/// [`run_governed`] with operator-level tracing, returning the span tree
/// alongside the result (the two-phase `peak_bytes` overcount applies to the
/// synthetic root's totals too, which is what keeps the trace checker's
/// additive invariant intact).
pub fn run_traced_governed(
    q: &QueryPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
) -> Result<(Relation, WorkProfile, Span)> {
    run_local(q, catalog, cfg, ctx, Tracer::enabled).map(|(rel, prices, span)| {
        let span = span.expect("an enabled tracer yields a root span");
        (rel, prices.get(cfg.executor), span)
    })
}

/// The query numbers evaluated in the paper's distributed and
/// execution-strategy experiments.
pub const CHOKEPOINT_QUERIES: [usize; 8] = [1, 3, 4, 5, 6, 13, 14, 19];

/// Builds query `n` (1–22) with its spec default parameters.
pub fn query(n: usize) -> QueryPlan {
    match n {
        1 => q01_06::q1(),
        2 => q01_06::q2(),
        3 => q01_06::q3(),
        4 => q01_06::q4(),
        5 => q01_06::q5(),
        6 => q01_06::q6(),
        7 => q07_11::q7(),
        8 => q07_11::q8(),
        9 => q07_11::q9(),
        10 => q07_11::q10(),
        11 => q07_11::q11(),
        12 => q12_17::q12(),
        13 => q12_17::q13(),
        14 => q12_17::q14(),
        15 => q12_17::q15(),
        16 => q12_17::q16(),
        17 => q12_17::q17(),
        18 => q18_22::q18(),
        19 => q18_22::q19(),
        20 => q18_22::q20(),
        21 => q18_22::q21(),
        22 => q18_22::q22(),
        _ => panic!("TPC-H has queries 1–22, got {n}"),
    }
}

pub use q01_06::{q1, q2, q3, q4, q5, q6};
pub use q07_11::{q10, q11, q7, q8, q9};
pub use q12_17::{q12, q13, q14, q15, q16, q17};
pub use q18_22::{q18, q19, q20, q21, q22};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_construct() {
        for n in 1..=22 {
            let q = query(n);
            assert!(!q.tables().is_empty(), "Q{n} references no tables");
        }
    }

    #[test]
    fn chokepoint_queries_touch_expected_tables() {
        // Q13 must NOT touch lineitem — the paper's single-node anomaly
        // depends on it.
        assert!(!query(13).tables().contains(&"lineitem".to_string()));
        for n in [1, 3, 4, 5, 6, 14, 19] {
            assert!(
                query(n).tables().contains(&"lineitem".to_string()),
                "Q{n} should touch lineitem"
            );
        }
    }

    #[test]
    #[should_panic(expected = "queries 1–22")]
    fn out_of_range_panics() {
        query(23);
    }
}
