//! # wimpi-engine
//!
//! A from-scratch, in-memory, columnar OLAP engine in the MonetDB
//! column-at-a-time style — the substrate standing in for the DBMS the paper
//! benchmarks (DESIGN.md §2). Queries are built with
//! [`plan::PlanBuilder`], optimized by [`optimizer::optimize`], and executed
//! by [`exec::execute`], which also returns the [`stats::WorkProfile`] that
//! `wimpi-hwsim` prices under each hardware model.

pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod governor;
pub mod like;
pub mod optimizer;
pub mod params;
pub mod plan;
pub mod relation;
pub mod service;
pub mod stats;

pub use error::{EngineError, Result};
pub use exec::parallel::{EngineConfig, Executor};
pub use exec::{execute, execute_governed, execute_traced, execute_traced_governed, execute_with};
pub use expr::{col, date, dec2, lit, Expr};
pub use governor::{BudgetParseError, CancelToken, MemoryReservation, QueryContext, Reservation};
pub use params::{bind_params, bind_params_spanning, strip_params};
pub use plan::{AggExpr, AggFunc, JoinType, LogicalPlan, PlanBuilder, SortKey};
pub use relation::Relation;
pub use service::{
    backoff_s, QuerySpec, ScrubReport, Service, ServiceConfig, ServiceError, Ticket,
};
pub use stats::WorkProfile;
pub use wimpi_obs::{Span, Tracer};

use wimpi_storage::Catalog;

/// Optimizes and executes a plan — the everyday (serial) entry point.
pub fn execute_query(plan: &LogicalPlan, catalog: &Catalog) -> Result<(Relation, WorkProfile)> {
    execute_query_with(plan, catalog, &EngineConfig::serial())
}

/// Optimizes and executes a plan under an execution configuration. The
/// morsel-driven kernels keep results and work profiles bit-identical at any
/// thread count (see [`exec::parallel`]).
pub fn execute_query_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
) -> Result<(Relation, WorkProfile)> {
    let optimized = optimizer::optimize(plan.clone(), catalog)?;
    exec::execute_with(&optimized, catalog, cfg)
}

/// Optimizes and executes a plan under a resource governor: the context's
/// memory budget caps operator scratch (with deterministic Grace-partitioned
/// fallbacks before any error), and its cancel token/deadline stop the query
/// cooperatively at morsel boundaries. With `QueryContext::default()` this
/// is exactly [`execute_query_with`].
pub fn execute_query_governed(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
) -> Result<(Relation, WorkProfile)> {
    let optimized = optimizer::optimize(plan.clone(), catalog)?;
    exec::execute_governed(&optimized, catalog, cfg, ctx)
}

/// [`execute_query_governed`] with operator-level tracing enabled, returning
/// the query's span tree alongside the result; `EXPLAIN ANALYZE` uses this to
/// report measured per-operator peak bytes. Tracing adds a per-operator
/// timing wrapper but never changes results or work profiles; the root
/// span's counters equal the returned [`WorkProfile`] exactly.
pub fn execute_query_traced_governed(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
) -> Result<(Relation, WorkProfile, Span)> {
    let optimized = optimizer::optimize(plan.clone(), catalog)?;
    exec::execute_traced_governed(&optimized, catalog, cfg, ctx)
}
