//! # wimpi-engine
//!
//! A from-scratch, in-memory, columnar OLAP engine in the MonetDB
//! column-at-a-time style — the substrate standing in for the DBMS the paper
//! benchmarks (DESIGN.md §2). Queries are built with
//! [`plan::PlanBuilder`] and optimized by [`optimizer::optimize`].
//!
//! [`exec::execute`] interprets an optimized plan under an [`EngineConfig`],
//! a [`QueryContext`] (budget, cancellation, spill disk) and a [`Tracer`],
//! returning the result and the [`stats::WorkProfile`] that `wimpi-hwsim`
//! prices under each hardware model. [`execute_query_with`] puts the optimizer
//! in front and [`execute_query`] is its defaults shorthand; tracing and
//! governance are arguments of that one call, never a separate entry point.

pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod governor;
pub mod like;
pub mod optimizer;
pub mod plan;
pub mod relation;
pub mod service;
pub mod stats;

pub use error::{EngineError, Result};
pub use exec::parallel::{EngineConfig, Executor};
pub use exec::{execute, execute_priced};
pub use expr::{col, date, dec2, lit, Expr};
pub use governor::{BudgetParseError, CancelToken, MemoryReservation, QueryContext, Reservation};
pub use plan::{AggExpr, AggFunc, JoinType, LogicalPlan, PlanBuilder, SortKey};
pub use relation::Relation;
pub use service::{backoff_s, QuerySpec, Service, ServiceConfig, ServiceError, Ticket};
pub use stats::{Prices, WorkProfile};
pub use wimpi_obs::{Span, Tracer};

use wimpi_storage::Catalog;

/// Optimizes and executes a plan with every default: serial, ungoverned,
/// untraced — [`execute_query_with`] under [`EngineConfig::serial`].
pub fn execute_query(plan: &LogicalPlan, catalog: &Catalog) -> Result<(Relation, WorkProfile)> {
    execute_query_with(
        plan,
        catalog,
        &EngineConfig::serial(),
        &QueryContext::default(),
        Tracer::off(),
    )
}

/// Optimizes and executes a plan — [`exec::execute`] with the optimizer in
/// front; see there for what `cfg`, `ctx` and `tracer` select.
pub fn execute_query_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
    tracer: &Tracer,
) -> Result<(Relation, WorkProfile)> {
    let optimized = optimizer::optimize(plan.clone(), catalog)?;
    exec::execute(&optimized, catalog, cfg, ctx, tracer)
}
