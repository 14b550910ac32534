//! The distributed-query rewrite: the paper's driver program.
//!
//! The paper abandoned MonetDB's built-in distributed mode (it shipped large
//! intermediates to one node and "ground the entire cluster to a halt",
//! §III-C3) and instead ran the *full* query on every node's partition,
//! aggregating partial results on the driver. This module reproduces that
//! rewrite generically: the plan's top aggregate is decomposed into
//! mergeable partials (avg → sum+count), every node runs the plan up to and
//! including the partial aggregate, and the driver re-aggregates, finalizes,
//! and applies the trailing sort/limit/having.
//!
//! [`Strategy::ShipRows`] is the ablation baseline reproducing the MonetDB
//! anecdote: nodes ship pre-aggregation rows and the driver does all the
//! aggregation.

use wimpi_engine::expr::{col, Expr};
use wimpi_engine::plan::{AggExpr, AggFunc, LogicalPlan, PlanBuilder};
use wimpi_engine::{EngineError, Result};

/// Name of the concatenated-partials table the merge plan scans.
pub const PARTIALS_TABLE: &str = "__partials";

/// How partial results travel to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Push the (decomposed) aggregate down to every node; ship tiny
    /// partial-aggregate tables. The paper's driver.
    PartialAggPushdown,
    /// Ship pre-aggregation rows to the driver and aggregate there — the
    /// MonetDB built-in behaviour the paper describes melting the cluster.
    ShipRows,
}

/// A distributed execution recipe.
#[derive(Debug, Clone)]
pub struct Distributed {
    /// The plan every node runs over its partition.
    pub node_plan: LogicalPlan,
    /// The driver plan over [`PARTIALS_TABLE`].
    pub merge_plan: LogicalPlan,
}

/// The one partitioned table; everything else is replicated on every node.
const PARTITIONED: &str = "lineitem";

/// True when `p` reads the partitioned table, so it runs on every node.
pub(crate) fn touches_partitioned(p: &LogicalPlan) -> bool {
    p.tables().iter().any(|t| t == PARTITIONED)
}

/// True when some aggregate in `p`'s subtree covers the partitioned scan —
/// i.e. a decomposition point exists strictly below here.
fn has_aggregate_over_partitioned(p: &LogicalPlan) -> bool {
    if let LogicalPlan::Aggregate { input, .. } = p {
        if touches_partitioned(input) {
            return true;
        }
    }
    p.inputs().iter().any(|i| has_aggregate_over_partitioned(i))
}

/// Rewrites `plan` for distributed execution, or explains why it can't be.
///
/// The decomposition point is the *lowest* aggregate covering the
/// partitioned scan: every node runs the plan up to and including that
/// aggregate (partial form) over its partition, and the driver merges the
/// partials by group key and then runs everything above the decomposition
/// point — outer aggregates (Q15's `max` over per-supplier revenue), joins
/// against replicated tables (Q15's supplier lookup), filters, projections,
/// sorts, limits — over the *complete* merged groups. Merging at the lowest
/// aggregate is what makes nesting sound: a group's partial sums add up to
/// its global sum, after which any driver-side operator sees exactly the
/// rows a single-node run would.
pub fn distribute(plan: &LogicalPlan, strategy: Strategy) -> Result<Distributed> {
    let mut node_plan = None;
    let merge_plan = rewrite(plan, strategy, &mut node_plan)?;
    let Some(node_plan) = node_plan else {
        return Err(EngineError::Unsupported(format!(
            "distributed rewrite found no `{PARTITIONED}` scan to partition \
             over tables [{}]",
            plan.tables().join(", ")
        )));
    };
    Ok(Distributed { node_plan, merge_plan })
}

/// Builds the driver-side plan for `plan`, setting `node_plan` when the
/// recursion reaches the decomposition point.
fn rewrite(
    plan: &LogicalPlan,
    strategy: Strategy,
    node_plan: &mut Option<LogicalPlan>,
) -> Result<LogicalPlan> {
    // Subtrees over replicated tables run on the driver verbatim.
    if !touches_partitioned(plan) {
        return Ok(plan.clone());
    }
    Ok(match plan {
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            if has_aggregate_over_partitioned(input) {
                // A lower aggregate decomposes; this one runs on the driver
                // over complete merged groups.
                LogicalPlan::Aggregate {
                    input: Box::new(rewrite(input, strategy, node_plan)?),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                }
            } else {
                let (node, merge_core) = decompose(input, group_by, aggs, strategy)?;
                *node_plan = Some(node);
                merge_core
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(rewrite(input, strategy, node_plan)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(rewrite(input, strategy, node_plan)?),
            exprs: exprs.clone(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(input, strategy, node_plan)?),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(rewrite(input, strategy, node_plan)?), n: *n }
        }
        LogicalPlan::Join { left, right, on, join_type } => {
            if touches_partitioned(left) && touches_partitioned(right) {
                return Err(EngineError::Unsupported(format!(
                    "both sides of a join touch the partitioned `{PARTITIONED}` table; \
                     the partial-merge rewrite cannot recover cross-partition pairs"
                )));
            }
            let (l, r) = if touches_partitioned(left) {
                (rewrite(left, strategy, node_plan)?, (**right).clone())
            } else {
                ((**left).clone(), rewrite(right, strategy, node_plan)?)
            };
            LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                on: on.clone(),
                join_type: *join_type,
            }
        }
        LogicalPlan::Scan { .. } => {
            return Err(EngineError::Unsupported(format!(
                "distributed rewrite needs an aggregate over the partitioned \
                 `{PARTITIONED}` scan; found a bare partitioned scan \
                 over tables [{}]",
                plan.tables().join(", ")
            )))
        }
    })
}

/// Decomposes the aggregate at the decomposition point into per-node
/// partials and the driver merge over [`PARTIALS_TABLE`].
fn decompose(
    input: &LogicalPlan,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    strategy: Strategy,
) -> Result<(LogicalPlan, LogicalPlan)> {
    for a in aggs {
        if a.func == AggFunc::CountDistinct {
            return Err(EngineError::Unsupported(
                "count(distinct) cannot be merged from partials".to_string(),
            ));
        }
    }

    let (node_plan, merge_core) = match strategy {
        Strategy::PartialAggPushdown => {
            // Decompose aggregates into mergeable partials.
            let mut partial_aggs = Vec::new();
            let mut merge_aggs = Vec::new();
            let mut finalize: Vec<(Expr, String)> =
                group_by.iter().map(|(_, n)| (col(n.clone()), n.clone())).collect();
            for a in aggs {
                match a.func {
                    AggFunc::Sum => {
                        partial_aggs.push(a.clone());
                        merge_aggs.push(AggExpr::sum(col(&a.name), &a.name));
                        finalize.push((col(&a.name), a.name.clone()));
                    }
                    AggFunc::CountStar | AggFunc::CountIf => {
                        partial_aggs.push(a.clone());
                        merge_aggs.push(AggExpr::sum(col(&a.name), &a.name));
                        finalize.push((col(&a.name), a.name.clone()));
                    }
                    AggFunc::Min => {
                        partial_aggs.push(a.clone());
                        merge_aggs.push(AggExpr::min(col(&a.name), &a.name));
                        finalize.push((col(&a.name), a.name.clone()));
                    }
                    AggFunc::Max => {
                        partial_aggs.push(a.clone());
                        merge_aggs.push(AggExpr::max(col(&a.name), &a.name));
                        finalize.push((col(&a.name), a.name.clone()));
                    }
                    AggFunc::Avg => {
                        let sum_name = format!("__{}_sum", a.name);
                        let cnt_name = format!("__{}_cnt", a.name);
                        let e = a.expr.clone().expect("avg has an input");
                        partial_aggs.push(AggExpr::sum(e, &sum_name));
                        partial_aggs.push(AggExpr::count_star(&cnt_name));
                        merge_aggs.push(AggExpr::sum(col(&sum_name), &sum_name));
                        merge_aggs.push(AggExpr::sum(col(&cnt_name), &cnt_name));
                        finalize.push((col(&sum_name).div(col(&cnt_name)), a.name.clone()));
                    }
                    AggFunc::CountDistinct => unreachable!("rejected above"),
                }
            }
            let node_plan = LogicalPlan::Aggregate {
                input: Box::new(input.clone()),
                group_by: group_by.to_vec(),
                aggs: partial_aggs,
            };
            let merge = PlanBuilder::scan(PARTIALS_TABLE)
                .aggregate(
                    group_by.iter().map(|(_, n)| (col(n.clone()), n.as_str())).collect(),
                    merge_aggs,
                )
                .project(finalize.iter().map(|(e, n)| (e.clone(), n.as_str())).collect())
                .build();
            (node_plan, merge)
        }
        Strategy::ShipRows => {
            // Nodes ship raw pre-aggregation rows; driver aggregates.
            let node_plan = input.clone();
            let merge = LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Scan {
                    table: PARTIALS_TABLE.to_string(),
                    projection: None,
                }),
                group_by: group_by.to_vec(),
                aggs: aggs.to_vec(),
            };
            (node_plan, merge)
        }
    };
    Ok((node_plan, merge_core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimpi_engine::expr::lit;
    use wimpi_engine::plan::SortKey;

    fn sample_plan() -> LogicalPlan {
        PlanBuilder::scan("lineitem")
            .filter(col("l_quantity").lt(lit(24i64)))
            .aggregate(
                vec![(col("l_returnflag"), "flag")],
                vec![
                    AggExpr::sum(col("l_extendedprice"), "s"),
                    AggExpr::avg(col("l_discount"), "a"),
                    AggExpr::count_star("n"),
                ],
            )
            .sort(vec![SortKey::asc("flag")])
            .limit(5)
            .build()
    }

    #[test]
    fn pushdown_decomposes_avg() {
        let d = distribute(&sample_plan(), Strategy::PartialAggPushdown).unwrap();
        let node = d.node_plan.explain();
        assert!(node.contains("__a_sum"), "avg must decompose into sum:\n{node}");
        assert!(node.contains("__a_cnt"), "avg must decompose into count:\n{node}");
        let merge = d.merge_plan.explain();
        assert!(merge.contains("Scan __partials"));
        assert!(merge.contains("Limit 5"), "trailing limit survives:\n{merge}");
        assert!(merge.contains("Sort flag"), "trailing sort survives:\n{merge}");
    }

    #[test]
    fn ship_rows_keeps_aggregate_on_driver() {
        let d = distribute(&sample_plan(), Strategy::ShipRows).unwrap();
        assert!(!d.node_plan.explain().contains("Aggregate"), "ship-rows nodes must not aggregate");
        assert!(d.merge_plan.explain().contains("Aggregate"));
    }

    #[test]
    fn rejects_plans_without_top_aggregate() {
        let p = PlanBuilder::scan("lineitem").filter(col("l_quantity").lt(lit(1i64))).build();
        assert!(matches!(
            distribute(&p, Strategy::PartialAggPushdown),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_count_distinct() {
        let p = PlanBuilder::scan("lineitem")
            .aggregate(vec![], vec![AggExpr::count_distinct(col("l_suppkey"), "d")])
            .build();
        assert!(distribute(&p, Strategy::PartialAggPushdown).is_err());
    }
}
