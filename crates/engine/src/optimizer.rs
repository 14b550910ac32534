//! Logical optimizations: conjunct pushdown and projection pruning.
//!
//! Both rewrites matter enormously to a fully materializing engine: pushing
//! predicates below joins shrinks every later gather, and pruning scan
//! projections keeps filters from materializing untouched columns. Stacked
//! filters merge into one, so the conjuncts run as one candidate-list loop.

use std::collections::BTreeSet;

use crate::error::Result;
use crate::expr::{BinOp, Expr};
use crate::plan::{JoinType, LogicalPlan};
use wimpi_storage::Catalog;

/// Optimizes a plan: predicate pushdown, then projection pruning.
pub fn optimize(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    let plan = pushdown(plan, catalog)?;
    prune(plan, None, catalog)
}

/// The output column names of a plan.
pub fn output_columns(plan: &LogicalPlan, catalog: &Catalog) -> Result<BTreeSet<String>> {
    Ok(match plan {
        LogicalPlan::Scan { table, projection } => match projection {
            Some(p) => p.iter().cloned().collect(),
            None => {
                catalog.table(table)?.schema().fields().iter().map(|f| f.name.clone()).collect()
            }
        },
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => output_columns(input, catalog)?,
        LogicalPlan::Project { exprs, .. } => exprs.iter().map(|(_, n)| n.clone()).collect(),
        LogicalPlan::Join { left, right, join_type, .. } => {
            let mut cols = output_columns(left, catalog)?;
            match join_type {
                JoinType::Semi | JoinType::Anti => {}
                JoinType::Inner => {
                    cols.extend(output_columns(right, catalog)?);
                }
                JoinType::LeftOuter => {
                    cols.extend(output_columns(right, catalog)?);
                    cols.insert(crate::exec::join::MATCHED_COL.to_string());
                }
            }
            cols
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => group_by
            .iter()
            .map(|(_, n)| n.clone())
            .chain(aggs.iter().map(|a| a.name.clone()))
            .collect(),
    })
}

/// Splits an AND tree into conjuncts.
pub fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Bin { op: BinOp::And, left, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Rejoins conjuncts with AND.
fn conjoin(mut conjs: Vec<Expr>) -> Option<Expr> {
    let first = if conjs.is_empty() { return None } else { conjs.remove(0) };
    Some(conjs.into_iter().fold(first, |acc, c| acc.and(c)))
}

fn pushdown(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut conjs = Vec::new();
            split_conjuncts(predicate, &mut conjs);
            let input = pushdown(*input, catalog)?;
            push_conjuncts(input, conjs, catalog)
        }
        LogicalPlan::Project { input, exprs } => {
            Ok(LogicalPlan::Project { input: Box::new(pushdown(*input, catalog)?), exprs })
        }
        LogicalPlan::Join { left, right, on, join_type } => Ok(LogicalPlan::Join {
            left: Box::new(pushdown(*left, catalog)?),
            right: Box::new(pushdown(*right, catalog)?),
            on,
            join_type,
        }),
        LogicalPlan::Aggregate { input, group_by, aggs } => Ok(LogicalPlan::Aggregate {
            input: Box::new(pushdown(*input, catalog)?),
            group_by,
            aggs,
        }),
        LogicalPlan::Sort { input, keys } => {
            Ok(LogicalPlan::Sort { input: Box::new(pushdown(*input, catalog)?), keys })
        }
        LogicalPlan::Limit { input, n } => {
            Ok(LogicalPlan::Limit { input: Box::new(pushdown(*input, catalog)?), n })
        }
        scan @ LogicalPlan::Scan { .. } => Ok(scan),
    }
}

/// Pushes filter conjuncts as deep as their column references allow.
fn push_conjuncts(plan: LogicalPlan, conjs: Vec<Expr>, catalog: &Catalog) -> Result<LogicalPlan> {
    if conjs.is_empty() {
        return Ok(plan);
    }
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            // Merge with the lower filter and keep pushing.
            let mut all = conjs;
            split_conjuncts(predicate, &mut all);
            push_conjuncts(*input, all, catalog)
        }
        LogicalPlan::Join { left, right, on, join_type }
            if matches!(join_type, JoinType::Inner | JoinType::Semi | JoinType::Anti) =>
        {
            let lcols = output_columns(&left, catalog)?;
            let rcols = output_columns(&right, catalog)?;
            let (mut lpush, mut rpush, mut keep) = (Vec::new(), Vec::new(), Vec::new());
            for c in conjs {
                let used = c.column_set();
                if used.is_subset(&lcols) {
                    lpush.push(c);
                } else if used.is_subset(&rcols) && join_type == JoinType::Inner {
                    rpush.push(c);
                } else {
                    keep.push(c);
                }
            }
            let left = push_conjuncts(*left, lpush, catalog)?;
            let right = push_conjuncts(*right, rpush, catalog)?;
            let join =
                LogicalPlan::Join { left: Box::new(left), right: Box::new(right), on, join_type };
            Ok(wrap_filter(join, keep))
        }
        other => Ok(wrap_filter(other, conjs)),
    }
}

fn wrap_filter(plan: LogicalPlan, conjs: Vec<Expr>) -> LogicalPlan {
    match conjoin(conjs) {
        Some(pred) => LogicalPlan::Filter { input: Box::new(plan), predicate: pred },
        None => plan,
    }
}

/// Projection pruning: `required = None` keeps everything at this level but
/// still prunes below concrete-requirement operators (Project/Aggregate).
fn prune(
    plan: LogicalPlan,
    required: Option<&BTreeSet<String>>,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan { table, projection } => {
            let proj = match (required, projection) {
                (Some(req), _) => {
                    let schema = catalog.table(&table)?.schema().clone();
                    let cols: Vec<String> = schema
                        .fields()
                        .iter()
                        .map(|f| f.name.clone())
                        .filter(|n| req.contains(n))
                        .collect();
                    if cols.is_empty() {
                        // A counting query may need no specific column; keep
                        // the narrowest one so row counts survive.
                        schema.fields().first().map(|f| vec![f.name.clone()])
                    } else {
                        Some(cols)
                    }
                }
                (None, p) => p,
            };
            Ok(LogicalPlan::Scan { table, projection: proj })
        }
        LogicalPlan::Filter { input, predicate } => {
            let child_req = required.map(|req| {
                let mut r = req.clone();
                predicate.columns(&mut r);
                r
            });
            Ok(LogicalPlan::Filter {
                input: Box::new(prune(*input, child_req.as_ref(), catalog)?),
                predicate,
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let kept: Vec<(Expr, String)> = match required {
                Some(req) => {
                    let kept: Vec<_> =
                        exprs.iter().filter(|(_, n)| req.contains(n)).cloned().collect();
                    if kept.is_empty() {
                        exprs.clone()
                    } else {
                        kept
                    }
                }
                None => exprs.clone(),
            };
            let mut child_req = BTreeSet::new();
            for (e, _) in &kept {
                e.columns(&mut child_req);
            }
            Ok(LogicalPlan::Project {
                input: Box::new(prune(*input, Some(&child_req), catalog)?),
                exprs: kept,
            })
        }
        LogicalPlan::Join { left, right, on, join_type } => {
            let lcols = output_columns(&left, catalog)?;
            let rcols = output_columns(&right, catalog)?;
            let (lreq, rreq) = match required {
                Some(req) => {
                    let mut l: BTreeSet<String> = req.intersection(&lcols).cloned().collect();
                    let mut r: BTreeSet<String> = req.intersection(&rcols).cloned().collect();
                    for (lk, rk) in &on {
                        l.insert(lk.clone());
                        r.insert(rk.clone());
                    }
                    (Some(l), Some(r))
                }
                None => (None, None),
            };
            Ok(LogicalPlan::Join {
                left: Box::new(prune(*left, lreq.as_ref(), catalog)?),
                right: Box::new(prune(*right, rreq.as_ref(), catalog)?),
                on,
                join_type,
            })
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let mut child_req = BTreeSet::new();
            for (e, _) in &group_by {
                e.columns(&mut child_req);
            }
            for a in &aggs {
                if let Some(e) = &a.expr {
                    e.columns(&mut child_req);
                }
            }
            // A bare count(*) needs at least one column to count rows over.
            Ok(LogicalPlan::Aggregate {
                input: Box::new(prune(*input, Some(&child_req), catalog)?),
                group_by,
                aggs,
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let child_req = required.map(|req| {
                let mut r = req.clone();
                r.extend(keys.iter().map(|k| k.column.clone()));
                r
            });
            Ok(LogicalPlan::Sort {
                input: Box::new(prune(*input, child_req.as_ref(), catalog)?),
                keys,
            })
        }
        LogicalPlan::Limit { input, n } => {
            Ok(LogicalPlan::Limit { input: Box::new(prune(*input, required, catalog)?), n })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::{AggExpr, PlanBuilder};
    use wimpi_storage::{Column, DataType, Field, Schema, StorageError, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            "t",
            Table::new(
                Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                    Field::new("c", DataType::Int64),
                ]),
                vec![
                    Column::Int64(vec![1, 2, 3]),
                    Column::Int64(vec![4, 5, 6]),
                    Column::Int64(vec![7, 8, 9]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            "u",
            Table::new(
                Schema::new(vec![
                    Field::new("x", DataType::Int64),
                    Field::new("y", DataType::Int64),
                ]),
                vec![Column::Int64(vec![1, 2]), Column::Int64(vec![10, 20])],
            )
            .unwrap(),
        );
        cat
    }

    #[test]
    fn pushes_single_side_conjuncts_below_join() {
        let cat = catalog();
        let plan = PlanBuilder::scan("t")
            .inner_join(PlanBuilder::scan("u"), vec![("a", "x")])
            .filter(col("b").gt(lit(4i64)).and(col("y").lt(lit(15i64))))
            .build();
        let opt = optimize(plan, &cat).unwrap();
        let text = opt.explain();
        // No filter remains above the join; both conjuncts landed below it.
        let join_pos = text.find("Join").unwrap();
        let filters: Vec<usize> = text.match_indices("Filter").map(|(i, _)| i).collect();
        assert_eq!(filters.len(), 2, "expected two pushed filters:\n{text}");
        assert!(filters.iter().all(|&f| f > join_pos), "filters must sit below join:\n{text}");
    }

    #[test]
    fn cross_side_predicates_stay_above() {
        let cat = catalog();
        let plan = PlanBuilder::scan("t")
            .inner_join(PlanBuilder::scan("u"), vec![("a", "x")])
            .filter(col("b").eq(col("y")))
            .build();
        let opt = optimize(plan, &cat).unwrap();
        let text = opt.explain();
        let join_pos = text.find("Join").unwrap();
        let filter_pos = text.find("Filter").unwrap();
        assert!(filter_pos < join_pos, "cross-side filter must stay above join:\n{text}");
    }

    #[test]
    fn stacked_filters_merge_into_one_outer_conjuncts_first() {
        let cat = catalog();
        let (a, b, c) = (col("a").gt(lit(1i64)), col("b").lt(lit(6i64)), col("c").gt(lit(7i64)));
        let plan =
            PlanBuilder::scan("t").filter(a.clone().and(b.clone())).filter(c.clone()).build();
        let LogicalPlan::Filter { input, predicate } = optimize(plan, &cat).unwrap() else {
            panic!("the optimized plan is not a Filter");
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }), "one Filter over the scan: {input:?}");
        let mut conjs = Vec::new();
        split_conjuncts(predicate, &mut conjs);
        assert_eq!(conjs, vec![c, a, b]);
    }

    #[test]
    fn pruning_narrows_scans() {
        let cat = catalog();
        let plan = PlanBuilder::scan("t")
            .aggregate(vec![(col("a"), "a")], vec![AggExpr::sum(col("b"), "s")])
            .build();
        let opt = optimize(plan, &cat).unwrap();
        let text = opt.explain();
        assert!(text.contains("Scan t [a, b]"), "scan should project [a, b]:\n{text}");
    }

    #[test]
    fn pruning_keeps_filter_columns() {
        let cat = catalog();
        let plan = PlanBuilder::scan("t")
            .filter(col("c").gt(lit(7i64)))
            .aggregate(vec![], vec![AggExpr::sum(col("a"), "s")])
            .build();
        let opt = optimize(plan, &cat).unwrap();
        let text = opt.explain();
        assert!(text.contains("Scan t [a, c]"), "scan needs filter + agg columns:\n{text}");
    }

    #[test]
    fn optimized_plan_runs_to_the_same_answer() {
        let cat = catalog();
        let plan = PlanBuilder::scan("t")
            .inner_join(PlanBuilder::scan("u"), vec![("a", "x")])
            .filter(col("b").gt(lit(3i64)))
            .aggregate(vec![], vec![AggExpr::sum(col("y"), "s")])
            .build();
        let opt = optimize(plan.clone(), &cat).unwrap();
        let run = |p: &LogicalPlan| {
            let (cfg, ctx) = (crate::EngineConfig::serial(), crate::QueryContext::default());
            crate::exec::execute(p, &cat, &cfg, &ctx, crate::Tracer::off()).unwrap().0
        };
        let (r1, r2) = (run(&plan), run(&opt));
        assert_eq!(
            r1.column("s").unwrap().as_i64().unwrap(),
            r2.column("s").unwrap().as_i64().unwrap()
        );
    }

    #[test]
    fn executing_an_unknown_column_errors_typed() {
        let cat = catalog();
        let plan = PlanBuilder::scan("t").filter(col("zzz").gt(lit(1i64))).build();
        let (cfg, ctx) = (crate::EngineConfig::serial(), crate::QueryContext::default());
        let err = crate::exec::execute(&plan, &cat, &cfg, &ctx, crate::Tracer::off()).unwrap_err();
        assert!(
            matches!(err, crate::EngineError::Storage(StorageError::ColumnNotFound(ref c)) if c == "zzz"),
            "got {err:?}"
        );
    }

    #[test]
    fn split_conjuncts_flattens_and_tree() {
        let e = col("a").gt(lit(1i64)).and(col("b").lt(lit(2i64))).and(col("c").eq(lit(3i64)));
        let mut out = Vec::new();
        split_conjuncts(e, &mut out);
        assert_eq!(out.len(), 3);
    }
}
