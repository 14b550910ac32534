//! Logical plans and the fluent plan-builder API.
//!
//! The builder is the engine's public query interface (DESIGN.md §3): TPC-H
//! queries in `wimpi-queries` are expressed as builder chains, e.g.
//!
//! ```
//! use wimpi_engine::plan::PlanBuilder;
//! use wimpi_engine::expr::{col, dec2, date};
//! use wimpi_engine::plan::AggExpr;
//! let plan = PlanBuilder::scan("lineitem")
//!     .filter(col("l_shipdate").lt(date("1995-01-01")))
//!     .aggregate(vec![], vec![AggExpr::sum(
//!         col("l_extendedprice").mul(col("l_discount")),
//!         "revenue",
//!     )])
//!     .build();
//! ```

use crate::expr::Expr;

/// Join variants used by the TPC-H workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left semi join: keep left rows with ≥1 match.
    Semi,
    /// Left anti join: keep left rows with no match.
    Anti,
    /// Left outer join: unmatched left rows get type-default right values and
    /// a synthetic `__matched: Bool` column distinguishes them. This is how
    /// Q13's `count(o_orderkey)` over a left join is expressed without nulls
    /// (DESIGN.md §7).
    LeftOuter,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)` (always Float64).
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// `count(*)`.
    CountStar,
    /// `count(...)` over a boolean expression: counts true rows.
    CountIf,
    /// `count(distinct expr)`.
    CountDistinct,
}

/// One aggregate in an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input expression (`None` only for `CountStar`).
    pub expr: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// `sum(expr) as name`.
    pub fn sum(expr: Expr, name: impl Into<String>) -> Self {
        Self { func: AggFunc::Sum, expr: Some(expr), name: name.into() }
    }

    /// `avg(expr) as name`.
    pub fn avg(expr: Expr, name: impl Into<String>) -> Self {
        Self { func: AggFunc::Avg, expr: Some(expr), name: name.into() }
    }

    /// `min(expr) as name`.
    pub fn min(expr: Expr, name: impl Into<String>) -> Self {
        Self { func: AggFunc::Min, expr: Some(expr), name: name.into() }
    }

    /// `max(expr) as name`.
    pub fn max(expr: Expr, name: impl Into<String>) -> Self {
        Self { func: AggFunc::Max, expr: Some(expr), name: name.into() }
    }

    /// `count(*) as name`.
    pub fn count_star(name: impl Into<String>) -> Self {
        Self { func: AggFunc::CountStar, expr: None, name: name.into() }
    }

    /// `count rows where bool expr is true, as name`.
    pub fn count_if(expr: Expr, name: impl Into<String>) -> Self {
        Self { func: AggFunc::CountIf, expr: Some(expr), name: name.into() }
    }

    /// `count(distinct expr) as name`.
    pub fn count_distinct(expr: Expr, name: impl Into<String>) -> Self {
        Self { func: AggFunc::CountDistinct, expr: Some(expr), name: name.into() }
    }
}

/// A sort key over a named output column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column name in the input relation.
    pub column: String,
    /// True for descending order.
    pub descending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> Self {
        Self { column: column.into(), descending: false }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> Self {
        Self { column: column.into(), descending: true }
    }
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan with optional column projection.
    Scan {
        /// Catalog table name.
        table: String,
        /// Columns to load (`None` = all).
        projection: Option<Vec<String>>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Column computation / renaming; output has exactly these columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Hash equi-join. The right side is the build side.
    Join {
        /// Probe side.
        left: Box<LogicalPlan>,
        /// Build side.
        right: Box<LogicalPlan>,
        /// Equality pairs `(left column, right column)`.
        on: Vec<(String, String)>,
        /// Join variant.
        join_type: JoinType,
    },
    /// Group-by aggregation (empty `group_by` = one global group).
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` grouping keys.
        group_by: Vec<(Expr, String)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Multi-key sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// First-`n` truncation.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
}

impl LogicalPlan {
    /// The plan's direct inputs.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Names of every base table referenced anywhere in the plan.
    pub fn tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::Scan { table, .. } = p {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            for c in p.inputs() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Renders an indented plan tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        fn walk(p: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match p {
                LogicalPlan::Scan { table, projection } => {
                    out.push_str(&format!(
                        "{pad}Scan {table}{}\n",
                        projection
                            .as_ref()
                            .map(|p| format!(" [{}]", p.join(", ")))
                            .unwrap_or_default()
                    ));
                }
                LogicalPlan::Filter { predicate, .. } => {
                    out.push_str(&format!("{pad}Filter {predicate}\n"));
                }
                LogicalPlan::Project { exprs, .. } => {
                    let cols: Vec<String> =
                        exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                    out.push_str(&format!("{pad}Project {}\n", cols.join(", ")));
                }
                LogicalPlan::Join { on, join_type, .. } => {
                    let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                    out.push_str(&format!("{pad}Join ({join_type:?}) on {}\n", keys.join(", ")));
                }
                LogicalPlan::Aggregate { group_by, aggs, .. } => {
                    let g: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
                    let a: Vec<String> = aggs.iter().map(|x| x.name.clone()).collect();
                    out.push_str(&format!(
                        "{pad}Aggregate by [{}] -> [{}]\n",
                        g.join(", "),
                        a.join(", ")
                    ));
                }
                LogicalPlan::Sort { keys, .. } => {
                    let k: Vec<String> = keys
                        .iter()
                        .map(|k| format!("{}{}", k.column, if k.descending { " DESC" } else { "" }))
                        .collect();
                    out.push_str(&format!("{pad}Sort {}\n", k.join(", ")));
                }
                LogicalPlan::Limit { n, .. } => {
                    out.push_str(&format!("{pad}Limit {n}\n"));
                }
            }
            for c in p.inputs() {
                walk(c, depth + 1, out);
            }
        }
        walk(self, 0, &mut out);
        out
    }
}

/// Fluent builder over [`LogicalPlan`].
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: LogicalPlan,
}

impl PlanBuilder {
    /// Starts from a table scan.
    pub fn scan(table: impl Into<String>) -> Self {
        Self { plan: LogicalPlan::Scan { table: table.into(), projection: None } }
    }

    /// Adds a filter.
    pub fn filter(self, predicate: Expr) -> Self {
        Self { plan: LogicalPlan::Filter { input: Box::new(self.plan), predicate } }
    }

    /// Adds a projection; each pair is `(expr, output name)`.
    pub fn project(self, exprs: Vec<(Expr, &str)>) -> Self {
        Self {
            plan: LogicalPlan::Project {
                input: Box::new(self.plan),
                exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
            },
        }
    }

    /// Joins with another builder (`self` probes, `right` builds).
    pub fn join(self, right: PlanBuilder, on: Vec<(&str, &str)>, join_type: JoinType) -> Self {
        Self {
            plan: LogicalPlan::Join {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
                on: on.into_iter().map(|(l, r)| (l.to_string(), r.to_string())).collect(),
                join_type,
            },
        }
    }

    /// Inner join shorthand.
    pub fn inner_join(self, right: PlanBuilder, on: Vec<(&str, &str)>) -> Self {
        self.join(right, on, JoinType::Inner)
    }

    /// Aggregates; `group_by` pairs are `(expr, output name)`.
    pub fn aggregate(self, group_by: Vec<(Expr, &str)>, aggs: Vec<AggExpr>) -> Self {
        Self {
            plan: LogicalPlan::Aggregate {
                input: Box::new(self.plan),
                group_by: group_by.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
                aggs,
            },
        }
    }

    /// Sorts by keys.
    pub fn sort(self, keys: Vec<SortKey>) -> Self {
        Self { plan: LogicalPlan::Sort { input: Box::new(self.plan), keys } }
    }

    /// Truncates to `n` rows.
    pub fn limit(self, n: usize) -> Self {
        Self { plan: LogicalPlan::Limit { input: Box::new(self.plan), n } }
    }

    /// Finalizes the plan.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn sample() -> LogicalPlan {
        PlanBuilder::scan("lineitem")
            .filter(col("l_quantity").lt(lit(24i64)))
            .inner_join(PlanBuilder::scan("orders"), vec![("l_orderkey", "o_orderkey")])
            .aggregate(vec![(col("o_orderpriority"), "prio")], vec![AggExpr::count_star("n")])
            .sort(vec![SortKey::asc("prio")])
            .limit(10)
            .build()
    }

    #[test]
    fn builder_nests_correctly() {
        let p = sample();
        assert!(matches!(p, LogicalPlan::Limit { n: 10, .. }));
        assert_eq!(p.tables(), vec!["lineitem".to_string(), "orders".into()]);
    }

    #[test]
    fn explain_renders_every_node() {
        let text = sample().explain();
        for needle in ["Limit 10", "Sort prio", "Aggregate by [prio]", "Join", "Filter", "Scan"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn inputs_enumeration() {
        let p = sample();
        assert_eq!(p.inputs().len(), 1);
        let join =
            PlanBuilder::scan("a").inner_join(PlanBuilder::scan("b"), vec![("x", "y")]).build();
        assert_eq!(join.inputs().len(), 2);
    }

    #[test]
    fn agg_expr_constructors() {
        assert_eq!(AggExpr::count_star("n").func, AggFunc::CountStar);
        assert!(AggExpr::count_star("n").expr.is_none());
        assert_eq!(AggExpr::avg(col("x"), "a").func, AggFunc::Avg);
    }

    #[test]
    fn sort_key_constructors() {
        assert!(!SortKey::asc("a").descending);
        assert!(SortKey::desc("a").descending);
    }
}
