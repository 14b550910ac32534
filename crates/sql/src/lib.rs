//! # wimpi-sql
//!
//! A SQL front end for the WIMPI engine: lexer, recursive-descent parser,
//! and planner for the TPC-H-sized subset (SELECT/FROM with inner joins,
//! WHERE, GROUP BY, HAVING, ORDER BY, LIMIT; LIKE/IN/BETWEEN/CASE/EXTRACT/
//! SUBSTRING; DATE ± INTERVAL folding; sum/avg/count/min/max with
//! `count(distinct …)`).
//!
//! Outside the subset — correlated or scalar subqueries, outer-join syntax,
//! self-joins — the planner returns a precise [`SqlError::Unsupported`];
//! `wimpi-queries` covers those query shapes through the plan-builder API.
//!
//! [`execute_sql_with`] runs SQL text under an engine config, a governor
//! context and a tracer; [`execute_sql`] is its defaults shorthand. `EXPLAIN
//! ANALYZE` is [`strip_explain_analyze`], an enabled tracer, and its root.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod token;

pub use error::{Result, SqlError};

use wimpi_engine::{EngineConfig, LogicalPlan, QueryContext, Relation, Tracer, WorkProfile};
use wimpi_storage::Catalog;

/// Parses and plans one SELECT statement.
pub fn plan(sql: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    let q = parser::parse(sql)?;
    planner::plan_query(&q, catalog)
}

/// Parses, plans, optimizes, and executes one SELECT statement with every
/// default: serial, ungoverned, untraced.
pub fn execute_sql(sql: &str, catalog: &Catalog) -> Result<(Relation, WorkProfile)> {
    execute_sql_with(sql, catalog, &EngineConfig::serial(), &QueryContext::default(), Tracer::off())
}

/// [`plan`] + [`wimpi_engine::execute_query_with`] — what the shell's `SET`
/// knobs route through: `cfg` carries `verify_checksums` / `executor` /
/// `prune_scans`, `ctx` the governor (`memory_budget`, `timeout_ms`, spill).
/// With an enabled `tracer` this is the engine's `EXPLAIN ANALYZE`: the
/// tracer's root afterwards carries per-operator row counts, wall times, and
/// work-profile deltas (including the measured `peak_bytes` reservation
/// high-water mark), and its totals equal the returned [`WorkProfile`].
pub fn execute_sql_with(
    sql: &str,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
    tracer: &Tracer,
) -> Result<(Relation, WorkProfile)> {
    let p = plan(sql, catalog)?;
    wimpi_engine::execute_query_with(&p, catalog, cfg, ctx, tracer).map_err(SqlError::Engine)
}

/// Strips a leading `EXPLAIN ANALYZE` prefix (case-insensitive, any
/// whitespace between the keywords), returning the statement to trace.
/// Returns `None` when the input is not an EXPLAIN ANALYZE.
pub fn strip_explain_analyze(sql: &str) -> Option<&str> {
    fn strip_word<'a>(s: &'a str, word: &str) -> Option<&'a str> {
        let head = s.get(..word.len())?;
        if !head.eq_ignore_ascii_case(word) {
            return None;
        }
        let rest = &s[word.len()..];
        // Keyword must end at a word boundary: `EXPLAINANALYZE` is not SQL.
        rest.starts_with(char::is_whitespace).then(|| rest.trim_start())
    }
    let rest = strip_word(sql.trim_start(), "EXPLAIN")?;
    strip_word(rest, "ANALYZE").filter(|r| !r.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_explain_analyze_is_case_insensitive() {
        assert_eq!(strip_explain_analyze("EXPLAIN ANALYZE SELECT 1"), Some("SELECT 1"));
        assert_eq!(strip_explain_analyze("explain   analyze\n select 1"), Some("select 1"));
        assert_eq!(strip_explain_analyze("  Explain Analyze select 1"), Some("select 1"));
    }

    #[test]
    fn strip_explain_analyze_rejects_non_prefixes() {
        assert_eq!(strip_explain_analyze("SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAINANALYZE SELECT 1"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN ANALYZE"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN ANALYZE "), None);
    }

    #[test]
    fn verify_checksums_catches_corruption_that_silently_skews_answers() {
        use wimpi_storage::{Column, DataType, Field, Schema, Table};
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let clean =
            Table::new(schema, vec![Column::Int64((1..=100).collect())]).unwrap().with_integrity();
        let dirty = wimpi_storage::integrity::flip_bits(clean.column(0).as_ref(), 0..100, 1, 9);
        let corrupted = clean.with_replaced_column(0, dirty).unwrap();
        let mut cat = Catalog::new();
        cat.register("t", corrupted);
        let sql = "SELECT sum(x) AS s FROM t";
        // Verification off: the corruption silently skews the aggregate.
        let (skewed, _) = execute_sql(sql, &cat).expect("no detection without verification");
        assert!(skewed.num_rows() == 1);
        // Verification on: the scan refuses the corrupt chunk, typed.
        let cfg = wimpi_engine::EngineConfig::serial().with_verify_checksums(true);
        let err =
            execute_sql_with(sql, &cat, &cfg, &QueryContext::new(), Tracer::off()).unwrap_err();
        match err {
            SqlError::Engine(wimpi_engine::EngineError::Integrity { table, column, .. }) => {
                assert_eq!((table.as_str(), column.as_str()), ("t", "x"));
            }
            other => panic!("expected an integrity violation, got {other}"),
        }
    }
}
