//! The SQL abstract syntax tree.

/// Binary operators (shared shape with the engine's, resolved at planning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// The functions the subset knows, all of them aggregates (lower-cased).
pub const AGGREGATES: [&str; 5] = ["sum", "avg", "count", "min", "max"];

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Possibly-qualified column reference (`l.quantity`, `l_quantity`).
    Column {
        /// Table or alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Decimal literal (textual; the planner picks a scale).
    Number(String),
    /// String literal.
    Str(String),
    /// `DATE 'YYYY-MM-DD'` literal.
    Date(String),
    /// `INTERVAL 'n' unit` literal (consumed only by date arithmetic).
    Interval {
        /// Magnitude.
        n: i64,
        /// `DAY`, `MONTH`, or `YEAR`.
        unit: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: SqlOp,
        /// Left operand.
        left: Box<SqlExpr>,
        /// Right operand.
        right: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Input.
        expr: Box<SqlExpr>,
        /// Pattern.
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr [NOT] IN (literals…)`.
    InList {
        /// Probe.
        expr: Box<SqlExpr>,
        /// Candidates.
        list: Vec<SqlExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<SqlExpr>,
        /// Lower bound.
        low: Box<SqlExpr>,
        /// Upper bound.
        high: Box<SqlExpr>,
    },
    /// `CASE WHEN c THEN a ELSE b END`.
    Case {
        /// Condition.
        when: Box<SqlExpr>,
        /// True branch.
        then: Box<SqlExpr>,
        /// False branch.
        otherwise: Box<SqlExpr>,
    },
    /// Aggregate function call: the parser accepts no other name.
    Func {
        /// Lower-cased function name.
        name: String,
        /// `COUNT(DISTINCT …)`.
        distinct: bool,
        /// `COUNT(*)`.
        star: bool,
        /// Arguments.
        args: Vec<SqlExpr>,
    },
    /// `EXTRACT(YEAR FROM expr)`.
    Extract {
        /// Field (only `YEAR` is supported).
        field: String,
        /// Source expression.
        from: Box<SqlExpr>,
    },
    /// `SUBSTRING(expr FROM start FOR len)`.
    Substring {
        /// Input.
        expr: Box<SqlExpr>,
        /// 1-based start.
        start: i64,
        /// Length.
        len: i64,
    },
}

impl SqlExpr {
    /// True when the tree contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            SqlExpr::Func { name, .. } => AGGREGATES.contains(&name.as_str()),
            SqlExpr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            SqlExpr::Not(e) => e.contains_aggregate(),
            SqlExpr::Like { expr, .. } | SqlExpr::InList { expr, .. } => expr.contains_aggregate(),
            SqlExpr::Between { expr, low, high } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            SqlExpr::Case { when, then, otherwise } => {
                when.contains_aggregate()
                    || then.contains_aggregate()
                    || otherwise.contains_aggregate()
            }
            SqlExpr::Extract { from, .. } => from.contains_aggregate(),
            _ => false,
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: SqlExpr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// A table in FROM, with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Catalog table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Output column name or 1-based position.
    pub key: OrderKey,
    /// DESC?
    pub descending: bool,
}

/// An ORDER BY key target.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderKey {
    /// Output column by name.
    Name(String),
    /// 1-based select-list position.
    Position(usize),
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list (`None` = `SELECT *`).
    pub items: Option<Vec<SelectItem>>,
    /// FROM tables (comma list; explicit `JOIN … ON` is normalized into
    /// this list plus WHERE conjuncts by the parser).
    pub from: Vec<TableRef>,
    /// WHERE clause.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// HAVING clause.
    pub having: Option<SqlExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection_walks_nesting() {
        let agg = SqlExpr::Func {
            name: "sum".into(),
            distinct: false,
            star: false,
            args: vec![SqlExpr::Column { qualifier: None, name: "x".into() }],
        };
        let wrapped = SqlExpr::Binary {
            op: SqlOp::Div,
            left: Box::new(SqlExpr::Int(100)),
            right: Box::new(agg),
        };
        assert!(wrapped.contains_aggregate());
        let plain = SqlExpr::Column { qualifier: None, name: "x".into() };
        assert!(!plain.contains_aggregate());
    }
}
