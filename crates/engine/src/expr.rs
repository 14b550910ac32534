//! Scalar expressions and their builder API.
//!
//! Expressions are vectorized column-at-a-time by [`crate::eval`]; this
//! module only defines the tree and convenience constructors. The set of
//! operations is exactly what the 22 TPC-H queries need (DESIGN.md §3).

use std::collections::BTreeSet;
use std::fmt;

use wimpi_storage::{Date32, Decimal64, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always produces `Float64`).
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
}

impl BinOp {
    /// True for comparison operators (result type `Bool`).
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// True for the boolean connectives.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a named column of the input relation.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// SQL LIKE / NOT LIKE over a string expression.
    Like {
        /// String input.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: String,
        /// True for NOT LIKE.
        negated: bool,
    },
    /// SQL IN / NOT IN with a literal list.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// Literal candidates.
        list: Vec<Value>,
        /// True for NOT IN.
        negated: bool,
    },
    /// Inclusive BETWEEN over literals.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Value,
        /// Upper bound (inclusive).
        high: Value,
    },
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case {
        /// Condition.
        when: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// `EXTRACT(YEAR FROM date_expr)` producing `Int32`.
    ExtractYear(Box<Expr>),
    /// `SUBSTRING(expr FROM start FOR len)`, 1-based, producing `Utf8`.
    Substr {
        /// String input.
        expr: Box<Expr>,
        /// 1-based start character.
        start: usize,
        /// Number of characters.
        len: usize,
    },
}

/// References a column.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Builds a literal from anything convertible to [`Value`].
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

/// A `decimal(_, 2)` literal from a human-readable string, e.g. `dec2("0.06")`.
pub fn dec2(s: &str) -> Expr {
    Expr::Lit(Value::Dec(Decimal64::from_str_scale(s, 2).expect("dec2 literal must parse")))
}

/// A date literal from `YYYY-MM-DD`.
pub fn date(s: &str) -> Expr {
    Expr::Lit(Value::Date(Date32::parse(s).expect("date literal must parse")))
}

// Builder methods intentionally shadow the `std::ops` names (`add`, `mul`,
// `sub`, `div`): they build expression trees, the DataFusion-style API users
// expect.
#[allow(clippy::should_implement_trait)]
impl Expr {
    fn bin(self, op: BinOp, other: Expr) -> Expr {
        Expr::Bin { op, left: Box::new(self), right: Box::new(other) }
    }

    /// `self + other`.
    pub fn add(self, other: Expr) -> Expr {
        self.bin(BinOp::Add, other)
    }

    /// `self - other`.
    pub fn sub(self, other: Expr) -> Expr {
        self.bin(BinOp::Sub, other)
    }

    /// `self * other`.
    pub fn mul(self, other: Expr) -> Expr {
        self.bin(BinOp::Mul, other)
    }

    /// `self / other` (Float64).
    pub fn div(self, other: Expr) -> Expr {
        self.bin(BinOp::Div, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.bin(BinOp::Eq, other)
    }

    /// `self <> other`.
    pub fn neq(self, other: Expr) -> Expr {
        self.bin(BinOp::Ne, other)
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        self.bin(BinOp::Lt, other)
    }

    /// `self <= other`.
    pub fn lte(self, other: Expr) -> Expr {
        self.bin(BinOp::Le, other)
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        self.bin(BinOp::Gt, other)
    }

    /// `self >= other`.
    pub fn gte(self, other: Expr) -> Expr {
        self.bin(BinOp::Ge, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        self.bin(BinOp::And, other)
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        self.bin(BinOp::Or, other)
    }

    /// `NOT self`.
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self LIKE pattern`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like { expr: Box::new(self), pattern: pattern.into(), negated: false }
    }

    /// `self NOT LIKE pattern`.
    pub fn not_like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like { expr: Box::new(self), pattern: pattern.into(), negated: true }
    }

    /// `self IN (list)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList { expr: Box::new(self), list, negated: false }
    }

    /// `self NOT IN (list)`.
    pub fn not_in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList { expr: Box::new(self), list, negated: true }
    }

    /// `self BETWEEN low AND high`.
    pub fn between(self, low: impl Into<Value>, high: impl Into<Value>) -> Expr {
        Expr::Between { expr: Box::new(self), low: low.into(), high: high.into() }
    }

    /// `CASE WHEN self THEN then ELSE otherwise END`.
    pub fn case(self, then: Expr, otherwise: Expr) -> Expr {
        Expr::Case { when: Box::new(self), then: Box::new(then), otherwise: Box::new(otherwise) }
    }

    /// `EXTRACT(YEAR FROM self)`.
    pub fn year(self) -> Expr {
        Expr::ExtractYear(Box::new(self))
    }

    /// `SUBSTRING(self FROM start FOR len)` (1-based).
    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Substr { expr: Box::new(self), start, len }
    }

    /// The operand expressions of this node, left to right (none for a
    /// column or a literal).
    pub(crate) fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Col(_) | Expr::Lit(_) => Vec::new(),
            Expr::Bin { left, right, .. } => vec![left, right],
            Expr::Not(e) | Expr::ExtractYear(e) => vec![e],
            Expr::Like { expr, .. }
            | Expr::InList { expr, .. }
            | Expr::Between { expr, .. }
            | Expr::Substr { expr, .. } => vec![expr],
            Expr::Case { when, then, otherwise } => vec![when, then, otherwise],
        }
    }

    /// Collects every column name this expression references.
    pub fn columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Col(n) => {
                out.insert(n.clone());
            }
            e => e.children().into_iter().for_each(|c| c.columns(out)),
        }
    }

    /// Convenience: the referenced columns as a set.
    pub fn column_set(&self) -> BTreeSet<String> {
        let mut s = BTreeSet::new();
        self.columns(&mut s);
        s
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Bin { op, left, right } => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Eq => "=",
                    BinOp::Ne => "<>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({left} {sym} {right})")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "{expr} {}LIKE '{pattern}'", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Expr::Between { expr, low, high } => {
                write!(f, "{expr} BETWEEN {low} AND {high}")
            }
            Expr::Case { when, then, otherwise } => {
                write!(f, "CASE WHEN {when} THEN {then} ELSE {otherwise} END")
            }
            Expr::ExtractYear(e) => write!(f, "EXTRACT(YEAR FROM {e})"),
            Expr::Substr { expr, start, len } => {
                write!(f, "SUBSTRING({expr} FROM {start} FOR {len})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_tree() {
        let e = col("l_quantity").lt(dec2("24"));
        match &e {
            Expr::Bin { op: BinOp::Lt, left, .. } => {
                assert_eq!(**left, Expr::Col("l_quantity".into()));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn column_collection_walks_tree() {
        let e =
            col("a").mul(lit(1i64).sub(col("b"))).add(col("c").year()).and(col("d").like("%x%"));
        let cols = e.column_set();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".into(), "c".into(), "d".into()]
        );
    }

    #[test]
    fn display_round_trips_operators() {
        let e = col("x").gte(lit(5i64)).and(col("y").neq(lit("A")));
        assert_eq!(e.to_string(), "((x >= 5) AND (y <> A))");
    }

    #[test]
    fn date_and_dec_literals_parse() {
        assert_eq!(date("1994-01-01").to_string(), "1994-01-01");
        assert_eq!(dec2("0.06").to_string(), "0.06");
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Lt.is_logical());
    }
}
