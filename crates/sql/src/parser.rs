//! Recursive-descent SQL parser for the supported subset:
//!
//! ```sql
//! SELECT item [AS alias], …
//! FROM t1 [a1], t2 [a2], …  |  t1 JOIN t2 ON cond [JOIN …]
//! [WHERE cond]
//! [GROUP BY expr, …]
//! [HAVING cond]
//! [ORDER BY name|position [ASC|DESC], …]
//! [LIMIT n]
//! ```
//!
//! Explicit `JOIN … ON` is normalized into the FROM list plus WHERE
//! conjuncts; the planner rebuilds the join tree from equality edges.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::lex;
use crate::token::Token;

/// Parses one SELECT statement.
pub fn parse(sql: &str) -> Result<Query> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    // Allow a trailing semicolon.
    if p.peek_is(|t| *t == Token::Semi) {
        p.advance();
    }
    if p.pos != p.tokens.len() {
        return Err(SqlError::Parse(format!("trailing input starting at {:?}", p.tokens[p.pos])));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_is(&self, f: impl Fn(&Token) -> bool) -> bool {
        self.peek().is_some_and(f)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {kw}, found {}",
                self.peek().map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            )))
        }
    }

    fn expect(&mut self, tok: Token) -> Result<()> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {tok}, found {}",
                self.peek().map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            ))),
        }
    }

    // ---- grammar ------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("SELECT")?;
        let items = if self.peek() == Some(&Token::Star) {
            self.advance();
            None
        } else {
            let mut items = vec![self.select_item()?];
            while self.peek() == Some(&Token::Comma) {
                self.advance();
                items.push(self.select_item()?);
            }
            Some(items)
        };
        self.expect_kw("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut join_conds: Vec<SqlExpr> = Vec::new();
        loop {
            if self.peek() == Some(&Token::Comma) {
                self.advance();
                from.push(self.table_ref()?);
            } else if self.peek_kw("JOIN") || self.peek_kw("INNER") {
                if self.eat_kw("INNER") {
                    self.expect_kw("JOIN")?;
                } else {
                    self.advance();
                }
                from.push(self.table_ref()?);
                self.expect_kw("ON")?;
                join_conds.push(self.expr()?);
            } else {
                break;
            }
        }
        let mut where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        // Fold explicit join conditions into WHERE.
        for c in join_conds {
            where_clause = Some(match where_clause {
                Some(w) => {
                    SqlExpr::Binary { op: SqlOp::And, left: Box::new(w), right: Box::new(c) }
                }
                None => c,
            });
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.peek() == Some(&Token::Comma) {
                self.advance();
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            order_by.push(self.order_item()?);
            while self.peek() == Some(&Token::Comma) {
                self.advance();
                order_by.push(self.order_item()?);
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIMIT needs a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query { items, from, where_clause, group_by, having, order_by, limit })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        // A bare identifier that is not a clause keyword is an alias.
        let alias = match self.peek() {
            Some(Token::Word(w)) if !is_clause_keyword(w) => Some(self.ident()?),
            _ => None,
        };
        Ok(TableRef { name, alias })
    }

    fn order_item(&mut self) -> Result<OrderItem> {
        let key = match self.advance() {
            Some(Token::Word(w)) => OrderKey::Name(w),
            Some(Token::Int(n)) if n >= 1 => OrderKey::Position(n as usize),
            other => {
                return Err(SqlError::Parse(format!(
                    "ORDER BY needs a column name or position, found {other:?}"
                )))
            }
        };
        let descending = if self.eat_kw("DESC") {
            true
        } else {
            self.eat_kw("ASC");
            false
        };
        Ok(OrderItem { key, descending })
    }

    // Precedence: OR < AND < NOT < comparison/LIKE/IN/BETWEEN < +- < */ < unary.
    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = SqlExpr::Binary { op: SqlOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = SqlExpr::Binary { op: SqlOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("NOT") {
            Ok(SqlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<SqlExpr> {
        let left = self.additive()?;
        // Postfix predicates: [NOT] LIKE / IN / BETWEEN.
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            let pattern = match self.advance() {
                Some(Token::Str(s)) => s,
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIKE needs a string pattern, found {other:?}"
                    )))
                }
            };
            return Ok(SqlExpr::Like { expr: Box::new(left), pattern, negated });
        }
        if self.eat_kw("IN") {
            self.expect(Token::LParen)?;
            let mut list = vec![self.additive()?];
            while self.peek() == Some(&Token::Comma) {
                self.advance();
                list.push(self.additive()?);
            }
            self.expect(Token::RParen)?;
            return Ok(SqlExpr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            let between =
                SqlExpr::Between { expr: Box::new(left), low: Box::new(low), high: Box::new(high) };
            return Ok(if negated { SqlExpr::Not(Box::new(between)) } else { between });
        }
        if negated {
            return Err(SqlError::Parse("dangling NOT before comparison".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => SqlOp::Eq,
            Some(Token::Ne) => SqlOp::Ne,
            Some(Token::Lt) => SqlOp::Lt,
            Some(Token::Le) => SqlOp::Le,
            Some(Token::Gt) => SqlOp::Gt,
            Some(Token::Ge) => SqlOp::Ge,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(SqlExpr::Binary { op, left: Box::new(left), right: Box::new(right) })
    }

    fn additive(&mut self) -> Result<SqlExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => SqlOp::Add,
                Some(Token::Minus) => SqlOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = SqlExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => SqlOp::Mul,
                Some(Token::Slash) => SqlOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = SqlExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<SqlExpr> {
        if self.peek() == Some(&Token::Minus) {
            self.advance();
            let inner = self.unary()?;
            return Ok(match inner {
                SqlExpr::Int(v) => SqlExpr::Int(-v),
                SqlExpr::Number(s) => SqlExpr::Number(format!("-{s}")),
                other => SqlExpr::Binary {
                    op: SqlOp::Sub,
                    left: Box::new(SqlExpr::Int(0)),
                    right: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        match self.advance() {
            Some(Token::Int(v)) => Ok(SqlExpr::Int(v)),
            Some(Token::Number(s)) => Ok(SqlExpr::Number(s)),
            Some(Token::Str(s)) => Ok(SqlExpr::Str(s)),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("date") => match self.advance() {
                Some(Token::Str(s)) => Ok(SqlExpr::Date(s)),
                other => {
                    Err(SqlError::Parse(format!("DATE needs a string literal, found {other:?}")))
                }
            },
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("interval") => {
                let n = match self.advance() {
                    Some(Token::Str(s)) => s
                        .trim()
                        .parse::<i64>()
                        .map_err(|_| SqlError::Parse(format!("bad interval {s:?}")))?,
                    Some(Token::Int(v)) => v,
                    other => {
                        return Err(SqlError::Parse(format!(
                            "INTERVAL needs a magnitude, found {other:?}"
                        )))
                    }
                };
                let unit = self.ident()?.to_uppercase();
                Ok(SqlExpr::Interval { n, unit })
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("case") => {
                self.expect_kw("WHEN")?;
                let when = self.expr()?;
                self.expect_kw("THEN")?;
                let then = self.expr()?;
                self.expect_kw("ELSE")?;
                let otherwise = self.expr()?;
                self.expect_kw("END")?;
                Ok(SqlExpr::Case {
                    when: Box::new(when),
                    then: Box::new(then),
                    otherwise: Box::new(otherwise),
                })
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("extract") => {
                self.expect(Token::LParen)?;
                let field = self.ident()?.to_uppercase();
                self.expect_kw("FROM")?;
                let from = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(SqlExpr::Extract { field, from: Box::new(from) })
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("substring") => {
                self.expect(Token::LParen)?;
                let expr = self.expr()?;
                self.expect_kw("FROM")?;
                let start = match self.advance() {
                    Some(Token::Int(v)) => v,
                    other => {
                        return Err(SqlError::Parse(format!(
                            "SUBSTRING FROM needs an integer, found {other:?}"
                        )))
                    }
                };
                self.expect_kw("FOR")?;
                let len = match self.advance() {
                    Some(Token::Int(v)) => v,
                    other => {
                        return Err(SqlError::Parse(format!(
                            "SUBSTRING FOR needs an integer, found {other:?}"
                        )))
                    }
                };
                self.expect(Token::RParen)?;
                Ok(SqlExpr::Substring { expr: Box::new(expr), start, len })
            }
            Some(Token::Word(w)) => {
                if self.peek() == Some(&Token::LParen) {
                    // Function call.
                    self.advance();
                    let name = w.to_lowercase();
                    if !AGGREGATES.contains(&name.as_str()) {
                        let hint =
                            if name == "substr" { "; use SUBSTRING(x FROM a FOR b)" } else { "" };
                        return Err(SqlError::Unsupported(format!(
                            "unknown function {name}(){hint}"
                        )));
                    }
                    if self.peek() == Some(&Token::Star) {
                        self.advance();
                        self.expect(Token::RParen)?;
                        return Ok(SqlExpr::Func {
                            name,
                            distinct: false,
                            star: true,
                            args: vec![],
                        });
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = vec![self.expr()?];
                    while self.peek() == Some(&Token::Comma) {
                        self.advance();
                        args.push(self.expr()?);
                    }
                    self.expect(Token::RParen)?;
                    Ok(SqlExpr::Func { name, distinct, star: false, args })
                } else if self.peek() == Some(&Token::Dot) {
                    self.advance();
                    let name = self.ident()?;
                    Ok(SqlExpr::Column { qualifier: Some(w), name })
                } else {
                    Ok(SqlExpr::Column { qualifier: None, name: w })
                }
            }
            other => Err(SqlError::Parse(format!(
                "expected expression, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            ))),
        }
    }
}

fn is_clause_keyword(w: &str) -> bool {
    [
        "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "AS", "AND", "OR",
        "SELECT", "FROM",
    ]
    .iter()
    .any(|k| w.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q6_shape() {
        let q = parse(
            "select sum(l_extendedprice * l_discount) as revenue \
             from lineitem \
             where l_shipdate >= date '1994-01-01' \
               and l_shipdate < date '1995-01-01' \
               and l_discount between 0.05 and 0.07 \
               and l_quantity < 24",
        )
        .unwrap();
        assert_eq!(q.from.len(), 1);
        let items = q.items.unwrap();
        assert_eq!(items[0].alias.as_deref(), Some("revenue"));
        assert!(items[0].expr.contains_aggregate());
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_group_order_limit() {
        let q = parse(
            "select l_orderkey, sum(l_quantity) as q from lineitem \
             group by l_orderkey order by q desc, l_orderkey limit 10",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn explicit_join_normalizes_into_where() {
        let q = parse(
            "select * from lineitem join orders on l_orderkey = o_orderkey \
             where l_quantity < 10",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        // WHERE must now be an AND of the filter and the join condition.
        match q.where_clause.unwrap() {
            SqlExpr::Binary { op: SqlOp::And, .. } => {}
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn aliases_and_qualified_columns() {
        let q = parse("select l.l_quantity from lineitem l where l.l_tax > 0.02").unwrap();
        assert_eq!(q.from[0].alias.as_deref(), Some("l"));
        let items = q.items.unwrap();
        assert_eq!(
            items[0].expr,
            SqlExpr::Column { qualifier: Some("l".into()), name: "l_quantity".into() }
        );
    }

    #[test]
    fn parses_case_extract_substring_interval() {
        let q = parse(
            "select case when p_type like 'PROMO%' then 1 else 0 end as promo, \
                    extract(year from o_orderdate), \
                    substring(c_phone from 1 for 2) \
             from orders where o_orderdate < date '1995-01-01' + interval '1' year",
        )
        .unwrap();
        let items = q.items.unwrap();
        assert!(matches!(items[0].expr, SqlExpr::Case { .. }));
        assert!(matches!(items[1].expr, SqlExpr::Extract { .. }));
        assert!(matches!(items[2].expr, SqlExpr::Substring { .. }));
    }

    #[test]
    fn count_star_and_distinct() {
        let q = parse("select count(*), count(distinct ps_suppkey) from partsupp").unwrap();
        let items = q.items.unwrap();
        assert!(matches!(&items[0].expr, SqlExpr::Func { star: true, .. }));
        assert!(matches!(&items[1].expr, SqlExpr::Func { distinct: true, .. }));
    }

    #[test]
    fn operator_precedence() {
        // a + b * c parses as a + (b * c)
        let q = parse("select a + b * c from t").unwrap();
        match &q.items.unwrap()[0].expr {
            SqlExpr::Binary { op: SqlOp::Add, right, .. } => {
                assert!(matches!(&**right, SqlExpr::Binary { op: SqlOp::Mul, .. }));
            }
            other => panic!("precedence broken: {other:?}"),
        }
        // x = 1 or y = 2 and z = 3 → OR(x=1, AND(y=2, z=3))
        let q = parse("select * from t where x = 1 or y = 2 and z = 3").unwrap();
        match q.where_clause.unwrap() {
            SqlExpr::Binary { op: SqlOp::Or, right, .. } => {
                assert!(matches!(&*right, SqlExpr::Binary { op: SqlOp::And, .. }));
            }
            other => panic!("precedence broken: {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_limit() {
        assert!(parse("select * from t extra junk words").is_err());
        assert!(parse("select * from t limit abc").is_err());
        assert!(parse("select from t").is_err());
    }
}
