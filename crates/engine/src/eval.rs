//! Expression evaluation for the materializing operators: a façade over the
//! one evaluator, [`Program`], plus the scalar semantics the compiler folds
//! constants with.
//!
//! [`Evaluator::eval`] compiles the expression once, charges its
//! full-materialization cost form for the rows of the relation (DESIGN.md
//! §2: one primitive per expression node, each streaming its operands in
//! and its result out — what MonetDB's column-at-a-time execution pays),
//! and runs the program morsel by morsel into one typed output column.
//! A plain column reference stays a zero-copy `Arc::clone`, which is also
//! what lets zone-map pruning recognise a table's own columns by pointer.
//!
//! The recursive interpreter this module used to hold survives only as the
//! reference the parity property test compares against
//! (`tests/reference_eval`).

use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::exec::bytecode::Program;
use crate::exec::parallel::EngineConfig;
use crate::expr::{BinOp, Expr};
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_storage::{Column, Decimal64, Value};

/// Evaluates expressions against one relation, accumulating work counters.
pub struct Evaluator<'a> {
    rel: &'a Relation,
    prof: &'a mut WorkProfile,
    cfg: EngineConfig,
}

impl<'a> Evaluator<'a> {
    /// Creates a single-threaded evaluator over `rel`.
    pub fn new(rel: &'a Relation, prof: &'a mut WorkProfile) -> Self {
        Self::with_config(rel, prof, EngineConfig::serial())
    }

    /// Creates an evaluator whose programs run morsel-parallel under `cfg`.
    pub fn with_config(rel: &'a Relation, prof: &'a mut WorkProfile, cfg: EngineConfig) -> Self {
        Self { rel, prof, cfg }
    }

    /// Evaluates `expr` to a full-length column.
    pub fn eval(&mut self, expr: &Expr) -> Result<Arc<Column>> {
        if let Expr::Col(name) = expr {
            return Ok(Arc::clone(self.rel.column(name)?));
        }
        let prog = Program::compile(expr, self.rel)?;
        let n = self.rel.num_rows();
        prog.cost().charge(n as u64, self.prof);
        Ok(Arc::new(prog.eval_column(n, &self.cfg)))
    }
}

pub(crate) const POW10: [i64; 10] =
    [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Caps intermediate decimal scales; TPC-H's deepest products reach 4+2.
pub(crate) const MAX_SCALE: u8 = 6;

/// A scalar on the fixed-point path as `(mantissa, scale)`: integers and
/// dates are scale 0.
pub(crate) fn fixed_parts(v: &Value) -> Option<(i64, u8)> {
    match v {
        Value::I64(x) => Some((*x, 0)),
        Value::I32(x) => Some((*x as i64, 0)),
        Value::Dec(d) => Some((d.mantissa(), d.scale())),
        Value::Date(d) => Some((d.0 as i64, 0)),
        _ => None,
    }
}

pub(crate) fn cmp_ord(op: BinOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("cmp_ord on non-comparison"),
    }
}

pub(crate) fn cmp_f64(op: BinOp, a: f64, b: f64) -> bool {
    cmp_ord(op, a.total_cmp(&b))
}

pub(crate) fn arith_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => unreachable!("arith_f64 on non-arithmetic"),
    }
}

/// Scalar-scalar constant folding, with the VM's per-row arithmetic: sums
/// rescale to the wider scale, product scales add up to [`MAX_SCALE`], and
/// division (or any non-fixed operand) goes through `f64`.
pub(crate) fn fold_scalar(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if op.is_comparison() {
        return Ok(Value::Bool(cmp_ord(op, a.total_cmp(b))));
    }
    if let (Some((ma, sa)), Some((mb, sb)), true) =
        (fixed_parts(a), fixed_parts(b), op != BinOp::Div)
    {
        let (m, s) = if op == BinOp::Mul {
            let s = sa + sb;
            if s > MAX_SCALE {
                let div = POW10[(s - MAX_SCALE) as usize] as i128;
                ((ma as i128 * mb as i128 / div) as i64, MAX_SCALE)
            } else {
                (ma * mb, s)
            }
        } else {
            let s = sa.max(sb);
            let (x, y) = (ma * POW10[(s - sa) as usize], mb * POW10[(s - sb) as usize]);
            (if op == BinOp::Add { x + y } else { x - y }, s)
        };
        return Ok(Value::Dec(Decimal64::new(m, s)));
    }
    let fa = a.as_f64().ok_or_else(|| EngineError::Plan("non-numeric fold".into()))?;
    let fb = b.as_f64().ok_or_else(|| EngineError::Plan("non-numeric fold".into()))?;
    Ok(Value::F64(arith_f64(op, fa, fb)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, date, dec2, lit};
    use wimpi_storage::Date32;

    fn test_rel() -> Relation {
        Relation::new(vec![
            ("qty".into(), Arc::new(Column::Decimal(vec![100, 2400, 5000], 2))),
            ("price".into(), Arc::new(Column::Decimal(vec![10_000, 20_000, 30_000], 2))),
            ("disc".into(), Arc::new(Column::Decimal(vec![5, 6, 7], 2))),
            ("k".into(), Arc::new(Column::Int64(vec![1, 2, 3]))),
            (
                "ship".into(),
                Arc::new(Column::Date(vec![
                    Date32::from_ymd(1994, 1, 1).0,
                    Date32::from_ymd(1994, 6, 1).0,
                    Date32::from_ymd(1995, 1, 1).0,
                ])),
            ),
            ("mode".into(), Arc::new(Column::Str(["AIR", "MAIL", "AIR"].into_iter().collect()))),
        ])
        .unwrap()
    }

    fn eval_one(e: &Expr) -> Arc<Column> {
        let rel = test_rel();
        let mut p = WorkProfile::new();
        Evaluator::new(&rel, &mut p).eval(e).unwrap()
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(eval_one(&col("k")).as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(eval_one(&lit(7i64)).as_i64().unwrap(), &[7, 7, 7]);
    }

    #[test]
    fn decimal_arithmetic_mixed_scales() {
        // price * (1 - disc): scale 2 × scale 2 → scale 4.
        let e = col("price").mul(lit(1i64).sub(col("disc")));
        let c = eval_one(&e);
        let (m, s) = c.as_decimal().unwrap();
        assert_eq!(s, 4);
        assert_eq!(m[0], 10_000 * 95); // 100.00 * 0.95 = 95.0000
    }

    #[test]
    fn comparison_across_scales() {
        let e = col("qty").lt(dec2("24"));
        let c = eval_one(&e);
        assert_eq!(c.as_bool().unwrap(), &[true, false, false]);
        // int literal against decimal column
        let e = col("qty").gte(lit(24i64));
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[false, true, true]);
    }

    #[test]
    fn date_comparison() {
        let e = col("ship").lt(date("1994-06-01"));
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, false]);
    }

    #[test]
    fn logical_connectives_and_not() {
        let e = col("k").gt(lit(1i64)).and(col("k").lt(lit(3i64)));
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[false, true, false]);
        let e = col("k").eq(lit(1i64)).or(col("k").eq(lit(3i64)));
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, true]);
        let e = col("k").eq(lit(2i64)).negate();
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, true]);
    }

    #[test]
    fn string_equality_and_like() {
        let e = col("mode").eq(lit("AIR"));
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, true]);
        let e = col("mode").like("%AI%");
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, true, true]);
        let e = col("mode").not_like("M%");
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, true]);
    }

    #[test]
    fn in_lists() {
        let e = col("mode").in_list(vec!["MAIL".into(), "SHIP".into()]);
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[false, true, false]);
        let e = col("k").in_list(vec![Value::I64(1), Value::I64(3)]);
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, true]);
        let e = col("k").not_in_list(vec![Value::I64(2)]);
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[true, false, true]);
    }

    #[test]
    fn between_is_inclusive() {
        let e = col("k").between(Value::I64(2), Value::I64(3));
        assert_eq!(eval_one(&e).as_bool().unwrap(), &[false, true, true]);
    }

    #[test]
    fn case_expression() {
        let e = col("mode").eq(lit("AIR")).case(col("price"), dec2("0"));
        let c = eval_one(&e);
        let (m, s) = c.as_decimal().unwrap();
        assert_eq!(s, 2);
        assert_eq!(m, &[10_000, 0, 30_000]);
    }

    #[test]
    fn extract_year() {
        let e = col("ship").year();
        assert_eq!(eval_one(&e).as_i32().unwrap(), &[1994, 1994, 1995]);
    }

    #[test]
    fn substring_on_dict() {
        let e = col("mode").substr(1, 2);
        let c = eval_one(&e);
        let d = c.as_str().unwrap();
        assert_eq!(d.get(0), "AI");
        assert_eq!(d.get(1), "MA");
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn division_produces_float() {
        let e = col("price").div(col("qty"));
        let c = eval_one(&e);
        let f = c.as_f64().unwrap();
        assert!((f[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scale_capping_on_deep_products() {
        // (2+2)+2 = 6 = MAX_SCALE, and one more multiply stays at 6.
        let e = col("price").mul(col("disc")).mul(col("disc")).mul(col("disc"));
        let c = eval_one(&e);
        let (_, s) = c.as_decimal().unwrap();
        assert_eq!(s, 6);
    }

    #[test]
    fn work_is_counted() {
        let rel = test_rel();
        let mut p = WorkProfile::new();
        let e = col("price").mul(lit(1i64).sub(col("disc")));
        Evaluator::new(&rel, &mut p).eval(&e).unwrap();
        assert!(p.cpu_ops >= 6, "two primitives over three rows");
        assert!(p.seq_read_bytes > 0);
        assert!(p.seq_write_bytes > 0);
    }

    #[test]
    fn constant_folding() {
        let e = lit(2i64).add(lit(3i64)).mul(dec2("1.50"));
        let c = eval_one(&e);
        let (m, s) = c.as_decimal().unwrap();
        assert_eq!((m[0], s), (750, 2));
    }
}
