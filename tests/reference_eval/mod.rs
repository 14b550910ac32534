//! The reference expression interpreter: the recursive, column-at-a-time
//! evaluator the materializing operators ran until the bytecode VM replaced
//! it (PR 16), kept — outside the build — as the oracle
//! `parallel_determinism::bytecode_vs_evaluator` compares the production
//! path against, column for column and charge for charge.
//!
//! This is the parent commit's `crates/engine/src/eval.rs` and the
//! conjunct loop of its `exec/filter.rs`, verbatim except for: the serial
//! `par_map_concat` stand-in, public-API import paths, and the `IN`-list
//! exactness fix in [`fixed_scalar`] that the same PR made in production.
//! Each primitive processes one whole column and records its work in a
//! [`WorkProfile`] as a side effect — the charges the compiled cost form
//! must reproduce.

#![allow(dead_code)]

use std::sync::Arc;

use std::collections::BTreeSet;
use std::ops::Range;

use wimpi::engine::expr::{BinOp, Expr};
use wimpi::engine::like::like_match;
use wimpi::engine::optimizer::split_conjuncts;
use wimpi::engine::{EngineConfig, EngineError, Relation, Result, WorkProfile};
use wimpi::storage::{Column, DictBuilder, DictColumn, Value};

/// The reference runs serially: one chunk, in row order.
fn par_map_concat<T>(_: &EngineConfig, n: usize, f: impl Fn(Range<usize>) -> Vec<T>) -> Vec<T> {
    f(0..n)
}

/// Evaluates expressions against one relation, accumulating work counters.
pub struct Interpreter<'a> {
    rel: &'a Relation,
    prof: &'a mut WorkProfile,
    cfg: EngineConfig,
}

/// An evaluated operand: a full column or an unmaterialized scalar.
enum Ev {
    Col(Arc<Column>),
    Scalar(Value),
}

/// A numeric operand view: fixed-point mantissas with a scale, or floats.
/// `Int64` and `Date`/`Int32` map to scale-0 fixed point.
enum Fixed<'v> {
    Slice(&'v [i64]),
    Owned(Vec<i64>),
    Const(i64),
}

impl Fixed<'_> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            Fixed::Slice(s) => s[i],
            Fixed::Owned(v) => v[i],
            Fixed::Const(c) => *c,
        }
    }
}

enum Float<'v> {
    Slice(&'v [f64]),
    Owned(Vec<f64>),
    Const(f64),
}

impl Float<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            Float::Slice(s) => s[i],
            Float::Owned(v) => v[i],
            Float::Const(c) => *c,
        }
    }
}

const POW10: [i64; 10] =
    [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Caps intermediate decimal scales; TPC-H's deepest products reach 4+2.
const MAX_SCALE: u8 = 6;

impl<'a> Interpreter<'a> {
    /// Creates a single-threaded evaluator over `rel`.
    pub fn new(rel: &'a Relation, prof: &'a mut WorkProfile) -> Self {
        Self::with_config(rel, prof, EngineConfig::serial())
    }

    /// Creates an evaluator whose element-wise primitives run morsel-parallel
    /// under `cfg`.
    pub fn with_config(rel: &'a Relation, prof: &'a mut WorkProfile, cfg: EngineConfig) -> Self {
        Self { rel, prof, cfg }
    }

    /// Evaluates `expr` to a full-length column.
    pub fn eval(&mut self, expr: &Expr) -> Result<Arc<Column>> {
        let n = self.rel.num_rows();
        match self.eval_ev(expr)? {
            Ev::Col(c) => Ok(c),
            Ev::Scalar(v) => Ok(Arc::new(Column::repeat(&v, n))),
        }
    }

    /// Evaluates a predicate to a boolean mask.
    pub fn eval_mask(&mut self, expr: &Expr) -> Result<Vec<bool>> {
        let c = self.eval(expr)?;
        Ok(c.as_bool()?.to_vec())
    }

    fn eval_ev(&mut self, expr: &Expr) -> Result<Ev> {
        match expr {
            Expr::Col(name) => Ok(Ev::Col(Arc::clone(self.rel.column(name)?))),
            Expr::Lit(v) => Ok(Ev::Scalar(v.clone())),
            Expr::Bin { op, left, right } => {
                let l = self.eval_ev(left)?;
                let r = self.eval_ev(right)?;
                self.eval_bin(*op, l, r)
            }
            Expr::Not(e) => {
                let v = self.eval_ev(e)?;
                let n = self.rel.num_rows();
                match v {
                    Ev::Scalar(Value::Bool(b)) => Ok(Ev::Scalar(Value::Bool(!b))),
                    Ev::Scalar(other) => {
                        Err(EngineError::Plan(format!("NOT applied to non-boolean {other:?}")))
                    }
                    Ev::Col(c) => {
                        let b = c.as_bool()?;
                        self.count(n as u64, n as u64, n as u64);
                        let out =
                            par_map_concat(&self.cfg, n, |r| b[r].iter().map(|x| !x).collect());
                        Ok(Ev::Col(Arc::new(Column::Bool(out))))
                    }
                }
            }
            Expr::Like { expr, pattern, negated } => {
                let v = self.eval_ev(expr)?;
                self.eval_like(v, pattern, *negated)
            }
            Expr::InList { expr, list, negated } => {
                let v = self.eval_ev(expr)?;
                self.eval_in(v, list, *negated)
            }
            Expr::Between { expr, low, high } => {
                // Desugar: expr >= low AND expr <= high.
                let desugared = (*expr.clone())
                    .gte(Expr::Lit(low.clone()))
                    .and((*expr.clone()).lte(Expr::Lit(high.clone())));
                self.eval_ev(&desugared)
            }
            Expr::Case { when, then, otherwise } => {
                let mask = self.eval_mask(when)?;
                let t = self.eval(then)?;
                let o = self.eval(otherwise)?;
                self.eval_case(&mask, &t, &o)
            }
            Expr::ExtractYear(e) => {
                let v = self.eval(e)?;
                let days = v.as_date()?;
                self.count(days.len() as u64, days.len() as u64 * 4, days.len() as u64 * 4);
                Ok(Ev::Col(Arc::new(Column::Int32(par_map_concat(&self.cfg, days.len(), |r| {
                    days[r].iter().map(|&d| wimpi_storage::Date32(d).year()).collect()
                })))))
            }
            Expr::Substr { expr, start, len } => {
                let v = self.eval(expr)?;
                let d = v.as_str()?;
                self.count(d.len() as u64, d.len() as u64 * 4, d.len() as u64 * 4);
                Ok(Ev::Col(Arc::new(Column::Str(substr_dict(d, *start, *len)))))
            }
        }
    }

    /// Records one primitive: `rows` ops, `read` and `written` bytes.
    fn count(&mut self, rows: u64, read: u64, written: u64) {
        self.prof.cpu_ops += rows;
        self.prof.seq_read_bytes += read;
        self.prof.seq_write_bytes += written;
    }

    fn eval_bin(&mut self, op: BinOp, l: Ev, r: Ev) -> Result<Ev> {
        if op.is_logical() {
            return self.eval_logical(op, l, r);
        }
        // Scalar-scalar folds immediately.
        if let (Ev::Scalar(a), Ev::Scalar(b)) = (&l, &r) {
            return Ok(Ev::Scalar(fold_scalar(op, a, b)?));
        }
        // String equality / inequality via dictionary masks.
        if is_str(&l) || is_str(&r) {
            return self.eval_str_cmp(op, l, r);
        }
        let n = self.rel.num_rows();
        let (wl, wr) = (ev_row_bytes(&l), ev_row_bytes(&r));
        let wout = if op.is_comparison() { 1 } else { 8 };
        // Try the fixed-point fast path first; fall back to floats.
        match (fixed_view(&l), fixed_view(&r)) {
            (Some((fa, sa)), Some((fb, sb))) => {
                self.charge_widths(n, wl, wr, wout);
                if op.is_comparison() {
                    Ok(Ev::Col(Arc::new(Column::Bool(cmp_fixed(
                        &self.cfg, op, &fa, sa, &fb, sb, n,
                    )))))
                } else {
                    arith_fixed(&self.cfg, op, &fa, sa, &fb, sb, n).map(|c| Ev::Col(Arc::new(c)))
                }
            }
            _ => {
                let fa = float_view(&l).ok_or_else(|| non_numeric(&l))?;
                let fb = float_view(&r).ok_or_else(|| non_numeric(&r))?;
                self.charge_widths(n, wl, wr, wout);
                if op.is_comparison() {
                    let out = par_map_concat(&self.cfg, n, |rg| {
                        rg.map(|i| cmp_f64(op, fa.get(i), fb.get(i))).collect()
                    });
                    Ok(Ev::Col(Arc::new(Column::Bool(out))))
                } else {
                    let out = par_map_concat(&self.cfg, n, |rg| {
                        rg.map(|i| arith_f64(op, fa.get(i), fb.get(i))).collect()
                    });
                    Ok(Ev::Col(Arc::new(Column::Float64(out))))
                }
            }
        }
    }

    /// Charges one vectorized primitive with byte-accurate column widths:
    /// dates and i32s stream 4 B/row, boolean masks 1 B/row — the
    /// difference decides whether Q6 is memory-bound on a Pi (DESIGN.md §2).
    fn charge_widths(&mut self, n: usize, wl: usize, wr: usize, wout: usize) {
        self.count(n as u64, (n * (wl + wr)) as u64, (n * wout) as u64);
    }

    fn eval_logical(&mut self, op: BinOp, l: Ev, r: Ev) -> Result<Ev> {
        let n = self.rel.num_rows();
        let to_mask = |ev: Ev| -> Result<Vec<bool>> {
            match ev {
                Ev::Scalar(Value::Bool(b)) => Ok(vec![b; n]),
                Ev::Scalar(v) => Err(EngineError::Plan(format!("logical op on non-boolean {v:?}"))),
                Ev::Col(c) => Ok(c.as_bool()?.to_vec()),
            }
        };
        let a = to_mask(l)?;
        let b = to_mask(r)?;
        self.count(n as u64, 2 * n as u64, n as u64);
        let out: Vec<bool> = match op {
            BinOp::And => par_map_concat(&self.cfg, n, |r| {
                a[r.clone()].iter().zip(&b[r]).map(|(x, y)| *x && *y).collect()
            }),
            BinOp::Or => par_map_concat(&self.cfg, n, |r| {
                a[r.clone()].iter().zip(&b[r]).map(|(x, y)| *x || *y).collect()
            }),
            _ => unreachable!("eval_logical only handles AND/OR"),
        };
        Ok(Ev::Col(Arc::new(Column::Bool(out))))
    }

    fn eval_str_cmp(&mut self, op: BinOp, l: Ev, r: Ev) -> Result<Ev> {
        let (col, scalar, flipped) = match (&l, &r) {
            (Ev::Col(c), Ev::Scalar(Value::Str(s))) => (c, s.clone(), false),
            (Ev::Scalar(Value::Str(s)), Ev::Col(c)) => (c, s.clone(), true),
            (Ev::Col(a), Ev::Col(b)) => {
                // Column-vs-column string comparison: decode row-wise.
                let da = a.as_str()?;
                let db = b.as_str()?;
                let n = da.len();
                self.count(n as u64, 2 * n as u64 * 4, n as u64);
                let out = par_map_concat(&self.cfg, n, |r| {
                    r.map(|i| cmp_ord(op, da.get(i).cmp(db.get(i)))).collect()
                });
                return Ok(Ev::Col(Arc::new(Column::Bool(out))));
            }
            _ => {
                return Err(EngineError::Plan(
                    "string comparison requires a string column".to_string(),
                ))
            }
        };
        let d = col.as_str()?;
        // One comparison per dictionary value, then a code-indexed map.
        let dict_mask: Vec<bool> = d
            .values()
            .iter()
            .map(|v| {
                let ord = if flipped {
                    scalar.as_str().cmp(v.as_str())
                } else {
                    v.as_str().cmp(scalar.as_str())
                };
                cmp_ord(op, ord)
            })
            .collect();
        let n = d.len();
        self.count((n + d.cardinality()) as u64, n as u64 * 4, n as u64);
        let codes = d.codes();
        let out = par_map_concat(&self.cfg, n, |r| {
            codes[r].iter().map(|&c| dict_mask[c as usize]).collect()
        });
        Ok(Ev::Col(Arc::new(Column::Bool(out))))
    }

    fn eval_like(&mut self, v: Ev, pattern: &str, negated: bool) -> Result<Ev> {
        match v {
            Ev::Scalar(Value::Str(s)) => {
                Ok(Ev::Scalar(Value::Bool(like_match(&s, pattern) != negated)))
            }
            Ev::Scalar(v) => Err(EngineError::Plan(format!("LIKE on non-string {v:?}"))),
            Ev::Col(c) => {
                let d = c.as_str()?;
                let dict_mask: Vec<bool> =
                    d.values().iter().map(|s| like_match(s, pattern) != negated).collect();
                let n = d.len();
                // Executed over the dictionary, but charged per *row* over
                // raw strings — what MonetDB (no dictionary on text) pays;
                // see DESIGN.md §2 on the comment-pool substitution.
                self.count(n as u64 * (2 + pattern.len() as u64 / 4), n as u64 * 32, n as u64);
                let codes = d.codes();
                let out = par_map_concat(&self.cfg, n, |r| {
                    codes[r].iter().map(|&c| dict_mask[c as usize]).collect()
                });
                Ok(Ev::Col(Arc::new(Column::Bool(out))))
            }
        }
    }

    fn eval_in(&mut self, v: Ev, list: &[Value], negated: bool) -> Result<Ev> {
        let n = self.rel.num_rows();
        match &v {
            Ev::Col(c) => match &**c {
                Column::Str(d) => {
                    let wanted: Vec<&str> = list.iter().filter_map(|v| v.as_str()).collect();
                    if wanted.len() != list.len() {
                        return Err(EngineError::Plan("IN list type mismatch".to_string()));
                    }
                    let dict_mask: Vec<bool> = d
                        .values()
                        .iter()
                        .map(|s| wanted.contains(&s.as_str()) != negated)
                        .collect();
                    self.count((n + d.cardinality() * wanted.len()) as u64, n as u64 * 4, n as u64);
                    let codes = d.codes();
                    Ok(Ev::Col(Arc::new(Column::Bool(par_map_concat(&self.cfg, n, |r| {
                        codes[r].iter().map(|&c| dict_mask[c as usize]).collect()
                    })))))
                }
                _ => {
                    let (f, scale) = fixed_view(&v).ok_or_else(|| non_numeric(&v))?;
                    let rescaled: Vec<Option<i64>> = list
                        .iter()
                        .map(|l| {
                            fixed_scalar(l, scale).ok_or_else(|| {
                                EngineError::Plan("IN list type mismatch".to_string())
                            })
                        })
                        .collect::<Result<_>>()?;
                    let wanted: Vec<i64> = rescaled.into_iter().flatten().collect();
                    self.count(n as u64 * wanted.len() as u64, n as u64 * 8, n as u64);
                    let out = par_map_concat(&self.cfg, n, |r| {
                        r.map(|i| wanted.contains(&f.get(i)) != negated).collect()
                    });
                    Ok(Ev::Col(Arc::new(Column::Bool(out))))
                }
            },
            Ev::Scalar(s) => Ok(Ev::Scalar(Value::Bool(list.contains(s) != negated))),
        }
    }

    fn eval_case(&mut self, mask: &[bool], t: &Column, o: &Column) -> Result<Ev> {
        let n = mask.len();
        self.count(n as u64, 2 * n as u64 * 8, n as u64 * 8);
        let out = match (t, o) {
            (Column::Decimal(a, sa), Column::Decimal(b, sb)) => {
                let s = (*sa).max(*sb);
                let fa = POW10[(s - sa) as usize];
                let fb = POW10[(s - sb) as usize];
                Column::Decimal(
                    par_map_concat(&self.cfg, n, |r| {
                        r.map(|i| if mask[i] { a[i] * fa } else { b[i] * fb }).collect()
                    }),
                    s,
                )
            }
            (Column::Int64(a), Column::Int64(b)) => {
                Column::Int64(par_map_concat(&self.cfg, n, |r| {
                    r.map(|i| if mask[i] { a[i] } else { b[i] }).collect()
                }))
            }
            (Column::Float64(a), Column::Float64(b)) => {
                Column::Float64(par_map_concat(&self.cfg, n, |r| {
                    r.map(|i| if mask[i] { a[i] } else { b[i] }).collect()
                }))
            }
            _ => {
                // Mixed numeric types fall back to floats.
                let ta = Ev::Col(Arc::new(t.clone()));
                let tb = Ev::Col(Arc::new(o.clone()));
                let fa = float_view(&ta)
                    .ok_or_else(|| EngineError::Plan("CASE branch not numeric".into()))?;
                let fb = float_view(&tb)
                    .ok_or_else(|| EngineError::Plan("CASE branch not numeric".into()))?;
                Column::Float64(par_map_concat(&self.cfg, n, |r| {
                    r.map(|i| if mask[i] { fa.get(i) } else { fb.get(i) }).collect()
                }))
            }
        };
        Ok(Ev::Col(Arc::new(out)))
    }
}

/// Streamed bytes per row an operand contributes (0 for unmaterialized
/// scalars; dictionary strings stream their 4-byte codes).
fn ev_row_bytes(ev: &Ev) -> usize {
    match ev {
        Ev::Scalar(_) => 0,
        Ev::Col(c) => match &**c {
            Column::Int64(_) | Column::Float64(_) | Column::Decimal(_, _) => 8,
            Column::Int32(_) | Column::Date(_) | Column::Str(_) => 4,
            Column::Bool(_) => 1,
        },
    }
}

fn is_str(ev: &Ev) -> bool {
    matches!(ev, Ev::Col(c) if matches!(&**c, Column::Str(_)))
        || matches!(ev, Ev::Scalar(Value::Str(_)))
}

fn non_numeric(ev: &Ev) -> EngineError {
    let what = match ev {
        Ev::Col(c) => format!("column of type {}", c.data_type()),
        Ev::Scalar(v) => format!("scalar {v:?}"),
    };
    EngineError::Plan(format!("expected numeric operand, got {what}"))
}

/// Views an operand as fixed-point mantissas plus scale.
fn fixed_view<'v>(ev: &'v Ev) -> Option<(Fixed<'v>, u8)> {
    match ev {
        Ev::Col(c) => match &**c {
            Column::Int64(v) => Some((Fixed::Slice(v), 0)),
            Column::Decimal(v, s) => Some((Fixed::Slice(v), *s)),
            Column::Int32(v) => Some((Fixed::Owned(v.iter().map(|&x| x as i64).collect()), 0)),
            Column::Date(v) => Some((Fixed::Owned(v.iter().map(|&x| x as i64).collect()), 0)),
            _ => None,
        },
        Ev::Scalar(v) => fixed_scalar_any(v),
    }
}

fn fixed_scalar_any(v: &Value) -> Option<(Fixed<'static>, u8)> {
    match v {
        Value::I64(x) => Some((Fixed::Const(*x), 0)),
        Value::I32(x) => Some((Fixed::Const(*x as i64), 0)),
        Value::Dec(d) => Some((Fixed::Const(d.mantissa()), d.scale())),
        Value::Date(d) => Some((Fixed::Const(d.0 as i64), 0)),
        _ => None,
    }
}

/// A scalar rescaled to `scale` mantissa units: `None` if not numeric,
/// `Some(None)` if it has digits below `scale` and so equals no stored value
/// (the one change from the parent, which truncated it — the `IN`-list bug).
fn fixed_scalar(v: &Value, scale: u8) -> Option<Option<i64>> {
    let (f, s) = fixed_scalar_any(v)?;
    let m = match f {
        Fixed::Const(m) => m,
        _ => unreachable!("scalars are Const"),
    };
    Some(if s <= scale {
        Some(m * POW10[(scale - s) as usize])
    } else {
        let div = POW10[(s - scale) as usize];
        (m % div == 0).then_some(m / div)
    })
}

/// Views an operand as floats (integers/decimals are converted).
fn float_view<'v>(ev: &'v Ev) -> Option<Float<'v>> {
    match ev {
        Ev::Col(c) => match &**c {
            Column::Float64(v) => Some(Float::Slice(v)),
            Column::Int64(v) => Some(Float::Owned(v.iter().map(|&x| x as f64).collect())),
            Column::Int32(v) => Some(Float::Owned(v.iter().map(|&x| x as f64).collect())),
            Column::Decimal(v, s) => {
                let div = POW10[*s as usize] as f64;
                Some(Float::Owned(v.iter().map(|&x| x as f64 / div).collect()))
            }
            _ => None,
        },
        Ev::Scalar(v) => v.as_f64().map(Float::Const),
    }
}

fn cmp_ord(op: BinOp, ord: std::cmp::Ordering) -> bool {
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

fn cmp_fixed(
    cfg: &EngineConfig,
    op: BinOp,
    a: &Fixed,
    sa: u8,
    b: &Fixed,
    sb: u8,
    n: usize,
) -> Vec<bool> {
    let s = sa.max(sb);
    let fa = POW10[(s - sa) as usize] as i128;
    let fb = POW10[(s - sb) as usize] as i128;
    par_map_concat(cfg, n, |r| {
        r.map(|i| cmp_ord(op, (a.get(i) as i128 * fa).cmp(&(b.get(i) as i128 * fb)))).collect()
    })
}

fn cmp_f64(op: BinOp, a: f64, b: f64) -> bool {
    cmp_ord(op, a.total_cmp(&b))
}

fn arith_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => unreachable!("arith_f64 on non-arithmetic"),
    }
}

fn arith_fixed(
    cfg: &EngineConfig,
    op: BinOp,
    a: &Fixed,
    sa: u8,
    b: &Fixed,
    sb: u8,
    n: usize,
) -> Result<Column> {
    match op {
        BinOp::Add | BinOp::Sub => {
            let s = sa.max(sb);
            let fa = POW10[(s - sa) as usize];
            let fb = POW10[(s - sb) as usize];
            let out: Vec<i64> = if op == BinOp::Add {
                par_map_concat(cfg, n, |r| r.map(|i| a.get(i) * fa + b.get(i) * fb).collect())
            } else {
                par_map_concat(cfg, n, |r| r.map(|i| a.get(i) * fa - b.get(i) * fb).collect())
            };
            Ok(Column::Decimal(out, s))
        }
        BinOp::Mul => {
            let s = sa + sb;
            if s > MAX_SCALE {
                let div = POW10[(s - MAX_SCALE) as usize] as i128;
                let out: Vec<i64> = par_map_concat(cfg, n, |r| {
                    r.map(|i| ((a.get(i) as i128 * b.get(i) as i128) / div) as i64).collect()
                });
                Ok(Column::Decimal(out, MAX_SCALE))
            } else {
                let out: Vec<i64> =
                    par_map_concat(cfg, n, |r| r.map(|i| a.get(i) * b.get(i)).collect());
                Ok(Column::Decimal(out, s))
            }
        }
        BinOp::Div => {
            let da = POW10[sa as usize] as f64;
            let db = POW10[sb as usize] as f64;
            let out: Vec<f64> = par_map_concat(cfg, n, |r| {
                r.map(|i| (a.get(i) as f64 / da) / (b.get(i) as f64 / db)).collect()
            });
            Ok(Column::Float64(out))
        }
        _ => unreachable!("arith_fixed on non-arithmetic"),
    }
}

/// Scalar-scalar constant folding.
fn fold_scalar(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if op.is_comparison() {
        return Ok(Value::Bool(cmp_ord(op, a.total_cmp(b))));
    }
    match (fixed_scalar_any(a), fixed_scalar_any(b)) {
        (Some((Fixed::Const(ma), sa)), Some((Fixed::Const(mb), sb))) if op != BinOp::Div => {
            let c = arith_fixed(
                &EngineConfig::serial(),
                op,
                &Fixed::Const(ma),
                sa,
                &Fixed::Const(mb),
                sb,
                1,
            )?;
            Ok(c.value(0))
        }
        _ => {
            let fa = a.as_f64().ok_or_else(|| EngineError::Plan("non-numeric fold".into()))?;
            let fb = b.as_f64().ok_or_else(|| EngineError::Plan("non-numeric fold".into()))?;
            Ok(Value::F64(arith_f64(op, fa, fb)))
        }
    }
}

/// Applies substring to every dictionary value, re-interning the results.
fn substr_dict(d: &DictColumn, start: usize, len: usize) -> DictColumn {
    let subs: Vec<String> = d
        .values()
        .iter()
        .map(|v| {
            let chars: Vec<char> = v.chars().collect();
            let from = (start.saturating_sub(1)).min(chars.len());
            let to = (from + len).min(chars.len());
            chars[from..to].iter().collect()
        })
        .collect();
    let mut b = DictBuilder::with_capacity(d.len());
    for &code in d.codes() {
        b.push(&subs[code as usize]);
    }
    b.finish()
}

/// The parent's materializing filter: conjunct by conjunct, the first over
/// full columns, every later one over a gathered sub-relation of the
/// surviving candidates, then one gather of every column.
pub fn reference_filter(
    rel: &Relation,
    predicate: &Expr,
    prof: &mut WorkProfile,
) -> Result<Relation> {
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate.clone(), &mut conjuncts);
    let mut sel: Option<Vec<u32>> = None;
    for conjunct in conjuncts {
        let needed: BTreeSet<String> = conjunct.column_set();
        if needed.is_empty() {
            let one = Relation::new(vec![("__const".into(), Arc::new(Column::Bool(vec![true])))])?;
            prof.cpu_ops += 1;
            let keep = Interpreter::new(&one, prof).eval_mask(&conjunct)?[0];
            if !keep {
                sel = Some(Vec::new());
                break;
            }
            if sel.is_none() {
                sel = Some((0..rel.num_rows() as u32).collect());
            }
            continue;
        }
        sel = Some(match sel.take() {
            None => (Interpreter::new(rel, prof).eval_mask(&conjunct)?.into_iter().zip(0u32..))
                .filter_map(|(keep, i)| keep.then_some(i))
                .collect(),
            Some(candidates) => {
                if candidates.is_empty() {
                    sel = Some(candidates);
                    break;
                }
                let fields = rel
                    .fields()
                    .iter()
                    .filter(|(n, _)| needed.contains(n))
                    .map(|(n, c)| (n.clone(), Arc::new(c.take(&candidates))))
                    .collect::<Vec<_>>();
                let sub = Relation::new(fields)?;
                prof.seq_read_bytes += sub.stream_bytes() as u64;
                prof.seq_write_bytes += sub.stream_bytes() as u64;
                prof.cpu_ops += candidates.len() as u64;
                let mask = Interpreter::new(&sub, prof).eval_mask(&conjunct)?;
                candidates.iter().zip(&mask).filter(|(_, &m)| m).map(|(&i, _)| i).collect()
            }
        });
    }
    let sel = sel.unwrap_or_default();
    let out = rel.take(&sel);
    prof.seq_read_bytes += out.stream_bytes() as u64;
    prof.seq_write_bytes += out.stream_bytes() as u64;
    prof.cpu_ops += (sel.len() * rel.num_columns().max(1)) as u64;
    Ok(out)
}
