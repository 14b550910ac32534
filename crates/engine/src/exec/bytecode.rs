//! The expression evaluator (DESIGN.md §2, §13): compile once, run over
//! morsels.
//!
//! [`Program::compile`] lowers an [`Expr`] tree into a flat postfix program
//! evaluated by a small vectorized stack VM. Every slot is an `i64` in
//! exactly the [`super::key_values`] encoding — decimal mantissas,
//! dictionary codes, `f64::to_bits`, widened narrow integers. Both executors
//! run it the same way: filters and the aggregation fold per morsel over
//! selection vectors ([`Program::filter_range`], [`Program::filter_sel`],
//! `Program::slots_of`), projections column-at-a-time through
//! [`Program::eval_column`].
//!
//! Compilation is total over well-typed expressions and is where type errors
//! surface, as the [`EngineError`] the query reports. String predicates
//! compile to per-dictionary-value masks indexed by code; computed strings
//! (`SUBSTR`, string literals) to a code remap into a dictionary the program
//! carries; string column-vs-column compares decode both sides row-wise.
//!
//! Compilation also yields the expression's [`Cost`]: the work MonetDB-style
//! full materialization performs for it — one primitive per node, streaming
//! its operands in and its result out — as per-row rates plus the
//! per-dictionary constants. The materializing price list charges that form
//! for the rows each expression was evaluated over; the fused list charges
//! only the base columns it streams ([`Program::width_bytes`]). Both price
//! the same loops of the same run.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use super::parallel::{morsel_ranges, run_morsels, EngineConfig};
use crate::error::{EngineError, Result};
use crate::eval::{self, POW10};
use crate::expr::{BinOp, Expr};
use crate::like::like_match;
use crate::relation::Relation;
use crate::stats::WorkProfile;
use wimpi_storage::{Column, DataType, Date32, DictBuilder, DictColumn, StorageError, Value};

/// Compile-time type of a VM slot, and of the column it materializes as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Raw `i64`.
    I64,
    /// `i32` widened to `i64`.
    I32,
    /// Days since epoch, widened to `i64`.
    Date,
    /// Decimal mantissa at the given scale.
    Dec(u8),
    /// `f64` carried as `to_bits() as i64`.
    F64,
    /// `bool` as 0/1.
    Bool,
    /// Dictionary code widened to `i64`.
    Str,
}

impl Ty {
    pub(crate) fn of_column(c: &Column) -> Ty {
        match c {
            Column::Int64(_) => Ty::I64,
            Column::Int32(_) => Ty::I32,
            Column::Date(_) => Ty::Date,
            Column::Decimal(_, s) => Ty::Dec(*s),
            Column::Float64(_) => Ty::F64,
            Column::Bool(_) => Ty::Bool,
            Column::Str(_) => Ty::Str,
        }
    }

    /// The column type this slot type materializes as.
    pub fn data_type(self) -> DataType {
        match self {
            Ty::I64 => DataType::Int64,
            Ty::I32 => DataType::Int32,
            Ty::Date => DataType::Date,
            Ty::Dec(s) => DataType::Decimal(s),
            Ty::F64 => DataType::Float64,
            Ty::Bool => DataType::Bool,
            Ty::Str => DataType::Utf8,
        }
    }

    /// Fixed-point scale, if this type is on the fixed-point path.
    fn fixed_scale(self) -> Option<u8> {
        match self {
            Ty::I64 | Ty::I32 | Ty::Date => Some(0),
            Ty::Dec(s) => Some(s),
            Ty::F64 | Ty::Bool | Ty::Str => None,
        }
    }

    /// Streamed bytes per row: dates and `i32`s stream 4 B, boolean masks
    /// 1 B, dictionary strings their 4-byte codes — the difference decides
    /// whether Q6 is memory-bound on a Pi (DESIGN.md §2).
    pub(crate) fn width(self) -> u64 {
        match self {
            Ty::I64 | Ty::Dec(_) | Ty::F64 => 8,
            Ty::I32 | Ty::Date | Ty::Str => 4,
            Ty::Bool => 1,
        }
    }
}

/// Which dictionary a `Str` slot's codes index: a bound column's own, or
/// one the program carries for a computed string.
#[derive(Debug, Clone, Copy)]
enum Dict {
    Col(u16),
    Pool(u16),
}

/// One postfix VM instruction. Operands live on an `i64` stack.
#[derive(Debug, Clone)]
enum Op {
    /// Push column slot (key_values encoding) for the current row.
    Load(u16),
    /// Push an immediate slot.
    Const(i64),
    /// Fixed-point comparison: pop b, a; push `cmp(a*fa, b*fb)`.
    CmpFixed {
        op: BinOp,
        fa: i128,
        fb: i128,
    },
    /// Fixed-point add/sub after rescaling both mantissas.
    AddFixed {
        fa: i64,
        fb: i64,
    },
    SubFixed {
        fa: i64,
        fb: i64,
    },
    /// Fixed-point multiply; scales add.
    MulFixed,
    /// Fixed-point multiply whose result scale is capped: `(a*b)/div`.
    MulFixedCapped {
        div: i128,
    },
    /// Fixed-point divide: floats out, `(a/da)/(b/db)`.
    DivFixed {
        da: f64,
        db: f64,
    },
    /// Convert a fixed slot to an f64 slot: `(m as f64) / div`.
    FixedToF64 {
        div: f64,
    },
    /// Float comparison via `total_cmp`, operands are f64 bit patterns.
    CmpF64 {
        op: BinOp,
    },
    /// Float arithmetic, operands and result are f64 bit patterns.
    ArithF64 {
        op: BinOp,
    },
    /// Boolean connectives over 0/1 slots (both sides already evaluated).
    And,
    Or,
    Not,
    /// Pop a dictionary code; push `masks[mask][code]`.
    DictMask {
        mask: u16,
    },
    /// Pop a code; push its image in pooled dictionary `table` (`SUBSTR`).
    Remap {
        table: u16,
    },
    /// Pop codes b, a; push the comparison of the strings they decode to.
    CmpStr {
        op: BinOp,
        a: Dict,
        b: Dict,
    },
    /// Pop a mantissa; push `lists[list].contains(m) != negated`.
    InFixed {
        list: u16,
        negated: bool,
    },
    /// Pop days-since-epoch; push the calendar year.
    Year,
    /// Push a copy of the slots an earlier step of a [`MultiProgram`]
    /// evaluated: a subtree this program shares with another.
    Input(u16),
    /// Pop otherwise, then, cond; push the picked branch (same repr).
    CaseRaw,
    /// CaseRaw for decimal branches rescaled to a common scale.
    CaseFixed {
        ft: i64,
        fo: i64,
    },
}

/// Specialized single-pass predicate forms recognized by a peephole pass,
/// so the most common conjuncts (`col <cmp> const`, string membership,
/// numeric IN / BETWEEN) skip interpreter dispatch entirely. Zone-map
/// pruning (`exec::prune`) interprets the same forms against per-morsel
/// column summaries, which is why they are crate-visible.
#[derive(Debug, Clone)]
pub(crate) enum Quick {
    CmpConst { col: u16, op: BinOp, fa: i128, rhs: i128 },
    Dict { col: u16, mask: u16 },
    InFixed { col: u16, list: u16, negated: bool },
    RangeFixed { col: u16, fa_lo: i128, lo: i128, fa_hi: i128, hi: i128 },
}

/// A borrowed typed view of one bound column, read per row by the VM.
enum ColView<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
    Date(&'a [i32]),
    Dec(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a [u32]),
}

impl ColView<'_> {
    #[inline]
    fn slot(&self, i: usize) -> i64 {
        match self {
            ColView::I64(v) | ColView::Dec(v) => v[i],
            ColView::I32(v) | ColView::Date(v) => v[i] as i64,
            ColView::F64(v) => v[i].to_bits() as i64,
            ColView::Bool(v) => v[i] as i64,
            ColView::Str(v) => v[i] as i64,
        }
    }
}

/// The row set one batch evaluation runs over: a dense morsel range, or row
/// ids — the survivors of an upstream selection vector, ascending (the only
/// form a filter takes), or a morsel's rows in the order of their groups.
pub(crate) enum Rows<'a> {
    Dense(Range<usize>),
    Sparse(&'a [u32]),
}

impl Rows<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Dense(r) => r.len(),
            Rows::Sparse(s) => s.len(),
        }
    }

    /// The row id of the `i`-th row of the set.
    #[inline]
    pub(crate) fn id(&self, i: usize) -> u32 {
        match self {
            Rows::Dense(r) => (r.start + i) as u32,
            Rows::Sparse(s) => s[i],
        }
    }
}

/// One vectorized VM stack entry: a scalar constant, or a pooled buffer
/// holding the value for every row in the batch.
enum Slot {
    S(i64),
    V(Vec<i64>),
}

impl Slot {
    #[inline]
    fn at(&self, j: usize) -> i64 {
        match self {
            Slot::S(k) => *k,
            Slot::V(v) => v[j],
        }
    }

    fn free(self) {
        if let Slot::V(v) = self {
            put_slots(v);
        }
    }
}

/// Gathers one column into slot encoding for a whole batch, with the column
/// variant matched once outside the copy loop.
fn load_batch(view: &ColView, rows: &Rows, out: &mut Vec<i64>) {
    out.clear();
    out.reserve(rows.len());
    macro_rules! go {
        ($v:ident, $x:ident, $conv:expr) => {
            match rows {
                Rows::Dense(r) => out.extend($v[r.clone()].iter().map(|&$x| $conv)),
                Rows::Sparse(s) => out.extend(s.iter().map(|&i| {
                    let $x = $v[i as usize];
                    $conv
                })),
            }
        };
    }
    match view {
        ColView::I64(v) | ColView::Dec(v) => go!(v, x, x),
        ColView::I32(v) | ColView::Date(v) => go!(v, x, x as i64),
        ColView::F64(v) => go!(v, x, x.to_bits() as i64),
        ColView::Bool(v) => go!(v, x, x as i64),
        ColView::Str(v) => go!(v, x, x as i64),
    }
}

/// Vectorized three-way select (`CaseRaw` / `CaseFixed`): pops otherwise,
/// then, and condition, pushing the per-row select with the `CaseFixed`
/// rescale factors applied to whichever branch was taken.
fn case_batch(stack: &mut Vec<Slot>, ft: i64, fo: i64) {
    let o = stack.pop().expect("stack");
    let t = stack.pop().expect("stack");
    let c = stack.pop().expect("stack");
    let out = match c {
        Slot::S(c0) => {
            let (keep, drop, f) = if c0 != 0 { (t, o, ft) } else { (o, t, fo) };
            drop.free();
            match keep {
                Slot::S(k) => Slot::S(k * f),
                Slot::V(mut v) => {
                    if f != 1 {
                        for p in v.iter_mut() {
                            *p *= f;
                        }
                    }
                    Slot::V(v)
                }
            }
        }
        Slot::V(mut cv) => {
            for (j, c) in cv.iter_mut().enumerate() {
                *c = if *c != 0 { t.at(j) * ft } else { o.at(j) * fo };
            }
            t.free();
            o.free();
            Slot::V(cv)
        }
    };
    stack.push(out);
}

/// The full-materialization work of one expression, linear in the rows it
/// is evaluated over: per-row rates summed over the expression's nodes, plus
/// the per-dictionary constants (one comparison per distinct value for a
/// string compare, `cardinality × list length` for a string `IN`), which are
/// paid even over zero rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cost {
    ops: u64,
    read: u64,
    written: u64,
    dict_ops: u64,
}

impl Cost {
    /// `nodes` `AND`/`OR` primitives: two masks in, one out, each.
    pub(crate) fn logical(nodes: u64) -> Cost {
        Cost { ops: nodes, read: 2 * nodes, written: nodes, dict_ops: 0 }
    }

    fn node(&mut self, ops: u64, read: u64, written: u64) {
        self.add(&Cost { ops, read, written, dict_ops: 0 });
    }

    pub(crate) fn add(&mut self, o: &Cost) {
        self.ops += o.ops;
        self.read += o.read;
        self.written += o.written;
        self.dict_ops += o.dict_ops;
    }

    /// Charges one evaluation over `rows` rows.
    pub(crate) fn charge(&self, rows: u64, prof: &mut WorkProfile) {
        prof.cpu_ops += rows * self.ops + self.dict_ops;
        prof.seq_read_bytes += rows * self.read;
        prof.seq_write_bytes += rows * self.written;
    }
}

/// A compiled expression: postfix ops plus the constant pools and column
/// bindings they index. Compiled once per query, shared across workers.
pub struct Program {
    ops: Arc<Vec<Op>>,
    cols: Vec<Arc<Column>>,
    masks: Vec<Vec<bool>>,
    lists: Vec<Vec<i64>>,
    /// Computed-string dictionaries: `values()` is the dictionary, `codes()`
    /// the remap from the source dictionary's codes into it.
    remaps: Vec<DictColumn>,
    out: Ty,
    out_dict: Option<Dict>,
    cost: Cost,
    quick: Option<Quick>,
}

/// Result of compiling one sub-expression: a (possibly empty) op fragment
/// plus what it leaves behind — a constant that folds, or a typed slot on
/// the stack.
struct Frag {
    ops: Vec<Op>,
    out: Out,
}

enum Out {
    Scalar(Value),
    Col(Ty),
    Str(Dict),
}

impl Frag {
    fn scalar(v: Value) -> Frag {
        Frag { ops: Vec::new(), out: Out::Scalar(v) }
    }
    fn is_str(&self) -> bool {
        matches!(self.out, Out::Str(_) | Out::Scalar(Value::Str(_)))
    }
    /// Streamed bytes per row this operand contributes (0 for scalars).
    fn width(&self) -> u64 {
        match self.out {
            Out::Scalar(_) => 0,
            Out::Col(ty) => ty.width(),
            Out::Str(_) => Ty::Str.width(),
        }
    }
}

fn plan(msg: impl Into<String>) -> EngineError {
    EngineError::Plan(msg.into())
}

/// The error a typed column accessor reports for the wrong column type.
fn mismatch(expected: &str, actual: Ty) -> EngineError {
    EngineError::Storage(StorageError::TypeMismatch {
        expected: expected.to_string(),
        actual: actual.data_type().to_string(),
    })
}

fn non_numeric(out: &Out) -> EngineError {
    let what = match out {
        Out::Scalar(v) => format!("scalar {v:?}"),
        Out::Col(ty) => format!("column of type {}", ty.data_type()),
        Out::Str(_) => format!("column of type {}", DataType::Utf8),
    };
    plan(format!("expected numeric operand, got {what}"))
}

/// The 1-based, `len`-character substring SQL's `SUBSTRING` takes.
fn substr(v: &str, start: usize, len: usize) -> String {
    v.chars().skip(start.saturating_sub(1)).take(len).collect()
}

struct Compiler<'r> {
    rel: &'r Relation,
    /// The subtrees earlier steps of a [`MultiProgram`] evaluate, with the
    /// slot type of each one its containing steps read: it compiles to an
    /// `Op::Input` of its step.
    steps: &'r [(&'r Expr, Option<Ty>)],
    cols: Vec<(String, Arc<Column>)>,
    masks: Vec<Vec<bool>>,
    lists: Vec<Vec<i64>>,
    remaps: Vec<DictColumn>,
    cost: Cost,
}

/// Pushes into a constant pool addressed by `u16`.
fn pool<T>(pool: &mut Vec<T>, item: T) -> Result<u16> {
    let i = u16::try_from(pool.len())
        .map_err(|_| EngineError::Unsupported("expression exceeds 65536 pool entries".into()))?;
    pool.push(item);
    Ok(i)
}

impl<'r> Compiler<'r> {
    fn col_index(&mut self, name: &str) -> Result<u16> {
        if let Some(i) = self.cols.iter().position(|(n, _)| n == name) {
            return Ok(i as u16);
        }
        let c = Arc::clone(self.rel.column(name)?);
        pool(&mut self.cols, (name.to_string(), c))
    }

    fn dict_values(&self, d: Dict) -> &[String] {
        match d {
            Dict::Col(i) => match &*self.cols[i as usize].1 {
                Column::Str(d) => d.values(),
                _ => unreachable!("Dict::Col names a string column"),
            },
            Dict::Pool(i) => self.remaps[i as usize].values(),
        }
    }

    /// Materializes a fragment as a typed slot: a scalar becomes the
    /// constant column `Column::repeat` would broadcast it to.
    fn to_slot(frag: Frag) -> (Vec<Op>, Ty) {
        let mut ops = frag.ops;
        let (slot, ty) = match frag.out {
            Out::Col(ty) => return (ops, ty),
            Out::Str(_) => return (ops, Ty::Str),
            Out::Scalar(v) => match v {
                Value::I64(x) => (x, Ty::I64),
                Value::I32(x) => (x as i64, Ty::I32),
                Value::Date(d) => (d.0 as i64, Ty::Date),
                Value::Dec(d) => (d.mantissa(), Ty::Dec(d.scale())),
                Value::Bool(b) => (b as i64, Ty::Bool),
                Value::F64(f) => (f.to_bits() as i64, Ty::F64),
                // Code 0 of the one-value dictionary `str_slot` pools.
                Value::Str(_) => (0, Ty::Str),
            },
        };
        ops.push(Op::Const(slot));
        (ops, ty)
    }

    /// Materializes a string fragment together with the dictionary its
    /// codes index; a literal gets a one-value pooled dictionary.
    fn str_slot(&mut self, frag: Frag) -> Result<(Vec<Op>, Dict)> {
        match frag.out {
            Out::Str(d) => Ok((frag.ops, d)),
            Out::Scalar(Value::Str(s)) => {
                let d = pool(&mut self.remaps, std::iter::once(s.as_str()).collect())?;
                Ok((vec![Op::Const(0)], Dict::Pool(d)))
            }
            _ => Err(mismatch("utf8", Self::to_slot(frag).1)),
        }
    }

    /// Appends the conversion of a `ty` slot to an `f64` slot; `None` for
    /// types with no numeric reading (dates, booleans, strings).
    fn f64_ops(mut ops: Vec<Op>, ty: Ty) -> Option<Vec<Op>> {
        match ty {
            Ty::F64 => {}
            Ty::I64 | Ty::I32 => ops.push(Op::FixedToF64 { div: 1.0 }),
            Ty::Dec(s) => ops.push(Op::FixedToF64 { div: POW10[s as usize] as f64 }),
            Ty::Date | Ty::Bool | Ty::Str => return None,
        }
        Some(ops)
    }

    /// An operand on the float path: scalars convert here, through
    /// [`Value::as_f64`]; slots convert per row.
    fn to_f64_slot(frag: Frag) -> Option<Vec<Op>> {
        if let Out::Scalar(v) = &frag.out {
            return Some(vec![Op::Const(v.as_f64()?.to_bits() as i64)]);
        }
        let (ops, ty) = Self::to_slot(frag);
        Self::f64_ops(ops, ty)
    }

    fn compile(&mut self, e: &Expr) -> Result<Frag> {
        let step = self.steps.iter().enumerate().find(|(_, &(s, ty))| ty.is_some() && s == e);
        if let Some((k, &(_, Some(ty)))) = step {
            let input = u16::try_from(k).map_err(|_| plan("expression exceeds 65536 steps"))?;
            return Ok(Frag { ops: vec![Op::Input(input)], out: Out::Col(ty) });
        }
        match e {
            Expr::Col(name) => {
                let i = self.col_index(name)?;
                let out = match Ty::of_column(&self.cols[i as usize].1) {
                    Ty::Str => Out::Str(Dict::Col(i)),
                    ty => Out::Col(ty),
                };
                Ok(Frag { ops: vec![Op::Load(i)], out })
            }
            Expr::Lit(v) => Ok(Frag::scalar(v.clone())),
            Expr::Bin { op, left, right } => self.compile_bin(*op, left, right),
            Expr::Not(inner) => {
                let f = self.compile(inner)?;
                match f.out {
                    Out::Scalar(Value::Bool(b)) => Ok(Frag::scalar(Value::Bool(!b))),
                    Out::Scalar(v) => Err(plan(format!("NOT applied to non-boolean {v:?}"))),
                    Out::Col(Ty::Bool) => {
                        self.cost.node(1, 1, 1);
                        let mut ops = f.ops;
                        ops.push(Op::Not);
                        Ok(Frag { ops, out: Out::Col(Ty::Bool) })
                    }
                    _ => Err(mismatch("bool", Self::to_slot(f).1)),
                }
            }
            Expr::Like { expr, pattern, negated } => {
                let f = self.compile(expr)?;
                match f.out {
                    Out::Scalar(Value::Str(s)) => {
                        Ok(Frag::scalar(Value::Bool(like_match(&s, pattern) != *negated)))
                    }
                    Out::Scalar(v) => Err(plan(format!("LIKE on non-string {v:?}"))),
                    Out::Str(d) => {
                        // Executed over the dictionary, but charged per
                        // *row* over raw strings — what MonetDB (no
                        // dictionary on text) pays; see DESIGN.md §2 on the
                        // comment-pool substitution.
                        self.cost.node(2 + pattern.len() as u64 / 4, 32, 1);
                        self.dict_predicate(f.ops, d, |v| like_match(v, pattern) != *negated)
                    }
                    Out::Col(ty) => Err(mismatch("utf8", ty)),
                }
            }
            Expr::InList { expr, list, negated } => self.compile_in(expr, list, *negated),
            Expr::Between { expr, low, high } => {
                // Desugar: expr >= low AND expr <= high.
                let desugared = (*expr.clone())
                    .gte(Expr::Lit(low.clone()))
                    .and((*expr.clone()).lte(Expr::Lit(high.clone())));
                self.compile(&desugared)
            }
            Expr::Case { when, then, otherwise } => self.compile_case(when, then, otherwise),
            Expr::ExtractYear(inner) => {
                let f = self.compile(inner)?;
                let (mut ops, ty) = Self::to_slot(f);
                if ty != Ty::Date {
                    return Err(mismatch("date", ty));
                }
                self.cost.node(1, 4, 4);
                ops.push(Op::Year);
                Ok(Frag { ops, out: Out::Col(Ty::I32) })
            }
            Expr::Substr { expr, start, len } => {
                let f = self.compile(expr)?;
                let (mut ops, d) = self.str_slot(f)?;
                self.cost.node(1, 4, 4);
                // One substring per dictionary value, interned in code
                // order: the builder's codes are the remap table.
                let mut subs = DictBuilder::new();
                for v in self.dict_values(d) {
                    subs.push(&substr(v, *start, *len));
                }
                let table = pool(&mut self.remaps, subs.finish())?;
                ops.push(Op::Remap { table });
                Ok(Frag { ops, out: Out::Str(Dict::Pool(table)) })
            }
        }
    }

    /// Compiles a predicate over a `Str` slot as a mask over the values of
    /// the dictionary its codes index, computed here, once.
    fn dict_predicate(
        &mut self,
        mut ops: Vec<Op>,
        dict: Dict,
        pred: impl Fn(&str) -> bool,
    ) -> Result<Frag> {
        let mask = self.dict_values(dict).iter().map(|v| pred(v)).collect();
        ops.push(Op::DictMask { mask: pool(&mut self.masks, mask)? });
        Ok(Frag { ops, out: Out::Col(Ty::Bool) })
    }

    fn compile_bin(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Result<Frag> {
        let lf = self.compile(l)?;
        let rf = self.compile(r)?;
        if op.is_logical() {
            return self.assemble_logical(op, lf, rf);
        }
        if let (Out::Scalar(a), Out::Scalar(b)) = (&lf.out, &rf.out) {
            return Ok(Frag::scalar(eval::fold_scalar(op, a, b)?));
        }
        if lf.is_str() || rf.is_str() {
            return self.assemble_str_cmp(op, lf, rf);
        }
        self.assemble_numeric(op, lf, rf)
    }

    /// AND/OR evaluate both sides for every row and never fold: a boolean
    /// scalar is broadcast like any other mask.
    fn assemble_logical(&mut self, op: BinOp, lf: Frag, rf: Frag) -> Result<Frag> {
        let to_bool = |f: Frag| -> Result<Vec<Op>> {
            match f.out {
                Out::Scalar(Value::Bool(_)) | Out::Col(Ty::Bool) => Ok(Self::to_slot(f).0),
                Out::Scalar(v) => Err(plan(format!("logical op on non-boolean {v:?}"))),
                _ => Err(mismatch("bool", Self::to_slot(f).1)),
            }
        };
        let mut ops = to_bool(lf)?;
        ops.extend(to_bool(rf)?);
        ops.push(if op == BinOp::And { Op::And } else { Op::Or });
        self.cost.add(&Cost::logical(1));
        Ok(Frag { ops, out: Out::Col(Ty::Bool) })
    }

    fn assemble_str_cmp(&mut self, op: BinOp, lf: Frag, rf: Frag) -> Result<Frag> {
        let arithmetic = || plan("arithmetic on string operands");
        let (col_ops, dict, scalar, flipped) = match (lf.out, rf.out) {
            (Out::Str(d), Out::Scalar(Value::Str(s))) => (lf.ops, d, s, false),
            (Out::Scalar(Value::Str(s)), Out::Str(d)) => (rf.ops, d, s, true),
            (Out::Str(a), Out::Str(b)) => {
                // Column-vs-column string comparison: decode row-wise.
                if !op.is_comparison() {
                    return Err(arithmetic());
                }
                self.cost.node(1, 8, 1);
                let mut ops = lf.ops;
                ops.extend(rf.ops);
                ops.push(Op::CmpStr { op, a, b });
                return Ok(Frag { ops, out: Out::Col(Ty::Bool) });
            }
            (Out::Col(ty), _) | (_, Out::Col(ty)) => return Err(mismatch("utf8", ty)),
            _ => return Err(plan("string comparison requires a string column")),
        };
        // One comparison per dictionary value, then a code-indexed map.
        if !op.is_comparison() {
            return Err(arithmetic());
        }
        self.cost.node(1, 4, 1);
        self.cost.dict_ops += self.dict_values(dict).len() as u64;
        self.dict_predicate(col_ops, dict, |v| {
            let ord = if flipped { scalar.as_str().cmp(v) } else { v.cmp(scalar.as_str()) };
            eval::cmp_ord(op, ord)
        })
    }

    fn assemble_numeric(&mut self, op: BinOp, lf: Frag, rf: Frag) -> Result<Frag> {
        let fixed_of = |out: &Out| -> Option<u8> {
            match out {
                Out::Col(ty) => ty.fixed_scale(),
                Out::Scalar(v) => eval::fixed_parts(v).map(|(_, s)| s),
                Out::Str(_) => None,
            }
        };
        let wout = if op.is_comparison() { 1 } else { 8 };
        self.cost.node(1, lf.width() + rf.width(), wout);
        if let (Some(sa), Some(sb)) = (fixed_of(&lf.out), fixed_of(&rf.out)) {
            // Fixed-point path: rescale both mantissas to the wider scale.
            let mut ops = Self::to_slot(lf).0;
            ops.extend(Self::to_slot(rf).0);
            let s = sa.max(sb);
            let (fa, fb) = (POW10[(s - sa) as usize], POW10[(s - sb) as usize]);
            let (out, opcode) = match op {
                BinOp::Add => (Ty::Dec(s), Op::AddFixed { fa, fb }),
                BinOp::Sub => (Ty::Dec(s), Op::SubFixed { fa, fb }),
                BinOp::Mul if sa + sb > eval::MAX_SCALE => {
                    let div = POW10[(sa + sb - eval::MAX_SCALE) as usize] as i128;
                    (Ty::Dec(eval::MAX_SCALE), Op::MulFixedCapped { div })
                }
                BinOp::Mul => (Ty::Dec(sa + sb), Op::MulFixed),
                BinOp::Div => {
                    let (da, db) = (POW10[sa as usize] as f64, POW10[sb as usize] as f64);
                    (Ty::F64, Op::DivFixed { da, db })
                }
                _ => (Ty::Bool, Op::CmpFixed { op, fa: fa as i128, fb: fb as i128 }),
            };
            ops.push(opcode);
            return Ok(Frag { ops, out: Out::Col(out) });
        }
        // Float path: some side has no fixed-point reading.
        let (lerr, rerr) = (non_numeric(&lf.out), non_numeric(&rf.out));
        let mut ops = Self::to_f64_slot(lf).ok_or(lerr)?;
        ops.extend(Self::to_f64_slot(rf).ok_or(rerr)?);
        let out = if op.is_comparison() {
            ops.push(Op::CmpF64 { op });
            Ty::Bool
        } else {
            ops.push(Op::ArithF64 { op });
            Ty::F64
        };
        Ok(Frag { ops, out: Out::Col(out) })
    }

    fn compile_in(&mut self, expr: &Expr, list: &[Value], negated: bool) -> Result<Frag> {
        let f = self.compile(expr)?;
        let mismatched = || plan("IN list type mismatch");
        match f.out {
            Out::Scalar(s) => Ok(Frag::scalar(Value::Bool(list.contains(&s) != negated))),
            Out::Str(d) => {
                let wanted: Vec<&str> = list
                    .iter()
                    .map(|v| v.as_str().ok_or_else(mismatched))
                    .collect::<Result<_>>()?;
                self.cost.node(1, 4, 1);
                self.cost.dict_ops += (self.dict_values(d).len() * wanted.len()) as u64;
                self.dict_predicate(f.ops, d, |v| wanted.contains(&v) != negated)
            }
            Out::Col(ty) => {
                let scale = ty.fixed_scale().ok_or_else(|| non_numeric(&f.out))?;
                let mut wanted = Vec::with_capacity(list.len());
                for l in list {
                    let (m, s) = eval::fixed_parts(l).ok_or_else(mismatched)?;
                    // A literal with digits below the column's scale equals
                    // no stored value: left out, `IN` never matches it and
                    // `NOT IN` is not affected by it.
                    if s <= scale {
                        wanted.push(m * POW10[(scale - s) as usize]);
                    } else if m % POW10[(s - scale) as usize] == 0 {
                        wanted.push(m / POW10[(s - scale) as usize]);
                    }
                }
                self.cost.node(wanted.len() as u64, 8, 1);
                let mut ops = f.ops;
                ops.push(Op::InFixed { list: pool(&mut self.lists, wanted)?, negated });
                Ok(Frag { ops, out: Out::Col(Ty::Bool) })
            }
        }
    }

    fn compile_case(&mut self, when: &Expr, then: &Expr, otherwise: &Expr) -> Result<Frag> {
        let (mut ops, wty) = Self::to_slot(self.compile(when)?);
        if wty != Ty::Bool {
            return Err(mismatch("bool", wty));
        }
        let tf = self.compile(then)?;
        let of = self.compile(otherwise)?;
        self.cost.node(1, 16, 8);
        let (tops, tt) = Self::to_slot(tf);
        let (oops, to) = Self::to_slot(of);
        let (out, tail) = match (tt, to) {
            (Ty::Dec(sa), Ty::Dec(sb)) => {
                let s = sa.max(sb);
                ops.extend(tops);
                ops.extend(oops);
                let (ft, fo) = (POW10[(s - sa) as usize], POW10[(s - sb) as usize]);
                (Ty::Dec(s), Op::CaseFixed { ft, fo })
            }
            (Ty::I64, Ty::I64) | (Ty::F64, Ty::F64) => {
                ops.extend(tops);
                ops.extend(oops);
                (tt, Op::CaseRaw)
            }
            _ => {
                // Mixed numeric branches meet in floats.
                let not_numeric = || plan("CASE branch not numeric");
                ops.extend(Self::f64_ops(tops, tt).ok_or_else(not_numeric)?);
                ops.extend(Self::f64_ops(oops, to).ok_or_else(not_numeric)?);
                (Ty::F64, Op::CaseRaw)
            }
        };
        ops.push(tail);
        Ok(Frag { ops, out: Out::Col(out) })
    }
}

impl Program {
    /// Compiles `expr` against `rel`'s schema. Fails only on an ill-typed
    /// expression (or an unknown column), with the error the query reports.
    pub fn compile(expr: &Expr, rel: &Relation) -> Result<Program> {
        Self::compile_over(expr, rel, &[])
    }

    /// [`Program::compile`], with every subtree of `steps` read from its
    /// step's slots (`Op::Input`).
    fn compile_over(expr: &Expr, rel: &Relation, steps: &[(&Expr, Option<Ty>)]) -> Result<Program> {
        let mut c = Compiler {
            rel,
            steps,
            cols: Vec::new(),
            masks: Vec::new(),
            lists: Vec::new(),
            remaps: Vec::new(),
            cost: Cost::default(),
        };
        let frag = c.compile(expr)?;
        let (ops, out, out_dict) = if frag.is_str() {
            let (ops, d) = c.str_slot(frag)?;
            (ops, Ty::Str, Some(d))
        } else {
            let (ops, ty) = Compiler::to_slot(frag);
            (ops, ty, None)
        };
        let quick = Self::peephole(&ops);
        Ok(Program {
            ops: Arc::new(ops),
            cols: c.cols.into_iter().map(|(_, c)| c).collect(),
            masks: c.masks,
            lists: c.lists,
            remaps: c.remaps,
            out,
            out_dict,
            cost: c.cost,
            quick,
        })
    }

    fn peephole(ops: &[Op]) -> Option<Quick> {
        match ops {
            [Op::Load(c), Op::Const(k), Op::CmpFixed { op, fa, fb }] => {
                Some(Quick::CmpConst { col: *c, op: *op, fa: *fa, rhs: *k as i128 * fb })
            }
            [Op::Load(c), Op::DictMask { mask }] => Some(Quick::Dict { col: *c, mask: *mask }),
            [Op::Load(c), Op::InFixed { list, negated }] => {
                Some(Quick::InFixed { col: *c, list: *list, negated: *negated })
            }
            [Op::Load(c), Op::Const(lo), Op::CmpFixed { op: BinOp::Ge, fa: fa_lo, fb: fb_lo }, Op::Load(c2), Op::Const(hi), Op::CmpFixed { op: BinOp::Le, fa: fa_hi, fb: fb_hi }, Op::And]
                if c == c2 =>
            {
                Some(Quick::RangeFixed {
                    col: *c,
                    fa_lo: *fa_lo,
                    lo: *lo as i128 * fb_lo,
                    fa_hi: *fa_hi,
                    hi: *hi as i128 * fb_hi,
                })
            }
            _ => None,
        }
    }

    /// Output slot type.
    pub fn out(&self) -> Ty {
        self.out
    }

    /// This program as a filter predicate: the type error a non-boolean
    /// expression reports when used as one.
    pub(crate) fn into_predicate(self) -> Result<Program> {
        match self.out {
            Ty::Bool => Ok(self),
            ty => Err(mismatch("bool", ty)),
        }
    }

    /// `Some(b)` when the whole program folded to the boolean constant `b`
    /// (e.g. a literal-only conjunct). The fused filter drops constant-true
    /// conjuncts and short-circuits the morsel loop on constant-false.
    pub fn const_bool(&self) -> Option<bool> {
        match (self.ops.as_slice(), self.out) {
            ([Op::Const(k)], Ty::Bool) => Some(*k != 0),
            _ => None,
        }
    }

    /// The expression's full-materialization cost form.
    pub(crate) fn cost(&self) -> &Cost {
        &self.cost
    }

    /// Streamed bytes per row across the distinct columns this program
    /// reads — the fused executor's per-conjunct charge width.
    pub fn width_bytes(&self) -> u64 {
        self.cols.iter().map(|c| Ty::of_column(c).width()).sum()
    }

    /// The peephole-specialized predicate form, when one was recognized.
    pub(crate) fn quick(&self) -> Option<&Quick> {
        self.quick.as_ref()
    }

    /// The column bound to slot `i` — shared `Arc`s straight from the source
    /// relation, so pruning can resolve them back to table columns with
    /// `Arc::ptr_eq`.
    pub(crate) fn col(&self, i: usize) -> &Arc<Column> {
        &self.cols[i]
    }

    /// The dictionary-code membership mask in pool slot `i`.
    pub(crate) fn mask(&self, i: usize) -> &[bool] {
        &self.masks[i]
    }

    /// The IN-list mantissas in pool slot `i` (unordered).
    pub(crate) fn list(&self, i: usize) -> &[i64] {
        &self.lists[i]
    }

    /// The dictionary the output slots' codes index, when the program yields
    /// strings: what orders two such slots.
    pub(crate) fn out_strings(&self) -> Option<&[String]> {
        self.out_dict.map(|d| self.dict(d))
    }

    /// The values of the dictionary a `Str` slot's codes index.
    fn dict(&self, d: Dict) -> &[String] {
        match d {
            Dict::Col(i) => match &*self.cols[i as usize] {
                Column::Str(d) => d.values(),
                _ => unreachable!("Dict::Col names a string column"),
            },
            Dict::Pool(i) => self.remaps[i as usize].values(),
        }
    }

    fn views(&self) -> Vec<ColView<'_>> {
        self.cols
            .iter()
            .map(|c| match &**c {
                Column::Int64(v) => ColView::I64(v),
                Column::Int32(v) => ColView::I32(v),
                Column::Date(v) => ColView::Date(v),
                Column::Decimal(v, _) => ColView::Dec(v),
                Column::Float64(v) => ColView::F64(v),
                Column::Bool(v) => ColView::Bool(v),
                Column::Str(d) => ColView::Str(d.codes()),
            })
            .collect()
    }

    /// Evaluates the whole program column-at-a-time over one row set: every
    /// opcode runs one tight loop over the batch before the next dispatches,
    /// so interpreter overhead is paid per (op, morsel) instead of per
    /// (op, row). Scalar operands stay scalar (`Slot::S`) — a `x * (1 - d)`
    /// program touches no constant vectors — and vector operands are folded
    /// in place, so a program allocates nothing in steady state beyond its
    /// pooled `Load` buffers. The per-element arithmetic is identical to the
    /// old row VM, which is what keeps the result bit-exact.
    /// `bound` holds the slots of the [`MultiProgram`] steps the program's
    /// `Input`s read, by step.
    fn eval_batch(&self, views: &[ColView], rows: &Rows, bound: &[Option<Vec<i64>>]) -> Slot {
        let mut stack: Vec<Slot> = Vec::with_capacity(4);

        macro_rules! bin {
            (|$a:ident, $b:ident| $body:expr) => {{
                let rhs = stack.pop().expect("stack");
                let lhs = stack.pop().expect("stack");
                let out = match (lhs, rhs) {
                    (Slot::S($a), Slot::S($b)) => Slot::S($body),
                    (Slot::V(mut av), Slot::S($b)) => {
                        for p in av.iter_mut() {
                            let $a = *p;
                            *p = $body;
                        }
                        Slot::V(av)
                    }
                    (Slot::S($a), Slot::V(mut bv)) => {
                        for p in bv.iter_mut() {
                            let $b = *p;
                            *p = $body;
                        }
                        Slot::V(bv)
                    }
                    (Slot::V(mut av), Slot::V(bv)) => {
                        for (p, &$b) in av.iter_mut().zip(&bv) {
                            let $a = *p;
                            *p = $body;
                        }
                        put_slots(bv);
                        Slot::V(av)
                    }
                };
                stack.push(out);
            }};
        }
        macro_rules! un {
            (|$a:ident| $body:expr) => {{
                let out = match stack.pop().expect("stack") {
                    Slot::S($a) => Slot::S($body),
                    Slot::V(mut av) => {
                        for p in av.iter_mut() {
                            let $a = *p;
                            *p = $body;
                        }
                        Slot::V(av)
                    }
                };
                stack.push(out);
            }};
        }

        for op in self.ops.iter() {
            match op {
                Op::Load(c) => {
                    let mut buf = take_slots();
                    load_batch(&views[*c as usize], rows, &mut buf);
                    stack.push(Slot::V(buf));
                }
                Op::Const(k) => stack.push(Slot::S(*k)),
                Op::CmpFixed { op, fa, fb } => {
                    let (op, fa, fb) = (*op, *fa, *fb);
                    if fa == 1 && fb == 1 {
                        bin!(|a, b| eval::cmp_ord(op, a.cmp(&b)) as i64)
                    } else {
                        bin!(|a, b| eval::cmp_ord(op, (a as i128 * fa).cmp(&(b as i128 * fb)))
                            as i64)
                    }
                }
                Op::AddFixed { fa, fb } => {
                    let (fa, fb) = (*fa, *fb);
                    bin!(|a, b| a * fa + b * fb)
                }
                Op::SubFixed { fa, fb } => {
                    let (fa, fb) = (*fa, *fb);
                    bin!(|a, b| a * fa - b * fb)
                }
                Op::MulFixed => bin!(|a, b| a * b),
                Op::MulFixedCapped { div } => {
                    let div = *div;
                    bin!(|a, b| (a as i128 * b as i128 / div) as i64)
                }
                Op::DivFixed { da, db } => {
                    let (da, db) = (*da, *db);
                    bin!(|a, b| ((a as f64 / da) / (b as f64 / db)).to_bits() as i64)
                }
                Op::FixedToF64 { div } => {
                    let div = *div;
                    un!(|a| (a as f64 / div).to_bits() as i64)
                }
                Op::CmpF64 { op } => {
                    let op = *op;
                    bin!(|a, b| eval::cmp_f64(
                        op,
                        f64::from_bits(a as u64),
                        f64::from_bits(b as u64)
                    ) as i64)
                }
                Op::ArithF64 { op } => {
                    let op = *op;
                    bin!(|a, b| eval::arith_f64(
                        op,
                        f64::from_bits(a as u64),
                        f64::from_bits(b as u64)
                    )
                    .to_bits() as i64)
                }
                Op::And => bin!(|a, b| ((a != 0) && (b != 0)) as i64),
                Op::Or => bin!(|a, b| ((a != 0) || (b != 0)) as i64),
                Op::Not => un!(|a| (a == 0) as i64),
                Op::DictMask { mask } => {
                    let m = &self.masks[*mask as usize];
                    un!(|a| m[a as usize] as i64)
                }
                Op::Remap { table } => {
                    let t = self.remaps[*table as usize].codes();
                    un!(|a| t[a as usize] as i64)
                }
                Op::CmpStr { op, a, b } => {
                    let (op, da, db) = (*op, self.dict(*a), self.dict(*b));
                    bin!(|a, b| eval::cmp_ord(op, da[a as usize].cmp(&db[b as usize])) as i64)
                }
                Op::InFixed { list, negated } => {
                    let (l, neg) = (&self.lists[*list as usize], *negated);
                    un!(|a| (l.contains(&a) != neg) as i64)
                }
                Op::Year => un!(|a| Date32(a as i32).year() as i64),
                Op::Input(k) => {
                    let mut v = take_slots();
                    v.extend_from_slice(bound[*k as usize].as_deref().expect("inputs come first"));
                    stack.push(Slot::V(v))
                }
                Op::CaseRaw => case_batch(&mut stack, 1, 1),
                Op::CaseFixed { ft, fo } => case_batch(&mut stack, *ft, *fo),
            }
        }
        stack.pop().expect("program leaves one slot")
    }

    /// Runs a boolean program over a dense row range, appending survivors.
    /// Panics in debug if the program's output is not boolean.
    pub fn filter_range(&self, range: Range<usize>, sel: &mut Vec<u32>) {
        self.filter_rows(&Rows::Dense(range), sel)
    }

    /// Runs a boolean program over candidate rows, appending survivors.
    pub fn filter_sel(&self, cand: &[u32], out: &mut Vec<u32>) {
        self.filter_rows(&Rows::Sparse(cand), out)
    }

    fn filter_rows(&self, rows: &Rows, out: &mut Vec<u32>) {
        debug_assert_eq!(self.out, Ty::Bool);
        let views = self.views();
        match &self.quick {
            Some(q) => self.quick_filter(q, &views, rows, out),
            None => self.slow_filter(&views, rows, out),
        }
    }

    /// General filter: batch-evaluate the program, then sweep the boolean
    /// slots for survivors.
    fn slow_filter(&self, views: &[ColView], rows: &Rows, out: &mut Vec<u32>) {
        match self.eval_batch(views, rows, &[]) {
            Slot::S(k) => {
                if k != 0 {
                    match rows {
                        Rows::Dense(r) => out.extend(r.clone().map(|i| i as u32)),
                        Rows::Sparse(s) => out.extend_from_slice(s),
                    }
                }
            }
            Slot::V(v) => {
                let start = out.len();
                out.resize(start + v.len(), 0);
                let dst = &mut out[start..];
                let mut k = 0usize;
                match rows {
                    Rows::Dense(r) => {
                        for (j, i) in r.clone().enumerate() {
                            dst[k] = i as u32;
                            k += (v[j] != 0) as usize;
                        }
                    }
                    Rows::Sparse(s) => {
                        for (j, &i) in s.iter().enumerate() {
                            dst[k] = i;
                            k += (v[j] != 0) as usize;
                        }
                    }
                }
                out.truncate(start + k);
                put_slots(v);
            }
        }
    }

    /// Single-pass filters with the column variant matched *outside* the
    /// loop: the common conjuncts (date range scans, dictionary membership)
    /// run as branch-per-row compares over native slices, with the i128
    /// rescale path kept only for mixed-scale decimal comparisons.
    fn quick_filter(&self, q: &Quick, views: &[ColView], rows: &Rows, out: &mut Vec<u32>) {
        // Branch-free compaction: the candidate row id is written
        // unconditionally and the cursor advances by the predicate's truth
        // value, so a 30%-selectivity conjunct costs no mispredicts. The
        // over-provisioned tail is truncated away afterwards.
        macro_rules! keep {
            (|$i:ident| $pred:expr) => {{
                let start = out.len();
                match rows {
                    Rows::Dense(r) => {
                        out.resize(start + r.len(), 0);
                        let dst = &mut out[start..];
                        let mut k = 0usize;
                        for $i in r.clone() {
                            dst[k] = $i as u32;
                            k += ($pred) as usize;
                        }
                        out.truncate(start + k);
                    }
                    Rows::Sparse(s) => {
                        out.resize(start + s.len(), 0);
                        let dst = &mut out[start..];
                        let mut k = 0usize;
                        for &row in *s {
                            let $i = row as usize;
                            dst[k] = row;
                            k += ($pred) as usize;
                        }
                        out.truncate(start + k);
                    }
                }
            }};
        }
        match q {
            Quick::CmpConst { col, op, fa, rhs } => {
                let v = &views[*col as usize];
                let (op, fa, rhs) = (*op, *fa, *rhs);
                if fa == 1 {
                    if let Ok(r) = i64::try_from(rhs) {
                        match v {
                            ColView::I64(x) | ColView::Dec(x) => {
                                return keep!(|i| eval::cmp_ord(op, x[i].cmp(&r)));
                            }
                            ColView::I32(x) | ColView::Date(x) => {
                                return keep!(|i| eval::cmp_ord(op, (x[i] as i64).cmp(&r)));
                            }
                            _ => {}
                        }
                    }
                }
                keep!(|i| eval::cmp_ord(op, (v.slot(i) as i128 * fa).cmp(&rhs)))
            }
            Quick::Dict { col, mask } => {
                let m = &self.masks[*mask as usize];
                match &views[*col as usize] {
                    ColView::Str(codes) => keep!(|i| m[codes[i] as usize]),
                    v => keep!(|i| m[v.slot(i) as usize]),
                }
            }
            Quick::InFixed { col, list, negated } => {
                let v = &views[*col as usize];
                let l = &self.lists[*list as usize];
                let neg = *negated;
                keep!(|i| l.contains(&v.slot(i)) != neg)
            }
            Quick::RangeFixed { col, fa_lo, lo, fa_hi, hi } => {
                let v = &views[*col as usize];
                let (fa_lo, lo, fa_hi, hi) = (*fa_lo, *lo, *fa_hi, *hi);
                if fa_lo == 1 && fa_hi == 1 {
                    if let (Ok(lo), Ok(hi)) = (i64::try_from(lo), i64::try_from(hi)) {
                        match v {
                            ColView::I64(x) | ColView::Dec(x) => {
                                return keep!(|i| {
                                    let m = x[i];
                                    m >= lo && m <= hi
                                });
                            }
                            ColView::I32(x) | ColView::Date(x) => {
                                return keep!(|i| {
                                    let m = x[i] as i64;
                                    m >= lo && m <= hi
                                });
                            }
                            _ => {}
                        }
                    }
                }
                keep!(|i| {
                    let m = v.slot(i) as i128;
                    m * fa_lo >= lo && m * fa_hi <= hi
                })
            }
        }
    }

    /// Evaluates the program at each selected row into `out` slots.
    pub fn eval_sel(&self, sel: &[u32], out: &mut Vec<i64>) {
        self.eval_rows(&Rows::Sparse(sel), &[], out)
    }

    /// The program's slots at each row of `rows`, in a pooled buffer
    /// ([`put_slots`] takes it back).
    pub(crate) fn slots_of(&self, rows: &Rows) -> Vec<i64> {
        let mut out = take_slots();
        self.eval_rows(rows, &[], &mut out);
        out
    }

    fn eval_rows(&self, rows: &Rows, bound: &[Option<Vec<i64>>], out: &mut Vec<i64>) {
        let views = self.views();
        // Single-op column references skip the interpreter entirely.
        if let [Op::Load(c)] = self.ops.as_slice() {
            load_batch(&views[*c as usize], rows, out);
            return;
        }
        match self.eval_batch(&views, rows, bound) {
            Slot::S(k) => {
                out.clear();
                out.resize(rows.len(), k);
            }
            Slot::V(mut v) => {
                std::mem::swap(out, &mut v);
                put_slots(v);
            }
        }
    }

    /// Builds the output column from per-row slots.
    pub fn column_from_slots(&self, slots: Vec<i64>) -> Column {
        let mut out = Typed::new(self.out, slots.len());
        out.push(&Slot::V(slots), 0);
        self.finish(out)
    }

    /// Evaluates the program over rows `0..n` into one column,
    /// column-at-a-time for the materializing operators: morsels evaluate
    /// independently (in parallel under `cfg`) and append, already in their
    /// output representation, in morsel order — so the column is identical
    /// at any thread count and morsel size.
    pub(crate) fn eval_column(&self, n: usize, cfg: &EngineConfig) -> Column {
        let views = self.views();
        let eval_into = |r: Range<usize>, out: &mut Typed| {
            // `EXTRACT(YEAR FROM column)`, the form every TPC-H use takes,
            // maps the dates straight to their `i32` years: widening to
            // slots and narrowing back would cost two more passes.
            if let ([Op::Load(c), Op::Year], Typed::I32(years)) = (self.ops.as_slice(), &mut *out) {
                if let ColView::Date(days) = views[*c as usize] {
                    return years.extend(days[r].iter().map(|&d| Date32(d).year()));
                }
            }
            let len = r.len();
            let slot = self.eval_batch(&views, &Rows::Dense(r), &[]);
            out.push(&slot, len);
            slot.free();
        };
        let ranges = morsel_ranges(n, cfg.morsel_rows);
        let mut out = Typed::new(self.out, n);
        if cfg.threads <= 1 || ranges.len() <= 1 {
            ranges.into_iter().for_each(|r| eval_into(r, &mut out));
        } else {
            let parts = run_morsels(cfg, &ranges, |_, r| {
                let mut part = Typed::new(self.out, r.len());
                eval_into(r, &mut part);
                part
            });
            parts.into_iter().for_each(|part| out.append(part));
        }
        self.finish(out)
    }

    fn finish(&self, out: Typed) -> Column {
        match (out, self.out) {
            (Typed::I64(v), Ty::Dec(s)) => Column::Decimal(v, s),
            (Typed::I64(v), _) => Column::Int64(v),
            (Typed::I32(v), Ty::Date) => Column::Date(v),
            (Typed::I32(v), _) => Column::Int32(v),
            (Typed::F64(v), _) => Column::Float64(v),
            (Typed::Bool(v), _) => Column::Bool(v),
            (Typed::Code(codes), _) => {
                // The column keeps only the values its rows use, numbered by
                // first appearance — the dictionary interning the strings
                // row by row would build.
                let dict = self.dict(self.out_dict.expect("string outputs carry a dictionary"));
                let mut renumber = vec![u32::MAX; dict.len()];
                let mut values = Vec::new();
                let codes = codes
                    .into_iter()
                    .map(|c| {
                        let new = &mut renumber[c as usize];
                        if *new == u32::MAX {
                            *new = values.len() as u32;
                            values.push(dict[c as usize].clone());
                        }
                        *new
                    })
                    .collect();
                Column::Str(DictColumn::from_parts(codes, values))
            }
        }
    }
}

/// Several expressions compiled to evaluate each distinct subtree once per
/// row set — an aggregate's inputs. Every subtree two of them contain, or
/// that is one of them, is one step, evaluated once; every step over it
/// reads its slots (`Op::Input`) instead of recomputing them. Q1's
/// `sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))` thus reads the
/// slots of its `sum(l_extendedprice * (1 - l_discount))`, and equal
/// expressions are the trivial case: one step serves them all.
///
/// Each output also keeps the program it compiles to alone
/// ([`MultiProgram::outputs`]), which is what it is typed, decoded and priced
/// as: sharing changes what is evaluated and nothing else. A shared subtree
/// runs the same per-element arithmetic as inside its parent, so every
/// output's slots equal its own program's bit for bit.
pub(crate) struct MultiProgram {
    outputs: Vec<Option<Program>>,
    /// Smallest first, so every step's `Input`s name earlier steps.
    steps: Vec<Step>,
    /// The step each output reads (`None`: it has no expression).
    step_of: Vec<Option<usize>>,
}

/// One step of a [`MultiProgram`]: its program, the steps its `Input`s
/// read, and the last output that needs its slots.
struct Step {
    program: Program,
    deps: Vec<usize>,
    last: usize,
}

impl MultiProgram {
    /// Compiles `exprs` (`None`: an output with no expression) against
    /// `rel`. Each is compiled alone first, so an ill-typed one fails with
    /// the error its own [`Program::compile`] reports.
    pub(crate) fn compile(exprs: &[Option<&Expr>], rel: &Relation) -> Result<MultiProgram> {
        let outputs = exprs
            .iter()
            .map(|e| e.map(|e| Program::compile(e, rel)).transpose())
            .collect::<Result<Vec<_>>>()?;
        let mut bodies: Vec<&Expr> = Vec::new();
        for &e in exprs.iter().flatten() {
            if !bodies.contains(&e) {
                bodies.push(e);
            }
        }
        while let Some(e) = shared_subtree(&bodies, rel) {
            bodies.push(e);
        }
        // A subtree is smaller than every body that contains it.
        bodies.sort_by_key(|e| size(e));
        let mut known: Vec<(&Expr, Option<Ty>)> = Vec::with_capacity(bodies.len());
        let mut steps: Vec<Step> = Vec::with_capacity(bodies.len());
        for &e in &bodies {
            let program = Program::compile_over(e, rel, &known)?;
            known.push((e, reads_step(e, program.out).then_some(program.out)));
            let inputs = program.ops.iter().filter_map(|op| match op {
                Op::Input(k) => Some(*k as usize),
                _ => None,
            });
            steps.push(Step { deps: inputs.collect(), program, last: 0 });
        }
        let step_of: Vec<Option<usize>> =
            exprs.iter().map(|e| e.and_then(|e| bodies.iter().position(|&b| b == e))).collect();
        // A step is needed until the last output that reads it, or reads a
        // later step that reads it.
        for (i, &s) in step_of.iter().enumerate() {
            s.into_iter().for_each(|s| steps[s].last = i);
        }
        for s in (0..steps.len()).rev() {
            let (earlier, rest) = steps.split_at_mut(s);
            for &d in &rest[0].deps {
                earlier[d].last = earlier[d].last.max(rest[0].last);
            }
        }
        Ok(MultiProgram { outputs, steps, step_of })
    }

    /// Every output's program compiled alone, in output order.
    pub(crate) fn outputs(&self) -> impl Iterator<Item = Option<&Program>> {
        self.outputs.iter().map(Option::as_ref)
    }

    /// Evaluates every output over `rows` and hands `each` its slots, in
    /// output order (`None`: no expression). A step is evaluated when the
    /// first output that needs it comes, and its buffer goes back to the
    /// pool after the last.
    pub(crate) fn eval(&self, rows: &Rows, mut each: impl FnMut(usize, Option<&[i64]>)) {
        let mut bufs: Vec<Option<Vec<i64>>> = self.steps.iter().map(|_| None).collect();
        for (i, &s) in self.step_of.iter().enumerate() {
            if let Some(s) = s {
                self.ready(s, rows, &mut bufs);
            }
            each(i, s.and_then(|s| bufs[s].as_deref()));
            for (buf, step) in bufs.iter_mut().zip(&self.steps) {
                if step.last == i {
                    buf.take().into_iter().for_each(put_slots);
                }
            }
        }
    }

    /// Evaluates step `s` into `bufs`, and first the steps it reads, unless
    /// it already is.
    fn ready(&self, s: usize, rows: &Rows, bufs: &mut [Option<Vec<i64>>]) {
        if bufs[s].is_some() {
            return;
        }
        let step = &self.steps[s];
        step.deps.iter().for_each(|&d| self.ready(d, rows, bufs));
        let mut out = take_slots();
        step.program.eval_rows(rows, bufs, &mut out);
        bufs[s] = Some(out);
    }
}

/// Whether the steps that contain a step over `e`, of slot type `ty`, read
/// its slots: not when it is literal-only, which folds into its parent, nor
/// a string, whose codes index a dictionary of its own step's. A column is
/// read: its slots are copied in order where a load would gather them again.
fn reads_step(e: &Expr, ty: Ty) -> bool {
    ty != Ty::Str && !e.column_set().is_empty()
}

/// The number of nodes of `e`.
fn size(e: &Expr) -> usize {
    1 + e.children().into_iter().map(size).sum::<usize>()
}

/// The largest subtree met at least twice among the operands of `bodies` —
/// not looking inside a subtree that is itself a body, which is evaluated
/// once — that reads a column and does not yield a string; `None` when there
/// is none.
fn shared_subtree<'e>(bodies: &[&'e Expr], rel: &Relation) -> Option<&'e Expr> {
    fn visit<'e>(e: &'e Expr, bodies: &[&'e Expr], seen: &mut Vec<(&'e Expr, usize)>) {
        if matches!(e, Expr::Lit(_)) || bodies.contains(&e) {
            return;
        }
        match seen.iter_mut().find(|(s, _)| *s == e) {
            Some((_, n)) => *n += 1,
            None => seen.push((e, 1)),
        }
        e.children().into_iter().for_each(|c| visit(c, bodies, seen));
    }
    let mut seen = Vec::new();
    for b in bodies {
        b.children().into_iter().for_each(|c| visit(c, bodies, &mut seen));
    }
    seen.retain(|&(e, n)| n > 1 && Program::compile(e, rel).is_ok_and(|p| reads_step(e, p.out)));
    seen.into_iter().map(|(e, _)| e).max_by_key(|e| size(e))
}

/// An output column under construction, in its final representation, so
/// each morsel's slots convert once while still cache-resident.
enum Typed {
    I64(Vec<i64>),
    I32(Vec<i32>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Code(Vec<u32>),
}

impl Typed {
    fn new(ty: Ty, cap: usize) -> Typed {
        match ty {
            Ty::I64 | Ty::Dec(_) => Typed::I64(Vec::with_capacity(cap)),
            Ty::I32 | Ty::Date => Typed::I32(Vec::with_capacity(cap)),
            Ty::F64 => Typed::F64(Vec::with_capacity(cap)),
            Ty::Bool => Typed::Bool(Vec::with_capacity(cap)),
            Ty::Str => Typed::Code(Vec::with_capacity(cap)),
        }
    }

    /// Appends one batch result; a scalar slot stands for `len` equal rows.
    fn push(&mut self, slot: &Slot, len: usize) {
        fn fill<T: Clone>(out: &mut Vec<T>, slot: &Slot, len: usize, conv: impl Fn(i64) -> T) {
            match slot {
                Slot::S(k) => out.resize(out.len() + len, conv(*k)),
                Slot::V(v) => out.extend(v.iter().map(|&x| conv(x))),
            }
        }
        match self {
            Typed::I64(o) => fill(o, slot, len, |x| x),
            Typed::I32(o) => fill(o, slot, len, |x| x as i32),
            Typed::F64(o) => fill(o, slot, len, |x| f64::from_bits(x as u64)),
            Typed::Bool(o) => fill(o, slot, len, |x| x != 0),
            Typed::Code(o) => fill(o, slot, len, |x| x as u32),
        }
    }

    fn append(&mut self, other: Typed) {
        match (self, other) {
            (Typed::I64(o), Typed::I64(mut p)) => o.append(&mut p),
            (Typed::I32(o), Typed::I32(mut p)) => o.append(&mut p),
            (Typed::F64(o), Typed::F64(mut p)) => o.append(&mut p),
            (Typed::Bool(o), Typed::Bool(mut p)) => o.append(&mut p),
            (Typed::Code(o), Typed::Code(mut p)) => o.append(&mut p),
            _ => unreachable!("parts of one program share its output type"),
        }
    }
}

thread_local! {
    /// Reusable slot buffers, so per-morsel evaluation does not allocate in
    /// steady state (same idiom as the selection-vector scratch pool in
    /// `wimpi-storage`).
    static SLOTS: RefCell<Vec<Vec<i64>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a reusable `i64` slot buffer from the thread-local pool.
pub(crate) fn take_slots() -> Vec<i64> {
    let mut s = SLOTS.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    s.clear();
    s
}

/// Returns a slot buffer to the thread-local pool.
pub(crate) fn put_slots(v: Vec<i64>) {
    SLOTS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 8 {
            pool.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use proptest::rng::Rng;
    use wimpi_storage::Decimal64;

    /// 257 rows of every column type the VM reads (the relation
    /// `bytecode_vs_evaluator` in `tests/parallel_determinism.rs` draws from).
    fn relation() -> Relation {
        let n = 257usize;
        let modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"];
        let others = ["SHIP", "AIR", "REG AIR", "FOB"];
        let fields = [
            ("i", Column::Int64((0..n).map(|i| (i as i64 * 7 % 50) - 25).collect())),
            ("j", Column::Int32((0..n).map(|i| (i as i32 * 13 % 40) - 20).collect())),
            ("d", Column::Decimal((0..n).map(|i| (i as i64 * 31 % 2000) - 1000).collect(), 2)),
            ("e", Column::Decimal((0..n).map(|i| (i as i64 * 17 % 500) - 250).collect(), 1)),
            ("f", Column::Float64((0..n).map(|i| (i as f64 - 128.0) / 3.0).collect())),
            ("t", Column::Date((0..n).map(|i| 9000 + (i as i32 * 37 % 2000)).collect())),
            ("b", Column::Bool((0..n).map(|i| i % 3 == 0).collect())),
            ("s", Column::Str((0..n).map(|i| modes[i * 11 % modes.len()]).collect())),
            ("u", Column::Str((0..n).map(|i| others[i * 7 % others.len()]).collect())),
        ];
        Relation::new(fields.into_iter().map(|(name, c)| (name.to_string(), Arc::new(c))).collect())
            .unwrap()
    }

    /// Random expressions in the grammar of `bytecode_vs_evaluator`'s
    /// generator (arithmetic over mixed int/decimal/float columns at mixed
    /// scales, comparisons, AND/OR/NOT, LIKE, IN, BETWEEN, CASE,
    /// EXTRACT(YEAR), SUBSTR, scalar-only trees, ill-typed shapes), whose
    /// leaves are often drawn from a `pool` of subtrees, so that outputs
    /// share subtrees with each other and with the pool.
    struct Gen {
        rng: Rng,
        pool: Vec<Expr>,
        ill: bool,
    }

    impl Gen {
        fn pick(&mut self, n: u64) -> u64 {
            self.rng.below(n)
        }

        fn dec_lit(&mut self) -> Expr {
            let (m, s) = (self.pick(4000) as i64 - 2000, self.pick(5) as u8);
            lit(Value::Dec(Decimal64::new(m, s)))
        }

        fn num_leaf(&mut self) -> Expr {
            match self.pick(11) {
                0 => col("i"),
                1 => col("j"),
                2 => col("d"),
                3 => col("e"),
                4 => col("f"),
                5 => lit(self.pick(100) as i64 - 50),
                6 => self.dec_lit(),
                7 => lit(self.pick(100) as f64 / 4.0 - 12.5),
                _ if !self.pool.is_empty() => {
                    let k = self.pick(self.pool.len() as u64) as usize;
                    self.pool[k].clone()
                }
                _ => col("d"),
            }
        }

        fn ill_typed(&mut self) -> Expr {
            match self.pick(5) {
                0 => col("b").case(col("s"), col("u")),
                1 => col("i").negate(),
                2 => col("i").in_list(vec![Value::I64(1), Value::Str("x".into())]),
                3 => col("t").add(lit(1.5)),
                _ => col("i").like("%1%"),
            }
        }

        fn num(&mut self, depth: u32) -> Expr {
            if self.ill && self.pick(8) == 0 {
                self.ill = false;
                return self.ill_typed();
            }
            if depth == 0 {
                return self.num_leaf();
            }
            match self.pick(8) {
                0 | 1 => self.num_leaf(),
                2 => self.num(depth - 1).add(self.num(depth - 1)),
                3 => self.num(depth - 1).sub(self.num(depth - 1)),
                4 => self.num(depth - 1).mul(self.num(depth - 1)),
                5 => self.num(depth - 1).div(self.num(depth - 1)),
                6 => self.boolean(depth - 1).case(self.num(depth - 1), self.num(depth - 1)),
                _ => lit(3i64).mul(self.dec_lit()),
            }
        }

        fn cmp(&mut self, a: Expr, b: Expr) -> Expr {
            match self.pick(6) {
                0 => a.eq(b),
                1 => a.neq(b),
                2 => a.lt(b),
                3 => a.lte(b),
                4 => a.gt(b),
                _ => a.gte(b),
            }
        }

        fn string(&mut self, depth: u32) -> Expr {
            let leaf = if self.pick(2) == 0 { col("s") } else { col("u") };
            (0..depth.min(self.pick(3) as u32))
                .fold(leaf, |e, _| e.substr(self.pick(4) as usize, self.pick(4) as usize))
        }

        fn boolean(&mut self, depth: u32) -> Expr {
            if depth == 0 {
                let (a, b) = (self.num_leaf(), self.num_leaf());
                return self.cmp(a, b);
            }
            match self.pick(10) {
                0..=2 => {
                    let (a, b) = (self.num(depth - 1), self.num(depth - 1));
                    self.cmp(a, b)
                }
                3 => self.boolean(depth - 1).and(self.boolean(depth - 1)),
                4 => self.boolean(depth - 1).or(self.boolean(depth - 1)),
                5 => self.boolean(depth - 1).negate(),
                6 => self.string(depth).like(["%AI%", "R_IL", "S%"][self.pick(3) as usize]),
                7 => col("i").between(-10i64, self.pick(20) as i64),
                8 => {
                    let year = lit(1994i64 + self.pick(6) as i64);
                    self.cmp(col("t").year(), year)
                }
                _ => self.string(depth).eq(lit("AIR")),
            }
        }

        fn any(&mut self, depth: u32) -> Expr {
            match self.pick(5) {
                0 => self.boolean(depth),
                1 => self.string(depth),
                _ => self.num(depth),
            }
        }
    }

    /// Every row set a fold evaluates over: dense ranges, ascending ids, ids
    /// out of order (a morsel's rows in group order), and no rows at all.
    fn row_sets(rng: &mut Rng) -> Vec<Vec<u32>> {
        let ascending: Vec<u32> = (0..257).filter(|_| rng.below(3) > 0).collect();
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        vec![ascending, shuffled, Vec::new()]
    }

    #[test]
    fn shared_outputs_equal_their_own_programs() {
        let rel = relation();
        let mut shared_somewhere = false;
        for seed in 0..400 {
            let mut g =
                Gen { rng: Rng::for_case("shared_subtrees", seed), pool: vec![], ill: false };
            g.pool = (0..1 + g.pick(3)).map(|_| g.num(2)).collect();
            g.ill = seed % 5 == 0;
            let exprs: Vec<Option<Expr>> = (0..1 + g.pick(5))
                .map(|_| match g.pick(6) {
                    0 => None,
                    1 => Some(g.pool[0].clone()),
                    _ => Some(g.any(2)),
                })
                .collect();
            let refs: Vec<Option<&Expr>> = exprs.iter().map(Option::as_ref).collect();
            let alone: Result<Vec<Option<Program>>> =
                refs.iter().map(|e| e.map(|e| Program::compile(e, &rel)).transpose()).collect();
            let shared = MultiProgram::compile(&refs, &rel);
            let (alone, shared) = match (alone, shared) {
                (Ok(alone), Ok(shared)) => (alone, shared),
                (Err(want), Err(got)) => {
                    assert_eq!(got.to_string(), want.to_string(), "replay seed {seed}");
                    continue;
                }
                (alone, shared) => {
                    panic!("replay seed {seed}: alone {:?}, shared {:?}", alone.err(), shared.err())
                }
            };
            let ops = |p: &Program| p.ops.len();
            let steps: usize = shared.steps.iter().map(|s| ops(&s.program)).sum();
            shared_somewhere |= steps < alone.iter().flatten().map(ops).sum::<usize>();
            for ids in &row_sets(&mut g.rng) {
                let dense = Rows::Dense(g.pick(100) as usize..257);
                for rows in [Rows::Sparse(ids), dense, Rows::Dense(0..0)] {
                    let mut seen = 0;
                    shared.eval(&rows, |i, slots| {
                        assert_eq!(i, seen, "replay seed {seed}: outputs come in order");
                        seen += 1;
                        let want = alone[i].as_ref().map(|p| p.slots_of(&rows));
                        assert_eq!(slots, want.as_deref(), "replay seed {seed}: {:?}", exprs[i]);
                    });
                    assert_eq!(seen, exprs.len());
                }
            }
        }
        assert!(shared_somewhere, "the generator must make outputs share subtrees");
    }

    /// Q1's inputs: `l_extendedprice * (1 - l_discount)` is evaluated once,
    /// and `sum_charge` reads its slots.
    #[test]
    fn q1_evaluates_the_discounted_price_once() {
        let n = 64;
        let dec = |f: fn(i64) -> i64| Arc::new(Column::Decimal((0..n).map(f).collect(), 2));
        let rel = Relation::new(vec![
            ("l_quantity".into(), dec(|i| 100 * (i % 50 + 1))),
            ("l_extendedprice".into(), dec(|i| 90_000 + 37 * i)),
            ("l_discount".into(), dec(|i| i % 11)),
            ("l_tax".into(), dec(|i| i % 9)),
        ])
        .unwrap();
        let disc_price = col("l_extendedprice").mul(lit(1i64).sub(col("l_discount")));
        let charge = disc_price.clone().mul(lit(1i64).add(col("l_tax")));
        let q1 = [
            Some(col("l_quantity")),
            Some(col("l_extendedprice")),
            Some(disc_price.clone()),
            Some(charge.clone()),
            Some(col("l_quantity")),
            Some(col("l_extendedprice")),
            Some(col("l_discount")),
            None,
        ];
        let refs: Vec<Option<&Expr>> = q1.iter().map(Option::as_ref).collect();
        let shared = MultiProgram::compile(&refs, &rel).unwrap();
        let count = |ops: &[Op], f: fn(&Op) -> bool| ops.iter().filter(|&op| f(op)).count();
        let all: Vec<Op> =
            shared.steps.iter().flat_map(|s| s.program.ops.iter().cloned()).collect();
        assert_eq!(shared.steps.len(), 5, "three columns, the discounted price, the charge");
        assert_eq!(count(&all, |op| matches!(op, Op::SubFixed { .. })), 1);
        assert_eq!(count(&all, |op| matches!(op, Op::MulFixed | Op::MulFixedCapped { .. })), 2);
        let (price, reads) = (shared.step_of[2].unwrap(), shared.step_of[3].unwrap());
        assert_eq!(shared.steps[reads].deps, [price], "the charge reads the price's slots");
        let alone: usize = shared.outputs().flatten().map(|p| p.ops.len()).sum();
        // Alone: five column loads, 5 ops for the price and 9 for the charge.
        // Shared: three loads, the price over two of them, and the charge
        // over the price.
        assert_eq!((alone, all.len()), (5 + 5 + 9, 3 + 5 + 5));
        // Priced as before: each output keeps its own program's cost.
        let own = Program::compile(&charge, &rel).unwrap();
        let kept = shared.outputs().nth(3).flatten().unwrap();
        assert_eq!((kept.cost(), kept.width_bytes()), (own.cost(), 24));
    }
}
