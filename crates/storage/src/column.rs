//! Typed columns — the unit of storage and of execution.
//!
//! The engine is column-at-a-time in the MonetDB style the paper benchmarks:
//! operators consume and produce whole columns (plus selection vectors), so
//! [`Column`] doubles as both base storage and intermediate representation.

use crate::date::Date32;
use crate::decimal::Decimal64;
use crate::dict::{DictBuilder, DictColumn};
use crate::error::{Result, StorageError};
use crate::schema::DataType;
use crate::value::Value;

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers (keys, counts).
    Int64(Vec<i64>),
    /// 32-bit integers (small keys, years).
    Int32(Vec<i32>),
    /// Doubles (averages, ratios).
    Float64(Vec<f64>),
    /// Fixed-point decimals: raw mantissas plus a shared scale.
    Decimal(Vec<i64>, u8),
    /// Dates as day numbers.
    Date(Vec<i32>),
    /// Dictionary-encoded strings.
    Str(DictColumn),
    /// Booleans (predicate intermediates).
    Bool(Vec<bool>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Int32(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Decimal(v, _) => v.len(),
            Column::Date(v) => v.len(),
            Column::Str(d) => d.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Int32(_) => DataType::Int32,
            Column::Float64(_) => DataType::Float64,
            Column::Decimal(_, s) => DataType::Decimal(*s),
            Column::Date(_) => DataType::Date,
            Column::Str(_) => DataType::Utf8,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Bytes this column streams through the memory system when scanned:
    /// fixed-width payloads count fully, dictionary-encoded strings count
    /// their 4-byte codes (the dictionary itself is small and cache-hot).
    /// Use [`Column::heap_bytes`] for *resident memory* accounting instead.
    pub fn stream_bytes(&self) -> usize {
        self.len() * self.data_type().stream_width()
    }

    /// Bytes the column occupies in a system that stores strings *raw*
    /// (per-row text plus an 8-byte offset) rather than dictionary-encoded —
    /// what MonetDB keeps memory-mapped, and therefore the width the
    /// cluster's memory-pressure model must account against (DESIGN.md §2
    /// on the comment-pool substitution). Fixed-width columns match
    /// [`Column::heap_bytes`].
    pub fn resident_bytes(&self) -> usize {
        match self {
            Column::Str(d) => d.codes().iter().map(|&c| d.decode(c).len() + 8).sum::<usize>(),
            other => other.heap_bytes(),
        }
    }

    /// Heap bytes held (payload only, not the enum header).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int64(v) => v.len() * 8,
            Column::Int32(v) => v.len() * 4,
            Column::Float64(v) => v.len() * 8,
            Column::Decimal(v, _) => v.len() * 8,
            Column::Date(v) => v.len() * 4,
            Column::Str(d) => d.heap_bytes(),
            Column::Bool(v) => v.len(),
        }
    }

    /// The value at row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int64(v) => Value::I64(v[i]),
            Column::Int32(v) => Value::I32(v[i]),
            Column::Float64(v) => Value::F64(v[i]),
            Column::Decimal(v, s) => Value::Dec(Decimal64::new(v[i], *s)),
            Column::Date(v) => Value::Date(Date32(v[i])),
            Column::Str(d) => Value::Str(d.get(i).to_string()),
            Column::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Copies the contiguous row range `r` into a new column — the morsel
    /// slice used by the engine's parallel kernels (`crate::morsel`).
    ///
    /// Dictionary columns slice their codes but clone the full dictionary:
    /// codes stay valid without re-interning, and the values vector is tiny
    /// next to the code payload for TPC-H's low-cardinality strings. Kernels
    /// that would pay per-morsel dictionary work (LIKE over a near-unique
    /// comment pool) operate on code slices directly instead of slicing.
    pub fn slice(&self, r: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(v[r].to_vec()),
            Column::Int32(v) => Column::Int32(v[r].to_vec()),
            Column::Float64(v) => Column::Float64(v[r].to_vec()),
            Column::Decimal(v, s) => Column::Decimal(v[r].to_vec(), *s),
            Column::Date(v) => Column::Date(v[r].to_vec()),
            Column::Str(d) => Column::Str(d.slice(r)),
            Column::Bool(v) => Column::Bool(v[r].to_vec()),
        }
    }

    /// Gathers the rows named by `sel` into a new column.
    pub fn take(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Int32(v) => Column::Int32(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float64(v) => Column::Float64(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Decimal(v, s) => {
                Column::Decimal(sel.iter().map(|&i| v[i as usize]).collect(), *s)
            }
            Column::Date(v) => Column::Date(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Str(d) => Column::Str(d.take(sel)),
            Column::Bool(v) => Column::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
        }
    }

    /// A column of `len` rows of this column's type, every value zero (a
    /// string column: code 0, sharing this column's dictionary) — an output
    /// for [`Column::take_into`], allocated where it is called. The zero
    /// pages are untouched until the gather writes them.
    pub fn zeroed_like(&self, len: usize) -> Column {
        match self {
            Column::Int64(_) => Column::Int64(vec![0; len]),
            Column::Int32(_) => Column::Int32(vec![0; len]),
            Column::Float64(_) => Column::Float64(vec![0.0; len]),
            Column::Decimal(_, s) => Column::Decimal(vec![0; len], *s),
            Column::Date(_) => Column::Date(vec![0; len]),
            Column::Str(d) => Column::Str(d.zeroed_like(len)),
            Column::Bool(_) => Column::Bool(vec![false; len]),
        }
    }

    /// [`Column::take`] into `out`, which [`Column::zeroed_like`] made from
    /// this column with `sel.len()` rows: the gather, without allocating.
    pub fn take_into(&self, sel: &[u32], out: &mut Column) {
        fn gather<T: Copy>(src: &[T], sel: &[u32], dst: &mut [T]) {
            assert_eq!(sel.len(), dst.len(), "one output row per selected row");
            for (d, &i) in dst.iter_mut().zip(sel) {
                *d = src[i as usize];
            }
        }
        match (self, out) {
            (Column::Int64(v), Column::Int64(o)) => gather(v, sel, o),
            (Column::Int32(v), Column::Int32(o)) => gather(v, sel, o),
            (Column::Float64(v), Column::Float64(o)) => gather(v, sel, o),
            (Column::Decimal(v, _), Column::Decimal(o, _)) => gather(v, sel, o),
            (Column::Date(v), Column::Date(o)) => gather(v, sel, o),
            (Column::Str(d), Column::Str(o)) => gather(d.codes(), sel, o.codes_mut()),
            (Column::Bool(v), Column::Bool(o)) => gather(v, sel, o),
            (src, out) => panic!("take_into {} into {}", src.data_type(), out.data_type()),
        }
    }

    /// Borrows the `i64` payload; errors on other types.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::Int64(v) => Ok(v),
            other => Err(type_err("int64", other)),
        }
    }

    /// Borrows the `i32` payload; errors on other types.
    pub fn as_i32(&self) -> Result<&[i32]> {
        match self {
            Column::Int32(v) => Ok(v),
            other => Err(type_err("int32", other)),
        }
    }

    /// Borrows the `f64` payload; errors on other types.
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::Float64(v) => Ok(v),
            other => Err(type_err("float64", other)),
        }
    }

    /// Borrows the decimal mantissas and scale; errors on other types.
    pub fn as_decimal(&self) -> Result<(&[i64], u8)> {
        match self {
            Column::Decimal(v, s) => Ok((v, *s)),
            other => Err(type_err("decimal", other)),
        }
    }

    /// Borrows the date day numbers; errors on other types.
    pub fn as_date(&self) -> Result<&[i32]> {
        match self {
            Column::Date(v) => Ok(v),
            other => Err(type_err("date", other)),
        }
    }

    /// Borrows the dictionary column; errors on other types.
    pub fn as_str(&self) -> Result<&DictColumn> {
        match self {
            Column::Str(d) => Ok(d),
            other => Err(type_err("utf8", other)),
        }
    }

    /// Borrows the bool payload; errors on other types.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => Err(type_err("bool", other)),
        }
    }

    /// Builds a column by repeating one value `n` times (literal broadcast).
    pub fn repeat(value: &Value, n: usize) -> Column {
        match value {
            Value::I64(v) => Column::Int64(vec![*v; n]),
            Value::I32(v) => Column::Int32(vec![*v; n]),
            Value::F64(v) => Column::Float64(vec![*v; n]),
            Value::Dec(d) => Column::Decimal(vec![d.mantissa(); n], d.scale()),
            Value::Date(d) => Column::Date(vec![d.0; n]),
            Value::Str(s) => {
                let mut b = DictBuilder::with_capacity(n);
                for _ in 0..n {
                    b.push(s);
                }
                Column::Str(b.finish())
            }
            Value::Bool(b) => Column::Bool(vec![*b; n]),
        }
    }

    /// Concatenates columns of the same type (used by the cluster driver when
    /// merging per-node partials).
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let first = parts
            .first()
            .ok_or_else(|| StorageError::Parse("concat of zero columns".to_string()))?;
        match first {
            Column::Int64(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_i64()?);
                }
                Ok(Column::Int64(out))
            }
            Column::Int32(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_i32()?);
                }
                Ok(Column::Int32(out))
            }
            Column::Float64(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_f64()?);
                }
                Ok(Column::Float64(out))
            }
            Column::Decimal(_, s) => {
                let mut out = Vec::new();
                for p in parts {
                    let (m, ps) = p.as_decimal()?;
                    if ps != *s {
                        return Err(type_err(&format!("decimal({s})"), p));
                    }
                    out.extend_from_slice(m);
                }
                Ok(Column::Decimal(out, *s))
            }
            Column::Date(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_date()?);
                }
                Ok(Column::Date(out))
            }
            Column::Str(_) => {
                let dicts = parts.iter().map(|p| p.as_str()).collect::<Result<Vec<_>>>()?;
                Ok(Column::Str(DictColumn::concat(&dicts)))
            }
            Column::Bool(_) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend_from_slice(p.as_bool()?);
                }
                Ok(Column::Bool(out))
            }
        }
    }
}

fn type_err(expected: &str, actual: &Column) -> StorageError {
    StorageError::TypeMismatch {
        expected: expected.to_string(),
        actual: actual.data_type().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_type() {
        let c = Column::Decimal(vec![100, 250], 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.data_type(), DataType::Decimal(2));
        assert!(!c.is_empty());
    }

    #[test]
    fn value_extraction() {
        let c = Column::Date(vec![Date32::from_ymd(1995, 6, 17).0]);
        assert_eq!(c.value(0).to_string(), "1995-06-17");
        let s: DictColumn = ["a", "b"].into_iter().collect();
        assert_eq!(Column::Str(s).value(1), Value::Str("b".into()));
    }

    #[test]
    fn take_gathers_rows() {
        let c = Column::Int64(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 1]);
        assert_eq!(t.as_i64().unwrap(), &[40, 20]);
    }

    #[test]
    fn typed_accessors_enforce_type() {
        let c = Column::Int64(vec![1]);
        assert!(c.as_i64().is_ok());
        assert!(matches!(c.as_f64(), Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn repeat_broadcasts() {
        let c = Column::repeat(&Value::Str("x".into()), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_str().unwrap().cardinality(), 1);
        let c = Column::repeat(&Value::Dec(Decimal64::new(5, 2)), 2);
        assert_eq!(c.as_decimal().unwrap().0, &[5, 5]);
    }

    #[test]
    fn concat_joins_parts() {
        let a = Column::Int64(vec![1, 2]);
        let b = Column::Int64(vec![3]);
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn concat_rejects_mixed_scales() {
        let a = Column::Decimal(vec![1], 2);
        let b = Column::Decimal(vec![1], 4);
        assert!(Column::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn concat_strings_reinterns() {
        let a = Column::Str(["x", "y"].into_iter().collect());
        let b = Column::Str(["y", "z"].into_iter().collect());
        let c = Column::concat(&[&a, &b]).unwrap();
        let d = c.as_str().unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.cardinality(), 3);
    }

    #[test]
    fn heap_bytes_scale_with_rows() {
        let small = Column::Int64(vec![0; 10]).heap_bytes();
        let big = Column::Int64(vec![0; 1000]).heap_bytes();
        assert_eq!(big, 100 * small);
    }
}
