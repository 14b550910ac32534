//! Schemas: column names and types.

use std::fmt;
use std::sync::Arc;

use crate::error::{Result, StorageError};

/// Logical column types supported by the store.
///
/// TPC-H needs exactly these: 64/32-bit integers for keys and counts,
/// fixed-point decimals for money and rates, dates, and strings (always
/// dictionary-encoded — see [`crate::dict::DictColumn`]). `Bool` and
/// `Float64` appear only in intermediates (predicates, averages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 32-bit signed integer.
    Int32,
    /// IEEE-754 double.
    Float64,
    /// Fixed-point decimal with the given scale (see [`crate::decimal`]).
    Decimal(u8),
    /// Days since the Unix epoch (see [`crate::date`]).
    Date,
    /// Dictionary-encoded UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Bytes per row of this type's *orderable key representation*: strings
    /// sort as 4-byte dictionary ranks, everything else as an 8-byte
    /// integer/float. The engine's sort operator sizes its key buffers (and
    /// therefore its memory reservation) from this.
    pub fn sort_key_bytes(&self) -> u64 {
        match self {
            DataType::Utf8 => 4,
            _ => 8,
        }
    }

    /// Bytes per row a column of this type streams when scanned: fixed-width
    /// payloads in full, strings as their 4-byte dictionary codes, booleans
    /// as one byte — the width behind [`crate::Column::stream_bytes`].
    pub fn stream_width(&self) -> usize {
        match self {
            DataType::Int64 | DataType::Float64 | DataType::Decimal(_) => 8,
            DataType::Int32 | DataType::Date | DataType::Utf8 => 4,
            DataType::Bool => 1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int64 => write!(f, "int64"),
            DataType::Int32 => write!(f, "int32"),
            DataType::Float64 => write!(f, "float64"),
            DataType::Decimal(s) => write!(f, "decimal({s})"),
            DataType::Date => write!(f, "date"),
            DataType::Utf8 => write!(f, "utf8"),
            DataType::Bool => write!(f, "bool"),
        }
    }
}

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (TPC-H style, e.g. `l_shipdate`).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Builds a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self { name: name.into(), data_type }
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared schema handle; relations pass these around freely.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Builds a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::ColumnNotFound(name.to_string()))
    }

    /// The field with the given name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// True when the schema has a field with the given name.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name == name)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fl) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", fl.name, fl.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_fragment() -> Schema {
        Schema::new(vec![
            Field::new("l_orderkey", DataType::Int64),
            Field::new("l_quantity", DataType::Decimal(2)),
            Field::new("l_shipdate", DataType::Date),
            Field::new("l_returnflag", DataType::Utf8),
        ])
    }

    #[test]
    fn index_of_finds_fields() {
        let s = lineitem_fragment();
        assert_eq!(s.index_of("l_shipdate").unwrap(), 2);
        assert!(matches!(s.index_of("l_tax"), Err(StorageError::ColumnNotFound(_))));
    }

    #[test]
    fn field_lookup_returns_type() {
        let s = lineitem_fragment();
        assert_eq!(s.field("l_quantity").unwrap().data_type, DataType::Decimal(2));
        assert!(s.contains("l_orderkey"));
        assert!(!s.contains("o_orderkey"));
    }

    #[test]
    fn display_is_readable() {
        let s = lineitem_fragment();
        let text = s.to_string();
        assert!(text.starts_with("(l_orderkey: int64"));
        assert!(text.contains("l_quantity: decimal(2)"));
    }
}
