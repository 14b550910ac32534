//! # wimpi-storage
//!
//! The columnar storage layer shared by every crate in the WIMPI
//! reproduction: typed [`Column`]s, dictionary-encoded strings, fixed-point
//! [`decimal::Decimal64`]s, [`date::Date32`] calendar dates, [`Schema`]s,
//! immutable [`Table`]s, [`Catalog`]s, and MonetDB-style selection vectors.
//!
//! Design notes live in the repository's `DESIGN.md` (§3, §7).

pub mod checksum;
pub mod column;
pub mod date;
pub mod decimal;
pub mod dict;
pub mod error;
pub mod hash;
pub mod integrity;
pub mod morsel;
pub mod schema;
pub mod selection;
pub mod spill;
pub mod splitmix;
pub mod table;
pub mod value;
pub mod zonemap;

pub use checksum::crc32c;
pub use column::Column;
pub use date::Date32;
pub use decimal::Decimal64;
pub use dict::{DictBuilder, DictColumn, IndexInterner};
pub use error::{Result, StorageError};
pub use integrity::{IntegrityManifest, IntegrityViolation};
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use selection::SelVec;
pub use spill::{SpillChunkId, SpillConfig, SpillCounters, SpillDisk, SpillError, SpillFaults};
pub use splitmix::SplitMix64;
pub use table::{Catalog, Table};
pub use value::Value;
pub use zonemap::{ColumnZones, ZoneMap};
