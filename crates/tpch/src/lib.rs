//! # wimpi-tpch
//!
//! A deterministic TPC-H data generator (dbgen replacement) plus the eight
//! table schemas. Chunked generation lets the cluster crate materialize one
//! node's lineitem partition at a time (see `Generator::orders_lineitem_chunk`).
//!
//! Documented deviations from the reference dbgen are listed in `DESIGN.md`
//! §2 and in the `gen` module docs.

pub mod cluster;
pub mod gen;
pub mod rng;
pub mod schema;
pub mod tbl;
pub mod text;

pub use cluster::{cluster_by, clustered_catalog};
pub use gen::{current_date, Generator, PartitionedTables};
