//! # wimpi
//!
//! Umbrella crate for the WIMPI reproduction of "The Case for In-Memory OLAP
//! on 'Wimpy' Nodes" (ICDE 2021). Re-exports every sub-crate so examples and
//! integration tests can use a single dependency.

pub use wimpi_cluster as cluster;
pub use wimpi_core as core;
pub use wimpi_engine as engine;
pub use wimpi_hwsim as hwsim;
pub use wimpi_obs as obs;
pub use wimpi_queries as queries;
pub use wimpi_sql as sql;
pub use wimpi_storage as storage;
pub use wimpi_strategies as strategies;
pub use wimpi_tpch as tpch;
