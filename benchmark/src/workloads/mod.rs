//! The four workloads. Each module's header says why the workload exists
//! and which layers it isolates.

pub mod budget;
pub mod scan_fused;
pub mod serve;
pub mod tpch22;
