//! wimpi-obs — zero-cost-when-disabled observability for the WIMPI stack.
//!
//! Three small pieces, no dependencies:
//!
//! - [`Tracer`]/[`Span`]: operator-level trace trees for query execution.
//!   Spans carry rows in/out, wall time, and named work counters (the
//!   engine feeds its `WorkProfile` deltas through). Per-morsel spans are
//!   collected through a [`MorselSink`] and merged in morsel-index order, so
//!   trace *structure* is as deterministic as query results — only measured
//!   wall times and worker ids vary run to run.
//! - [`Registry`]: counters, gauges, and fixed-bucket histograms for event
//!   streams (cluster faults/recoveries, service and coordinator ledgers).
//! - [`log::status`]: uniform stderr status lines for the bench bins,
//!   silenced by `WIMPI_QUIET=1`, keeping stdout machine-clean.
//!
//! Why counters are *named pairs* and not `WorkProfile`: obs sits below the
//! engine in the dependency graph (engine depends on obs, never the other
//! way), so spans store `Vec<(String, u64)>` and the engine converts. The
//! generic form is also what the JSON export and the `wimpi-core` trace
//! checker consume.

pub mod log;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use metrics::{Histogram, Metric, Registry};
pub use span::Span;
pub use tracer::{MorselSink, MorselSpan, Tracer};
