//! # wimpi-core
//!
//! The reproduced study itself: one experiment runner per table/figure of
//! the paper ([`experiments`]), the paper's published numbers for
//! side-by-side comparison ([`mod@reference`]), and report generation
//! ([`report`]). The four binaries under `src/bin/` (`all`, `nam`,
//! `faults`, `extensions`) are thin wrappers over this crate; [`report`]
//! documents their flags.

pub mod experiments;
// Named `reference` like the primitive; rustdoc disambiguates via the module path.
#[doc(alias = "paper-data")]
pub mod reference;
pub mod report;
pub mod trace_check;

pub use trace_check::{parse_json, validate_trace_json, Json, TraceStats};

pub use experiments::{
    fig3, fig5, fig6, fig7, AvailabilityTable, DistributedTable, ExtensionsTable, SingleNodeTable,
    Study,
};
pub use report::{compare_table2, compare_table3, median, Comparison};
