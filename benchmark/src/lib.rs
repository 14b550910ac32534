//! The repo's benchmark (ISSUE 14): four workloads, eight end-to-end metrics
//! and a per-layer traced run, all measured from outside the crates under
//! `crates/` through their public functions. See `README.md`.

pub mod harness;
pub mod layers;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
