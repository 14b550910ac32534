//! # wimpi-hwsim
//!
//! Analytical hardware models for the paper's ten comparison points
//! (Table I). A query executes for real on the host via `wimpi-engine`,
//! producing a measured `WorkProfile`; this crate prices that profile under
//! each machine's roofline model ([`model::predict`]) and predicts the
//! Figure 2 microbenchmark scores ([`micro`]), whose kernels run for real on
//! the host in [`kernels`]. [`normalize`] is §III's arithmetic over Table
//! I's MSRP, hourly and TDP columns (Figures 5–7).
//!
//! The substitution rationale — why modelling replaces the physical Pi
//! cluster and Xeons we don't have — is documented in DESIGN.md §2, with
//! every calibration anchor traced to a sentence of the paper in
//! [`profiles`].

pub mod kernels;
pub mod micro;
pub mod model;
pub mod normalize;
pub mod profiles;

pub use model::{
    modeled_fused_gain, modeled_prune_gain, modeled_speedup, modeled_spill_penalty, predict,
    predict_all_cores, predict_single_core, Prediction,
};
pub use profiles::{all_profiles, pi3b, profile, Category, HwProfile};
