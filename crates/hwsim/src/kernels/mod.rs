//! Runnable implementations of the microbenchmarks in the paper's §II-C:
//! Whetstone (Figure 2a), Dhrystone (Figure 2b), the sysbench prime test
//! (Figure 2c), a sequential memory-bandwidth probe (Figure 2d), and the
//! WIMPI network-link model (§II-C3's iperf measurement).
//!
//! These kernels run for real on the host and define the work units
//! [`crate::micro`] prices per hardware profile; host scores act as the
//! sanity anchor recorded in EXPERIMENTS.md.

pub mod dhrystone;
pub mod membw;
pub mod network;
pub mod primes;
pub mod whetstone;

pub use network::NetModel;
