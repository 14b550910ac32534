//! Microbenchmark score prediction (Figure 2 of the paper).
//!
//! The real kernels live in [`crate::kernels`]; this module turns a
//! [`HwProfile`] into the scores those kernels would report on that machine,
//! using the calibrated per-core rates.

use crate::profiles::HwProfile;

/// sysbench's default `cpu-max-prime` workload size (primality testing of
/// every integer up to 10,000) in op-e5 core-seconds — sets the absolute
/// scale of Figure 2c.
const PRIME_WORKLOAD_OPE5_SECONDS: f64 = 10.0;

/// Figure 2a: Whetstone MWIPS for `threads` threads (higher is better).
pub fn whetstone_mwips(hw: &HwProfile, threads: u32) -> f64 {
    hw.whet_mwips_1c * hw.effective_cores(threads)
}

/// Figure 2b: Dhrystone DMIPS (higher is better).
pub fn dhrystone_dmips(hw: &HwProfile, threads: u32) -> f64 {
    hw.dhry_dmips_1c * hw.effective_cores(threads)
}

/// Figure 2c: sysbench prime runtime in seconds (lower is better).
pub fn sysbench_prime_seconds(hw: &HwProfile, threads: u32) -> f64 {
    PRIME_WORKLOAD_OPE5_SECONDS / (hw.prime_rate_1c * hw.effective_cores(threads))
}

/// Figure 2d: sysbench sequential memory bandwidth in GB/s (higher is
/// better). Hyper-Threading does not help bandwidth (paper §II-C2), so the
/// thread count is clamped to physical cores.
pub fn memory_bandwidth_gbs(hw: &HwProfile, threads: u32) -> f64 {
    hw.membw_gbs(threads.min(hw.cores))
}

/// One Figure 2 row: scores for a single profile, single-core and all-core.
#[derive(Debug, Clone)]
pub struct MicroScores {
    /// Profile name.
    pub name: String,
    /// (1-core, all-core) Whetstone MWIPS.
    pub whetstone: (f64, f64),
    /// (1-core, all-core) Dhrystone DMIPS.
    pub dhrystone: (f64, f64),
    /// (1-core, all-core) sysbench prime seconds.
    pub prime_s: (f64, f64),
    /// (1-core, all-core) bandwidth GB/s.
    pub membw_gbs: (f64, f64),
}

/// Computes the whole Figure 2 row for a profile.
pub fn scores(hw: &HwProfile) -> MicroScores {
    MicroScores {
        name: hw.name.to_string(),
        whetstone: (whetstone_mwips(hw, 1), whetstone_mwips(hw, hw.threads)),
        dhrystone: (dhrystone_dmips(hw, 1), dhrystone_dmips(hw, hw.threads)),
        prime_s: (sysbench_prime_seconds(hw, 1), sysbench_prime_seconds(hw, hw.threads)),
        membw_gbs: (memory_bandwidth_gbs(hw, 1), memory_bandwidth_gbs(hw, hw.cores)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{all_profiles, pi3b, profile};

    #[test]
    fn pi_single_core_prime_matches_op_e5() {
        // The paper's §II-C1 surprise: the Pi ties the op-e5 on sysbench.
        let pi = sysbench_prime_seconds(&pi3b(), 1);
        let e5 = sysbench_prime_seconds(&profile("op-e5").unwrap(), 1);
        let ratio = pi / e5;
        assert!((0.9..=1.2).contains(&ratio), "pi/op-e5 prime ratio {ratio}");
    }

    #[test]
    fn all_core_prime_gap_is_4_to_14x_except_c6g() {
        let pi = sysbench_prime_seconds(&pi3b(), 4);
        for p in all_profiles() {
            if p.name == "pi3b+" || p.name == "c6g.metal" {
                continue;
            }
            let ratio = pi / sysbench_prime_seconds(&p, p.threads);
            assert!(
                (3.0..=16.0).contains(&ratio),
                "{} all-core prime speedup {ratio} outside the paper's band",
                p.name
            );
        }
        let c6g = profile("c6g.metal").unwrap();
        let ratio = pi / sysbench_prime_seconds(&c6g, c6g.threads);
        assert!(ratio > 16.0, "c6g is the paper's outlier: {ratio}");
    }

    #[test]
    fn bandwidth_ignores_smt() {
        let e5 = profile("op-e5").unwrap();
        assert_eq!(memory_bandwidth_gbs(&e5, 20), memory_bandwidth_gbs(&e5, 10));
    }

    #[test]
    fn pi_bandwidth_flat_across_cores() {
        let pi = pi3b();
        let one = memory_bandwidth_gbs(&pi, 1);
        let four = memory_bandwidth_gbs(&pi, 4);
        assert!(four / one < 1.2, "single memory channel saturates with one core");
    }

    #[test]
    fn scores_cover_both_configs() {
        let s = scores(&profile("m5.metal").unwrap());
        assert!(s.whetstone.1 > s.whetstone.0 * 20.0);
        assert!(s.prime_s.1 < s.prime_s.0);
        assert!(s.membw_gbs.1 > s.membw_gbs.0);
    }
}
