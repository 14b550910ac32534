//! The paper's normalization arithmetic (§III).
//!
//! Runtimes are multiplied by the metric under consideration — MSRP dollars,
//! hourly dollars, or TDP watts — and the *improvement factor* of a
//! Pi/WIMPI configuration over a traditional server is
//! `(server_time × server_metric) / (pi_time × pi_metric)`. Values above the
//! 1× break-even line favour the SBC.

use crate::profiles::{pi3b, wimpi};
use crate::HwProfile;

/// Improvement factor of configuration A over reference R:
/// `(t_R · m_R) / (t_A · m_A)`; > 1 means A wins.
pub fn improvement(t_a: f64, m_a: f64, t_r: f64, m_r: f64) -> f64 {
    (t_r * m_r) / (t_a * m_a)
}

/// A comparison point's MSRP as the paper counts it: per-socket MSRP times
/// socket count (§III-A1 doubles the dual-socket on-premises boxes).
pub fn msrp(hw: &HwProfile) -> Option<f64> {
    hw.msrp_usd.map(|m| m * hw.sockets as f64)
}

/// A comparison point's power draw as the paper counts it: per-CPU TDP times
/// socket count, like [`msrp`] (§III-B1's ≈ 10× median needs both sockets of
/// the dual-socket on-premises boxes).
pub fn power_w(hw: &HwProfile) -> Option<f64> {
    hw.tdp_watts.map(|w| w * hw.sockets as f64)
}

/// MSRP of an n-node WIMPI cluster, nodes plus peripherals (§II-B).
pub fn wimpi_msrp(nodes: u32) -> f64 {
    nodes as f64 * (pi3b().msrp_usd.expect("pi3b+ MSRP") + wimpi::PERIPHERALS_USD)
}

/// Hourly operating cost of an n-node WIMPI cluster (the Pi's per-node rate,
/// computed from peak draw × US average $/kWh).
pub fn wimpi_hourly(nodes: u32) -> f64 {
    nodes as f64 * pi3b().hourly_usd.expect("pi3b+ hourly rate")
}

/// Peak power draw of an n-node WIMPI cluster in watts (the Pi's per-board
/// peak; the paper's ~122 W for 24 nodes).
pub fn wimpi_power_w(nodes: u32) -> f64 {
    nodes as f64 * pi3b().tdp_watts.expect("pi3b+ peak draw")
}

/// First cluster size (in `sizes` order) whose improvement over the
/// reference crosses 1×; `None` when the server always wins (the paper's
/// Q13).
pub fn break_even_nodes(sizes: &[u32], improvements: &[f64]) -> Option<u32> {
    sizes.iter().zip(improvements).find(|(_, &imp)| imp >= 1.0).map(|(&n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;

    #[test]
    fn improvement_matches_paper_example() {
        // Paper §III: "5× could mean the Pi is 5× faster at the same cost,
        // or takes twice as long but costs 10× less."
        let same_cost = improvement(1.0, 10.0, 5.0, 10.0);
        assert!((same_cost - 5.0).abs() < 1e-12);
        let slower_cheaper = improvement(2.0, 1.0, 1.0, 10.0);
        assert!((slower_cheaper - 5.0).abs() < 1e-12);
    }

    #[test]
    fn msrp_doubles_dual_socket() {
        let e5 = profile("op-e5").unwrap();
        assert_eq!(msrp(&e5), Some(2778.0));
        let pi = profile("pi3b+").unwrap();
        assert_eq!(msrp(&pi), Some(35.0));
        let cloud = profile("m5.metal").unwrap();
        assert_eq!(msrp(&cloud), None, "custom SKUs have no MSRP");
    }

    #[test]
    fn wimpi_cluster_costs() {
        // 24 nodes ≈ $840 bare (paper) + peripherals.
        assert_eq!(24.0 * 35.0, 840.0);
        assert!((wimpi_msrp(24) - (840.0 + 24.0 * 12.5)).abs() < 1e-9);
        assert!((wimpi_power_w(24) - 122.4).abs() < 0.1, "paper: ≈122 W total");
        assert!((wimpi_hourly(1) - 0.0004).abs() < 1e-12);
    }

    #[test]
    fn break_even_detection() {
        let sizes = [4, 8, 12, 16];
        assert_eq!(break_even_nodes(&sizes, &[0.2, 0.9, 1.3, 1.2]), Some(12));
        assert_eq!(break_even_nodes(&sizes, &[0.2, 0.3, 0.4, 0.5]), None);
        assert_eq!(break_even_nodes(&sizes, &[1.5, 1.3, 1.2, 1.1]), Some(4));
    }
}
