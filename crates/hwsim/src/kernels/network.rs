//! Network transfer model — the WIMPI interconnect.
//!
//! The paper measured ≈ 220 Mbps between two WIMPI nodes with iperf (§II-C3):
//! the Pi 3B+'s gigabit port shares a USB 2.0 bus, capping effective
//! bandwidth at ≈ 20% of line rate. This model is the substitution for that
//! physical measurement (DESIGN.md §2) and is what the cluster driver
//! charges for shipping partial results.

use crate::profiles::wimpi;

/// A point-to-point link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Effective bandwidth, megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency, milliseconds.
    pub latency_ms: f64,
}

impl NetModel {
    /// The WIMPI node link: 220 Mbps effective, sub-millisecond switch RTT.
    pub fn wimpi_node() -> Self {
        Self { bandwidth_mbps: wimpi::NODE_NET_MBPS, latency_ms: 0.3 }
    }

    /// An unconstrained gigabit link (the switch backplane).
    pub fn gigabit() -> Self {
        Self { bandwidth_mbps: wimpi::SWITCH_GBPS * 1_000.0, latency_ms: 0.1 }
    }

    /// Seconds to transfer `bytes` over the link (latency + serialization).
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_ms / 1e3 + bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e6)
    }

    /// An iperf-style throughput report for an `n`-second measurement
    /// window: bytes the link can move, and the Mbps it would print.
    pub fn iperf(&self, seconds: f64) -> (u64, f64) {
        let bytes = (self.bandwidth_mbps * 1e6 / 8.0 * seconds) as u64;
        (bytes, self.bandwidth_mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wimpi_link_matches_paper_iperf() {
        let (_, mbps) = NetModel::wimpi_node().iperf(10.0);
        assert!((mbps - 220.0).abs() < 1.0, "paper measured ≈220 Mbps");
    }

    #[test]
    fn node_link_is_a_fifth_of_line_rate() {
        let ratio = NetModel::wimpi_node().bandwidth_mbps / NetModel::gigabit().bandwidth_mbps;
        assert!((0.15..=0.25).contains(&ratio), "USB-bus cap ≈ 20%");
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let net = NetModel::wimpi_node();
        let one_mb = net.transfer_s(1 << 20);
        let ten_mb = net.transfer_s(10 << 20);
        assert!(ten_mb > one_mb * 9.0);
        // 1 MiB at 220 Mbps ≈ 38 ms
        assert!((one_mb - 0.0384).abs() < 0.005, "got {one_mb}");
    }

    #[test]
    fn latency_floors_small_messages() {
        let net = NetModel::wimpi_node();
        assert!(net.transfer_s(1) >= 0.0003);
    }
}
