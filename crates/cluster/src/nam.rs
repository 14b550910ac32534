//! Hybrid NAM (network-attached-memory) deployments — the paper's §III-C1
//! future-work proposal, implemented as an extension.
//!
//! A single traditional server joins the Pi cluster: it hosts the large
//! memory pool and performs the memory-hungry final stages (driver merge,
//! large aggregations), while the Pi nodes keep doing the embarrassingly
//! parallel partition scans. Compared to the all-Pi driver this removes two
//! bottlenecks at once: the driver's 220 Mbps NIC (the server has a full
//! gigabit port) and the driver's 1 GB memory ceiling (no thrash on the
//! merge).

use crate::distribute::Strategy;
use crate::faults::FaultPlan;
use crate::{DistRun, Result, WimpiCluster};
use wimpi_hwsim::kernels::NetModel;
use wimpi_hwsim::normalize;
use wimpi_hwsim::{predict_all_cores, HwProfile};
use wimpi_queries::QueryPlan;

/// A hybrid cluster: Pi workers plus one big-memory merge server.
pub struct NamCluster {
    /// The underlying all-Pi cluster (owns the data and the workers).
    pub workers: WimpiCluster,
    /// The server hosting the memory pool and running the merge.
    pub server: HwProfile,
    /// The server's network link (a full port, not the Pis' shared bus).
    pub server_net: NetModel,
}

impl NamCluster {
    /// Attaches a merge server to an existing WIMPI cluster.
    pub fn new(workers: WimpiCluster, server: HwProfile) -> Self {
        Self { workers, server, server_net: NetModel::gigabit() }
    }

    /// Runs the query named `query` under `faults`: Pi nodes execute their
    /// partitions exactly as in the all-Pi deployment
    /// ([`WimpiCluster::run_with`]), recovery included, but partials ship to
    /// the server, which merges them with its own compute/bandwidth and
    /// without memory pressure.
    pub fn run_with(
        &self,
        query: &str,
        q: &QueryPlan,
        strategy: Strategy,
        faults: &FaultPlan,
    ) -> Result<DistRun> {
        let base = self.workers.run_with(query, q, strategy, faults)?;
        if base.nodes_used == 1 {
            // Single-node queries (Q13): NAM can host them on the server
            // outright — the §III-C1 "tasks that require a large amount of
            // memory" case.
            let prof = base.node_profiles[0];
            let t = predict_all_cores(&self.server, &prof).total_s();
            return Ok(DistRun { node_seconds: vec![t], ..base });
        }
        // Re-price the shipping and the merge on the server.
        let network_seconds = self.server_net.transfer_s(base.bytes_shipped);
        // The merge's work is not kept separately in DistRun: scale the Pi
        // driver's merge time by the server/Pi rate ratio — exact for
        // compute, conservative for memory.
        let pi = wimpi_hwsim::pi3b();
        let rate_ratio = (self.server.olap_rate_1c()
            * self.server.effective_cores(self.server.threads))
            / (pi.olap_rate_1c() * pi.effective_cores(pi.threads));
        let merge_seconds = (base.merge_seconds / rate_ratio).min(base.merge_seconds);
        Ok(DistRun { network_seconds, merge_seconds, ..base })
    }

    /// MSRP of the hybrid: the Pi nodes plus the server's CPU list price.
    pub fn msrp(&self) -> Option<f64> {
        Some(normalize::wimpi_msrp(self.workers.num_nodes()) + normalize::msrp(&self.server)?)
    }

    /// Peak power: Pi nodes plus the server's TDP.
    pub fn power_w(&self) -> Option<f64> {
        Some(normalize::wimpi_power_w(self.workers.num_nodes()) + normalize::power_w(&self.server)?)
    }
}

impl std::fmt::Debug for NamCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamCluster")
            .field("workers", &self.workers.num_nodes())
            .field("server", &self.server.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use wimpi_queries::query;

    fn hybrid(nodes: u32) -> NamCluster {
        let workers = WimpiCluster::build(ClusterConfig::new(nodes, 0.01)).expect("cluster builds");
        NamCluster::new(workers, wimpi_hwsim::profile("op-e5").expect("profile"))
    }

    #[test]
    fn results_match_all_pi_deployment() {
        let h = hybrid(3);
        let q = query(6);
        let all_pi = h.workers.run(&q, Strategy::PartialAggPushdown).unwrap();
        let nam = h.run_with("Q", &q, Strategy::PartialAggPushdown, &FaultPlan::none()).unwrap();
        assert_eq!(
            nam.result.column("revenue").unwrap().as_decimal().unwrap(),
            all_pi.result.column("revenue").unwrap().as_decimal().unwrap(),
            "NAM changes the clock, never the answer"
        );
    }

    #[test]
    fn nam_is_never_slower_on_merge_or_network() {
        let h = hybrid(4);
        for qn in [1usize, 3, 5] {
            let q = query(qn);
            let all_pi = h.workers.run(&q, Strategy::PartialAggPushdown).unwrap();
            let nam =
                h.run_with("Q", &q, Strategy::PartialAggPushdown, &FaultPlan::none()).unwrap();
            assert!(nam.network_seconds <= all_pi.network_seconds, "Q{qn} network");
            assert!(nam.merge_seconds <= all_pi.merge_seconds, "Q{qn} merge");
            assert!(nam.total_seconds() <= all_pi.total_seconds(), "Q{qn} total");
        }
    }

    #[test]
    fn q13_moves_to_the_server() {
        // The memory-hungry single-node query lands on the server, which
        // beats a lone Pi by a wide margin.
        let h = hybrid(4);
        let q = query(13);
        let all_pi = h.workers.run(&q, Strategy::PartialAggPushdown).unwrap();
        let nam = h.run_with("Q", &q, Strategy::PartialAggPushdown, &FaultPlan::none()).unwrap();
        assert!(
            nam.total_seconds() < all_pi.total_seconds() / 2.0,
            "server-hosted Q13 should be much faster: {} vs {}",
            nam.total_seconds(),
            all_pi.total_seconds()
        );
        assert_eq!(nam.result.num_rows(), all_pi.result.num_rows());
    }

    #[test]
    fn recovery_survives_the_hybrid_path() {
        let h = hybrid(3);
        let q = query(6);
        let healthy =
            h.run_with("Q", &q, Strategy::PartialAggPushdown, &FaultPlan::none()).unwrap();
        let run = h.run_with("Q6", &q, Strategy::PartialAggPushdown, &FaultPlan::crash(1)).unwrap();
        assert_eq!(run.recovery.reassignments.len(), 1);
        assert!(run.recovery.recovery_seconds > 0.0);
        assert_eq!(
            run.result.column("revenue").unwrap().as_decimal().unwrap(),
            healthy.result.column("revenue").unwrap().as_decimal().unwrap(),
        );
    }

    #[test]
    fn hybrid_costing_includes_server() {
        let h = hybrid(8);
        let msrp = h.msrp().expect("op-e5 has an MSRP");
        assert!(msrp > normalize::wimpi_msrp(8));
        let power = h.power_w().expect("op-e5 has a TDP");
        assert!((power - (8.0 * 5.1 + 2.0 * 95.0)).abs() < 1e-9);
    }
}
