//! # wimpi-cluster
//!
//! A faithful simulation of the paper's 24-node WIMPI cluster (§II-B):
//! `lineitem` is partitioned on `l_orderkey` across nodes, every other table
//! is fully replicated (§II-D2), each node runs the full query on its
//! partition for real, and a driver merges partial aggregates. Per-node
//! runtimes come from the Pi 3B+ hardware model, network transfer from the
//! 220 Mbps link model, and memory pressure from the swap-off/microSD model.
//!
//! Every run, direct or served, goes through one recovery machine
//! (`recovery.rs`) under the faults of [`faults`]: injected crashes,
//! transient OOMs, stragglers, degraded NICs and bit flips are *recovered*
//! rather than fatal — transient faults retry with capped exponential
//! backoff in simulated time, a dead node's lineitem chunk is regenerated on
//! a survivor via the chunk-deterministic generator (the extra work and
//! reshipping priced by the same hwsim/net models, `pricing.rs`), and
//! stragglers past [`faults::STRAGGLER_THRESHOLD`] get a copy on a healthy
//! node. When recovery is exhausted, an optional degraded mode returns a
//! partial answer plus a coverage fraction instead of an error.
//!
//! Substitution note (DESIGN.md §2): the paper ran 24 physical Raspberry
//! Pis; here every node's *work* is real (executed on the host over the real
//! partition) and only the *clock* is modelled.

pub mod coordinator;
pub mod distribute;
pub mod faults;
pub mod memory;
pub mod nam;
mod pricing;
mod recovery;

use std::fmt;
use std::sync::Arc;

use distribute::{distribute, touches_partitioned, Strategy};
use faults::{FaultPlan, RecoveryPolicy, RecoveryReport};
use memory::MemoryModel;
pub use pricing::scan_bytes;
use recovery::Layout;
use wimpi_engine::{EngineError, QueryContext, Relation, WorkProfile};
use wimpi_hwsim::kernels::NetModel;
use wimpi_hwsim::{pi3b, HwProfile};
use wimpi_obs::Registry;
use wimpi_queries::QueryPlan;
use wimpi_storage::morsel::{pool_workers, run_each};
use wimpi_storage::{Catalog, Table};
use wimpi_tpch::{Generator, PartitionedTables};

/// Cluster-level errors. Every query-time variant names the query so
/// multi-query studies can attribute failures.
#[derive(Debug)]
pub enum ClusterError {
    /// A planning/execution failure.
    Engine(EngineError),
    /// A node needed by the query is unreachable and unrecoverable.
    NodeDown {
        /// The query being executed.
        query: String,
        /// Node index.
        node: usize,
    },
    /// A node's anonymous memory demand exceeded its RAM (swap is off) and
    /// no recovery path exists: every node is identical, so reassignment
    /// would OOM too.
    NodeOom {
        /// The query being executed.
        query: String,
        /// Node index.
        node: usize,
        /// Bytes the query needed.
        needed: u64,
    },
    /// Every node failed; not even a degraded answer is possible.
    AllNodesFailed {
        /// The query being executed.
        query: String,
        /// How many nodes were lost.
        failed: usize,
    },
    /// The query cannot be distributed (e.g. a two-phase scalar query).
    Unsupported(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Engine(e) => write!(f, "engine: {e}"),
            ClusterError::NodeDown { query, node } => {
                write!(f, "{query}: node {node} is down and unrecoverable")
            }
            ClusterError::NodeOom { query, node, needed } => {
                write!(
                    f,
                    "{query}: node {node} out of memory ({needed} B needed, swap off); \
                     identical nodes make reassignment futile"
                )
            }
            ClusterError::AllNodesFailed { query, failed } => {
                write!(f, "{query}: all {failed} nodes failed; no survivor to recover on")
            }
            ClusterError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<EngineError> for ClusterError {
    fn from(e: EngineError) -> Self {
        ClusterError::Engine(e)
    }
}

impl From<wimpi_storage::StorageError> for ClusterError {
    fn from(e: wimpi_storage::StorageError) -> Self {
        ClusterError::Engine(EngineError::Storage(e))
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Cluster construction parameters. Every node's work is priced at all of
/// the Pi's hardware threads, as the paper runs MonetDB fully parallel.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Node count (the paper sweeps 4–24).
    pub nodes: u32,
    /// TPC-H scale factor held by the cluster.
    pub sf: f64,
    /// Per-node memory model.
    pub memory: MemoryModel,
    /// Node NIC model.
    pub net: NetModel,
    /// Extrapolation multiplier applied to measured per-node work and base
    /// bytes before pricing (DESIGN.md §4): a cluster *built* at SF `sf` but
    /// *modelled* as holding SF `sf × model_scale`. 1.0 = no extrapolation.
    pub model_scale: f64,
}

impl ClusterConfig {
    /// A WIMPI cluster of `nodes` Raspberry Pi 3B+ nodes holding SF `sf`.
    pub fn new(nodes: u32, sf: f64) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        Self {
            nodes,
            sf,
            memory: MemoryModel::wimpi_node(),
            net: NetModel::wimpi_node(),
            model_scale: 1.0,
        }
    }

    /// Sets the work-extrapolation multiplier (see `model_scale`).
    pub fn with_model_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.model_scale = scale;
        self
    }
}

/// One distributed run's outcome and simulated timing.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// The merged query result (partial when `recovery.degraded`).
    pub result: Relation,
    /// Simulated seconds per node, including any recovery work the node
    /// absorbed (max is the parallel phase; 0.0 for a node that died
    /// before doing useful work).
    pub node_seconds: Vec<f64>,
    /// Per-partition measured work, indexed by the partition's *home* node
    /// (a reassigned partition's profile is still recorded at its home
    /// index; `recovery.reassignments` says who really ran it). A query
    /// that never touches `lineitem` has one partition, homed at node 0.
    pub node_profiles: Vec<WorkProfile>,
    /// Seconds spent shipping partials to the driver.
    pub network_seconds: f64,
    /// Seconds the driver spends merging.
    pub merge_seconds: f64,
    /// Partial-result bytes shipped.
    pub bytes_shipped: u64,
    /// Nodes that actually executed (1 for non-lineitem queries).
    pub nodes_used: u32,
    /// Fault-recovery bookkeeping (all zeros/1.0 for a fault-free run).
    pub recovery: RecoveryReport,
}

impl DistRun {
    /// End-to-end simulated seconds: slowest node + network + merge.
    /// Recovery delays are already folded into the per-node times.
    pub fn total_seconds(&self) -> f64 {
        self.node_seconds.iter().cloned().fold(0.0, f64::max)
            + self.network_seconds
            + self.merge_seconds
    }
}

/// The simulated WIMPI cluster.
pub struct WimpiCluster {
    config: ClusterConfig,
    pi: HwProfile,
    node_catalogs: Vec<Catalog>,
    /// Replicated tables (region … partsupp + orders), shared by every node
    /// and by recovery catalogs.
    replicated: Vec<(String, Arc<Table>)>,
    /// The generator the partitions came from, comment pools and all: a
    /// reroute regenerates a lost partition with it.
    gen: Generator,
    policy: RecoveryPolicy,
    metrics: Registry,
}

impl WimpiCluster {
    /// Generates the database and distributes it: lineitem partitioned by
    /// order key, everything else replicated (shared, not copied, on the
    /// host — each simulated node still *accounts* for its full replica).
    pub fn build(config: ClusterConfig) -> Result<Self> {
        let gen = Generator::new(config.sf);
        let PartitionedTables { replicated, lineitem } =
            gen.generate_partitioned(config.nodes as u64)?;
        // Every resident table is sealed with an integrity manifest at build
        // time — the trusted reference scan-time verification checks against
        // (DESIGN.md §12) — a table a task on the pool. Replicated tables
        // share one sealed Arc.
        let names: Vec<&str> = replicated.iter().map(|&(name, _)| name).collect();
        let tables = replicated.into_iter().map(|(_, t)| t).chain(lineitem).collect();
        let mut sealed = run_each(pool_workers(), tables, Table::with_integrity).into_iter();
        let replicated: Vec<(String, Arc<Table>)> =
            names.iter().zip(sealed.by_ref()).map(|(&n, t)| (n.to_string(), Arc::new(t))).collect();
        let node_catalogs = sealed
            .map(|lineitem| {
                let mut cat = Catalog::new();
                for (name, t) in &replicated {
                    cat.register_shared(name.clone(), Arc::clone(t));
                }
                cat.register("lineitem", lineitem);
                cat
            })
            .collect();
        Ok(Self {
            gen,
            pi: pi3b(),
            config,
            node_catalogs,
            replicated,
            policy: RecoveryPolicy::default(),
            metrics: Registry::new(),
        })
    }

    /// Fault/recovery metrics accumulated across every run on this cluster:
    /// per-kind fault counters, retry/speculation/reassignment totals, a
    /// backoff-delay histogram, and the last answer's coverage gauge. Render
    /// with [`Registry::render`] or [`Registry::to_json`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Node count.
    pub fn num_nodes(&self) -> u32 {
        self.config.nodes
    }

    /// The recovery policy applied by [`Self::run`] and friends.
    pub fn recovery_policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Replaces the recovery policy.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// The catalog a node holds (tests and benches peek at partitions).
    pub fn node_catalog(&self, node: usize) -> &Catalog {
        &self.node_catalogs[node]
    }

    /// Runs a query across the cluster with the given shipping strategy,
    /// fault-free. Errors name the query by the tables it reads; a node is
    /// lost by running with a [`FaultKind::Crash`](faults::FaultKind::Crash)
    /// in [`Self::run_with`]'s plan.
    ///
    /// Queries that never touch the partitioned `lineitem` run on one node
    /// only — exactly the paper's Q13 behaviour (§II-D2: "adding more nodes
    /// has no impact on the performance of Q13").
    pub fn run(&self, q: &QueryPlan, strategy: Strategy) -> Result<DistRun> {
        let label = match q {
            QueryPlan::Single(p) => format!("query[{}]", p.tables().join("+")),
            QueryPlan::TwoPhase { .. } => "two-phase query".to_string(),
        };
        self.run_with(&label, q, strategy, &FaultPlan::none())
    }

    /// [`Self::run`] of the query named `query` (e.g. "Q6", used in errors)
    /// under an injected fault schedule. Every fault goes through the one
    /// recovery machine: home attempts, reroutes, straggler copies, then
    /// ship and merge.
    pub fn run_with(
        &self,
        query: &str,
        q: &QueryPlan,
        strategy: Strategy,
        faults: &FaultPlan,
    ) -> Result<DistRun> {
        let QueryPlan::Single(plan) = q else {
            return Err(ClusterError::Unsupported(format!(
                "{query}: two-phase scalar queries are not distributed; run them single-node"
            )));
        };
        let dist;
        let layout = if touches_partitioned(plan) {
            dist = distribute(plan, strategy)?;
            Layout::Partitioned(&dist, strategy)
        } else {
            Layout::Replicated(plan)
        };
        self.recover(query, layout, faults, &QueryContext::new(), &[], &mut Vec::new())
    }

    /// (rows, heap bytes) of a node's lineitem partition.
    fn partition_size(&self, node: usize) -> (u64, u64) {
        let t = self.node_catalogs[node]
            .table("lineitem")
            .expect("every node holds a lineitem partition");
        (t.num_rows() as u64, t.heap_bytes() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::Distributed;
    use crate::faults::{FaultKind, Reassignment};
    use wimpi_engine::{EngineConfig, Tracer};
    use wimpi_queries::query;

    fn small_cluster(nodes: u32) -> WimpiCluster {
        WimpiCluster::build(ClusterConfig::new(nodes, 0.01)).expect("build succeeds")
    }

    #[test]
    fn build_partitions_lineitem_and_replicates_rest() {
        let c = small_cluster(4);
        let gen = Generator::new(0.01);
        let (full_orders, full_lineitem) = gen.orders_lineitem().unwrap();
        let part_rows: usize =
            (0..4).map(|i| c.node_catalog(i).table("lineitem").unwrap().num_rows()).sum();
        assert_eq!(part_rows, full_lineitem.num_rows());
        for i in 0..4 {
            let cat = c.node_catalog(i);
            assert_eq!(cat.table("orders").unwrap().num_rows(), full_orders.num_rows());
            assert_eq!(cat.table("customer").unwrap().num_rows(), 1500);
        }
        // Partition key ranges are disjoint and ordered.
        let mut last_max = 0;
        for i in 0..4 {
            let keys = c.node_catalog(i).table("lineitem").unwrap();
            let keys = keys.column_by_name("l_orderkey").unwrap();
            let keys = keys.as_i64().unwrap();
            let lo = *keys.iter().min().unwrap();
            let hi = *keys.iter().max().unwrap();
            assert!(lo > last_max, "partitions must be disjoint on orderkey");
            last_max = hi;
        }
    }

    #[test]
    fn any_worker_count_builds_the_same_node_catalogs() {
        use wimpi_storage::morsel::with_pool_workers;
        let build = |workers| {
            with_pool_workers(workers, || WimpiCluster::build(ClusterConfig::new(4, 0.01)).unwrap())
        };
        let serial = build(1);
        for workers in [2, 3, 4] {
            let c = build(workers);
            for node in 0..4 {
                let (a, b) = (c.node_catalog(node), serial.node_catalog(node));
                assert_eq!(a.names().collect::<Vec<_>>(), b.names().collect::<Vec<_>>());
                for name in b.names() {
                    let (x, y) = (a.table(name).unwrap(), b.table(name).unwrap());
                    for ci in 0..y.num_columns() {
                        assert_eq!(x.column(ci), y.column(ci), "node {node} {name} column {ci}");
                    }
                    assert_eq!(x.manifest(), y.manifest(), "node {node} {name} at {workers}");
                    assert!(x.manifest().is_some(), "node {node} {name} is sealed");
                }
            }
        }
    }

    #[test]
    fn distributed_q6_matches_reference() {
        let c = small_cluster(3);
        let full = Generator::new(0.01).generate_catalog().unwrap();
        let q = query(6);
        let (reference, _) = wimpi_queries::run(&q, &full).unwrap();
        let run = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        assert_eq!(
            run.result.column("revenue").unwrap().as_decimal().unwrap(),
            reference.column("revenue").unwrap().as_decimal().unwrap(),
        );
        assert_eq!(run.nodes_used, 3);
        assert!(run.total_seconds() > 0.0);
        // Fault-free runs carry an empty recovery report.
        assert_eq!(run.recovery, RecoveryReport::default());
    }

    #[test]
    fn ship_rows_strategy_matches_but_ships_more() {
        let c = small_cluster(2);
        let q = query(6);
        let push = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let ship = c.run(&q, Strategy::ShipRows).unwrap();
        let a = push.result.column("revenue").unwrap();
        let b = ship.result.column("revenue").unwrap();
        assert_eq!(a.as_decimal().unwrap(), b.as_decimal().unwrap());
        assert!(
            ship.bytes_shipped > 100 * push.bytes_shipped,
            "shipping rows must move orders of magnitude more data: {} vs {}",
            ship.bytes_shipped,
            push.bytes_shipped
        );
    }

    #[test]
    fn q13_runs_on_one_node() {
        let c = small_cluster(4);
        let run = c.run(&query(13), Strategy::PartialAggPushdown).unwrap();
        assert_eq!(run.nodes_used, 1);
        assert_eq!(run.network_seconds, 0.0);
        // Same answer as a full single-node run (customer/orders are
        // replicated, so node 0 sees everything).
        let full = Generator::new(0.01).generate_catalog().unwrap();
        let (reference, _) = wimpi_queries::run(&query(13), &full).unwrap();
        assert_eq!(run.result.num_rows(), reference.num_rows());
    }

    #[test]
    fn dead_node_recovers_via_reassignment() {
        let c = small_cluster(3);
        let q = query(6);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let run = c.run_with("Q6", &q, Strategy::PartialAggPushdown, &FaultPlan::crash(1)).unwrap();
        assert_eq!(
            run.result.column("revenue").unwrap().as_decimal().unwrap(),
            healthy.result.column("revenue").unwrap().as_decimal().unwrap(),
            "recovery must not change the answer"
        );
        assert_eq!(run.recovery.reassignments.len(), 1);
        assert_eq!(run.recovery.reassignments[0].partition, 1);
        assert_ne!(run.recovery.reassignments[0].to, 1);
        assert!(run.recovery.recovery_seconds > 0.0, "recovery is not free");
        assert!(
            run.total_seconds() > healthy.total_seconds(),
            "regeneration + re-execution must cost simulated time"
        );
        assert_eq!(run.nodes_used, 2);
        assert!(!run.recovery.degraded);
        // A fault plan lives for one run: the next fault-free run moves nothing.
        let back = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        assert!(back.recovery.reassignments.is_empty());
    }

    #[test]
    fn q13_reroutes_around_dead_node_zero() {
        let c = small_cluster(3);
        let reference = c.run(&query(13), Strategy::PartialAggPushdown).unwrap();
        let crash = FaultPlan::crash(0);
        let run = c.run_with("Q13", &query(13), Strategy::PartialAggPushdown, &crash).unwrap();
        assert_eq!(run.result.num_rows(), reference.result.num_rows());
        assert_eq!(run.recovery.reassignments, vec![Reassignment { partition: 0, to: 1 }]);
    }

    #[test]
    fn all_nodes_dead_is_an_error_naming_the_query() {
        let c = small_cluster(2);
        let crash = FaultPlan::crash(0).with(1, FaultKind::Crash);
        let err = c.run_with("Q6", &query(6), Strategy::PartialAggPushdown, &crash).unwrap_err();
        assert!(matches!(err, ClusterError::AllNodesFailed { .. }));
        assert!(err.to_string().contains("Q6"), "query label in message: {err}");
    }

    #[test]
    fn oom_when_memory_too_small() {
        // 256 bytes: even maximally Grace-partitioned hash builds and the
        // final sort's key buffer cannot fit, so the governed retry is
        // exhausted and the deterministic capacity OOM survives.
        let mut config = ClusterConfig::new(2, 0.01);
        config.memory.mem_bytes = 256;
        config.memory.os_reserve_bytes = 0;
        let c = WimpiCluster::build(config).unwrap();
        let err = c.run(&query(3), Strategy::ShipRows).unwrap_err();
        assert!(matches!(err, ClusterError::NodeOom { .. }));
        assert!(err.to_string().contains("query["), "query label in message: {err}");

        // 4 KiB — under which the hash tables alone overflow (Q3's one
        // remaining hash build, over filtered `customer`, is 4.8 KB; its
        // other join and its group-by find their input in key order and
        // build nothing) — completes: the budgeted retry degrades the build
        // to Grace partitioning that fits.
        let mut config = ClusterConfig::new(2, 0.01);
        config.memory.mem_bytes = 4 << 10;
        config.memory.os_reserve_bytes = 0;
        let c = WimpiCluster::build(config).unwrap();
        let run = c.run(&query(3), Strategy::ShipRows).unwrap();
        assert!(run.recovery.budget_degraded > 0, "4 KiB must go through the degraded path");
    }

    #[test]
    fn scan_bytes_prunes_projections() {
        let c = small_cluster(1);
        let cat = c.node_catalog(0);
        let q6 = match query(6) {
            QueryPlan::Single(p) => p,
            _ => unreachable!(),
        };
        let pruned = scan_bytes(&q6, cat).unwrap();
        let full = cat.table("lineitem").unwrap().heap_bytes() as u64;
        assert!(pruned < full / 2, "Q6 touches a minority of lineitem: {pruned} vs {full}");
    }

    #[test]
    fn transient_oom_retries_then_succeeds() {
        let c = small_cluster(3);
        let q = query(6);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let plan = FaultPlan::none().with(1, FaultKind::TransientOom { failures: 2 });
        let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(
            run.result.column("revenue").unwrap().as_decimal().unwrap(),
            healthy.result.column("revenue").unwrap().as_decimal().unwrap(),
        );
        assert_eq!(run.recovery.retries, 2);
        assert!(run.recovery.reassignments.is_empty(), "retry succeeded in place");
        assert!(run.node_seconds[1] > healthy.node_seconds[1]);
    }

    #[test]
    fn metrics_accumulate_fault_and_recovery_events() {
        let c = small_cluster(3);
        let q = query(6);
        let plan = FaultPlan::none().with(1, FaultKind::TransientOom { failures: 2 });
        c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let m = c.metrics();
        assert_eq!(m.counter("cluster_runs_total"), 2);
        assert_eq!(m.counter("cluster_faults_total{kind=\"transient_oom\"}"), 1);
        assert_eq!(m.counter("cluster_retries_total"), 2);
        assert_eq!(m.counter("cluster_speculations_total"), 0);
        assert_eq!(m.gauge("cluster_coverage_last"), Some(1.0));
        let rendered = m.render();
        assert!(rendered.contains("cluster_backoff_seconds"), "{rendered}");
        assert!(rendered.contains("cluster_recovery_seconds"), "{rendered}");
    }

    #[test]
    fn transient_oom_beyond_budget_reassigns() {
        let c = small_cluster(3);
        let q = query(6);
        let budget = faults::MAX_RETRIES;
        let plan = FaultPlan::none().with(0, FaultKind::TransientOom { failures: budget + 5 });
        let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(run.recovery.retries, budget);
        assert_eq!(run.recovery.reassignments.len(), 1);
        assert_eq!(run.recovery.reassignments[0].partition, 0);
        // A single-node query's node out of retries is declared dead and the
        // query moves, exactly like a lineitem partition — it does not keep
        // node 0's answer.
        let healthy = c.run(&query(13), Strategy::PartialAggPushdown).unwrap();
        let run = c.run_with("Q13", &query(13), Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(run.recovery.retries, budget);
        assert_eq!(run.recovery.reassignments, vec![Reassignment { partition: 0, to: 1 }]);
        assert_eq!(run.result, healthy.result);
    }

    #[test]
    fn straggler_speculation_caps_the_tail() {
        let mut c = small_cluster(4);
        let q = query(1);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let plan = FaultPlan::none().with(2, FaultKind::SlowNode { multiplier: 50.0 });
        let spec = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(spec.recovery.speculated, 1);
        assert!(
            spec.total_seconds() < healthy.total_seconds() * 50.0 / 2.0,
            "speculation must beat waiting out a 50x straggler: {} vs {}",
            spec.total_seconds(),
            healthy.total_seconds()
        );
        // Without speculation the straggler dominates.
        let mut policy = *c.recovery_policy();
        policy.speculation = false;
        c.set_recovery_policy(policy);
        let slow = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(slow.recovery.speculated, 0);
        assert!(slow.total_seconds() > spec.total_seconds());
        assert_eq!(
            spec.result.column("sum_qty").unwrap().as_decimal().unwrap(),
            slow.result.column("sum_qty").unwrap().as_decimal().unwrap(),
        );
    }

    #[test]
    fn speculation_cancels_the_straggler_cooperatively() {
        let c = small_cluster(4);
        let q = query(1);
        let plan = FaultPlan::none().with(2, FaultKind::SlowNode { multiplier: 50.0 });
        let spec = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(spec.recovery.speculated, 1);
        // The straggler is charged only up to the cancellation point, and
        // that wasted work is accounted separately.
        assert!(spec.recovery.cancelled_work_seconds > 0.0);
        assert!(
            spec.recovery.cancelled_work_seconds <= spec.node_seconds[2] + 1e-12,
            "cancelled work cannot exceed the straggler's charged time: {} vs {}",
            spec.recovery.cancelled_work_seconds,
            spec.node_seconds[2]
        );
        let rendered = c.metrics().render();
        assert!(rendered.contains("cluster_cancelled_work_seconds"), "{rendered}");
        // A fault-free run wastes nothing.
        let clean = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        assert_eq!(clean.recovery.cancelled_work_seconds, 0.0);
    }

    #[test]
    fn stragglers_with_no_healthy_survivor_get_no_copy() {
        // Node 0 is lost and both survivors are slow: there is no median to
        // measure a straggler against, so neither is copied — not even the
        // 50× one that a copy on the 2× node would beat.
        let c = small_cluster(3);
        let plan = FaultPlan::crash(0)
            .with(1, FaultKind::SlowNode { multiplier: 50.0 })
            .with(2, FaultKind::SlowNode { multiplier: 2.0 });
        let run = c.run_with("Q", &query(1), Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(run.recovery.speculated, 0);
        assert_eq!(run.recovery.reassignments.len(), 1, "only the crashed partition moves");
    }

    #[test]
    fn model_hard_oom_degrades_to_a_budgeted_grace_run() {
        let q = query(3);
        let reference = small_cluster(2).run(&q, Strategy::PartialAggPushdown).unwrap();
        // Measure the per-node unbudgeted reservation peak, then probe for
        // an `avail` below it that a budget-governed (Grace-degraded) run
        // still fits — mirroring exactly what the cluster's retry will do.
        let probe_cluster = small_cluster(2);
        let plan = match query(3) {
            QueryPlan::Single(p) => p,
            _ => unreachable!(),
        };
        let Distributed { node_plan, .. } =
            distribute(&plan, Strategy::PartialAggPushdown).unwrap();
        let serial = EngineConfig::serial();
        let hard: u64 = (0..2)
            .map(|i| {
                let ctx = QueryContext::new();
                wimpi_engine::execute_query_with(
                    &node_plan,
                    probe_cluster.node_catalog(i),
                    &serial,
                    &ctx,
                    Tracer::off(),
                )
                .unwrap();
                ctx.hard_high_water()
            })
            .max()
            .unwrap();
        assert!(hard > 0, "Q3 must reserve scratch");
        let avail = (1..16u64)
            .rev()
            .map(|frac| hard * frac / 16)
            .find(|&avail| {
                (0..2).all(|i| {
                    let ctx = QueryContext::with_budget(avail);
                    wimpi_engine::execute_query_with(
                        &node_plan,
                        probe_cluster.node_catalog(i),
                        &serial,
                        &ctx,
                        Tracer::off(),
                    )
                    .is_ok()
                        && ctx.fallbacks() > 0
                        && ctx.hard_high_water() <= avail
                })
            })
            .expect("some reduced budget lets Q3 degrade and fit");
        let mut config = ClusterConfig::new(2, 0.01);
        config.memory.mem_bytes = avail;
        config.memory.os_reserve_bytes = 0;
        let c = WimpiCluster::build(config).unwrap();
        let run = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        // Bit-exact vs the unconstrained cluster, with the degradation
        // visible in the report and the registry.
        for (name, col) in reference.result.fields() {
            assert_eq!(
                run.result.column(name).unwrap().as_ref(),
                col.as_ref(),
                "budget-degraded answer must match on {name}"
            );
        }
        assert!(
            run.recovery.budget_degraded >= 2,
            "both home partitions should have degraded: {}",
            run.recovery.budget_degraded
        );
        assert!(c.metrics().counter("cluster_degraded_budget_runs_total") >= 2);
    }

    #[test]
    fn degraded_nic_prices_extra_shipping() {
        let c = small_cluster(3);
        let q = query(6);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let plan = FaultPlan::none().with(1, FaultKind::DegradedNic { multiplier: 8.0 });
        let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert!(run.network_seconds > healthy.network_seconds);
        assert!(run.recovery.recovery_seconds > 0.0);
        assert_eq!(
            run.result.column("revenue").unwrap().as_decimal().unwrap(),
            healthy.result.column("revenue").unwrap().as_decimal().unwrap(),
        );
    }

    #[test]
    fn unlimited_survivors_absorb_everything() {
        let c = small_cluster(3);
        let crash = FaultPlan::crash(1).with(2, FaultKind::Crash);
        let run = c.run_with("Q6", &query(6), Strategy::PartialAggPushdown, &crash).unwrap();
        assert!(!run.recovery.degraded);
        assert!((run.recovery.coverage - 1.0).abs() < 1e-12);
        assert_eq!(run.recovery.reassignments.len(), 2);
        assert_eq!(run.nodes_used, 1);
    }

    #[test]
    fn capped_recovery_fails_loudly_or_degrades() {
        let mut c = small_cluster(4);
        let mut policy = *c.recovery_policy();
        policy.reassign_cap = 1; // one survivor may absorb one partition
        c.set_recovery_policy(policy);
        let crash = FaultPlan::crash(1).with(2, FaultKind::Crash).with(3, FaultKind::Crash);
        let run =
            |c: &WimpiCluster| c.run_with("Q6", &query(6), Strategy::PartialAggPushdown, &crash);
        // Three lost partitions, one survivor with capacity for one: the
        // strict policy refuses …
        let err = run(&c).unwrap_err();
        assert!(matches!(err, ClusterError::NodeDown { .. }), "got {err}");
        // … and the degraded policy answers with partial coverage.
        policy.degraded_ok = true;
        c.set_recovery_policy(policy);
        let run = run(&c).unwrap();
        assert!(run.recovery.degraded);
        assert!(run.recovery.coverage > 0.0 && run.recovery.coverage < 1.0);
        assert_eq!(run.recovery.reassignments.len(), 1);
        assert_eq!(run.result.num_rows(), 1, "Q6 still yields its scalar");
    }

    #[test]
    fn bit_flip_is_detected_repaired_and_bit_exact() {
        let c = small_cluster(3);
        let q = query(6);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        assert_eq!(healthy.recovery, RecoveryReport::default());
        let plan = FaultPlan::none().with(1, FaultKind::BitFlip { chunks: 2, bits_per_chunk: 3 });
        let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(run.result, healthy.result, "repaired answer must be bit-exact");
        assert!(run.recovery.integrity_detected >= 1, "{:?}", run.recovery);
        assert_eq!(run.recovery.integrity_repaired, run.recovery.integrity_detected);
        assert!(!run.recovery.degraded);
        assert!((run.recovery.coverage - 1.0).abs() < 1e-12);
        assert!(
            run.node_seconds[1] > healthy.node_seconds[1],
            "detection + repair + re-verified run must cost simulated time"
        );
        let m = c.metrics();
        assert_eq!(m.counter("cluster_faults_total{kind=\"bit_flip\"}"), 1);
        assert_eq!(m.counter("integrity_failures_total"), run.recovery.integrity_detected as u64);
        assert_eq!(m.counter("integrity_repairs_total"), run.recovery.integrity_repaired as u64);
        assert!(m.counter("integrity_checks_total") > 0, "verified scans count their checks");
        assert!(m.render().contains("integrity_repair_seconds"));
    }

    #[test]
    fn bit_flip_on_a_replicated_table_repairs_by_peer_refetch() {
        // Q13 never touches lineitem: the single-replica path corrupts a
        // replicated table and repairs by re-fetching a peer's sealed copy.
        let c = small_cluster(3);
        let q = query(13);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let plan = FaultPlan::none().with(0, FaultKind::BitFlip { chunks: 1, bits_per_chunk: 1 });
        let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(run.result, healthy.result);
        assert!(run.recovery.integrity_detected >= 1, "{:?}", run.recovery);
        assert_eq!(run.recovery.integrity_repaired, run.recovery.integrity_detected);
        assert!(run.node_seconds[0] > healthy.node_seconds[0]);
    }

    #[test]
    fn every_seeded_bit_flip_shape_is_detected() {
        // The corruption helper draws data chunks, dictionary values, and
        // the manifest itself across seeds/params; every shape must be
        // caught and the repaired answer must stay bit-exact.
        let c = small_cluster(4);
        let q = query(1);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        for (node, chunks, bits) in [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 2, 1)] {
            let plan =
                FaultPlan::none().with(node, FaultKind::BitFlip { chunks, bits_per_chunk: bits });
            let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
            assert_eq!(run.result, healthy.result, "node {node} chunks {chunks} bits {bits}");
            assert!(run.recovery.integrity_detected >= 1, "node {node}: {:?}", run.recovery);
            assert_eq!(run.recovery.integrity_repaired, run.recovery.integrity_detected);
        }
    }

    #[test]
    fn unrepairable_corruption_escalates_to_reassignment() {
        // Poison the node's *actual* resident partition (keeping the sealed
        // manifest): local regeneration re-runs over the same corrupt
        // bytes, so verify-after-repair keeps failing until the partition
        // escalates to a survivor.
        let mut c = small_cluster(3);
        let lineitem = Arc::clone(c.node_catalogs[0].table("lineitem").unwrap());
        let qty = lineitem.column(4); // l_quantity — scanned by Q6
        let dirty = wimpi_storage::integrity::flip_bits(qty.as_ref(), 0..qty.len(), 2, 7);
        let poisoned = lineitem.with_replaced_column(4, dirty).unwrap();
        c.node_catalogs[0].register("lineitem", poisoned);
        let q = query(6);
        let plan = FaultPlan::none().with(0, FaultKind::BitFlip { chunks: 1, bits_per_chunk: 1 });
        let run = c.run_with("Q", &q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert!(run.recovery.integrity_detected >= 1);
        assert_eq!(run.recovery.integrity_repaired, 0, "local repair can never verify");
        assert!(run.recovery.retries >= faults::MAX_RETRIES);
        assert_eq!(run.recovery.reassignments.len(), 1, "{:?}", run.recovery);
        assert_eq!(run.recovery.reassignments[0].partition, 0);
        assert!(!run.recovery.degraded);
        assert!((run.recovery.coverage - 1.0).abs() < 1e-12, "survivor regenerated cleanly");
    }

    #[test]
    fn verification_off_keeps_fault_free_runs_untouched() {
        // Sealing manifests at build time must not change a fault-free
        // run's answer, profile, or integrity accounting.
        let c = small_cluster(2);
        let run = c.run(&query(6), Strategy::PartialAggPushdown).unwrap();
        assert_eq!(run.recovery, RecoveryReport::default());
        assert_eq!(c.metrics().counter("integrity_checks_total"), 0);
        assert_eq!(c.metrics().counter("integrity_failures_total"), 0);
    }
}
