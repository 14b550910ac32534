//! # wimpi-cluster
//!
//! A faithful simulation of the paper's 24-node WIMPI cluster (§II-B):
//! `lineitem` is partitioned on `l_orderkey` across nodes, every other table
//! is fully replicated (§II-D2), each node runs the full query on its
//! partition for real, and a driver merges partial aggregates. Per-node
//! runtimes come from the Pi 3B+ hardware model, network transfer from the
//! 220 Mbps link model, and memory pressure from the swap-off/microSD model.
//!
//! On top of the fault-free driver sits a fault-tolerance layer
//! ([`faults`]): injected crashes, transient OOMs, stragglers, and degraded
//! NICs are *recovered* rather than fatal — transient faults retry with
//! capped exponential backoff in simulated time, a dead node's lineitem
//! chunk is regenerated on a survivor via the chunk-deterministic generator
//! (the extra work and reshipping priced by the same hwsim/net models), and
//! stragglers past a configurable threshold are speculatively re-executed.
//! When recovery is exhausted, an optional degraded mode returns a partial
//! answer plus a coverage fraction instead of an error.
//!
//! Substitution note (DESIGN.md §2): the paper ran 24 physical Raspberry
//! Pis; here every node's *work* is real (executed on the host over the real
//! partition) and only the *clock* is modelled.

pub mod coordinator;
pub mod distribute;
pub mod faults;
pub mod memory;
pub mod nam;

use std::fmt;
use std::sync::Arc;

use distribute::{distribute, Distributed, Strategy, PARTIALS_TABLE};
use faults::{FaultKind, FaultPlan, Reassignment, RecoveryPolicy, RecoveryReport};
use memory::{MeasuredPeak, MemoryModel};
use wimpi_engine::{
    optimizer, CancelToken, EngineConfig, EngineError, LogicalPlan, QueryContext, Relation, Tracer,
    WorkProfile,
};
use wimpi_hwsim::{pi3b, predict, HwProfile};
use wimpi_microbench::NetModel;
use wimpi_obs::Registry;
use wimpi_queries::QueryPlan;
use wimpi_storage::{Catalog, Column, Field, Schema, SplitMix64, Table};
use wimpi_tpch::Generator;

/// Histogram bounds for simulated backoff delays
/// ([`wimpi_engine::backoff_s`]: 0.05 s doubling to a 1 s cap).
const BACKOFF_BUCKETS: [f64; 5] = [0.05, 0.1, 0.25, 0.5, 1.0];

/// Histogram bounds for per-run recovery seconds.
const RECOVERY_BUCKETS: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 30.0];

/// Domain-separation salt for BitFlip corruption-target draws (which
/// column/chunk/dictionary a flip lands on), independent of the fault-plan
/// stream in [`faults`].
const CORRUPTION_SALT: u64 = 0x5bd1_e995_7b7d_159f;

/// Cluster-level errors. Every query-time variant names the query so
/// multi-query studies can attribute failures.
#[derive(Debug)]
pub enum ClusterError {
    /// A planning/execution failure.
    Engine(EngineError),
    /// A node index outside `0..nodes` was given to a management call.
    NoSuchNode {
        /// The offending index.
        node: usize,
        /// Cluster size.
        nodes: usize,
    },
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
            ClusterError::NoSuchNode { node, nodes } => {
                write!(f, "node {node} does not exist (cluster has {nodes} nodes)")
            }
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

/// Cluster construction parameters.
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
    /// Software threads each node runs its query slice with. Defaults to the
    /// Pi's 4 hardware threads (the paper runs MonetDB fully parallel);
    /// lower it to model partially-loaded nodes.
    pub node_threads: u32,
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
            node_threads: pi3b().threads,
        }
    }

    /// Sets the work-extrapolation multiplier (see `model_scale`).
    pub fn with_model_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.model_scale = scale;
        self
    }

    /// Sets the per-node software thread count (see `node_threads`).
    pub fn with_node_threads(mut self, threads: u32) -> Self {
        assert!(threads > 0, "nodes need at least one thread");
        self.node_threads = threads;
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
    /// index; `recovery.reassignments` says who really ran it).
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

/// Outcome of one node's attempt at its home partition.
enum NodeOutcome {
    /// Executed: partial result, scaled profile, seconds, and the governed
    /// run's cancellation token (so a later speculation win can stop the
    /// duplicate cooperatively).
    Done(Relation, WorkProfile, f64, CancelToken),
    /// Permanently failed; recovery may begin at the given simulated time.
    Lost { available_at: f64 },
    /// Deterministic OOM (capacity, not a fault): unrecoverable on
    /// identical nodes.
    Oom { needed: u64 },
}

/// One quarantined-corruption repair order: what to restore and what the
/// detection pass already established and cost.
struct RepairJob {
    /// The corrupted table.
    target: String,
    /// Model-scaled scanned bytes (memory-model input for the re-run).
    base: u64,
    /// Simulated cost of one verified scan pass.
    verify_s: f64,
    /// Violations the quarantine enumerated (repairs must match).
    detected: u32,
}

/// One governed, memory-model-priced execution of a plan on one catalog.
enum Priced {
    /// The run fits (possibly only after the reduced-budget retry): result,
    /// scaled profile, simulated seconds (hardware model plus thrash
    /// penalty), and the cancellation token of the governed run.
    Fit { rel: Relation, prof: WorkProfile, exec_s: f64, cancel: CancelToken },
    /// Even the budget-governed retry could not fit: deterministic OOM.
    Oom { needed: u64 },
}

/// The simulated WIMPI cluster.
pub struct WimpiCluster {
    config: ClusterConfig,
    pi: HwProfile,
    node_catalogs: Vec<Catalog>,
    /// Replicated tables (region … partsupp + orders), shared by every node
    /// and by recovery catalogs.
    replicated: Vec<(String, Arc<Table>)>,
    alive: Vec<bool>,
    policy: RecoveryPolicy,
    metrics: Registry,
}

impl WimpiCluster {
    /// Generates the database and distributes it: lineitem partitioned by
    /// order key, everything else replicated (shared, not copied, on the
    /// host — each simulated node still *accounts* for its full replica).
    pub fn build(config: ClusterConfig) -> Result<Self> {
        let gen = Generator::new(config.sf);
        // Every resident table is sealed with an integrity manifest at build
        // time — the trusted reference scan-time verification checks against
        // (DESIGN.md §12). Replicated tables share one sealed Arc.
        let mut replicated: Vec<(String, Arc<Table>)> = vec![
            ("region".into(), Arc::new(gen.region_table()?.with_integrity())),
            ("nation".into(), Arc::new(gen.nation_table()?.with_integrity())),
            ("supplier".into(), Arc::new(gen.supplier_table()?.with_integrity())),
            ("customer".into(), Arc::new(gen.customer_table()?.with_integrity())),
            ("part".into(), Arc::new(gen.part_table()?.with_integrity())),
            ("partsupp".into(), Arc::new(gen.partsupp_table()?.with_integrity())),
        ];
        let mut lineitems = Vec::with_capacity(config.nodes as usize);
        let mut order_chunks = Vec::with_capacity(config.nodes as usize);
        for c in 0..config.nodes as u64 {
            let (orders, lineitem) = gen.orders_lineitem_chunk(c, config.nodes as u64)?;
            order_chunks.push(orders);
            lineitems.push(lineitem);
        }
        replicated
            .push(("orders".into(), Arc::new(concat_tables(&order_chunks)?.with_integrity())));
        let mut node_catalogs = Vec::with_capacity(config.nodes as usize);
        for lineitem in lineitems {
            let mut cat = Catalog::new();
            for (name, t) in &replicated {
                cat.register_shared(name.clone(), Arc::clone(t));
            }
            cat.register("lineitem", lineitem.with_integrity());
            node_catalogs.push(cat);
        }
        Ok(Self {
            alive: vec![true; config.nodes as usize],
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

    fn check_node(&self, node: usize) -> Result<()> {
        if node < self.alive.len() {
            Ok(())
        } else {
            Err(ClusterError::NoSuchNode { node, nodes: self.alive.len() })
        }
    }

    /// Marks a node failed (failure injection). Errors on an out-of-range
    /// index instead of panicking.
    pub fn kill_node(&mut self, node: usize) -> Result<()> {
        self.check_node(node)?;
        self.alive[node] = false;
        Ok(())
    }

    /// Brings a node back. Errors on an out-of-range index.
    pub fn restore_node(&mut self, node: usize) -> Result<()> {
        self.check_node(node)?;
        self.alive[node] = true;
        Ok(())
    }

    /// Live nodes (not [`Self::kill_node`]-ed).
    pub fn alive_nodes(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Runs a query across the cluster with the given shipping strategy,
    /// recovering from any nodes downed via [`Self::kill_node`] under the
    /// cluster's [`RecoveryPolicy`].
    ///
    /// Queries that never touch the partitioned `lineitem` run on one node
    /// only — exactly the paper's Q13 behaviour (§II-D2: "adding more nodes
    /// has no impact on the performance of Q13").
    pub fn run(&self, q: &QueryPlan, strategy: Strategy) -> Result<DistRun> {
        self.run_with_faults(q, strategy, &FaultPlan::none())
    }

    /// [`Self::run`] with an injected fault schedule.
    pub fn run_with_faults(
        &self,
        q: &QueryPlan,
        strategy: Strategy,
        faults: &FaultPlan,
    ) -> Result<DistRun> {
        let label = match q {
            QueryPlan::Single(p) => derive_label(p),
            QueryPlan::TwoPhase { .. } => "two-phase query".to_string(),
        };
        self.run_named(&label, q, strategy, faults)
    }

    /// [`Self::run_with_faults`] with a caller-supplied query name (e.g.
    /// "Q6") used in errors and reports.
    pub fn run_named(
        &self,
        query: &str,
        q: &QueryPlan,
        strategy: Strategy,
        faults: &FaultPlan,
    ) -> Result<DistRun> {
        let plan = match q {
            QueryPlan::Single(p) => p,
            QueryPlan::TwoPhase { .. } => {
                return Err(ClusterError::Unsupported(format!(
                    "{query}: two-phase scalar queries are not distributed; \
                     run them single-node"
                )))
            }
        };
        if !plan.tables().iter().any(|t| t == "lineitem") {
            return self.run_on_single_node(query, plan, faults);
        }
        let Distributed { node_plan, merge_plan } = distribute(plan, strategy)?;
        let n = self.node_catalogs.len();
        let mut report = RecoveryReport::default();

        // Phase 1 — every node attempts its home partition; collect *all*
        // outcomes instead of aborting on the first unhealthy node, so
        // multi-fault schedules see the full picture.
        let mut outcomes: Vec<NodeOutcome> = Vec::with_capacity(n);
        for (i, cat) in self.node_catalogs.iter().enumerate() {
            outcomes.push(self.attempt_home_partition(&node_plan, cat, i, faults, &mut report)?);
        }

        // Phase 2 — reassign lost partitions to the least-loaded survivors,
        // regenerating each chunk with the chunk-deterministic generator.
        let mut busy = vec![0.0f64; n];
        let mut partials: Vec<Option<Relation>> = (0..n).map(|_| None).collect();
        let mut profiles = vec![WorkProfile::default(); n];
        let mut exec_cost = vec![f64::NAN; n];
        let mut executor: Vec<usize> = (0..n).collect();
        let mut survivors: Vec<usize> = Vec::new();
        let mut lost: Vec<(usize, f64)> = Vec::new();
        let mut oom_nodes: Vec<(usize, u64)> = Vec::new();
        let mut cancels: Vec<Option<CancelToken>> = (0..n).map(|_| None).collect();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                NodeOutcome::Done(rel, prof, secs, cancel) => {
                    busy[i] = secs;
                    exec_cost[i] = secs;
                    partials[i] = Some(rel);
                    profiles[i] = prof;
                    cancels[i] = Some(cancel);
                    survivors.push(i);
                }
                NodeOutcome::Lost { available_at } => lost.push((i, available_at)),
                NodeOutcome::Oom { needed } => oom_nodes.push((i, needed)),
            }
        }
        if let Some(&(node, needed)) = oom_nodes.first() {
            // Deterministic capacity overflow: identical nodes mean the
            // reassigned execution would OOM too. Degrade or fail.
            if !self.policy.degraded_ok {
                return Err(ClusterError::NodeOom { query: query.into(), node, needed });
            }
        }
        if survivors.is_empty() {
            return Err(ClusterError::AllNodesFailed { query: query.into(), failed: n });
        }
        let mut absorbed = vec![0usize; n];
        for &(p, available_at) in &lost {
            let candidates: Vec<usize> = survivors
                .iter()
                .copied()
                .filter(|&j| absorbed[j] < self.policy.reassign_cap)
                .collect();
            if candidates.is_empty() {
                // Every survivor is at its reassignment cap: recovery is
                // exhausted for this partition. Degrade or fail.
                if self.policy.degraded_ok {
                    continue;
                }
                return Err(ClusterError::NodeDown { query: query.into(), node: p });
            }
            let j = least_busy(&candidates, &busy);
            absorbed[j] += 1;
            let (rel, prof, regen_s, exec_s) =
                self.recover_partition(query, &node_plan, p, j, &mut report)?;
            let start = busy[j].max(available_at);
            busy[j] = start + regen_s + exec_s;
            report.recovery_seconds += regen_s + exec_s;
            report.reassignments.push(Reassignment { partition: p, to: j });
            partials[p] = Some(rel);
            profiles[p] = prof;
            exec_cost[p] = exec_s;
            executor[p] = j;
        }

        // Phase 3 — speculative re-execution of stragglers: when a node
        // runs past `threshold × median`, launch a copy (regeneration +
        // execution) on the least-loaded survivor and take whichever
        // finishes first. The result is identical either way (deterministic
        // partitions), so only the clock and the accounting move.
        if self.policy.speculation && survivors.len() > 1 {
            let median_s = median_of(
                survivors
                    .iter()
                    .filter(|&&i| !is_slow(faults.fault(i)))
                    .map(|&i| busy[i])
                    .collect(),
            );
            if let Some(median_s) = median_s {
                let threshold = self.policy.straggler_threshold * median_s;
                for i in 0..n {
                    if !is_slow(faults.fault(i)) || busy[i] <= threshold {
                        continue;
                    }
                    let others: Vec<usize> =
                        survivors.iter().copied().filter(|&j| j != i).collect();
                    if others.is_empty() {
                        continue;
                    }
                    let j = least_busy(&others, &busy);
                    let (rows, heap) = self.partition_size(i);
                    let regen_s = self.regeneration_seconds(rows, heap);
                    // The copy runs on a *healthy* node: strip the
                    // straggler's slowdown from its recorded cost.
                    let mult = match faults.fault(i) {
                        Some(FaultKind::SlowNode { multiplier }) => multiplier.max(1.0),
                        _ => 1.0,
                    };
                    let copy_exec = exec_cost[i] / mult;
                    let done = busy[j].max(threshold) + regen_s + copy_exec;
                    if done < busy[i] {
                        report.speculated += 1;
                        report.recovery_seconds += regen_s + copy_exec;
                        report.reassignments.push(Reassignment { partition: i, to: j });
                        busy[j] = done;
                        // The copy won: the straggler's original run is
                        // stopped through the engine's cooperative token at
                        // `done`, so it is charged only the work it did up
                        // to the cancellation point — all of it wasted.
                        busy[i] = done;
                        report.cancelled_work_seconds += done;
                        if let Some(tok) = &cancels[i] {
                            tok.cancel();
                        }
                        executor[i] = j;
                    }
                }
            }
        }

        // Phases 4–5 — ship partials to the driver and merge there.
        let (result, network_seconds, merge_seconds, bytes_shipped) = self.ship_and_merge(
            query,
            strategy,
            &merge_plan,
            &partials,
            &executor,
            faults,
            &mut report,
        )?;
        let nodes_used = {
            let mut ex: Vec<usize> = partials
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_some())
                .map(|(p, _)| executor[p])
                .collect();
            ex.sort_unstable();
            ex.dedup();
            ex.len() as u32
        };
        self.record_run_metrics(faults, &report);
        Ok(DistRun {
            result,
            node_seconds: busy,
            node_profiles: profiles,
            network_seconds,
            merge_seconds,
            bytes_shipped,
            nodes_used,
            recovery: report,
        })
    }

    /// The tail every distributed run shares, whoever routed it: ship each
    /// covered partial from its `executor` to the driver (whose NIC is the
    /// bottleneck), then merge there. Partial *aggregates* have
    /// SF-independent size; shipped *rows* scale with the modelled SF. A
    /// degraded executor NIC multiplies that partition's transfer time.
    /// Fills `report`'s coverage; returns `(result, network seconds, merge
    /// seconds, bytes shipped)`.
    #[allow(clippy::too_many_arguments)]
    fn ship_and_merge(
        &self,
        query: &str,
        strategy: Strategy,
        merge_plan: &LogicalPlan,
        partials: &[Option<Relation>],
        executor: &[usize],
        faults: &FaultPlan,
        report: &mut RecoveryReport,
    ) -> Result<(Relation, f64, f64, u64)> {
        let row_scale = match strategy {
            Strategy::PartialAggPushdown => 1.0,
            Strategy::ShipRows => self.config.model_scale,
        };
        let mut bytes_shipped = 0u64;
        let mut nic_extra_s = 0.0f64;
        let mut shippers = 0usize;
        for (p, rel) in partials.iter().enumerate() {
            let Some(rel) = rel else { continue };
            let b = (rel.stream_bytes() as f64 * row_scale) as u64;
            bytes_shipped += b;
            shippers += 1;
            if let Some(FaultKind::DegradedNic { multiplier }) = faults.fault(executor[p]) {
                let base_s = self.config.net.transfer_s(b) - self.config.net.latency_ms / 1e3;
                nic_extra_s += base_s * (multiplier.max(1.0) - 1.0);
            }
        }
        let network_seconds = self.config.net.transfer_s(bytes_shipped)
            + self.config.net.latency_ms / 1e3 * shippers as f64
            + nic_extra_s;
        report.recovery_seconds += nic_extra_s;

        let covered: Vec<Relation> = partials.iter().flatten().cloned().collect();
        let (covered_rows, total_rows) = self.coverage_rows(partials);
        report.coverage =
            if total_rows == 0 { 1.0 } else { covered_rows as f64 / total_rows as f64 };
        report.degraded = covered_rows < total_rows;
        let merged_input = concat_relations(&covered)?;
        let mut merge_cat = Catalog::new();
        merge_cat.register(PARTIALS_TABLE, relation_to_table(&merged_input)?);
        // Driver-side plans may reference replicated tables above the
        // decomposition point (e.g. Q15's supplier join); share node 0's
        // replica — replicated tables are identical on every node.
        for t in merge_plan.tables() {
            if t != PARTIALS_TABLE {
                merge_cat.register_shared(&t, Arc::clone(self.node_catalogs[0].table(&t)?));
            }
        }
        let merge_base = (merged_input.stream_bytes() as f64 * row_scale) as u64;
        let (result, merge_seconds) = match self.priced_execution(
            &EngineConfig::serial(),
            merge_plan,
            &merge_cat,
            merge_base,
            row_scale,
            report,
        )? {
            Priced::Fit { rel, exec_s, .. } => (rel, exec_s),
            Priced::Oom { needed } => {
                return Err(ClusterError::NodeOom { query: query.into(), node: 0, needed })
            }
        };
        Ok((result, network_seconds, merge_seconds, bytes_shipped))
    }

    /// The backoff delay for `attempt`, recorded into the backoff histogram
    /// on the way out.
    fn observed_backoff_s(&self, attempt: u32) -> f64 {
        let delay = wimpi_engine::backoff_s(attempt);
        self.metrics.observe("cluster_backoff_seconds", &BACKOFF_BUCKETS, delay);
        delay
    }

    /// Folds one run's fault schedule and recovery report into the registry.
    fn record_run_metrics(&self, faults: &FaultPlan, report: &RecoveryReport) {
        self.metrics.inc("cluster_runs_total", 1);
        for f in faults.faults() {
            let kind = match f.kind {
                FaultKind::Crash => "crash",
                FaultKind::TransientOom { .. } => "transient_oom",
                FaultKind::SlowNode { .. } => "slow_node",
                FaultKind::DegradedNic { .. } => "degraded_nic",
                FaultKind::BitFlip { .. } => "bit_flip",
            };
            self.metrics.inc(&format!("cluster_faults_total{{kind=\"{kind}\"}}"), 1);
        }
        self.metrics.inc("cluster_retries_total", report.retries as u64);
        self.metrics.inc("cluster_speculations_total", report.speculated as u64);
        self.metrics.inc("cluster_reassignments_total", report.reassignments.len() as u64);
        if report.degraded {
            self.metrics.inc("cluster_degraded_answers_total", 1);
        }
        self.metrics.set_gauge("cluster_coverage_last", report.coverage);
        self.metrics.observe(
            "cluster_recovery_seconds",
            &RECOVERY_BUCKETS,
            report.recovery_seconds,
        );
        if report.cancelled_work_seconds > 0.0 {
            self.metrics.observe(
                "cluster_cancelled_work_seconds",
                &RECOVERY_BUCKETS,
                report.cancelled_work_seconds,
            );
        }
    }

    /// Executes `plan` on `cat` under the resource governor and prices the
    /// run with the memory model, preferring the governor's *measured*
    /// peaks (scaled by `scale`) over the model's `hash_bytes` estimate.
    ///
    /// When the model still predicts a hard OOM, the node gets exactly one
    /// more attempt under a reduced budget — the modelled available memory
    /// mapped back to host scale — so joins and aggregates degrade to
    /// Grace-partitioned builds that shrink the real reservation peak. Only
    /// when even that budgeted run cannot fit (`ResourceExhausted`, or a
    /// measured peak the partitioning cannot reduce) is the OOM final. A run
    /// that fit only under the reduced budget is counted in `report`.
    fn priced_execution(
        &self,
        cfg: &EngineConfig,
        plan: &LogicalPlan,
        cat: &Catalog,
        base: u64,
        scale: f64,
        report: &mut RecoveryReport,
    ) -> Result<Priced> {
        let mut needed = 0;
        for budgeted in [false, true] {
            let ctx = if budgeted {
                let avail = self.config.memory.available() as f64;
                QueryContext::with_budget(((avail / scale) as u64).max(1))
            } else {
                QueryContext::new()
            };
            let run = wimpi_engine::execute_query_with(plan, cat, cfg, &ctx, Tracer::off());
            let checks = ctx.integrity_checks();
            if checks > 0 {
                self.metrics.inc("integrity_checks_total", checks);
            }
            let (rel, prof) = match run {
                Err(EngineError::ResourceExhausted { .. }) if budgeted => break,
                run => run?,
            };
            let prof = prof.scale(scale);
            match self.config.memory.evaluate_measured(base, &prof, scaled_peak(&ctx, scale)) {
                Ok(penalty_s) => {
                    if budgeted {
                        self.metrics.inc("cluster_degraded_budget_runs_total", 1);
                        report.budget_degraded += 1;
                    }
                    let exec_s =
                        predict(&self.pi, &prof, self.config.node_threads).total_s() + penalty_s;
                    return Ok(Priced::Fit { rel, prof, exec_s, cancel: ctx.cancel });
                }
                Err(short) => needed = short,
            }
        }
        Ok(Priced::Oom { needed })
    }

    /// One node's attempt at its home partition, with transient faults
    /// retried under the policy's capped exponential backoff (in simulated
    /// seconds — no wall clock anywhere).
    fn attempt_home_partition(
        &self,
        node_plan: &LogicalPlan,
        cat: &Catalog,
        node: usize,
        faults: &FaultPlan,
        report: &mut RecoveryReport,
    ) -> Result<NodeOutcome> {
        let fault = faults.fault(node);
        if !self.alive[node] || fault == Some(FaultKind::Crash) {
            report.recovery_seconds += self.policy.detect_s;
            return Ok(NodeOutcome::Lost { available_at: self.policy.detect_s });
        }
        if let Some(FaultKind::BitFlip { chunks, bits_per_chunk }) = fault {
            return self.attempt_bit_flipped(node_plan, cat, node, chunks, bits_per_chunk, report);
        }
        let base = (scan_bytes(node_plan, cat)? as f64 * self.config.model_scale) as u64;
        let (rel, prof, exec_s, cancel) = match self.priced_execution(
            &EngineConfig::serial(),
            node_plan,
            cat,
            base,
            self.config.model_scale,
            report,
        )? {
            Priced::Fit { rel, prof, exec_s, cancel } => (rel, prof, exec_s, cancel),
            Priced::Oom { needed } => return Ok(NodeOutcome::Oom { needed }),
        };
        match fault {
            Some(FaultKind::TransientOom { failures }) => {
                let budget = self.policy.max_retries;
                if failures <= budget {
                    // Fails `failures` times, then succeeds: the wasted
                    // attempts and backoff delays precede the good run.
                    let mut waste = 0.0;
                    for a in 0..failures {
                        waste += exec_s + self.observed_backoff_s(a);
                    }
                    report.retries += failures;
                    report.recovery_seconds += waste;
                    Ok(NodeOutcome::Done(rel, prof, waste + exec_s, cancel))
                } else {
                    // Retry budget exhausted: declared dead; its partition
                    // becomes reassignable once the attempts have burned.
                    let mut waste = 0.0;
                    for a in 0..=budget {
                        waste += exec_s + self.observed_backoff_s(a);
                    }
                    report.retries += budget;
                    report.recovery_seconds += waste;
                    Ok(NodeOutcome::Lost { available_at: waste })
                }
            }
            Some(FaultKind::SlowNode { multiplier }) => {
                Ok(NodeOutcome::Done(rel, prof, exec_s * multiplier.max(1.0), cancel))
            }
            _ => Ok(NodeOutcome::Done(rel, prof, exec_s, cancel)),
        }
    }

    /// A [`FaultKind::BitFlip`]-faulted node's attempt: resident column
    /// bytes are silently corrupted (no error, only wrong bytes), the node
    /// runs its plan with scan-time verification on, and the checksum
    /// mismatch — not the fault injector — is what surfaces the damage.
    /// Detection quarantines every corrupt chunk against the sealed
    /// manifest, then repairs deterministically and re-verifies
    /// ([`Self::repair_and_rerun`]).
    fn attempt_bit_flipped(
        &self,
        node_plan: &LogicalPlan,
        cat: &Catalog,
        node: usize,
        chunks: u32,
        bits_per_chunk: u32,
        report: &mut RecoveryReport,
    ) -> Result<NodeOutcome> {
        let verify_cfg = EngineConfig::serial().with_verify_checksums(true);
        let base = (scan_bytes(node_plan, cat)? as f64 * self.config.model_scale) as u64;
        let verify_s = self.verification_seconds(base);
        let (ccat, target) =
            self.corrupted_catalog(node_plan, cat, node, chunks, bits_per_chunk)?;
        let scale = self.config.model_scale;
        match self.priced_execution(&verify_cfg, node_plan, &ccat, base, scale, report) {
            Ok(Priced::Fit { rel, prof, exec_s, cancel }) => {
                // The flips found nothing to land on (e.g. an empty
                // partition): the verified scan vouches for the bytes, so
                // the answer is trustworthy as-is.
                Ok(NodeOutcome::Done(rel, prof, exec_s + verify_s, cancel))
            }
            Ok(Priced::Oom { needed }) => Ok(NodeOutcome::Oom { needed }),
            Err(ClusterError::Engine(EngineError::Integrity { .. })) => {
                // Detection. Quarantine: enumerate the full extent of the
                // damage against the *clean* manifest, not just the chunk
                // the scan tripped over first.
                let detected = count_violations(cat.table(&target)?, ccat.table(&target)?);
                report.integrity_detected += detected;
                self.metrics.inc("integrity_failures_total", detected as u64);
                let job = RepairJob { target, base, verify_s, detected };
                self.repair_and_rerun(node_plan, cat, node, job, report)
            }
            Err(e) => Err(e),
        }
    }

    /// Repairs a quarantined table deterministically, re-verifies, and
    /// re-executes. `lineitem` partitions are regenerated locally via the
    /// chunk-deterministic TPC-H generator (bit-exact by construction);
    /// replicated tables are re-fetched from a peer's sealed replica over
    /// the modelled link. Verify-after-repair failures burn the policy's
    /// retry budget with backoff, then escalate the partition to the
    /// reassignment / degraded-answer ladder.
    fn repair_and_rerun(
        &self,
        node_plan: &LogicalPlan,
        cat: &Catalog,
        node: usize,
        job: RepairJob,
        report: &mut RecoveryReport,
    ) -> Result<NodeOutcome> {
        let verify_cfg = EngineConfig::serial().with_verify_checksums(true);
        let repair_s = if job.target == "lineitem" {
            let (rows, heap) = self.partition_size(node);
            self.regeneration_seconds(rows, heap)
        } else {
            let bytes =
                (cat.table(&job.target)?.heap_bytes() as f64 * self.config.model_scale) as u64;
            self.config.net.transfer_s(bytes) + self.config.memory.reload_seconds(bytes)
        };
        // Detection already cost one verified scan; every repair attempt
        // costs the repair work plus the re-verified run.
        let mut waste = job.verify_s + repair_s;
        for attempt in 0..=self.policy.max_retries {
            match self.priced_execution(
                &verify_cfg,
                node_plan,
                cat,
                job.base,
                self.config.model_scale,
                report,
            ) {
                Ok(Priced::Fit { rel, prof, exec_s, cancel }) => {
                    report.integrity_repaired += job.detected;
                    self.metrics.inc("integrity_repairs_total", job.detected as u64);
                    self.metrics.observe("integrity_repair_seconds", &RECOVERY_BUCKETS, waste);
                    report.recovery_seconds += waste;
                    let exec_s = exec_s + job.verify_s;
                    return Ok(NodeOutcome::Done(rel, prof, waste + exec_s, cancel));
                }
                Ok(Priced::Oom { needed }) => return Ok(NodeOutcome::Oom { needed }),
                Err(ClusterError::Engine(EngineError::Integrity { .. })) => {
                    // Verify-after-repair failed: the node's repair source
                    // is itself corrupt. Pay the attempt and back off.
                    report.retries += 1;
                    waste += job.verify_s + repair_s + self.observed_backoff_s(attempt);
                }
                Err(e) => return Err(e),
            }
        }
        // Capped attempts: give the partition up — a survivor regenerates
        // it from scratch (phase 2), or ultimately the degraded path.
        report.recovery_seconds += waste;
        Ok(NodeOutcome::Lost { available_at: waste })
    }

    /// A copy of `cat` where the plan's primary scan target holds silently
    /// corrupted bytes: seeded, deterministic draws flip data chunks,
    /// dictionary values, or the manifest itself, while the *original*
    /// sealed manifest rides along — which is exactly what makes the
    /// corruption detectable. Returns the catalog and the corrupted table's
    /// name.
    fn corrupted_catalog(
        &self,
        node_plan: &LogicalPlan,
        cat: &Catalog,
        node: usize,
        chunks: u32,
        bits_per_chunk: u32,
    ) -> Result<(Catalog, String)> {
        let optimized = optimizer::optimize(node_plan.clone(), cat)?;
        let scanned = scanned_tables(&optimized);
        let (target, cols) = scanned
            .iter()
            .find(|(t, _)| t == "lineitem")
            .or_else(|| scanned.first())
            .ok_or_else(|| ClusterError::Unsupported("plan scans no base table".into()))?
            .clone();
        let t = cat.table(&target)?;
        let schema = t.schema();
        let col_indices: Vec<usize> = match &cols {
            None => (0..t.num_columns()).collect(),
            Some(names) => names
                .iter()
                .filter_map(|n| schema.fields().iter().position(|f| &f.name == n))
                .collect(),
        };
        let mut rng = SplitMix64::new(
            CORRUPTION_SALT
                ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((chunks as u64) << 32)
                ^ ((bits_per_chunk as u64) << 16),
        );
        let mut dirty: Table = (**t).clone();
        for _ in 0..chunks.max(1) {
            let kind = rng.next_u64() % 8;
            let seed = rng.next_u64();
            if kind == 0 {
                if let Some(m) = dirty.manifest() {
                    let poisoned = wimpi_storage::integrity::corrupt_manifest(m, seed);
                    dirty = dirty.with_manifest(Arc::new(poisoned));
                    continue;
                }
            }
            if col_indices.is_empty() {
                break;
            }
            let ci = col_indices[(rng.next_u64() as usize) % col_indices.len()];
            let col = Arc::clone(dirty.column(ci));
            if kind == 1 && matches!(col.as_ref(), Column::Str(_)) {
                let poisoned = wimpi_storage::integrity::corrupt_dict_values(
                    col.as_ref(),
                    bits_per_chunk.max(1),
                    seed,
                );
                dirty = dirty.with_replaced_column(ci, poisoned)?;
                continue;
            }
            let n = col.len();
            if n == 0 {
                continue;
            }
            let chunk_rows = dirty
                .manifest()
                .map(|m| m.chunk_rows())
                .unwrap_or(wimpi_storage::morsel::DEFAULT_MORSEL_ROWS);
            let ranges = wimpi_storage::morsel::morsel_ranges(n, chunk_rows);
            let r = ranges[(rng.next_u64() as usize) % ranges.len()].clone();
            let poisoned =
                wimpi_storage::integrity::flip_bits(col.as_ref(), r, bits_per_chunk.max(1), seed);
            dirty = dirty.with_replaced_column(ci, poisoned)?;
        }
        let mut out = cat.clone();
        out.register(target.clone(), dirty);
        Ok((out, target))
    }

    /// Simulated seconds for one verified pass over `scanned_bytes`: the
    /// CRC32C kernel is ~one table-lookup op per byte over a sequential
    /// read of the scanned columns.
    fn verification_seconds(&self, scanned_bytes: u64) -> f64 {
        let work = WorkProfile {
            cpu_ops: scanned_bytes,
            seq_read_bytes: scanned_bytes,
            ..WorkProfile::default()
        };
        predict(&self.pi, &work, self.config.node_threads).total_s()
    }

    /// Regenerates partition `p` via the chunk-deterministic generator and
    /// executes the node plan over it on survivor `j`. Returns the partial,
    /// the scaled profile, and the regeneration/execution seconds.
    fn recover_partition(
        &self,
        query: &str,
        node_plan: &LogicalPlan,
        p: usize,
        j: usize,
        report: &mut RecoveryReport,
    ) -> Result<(Relation, WorkProfile, f64, f64)> {
        let gen = Generator::new(self.config.sf);
        let (_, lineitem) = gen.orders_lineitem_chunk(p as u64, self.config.nodes as u64)?;
        let rows = lineitem.num_rows() as u64;
        let heap = lineitem.heap_bytes() as u64;
        let mut rcat = Catalog::new();
        for (name, t) in &self.replicated {
            rcat.register_shared(name.clone(), Arc::clone(t));
        }
        rcat.register("lineitem", lineitem);
        let base = (scan_bytes(node_plan, &rcat)? as f64 * self.config.model_scale) as u64;
        let (rel, prof, exec_s) = match self.priced_execution(
            &EngineConfig::serial(),
            node_plan,
            &rcat,
            base,
            self.config.model_scale,
            report,
        )? {
            Priced::Fit { rel, prof, exec_s, .. } => (rel, prof, exec_s),
            Priced::Oom { needed } => {
                return Err(ClusterError::NodeOom { query: query.into(), node: j, needed })
            }
        };
        let regen_s = self.regeneration_seconds(rows, heap);
        Ok((rel, prof, regen_s, exec_s))
    }

    /// Simulated seconds for a survivor to regenerate a lineitem chunk:
    /// generator CPU/stream work priced by the Pi hardware model, plus
    /// persisting the regenerated columns through the microSD card (MonetDB
    /// base columns are mmap-backed files).
    fn regeneration_seconds(&self, rows: u64, heap_bytes: u64) -> f64 {
        let scaled_rows = (rows as f64 * self.config.model_scale) as u64;
        let scaled_heap = (heap_bytes as f64 * self.config.model_scale) as u64;
        let work = WorkProfile {
            // ~64 data-dependent ops per generated row (RNG draws, text
            // synthesis, column appends) — the generator is CPU-heavy.
            cpu_ops: scaled_rows * 64,
            seq_write_bytes: scaled_heap,
            rows_in: scaled_rows,
            ..WorkProfile::default()
        };
        predict(&self.pi, &work, self.config.node_threads).total_s()
            + self.config.memory.reload_seconds(scaled_heap)
    }

    /// (rows, heap bytes) of a node's lineitem partition.
    fn partition_size(&self, node: usize) -> (u64, u64) {
        let t = self.node_catalogs[node]
            .table("lineitem")
            .expect("every node holds a lineitem partition");
        (t.num_rows() as u64, t.heap_bytes() as u64)
    }

    /// (covered, total) lineitem rows for a partial-answer coverage ratio.
    fn coverage_rows(&self, partials: &[Option<Relation>]) -> (u64, u64) {
        let mut covered = 0;
        let mut total = 0;
        for (p, rel) in partials.iter().enumerate() {
            let (rows, _) = self.partition_size(p);
            total += rows;
            if rel.is_some() {
                covered += rows;
            }
        }
        (covered, total)
    }

    /// Runs a whole (non-lineitem) query on one node — node 0 when healthy,
    /// else the first healthy replica (every non-lineitem table is fully
    /// replicated, so any node gives the identical answer).
    fn run_on_single_node(
        &self,
        query: &str,
        plan: &LogicalPlan,
        faults: &FaultPlan,
    ) -> Result<DistRun> {
        let mut report = RecoveryReport::default();
        let healthy = |i: &usize| self.alive[*i] && faults.fault(*i) != Some(FaultKind::Crash);
        let mut candidates = (0..self.node_catalogs.len()).filter(healthy);
        let Some(exec_node) = candidates.next() else {
            return Err(ClusterError::AllNodesFailed {
                query: query.into(),
                failed: self.node_catalogs.len(),
            });
        };
        let mut exec_node = exec_node;
        if exec_node != 0 {
            // Node 0's death was detected, then the query was re-routed.
            report.recovery_seconds += self.policy.detect_s;
            report.reassignments.push(Reassignment { partition: 0, to: exec_node });
        }
        // Silent corruption on the executing replica: detect via the
        // verified scan, repair by re-fetching a peer's sealed copy, and
        // only if even that fails hop to the next healthy replica.
        let mut pre_s = 0.0;
        if let Some(FaultKind::BitFlip { chunks, bits_per_chunk }) = faults.fault(exec_node) {
            let cat = &self.node_catalogs[exec_node];
            match self.attempt_bit_flipped(
                plan,
                cat,
                exec_node,
                chunks,
                bits_per_chunk,
                &mut report,
            )? {
                NodeOutcome::Done(result, prof, t, _cancel) => {
                    self.record_run_metrics(faults, &report);
                    return Ok(DistRun {
                        result,
                        node_seconds: vec![t],
                        node_profiles: vec![prof],
                        network_seconds: 0.0,
                        merge_seconds: 0.0,
                        bytes_shipped: 0,
                        nodes_used: 1,
                        recovery: report,
                    });
                }
                NodeOutcome::Lost { available_at } => {
                    let Some(b) = candidates.next() else {
                        return Err(ClusterError::NodeDown {
                            query: query.into(),
                            node: exec_node,
                        });
                    };
                    report.reassignments.push(Reassignment { partition: 0, to: b });
                    pre_s = available_at;
                    exec_node = b;
                }
                NodeOutcome::Oom { needed } => {
                    return Err(ClusterError::NodeOom {
                        query: query.into(),
                        node: exec_node,
                        needed,
                    })
                }
            }
        }
        let cat = &self.node_catalogs[exec_node];
        let base = (scan_bytes(plan, cat)? as f64 * self.config.model_scale) as u64;
        let (result, prof, exec_s, cancel) = match self.priced_execution(
            &EngineConfig::serial(),
            plan,
            cat,
            base,
            self.config.model_scale,
            &mut report,
        )? {
            Priced::Fit { rel, prof, exec_s, cancel } => (rel, prof, exec_s, cancel),
            Priced::Oom { needed } => {
                return Err(ClusterError::NodeOom { query: query.into(), node: exec_node, needed })
            }
        };
        let mut t = pre_s + exec_s;
        match faults.fault(exec_node) {
            Some(FaultKind::TransientOom { failures }) => {
                let tries = failures.min(self.policy.max_retries);
                let mut waste = 0.0;
                for a in 0..tries {
                    waste += exec_s + self.observed_backoff_s(a);
                }
                report.retries += tries;
                report.recovery_seconds += waste;
                t += waste;
            }
            Some(FaultKind::SlowNode { multiplier }) => {
                let slow = exec_s * multiplier.max(1.0);
                // With a healthy replica available, hop instead of waiting
                // out a straggler worse than the speculation threshold.
                let backup = candidates.next();
                let hop = self.policy.straggler_threshold * exec_s + exec_s;
                match backup {
                    Some(b) if self.policy.speculation && hop < slow => {
                        report.speculated += 1;
                        report.recovery_seconds += exec_s;
                        report.reassignments.push(Reassignment { partition: 0, to: b });
                        // The backup finished first at `hop`: cancel the
                        // straggler's run cooperatively and charge it only
                        // the (wasted) work done up to that point.
                        report.cancelled_work_seconds += hop;
                        cancel.cancel();
                        t = hop;
                    }
                    _ => t = slow,
                }
            }
            _ => {}
        }
        self.record_run_metrics(faults, &report);
        Ok(DistRun {
            result,
            node_seconds: vec![t],
            node_profiles: vec![prof],
            network_seconds: 0.0,
            merge_seconds: 0.0,
            bytes_shipped: 0,
            nodes_used: 1,
            recovery: report,
        })
    }
}

/// A readable label for an anonymous plan, used in error messages when the
/// caller didn't name the query (see [`WimpiCluster::run_named`]).
fn derive_label(plan: &LogicalPlan) -> String {
    format!("query[{}]", plan.tables().join("+"))
}

/// The governor's measured peaks, scaled to the modelled SF. `None` when the
/// run reserved and tracked nothing (e.g. a bare scan) — the model estimate
/// stands in then.
fn scaled_peak(ctx: &QueryContext, scale: f64) -> Option<MeasuredPeak> {
    (ctx.high_water() > 0).then(|| MeasuredPeak {
        hard_bytes: (ctx.hard_high_water() as f64 * scale) as u64,
        transient_bytes: (ctx.high_water() as f64 * scale) as u64,
    })
}

/// The least-busy node among `candidates` (which must be non-empty).
fn least_busy(candidates: &[usize], busy: &[f64]) -> usize {
    *candidates.iter().min_by(|a, b| busy[**a].total_cmp(&busy[**b])).expect("candidates non-empty")
}

/// True for straggler faults.
fn is_slow(fault: Option<FaultKind>) -> bool {
    matches!(fault, Some(FaultKind::SlowNode { .. }))
}

/// Median of an unsorted sample; `None` when empty.
fn median_of(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    Some(xs[xs.len() / 2])
}

/// How many sealed checksums `dirty`'s resident bytes violate, judged
/// against `clean`'s trusted manifest (plus one for a corrupted manifest
/// self-check). At least 1 — this is only called after a detection.
fn count_violations(clean: &Table, dirty: &Table) -> u32 {
    let mut n = 0;
    if let Some(m) = dirty.manifest() {
        if !m.verify_self() {
            n += 1;
        }
    }
    if let Some(m) = clean.manifest() {
        n += m.violations(dirty).len() as u32;
    }
    n.max(1)
}

/// The base tables a plan scans, in first-scan order, each with the union
/// of scanned columns (`None` = every column). Expects an optimized plan so
/// projections reflect what executions will actually read.
fn scanned_tables(plan: &LogicalPlan) -> Vec<(String, Option<Vec<String>>)> {
    fn walk(p: &LogicalPlan, out: &mut Vec<(String, Option<Vec<String>>)>) {
        if let LogicalPlan::Scan { table, projection } = p {
            match out.iter_mut().find(|(t, _)| t == table) {
                Some((_, cols)) => match (cols.as_mut(), projection) {
                    (Some(have), Some(add)) => {
                        for c in add {
                            if !have.contains(c) {
                                have.push(c.clone());
                            }
                        }
                    }
                    _ => *cols = None,
                },
                None => out.push((table.clone(), projection.clone())),
            }
        }
        for child in p.inputs() {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// Bytes of base-table columns a plan actually scans on a catalog —
/// projection-pruned, so Q1 charges only the seven lineitem columns it
/// touches. Strings count at their *raw* width (the modelled MonetDB keeps
/// text memory-mapped uncompressed), which is what makes comment-heavy Q13
/// memory-hungry on a 1 GB node.
pub fn scan_bytes(plan: &LogicalPlan, catalog: &Catalog) -> Result<u64> {
    let optimized = optimizer::optimize(plan.clone(), catalog)?;
    fn walk(p: &LogicalPlan, cat: &Catalog, sum: &mut u64) -> Result<()> {
        if let LogicalPlan::Scan { table, projection } = p {
            let t = cat.table(table)?;
            match projection {
                Some(cols) => {
                    for c in cols {
                        *sum += t.column_by_name(c)?.resident_bytes() as u64;
                    }
                }
                None => {
                    for c in 0..t.num_columns() {
                        *sum += t.column(c).resident_bytes() as u64;
                    }
                }
            }
        }
        for child in p.inputs() {
            walk(child, cat, sum)?;
        }
        Ok(())
    }
    let mut sum = 0;
    walk(&optimized, catalog, &mut sum)?;
    Ok(sum)
}

/// Concatenates same-schema tables (used to assemble the replicated orders
/// table from per-chunk generation).
fn concat_tables(parts: &[Table]) -> Result<Table> {
    let schema = parts.first().expect("at least one part").schema().as_ref().clone();
    let mut columns = Vec::with_capacity(schema.len());
    for i in 0..schema.len() {
        let cols: Vec<&Column> = parts.iter().map(|t| t.column(i).as_ref()).collect();
        columns.push(Column::concat(&cols)?);
    }
    Ok(Table::new(schema, columns)?)
}

/// Concatenates same-schema relations (node partials → driver input).
fn concat_relations(parts: &[Relation]) -> Result<Relation> {
    let first = parts.first().expect("at least one partial");
    let mut fields = Vec::with_capacity(first.num_columns());
    for (idx, (name, _)) in first.fields().iter().enumerate() {
        let cols: Vec<&Column> = parts.iter().map(|r| r.fields()[idx].1.as_ref()).collect();
        fields.push((name.clone(), Arc::new(Column::concat(&cols)?)));
    }
    Ok(Relation::new(fields)?)
}

/// Converts a relation into a storable table (schema inferred from columns).
fn relation_to_table(rel: &Relation) -> Result<Table> {
    let schema = Schema::new(
        rel.fields().iter().map(|(n, c)| Field::new(n.clone(), c.data_type())).collect(),
    );
    let columns = rel.fields().iter().map(|(_, c)| c.as_ref().clone()).collect();
    Ok(Table::new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut c = small_cluster(3);
        let q = query(6);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        c.kill_node(1).unwrap();
        let run = c.run(&q, Strategy::PartialAggPushdown).unwrap();
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
        c.restore_node(1).unwrap();
        let back = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        assert!(back.recovery.reassignments.is_empty());
    }

    #[test]
    fn q13_reroutes_around_dead_node_zero() {
        let mut c = small_cluster(3);
        let reference = c.run(&query(13), Strategy::PartialAggPushdown).unwrap();
        c.kill_node(0).unwrap();
        let run = c.run(&query(13), Strategy::PartialAggPushdown).unwrap();
        assert_eq!(run.result.num_rows(), reference.result.num_rows());
        assert_eq!(run.recovery.reassignments, vec![Reassignment { partition: 0, to: 1 }]);
    }

    #[test]
    fn all_nodes_dead_is_an_error_naming_the_query() {
        let mut c = small_cluster(2);
        c.kill_node(0).unwrap();
        c.kill_node(1).unwrap();
        let err = c.run(&query(6), Strategy::PartialAggPushdown).unwrap_err();
        assert!(matches!(err, ClusterError::AllNodesFailed { .. }));
        assert!(err.to_string().contains("lineitem"), "query label in message: {err}");
    }

    #[test]
    fn node_management_is_bounds_checked() {
        let mut c = small_cluster(2);
        assert!(matches!(c.kill_node(7), Err(ClusterError::NoSuchNode { node: 7, nodes: 2 })));
        assert!(matches!(c.restore_node(9), Err(ClusterError::NoSuchNode { .. })));
        assert_eq!(c.alive_nodes(), 2);
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
        let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        let budget = c.recovery_policy().max_retries;
        let plan = FaultPlan::none().with(0, FaultKind::TransientOom { failures: budget + 5 });
        let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert_eq!(run.recovery.retries, budget);
        assert_eq!(run.recovery.reassignments.len(), 1);
        assert_eq!(run.recovery.reassignments[0].partition, 0);
    }

    #[test]
    fn straggler_speculation_caps_the_tail() {
        let mut c = small_cluster(4);
        let q = query(1);
        let healthy = c.run(&q, Strategy::PartialAggPushdown).unwrap();
        let plan = FaultPlan::none().with(2, FaultKind::SlowNode { multiplier: 50.0 });
        let spec = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        let slow = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        let spec = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert!(run.network_seconds > healthy.network_seconds);
        assert!(run.recovery.recovery_seconds > 0.0);
        assert_eq!(
            run.result.column("revenue").unwrap().as_decimal().unwrap(),
            healthy.result.column("revenue").unwrap().as_decimal().unwrap(),
        );
    }

    #[test]
    fn unlimited_survivors_absorb_everything() {
        let mut c = small_cluster(3);
        c.kill_node(1).unwrap();
        c.kill_node(2).unwrap();
        let run = c.run(&query(6), Strategy::PartialAggPushdown).unwrap();
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
        c.kill_node(1).unwrap();
        c.kill_node(2).unwrap();
        c.kill_node(3).unwrap();
        // Three lost partitions, one survivor with capacity for one: the
        // strict policy refuses …
        let err = c.run(&query(6), Strategy::PartialAggPushdown).unwrap_err();
        assert!(matches!(err, ClusterError::NodeDown { .. }), "got {err}");
        // … and the degraded policy answers with partial coverage.
        policy.degraded_ok = true;
        c.set_recovery_policy(policy);
        let run = c.run(&query(6), Strategy::PartialAggPushdown).unwrap();
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
        let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
            let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
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
        let run = c.run_with_faults(&q, Strategy::PartialAggPushdown, &plan).unwrap();
        assert!(run.recovery.integrity_detected >= 1);
        assert_eq!(run.recovery.integrity_repaired, 0, "local repair can never verify");
        assert!(run.recovery.retries >= c.recovery_policy().max_retries);
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
