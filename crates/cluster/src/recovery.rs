//! The one recovery machine every cluster run goes through, whoever drives
//! it — [`WimpiCluster::run_with`] directly, or the serving
//! [`crate::coordinator::Coordinator`] with its breakers.
//!
//! A run is a set of partitions, each homed at one node: one per node for a
//! query over the partitioned `lineitem`, a single one homed at node 0 for a
//! query over replicated tables only. The phases are:
//!
//! 1. **Home attempts.** Every node not ruled out by the caller runs its home
//!    partition. Transient OOMs retry in place under capped backoff; a
//!    silently corrupted partition is detected, repaired and re-verified; a
//!    crash, or a node out of retries, loses its partition.
//! 2. **Reroutes.** Each lost partition moves to the least-busy *taker* —
//!    a node whose home attempt completed, or for a replicated query any
//!    live replica — at most [`RecoveryPolicy::reassign_cap`] per taker and
//!    with no backoff. A `lineitem` partition is regenerated there first; a
//!    replicated query simply runs on the replica. A reroute that runs out
//!    of memory is fatal: every node is identical.
//! 3. **Straggler copies.** A slow node past [`STRAGGLER_THRESHOLD`] × the
//!    median time of this run's non-slow survivors (for a replicated query,
//!    × its own healthy time; a partitioned run with no non-slow survivor
//!    makes no copy) gets a copy on the least-busy other taker when the copy
//!    would finish first; the straggler is cancelled cooperatively.
//! 4. **Ship and merge** the partials at the driver (partitioned runs only).
//!
//! When recovery is exhausted the run fails, or — under
//! [`RecoveryPolicy::degraded_ok`], for a partitioned run — answers from the
//! partitions it has, with their coverage. Every decision depends on this
//! run alone, so a faulted answer's simulated time never depends on history.
//!
//! [`RecoveryPolicy::reassign_cap`]: crate::faults::RecoveryPolicy::reassign_cap
//! [`RecoveryPolicy::degraded_ok`]: crate::faults::RecoveryPolicy::degraded_ok

use std::borrow::Cow;
use std::sync::Arc;

use wimpi_engine::{
    optimizer, CancelToken, EngineConfig, EngineError, LogicalPlan, QueryContext, Relation,
    WorkProfile,
};
use wimpi_storage::{Catalog, Column, Field, Schema, SplitMix64, Table};

use crate::distribute::{Distributed, Strategy, PARTIALS_TABLE};
use crate::faults::{
    FaultKind, FaultPlan, Reassignment, RecoveryReport, DETECT_S, MAX_RETRIES, STRAGGLER_THRESHOLD,
};
use crate::pricing::{scan_bytes, Priced};
use crate::{ClusterError, DistRun, Result, WimpiCluster};

/// Histogram bounds for simulated backoff delays
/// ([`wimpi_engine::backoff_s`]: 0.05 s doubling to a 1 s cap).
const BACKOFF_BUCKETS: [f64; 5] = [0.05, 0.1, 0.25, 0.5, 1.0];

/// Histogram bounds for per-run recovery seconds.
const RECOVERY_BUCKETS: [f64; 5] = [0.1, 0.5, 1.0, 5.0, 30.0];

/// Domain-separation salt for BitFlip corruption-target draws (which
/// column/chunk/dictionary a flip lands on), independent of the fault-plan
/// stream in [`crate::faults`].
const CORRUPTION_SALT: u64 = 0x5bd1_e995_7b7d_159f;

/// What one run executes.
#[derive(Clone, Copy)]
pub(crate) enum Layout<'a> {
    /// A `lineitem` query: one partition per node, partials shipped to the
    /// driver and merged there under the strategy.
    Partitioned(&'a Distributed, Strategy),
    /// A query over replicated tables only: one partition homed at node 0,
    /// answered where it runs (the paper's Q13, §II-D2).
    Replicated(&'a LogicalPlan),
}

impl Layout<'_> {
    /// Partitions in a run on `nodes` nodes; partition `p` is homed at node
    /// `p`.
    pub(crate) fn partitions(&self, nodes: usize) -> usize {
        match self {
            Layout::Partitioned(..) => nodes,
            Layout::Replicated(_) => 1,
        }
    }

    fn node_plan(&self) -> &LogicalPlan {
        match self {
            Layout::Partitioned(d, _) => &d.node_plan,
            Layout::Replicated(plan) => plan,
        }
    }
}

/// How one sub-run — one partition's execution on one node — ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// It produced the partition's answer.
    Ok,
    /// It failed: a crash, exhausted retries or repairs, or an OOM.
    Failed,
    /// A straggler whose copy finished first; stopped through its token.
    Cancelled,
}

/// The terminal of one sub-run and the node it ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubRun {
    pub(crate) node: usize,
    pub(crate) outcome: Outcome,
}

/// Outcome of one node's attempt at its home partition.
enum NodeOutcome {
    /// Executed: partial result, scaled profile, seconds, and the governed
    /// run's cancellation token (so a later straggler copy can stop it
    /// cooperatively).
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

impl WimpiCluster {
    /// Runs `layout` through the recovery phases (module docs) under
    /// `faults`. The home attempts of the nodes in `skip` are not made, and
    /// those nodes take over no work. `ctx` is checked for cancellation
    /// before every sub-run. Each sub-run's terminal is appended to
    /// `subruns`, also when the run fails.
    pub(crate) fn recover(
        &self,
        query: &str,
        layout: Layout<'_>,
        faults: &FaultPlan,
        ctx: &QueryContext,
        skip: &[usize],
        subruns: &mut Vec<SubRun>,
    ) -> Result<DistRun> {
        let n = self.node_catalogs.len();
        let parts = layout.partitions(n);
        let node_plan = layout.node_plan();
        // A replicated query's one partition is its whole answer.
        let may_degrade = self.policy.degraded_ok && matches!(layout, Layout::Partitioned(..));
        let first_subrun = subruns.len();
        let mut report = RecoveryReport::default();

        // Phase 1 — every home attempt, collecting *all* outcomes instead of
        // aborting on the first unhealthy node, so multi-fault schedules see
        // the full picture.
        let mut busy = vec![0.0f64; n];
        let mut partials: Vec<Option<Relation>> = (0..parts).map(|_| None).collect();
        let mut profiles = vec![WorkProfile::default(); parts];
        let mut exec_cost = vec![f64::NAN; parts];
        let mut executor: Vec<usize> = (0..parts).collect();
        let mut cancels: Vec<Option<CancelToken>> = (0..parts).map(|_| None).collect();
        let mut survivors: Vec<usize> = Vec::new();
        let mut lost: Vec<(usize, f64)> = Vec::new();
        let mut oom: Option<(usize, u64)> = None;
        for p in 0..parts {
            ctx.checkpoint()?;
            if skip.contains(&p) {
                lost.push((p, 0.0));
                continue;
            }
            let outcome = self.attempt_home_partition(node_plan, p, faults, &mut report)?;
            let terminal = if matches!(outcome, NodeOutcome::Done(..)) {
                Outcome::Ok
            } else {
                Outcome::Failed
            };
            subruns.push(SubRun { node: p, outcome: terminal });
            match outcome {
                NodeOutcome::Done(rel, prof, secs, cancel) => {
                    busy[p] = secs;
                    exec_cost[p] = secs;
                    partials[p] = Some(rel);
                    profiles[p] = prof;
                    cancels[p] = Some(cancel);
                    survivors.push(p);
                }
                NodeOutcome::Lost { available_at } => lost.push((p, available_at)),
                NodeOutcome::Oom { needed } => {
                    oom.get_or_insert((p, needed));
                }
            }
        }
        if let Some((node, needed)) = oom {
            // Deterministic capacity overflow: identical nodes mean the
            // rerouted execution would OOM too. Degrade or fail.
            if !may_degrade {
                return Err(ClusterError::NodeOom { query: query.into(), node, needed });
            }
        }
        // Who may take over work: a node whose home attempt completed, and
        // for a replicated query any other live replica.
        let takers: Vec<usize> = (0..n)
            .filter(|&j| {
                if j < parts {
                    partials[j].is_some()
                } else {
                    faults.fault(j) != Some(FaultKind::Crash) && !skip.contains(&j)
                }
            })
            .collect();
        if takers.is_empty() {
            return Err(ClusterError::AllNodesFailed { query: query.into(), failed: n });
        }

        // Phase 2 — reroute lost partitions to the least-loaded takers.
        let mut absorbed = vec![0usize; n];
        for &(p, available_at) in &lost {
            ctx.checkpoint()?;
            let candidates: Vec<usize> = takers
                .iter()
                .copied()
                .filter(|&j| absorbed[j] < self.policy.reassign_cap)
                .collect();
            if candidates.is_empty() {
                // Every taker is at its reassignment cap: recovery is
                // exhausted for this partition. Degrade or fail.
                if may_degrade {
                    continue;
                }
                return Err(ClusterError::NodeDown { query: query.into(), node: p });
            }
            let j = least_busy(&candidates, &busy);
            absorbed[j] += 1;
            let (priced, regen_s) = self.reroute(layout, p, j, &mut report)?;
            let (rel, prof, exec_s) = match priced {
                Priced::Fit { rel, prof, exec_s, .. } => (rel, prof, exec_s),
                Priced::Oom { needed } => {
                    subruns.push(SubRun { node: j, outcome: Outcome::Failed });
                    return Err(ClusterError::NodeOom { query: query.into(), node: j, needed });
                }
            };
            subruns.push(SubRun { node: j, outcome: Outcome::Ok });
            let start = busy[j].max(available_at);
            busy[j] = start + regen_s + exec_s;
            report.recovery_seconds += regen_s + exec_s;
            report.reassignments.push(Reassignment { partition: p, to: j });
            partials[p] = Some(rel);
            profiles[p] = prof;
            executor[p] = j;
        }

        // Phase 3 — straggler copies: when a slow node runs past the
        // threshold, launch a copy on the least-loaded other taker and take
        // whichever finishes first. The result is identical either way
        // (deterministic partitions), so only the clock and the accounting
        // move.
        if self.policy.speculation {
            let median_s = median_of(
                survivors
                    .iter()
                    .filter(|&&i| !is_slow(faults.fault(i)))
                    .map(|&i| busy[i])
                    .collect(),
            );
            for &i in &survivors {
                let Some(FaultKind::SlowNode { multiplier }) = faults.fault(i) else { continue };
                // The copy runs on a *healthy* node: strip the straggler's
                // slowdown from its recorded cost.
                let healthy_s = exec_cost[i] / multiplier.max(1.0);
                // A partitioned run with no non-slow survivor has nothing
                // to compare against; a replicated query's one partition is
                // compared against its own healthy time.
                let baseline = match layout {
                    Layout::Partitioned(..) => median_s,
                    Layout::Replicated(_) => Some(healthy_s),
                };
                let Some(baseline) = baseline else { continue };
                let threshold = STRAGGLER_THRESHOLD * baseline;
                if busy[i] <= threshold {
                    continue;
                }
                let others: Vec<usize> = takers.iter().copied().filter(|&j| j != i).collect();
                if others.is_empty() {
                    continue;
                }
                let j = least_busy(&others, &busy);
                let regen_s = match layout {
                    Layout::Partitioned(..) => {
                        let (rows, heap) = self.partition_size(i);
                        self.regeneration_seconds(rows, heap)
                    }
                    Layout::Replicated(_) => 0.0,
                };
                let done = busy[j].max(threshold) + regen_s + healthy_s;
                if done < busy[i] {
                    report.speculated += 1;
                    report.recovery_seconds += regen_s + healthy_s;
                    report.reassignments.push(Reassignment { partition: i, to: j });
                    busy[j] = done;
                    // The copy won: the straggler's original run is stopped
                    // through the engine's cooperative token at `done`, so
                    // it is charged only the work it did up to the
                    // cancellation point — all of it wasted.
                    busy[i] = done;
                    report.cancelled_work_seconds += done;
                    if let Some(tok) = &cancels[i] {
                        tok.cancel();
                    }
                    executor[i] = j;
                    if let Some(home) = subruns[first_subrun..].iter_mut().find(|s| s.node == i) {
                        home.outcome = Outcome::Cancelled;
                    }
                    subruns.push(SubRun { node: j, outcome: Outcome::Ok });
                }
            }
        }

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
        // Phase 4 — ship partials to the driver and merge there.
        let (result, network_seconds, merge_seconds, bytes_shipped) = match layout {
            Layout::Partitioned(dist, strategy) => self.ship_and_merge(
                query,
                strategy,
                &dist.merge_plan,
                &partials,
                &executor,
                faults,
                &mut report,
            )?,
            Layout::Replicated(_) => {
                (partials.pop().flatten().expect("the one partition ran"), 0.0, 0.0, 0)
            }
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

    /// Runs partition `p` on taker `j`: a `lineitem` partition is first
    /// regenerated there with the chunk-deterministic generator; a
    /// replicated query runs on `j`'s replica as it is. Returns the priced
    /// run and the regeneration seconds.
    fn reroute(
        &self,
        layout: Layout<'_>,
        p: usize,
        j: usize,
        report: &mut RecoveryReport,
    ) -> Result<(Priced, f64)> {
        let (cat, regen_s) = match layout {
            Layout::Replicated(_) => (Cow::Borrowed(&self.node_catalogs[j]), 0.0),
            Layout::Partitioned(..) => {
                let (_, lineitem) =
                    self.gen.orders_lineitem_chunk(p as u64, self.config.nodes as u64)?;
                let regen_s = self
                    .regeneration_seconds(lineitem.num_rows() as u64, lineitem.heap_bytes() as u64);
                let mut rcat = Catalog::new();
                for (name, t) in &self.replicated {
                    rcat.register_shared(name.clone(), Arc::clone(t));
                }
                rcat.register("lineitem", lineitem);
                (Cow::Owned(rcat), regen_s)
            }
        };
        let priced = self.priced_node_run(layout.node_plan(), &cat, report)?;
        Ok((priced, regen_s))
    }

    /// The last phase of a partitioned run: ship each covered partial from
    /// its `executor` to the driver (whose NIC is the bottleneck), then merge
    /// there. Partial *aggregates* have SF-independent size; shipped *rows*
    /// scale with the modelled SF. A degraded executor NIC multiplies that
    /// partition's transfer time. Fills `report`'s coverage; returns
    /// `(result, network seconds, merge seconds, bytes shipped)`.
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

    /// Node `node`'s attempt at its home partition, with transient faults
    /// retried under the policy's capped exponential backoff (in simulated
    /// seconds — no wall clock anywhere).
    fn attempt_home_partition(
        &self,
        node_plan: &LogicalPlan,
        node: usize,
        faults: &FaultPlan,
        report: &mut RecoveryReport,
    ) -> Result<NodeOutcome> {
        let cat = &self.node_catalogs[node];
        let fault = faults.fault(node);
        if fault == Some(FaultKind::Crash) {
            report.recovery_seconds += DETECT_S;
            return Ok(NodeOutcome::Lost { available_at: DETECT_S });
        }
        if let Some(FaultKind::BitFlip { chunks, bits_per_chunk }) = fault {
            return self.attempt_bit_flipped(node_plan, cat, node, chunks, bits_per_chunk, report);
        }
        let (rel, prof, exec_s, cancel) = match self.priced_node_run(node_plan, cat, report)? {
            Priced::Fit { rel, prof, exec_s, cancel } => (rel, prof, exec_s, cancel),
            Priced::Oom { needed } => return Ok(NodeOutcome::Oom { needed }),
        };
        match fault {
            Some(FaultKind::TransientOom { failures }) => {
                if failures <= MAX_RETRIES {
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
                    for a in 0..=MAX_RETRIES {
                        waste += exec_s + self.observed_backoff_s(a);
                    }
                    report.retries += MAX_RETRIES;
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
    /// retry budget with backoff, then give the partition up to the
    /// reroute phase.
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
        for attempt in 0..=MAX_RETRIES {
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
        // Capped attempts: give the partition up — a taker reruns it from
        // scratch (phase 2), or ultimately the degraded path.
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
