//! The serving front door (DESIGN.md §15).
//!
//! [`Coordinator`] composes the single-node admission/queue machinery of
//! `engine::service` with the cluster's one recovery machine — the phases
//! behind [`crate::WimpiCluster::run_with`] — into one serving path that
//! admits *concurrent* client traffic. Around that machine it keeps a
//! **deterministic result cache**: a bounded [`ResultCache`] keyed on the
//! plan's rendering, whose entries are governor-reserved through
//! [`MemoryReservation`] and dropped whenever integrity repair or
//! lost-partition regeneration touches a table they read. A cache hit is
//! therefore bit-exact vs recomputation: cached answers are non-degraded,
//! every computed answer is a deterministic function of (plan, sealed table
//! bytes), and any event that rewrote table bytes drops its dependents
//! before the fresh answer is cached.
//!
//! Every miss distributes the plan the client sent with the paper's driver
//! strategy ([`Strategy::PartialAggPushdown`]), and reroutes, straggler
//! copies and degraded answers follow the cluster's one
//! [`RecoveryPolicy`](crate::faults::RecoveryPolicy). No state carries from
//! one query to the next, so a served answer — result, simulated seconds and
//! recovery report — is exactly what [`crate::WimpiCluster::run_with`]
//! computes under the same faults, whatever was served before it and however
//! the service's workers interleave.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::distribute::Strategy;
use crate::faults::{FaultPlan, RecoveryReport};
use crate::recovery::SubRuns;
use crate::{ClusterError, Result, WimpiCluster};
use wimpi_engine::{
    EngineError, MemoryReservation, QueryContext, QuerySpec, Relation, Service, ServiceConfig,
    ServiceError, Ticket,
};
use wimpi_obs::Registry;
use wimpi_queries::{run_phases, QueryPlan};

/// Histogram bounds for end-to-end simulated latency (seconds).
pub const LATENCY_BUCKETS: [f64; 9] = [0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0];

/// Serving-path configuration. By default the result cache holds 64 MiB of
/// governor-reserved answers. Recovery itself is the cluster's
/// [`RecoveryPolicy`](crate::faults::RecoveryPolicy).
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Admission/queue/worker configuration of the embedded service.
    pub service: ServiceConfig,
    /// Result-cache budget in bytes (0 disables result caching).
    pub result_cache_bytes: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self { service: ServiceConfig::default(), result_cache_bytes: 64 << 20 }
    }
}

/// One client request: a named query, the fault schedule its run faces, and
/// an optional admission estimate for the service's grant arbitration.
pub struct QueryRequest {
    /// Label used in errors, metrics, and the service queue.
    pub label: String,
    /// The query to serve.
    pub query: QueryPlan,
    /// Faults injected into this run (none by default).
    pub faults: FaultPlan,
    /// Declared scratch estimate for admission (service default if `None`).
    pub estimate: Option<u64>,
}

impl QueryRequest {
    /// A fault-free request.
    pub fn new(label: impl Into<String>, query: QueryPlan) -> Self {
        Self { label: label.into(), query, faults: FaultPlan::none(), estimate: None }
    }

    /// Attaches a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Declares the admission estimate in bytes.
    pub fn with_estimate(mut self, bytes: u64) -> Self {
        self.estimate = Some(bytes);
        self
    }
}

/// A served answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The merged result (partial when `degraded`).
    pub result: Relation,
    /// True when recovery was exhausted and the answer is partial (the
    /// fraction of lineitem rows it covers is `recovery.coverage`).
    pub degraded: bool,
    /// True when the answer came from the result cache without execution.
    pub from_cache: bool,
    /// End-to-end simulated seconds (0.0 for a cache hit).
    pub sim_seconds: f64,
    /// Fault-recovery bookkeeping for the run: its retries, reroutes and
    /// straggler copies.
    pub recovery: RecoveryReport,
}

/// What [`Coordinator::submit`] returns: either an immediate cache hit or a
/// queued ticket.
pub enum Submitted {
    /// Served from the result cache before admission.
    Cached(Answer),
    /// Admitted to the service; resolve with [`Submitted::wait`].
    Queued(Ticket<Answer>),
}

impl Submitted {
    /// Blocks until the answer is available.
    pub fn wait(self) -> std::result::Result<Answer, ServiceError> {
        match self {
            Submitted::Cached(a) => Ok(a),
            Submitted::Queued(t) => t.wait(),
        }
    }
}

/// One cached answer with its memory cost and the tables it read.
struct CacheEntry {
    rel: Relation,
    bytes: u64,
    /// Invalidating any of these tables drops the entry.
    tables: Vec<String>,
    last_used: u64,
}

struct CacheState {
    entries: HashMap<String, CacheEntry>,
    tick: u64,
}

/// A bounded, governor-reserved, deterministically invalidated result cache.
///
/// Entries reserve their byte cost against an internal [`MemoryReservation`]
/// sized by the configured budget; inserts evict least-recently-used entries
/// until the reservation fits, and oversized answers are simply not cached.
/// Invalidation drops every entry that read a listed table, under the lock
/// every insert takes — the mechanism that keeps hits bit-exact under
/// active corruption repair.
pub struct ResultCache {
    budget: MemoryReservation,
    state: Mutex<CacheState>,
}

impl ResultCache {
    /// A cache with the given byte budget (0 = caching disabled).
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget: MemoryReservation::with_budget(budget_bytes),
            state: Mutex::new(CacheState { entries: HashMap::new(), tick: 0 }),
        }
    }

    /// A lookup. Counts a hit or a miss on `metrics`.
    pub fn get(&self, key: &str, metrics: &Registry) -> Option<Relation> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        let Some(e) = st.entries.get_mut(key) else {
            metrics.inc("coord_result_cache_misses_total", 1);
            return None;
        };
        e.last_used = tick;
        metrics.inc("coord_result_cache_hits_total", 1);
        Some(e.rel.clone())
    }

    /// Inserts (or refreshes) an answer whose correctness depends on
    /// `tables`, evicting LRU entries until the reservation fits. Answers
    /// larger than the whole budget are not cached.
    pub fn insert(&self, key: &str, rel: &Relation, tables: &[String], metrics: &Registry) {
        let bytes = (rel.stream_bytes() as u64).max(1);
        if bytes > self.budget.budget() {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if let Some(old) = st.entries.remove(key) {
            self.budget.release(old.bytes);
        }
        while !self.budget.try_reserve(bytes) {
            let Some(lru) =
                st.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                return;
            };
            let e = st.entries.remove(&lru).expect("lru key exists");
            self.budget.release(e.bytes);
            metrics.inc("coord_result_cache_evictions_total", 1);
        }
        st.tick += 1;
        let entry =
            CacheEntry { rel: rel.clone(), bytes, tables: tables.to_vec(), last_used: st.tick };
        st.entries.insert(key.to_string(), entry);
        metrics.set_gauge("coord_result_cache_bytes", self.budget.used() as f64);
    }

    /// Drops every entry that read a listed table. Call whenever an event
    /// may have rewritten table bytes (integrity repair, lost-partition
    /// regeneration).
    pub fn invalidate_tables(&self, tables: &[String], metrics: &Registry) {
        let mut st = self.state.lock().unwrap();
        st.entries.retain(|_, e| {
            let stale = e.tables.iter().any(|t| tables.contains(t));
            if stale {
                self.budget.release(e.bytes);
                metrics.inc("coord_result_cache_invalidations_total", 1);
            }
            !stale
        });
        metrics.set_gauge("coord_result_cache_bytes", self.budget.used() as f64);
    }

    /// Bytes currently reserved by cached answers.
    pub fn used_bytes(&self) -> u64 {
        self.budget.used()
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// State shared between the coordinator handle and the service workers.
struct Inner {
    cluster: Arc<WimpiCluster>,
    results: ResultCache,
    metrics: Registry,
}

/// The serving front door. See the module docs for the full model.
pub struct Coordinator {
    inner: Arc<Inner>,
    service: Service,
}

/// The result-cache key of a request: the plan's rendering, literals
/// included. Two-phase answers are not result-cached: the outer plan depends
/// on a phase-1 scalar computed from live table bytes, so a key built from
/// the request alone cannot prove a hit bit-exact.
fn cache_key(query: &QueryPlan) -> Option<String> {
    match query {
        QueryPlan::Single(p) => Some(p.explain()),
        QueryPlan::TwoPhase { .. } => None,
    }
}

/// Folds phase-2 recovery into phase 1's for a two-phase answer: counters
/// add, reassignment lists concatenate, coverage takes the minimum, and the
/// degraded flag ORs.
fn merge_recovery(a: RecoveryReport, b: RecoveryReport) -> RecoveryReport {
    let mut reassignments = a.reassignments;
    reassignments.extend(b.reassignments);
    RecoveryReport {
        retries: a.retries + b.retries,
        speculated: a.speculated + b.speculated,
        reassignments,
        recovery_seconds: a.recovery_seconds + b.recovery_seconds,
        cancelled_work_seconds: a.cancelled_work_seconds + b.cancelled_work_seconds,
        budget_degraded: a.budget_degraded + b.budget_degraded,
        coverage: a.coverage.min(b.coverage),
        degraded: a.degraded || b.degraded,
        integrity_detected: a.integrity_detected + b.integrity_detected,
        integrity_repaired: a.integrity_repaired + b.integrity_repaired,
    }
}

/// Maps a cluster failure onto the engine's typed errors so the service's
/// ledger classifies it correctly (OOM → exhausted, the rest → failed). A
/// node OOM is reported against `budget: 0`, not the service's grant, so the
/// service does not replay a query whose recovery the cluster already ran.
fn to_engine(e: ClusterError) -> EngineError {
    match e {
        ClusterError::Engine(e) => e,
        ClusterError::NodeOom { needed, .. } => EngineError::ResourceExhausted {
            requested: needed,
            budget: 0,
            operator: "cluster node".to_string(),
        },
        other => EngineError::Unsupported(other.to_string()),
    }
}

impl Coordinator {
    /// Builds a coordinator over `cluster`, starting `cfg.service.workers`
    /// worker threads.
    pub fn new(cluster: Arc<WimpiCluster>, cfg: CoordinatorConfig) -> Self {
        let inner = Arc::new(Inner {
            cluster,
            results: ResultCache::new(cfg.result_cache_bytes),
            metrics: Registry::new(),
        });
        let service = Service::new(cfg.service);
        Coordinator { inner, service }
    }

    /// Submits a request: a result-cache hit answers immediately (no
    /// admission, no execution); otherwise the request queues through the
    /// service's admission machinery and runs through the cluster's recovery
    /// machine, carrying its cache key to the insert.
    pub fn submit(&self, req: QueryRequest) -> std::result::Result<Submitted, ServiceError> {
        self.inner.metrics.inc("coord_requests_total", 1);
        let key = cache_key(&req.query);
        if let Some(key) = &key {
            if let Some(rel) = self.inner.results.get(key, &self.inner.metrics) {
                return Ok(Submitted::Cached(Answer {
                    result: rel,
                    degraded: false,
                    from_cache: true,
                    sim_seconds: 0.0,
                    recovery: RecoveryReport::default(),
                }));
            }
        }
        let mut spec = QuerySpec::new(req.label.clone());
        if let Some(bytes) = req.estimate {
            spec = spec.with_estimate(bytes);
        }
        let inner = Arc::clone(&self.inner);
        let ticket = self
            .service
            .submit(spec, move |ctx| inner.execute(&req, key.as_deref(), ctx).map_err(to_engine))?;
        Ok(Submitted::Queued(ticket))
    }

    /// [`Coordinator::submit`] + [`Submitted::wait`].
    pub fn run_blocking(&self, req: QueryRequest) -> std::result::Result<Answer, ServiceError> {
        self.submit(req)?.wait()
    }

    /// Coordinator counters: request and result-cache totals, the sub-run
    /// ledger, degraded answers and the latency histogram. Completed
    /// queries are counted by the embedded service
    /// ([`Self::service_metrics`]); retries, reroutes and straggler copies
    /// in the cluster's [`WimpiCluster::metrics`].
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// The embedded service's registry (admission ledger, queue gauges).
    pub fn service_metrics(&self) -> &Registry {
        self.service.metrics()
    }

    /// The result cache (tests and the shell peek at occupancy).
    pub fn result_cache(&self) -> &ResultCache {
        &self.inner.results
    }

    /// Drains the queue (every waiting ticket resolves `Cancelled`), joins
    /// the workers, and leaves the ledger balanced. Idempotent and safe to
    /// race with concurrent [`Coordinator::submit`].
    pub fn shutdown(&self) {
        self.service.shutdown();
    }
}

impl Inner {
    /// Executes one admitted request end to end (runs on a service worker).
    ///
    /// Two-phase scalar queries (Q15-style) go through the queries layer's
    /// [`run_phases`] with "run one plan" meaning [`Self::execute_plan`]: the
    /// scalar-producing inner plan runs across the cluster when it touches
    /// lineitem, so node loss during the pre-pass is recovered like any
    /// other run, and the outer plan is served the same way. The phases
    /// share the admission context; only the merge of their two answers
    /// (costs and recovery reports add) lives here. A non-degraded answer
    /// is cached under `key`, the request's [`cache_key`].
    fn execute(&self, req: &QueryRequest, key: Option<&str>, ctx: &QueryContext) -> Result<Answer> {
        let answer = run_phases(
            &req.query,
            |plan, scalar_pass| {
                let mut label = req.label.clone();
                if scalar_pass {
                    self.metrics.inc("coord_two_phase_total", 1);
                    label.push_str(" (scalar)");
                }
                self.execute_plan(&label, plan, &req.faults, ctx)
            },
            |a| &a.result,
            |a1, a2| Answer {
                result: a2.result,
                degraded: a1.degraded || a2.degraded,
                from_cache: false,
                sim_seconds: a1.sim_seconds + a2.sim_seconds,
                recovery: merge_recovery(a1.recovery, a2.recovery),
            },
        )?;
        // Deterministic invalidation: any event that may have rewritten
        // table bytes (integrity repair, partition regeneration on a
        // survivor) voids every cached answer depending on those tables
        // *before* the fresh answer is cached.
        let tables = req.query.tables();
        if answer.recovery.integrity_repaired > 0 || !answer.recovery.reassignments.is_empty() {
            self.metrics.inc("coord_invalidation_events_total", 1);
            self.results.invalidate_tables(&tables, &self.metrics);
        }
        if answer.degraded {
            self.metrics.inc("coord_degraded_answers_total", 1);
        } else if let Some(key) = key {
            self.results.insert(key, &answer.result, &tables, &self.metrics);
        }
        self.metrics.observe("coord_latency_seconds", &LATENCY_BUCKETS, answer.sim_seconds);
        Ok(answer)
    }

    /// Serves one logical plan through the cluster's recovery machine under
    /// the paper's driver strategy, exactly as [`WimpiCluster::run_with`]
    /// does, and adds its sub-run terminals to the ledger:
    /// `coord_subruns_total = ok + failed + cancelled`, also when the run
    /// fails.
    fn execute_plan(
        &self,
        label: &str,
        plan: &wimpi_engine::LogicalPlan,
        faults: &FaultPlan,
        ctx: &QueryContext,
    ) -> Result<Answer> {
        let mut subruns = SubRuns::default();
        let strategy = Strategy::PartialAggPushdown;
        let run = self.cluster.recover(label, plan, strategy, faults, ctx, &mut subruns);
        let SubRuns { ok, failed, cancelled } = subruns;
        self.metrics.inc("coord_subruns_total", ok + failed + cancelled);
        self.metrics.inc("coord_subruns_ok_total", ok);
        self.metrics.inc("coord_subruns_failed_total", failed);
        self.metrics.inc("coord_subruns_cancelled_total", cancelled);
        let run = run?;
        let sim_seconds = run.total_seconds();
        Ok(Answer {
            result: run.result,
            degraded: run.recovery.degraded,
            from_cache: false,
            sim_seconds,
            recovery: run.recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, RecoveryPolicy};
    use crate::ClusterConfig;
    use wimpi_queries::query;

    const SF: f64 = 0.01;

    fn cluster(nodes: u32) -> Arc<WimpiCluster> {
        Arc::new(WimpiCluster::build(ClusterConfig::new(nodes, SF)).expect("cluster builds"))
    }

    fn coordinator(cl: &Arc<WimpiCluster>, cfg: CoordinatorConfig) -> Coordinator {
        Coordinator::new(Arc::clone(cl), cfg)
    }

    #[test]
    fn routed_answers_match_the_cluster_driver_bit_exactly() {
        // The coordinator is the cluster driver: the same answer, the same simulated seconds to the bit and the
        // same recovery report, under every kind of fault.
        let cl = cluster(3);
        let cases = [
            ("no fault", FaultPlan::none()),
            ("crash", FaultPlan::crash(1)),
            ("transient oom", FaultPlan::none().with(1, FaultKind::TransientOom { failures: 2 })),
            ("slow node", FaultPlan::none().with(2, FaultKind::SlowNode { multiplier: 50.0 })),
            (
                "bit flip",
                FaultPlan::none().with(1, FaultKind::BitFlip { chunks: 2, bits_per_chunk: 3 }),
            ),
            ("degraded nic", FaultPlan::none().with(0, FaultKind::DegradedNic { multiplier: 8.0 })),
        ];
        for (case, faults) in cases {
            let reference =
                cl.run_with("q6", &query(6), Strategy::PartialAggPushdown, &faults).expect("runs");
            let coord = coordinator(&cl, CoordinatorConfig::default());
            let a = coord
                .run_blocking(QueryRequest::new("q6", query(6)).with_faults(faults))
                .expect("serves");
            assert_eq!(a.result, reference.result, "{case}: the driver's merge");
            assert_eq!(
                a.sim_seconds.to_bits(),
                reference.total_seconds().to_bits(),
                "{case}: {} vs {}",
                a.sim_seconds,
                reference.total_seconds()
            );
            assert_eq!(a.recovery, reference.recovery, "{case}");
            assert!(!a.from_cache && !a.degraded);
            // Every partition ends in exactly one successful sub-run.
            assert_eq!(coord.metrics().counter("coord_subruns_ok_total"), 3, "{case}");
            coord.shutdown();
            let s = coord.service_metrics();
            assert_eq!(s.counter("service_submitted_total"), 1);
            assert_eq!(s.counter("service_completed_total"), 1);
        }
    }

    #[test]
    fn a_faulted_answer_does_not_depend_on_history() {
        let cl = cluster(4);
        let cfg = CoordinatorConfig { result_cache_bytes: 0, ..CoordinatorConfig::default() };
        let slow = || {
            QueryRequest::new("q1-slow", query(1))
                .with_faults(FaultPlan::none().with(2, FaultKind::SlowNode { multiplier: 50.0 }))
        };
        let fresh = coordinator(&cl, cfg.clone());
        let first = fresh.run_blocking(slow()).expect("serves");
        fresh.shutdown();
        let warm = coordinator(&cl, cfg);
        for i in 0..5 {
            warm.run_blocking(QueryRequest::new(format!("q6-{i}"), query(6))).expect("serves");
        }
        let later = warm.run_blocking(slow()).expect("serves");
        warm.shutdown();
        assert_eq!(later.sim_seconds.to_bits(), first.sim_seconds.to_bits());
        assert_eq!(later.recovery, first.recovery);
        assert_eq!(later.result, first.result);
    }

    #[test]
    fn hot_queries_hit_the_result_cache_bit_exactly() {
        let cl = cluster(3);
        let coord = coordinator(&cl, CoordinatorConfig::default());
        let first = coord.run_blocking(QueryRequest::new("q6", query(6))).expect("serves");
        let second = coord.run_blocking(QueryRequest::new("q6-again", query(6))).expect("serves");
        assert!(!first.from_cache);
        assert!(second.from_cache, "repeated plan must hit the result cache");
        assert_eq!(second.result, first.result, "cache hit must be bit-exact");
        assert_eq!(second.sim_seconds, 0.0);
        let m = coord.metrics();
        assert_eq!(m.counter("coord_result_cache_hits_total"), 1);
        assert!(coord.result_cache().used_bytes() > 0, "entries are governor-reserved");
        coord.shutdown();
    }

    #[test]
    fn repair_events_invalidate_dependent_cache_entries() {
        let cl = cluster(3);
        let coord = coordinator(&cl, CoordinatorConfig::default());
        let clean = coord.run_blocking(QueryRequest::new("q6", query(6))).expect("serves");
        // A crash on node 1 regenerates its lineitem partition on a
        // survivor — an event that must void every answer depending on
        // lineitem before anything else is served from cache.
        let crashed = coord
            .run_blocking(QueryRequest::new("q1-crash", query(1)).with_faults(FaultPlan::crash(1)))
            .expect("recovers");
        assert!(!crashed.recovery.reassignments.is_empty());
        let m = coord.metrics();
        assert!(m.counter("coord_result_cache_invalidations_total") >= 1);
        // The re-served hot query recomputes and still matches bit-exactly.
        let reread = coord.run_blocking(QueryRequest::new("q6-reread", query(6))).expect("serves");
        assert!(!reread.from_cache, "invalidation must force recomputation");
        assert_eq!(reread.result, clean.result);
        coord.shutdown();
    }

    #[test]
    fn a_node_that_fails_every_request_is_recovered_afresh_every_time() {
        // One coordinator serves a mix at 1 and then 2 concurrent clients
        // while node 1 fails on every request: each answer is the cluster
        // driver's under the same faults, whatever was served before it and
        // however the two workers interleave.
        let cl = cluster(4);
        let cfg = CoordinatorConfig {
            service: ServiceConfig { workers: 2, ..ServiceConfig::default() },
            result_cache_bytes: 0,
        };
        let coord = coordinator(&cl, cfg);
        let mix = [1, 6, 3, 14, 5];
        let faults = FaultPlan::crash(1);
        let reference: Vec<_> = mix
            .iter()
            .map(|&q| {
                let label = format!("q{q}");
                cl.run_with(&label, &query(q), Strategy::PartialAggPushdown, &faults)
                    .expect("recovers")
            })
            .collect();
        let mut requests = 0;
        for clients in [1, 2] {
            std::thread::scope(|s| {
                for c in 0..clients {
                    let (coord, faults, reference) = (&coord, &faults, &reference);
                    s.spawn(move || {
                        for i in 0..mix.len() {
                            // Each client starts at its own place in the mix.
                            let at = (i + c) % mix.len();
                            let (q, r) = (mix[at], &reference[at]);
                            let req = QueryRequest::new(format!("c{c}q{q}"), query(q))
                                .with_faults(faults.clone());
                            let a = coord.run_blocking(req).expect("serves");
                            let case =
                                format!("{clients} client(s), client {c}, request {i}: Q{q}");
                            assert_eq!(a.result, r.result, "{case}");
                            assert_eq!(
                                a.sim_seconds.to_bits(),
                                r.total_seconds().to_bits(),
                                "{case}: {} vs {}",
                                a.sim_seconds,
                                r.total_seconds()
                            );
                            assert_eq!(a.recovery, r.recovery, "{case}");
                        }
                    });
                }
            });
            requests += clients * mix.len();
        }
        coord.shutdown();
        // Every request attempted node 1 and lost it, and every partition
        // ended in one successful sub-run.
        let m = coord.metrics();
        assert_eq!(m.counter("coord_subruns_failed_total"), requests as u64);
        assert_eq!(m.counter("coord_subruns_ok_total"), 4 * requests as u64);
    }

    #[test]
    fn exhausted_reroutes_degrade_with_partial_coverage() {
        // Degrading is the cluster's policy: no node may take over a lost
        // partition, and partial answers are allowed.
        let mut cl = WimpiCluster::build(ClusterConfig::new(3, SF)).expect("cluster builds");
        cl.set_recovery_policy(RecoveryPolicy { reassign_cap: 0, ..RecoveryPolicy::degraded() });
        let cl = Arc::new(cl);
        let coord = coordinator(&cl, CoordinatorConfig::default());
        let a = coord
            .run_blocking(QueryRequest::new("q6-crash", query(6)).with_faults(FaultPlan::crash(0)))
            .expect("degrades instead of failing");
        assert!(a.degraded);
        let coverage = a.recovery.coverage;
        assert!(coverage < 1.0 && coverage > 0.0, "coverage {coverage}");
        assert_eq!(coord.metrics().counter("coord_degraded_answers_total"), 1);
        // Degraded answers must never be cached.
        let b = coord.run_blocking(QueryRequest::new("q6-clean", query(6))).expect("serves");
        assert!(!b.from_cache, "a degraded answer must not satisfy later requests");
        assert!(!b.degraded);
        coord.shutdown();
    }

    #[test]
    fn a_cluster_oom_is_served_once() {
        // 256-byte nodes: the cluster's own governed retry cannot fit Q3
        // either, so the run ends in `NodeOom` — a terminal the service
        // must not replay at its full node budget.
        let mut config = ClusterConfig::new(2, 0.01);
        config.memory.mem_bytes = 256;
        config.memory.os_reserve_bytes = 0;
        let cl = Arc::new(WimpiCluster::build(config).expect("cluster builds"));
        let coord = coordinator(&cl, CoordinatorConfig::default());
        let err = coord.run_blocking(QueryRequest::new("q3", query(3))).unwrap_err();
        assert!(
            matches!(err, ServiceError::Engine(EngineError::ResourceExhausted { .. })),
            "{err}"
        );
        coord.shutdown();
        assert_eq!(coord.metrics().counter("coord_subruns_total"), 2, "one run, two nodes");
        let s = coord.service_metrics();
        assert_eq!(s.counter("service_retries_total"), 0);
        assert_eq!(s.counter("service_exhausted_total"), 1);
    }

    #[test]
    fn stragglers_get_copies_and_answers_stay_exact() {
        let cl = cluster(3);
        let cfg = CoordinatorConfig { result_cache_bytes: 0, ..CoordinatorConfig::default() };
        let coord = coordinator(&cl, cfg);
        let reference = cl.run(&query(1), Strategy::PartialAggPushdown).expect("runs");
        let a =
            coord
                .run_blocking(QueryRequest::new("q1-slow", query(1)).with_faults(
                    FaultPlan::none().with(1, FaultKind::SlowNode { multiplier: 50.0 }),
                ))
                .expect("serves");
        assert_eq!(a.result, reference.result, "a copy must not change the answer");
        let speculated = a.recovery.speculated as u64;
        assert!(speculated >= 1, "a 50× straggler must get a copy");
        // Exact ledger: nothing failed, so every partition ends in one Ok
        // sub-run (the home's, or the copy's when it won) and every winning
        // copy turns its straggler's Ok into Cancelled.
        let m = coord.metrics();
        assert_eq!(m.counter("coord_subruns_failed_total"), 0);
        assert_eq!(m.counter("coord_subruns_ok_total"), 3);
        assert_eq!(m.counter("coord_subruns_cancelled_total"), speculated);
        assert_eq!(m.counter("coord_subruns_total"), 3 + speculated);
        coord.shutdown();
    }

    #[test]
    fn non_lineitem_queries_route_single_node_and_cache() {
        let cl = cluster(3);
        let coord = coordinator(&cl, CoordinatorConfig::default());
        let reference = cl.run(&query(13), Strategy::PartialAggPushdown).expect("runs");
        let a = coord.run_blocking(QueryRequest::new("q13", query(13))).expect("serves");
        assert_eq!(a.result, reference.result);
        let b = coord.run_blocking(QueryRequest::new("q13-hot", query(13))).expect("serves");
        assert!(b.from_cache);
        assert_eq!(b.result, reference.result);
        coord.shutdown();
    }

    #[test]
    fn two_phase_queries_route_and_match_the_single_node_reference() {
        let cl = cluster(3);
        let full = wimpi_tpch::Generator::new(SF).generate_catalog().expect("catalog");
        let (reference, _) = wimpi_queries::run(&query(15), &full).expect("reference");
        let coord = coordinator(&cl, CoordinatorConfig::default());
        // Q15 is two-phase in this repo's query set: both phases touch
        // lineitem, so both route across the cluster.
        let a = coord.run_blocking(QueryRequest::new("q15", query(15))).expect("routes");
        assert_eq!(a.result, reference, "routed two-phase must be bit-exact");
        assert!(!a.degraded && !a.from_cache);
        let m = coord.metrics();
        assert_eq!(m.counter("coord_two_phase_total"), 1);
        // One sub-run fan-out per phase.
        assert_eq!(m.counter("coord_subruns_total"), 6);
        // Two-phase answers are never result-cached (the outer plan depends
        // on a live scalar), so a resubmission recomputes — bit-exactly.
        let b = coord.run_blocking(QueryRequest::new("q15-again", query(15))).expect("routes");
        assert!(!b.from_cache);
        assert_eq!(b.result, reference);
        coord.shutdown();
    }

    #[test]
    fn two_phase_queries_survive_node_loss_bit_exactly() {
        let cl = cluster(3);
        let full = wimpi_tpch::Generator::new(SF).generate_catalog().expect("catalog");
        let (reference, _) = wimpi_queries::run(&query(15), &full).expect("reference");
        // One coordinator for every trial: the same crash hits both phases,
        // and nothing of it may carry into the next trial.
        let coord = coordinator(&cl, CoordinatorConfig::default());
        for node in 0..3 {
            let a = coord
                .run_blocking(
                    QueryRequest::new("q15-crash", query(15)).with_faults(FaultPlan::crash(node)),
                )
                .unwrap_or_else(|e| panic!("Q15 must survive losing node {node}: {e}"));
            assert_eq!(a.result, reference, "losing node {node} must not change the answer");
            assert!(!a.degraded);
            assert!(
                !a.recovery.reassignments.is_empty(),
                "node {node}'s partition must have been regenerated on a survivor"
            );
        }
        coord.shutdown();
    }

    #[test]
    fn literal_variants_are_separate_answers() {
        use wimpi_engine::expr::{col, date, dec2};
        use wimpi_engine::plan::{AggExpr, PlanBuilder};
        // Two Q6-shaped plans differing only in literal parameters.
        let q6_variant = |from: &str, to: &str| {
            QueryPlan::Single(
                PlanBuilder::scan("lineitem")
                    .filter(
                        col("l_shipdate")
                            .gte(date(from))
                            .and(col("l_shipdate").lt(date(to)))
                            .and(col("l_quantity").lt(dec2("24"))),
                    )
                    .aggregate(
                        vec![],
                        vec![AggExpr::sum(col("l_extendedprice").mul(col("l_discount")), "rev")],
                    )
                    .build(),
            )
        };
        let cl = cluster(3);
        let coord = coordinator(&cl, CoordinatorConfig::default());
        let a = coord
            .run_blocking(QueryRequest::new("v94", q6_variant("1994-01-01", "1995-01-01")))
            .expect("serves");
        let b = coord
            .run_blocking(QueryRequest::new("v95", q6_variant("1995-01-01", "1996-01-01")))
            .expect("serves");
        // The result cache keys on the literals: a variant is a miss.
        assert!(!b.from_cache);
        assert_ne!(a.result, b.result, "different parameters, different answers");
        // Each variant is the cluster driver's answer.
        let r94 = cl
            .run(&q6_variant("1994-01-01", "1995-01-01"), Strategy::PartialAggPushdown)
            .expect("runs");
        let r95 = cl
            .run(&q6_variant("1995-01-01", "1996-01-01"), Strategy::PartialAggPushdown)
            .expect("runs");
        assert_eq!(a.result, r94.result);
        assert_eq!(b.result, r95.result);
        coord.shutdown();
    }

    #[test]
    fn result_cache_evicts_lru_within_its_reservation() {
        let metrics = Registry::new();
        let rel = Relation::new(vec![(
            "x".to_string(),
            Arc::new(wimpi_storage::Column::Int64(vec![1, 2, 3])),
        )])
        .expect("relation");
        // Budget sized to hold exactly one copy of `rel`, not two.
        let one = (rel.stream_bytes() as u64).max(1);
        let cache = ResultCache::new(one + one / 2);
        let deps = vec!["t".to_string()];
        cache.insert("a", &rel, &deps, &metrics);
        assert_eq!(cache.len(), 1);
        cache.insert("b", &rel, &deps, &metrics);
        assert_eq!(cache.len(), 1, "budget admits one entry; LRU must evict");
        assert!(metrics.counter("coord_result_cache_evictions_total") >= 1);
        assert!(cache.get("b", &metrics).is_some());
        assert!(cache.get("a", &metrics).is_none());
        cache.invalidate_tables(&deps, &metrics);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.used_bytes(), 0, "invalidation must release the reservation");
    }
}
