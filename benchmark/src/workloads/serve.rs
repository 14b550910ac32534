//! `wimpi24_serve`: a closed loop of two clients through
//! `Coordinator::run_blocking` on the simulated 24-node WIMPI cluster, two
//! service workers, no faults. Requests are SQL text, planned per request.
//! Each cold query is 24 small sub-runs, so fixed per-execution cost (plan,
//! optimize, replicated build sides) dominates here, where per-row cost
//! dominates `tpch22_serial`; each hot query is a result-cache hit.

use std::sync::Arc;
use std::time::Instant;

use wimpi_cluster::coordinator::{Coordinator, CoordinatorConfig, QueryRequest};
use wimpi_cluster::distribute::{distribute, Strategy, PARTIALS_TABLE};
use wimpi_cluster::{ClusterConfig, WimpiCluster};
use wimpi_engine::{EngineConfig, LogicalPlan, QueryContext, Relation, ServiceConfig, WorkProfile};
use wimpi_obs::metrics::Metric;
use wimpi_queries::QueryPlan;
use wimpi_sql::execute_sql;
use wimpi_storage::{Catalog, Column, Field, Schema, Table};
use wimpi_tpch::Generator;

use crate::harness::{engine_op, Op, Params, Pass, Size, TracedPass, Workload};
use crate::layers::{Parts, ServeLayers, NODES};
use crate::schedule::{self, Request, CLASSES};
use crate::stats::median;
use crate::trace::{Recorder, NONE};
use crate::verify::fingerprint;

/// Closed-loop clients, and service workers to match: this machine has two
/// cores, and a third busy thread would only measure the scheduler.
pub const CLIENTS: usize = 2;

/// One cold answer in this many is re-run on a single node after the timed
/// window, and (traced) re-run directly on the cluster and node by node.
const SAMPLE_ONE_IN: usize = 8;

pub struct Serve {
    sf: f64,
    cluster: Arc<WimpiCluster>,
    coordinator: Coordinator,
    /// The unpartitioned catalog at `sf`, when the caller already has one.
    reference: Option<Arc<Catalog>>,
}

/// The coordinator's and the service's counters the layer metrics are
/// differences of.
struct Ledger {
    result_hits: u64,
    result_misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    subruns: u64,
    shed: u64,
    wait_sum_s: f64,
    wait_count: u64,
}

impl Serve {
    /// A fresh coordinator over `cluster`: the default configuration, with as
    /// many service workers as there are clients. (Hedged duplicates are left
    /// on. Whether one fires depends on an average that all in-flight
    /// queries update, so a hedge would make the work and the simulated time
    /// depend on how the workers interleave; without faults none fires in
    /// this mix, and `aa.sh` would show it if one did.)
    pub fn over(cluster: Arc<WimpiCluster>, sf: f64) -> Self {
        let cfg = CoordinatorConfig {
            service: ServiceConfig { workers: CLIENTS, ..ServiceConfig::default() },
            ..CoordinatorConfig::default()
        };
        let coordinator = Coordinator::new(Arc::clone(&cluster), cfg);
        Serve { sf, cluster, coordinator, reference: None }
    }

    fn ledger(&self) -> Ledger {
        let coord = self.coordinator.metrics();
        let service = self.coordinator.service_metrics();
        let (wait_sum_s, wait_count) = service
            .snapshot()
            .into_iter()
            .find_map(|(name, metric)| match metric {
                Metric::Histogram(h) if name == "service_wait_seconds" => Some((h.sum, h.count)),
                _ => None,
            })
            .unwrap_or((0.0, 0));
        Ledger {
            result_hits: coord.counter("coord_result_cache_hits_total"),
            result_misses: coord.counter("coord_result_cache_misses_total"),
            plan_hits: coord.counter("coord_plan_cache_hits_total"),
            plan_misses: coord.counter("coord_plan_cache_misses_total"),
            subruns: coord.counter("coord_subruns_total"),
            shed: service.counter("service_shed_total"),
            wait_sum_s,
            wait_count,
        }
    }

    /// The cold ops of a pass that are sampled: those whose literal number
    /// plus class is a multiple of eight. The choice does not depend on the
    /// seed, so the sampled figures compare across seeds; staggering by
    /// class keeps every pass's sample at five or six ops.
    fn sample(pass: &mut Pass) -> impl Iterator<Item = &mut Op> {
        pass.ops.iter_mut().filter(|op| {
            let number = op.key.rsplit_once('.').and_then(|(_, n)| n.parse::<usize>().ok());
            op.class != schedule::HOT
                && number.is_some_and(|n| (n + op.class).is_multiple_of(SAMPLE_ONE_IN))
        })
    }

    /// Plans and serves one request the way a client would, timing both.
    fn serve(&self, req: &Request, rec: &Recorder, parent: u32, id: u64) -> Op {
        let span = rec.open(parent, CLASSES[req.class], id);
        let started = Instant::now();
        let plan = rec.span(span, "sql.plan", id, |_| {
            wimpi_sql::plan(&req.sql, self.cluster.node_catalog(0))
        });
        let answer = plan.map_err(|e| e.to_string()).and_then(|plan| {
            rec.span(span, "cluster.coordinator.run_blocking", id, |_| {
                self.coordinator
                    .run_blocking(QueryRequest::new(req.key.clone(), QueryPlan::Single(plan)))
                    .map_err(|e| e.to_string())
            })
        });
        let secs = started.elapsed().as_secs_f64();
        rec.close(span);
        let mut op = Op::new(req.class, req.key.clone(), secs);
        if let Ok(answer) = answer {
            // A hot request must be a result-cache hit and a cold one a miss;
            // a degraded answer is a failed op.
            op.failed = answer.from_cache != req.hot || answer.degraded;
            op.sim_s = answer.sim_seconds;
            op.answer = Some(answer.result);
        }
        op
    }
}

impl Workload for Serve {
    const NAME: &'static str = "wimpi24_serve";
    const GOLDEN: &'static str = include_str!("../../golden/wimpi24_serve.tsv");

    fn size(p: &Params) -> Size {
        // A pass of 60 requests is about 1.7 s on 24 nodes at SF 0.1.
        Size::scaled(p, 0.1, 1, 9, 3)
    }

    fn build(size: &Size) -> Self {
        let cluster =
            WimpiCluster::build(ClusterConfig::new(NODES, size.sf)).expect("WIMPI cluster builds");
        Serve::over(Arc::new(cluster), size.sf)
    }

    fn classes(&self) -> Vec<String> {
        CLASSES.iter().map(|c| c.to_string()).collect()
    }

    /// The two clients take alternate requests of the pass's schedule and the
    /// pass ends when both have finished.
    fn pass(&self, index: usize, seed: u64, rec: &Recorder) -> Pass {
        if index == 0 {
            // Load the six hot answers into the result cache, so that every
            // hot request of every pass is a hit.
            for req in schedule::hot_requests() {
                self.serve(&req, &Recorder::off(), NONE, 0);
            }
        }
        let requests = schedule::pass(index, seed);
        let started = Instant::now();
        let mut by_client: Vec<Vec<(usize, Op)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let requests = &requests;
                    scope.spawn(move || {
                        let root = rec.open(NONE, "client", client as u64);
                        let ops = (client..requests.len())
                            .step_by(CLIENTS)
                            .map(|slot| {
                                let id = (index * 1000 + slot) as u64;
                                (slot, self.serve(&requests[slot], rec, root, id))
                            })
                            .collect();
                        rec.close(root);
                        ops
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client thread finishes")).collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        // Back into schedule order, which the simulated-time sum follows.
        let mut ops: Vec<(usize, Op)> = by_client.drain(..).flatten().collect();
        ops.sort_by_key(|(slot, _)| *slot);
        Pass { wall_s, ops: ops.into_iter().map(|(_, op)| op).collect() }
    }

    /// A one-in-eight sample of the last pass's cold answers must equal
    /// `execute_sql` of the same text on one unpartitioned catalog.
    fn cross_check(&self, passes: &mut [Pass]) -> Vec<String> {
        let Some(last) = passes.last_mut() else { return Vec::new() };
        let reference = self.reference.clone().unwrap_or_else(|| {
            Arc::new(Generator::new(self.sf).generate_catalog().expect("TPC-H generates"))
        });
        let mut problems = Vec::new();
        for op in Serve::sample(last) {
            let sql = schedule::sql_of_key(&op.key);
            // By fingerprint: the two paths encode string columns with
            // different dictionaries, which `Relation`'s `==` tells apart.
            let single = execute_sql(&sql, &reference).ok().map(|(rel, _)| fingerprint(&rel));
            if single != op.answer.as_ref().map(fingerprint) {
                op.failed = true;
                problems.push(format!("{}: differs from single-node execute_sql", op.key));
            }
        }
        problems
    }

    const OWN_CLUSTER: bool = true;

    fn from_parts(parts: &Parts, _size: &Size) -> Self {
        let mut serve = Serve::over(Arc::clone(&parts.cluster), parts.cluster_sf);
        if parts.sf == parts.cluster_sf {
            serve.reference = Some(Arc::clone(&parts.raw));
        }
        serve
    }

    /// The pass through the coordinator, then a sample of its cold requests
    /// again from outside: `distribute` alone, a direct `WimpiCluster::run`
    /// (what the coordinator adds is the difference), and the node plan on
    /// each node's catalog with the engine's tracer on, which is where this
    /// workload's operator self times and work counts come from.
    fn traced_pass(&self, index: usize, seed: u64, rec: &Recorder) -> TracedPass {
        let before = self.ledger();
        let mut pass = self.pass(index, seed, rec);
        let after = self.ledger();
        let hot: Vec<f64> =
            pass.ops.iter().filter(|op| op.class == schedule::HOT).map(|op| op.secs).collect();

        let strategy = Strategy::PartialAggPushdown;
        let (mut distribute_s, mut overhead_s) = (Vec::new(), Vec::new());
        let (mut run_host_s, mut run_sim_s, mut run_bytes_shipped) = (0.0, 0.0, 0);
        let (mut work, mut high_water) = (WorkProfile::default(), 0);
        for (n, op) in Serve::sample(&mut pass).enumerate() {
            let id = (index * 1000 + 900 + n) as u64;
            let root = rec.open(NONE, "sample", id);
            let plan =
                wimpi_sql::plan(&schedule::sql_of_key(&op.key), self.cluster.node_catalog(0))
                    .expect("a served text plans");
            let started = Instant::now();
            let dist = rec
                .span(root, "cluster.distribute", id, |_| distribute(&plan, strategy))
                .expect("a served plan distributes");
            distribute_s.push(started.elapsed().as_secs_f64());

            let started = Instant::now();
            let run = rec
                .span(root, "cluster.run", id, |_| {
                    self.cluster.run(&QueryPlan::Single(plan.clone()), strategy)
                })
                .expect("a served plan runs on the cluster");
            let host_s = started.elapsed().as_secs_f64();
            overhead_s.push(op.secs - host_s);
            run_host_s += host_s;
            run_sim_s += run.total_seconds();
            run_bytes_shipped += run.bytes_shipped;

            // Node by node, then the merge, as the cluster's driver does it
            // but with the engine's tracer on; the merged answer must be the
            // served one.
            let mut traced = |plan: &QueryPlan, catalog: &Catalog, name: &str| {
                let ctx = QueryContext::default();
                let span = rec.open(root, name, id);
                let (_, out) =
                    engine_op(plan, catalog, &EngineConfig::serial(), &ctx, rec, span, id);
                rec.close(span);
                let (rel, w) = out.expect("a distributed plan runs");
                work.merge(&w);
                high_water = high_water.max(ctx.high_water());
                rel
            };
            let node_plan = QueryPlan::Single(dist.node_plan);
            let partials: Vec<Relation> = (0..NODES as usize)
                .map(|n| traced(&node_plan, self.cluster.node_catalog(n), "cluster.node_subrun"))
                .collect();
            let merge_catalog =
                merge_catalog(&partials, &dist.merge_plan, self.cluster.node_catalog(0));
            let merged =
                traced(&QueryPlan::Single(dist.merge_plan), &merge_catalog, "cluster.merge");
            if op.answer.as_ref().map(fingerprint) != Some(fingerprint(&merged)) {
                op.failed = true;
            }
            rec.close(root);
        }

        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let waits = (after.wait_count - before.wait_count).max(1) as f64;
        let serve = ServeLayers {
            hot_p50_s: median(&hot),
            result_cache_hit_ratio: ratio(
                after.result_hits - before.result_hits,
                after.result_misses - before.result_misses,
            ),
            plan_cache_hit_ratio: ratio(
                after.plan_hits - before.plan_hits,
                after.plan_misses - before.plan_misses,
            ),
            distribute_us: median(&distribute_s) * 1e6,
            run_host_s,
            run_sim_s,
            run_bytes_shipped,
            miss_overhead_p50_s: median(&overhead_s),
            subruns: after.subruns - before.subruns,
            wait_mean_s: (after.wait_sum_s - before.wait_sum_s) / waits,
            shed: after.shed - before.shed,
        };
        TracedPass { pass, work, high_water, serve: Some(serve) }
    }
}

/// The driver-side catalog of a distributed run: the nodes' partial results
/// concatenated into the partials table, plus whichever replicated tables
/// the merge plan reads (identical on every node, so node 0's will do).
fn merge_catalog(partials: &[Relation], merge_plan: &LogicalPlan, node0: &Catalog) -> Catalog {
    let (fields, columns) = partials[0]
        .fields()
        .iter()
        .enumerate()
        .map(|(i, (name, col))| {
            let parts: Vec<&Column> = partials.iter().map(|r| r.fields()[i].1.as_ref()).collect();
            let column = Column::concat(&parts).expect("partials share a schema");
            (Field::new(name.clone(), col.data_type()), column)
        })
        .unzip();
    let mut catalog = Catalog::new();
    catalog
        .register(PARTIALS_TABLE, Table::new(Schema::new(fields), columns).expect("table builds"));
    for table in merge_plan.tables().iter().filter(|t| *t != PARTIALS_TABLE) {
        let shared = node0.table(table).expect("replicated table exists");
        catalog.register_shared(table.clone(), Arc::clone(shared));
    }
    catalog
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.coordinator.shutdown();
    }
}
