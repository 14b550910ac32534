//! Layer probes of the traced run: the set-up stages timed one by one, and
//! microbenchmarks of the layers a pass only exercises in passing (bytecode
//! kernels, the SQL front end, the optimizer, the hardware model). Each
//! probe calls one layer's public functions from outside and records a span
//! around the call. None of this runs in the untraced run.

use std::sync::Arc;
use std::time::Instant;

use wimpi_cluster::distribute::Strategy;
use wimpi_cluster::{ClusterConfig, WimpiCluster};
use wimpi_core::reference;
use wimpi_engine::exec::bytecode::Program;
use wimpi_engine::optimizer::optimize;
use wimpi_engine::{col, dec2, EngineConfig, Expr, QueryContext, Relation, WorkProfile};
use wimpi_hwsim::model::geomean_ratio;
use wimpi_hwsim::{pi3b, predict};
use wimpi_queries::{query, run_governed};
use wimpi_storage::morsel::{morsel_ranges, DEFAULT_MORSEL_ROWS};
use wimpi_storage::{Catalog, Value};
use wimpi_tpch::{cluster_by, Generator};

use crate::metrics::Metrics;
use crate::schedule::hot_requests;
use crate::stats::median;
use crate::trace::{Recorder, NONE};
use crate::workloads::scan_fused;

/// Scale of the probe clusters: big enough that a sub-run is not all fixed
/// cost, small enough to build in well under a second.
pub const PROBE_SF: f64 = 0.02;
/// Nodes of every cluster the benchmark builds: the paper's full WIMPI.
pub const NODES: u32 = 24;

/// The state a traced run works on, built stage by stage under spans.
pub struct Parts {
    pub sf: f64,
    /// `Generator::generate_catalog`: raw, key-ordered.
    pub raw: Arc<Catalog>,
    /// What `clustered_catalog` builds from it: clustered by date, sealed.
    pub clustered: Arc<Catalog>,
    /// The cluster the serving layers are measured on, and its scale.
    pub cluster: Arc<WimpiCluster>,
    pub cluster_sf: f64,
}

/// What one pass through the coordinator says about the serving layers.
pub struct ServeLayers {
    /// Median latency of a hot request (a result-cache hit).
    pub hot_p50_s: f64,
    pub result_cache_hit_ratio: f64,
    pub plan_cache_hit_ratio: f64,
    /// Median cost of `distribute` over the sampled cold requests.
    pub distribute_us: f64,
    /// Direct `WimpiCluster::run` of the sampled cold requests: host
    /// seconds, simulated seconds and partial-result bytes shipped, summed.
    pub run_host_s: f64,
    pub run_sim_s: f64,
    pub run_bytes_shipped: u64,
    /// Median of coordinator latency minus the direct run of the same plan.
    pub miss_overhead_p50_s: f64,
    pub subruns: u64,
    /// Mean time a request waited for admission.
    pub wait_mean_s: f64,
    pub shed: u64,
}

impl ServeLayers {
    pub fn report(&self, m: &mut Metrics) {
        m.put("cluster.coordinator.hot.p50_s", self.hot_p50_s);
        m.put("cluster.coordinator.result_cache.hit_ratio", self.result_cache_hit_ratio);
        m.put("cluster.coordinator.plan_cache.hit_ratio", self.plan_cache_hit_ratio);
        m.put("cluster.distribute.us", self.distribute_us);
        m.put("cluster.run.host_s", self.run_host_s);
        m.put("cluster.run.sim_s", self.run_sim_s);
        m.put("cluster.run.bytes_shipped", self.run_bytes_shipped as f64);
        m.put("cluster.coordinator.miss_overhead.p50_s", self.miss_overhead_p50_s);
        m.put("cluster.coordinator.subruns", self.subruns as f64);
        m.put("engine.service.wait.mean_s", self.wait_mean_s);
        m.put("engine.service.shed", self.shed as f64);
    }
}

fn timed<T>(rec: &Recorder, parent: u32, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = rec.span(parent, name, 0, |_| f());
    (out, started.elapsed().as_secs_f64())
}

/// Builds [`Parts`]: the single-node catalog at `sf` in the stages of
/// `clustered_catalog`, and a 24-node cluster at `cluster_sf`.
pub fn build_parts(sf: f64, cluster_sf: f64, rec: &Recorder, m: &mut Metrics) -> Parts {
    let root = rec.open(NONE, "setup", 0);
    let (raw, gen_s) = timed(rec, root, "tpch.gen", || {
        Generator::new(sf).generate_catalog().expect("TPC-H generates")
    });
    let lineitem_rows = raw.table("lineitem").expect("lineitem exists").num_rows();
    m.put("tpch.gen.s", gen_s);
    // Over the whole catalog's generation time, of which lineitem is most.
    m.put("tpch.gen.lineitem_rows_per_s", lineitem_rows as f64 / gen_s);
    m.put("storage.catalog_heap_mb", raw.heap_bytes() as f64 / (1 << 20) as f64);

    let mut clustered = raw.clone();
    let (_, cluster_by_s) = timed(rec, root, "tpch.cluster_by", || {
        for (name, key) in [("lineitem", "l_shipdate"), ("orders", "o_orderdate")] {
            let sorted = cluster_by(raw.table(name).expect("table exists"), key).expect("sorts");
            clustered.register(name, sorted);
        }
    });
    m.put("tpch.cluster_by.s", cluster_by_s);
    let (_, seal_s) = timed(rec, root, "storage.seal_integrity", || clustered.seal_integrity());
    m.put("storage.seal_integrity.s", seal_s);
    let (_, zones_s) = timed(rec, root, "storage.seal_zone_maps", || clustered.seal_zone_maps());
    m.put("storage.seal_zone_maps.s", zones_s);

    let (cluster, build_s) = timed(rec, root, "cluster.build", || {
        WimpiCluster::build(ClusterConfig::new(NODES, cluster_sf)).expect("WIMPI cluster builds")
    });
    m.put("cluster.build.s", build_s);
    rec.close(root);
    Parts {
        sf,
        raw: Arc::new(raw),
        clustered: Arc::new(clustered),
        cluster: Arc::new(cluster),
        cluster_sf,
    }
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn decimal(s: &str) -> Value {
    Value::Dec(wimpi_storage::Decimal64::from_str_scale(s, 2).expect("constant parses"))
}

/// Rows per second of each bytecode `Quick` filter form and of arithmetic
/// evaluation, morsel by morsel over all of `lineitem` as the executors run
/// them. Each predicate has the shape `Program::compile`'s peephole turns
/// into the named form.
pub fn bytecode_kernels(catalog: &Catalog, rec: &Recorder, m: &mut Metrics) {
    const REPS: usize = 5;
    let lineitem = catalog.table("lineitem").expect("lineitem exists");
    let rel = Relation::from_table(lineitem, None).expect("lineitem projects");
    let rows = rel.num_rows();
    let morsels = morsel_ranges(rows, DEFAULT_MORSEL_ROWS);
    let root = rec.open(NONE, "probe.bytecode", 0);

    let filters: [(&'static str, Expr); 4] = [
        ("engine.exec.bytecode.cmp_const.rows_per_s", col("l_quantity").lt(dec2("24"))),
        (
            "engine.exec.bytecode.dict.rows_per_s",
            col("l_shipmode").in_list(vec!["MAIL".into(), "SHIP".into()]),
        ),
        (
            "engine.exec.bytecode.in_fixed.rows_per_s",
            col("l_linenumber").in_list(vec![Value::I64(1), Value::I64(3), Value::I64(5)]),
        ),
        (
            "engine.exec.bytecode.range_fixed.rows_per_s",
            col("l_discount").between(decimal("0.05"), decimal("0.07")),
        ),
    ];
    for (name, expr) in filters {
        let program = Program::compile(&expr, &rel).expect("filter compiles to bytecode");
        let mut sel = Vec::with_capacity(DEFAULT_MORSEL_ROWS);
        let mut kept = 0;
        let secs = rec.span(root, "engine.exec.bytecode.filter_range", 0, |_| {
            median_secs(REPS, || {
                kept = 0;
                for range in &morsels {
                    sel.clear();
                    program.filter_range(range.clone(), &mut sel);
                    kept += sel.len();
                }
            })
        });
        assert!(kept > 0 && kept < rows, "{name}: the predicate must keep some rows, not all");
        m.put(name, rows as f64 / secs);
    }

    let disc_price = col("l_extendedprice").mul(dec2("1").sub(col("l_discount")));
    let program = Program::compile(&disc_price, &rel).expect("arithmetic compiles to bytecode");
    let mut out = Vec::with_capacity(DEFAULT_MORSEL_ROWS);
    let sels: Vec<Vec<u32>> =
        morsels.iter().map(|r| (r.start as u32..r.end as u32).collect()).collect();
    let secs = rec.span(root, "engine.exec.bytecode.eval_sel", 0, |_| {
        median_secs(REPS, || {
            for sel in &sels {
                program.eval_sel(sel, &mut out);
                std::hint::black_box(&out);
            }
        })
    });
    m.put("engine.exec.bytecode.eval_arith.rows_per_s", rows as f64 / secs);
    rec.close(root);
}

/// The six scan queries on the clustered catalog, fused and pruned, on one
/// thread and on two: the share of scan bytes the zone maps skip, and what
/// the morsel pool's second thread buys.
pub fn fused_scan(clustered: &Catalog, rec: &Recorder, m: &mut Metrics) {
    const REPS: usize = 3;
    let queries = scan_fused::QUERIES.map(query);
    let root = rec.open(NONE, "probe.fused_scan", 0);
    let mut work = WorkProfile::default();
    let mut wall = [0.0; 2];
    for (slot, threads) in [1, 2].into_iter().enumerate() {
        let cfg = scan_fused::config(threads);
        wall[slot] = rec.span(root, "engine.run", threads as u64, |_| {
            median_secs(REPS, || {
                work = WorkProfile::default();
                for q in &queries {
                    let (_, w) = run_governed(q, clustered, &cfg, &QueryContext::default())
                        .expect("scan query runs");
                    work.merge(&w);
                }
            })
        });
    }
    rec.close(root);
    let skipped = work.pruned_bytes as f64;
    m.put("engine.exec.prune.skip_ratio", skipped / (skipped + work.seq_read_bytes as f64));
    m.put("engine.exec.parallel.speedup_t2", wall[0] / wall[1]);
}

/// Microseconds per statement of each SQL front-end stage and of the
/// optimizer, over the six hot texts. Stages are timed inclusively, as the
/// public functions nest: `parse` lexes, `plan` parses.
pub fn sql_front_end(catalog: &Catalog, rec: &Recorder, m: &mut Metrics) {
    const REPS: usize = 20;
    let texts: Vec<String> = hot_requests().into_iter().map(|r| r.sql).collect();
    let plans: Vec<_> =
        texts.iter().map(|t| wimpi_sql::plan(t, catalog).expect("hot text plans")).collect();
    let per_statement_us = |secs: f64| secs / texts.len() as f64 * 1e6;
    let root = rec.open(NONE, "probe.sql", 0);
    let lex = rec.span(root, "sql.lex", 0, |_| {
        median_secs(REPS, || {
            for t in &texts {
                std::hint::black_box(wimpi_sql::lexer::lex(t).expect("hot text lexes"));
            }
        })
    });
    let parse = rec.span(root, "sql.parse", 0, |_| {
        median_secs(REPS, || {
            for t in &texts {
                std::hint::black_box(wimpi_sql::parser::parse(t).expect("hot text parses"));
            }
        })
    });
    let plan = rec.span(root, "sql.plan", 0, |_| {
        median_secs(REPS, || {
            for t in &texts {
                std::hint::black_box(wimpi_sql::plan(t, catalog).expect("hot text plans"));
            }
        })
    });
    let opt = rec.span(root, "engine.optimizer.optimize", 0, |_| {
        median_secs(REPS, || {
            for p in &plans {
                std::hint::black_box(optimize(p.clone(), catalog).expect("hot plan optimizes"));
            }
        })
    });
    rec.close(root);
    m.put("sql.lex.us", per_statement_us(lex));
    m.put("sql.parse.us", per_statement_us(parse));
    m.put("sql.plan.us", per_statement_us(plan));
    m.put("engine.optimizer.optimize.us", per_statement_us(opt));
}

fn mean_abs_log_err(model: &[f64], paper: &[f64]) -> f64 {
    model.iter().zip(paper).map(|(m, p)| (m / p).ln().abs()).sum::<f64>() / model.len() as f64
}

/// The hardware model: the cost of one prediction, and how far the model is
/// from the paper's published Pi 3B+ numbers. Table II: the 22 queries'
/// work on `catalog`, scaled to SF 1, against the paper's single-Pi column.
/// Table III: the eight choke-point queries on a 24-node probe cluster
/// modelled at SF 10, against the paper's 24-node row. These move only when
/// the engine's work counts or the model change.
pub fn hardware_model(catalog: &Catalog, sf: f64, rec: &Recorder, m: &mut Metrics) {
    let root = rec.open(NONE, "probe.hwsim", 0);
    let pi = pi3b();
    let work: Vec<WorkProfile> = (1..=22)
        .map(|n| {
            let q = query(n);
            let ctx = QueryContext::default();
            let (_, w) =
                run_governed(&q, catalog, &EngineConfig::serial(), &ctx).expect("TPC-H query runs");
            w.scale(1.0 / sf)
        })
        .collect();
    let predict_s = rec.span(root, "hwsim.predict", 0, |_| {
        median_secs(20, || {
            for w in &work {
                std::hint::black_box(predict(&pi, w, pi.threads));
            }
        })
    });
    m.put("hwsim.predict.us", predict_s / work.len() as f64 * 1e6);

    let model: Vec<f64> = work.iter().map(|w| predict(&pi, w, pi.threads).total_s()).collect();
    let paper: Vec<f64> =
        (1..=22).map(|q| reference::table2("pi3b+", q).expect("transcribed")).collect();
    m.put("hwsim.table2_pi3b.geomean_ratio", geomean_ratio(&model, &paper));
    m.put("hwsim.table2_pi3b.mean_abs_log_err", mean_abs_log_err(&model, &paper));

    let cluster =
        WimpiCluster::build(ClusterConfig::new(NODES, PROBE_SF).with_model_scale(10.0 / PROBE_SF))
            .expect("probe cluster builds");
    let (model, paper): (Vec<f64>, Vec<f64>) = reference::TABLE3_QUERIES
        .iter()
        .map(|&q| {
            let run = rec.span(root, "cluster.run", q as u64, |_| {
                cluster
                    .run(&query(q), Strategy::PartialAggPushdown)
                    .expect("choke-point query runs")
            });
            (run.total_seconds(), reference::table3_wimpi(NODES, q).expect("transcribed"))
        })
        .unzip();
    m.put("hwsim.table3_wimpi24.mean_abs_log_err", mean_abs_log_err(&model, &paper));
    rec.close(root);
}
