//! Experiment runners — one per table/figure of the paper (DESIGN.md §4).
//!
//! Every runner executes the workload for real on the host (at a
//! configurable `measure_sf`), scales the measured work profiles to the
//! paper's scale factor, and prices them under the ten hardware models.

use std::sync::Arc;

use wimpi_cluster::distribute::Strategy;
use wimpi_cluster::faults::{FaultKind, FaultPlan};
use wimpi_cluster::memory::MemoryModel;
use wimpi_cluster::{scan_bytes, ClusterConfig, WimpiCluster};
use wimpi_engine::{EngineConfig, EngineError, QueryContext, Result, WorkProfile};
use wimpi_hwsim::micro;
use wimpi_hwsim::normalize::{improvement, msrp, power_w, wimpi_hourly, wimpi_msrp, wimpi_power_w};
use wimpi_hwsim::{all_profiles, predict_all_cores, predict_single_core, HwProfile};
use wimpi_queries::{
    query, run as run_query, run_governed, run_priced, QueryPlan, CHOKEPOINT_QUERIES,
};
use wimpi_storage::morsel::DEFAULT_MORSEL_ROWS;
use wimpi_storage::spill::{SpillConfig, SpillDisk};
use wimpi_storage::Catalog;
use wimpi_strategies::{Paradigm, STRATEGY_QUERIES};
use wimpi_tpch::Generator;

use crate::report::{Series, TextFigure};

/// Study-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Scale factor actually generated and executed on the host. Work
    /// profiles are scaled linearly from here to each experiment's target
    /// SF (1 or 10).
    pub measure_sf: f64,
}

/// Single-node runtimes for a set of queries across all comparison points.
#[derive(Debug, Clone)]
pub struct SingleNodeTable {
    /// Target scale factor the numbers represent.
    pub target_sf: f64,
    /// Query numbers, column order.
    pub queries: Vec<usize>,
    /// Comparison-point names, row order.
    pub profiles: Vec<String>,
    /// Predicted seconds, `[profile][query]`.
    pub seconds: Vec<Vec<f64>>,
}

impl SingleNodeTable {
    /// Seconds for one comparison point / query.
    pub fn get(&self, profile: &str, q: usize) -> Option<f64> {
        let r = self.profiles.iter().position(|p| p == profile)?;
        let c = self.queries.iter().position(|&x| x == q)?;
        Some(self.seconds[r][c])
    }

    /// Renders as an aligned table.
    pub fn to_figure(&self, title: &str) -> TextFigure {
        let mut f = TextFigure::new(title, "machine");
        f.rows = self.profiles.clone();
        for (c, q) in self.queries.iter().enumerate() {
            f.push_series(Series::new(
                format!("Q{q}"),
                self.seconds.iter().map(|row| row[c]).collect(),
            ));
        }
        f
    }
}

/// Table III: servers plus the WIMPI cluster sweep.
#[derive(Debug, Clone)]
pub struct DistributedTable {
    /// Target scale factor.
    pub target_sf: f64,
    /// Query numbers, column order.
    pub queries: Vec<usize>,
    /// Server runtimes (single node).
    pub servers: SingleNodeTable,
    /// Swept cluster sizes.
    pub cluster_sizes: Vec<u32>,
    /// WIMPI seconds, `[size][query]`.
    pub wimpi_seconds: Vec<Vec<f64>>,
}

impl DistributedTable {
    /// WIMPI seconds at a cluster size.
    pub fn wimpi(&self, nodes: u32, q: usize) -> Option<f64> {
        let r = self.cluster_sizes.iter().position(|&n| n == nodes)?;
        let c = self.queries.iter().position(|&x| x == q)?;
        Some(self.wimpi_seconds[r][c])
    }

    /// Renders servers + cluster rows in one table.
    pub fn to_figure(&self, title: &str) -> TextFigure {
        let mut f = TextFigure::new(title, "configuration");
        f.rows = self.servers.profiles.clone();
        f.rows.extend(self.cluster_sizes.iter().map(|n| format!("pi3b+ x{n}")));
        for (c, q) in self.queries.iter().enumerate() {
            let mut vals: Vec<f64> = self.servers.seconds.iter().map(|row| row[c]).collect();
            vals.extend(self.wimpi_seconds.iter().map(|row| row[c]));
            f.push_series(Series::new(format!("Q{q}"), vals));
        }
        f
    }
}

/// Figure 4 data: per (query, paradigm, machine) predicted seconds.
#[derive(Debug, Clone)]
pub struct StrategyTable {
    /// Query numbers.
    pub queries: Vec<usize>,
    /// Machines compared (the paper uses op-e5, op-gold, pi3b+).
    pub machines: Vec<String>,
    /// Seconds, `[machine][paradigm][query]` with paradigms in
    /// [`Paradigm::ALL`] order.
    pub seconds: Vec<Vec<Vec<f64>>>,
}

impl StrategyTable {
    /// Renders one sub-figure per machine.
    pub fn to_figures(&self) -> Vec<TextFigure> {
        self.machines
            .iter()
            .enumerate()
            .map(|(m, name)| {
                let mut f = TextFigure::new(
                    format!("Fig 4 — execution strategies on {name} (SF 1, 1 thread, s)"),
                    "query",
                );
                f.rows = self.queries.iter().map(|q| format!("Q{q}")).collect();
                for (p, paradigm) in Paradigm::ALL.iter().enumerate() {
                    f.push_series(Series::new(paradigm.label(), self.seconds[m][p].clone()));
                }
                f
            })
            .collect()
    }
}

/// The availability experiment: recovery overhead when nodes are killed
/// mid-study, swept over cluster size and failure count. Not in the paper —
/// the paper §III-C4 only *reports* that OOM crashes stayed isolated; this
/// quantifies what riding through real failures would have cost WIMPI.
#[derive(Debug, Clone)]
pub struct AvailabilityTable {
    /// Target scale factor the numbers represent.
    pub target_sf: f64,
    /// Swept cluster sizes, row order.
    pub cluster_sizes: Vec<u32>,
    /// Nodes killed per experiment, column order (0 = fault-free baseline).
    pub kills: Vec<u32>,
    /// Choke-point total runtime relative to fault-free, `[size][kills]`
    /// (1.0 = no overhead; NaN when the kill count reaches the size).
    pub overhead: Vec<Vec<f64>>,
    /// Simulated seconds attributed to recovery, `[size][kills]`.
    pub recovery_seconds: Vec<Vec<f64>>,
    /// Worst per-query answer coverage, `[size][kills]` (1.0 = complete).
    pub coverage: Vec<Vec<f64>>,
}

impl AvailabilityTable {
    /// Renders the overhead and recovery-time panels.
    pub fn to_figures(&self) -> Vec<TextFigure> {
        let rows: Vec<String> = self.cluster_sizes.iter().map(|n| format!("pi3b+ x{n}")).collect();
        let mut f1 = TextFigure::new(
            format!(
                "Availability — choke-point runtime vs fault-free (SF {}, ratio)",
                self.target_sf
            ),
            "cluster",
        );
        f1.rows = rows.clone();
        let mut f2 = TextFigure::new(
            format!("Availability — simulated recovery seconds (SF {})", self.target_sf),
            "cluster",
        );
        f2.rows = rows;
        for (c, k) in self.kills.iter().enumerate() {
            f1.push_series(Series::new(
                format!("{k} killed"),
                self.overhead.iter().map(|row| row[c]).collect(),
            ));
            f2.push_series(Series::new(
                format!("{k} killed"),
                self.recovery_seconds.iter().map(|row| row[c]).collect(),
            ));
        }
        vec![f1, f2]
    }
}

/// Modelled gains of this repo's engine extensions — morsel parallelism,
/// the fused executor, zone-map pruning, the spill rung — for the
/// choke-point queries on the Pi 3B+ and op-e5. Not in the paper: every
/// figure is a ratio of hwsim predictions over measured [`WorkProfile`]s,
/// so no host clock enters it and two runs print the same table. Host
/// timings of the same code paths are `benchmark/run.sh` metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionsTable {
    /// Scale factor the profiles were measured at.
    pub measure_sf: f64,
    /// Query numbers, row order.
    pub queries: Vec<usize>,
    /// Machines compared: the Pi 3B+ first, then op-e5.
    pub machines: Vec<String>,
    /// `modeled_speedup` of the materializing profile at 2 and at 4
    /// threads, `[machine][query]`.
    pub speedup_2t: Vec<Vec<f64>>,
    /// See [`ExtensionsTable::speedup_2t`].
    pub speedup_4t: Vec<Vec<f64>>,
    /// `modeled_fused_gain` (materializing ÷ fused), `[machine][query]`.
    pub fused_gain: Vec<Vec<f64>>,
    /// `modeled_prune_gain` on the date-clustered catalog, `[machine][query]`.
    pub prune_gain: Vec<Vec<f64>>,
    /// `modeled_spill_penalty` under [`Study::extensions`]'s budget
    /// (1 = the query never touched the disk), `[machine][query]`.
    pub spill_penalty: Vec<Vec<f64>>,
}

impl ExtensionsTable {
    /// Renders one panel per extension, machines side by side.
    pub fn to_figures(&self) -> Vec<TextFigure> {
        let panel = |title: &str, columns: &[(&str, &Vec<Vec<f64>>)]| {
            let mut f = TextFigure::new(
                format!("Extensions — {title} (profiles measured at SF {})", self.measure_sf),
                "query",
            );
            f.rows = self.queries.iter().map(|q| format!("Q{q}")).collect();
            for (suffix, values) in columns {
                for (m, name) in self.machines.iter().enumerate() {
                    f.push_series(Series::new(format!("{name}{suffix}"), values[m].clone()));
                }
            }
            f
        };
        vec![
            panel(
                "modelled morsel-parallel speedup over 1 thread",
                &[(" 2T", &self.speedup_2t), (" 4T", &self.speedup_4t)],
            ),
            panel("modelled fused-executor gain over materializing", &[("", &self.fused_gain)]),
            panel(
                "modelled zone-map prune gain, date-clustered catalog",
                &[("", &self.prune_gain)],
            ),
            panel("modelled spill penalty over in-memory", &[("", &self.spill_penalty)]),
        ]
    }
}

impl Study {
    /// A study measuring at the given SF.
    pub fn new(measure_sf: f64) -> Self {
        assert!(measure_sf > 0.0);
        Self { measure_sf }
    }

    /// Table I: the hardware specification table (static data).
    pub fn table1() -> TextFigure {
        let mut f = TextFigure::new("Table I — hardware specifications", "name");
        let profiles = all_profiles();
        f.rows = profiles.iter().map(|p| p.name.to_string()).collect();
        f.push_series(Series::new("GHz", profiles.iter().map(|p| p.freq_ghz).collect()));
        f.push_series(Series::new("cores", profiles.iter().map(|p| p.cores as f64).collect()));
        f.push_series(Series::new(
            "LLC(MB)",
            profiles.iter().map(|p| p.llc_bytes as f64 / (1 << 20) as f64).collect(),
        ));
        f.push_series(Series {
            name: "MSRP($)".into(),
            values: profiles.iter().map(|p| p.msrp_usd).collect(),
        });
        f.push_series(Series {
            name: "hourly($)".into(),
            values: profiles.iter().map(|p| p.hourly_usd).collect(),
        });
        f.push_series(Series {
            name: "TDP(W)".into(),
            values: profiles.iter().map(|p| p.tdp_watts).collect(),
        });
        f
    }

    /// Figure 2: microbenchmark scores for all machines, single- and
    /// all-core (model predictions; host kernels anchor them separately).
    pub fn fig2() -> Vec<TextFigure> {
        let profiles = all_profiles();
        let rows: Vec<String> = profiles.iter().map(|p| p.name.to_string()).collect();
        let scores: Vec<micro::MicroScores> = profiles.iter().map(micro::scores).collect();
        let mk = |title: &str, one: Vec<f64>, all: Vec<f64>| {
            let mut f = TextFigure::new(title, "machine");
            f.rows = rows.clone();
            f.push_series(Series::new("1-core", one));
            f.push_series(Series::new("all-cores", all));
            f
        };
        vec![
            mk(
                "Fig 2a — Whetstone MWIPS (higher is better)",
                scores.iter().map(|s| s.whetstone.0).collect(),
                scores.iter().map(|s| s.whetstone.1).collect(),
            ),
            mk(
                "Fig 2b — Dhrystone DMIPS (higher is better)",
                scores.iter().map(|s| s.dhrystone.0).collect(),
                scores.iter().map(|s| s.dhrystone.1).collect(),
            ),
            mk(
                "Fig 2c — sysbench prime seconds (lower is better)",
                scores.iter().map(|s| s.prime_s.0).collect(),
                scores.iter().map(|s| s.prime_s.1).collect(),
            ),
            mk(
                "Fig 2d — memory bandwidth GB/s (higher is better)",
                scores.iter().map(|s| s.membw_gbs.0).collect(),
                scores.iter().map(|s| s.membw_gbs.1).collect(),
            ),
        ]
    }

    /// Table II: all 22 queries at SF 1 across the ten machines.
    pub fn table2(&self) -> Result<SingleNodeTable> {
        let queries: Vec<usize> = (1..=22).collect();
        self.single_node_table(&queries, 1.0)
    }

    /// The server rows of Table III (choke-point queries at SF 10). A lone
    /// Pi cannot hold SF 10 (the reason the paper built WIMPI), so the Pi
    /// row is dropped here, matching the paper's table.
    pub fn table3_servers(&self) -> Result<SingleNodeTable> {
        let mut t = self.single_node_table(&CHOKEPOINT_QUERIES, 10.0)?;
        if let Some(pos) = t.profiles.iter().position(|p| p == "pi3b+") {
            t.profiles.remove(pos);
            t.seconds.remove(pos);
        }
        Ok(t)
    }

    fn single_node_table(&self, queries: &[usize], target_sf: f64) -> Result<SingleNodeTable> {
        let cat = generate(self.measure_sf)?;
        let scale = target_sf / self.measure_sf;
        let mut work: Vec<WorkProfile> = Vec::with_capacity(queries.len());
        let mut base: Vec<u64> = Vec::with_capacity(queries.len());
        for &q in queries {
            let qp = query(q);
            let (_, prof) = run_query(&qp, &cat)?;
            work.push(prof.scale(scale));
            base.push((query_scan_bytes(&qp, &cat)? as f64 * scale) as u64);
        }
        let profiles = all_profiles();
        let mut seconds = Vec::with_capacity(profiles.len());
        for hw in &profiles {
            let mut row = Vec::with_capacity(queries.len());
            for (i, w) in work.iter().enumerate() {
                row.push(predicted_seconds(hw, w, base[i]));
            }
            seconds.push(row);
        }
        Ok(SingleNodeTable {
            target_sf,
            queries: queries.to_vec(),
            profiles: profiles.iter().map(|p| p.name.to_string()).collect(),
            seconds,
        })
    }

    /// Table III: servers plus the WIMPI sweep at the given cluster sizes.
    pub fn table3(&self, cluster_sizes: &[u32]) -> Result<DistributedTable> {
        let servers = self.table3_servers()?;
        let scale = 10.0 / self.measure_sf;
        let mut wimpi_seconds = Vec::with_capacity(cluster_sizes.len());
        for &n in cluster_sizes {
            let cluster =
                WimpiCluster::build(ClusterConfig::new(n, self.measure_sf).with_model_scale(scale))
                    .map_err(cluster_err)?;
            let mut row = Vec::with_capacity(CHOKEPOINT_QUERIES.len());
            for &q in &CHOKEPOINT_QUERIES {
                let r = cluster
                    .run_with(
                        &format!("Q{q}"),
                        &query(q),
                        Strategy::PartialAggPushdown,
                        &FaultPlan::none(),
                    )
                    .map_err(cluster_err)?;
                row.push(r.total_seconds());
            }
            wimpi_seconds.push(row);
        }
        Ok(DistributedTable {
            target_sf: 10.0,
            queries: CHOKEPOINT_QUERIES.to_vec(),
            servers,
            cluster_sizes: cluster_sizes.to_vec(),
            wimpi_seconds,
        })
    }

    /// The availability experiment: for each cluster size, crash the `k`
    /// highest-index nodes (for each `k` in `kills`) in every choke-point
    /// query's fault plan and run it through the recovery engine, recording
    /// the total runtime relative to the fault-free baseline, the simulated
    /// seconds recovery cost, and the worst answer coverage. Deterministic:
    /// the crash set is a function of `(size, k)` alone.
    pub fn availability(&self, cluster_sizes: &[u32], kills: &[u32]) -> Result<AvailabilityTable> {
        let scale = 10.0 / self.measure_sf;
        let mut overhead = Vec::with_capacity(cluster_sizes.len());
        let mut recovery = Vec::with_capacity(cluster_sizes.len());
        let mut coverage = Vec::with_capacity(cluster_sizes.len());
        for &n in cluster_sizes {
            let cluster =
                WimpiCluster::build(ClusterConfig::new(n, self.measure_sf).with_model_scale(scale))
                    .map_err(cluster_err)?;
            let mut o_row = Vec::with_capacity(kills.len());
            let mut r_row = Vec::with_capacity(kills.len());
            let mut c_row = Vec::with_capacity(kills.len());
            // (total seconds, recovery seconds, worst coverage) of the
            // choke-point queries with the `k` highest-index nodes crashed.
            let strategy = Strategy::PartialAggPushdown;
            let study = |k: u32| -> Result<(f64, f64, f64)> {
                let crashed = ((n - k) as usize..n as usize)
                    .fold(FaultPlan::none(), |plan, node| plan.with(node, FaultKind::Crash));
                let (mut total, mut rec, mut cov) = (0.0, 0.0, 1.0f64);
                for &q in &CHOKEPOINT_QUERIES {
                    let r = cluster
                        .run_with(&format!("Q{q}"), &query(q), strategy, &crashed)
                        .map_err(cluster_err)?;
                    total += r.total_seconds();
                    rec += r.recovery.recovery_seconds;
                    cov = cov.min(r.recovery.coverage);
                }
                Ok((total, rec, cov))
            };
            let (baseline_total, ..) = study(0)?;
            for &k in kills {
                if k >= n {
                    // Killing the whole cluster leaves nothing to answer.
                    o_row.push(f64::NAN);
                    r_row.push(f64::NAN);
                    c_row.push(0.0);
                    continue;
                }
                let (total, rec, cov) = study(k)?;
                o_row.push(total / baseline_total);
                r_row.push(rec);
                c_row.push(cov);
            }
            overhead.push(o_row);
            recovery.push(r_row);
            coverage.push(c_row);
        }
        Ok(AvailabilityTable {
            target_sf: 10.0,
            cluster_sizes: cluster_sizes.to_vec(),
            kills: kills.to_vec(),
            overhead,
            recovery_seconds: recovery,
            coverage,
        })
    }

    /// The extensions' modelled gains (see [`ExtensionsTable`]). Each
    /// choke-point query runs three times at `measure_sf` — on the raw
    /// catalog, priced in both lists; with pruning on the clustered one,
    /// priced fused; and under a budget small enough to push the largest
    /// builds past Grace onto a spill disk, priced materializing — and hwsim
    /// prices the profiles, scaled to SF 1 like every other table. Zone-map
    /// grid and budget shrink with `measure_sf`, so a morsel spans the share
    /// of the date domain, and the budget the share of a build, that the
    /// default 64 Ki-row grid and 200 KiB would at SF 1: the table barely
    /// moves with `measure_sf`.
    pub fn extensions(&self) -> Result<ExtensionsTable> {
        let raw = generate(self.measure_sf)?;
        let grid =
            ((DEFAULT_MORSEL_ROWS as f64 * self.measure_sf) as usize).clamp(1, DEFAULT_MORSEL_ROWS);
        let mut clustered =
            wimpi_tpch::clustered_catalog(self.measure_sf).map_err(EngineError::Storage)?;
        let names: Vec<String> = clustered.names().map(String::from).collect();
        for name in names {
            let fine = clustered.table(&name)?.as_ref().clone().with_zone_maps_at(grid);
            clustered.register(&name, fine);
        }
        let budget = (200.0 * 1024.0 * self.measure_sf) as u64;
        let serial = EngineConfig::serial();
        let pruning = serial.with_morsel_rows(grid).with_prune_scans(true);

        // Per query: materializing, fused, pruned and spilled profiles at SF 1.
        let scale = 1.0 / self.measure_sf;
        let mut runs = Vec::with_capacity(CHOKEPOINT_QUERIES.len());
        for &q in &CHOKEPOINT_QUERIES {
            let plan = query(q);
            let disk = Arc::new(SpillDisk::new(SpillConfig::with_capacity(u64::MAX)));
            let ctx = QueryContext::with_budget(budget).with_spill(disk);
            let (_, both) = run_priced(&plan, &raw, &serial, &QueryContext::default())?;
            let (_, pruned) = run_priced(&plan, &clustered, &pruning, &QueryContext::default())?;
            runs.push([
                both.materialize.scale(scale),
                both.fused.scale(scale),
                pruned.fused.scale(scale),
                run_governed(&plan, &raw, &serial, &ctx)?.1.scale(scale),
            ]);
        }
        let machines =
            [wimpi_hwsim::pi3b(), wimpi_hwsim::profile("op-e5").expect("profile exists")];
        let price = |gain: &dyn Fn(&HwProfile, &[WorkProfile; 4]) -> f64| -> Vec<Vec<f64>> {
            machines.iter().map(|hw| runs.iter().map(|r| gain(hw, r)).collect()).collect()
        };
        Ok(ExtensionsTable {
            measure_sf: self.measure_sf,
            queries: CHOKEPOINT_QUERIES.to_vec(),
            machines: machines.iter().map(|m| m.name.to_string()).collect(),
            speedup_2t: price(&|hw, [mat, ..]| wimpi_hwsim::modeled_speedup(hw, mat, 2)),
            speedup_4t: price(&|hw, [mat, ..]| wimpi_hwsim::modeled_speedup(hw, mat, 4)),
            fused_gain: price(&|hw, [mat, fus, ..]| wimpi_hwsim::modeled_fused_gain(hw, mat, fus)),
            prune_gain: price(&|hw, [_, _, pruned, _]| wimpi_hwsim::modeled_prune_gain(hw, pruned)),
            spill_penalty: price(&|hw, [.., spilled]| {
                wimpi_hwsim::modeled_spill_penalty(hw, spilled)
            }),
        })
    }

    /// Figure 4: the three execution strategies, single-threaded, SF 1, on
    /// op-e5 / op-gold / Pi 3B+.
    pub fn fig4(&self) -> Result<StrategyTable> {
        let cat = generate(self.measure_sf)?;
        let scale = 1.0 / self.measure_sf;
        let machines = ["op-e5", "op-gold", "pi3b+"];
        let hw: Vec<HwProfile> =
            machines.iter().map(|n| wimpi_hwsim::profile(n).expect("profile exists")).collect();
        let mut seconds =
            vec![vec![vec![0.0; STRATEGY_QUERIES.len()]; Paradigm::ALL.len()]; hw.len()];
        for (qi, &q) in STRATEGY_QUERIES.iter().enumerate() {
            for (pi, &paradigm) in Paradigm::ALL.iter().enumerate() {
                let r = wimpi_strategies::run(q, paradigm, &cat);
                let w = r.work.scale(scale);
                for (m, machine) in hw.iter().enumerate() {
                    seconds[m][pi][qi] = predict_single_core(machine, &w).total_s();
                }
            }
        }
        Ok(StrategyTable {
            queries: STRATEGY_QUERIES.to_vec(),
            machines: machines.iter().map(|s| s.to_string()).collect(),
            seconds,
        })
    }
}

/// Predicts all-core seconds, applying the Pi's memory model (the servers'
/// memory dwarfs any TPC-H working set here).
fn predicted_seconds(hw: &HwProfile, work: &WorkProfile, base_bytes: u64) -> f64 {
    let mut t = predict_all_cores(hw, work).total_s();
    if hw.name == "pi3b+" {
        let mem = MemoryModel::wimpi_node();
        match mem.evaluate(base_bytes, work) {
            Ok(penalty) => t += penalty,
            // Out of memory on a single Pi: the run is impossible; model it
            // as fully SD-card-fed (the paper simply could not run these).
            Err(_) => t += work.seq_bytes() as f64 / mem.sd_read_bps,
        }
    }
    t
}

fn query_scan_bytes(q: &QueryPlan, cat: &Catalog) -> Result<u64> {
    match q {
        QueryPlan::Single(p) => scan_bytes(p, cat).map_err(cluster_err),
        QueryPlan::TwoPhase { first, second, .. } => {
            let a = scan_bytes(first, cat).map_err(cluster_err)?;
            let b =
                scan_bytes(&second(wimpi_storage::Value::F64(0.0)), cat).map_err(cluster_err)?;
            Ok(a.max(b))
        }
    }
}

fn cluster_err(e: wimpi_cluster::ClusterError) -> EngineError {
    match e {
        wimpi_cluster::ClusterError::Engine(e) => e,
        other => EngineError::Plan(other.to_string()),
    }
}

fn generate(sf: f64) -> Result<Catalog> {
    Generator::new(sf).generate_catalog().map_err(EngineError::Storage)
}

/// Figure 3: per-query slowdown of the Pi (SF 1) / WIMPI@24 (SF 10)
/// relative to each comparison point.
pub fn fig3(sf1: &SingleNodeTable, sf10: &DistributedTable) -> Vec<TextFigure> {
    let mut f1 = TextFigure::new("Fig 3 (left) — SF 1 speedup over pi3b+", "machine");
    f1.rows = sf1.profiles.iter().filter(|p| *p != "pi3b+").cloned().collect();
    for (c, q) in sf1.queries.iter().enumerate() {
        let pi = sf1.get("pi3b+", *q).expect("pi row present");
        f1.push_series(Series::new(
            format!("Q{q}"),
            sf1.profiles
                .iter()
                .zip(&sf1.seconds)
                .filter(|(p, _)| *p != "pi3b+")
                .map(|(_, row)| pi / row[c])
                .collect(),
        ));
    }
    let biggest = *sf10.cluster_sizes.last().expect("at least one size");
    let mut f2 =
        TextFigure::new(format!("Fig 3 (right) — SF 10 speedup over WIMPI x{biggest}"), "machine");
    f2.rows = sf10.servers.profiles.clone();
    for (c, q) in sf10.queries.iter().enumerate() {
        let w = sf10.wimpi(biggest, *q).expect("largest cluster present");
        f2.push_series(Series::new(
            format!("Q{q}"),
            sf10.servers.seconds.iter().map(|row| w / row[c]).collect(),
        ));
    }
    vec![f1, f2]
}

/// Figure 5: MSRP-normalized improvement of the Pi (SF 1) and of WIMPI per
/// cluster size (SF 10) over the on-premises servers.
pub fn fig5(sf1: &SingleNodeTable, sf10: &DistributedTable) -> Vec<TextFigure> {
    // The paper's SF 1 comparison prices the single Pi at its bare $35 MSRP
    // (peripherals enter only the cluster costing, §II-B).
    let pi_msrp = msrp(&wimpi_hwsim::pi3b()).expect("pi msrp");
    let mut f1 = TextFigure::new(
        "Fig 5 (left) — SF 1 MSRP-normalized improvement of pi3b+ (>1 favours the Pi)",
        "query",
    );
    f1.rows = sf1.queries.iter().map(|q| format!("Q{q}")).collect();
    for server in ["op-e5", "op-gold"] {
        let hw = wimpi_hwsim::profile(server).expect("profile exists");
        let m = msrp(&hw).expect("on-prem MSRP known");
        f1.push_series(Series::new(
            format!("vs {server}"),
            sf1.queries
                .iter()
                .map(|&q| {
                    improvement(
                        sf1.get("pi3b+", q).expect("pi present"),
                        pi_msrp,
                        sf1.get(server, q).expect("server present"),
                        m,
                    )
                })
                .collect(),
        ));
    }
    let mut out = vec![f1];
    for server in ["op-e5", "op-gold"] {
        let hw = wimpi_hwsim::profile(server).expect("profile exists");
        let m = msrp(&hw).expect("on-prem MSRP known");
        let mut f = TextFigure::new(
            format!("Fig 5 (right) — SF 10 MSRP-normalized improvement of WIMPI vs {server}"),
            "nodes",
        );
        f.rows = sf10.cluster_sizes.iter().map(|n| format!("x{n}")).collect();
        for (c, q) in sf10.queries.iter().enumerate() {
            f.push_series(Series::new(
                format!("Q{q}"),
                sf10.cluster_sizes
                    .iter()
                    .zip(&sf10.wimpi_seconds)
                    .map(|(&n, row)| {
                        improvement(
                            row[c],
                            wimpi_msrp(n),
                            sf10.servers.get(server, *q).expect("server present"),
                            m,
                        )
                    })
                    .collect(),
            ));
        }
        out.push(f);
    }
    out
}

/// Figure 6: hourly-cost-normalized improvement over the cloud instances.
pub fn fig6(sf1: &SingleNodeTable, sf10: &DistributedTable) -> Vec<TextFigure> {
    let clouds: Vec<HwProfile> =
        all_profiles().into_iter().filter(|p| p.category == wimpi_hwsim::Category::Cloud).collect();
    let mut f1 =
        TextFigure::new("Fig 6 (left) — SF 1 hourly-cost-normalized improvement of pi3b+", "query");
    f1.rows = sf1.queries.iter().map(|q| format!("Q{q}")).collect();
    f1.precision = 0;
    for cloud in &clouds {
        let hourly = cloud.hourly_usd.expect("cloud pricing known");
        f1.push_series(Series::new(
            format!("vs {}", cloud.name),
            sf1.queries
                .iter()
                .map(|&q| {
                    improvement(
                        sf1.get("pi3b+", q).expect("pi present"),
                        wimpi_hourly(1),
                        sf1.get(cloud.name, q).expect("cloud present"),
                        hourly,
                    )
                })
                .collect(),
        ));
    }
    // SF 10: improvement vs the *cheapest-run* cloud instance per query.
    let mut f2 = TextFigure::new(
        "Fig 6 (right) — SF 10 hourly-cost improvement of WIMPI vs best cloud instance",
        "nodes",
    );
    f2.rows = sf10.cluster_sizes.iter().map(|n| format!("x{n}")).collect();
    f2.precision = 1;
    for (c, q) in sf10.queries.iter().enumerate() {
        let best_cloud: f64 = clouds
            .iter()
            .map(|cl| {
                sf10.servers.get(cl.name, *q).expect("cloud present")
                    * cl.hourly_usd.expect("cloud pricing known")
            })
            .fold(f64::INFINITY, f64::min);
        f2.push_series(Series::new(
            format!("Q{q}"),
            sf10.cluster_sizes
                .iter()
                .zip(&sf10.wimpi_seconds)
                .map(|(&n, row)| best_cloud / (row[c] * wimpi_hourly(n)))
                .collect(),
        ));
    }
    vec![f1, f2]
}

/// Figure 7: TDP-energy-normalized improvement over the on-premises servers,
/// both sockets counted as in Figure 5's MSRP.
pub fn fig7(sf1: &SingleNodeTable, sf10: &DistributedTable) -> Vec<TextFigure> {
    let mut f1 =
        TextFigure::new("Fig 7 (left) — SF 1 energy-normalized improvement of pi3b+", "query");
    f1.rows = sf1.queries.iter().map(|q| format!("Q{q}")).collect();
    for server in ["op-e5", "op-gold"] {
        let hw = wimpi_hwsim::profile(server).expect("profile exists");
        let w = power_w(&hw).expect("on-prem TDP known");
        f1.push_series(Series::new(
            format!("vs {server}"),
            sf1.queries
                .iter()
                .map(|&q| {
                    improvement(
                        sf1.get("pi3b+", q).expect("pi present"),
                        wimpi_power_w(1),
                        sf1.get(server, q).expect("server present"),
                        w,
                    )
                })
                .collect(),
        ));
    }
    let mut f2 = TextFigure::new(
        "Fig 7 (right) — SF 10 energy-normalized improvement of WIMPI vs op-e5",
        "nodes",
    );
    f2.rows = sf10.cluster_sizes.iter().map(|n| format!("x{n}")).collect();
    let e5_w = power_w(&wimpi_hwsim::profile("op-e5").expect("profile exists")).expect("TDP known");
    for (c, q) in sf10.queries.iter().enumerate() {
        f2.push_series(Series::new(
            format!("Q{q}"),
            sf10.cluster_sizes
                .iter()
                .zip(&sf10.wimpi_seconds)
                .map(|(&n, row)| {
                    improvement(
                        row[c],
                        wimpi_power_w(n),
                        sf10.servers.get("op-e5", *q).expect("server present"),
                        e5_w,
                    )
                })
                .collect(),
        ));
    }
    vec![f1, f2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_machines() {
        let f = Study::table1();
        assert_eq!(f.rows.len(), 10);
        let text = f.render();
        assert!(text.contains("pi3b+"));
        assert!(text.contains("op-gold"));
    }

    #[test]
    fn fig2_produces_four_panels() {
        let figs = Study::fig2();
        assert_eq!(figs.len(), 4);
        for f in &figs {
            assert_eq!(f.rows.len(), 10);
            assert_eq!(f.series.len(), 2);
        }
    }

    #[test]
    fn table2_small_sf_has_expected_shape() {
        let t = Study::new(0.01).table2().unwrap();
        assert_eq!(t.queries.len(), 22);
        assert_eq!(t.profiles.len(), 10);
        // The Pi is the slowest machine on Q1 (memory-bound).
        let pi = t.get("pi3b+", 1).unwrap();
        for p in &t.profiles {
            if p != "pi3b+" {
                assert!(t.get(p, 1).unwrap() < pi, "{p} must beat the Pi on Q1");
            }
        }
    }

    #[test]
    fn fig3_fig5_fig6_fig7_render() {
        let study = Study::new(0.01);
        let sf1 = study.table2().unwrap();
        let sf10 = study.table3(&[2, 4]).unwrap();
        assert_eq!(fig3(&sf1, &sf10).len(), 2);
        assert_eq!(fig5(&sf1, &sf10).len(), 3);
        assert_eq!(fig6(&sf1, &sf10).len(), 2);
        assert_eq!(fig7(&sf1, &sf10).len(), 2);
        for f in fig5(&sf1, &sf10) {
            assert!(!f.render().is_empty());
        }
    }

    #[test]
    fn availability_prices_failures_above_baseline() {
        let t = Study::new(0.01).availability(&[3, 4], &[0, 1, 2]).unwrap();
        assert_eq!(t.cluster_sizes, vec![3, 4]);
        for (r, _) in t.cluster_sizes.iter().enumerate() {
            assert!((t.overhead[r][0] - 1.0).abs() < 1e-9, "0 kills = baseline");
            assert_eq!(t.recovery_seconds[r][0], 0.0);
            assert!(t.overhead[r][1] > 1.0, "1 kill must cost time: {}", t.overhead[r][1]);
            assert!(t.recovery_seconds[r][1] > 0.0);
            // Answers stay complete: recovery, not degradation.
            assert_eq!(t.coverage[r][1], 1.0);
            assert!(t.overhead[r][2] >= t.overhead[r][1], "more kills cannot be cheaper");
        }
        let figs = t.to_figures();
        assert_eq!(figs.len(), 2);
        assert!(!figs[0].render().is_empty());
    }

    #[test]
    fn extensions_gains_are_finite_simulated_and_favour_the_pi() {
        let study = Study::new(0.01);
        let t = study.extensions().unwrap();
        assert_eq!(t.queries, CHOKEPOINT_QUERIES);
        assert_eq!(t.machines, ["pi3b+", "op-e5"]);
        let (pi, e5) = (0, 1);
        for table in [&t.speedup_2t, &t.speedup_4t, &t.fused_gain, &t.prune_gain, &t.spill_penalty]
        {
            assert_eq!(table.len(), 2);
            for row in table {
                assert_eq!(row.len(), 8);
                assert!(row.iter().all(|g| g.is_finite() && *g > 0.0), "{row:?}");
            }
        }
        // Fusion erases write traffic: never a loss on the one-channel Pi.
        // On compute-bound op-e5 its extra per-row ops may cost Q3 a hair.
        assert!(t.fused_gain[pi].iter().all(|&g| g >= 1.0), "{:?}", t.fused_gain[pi]);
        assert!(t.fused_gain[e5].iter().all(|&g| g > 0.99), "{:?}", t.fused_gain[e5]);
        // Q6's shipdate window is a sliver of the clustered domain: the
        // skipped bytes are worth more where bandwidth is scarce.
        let q6 = t.queries.iter().position(|&q| q == 6).unwrap();
        assert!(t.prune_gain[pi][q6] > 1.0, "Q6 must skip morsels: {:?}", t.prune_gain[pi]);
        assert!(t.prune_gain[pi][q6] >= t.prune_gain[e5][q6]);
        assert!(t.spill_penalty.iter().flatten().all(|&p| p >= 1.0));
        assert!(t.spill_penalty[pi].iter().any(|&p| p > 1.0), "some query must reach the disk");
        // Simulated time only — no host clock in it.
        assert_eq!(study.extensions().unwrap(), t);
        assert_eq!(t.to_figures().len(), 4);
    }

    #[test]
    fn fig4_orders_paradigms_correctly() {
        let t = Study::new(0.01).fig4().unwrap();
        assert_eq!(t.machines.len(), 3);
        let figs = t.to_figures();
        assert_eq!(figs.len(), 3);
        // Access-aware beats data-centric on the fast server for the pure
        // scan query Q6 (paper §II-D3 / the Swole result).
        let qi = t.queries.iter().position(|&q| q == 6).unwrap();
        let ope5 = &t.seconds[0];
        assert!(
            ope5[2][qi] < ope5[0][qi],
            "access-aware {} must beat data-centric {} on op-e5",
            ope5[2][qi],
            ope5[0][qi]
        );
        // Compiled-fused is priced as hybrid minus the staged write stream
        // and the per-batch dispatch, so it can never lose to hybrid…
        for (m, name) in t.machines.iter().enumerate() {
            for q in 0..t.queries.len() {
                assert!(
                    t.seconds[m][3][q] <= t.seconds[m][1][q],
                    "fused must not lose to hybrid on {name} Q{}",
                    t.queries[q]
                );
            }
        }
        // …and it changes the Pi-vs-Xeon story: on the Xeon, access-aware's
        // predicate pullups keep winning the scan-heavy queries (extra
        // column passes are free when bandwidth is abundant), but on the
        // single-DDR2-channel Pi those passes are exactly what hurts —
        // compiled-fused, which adds zero byte traffic over the minimum,
        // becomes the best paradigm on strictly more queries there.
        let fused_wins = |m: usize| {
            (0..t.queries.len())
                .filter(|&q| (0..3).all(|p| t.seconds[m][3][q] < t.seconds[m][p][q]))
                .count()
        };
        let pi_idx = t.machines.iter().position(|n| n == "pi3b+").unwrap();
        assert!(
            fused_wins(pi_idx) > fused_wins(0),
            "fusion should dominate on the bandwidth-starved Pi: {} wins there vs {} on op-e5",
            fused_wins(pi_idx),
            fused_wins(0)
        );
    }
}
