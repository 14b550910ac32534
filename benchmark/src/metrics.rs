//! Metric names and units — the code's copy of the lists in
//! `BENCHMARK.json` (a test keeps the two equal) — and the result line.

/// Unit of simulated seconds. Not `s`: these values are computed by the
/// hardware model from exact work counts, so they repeat exactly, which a
/// host time never does.
pub const SIM_S: &str = "sim_s";

/// The eight end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_qps", "1/s"),
    ("op_geomean_s", "s"),
    ("op_max_s", "s"),
    ("latency_tail10_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_pi3b_s", SIM_S),
];

/// The per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 59] = [
    // Set-up layers: what `setup_s` is made of.
    ("tpch.gen.s", "s"),
    ("tpch.gen.lineitem_rows_per_s", "rows/s"),
    ("tpch.cluster_by.s", "s"),
    ("storage.seal_integrity.s", "s"),
    ("storage.seal_zone_maps.s", "s"),
    ("storage.catalog_heap_mb", "MB"),
    ("cluster.build.s", "s"),
    // Operator self times over the workload's traced pass.
    ("engine.exec.scan.self_s", "s"),
    ("engine.exec.filter.self_s", "s"),
    ("engine.exec.eval.self_s", "s"),
    ("engine.exec.join_build.self_s", "s"),
    ("engine.exec.join_probe.self_s", "s"),
    ("engine.exec.aggregate.self_s", "s"),
    ("engine.exec.sort.self_s", "s"),
    ("engine.exec.other.self_s", "s"),
    // Bytecode kernels, pruning and the morsel pool.
    ("engine.exec.bytecode.cmp_const.rows_per_s", "rows/s"),
    ("engine.exec.bytecode.dict.rows_per_s", "rows/s"),
    ("engine.exec.bytecode.in_fixed.rows_per_s", "rows/s"),
    ("engine.exec.bytecode.range_fixed.rows_per_s", "rows/s"),
    ("engine.exec.bytecode.eval_arith.rows_per_s", "rows/s"),
    ("engine.exec.prune.skip_ratio", "ratio"),
    ("engine.exec.parallel.speedup_t2", "ratio"),
    // Exact work counts of the traced pass.
    ("engine.exec.rows_in", "count"),
    ("engine.exec.cpu_ops", "count"),
    ("engine.exec.seq_read_bytes", "count"),
    ("engine.exec.seq_write_bytes", "count"),
    ("engine.exec.rand_accesses", "count"),
    ("engine.exec.hash_bytes", "count"),
    ("engine.exec.pruned_morsels", "count"),
    ("engine.exec.pruned_bytes", "count"),
    ("engine.exec.peak_bytes", "count"),
    // Governor and spill tier.
    ("engine.governor.grace_fallbacks", "count"),
    ("engine.governor.high_water_mb", "MB"),
    ("engine.governor.exhausted_ops", "count"),
    ("storage.spill.spilled_mb", "MB"),
    ("storage.spill.chunks_written", "count"),
    ("storage.spill.chunk_reads", "count"),
    ("storage.spill.read_retries", "count"),
    ("storage.spill.sim_s", SIM_S),
    // SQL front end, optimizer and the coordinator's caches.
    ("sql.lex.us", "us"),
    ("sql.parse.us", "us"),
    ("sql.plan.us", "us"),
    ("engine.optimizer.optimize.us", "us"),
    ("cluster.coordinator.hot.p50_s", "s"),
    ("cluster.coordinator.result_cache.hit_ratio", "ratio"),
    ("cluster.coordinator.plan_cache.hit_ratio", "ratio"),
    // Distributed execution and admission.
    ("cluster.distribute.us", "us"),
    ("cluster.run.host_s", "s"),
    ("cluster.run.sim_s", SIM_S),
    ("cluster.run.bytes_shipped", "count"),
    ("cluster.coordinator.miss_overhead.p50_s", "s"),
    ("cluster.coordinator.subruns", "count"),
    ("engine.service.wait.mean_s", "s"),
    ("engine.service.shed", "count"),
    // Hardware model.
    ("hwsim.predict.us", "us"),
    ("hwsim.table2_pi3b.geomean_ratio", "ratio"),
    ("hwsim.table2_pi3b.mean_abs_log_err", "ratio"),
    ("hwsim.table3_wimpi24.mean_abs_log_err", "ratio"),
    // Tracing itself.
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Metric values collected during one run, checked against one of the lists
/// above before they are printed.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.iter().all(|(n, _)| *n != name), "metric {name} reported twice");
        self.0.push((name, value));
    }

    /// The values in the order of `names`, which they must match one to one.
    pub fn in_order(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        assert_eq!(self.0.len(), names.len(), "wrong number of metrics reported");
        names
            .iter()
            .map(|&(name, unit)| {
                let (_, value) = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not reported"));
                (name, *value, unit)
            })
            .collect()
    }
}

/// The result line the contract asks for, as the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
