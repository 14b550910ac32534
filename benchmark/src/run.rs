//! One run of one workload: untraced for the end-to-end metrics, traced for
//! the per-layer ones.

use std::path::PathBuf;

use crate::harness::{
    answers_by_key, build_three_times, check_golden, end_to_end, peak_rss_mb, Params, Pass,
    TracedPass, Workload,
};
use crate::layers::{self, build_parts, PROBE_SF};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use crate::verify::Golden;
use crate::workloads::{budget::BudgetLadder, scan_fused::ScanFused, serve::Serve, tpch22::Tpch22};

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] =
    ["tpch22_serial", "scan_fused_t2", "budget_ladder", "wimpi24_serve"];

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// What verification found wrong, and other remarks for the reader.
    pub notes: Vec<String>,
    /// The span log of a traced run, for `out/trace_<workload>.json`.
    pub trace: Option<String>,
}

/// Where the crate lives in this checkout (golden files, trace output).
pub fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn run(workload: &str, p: &Params, trace: bool, write_golden: bool) -> Outcome {
    fn one<W: Workload>(p: &Params, trace: bool, write_golden: bool) -> Outcome {
        if trace {
            traced::<W>(p)
        } else {
            untraced::<W>(p, write_golden)
        }
    }
    match workload {
        "tpch22_serial" => one::<Tpch22>(p, trace, write_golden),
        "scan_fused_t2" => one::<ScanFused>(p, trace, write_golden),
        "budget_ladder" => one::<BudgetLadder>(p, trace, write_golden),
        "wimpi24_serve" => one::<Serve>(p, trace, write_golden),
        _ => panic!("unknown workload {workload:?}; one of {WORKLOADS:?}"),
    }
}

/// Verifies every measured answer; returns the problems found.
fn verify<W: Workload>(state: &W, golden: bool, passes: &mut [Pass]) -> Vec<String> {
    let mut problems: Vec<String> = passes
        .iter()
        .flat_map(|p| &p.ops)
        .filter(|op| op.failed)
        .map(|op| format!("{}: the op failed", op.key))
        .collect();
    if golden {
        problems.extend(check_golden(&Golden::parse(W::GOLDEN), passes));
    }
    problems.extend(state.cross_check(passes));
    problems
}

fn untraced<W: Workload>(p: &Params, write_golden: bool) -> Outcome {
    let size = W::size(p);
    let (state, setup_times) = build_three_times::<W>(&size);
    let rec = Recorder::off();
    // The warm-up answers stay alive like the measured ones. Dropping them
    // lets the allocator trim the heap, and the passes after that run up to
    // 40 % slower for as long as it takes the heap to grow back.
    let _warm: Vec<Pass> = (0..size.warm_passes).map(|i| state.pass(i, p.seed, &rec)).collect();
    let mut passes: Vec<Pass> =
        (0..size.measured_passes).map(|i| state.pass(size.warm_passes + i, p.seed, &rec)).collect();
    // Before verification, which builds reference data of its own.
    let rss = peak_rss_mb();

    if write_golden {
        let path = crate_dir().join("golden").join(format!("{}.tsv", W::NAME));
        std::fs::write(&path, Golden::render(&answers_by_key(&passes)))
            .expect("golden file writes");
    }
    let notes = verify(&state, size.golden && !write_golden, &mut passes);
    let mut m = Metrics::default();
    end_to_end(state.classes().len(), &setup_times, &passes, size.kept_passes(), rss, &mut m);
    let attempted = passes.iter().map(|p| p.ops.len()).sum();
    let failed = passes.iter().flat_map(|p| &p.ops).filter(|op| op.failed).count();
    Outcome {
        correct: failed == 0 && notes.is_empty(),
        attempted,
        failed,
        metrics: m.in_order(&END_TO_END),
        notes,
        trace: None,
    }
}

/// The traced run: the state built stage by stage, one untraced and one
/// traced pass, then the layer probes. Its end-to-end numbers are not
/// reported; its pass walls only give the tracing overhead.
fn traced<W: Workload>(p: &Params) -> Outcome {
    let size = W::size(p);
    let rec = Recorder::on();
    let mut m = Metrics::default();
    let cluster_sf = if W::OWN_CLUSTER { size.sf } else { PROBE_SF.min(size.sf) };
    let parts = build_parts(size.sf, cluster_sf, &rec, &mut m);
    let state = W::from_parts(&parts, &size);

    let off = Recorder::off();
    let _warm: Vec<Pass> = (0..size.warm_passes).map(|i| state.pass(i, p.seed, &off)).collect();
    let untraced = state.pass(size.warm_passes, p.seed, &off);
    let TracedPass { pass, work, high_water, serve } =
        state.traced_pass(size.warm_passes + 1, p.seed, &rec);
    m.put("obs.trace_overhead_ratio", pass.wall_s / untraced.wall_s);

    // Operator self times: only the workload's own spans, so before any
    // probe adds engine spans of its own.
    let self_s = rec.self_seconds();
    for (layer, name) in [
        ("engine.exec.scan", "engine.exec.scan.self_s"),
        ("engine.exec.filter", "engine.exec.filter.self_s"),
        ("engine.exec.eval", "engine.exec.eval.self_s"),
        ("engine.exec.join_build", "engine.exec.join_build.self_s"),
        ("engine.exec.join_probe", "engine.exec.join_probe.self_s"),
        ("engine.exec.aggregate", "engine.exec.aggregate.self_s"),
        ("engine.exec.sort", "engine.exec.sort.self_s"),
        ("engine.exec.other", "engine.exec.other.self_s"),
    ] {
        m.put(name, self_s.get(layer).copied().unwrap_or(0.0));
    }
    m.put("engine.exec.rows_in", work.rows_in as f64);
    m.put("engine.exec.cpu_ops", work.cpu_ops as f64);
    m.put("engine.exec.seq_read_bytes", work.seq_read_bytes as f64);
    m.put("engine.exec.seq_write_bytes", work.seq_write_bytes as f64);
    m.put("engine.exec.rand_accesses", work.rand_accesses as f64);
    m.put("engine.exec.hash_bytes", work.hash_bytes as f64);
    m.put("engine.exec.pruned_morsels", work.pruned_morsels as f64);
    m.put("engine.exec.pruned_bytes", work.pruned_bytes as f64);
    m.put("engine.exec.peak_bytes", work.peak_bytes as f64);

    const MB: f64 = (1 << 20) as f64;
    let ops = || pass.ops.iter();
    m.put(
        "engine.governor.grace_fallbacks",
        ops().map(|op| op.governed.fallbacks).sum::<u64>() as f64,
    );
    m.put("engine.governor.high_water_mb", high_water as f64 / MB);
    m.put("engine.governor.exhausted_ops", ops().filter(|op| op.governed.exhausted).count() as f64);
    m.put(
        "storage.spill.spilled_mb",
        ops().map(|op| op.spill.spilled_bytes).sum::<u64>() as f64 / MB,
    );
    m.put(
        "storage.spill.chunks_written",
        ops().map(|op| op.spill.chunks_written).sum::<u64>() as f64,
    );
    m.put("storage.spill.chunk_reads", ops().map(|op| op.spill.chunk_reads).sum::<u64>() as f64);
    m.put("storage.spill.read_retries", ops().map(|op| op.spill.read_retries).sum::<u64>() as f64);
    m.put("storage.spill.sim_s", ops().map(|op| op.spill_sim_s).sum());

    // The serving layers: this workload's own pass, or a pass of the serving
    // workload on the probe cluster.
    let mut probe_failures = 0;
    match serve {
        Some(layers) => layers.report(&mut m),
        None => {
            let probe = Serve::over(parts.cluster.clone(), parts.cluster_sf);
            probe.pass(0, p.seed, &off);
            let traced = probe.traced_pass(1, p.seed, &rec);
            probe_failures = traced.pass.ops.iter().filter(|op| op.failed).count();
            traced.serve.expect("the serving workload reports its layers").report(&mut m);
        }
    }
    layers::bytecode_kernels(&parts.raw, &rec, &mut m);
    layers::fused_scan(&parts.clustered, &rec, &mut m);
    layers::sql_front_end(&parts.raw, &rec, &mut m);
    layers::hardware_model(&parts.raw, parts.sf, &rec, &mut m);

    let degraded = ops().any(|op| op.governed.fallbacks > 0 || op.spill.chunks_written > 0);
    let mut passes = [untraced, pass];
    let mut notes = verify(&state, size.golden, &mut passes);
    if let Err(e) = rec.check_roots(0.01) {
        notes.push(e);
    }
    if probe_failures > 0 {
        notes.push(format!("{probe_failures} ops of the serving probe failed"));
    }
    // Only `budget_ladder` sets budgets, so nothing else may degrade or spill.
    if degraded && !W::BUDGETED {
        notes.push("an op without a budget fell back to Grace partitioning or spilled".into());
    }
    let attempted = passes.iter().map(|p| p.ops.len()).sum();
    let failed = passes.iter().flat_map(|p| &p.ops).filter(|op| op.failed).count();
    Outcome {
        correct: failed == 0 && notes.is_empty(),
        attempted,
        failed,
        metrics: m.in_order(&PER_LAYER),
        notes,
        trace: Some(rec.to_json(W::NAME)),
    }
}
