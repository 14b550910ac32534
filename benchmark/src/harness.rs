//! What the four workloads share: the shape of a run (three builds, warm-up,
//! measured passes, verification), per-op records, and the end-to-end
//! metrics computed from them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use wimpi_engine::{EngineConfig, EngineError, QueryContext, Relation, WorkProfile};
use wimpi_hwsim::{pi3b, predict};
use wimpi_queries::{run_governed, run_traced_governed, QueryPlan};
use wimpi_storage::{Catalog, SpillConfig, SpillCounters, SpillDisk};

use crate::layers::{Parts, ServeLayers};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::stats::{geomean, median, min, tail_mean};
use crate::trace::{Recorder, NONE};
use crate::verify::{fingerprint, Expected, Golden};

/// Command-line parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Nominal length of the measured window on the reference machine. The
    /// pass count is computed from it and then fixed, so two runs of one
    /// command line do exactly the same work.
    pub seconds: u64,
    /// SF 0.01 and three measured passes, for the crate's own tests.
    pub smoke: bool,
}

/// The run length `BENCHMARK.json` asks for, which the pass counts in each
/// workload's `size` are stated for.
pub const REFERENCE_SECONDS: u64 = 15;

/// How big a workload's run is: data scale and pass counts.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub sf: f64,
    pub warm_passes: usize,
    pub measured_passes: usize,
    /// Whether the data is the data the golden files were made from.
    pub golden: bool,
}

impl Size {
    /// `passes` measured passes in a run of [`REFERENCE_SECONDS`], scaled to
    /// the run length asked for but never fewer than `floor` (which keeps a
    /// hundred timed ops after the slowest third is dropped).
    pub fn scaled(p: &Params, sf: f64, warm: usize, passes: usize, floor: usize) -> Size {
        if p.smoke {
            return Size { sf: 0.01, warm_passes: 1, measured_passes: 3, golden: false };
        }
        let passes = (passes as u64 * p.seconds).div_ceil(REFERENCE_SECONDS) as usize;
        Size { sf, warm_passes: warm, measured_passes: passes.max(floor), golden: true }
    }

    /// The fastest two thirds of the measured passes are kept: the timing
    /// statistics are computed from them alone. This host slows down for
    /// seconds at a time for reasons outside the process; a pass that such
    /// an episode hit says nothing about the code, and there is no way to
    /// tell such a pass from outside other than that it was slow.
    pub fn kept_passes(&self) -> usize {
        (2 * self.measured_passes).div_ceil(3)
    }
}

/// Governor figures of one op's [`QueryContext`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Governed {
    pub fallbacks: u64,
    pub high_water: u64,
    pub exhausted: bool,
}

impl Governed {
    pub fn of(ctx: &QueryContext) -> Self {
        Governed {
            fallbacks: ctx.fallbacks() as u64,
            high_water: ctx.high_water(),
            exhausted: false,
        }
    }
}

/// One executed op.
pub struct Op {
    pub class: usize,
    /// Key of the answer in the golden file (the class name unless the op's
    /// literals vary within a class).
    pub key: String,
    /// Host seconds the caller waited.
    pub secs: f64,
    /// Simulated Pi 3B+ seconds of the same work.
    pub sim_s: f64,
    /// `None` when the op returned an error.
    pub answer: Option<Relation>,
    /// Set by an error or by verification.
    pub failed: bool,
    pub work: WorkProfile,
    pub governed: Governed,
    pub spill: SpillCounters,
    pub spill_sim_s: f64,
}

impl Op {
    pub fn new(class: usize, key: String, secs: f64) -> Op {
        Op {
            class,
            key,
            secs,
            sim_s: 0.0,
            answer: None,
            failed: true,
            work: WorkProfile::default(),
            governed: Governed::default(),
            spill: SpillCounters::default(),
            spill_sim_s: 0.0,
        }
    }
}

/// One pass over a workload's ops.
pub struct Pass {
    pub wall_s: f64,
    pub ops: Vec<Op>,
}

/// A workload: state that is built three times, and passes over it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The committed golden answers (`golden/<name>.tsv`).
    const GOLDEN: &'static str;

    fn size(p: &Params) -> Size;
    /// Builds the whole state the passes need, through the calls a user
    /// would make. This is what `setup_s` times.
    fn build(size: &Size) -> Self;
    fn classes(&self) -> Vec<String>;
    /// Runs pass number `index` (warm-up passes included in the numbering)
    /// in the order the seed gives it.
    fn pass(&self, index: usize, seed: u64, rec: &Recorder) -> Pass;
    /// Cross-checks that need more than the golden file; marks ops failed
    /// and returns what went wrong. Runs after the timed window.
    fn cross_check(&self, passes: &mut [Pass]) -> Vec<String>;

    /// Whether the traced run builds its 24-node cluster at this workload's
    /// scale (the others get a small probe cluster).
    const OWN_CLUSTER: bool = false;
    /// Whether ops run under memory budgets, and so may degrade and spill.
    const BUDGETED: bool = false;
    /// The state over the parts a traced run builds stage by stage.
    fn from_parts(parts: &Parts, size: &Size) -> Self;
    /// One pass with the recorder on, and what the per-layer metrics need
    /// from it beyond the spans.
    fn traced_pass(&self, index: usize, seed: u64, rec: &Recorder) -> TracedPass {
        let pass = self.pass(index, seed, rec);
        let mut work = WorkProfile::default();
        pass.ops.iter().for_each(|op| work.merge(&op.work));
        let high_water = pass.ops.iter().map(|op| op.governed.high_water).max().unwrap_or(0);
        TracedPass { pass, work, high_water, serve: None }
    }
}

/// A traced pass: the ops, the engine work behind them, the largest
/// per-query memory high-water mark, and the serving-layer figures if the
/// pass went through the coordinator.
pub struct TracedPass {
    pub pass: Pass,
    pub work: WorkProfile,
    pub high_water: u64,
    pub serve: Option<ServeLayers>,
}

/// Times one engine query. Untraced it is exactly `run_governed`; traced it
/// runs `run_traced_governed` inside an `engine.run` span, validates the
/// operator tree with the repo's trace checker and grafts it under the span.
pub fn engine_op(
    q: &QueryPlan,
    catalog: &Catalog,
    cfg: &EngineConfig,
    ctx: &QueryContext,
    rec: &Recorder,
    parent: u32,
    request: u64,
) -> (f64, wimpi_engine::Result<(Relation, WorkProfile)>) {
    if !rec.enabled() {
        let started = Instant::now();
        let out = run_governed(q, catalog, cfg, ctx);
        return (started.elapsed().as_secs_f64(), out);
    }
    let id = rec.open(parent, "engine.run", request);
    let started = Instant::now();
    let out = run_traced_governed(q, catalog, cfg, ctx);
    let secs = started.elapsed().as_secs_f64();
    rec.close(id);
    let out = out.map(|(rel, work, span)| {
        wimpi_core::validate_trace_json(&span.to_json())
            .unwrap_or_else(|e| panic!("engine trace of request {request} is invalid: {e}"));
        rec.graft(id, request, rec.start_of(id), &span);
        (rel, work)
    });
    (secs, out)
}

/// One op of an engine workload: a query and, for `budget_ladder`, the
/// memory budget it runs under (with a fault-free spill disk attached).
pub struct Cell<'a> {
    pub query: &'a QueryPlan,
    pub budget: Option<u64>,
}

/// Capacity of the spill disk a budgeted cell gets: never the constraint.
const SPILL_DISK_BYTES: u64 = 1 << 30;

/// One pass of a single-node workload: every cell once, in the order the
/// seed gives this pass, each under a fresh [`QueryContext`].
pub fn engine_pass(
    index: usize,
    seed: u64,
    rec: &Recorder,
    classes: &[String],
    cells: &[Cell],
    catalog: &Catalog,
    cfg: &EngineConfig,
) -> Pass {
    let order = Rng::for_stream(seed, index as u64).permutation(cells.len());
    let root = rec.open(NONE, "pass", index as u64);
    let started = Instant::now();
    let mut ops = Vec::with_capacity(order.len());
    for (slot, class) in order.into_iter().enumerate() {
        let request = (index * 1000 + slot) as u64;
        let cell = &cells[class];
        let (ctx, disk) = match cell.budget {
            Some(budget) => {
                let disk = Arc::new(SpillDisk::new(SpillConfig::with_capacity(SPILL_DISK_BYTES)));
                (QueryContext::with_budget(budget).with_spill(Arc::clone(&disk)), Some(disk))
            }
            None => (QueryContext::default(), None),
        };
        let op_span = rec.open(root, &classes[class], request);
        let (secs, out) = engine_op(cell.query, catalog, cfg, &ctx, rec, op_span, request);
        rec.close(op_span);
        let mut op = Op::new(class, classes[class].clone(), secs);
        op.governed = Governed::of(&ctx);
        if let Some(disk) = &disk {
            op.spill = disk.counters();
            op.spill_sim_s = disk.sim_seconds();
        }
        match out {
            Ok((answer, work)) => {
                op.sim_s = sim_seconds(&work) + op.spill_sim_s;
                op.work = work;
                op.answer = Some(answer);
                op.failed = false;
            }
            Err(EngineError::ResourceExhausted { .. }) => op.governed.exhausted = true,
            Err(_) => {}
        }
        ops.push(op);
    }
    let wall_s = started.elapsed().as_secs_f64();
    rec.close(root);
    Pass { wall_s, ops }
}

/// Simulated seconds of `work` on one Pi 3B+ with its four threads.
pub fn sim_seconds(work: &WorkProfile) -> f64 {
    predict(&pi3b(), work, 4).total_s()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line parses");
    kb / 1024.0
}

/// Builds the state three times in a row, dropping each before the next,
/// and keeps the last. Returns it with the three build times.
pub fn build_three_times<W: Workload>(size: &Size) -> (W, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..3 {
        drop(state.take());
        let started = Instant::now();
        state = Some(W::build(size));
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("three builds ran"), times)
}

/// Compares every answer with the golden file, marking mismatches failed.
/// Keys the golden file does not hold are reported too, unless `smoke`
/// (whose data is not the golden data).
pub fn check_golden(golden: &Golden, passes: &mut [Pass]) -> Vec<String> {
    let mut problems = Vec::new();
    for op in passes.iter_mut().flat_map(|p| p.ops.iter_mut()) {
        let Some(answer) = &op.answer else { continue };
        let got: Expected = (answer.num_rows(), fingerprint(answer));
        match golden.get(&op.key) {
            Some(want) if want == got => {}
            Some(want) => {
                op.failed = true;
                problems.push(format!("{}: got {got:x?}, golden {want:x?}", op.key));
            }
            None => {
                op.failed = true;
                problems.push(format!("{}: no golden answer", op.key));
            }
        }
    }
    problems.sort();
    problems.dedup();
    problems
}

/// The answers of a run by golden key (for `--write-golden`).
pub fn answers_by_key(passes: &[Pass]) -> BTreeMap<String, Expected> {
    passes
        .iter()
        .flat_map(|p| &p.ops)
        .filter_map(|op| {
            op.answer.as_ref().map(|a| (op.key.clone(), (a.num_rows(), fingerprint(a))))
        })
        .collect()
}

/// The end-to-end metrics of a run. Timing statistics use the `kept`
/// fastest passes; the simulated time and the counts use them all.
pub fn end_to_end(
    classes: usize,
    setup_times: &[f64],
    passes: &[Pass],
    kept: usize,
    peak_rss_mb: f64,
    m: &mut Metrics,
) {
    let mut fastest: Vec<&Pass> = passes.iter().collect();
    fastest.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    fastest.truncate(kept);
    let ops = || fastest.iter().flat_map(|p| &p.ops);
    let wall: Vec<f64> = fastest.iter().map(|p| p.wall_s).collect();
    let verified = ops().filter(|op| !op.failed).count();
    // The mean latency of each kept pass's slowest tenth, not a percentile:
    // a percentile is one op of one class (the p90 of the 22 queries is
    // always Q13's time), and a single class spreads twice as much from run
    // to run as a whole pass does. Pooling the passes first is worse still,
    // an extreme order statistic of that class's few samples.
    let tail10: Vec<f64> = fastest
        .iter()
        .map(|p| tail_mean(&p.ops.iter().map(|op| op.secs).collect::<Vec<_>>(), 0.1))
        .collect();
    let class_medians: Vec<f64> = (0..classes)
        .map(|c| median(&ops().filter(|op| op.class == c).map(|op| op.secs).collect::<Vec<_>>()))
        .collect();
    // Summed in execution order: the seed permutes that order, so runs with
    // different seeds agree to rounding and runs with one seed agree exactly.
    let sim: f64 = passes.iter().flat_map(|p| &p.ops).map(|op| op.sim_s).sum();

    m.put("setup_s", min(setup_times));
    m.put("wall_s", median(&wall));
    m.put("throughput_qps", verified as f64 / wall.iter().sum::<f64>());
    m.put("op_geomean_s", geomean(&class_medians));
    m.put("op_max_s", class_medians.iter().copied().fold(0.0, f64::max));
    m.put("latency_tail10_s", median(&tail10));
    m.put("peak_rss_mb", peak_rss_mb);
    m.put("sim_pi3b_s", sim / passes.len() as f64);
}
