//! Morsel-driven parallel execution: a small work-stealing pool over fixed
//! ~64K-row morsels (Leis et al., SIGMOD 2014), built on `std::thread::scope`
//! and per-worker crossbeam-style deques (implemented here with
//! `Mutex<VecDeque>` — the build environment cannot reach crates.io).
//!
//! ## Determinism contract
//!
//! Morsel boundaries come from [`morsel_ranges`] and depend only on the row
//! count and `morsel_rows` — never on the thread count. Workers race over
//! *which* morsel they execute, but every per-morsel result is a pure
//! function of its input range, and [`run_morsels`] returns results in
//! morsel-index order. Any reduction the caller performs over that ordered
//! vector (float sums included) is therefore bit-identical at 1, 2, or 64
//! threads. Changing `morsel_rows` may move float reduction boundaries;
//! changing `threads` never does.
//!
//! Work counters are charged once per kernel from global row counts (not
//! per-worker), so a parallel run reports exactly the serial totals; see
//! [`crate::stats::WorkProfile::merge`] for combining profiles that were
//! accumulated independently.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

pub use wimpi_storage::morsel::{morsel_ranges, DEFAULT_MORSEL_ROWS};

/// Which price list the work is charged in (DESIGN.md §13) — nothing else.
/// There is one execution: every expression runs through the same compiled
/// programs, every filter through the same per-morsel conjunct loop
/// (`exec::filter`), every aggregate through the same fold (`exec::aggregate`),
/// which folds the filters beneath it. No result bit, span or governor
/// decision depends on the price list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Column-at-a-time prices, MonetDB's (the execution style the paper
    /// benchmarks): a filter pays one pass per conjunct over the rows it
    /// examined and the gather of its survivors — also where an aggregate
    /// folded it — and an expression pays full materialization, one
    /// primitive per node streaming its operands in and its result out.
    #[default]
    Materialize,
    /// Morsel-at-a-time prices: conjuncts and expressions pay for the base
    /// columns they stream, and nothing is written but operator outputs.
    Fused,
}

impl Executor {
    /// The price list's name in `SET executor = …` and the shell's reports.
    pub fn label(self) -> &'static str {
        match self {
            Executor::Materialize => "materialize",
            Executor::Fused => "fused",
        }
    }
}

/// Execution-wide knobs for the morsel-driven engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for parallel kernels. `1` runs every kernel inline on
    /// the calling thread — byte-for-byte today's serial engine.
    pub threads: usize,
    /// Rows per morsel. Fixed boundaries are what make parallel runs
    /// bit-exact with serial ones; see the module docs before changing this
    /// mid-comparison.
    pub morsel_rows: usize,
    /// Verify sealed [`IntegrityManifest`](wimpi_storage::IntegrityManifest)
    /// checksums on every scanned column chunk, raising a typed
    /// [`EngineError::Integrity`](crate::EngineError::Integrity) on the
    /// first mismatch (DESIGN.md §12). Off by default and zero-cost when
    /// off, like the tracer: one branch per scan, no per-row work.
    pub verify_checksums: bool,
    /// Which price list the work is charged in (DESIGN.md §13). Defaults to
    /// the materializing one, the paper's; it changes what a query is
    /// charged, never what it runs or answers.
    pub executor: Executor,
    /// Consult sealed [`ZoneMap`](wimpi_storage::ZoneMap)s before filtering:
    /// morsels whose min/max range (or dictionary presence bitmap) proves a
    /// conjunct can never hold are skipped without touching the data, and
    /// conjuncts proven always-true over a morsel are elided (DESIGN.md
    /// §14). Pruning is a pure no-op on results and row counts — only
    /// `pruned_*` counters and streamed bytes change — but the byte charges
    /// depend on the morsel grid, so it is off by default to preserve the
    /// profile-invariance contracts of the unpruned executors.
    pub prune_scans: bool,
}

impl Default for EngineConfig {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self::with_threads(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }
}

impl EngineConfig {
    /// Single-threaded execution (the pre-parallel engine, exactly).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A config with `threads` workers and every other knob at its default:
    /// the default morsel size, the materializing price list, no checksum
    /// verification, no scan pruning.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            verify_checksums: false,
            executor: Executor::Materialize,
            prune_scans: false,
        }
    }

    /// Overrides the morsel size (mainly for tests, which shrink it to
    /// exercise multi-morsel paths on small data).
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows.max(1);
        self
    }

    /// Enables (or disables) scan-time checksum verification.
    pub fn with_verify_checksums(mut self, verify: bool) -> Self {
        self.verify_checksums = verify;
        self
    }

    /// Selects the price list.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Enables (or disables) zone-map scan pruning.
    pub fn with_prune_scans(mut self, prune: bool) -> Self {
        self.prune_scans = prune;
        self
    }
}

/// Runs `f` over every morsel, returning results in morsel-index order.
///
/// With one worker (or one morsel) everything runs inline. Otherwise morsel
/// indices are dealt round-robin into per-worker deques; each worker pops
/// its own deque LIFO (cache-warm) and steals FIFO from the others (coldest
/// first) when its deque drains. Jobs are only enqueued before the workers
/// start, so an empty sweep over all deques means the pool is done.
pub(crate) fn run_morsels<T, F>(cfg: &EngineConfig, ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    run_morsels_indexed(cfg, ranges, |_, i, r| f(i, r))
}

/// [`run_morsels`] with per-morsel trace recording: each morsel's wall time,
/// row count, and executing worker go into `sink`. When the sink is disabled
/// this is exactly `run_morsels` — no timestamps, no recording.
///
/// Morsel spans are recorded on the inline (single-worker) path too, as
/// worker 0, so the trace *structure* is identical at any thread count —
/// only the measured wall times and worker ids vary (see `wimpi-obs`).
pub(crate) fn run_morsels_spanned<T, F>(
    cfg: &EngineConfig,
    ranges: &[Range<usize>],
    sink: &wimpi_obs::MorselSink,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    if !sink.is_enabled() {
        return run_morsels(cfg, ranges, f);
    }
    run_morsels_indexed(cfg, ranges, |worker, i, r| {
        let rows = r.len() as u64;
        let started = std::time::Instant::now();
        let out = f(i, r);
        sink.record(wimpi_obs::MorselSpan {
            index: i,
            rows,
            worker,
            wall_ns: started.elapsed().as_nanos() as u64,
        });
        out
    })
}

/// The worker-aware core: `f(worker, morsel_index, range)`. The inline path
/// runs everything as worker 0.
fn run_morsels_indexed<T, F>(cfg: &EngineConfig, ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize, Range<usize>) -> T + Sync,
{
    let nworkers = cfg.threads.min(ranges.len()).max(1);
    if nworkers == 1 {
        return ranges.iter().enumerate().map(|(i, r)| f(0, i, r.clone())).collect();
    }
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..ranges.len() {
        deques[i % nworkers].lock().unwrap().push_back(i);
    }
    let deques = &deques;
    let f = &f;
    let mut partials: Vec<Vec<(usize, T)>> = Vec::with_capacity(nworkers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nworkers)
            .map(|w| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The own-deque pop must be a standalone statement: its
                        // temporary MutexGuard lives to the end of the enclosing
                        // statement, so folding the steal into `.or_else(..)` on
                        // the same expression would hold deque[w] while locking
                        // the others — a lock cycle once every worker goes
                        // stealing at once. Pop, release, then steal.
                        let own = deques[w].lock().unwrap().pop_back();
                        let job = own.or_else(|| {
                            (1..nworkers).find_map(|d| {
                                deques[(w + d) % nworkers].lock().unwrap().pop_front()
                            })
                        });
                        match job {
                            Some(i) => done.push((i, f(w, i, ranges[i].clone()))),
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            partials.push(h.join().expect("morsel worker panicked"));
        }
    });
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(ranges.len()).collect();
    for (i, t) in partials.into_iter().flatten() {
        debug_assert!(results[i].is_none(), "morsel {i} executed twice");
        results[i] = Some(t);
    }
    results.into_iter().map(|t| t.expect("every morsel executed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_config_reproduces_defaults() {
        assert_eq!(EngineConfig::serial().threads, 1);
        assert_eq!(EngineConfig::serial().morsel_rows, DEFAULT_MORSEL_ROWS);
        assert_eq!(EngineConfig::with_threads(0).threads, 1, "threads clamp to 1");
    }

    #[test]
    fn every_morsel_runs_exactly_once_in_order() {
        let cfg = EngineConfig::with_threads(4).with_morsel_rows(10);
        let ranges = morsel_ranges(1000, 10);
        let calls = AtomicUsize::new(0);
        let out = run_morsels(&cfg, &ranges, |i, r| {
            calls.fetch_add(1, Ordering::Relaxed);
            (i, r.start, r.end)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        for (i, (idx, start, end)) in out.iter().enumerate() {
            assert_eq!(*idx, i, "results in morsel order");
            assert_eq!((*start, *end), (i * 10, (i + 1) * 10));
        }
    }

    #[test]
    fn float_reductions_identical_across_thread_counts() {
        // The determinism contract: per-morsel float partials merged in
        // morsel order are bit-identical whatever the worker count.
        let data: Vec<f64> = (0..10_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let sum_with = |threads: usize| -> f64 {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(64);
            let parts = run_morsels(&cfg, &morsel_ranges(data.len(), 64), |_, r| {
                data[r].iter().sum::<f64>()
            });
            parts.into_iter().sum()
        };
        let s1 = sum_with(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(s1.to_bits(), sum_with(t).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn spanned_run_records_every_morsel_in_order() {
        use wimpi_obs::Tracer;
        for threads in [1usize, 4] {
            let cfg = EngineConfig::with_threads(threads).with_morsel_rows(10);
            let ranges = morsel_ranges(95, 10);
            let tracer = Tracer::enabled();
            let sink = tracer.morsel_sink();
            let out = run_morsels_spanned(&cfg, &ranges, &sink, |i, r| (i, r.len()));
            assert_eq!(out.len(), 10);
            let spans = sink.into_spans();
            assert_eq!(spans.len(), 10, "threads={threads}");
            for (i, s) in spans.iter().enumerate() {
                assert_eq!(s.label, i.to_string(), "merged in morsel order");
                assert_eq!(s.rows_in, if i == 9 { 5 } else { 10 });
            }
        }
        // A disabled sink records nothing and changes nothing.
        let cfg = EngineConfig::with_threads(2).with_morsel_rows(10);
        let sink = Tracer::disabled().morsel_sink();
        let out = run_morsels_spanned(&cfg, &morsel_ranges(95, 10), &sink, |i, _| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(sink.into_spans().is_empty());
    }

    #[test]
    fn simultaneous_stealing_does_not_deadlock() {
        // Regression: the own-deque pop used to hold its MutexGuard across
        // the steal sweep (guard temporaries live to the end of the `let`
        // statement), so workers that went stealing at the same instant
        // formed a lock cycle — worker w holding deque[w], waiting on
        // deque[w+1]. Trivial jobs over many rounds push every worker into
        // the steal path together; with the cycle present this test hangs.
        let cfg = EngineConfig::with_threads(4).with_morsel_rows(1);
        for n in [4usize, 5, 8, 64] {
            let ranges = morsel_ranges(n, 1);
            for _ in 0..200 {
                let out = run_morsels(&cfg, &ranges, |_, r| r.start);
                assert_eq!(out, (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn stealing_drains_uneven_work() {
        // One slow morsel must not serialize the rest: all work completes
        // and results stay ordered even with pathological imbalance.
        let cfg = EngineConfig::with_threads(4).with_morsel_rows(1);
        let ranges = morsel_ranges(64, 1);
        let out = run_morsels(&cfg, &ranges, |i, r| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            r.start
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }
}
