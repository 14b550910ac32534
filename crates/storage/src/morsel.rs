//! Morsel boundaries — the fixed work units of intra-query parallelism —
//! and the one worker pool that runs them.
//!
//! A morsel is a contiguous range of ~64K rows (Leis et al., "Morsel-Driven
//! Parallelism", SIGMOD 2014). Boundaries depend only on the row count and
//! the configured morsel size — never on the thread count — so any
//! per-morsel partial result (and in particular every floating-point
//! reduction tree built over morsels in index order) is identical no matter
//! how many workers execute the morsels. This is the invariant the engine's
//! bit-exact determinism guarantee rests on (DESIGN.md "Threading model").
//!
//! [`run_indexed`] is the workspace's one pool: scoped threads and one
//! shared atomic cursor. The engine runs its kernels on it (at
//! `EngineConfig::threads` workers); the catalog builders — TPC-H
//! generation, clustering, integrity and zone-map sealing, the cluster
//! build — run their tasks on it at [`pool_workers`]. A task is a pure
//! function of its index, and results come back in task order, so what a
//! pool computes never depends on how many workers computed it.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default rows per morsel. Small enough that a handful of live columns fit
/// in a Pi 3B+'s 512 KB LLC slice per core, large enough that dispatch
/// overhead is noise against the per-row work.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Splits `n` rows into contiguous morsels of at most `morsel_rows` rows.
///
/// Every row belongs to exactly one morsel; the final morsel may be short.
/// `morsel_rows == 0` is treated as one morsel spanning everything.
pub fn morsel_ranges(n: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let size = if morsel_rows == 0 { n } else { morsel_rows };
    let count = n.div_ceil(size);
    (0..count).map(|m| (m * size)..((m + 1) * size).min(n)).collect()
}

/// Number of morsels `morsel_ranges(n, morsel_rows)` would produce, without
/// materializing them. Lets observability code size span buffers up front.
pub fn morsel_count(n: usize, morsel_rows: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let size = if morsel_rows == 0 { n } else { morsel_rows };
    n.div_ceil(size)
}

thread_local! {
    /// A cap on [`pool_workers`] for builds started on this thread.
    static WORKER_CAP: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The workers a catalog build runs on: one per hardware thread this
/// process may use (`available_parallelism` honours the affinity mask, so
/// `taskset -c 0` gives one), as `EngineConfig::default()` has.
pub fn pool_workers() -> usize {
    WORKER_CAP
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs `f` with [`pool_workers`] fixed at `workers` on the calling thread,
/// so a test can hold a build to a given worker count. Not a tuning knob:
/// no build's bytes depend on it.
#[doc(hidden)]
pub fn with_pool_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    /// Puts the previous cap back, on unwind too.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(WORKER_CAP.with(|c| c.replace(Some(workers.max(1)))));
    f()
}

/// Runs `f(worker, task)` for every task in `0..tasks` and returns the
/// results in task order.
///
/// With one worker (or one task) everything runs inline on the calling
/// thread, as worker 0. Otherwise `min(workers, tasks)` scoped threads each
/// claim task indices in ascending order from one shared cursor until it
/// passes the last task, while the calling thread waits.
pub fn run_indexed<T, F>(workers: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let nworkers = workers.min(tasks).max(1);
    if nworkers == 1 {
        return (0..tasks).map(|i| f(0, i)).collect();
    }
    pool(nworkers, false, tasks, f, || ()).0
}

/// [`run_indexed`] over owned inputs, with the calling thread as worker 0:
/// `f(item)` for every item, each moved to the worker that claims it,
/// results in item order. An item is how a task gets mutable state of its
/// own — a disjoint slice of an output the caller allocated, say.
pub fn run_each<S, T, F>(workers: usize, items: Vec<S>, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    run_each_beside(workers, items, f, || ()).0
}

/// [`run_each`] while the calling thread first runs `local`: `workers − 1`
/// scoped threads claim items from the start, and the caller claims
/// whatever is left once `local` returns. What `local` allocates is the
/// caller's (a builder's output tables, say): memory allocated on a pool
/// thread stays with that thread's allocator arena when it is freed, out
/// of reach of the calling thread's later allocations.
pub fn run_each_beside<S, T, F, R>(
    workers: usize,
    items: Vec<S>,
    f: F,
    local: impl FnOnce() -> R,
) -> (Vec<T>, R)
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    let slots: Vec<Mutex<Option<S>>> = items.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let f = |_, i: usize| {
        let item = slots[i].lock().expect("an item lock is never poisoned").take();
        f(item.expect("each item is claimed once"))
    };
    let helpers = (workers.max(1) - 1).min(slots.len());
    if helpers == 0 {
        let r = local();
        return ((0..slots.len()).map(|i| f(0, i)).collect(), r);
    }
    pool(helpers, true, slots.len(), f, local)
}

/// The pool: `spawned` scoped threads claim task indices from one shared
/// cursor; the calling thread runs `local` and then, when `caller_claims`,
/// claims beside them as worker 0. Results come back in task order.
fn pool<T, F, R>(
    spawned: usize,
    caller_claims: bool,
    tasks: usize,
    f: F,
    local: impl FnOnce() -> R,
) -> (Vec<T>, R)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let claim = |w: usize| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break done;
            }
            done.push((i, f(w, i)));
        }
    };
    let first_spawned = usize::from(caller_claims);
    let (mut partials, r) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spawned)
            .map(|k| {
                let claim = &claim;
                s.spawn(move || claim(first_spawned + k))
            })
            .collect();
        let r = local();
        let mut partials = Vec::with_capacity(spawned + 1);
        if caller_claims {
            partials.push(claim(0));
        }
        for h in handles {
            partials.push(h.join().expect("pool worker panicked"));
        }
        (partials, r)
    });
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(tasks).collect();
    for (i, t) in partials.drain(..).flatten() {
        debug_assert!(results[i].is_none(), "task {i} executed twice");
        results[i] = Some(t);
    }
    let results = results.into_iter().map(|t| t.expect("every task executed exactly once"));
    (results.collect(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_ranges_len() {
        for n in [0usize, 1, 99, 100, 101, 65_537] {
            for size in [0usize, 1, 100, 65_536] {
                assert_eq!(
                    morsel_count(n, size),
                    morsel_ranges(n, size).len(),
                    "n={n} size={size}"
                );
            }
        }
    }

    #[test]
    fn covers_all_rows_exactly_once() {
        for n in [0usize, 1, 99, 100, 101, 65_536, 65_537, 200_000] {
            let ranges = morsel_ranges(n, 100);
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, n, "n={n}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "morsels must be contiguous");
            }
            if n > 0 {
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
            }
        }
    }

    #[test]
    fn zero_morsel_rows_means_one_morsel() {
        let ranges = morsel_ranges(10, 0);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0], 0..10);
    }

    #[test]
    fn boundaries_independent_of_anything_but_n_and_size() {
        assert_eq!(morsel_ranges(250, 100), vec![0..100, 100..200, 200..250]);
    }

    #[test]
    fn each_item_reaches_its_task_and_may_be_written() {
        // Disjoint slices of one caller-allocated buffer, filled by tasks.
        for workers in [1usize, 2, 4] {
            let mut out = vec![0u32; 100];
            let items: Vec<(usize, &mut [u32])> = out.chunks_mut(7).enumerate().collect();
            let lens = run_each(workers, items, |(c, slice)| {
                slice.iter_mut().enumerate().for_each(|(j, v)| *v = (c * 7 + j) as u32);
                slice.len()
            });
            assert_eq!(lens.iter().sum::<usize>(), 100);
            assert_eq!(out, (0..100).collect::<Vec<u32>>(), "workers={workers}");
        }
    }

    #[test]
    fn the_caller_runs_its_own_job_then_claims_the_rest() {
        for workers in [1usize, 2, 4] {
            let caller = std::thread::current().id();
            let (out, local) = run_each_beside(
                workers,
                (0..40u32).collect(),
                |x| (x * 2, std::thread::current().id() == caller),
                || std::thread::current().id() == caller,
            );
            assert!(local, "the local job runs on the calling thread");
            assert_eq!(
                out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                (0..80).step_by(2).collect::<Vec<_>>()
            );
            if workers == 1 {
                assert!(out.iter().all(|&(_, on_caller)| on_caller), "one worker: all inline");
            }
        }
    }

    #[test]
    fn the_worker_cap_holds_on_this_thread_only_and_nests() {
        let free = pool_workers();
        assert!(free >= 1);
        with_pool_workers(3, || {
            assert_eq!(pool_workers(), 3);
            with_pool_workers(0, || assert_eq!(pool_workers(), 1, "clamped to one"));
            assert_eq!(pool_workers(), 3, "restored after the inner scope");
            let other = std::thread::spawn(pool_workers).join().expect("probe thread runs");
            assert_eq!(other, free, "another thread is uncapped");
        });
        assert_eq!(pool_workers(), free);
    }
}
