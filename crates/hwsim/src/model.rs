//! The roofline runtime model: one measured [`WorkProfile`] → predicted
//! seconds on any [`HwProfile`].
//!
//! `T = max(T_compute, T_memory) + overhead`, with
//!
//! * `T_compute = cpu_ops / (UNIT_RATE · olap_rate_1c · effective_cores)`
//! * `T_memory = seq_bytes / bandwidth + random-access latency term`
//!
//! The single global constant `UNIT_RATE` (work units per second per op-e5
//! core-equivalent) anchors the model to the paper's absolute runtimes; all
//! other inputs are per-profile ratios. Random accesses hit either LLC or
//! DRAM depending on the profile's cache size vs. the query's hash-table
//! footprint, and overlap with memory-level parallelism.

use crate::profiles::HwProfile;
use wimpi_engine::WorkProfile;

/// Work units one op-e5 core-equivalent retires per second. Calibrated so
/// predicted op-e5 Table II runtimes land in the paper's 0.01–0.2 s band
/// (see `wimpi-core`'s experiment comparisons).
pub const UNIT_RATE: f64 = 2.0e8;

/// Effective overlapped random accesses per thread. Out-of-order Xeons
/// resolve dependent hash-probe loads with modest overlap; the in-order A53
/// relies on software prefetch and its four threads, and its small
/// dimension tables enjoy better TLB/cache locality — net effect, the
/// per-probe gap between a Pi and a Xeon is a single small factor, not the
/// raw latency ratio (calibrated against the paper's join-query ratios).
const MLP_OOO: f64 = 2.0;
const MLP_INORDER: f64 = 5.0;

/// LLC hit latency, ns (same order on every tested part).
const LLC_LAT_NS: f64 = 15.0;

/// Amdahl serial fraction of query CPU work (plan setup, candidate-list
/// stitching, final result assembly). Small, but it is why a 36-thread
/// Xeon is nowhere near 36× a single Pi core on short TPC-H queries.
const SERIAL_FRAC: f64 = 0.22;

/// Predicted runtime breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Compute-bound component, seconds.
    pub compute_s: f64,
    /// Memory-bound component, seconds.
    pub memory_s: f64,
    /// Fixed per-query overhead, seconds.
    pub overhead_s: f64,
}

impl Prediction {
    /// Total predicted runtime: roofline max of compute and memory, plus
    /// overhead.
    pub fn total_s(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.overhead_s
    }

    /// True when the memory component dominates (Q1-on-Pi behaviour).
    pub fn memory_bound(&self) -> bool {
        self.memory_s > self.compute_s
    }
}

/// Predicts the runtime of `work` on `hw` using `threads` software threads.
pub fn predict(hw: &HwProfile, work: &WorkProfile, threads: u32) -> Prediction {
    let eff = hw.effective_cores(threads).max(1e-9);
    let rate_1c = UNIT_RATE * hw.olap_rate_1c();
    let w = work.cpu_ops as f64;
    // One effective core computes serially no matter how many software
    // threads are requested — the Amdahl split must collapse to the serial
    // formula exactly (not just to within float rounding) so a cores=1
    // profile reproduces serial predictions bit-for-bit.
    let compute_s = if threads <= 1 || eff <= 1.0 {
        w / rate_1c
    } else {
        SERIAL_FRAC * w / rate_1c + (1.0 - SERIAL_FRAC) * w / (rate_1c * eff)
    };

    let bw = hw.membw_gbs(threads) * hw.stream_efficiency * 1e9;
    let stream_s = work.seq_bytes() as f64 / bw;
    // Random accesses: LLC-resident hash tables are cheap; DRAM-resident
    // ones pay the full latency, amortized over MLP × threads in flight.
    let in_llc = work.hash_bytes <= hw.llc_bytes;
    let lat_ns = if in_llc { LLC_LAT_NS } else { hw.dram_lat_ns };
    let mlp = if hw.threads > hw.cores || hw.name != "pi3b+" { MLP_OOO } else { MLP_INORDER };
    let parallel_misses = (threads.min(hw.threads) as f64 * mlp).max(1.0);
    let rand_s = work.rand_accesses as f64 * lat_ns * 1e-9 / parallel_misses;

    Prediction { compute_s, memory_s: stream_s + rand_s, overhead_s: hw.query_overhead_s }
}

/// Modeled speedup of a `threads`-thread run over a serial run of the same
/// work on the same hardware — what the `scaling` bench reports next to the
/// measured numbers (indispensable on core-starved CI hosts, where wall-clock
/// speedup is physically unattainable). On a single-core profile whose
/// all-core bandwidth equals its single-core bandwidth this is exactly 1.0
/// at every thread count: extra software threads buy nothing the roofline
/// doesn't already account for.
pub fn modeled_speedup(hw: &HwProfile, work: &WorkProfile, threads: u32) -> f64 {
    predict(hw, work, 1).total_s() / predict(hw, work, threads).total_s()
}

/// Modeled speedup the fused executor buys over the materializing one on
/// `hw`, all cores: the ratio of predicted runtimes for the two measured
/// [`WorkProfile`]s of the *same run* (its two price lists,
/// `wimpi_engine::Prices`). Fusion mostly
/// erases `seq_write_bytes` — intermediate-column traffic — so the gain is
/// largest where the roofline is bandwidth-limited: a Pi 3B+ with one DDR2
/// channel sees a bigger ratio than a Xeon with six DDR4 channels, which is
/// how fusion shifts the paper's Pi-vs-Xeon comparison.
pub fn modeled_fused_gain(hw: &HwProfile, materialize: &WorkProfile, fused: &WorkProfile) -> f64 {
    predict_all_cores(hw, materialize).total_s() / predict_all_cores(hw, fused).total_s()
}

/// Modeled speedup zone-map pruning buys on `hw`, all cores: the pruned
/// run's own [`WorkProfile`] records the bytes it *didn't* stream in
/// `pruned_bytes` (DESIGN.md §14), so the unpruned baseline is
/// reconstructed by crediting those bytes back onto the sequential-read
/// roofline. Pruning, like fusion, removes pure bandwidth — the gain is
/// largest on the machines the paper calls wimpy: a one-channel Pi sees a
/// bigger ratio than a six-channel Xeon from the same skipped bytes.
pub fn modeled_prune_gain(hw: &HwProfile, pruned: &WorkProfile) -> f64 {
    let mut unpruned = *pruned;
    unpruned.seq_read_bytes = unpruned.seq_read_bytes.saturating_add(unpruned.pruned_bytes);
    unpruned.pruned_bytes = 0;
    unpruned.pruned_morsels = 0;
    predict_all_cores(hw, &unpruned).total_s() / predict_all_cores(hw, pruned).total_s()
}

/// Modeled slowdown the out-of-core spill rung costs on `hw`, all cores:
/// the ratio of the spilling run's predicted time (in-memory roofline plus
/// the spill traffic priced at microSD bandwidth, written once and read
/// back once) to the pure in-memory time. Always ≥ 1, exactly 1 when the
/// run spilled nothing — this is the §III-C2 cliff the `spill` bench walks
/// down: the operator keeps producing the same bytes, it just pays
/// [`crate::profiles::wimpi::SDCARD_MBPS`] for every spilled byte, twice.
pub fn modeled_spill_penalty(hw: &HwProfile, work: &WorkProfile) -> f64 {
    let base = predict_all_cores(hw, work).total_s();
    let sd_bw = crate::profiles::wimpi::SDCARD_MBPS * 1e6;
    let spill_s = 2.0 * work.spilled_bytes as f64 / sd_bw;
    (base + spill_s) / base
}

/// Predicts with every hardware thread in use — the TPC-H configuration
/// (the paper runs MonetDB with full parallelism).
pub fn predict_all_cores(hw: &HwProfile, work: &WorkProfile) -> Prediction {
    predict(hw, work, hw.threads)
}

/// Predicts a single-threaded run — the execution-strategy configuration
/// (paper §II-D3 runs the hand-coded strategies single-threaded).
pub fn predict_single_core(hw: &HwProfile, work: &WorkProfile) -> Prediction {
    predict(hw, work, 1)
}

/// Geometric-mean ratio between two runtime series — the fit metric
/// EXPERIMENTS.md reports when comparing model output against the paper's
/// published tables.
pub fn geomean_ratio(model: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(model.len(), reference.len());
    let logs: f64 = model
        .iter()
        .zip(reference)
        .filter(|(m, r)| **m > 0.0 && **r > 0.0)
        .map(|(m, r)| (m / r).ln())
        .sum();
    (logs / model.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{pi3b, profile};

    fn scan_heavy() -> WorkProfile {
        // Q1-like: 6M rows, several full-column streams.
        WorkProfile {
            cpu_ops: 120_000_000,
            seq_read_bytes: 1_200_000_000,
            seq_write_bytes: 200_000_000,
            rand_accesses: 6_000_000,
            hash_bytes: 1 << 10,
            ..Default::default()
        }
    }

    fn compute_heavy() -> WorkProfile {
        // Selective query: lots of ops, little data.
        WorkProfile {
            cpu_ops: 200_000_000,
            seq_read_bytes: 40_000_000,
            seq_write_bytes: 4_000_000,
            rand_accesses: 100_000,
            hash_bytes: 1 << 10,
            ..Default::default()
        }
    }

    #[test]
    fn scan_heavy_is_memory_bound_on_pi() {
        let pi = pi3b();
        let p = predict_all_cores(&pi, &scan_heavy());
        assert!(p.memory_bound(), "Q1-like work must be memory-bound on the Pi: {p:?}");
        let e5 = profile("op-e5").unwrap();
        let pe5 = predict_all_cores(&e5, &scan_heavy());
        // The Pi loses by far more on memory-bound work than its ~2.5×
        // single-core compute deficit alone would suggest — the paper's Q1
        // anomaly.
        assert!(p.total_s() / pe5.total_s() > 4.0);
    }

    #[test]
    fn compute_heavy_gap_is_smaller() {
        let pi = pi3b();
        let e5 = profile("op-e5").unwrap();
        let mem_gap = predict_all_cores(&pi, &scan_heavy()).total_s()
            / predict_all_cores(&e5, &scan_heavy()).total_s();
        let cpu_gap = predict_all_cores(&pi, &compute_heavy()).total_s()
            / predict_all_cores(&e5, &compute_heavy()).total_s();
        assert!(
            cpu_gap < mem_gap,
            "CPU-bound queries must be the Pi's best case: cpu {cpu_gap} vs mem {mem_gap}"
        );
    }

    #[test]
    fn single_core_slower_than_all_cores() {
        let e5 = profile("op-e5").unwrap();
        let w = compute_heavy();
        assert!(
            predict_single_core(&e5, &w).total_s() > predict_all_cores(&e5, &w).total_s() * 3.0
        );
    }

    #[test]
    fn overhead_floors_tiny_queries() {
        let e5 = profile("op-e5").unwrap();
        let tiny = WorkProfile { cpu_ops: 1000, ..Default::default() };
        let p = predict_all_cores(&e5, &tiny);
        assert!(p.total_s() >= e5.query_overhead_s);
    }

    #[test]
    fn llc_resident_hash_cheaper_than_dram() {
        let e5 = profile("op-e5").unwrap();
        let mut w = compute_heavy();
        w.rand_accesses = 50_000_000;
        w.hash_bytes = 1 << 10;
        let cached = predict_all_cores(&e5, &w).memory_s;
        w.hash_bytes = 1 << 30;
        let missed = predict_all_cores(&e5, &w).memory_s;
        assert!(missed > cached * 2.0);
    }

    #[test]
    fn geomean_ratio_identity() {
        let a = [1.0, 2.0, 4.0];
        assert!((geomean_ratio(&a, &a) - 1.0).abs() < 1e-12);
        let b = [2.0, 4.0, 8.0];
        assert!((geomean_ratio(&b, &a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn modeled_speedup_is_one_for_one_thread() {
        for hw in crate::profiles::all_profiles() {
            for w in [scan_heavy(), compute_heavy()] {
                assert!((modeled_speedup(&hw, &w, 1) - 1.0).abs() < 1e-12, "{}", hw.name);
            }
        }
    }

    #[test]
    fn single_core_profile_reproduces_serial_at_any_thread_count() {
        // A 1-core, 1-hardware-thread machine with a flat bandwidth curve
        // must price a "parallel" run exactly like a serial one — requesting
        // more software threads cannot conjure hardware.
        let mut hw = pi3b();
        hw.cores = 1;
        hw.threads = 1;
        hw.membw_all_gbs = hw.membw_1c_gbs;
        for w in [scan_heavy(), compute_heavy()] {
            let serial = predict(&hw, &w, 1);
            for t in [2, 4, 8, 64] {
                assert_eq!(predict(&hw, &w, t), serial, "threads={t}");
            }
        }
    }

    #[test]
    fn bandwidth_ceiling_caps_memory_bound_speedup() {
        // The Pi's single memory channel is saturated by one core, so
        // scan-heavy work barely scales while compute-heavy work gets most
        // of the Amdahl-limited gain — the paper's Q1-vs-Q6 asymmetry.
        let pi = pi3b();
        let scan = modeled_speedup(&pi, &scan_heavy(), 4);
        let compute = modeled_speedup(&pi, &compute_heavy(), 4);
        assert!(scan < 1.5, "memory-bound speedup must stay near 1: {scan}");
        assert!(compute > 2.0, "compute-bound speedup must approach Amdahl: {compute}");
        assert!(compute > scan);
    }

    #[test]
    fn fused_gain_is_larger_on_the_pi() {
        // A write-heavy materializing profile vs the same query fused: the
        // fused run streams the same inputs but writes almost nothing back.
        let mat = scan_heavy();
        let mut fused = mat;
        fused.seq_write_bytes = 0;
        fused.cpu_ops = mat.cpu_ops * 9 / 10; // no gather/scatter loops
        let pi = pi3b();
        let e5 = profile("op-e5").unwrap();
        let pi_gain = modeled_fused_gain(&pi, &mat, &fused);
        let e5_gain = modeled_fused_gain(&e5, &mat, &fused);
        assert!(pi_gain > 1.0, "fusion must help the Pi: {pi_gain}");
        assert!(
            pi_gain > e5_gain,
            "erased write traffic must matter more on one DDR2 channel: pi {pi_gain} vs e5 {e5_gain}"
        );
    }

    #[test]
    fn prune_gain_is_larger_on_the_pi() {
        // A pruned scan that skipped half its bytes: the reconstructed
        // unpruned baseline streams twice the reads, which hurts most where
        // bandwidth is the roofline.
        let mut pruned = scan_heavy();
        pruned.pruned_bytes = pruned.seq_read_bytes;
        pruned.pruned_morsels = 8;
        let pi = pi3b();
        let e5 = profile("op-e5").unwrap();
        let pi_gain = modeled_prune_gain(&pi, &pruned);
        let e5_gain = modeled_prune_gain(&e5, &pruned);
        assert!(pi_gain > 1.0, "pruning must help the Pi: {pi_gain}");
        assert!(
            pi_gain > e5_gain,
            "skipped bytes must matter more on one DDR2 channel: pi {pi_gain} vs e5 {e5_gain}"
        );
        // No skipped bytes → the reconstruction is the identity.
        let noop = scan_heavy();
        assert!((modeled_prune_gain(&pi, &noop) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spill_penalty_is_identity_without_spill_and_grows_with_it() {
        let pi = pi3b();
        let dry = scan_heavy();
        assert!((modeled_spill_penalty(&pi, &dry) - 1.0).abs() < 1e-12);
        let mut wet = dry;
        wet.spilled_bytes = 400_000_000;
        let small = modeled_spill_penalty(&pi, &wet);
        assert!(small > 1.0, "spilled bytes must cost time: {small}");
        wet.spilled_bytes *= 4;
        let big = modeled_spill_penalty(&pi, &wet);
        assert!(big > small, "more spill must cost more: {big} vs {small}");
        // The same spilled bytes hurt a fast machine *relatively* more: its
        // in-memory baseline is smaller while the microSD is just as slow.
        let e5 = profile("op-e5").unwrap();
        assert!(modeled_spill_penalty(&e5, &wet) > big);
    }

    #[test]
    fn faster_profile_predicts_lower_time() {
        let w = compute_heavy();
        let gold = profile("op-gold").unwrap();
        let e5 = profile("op-e5").unwrap();
        assert!(predict_all_cores(&gold, &w).total_s() < predict_all_cores(&e5, &w).total_s());
    }
}
