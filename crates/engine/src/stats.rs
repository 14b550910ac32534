//! Execution work profiles.
//!
//! Every operator records the *hardware-relevant* work it performs: streamed
//! bytes, random (cache-line-granularity) accesses, and data-dependent CPU
//! operations. A [`WorkProfile`] is the bridge between one real execution on
//! the host and the paper's ten hardware comparison points: `wimpi-hwsim`
//! prices the same profile under each machine's roofline model (DESIGN.md §2).

use std::ops::{Add, AddAssign};

use crate::exec::parallel::Executor;

/// Counters accumulated over one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkProfile {
    /// Data-dependent CPU work units (≈ a few instructions each): one per
    /// row per primitive for expression evaluation, two per hash
    /// build/probe, `log n` per sorted row, and so on.
    pub cpu_ops: u64,
    /// Bytes read as sequential streams (column scans, expression inputs).
    pub seq_read_bytes: u64,
    /// Bytes written as sequential streams (materialized intermediates).
    pub seq_write_bytes: u64,
    /// Random accesses at cache-line granularity: hash-table inserts and
    /// probes, gather loads.
    pub rand_accesses: u64,
    /// Peak-ish bytes held in hash tables (join builds + group states); the
    /// hardware model compares this against LLC size to decide whether
    /// random accesses hit cache or memory.
    pub hash_bytes: u64,
    /// Rows entering operators (a coarse size signal for overhead modelling).
    pub rows_in: u64,
    /// Rows in the final result.
    pub rows_out: u64,
    /// Bytes shipped over the network (filled in by the cluster driver; zero
    /// for single-node runs).
    pub network_bytes: u64,
    /// Morsels a zone-map consultation skipped entirely (no row could
    /// satisfy the scan's predicate). Zero unless
    /// [`EngineConfig::prune_scans`](crate::exec::parallel::EngineConfig)
    /// is on; pruning never changes row counts, only bytes and time.
    pub pruned_morsels: u64,
    /// Bytes a scan proved it did not need to stream — skipped morsels'
    /// predicate-column bytes plus conjuncts proven always-true. The
    /// hardware model credits these against the bandwidth roofline.
    pub pruned_bytes: u64,
    /// *Measured* peak bytes of governed memory (operator scratch plus
    /// materialized intermediates), taken from the query's
    /// [`MemoryReservation`](crate::governor::MemoryReservation) high-water
    /// mark. Unlike the other counters this is a maximum, not a sum; the
    /// engine ratchets it monotonically at operator boundaries so span
    /// deltas still telescope (each span's delta is the peak *growth* it
    /// observed, and the deltas sum to the root's final peak).
    pub peak_bytes: u64,
    /// Bytes an operator staged on the spill disk when even Grace
    /// partitioning could not fit the budget (DESIGN.md §16). Priced by
    /// `wimpi-hwsim` at microSD bandwidth, out and back.
    pub spilled_bytes: u64,
    /// Spill-chunk reads re-issued after a checksum mismatch.
    pub spill_read_retries: u64,
    /// Corrupted spill-chunk views detected at read time (each forced one
    /// retry unless the retry budget was already exhausted).
    pub spill_corruptions_detected: u64,
}

/// The ledger's counters, named once: `merge`, `delta_since`, `scale`, `+`
/// and `counter_pairs` all go through the two functions generated here. `zip`
/// builds the struct from exactly these fields, so a counter added to
/// [`WorkProfile`] but not to this table does not compile.
macro_rules! counter_table {
    ($($field:ident),* $(,)?) => {
        const COUNTERS: usize = [$(stringify!($field)),*].len();

        impl WorkProfile {
            /// `f(self.c, o.c)` for every counter `c`.
            fn zip(&self, o: &WorkProfile, f: impl Fn(u64, u64) -> u64) -> WorkProfile {
                WorkProfile { $($field: f(self.$field, o.$field)),* }
            }

            /// Every counter with its name, in declaration order.
            fn named(&self) -> [(&'static str, u64); COUNTERS] {
                [$((stringify!($field), self.$field)),*]
            }
        }
    };
}

counter_table!(
    cpu_ops,
    seq_read_bytes,
    seq_write_bytes,
    rand_accesses,
    hash_bytes,
    rows_in,
    rows_out,
    network_bytes,
    pruned_morsels,
    pruned_bytes,
    peak_bytes,
    spilled_bytes,
    spill_read_retries,
    spill_corruptions_detected,
);

impl WorkProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes that travel through the memory system sequentially.
    pub fn seq_bytes(&self) -> u64 {
        self.seq_read_bytes + self.seq_write_bytes
    }

    /// Combines per-worker counters into one total — the reduction the
    /// morsel-driven kernels apply to independently accumulated profiles.
    ///
    /// Saturating addition makes `merge` a total, associative, and
    /// commutative operation (a plain `+` would panic on overflow in debug
    /// builds, breaking associativity at the u64 boundary); the property
    /// tests in `tests/property_tests.rs` pin this down. Merging profiles
    /// charged from global row counts reproduces the serial totals exactly.
    pub fn merge(&mut self, o: &WorkProfile) {
        *self = self.zip(o, u64::saturating_add);
    }

    /// Per-counter saturating difference `self - before`: the inclusive work
    /// performed between two profile snapshots, which is exactly what a trace
    /// span records (counters only grow, so this is exact in practice).
    pub fn delta_since(&self, before: &WorkProfile) -> WorkProfile {
        self.zip(before, u64::saturating_sub)
    }

    /// The counters as named pairs with zero entries omitted — the generic
    /// form `wimpi-obs` spans carry (obs sits below the engine in the
    /// dependency graph and cannot name `WorkProfile`).
    pub fn counter_pairs(&self) -> Vec<(String, u64)> {
        self.named().into_iter().filter(|&(_, v)| v != 0).map(|(n, v)| (n.to_string(), v)).collect()
    }

    /// Scales every counter by an integer factor — used to extrapolate a
    /// measured SF to the paper's SF when the host can't hold the full data
    /// (all TPC-H choke-point work scales linearly in SF; DESIGN.md §4).
    pub fn scale(&self, factor: f64) -> WorkProfile {
        self.zip(self, |v, _| (v as f64 * factor).round() as u64)
    }
}

impl Add for WorkProfile {
    type Output = WorkProfile;

    /// Saturating, like [`WorkProfile::merge`]: the ledger has one addition.
    fn add(self, o: WorkProfile) -> WorkProfile {
        self.zip(&o, u64::saturating_add)
    }
}

impl AddAssign for WorkProfile {
    fn add_assign(&mut self, o: WorkProfile) {
        *self = *self + o;
    }
}

/// One run's work in both price lists (DESIGN.md §13): the same execution
/// priced as MonetDB's column-at-a-time materialization and as a fused
/// morsel pipeline. The lists differ only in what a filter's conjuncts and an
/// aggregate's programs cost, and in the paper list's `peak_bytes`, which
/// counts the survivors' gather a fold stands in for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prices {
    /// The paper's list: every intermediate materialized.
    pub materialize: WorkProfile,
    /// The fused pipeline's list: base columns streamed, only outputs written.
    pub fused: WorkProfile,
}

impl Prices {
    /// The profile of one list.
    pub fn get(&self, list: Executor) -> WorkProfile {
        match list {
            Executor::Materialize => self.materialize,
            Executor::Fused => self.fused,
        }
    }

    /// Both lists with their names, the paper's first.
    pub fn lists(&self) -> [(Executor, WorkProfile); 2] {
        [(Executor::Materialize, self.materialize), (Executor::Fused, self.fused)]
    }
}

impl Add for Prices {
    type Output = Prices;

    /// Each list's `+`.
    fn add(self, o: Prices) -> Prices {
        Prices { materialize: self.materialize + o.materialize, fused: self.fused + o.fused }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_bytes_sums_read_write() {
        let p = WorkProfile { seq_read_bytes: 3, seq_write_bytes: 4, ..Default::default() };
        assert_eq!(p.seq_bytes(), 7);
    }

    #[test]
    fn every_counter_takes_part_in_every_operation() {
        // All fourteen fields spelled out: a fifteenth counter breaks this
        // literal until it is added here (and `counter_table!` until it is
        // added there), so it cannot be half-added.
        let a = WorkProfile {
            cpu_ops: 1,
            seq_read_bytes: 2,
            seq_write_bytes: 3,
            rand_accesses: 4,
            hash_bytes: 5,
            rows_in: 6,
            rows_out: 7,
            network_bytes: 8,
            pruned_morsels: 9,
            pruned_bytes: 10,
            peak_bytes: 11,
            spilled_bytes: 12,
            spill_read_retries: 13,
            spill_corruptions_detected: 14,
        };
        let values =
            |p: &WorkProfile| p.counter_pairs().iter().map(|(_, v)| *v).collect::<Vec<_>>();
        assert_eq!(values(&a), (1..=14).collect::<Vec<u64>>(), "every field, declaration order");
        assert_eq!(a.scale(1.0), a);
        let b = a.scale(100.0);
        let sum = a + b;
        assert_eq!(values(&sum), (1..=14).map(|v| v * 101).collect::<Vec<u64>>());
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, sum, "merge is the in-place `+`");
        assert_eq!(sum.delta_since(&b), a);
        assert_eq!(sum.delta_since(&a), b);
        let mut top = WorkProfile { rows_out: u64::MAX - 1, ..a };
        assert_eq!((top + a).rows_out, u64::MAX, "`+` saturates instead of overflowing");
        top.merge(&a);
        assert_eq!(top.rows_out, u64::MAX, "and so does merge");
    }

    #[test]
    fn delta_since_subtracts_snapshots() {
        let before = WorkProfile { cpu_ops: 10, seq_read_bytes: 100, ..Default::default() };
        let after = WorkProfile { cpu_ops: 25, seq_read_bytes: 100, rows_in: 3, ..before };
        let d = after.delta_since(&before);
        assert_eq!(d.cpu_ops, 15);
        assert_eq!(d.seq_read_bytes, 0);
        assert_eq!(d.rows_in, 3);
        // Counters never shrink, but the subtraction still saturates.
        assert_eq!(before.delta_since(&after).cpu_ops, 0);
    }

    #[test]
    fn counter_pairs_name_nonzero_counters() {
        let p = WorkProfile { cpu_ops: 7, hash_bytes: 9, ..Default::default() };
        let pairs = p.counter_pairs();
        assert_eq!(
            pairs,
            vec![("cpu_ops".to_string(), 7), ("hash_bytes".to_string(), 9)],
            "zero counters are omitted"
        );
        assert!(WorkProfile::new().counter_pairs().is_empty());
    }

    #[test]
    fn scale_multiplies_counters() {
        let p = WorkProfile { cpu_ops: 10, seq_read_bytes: 11, ..Default::default() };
        let s = p.scale(2.5);
        assert_eq!(s.cpu_ops, 25);
        assert_eq!(s.seq_read_bytes, 28);
    }
}
