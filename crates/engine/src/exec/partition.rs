//! Partition-once routing for the degradation ladder (DESIGN.md §10, §16).
//!
//! The ladder retries at doubled fan-outs until every partition's table fits
//! the budget. A [`Partitioner`] hashes each row's key exactly once, up
//! front, and every attempt is then a counting sort of row ids over the
//! stored hashes — O(n) integer work per attempt where hashing per partition
//! per attempt was O(n·ΣP) SipHash calls. The bookkeeping is 6 B/row (2 B
//! hash, 4 B bucketed row id): sequential, so callers `track` it against the
//! high-water mark without capping it.

use std::hash::{Hash, Hasher};

use super::spill::MAX_SPILL_PARTS;

/// Deterministic key→partition assignment for the budget fallbacks,
/// identical on every thread. `DefaultHasher::new()` uses fixed SipHash keys
/// (unlike a `HashMap`'s per-instance `RandomState`), which the fallbacks'
/// partition choice — hence their fan-outs and spill traffic — relies on.
#[inline]
fn partition_of<K: Hash>(k: &K, nparts: usize) -> usize {
    let mut h = std::hash::DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() % nparts as u64) as usize
}

/// The key hashes of one operator input, computed once.
pub(super) struct Partitioner {
    /// Each row's partition at the ladder's deepest fan-out. Fan-outs are
    /// powers of two, so at any shallower `P` the row's partition is
    /// `deepest[i] % P`, which is `partition_of(key_i, P)`.
    deepest: Vec<u16>,
}

// `deepest` holds partitions below the cap in 16 bits.
const _: () =
    assert!(MAX_SPILL_PARTS.is_power_of_two() && MAX_SPILL_PARTS - 1 <= u16::MAX as usize);

impl Partitioner {
    /// Bytes of sequential bookkeeping per row (see the module doc).
    pub(super) const BYTES_PER_ROW: u64 = 6;

    /// Hashes the keys of rows `0..n`.
    pub(super) fn new<K: Hash>(n: usize, key: impl Fn(usize) -> K) -> Self {
        Partitioner {
            deepest: (0..n).map(|i| partition_of(&key(i), MAX_SPILL_PARTS) as u16).collect(),
        }
    }

    /// Row `i`'s partition at fan-out `nparts`.
    #[inline]
    pub(super) fn part(&self, i: usize, nparts: usize) -> usize {
        self.deepest[i] as usize & (nparts - 1)
    }

    /// Counting-sorts the row ids by partition at fan-out `nparts` (a power
    /// of two ≤ `MAX_SPILL_PARTS`); each bucket lists its rows in ascending
    /// order.
    pub(super) fn buckets(&self, nparts: usize) -> Buckets {
        assert!(nparts.is_power_of_two() && nparts <= MAX_SPILL_PARTS, "fan-out {nparts}");
        let n = self.deepest.len();
        let mut offsets = vec![0u32; nparts + 1];
        for i in 0..n {
            offsets[self.part(i, nparts) + 1] += 1;
        }
        for p in 0..nparts {
            offsets[p + 1] += offsets[p];
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![0u32; n];
        for i in 0..n {
            let c = &mut cursor[self.part(i, nparts)];
            rows[*c as usize] = i as u32;
            *c += 1;
        }
        Buckets { offsets, rows }
    }
}

/// One attempt's partitions in CSR form.
pub(super) struct Buckets {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Buckets {
    /// The fan-out these buckets were sorted at.
    pub(super) fn nparts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The row ids of partition `p`, ascending.
    #[inline]
    pub(super) fn rows(&self, p: usize) -> &[u32] {
        &self.rows[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// The size of the largest partition.
    pub(super) fn max_len(&self) -> usize {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::aggregate::Key;
    use super::super::ladder::FromSlots;
    use super::*;
    use proptest::prelude::*;

    /// Buckets equal `filter(|i| partition_of(key_i, P) == p)` in ascending
    /// row order, empty partitions included, at every fan-out up to the cap.
    fn assert_buckets_filter_by_partition_of<K: Hash>(keys: &[K]) {
        let part = Partitioner::new(keys.len(), |i| &keys[i]);
        let mut nparts = 1;
        while nparts <= MAX_SPILL_PARTS {
            let mut want: Vec<Vec<u32>> = vec![Vec::new(); nparts];
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(part.part(i, nparts), partition_of(k, nparts));
                want[partition_of(k, nparts)].push(i as u32);
            }
            let buckets = part.buckets(nparts);
            for (p, rows) in want.iter().enumerate() {
                assert_eq!(buckets.rows(p), &rows[..], "partition {p} of {nparts}");
            }
            assert_eq!(buckets.max_len(), want.iter().map(Vec::len).max().unwrap());
            nparts *= 2;
        }
    }

    #[test]
    fn empty_input_has_only_empty_partitions() {
        assert_buckets_filter_by_partition_of::<i64>(&[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// One case per key shape the operators hash: a join's `i64`, pair
        /// and `Vec` keys, and the aggregate's `Key`.
        #[test]
        fn buckets_equal_filtering_by_partition_of(
            rows in proptest::collection::vec((-40i64..40, -(1i64 << 40)..1i64 << 40, 0i64..3), 0..120),
        ) {
            fn check<K: Hash>(rows: &[(i64, i64, i64)], key: impl Fn(&(i64, i64, i64)) -> K) {
                assert_buckets_filter_by_partition_of(&rows.iter().map(key).collect::<Vec<_>>());
            }
            check(&rows, |r| r.0);
            check(&rows, |r| (r.0, r.1));
            check(&rows, |r| vec![r.0, r.1, r.2]);
            check(&rows, |r| Key::from_row(&[r.0]));
            check(&rows, |r| Key::from_row(&[r.0, r.2]));
            check(&rows, |r| Key::from_row(&[r.0, r.1, r.2]));
        }
    }
}
