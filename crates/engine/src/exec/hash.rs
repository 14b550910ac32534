//! The engine's hash maps, plus the small set built on them.
//!
//! Every join `head` map and every group map hashes with the workspace's one
//! table hasher, [`FxBuild`]; [`wimpi_storage::hash`] says why FxHash and not
//! SipHash. Keys are engine-encoded `i64` slots.
//!
//! Budget-fallback *partition assignment* is a different matter: it decides
//! fan-outs and spill traffic, which are observable, and stays on the fixed
//! SipHash of [`super::partition`].

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

pub(super) use wimpi_storage::hash::{FxBuild, FxMap, FxSet};

/// An empty [`FxMap`] with room for `n` entries.
pub(super) fn fx_map<K, V>(n: usize) -> FxMap<K, V> {
    HashMap::with_capacity_and_hasher(n, FxBuild)
}

/// `k`'s slot among `n`, from the hash's high bits (the multiply leaves the
/// low bits of a product as weak as the key's own). Used to route join keys
/// to build threads: `n` follows the thread count, so the assignment is
/// unobservable by construction.
#[inline]
pub(super) fn fx_slot<K: Hash>(k: &K, n: usize) -> usize {
    (((FxBuild.hash_one(k) >> 32) * n as u64) >> 32) as usize
}

/// A set of `i64`s sized for `count(distinct)` groups, most of which hold a
/// handful of values: up to [`SmallSet::INLINE`] values live in place and are
/// scanned linearly; past that the set moves to a hash set. It lives only in
/// the aggregate's merges: the hash merge's table holds one set per group,
/// the run merge one for its open (last) group. A partial of any form
/// keeps each run's distinct values in a list, and no set.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug))]
pub(super) enum SmallSet {
    Inline { len: u8, vals: [i64; SmallSet::INLINE] },
    Heap(FxSet<i64>),
}

impl Default for SmallSet {
    fn default() -> Self {
        SmallSet::Inline { len: 0, vals: [0; SmallSet::INLINE] }
    }
}

impl SmallSet {
    const INLINE: usize = 7;

    #[inline]
    pub(super) fn insert(&mut self, v: i64) {
        match self {
            SmallSet::Inline { len, vals } => {
                let n = *len as usize;
                if vals[..n].contains(&v) {
                    return;
                }
                if n < Self::INLINE {
                    vals[n] = v;
                    *len += 1;
                } else {
                    let mut set: FxSet<i64> = vals.iter().copied().collect();
                    set.insert(v);
                    *self = SmallSet::Heap(set);
                }
            }
            SmallSet::Heap(set) => {
                set.insert(v);
            }
        }
    }

    pub(super) fn len(&self) -> usize {
        match self {
            SmallSet::Inline { len, .. } => *len as usize,
            SmallSet::Heap(set) => set.len(),
        }
    }

    /// Set union.
    pub(super) fn absorb(&mut self, other: &SmallSet) {
        match other {
            SmallSet::Inline { len, vals } => {
                for &v in &vals[..*len as usize] {
                    self.insert(v);
                }
            }
            SmallSet::Heap(set) => {
                for &v in set {
                    self.insert(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::aggregate::Key;
    use super::*;
    use std::collections::HashSet;

    fn fx<K: Hash>(k: &K) -> u64 {
        FxBuild.hash_one(k)
    }

    #[test]
    fn many_keys_of_equal_slots_hash_and_compare_equal() {
        let a = Key::Many(vec![3, -1, i64::MAX, 0]);
        let b = Key::Many(vec![3, -1, i64::MAX, 0]);
        assert!(a == b);
        assert_eq!(fx(&a), fx(&b), "equal keys must collide");
        // Every slot (and the slot count) reaches the hash.
        for other in [
            Key::Many(vec![4, -1, i64::MAX, 0]),
            Key::Many(vec![3, -1, i64::MAX, 1]),
            Key::Many(vec![3, -1, i64::MAX]),
            Key::Many(vec![-1, 3, i64::MAX, 0]),
        ] {
            assert!(a != other);
            assert_ne!(fx(&a), fx(&other));
        }
        let mut m: FxMap<Key, u32> = fx_map(4);
        m.insert(a, 7);
        assert_eq!(m.get(&b), Some(&7));
        assert_eq!(m.get(&Key::Many(vec![3, -1, i64::MAX])), None);
        // A join's `Vec<i64>` key takes the same word-at-a-time path.
        assert_eq!(fx(&vec![1i64, 2, 3]), fx(&vec![1i64, 2, 3]));
        assert_ne!(fx(&vec![1i64, 2, 3]), fx(&vec![1i64, 3, 2]));
    }

    #[test]
    fn fx_slot_stays_in_range_and_spreads_strided_keys() {
        for n in [1usize, 2, 3, 4, 7] {
            let mut seen = vec![0u32; n];
            for k in (0..4096i64).map(|i| i * 32) {
                seen[fx_slot(&k, n)] += 1;
            }
            assert!(seen.iter().all(|&c| c > 0), "{n} slots: {seen:?}");
        }
    }

    #[test]
    fn small_set_matches_a_hash_set_across_the_inline_boundary() {
        for n in [0usize, 1, 6, 7, 8, 9, 40] {
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 23 - 5).collect();
            let want: HashSet<i64> = vals.iter().copied().collect();
            let mut s = SmallSet::default();
            for &v in &vals {
                s.insert(v);
            }
            assert_eq!(s.len(), want.len(), "{n} inserts");
            // Union with itself and with a disjoint set, in both sizes.
            let mut u = s.clone();
            u.absorb(&s);
            assert_eq!(u.len(), want.len());
            let mut other = SmallSet::default();
            for v in 1000..1000 + n as i64 {
                other.insert(v);
            }
            u.absorb(&other);
            assert_eq!(u.len(), want.len() + n);
        }
    }
}
