//! The workspace's one table hasher.
//!
//! [`FxBuild`] builds a deterministic multiply-xor hasher (the FxHash
//! construction). The default SipHash spends more per row hashing a short key
//! than the callers spend using it: the engine's join `head` maps and group
//! maps hash one- or two-slot `i64` keys, [`crate::DictBuilder`] interns
//! short strings. Neither observes a map's iteration order — a join's output
//! order comes from row ids, a group's from its first row, a dictionary code
//! from the value count — so the hasher cannot change any result. Keys are
//! values the program generated or loaded, never text an adversary picks, so
//! SipHash's flooding resistance buys nothing here. The price of the single
//! multiply: a product's low bits are only as varied as the key's, so a
//! column whose values all share many trailing zero bits would crowd the
//! table's low buckets. The reproduced queries' keys (TPC-H surrogate keys,
//! dates, dictionary codes) vary in their low bits, and a finishing rotate
//! that would cure it measured 10 % slower on the key-ordered catalog.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Builds [`FxHasher`]s; zero-sized, so a map carries no per-instance seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuild;

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

/// A `HashMap` on [`FxBuild`].
pub type FxMap<K, V> = HashMap<K, V, FxBuild>;
/// A `HashSet` on [`FxBuild`].
pub type FxSet<K> = HashSet<K, FxBuild>;

/// The FxHash state: one rotate, xor and multiply per word.
#[derive(Debug)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// One round per 8-byte little-endian word (an `[i64]` key hashes as its
    /// raw bytes), then one per tail byte.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        for &b in words.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64)
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64)
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v)
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64)
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_folds_words_then_tail_bytes() {
        let mut by_words = FxHasher(0);
        by_words.write_u64(0x0807_0605_0403_0201);
        by_words.write_u8(9);
        by_words.write_u8(10);
        let mut by_bytes = FxHasher(0);
        by_bytes.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(by_bytes.finish(), by_words.finish());
    }

    #[test]
    fn equal_strings_collide_and_prefixes_do_not() {
        let fx = |s: &str| FxBuild.hash_one(s);
        assert_eq!(fx("special requests"), fx(&String::from("special requests")));
        assert_ne!(fx("special"), fx("special requests"));
        assert_ne!(fx("ab"), fx("ba"));
    }
}
