//! SplitMix64 — the one seeded generator behind every injected fault: bit
//! flips and manifest/dictionary corruption ([`crate::integrity`]), spill-read
//! fault rolls ([`crate::spill`]), and `wimpi-cluster`'s fault plans. (The
//! TPC-H generator keeps its own inlined mixer on its per-row hot path.)

/// The Weyl increment (2⁶⁴ / φ).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The generator as a stateless hash: the first output of a stream
    /// seeded with `z`.
    pub fn hash(z: u64) -> u64 {
        let mut z = z.wrapping_add(GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let out = Self::hash(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // First outputs of the reference C implementation for seed 0 and
        // seed 1234567.
        let mut z = SplitMix64::new(0);
        assert_eq!(z.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(z.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut s = SplitMix64::new(1_234_567);
        assert_eq!(s.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(s.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(SplitMix64::hash(0), 0xe220_a839_7b1d_cdaf, "hash = first output");
    }
}
