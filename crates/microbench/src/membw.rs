//! The sysbench `memory` workload: sequential read bandwidth over a large
//! buffer (Figure 2d's kernel).

use std::hint::black_box;
use std::time::Instant;

/// Result of one bandwidth probe.
#[derive(Debug, Clone, Copy)]
pub struct MembwResult {
    /// Buffer size in bytes.
    pub buffer_bytes: usize,
    /// Passes over the buffer.
    pub passes: u32,
    /// Wall time, seconds.
    pub elapsed_s: f64,
    /// Measured sequential read bandwidth, GB/s.
    pub read_gbs: f64,
    /// Anti-DCE checksum.
    pub checksum: u64,
}

/// Streams `passes` sequential-read passes over a `buffer_bytes` buffer.
///
/// The buffer is initialized with a cheap LCG so the pages are resident and
/// non-zero; reads are 8-byte strided sums, the same access pattern the
/// engine's column scans produce.
pub fn read_bandwidth(buffer_bytes: usize, passes: u32) -> MembwResult {
    let words = (buffer_bytes / 8).max(1);
    let mut buf: Vec<u64> = Vec::with_capacity(words);
    let mut state = 0x2545F491_4F6CDD1Du64;
    for _ in 0..words {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        buf.push(state);
    }
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..passes {
        let mut acc = 0u64;
        for &w in &buf {
            acc = acc.wrapping_add(w);
        }
        checksum = checksum.wrapping_add(black_box(acc));
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let bytes = words as f64 * 8.0 * passes as f64;
    MembwResult {
        buffer_bytes: words * 8,
        passes,
        elapsed_s: elapsed,
        read_gbs: bytes / elapsed / 1e9,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_positive_and_checksum_stable() {
        let a = read_bandwidth(1 << 20, 4);
        let b = read_bandwidth(1 << 20, 4);
        assert!(a.read_gbs > 0.0);
        assert_eq!(a.checksum, b.checksum, "same buffer contents, same checksum");
        assert_eq!(a.buffer_bytes, 1 << 20);
    }

    #[test]
    fn more_passes_scale_time_roughly_linearly() {
        // Fastest of five probes each: preemption on a loaded host can only
        // inflate a sample, so the minimum is the one it cannot move.
        let fastest = |passes| {
            (0..5).map(|_| read_bandwidth(4 << 20, passes).elapsed_s).fold(f64::INFINITY, f64::min)
        };
        let (two, eight) = (fastest(2), fastest(8));
        assert!(eight > two * 1.5, "8 passes took {eight} s, 2 passes {two} s");
    }
}
