//! The Whetstone synthetic floating-point benchmark (Curnow & Wichmann,
//! 1976), reimplemented from the classic C translation. Scores are MWIPS —
//! millions of Whetstone instructions per second.
//!
//! The kernel is the real workload the paper's Figure 2a runs;
//! [`crate::micro`] *predicts* per-profile MWIPS, while this module
//! *measures* them on the host as the model's sanity anchor.

use std::hint::black_box;
use std::time::Instant;

/// Result of one Whetstone run.
#[derive(Debug, Clone, Copy)]
pub struct WhetstoneResult {
    /// Completed loop count (each loop ≈ one million Whetstone instructions).
    pub loops: u32,
    /// Wall time, seconds.
    pub elapsed_s: f64,
    /// Millions of Whetstone instructions per second.
    pub mwips: f64,
    /// Checksum defeating dead-code elimination; also validated by tests.
    pub checksum: f64,
}

const T: f64 = 0.499_975;
const T2: f64 = 2.0;

struct State {
    e1: [f64; 4],
    x: f64,
    y: f64,
    z: f64,
}

/// Module 3: array-as-parameter arithmetic.
fn pa(e: &mut [f64; 4]) {
    for _ in 0..6 {
        e[0] = (e[0] + e[1] + e[2] - e[3]) * T;
        e[1] = (e[0] + e[1] - e[2] + e[3]) * T;
        e[2] = (e[0] - e[1] + e[2] + e[3]) * T;
        e[3] = (-e[0] + e[1] + e[2] + e[3]) / T2;
    }
}

/// Modules 6/11 helper: integer-ish arithmetic through floats.
fn p3(x: f64, y: f64, z: &mut f64) {
    let x1 = T * (*z + x);
    let y1 = T * (x1 + y);
    *z = (x1 + y1) / T2;
}

fn p0(e1: &mut [f64; 4], j: usize, k: usize, l: usize) {
    e1[j] = e1[k];
    e1[k] = e1[l];
    e1[l] = e1[j];
}

/// Runs `loops` Whetstone loops and reports MWIPS.
pub fn run(loops: u32) -> WhetstoneResult {
    let start = Instant::now();
    let mut s = State { e1: [1.0, -1.0, -1.0, -1.0], x: 0.0, y: 0.0, z: 0.0 };
    // Classic loop weights for the 100 kWhet inner iteration.
    let n6 = 210 * loops;
    let n8 = 899 * loops;
    let n9 = 616 * loops;
    let n10 = 0;
    let n11 = 93 * loops;
    for _ in 0..loops {
        // Module 1: simple identifiers
        s.x = 1.0;
        s.y = -1.0;
        s.z = -1.0;
        let mut x1 = 1.0f64;
        for _ in 0..(12 * loops).min(12_000) {
            x1 = (x1 + s.y + s.z - s.x) * T;
            s.y = (x1 + s.y - s.z + s.x) * T;
            s.z = (x1 - s.y + s.z + s.x) * T;
            s.x = (-x1 + s.y + s.z + s.x) * T;
        }
        // Module 2/3: array elements & parameters
        s.e1 = [1.0, -1.0, -1.0, -1.0];
        for _ in 0..140 {
            pa(&mut s.e1);
        }
        // Module 7: trig
        s.x = 0.5;
        s.y = 0.5;
        for i in 1..=(32 * loops).min(3_200) {
            let i = i as f64;
            s.x = T * ((s.x + s.y).sin().atan2((s.x * s.y).cos()) * T2 / (i + 1.0)).abs();
            s.y = T * ((s.x - s.y).cos().atan2((s.x * s.y).sin()) * T2 / (i + 1.0)).abs();
        }
        // Module 8: procedure calls
        s.x = 1.0;
        s.y = 1.0;
        s.z = 1.0;
        for _ in 0..n8 {
            p3(s.x, s.y, &mut s.z);
        }
        // Module 6: integer arithmetic through indices
        let (mut j, mut k, mut l) = (1usize, 2usize, 3usize);
        for _ in 0..n6 {
            j = (j * (k - j) * (l - k)) % 4;
            k = (l * k - (l - j) * k) % 4;
            l = ((l - k) * (k + j)).max(1) % 4;
            s.e1[l.min(3)] = (j + k + l) as f64;
            s.e1[k.min(3)] = j as f64 * (k as f64) * (l as f64);
        }
        // Module 9: permutation procedure
        for _ in 0..n9 {
            p0(&mut s.e1, 0, 1, 2);
        }
        // Module 11: standard functions
        s.x = 0.75;
        for _ in 0..n11 {
            s.x = (s.x.ln() / s.x.exp().ln().max(1e-9)).sqrt().max(0.1);
        }
        let _ = n10;
        black_box(&s.e1);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let checksum = s.x + s.y + s.z + s.e1.iter().sum::<f64>();
    WhetstoneResult {
        loops,
        elapsed_s: elapsed,
        mwips: loops as f64 / elapsed.max(1e-9),
        checksum: black_box(checksum),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_finite_checksum() {
        let r = run(2);
        assert!(r.checksum.is_finite(), "checksum {}", r.checksum);
        assert!(r.mwips > 0.0);
        assert_eq!(r.loops, 2);
    }

    #[test]
    fn deterministic_checksum_across_runs() {
        let a = run(2).checksum;
        let b = run(2).checksum;
        assert_eq!(a, b, "kernel must be deterministic");
    }

    #[test]
    fn more_loops_take_longer() {
        let small = run(1);
        let big = run(8);
        assert!(big.elapsed_s > small.elapsed_s);
    }
}
