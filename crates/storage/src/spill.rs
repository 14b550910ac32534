//! A deterministic simulated spill disk with checksums and fault injection.
//!
//! The paper's §III-C2/§III-C4 story is that a swap-off wimpy node either
//! fits its working set or dies. The governor reproduces the cliff (Grace
//! partitioning, then a typed `ResourceExhausted`); this module is the tier
//! *past* the cliff: a bounded-capacity [`SpillDisk`] that operators stage
//! partitions on when even Grace cannot shrink the working set (DESIGN.md
//! §16).
//!
//! Everything is simulated in RAM, but the contract is a disk's contract:
//!
//! - **Bounded capacity.** Writes beyond `capacity_bytes` fail with
//!   [`SpillError::DiskFull`]; the engine escalates that to its existing
//!   typed `ResourceExhausted` error.
//! - **Checksummed chunks.** Every chunk's CRC32C (the [`crate::checksum`]
//!   kernel) is recorded at write time and re-verified on every read.
//! - **Seeded fault injection.** Reads may observe torn (truncated) or
//!   bit-flipped views and slow-I/O stragglers. Faults are decided by a
//!   [splitmix64](https://prng.di.unimi.it/splitmix64.c) hash of
//!   `(seed, kind, chunk, attempt)` — order- and thread-count-independent,
//!   so a given seed corrupts exactly the same read attempts no matter how
//!   the surrounding query is scheduled. The *stored* bytes are never
//!   damaged (the model is a flaky microSD read path, not media decay), so
//!   a verified retry eventually returns true bytes; [`SpillDisk::read`]
//!   retries internally with priced backoff and only escalates to
//!   [`SpillError::Unreadable`] after `max_read_retries` failed attempts.
//! - **Priced I/O.** Every transfer accumulates simulated seconds at the
//!   configured MB/s (callers pass the hwsim microSD constant, ≈ 80 MB/s);
//!   stragglers and retries add their own priced delay. No wall-clock
//!   sleeping happens — the cost model is the point, not the latency.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::checksum::crc32c;
use crate::splitmix::SplitMix64;

/// Default cap on verified re-reads of one chunk before the read escalates.
pub const DEFAULT_MAX_READ_RETRIES: u32 = 8;

/// A slow-I/O straggler multiplies the transfer's priced time by this much
/// extra (mirrors the cluster `MemoryModel`'s refault factor of 4).
const STRAGGLER_FACTOR: f64 = 4.0;

/// Seeded fault-injection knobs. A rate of `0` disables that fault kind;
/// a rate of `n` fires on roughly 1-in-`n` decisions, chosen by a
/// deterministic hash of `(seed, kind, chunk, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillFaults {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// 1-in-`n` chunk read attempts observe a torn (truncated) view.
    pub torn_every: u64,
    /// 1-in-`n` chunk read attempts observe a single flipped bit.
    pub corrupt_every: u64,
    /// 1-in-`n` transfers are slow-I/O stragglers (priced, never slept).
    pub slow_every: u64,
}

impl SpillFaults {
    /// No injected faults (reads always verify on the first attempt).
    pub fn none() -> Self {
        SpillFaults { seed: 0, torn_every: 0, corrupt_every: 0, slow_every: 0 }
    }

    /// All three fault kinds at 1-in-`every`, decided from `seed`.
    pub fn every(seed: u64, every: u64) -> Self {
        SpillFaults { seed, torn_every: every, corrupt_every: every, slow_every: every }
    }
}

impl Default for SpillFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// Configuration of a [`SpillDisk`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillConfig {
    /// Total bytes the disk holds; writes past this fail with
    /// [`SpillError::DiskFull`].
    pub capacity_bytes: u64,
    /// Sustained read bandwidth, MB/s (callers pass the hwsim microSD
    /// constant; the default matches its 80 MB/s).
    pub read_mbps: f64,
    /// Sustained write bandwidth, MB/s.
    pub write_mbps: f64,
    /// Verified re-reads of one chunk before [`SpillDisk::read`] gives up.
    pub max_read_retries: u32,
    /// Injected-fault knobs.
    pub faults: SpillFaults,
}

impl SpillConfig {
    /// A fault-free disk of `capacity_bytes` at microSD-like bandwidth.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        SpillConfig {
            capacity_bytes,
            read_mbps: 80.0,
            write_mbps: 80.0,
            max_read_retries: DEFAULT_MAX_READ_RETRIES,
            faults: SpillFaults::none(),
        }
    }

    /// Overrides both transfer rates (MB/s).
    pub fn with_rates(mut self, read_mbps: f64, write_mbps: f64) -> Self {
        self.read_mbps = read_mbps;
        self.write_mbps = write_mbps;
        self
    }

    /// Installs fault-injection knobs.
    pub fn with_faults(mut self, faults: SpillFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the per-chunk read retry cap.
    pub fn with_max_read_retries(mut self, retries: u32) -> Self {
        self.max_read_retries = retries;
        self
    }
}

/// Handle to one written chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpillChunkId(u64);

impl SpillChunkId {
    /// The raw chunk number (sequential from 0 per disk).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Errors a spill disk can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// The write does not fit the remaining capacity.
    DiskFull {
        /// Bytes the write asked for.
        requested: u64,
        /// Bytes currently occupied.
        used: u64,
        /// The disk's total capacity.
        capacity: u64,
    },
    /// Every read attempt (initial + retries) failed checksum verification.
    Unreadable {
        /// The chunk that could not be read back.
        chunk: u64,
        /// The CRC32C recorded at write time.
        expected: u32,
        /// The CRC32C of the last corrupted view.
        actual: u32,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The chunk id is unknown (already freed, or never written).
    UnknownChunk {
        /// The offending chunk id.
        chunk: u64,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::DiskFull { requested, used, capacity } => {
                write!(f, "spill disk full: write of {requested} B with {used}/{capacity} B used")
            }
            SpillError::Unreadable { chunk, expected, actual, attempts } => write!(
                f,
                "spill chunk {chunk} unreadable after {attempts} attempts: \
                 expected crc32c {expected:#010x}, last view {actual:#010x}"
            ),
            SpillError::UnknownChunk { chunk } => write!(f, "unknown spill chunk {chunk}"),
        }
    }
}

impl std::error::Error for SpillError {}

/// Monotonic counters a [`SpillDisk`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillCounters {
    /// Bytes accepted by [`SpillDisk::write`] (the `spilled_bytes` ledger).
    pub spilled_bytes: u64,
    /// Verified re-reads forced by corrupted views.
    pub read_retries: u64,
    /// Checksum mismatches detected at read time (each retry that was
    /// forced detected exactly one corruption first).
    pub corruptions_detected: u64,
    /// Chunks written.
    pub chunks_written: u64,
    /// Successful chunk reads.
    pub chunk_reads: u64,
    /// Slow-I/O stragglers priced in.
    pub stragglers: u64,
}

impl SpillCounters {
    /// Per-counter difference `self - before` (counters only grow).
    pub fn delta_since(&self, before: &SpillCounters) -> SpillCounters {
        SpillCounters {
            spilled_bytes: self.spilled_bytes.saturating_sub(before.spilled_bytes),
            read_retries: self.read_retries.saturating_sub(before.read_retries),
            corruptions_detected: self
                .corruptions_detected
                .saturating_sub(before.corruptions_detected),
            chunks_written: self.chunks_written.saturating_sub(before.chunks_written),
            chunk_reads: self.chunk_reads.saturating_sub(before.chunk_reads),
            stragglers: self.stragglers.saturating_sub(before.stragglers),
        }
    }
}

#[derive(Debug)]
struct Chunk {
    bytes: Vec<u8>,
    crc: u32,
}

#[derive(Debug, Default)]
struct Inner {
    chunks: HashMap<u64, Chunk>,
    used: u64,
    next_id: u64,
    counters: SpillCounters,
    sim_seconds: f64,
}

/// The simulated spill disk. Shared via `Arc`; all mutation is behind one
/// mutex (spill decisions and I/O run on the coordinator thread — see the
/// determinism argument in DESIGN.md §16 — so the lock is never contended
/// on the hot path).
#[derive(Debug)]
pub struct SpillDisk {
    cfg: SpillConfig,
    inner: Mutex<Inner>,
}

/// Domain tags for fault decisions (one per fault kind and direction).
const KIND_TORN: u64 = 0x746f_726e; // "torn"
const KIND_CORRUPT: u64 = 0x666c_6970; // "flip"
const KIND_SLOW_READ: u64 = 0x736c_6f72; // "slor"
const KIND_SLOW_WRITE: u64 = 0x736c_6f77; // "slow"

/// One deterministic fault decision plus a derived offset for where the
/// fault lands inside the chunk.
fn fault_roll(seed: u64, kind: u64, chunk: u64, attempt: u32, every: u64) -> Option<u64> {
    if every == 0 {
        return None;
    }
    let h = SplitMix64::hash(
        seed ^ SplitMix64::hash(kind)
            ^ SplitMix64::hash(chunk.wrapping_mul(0x2545_F491_4F6C_DD1D))
            ^ attempt as u64,
    );
    h.is_multiple_of(every).then(|| SplitMix64::hash(h))
}

impl SpillDisk {
    /// An empty disk with the given configuration.
    pub fn new(cfg: SpillConfig) -> Self {
        SpillDisk { cfg, inner: Mutex::new(Inner::default()) }
    }

    /// The disk's configuration.
    pub fn config(&self) -> &SpillConfig {
        &self.cfg
    }

    /// Bytes currently occupied by live chunks.
    pub fn used(&self) -> u64 {
        self.inner.lock().unwrap().used
    }

    /// Snapshot of the lifetime counters.
    pub fn counters(&self) -> SpillCounters {
        self.inner.lock().unwrap().counters
    }

    /// Simulated seconds of spill I/O priced so far (transfers, stragglers,
    /// retry backoff).
    pub fn sim_seconds(&self) -> f64 {
        self.inner.lock().unwrap().sim_seconds
    }

    /// Writes `payload` as one chunk, charging capacity and priced write
    /// time. The recorded CRC32C seals the payload for read-time
    /// verification.
    pub fn write(&self, payload: &[u8]) -> Result<SpillChunkId, SpillError> {
        let mut inner = self.inner.lock().unwrap();
        let len = payload.len() as u64;
        if inner.used + len > self.cfg.capacity_bytes {
            return Err(SpillError::DiskFull {
                requested: len,
                used: inner.used,
                capacity: self.cfg.capacity_bytes,
            });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let write_s = len as f64 / (self.cfg.write_mbps * 1e6);
        inner.sim_seconds += write_s;
        let f = self.cfg.faults;
        if fault_roll(f.seed, KIND_SLOW_WRITE, id, 0, f.slow_every).is_some() {
            inner.sim_seconds += write_s * STRAGGLER_FACTOR;
            inner.counters.stragglers += 1;
        }
        inner.used += len;
        inner.counters.spilled_bytes += len;
        inner.counters.chunks_written += 1;
        inner.chunks.insert(id, Chunk { bytes: payload.to_vec(), crc: crc32c(payload) });
        Ok(SpillChunkId(id))
    }

    /// Reads a chunk back, verifying its checksum. Corrupted views (torn or
    /// bit-flipped by fault injection) are detected, counted, and retried
    /// with priced backoff up to `max_read_retries` times; only then does
    /// the read escalate to [`SpillError::Unreadable`].
    pub fn read(&self, id: SpillChunkId) -> Result<Vec<u8>, SpillError> {
        let mut inner = self.inner.lock().unwrap();
        let Some(chunk) = inner.chunks.get(&id.0) else {
            return Err(SpillError::UnknownChunk { chunk: id.0 });
        };
        let (bytes, expected) = (chunk.bytes.clone(), chunk.crc);
        let len = bytes.len() as u64;
        let read_s = len as f64 / (self.cfg.read_mbps * 1e6);
        let f = self.cfg.faults;
        let mut last_actual = expected;
        for attempt in 0..=self.cfg.max_read_retries {
            inner.sim_seconds += read_s;
            if fault_roll(f.seed, KIND_SLOW_READ, id.0, attempt, f.slow_every).is_some() {
                inner.sim_seconds += read_s * STRAGGLER_FACTOR;
                inner.counters.stragglers += 1;
            }
            // Faults damage the *view*, never the stored bytes: build the
            // bytes this attempt observes.
            let mut view = std::borrow::Cow::Borrowed(&bytes[..]);
            if !view.is_empty() {
                if let Some(r) = fault_roll(f.seed, KIND_TORN, id.0, attempt, f.torn_every) {
                    let cut = (r % len) as usize; // strict prefix
                    view = std::borrow::Cow::Owned(view[..cut].to_vec());
                }
                if !view.is_empty() {
                    if let Some(r) =
                        fault_roll(f.seed, KIND_CORRUPT, id.0, attempt, f.corrupt_every)
                    {
                        let mut owned = view.into_owned();
                        let pos = (r % owned.len() as u64) as usize;
                        owned[pos] ^= 1 << ((r >> 17) % 8);
                        view = std::borrow::Cow::Owned(owned);
                    }
                }
            }
            let actual = crc32c(&view);
            if actual == expected && view.len() == bytes.len() {
                inner.counters.chunk_reads += 1;
                return Ok(bytes);
            }
            inner.counters.corruptions_detected += 1;
            last_actual = actual;
            if attempt < self.cfg.max_read_retries {
                inner.counters.read_retries += 1;
                // Priced linear backoff: each retry waits one extra transfer
                // time longer before re-reading.
                inner.sim_seconds += read_s * (attempt as f64 + 1.0);
            }
        }
        Err(SpillError::Unreadable {
            chunk: id.0,
            expected,
            actual: last_actual,
            attempts: self.cfg.max_read_retries + 1,
        })
    }

    /// Releases a chunk's capacity. Returns whether the chunk was live.
    pub fn free(&self, id: SpillChunkId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.chunks.remove(&id.0) {
            Some(c) => {
                inner.used -= c.bytes.len() as u64;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn disk(capacity: u64) -> SpillDisk {
        SpillDisk::new(SpillConfig::with_capacity(capacity))
    }

    #[test]
    fn write_read_free_roundtrip() {
        let d = disk(1 << 20);
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let id = d.write(&payload).unwrap();
        assert_eq!(d.used(), 1000);
        assert_eq!(d.read(id).unwrap(), payload);
        assert_eq!(d.counters().spilled_bytes, 1000);
        assert_eq!(d.counters().chunk_reads, 1);
        assert_eq!(d.counters().read_retries, 0);
        assert!(d.free(id));
        assert_eq!(d.used(), 0);
        assert!(!d.free(id), "double free reports dead chunk");
        assert!(matches!(d.read(id), Err(SpillError::UnknownChunk { .. })));
    }

    #[test]
    fn disk_full_is_typed_and_leaves_state_unchanged() {
        let d = disk(100);
        let id = d.write(&[7u8; 60]).unwrap();
        let err = d.write(&[8u8; 60]).unwrap_err();
        assert_eq!(err, SpillError::DiskFull { requested: 60, used: 60, capacity: 100 });
        assert_eq!(d.used(), 60, "rejected write leaves occupancy untouched");
        assert_eq!(d.counters().spilled_bytes, 60);
        d.free(id);
        assert!(d.write(&[8u8; 60]).is_ok(), "freeing makes room");
    }

    #[test]
    fn io_is_priced_at_configured_rates() {
        let d = SpillDisk::new(SpillConfig::with_capacity(1 << 20).with_rates(80.0, 40.0));
        let id = d.write(&vec![1u8; 400_000]).unwrap();
        let after_write = d.sim_seconds();
        assert!((after_write - 0.01).abs() < 1e-9, "400 KB at 40 MB/s = 10 ms");
        d.read(id).unwrap();
        assert!((d.sim_seconds() - after_write - 0.005).abs() < 1e-9, "400 KB at 80 MB/s = 5 ms");
    }

    #[test]
    fn injected_corruption_is_detected_and_retried_to_success() {
        // High fault rates: many reads corrupt on some attempt, yet every
        // read ends in verified true bytes because the stored chunk is
        // undamaged and retries re-roll the fault decision.
        let cfg = SpillConfig::with_capacity(1 << 20)
            .with_faults(SpillFaults::every(42, 3))
            .with_max_read_retries(16);
        let d = SpillDisk::new(cfg);
        let payloads: Vec<Vec<u8>> =
            (0..32u8).map(|k| (0..200).map(|i| (i as u8).wrapping_mul(k + 1)).collect()).collect();
        let ids: Vec<_> = payloads.iter().map(|p| d.write(p).unwrap()).collect();
        for (id, want) in ids.iter().zip(&payloads) {
            assert_eq!(&d.read(*id).unwrap(), want, "verified read returns true bytes");
        }
        let c = d.counters();
        assert!(c.corruptions_detected > 0, "1-in-3 fault rate must corrupt some views");
        assert_eq!(c.read_retries, c.corruptions_detected, "every detection forced one retry");
        assert_eq!(c.chunk_reads, 32, "every chunk was eventually read");
    }

    #[test]
    fn fault_decisions_are_deterministic_and_order_independent() {
        let cfg = SpillConfig::with_capacity(1 << 20).with_faults(SpillFaults::every(7, 3));
        let run = |order: &[usize]| {
            let d = SpillDisk::new(cfg);
            let ids: Vec<_> = (0..8u8).map(|k| d.write(&[k; 64]).unwrap()).collect();
            for &i in order {
                d.read(ids[i]).unwrap();
            }
            d.counters()
        };
        let fwd = run(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let rev = run(&[7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(fwd, rev, "fault schedule is keyed on chunk ids, not call order");
    }

    #[test]
    fn persistent_corruption_escalates_to_unreadable() {
        // corrupt_every = 1: every attempt observes a flipped bit, so the
        // retry budget runs out and the read escalates with both checksums.
        let cfg = SpillConfig::with_capacity(1 << 20)
            .with_faults(SpillFaults { seed: 1, torn_every: 0, corrupt_every: 1, slow_every: 0 })
            .with_max_read_retries(3);
        let d = SpillDisk::new(cfg);
        let id = d.write(&[9u8; 128]).unwrap();
        match d.read(id).unwrap_err() {
            SpillError::Unreadable { chunk, expected, actual, attempts } => {
                assert_eq!(chunk, id.id());
                assert_eq!(attempts, 4);
                assert_ne!(expected, actual);
            }
            other => panic!("expected Unreadable, got {other:?}"),
        }
        assert_eq!(d.counters().corruptions_detected, 4);
        assert_eq!(d.counters().read_retries, 3, "retries stop at the cap");
    }

    #[test]
    fn torn_views_are_never_accepted() {
        // torn_every = 1 truncates every view; with retries exhausted the
        // read must fail rather than return a short buffer.
        let cfg = SpillConfig::with_capacity(1 << 20)
            .with_faults(SpillFaults { seed: 3, torn_every: 1, corrupt_every: 0, slow_every: 0 })
            .with_max_read_retries(2);
        let d = SpillDisk::new(cfg);
        let id = d.write(&[5u8; 256]).unwrap();
        assert!(matches!(d.read(id), Err(SpillError::Unreadable { .. })));
    }

    #[test]
    fn retries_and_stragglers_are_priced() {
        let clean = SpillDisk::new(SpillConfig::with_capacity(1 << 20));
        let faulty = SpillDisk::new(
            SpillConfig::with_capacity(1 << 20).with_faults(SpillFaults::every(11, 2)),
        );
        for d in [&clean, &faulty] {
            let ids: Vec<_> = (0..16u8).map(|k| d.write(&[k; 4096]).unwrap()).collect();
            for id in ids {
                d.read(id).unwrap();
            }
        }
        assert!(
            faulty.sim_seconds() > clean.sim_seconds(),
            "stragglers and retry backoff must cost simulated time"
        );
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let d = SpillDisk::new(
            SpillConfig::with_capacity(1 << 10).with_faults(SpillFaults::every(5, 1)),
        );
        let id = d.write(&[]).unwrap();
        assert_eq!(d.read(id).unwrap(), Vec::<u8>::new(), "faults cannot damage zero bytes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-tripping arbitrary payloads through a faulty disk is the
        /// identity whenever the read verifies — the spill tier never
        /// silently hands corrupted partitions back to an operator.
        #[test]
        fn faulty_roundtrip_is_identity(
            len in 0usize..2048,
            seed in 0u64..1_000_000,
            every in 2u64..5,
        ) {
            let mut s = seed | 1;
            let payload: Vec<u8> = (0..len)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 56) as u8
                })
                .collect();
            let d = SpillDisk::new(
                SpillConfig::with_capacity(1 << 22)
                    .with_faults(SpillFaults::every(seed, every)),
            );
            let id = d.write(&payload).unwrap();
            if let Ok(back) = d.read(id) {
                prop_assert_eq!(back, payload);
            }
            prop_assert!(d.free(id));
            prop_assert_eq!(d.used(), 0);
        }
    }
}
