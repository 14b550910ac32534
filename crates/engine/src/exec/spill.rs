//! Shared plumbing for out-of-core execution (DESIGN.md §16).
//!
//! When in-memory partitioning cannot shrink an operator's working set under
//! the budget, the ladder (join, aggregate) and the external sort stage
//! partition inputs on the query's [`SpillDisk`] and stream them back one at
//! a time. This module holds what they share: the fixed row wire format, the
//! RAII chunk set that guarantees spill capacity is released on every exit
//! path, and the mapping from [`SpillError`] onto the engine's existing
//! typed errors (no new variants — a full disk is resource exhaustion, an
//! unreadable chunk is an integrity failure on the synthetic `__spill`
//! table).

use wimpi_storage::spill::{SpillChunkId, SpillDisk, SpillError};

use super::partition::Buckets;
use crate::error::EngineError;
use crate::governor::QueryContext;
use crate::stats::WorkProfile;

/// The ladder's cap with a spill disk attached (`MAX_GRACE_PARTS` without).
/// A hot key that still does not fit at this fan-out cannot be split by
/// hashing at all, so the ladder raises the same typed `ResourceExhausted`
/// it raises without a disk.
pub(super) const MAX_SPILL_PARTS: usize = 1 << 16;

/// Serialized spill rows are `(global row id, key slots)`:
/// a little-endian `u32` followed by `nkeys` little-endian `i64`s.
pub(super) fn spill_row_bytes(nkeys: usize) -> usize {
    4 + 8 * nkeys
}

/// Appends one row to a partition staging buffer.
#[inline]
pub(super) fn encode_spill_row(buf: &mut Vec<u8>, row: u32, slots: &[&[i64]], i: usize) {
    buf.extend_from_slice(&row.to_le_bytes());
    for col in slots {
        buf.extend_from_slice(&col[i].to_le_bytes());
    }
}

/// Iterates `(row, key slots)` pairs out of a verified spill chunk, which it
/// owns. The scratch slot buffer is reused across rows (callers copy what
/// they keep).
pub(super) struct SpillRowReader {
    bytes: Vec<u8>,
    pos: usize,
    slots: Vec<i64>,
}

impl SpillRowReader {
    pub(super) fn new(bytes: Vec<u8>, nkeys: usize) -> Self {
        debug_assert_eq!(bytes.len() % spill_row_bytes(nkeys), 0);
        SpillRowReader { bytes, pos: 0, slots: vec![0; nkeys] }
    }

    /// The next `(row, slots)` pair, or `None` at the end of the chunk.
    #[allow(clippy::should_implement_trait)] // lending iterator: borrows self
    pub(super) fn next(&mut self) -> Option<(u32, &[i64])> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let row = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        for s in self.slots.iter_mut() {
            *s = i64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().unwrap());
            self.pos += 8;
        }
        Some((row, &self.slots))
    }
}

/// Maps a spill-disk failure onto the engine's existing typed errors.
///
/// - `DiskFull` → `ResourceExhausted` whose operator names the spill disk,
///   so callers (and the bench's rung classifier) can tell "budget too
///   small" from "disk too small" while reusing one error shape.
/// - `Unreadable` → `Integrity` on the synthetic table `__spill` (the
///   operator name travels in the column field), carrying both checksums.
pub(super) fn spill_to_engine(e: SpillError, operator: &str) -> EngineError {
    match e {
        SpillError::DiskFull { requested, capacity, .. } => EngineError::ResourceExhausted {
            requested,
            budget: capacity,
            operator: format!("{operator} (spill disk full)"),
        },
        SpillError::Unreadable { chunk, expected, actual, .. } => EngineError::Integrity {
            table: "__spill".to_string(),
            column: operator.to_string(),
            chunk: chunk as usize,
            expected,
            actual,
        },
        SpillError::UnknownChunk { chunk } => {
            EngineError::Plan(format!("{operator}: spill chunk {chunk} vanished"))
        }
    }
}

/// Folds a spill-counter delta into an operator's work profile. Spill
/// traffic is deliberately *not* mirrored into `seq_read/write_bytes`: the
/// roofline prices those at memory bandwidth, while `spilled_bytes` is
/// priced separately at microSD bandwidth by `modeled_spill_penalty`.
pub(super) fn note_spill_delta(prof: &mut WorkProfile, delta: wimpi_storage::spill::SpillCounters) {
    prof.spilled_bytes += delta.spilled_bytes;
    prof.spill_read_retries += delta.read_retries;
    prof.spill_corruptions_detected += delta.corruptions_detected;
}

/// The chunks one operator invocation staged on the spill disk. Dropping
/// the set frees every chunk, so capacity is returned on success, on error
/// escalation, and on fan-out restarts alike.
pub(super) struct SpillSet<'a> {
    disk: &'a SpillDisk,
    operator: &'a str,
    ids: Vec<SpillChunkId>,
}

impl<'a> SpillSet<'a> {
    pub(super) fn new(ctx: &'a QueryContext, operator: &'a str) -> Option<Self> {
        ctx.spill().map(|disk| SpillSet { disk, operator, ids: Vec::new() })
    }

    /// Writes one chunk, returning its index within this set.
    pub(super) fn write(&mut self, payload: &[u8]) -> crate::error::Result<usize> {
        let id = self.disk.write(payload).map_err(|e| spill_to_engine(e, self.operator))?;
        self.ids.push(id);
        Ok(self.ids.len() - 1)
    }

    /// Stages one operator input's partition routing: one chunk per non-empty
    /// partition, in partition order, holding the `(row id, key slots)` record
    /// of each of its rows in ascending row order. Returns each partition's
    /// chunk index. The staging buffer is a transient sequential write —
    /// tracked, not capped.
    pub(super) fn stage(
        &mut self,
        buckets: &Buckets,
        slots: &[&[i64]],
        ctx: &QueryContext,
    ) -> crate::error::Result<Vec<Option<usize>>> {
        ctx.track((buckets.max_len() * spill_row_bytes(slots.len())) as u64);
        let mut buf = Vec::new();
        (0..buckets.nparts())
            .map(|p| {
                let rows = buckets.rows(p);
                if rows.is_empty() {
                    return Ok(None);
                }
                buf.clear();
                for &row in rows {
                    encode_spill_row(&mut buf, row, slots, row as usize);
                }
                self.write(&buf).map(Some)
            })
            .collect()
    }

    /// Reads chunk `idx` back; checksum verification and priced retries
    /// happen inside the disk.
    pub(super) fn read(&self, idx: usize) -> crate::error::Result<Vec<u8>> {
        self.disk.read(self.ids[idx]).map_err(|e| spill_to_engine(e, self.operator))
    }
}

impl Drop for SpillSet<'_> {
    fn drop(&mut self) {
        for id in self.ids.drain(..) {
            self.disk.free(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wimpi_storage::spill::SpillConfig;

    #[test]
    #[allow(clippy::needless_range_loop)] // `i` walks rows and columns alike
    fn row_codec_roundtrips() {
        let slots: [&[i64]; 2] = [&[1, -5, i64::MAX], &[7, 0, i64::MIN]];
        let mut buf = Vec::new();
        for i in 0..3 {
            encode_spill_row(&mut buf, i as u32 * 10, &slots, i);
        }
        assert_eq!(buf.len(), 3 * spill_row_bytes(2));
        let mut r = SpillRowReader::new(buf, 2);
        for i in 0..3 {
            let (row, s) = r.next().unwrap();
            assert_eq!(row, i as u32 * 10);
            assert_eq!(s, &[slots[0][i], slots[1][i]]);
        }
        assert!(r.next().is_none());
    }

    #[test]
    fn spill_set_frees_chunks_on_drop() {
        let disk = Arc::new(SpillDisk::new(SpillConfig::with_capacity(1 << 16)));
        let ctx = QueryContext::new().with_spill(Arc::clone(&disk));
        {
            let mut set = SpillSet::new(&ctx, "test").unwrap();
            set.write(&[1u8; 100]).unwrap();
            set.write(&[2u8; 200]).unwrap();
            assert_eq!(disk.used(), 300);
            assert_eq!(set.read(0).unwrap(), vec![1u8; 100]);
        }
        assert_eq!(disk.used(), 0, "drop returns all spill capacity");
        assert_eq!(disk.counters().spilled_bytes, 300, "ledger keeps lifetime totals");
    }

    #[test]
    fn disk_full_maps_to_resource_exhausted_with_spill_marker() {
        let disk = Arc::new(SpillDisk::new(SpillConfig::with_capacity(64)));
        let ctx = QueryContext::new().with_spill(disk);
        let mut set = SpillSet::new(&ctx, "join build").unwrap();
        match set.write(&[0u8; 128]).unwrap_err() {
            EngineError::ResourceExhausted { requested, budget, operator } => {
                assert_eq!(requested, 128);
                assert_eq!(budget, 64);
                assert!(operator.contains("spill disk full"), "operator was {operator:?}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn unreadable_maps_to_integrity_on_the_spill_table() {
        use wimpi_storage::spill::SpillFaults;
        let cfg = SpillConfig::with_capacity(1 << 16)
            .with_faults(SpillFaults { seed: 1, torn_every: 0, corrupt_every: 1, slow_every: 0 })
            .with_max_read_retries(2);
        let disk = Arc::new(SpillDisk::new(cfg));
        let ctx = QueryContext::new().with_spill(disk);
        let mut set = SpillSet::new(&ctx, "aggregate").unwrap();
        let idx = set.write(&[9u8; 64]).unwrap();
        match set.read(idx).unwrap_err() {
            EngineError::Integrity { table, column, expected, actual, .. } => {
                assert_eq!(table, "__spill");
                assert_eq!(column, "aggregate");
                assert_ne!(expected, actual);
            }
            other => panic!("expected Integrity, got {other:?}"),
        }
    }
}
