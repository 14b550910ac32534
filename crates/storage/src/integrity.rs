//! Per-table integrity manifests: CRC32C checksums over every
//! morsel-aligned column chunk, sealed at generation/load time and verified
//! at scan time (DESIGN.md §12).
//!
//! The threat model is the paper's own hardware: Raspberry-Pi-class nodes
//! with non-ECC LPDDR and microSD storage, where a silently flipped bit in
//! one resident column chunk would otherwise poison a cluster-wide aggregate
//! undetected. Chunks are aligned to [`DEFAULT_MORSEL_ROWS`] so a detected
//! violation names exactly the work unit the engine schedules — and exactly
//! the unit wimpi-tpch's chunk-deterministic generator can recompute for
//! repair.
//!
//! This module also hosts the *seeded corruption helpers* used by
//! `cluster::faults::FaultKind::BitFlip` and the test suite. They are
//! deliberately silent: each returns a corrupted **copy** (never an error,
//! never a panic — dictionary codes are re-clamped into range and string
//! bytes stay ASCII so downstream operators read wrong bytes, not UB).

use std::ops::Range;

use crate::checksum::Crc32c;
use crate::column::Column;
use crate::dict::DictColumn;
use crate::morsel::{morsel_ranges, DEFAULT_MORSEL_ROWS};
use crate::splitmix::SplitMix64;
use crate::table::Table;

/// Domain-separation salts for the three corruption helpers, so one seed
/// drives independent draw streams.
const DATA_SALT: u64 = 0x1d27_2bd7_35b1_6e9b;
const DICT_SALT: u64 = 0x8b5f_0d3a_6c21_94e7;
const MANIFEST_SALT: u64 = 0x42f0_e1eb_a9ea_3693;

/// The pseudo column name a manifest self-check violation is reported
/// against (the manifest itself was corrupted, not any data chunk).
pub const MANIFEST_PSEUDO_COLUMN: &str = "__manifest__";

/// One detected checksum mismatch: the scan found `actual` where the sealed
/// manifest recorded `expected`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// Column the corrupt chunk belongs to ([`MANIFEST_PSEUDO_COLUMN`] when
    /// the manifest itself failed its self-check).
    pub column: String,
    /// Morsel-aligned chunk index; `chunks.len()` is the dictionary
    /// pseudo-chunk of a string column (the dictionary is shared by every
    /// chunk, so it is checksummed once, after the per-chunk codes).
    pub chunk: usize,
    /// The sealed checksum.
    pub expected: u32,
    /// The recomputed checksum.
    pub actual: u32,
}

/// Sealed checksums for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnChecksums {
    /// Column name (matches the table schema).
    pub name: String,
    /// One CRC32C per morsel-aligned chunk of the column's fixed-width
    /// payload (dictionary *codes* for string columns).
    pub chunks: Vec<u32>,
    /// CRC32C of the shared dictionary (string columns only).
    pub dict: Option<u32>,
}

/// A per-table integrity manifest: per-column, per-morsel-aligned-chunk
/// CRC32C checksums plus a self-checksum so corruption of the manifest
/// itself is also detectable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityManifest {
    chunk_rows: usize,
    columns: Vec<ColumnChecksums>,
    self_checksum: u32,
}

impl IntegrityManifest {
    /// Seals a manifest over `table` at the default morsel granularity.
    pub fn seal(table: &Table) -> Self {
        Self::seal_with(table, DEFAULT_MORSEL_ROWS)
    }

    /// Seals a manifest with an explicit chunk size (tests use small chunks
    /// to exercise multi-chunk paths cheaply).
    pub fn seal_with(table: &Table, chunk_rows: usize) -> Self {
        let columns = table
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| seal_column(&f.name, table.column(i), chunk_rows))
            .collect();
        Self::from_columns(chunk_rows, columns)
    }

    /// The manifest over columns sealed one by one ([`seal_column`]), in
    /// schema order — how `Catalog::seal_integrity` seals every column of
    /// every table as a task of its own.
    pub(crate) fn from_columns(chunk_rows: usize, columns: Vec<ColumnChecksums>) -> Self {
        let mut m = Self { chunk_rows, columns, self_checksum: 0 };
        m.self_checksum = m.fingerprint();
        m
    }

    /// Rows per checksummed chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The sealed per-column checksums, in schema order.
    pub fn columns(&self) -> &[ColumnChecksums] {
        &self.columns
    }

    /// The sealed checksums for one column.
    pub fn column(&self, name: &str) -> Option<&ColumnChecksums> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Total chunk checksums held (data chunks + dictionary pseudo-chunks).
    pub fn total_chunks(&self) -> usize {
        self.columns.iter().map(|c| c.chunks.len() + usize::from(c.dict.is_some())).sum()
    }

    /// True when the manifest's own bytes still hash to the checksum sealed
    /// over them — a bit flip *inside the manifest* fails this before any
    /// data chunk is (falsely) accused.
    pub fn verify_self(&self) -> bool {
        self.fingerprint() == self.self_checksum
    }

    /// Recomputes and compares every chunk of `col` against the sealed
    /// values. Returns the number of chunk comparisons performed, or the
    /// first violation found. A column absent from the manifest verifies
    /// trivially (0 checks) — manifests only vouch for what they sealed.
    pub fn verify_column(&self, name: &str, col: &Column) -> Result<usize, IntegrityViolation> {
        let Some(sealed) = self.column(name) else { return Ok(0) };
        let mut checks = 0usize;
        for (chunk, r) in morsel_ranges(col.len(), self.chunk_rows).into_iter().enumerate() {
            let actual = chunk_checksum(col, r);
            let expected = sealed.chunks.get(chunk).copied().unwrap_or(0);
            checks += 1;
            if actual != expected {
                return Err(IntegrityViolation {
                    column: name.to_string(),
                    chunk,
                    expected,
                    actual,
                });
            }
        }
        if let (Some(expected), Column::Str(d)) = (sealed.dict, col) {
            let actual = dict_checksum(d);
            checks += 1;
            if actual != expected {
                return Err(IntegrityViolation {
                    column: name.to_string(),
                    chunk: sealed.chunks.len(),
                    expected,
                    actual,
                });
            }
        }
        Ok(checks)
    }

    /// Verifies every column of `table` (schema order). Returns total chunk
    /// comparisons or the first violation.
    pub fn verify_table(&self, table: &Table) -> Result<usize, IntegrityViolation> {
        let mut checks = 0usize;
        for (i, f) in table.schema().fields().iter().enumerate() {
            checks += self.verify_column(&f.name, table.column(i).as_ref())?;
        }
        Ok(checks)
    }

    /// Enumerates *every* violation in `table` (no early return) — the
    /// quarantine step: a repair pass wants the full extent of the damage,
    /// not just the first corrupt chunk a scan tripped over.
    pub fn violations(&self, table: &Table) -> Vec<IntegrityViolation> {
        let mut found = Vec::new();
        for (i, f) in table.schema().fields().iter().enumerate() {
            let col = table.column(i).as_ref();
            let Some(sealed) = self.column(&f.name) else { continue };
            for (chunk, r) in morsel_ranges(col.len(), self.chunk_rows).into_iter().enumerate() {
                let actual = chunk_checksum(col, r);
                let expected = sealed.chunks.get(chunk).copied().unwrap_or(0);
                if actual != expected {
                    found.push(IntegrityViolation {
                        column: f.name.clone(),
                        chunk,
                        expected,
                        actual,
                    });
                }
            }
            if let (Some(expected), Column::Str(d)) = (sealed.dict, col) {
                let actual = dict_checksum(d);
                if actual != expected {
                    found.push(IntegrityViolation {
                        column: f.name.clone(),
                        chunk: sealed.chunks.len(),
                        expected,
                        actual,
                    });
                }
            }
        }
        found
    }

    /// CRC32C over the manifest's own contents (everything except the
    /// self-checksum field itself).
    fn fingerprint(&self) -> u32 {
        let mut h = Crc32c::new();
        h.update_u64(self.chunk_rows as u64);
        h.update_u64(self.columns.len() as u64);
        for c in &self.columns {
            h.update_u64(c.name.len() as u64);
            h.update(c.name.as_bytes());
            h.update_u64(c.chunks.len() as u64);
            for &crc in &c.chunks {
                h.update_u32(crc);
            }
            match c.dict {
                Some(crc) => {
                    h.update(&[1]);
                    h.update_u32(crc);
                }
                None => h.update(&[0]),
            }
        }
        h.finish()
    }
}

/// The sealed checksums of one column: one CRC per `chunk_rows` chunk,
/// plus the dictionary's for a string column.
pub(crate) fn seal_column(name: &str, col: &Column, chunk_rows: usize) -> ColumnChecksums {
    ColumnChecksums {
        name: name.to_string(),
        chunks: morsel_ranges(col.len(), chunk_rows)
            .into_iter()
            .map(|r| chunk_checksum(col, r))
            .collect(),
        dict: match col {
            Column::Str(d) => Some(dict_checksum(d)),
            _ => None,
        },
    }
}

/// Bytes gathered on the stack before each [`Crc32c::update`]: enough that
/// 4-byte and 1-byte values reach the slicing-by-8 loop rather than its
/// byte-at-a-time tail.
const BLOCK: usize = 4096;

/// Feeds `values`' `W`-byte encodings through one stack block at a time:
/// the same byte stream as one update per value, hashed eight bytes a step.
fn update_blocked<T: Copy, const W: usize>(
    h: &mut Crc32c,
    values: &[T],
    bytes: impl Fn(T) -> [u8; W],
) {
    let mut buf = [0u8; BLOCK];
    for block in values.chunks(BLOCK / W) {
        for (dst, &v) in buf.chunks_exact_mut(W).zip(block) {
            dst.copy_from_slice(&bytes(v));
        }
        h.update(&buf[..block.len() * W]);
    }
}

/// CRC32C of one morsel-aligned chunk of a column's stored representation:
/// little-endian fixed-width payloads, IEEE-754 bits for floats, the scale
/// byte then mantissas for decimals, dictionary *codes* for strings.
pub fn chunk_checksum(col: &Column, r: Range<usize>) -> u32 {
    let mut h = Crc32c::new();
    match col {
        Column::Int64(v) => update_blocked(&mut h, &v[r], i64::to_le_bytes),
        Column::Int32(v) | Column::Date(v) => update_blocked(&mut h, &v[r], i32::to_le_bytes),
        Column::Float64(v) => update_blocked(&mut h, &v[r], |x: f64| x.to_bits().to_le_bytes()),
        Column::Decimal(v, s) => {
            h.update(&[*s]);
            update_blocked(&mut h, &v[r], i64::to_le_bytes);
        }
        Column::Bool(v) => update_blocked(&mut h, &v[r], |x: bool| [u8::from(x)]),
        Column::Str(d) => update_blocked(&mut h, &d.codes()[r], u32::to_le_bytes),
    }
    h.finish()
}

/// CRC32C of a string column's shared dictionary (length-prefixed values so
/// `["ab","c"]` and `["a","bc"]` hash differently), fed through one stack
/// block: a value is a few bytes, too short to hash eight at a time alone.
pub fn dict_checksum(d: &DictColumn) -> u32 {
    let mut h = Crc32c::new();
    let mut buf = [0u8; BLOCK];
    let mut len = 0;
    let mut push = |h: &mut Crc32c, bytes: &[u8]| {
        if len + bytes.len() > BLOCK {
            h.update(&buf[..len]);
            len = 0;
            if bytes.len() > BLOCK {
                h.update(bytes);
                return;
            }
        }
        buf[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    push(&mut h, &(d.cardinality() as u64).to_le_bytes());
    for v in d.values() {
        push(&mut h, &(v.len() as u64).to_le_bytes());
        push(&mut h, v.as_bytes());
    }
    h.update(&buf[..len]);
    h.finish()
}

/// Flips one seeded bit of one stored value inside `col`'s row range `r`.
fn flip_one(col: &mut Column, row: usize, draw: u64) {
    match col {
        Column::Int64(v) => v[row] ^= 1i64 << (draw % 64),
        Column::Decimal(v, _) => v[row] ^= 1i64 << (draw % 64),
        Column::Int32(v) => v[row] ^= 1i32 << (draw % 32),
        Column::Date(v) => v[row] ^= 1i32 << (draw % 32),
        Column::Float64(v) => v[row] = f64::from_bits(v[row].to_bits() ^ (1u64 << (draw % 64))),
        Column::Bool(v) => v[row] = !v[row],
        Column::Str(d) => {
            // A raw bit flip could push a code past the dictionary and turn
            // silent corruption into an out-of-bounds panic; re-clamp so the
            // result is a *valid but wrong* code — wrong bytes, no error.
            let card = d.cardinality() as u32;
            if card > 1 {
                let mut codes = d.codes().to_vec();
                let old = codes[row];
                let mut new = (old ^ (1u32 << (draw % 32))) % card;
                if new == old {
                    new = (old + 1) % card;
                }
                codes[row] = new;
                *d = DictColumn::from_parts(codes, d.values().to_vec());
            }
        }
    }
}

/// Returns a copy of `col` with `bits` seeded single-bit flips applied to
/// stored values inside the row range `r`. Silent by construction: the copy
/// is always structurally valid (see [`flip_one`] for the string-code
/// clamp), it just holds wrong bytes. If an even number of draws cancels
/// out, one extra guaranteed flip is applied so the result really differs
/// (string columns with cardinality ≤ 1 are the lone exception — there is
/// no second value to corrupt a code into, so the copy comes back equal).
pub fn flip_bits(col: &Column, r: Range<usize>, bits: u32, seed: u64) -> Column {
    let mut out = col.clone();
    if r.is_empty() {
        return out;
    }
    let mut rng = SplitMix64::new(seed ^ DATA_SALT);
    for _ in 0..bits {
        let row = r.start + (rng.next_u64() as usize % r.len());
        flip_one(&mut out, row, rng.next_u64());
    }
    if out == *col {
        flip_one(&mut out, r.start, 0);
    }
    out
}

/// Returns a copy of a string column with `bits` seeded bit flips applied
/// to the *dictionary values* (the shared decode side) rather than the
/// per-row codes. Only bits 0–6 of ASCII bytes are flipped, so the result
/// is always valid UTF-8 — wrong characters, never a decode error.
/// Non-string columns (or dictionaries with no ASCII bytes) come back
/// unchanged.
pub fn corrupt_dict_values(col: &Column, bits: u32, seed: u64) -> Column {
    let Column::Str(d) = col else { return col.clone() };
    let mut values = d.values().to_vec();
    let candidates: Vec<usize> = values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.bytes().any(|b| b < 0x80))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return col.clone();
    }
    let mut rng = SplitMix64::new(seed ^ DICT_SALT);
    let flip = |values: &mut Vec<String>, vi: usize, bit: u32| {
        let mut bytes = std::mem::take(&mut values[vi]).into_bytes();
        let ascii: Vec<usize> =
            bytes.iter().enumerate().filter(|(_, &b)| b < 0x80).map(|(i, _)| i).collect();
        let pos = ascii[bit as usize % ascii.len()];
        bytes[pos] ^= 1 << (bit % 7);
        values[vi] = String::from_utf8(bytes).expect("7-bit flips keep ASCII valid");
    };
    for _ in 0..bits.max(1) {
        let vi = candidates[rng.next_u64() as usize % candidates.len()];
        flip(&mut values, vi, rng.next_u64() as u32);
    }
    if values == d.values() {
        // Cancelled-out flips: force one (bit index 1 → XOR 0b10, never a
        // no-op).
        flip(&mut values, candidates[0], 1);
    }
    Column::Str(DictColumn::from_parts(d.codes().to_vec(), values))
}

/// Returns a copy of `m` with one seeded bit flipped inside a stored chunk
/// checksum. The self-checksum is deliberately left stale — a real bit flip
/// would not courteously re-seal the manifest — so
/// [`IntegrityManifest::verify_self`] catches it before any data chunk is
/// falsely accused.
pub fn corrupt_manifest(m: &IntegrityManifest, seed: u64) -> IntegrityManifest {
    let mut out = m.clone();
    let mut rng = SplitMix64::new(seed ^ MANIFEST_SALT);
    let mut slots: Vec<&mut u32> = Vec::new();
    for c in &mut out.columns {
        slots.extend(c.chunks.iter_mut());
        if let Some(dc) = c.dict.as_mut() {
            slots.push(dc);
        }
    }
    if slots.is_empty() {
        out.self_checksum ^= 1;
        return out;
    }
    let slot = rng.next_u64() as usize % slots.len();
    *slots[slot] ^= 1u32 << (rng.next_u64() % 32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use proptest::prelude::*;

    /// A table with every column type and > 1 chunk at `chunk_rows = 100`.
    fn mixed_table(n: usize) -> Table {
        let strs: Vec<String> =
            (0..n).map(|i| ["ALPHA", "BRAVO", "CHARLIE"][i % 3].to_string()).collect();
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("d", DataType::Decimal(2)),
                Field::new("f", DataType::Float64),
                Field::new("w", DataType::Int32),
                Field::new("t", DataType::Date),
                Field::new("s", DataType::Utf8),
                Field::new("b", DataType::Bool),
            ]),
            vec![
                Column::Int64((0..n as i64).collect()),
                Column::Decimal((0..n as i64).map(|i| i * 7).collect(), 2),
                Column::Float64((0..n).map(|i| i as f64 * 0.25).collect()),
                Column::Int32((0..n as i32).collect()),
                Column::Date((0..n as i32).map(|i| 10_000 + i).collect()),
                Column::Str(strs.iter().map(String::as_str).collect()),
                Column::Bool((0..n).map(|i| i % 2 == 0).collect()),
            ],
        )
        .unwrap()
    }

    /// A chunk's stored bytes, value by value: what its CRC must cover.
    fn chunk_bytes(col: &Column, r: Range<usize>) -> Vec<u8> {
        match col {
            Column::Int64(v) => v[r].iter().flat_map(|x| x.to_le_bytes()).collect(),
            Column::Int32(v) | Column::Date(v) => {
                v[r].iter().flat_map(|x| x.to_le_bytes()).collect()
            }
            Column::Float64(v) => v[r].iter().flat_map(|x| x.to_bits().to_le_bytes()).collect(),
            Column::Decimal(v, s) => {
                std::iter::once(*s).chain(v[r].iter().flat_map(|x| x.to_le_bytes())).collect()
            }
            Column::Bool(v) => v[r].iter().map(|&x| u8::from(x)).collect(),
            Column::Str(d) => d.codes()[r].iter().flat_map(|c| c.to_le_bytes()).collect(),
        }
    }

    #[test]
    fn blocked_checksums_cover_exactly_the_stored_bytes() {
        // 4 500-row chunks: every width spans several blocks and ends in a
        // partial one (a bool chunk is 4 500 bytes, an i32 chunk 18 000);
        // the last chunk is 1 000 rows.
        let t = mixed_table(10_000);
        for (i, f) in t.schema().fields().iter().enumerate() {
            let col = t.column(i).as_ref();
            for r in morsel_ranges(col.len(), 4_500) {
                let want = crate::checksum::crc32c_naive(&chunk_bytes(col, r.clone()));
                assert_eq!(chunk_checksum(col, r.clone()), want, "{} rows {r:?}", f.name);
            }
        }
        // A dictionary with values longer than a block, between short ones.
        let long = "x".repeat(3 * BLOCK + 5);
        let words = ["a", long.as_str(), "bc", "", long.as_str()];
        let col: DictColumn = words.iter().chain(&["a"; 2_000]).copied().collect();
        let mut want = (col.cardinality() as u64).to_le_bytes().to_vec();
        for v in col.values() {
            want.extend((v.len() as u64).to_le_bytes());
            want.extend(v.as_bytes());
        }
        assert_eq!(dict_checksum(&col), crate::checksum::crc32c_naive(&want));
        let string = t.column_by_name("s").unwrap();
        let Column::Str(small) = string.as_ref() else { unreachable!() };
        let mut want = (small.cardinality() as u64).to_le_bytes().to_vec();
        for v in small.values() {
            want.extend((v.len() as u64).to_le_bytes());
            want.extend(v.as_bytes());
        }
        assert_eq!(dict_checksum(small), crate::checksum::crc32c_naive(&want));
    }

    #[test]
    fn clean_table_verifies_at_every_granularity() {
        let t = mixed_table(250);
        for chunk_rows in [1usize, 100, 250, 1000, DEFAULT_MORSEL_ROWS] {
            let m = IntegrityManifest::seal_with(&t, chunk_rows);
            assert!(m.verify_self());
            let checks = m.verify_table(&t).expect("clean table verifies");
            assert!(checks >= t.num_columns(), "chunk_rows {chunk_rows}: {checks} checks");
        }
    }

    #[test]
    fn multi_chunk_columns_have_per_chunk_checksums() {
        let t = mixed_table(250);
        let m = IntegrityManifest::seal_with(&t, 100);
        for c in m.columns() {
            assert_eq!(c.chunks.len(), 3, "{}: 250 rows / 100 per chunk", c.name);
        }
        assert!(m.column("s").unwrap().dict.is_some());
        assert_eq!(m.column("k").unwrap().dict, None);
        // 7 columns × 3 chunks + 1 dictionary pseudo-chunk.
        assert_eq!(m.total_chunks(), 22);
    }

    #[test]
    fn every_column_type_detects_seeded_flips() {
        let t = mixed_table(250);
        let m = IntegrityManifest::seal_with(&t, 100);
        for (i, f) in t.schema().fields().iter().enumerate() {
            for seed in 0..20u64 {
                let dirty = flip_bits(t.column(i), 100..200, 1 + (seed % 3) as u32, seed);
                let err = m
                    .verify_column(&f.name, &dirty)
                    .expect_err(&format!("{} seed {seed}: flip must be detected", f.name));
                assert_eq!(err.column, f.name);
                assert_eq!(err.chunk, 1, "{} seed {seed}: corrupt chunk is the middle one", f.name);
                assert_ne!(err.expected, err.actual);
            }
        }
    }

    #[test]
    fn dictionary_corruption_hits_the_pseudo_chunk() {
        let t = mixed_table(250);
        let m = IntegrityManifest::seal_with(&t, 100);
        for seed in 0..20u64 {
            let dirty = corrupt_dict_values(t.column_by_name("s").unwrap(), 2, seed);
            // Codes are untouched, so the data chunks pass and the
            // dictionary pseudo-chunk (index == chunks.len()) fails.
            let err = m.verify_column("s", &dirty).expect_err("dict corruption detected");
            assert_eq!(err.chunk, 3);
            // And the corruption really is silent: still valid UTF-8,
            // decodable at every row.
            let d = dirty.as_str().unwrap();
            for i in 0..d.len() {
                let _ = d.get(i);
            }
        }
    }

    #[test]
    fn manifest_corruption_fails_the_self_check() {
        let t = mixed_table(250);
        let m = IntegrityManifest::seal_with(&t, 100);
        for seed in 0..20u64 {
            let dirty = corrupt_manifest(&m, seed);
            assert!(!dirty.verify_self(), "seed {seed}");
            assert!(m.verify_self(), "original untouched");
        }
    }

    #[test]
    fn string_flips_never_panic_on_decode() {
        let t = mixed_table(250);
        for seed in 0..50u64 {
            let dirty = flip_bits(t.column_by_name("s").unwrap(), 0..250, 4, seed);
            let d = dirty.as_str().unwrap();
            for i in 0..d.len() {
                let _ = d.get(i); // wrong bytes are fine; a panic is not
            }
        }
    }

    #[test]
    fn empty_table_seals_and_verifies() {
        let t = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Column::Int64(vec![])],
        )
        .unwrap();
        let m = IntegrityManifest::seal(&t);
        assert!(m.verify_self());
        assert_eq!(m.verify_table(&t).unwrap(), 0);
        assert!(!corrupt_manifest(&m, 7).verify_self());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any seeded flip of any width column inside any chunk is caught.
        #[test]
        fn seeded_flips_are_always_detected(
            seed in 0u64..1_000_000_000,
            col_idx in 0usize..7,
            bits in 1u32..4,
        ) {
            let t = mixed_table(250);
            let m = IntegrityManifest::seal_with(&t, 100);
            let name = t.schema().fields()[col_idx].name.clone();
            let dirty = flip_bits(t.column(col_idx), 0..250, bits, seed);
            if dirty != *t.column(col_idx).as_ref() {
                prop_assert!(m.verify_column(&name, &dirty).is_err());
            }
        }
    }
}
