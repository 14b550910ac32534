//! Zone maps — per-column, morsel-aligned min/max summaries plus presence
//! bitmaps over low-cardinality dictionaries.
//!
//! The paper's wimpy nodes are bandwidth-bound (~2 GB/s on the Pi), so the
//! cheapest byte is the one never streamed: a scan that can prove from a
//! 16-byte `(min, max)` summary that no row in a 64K-row morsel satisfies a
//! predicate skips the whole morsel — the software analogue of the
//! filter-before-data-moves trick the PIM literature wins with. Zone maps
//! are sealed at load time on the same chunk grid as the
//! [`IntegrityManifest`](crate::integrity::IntegrityManifest), summarize
//! every fixed-scale column in a common `i64` slot encoding (raw integers,
//! widened `i32`/date day numbers, decimal mantissas), and carry per-chunk
//! presence bitmaps for dictionary columns whose cardinality is small
//! enough that "which codes appear here" fits in a few words
//! (`l_returnflag`, `l_linestatus`, `l_shipmode`, …).
//!
//! Soundness contract: a zone map describes the column bytes *at seal
//! time*. Any operation that swaps column bytes under the table
//! (fault injection via `Table::with_replaced_column`) drops the zone map
//! rather than carry a now-lying summary — unlike the integrity manifest,
//! which is deliberately carried over because a stale manifest *detects*
//! the swap while a stale zone map would silently mis-prune (DESIGN.md §14).

use crate::column::Column;
use crate::morsel::{morsel_ranges, DEFAULT_MORSEL_ROWS};
use crate::table::Table;
use std::ops::Range;

/// Dictionary columns with at most this many distinct values get per-chunk
/// presence bitmaps. TPC-H's flag/status/mode/priority columns have single-
/// digit cardinalities; anything near the cap (e.g. comment pools) would
/// pay bitmap space for no pruning power.
pub const MAX_PRESENCE_CARDINALITY: usize = 1024;

/// Per-chunk summaries for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnZones {
    /// Column name (matches the table schema).
    pub name: String,
    /// Per-chunk `(min, max)` in the column's i64 slot encoding: raw values
    /// for `Int64`, widened for `Int32`/`Date`, mantissas for `Decimal`.
    /// `None` for types without a fixed-scale i64 encoding (floats, bools,
    /// strings).
    pub ranges: Option<Vec<(i64, i64)>>,
    /// Per-chunk presence bitmaps over dictionary codes (bit `c` set when
    /// code `c` occurs in the chunk). Only for low-cardinality `Str`
    /// columns; every chunk's bitmap has `cardinality.div_ceil(64)` words.
    pub presence: Option<Vec<Vec<u64>>>,
}

/// A sealed set of per-column zone summaries on a fixed chunk grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    chunk_rows: usize,
    columns: Vec<ColumnZones>,
}

impl ZoneMap {
    /// Seals zone summaries over every column at the default morsel
    /// granularity — the grid the parallel kernels scan on.
    pub fn seal(table: &Table) -> ZoneMap {
        Self::seal_with(table, DEFAULT_MORSEL_ROWS)
    }

    /// Seals zone summaries on an explicit chunk grid.
    pub fn seal_with(table: &Table, chunk_rows: usize) -> ZoneMap {
        let columns = table
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| seal_column(&f.name, table.column(i), chunk_rows))
            .collect();
        ZoneMap { chunk_rows, columns }
    }

    /// The zone map over columns sealed one by one ([`seal_column`]), in
    /// schema order.
    pub(crate) fn from_columns(chunk_rows: usize, columns: Vec<ColumnZones>) -> ZoneMap {
        ZoneMap { chunk_rows, columns }
    }

    /// The chunk granularity the summaries were sealed on.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// All column summaries, in schema order.
    pub fn columns(&self) -> &[ColumnZones] {
        &self.columns
    }

    /// The summary for one column.
    pub fn column(&self, name: &str) -> Option<&ColumnZones> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The conservative `(min, max)` slot range covering the row span
    /// `rows`, combined across every chunk the span overlaps. `None` when
    /// the column has no ranges (wrong type, unknown name) or the span
    /// falls outside the sealed grid — callers must treat `None` as
    /// "anything possible" and scan.
    pub fn range_over(&self, name: &str, rows: Range<usize>) -> Option<(i64, i64)> {
        let ranges = self.column(name)?.ranges.as_ref()?;
        let (lo, hi) = self.chunk_span(&rows, ranges.len())?;
        let mut it = ranges[lo..=hi].iter();
        let &(mut min, mut max) = it.next()?;
        for &(a, b) in it {
            min = min.min(a);
            max = max.max(b);
        }
        Some((min, max))
    }

    /// The union of presence bitmaps across every chunk the row span
    /// overlaps: a bit is set when that dictionary code *may* occur in
    /// `rows`. `None` follows the same "anything possible" convention as
    /// [`ZoneMap::range_over`].
    pub fn presence_over(&self, name: &str, rows: Range<usize>) -> Option<Vec<u64>> {
        let presence = self.column(name)?.presence.as_ref()?;
        let (lo, hi) = self.chunk_span(&rows, presence.len())?;
        let mut out = presence[lo].clone();
        for chunk in &presence[lo + 1..=hi] {
            for (w, &v) in out.iter_mut().zip(chunk) {
                *w |= v;
            }
        }
        Some(out)
    }

    /// Chunk indices `[lo, hi]` overlapped by a non-empty row span, or
    /// `None` when the span is empty or runs off the sealed grid (a morsel
    /// grid larger than the sealed table fails closed, never panics).
    fn chunk_span(&self, rows: &Range<usize>, chunks: usize) -> Option<(usize, usize)> {
        if rows.is_empty() || self.chunk_rows == 0 {
            return None;
        }
        let lo = rows.start / self.chunk_rows;
        let hi = (rows.end - 1) / self.chunk_rows;
        (hi < chunks).then_some((lo, hi))
    }
}

/// Seals one column. Fixed-scale types get per-chunk min/max in slot
/// encoding; low-cardinality dictionaries additionally get presence
/// bitmaps; floats, bools, and high-cardinality strings summarize nothing.
pub(crate) fn seal_column(name: &str, col: &Column, chunk_rows: usize) -> ColumnZones {
    let chunks = morsel_ranges(col.len(), chunk_rows);
    let ranges = match col {
        Column::Int64(v) | Column::Decimal(v, _) => {
            Some(chunks.iter().map(|r| min_max(v[r.clone()].iter().copied())).collect())
        }
        Column::Int32(v) | Column::Date(v) => {
            Some(chunks.iter().map(|r| min_max(v[r.clone()].iter().map(|&x| x as i64))).collect())
        }
        Column::Float64(_) | Column::Str(_) | Column::Bool(_) => None,
    };
    let presence = match col {
        Column::Str(d) if d.cardinality() <= MAX_PRESENCE_CARDINALITY => {
            let words = d.cardinality().div_ceil(64).max(1);
            Some(
                chunks
                    .iter()
                    .map(|r| {
                        let mut bits = vec![0u64; words];
                        for &c in &d.codes()[r.clone()] {
                            bits[c as usize / 64] |= 1u64 << (c % 64);
                        }
                        bits
                    })
                    .collect(),
            )
        }
        _ => None,
    };
    ColumnZones { name: name.to_string(), ranges, presence }
}

fn min_max(it: impl Iterator<Item = i64>) -> (i64, i64) {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for v in it {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::DictColumn;
    use crate::schema::{DataType, Field, Schema};

    /// 250 rows of every column type, 100-row chunks → 3 chunks, the same
    /// shape the integrity-manifest tests pin down.
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

    #[test]
    fn seals_ranges_for_fixed_scale_types_only() {
        let z = ZoneMap::seal_with(&mixed_table(250), 100);
        assert_eq!(z.chunk_rows(), 100);
        for name in ["k", "d", "w", "t"] {
            let c = z.column(name).unwrap();
            assert_eq!(c.ranges.as_ref().unwrap().len(), 3, "{name}: 250 rows / 100 per chunk");
        }
        for name in ["f", "b"] {
            assert!(z.column(name).unwrap().ranges.is_none(), "{name} has no slot encoding");
        }
        // Exact per-chunk bounds on the dense Int64 key.
        let k = z.column("k").unwrap().ranges.as_ref().unwrap();
        assert_eq!(k, &[(0, 99), (100, 199), (200, 249)]);
        // Decimal ranges are over mantissas, dates over widened day numbers.
        assert_eq!(z.column("d").unwrap().ranges.as_ref().unwrap()[0], (0, 99 * 7));
        assert_eq!(z.column("t").unwrap().ranges.as_ref().unwrap()[2], (10_200, 10_249));
    }

    #[test]
    fn presence_bitmaps_cover_low_cardinality_strings() {
        let z = ZoneMap::seal_with(&mixed_table(250), 100);
        let s = z.column("s").unwrap();
        assert!(s.ranges.is_none());
        let presence = s.presence.as_ref().unwrap();
        assert_eq!(presence.len(), 3);
        // All three codes occur in every 100-row chunk of an i%3 pattern.
        for chunk in presence {
            assert_eq!(chunk, &vec![0b111u64]);
        }
    }

    #[test]
    fn high_cardinality_strings_are_not_bitmapped() {
        let n = MAX_PRESENCE_CARDINALITY + 1;
        let strs: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let d: DictColumn = strs.iter().map(String::as_str).collect();
        let t =
            Table::new(Schema::new(vec![Field::new("s", DataType::Utf8)]), vec![Column::Str(d)])
                .unwrap();
        let z = ZoneMap::seal_with(&t, 100);
        assert!(z.column("s").unwrap().presence.is_none());
    }

    #[test]
    fn range_over_combines_chunks_conservatively() {
        let z = ZoneMap::seal_with(&mixed_table(250), 100);
        assert_eq!(z.range_over("k", 0..100), Some((0, 99)));
        assert_eq!(z.range_over("k", 50..150), Some((0, 199)), "spans two chunks");
        assert_eq!(z.range_over("k", 0..250), Some((0, 249)));
        assert_eq!(z.range_over("k", 100..101), Some((100, 199)));
        // Fail-closed cases: empty span, unknown column, unranged type,
        // span past the sealed grid.
        assert_eq!(z.range_over("k", 10..10), None);
        assert_eq!(z.range_over("missing", 0..10), None);
        assert_eq!(z.range_over("f", 0..10), None);
        assert_eq!(z.range_over("k", 0..1000), None);
    }

    #[test]
    fn presence_over_unions_chunks() {
        // A dictionary whose codes are segregated by chunk.
        let strs: Vec<&str> = (0..200).map(|i| if i < 100 { "AIR" } else { "RAIL" }).collect();
        let t = Table::new(
            Schema::new(vec![Field::new("m", DataType::Utf8)]),
            vec![Column::Str(strs.into_iter().collect::<DictColumn>())],
        )
        .unwrap();
        let z = ZoneMap::seal_with(&t, 100);
        assert_eq!(z.presence_over("m", 0..100), Some(vec![0b01]));
        assert_eq!(z.presence_over("m", 100..200), Some(vec![0b10]));
        assert_eq!(z.presence_over("m", 50..150), Some(vec![0b11]), "union across chunks");
        assert_eq!(z.presence_over("m", 0..0), None);
    }

    #[test]
    fn empty_table_seals_without_chunks() {
        let t = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Column::Int64(vec![])],
        )
        .unwrap();
        let z = ZoneMap::seal(&t);
        assert_eq!(z.column("k").unwrap().ranges.as_ref().unwrap().len(), 0);
        assert_eq!(z.range_over("k", 0..0), None);
    }

    #[test]
    fn default_seal_uses_morsel_grid() {
        let z = ZoneMap::seal(&mixed_table(250));
        assert_eq!(z.chunk_rows(), DEFAULT_MORSEL_ROWS);
        assert_eq!(z.column("k").unwrap().ranges.as_ref().unwrap().len(), 1);
        assert_eq!(z.range_over("k", 0..250), Some((0, 249)));
    }
}
