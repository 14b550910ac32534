//! Dictionary-encoded string columns.
//!
//! Every string column in the store is dictionary encoded: a `Vec<u32>` of
//! codes plus a sorted-insertion-order dictionary of distinct values. This is
//! the "computationally lightweight" encoding the paper's §III-C2 discusses —
//! fixed-width codes keep scans sequential and cheap, at the price of holding
//! the dictionary in memory. The benchmark's
//! `engine.exec.bytecode.dict.rows_per_s` times a string `IN` answered on the
//! codes alone; the engine's `like` property tests hold the matcher the
//! dictionary masks are built with to a naive reference.

use std::collections::HashMap;
use std::sync::Arc;

/// An immutable dictionary-encoded string column. Gathers and slices of it
/// share its dictionary allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictColumn {
    codes: Vec<u32>,
    values: Arc<Vec<String>>,
}

impl DictColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// The dictionary code for row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// All codes, in row order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The decoded string for row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.values[self.codes[i] as usize]
    }

    /// The string a code maps to.
    #[inline]
    pub fn decode(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// The dictionary values (index = code).
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Reassembles a column from raw codes and dictionary values.
    ///
    /// Exists for the integrity layer's fault injection and repair paths,
    /// which must rebuild columns with deliberately wrong (but in-range)
    /// bytes. Every code must index into `values`; that invariant is
    /// asserted here because a code past the dictionary would turn silent
    /// corruption into an out-of-bounds panic at decode time.
    pub fn from_parts(codes: Vec<u32>, values: Vec<String>) -> DictColumn {
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < values.len().max(1)),
            "every code must index the dictionary"
        );
        DictColumn { codes, values: Arc::new(values) }
    }

    /// Looks up the code of an exact value, if present. O(cardinality); use
    /// once per predicate, not per row.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.values.iter().position(|v| v == value).map(|p| p as u32)
    }

    /// Heap bytes held by the column (codes + dictionary payload).
    pub fn heap_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u32>()
            + self
                .values
                .iter()
                .map(|v| v.capacity() + std::mem::size_of::<String>())
                .sum::<usize>()
    }

    /// Builds a new column containing the rows selected by `sel`, reusing
    /// this column's dictionary (codes stay valid).
    pub fn take(&self, sel: &[u32]) -> DictColumn {
        DictColumn {
            codes: sel.iter().map(|&i| self.codes[i as usize]).collect(),
            values: Arc::clone(&self.values),
        }
    }

    /// [`DictColumn::take`] where the index `none` selects no row and reads
    /// as `""`. The dictionary is copied only to give `""` a code it lacks.
    pub fn take_or_empty(&self, sel: &[u32], none: u32) -> DictColumn {
        let mut values = Arc::clone(&self.values);
        let mut empty = None;
        let mut code_of_empty = || {
            *empty.get_or_insert_with(|| {
                self.code_of("").unwrap_or_else(|| {
                    Arc::make_mut(&mut values).push(String::new());
                    self.values.len() as u32
                })
            })
        };
        let codes = sel
            .iter()
            .map(|&i| if i == none { code_of_empty() } else { self.codes[i as usize] })
            .collect();
        DictColumn { codes, values }
    }

    /// Copies the contiguous code range `r`, reusing this column's
    /// dictionary (codes stay valid) — see [`crate::Column::slice`].
    pub fn slice(&self, r: std::ops::Range<usize>) -> DictColumn {
        DictColumn { codes: self.codes[r].to_vec(), values: Arc::clone(&self.values) }
    }

    /// Iterates decoded values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.codes.iter().map(move |&c| self.values[c as usize].as_str())
    }
}

impl<'a> FromIterator<&'a str> for DictColumn {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut b = DictBuilder::new();
        for s in iter {
            b.push(s);
        }
        b.finish()
    }
}

/// Incremental builder for [`DictColumn`].
#[derive(Debug, Default)]
pub struct DictBuilder {
    codes: Vec<u32>,
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl DictBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with row capacity pre-allocated.
    pub fn with_capacity(rows: usize) -> Self {
        Self { codes: Vec::with_capacity(rows), ..Self::default() }
    }

    /// Appends one value, interning it in the dictionary.
    pub fn push(&mut self, value: &str) {
        let code = match self.index.get(value) {
            Some(&c) => c,
            None => {
                let c = self.values.len() as u32;
                self.values.push(value.to_string());
                self.index.insert(value.to_string(), c);
                c
            }
        };
        self.codes.push(code);
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Finalizes the column.
    pub fn finish(self) -> DictColumn {
        DictColumn { codes: self.codes, values: Arc::new(self.values) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DictColumn {
        ["AIR", "RAIL", "AIR", "TRUCK", "RAIL", "AIR"].into_iter().collect()
    }

    #[test]
    fn interning_dedupes() {
        let c = sample();
        assert_eq!(c.len(), 6);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.get(0), "AIR");
        assert_eq!(c.get(3), "TRUCK");
        assert_eq!(c.code(0), c.code(2));
    }

    #[test]
    fn code_of_finds_existing_only() {
        let c = sample();
        let air = c.code_of("AIR").unwrap();
        assert_eq!(c.decode(air), "AIR");
        assert_eq!(c.code_of("SHIP"), None);
    }

    #[test]
    fn take_preserves_dictionary() {
        let c = sample();
        let t = c.take(&[1, 4]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), "RAIL");
        assert_eq!(t.get(1), "RAIL");
        assert_eq!(t.cardinality(), c.cardinality());
    }

    #[test]
    fn gathers_and_slices_share_the_parent_dictionary() {
        let c = sample();
        let shares = |d: &DictColumn| Arc::ptr_eq(&d.values, &c.values);
        assert!(shares(&c.take(&[1, 4])) && shares(&c.slice(2..5)));
        assert!(shares(&c.take_or_empty(&[1, 4], u32::MAX)), "no unmatched row: nothing added");
        let padded = c.take_or_empty(&[1, u32::MAX, u32::MAX], u32::MAX);
        assert_eq!((padded.get(1), padded.cardinality()), ("", c.cardinality() + 1), "added once");
        let again = padded.take_or_empty(&[0, u32::MAX], u32::MAX);
        assert!(Arc::ptr_eq(&again.values, &padded.values), "a dictionary holding \"\" is shared");
    }

    #[test]
    fn iter_yields_row_order() {
        let c = sample();
        let rows: Vec<&str> = c.iter().collect();
        assert_eq!(rows, ["AIR", "RAIL", "AIR", "TRUCK", "RAIL", "AIR"]);
    }

    #[test]
    fn empty_column() {
        let c: DictColumn = std::iter::empty::<&str>().collect();
        assert!(c.is_empty());
        assert_eq!(c.cardinality(), 0);
        assert_eq!(c.heap_bytes(), 0);
    }

    #[test]
    fn heap_bytes_counts_codes_and_dict() {
        let c = sample();
        assert!(c.heap_bytes() >= 6 * 4 + "AIRRAILTRUCK".len());
    }
}
