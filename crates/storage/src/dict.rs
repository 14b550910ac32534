//! Dictionary-encoded string columns.
//!
//! Every string column in the store is dictionary encoded: a `Vec<u32>` of
//! codes plus a dictionary of distinct values in first-appearance order (a
//! value's code is the number of distinct values met before it). This is
//! the "computationally lightweight" encoding the paper's §III-C2 discusses —
//! fixed-width codes keep scans sequential and cheap, at the price of holding
//! the dictionary in memory. The benchmark's
//! `engine.exec.bytecode.dict.rows_per_s` times a string `IN` answered on the
//! codes alone; the engine's `like` property tests hold the matcher the
//! dictionary masks are built with to a naive reference.
//!
//! Two builders produce the same encoding. [`DictBuilder`] takes text and
//! interns it through a hash map: it serves free-form values (addresses,
//! phone numbers, `.tbl` loading). [`IndexInterner`] takes the index a value
//! was drawn from in a fixed domain (a word list, a comment pool, a numbered
//! name) and finds its code in an array, never hashing or copying a row's
//! text; each distinct value is built once, at [`IndexInterner::finish`]. The
//! TPC-H generator draws nearly every string it writes by index, so it is
//! the interner that builds most of the catalog. [`DictColumn::concat`]
//! re-encodes columns the same way, interning each part's dictionary value
//! once rather than each row.

use std::collections::HashMap;
use std::sync::Arc;

use crate::hash::FxBuild;

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

    /// `len` rows of code 0, sharing this column's dictionary — see
    /// [`crate::Column::zeroed_like`].
    pub(crate) fn zeroed_like(&self, len: usize) -> DictColumn {
        DictColumn { codes: vec![0; len], values: Arc::clone(&self.values) }
    }

    /// The codes, to be overwritten with codes of this dictionary.
    pub(crate) fn codes_mut(&mut self) -> &mut [u32] {
        &mut self.codes
    }

    /// Iterates decoded values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.codes.iter().map(move |&c| self.values[c as usize].as_str())
    }

    /// The rows of `parts`, in order, encoded as if each row's text were
    /// pushed through one [`DictBuilder`]: codes in first-appearance order,
    /// and no dictionary value that no row uses. A part's codes are remapped
    /// through an array, so each of its values is interned once, when a row
    /// first uses it; consecutive parts sharing one dictionary (gathers or
    /// slices of one column) share the array too.
    pub fn concat(parts: &[&DictColumn]) -> DictColumn {
        let mut out = DictBuilder::with_capacity(parts.iter().map(|p| p.len()).sum());
        let mut remap: Vec<u32> = Vec::new();
        let mut dict: Option<&Arc<Vec<String>>> = None;
        for part in parts {
            if !dict.is_some_and(|d| Arc::ptr_eq(d, &part.values)) {
                remap.clear();
                remap.resize(part.cardinality(), UNSEEN);
                dict = Some(&part.values);
            }
            for &c in &part.codes {
                let slot = &mut remap[c as usize];
                if *slot == UNSEEN {
                    *slot = out.intern(&part.values[c as usize]);
                }
                out.codes.push(*slot);
            }
        }
        out.finish()
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
    index: HashMap<String, u32, FxBuild>,
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
        let code = self.intern(value);
        self.codes.push(code);
    }

    /// The code of `value`, added to the dictionary if it is new.
    fn intern(&mut self, value: &str) -> u32 {
        match self.index.get(value) {
            Some(&c) => c,
            None => {
                let c = self.values.len() as u32;
                self.values.push(value.to_string());
                self.index.insert(value.to_string(), c);
                c
            }
        }
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

/// Marks a domain index (or a part's code) no row has used yet.
const UNSEEN: u32 = u32::MAX;

/// Builds a [`DictColumn`] whose every value is drawn by index from a fixed
/// domain of `domain` values, producing exactly the column a [`DictBuilder`]
/// fed the same values' text would.
///
/// The caller keeps one promise: equal values have equal indices. A domain
/// that can hold one text at two indices (a pool of generated comments)
/// maps each index to the first index of its text before pushing it;
/// otherwise the dictionary would hold the text twice and a group-by on the
/// column would split its group.
///
/// ```
/// use wimpi_storage::dict::IndexInterner;
/// const MODES: [&str; 3] = ["AIR", "RAIL", "SHIP"];
/// let mut b = IndexInterner::new(MODES.len(), 4);
/// for i in [2, 0, 2, 1] {
///     b.push(i);
/// }
/// let col = b.finish(|i| MODES[i].to_string());
/// assert_eq!(col.codes(), [0, 1, 0, 2]);
/// assert_eq!(col.values(), ["SHIP", "AIR", "RAIL"]);
/// ```
#[derive(Debug)]
pub struct IndexInterner {
    codes: Vec<u32>,
    /// Domain index → code, [`UNSEEN`] until a row uses the index.
    code_of: Vec<u32>,
    /// Code → the domain index it was first drawn from.
    firsts: Vec<u32>,
}

impl IndexInterner {
    /// An empty builder over a domain of `domain` values, with room for
    /// `rows` rows.
    pub fn new(domain: usize, rows: usize) -> Self {
        assert!(domain < UNSEEN as usize, "a domain index must fit a code");
        Self { codes: Vec::with_capacity(rows), code_of: vec![UNSEEN; domain], firsts: Vec::new() }
    }

    /// The interner of rows already drawn: `indices` holds each row's
    /// domain index and becomes its codes in place, in one pass — the
    /// column pushing the indices one by one would give. This is how rows
    /// drawn in parallel chunks are encoded: each chunk writes indices into
    /// its slice of one vector, and the first-appearance order is taken
    /// once, over the whole vector.
    pub fn from_indices(domain: usize, mut indices: Vec<u32>) -> Self {
        assert!(domain < UNSEEN as usize, "a domain index must fit a code");
        let mut code_of = vec![UNSEEN; domain];
        let mut firsts = Vec::new();
        for v in &mut indices {
            let code = &mut code_of[*v as usize];
            if *code == UNSEEN {
                *code = firsts.len() as u32;
                firsts.push(*v);
            }
            *v = *code;
        }
        Self { codes: indices, code_of, firsts }
    }

    /// Appends the value at domain index `index`.
    #[inline]
    pub fn push(&mut self, index: usize) {
        let code = &mut self.code_of[index];
        if *code == UNSEEN {
            *code = self.firsts.len() as u32;
            self.firsts.push(index as u32);
        }
        self.codes.push(*code);
    }

    /// Finalizes the column, building each distinct value once: `value(i)`
    /// is the text at domain index `i`. A value holds no spare capacity, as
    /// a [`DictBuilder`]'s copy holds none.
    pub fn finish(self, mut value: impl FnMut(usize) -> String) -> DictColumn {
        let values: Vec<String> = self
            .firsts
            .iter()
            .map(|&i| {
                let mut v = value(i as usize);
                v.shrink_to_fit();
                v
            })
            .collect();
        debug_assert_eq!(
            values.iter().collect::<std::collections::HashSet<_>>().len(),
            values.len(),
            "equal values were pushed under different indices"
        );
        DictColumn::from_parts(self.codes, values)
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

    /// What [`DictColumn::concat`] must equal: every row's text pushed
    /// through one builder.
    fn pushed_row_by_row(parts: &[&DictColumn]) -> DictColumn {
        parts.iter().flat_map(|p| p.iter()).collect()
    }

    #[test]
    fn concat_equals_pushing_every_row() {
        let c = sample();
        let other: DictColumn = ["SHIP", "AIR", "FOB", "SHIP"].into_iter().collect();
        let empty: DictColumn = std::iter::empty::<&str>().collect();
        let cases: Vec<Vec<DictColumn>> = vec![
            vec![c.clone(), other.clone()],
            vec![other.clone(), c.clone(), other.clone()],
            // Parts sharing one dictionary, in and out of code order.
            vec![c.slice(3..6), c.take(&[4, 0]), c.slice(0..2)],
            // Dictionaries holding values no row of the part uses.
            vec![c.take(&[3, 3]), other.slice(1..3), c.slice(4..5)],
            vec![empty.clone(), c.take(&[]), other.clone(), empty.clone()],
            vec![empty.clone()],
            vec![c.take_or_empty(&[u32::MAX, 1], u32::MAX), other],
        ];
        for parts in &cases {
            let parts: Vec<&DictColumn> = parts.iter().collect();
            let got = DictColumn::concat(&parts);
            assert_eq!(got, pushed_row_by_row(&parts), "{parts:?}");
            assert_eq!(got.len(), parts.iter().map(|p| p.len()).sum::<usize>());
        }
        assert_eq!(DictColumn::concat(&[]).len(), 0);
    }

    #[test]
    fn index_interner_equals_pushing_the_text() {
        let domain = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
        let draws = [4, 4, 1, 6, 1, 0, 4, 2];
        let mut b = IndexInterner::new(domain.len(), draws.len());
        for &i in &draws {
            b.push(i);
        }
        let got = b.finish(|i| domain[i].to_string());
        let want: DictColumn = draws.iter().map(|&i| domain[i]).collect();
        assert_eq!(got, want);
        assert_eq!(got.cardinality(), 5, "an index no row drew adds no value");
        let none = IndexInterner::new(domain.len(), 0).finish(|i| domain[i].to_string());
        assert_eq!((none.len(), none.cardinality()), (0, 0));
        let indices = draws.iter().map(|&i| i as u32).collect();
        let drawn = IndexInterner::from_indices(domain.len(), indices);
        assert_eq!(drawn.finish(|i| domain[i].to_string()), want, "indices encoded in place");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different indices")]
    fn index_interner_rejects_a_value_under_two_indices() {
        let mut b = IndexInterner::new(2, 2);
        b.push(0);
        b.push(1);
        b.finish(|_| "same".to_string());
    }

    #[test]
    fn heap_bytes_counts_codes_and_dict() {
        let c = sample();
        assert!(c.heap_bytes() >= 6 * 4 + "AIRRAILTRUCK".len());
    }
}
