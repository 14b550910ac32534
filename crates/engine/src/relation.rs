//! Relations — named column collections flowing between operators.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::{EngineError, Result};
use wimpi_storage::{Column, DataType, StorageError, Table, Value};

/// The row id of a row with no source row: a left outer join's unmatched
/// build side. It reads as its type's default (`0`, `""`, `false`).
pub(crate) const NONE_ROW: u32 = u32::MAX;

/// An intermediate (or final) result: ordered named fields of equal length.
///
/// A field is a base column plus, once an operator has selected or reordered
/// rows, a `u32` row-id vector into it, shared by every field of the same
/// source. [`Relation::take`] composes one id vector per source and copies no
/// column, so a filter hands on its candidate list and a join its two index
/// vectors, as MonetDB's operators do. A column is gathered once, on its
/// first read ([`Relation::column`], [`Relation::fields`]), and cached in its
/// field; [`crate::exec::execute`] gathers what is still pending at the root.
/// Scans and projections of bare columns are zero-copy. Every charge reads
/// [`Relation::stream_bytes`], which is computed from the column types and
/// the row count, so it is the same whether a field is gathered or not.
///
/// Equality is bit-exact equality of the gathered columns (floats compare by
/// value, dictionary columns by codes and values) — what the
/// parallel-determinism tests assert.
#[derive(Clone)]
pub struct Relation {
    fields: Vec<(String, Field)>,
    nrows: usize,
    /// [`Relation::fields`]'s gathered slice, built on its first call.
    gathered: OnceLock<Vec<(String, Arc<Column>)>>,
}

/// One field: its base column, read through `ids` when there are any.
#[derive(Clone)]
pub(crate) struct Field {
    base: Arc<Column>,
    ids: Option<Arc<Ids>>,
    /// The gathered column, shared by every clone of the field.
    gathered: Arc<OnceLock<Arc<Column>>>,
}

/// Row ids into a base column, shared by every field of one source.
struct Ids {
    rows: Vec<u32>,
    /// Some row is [`NONE_ROW`].
    outer: bool,
}

impl Ids {
    /// The ids `sel` picks out of these: `self.rows[sel]`, [`NONE_ROW`]
    /// staying [`NONE_ROW`].
    fn compose(&self, sel: &Ids) -> Ids {
        let rows = if sel.outer {
            let at = |i: u32| if i == NONE_ROW { NONE_ROW } else { self.rows[i as usize] };
            sel.rows.iter().map(|&i| at(i)).collect()
        } else {
            sel.rows.iter().map(|&i| self.rows[i as usize]).collect()
        };
        Ids { rows, outer: self.outer || sel.outer }
    }
}

impl Field {
    /// A field that is its column.
    pub(crate) fn dense(col: Arc<Column>) -> Field {
        Field { base: col, ids: None, gathered: Arc::default() }
    }

    /// Its row count.
    fn len(&self) -> usize {
        self.ids.as_ref().map_or(self.base.len(), |ids| ids.rows.len())
    }

    /// The column, gathered on the first read.
    fn read(&self) -> &Arc<Column> {
        match &self.ids {
            None => &self.base,
            Some(ids) => self.gathered.get_or_init(|| Arc::new(gather(&self.base, ids))),
        }
    }
}

/// `base` at `ids`, a [`NONE_ROW`] reading as the type default.
fn gather(base: &Column, ids: &Ids) -> Column {
    if !ids.outer {
        return base.take(&ids.rows);
    }
    let sel = &ids.rows;
    match base {
        Column::Int64(v) => Column::Int64(or_default(v, sel)),
        Column::Decimal(v, s) => Column::Decimal(or_default(v, sel), *s),
        Column::Int32(v) => Column::Int32(or_default(v, sel)),
        Column::Date(v) => Column::Date(or_default(v, sel)),
        Column::Float64(v) => Column::Float64(or_default(v, sel)),
        Column::Bool(v) => Column::Bool(or_default(v, sel)),
        Column::Str(d) => Column::Str(d.take_or_empty(sel, NONE_ROW)),
    }
}

fn or_default<T: Copy + Default>(v: &[T], sel: &[u32]) -> Vec<T> {
    sel.iter().map(|&i| if i == NONE_ROW { T::default() } else { v[i as usize] }).collect()
}

impl Relation {
    /// Builds a relation from named columns, validating equal lengths.
    pub fn new(fields: Vec<(String, Arc<Column>)>) -> Result<Self> {
        Self::from_fields(fields.into_iter().map(|(n, c)| (n, Field::dense(c))).collect())
    }

    /// Builds a relation from named fields, lazy or not, validating equal
    /// lengths and distinct names.
    pub(crate) fn from_fields(fields: Vec<(String, Field)>) -> Result<Self> {
        let nrows = fields.first().map_or(0, |(_, f)| f.len());
        for (i, (name, f)) in fields.iter().enumerate() {
            if f.len() != nrows {
                return Err(EngineError::Plan(format!(
                    "column {name} has {} rows, expected {nrows}",
                    f.len()
                )));
            }
            if fields[..i].iter().any(|(n, _)| n == name) {
                return Err(EngineError::Plan(format!("duplicate column name {name}")));
            }
        }
        Ok(Self { fields, nrows, gathered: OnceLock::new() })
    }

    /// Builds a relation over (a projection of) a stored table, zero-copy.
    pub fn from_table(table: &Table, projection: Option<&[String]>) -> Result<Self> {
        let fields = match projection {
            Some(names) => names
                .iter()
                .map(|n| Ok((n.clone(), Field::dense(Arc::clone(table.column_by_name(n)?)))))
                .collect::<Result<Vec<_>>>()?,
            None => table
                .schema()
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), Field::dense(Arc::clone(table.column(i)))))
                .collect(),
        };
        Ok(Self { fields, nrows: table.num_rows(), gathered: OnceLock::new() })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.fields.len()
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// The fields (name, column) in order, every pending column gathered on
    /// the first call.
    pub fn fields(&self) -> &[(String, Arc<Column>)] {
        self.gathered.get_or_init(|| {
            self.fields.iter().map(|(n, f)| (n.clone(), Arc::clone(f.read()))).collect()
        })
    }

    /// The named field as it stands, gathered or not.
    pub(crate) fn field(&self, name: &str) -> Result<&Field> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .ok_or_else(|| EngineError::Storage(StorageError::ColumnNotFound(name.to_string())))
    }

    /// Looks up a column by name, gathering it on the first read.
    pub fn column(&self, name: &str) -> Result<&Arc<Column>> {
        self.field(name).map(Field::read)
    }

    /// True when the relation has a column with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|(n, _)| n == name)
    }

    /// The data type of a named column.
    pub fn data_type(&self, name: &str) -> Result<DataType> {
        self.field(name).map(|f| f.base.data_type())
    }

    /// The cell at (row, column name) — convenience for tests and result
    /// formatting, not an execution path.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        Ok(self.column(name)?.value(row))
    }

    /// Selects the `sel` rows of every field: one composed id vector per
    /// source, no column gathered.
    pub fn take(&self, sel: &[u32]) -> Relation {
        self.select(Ids { rows: sel.to_vec(), outer: false })
    }

    /// [`Relation::take`] of an owned selection whose [`NONE_ROW`]s, when
    /// `outer`, select no row.
    pub(crate) fn take_ids(&self, rows: Vec<u32>, outer: bool) -> Relation {
        self.select(Ids { rows, outer })
    }

    fn select(&self, sel: Ids) -> Relation {
        let (nrows, sel) = (sel.rows.len(), Arc::new(sel));
        // Fields that share an id vector share its composition; fields that
        // are their column share `sel` itself.
        let mut composed: Vec<(*const Ids, Arc<Ids>)> = Vec::new();
        let mut ids_of = |old: &Option<Arc<Ids>>| match old {
            None => Arc::clone(&sel),
            Some(old) => {
                let key = Arc::as_ptr(old);
                if let Some((_, ids)) = composed.iter().find(|(k, _)| *k == key) {
                    return Arc::clone(ids);
                }
                let ids = Arc::new(old.compose(&sel));
                composed.push((key, Arc::clone(&ids)));
                ids
            }
        };
        let fields = self
            .fields
            .iter()
            .map(|(n, f)| {
                let ids = Some(ids_of(&f.ids));
                (n.clone(), Field { base: Arc::clone(&f.base), ids, gathered: Arc::default() })
            })
            .collect();
        Relation { fields, nrows, gathered: OnceLock::new() }
    }

    /// This relation's fields followed by `other`'s — a join's output.
    pub(crate) fn concat(self, other: Relation) -> Result<Relation> {
        let mut fields = self.fields;
        fields.extend(other.fields);
        Self::from_fields(fields)
    }

    /// This relation with every pending column gathered and no id vector
    /// left: what [`crate::exec::execute`] returns.
    pub(crate) fn gather_all(self) -> Relation {
        let fields =
            self.fields.iter().map(|(n, f)| (n.clone(), Field::dense(Arc::clone(f.read()))));
        Relation { fields: fields.collect(), nrows: self.nrows, gathered: OnceLock::new() }
    }

    /// Each field's name and the bytes per row it streams, read off its
    /// type: nothing is gathered.
    pub(crate) fn widths(&self) -> impl Iterator<Item = (&str, u64)> {
        self.fields.iter().map(|(n, f)| (n.as_str(), f.base.data_type().stream_width() as u64))
    }

    /// Bytes streamed when every column is scanned once — the quantity the
    /// work profile charges (dictionary payloads excluded; see
    /// [`wimpi_storage::Column::stream_bytes`]). Read off the types and the
    /// row count, so a pending column counts as its gathered form would.
    pub fn stream_bytes(&self) -> usize {
        self.nrows * self.widths().map(|(_, w)| w as usize).sum::<usize>()
    }

    /// Renders the first `limit` rows as an aligned text table.
    pub fn to_text(&self, limit: usize) -> String {
        let rows = self.nrows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(rows + 1);
        cells.push(self.names().map(str::to_string).collect());
        for r in 0..rows {
            cells.push(self.fields().iter().map(|(_, c)| c.value(r).to_string()).collect());
        }
        let ncols = self.fields.len();
        let mut widths = vec![0usize; ncols];
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            out.push('\n');
            if ri == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.max(1) - 1)));
                out.push('\n');
            }
        }
        if self.nrows > rows {
            out.push_str(&format!("… {} more rows\n", self.nrows - rows));
        }
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows && self.fields() == other.fields()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("fields", &self.fields())
            .field("nrows", &self.nrows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::join::{exec_join, MATCHED_COL};
    use crate::exec::parallel::EngineConfig;
    use crate::governor::QueryContext;
    use crate::plan::JoinType;
    use crate::stats::WorkProfile;
    use wimpi_obs::Tracer;
    use wimpi_storage::{DictColumn, Field as SchemaField, Schema};

    impl Relation {
        /// True while some field still reads through row ids.
        fn pending(&self) -> bool {
            self.fields.iter().any(|(_, f)| f.ids.is_some())
        }

        /// True once some column was gathered.
        fn gathered_any(&self) -> bool {
            self.gathered.get().is_some()
                || self.fields.iter().any(|(_, f)| f.gathered.get().is_some())
        }

        fn ids_of(&self, name: &str) -> &Arc<Ids> {
            self.field(name).unwrap().ids.as_ref().expect("a field with row ids")
        }
    }

    fn rel() -> Relation {
        Relation::new(vec![
            ("k".into(), Arc::new(Column::Int64(vec![1, 2, 3]))),
            ("v".into(), Arc::new(Column::Float64(vec![0.5, 1.5, 2.5]))),
        ])
        .unwrap()
    }

    /// One column of each of the seven types, `n` rows.
    fn every_type(n: i64) -> Relation {
        let words = ["AIR", "RAIL", "SHIP", ""];
        Relation::new(vec![
            ("i64".into(), Arc::new(Column::Int64((0..n).map(|i| i * 7 - 3).collect()))),
            ("i32".into(), Arc::new(Column::Int32((0..n as i32).map(|i| 40 - i).collect()))),
            ("f64".into(), Arc::new(Column::Float64((0..n).map(|i| i as f64 / 4.0).collect()))),
            ("dec".into(), Arc::new(Column::Decimal((0..n).map(|i| i * 101).collect(), 2))),
            ("date".into(), Arc::new(Column::Date((0..n as i32).map(|i| 9000 + i).collect()))),
            ("str".into(), Arc::new(Column::Str((0..n).map(|i| words[i as usize % 3]).collect()))),
            ("bool".into(), Arc::new(Column::Bool((0..n).map(|i| i % 3 == 1).collect()))),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let bad = Relation::new(vec![
            ("a".into(), Arc::new(Column::Int64(vec![1]))),
            ("b".into(), Arc::new(Column::Int64(vec![1, 2]))),
        ]);
        assert!(bad.is_err());
        let lazy = rel().take(&[0, 1]);
        assert!(lazy.clone().concat(rel()).is_err(), "2 rows against 3");
        assert!(lazy.clone().concat(lazy).is_err(), "duplicate names");
    }

    #[test]
    fn from_table_projects() {
        let t = Table::new(
            Schema::new(vec![
                SchemaField::new("a", DataType::Int64),
                SchemaField::new("b", DataType::Int64),
            ]),
            vec![Column::Int64(vec![1]), Column::Int64(vec![2])],
        )
        .unwrap();
        let r = Relation::from_table(&t, Some(&["b".to_string()])).unwrap();
        assert_eq!(r.num_columns(), 1);
        assert_eq!(r.value(0, "b").unwrap(), Value::I64(2));
        assert!(Relation::from_table(&t, Some(&["zzz".to_string()])).is_err());
    }

    #[test]
    fn take_selects_every_column() {
        let r = rel().take(&[2, 0]);
        assert_eq!(r.num_rows(), 2);
        assert!(r.pending() && !r.gathered_any(), "take gathers nothing");
        assert_eq!(r.value(0, "k").unwrap(), Value::I64(3));
        assert_eq!(r.value(1, "v").unwrap(), Value::F64(0.5));
    }

    /// Composed ids read what two gathers in a row read, on every type.
    #[test]
    fn take_then_take_equals_gathering_twice() {
        let r = every_type(40);
        let (a, b): (Vec<u32>, Vec<u32>) = ((3..40).step_by(2).collect(), vec![0, 4, 5, 17, 18]);
        let lazy = r.take(&a).take(&b);
        let twice = Relation::new(r.take(&a).fields().to_vec()).unwrap();
        let twice = Relation::new(twice.take(&b).fields().to_vec()).unwrap();
        assert!(!twice.pending());
        let once: Vec<u32> = b.iter().map(|&i| a[i as usize]).collect();
        assert_eq!(lazy.ids_of("i64").rows, once, "one composed id vector");
        assert_eq!(lazy, twice);
        assert_eq!(lazy.value(2, "i64").unwrap(), Value::I64(a[5] as i64 * 7 - 3));
        // Over an outer selection the unmatched rows stay unmatched.
        let outer = r.take_ids(vec![NONE_ROW, 1, 2], true).take(&[2, 0, 1]);
        assert_eq!(outer.ids_of("str").rows, [2, NONE_ROW, 1]);
        assert_eq!(outer.value(1, "str").unwrap(), Value::Str(String::new()));
        assert_eq!(outer.value(2, "i32").unwrap(), Value::I32(39));
    }

    /// A lazy relation equals its gathered form, and differs where the rows
    /// it selects do.
    #[test]
    fn a_lazy_relation_equals_its_gathered_form() {
        let r = every_type(12);
        let sel = [11u32, 0, 5, 5, 2];
        let lazy = r.take(&sel);
        let gathered = Relation::new(r.take(&sel).fields().to_vec()).unwrap();
        assert!(lazy.pending() && !gathered.pending());
        assert_eq!(lazy, gathered);
        assert_eq!(gathered, lazy);
        assert_ne!(lazy, r.take(&[11, 0, 5, 2, 2]));
        let root = lazy.clone().gather_all();
        assert!(!root.pending());
        assert_eq!(root, lazy);
        assert_eq!(root.column("str").unwrap(), lazy.column("str").unwrap());
    }

    /// Every charge rests on this: a lazy relation streams what its gathered
    /// form does, for all seven types (`Str` counts its 4-byte codes, `Bool`
    /// one byte), and answering gathers nothing.
    #[test]
    fn stream_bytes_of_a_lazy_relation_is_its_gathered_forms() {
        let r = every_type(30);
        let lazy = r.take(&[29, 3, 3, 0, 14, 15, 16]);
        let outer = r.take_ids(vec![NONE_ROW, 2, NONE_ROW, 7], true);
        for lazy in [lazy, outer] {
            let widths = lazy.stream_bytes();
            assert!(!lazy.gathered_any(), "stream_bytes gathers nothing");
            let gathered = Relation::new(lazy.fields().to_vec()).unwrap();
            assert_eq!(widths, gathered.stream_bytes());
            let by_column: usize = gathered.fields().iter().map(|(_, c)| c.stream_bytes()).sum();
            assert_eq!(widths, by_column);
            assert_eq!(widths, lazy.num_rows() * (8 + 4 + 8 + 8 + 4 + 4 + 1));
        }
    }

    /// A left outer join's unmatched rows read as the type default, the
    /// strings over the base column's dictionary: `""` is coded at most once,
    /// and the dictionary is shared unless it had to grow.
    #[test]
    fn an_outer_gather_reads_defaults_over_the_shared_dictionary() {
        let r = every_type(4);
        let out = r.take_ids(vec![NONE_ROW, 3, NONE_ROW], true);
        assert_eq!(out.column("i64").unwrap().as_i64().unwrap(), &[0, 18, 0]);
        assert_eq!(out.column("bool").unwrap().as_bool().unwrap(), &[false, false, false]);
        assert_eq!(out.value(0, "f64").unwrap(), Value::F64(0.0));
        let rebuild = |d: &DictColumn, sel: &[u32]| -> Vec<String> {
            sel.iter()
                .map(|&i| if i == NONE_ROW { String::new() } else { d.get(i as usize).to_string() })
                .collect()
        };
        let with_empty: DictColumn = ["b", "", "a", "b"].into_iter().collect();
        let without: DictColumn = ["b", "c", "a", "b"].into_iter().collect();
        for d in [&with_empty, &without] {
            for sel in [&[3u32, 0, 2][..], &[NONE_ROW, 3, NONE_ROW, 1], &[NONE_ROW], &[]] {
                let ids = Ids { rows: sel.to_vec(), outer: true };
                let Column::Str(got) = gather(&Column::Str(d.clone()), &ids) else {
                    panic!("a string column")
                };
                let decoded: Vec<String> = got.iter().map(str::to_string).collect();
                assert_eq!(decoded, rebuild(d, sel));
                let grew = sel.contains(&NONE_ROW) && d.code_of("").is_none();
                assert_eq!(got.cardinality(), d.cardinality() + grew as usize);
                assert_eq!(std::ptr::eq(got.values().as_ptr(), d.values().as_ptr()), !grew);
            }
        }
    }

    /// A join's output fields of one source share one id vector; fields that
    /// share one going in share one coming out.
    #[test]
    fn the_fields_of_one_source_share_one_id_vector() {
        let left = Relation::new(vec![
            ("lk".into(), Arc::new(Column::Int64((0..50).map(|i| i % 7).collect()))),
            ("la".into(), Arc::new(Column::Int32((0..50).collect()))),
            ("lb".into(), Arc::new(Column::Str((0..50).map(|i| ["x", "y"][i % 2]).collect()))),
        ])
        .unwrap()
        .take(&(0..50).filter(|i| i % 3 != 0).collect::<Vec<u32>>());
        let right = Relation::new(vec![
            ("rk".into(), Arc::new(Column::Int64((0..9).collect()))),
            ("ra".into(), Arc::new(Column::Decimal((0..9).map(|i| i * 5).collect(), 2))),
        ])
        .unwrap();
        assert!(Arc::ptr_eq(left.ids_of("lk"), left.ids_of("lb")));
        let on = [("lk".to_string(), "rk".to_string())];
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi] {
            let (mut p, ctx) = (WorkProfile::new(), QueryContext::default());
            let cfg = EngineConfig::serial();
            let out = exec_join(&left, &right, &on, jt, &mut p, &cfg, Tracer::off(), &ctx).unwrap();
            let ids = out.ids_of("lk");
            assert!(["la", "lb"].iter().all(|n| Arc::ptr_eq(ids, out.ids_of(n))), "{jt:?}");
            if jt != JoinType::Semi {
                let rids = out.ids_of("rk");
                assert!(Arc::ptr_eq(rids, out.ids_of("ra")), "{jt:?}");
                assert!(!Arc::ptr_eq(ids, rids), "{jt:?}: two sources, two vectors");
            }
            if jt == JoinType::LeftOuter {
                assert!(out.field(MATCHED_COL).unwrap().ids.is_none(), "computed, not selected");
            }
            // A second selection keeps the sharing.
            let again = out.take(&[1, 0]);
            assert!(Arc::ptr_eq(again.ids_of("lk"), again.ids_of("lb")), "{jt:?}");
        }
    }

    /// `execute` returns its root gathered, on a plan shaped like Q7 — a
    /// filtered `lineitem` joined to `orders` and `customer`, summed by
    /// `c_nationkey` and sorted — and on the same chain left unaggregated.
    #[test]
    fn execute_returns_a_root_with_no_pending_ids() {
        use crate::expr::{col, date};
        use crate::plan::{AggExpr, PlanBuilder, SortKey};
        let catalog = wimpi_tpch::Generator::new(0.01).generate_catalog().unwrap();
        let chain = || {
            PlanBuilder::scan("lineitem")
                .filter(
                    col("l_shipdate")
                        .gte(date("1995-01-01"))
                        .and(col("l_shipdate").lte(date("1996-12-31"))),
                )
                .inner_join(PlanBuilder::scan("orders"), vec![("l_orderkey", "o_orderkey")])
                .inner_join(PlanBuilder::scan("customer"), vec![("o_custkey", "c_custkey")])
        };
        let q7 = chain()
            .aggregate(
                vec![(col("c_nationkey"), "c_nationkey")],
                vec![AggExpr::sum(col("l_extendedprice"), "revenue")],
            )
            .sort(vec![SortKey::asc("c_nationkey")])
            .build();
        let rows = chain()
            .project(vec![(col("c_nationkey"), "nation"), (col("l_extendedprice"), "price")])
            .sort(vec![SortKey::desc("price")])
            .build();
        for plan in [q7, rows] {
            let (rel, _) = crate::execute_query(&plan, &catalog).unwrap();
            assert!(rel.num_rows() > 0);
            assert!(!rel.pending(), "the root is gathered");
        }
    }

    #[test]
    fn lookups() {
        let r = rel();
        assert!(r.contains("k"));
        assert!(!r.contains("x"));
        assert_eq!(r.data_type("v").unwrap(), DataType::Float64);
        assert!(r.column("x").is_err());
        let lazy = r.take(&[1]);
        assert_eq!(lazy.data_type("v").unwrap(), DataType::Float64);
        assert!(!lazy.gathered_any(), "a type is read off the base column");
    }

    #[test]
    fn to_text_renders_header_and_rows() {
        let text = rel().to_text(2);
        assert!(text.contains('k'));
        assert!(text.contains("1 more rows"));
    }
}
