//! Tables and catalogs.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::integrity::{self, IntegrityManifest};
use crate::morsel::{pool_workers, run_each, DEFAULT_MORSEL_ROWS};
use crate::schema::{Schema, SchemaRef};
use crate::zonemap::{self, ZoneMap};

/// An immutable in-memory table: a schema plus one column per field, plus an
/// optional sealed [`IntegrityManifest`] vouching for the column bytes and
/// an optional sealed [`ZoneMap`] summarizing them for scan pruning.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    columns: Vec<Arc<Column>>,
    nrows: usize,
    manifest: Option<Arc<IntegrityManifest>>,
    zones: Option<Arc<ZoneMap>>,
}

impl Table {
    /// Builds a table, checking that every column matches its field's type
    /// and that all columns have the same length.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::LengthMismatch { left: schema.len(), right: columns.len() });
        }
        let nrows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.data_type() != f.data_type {
                return Err(StorageError::TypeMismatch {
                    expected: format!("{} for {}", f.data_type, f.name),
                    actual: c.data_type().to_string(),
                });
            }
            if c.len() != nrows {
                return Err(StorageError::LengthMismatch { left: nrows, right: c.len() });
            }
        }
        Ok(Self {
            schema: Arc::new(schema),
            columns: columns.into_iter().map(Arc::new).collect(),
            nrows,
            manifest: None,
            zones: None,
        })
    }

    /// Seals an [`IntegrityManifest`] over the current column bytes and
    /// returns the table carrying it (DESIGN.md §12). Call at
    /// generation/load time, before the bytes are exposed to faults.
    pub fn with_integrity(mut self) -> Self {
        self.manifest = Some(Arc::new(IntegrityManifest::seal(&self)));
        self
    }

    /// Attaches an externally sealed manifest. The fault-injection and
    /// repair paths use this to pair corrupted bytes with the *original*
    /// manifest (which is exactly what makes the corruption detectable).
    pub fn with_manifest(mut self, manifest: Arc<IntegrityManifest>) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// The sealed manifest, if any.
    pub fn manifest(&self) -> Option<&Arc<IntegrityManifest>> {
        self.manifest.as_ref()
    }

    /// Seals a [`ZoneMap`] over the current column bytes at the default
    /// morsel granularity and returns the table carrying it. Like the
    /// integrity manifest, seal at generation/load time — the summaries
    /// describe exactly the bytes present now (DESIGN.md §14).
    pub fn with_zone_maps(mut self) -> Self {
        self.zones = Some(Arc::new(ZoneMap::seal(&self)));
        self
    }

    /// [`Table::with_zone_maps`] on an explicit chunk grid — tests and
    /// benchmarks shrink it to exercise multi-chunk pruning on small data.
    pub fn with_zone_maps_at(mut self, chunk_rows: usize) -> Self {
        self.zones = Some(Arc::new(ZoneMap::seal_with(&self, chunk_rows)));
        self
    }

    /// The sealed zone map, if any.
    pub fn zones(&self) -> Option<&Arc<ZoneMap>> {
        self.zones.as_ref()
    }

    /// A copy of this table with the column at ordinal `index` replaced
    /// (type and length checked) and every other column Arc-shared. The
    /// manifest handle is carried over unchanged — when the replacement
    /// holds different bytes, scan-time verification will say so. The zone
    /// map is *dropped*: a stale summary over swapped bytes would silently
    /// mis-prune, whereas the stale manifest detects the swap.
    pub fn with_replaced_column(&self, index: usize, column: Column) -> Result<Self> {
        let field = &self.schema.fields()[index];
        if column.data_type() != field.data_type {
            return Err(StorageError::TypeMismatch {
                expected: format!("{} for {}", field.data_type, field.name),
                actual: column.data_type().to_string(),
            });
        }
        if column.len() != self.nrows {
            return Err(StorageError::LengthMismatch { left: self.nrows, right: column.len() });
        }
        let mut columns = self.columns.clone();
        columns[index] = Arc::new(column);
        Ok(Self {
            schema: Arc::clone(&self.schema),
            columns,
            nrows: self.nrows,
            manifest: self.manifest.clone(),
            zones: None,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column at ordinal `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// The column with the given name.
    pub fn column_by_name(&self, name: &str) -> Result<&Arc<Column>> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Total heap bytes held by all columns — the quantity the cluster's
    /// per-node memory budget accounts against.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }
}

/// A named collection of tables — one per simulated node, or one for the
/// whole database in single-node runs.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), Arc::new(table));
    }

    /// Registers a shared table handle (replication without copying).
    pub fn register_shared(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.tables.insert(name.into(), table);
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>> {
        self.tables.get(name).ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Table names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total heap bytes across all tables. Shared (replicated) tables are
    /// counted once per catalog, matching what one node would hold.
    pub fn heap_bytes(&self) -> usize {
        self.tables.values().map(|t| t.heap_bytes()).sum()
    }

    /// Seals an [`IntegrityManifest`] over every table that does not carry
    /// one yet, each column of each table a task on the pool
    /// ([`crate::morsel::run_each`]). Tables shared between catalogs
    /// lose their sharing here (the sealed copy is new); callers
    /// replicating tables should seal *before* registering the shared
    /// handle.
    pub fn seal_integrity(&mut self) {
        self.seal_each(
            |t| t.manifest().is_none(),
            integrity::seal_column,
            |t, columns| {
                t.with_manifest(Arc::new(IntegrityManifest::from_columns(
                    DEFAULT_MORSEL_ROWS,
                    columns,
                )))
            },
        );
    }

    /// Seals a [`ZoneMap`] over every table that does not carry one yet,
    /// mirroring [`Catalog::seal_integrity`] (including its caveat about
    /// shared handles losing their sharing).
    pub fn seal_zone_maps(&mut self) {
        self.seal_each(
            |t| t.zones().is_none(),
            zonemap::seal_column,
            |mut t, columns| {
                t.zones = Some(Arc::new(ZoneMap::from_columns(DEFAULT_MORSEL_ROWS, columns)));
                t
            },
        );
    }

    /// Seals every column of every table `unsealed` picks on the pool, then
    /// attaches each table's column seals, in schema order, to a copy of it.
    fn seal_each<S: Send>(
        &mut self,
        unsealed: impl Fn(&Table) -> bool,
        seal_column: impl Fn(&str, &Column, usize) -> S + Sync,
        attach: impl Fn(Table, Vec<S>) -> Table,
    ) {
        let tables: Vec<(String, Arc<Table>)> = self
            .tables
            .iter()
            .filter(|(_, t)| unsealed(t))
            .map(|(n, t)| (n.clone(), Arc::clone(t)))
            .collect();
        let cells: Vec<(&Table, usize)> = tables
            .iter()
            .flat_map(|(_, t)| (0..t.num_columns()).map(move |c| (t.as_ref(), c)))
            .collect();
        let mut seals = run_each(pool_workers(), cells, |(t, c)| {
            seal_column(&t.schema().fields()[c].name, t.column(c), DEFAULT_MORSEL_ROWS)
        })
        .into_iter();
        for (name, t) in tables {
            let columns = seals.by_ref().take(t.num_columns()).collect();
            self.tables.insert(name, Arc::new(attach(t.as_ref().clone(), columns)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn small_table() -> Table {
        Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Float64)]),
            vec![Column::Int64(vec![1, 2, 3]), Column::Float64(vec![0.5, 1.5, 2.5])],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_types() {
        let err = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Column::Float64(vec![1.0])],
        );
        assert!(matches!(err, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn construction_validates_lengths() {
        let err = Table::new(
            Schema::new(vec![Field::new("a", DataType::Int64), Field::new("b", DataType::Int64)]),
            vec![Column::Int64(vec![1]), Column::Int64(vec![1, 2])],
        );
        assert!(matches!(err, Err(StorageError::LengthMismatch { .. })));
    }

    #[test]
    fn lookups_by_name_and_ordinal() {
        let t = small_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column_by_name("v").unwrap().len(), 3);
        assert!(t.column_by_name("w").is_err());
        assert_eq!(t.column(0).as_i64().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn catalog_register_and_lookup() {
        let mut c = Catalog::new();
        c.register("t", small_table());
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("t").unwrap().num_rows(), 3);
        assert!(c.table("missing").is_err());
        assert_eq!(c.names().collect::<Vec<_>>(), ["t"]);
    }

    #[test]
    fn shared_registration_does_not_copy() {
        let t = Arc::new(small_table());
        let mut a = Catalog::new();
        let mut b = Catalog::new();
        a.register_shared("t", Arc::clone(&t));
        b.register_shared("t", Arc::clone(&t));
        assert!(Arc::ptr_eq(a.table("t").unwrap(), b.table("t").unwrap()));
    }

    #[test]
    fn heap_bytes_sums_columns() {
        let t = small_table();
        assert_eq!(t.heap_bytes(), 3 * 8 + 3 * 8);
    }

    #[test]
    fn sealing_attaches_a_verifying_manifest() {
        let t = small_table().with_integrity();
        let m = t.manifest().expect("sealed");
        assert!(m.verify_self());
        assert!(m.verify_table(&t).is_ok());
    }

    #[test]
    fn catalog_seal_integrity_covers_every_table() {
        let mut c = Catalog::new();
        c.register("t", small_table());
        c.seal_integrity();
        assert!(c.table("t").unwrap().manifest().is_some());
        // Idempotent: a second seal keeps the existing manifest handle.
        let before = Arc::as_ptr(c.table("t").unwrap().manifest().unwrap());
        c.seal_integrity();
        assert_eq!(before, Arc::as_ptr(c.table("t").unwrap().manifest().unwrap()));
    }

    #[test]
    fn catalog_seal_zone_maps_covers_every_table() {
        let mut c = Catalog::new();
        c.register("t", small_table());
        c.seal_zone_maps();
        let z = c.table("t").unwrap().zones().expect("sealed");
        assert_eq!(z.range_over("k", 0..3), Some((1, 3)));
        // Idempotent: a second seal keeps the existing zone-map handle.
        let before = Arc::as_ptr(c.table("t").unwrap().zones().unwrap());
        c.seal_zone_maps();
        assert_eq!(before, Arc::as_ptr(c.table("t").unwrap().zones().unwrap()));
    }

    #[test]
    fn catalog_seals_equal_table_seals_at_any_worker_count() {
        use crate::morsel::with_pool_workers;
        let wide = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64), Field::new("s", DataType::Utf8)]),
            vec![
                Column::Int64((0..150_000).collect()),
                Column::Str((0..150_000).map(|i| ["A", "B", "C"][i % 3]).collect()),
            ],
        )
        .unwrap();
        for workers in [1, 2, 3, 4] {
            let mut c = Catalog::new();
            c.register("t", small_table());
            c.register("wide", wide.clone());
            with_pool_workers(workers, || {
                c.seal_integrity();
                c.seal_zone_maps();
            });
            for (name, t) in [("t", small_table()), ("wide", wide.clone())] {
                let sealed = c.table(name).unwrap();
                let want = t.with_integrity().with_zone_maps();
                assert_eq!(sealed.manifest(), want.manifest(), "{name} at {workers} workers");
                assert_eq!(sealed.zones(), want.zones(), "{name} at {workers} workers");
            }
        }
    }

    #[test]
    fn replaced_columns_drop_zone_maps() {
        let t = small_table().with_zone_maps();
        assert!(t.zones().is_some());
        let swapped = t.with_replaced_column(0, Column::Int64(vec![9, 2, 3])).expect("valid swap");
        assert!(
            swapped.zones().is_none(),
            "stale zone maps over swapped bytes would silently mis-prune"
        );
    }

    #[test]
    fn replaced_columns_keep_schema_and_manifest() {
        let t = small_table().with_integrity();
        let swapped = t.with_replaced_column(0, Column::Int64(vec![9, 2, 3])).expect("valid swap");
        assert_eq!(swapped.column(0).as_i64().unwrap(), &[9, 2, 3]);
        // The carried-over manifest now (correctly) flags the new bytes.
        let m = swapped.manifest().expect("carried over");
        assert!(m.verify_table(&swapped).is_err());
        assert!(
            t.with_replaced_column(0, Column::Float64(vec![1.0, 2.0, 3.0])).is_err(),
            "type checked"
        );
        assert!(t.with_replaced_column(0, Column::Int64(vec![1])).is_err(), "length checked");
    }
}
