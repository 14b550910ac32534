//! The generator itself: dbgen re-implemented.
//!
//! Cardinalities, key structure (sparse order keys, the part→supplier
//! assignment formula), value distributions, and date arithmetic follow the
//! TPC-H specification §4.2. Two documented deviations (DESIGN.md §2):
//!
//! 1. The RNG is our own counter-based generator, so absolute values differ
//!    from the reference dbgen while every distribution and selectivity is
//!    preserved.
//! 2. Free-text comments are drawn from a per-table pool of up to 65,536
//!    grammar-generated texts instead of one fresh text per row. Pattern
//!    selectivities (`%special%requests%`, `%Customer%Complaints%`) are
//!    unchanged because pool entries come from the same distribution;
//!    memory drops by an order of magnitude, which is what lets a laptop—or
//!    a simulated 1 GB Pi node—hold SF 10 partitions. The orders and lineitem
//!    pools depend only on the scale factor, so a [`Generator`] builds them
//!    once, on first use, and every later chunk reuses them. Short
//!    texts repeat within a pool (SF 0.01's 2,000 part comments hold 1,730
//!    distinct texts), and equal pool texts share one dictionary code: a
//!    pool maps each index to the first index holding its text, once, when
//!    it is built.
//!
//! Every string a row draws by index — from a comment pool, a fixed word
//! list, or a numbered domain such as `Clerk#…` — is interned by that index
//! ([`IndexInterner`]): the row's text is never hashed, copied or formatted,
//! and each distinct value is built once per column. Only free-form values
//! (addresses, phone numbers, part names, the spliced supplier comments) go
//! through a [`DictBuilder`]. Both produce the encoding pushing every row's
//! text would: codes in first-appearance order.
//!
//! `orders` and `lineitem` are generated on the pool
//! ([`wimpi_storage::morsel`]), in pieces that write disjoint slices of
//! columns the calling thread allocated at their exact length; a piece's
//! string columns hold drawn indices, which one first-appearance pass per
//! column encodes afterwards ([`IndexInterner::from_indices`]). So the bytes
//! do not depend on the worker count or the piece size (DESIGN.md §16).

use std::sync::OnceLock;

use crate::rng::{RowRng, Stream};
use crate::schema;
use crate::text;
use wimpi_storage::hash::{FxBuild, FxMap};
use wimpi_storage::morsel::{pool_workers, run_each_beside, run_indexed};
use wimpi_storage::{Catalog, Column, Date32, DictBuilder, IndexInterner, Result, Table};

/// TPC-H population constants (spec §4.2.3).
pub const CUSTOMERS_PER_SF: f64 = 150_000.0;
/// Suppliers per scale factor.
pub const SUPPLIERS_PER_SF: f64 = 10_000.0;
/// Parts per scale factor.
pub const PARTS_PER_SF: f64 = 200_000.0;
/// Orders per scale factor.
pub const ORDERS_PER_SF: f64 = 1_500_000.0;
/// Clerks per scale factor.
pub const CLERKS_PER_SF: f64 = 1_000.0;

/// The spec's CURRENTDATE used for return flags and line status.
pub fn current_date() -> Date32 {
    Date32::from_ymd(1995, 6, 17)
}

/// First populated order date.
pub fn start_date() -> Date32 {
    Date32::from_ymd(1992, 1, 1)
}

/// Last populated order date (ENDDATE − 151 days = 1998-08-02).
pub fn last_order_date() -> Date32 {
    Date32::from_ymd(1998, 8, 2)
}

/// Maximum distinct comments held per table (documented pool substitution).
const COMMENT_POOL_MAX: usize = 65_536;

/// A pool of pre-generated pseudo-text comments.
struct CommentPool {
    texts: Vec<String>,
    /// Each index's first index holding the same text: the index a row's
    /// comment is interned by, so equal texts share one code.
    first: Vec<u32>,
}

impl CommentPool {
    fn new(stream: Stream, min: usize, max: usize, rows: u64) -> Self {
        let size = pool_size(rows);
        let texts: Vec<String> =
            (0..size).map(|j| text::pseudo_text(&mut stream.rng(j as u64), min, max)).collect();
        let mut seen: FxMap<&str, u32> = FxMap::with_capacity_and_hasher(size, FxBuild);
        let first =
            (0..size as u32).map(|j| *seen.entry(&texts[j as usize]).or_insert(j)).collect();
        Self { texts, first }
    }

    /// Deterministically picks the comment for a row: the first pool index
    /// holding its text.
    fn draw(&self, rng: &mut RowRng) -> usize {
        self.first[rng.index(self.texts.len())] as usize
    }

    /// The column of rows that drew the pool indices `drawn` — what
    /// [`CommentPool::draw`] picks, before the pool itself exists — encoded
    /// in one pass over the whole column.
    fn encode(&self, mut drawn: Vec<u32>) -> Column {
        for j in &mut drawn {
            *j = self.first[*j as usize];
        }
        self.finish(IndexInterner::from_indices(self.texts.len(), drawn))
    }

    /// An interner over the pool, with room for `rows` rows.
    fn interner(&self, rows: usize) -> IndexInterner {
        IndexInterner::new(self.texts.len(), rows)
    }

    /// The comment column of the drawn indices.
    fn finish(&self, comments: IndexInterner) -> Column {
        Column::Str(comments.finish(|i| self.texts[i].clone()))
    }
}

/// Texts in a pool for a table of `rows` rows.
fn pool_size(rows: u64) -> usize {
    (rows as usize).clamp(1, COMMENT_POOL_MAX)
}

/// The column of the indices drawn from a fixed word list.
fn finish_list(list: &[&str], drawn: IndexInterner) -> Column {
    Column::Str(drawn.finish(|i| list[i].to_string()))
}

/// `L_RETURNFLAG` values, by draw index.
const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
/// `L_LINESTATUS` values: shipped, open.
const LINE_STATUSES: [&str; 2] = ["F", "O"];
/// `O_ORDERSTATUS` values: all lines shipped, none, some.
const ORDER_STATUSES: [&str; 3] = ["F", "O", "P"];

/// The TPC-H data generator for one scale factor.
///
/// ```
/// use wimpi_tpch::Generator;
/// let g = Generator::new(0.001);
/// let customers = g.customer_table().unwrap();
/// assert_eq!(customers.num_rows(), 150);
/// ```
pub struct Generator {
    sf: f64,
    /// The orders and lineitem comment pools, each built on first use.
    order_pool: OnceLock<CommentPool>,
    line_pool: OnceLock<CommentPool>,
}

impl std::fmt::Debug for Generator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generator").field("sf", &self.sf).finish_non_exhaustive()
    }
}

impl Generator {
    /// Creates a generator for scale factor `sf` (fractional SFs allowed for
    /// tests and examples).
    pub fn new(sf: f64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        Self { sf, order_pool: OnceLock::new(), line_pool: OnceLock::new() }
    }

    /// The scale factor.
    pub fn sf(&self) -> f64 {
        self.sf
    }

    /// Number of customers.
    pub fn num_customers(&self) -> u64 {
        scaled(self.sf, CUSTOMERS_PER_SF)
    }

    /// Number of suppliers.
    pub fn num_suppliers(&self) -> u64 {
        scaled(self.sf, SUPPLIERS_PER_SF)
    }

    /// Number of parts.
    pub fn num_parts(&self) -> u64 {
        scaled(self.sf, PARTS_PER_SF)
    }

    /// Number of orders.
    pub fn num_orders(&self) -> u64 {
        scaled(self.sf, ORDERS_PER_SF)
    }

    /// Number of clerks.
    pub fn num_clerks(&self) -> u64 {
        scaled(self.sf, CLERKS_PER_SF)
    }

    /// The fixed `region` table.
    pub fn region_table(&self) -> Result<Table> {
        let n = text::REGIONS.len();
        let pool = CommentPool::new(Stream::RegionComment, 31, 115, n as u64);
        let mut name = IndexInterner::new(n, n);
        let mut comment = pool.interner(n);
        let mut key = Vec::new();
        for i in 0..n {
            key.push(i as i64);
            name.push(i);
            comment.push(pool.draw(&mut Stream::RegionComment.rng(1000 + i as u64)));
        }
        Table::new(
            schema::region(),
            vec![Column::Int64(key), finish_list(text::REGIONS, name), pool.finish(comment)],
        )
    }

    /// The fixed `nation` table.
    pub fn nation_table(&self) -> Result<Table> {
        let n = text::NATIONS.len();
        let pool = CommentPool::new(Stream::NationComment, 31, 114, n as u64);
        let mut name = IndexInterner::new(n, n);
        let mut comment = pool.interner(n);
        let (mut key, mut rkey) = (Vec::new(), Vec::new());
        for (i, &(_, r)) in text::NATIONS.iter().enumerate() {
            key.push(i as i64);
            name.push(i);
            rkey.push(r);
            comment.push(pool.draw(&mut Stream::NationComment.rng(1000 + i as u64)));
        }
        Table::new(
            schema::nation(),
            vec![
                Column::Int64(key),
                Column::Str(name.finish(|i| text::NATIONS[i].0.to_string())),
                Column::Int64(rkey),
                pool.finish(comment),
            ],
        )
    }

    /// The `supplier` table.
    pub fn supplier_table(&self) -> Result<Table> {
        let n = self.num_suppliers();
        let pool = CommentPool::new(Stream::SuppComment, 25, 100, n);
        let mut key = Vec::with_capacity(n as usize);
        let mut name = IndexInterner::new(n as usize, n as usize);
        let mut address = DictBuilder::with_capacity(n as usize);
        let mut nation = Vec::with_capacity(n as usize);
        let mut phone = DictBuilder::with_capacity(n as usize);
        let mut acctbal = Vec::with_capacity(n as usize);
        let mut comment = DictBuilder::with_capacity(n as usize);
        for i in 0..n {
            let suppkey = i as i64 + 1;
            key.push(suppkey);
            name.push(i as usize);
            address.push(&Stream::SuppAddress.rng(i).v_string(10, 40));
            let nk = Stream::SuppNation.rng(i).uniform_i64(0, 24);
            nation.push(nk);
            phone.push(&phone_for(nk, &mut Stream::SuppPhone.rng(i)));
            acctbal.push(Stream::SuppAcctbal.rng(i).uniform_i64(-99_999, 999_999));
            // Spec §4.2.3: 5 per 10,000 suppliers complain, 5 recommend.
            let base = &pool.texts[pool.draw(&mut Stream::SuppComment.rng(i))];
            match suppkey % 2000 {
                13 => comment.push(&splice(base, "Customer Complaints")),
                1987 => comment.push(&splice(base, "Customer Recommends")),
                _ => comment.push(base),
            }
        }
        Table::new(
            schema::supplier(),
            vec![
                Column::Int64(key),
                Column::Str(name.finish(|i| format!("Supplier#{:09}", i + 1))),
                Column::Str(address.finish()),
                Column::Int64(nation),
                Column::Str(phone.finish()),
                Column::Decimal(acctbal, 2),
                Column::Str(comment.finish()),
            ],
        )
    }

    /// The `customer` table.
    pub fn customer_table(&self) -> Result<Table> {
        let n = self.num_customers();
        let pool = CommentPool::new(Stream::CustComment, 29, 116, n);
        let mut key = Vec::with_capacity(n as usize);
        let mut name = IndexInterner::new(n as usize, n as usize);
        let mut address = DictBuilder::with_capacity(n as usize);
        let mut nation = Vec::with_capacity(n as usize);
        let mut phone = DictBuilder::with_capacity(n as usize);
        let mut acctbal = Vec::with_capacity(n as usize);
        let mut segment = IndexInterner::new(text::SEGMENTS.len(), n as usize);
        let mut comment = pool.interner(n as usize);
        for i in 0..n {
            key.push(i as i64 + 1);
            name.push(i as usize);
            address.push(&Stream::CustAddress.rng(i).v_string(10, 40));
            let nk = Stream::CustNation.rng(i).uniform_i64(0, 24);
            nation.push(nk);
            phone.push(&phone_for(nk, &mut Stream::CustPhone.rng(i)));
            acctbal.push(Stream::CustAcctbal.rng(i).uniform_i64(-99_999, 999_999));
            segment.push(Stream::CustSegment.rng(i).index(text::SEGMENTS.len()));
            comment.push(pool.draw(&mut Stream::CustComment.rng(i)));
        }
        Table::new(
            schema::customer(),
            vec![
                Column::Int64(key),
                Column::Str(name.finish(|i| format!("Customer#{:09}", i + 1))),
                Column::Str(address.finish()),
                Column::Int64(nation),
                Column::Str(phone.finish()),
                Column::Decimal(acctbal, 2),
                finish_list(text::SEGMENTS, segment),
                pool.finish(comment),
            ],
        )
    }

    /// The `part` table.
    pub fn part_table(&self) -> Result<Table> {
        let n = self.num_parts();
        let pool = CommentPool::new(Stream::PartComment, 5, 22, n);
        let mut key = Vec::with_capacity(n as usize);
        let (t2, t3) = (text::TYPES_2.len(), text::TYPES_3.len());
        let c2 = text::CONTAINERS_2.len();
        let mut name = DictBuilder::with_capacity(n as usize);
        let mut mfgr = IndexInterner::new(5, n as usize);
        let mut brand = IndexInterner::new(5 * 5, n as usize);
        let mut ptype = IndexInterner::new(text::TYPES_1.len() * t2 * t3, n as usize);
        let mut size = Vec::with_capacity(n as usize);
        let mut container = IndexInterner::new(text::CONTAINERS_1.len() * c2, n as usize);
        let mut retail = Vec::with_capacity(n as usize);
        let mut comment = pool.interner(n as usize);
        for i in 0..n {
            let partkey = i as i64 + 1;
            key.push(partkey);
            name.push(&part_name(&mut Stream::PartName.rng(i)));
            // Manufacturer#M and Brand#MN, M and N uniform in 1..=5.
            let m = Stream::PartMfgr.rng(i).index(5);
            mfgr.push(m);
            brand.push(m * 5 + Stream::PartBrand.rng(i).index(5));
            let mut trng = Stream::PartType.rng(i);
            let t1 = trng.index(text::TYPES_1.len());
            let t = (t1 * t2 + trng.index(t2)) * t3;
            ptype.push(t + trng.index(t3));
            size.push(Stream::PartSize.rng(i).uniform_i64(1, 50) as i32);
            let mut crng = Stream::PartContainer.rng(i);
            let c1 = crng.index(text::CONTAINERS_1.len());
            container.push(c1 * c2 + crng.index(c2));
            retail.push(retail_price_cents(partkey));
            comment.push(pool.draw(&mut Stream::PartComment.rng(i)));
        }
        let type_of = |i: usize| {
            let (t1, t) = (i / (t2 * t3), i % (t2 * t3));
            let (a, b, c) = (text::TYPES_1[t1], text::TYPES_2[t / t3], text::TYPES_3[t % t3]);
            format!("{a} {b} {c}")
        };
        let container_of =
            |i: usize| format!("{} {}", text::CONTAINERS_1[i / c2], text::CONTAINERS_2[i % c2]);
        Table::new(
            schema::part(),
            vec![
                Column::Int64(key),
                Column::Str(name.finish()),
                Column::Str(mfgr.finish(|m| format!("Manufacturer#{}", m + 1))),
                Column::Str(brand.finish(|b| format!("Brand#{}{}", b / 5 + 1, b % 5 + 1))),
                Column::Str(ptype.finish(type_of)),
                Column::Int32(size),
                Column::Str(container.finish(container_of)),
                Column::Decimal(retail, 2),
                pool.finish(comment),
            ],
        )
    }

    /// The `partsupp` table (4 suppliers per part, spec assignment formula).
    pub fn partsupp_table(&self) -> Result<Table> {
        let parts = self.num_parts();
        let suppliers = self.num_suppliers() as i64;
        let rows = parts * 4;
        let pool = CommentPool::new(Stream::PsComment, 49, 198, rows);
        let mut pkey = Vec::with_capacity(rows as usize);
        let mut skey = Vec::with_capacity(rows as usize);
        let mut avail = Vec::with_capacity(rows as usize);
        let mut cost = Vec::with_capacity(rows as usize);
        let mut comment = pool.interner(rows as usize);
        for i in 0..parts {
            let partkey = i as i64 + 1;
            for j in 0..4i64 {
                let row = i * 4 + j as u64;
                pkey.push(partkey);
                skey.push(supplier_for_part(partkey, j, suppliers));
                avail.push(Stream::PsAvailQty.rng(row).uniform_i64(1, 9999) as i32);
                cost.push(Stream::PsSupplyCost.rng(row).uniform_i64(100, 100_000));
                comment.push(pool.draw(&mut Stream::PsComment.rng(row)));
            }
        }
        Table::new(
            schema::partsupp(),
            vec![
                Column::Int64(pkey),
                Column::Int64(skey),
                Column::Int32(avail),
                Column::Decimal(cost, 2),
                pool.finish(comment),
            ],
        )
    }

    /// The `orders` comment pool.
    fn order_pool(&self) -> &CommentPool {
        self.order_pool
            .get_or_init(|| CommentPool::new(Stream::OrderComment, 19, 78, self.num_orders()))
    }

    /// The `lineitem` comment pool.
    fn line_pool(&self) -> &CommentPool {
        self.line_pool
            .get_or_init(|| CommentPool::new(Stream::LineComment, 10, 43, self.num_orders() * 4))
    }

    /// Generates `orders` and `lineitem` together for the full database.
    pub fn orders_lineitem(&self) -> Result<(Table, Table)> {
        self.orders_lineitem_chunk(0, 1)
    }

    /// Generates chunk `chunk` of `nchunks` of `orders`/`lineitem`, split by
    /// contiguous order-index (and therefore order-key) ranges. This is the
    /// entry point the cluster's recovery uses to regenerate a lost
    /// partition: every RNG stream is seeded by absolute row index, so a
    /// chunk is deterministic and independent of every other chunk, and the
    /// chunks of any grid concatenate to [`Generator::orders_lineitem`] byte
    /// for byte. Peak memory is one chunk plus the comment pools, which
    /// depend only on the scale factor: the first call builds them and
    /// every later call on this generator reuses them (DESIGN.md §16). The
    /// chunk itself is generated on the pool, in pieces of at most
    /// [`PIECE_ORDERS`] orders.
    pub fn orders_lineitem_chunk(&self, chunk: u64, nchunks: u64) -> Result<(Table, Table)> {
        assert!(nchunks > 0 && chunk < nchunks, "bad chunk {chunk}/{nchunks}");
        let (lo, hi) = chunk_range(self.num_orders(), chunk, nchunks);
        let mut layout = self.layout(lo, hi, 1);
        run_each_beside(
            pool_workers(),
            layout.pieces(),
            |piece| self.write_piece(piece),
            || (self.order_pool(), self.line_pool()),
        );
        let (orders, mut lineitem) = layout.finish(self)?;
        Ok((orders, lineitem.remove(0)))
    }

    /// Every table, with `lineitem` cut into `parts` partitions on the
    /// [`chunk_range`] grid over orders: what a cluster of `parts` nodes
    /// holds. `orders` comes whole, byte-identical to gluing the chunks'
    /// orders together, and partition `p` is byte-identical to
    /// `orders_lineitem_chunk(p, parts)`'s lineitem.
    ///
    /// One pool run builds everything: the calling thread builds both
    /// comment pools and the six small tables, so it allocates every table
    /// it returns, while the other workers write the `orders`/`lineitem`
    /// pieces into columns it allocated too; it joins them when it is done
    /// (DESIGN.md §16).
    pub fn generate_partitioned(&self, parts: u64) -> Result<PartitionedTables> {
        assert!(parts > 0, "at least one partition");
        let mut layout = self.layout(0, self.num_orders(), parts);
        let (_, small) = run_each_beside(
            pool_workers(),
            layout.pieces(),
            |piece| self.write_piece(piece),
            || {
                let small = SMALL_TABLES.map(|(name, table)| (name, table(self)));
                self.order_pool();
                self.line_pool();
                small
            },
        );
        let mut replicated = Vec::with_capacity(SMALL_TABLES.len() + 1);
        for (name, table) in small {
            replicated.push((name, table?));
        }
        let (orders, lineitem) = layout.finish(self)?;
        replicated.push(("orders", orders));
        Ok(PartitionedTables { replicated, lineitem })
    }

    /// Generates the whole database into a catalog — the single-node setup.
    pub fn generate_catalog(&self) -> Result<Catalog> {
        let PartitionedTables { replicated, mut lineitem } = self.generate_partitioned(1)?;
        let mut cat = Catalog::new();
        for (name, table) in replicated {
            cat.register(name, table);
        }
        cat.register("lineitem", lineitem.remove(0));
        Ok(cat)
    }

    /// Lays out `orders` over order indices `lo..hi` and `lineitem` in
    /// `parts` partitions on the [`chunk_range`] grid of that range: every
    /// column allocated here, on the calling thread, at its exact final
    /// length (a pre-pass over the `LineCount` stream, on the pool, counts
    /// each piece's lines), zero pages that the pieces' writers touch
    /// first.
    fn layout(&self, lo: u64, hi: u64, parts: u64) -> Layout {
        let mut pieces = Vec::new();
        for p in 0..parts {
            let (plo, phi) = chunk_range(hi - lo, p, parts);
            let (plo, phi) = (lo + plo, lo + phi);
            let mut start = plo;
            while start < phi {
                let end = phi.min(start + PIECE_ORDERS);
                pieces.push((p as usize, start, end));
                start = end;
            }
        }
        let lines = run_indexed(pool_workers(), pieces.len(), |_, i| {
            let (_, start, end) = pieces[i];
            (start..end).map(line_count).sum::<usize>()
        });
        let mut part_lines = vec![0usize; parts as usize];
        for (&(p, _, _), n) in pieces.iter().zip(&lines) {
            part_lines[p] += n;
        }
        Layout {
            orders: OrderCols::zeroed((hi - lo) as usize),
            parts: part_lines.into_iter().map(LineCols::zeroed).collect(),
            pieces: pieces.into_iter().zip(lines).map(|((p, s, e), n)| (p, s, e, n)).collect(),
        }
    }

    /// Writes one piece: orders `lo..hi`, one row each, and their lines.
    /// Every string column gets the domain index a row drew (the pool
    /// index for comments: the pools need not exist yet); [`Layout::finish`]
    /// encodes them.
    fn write_piece(&self, piece: Piece<'_>) {
        let Piece { lo, hi, orders: o, lines: l } = piece;
        let o_pool = pool_size(self.num_orders());
        let l_pool = pool_size(self.num_orders() * 4);
        let customers = self.num_customers() as i64;
        let clerks = self.num_clerks().max(1) as usize;
        let parts = self.num_parts() as i64;
        let suppliers = self.num_suppliers() as i64;
        let date_span = (last_order_date().0 - start_date().0) as i64;
        let today = current_date();
        let mut j = 0;
        for (i, idx) in (lo..hi).enumerate() {
            let orderkey = order_key_for_index(idx);
            let odate =
                start_date().0 + Stream::OrderDate.rng(idx).uniform_i64(0, date_span) as i32;
            let nlines = line_count(idx);
            let mut total_price = 0;
            let mut f_lines = 0;
            for line in 0..nlines {
                let lrow = idx * 8 + line as u64;
                let partkey = Stream::LinePartkey.rng(lrow).uniform_i64(1, parts);
                let supp_idx = Stream::LineSuppIdx.rng(lrow).uniform_i64(0, 3);
                let qty = Stream::LineQuantity.rng(lrow).uniform_i64(1, 50);
                let ext = qty * retail_price_cents(partkey); // qty(int) × price(cents)
                let disc = Stream::LineDiscount.rng(lrow).uniform_i64(0, 10); // 0.00–0.10
                let tax = Stream::LineTax.rng(lrow).uniform_i64(0, 8); // 0.00–0.08
                let sdate = odate + Stream::LineShipDelta.rng(lrow).uniform_i64(1, 121) as i32;
                let cdate = odate + Stream::LineCommitDelta.rng(lrow).uniform_i64(30, 90) as i32;
                let rdate = sdate + Stream::LineReceiptDelta.rng(lrow).uniform_i64(1, 30) as i32;

                l.okey[j] = orderkey;
                l.pkey[j] = partkey;
                l.skey[j] = supplier_for_part(partkey, supp_idx, suppliers);
                l.num[j] = line as i32 + 1;
                l.qty[j] = qty * 100;
                l.ext[j] = ext;
                l.disc[j] = disc;
                l.tax[j] = tax;
                // R or A once returned, else N.
                l.rflag[j] = if Date32(rdate) <= today {
                    Stream::LineReturnFlag.rng(lrow).index(2) as u32
                } else {
                    2
                };
                let shipped = Date32(sdate) <= today;
                l.status[j] = u32::from(!shipped);
                if shipped {
                    f_lines += 1;
                }
                l.sdate[j] = sdate;
                l.cdate[j] = cdate;
                l.rdate[j] = rdate;
                l.instr[j] = Stream::LineInstruct.rng(lrow).index(text::INSTRUCTIONS.len()) as u32;
                l.mode[j] = Stream::LineMode.rng(lrow).index(text::MODES.len()) as u32;
                l.comment[j] = Stream::LineComment.rng(lrow).index(l_pool) as u32;
                j += 1;

                // o_totalprice += ext × (1 − disc) × (1 + tax): exact at
                // scale 6, rounded half up to cents (every term is positive).
                total_price += (ext * (100 - disc) * (100 + tax) + 5_000) / 10_000;
            }
            o.key[i] = orderkey;
            o.cust[i] = draw_custkey(customers, idx);
            // F when every line shipped, O when none did, else P.
            o.status[i] = match f_lines {
                f if f == nlines => 0,
                0 => 1,
                _ => 2,
            };
            o.total[i] = total_price;
            o.date[i] = odate;
            o.prio[i] = Stream::OrderPriority.rng(idx).index(text::PRIORITIES.len()) as u32;
            o.clerk[i] = Stream::OrderClerk.rng(idx).index(clerks) as u32;
            o.ship[i] = 0;
            o.comment[i] = Stream::OrderComment.rng(idx).index(o_pool) as u32;
        }
        assert_eq!(j, l.okey.len(), "the line-count pre-pass sized the piece");
    }
}

/// Every table of the database, `lineitem` in partitions: see
/// [`Generator::generate_partitioned`].
#[derive(Debug)]
pub struct PartitionedTables {
    /// `region`, `nation`, `supplier`, `customer`, `part`, `partsupp` and
    /// `orders`, by name.
    pub replicated: Vec<(&'static str, Table)>,
    /// `lineitem`, one table per partition.
    pub lineitem: Vec<Table>,
}

/// The most orders one piece of `orders`/`lineitem` generation holds:
/// ≈ 65 536 lines, a morsel. Pieces are the pool's tasks; their size never
/// shows in the bytes, since each writes its own slice of the columns and
/// the strings are encoded over the whole column afterwards.
pub const PIECE_ORDERS: u64 = 16_384;

/// A table's generator.
type TableFn = fn(&Generator) -> Result<Table>;

/// The small tables, which the calling thread generates.
const SMALL_TABLES: [(&str, TableFn); 6] = [
    ("region", Generator::region_table),
    ("nation", Generator::nation_table),
    ("supplier", Generator::supplier_table),
    ("customer", Generator::customer_table),
    ("part", Generator::part_table),
    ("partsupp", Generator::partsupp_table),
];

/// Lines of order `idx`: 1 to 7.
fn line_count(idx: u64) -> usize {
    Stream::LineCount.rng(idx).uniform_i64(1, 7) as usize
}

/// Declares a table's generated columns twice: owned, at their final
/// length, and as one piece's disjoint mutable slices of them. A string
/// column holds each row's domain index until it is encoded.
macro_rules! columns {
    ($cols:ident, $out:ident { $($f:ident: $t:ty),* $(,)? }) => {
        struct $cols {
            $($f: Vec<$t>,)*
        }

        struct $out<'a> {
            $($f: &'a mut [$t],)*
        }

        impl $cols {
            fn zeroed(n: usize) -> Self {
                Self { $($f: vec![0; n],)* }
            }

            fn out(&mut self) -> $out<'_> {
                $out { $($f: &mut self.$f,)* }
            }
        }

        impl<'a> $out<'a> {
            /// The first `mid` rows, and the rest.
            fn split_at(self, mid: usize) -> (Self, Self) {
                $(let $f = self.$f.split_at_mut(mid);)*
                ($out { $($f: $f.0,)* }, $out { $($f: $f.1,)* })
            }
        }
    };
}

columns!(
    OrderCols,
    OrderOut {
        key: i64,
        cust: i64,
        status: u32,
        total: i64,
        date: i32,
        prio: u32,
        clerk: u32,
        ship: i32,
        comment: u32,
    }
);

columns!(
    LineCols,
    LineOut {
        okey: i64,
        pkey: i64,
        skey: i64,
        num: i32,
        qty: i64,
        ext: i64,
        disc: i64,
        tax: i64,
        rflag: u32,
        status: u32,
        sdate: i32,
        cdate: i32,
        rdate: i32,
        instr: u32,
        mode: u32,
        comment: u32,
    }
);

/// `orders` over an order range and its `lineitem` partitions, allocated
/// by [`Generator::layout`].
struct Layout {
    orders: OrderCols,
    parts: Vec<LineCols>,
    /// (partition, first order, end order, lines) per piece, in order.
    pieces: Vec<(usize, u64, u64, usize)>,
}

/// One task's share of a [`Layout`].
struct Piece<'a> {
    lo: u64,
    hi: u64,
    orders: OrderOut<'a>,
    lines: LineOut<'a>,
}

impl Layout {
    /// Every piece's slices, in order.
    fn pieces(&mut self) -> Vec<Piece<'_>> {
        let mut orders = self.orders.out();
        let mut parts: Vec<Option<LineOut<'_>>> =
            self.parts.iter_mut().map(|l| Some(l.out())).collect();
        let mut out = Vec::with_capacity(self.pieces.len());
        for &(p, lo, hi, lines) in &self.pieces {
            let (o, rest) = orders.split_at((hi - lo) as usize);
            orders = rest;
            let (l, rest) = parts[p].take().expect("a partition's slices").split_at(lines);
            parts[p] = Some(rest);
            out.push(Piece { lo, hi, orders: o, lines: l });
        }
        out
    }

    /// Encodes every string column — one first-appearance pass over each
    /// whole column, on the calling thread — and builds the tables.
    fn finish(self, gen: &Generator) -> Result<(Table, Vec<Table>)> {
        let Layout { orders: o, parts: lines, .. } = self;
        let (o_pool, l_pool) = (gen.order_pool(), gen.line_pool());
        let clerks = gen.num_clerks().max(1) as usize;
        let encode = |domain, indices| IndexInterner::from_indices(domain, indices);
        let orders = Table::new(
            schema::orders(),
            vec![
                Column::Int64(o.key),
                Column::Int64(o.cust),
                finish_list(&ORDER_STATUSES, encode(ORDER_STATUSES.len(), o.status)),
                Column::Decimal(o.total, 2),
                Column::Date(o.date),
                finish_list(text::PRIORITIES, encode(text::PRIORITIES.len(), o.prio)),
                Column::Str(encode(clerks, o.clerk).finish(|c| format!("Clerk#{:09}", c + 1))),
                Column::Int32(o.ship),
                o_pool.encode(o.comment),
            ],
        )?;
        let lineitem = lines
            .into_iter()
            .map(|l| {
                Table::new(
                    schema::lineitem(),
                    vec![
                        Column::Int64(l.okey),
                        Column::Int64(l.pkey),
                        Column::Int64(l.skey),
                        Column::Int32(l.num),
                        Column::Decimal(l.qty, 2),
                        Column::Decimal(l.ext, 2),
                        Column::Decimal(l.disc, 2),
                        Column::Decimal(l.tax, 2),
                        finish_list(&RETURN_FLAGS, encode(RETURN_FLAGS.len(), l.rflag)),
                        finish_list(&LINE_STATUSES, encode(LINE_STATUSES.len(), l.status)),
                        Column::Date(l.sdate),
                        Column::Date(l.cdate),
                        Column::Date(l.rdate),
                        finish_list(text::INSTRUCTIONS, encode(text::INSTRUCTIONS.len(), l.instr)),
                        finish_list(text::MODES, encode(text::MODES.len(), l.mode)),
                        l_pool.encode(l.comment),
                    ],
                )
            })
            .collect::<Result<_>>()?;
        Ok((orders, lineitem))
    }
}

/// Rounds a scaled cardinality, keeping at least one row.
fn scaled(sf: f64, per_sf: f64) -> u64 {
    ((sf * per_sf).round() as u64).max(1)
}

/// Sparse order keys: 8 consecutive keys used out of every 32 (spec §4.2.3).
pub fn order_key_for_index(idx: u64) -> i64 {
    let group = idx / 8;
    let offset = idx % 8;
    (group * 32 + offset) as i64 + 1
}

/// Splits `total` rows into `nchunks` contiguous ranges; chunk sizes differ
/// by at most one.
pub fn chunk_range(total: u64, chunk: u64, nchunks: u64) -> (u64, u64) {
    let base = total / nchunks;
    let extra = total % nchunks;
    let lo = chunk * base + chunk.min(extra);
    let hi = lo + base + u64::from(chunk < extra);
    (lo, hi.min(total))
}

/// Customers whose key is divisible by 3 place no orders (spec §4.2.3).
fn draw_custkey(customers: i64, idx: u64) -> i64 {
    let mut rng = Stream::OrderCustkey.rng(idx);
    loop {
        let k = rng.uniform_i64(1, customers);
        if k % 3 != 0 || customers < 3 {
            return k;
        }
    }
}

/// The spec's part→supplier assignment: supplier `j` of part `p` among `s`
/// suppliers is `(p + j*(s/4 + (p-1)/s)) mod s + 1`. At the spec's supplier
/// counts (10,000 × SF) the four assignments are always distinct; at the tiny
/// fractional SFs used in tests they can collide, so collisions fall back to
/// linear probing. Both `partsupp` and `lineitem` go through
/// [`suppliers_of_part`], keeping the foreign key `(l_partkey, l_suppkey) →
/// partsupp` valid at every scale.
pub fn supplier_for_part(partkey: i64, j: i64, suppliers: i64) -> i64 {
    suppliers_of_part(partkey, suppliers)[j as usize]
}

/// The four suppliers stocking a part, distinct at any supplier count.
pub fn suppliers_of_part(partkey: i64, suppliers: i64) -> [i64; 4] {
    let mut out = [0i64; 4];
    for j in 0..4 {
        let mut s = (partkey + j * (suppliers / 4 + (partkey - 1) / suppliers)) % suppliers + 1;
        if suppliers >= 4 {
            while out[..j as usize].contains(&s) {
                s = s % suppliers + 1;
            }
        }
        out[j as usize] = s;
    }
    out
}

/// P_RETAILPRICE in cents: `(90000 + ((p/10) mod 20001) + 100*(p mod 1000))`.
pub fn retail_price_cents(partkey: i64) -> i64 {
    90_000 + ((partkey / 10) % 20_001) + 100 * (partkey % 1_000)
}

/// Part names are five distinct colors joined by spaces.
fn part_name(rng: &mut RowRng) -> String {
    let mut picks: [usize; 5] = [0; 5];
    let mut count = 0;
    while count < 5 {
        let c = rng.index(text::COLORS.len());
        if !picks[..count].contains(&c) {
            picks[count] = c;
            count += 1;
        }
    }
    picks.iter().map(|&c| text::COLORS[c]).collect::<Vec<_>>().join(" ")
}

/// Phone numbers: `CC-LLL-LLL-LLLL` with country code `10 + nationkey`.
fn phone_for(nationkey: i64, rng: &mut RowRng) -> String {
    format!(
        "{:02}-{:03}-{:03}-{:04}",
        10 + nationkey,
        rng.uniform_i64(100, 999),
        rng.uniform_i64(100, 999),
        rng.uniform_i64(1000, 9999),
    )
}

/// Inserts `patch` into the middle of `base` (supplier complaint injection).
fn splice(base: &str, patch: &str) -> String {
    let mid = base.len() / 2;
    // Don't split a UTF-8 boundary; pseudo-text is ASCII, but stay safe.
    let mid = (0..=mid).rev().find(|&i| base.is_char_boundary(i)).unwrap_or(0);
    format!("{}{}{}", &base[..mid], patch, &base[mid..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let g = Generator::new(0.01);
        assert_eq!(g.num_customers(), 1500);
        assert_eq!(g.num_suppliers(), 100);
        assert_eq!(g.num_parts(), 2000);
        assert_eq!(g.num_orders(), 15_000);
    }

    #[test]
    fn order_keys_are_sparse() {
        assert_eq!(order_key_for_index(0), 1);
        assert_eq!(order_key_for_index(7), 8);
        assert_eq!(order_key_for_index(8), 33);
        assert_eq!(order_key_for_index(15), 40);
        assert_eq!(order_key_for_index(16), 65);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        let total = 1003;
        let mut seen = 0;
        for c in 0..7 {
            let (lo, hi) = chunk_range(total, c, 7);
            assert_eq!(lo, seen);
            seen = hi;
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn supplier_assignment_in_range() {
        for p in 1..=200 {
            for j in 0..4 {
                let s = supplier_for_part(p, j, 100);
                assert!((1..=100).contains(&s), "supplier {s} out of range");
            }
        }
    }

    #[test]
    fn retail_price_formula() {
        assert_eq!(retail_price_cents(1), 90_000 + 100);
        assert_eq!(retail_price_cents(10), 90_000 + 1 + 1000);
    }

    #[test]
    fn fixed_tables() {
        let g = Generator::new(1.0);
        let r = g.region_table().unwrap();
        assert_eq!(r.num_rows(), 5);
        let n = g.nation_table().unwrap();
        assert_eq!(n.num_rows(), 25);
        assert_eq!(n.column_by_name("n_name").unwrap().as_str().unwrap().get(6), "FRANCE");
    }

    #[test]
    fn supplier_table_shape() {
        let g = Generator::new(0.01);
        let s = g.supplier_table().unwrap();
        assert_eq!(s.num_rows(), 100);
        let bal = s.column_by_name("s_acctbal").unwrap();
        let (m, scale) = bal.as_decimal().unwrap();
        assert_eq!(scale, 2);
        assert!(m.iter().all(|&v| (-99_999..=999_999).contains(&v)));
    }

    #[test]
    fn customer_custkeys_dense() {
        let g = Generator::new(0.001);
        let c = g.customer_table().unwrap();
        let keys = c.column_by_name("c_custkey").unwrap();
        let keys = keys.as_i64().unwrap();
        assert_eq!(keys.first(), Some(&1));
        assert_eq!(keys.last(), Some(&(keys.len() as i64)));
    }

    #[test]
    fn orders_reference_valid_customers() {
        let g = Generator::new(0.001);
        let (orders, _) = g.orders_lineitem().unwrap();
        let customers = g.num_customers() as i64;
        let cust = orders.column_by_name("o_custkey").unwrap();
        for &k in cust.as_i64().unwrap() {
            assert!((1..=customers).contains(&k));
            assert_ne!(k % 3, 0, "customers divisible by 3 must have no orders");
        }
    }

    #[test]
    fn lineitem_dates_consistent() {
        let g = Generator::new(0.001);
        let (_, li) = g.orders_lineitem().unwrap();
        let ship = li.column_by_name("l_shipdate").unwrap();
        let ship = ship.as_date().unwrap();
        let receipt = li.column_by_name("l_receiptdate").unwrap();
        let receipt = receipt.as_date().unwrap();
        for (s, r) in ship.iter().zip(receipt) {
            assert!(r > s, "receipt must follow ship");
        }
    }

    #[test]
    fn lineitem_count_matches_order_lines() {
        let g = Generator::new(0.001);
        let (orders, li) = g.orders_lineitem().unwrap();
        // 1–7 lines per order, so the ratio must be within those bounds.
        let ratio = li.num_rows() as f64 / orders.num_rows() as f64;
        assert!((1.0..=7.0).contains(&ratio));
        // and close to the expected mean of 4
        assert!((3.5..=4.5).contains(&ratio), "mean lines/order {ratio}");
    }

    #[test]
    fn chunks_concatenate_to_the_full_tables() {
        let g = Generator::new(0.001);
        let (full_o, full_l) = g.orders_lineitem().unwrap();
        let nchunks = 1500u64.div_ceil(57);
        let (mut chunks_o, mut chunks_l) = (Vec::new(), Vec::new());
        for c in 0..nchunks {
            let (o, l) = g.orders_lineitem_chunk(c, nchunks).unwrap();
            assert!(o.num_rows() <= 57, "chunk {c} exceeds its share of orders");
            chunks_o.push(o);
            chunks_l.push(l);
        }
        for (full, parts) in [(&full_o, &chunks_o), (&full_l, &chunks_l)] {
            for ci in 0..full.num_columns() {
                let cols: Vec<&Column> = parts.iter().map(|t| t.column(ci).as_ref()).collect();
                let glued = Column::concat(&cols).unwrap();
                assert_eq!(
                    &glued,
                    full.column(ci).as_ref(),
                    "column {ci} differs between chunked and full generation"
                );
            }
        }
    }

    /// Asserts two tables hold the same schema and bytes.
    fn assert_same(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.schema(), b.schema(), "{what}");
        for ci in 0..a.num_columns() {
            assert_eq!(a.column(ci), b.column(ci), "{what}: column {ci}");
        }
    }

    #[test]
    fn any_worker_count_generates_the_same_bytes() {
        use wimpi_storage::morsel::with_pool_workers;
        // SF 0.05: 75 000 orders, five pieces, the last one short.
        let g = Generator::new(0.05);
        assert_ne!(g.num_orders() % PIECE_ORDERS, 0);
        let serial = with_pool_workers(1, || g.generate_catalog().unwrap());
        assert_eq!(serial.len(), 8);
        // Seven partitions of 15 000 orders, none of equal size.
        let small = Generator::new(0.01);
        assert_ne!(small.num_orders() % 7, 0);
        let (full_orders, _) = with_pool_workers(1, || small.orders_lineitem().unwrap());
        for workers in [1, 2, 3, 4] {
            let cat =
                with_pool_workers(workers, || Generator::new(0.05).generate_catalog().unwrap());
            for name in serial.names() {
                let what = format!("{name} at {workers} workers");
                assert_same(cat.table(name).unwrap(), serial.table(name).unwrap(), &what);
            }
            let parts = with_pool_workers(workers, || small.generate_partitioned(7).unwrap());
            assert_eq!(parts.lineitem.len(), 7);
            for (p, lineitem) in parts.lineitem.iter().enumerate() {
                let (_, chunk) = small.orders_lineitem_chunk(p as u64, 7).unwrap();
                assert_same(lineitem, &chunk, &format!("partition {p} at {workers} workers"));
            }
            let (name, orders) = parts.replicated.last().unwrap();
            assert_eq!(*name, "orders");
            assert_same(orders, &full_orders, &format!("orders at {workers} workers"));
        }
    }

    #[test]
    fn lineitem_columns_are_sized_exactly() {
        let g = Generator::new(0.01);
        let (_, li) = g.orders_lineitem().unwrap();
        // 1–7 lines an order average 4 only in expectation; the pre-pass
        // counts them, so no column grows past its rows.
        for ci in 0..li.num_columns() {
            let spare = match li.column(ci).as_ref() {
                Column::Int64(v) | Column::Decimal(v, _) => v.capacity() - v.len(),
                Column::Int32(v) | Column::Date(v) => v.capacity() - v.len(),
                _ => continue,
            };
            assert_eq!(spare, 0, "column {ci} holds spare capacity");
        }
    }

    #[test]
    fn chunks_are_deterministic_under_random_access() {
        let g = Generator::new(0.001);
        // Regenerate a middle chunk twice, plus out of order: identical bytes.
        let (o1, l1) = g.orders_lineitem_chunk(7, 15).unwrap();
        g.orders_lineitem_chunk(2, 15).unwrap();
        let (o2, l2) = g.orders_lineitem_chunk(7, 15).unwrap();
        for (a, b) in [(&o1, &o2), (&l1, &l2)] {
            for ci in 0..a.num_columns() {
                assert_eq!(a.column(ci).as_ref(), b.column(ci).as_ref(), "column {ci}");
            }
        }
    }

    #[test]
    fn chunk_memory_is_bounded() {
        let g = Generator::new(0.01);
        let (full_o, full_l) = g.orders_lineitem().unwrap();
        let full_bytes = full_o.heap_bytes() + full_l.heap_bytes();
        let max_chunk = (0..15)
            .map(|c| g.orders_lineitem_chunk(c, 15).unwrap())
            .map(|(o, l)| o.heap_bytes() + l.heap_bytes())
            .max()
            .unwrap();
        assert!(
            max_chunk * 4 < full_bytes,
            "peak chunk {max_chunk} B is not small vs full {full_bytes} B"
        );
    }

    #[test]
    fn status_derivation() {
        let g = Generator::new(0.001);
        let (orders, _) = g.orders_lineitem().unwrap();
        let status = orders.column_by_name("o_orderstatus").unwrap();
        let status = status.as_str().unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in status.iter() {
            seen.insert(s.to_string());
            assert!(matches!(s, "F" | "O" | "P"));
        }
        assert!(seen.len() >= 2, "expected a mix of order statuses");
    }

    #[test]
    fn totalprice_positive() {
        let g = Generator::new(0.001);
        let (orders, _) = g.orders_lineitem().unwrap();
        let (m, _) = orders.column_by_name("o_totalprice").unwrap().as_decimal().unwrap();
        assert!(m.iter().all(|&v| v > 0));
    }

    #[test]
    fn partsupp_is_four_per_part() {
        let g = Generator::new(0.001);
        let ps = g.partsupp_table().unwrap();
        assert_eq!(ps.num_rows() as u64, g.num_parts() * 4);
        // (partkey, suppkey) pairs are unique
        let pk = ps.column_by_name("ps_partkey").unwrap();
        let pk = pk.as_i64().unwrap();
        let sk = ps.column_by_name("ps_suppkey").unwrap();
        let sk = sk.as_i64().unwrap();
        let set: std::collections::HashSet<_> = pk.iter().zip(sk).collect();
        assert_eq!(set.len(), ps.num_rows());
    }

    #[test]
    fn complaint_injection_rate() {
        let g = Generator::new(1.0);
        let s = g.supplier_table().unwrap();
        let comments = s.column_by_name("s_comment").unwrap();
        let comments = comments.as_str().unwrap();
        let complainers = comments.iter().filter(|c| c.contains("Customer Complaints")).count();
        assert_eq!(complainers, 5, "5 per 10,000 suppliers at SF 1");
    }
}
