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
//!    once, on its first chunk, and every later chunk reuses them. Short
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

use std::sync::OnceLock;

use crate::rng::{RowRng, Stream};
use crate::schema;
use crate::text;
use wimpi_storage::hash::{FxBuild, FxMap};
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
        let size = (rows as usize).clamp(1, COMMENT_POOL_MAX);
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

    /// An interner over the pool, with room for `rows` rows.
    fn interner(&self, rows: usize) -> IndexInterner {
        IndexInterner::new(self.texts.len(), rows)
    }

    /// The comment column of the drawn indices.
    fn finish(&self, comments: IndexInterner) -> Column {
        Column::Str(comments.finish(|i| self.texts[i].clone()))
    }
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
    /// The orders and lineitem comment pools, built by the first
    /// [`Generator::orders_lineitem_chunk`] call.
    pools: OnceLock<(CommentPool, CommentPool)>,
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
        Self { sf, pools: OnceLock::new() }
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

    /// Generates `orders` and `lineitem` together for the full database.
    pub fn orders_lineitem(&self) -> Result<(Table, Table)> {
        self.orders_lineitem_chunk(0, 1)
    }

    /// Generates chunk `chunk` of `nchunks` of `orders`/`lineitem`, split by
    /// contiguous order-index (and therefore order-key) ranges. This is the
    /// entry point the cluster partitioner uses: every RNG stream is seeded
    /// by absolute row index, so a chunk is deterministic and independent of
    /// every other chunk, and the chunks of any grid concatenate to
    /// [`Generator::orders_lineitem`] byte for byte. Peak memory is one chunk
    /// plus the comment pools, which depend only on the scale factor: the
    /// first call builds them and every later call on this generator reuses
    /// them (DESIGN.md §16).
    pub fn orders_lineitem_chunk(&self, chunk: u64, nchunks: u64) -> Result<(Table, Table)> {
        assert!(nchunks > 0 && chunk < nchunks, "bad chunk {chunk}/{nchunks}");
        let total = self.num_orders();
        let (o_pool, l_pool) = self.pools.get_or_init(|| {
            (
                CommentPool::new(Stream::OrderComment, 19, 78, total),
                CommentPool::new(Stream::LineComment, 10, 43, total * 4),
            )
        });
        let (lo, hi) = chunk_range(total, chunk, nchunks);
        let n = (hi - lo) as usize;
        let customers = self.num_customers() as i64;
        let clerks = self.num_clerks() as i64;
        let parts = self.num_parts() as i64;
        let suppliers = self.num_suppliers() as i64;
        let date_span = (last_order_date().0 - start_date().0) as i64;
        let today = current_date();

        // orders columns
        let mut o_key = Vec::with_capacity(n);
        let mut o_cust = Vec::with_capacity(n);
        let mut o_status = IndexInterner::new(ORDER_STATUSES.len(), n);
        let mut o_total = Vec::with_capacity(n);
        let mut o_date = Vec::with_capacity(n);
        let mut o_prio = IndexInterner::new(text::PRIORITIES.len(), n);
        let mut o_clerk = IndexInterner::new(clerks.max(1) as usize, n);
        let mut o_ship = Vec::with_capacity(n);
        let mut o_comment = o_pool.interner(n);

        // lineitem columns (≈4 lines/order on average)
        let cap = n * 4;
        let mut l_okey = Vec::with_capacity(cap);
        let mut l_pkey = Vec::with_capacity(cap);
        let mut l_skey = Vec::with_capacity(cap);
        let mut l_num = Vec::with_capacity(cap);
        let mut l_qty = Vec::with_capacity(cap);
        let mut l_ext = Vec::with_capacity(cap);
        let mut l_disc = Vec::with_capacity(cap);
        let mut l_tax = Vec::with_capacity(cap);
        let mut l_rflag = IndexInterner::new(RETURN_FLAGS.len(), cap);
        let mut l_status = IndexInterner::new(LINE_STATUSES.len(), cap);
        let mut l_sdate = Vec::with_capacity(cap);
        let mut l_cdate = Vec::with_capacity(cap);
        let mut l_rdate = Vec::with_capacity(cap);
        let mut l_instr = IndexInterner::new(text::INSTRUCTIONS.len(), cap);
        let mut l_mode = IndexInterner::new(text::MODES.len(), cap);
        let mut l_comment = l_pool.interner(cap);

        for idx in lo..hi {
            let orderkey = order_key_for_index(idx);
            let custkey = draw_custkey(customers, idx);
            let odate =
                start_date().0 + Stream::OrderDate.rng(idx).uniform_i64(0, date_span) as i32;
            let nlines = Stream::LineCount.rng(idx).uniform_i64(1, 7);
            let mut total_price = 0;
            let mut f_lines = 0;
            for line in 0..nlines {
                let lrow = idx * 8 + line as u64;
                let partkey = Stream::LinePartkey.rng(lrow).uniform_i64(1, parts);
                let supp_idx = Stream::LineSuppIdx.rng(lrow).uniform_i64(0, 3);
                let suppkey = supplier_for_part(partkey, supp_idx, suppliers);
                let qty = Stream::LineQuantity.rng(lrow).uniform_i64(1, 50);
                let ext = qty * retail_price_cents(partkey); // qty(int) × price(cents)
                let disc = Stream::LineDiscount.rng(lrow).uniform_i64(0, 10); // 0.00–0.10
                let tax = Stream::LineTax.rng(lrow).uniform_i64(0, 8); // 0.00–0.08
                let sdate = odate + Stream::LineShipDelta.rng(lrow).uniform_i64(1, 121) as i32;
                let cdate = odate + Stream::LineCommitDelta.rng(lrow).uniform_i64(30, 90) as i32;
                let rdate = sdate + Stream::LineReceiptDelta.rng(lrow).uniform_i64(1, 30) as i32;

                l_okey.push(orderkey);
                l_pkey.push(partkey);
                l_skey.push(suppkey);
                l_num.push(line as i32 + 1);
                l_qty.push(qty * 100);
                l_ext.push(ext);
                l_disc.push(disc);
                l_tax.push(tax);
                // R or A once returned, else N.
                l_rflag.push(if Date32(rdate) <= today {
                    Stream::LineReturnFlag.rng(lrow).index(2)
                } else {
                    2
                });
                let shipped = Date32(sdate) <= today;
                l_status.push(usize::from(!shipped));
                if shipped {
                    f_lines += 1;
                }
                l_sdate.push(sdate);
                l_cdate.push(cdate);
                l_rdate.push(rdate);
                l_instr.push(Stream::LineInstruct.rng(lrow).index(text::INSTRUCTIONS.len()));
                l_mode.push(Stream::LineMode.rng(lrow).index(text::MODES.len()));
                l_comment.push(l_pool.draw(&mut Stream::LineComment.rng(lrow)));

                // o_totalprice += ext × (1 − disc) × (1 + tax): exact at
                // scale 6, rounded half up to cents (every term is positive).
                total_price += (ext * (100 - disc) * (100 + tax) + 5_000) / 10_000;
            }
            o_key.push(orderkey);
            o_cust.push(custkey);
            // F when every line shipped, O when none did, else P.
            o_status.push(match f_lines {
                f if f == nlines => 0,
                0 => 1,
                _ => 2,
            });
            o_total.push(total_price);
            o_date.push(odate);
            o_prio.push(Stream::OrderPriority.rng(idx).index(text::PRIORITIES.len()));
            o_clerk.push(Stream::OrderClerk.rng(idx).index(clerks.max(1) as usize));
            o_ship.push(0);
            o_comment.push(o_pool.draw(&mut Stream::OrderComment.rng(idx)));
        }

        let orders = Table::new(
            schema::orders(),
            vec![
                Column::Int64(o_key),
                Column::Int64(o_cust),
                finish_list(&ORDER_STATUSES, o_status),
                Column::Decimal(o_total, 2),
                Column::Date(o_date),
                finish_list(text::PRIORITIES, o_prio),
                Column::Str(o_clerk.finish(|c| format!("Clerk#{:09}", c + 1))),
                Column::Int32(o_ship),
                o_pool.finish(o_comment),
            ],
        )?;
        let lineitem = Table::new(
            schema::lineitem(),
            vec![
                Column::Int64(l_okey),
                Column::Int64(l_pkey),
                Column::Int64(l_skey),
                Column::Int32(l_num),
                Column::Decimal(l_qty, 2),
                Column::Decimal(l_ext, 2),
                Column::Decimal(l_disc, 2),
                Column::Decimal(l_tax, 2),
                finish_list(&RETURN_FLAGS, l_rflag),
                finish_list(&LINE_STATUSES, l_status),
                Column::Date(l_sdate),
                Column::Date(l_cdate),
                Column::Date(l_rdate),
                finish_list(text::INSTRUCTIONS, l_instr),
                finish_list(text::MODES, l_mode),
                l_pool.finish(l_comment),
            ],
        )?;
        Ok((orders, lineitem))
    }

    /// Generates the whole database into a catalog — the single-node setup.
    pub fn generate_catalog(&self) -> Result<Catalog> {
        let mut cat = Catalog::new();
        cat.register("region", self.region_table()?);
        cat.register("nation", self.nation_table()?);
        cat.register("supplier", self.supplier_table()?);
        cat.register("customer", self.customer_table()?);
        cat.register("part", self.part_table()?);
        cat.register("partsupp", self.partsupp_table()?);
        let (orders, lineitem) = self.orders_lineitem()?;
        cat.register("orders", orders);
        cat.register("lineitem", lineitem);
        Ok(cat)
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
