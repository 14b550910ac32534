//! The serving schedule of `wimpi24_serve`: which SQL text is sent in which
//! slot of a pass.
//!
//! 30 % of a pass's requests are *hot* — the six TPC-H texts of
//! `crates/sql/tests/sql_vs_builder.rs` with the specification's validation
//! literals, which the warm-up loads into the result cache — and 70 % are
//! *cold*: the same six shapes with other literals, none used twice in a
//! run, so each hits the plan cache and misses the result cache.
//!
//! Which cold literals a pass uses depends only on the pass number; the
//! seed decides the order of the slots. So the work a run does, and with it
//! the simulated time, is the same for every seed, and what the seed varies
//! is what a cache-sensitive system is sensitive to: the order.

use wimpi_storage::Date32;

use crate::rng::Rng;

/// Op classes: `hot`, then one cold class per query shape.
pub const CLASSES: [&str; 7] =
    ["hot", "cold.q1", "cold.q3", "cold.q5", "cold.q6", "cold.q12", "cold.q14"];
pub const HOT: usize = 0;
const SHAPES: usize = CLASSES.len() - 1;

/// Sixty is the smallest pass in which three requests in ten are hot and
/// both kinds divide evenly over the six shapes.
pub const REQUESTS_PER_PASS: usize = 60;
/// Exactly three requests in ten are hot.
const HOT_SHARE: (usize, usize) = (3, 10);

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: usize,
    /// Golden-file key: `hot.q6`, `cold.q6.0123`.
    pub key: String,
    pub sql: String,
    pub hot: bool,
}

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

fn q1(delta_days: u32) -> String {
    format!(
        "select l_returnflag, l_linestatus, \
                sum(l_quantity) as sum_qty, \
                sum(l_extendedprice) as sum_base_price, \
                sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
                sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
                avg(l_quantity) as avg_qty, \
                avg(l_extendedprice) as avg_price, \
                avg(l_discount) as avg_disc, \
                count(*) as count_order \
         from lineitem \
         where l_shipdate <= date '1998-12-01' - interval '{delta_days}' day \
         group by l_returnflag, l_linestatus \
         order by l_returnflag, l_linestatus"
    )
}

fn q3(segment: &str, date: Date32) -> String {
    format!(
        "select l_orderkey, o_orderdate, o_shippriority, \
                sum(l_extendedprice * (1 - l_discount)) as revenue \
         from customer, orders, lineitem \
         where c_mktsegment = '{segment}' \
           and c_custkey = o_custkey \
           and l_orderkey = o_orderkey \
           and o_orderdate < date '{date}' \
           and l_shipdate > date '{date}' \
         group by l_orderkey, o_orderdate, o_shippriority \
         order by revenue desc, o_orderdate \
         limit 10"
    )
}

fn q5(region: &str, start: Date32) -> String {
    format!(
        "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue \
         from customer, orders, lineitem, supplier, nation, region \
         where c_custkey = o_custkey \
           and l_orderkey = o_orderkey \
           and l_suppkey = s_suppkey \
           and c_nationkey = s_nationkey \
           and s_nationkey = n_nationkey \
           and n_regionkey = r_regionkey \
           and r_name = '{region}' \
           and o_orderdate >= date '{start}' \
           and o_orderdate < date '{start}' + interval '1' year \
         group by n_name \
         order by revenue desc"
    )
}

fn q6(start: Date32, discount_cents: u32, quantity: u32) -> String {
    format!(
        "select sum(l_extendedprice * l_discount) as revenue \
         from lineitem \
         where l_shipdate >= date '{start}' \
           and l_shipdate < date '{start}' + interval '1' year \
           and l_discount between 0.{:02} and 0.{:02} \
           and l_quantity < {quantity}",
        discount_cents - 1,
        discount_cents + 1
    )
}

fn q12(mode_a: &str, mode_b: &str, start: Date32) -> String {
    format!(
        "select l_shipmode, \
                sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end) \
                  as high_line_count, \
                sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end) \
                  as low_line_count \
         from orders, lineitem \
         where o_orderkey = l_orderkey \
           and l_shipmode in ('{mode_a}', '{mode_b}') \
           and l_commitdate < l_receiptdate \
           and l_shipdate < l_commitdate \
           and l_receiptdate >= date '{start}' \
           and l_receiptdate < date '{start}' + interval '1' year \
         group by l_shipmode \
         order by l_shipmode"
    )
}

fn q14(start: Date32) -> String {
    format!(
        "select 100 * sum(case when p_type like 'PROMO%' \
                              then l_extendedprice * (1 - l_discount) \
                              else 0.00 end) / \
                sum(l_extendedprice * (1 - l_discount)) as promo_revenue \
         from lineitem, part \
         where l_partkey = p_partkey \
           and l_shipdate >= date '{start}' \
           and l_shipdate < date '{start}' + interval '1' month"
    )
}

/// The six hot requests: the specification's validation literals.
pub fn hot_requests() -> Vec<Request> {
    let ymd = Date32::from_ymd;
    [
        ("hot.q1", q1(90)),
        ("hot.q3", q3("BUILDING", ymd(1995, 3, 15))),
        ("hot.q5", q5("ASIA", ymd(1994, 1, 1))),
        ("hot.q6", q6(ymd(1994, 1, 1), 6, 24)),
        ("hot.q12", q12("MAIL", "SHIP", ymd(1994, 1, 1))),
        ("hot.q14", q14(ymd(1995, 9, 1))),
    ]
    .into_iter()
    .map(|(key, sql)| Request { class: HOT, key: key.to_string(), sql, hot: true })
    .collect()
}

/// Number of distinct cold literal combinations of each shape. The
/// specification's domains are widened where they are too small for a run
/// (Q1 has 61 deltas; here 600), staying inside the data's date range.
const DOMAIN: [usize; SHAPES] = [600, 5 * 200, 5 * 209, 209 * 8 * 2, 21 * 209, 1800];

/// The text of shape `shape` (0-based among the cold classes) at index `i`
/// of its domain.
fn shape_sql(shape: usize, i: usize) -> String {
    let ymd = Date32::from_ymd;
    let weeks = |w: usize| ymd(1993, 1, 1).add_days(7 * w as i32);
    match shape {
        0 => q1(30 + i as u32),
        1 => q3(SEGMENTS[i % 5], ymd(1995, 1, 1).add_days((i / 5) as i32)),
        2 => q5(REGIONS[i % 5], weeks(i / 5)),
        3 => q6(weeks(i / 16), 2 + (i % 8) as u32, 24 + (i / 8 % 2) as u32),
        4 => {
            // The (i mod 21)-th of the 21 unordered pairs of ship modes.
            let (mut a, mut rest) = (0, i % 21);
            while rest >= SHIPMODES.len() - 1 - a {
                rest -= SHIPMODES.len() - 1 - a;
                a += 1;
            }
            q12(SHIPMODES[a], SHIPMODES[a + 1 + rest], weeks(i / 21))
        }
        5 => q14(ymd(1993, 1, 1).add_days(i as i32)),
        _ => unreachable!("six cold shapes"),
    }
}

/// Cold text number `n` of a shape. Successive `n` stride through all but
/// the last index of the domain, so a short run still covers it evenly; the
/// last index stands in for the one combination that equals the hot text.
fn cold_sql(shape: usize, n: usize) -> String {
    let usable = DOMAIN[shape] - 1;
    assert!(n < usable, "run too long: {} literals would repeat", CLASSES[shape + 1]);
    // 7919 is prime and larger than every domain, hence coprime to each.
    let sql = shape_sql(shape, n * 7919 % usable);
    if hot_requests().iter().any(|h| h.sql == sql) {
        shape_sql(shape, usable)
    } else {
        sql
    }
}

fn cold_request(shape: usize, n: usize) -> Request {
    Request {
        class: shape + 1,
        key: format!("{}.{n:04}", CLASSES[shape + 1]),
        sql: cold_sql(shape, n),
        hot: false,
    }
}

/// The SQL text behind a golden key.
pub fn sql_of_key(key: &str) -> String {
    if let Some(hot) = hot_requests().into_iter().find(|h| h.key == key) {
        return hot.sql;
    }
    let (class, n) = key.rsplit_once('.').expect("cold key is class.number");
    let shape = CLASSES.iter().position(|c| *c == class).expect("known class") - 1;
    cold_sql(shape, n.parse().expect("cold key ends in a number"))
}

/// The requests of pass `index`, in the slot order `seed` gives them.
pub fn pass(index: usize, seed: u64) -> Vec<Request> {
    let hot_each = REQUESTS_PER_PASS * HOT_SHARE.0 / HOT_SHARE.1 / SHAPES;
    let cold_each = REQUESTS_PER_PASS / SHAPES - hot_each;
    let mut out = Vec::with_capacity(REQUESTS_PER_PASS);
    for hot in hot_requests() {
        out.extend(std::iter::repeat_n(hot, hot_each));
    }
    for shape in 0..SHAPES {
        out.extend((0..cold_each).map(|k| cold_request(shape, index * cold_each + k)));
    }
    Rng::for_stream(seed, index as u64).shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_gives_the_same_schedule_and_another_seed_another_order() {
        assert_eq!(pass(2, 11), pass(2, 11));
        assert_ne!(pass(2, 11), pass(2, 12));
        // Another seed reorders the same requests.
        let sorted = |mut v: Vec<Request>| {
            v.sort_by(|a, b| a.key.cmp(&b.key));
            v
        };
        assert_eq!(sorted(pass(2, 11)), sorted(pass(2, 12)));
    }

    #[test]
    fn hot_share_is_exactly_thirty_percent() {
        let p = pass(0, 1);
        assert_eq!(p.len(), REQUESTS_PER_PASS);
        assert_eq!(p.iter().filter(|r| r.hot).count() * 10, REQUESTS_PER_PASS * 3);
        for class in 1..CLASSES.len() {
            assert_eq!(p.iter().filter(|r| r.class == class).count() * 60, REQUESTS_PER_PASS * 7);
        }
    }

    #[test]
    fn cold_texts_never_repeat_within_a_run_and_are_never_hot() {
        let hot: BTreeSet<String> = hot_requests().into_iter().map(|r| r.sql).collect();
        assert_eq!(hot.len(), 6);
        let mut seen = BTreeSet::new();
        for index in 0..40 {
            for r in pass(index, 5).into_iter().filter(|r| !r.hot) {
                assert!(!hot.contains(&r.sql), "{} is a hot text", r.key);
                assert_eq!(sql_of_key(&r.key), r.sql);
                assert!(seen.insert(r.sql), "{} repeats", r.key);
            }
        }
        assert_eq!(seen.len(), 40 * 42);
    }

    #[test]
    fn every_domain_is_fully_distinct() {
        for shape in 0..SHAPES {
            let texts: BTreeSet<String> =
                (0..DOMAIN[shape] - 1).map(|n| cold_sql(shape, n)).collect();
            assert_eq!(texts.len(), DOMAIN[shape] - 1, "{}", CLASSES[shape + 1]);
        }
    }
}
