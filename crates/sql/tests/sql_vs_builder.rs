//! End-to-end SQL tests: actual TPC-H SQL text, executed through the
//! lexer → parser → planner → engine pipeline, compared against the
//! hand-built plans in `wimpi-queries`.

use wimpi_sql::{execute_sql, plan, SqlError};
use wimpi_storage::Catalog;
use wimpi_tpch::Generator;

fn catalog() -> Catalog {
    Generator::new(0.01).generate_catalog().expect("generation succeeds")
}

fn assert_same_relation(a: &wimpi_engine::Relation, b: &wimpi_engine::Relation, what: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{what}: row count");
    for name in a.names() {
        let ca = a.column(name).expect("col");
        let cb = b.column(name).unwrap_or_else(|_| panic!("{what}: column {name} missing"));
        assert_eq!(ca.as_ref(), cb.as_ref(), "{what}: column {name}");
    }
}

#[test]
fn q6_sql_matches_builder() {
    let cat = catalog();
    let (sql_rel, _) = execute_sql(
        "select sum(l_extendedprice * l_discount) as revenue \
         from lineitem \
         where l_shipdate >= date '1994-01-01' \
           and l_shipdate < date '1994-01-01' + interval '1' year \
           and l_discount between 0.05 and 0.07 \
           and l_quantity < 24",
        &cat,
    )
    .expect("SQL Q6 runs");
    let (builder_rel, _) =
        wimpi_queries::run(&wimpi_queries::query(6), &cat).expect("builder Q6 runs");
    assert_same_relation(&sql_rel, &builder_rel, "Q6");
}

#[test]
fn q1_sql_matches_builder() {
    let cat = catalog();
    let (sql_rel, _) = execute_sql(
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
         where l_shipdate <= date '1998-12-01' - interval '90' day \
         group by l_returnflag, l_linestatus \
         order by l_returnflag, l_linestatus",
        &cat,
    )
    .expect("SQL Q1 runs");
    let (builder_rel, _) =
        wimpi_queries::run(&wimpi_queries::query(1), &cat).expect("builder Q1 runs");
    assert_same_relation(&sql_rel, &builder_rel, "Q1");
}

#[test]
fn q3_sql_matches_builder_values() {
    let cat = catalog();
    let (sql_rel, _) = execute_sql(
        "select l_orderkey, o_orderdate, o_shippriority, \
                sum(l_extendedprice * (1 - l_discount)) as revenue \
         from customer, orders, lineitem \
         where c_mktsegment = 'BUILDING' \
           and c_custkey = o_custkey \
           and l_orderkey = o_orderkey \
           and o_orderdate < date '1995-03-15' \
           and l_shipdate > date '1995-03-15' \
         group by l_orderkey, o_orderdate, o_shippriority \
         order by revenue desc, o_orderdate \
         limit 10",
        &cat,
    )
    .expect("SQL Q3 runs");
    let (builder_rel, _) =
        wimpi_queries::run(&wimpi_queries::query(3), &cat).expect("builder Q3 runs");
    assert_eq!(sql_rel.num_rows(), builder_rel.num_rows(), "Q3 rows");
    // Revenue series must match exactly (same data, same arithmetic).
    assert_eq!(
        sql_rel.column("revenue").expect("col").as_decimal().expect("dec"),
        builder_rel.column("revenue").expect("col").as_decimal().expect("dec"),
        "Q3 revenue"
    );
}

#[test]
fn q5_sql_with_two_key_join_edge() {
    let cat = catalog();
    // The c_nationkey = s_nationkey equality is the interesting part: the
    // planner must fold it into the supplier join as a second key (or keep
    // it as a residual filter — either is correct).
    let (sql_rel, _) = execute_sql(
        "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue \
         from customer, orders, lineitem, supplier, nation, region \
         where c_custkey = o_custkey \
           and l_orderkey = o_orderkey \
           and l_suppkey = s_suppkey \
           and c_nationkey = s_nationkey \
           and s_nationkey = n_nationkey \
           and n_regionkey = r_regionkey \
           and r_name = 'ASIA' \
           and o_orderdate >= date '1994-01-01' \
           and o_orderdate < date '1994-01-01' + interval '1' year \
         group by n_name \
         order by revenue desc",
        &cat,
    )
    .expect("SQL Q5 runs");
    let (builder_rel, _) =
        wimpi_queries::run(&wimpi_queries::query(5), &cat).expect("builder Q5 runs");
    assert_eq!(sql_rel.num_rows(), builder_rel.num_rows(), "Q5 rows");
    assert_eq!(
        sql_rel.column("revenue").expect("col").as_decimal().expect("dec"),
        builder_rel.column("revenue").expect("col").as_decimal().expect("dec"),
        "Q5 revenue"
    );
}

#[test]
fn q14_sql_matches_builder() {
    let cat = catalog();
    let (sql_rel, _) = execute_sql(
        "select 100 * sum(case when p_type like 'PROMO%' \
                              then l_extendedprice * (1 - l_discount) \
                              else 0.00 end) / \
                sum(l_extendedprice * (1 - l_discount)) as promo_revenue \
         from lineitem, part \
         where l_partkey = p_partkey \
           and l_shipdate >= date '1995-09-01' \
           and l_shipdate < date '1995-09-01' + interval '1' month",
        &cat,
    )
    .expect("SQL Q14 runs");
    let (builder_rel, _) =
        wimpi_queries::run(&wimpi_queries::query(14), &cat).expect("builder Q14 runs");
    let a = sql_rel.column("promo_revenue").expect("col").as_f64().expect("f64")[0];
    let b = builder_rel.column("promo_revenue").expect("col").as_f64().expect("f64")[0];
    assert!((a - b).abs() < 1e-9, "Q14: {a} vs {b}");
}

#[test]
fn q12_sql_with_count_case() {
    let cat = catalog();
    let (sql_rel, _) = execute_sql(
        "select l_shipmode, \
                sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end) \
                  as high_line_count, \
                sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end) \
                  as low_line_count \
         from orders, lineitem \
         where o_orderkey = l_orderkey \
           and l_shipmode in ('MAIL', 'SHIP') \
           and l_commitdate < l_receiptdate \
           and l_shipdate < l_commitdate \
           and l_receiptdate >= date '1994-01-01' \
           and l_receiptdate < date '1994-01-01' + interval '1' year \
         group by l_shipmode \
         order by l_shipmode",
        &cat,
    )
    .expect("SQL Q12 runs");
    let (builder_rel, _) =
        wimpi_queries::run(&wimpi_queries::query(12), &cat).expect("builder Q12 runs");
    assert_eq!(sql_rel.num_rows(), builder_rel.num_rows());
    for row in 0..sql_rel.num_rows() {
        let a = sql_rel.value(row, "high_line_count").expect("cell");
        let b = builder_rel.value(row, "high_line_count").expect("cell");
        assert_eq!(a.as_i64(), b.as_i64(), "high_line_count row {row}");
    }
}

#[test]
fn group_key_expression_reference() {
    let cat = catalog();
    // GROUP BY an expression that also appears in the select list.
    let (rel, _) = execute_sql(
        "select extract(year from o_orderdate) as o_year, count(*) as n \
         from orders group by extract(year from o_orderdate) order by o_year",
        &cat,
    )
    .expect("runs");
    assert!(rel.num_rows() >= 6, "1992–1998 order years");
    let years = rel.column("o_year").expect("col");
    let years = years.as_i32().expect("i32");
    assert!(years.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn order_by_position() {
    let cat = catalog();
    let (rel, _) = execute_sql(
        "select o_orderpriority, count(*) as n from orders group by o_orderpriority \
         order by 2 desc limit 1",
        &cat,
    )
    .expect("runs");
    assert_eq!(rel.num_rows(), 1);
}

#[test]
fn helpful_errors_for_unsupported_sql() {
    let cat = catalog();
    // Cross join.
    let err = plan("select * from lineitem, region", &cat).unwrap_err();
    assert!(matches!(err, SqlError::Unsupported(_)), "{err}");
    // Self-join.
    let err =
        plan("select * from nation n1, nation n2 where n1.n_nationkey = n2.n_regionkey", &cat)
            .unwrap_err();
    assert!(matches!(err, SqlError::Unsupported(_)), "{err}");
    // Unknown table / column.
    assert!(matches!(plan("select * from nope", &cat), Err(SqlError::Plan(_))));
    assert!(matches!(plan("select bogus from lineitem", &cat), Err(SqlError::Plan(_))));
    // ORDER BY something not in the output.
    assert!(matches!(
        plan("select l_orderkey from lineitem order by l_tax", &cat),
        Err(SqlError::Plan(_))
    ));
}

/// A function outside the aggregate set is refused by name, wherever it
/// stands, not reported as a misplaced or miscombined aggregate.
#[test]
fn unknown_functions_are_refused_by_name() {
    let cat = catalog();
    let unknown = |sql: &str, want: &str| {
        let err = plan(sql, &cat).unwrap_err();
        assert_eq!(err, SqlError::Unsupported(want.to_string()), "{sql}");
    };
    let foo = "unknown function foo()";
    unknown("select foo(l_quantity) as x from lineitem", foo);
    unknown("select l_returnflag, foo(l_quantity) as x from lineitem group by l_returnflag", foo);
    unknown(
        "select l_returnflag, sum(l_quantity) as q from lineitem \
         group by l_returnflag having foo(l_quantity) > 1",
        foo,
    );
    unknown(
        "select substr(l_comment, 1, 2) as s from lineitem",
        "unknown function substr(); use SUBSTRING(x FROM a FOR b)",
    );
}

#[test]
fn select_star_passthrough() {
    let cat = catalog();
    let (rel, _) = execute_sql("select * from region", &cat).expect("runs");
    assert_eq!(rel.num_rows(), 5);
    assert_eq!(rel.num_columns(), 3);
}

/// A numeric `IN` literal with more fractional digits than the column holds
/// equals no stored value. It used to be truncated to the column's scale,
/// so `l_discount IN (0.055)` kept every 0.05 row while `= 0.055` kept none.
#[test]
fn in_list_literal_finer_than_the_column_matches_no_row() {
    let cat = catalog();
    let count = |predicate: &str| {
        let sql = format!("select count(*) as n from lineitem where {predicate}");
        let (rel, _) = execute_sql(&sql, &cat).expect("runs");
        rel.value(0, "n").expect("one row")
    };
    assert_eq!(count("l_discount in (0.055)"), count("l_discount = 0.055"));
    assert_eq!(count("l_discount in (0.055)"), count("l_discount < 0"));
    assert_eq!(count("l_discount in (0.055, 0.050)"), count("l_discount = 0.05"));
    assert_eq!(count("l_discount not in (0.055)"), count("l_discount >= 0"));
}
