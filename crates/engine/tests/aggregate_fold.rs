//! The aggregation fold against a reference that shares none of its code.
//!
//! `exec::aggregate` folds morsels into run-form or hash-form partials, picks
//! the merge form from them, and runs under either price list with or without
//! a filter folded in. None of that may show: every configuration must give the
//! answer of a plain row-at-a-time group-by — float sums included, whose
//! reduction tree the reference cuts at the same morsel stride — and charge
//! the form the *data* calls for. The shapes aim at the seams: keys in order,
//! one inversion inside a morsel, one exactly at a morsel boundary, groups
//! straddling boundaries, and a morsel whose filter keeps no row.
//!
//! A failure prints the seed that replays it.

use std::collections::BTreeSet;

use proptest::rng::Rng;
use wimpi_engine::expr::{col, lit};
use wimpi_engine::plan::{AggExpr, AggFunc, PlanBuilder};
use wimpi_engine::{execute, EngineConfig, EngineError, Executor, QueryContext, Relation, Tracer};
use wimpi_storage::{
    Catalog, Column, DataType, Date32, Decimal64, DictColumn, Field, Schema, StorageError, Table,
    Value,
};

/// Dictionaries whose code order is not their string order.
const NAMES: [&str; 4] = ["pear", "apple", "quince", "fig"];

#[derive(Clone, Copy, Debug)]
struct Row {
    /// The key columns `k` (Int64), `day` (Date) and `name` (a code into
    /// [`NAMES`]): the grouping key is a prefix of them.
    key: [i64; 3],
    d: i64,
    f: f64,
    s: i64,
    b: bool,
    t: usize,
    keep: bool,
}

const KEYS: [&str; 3] = ["k", "day", "name"];

fn table(rows: &[Row]) -> Table {
    let dict = |codes: Vec<u32>| {
        Column::Str(DictColumn::from_parts(codes, NAMES.iter().map(|s| s.to_string()).collect()))
    };
    let fields = vec![
        ("k", DataType::Int64, Column::Int64(rows.iter().map(|r| r.key[0]).collect())),
        ("day", DataType::Date, Column::Date(rows.iter().map(|r| r.key[1] as i32).collect())),
        ("name", DataType::Utf8, dict(rows.iter().map(|r| r.key[2] as u32).collect())),
        ("d", DataType::Decimal(2), Column::Decimal(rows.iter().map(|r| r.d).collect(), 2)),
        ("f", DataType::Float64, Column::Float64(rows.iter().map(|r| r.f).collect())),
        ("s", DataType::Int64, Column::Int64(rows.iter().map(|r| r.s).collect())),
        ("b", DataType::Bool, Column::Bool(rows.iter().map(|r| r.b).collect())),
        ("t", DataType::Utf8, dict(rows.iter().map(|r| r.t as u32).collect())),
        ("keep", DataType::Int64, Column::Int64(rows.iter().map(|r| r.keep as i64).collect())),
    ];
    let schema = Schema::new(fields.iter().map(|(n, ty, _)| Field::new(*n, *ty)).collect());
    Table::new(schema, fields.into_iter().map(|(_, _, c)| c).collect()).expect("table builds")
}

/// Every aggregate kind whose value does not depend on where morsels are cut
/// — these fold the filter in — then the float sums, which do, and so fold
/// the filtered rows.
fn aggs(with_float_sums: bool) -> Vec<AggExpr> {
    let mut aggs = vec![
        AggExpr::count_star("n"),
        AggExpr::count_if(col("b"), "nb"),
        AggExpr::count_distinct(col("s"), "ds"),
        AggExpr::sum(col("d"), "sum_d"),
        AggExpr::sum(col("s"), "sum_s"),
        AggExpr::sum(col("d").mul(col("s")), "sum_ds"),
        AggExpr::avg(col("d"), "avg_d"),
        AggExpr::avg(col("s"), "avg_s"),
        AggExpr::min(col("d"), "min_d"),
        AggExpr::max(col("d"), "max_d"),
        AggExpr::min(col("t"), "min_t"),
        AggExpr::max(col("t"), "max_t"),
        AggExpr::min(col("f"), "min_f"),
        AggExpr::max(col("day"), "max_day"),
    ];
    if with_float_sums {
        aggs.extend([AggExpr::sum(col("f"), "sum_f"), AggExpr::avg(col("f"), "avg_f")]);
    }
    aggs
}

/// One group of the reference: plain accumulators, plus the float sum as the
/// per-morsel partials the determinism contract defines it by.
struct Group {
    first: Row,
    rows: Vec<Row>,
    float_partials: Vec<(usize, f64)>,
}

/// The expected output, column by column, and whether the selected keys are
/// in order (which decides the form, hence the charges).
struct Expected {
    columns: Vec<(String, Vec<Value>)>,
    nsel: u64,
    in_order: bool,
}

fn reference(rows: &[Row], arity: usize, filtered: bool, floats: bool, morsel: usize) -> Expected {
    let selected: Vec<Row> = rows.iter().copied().filter(|r| r.keep || !filtered).collect();
    let key = |r: &Row| r.key[..arity].to_vec();
    let mut groups: Vec<Group> = Vec::new();
    for (i, r) in selected.iter().enumerate() {
        let g = match groups.iter().position(|g| key(&g.first) == key(r)) {
            Some(g) => g,
            None => {
                groups.push(Group { first: *r, rows: Vec::new(), float_partials: Vec::new() });
                groups.len() - 1
            }
        };
        groups[g].rows.push(*r);
        // Float sums are cut in morsels of the selected rows: with no filter
        // those are the table's, under one the `Filter` operator gathers them
        // first. Partials start from 0.0 and add rows in order.
        match groups[g].float_partials.last_mut() {
            Some((m, sum)) if *m == i / morsel => *sum += r.f,
            _ => groups[g].float_partials.push((i / morsel, 0.0 + r.f)),
        }
    }
    if arity == 0 && groups.is_empty() {
        // The global group exists even over no rows, reading as zeros.
        let zero = Row { key: [0; 3], d: 0, f: 0.0, s: 0, b: false, t: usize::MAX, keep: false };
        groups.push(Group { first: zero, rows: Vec::new(), float_partials: Vec::new() });
    }
    let dec = |m: i64| Value::Dec(Decimal64::new(m, 2));
    let name = |code: usize| Value::Str(NAMES.get(code).copied().unwrap_or("").to_string());
    let mean = |sum: f64, n: usize| Value::F64(if n == 0 { 0.0 } else { sum / n as f64 });
    let mut columns: Vec<(String, Vec<Value>)> = Vec::new();
    let mut column = |name: &str, of: &dyn Fn(&Group) -> Value| {
        columns.push((name.to_string(), groups.iter().map(of).collect()));
    };
    for (i, key) in KEYS.iter().enumerate().take(arity) {
        column(key, &|g| match i {
            0 => Value::I64(g.first.key[0]),
            1 => Value::Date(Date32(g.first.key[1] as i32)),
            _ => name(g.first.key[2] as usize),
        });
    }
    let extreme = |g: &Group, of: &dyn Fn(&Row) -> Value, want: std::cmp::Ordering| {
        g.rows.iter().map(of).reduce(|best, v| if v.total_cmp(&best) == want { v } else { best })
    };
    use std::cmp::Ordering::{Greater, Less};
    column("n", &|g| Value::I64(g.rows.len() as i64));
    column("nb", &|g| Value::I64(g.rows.iter().filter(|r| r.b).count() as i64));
    column("ds", &|g| Value::I64(g.rows.iter().map(|r| r.s).collect::<BTreeSet<_>>().len() as i64));
    column("sum_d", &|g| dec(g.rows.iter().map(|r| r.d).sum()));
    column("sum_s", &|g| Value::I64(g.rows.iter().map(|r| r.s).sum()));
    column("sum_ds", &|g| dec(g.rows.iter().map(|r| r.d * r.s).sum()));
    column("avg_d", &|g| {
        mean(g.rows.iter().map(|r| r.d).sum::<i64>() as f64 / 100.0, g.rows.len())
    });
    column("avg_s", &|g| mean(g.rows.iter().map(|r| r.s).sum::<i64>() as f64, g.rows.len()));
    column("min_d", &|g| extreme(g, &|r| dec(r.d), Less).unwrap_or(dec(0)));
    column("max_d", &|g| extreme(g, &|r| dec(r.d), Greater).unwrap_or(dec(0)));
    column("min_t", &|g| extreme(g, &|r| name(r.t), Less).unwrap_or(name(usize::MAX)));
    column("max_t", &|g| extreme(g, &|r| name(r.t), Greater).unwrap_or(name(usize::MAX)));
    column("min_f", &|g| extreme(g, &|r| Value::F64(r.f), Less).unwrap_or(Value::F64(0.0)));
    column("max_day", &|g| {
        let day = |r: &Row| Value::Date(Date32(r.key[1] as i32));
        extreme(g, &day, Greater).unwrap_or(Value::Date(Date32(0)))
    });
    if floats {
        // Partials merge in morsel order into a total that starts at 0.0.
        let total = |g: &Group| g.float_partials.iter().fold(0.0, |total, (_, p)| total + p);
        column("sum_f", &|g| Value::F64(total(g)));
        column("avg_f", &|g| mean(total(g), g.rows.len()));
    }
    let in_order = selected.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
    Expected { columns, nsel: selected.len() as u64, in_order }
}

fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_matches(rel: &Relation, want: &Expected, what: &str) {
    let names: Vec<&str> = rel.fields().iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want.columns.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(), "{what}");
    for (name, values) in &want.columns {
        assert_eq!(rel.num_rows(), values.len(), "{what}: groups");
        for (g, v) in values.iter().enumerate() {
            let got = rel.value(g, name).expect("column exists");
            assert!(same_bits(&got, v), "{what}: {name}[{g}] is {got:?}, the reference says {v:?}");
        }
    }
}

/// Runs one shape under every configuration and holds each to the reference.
fn check(rows: &[Row], what: &str) {
    let mut cat = Catalog::new();
    cat.register("t", table(rows));
    let arms = [
        ("unfiltered with float sums", false, true),
        ("filtered with float sums (folds the filtered rows)", true, true),
        ("filtered (folds the filter in)", true, false),
    ];
    for arity in 0..=3 {
        for (arm, filtered, floats) in arms {
            let scan = PlanBuilder::scan("t");
            let input = if filtered { scan.filter(col("keep").gt(lit(0i64))) } else { scan };
            let group = KEYS[..arity].iter().map(|&k| (col(k), k)).collect();
            let plan = input.aggregate(group, aggs(floats)).build();
            for executor in [Executor::Materialize, Executor::Fused] {
                let mut first: Option<(Relation, _)> = None;
                for morsel in [1, 3, 4096] {
                    let want = reference(rows, arity, filtered, floats, morsel);
                    for threads in [1, 2, 4] {
                        let what = format!(
                            "{what}: {arity} keys, {arm}, {executor:?}, {threads} threads, \
                             morsels of {morsel}"
                        );
                        let cfg = EngineConfig::with_threads(threads)
                            .with_morsel_rows(morsel)
                            .with_executor(executor);
                        let ctx = QueryContext::default();
                        let (rel, prof) =
                            execute(&plan, &cat, &cfg, &ctx, Tracer::off()).expect("runs");
                        assert_matches(&rel, &want, &what);
                        // The form is the data's: only a hash table is
                        // charged for, besides count(distinct)'s set inserts.
                        let probes = if want.in_order { 0 } else { want.nsel };
                        assert_eq!(prof.rand_accesses, want.nsel + probes, "{what}");
                        assert_eq!(prof.hash_bytes == 0, want.in_order, "{what}");
                        // One profile per executor, whatever the threads and
                        // the morsel size; and without float sums (whose bits
                        // the morsel size decides) one relation too.
                        let (rel0, prof0) = first.get_or_insert((rel.clone(), prof));
                        assert_eq!(prof, *prof0, "{what}");
                        assert!(floats || rel == *rel0, "{what}");
                    }
                }
            }
        }
    }
}

/// Prints the seed of the case being checked if the test panics.
struct Replay(u64);

impl Drop for Replay {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "replay with: WIMPI_FOLD_SEED={} cargo test -p wimpi-engine --test aggregate_fold",
                self.0
            );
        }
    }
}

#[test]
fn every_configuration_folds_to_the_reference() {
    let seeds = match std::env::var("WIMPI_FOLD_SEED") {
        Ok(seed) => vec![seed.parse::<u64>().expect("WIMPI_FOLD_SEED is a number")],
        Err(_) => (0..6).collect(),
    };
    check(&[], "no rows");
    for seed in seeds {
        let _replay = Replay(seed);
        let mut rng = Rng::for_case("aggregate_fold", seed as u32);
        let n = 13 + rng.below(28) as usize;
        let mut sorted: Vec<Row> = (0..n)
            .map(|_| Row {
                key: [rng.below(4) as i64 - 1, rng.below(3) as i64, rng.below(4) as i64],
                d: rng.below(2001) as i64 - 1000,
                // Sums of these round differently in different orders.
                f: (rng.below(1 << 20) as f64 - 5e5) * 0.37 + 1.0 / (1 + rng.below(9)) as f64,
                s: rng.below(7) as i64 - 2,
                b: rng.below(2) == 0,
                t: rng.below(4) as usize,
                keep: rng.below(4) > 0,
            })
            .collect();
        sorted.sort_by_key(|r| r.key);
        check(&sorted, "keys in order, groups straddling morsels");
        let mut extremes = sorted.clone();
        (extremes[0].key[0], extremes[n - 1].key[0]) = (i64::MIN, i64::MAX);
        check(&extremes, "keys in order from i64::MIN to i64::MAX");

        // Morsels of 3 are cut at multiples of 3 — of the base table's rows
        // when the filter folds in, of the kept rows under float sums — so
        // keep every row around the seams: both cut them alike.
        let mut seams = sorted.clone();
        seams.iter_mut().take(12).for_each(|r| r.keep = true);
        let past_every_key = [9, 9, 3];
        let mut inside = seams.clone();
        inside[4].key = past_every_key; // rows 3, 4, 5 are one morsel
        check(&inside, "one inversion inside a morsel");
        let mut between = seams.clone();
        between[5].key = past_every_key; // in order up to its morsel's end, not beyond
        check(&between, "one inversion exactly at a morsel boundary");
        let mut dead = seams;
        dead[6..9].iter_mut().for_each(|r| r.keep = false);
        check(&dead, "a morsel whose filter keeps no row");

        let mut shuffled = sorted;
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        check(&shuffled, "keys in no order");
    }
}

/// An ill-typed aggregate is one typed error, the same under both price
/// lists and whether or not a filter folds into it.
#[test]
fn ill_typed_aggregates_are_the_same_error_under_both_executors() {
    let mut cat = Catalog::new();
    cat.register("t", table(&[]));
    let run = |agg: AggExpr, filtered: bool, executor: Executor| {
        let scan = PlanBuilder::scan("t");
        let input = if filtered { scan.filter(col("keep").gt(lit(0i64))) } else { scan };
        let plan = input.aggregate(vec![(col("k"), "k")], vec![agg]).build();
        let cfg = EngineConfig::serial().with_executor(executor);
        execute(&plan, &cat, &cfg, &QueryContext::default(), Tracer::off()).unwrap_err()
    };
    let both = |agg: AggExpr| {
        let errors: Vec<EngineError> = [false, true]
            .into_iter()
            .flat_map(|filtered| {
                [Executor::Materialize, Executor::Fused].map(|ex| run(agg.clone(), filtered, ex))
            })
            .collect();
        let first = errors[0].to_string();
        assert!(errors.iter().all(|e| e.to_string() == first), "{errors:?}");
        errors.into_iter().next().expect("four runs")
    };

    let err = both(AggExpr::count_if(col("s"), "n"));
    let mismatch = |e: &StorageError| {
        matches!(e, StorageError::TypeMismatch { expected, actual }
            if expected == "bool" && *actual == DataType::Int64.to_string())
    };
    assert!(matches!(&err, EngineError::Storage(e) if mismatch(e)), "{err:?}");

    for (agg, name) in [(AggExpr::sum(col("t"), "x"), "sum"), (AggExpr::avg(col("t"), "x"), "avg")]
    {
        let err = both(agg);
        let want = format!("{name} over non-numeric column of type {}", DataType::Utf8);
        assert!(matches!(&err, EngineError::Plan(msg) if *msg == want), "{err:?}");
    }

    let err = both(AggExpr { func: AggFunc::Max, expr: None, name: "x".into() });
    assert!(
        matches!(&err, EngineError::Plan(msg) if msg == "Max requires an input expression"),
        "{err:?}"
    );
}
