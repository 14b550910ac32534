//! The aggregation fold against a reference that shares none of its code.
//!
//! `exec::aggregate` folds morsels into run-form, compact-form or hash-form
//! partials, picks the merge form from them, and runs under either price list
//! with or without a filter folded in, with or without a budget that sends the
//! merge down the degradation ladder. None of that may show: every
//! configuration must give the answer of a plain row-at-a-time group-by —
//! float sums included, whose reduction tree the reference cuts at the same
//! base-table morsel stride — and take, label and charge the form the *data*
//! calls for. The shapes aim at the seams: keys in order, one inversion inside
//! a morsel, one exactly at a morsel boundary, groups straddling boundaries, a
//! morsel whose filter keeps no row, groups whose float rows are all `-0.0`,
//! long runs of many distinct values, and key domains at the compact form's
//! bound, past it, spanning all of `i64`, and negative.
//!
//! A failure prints the seed that replays it.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::rng::Rng;
use wimpi_engine::expr::{col, lit};
use wimpi_engine::plan::{AggExpr, AggFunc, PlanBuilder};
use wimpi_engine::{
    execute, execute_priced, EngineConfig, EngineError, QueryContext, Relation, Span, Tracer,
};
use wimpi_storage::{
    Catalog, Column, DataType, Date32, Decimal64, DictColumn, Field, Schema, SpillConfig,
    SpillDisk, StorageError, Table, Value,
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

/// Every aggregate kind whose value does not depend on where morsels are cut,
/// then the float sums, which do.
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

/// The expected output, column by column, whether the selected keys are in
/// order (which decides the merge, hence the charges), and the `partials`
/// label the fold's forms give.
struct Expected {
    columns: Vec<(String, Vec<Value>)>,
    nsel: u64,
    in_order: bool,
    form: &'static str,
}

/// The most groups a key domain may hold for a morsel out of order to be cut
/// in the compact form: the product of its key columns' spans.
const COMPACT_GROUPS: i128 = 4096;

/// The label the fold's partials give: `runs` when the selected keys are in
/// order (every partial is then cut in runs, and the merge appends them);
/// otherwise `hash` when a morsel (of the base table's rows) whose selected
/// keys are out of order has a key domain past [`COMPACT_GROUPS`], else
/// `compact`.
fn form(selected: &[(usize, Row)], arity: usize, morsel: usize, in_order: bool) -> &'static str {
    let key = |r: &Row| r.key[..arity].to_vec();
    // In `i128`, which holds any span times the bound.
    let compact = |rows: &[(usize, Row)]| {
        (0..arity)
            .try_fold(1i128, |size, c| {
                let keys = rows.iter().map(|(_, r)| r.key[c] as i128);
                let span = keys.clone().max()? - keys.min()? + 1;
                Some(size * span).filter(|&size| size <= COMPACT_GROUPS)
            })
            .is_some()
    };
    let hashed = selected.chunk_by(|a, b| a.0 / morsel == b.0 / morsel).any(|rows| {
        let ordered = rows.windows(2).all(|w| key(&w[0].1) <= key(&w[1].1));
        !ordered && !compact(rows)
    });
    match (in_order, hashed) {
        (true, _) => "runs",
        (false, false) => "compact",
        (false, true) => "hash",
    }
}

fn reference(rows: &[Row], arity: usize, filtered: bool, floats: bool, morsel: usize) -> Expected {
    let selected: Vec<(usize, Row)> =
        rows.iter().copied().enumerate().filter(|(_, r)| r.keep || !filtered).collect();
    let key = |r: &Row| r.key[..arity].to_vec();
    let mut groups: Vec<Group> = Vec::new();
    for &(i, ref r) in &selected {
        let g = match groups.iter().position(|g| key(&g.first) == key(r)) {
            Some(g) => g,
            None => {
                groups.push(Group { first: *r, rows: Vec::new(), float_partials: Vec::new() });
                groups.len() - 1
            }
        };
        groups[g].rows.push(*r);
        // Float sums are cut in morsels of the table's rows, whether or not a
        // filter is folded in: `i` is the base row index. Partials start from
        // 0.0 and add rows in order.
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
    let in_order = selected.windows(2).all(|w| key(&w[0].1) <= key(&w[1].1));
    let form = form(&selected, arity, morsel, in_order);
    Expected { columns, nsel: selected.len() as u64, in_order, form }
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
///
/// The budgeted arm gives the merge one table entry fewer than it has groups,
/// with a spill disk: keys out of order then always descend the ladder, which
/// partitions the groups of the fold's morsel partials; keys in order merge in
/// the run form, which reserves nothing.
fn check(rows: &[Row], what: &str) {
    let mut cat = Catalog::new();
    cat.register("t", table(rows));
    let disk = || Arc::new(SpillDisk::new(SpillConfig::with_capacity(16 << 20)));
    let arms = [
        ("unfiltered", false, true),
        ("filtered", true, true),
        ("filtered without float sums", true, false),
    ];
    for arity in 0..=3 {
        for ((arm, filtered, floats), budgeted) in
            arms.into_iter().flat_map(|arm| [(arm, false), (arm, true)])
        {
            let scan = PlanBuilder::scan("t");
            let input = if filtered { scan.filter(col("keep").gt(lit(0i64))) } else { scan };
            let group = KEYS[..arity].iter().map(|&k| (col(k), k)).collect();
            let aggs = aggs(floats);
            let width = 32 * (arity + aggs.len()) as u64;
            let plan = input.aggregate(group, aggs).build();
            let mut first: Option<(Relation, _)> = None;
            for morsel in [1, 3, 4096] {
                let want = reference(rows, arity, filtered, floats, morsel);
                let groups = want.columns[0].1.len() as u64;
                let budget = budgeted.then(|| groups.saturating_sub(1).max(1) * width);
                for threads in [1, 2, 4] {
                    let what = format!(
                        "{what}: {arity} keys, {arm}, budgeted {budgeted}, {threads} threads, \
                         morsels of {morsel}"
                    );
                    let cfg = EngineConfig::with_threads(threads).with_morsel_rows(morsel);
                    let ctx = budget.map_or_else(QueryContext::default, |b| {
                        QueryContext::with_budget(b).with_spill(disk())
                    });
                    let tracer = Tracer::enabled();
                    let (rel, prices) =
                        execute_priced(&plan, &cat, &cfg, &ctx, &tracer).expect("runs");
                    assert_matches(&rel, &want, &what);
                    assert_eq!(ctx.fallbacks() > 0, budgeted && !want.in_order, "{what}");
                    // The label is the fold's, at any budget.
                    let mut forms = Vec::new();
                    partials_labels(&tracer.take_root().expect("traced"), &mut forms);
                    assert_eq!(forms, [want.form], "{what}");
                    // The form is the data's: in either list only a hash
                    // table is charged for, besides count(distinct)'s set
                    // inserts.
                    let probes = if want.in_order { 0 } else { want.nsel };
                    for (list, prof) in prices.lists() {
                        assert_eq!(prof.rand_accesses, want.nsel + probes, "{what}, {list:?}");
                        assert_eq!(prof.hash_bytes == 0, want.in_order, "{what}, {list:?}");
                    }
                    // One profile per list, whatever the threads and the
                    // morsel size; and without float sums (whose bits the
                    // morsel size decides) one relation too.
                    let (rel0, prices0) = first.get_or_insert((rel.clone(), prices));
                    assert_eq!(prices, *prices0, "{what}");
                    assert!(floats || rel == *rel0, "{what}");
                }
            }
        }
    }
}

fn partials_labels(span: &Span, out: &mut Vec<String>) {
    if span.op == "partials" {
        out.push(span.label.clone());
    }
    span.children.iter().for_each(|child| partials_labels(child, out));
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
            .map(|_| {
                let key = [rng.below(4) as i64 - 1, rng.below(3) as i64, rng.below(4) as i64];
                row_at(&mut rng, key)
            })
            .collect();
        sorted.sort_by_key(|r| r.key);
        check(&sorted, "keys in order, groups straddling morsels");
        let mut extremes = sorted.clone();
        (extremes[0].key[0], extremes[n - 1].key[0]) = (i64::MIN, i64::MAX);
        check(&extremes, "keys in order from i64::MIN to i64::MAX");

        // Morsels of 3 are cut at multiples of 3 of the base table's rows;
        // keep every row around the seams, so the filter leaves the
        // inversions where they were placed.
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

        // A float partial sum starts at +0.0, so these groups sum to +0.0
        // and their `min_f` is -0.0: moving a partial sum into the run
        // merge must give the bits of adding it to a fresh +0.0.
        let mut negative_zeros = sorted.clone();
        negative_zeros.iter_mut().filter(|r| r.key[0] % 2 == 0).for_each(|r| r.f = -0.0);
        check(&negative_zeros, "groups whose float rows are all -0.0");

        let mut shuffled = sorted;
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        check(&shuffled, "keys in no order");
    }
}

/// Groups of hundreds of rows holding dozens of distinct `s` values. In key
/// order each group is one long run, so `count(distinct)` deduplicates long
/// runs, and the run merge carries a group's values across morsel
/// boundaries at every morsel size (one group spans the 4096-row boundary).
/// Out of order, the compact form sorts each group into one long run, and so
/// does the hash form past the compact bound; either way the hash merge's
/// sets outgrow their inline capacity.
#[test]
fn long_runs_of_many_distinct_values_fold_to_the_reference() {
    let mut rng = Rng::for_case("aggregate_fold_long_runs", 0);
    let mut sorted: Vec<Row> = (0..5_000)
        .map(|i| Row {
            key: [i / 2_400, rng.below(2) as i64, rng.below(2) as i64],
            d: rng.below(2001) as i64 - 1000,
            f: (rng.below(1 << 20) as f64 - 5e5) * 0.37,
            s: rng.below(40) as i64 - 20,
            b: rng.below(2) == 0,
            t: rng.below(4) as usize,
            keep: rng.below(8) > 0,
        })
        .collect();
    sorted.sort_by_key(|r| r.key);
    check(&sorted, "long runs in key order");
    for i in (1..sorted.len()).rev() {
        sorted.swap(i, rng.below(i as u64 + 1) as usize);
    }
    check(&sorted, "long groups in no order");
    sorted.iter_mut().for_each(|r| r.key[0] *= 4096);
    check(&sorted, "long groups in no order, past the compact bound");
}

/// A row of random values under `key`, kept by the filter unless `rng` says
/// otherwise.
fn row_at(rng: &mut Rng, key: [i64; 3]) -> Row {
    Row {
        key,
        d: rng.below(2001) as i64 - 1000,
        // Sums of these round differently in different orders.
        f: (rng.below(1 << 20) as f64 - 5e5) * 0.37 + 1.0 / (1 + rng.below(9)) as f64,
        s: rng.below(7) as i64 - 2,
        b: rng.below(2) == 0,
        t: rng.below(4) as usize,
        keep: rng.below(4) > 0,
    }
}

/// `ends` — kept by the filter, so they bound every arm's key domain — and
/// then `n` rows under keys from `key`, shuffled.
fn shuffled(
    rng: &mut Rng,
    ends: &[[i64; 3]],
    n: usize,
    key: impl Fn(&mut Rng) -> [i64; 3],
) -> Vec<Row> {
    let mut rows: Vec<Row> = ends.iter().map(|&k| Row { keep: true, ..row_at(rng, k) }).collect();
    rows.extend((0..n).map(|_| {
        let k = key(rng);
        row_at(rng, k)
    }));
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rows
}

/// The compact form's seams, every shape in no order: key domains of exactly
/// [`COMPACT_GROUPS`] slots and of one more (three keys, string codes among
/// them, so the mixed radix is exercised at the bound), keys spanning all of
/// `i64` (their span overflows `u64`, and must fall through to the hash form
/// rather than wrap), and negative keys. In one morsel of the whole table the
/// first and the last two take the compact form and the others hash; smaller
/// morsels see smaller domains.
#[test]
fn compact_key_domains_fold_to_the_reference() {
    let mut rng = Rng::for_case("aggregate_fold_compact", 0);
    let below = |rng: &mut Rng, lo: i64, span: u64| lo + rng.below(span) as i64;
    let whole = |rows: &[Row]| {
        let selected: Vec<(usize, Row)> = rows.iter().copied().enumerate().collect();
        form(&selected, 3, 4096, false)
    };

    // 512 × 4 × 2 = 4096 and 241 × 17 × 1 = 4097 slots.
    let at_bound = shuffled(&mut rng, &[[-300, 0, 0], [211, 3, 1]], 40, |rng| {
        [below(rng, -300, 512), below(rng, 0, 4), below(rng, 0, 2)]
    });
    assert_eq!(whole(&at_bound), "compact");
    check(&at_bound, "a key domain of exactly 4096 slots");
    let past = shuffled(&mut rng, &[[-120, 0, 2], [120, 16, 2]], 40, |rng| {
        [below(rng, -120, 241), below(rng, 0, 17), 2]
    });
    assert_eq!(whole(&past), "hash");
    check(&past, "a key domain of 4097 slots");

    let extremes = shuffled(&mut rng, &[[i64::MIN, 0, 0], [i64::MAX, 0, 0]], 30, |rng| {
        [below(rng, -2, 5), below(rng, 0, 3), below(rng, 0, 4)]
    });
    assert_eq!(whole(&extremes), "hash");
    check(&extremes, "keys in no order from i64::MIN to i64::MAX");

    let negative = shuffled(&mut rng, &[], 40, |rng| {
        [below(rng, -60, 50), below(rng, -9, 6), below(rng, 0, 4)]
    });
    assert_eq!(whole(&negative), "compact");
    check(&negative, "negative keys in no order");

    let three =
        shuffled(&mut rng, &[], 40, |rng| [below(rng, 0, 3), below(rng, 0, 3), below(rng, 0, 4)]);
    assert_eq!(whole(&three), "compact");
    check(&three, "three keys in no order, string codes among them");
}

/// An ill-typed aggregate is one typed error, whether or not a filter folds
/// into it.
#[test]
fn ill_typed_aggregates_are_the_same_error_filtered_or_not() {
    let mut cat = Catalog::new();
    cat.register("t", table(&[]));
    let run = |agg: AggExpr, filtered: bool| {
        let scan = PlanBuilder::scan("t");
        let input = if filtered { scan.filter(col("keep").gt(lit(0i64))) } else { scan };
        let plan = input.aggregate(vec![(col("k"), "k")], vec![agg]).build();
        let cfg = EngineConfig::serial();
        execute(&plan, &cat, &cfg, &QueryContext::default(), Tracer::off()).unwrap_err()
    };
    let both = |agg: AggExpr| {
        let [plain, filtered] = [false, true].map(|filtered| run(agg.clone(), filtered));
        assert_eq!(plain.to_string(), filtered.to_string(), "{plain:?} vs {filtered:?}");
        plain
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
