//! Row-permutation oracle for the aggregates (ROADMAP item 3(a)).
//!
//! A query's answer is a function of its tables' row *sets*: shuffling the
//! rows of a base table may change the order of its output rows and which
//! form each operator takes, never the rows themselves. The generator emits
//! `lineitem` and `orders` in key order, the clustered catalog re-orders them
//! by date, and a seeded shuffle destroys every order; the nine queries
//! below, whose aggregates fold sums, counts, `count(distinct)` and
//! fixed-point averages, must answer all three layouts with the same multiset
//! of rows, exactly, at threads 1/2/4. The shuffle sends aggregates that find
//! runs of equal keys in the raw layout to the compact and hash forms, so one
//! answer is checked across forms the generated data never takes on its own.
//!
//! The shuffle's seed is printed; replay another with
//! `WIMPI_PERMUTE_SEED=<n> cargo test --test row_permutation`.

use wimpi::engine::{EngineConfig, QueryContext, Relation, Span};
use wimpi::queries::{query, run_governed, run_traced_governed};
use wimpi::storage::{Catalog, SplitMix64, Table, Value};

const SF: f64 = 0.01;
const QUERIES: [usize; 9] = [1, 3, 9, 10, 12, 13, 15, 18, 20];

/// `table` with its rows in a seeded random order (Fisher–Yates).
fn shuffled(table: &Table, seed: u64) -> Table {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<u32> = (0..table.num_rows() as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let columns = (0..table.num_columns()).map(|j| table.column(j).take(&order)).collect();
    Table::new(table.schema().as_ref().clone(), columns).expect("a permutation keeps the schema")
}

/// The catalog with its tables resealed on a 1024-row zone grid, so the
/// pruning configurations skip morsels and prove conjuncts true over some.
fn sealed(mut cat: Catalog) -> Catalog {
    let names: Vec<String> = cat.names().map(String::from).collect();
    for name in names {
        let fine = cat.table(&name).unwrap().as_ref().clone().with_zone_maps_at(1024);
        cat.register(&name, fine);
    }
    cat
}

/// The answer as a sorted multiset of rows, every cell by its exact bits.
fn multiset(rel: &Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..rel.num_rows())
        .map(|i| {
            rel.fields()
                .iter()
                .map(|(_, c)| match c.value(i) {
                    Value::F64(f) => format!("f64:{:016x}", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// The label of every aggregate's `partials` stage under `span`, in plan
/// order: `runs`, `compact` or `hash`.
fn aggregate_forms(span: &Span, out: &mut Vec<String>) {
    if span.op == "partials" {
        out.push(span.label.clone());
    }
    span.children.iter().for_each(|c| aggregate_forms(c, out));
}

fn forms(qn: usize, cat: &Catalog) -> Vec<String> {
    let cfg = EngineConfig::serial();
    let (_, _, span) = run_traced_governed(&query(qn), cat, &cfg, &QueryContext::default())
        .unwrap_or_else(|e| panic!("Q{qn}: {e}"));
    let mut labels = Vec::new();
    aggregate_forms(&span, &mut labels);
    labels
}

#[test]
fn answers_are_invariant_under_row_permutations() {
    let seed = match std::env::var("WIMPI_PERMUTE_SEED") {
        Ok(s) => s.parse::<u64>().expect("WIMPI_PERMUTE_SEED is a number"),
        Err(_) => 0x5eed_0046,
    };
    println!("row permutation seed: {seed} (replay with WIMPI_PERMUTE_SEED={seed})");
    let raw = wimpi::tpch::Generator::new(SF).generate_catalog().expect("generation succeeds");
    let mut mixed = raw.clone();
    for (k, name) in ["lineitem", "orders"].into_iter().enumerate() {
        let table = shuffled(raw.table(name).unwrap(), seed ^ k as u64);
        mixed.register(name, table);
    }
    let clustered = wimpi::tpch::clustered_catalog(SF).expect("clustered catalog generates");
    let layouts = [("raw", raw), ("clustered", sealed(clustered)), ("shuffled", sealed(mixed))];
    let configs = [
        EngineConfig::serial(),
        EngineConfig::with_threads(2).with_morsel_rows(2048).with_prune_scans(true),
        EngineConfig::with_threads(4).with_morsel_rows(1024).with_prune_scans(true),
    ];
    let mut moved = Vec::new();
    for qn in QUERIES {
        let answer = |cat: &Catalog, cfg: &EngineConfig| {
            let (rel, _) = run_governed(&query(qn), cat, cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{qn}: {e}"));
            multiset(&rel)
        };
        let want = answer(&layouts[0].1, &configs[0]);
        for (layout, cat) in &layouts {
            for cfg in &configs {
                let got = answer(cat, cfg);
                assert!(got == want, "Q{qn} on the {layout} catalog ({cfg:?}), seed {seed}");
            }
        }
        let (before, after) = (forms(qn, &layouts[0].1), forms(qn, &layouts[2].1));
        let unordered = before.iter().zip(&after).any(|(b, a)| b == "runs" && a != "runs");
        if unordered {
            moved.push(format!("Q{qn}: {} → {}", before.join(" "), after.join(" ")));
        }
    }
    println!("forms the shuffle moved: {moved:?}");
    assert!(!moved.is_empty(), "the shuffle moves some aggregate off the run form");
}
