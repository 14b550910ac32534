//! End-to-end smoke run: all four workloads at SF 0.01, untraced and traced,
//! and the agreement between what they print and `BENCHMARK.json`.

use wimpi_benchmark::harness::Params;
use wimpi_benchmark::metrics::{result_line, END_TO_END, PER_LAYER};
use wimpi_benchmark::run::{crate_dir, run, WORKLOADS};
use wimpi_core::trace_check::{parse_json, Json};

fn spec() -> Json {
    let path = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json {key}: expected an array, got {other:?}"),
    }
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    match item.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    array(doc, key).iter().map(|m| (text(m, "name").into(), text(m, "unit").into())).collect()
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let doc = spec();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = array(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    for metric in array(&doc, "end_to_end") {
        match metric.get("bound") {
            Some(Json::Num(b)) => assert!(*b > 0.0 && *b <= 0.25, "bound {b} out of range"),
            other => panic!("{}: bound is {other:?}", text(metric, "name")),
        }
    }
}

/// Every metric of the list is in the printed result exactly once, finite.
fn check_result(line: &str, list: &[(&str, &str)]) {
    let doc = parse_json(line).expect("result line is JSON");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(doc.get("failed"), Some(&Json::Num(0.0)), "{line}");
    assert!(matches!(doc.get("attempted"), Some(Json::Num(n)) if *n >= 1.0), "{line}");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics in {line}") };
    let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let listed: Vec<&str> = list.iter().map(|(name, _)| *name).collect();
    assert_eq!(printed, listed);
    for ((name, value), (_, unit)) in metrics.iter().zip(list) {
        assert!(matches!(value.get("value"), Some(Json::Num(v)) if v.is_finite()), "{name}");
        assert_eq!(value.get("unit"), Some(&Json::Str(unit.to_string())), "{name}");
    }
}

#[test]
fn smoke_pass_of_all_four_workloads() {
    let p = Params { seed: 7, seconds: 1, smoke: true };
    for workload in WORKLOADS {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run(workload, &p, trace, false);
            assert!(out.correct, "{workload} trace={trace}: {:?}", out.notes);
            check_result(&result_line(out.correct, out.attempted, out.failed, &out.metrics), list);
            assert_eq!(out.trace.is_some(), trace);
            if let Some(spans) = out.trace {
                let doc = parse_json(&spans).expect("span log is JSON");
                assert!(matches!(doc.get("spans"), Some(Json::Arr(s)) if s.len() > 20));
            }
        }
    }
}

#[test]
fn same_seed_repeats_the_simulated_time_and_the_exact_counts() {
    let p = Params { seed: 3, seconds: 1, smoke: true };
    let pick = |out: &wimpi_benchmark::run::Outcome, unit: &str| -> Vec<(&'static str, u64)> {
        out.metrics.iter().filter(|m| m.2 == unit).map(|m| (m.0, m.1.to_bits())).collect()
    };
    // The workload with two threads in it, where repeating is not a given.
    let workload = "wimpi24_serve";
    let (a, b) = (run(workload, &p, false, false), run(workload, &p, false, false));
    assert_eq!(pick(&a, "sim_s"), pick(&b, "sim_s"));
    let (a, b) = (run(workload, &p, true, false), run(workload, &p, true, false));
    assert_eq!(pick(&a, "count"), pick(&b, "count"));
    assert_eq!(pick(&a, "sim_s"), pick(&b, "sim_s"));
}
