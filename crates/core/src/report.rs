//! The study's output: the text/JSON figure renderer every table and
//! figure goes through ([`TextFigure`]), paper-vs-model comparison summaries
//! for EXPERIMENTS.md ([`Comparison`]), and the artifact writers' shared
//! harness ([`Args`], [`emit`], [`write_artifact`]).
//!
//! The binaries under `src/bin/` write the artifacts. `all` is the study run
//! and the one writer of the paper's artifacts under `results/`: Tables
//! I–III, Figures 2–7, the paper-vs-model comparisons and `summary.md`.
//! `nam`, `faults` and `extensions` write this repo's extension tables. Each
//! binary prints its tables/figures as aligned text and writes both `.txt`
//! and `.json` artifacts. Every number is simulated time or a work count, so
//! two runs write identical files. Host timings live elsewhere: the engine's
//! in `benchmark/` (the repo's regression benchmark), the microbenchmark
//! kernels' and the iperf model's in `examples/microbench_host`, the
//! execution paradigms' in `examples/strategies_lab`. Invariants live in the
//! test suites.
//!
//! Flags:
//!
//! * `--sf <f64>` — scale factor executed on the host (default 0.2; work
//!   profiles are extrapolated to the paper's SF 1/10, see DESIGN.md §4).
//! * `--out <dir>` — artifact directory (default `results`).
//! * `--sizes a,b,c` — cluster sizes, each at least one node (default the
//!   paper's 4,8,12,16,20,24).
//!
//! Anything else — an unknown flag, a missing or unparsable value — prints
//! a usage line and exits non-zero before any artifact is written:
//! `results/` is tracked, and a typo must not silently regenerate it at the
//! default scale or leave it half-regenerated. A failed artifact write stops
//! the run with status 1, naming the path.
//!
//! Status chatter goes through [`wimpi_obs::status`] (stderr, silenced by
//! `WIMPI_QUIET=1`); stdout carries only table/figure data.

use std::fs;
use std::io;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

use crate::experiments::{DistributedTable, SingleNodeTable};
use crate::reference;
use wimpi_hwsim::model::geomean_ratio;
use wimpi_obs::status;

/// A paper-vs-model summary for one table.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub title: String,
    /// Geometric-mean model/paper runtime ratio per comparison point.
    pub per_profile: Vec<(String, f64)>,
    /// Fraction of (query, machine-pair) orderings where the model agrees
    /// with the paper about who is faster.
    pub ordering_agreement: f64,
}

impl Comparison {
    /// Renders as markdown rows.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str("| machine | geomean model/paper |\n|---|---|\n");
        for (name, ratio) in &self.per_profile {
            out.push_str(&format!("| {name} | {ratio:.2}× |\n"));
        }
        out.push_str(&format!(
            "\nPairwise who-is-faster agreement with the paper: **{:.0}%**\n",
            self.ordering_agreement * 100.0
        ));
        out
    }
}

/// Compares a modelled Table II against the paper's.
pub fn compare_table2(model: &SingleNodeTable) -> Comparison {
    let mut per_profile = Vec::new();
    for name in reference::TABLE2_ROWS {
        let paper: Vec<f64> =
            (1..=22).map(|q| reference::table2(name, q).expect("transcribed")).collect();
        let ours: Vec<f64> = (1..=22).map(|q| model.get(name, q).expect("modelled")).collect();
        per_profile.push((name.to_string(), geomean_ratio(&ours, &paper)));
    }
    Comparison {
        title: "Table II (TPC-H SF 1)".to_string(),
        ordering_agreement: ordering_agreement_sf1(model),
        per_profile,
    }
}

fn ordering_agreement_sf1(model: &SingleNodeTable) -> f64 {
    let names = reference::TABLE2_ROWS;
    let mut total = 0usize;
    let mut agree = 0usize;
    for q in 1..=22 {
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                let p = reference::table2(names[i], q).expect("transcribed")
                    < reference::table2(names[j], q).expect("transcribed");
                let m = model.get(names[i], q).expect("modelled")
                    < model.get(names[j], q).expect("modelled");
                total += 1;
                agree += usize::from(p == m);
            }
        }
    }
    agree as f64 / total as f64
}

/// Compares a modelled Table III (servers + WIMPI) against the paper's.
/// Only cluster sizes the paper also ran are compared.
pub fn compare_table3(model: &DistributedTable) -> Comparison {
    let mut per_profile = Vec::new();
    for name in reference::TABLE3_SERVER_ROWS {
        let paper: Vec<f64> = reference::TABLE3_QUERIES
            .iter()
            .map(|&q| reference::table3_server(name, q).expect("transcribed"))
            .collect();
        let ours: Vec<f64> = reference::TABLE3_QUERIES
            .iter()
            .map(|&q| model.servers.get(name, q).expect("modelled"))
            .collect();
        per_profile.push((name.to_string(), geomean_ratio(&ours, &paper)));
    }
    let mut total = 0usize;
    let mut agree = 0usize;
    for &n in &model.cluster_sizes {
        if !reference::TABLE3_CLUSTER_SIZES.contains(&n) {
            continue;
        }
        let paper: Vec<f64> = reference::TABLE3_QUERIES
            .iter()
            .map(|&q| reference::table3_wimpi(n, q).expect("transcribed"))
            .collect();
        let ours: Vec<f64> = reference::TABLE3_QUERIES
            .iter()
            .map(|&q| model.wimpi(n, q).expect("modelled"))
            .collect();
        per_profile.push((format!("pi3b+ x{n}"), geomean_ratio(&ours, &paper)));
        // Agreement: does WIMPI beat op-e5 in the model exactly when it
        // does in the paper?
        for (i, &q) in reference::TABLE3_QUERIES.iter().enumerate() {
            let p = paper[i] < reference::table3_server("op-e5", q).expect("transcribed");
            let m = ours[i] < model.servers.get("op-e5", q).expect("modelled");
            total += 1;
            agree += usize::from(p == m);
        }
    }
    Comparison {
        title: "Table III (TPC-H SF 10, distributed)".to_string(),
        ordering_agreement: if total == 0 { 1.0 } else { agree as f64 / total as f64 },
        per_profile,
    }
}

/// Median of a slice (used for the paper's "median improvement" claims).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A named series over shared row labels — one line of a figure, or one
/// column of a table.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per row label (`None` renders as `-`).
    pub values: Vec<Option<f64>>,
}

impl Series {
    /// Builds a fully populated series.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self { name: name.into(), values: values.into_iter().map(Some).collect() }
    }
}

/// A renderable table/figure.
#[derive(Debug, Clone)]
pub struct TextFigure {
    /// Figure/table title.
    pub title: String,
    /// Label of the row-key column.
    pub row_header: String,
    /// Row labels.
    pub rows: Vec<String>,
    /// Data series (columns).
    pub series: Vec<Series>,
    /// Number formatting precision.
    pub precision: usize,
}

impl TextFigure {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>, row_header: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            row_header: row_header.into(),
            rows: Vec::new(),
            series: Vec::new(),
            precision: 3,
        }
    }

    /// Appends a series; its length must match the row labels.
    pub fn push_series(&mut self, s: Series) {
        assert_eq!(
            s.values.len(),
            self.rows.len(),
            "series {} has {} values for {} rows",
            s.name,
            s.values.len(),
            self.rows.len()
        );
        self.series.push(s);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt = |v: &Option<f64>| match v {
            Some(x) if x.abs() >= 1000.0 => format!("{x:.0}"),
            Some(x) => format!("{x:.prec$}", prec = self.precision),
            None => "-".to_string(),
        };
        let mut widths: Vec<usize> = Vec::new();
        widths.push(
            self.rows.iter().map(String::len).chain([self.row_header.len()]).max().unwrap_or(0),
        );
        for s in &self.series {
            let w = s.values.iter().map(|v| fmt(v).len()).chain([s.name.len()]).max().unwrap_or(1);
            widths.push(w);
        }
        out.push_str(&format!("{:<w$}", self.row_header, w = widths[0]));
        for (i, s) in self.series.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", s.name, w = widths[i + 1]));
        }
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * self.series.len()));
        out.push('\n');
        for (r, label) in self.rows.iter().enumerate() {
            out.push_str(&format!("{label:<w$}", w = widths[0]));
            for (i, s) in self.series.iter().enumerate() {
                out.push_str(&format!("  {:>w$}", fmt(&s.values[r]), w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the figure as a JSON object (hand-rolled — the figure
    /// values are plain numbers and labels, no serde needed here).
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = format!(
            "{{\"title\":\"{}\",\"rows\":[{}],\"series\":[",
            esc(&self.title),
            self.rows.iter().map(|r| format!("\"{}\"", esc(r))).collect::<Vec<_>>().join(",")
        );
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let vals: Vec<String> = s
                .values
                .iter()
                .map(|v| match v {
                    Some(x) if x.is_finite() => format!("{x}"),
                    _ => "null".to_string(),
                })
                .collect();
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"values\":[{}]}}",
                esc(&s.name),
                vals.join(",")
            ));
        }
        out.push_str("]}");
        out
    }
}

const USAGE: &str = "usage: [--sf <scale factor > 0>] [--out <dir>] [--sizes <n,n,... each >= 1>]";

/// Parsed harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Host-measured scale factor.
    pub sf: f64,
    /// Output directory for artifacts.
    pub out: PathBuf,
    /// Cluster sizes for distributed experiments.
    pub sizes: Vec<u32>,
}

impl Default for Args {
    fn default() -> Self {
        Self { sf: 0.2, out: PathBuf::from("results"), sizes: vec![4, 8, 12, 16, 20, 24] }
    }
}

impl Args {
    /// Parses the command line. On a bad one, prints the reason and a usage
    /// line to stderr and exits with status 2.
    pub fn parse() -> Self {
        let tokens: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&tokens).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses a flag list on top of the defaults; a later flag overrides an
    /// earlier one.
    fn parse_from(tokens: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = tokens.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--sf" => {
                    let v = value()?;
                    out.sf = match v.parse::<f64>() {
                        Ok(sf) if sf.is_finite() && sf > 0.0 => sf,
                        _ => return Err(format!("--sf: {v:?} is not a positive number")),
                    };
                }
                "--out" => out.out = PathBuf::from(value()?),
                "--sizes" => {
                    let v = value()?;
                    out.sizes = v
                        .split(',')
                        .map(|s| s.trim().parse::<NonZeroU32>().map(NonZeroU32::get))
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("--sizes: {v:?} is not a list of node counts >= 1"))?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }
}

/// A binary's `main`: parses the command line and runs `body` on it. The
/// first failed artifact write ends the run with status 1, its error (which
/// names the path) on stderr whatever `WIMPI_QUIET` says.
pub fn run_bin(body: impl FnOnce(&Args) -> io::Result<()>) {
    if let Err(e) = body(&Args::parse()) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Prints a figure and writes its `.txt`/`.json` artifacts.
pub fn emit(args: &Args, slug: &str, figures: &[TextFigure]) -> io::Result<()> {
    let mut text = String::new();
    let mut json = String::from("[");
    for (i, f) in figures.iter().enumerate() {
        text.push_str(&f.render());
        text.push('\n');
        if i > 0 {
            json.push(',');
        }
        json.push_str(&f.to_json());
    }
    json.push(']');
    print!("{text}");
    write_artifact(&args.out, &format!("{slug}.txt"), &text)?;
    write_artifact(&args.out, &format!("{slug}.json"), &json)
}

/// Writes one artifact file, creating the directory if needed. The error
/// names the directory or file that could not be written.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> io::Result<()> {
    let named = |what: &str, path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("cannot {what} {}: {e}", path.display()))
    };
    fs::create_dir_all(dir).map_err(|e| named("create", dir, e))?;
    let path = dir.join(name);
    fs::write(&path, contents).map_err(|e| named("write", &path, e))?;
    status!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn perfect_model_compares_at_one() {
        // Feed the paper's own numbers through the comparison: every ratio
        // must be exactly 1 and agreement 100%.
        let model = SingleNodeTable {
            target_sf: 1.0,
            queries: (1..=22).collect(),
            profiles: reference::TABLE2_ROWS.iter().map(|s| s.to_string()).collect(),
            seconds: reference::TABLE2_SECONDS.iter().map(|r| r.to_vec()).collect(),
        };
        let c = compare_table2(&model);
        for (name, ratio) in &c.per_profile {
            assert!((ratio - 1.0).abs() < 1e-12, "{name} ratio {ratio}");
        }
        assert_eq!(c.ordering_agreement, 1.0);
        let md = c.to_markdown();
        assert!(md.contains("100%"));
    }

    fn fig() -> TextFigure {
        let mut f = TextFigure::new("Demo", "query");
        f.rows = vec!["Q1".into(), "Q6".into()];
        f.push_series(Series::new("op-e5", vec![0.161, 0.028]));
        f.push_series(Series { name: "pi3b+".into(), values: vec![Some(1.772), None] });
        f
    }

    #[test]
    fn render_aligns_and_includes_all_cells() {
        let text = fig().render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("0.161"));
        assert!(text.contains("1.772"));
        assert!(text.lines().last().unwrap().trim_end().ends_with('-'));
        assert!(text.contains("Q6"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = fig().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rows\":[\"Q1\",\"Q6\"]"));
        assert!(j.contains("null"), "missing values serialize as null");
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn mismatched_series_length_panics() {
        let mut f = TextFigure::new("x", "r");
        f.rows = vec!["a".into()];
        f.push_series(Series::new("s", vec![1.0, 2.0]));
    }

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse_from(&tokens.iter().map(|t| t.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_match_paper_sweep() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Args::default());
        assert_eq!(a.sizes, vec![4, 8, 12, 16, 20, 24]);
        assert!(a.sf > 0.0);
    }

    #[test]
    fn later_flags_override_earlier_ones() {
        let a = parse(&["--sf", "1.0", "--out", "x", "--sizes", "3, 4", "--sf", "0.05"]).unwrap();
        assert_eq!(a, Args { sf: 0.05, out: PathBuf::from("x"), sizes: vec![3, 4] });
    }

    #[test]
    fn unparsable_scale_factor_is_rejected() {
        for bad in ["abc", "0", "-1", "NaN", "inf"] {
            let err = parse(&["--sf", bad]).unwrap_err();
            assert!(err.starts_with("--sf"), "{bad}: {err}");
        }
    }

    #[test]
    fn unparsable_sizes_are_rejected() {
        for bad in ["x", "4,x", "4,,8", "", "0", "4,0"] {
            let err = parse(&["--sizes", bad]).unwrap_err();
            assert!(err.starts_with("--sizes"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
        assert_eq!(parse(&["--sf", "0.1", "extra"]).unwrap_err(), "unknown flag extra");
        assert_eq!(parse(&["--out"]).unwrap_err(), "--out needs a value");
    }

    #[test]
    fn emit_writes_artifacts() {
        let dir = std::env::temp_dir().join("wimpi-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args { out: dir.clone(), ..Args::default() };
        let mut f = TextFigure::new("T", "r");
        f.rows = vec!["a".into()];
        f.push_series(Series::new("s", vec![1.0]));
        emit(&args, "demo", &[f]).unwrap();
        assert!(dir.join("demo.txt").exists());
        assert!(dir.join("demo.json").exists());
        let json = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        assert!(json.starts_with('[') && json.ends_with(']'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_into_a_regular_file_fails_naming_it() {
        let file = std::env::temp_dir().join(format!("wimpi-report-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let args = Args { out: file.clone(), ..Args::default() };
        let mut f = TextFigure::new("T", "r");
        f.rows = vec!["a".into()];
        f.push_series(Series::new("s", vec![1.0]));
        let err = emit(&args, "demo", &[f]).unwrap_err();
        assert!(err.to_string().contains(&file.display().to_string()), "{err}");
        let _ = std::fs::remove_file(&file);
    }
}
