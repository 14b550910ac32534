//! # wimpi-bench
//!
//! Shared harness for the artifact writers. `all` is the study run and the
//! one writer of the paper's artifacts under `results/`: Tables I–III,
//! Figures 2–7, the paper-vs-model comparisons and `summary.md`. `nam`,
//! `faults` and `extensions` write this repo's extension tables. Each binary
//! prints its tables/figures as aligned text and writes both `.txt` and
//! `.json` artifacts. Every number is simulated time or a work count, so two
//! runs write identical files. Host timings live elsewhere: the engine's in
//! `benchmark/` (the repo's regression benchmark), the microbenchmark
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
//! default scale or leave it half-regenerated.
//!
//! Status chatter goes through [`wimpi_obs::status`] (stderr, silenced by
//! `WIMPI_QUIET=1`); stdout carries only table/figure data.

use std::fs;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

use wimpi_analysis::TextFigure;
use wimpi_obs::status;

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

/// Prints a figure and writes its `.txt`/`.json` artifacts.
pub fn emit(args: &Args, slug: &str, figures: &[TextFigure]) {
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
    write_artifact(&args.out, &format!("{slug}.txt"), &text);
    write_artifact(&args.out, &format!("{slug}.json"), &json);
}

/// Writes one artifact file, creating the directory if needed.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) {
    if let Err(e) = fs::create_dir_all(dir) {
        status!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => status!("wrote {}", path.display()),
        Err(e) => status!("cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let dir = std::env::temp_dir().join("wimpi-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args { out: dir.clone(), ..Args::default() };
        let mut f = TextFigure::new("T", "r");
        f.rows = vec!["a".into()];
        f.push_series(wimpi_analysis::Series::new("s", vec![1.0]));
        emit(&args, "demo", &[f]);
        assert!(dir.join("demo.txt").exists());
        assert!(dir.join("demo.json").exists());
        let json = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        assert!(json.starts_with('[') && json.ends_with(']'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
