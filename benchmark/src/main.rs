//! `wimpi-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//! runs one workload in this process and prints its metrics; the last line
//! of stdout is the result object `BENCHMARK.json`'s contract describes.

use wimpi_benchmark::harness::{Params, REFERENCE_SECONDS};
use wimpi_benchmark::metrics::result_line;
use wimpi_benchmark::run::{crate_dir, run, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: wimpi-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--write-golden]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut p = Params { seed: 1, seconds: REFERENCE_SECONDS, smoke: false };
    let (mut trace, mut write_golden) = (false, false);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => p.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => p.seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value("--trace") != "0",
            "--smoke" => p.smoke = true,
            "--write-golden" => write_golden = true,
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if !WORKLOADS.contains(&workload.as_str()) || p.seconds == 0 {
        usage();
    }

    let out = run(&workload, &p, trace, write_golden);
    if let Some(spans) = &out.trace {
        let dir = crate_dir().join("out");
        std::fs::create_dir_all(&dir).expect("out/ is creatable");
        std::fs::write(dir.join(format!("trace_{workload}.json")), spans)
            .expect("trace file writes");
    }
    println!("# {workload} seed={} seconds={} trace={}", p.seed, p.seconds, trace as u8);
    for (name, value, unit) in &out.metrics {
        println!("{name:<48} {value:>16.6} {unit}");
    }
    println!("ops attempted {} failed {}", out.attempted, out.failed);
    for note in &out.notes {
        println!("! {note}");
    }
    println!("{}", result_line(out.correct, out.attempted, out.failed, &out.metrics));
    if !out.correct {
        std::process::exit(1);
    }
}
