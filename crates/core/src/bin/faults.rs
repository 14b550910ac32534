//! Regenerates the availability experiment: recovery overhead, simulated
//! recovery seconds, and answer coverage when nodes are killed mid-study,
//! swept over cluster size (default 4–24) and failure count (0–2).

use wimpi_core::report::{emit, run_bin};

fn main() {
    run_bin(|args| {
        let study = wimpi_core::Study::new(args.sf);
        let t = study.availability(&args.sizes, &[0, 1, 2]).expect("availability runs");
        emit(args, "faults", &t.to_figures())
    })
}
