//! Regenerates the extensions' modelled-gain tables: hwsim's speedup at 2/4
//! threads, fused-executor gain, zone-map prune gain and spill penalty for
//! the 8 choke-point queries on the Pi 3B+ and op-e5. Simulated time only;
//! host timings of the same paths are `benchmark/run.sh` metrics.

use wimpi_core::report::{emit, run_bin};

fn main() {
    run_bin(|args| {
        let t = wimpi_core::Study::new(args.sf).extensions().expect("extensions run");
        emit(args, "extensions", &t.to_figures())
    })
}
