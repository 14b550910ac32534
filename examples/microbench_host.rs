//! Run the paper's §II-C microbenchmarks natively on this machine and show
//! the hardware models' Figure 2 predictions next to them.
//!
//! ```text
//! cargo run --release --example microbench_host
//! ```

use wimpi::hwsim::kernels::{dhrystone, membw, primes, whetstone, NetModel};
use wimpi::hwsim::micro;

fn main() {
    println!("running the four kernels on this host (single-threaded) …\n");
    let whet = whetstone::run(50);
    println!("Whetstone : {:>10.0} MWIPS   ({:.2} s)", whet.mwips, whet.elapsed_s);
    let dhry = dhrystone::run(5_000_000);
    println!("Dhrystone : {:>10.0} DMIPS   ({:.2} s)", dhry.dmips, dhry.elapsed_s);
    let prime = primes::run(10_000);
    println!(
        "sysbench  : {:>10.4} s       ({} primes below {})",
        prime.elapsed_s, prime.primes_found, prime.max
    );
    let bw = membw::read_bandwidth(256 << 20, 3);
    println!("membw     : {:>10.2} GB/s    ({} MiB buffer)\n", bw.read_gbs, bw.buffer_bytes >> 20);

    println!("model predictions (Figure 2), 1-core → all-cores:");
    for name in ["op-e5", "op-gold", "m5.metal", "c6g.metal", "pi3b+"] {
        let hw = wimpi::hwsim::profile(name).expect("profile exists");
        let s = micro::scores(&hw);
        println!(
            "{name:>10}: whet {:>6.0}→{:>7.0}  dhry {:>6.0}→{:>7.0}  prime {:>6.2}s→{:>5.2}s  bw {:>5.1}→{:>6.1} GB/s",
            s.whetstone.0, s.whetstone.1, s.dhrystone.0, s.dhrystone.1,
            s.prime_s.0, s.prime_s.1, s.membw_gbs.0, s.membw_gbs.1,
        );
    }

    let net = NetModel::wimpi_node();
    let (_, mbps) = net.iperf(10.0);
    println!("\nWIMPI node link (modelled iperf): {mbps:.0} Mbps — paper measured ≈220 Mbps");
}
