//! Cost explorer: sweep WIMPI cluster sizes for one query and find the
//! MSRP, hourly, and energy break-even points against the on-premises
//! servers — the analysis behind Figures 5–7.
//!
//! ```text
//! cargo run --release --example cost_explorer [query] [sf]
//! ```

use wimpi::cluster::distribute::Strategy;
use wimpi::cluster::{ClusterConfig, WimpiCluster};
use wimpi::hwsim::normalize;
use wimpi::queries::query;

fn main() {
    let mut args = std::env::args().skip(1);
    let q: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let sf: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let sizes = [2u32, 4, 8, 12, 16, 20, 24];

    // Reference machine: op-e5, modelled on the same measured workload.
    let e5 = wimpi::hwsim::profile("op-e5").expect("profile exists");
    let full = wimpi::tpch::Generator::new(sf).generate_catalog().expect("generates");
    let (_, work) = wimpi::queries::run(&query(q), &full).expect("runs");
    let e5_time = wimpi::hwsim::predict_all_cores(&e5, &work).total_s();
    let e5_msrp = normalize::msrp(&e5).expect("on-prem msrp");
    let e5_w = normalize::power_w(&e5).expect("on-prem tdp");
    println!("Q{q} at SF {sf}: op-e5 predicted {e5_time:.4} s (MSRP ${e5_msrp}, {e5_w} W)\n");

    println!("nodes   wimpi-time   msrp-improvement   energy-improvement");
    let mut msrp_imps = Vec::new();
    for &n in &sizes {
        let cluster = WimpiCluster::build(ClusterConfig::new(n, sf)).expect("cluster builds");
        let run = cluster.run(&query(q), Strategy::PartialAggPushdown).expect("runs");
        let t = run.total_seconds();
        let msrp_imp = normalize::improvement(t, normalize::wimpi_msrp(n), e5_time, e5_msrp);
        let energy_imp = normalize::improvement(t, normalize::wimpi_power_w(n), e5_time, e5_w);
        msrp_imps.push(msrp_imp);
        println!("{n:>5}   {t:>9.4} s {msrp_imp:>17.2}x {energy_imp:>19.2}x");
    }
    match normalize::break_even_nodes(&sizes, &msrp_imps) {
        Some(n) => println!("\nMSRP break-even (≥1×) first reached at {n} nodes"),
        None => println!("\nthe server wins on MSRP at every tested size (the paper's Q13 case)"),
    }
}
