//! Extension experiment (not in the paper's evaluation): the §III-C1
//! hybrid NAM deployment — WIMPI workers plus one big-memory merge server —
//! compared against the all-Pi cluster on the choke-point queries.

use std::io;

use wimpi_cluster::distribute::Strategy;
use wimpi_cluster::faults::FaultPlan;
use wimpi_cluster::nam::NamCluster;
use wimpi_cluster::{ClusterConfig, WimpiCluster};
use wimpi_core::report::{emit, run_bin, Args, Series, TextFigure};
use wimpi_hwsim::normalize::{wimpi_msrp, wimpi_power_w};
use wimpi_obs::status;
use wimpi_queries::{query, CHOKEPOINT_QUERIES};

fn main() {
    run_bin(run_nam)
}

fn run_nam(args: &Args) -> io::Result<()> {
    let nodes = *args.sizes.last().expect("at least one size");
    let scale = 10.0 / args.sf;
    status!("building {nodes}-node cluster at measure SF {} (modelled SF 10) …", args.sf);
    let workers = WimpiCluster::build(ClusterConfig::new(nodes, args.sf).with_model_scale(scale))
        .expect("cluster builds");
    let server = wimpi_hwsim::profile("op-e5").expect("profile exists");
    let hybrid = NamCluster::new(workers, server);

    let mut fig = TextFigure::new(
        format!("NAM extension — all-Pi x{nodes} vs Pi x{nodes} + op-e5 merge server (SF 10, s)"),
        "query",
    );
    fig.rows = CHOKEPOINT_QUERIES.iter().map(|q| format!("Q{q}")).collect();
    let mut all_pi = Vec::new();
    let (mut nam, none) = (Vec::new(), FaultPlan::none());
    for &q in &CHOKEPOINT_QUERIES {
        let qp = query(q);
        all_pi.push(
            hybrid
                .workers
                .run(&qp, Strategy::PartialAggPushdown)
                .expect("all-pi runs")
                .total_seconds(),
        );
        let run = hybrid.run_with(&format!("Q{q}"), &qp, Strategy::PartialAggPushdown, &none);
        nam.push(run.expect("nam runs").total_seconds());
    }
    fig.push_series(Series::new("all-pi", all_pi.clone()));
    fig.push_series(Series::new("nam-hybrid", nam.clone()));
    fig.push_series(Series::new("speedup", all_pi.iter().zip(&nam).map(|(a, b)| a / b).collect()));
    emit(args, "nam", &[fig])?;
    if let (Some(m), Some(w)) = (hybrid.msrp(), hybrid.power_w()) {
        status!(
            "hybrid MSRP ${m:.0}, peak {w:.0} W (all-pi: ${:.0}, {:.0} W)",
            wimpi_msrp(nodes),
            wimpi_power_w(nodes)
        );
    }
    Ok(())
}
