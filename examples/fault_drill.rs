//! A fault drill against the WIMPI cluster: crash nodes mid-study, inject
//! transient OOMs and stragglers, and print the recovery timeline — which
//! partitions were reassigned where, what the retries and regeneration cost
//! in simulated seconds, and what a degraded answer covers when recovery is
//! exhausted.
//!
//! ```text
//! cargo run --release --example fault_drill [sf] [nodes]
//! ```

use wimpi::cluster::distribute::Strategy;
use wimpi::cluster::faults::{FaultKind, FaultPlan, RecoveryPolicy};
use wimpi::cluster::{ClusterConfig, WimpiCluster};
use wimpi::queries::{query, CHOKEPOINT_QUERIES};

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let nodes: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    assert!(nodes >= 3, "the drill kills two nodes; give it at least 3");

    println!("building a {nodes}-node WIMPI cluster holding TPC-H SF {sf} …\n");
    let mut cluster = WimpiCluster::build(ClusterConfig::new(nodes, sf)).expect("cluster builds");

    // Phase 1 — the study starts healthy, then nodes die under it: every
    // later query runs with the dead nodes crashed in its fault plan.
    println!("=== phase 1: permanent failures mid-study ===");
    println!("query  answer     total       recovery   reassignments");
    let mut dead = FaultPlan::none();
    for (i, &q) in CHOKEPOINT_QUERIES.iter().enumerate() {
        // The drill: one node dies a third of the way in, another two
        // thirds of the way in.
        if i == CHOKEPOINT_QUERIES.len() / 3 {
            dead = dead.with(nodes as usize - 1, FaultKind::Crash);
            println!("  ** node {} died **", nodes - 1);
        }
        if i == 2 * CHOKEPOINT_QUERIES.len() / 3 {
            dead = dead.with(nodes as usize - 2, FaultKind::Crash);
            println!("  ** node {} died **", nodes - 2);
        }
        let run = cluster
            .run_with(&format!("Q{q}"), &query(q), Strategy::PartialAggPushdown, &dead)
            .unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
        let moves: Vec<String> = run
            .recovery
            .reassignments
            .iter()
            .map(|r| format!("p{}→n{}", r.partition, r.to))
            .collect();
        println!(
            "Q{q:<5} {:>4} rows {:>9.4}s {:>9.4}s   {}",
            run.result.num_rows(),
            run.total_seconds(),
            run.recovery.recovery_seconds,
            if moves.is_empty() { "-".to_string() } else { moves.join(" ") },
        );
    }

    // Phase 2 — transient faults and stragglers on a healthy cluster.
    println!("\n=== phase 2: transient OOMs and stragglers (Q6) ===");
    let drills = [
        (
            "2 transient OOMs on node 1",
            FaultPlan::none().with(1, FaultKind::TransientOom { failures: 2 }),
        ),
        (
            "node 2 running 20x slow",
            FaultPlan::none().with(2, FaultKind::SlowNode { multiplier: 20.0 }),
        ),
        (
            "node 0 NIC at 1/8 speed",
            FaultPlan::none().with(0, FaultKind::DegradedNic { multiplier: 8.0 }),
        ),
        ("seeded chaos (seed 7)", FaultPlan::random(7, nodes)),
    ];
    let healthy = cluster.run(&query(6), Strategy::PartialAggPushdown).expect("runs");
    println!("{:<28} {:>9.4}s  (fault-free baseline)", "healthy", healthy.total_seconds());
    for (label, plan) in &drills {
        let run = cluster
            .run_with("Q6", &query(6), Strategy::PartialAggPushdown, plan)
            .expect("recovers");
        println!(
            "{label:<28} {:>9.4}s  retries={} speculated={} moved={}",
            run.total_seconds(),
            run.recovery.retries,
            run.recovery.speculated,
            run.recovery.reassignments.len(),
        );
    }

    // Phase 3 — degraded mode: with each survivor capped at absorbing one
    // extra partition, losing most of the cluster exhausts recovery and the
    // degraded policy answers with whatever coverage remains.
    println!("\n=== phase 3: degraded mode ===");
    let mut policy = RecoveryPolicy::degraded();
    policy.reassign_cap = 1;
    cluster.set_recovery_policy(policy);
    let most =
        (1..nodes as usize).fold(FaultPlan::none(), |plan, n| plan.with(n, FaultKind::Crash));
    let run =
        cluster.run_with("Q6", &query(6), Strategy::PartialAggPushdown, &most).expect("degrades");
    println!("{} of {nodes} nodes dead, the survivor capped at 1 reassignment:", nodes - 1);
    println!(
        "  answer covers {:.1}% of lineitem (degraded={}, {} partition recovered, \
         {} dropped)",
        run.recovery.coverage * 100.0,
        run.recovery.degraded,
        run.recovery.reassignments.len(),
        nodes as usize - 1 - run.recovery.reassignments.len(),
    );
}
