//! A tour of the concurrent query service: many governed TPC-H queries
//! against one node-wide memory budget, with admission control, grant
//! arbitration, the one full-budget retry, load shedding, cancellation, and
//! a metrics printout at the end.
//!
//! ```text
//! cargo run --release --example service_demo [sf] [workers] [budget]
//! ```
//!
//! e.g. `cargo run --release --example service_demo 0.05 4 8M`.

use std::sync::Arc;

use wimpi::engine::governor::{parse_budget, UNLIMITED};
use wimpi::engine::{EngineConfig, QuerySpec, Service, ServiceConfig};
use wimpi::queries::{query, run_governed, CHOKEPOINT_QUERIES};
use wimpi::tpch::Generator;

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.02);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let node_budget = match args.next() {
        Some(s) => parse_budget(&s).unwrap_or_else(|e| panic!("bad budget argument: {e}")),
        None => 8 << 20,
    };

    println!("generating TPC-H SF {sf} …");
    let catalog = Arc::new(Generator::new(sf).generate_catalog().expect("generation succeeds"));
    println!(
        "service: {workers} worker(s), node budget {} bytes{}\n",
        node_budget,
        if node_budget == UNLIMITED { " (unlimited)" } else { "" }
    );
    let svc = Service::new(ServiceConfig { node_budget, workers, queue_depth: 32 });

    // Act 1 — a burst of choke-point queries with deliberately tight
    // declared estimates: some fit them, some engage Grace degradation,
    // and anything that still exhausts gets the one full-budget retry.
    println!("=== burst: 2×{} choke-point queries ===", CHOKEPOINT_QUERIES.len());
    let mut tickets = Vec::new();
    for round in 0..2 {
        for &qn in CHOKEPOINT_QUERIES.iter() {
            let cat = Arc::clone(&catalog);
            let spec = QuerySpec::new(format!("q{qn}r{round}")).with_estimate(64 << 10);
            match svc.submit(spec, move |ctx| {
                run_governed(&query(qn), &cat, &EngineConfig::serial(), ctx)
                    .map(|(rel, _)| (rel.num_rows(), ctx.fallbacks()))
            }) {
                Ok(t) => tickets.push((qn, round, t)),
                Err(e) => println!("Q{qn} (round {round}): shed — {e}"),
            }
        }
    }
    for (qn, round, t) in tickets {
        match t.wait() {
            Ok((rows, fallbacks)) => println!(
                "Q{qn:<2} round {round}: {rows:>4} rows{}",
                if fallbacks > 0 {
                    format!("  ({fallbacks} Grace fallback(s))")
                } else {
                    String::new()
                }
            ),
            Err(e) => println!("Q{qn:<2} round {round}: {e}"),
        }
    }

    // Act 2 — cancellation: a query cancelled while queued never consumes
    // budget; a hopeless reservation surfaces a typed exhaustion.
    println!("\n=== cancellation and exhaustion ===");
    let cat = Arc::clone(&catalog);
    let doomed = svc
        .submit(QuerySpec::new("doomed").with_estimate(1 << 20), move |ctx| {
            run_governed(&query(5), &cat, &EngineConfig::serial(), ctx)
                .map(|(rel, _)| rel.num_rows())
        })
        .expect("admits or queues");
    doomed.cancel();
    match doomed.wait() {
        Err(e) => println!("cancelled submission: {e}"),
        Ok(_) => println!("cancelled submission raced admission and finished (still exactly once)"),
    }
    if node_budget != UNLIMITED {
        let ask = node_budget.saturating_mul(2).max(1 << 30);
        let hopeless = svc
            .run_blocking(QuerySpec::new("hopeless").with_estimate(1 << 10), move |ctx| {
                ctx.reserve(ask, "monster build").map(|_| 0u64)
            });
        match hopeless {
            Err(e) => println!("hopeless reservation: {e}"),
            Ok(_) => println!("hopeless reservation unexpectedly fit"),
        }
    }

    // Drain and show the ledger.
    svc.shutdown();
    println!("\n=== service metrics ===");
    print!("{}", svc.metrics().render());
    println!(
        "\nnode high-water {} / budget {} — {}",
        svc.node_high_water(),
        node_budget,
        if svc.node_high_water() <= node_budget {
            "never oversubscribed"
        } else {
            "OVERSUBSCRIBED (bug!)"
        }
    );
}
