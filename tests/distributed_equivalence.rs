//! The cluster's core correctness invariant (DESIGN.md §7): for every
//! choke-point query and any cluster size or shipping strategy, the
//! distributed result equals the single-node result.

use proptest::prelude::*;
use wimpi::cluster::distribute::Strategy;
use wimpi::cluster::faults::{FaultKind, FaultPlan};
use wimpi::cluster::{ClusterConfig, WimpiCluster};
use wimpi::queries::{query, run, CHOKEPOINT_QUERIES};
use wimpi::storage::Catalog;
use wimpi::tpch::Generator;

const SF: f64 = 0.008;

fn reference_catalog() -> Catalog {
    Generator::new(SF).generate_catalog().expect("generation succeeds")
}

/// Compares two relations cell by cell with a small float tolerance (avg is
/// exact-decimal single-node but sum/count-composed when distributed).
fn assert_equivalent(q: usize, a: &wimpi::engine::Relation, b: &wimpi::engine::Relation) {
    assert_eq!(a.num_rows(), b.num_rows(), "Q{q} row count");
    assert_eq!(a.num_columns(), b.num_columns(), "Q{q} column count");
    let names: Vec<&str> = a.names().collect();
    for row in 0..a.num_rows() {
        for name in &names {
            let va = a.value(row, name).expect("cell");
            let vb = b.value(row, name).expect("cell");
            match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => {
                    let tol = 1e-9 * x.abs().max(1.0);
                    assert!((x - y).abs() <= tol, "Q{q} row {row} col {name}: {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "Q{q} row {row} col {name} mismatch"),
            }
        }
    }
}

#[test]
fn every_chokepoint_query_distributes_correctly() {
    let reference = reference_catalog();
    let cluster = WimpiCluster::build(ClusterConfig::new(5, SF)).expect("cluster builds");
    for &q in &CHOKEPOINT_QUERIES {
        let (expected, _) = run(&query(q), &reference).expect("single-node runs");
        let dist = cluster
            .run(&query(q), Strategy::PartialAggPushdown)
            .unwrap_or_else(|e| panic!("Q{q} distributed failed: {e}"));
        assert_equivalent(q, &dist.result, &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any cluster size and either shipping strategy produce the
    /// single-node answer.
    #[test]
    fn distribution_is_size_and_strategy_invariant(
        nodes in 1u32..9,
        strategy_ship in any::<bool>(),
        qi in 0usize..CHOKEPOINT_QUERIES.len(),
    ) {
        let q = CHOKEPOINT_QUERIES[qi];
        let strategy = if strategy_ship { Strategy::ShipRows } else { Strategy::PartialAggPushdown };
        let reference = reference_catalog();
        let (expected, _) = run(&query(q), &reference).expect("single-node runs");
        let cluster = WimpiCluster::build(ClusterConfig::new(nodes, SF)).expect("builds");
        let dist = cluster.run(&query(q), strategy).expect("distributed runs");
        assert_equivalent(q, &dist.result, &expected);
    }
}

#[test]
fn scalar_results_survive_distribution_exactly() {
    // Q6's single decimal output must be bit-exact, not just within
    // tolerance: sums of mantissas are associative.
    let reference = reference_catalog();
    let (expected, _) = run(&query(6), &reference).expect("runs");
    let (m_ref, s_ref) = expected.column("revenue").expect("col").as_decimal().expect("dec");
    for nodes in [2u32, 3, 7] {
        let cluster = WimpiCluster::build(ClusterConfig::new(nodes, SF)).expect("builds");
        let dist = cluster.run(&query(6), Strategy::PartialAggPushdown).expect("runs");
        let col = dist.result.column("revenue").expect("col");
        let (m, s) = col.as_decimal().expect("dec");
        assert_eq!((m, s), (m_ref, s_ref), "{nodes} nodes");
    }
}

#[test]
fn single_node_failure_recovers_at_every_paper_scale() {
    // The tentpole acceptance invariant: at N ∈ {4, 8, 24}, any single
    // permanent node failure leaves every choke-point query answering
    // exactly what the fault-free cluster answers, with the recovery work
    // priced in simulated time.
    for nodes in [4u32, 8, 24] {
        let cluster = WimpiCluster::build(ClusterConfig::new(nodes, SF)).expect("builds");
        // Crashing node 0 exercises both recovery paths: lineitem queries
        // reassign its partition, and single-node Q13 re-routes off the
        // default executor. The chaos property below sweeps other victims.
        let victim = 0;
        let plan = FaultPlan::crash(victim);
        for &q in &CHOKEPOINT_QUERIES {
            let healthy = cluster
                .run(&query(q), Strategy::PartialAggPushdown)
                .unwrap_or_else(|e| panic!("Q{q}@{nodes} healthy failed: {e}"));
            let faulted = cluster
                .run_with(&format!("Q{q}"), &query(q), Strategy::PartialAggPushdown, &plan)
                .unwrap_or_else(|e| panic!("Q{q}@{nodes} faulted failed: {e}"));
            assert_equivalent(q, &faulted.result, &healthy.result);
            assert!(
                faulted.recovery.recovery_seconds > 0.0,
                "Q{q}@{nodes}: recovery must cost simulated time"
            );
            assert!(!faulted.recovery.degraded, "Q{q}@{nodes}: full answer expected");
            if q != 13 {
                // Q13 never touches lineitem; everything else reassigns
                // the victim's partition and pays for it end-to-end.
                assert_eq!(
                    faulted.recovery.reassignments.len(),
                    1,
                    "Q{q}@{nodes}: exactly one partition moves"
                );
                assert_eq!(faulted.recovery.reassignments[0].partition, victim);
                assert!(
                    faulted.total_seconds() > healthy.total_seconds(),
                    "Q{q}@{nodes}: recovery is not free"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos property: any seeded fault plan (crashes, transient OOMs,
    /// stragglers, degraded NICs on up to three distinct nodes) recovers to
    /// the fault-free answer for every choke-point query.
    #[test]
    fn recovered_results_equal_fault_free_under_random_faults(
        seed in 0u64..1000,
        nodes in 2u32..7,
        qi in 0usize..CHOKEPOINT_QUERIES.len(),
    ) {
        let q = CHOKEPOINT_QUERIES[qi];
        let plan = FaultPlan::random(seed, nodes);
        let cluster = WimpiCluster::build(ClusterConfig::new(nodes, SF)).expect("builds");
        let healthy = cluster
            .run(&query(q), Strategy::PartialAggPushdown)
            .expect("fault-free runs");
        let faulted = cluster
            .run_with(&format!("Q{q}"), &query(q), Strategy::PartialAggPushdown, &plan)
            .unwrap_or_else(|e| panic!("Q{q} under {plan:?} failed: {e}"));
        assert_equivalent(q, &faulted.result, &healthy.result);
        prop_assert!(!faulted.recovery.degraded);
        prop_assert!((faulted.recovery.coverage - 1.0).abs() < 1e-12);
        prop_assert!(
            faulted.total_seconds() >= healthy.total_seconds() - 1e-9,
            "faults cannot make the cluster faster: {} vs {}",
            faulted.total_seconds(),
            healthy.total_seconds()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Silent-corruption chaos: a seeded bit-flip on any node is always
    /// detected, deterministically repaired, and the repaired answer equals
    /// the fault-free answer bit-exactly (same Relation, not just within
    /// tolerance — repair re-executes on clean data).
    #[test]
    fn seeded_bit_flips_repair_to_the_exact_fault_free_answer(
        seed in 0u64..500,
        nodes in 2u32..6,
        qi in 0usize..CHOKEPOINT_QUERIES.len(),
    ) {
        let q = CHOKEPOINT_QUERIES[qi];
        let mut rng = seed;
        let mut draw = |m: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        // Q13 never touches lineitem and runs on the default executor
        // (node 0); a flip planted elsewhere would never fire.
        let victim = if q == 13 { 0 } else { draw(nodes as u64) as usize };
        let chunks = draw(3) as u32 + 1;
        let bits = draw(4) as u32 + 1;
        let plan = FaultPlan::none()
            .with(victim, FaultKind::BitFlip { chunks, bits_per_chunk: bits });
        let cluster = WimpiCluster::build(ClusterConfig::new(nodes, SF)).expect("builds");
        let healthy = cluster
            .run(&query(q), Strategy::PartialAggPushdown)
            .expect("fault-free runs");
        let faulted = cluster
            .run_with(&format!("Q{q}"), &query(q), Strategy::PartialAggPushdown, &plan)
            .unwrap_or_else(|e| panic!("Q{q} under {plan:?} failed: {e}"));
        // Bit-exact, not tolerance-based: the repair path re-executes on
        // pristine columns, so even floats must match exactly.
        prop_assert_eq!(&faulted.result, &healthy.result);
        prop_assert!(faulted.recovery.integrity_detected >= 1, "corruption must be detected");
        prop_assert_eq!(
            faulted.recovery.integrity_repaired,
            faulted.recovery.integrity_detected,
            "every detected violation is repaired"
        );
        prop_assert!(!faulted.recovery.degraded);
        prop_assert!((faulted.recovery.coverage - 1.0).abs() < 1e-12);
        prop_assert!(
            faulted.total_seconds() > healthy.total_seconds(),
            "verification + repair cannot be free"
        );
    }
}

#[test]
fn verified_scans_stay_bit_identical_across_thread_counts() {
    // Scan-time verification must not perturb morsel-level determinism: with
    // checksums on, results and work profiles are bit-identical at 1, 2, and
    // 4 threads, and a corrupt chunk is detected at every thread count.
    use wimpi::engine::{EngineConfig, QueryContext};
    use wimpi::queries::run_governed;
    use wimpi::storage::integrity::flip_bits;
    let unsealed = reference_catalog();
    let mut catalog = unsealed.clone();
    catalog.seal_integrity();
    // Zero cost when off: with verification disabled (the default), a sealed
    // catalog yields the same results and work profiles as an unsealed one.
    for &q in &CHOKEPOINT_QUERIES {
        let off = EngineConfig::serial();
        let sealed = run_governed(&query(q), &catalog, &off, &QueryContext::default())
            .expect("sealed, verification off");
        let plain =
            run_governed(&query(q), &unsealed, &off, &QueryContext::default()).expect("unsealed");
        assert_eq!(sealed.0, plain.0, "Q{q}: sealing alone changed the answer");
        assert_eq!(sealed.1, plain.1, "Q{q}: sealing alone changed the work profile");
    }
    let baseline: Vec<_> = CHOKEPOINT_QUERIES
        .iter()
        .map(|&q| {
            let cfg = EngineConfig::serial().with_verify_checksums(true);
            run_governed(&query(q), &catalog, &cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{q} serial verified failed: {e}"))
        })
        .collect();
    for threads in [2usize, 4] {
        for (i, &q) in CHOKEPOINT_QUERIES.iter().enumerate() {
            let cfg = EngineConfig::with_threads(threads).with_verify_checksums(true);
            let (rel, work) = run_governed(&query(q), &catalog, &cfg, &QueryContext::default())
                .unwrap_or_else(|e| panic!("Q{q}@{threads}t verified failed: {e}"));
            assert_eq!(rel, baseline[i].0, "Q{q}@{threads} threads: result drifted");
            assert_eq!(work, baseline[i].1, "Q{q}@{threads} threads: work profile drifted");
        }
    }
    // One flipped bit in lineitem's quantity column fails Q6 at every
    // thread count with the same typed violation.
    let clean = catalog.table("lineitem").expect("registered");
    let qty = clean.schema().index_of("l_quantity").expect("column exists");
    let rows = clean.num_rows();
    let dirty_col = flip_bits(clean.column(qty).as_ref(), 0..rows.min(2048), 1, 0xC0FFEE);
    let dirty = (**clean).clone().with_replaced_column(qty, dirty_col).expect("replace");
    let mut corrupted = catalog.clone();
    corrupted.register("lineitem", dirty);
    for threads in [1usize, 2, 4] {
        let cfg = EngineConfig::with_threads(threads).with_verify_checksums(true);
        let err = run_governed(&query(6), &corrupted, &cfg, &QueryContext::default())
            .expect_err("corruption must be detected");
        match err {
            wimpi::engine::EngineError::Integrity { table, column, .. } => {
                assert_eq!((table.as_str(), column.as_str()), ("lineitem", "l_quantity"));
            }
            other => panic!("expected integrity violation at {threads} threads, got {other}"),
        }
    }
}

/// Chaos serving (DESIGN.md §15): closed-loop clients play a hot/cold mix
/// through a fresh [`Coordinator`] per rung — Q1/Q6 repeat hot, the other
/// choke-points and two-phase Q15 arrive cold — and every third request
/// carries a seeded `FaultPlan::random` schedule (crash, transient OOM,
/// straggler, degraded NIC and bit flips all sampled). Every non-degraded
/// answer, cache hits included, equals the clean driver run bit for bit; a
/// degraded answer is never served from cache; and the service's admission
/// ledger, the coordinator's sub-run ledger and its cache-hit and degraded
/// counters all reconcile with what the clients saw.
#[test]
fn coordinator_serves_bit_exact_under_seeded_chaos() {
    use std::collections::HashMap;
    use std::sync::Arc;
    use wimpi::cluster::coordinator::{Coordinator, CoordinatorConfig, QueryRequest};
    use wimpi::engine::{EngineError, ServiceConfig, ServiceError};

    const SEED: u64 = 42;
    const CHAOS_SF: f64 = 0.005;
    const NODES: u32 = 4;
    const MIX: [usize; 17] = [1, 6, 6, 3, 1, 6, 4, 6, 1, 13, 6, 5, 1, 6, 14, 19, 15];

    let cluster =
        Arc::new(WimpiCluster::build(ClusterConfig::new(NODES, CHAOS_SF)).expect("builds"));
    // The referee: one clean fault-free driver run per distinct query.
    // `WimpiCluster::run` serves single plans only, so two-phase Q15 is
    // refereed by a single-node run over the full unpartitioned catalog.
    let full = Generator::new(CHAOS_SF).generate_catalog().expect("full catalog");
    let mut baselines = HashMap::new();
    for &qn in &MIX {
        baselines.entry(qn).or_insert_with(|| {
            if qn == 15 {
                run(&query(qn), &full).expect("Q15 clean baseline").0
            } else {
                let clean = cluster.run(&query(qn), Strategy::PartialAggPushdown);
                clean.unwrap_or_else(|e| panic!("Q{qn} clean baseline: {e}")).result
            }
        });
    }

    let mut hits_on_the_ladder = 0;
    for clients in [1usize, 2] {
        let coord = Coordinator::new(
            Arc::clone(&cluster),
            CoordinatorConfig {
                service: ServiceConfig { workers: 2, ..ServiceConfig::default() },
                ..CoordinatorConfig::default()
            },
        );
        // [completed, cache hits, degraded, refused], summed over clients.
        let mut tally = [0u64; 4];
        std::thread::scope(|s| {
            let (coord, baselines) = (&coord, &baselines);
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut tally = [0u64; 4];
                        for (seq, &qn) in MIX.iter().enumerate() {
                            let mut req = QueryRequest::new(format!("c{c}s{seq}q{qn}"), query(qn));
                            if seq.is_multiple_of(3) {
                                // Deterministic per (client, seq): the same
                                // ladder replays the same chaos schedule.
                                let seed = SEED ^ ((c as u64) << 32) ^ seq as u64;
                                req = req.with_faults(FaultPlan::random(seed, NODES));
                            }
                            match coord.run_blocking(req) {
                                Ok(a) => {
                                    tally[0] += 1;
                                    tally[1] += a.from_cache as u64;
                                    if a.degraded {
                                        assert!(!a.from_cache, "Q{qn} c{c}s{seq}: degraded hit");
                                        tally[2] += 1;
                                    } else {
                                        assert_eq!(
                                            a.result, baselines[&qn],
                                            "Q{qn} c{c}s{seq}: non-degraded answer (from_cache \
                                             = {}) must equal the clean run",
                                            a.from_cache
                                        );
                                    }
                                }
                                Err(
                                    ServiceError::Overloaded { .. }
                                    | ServiceError::ShuttingDown
                                    | ServiceError::Engine(EngineError::Cancelled),
                                ) => tally[3] += 1,
                                Err(e) => panic!("Q{qn} c{c}s{seq}: untyped outcome {e}"),
                            }
                        }
                        tally
                    })
                })
                .collect();
            for h in handles {
                let t = h.join().expect("client threads must not panic");
                for (sum, n) in tally.iter_mut().zip(t) {
                    *sum += n;
                }
            }
        });
        coord.shutdown();
        let [completed, hits, degraded, refused] = tally;
        assert_eq!(completed + refused, (clients * MIX.len()) as u64, "an outcome went missing");

        // Cache hits answer before admission: the service saw only misses.
        let m = coord.service_metrics();
        let terminals: u64 = ["completed", "cancelled", "exhausted", "failed", "panicked"]
            .iter()
            .map(|k| m.counter(&format!("service_{k}_total")))
            .sum();
        assert_eq!(m.counter("service_submitted_total"), terminals, "{clients} clients: service");
        let cm = coord.metrics();
        assert_eq!(
            cm.counter("coord_subruns_total"),
            cm.counter("coord_subruns_ok_total")
                + cm.counter("coord_subruns_failed_total")
                + cm.counter("coord_subruns_cancelled_total"),
            "{clients} clients: sub-run ledger identity must reconcile"
        );
        assert_eq!(cm.counter("coord_result_cache_hits_total"), hits);
        assert_eq!(cm.counter("coord_degraded_answers_total"), degraded);
        hits_on_the_ladder += hits;
    }
    assert!(hits_on_the_ladder > 0, "a hot/cold mix with repeats must hit the result cache");
}

/// The coordinator serves any plan the cluster driver runs: a string literal
/// is a value, whatever its text, and the served answer is the driver's.
#[test]
fn coordinator_serves_any_string_literal() {
    use std::sync::Arc;
    use wimpi::cluster::coordinator::{Coordinator, CoordinatorConfig, QueryRequest};
    use wimpi::queries::QueryPlan;

    let cluster = Arc::new(WimpiCluster::build(ClusterConfig::new(3, 0.01)).expect("builds"));
    let sql = "select sum(l_quantity) as q from lineitem where l_shipmode = '$param:0'";
    let plan = QueryPlan::Single(
        wimpi::sql::plan(sql, cluster.node_catalog(0)).expect("the statement plans"),
    );
    let reference = cluster.run(&plan, Strategy::PartialAggPushdown).expect("the driver runs it");
    let coord = Coordinator::new(Arc::clone(&cluster), CoordinatorConfig::default());
    let served = coord.run_blocking(QueryRequest::new("literal", plan)).expect("serves");
    coord.shutdown();
    assert_eq!(served.result, reference.result);
}

#[test]
fn timing_metadata_is_consistent() {
    let cluster = WimpiCluster::build(ClusterConfig::new(3, SF)).expect("builds");
    let dist = cluster.run(&query(1), Strategy::PartialAggPushdown).expect("runs");
    assert_eq!(dist.node_seconds.len(), 3);
    assert_eq!(dist.node_profiles.len(), 3);
    assert!(dist.node_seconds.iter().all(|&t| t > 0.0));
    assert!(dist.total_seconds() >= dist.node_seconds.iter().cloned().fold(0.0, f64::max));
    assert!(dist.bytes_shipped > 0);
    // Q1's partials are four groups per node — tiny.
    assert!(dist.bytes_shipped < 100_000, "partials stay small: {}", dist.bytes_shipped);
}
