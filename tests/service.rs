//! Concurrent query service suite: admission arbitration against real TPC-H
//! queries, cancellation-vs-retry interaction, and the determinism contract
//! (DESIGN.md §11) — any answer the service completes is bit-exact with the
//! serial unconstrained run, at any worker count.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use wimpi::engine::{
    governor::UNLIMITED, EngineConfig, EngineError, QueryContext, QuerySpec, Service,
    ServiceConfig, ServiceError,
};
use wimpi::queries::{query, run_governed, CHOKEPOINT_QUERIES};
use wimpi::storage::Catalog;
use wimpi::tpch::Generator;

const SF: f64 = 0.01;

fn catalog() -> Arc<Catalog> {
    Arc::new(Generator::new(SF).generate_catalog().expect("generation succeeds"))
}

/// Pins every worker of `svc` on a gated job holding `estimate` bytes each;
/// returns the gates (drop them to release) once all workers are busy.
fn pin_workers(svc: &Service, workers: usize, estimate: u64) -> Vec<mpsc::Sender<()>> {
    let mut gates = Vec::new();
    let running = Arc::new(AtomicU32::new(0));
    for i in 0..workers {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let running = Arc::clone(&running);
        let t = svc
            .submit(QuerySpec::new(format!("pin{i}")).with_estimate(estimate), move |_| {
                running.fetch_add(1, Ordering::SeqCst);
                let _ = rx.lock().unwrap().recv();
                Ok(0u64)
            })
            .expect("pin job admits");
        // Tickets for the pins are not waited on; dropping them is fine.
        drop(t);
        gates.push(tx);
    }
    while running.load(Ordering::SeqCst) < workers as u32 {
        std::thread::yield_now();
    }
    gates
}

/// The cancellation-vs-retry satellite: a query cancelled while waiting in
/// the admission queue must leave the queue *immediately* (no free worker
/// required) and never consume a byte of the node budget — at 1, 2, and 4
/// workers.
#[test]
fn queued_cancellation_is_immediate_and_budget_free() {
    for workers in [1usize, 2, 4] {
        let node_budget = 1_000_000u64;
        let pin_bytes = 1_000u64;
        let svc = Service::new(ServiceConfig { node_budget, workers, queue_depth: 16 });
        let gates = pin_workers(&svc, workers, pin_bytes);

        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        let doomed = svc
            .submit(QuerySpec::new("doomed").with_estimate(500_000), move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                Ok(0u64)
            })
            .expect("queues behind the pins");
        assert_eq!(svc.queue_depth(), 1, "{workers} workers: the query waits");

        doomed.cancel();
        assert_eq!(
            svc.queue_depth(),
            0,
            "{workers} workers: cancellation must leave the queue immediately, \
             even with every worker busy"
        );
        match doomed.wait() {
            Err(ServiceError::Engine(EngineError::Cancelled)) => {}
            other => panic!("{workers} workers: expected Cancelled, got {other:?}"),
        }

        drop(gates);
        svc.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "{workers} workers: cancelled query ran");
        assert_eq!(svc.node_used(), 0, "{workers} workers: accounting must drain");
        assert!(
            svc.node_high_water() <= workers as u64 * pin_bytes,
            "{workers} workers: the cancelled query's 500 KB grant was never carved \
             (high water {} > pins only)",
            svc.node_high_water()
        );
        assert_eq!(svc.metrics().counter("service_cancelled_total"), 1);
    }
}

/// Cancellation beats retry: when a query's token fires during an attempt
/// that ends `ResourceExhausted`, the coordinator must NOT spend the
/// full-budget retry on a dead query — the attempt count stays at one and
/// the submission still gets exactly one terminal outcome.
#[test]
fn cancellation_suppresses_the_budget_retry() {
    for workers in [1usize, 2, 4] {
        let svc = Service::new(ServiceConfig {
            node_budget: 1_000_000,
            workers,
            ..ServiceConfig::default()
        });
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let spec = QuerySpec::new("self-cancelling").with_estimate(1_000);
        let err = svc
            .run_blocking(spec, move |ctx| {
                a.fetch_add(1, Ordering::SeqCst);
                ctx.cancel.cancel(); // fires mid-attempt, before the exhaustion
                ctx.reserve(500_000, "big build").map(|_| 0u64)
            })
            .expect_err("cannot succeed under a 1 KB grant");
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            1,
            "{workers} workers: a cancelled query must not get the budget retry"
        );
        match err {
            ServiceError::Engine(
                EngineError::ResourceExhausted { .. } | EngineError::Cancelled,
            ) => {}
            other => panic!("{workers} workers: untyped terminal outcome {other:?}"),
        }
        svc.shutdown();
        assert_eq!(svc.node_used(), 0);
        assert_eq!(svc.metrics().counter("service_retries_total"), 0);
    }
}

/// The determinism contract on real queries: choke-point answers completed
/// through the service — concurrent submissions, tight node budget, Grace
/// degradation and budget retries engaged — are bit-exact with the serial
/// unconstrained baseline at every worker count.
#[test]
fn service_answers_are_bit_exact_with_serial_unconstrained_runs() {
    let cat = catalog();
    let subset = [1usize, 6, 13]; // cheap-but-diverse slice of the 8
    let mut baselines = Vec::new();
    for &qn in &subset {
        let (rel, _) =
            run_governed(&query(qn), &cat, &EngineConfig::serial(), &QueryContext::new())
                .expect("baseline");
        baselines.push(rel);
    }

    for workers in [1usize, 2, 4] {
        // Tight node budget: declared estimates are deliberately small so
        // some attempts exhaust and take the full-budget retry path.
        let svc = Service::new(ServiceConfig { node_budget: 4 << 20, workers, queue_depth: 64 });
        let mut tickets = Vec::new();
        for round in 0..2 {
            for &qn in &subset {
                let cat = Arc::clone(&cat);
                let label = format!("q{qn}r{round}");
                tickets.push((
                    qn,
                    svc.submit(QuerySpec::new(label).with_estimate(32 << 10), move |ctx| {
                        run_governed(&query(qn), &cat, &EngineConfig::serial(), ctx)
                            .map(|(rel, _)| rel)
                    })
                    .expect("queue is deep enough"),
                ));
            }
        }
        for (qn, t) in tickets {
            let rel = t.wait().unwrap_or_else(|e| panic!("Q{qn} at {workers} workers: {e}"));
            let idx = subset.iter().position(|&n| n == qn).expect("submitted");
            assert_eq!(
                rel, baselines[idx],
                "Q{qn}: answer diverged from serial baseline at {workers} workers"
            );
        }
        svc.shutdown();
        assert!(svc.node_high_water() <= 4 << 20, "oversubscribed at {workers} workers");
        assert_eq!(svc.node_used(), 0);
        assert_eq!(svc.metrics().counter("service_completed_total"), 2 * subset.len() as u64);
    }
}

/// Overload: eight closed-loop clients pile onto two workers and a depth-4
/// queue. The node budget is the measured single-query peak and declared
/// estimates are a 2048th of it — past the edge where Grace's ~1024-way
/// fan-out still fits — so Q13 exhausts under its grant and takes the retry
/// at the full node budget, which has to wait for every other grant to
/// drain. A live sampler races the admissions: the node reservation never
/// exceeds the budget at any instant. Every submission ends in exactly one
/// terminal outcome, every answer is bit-exact with the serial unconstrained
/// run, and the clients' tally — sheds included — equals the service's own
/// ledger.
#[test]
fn contended_closed_loop_never_oversubscribes_and_tallies_match_the_ledger() {
    const CLIENTS: usize = 8;
    const QUEUE_DEPTH: usize = 4;
    let cat = catalog();
    let qns = [1usize, 6, 13];
    let mut baselines = Vec::new();
    let mut max_peak = 0u64;
    for &qn in &qns {
        let ctx = QueryContext::new();
        let (rel, _) =
            run_governed(&query(qn), &cat, &EngineConfig::serial(), &ctx).expect("baseline");
        max_peak = max_peak.max(ctx.high_water());
        baselines.push(rel);
    }
    let node_budget = max_peak.max(1);
    let estimate = (max_peak / 2048).max(256);
    let svc = Service::new(ServiceConfig { node_budget, workers: 2, queue_depth: QUEUE_DEPTH });

    // [completed, shed, exhausted, cancelled], summed over the clients.
    let mut tally = [0u64; 4];
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (svc, stop, cat, baselines) = (&svc, &stop, &cat, &baselines);
        let sampler = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let used = svc.node_used();
                assert!(used <= node_budget, "oversubscribed mid-flight: {used} > {node_budget}");
                std::thread::yield_now();
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut tally = [0u64; 4];
                    for (qi, &qn) in qns.iter().enumerate() {
                        let cat = Arc::clone(cat);
                        let spec = QuerySpec::new(format!("c{c}q{qn}")).with_estimate(estimate);
                        let outcome = svc.run_blocking(spec, move |ctx| {
                            run_governed(&query(qn), &cat, &EngineConfig::serial(), ctx)
                                .map(|(rel, _)| rel)
                        });
                        match outcome {
                            Ok(rel) => {
                                assert_eq!(rel, baselines[qi], "Q{qn} (client {c}) diverged");
                                tally[0] += 1;
                            }
                            Err(ServiceError::Overloaded { queue_depth, retry_after_hint_s }) => {
                                assert!(queue_depth >= QUEUE_DEPTH, "shed below the depth");
                                assert!(retry_after_hint_s > 0.0, "hint must be actionable");
                                tally[1] += 1;
                            }
                            Err(ServiceError::Engine(EngineError::ResourceExhausted {
                                ..
                            })) => tally[2] += 1,
                            Err(ServiceError::Engine(EngineError::Cancelled)) => tally[3] += 1,
                            Err(e) => panic!("Q{qn} (client {c}): untyped outcome {e}"),
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in clients {
            let t = h.join().expect("client threads must not panic");
            for (sum, n) in tally.iter_mut().zip(t) {
                *sum += n;
            }
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler must not panic");
    });
    svc.shutdown();

    assert!(svc.node_high_water() <= node_budget, "high water exceeds the node budget");
    assert_eq!(svc.node_used(), 0, "grants must drain at quiescence");
    let [completed, shed, exhausted, cancelled] = tally;
    let offered = (CLIENTS * qns.len()) as u64;
    assert_eq!(completed + shed + exhausted + cancelled, offered, "an outcome went missing");
    assert!(completed > 0, "a closed loop over two workers must complete something");
    let m = svc.metrics();
    assert_eq!(m.counter("service_shed_total"), shed);
    assert_eq!(m.counter("service_completed_total"), completed);
    assert_eq!(m.counter("service_exhausted_total"), exhausted);
    assert_eq!(m.counter("service_cancelled_total"), cancelled);
    assert_eq!(m.counter("service_submitted_total"), offered - shed, "accepted = offered - shed");
    assert_eq!(m.counter("service_failed_total") + m.counter("service_panicked_total"), 0);
}

/// The shutdown-vs-submit race satellite: threads hammer `submit` through a
/// shared `Arc<Service>` while another thread calls `shutdown` concurrently.
/// Every submission must reach exactly one terminal state — a ticket that
/// resolves (completed or `Cancelled` by the drain) or a typed
/// `ShuttingDown`/`Overloaded` refusal with no ticket — and `wait()` must
/// never hang. The ledger identity and the drained node accounting are
/// asserted afterwards, at 1, 2, and 4 workers.
#[test]
fn shutdown_racing_submit_resolves_every_ticket_exactly_once() {
    for workers in [1usize, 2, 4] {
        let svc = Arc::new(Service::new(ServiceConfig {
            node_budget: UNLIMITED,
            workers,
            queue_depth: 256,
        }));
        let submitters = 4usize;
        let per_thread = 50usize;
        let completed = Arc::new(AtomicU32::new(0));
        let cancelled = Arc::new(AtomicU32::new(0));
        let refused = Arc::new(AtomicU32::new(0));

        let mut joins = Vec::new();
        for t in 0..submitters {
            let svc = Arc::clone(&svc);
            let completed = Arc::clone(&completed);
            let cancelled = Arc::clone(&cancelled);
            let refused = Arc::clone(&refused);
            joins.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let spec = QuerySpec::new(format!("race-t{t}-{i}"));
                    match svc.submit(spec, move |_| Ok(1u64)) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(_) => {
                                completed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(ServiceError::Engine(EngineError::Cancelled)) => {
                                cancelled.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(other) => panic!(
                                "{workers} workers: race submission got untyped \
                                 terminal outcome {other:?}"
                            ),
                        },
                        Err(ServiceError::ShuttingDown | ServiceError::Overloaded { .. }) => {
                            refused.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => {
                            panic!("{workers} workers: untyped refusal {other:?}")
                        }
                    }
                }
            }));
        }
        // Let some traffic land, then slam the door mid-stream. A second
        // concurrent shutdown exercises idempotence through `&self`.
        while svc.metrics().counter("service_submitted_total") < submitters as u64 {
            std::thread::yield_now();
        }
        let svc2 = Arc::clone(&svc);
        let shut2 = std::thread::spawn(move || svc2.shutdown());
        svc.shutdown();
        shut2.join().expect("concurrent shutdown must not panic");
        for j in joins {
            j.join().expect("submitter must not hang or panic");
        }

        let total = (submitters * per_thread) as u32;
        assert_eq!(
            completed.load(Ordering::SeqCst)
                + cancelled.load(Ordering::SeqCst)
                + refused.load(Ordering::SeqCst),
            total,
            "{workers} workers: every submission resolves exactly once"
        );
        let m = svc.metrics();
        let terminals = m.counter("service_completed_total")
            + m.counter("service_cancelled_total")
            + m.counter("service_exhausted_total")
            + m.counter("service_failed_total")
            + m.counter("service_panicked_total");
        assert_eq!(
            m.counter("service_submitted_total"),
            terminals,
            "{workers} workers: ledger identity must reconcile after the race"
        );
        assert_eq!(m.counter("service_completed_total"), completed.load(Ordering::SeqCst) as u64);
        assert_eq!(m.counter("service_cancelled_total"), cancelled.load(Ordering::SeqCst) as u64);
        assert_eq!(svc.node_used(), 0, "{workers} workers: accounting must drain");
    }
}

/// Every choke-point query completes through the service under an
/// unconstrained node budget, and the submission/terminal accounting
/// identity holds exactly.
#[test]
fn chokepoint_queries_all_complete_and_accounting_balances() {
    let cat = catalog();
    let svc = Service::new(ServiceConfig {
        node_budget: UNLIMITED,
        workers: 4,
        ..ServiceConfig::default()
    });
    let mut tickets = Vec::new();
    for &qn in CHOKEPOINT_QUERIES.iter() {
        let cat = Arc::clone(&cat);
        tickets.push(
            svc.submit(QuerySpec::new(format!("q{qn}")), move |ctx| {
                run_governed(&query(qn), &cat, &EngineConfig::serial(), ctx)
                    .map(|(rel, _)| rel.num_rows() as u64)
            })
            .expect("admits"),
        );
    }
    for t in tickets {
        t.wait().expect("completes");
    }
    svc.shutdown();
    let m = svc.metrics();
    let n = CHOKEPOINT_QUERIES.len() as u64;
    assert_eq!(m.counter("service_submitted_total"), n);
    assert_eq!(m.counter("service_completed_total"), n);
    let terminals = m.counter("service_completed_total")
        + m.counter("service_cancelled_total")
        + m.counter("service_exhausted_total")
        + m.counter("service_failed_total")
        + m.counter("service_panicked_total");
    assert_eq!(terminals, n, "every submission resolves exactly once");
}
