//! The concurrent query service: overload-safe multi-query execution against
//! one node-wide memory budget.
//!
//! PR 4's [`governor`](crate::governor) makes a *single* query respect the
//! wimpy node's envelope; this module makes *many concurrent* queries respect
//! it together. Two `run_governed` calls with independent budgets can jointly
//! oversubscribe a 1 GB node and reproduce exactly the thrashing death-spiral
//! the paper's §III-C4 failure analysis warns about — so the service owns a
//! single node-wide [`MemoryReservation`] and never lets the sum of running
//! queries' budgets exceed it.
//!
//! ## Admission control
//!
//! Every submission declares a scratch-memory estimate. Admission *carves
//! that grant out of the node reservation before the query starts*, and the
//! query then runs under a private [`QueryContext`] whose budget is the
//! grant — so real reservations are capped per query, grants sum to at most
//! the node budget, and the shared tracker's high-water mark can never pass
//! it. Waiting queries sit in one bounded FIFO queue: the head is admitted
//! once its grant fits, and nothing behind it is admitted first, so no query
//! waits forever behind later ones. When the queue is full,
//! [`Service::submit`] sheds the query with a typed
//! [`ServiceError::Overloaded`] — never a panic, never an unbounded block.
//!
//! ## Retry, backoff, and determinism
//!
//! An attempt that runs out of *its own grant* — `ResourceExhausted` whose
//! `budget` is the grant it ran under — gets exactly one retry, re-admitted
//! at the *full node budget*: a governed run below physical capacity that
//! lets joins and aggregates degrade to Grace-partitioned builds instead of
//! dying. An exhaustion reported against any other budget is final. A
//! coordinator reports a cluster node's OOM that way, after the cluster's
//! own recovery already ran, and replaying it would run the whole
//! distributed query twice. A query whose cancel token fired is not retried.
//! The retry's backoff delay is [`backoff_s`] — capped exponential **in
//! simulated seconds** (pure arithmetic, recorded in the metrics histogram,
//! never slept), the same function the cluster's recovery engine prices its
//! retries with — so tests are deterministic and fast.
//!
//! Because a query's budget is decided by the service (declared estimate
//! first, full node budget on the one retry) and never depends on what else
//! is running, every governed run takes a deterministic path: any answer the
//! service completes is bit-exact with the serial unconstrained run, at any
//! worker count and under any interleaving. Concurrency moves *latency and
//! shedding*, never *answers*.
//!
//! ## Terminal outcomes
//!
//! Every submission resolves to exactly one of: an answer, `Overloaded`
//! (shed at submit), `ResourceExhausted` (not its own grant, or even the
//! full-budget retry could not fit), `Cancelled` ([`Ticket::cancel`],
//! deadline, or shutdown drain), or the engine's other typed errors. An
//! `Integrity` error is one of those: it is counted in
//! `integrity_failures_total` and returned, never repaired here — repair is
//! the cluster's (DESIGN.md §12). A panic inside a query is caught, its
//! grant restored, and surfaced as the [`ServiceError::Panicked`] escape
//! hatch rather than poisoning a worker. The accounting identity
//! `submitted = completed + cancelled + exhausted + failed + panicked` holds
//! at quiescence; sheds are counted separately because shed submissions are
//! refused, not accepted.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wimpi_obs::Registry;

use crate::error::EngineError;
use crate::governor::{CancelToken, MemoryReservation, QueryContext, UNLIMITED};

/// First retry's backoff, in simulated seconds.
const BACKOFF_BASE_S: f64 = 0.05;
/// Ceiling on any backoff, in simulated seconds.
const BACKOFF_CAP_S: f64 = 1.0;

/// Histogram bounds for simulated backoff delays (0.05 s doubling to 1 s).
const BACKOFF_BUCKETS: [f64; 5] = [0.05, 0.1, 0.25, 0.5, 1.0];

/// The repo's one retry backoff — before retry number `attempt` (0-based),
/// in **simulated** seconds: 0.05 s × 2^attempt, capped at 1 s. Pure
/// arithmetic, never slept. The service's budget retry and the cluster's
/// transient-fault, repair and reroute retries all price their waits with
/// it.
pub fn backoff_s(attempt: u32) -> f64 {
    (BACKOFF_BASE_S * 2f64.powi(attempt.min(30) as i32)).min(BACKOFF_CAP_S)
}

/// Histogram bounds for admission-wait and submit-to-terminal latency
/// (wall seconds).
const LATENCY_BUCKETS: [f64; 6] = [0.001, 0.01, 0.05, 0.25, 1.0, 10.0];

/// Scratch estimate of a [`QuerySpec`] that declares none.
const DEFAULT_ESTIMATE: u64 = 16 << 20;

/// Tuning for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Node-wide scratch budget in bytes shared by every running query
    /// ([`UNLIMITED`] admits any single grant but still arbitrates grants
    /// that cannot coexist arithmetically).
    pub node_budget: u64,
    /// Worker threads — the maximum number of in-flight queries.
    pub workers: usize,
    /// Maximum *waiting* submissions before [`Service::submit`] sheds with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { node_budget: UNLIMITED, workers: 4, queue_depth: 64 }
    }
}

impl ServiceConfig {
    /// A config with the two knobs that matter most; everything else at the
    /// defaults.
    pub fn new(node_budget: u64, workers: usize) -> Self {
        ServiceConfig { node_budget, workers, ..Self::default() }
    }
}

/// Per-submission declaration: label, scratch estimate, optional deadline
/// (measured from *admission*, not submit — queue wait does not burn a
/// query's time budget). Cancel through the returned [`Ticket`].
#[derive(Debug, Clone, Default)]
pub struct QuerySpec {
    /// Human-readable name for logs and error messages.
    pub label: String,
    /// Declared/estimated scratch bytes (`None` → 16 MiB). The grant is
    /// clamped to the node budget.
    pub estimate: Option<u64>,
    /// Deadline applied once the query is admitted.
    pub timeout: Option<Duration>,
}

impl QuerySpec {
    /// A spec with the given label and everything else defaulted.
    pub fn new(label: impl Into<String>) -> Self {
        QuerySpec { label: label.into(), ..Self::default() }
    }

    /// Declares the scratch estimate in bytes.
    pub fn with_estimate(mut self, bytes: u64) -> Self {
        self.estimate = Some(bytes);
        self
    }

    /// Gives the query a deadline `timeout` after admission.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Errors a submission can terminate with (beyond the engine's own).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission queue was full; shed at submit time. `retry_after_hint_s`
    /// is a deterministic simulated-seconds hint derived from the backoff
    /// policy and the momentary queue depth.
    Overloaded {
        /// Waiting submissions at the moment of shedding.
        queue_depth: usize,
        /// Suggested client backoff, in simulated seconds.
        retry_after_hint_s: f64,
    },
    /// The service is draining; no new admissions.
    ShuttingDown,
    /// The query panicked; its grant was restored and the worker survived.
    Panicked(String),
    /// The engine's typed error (`ResourceExhausted`, `Cancelled`, …).
    Engine(EngineError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { queue_depth, retry_after_hint_s } => write!(
                f,
                "overloaded: {queue_depth} queries queued; retry after ~{retry_after_hint_s}s"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Panicked(msg) => write!(f, "query panicked: {msg}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Handle to one submission. Dropping a ticket does not cancel the query;
/// call [`Ticket::cancel`] for that.
pub struct Ticket<T> {
    state: Arc<TicketState<T>>,
    shared: Arc<Shared>,
    cancel: CancelToken,
    id: u64,
}

impl<T> Ticket<T> {
    /// This submission's service-assigned id (for logs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cancels the submission. A query still waiting in the admission queue
    /// is removed *synchronously* (it never consumes budget — no free worker
    /// is needed); a running query stops cooperatively at its next morsel
    /// boundary.
    pub fn cancel(&self) {
        self.cancel.cancel();
        let removed = {
            let mut st = self.shared.state.lock().unwrap();
            let p = remove_by_id(&mut st, self.id);
            if p.is_some() {
                self.shared.update_queue_gauges(&st);
            }
            p
        };
        if let Some(p) = removed {
            self.shared.metrics.inc("service_cancelled_total", 1);
            (p.resolve_err)(ServiceError::Engine(EngineError::Cancelled));
        }
        self.shared.work.notify_all();
    }

    /// True once the submission reached its terminal outcome.
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().unwrap().is_some()
    }

    /// Blocks until the terminal outcome and returns it.
    pub fn wait(self) -> Result<T, ServiceError> {
        let mut slot = self.state.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.state.cv.wait(slot).unwrap();
        }
        slot.take().expect("guarded by wait")
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).field("done", &self.is_done()).finish()
    }
}

/// Terminal-outcome slot shared between the ticket and the workers. The
/// first resolution wins; later ones are ignored — which is what guarantees
/// *exactly one* terminal outcome per submission.
struct TicketState<T> {
    slot: Mutex<Option<Result<T, ServiceError>>>,
    cv: Condvar,
}

impl<T> TicketState<T> {
    fn resolve(&self, outcome: Result<T, ServiceError>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(outcome);
            self.cv.notify_all();
        }
    }
}

/// One attempt of a query: an answer goes straight into the ticket, an
/// error comes back for the worker to route.
type Attempt = dyn Fn(&QueryContext) -> crate::error::Result<()> + Send;

/// One queued submission, type-erased. `run` is re-invocable because the one
/// budget retry re-executes the same closure under a bigger grant.
struct Pending {
    id: u64,
    label: String,
    grant: u64,
    cancel: CancelToken,
    timeout: Option<Duration>,
    submitted: Instant,
    run: Box<Attempt>,
    resolve_err: Box<dyn FnOnce(ServiceError) + Send>,
}

/// Queue + bookkeeping behind the service mutex.
struct Inner {
    queue: VecDeque<Pending>,
    in_flight: usize,
    in_flight_tokens: Vec<(u64, CancelToken)>,
    shutdown: bool,
    next_id: u64,
}

struct Shared {
    state: Mutex<Inner>,
    work: Condvar,
    node: MemoryReservation,
    metrics: Registry,
    cfg: ServiceConfig,
}

impl Shared {
    fn update_queue_gauges(&self, st: &Inner) {
        let depth = st.queue.len() as f64;
        self.metrics.set_gauge("service_queue_depth", depth);
        self.metrics.max_gauge("service_queue_depth_peak", depth);
        self.metrics.set_gauge("service_in_flight", st.in_flight as f64);
        self.metrics.max_gauge("service_in_flight_peak", st.in_flight as f64);
    }
}

/// RAII over the bytes admission carved from the node reservation. Dropping
/// it returns the grant and wakes waiters — including on the unwind path, so
/// a panicking query cannot leak node budget.
struct Grant {
    shared: Arc<Shared>,
    bytes: u64,
}

impl Drop for Grant {
    fn drop(&mut self) {
        self.shared.node.release(self.bytes);
        self.shared.work.notify_all();
    }
}

fn remove_by_id(st: &mut Inner, id: u64) -> Option<Pending> {
    let pos = st.queue.iter().position(|p| p.id == id)?;
    st.queue.remove(pos)
}

/// The concurrent query service. Owns the node-wide reservation, the
/// admission queue, and the worker pool; see the module docs for semantics.
///
/// The service is `Sync`: clients on many threads may [`Service::submit`]
/// through a shared reference (or an `Arc<Service>`) while another thread
/// calls [`Service::shutdown`] — the shutdown flag, the queue drain, and
/// every admission decision happen under one state lock, so a submission
/// racing shutdown either loses the race (typed [`ServiceError::ShuttingDown`],
/// no ticket exists) or wins it (its ticket resolves exactly once as
/// `Cancelled` by the drain). A ticket can never be left unresolved.
pub struct Service {
    shared: Arc<Shared>,
    /// Joined (and emptied) by [`Service::shutdown`]; behind a mutex so
    /// shutdown works through `&self` and is idempotent under concurrency.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts a service with `cfg.workers` worker threads (at least one).
    pub fn new(cfg: ServiceConfig) -> Self {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(Inner {
                queue: VecDeque::new(),
                in_flight: 0,
                in_flight_tokens: Vec::new(),
                shutdown: false,
                next_id: 0,
            }),
            work: Condvar::new(),
            node: MemoryReservation::with_budget(cfg.node_budget),
            metrics: Registry::new(),
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wimpi-service-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Service { shared, workers: Mutex::new(handles) }
    }

    /// Submits a query. `f` runs on a worker under a [`QueryContext`] whose
    /// budget is the admitted grant (declared estimate, clamped to the node
    /// budget); it may run twice when the one budget retry engages, so it
    /// must be a pure function of the context. Returns the ticket, or sheds
    /// with [`ServiceError::Overloaded`] when the queue is full.
    pub fn submit<T, F>(&self, spec: QuerySpec, f: F) -> Result<Ticket<T>, ServiceError>
    where
        T: Send + 'static,
        F: Fn(&QueryContext) -> crate::error::Result<T> + Send + 'static,
    {
        let cfg = &self.shared.cfg;
        let grant = spec.estimate.unwrap_or(DEFAULT_ESTIMATE).max(1).min(cfg.node_budget);
        let state = Arc::new(TicketState { slot: Mutex::new(None), cv: Condvar::new() });
        let run_state = Arc::clone(&state);
        let run = Box::new(move |ctx: &QueryContext| f(ctx).map(|v| run_state.resolve(Ok(v))));
        let err_state = Arc::clone(&state);
        let resolve_err = Box::new(move |e: ServiceError| err_state.resolve(Err(e)));
        let cancel = CancelToken::new();

        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let depth = st.queue.len();
        if depth >= cfg.queue_depth {
            self.shared.metrics.inc("service_shed_total", 1);
            return Err(ServiceError::Overloaded {
                queue_depth: depth,
                retry_after_hint_s: (BACKOFF_BASE_S * depth as f64).min(BACKOFF_CAP_S),
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let pending = Pending {
            id,
            label: spec.label,
            grant,
            cancel: cancel.clone(),
            timeout: spec.timeout,
            submitted: Instant::now(),
            run,
            resolve_err,
        };
        st.queue.push_back(pending);
        self.shared.metrics.inc("service_submitted_total", 1);
        self.shared.update_queue_gauges(&st);
        drop(st);
        self.shared.work.notify_all();
        Ok(Ticket { state, shared: Arc::clone(&self.shared), cancel, id })
    }

    /// [`submit`](Service::submit) + [`Ticket::wait`].
    pub fn run_blocking<T, F>(&self, spec: QuerySpec, f: F) -> Result<T, ServiceError>
    where
        T: Send + 'static,
        F: Fn(&QueryContext) -> crate::error::Result<T> + Send + 'static,
    {
        self.submit(spec, f)?.wait()
    }

    /// Queue-depth/in-flight/shed/retry counters, latency histograms, and
    /// the simulated-backoff histogram.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Waiting submissions right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Admitted queries currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.state.lock().unwrap().in_flight
    }

    /// Bytes of grant currently carved out of the node reservation.
    pub fn node_used(&self) -> u64 {
        self.shared.node.used()
    }

    /// The node reservation's high-water mark — by construction never above
    /// the configured node budget.
    pub fn node_high_water(&self) -> u64 {
        self.shared.node.high_water()
    }

    /// The configured node budget.
    pub fn node_budget(&self) -> u64 {
        self.shared.cfg.node_budget
    }

    /// Stops admissions, resolves every queued submission as `Cancelled`,
    /// cancels in-flight queries cooperatively, and joins the workers.
    /// Idempotent, safe to race against concurrent [`Service::submit`]s
    /// (see the type docs), and also runs on drop. After it returns, the
    /// metrics snapshot and the node accounting are quiescent (every grant
    /// returned) and the ledger identity `submitted = completed + cancelled
    /// + exhausted + failed + panicked` holds.
    pub fn shutdown(&self) {
        // Flag, token cancellation, and drain are one critical section on
        // the state lock — the same lock `submit` holds while it checks the
        // flag and enqueues. A racing submit therefore either observes
        // `shutdown` (typed refusal, no ticket) or enqueued before the
        // drain (its pending is drained here and resolved `Cancelled`).
        // Nothing can slip in between: after this section every future
        // submit is refused, so the queue stays empty and the workers'
        // exit condition (`shutdown && queue empty`) is stable.
        let drained = {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            for (_, token) in &st.in_flight_tokens {
                token.cancel();
            }
            let drained: Vec<Pending> = st.queue.drain(..).collect();
            self.shared.update_queue_gauges(&st);
            drained
        };
        for p in drained {
            self.shared.metrics.inc("service_cancelled_total", 1);
            (p.resolve_err)(ServiceError::Engine(EngineError::Cancelled));
        }
        self.shared.work.notify_all();
        // Take the handles out under their own lock so concurrent shutdown
        // calls are idempotent (each handle is joined exactly once), then
        // join outside it — joining can block on in-flight queries.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Admits the head of the queue once its grant fits, carving the grant. The
/// queries behind a head that does not fit yet wait with it.
fn admit_one(shared: &Arc<Shared>, st: &mut Inner) -> Option<(Pending, Grant)> {
    if !shared.node.try_reserve(st.queue.front()?.grant) {
        return None;
    }
    let p = st.queue.pop_front().expect("front exists");
    st.in_flight += 1;
    st.in_flight_tokens.push((p.id, p.cancel.clone()));
    shared.metrics.inc("service_admitted_total", 1);
    shared.metrics.observe(
        "service_wait_seconds",
        &LATENCY_BUCKETS,
        p.submitted.elapsed().as_secs_f64(),
    );
    shared.update_queue_gauges(st);
    let grant = Grant { shared: Arc::clone(shared), bytes: p.grant };
    Some((p, grant))
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let admitted = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(pair) = admit_one(&shared, &mut st) {
                    break Some(pair);
                }
                if st.shutdown && st.queue.is_empty() {
                    break None;
                }
                // A dropped `Grant` returns its bytes to the node reservation
                // without this lock, so its wakeup can land between the
                // failed `try_reserve` above and this wait; the timeout
                // bounds that lost wakeup.
                let (next, _) = shared.work.wait_timeout(st, Duration::from_millis(50)).unwrap();
                st = next;
            }
        };
        let Some((pending, grant)) = admitted else { return };
        run_admitted(&shared, pending, grant);
    }
}

/// Runs one admitted attempt and routes its end: resolve, or re-queue for
/// the one full-budget retry.
fn run_admitted(shared: &Arc<Shared>, p: Pending, grant: Grant) {
    let mut ctx = QueryContext::with_budget(p.grant).with_cancel_token(p.cancel.clone());
    if let Some(t) = p.timeout {
        ctx = ctx.with_timeout(t);
    }
    let end = catch_unwind(AssertUnwindSafe(|| (p.run)(&ctx)));
    let checks = ctx.integrity_checks();
    if checks > 0 {
        shared.metrics.inc("integrity_checks_total", checks);
    }
    drop(ctx);
    drop(grant); // return the carve before resolving or re-admitting

    let (counter, err): (&str, Option<ServiceError>) = match end {
        Ok(Ok(())) => ("service_completed_total", None),
        Ok(Err(e @ EngineError::Cancelled)) => ("service_cancelled_total", Some(e.into())),
        Ok(Err(e @ EngineError::ResourceExhausted { budget, .. })) => {
            // Only this attempt's own grant running out earns the retry; an
            // exhaustion of any other budget is final.
            if budget == p.grant && p.grant < shared.cfg.node_budget {
                let mut st = shared.state.lock().unwrap();
                // `Ticket::cancel` and `shutdown` fire the token before they
                // take this lock to look for the query in the queue, so a
                // racing cancel either stops the retry here or removes it.
                if !p.cancel.is_cancelled() {
                    st.in_flight -= 1;
                    st.in_flight_tokens.retain(|(id, _)| *id != p.id);
                    shared.metrics.inc("service_retries_total", 1);
                    let backoff = backoff_s(0);
                    shared.metrics.observe(
                        "service_backoff_sim_seconds",
                        &BACKOFF_BUCKETS,
                        backoff,
                    );
                    // The retried query has already waited its turn once:
                    // re-admit it at the head of the queue.
                    st.queue.push_front(Pending { grant: shared.cfg.node_budget, ..p });
                    shared.update_queue_gauges(&st);
                    drop(st);
                    shared.work.notify_all();
                    return;
                }
            }
            ("service_exhausted_total", Some(e.into()))
        }
        Ok(Err(e)) => {
            if matches!(e, EngineError::Integrity { .. }) {
                shared.metrics.inc("integrity_failures_total", 1);
            }
            ("service_failed_total", Some(e.into()))
        }
        Err(payload) => {
            let msg = format!("{}: {}", p.label, panic_message(payload.as_ref()));
            ("service_panicked_total", Some(ServiceError::Panicked(msg)))
        }
    };
    shared.metrics.inc(counter, 1);
    if let Some(err) = err {
        (p.resolve_err)(err);
    }
    finish_in_flight(shared, p.id, p.submitted);
}

fn finish_in_flight(shared: &Shared, id: u64, submitted: Instant) {
    shared.metrics.observe(
        "service_latency_seconds",
        &LATENCY_BUCKETS,
        submitted.elapsed().as_secs_f64(),
    );
    let mut st = shared.state.lock().unwrap();
    st.in_flight -= 1;
    st.in_flight_tokens.retain(|(tid, _)| *tid != id);
    shared.update_queue_gauges(&st);
    drop(st);
    shared.work.notify_all();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    fn tiny(workers: usize, node_budget: u64, queue_depth: usize) -> Service {
        Service::new(ServiceConfig { workers, node_budget, queue_depth })
    }

    /// A job that blocks until the returned sender is dropped or pinged,
    /// flagging `ran` as soon as it starts.
    fn gate_job(
        ran: Arc<AtomicU32>,
    ) -> (mpsc::Sender<()>, impl Fn(&QueryContext) -> crate::error::Result<u32> + Send + 'static)
    {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let job = move |_ctx: &QueryContext| {
            ran.fetch_add(1, Ordering::SeqCst);
            let _ = rx.lock().unwrap().recv();
            Ok(0u32)
        };
        (tx, job)
    }

    fn spin_until_running(ran: &AtomicU32) {
        while ran.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn completes_a_simple_query_and_counts_it() {
        let svc = tiny(2, 1000, 8);
        let out = svc
            .run_blocking(QuerySpec::new("q").with_estimate(100), |ctx| {
                let _g = ctx.reserve(80, "stub")?;
                Ok(41 + 1)
            })
            .expect("runs");
        assert_eq!(out, 42);
        svc.shutdown();
        assert_eq!(svc.metrics().counter("service_completed_total"), 1);
        assert_eq!(svc.metrics().counter("service_submitted_total"), 1);
        assert_eq!(svc.node_used(), 0, "grant fully returned");
        assert!(svc.node_high_water() <= 1000);
    }

    #[test]
    fn an_exhausted_grant_is_retried_once_at_the_node_budget() {
        let svc = tiny(1, 1000, 8);
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let out = svc
            .run_blocking(QuerySpec::new("retry").with_estimate(100), move |ctx| {
                a.fetch_add(1, Ordering::SeqCst);
                let _g = ctx.reserve(500, "stub")?; // needs 500 > 100, <= 1000
                Ok(7u32)
            })
            .expect("retry at node budget succeeds");
        assert_eq!(out, 7);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "exactly one retry");
        svc.shutdown();
        assert_eq!(svc.metrics().counter("service_retries_total"), 1);
        assert_eq!(svc.metrics().counter("service_completed_total"), 1);
        assert_eq!(svc.metrics().counter("service_exhausted_total"), 0);
    }

    #[test]
    fn exhaustion_at_full_budget_is_final_and_typed() {
        let svc = tiny(1, 1000, 8);
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let err = svc
            .run_blocking(QuerySpec::new("hopeless").with_estimate(100), move |ctx| {
                a.fetch_add(1, Ordering::SeqCst);
                ctx.reserve(2000, "stub").map(|_| 0u32) // > node budget, ever
            })
            .unwrap_err();
        match err {
            ServiceError::Engine(EngineError::ResourceExhausted { requested, budget, .. }) => {
                assert_eq!(requested, 2000);
                assert_eq!(budget, 1000, "final error reports the full-budget attempt");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one declared + one retry");
        svc.shutdown();
        assert_eq!(svc.metrics().counter("service_exhausted_total"), 1);
        assert_eq!(svc.node_used(), 0);
    }

    #[test]
    fn full_queue_sheds_with_typed_overload() {
        let svc = tiny(1, 1000, 1);
        let ran = Arc::new(AtomicU32::new(0));
        let (gate, job) = gate_job(Arc::clone(&ran));
        let busy = svc.submit(QuerySpec::new("busy").with_estimate(100), job).expect("admits");
        spin_until_running(&ran);
        let queued =
            svc.submit(QuerySpec::new("waits").with_estimate(100), |_| Ok(1u32)).expect("queues");
        let shed = svc.submit(QuerySpec::new("shed").with_estimate(100), |_| Ok(2u32));
        match shed {
            Err(ServiceError::Overloaded { queue_depth, retry_after_hint_s }) => {
                assert_eq!(queue_depth, 1);
                assert!(retry_after_hint_s > 0.0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.metrics().counter("service_shed_total"), 1);
        drop(gate);
        assert_eq!(busy.wait().expect("gated job finishes"), 0);
        assert_eq!(queued.wait().expect("queued job runs"), 1);
        svc.shutdown();
    }

    #[test]
    fn ticket_cancel_removes_queued_query_immediately() {
        let svc = tiny(1, 1000, 8);
        let ran = Arc::new(AtomicU32::new(0));
        let (gate, job) = gate_job(Arc::clone(&ran));
        let busy = svc.submit(QuerySpec::new("busy").with_estimate(900), job).expect("admits");
        spin_until_running(&ran);
        let never = Arc::new(AtomicU32::new(0));
        let n = Arc::clone(&never);
        let waiting = svc
            .submit(QuerySpec::new("doomed").with_estimate(500), move |_| {
                n.fetch_add(1, Ordering::SeqCst);
                Ok(0u32)
            })
            .expect("queues");
        assert_eq!(svc.queue_depth(), 1);
        waiting.cancel();
        // Removal is synchronous — no worker needs to be free.
        assert_eq!(svc.queue_depth(), 0);
        match waiting.wait() {
            Err(ServiceError::Engine(EngineError::Cancelled)) => {}
            other => panic!("cancelled ticket must resolve Cancelled, got {other:?}"),
        }
        drop(gate);
        busy.wait().expect("gated job finishes");
        assert_eq!(never.load(Ordering::SeqCst), 0, "cancelled query never ran");
        svc.shutdown();
        assert_eq!(svc.metrics().counter("service_cancelled_total"), 1);
        assert_eq!(svc.node_high_water(), 900, "the cancelled grant was never reserved");
    }

    #[test]
    fn shutdown_drains_queue_as_cancelled_and_joins() {
        let svc = tiny(1, 1000, 8);
        let started = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&started);
        // A cooperative in-flight query: spins until its token fires.
        let busy = svc
            .submit(
                QuerySpec::new("busy").with_estimate(900),
                move |ctx| -> crate::error::Result<u32> {
                    s.fetch_add(1, Ordering::SeqCst);
                    loop {
                        if ctx.interrupted() {
                            return Err(EngineError::Cancelled);
                        }
                        std::thread::yield_now();
                    }
                },
            )
            .expect("admits");
        spin_until_running(&started);
        let queued =
            svc.submit(QuerySpec::new("queued").with_estimate(500), |_| Ok(0u32)).expect("queues");
        svc.shutdown();
        for outcome in [busy.wait().map(|_| ()), queued.wait().map(|_| ())] {
            match outcome {
                Err(ServiceError::Engine(EngineError::Cancelled)) => {}
                other => panic!("drained query must resolve Cancelled, got {other:?}"),
            }
        }
        assert_eq!(svc.metrics().counter("service_cancelled_total"), 2);
        assert_eq!(svc.node_used(), 0);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let svc = tiny(1, 1000, 8);
        svc.shutdown();
        let err = svc.submit(QuerySpec::new("late"), |_| Ok(0u32)).map(|_| ()).unwrap_err();
        match err {
            ServiceError::ShuttingDown => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    #[test]
    fn panicking_query_restores_grant_and_surfaces_typed_error() {
        let svc = tiny(1, 1000, 8);
        let err = svc
            .run_blocking(
                QuerySpec::new("boom").with_estimate(600),
                |_ctx| -> crate::error::Result<u32> { panic!("operator blew up") },
            )
            .unwrap_err();
        match err {
            ServiceError::Panicked(msg) => {
                assert!(msg.contains("operator blew up") && msg.contains("boom"))
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The worker survived: the service still runs queries.
        let out = svc.run_blocking(QuerySpec::new("after"), |_| Ok(5u32)).expect("still alive");
        assert_eq!(out, 5);
        svc.shutdown();
        assert_eq!(svc.node_used(), 0, "grant restored after panic");
        assert_eq!(svc.metrics().counter("service_panicked_total"), 1);
    }

    #[test]
    fn an_exhaustion_of_another_budget_runs_once() {
        // A coordinator reports a cluster node's OOM against `budget: 0`:
        // the cluster already ran its recovery, so the service must not
        // replay the query at the full node budget.
        let svc = tiny(1, 1 << 20, 8);
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let err = svc
            .run_blocking(QuerySpec::new("cluster oom").with_estimate(1 << 10), move |_ctx| {
                a.fetch_add(1, Ordering::SeqCst);
                Err::<u32, _>(EngineError::ResourceExhausted {
                    requested: 1 << 30,
                    budget: 0,
                    operator: "cluster node".into(),
                })
            })
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::Engine(EngineError::ResourceExhausted { budget: 0, .. })),
            "{err}"
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "not its grant: no retry");
        svc.shutdown();
        assert_eq!(svc.metrics().counter("service_retries_total"), 0);
        assert_eq!(svc.metrics().counter("service_exhausted_total"), 1);
    }

    /// Queues `(label, estimate)` jobs that log their label when they run.
    fn submit_logged(
        svc: &Service,
        jobs: &[(&'static str, u64)],
        log: &Arc<Mutex<Vec<&'static str>>>,
    ) -> Vec<Ticket<u32>> {
        jobs.iter()
            .map(|&(label, est)| {
                let log = Arc::clone(log);
                svc.submit(QuerySpec::new(label).with_estimate(est), move |_| {
                    log.lock().unwrap().push(label);
                    Ok(0u32)
                })
                .expect("queues")
            })
            .collect()
    }

    #[test]
    fn admission_is_first_in_first_out() {
        // With the one worker pinned, grants of mixed sizes queue up and are
        // admitted in submission order, the big ones included.
        let svc = tiny(1, 1000, 64);
        let log = Arc::new(Mutex::new(Vec::new()));
        let ran = Arc::new(AtomicU32::new(0));
        let (gate, job) = gate_job(Arc::clone(&ran));
        let busy = svc.submit(QuerySpec::new("busy").with_estimate(200), job).expect("admits");
        spin_until_running(&ran);
        let jobs = [("s1", 10), ("big", 900), ("s2", 10), ("mid", 500), ("s3", 10)];
        let tickets = submit_logged(&svc, &jobs, &log);
        drop(gate);
        busy.wait().expect("gated job finishes");
        for t in tickets {
            t.wait().expect("all queued queries run");
        }
        let submitted: Vec<&str> = jobs.iter().map(|&(label, _)| label).collect();
        assert_eq!(*log.lock().unwrap(), submitted, "admitted in submission order");
        svc.shutdown();

        // A head whose grant does not fit yet holds back the smaller grant
        // behind it, though a worker is free and the smaller grant would fit.
        let svc = tiny(2, 1000, 64);
        let log = Arc::new(Mutex::new(Vec::new()));
        let ran = Arc::new(AtomicU32::new(0));
        let (gate, job) = gate_job(Arc::clone(&ran));
        let busy = svc.submit(QuerySpec::new("busy").with_estimate(200), job).expect("admits");
        spin_until_running(&ran);
        let tickets = submit_logged(&svc, &[("big", 900), ("small", 10)], &log);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(svc.queue_depth(), 2, "nothing passes the head");
        assert!(log.lock().unwrap().is_empty());
        drop(gate);
        busy.wait().expect("gated job finishes");
        for t in tickets {
            t.wait().expect("both run once busy ends");
        }
        svc.shutdown();
        assert!(svc.node_high_water() <= 1000);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(backoff_s(0), 0.05);
        assert_eq!(backoff_s(1), 0.1);
        assert_eq!(backoff_s(4), 0.8);
        assert_eq!(backoff_s(5), 1.0, "capped");
        assert_eq!(backoff_s(u32::MAX), 1.0, "huge attempt counts stay finite");
    }

    #[test]
    fn concurrent_grants_never_oversubscribe_the_node() {
        let budget = 1 << 20;
        let svc = tiny(4, budget, 64);
        let mut tickets = Vec::new();
        for i in 0..32u64 {
            let bytes = (i % 7 + 1) * 100_000;
            tickets.push(
                svc.submit(QuerySpec::new(format!("q{i}")).with_estimate(bytes), move |ctx| {
                    let _g = ctx.reserve(bytes, "stub")?;
                    Ok(bytes)
                })
                .expect("queue is deep enough"),
            );
        }
        for t in tickets {
            t.wait().expect("fits");
        }
        svc.shutdown();
        assert!(svc.node_high_water() <= budget, "admission arbitration must hold the line");
        assert_eq!(svc.node_used(), 0);
        assert_eq!(svc.metrics().counter("service_completed_total"), 32);
    }

    #[test]
    fn an_integrity_error_fails_typed_and_is_counted() {
        // Repair is the cluster's; the service returns the typed error.
        let svc = tiny(1, 1000, 8);
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let err = svc
            .run_blocking(QuerySpec::new("q").with_estimate(100), move |_ctx| {
                a.fetch_add(1, Ordering::SeqCst);
                Err::<u32, _>(EngineError::Integrity {
                    table: "t".into(),
                    column: "k".into(),
                    chunk: 0,
                    expected: 1,
                    actual: 2,
                })
            })
            .expect_err("an integrity error is terminal");
        assert!(matches!(err, ServiceError::Engine(EngineError::Integrity { .. })), "{err}");
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "never retried");
        svc.shutdown();
        assert_eq!(svc.metrics().counter("integrity_failures_total"), 1);
        assert_eq!(svc.metrics().counter("service_failed_total"), 1);
    }
}
