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
//! it. Waiting queries sit in a bounded FIFO queue split into a *small* and
//! a *large* class (by estimate) so cheap choke-point queries are not stuck
//! behind a giant build; a bypass cap (`max_small_bypass`) keeps the large
//! head from starving. When the queue is full, [`Service::submit`] sheds the
//! query with a typed [`ServiceError::Overloaded`] — never a panic, never an
//! unbounded block.
//!
//! ## Retry, backoff, and determinism
//!
//! An attempt that ends in `ResourceExhausted` under its declared grant gets
//! exactly one coordinator-decided retry, re-admitted at the *full node
//! budget* — the same shape as the cluster's `budgeted_retry`: a governed
//! run below physical capacity that lets joins and aggregates degrade to
//! Grace-partitioned builds instead of dying. The retry's backoff delay is
//! [`backoff_s`] — capped exponential **in simulated seconds** (pure
//! arithmetic, recorded in the metrics histogram, never slept), the same
//! function the cluster's recovery engine prices its retries with — so tests
//! are deterministic and fast.
//!
//! Because a query's budget is decided by the coordinator (declared estimate
//! first, full node budget on the one retry) and never depends on what else
//! is running, every governed run takes a deterministic path: any answer the
//! service completes is bit-exact with the serial unconstrained run, at any
//! worker count and under any interleaving. Concurrency moves *latency and
//! shedding*, never *answers*.
//!
//! ## Terminal outcomes
//!
//! Every submission resolves to exactly one of: an answer, `Overloaded`
//! (shed at submit), `ResourceExhausted` (even the full-budget retry could
//! not fit), or `Cancelled` (token, deadline, or shutdown drain). A panic
//! inside a query is caught, its grant restored, and surfaced as the
//! [`ServiceError::Panicked`] escape hatch rather than poisoning a worker.
//! The accounting identity `submitted = completed + cancelled + exhausted +
//! failed + panicked` holds at quiescence; sheds are counted separately
//! because shed submissions are refused, not accepted.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wimpi_obs::Registry;
use wimpi_storage::integrity::{chunk_checksum, dict_checksum, IntegrityViolation};
use wimpi_storage::morsel::morsel_ranges;
use wimpi_storage::{Catalog, Column};

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
/// arithmetic, never slept. The service's budget retry and chunk repairs
/// and the cluster's transient-fault, repair and reroute retries all price
/// their waits with it.
pub fn backoff_s(attempt: u32) -> f64 {
    (BACKOFF_BASE_S * 2f64.powi(attempt.min(30) as i32)).min(BACKOFF_CAP_S)
}

/// Histogram bounds for admission-wait and submit-to-terminal latency
/// (wall seconds).
const LATENCY_BUCKETS: [f64; 6] = [0.001, 0.01, 0.05, 0.25, 1.0, 10.0];

/// Tuning for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Node-wide scratch budget in bytes shared by every running query
    /// ([`UNLIMITED`] admits any single grant but still arbitrates grants
    /// that cannot coexist arithmetically).
    pub node_budget: u64,
    /// Worker threads — the maximum number of in-flight queries.
    pub workers: usize,
    /// Maximum *waiting* submissions (both classes combined) before
    /// [`Service::submit`] sheds with [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Estimates at or below this many bytes queue in the small class.
    pub small_cutoff: u64,
    /// How many small-class admissions may bypass a waiting large-class head
    /// before the service stops admitting smalls until the head fits.
    pub max_small_bypass: u32,
    /// Whether an exhausted attempt gets the one full-node-budget retry.
    pub budget_retry: bool,
    /// Estimate used when a [`QuerySpec`] does not declare one.
    pub default_estimate: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            node_budget: UNLIMITED,
            workers: 4,
            queue_depth: 64,
            small_cutoff: 1 << 20,
            max_small_bypass: 8,
            budget_retry: true,
            default_estimate: 16 << 20,
        }
    }
}

impl ServiceConfig {
    /// A config with the two knobs that matter most; everything else at the
    /// defaults.
    pub fn new(node_budget: u64, workers: usize) -> Self {
        ServiceConfig { node_budget, workers, ..Self::default() }
    }
}

/// Per-submission declaration: label, scratch estimate, cancellation,
/// optional deadline (measured from *admission*, not submit — queue wait
/// does not burn a query's time budget).
#[derive(Debug, Clone, Default)]
pub struct QuerySpec {
    /// Human-readable name for logs and error messages.
    pub label: String,
    /// Declared/estimated scratch bytes (`None` → the config default). The
    /// grant is clamped to the node budget.
    pub estimate: Option<u64>,
    /// Cooperative cancellation token; cancelling it while queued resolves
    /// the ticket without ever consuming budget.
    pub cancel: CancelToken,
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

    /// Attaches an externally owned cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Gives the query a deadline `timeout` after admission.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Outcome of one [`Service::scrub`] slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Chunk checksums verified in this slice.
    pub checks: u64,
    /// Violations found, each with the owning table named.
    pub violations: Vec<(String, IntegrityViolation)>,
    /// True when this slice reached the end of the catalog and the cursor
    /// wrapped back to the start — one full scrub pass completed.
    pub wrapped: bool,
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

    /// The cancellation token shared with the running query.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
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

/// How one attempt of a query ended, as seen by the scheduling worker.
enum AttemptEnd {
    /// Outcome already stored in the ticket (answer, cancellation, or a
    /// non-retryable error).
    Resolved(ResolvedKind),
    /// `ResourceExhausted` under this attempt's grant; the coordinator
    /// decides whether the query gets its one full-budget retry.
    Exhausted(EngineError),
    /// Scan-time verification caught silent corruption
    /// (`EngineError::Integrity`); the coordinator may invoke the installed
    /// repairer and grant the one repair-and-retry.
    Corrupted(EngineError),
}

#[derive(Clone, Copy)]
enum ResolvedKind {
    Completed,
    Cancelled,
    Failed,
}

/// One queued submission, type-erased. `run` is re-invocable because the one
/// budget retry re-executes the same closure under a bigger grant.
struct Pending {
    id: u64,
    label: String,
    grant: u64,
    attempt: u32,
    /// Repair-and-retries already spent (capped at one, independently of
    /// the one budget retry `attempt` counts).
    repairs: u32,
    cancel: CancelToken,
    timeout: Option<Duration>,
    submitted: Instant,
    run: Box<dyn Fn(&QueryContext) -> AttemptEnd + Send>,
    resolve_err: Box<dyn FnOnce(ServiceError) + Send>,
}

/// Queue + bookkeeping behind the service mutex.
struct Inner {
    small: VecDeque<Pending>,
    large: VecDeque<Pending>,
    in_flight: usize,
    in_flight_tokens: Vec<(u64, CancelToken)>,
    large_bypass: u32,
    shutdown: bool,
    next_id: u64,
}

/// The pluggable repair hook: receives the `EngineError::Integrity` a query
/// tripped over and returns `true` once the underlying storage has been
/// restored (e.g. the corrupt table regenerated and re-sealed), at which
/// point the coordinator grants the one repair-and-retry.
type Repairer = Arc<dyn Fn(&EngineError) -> bool + Send + Sync>;

struct Shared {
    state: Mutex<Inner>,
    work: Condvar,
    node: MemoryReservation,
    metrics: Registry,
    cfg: ServiceConfig,
    repairer: Mutex<Option<Repairer>>,
    /// Background-scrubber resume point: a flat index into the catalog's
    /// (table, column, chunk) units, persisted across [`Service::scrub`]
    /// slices.
    scrub_cursor: Mutex<u64>,
}

impl Shared {
    fn update_queue_gauges(&self, st: &Inner) {
        let depth = (st.small.len() + st.large.len()) as f64;
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
    for q in [&mut st.small, &mut st.large] {
        if let Some(pos) = q.iter().position(|p| p.id == id) {
            return q.remove(pos);
        }
    }
    None
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
                small: VecDeque::new(),
                large: VecDeque::new(),
                in_flight: 0,
                in_flight_tokens: Vec::new(),
                large_bypass: 0,
                shutdown: false,
                next_id: 0,
            }),
            work: Condvar::new(),
            node: MemoryReservation::with_budget(cfg.node_budget),
            metrics: Registry::new(),
            cfg,
            repairer: Mutex::new(None),
            scrub_cursor: Mutex::new(0),
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
        let grant = spec.estimate.unwrap_or(cfg.default_estimate).max(1).min(cfg.node_budget);
        let state = Arc::new(TicketState { slot: Mutex::new(None), cv: Condvar::new() });
        let run_state = Arc::clone(&state);
        let run = Box::new(move |ctx: &QueryContext| match f(ctx) {
            Ok(v) => {
                run_state.resolve(Ok(v));
                AttemptEnd::Resolved(ResolvedKind::Completed)
            }
            Err(e @ EngineError::ResourceExhausted { .. }) => AttemptEnd::Exhausted(e),
            Err(e @ EngineError::Integrity { .. }) => AttemptEnd::Corrupted(e),
            Err(EngineError::Cancelled) => {
                run_state.resolve(Err(ServiceError::Engine(EngineError::Cancelled)));
                AttemptEnd::Resolved(ResolvedKind::Cancelled)
            }
            Err(e) => {
                run_state.resolve(Err(ServiceError::Engine(e)));
                AttemptEnd::Resolved(ResolvedKind::Failed)
            }
        });
        let err_state = Arc::clone(&state);
        let resolve_err = Box::new(move |e: ServiceError| err_state.resolve(Err(e)));

        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let depth = st.small.len() + st.large.len();
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
            attempt: 0,
            repairs: 0,
            cancel: spec.cancel.clone(),
            timeout: spec.timeout,
            submitted: Instant::now(),
            run,
            resolve_err,
        };
        if grant <= cfg.small_cutoff {
            st.small.push_back(pending);
        } else {
            st.large.push_back(pending);
        }
        self.shared.metrics.inc("service_submitted_total", 1);
        self.shared.update_queue_gauges(&st);
        drop(st);
        self.shared.work.notify_all();
        Ok(Ticket { state, shared: Arc::clone(&self.shared), cancel: spec.cancel, id })
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

    /// Waiting submissions right now (both classes).
    pub fn queue_depth(&self) -> usize {
        let st = self.shared.state.lock().unwrap();
        st.small.len() + st.large.len()
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

    /// Installs (or replaces) the integrity repairer: a hook the
    /// coordinator invokes when a query's scan trips an
    /// [`EngineError::Integrity`]. Returning `true` means the storage was
    /// restored and the query earns its one repair-and-retry; `false` (or
    /// no hook) fails the query with the typed error.
    pub fn set_repairer<F>(&self, f: F)
    where
        F: Fn(&EngineError) -> bool + Send + Sync + 'static,
    {
        *self.shared.repairer.lock().unwrap() = Some(Arc::new(f));
    }

    /// One cooperative slice of the background scrubber: verifies up to
    /// `max_chunks` sealed chunk checksums against `catalog`'s resident
    /// bytes, resuming where the previous slice stopped (the cursor
    /// persists across calls and wraps at the end of the catalog).
    ///
    /// Runs under the caller's [`QueryContext`], so the governor's
    /// cancellation token and deadline apply at chunk granularity — a
    /// scrubber sharing a node with foreground queries yields at the next
    /// chunk boundary, and progress made before an interruption is kept.
    /// Checks and violations are folded into `integrity_checks_total` /
    /// `integrity_failures_total`.
    pub fn scrub(
        &self,
        catalog: &Catalog,
        max_chunks: u64,
        ctx: &QueryContext,
    ) -> crate::error::Result<ScrubReport> {
        // Flat, deterministic unit list: every (table, column, data chunk)
        // plus each dictionary pseudo-chunk, in catalog (sorted) order.
        let mut units: Vec<(String, usize, usize)> = Vec::new();
        for name in catalog.names() {
            let t = catalog.table(name)?;
            let Some(m) = t.manifest() else { continue };
            for (ci, f) in t.schema().fields().iter().enumerate() {
                let Some(sealed) = m.column(&f.name) else { continue };
                for chunk in 0..sealed.chunks.len() {
                    units.push((name.to_string(), ci, chunk));
                }
                if sealed.dict.is_some() {
                    units.push((name.to_string(), ci, sealed.chunks.len()));
                }
            }
        }
        let mut report = ScrubReport::default();
        if units.is_empty() {
            return Ok(report);
        }
        let mut cursor = self.shared.scrub_cursor.lock().unwrap();
        let start = (*cursor as usize) % units.len();
        let outcome = (|| {
            for i in 0..(max_chunks as usize).min(units.len()) {
                ctx.checkpoint()?;
                let (name, ci, chunk) = &units[(start + i) % units.len()];
                let t = catalog.table(name)?;
                let m = t.manifest().expect("unit listed only for sealed tables");
                let col = t.column(*ci);
                let field = &t.schema().fields()[*ci];
                let sealed = m.column(&field.name).expect("unit listed only for sealed columns");
                let (expected, actual) = if *chunk == sealed.chunks.len() {
                    let d = match col.as_ref() {
                        Column::Str(d) => d,
                        _ => unreachable!("dict pseudo-chunk implies a Str column"),
                    };
                    (sealed.dict.unwrap_or(0), dict_checksum(d))
                } else {
                    let r = morsel_ranges(col.len(), m.chunk_rows())
                        .get(*chunk)
                        .cloned()
                        .unwrap_or(0..0);
                    (sealed.chunks[*chunk], chunk_checksum(col.as_ref(), r))
                };
                report.checks += 1;
                if expected != actual {
                    report.violations.push((
                        name.clone(),
                        IntegrityViolation {
                            column: field.name.clone(),
                            chunk: *chunk,
                            expected,
                            actual,
                        },
                    ));
                }
                let next = (start + i + 1) % units.len();
                if next == 0 {
                    report.wrapped = true;
                }
                *cursor = next as u64;
            }
            Ok(())
        })();
        self.shared.metrics.inc("integrity_checks_total", report.checks);
        if !report.violations.is_empty() {
            self.shared.metrics.inc("integrity_failures_total", report.violations.len() as u64);
        }
        outcome.map(|()| report)
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
        // submit is refused, so the queues stay empty and the workers'
        // exit condition (`shutdown && queues empty`) is stable.
        let drained = {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            for (_, token) in &st.in_flight_tokens {
                token.cancel();
            }
            let mut drained: Vec<Pending> = st.small.drain(..).collect();
            drained.extend(st.large.drain(..));
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

/// Picks the next admissible query under the class policy and carves its
/// grant. Small-first FIFO until the large head has been bypassed
/// `max_small_bypass` times; then large-only until that head admits, so big
/// queries cannot starve behind a stream of small ones.
fn admit_one(shared: &Arc<Shared>, st: &mut Inner) -> Option<(Pending, Grant)> {
    let small_first = st.large.front().is_none() || st.large_bypass < shared.cfg.max_small_bypass;
    let classes: &[bool] = if small_first { &[true, false] } else { &[false] };
    for &small in classes {
        let queue = if small { &mut st.small } else { &mut st.large };
        let Some(front) = queue.front() else { continue };
        if !shared.node.try_reserve(front.grant) {
            // Head-of-line within the class keeps FIFO honest; try the other
            // class (when allowed) rather than scanning deeper.
            continue;
        }
        let p = queue.pop_front().expect("front exists");
        if small && !st.large.is_empty() {
            st.large_bypass += 1;
        } else if !small {
            st.large_bypass = 0;
        }
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
        return Some((p, grant));
    }
    None
}

/// Sweeps externally cancelled submissions out of both queues, resolving
/// each as `Cancelled` without ever reserving its grant. (Cancellation via
/// [`Ticket::cancel`] removes the entry synchronously; this sweep catches
/// tokens cancelled directly.)
fn purge_cancelled(shared: &Shared, st: &mut Inner) {
    let mut removed = Vec::new();
    for q in [&mut st.small, &mut st.large] {
        let mut i = 0;
        while i < q.len() {
            if q[i].cancel.is_cancelled() {
                removed.push(q.remove(i).expect("index checked"));
            } else {
                i += 1;
            }
        }
    }
    if !removed.is_empty() {
        shared.update_queue_gauges(st);
    }
    for p in removed {
        shared.metrics.inc("service_cancelled_total", 1);
        (p.resolve_err)(ServiceError::Engine(EngineError::Cancelled));
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let admitted = {
            let mut st = shared.state.lock().unwrap();
            loop {
                purge_cancelled(&shared, &mut st);
                if let Some(pair) = admit_one(&shared, &mut st) {
                    break Some(pair);
                }
                if st.shutdown && st.small.is_empty() && st.large.is_empty() {
                    break None;
                }
                // The timeout is belt-and-braces against a lost wakeup (e.g.
                // an external token cancelled without nudging the service).
                let (next, _) = shared.work.wait_timeout(st, Duration::from_millis(50)).unwrap();
                st = next;
            }
        };
        let Some((pending, grant)) = admitted else { return };
        run_admitted(&shared, pending, grant);
    }
}

/// Runs one admitted attempt and routes its end: resolve, or re-queue for
/// the single full-budget retry.
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

    match end {
        Err(payload) => {
            drop(grant);
            shared.metrics.inc("service_panicked_total", 1);
            let msg = format!("{}: {}", p.label, panic_message(payload.as_ref()));
            (p.resolve_err)(ServiceError::Panicked(msg));
            finish_in_flight(shared, p.id, p.submitted);
        }
        Ok(AttemptEnd::Resolved(kind)) => {
            drop(grant);
            let counter = match kind {
                ResolvedKind::Completed => "service_completed_total",
                ResolvedKind::Cancelled => "service_cancelled_total",
                ResolvedKind::Failed => "service_failed_total",
            };
            shared.metrics.inc(counter, 1);
            finish_in_flight(shared, p.id, p.submitted);
        }
        Ok(AttemptEnd::Exhausted(err)) => {
            drop(grant); // return the declared carve before re-admission
            let retry = p.attempt == 0
                && shared.cfg.budget_retry
                && p.grant < shared.cfg.node_budget
                && !p.cancel.is_cancelled();
            if retry {
                let backoff = backoff_s(p.attempt);
                shared.metrics.inc("service_retries_total", 1);
                shared.metrics.observe("service_backoff_sim_seconds", &BACKOFF_BUCKETS, backoff);
                let retried =
                    Pending { attempt: p.attempt + 1, grant: shared.cfg.node_budget, ..p };
                let mut st = shared.state.lock().unwrap();
                st.in_flight -= 1;
                st.in_flight_tokens.retain(|(id, _)| *id != retried.id);
                if st.shutdown {
                    shared.update_queue_gauges(&st);
                    drop(st);
                    shared.metrics.inc("service_cancelled_total", 1);
                    (retried.resolve_err)(ServiceError::Engine(EngineError::Cancelled));
                } else {
                    // The retried query has already waited its turn once:
                    // re-admit it at the head of the big-query class.
                    st.large.push_front(retried);
                    shared.update_queue_gauges(&st);
                    drop(st);
                    shared.work.notify_all();
                }
            } else {
                shared.metrics.inc("service_exhausted_total", 1);
                (p.resolve_err)(ServiceError::Engine(err));
                finish_in_flight(shared, p.id, p.submitted);
            }
        }
        Ok(AttemptEnd::Corrupted(err)) => {
            drop(grant);
            shared.metrics.inc("integrity_failures_total", 1);
            let repairer = shared.repairer.lock().unwrap().clone();
            let eligible = p.repairs == 0 && !p.cancel.is_cancelled();
            let repaired = match (repairer, eligible) {
                (Some(repair), true) => {
                    let started = Instant::now();
                    let ok = repair(&err);
                    if ok {
                        shared.metrics.inc("integrity_repairs_total", 1);
                        shared.metrics.observe(
                            "integrity_repair_seconds",
                            &LATENCY_BUCKETS,
                            started.elapsed().as_secs_f64(),
                        );
                    }
                    ok
                }
                _ => false,
            };
            if repaired {
                // One repair-and-retry, mirroring the budget retry's shape:
                // simulated backoff, then head-of-class re-admission with
                // the same grant (the query's memory needs didn't change).
                let backoff = backoff_s(p.repairs);
                shared.metrics.observe("service_backoff_sim_seconds", &BACKOFF_BUCKETS, backoff);
                let retried = Pending { repairs: p.repairs + 1, ..p };
                let mut st = shared.state.lock().unwrap();
                st.in_flight -= 1;
                st.in_flight_tokens.retain(|(id, _)| *id != retried.id);
                if st.shutdown {
                    shared.update_queue_gauges(&st);
                    drop(st);
                    shared.metrics.inc("service_cancelled_total", 1);
                    (retried.resolve_err)(ServiceError::Engine(EngineError::Cancelled));
                } else {
                    if retried.grant <= shared.cfg.small_cutoff {
                        st.small.push_front(retried);
                    } else {
                        st.large.push_front(retried);
                    }
                    shared.update_queue_gauges(&st);
                    drop(st);
                    shared.work.notify_all();
                }
            } else {
                // No repairer, repair refused, or the one repair already
                // spent: surface the typed error.
                shared.metrics.inc("service_failed_total", 1);
                (p.resolve_err)(ServiceError::Engine(err));
                finish_in_flight(shared, p.id, p.submitted);
            }
        }
    }
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
        Service::new(ServiceConfig {
            workers,
            node_budget,
            queue_depth,
            small_cutoff: 256,
            ..ServiceConfig::default()
        })
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
    fn exhausted_attempt_gets_one_full_budget_retry() {
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
    fn small_class_bypasses_large_but_not_forever() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            node_budget: 1000,
            queue_depth: 64,
            small_cutoff: 100,
            max_small_bypass: 2,
            ..ServiceConfig::default()
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        let ran = Arc::new(AtomicU32::new(0));
        let (gate, job) = gate_job(Arc::clone(&ran));
        let busy = svc.submit(QuerySpec::new("busy").with_estimate(50), job).expect("admits");
        spin_until_running(&ran);
        // While the single worker is pinned: queue one large then several
        // smalls. With max_small_bypass = 2, execution must go s1, s2, L, s3.
        let mut tickets = Vec::new();
        for (label, est) in [("L", 900u64), ("s1", 10), ("s2", 10), ("s3", 10)] {
            let o = Arc::clone(&order);
            tickets.push(
                svc.submit(QuerySpec::new(label).with_estimate(est), move |_| {
                    o.lock().unwrap().push(label);
                    Ok(0u32)
                })
                .expect("queues"),
            );
        }
        drop(gate);
        busy.wait().expect("gated job finishes");
        for t in tickets {
            t.wait().expect("all queued queries run");
        }
        let got = order.lock().unwrap().clone();
        assert_eq!(got, vec!["s1", "s2", "L", "s3"], "bypass cap admits the large head");
        svc.shutdown();
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

    fn integrity_err() -> EngineError {
        EngineError::Integrity {
            table: "t".into(),
            column: "k".into(),
            chunk: 0,
            expected: 1,
            actual: 2,
        }
    }

    #[test]
    fn corrupted_query_gets_one_repair_and_retry() {
        let svc = tiny(1, 1000, 8);
        let repaired = Arc::new(AtomicU32::new(0));
        let hook_flag = Arc::clone(&repaired);
        svc.set_repairer(move |e| {
            assert!(matches!(e, EngineError::Integrity { .. }));
            hook_flag.fetch_add(1, Ordering::SeqCst);
            true
        });
        let probe = Arc::clone(&repaired);
        let out = svc
            .run_blocking(QuerySpec::new("q").with_estimate(100), move |_ctx| {
                if probe.load(Ordering::SeqCst) == 0 {
                    Err(integrity_err())
                } else {
                    Ok(7u32)
                }
            })
            .expect("repair-and-retry succeeds");
        assert_eq!(out, 7);
        assert_eq!(repaired.load(Ordering::SeqCst), 1, "repairer ran exactly once");
        svc.shutdown();
        let m = svc.metrics();
        assert_eq!(m.counter("integrity_failures_total"), 1);
        assert_eq!(m.counter("integrity_repairs_total"), 1);
        assert_eq!(m.counter("service_completed_total"), 1);
        assert_eq!(m.counter("service_failed_total"), 0);
        assert!(m.render().contains("integrity_repair_seconds"));
    }

    #[test]
    fn corruption_without_a_repairer_fails_typed() {
        let svc = tiny(1, 1000, 8);
        let err = svc
            .run_blocking(QuerySpec::new("q").with_estimate(100), |_ctx| {
                Err::<u32, _>(integrity_err())
            })
            .expect_err("no repairer installed");
        assert!(matches!(err, ServiceError::Engine(EngineError::Integrity { .. })), "{err}");
        svc.shutdown();
        assert_eq!(svc.metrics().counter("integrity_failures_total"), 1);
        assert_eq!(svc.metrics().counter("integrity_repairs_total"), 0);
        assert_eq!(svc.metrics().counter("service_failed_total"), 1);
    }

    #[test]
    fn persistent_corruption_is_repaired_at_most_once() {
        let svc = tiny(1, 1000, 8);
        let repairs = Arc::new(AtomicU32::new(0));
        let hook_flag = Arc::clone(&repairs);
        svc.set_repairer(move |_| {
            hook_flag.fetch_add(1, Ordering::SeqCst);
            true
        });
        let err = svc
            .run_blocking(QuerySpec::new("q").with_estimate(100), |_ctx| {
                // Keeps failing even after the "repair": the coordinator
                // must not loop.
                Err::<u32, _>(integrity_err())
            })
            .expect_err("second corruption is terminal");
        assert!(matches!(err, ServiceError::Engine(EngineError::Integrity { .. })), "{err}");
        assert_eq!(repairs.load(Ordering::SeqCst), 1);
        svc.shutdown();
        assert_eq!(svc.metrics().counter("integrity_failures_total"), 2);
        assert_eq!(svc.metrics().counter("integrity_repairs_total"), 1);
        assert_eq!(svc.metrics().counter("service_failed_total"), 1);
    }

    fn sealed_scrub_catalog(rows: usize) -> Catalog {
        use wimpi_storage::{DataType, Field, Schema, Table};
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]);
        let t = Table::new(
            schema,
            vec![
                Column::Int64((0..rows as i64).collect()),
                Column::Int64((0..rows as i64).map(|x| x * 3).collect()),
            ],
        )
        .unwrap()
        .with_integrity();
        let mut cat = Catalog::new();
        cat.register("t", t);
        cat
    }

    #[test]
    fn scrubber_passes_a_clean_catalog_and_wraps() {
        let svc = tiny(1, 1000, 8);
        let cat = sealed_scrub_catalog(100);
        let ctx = QueryContext::new();
        let r = svc.scrub(&cat, 64, &ctx).unwrap();
        assert_eq!(r.checks, 2, "two columns, one chunk each");
        assert!(r.violations.is_empty());
        assert!(r.wrapped);
        assert_eq!(svc.metrics().counter("integrity_checks_total"), 2);
    }

    #[test]
    fn scrubber_finds_corruption_and_resumes_across_slices() {
        let svc = tiny(1, 1000, 8);
        let mut cat = sealed_scrub_catalog(100);
        // Corrupt column "v" (unit index 1) while keeping the sealed
        // manifest, exactly as a BitFlip fault would.
        let t = Arc::clone(cat.table("t").unwrap());
        let dirty = wimpi_storage::integrity::flip_bits(t.column(1).as_ref(), 0..100, 1, 42);
        cat.register("t", t.with_replaced_column(1, dirty).unwrap());
        let ctx = QueryContext::new();
        // Slice 1 covers only "k": clean, no wrap.
        let first = svc.scrub(&cat, 1, &ctx).unwrap();
        assert_eq!((first.checks, first.violations.len(), first.wrapped), (1, 0, false));
        // Slice 2 resumes at "v" and trips over the flip.
        let second = svc.scrub(&cat, 1, &ctx).unwrap();
        assert_eq!(second.checks, 1);
        assert_eq!(second.violations.len(), 1);
        assert!(second.wrapped, "cursor wrapped after the last unit");
        let (table, v) = &second.violations[0];
        assert_eq!((table.as_str(), v.column.as_str(), v.chunk), ("t", "v", 0));
        assert_ne!(v.expected, v.actual);
        assert_eq!(svc.metrics().counter("integrity_failures_total"), 1);
    }

    #[test]
    fn scrubber_respects_cancellation_but_keeps_progress() {
        let svc = tiny(1, 1000, 8);
        let cat = sealed_scrub_catalog(100);
        let token = CancelToken::new();
        let ctx = QueryContext::new().with_cancel_token(token.clone());
        token.cancel();
        let err = svc.scrub(&cat, 64, &ctx).unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
        // A fresh context picks up at the persisted cursor.
        let r = svc.scrub(&cat, 64, &QueryContext::new()).unwrap();
        assert_eq!(r.checks, 2);
    }
}
