//! The resource governor: measured per-query memory budgets and cooperative
//! cancellation, threaded through every operator.
//!
//! The paper's §III-C4 failure analysis found that wimpy-node deaths "almost
//! always resulted from virtual memory thrashing" — 1 GB Pis do not get to
//! allocate optimistically. PR 1 *modeled* that pressure in the cluster's
//! [`MemoryModel`]; this module *governs* it inside the engine:
//!
//! - [`MemoryReservation`] is an atomic reserve/release tracker with a
//!   high-water mark. Morsel workers share one tracker through an `Arc`, so
//!   the budget is per-query, not per-thread.
//! - [`Reservation`] is the RAII guard operators hold across a large
//!   allocation (join build table, aggregate hash table, sort key buffer,
//!   materialized intermediate). Dropping it releases the bytes.
//! - [`QueryContext`] bundles the budget with a [`CancelToken`] and an
//!   optional deadline, and is what `exec::execute`/`run_governed` thread
//!   through the operator tree. Operators call [`QueryContext::checkpoint`]
//!   at morsel boundaries; a cancelled or expired query returns
//!   `EngineError::Cancelled` with the catalog untouched.
//!
//! ## Determinism
//!
//! All *decisions* (reserve vs. Grace fallback, partition counts) happen on
//! the coordinator thread, from row counts that do not depend on the thread
//! count — so a budget-constrained plan takes the same path at 1, 2, or 64
//! threads, and its output is bit-exact vs. the unconstrained run whenever it
//! completes. Worker threads only *observe* cancellation (a relaxed load);
//! they never flip shared state.
//!
//! [`MemoryModel`]: ../../wimpi_cluster/struct.MemoryModel.html

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wimpi_storage::spill::SpillDisk;

use crate::error::{EngineError, Result};

/// Sentinel budget meaning "no limit" (the default).
pub const UNLIMITED: u64 = u64::MAX;

/// Thread-safe reserve/release accounting against a fixed byte budget.
///
/// `try_reserve` either admits the whole request or leaves the tracker
/// unchanged — a failed reservation never inflates `used` — and the
/// high-water mark ratchets up under the same successful CAS, so it is
/// exactly the maximum prefix sum of the reserve/release history.
#[derive(Debug)]
pub struct MemoryReservation {
    budget: u64,
    used: AtomicU64,
    high_water: AtomicU64,
    /// Peak of *reserved* bytes alone — the anonymous operator scratch that
    /// would hard-OOM a swap-off node — excluding [`QueryContext::track`]ed
    /// intermediates, which only add pressure.
    hard_high_water: AtomicU64,
}

impl Default for MemoryReservation {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MemoryReservation {
    /// A tracker that admits everything but still measures the peak.
    pub fn unlimited() -> Self {
        Self::with_budget(UNLIMITED)
    }

    /// A tracker enforcing `budget` bytes.
    pub fn with_budget(budget: u64) -> Self {
        MemoryReservation {
            budget,
            used: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            hard_high_water: AtomicU64::new(0),
        }
    }

    /// The configured budget ([`UNLIMITED`] when unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    /// The maximum `used` ever observed — the measured peak.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }

    /// The peak of *reserved* bytes alone (hash tables, key buffers —
    /// anonymous allocations that hard-OOM a swap-off node), excluding
    /// tracked intermediates. Always `<=` [`high_water`](Self::high_water).
    pub fn hard_high_water(&self) -> u64 {
        self.hard_high_water.load(Ordering::Acquire)
    }

    /// Reserves `bytes` if the budget allows, returning whether it did.
    /// All-or-nothing: a rejected request leaves `used` untouched.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            let Some(next) = cur.checked_add(bytes) else { return false };
            if next > self.budget {
                return false;
            }
            match self.used.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.high_water.fetch_max(next, Ordering::AcqRel);
                    self.hard_high_water.fetch_max(next, Ordering::AcqRel);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `bytes` previously reserved. Saturates at zero so a buggy
    /// double-release cannot wrap the counter (debug builds assert instead).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            debug_assert!(cur >= bytes, "release of {bytes} bytes with only {cur} reserved");
            let next = cur.saturating_sub(bytes);
            match self.used.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// RAII guard over bytes reserved from a shared [`MemoryReservation`].
/// Dropping it gives the bytes back — including on the error/unwind path, so
/// a failed or cancelled query leaves the budget exactly restored.
#[derive(Debug)]
pub struct Reservation {
    tracker: Arc<MemoryReservation>,
    bytes: u64,
}

impl Reservation {
    /// Bytes this guard currently holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grows the reservation by `additional` bytes if the budget allows.
    /// On failure the guard keeps its current size.
    pub fn grow(&mut self, additional: u64) -> bool {
        if self.tracker.try_reserve(additional) {
            self.bytes += additional;
            true
        } else {
            false
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
    }
}

/// Shared cancellation flag, checked cooperatively at morsel boundaries.
///
/// Cloning shares the flag. The `fuse` exists for deterministic tests: a
/// token built with [`CancelToken::after_checks`] trips itself on the n-th
/// *coordinator* checkpoint, which is a thread-count-independent event.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Checkpoints remaining before self-cancellation; negative = disarmed.
    fuse: AtomicI64,
}

impl Default for CancelInner {
    fn default() -> Self {
        CancelInner { cancelled: AtomicBool::new(false), fuse: AtomicI64::new(-1) }
    }
}

impl CancelToken {
    /// A token that never fires until [`cancel`](CancelToken::cancel) is
    /// called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that cancels itself at the `n`-th coordinator checkpoint
    /// (`n = 0` is cancelled immediately). Checkpoint counts depend only on
    /// the plan and the data, never on the thread count, so tests can cut a
    /// query at an exactly reproducible point.
    pub fn after_checks(n: u64) -> Self {
        let t = Self::new();
        t.inner.fuse.store(n as i64, Ordering::Release);
        t
    }

    /// Signals cancellation. Idempotent; takes effect at the workers' next
    /// morsel boundary.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once cancelled (externally or by a burnt fuse).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// One coordinator checkpoint: burns a fuse step if armed, then reports
    /// the flag. Only [`QueryContext::checkpoint`] calls this.
    fn poll(&self) -> bool {
        let fuse = self.inner.fuse.load(Ordering::Acquire);
        if fuse >= 0 {
            if fuse == 0 {
                self.inner.cancelled.store(true, Ordering::Release);
            } else {
                self.inner.fuse.store(fuse - 1, Ordering::Release);
            }
        }
        self.is_cancelled()
    }
}

/// Everything the engine needs to govern one query: the shared memory
/// tracker, the cancellation token, and an optional wall-clock deadline.
///
/// The default context is unlimited and never cancels — exactly the
/// pre-governor engine, which is why the ungoverned entry points simply pass
/// `QueryContext::default()`.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// Shared budget tracker; morsel workers hold clones of this `Arc`.
    pub mem: Arc<MemoryReservation>,
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Absolute deadline; queries past it return `Cancelled`.
    pub deadline: Option<Instant>,
    /// Operators that answered below their resident path: a join or
    /// aggregate that descended the ladder (`exec::ladder`) and fit, or a
    /// sort that merged externally — telemetry, not control flow.
    fallbacks: Arc<AtomicU32>,
    /// Largest partition fan-out (or sort run count) any fallback settled at.
    max_parts: Arc<AtomicU32>,
    /// Chunk checksum comparisons performed by scan-time verification
    /// (DESIGN.md §12) — telemetry the service/cluster ledgers fold into
    /// their `integrity_checks_total` counters.
    integrity_checks: Arc<AtomicU64>,
    /// Optional spill disk (DESIGN.md §16). When present, the ladder's cap
    /// rises from 1024 to 2¹⁶ partitions — attempts past 1024 stage their
    /// partitions here — and sorts that cannot reserve merge externally;
    /// when absent the pre-spill cliff behaviour is unchanged.
    spill: Option<Arc<SpillDisk>>,
}

impl QueryContext {
    /// An unconstrained context (measures peaks, admits everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// A context enforcing `budget` bytes of operator scratch memory.
    pub fn with_budget(budget: u64) -> Self {
        QueryContext { mem: Arc::new(MemoryReservation::with_budget(budget)), ..Self::default() }
    }

    /// Attaches an externally owned cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }

    /// Attaches a spill disk, enabling the out-of-core rung past Grace.
    pub fn with_spill(mut self, disk: Arc<SpillDisk>) -> Self {
        self.spill = Some(disk);
        self
    }

    /// The attached spill disk, if any.
    pub fn spill(&self) -> Option<&Arc<SpillDisk>> {
        self.spill.as_ref()
    }

    /// The configured budget ([`UNLIMITED`] when unbounded).
    pub fn budget(&self) -> u64 {
        self.mem.budget()
    }

    /// The measured peak reservation so far (bytes), tracked intermediates
    /// included.
    pub fn high_water(&self) -> u64 {
        self.mem.high_water()
    }

    /// The measured peak of reserved operator scratch alone (see
    /// [`MemoryReservation::hard_high_water`]).
    pub fn hard_high_water(&self) -> u64 {
        self.mem.hard_high_water()
    }

    /// Bytes currently reserved (0 once a query finished or failed cleanly).
    pub fn used(&self) -> u64 {
        self.mem.used()
    }

    /// Reserves `bytes` for `operator`, or fails with the typed
    /// `ResourceExhausted` error. Operators with a graceful fallback should
    /// use [`try_reserve`](QueryContext::try_reserve) instead.
    pub fn reserve(&self, bytes: u64, operator: &str) -> Result<Reservation> {
        self.try_reserve(bytes).ok_or_else(|| EngineError::ResourceExhausted {
            requested: bytes,
            budget: self.budget(),
            operator: operator.to_string(),
        })
    }

    /// Reserves `bytes` if the budget allows, returning the RAII guard.
    pub fn try_reserve(&self, bytes: u64) -> Option<Reservation> {
        if self.mem.try_reserve(bytes) {
            Some(Reservation { tracker: Arc::clone(&self.mem), bytes })
        } else {
            None
        }
    }

    /// Records `bytes` of materialized output against the high-water mark
    /// without capping it. Intermediates must exist for the query to mean
    /// anything; the budget governs the *operator scratch* (hash tables, key
    /// buffers) that Grace partitioning can actually shrink — mirroring the
    /// cluster's `MemoryModel`, where only transient bytes hard-OOM.
    pub fn track(&self, bytes: u64) {
        // Bypass the cap: add, ratchet the peak, release.
        let next = self.mem.used.fetch_add(bytes, Ordering::AcqRel).saturating_add(bytes);
        self.mem.high_water.fetch_max(next, Ordering::AcqRel);
        self.mem.used.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Coordinator-side cancellation/deadline check; returns
    /// `Err(Cancelled)` once the token fired or the deadline passed.
    /// Checkpoint counts are deterministic (plan- and data-dependent only),
    /// which is what makes [`CancelToken::after_checks`] reproducible.
    pub fn checkpoint(&self) -> Result<()> {
        if self.cancel.poll() {
            return Err(EngineError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel.cancel();
                return Err(EngineError::Cancelled);
            }
        }
        Ok(())
    }

    /// Worker-side read-only probe: true once cancellation was signalled.
    /// Never burns the fuse (workers race; the fuse must stay deterministic).
    pub fn interrupted(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Notes one operator that answered below its resident path, at fan-out
    /// (or sort run count) `nparts`.
    pub fn note_fallback(&self, nparts: u32) {
        self.fallbacks.fetch_add(1, Ordering::AcqRel);
        self.max_parts.fetch_max(nparts, Ordering::AcqRel);
    }

    /// How many operators degraded to the partitioned fallback.
    pub fn fallbacks(&self) -> u32 {
        self.fallbacks.load(Ordering::Acquire)
    }

    /// The largest partition fan-out any fallback used (0 = none).
    pub fn max_fallback_parts(&self) -> u32 {
        self.max_parts.load(Ordering::Acquire)
    }

    /// Notes `n` chunk checksum comparisons performed by a verifying scan.
    pub fn note_integrity_checks(&self, n: u64) {
        self.integrity_checks.fetch_add(n, Ordering::AcqRel);
    }

    /// Chunk checksum comparisons this context's queries performed (0 when
    /// verification is off or no scanned table carries a manifest).
    pub fn integrity_checks(&self) -> u64 {
        self.integrity_checks.load(Ordering::Acquire)
    }
}

/// Why a budget string did not parse (see [`parse_budget`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetParseError {
    /// The string was empty (or all whitespace).
    Empty,
    /// The number or unit suffix was unrecognizable.
    Malformed(String),
    /// The value parsed but is zero or negative — a budget must grant at
    /// least one byte. (Shells spell "no limit" out of band, e.g.
    /// `SET memory_budget = unlimited`.)
    NonPositive(String),
}

impl std::fmt::Display for BudgetParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetParseError::Empty => write!(f, "empty budget string"),
            BudgetParseError::Malformed(s) => {
                write!(f, "malformed budget {s:?} (want e.g. 64K, 1.5GiB, 0.5MB, 1048576)")
            }
            BudgetParseError::NonPositive(s) => {
                write!(f, "budget {s:?} is not positive (a budget grants at least one byte)")
            }
        }
    }
}

impl std::error::Error for BudgetParseError {}

/// Parses a byte budget: a positive (possibly fractional) number with an
/// optional unit. `K`/`KiB`-style suffixes are powers of 1024, `KB`-style
/// are powers of 1000, both case-insensitive: `64K`, `1.5GiB`, `0.5MB`,
/// `1048576`. Zero and negative values are rejected with a typed error —
/// "unlimited" is not a number here. Used by the shell's
/// `SET memory_budget`; the engine core itself never reads the environment.
pub fn parse_budget(s: &str) -> std::result::Result<u64, BudgetParseError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(BudgetParseError::Empty);
    }
    let split = s.len() - s.bytes().rev().take_while(|b| b.is_ascii_alphabetic()).count();
    let (num, unit) = (s[..split].trim(), &s[split..]);
    let mult: u64 = match unit.to_ascii_lowercase().as_str() {
        "" | "b" => 1,
        "k" | "kib" => 1 << 10,
        "m" | "mib" => 1 << 20,
        "g" | "gib" => 1 << 30,
        "kb" => 1_000,
        "mb" => 1_000_000,
        "gb" => 1_000_000_000,
        _ => return Err(BudgetParseError::Malformed(s.to_string())),
    };
    let v: f64 = num.parse().map_err(|_| BudgetParseError::Malformed(s.to_string()))?;
    if !v.is_finite() {
        return Err(BudgetParseError::Malformed(s.to_string()));
    }
    if v <= 0.0 {
        return Err(BudgetParseError::NonPositive(s.to_string()));
    }
    let bytes = (v * mult as f64).round();
    if bytes < 1.0 {
        return Err(BudgetParseError::NonPositive(s.to_string()));
    }
    Ok(bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip_restores_budget() {
        let t = MemoryReservation::with_budget(1000);
        assert!(t.try_reserve(600));
        assert!(!t.try_reserve(500), "would exceed budget");
        assert!(t.try_reserve(400));
        assert_eq!(t.used(), 1000);
        t.release(600);
        t.release(400);
        assert_eq!(t.used(), 0);
        assert_eq!(t.high_water(), 1000);
    }

    #[test]
    fn failed_reserve_leaves_tracker_unchanged() {
        let t = MemoryReservation::with_budget(100);
        assert!(t.try_reserve(100));
        assert!(!t.try_reserve(1));
        assert_eq!(t.used(), 100);
        assert_eq!(t.high_water(), 100);
    }

    #[test]
    fn unlimited_admits_and_measures() {
        let t = MemoryReservation::unlimited();
        assert!(t.try_reserve(1 << 40));
        assert_eq!(t.high_water(), 1 << 40);
        t.release(1 << 40);
        assert_eq!(t.used(), 0);
    }

    #[test]
    fn reservation_guard_releases_on_drop() {
        let ctx = QueryContext::with_budget(1000);
        {
            let mut g = ctx.try_reserve(300).expect("fits");
            assert!(g.grow(700));
            assert!(!g.grow(1), "budget full");
            assert_eq!(g.bytes(), 1000);
        }
        assert_eq!(ctx.mem.used(), 0, "drop released everything");
        assert_eq!(ctx.high_water(), 1000);
    }

    #[test]
    fn reserve_error_is_typed() {
        let ctx = QueryContext::with_budget(10);
        let err = ctx.reserve(64, "join build").unwrap_err();
        assert_eq!(
            err,
            EngineError::ResourceExhausted {
                requested: 64,
                budget: 10,
                operator: "join build".to_string()
            }
        );
    }

    #[test]
    fn track_ratchets_peak_without_capping() {
        let ctx = QueryContext::with_budget(10);
        ctx.track(1_000_000);
        assert_eq!(ctx.mem.used(), 0);
        assert_eq!(ctx.high_water(), 1_000_000);
        // The cap still applies to reservations.
        assert!(ctx.try_reserve(11).is_none());
    }

    #[test]
    fn hard_high_water_excludes_tracked_intermediates() {
        let ctx = QueryContext::new();
        ctx.track(1 << 20);
        let g = ctx.try_reserve(4096).expect("unlimited");
        drop(g);
        assert_eq!(ctx.high_water(), 1 << 20);
        assert_eq!(ctx.hard_high_water(), 4096);
    }

    #[test]
    fn cancel_token_fires_at_checkpoints() {
        let ctx = QueryContext::new().with_cancel_token(CancelToken::after_checks(2));
        assert!(ctx.checkpoint().is_ok());
        assert!(ctx.checkpoint().is_ok());
        assert_eq!(ctx.checkpoint(), Err(EngineError::Cancelled));
        // Sticky.
        assert_eq!(ctx.checkpoint(), Err(EngineError::Cancelled));
        assert!(ctx.interrupted());
    }

    #[test]
    fn external_cancel_and_deadline() {
        let token = CancelToken::new();
        let ctx = QueryContext::new().with_cancel_token(token.clone());
        assert!(ctx.checkpoint().is_ok());
        token.cancel();
        assert_eq!(ctx.checkpoint(), Err(EngineError::Cancelled));

        let past = Instant::now() - Duration::from_millis(1);
        let ctx = QueryContext::new().with_deadline(past);
        assert_eq!(ctx.checkpoint(), Err(EngineError::Cancelled));
        assert!(ctx.cancel.is_cancelled(), "deadline expiry signals workers too");
    }

    #[test]
    fn interrupted_never_burns_the_fuse() {
        let ctx = QueryContext::new().with_cancel_token(CancelToken::after_checks(1));
        for _ in 0..100 {
            assert!(!ctx.interrupted());
        }
        assert!(ctx.checkpoint().is_ok());
        assert_eq!(ctx.checkpoint(), Err(EngineError::Cancelled));
    }

    #[test]
    fn fallback_telemetry_accumulates() {
        let ctx = QueryContext::new();
        assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (0, 0));
        ctx.note_fallback(4);
        ctx.note_fallback(16);
        ctx.note_fallback(8);
        assert_eq!((ctx.fallbacks(), ctx.max_fallback_parts()), (3, 16));
    }

    #[test]
    fn budget_parsing() {
        assert_eq!(parse_budget("1048576"), Ok(1 << 20));
        assert_eq!(parse_budget("64K"), Ok(64 << 10));
        assert_eq!(parse_budget("16m"), Ok(16 << 20));
        assert_eq!(parse_budget("1G"), Ok(1 << 30));
        assert_eq!(parse_budget("1.5K"), Ok(1536));
        assert_eq!(parse_budget("  512 b "), Ok(512));
    }

    #[test]
    fn budget_parsing_fractional_units() {
        assert_eq!(parse_budget("1.5GiB"), Ok(3 << 29)); // 1.5 × 2^30
        assert_eq!(parse_budget("0.5MB"), Ok(500_000)); // SI: powers of 1000
        assert_eq!(parse_budget("0.5MiB"), Ok(512 << 10));
        assert_eq!(parse_budget("2kb"), Ok(2_000));
        assert_eq!(parse_budget("0.25k"), Ok(256));
    }

    #[test]
    fn budget_parsing_rejects_with_typed_errors() {
        assert_eq!(parse_budget(""), Err(BudgetParseError::Empty));
        assert_eq!(parse_budget("   "), Err(BudgetParseError::Empty));
        assert_eq!(parse_budget("chunky"), Err(BudgetParseError::Malformed("chunky".into())));
        assert_eq!(parse_budget("1X"), Err(BudgetParseError::Malformed("1X".into())));
        assert_eq!(parse_budget("nanG"), Err(BudgetParseError::Malformed("nanG".into())));
        assert_eq!(parse_budget("infG"), Err(BudgetParseError::Malformed("infG".into())));
        assert_eq!(parse_budget("0"), Err(BudgetParseError::NonPositive("0".into())));
        assert_eq!(parse_budget("-1"), Err(BudgetParseError::NonPositive("-1".into())));
        assert_eq!(parse_budget("-1.5G"), Err(BudgetParseError::NonPositive("-1.5G".into())));
        assert_eq!(
            parse_budget("0.4"),
            Err(BudgetParseError::NonPositive("0.4".into())),
            "rounds to zero bytes"
        );
    }
}
