//! Fault injection and recovery policy for the WIMPI cluster.
//!
//! The paper's §III-C4 observes that node failures "almost always resulted
//! from virtual memory exhaustion" — and the cluster's data layout makes
//! every failure recoverable: all non-lineitem tables are fully replicated
//! (§II-D2) and each lineitem partition is regenerable on any node via the
//! chunk-deterministic generator (`Generator::orders_lineitem_chunk`). This
//! module provides the two pieces the one recovery machine behind
//! [`crate::WimpiCluster::run_with`] and the serving coordinator consumes:
//!
//! * a seeded, deterministic [`FaultPlan`] scheduling per-node crash,
//!   transient-OOM, slow-node (straggler), degraded-NIC and bit-flip
//!   faults, and
//! * a [`RecoveryPolicy`] bounding retries (each waiting
//!   [`wimpi_engine::backoff_s`] *simulated* seconds), reroutes, straggler
//!   speculation, and degraded-mode (partial-answer) behaviour, beside the
//!   fixed [`DETECT_S`] and [`STRAGGLER_THRESHOLD`].
//!
//! Everything here is about the simulated clock; no wall-clock time enters
//! the model.

use wimpi_storage::SplitMix64;

/// One kind of injected fault on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanent node loss: the node never answers; its lineitem partition
    /// must be regenerated on a survivor.
    Crash,
    /// The node's first `failures` execution attempts abort with an
    /// out-of-memory error (the paper's dominant failure mode), after which
    /// the node succeeds. Recoverable by retrying with backoff while
    /// `failures <=` [`MAX_RETRIES`]; beyond that the node
    /// is declared dead and its partition reassigned.
    TransientOom {
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// The node still answers, but runs `multiplier`× slower (thermal
    /// throttling, a failing SD card). Subject to speculative re-execution
    /// past [`STRAGGLER_THRESHOLD`].
    SlowNode {
        /// Runtime multiplier, ≥ 1.
        multiplier: f64,
    },
    /// The node's NIC ships partials `multiplier`× slower than the modelled
    /// 220 Mbps link.
    DegradedNic {
        /// Transfer-time multiplier, ≥ 1.
        multiplier: f64,
    },
    /// Silent data corruption: seeded bit flips in `chunks` resident column
    /// chunks of the node's data (column payloads, a string dictionary, or
    /// the integrity manifest itself — non-ECC LPDDR and microSD media make
    /// this a *when*, not an *if*, on the paper's hardware). Unlike every
    /// other kind it produces **no error** — only wrong bytes. Detection
    /// requires scan-time checksum verification (DESIGN.md §12); the
    /// recovery engine then quarantines the chunk, repairs it
    /// deterministically (local regeneration or priced peer re-fetch), and
    /// verifies again before answering.
    BitFlip {
        /// How many distinct chunks get corrupted.
        chunks: u32,
        /// Seeded single-bit flips applied per corrupted chunk.
        bits_per_chunk: u32,
    },
}

/// Number of [`FaultKind`] variants — keep in sync with the enum so
/// [`FaultPlan::random`] samples every kind uniformly. (An earlier revision
/// hard-coded `% 4` in the sampler; appending a variant then silently
/// under-sampled it. The `random_plans_cover_every_kind` test pins this.)
const NUM_FAULT_KINDS: u64 = 5;

/// A fault bound to a node index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Target node.
    pub node: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one distributed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (fault-free run).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan that permanently crashes one node.
    pub fn crash(node: usize) -> Self {
        Self::none().with(node, FaultKind::Crash)
    }

    /// Adds a fault (builder style). The first fault registered for a node
    /// wins; later ones for the same node are ignored at query time.
    pub fn with(mut self, node: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault { node, kind });
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault scheduled for `node`, if any (first registered wins).
    pub fn fault(&self, node: usize) -> Option<FaultKind> {
        self.faults.iter().find(|f| f.node == node).map(|f| f.kind)
    }

    /// A seeded chaos schedule against an `nodes`-node cluster: between one
    /// and `nodes - 1` faults on distinct nodes with kinds and parameters
    /// drawn deterministically from `seed`. At least one node is always
    /// left entirely healthy, so single-answer recovery stays possible.
    /// The same `(seed, nodes)` pair always yields the same plan.
    pub fn random(seed: u64, nodes: u32) -> Self {
        let mut rng = SplitMix64::new(seed ^ FAULT_STREAM_SALT);
        let mut plan = Self::none();
        if nodes < 2 {
            return plan; // a 1-node cluster has no survivor to recover on
        }
        let max_faults = (nodes - 1).min(3);
        let count = 1 + (rng.next_u64() % max_faults as u64) as u32;
        let mut targets: Vec<usize> = (0..nodes as usize).collect();
        for k in 0..count as usize {
            // Partial Fisher–Yates: pick the k-th distinct target.
            let j = k + (rng.next_u64() as usize) % (targets.len() - k);
            targets.swap(k, j);
            let node = targets[k];
            let kind = match rng.next_u64() % NUM_FAULT_KINDS {
                0 => FaultKind::Crash,
                1 => FaultKind::TransientOom { failures: 1 + (rng.next_u64() % 2) as u32 },
                2 => FaultKind::SlowNode { multiplier: 2.0 + (rng.next_u64() % 6) as f64 },
                3 => FaultKind::DegradedNic { multiplier: 2.0 + (rng.next_u64() % 4) as f64 },
                _ => FaultKind::BitFlip {
                    chunks: 1 + (rng.next_u64() % 3) as u32,
                    bits_per_chunk: 1 + (rng.next_u64() % 3) as u32,
                },
            };
            plan = plan.with(node, kind);
        }
        plan
    }
}

/// Heartbeat timeout, in simulated seconds, before a crashed node's
/// partition is reassigned.
pub const DETECT_S: f64 = 0.2;

/// Retry budget for transient faults (and for re-running a node whose data
/// failed verification) before the node is declared dead.
pub const MAX_RETRIES: u32 = 3;

/// A slow node past this multiple of the median runtime of the run's
/// non-slow survivors gets a speculative copy of its partition on the
/// least-loaded other node, when [`RecoveryPolicy::speculation`] is on. A
/// query over replicated tables only measures its one partition against
/// its own healthy runtime; a partitioned run with no non-slow survivor
/// makes no copy.
pub const STRAGGLER_THRESHOLD: f64 = 2.0;

/// How the recovery engine responds to faults. All durations are simulated
/// seconds priced alongside the hwsim/net models.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Enables speculative re-execution of stragglers.
    pub speculation: bool,
    /// Most lost partitions a single survivor may absorb before recovery
    /// counts as exhausted (a survivor regenerating many partitions also
    /// multiplies its memory footprint and runtime). `usize::MAX` means
    /// survivors absorb everything.
    pub reassign_cap: usize,
    /// When recovery is exhausted for some partition, return a partial
    /// answer with a coverage fraction instead of an error.
    pub degraded_ok: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { speculation: true, reassign_cap: usize::MAX, degraded_ok: false }
    }
}

impl RecoveryPolicy {
    /// A policy that tolerates partial answers (degraded mode).
    pub fn degraded() -> Self {
        Self { degraded_ok: true, ..Self::default() }
    }
}

/// One partition (or single-node query) moved to a surviving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reassignment {
    /// The lost lineitem chunk index (or 0 for a single-node query).
    pub partition: usize,
    /// The surviving node that regenerated and executed it.
    pub to: usize,
}

/// Recovery bookkeeping attached to a [`crate::DistRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Failed attempts retried (transient faults).
    pub retries: u32,
    /// Speculative re-executions that beat their straggler.
    pub speculated: u32,
    /// Partitions regenerated and executed away from their home node.
    pub reassignments: Vec<Reassignment>,
    /// Extra simulated seconds attributable to recovery: detection and
    /// backoff delays, partition regeneration (hwsim + microSD pricing),
    /// re-execution of lost or speculated partitions, and degraded-NIC
    /// shipping overhead. Not all of it lands on the critical path.
    pub recovery_seconds: f64,
    /// Simulated seconds of duplicate work performed and then thrown away
    /// when a speculated straggler's original run was cooperatively
    /// cancelled (take-whichever-finishes-first keeps both copies running
    /// until one wins; the loser's work up to the cancellation point is
    /// pure waste, and this is where it is accounted).
    pub cancelled_work_seconds: f64,
    /// Executions that only completed under a reduced memory budget: the
    /// memory model predicted a hard OOM at full scale, and the engine's
    /// governed retry degraded joins/aggregates to Grace-partitioned builds
    /// that fit.
    pub budget_degraded: u32,
    /// Fraction of lineitem rows the answer covers (1.0 unless degraded).
    pub coverage: f64,
    /// True when recovery was exhausted and the answer is partial.
    pub degraded: bool,
    /// Corrupt chunks detected by scan-time checksum verification
    /// ([`FaultKind::BitFlip`] injections caught before they could poison
    /// an answer).
    pub integrity_detected: u32,
    /// Corrupt chunks repaired (regenerated or peer-refetched) and
    /// re-verified clean. Equals `integrity_detected` unless repair was
    /// exhausted and the run degraded.
    pub integrity_repaired: u32,
}

impl Default for RecoveryReport {
    fn default() -> Self {
        Self {
            retries: 0,
            speculated: 0,
            reassignments: Vec::new(),
            recovery_seconds: 0.0,
            cancelled_work_seconds: 0.0,
            budget_degraded: 0,
            coverage: 1.0,
            degraded: false,
            integrity_detected: 0,
            integrity_repaired: 0,
        }
    }
}

/// Domain-separation salt so fault streams never collide with data streams.
const FAULT_STREAM_SALT: u64 = 0x57a6_1efa_0b5e_55ed;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(42, 8);
        let b = FaultPlan::random(42, 8);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn random_plans_leave_a_survivor() {
        for seed in 0..200 {
            for nodes in 2u32..=9 {
                let plan = FaultPlan::random(seed, nodes);
                let crashed = (0..nodes as usize).filter(|&n| plan.fault(n).is_some()).count();
                assert!(crashed < nodes as usize, "seed {seed} nodes {nodes}");
            }
        }
    }

    #[test]
    fn first_fault_per_node_wins() {
        let plan = FaultPlan::crash(1).with(1, FaultKind::SlowNode { multiplier: 4.0 });
        assert_eq!(plan.fault(1), Some(FaultKind::Crash));
        assert_eq!(plan.fault(0), None);
    }

    #[test]
    fn single_node_cluster_gets_no_faults() {
        assert!(FaultPlan::random(7, 1).is_empty());
    }

    #[test]
    fn random_plans_cover_every_kind() {
        // Uniform sampling over all variants: each kind must appear, and no
        // kind may be starved to below half its fair share. (The old `% 4`
        // sampler gave an appended fifth kind a 0% share.)
        let mut counts = [0usize; NUM_FAULT_KINDS as usize];
        let mut total = 0usize;
        for seed in 0..400u64 {
            for f in FaultPlan::random(seed, 6).faults() {
                let k = match f.kind {
                    FaultKind::Crash => 0,
                    FaultKind::TransientOom { .. } => 1,
                    FaultKind::SlowNode { .. } => 2,
                    FaultKind::DegradedNic { .. } => 3,
                    FaultKind::BitFlip { .. } => 4,
                };
                counts[k] += 1;
                total += 1;
            }
        }
        let fair = total / NUM_FAULT_KINDS as usize;
        for (k, &c) in counts.iter().enumerate() {
            assert!(c > fair / 2, "kind {k} under-sampled: {c} of {total}");
        }
    }

    #[test]
    fn bit_flip_plans_parameterize_sensibly() {
        let mut seen = false;
        for seed in 0..200u64 {
            for f in FaultPlan::random(seed, 5).faults() {
                if let FaultKind::BitFlip { chunks, bits_per_chunk } = f.kind {
                    seen = true;
                    assert!((1..=3).contains(&chunks), "seed {seed}");
                    assert!((1..=3).contains(&bits_per_chunk), "seed {seed}");
                }
            }
        }
        assert!(seen, "200 seeds must surface at least one BitFlip");
    }

    #[test]
    fn random_plan_for_a_pinned_seed_is_golden() {
        // Pins the exact sampling stream: any change to the RNG salt, the
        // Fisher–Yates target draw, or the kind/parameter draws (including
        // the `% NUM_FAULT_KINDS` uniform-sampling fix from the integrity
        // PR) shows up here as a diff, not as silently shifted chaos runs.
        let got = FaultPlan::random(9, 24);
        let want = FaultPlan::none()
            .with(22, FaultKind::TransientOom { failures: 2 })
            .with(11, FaultKind::SlowNode { multiplier: 7.0 });
        assert_eq!(got, want);
    }

    #[test]
    fn fixed_seed_window_samples_all_five_kinds_at_chaos_scale() {
        // The chaos bench sweeps small consecutive seed windows against the
        // paper's 24-node rack; every fault kind (BitFlip included) must
        // show up inside one such window or whole chaos ladders would never
        // exercise a recovery path.
        let mut seen = [false; NUM_FAULT_KINDS as usize];
        for seed in 0..64u64 {
            for f in FaultPlan::random(seed, 24).faults() {
                let k = match f.kind {
                    FaultKind::Crash => 0,
                    FaultKind::TransientOom { .. } => 1,
                    FaultKind::SlowNode { .. } => 2,
                    FaultKind::DegradedNic { .. } => 3,
                    FaultKind::BitFlip { .. } => 4,
                };
                seen[k] = true;
            }
        }
        assert_eq!(seen, [true; NUM_FAULT_KINDS as usize], "kinds seen: {seen:?}");
    }
}
