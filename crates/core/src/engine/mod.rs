//! Execution engines: the machinery that drives target models under a
//! slack scheme.
//!
//! The kernel is generic over the simulated hardware through two traits:
//!
//! * [`CoreModel`] — one instance per target core, advanced cycle by cycle
//!   by its (logical or physical) core thread;
//! * [`UncoreModel`] — the shared portion of the target (lower cache
//!   levels, interconnect, synchronisation device), advanced by the
//!   simulation manager as events arrive.
//!
//! Two drivers execute the same semantics. The simulation manager's
//! work — event service, violation accounting, adaptive sampling,
//! checkpoint, rollback and replay, observation, the report — lives once,
//! in the `kernel` module (DESIGN §19); each driver only decides which
//! core ticks when and on which host thread:
//!
//! * [`SequentialEngine`] runs everything
//!   on the calling thread, emulating host-scheduling nondeterminism with a
//!   seeded burst scheduler — fully reproducible, used for the accuracy
//!   experiments (Figures 3) and as the reference the others are checked
//!   against;
//! * [`BatchedEngine`] is the host-parallel one: each core runs a whole
//!   window in one [`CoreModel::run_window`] call with cross-core events
//!   staged locally and serviced only at the window's end — a quantum
//!   (cycle-by-cycle being a quantum of one) serviced in timestamp order,
//!   or a greedy scheme's seeded round serviced in a seeded core order
//!   (DESIGN §10, §15) — on a static partition of host threads
//!   ([`EngineConfig::host_threads`]), with the same result at any count.
//!   [`ThreadedEngine`] is its name for the wall-clock experiments
//!   (Figure 4, Tables 2–5).

mod batched;
mod kernel;
mod merge;
mod sequential;
mod wait;

pub use batched::BatchedEngine;
pub use sequential::SequentialEngine;

/// The paper's CMP-on-CMP execution, target cores on host threads: the
/// [`BatchedEngine`] under the name the wall-clock experiments use.
pub type ThreadedEngine<C, U> = BatchedEngine<C, U>;

use std::fmt;

use crate::event::{CoreId, Inbox, Timestamped};
use crate::rng::Xoshiro256;
use crate::scheme::{Pacer, Scheme};
use crate::speculative::{IntervalTracker, SpeculationConfig, SpeculationStats};
use crate::stats::Counters;
use crate::time::Cycle;
use crate::violation::{ViolationEvent, ViolationTally};

/// Per-cycle execution context handed to [`CoreModel::tick`].
///
/// Provides the core's local time, access to due incoming events, and the
/// outgoing event buffer (the core's *OutQ*).
#[derive(Debug)]
pub struct TickCtx<'a, E> {
    now: Cycle,
    inbox: &'a mut Inbox<E>,
    outbox: &'a mut Vec<Timestamped<E>>,
}

impl<'a, E> TickCtx<'a, E> {
    /// Creates a context for simulating the cycle at `now`.
    pub fn new(now: Cycle, inbox: &'a mut Inbox<E>, outbox: &'a mut Vec<Timestamped<E>>) -> Self {
        TickCtx { now, inbox, outbox }
    }

    /// The core's local time: the cycle being simulated.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Pops the next incoming event due at or before the current cycle.
    ///
    /// An event whose timestamp has already passed (the core ran ahead of
    /// the manager under slack) is returned immediately; the model applies
    /// it at the current local time — the paper's simulated-time
    /// distortion.
    #[inline]
    pub fn pop_event(&mut self) -> Option<Timestamped<E>> {
        self.inbox.pop_due(self.now)
    }

    /// Emits an event stamped with the current local time.
    #[inline]
    pub fn emit(&mut self, payload: E) {
        self.outbox.push(Timestamped::new(self.now, payload));
    }

    /// Number of pending (not yet due) incoming events.
    pub fn pending_events(&self) -> usize {
        self.inbox.len()
    }
}

/// A simulated target core: owns all core-private state (pipeline, L1
/// caches, workload position) and advances one cycle per [`tick`] call.
///
/// Models must be [`Clone`] so the engines can take checkpoint snapshots,
/// and [`Send`] so the window loop can step them on its worker threads.
///
/// [`tick`]: CoreModel::tick
pub trait CoreModel: Clone + Send + 'static {
    /// The event payload exchanged with the uncore via OutQ/InQ.
    type Event: Send + Clone + fmt::Debug + 'static;

    /// Simulates exactly one target-clock cycle at `ctx.now()` and returns
    /// the number of instructions committed during that cycle.
    ///
    /// The model must consume every due incoming event (via
    /// [`TickCtx::pop_event`]) before or while simulating the cycle.
    fn tick(&mut self, ctx: &mut TickCtx<'_, Self::Event>) -> u32;

    /// Simulates every cycle in `[from, to)` in one call, emitting into
    /// `staged` (the core's staging buffer), and returns the number of
    /// instructions committed over the window.
    ///
    /// This is how every host-parallel core runs: a quantum, or a greedy
    /// round's burst. Within the window the core sees only the events
    /// already in its inbox — exactly the quantum scheme's contract, where
    /// cross-core interaction is deferred to the next boundary; under
    /// slack, what arrives during a burst is applied in the next. The default implementation ticks cycle by cycle and
    /// is always semantically correct; models may override it with an
    /// equivalent fast-forwarding loop (the override must stay
    /// bit-identical to the tick loop — see the conformance oracle).
    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<Self::Event>,
        staged: &mut Vec<Timestamped<Self::Event>>,
    ) -> u64 {
        let mut committed = 0u64;
        let mut now = from;
        while now < to {
            let mut ctx = TickCtx::new(now, inbox, staged);
            committed += u64::from(self.tick(&mut ctx));
            now += 1;
        }
        committed
    }

    /// Total instructions committed by this core so far.
    fn committed(&self) -> u64;

    /// Model statistics for the final report.
    fn counters(&self) -> Counters;
}

/// Responses produced while servicing one event: deliveries back to cores
/// plus any violations the model's monitors detected.
#[derive(Debug)]
pub struct ServiceSink<E> {
    deliveries: Vec<(CoreId, Timestamped<E>)>,
    violations: Vec<ViolationEvent>,
}

impl<E> ServiceSink<E> {
    /// Creates an empty sink.
    pub fn new() -> Self {
        ServiceSink {
            deliveries: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Queues an event for delivery to `to`'s InQ.
    #[inline]
    pub fn deliver(&mut self, to: CoreId, ev: Timestamped<E>) {
        self.deliveries.push((to, ev));
    }

    /// Reports a detected simulation violation.
    #[inline]
    pub fn report_violation(&mut self, violation: ViolationEvent) {
        self.violations.push(violation);
    }

    /// Drains the queued deliveries.
    pub fn take_deliveries(&mut self) -> std::vec::Drain<'_, (CoreId, Timestamped<E>)> {
        self.deliveries.drain(..)
    }

    /// Drains the reported violations.
    pub fn take_violations(&mut self) -> std::vec::Drain<'_, ViolationEvent> {
        self.violations.drain(..)
    }
}

impl<E> Default for ServiceSink<E> {
    fn default() -> Self {
        ServiceSink::new()
    }
}

/// The shared (uncore) portion of the target: lower-level caches, the
/// interconnect and the synchronisation device, simulated by the manager.
pub trait UncoreModel<E>: Clone + Send + 'static {
    /// Services one event, in the manager's arrival order. Completion
    /// events and violations go into `sink`.
    fn service(&mut self, from: CoreId, ev: Timestamped<E>, sink: &mut ServiceSink<E>);

    /// Model statistics for the final report.
    fn counters(&self) -> Counters;

    /// Drops violation-monitor entries that can never trip again.
    ///
    /// The engines call this at every committed checkpoint with `horizon`
    /// equal to the checkpoint's global cycle: every operation that can
    /// still arrive — including rollback replays, which restart from this
    /// very checkpoint — carries a timestamp at or past `horizon`, so a
    /// monitor whose high-water mark is at or below it can never flag
    /// again and may be forgotten. Keeps per-line monitor memory (and the
    /// per-checkpoint re-clone cost) flat on long runs. The default does
    /// nothing; models with per-line monitors should override.
    fn compact_monitors(&mut self, _horizon: Cycle) {}
}

/// How the deterministic engine perturbs core scheduling to emulate the
/// host's thread-scheduling nondeterminism.
///
/// Each time a core is selected it advances a *burst* of up to `max_burst`
/// cycles (uniformly drawn, capped by the pacer's window). Larger bursts
/// model coarser host preemption and produce more event reordering at equal
/// slack bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstPolicy {
    /// Maximum burst length in cycles (≥ 1).
    pub max_burst: u64,
    /// Percentage of scheduling decisions that pick the most-lagging
    /// runnable core instead of a uniformly random one (0–100). Models
    /// the host scheduler's long-run fairness: drift between threads
    /// stays bounded even under unbounded slack, as it does on a real
    /// multicore host where every simulation thread owns a hardware
    /// context.
    pub lag_bias_percent: u8,
}

impl BurstPolicy {
    /// Creates a policy with the given maximum burst length and the
    /// default fairness bias.
    ///
    /// # Panics
    ///
    /// Panics if `max_burst` is 0.
    pub fn new(max_burst: u64) -> Self {
        assert!(max_burst >= 1, "max burst must be at least 1");
        BurstPolicy {
            max_burst,
            lag_bias_percent: 50,
        }
    }
}

impl Default for BurstPolicy {
    fn default() -> Self {
        BurstPolicy {
            max_burst: 16,
            lag_bias_percent: 50,
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The aggregate committed-instruction target was reached.
    CommitTarget,
    /// The safety cycle cap was hit first.
    CycleCap,
}

/// Engine configuration shared by all three engines.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The slack scheme pacing the run.
    pub scheme: Scheme,
    /// Stop once this many instructions have been committed across all
    /// cores (the paper simulates 100 M committed instructions).
    pub commit_target: u64,
    /// Hard safety cap on global time; the run reports
    /// [`FinishReason::CycleCap`] if reached first.
    pub max_cycles: u64,
    /// Optional checkpointing / speculation.
    pub speculation: Option<SpeculationConfig>,
    /// Violation sampling period in global cycles for schemes without
    /// their own (adaptive schemes use their configured period).
    pub sample_period: u64,
    /// Implementation cap on how far any core may lead global time under
    /// *greedy* (non-barrier) schemes, in cycles. On the paper's host a
    /// core thread cannot outrun the manager by more than scheduling
    /// noise ("thousands of cycles" under unbounded slack, §1); our ticks
    /// are orders of magnitude cheaper than SimpleScalar's, so without a
    /// cap a spinning core would race millions of cycles ahead of the
    /// manager and distort simulated time. Barrier schemes are unaffected.
    pub max_lead: u64,
    /// Seed for the sequential engine's burst scheduler and the window
    /// loop's greedy rounds (their bursts and service order).
    pub seed: u64,
    /// Burst policy for the sequential engine. The window loop's greedy
    /// rounds draw their burst lengths from `max_burst` too (their core
    /// order is a seeded shuffle, so `lag_bias_percent` does not apply).
    pub burst: BurstPolicy,
    /// Optional observability instrumentation: when set, the engine records
    /// a trace and samples metrics, attaching the result to
    /// `SimReport::obs`. When `None`, instrumentation sites cost one
    /// relaxed atomic load each.
    pub obs: Option<crate::obs::ObsConfig>,
    /// Optional host-time self-profiler. When set (and enabled) the
    /// engines time every [`crate::obs::ProfSite`] with scoped spans and
    /// attach the per-site profile to `SimReport::prof`. When `None`,
    /// every instrumentation site costs one relaxed atomic load.
    pub prof: Option<crate::obs::Profiler>,
    /// Optional live telemetry: when set with at least one sink, the
    /// engines publish progress atomics and spawn a heartbeat emitter
    /// thread for the duration of the run (see [`crate::obs::live`]).
    pub live: Option<crate::obs::LiveConfig>,
    /// Host threads the window loop folds the target cores onto, a
    /// contiguous lane of cores each (the calling thread steps the first).
    /// `0` (the default) takes the host's available parallelism — what an
    /// affinity mask restricts — and any value is capped at the core
    /// count, so a host with a CPU per target core runs the paper's one
    /// thread per core. `1` is the single-threaded loop with no thread,
    /// lock or atomic on it. A host knob only: results are bit-identical
    /// for every value, under every scheme. Ignored by the sequential
    /// engine.
    pub host_threads: usize,
}

impl EngineConfig {
    /// Creates a configuration with the given scheme and commit target and
    /// sensible defaults for everything else.
    pub fn new(scheme: Scheme, commit_target: u64) -> Self {
        EngineConfig {
            scheme,
            commit_target,
            max_cycles: 1 << 40,
            speculation: None,
            sample_period: 1024,
            seed: 1,
            burst: BurstPolicy::default(),
            max_lead: 256,
            obs: None,
            prof: None,
            live: None,
            host_threads: 0,
        }
    }

    /// The greedy-scheme window cap: `global + max_lead` (never below 1).
    pub fn lead_cap(&self, global: Cycle) -> Cycle {
        global.saturating_add(self.max_lead.max(1))
    }

    /// The effective sampling period: an adaptive scheme's own period, or
    /// the engine-level default otherwise.
    pub fn effective_sample_period(&self) -> u64 {
        match &self.scheme {
            Scheme::Adaptive(cfg) => cfg.sample_period.max(1),
            _ => self.sample_period.max(1),
        }
    }
}

/// Errors produced by an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No core was simulated (empty core vector).
    NoCores,
    /// The engine detected that no core could make progress.
    Stalled {
        /// Global time at which progress stopped.
        at: Cycle,
    },
    /// An on-disk snapshot could not be restored (unreadable, corrupt, or
    /// taken under a different run configuration).
    Resume(String),
    /// Durable state saving could not be set up (e.g. the checkpoint
    /// directory could not be created).
    Persist(String),
    /// The run configuration is invalid (e.g. a core count outside the
    /// selected interconnect's supported range).
    Config(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoCores => write!(f, "simulation has no cores"),
            EngineError::Stalled { at } => {
                write!(f, "simulation stalled at global cycle {at}")
            }
            EngineError::Resume(why) => write!(f, "cannot resume: {why}"),
            EngineError::Persist(why) => write!(f, "cannot persist state: {why}"),
            EngineError::Config(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A borrowed view of one committed checkpoint, handed to the engine's
/// save hook (see [`SequentialEngine::with_save_hook`] and
/// [`BatchedEngine::with_save_hook`]) right after the checkpoint commits.
///
/// The view exposes exactly the state a durable snapshot needs: the full
/// model state (cores, pending inboxes, uncore) plus the engine-side
/// bookkeeping that must survive a process restart. At a committed
/// checkpoint every core's local clock equals `global` and the manager's
/// global queue is empty, so the inboxes are the only in-flight events.
pub struct CheckpointView<'a, C: CoreModel, U> {
    /// 1-based checkpoint ordinal (total checkpoints taken so far).
    pub ordinal: u64,
    /// Global cycle the checkpoint was committed at.
    pub global: Cycle,
    /// Per-core model state and pending (undelivered) events.
    pub cores: Vec<(&'a C, &'a Inbox<C::Event>)>,
    /// The shared uncore state.
    pub uncore: &'a U,
    /// Aggregate committed instructions at the checkpoint.
    pub committed: u64,
    /// Violations surviving in the committed timeline.
    pub tally: ViolationTally,
    /// Violations detected overall, including rolled-back work.
    pub detected: ViolationTally,
    /// Next adaptive/violation sampling point in global cycles.
    pub next_sample: u64,
    /// Tally snapshot at the start of the current sampling window.
    pub last_sample_tally: ViolationTally,
    /// Speculation activity so far (checkpoints, rollbacks, …).
    pub spec_stats: SpeculationStats,
    /// Interval statistics (Tables 3/4), when speculation is on.
    pub tracker: Option<&'a IntervalTracker>,
    /// The pacer, carrying any adaptive/peer state.
    pub pacer: &'a dyn Pacer,
    /// The sequential engine's burst-scheduler RNG (`None` on the window
    /// loop, whose draws are stateless).
    pub rng: Option<&'a Xoshiro256>,
    /// Adaptive bound trace accumulated so far.
    pub bound_trace: &'a [(Cycle, u64)],
    /// Largest clock spread observed so far (kernel counter).
    pub max_spread: u64,
}

/// Called at every committed checkpoint with a [`CheckpointView`]; returns
/// the size in bytes of the snapshot container it wrote or queued for
/// writing, or `None` when the snapshot was skipped — the engine records
/// the outcome as a trace event either way and carries on. The engine
/// drops the hook when the run ends, before it reads the run's wall clock:
/// a hook that writes behind the simulation (as
/// [`CheckpointWriter`](crate::persist::CheckpointWriter) does) finishes
/// its last checkpoint in its `Drop`, so `run()` returns only once every
/// checkpoint it reported is on disk or has failed with a warning.
pub type SaveHook<C, U> = Box<dyn FnMut(&CheckpointView<'_, C, U>) -> Option<u64>>;

/// Restored engine state for crash-safe resume: the owned counterpart of
/// [`CheckpointView`], applied at `run()` start in place of fresh state.
pub struct EngineResume<C: CoreModel, U> {
    /// Global cycle to resume from.
    pub global: Cycle,
    /// Per-core model state and pending events.
    pub cores: Vec<(C, Inbox<C::Event>)>,
    /// The shared uncore state.
    pub uncore: U,
    /// Pacer rebuilt from the run's scheme with its dynamic state restored.
    pub pacer: Box<dyn Pacer>,
    /// Aggregate committed instructions at the snapshot.
    pub committed: u64,
    /// Violations surviving in the committed timeline.
    pub tally: ViolationTally,
    /// Violations detected overall, including rolled-back work.
    pub detected: ViolationTally,
    /// Next sampling point in global cycles.
    pub next_sample: u64,
    /// Tally snapshot at the start of the current sampling window.
    pub last_sample_tally: ViolationTally,
    /// Speculation activity up to the snapshot.
    pub spec_stats: SpeculationStats,
    /// Interval statistics, when the snapshot was taken with speculation.
    pub tracker: Option<IntervalTracker>,
    /// Burst-scheduler RNG state (sequential-engine snapshots only).
    pub rng: Option<Xoshiro256>,
    /// Adaptive bound trace up to the snapshot.
    pub bound_trace: Vec<(Cycle, u64)>,
    /// Largest clock spread observed up to the snapshot.
    pub max_spread: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AdaptiveConfig;

    #[test]
    fn tick_ctx_event_flow() {
        let mut inbox: Inbox<u32> = Inbox::new();
        inbox.deliver(Timestamped::new(Cycle::new(5), 7));
        inbox.deliver(Timestamped::new(Cycle::new(9), 8));
        let mut outbox = Vec::new();
        let mut ctx = TickCtx::new(Cycle::new(5), &mut inbox, &mut outbox);
        assert_eq!(ctx.now(), Cycle::new(5));
        assert_eq!(ctx.pop_event().unwrap().payload, 7);
        assert!(ctx.pop_event().is_none());
        assert_eq!(ctx.pending_events(), 1);
        ctx.emit(99);
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].ts, Cycle::new(5));
    }

    #[test]
    fn sink_roundtrip() {
        use crate::violation::{ViolationEvent, ViolationKind};
        let mut sink: ServiceSink<u32> = ServiceSink::new();
        sink.deliver(CoreId::new(2), Timestamped::new(Cycle::new(3), 1));
        sink.report_violation(ViolationEvent {
            kind: ViolationKind::Bus,
            ts: Cycle::new(3),
            high_water: Cycle::new(5),
        });
        assert_eq!(sink.take_deliveries().count(), 1);
        assert_eq!(sink.take_violations().count(), 1);
        // Drained.
        assert_eq!(sink.take_deliveries().count(), 0);
    }

    #[test]
    fn config_defaults() {
        let cfg = EngineConfig::new(Scheme::CycleByCycle, 1000);
        assert_eq!(cfg.commit_target, 1000);
        assert!(cfg.speculation.is_none());
        assert_eq!(cfg.effective_sample_period(), 1024);
    }

    #[test]
    fn adaptive_overrides_sample_period() {
        let cfg = EngineConfig::new(
            Scheme::Adaptive(AdaptiveConfig {
                sample_period: 555,
                ..AdaptiveConfig::default()
            }),
            1000,
        );
        assert_eq!(cfg.effective_sample_period(), 555);
    }

    #[test]
    #[should_panic(expected = "max burst must be at least 1")]
    fn burst_policy_rejects_zero() {
        let _ = BurstPolicy::new(0);
    }

    #[test]
    fn engine_error_display() {
        assert_eq!(EngineError::NoCores.to_string(), "simulation has no cores");
        assert!(EngineError::Stalled { at: Cycle::new(9) }
            .to_string()
            .contains("9"));
    }
}
