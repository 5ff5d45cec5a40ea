//! The simulation-manager kernel: the one implementation of everything the
//! paper's manager does (§3 global-queue service, violation accounting and
//! adaptive sampling; §5 checkpoint → rollback → cycle-by-cycle replay),
//! shared by all three engines.
//!
//! A [`Kernel`] **owns** the manager-side restorable ledger (violation
//! tallies, sampling cursor, bound trace, interval tracker, speculation
//! statistics, Base/Replay mode, checkpoint trigger, pending-rollback flag,
//! clock spread), the pacer, the standing checkpoint (the model base plus
//! the ledger values a rollback restores) and every observer (trace
//! handle, interned metric ids, live gauges, profiler, save hook). The
//! engines are *drivers*: they decide which core ticks when and on which
//! host thread, and call the kernel's verbs at the points where the
//! manager acts —
//!
//! * [`Kernel::on_global`] once per manager iteration (interval closing,
//!   pacer feedback, metrics sample, live publish);
//! * [`Kernel::service`] / [`Kernel::service_all`] for every event, with
//!   deliveries handed back through a driver-supplied closure (an inbox
//!   push) — the only seam between the kernel and where cores live;
//! * [`Kernel::rollback_ledger`] plus the model-restore helpers when a
//!   selected violation is pending;
//! * [`Kernel::arm_stop`] for the common time a checkpoint stops every
//!   core at, and [`Kernel::commit_checkpoint`] once every core stands
//!   there with all queues empty;
//! * [`Kernel::finish`] to turn the run into a [`SimReport`].
//!
//! A driver may read the kernel's state through the accessors, record
//! trace events for phases only it can see (`trace`), time its waits and
//! report clock spread; it never writes the ledger.

use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::checkpoint::Checkpointable;
use crate::engine::{
    CheckpointView, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    ServiceSink, UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::live::{LiveHandle, NO_BOUND};
use crate::obs::{
    GaugeId, HistId, LiveStats, MetricsRegistry, ObsData, Phase, ProfHandle, ProfSite, Profiler,
    QueueKind, TraceEvent, TraceHandle, Tracer,
};
use crate::rng::Xoshiro256;
use crate::scheme::{PaceSample, Pacer};
use crate::speculative::{IntervalTracker, SpeculationConfig, SpeculationStats};
use crate::stats::{Counters, SimReport};
use crate::time::Cycle;
use crate::violation::{ViolationKind, ViolationTally};

/// A core's checkpointed state: the model plus its undelivered inbox events.
type CoreSnapshot<C> = (C, Inbox<<C as CoreModel>::Event>);

/// The last committed checkpoint. Always holds *full* model state: each
/// checkpoint patches it forward with the models' capture deltas, and a
/// rollback copies back only the units that diverged (`restore_from`).
struct Standing<C: CoreModel, U> {
    cores: Vec<CoreSnapshot<C>>,
    /// Per-core model generation at the checkpoint: the baseline the next
    /// capture diffs against and the token a restore rewinds to.
    core_gens: Vec<u64>,
    uncore: U,
    uncore_gen: u64,
    global: Cycle,
    committed: u64,
    tally: ViolationTally,
    pacer: Box<dyn Pacer>,
    next_sample: u64,
    last_sample_tally: ViolationTally,
}

/// Interned metric keys, created once so steady-state sampling performs no
/// string formatting or allocation.
struct MetricIds {
    /// `drift.core{i}` gauge per core.
    drift: Vec<GaugeId>,
    slack_bound: GaugeId,
    violation_rate: GaugeId,
    globalq_depth: GaugeId,
    globalq_depth_h: HistId,
    persist_bytes: GaugeId,
    /// Cumulative trace records dropped to ring overflow, sampled live so
    /// a mid-run overflow is diagnosable from the metrics CSV.
    trace_dropped: GaugeId,
}

impl MetricIds {
    fn intern(metrics: &mut MetricsRegistry, n: usize) -> Self {
        MetricIds {
            drift: (0..n)
                .map(|i| metrics.intern_gauge(&format!("drift.core{i}")))
                .collect(),
            slack_bound: metrics.intern_gauge("slack_bound"),
            violation_rate: metrics.intern_gauge("violation_rate"),
            globalq_depth: metrics.intern_gauge("globalq_depth"),
            globalq_depth_h: metrics.intern_histogram("globalq_depth"),
            persist_bytes: metrics.intern_gauge("persist_bytes"),
            trace_dropped: metrics.intern_gauge("trace_dropped"),
        }
    }
}

/// Model state handed back to the driver when a run resumes from a
/// persisted snapshot (the ledger half of the snapshot stays in the
/// kernel).
pub(super) struct Resumed<C: CoreModel, U> {
    pub(super) global: Cycle,
    pub(super) cores: Vec<C>,
    pub(super) inboxes: Vec<Inbox<C::Event>>,
    pub(super) uncore: U,
    pub(super) committed: u64,
    pub(super) rng: Option<Xoshiro256>,
}

/// What a driver knows at the end of a run, for [`Kernel::finish`].
pub(super) struct Finish<'a> {
    pub(super) global: Cycle,
    pub(super) committed: u64,
    pub(super) reason: FinishReason,
    /// Final local clocks and global-queue depth, for the terminal sample.
    pub(super) locals: &'a [Cycle],
    pub(super) gq_len: u64,
    pub(super) per_core: Vec<Counters>,
    pub(super) uncore: Counters,
    /// Host threads that recorded profile spans (coverage denominator).
    pub(super) threads: u64,
}

/// The simulation manager shared by every engine; see the [module
/// docs](self).
pub(super) struct Kernel<C: CoreModel, U> {
    n: usize,
    spec: Option<SpeculationConfig>,
    sample_period: u64,
    obs_on: bool,
    /// The pacer, carrying any adaptive/peer state; drivers read windows
    /// from it, the kernel feeds it samples and checkpoints it.
    pub(super) pacer: Box<dyn Pacer>,

    // --- Restorable ledger ---------------------------------------------
    /// Violations surviving in the committed timeline (rolled back).
    tally: ViolationTally,
    /// Violations detected overall, including rolled-back work (monotone).
    detected: ViolationTally,
    next_sample: u64,
    last_sample_tally: ViolationTally,
    bound_trace: Vec<(Cycle, u64)>,
    tracker: Option<IntervalTracker>,
    spec_stats: SpeculationStats,
    /// True while replaying cycle-by-cycle after a rollback, until the
    /// next checkpoint commits (guarantees forward progress, paper §5.1).
    replaying: bool,
    replay_start: Cycle,
    next_cp_trigger: u64,
    /// The common time every core stops at for the due checkpoint, armed
    /// by [`arm_stop`](Kernel::arm_stop) until the checkpoint commits or a
    /// rollback rewinds.
    stop_at: Option<Cycle>,
    pending_rollback: bool,
    max_spread: u64,
    standing: Option<Standing<C, U>>,

    // --- Observers -----------------------------------------------------
    tracer: Tracer,
    th: TraceHandle,
    metrics: MetricsRegistry,
    ids: MetricIds,
    last_metrics_cycle: u64,
    last_metrics_detected: u64,
    prof: Profiler,
    ph: Rc<ProfHandle>,
    live_stats: Arc<LiveStats>,
    live_handle: Option<LiveHandle>,
    save_hook: Option<SaveHook<C, U>>,

    sink: ServiceSink<C::Event>,
    started: Instant,
}

impl<C, U> Kernel<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Builds the manager for an `n`-core run, seeding the ledger from
    /// `resume` when the run continues a persisted snapshot (the model
    /// half comes back as [`Resumed`]).
    pub(super) fn new(
        cfg: &EngineConfig,
        n: usize,
        save_hook: Option<SaveHook<C, U>>,
        resume: Option<EngineResume<C, U>>,
    ) -> Result<(Self, Option<Resumed<C, U>>), EngineError> {
        if let Some(res) = &resume {
            if res.cores.len() != n {
                return Err(EngineError::Resume(format!(
                    "snapshot holds {} cores but the engine was built with {n}",
                    res.cores.len()
                )));
            }
        }
        let started = Instant::now();
        let sample_period = cfg.effective_sample_period();
        let spec = cfg.speculation;

        // Observability: a disabled tracer/profiler keeps every record
        // call and span site at one relaxed atomic load.
        let tracer = match cfg.obs {
            Some(o) => Tracer::new(o.trace_capacity),
            None => Tracer::disabled(),
        };
        let prof = cfg.prof.clone().unwrap_or_else(Profiler::disabled);
        let mut metrics = MetricsRegistry::new(cfg.obs.map_or(1024, |o| o.sample_every));
        let ids = MetricIds::intern(&mut metrics, n);

        // Live telemetry: the emitter is a plain observer thread reading
        // relaxed-published atomics; the simulation never blocks on it.
        let live_stats = Arc::new(LiveStats::new());
        live_stats
            .commit_target
            .store(cfg.commit_target, Ordering::Relaxed);
        if let Some(res) = &resume {
            live_stats.committed.store(res.committed, Ordering::Relaxed);
        }
        let live_handle = cfg
            .live
            .as_ref()
            .filter(|l| l.has_sink())
            .map(|l| crate::obs::live::spawn(l.clone(), Arc::clone(&live_stats), prof.clone()));

        let mut k = Kernel {
            n,
            spec,
            sample_period,
            obs_on: cfg.obs.is_some(),
            pacer: cfg.scheme.clone().into_pacer(),
            tally: ViolationTally::new(),
            detected: ViolationTally::new(),
            next_sample: sample_period,
            last_sample_tally: ViolationTally::new(),
            bound_trace: Vec::new(),
            tracker: spec.map(|s| IntervalTracker::new(s.interval)),
            spec_stats: SpeculationStats::default(),
            replaying: false,
            replay_start: Cycle::ZERO,
            // `u64::MAX` keeps every checkpoint site unreachable when
            // speculation is off.
            next_cp_trigger: spec.map_or(u64::MAX, |s| s.interval),
            stop_at: None,
            pending_rollback: false,
            max_spread: 0,
            standing: None,
            th: tracer.handle(),
            tracer,
            metrics,
            ids,
            last_metrics_cycle: 0,
            last_metrics_detected: 0,
            ph: Rc::new(prof.handle()),
            prof,
            live_stats,
            live_handle,
            save_hook,
            sink: ServiceSink::new(),
            started,
        };

        let resumed = resume.map(|res| {
            k.pacer = res.pacer;
            k.tally = res.tally;
            k.detected = res.detected;
            k.next_sample = res.next_sample;
            k.last_sample_tally = res.last_sample_tally;
            k.spec_stats = res.spec_stats;
            if let Some(tr) = res.tracker {
                k.tracker = Some(tr);
            }
            k.bound_trace = res.bound_trace;
            k.max_spread = res.max_spread;
            k.last_metrics_detected = k.detected.total();
            k.last_metrics_cycle = res.global.as_u64();
            k.next_cp_trigger = spec.map_or(u64::MAX, |s| res.global.as_u64() + s.interval);
            k.th.record(res.global, TraceEvent::StateRestore { global: res.global });
            let (cores, inboxes) = res.cores.into_iter().unzip();
            Resumed {
                global: res.global,
                cores,
                inboxes,
                uncore: res.uncore,
                committed: res.committed,
                rng: res.rng,
            }
        });
        Ok((k, resumed))
    }

    // --- What a driver may read ------------------------------------------

    /// The run's profiler (worker threads take their own handles from it).
    pub(super) fn prof(&self) -> &Profiler {
        &self.prof
    }

    /// The manager thread's profiler handle, shared so driver spans and
    /// kernel spans nest on one stack.
    pub(super) fn prof_handle(&self) -> Rc<ProfHandle> {
        Rc::clone(&self.ph)
    }

    /// True when the run records a trace (`trace` is a no-op otherwise).
    pub(super) fn tracing(&self) -> bool {
        self.obs_on
    }

    /// True while replaying cycle-by-cycle after a rollback.
    pub(super) fn replaying(&self) -> bool {
        self.replaying
    }

    /// True when events must be serviced in sorted batches at window
    /// boundaries: barrier schemes, and every scheme during replay.
    pub(super) fn barrier(&self) -> bool {
        self.replaying || self.pacer.barrier_service()
    }

    /// True once a selected violation has been serviced in base mode.
    pub(super) fn rollback_pending(&self) -> bool {
        self.pending_rollback
    }

    /// True once global time has crossed the checkpoint trigger.
    fn checkpoint_due(&self, global: Cycle) -> bool {
        self.spec.is_some() && global.as_u64() >= self.next_cp_trigger
    }

    /// The stop point of the due checkpoint: every core runs up to it and
    /// no further, and the checkpoint is taken once all stand there.
    /// Armed the first time global time is past the trigger, at
    /// `max(furthest, trigger)`, where `furthest` is the driver's upper
    /// bound on any core's local time — so no core is already beyond it.
    /// Cleared when the checkpoint commits or a rollback rewinds.
    #[inline]
    pub(super) fn arm_stop(&mut self, global: Cycle, furthest: Cycle) -> Option<Cycle> {
        if self.stop_at.is_none() && self.checkpoint_due(global) {
            self.stop_at = Some(furthest.max(Cycle::new(self.next_cp_trigger)));
        }
        self.stop_at
    }

    /// Records a trace event on the manager's handle (phases only the
    /// driver can see).
    #[inline]
    pub(super) fn trace(&mut self, cycle: Cycle, event: TraceEvent) {
        self.th.record(cycle, event);
    }

    /// Reports an observed clock spread (max local − min local).
    #[inline]
    pub(super) fn note_spread(&mut self, spread: u64) {
        self.max_spread = self.max_spread.max(spread);
    }

    // --- The manager's verbs ---------------------------------------------

    /// Once per manager iteration at global time `global`: closes elapsed
    /// checkpoint intervals, feeds the pacer every sampling window that
    /// ended, samples metrics on the observability cadence and publishes
    /// the live gauges.
    ///
    /// Runs once per manager iteration — once per core-cycle under
    /// cycle-by-cycle — so the four checks are forced inline and everything
    /// behind them is out of line.
    #[inline(always)]
    pub(super) fn on_global(
        &mut self,
        global: Cycle,
        committed: u64,
        locals: &[Cycle],
        gq_len: u64,
    ) {
        // Interval accounting for Tables 3/4 follows the fixed grid.
        if let Some(tr) = &mut self.tracker {
            tr.close_intervals_up_to(global);
        }
        if global.as_u64() >= self.next_sample {
            self.feed_pacer(global);
        }
        // Metrics sampling (observability cadence, independent of the
        // pacer's feedback period).
        if self.obs_on && self.metrics.sample_ready(global) {
            self.sample_metrics(global, locals, gq_len);
        }
        if self.live_handle.is_some() {
            self.publish_live(global, committed, gq_len);
        }
    }

    /// Violation-rate sampling and adaptive feedback: hands the pacer one
    /// sample per sampling window that ended at or before `global`.
    fn feed_pacer(&mut self, global: Cycle) {
        while global.as_u64() >= self.next_sample {
            let at = Cycle::new(self.next_sample);
            let sample = PaceSample {
                global: at,
                window_cycles: self.sample_period,
                window_violations: self.tally.since(&self.last_sample_tally).total(),
            };
            let bound_before = self.pacer.current_bound();
            self.pacer.on_sample(&sample);
            self.last_sample_tally = self.tally;
            if let Some(b) = self.pacer.current_bound() {
                self.bound_trace.push((at, b));
                if let Some(old) = bound_before.filter(|&old| old != b) {
                    self.th.record(
                        at,
                        TraceEvent::BoundChange {
                            old,
                            new: b,
                            rate: sample.rate(),
                        },
                    );
                }
            }
            self.next_sample += self.sample_period;
        }
    }

    /// Emits one metrics sample: per-core drift plus the manager-side
    /// aggregates.
    fn sample_metrics(&mut self, global: Cycle, locals: &[Cycle], gq_len: u64) {
        let metrics = &mut self.metrics;
        let ids = &self.ids;
        for (i, &l) in locals.iter().enumerate() {
            let core = CoreId::new(i as u16);
            let drift = l.saturating_sub(global);
            metrics.gauge_by(ids.drift[i], global, drift as f64);
            self.th
                .record(global, TraceEvent::LocalTimeSample { core, cycle: l });
        }
        if let Some(b) = self.pacer.current_bound() {
            metrics.gauge_by(ids.slack_bound, global, b as f64);
        }
        // Rate over the cycles actually elapsed since the previous sample:
        // a fixed divisor misstates the rate whenever the sampler fires
        // off-cadence, and an elapsed count of zero (e.g. the first
        // crossing after a resume) must not produce a NaN/inf gauge value.
        let detected_total = self.detected.total();
        let elapsed = global.as_u64().saturating_sub(self.last_metrics_cycle);
        let rate = if elapsed == 0 {
            0.0
        } else {
            (detected_total - self.last_metrics_detected) as f64 / elapsed as f64
        };
        self.last_metrics_cycle = global.as_u64();
        self.last_metrics_detected = detected_total;
        metrics.gauge_by(ids.violation_rate, global, rate);
        metrics.gauge_by(ids.globalq_depth, global, gq_len as f64);
        metrics.histogram_by(ids.globalq_depth_h).record(gq_len);
        self.th.record(
            global,
            TraceEvent::QueueDepth {
                q: QueueKind::Global,
                len: gq_len,
            },
        );
        let dropped = self.tracer.dropped_so_far();
        metrics.gauge_by(ids.trace_dropped, global, dropped as f64);
    }

    /// Publishes every live gauge the manager owns: relaxed stores the
    /// emitter thread samples on its own host-time cadence. Used in-loop
    /// and for the terminal beat, so the last heartbeat equals the report.
    fn publish_live(&self, global: Cycle, committed: u64, gq_len: u64) {
        let ls = &*self.live_stats;
        let bound = self.pacer.current_bound().unwrap_or(NO_BOUND);
        ls.global.store(global.as_u64(), Ordering::Relaxed);
        ls.committed.store(committed, Ordering::Relaxed);
        ls.bound.store(bound, Ordering::Relaxed);
        ls.violations.store(self.tally.total(), Ordering::Relaxed);
        ls.globalq_depth.store(gq_len, Ordering::Relaxed);
        ls.dropped_traces
            .store(self.tracer.dropped_so_far(), Ordering::Relaxed);
        ls.checkpoints
            .store(self.spec_stats.checkpoints, Ordering::Relaxed);
        ls.rollbacks
            .store(self.spec_stats.rollbacks, Ordering::Relaxed);
    }

    /// Services one event through the uncore: deliveries go back through
    /// `deliver`, violations are tallied, traced (attributed to the
    /// originating core) and fed to the interval tracker, and a selected
    /// violation in base mode raises the rollback flag. Returns whether a
    /// rollback is pending.
    pub(super) fn service(
        &mut self,
        from: CoreId,
        ev: Timestamped<C::Event>,
        uncore: &mut U,
        mut deliver: impl FnMut(CoreId, Timestamped<C::Event>),
    ) -> bool {
        uncore.service(from, ev, &mut self.sink);
        for (to, out) in self.sink.take_deliveries() {
            deliver(to, out);
        }
        for v in self.sink.take_violations() {
            self.tally.record(v.kind);
            self.detected.record(v.kind);
            self.th.record(
                v.ts,
                TraceEvent::Violation {
                    kind: v.kind,
                    core: from,
                    ts: v.ts,
                    high_water: v.high_water,
                },
            );
            if let Some(tr) = self.tracker.as_mut() {
                tr.observe_violation(v.ts);
            }
            if !self.replaying && self.spec.is_some_and(|sc| sc.rollback_on.selects(v.kind)) {
                self.pending_rollback = true;
            }
        }
        self.pending_rollback
    }

    /// Services every event currently in the global queue, in timestamp
    /// order among those queued. Once a rollback is pending the state will
    /// be restored wholesale, so the remaining (doomed) events are dropped.
    pub(super) fn service_all(
        &mut self,
        gq: &mut GlobalQueue<C::Event>,
        uncore: &mut U,
        mut deliver: impl FnMut(CoreId, Timestamped<C::Event>),
    ) {
        while let Some((from, ev)) = gq.pop() {
            if self.service(from, ev, uncore, &mut deliver) {
                gq.clear();
                break;
            }
        }
    }

    // --- Checkpoint and rollback -----------------------------------------

    /// Takes the free initial checkpoint when speculation is on: clones
    /// the models once as the standing base and seeds every model's
    /// capture baseline at its current generation (an empty capture), so
    /// the first real capture resolves exact per-unit baselines. Call
    /// before any core moves (and after resume state has been applied).
    pub(super) fn seed_base(
        &mut self,
        cores: &mut [C],
        inboxes: &[Inbox<C::Event>],
        uncore: &mut U,
        global: Cycle,
        committed: u64,
    ) {
        if self.spec.is_none() {
            return;
        }
        let _span = self.ph.enter(ProfSite::CheckpointCapture);
        let core_gens = cores
            .iter_mut()
            .map(|c| {
                let g = c.generation();
                let _ = c.capture_delta(g);
                g
            })
            .collect();
        let uncore_gen = uncore.generation();
        let _ = uncore.capture_delta(uncore_gen);
        self.standing = Some(Standing {
            cores: cores.iter().cloned().zip(inboxes.iter().cloned()).collect(),
            core_gens,
            uncore: uncore.clone(),
            uncore_gen,
            global,
            committed,
            tally: self.tally,
            pacer: self.pacer.clone_box(),
            next_sample: self.next_sample,
            last_sample_tally: self.last_sample_tally,
        });
    }

    /// Generation core `i` had at the standing checkpoint: the `since`
    /// token for its next capture or restore.
    fn core_gen(&self, i: usize) -> u64 {
        self.standing().core_gens[i]
    }

    /// Patches core `i`'s base forward with a capture delta taken at
    /// generation `gen`, and replaces its pending inbox (inboxes are tiny
    /// at checkpoint boundaries; deltas do not pay to diff them).
    fn absorb_core(&mut self, i: usize, delta: C::Delta, inbox: Inbox<C::Event>, gen: u64) {
        let st = self.standing_mut();
        st.cores[i].0.apply_delta(delta);
        st.cores[i].1 = inbox;
        st.core_gens[i] = gen;
    }

    /// Captures every core, given in index order with its inbox, into the
    /// standing base.
    pub(super) fn capture_cores<'a>(
        &mut self,
        cores: impl Iterator<Item = (&'a mut C, &'a Inbox<C::Event>)>,
    ) {
        let ph = Rc::clone(&self.ph);
        let _span = ph.enter(ProfSite::CheckpointCapture);
        for (i, (c, inbox)) in cores.enumerate() {
            let d = c.capture_delta(self.core_gen(i));
            let gen = c.generation();
            let _apply = ph.enter(ProfSite::CheckpointApply);
            self.absorb_core(i, d, inbox.clone(), gen);
        }
    }

    /// Commits a checkpoint at `at`, where every core stands with all
    /// queues empty and the cores' captures have been absorbed: ends a
    /// replay, counts and traces the checkpoint, compacts settled
    /// monitors, captures the uncore and the ledger into the standing
    /// checkpoint, fires the save hook and arms the next trigger.
    pub(super) fn commit_checkpoint(
        &mut self,
        at: Cycle,
        committed: u64,
        uncore: &mut U,
        rng: Option<&Xoshiro256>,
    ) {
        if self.replaying {
            let replayed = at.saturating_sub(self.replay_start);
            self.spec_stats.replay_cycles += replayed;
            self.replaying = false;
            self.th.record(
                at,
                TraceEvent::ReplayEnd {
                    ordinal: self.spec_stats.rollbacks,
                    replay_cycles: replayed,
                },
            );
            self.trace_replay_phase(at, false);
        }
        self.spec_stats.checkpoints += 1;
        let ordinal = self.spec_stats.checkpoints;
        let trigger = self.next_cp_trigger;
        self.th.record(
            Cycle::new(trigger.min(at.as_u64())),
            TraceEvent::Checkpoint {
                ordinal,
                overshoot: at.as_u64().saturating_sub(trigger),
            },
        );
        // Every event at or below the checkpoint has been serviced, so
        // monitor entries whose high-water mark is at or below `at` can
        // never flag again: drop them before capture so the snapshot
        // stays compact too.
        uncore.compact_monitors(at);
        let ph = Rc::clone(&self.ph);
        {
            let _span = ph.enter(ProfSite::CheckpointApply);
            let st = self.standing.as_mut().expect("speculation enabled");
            let ud = uncore.capture_delta(st.uncore_gen);
            st.uncore.apply_delta(ud);
            st.uncore_gen = uncore.generation();
            st.global = at;
            st.committed = committed;
            st.tally = self.tally;
            st.pacer = self.pacer.clone_box();
            st.next_sample = self.next_sample;
            st.last_sample_tally = self.last_sample_tally;
        }
        if let Some(hook) = self.save_hook.as_mut() {
            let _span = ph.enter(ProfSite::PersistIo);
            let st = self.standing.as_ref().expect("speculation enabled");
            let view = CheckpointView {
                ordinal,
                global: at,
                cores: st.cores.iter().map(|(c, ib)| (c, ib)).collect(),
                uncore: &st.uncore,
                committed,
                tally: self.tally,
                detected: self.detected,
                next_sample: self.next_sample,
                last_sample_tally: self.last_sample_tally,
                spec_stats: self.spec_stats,
                tracker: self.tracker.as_ref(),
                pacer: &*self.pacer,
                rng,
                bound_trace: &self.bound_trace,
                max_spread: self.max_spread,
            };
            let bytes = hook(&view).unwrap_or(0);
            self.th
                .record(at, TraceEvent::StatePersist { ordinal, bytes });
            self.metrics
                .gauge_by(self.ids.persist_bytes, at, bytes as f64);
        }
        self.next_cp_trigger = at.as_u64() + self.spec.expect("speculation enabled").interval;
        self.stop_at = None;
    }

    /// Rolls the ledger back to the standing checkpoint and enters replay:
    /// counts and traces the rollback (`now` is global time at the
    /// rollback instant), restores the tallies, sampling cursor and pacer,
    /// and re-arms the trigger one interval past the checkpoint. Returns
    /// the checkpoint's global time and committed count for the driver to
    /// rewind its clocks to.
    pub(super) fn rollback_ledger(&mut self, now: Cycle) -> (Cycle, u64) {
        let st = self
            .standing
            .as_ref()
            .expect("rollback requires a snapshot");
        let (global, committed) = (st.global, st.committed);
        self.spec_stats.rollbacks += 1;
        let wasted = now.saturating_sub(global);
        self.spec_stats.wasted_cycles += wasted;
        // Recorded at the rollback instant: the exporter renders the
        // discarded region as the span [now - wasted, now).
        self.th.record(
            now,
            TraceEvent::Rollback {
                ordinal: self.spec_stats.rollbacks,
                wasted_cycles: wasted,
            },
        );
        self.tally = st.tally;
        self.pacer = st.pacer.clone_box();
        self.next_sample = st.next_sample;
        self.last_sample_tally = st.last_sample_tally;
        self.replaying = true;
        self.replay_start = global;
        self.trace_replay_phase(global, true);
        self.next_cp_trigger = global.as_u64() + self.spec.expect("speculation enabled").interval;
        self.stop_at = None;
        self.pending_rollback = false;
        (global, committed)
    }

    fn trace_replay_phase(&mut self, at: Cycle, begin: bool) {
        for core in CoreId::all(self.n) {
            let phase = Phase::Replay;
            self.th.record(
                at,
                if begin {
                    TraceEvent::PhaseBegin { core, phase }
                } else {
                    TraceEvent::PhaseEnd { core, phase }
                },
            );
        }
    }

    /// Rewinds the live uncore onto the standing checkpoint, copying back
    /// only the units that diverged since.
    pub(super) fn restore_uncore(&self, uncore: &mut U) {
        let st = self.standing();
        uncore.restore_from(&st.uncore, st.uncore_gen);
    }

    /// Rewinds every core, given in index order with its inbox, onto the
    /// standing checkpoint, copying back only the units that diverged.
    pub(super) fn restore_cores<'a>(
        &self,
        cores: impl Iterator<Item = (&'a mut C, &'a mut Inbox<C::Event>)>,
    ) {
        let st = self.standing();
        for ((core, inbox), ((base, base_inbox), &gen)) in
            cores.zip(st.cores.iter().zip(&st.core_gens))
        {
            core.restore_from(base, gen);
            inbox.clone_from(base_inbox);
        }
    }

    /// Rewinds live cores, their inboxes and the uncore onto the standing
    /// checkpoint.
    pub(super) fn restore_models(
        &self,
        cores: &mut [C],
        inboxes: &mut [Inbox<C::Event>],
        uncore: &mut U,
    ) {
        self.restore_cores(cores.iter_mut().zip(inboxes.iter_mut()));
        self.restore_uncore(uncore);
    }

    fn standing(&self) -> &Standing<C, U> {
        self.standing.as_ref().expect("speculation enabled")
    }

    fn standing_mut(&mut self) -> &mut Standing<C, U> {
        self.standing.as_mut().expect("speculation enabled")
    }

    // --- Report ------------------------------------------------------------

    /// Ends the run: closes the interval grid at the final global time,
    /// flushes a terminal metrics sample, assembles the kernel counters,
    /// drains the trace, publishes the terminal heartbeat and builds the
    /// report.
    pub(super) fn finish(mut self, f: Finish<'_>) -> SimReport {
        let global = f.global;
        // A write-behind save hook still owns the last checkpoint: dropping
        // it waits until that one is durable, inside the run's wall.
        if let Some(hook) = self.save_hook.take() {
            let _span = self.ph.enter(ProfSite::PersistIo);
            drop(hook);
        }
        if let Some(tr) = &mut self.tracker {
            tr.close_intervals_up_to(global);
        }

        // Terminal gauge flush: one last sample at the final global time
        // so CSV exports always contain the run's end state even when the
        // run length is not a multiple of the sampling cadence. Guarded so
        // a sample that already landed on this exact cycle is not
        // duplicated — gauge series are strictly increasing in cycle.
        if self.obs_on && global.as_u64() > self.last_metrics_cycle {
            self.sample_metrics(global, f.locals, f.gq_len);
        }

        let mut kernel = Counters::new();
        kernel.set("checkpoints", self.spec_stats.checkpoints);
        kernel.set("rollbacks", self.spec_stats.rollbacks);
        kernel.set("wasted_cycles", self.spec_stats.wasted_cycles);
        kernel.set("replay_cycles", self.spec_stats.replay_cycles);
        kernel.set("violations_detected_total", self.detected.total());
        for (name, kind) in [
            ("violations_detected_bus", ViolationKind::Bus),
            ("violations_detected_map", ViolationKind::Map),
            ("violations_detected_directory", ViolationKind::Directory),
        ] {
            kernel.set(name, self.detected.count(kind));
        }
        kernel.set(
            "finish_commit_target",
            u64::from(f.reason == FinishReason::CommitTarget),
        );
        kernel.set("max_clock_spread", self.max_spread);
        if let Some(tr) = &self.tracker {
            kernel.set("intervals_total", tr.intervals_total());
            kernel.set("intervals_violating", tr.intervals_violating());
            // Fixed-point (x1000) so the f64 statistics survive the counter
            // interface; the bench harness divides back.
            kernel.set(
                "mean_first_violation_distance_x1000",
                (tr.mean_first_distance() * 1000.0).round() as u64,
            );
        }

        // Publish the final tallies before the terminal heartbeat so the
        // last emitted line reports the finished run exactly.
        if let Some(h) = self.live_handle.take() {
            self.publish_live(global, f.committed, f.gq_len);
            h.finish();
        }

        self.th.flush();
        let obs = self.obs_on.then(|| {
            let (records, dropped) = self.tracer.drain();
            ObsData {
                cores: self.n,
                records,
                dropped,
                metrics: self.metrics,
            }
        });
        let wall = self.started.elapsed();
        SimReport {
            global_cycles: global.as_u64(),
            committed: f.committed,
            violations: self.tally,
            wall,
            per_core: f.per_core,
            uncore: f.uncore,
            kernel,
            bound_trace: self.bound_trace,
            obs,
            prof: self
                .prof
                .is_enabled()
                .then(|| self.prof.snapshot(wall, f.threads)),
        }
    }
}
