//! The simulation-manager kernel: the one implementation of everything the
//! paper's manager does (§3 global-queue service, violation accounting and
//! adaptive sampling; §5 checkpoint → rollback → cycle-by-cycle replay),
//! shared by all three engines.
//!
//! A [`Kernel`] **owns** the manager's [`Ledger`] (violation tallies,
//! sampling cursor, speculation statistics, interval tracker, pacer, bound
//! trace, clock spread), its mode (Base/Replay, checkpoint trigger and
//! stop point, pending-rollback flag), the standing checkpoint (the model
//! base plus the ledger values a rollback restores) and every observer
//! (trace ring and metrics when the run asks for them, live gauges,
//! profiler, save hook).
//! The
//! engines are *drivers*: they decide which core ticks when and on which
//! host thread, and call the kernel's verbs at the points where the
//! manager acts —
//!
//! * [`Kernel::on_global`] once per manager iteration (interval closing,
//!   pacer feedback, metrics sample, live publish);
//! * [`Kernel::service`] / [`Kernel::service_all`] for every event, with
//!   deliveries handed back through a driver-supplied closure (an inbox
//!   push) — the only seam between the kernel and where cores live — or
//!   [`Kernel::violation`] for each violation of an event a driver had
//!   serviced by an uncore home on another thread;
//! * [`Kernel::rollback_ledger`] plus the model-restore helpers when a
//!   selected violation is pending;
//! * [`Kernel::arm_stop`] for the common time a checkpoint stops every
//!   core at, and [`Kernel::commit_checkpoint`] once every core stands
//!   there with all queues empty;
//! * [`Kernel::finish`] to turn the run into a [`SimReport`].
//!
//! A driver may read the kernel's state through the accessors, record
//! trace events for phases only it can see (`trace`), time its waits and
//! report clock spread; it writes the ledger only by asking the pacer for
//! per-core windows (peer-to-peer pacing redraws its pairing as it goes).

use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::checkpoint::Checkpointable;
use crate::engine::{
    CheckpointView, CoreModel, EngineConfig, FinishReason, Ledger, SaveHook, ServiceSink,
    UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::live::{LiveHandle, NO_BOUND};
use crate::obs::{
    GaugeId, HistId, LiveStats, MetricsRegistry, ObsData, Phase, ProfHandle, ProfSite, Profiler,
    TraceEvent, TraceRing,
};
use crate::rng::Xoshiro256;
use crate::scheme::{PaceSample, Pacer};
use crate::speculative::SpeculationConfig;
use crate::stats::{Counters, SimReport};
use crate::time::Cycle;
use crate::violation::{ViolationEvent, ViolationKind, ViolationTally};

/// The last committed checkpoint. Always holds *full* model state: each
/// checkpoint patches it forward with the models' capture deltas, and a
/// rollback copies back only the units that diverged (`restore_from`).
/// Of the ledger it keeps what a rollback restores; the monotone rest
/// (detected violations, speculation statistics, tracker, bound trace,
/// clock spread) lives only in the kernel's live ledger.
struct Standing<C: CoreModel, U> {
    /// Each core's model and undelivered inbox events.
    cores: Vec<(C, Inbox<C::Event>)>,
    /// Per-core model generation at the checkpoint: the baseline the next
    /// capture diffs against and the token a restore rewinds to.
    core_gens: Vec<u64>,
    uncore: U,
    uncore_gen: u64,
    global: Cycle,
    committed: u64,
    tally: ViolationTally,
    pacer: Pacer,
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

/// What a run that asks for observability records: the trace ring, the
/// metrics registry with its interned series, and where the last metrics
/// sample stood.
struct Obs {
    trace: TraceRing,
    metrics: MetricsRegistry,
    ids: MetricIds,
    last_cycle: u64,
    last_detected: u64,
}

impl Obs {
    /// Emits one metrics sample: per-core drift plus the manager-side
    /// aggregates. Out of line: it runs once per `sample_every` cycles,
    /// and [`Kernel::on_global`], inlined into every driver loop, only
    /// branches to it.
    #[inline(never)]
    fn sample(&mut self, global: Cycle, locals: &[Cycle], gq_len: u64, ledger: &Ledger) {
        let (metrics, ids) = (&mut self.metrics, &self.ids);
        for (i, &l) in locals.iter().enumerate() {
            let core = CoreId::new(i as u16);
            let drift = l.saturating_sub(global);
            metrics.gauge_by(ids.drift[i], global, drift as f64);
            self.trace
                .record(global, TraceEvent::LocalTimeSample { core, cycle: l });
        }
        if let Some(b) = ledger.pacer.current_bound() {
            metrics.gauge_by(ids.slack_bound, global, b as f64);
        }
        // Rate over the cycles actually elapsed since the previous sample:
        // a fixed divisor misstates the rate whenever the sampler fires
        // off-cadence, and an elapsed count of zero (e.g. the first
        // crossing after a resume) must not produce a NaN/inf gauge value.
        let detected = ledger.detected.total();
        let elapsed = global.as_u64().saturating_sub(self.last_cycle);
        let rate = if elapsed == 0 {
            0.0
        } else {
            (detected - self.last_detected) as f64 / elapsed as f64
        };
        self.last_cycle = global.as_u64();
        self.last_detected = detected;
        metrics.gauge_by(ids.violation_rate, global, rate);
        metrics.gauge_by(ids.globalq_depth, global, gq_len as f64);
        metrics.histogram_by(ids.globalq_depth_h).record(gq_len);
        self.trace
            .record(global, TraceEvent::QueueDepth { len: gq_len });
        metrics.gauge_by(ids.trace_dropped, global, self.trace.dropped() as f64);
    }
}

/// Records on the run's trace ring, if it has one.
#[inline]
fn record(obs: &mut Option<Obs>, cycle: Cycle, event: TraceEvent) {
    if let Some(o) = obs {
        o.trace.record(cycle, event);
    }
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
    /// The live ledger. Its pacer is the one drivers read windows from;
    /// the kernel feeds it samples and checkpoints it.
    ledger: Ledger,

    // --- Mode ----------------------------------------------------------
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
    standing: Option<Standing<C, U>>,

    // --- Observers -----------------------------------------------------
    /// Built only when the run asks for observability.
    obs: Option<Obs>,
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
    /// Builds the manager for an `n`-core run that starts at global time
    /// `start` with `committed` instructions committed: at cycle 0 with a
    /// fresh ledger, or from a persisted snapshot with its ledger
    /// (`resumed`).
    pub(super) fn new(
        cfg: &EngineConfig,
        n: usize,
        save_hook: Option<SaveHook<C, U>>,
        (start, committed): (Cycle, u64),
        resumed: Option<Ledger>,
    ) -> Self {
        let started = Instant::now();
        let spec = cfg.speculation;

        // A disabled profiler keeps every span site at one relaxed atomic
        // load.
        let prof = cfg.prof.clone().unwrap_or_else(Profiler::disabled);

        // Live telemetry: the emitter is a plain observer thread reading
        // relaxed-published atomics; the simulation never blocks on it.
        let live_stats = Arc::new(LiveStats::new());
        live_stats
            .commit_target
            .store(cfg.commit_target, Ordering::Relaxed);
        live_stats.committed.store(committed, Ordering::Relaxed);
        let live_handle = cfg
            .live
            .as_ref()
            .filter(|l| l.has_sink())
            .map(|l| crate::obs::live::spawn(l.clone(), Arc::clone(&live_stats), prof.clone()));

        let restored = resumed.is_some();
        let ledger = resumed.unwrap_or_else(|| Ledger::new(cfg));
        let obs = cfg.obs.map(|o| {
            let mut metrics = MetricsRegistry::new(o.sample_every);
            let ids = MetricIds::intern(&mut metrics, n);
            Obs {
                trace: TraceRing::new(o.trace_capacity),
                metrics,
                ids,
                last_cycle: start.as_u64(),
                last_detected: ledger.detected.total(),
            }
        });
        let mut k = Kernel {
            n,
            spec,
            sample_period: cfg.effective_sample_period(),
            replaying: false,
            replay_start: Cycle::ZERO,
            // `u64::MAX` keeps every checkpoint site unreachable when
            // speculation is off.
            next_cp_trigger: spec.map_or(u64::MAX, |s| start.as_u64() + s.interval),
            stop_at: None,
            pending_rollback: false,
            standing: None,
            obs,
            ph: Rc::new(prof.handle()),
            prof,
            live_stats,
            live_handle,
            save_hook,
            sink: ServiceSink::new(),
            started,
            ledger,
        };
        if restored {
            k.trace(start, TraceEvent::StateRestore { global: start });
        }
        k
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

    /// The live ledger.
    pub(super) fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The pacer drivers read windows from.
    #[inline]
    pub(super) fn pacer(&self) -> &Pacer {
        &self.ledger.pacer
    }

    /// The pacer, for per-core windows.
    #[inline]
    pub(super) fn pacer_mut(&mut self) -> &mut Pacer {
        &mut self.ledger.pacer
    }

    /// True when the run records a trace (`trace` is a no-op otherwise).
    pub(super) fn tracing(&self) -> bool {
        self.obs.is_some()
    }

    /// True while replaying cycle-by-cycle after a rollback.
    pub(super) fn replaying(&self) -> bool {
        self.replaying
    }

    /// True when events must be serviced in sorted batches at window
    /// boundaries: barrier schemes, and every scheme during replay.
    pub(super) fn barrier(&self) -> bool {
        self.replaying || self.ledger.pacer.barrier_service()
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

    /// Records a trace event (phases only the driver can see).
    #[inline]
    pub(super) fn trace(&mut self, cycle: Cycle, event: TraceEvent) {
        record(&mut self.obs, cycle, event);
    }

    /// Reports an observed clock spread (max local − min local).
    #[inline]
    pub(super) fn note_spread(&mut self, spread: u64) {
        self.ledger.max_spread = self.ledger.max_spread.max(spread);
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
        if let Some(tr) = &mut self.ledger.tracker {
            tr.close_intervals_up_to(global);
        }
        if global.as_u64() >= self.ledger.next_sample {
            self.feed_pacer(global);
        }
        // Metrics sampling (observability cadence, independent of the
        // pacer's feedback period).
        if let Some(o) = &mut self.obs {
            if o.metrics.sample_ready(global) {
                o.sample(global, locals, gq_len, &self.ledger);
            }
        }
        if self.live_handle.is_some() {
            self.publish_live(global, committed, gq_len);
        }
    }

    /// Violation-rate sampling and adaptive feedback: hands the pacer one
    /// sample per sampling window that ended at or before `global`.
    fn feed_pacer(&mut self, global: Cycle) {
        let l = &mut self.ledger;
        while global.as_u64() >= l.next_sample {
            let at = Cycle::new(l.next_sample);
            let sample = PaceSample {
                global: at,
                window_cycles: self.sample_period,
                window_violations: l.tally.since(&l.last_sample_tally).total(),
            };
            let bound_before = l.pacer.current_bound();
            l.pacer.on_sample(&sample);
            l.last_sample_tally = l.tally;
            if let Some(b) = l.pacer.current_bound() {
                l.bound_trace.push((at, b));
                if let Some(old) = bound_before.filter(|&old| old != b) {
                    record(
                        &mut self.obs,
                        at,
                        TraceEvent::BoundChange {
                            old,
                            new: b,
                            rate: sample.rate(),
                        },
                    );
                }
            }
            l.next_sample += self.sample_period;
        }
    }

    /// Publishes every live gauge the manager owns: relaxed stores the
    /// emitter thread samples on its own host-time cadence. Used in-loop
    /// and for the terminal beat, so the last heartbeat equals the report.
    fn publish_live(&self, global: Cycle, committed: u64, gq_len: u64) {
        let ls = &*self.live_stats;
        let l = &self.ledger;
        let bound = l.pacer.current_bound().unwrap_or(NO_BOUND);
        ls.global.store(global.as_u64(), Ordering::Relaxed);
        ls.committed.store(committed, Ordering::Relaxed);
        ls.bound.store(bound, Ordering::Relaxed);
        ls.violations.store(l.tally.total(), Ordering::Relaxed);
        ls.globalq_depth.store(gq_len, Ordering::Relaxed);
        let dropped = self.obs.as_ref().map_or(0, |o| o.trace.dropped());
        ls.dropped_traces.store(dropped, Ordering::Relaxed);
        ls.checkpoints
            .store(l.spec_stats.checkpoints, Ordering::Relaxed);
        ls.rollbacks
            .store(l.spec_stats.rollbacks, Ordering::Relaxed);
    }

    /// Services one event through the uncore: deliveries go back through
    /// `deliver`, and every violation is accounted as by
    /// [`violation`](Kernel::violation). Returns whether a rollback is
    /// pending.
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
        for i in 0..self.sink.violations.len() {
            let v = self.sink.violations[i];
            self.violation(from, v);
        }
        self.sink.violations.clear();
        self.pending_rollback
    }

    /// Accounts one violation the service of an event from `from`
    /// reported: tallies it, traces it (attributed to the originating
    /// core), feeds it to the interval tracker, and — if it is selected
    /// in base mode — raises the rollback flag.
    pub(super) fn violation(&mut self, from: CoreId, v: ViolationEvent) {
        self.ledger.tally.record(v.kind);
        self.ledger.detected.record(v.kind);
        record(
            &mut self.obs,
            v.ts,
            TraceEvent::Violation {
                kind: v.kind,
                core: from,
                ts: v.ts,
                high_water: v.high_water,
            },
        );
        if let Some(tr) = self.ledger.tracker.as_mut() {
            tr.observe_violation(v.ts);
        }
        if !self.replaying && self.spec.is_some_and(|sc| sc.rollback_on.selects(v.kind)) {
            self.pending_rollback = true;
        }
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
            tally: self.ledger.tally,
            pacer: self.ledger.pacer.clone(),
            next_sample: self.ledger.next_sample,
            last_sample_tally: self.ledger.last_sample_tally,
        });
    }

    /// Captures every core, given in index order with its inbox, into the
    /// standing base: patches each base forward with a capture delta
    /// against the generation it had there, and replaces its pending inbox
    /// (inboxes are tiny at checkpoint boundaries; deltas do not pay to
    /// diff them).
    pub(super) fn capture_cores<'a>(
        &mut self,
        cores: impl Iterator<Item = (&'a mut C, &'a Inbox<C::Event>)>,
    ) {
        let _span = self.ph.enter(ProfSite::CheckpointCapture);
        let st = self.standing.as_mut().expect("speculation enabled");
        for ((c, inbox), ((base, base_inbox), gen)) in
            cores.zip(st.cores.iter_mut().zip(&mut st.core_gens))
        {
            let d = c.capture_delta(*gen);
            *gen = c.generation();
            let _apply = self.ph.enter(ProfSite::CheckpointApply);
            base.apply_delta(d);
            base_inbox.clone_from(inbox);
        }
    }

    /// Commits a checkpoint at `at`, where every core stands with all
    /// queues empty and the cores' captures have been absorbed: ends a
    /// replay, counts and traces the checkpoint, compacts settled
    /// monitors, captures the uncore and the ledger (with the sequential
    /// driver's `rng`) into the standing checkpoint, fires the save hook
    /// and arms the next trigger.
    pub(super) fn commit_checkpoint(
        &mut self,
        at: Cycle,
        committed: u64,
        uncore: &mut U,
        rng: Option<&Xoshiro256>,
    ) {
        if self.replaying {
            let replayed = at.saturating_sub(self.replay_start);
            self.ledger.spec_stats.replay_cycles += replayed;
            self.replaying = false;
            self.trace(
                at,
                TraceEvent::ReplayEnd {
                    ordinal: self.ledger.spec_stats.rollbacks,
                    replay_cycles: replayed,
                },
            );
            self.trace_replay_phase(at, false);
        }
        self.ledger.spec_stats.checkpoints += 1;
        self.ledger.rng = rng.cloned();
        let ordinal = self.ledger.spec_stats.checkpoints;
        let trigger = self.next_cp_trigger;
        self.trace(
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
            st.tally = self.ledger.tally;
            st.pacer = self.ledger.pacer.clone();
            st.next_sample = self.ledger.next_sample;
            st.last_sample_tally = self.ledger.last_sample_tally;
        }
        if let Some(hook) = self.save_hook.as_mut() {
            let _span = ph.enter(ProfSite::PersistIo);
            let st = self.standing.as_ref().expect("speculation enabled");
            let view = CheckpointView {
                ordinal,
                global: at,
                committed,
                cores: &st.cores,
                uncore: &st.uncore,
                ledger: &self.ledger,
            };
            let bytes = hook(&view).unwrap_or(0);
            if let Some(o) = &mut self.obs {
                o.trace
                    .record(at, TraceEvent::StatePersist { ordinal, bytes });
                o.metrics.gauge_by(o.ids.persist_bytes, at, bytes as f64);
            }
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
        let l = &mut self.ledger;
        l.spec_stats.rollbacks += 1;
        let wasted = now.saturating_sub(global);
        l.spec_stats.wasted_cycles += wasted;
        // Recorded at the rollback instant: the exporter renders the
        // discarded region as the span [now - wasted, now).
        record(
            &mut self.obs,
            now,
            TraceEvent::Rollback {
                ordinal: l.spec_stats.rollbacks,
                wasted_cycles: wasted,
            },
        );
        l.tally = st.tally;
        l.pacer = st.pacer.clone();
        l.next_sample = st.next_sample;
        l.last_sample_tally = st.last_sample_tally;
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
            self.trace(
                at,
                if begin {
                    TraceEvent::PhaseBegin { core, phase }
                } else {
                    TraceEvent::PhaseEnd { core, phase }
                },
            );
        }
    }

    /// Rewinds every core, given in index order with its inbox, and the
    /// uncore onto the standing checkpoint, copying back only the units
    /// that diverged since.
    pub(super) fn restore_models<'a>(
        &self,
        cores: impl Iterator<Item = (&'a mut C, &'a mut Inbox<C::Event>)>,
        uncore: &mut U,
    ) {
        let st = self.standing.as_ref().expect("speculation enabled");
        for ((core, inbox), ((base, base_inbox), &gen)) in
            cores.zip(st.cores.iter().zip(&st.core_gens))
        {
            core.restore_from(base, gen);
            inbox.clone_from(base_inbox);
        }
        uncore.restore_from(&st.uncore, st.uncore_gen);
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
        if let Some(tr) = &mut self.ledger.tracker {
            tr.close_intervals_up_to(global);
        }

        // Terminal gauge flush: one last sample at the final global time
        // so CSV exports always contain the run's end state even when the
        // run length is not a multiple of the sampling cadence. Guarded so
        // a sample that already landed on this exact cycle is not
        // duplicated — gauge series are strictly increasing in cycle.
        if let Some(o) = self.obs.as_mut().filter(|o| global.as_u64() > o.last_cycle) {
            o.sample(global, f.locals, f.gq_len, &self.ledger);
        }

        let l = &self.ledger;
        let mut kernel = Counters::new();
        kernel.set("checkpoints", l.spec_stats.checkpoints);
        kernel.set("rollbacks", l.spec_stats.rollbacks);
        kernel.set("wasted_cycles", l.spec_stats.wasted_cycles);
        kernel.set("replay_cycles", l.spec_stats.replay_cycles);
        kernel.set("violations_detected_total", l.detected.total());
        for (name, kind) in [
            ("violations_detected_bus", ViolationKind::Bus),
            ("violations_detected_map", ViolationKind::Map),
            ("violations_detected_directory", ViolationKind::Directory),
        ] {
            kernel.set(name, l.detected.count(kind));
        }
        kernel.set(
            "finish_commit_target",
            u64::from(f.reason == FinishReason::CommitTarget),
        );
        kernel.set("max_clock_spread", l.max_spread);
        if let Some(tr) = &l.tracker {
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

        let obs = self.obs.map(|o| {
            let (records, dropped) = o.trace.into_parts();
            ObsData {
                cores: self.n,
                records,
                dropped,
                metrics: o.metrics,
            }
        });
        let wall = self.started.elapsed();
        SimReport {
            global_cycles: global.as_u64(),
            committed: f.committed,
            violations: self.ledger.tally,
            wall,
            per_core: f.per_core,
            uncore: f.uncore,
            kernel,
            bound_trace: self.ledger.bound_trace,
            obs,
            prof: self
                .prof
                .is_enabled()
                .then(|| self.prof.snapshot(wall, f.threads)),
        }
    }
}
