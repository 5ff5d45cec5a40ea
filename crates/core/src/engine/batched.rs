//! The batched BSP engine: quantum-compiled stepping.
//!
//! The paper's quantum scheme is a *synchronization policy*: cores run one
//! quantum of target cycles, then a barrier services every cross-core
//! event in timestamp order. The other two engines still dispatch that
//! policy cycle by cycle — burst scheduling, window bookkeeping and queue
//! churn on every iteration. This engine compiles the policy into an
//! *execution strategy* (the static-scheduling trick of Manticore and the
//! Berkeley emulation engine): each core runs its whole quantum in a
//! single [`CoreModel::run_window`] call over its hot state, emitting
//! cross-core events into a per-core staging buffer, and the engine only
//! exists at quantum boundaries — where the staged buffers are merged into
//! the global queue and serviced in timestamp order, exactly as the
//! barrier would have.
//!
//! Because a quantum run services events in timestamp order, the paper's
//! monitoring variables still run at every boundary: violation detection,
//! the adaptive controller's sampling cadence and the interval tracker all
//! observe the same state they would under the sequential engine. The
//! result is bit-identical to the sequential engine under any barrier
//! scheme (see the conformance oracle) at a fraction of the host cost.
//!
//! Documented divergences (all invisible to the simulated outcome):
//!
//! * the cycle cap and checkpoint trigger are honoured at the first
//!   quantum boundary at or past them, never mid-window;
//! * metrics/trace sampling happens at boundaries, where every core's
//!   drift is zero by construction.

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{Finish, Kernel};
use crate::engine::{
    CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook, UncoreModel,
};
use crate::event::{CoreId, Inbox, Timestamped};
use crate::obs::{Phase, ProfSite, TraceEvent};
use crate::stats::SimReport;
use crate::time::Cycle;

/// Quantum-compiled BSP engine: steps all cores a full quantum per
/// iteration over their hot state, resolving cross-core interaction only
/// at quantum boundaries.
///
/// Only meaningful under barrier schemes (`Scheme::Quantum`,
/// `Scheme::CycleByCycle`); [`run`](BatchedEngine::run) panics on greedy
/// schemes — the CLI validates this before construction and exits with a
/// usage error instead.
pub struct BatchedEngine<C: CoreModel, U: UncoreModel<C::Event>> {
    cores: Vec<C>,
    uncore: U,
    cfg: EngineConfig,
    save_hook: Option<SaveHook<C, U>>,
    resume: Option<EngineResume<C, U>>,
}

impl<C, U> BatchedEngine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Creates an engine over the given target cores and uncore.
    pub fn new(cores: Vec<C>, uncore: U, cfg: EngineConfig) -> Self {
        BatchedEngine {
            cores,
            uncore,
            cfg,
            save_hook: None,
            resume: None,
        }
    }

    /// Installs a hook invoked after every committed checkpoint with a
    /// borrowed [`CheckpointView`](crate::engine::CheckpointView) of the
    /// restorable state; the hook returns the number of bytes it persisted
    /// (or `None` on failure).
    #[must_use]
    pub fn with_save_hook(mut self, hook: SaveHook<C, U>) -> Self {
        self.save_hook = Some(hook);
        self
    }

    /// Starts the run from previously persisted state instead of cycle 0.
    #[must_use]
    pub fn with_resume(mut self, resume: EngineResume<C, U>) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoCores`] for an empty core set and
    /// [`EngineError::Stalled`] if (defensively) the pacer publishes an
    /// empty window.
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is not a barrier scheme: the
    /// quantum-compiled loop is only equivalent to the paper's semantics
    /// when every cross-core event defers to a window boundary.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let BatchedEngine {
            mut cores,
            mut uncore,
            cfg,
            save_hook,
            resume,
        } = self;
        let n = cores.len();
        if n == 0 {
            return Err(EngineError::NoCores);
        }
        let (mut k, resumed) = Kernel::new(&cfg, n, save_hook, false, 0, resume)?;
        assert!(
            k.pacer.barrier_service(),
            "BatchedEngine requires a barrier scheme (quantum): greedy \
             schemes service events mid-window, which the batched loop \
             cannot observe"
        );
        let ph = k.prof_handle();

        let mut inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let mut staged: Vec<Vec<Timestamped<C::Event>>> = (0..n).map(|_| Vec::new()).collect();
        let mut committed: u64 = 0;
        let mut global = Cycle::ZERO;
        if let Some(res) = resumed {
            // res.rng is ignored: this engine has no burst scheduler.
            global = res.global;
            cores = res.cores;
            inboxes = res.inboxes;
            uncore = res.uncore;
            committed = res.committed;
        }
        // The quantum scheme is violation-free by construction (every
        // boundary services in timestamp order), so this driver uses the
        // checkpoint half of speculation only — it never rolls back.
        k.seed_base(&mut cores, &inboxes, &mut uncore, global, committed);
        // At a boundary every core's local clock equals global time; the
        // per-core drift gauges are zero by construction, still sampled so
        // CSV exports keep the same column set as the other engines.
        let mut locals = vec![global; n];
        // Timestamp of each core's next staged event during the merge.
        let mut heads = vec![NO_HEAD; n];
        let finish_reason;

        loop {
            // `global` is always a serviced boundary here: all locals
            // equal, the global queue empty. These are exactly the states
            // at which the sequential engine's finish checks can pass
            // under a barrier scheme, so stopping here is bit-identical.
            if committed >= cfg.commit_target {
                finish_reason = FinishReason::CommitTarget;
                break;
            }
            if global.as_u64() >= cfg.max_cycles {
                finish_reason = FinishReason::CycleCap;
                break;
            }

            // Under a barrier scheme the tally only changes at boundaries,
            // so firing the sampling crossings here (instead of
            // mid-window) hands the pacer identical samples.
            locals.fill(global);
            k.on_global(global, committed, &locals, 0, |_| (0, 0));

            // Checkpoint at the first boundary at or past the trigger.
            // Every event at or below the boundary has been serviced, so
            // queues are empty and the state is restorable as-is.
            if k.checkpoint_due(global) {
                k.capture_cores(&mut cores, &inboxes);
                k.commit_checkpoint(global, committed, &mut uncore, None, &[]);
            }

            let window_end = k.pacer.window_end(global);
            if window_end <= global {
                return Err(EngineError::Stalled { at: global });
            }
            k.note_spread(window_end - global);

            // The hot loop: every core runs the whole window in one call,
            // staging cross-core events locally. No scheduler, no queue
            // touch, no bookkeeping between cycles.
            for (i, model) in cores.iter_mut().enumerate() {
                let core = CoreId::new(i as u16);
                let phase = Phase::Run;
                k.trace(global, TraceEvent::PhaseBegin { core, phase });
                {
                    let _span = ph.enter(ProfSite::BatchedRun);
                    committed +=
                        model.run_window(global, window_end, &mut inboxes[i], &mut staged[i]);
                }
                k.trace(window_end, TraceEvent::PhaseEnd { core, phase });
            }

            // Boundary resolution: service the staged events in
            // (timestamp, core id, staging order) — identical to the
            // sequential engine's pop order (timestamp, then core id as
            // fixed bus arbitration priority, then FIFO) — via the
            // timestamp sweep below.
            {
                let _span = ph.enter(ProfSite::BatchedResolve);
                for (head, buf) in heads.iter_mut().zip(staged.iter_mut()) {
                    *head = arm(buf);
                }
                sweep(&mut heads, global.as_u64(), |i| {
                    let ev = staged[i].pop().expect("a finite head names an event");
                    let rollback = k.service(CoreId::new(i as u16), ev, &mut uncore, |to, out| {
                        inboxes[to.index()].deliver(out)
                    });
                    debug_assert!(
                        !rollback,
                        "timestamp-ordered boundary servicing cannot produce \
                         rollback-selected violations"
                    );
                    head_ts(&staged[i])
                });
            }

            global = window_end;
        }

        locals.fill(global);
        let finish = Finish {
            global,
            committed,
            reason: finish_reason,
            locals: &locals,
            gq_len: 0,
            per_core: cores.iter().map(CoreModel::counters).collect(),
            uncore: uncore.counters(),
            extras: &[],
            threads: 1,
        };
        Ok(k.finish(finish, |_| (0, 0)))
    }
}

/// [`sweep`]'s marker for a core with nothing staged. No event carries it:
/// the cycle cap stops every run far below.
const NO_HEAD: u64 = u64::MAX;

/// Timestamp of the event an armed buffer yields next.
fn head_ts<E>(buf: &[Timestamped<E>]) -> u64 {
    buf.last().map_or(NO_HEAD, |ev| ev.ts.as_u64())
}

/// Reverses a staging buffer, so that `pop` yields its events in staging
/// order without shifting the rest, and returns its head timestamp.
fn arm<E>(buf: &mut [Timestamped<E>]) -> u64 {
    buf.reverse();
    head_ts(buf)
}

/// The boundary merge. `heads[i]` is the timestamp of core `i`'s next
/// staged event (or [`NO_HEAD`]); `serve(i)` consumes that event and
/// returns the core's new head. Each staging buffer is already sorted (a
/// core stages events as its clock advances) and every timestamp lies in
/// `[from, window_end)`, so visiting timestamps in ascending order and,
/// within one, cores in index order — draining each core's run of equal
/// timestamps before moving on, then jumping to the smallest head seen —
/// serves exactly (timestamp, core id, staging order). One pass over the
/// dense `heads` array per distinct timestamp replaces a min-scan over
/// every buffer per event.
fn sweep(heads: &mut [u64], from: u64, mut serve: impl FnMut(usize) -> u64) {
    let mut ts = from;
    loop {
        let mut next = NO_HEAD;
        for (i, head) in heads.iter_mut().enumerate() {
            while *head == ts {
                *head = serve(i);
            }
            next = next.min(*head);
        }
        if next == NO_HEAD {
            return;
        }
        ts = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SequentialEngine, ServiceSink, TickCtx};
    use crate::scheme::Scheme;
    use crate::speculative::SpeculationConfig;
    use crate::stats::Counters;
    use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Toy {
        Ping,
        Pong,
    }

    /// Toy core: commits one instruction per cycle and pings the uncore
    /// every `period` cycles. Uses the *default* `run_window` (the
    /// tick-by-tick loop), so these tests pin the engine machinery, not a
    /// model's fast-forward override.
    #[derive(Debug, Clone)]
    struct ToyCore {
        period: u64,
        committed: u64,
        pongs: u64,
    }

    impl ToyCore {
        fn new(period: u64) -> Self {
            ToyCore {
                period,
                committed: 0,
                pongs: 0,
            }
        }
    }

    impl CoreModel for ToyCore {
        type Event = Toy;

        fn tick(&mut self, ctx: &mut TickCtx<'_, Toy>) -> u32 {
            while let Some(ev) = ctx.pop_event() {
                assert_eq!(ev.payload, Toy::Pong);
                self.pongs += 1;
            }
            if ctx.now().as_u64().is_multiple_of(self.period) {
                ctx.emit(Toy::Ping);
            }
            self.committed += 1;
            1
        }

        fn committed(&self) -> u64 {
            self.committed
        }

        fn counters(&self) -> Counters {
            let mut c = Counters::new();
            c.set("committed", self.committed);
            c.set("pongs", self.pongs);
            c
        }
    }

    /// Toy uncore: one monitored resource, asserting in `service` that
    /// the stream arrives in canonical order — timestamp first, ties
    /// broken by core id. Any engine that merges staged buffers wrong
    /// fails here directly, not just through the monitor.
    #[derive(Debug, Clone, Default)]
    struct ToyUncore {
        monitor: TimestampMonitor,
        serviced: u64,
        last: Option<(u64, u16)>,
    }

    impl UncoreModel<Toy> for ToyUncore {
        fn service(&mut self, from: CoreId, ev: Timestamped<Toy>, sink: &mut ServiceSink<Toy>) {
            self.serviced += 1;
            let key = (ev.ts.as_u64(), from.index() as u16);
            if let Some(prev) = self.last {
                assert!(
                    prev <= key,
                    "service order regressed: {prev:?} then {key:?}"
                );
            }
            self.last = Some(key);
            if self.monitor.observe(ev.ts) {
                sink.report_violation(ViolationEvent {
                    kind: ViolationKind::Bus,
                    ts: ev.ts,
                    high_water: self.monitor.high_water(),
                });
            }
            sink.deliver(from, Timestamped::new(ev.ts + 5, Toy::Pong));
        }

        fn counters(&self) -> Counters {
            let mut c = Counters::new();
            c.set("serviced", self.serviced);
            c
        }
    }

    crate::impl_checkpointable_by_clone!(ToyCore, ToyUncore);

    fn toy_cores(n: usize) -> Vec<ToyCore> {
        (0..n).map(|i| ToyCore::new(3 + (i as u64 % 4))).collect()
    }

    fn run_batched(scheme: Scheme, target: u64) -> SimReport {
        let cfg = EngineConfig::new(scheme, target);
        BatchedEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .expect("run succeeds")
    }

    #[test]
    fn empty_core_set_is_an_error() {
        let cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 10);
        let eng: BatchedEngine<ToyCore, ToyUncore> =
            BatchedEngine::new(Vec::new(), ToyUncore::default(), cfg);
        assert_eq!(eng.run().unwrap_err(), EngineError::NoCores);
    }

    #[test]
    #[should_panic(expected = "requires a barrier scheme")]
    fn greedy_schemes_are_rejected() {
        let _ = run_batched(Scheme::BoundedSlack { bound: 16 }, 1000);
    }

    #[test]
    fn quantum_matches_the_sequential_engine_bit_identically() {
        // The whole point of the engine: same quantum scheme, same
        // simulated outcome, regardless of the sequential engine's seed.
        for seed in [1u64, 7, 42] {
            let mut seq_cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 6000);
            seq_cfg.seed = seed;
            let seq = SequentialEngine::new(toy_cores(4), ToyUncore::default(), seq_cfg)
                .run()
                .unwrap();
            let bat = run_batched(Scheme::Quantum { quantum: 50 }, 6000);
            assert_eq!(seq.global_cycles, bat.global_cycles, "seed {seed}");
            assert_eq!(seq.committed, bat.committed, "seed {seed}");
            assert_eq!(seq.violations, bat.violations, "seed {seed}");
            assert_eq!(seq.per_core, bat.per_core, "seed {seed}");
            assert_eq!(seq.uncore, bat.uncore, "seed {seed}");
        }
    }

    #[test]
    fn cycle_by_cycle_also_matches_sequential() {
        // CC is the degenerate quantum-1 barrier scheme; the batched loop
        // must reproduce it exactly too.
        let seq = SequentialEngine::new(
            toy_cores(4),
            ToyUncore::default(),
            EngineConfig::new(Scheme::CycleByCycle, 2000),
        )
        .run()
        .unwrap();
        let bat = run_batched(Scheme::CycleByCycle, 2000);
        assert_eq!(seq.global_cycles, bat.global_cycles);
        assert_eq!(seq.committed, bat.committed);
        assert_eq!(seq.per_core, bat.per_core);
        assert_eq!(seq.uncore, bat.uncore);
    }

    #[test]
    fn quantum_has_zero_monitor_violations() {
        let r = run_batched(Scheme::Quantum { quantum: 50 }, 6000);
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 0);
        assert!(r.core_total("pongs") > 0);
    }

    #[test]
    fn staged_events_resolve_in_timestamp_order() {
        // Two cores race events inside every quantum (periods 3 and 4
        // interleave their emission times, tying at every multiple of
        // 12); boundary resolution must service the merged stream in
        // timestamp order with ties broken by core id — ToyUncore
        // asserts exactly that on every service call.
        let cfg = EngineConfig::new(Scheme::Quantum { quantum: 64 }, 2000);
        let cores = vec![ToyCore::new(3), ToyCore::new(4)];
        let r = BatchedEngine::new(cores, ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 100, "the race actually ran");
    }

    /// The merge this engine shipped with: a min-scan over every
    /// buffer's head per event, replacing the candidate only on a strictly
    /// smaller timestamp so ties go to the lowest core id. Kept as the
    /// reference [`sweep`] is compared against.
    fn min_scan_order(staged: Vec<Vec<Timestamped<u32>>>) -> Vec<(usize, u64, u32)> {
        let mut heads: Vec<_> = staged
            .into_iter()
            .map(|b| b.into_iter().peekable())
            .collect();
        let mut order = Vec::new();
        loop {
            let mut best: Option<(Cycle, usize)> = None;
            for (i, it) in heads.iter_mut().enumerate() {
                if let Some(head) = it.peek() {
                    if best.is_none_or(|(ts, _)| head.ts < ts) {
                        best = Some((head.ts, i));
                    }
                }
            }
            let Some((_, idx)) = best else { break };
            let ev = heads[idx].next().expect("peeked head");
            order.push((idx, ev.ts.as_u64(), ev.payload));
        }
        order
    }

    fn sweep_order(mut staged: Vec<Vec<Timestamped<u32>>>, from: u64) -> Vec<(usize, u64, u32)> {
        let mut heads: Vec<u64> = staged.iter_mut().map(|b| arm(b)).collect();
        let mut order = Vec::new();
        sweep(&mut heads, from, |i| {
            let ev = staged[i].pop().expect("a finite head names an event");
            order.push((i, ev.ts.as_u64(), ev.payload));
            head_ts(&staged[i])
        });
        assert!(staged.iter().all(Vec::is_empty), "every event served");
        order
    }

    #[test]
    fn sweep_serves_the_min_scan_order_element_by_element() {
        use crate::rng::Xoshiro256;
        let (from, to) = (1000u64, 1050u64);
        let sorted = |rng: &mut Xoshiro256, len: u64, tag: &mut u32| {
            let mut ts: Vec<u64> = (0..len).map(|_| rng.next_range(from, to)).collect();
            ts.sort_unstable();
            ts.into_iter()
                .map(|t| {
                    *tag += 1;
                    Timestamped::new(Cycle::new(t), *tag)
                })
                .collect::<Vec<_>>()
        };
        let mut cases: Vec<Vec<Vec<Timestamped<u32>>>> = Vec::new();
        let mut rng = Xoshiro256::new(0x5eed);
        for round in 0..200u64 {
            let cores = rng.next_range(1, 70) as usize;
            let mut tag = 0;
            // Few distinct timestamps on even rounds, so ties across
            // cores and runs of equal timestamps within one are common;
            // a third of the cores stage nothing.
            cases.push(
                (0..cores)
                    .map(|_| {
                        let len = if rng.chance(1, 3) {
                            0
                        } else {
                            rng.next_below(9)
                        };
                        let mut buf = sorted(&mut rng, len, &mut tag);
                        if round % 2 == 0 {
                            for ev in &mut buf {
                                ev.ts = Cycle::new(from + ev.ts.as_u64() % 4);
                            }
                            buf.sort_by_key(|ev| ev.ts);
                        }
                        buf
                    })
                    .collect(),
            );
        }
        // One core holding every event, nothing staged at all, and a lone
        // event in the window's last cycle.
        let mut tag = 0;
        let mut hog = vec![Vec::new(); 64];
        hog[17] = sorted(&mut rng, 300, &mut tag);
        cases.push(hog);
        cases.push(vec![Vec::new(); 64]);
        let mut lone = vec![Vec::new(); 64];
        lone[63] = vec![Timestamped::new(Cycle::new(to - 1), 1)];
        cases.push(lone);

        for (n, staged) in cases.into_iter().enumerate() {
            let want = min_scan_order(staged.clone());
            let got = sweep_order(staged, from);
            assert_eq!(want.len(), got.len(), "case {n}: serviced count");
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w, g, "case {n}: element {k} (core, ts, tag)");
            }
        }
    }

    #[test]
    fn cycle_cap_stops_at_a_boundary() {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, u64::MAX);
        cfg.max_cycles = 500;
        let r = BatchedEngine::new(toy_cores(2), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.global_cycles, 500);
        assert_eq!(r.kernel.get("finish_commit_target"), 0);
    }

    #[test]
    fn checkpoint_only_counts_boundary_checkpoints() {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 40_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        let r = BatchedEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        let cps = r.kernel.get("checkpoints");
        let expected = r.global_cycles / 1000;
        assert!(
            cps >= expected.saturating_sub(2) && cps <= expected + 2,
            "expected about {expected} checkpoints, took {cps}"
        );
        assert_eq!(r.kernel.get("rollbacks"), 0);
    }

    #[test]
    fn save_hook_fires_at_quantum_boundaries_without_rng() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 50 }, 20_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(700));
        let hook: SaveHook<ToyCore, ToyUncore> = Box::new(move |view| {
            assert!(view.rng.is_none(), "the batched engine has no burst RNG");
            sink.borrow_mut().push(view.global.as_u64());
            Some(1)
        });
        let _ = BatchedEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .with_save_hook(hook)
            .run()
            .unwrap();
        let globals = seen.borrow();
        assert!(!globals.is_empty(), "hook must fire");
        assert!(
            globals.iter().all(|g| g.is_multiple_of(50)),
            "checkpoints land exactly on quantum boundaries: {globals:?}"
        );
    }

    #[test]
    fn per_core_counters_sum_to_committed() {
        let r = run_batched(Scheme::Quantum { quantum: 32 }, 5000);
        assert_eq!(r.core_total("committed"), r.committed);
    }
}
