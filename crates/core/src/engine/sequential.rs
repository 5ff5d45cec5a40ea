//! The deterministic sequential engine.
//!
//! Runs the entire simulation on the calling thread while *emulating* the
//! parallel execution of SlackSim: each target core has a local time capped
//! by the pacer's window, and a seeded burst scheduler decides which core
//! advances next and for how many cycles — a reproducible stand-in for the
//! host OS scheduler's nondeterminism. The manager role (global queue
//! servicing, violation accounting, adaptive sampling, checkpointing and
//! rollback) is the shared [`Kernel`]; this file is only the driver that
//! decides which core ticks when: window arithmetic, capped at the
//! kernel's checkpoint stop point, and the burst pick.
//!
//! The burst pick reads incremental state, not scans over every core
//! ([`BurstSched`]): a tournament tree gives global time and the laggard,
//! a running max the furthest clock, and a Fenwick tree the runnable
//! cores in ascending order. A burst moves one clock, so a pick costs
//! O(log n); the runnable set is rebuilt only when the windows move (on
//! every iteration under Lax-P2P's per-core windows) and on rollback.
//! It answers exactly what scans over every core would (debug builds
//! check it every iteration), so no pick or RNG draw depends on it.
//!
//! A one-cycle barrier window that finds every core at its start — every
//! cycle-by-cycle window, and every replay window after a rollback — needs
//! no burst emulation at all: each burst lasts the one cycle whichever
//! core it picks, so the window's draws depend only on the core count
//! ([`one_cycle_draws`]). The driver makes them, ticks each core once in
//! index order and rebuilds the scheduler once per window.
//!
//! Because every run with the same configuration and seed is bit-identical,
//! this engine is the vehicle for the accuracy experiments (Figure 3) and
//! for the fully-deployed speculative rollback extension.

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{Finish, Kernel};
use crate::engine::{
    BurstPolicy, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    TickCtx, UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::{Phase, ProfSite, TraceEvent};
use crate::rng::Xoshiro256;
use crate::stats::SimReport;
use crate::time::Cycle;

/// Deterministic single-threaded slack-simulation engine.
///
/// # Examples
///
/// See the crate-level documentation and the integration tests; the engine
/// is generic and needs a concrete [`CoreModel`]/[`UncoreModel`] pair such
/// as the ones in `slacksim-cmp`.
pub struct SequentialEngine<C: CoreModel, U: UncoreModel<C::Event>> {
    cores: Vec<C>,
    uncore: U,
    cfg: EngineConfig,
    save_hook: Option<SaveHook<C, U>>,
    resume: Option<EngineResume<C, U>>,
}

impl<C, U> SequentialEngine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Creates an engine over the given target cores and uncore.
    pub fn new(cores: Vec<C>, uncore: U, cfg: EngineConfig) -> Self {
        SequentialEngine {
            cores,
            uncore,
            cfg,
            save_hook: None,
            resume: None,
        }
    }

    /// Installs a hook invoked after every committed checkpoint with a
    /// borrowed [`CheckpointView`](crate::engine::CheckpointView) of the
    /// restorable state, and dropped when the run ends ([`SaveHook`] says
    /// what it returns and what its `Drop` may finish).
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
    /// [`EngineError::Stalled`] if (defensively) no core can advance.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let SequentialEngine {
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
        // Resume: replace the freshly-built state wholesale with the
        // persisted snapshot before the checkpoint base is taken, so
        // rollback and delta capture both measure from restored state.
        let mut inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let (mut start_global, mut committed, mut ledger) = (Cycle::ZERO, 0, None);
        if let Some(res) = resume {
            res.check_cores(n)?;
            (start_global, committed) = (res.global, res.committed);
            (cores, inboxes) = res.cores.into_iter().unzip();
            (uncore, ledger) = (res.uncore, Some(res.ledger));
        }
        let mut k = Kernel::new(&cfg, n, save_hook, (start_global, committed), ledger);
        // The whole run is one thread, so the profile's coverage
        // denominator is wall * 1.
        let ph = k.prof_handle();
        let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
        let mut outbox: Vec<Timestamped<C::Event>> = Vec::new();
        let mut rng = k.ledger().rng.clone().unwrap_or(Xoshiro256::new(cfg.seed));
        let mut sched = BurstSched::new(n, start_global);
        k.seed_base(&mut cores, &inboxes, &mut uncore, start_global, committed);

        // A peer-paced pacer's per-core window ends, refilled in place
        // every iteration (and never allocated under any other pacer).
        let mut ends: Vec<Cycle> = Vec::new();
        // Barrier schemes hold the window fixed until every core reaches it
        // and the batch is serviced; greedy schemes slide it with global
        // time every iteration.
        let mut window_end = k.pacer().window_end(start_global);
        let finish_reason;

        // The sequential engine has no out-queues to drain; the manager
        // drain site instead carries the dispatch machinery — window
        // computation, burst pick, feedback and metrics sampling. Nested
        // tick/service/checkpoint spans subtract themselves from its
        // self-time, so the profile still separates target work from
        // scheduling overhead. The span is re-entered every
        // ITER_SPAN_BATCH iterations rather than every iteration: a release
        // loop iteration is a few hundred ns, so per-iteration span
        // boundaries (two monotonic clock reads each) would leave several
        // percent of the wall-clock unattributed.
        const ITER_SPAN_BATCH: u32 = 64;
        let mut iter_span = ph.enter(ProfSite::ManagerDrain);
        let mut span_age = 0u32;
        // True exactly when every core sits on a window boundary whose
        // batch has been serviced (or at the start, trivially): the only
        // states where a barrier-scheme run may finish.
        let mut at_serviced_boundary = true;

        loop {
            if k.rollback_pending() {
                // A selected violation was serviced: rewind everything to
                // the standing checkpoint and replay cycle by cycle.
                let _span = ph.enter(ProfSite::CheckpointRestore);
                let (at, at_committed) = k.rollback_ledger(sched.global());
                k.restore_models(cores.iter_mut().zip(inboxes.iter_mut()), &mut uncore);
                gq.clear();
                sched.reset(at);
                committed = at_committed;
                window_end = at + 1;
            }
            span_age += 1;
            if span_age == ITER_SPAN_BATCH {
                span_age = 0;
                // Drop before re-entering: the guard pushes a frame on the
                // per-thread child stack, so the old span must pop first.
                drop(iter_span);
                iter_span = ph.enter(ProfSite::ManagerDrain);
            }
            let (global, furthest) = (sched.global(), sched.furthest());
            // The empirical slack, reported so tests can assert the bound.
            k.note_spread(furthest.saturating_sub(global));
            let barrier = k.barrier();

            // Finish checks. Barrier schemes only stop at *serviced*
            // window boundaries so that the stopping point is
            // deterministic and identical to the threaded engine's — the
            // natural boundary the pacer published, never a clamped or
            // coincidental intermediate point (with one core "all locals
            // equal" holds mid-window too), so the batched engine (which
            // only observes boundaries) stops in the identical state.
            if at_serviced_boundary {
                debug_assert!(furthest == global && gq.is_empty());
            }
            if committed >= cfg.commit_target && (!barrier || at_serviced_boundary) {
                finish_reason = FinishReason::CommitTarget;
                break;
            }
            if global.as_u64() >= cfg.max_cycles {
                finish_reason = FinishReason::CycleCap;
                break;
            }

            k.on_global(global, committed, sched.locals(), gq.len() as u64);

            // Checkpoint scheduling: once global time crosses the trigger,
            // every window is capped at one common stop point.
            let stop_at = k.arm_stop(global, furthest);

            // Effective window for this iteration. Greedy schemes slide
            // continuously (uniformly, or per core for peer-to-peer
            // pacers); barrier schemes keep `window_end` until the batch
            // at the boundary has been serviced.
            let mut per_core = false;
            if !barrier {
                window_end = k.pacer().window_end(global).min(cfg.lead_cap(global));
                per_core = k.pacer_mut().window_ends(sched.locals(), &mut ends);
            }
            let cap = cfg.lead_cap(global);
            let win = stop_at.map_or(window_end, |s| window_end.min(s));

            // A one-cycle barrier window with every core at its start:
            // whichever core a burst picks, the burst lasts the one cycle,
            // so the window is one tick per core, and only the number of
            // bursts decides the draws (DESIGN §19 "One-cycle windows").
            // Cycle-by-cycle and every replay run here.
            if barrier && furthest == global && win == global + 1 {
                let traced = k.tracing() && !k.replaying();
                if traced {
                    sched.refresh(Some(win), |_| win);
                }
                one_cycle_draws(&mut rng, &cfg.burst, n, |rank| {
                    if traced {
                        let pick = sched.kth_runnable(rank);
                        sched.take(pick);
                        let (core, phase) = (CoreId::new(pick as u16), Phase::Run);
                        k.trace(global, TraceEvent::PhaseBegin { core, phase });
                        k.trace(win, TraceEvent::PhaseEnd { core, phase });
                    }
                });
                {
                    let _span = ph.enter(ProfSite::CoreTick);
                    // Index order: the global queue orders cores by id, and
                    // each core's own events by arrival, so the service
                    // order is the per-burst loop's.
                    for (i, (core, inbox)) in cores.iter_mut().zip(&mut inboxes).enumerate() {
                        let mut ctx = TickCtx::new(global, inbox, &mut outbox);
                        committed += u64::from(core.tick(&mut ctx));
                        gq.push_batch(CoreId::new(i as u16), &mut outbox);
                    }
                }
                sched.close_window(win);
                // The spread the per-burst loop saw after its first burst.
                if n > 1 {
                    k.note_spread(1);
                }
                at_serviced_boundary = false;
                continue;
            }

            let win_for = |i: usize| -> Cycle {
                if per_core {
                    stop_at.map_or(ends[i].min(cap), |s| ends[i].min(cap).min(s))
                } else {
                    win
                }
            };
            sched.refresh((!per_core).then_some(win), win_for);
            #[cfg(debug_assertions)]
            sched.assert_matches_scans(win_for);

            if sched.runnable() == 0 {
                // Every core reached the window end (or the stop point).
                if let Some(s) = stop_at.filter(|&s| global == s && furthest == s) {
                    // Drain all outstanding events before snapshotting so
                    // queues are empty in the checkpoint.
                    {
                        let _span = ph.enter(ProfSite::ManagerService);
                        k.service_all(&mut gq, &mut uncore, |to, ev| {
                            inboxes[to.index()].deliver(ev)
                        });
                    }
                    if !k.rollback_pending() {
                        k.capture_cores(cores.iter_mut().zip(&inboxes));
                        k.commit_checkpoint(s, committed, &mut uncore, Some(&rng));
                        window_end = k.pacer().window_end(s);
                    }
                    continue;
                }
                if barrier {
                    // Batch-service the window's events in timestamp order,
                    // then open the next window.
                    {
                        let _span = ph.enter(ProfSite::ManagerService);
                        k.service_all(&mut gq, &mut uncore, |to, ev| {
                            inboxes[to.index()].deliver(ev)
                        });
                    }
                    debug_assert!(!k.rollback_pending(), "CC/quantum servicing cannot violate");
                    at_serviced_boundary = true;
                    window_end = if k.replaying() {
                        win + 1
                    } else {
                        k.pacer().window_end(win)
                    };
                    continue;
                }
                // Greedy mode: the slowest core always has headroom
                // (window_end > global), so this is unreachable unless a
                // pacer breaks its contract.
                return Err(EngineError::Stalled { at: global });
            }

            // Burst-schedule one core: mostly the laggard (host-scheduler
            // fairness), sometimes a random core (reordering noise).
            // The laggard is the first core at `global`: every core there
            // is runnable (the pacer's liveness contract, and the stop
            // point is at or past `furthest`).
            let pick = match draw_rank(&mut rng, &cfg.burst, sched.runnable()) {
                Some(rank) => sched.kth_runnable(rank),
                None => sched.laggard(),
            };
            let burst = rng.next_range(1, cfg.burst.max_burst);
            let pick_win = win_for(pick);
            let mut now = sched.local(pick);
            let head = pick_win.saturating_sub(now).min(burst);
            if head > 0 {
                at_serviced_boundary = false;
            }
            let core = CoreId::new(pick as u16);
            let phase = Phase::Run;
            let trace_run = head > 0 && !k.replaying();
            if trace_run {
                k.trace(now, TraceEvent::PhaseBegin { core, phase });
            }
            {
                let _span = ph.enter(ProfSite::CoreTick);
                for _ in 0..head {
                    let mut ctx = TickCtx::new(now, &mut inboxes[pick], &mut outbox);
                    let c = cores[pick].tick(&mut ctx);
                    committed += u64::from(c);
                    now += 1;
                    if !barrier && committed >= cfg.commit_target {
                        break;
                    }
                }
                // One heap reserve + push per burst instead of per tick:
                // outbox order is generation order, and `push_batch` assigns
                // arrival sequence numbers in that order, so the pop order
                // is identical to pushing tick by tick.
                gq.push_batch(core, &mut outbox);
            }
            sched.advance(pick, now, pick_win);
            if trace_run {
                k.trace(now, TraceEvent::PhaseEnd { core, phase });
            }

            if !barrier {
                let _span = ph.enter(ProfSite::ManagerService);
                k.service_all(&mut gq, &mut uncore, |to, ev| {
                    inboxes[to.index()].deliver(ev)
                });
            }
        }
        drop(iter_span);

        let finish = Finish {
            global: sched.global(),
            committed,
            reason: finish_reason,
            locals: sched.locals(),
            gq_len: gq.len() as u64,
            per_core: cores.iter().map(CoreModel::counters).collect(),
            uncore: uncore.counters(),
            threads: 1,
        };
        Ok(k.finish(finish))
    }
}

/// A burst's pick among `runnable` cores: the laggard (`None`) with the
/// policy's bias, else the rank of a uniformly drawn runnable core in
/// ascending index order.
#[inline]
fn draw_rank(rng: &mut Xoshiro256, burst: &BurstPolicy, runnable: usize) -> Option<usize> {
    if burst.lag_bias_percent > 0 && rng.chance(u64::from(burst.lag_bias_percent), 100) {
        None
    } else {
        Some(rng.next_below(runnable as u64) as usize)
    }
}

/// The draws of a one-cycle barrier window's `n` bursts, every core
/// standing at the window's start: the per-burst loop's pick and burst
/// length for `n, n − 1, …, 1` runnable cores, in its order. Every burst
/// lasts the window's one cycle, whatever its pick and length, so nothing
/// else feeds the draws. Hands `pick` each burst's rank among the cores
/// not yet picked, in ascending index order; the laggard, the first of
/// them, is rank 0.
fn one_cycle_draws(
    rng: &mut Xoshiro256,
    burst: &BurstPolicy,
    n: usize,
    mut pick: impl FnMut(usize),
) {
    for runnable in (1..=n).rev() {
        let rank = draw_rank(rng, burst, runnable).unwrap_or(0);
        let _ = rng.next_range(1, burst.max_burst);
        pick(rank);
    }
}

/// The burst pick's view of the cores' clocks, updated burst by burst
/// instead of rescanned (DESIGN §19 "Burst scheduler"). A burst moves one
/// core's clock forward, so each piece of state has an O(log n) update:
///
/// - `global` and the laggard are the root of a tournament tree over
///   `(local, core)`: the least local time, and the first core in index
///   order that holds it;
/// - `furthest` is a running max;
/// - the runnable set `{i : locals[i] < win_for(i)}` is a Fenwick tree
///   over membership bits, so the `k`-th runnable core in ascending index
///   order and dropping one are both O(log n).
///
/// Clocks only move backwards on a rollback, which [`reset`](Self::reset)
/// rebuilds from. The runnable set is rebuilt when the windows it was
/// built for change: a uniform window when it moves, per-core windows on
/// every iteration. Between rebuilds a burst never passes its window, so
/// the only change to the set is the picked core reaching it.
struct BurstSched {
    locals: Vec<Cycle>,
    /// Tournament tree, root at 1 and core `i`'s leaf at `leaves + i`;
    /// padding leaves hold `(Cycle::MAX, u32::MAX)` and never win.
    tree: Vec<(Cycle, u32)>,
    leaves: usize,
    furthest: Cycle,
    /// Fenwick tree over the runnable bits, 1-based: `fen[j]` counts the
    /// runnable cores among `j - lowbit(j) .. j` (0-based, half-open).
    fen: Vec<u32>,
    /// The highest power of two at most `n`: the select walk's first step.
    top: usize,
    runnable: usize,
    /// The uniform window the runnable set was built for; `None` forces
    /// the next [`refresh`](Self::refresh) to rebuild.
    built_for: Option<Cycle>,
}

impl BurstSched {
    /// `n >= 1` cores, every one at `at`.
    fn new(n: usize, at: Cycle) -> Self {
        let leaves = n.next_power_of_two();
        let mut sched = BurstSched {
            locals: vec![at; n],
            tree: vec![(Cycle::MAX, u32::MAX); 2 * leaves],
            leaves,
            furthest: at,
            fen: vec![0; n + 1],
            top: 1 << n.ilog2(),
            runnable: 0,
            built_for: None,
        };
        sched.reset(at);
        sched
    }

    /// Puts every core at `at`: run start, resume and rollback.
    fn reset(&mut self, at: Cycle) {
        let n = self.locals.len();
        self.locals.fill(at);
        for (i, leaf) in self.tree[self.leaves..self.leaves + n]
            .iter_mut()
            .enumerate()
        {
            *leaf = (at, i as u32);
        }
        for j in (1..self.leaves).rev() {
            self.tree[j] = self.tree[2 * j].min(self.tree[2 * j + 1]);
        }
        self.furthest = at;
        self.built_for = None;
    }

    fn locals(&self) -> &[Cycle] {
        &self.locals
    }

    fn local(&self, i: usize) -> Cycle {
        self.locals[i]
    }

    /// The least local time.
    fn global(&self) -> Cycle {
        self.tree[1].0
    }

    /// The greatest local time.
    fn furthest(&self) -> Cycle {
        self.furthest
    }

    /// The first core in index order at [`global`](Self::global): the
    /// least-advanced runnable core whenever any core is runnable, since
    /// every core at `global` is.
    fn laggard(&self) -> usize {
        self.tree[1].1 as usize
    }

    /// How many cores are runnable.
    fn runnable(&self) -> usize {
        self.runnable
    }

    /// Brings the runnable set up to date with this iteration's windows:
    /// `uniform` is the window every core shares, `None` under per-core
    /// windows; `win_for(i)` is core `i`'s window either way. Rebuilds
    /// (O(n)) only when the windows differ from the ones it was built for.
    fn refresh(&mut self, uniform: Option<Cycle>, win_for: impl Fn(usize) -> Cycle) {
        if uniform.is_some() && uniform == self.built_for {
            return;
        }
        self.built_for = uniform;
        let n = self.locals.len();
        self.runnable = 0;
        for i in 0..n {
            let bit = u32::from(self.locals[i] < win_for(i));
            self.runnable += bit as usize;
            self.fen[i + 1] = bit;
        }
        for j in 1..=n {
            let up = j + (j & j.wrapping_neg());
            if up <= n {
                self.fen[up] += self.fen[j];
            }
        }
    }

    /// The `k`-th runnable core (from 0) in ascending index order: the
    /// longest prefix holding at most `k` runnable cores ends just before
    /// it.
    fn kth_runnable(&self, mut k: usize) -> usize {
        debug_assert!(k < self.runnable);
        let mut pos = 0;
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next < self.fen.len() && self.fen[next] as usize <= k {
                pos = next;
                k -= self.fen[next] as usize;
            }
            step >>= 1;
        }
        pos
    }

    /// Records runnable core `i`'s burst, which took it to `to`, and drops
    /// it from the runnable set once `to` reaches its window `win`.
    fn advance(&mut self, i: usize, to: Cycle, win: Cycle) {
        self.locals[i] = to;
        self.furthest = self.furthest.max(to);
        let mut j = self.leaves + i;
        self.tree[j] = (to, i as u32);
        while j > 1 {
            j /= 2;
            self.tree[j] = self.tree[2 * j].min(self.tree[2 * j + 1]);
        }
        if to >= win {
            self.take(i);
        }
    }

    /// Drops runnable core `i` from the runnable set.
    fn take(&mut self, i: usize) {
        self.runnable -= 1;
        let mut j = i + 1;
        while j < self.fen.len() {
            self.fen[j] -= 1;
            j += j & j.wrapping_neg();
        }
    }

    /// Puts every core at `at`, the end of the one-cycle window all of
    /// them just ran: one rebuild per window, in which none is runnable.
    fn close_window(&mut self, at: Cycle) {
        self.reset(at);
        self.fen.fill(0);
        self.runnable = 0;
        self.built_for = Some(at);
    }

    /// Asserts that the incremental state equals what the scans it
    /// replaces compute from the clocks and `win_for`: the reference
    /// model, kept allocation-free so that debug builds still hold the
    /// loop to no allocation per iteration.
    #[cfg(any(test, debug_assertions))]
    fn assert_matches_scans(&self, win_for: impl Fn(usize) -> Cycle) {
        let locals = &self.locals;
        let runnable = (0..locals.len()).filter(|&i| locals[i] < win_for(i));
        assert_eq!(Some(self.global()), locals.iter().copied().min(), "global");
        assert_eq!(
            Some(self.furthest),
            locals.iter().copied().max(),
            "furthest"
        );
        assert!(
            runnable
                .clone()
                .eq((0..self.runnable).map(|k| self.kth_runnable(k))),
            "the k-th runnable core is not the k-th in ascending order"
        );
        if let Some(laggard) = runnable.min_by_key(|&i| locals[i]) {
            assert_eq!(self.laggard(), laggard, "laggard");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceSink;
    use crate::scheme::Scheme;
    use crate::speculative::{SpeculationConfig, ViolationSelect};
    use crate::stats::Counters;
    use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

    /// Toy event: cores ping the uncore, the uncore pongs back.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Toy {
        Ping,
        Pong,
    }

    /// Toy core: commits one instruction per cycle and pings the uncore
    /// every `period` cycles.
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

    /// Toy uncore: a single monitored resource with a 5-cycle response
    /// latency — a minimal bus.
    #[derive(Debug, Clone, Default)]
    struct ToyUncore {
        monitor: TimestampMonitor,
        serviced: u64,
    }

    impl UncoreModel<Toy> for ToyUncore {
        fn service(&mut self, from: CoreId, ev: Timestamped<Toy>, sink: &mut ServiceSink<Toy>) {
            self.serviced += 1;
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

    fn run(scheme: Scheme, seed: u64, target: u64) -> SimReport {
        let mut cfg = EngineConfig::new(scheme, target);
        cfg.seed = seed;
        SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .expect("run succeeds")
    }

    /// How one round of the scheduler oracle sets its windows.
    #[derive(Clone, Copy)]
    enum Windows {
        /// `global + bound`, sliding every iteration; the bound sometimes
        /// shrinks below cores already past it, as an adaptive pacer's.
        Greedy,
        /// Held until every core reaches it, then moved on by `bound`.
        Barrier,
        /// Per core: a random peer's clock plus `bound`, under a lead cap.
        PerCore,
    }

    /// [`BurstSched`] against the scans it replaces
    /// ([`BurstSched::assert_matches_scans`]: `global`, `furthest`, the
    /// runnable cores in ascending order, every `k`-th pick and the
    /// laggard), driven the way the run loop drives it: seeded picks and
    /// bursts under uniform and per-core windows, checkpoint stop caps,
    /// replay windows (`win + 1`) and rebuilds after rollbacks. Bursts of
    /// one or two cycles on every other round keep clocks bunched, so
    /// ties are common.
    #[test]
    fn burst_sched_matches_the_scans_it_replaces() {
        let mut rng = Xoshiro256::new(0x5eed);
        // (stop points reached, barrier windows moved, replay windows,
        // rollbacks, per-core iterations): each path must have run.
        let mut seen = [0u32; 5];
        for round in 0..600usize {
            let n = rng.next_range(1, 70) as usize;
            let mode = [Windows::Greedy, Windows::Barrier, Windows::PerCore][round % 3];
            let max_burst = if round % 2 == 0 { 2 } else { 12 };
            let start = Cycle::new(rng.next_below(100));
            let mut sched = BurstSched::new(n, start);
            let mut bound = rng.next_range(1, 16);
            let mut window_end = start + bound;
            let mut stop: Option<Cycle> = None;
            let mut replay = 0;
            let mut ends: Vec<Cycle> = Vec::new();
            for _ in 0..300 {
                if rng.chance(1, 60) {
                    let back = rng.next_below(20);
                    let at = Cycle::new(sched.global().as_u64().saturating_sub(back));
                    sched.reset(at);
                    stop = None;
                    replay = rng.next_range(1, 20);
                    window_end = at + 1;
                    seen[3] += 1;
                }
                let (global, furthest) = (sched.global(), sched.furthest());
                if stop.is_none() && rng.chance(1, 25) {
                    stop = Some(furthest.max(global + rng.next_below(30)));
                }
                let barrier = replay > 0 || matches!(mode, Windows::Barrier);
                let per_core = !barrier && matches!(mode, Windows::PerCore);
                if !barrier {
                    if rng.chance(1, 10) {
                        bound = rng.next_range(1, 16);
                    }
                    window_end = global + bound;
                }
                if per_core {
                    ends.clear();
                    ends.extend(
                        (0..n).map(|_| sched.local(rng.next_below(n as u64) as usize) + bound),
                    );
                    seen[4] += 1;
                }
                let cap = global + 12;
                let win = stop.map_or(window_end, |s| window_end.min(s));
                let win_for = |i: usize| -> Cycle {
                    if per_core {
                        stop.map_or(ends[i].min(cap), |s| ends[i].min(cap).min(s))
                    } else {
                        win
                    }
                };
                sched.refresh((!per_core).then_some(win), win_for);
                sched.assert_matches_scans(win_for);

                if sched.runnable() == 0 {
                    if let Some(s) = stop.filter(|&s| global == s && furthest == s) {
                        // The checkpoint commits; a replay ends with it.
                        stop = None;
                        replay = 0;
                        window_end = s + bound;
                        seen[0] += 1;
                    } else {
                        assert!(barrier, "round {round}: greedy windows stalled at {global}");
                        window_end = if replay > 0 {
                            replay -= 1;
                            seen[2] += 1;
                            win + 1
                        } else {
                            win + bound
                        };
                        seen[1] += 1;
                    }
                    continue;
                }
                let pick = if rng.chance(1, 2) {
                    sched.laggard()
                } else {
                    sched.kth_runnable(rng.next_below(sched.runnable() as u64) as usize)
                };
                let from = sched.local(pick);
                let head = rng
                    .next_range(1, max_burst)
                    .min(win_for(pick).saturating_sub(from));
                // Sometimes short of the burst, as one that reaches the
                // commit target under a greedy window stops.
                let head = if rng.chance(1, 10) {
                    rng.next_range(1, head)
                } else {
                    head
                };
                sched.advance(pick, from + head, win_for(pick));
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "unexercised path: {seen:?}");
    }

    /// [`one_cycle_draws`] against the per-burst loop it stands in for:
    /// `n` bursts through [`BurstSched`] with the loop's three draws, in a
    /// one-cycle window with every core at its start. Both must leave the
    /// RNG in one state and pick the cores in one order, whatever the
    /// core count, fairness bias, burst cap and seed.
    #[test]
    fn one_cycle_draws_match_the_per_burst_picks() {
        let (at, win) = (Cycle::new(40), Cycle::new(41));
        for n in 1..=70usize {
            for lag_bias_percent in [0u8, 30, 100] {
                for max_burst in [1u64, 16] {
                    for seed in [1u64, 7, 0x5eed] {
                        let policy = BurstPolicy {
                            max_burst,
                            lag_bias_percent,
                        };
                        let mut rng = Xoshiro256::new(seed);
                        let mut sched = BurstSched::new(n, at);
                        sched.refresh(Some(win), |_| win);
                        let mut want = Vec::new();
                        while sched.runnable() > 0 {
                            let pick = if lag_bias_percent > 0
                                && rng.chance(u64::from(lag_bias_percent), 100)
                            {
                                sched.laggard()
                            } else {
                                sched.kth_runnable(rng.next_below(sched.runnable() as u64) as usize)
                            };
                            let burst = rng.next_range(1, max_burst);
                            let from = sched.local(pick);
                            sched.advance(pick, from + win.saturating_sub(from).min(burst), win);
                            want.push(pick);
                        }

                        let mut pass_rng = Xoshiro256::new(seed);
                        let mut pass = BurstSched::new(n, at);
                        pass.refresh(Some(win), |_| win);
                        let mut got = Vec::new();
                        one_cycle_draws(&mut pass_rng, &policy, n, |rank| {
                            let pick = pass.kth_runnable(rank);
                            pass.take(pick);
                            got.push(pick);
                        });
                        pass.close_window(win);

                        let case = format!("n {n}, bias {lag_bias_percent}, max {max_burst}");
                        assert_eq!(got, want, "{case}, seed {seed}: pick order");
                        assert_eq!(pass_rng.state(), rng.state(), "{case}: RNG state");
                        assert_eq!(pass.locals(), sched.locals(), "{case}: clocks");
                        pass.assert_matches_scans(|_| win);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_core_set_is_an_error() {
        let cfg = EngineConfig::new(Scheme::CycleByCycle, 10);
        let eng: SequentialEngine<ToyCore, ToyUncore> =
            SequentialEngine::new(Vec::new(), ToyUncore::default(), cfg);
        assert_eq!(eng.run().unwrap_err(), EngineError::NoCores);
    }

    #[test]
    fn cycle_by_cycle_has_zero_violations() {
        let r = run(Scheme::CycleByCycle, 7, 4000);
        assert_eq!(r.violations.total(), 0, "CC is the gold standard");
        assert!(r.committed >= 4000);
        assert!(r.global_cycles > 0);
        // Barrier servicing must actually run: requests are serviced and
        // replies delivered back to the cores.
        assert!(r.uncore.get("serviced") > 0, "manager serviced no events");
        assert!(r.core_total("pongs") > 0, "cores received no replies");
    }

    #[test]
    fn bounded_one_has_zero_violations() {
        // Slack bound 1 cannot reorder events across cycles.
        let r = run(Scheme::BoundedSlack { bound: 1 }, 7, 4000);
        assert_eq!(r.violations.total(), 0);
    }

    #[test]
    fn unbounded_slack_produces_violations() {
        let r = run(Scheme::UnboundedSlack, 7, 8000);
        assert!(
            r.violations.total() > 0,
            "4 drifting cores must reorder on a single monitored bus"
        );
    }

    #[test]
    fn violations_grow_with_slack_bound() {
        let v8 = run(Scheme::BoundedSlack { bound: 8 }, 7, 8000)
            .violations
            .total();
        let v256 = run(Scheme::BoundedSlack { bound: 256 }, 7, 8000)
            .violations
            .total();
        assert!(
            v256 >= v8,
            "larger slack must not reduce violations ({v8} -> {v256})"
        );
        assert!(v256 > 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = run(Scheme::BoundedSlack { bound: 16 }, 42, 6000);
        let b = run(Scheme::BoundedSlack { bound: 16 }, 42, 6000);
        assert_eq!(a.global_cycles, b.global_cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.uncore, b.uncore);
    }

    #[test]
    fn cc_is_seed_independent() {
        // Under cycle-by-cycle pacing, scheduling order within a cycle must
        // not affect any statistic.
        let a = run(Scheme::CycleByCycle, 1, 4000);
        let b = run(Scheme::CycleByCycle, 999, 4000);
        assert_eq!(a.global_cycles, b.global_cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.uncore, b.uncore);
    }

    #[test]
    fn quantum_has_zero_monitor_violations() {
        // Batch servicing at boundaries keeps timestamp order intact.
        let r = run(Scheme::Quantum { quantum: 50 }, 7, 6000);
        assert_eq!(r.violations.total(), 0);
        assert!(r.uncore.get("serviced") > 0);
        assert!(r.core_total("pongs") > 0);
    }

    #[test]
    fn cycle_cap_stops_the_run() {
        let mut cfg = EngineConfig::new(Scheme::CycleByCycle, u64::MAX);
        cfg.max_cycles = 500;
        let r = SequentialEngine::new(toy_cores(2), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert_eq!(r.global_cycles, 500);
        assert_eq!(r.kernel.get("finish_commit_target"), 0);
    }

    #[test]
    fn checkpoint_only_counts_checkpoints() {
        let mut cfg = EngineConfig::new(Scheme::BoundedSlack { bound: 32 }, 40_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
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
    fn speculative_rollback_eliminates_selected_violations() {
        let mut cfg = EngineConfig::new(Scheme::UnboundedSlack, 20_000);
        cfg.speculation = Some(SpeculationConfig::speculative(500, ViolationSelect::all()));
        cfg.seed = 3;
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert!(
            r.kernel.get("rollbacks") > 0,
            "unbounded slack on a shared bus must trigger rollbacks"
        );
        // Every surviving interval was either clean or replayed in CC mode,
        // so the end-of-run tally contains no *selected* violations beyond
        // those detected in the final (unfinished) interval.
        assert!(r.kernel.get("violations_detected_total") >= r.violations.total());
        assert!(r.kernel.get("replay_cycles") > 0);
        assert!(r.committed >= 20_000);
    }

    #[test]
    fn interval_tracker_statistics_are_reported() {
        let mut cfg = EngineConfig::new(Scheme::UnboundedSlack, 30_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(1000));
        cfg.seed = 5;
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert!(r.kernel.get("intervals_total") > 0);
        assert!(r.kernel.get("intervals_violating") <= r.kernel.get("intervals_total"));
    }

    #[test]
    fn bound_trace_records_adaptive_bounds() {
        use crate::scheme::AdaptiveConfig;
        let mut cfg = EngineConfig::new(
            Scheme::Adaptive(AdaptiveConfig {
                sample_period: 256,
                ..AdaptiveConfig::default()
            }),
            20_000,
        );
        cfg.seed = 9;
        let r = SequentialEngine::new(toy_cores(4), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        assert!(!r.bound_trace.is_empty());
        assert!(r.bound_trace.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn per_core_counters_sum_to_committed() {
        let r = run(Scheme::BoundedSlack { bound: 4 }, 11, 5000);
        assert_eq!(r.core_total("committed"), r.committed);
    }
}
