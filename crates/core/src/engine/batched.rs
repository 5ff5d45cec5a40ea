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
//! Inside a window the cores are independent, so with more than one host
//! thread they run on a static partition of contiguous *lanes* — lane 0
//! on the manager thread, the rest on persistent workers — and meet at a
//! barrier before the merge, which stays on the manager thread with every
//! kernel verb: the result is bit-identical at every host-thread count by
//! construction (DESIGN §15.1).
//!
//! Documented divergences (all invisible to the simulated outcome):
//!
//! * the cycle cap and checkpoint trigger are honoured at the first
//!   quantum boundary at or past them, never mid-window;
//! * metrics/trace sampling happens at boundaries, where every core's
//!   drift is zero by construction.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{Finish, Kernel};
use crate::engine::merge::{arm, head_ts, sweep, NO_HEAD};
use crate::engine::wait::{lane_width, Backoff};
use crate::engine::{
    CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook, UncoreModel,
};
use crate::event::{CoreId, Inbox, Timestamped};
use crate::obs::{Phase, ProfHandle, ProfSite, Profiler, TraceEvent};
use crate::sched::{NativeSched, SchedSite};
use crate::stats::SimReport;
use crate::time::Cycle;

/// Core-cycles one lane must have to run in a window for the window to be
/// handed to the workers; below it every lane runs inline on the manager
/// thread. Measured on two host threads (DESIGN §15.1): at 32 and 64
/// core-cycles per lane (cycle-by-cycle at 64 cores is 32) a hand-off and
/// its barrier cost more than they save, 0.76–0.89x; from 96 up they win,
/// 1.03–1.22x.
const DISPATCH_FLOOR: u64 = 96;

/// Core-cycles a run steps inline before any window is handed off, and so
/// before the workers exist. Spawning them and the first, cold hand-offs
/// cost ~0.25 ms (DESIGN §15.1): a run over sooner than this — ~2 ms of
/// stepping — would pay that for nothing (a 64-core directory run to its
/// first commit is 8 windows, 25.6 K core-cycles, of cold misses), and a
/// run that has come this far has, as a rule, further to go.
const SPAWN_AFTER: u64 = 1 << 16;

/// Quantum-compiled BSP engine: steps all cores a full quantum per
/// iteration over their hot state, resolving cross-core interaction only
/// at quantum boundaries. With more than one host thread
/// ([`EngineConfig::host_threads`]) the cores of a window run on a static
/// partition of lanes, one per thread; everything at the boundary stays
/// on the calling thread, so the result does not depend on the thread
/// count.
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
    /// [`EngineError::Stalled`] if (defensively) the pacer publishes an
    /// empty window.
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is not a barrier scheme: the
    /// quantum-compiled loop is only equivalent to the paper's semantics
    /// when every cross-core event defers to a window boundary. A panic
    /// inside a core model's `run_window` surfaces from here whichever
    /// host thread the core ran on.
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
        let (mut k, resumed) = Kernel::new(&cfg, n, save_hook, false, resume)?;
        assert!(
            k.pacer.barrier_service(),
            "BatchedEngine requires a barrier scheme (quantum): greedy \
             schemes service events mid-window, which the batched loop \
             cannot observe"
        );

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

        // Static partition: contiguous lanes of `chunk` cores, one per
        // host thread, each with its cores' inboxes and staging buffers.
        let chunk = lane_width(cfg.host_threads, n);
        let lanes: Vec<Lane<'_, C>> = cores
            .chunks_mut(chunk)
            .zip(inboxes.chunks_mut(chunk))
            .zip(staged.chunks_mut(chunk))
            .map(|((cores, inboxes), staged)| Lane {
                cores,
                inboxes,
                staged,
            })
            .collect();
        let workers = lanes.len() - 1;
        let mut run = Windows {
            k: &mut k,
            cfg: &cfg,
            uncore: &mut uncore,
            lanes,
            chunk,
            n,
            global,
            committed,
        };
        let (reason, threads) = if workers == 0 {
            // One lane: no thread, lock or atomic anywhere on the path.
            (run.drive(None)?, 1)
        } else {
            let shared = Shared::new(workers, run.k.prof().clone());
            std::thread::scope(|scope| {
                let mut pool = Pool::new(scope, &shared);
                let reason = run.drive(Some(&mut pool))?;
                Ok((reason, pool.workers.len() as u64 + 1))
            })?
        };
        let Windows {
            global, committed, ..
        } = run;

        // At a boundary every core's local clock equals global time; the
        // per-core drift gauges are zero by construction.
        let locals = vec![global; n];
        let finish = Finish {
            global,
            committed,
            reason,
            locals: &locals,
            gq_len: 0,
            per_core: cores.iter().map(CoreModel::counters).collect(),
            uncore: uncore.counters(),
            extras: &[],
            threads,
        };
        Ok(k.finish(finish, |_| (0, 0)))
    }
}

/// A contiguous run of cores with their inboxes and staging buffers: what
/// one host thread steps through a window. Between windows every lane is
/// back with the manager.
struct Lane<'a, C: CoreModel> {
    cores: &'a mut [C],
    inboxes: &'a mut [Inbox<C::Event>],
    staged: &'a mut [Vec<Timestamped<C::Event>>],
}

impl<C: CoreModel> Lane<'_, C> {
    /// The hot loop: every core of the lane runs the whole window in one
    /// call, staging cross-core events locally. No scheduler, no queue
    /// touch, no bookkeeping between cycles.
    fn run(&mut self, from: Cycle, to: Cycle, ph: &ProfHandle) -> u64 {
        let mut committed = 0;
        for ((core, inbox), staged) in self
            .cores
            .iter_mut()
            .zip(self.inboxes.iter_mut())
            .zip(self.staged.iter_mut())
        {
            let _span = ph.enter(ProfSite::BatchedRun);
            committed += core.run_window(from, to, inbox, staged);
        }
        committed
    }
}

/// The manager's side of a run: the kernel, the uncore and — between
/// windows — every lane.
struct Windows<'r, 'a, C: CoreModel, U> {
    k: &'r mut Kernel<C, U>,
    cfg: &'r EngineConfig,
    uncore: &'r mut U,
    lanes: Vec<Lane<'a, C>>,
    /// Cores per lane (the last lane may hold fewer) and in all.
    chunk: usize,
    n: usize,
    global: Cycle,
    committed: u64,
}

impl<'a, C, U> Windows<'_, 'a, C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// The window loop. With a `pool`, windows that clear
    /// [`DISPATCH_FLOOR`] run one lane per host thread; everything else —
    /// and every kernel verb — runs here, on the calling thread.
    fn drive(
        &mut self,
        mut pool: Option<&mut Pool<'_, '_, 'a, C>>,
    ) -> Result<FinishReason, EngineError> {
        let ph = self.k.prof_handle();
        let n = self.n;
        // Core-cycles stepped so far.
        let mut stepped = 0u64;
        // Still sampled so CSV exports keep the same column set as the
        // other engines.
        let mut locals = vec![self.global; n];
        // Timestamp of each core's next staged event during the merge.
        let mut heads = vec![NO_HEAD; n];
        loop {
            let global = self.global;
            // `global` is always a serviced boundary here: all locals
            // equal, the global queue empty. These are exactly the states
            // at which the sequential engine's finish checks can pass
            // under a barrier scheme, so stopping here is bit-identical.
            if self.committed >= self.cfg.commit_target {
                return Ok(FinishReason::CommitTarget);
            }
            if global.as_u64() >= self.cfg.max_cycles {
                return Ok(FinishReason::CycleCap);
            }

            // Under a barrier scheme the tally only changes at boundaries,
            // so firing the sampling crossings here (instead of
            // mid-window) hands the pacer identical samples.
            locals.fill(global);
            self.k
                .on_global(global, self.committed, &locals, 0, |_| (0, 0));

            // Checkpoint at the first boundary at or past the trigger.
            // Every event at or below the boundary has been serviced, so
            // queues are empty and the state is restorable as-is.
            if self.k.checkpoint_due(global) {
                self.k.capture_cores(
                    self.lanes
                        .iter_mut()
                        .flat_map(|l| l.cores.iter_mut().zip(l.inboxes.iter())),
                );
                self.k
                    .commit_checkpoint(global, self.committed, self.uncore, None);
            }

            let window_end = self.k.pacer.window_end(global);
            if window_end <= global {
                return Err(EngineError::Stalled { at: global });
            }
            self.k.note_spread(window_end - global);

            // Run every core over the window.
            let work = (window_end - global) * n as u64;
            let per_lane = work / self.lanes.len() as u64;
            match pool.as_deref_mut() {
                Some(pool) if stepped >= SPAWN_AFTER && per_lane >= DISPATCH_FLOOR => {
                    self.committed += pool.run(&mut self.lanes, global, window_end, &ph);
                }
                _ => {
                    for lane in &mut self.lanes {
                        self.committed += lane.run(global, window_end, &ph);
                    }
                }
            }
            stepped += work;
            // The trace is the manager's, in core order, whoever ran the
            // cores: the record stream does not depend on the thread count.
            for core in CoreId::all(n) {
                let phase = Phase::Run;
                self.k.trace(global, TraceEvent::PhaseBegin { core, phase });
                self.k
                    .trace(window_end, TraceEvent::PhaseEnd { core, phase });
            }

            // Boundary resolution: service the staged events in
            // (timestamp, core id, staging order) — identical to the
            // sequential engine's pop order (timestamp, then core id as
            // fixed bus arbitration priority, then FIFO).
            {
                let _span = ph.enter(ProfSite::BatchedResolve);
                let bufs = self.lanes.iter_mut().flat_map(|l| l.staged.iter_mut());
                for (head, buf) in heads.iter_mut().zip(bufs) {
                    *head = arm(buf);
                }
                let (k, uncore, lanes, chunk) =
                    (&mut *self.k, &mut *self.uncore, &mut self.lanes, self.chunk);
                sweep(&mut heads, global.as_u64(), |i| {
                    let buf = &mut lanes[i / chunk].staged[i % chunk];
                    let ev = buf.pop().expect("a finite head names an event");
                    let head = head_ts(buf);
                    let rollback = k.service(CoreId::new(i as u16), ev, uncore, |to, out| {
                        let to = to.index();
                        lanes[to / chunk].inboxes[to % chunk].deliver(out);
                    });
                    debug_assert!(
                        !rollback,
                        "timestamp-ordered boundary servicing cannot produce \
                         rollback-selected violations"
                    );
                    head
                });
            }

            self.global = window_end;
        }
    }
}

/// What the manager and its window workers share.
struct Shared<'a, C: CoreModel> {
    /// Window generation. The manager bumps it (Release) once the window
    /// bounds are stored and every worker's lane is seated; a worker that
    /// reads the new value (Acquire) therefore sees both.
    epoch: AtomicU64,
    from: AtomicU64,
    to: AtomicU64,
    /// Raised (Release) when the manager leaves the window loop, by
    /// return or unwind; workers read it (Acquire) in their wait loop.
    quit: AtomicBool,
    /// The manager's thread, for a worker to wake it at the barrier.
    manager: std::thread::Thread,
    seats: Vec<Seat<'a, C>>,
    /// What both sides wait through: always the host's own scheduler,
    /// whatever `EngineConfig::sched` explores in the threaded engine.
    sched: NativeSched,
    prof: Profiler,
}

/// One worker's hand-off point.
struct Seat<'a, C: CoreModel> {
    /// The worker's lane while a dispatched window runs, empty otherwise.
    /// Phase-exclusive, never contended: the manager fills it before the
    /// epoch bump and empties it after `done` catches up; the worker
    /// locks it only in between.
    lane: Mutex<Option<Lane<'a, C>>>,
    /// Instructions the lane committed over the window.
    committed: AtomicU64,
    /// Last epoch whose window this worker finished: stored (Release)
    /// after `committed` and after the lane's lock is dropped, so the
    /// manager's Acquire read of the current epoch sees both.
    done: AtomicU64,
}

impl<C: CoreModel> Shared<'_, C> {
    fn new(workers: usize, prof: Profiler) -> Self {
        let seat = |_| Seat {
            lane: Mutex::new(None),
            committed: AtomicU64::new(0),
            done: AtomicU64::new(0),
        };
        Shared {
            epoch: AtomicU64::new(0),
            from: AtomicU64::new(0),
            to: AtomicU64::new(0),
            quit: AtomicBool::new(false),
            manager: std::thread::current(),
            seats: (0..workers).map(seat).collect(),
            sched: NativeSched::new(),
            prof,
        }
    }
}

/// The manager's handle on its window workers: one persistent scoped
/// thread per lane past the first, spawned at the first window handed off.
struct Pool<'scope, 'env, 'a, C: CoreModel> {
    scope: &'scope Scope<'scope, 'env>,
    shared: &'env Shared<'a, C>,
    workers: Vec<ScopedJoinHandle<'scope, ()>>,
    epoch: u64,
    ladder: Backoff,
}

impl<'scope, 'env, 'a, C: CoreModel> Pool<'scope, 'env, 'a, C> {
    fn new(scope: &'scope Scope<'scope, 'env>, shared: &'env Shared<'a, C>) -> Self {
        Pool {
            scope,
            shared,
            workers: Vec::with_capacity(shared.seats.len()),
            epoch: 0,
            ladder: Backoff::new(false),
        }
    }

    /// Runs one window with a lane per host thread — the last
    /// `seats.len()` lanes on the workers, the first here — and returns
    /// the instructions committed once every lane is back in `lanes`.
    fn run(
        &mut self,
        lanes: &mut Vec<Lane<'a, C>>,
        from: Cycle,
        to: Cycle,
        ph: &ProfHandle,
    ) -> u64 {
        let shared = self.shared;
        if self.workers.is_empty() {
            for seat in &shared.seats {
                let ph = shared.prof.handle();
                let worker = self.scope.spawn(move || worker(shared, seat, &ph));
                self.workers.push(worker);
            }
        }
        for seat in shared.seats.iter().rev() {
            *seat.lane.lock().expect("no worker is in a window") = lanes.pop();
        }
        shared.from.store(from.as_u64(), Ordering::Relaxed);
        shared.to.store(to.as_u64(), Ordering::Relaxed);
        self.epoch += 1;
        shared.epoch.store(self.epoch, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        let mut committed = lanes[0].run(from, to, ph);

        let wait = ph.enter(ProfSite::BatchedBarrier);
        for (i, seat) in shared.seats.iter().enumerate() {
            while seat.done.load(Ordering::Acquire) != self.epoch {
                if self.workers[i].is_finished() {
                    // Only a panic ends a worker before `quit`: hand it on.
                    let worker = self.workers.swap_remove(i);
                    std::panic::resume_unwind(worker.join().expect_err("worker left early"));
                }
                self.ladder.wait(&shared.sched, SchedSite::ManagerIdle);
            }
            self.ladder.reset();
        }
        drop(wait);
        for seat in &shared.seats {
            committed += seat.committed.load(Ordering::Relaxed);
            let lane = seat.lane.lock().expect("the worker is done").take();
            lanes.push(lane.expect("a seated lane comes back"));
        }
        committed
    }
}

impl<C: CoreModel> Drop for Pool<'_, '_, '_, C> {
    /// Releases the workers, on return and on unwind alike: the scope
    /// cannot end before they do.
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
    }
}

/// A window worker: waits for the next epoch, runs the lane seated for
/// it, reports, repeats until `quit`.
fn worker<C: CoreModel>(shared: &Shared<'_, C>, seat: &Seat<'_, C>, ph: &ProfHandle) {
    let mut ladder = Backoff::new(false);
    let mut seen = 0;
    loop {
        loop {
            if shared.quit.load(Ordering::Acquire) {
                return;
            }
            let epoch = shared.epoch.load(Ordering::Acquire);
            if epoch != seen {
                seen = epoch;
                break;
            }
            ladder.wait(&shared.sched, SchedSite::CoreIdle);
        }
        ladder.reset();
        let from = Cycle::new(shared.from.load(Ordering::Relaxed));
        let to = Cycle::new(shared.to.load(Ordering::Relaxed));
        let committed = {
            let mut seated = seat.lane.lock().expect("the manager is done seating");
            let lane = seated.as_mut().expect("a lane is seated before the epoch");
            lane.run(from, to, ph)
        };
        seat.committed.store(committed, Ordering::Relaxed);
        seat.done.store(seen, Ordering::Release);
        shared.manager.unpark();
    }
}

/// The toy models are shared with the threaded engine's tests.
#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::engine::{SequentialEngine, ServiceSink, TickCtx};
    use crate::scheme::Scheme;
    use crate::speculative::SpeculationConfig;
    use crate::stats::Counters;
    use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(in crate::engine) enum Toy {
        Ping,
        Pong,
    }

    /// Toy core: commits one instruction per cycle and pings the uncore
    /// every `period` cycles. Uses the *default* `run_window` (the
    /// tick-by-tick loop), so these tests pin the engine machinery, not a
    /// model's fast-forward override.
    #[derive(Debug, Clone)]
    pub(in crate::engine) struct ToyCore {
        period: u64,
        committed: u64,
        pongs: u64,
    }

    impl ToyCore {
        pub(in crate::engine) fn new(period: u64) -> Self {
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
        run_batched_on(1, 4, scheme, target)
    }

    fn run_batched_on(host_threads: usize, cores: usize, scheme: Scheme, target: u64) -> SimReport {
        let mut cfg = EngineConfig::new(scheme, target);
        cfg.host_threads = host_threads;
        BatchedEngine::new(toy_cores(cores), ToyUncore::default(), cfg)
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
    fn the_host_thread_count_never_shows_in_the_result() {
        // 12 cores x 64 cycles, 195 windows: the last 109 — once the run
        // has stepped `SPAWN_AFTER` core-cycles — go to the workers on
        // every partition below (4 lanes of 3 cores at 5 threads still
        // carry 192 core-cycles each) but the last: 12 lanes of 64
        // core-cycles fall under the floor and run inline, the workers
        // never spawned.
        let scheme = Scheme::Quantum { quantum: 64 };
        let seq = SequentialEngine::new(
            toy_cores(12),
            ToyUncore::default(),
            EngineConfig::new(scheme.clone(), 150_000),
        )
        .run()
        .unwrap();
        // The sequential engine samples its clock spread mid-window;
        // every other kernel counter is pinned through one host thread.
        let solo = run_batched_on(1, 12, scheme.clone(), 150_000);
        for threads in [1, 2, 3, 5, 12] {
            let bat = run_batched_on(threads, 12, scheme.clone(), 150_000);
            assert_eq!(seq.global_cycles, bat.global_cycles, "{threads} threads");
            assert_eq!(seq.committed, bat.committed, "{threads} threads");
            assert_eq!(seq.violations, bat.violations, "{threads} threads");
            assert_eq!(seq.per_core, bat.per_core, "{threads} threads");
            assert_eq!(seq.uncore, bat.uncore, "{threads} threads");
            assert_eq!(solo.kernel, bat.kernel, "{threads} threads");
        }
    }

    fn threads_used(host_threads: usize, target: u64) -> u64 {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 64 }, target);
        cfg.host_threads = host_threads;
        cfg.prof = Some(crate::obs::Profiler::enabled());
        let report = BatchedEngine::new(toy_cores(12), ToyUncore::default(), cfg)
            .run()
            .unwrap();
        report.prof.expect("profile attached").threads
    }

    #[test]
    fn workers_are_spawned_only_by_a_run_long_enough_to_use_them() {
        // One window, then 65 (49 920 core-cycles, short of
        // `SPAWN_AFTER`): over before a thread would pay for itself.
        assert_eq!(threads_used(4, 1), 1);
        assert_eq!(threads_used(4, 49_000), 1);
        assert_eq!(threads_used(4, 150_000), 4);
        assert_eq!(threads_used(1, 150_000), 1);
        // 12 lanes of one core: 64 core-cycles each, under the floor.
        assert_eq!(threads_used(12, 150_000), 1);
    }

    /// A toy core that blows up in the middle of a window.
    #[derive(Debug, Clone)]
    pub(in crate::engine) struct Fuse {
        pub(in crate::engine) inner: ToyCore,
        pub(in crate::engine) blow_at: Option<u64>,
    }

    impl CoreModel for Fuse {
        type Event = Toy;

        fn tick(&mut self, ctx: &mut TickCtx<'_, Toy>) -> u32 {
            if self.blow_at == Some(ctx.now().as_u64()) {
                panic!("toy core blew its fuse");
            }
            self.inner.tick(ctx)
        }

        fn committed(&self) -> u64 {
            self.inner.committed()
        }

        fn counters(&self) -> Counters {
            self.inner.counters()
        }
    }

    crate::impl_checkpointable_by_clone!(Fuse);

    fn run_with_a_fuse_in(core: usize) {
        let mut cfg = EngineConfig::new(Scheme::Quantum { quantum: 64 }, u64::MAX);
        cfg.host_threads = 2;
        let cores = (0..8)
            .map(|i| Fuse {
                inner: ToyCore::new(3),
                // 8 cores x 64 cycles: the workers are up from cycle 8192.
                blow_at: (i == core).then_some(10_000),
            })
            .collect();
        let _ = BatchedEngine::new(cores, ToyUncore::default(), cfg).run();
    }

    #[test]
    #[should_panic(expected = "toy core blew its fuse")]
    fn a_panic_on_a_worker_surfaces_from_run_instead_of_hanging_the_barrier() {
        run_with_a_fuse_in(7);
    }

    #[test]
    #[should_panic(expected = "toy core blew its fuse")]
    fn a_panic_on_the_manager_lane_releases_the_workers() {
        run_with_a_fuse_in(0);
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
