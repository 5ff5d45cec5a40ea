//! The window loop: the one host-parallel driver, for every scheme.
//!
//! The paper's quantum scheme is a *synchronization policy*: cores run one
//! quantum of target cycles, then a barrier services every cross-core
//! event in timestamp order; cycle-by-cycle is the quantum of one. This
//! engine compiles the policy into an *execution strategy* (the
//! static-scheduling trick of Manticore and the Berkeley emulation
//! engine): each core runs its whole quantum in a single
//! [`CoreModel::run_window`] call over its hot state, emitting cross-core
//! events into a per-core staging buffer, and the engine only exists at
//! quantum boundaries — where the staged buffers are serviced in
//! timestamp order, exactly as the barrier would have. The result is
//! bit-identical to the sequential engine under any barrier scheme (see
//! the conformance oracle) at a fraction of the host cost.
//!
//! The greedy schemes (bounded, unbounded, adaptive, Lax-P2P) run on the
//! same loop as *seeded rounds* (DESIGN §10). In a round each core below
//! its window runs one burst, `[l, min(window, l + b))`, with `b` drawn
//! from `1..=max_burst` by a stateless hash of the run seed, the core and
//! its local time `l`, and cut in proportion to the core's lead over
//! global time. The staged events are then serviced core by core
//! in a seeded order drawn from the seed and global time, each core's in
//! staging order — deliberately *not* in timestamp order: a core that ran
//! ahead has its events serviced before a laggard's earlier ones, and the
//! monitors see the reordering, which is what slack is about. A service
//! that selects a rollback ends the round; the replay after it runs as
//! one-cycle barrier windows until the next checkpoint commits.
//!
//! Inside a window or a round the cores are independent, so with more
//! than one host thread they run on a static partition of contiguous
//! *lanes* — lane 0 on the manager thread, the rest on persistent workers
//! — and meet at a barrier before the service, which stays on the manager
//! thread with every kernel verb. No draw depends on which lane ran a
//! core, so the result is the same at every host-thread count by
//! construction (DESIGN §15.1).
//!
//! Documented divergences from the sequential engine:
//!
//! * the cycle cap, the commit target and a greedy run's checkpoint stop
//!   point are honoured at the first window or round end at or past them,
//!   never mid-window;
//! * metrics/trace sampling happens at window and round ends;
//! * greedy runs draw their own bursts and service order, so they are
//!   exact against themselves, not against the sequential emulation.

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
use crate::rng::{below, hash_words, SplitMix64};
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

/// Domain tags of a round's two stateless draws.
const BURST_DRAW: u64 = 0x0062_7572_7374; // "burst"
const ORDER_DRAW: u64 = 0x006f_7264_6572; // "order"

/// The window-loop engine: steps every core a whole window (a quantum, or
/// a greedy round's burst) per iteration over its hot state, resolving
/// cross-core interaction only at window ends. With more than one host
/// thread ([`EngineConfig::host_threads`]) the cores of a window run on a
/// static partition of lanes, one per thread; everything at the window's
/// end stays on the calling thread, so the result does not depend on the
/// thread count.
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
    /// [`EngineError::Stalled`] if (defensively) the pacer leaves every
    /// core without headroom.
    ///
    /// # Panics
    ///
    /// A panic inside a core model's `run_window` or checkpoint capture
    /// surfaces from here, whichever host thread the core ran on.
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
        let mut inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let (mut global, mut committed, mut ledger) = (Cycle::ZERO, 0, None);
        if let Some(res) = resume {
            res.check_cores(n)?;
            (global, committed) = (res.global, res.committed);
            (cores, inboxes) = res.cores.into_iter().unzip();
            (uncore, ledger) = (res.uncore, Some(res.ledger));
        }
        // A resumed ledger's RNG goes unused: a round's draws are stateless.
        let mut k = Kernel::new(&cfg, n, save_hook, (global, committed), ledger);
        let mut staged: Vec<Vec<Timestamped<C::Event>>> = (0..n).map(|_| Vec::new()).collect();
        let mut spans = vec![(Cycle::ZERO, Cycle::ZERO); n];
        k.seed_base(&mut cores, &inboxes, &mut uncore, global, committed);

        // Static partition: contiguous lanes of `chunk` cores, one per
        // host thread, each with its cores' inboxes, staging buffers and
        // window spans.
        let chunk = lane_width(cfg.host_threads, n);
        let lanes: Vec<Lane<'_, C>> = cores
            .chunks_mut(chunk)
            .zip(inboxes.chunks_mut(chunk))
            .zip(staged.chunks_mut(chunk))
            .zip(spans.chunks_mut(chunk))
            .map(|(((cores, inboxes), staged), spans)| Lane {
                cores,
                inboxes,
                staged,
                spans,
            })
            .collect();
        let workers = lanes.len() - 1;
        let mut run = Windows {
            k: &mut k,
            cfg: &cfg,
            uncore: &mut uncore,
            lanes,
            chunk,
            locals: vec![global; n],
            committed,
            draws: Draws::new(&cfg, n),
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
            locals, committed, ..
        } = run;

        let finish = Finish {
            global: locals.iter().copied().min().expect("n >= 1"),
            committed,
            reason,
            locals: &locals,
            gq_len: 0,
            per_core: cores.iter().map(CoreModel::counters).collect(),
            uncore: uncore.counters(),
            threads,
        };
        Ok(k.finish(finish))
    }
}

/// A contiguous run of cores with their inboxes, staging buffers and the
/// span `[from, to)` each runs next: what one host thread steps through a
/// window. Between windows every lane is back with the manager.
struct Lane<'a, C: CoreModel> {
    cores: &'a mut [C],
    inboxes: &'a mut [Inbox<C::Event>],
    staged: &'a mut [Vec<Timestamped<C::Event>>],
    spans: &'a mut [(Cycle, Cycle)],
}

impl<C: CoreModel> Lane<'_, C> {
    /// The hot loop: every core of the lane runs its span in one call,
    /// staging cross-core events locally. No scheduler, no queue touch,
    /// no bookkeeping between cycles, and one profiler span for the lane.
    fn run(&mut self, ph: &ProfHandle) -> u64 {
        let _span = ph.enter(ProfSite::BatchedRun);
        let mut committed = 0;
        for (((core, inbox), staged), &(from, to)) in self
            .cores
            .iter_mut()
            .zip(self.inboxes.iter_mut())
            .zip(self.staged.iter_mut())
            .zip(self.spans.iter())
        {
            if from < to {
                committed += core.run_window(from, to, inbox, staged);
            }
        }
        committed
    }
}

/// A greedy round's two stateless draws (DESIGN §10): a core's burst from
/// the seed, the core and its local time, and the round's service order
/// from the seed and global time. Each is one SplitMix64 step over the
/// time folded into a key hashed once per core, or once per round.
struct Draws {
    /// `hash(seed, core)` per core.
    cores: Vec<u64>,
    seed: u64,
    max_burst: u64,
    max_lead: u64,
}

impl Draws {
    fn new(cfg: &EngineConfig, n: usize) -> Self {
        Draws {
            cores: (0..n)
                .map(|i| hash_words(&[BURST_DRAW, cfg.seed, i as u64]))
                .collect(),
            seed: cfg.seed,
            max_burst: cfg.burst.max_burst,
            max_lead: cfg.max_lead.max(1),
        }
    }

    /// The burst of `core` in the round that finds it at `local`, `lead`
    /// cycles past global time (`lead < max_lead`): a draw `d` from
    /// `1..=max_burst`, cut to `d · (max_lead − lead) / max_lead`, at
    /// least 1. The cut is the host's long-run fairness, which the
    /// sequential engine models by favouring its laggard: without it,
    /// independent bursts random-walk every core to the lead cap under a
    /// wide window (DESIGN §10, "The lead cut").
    fn burst(&self, core: usize, local: Cycle, lead: u64) -> u64 {
        let bits = SplitMix64::new(self.cores[core] ^ local.as_u64()).next_u64();
        let d = 1 + below(bits, self.max_burst);
        let left = self.max_lead - lead;
        let cut = d.checked_mul(left).map_or_else(
            || (u128::from(d) * u128::from(left) / u128::from(self.max_lead)) as u64,
            |x| x / self.max_lead,
        );
        cut.max(1)
    }

    /// Puts `order` in the service order of the round starting at
    /// `global`: a Fisher–Yates shuffle whose every swap is a draw.
    fn shuffle(&self, order: &mut [usize], global: Cycle) {
        let key = hash_words(&[ORDER_DRAW, self.seed, global.as_u64()]);
        for i in (1..order.len()).rev() {
            let bits = SplitMix64::new(key ^ i as u64).next_u64();
            order.swap(i, below(bits, i as u64 + 1) as usize);
        }
    }
}

/// The manager's side of a run: the kernel, the uncore, every core's
/// local clock and — between windows — every lane.
struct Windows<'r, 'a, C: CoreModel, U> {
    k: &'r mut Kernel<C, U>,
    cfg: &'r EngineConfig,
    uncore: &'r mut U,
    lanes: Vec<Lane<'a, C>>,
    /// Cores per lane (the last lane may hold fewer).
    chunk: usize,
    /// Each core's local clock: all equal at a barrier window's end, apart
    /// by up to the window under greedy rounds.
    locals: Vec<Cycle>,
    committed: u64,
    draws: Draws,
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
        let n = self.locals.len();
        // Core-cycles stepped so far.
        let mut stepped = 0u64;
        // Timestamp of each core's next staged event during the merge.
        let mut heads = vec![NO_HEAD; n];
        // A peer-paced pacer's per-core window ends and a round's service
        // order, refilled in place.
        let mut ends: Vec<Cycle> = Vec::new();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let (mut global, mut furthest) = (self.locals[0], self.locals[0]);
        loop {
            // Every staged event is serviced here. Under a barrier scheme
            // every local equals `global` and the queues are empty: exactly
            // the states at which the sequential engine's finish checks can
            // pass, so stopping here is bit-identical.
            if self.committed >= self.cfg.commit_target {
                return Ok(FinishReason::CommitTarget);
            }
            if global.as_u64() >= self.cfg.max_cycles {
                return Ok(FinishReason::CycleCap);
            }
            self.k.on_global(global, self.committed, &self.locals, 0);
            self.k.note_spread(furthest - global);

            // A due checkpoint stops every core at one point, no core
            // being past it; once all stand there — at once, at a barrier
            // window's end — the state is restorable as-is.
            let mut stop = self.k.arm_stop(global, furthest);
            if stop == Some(global) {
                self.k.capture_cores(
                    self.lanes
                        .iter_mut()
                        .flat_map(|l| l.cores.iter_mut().zip(l.inboxes.iter())),
                );
                self.k
                    .commit_checkpoint(global, self.committed, self.uncore, None);
                stop = None;
            }

            // Each core's span: one window for all under a barrier scheme
            // (and in a replay, one cycle), one seeded burst each in a
            // greedy round.
            let barrier = self.k.barrier();
            let start = global;
            let work = if barrier {
                let end = if self.k.replaying() {
                    global + 1
                } else {
                    self.k.pacer().window_end(global)
                };
                if end <= global {
                    return Err(EngineError::Stalled { at: global });
                }
                self.k.note_spread(end - global);
                for span in self.lanes.iter_mut().flat_map(|l| l.spans.iter_mut()) {
                    *span = (global, end);
                }
                self.locals.fill(end);
                (global, furthest) = (end, end);
                (end - start) * n as u64
            } else {
                let cap = self.cfg.lead_cap(global).min(stop.unwrap_or(Cycle::MAX));
                let uniform = self.k.pacer().window_end(global).min(cap);
                let per_core = self.k.pacer_mut().window_ends(&self.locals, &mut ends);
                let spans = self.lanes.iter_mut().flat_map(|l| l.spans.iter_mut());
                let mut work = 0;
                (global, furthest) = (Cycle::MAX, Cycle::ZERO);
                for (i, (local, span)) in self.locals.iter_mut().zip(spans).enumerate() {
                    let win = if per_core { ends[i].min(cap) } else { uniform };
                    let from = *local;
                    // `from < win` keeps the lead below `max_lead`.
                    let to = if from < win {
                        win.min(from + self.draws.burst(i, from, from - start))
                    } else {
                        from
                    };
                    *span = (from, to);
                    *local = to;
                    work += to - from;
                    (global, furthest) = (global.min(to), furthest.max(to));
                }
                if work == 0 {
                    return Err(EngineError::Stalled { at: start });
                }
                work
            };

            // Run every core over its span.
            let per_lane = work / self.lanes.len() as u64;
            match pool.as_deref_mut() {
                Some(pool) if stepped >= SPAWN_AFTER && per_lane >= DISPATCH_FLOOR => {
                    self.committed += pool.run(&mut self.lanes, &ph);
                }
                _ => {
                    for lane in &mut self.lanes {
                        self.committed += lane.run(&ph);
                    }
                }
            }
            stepped += work;
            // The trace is the manager's, in core order, whoever ran the
            // cores: the record stream does not depend on the thread count.
            if self.k.tracing() && !self.k.replaying() {
                let spans = self.lanes.iter().flat_map(|l| l.spans.iter());
                for (core, &(from, to)) in CoreId::all(n).zip(spans) {
                    if from < to {
                        let phase = Phase::Run;
                        self.k.trace(from, TraceEvent::PhaseBegin { core, phase });
                        self.k.trace(to, TraceEvent::PhaseEnd { core, phase });
                    }
                }
            }

            let rollback = {
                let _span = ph.enter(ProfSite::BatchedResolve);
                if barrier {
                    self.service_in_timestamp_order(start, &mut heads);
                    false
                } else {
                    self.service_in_seeded_order(start, &mut order)
                }
            };
            if rollback {
                let _span = ph.enter(ProfSite::CheckpointRestore);
                let (at, at_committed) = self.k.rollback_ledger(global);
                for lane in &mut self.lanes {
                    lane.staged.iter_mut().for_each(Vec::clear);
                }
                self.k.restore_models(
                    self.lanes
                        .iter_mut()
                        .flat_map(|l| l.cores.iter_mut().zip(l.inboxes.iter_mut())),
                    self.uncore,
                );
                self.locals.fill(at);
                (global, furthest) = (at, at);
                self.committed = at_committed;
            }
        }
    }

    /// A barrier window's end: services the staged events in (timestamp,
    /// core id, staging order) — identical to the sequential engine's pop
    /// order (timestamp, then core id as fixed bus arbitration priority,
    /// then FIFO).
    fn service_in_timestamp_order(&mut self, from: Cycle, heads: &mut [u64]) {
        let bufs = self.lanes.iter_mut().flat_map(|l| l.staged.iter_mut());
        for (head, buf) in heads.iter_mut().zip(bufs) {
            *head = arm(buf);
        }
        let (k, uncore, lanes, chunk) =
            (&mut *self.k, &mut *self.uncore, &mut self.lanes, self.chunk);
        sweep(heads, from.as_u64(), |i| {
            let buf = &mut lanes[i / chunk].staged[i % chunk];
            let ev = buf.pop().expect("a finite head names an event");
            let head = head_ts(buf);
            let rollback = k.service(CoreId::new(i as u16), ev, uncore, |to, out| {
                let to = to.index();
                lanes[to / chunk].inboxes[to % chunk].deliver(out);
            });
            debug_assert!(
                !rollback,
                "timestamp-ordered servicing cannot produce rollback-selected violations"
            );
            head
        });
    }

    /// A greedy round's end: services each core's staged events in staging
    /// order, the cores in the round's seeded order. Stops at the first
    /// service that selects a rollback and returns whether one did; the
    /// rest of the round is then doomed, and left staged.
    fn service_in_seeded_order(&mut self, start: Cycle, order: &mut Vec<usize>) -> bool {
        order.clear();
        order.extend(0..self.locals.len());
        self.draws.shuffle(order, start);
        let (k, uncore, lanes, chunk) =
            (&mut *self.k, &mut *self.uncore, &mut self.lanes, self.chunk);
        for &i in order.iter() {
            let mut buf = std::mem::take(&mut lanes[i / chunk].staged[i % chunk]);
            let mut rollback = false;
            for ev in buf.drain(..) {
                rollback = k.service(CoreId::new(i as u16), ev, uncore, |to, out| {
                    let to = to.index();
                    lanes[to / chunk].inboxes[to % chunk].deliver(out);
                });
                if rollback {
                    break;
                }
            }
            // Handing the drained buffer back keeps its capacity.
            lanes[i / chunk].staged[i % chunk] = buf;
            if rollback {
                return true;
            }
        }
        false
    }
}

/// What the manager and its window workers share.
struct Shared<'a, C: CoreModel> {
    /// Window generation. The manager bumps it (Release) once every
    /// worker's lane, spans included, is seated; a worker that reads the
    /// new value (Acquire) therefore sees its lane.
    epoch: AtomicU64,
    /// Raised (Release) when the manager leaves the window loop, by
    /// return or unwind; workers read it (Acquire) in their wait loop.
    quit: AtomicBool,
    /// The manager's thread, for a worker to wake it at the barrier.
    manager: std::thread::Thread,
    seats: Vec<Seat<'a, C>>,
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
            quit: AtomicBool::new(false),
            manager: std::thread::current(),
            seats: (0..workers).map(seat).collect(),
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
            ladder: Backoff::new(),
        }
    }

    /// Runs one window with a lane per host thread — the last
    /// `seats.len()` lanes on the workers, the first here — and returns
    /// the instructions committed once every lane is back in `lanes`.
    fn run(&mut self, lanes: &mut Vec<Lane<'a, C>>, ph: &ProfHandle) -> u64 {
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
        self.epoch += 1;
        shared.epoch.store(self.epoch, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        let mut committed = lanes[0].run(ph);

        let wait = ph.enter(ProfSite::BatchedBarrier);
        for (i, seat) in shared.seats.iter().enumerate() {
            while seat.done.load(Ordering::Acquire) != self.epoch {
                if self.workers[i].is_finished() {
                    // Only a panic ends a worker before `quit`: hand it on.
                    let worker = self.workers.swap_remove(i);
                    std::panic::resume_unwind(worker.join().expect_err("worker left early"));
                }
                self.ladder.wait();
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
    let mut ladder = Backoff::new();
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
            ladder.wait();
        }
        ladder.reset();
        let committed = {
            let mut seated = seat.lane.lock().expect("the manager is done seating");
            let lane = seated.as_mut().expect("a lane is seated before the epoch");
            lane.run(ph)
        };
        seat.committed.store(committed, Ordering::Relaxed);
        seat.done.store(seen, Ordering::Release);
        shared.manager.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BurstPolicy, SequentialEngine, ServiceSink, TickCtx};
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
    struct Fuse {
        inner: ToyCore,
        blow_at: Option<u64>,
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

    /// 8 cores on 2 host threads, `core` blowing at cycle 10 000. Both
    /// schemes hand their windows to the workers from cycle 8192: 8 cores
    /// x 64 cycles, or x 32.5 on average in a round of bursts up to 64.
    fn run_with_a_fuse_in(core: usize, scheme: Scheme) {
        let mut cfg = EngineConfig::new(scheme, u64::MAX);
        cfg.host_threads = 2;
        cfg.burst = BurstPolicy::new(64);
        let cores = (0..8)
            .map(|i| Fuse {
                inner: ToyCore::new(3),
                blow_at: (i == core).then_some(10_000),
            })
            .collect();
        let _ = BatchedEngine::new(cores, Echo::default(), cfg).run();
    }

    #[test]
    #[should_panic(expected = "toy core blew its fuse")]
    fn a_panic_on_a_worker_surfaces_from_run_instead_of_hanging_the_barrier() {
        run_with_a_fuse_in(7, Scheme::Quantum { quantum: 64 });
    }

    #[test]
    #[should_panic(expected = "toy core blew its fuse")]
    fn a_panic_on_the_manager_lane_releases_the_workers() {
        run_with_a_fuse_in(0, Scheme::Quantum { quantum: 64 });
    }

    #[test]
    #[should_panic(expected = "toy core blew its fuse")]
    fn a_panic_on_a_worker_ends_a_greedy_run() {
        run_with_a_fuse_in(7, Scheme::BoundedSlack { bound: 128 });
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
            assert!(
                view.ledger.rng.is_none(),
                "the batched engine has no burst RNG"
            );
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

    /// Pongs every ping back 5 cycles later, in whatever order the
    /// window loop services them, and flags a ping serviced below one
    /// already serviced, so that a speculative run rolls back.
    #[derive(Debug, Clone, Default)]
    struct Echo {
        monitor: TimestampMonitor,
        serviced: u64,
    }

    impl UncoreModel<Toy> for Echo {
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

    crate::impl_checkpointable_by_clone!(Echo);

    fn greedy_schemes() -> [Scheme; 4] {
        [
            Scheme::BoundedSlack { bound: 64 },
            Scheme::UnboundedSlack,
            Scheme::Adaptive(crate::scheme::AdaptiveConfig::default()),
            Scheme::LaxP2p {
                lead: 32,
                period: 100,
                seed: 3,
            },
        ]
    }

    fn run_greedy(
        host_threads: usize,
        scheme: &Scheme,
        spec: Option<SpeculationConfig>,
    ) -> SimReport {
        let mut cfg = EngineConfig::new(scheme.clone(), 150_000);
        cfg.host_threads = host_threads;
        cfg.burst = BurstPolicy::new(64);
        cfg.speculation = spec;
        cfg.prof = Some(crate::obs::Profiler::enabled());
        BatchedEngine::new(toy_cores(12), Echo::default(), cfg)
            .run()
            .expect("run succeeds")
    }

    fn assert_same_run(a: &SimReport, b: &SimReport, label: &str) {
        assert_eq!(a.global_cycles, b.global_cycles, "{label}");
        assert_eq!(a.committed, b.committed, "{label}");
        assert_eq!(a.violations, b.violations, "{label}");
        assert_eq!(a.per_core, b.per_core, "{label}");
        assert_eq!(a.uncore, b.uncore, "{label}");
        assert_eq!(a.kernel, b.kernel, "{label}");
        assert_eq!(a.bound_trace, b.bound_trace, "{label}");
    }

    #[test]
    fn greedy_rounds_are_the_same_at_every_host_thread_count() {
        // 12 cores in rounds of bursts up to 64 cycles: past `SPAWN_AFTER`
        // every round clears the floor on 2 and 3 threads and goes to
        // the workers, so the draws meet every partition.
        for scheme in greedy_schemes() {
            let solo = run_greedy(1, &scheme, None);
            assert!(solo.committed >= 150_000);
            assert!(solo.violations.total() > 0, "{scheme:?}: no reordering");
            for threads in [2, 3, 12] {
                let r = run_greedy(threads, &scheme, None);
                assert_same_run(&solo, &r, &format!("{scheme:?} on {threads} threads"));
                // An adaptive bound throttles its rounds below the floor.
                if !matches!(scheme, Scheme::Adaptive(_)) {
                    let used = r.prof.expect("profile attached").threads;
                    assert_eq!(used > 1, threads < 12, "{scheme:?} on {threads} threads");
                }
            }
        }
    }

    #[test]
    fn greedy_rollbacks_replay_the_same_at_every_host_thread_count() {
        use crate::speculative::ViolationSelect;
        let spec = Some(SpeculationConfig::speculative(500, ViolationSelect::all()));
        for scheme in greedy_schemes() {
            let solo = run_greedy(1, &scheme, spec);
            assert!(solo.committed >= 150_000, "{scheme:?}: no forward progress");
            assert!(solo.kernel.get("rollbacks") > 0, "{scheme:?}: no rollback");
            assert!(
                solo.kernel.get("replay_cycles") > 0,
                "{scheme:?}: no replay"
            );
            assert_eq!(solo.core_total("committed"), solo.committed);
            let r = run_greedy(3, &scheme, spec);
            assert_same_run(&solo, &r, &format!("{scheme:?} on 3 threads"));
        }
    }

    #[test]
    fn a_bounded_round_keeps_every_core_within_the_bound() {
        let r = run_greedy(2, &Scheme::BoundedSlack { bound: 16 }, None);
        let spread = r.kernel.get("max_clock_spread");
        assert!(spread > 0 && spread <= 16, "spread {spread}");
    }

    #[test]
    fn a_greedy_checkpoint_stops_every_core_at_one_point() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut cfg = EngineConfig::new(Scheme::BoundedSlack { bound: 16 }, 40_000);
        cfg.speculation = Some(SpeculationConfig::checkpoint_only(700));
        let hook: SaveHook<ToyCore, Echo> = Box::new(move |view| {
            sink.borrow_mut().push(view.global.as_u64());
            Some(1)
        });
        let r = BatchedEngine::new(toy_cores(4), Echo::default(), cfg)
            .with_save_hook(hook)
            .run()
            .unwrap();
        let globals = seen.borrow();
        assert_eq!(globals.len() as u64, r.kernel.get("checkpoints"));
        assert!(globals.len() >= 10, "{globals:?}");
        // Each stops at the trigger or at the furthest core when it was
        // armed: global time overshoots the trigger by less than a burst,
        // and the furthest core leads it by at most the bound.
        for pair in globals.windows(2) {
            let gap = pair[1] - pair[0];
            assert!((700..=700 + 16 + 16).contains(&gap), "{globals:?}");
        }
    }
}
