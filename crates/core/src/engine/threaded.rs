//! The threaded engine: target cores on *lanes* stepped by the host's
//! threads, one of them the simulation manager, the way SlackSim maps a
//! CMP simulation onto a host CMP (paper §2).
//!
//! The engine exists for slack, where the manager services events as they
//! arrive. A barrier scheme (cycle-by-cycle, quantum) services them only at
//! window boundaries, a schedule the batched engine's window loop compiles
//! once: [`ThreadedEngine::run`] hands every barrier-scheme run to
//! [`BatchedEngine`], whose report is the same on any number of host
//! threads (DESIGN.md §19).
//!
//! A lane is a contiguous slice of target cores stepped by one host
//! thread. There are as many lanes as the host has CPUs
//! ([`EngineConfig::host_threads`], capped at the core count), so with a
//! CPU per target core every lane holds one core — the paper's one thread
//! per core — and on a smaller host the cores fold onto the CPUs there are
//! instead of oversubscribing them (DESIGN.md §10, "Core lanes"). Lane 0
//! belongs to the manager thread itself, which steps it between services
//! as the batched manager runs its own first lane; lanes `1..L` are
//! spawned threads, so a run is `L` host threads on `L` CPUs. A lane owns
//! its cores' [`CoreModel`]s and runs each up to the max local time the
//! manager publishes, round-robin in seeded [`CoreModel::run_window`]
//! bursts. Events flow through per-core shared queues (OutQ/InQ); the
//! manager consolidates OutQ entries into the global queue and services
//! them greedily, except in a post-rollback replay (paper §5.1), whose
//! one-cycle windows it services in one sorted batch once every core
//! stands at the end. Clocks, windows and queues stay per core, so the
//! lane count is a host knob only: nothing the manager computes can tell
//! how the cores were folded, or which thread stepped them.
//!
//! A checkpoint stops the cores the way the sequential engine does — the
//! in-memory equivalent of the paper's `fork()`-based global checkpoints:
//! once one is due, every published window is capped at the kernel's stop
//! point, and when every core stands there each lane captures its cores.
//! A rollback caps every window at the checkpoint and has each lane rewind
//! its cores. Lanes receive these as one-shot commands, `Snapshot` and
//! `Rewind`, which they obey at the top of their loop and answer with a
//! reply; the manager obeys lane 0's inline, through the same per-core
//! code.
//!
//! Everything here is built on `std` alone: `std::sync::mpsc` channels for
//! commands and their replies (each lane's receiver is moved into its
//! thread; a lane's reply carries its cores' checkpoint captures), and the
//! lock-free [`SpscRing`] for the OutQ/InQ event paths.
//!
//! ## Host-synchronization design (see DESIGN.md "Engine concurrency")
//!
//! * Every shared per-core field has one writer for the whole run: the
//!   core's lane stores its local time, pushes its OutQ and pops its InQ
//!   (a rewind empties it there too); the manager stores its max local
//!   time, pushes its InQ and drains its OutQ. OutQ/InQ are bounded
//!   lock-free SPSC rings with an overflow spill; lane 0's have the
//!   manager thread on both ends.
//! * The manager drains each OutQ in one batch per visit and batch-inserts
//!   into the global queue; its loop reuses persistent scratch buffers and
//!   interned metric keys, so the steady state performs no heap
//!   allocation.
//! * Waiting is the one ladder of [`Backoff`] — `yield_now`, then park
//!   with a timeout — for both lane threads whose cores are all
//!   capped by the window (their park tier is [`HostThread::park`]'s,
//!   which the manager unparks) and the manager when no core made
//!   progress (a timed poll).
//! * A core model that panics ends the run instead of hanging it. On a
//!   spawned lane its death is visible to every manager wait (a flag on
//!   the idle ladder, the hung-up reply channel in a command's wait); on
//!   lane 0 it unwinds the manager loop itself. Either way the manager
//!   releases and joins the spawned lanes and `run()` unwinds with the
//!   core's own panic.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{CoreSnapshot, Finish, Kernel};
use crate::engine::wait::{lane_width, Backoff};
use crate::engine::{
    BatchedEngine, CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook,
    UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::{Phase, ProfHandle, ProfSite, TraceEvent, TraceHandle};
use crate::rng::Xoshiro256;
use crate::sched::{HostSched, SchedSite, TaskId};
use crate::stats::SimReport;
use crate::sync::SpscRing;
use crate::time::Cycle;

/// The one-shot commands the manager sends a lane while its cores are
/// capped. Each carries state for every core of the lane, in core order,
/// and the lane replies with its cores' captures, in core order.
enum Command<C: CoreModel> {
    /// Capture each core's delta against its generation at the previous
    /// checkpoint (the carried values).
    Snapshot(Vec<u64>),
    /// Rewind each core onto its checkpoint base at global time `at`:
    /// drop its undelivered events, restore the model via
    /// [`Checkpointable::restore_from`] — the paired value being the
    /// core's generation when the base was current — set its local time
    /// to `at` and hand the untouched base back.
    Rewind {
        at: u64,
        bases: Vec<(Box<CoreSnapshot<C>>, u64)>,
    },
}

/// What a lane replies with for one of its cores.
enum CoreCapture<C: CoreModel + Checkpointable> {
    /// Delta against the previous checkpoint, the pending inbox and the
    /// model's generation at capture.
    Delta(Box<(C::Delta, Inbox<<C as CoreModel>::Event>, u64)>),
    /// The checkpoint base handed back untouched after a rollback, so the
    /// manager keeps its standing copy without a clone.
    Base(Box<CoreSnapshot<C>>),
}

/// State shared between the manager and the lane stepping one core. It
/// is all per core — clocks, window and queues do not know about lanes —
/// so every manager computation is independent of the lane count.
struct CoreShared<C: CoreModel> {
    /// Stored by the core's lane only.
    local: AtomicU64,
    /// Stored by the manager only.
    max_local: AtomicU64,
    /// Lane produces, manager consumes.
    outq: SpscRing<Timestamped<C::Event>>,
    /// Manager produces, lane consumes.
    inq: SpscRing<Timestamped<C::Event>>,
}

/// The park-and-command plumbing between the manager and one lane thread.
struct HostThread {
    /// True while the thread is (about to be) parked.
    parked: AtomicBool,
    /// Raised by the manager before every command send; the thread's
    /// pre-park re-check reads it so a command can never be lost to the
    /// park race (the parked flag alone is not enough: an earlier wake
    /// may have already claimed it, and the thread's own re-check says
    /// nothing about the command channel). Cleared by the thread at the
    /// top of its loop, before it polls the channel.
    cmd_pending: AtomicBool,
    /// The thread's scheduler task, registered once at thread startup so
    /// the manager can unpark it.
    task: OnceLock<TaskId>,
    /// Number of times the thread reached the park tier.
    parks: AtomicU64,
}

impl HostThread {
    fn new() -> Self {
        HostThread {
            parked: AtomicBool::new(false),
            cmd_pending: AtomicBool::new(false),
            task: OnceLock::new(),
            parks: AtomicU64::new(0),
        }
    }

    /// Unparks the thread if it is parked (or about to park).
    ///
    /// The SeqCst fence pairs with the store-fence-recheck sequence of
    /// [`park`](Self::park): the caller's preceding state change (window
    /// store, done flag, `cmd_pending`) and the thread's parked flag
    /// cannot both be missed, so a wake-up is never lost — provided the
    /// state change is one the re-check actually reads. Command sends
    /// must therefore go through [`send`](Self::send), which raises
    /// `cmd_pending` first; the send alone is invisible to the re-check,
    /// and the parked flag may already have been claimed by an earlier
    /// wake, in which case this function does nothing.
    fn wake(&self, sched: &dyn HostSched) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(&t) = self.task.get() {
                sched.unpark(t);
            }
        }
    }

    /// Sends a command with a park-safe wake-up: `cmd_pending` is raised
    /// before the send so the thread either sees it in its pre-park
    /// re-check or is already awake and polls the channel on its next
    /// loop iteration. Without the flag a command could strand a thread
    /// in its park until the timeout backstop — a stall the
    /// virtual-scheduler conformance runs (which park without timeouts)
    /// diagnose as a livelock. A send to a dead lane is dropped: the
    /// hung-up reply channel reports the death to the manager's wait.
    fn send<T>(&self, tx: &Sender<T>, cmd: T, sched: &dyn HostSched) {
        self.cmd_pending.store(true, Ordering::SeqCst);
        let _ = tx.send(cmd);
        self.wake(sched);
    }

    /// The park tier of the thread's own wait ladder: parks unless
    /// `work()` finds something to do or a command is pending.
    ///
    /// Dekker-style publication: set the parked flag, fence, then
    /// re-check the sleep condition. Pairs with the manager's
    /// store-fence-check in [`wake`](Self::wake): either the manager sees
    /// the flag and unparks (token pending), or this re-check sees the
    /// manager's change — a wake-up can never be lost, the timeout is a
    /// pure backstop. The scheduling point between the flag store and
    /// the re-check is exactly the race window adversarial schedules aim
    /// at.
    fn park(
        &self,
        sched: &dyn HostSched,
        site: SchedSite,
        timeout: Duration,
        work: impl FnOnce() -> bool,
    ) {
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        sched.point(SchedSite::PreParkCheck);
        if !work() && !self.cmd_pending.load(Ordering::Relaxed) {
            self.parks.fetch_add(1, Ordering::Relaxed);
            sched.park_timeout(site, timeout);
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}

/// The manager's handle on the lanes: lane `j` steps cores
/// `j * width .. (j + 1) * width`, the last lane what is left of `cores`.
/// Lane 0 is the manager's own; lanes `1..` are spawned threads.
struct LaneSet<C: CoreModel + Checkpointable> {
    /// Lane 0's cores, stepped on the manager thread.
    own: Vec<LaneCore<C>>,
    bursts: Bursts<C::Event>,
    /// Lane `j`'s thread is `hosts[j - 1]`, and so on for the channels.
    hosts: Vec<Arc<HostThread>>,
    cmd_txs: Vec<Sender<Command<C>>>,
    ack_rxs: Vec<Receiver<Vec<CoreCapture<C>>>>,
    /// Raised by a spawned lane that panicked; read on the manager's idle
    /// path.
    died: Arc<AtomicBool>,
    width: usize,
    cores: usize,
}

/// A lane thread died (panicked): the manager leaves its loop, and `run()`
/// unwinds with the lane's panic once every lane is joined.
struct LaneDied;

impl<C: CoreModel + Checkpointable> LaneSet<C> {
    /// Has every lane carry out the command `cmd` builds for its core
    /// range — lane 0 inline, once the spawned lanes have theirs — and
    /// returns every core's capture in core order, lane 0's followed by
    /// the spawned lanes' replies, awaited in lane order. A lane that died
    /// instead hangs up its reply channel.
    fn obey_all(
        &mut self,
        sched: &dyn HostSched,
        ph: &ProfHandle,
        mut cmd: impl FnMut(Range<usize>) -> Command<C>,
    ) -> Result<Vec<CoreCapture<C>>, LaneDied> {
        let own = cmd(0..self.own.len());
        for (j, (host, tx)) in self.hosts.iter().zip(&self.cmd_txs).enumerate() {
            let first = (j + 1) * self.width;
            let end = (first + self.width).min(self.cores);
            host.send(tx, cmd(first..end), sched);
        }
        let mut captures = obey(&mut self.own, own, ph);
        for rx in &self.ack_rxs {
            captures.extend(recv(rx, sched).ok_or(LaneDied)?);
        }
        debug_assert_eq!(captures.len(), self.cores, "a capture per core");
        Ok(captures)
    }

    /// Steps lane 0 (see [`step_lane`]) until the first pass in which one
    /// of its cores sent the manager an event, so that event waits for
    /// service no longer than a lane thread's would.
    fn step_own(&mut self, committed: &AtomicU64, sched: &dyn HostSched, ph: &ProfHandle) {
        step_lane(&mut self.own, true, committed, &mut self.bursts, sched, ph);
    }

    /// Sets core `i`'s max local time to `window(i)` for every core and
    /// unparks each spawned lane that had a window change — once, after
    /// its stores, and not at all when the manager re-publishes the
    /// windows a lane already has (most iterations while global time
    /// stands still). Returns the largest window published.
    fn publish(
        &self,
        shared: &[Arc<CoreShared<C>>],
        sched: &dyn HostSched,
        window: impl Fn(usize) -> Cycle,
    ) -> Cycle {
        let mut furthest = Cycle::ZERO;
        for (lane, cores) in shared.chunks(self.width).enumerate() {
            let mut changed = false;
            for (j, s) in cores.iter().enumerate() {
                let w = window(lane * self.width + j);
                furthest = furthest.max(w);
                // The manager is the only writer of `max_local`.
                if s.max_local.load(Ordering::Relaxed) != w.as_u64() {
                    s.max_local.store(w.as_u64(), Ordering::Release);
                    changed = true;
                }
            }
            if changed && lane > 0 {
                self.hosts[lane - 1].wake(sched);
            }
        }
        furthest
    }
}

/// Parallel slack-simulation engine: the target cores on lanes, the first
/// stepped by the manager's own thread.
///
/// Semantics are identical to
/// [`SequentialEngine`](crate::engine::SequentialEngine). Barrier schemes
/// run on [`BatchedEngine`] and so produce the sequential engine's
/// statistics bit for bit; under slack pacing the threaded engine inherits
/// the host scheduler's real nondeterminism — which is the paper's point.
pub struct ThreadedEngine<C: CoreModel, U: UncoreModel<C::Event>> {
    cores: Vec<C>,
    uncore: U,
    cfg: EngineConfig,
    save_hook: Option<SaveHook<C, U>>,
    resume: Option<EngineResume<C, U>>,
}

impl<C, U> ThreadedEngine<C, U>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    /// Creates an engine over the given target cores and uncore.
    pub fn new(cores: Vec<C>, uncore: U, cfg: EngineConfig) -> Self {
        ThreadedEngine {
            cores,
            uncore,
            cfg,
            save_hook: None,
            resume: None,
        }
    }

    /// Installs a hook invoked with a borrowed view of every committed
    /// checkpoint (e.g. to persist it to disk). Runs on the manager
    /// thread while the cores are paused at the checkpoint boundary.
    #[must_use]
    pub fn with_save_hook(mut self, hook: SaveHook<C, U>) -> Self {
        self.save_hook = Some(hook);
        self
    }

    /// Seeds the engine with restored state so the run continues from a
    /// persisted checkpoint instead of cycle zero. The engine must have
    /// been built with the same configuration (core count, scheme,
    /// speculation settings) as the run that produced the snapshot.
    #[must_use]
    pub fn with_resume(mut self, resume: EngineResume<C, U>) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Runs the simulation to completion on one lane per host CPU (at
    /// most one per target core): lane 0 on the calling thread, which is
    /// also the manager, and a spawned thread for each other lane. A
    /// scheme whose pacer services at barriers runs on [`BatchedEngine`]
    /// instead, with the save hook and the resume carried across.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoCores`] for an empty core set.
    pub fn run(self) -> Result<SimReport, EngineError> {
        let ThreadedEngine {
            mut cores,
            mut uncore,
            cfg,
            save_hook,
            resume,
        } = self;
        if cfg.scheme.clone().into_pacer().barrier_service() {
            let mut batched = BatchedEngine::new(cores, uncore, cfg);
            if let Some(hook) = save_hook {
                batched = batched.with_save_hook(hook);
            }
            if let Some(res) = resume {
                batched = batched.with_resume(res);
            }
            return batched.run();
        }
        let n = cores.len();
        if n == 0 {
            return Err(EngineError::NoCores);
        }

        // The host scheduler every wait path goes through. The data-structure
        // hook is `None` under the native scheduler, so production queue
        // operations stay instrumentation-free.
        let sched = Arc::clone(cfg.sched.get());
        let hook = cfg.sched.instrumentation_hook();

        // Apply restored state before anything is shared with the lane
        // threads: cores and their undelivered inboxes replace the fresh
        // models, every clock starts at the snapshot's global time, and
        // the aggregate commit counter is re-seeded.
        let (mut k, resumed) = Kernel::new(&cfg, n, save_hook, true, resume)?;
        let mut core_inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let mut start_committed = 0u64;
        let mut start_global = Cycle::ZERO;
        if let Some(res) = resumed {
            start_global = res.global;
            cores = res.cores;
            core_inboxes = res.inboxes;
            uncore = res.uncore;
            start_committed = res.committed;
        }
        // Lanes: contiguous slices of `width` cores, one host thread each,
        // the manager's own thread for lane 0. A virtual scheduler expects
        // a fixed task set, so unless the lane count is given the host's
        // CPU count stays out of it.
        let width = lane_width(
            match cfg.host_threads {
                0 if sched.virtualized() => n,
                h => h,
            },
            n,
        );
        // Host threads, every one recording profile spans: the manager
        // (lane 0) and a spawned thread for each other lane.
        let lane_count = n.div_ceil(width);
        let threads = lane_count as u64;

        if cfg.commit_target == 0 {
            // Trivial run: nothing to simulate.
            let finish = Finish {
                global: start_global,
                committed: start_committed,
                reason: FinishReason::CommitTarget,
                locals: &vec![start_global; n],
                gq_len: 0,
                per_core: cores.iter().map(CoreModel::counters).collect(),
                uncore: uncore.counters(),
                extras: &[],
                threads,
            };
            return Ok(k.finish(finish, |_| (0, 0)));
        }

        // The initial state is a free checkpoint, taken here while the
        // models are still in the manager's hands.
        k.seed_base(
            &mut cores,
            &core_inboxes,
            &mut uncore,
            start_global,
            start_committed,
        );

        let shared: Vec<Arc<CoreShared<C>>> = (0..n)
            .map(|_| {
                Arc::new(CoreShared {
                    local: AtomicU64::new(start_global.as_u64()),
                    max_local: AtomicU64::new(start_global.as_u64()),
                    outq: SpscRing::with_sched(hook.clone()),
                    inq: SpscRing::with_sched(hook.clone()),
                })
            })
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(start_committed));

        // Cores start frozen (max local time = start time); the manager
        // publishes the first window once every thread is up.
        std::thread::scope(|scope| {
            let mut lane_cores = cores
                .into_iter()
                .zip(core_inboxes)
                .zip(&shared)
                .enumerate()
                .map(|(i, ((model, inbox), shared))| LaneCore {
                    id: CoreId::new(i as u16),
                    model,
                    inbox,
                    shared: Arc::clone(shared),
                    th: k.tracer().handle(),
                    running: false,
                });
            let mut own: Vec<LaneCore<C>> = lane_cores.by_ref().take(width).collect();
            own.iter_mut().for_each(LaneCore::open_phase);
            let spawned = lane_count - 1;
            let mut lanes = LaneSet {
                own,
                bursts: Bursts::new(&cfg, 0),
                hosts: (0..spawned).map(|_| Arc::new(HostThread::new())).collect(),
                cmd_txs: Vec::with_capacity(spawned),
                ack_rxs: Vec::with_capacity(spawned),
                died: Arc::new(AtomicBool::new(false)),
                width,
                cores: n,
            };

            // --- Lane threads 1.. --------------------------------------------
            // std mpsc receivers are single-consumer: each lane's command
            // receiver and ack sender are moved into its thread, along
            // with its cores.
            let mut handles = Vec::with_capacity(spawned);
            for (j, host) in lanes.hosts.iter().enumerate() {
                let (cmd_tx, cmd_rx) = channel();
                let (ack_tx, ack_rx) = channel();
                lanes.cmd_txs.push(cmd_tx);
                lanes.ack_rxs.push(ack_rx);
                let cores: Vec<LaneCore<C>> = lane_cores.by_ref().take(width).collect();
                let bursts = Bursts::new(&cfg, j + 1);
                let host = Arc::clone(host);
                let done = Arc::clone(&done);
                let died = Arc::clone(&lanes.died);
                let committed = Arc::clone(&committed);
                let ph = k.prof().handle();
                let sched = Arc::clone(&sched);
                handles.push(scope.spawn(move || {
                    let lane = catch_unwind(AssertUnwindSafe(|| {
                        lane_thread(
                            j + 1,
                            cores,
                            bursts,
                            &host,
                            &done,
                            &committed,
                            &cmd_rx,
                            &ack_tx,
                            &*sched,
                            ph,
                        )
                    }));
                    lane.unwrap_or_else(|panic| {
                        died.store(true, Ordering::Release);
                        resume_unwind(panic)
                    })
                }));
            }

            // --- Manager and lane 0 (this thread) ----------------------------
            // Registration happens after every lane is spawned: a virtual
            // scheduler's `register` blocks until the whole expected task
            // set has arrived, so registering earlier would deadlock the
            // spawn loop. A core of lane 0 that panics unwinds the manager
            // loop itself: catch it so the spawned lanes are released
            // first.
            sched.register("manager");
            let exit = catch_unwind(AssertUnwindSafe(|| {
                manager_loop(
                    &cfg,
                    &mut k,
                    &mut uncore,
                    &shared,
                    &committed,
                    &mut lanes,
                    start_global,
                )
            }));

            done.store(true, Ordering::Release);
            for host in &lanes.hosts {
                host.wake(&*sched);
            }
            // Leave the scheduling discipline before joining: the lanes
            // only need the token among themselves to run out their
            // windows and unregister, and a native blocking join keeps OS
            // timing out of the schedule (polling `is_finished` through
            // the scheduler would make the decision count — and thus a
            // virtual scheduler's RNG stream — depend on when the OS
            // publishes thread exit).
            sched.unregister();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            // Hand on the dead core's own panic: lane 0's first (every
            // spawned lane is joined by now), then a spawned lane's.
            let exit = exit.unwrap_or_else(|panic| resume_unwind(panic));
            let mut finished_cores: Vec<C> = lanes.own.drain(..).map(LaneCore::close).collect();
            for lane in joined {
                finished_cores.extend(lane.unwrap_or_else(|panic| resume_unwind(panic)));
            }
            let Ok(exit) = exit else {
                unreachable!("a lane dies only by panicking, and every lane joined");
            };

            let core_parks = lanes.hosts.iter().map(|h| h.parks.load(Ordering::Relaxed));
            let extras = [
                ("manager_parks", exit.manager_parks),
                ("core_parks", core_parks.sum()),
            ];
            let locals: Vec<Cycle> = shared
                .iter()
                .map(|s| Cycle::new(s.local.load(Ordering::Acquire)))
                .collect();
            let finish = Finish {
                global: exit.global,
                // The manager samples the aggregate commit count at its
                // finish decision, but cores may legally run out the rest
                // of their published window before they observe the done
                // flag. Read it after the joins so the reported aggregate
                // matches the per-core counters exactly.
                committed: committed.load(Ordering::Acquire),
                reason: exit.reason,
                locals: &locals,
                gq_len: exit.gq_len,
                per_core: finished_cores.iter().map(CoreModel::counters).collect(),
                uncore: uncore.counters(),
                extras: &extras,
                threads,
            };
            Ok(k.finish(finish, |i| ring_depths(&shared[i])))
        })
    }
}

/// One target core in its lane's hands: the model and its undelivered
/// inbox (owned), the state shared with the manager, and the core's own
/// trace ring with the phase it last recorded.
struct LaneCore<C: CoreModel + Checkpointable> {
    id: CoreId,
    model: C,
    inbox: Inbox<C::Event>,
    shared: Arc<CoreShared<C>>,
    th: TraceHandle,
    /// Whether the open phase span is Run (otherwise Wait).
    running: bool,
}

impl<C: CoreModel + Checkpointable> LaneCore<C> {
    fn phase(&self) -> Phase {
        if self.running {
            Phase::Run
        } else {
            Phase::Wait
        }
    }

    /// Closes the open phase span at local time `at` and opens the other
    /// one, if `running` is a transition.
    fn set_running(&mut self, running: bool, at: u64) {
        if self.running == running {
            return;
        }
        let (core, at) = (self.id, Cycle::new(at));
        let phase = self.phase();
        self.th.record(at, TraceEvent::PhaseEnd { core, phase });
        self.running = running;
        let phase = self.phase();
        self.th.record(at, TraceEvent::PhaseBegin { core, phase });
    }

    /// Opens the core's first phase span: a Wait, since cores start
    /// frozen at their start time.
    fn open_phase(&mut self) {
        let (core, phase) = (self.id, self.phase());
        self.th
            .record(Cycle::ZERO, TraceEvent::PhaseBegin { core, phase });
    }

    /// Closes the open phase span at the core's local time and hands back
    /// the model.
    fn close(mut self) -> C {
        let (core, phase) = (self.id, self.phase());
        let l = self.shared.local.load(Ordering::Relaxed);
        self.th
            .record(Cycle::new(l), TraceEvent::PhaseEnd { core, phase });
        self.model
    }

    fn deliver_inq(&mut self) {
        while let Some(ev) = self.shared.inq.pop() {
            self.inbox.deliver(ev);
        }
    }

    /// Simulates cycles `[from, to)` in one [`CoreModel::run_window`] call
    /// and queues their events towards the manager; returns the commits
    /// and whether any event was queued. Advancing the local clock is the
    /// caller's, so it can order its commit flush before the store.
    fn run(&mut self, from: u64, to: u64, outbox: &mut Vec<Timestamped<C::Event>>) -> (u64, bool) {
        self.deliver_inq();
        let c = self
            .model
            .run_window(Cycle::new(from), Cycle::new(to), &mut self.inbox, outbox);
        let sent = !outbox.is_empty();
        self.shared.outq.push_batch(outbox);
        (c, sent)
    }

    /// Captures the core's delta against its generation `since` at the
    /// previous checkpoint.
    fn capture(&mut self, since: u64) -> CoreCapture<C> {
        self.deliver_inq();
        let delta = self.model.capture_delta(since);
        CoreCapture::Delta(Box::new((
            delta,
            self.inbox.clone(),
            self.model.generation(),
        )))
    }

    /// Rewinds the core in place onto its checkpoint base at global time
    /// `at` — its undelivered events dropped, only the units that diverged
    /// since generation `since` copied back, its clock set to `at` — and
    /// hands the untouched base back.
    fn rewind(&mut self, base: Box<CoreSnapshot<C>>, since: u64, at: u64) -> CoreCapture<C> {
        self.shared.inq.clear();
        self.model.restore_from(&base.0, since);
        self.inbox.clone_from(&base.1);
        self.shared.local.store(at, Ordering::Release);
        CoreCapture::Base(base)
    }
}

/// A lane's burst lengths, drawn from `1..=max` ([`EngineConfig::burst`])
/// by an RNG seeded from the run seed and the lane index, so one lane is a
/// pure function of the seed; and its event scratch.
struct Bursts<E> {
    rng: Xoshiro256,
    max: u64,
    outbox: Vec<Timestamped<E>>,
}

impl<E> Bursts<E> {
    fn new(cfg: &EngineConfig, lane: usize) -> Self {
        let rng = Xoshiro256::new(cfg.seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (max, outbox) = (cfg.burst.max_burst, Vec::new());
        Bursts { rng, max, outbox }
    }
}

/// Steps a lane's cores round-robin, one burst each per pass, until a pass
/// finds none below its published max local time — re-read every pass, so
/// a window widened mid-run is run out without going back to the lane
/// loop, and one lowered (a checkpoint's stop point, a rollback) caps the
/// lane within a pass — or, with `until_event`, until the first pass in
/// which a core queued an event. A burst is one [`CoreModel::run_window`]
/// of a [`Bursts`] length cut at the window read: each core runs freely
/// up to its window, as the paper's core threads do, so a lane's cores
/// drift apart as far as the bound lets them. Returns whether any ran.
///
/// Commit counts accumulate locally and are flushed *before* any
/// local-clock store that brings a core to its limit, so a manager that
/// sees a core at a replay boundary also sees every commit behind it —
/// replay finish decisions stay deterministic.
fn step_lane<C: CoreModel + Checkpointable>(
    cores: &mut [LaneCore<C>],
    until_event: bool,
    committed: &AtomicU64,
    bursts: &mut Bursts<C::Event>,
    sched: &dyn HostSched,
    ph: &ProfHandle,
) -> bool {
    let mut span = None;
    let mut pending: u64 = 0;
    loop {
        let mut stepped = false;
        let mut sent = false;
        for core in cores.iter_mut() {
            let l = core.shared.local.load(Ordering::Relaxed);
            let m = core.shared.max_local.load(Ordering::Acquire);
            if l >= m {
                core.set_running(false, l);
                continue;
            }
            if span.is_none() {
                sched.point(SchedSite::CoreBurst);
                span = Some(ph.enter(ProfSite::CoreTick));
            }
            core.set_running(true, l);
            // One cycle left is the whole burst, undrawn: a replay never
            // draws.
            let to = match m - l {
                1 => m,
                left => l + left.min(bursts.rng.next_range(1, bursts.max)),
            };
            let (c, s) = core.run(l, to, &mut bursts.outbox);
            pending += c;
            sent |= s;
            if to >= m && pending > 0 {
                committed.fetch_add(pending, Ordering::Relaxed);
                pending = 0;
            }
            core.shared.local.store(to, Ordering::Release);
            stepped = true;
        }
        if !stepped || (until_event && sent) {
            break;
        }
    }
    if pending > 0 {
        committed.fetch_add(pending, Ordering::Relaxed);
    }
    span.is_some()
}

/// Carries out one command on a lane's capped cores, on the lane's thread
/// — or on the manager's for lane 0. Returns the cores' captures, in core
/// order: the reply to the command.
fn obey<C: CoreModel + Checkpointable>(
    cores: &mut [LaneCore<C>],
    cmd: Command<C>,
    ph: &ProfHandle,
) -> Vec<CoreCapture<C>> {
    match cmd {
        Command::Snapshot(since) => {
            let _span = ph.enter(ProfSite::CheckpointCapture);
            cores
                .iter_mut()
                .zip(since)
                .map(|(core, since)| core.capture(since))
                .collect()
        }
        Command::Rewind { at, bases } => {
            let _span = ph.enter(ProfSite::CheckpointRestore);
            cores
                .iter_mut()
                .zip(bases)
                .map(|(core, (base, since))| core.rewind(base, since, at))
                .collect()
        }
    }
}

/// Main loop of the thread stepping lane `lane` (≥ 1): obey a manager
/// command, step the lane's cores while any is below its max local time,
/// exit when the done flag rises.
///
/// Each core records Run/Wait phase spans on its own trace handle at
/// every transition between ticking and being capped by the window.
/// When every core is capped the lane waits through the [`Backoff`]
/// ladder, whose park tier is [`HostThread::park`]; the manager unparks
/// the thread whenever it changes one of its cores' windows or sends a
/// command. Returns the cores' models.
#[allow(clippy::too_many_arguments)]
fn lane_thread<C: CoreModel + Checkpointable>(
    lane: usize,
    mut cores: Vec<LaneCore<C>>,
    mut bursts: Bursts<C::Event>,
    host: &HostThread,
    done: &AtomicBool,
    committed: &AtomicU64,
    cmd_rx: &Receiver<Command<C>>,
    ack_tx: &Sender<Vec<CoreCapture<C>>>,
    sched: &dyn HostSched,
    ph: ProfHandle,
) -> Vec<C> {
    // Spawned lanes take the core task names from `core0`, as the campaign
    // pool's workers do: a lane of one core *is* that core's thread, and
    // a virtual scheduler built for L - 1 cores drives lanes 1..L.
    let task = sched.register(&format!("core{}", lane - 1));
    let _ = host.task.set(task);
    let mut backoff = Backoff::new(sched.virtualized());
    cores.iter_mut().for_each(LaneCore::open_phase);

    loop {
        // A command comes first: the manager sends one only while every
        // core of the lane is capped, so a lane that is stepping reaches
        // this point within a pass. Clear the pending flag *before*
        // polling: a flag raised after the clear but whose command is
        // missed by this poll is re-derived next iteration (the send's
        // wake guarantees this loop runs again), while a flag consumed
        // together with its command simply skips one park.
        host.cmd_pending.store(false, Ordering::Relaxed);
        match cmd_rx.try_recv() {
            Ok(cmd) => {
                let reply = obey(&mut cores, cmd, &ph);
                ack_tx.send(reply).expect("manager alive");
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => break,
        }

        if done.load(Ordering::Acquire) {
            break;
        }

        if step_lane(&mut cores, false, committed, &mut bursts, sched, &ph) {
            backoff.reset();
            continue;
        }
        // Every core is capped: wait for the manager to widen a window
        // (it unparks on every publish; the park timeout covers
        // lost-wakeup races and shutdown).
        let _span = ph.enter(backoff.next_site([ProfSite::CoreWaitYield, ProfSite::CoreWaitPark]));
        backoff.wait_with(sched, SchedSite::CoreIdle, |timeout| {
            host.park(sched, SchedSite::CoreIdle, timeout, || {
                done.load(Ordering::Relaxed)
                    || cores.iter().any(|c| {
                        c.shared.local.load(Ordering::Relaxed)
                            < c.shared.max_local.load(Ordering::Relaxed)
                    })
            });
        });
    }
    sched.unregister();
    cores.into_iter().map(LaneCore::close).collect()
}

/// Blocks for a lane's reply on the manager: a real blocking receive
/// natively, a scheduler-visible `try_recv` poll under a virtual scheduler
/// (a blocked `recv` would hold the scheduling token forever). `None` when
/// the lane hung up.
fn recv<T>(rx: &Receiver<T>, sched: &dyn HostSched) -> Option<T> {
    if !sched.virtualized() {
        return rx.recv().ok();
    }
    loop {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Empty) => sched.idle_yield(SchedSite::AwaitAck),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
}

/// How the manager loop ended, for the report.
struct ManagerExit {
    global: Cycle,
    reason: FinishReason,
    gq_len: u64,
    manager_parks: u64,
}

/// The simulation-manager loop (runs on the caller's thread inside the
/// scope): the driver half — stepping lane 0, ring drains, window
/// publication, the wait ladder and the lanes' commands — around the
/// kernel's verbs. Leaves early, with [`LaneDied`], as soon as a wait finds
/// a spawned lane dead.
fn manager_loop<C, U>(
    cfg: &EngineConfig,
    k: &mut Kernel<C, U>,
    uncore: &mut U,
    shared: &[Arc<CoreShared<C>>],
    committed: &AtomicU64,
    lanes: &mut LaneSet<C>,
    start_global: Cycle,
) -> Result<ManagerExit, LaneDied>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    let n = shared.len();
    let sched: &dyn HostSched = &**cfg.sched.get();
    let ph = k.prof_handle();
    let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
    // The kernel's delivery seam: responses go into the target core's InQ.
    let deliver = |to: CoreId, ev: Timestamped<C::Event>| shared[to.index()].inq.push(ev);
    let rings = |i: usize| ring_depths(&shared[i]);

    // Persistent scratch reused every iteration: local-clock snapshots,
    // the previous iteration's snapshot for progress detection, the OutQ
    // drain buffer and a peer-paced pacer's per-core window ends. Steady
    // state allocates nothing.
    let mut locals: Vec<Cycle> = Vec::with_capacity(n);
    let mut prev_locals: Vec<Cycle> = vec![Cycle::MAX; n];
    let mut drain_buf: Vec<Timestamped<C::Event>> = Vec::new();
    let mut ends: Vec<Cycle> = Vec::new();
    let mut backoff = Backoff::new(sched.virtualized());
    // A dead lane's clocks never move again, so the idle path is where
    // every other stall ends up: the death flag is read there.
    let died = Arc::clone(&lanes.died);
    let idle_wait = |backoff: &mut Backoff, k: &mut Kernel<C, U>| {
        if died.load(Ordering::Acquire) {
            return Err(LaneDied);
        }
        let _span =
            ph.enter(backoff.next_site([ProfSite::ManagerWaitYield, ProfSite::ManagerWaitPark]));
        k.timed_wait(|| backoff.wait(sched, SchedSite::ManagerIdle));
        Ok(())
    };

    // The highest window published since the last rollback: a replay's
    // boundary, and an upper bound on every core's clock — a lane may run
    // a core up to a window the manager has since lowered (adaptive bounds
    // shrink, Lax-P2P partners are re-drawn), never past the highest. The
    // cores start frozen at it; the first pass publishes their windows.
    let mut window_end = start_global;

    let (final_global, finish_reason) = loop {
        sched.point(SchedSite::ManagerLoop);
        lanes.step_own(committed, sched, &ph);
        let drained = {
            let _span = ph.enter(ProfSite::ManagerDrain);
            drain_outqs(shared, &mut gq, &mut drain_buf)
        };
        locals.clear();
        locals.extend(
            shared
                .iter()
                .map(|s| Cycle::new(s.local.load(Ordering::Acquire))),
        );
        let progress = drained > 0 || locals != prev_locals;
        prev_locals.copy_from_slice(&locals);
        if progress {
            backoff.reset();
        }
        let global = locals.iter().copied().min().expect("n >= 1");
        let furthest = locals.iter().copied().max().expect("n >= 1");
        // The empirical slack: a lower bound on the true maximum, since
        // the manager samples the clocks asynchronously.
        k.note_spread(furthest - global);

        k.on_global(
            global,
            committed.load(Ordering::Relaxed),
            &locals,
            gq.len() as u64,
            rings,
        );

        // A due checkpoint caps every window at its stop point, a replay at
        // the cycle after global time. Once every core stands at that
        // boundary a second drain catches what the first missed (a core
        // pushes a tick's events before it stores its clock); a replay
        // services nothing before, so its batch is serviced in order.
        let replaying = k.replaying();
        let stop = k.arm_stop(global, window_end);
        let boundary = if replaying { Some(window_end) } else { stop };
        let at_boundary = boundary.is_some_and(|b| locals.iter().all(|&l| l == b));
        if at_boundary {
            let _span = ph.enter(ProfSite::ManagerDrain);
            drain_outqs(shared, &mut gq, &mut drain_buf);
        } else if replaying {
            if !progress {
                idle_wait(&mut backoff, k)?;
            }
            continue;
        }

        {
            let _span = ph.enter(ProfSite::ManagerService);
            k.service_all(&mut gq, uncore, deliver);
        }

        if k.rollback_pending() {
            let _span = ph.enter(ProfSite::CheckpointRestore);
            let (at, at_committed) = k.rollback_ledger(global);
            // Every core is at or past the checkpoint, so this caps each
            // lane after its current pass, and a capped lane obeys the
            // rewind. Each lane gets its cores' checkpoint bases by move,
            // rewinds each core in place via `restore_from` (copying back
            // only the units that diverged) and returns the base in its
            // reply, so no full-model clone happens on either side.
            lanes.publish(shared, sched, |_| at);
            let mut bases = k.take_bases().into_iter().map(Box::new);
            let returned = lanes.obey_all(sched, &ph, |cores| Command::Rewind {
                at: at.as_u64(),
                bases: cores
                    .map(|i| (bases.next().expect("a base per core"), k.core_gen(i)))
                    .collect(),
            })?;
            k.return_bases(
                returned
                    .into_iter()
                    .map(|capture| match capture {
                        CoreCapture::Base(b) => *b,
                        CoreCapture::Delta(_) => unreachable!("a rewind hands back the base"),
                    })
                    .collect(),
            );
            // Every lane has replied, so none pushes again before the next
            // publish: what its last pass queued is discarded here.
            gq.clear();
            for s in shared {
                s.outq.clear();
            }
            k.restore_uncore(uncore);
            committed.store(at_committed, Ordering::Release);
            window_end = at + 1;
            lanes.publish(shared, sched, |_| window_end);
            backoff.reset();
            continue;
        }

        if committed.load(Ordering::Acquire) >= cfg.commit_target {
            break (global, FinishReason::CommitTarget);
        }
        if global.as_u64() >= cfg.max_cycles {
            break (global, FinishReason::CycleCap);
        }

        // Every core stands at the stop point, serviced, with no rollback
        // raised: capture (also the checkpoint that ends a replay).
        if let Some(s) = stop.filter(|_| at_boundary) {
            capture_all(k, lanes, sched)?;
            k.commit_checkpoint(s, committed.load(Ordering::Acquire), uncore, None);
            backoff.reset();
            continue;
        }

        // Per-core windows for a pacer that paces against peers (Lax-P2P),
        // uniform ones otherwise, all capped by the stop point and the lead
        // cap — one cycle in a replay. The cap ends lane 0's steps between
        // services within `max_lead` cycles even under `unbounded`.
        let lead = if replaying {
            global + 1
        } else {
            cfg.lead_cap(global)
        };
        let cap = lead.min(stop.unwrap_or(Cycle::MAX));
        let per_core = k.pacer.window_ends(&locals, &mut ends);
        let uniform = k.pacer.window_end(global);
        let published = lanes.publish(shared, sched, |i| {
            if per_core { ends[i] } else { uniform }.min(cap)
        });
        window_end = window_end.max(published);
        if !progress {
            // Nothing moved this iteration: wait instead of going
            // straight back to draining.
            idle_wait(&mut backoff, k)?;
        }
    };

    Ok(ManagerExit {
        global: final_global,
        reason: finish_reason,
        gq_len: gq.len() as u64,
        manager_parks: backoff.parks,
    })
}

/// Moves every queued OutQ entry into the global queue: one batched ring
/// drain plus one batched heap insert per core. Returns the number of
/// events moved.
fn drain_outqs<C: CoreModel + Checkpointable>(
    shared: &[Arc<CoreShared<C>>],
    gq: &mut GlobalQueue<C::Event>,
    buf: &mut Vec<Timestamped<C::Event>>,
) -> usize {
    let mut total = 0;
    for (i, s) in shared.iter().enumerate() {
        buf.clear();
        let moved = s.outq.drain_into(buf);
        if moved > 0 {
            total += moved;
            gq.push_batch(CoreId::new(i as u16), buf);
        }
    }
    total
}

/// Has every lane, its cores capped at the checkpoint, capture their
/// deltas since the standing checkpoint, and folds the captures into the
/// kernel's base.
fn capture_all<C, U>(
    k: &mut Kernel<C, U>,
    lanes: &mut LaneSet<C>,
    sched: &dyn HostSched,
) -> Result<(), LaneDied>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    let ph = k.prof_handle();
    let _span = ph.enter(ProfSite::CheckpointCapture);
    let captures = lanes.obey_all(sched, &ph, |cores| {
        Command::Snapshot(cores.map(|i| k.core_gen(i)).collect())
    })?;
    let _apply = ph.enter(ProfSite::CheckpointApply);
    for (i, capture) in captures.into_iter().enumerate() {
        let CoreCapture::Delta(capture) = capture else {
            unreachable!("a snapshot command captures a delta");
        };
        let (delta, inbox, gen) = *capture;
        k.absorb_core(i, delta, inbox, gen);
    }
    Ok(())
}

/// Core `s`'s (OutQ, InQ) depths, from the rings' relaxed counters.
fn ring_depths<C: CoreModel>(s: &CoreShared<C>) -> (u64, u64) {
    (s.outq.depth_hint() as u64, s.inq.depth_hint() as u64)
}

#[cfg(test)]
mod tests {
    // The threaded engine is exercised end-to-end in the workspace
    // integration tests (tests/engines_agree.rs and friends), where it is
    // compared against the sequential engine on real CMP models. The
    // SPSC ring it is built on has its own stress suite in
    // crates/core/tests/spsc_stress.rs. What is left here is what those
    // cannot reach: a core model that panics — ticking, being captured, or
    // replaying after a rollback — and, under a barrier scheme, that the
    // hand-off to the batched engine still ends `run()` with the panic.

    use std::sync::mpsc;

    use super::*;
    use crate::engine::batched::tests::{Fuse, Toy, ToyCore};
    use crate::engine::{ServiceSink, TickCtx};
    use crate::scheme::Scheme;
    use crate::speculative::{SpeculationConfig, ViolationSelect};
    use crate::stats::Counters;
    use crate::violation::{TimestampMonitor, ViolationEvent, ViolationKind};

    /// Pongs every ping back 5 cycles later, in whatever order a greedy
    /// manager services them, and flags a ping serviced below one already
    /// serviced, so that a speculative run rolls back.
    #[derive(Debug, Clone, Default)]
    struct Echo {
        monitor: TimestampMonitor,
    }

    impl UncoreModel<Toy> for Echo {
        fn service(&mut self, from: CoreId, ev: Timestamped<Toy>, sink: &mut ServiceSink<Toy>) {
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
            Counters::new()
        }
    }

    crate::impl_checkpointable_by_clone!(Echo);

    /// Runs an endless `run()` of `cores` (built on the run's thread) on 2
    /// host threads, on a thread of its own so that a hang fails the test
    /// instead of stalling the suite. Returns the message `run()` unwound
    /// with.
    fn unwind_message<C: CoreModel<Event = Toy> + Checkpointable>(
        scheme: Scheme,
        speculation: Option<SpeculationConfig>,
        cores: impl FnOnce() -> Vec<C> + Send + 'static,
    ) -> String {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut cfg = EngineConfig::new(scheme, u64::MAX);
            cfg.host_threads = 2;
            cfg.speculation = speculation;
            let run = catch_unwind(AssertUnwindSafe(|| {
                ThreadedEngine::new(cores(), Echo::default(), cfg).run()
            }));
            let Err(panic) = run else {
                panic!("an endless run returned");
            };
            let _ = tx.send(panic.downcast_ref::<&str>().map(|s| s.to_string()));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("run() ends within 60 s instead of hanging")
            .expect("the core's own panic payload")
    }

    /// 8 cores on 2 host threads, core `fused` blowing at cycle 2000.
    fn blow_a_fuse(scheme: Scheme, fused: usize) -> String {
        unwind_message(scheme, None, move || {
            (0..8)
                .map(|i| Fuse {
                    inner: ToyCore::new(3),
                    blow_at: (i == fused).then_some(2000),
                })
                .collect()
        })
    }

    /// A toy core whose checkpoint capture panics once it has committed
    /// 2000 instructions, if `botched`.
    #[derive(Debug, Clone)]
    struct Botch {
        inner: ToyCore,
        botched: bool,
    }

    impl CoreModel for Botch {
        type Event = Toy;

        fn tick(&mut self, ctx: &mut TickCtx<'_, Toy>) -> u32 {
            self.inner.tick(ctx)
        }

        fn committed(&self) -> u64 {
            self.inner.committed()
        }

        fn counters(&self) -> Counters {
            self.inner.counters()
        }
    }

    impl Checkpointable for Botch {
        type Delta = Botch;

        fn generation(&self) -> u64 {
            0
        }

        fn capture_delta(&mut self, _since_gen: u64) -> Botch {
            if self.botched && self.committed() >= 2000 {
                panic!("toy core botched its capture");
            }
            self.clone()
        }

        fn apply_delta(&mut self, delta: Botch) {
            *self = delta;
        }

        fn restore_from(&mut self, base: &Botch, _since_gen: u64) {
            *self = base.clone();
        }
    }

    /// A toy core that panics, if `armed`, the first time it ticks a cycle
    /// it has ticked before: in the replay after a rollback. `furthest`
    /// is the cycle after the last one it ticked; shared, so a rewind of
    /// the model does not rewind it.
    #[derive(Debug, Clone)]
    struct Replayed {
        inner: ToyCore,
        armed: bool,
        furthest: Arc<AtomicU64>,
    }

    impl CoreModel for Replayed {
        type Event = Toy;

        fn tick(&mut self, ctx: &mut TickCtx<'_, Toy>) -> u32 {
            let now = ctx.now().as_u64();
            if self.armed && now < self.furthest.fetch_max(now + 1, Ordering::Relaxed) {
                panic!("toy core blew its fuse in a replay");
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

    crate::impl_checkpointable_by_clone!(Replayed);

    #[test]
    fn a_capture_that_panics_ends_the_run_from_either_lane() {
        // Cycle-by-cycle runs on the batched engine, which captures every
        // core on the calling thread; bounded slack captures core 0 on the
        // manager's lane and core 4 on a spawned one.
        for scheme in [Scheme::CycleByCycle, Scheme::BoundedSlack { bound: 16 }] {
            for core in [0, 4] {
                let cps = Some(SpeculationConfig::checkpoint_only(500));
                let msg = unwind_message(scheme.clone(), cps, move || {
                    (0..8)
                        .map(|i| Botch {
                            inner: ToyCore::new(3),
                            botched: i == core,
                        })
                        .collect()
                });
                assert_eq!(
                    msg, "toy core botched its capture",
                    "{scheme:?}, core {core}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_core_ends_a_handed_off_cycle_by_cycle_run() {
        for core in [0, 4] {
            let msg = blow_a_fuse(Scheme::CycleByCycle, core);
            assert_eq!(msg, "toy core blew its fuse", "core {core}");
        }
    }

    #[test]
    fn a_panicking_lane_ends_a_bounded_slack_run() {
        for (lane, core) in [(0, 0), (1, 4)] {
            let msg = blow_a_fuse(Scheme::BoundedSlack { bound: 16 }, core);
            assert_eq!(msg, "toy core blew its fuse", "lane {lane}");
        }
    }

    #[test]
    fn a_panicking_lane_ends_a_replay() {
        // Pings from 8 cores serviced greedily arrive out of order, so the
        // run rolls back, and the armed core blows on its first replayed
        // tick: on the manager's lane while the manager waits for the
        // replay boundary, or on a spawned lane, whose death that wait
        // must see.
        let rollback = Some(SpeculationConfig::speculative(500, ViolationSelect::all()));
        for (lane, core) in [(0, 0), (1, 4)] {
            let msg = unwind_message(Scheme::BoundedSlack { bound: 16 }, rollback, move || {
                (0..8)
                    .map(|i| Replayed {
                        inner: ToyCore::new(3),
                        armed: i == core,
                        furthest: Arc::new(AtomicU64::new(0)),
                    })
                    .collect()
            });
            assert_eq!(msg, "toy core blew its fuse in a replay", "lane {lane}");
        }
    }
}
