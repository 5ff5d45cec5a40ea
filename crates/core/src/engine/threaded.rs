//! The threaded engine: target cores on *lane* threads plus the
//! simulation-manager logic, the way SlackSim maps a CMP simulation onto a
//! host CMP (paper §2).
//!
//! A lane is one host thread stepping a contiguous slice of target cores.
//! There are as many lanes as the host has CPUs
//! ([`EngineConfig::host_threads`], capped at the core count), so with a
//! CPU per target core every lane holds one core — the paper's one thread
//! per core — and on a smaller host the cores fold onto the CPUs there are
//! instead of oversubscribing them (DESIGN.md §10, "Core lanes"). A lane
//! owns its cores' [`CoreModel`]s and advances each while its local time
//! is below the max local time published by the manager, round-robin one
//! cycle at a time. Events flow through per-core shared queues
//! (OutQ/InQ); the manager consolidates OutQ entries into the global queue
//! and services them — greedily under slack schemes, in sorted batches at
//! window boundaries under barrier schemes (cycle-by-cycle, quantum, and
//! post-rollback replay). Clocks, windows and queues stay per core, so
//! the lane count is a host knob only: nothing the manager computes can
//! tell how the cores were folded.
//!
//! Checkpoints and rollbacks use a stop-sync protocol over per-lane command
//! channels: *stop → run-to common local time → drain → snapshot/restore →
//! resume*, the in-memory equivalent of the paper's `fork()`-based global
//! checkpoints.
//!
//! Everything here is built on `std` alone: `std::sync::mpsc` channels for
//! commands/acks (each lane's receiver is moved into its thread), the
//! lock-free [`SpscRing`] for the OutQ/InQ event paths, and the
//! mutex-backed [`SnapshotSlot`] for checkpoint hand-off.
//!
//! ## Host-synchronization design (see DESIGN.md "Engine concurrency")
//!
//! * OutQ/InQ are bounded lock-free SPSC rings with an overflow spill;
//!   each direction has exactly one producer and one consumer, and the
//!   stop-sync protocol's channel acks order every role handoff (e.g. the
//!   manager clearing a core's InQ during rollback while the core's lane
//!   is parked in its command loop).
//! * The manager drains each OutQ in one batch per visit and batch-inserts
//!   into the global queue; its loop reuses persistent scratch buffers and
//!   interned metric keys, so the steady state performs no heap
//!   allocation.
//! * Waiting is an adaptive ladder — spin, then `yield_now`, then
//!   park/unpark with a timeout backstop — for both lane threads whose
//!   cores are all capped by the window and the manager when no core made
//!   progress.
//! * With `shards > 1` (see DESIGN.md §18) the manager becomes a two-level
//!   tree: shard-manager threads each consolidate a contiguous run of
//!   cores' OutQs into a per-shard forwarding ring and publish a
//!   conservative clock floor; the root manager (shard 0, folded into the
//!   classic manager loop) reconciles the floors into the slack window,
//!   drains the forwarding rings into the global queue, and keeps sole
//!   ownership of servicing, checkpointing and window publication. Every
//!   ring stays strictly SPSC; stop-sync paths pause the shard tier first
//!   (channel acks hand the ring-consumer role to the root). `--shards 1`
//!   builds none of this and is byte-identical to the single-manager
//!   engine.

use std::ops::Range;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::checkpoint::Checkpointable;
use crate::engine::kernel::{CoreSnapshot, Finish, Kernel};
use crate::engine::wait::{
    host_oversubscribed, lane_width, Backoff, MGR_PARK_TIMEOUT, MGR_SPIN_ITERS, MGR_YIELD_ITERS,
    MGR_YIELD_ITERS_OVERSUB, VIRT_YIELD_ITERS,
};
use crate::engine::{
    CoreModel, EngineConfig, EngineError, EngineResume, FinishReason, SaveHook, TickCtx,
    UncoreModel,
};
use crate::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use crate::obs::{Phase, ProfHandle, ProfSite, TraceEvent, TraceHandle};
use crate::sched::{HostSched, SchedSite, TaskId};
use crate::scheme::Pacer;
use crate::stats::SimReport;
use crate::sync::{SnapshotSlot, SpscRing};
use crate::time::Cycle;

/// Spin iterations before a capped lane starts yielding (plenty-of-CPUs
/// hosts only; oversubscribed hosts skip the spin tier).
const CORE_SPIN_ITERS: u32 = 64;
/// Yield iterations before a capped lane parks.
const CORE_YIELD_ITERS: u32 = 64;
/// Park-timeout backstop for lane threads: the manager unparks them on
/// every window publish, the timeout only covers lost-wakeup races.
const CORE_PARK_TIMEOUT: Duration = Duration::from_micros(100);
/// Yield iterations before a capped lane parks on an oversubscribed host.
const CORE_YIELD_ITERS_OVERSUB: u32 = 256;

/// Commands the manager sends to a lane thread. Those that carry state
/// carry it for every core of the lane, in core order.
enum Command<C: CoreModel> {
    /// Pause at the current local times and acknowledge.
    Stop,
    /// Run every core (ignoring the published max local times) until its
    /// local clock reaches the given cycle, then acknowledge.
    RunTo(u64),
    /// Capture each core's delta against its generation at the previous
    /// checkpoint (the carried values) into its snapshot slot.
    Snapshot(Vec<u64>),
    /// Rewind each model onto its checkpoint base via
    /// [`Checkpointable::restore_from`] — the paired value being the
    /// core's generation when the base was current — and hand the
    /// untouched base back through the core's snapshot slot.
    Rewind(Vec<(Box<CoreSnapshot<C>>, u64)>),
    /// Leave the control sub-loop and return to normal execution.
    Resume,
}

/// What a lane deposits in a core's snapshot slot.
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
struct CoreShared<C: CoreModel + Checkpointable> {
    local: AtomicU64,
    max_local: AtomicU64,
    /// Lane produces, manager consumes.
    outq: SpscRing<Timestamped<C::Event>>,
    /// Manager produces, lane consumes.
    inq: SpscRing<Timestamped<C::Event>>,
    snapshot: SnapshotSlot<CoreCapture<C>>,
}

/// The park-and-command plumbing between the manager and one helper
/// thread (a lane or a shard manager).
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
    /// diagnose as a livelock.
    fn send<T>(&self, tx: &Sender<T>, cmd: T, sched: &dyn HostSched) {
        self.cmd_pending.store(true, Ordering::SeqCst);
        tx.send(cmd).expect("helper thread alive");
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

/// The manager's handle on the lane threads: lane `j` steps cores
/// `j * width .. (j + 1) * width`, the last lane what is left of `cores`.
struct LaneSet<C: CoreModel> {
    hosts: Vec<Arc<HostThread>>,
    cmd_txs: Vec<Sender<Command<C>>>,
    ack_rxs: Vec<Receiver<()>>,
    width: usize,
    cores: usize,
}

impl<C: CoreModel + Checkpointable> LaneSet<C> {
    /// Sends every lane the command `cmd` builds for its core range
    /// (waking parked lanes).
    fn send_all(&self, sched: &dyn HostSched, mut cmd: impl FnMut(Range<usize>) -> Command<C>) {
        for (lane, (host, tx)) in self.hosts.iter().zip(&self.cmd_txs).enumerate() {
            let first = lane * self.width;
            let end = (first + self.width).min(self.cores);
            host.send(tx, cmd(first..end), sched);
        }
    }

    /// Sends `Stop` to every lane and waits for all acknowledgements.
    fn stop_all(&self, sched: &dyn HostSched) {
        self.send_all(sched, |_| Command::Stop);
        await_acks(&self.ack_rxs, sched);
    }

    /// Sends `Resume` to every (paused) lane.
    fn resume_all(&self, sched: &dyn HostSched) {
        self.send_all(sched, |_| Command::Resume);
    }

    /// Sets core `i`'s max local time to `window(i)` for every core and
    /// unparks each lane that had a window change — once, after its
    /// stores, and not at all when the manager re-publishes the windows a
    /// lane already has (most iterations while global time stands still).
    fn publish(
        &self,
        shared: &[Arc<CoreShared<C>>],
        sched: &dyn HostSched,
        window: impl Fn(usize) -> Cycle,
    ) {
        for (lane, (host, cores)) in self.hosts.iter().zip(shared.chunks(self.width)).enumerate() {
            let mut changed = false;
            for (j, s) in cores.iter().enumerate() {
                let w = window(lane * self.width + j).as_u64();
                // The manager is the only writer of `max_local`.
                if s.max_local.load(Ordering::Relaxed) != w {
                    s.max_local.store(w, Ordering::Release);
                    changed = true;
                }
            }
            if changed {
                host.wake(sched);
            }
        }
    }
}

/// Commands the root manager sends to a shard-manager thread
/// (threaded engine with `shards > 1`).
enum ShardCmd {
    /// Forward everything visible, acknowledge, and hold: until `Resume`
    /// arrives the root owns the shard's rings (the forwarding ring and
    /// its cores' OutQs) — the channel ack is the role handoff, exactly
    /// like the lane stop-sync protocol.
    Pause,
    /// Leave the control sub-loop and return to forwarding.
    Resume,
}

/// State shared between the root manager and one shard-manager thread.
///
/// A shard-manager owns a contiguous run of cores and runs the
/// consolidation half of the manager loop locally: it drains its cores'
/// OutQs into `fwd` (tagging each event with its producing core) and
/// publishes a conservative clock floor. The root folds every shard's
/// floor into its window arithmetic (see
/// [`reconcile_shard_floor`](crate::scheme::reconcile_shard_floor)) and
/// is the only consumer of `fwd`, so every ring stays strictly SPSC.
struct ShardShared<C: CoreModel> {
    /// Shard produces, root consumes: the shard's cores' events, each
    /// tagged with its producing core so the root can feed the global
    /// queue without knowing the shard split.
    fwd: SpscRing<(CoreId, Timestamped<C::Event>)>,
    /// Conservative floor: every event the shard's cores produced below
    /// this cycle has been pushed into `fwd`. Release-stored after the
    /// push, so the root's Acquire load followed by a ring drain observes
    /// them all.
    min_time: AtomicU64,
    /// Cumulative events forwarded (host-side telemetry; carried across
    /// checkpoint/resume via `CheckpointView::shard_forwarded`).
    forwarded: AtomicU64,
    host: HostThread,
}

/// The root manager's handle on the shard tier. Empty when `shards == 1`:
/// every helper then degrades to the classic single-manager behaviour
/// (`k0 == n`, no forwarding rings, floors trivially satisfied), keeping
/// the default configuration on the exact pre-shard code path.
struct ShardSet<C: CoreModel + Checkpointable> {
    /// Remote shards `1..S` (shard 0 is folded into the root).
    shards: Vec<Arc<ShardShared<C>>>,
    cmd_txs: Vec<Sender<ShardCmd>>,
    ack_rxs: Vec<Receiver<()>>,
    /// Cores the root consolidates directly (`shared[..k0]`).
    k0: usize,
    /// `shard_forwarded` total carried from a resumed snapshot taken
    /// under a different shard split (per-shard seeding is impossible, so
    /// the sum keeps the aggregate counter monotone).
    resume_base: u64,
    /// Per-shard forwarded counts captured at the last pause — the
    /// values a checkpoint persists, exact because shards are always
    /// paused while a checkpoint is taken.
    paused_forwarded: Vec<u64>,
    /// Scratch for forwarding-ring drains.
    buf: Vec<(CoreId, Timestamped<C::Event>)>,
}

impl<C: CoreModel + Checkpointable> ShardSet<C> {
    /// The single-manager configuration: no remote shards, the root owns
    /// all `n` cores.
    fn solo(n: usize) -> Self {
        ShardSet {
            shards: Vec::new(),
            cmd_txs: Vec::new(),
            ack_rxs: Vec::new(),
            k0: n,
            resume_base: 0,
            paused_forwarded: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Drains every (visible) forwarded event into the global queue. The
    /// root is the forwarding rings' only consumer, so this is equally
    /// legal in steady state and mid-pause. Per-core FIFO order is
    /// preserved end to end (core OutQ → shard drain → `fwd` → here), so
    /// the global queue's `(ts, core, seq)` order — and with it
    /// cycle-by-cycle determinism — is independent of shard interleaving.
    fn drain_forward(&mut self, gq: &mut GlobalQueue<C::Event>) -> usize {
        let mut total = 0;
        for sh in &self.shards {
            self.buf.clear();
            if sh.fwd.drain_into(&mut self.buf) > 0 {
                total += self.buf.len();
                for (from, ev) in self.buf.drain(..) {
                    gq.push(from, ev);
                }
            }
        }
        total
    }

    /// Steady-state consolidation: the root's own cores' OutQs plus every
    /// shard's forwarding ring.
    fn drain_steady(
        &mut self,
        shared: &[Arc<CoreShared<C>>],
        gq: &mut GlobalQueue<C::Event>,
        drain_buf: &mut Vec<Timestamped<C::Event>>,
    ) -> usize {
        let direct = drain_outqs(&shared[..self.k0], gq, drain_buf);
        direct + self.drain_forward(gq)
    }

    /// The slack floor greedy window publication paces against: the
    /// root's own cores' minimum reconciled with every shard's published
    /// floor. With no shards this is exactly the global minimum, so the
    /// single-manager window arithmetic is unchanged.
    fn floor(&self, locals: &[Cycle]) -> Cycle {
        let root_min = locals[..self.k0].iter().copied().min().expect("k0 >= 1");
        crate::scheme::reconcile_shard_floor(
            std::iter::once(root_min).chain(
                self.shards
                    .iter()
                    .map(|sh| Cycle::new(sh.min_time.load(Ordering::Acquire))),
            ),
        )
        .expect("at least the root floor")
    }

    /// True when every shard has published a floor at or past `c`
    /// (trivially true with no shards) — the barrier flush gate: combined
    /// with all locals at the boundary it guarantees every event below
    /// the boundary is visible in the forwarding rings.
    fn flushed_to(&self, c: Cycle) -> bool {
        self.shards
            .iter()
            .all(|sh| sh.min_time.load(Ordering::Acquire) >= c.as_u64())
    }

    /// Pauses every shard: each forwards its remaining visible events,
    /// acknowledges, and blocks until [`resume`](Self::resume). Also
    /// captures the per-shard forwarded counts for checkpoint persist.
    fn pause(&mut self, sched: &dyn HostSched) {
        if self.shards.is_empty() {
            return;
        }
        for (sh, tx) in self.shards.iter().zip(&self.cmd_txs) {
            sh.host.send(tx, ShardCmd::Pause, sched);
        }
        await_acks(&self.ack_rxs, sched);
        self.paused_forwarded.clear();
        self.paused_forwarded.extend(
            self.shards
                .iter()
                .map(|sh| sh.forwarded.load(Ordering::Relaxed)),
        );
    }

    /// Discards every forwarded-but-unserviced event (rollback path; the
    /// shards must be paused).
    fn clear_forward(&self) {
        for sh in &self.shards {
            sh.fwd.clear();
        }
    }

    /// Re-seeds every shard's floor while paused (rollback rewinds it to
    /// the checkpoint; stop-syncs advance it to the common stop point so
    /// the first post-resume window does not shrink to a stale floor).
    fn set_floors(&self, c: Cycle) {
        for sh in &self.shards {
            sh.min_time.store(c.as_u64(), Ordering::Release);
        }
    }

    /// Sends `Resume` to every (paused) shard.
    fn resume(&self, sched: &dyn HostSched) {
        for (sh, tx) in self.shards.iter().zip(&self.cmd_txs) {
            sh.host.send(tx, ShardCmd::Resume, sched);
        }
    }
}

/// One shard consolidation pass: read the owned cores' clocks (the
/// floor), drain their OutQs into the forwarding ring tagged with the
/// producing core, then publish the floor. Reading the clocks *before*
/// draining is what makes the floor conservative: a core Release-stores
/// its clock only after pushing that tick's events, so every event below
/// the floor read here is already visible to the drain that follows.
/// Returns how many events moved and whether the floor advanced.
fn forward_shard<C: CoreModel + Checkpointable>(
    owned: &[Arc<CoreShared<C>>],
    sh: &ShardShared<C>,
    base: u16,
    buf: &mut Vec<(CoreId, Timestamped<C::Event>)>,
) -> (usize, bool) {
    let floor = owned
        .iter()
        .map(|s| s.local.load(Ordering::Acquire))
        .min()
        .expect("shard owns >= 1 core");
    buf.clear();
    let mut moved = 0;
    for (j, s) in owned.iter().enumerate() {
        let id = CoreId::new(base + j as u16);
        moved += s.outq.drain_map_into(buf, |ev| (id, ev));
    }
    if moved > 0 {
        sh.fwd.push_batch(buf);
        sh.forwarded.fetch_add(moved as u64, Ordering::Relaxed);
    }
    let advanced = sh.min_time.load(Ordering::Relaxed) < floor;
    sh.min_time.store(floor, Ordering::Release);
    (moved, advanced)
}

/// Shard-manager thread main loop (threaded engine with `shards > 1`):
/// consolidate the owned cores' OutQs toward the root, publish the
/// shard's floor, obey root pause/resume commands, exit when the done
/// flag rises. Waiting escalates through the same manager-profile ladder
/// (spin → yield → park), the park tier's re-check guarding the command
/// channel.
#[allow(clippy::too_many_arguments)]
fn shard_thread<C: CoreModel + Checkpointable>(
    index: usize,
    base: u16,
    owned: &[Arc<CoreShared<C>>],
    sh: &ShardShared<C>,
    done: &AtomicBool,
    cmd_rx: &Receiver<ShardCmd>,
    ack_tx: &Sender<()>,
    oversubscribed: bool,
    sched: &dyn HostSched,
    ph: ProfHandle,
) {
    let virt = sched.virtualized();
    let task = sched.register(&format!("shard{index}"));
    let _ = sh.host.task.set(task);
    let mut buf: Vec<(CoreId, Timestamped<C::Event>)> = Vec::new();
    let (spin_iters, yield_iters) = if virt {
        (0u32, VIRT_YIELD_ITERS)
    } else if oversubscribed {
        (0u32, MGR_YIELD_ITERS_OVERSUB)
    } else {
        (MGR_SPIN_ITERS, MGR_YIELD_ITERS)
    };
    let mut idle = 0u32;
    'main: loop {
        sched.point(SchedSite::ShardLoop);
        // Same clear-before-poll discipline as the lane threads: a flag
        // raised after the clear whose command this poll misses is
        // re-derived next iteration.
        sh.host.cmd_pending.store(false, Ordering::Relaxed);
        match cmd_rx.try_recv() {
            Ok(mut cmd) => loop {
                match cmd {
                    ShardCmd::Pause => {
                        let _span = ph.enter(ProfSite::ShardService);
                        forward_shard(owned, sh, base, &mut buf);
                        ack_tx.send(()).expect("root alive");
                    }
                    ShardCmd::Resume => {
                        idle = 0;
                        continue 'main;
                    }
                }
                let Some(next) = next_command(cmd_rx, virt, sched) else {
                    break 'main;
                };
                cmd = next;
            },
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => break 'main,
        }
        if done.load(Ordering::Acquire) {
            break 'main;
        }
        let (moved, advanced) = {
            let _span = ph.enter(ProfSite::ShardService);
            forward_shard(owned, sh, base, &mut buf)
        };
        if moved > 0 || advanced {
            idle = 0;
            continue;
        }
        idle = idle.saturating_add(1);
        if idle <= spin_iters {
            let _span = ph.enter(ProfSite::ManagerWaitSpin);
            sched.idle_spin(SchedSite::ShardIdle);
        } else if idle <= spin_iters + yield_iters {
            let _span = ph.enter(ProfSite::ManagerWaitYield);
            sched.idle_yield(SchedSite::ShardIdle);
        } else {
            let _span = ph.enter(ProfSite::ManagerWaitPark);
            sh.host
                .park(sched, SchedSite::ShardIdle, MGR_PARK_TIMEOUT, || {
                    done.load(Ordering::Relaxed)
                });
        }
    }
    sched.unregister();
}

/// Parallel slack-simulation engine: the target cores on lane threads,
/// plus the manager.
///
/// Semantics are identical to
/// [`SequentialEngine`](crate::engine::SequentialEngine); under
/// cycle-by-cycle pacing the two produce bit-identical statistics. Under
/// slack pacing the threaded engine inherits the host scheduler's real
/// nondeterminism — which is the paper's point.
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

    /// Runs the simulation to completion, spawning one lane thread per
    /// host CPU (at most one per target core).
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
        let n = cores.len();
        if n == 0 {
            return Err(EngineError::NoCores);
        }

        // The host scheduler every wait path goes through. The data-structure
        // hook is `None` under the native scheduler, so production queue
        // operations stay instrumentation-free.
        let sched = Arc::clone(cfg.sched.get());
        let hook = cfg.sched.instrumentation_hook();

        // Manager tree: `shards` (clamped to the core count) contiguous
        // shards of `n / S` cores each, the remainder spread over the
        // first shards. Shard 0 is folded into the root manager; shards
        // `1..S` get their own consolidation thread. `shards == 1` builds
        // no machinery at all and runs the classic single-manager loop.
        let shard_count = cfg.shards.clamp(1, n);
        let s_extra = shard_count - 1;

        // Apply restored state before anything is shared with the lane
        // threads: cores and their undelivered inboxes replace the fresh
        // models, every clock starts at the snapshot's global time, and
        // the aggregate commit counter is re-seeded.
        let (mut k, resumed) = Kernel::new(&cfg, n, save_hook, true, s_extra, resume)?;
        let mut core_inboxes: Vec<Inbox<C::Event>> = (0..n).map(|_| Inbox::new()).collect();
        let mut start_committed = 0u64;
        let mut start_global = Cycle::ZERO;
        let mut resume_shard_forwarded: Vec<u64> = Vec::new();
        if let Some(res) = resumed {
            start_global = res.global;
            cores = res.cores;
            core_inboxes = res.inboxes;
            uncore = res.uncore;
            start_committed = res.committed;
            resume_shard_forwarded = res.shard_forwarded;
        }
        // Lanes: contiguous slices of `width` cores, one host thread each.
        // A virtual scheduler expects a fixed task set, so unless the
        // lane count is given the host's CPU count stays out of it.
        let width = lane_width(
            match cfg.host_threads {
                0 if sched.virtualized() => n,
                h => h,
            },
            n,
        );
        let lane_count = n.div_ceil(width);
        // Host threads recording profile spans: the lanes, the manager and
        // any shard-manager threads.
        let threads = (lane_count + s_extra) as u64 + 1;

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
                    snapshot: SnapshotSlot::with_sched(hook.clone()),
                })
            })
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(start_committed));

        let shard_splits: Vec<(usize, usize)> = {
            let mut splits = Vec::with_capacity(s_extra);
            let mut start = n / shard_count + usize::from(n % shard_count > 0);
            for s in 1..shard_count {
                let len = n / shard_count + usize::from(s < n % shard_count);
                splits.push((start, len));
                start += len;
            }
            splits
        };
        let k0 = shard_splits.first().map_or(n, |&(start, _)| start);
        let shard_shared: Vec<Arc<ShardShared<C>>> = (0..s_extra)
            .map(|_| {
                Arc::new(ShardShared {
                    fwd: SpscRing::with_sched(hook.clone()),
                    min_time: AtomicU64::new(start_global.as_u64()),
                    forwarded: AtomicU64::new(0),
                    host: HostThread::new(),
                })
            })
            .collect();
        // Resume continuity for the forwarded counters: an identical
        // split re-seeds each shard exactly; a different split folds the
        // snapshot's total into an aggregate base so the reported counter
        // stays monotone across the resume.
        let mut shard_resume_base = 0u64;
        if !resume_shard_forwarded.is_empty() {
            if resume_shard_forwarded.len() == s_extra {
                for (sh, &f) in shard_shared.iter().zip(&resume_shard_forwarded) {
                    sh.forwarded.store(f, Ordering::Relaxed);
                }
            } else {
                shard_resume_base = resume_shard_forwarded.iter().sum();
            }
        }
        let mut shard_cmd_txs: Vec<Sender<ShardCmd>> = Vec::with_capacity(s_extra);
        let mut shard_cmd_rxs: Vec<Receiver<ShardCmd>> = Vec::with_capacity(s_extra);
        let mut shard_ack_txs: Vec<Sender<()>> = Vec::with_capacity(s_extra);
        let mut shard_ack_rxs: Vec<Receiver<()>> = Vec::with_capacity(s_extra);
        for _ in 0..s_extra {
            let (ct, cr) = channel();
            let (at, ar) = channel();
            shard_cmd_txs.push(ct);
            shard_cmd_rxs.push(cr);
            shard_ack_txs.push(at);
            shard_ack_rxs.push(ar);
        }

        let mut lanes = LaneSet {
            hosts: (0..lane_count)
                .map(|_| Arc::new(HostThread::new()))
                .collect(),
            cmd_txs: Vec::with_capacity(lane_count),
            ack_rxs: Vec::with_capacity(lane_count),
            width,
            cores: n,
        };

        // Cores start frozen (max local time = start time); the manager
        // publishes the first window once every thread is up.
        std::thread::scope(|scope| {
            // --- Lane threads ------------------------------------------------
            // std mpsc receivers are single-consumer: each lane's command
            // receiver and ack sender are moved into its thread, along
            // with its cores.
            let mut handles = Vec::with_capacity(lane_count);
            let oversubscribed = host_oversubscribed(lane_count + s_extra + 1);
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
            for (lane, host) in lanes.hosts.iter().enumerate() {
                let (cmd_tx, cmd_rx) = channel();
                let (ack_tx, ack_rx) = channel();
                lanes.cmd_txs.push(cmd_tx);
                lanes.ack_rxs.push(ack_rx);
                let cores: Vec<LaneCore<C>> = lane_cores.by_ref().take(width).collect();
                let host = Arc::clone(host);
                let done = Arc::clone(&done);
                let committed = Arc::clone(&committed);
                let ph = k.prof().handle();
                let sched = Arc::clone(&sched);
                handles.push(scope.spawn(move || {
                    lane_thread(
                        lane,
                        cores,
                        &host,
                        &done,
                        &committed,
                        &cmd_rx,
                        &ack_tx,
                        oversubscribed,
                        &*sched,
                        ph,
                    )
                }));
            }

            // --- Shard-manager threads ---------------------------------------
            // Spawned after the lanes so task names stay grouped; each
            // owns an Arc'd slice of its cores plus its shared block.
            let mut shard_handles = Vec::with_capacity(s_extra);
            for (si, ((cmd_rx, ack_tx), &(start, len))) in shard_cmd_rxs
                .into_iter()
                .zip(shard_ack_txs)
                .zip(&shard_splits)
                .enumerate()
            {
                let owned: Vec<Arc<CoreShared<C>>> =
                    shared[start..start + len].iter().map(Arc::clone).collect();
                let sh = Arc::clone(&shard_shared[si]);
                let done = Arc::clone(&done);
                let ph = k.prof().handle();
                let sched = Arc::clone(&sched);
                shard_handles.push(scope.spawn(move || {
                    shard_thread(
                        si + 1,
                        start as u16,
                        &owned,
                        &sh,
                        &done,
                        &cmd_rx,
                        &ack_tx,
                        oversubscribed,
                        &*sched,
                        ph,
                    )
                }));
            }
            let mut shardset = if s_extra == 0 {
                ShardSet::solo(n)
            } else {
                ShardSet {
                    shards: shard_shared.clone(),
                    cmd_txs: shard_cmd_txs,
                    ack_rxs: shard_ack_rxs,
                    k0,
                    resume_base: shard_resume_base,
                    paused_forwarded: Vec::new(),
                    buf: Vec::new(),
                }
            };

            // --- Manager (this thread) ---------------------------------------
            // Registration happens after every lane and shard is spawned:
            // a virtual scheduler's `register` blocks until the whole
            // expected task set has arrived, so registering earlier would
            // deadlock the spawn loop.
            sched.register("manager");
            let exit = manager_loop(
                &cfg,
                &mut k,
                &mut uncore,
                &shared,
                &committed,
                &lanes,
                start_global,
                &mut shardset,
            );

            done.store(true, Ordering::Release);
            for host in &lanes.hosts {
                host.wake(&*sched);
            }
            for sh in &shard_shared {
                sh.host.wake(&*sched);
            }
            // Leave the scheduling discipline before joining: the lanes
            // only need the token among themselves to run out their
            // windows and unregister, and a native blocking join keeps OS
            // timing out of the schedule (polling `is_finished` through
            // the scheduler would make the decision count — and thus a
            // virtual scheduler's RNG stream — depend on when the OS
            // publishes thread exit).
            sched.unregister();
            let mut finished_cores = Vec::with_capacity(n);
            for h in handles {
                finished_cores.extend(h.join().expect("lane thread panicked"));
            }
            for h in shard_handles {
                h.join().expect("shard thread panicked");
            }
            let exit = exit?;

            let mut extras = vec![
                ("manager_parks", exit.manager_parks),
                (
                    "core_parks",
                    sum_relaxed(lanes.hosts.iter().map(|h| &h.parks)),
                ),
            ];
            if !shardset.is_empty() {
                let shards = &shardset.shards;
                extras.push(("shards", shards.len() as u64 + 1));
                extras.push((
                    "shard_forwarded_total",
                    shardset.resume_base + sum_relaxed(shards.iter().map(|sh| &sh.forwarded)),
                ));
                extras.push((
                    "shard_parks",
                    sum_relaxed(shards.iter().map(|sh| &sh.host.parks)),
                ));
            }
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

    fn deliver_inq(&mut self) {
        while let Some(ev) = self.shared.inq.pop() {
            self.inbox.deliver(ev);
        }
    }

    /// Simulates cycle `l` and queues its events towards the manager;
    /// returns the instructions committed. Advancing the local clock is
    /// the caller's, so it can order its commit flush before the store.
    fn tick(&mut self, l: u64, outbox: &mut Vec<Timestamped<C::Event>>) -> u64 {
        self.deliver_inq();
        let c = {
            let mut ctx = TickCtx::new(Cycle::new(l), &mut self.inbox, outbox);
            self.model.tick(&mut ctx)
        };
        self.shared.outq.push_batch(outbox);
        u64::from(c)
    }
}

/// Steps a lane's cores round-robin, one cycle each per pass, until a pass
/// finds none below its limit — `run_to` when the manager gave one,
/// otherwise the core's published max local time, re-read every pass so a
/// window widened mid-burst is run out without going back to the lane
/// loop (a pending command is picked up within one window's worth of
/// ticks). One cycle per core per pass keeps the cores of a lane within a
/// cycle of each other under slack; under cycle-by-cycle the order cannot
/// matter. Returns whether any core ticked.
///
/// Commit counts accumulate locally and are flushed *before* any
/// local-clock store that brings a core to its limit, so a manager that
/// sees a core at a barrier boundary also sees every commit behind it —
/// barrier-mode finish decisions stay deterministic.
fn step_lane<C: CoreModel + Checkpointable>(
    cores: &mut [LaneCore<C>],
    run_to: Option<u64>,
    committed: &AtomicU64,
    outbox: &mut Vec<Timestamped<C::Event>>,
    sched: &dyn HostSched,
    ph: &ProfHandle,
) -> bool {
    let mut span = None;
    let mut burst: u64 = 0;
    loop {
        let mut stepped = false;
        for core in cores.iter_mut() {
            let l = core.shared.local.load(Ordering::Relaxed);
            let m = run_to.unwrap_or_else(|| core.shared.max_local.load(Ordering::Acquire));
            // Phase spans follow the window only: a run-to is part of a
            // stop-sync, which the manager traces itself.
            if l >= m {
                if run_to.is_none() {
                    core.set_running(false, l);
                }
                continue;
            }
            if span.is_none() {
                sched.point(SchedSite::CoreBurst);
                span = Some(ph.enter(ProfSite::CoreTick));
            }
            if run_to.is_none() {
                core.set_running(true, l);
            }
            burst += core.tick(l, outbox);
            if l + 1 >= m && burst > 0 {
                committed.fetch_add(burst, Ordering::Relaxed);
                burst = 0;
            }
            core.shared.local.store(l + 1, Ordering::Release);
            stepped = true;
        }
        if !stepped {
            break;
        }
    }
    if burst > 0 {
        committed.fetch_add(burst, Ordering::Relaxed);
    }
    span.is_some()
}

/// Lane-thread main loop: step the lane's cores while any is below its
/// max local time, obey manager commands, exit when the done flag rises.
///
/// Each core records Run/Wait phase spans on its own trace handle at
/// every transition between ticking and being capped by the window.
/// When every core is capped the lane waits, escalating spin → yield →
/// park; the manager unparks the thread whenever it widens one of its
/// cores' windows or sends a command. Returns the cores' models.
#[allow(clippy::too_many_arguments)]
fn lane_thread<C: CoreModel + Checkpointable>(
    lane: usize,
    mut cores: Vec<LaneCore<C>>,
    host: &HostThread,
    done: &AtomicBool,
    committed: &AtomicU64,
    cmd_rx: &Receiver<Command<C>>,
    ack_tx: &Sender<()>,
    oversubscribed: bool,
    sched: &dyn HostSched,
    ph: ProfHandle,
) -> Vec<C> {
    let virt = sched.virtualized();
    // Lanes take the core task names: a lane of one core *is* that core's
    // thread, and a virtual scheduler built for L cores drives L lanes.
    let task = sched.register(&format!("core{lane}"));
    let _ = host.task.set(task);
    let mut outbox: Vec<Timestamped<C::Event>> = Vec::new();
    let mut idle_spins = 0u32;
    // On an oversubscribed host a capped lane skips the spin tier: the
    // manager cannot widen the window until it gets the CPU this lane is
    // holding, so spinning only delays its own wake-up. Yield stays the
    // workhorse tier — futex park/unpark round trips cost more than a
    // handful of scheduler passes — with parking as the long-idle backstop.
    // Virtual schedulers pin both tiers to machine-independent depths.
    let (spin_iters, yield_iters) = if virt {
        (0u32, VIRT_YIELD_ITERS)
    } else if oversubscribed {
        (0u32, CORE_YIELD_ITERS_OVERSUB)
    } else {
        (CORE_SPIN_ITERS, CORE_YIELD_ITERS)
    };
    // Cores start frozen at max local time 0: open a Wait span immediately.
    for core in &mut cores {
        let (id, phase) = (core.id, core.phase());
        core.th
            .record(Cycle::ZERO, TraceEvent::PhaseBegin { core: id, phase });
    }

    'main: loop {
        // Control channel has priority over everything. Clear the pending
        // flag *before* polling: a flag raised after the clear but whose
        // command is missed by this poll is re-derived next iteration (the
        // send's wake guarantees this loop runs again), while a flag
        // consumed together with its command simply skips one park.
        host.cmd_pending.store(false, Ordering::Relaxed);
        match cmd_rx.try_recv() {
            Ok(mut cmd) => loop {
                match cmd {
                    Command::Stop => {}
                    Command::RunTo(target) => {
                        step_lane(&mut cores, Some(target), committed, &mut outbox, sched, &ph);
                    }
                    Command::Snapshot(since) => {
                        let _span = ph.enter(ProfSite::CheckpointCapture);
                        for (core, since) in cores.iter_mut().zip(since) {
                            core.deliver_inq();
                            let delta = core.model.capture_delta(since);
                            let capture =
                                Box::new((delta, core.inbox.clone(), core.model.generation()));
                            core.shared.snapshot.put(CoreCapture::Delta(capture));
                        }
                    }
                    Command::Rewind(bases) => {
                        // Rewind in place: only units that diverged from
                        // the base since `since` are copied back, and
                        // the base goes back to the manager untouched.
                        let _span = ph.enter(ProfSite::CheckpointRestore);
                        for (core, (base, since)) in cores.iter_mut().zip(bases) {
                            core.model.restore_from(&base.0, since);
                            core.inbox.clone_from(&base.1);
                            core.shared.snapshot.put(CoreCapture::Base(base));
                        }
                    }
                    Command::Resume => continue 'main,
                }
                ack_tx.send(()).expect("manager alive");
                // Blocked in the control sub-loop (stop-synced for a
                // checkpoint or rollback): attribute the host time to
                // the park tier so it shows up in the profile.
                let _span = ph.enter(ProfSite::CoreWaitPark);
                let Some(next) = next_command(cmd_rx, virt, sched) else {
                    break 'main;
                };
                cmd = next;
            },
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => break 'main,
        }

        if done.load(Ordering::Acquire) {
            break 'main;
        }

        if step_lane(&mut cores, None, committed, &mut outbox, sched, &ph) {
            idle_spins = 0;
            continue;
        }
        // Every core is capped: wait for the manager to widen a window.
        // Ladder: spin → yield → park (the manager unparks on every
        // publish; the timeout covers lost-wakeup races and shutdown).
        idle_spins = idle_spins.saturating_add(1);
        if idle_spins <= spin_iters {
            let _span = ph.enter(ProfSite::CoreWaitSpin);
            sched.idle_spin(SchedSite::CoreIdle);
        } else if idle_spins <= spin_iters + yield_iters {
            let _span = ph.enter(ProfSite::CoreWaitYield);
            sched.idle_yield(SchedSite::CoreIdle);
        } else {
            let _span = ph.enter(ProfSite::CoreWaitPark);
            host.park(sched, SchedSite::CoreIdle, CORE_PARK_TIMEOUT, || {
                done.load(Ordering::Relaxed)
                    || cores.iter().any(|c| {
                        c.shared.local.load(Ordering::Relaxed)
                            < c.shared.max_local.load(Ordering::Relaxed)
                    })
            });
        }
    }
    sched.unregister();
    cores
        .into_iter()
        .map(|mut core| {
            let (id, phase) = (core.id, core.phase());
            let l = core.shared.local.load(Ordering::Relaxed);
            core.th
                .record(Cycle::new(l), TraceEvent::PhaseEnd { core: id, phase });
            core.model
        })
        .collect()
}

/// Blocks for the next command from the manager: a real blocking receive
/// natively, a scheduler-visible `try_recv` poll under a virtual scheduler
/// (a blocked `recv` would hold the scheduling token forever). `None`
/// when the manager is gone.
fn next_command<T>(cmd_rx: &Receiver<T>, virt: bool, sched: &dyn HostSched) -> Option<T> {
    if !virt {
        return cmd_rx.recv().ok();
    }
    loop {
        match cmd_rx.try_recv() {
            Ok(cmd) => return Some(cmd),
            Err(TryRecvError::Empty) => sched.idle_yield(SchedSite::AwaitCmd),
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
/// scope): the driver half — ring drains, window publication, the wait
/// ladder and the stop-sync command protocol — around the kernel's verbs.
#[allow(clippy::too_many_arguments)]
fn manager_loop<C, U>(
    cfg: &EngineConfig,
    k: &mut Kernel<C, U>,
    uncore: &mut U,
    shared: &[Arc<CoreShared<C>>],
    committed: &AtomicU64,
    lanes: &LaneSet<C>,
    start_global: Cycle,
    shardset: &mut ShardSet<C>,
) -> Result<ManagerExit, EngineError>
where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    let n = shared.len();
    let sched: &dyn HostSched = &**cfg.sched.get();
    let virt = sched.virtualized();
    let ph = k.prof_handle();
    let mut gq: GlobalQueue<C::Event> = GlobalQueue::new();
    // The kernel's delivery seam: responses go into the target core's InQ.
    let deliver = |to: CoreId, ev: Timestamped<C::Event>| shared[to.index()].inq.push(ev);
    let rings = |i: usize| ring_depths(&shared[i]);

    // Persistent scratch reused every iteration: local-clock snapshots,
    // the previous iteration's snapshot for progress detection, and the
    // OutQ drain buffer. Steady state allocates nothing.
    let mut locals: Vec<Cycle> = Vec::with_capacity(n);
    let mut prev_locals: Vec<Cycle> = vec![Cycle::MAX; n];
    let mut drain_buf: Vec<Timestamped<C::Event>> = Vec::new();
    let host_threads = lanes.hosts.len() + shardset.shards.len() + 1;
    let mut backoff = Backoff::manager(host_oversubscribed(host_threads), virt);
    let idle_wait = |backoff: &mut Backoff, k: &mut Kernel<C, U>| {
        let _span = ph.enter(backoff.next_site());
        k.timed_wait(|| backoff.wait(sched, SchedSite::ManagerIdle));
    };

    let mut window_end = k.pacer.window_end(start_global);
    if !k.pacer.barrier_service() {
        window_end = window_end.min(cfg.lead_cap(start_global));
    }
    lanes.publish(shared, sched, |_| window_end);

    let (final_global, finish_reason) = loop {
        sched.point(SchedSite::ManagerLoop);
        let drained = {
            let _span = ph.enter(ProfSite::ManagerDrain);
            shardset.drain_steady(shared, &mut gq, &mut drain_buf)
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
        // The empirical slack: a lower bound on the true maximum, since
        // the manager samples the clocks asynchronously.
        k.note_spread(
            locals
                .iter()
                .copied()
                .max()
                .expect("n >= 1")
                .saturating_sub(global),
        );

        k.on_global(
            global,
            committed.load(Ordering::Relaxed),
            &locals,
            gq.len() as u64,
            rings,
        );
        if let Some(ls) = k.live() {
            for (g, sh) in ls.shard_fwd_depth.iter().zip(&shardset.shards) {
                g.store(sh.fwd.depth_hint() as u64, Ordering::Relaxed);
            }
        }

        if k.barrier() {
            // The flush gate: every core at the boundary AND every shard
            // floor at (or past) it — only then is every event below the
            // boundary guaranteed visible through the forwarding rings,
            // so the sorted barrier service stays bit-identical to the
            // sequential engine.
            if locals.iter().all(|&l| l == window_end) && shardset.flushed_to(window_end) {
                {
                    let _span = ph.enter(ProfSite::ManagerDrain);
                    shardset.drain_steady(shared, &mut gq, &mut drain_buf);
                }
                {
                    let _span = ph.enter(ProfSite::ManagerService);
                    k.service_all(&mut gq, uncore, deliver);
                }
                debug_assert!(!k.rollback_pending(), "barrier servicing cannot violate");
                let g = window_end;
                if committed.load(Ordering::Acquire) >= cfg.commit_target {
                    break (g, FinishReason::CommitTarget);
                }
                if g.as_u64() >= cfg.max_cycles {
                    break (g, FinishReason::CycleCap);
                }
                if k.checkpoint_due(g) {
                    // Cores are already aligned at the boundary with
                    // nothing in flight: capture directly.
                    shardset.pause(sched);
                    shardset.drain_forward(&mut gq);
                    {
                        let _span = ph.enter(ProfSite::CheckpointCapture);
                        lanes.stop_all(sched);
                        drain_outqs(shared, &mut gq, &mut drain_buf);
                        capture_all(k, shared, lanes, sched);
                        lanes.resume_all(sched);
                    }
                    shardset.set_floors(g);
                    shardset.resume(sched);
                    k.commit_checkpoint(
                        g,
                        committed.load(Ordering::Acquire),
                        uncore,
                        None,
                        &shardset.paused_forwarded,
                    );
                }
                window_end = if k.replaying() {
                    g + 1
                } else {
                    k.pacer.window_end(g)
                };
                lanes.publish(shared, sched, |_| window_end);
                backoff.reset();
            } else {
                // Even with the commit target already reached, barrier
                // schemes run out the published window: stopping at the
                // natural boundary keeps the finish state deterministic and
                // identical across all three engines (the batched engine
                // can only observe boundaries).
                idle_wait(&mut backoff, k);
            }
            continue;
        }

        // --- Greedy servicing -------------------------------------------
        {
            let _span = ph.enter(ProfSite::ManagerService);
            k.service_all(&mut gq, uncore, deliver);
        }

        if k.rollback_pending() {
            let _span = ph.enter(ProfSite::CheckpointRestore);
            shardset.pause(sched);
            lanes.stop_all(sched);
            // Lanes are stopped and shards paused (acks received), so the
            // manager may act as the consumer of every ring during the
            // wipe.
            gq.clear();
            for s in shared {
                s.inq.clear();
                s.outq.clear();
            }
            shardset.clear_forward();
            let now = shared
                .iter()
                .map(|s| Cycle::new(s.local.load(Ordering::Acquire)))
                .min()
                .expect("n >= 1");
            let (at, at_committed) = k.rollback_ledger(now);
            for s in shared {
                s.local.store(at.as_u64(), Ordering::Release);
            }
            // Hand each lane its cores' checkpoint bases by move; the lane
            // rewinds each core in place via `restore_from` (copying back
            // only the units that diverged) and returns the base through
            // the core's snapshot slot, so no full-model clone happens on
            // either side.
            let mut bases = k.take_bases().into_iter().map(Box::new);
            lanes.send_all(sched, |cores| {
                Command::Rewind(
                    cores
                        .map(|i| (bases.next().expect("a base per core"), k.core_gen(i)))
                        .collect(),
                )
            });
            await_acks(&lanes.ack_rxs, sched);
            k.return_bases(
                shared
                    .iter()
                    .map(|s| match s.snapshot.take().expect("base returned") {
                        CoreCapture::Base(b) => *b,
                        CoreCapture::Delta(_) => unreachable!("a rewind hands back the base"),
                    })
                    .collect(),
            );
            k.restore_uncore(uncore);
            committed.store(at_committed, Ordering::Release);
            window_end = at + 1;
            shardset.set_floors(at);
            lanes.publish(shared, sched, |_| window_end);
            lanes.resume_all(sched);
            shardset.resume(sched);
            backoff.reset();
            continue;
        }

        if committed.load(Ordering::Acquire) >= cfg.commit_target {
            break (global, FinishReason::CommitTarget);
        }
        if global.as_u64() >= cfg.max_cycles {
            break (global, FinishReason::CycleCap);
        }

        if k.checkpoint_due(global) {
            // Stop-sync all cores at a common local time ≥ the trigger.
            // The whole protocol — stop, run-to, drain, snapshot — bills
            // to the capture site; the merge and persist open their own
            // nested spans.
            let _span = ph.enter(ProfSite::CheckpointCapture);
            shardset.pause(sched);
            shardset.drain_forward(&mut gq);
            lanes.stop_all(sched);
            let stop_at = shared
                .iter()
                .map(|s| s.local.load(Ordering::Acquire))
                .max()
                .expect("n >= 1")
                .max(k.cp_trigger());
            lanes.publish(shared, sched, |_| Cycle::new(stop_at));
            lanes.send_all(sched, |_| Command::RunTo(stop_at));
            // Keep servicing while cores run up to the stop point.
            let mut acked = 0usize;
            let mut ack_iters = lanes.ack_rxs.iter().cycle();
            while acked < lanes.ack_rxs.len() {
                drain_outqs(shared, &mut gq, &mut drain_buf);
                k.service_all(&mut gq, uncore, deliver);
                let rx = ack_iters.next().expect("cycle never ends");
                if rx.try_recv().is_ok() {
                    acked += 1;
                } else if virt {
                    // Keep the poll visible to a virtual scheduler so the
                    // cores can run towards their acks.
                    sched.idle_yield(SchedSite::AwaitAck);
                }
            }
            drain_outqs(shared, &mut gq, &mut drain_buf);
            k.service_all(&mut gq, uncore, deliver);
            if k.rollback_pending() {
                // A violation surfaced during stop-sync: resume and let the
                // rollback branch at the top of the loop handle it.
                lanes.resume_all(sched);
                shardset.resume(sched);
                continue;
            }
            // Lanes are paused right after their RunTo ack: capture them.
            capture_all(k, shared, lanes, sched);
            let stop_at = Cycle::new(stop_at);
            k.commit_checkpoint(
                stop_at,
                committed.load(Ordering::Acquire),
                uncore,
                None,
                &shardset.paused_forwarded,
            );
            locals.fill(stop_at);
            shardset.set_floors(stop_at);
            window_end = publish_greedy_windows(
                &mut *k.pacer,
                shared,
                lanes,
                &locals,
                shardset.floor(&locals),
                cfg,
                sched,
            );
            lanes.resume_all(sched);
            shardset.resume(sched);
            backoff.reset();
            continue;
        }

        window_end = publish_greedy_windows(
            &mut *k.pacer,
            shared,
            lanes,
            &locals,
            shardset.floor(&locals),
            cfg,
            sched,
        );
        if !progress {
            // Nothing moved this iteration: wait instead of going
            // straight back to draining.
            idle_wait(&mut backoff, k);
        }
    };

    Ok(ManagerExit {
        global: final_global,
        reason: finish_reason,
        gq_len: gq.len() as u64,
        manager_parks: backoff.parks,
    })
}

/// Publishes windows for a greedy scheme: per-core when the pacer paces
/// against peers (Lax-P2P), uniform otherwise; both clamped by the
/// implementation lead cap. `floor` is the slack floor the windows pace
/// against — the exact global minimum under a single manager, the
/// reconciled per-shard floor under a manager tree (which also bounds
/// forwarding-ring growth: no core may lead an unforwarded event by more
/// than the window). Returns the largest published window for the
/// manager's bookkeeping.
fn publish_greedy_windows<C: CoreModel + Checkpointable>(
    pacer: &mut dyn Pacer,
    shared: &[Arc<CoreShared<C>>],
    lanes: &LaneSet<C>,
    locals: &[Cycle],
    floor: Cycle,
    cfg: &EngineConfig,
    sched: &dyn HostSched,
) -> Cycle {
    let global = floor;
    let cap = cfg.lead_cap(global);
    if let Some(wins) = pacer.window_ends(locals) {
        lanes.publish(shared, sched, |i| wins[i].min(cap));
        wins.iter().copied().max().expect("n >= 1").min(cap)
    } else {
        let w = pacer.window_end(global).min(cap);
        lanes.publish(shared, sched, |_| w);
        w
    }
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

/// Blocks until every helper thread has acknowledged the last command: a
/// real blocking receive natively, a scheduler-visible poll under a
/// virtual scheduler.
fn await_acks(ack_rxs: &[Receiver<()>], sched: &dyn HostSched) {
    let virt = sched.virtualized();
    for rx in ack_rxs {
        if !virt {
            rx.recv().expect("helper thread alive");
            continue;
        }
        loop {
            match rx.try_recv() {
                Ok(()) => break,
                Err(TryRecvError::Empty) => sched.idle_yield(SchedSite::AwaitAck),
                Err(TryRecvError::Disconnected) => panic!("helper thread alive"),
            }
        }
    }
}

/// Has every (stopped) lane capture its cores' deltas since the standing
/// checkpoint and folds the captures into the kernel's base.
fn capture_all<C, U>(
    k: &mut Kernel<C, U>,
    shared: &[Arc<CoreShared<C>>],
    lanes: &LaneSet<C>,
    sched: &dyn HostSched,
) where
    C: CoreModel + Checkpointable,
    U: UncoreModel<C::Event> + Checkpointable,
{
    lanes.send_all(sched, |cores| {
        Command::Snapshot(cores.map(|i| k.core_gen(i)).collect())
    });
    await_acks(&lanes.ack_rxs, sched);
    let ph = k.prof_handle();
    let _span = ph.enter(ProfSite::CheckpointApply);
    for (i, s) in shared.iter().enumerate() {
        match s.snapshot.take().expect("snapshot filled") {
            CoreCapture::Delta(capture) => {
                let (delta, inbox, gen) = *capture;
                k.absorb_core(i, delta, inbox, gen);
            }
            CoreCapture::Base(_) => unreachable!("a snapshot command captures a delta"),
        }
    }
}

/// Core `s`'s (OutQ, InQ) depths, from the rings' relaxed counters.
fn ring_depths<C: CoreModel + Checkpointable>(s: &CoreShared<C>) -> (u64, u64) {
    (s.outq.depth_hint() as u64, s.inq.depth_hint() as u64)
}

/// Sum of relaxed-loaded counters.
fn sum_relaxed<'a>(counters: impl Iterator<Item = &'a AtomicU64>) -> u64 {
    counters.map(|c| c.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    // The threaded engine is exercised end-to-end in the workspace
    // integration tests (tests/engines_agree.rs and friends), where it is
    // compared against the sequential engine on real CMP models. The
    // SPSC ring it is built on has its own stress suite in
    // crates/core/tests/spsc_stress.rs.
}
