//! The target core timing model: a 4-wide out-of-order core with a
//! 64-entry instruction window, lock-up-free L1 I/D caches with MSHRs, and
//! simulator-executed synchronisation — SlackSim's NetBurst-flavoured
//! modification of SimpleScalar (paper §2).
//!
//! Each call to [`CmpCore::tick`] simulates exactly one target cycle:
//!
//! 1. apply due incoming events (replies, snoops, sync releases);
//! 2. retire up to `issue_width` completed instructions in order;
//! 3. issue up to `issue_width` new instructions: ALU ops complete after
//!    their latency, loads/stores access the L1 and allocate MSHRs on
//!    misses, branches may stall the front end, and barrier/lock ops drain
//!    the window, notify the manager, and spin.

use std::collections::VecDeque;

use slacksim_core::checkpoint::{Baseline, Checkpointable};
use slacksim_core::engine::{CoreModel, TickCtx};
use slacksim_core::event::{Inbox, Timestamped};
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};
use slacksim_core::stats::Counters;
use slacksim_core::time::Cycle;

use crate::cache::{Cache, CacheDelta, LineAddr, StoreProbe};
use crate::config::{CmpConfig, CoreConfig};
use crate::event::{MemEvent, ReqId};
use crate::isa::{Instr, InstrStream, Op};
use crate::mesi::{BusOp, MesiState};

/// What the core is spinning on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Not spinning.
    Nothing,
    Barrier(u32),
    Lock(u32),
    Ifetch(ReqId),
}

slacksim_core::persist_enum!(Wait, "unknown core wait tag" {
    0 => Nothing,
    1 => Barrier(id),
    2 => Lock(id),
    3 => Ifetch(req),
});

/// The in-flight instruction window. Entry ids are consecutive — the
/// pipeline hands them out in order and retires them in order — so the
/// window holds the oldest id and each entry's completion cycle, and an
/// id finds its entry by subtraction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Window {
    /// Id of the oldest entry: `front + len` is always the pipeline's
    /// next entry id.
    front: u64,
    /// Completion cycles, oldest first; [`Window::WAITING`] while an entry
    /// waits on a memory reply.
    done: VecDeque<u64>,
}

impl Window {
    /// The completion cycle of an entry still waiting on memory.
    const WAITING: u64 = u64::MAX;

    fn len(&self) -> usize {
        self.done.len()
    }

    fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The head entry's completion cycle; [`Window::WAITING`] when it has
    /// none or the window is empty.
    #[inline]
    fn head_ready(&self) -> u64 {
        self.done.front().copied().unwrap_or(Self::WAITING)
    }

    /// Appends the successor of the newest entry.
    #[inline]
    fn push_back(&mut self, done_at: Option<Cycle>) {
        self.done
            .push_back(done_at.map_or(Self::WAITING, Cycle::as_u64));
    }

    #[inline]
    fn pop_front(&mut self) {
        self.done.pop_front();
        self.front += 1;
    }

    /// Records entry `id`'s completion; no-op when it is not in flight.
    #[inline]
    fn mark_done(&mut self, id: u64, at: Cycle) {
        let slot = id
            .checked_sub(self.front)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| self.done.get_mut(i));
        if let Some(done) = slot {
            *done = at.as_u64();
        }
    }
}

/// The `(id, completion)` pairs, oldest first, as a sequence; loading
/// refuses ids that are not consecutive.
impl Persist for Window {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.done.len() as u32);
        for (id, &done) in (self.front..).zip(&self.done) {
            w.u64(id);
            (done != Self::WAITING).then(|| Cycle::new(done)).save(w);
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let mut window = Window {
            front: 0,
            done: VecDeque::new(),
        };
        for _ in 0..r.u32()? {
            let id = r.u64()?;
            let done_at = Option::<Cycle>::load(r)?;
            if window.is_empty() {
                window.front = id;
            } else if window.front.checked_add(window.len() as u64) != Some(id) {
                return Err(PersistError::Corrupt(
                    "window entry ids are not consecutive",
                ));
            }
            if done_at.is_some_and(|d| d.as_u64() == Self::WAITING) {
                return Err(PersistError::Corrupt(
                    "window completion cycle out of range",
                ));
            }
            window.push_back(done_at);
        }
        Ok(window)
    }
}

/// Window entries waiting on one miss, in issue order. The first
/// [`Waiters::INLINE`] ids live in the MSHR itself — as many as the
/// paper's workloads ever coalesce onto one line — so the request path
/// allocates nothing; a longer list (at most `cfg.window` entries, each
/// waiter being a distinct in-flight instruction) spills to the heap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Waiters {
    /// Ids held in `inline`; slots past it stay zero, so derived equality
    /// is equality of the lists.
    inline_len: u8,
    inline: [u64; Waiters::INLINE],
    spill: Vec<u64>,
}

impl Waiters {
    const INLINE: usize = 4;

    fn push(&mut self, id: u64) {
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(slot) => {
                *slot = id;
                self.inline_len += 1;
            }
            None => self.spill.push(id),
        }
    }

    fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.len()
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let inline = &self.inline[..usize::from(self.inline_len)];
        inline.iter().chain(&self.spill).copied()
    }
}

impl FromIterator<u64> for Waiters {
    fn from_iter<I: IntoIterator<Item = u64>>(ids: I) -> Self {
        let mut waiters = Waiters::default();
        ids.into_iter().for_each(|id| waiters.push(id));
        waiters
    }
}

/// The ids, as a sequence.
impl Persist for Waiters {
    fn save(&self, w: &mut ByteWriter) {
        w.u32(self.len() as u32);
        self.iter().for_each(|id| w.u64(id));
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        (0..r.u32()?).map(|_| r.u64()).collect()
    }
}

/// One outstanding L1 miss.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Mshr {
    req: ReqId,
    line: LineAddr,
    op: BusOp,
    ifetch: bool,
    waiters: Waiters,
}

slacksim_core::persist_fields! { Mshr { req, line, op, ifetch, waiters } }

/// The hot per-core scalars: the state the quantum-compiled stepping loop
/// reads and writes every simulated cycle, split out of the cold bulk
/// (caches, MSHRs, window contents, event plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreHot {
    /// Cycles simulated so far (the core's local clock).
    pub cycles: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Instructions drawn from the workload stream so far (the next-fetch
    /// cursor; streams are deterministic per seed, so this cursor lets a
    /// persisted core rebuild its exact stream position by replaying a
    /// fresh stream forward).
    pub fetched: u64,
    /// Front-end stall deadline after a branch mispredict.
    pub fetch_stall_until: Cycle,
}

/// Declares the core's event counters: the struct, its byte form, and
/// its report under the field names.
macro_rules! core_stats {
    ($($name:ident),+ $(,)?) => {
        /// The core's event counters (the always-hot cycle and commit
        /// counters live in [`CoreHot`]).
        #[derive(Debug, Clone, Copy, Default)]
        struct CoreStats {
            $($name: u64),+
        }

        slacksim_core::persist_fields! { CoreStats { $($name),+ } }

        impl CoreStats {
            fn report(&self, c: &mut Counters) {
                $(c.set(stringify!($name), self.$name);)+
            }
        }
    };
}

core_stats!(
    loads,
    stores,
    branches,
    mispredicts,
    barriers,
    lock_acquires,
    lock_releases,
    l1d_hits,
    l1d_misses,
    l1d_miss_coalesced,
    l1i_hits,
    l1i_misses,
    writebacks,
    invalidations_received,
    downgrades_received,
    stall_window,
    stall_mshr,
    stall_sync,
    stall_fetch,
);

/// Everything a core holds besides its L1s: the workload position, the
/// pipeline and the statistics. The pipeline moves every simulated cycle,
/// so a delta carries this block whole — it is small (a window of a few
/// dozen entries, a handful of MSHRs, the stream cursor) next to the
/// caches the dirty tracking avoids copying — and a restore assigns it.
#[derive(Clone)]
struct Pipeline {
    stream: Box<dyn InstrStream>,
    /// Instructions drawn from `stream` but not yet fetched, from
    /// `block[block_pos]` on: the stream is called once per block.
    /// Cloned with the stream, never persisted — `hot.fetched` counts
    /// only what left the block.
    block: [Instr; Pipeline::BLOCK],
    block_pos: u8,
    /// The per-cycle hot scalars (local clock, commit counter, next-fetch
    /// cursor, front-end stall deadline).
    hot: CoreHot,
    pending: Option<Instr>,
    window: Window,
    mshrs: Vec<Mshr>,
    next_entry_id: u64,
    next_req: ReqId,
    wait: Wait,
    stats: CoreStats,
}

/// The simulated target core (pipeline + L1 caches + workload stream).
///
/// # Examples
///
/// ```
/// use slacksim_cmp::config::CmpConfig;
/// use slacksim_cmp::core::CmpCore;
/// use slacksim_cmp::isa::{LoopStream, Op};
///
/// let cfg = CmpConfig::paper();
/// let stream = Box::new(LoopStream::new(vec![Op::IntAlu, Op::Load { addr: 0x100 }]));
/// let core = CmpCore::new(&cfg.core, stream);
/// assert_eq!(slacksim_core::engine::CoreModel::committed(&core), 0);
/// ```
#[derive(Clone)]
pub struct CmpCore {
    cfg: CoreConfig,
    l1i: Cache,
    l1d: Cache,
    pipe: Pipeline,
    /// The two L1s' generations at the last capture.
    cp: Baseline<[u64; 2]>,
    /// Scratch for the events one cycle emits, kept for its capacity so an
    /// emitting cycle allocates nothing. Always empty between calls: not
    /// model state, so clones, deltas and snapshots ignore it.
    outbox: Vec<MemEvent>,
}

// The instruction stream is not stored: it is a pure function of the
// workload configuration, so loading replays a fresh stream to the stored
// cursor (`fetched`) once everything else has loaded.
slacksim_core::persist_walk! {
    CmpCore, |c| c.pipe.hot.fetched, c.pipe.pending, c.pipe.window, c.pipe.mshrs,
    c.l1i, c.l1d, c.pipe.next_entry_id, c.pipe.next_req, c.pipe.wait,
    c.pipe.hot.fetch_stall_until, c.pipe.hot.cycles, c.pipe.hot.committed, c.pipe.stats;
    then c.resume_stream()
}

/// Incremental state carrier for a [`CmpCore`]: dirty-set deltas for the
/// two L1s plus the pipeline block.
#[derive(Clone)]
pub struct CmpCoreDelta {
    l1i: CacheDelta,
    l1d: CacheDelta,
    pipe: Pipeline,
}

impl CmpCoreDelta {
    /// Dirty L1 sets carried (instruction + data).
    pub fn l1_dirty_sets(&self) -> usize {
        self.l1i.dirty_sets() + self.l1d.dirty_sets()
    }
}

impl std::fmt::Debug for CmpCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpCore")
            .field("cycles", &self.pipe.hot.cycles)
            .field("committed", &self.pipe.hot.committed)
            .field("window", &self.pipe.window.len())
            .field("mshrs", &self.pipe.mshrs.len())
            .field("wait", &self.pipe.wait)
            .finish_non_exhaustive()
    }
}

impl CmpCore {
    /// Creates a core with empty caches positioned at the start of
    /// `stream`.
    pub fn new(cfg: &CoreConfig, stream: Box<dyn InstrStream>) -> Self {
        CmpCore {
            cfg: *cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            pipe: Pipeline {
                stream,
                block: [Instr::new(Op::IntAlu, 0); Pipeline::BLOCK],
                block_pos: Pipeline::BLOCK as u8,
                hot: CoreHot::default(),
                pending: None,
                window: Window {
                    front: 0,
                    done: VecDeque::with_capacity(cfg.window),
                },
                mshrs: Vec::with_capacity(cfg.mshrs),
                next_entry_id: 0,
                next_req: 0,
                wait: Wait::Nothing,
                stats: CoreStats::default(),
            },
            cp: Baseline::default(),
            outbox: Vec::new(),
        }
    }

    /// Builds one core per target core of `cfg`, using `make_stream` to
    /// produce each core's instruction stream.
    pub fn build_cmp(
        cfg: &CmpConfig,
        mut make_stream: impl FnMut(usize) -> Box<dyn InstrStream>,
    ) -> Vec<CmpCore> {
        (0..cfg.cores)
            .map(|i| CmpCore::new(&cfg.core, make_stream(i)))
            .collect()
    }

    fn l1_gens(&self) -> [u64; 2] {
        [self.l1i.generation(), self.l1d.generation()]
    }

    /// After a load: checks what the pipeline read against this core's
    /// configuration, then fast-forwards the stream — still at position
    /// zero, streams being deterministic per seed — to the loaded cursor.
    /// Every instruction drawn is committed, in the window or pending,
    /// which bounds the replay by what the bytes hold.
    fn resume_stream(&mut self) -> Result<(), PersistError> {
        let pipe = &mut self.pipe;
        if pipe.window.len() > self.cfg.window {
            return Err(PersistError::Corrupt("window holds more entries than fit"));
        }
        // The window's ids end where the next entry's begins.
        match pipe.next_entry_id.checked_sub(pipe.window.len() as u64) {
            Some(front) if pipe.window.is_empty() || front == pipe.window.front => {
                pipe.window.front = front;
            }
            _ => {
                return Err(PersistError::Corrupt(
                    "window entry ids disagree with the next entry id",
                ))
            }
        }
        if pipe.mshrs.len() > self.cfg.mshrs {
            return Err(PersistError::Corrupt("more MSHRs than the core has"));
        }
        if pipe.mshrs.iter().any(|m| m.waiters.len() > self.cfg.window) {
            return Err(PersistError::Corrupt(
                "more miss waiters than the window has entries",
            ));
        }
        let in_flight = pipe.window.len() as u64 + u64::from(pipe.pending.is_some());
        if pipe.hot.committed.checked_add(in_flight) != Some(pipe.hot.fetched) {
            return Err(PersistError::Corrupt(
                "stream cursor disagrees with the instructions drawn",
            ));
        }
        for _ in 0..pipe.hot.fetched {
            let _ = pipe.stream.next_instr();
        }
        Ok(())
    }
}

impl Pipeline {
    /// Instructions drawn from the stream per call.
    const BLOCK: usize = 16;

    fn peek(&mut self) -> Instr {
        if let Some(instr) = self.pending {
            return instr;
        }
        if usize::from(self.block_pos) == Self::BLOCK {
            self.stream.fill(&mut self.block);
            self.block_pos = 0;
        }
        let instr = self.block[usize::from(self.block_pos)];
        self.block_pos += 1;
        self.pending = Some(instr);
        self.hot.fetched += 1;
        instr
    }

    fn consume(&mut self) {
        self.pending = None;
    }

    fn alloc_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        r
    }

    fn push_entry(&mut self, done_at: Option<Cycle>) -> u64 {
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        debug_assert_eq!(id, self.window.front + self.window.len() as u64);
        self.window.push_back(done_at);
        id
    }
}

impl CmpCore {
    fn handle_event(&mut self, ev: MemEvent, now: Cycle, outbox: &mut Vec<MemEvent>) {
        match ev {
            MemEvent::Reply { req, line, grant } => {
                let Some(pos) = self.pipe.mshrs.iter().position(|m| m.req == req) else {
                    debug_assert!(false, "reply for unknown request {req}");
                    return;
                };
                let mshr = self.pipe.mshrs.swap_remove(pos);
                debug_assert_eq!(mshr.line, line, "reply line mismatch");
                if mshr.ifetch {
                    // I-lines are read-shared; victims are never dirty.
                    self.l1i.fill(line, grant);
                    if self.pipe.wait == Wait::Ifetch(req) {
                        self.pipe.wait = Wait::Nothing;
                    }
                } else {
                    if let Some((victim, state)) = self.l1d.fill(line, grant) {
                        if state.dirty() {
                            self.pipe.stats.writebacks += 1;
                            outbox.push(MemEvent::Writeback { line: victim });
                        }
                    }
                    for waiter in mshr.waiters.iter() {
                        self.pipe.window.mark_done(waiter, now);
                    }
                }
            }
            MemEvent::Invalidate { line } => {
                self.pipe.stats.invalidations_received += 1;
                self.l1d.invalidate(line);
            }
            MemEvent::Downgrade { line } => {
                self.pipe.stats.downgrades_received += 1;
                self.l1d.set_state(line, MesiState::Shared);
            }
            MemEvent::BarrierRelease { id } => {
                if self.pipe.wait == Wait::Barrier(id) {
                    self.pipe.wait = Wait::Nothing;
                }
            }
            MemEvent::LockGranted { id } => {
                if self.pipe.wait == Wait::Lock(id) {
                    self.pipe.wait = Wait::Nothing;
                }
            }
            req @ (MemEvent::Request { .. }
            | MemEvent::Writeback { .. }
            | MemEvent::BarrierArrive { .. }
            | MemEvent::LockAcquire { .. }
            | MemEvent::LockRelease { .. }) => {
                debug_assert!(false, "manager delivered a core-direction event: {req:?}");
            }
        }
    }

    /// Classifies whether a pending data MSHR for `line` can absorb a new
    /// access that does (`need_ownership`) or does not need an M grant.
    fn coalescable_mshr(&self, line: LineAddr, need_ownership: bool) -> CoalesceResult {
        match self.pipe.mshrs.iter().find(|m| m.line == line && !m.ifetch) {
            Some(m) if !need_ownership || matches!(m.op, BusOp::RdX | BusOp::Upgr) => {
                CoalesceResult::Join
            }
            Some(_) => CoalesceResult::Conflict,
            None => CoalesceResult::Absent,
        }
    }

    fn issue(&mut self, now: Cycle, outbox: &mut Vec<MemEvent>) -> u32 {
        let mut issued = 0u32;
        let mut committed_now = 0u32;
        let width = self.cfg.issue_width;
        let line_bytes = self.cfg.l1d.line_bytes;
        let iline_bytes = self.cfg.l1i.line_bytes;
        // Same-I-line fast path, valid only within this call: consecutive
        // instructions overwhelmingly fetch from one cache line, and the
        // L1I cannot change between issue slots (fills happen only in
        // `handle_event`), so after the first probe the line stays MRU and
        // a re-probe is just the counters.
        let mut probed_iline: Option<LineAddr> = None;

        while issued < width {
            if self.pipe.window.len() >= self.cfg.window {
                self.pipe.stats.stall_window += 1;
                break;
            }
            let instr = self.pipe.peek();

            // Instruction fetch.
            let iline = LineAddr::from_byte_addr(instr.pc, iline_bytes);
            if probed_iline == Some(iline) {
                self.pipe.stats.l1i_hits += 1;
                self.l1i.reprobe_mru(iline);
            } else if self.l1i.probe_if_resident(iline).is_some() {
                self.pipe.stats.l1i_hits += 1;
                probed_iline = Some(iline);
            } else {
                self.pipe.stats.l1i_misses += 1;
                if self.pipe.mshrs.len() < self.cfg.mshrs {
                    let req = self.pipe.alloc_req();
                    self.pipe.mshrs.push(Mshr {
                        req,
                        line: iline,
                        op: BusOp::Rd,
                        ifetch: true,
                        waiters: Waiters::default(),
                    });
                    outbox.push(MemEvent::Request {
                        op: BusOp::Rd,
                        line: iline,
                        req,
                        ifetch: true,
                    });
                    self.pipe.wait = Wait::Ifetch(req);
                } else {
                    self.pipe.stats.stall_mshr += 1;
                }
                self.pipe.stats.stall_fetch += 1;
                break;
            }

            match instr.op {
                Op::IntAlu => {
                    let lat = self.cfg.int_latency;
                    self.pipe.push_entry(Some(now + lat));
                    self.pipe.consume();
                    issued += 1;
                }
                Op::IntMul => {
                    let lat = self.cfg.mul_latency;
                    self.pipe.push_entry(Some(now + lat));
                    self.pipe.consume();
                    issued += 1;
                }
                Op::IntDiv => {
                    let lat = self.cfg.div_latency;
                    self.pipe.push_entry(Some(now + lat));
                    self.pipe.consume();
                    issued += 1;
                }
                Op::FpAlu => {
                    let lat = self.cfg.fp_latency;
                    self.pipe.push_entry(Some(now + lat));
                    self.pipe.consume();
                    issued += 1;
                }
                Op::FpMul => {
                    let lat = self.cfg.fp_mul_latency;
                    self.pipe.push_entry(Some(now + lat));
                    self.pipe.consume();
                    issued += 1;
                }
                Op::Branch { mispredict } => {
                    self.pipe.stats.branches += 1;
                    let lat = self.cfg.int_latency;
                    self.pipe.push_entry(Some(now + lat));
                    self.pipe.consume();
                    issued += 1;
                    if mispredict {
                        self.pipe.stats.mispredicts += 1;
                        self.pipe.hot.fetch_stall_until = now + self.cfg.mispredict_penalty;
                        break;
                    }
                }
                Op::Load { addr } => {
                    let line = LineAddr::from_byte_addr(addr, line_bytes);
                    if self.l1d.probe_if_resident(line).is_some() {
                        self.pipe.stats.l1d_hits += 1;
                        let lat = self.cfg.l1_hit_latency;
                        self.pipe.push_entry(Some(now + lat));
                        self.pipe.stats.loads += 1;
                        self.pipe.consume();
                        issued += 1;
                    } else {
                        match self.coalescable_mshr(line, false) {
                            CoalesceResult::Join => {
                                self.pipe.stats.l1d_miss_coalesced += 1;
                                self.pipe.stats.loads += 1;
                                let id = self.pipe.push_entry(None);
                                self.pipe
                                    .mshrs
                                    .iter_mut()
                                    .find(|m| m.line == line && !m.ifetch)
                                    .expect("mshr just found")
                                    .waiters
                                    .push(id);
                                self.pipe.consume();
                                issued += 1;
                            }
                            CoalesceResult::Conflict => unreachable!("loads join any data MSHR"),
                            CoalesceResult::Absent => {
                                if self.pipe.mshrs.len() < self.cfg.mshrs {
                                    self.pipe.stats.l1d_misses += 1;
                                    self.pipe.stats.loads += 1;
                                    let req = self.pipe.alloc_req();
                                    let id = self.pipe.push_entry(None);
                                    self.pipe.mshrs.push(Mshr {
                                        req,
                                        line,
                                        op: BusOp::Rd,
                                        ifetch: false,
                                        waiters: Waiters::from_iter([id]),
                                    });
                                    outbox.push(MemEvent::Request {
                                        op: BusOp::Rd,
                                        line,
                                        req,
                                        ifetch: false,
                                    });
                                    self.pipe.consume();
                                    issued += 1;
                                } else {
                                    self.pipe.stats.stall_mshr += 1;
                                    break;
                                }
                            }
                        }
                    }
                }
                Op::Store { addr } => {
                    let line = LineAddr::from_byte_addr(addr, line_bytes);
                    match self.l1d.probe_writable_modify(line) {
                        StoreProbe::Written => {
                            self.pipe.stats.l1d_hits += 1;
                            let lat = self.cfg.l1_hit_latency;
                            self.pipe.push_entry(Some(now + lat));
                            self.pipe.stats.stores += 1;
                            self.pipe.consume();
                            issued += 1;
                        }
                        miss => {
                            // Shared (upgrade) or absent (read-for-ownership).
                            let op = if miss == StoreProbe::NeedsUpgrade {
                                BusOp::Upgr
                            } else {
                                BusOp::RdX
                            };
                            match self.coalescable_mshr(line, true) {
                                CoalesceResult::Join => {
                                    self.pipe.stats.l1d_miss_coalesced += 1;
                                    self.pipe.stats.stores += 1;
                                    let id = self.pipe.push_entry(None);
                                    self.pipe
                                        .mshrs
                                        .iter_mut()
                                        .find(|m| m.line == line && !m.ifetch)
                                        .expect("mshr just found")
                                        .waiters
                                        .push(id);
                                    self.pipe.consume();
                                    issued += 1;
                                }
                                CoalesceResult::Conflict => {
                                    // A read miss is in flight; the store must
                                    // wait for it to resolve before upgrading.
                                    self.pipe.stats.stall_mshr += 1;
                                    break;
                                }
                                CoalesceResult::Absent => {
                                    if self.pipe.mshrs.len() < self.cfg.mshrs {
                                        self.pipe.stats.l1d_misses += 1;
                                        self.pipe.stats.stores += 1;
                                        let req = self.pipe.alloc_req();
                                        let id = self.pipe.push_entry(None);
                                        self.pipe.mshrs.push(Mshr {
                                            req,
                                            line,
                                            op,
                                            ifetch: false,
                                            waiters: Waiters::from_iter([id]),
                                        });
                                        outbox.push(MemEvent::Request {
                                            op,
                                            line,
                                            req,
                                            ifetch: false,
                                        });
                                        self.pipe.consume();
                                        issued += 1;
                                    } else {
                                        self.pipe.stats.stall_mshr += 1;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                Op::Barrier { id } => {
                    if !self.pipe.window.is_empty() {
                        break; // drain before synchronising
                    }
                    self.pipe.stats.barriers += 1;
                    self.pipe.hot.committed += 1;
                    committed_now += 1;
                    outbox.push(MemEvent::BarrierArrive { id });
                    self.pipe.wait = Wait::Barrier(id);
                    self.pipe.consume();
                    break;
                }
                Op::LockAcquire { id } => {
                    if !self.pipe.window.is_empty() {
                        break;
                    }
                    self.pipe.stats.lock_acquires += 1;
                    self.pipe.hot.committed += 1;
                    committed_now += 1;
                    outbox.push(MemEvent::LockAcquire { id });
                    self.pipe.wait = Wait::Lock(id);
                    self.pipe.consume();
                    break;
                }
                Op::LockRelease { id } => {
                    self.pipe.stats.lock_releases += 1;
                    self.pipe.hot.committed += 1;
                    committed_now += 1;
                    outbox.push(MemEvent::LockRelease { id });
                    self.pipe.consume();
                    issued += 1;
                }
            }
        }
        committed_now
    }

    /// The per-cycle back half shared by [`tick`](CoreModel::tick) and the
    /// quantum-compiled [`run_window`](CoreModel::run_window): retire up
    /// to `issue_width` completed instructions in order, then either
    /// charge the cycle to a stall counter or issue. Event application and
    /// the cycle counter are the caller's (they differ between the two
    /// entry points).
    #[inline]
    fn retire_and_issue(&mut self, now: Cycle, outbox: &mut Vec<MemEvent>) -> u32 {
        let mut committed_now = 0u32;
        while committed_now < self.cfg.issue_width {
            if self.pipe.window.head_ready() > now.as_u64() {
                break;
            }
            self.pipe.window.pop_front();
            self.pipe.hot.committed += 1;
            committed_now += 1;
        }

        if self.pipe.wait != Wait::Nothing {
            self.pipe.stats.stall_sync += 1;
        } else if self.pipe.hot.fetch_stall_until > now {
            self.pipe.stats.stall_fetch += 1;
        } else {
            committed_now += self.issue(now, outbox);
        }
        committed_now
    }
}

/// Which stall counter a bulk-skipped region charges.
enum StallKind {
    Sync,
    Fetch,
    Window,
}

/// Outcome of looking for an MSHR to coalesce into.
enum CoalesceResult {
    /// A compatible MSHR exists; callers re-find and join it.
    Join,
    /// An MSHR for the line exists but its grant is too weak.
    Conflict,
    /// No MSHR covers the line.
    Absent,
}

impl Checkpointable for CmpCore {
    type Delta = CmpCoreDelta;

    fn generation(&self) -> u64 {
        Baseline::token(&self.l1_gens())
    }

    fn capture_delta(&mut self, since_gen: u64) -> CmpCoreDelta {
        let [i, d] = self.cp.resolve(since_gen, self.l1_gens());
        let delta = CmpCoreDelta {
            l1i: self.l1i.capture_delta(i),
            l1d: self.l1d.capture_delta(d),
            pipe: self.pipe.clone(),
        };
        self.cp.record(self.l1_gens());
        delta
    }

    fn apply_delta(&mut self, delta: CmpCoreDelta) {
        self.l1i.apply_delta(delta.l1i);
        self.l1d.apply_delta(delta.l1d);
        self.pipe = delta.pipe;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let [i, d] = self.cp.resolve(since_gen, self.l1_gens());
        self.l1i.restore_from(&base.l1i, i);
        self.l1d.restore_from(&base.l1d, d);
        self.pipe.clone_from(&base.pipe);
    }
}

impl CoreModel for CmpCore {
    type Event = MemEvent;

    fn tick(&mut self, ctx: &mut TickCtx<'_, MemEvent>) -> u32 {
        let now = ctx.now();
        self.pipe.hot.cycles += 1;
        let mut outbox = std::mem::take(&mut self.outbox);

        // 1. Apply due events.
        while let Some(ev) = ctx.pop_event() {
            self.handle_event(ev.payload, now, &mut outbox);
        }

        // 2. Retire, 3. issue (shared with `run_window`).
        let committed_now = self.retire_and_issue(now, &mut outbox);

        for ev in outbox.drain(..) {
            ctx.emit(ev);
        }
        self.outbox = outbox;
        committed_now
    }

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<MemEvent>,
        staged: &mut Vec<Timestamped<MemEvent>>,
    ) -> u64 {
        let start_committed = self.pipe.hot.committed;
        let mut now = from;
        // Almost every cycle emits nothing, and the ones that do drain
        // straight into the staging buffer.
        let mut outbox = std::mem::take(&mut self.outbox);
        // The inbox is exclusively borrowed for the entire window, so its
        // contents only shrink as this loop pops: the next due timestamp
        // is a loop variable, not a per-cycle queue peek. Between due
        // timestamps the core runs in event-free segments with no queue
        // checks at all — the quantum-compiled inner loop.
        let mut next_due = inbox.peek_ts().map_or(u64::MAX, |t| t.as_u64());
        while now < to {
            if next_due <= now.as_u64() {
                // Cycle with incoming events: full step, then refresh the
                // due horizon.
                self.pipe.hot.cycles += 1;
                while let Some(ev) = inbox.pop_due(now) {
                    self.handle_event(ev.payload, now, &mut outbox);
                }
                next_due = inbox.peek_ts().map_or(u64::MAX, |t| t.as_u64());
                let _ = self.retire_and_issue(now, &mut outbox);
                if !outbox.is_empty() {
                    for ev in outbox.drain(..) {
                        staged.push(Timestamped::new(now, ev));
                    }
                }
                now += 1;
                continue;
            }
            // Event-free segment: run every cycle in [now, seg_end)
            // without touching the inbox.
            let seg_end = to.as_u64().min(next_due);
            while now.as_u64() < seg_end {
                // Fast-forward across stall regions. A cycle can be
                // accounted in bulk exactly when tick() would change
                // nothing but the local clock and one stall counter: no
                // incoming event is due, the window head cannot retire,
                // and the front end is blocked (sync spin, mispredict
                // stall, or a full window). Every other cycle runs the
                // real pipeline.
                let head_ready = self.pipe.window.head_ready();
                if head_ready > now.as_u64() {
                    let bound = seg_end.min(head_ready);
                    let stop = if self.pipe.wait != Wait::Nothing {
                        Some((bound, StallKind::Sync))
                    } else if self.pipe.hot.fetch_stall_until > now {
                        // The stall ends *at* the deadline cycle, which
                        // must run the pipeline again.
                        Some((
                            bound.min(self.pipe.hot.fetch_stall_until.as_u64()),
                            StallKind::Fetch,
                        ))
                    } else if self.pipe.window.len() >= self.cfg.window {
                        Some((bound, StallKind::Window))
                    } else {
                        None
                    };
                    if let Some((stop, kind)) = stop {
                        if stop > now.as_u64() {
                            let skipped = stop - now.as_u64();
                            self.pipe.hot.cycles += skipped;
                            match kind {
                                StallKind::Sync => self.pipe.stats.stall_sync += skipped,
                                StallKind::Fetch => self.pipe.stats.stall_fetch += skipped,
                                StallKind::Window => self.pipe.stats.stall_window += skipped,
                            }
                            now = Cycle::new(stop);
                            continue;
                        }
                    }
                }
                self.pipe.hot.cycles += 1;
                let _ = self.retire_and_issue(now, &mut outbox);
                if !outbox.is_empty() {
                    for ev in outbox.drain(..) {
                        staged.push(Timestamped::new(now, ev));
                    }
                }
                now += 1;
            }
        }
        self.outbox = outbox;
        self.pipe.hot.committed - start_committed
    }

    fn committed(&self) -> u64 {
        self.pipe.hot.committed
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("cycles", self.pipe.hot.cycles);
        c.set("committed", self.pipe.hot.committed);
        self.pipe.stats.report(&mut c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LoopStream;
    use slacksim_core::event::{Inbox, Timestamped};

    fn core_with(ops: Vec<Op>) -> CmpCore {
        CmpCore::new(&CoreConfig::default(), Box::new(LoopStream::new(ops)))
    }

    /// Drives one tick, returning (committed, emitted events).
    fn tick_at(core: &mut CmpCore, inbox: &mut Inbox<MemEvent>, t: u64) -> (u32, Vec<MemEvent>) {
        let mut out = Vec::new();
        let mut ctx = TickCtx::new(Cycle::new(t), inbox, &mut out);
        let c = core.tick(&mut ctx);
        (c, out.into_iter().map(|e| e.payload).collect())
    }

    /// Runs `n` ticks with no incoming events.
    fn run_ticks(core: &mut CmpCore, n: u64) -> Vec<MemEvent> {
        let mut inbox = Inbox::new();
        let mut all = Vec::new();
        for t in 0..n {
            let (_, evs) = tick_at(core, &mut inbox, t);
            all.extend(evs);
        }
        all
    }

    #[test]
    fn first_tick_misses_the_icache() {
        let mut core = core_with(vec![Op::IntAlu]);
        let evs = run_ticks(&mut core, 1);
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0],
            MemEvent::Request {
                op: BusOp::Rd,
                ifetch: true,
                ..
            }
        ));
        assert_eq!(core.pipe.hot.committed, 0);
    }

    /// Satisfies the initial I-fetch miss so issue can begin.
    fn prime_icache(core: &mut CmpCore, inbox: &mut Inbox<MemEvent>) {
        let (_, evs) = tick_at(core, inbox, 0);
        let MemEvent::Request { req, line, .. } = evs[0] else {
            panic!("expected ifetch request");
        };
        inbox.deliver(Timestamped::new(
            Cycle::new(1),
            MemEvent::Reply {
                req,
                line,
                grant: MesiState::Shared,
            },
        ));
    }

    #[test]
    fn alu_stream_reaches_ipc_limit() {
        let mut core = core_with(vec![Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        for t in 1..200 {
            tick_at(&mut core, &mut inbox, t);
        }
        // 4-wide issue of 1-cycle ops: IPC must approach 4.
        let ipc = core.pipe.hot.committed as f64 / 200.0;
        assert!(ipc > 3.0, "IPC {ipc} too low for an ALU-only stream");
    }

    #[test]
    fn load_miss_allocates_mshr_and_requests_rd() {
        let mut core = core_with(vec![Op::Load { addr: 0x8000 }, Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        let rd: Vec<_> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    MemEvent::Request {
                        op: BusOp::Rd,
                        ifetch: false,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(rd.len(), 1, "one Rd for the load miss, got {evs:?}");
        assert_eq!(core.pipe.stats.l1d_misses, 1);
    }

    #[test]
    fn load_reply_completes_and_line_hits_afterwards() {
        let mut core = core_with(vec![Op::Load { addr: 0x8000 }]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        let (req, line) = evs
            .iter()
            .find_map(|e| match e {
                MemEvent::Request {
                    req,
                    line,
                    ifetch: false,
                    ..
                } => Some((*req, *line)),
                _ => None,
            })
            .expect("load request");
        inbox.deliver(Timestamped::new(
            Cycle::new(10),
            MemEvent::Reply {
                req,
                line,
                grant: MesiState::Exclusive,
            },
        ));
        let before = core.pipe.hot.committed;
        for t in 2..40 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert!(core.pipe.hot.committed > before);
        // Subsequent loads to the same line hit.
        assert!(core.pipe.stats.l1d_hits > 0);
    }

    #[test]
    fn store_to_shared_line_upgrades() {
        let mut core = core_with(vec![Op::Store { addr: 0x8000 }]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        // Pre-install the line in S.
        core.l1d
            .fill(LineAddr::from_byte_addr(0x8000, 32), MesiState::Shared);
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        assert!(
            evs.iter().any(|e| matches!(
                e,
                MemEvent::Request {
                    op: BusOp::Upgr,
                    ..
                }
            )),
            "store to S must issue BusUpgr, got {evs:?}"
        );
    }

    #[test]
    fn store_to_exclusive_line_hits_silently() {
        let mut core = core_with(vec![Op::Store { addr: 0x8000 }, Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let line = LineAddr::from_byte_addr(0x8000, 32);
        core.l1d.fill(line, MesiState::Exclusive);
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        assert!(
            !evs.iter().any(|e| e.uses_bus()),
            "store to E needs no bus transaction"
        );
        assert_eq!(core.l1d.peek(line), Some(MesiState::Modified));
    }

    #[test]
    fn invalidate_drops_the_line() {
        let mut core = core_with(vec![Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let line = LineAddr::new(0x999);
        core.l1d.fill(line, MesiState::Modified);
        inbox.deliver(Timestamped::new(
            Cycle::new(1),
            MemEvent::Invalidate { line },
        ));
        tick_at(&mut core, &mut inbox, 1);
        assert_eq!(core.l1d.peek(line), None);
        assert_eq!(core.pipe.stats.invalidations_received, 1);
    }

    #[test]
    fn downgrade_demotes_to_shared() {
        let mut core = core_with(vec![Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let line = LineAddr::new(0x999);
        core.l1d.fill(line, MesiState::Modified);
        inbox.deliver(Timestamped::new(
            Cycle::new(1),
            MemEvent::Downgrade { line },
        ));
        tick_at(&mut core, &mut inbox, 1);
        assert_eq!(core.l1d.peek(line), Some(MesiState::Shared));
    }

    #[test]
    fn barrier_drains_window_then_spins() {
        let mut core = core_with(vec![Op::IntAlu, Op::Barrier { id: 0 }, Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let mut arrive = None;
        for t in 1..20 {
            let (_, evs) = tick_at(&mut core, &mut inbox, t);
            if let Some(MemEvent::BarrierArrive { id }) = evs
                .iter()
                .find(|e| matches!(e, MemEvent::BarrierArrive { .. }))
            {
                arrive = Some((*id, t));
                break;
            }
        }
        let (id, t_arrive) = arrive.expect("barrier must be announced");
        // Spinning: no further commits.
        let before = core.pipe.hot.committed;
        for t in t_arrive + 1..t_arrive + 10 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert_eq!(core.pipe.hot.committed, before);
        assert!(core.pipe.stats.stall_sync > 0);
        // Release resumes issue.
        inbox.deliver(Timestamped::new(
            Cycle::new(t_arrive + 10),
            MemEvent::BarrierRelease { id },
        ));
        for t in t_arrive + 10..t_arrive + 30 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert!(core.pipe.hot.committed > before);
    }

    #[test]
    fn lock_spins_until_granted() {
        let mut core = core_with(vec![
            Op::LockAcquire { id: 5 },
            Op::IntAlu,
            Op::LockRelease { id: 5 },
        ]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        assert!(evs
            .iter()
            .any(|e| matches!(e, MemEvent::LockAcquire { id: 5 })));
        let before = core.pipe.hot.committed;
        for t in 2..10 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert_eq!(
            core.pipe.hot.committed, before,
            "spinning while lock is pending"
        );
        inbox.deliver(Timestamped::new(
            Cycle::new(10),
            MemEvent::LockGranted { id: 5 },
        ));
        let mut released = false;
        for t in 10..40 {
            let (_, evs) = tick_at(&mut core, &mut inbox, t);
            released |= evs
                .iter()
                .any(|e| matches!(e, MemEvent::LockRelease { id: 5 }));
        }
        assert!(released, "release must follow the grant");
    }

    #[test]
    fn mispredict_stalls_the_front_end() {
        let mut core = core_with(vec![Op::Branch { mispredict: true }, Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        for t in 1..100 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert!(core.pipe.stats.mispredicts > 0);
        assert!(core.pipe.stats.stall_fetch > 0);
        // Every other instruction mispredicts: IPC far below width.
        assert!((core.pipe.hot.committed as f64) < 100.0);
    }

    #[test]
    fn window_bounds_inflight_instructions() {
        // Loads to distinct lines that never get replies fill the MSHRs
        // and then stall; the window never exceeds its capacity.
        let ops: Vec<Op> = (0..128)
            .map(|i| Op::Load {
                addr: 0x10_000 + i * 4096,
            })
            .collect();
        let mut core = core_with(ops);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        for t in 1..200 {
            tick_at(&mut core, &mut inbox, t);
            assert!(core.pipe.window.len() <= core.cfg.window);
            assert!(core.pipe.mshrs.len() <= core.cfg.mshrs);
        }
        assert!(core.pipe.stats.stall_mshr > 0);
    }

    #[test]
    fn load_coalesces_into_pending_miss() {
        // Body sized to the 4-wide issue so exactly one loop iteration
        // issues in the first cycle.
        let mut core = core_with(vec![
            Op::Load { addr: 0x8000 },
            Op::Load { addr: 0x8004 }, // same 32 B line
            Op::IntAlu,
            Op::IntAlu,
        ]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        let data_reqs = evs
            .iter()
            .filter(|e| matches!(e, MemEvent::Request { ifetch: false, .. }))
            .count();
        assert_eq!(data_reqs, 1, "both loads share one MSHR: {evs:?}");
        assert_eq!(core.pipe.mshrs.len(), 1);
        assert_eq!(core.pipe.mshrs[0].waiters.len(), 2);
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut core = core_with(vec![Op::IntAlu]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        // Fill one L1 set (4 ways, 128 sets): same set = line % 128.
        for k in 0..4u64 {
            core.l1d.fill(LineAddr::new(k * 128), MesiState::Modified);
        }
        // A reply that fills the same set evicts a dirty victim.
        core.pipe.mshrs.push(Mshr {
            req: 77,
            line: LineAddr::new(4 * 128),
            op: BusOp::Rd,
            ifetch: false,
            waiters: Waiters::default(),
        });
        inbox.deliver(Timestamped::new(
            Cycle::new(1),
            MemEvent::Reply {
                req: 77,
                line: LineAddr::new(4 * 128),
                grant: MesiState::Exclusive,
            },
        ));
        let (_, evs) = tick_at(&mut core, &mut inbox, 1);
        assert!(
            evs.iter().any(|e| matches!(e, MemEvent::Writeback { .. })),
            "dirty victim must be written back: {evs:?}"
        );
        assert_eq!(core.pipe.stats.writebacks, 1);
    }

    #[test]
    fn counters_expose_all_statistics() {
        let mut core = core_with(vec![Op::IntAlu]);
        run_ticks(&mut core, 5);
        let c = CoreModel::counters(&core);
        assert_eq!(c.get("cycles"), 5);
        assert!(c.get("l1i_misses") > 0);
    }

    #[test]
    fn delta_capture_apply_matches_full_clone() {
        let mut live = core_with(vec![Op::IntAlu, Op::Load { addr: 0x8000 }]);
        let mut inbox = Inbox::new();
        prime_icache(&mut live, &mut inbox);
        for t in 1..10 {
            tick_at(&mut live, &mut inbox, t);
        }
        let mut snap = live.clone();
        let g0 = Checkpointable::generation(&live);
        // Seeding at the checkpoint generation captures nothing.
        let seed = live.capture_delta(g0);
        assert_eq!(seed.l1_dirty_sets(), 0);
        for t in 10..50 {
            tick_at(&mut live, &mut inbox, t);
        }
        let delta = live.capture_delta(g0);
        snap.apply_delta(delta);
        assert_eq!(CoreModel::counters(&snap), CoreModel::counters(&live));
        // The reconstructed core must also behave identically forward.
        let mut ia = Inbox::new();
        let mut ib = Inbox::new();
        for t in 50..80 {
            tick_at(&mut live, &mut ia, t);
            tick_at(&mut snap, &mut ib, t);
        }
        assert_eq!(CoreModel::counters(&snap), CoreModel::counters(&live));
    }

    #[test]
    fn delta_restore_rewinds_to_the_checkpoint() {
        let mut core = core_with(vec![Op::IntAlu, Op::Load { addr: 0x8000 }]);
        let mut inbox = Inbox::new();
        prime_icache(&mut core, &mut inbox);
        for t in 1..20 {
            tick_at(&mut core, &mut inbox, t);
        }
        let base = core.clone();
        let g0 = Checkpointable::generation(&core);
        let _ = core.capture_delta(g0);
        for t in 20..60 {
            tick_at(&mut core, &mut inbox, t);
        }
        core.restore_from(&base, g0);
        assert_eq!(CoreModel::counters(&core), CoreModel::counters(&base));
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let ops = vec![
            Op::IntAlu,
            Op::Load { addr: 0x8000 },
            Op::Branch { mispredict: true },
            Op::Store { addr: 0x8040 },
        ];
        let mut live = core_with(ops.clone());
        let mut inbox = Inbox::new();
        prime_icache(&mut live, &mut inbox);
        // Leave requests unserviced so MSHRs stay outstanding at the
        // snapshot point — the pipeline is mid-flight, not quiescent.
        for t in 1..40 {
            tick_at(&mut live, &mut inbox, t);
        }
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        // Restore into a fresh core whose stream sits at position zero.
        let mut restored = core_with(ops);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(CoreModel::counters(&restored), CoreModel::counters(&live));
        assert_eq!(restored.pipe.hot.fetched, live.pipe.hot.fetched);
        assert_eq!(restored.pipe.pending, live.pipe.pending);
        assert_eq!(restored.pipe.window, live.pipe.window);
        assert_eq!(restored.pipe.mshrs, live.pipe.mshrs);
        assert_eq!(restored.pipe.wait, live.pipe.wait);

        // Both copies must behave identically forward under the same
        // event sequence, including stream draws past the snapshot.
        let mut ia = Inbox::new();
        let mut ib = Inbox::new();
        for (pos, m) in live.pipe.mshrs.clone().into_iter().enumerate() {
            let reply = MemEvent::Reply {
                req: m.req,
                line: m.line,
                grant: MesiState::Exclusive,
            };
            let at = Cycle::new(41 + pos as u64);
            ia.deliver(Timestamped::new(at, reply.clone()));
            ib.deliver(Timestamped::new(at, reply));
        }
        for t in 40..160 {
            let (_, ea) = tick_at(&mut live, &mut ia, t);
            let (_, eb) = tick_at(&mut restored, &mut ib, t);
            assert_eq!(ea, eb, "divergent events at cycle {t}");
        }
        assert!(live.pipe.hot.committed > 0);
        assert_eq!(CoreModel::counters(&restored), CoreModel::counters(&live));
    }

    #[test]
    fn load_rejects_oversized_and_truncated_state() {
        let ops = vec![Op::Load { addr: 0x4000 }, Op::IntAlu];
        let mut live = core_with(ops.clone());
        let mut inbox = Inbox::new();
        prime_icache(&mut live, &mut inbox);
        for t in 1..10 {
            tick_at(&mut live, &mut inbox, t);
        }
        let (window, mshrs) = (live.pipe.window.len(), live.pipe.mshrs.len());
        assert!(window > 0 && mshrs > 0, "a load miss is in flight");
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut truncated = core_with(vec![Op::IntAlu]);
        let mut r = ByteReader::new(&bytes[..bytes.len() / 2]);
        assert!(truncated.load_state(&mut r).is_err());

        // A window-count word far past the bytes behind it is refused
        // without allocating for it.
        let mut forged = ByteWriter::new();
        forged.u64(0); // fetched
        forged.bool(false); // pending
        forged.u32(u32::MAX); // window length
        let forged = forged.into_bytes();
        let mut target = core_with(vec![Op::IntAlu]);
        assert!(target.load_state(&mut ByteReader::new(&forged)).is_err());

        // More window entries or MSHRs than the loading core has.
        let load_into = |cfg: CoreConfig| {
            let stream = Box::new(LoopStream::new(ops.clone()));
            CmpCore::new(&cfg, stream).load_state(&mut ByteReader::new(&bytes))
        };
        let paper = CoreConfig::default();
        assert!(load_into(paper).is_ok());
        assert!(matches!(
            load_into(CoreConfig {
                window: window - 1,
                ..paper
            }),
            Err(PersistError::Corrupt("window holds more entries than fit"))
        ));
        assert!(matches!(
            load_into(CoreConfig {
                mshrs: mshrs - 1,
                ..paper
            }),
            Err(PersistError::Corrupt("more MSHRs than the core has"))
        ));
    }

    #[test]
    fn mark_done_outside_the_window_is_a_no_op() {
        let mut window = Window {
            front: 10,
            done: VecDeque::from([Window::WAITING; 3]),
        };
        for id in [0, 9, 13, u64::MAX] {
            window.mark_done(id, Cycle::new(5));
        }
        assert!(window.done.iter().all(|&d| d == Window::WAITING));
        window.mark_done(11, Cycle::new(5));
        assert_eq!(window.done, [Window::WAITING, 5, Window::WAITING]);
    }

    /// Runs `live` to a cycle with at least two window entries, and
    /// returns its bytes before the window and after it.
    fn bytes_around_the_window(live: &mut CmpCore) -> (Vec<u8>, Vec<u8>) {
        let mut inbox = Inbox::new();
        prime_icache(live, &mut inbox);
        for t in 1..10 {
            tick_at(live, &mut inbox, t);
        }
        assert!(live.pipe.window.len() >= 2, "a miss holds the window");
        let mut w = ByteWriter::new();
        live.pipe.hot.fetched.save(&mut w);
        live.pipe.pending.save(&mut w);
        let head = w.into_bytes();
        let mut w = ByteWriter::new();
        live.pipe.window.save(&mut w);
        let window = w.into_bytes().len();
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        (
            bytes[..head.len()].to_vec(),
            bytes[head.len() + window..].to_vec(),
        )
    }

    #[test]
    fn load_refuses_a_window_whose_ids_have_a_gap() {
        let ops = vec![Op::Load { addr: 0x4000 }, Op::IntAlu, Op::IntAlu];
        let mut live = core_with(ops.clone());
        let (head, tail) = bytes_around_the_window(&mut live);
        let window = &live.pipe.window;
        let forge = |ids: &dyn Fn(u64) -> u64| {
            let mut w = ByteWriter::new();
            w.u32(window.len() as u32);
            for (i, &done) in window.done.iter().enumerate() {
                w.u64(ids(window.front + i as u64));
                (done != Window::WAITING)
                    .then(|| Cycle::new(done))
                    .save(&mut w);
            }
            [head.as_slice(), &w.into_bytes(), &tail].concat()
        };
        let load = |bytes: &[u8]| core_with(ops.clone()).load_state(&mut ByteReader::new(bytes));
        assert!(load(&forge(&|id| id)).is_ok(), "the unforged bytes load");
        let last = window.front + window.len() as u64 - 1;
        assert!(matches!(
            load(&forge(&|id| if id == last { id + 1 } else { id })),
            Err(PersistError::Corrupt(
                "window entry ids are not consecutive"
            ))
        ));
        assert!(matches!(
            load(&forge(&|id| id + 1)),
            Err(PersistError::Corrupt(
                "window entry ids disagree with the next entry id"
            ))
        ));
    }

    #[test]
    fn a_core_saved_mid_block_resumes_identically() {
        let ops: Vec<Op> = (0..23)
            .map(|i| match i % 5 {
                0 => Op::Load {
                    addr: 0x8000 + 64 * i,
                },
                3 => Op::Store {
                    addr: 0x9000 + 32 * i,
                },
                _ => Op::IntAlu,
            })
            .collect();
        let mut live = core_with(ops.clone());
        let mut inbox = Inbox::new();
        // Grants every request 20 cycles on.
        let serve = |inbox: &mut Inbox<MemEvent>, t: u64, evs: Vec<MemEvent>| {
            for ev in evs {
                if let MemEvent::Request { req, line, .. } = ev {
                    let grant = MesiState::Exclusive;
                    let reply = MemEvent::Reply { req, line, grant };
                    inbox.deliver(Timestamped::new(Cycle::new(t + 20), reply));
                }
            }
        };
        let mut t = 0;
        // Stop with part of a drawn block still unfetched.
        while t < 40 || live.pipe.hot.fetched.is_multiple_of(Pipeline::BLOCK as u64) {
            let (_, evs) = tick_at(&mut live, &mut inbox, t);
            serve(&mut inbox, t, evs);
            t += 1;
        }
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let mut restored = core_with(ops);
        restored
            .load_state(&mut ByteReader::new(&w.into_bytes()))
            .unwrap();
        // The restored core's inbox holds the same pending replies.
        let mut inbox_b = inbox.clone();
        for t in t..t + 300 {
            let (ca, ea) = tick_at(&mut live, &mut inbox, t);
            let (cb, eb) = tick_at(&mut restored, &mut inbox_b, t);
            assert_eq!((ca, &ea), (cb, &eb), "divergence at cycle {t}");
            serve(&mut inbox, t, ea);
            serve(&mut inbox_b, t, eb);
        }
        assert_eq!(CoreModel::counters(&restored), CoreModel::counters(&live));
    }

    #[test]
    fn clone_is_deep() {
        let mut core = core_with(vec![Op::IntAlu]);
        let mut snap = core.clone();
        // Drive both copies through identical event sequences.
        let mut inbox_a = Inbox::new();
        prime_icache(&mut core, &mut inbox_a);
        for t in 1..50 {
            tick_at(&mut core, &mut inbox_a, t);
        }
        assert_eq!(snap.pipe.hot.committed, 0, "the clone did not advance");
        let mut inbox_b = Inbox::new();
        prime_icache(&mut snap, &mut inbox_b);
        for t in 1..50 {
            tick_at(&mut snap, &mut inbox_b, t);
        }
        assert_eq!(snap.pipe.hot.committed, core.pipe.hot.committed);
        assert_eq!(
            CoreModel::counters(&snap),
            CoreModel::counters(&core),
            "identical histories must give identical statistics"
        );
    }

    /// Drives two clones of the same core through `windows` quanta — one
    /// via the plain tick loop, one via [`CoreModel::run_window`] — with
    /// boundary-serviced replies, asserting bit-identical staged events
    /// and hot state after every window. Returns the tick-loop core for
    /// extra assertions.
    fn assert_run_window_matches(ops: Vec<Op>, windows: u64, quantum: u64) -> CmpCore {
        let mut slow = core_with(ops);
        let mut fast = slow.clone();
        let mut inbox_slow = Inbox::new();
        let mut inbox_fast = Inbox::new();
        for w in 0..windows {
            let (from, to) = (w * quantum, (w + 1) * quantum);
            let mut staged_slow: Vec<Timestamped<MemEvent>> = Vec::new();
            for t in from..to {
                let mut ctx = TickCtx::new(Cycle::new(t), &mut inbox_slow, &mut staged_slow);
                let _ = slow.tick(&mut ctx);
            }
            let mut staged_fast = Vec::new();
            fast.run_window(
                Cycle::new(from),
                Cycle::new(to),
                &mut inbox_fast,
                &mut staged_fast,
            );
            let a: Vec<_> = staged_slow
                .iter()
                .map(|e| (e.ts, e.payload.clone()))
                .collect();
            let b: Vec<_> = staged_fast
                .iter()
                .map(|e| (e.ts, e.payload.clone()))
                .collect();
            assert_eq!(a, b, "window {w}: staged events diverged");
            assert_eq!(
                slow.pipe.hot, fast.pipe.hot,
                "window {w}: hot state diverged"
            );
            // Boundary servicing, as the uncore would do it: grant every
            // request (slow replies keep windows/MSHRs occupied so the
            // stall fast paths get exercised), release barriers and
            // locks a while after arrival.
            for ev in staged_slow {
                let reply = match ev.payload {
                    MemEvent::Request { req, line, .. } => Some((
                        ev.ts + 23,
                        MemEvent::Reply {
                            req,
                            line,
                            grant: MesiState::Exclusive,
                        },
                    )),
                    MemEvent::BarrierArrive { id } => {
                        Some((ev.ts + 40, MemEvent::BarrierRelease { id }))
                    }
                    MemEvent::LockAcquire { id } => {
                        Some((ev.ts + 15, MemEvent::LockGranted { id }))
                    }
                    _ => None,
                };
                if let Some((at, reply)) = reply {
                    inbox_slow.deliver(Timestamped::new(at, reply.clone()));
                    inbox_fast.deliver(Timestamped::new(at, reply));
                }
            }
        }
        assert_eq!(
            CoreModel::counters(&slow),
            CoreModel::counters(&fast),
            "final statistics diverged"
        );
        slow
    }

    #[test]
    fn run_window_matches_the_tick_loop_on_a_mixed_stream() {
        let core = assert_run_window_matches(
            vec![
                Op::IntAlu,
                Op::Load { addr: 0x8000 },
                Op::Branch { mispredict: true },
                Op::Store { addr: 0x9000 },
                Op::IntAlu,
                Op::Load { addr: 0xA040 },
            ],
            8,
            50,
        );
        assert!(core.pipe.hot.committed > 0);
        assert!(
            core.pipe.stats.stall_fetch > 0,
            "mispredicts exercised the fetch skip"
        );
    }

    #[test]
    fn run_window_fast_forwards_sync_spins_identically() {
        let core =
            assert_run_window_matches(vec![Op::IntAlu, Op::Barrier { id: 0 }, Op::IntAlu], 8, 50);
        assert!(
            core.pipe.stats.stall_sync > 0,
            "barrier spins exercised the sync skip"
        );
        assert!(core.pipe.hot.committed > 0);
    }

    #[test]
    fn run_window_fast_forwards_full_windows_identically() {
        // Distinct-line loads with slow (boundary + 23 cycle) replies
        // keep the instruction window saturated behind pending misses.
        let core = assert_run_window_matches(
            vec![
                Op::Load { addr: 0x8000 },
                Op::Load { addr: 0x8040 },
                Op::Load { addr: 0x8080 },
                Op::Load { addr: 0x80C0 },
                Op::Load { addr: 0x8100 },
                Op::Load { addr: 0x8140 },
            ],
            8,
            50,
        );
        assert!(
            core.pipe.stats.stall_window > 0,
            "full windows exercised the window skip"
        );
    }
}
