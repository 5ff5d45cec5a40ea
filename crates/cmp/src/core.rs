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

use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::engine::{CoreModel, TickCtx};
use slacksim_core::event::{Inbox, Timestamped};
use slacksim_core::persist::{ByteReader, ByteWriter, PersistError};
use slacksim_core::stats::Counters;
use slacksim_core::time::Cycle;

use crate::cache::{Cache, CacheDelta, LineAddr, StoreProbe};
use crate::config::{CmpConfig, CoreConfig};
use crate::event::{MemEvent, ReqId};
use crate::isa::{Instr, InstrStream, Op};
use crate::mesi::{BusOp, MesiState};

/// What the core is spinning on, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Barrier(u32),
    Lock(u32),
    Ifetch(ReqId),
}

/// One in-flight instruction window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WinEntry {
    id: u64,
    /// Completion time; `None` while waiting on a memory reply.
    done_at: Option<Cycle>,
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

/// One outstanding L1 miss.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Mshr {
    req: ReqId,
    line: LineAddr,
    op: BusOp,
    ifetch: bool,
    waiters: Waiters,
}

/// The hot per-core scalars: the state the quantum-compiled stepping loop
/// reads and writes every simulated cycle, split out of the cold bulk
/// (caches, MSHRs, window contents, event plumbing) so the batched engine
/// can mirror them in dense arrays (see [`CoreHotSoA`]).
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

/// Struct-of-arrays mirror of every core's hot scalars: per-core local
/// clocks, commit counters, window occupancy and next-fetch cursors in
/// dense parallel arrays, indexed by core.
///
/// [`gather`](CoreHotSoA::gather) projects a core slice into the arrays
/// and [`scatter_into`](CoreHotSoA::scatter_into) writes the owned scalars
/// back. `window_len` is a *derived* projection (the instruction window's
/// occupancy lives in the window itself), so scatter checks it for
/// consistency in debug builds rather than writing it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreHotSoA {
    /// Per-core local clocks ([`CoreHot::cycles`]).
    pub local_clock: Vec<u64>,
    /// Per-core commit counters ([`CoreHot::committed`]).
    pub committed: Vec<u64>,
    /// Per-core instruction-window occupancy (derived).
    pub window_len: Vec<u32>,
    /// Per-core next-fetch cursors ([`CoreHot::fetched`]).
    pub next_fetch: Vec<u64>,
    /// Per-core front-end stall deadlines ([`CoreHot::fetch_stall_until`]).
    pub fetch_stall_until: Vec<u64>,
}

impl CoreHotSoA {
    /// Projects the hot scalars of `cores` into dense parallel arrays.
    pub fn gather(cores: &[CmpCore]) -> Self {
        CoreHotSoA {
            local_clock: cores.iter().map(|c| c.hot.cycles).collect(),
            committed: cores.iter().map(|c| c.hot.committed).collect(),
            window_len: cores.iter().map(|c| c.window.len() as u32).collect(),
            next_fetch: cores.iter().map(|c| c.hot.fetched).collect(),
            fetch_stall_until: cores
                .iter()
                .map(|c| c.hot.fetch_stall_until.as_u64())
                .collect(),
        }
    }

    /// Writes the owned hot scalars back into `cores`, field for field.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths do not match the core count.
    pub fn scatter_into(&self, cores: &mut [CmpCore]) {
        assert_eq!(self.local_clock.len(), cores.len(), "SoA/core count");
        for (i, core) in cores.iter_mut().enumerate() {
            core.hot.cycles = self.local_clock[i];
            core.hot.committed = self.committed[i];
            core.hot.fetched = self.next_fetch[i];
            core.hot.fetch_stall_until = Cycle::new(self.fetch_stall_until[i]);
            debug_assert_eq!(
                self.window_len[i] as usize,
                core.window.len(),
                "window occupancy is derived from the window contents"
            );
        }
    }

    /// Number of cores mirrored.
    pub fn len(&self) -> usize {
        self.local_clock.len()
    }

    /// Whether the mirror is empty.
    pub fn is_empty(&self) -> bool {
        self.local_clock.is_empty()
    }
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
    stream: Box<dyn InstrStream>,
    /// The per-cycle hot scalars (local clock, commit counter, next-fetch
    /// cursor, front-end stall deadline), split out so [`CoreHotSoA`] can
    /// mirror them densely; everything below is the cold bulk.
    hot: CoreHot,
    pending: Option<Instr>,
    window: std::collections::VecDeque<WinEntry>,
    mshrs: Vec<Mshr>,
    l1i: Cache,
    l1d: Cache,
    next_entry_id: u64,
    next_req: ReqId,
    wait: Option<Wait>,

    // Statistics (the always-hot cycle and commit counters live in `hot`).
    loads: u64,
    stores: u64,
    branches: u64,
    mispredicts: u64,
    barriers: u64,
    lock_acquires: u64,
    lock_releases: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    l1d_miss_coalesced: u64,
    l1i_hits: u64,
    l1i_misses: u64,
    writebacks: u64,
    invalidations_received: u64,
    downgrades_received: u64,
    stall_window: u64,
    stall_mshr: u64,
    stall_sync: u64,
    stall_fetch: u64,

    /// Tracking metadata: `(composite generation, (l1i gen, l1d gen))`
    /// recorded by the last `capture_delta` (see
    /// [`CmpUncore`](crate::uncore::CmpUncore) for the token scheme).
    cp_baseline: Option<(u64, (u64, u64))>,

    /// Scratch for the events one cycle emits, kept for its capacity so an
    /// emitting cycle allocates nothing. Always empty between calls: not
    /// model state, so clones, deltas and snapshots ignore it.
    outbox: Vec<MemEvent>,
}

/// Everything in a [`CmpCore`] other than the L1 caches: the pipeline and
/// workload position plus the statistics scalars. The pipeline mutates
/// every simulated cycle, so a delta carries this block unconditionally —
/// it is small (a window of a few dozen entries, a handful of MSHRs, the
/// stream cursor) next to the caches the dirty tracking avoids copying.
#[derive(Clone)]
struct CoreRest {
    stream: Box<dyn InstrStream>,
    hot: CoreHot,
    pending: Option<Instr>,
    window: std::collections::VecDeque<WinEntry>,
    mshrs: Vec<Mshr>,
    next_entry_id: u64,
    next_req: ReqId,
    wait: Option<Wait>,
    loads: u64,
    stores: u64,
    branches: u64,
    mispredicts: u64,
    barriers: u64,
    lock_acquires: u64,
    lock_releases: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    l1d_miss_coalesced: u64,
    l1i_hits: u64,
    l1i_misses: u64,
    writebacks: u64,
    invalidations_received: u64,
    downgrades_received: u64,
    stall_window: u64,
    stall_mshr: u64,
    stall_sync: u64,
    stall_fetch: u64,
}

/// Incremental state carrier for a [`CmpCore`]: dirty-set deltas for the
/// two L1s plus the always-dirty pipeline block.
#[derive(Clone)]
pub struct CmpCoreDelta {
    l1i: CacheDelta,
    l1d: CacheDelta,
    rest: CoreRest,
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
            .field("cycles", &self.hot.cycles)
            .field("committed", &self.hot.committed)
            .field("window", &self.window.len())
            .field("mshrs", &self.mshrs.len())
            .field("wait", &self.wait)
            .finish_non_exhaustive()
    }
}

impl CmpCore {
    /// Creates a core with empty caches positioned at the start of
    /// `stream`.
    pub fn new(cfg: &CoreConfig, stream: Box<dyn InstrStream>) -> Self {
        CmpCore {
            cfg: *cfg,
            stream,
            hot: CoreHot::default(),
            pending: None,
            window: std::collections::VecDeque::with_capacity(cfg.window),
            mshrs: Vec::with_capacity(cfg.mshrs),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            next_entry_id: 0,
            next_req: 0,
            wait: None,
            loads: 0,
            stores: 0,
            branches: 0,
            mispredicts: 0,
            barriers: 0,
            lock_acquires: 0,
            lock_releases: 0,
            l1d_hits: 0,
            l1d_misses: 0,
            l1d_miss_coalesced: 0,
            l1i_hits: 0,
            l1i_misses: 0,
            writebacks: 0,
            invalidations_received: 0,
            downgrades_received: 0,
            stall_window: 0,
            stall_mshr: 0,
            stall_sync: 0,
            stall_fetch: 0,
            cp_baseline: None,
            outbox: Vec::new(),
        }
    }

    fn rest_snapshot(&self) -> CoreRest {
        CoreRest {
            stream: self.stream.clone(),
            hot: self.hot,
            pending: self.pending,
            window: self.window.clone(),
            mshrs: self.mshrs.clone(),
            next_entry_id: self.next_entry_id,
            next_req: self.next_req,
            wait: self.wait,
            loads: self.loads,
            stores: self.stores,
            branches: self.branches,
            mispredicts: self.mispredicts,
            barriers: self.barriers,
            lock_acquires: self.lock_acquires,
            lock_releases: self.lock_releases,
            l1d_hits: self.l1d_hits,
            l1d_misses: self.l1d_misses,
            l1d_miss_coalesced: self.l1d_miss_coalesced,
            l1i_hits: self.l1i_hits,
            l1i_misses: self.l1i_misses,
            writebacks: self.writebacks,
            invalidations_received: self.invalidations_received,
            downgrades_received: self.downgrades_received,
            stall_window: self.stall_window,
            stall_mshr: self.stall_mshr,
            stall_sync: self.stall_sync,
            stall_fetch: self.stall_fetch,
        }
    }

    fn apply_rest(&mut self, rest: CoreRest) {
        self.stream = rest.stream;
        self.hot = rest.hot;
        self.pending = rest.pending;
        self.window = rest.window;
        self.mshrs = rest.mshrs;
        self.next_entry_id = rest.next_entry_id;
        self.next_req = rest.next_req;
        self.wait = rest.wait;
        self.loads = rest.loads;
        self.stores = rest.stores;
        self.branches = rest.branches;
        self.mispredicts = rest.mispredicts;
        self.barriers = rest.barriers;
        self.lock_acquires = rest.lock_acquires;
        self.lock_releases = rest.lock_releases;
        self.l1d_hits = rest.l1d_hits;
        self.l1d_misses = rest.l1d_misses;
        self.l1d_miss_coalesced = rest.l1d_miss_coalesced;
        self.l1i_hits = rest.l1i_hits;
        self.l1i_misses = rest.l1i_misses;
        self.writebacks = rest.writebacks;
        self.invalidations_received = rest.invalidations_received;
        self.downgrades_received = rest.downgrades_received;
        self.stall_window = rest.stall_window;
        self.stall_mshr = rest.stall_mshr;
        self.stall_sync = rest.stall_sync;
        self.stall_fetch = rest.stall_fetch;
    }

    /// Maps the opaque `since_gen` token to `(l1i, l1d)` generation
    /// baselines; unknown tokens degrade to a conservative full capture
    /// (see [`CmpUncore`](crate::uncore::CmpUncore) for the scheme).
    fn resolve_baseline(&self, since_gen: u64) -> (u64, u64) {
        match self.cp_baseline {
            Some((g, gens)) if g == since_gen => gens,
            _ if since_gen == self.generation() => (self.l1i.generation(), self.l1d.generation()),
            _ => (0, 0),
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

    /// Serializes the full core state (pipeline, L1s, statistics, stream
    /// cursor) for the on-disk snapshot format. The instruction stream
    /// itself is not serialized — it is reconstructed from the workload
    /// configuration and replayed to the persisted cursor on load.
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.u64(self.hot.fetched);
        match self.pending {
            Some(instr) => {
                w.bool(true);
                instr.save_state(w);
            }
            None => w.bool(false),
        }
        w.u32(self.window.len() as u32);
        for entry in &self.window {
            w.u64(entry.id);
            match entry.done_at {
                Some(at) => {
                    w.bool(true);
                    w.u64(at.as_u64());
                }
                None => w.bool(false),
            }
        }
        w.u32(self.mshrs.len() as u32);
        for mshr in &self.mshrs {
            w.u32(mshr.req);
            w.u64(mshr.line.raw());
            w.u8(mshr.op.persist_tag());
            w.bool(mshr.ifetch);
            w.u32(mshr.waiters.len() as u32);
            for waiter in mshr.waiters.iter() {
                w.u64(waiter);
            }
        }
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        w.u64(self.next_entry_id);
        w.u32(self.next_req);
        match self.wait {
            None => w.u8(0),
            Some(Wait::Barrier(id)) => {
                w.u8(1);
                w.u32(id);
            }
            Some(Wait::Lock(id)) => {
                w.u8(2);
                w.u32(id);
            }
            Some(Wait::Ifetch(req)) => {
                w.u8(3);
                w.u32(req);
            }
        }
        w.u64(self.hot.fetch_stall_until.as_u64());
        for stat in [
            self.hot.cycles,
            self.hot.committed,
            self.loads,
            self.stores,
            self.branches,
            self.mispredicts,
            self.barriers,
            self.lock_acquires,
            self.lock_releases,
            self.l1d_hits,
            self.l1d_misses,
            self.l1d_miss_coalesced,
            self.l1i_hits,
            self.l1i_misses,
            self.writebacks,
            self.invalidations_received,
            self.downgrades_received,
            self.stall_window,
            self.stall_mshr,
            self.stall_sync,
            self.stall_fetch,
        ] {
            w.u64(stat);
        }
    }

    /// Restores state written by [`CmpCore::save_state`] into a freshly
    /// constructed core whose stream sits at position zero; the stream is
    /// fast-forwarded to the persisted cursor (streams are deterministic
    /// per seed, so replay reproduces the exact position).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] for malformed bytes or state that exceeds
    /// this core's configured capacities.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        let fetched = r.u64()?;
        let pending = if r.bool()? {
            Some(Instr::load_state(r)?)
        } else {
            None
        };
        let n_window = r.u32()? as usize;
        if n_window > self.cfg.window {
            return Err(PersistError::Corrupt("window holds more entries than fit"));
        }
        let mut window = std::collections::VecDeque::with_capacity(self.cfg.window);
        for _ in 0..n_window {
            let id = r.u64()?;
            let done_at = if r.bool()? {
                Some(Cycle::new(r.u64()?))
            } else {
                None
            };
            window.push_back(WinEntry { id, done_at });
        }
        let n_mshrs = r.u32()? as usize;
        if n_mshrs > self.cfg.mshrs {
            return Err(PersistError::Corrupt("more MSHRs than the core has"));
        }
        let mut mshrs = Vec::with_capacity(self.cfg.mshrs);
        for _ in 0..n_mshrs {
            let req = r.u32()?;
            let line = LineAddr::new(r.u64()?);
            let op = BusOp::from_persist_tag(r.u8()?)?;
            let ifetch = r.bool()?;
            let n_waiters = r.u32()? as usize;
            if n_waiters > self.cfg.window {
                return Err(PersistError::Corrupt(
                    "more miss waiters than the window has entries",
                ));
            }
            let waiters = (0..n_waiters)
                .map(|_| r.u64())
                .collect::<Result<Waiters, _>>()?;
            mshrs.push(Mshr {
                req,
                line,
                op,
                ifetch,
                waiters,
            });
        }
        self.l1i.load_state(r)?;
        self.l1d.load_state(r)?;
        let next_entry_id = r.u64()?;
        let next_req = r.u32()?;
        let wait = match r.u8()? {
            0 => None,
            1 => Some(Wait::Barrier(r.u32()?)),
            2 => Some(Wait::Lock(r.u32()?)),
            3 => Some(Wait::Ifetch(r.u32()?)),
            _ => return Err(PersistError::Corrupt("unknown core wait tag")),
        };
        let fetch_stall_until = Cycle::new(r.u64()?);

        for _ in 0..fetched {
            let _ = self.stream.next_instr();
        }
        self.hot.fetched = fetched;
        self.pending = pending;
        self.window = window;
        self.mshrs = mshrs;
        self.next_entry_id = next_entry_id;
        self.next_req = next_req;
        self.wait = wait;
        self.hot.fetch_stall_until = fetch_stall_until;
        self.hot.cycles = r.u64()?;
        self.hot.committed = r.u64()?;
        self.loads = r.u64()?;
        self.stores = r.u64()?;
        self.branches = r.u64()?;
        self.mispredicts = r.u64()?;
        self.barriers = r.u64()?;
        self.lock_acquires = r.u64()?;
        self.lock_releases = r.u64()?;
        self.l1d_hits = r.u64()?;
        self.l1d_misses = r.u64()?;
        self.l1d_miss_coalesced = r.u64()?;
        self.l1i_hits = r.u64()?;
        self.l1i_misses = r.u64()?;
        self.writebacks = r.u64()?;
        self.invalidations_received = r.u64()?;
        self.downgrades_received = r.u64()?;
        self.stall_window = r.u64()?;
        self.stall_mshr = r.u64()?;
        self.stall_sync = r.u64()?;
        self.stall_fetch = r.u64()?;
        self.cp_baseline = None;
        Ok(())
    }

    fn peek(&mut self) -> Instr {
        if self.pending.is_none() {
            self.pending = Some(self.stream.next_instr());
            self.hot.fetched += 1;
        }
        self.pending.expect("just filled")
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
        self.window.push_back(WinEntry { id, done_at });
        id
    }

    fn mark_done(&mut self, entry_id: u64, at: Cycle) {
        if let Some(e) = self.window.iter_mut().find(|e| e.id == entry_id) {
            e.done_at = Some(at);
        }
    }

    fn handle_event(&mut self, ev: MemEvent, now: Cycle, outbox: &mut Vec<MemEvent>) {
        match ev {
            MemEvent::Reply { req, line, grant } => {
                let Some(pos) = self.mshrs.iter().position(|m| m.req == req) else {
                    debug_assert!(false, "reply for unknown request {req}");
                    return;
                };
                let mshr = self.mshrs.swap_remove(pos);
                debug_assert_eq!(mshr.line, line, "reply line mismatch");
                if mshr.ifetch {
                    // I-lines are read-shared; victims are never dirty.
                    self.l1i.fill(line, grant);
                    if self.wait == Some(Wait::Ifetch(req)) {
                        self.wait = None;
                    }
                } else {
                    if let Some((victim, state)) = self.l1d.fill(line, grant) {
                        if state.dirty() {
                            self.writebacks += 1;
                            outbox.push(MemEvent::Writeback { line: victim });
                        }
                    }
                    for waiter in mshr.waiters.iter() {
                        self.mark_done(waiter, now);
                    }
                }
            }
            MemEvent::Invalidate { line } => {
                self.invalidations_received += 1;
                self.l1d.invalidate(line);
            }
            MemEvent::Downgrade { line } => {
                self.downgrades_received += 1;
                self.l1d.set_state(line, MesiState::Shared);
            }
            MemEvent::BarrierRelease { id } => {
                if self.wait == Some(Wait::Barrier(id)) {
                    self.wait = None;
                }
            }
            MemEvent::LockGranted { id } => {
                if self.wait == Some(Wait::Lock(id)) {
                    self.wait = None;
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
        match self.mshrs.iter().find(|m| m.line == line && !m.ifetch) {
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
            if self.window.len() >= self.cfg.window {
                self.stall_window += 1;
                break;
            }
            let instr = self.peek();

            // Instruction fetch.
            let iline = LineAddr::from_byte_addr(instr.pc, iline_bytes);
            if probed_iline == Some(iline) {
                self.l1i_hits += 1;
                self.l1i.reprobe_mru(iline);
            } else if self.l1i.probe_if_resident(iline).is_some() {
                self.l1i_hits += 1;
                probed_iline = Some(iline);
            } else {
                self.l1i_misses += 1;
                if self.mshrs.len() < self.cfg.mshrs {
                    let req = self.alloc_req();
                    self.mshrs.push(Mshr {
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
                    self.wait = Some(Wait::Ifetch(req));
                } else {
                    self.stall_mshr += 1;
                }
                self.stall_fetch += 1;
                break;
            }

            match instr.op {
                Op::IntAlu => {
                    let lat = self.cfg.int_latency;
                    self.push_entry(Some(now + lat));
                    self.consume();
                    issued += 1;
                }
                Op::IntMul => {
                    let lat = self.cfg.mul_latency;
                    self.push_entry(Some(now + lat));
                    self.consume();
                    issued += 1;
                }
                Op::IntDiv => {
                    let lat = self.cfg.div_latency;
                    self.push_entry(Some(now + lat));
                    self.consume();
                    issued += 1;
                }
                Op::FpAlu => {
                    let lat = self.cfg.fp_latency;
                    self.push_entry(Some(now + lat));
                    self.consume();
                    issued += 1;
                }
                Op::FpMul => {
                    let lat = self.cfg.fp_mul_latency;
                    self.push_entry(Some(now + lat));
                    self.consume();
                    issued += 1;
                }
                Op::Branch { mispredict } => {
                    self.branches += 1;
                    let lat = self.cfg.int_latency;
                    self.push_entry(Some(now + lat));
                    self.consume();
                    issued += 1;
                    if mispredict {
                        self.mispredicts += 1;
                        self.hot.fetch_stall_until = now + self.cfg.mispredict_penalty;
                        break;
                    }
                }
                Op::Load { addr } => {
                    let line = LineAddr::from_byte_addr(addr, line_bytes);
                    if self.l1d.probe_if_resident(line).is_some() {
                        self.l1d_hits += 1;
                        let lat = self.cfg.l1_hit_latency;
                        self.push_entry(Some(now + lat));
                        self.loads += 1;
                        self.consume();
                        issued += 1;
                    } else {
                        match self.coalescable_mshr(line, false) {
                            CoalesceResult::Join => {
                                self.l1d_miss_coalesced += 1;
                                self.loads += 1;
                                let id = self.push_entry(None);
                                self.mshrs
                                    .iter_mut()
                                    .find(|m| m.line == line && !m.ifetch)
                                    .expect("mshr just found")
                                    .waiters
                                    .push(id);
                                self.consume();
                                issued += 1;
                            }
                            CoalesceResult::Conflict => unreachable!("loads join any data MSHR"),
                            CoalesceResult::Absent => {
                                if self.mshrs.len() < self.cfg.mshrs {
                                    self.l1d_misses += 1;
                                    self.loads += 1;
                                    let req = self.alloc_req();
                                    let id = self.push_entry(None);
                                    self.mshrs.push(Mshr {
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
                                    self.consume();
                                    issued += 1;
                                } else {
                                    self.stall_mshr += 1;
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
                            self.l1d_hits += 1;
                            let lat = self.cfg.l1_hit_latency;
                            self.push_entry(Some(now + lat));
                            self.stores += 1;
                            self.consume();
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
                                    self.l1d_miss_coalesced += 1;
                                    self.stores += 1;
                                    let id = self.push_entry(None);
                                    self.mshrs
                                        .iter_mut()
                                        .find(|m| m.line == line && !m.ifetch)
                                        .expect("mshr just found")
                                        .waiters
                                        .push(id);
                                    self.consume();
                                    issued += 1;
                                }
                                CoalesceResult::Conflict => {
                                    // A read miss is in flight; the store must
                                    // wait for it to resolve before upgrading.
                                    self.stall_mshr += 1;
                                    break;
                                }
                                CoalesceResult::Absent => {
                                    if self.mshrs.len() < self.cfg.mshrs {
                                        self.l1d_misses += 1;
                                        self.stores += 1;
                                        let req = self.alloc_req();
                                        let id = self.push_entry(None);
                                        self.mshrs.push(Mshr {
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
                                        self.consume();
                                        issued += 1;
                                    } else {
                                        self.stall_mshr += 1;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                Op::Barrier { id } => {
                    if !self.window.is_empty() {
                        break; // drain before synchronising
                    }
                    self.barriers += 1;
                    self.hot.committed += 1;
                    committed_now += 1;
                    outbox.push(MemEvent::BarrierArrive { id });
                    self.wait = Some(Wait::Barrier(id));
                    self.consume();
                    break;
                }
                Op::LockAcquire { id } => {
                    if !self.window.is_empty() {
                        break;
                    }
                    self.lock_acquires += 1;
                    self.hot.committed += 1;
                    committed_now += 1;
                    outbox.push(MemEvent::LockAcquire { id });
                    self.wait = Some(Wait::Lock(id));
                    self.consume();
                    break;
                }
                Op::LockRelease { id } => {
                    self.lock_releases += 1;
                    self.hot.committed += 1;
                    committed_now += 1;
                    outbox.push(MemEvent::LockRelease { id });
                    self.consume();
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
            match self.window.front() {
                Some(e) if e.done_at.is_some_and(|d| d <= now) => {
                    self.window.pop_front();
                    self.hot.committed += 1;
                    committed_now += 1;
                }
                _ => break,
            }
        }

        if self.wait.is_some() {
            self.stall_sync += 1;
        } else if self.hot.fetch_stall_until > now {
            self.stall_fetch += 1;
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
        self.l1i.generation() + self.l1d.generation()
    }

    fn capture_delta(&mut self, since_gen: u64) -> CmpCoreDelta {
        let (bi, bd) = self.resolve_baseline(since_gen);
        let delta = CmpCoreDelta {
            l1i: self.l1i.capture_delta(bi),
            l1d: self.l1d.capture_delta(bd),
            rest: self.rest_snapshot(),
        };
        self.cp_baseline = Some((
            self.generation(),
            (self.l1i.generation(), self.l1d.generation()),
        ));
        delta
    }

    fn apply_delta(&mut self, delta: CmpCoreDelta) {
        self.l1i.apply_delta(delta.l1i);
        self.l1d.apply_delta(delta.l1d);
        self.apply_rest(delta.rest);
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let (bi, bd) = self.resolve_baseline(since_gen);
        self.l1i.restore_from(&base.l1i, bi);
        self.l1d.restore_from(&base.l1d, bd);
        self.apply_rest(base.rest_snapshot());
    }
}

impl CoreModel for CmpCore {
    type Event = MemEvent;

    fn tick(&mut self, ctx: &mut TickCtx<'_, MemEvent>) -> u32 {
        let now = ctx.now();
        self.hot.cycles += 1;
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
        let start_committed = self.hot.committed;
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
                self.hot.cycles += 1;
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
                let head_ready = self
                    .window
                    .front()
                    .map_or(u64::MAX, |e| e.done_at.map_or(u64::MAX, Cycle::as_u64));
                if head_ready > now.as_u64() {
                    let bound = seg_end.min(head_ready);
                    let stop = if self.wait.is_some() {
                        Some((bound, StallKind::Sync))
                    } else if self.hot.fetch_stall_until > now {
                        // The stall ends *at* the deadline cycle, which
                        // must run the pipeline again.
                        Some((
                            bound.min(self.hot.fetch_stall_until.as_u64()),
                            StallKind::Fetch,
                        ))
                    } else if self.window.len() >= self.cfg.window {
                        Some((bound, StallKind::Window))
                    } else {
                        None
                    };
                    if let Some((stop, kind)) = stop {
                        if stop > now.as_u64() {
                            let skipped = stop - now.as_u64();
                            self.hot.cycles += skipped;
                            match kind {
                                StallKind::Sync => self.stall_sync += skipped,
                                StallKind::Fetch => self.stall_fetch += skipped,
                                StallKind::Window => self.stall_window += skipped,
                            }
                            now = Cycle::new(stop);
                            continue;
                        }
                    }
                }
                self.hot.cycles += 1;
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
        self.hot.committed - start_committed
    }

    fn committed(&self) -> u64 {
        self.hot.committed
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("cycles", self.hot.cycles);
        c.set("committed", self.hot.committed);
        c.set("loads", self.loads);
        c.set("stores", self.stores);
        c.set("branches", self.branches);
        c.set("mispredicts", self.mispredicts);
        c.set("barriers", self.barriers);
        c.set("lock_acquires", self.lock_acquires);
        c.set("lock_releases", self.lock_releases);
        c.set("l1d_hits", self.l1d_hits);
        c.set("l1d_misses", self.l1d_misses);
        c.set("l1d_miss_coalesced", self.l1d_miss_coalesced);
        c.set("l1i_hits", self.l1i_hits);
        c.set("l1i_misses", self.l1i_misses);
        c.set("writebacks", self.writebacks);
        c.set("invalidations_received", self.invalidations_received);
        c.set("downgrades_received", self.downgrades_received);
        c.set("stall_window", self.stall_window);
        c.set("stall_mshr", self.stall_mshr);
        c.set("stall_sync", self.stall_sync);
        c.set("stall_fetch", self.stall_fetch);
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
        assert_eq!(core.hot.committed, 0);
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
        let ipc = core.hot.committed as f64 / 200.0;
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
        assert_eq!(core.l1d_misses, 1);
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
        let before = core.hot.committed;
        for t in 2..40 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert!(core.hot.committed > before);
        // Subsequent loads to the same line hit.
        assert!(core.l1d_hits > 0);
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
        assert_eq!(core.invalidations_received, 1);
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
        let before = core.hot.committed;
        for t in t_arrive + 1..t_arrive + 10 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert_eq!(core.hot.committed, before);
        assert!(core.stall_sync > 0);
        // Release resumes issue.
        inbox.deliver(Timestamped::new(
            Cycle::new(t_arrive + 10),
            MemEvent::BarrierRelease { id },
        ));
        for t in t_arrive + 10..t_arrive + 30 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert!(core.hot.committed > before);
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
        let before = core.hot.committed;
        for t in 2..10 {
            tick_at(&mut core, &mut inbox, t);
        }
        assert_eq!(core.hot.committed, before, "spinning while lock is pending");
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
        assert!(core.mispredicts > 0);
        assert!(core.stall_fetch > 0);
        // Every other instruction mispredicts: IPC far below width.
        assert!((core.hot.committed as f64) < 100.0);
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
            assert!(core.window.len() <= core.cfg.window);
            assert!(core.mshrs.len() <= core.cfg.mshrs);
        }
        assert!(core.stall_mshr > 0);
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
        assert_eq!(core.mshrs.len(), 1);
        assert_eq!(core.mshrs[0].waiters.len(), 2);
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
        core.mshrs.push(Mshr {
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
        assert_eq!(core.writebacks, 1);
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
        assert_eq!(restored.hot.fetched, live.hot.fetched);
        assert_eq!(restored.pending, live.pending);
        assert_eq!(restored.window, live.window);
        assert_eq!(restored.mshrs, live.mshrs);
        assert_eq!(restored.wait, live.wait);

        // Both copies must behave identically forward under the same
        // event sequence, including stream draws past the snapshot.
        let mut ia = Inbox::new();
        let mut ib = Inbox::new();
        for (pos, m) in live.mshrs.clone().into_iter().enumerate() {
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
        assert!(live.hot.committed > 0);
        assert_eq!(CoreModel::counters(&restored), CoreModel::counters(&live));
    }

    #[test]
    fn load_rejects_oversized_and_truncated_state() {
        let mut live = core_with(vec![Op::IntAlu]);
        run_ticks(&mut live, 10);
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut truncated = core_with(vec![Op::IntAlu]);
        let mut r = ByteReader::new(&bytes[..bytes.len() / 2]);
        assert!(truncated.load_state(&mut r).is_err());

        // A window-count word larger than the configured window must be
        // rejected rather than allocated.
        let mut forged = ByteWriter::new();
        forged.u64(0); // fetched
        forged.bool(false); // pending
        forged.u32(u32::MAX); // window length
        let forged = forged.into_bytes();
        let mut target = core_with(vec![Op::IntAlu]);
        let mut r = ByteReader::new(&forged);
        assert!(matches!(
            target.load_state(&mut r),
            Err(PersistError::Corrupt(_))
        ));
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
        assert_eq!(snap.hot.committed, 0, "the clone did not advance");
        let mut inbox_b = Inbox::new();
        prime_icache(&mut snap, &mut inbox_b);
        for t in 1..50 {
            tick_at(&mut snap, &mut inbox_b, t);
        }
        assert_eq!(snap.hot.committed, core.hot.committed);
        assert_eq!(
            CoreModel::counters(&snap),
            CoreModel::counters(&core),
            "identical histories must give identical statistics"
        );
    }

    #[test]
    fn core_hot_soa_round_trips_against_live_cores() {
        // Three heterogeneous cores: plain ALU, a mispredicting branch
        // stream (nonzero front-end stall deadline), and unserviced loads
        // (occupied window) — every SoA column gets a distinct value.
        let mut cores = vec![
            core_with(vec![Op::IntAlu]),
            core_with(vec![Op::Branch { mispredict: true }, Op::IntAlu]),
            core_with(vec![Op::Load { addr: 0x8000 }, Op::Load { addr: 0x9000 }]),
        ];
        for (i, core) in cores.iter_mut().enumerate() {
            let mut inbox = Inbox::new();
            prime_icache(core, &mut inbox);
            // Different histories per core so the columns differ.
            for t in 1..(10 + 13 * i as u64) {
                tick_at(core, &mut inbox, t);
            }
        }
        assert!(cores[1].mispredicts > 0, "branch core must have stalled");
        assert!(!cores[2].window.is_empty(), "load core must hold entries");

        let soa = CoreHotSoA::gather(&cores);
        assert_eq!(soa.len(), 3);
        assert!(!soa.is_empty());
        for (i, core) in cores.iter().enumerate() {
            assert_eq!(soa.local_clock[i], core.hot.cycles);
            assert_eq!(soa.committed[i], core.hot.committed);
            assert_eq!(soa.window_len[i] as usize, core.window.len());
            assert_eq!(soa.next_fetch[i], core.hot.fetched);
            assert_eq!(
                soa.fetch_stall_until[i],
                core.hot.fetch_stall_until.as_u64()
            );
        }

        // Scatter writes every owned column back field-for-field; a
        // second gather reproduces the mutated arrays exactly.
        let mut mutated = soa.clone();
        for i in 0..mutated.len() {
            mutated.local_clock[i] += 7;
            mutated.committed[i] += 3;
            mutated.next_fetch[i] += 1;
            mutated.fetch_stall_until[i] += 5;
        }
        mutated.scatter_into(&mut cores);
        for (i, core) in cores.iter().enumerate() {
            assert_eq!(core.hot.cycles, mutated.local_clock[i]);
            assert_eq!(core.hot.committed, mutated.committed[i]);
            assert_eq!(core.hot.fetched, mutated.next_fetch[i]);
            assert_eq!(
                core.hot.fetch_stall_until.as_u64(),
                mutated.fetch_stall_until[i]
            );
        }
        assert_eq!(CoreHotSoA::gather(&cores), mutated);
    }

    #[test]
    fn core_hot_soa_survives_delta_and_byte_persistence() {
        // The hot/cold split must be invisible to both checkpoint paths:
        // a delta-reconstructed clone and a byte-round-tripped core
        // project to the same SoA columns as the live core.
        let ops = vec![
            Op::IntAlu,
            Op::Load { addr: 0x8000 },
            Op::Branch { mispredict: true },
        ];
        let mut live = core_with(ops.clone());
        let mut inbox = Inbox::new();
        prime_icache(&mut live, &mut inbox);
        for t in 1..15 {
            tick_at(&mut live, &mut inbox, t);
        }
        let mut snap = live.clone();
        let g0 = Checkpointable::generation(&live);
        let _ = live.capture_delta(g0);
        for t in 15..60 {
            tick_at(&mut live, &mut inbox, t);
        }
        snap.apply_delta(live.capture_delta(g0));

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = core_with(ops);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).unwrap();

        let expect = CoreHotSoA::gather(std::slice::from_ref(&live));
        assert_eq!(CoreHotSoA::gather(std::slice::from_ref(&snap)), expect);
        assert_eq!(CoreHotSoA::gather(std::slice::from_ref(&restored)), expect);
        assert!(expect.committed[0] > 0, "the run actually progressed");
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
            assert_eq!(slow.hot, fast.hot, "window {w}: hot state diverged");
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
        assert!(core.hot.committed > 0);
        assert!(core.stall_fetch > 0, "mispredicts exercised the fetch skip");
    }

    #[test]
    fn run_window_fast_forwards_sync_spins_identically() {
        let core =
            assert_run_window_matches(vec![Op::IntAlu, Op::Barrier { id: 0 }, Op::IntAlu], 8, 50);
        assert!(core.stall_sync > 0, "barrier spins exercised the sync skip");
        assert!(core.hot.committed > 0);
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
            core.stall_window > 0,
            "full windows exercised the window skip"
        );
    }
}
