//! Set-associative cache tag arrays with LRU replacement and per-line
//! MESI state.
//!
//! The simulation is timing-only: caches track tags and coherence state,
//! never data values (the synthetic workloads carry no architectural
//! values, and slack-simulation accuracy is about *timing* of shared
//! accesses — see `DESIGN.md` §4).

use crate::mesi::MesiState;
use slacksim_core::checkpoint::{Checkpointable, Tracking};
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};

/// A cache-line address: the byte address shifted right by the line-size
/// log2. All coherence structures (L1s, L2, bus, cache status map) operate
/// on line addresses.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::cache::LineAddr;
///
/// let l = LineAddr::from_byte_addr(0x1234, 32);
/// assert_eq!(l.raw(), 0x1234 / 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Maps a byte address onto its line, given the line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn from_byte_addr(addr: u64, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(addr >> line_bytes.trailing_zeros())
    }

    /// The raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line:0x{:x}", self.0)
    }
}

/// The raw line number.
impl Persist for LineAddr {
    fn save(&self, w: &mut ByteWriter) {
        w.u64(self.0);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(LineAddr(r.u64()?))
    }
}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's L1 configuration: 16 KB, 4-way, 32 B lines.
    pub const fn l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 32,
        }
    }

    /// The paper's shared L2 configuration: 256 KB, 8-way, 32 B lines.
    pub const fn l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: 32,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero ways, non-power-of-two
    /// line size, or capacity not divisible into sets).
    pub fn sets(&self) -> usize {
        assert!(self.ways >= 1, "cache must have at least one way");
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        sets as usize
    }
}

/// Bits of a slot's packed metadata word that hold its MESI state; the
/// LRU stamp (smaller = more recently used) sits above them, so stamps
/// compare and step on the packed word directly.
const STATE_BITS: u32 = 2;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;
/// One LRU step in the packed word.
const LRU_ONE: u32 = 1 << STATE_BITS;
/// The largest LRU stamp a packed word holds.
const MAX_LRU: u32 = u32::MAX >> STATE_BITS;

/// Packs a slot's state and LRU stamp (`lru <= MAX_LRU`).
#[inline]
fn pack(state: MesiState, lru: u32) -> u32 {
    (lru << STATE_BITS) | state as u32
}

/// The state half of a packed word: the inverse of the declaration-order
/// code `pack` stores.
#[inline]
fn state_of(meta: u32) -> MesiState {
    match meta & STATE_MASK {
        0 => MesiState::Modified,
        1 => MesiState::Exclusive,
        2 => MesiState::Shared,
        _ => MesiState::Invalid,
    }
}

/// Probe statistics: the cache's untracked scalars, carried whole by
/// every delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Probes {
    hits: u64,
    misses: u64,
}

slacksim_core::persist_fields! { Probes { hits, misses } }

/// A set-associative, LRU, timing-only cache.
///
/// The tag store is three flat arrays: set `s` owns slots
/// `s * ways .. s * ways + lens[s]` of `tags` (the line tags) and `meta`
/// (each slot's MESI state and LRU stamp, packed in one word). Slots past
/// a set's length are stale and never read. A fill appends at the set's
/// length and a removal moves the set's last slot into the hole, so the
/// slot order — which decides LRU ties and the snapshot bytes — is that
/// of a vector per set under `push` and `swap_remove`.
///
/// The cache tracks which sets mutated since a capture generation so that
/// speculative-slack checkpoints can capture per-set deltas instead of
/// cloning every tag array (see [`Checkpointable`]). A set is the honest
/// dirty granularity: touching one line reorders the LRU stamps of its
/// sibling ways, so a line-level dirty bit would have to smear across the
/// set anyway. The *payload* stays line-granular — a dirty set contributes
/// only its resident lines (at most `ways` of them).
///
/// # Examples
///
/// ```
/// use slacksim_cmp::cache::{Cache, CacheConfig, LineAddr};
/// use slacksim_cmp::mesi::MesiState;
///
/// let mut c = Cache::new(CacheConfig::l1());
/// let line = LineAddr::new(0x40);
/// assert_eq!(c.probe(line), None); // miss
/// c.fill(line, MesiState::Exclusive);
/// assert_eq!(c.probe(line), Some(MesiState::Exclusive));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line tags, `ways` slots per set.
    tags: Vec<u64>,
    /// Packed state and LRU stamp per slot, parallel to `tags`.
    meta: Vec<u32>,
    /// Resident lines per set.
    lens: Vec<u8>,
    set_mask: u64,
    /// `set_mask.count_ones()`, the tag shift: derived from the geometry
    /// at construction (baseline x86-64 has no POPCNT instruction).
    set_bits: u32,
    probes: Probes,
    /// Mutation generation (never rewound by restores).
    gen: Tracking<u64>,
    /// Per-set dirty stamps: `set_stamps[s] > since` means set `s` mutated
    /// after generation `since`.
    set_stamps: Tracking<Vec<u64>>,
}

/// Equal geometry, probe statistics and resident slots; stale slots and
/// tracking metadata are not state.
impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.probes == other.probes
            && self.lens == other.lens
            && (0..self.lens.len()).all(|set| {
                let live = self.live(set);
                self.tags[live.clone()] == other.tags[live.clone()]
                    && self.meta[live.clone()] == other.meta[live]
            })
    }
}

impl Eq for Cache {}

/// Incremental state carrier for a [`Cache`]: the contents of every set
/// mutated since the capture baseline, plus the probe statistics.
#[derive(Debug, Clone)]
pub struct CacheDelta {
    gen: u64,
    payload: CachePayload,
    probes: Probes,
}

/// How the dirty sets travel.
#[derive(Debug, Clone)]
enum CachePayload {
    /// Per dirty set in ascending order, its index and length; the sets'
    /// resident slots follow one another in `tags` and `meta`. Capture
    /// copies exactly the dirty slices and apply copies them back.
    Sparse {
        sets: Vec<(u32, u8)>,
        tags: Vec<u64>,
        meta: Vec<u32>,
    },
    /// Bulk fallback once almost every set is dirty (short checkpoint
    /// intervals leave L1 tag arrays fully churned): clones of the flat
    /// arrays and the stamps, which apply moves into place.
    Dense {
        /// Dirty-set count at capture (observability only).
        dirty: u32,
        tags: Vec<u64>,
        meta: Vec<u32>,
        lens: Vec<u8>,
        set_stamps: Vec<u64>,
    },
}

impl CacheDelta {
    /// Number of sets dirty since the capture baseline.
    pub fn dirty_sets(&self) -> usize {
        match &self.payload {
            CachePayload::Sparse { sets, .. } => sets.len(),
            CachePayload::Dense { dirty, .. } => *dirty as usize,
        }
    }

    /// Number of resident lines carried in the payload.
    pub fn payload_lines(&self) -> usize {
        match &self.payload {
            CachePayload::Sparse { tags, .. } => tags.len(),
            CachePayload::Dense { lens, .. } => lens.iter().map(|&n| usize::from(n)).sum(),
        }
    }
}

/// Outcome of [`Cache::probe_writable_modify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreProbe {
    /// Writable copy was resident: the line is now Modified and the hit
    /// was counted.
    Written,
    /// The line is resident but not writable (Shared): an upgrade is
    /// required. Nothing was mutated.
    NeedsUpgrade,
    /// The line is not resident: a read-for-ownership is required.
    /// Nothing was mutated.
    Absent,
}

impl Cache {
    /// Creates an empty cache with the given geometry. The tag store is
    /// allocated zeroed and written by nothing until lines arrive.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(cfg.ways <= usize::from(u8::MAX), "too many ways per set");
        Cache {
            cfg,
            tags: vec![0; sets * cfg.ways],
            meta: vec![0; sets * cfg.ways],
            lens: vec![0; sets],
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64 - 1).count_ones(),
            probes: Probes::default(),
            gen: Tracking(0),
            set_stamps: Tracking(vec![0; sets]),
        }
    }

    /// Stamps a set as mutated at a fresh generation.
    #[inline]
    fn touch(&mut self, set: usize) {
        *self.gen += 1;
        self.set_stamps[set] = *self.gen;
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, line: LineAddr) -> u64 {
        line.raw() >> self.set_bits
    }

    /// The flat-array range of a set's resident slots.
    #[inline]
    fn live(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.cfg.ways;
        base..base + usize::from(self.lens[set])
    }

    /// The set and flat slot index of a resident line.
    #[inline]
    fn find(&self, line: LineAddr) -> (usize, Option<usize>) {
        let set = self.set_index(line);
        let tag = self.tag(line);
        let live = self.live(set);
        let base = live.start;
        let slot = self.tags[live].iter().position(|&t| t == tag);
        (set, slot.map(|pos| base + pos))
    }

    /// Makes `slot` its set's most recently used line: every more recent
    /// line ages one step.
    #[inline]
    fn make_mru(&mut self, set: usize, slot: usize) {
        let touched = self.meta[slot] & !STATE_MASK;
        let live = self.live(set);
        for m in &mut self.meta[live] {
            if *m < touched {
                *m += LRU_ONE;
            }
        }
        self.meta[slot] &= STATE_MASK;
    }

    /// Looks the line up, updating LRU and hit/miss statistics. Returns
    /// the line's state if resident.
    pub fn probe(&mut self, line: LineAddr) -> Option<MesiState> {
        let state = self.probe_if_resident(line);
        if state.is_none() {
            // Only the miss counter moved; deltas carry the statistics
            // scalars unconditionally, so no set needs stamping.
            self.probes.misses += 1;
        }
        state
    }

    /// Combined lookup for the issue path: behaves exactly like a pure
    /// [`peek`](Cache::peek) followed — only on a hit — by a
    /// [`probe`](Cache::probe), in a single set scan. On a hit the LRU
    /// stack, hit counter and set stamp update as `probe` would; on a miss
    /// *nothing* moves (in particular, no miss is counted — the pipeline's
    /// miss bookkeeping lives in the core's MSHR path, which `peek`-then-
    /// `probe` call sites never reached on a miss either).
    #[inline]
    pub fn probe_if_resident(&mut self, line: LineAddr) -> Option<MesiState> {
        let (set, slot) = self.find(line);
        let slot = slot?;
        self.make_mru(set, slot);
        self.probes.hits += 1;
        self.touch(set);
        Some(state_of(self.meta[slot]))
    }

    /// Combined store lookup: one set scan deciding the write path. A
    /// writable hit performs the full hit sequence (`peek` + `probe` +
    /// `set_state(Modified)`) in place; the other outcomes mutate nothing,
    /// matching the pure `peek` those call sites used to issue.
    #[inline]
    pub fn probe_writable_modify(&mut self, line: LineAddr) -> StoreProbe {
        let (set, slot) = self.find(line);
        let Some(slot) = slot else {
            return StoreProbe::Absent;
        };
        if !state_of(self.meta[slot]).writable() {
            return StoreProbe::NeedsUpgrade;
        }
        self.make_mru(set, slot);
        self.meta[slot] = pack(MesiState::Modified, 0);
        self.probes.hits += 1;
        self.touch(set);
        StoreProbe::Written
    }

    /// Re-probe of the line most recently probed in this cache: counts
    /// the hit and stamps the set without rescanning. Equivalent to
    /// [`probe`](Cache::probe) of the set's MRU line — the LRU stack is
    /// already in post-probe order, so touching it again is the identity.
    ///
    /// Callers must guarantee `line` was the last line probed and that no
    /// fill/invalidate/state change happened since (the issue loop's
    /// same-I-line fast path re-fetching from one cache line).
    #[inline]
    pub fn reprobe_mru(&mut self, line: LineAddr) {
        let set = self.set_index(line);
        debug_assert_eq!(
            self.live(set)
                .find(|&slot| self.meta[slot] & !STATE_MASK == 0)
                .map(|slot| self.tags[slot]),
            Some(self.tag(line)),
            "reprobe_mru caller invariant: line must be the set's MRU"
        );
        self.probes.hits += 1;
        self.touch(set);
    }

    /// Looks the line up without touching LRU or statistics (snoops).
    pub fn peek(&self, line: LineAddr) -> Option<MesiState> {
        let (_, slot) = self.find(line);
        slot.map(|slot| state_of(self.meta[slot]))
    }

    /// Changes the state of a resident line; no-op when absent. Returns
    /// whether the line was resident.
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        let (set, slot) = self.find(line);
        let Some(slot) = slot else {
            return false;
        };
        self.meta[slot] = pack(state, self.meta[slot] >> STATE_BITS);
        self.touch(set);
        true
    }

    /// Inserts a line in the given state, evicting the LRU way if the set
    /// is full. Returns the evicted line and its state, if any.
    ///
    /// Filling a line that is already resident just updates its state.
    pub fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<(LineAddr, MesiState)> {
        let (set, slot) = self.find(line);
        if let Some(slot) = slot {
            self.make_mru(set, slot);
            self.meta[slot] = pack(state, 0);
            self.touch(set);
            return None;
        }

        let victim = if usize::from(self.lens[set]) == self.cfg.ways {
            // The last of equally old slots, as `Iterator::max_by_key`
            // picks it.
            let live = self.live(set);
            let slot = live
                .max_by_key(|&slot| self.meta[slot] >> STATE_BITS)
                .expect("full set has ways");
            let (tag, meta) = (self.tags[slot], self.meta[slot]);
            self.swap_remove(set, slot);
            let victim_line = LineAddr::new((tag << self.set_bits) | set as u64);
            Some((victim_line, state_of(meta)))
        } else {
            None
        };

        let live = self.live(set);
        for m in &mut self.meta[live.clone()] {
            *m += LRU_ONE;
        }
        self.tags[live.end] = self.tag(line);
        self.meta[live.end] = pack(state, 0);
        self.lens[set] += 1;
        self.touch(set);
        victim
    }

    /// Removes `slot` from `set` by moving the set's last slot into it.
    #[inline]
    fn swap_remove(&mut self, set: usize, slot: usize) {
        let last = self.live(set).end - 1;
        self.tags[slot] = self.tags[last];
        self.meta[slot] = self.meta[last];
        self.lens[set] -= 1;
    }

    /// Removes a line, returning its state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let (set, slot) = self.find(line);
        let slot = slot?;
        let state = state_of(self.meta[slot]);
        self.swap_remove(set, slot);
        self.touch(set);
        Some(state)
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.lens.iter().map(|&n| usize::from(n)).sum()
    }

    /// Probe hits so far.
    pub fn hits(&self) -> u64 {
        self.probes.hits
    }

    /// Probe misses so far.
    pub fn misses(&self) -> u64 {
        self.probes.misses
    }

    /// Appends the cache's snapshot bytes: per set, its resident lines
    /// (tag, MESI state, LRU stamp), then the probe statistics. The
    /// geometry is construction-time configuration: it shapes the layout
    /// and is validated on load, never stored.
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.u32(self.lens.len() as u32);
        for set in 0..self.lens.len() {
            w.u16(u16::from(self.lens[set]));
            for slot in self.live(set) {
                w.u64(self.tags[slot]);
                state_of(self.meta[slot]).save(w);
                w.u32(self.meta[slot] >> STATE_BITS);
            }
        }
        self.probes.save(w);
    }

    /// Reads bytes written by [`Cache::save_state`] into a cache of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] if the bytes are malformed or describe a
    /// different geometry.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        if r.u32()? as usize != self.lens.len() {
            return Err(PersistError::Corrupt("cache set count mismatch"));
        }
        for set in 0..self.lens.len() {
            let n = usize::from(r.u16()?);
            if n > self.cfg.ways {
                return Err(PersistError::Corrupt("cache set holds more ways than fit"));
            }
            let base = set * self.cfg.ways;
            for slot in base..base + n {
                self.tags[slot] = r.u64()?;
                let state = MesiState::load(r)?;
                let lru = r.u32()?;
                if lru > MAX_LRU {
                    return Err(PersistError::Corrupt("cache LRU stamp out of range"));
                }
                self.meta[slot] = pack(state, lru);
            }
            self.lens[set] = n as u8;
        }
        self.probes = Probes::load(r)?;
        Ok(())
    }
}

impl Checkpointable for Cache {
    type Delta = CacheDelta;

    fn generation(&self) -> u64 {
        *self.gen
    }

    fn capture_delta(&mut self, since_gen: u64) -> CacheDelta {
        let n_dirty = self.set_stamps.iter().filter(|&&s| s > since_gen).count();
        // Past ~7/8 dirty, the per-set index bookkeeping outweighs what
        // cloning the few clean sets would cost; carry the whole arrays
        // and let apply move them in wholesale.
        let payload = if n_dirty * 8 >= self.lens.len() * 7 {
            CachePayload::Dense {
                dirty: n_dirty as u32,
                tags: self.tags.clone(),
                meta: self.meta.clone(),
                lens: self.lens.clone(),
                set_stamps: self.set_stamps.to_vec(),
            }
        } else {
            let mut sets = Vec::with_capacity(n_dirty);
            let mut tags = Vec::with_capacity(n_dirty * self.cfg.ways);
            let mut meta = Vec::with_capacity(n_dirty * self.cfg.ways);
            for (set, &stamp) in self.set_stamps.iter().enumerate() {
                if stamp > since_gen {
                    sets.push((set as u32, self.lens[set]));
                    tags.extend_from_slice(&self.tags[self.live(set)]);
                    meta.extend_from_slice(&self.meta[self.live(set)]);
                }
            }
            CachePayload::Sparse { sets, tags, meta }
        };
        CacheDelta {
            gen: *self.gen,
            payload,
            probes: self.probes,
        }
    }

    fn apply_delta(&mut self, delta: CacheDelta) {
        match delta.payload {
            CachePayload::Sparse { sets, tags, meta } => {
                let mut from = 0;
                for (set, n) in sets {
                    let set = set as usize;
                    let to = set * self.cfg.ways;
                    let n_slots = usize::from(n);
                    self.tags[to..to + n_slots].copy_from_slice(&tags[from..from + n_slots]);
                    self.meta[to..to + n_slots].copy_from_slice(&meta[from..from + n_slots]);
                    self.lens[set] = n;
                    self.set_stamps[set] = delta.gen;
                    from += n_slots;
                }
            }
            CachePayload::Dense {
                tags,
                meta,
                lens,
                set_stamps,
                ..
            } => {
                self.tags = tags;
                self.meta = meta;
                self.lens = lens;
                *self.set_stamps = set_stamps;
            }
        }
        *self.gen = (*self.gen).max(delta.gen);
        self.probes = delta.probes;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        for set in 0..self.lens.len() {
            if self.set_stamps[set] > since_gen {
                let live = base.live(set);
                self.tags[live.clone()].copy_from_slice(&base.tags[live.clone()]);
                self.meta[live.clone()].copy_from_slice(&base.meta[live]);
                self.lens[set] = base.lens[set];
            }
        }
        self.probes = base.probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets × 2 ways × 32 B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
        })
    }

    /// A line that maps to set `set` with a distinct tag.
    fn line(set: u64, tag: u64) -> LineAddr {
        LineAddr::new((tag << 1) | set)
    }

    #[test]
    fn byte_addr_mapping() {
        assert_eq!(LineAddr::from_byte_addr(0, 32), LineAddr::new(0));
        assert_eq!(LineAddr::from_byte_addr(31, 32), LineAddr::new(0));
        assert_eq!(LineAddr::from_byte_addr(32, 32), LineAddr::new(1));
        assert_eq!(LineAddr::from_byte_addr(0x1000, 64), LineAddr::new(0x40));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_size_rejected() {
        let _ = LineAddr::from_byte_addr(0, 48);
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::l1().sets(), 128);
        assert_eq!(CacheConfig::l2().sets(), 1024);
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = small();
        let l = line(0, 1);
        assert_eq!(c.probe(l), None);
        assert!(c.fill(l, MesiState::Shared).is_none());
        assert_eq!(c.probe(l), Some(MesiState::Shared));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        let a = line(0, 1);
        let b = line(0, 2);
        let d = line(0, 3);
        c.fill(a, MesiState::Exclusive);
        c.fill(b, MesiState::Exclusive);
        // Touch `a` so `b` becomes LRU.
        assert!(c.probe(a).is_some());
        let evicted = c.fill(d, MesiState::Exclusive);
        assert_eq!(evicted, Some((b, MesiState::Exclusive)));
        assert!(c.peek(a).is_some());
        assert!(c.peek(d).is_some());
        assert!(c.peek(b).is_none());
    }

    #[test]
    fn fill_existing_updates_state_without_eviction() {
        let mut c = small();
        let l = line(1, 7);
        c.fill(l, MesiState::Shared);
        assert!(c.fill(l, MesiState::Modified).is_none());
        assert_eq!(c.peek(l), Some(MesiState::Modified));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        c.fill(line(0, 1), MesiState::Exclusive);
        c.fill(line(0, 2), MesiState::Exclusive);
        // Filling set 1 must not evict from set 0.
        assert!(c.fill(line(1, 1), MesiState::Exclusive).is_none());
        assert_eq!(c.resident(), 3);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = small();
        let l = line(0, 4);
        assert!(!c.set_state(l, MesiState::Modified));
        c.fill(l, MesiState::Exclusive);
        assert!(c.set_state(l, MesiState::Modified));
        assert_eq!(c.invalidate(l), Some(MesiState::Modified));
        assert_eq!(c.invalidate(l), None);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn peek_does_not_count_stats() {
        let mut c = small();
        let l = line(0, 1);
        c.fill(l, MesiState::Shared);
        let (h, m) = (c.hits(), c.misses());
        let _ = c.peek(l);
        let _ = c.peek(line(0, 9));
        assert_eq!((c.hits(), c.misses()), (h, m));
    }

    #[test]
    fn victim_line_reconstruction_roundtrip() {
        // The evicted LineAddr must map back to the same set/tag.
        let mut c = small();
        let a = line(1, 5);
        let b = line(1, 6);
        let d = line(1, 7);
        c.fill(a, MesiState::Modified);
        c.fill(b, MesiState::Shared);
        c.probe(b);
        let (victim, st) = c.fill(d, MesiState::Exclusive).expect("eviction");
        assert_eq!(victim, a);
        assert_eq!(st, MesiState::Modified);
    }

    #[test]
    fn delta_captures_only_dirty_sets() {
        let mut live = small();
        live.fill(line(0, 1), MesiState::Exclusive);
        let mut base = live.clone();
        let gen = live.generation();

        // Mutate set 1 only; set 0 stays clean.
        live.fill(line(1, 2), MesiState::Modified);
        live.probe(line(1, 2));
        let delta = live.capture_delta(gen);
        assert_eq!(delta.dirty_sets(), 1, "only set 1 mutated");
        assert_eq!(delta.payload_lines(), 1);

        base.apply_delta(delta);
        assert_eq!(base, live, "apply reproduces the live state");
    }

    #[test]
    fn capture_at_current_generation_is_empty() {
        let mut c = small();
        c.fill(line(0, 1), MesiState::Shared);
        let gen = c.generation();
        let delta = c.capture_delta(gen);
        assert_eq!(delta.dirty_sets(), 0);
    }

    #[test]
    fn restore_rewinds_only_dirty_sets_and_statistics() {
        let mut live = small();
        live.fill(line(0, 1), MesiState::Exclusive);
        live.probe(line(0, 1));
        let base = live.clone();
        let gen = live.generation();

        live.fill(line(0, 2), MesiState::Modified);
        live.invalidate(line(0, 1));
        live.probe(line(1, 9)); // miss: statistics move, no set dirtied
        live.restore_from(&base, gen);
        assert_eq!(live, base, "restore rewinds to the checkpoint");

        // Post-restore mutations are captured relative to the checkpoint
        // generation (stamps are never rewound).
        live.fill(line(1, 3), MesiState::Shared);
        let mut patched = base.clone();
        patched.apply_delta(live.capture_delta(gen));
        assert_eq!(patched, live);
    }

    #[test]
    fn equality_ignores_tracking_metadata() {
        let mut a = small();
        let mut b = small();
        a.fill(line(0, 1), MesiState::Shared);
        b.fill(line(0, 1), MesiState::Shared);
        // Same state reached with extra self-cancelling churn in `b`.
        b.set_state(line(0, 1), MesiState::Modified);
        b.set_state(line(0, 1), MesiState::Shared);
        assert!(b.generation() > a.generation());
        assert_eq!(a, b, "generations are not part of model state");
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut c = small();
        c.fill(line(0, 1), MesiState::Exclusive);
        c.fill(line(0, 2), MesiState::Shared);
        c.probe(line(0, 1));
        c.fill(line(1, 7), MesiState::Modified);
        c.probe(line(1, 9)); // miss: statistics-only mutation

        let mut w = ByteWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = small();
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, c);
        assert_eq!(restored.hits(), c.hits());
        assert_eq!(restored.misses(), c.misses());
        // LRU order must survive too: the next eviction picks the same
        // victim in both caches.
        let probe = line(0, 3);
        assert_eq!(
            restored.fill(probe, MesiState::Exclusive),
            c.fill(probe, MesiState::Exclusive)
        );
    }

    #[test]
    fn load_rejects_wrong_geometry_and_truncation() {
        let mut c = small();
        c.fill(line(0, 1), MesiState::Shared);
        let mut w = ByteWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();

        // Different geometry: 4 sets instead of 2.
        let mut other = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
        });
        assert!(other.load_state(&mut ByteReader::new(&bytes)).is_err());

        // Truncated stream errors instead of panicking.
        let mut short = small();
        assert!(short
            .load_state(&mut ByteReader::new(&bytes[..bytes.len() - 3]))
            .is_err());
    }

    #[test]
    fn paper_l1_capacity() {
        let mut c = Cache::new(CacheConfig::l1());
        // 16 KB / 32 B = 512 lines fit without eviction when addresses are
        // spread across all sets and ways.
        for i in 0..512u64 {
            assert!(c.fill(LineAddr::new(i), MesiState::Exclusive).is_none());
        }
        assert_eq!(c.resident(), 512);
        assert!(c.fill(LineAddr::new(512), MesiState::Exclusive).is_some());
    }
}
