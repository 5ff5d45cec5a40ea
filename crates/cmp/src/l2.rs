//! The shared L2 cache simulated by the manager thread.
//!
//! Timing-only: 8-cycle hits, 100-cycle misses to memory (paper §2.1).
//! Dirty L1 writebacks land here; dirty L2 victims count as memory writes.

use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};
use slacksim_core::time::Cycle;

use crate::cache::{Cache, CacheConfig, CacheDelta, LineAddr};
use crate::mesi::MesiState;

/// Result of an L2 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Access {
    /// Cycle at which the data is available, given the access started at
    /// the bus-grant cycle.
    pub data_ready: Cycle,
    /// Whether the access hit in the L2.
    pub hit: bool,
}

/// The shared L2 bank.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::cache::LineAddr;
/// use slacksim_cmp::l2::L2;
/// use slacksim_core::time::Cycle;
///
/// let mut l2 = L2::new(slacksim_cmp::cache::CacheConfig::l2(), 8, 100);
/// let miss = l2.access(LineAddr::new(7), Cycle::new(0));
/// assert!(!miss.hit);
/// assert_eq!(miss.data_ready, Cycle::new(100));
/// let hit = l2.access(LineAddr::new(7), Cycle::new(200));
/// assert!(hit.hit);
/// assert_eq!(hit.data_ready, Cycle::new(208));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2 {
    cache: Cache,
    hit_latency: u64,
    miss_latency: u64,
    /// Line bits that chose this slice of a [split](L2::split) L2 (0 for
    /// a whole one): the cache sees line `l` as `l >> shift`.
    shift: u32,
    stats: L2Stats,
}

/// Writeback counters: the L2's untracked scalars, carried whole by every
/// delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct L2Stats {
    writebacks_in: u64,
    memory_writes: u64,
}

slacksim_core::persist_fields! { L2Stats { writebacks_in, memory_writes } }

impl L2 {
    /// Creates an empty L2 with the given geometry and latencies.
    ///
    /// # Panics
    ///
    /// Panics if `miss_latency < hit_latency` (a miss includes the lookup).
    pub fn new(cfg: CacheConfig, hit_latency: u64, miss_latency: u64) -> Self {
        L2::split(cfg, hit_latency, miss_latency, 1)
            .next()
            .expect("one slice")
    }

    /// The L2 of [`L2::new`] split into `slices` (a power of two no larger
    /// than the set count) that hold no state in common: slice `h` holds
    /// the sets `s` with `s % slices == h`, as its sets `s / slices`, and
    /// so every line `l` with `l % slices == h`. Seen as `l / slices`,
    /// such a line keeps its set's tag, so a slice's sets are the whole
    /// L2's sets, byte for byte.
    pub(crate) fn split(
        cfg: CacheConfig,
        hit_latency: u64,
        miss_latency: u64,
        slices: usize,
    ) -> impl Iterator<Item = L2> {
        assert!(
            miss_latency >= hit_latency,
            "miss latency must cover the lookup"
        );
        assert!(
            slices.is_power_of_two() && slices <= cfg.sets(),
            "{slices} slices of {} sets",
            cfg.sets()
        );
        let slice = CacheConfig {
            size_bytes: cfg.size_bytes / slices as u64,
            ..cfg
        };
        (0..slices).map(move |_| L2 {
            cache: Cache::new(slice),
            hit_latency,
            miss_latency,
            shift: slices.trailing_zeros(),
            stats: L2Stats::default(),
        })
    }

    /// Performs a lookup-and-fill for a line requested on the bus at
    /// `grant`; misses fetch from memory and install the line.
    pub fn access(&mut self, line: LineAddr, grant: Cycle) -> L2Access {
        let line = LineAddr::new(line.raw() >> self.shift);
        if self.cache.probe(line).is_some() {
            L2Access {
                data_ready: grant + self.hit_latency,
                hit: true,
            }
        } else {
            if let Some((_victim, state)) = self.cache.fill(line, MesiState::Exclusive) {
                if state.dirty() {
                    self.stats.memory_writes += 1;
                }
            }
            L2Access {
                data_ready: grant + self.miss_latency,
                hit: false,
            }
        }
    }

    /// Absorbs a dirty L1 writeback.
    pub fn write_back(&mut self, line: LineAddr) {
        let line = LineAddr::new(line.raw() >> self.shift);
        self.stats.writebacks_in += 1;
        if let Some((_victim, state)) = self.cache.fill(line, MesiState::Modified) {
            if state.dirty() {
                self.stats.memory_writes += 1;
            }
        }
    }

    /// L2 probe hits so far.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// L2 probe misses so far.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Dirty L1 writebacks absorbed.
    pub fn writebacks_in(&self) -> u64 {
        self.stats.writebacks_in
    }

    /// Dirty L2 victims written to memory.
    pub fn memory_writes(&self) -> u64 {
        self.stats.memory_writes
    }

    /// Appends this model's snapshot bytes (DESIGN §13): the cache, then
    /// the writeback counters. The latencies are configuration, not
    /// stored.
    pub fn save_state(&self, w: &mut ByteWriter) {
        L2::save_slices(&[self], w);
    }

    /// Appends the snapshot bytes of the one L2 that `slices` split
    /// ([`L2::split`]): its sets in global order, then the counters
    /// summed.
    pub(crate) fn save_slices(slices: &[&L2], w: &mut ByteWriter) {
        let caches: Vec<&Cache> = slices.iter().map(|l| &l.cache).collect();
        Cache::save_slices(&caches, w);
        let sum = |f: fn(&L2) -> u64| slices.iter().map(|l| f(l)).sum();
        L2Stats {
            writebacks_in: sum(L2::writebacks_in),
            memory_writes: sum(L2::memory_writes),
        }
        .save(w);
    }

    /// Reads bytes written by `save_state` into this model, which must be
    /// freshly built from the configuration that wrote them.
    ///
    /// # Errors
    ///
    /// Returns a `PersistError` for malformed bytes or for state this
    /// configuration cannot hold.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        L2::load_slices(&mut [self], r)
    }

    /// Reads the bytes of one whole L2, as
    /// [`save_slices`](L2::save_slices) writes them, into the slices that
    /// split it; the counters load into the first.
    pub(crate) fn load_slices(
        slices: &mut [&mut L2],
        r: &mut ByteReader<'_>,
    ) -> Result<(), PersistError> {
        let mut caches: Vec<&mut Cache> = slices.iter_mut().map(|l| &mut l.cache).collect();
        Cache::load_slices(&mut caches, r)?;
        let stats = L2Stats::load(r)?;
        for (i, l2) in slices.iter_mut().enumerate() {
            l2.stats = if i == 0 { stats } else { L2Stats::default() };
        }
        Ok(())
    }
}

/// Incremental state carrier for the [`L2`]: the inner cache's dirty sets
/// plus the writeback scalars (latencies are configuration, never
/// captured).
#[derive(Debug, Clone)]
pub struct L2Delta {
    cache: CacheDelta,
    stats: L2Stats,
}

impl L2Delta {
    /// Number of dirty cache sets carried.
    pub fn dirty_sets(&self) -> usize {
        self.cache.dirty_sets()
    }
}

impl Checkpointable for L2 {
    type Delta = L2Delta;

    fn generation(&self) -> u64 {
        self.cache.generation()
    }

    fn capture_delta(&mut self, since_gen: u64) -> L2Delta {
        L2Delta {
            cache: self.cache.capture_delta(since_gen),
            stats: self.stats,
        }
    }

    fn apply_delta(&mut self, delta: L2Delta) {
        self.cache.apply_delta(delta.cache);
        self.stats = delta.stats;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        self.cache.restore_from(&base.cache, since_gen);
        self.stats = base.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2 {
        L2::new(
            CacheConfig {
                size_bytes: 256,
                ways: 2,
                line_bytes: 32,
            },
            8,
            100,
        )
    }

    #[test]
    fn miss_then_hit_latencies() {
        let mut l2 = l2();
        let a = l2.access(LineAddr::new(1), Cycle::new(50));
        assert!(!a.hit);
        assert_eq!(a.data_ready, Cycle::new(150));
        let b = l2.access(LineAddr::new(1), Cycle::new(200));
        assert!(b.hit);
        assert_eq!(b.data_ready, Cycle::new(208));
        assert_eq!(l2.hits(), 1);
        assert_eq!(l2.misses(), 1);
    }

    #[test]
    fn writeback_makes_line_resident_and_dirty() {
        let mut l2 = l2();
        l2.write_back(LineAddr::new(9));
        assert_eq!(l2.writebacks_in(), 1);
        assert!(l2.access(LineAddr::new(9), Cycle::new(0)).hit);
    }

    #[test]
    fn dirty_victim_counts_as_memory_write() {
        let mut l2 = l2();
        // 4 sets of 2 ways; lines 0, 4, 8 share set 0 (line % 4 == 0).
        l2.write_back(LineAddr::new(0)); // dirty
        l2.access(LineAddr::new(4), Cycle::new(0));
        l2.access(LineAddr::new(8), Cycle::new(0)); // evicts dirty line 0
        assert_eq!(l2.memory_writes(), 1);
    }

    #[test]
    fn clean_victim_is_silent() {
        let mut l2 = l2();
        l2.access(LineAddr::new(0), Cycle::new(0));
        l2.access(LineAddr::new(4), Cycle::new(0));
        l2.access(LineAddr::new(8), Cycle::new(0)); // evicts clean line
        assert_eq!(l2.memory_writes(), 0);
    }

    #[test]
    #[should_panic(expected = "miss latency must cover the lookup")]
    fn inconsistent_latencies_rejected() {
        let _ = L2::new(CacheConfig::l2(), 10, 5);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = l2();
        live.write_back(LineAddr::new(0));
        live.access(LineAddr::new(4), Cycle::new(0));
        live.access(LineAddr::new(8), Cycle::new(10));

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = l2();
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, live);
        assert_eq!(restored.writebacks_in(), live.writebacks_in());
        assert_eq!(restored.memory_writes(), live.memory_writes());
    }

    #[test]
    fn delta_roundtrip_matches_full_clone() {
        let mut live = l2();
        live.access(LineAddr::new(0), Cycle::new(0));
        let mut base = live.clone();
        let gen = live.generation();

        live.write_back(LineAddr::new(4));
        live.access(LineAddr::new(8), Cycle::new(10)); // evicts
        base.apply_delta(live.capture_delta(gen));
        assert_eq!(base, live);

        let cp = live.clone();
        let cp_gen = live.generation();
        live.access(LineAddr::new(12), Cycle::new(20));
        live.restore_from(&cp, cp_gen);
        assert_eq!(live, cp, "restore rewinds to the checkpoint");
    }
}
