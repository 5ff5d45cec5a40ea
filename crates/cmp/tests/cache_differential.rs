//! Differential test of the flat tag store: the production [`Cache`] and
//! an oracle holding each set as its own vector of ways (the tag store's
//! earlier layout, kept here verbatim in behaviour) are driven through the
//! same seeded operations — every lookup and mutation, plus interleaved
//! checkpoint captures, applies and restores — and must agree on every
//! return value, every victim, the probe statistics, the dirty-set
//! tracking and the snapshot bytes.
//!
//! The default test runs 10 k operations per geometry; the `#[ignore]`d
//! soak runs a million (`cargo test --release --test cache_differential
//! -- --ignored`).

use slacksim_cmp::cache::{Cache, CacheConfig, LineAddr, StoreProbe};
use slacksim_cmp::mesi::MesiState;
use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::persist::{ByteWriter, Persist};
use slacksim_core::rng::Xoshiro256;

/// One resident line of the oracle.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: MesiState,
    /// Smaller = more recently used.
    lru: u32,
}

/// The oracle: a vector of ways per set, LRU stamps per way, dirty sets
/// tracked by generation stamps, deltas carrying whole sets.
#[derive(Debug, Clone)]
struct OracleCache {
    ways: usize,
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    set_bits: u32,
    hits: u64,
    misses: u64,
    gen: u64,
    set_stamps: Vec<u64>,
}

/// The oracle's delta: every dirty set whole, plus the statistics.
struct OracleDelta {
    gen: u64,
    sets: Vec<(usize, Vec<Way>)>,
    hits: u64,
    misses: u64,
}

impl OracleCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        OracleCache {
            ways: cfg.ways,
            sets: vec![Vec::new(); sets],
            set_mask: sets as u64 - 1,
            set_bits: (sets as u64 - 1).count_ones(),
            hits: 0,
            misses: 0,
            gen: 0,
            set_stamps: vec![0; sets],
        }
    }

    fn touch(&mut self, set: usize) {
        self.gen += 1;
        self.set_stamps[set] = self.gen;
    }

    fn split(&self, line: LineAddr) -> (usize, u64) {
        (
            (line.raw() & self.set_mask) as usize,
            line.raw() >> self.set_bits,
        )
    }

    fn position(&self, line: LineAddr) -> (usize, Option<usize>) {
        let (set, tag) = self.split(line);
        (set, self.sets[set].iter().position(|w| w.tag == tag))
    }

    fn make_mru(ways: &mut [Way], pos: usize) {
        let touched = ways[pos].lru;
        for w in ways.iter_mut() {
            if w.lru < touched {
                w.lru += 1;
            }
        }
        ways[pos].lru = 0;
    }

    fn probe_if_resident(&mut self, line: LineAddr) -> Option<MesiState> {
        let (set, pos) = self.position(line);
        let pos = pos?;
        Self::make_mru(&mut self.sets[set], pos);
        self.hits += 1;
        self.touch(set);
        Some(self.sets[set][pos].state)
    }

    fn probe(&mut self, line: LineAddr) -> Option<MesiState> {
        let state = self.probe_if_resident(line);
        if state.is_none() {
            self.misses += 1;
        }
        state
    }

    fn probe_writable_modify(&mut self, line: LineAddr) -> StoreProbe {
        let (set, Some(pos)) = self.position(line) else {
            return StoreProbe::Absent;
        };
        if !self.sets[set][pos].state.writable() {
            return StoreProbe::NeedsUpgrade;
        }
        Self::make_mru(&mut self.sets[set], pos);
        self.sets[set][pos].state = MesiState::Modified;
        self.hits += 1;
        self.touch(set);
        StoreProbe::Written
    }

    fn reprobe_mru(&mut self, line: LineAddr) {
        let (set, tag) = self.split(line);
        let mru = self.sets[set].iter().find(|w| w.lru == 0).map(|w| w.tag);
        assert_eq!(
            mru,
            Some(tag),
            "reprobe of a line that is not its set's MRU"
        );
        self.hits += 1;
        self.touch(set);
    }

    fn peek(&self, line: LineAddr) -> Option<MesiState> {
        let (set, pos) = self.position(line);
        pos.map(|pos| self.sets[set][pos].state)
    }

    fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        let (set, Some(pos)) = self.position(line) else {
            return false;
        };
        self.sets[set][pos].state = state;
        self.touch(set);
        true
    }

    fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<(LineAddr, MesiState)> {
        let (set, tag) = self.split(line);
        let set_bits = self.set_bits;
        if let (_, Some(pos)) = self.position(line) {
            self.sets[set][pos].state = state;
            Self::make_mru(&mut self.sets[set], pos);
            self.touch(set);
            return None;
        }
        let ways = &mut self.sets[set];
        let victim = if ways.len() == self.ways {
            let pos = ways
                .iter()
                .enumerate()
                .max_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("full set has ways");
            let v = ways.swap_remove(pos);
            Some((LineAddr::new((v.tag << set_bits) | set as u64), v.state))
        } else {
            None
        };
        for w in ways.iter_mut() {
            w.lru += 1;
        }
        ways.push(Way { tag, state, lru: 0 });
        self.touch(set);
        victim
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let (set, pos) = self.position(line);
        let removed = pos.map(|pos| self.sets[set].swap_remove(pos).state);
        if removed.is_some() {
            self.touch(set);
        }
        removed
    }

    fn save_state(&self, w: &mut ByteWriter) {
        w.u32(self.sets.len() as u32);
        for ways in &self.sets {
            w.u16(ways.len() as u16);
            for way in ways {
                w.u64(way.tag);
                way.state.save(w);
                w.u32(way.lru);
            }
        }
        w.u64(self.hits);
        w.u64(self.misses);
    }

    fn capture_delta(&self, since_gen: u64) -> OracleDelta {
        let sets = (0..self.sets.len())
            .filter(|&set| self.set_stamps[set] > since_gen)
            .map(|set| (set, self.sets[set].clone()))
            .collect();
        OracleDelta {
            gen: self.gen,
            sets,
            hits: self.hits,
            misses: self.misses,
        }
    }

    fn apply_delta(&mut self, delta: OracleDelta) {
        for (set, ways) in delta.sets {
            self.sets[set] = ways;
            self.set_stamps[set] = delta.gen;
        }
        self.gen = self.gen.max(delta.gen);
        self.hits = delta.hits;
        self.misses = delta.misses;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        for set in 0..self.sets.len() {
            if self.set_stamps[set] > since_gen {
                self.sets[set].clone_from(&base.sets[set]);
            }
        }
        self.hits = base.hits;
        self.misses = base.misses;
    }
}

fn bytes(save: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    save(&mut w);
    w.into_bytes()
}

fn random_state(rng: &mut Xoshiro256) -> MesiState {
    match rng.next_below(4) {
        0 => MesiState::Modified,
        1 => MesiState::Exclusive,
        2 => MesiState::Shared,
        _ => MesiState::Invalid,
    }
}

/// Both models and their checkpoint bases, in lockstep.
struct Pair {
    live: Cache,
    base: Cache,
    oracle: OracleCache,
    oracle_base: OracleCache,
    /// Live generation the bases correspond to.
    since: u64,
    /// A line that is its set's MRU in the live models, if any is known.
    mru: Option<LineAddr>,
}

impl Pair {
    fn new(cfg: CacheConfig) -> Self {
        Pair {
            live: Cache::new(cfg),
            base: Cache::new(cfg),
            oracle: OracleCache::new(cfg),
            oracle_base: OracleCache::new(cfg),
            since: 0,
            mru: None,
        }
    }

    fn assert_same(&self, at: &str) {
        assert_eq!(self.live.hits(), self.oracle.hits, "{at}: hits");
        assert_eq!(self.live.misses(), self.oracle.misses, "{at}: misses");
        assert_eq!(self.live.generation(), self.oracle.gen, "{at}: generation");
        assert!(
            bytes(|w| self.live.save_state(w)) == bytes(|w| self.oracle.save_state(w)),
            "{at}: live snapshot bytes differ"
        );
        assert!(
            bytes(|w| self.base.save_state(w)) == bytes(|w| self.oracle_base.save_state(w)),
            "{at}: base snapshot bytes differ"
        );
    }

    /// One seeded operation on both models, asserting equal outcomes.
    fn step(&mut self, rng: &mut Xoshiro256, lines: u64, at: &str) {
        let line = LineAddr::new(rng.next_below(lines));
        match rng.next_below(20) {
            0..=3 => {
                let got = self.live.probe(line);
                assert_eq!(got, self.oracle.probe(line), "{at}: probe {line}");
                self.mru = got.map(|_| line);
            }
            4..=6 => {
                let got = self.live.probe_if_resident(line);
                assert_eq!(
                    got,
                    self.oracle.probe_if_resident(line),
                    "{at}: probe_if_resident"
                );
                self.mru = got.map(|_| line).or(self.mru);
            }
            7..=8 => {
                let got = self.live.probe_writable_modify(line);
                assert_eq!(
                    got,
                    self.oracle.probe_writable_modify(line),
                    "{at}: store probe"
                );
                if got == StoreProbe::Written {
                    self.mru = Some(line);
                }
            }
            9 => {
                if let Some(mru) = self.mru {
                    self.live.reprobe_mru(mru);
                    self.oracle.reprobe_mru(mru);
                }
            }
            10 => assert_eq!(self.live.peek(line), self.oracle.peek(line), "{at}: peek"),
            11 => {
                let state = random_state(rng);
                let got = self.live.set_state(line, state);
                assert_eq!(got, self.oracle.set_state(line, state), "{at}: set_state");
            }
            12..=14 => {
                let state = random_state(rng);
                let got = self.live.fill(line, state);
                assert_eq!(got, self.oracle.fill(line, state), "{at}: fill victim");
                self.mru = None;
            }
            15..=16 => {
                let got = self.live.invalidate(line);
                assert_eq!(got, self.oracle.invalidate(line), "{at}: invalidate");
                self.mru = None;
            }
            17 => {
                // Checkpoint commit: carry the live changes onto the bases.
                let delta = self.live.capture_delta(self.since);
                let oracle_delta = self.oracle.capture_delta(self.since);
                assert_eq!(
                    delta.dirty_sets(),
                    oracle_delta.sets.len(),
                    "{at}: dirty sets"
                );
                let lines: usize = oracle_delta.sets.iter().map(|(_, w)| w.len()).sum();
                if delta.dirty_sets() * 8 < self.live.config().sets() * 7 {
                    assert_eq!(delta.payload_lines(), lines, "{at}: payload lines");
                }
                self.base.apply_delta(delta);
                self.oracle_base.apply_delta(oracle_delta);
                self.since = self.live.generation();
                assert_eq!(self.base, self.live, "{at}: base + delta equals live");
                self.assert_same(at);
            }
            18 => {
                // Rollback to the last checkpoint.
                self.live.restore_from(&self.base, self.since);
                self.oracle.restore_from(&self.oracle_base, self.since);
                assert_eq!(self.live, self.base, "{at}: restore equals base");
                self.mru = None;
                self.assert_same(at);
            }
            _ => {
                // A fresh checkpoint base, cloned whole.
                self.base = self.live.clone();
                self.oracle_base = self.oracle.clone();
                self.since = self.live.generation();
            }
        }
    }
}

/// Drives `ops` seeded operations over both geometries.
fn run_differential(ops: u64, seed: u64) {
    let geometries = [
        // The paper's L1: 128 sets × 4 ways.
        CacheConfig::l1(),
        // 2 sets × 2 ways: every operation evicts, invalidates or
        // reorders a full set.
        CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
        },
    ];
    for cfg in geometries {
        let mut rng = Xoshiro256::new(seed ^ cfg.size_bytes);
        let mut pair = Pair::new(cfg);
        // Three lines per slot keeps sets full and evicting.
        let lines = 3 * (cfg.sets() * cfg.ways) as u64;
        for i in 0..ops {
            let at = format!("{} sets, op {i}", cfg.sets());
            pair.step(&mut rng, lines, &at);
            if i % 64 == 0 {
                pair.assert_same(&at);
            }
        }
        pair.assert_same("end");
    }
}

#[test]
fn flat_tag_store_matches_the_per_set_oracle() {
    run_differential(10_000, 0xF1A7);
}

#[test]
#[ignore = "soak: a million operations; ci.sh runs it in release"]
fn flat_tag_store_matches_the_per_set_oracle_soak() {
    run_differential(1_000_000, 0x50A4);
}
