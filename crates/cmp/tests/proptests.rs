//! Randomised property tests for the target-CMP substrate: the cache
//! against a reference model, bus slot-calendar exclusivity, cache-map
//! protocol invariants, per-line violation monitors against a reference
//! model and synchronisation-device laws. Inputs come from
//! the in-tree deterministic [`Xoshiro256`] RNG, so every run reproduces
//! bit-identically without external crates.

use std::collections::HashMap;

use slacksim_cmp::bus::Bus;
use slacksim_cmp::cache::{Cache, CacheConfig, LineAddr};
use slacksim_cmp::map::CacheMap;
use slacksim_cmp::mesi::{BusOp, MesiState};
use slacksim_cmp::sync::SyncDevice;
use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::event::CoreId;
use slacksim_core::rng::Xoshiro256;
use slacksim_core::time::Cycle;

const CASES: u64 = 64;

/// An independent, naive set-associative LRU model: per set, a vector of
/// (tag, state) ordered most-recently-used first.
#[derive(Debug, Default)]
struct RefCache {
    sets: HashMap<u64, Vec<(u64, MesiState)>>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as u64;
        RefCache {
            sets: HashMap::new(),
            ways: cfg.ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
        }
    }

    fn split(&self, line: LineAddr) -> (u64, u64) {
        (line.raw() & self.set_mask, line.raw() >> self.set_bits)
    }

    fn probe(&mut self, line: LineAddr) -> Option<MesiState> {
        let (set, tag) = self.split(line);
        let ways = self.sets.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
            let entry = ways.remove(pos);
            ways.insert(0, entry);
            Some(entry.1)
        } else {
            None
        }
    }

    fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<(LineAddr, MesiState)> {
        let (set, tag) = self.split(line);
        let ways_cap = self.ways;
        let set_bits = self.set_bits;
        let ways = self.sets.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
            ways.remove(pos);
            ways.insert(0, (tag, state));
            return None;
        }
        let victim = if ways.len() == ways_cap {
            let (vt, vs) = ways.pop().expect("full set");
            Some((LineAddr::new((vt << set_bits) | set), vs))
        } else {
            None
        };
        ways.insert(0, (tag, state));
        victim
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let (set, tag) = self.split(line);
        let ways = self.sets.entry(set).or_default();
        ways.iter()
            .position(|&(t, _)| t == tag)
            .map(|pos| ways.remove(pos).1)
    }
}

/// Operations driven against both cache models.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Probe(u64),
    Fill(u64, MesiState),
    Invalidate(u64),
}

fn random_cache_op(rng: &mut Xoshiro256) -> CacheOp {
    let line = rng.next_below(64);
    match rng.next_below(3) {
        0 => CacheOp::Probe(line),
        1 => {
            let state = match rng.next_below(3) {
                0 => MesiState::Modified,
                1 => MesiState::Exclusive,
                _ => MesiState::Shared,
            };
            CacheOp::Fill(line, state)
        }
        _ => CacheOp::Invalidate(line),
    }
}

/// The production cache agrees with the naive reference model on every
/// probe/fill/invalidate outcome, including victim choice.
#[test]
fn cache_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xCAC4E + case);
        let len = 1 + rng.next_below(300) as usize;
        // Small geometry maximises eviction traffic: 4 sets × 2 ways.
        let cfg = CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
        };
        let mut real = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for _ in 0..len {
            match random_cache_op(&mut rng) {
                CacheOp::Probe(l) => {
                    assert_eq!(
                        real.probe(LineAddr::new(l)),
                        reference.probe(LineAddr::new(l)),
                        "case {case}"
                    );
                }
                CacheOp::Fill(l, s) => {
                    assert_eq!(
                        real.fill(LineAddr::new(l), s),
                        reference.fill(LineAddr::new(l), s),
                        "case {case}"
                    );
                }
                CacheOp::Invalidate(l) => {
                    assert_eq!(
                        real.invalidate(LineAddr::new(l)),
                        reference.invalidate(LineAddr::new(l)),
                        "case {case}"
                    );
                }
            }
        }
    }
}

/// Bus grants never overlap: any two grants are at least the bus occupancy
/// apart, and each grant is at or after its request.
#[test]
fn bus_grants_are_exclusive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xB5 + case);
        let len = 1 + rng.next_below(200) as usize;
        let occupancy = rng.next_range(1, 3);
        let mut bus = Bus::new(occupancy, 1);
        let mut grants = Vec::new();
        for _ in 0..len {
            let ts = rng.next_below(2_000);
            let g = bus.arbitrate(Cycle::new(ts));
            assert!(g.grant.as_u64() >= ts, "case {case}: grant before request");
            grants.push(g.grant.as_u64());
        }
        grants.sort_unstable();
        for w in grants.windows(2) {
            assert!(
                w[1] - w[0] >= occupancy,
                "case {case}: overlapping grants {w:?}"
            );
        }
    }
}

/// Response-bus slots are also exclusive.
#[test]
fn response_slots_are_exclusive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x4E59 + case);
        let len = 1 + rng.next_below(200) as usize;
        let occupancy = rng.next_range(1, 3);
        let mut bus = Bus::new(1, occupancy);
        let mut ends = Vec::new();
        for _ in 0..len {
            let ts = rng.next_below(2_000);
            let done = bus.respond(Cycle::new(ts));
            assert!(done.as_u64() >= ts + occupancy, "case {case}");
            ends.push(done.as_u64());
        }
        ends.sort_unstable();
        for w in ends.windows(2) {
            assert!(
                w[1] - w[0] >= occupancy,
                "case {case}: overlapping transfers {w:?}"
            );
        }
    }
}

/// Cache-map protocol invariants under arbitrary transition streams: Rd
/// grants E only when alone, S otherwise; RdX grants M and invalidates
/// every other sharer; writebacks clear the writer.
#[test]
fn cache_map_protocol_invariants() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x3A9 + case);
        let len = 1 + rng.next_below(300) as usize;
        let mut map = CacheMap::new(4);
        // Shadow state: per line, the set of holders.
        let mut shadow: HashMap<u64, std::collections::BTreeSet<u16>> = HashMap::new();
        for _ in 0..len {
            let op = [BusOp::Rd, BusOp::RdX, BusOp::Wb][rng.next_below(3) as usize];
            let line = rng.next_below(8);
            let core = rng.next_below(4) as u16;
            let ts = rng.next_below(10_000);
            let out = map.transition(op, LineAddr::new(line), CoreId::new(core), Cycle::new(ts));
            let holders = shadow.entry(line).or_default();
            match op {
                BusOp::Rd => {
                    let others_before = holders.iter().any(|&c| c != core);
                    if others_before {
                        assert_eq!(out.grant, MesiState::Shared, "case {case}");
                    } else {
                        assert_eq!(out.grant, MesiState::Exclusive, "case {case}");
                    }
                    assert!(
                        out.invalidate.is_empty(),
                        "case {case}: Rd never invalidates"
                    );
                    holders.insert(core);
                }
                BusOp::RdX => {
                    assert_eq!(out.grant, MesiState::Modified, "case {case}");
                    let expected: Vec<u16> =
                        holders.iter().copied().filter(|&c| c != core).collect();
                    let got: Vec<u16> = out.invalidate.iter().map(|c| c.index() as u16).collect();
                    assert_eq!(got, expected, "case {case}: RdX must invalidate all others");
                    holders.clear();
                    holders.insert(core);
                }
                BusOp::Wb => {
                    holders.remove(&core);
                }
                BusOp::Upgr => unreachable!(),
            }
            // The map's sharer view must match the shadow.
            let map_sharers: Vec<u16> = map
                .sharers(LineAddr::new(line))
                .iter()
                .map(|c| c.index() as u16)
                .collect();
            let shadow_sharers: Vec<u16> = holders.iter().copied().collect();
            assert_eq!(map_sharers, shadow_sharers, "case {case}");
        }
    }
}

/// Barriers release exactly when the last participant arrives, at the
/// maximum arrival time plus the device latency, whatever the order.
#[test]
fn barrier_release_law() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xBA44 + case);
        let arrival_ts: Vec<u64> = (0..4).map(|_| rng.next_below(10_000)).collect();
        let latency = rng.next_below(16);
        // Fisher-Yates shuffle of the arrival order.
        let mut order = [0u16, 1, 2, 3];
        for i in (1..4).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut dev = SyncDevice::new(4, latency, 1);
        let mut released = None;
        for (i, &core) in order.iter().enumerate() {
            let ts = arrival_ts[core as usize];
            let out = dev.barrier_arrive(CoreId::new(core), 0, Cycle::new(ts));
            if i < 3 {
                assert!(out.is_none(), "case {case}: released early");
            } else {
                released = out;
            }
        }
        let (release, cores) = released.expect("all arrived");
        let max_ts = *arrival_ts.iter().max().expect("nonempty");
        assert_eq!(release.as_u64(), max_ts + latency, "case {case}");
        assert_eq!(cores.len(), 4, "case {case}");
    }
}

/// Locks provide mutual exclusion with FIFO handover: grants never
/// overlap and follow request order among waiters.
#[test]
fn lock_fifo_mutual_exclusion() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x10CC + case);
        let len = 2 + rng.next_below(18) as usize;
        let mut dev = SyncDevice::new(4, 1, 2);
        let mut hold_order: Vec<u16> = Vec::new();
        let mut queue: Vec<u16> = Vec::new();
        let mut holder: Option<u16> = None;
        // All on one lock id; each core acquires then releases immediately
        // at a later timestamp.
        let mut t = 0u64;
        for _ in 0..len {
            let core = rng.next_below(4) as u16;
            t += rng.next_below(1_000);
            match dev.lock_acquire(CoreId::new(core), 9, Cycle::new(t)) {
                Some(_) => {
                    assert!(holder.is_none(), "case {case}: grant while held");
                    holder = Some(core);
                    hold_order.push(core);
                }
                None => queue.push(core),
            }
            // Holder releases immediately.
            if let Some(h) = holder.take() {
                t += 1;
                if let Some((next, _)) = dev.lock_release(CoreId::new(h), 9, Cycle::new(t)) {
                    let expected = queue.remove(0);
                    assert_eq!(next.index() as u16, expected, "case {case}: FIFO handover");
                    holder = Some(next.index() as u16);
                    hold_order.push(expected);
                }
            }
        }
        assert!(!hold_order.is_empty(), "case {case}");
    }
}

/// Sharer-set persistence is canonical at directory scale: for random
/// populations over up to 1024 cores — crossing the inline/spilled
/// boundary in both directions — save → load reproduces an equal set,
/// and re-saving the loaded set reproduces identical bytes.
#[test]
fn sharer_set_save_load_round_trips_at_directory_scale() {
    use slacksim_cmp::sharers::SharerSet;
    use slacksim_core::persist::{ByteReader, ByteWriter, Persist};

    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x54A12 + case);
        let n_cores = 1 + rng.next_below(1024) as usize;
        let mut set = SharerSet::new();
        for _ in 0..rng.next_below(48) {
            let core = CoreId::new(rng.next_below(n_cores as u64) as u16);
            if rng.next_below(4) == 0 {
                set.remove(core);
            } else {
                set.insert(core);
            }
        }
        let mut w = ByteWriter::new();
        set.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let loaded = r.within_cores(n_cores, SharerSet::load).expect("load");
        r.finish().expect("no trailing bytes");
        assert_eq!(loaded, set, "case {case}: {n_cores} cores");
        let mut w2 = ByteWriter::new();
        loaded.save(&mut w2);
        assert_eq!(
            w2.into_bytes(),
            bytes,
            "case {case}: re-save must be byte-identical"
        );
    }
}

/// Directory persistence past the bus cap: random transaction histories
/// at 32–1024 cores survive save → load bit-identically, bank states,
/// sharer sets, monitors and counters included.
#[test]
fn directory_save_load_round_trips_past_sixteen_cores() {
    use slacksim_cmp::directory::Directory;
    use slacksim_core::persist::{ByteReader, ByteWriter};

    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xD15C0 + case);
        let n_cores = [32usize, 64, 128, 1024][rng.next_below(4) as usize];
        let mut dir = Directory::new(n_cores, 4);
        for i in 0..1 + rng.next_below(200) {
            let op = [BusOp::Rd, BusOp::RdX, BusOp::Upgr, BusOp::Wb][rng.next_below(4) as usize];
            let line = LineAddr::new(rng.next_below(512));
            let core = CoreId::new(rng.next_below(n_cores as u64) as u16);
            dir.access(op, line, core, Cycle::new(i * 13 + rng.next_below(7)));
        }
        let mut w = ByteWriter::new();
        dir.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Directory::new(n_cores, 4);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, dir, "case {case}: {n_cores} cores");
        assert_eq!(restored.transitions(), dir.transitions(), "case {case}");
        assert_eq!(
            restored.order_violations(),
            dir.order_violations(),
            "case {case}"
        );
    }
}

/// One uncore table's line-monitor surface, so the status map and the
/// directory banks run the same property.
struct LineModel<M> {
    model: M,
    access: fn(&mut M, BusOp, LineAddr, CoreId, Cycle) -> (bool, Cycle),
    compact: fn(&mut M, Cycle) -> usize,
    monitors: fn(&M) -> usize,
}

/// Per-line monitors against a `BTreeMap` reference: every access's
/// verdict and high-water mark, each line independent of the others, the
/// monitor count, compaction at a checkpoint horizon, and checkpoints —
/// a delta captured and applied, and a restore, both equal to a clone.
fn line_monitors_match_the_reference<M>(seed: u64, n_cores: u64, mut t: LineModel<M>)
where
    M: Checkpointable + PartialEq + std::fmt::Debug,
{
    use std::collections::BTreeMap;

    let mut rng = Xoshiro256::new(seed);
    // The live monitors, and monitors that are never compacted: for any
    // timestamp at or past the last compaction horizon both must give the
    // same verdict and mark.
    let mut live: BTreeMap<u64, u64> = BTreeMap::new();
    let mut never: BTreeMap<u64, u64> = BTreeMap::new();
    let mut base = t.model.clone();
    let mut base_gen = t.model.generation();
    let mut checkpoint = (t.model.clone(), live.clone(), never.clone());
    let mut floor = 0u64;
    for _ in 0..600 {
        match rng.next_below(100) {
            // A checkpoint: capture into the base, which must equal a clone;
            // then compact at the checkpoint's horizon. Every later access
            // carries a timestamp at or past it.
            0..=3 => {
                let clone = t.model.clone();
                base.apply_delta(t.model.capture_delta(base_gen));
                base_gen = t.model.generation();
                assert_eq!(base, clone, "seed {seed}: capture then apply");
                checkpoint = (clone, live.clone(), never.clone());
                let horizon = floor + rng.next_below(64);
                let settled = live.values().filter(|&&hw| hw <= horizon).count();
                assert_eq!((t.compact)(&mut t.model, Cycle::new(horizon)), settled);
                live.retain(|_, hw| *hw > horizon);
                floor = horizon;
            }
            // A rollback to the last checkpoint.
            4..=5 => {
                t.model.restore_from(&base, base_gen);
                assert_eq!(t.model, checkpoint.0, "seed {seed}: restore");
                (live, never) = (checkpoint.1.clone(), checkpoint.2.clone());
            }
            _ => {
                let op =
                    [BusOp::Rd, BusOp::RdX, BusOp::Upgr, BusOp::Wb][rng.next_below(4) as usize];
                let line = rng.next_below(24);
                let core = CoreId::new(rng.next_below(n_cores) as u16);
                let ts = floor + rng.next_below(200);
                let (violation, high_water) =
                    (t.access)(&mut t.model, op, LineAddr::new(line), core, Cycle::new(ts));
                for monitors in [&mut live, &mut never] {
                    let hw = monitors.entry(line).or_insert(ts);
                    let expected = ts < *hw;
                    *hw = (*hw).max(ts);
                    assert_eq!(
                        (violation, high_water),
                        (expected, Cycle::new(*hw)),
                        "seed {seed}: line {line} at {ts}"
                    );
                }
            }
        }
        assert_eq!((t.monitors)(&t.model), live.len(), "seed {seed}");
    }
}

#[test]
fn status_map_line_monitors_match_the_reference() {
    for case in 0..CASES {
        let line_model = LineModel {
            model: CacheMap::new(8),
            access: |m, op, line, core, ts| {
                let out = m.transition(op, line, core, ts);
                (out.violation, out.high_water)
            },
            compact: CacheMap::compact_monitor,
            monitors: CacheMap::monitor_entries,
        };
        line_monitors_match_the_reference(0x11E5 + case, 8, line_model);
    }
}

#[test]
fn directory_line_monitors_match_the_reference() {
    use slacksim_cmp::directory::Directory;

    for case in 0..CASES {
        let line_model = LineModel {
            model: Directory::new(32, 4),
            access: |d, op, line, core, ts| {
                let out = d.access(op, line, core, ts);
                (out.line_violation, out.line_high_water)
            },
            compact: Directory::compact_monitors,
            monitors: Directory::monitor_entries,
        };
        line_monitors_match_the_reference(0xD1E5 + case, 32, line_model);
    }
}
