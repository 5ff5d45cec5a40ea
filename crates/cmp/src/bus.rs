//! The split request/response snooping bus.
//!
//! Requests are granted in the order the manager services them; the bus is
//! the single most contended simulation resource and carries a single
//! monitoring variable — the source of *bus violations* (simulation state
//! violations, paper §3). Because a transaction occupies the request bus
//! for one cycle, conflicts can arise within one cycle of latency, which
//! is what forces the critical latency of an accurate quantum simulation
//! down to a single clock (paper §1).
//!
//! Both buses are modelled as slot-reservation resources: a transaction
//! occupies the first free slot at or after its request time. A single
//! "free-from" pointer would impose head-of-line blocking (a 100-cycle
//! memory reply would delay an unrelated earlier-ready transfer), which
//! the target's split-transaction bus does not have.

use slacksim_core::checkpoint::Tracking;
use slacksim_core::persist::{ByteReader, ByteWriter, PersistError};
use slacksim_core::time::Cycle;
use slacksim_core::violation::TimestampMonitor;

/// Reserved-slot calendar for one bus or bank port, with each reservation
/// occupying `occupancy` consecutive cycles.
///
/// Reservation *starts* are one bit each in a fixed ring of 64-cycle words
/// that slides with the newest reservation (`horizon`): the ring covers
/// the cycles from [`SlotCalendar::base`] up to `horizon`, which is always
/// at least [`PRUNE_WINDOW`] cycles of history. Starts rather than
/// occupied cycles, because the durable form is the list of starts and
/// abutting reservations would otherwise lose their boundaries when the
/// window's trailing edge cuts through one. `reserve` never allocates and
/// the calendar's footprint is fixed at construction — a clone is one
/// 4 KiB copy.
///
/// A request that lands in the saturated run of back-to-back reservations
/// ending at `horizon` jumps straight past it (see `tail`); any other
/// request walks the starts that push it, one word scan per start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotCalendar {
    pub(crate) occupancy: u64,
    /// Bit `t % 64` of word `(t / 64) % RING_WORDS` is set iff a
    /// reservation starts at cycle `t`, for `t` in `base()..=horizon`;
    /// every other bit is zero, so equal calendars compare equal.
    starts: Box<[u64; RING_WORDS]>,
    /// The newest reservation start (0 while empty).
    horizon: u64,
    /// A start of the *tail run*: a chain of starts ending at `horizon`
    /// whose consecutive starts are less than `2 * occupancy` apart, so
    /// no slot fits between two of them. Any start of the run will do —
    /// `horizon` alone is what a load sets — and 0 on an empty calendar
    /// is never seen, since a jump needs `slot >= base + occupancy`. A
    /// cache derived from `starts`, so not part of equality or the
    /// durable form.
    tail: Tracking<u64>,
}

/// Reservations further than this many cycles in the past of the newest
/// reservation are forgotten; any request that old would be a (already
/// counted) violating straggler and may treat those slots as free.
const PRUNE_WINDOW: u64 = 1 << 14;

/// Ring length in words: the power of two that holds `PRUNE_WINDOW` cycles
/// of history plus the word the horizon sits in.
const RING_WORDS: usize = 2 * PRUNE_WINDOW as usize / 64;

/// Ring position of the word holding cycle `64 * word ..`.
#[inline]
fn ring_index(word: u64) -> usize {
    word as usize & (RING_WORDS - 1)
}

impl SlotCalendar {
    pub(crate) fn new(occupancy: u64) -> Self {
        assert!(occupancy >= 1, "bus occupancy must be at least 1");
        SlotCalendar {
            occupancy,
            starts: Box::new([0; RING_WORDS]),
            horizon: 0,
            tail: Tracking(0),
        }
    }

    /// First cycle the window remembers: a function of `horizon` alone
    /// (word-aligned), so a calendar rebuilt from its durable form is
    /// bit-identical to the live one.
    #[inline]
    fn base(&self) -> u64 {
        self.horizon.saturating_sub(PRUNE_WINDOW) & !63
    }

    /// Reserves and returns the first slot start `>= from` whose
    /// `occupancy` cycles are all free. A straggler older than the window
    /// finds its slot free and is not recorded.
    pub(crate) fn reserve(&mut self, from: u64) -> u64 {
        let c = self.occupancy;
        let base = self.base();
        if from < base {
            return from;
        }
        let mut slot = from;
        // Every start is at or below `horizon`, so a slot at `horizon + c`
        // or later is free by construction — the case for uncontended,
        // near-monotone traffic.
        while slot < self.horizon + c {
            // A slot overlapping the tail run or inside it is pushed to
            // its end: every candidate in `slot..horizon + c` overlaps a
            // start of the run that lies above `slot - c`, which the walk
            // would see because `slot - c >= base` — the case for a
            // saturated port, where the walk would step through the whole
            // queue ahead of the request.
            if slot + c > *self.tail && slot >= base + c {
                slot = self.horizon + c;
                break;
            }
            // A start r overlaps `slot..slot + c` iff slot - c < r < slot + c;
            // reservations never overlap each other, so only the latest
            // such start can push the slot.
            let lo = (slot + 1).saturating_sub(c).max(base);
            let hi = (slot + c - 1).min(self.horizon);
            match self.last_start_in(lo, hi) {
                Some(r) => slot = r + c,
                None => break,
            }
        }
        if slot > self.horizon {
            // A gap of `2c` or more leaves room for a slot: the new start
            // begins a run of its own. Otherwise it extends the tail run.
            if slot - self.horizon >= 2 * c {
                *self.tail = slot;
            }
            self.slide_to(slot);
        }
        self.starts[ring_index(slot >> 6)] |= 1 << (slot & 63);
        slot
    }

    /// The latest reservation start in `lo..=hi`, scanning words downward.
    /// Requires `base() <= lo <= hi <= horizon`.
    #[inline]
    fn last_start_in(&self, lo: u64, hi: u64) -> Option<u64> {
        let lo_word = lo >> 6;
        let mut word = hi >> 6;
        let mut bits = self.starts[ring_index(word)] & (u64::MAX >> (63 - (hi & 63)));
        loop {
            if word == lo_word {
                bits &= u64::MAX << (lo & 63);
            }
            if bits != 0 {
                return Some((word << 6) + 63 - u64::from(bits.leading_zeros()));
            }
            if word == lo_word {
                return None;
            }
            word -= 1;
            bits = self.starts[ring_index(word)];
        }
    }

    /// Moves the horizon forward to `slot`, zeroing the words that fall
    /// behind the window so the ring positions they vacate read as free
    /// when the leading edge reuses them.
    #[inline]
    fn slide_to(&mut self, slot: u64) {
        let old = self.base() >> 6;
        self.horizon = slot;
        let new = self.base() >> 6;
        for word in old..new.min(old + RING_WORDS as u64) {
            self.starts[ring_index(word)] = 0;
        }
    }

    /// Serializes the calendar as `horizon`, count, ascending starts
    /// (occupancy is configuration, not stored).
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        w.u64(self.horizon);
        w.u32(self.starts.iter().map(|bits| bits.count_ones()).sum());
        for word in self.base() >> 6..=self.horizon >> 6 {
            let mut bits = self.starts[ring_index(word)];
            while bits != 0 {
                w.u64((word << 6) + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }

    /// Restores a calendar written by [`SlotCalendar::save_state`] (by this
    /// or the sorted-`Vec` implementation it replaced). Starts older than
    /// the window are accepted and dropped; bytes that could double-book a
    /// slot are rejected, and `self` is left untouched on any error.
    pub(crate) fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        let mut loaded = SlotCalendar::new(self.occupancy);
        loaded.horizon = r.u64()?;
        // The horizon alone is a run: conservative, but valid.
        *loaded.tail = loaded.horizon;
        let base = loaded.base();
        let mut next_free = 0;
        let mut newest = 0;
        for _ in 0..r.u32()? {
            let start = r.u64()?;
            if start < next_free {
                return Err(PersistError::Corrupt(
                    "calendar reservations overlap or are out of order",
                ));
            }
            next_free = start.saturating_add(self.occupancy);
            newest = start;
            if start >= base {
                loaded.starts[ring_index(start >> 6)] |= 1 << (start & 63);
            }
        }
        if newest != loaded.horizon {
            return Err(PersistError::Corrupt(
                "calendar horizon is not its newest reservation",
            ));
        }
        *self = loaded;
        Ok(())
    }
}

/// Result of arbitrating one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// Cycle at which the request owns the request bus.
    pub grant: Cycle,
    /// Whether the request arrived out of timestamp order (bus violation).
    pub violation: bool,
    /// The bus monitor's largest observed timestamp at arbitration time
    /// (feeds violation-distance observability).
    pub high_water: Cycle,
    /// Whether the request had to wait for another transaction
    /// (bus conflict).
    pub conflict: bool,
}

/// Split-transaction bus timing state.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::bus::Bus;
/// use slacksim_core::time::Cycle;
///
/// let mut bus = Bus::new(1, 1);
/// let a = bus.arbitrate(Cycle::new(10));
/// let b = bus.arbitrate(Cycle::new(10)); // same-cycle conflict
/// assert_eq!(a.grant, Cycle::new(10));
/// assert_eq!(b.grant, Cycle::new(11));
/// assert!(b.conflict && !b.violation);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bus {
    request: SlotCalendar,
    response: SlotCalendar,
    monitor: TimestampMonitor,
    transactions: u64,
    conflicts: u64,
    violations: u64,
    busy_cycles: u64,
    /// Mutation generation. The bus is dirtied by essentially every
    /// transaction, so it tracks one whole-struct generation instead of
    /// fine-grained stamps — its delta is all-or-nothing.
    gen: Tracking<u64>,
}

slacksim_core::impl_checkpointable_whole!(Bus);

// Occupancies are configuration: the calendars validate against them.
slacksim_core::persist_walk! {
    Bus, |b| b.request, b.response, b.monitor,
    b.transactions, b.conflicts, b.violations, b.busy_cycles
}

impl Bus {
    /// Creates a bus with the given per-transaction occupancies.
    ///
    /// # Panics
    ///
    /// Panics if either occupancy is 0.
    pub fn new(req_bus_cycles: u64, resp_bus_cycles: u64) -> Self {
        Bus {
            request: SlotCalendar::new(req_bus_cycles),
            response: SlotCalendar::new(resp_bus_cycles),
            monitor: TimestampMonitor::new(),
            transactions: 0,
            conflicts: 0,
            violations: 0,
            busy_cycles: 0,
            gen: Tracking(0),
        }
    }

    /// Arbitrates the request bus for a transaction stamped `ts`,
    /// returning the grant time and the violation/conflict verdicts.
    pub fn arbitrate(&mut self, ts: Cycle) -> BusGrant {
        *self.gen += 1;
        self.transactions += 1;
        let violation = self.monitor.observe(ts);
        if violation {
            self.violations += 1;
        }
        let slot = self.request.reserve(ts.as_u64());
        let conflict = slot != ts.as_u64();
        if conflict {
            self.conflicts += 1;
        }
        self.busy_cycles += self.request.occupancy;
        BusGrant {
            grant: Cycle::new(slot),
            violation,
            high_water: self.monitor.high_water(),
            conflict,
        }
    }

    /// The bus monitor's largest observed request timestamp so far.
    pub fn high_water(&self) -> Cycle {
        self.monitor.high_water()
    }

    /// Schedules a data transfer on the response bus once the data is
    /// ready; returns the cycle the transfer completes at the requester.
    pub fn respond(&mut self, data_ready: Cycle) -> Cycle {
        *self.gen += 1;
        let slot = self.response.reserve(data_ready.as_u64());
        Cycle::new(slot + self.response.occupancy)
    }

    /// Transactions arbitrated so far.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Requests that found their slot taken.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Out-of-order grants detected.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total request-bus busy cycles (utilisation numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slacksim_core::checkpoint::Checkpointable;
    use slacksim_core::rng::Xoshiro256;
    use std::collections::BTreeSet;

    fn ts(t: u64) -> Cycle {
        Cycle::new(t)
    }

    #[test]
    fn in_order_requests_never_violate() {
        let mut bus = Bus::new(1, 1);
        for t in [1u64, 2, 5, 5, 9] {
            assert!(!bus.arbitrate(ts(t)).violation);
        }
        assert_eq!(bus.violations(), 0);
        assert_eq!(bus.transactions(), 5);
    }

    #[test]
    fn straggler_is_a_violation_but_can_fill_old_slots() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(10));
        let g = bus.arbitrate(ts(4));
        assert!(g.violation);
        assert_eq!(bus.violations(), 1);
        // The straggler takes the free slot at its own timestamp — no
        // head-of-line blocking behind the later grant.
        assert_eq!(g.grant, ts(4));
        assert!(!g.conflict);
    }

    #[test]
    fn back_to_back_conflicts_serialise() {
        let mut bus = Bus::new(1, 1);
        let a = bus.arbitrate(ts(7));
        let b = bus.arbitrate(ts(7));
        let c = bus.arbitrate(ts(7));
        assert_eq!(a.grant, ts(7));
        assert_eq!(b.grant, ts(8));
        assert_eq!(c.grant, ts(9));
        assert_eq!(bus.conflicts(), 2);
    }

    #[test]
    fn idle_gap_clears_conflicts() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(1));
        let g = bus.arbitrate(ts(100));
        assert!(!g.conflict);
        assert_eq!(g.grant, ts(100));
    }

    #[test]
    fn wider_occupancy_extends_conflicts() {
        let mut bus = Bus::new(4, 1);
        bus.arbitrate(ts(0));
        let g = bus.arbitrate(ts(2));
        assert!(g.conflict);
        assert_eq!(g.grant, ts(4));
    }

    #[test]
    fn gap_between_reservations_is_usable() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(5));
        bus.arbitrate(ts(10));
        // The hole at 6..10 serves a request stamped 7.
        let g = bus.arbitrate(ts(7));
        assert_eq!(g.grant, ts(7));
        assert!(!g.conflict);
    }

    #[test]
    fn response_bus_has_no_head_of_line_blocking() {
        let mut bus = Bus::new(1, 1);
        // A slow memory reply reserves cycle 110.
        let slow = bus.respond(ts(110));
        assert_eq!(slow, ts(111));
        // A fast cache-to-cache reply ready at 30 is not stuck behind it.
        let fast = bus.respond(ts(30));
        assert_eq!(fast, ts(31));
        // But a same-cycle transfer does conflict.
        let third = bus.respond(ts(30));
        assert_eq!(third, ts(32));
    }

    #[test]
    fn response_occupancy_respected() {
        let mut bus = Bus::new(1, 4);
        assert_eq!(bus.respond(ts(0)), ts(4));
        assert_eq!(bus.respond(ts(1)), ts(8));
        assert_eq!(bus.respond(ts(100)), ts(104));
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut bus = Bus::new(1, 1);
        bus.arbitrate(ts(0));
        bus.arbitrate(ts(1));
        assert_eq!(bus.busy_cycles(), 2);
    }

    #[test]
    fn calendar_prunes_but_stays_correct_near_horizon() {
        let mut bus = Bus::new(1, 1);
        for t in 0..5000u64 {
            bus.arbitrate(ts(t * 2));
        }
        // Recent slots remain reserved after pruning.
        let g = bus.arbitrate(ts(9998));
        assert_eq!(g.grant, ts(9999));
    }

    #[test]
    fn straggler_older_than_the_window_finds_its_slot_free() {
        let mut cal = SlotCalendar::new(4);
        assert_eq!(cal.reserve(100), 100);
        let far = 100 + 3 * PRUNE_WINDOW;
        assert_eq!(cal.reserve(far), far);
        // 100 slid out of the window: the straggler is granted as asked,
        // twice over, and leaves no trace.
        let before = cal.clone();
        assert_eq!(cal.reserve(101), 101);
        assert_eq!(cal.reserve(101), 101);
        assert_eq!(cal, before);
        // Inside the window the calendar still remembers.
        assert_eq!(cal.reserve(far - PRUNE_WINDOW), far - PRUNE_WINDOW);
        assert_eq!(cal.reserve(far - PRUNE_WINDOW), far - PRUNE_WINDOW + 4);
    }

    #[test]
    #[should_panic(expected = "bus occupancy must be at least 1")]
    fn zero_occupancy_rejected() {
        let _ = Bus::new(0, 1);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = Bus::new(2, 1);
        live.arbitrate(ts(5));
        live.arbitrate(ts(5)); // conflict
        live.arbitrate(ts(2)); // violation
        live.respond(ts(40));

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Bus::new(2, 1);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, live);
        assert_eq!(restored.high_water(), live.high_water());
        // Future arbitration must see identical occupancy/monitor state.
        assert_eq!(restored.arbitrate(ts(6)), live.arbitrate(ts(6)));
        let err = restored.load_state(&mut ByteReader::new(&bytes[..4]));
        assert!(err.is_err(), "truncation errors instead of panicking");
    }

    #[test]
    fn delta_is_empty_when_clean_and_whole_when_dirty() {
        let mut live = Bus::new(1, 1);
        live.arbitrate(ts(5));
        let mut base = live.clone();
        let gen = live.generation();

        assert!(!live.capture_delta(gen).is_dirty(), "clean since capture");

        live.arbitrate(ts(6));
        live.respond(ts(20));
        let delta = live.capture_delta(gen);
        assert!(delta.is_dirty());
        base.apply_delta(delta);
        assert_eq!(base, live);

        let cp = live.clone();
        let cp_gen = live.generation();
        live.arbitrate(ts(30));
        live.restore_from(&cp, cp_gen);
        assert_eq!(live, cp, "restore rewinds to the checkpoint");
        assert!(live.generation() > cp_gen, "generation is not rewound");
    }

    /// The sorted-`Vec` calendar this module used before the ring — kept
    /// as the reference model the ring is checked against, and as the
    /// writer of the byte format parent-commit snapshots hold.
    #[derive(Clone)]
    struct RefCalendar {
        occupancy: u64,
        reserved: Vec<u64>,
        horizon: u64,
    }

    impl RefCalendar {
        fn new(occupancy: u64) -> Self {
            RefCalendar {
                occupancy,
                reserved: Vec::new(),
                horizon: 0,
            }
        }

        fn reserve(&mut self, from: u64) -> u64 {
            let c = self.occupancy;
            if from >= self.horizon + c || self.reserved.is_empty() {
                self.reserved.push(from);
                self.horizon = self.horizon.max(from);
                self.maybe_prune();
                return from;
            }
            let mut slot = from;
            let mut end = self.reserved.partition_point(|&r| r < slot + c);
            while let Some(r) = self.reserved[..end].last().copied() {
                if r + c <= slot {
                    break;
                }
                slot = r + c;
                end += self.reserved[end..].partition_point(|&r| r < slot + c);
            }
            self.reserved.insert(end, slot);
            self.horizon = self.horizon.max(slot);
            self.maybe_prune();
            slot
        }

        fn maybe_prune(&mut self) {
            if self.reserved.len() > 4096 {
                let cutoff = self.horizon.saturating_sub(PRUNE_WINDOW);
                let keep_from = self.reserved.partition_point(|&r| r < cutoff);
                self.reserved.drain(..keep_from);
            }
        }

        fn save_state(&self, w: &mut ByteWriter) {
            w.u64(self.horizon);
            w.u32(self.reserved.len() as u32);
            for &slot in &self.reserved {
                w.u64(slot);
            }
        }

        fn load_state(&mut self, r: &mut ByteReader<'_>) {
            self.horizon = r.u64().unwrap();
            let n = r.u32().unwrap();
            self.reserved = (0..n).map(|_| r.u64().unwrap()).collect();
        }
    }

    /// A live [`Bus`] beside reference calendars for its two buses.
    struct Pair {
        bus: Bus,
        req: RefCalendar,
        resp: RefCalendar,
        /// Newest slot start on either bus: stragglers are drawn relative
        /// to it so they stay inside both windows.
        top: u64,
    }

    impl Pair {
        fn new(c: u64) -> Self {
            Pair {
                bus: Bus::new(c, c),
                req: RefCalendar::new(c),
                resp: RefCalendar::new(c),
                top: 0,
            }
        }

        /// One transaction: arbitrate at `t`, respond `latency` after the
        /// grant. Every grant must equal the reference's.
        fn step(&mut self, t: u64, latency: u64) {
            // What the window guarantees to remember; older stragglers are
            // outside the contract (and tested on their own above).
            let t = t.max(self.top.saturating_sub(PRUNE_WINDOW - self.req.occupancy));
            let grant = self.bus.arbitrate(ts(t)).grant.as_u64();
            assert_eq!(grant, self.req.reserve(t), "request grant at {t}");
            let ready = grant + latency;
            let slot = self.resp.reserve(ready);
            let done = self.bus.respond(ts(ready)).as_u64();
            assert_eq!(done, slot + self.resp.occupancy, "response at {ready}");
            self.top = self.top.max(slot);
        }

        /// Seeded traffic: near-monotone arrivals, same-cycle bursts,
        /// stragglers (near the horizon and as deep as the window
        /// guarantees) and far-future jumps that slide the whole window.
        fn drive(&mut self, rng: &mut Xoshiro256, now: &mut u64, steps: usize) {
            let c = self.req.occupancy;
            for _ in 0..steps {
                let latency = if rng.chance(1, 4) { 100 } else { 8 };
                match rng.next_below(1000) {
                    0..=1 => {
                        *now = self.top + rng.next_range(PRUNE_WINDOW / 2, 5 * PRUNE_WINDOW);
                        self.step(*now, latency);
                    }
                    2..=150 => {
                        for _ in 0..rng.next_range(2, 12) {
                            self.step(*now, latency);
                        }
                    }
                    151..=300 => {
                        let depth = if rng.chance(1, 2) {
                            64
                        } else {
                            PRUNE_WINDOW - c
                        };
                        self.step(self.top.saturating_sub(rng.next_below(depth)), latency);
                    }
                    _ => {
                        // ~70 % utilisation, so grants stay near `now`.
                        *now += rng.next_below(8 * c + 1);
                        self.step(*now, latency);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_calendar_matches_the_sorted_vec_reference() {
        for c in [1u64, 4, 7] {
            for seed in 1..=3u64 {
                let mut rng = Xoshiro256::new(seed * 31 + c);
                let mut pair = Pair::new(c);
                let mut now = 0;
                pair.drive(&mut rng, &mut now, 20_000);

                // Persist in the middle. The ring's own bytes round-trip
                // bit-identically...
                let mut w = ByteWriter::new();
                pair.bus.save_state(&mut w);
                let ring_bytes = w.into_bytes();
                let mut reloaded = Bus::new(c, c);
                let mut r = ByteReader::new(&ring_bytes);
                reloaded.load_state(&mut r).expect("own bytes load");
                r.finish().expect("no trailing bytes");
                assert_eq!(reloaded, pair.bus);
                let mut w = ByteWriter::new();
                reloaded.save_state(&mut w);
                assert_eq!(w.into_bytes(), ring_bytes);
                // ...and each side continues from the *other's* bytes: the
                // ring from what the parent commit's writer produced
                // (unpruned old starts included), the reference from the
                // ring's.
                let mut w = ByteWriter::new();
                pair.req.save_state(&mut w);
                pair.resp.save_state(&mut w);
                let mut ref_bytes = w.into_bytes();
                let mut r = ByteReader::new(&ring_bytes);
                pair.req.load_state(&mut r);
                pair.resp.load_state(&mut r);
                // Monitor high-water mark and counters follow the calendars.
                ref_bytes.extend_from_slice(&ring_bytes[ring_bytes.len() - r.remaining()..]);
                pair.bus = Bus::new(c, c);
                pair.bus
                    .load_state(&mut ByteReader::new(&ref_bytes))
                    .expect("parent-format bytes load");
                pair.drive(&mut rng, &mut now, 20_000);

                // Checkpoint, diverge, roll back: clone + restore_from.
                let cp = pair.bus.clone();
                let cp_gen = pair.bus.generation();
                let (cp_req, cp_resp, cp_top) = (pair.req.clone(), pair.resp.clone(), pair.top);
                let (mut spec_rng, mut spec_now) = (rng.clone(), now);
                pair.drive(&mut spec_rng, &mut spec_now, 2_000);
                pair.bus.restore_from(&cp, cp_gen);
                assert_eq!(pair.bus, cp);
                (pair.req, pair.resp, pair.top) = (cp_req, cp_resp, cp_top);
                pair.drive(&mut rng, &mut now, 20_000);
            }
        }
    }

    /// The ring's contract by brute force: a sorted set of starts that
    /// forgets, and ignores, every start below the same word-aligned
    /// window base. Unlike [`RefCalendar`] it agrees with the ring on
    /// stragglers at the window's trailing edge, and its bytes are the
    /// ring's.
    struct WindowRef {
        occupancy: u64,
        starts: BTreeSet<u64>,
        horizon: u64,
    }

    impl WindowRef {
        fn new(occupancy: u64) -> Self {
            WindowRef {
                occupancy,
                starts: BTreeSet::new(),
                horizon: 0,
            }
        }

        fn base(&self) -> u64 {
            self.horizon.saturating_sub(PRUNE_WINDOW) & !63
        }

        fn reserve(&mut self, from: u64) -> u64 {
            let c = self.occupancy;
            let base = self.base();
            if from < base {
                return from;
            }
            let mut slot = from;
            while let Some(&r) = self
                .starts
                .range((slot + 1).saturating_sub(c).max(base)..slot + c)
                .next_back()
            {
                slot = r + c;
            }
            self.starts.insert(slot);
            self.horizon = self.horizon.max(slot);
            let base = self.base();
            while self.starts.first().is_some_and(|&r| r < base) {
                self.starts.pop_first();
            }
            slot
        }

        fn save_state(&self, w: &mut ByteWriter) {
            w.u64(self.horizon);
            w.u32(self.starts.len() as u32);
            self.starts.iter().for_each(|&r| w.u64(r));
        }

        fn load_state(&mut self, r: &mut ByteReader<'_>) {
            self.horizon = r.u64().unwrap();
            let base = self.base();
            self.starts = (0..r.u32().unwrap())
                .map(|_| r.u64().unwrap())
                .filter(|&start| start >= base)
                .collect();
        }
    }

    fn calendar_bytes(save: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn tail_run_jump_matches_the_window_reference() {
        for c in [1u64, 4, 7] {
            for seed in 1..=3u64 {
                let mut rng = Xoshiro256::new(seed * 131 + c);
                let mut ring = SlotCalendar::new(c);
                let mut reference = WindowRef::new(c);
                let grant = |ring: &mut SlotCalendar, reference: &mut WindowRef, from| {
                    assert_eq!(
                        ring.reserve(from),
                        reference.reserve(from),
                        "c {c}, from {from}"
                    );
                };
                // Where the current tail run began, as far as the test
                // built it: requests are aimed inside it.
                let mut run_start = 0u64;
                for step in 0..30_000u32 {
                    let horizon = ring.horizon;
                    match rng.next_below(10_000) {
                        // A saturated chain: the next start lands less than
                        // `2c` after the horizon, back to back or with a
                        // hole too short for a slot.
                        0..=6999 => {
                            let gap = if rng.chance(1, 2) {
                                c
                            } else {
                                rng.next_range(c, 2 * c - 1)
                            };
                            grant(&mut ring, &mut reference, horizon + gap);
                        }
                        // Inside the tail run near its end, now and then
                        // anywhere in it or just ahead of it.
                        7000..=8949 => {
                            let depth = rng.next_below(32 * c);
                            grant(&mut ring, &mut reference, horizon.saturating_sub(depth));
                        }
                        8950..=8999 => {
                            let lo = run_start.saturating_sub(c);
                            grant(&mut ring, &mut reference, rng.next_range(lo, horizon));
                        }
                        // Same-cycle bursts at the horizon.
                        9000..=9947 => {
                            for _ in 0..rng.next_range(2, 6) {
                                grant(&mut ring, &mut reference, horizon);
                            }
                        }
                        // Stragglers at the window's trailing edge: within
                        // `occupancy` of the base, where the start that
                        // overlaps them may already be forgotten.
                        9948..=9997 => {
                            let base = reference.base();
                            let from = (base + rng.next_below(c + 1)).saturating_sub(1);
                            grant(&mut ring, &mut reference, from);
                        }
                        // A gap of `2c` or more begins a new run; runs
                        // outgrow the window in between.
                        _ => {
                            let from = horizon + rng.next_range(2 * c, 8 * c);
                            grant(&mut ring, &mut reference, from);
                            run_start = from;
                        }
                    }
                    // Save mid-chain; each side continues from the other's
                    // bytes, which must be the same bytes.
                    if step % 10_000 == 9_999 {
                        let ring_bytes = calendar_bytes(|w| ring.save_state(w));
                        let ref_bytes = calendar_bytes(|w| reference.save_state(w));
                        assert_eq!(ring_bytes, ref_bytes, "c {c}, step {step}");
                        let mut r = ByteReader::new(&ref_bytes);
                        ring.load_state(&mut r).expect("reference bytes load");
                        r.finish().expect("no trailing bytes");
                        reference.load_state(&mut ByteReader::new(&ring_bytes));
                    }
                }
                assert!(ring.base() > 0, "the chains must outgrow the window");
            }
        }
    }

    /// Bus bytes with hand-written calendars and a zero trailer.
    fn bus_bytes(req: (u64, &[u64]), resp: (u64, &[u64])) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for (horizon, starts) in [req, resp] {
            w.u64(horizon);
            w.u32(starts.len() as u32);
            for &s in starts {
                w.u64(s);
            }
        }
        for _ in 0..5 {
            w.u64(0);
        }
        w.into_bytes()
    }

    #[test]
    fn hostile_calendar_bytes_are_rejected_and_leave_the_calendar_untouched() {
        let mut live = Bus::new(2, 1);
        live.arbitrate(ts(5));
        live.respond(ts(40));
        let before = live.clone();
        let corrupt = |bytes: &[u8]| {
            let mut bus = live.clone();
            let err = bus.request.load_state(&mut ByteReader::new(bytes));
            assert_eq!(bus, before, "a failed load must not change state");
            err
        };

        let good = bus_bytes((9, &[3, 5, 9]), (0, &[]));
        assert!(live.clone().load_state(&mut ByteReader::new(&good)).is_ok());
        for cut in 0..good.len() {
            let mut bus = live.clone();
            let err = bus.load_state(&mut ByteReader::new(&good[..cut]));
            assert!(matches!(err, Err(PersistError::Truncated)), "cut at {cut}");
        }
        // Starts closer together than the occupancy (2), duplicated, or
        // out of order would double-book cycles.
        for starts in [&[3u64, 4, 9][..], &[3, 3, 9], &[5, 3, 9]] {
            assert!(matches!(
                corrupt(&bus_bytes((9, starts), (0, &[]))),
                Err(PersistError::Corrupt(_))
            ));
        }
        // A horizon below (or unrelated to) the newest start would let the
        // past-the-horizon path grant an occupied slot.
        for horizon in [0u64, 8, 10] {
            assert!(matches!(
                corrupt(&bus_bytes((horizon, &[3, 5, 9]), (0, &[]))),
                Err(PersistError::Corrupt(_))
            ));
        }
        assert!(matches!(
            corrupt(&bus_bytes((7, &[]), (0, &[]))),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn starts_older_than_the_window_are_accepted_and_dropped() {
        let horizon = 10 * PRUNE_WINDOW;
        let bytes = bus_bytes((horizon, &[10, horizon - 6, horizon]), (0, &[]));
        let mut bus = Bus::new(2, 1);
        bus.load_state(&mut ByteReader::new(&bytes)).expect("loads");
        let mut w = ByteWriter::new();
        bus.save_state(&mut w);
        assert_eq!(
            w.into_bytes(),
            bus_bytes((horizon, &[horizon - 6, horizon]), (0, &[]))
        );
        assert_eq!(bus.arbitrate(ts(horizon - 7)).grant, ts(horizon - 4));
    }
}
