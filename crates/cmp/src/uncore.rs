//! The manager-side target model: snooping bus + shared L2 + cache status
//! map + synchronisation device, wired together as one
//! [`UncoreModel`].
//!
//! This is the simulation-manager role of SlackSim's architecture
//! (paper Figure 1): it consumes core requests from the global queue in
//! arrival order, arbitrates the bus, consults the cache map, sources data
//! (remote owner, L2, or memory), and delivers completion and snoop events
//! back into core InQs — detecting bus and map violations along the way.

use std::any::Any;

use slacksim_core::checkpoint::{Baseline, Checkpointable, WholeDelta};
use slacksim_core::engine::{Home, ServiceSink, UncoreModel};
use slacksim_core::event::{CoreId, Timestamped};
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};
use slacksim_core::stats::Counters;
use slacksim_core::time::Cycle;
use slacksim_core::violation::{ViolationEvent, ViolationKind as V};

use crate::bus::Bus;
use crate::cache::LineAddr;
use crate::config::{CmpConfig, UncoreKind};
use crate::directory::{bank_count, Directory, DirectoryDelta};
use crate::event::MemEvent;
use crate::l2::{L2Delta, L2};
use crate::map::{CacheMap, CacheMapDelta};
use crate::mesi::BusOp;
use crate::sync::SyncDevice;

/// The shared portion of the target CMP.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::config::CmpConfig;
/// use slacksim_cmp::uncore::CmpUncore;
///
/// let uncore = CmpUncore::new(&CmpConfig::paper());
/// ```
#[derive(Debug, Clone)]
pub struct CmpUncore {
    n_cores: usize,
    interconnect: Interconnect,
    sync: SyncDevice,
    /// The parts' generations at the last capture: the interconnect's
    /// (see [`CmpUncore::part_gens`]), then the sync device's.
    cp: Baseline<Vec<u64>>,
}

/// The uncore's latencies (configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Latencies {
    upgrade: u64,
    cache_to_cache: u64,
    snoop: u64,
    dir_lookup: u64,
    net: u64,
}

/// The uncore's own counters: its untracked scalars, carried whole by
/// every delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct UncoreStats {
    c2c_transfers: u64,
    requests: u64,
    writebacks: u64,
}

slacksim_core::persist_fields! { UncoreStats { c2c_transfers, requests, writebacks } }

impl std::iter::Sum for UncoreStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(UncoreStats::default(), |a, b| UncoreStats {
            c2c_transfers: a.c2c_transfers + b.c2c_transfers,
            requests: a.requests + b.requests,
            writebacks: a.writebacks + b.writebacks,
        })
    }
}

/// The coherence interconnect with the L2 behind it: the paper's snooping
/// bus (with the manager's global status map), or the sharded directory
/// split into homes. One per run, so the bus is not boxed.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Interconnect {
    Bus(BusSide),
    Directory {
        /// Empty while lent to a parallel service. Boxed because they are
        /// lent as `Box<dyn Home>`: each moves in and out as a pointer.
        #[allow(clippy::vec_box)]
        homes: Vec<Box<DirHome>>,
        n_homes: usize,
    },
}

/// The bus path: one bus, the status map, the L2 and the counters.
#[derive(Debug, Clone)]
struct BusSide {
    bus: Bus,
    map: CacheMap,
    l2: L2,
    stats: UncoreStats,
    lat: Latencies,
}

/// One home of the directory uncore (DESIGN §17): the directory banks and
/// L2 sets of the lines `l` with `l % homes == h`, and the counters of
/// the events they service. No two homes share state, so each services
/// its events on its own.
#[derive(Debug, Clone)]
struct DirHome {
    dir: Directory,
    l2: L2,
    stats: UncoreStats,
    lat: Latencies,
    /// The directory's and the L2's generations at the last capture.
    cp: Baseline<[u64; 2]>,
}

/// Incremental state carrier for the [`CmpUncore`]: component deltas plus
/// the counters.
#[derive(Debug, Clone)]
pub struct CmpUncoreDelta {
    interconnect: InterconnectDelta,
    sync: WholeDelta<SyncDevice>,
}

/// Interconnect-shaped delta matching [`Interconnect`].
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum InterconnectDelta {
    Bus {
        bus: WholeDelta<Bus>,
        map: CacheMapDelta,
        l2: L2Delta,
        stats: UncoreStats,
    },
    Directory(Vec<DirHomeDelta>),
}

/// One home's delta.
#[derive(Debug, Clone)]
struct DirHomeDelta {
    dir: DirectoryDelta,
    l2: L2Delta,
    stats: UncoreStats,
}

impl CmpUncoreDelta {
    /// Number of dirty L2 sets carried.
    pub fn l2_dirty_sets(&self) -> usize {
        match &self.interconnect {
            InterconnectDelta::Bus { l2, .. } => l2.dirty_sets(),
            InterconnectDelta::Directory(homes) => homes.iter().map(|h| h.l2.dirty_sets()).sum(),
        }
    }

    /// Number of dirty coherence lines carried (status-map lines on the
    /// bus path, directory-entry lines summed across banks otherwise).
    pub fn map_dirty_lines(&self) -> usize {
        match &self.interconnect {
            InterconnectDelta::Bus { map, .. } => map.dirty_lines(),
            InterconnectDelta::Directory(homes) => homes.iter().map(|h| h.dir.dirty_lines()).sum(),
        }
    }

    /// Whether interconnect-global state is carried (the bus calendars,
    /// or at least one dirty directory bank).
    pub fn bus_dirty(&self) -> bool {
        match &self.interconnect {
            InterconnectDelta::Bus { bus, .. } => bus.is_dirty(),
            InterconnectDelta::Directory(_) => self.dirty_banks() > 0,
        }
    }

    /// Number of directory banks carried (0 on the bus path).
    pub fn dirty_banks(&self) -> usize {
        match &self.interconnect {
            InterconnectDelta::Bus { .. } => 0,
            InterconnectDelta::Directory(homes) => homes.iter().map(|h| h.dir.dirty_banks()).sum(),
        }
    }
}

/// Reports a violation of `kind` at `ts` when `hit`.
fn flag(sink: &mut ServiceSink<MemEvent>, hit: bool, kind: V, ts: Cycle, high_water: Cycle) {
    if hit {
        sink.report_violation(ViolationEvent {
            kind,
            ts,
            high_water,
        });
    }
}

/// The line a coherence event (a request or a writeback) is about.
fn line_of(ev: &MemEvent) -> Option<LineAddr> {
    match *ev {
        MemEvent::Request { line, .. } | MemEvent::Writeback { line } => Some(line),
        _ => None,
    }
}

impl BusSide {
    /// Services a request or a writeback.
    fn service(
        &mut self,
        from: CoreId,
        ev: Timestamped<MemEvent>,
        sink: &mut ServiceSink<MemEvent>,
    ) {
        let ts = ev.ts;
        let grant = self.bus.arbitrate(ts);
        flag(sink, grant.violation, V::Bus, ts, grant.high_water);
        match ev.payload {
            MemEvent::Request { op, line, req, .. } => {
                self.stats.requests += 1;
                let outcome = self.map.transition(op, line, from, ts);
                flag(sink, outcome.violation, V::Map, ts, outcome.high_water);
                // Snoop deliveries ride right behind the request
                // broadcast.
                let snoop_ts = grant.grant + self.lat.snoop;
                for c in outcome.invalidate {
                    sink.deliver(c, Timestamped::new(snoop_ts, MemEvent::Invalidate { line }));
                }
                for c in outcome.downgrade {
                    sink.deliver(c, Timestamped::new(snoop_ts, MemEvent::Downgrade { line }));
                }
                // Source the data.
                let data_ready = if let Some(_owner) = outcome.data_from_owner {
                    self.stats.c2c_transfers += 1;
                    grant.grant + self.lat.cache_to_cache
                } else if op == BusOp::Upgr {
                    grant.grant + self.lat.upgrade
                } else {
                    self.l2.access(line, grant.grant).data_ready
                };
                let done = self.bus.respond(data_ready);
                let grant = outcome.grant;
                sink.deliver(
                    from,
                    Timestamped::new(done, MemEvent::Reply { req, line, grant }),
                );
            }
            MemEvent::Writeback { line } => {
                self.stats.writebacks += 1;
                let outcome = self.map.transition(BusOp::Wb, line, from, ts);
                flag(sink, outcome.violation, V::Map, ts, outcome.high_water);
                self.l2.write_back(line);
            }
            other => unreachable!("not a coherence event: {other:?}"),
        }
    }
}

impl Home<MemEvent> for DirHome {
    fn service(
        &mut self,
        from: CoreId,
        ev: Timestamped<MemEvent>,
        sink: &mut ServiceSink<MemEvent>,
    ) {
        let ts = ev.ts;
        let (op, line) = match ev.payload {
            MemEvent::Request { op, line, .. } => (op, line),
            MemEvent::Writeback { line } => (BusOp::Wb, line),
            ref other => unreachable!("not a coherence event: {other:?}"),
        };
        let a = self.dir.access(op, line, from, ts);
        flag(
            sink,
            a.order_violation,
            V::Directory,
            ts,
            a.order_high_water,
        );
        flag(sink, a.line_violation, V::Map, ts, a.line_high_water);
        let MemEvent::Request { req, .. } = ev.payload else {
            self.stats.writebacks += 1;
            self.l2.write_back(line);
            return;
        };
        self.stats.requests += 1;
        // The bank finishes its lookup one port occupancy after the
        // grant; snoops and data are then point-to-point messages —
        // there is no broadcast bus or shared response resource to
        // arbitrate.
        let lookup_done = a.grant + self.lat.dir_lookup;
        let snoop_ts = lookup_done + self.lat.net;
        for c in a.invalidate.iter() {
            sink.deliver(c, Timestamped::new(snoop_ts, MemEvent::Invalidate { line }));
        }
        if let Some(c) = a.downgrade {
            sink.deliver(c, Timestamped::new(snoop_ts, MemEvent::Downgrade { line }));
        }
        let data_ready = if a.data_from_owner.is_some() {
            self.stats.c2c_transfers += 1;
            lookup_done + self.lat.cache_to_cache
        } else if op == BusOp::Upgr {
            lookup_done + self.lat.upgrade
        } else {
            self.l2.access(line, lookup_done).data_ready
        };
        let done = data_ready + self.lat.net;
        let grant = a.grant_state;
        sink.deliver(
            from,
            Timestamped::new(done, MemEvent::Reply { req, line, grant }),
        );
    }
}

impl DirHome {
    fn parts(&self) -> [u64; 2] {
        [self.dir.generation(), self.l2.generation()]
    }
}

impl Checkpointable for DirHome {
    type Delta = DirHomeDelta;

    fn generation(&self) -> u64 {
        Baseline::token(&self.parts())
    }

    fn capture_delta(&mut self, since_gen: u64) -> DirHomeDelta {
        let [dir, l2] = self.cp.resolve(since_gen, self.parts());
        let delta = DirHomeDelta {
            dir: self.dir.capture_delta(dir),
            l2: self.l2.capture_delta(l2),
            stats: self.stats,
        };
        self.cp.record(self.parts());
        delta
    }

    fn apply_delta(&mut self, delta: DirHomeDelta) {
        self.dir.apply_delta(delta.dir);
        self.l2.apply_delta(delta.l2);
        self.stats = delta.stats;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let [dir, l2] = self.cp.resolve(since_gen, self.parts());
        self.dir.restore_from(&base.dir, dir);
        self.l2.restore_from(&base.l2, l2);
        self.stats = base.stats;
    }
}

impl CmpUncore {
    /// Builds the uncore for the given target configuration. The
    /// directory uncore is split into one home per bank, or per L2 set
    /// when the L2 has fewer sets than the directory has banks.
    pub fn new(cfg: &CmpConfig) -> Self {
        let u = &cfg.uncore;
        let lat = Latencies {
            upgrade: u.upgrade_latency,
            cache_to_cache: u.cache_to_cache_latency,
            snoop: u.snoop_latency,
            dir_lookup: u.dir_lookup_latency,
            net: u.net_latency,
        };
        let l2 = |slices| L2::split(u.l2, u.l2_hit_latency, u.l2_miss_latency, slices);
        let interconnect = match cfg.uncore_kind {
            UncoreKind::Bus => Interconnect::Bus(BusSide {
                bus: Bus::new(u.req_bus_cycles, u.resp_bus_cycles),
                map: CacheMap::new(cfg.cores),
                l2: l2(1).next().expect("one slice"),
                stats: UncoreStats::default(),
                lat,
            }),
            UncoreKind::Directory => {
                let n_homes = bank_count(cfg.cores).min(u.l2.sets());
                let homes = Directory::split(cfg.cores, u.dir_lookup_latency, n_homes)
                    .zip(l2(n_homes))
                    .map(|(dir, l2)| {
                        Box::new(DirHome {
                            dir,
                            l2,
                            stats: UncoreStats::default(),
                            lat,
                            cp: Baseline::default(),
                        })
                    })
                    .collect();
                Interconnect::Directory { homes, n_homes }
            }
        };
        CmpUncore {
            n_cores: cfg.cores,
            interconnect,
            sync: SyncDevice::new(cfg.cores, u.barrier_latency, u.lock_latency),
            cp: Baseline::default(),
        }
    }

    /// The components' generations: the bus's, the map's and the L2's,
    /// or every home's; then the sync device's.
    fn part_gens(&self) -> Vec<u64> {
        let mut gens = match &self.interconnect {
            Interconnect::Bus(side) => vec![
                side.bus.generation(),
                side.map.generation(),
                side.l2.generation(),
            ],
            Interconnect::Directory { homes, .. } => {
                homes.iter().map(|home| home.generation()).collect()
            }
        };
        gens.push(self.sync.generation());
        gens
    }

    /// Which interconnect this uncore instantiates.
    pub fn uncore_kind(&self) -> UncoreKind {
        match self.interconnect {
            Interconnect::Bus(_) => UncoreKind::Bus,
            Interconnect::Directory { .. } => UncoreKind::Directory,
        }
    }

    /// The bus model (read access for assertions and reports).
    ///
    /// # Panics
    ///
    /// Panics when the uncore is configured with the directory
    /// interconnect.
    pub fn bus(&self) -> &Bus {
        match &self.interconnect {
            Interconnect::Bus(side) => &side.bus,
            Interconnect::Directory { .. } => panic!("directory uncore has no bus"),
        }
    }

    /// The cache status map (read access for assertions and reports).
    ///
    /// # Panics
    ///
    /// Panics when the uncore is configured with the directory
    /// interconnect.
    pub fn map(&self) -> &CacheMap {
        match &self.interconnect {
            Interconnect::Bus(side) => &side.map,
            Interconnect::Directory { .. } => panic!("directory uncore has no status map"),
        }
    }

    /// Appends this model's snapshot bytes (DESIGN §13): a `u32` kind tag
    /// (0 bus, 1 directory), the bus and the map or the directory, the
    /// L2, the sync device and the counters. A directory uncore writes
    /// the bytes of one whole directory and one whole L2 — banks and sets
    /// in global order, counters summed over the homes — so the bytes do
    /// not depend on how the state is split.
    pub fn save_state(&self, w: &mut ByteWriter) {
        let stats = match &self.interconnect {
            Interconnect::Bus(side) => {
                w.u32(0);
                side.bus.save_state(w);
                side.map.save_state(w);
                side.l2.save_state(w);
                side.stats
            }
            Interconnect::Directory { homes, .. } => {
                w.u32(1);
                let dirs: Vec<&Directory> = homes.iter().map(|h| &h.dir).collect();
                Directory::save_shares(&dirs, w);
                let l2s: Vec<&L2> = homes.iter().map(|h| &h.l2).collect();
                L2::save_slices(&l2s, w);
                homes.iter().map(|h| h.stats).sum()
            }
        };
        self.sync.save_state(w);
        stats.save(w);
    }

    /// Reads bytes written by `save_state` into this model, which must be
    /// freshly built from the configuration that wrote them: configuration
    /// is validated against, never read, and capture bookkeeping is not
    /// reset. A directory uncore's counters load into its first home.
    ///
    /// # Errors
    ///
    /// Returns a `PersistError` for malformed bytes or for state this
    /// configuration cannot hold.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        let stats = match (r.u32()?, &mut self.interconnect) {
            (0, Interconnect::Bus(side)) => {
                side.bus.load_state(r)?;
                side.map.load_state(r)?;
                side.l2.load_state(r)?;
                &mut side.stats
            }
            (1, Interconnect::Directory { homes, .. }) => {
                let mut dirs: Vec<&mut Directory> = homes.iter_mut().map(|h| &mut h.dir).collect();
                Directory::load_shares(&mut dirs, r)?;
                let mut l2s: Vec<&mut L2> = homes.iter_mut().map(|h| &mut h.l2).collect();
                L2::load_slices(&mut l2s, r)?;
                &mut homes[0].stats
            }
            _ => {
                return Err(PersistError::Corrupt(
                    "snapshot interconnect kind does not match configuration",
                ))
            }
        };
        self.sync.load_state(r)?;
        *stats = UncoreStats::load(r)?;
        Ok(())
    }
}

impl Checkpointable for CmpUncore {
    type Delta = CmpUncoreDelta;

    /// The sum of the component generations ([`Baseline`]): opaque to
    /// engines, which only ever feed it back to
    /// [`capture_delta`](Checkpointable::capture_delta) /
    /// [`restore_from`](Checkpointable::restore_from).
    fn generation(&self) -> u64 {
        Baseline::token(&self.part_gens())
    }

    fn capture_delta(&mut self, since_gen: u64) -> CmpUncoreDelta {
        let since = self.cp.resolve(since_gen, self.part_gens());
        let (&sync, since) = since.split_last().expect("the sync device is a part");
        let interconnect = match &mut self.interconnect {
            Interconnect::Bus(side) => InterconnectDelta::Bus {
                bus: side.bus.capture_delta(since[0]),
                map: side.map.capture_delta(since[1]),
                l2: side.l2.capture_delta(since[2]),
                stats: side.stats,
            },
            Interconnect::Directory { homes, .. } => InterconnectDelta::Directory(
                homes
                    .iter_mut()
                    .zip(since)
                    .map(|(home, &since)| home.capture_delta(since))
                    .collect(),
            ),
        };
        let delta = CmpUncoreDelta {
            interconnect,
            sync: self.sync.capture_delta(sync),
        };
        self.cp.record(self.part_gens());
        delta
    }

    fn apply_delta(&mut self, delta: CmpUncoreDelta) {
        match (&mut self.interconnect, delta.interconnect) {
            (
                Interconnect::Bus(side),
                InterconnectDelta::Bus {
                    bus,
                    map,
                    l2,
                    stats,
                },
            ) => {
                side.bus.apply_delta(bus);
                side.map.apply_delta(map);
                side.l2.apply_delta(l2);
                side.stats = stats;
            }
            (Interconnect::Directory { homes, .. }, InterconnectDelta::Directory(deltas)) => {
                debug_assert_eq!(homes.len(), deltas.len());
                for (home, delta) in homes.iter_mut().zip(deltas) {
                    home.apply_delta(delta);
                }
            }
            _ => unreachable!("delta interconnect kind matches the uncore that captured it"),
        }
        self.sync.apply_delta(delta.sync);
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let since = self.cp.resolve(since_gen, self.part_gens());
        let (&sync, since) = since.split_last().expect("the sync device is a part");
        match (&mut self.interconnect, &base.interconnect) {
            (Interconnect::Bus(side), Interconnect::Bus(base)) => {
                side.bus.restore_from(&base.bus, since[0]);
                side.map.restore_from(&base.map, since[1]);
                side.l2.restore_from(&base.l2, since[2]);
                side.stats = base.stats;
            }
            (
                Interconnect::Directory { homes, .. },
                Interconnect::Directory { homes: base, .. },
            ) => {
                for ((home, base), &since) in homes.iter_mut().zip(base).zip(since) {
                    home.restore_from(base, since);
                }
            }
            _ => unreachable!("checkpoint interconnect kind matches the live uncore"),
        }
        self.sync.restore_from(&base.sync, sync);
        // The recorded baseline is deliberately kept: the checkpoint it
        // describes is still the live baseline for the next capture, and
        // component generations are never rewound.
    }
}

impl UncoreModel<MemEvent> for CmpUncore {
    fn service(
        &mut self,
        from: CoreId,
        ev: Timestamped<MemEvent>,
        sink: &mut ServiceSink<MemEvent>,
    ) {
        let ts = ev.ts;
        match ev.payload {
            MemEvent::Request { line, .. } | MemEvent::Writeback { line } => {
                match &mut self.interconnect {
                    Interconnect::Bus(side) => side.service(from, ev, sink),
                    Interconnect::Directory { homes, n_homes } => {
                        let home = line.raw() as usize & (*n_homes - 1);
                        homes[home].service(from, ev, sink);
                    }
                }
            }
            MemEvent::BarrierArrive { id } => {
                if let Some((release, cores)) = self.sync.barrier_arrive(from, id, ts) {
                    for c in cores {
                        sink.deliver(
                            c,
                            Timestamped::new(release, MemEvent::BarrierRelease { id }),
                        );
                    }
                }
            }
            MemEvent::LockAcquire { id } => {
                if let Some(grant) = self.sync.lock_acquire(from, id, ts) {
                    sink.deliver(from, Timestamped::new(grant, MemEvent::LockGranted { id }));
                }
            }
            MemEvent::LockRelease { id } => {
                if let Some((next, grant)) = self.sync.lock_release(from, id, ts) {
                    sink.deliver(next, Timestamped::new(grant, MemEvent::LockGranted { id }));
                }
            }
            reply @ (MemEvent::Reply { .. }
            | MemEvent::Invalidate { .. }
            | MemEvent::Downgrade { .. }
            | MemEvent::BarrierRelease { .. }
            | MemEvent::LockGranted { .. }) => {
                debug_assert!(false, "core sent a manager-direction event: {reply:?}");
            }
        }
    }

    /// Drops per-line order monitors whose high-water mark is at or below
    /// the committed checkpoint horizon: every event up to the horizon has
    /// been serviced, and future events carry later timestamps, so those
    /// monitors can never flag again. Keeps long runs' monitor footprint
    /// flat instead of growing with the touched-line count.
    fn compact_monitors(&mut self, horizon: Cycle) {
        match &mut self.interconnect {
            Interconnect::Bus(side) => {
                side.map.compact_monitor(horizon);
            }
            Interconnect::Directory { homes, .. } => {
                for home in homes {
                    home.dir.compact_monitors(horizon);
                }
            }
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        let stats = match &self.interconnect {
            Interconnect::Bus(side) => {
                let (bus, map) = (&side.bus, &side.map);
                c.set("bus_transactions", bus.transactions());
                c.set("bus_conflicts", bus.conflicts());
                c.set("bus_busy_cycles", bus.busy_cycles());
                c.set("bus_violations", bus.violations());
                c.set("map_transitions", map.transitions());
                c.set("map_violations", map.violations());
                c.set("map_tracked_lines", map.tracked_lines() as u64);
                c.set("map_monitor_entries", map.monitor_entries() as u64);
                side.stats
            }
            Interconnect::Directory { homes, .. } => {
                let sum = |f: fn(&Directory) -> u64| homes.iter().map(|h| f(&h.dir)).sum::<u64>();
                c.set("dir_banks", sum(|d| d.banks() as u64));
                c.set("dir_transactions", sum(Directory::transitions));
                c.set("dir_conflicts", sum(Directory::conflicts));
                c.set("dir_busy_cycles", sum(Directory::busy_cycles));
                c.set("dir_violations", sum(Directory::order_violations));
                c.set("map_transitions", sum(Directory::transitions));
                c.set("map_violations", sum(Directory::line_violations));
                c.set("map_tracked_lines", sum(|d| d.tracked_lines() as u64));
                c.set("map_monitor_entries", sum(|d| d.monitor_entries() as u64));
                homes.iter().map(|h| h.stats).sum()
            }
        };
        let l2 = |f: fn(&L2) -> u64| match &self.interconnect {
            Interconnect::Bus(side) => f(&side.l2),
            Interconnect::Directory { homes, .. } => homes.iter().map(|h| f(&h.l2)).sum(),
        };
        c.set("l2_hits", l2(L2::hits));
        c.set("l2_misses", l2(L2::misses));
        c.set("l2_writebacks_in", l2(L2::writebacks_in));
        c.set("l2_memory_writes", l2(L2::memory_writes));
        c.set("coherence_requests", stats.requests);
        c.set("writebacks", stats.writebacks);
        c.set("cache_to_cache_transfers", stats.c2c_transfers);
        c.set("barriers_completed", self.sync.barriers_completed());
        c.set("lock_grants", self.sync.lock_grants());
        c.set("lock_contended", self.sync.lock_contended());
        c.set("cores", self.n_cores as u64);
        c
    }

    /// The directory's homes; the bus is one home.
    fn homes(&self) -> usize {
        match self.interconnect {
            Interconnect::Bus(_) => 1,
            Interconnect::Directory { n_homes, .. } => n_homes,
        }
    }

    /// A request or a writeback goes to its line's home; barriers and
    /// locks are the sync device's, which no home holds.
    fn home_of(&self, _from: CoreId, ev: &MemEvent) -> Option<usize> {
        match self.interconnect {
            Interconnect::Bus(_) => None,
            Interconnect::Directory { n_homes, .. } => {
                line_of(ev).map(|line| line.raw() as usize & (n_homes - 1))
            }
        }
    }

    fn lend_homes(&mut self, out: &mut Vec<Box<dyn Home<MemEvent>>>) {
        if let Interconnect::Directory { homes, .. } = &mut self.interconnect {
            out.extend(homes.drain(..).map(|home| home as Box<dyn Home<MemEvent>>));
        }
    }

    fn return_homes(&mut self, lent: &mut Vec<Box<dyn Home<MemEvent>>>) {
        if let Interconnect::Directory { homes, .. } = &mut self.interconnect {
            homes.extend(lent.drain(..).map(|home| {
                let home: Box<dyn Any> = home;
                home.downcast::<DirHome>().expect("a home this uncore lent")
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineAddr;
    use slacksim_core::time::Cycle;
    use slacksim_core::violation::ViolationKind;

    fn uncore() -> CmpUncore {
        CmpUncore::new(&CmpConfig::paper())
    }

    fn request(op: BusOp, line: u64, req: u32) -> MemEvent {
        MemEvent::Request {
            op,
            line: LineAddr::new(line),
            req,
            ifetch: false,
        }
    }

    fn service(
        u: &mut CmpUncore,
        from: u16,
        ts: u64,
        ev: MemEvent,
    ) -> (Vec<(CoreId, Timestamped<MemEvent>)>, Vec<ViolationEvent>) {
        let mut sink = ServiceSink::new();
        u.service(
            CoreId::new(from),
            Timestamped::new(Cycle::new(ts), ev),
            &mut sink,
        );
        (
            sink.take_deliveries().collect(),
            sink.take_violations().collect(),
        )
    }

    #[test]
    fn cold_read_misses_to_memory() {
        let mut u = uncore();
        let (deliveries, violations) = service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        assert!(violations.is_empty());
        assert_eq!(deliveries.len(), 1);
        let (to, ev) = &deliveries[0];
        assert_eq!(*to, CoreId::new(0));
        // grant(10) + miss(100) + response bus(1).
        assert_eq!(ev.ts, Cycle::new(111));
        match &ev.payload {
            MemEvent::Reply { grant, .. } => {
                assert_eq!(*grant, crate::mesi::MesiState::Exclusive)
            }
            other => panic!("unexpected delivery {other:?}"),
        }
    }

    #[test]
    fn second_reader_gets_shared_and_owner_downgrade() {
        let mut u = uncore();
        service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        let (deliveries, _) = service(&mut u, 1, 20, request(BusOp::Rd, 7, 2));
        // Downgrade to core 0 plus reply to core 1.
        assert_eq!(deliveries.len(), 2);
        assert!(matches!(
            deliveries[0].1.payload,
            MemEvent::Downgrade { .. }
        ));
        assert_eq!(deliveries[0].0, CoreId::new(0));
        match &deliveries[1].1.payload {
            MemEvent::Reply { grant, .. } => {
                assert_eq!(*grant, crate::mesi::MesiState::Shared)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Cache-to-cache is faster than memory.
        assert!(deliveries[1].1.ts < Cycle::new(20 + 100));
    }

    #[test]
    fn rdx_invalidates_sharers() {
        let mut u = uncore();
        service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        service(&mut u, 1, 20, request(BusOp::Rd, 7, 2));
        let (deliveries, _) = service(&mut u, 2, 30, request(BusOp::RdX, 7, 3));
        let invals: Vec<CoreId> = deliveries
            .iter()
            .filter(|(_, e)| matches!(e.payload, MemEvent::Invalidate { .. }))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(invals, vec![CoreId::new(0), CoreId::new(1)]);
    }

    #[test]
    fn upgrade_is_fast_and_dataless() {
        let mut u = uncore();
        service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        service(&mut u, 1, 20, request(BusOp::Rd, 7, 2));
        let (deliveries, _) = service(&mut u, 0, 30, request(BusOp::Upgr, 7, 3));
        let reply = deliveries
            .iter()
            .find(|(_, e)| matches!(e.payload, MemEvent::Reply { .. }))
            .expect("reply");
        // grant(30) + upgrade(3) + resp bus(1).
        assert_eq!(reply.1.ts, Cycle::new(34));
    }

    #[test]
    fn out_of_order_requests_yield_bus_and_map_violations() {
        let mut u = uncore();
        service(&mut u, 0, 100, request(BusOp::Rd, 7, 1));
        let (_, violations) = service(&mut u, 1, 50, request(BusOp::Rd, 7, 2));
        let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::Bus));
        assert!(kinds.contains(&ViolationKind::Map));
    }

    #[test]
    fn different_lines_only_violate_the_bus() {
        let mut u = uncore();
        service(&mut u, 0, 100, request(BusOp::Rd, 7, 1));
        let (_, violations) = service(&mut u, 1, 50, request(BusOp::Rd, 999, 2));
        let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::Bus]);
    }

    #[test]
    fn writeback_has_no_reply() {
        let mut u = uncore();
        service(&mut u, 0, 10, request(BusOp::RdX, 7, 1));
        let (deliveries, _) = service(
            &mut u,
            0,
            50,
            MemEvent::Writeback {
                line: LineAddr::new(7),
            },
        );
        assert!(deliveries.is_empty());
        assert_eq!(u.counters().get("l2_writebacks_in"), 1);
    }

    #[test]
    fn sync_traffic_bypasses_the_bus() {
        let mut u = uncore();
        let before = u.bus().transactions();
        service(&mut u, 0, 10, MemEvent::LockAcquire { id: 1 });
        service(&mut u, 0, 20, MemEvent::LockRelease { id: 1 });
        for i in 0..8u16 {
            service(&mut u, i, 30, MemEvent::BarrierArrive { id: 0 });
        }
        assert_eq!(u.bus().transactions(), before);
        assert_eq!(u.counters().get("barriers_completed"), 1);
    }

    #[test]
    fn barrier_release_reaches_all_cores() {
        let mut u = uncore();
        let mut released = Vec::new();
        for i in 0..8u16 {
            let (d, _) = service(&mut u, i, 10 + i as u64, MemEvent::BarrierArrive { id: 3 });
            released = d;
        }
        assert_eq!(released.len(), 8);
        assert!(released
            .iter()
            .all(|(_, e)| matches!(e.payload, MemEvent::BarrierRelease { id: 3 })));
    }

    #[test]
    fn delta_roundtrip_matches_full_clone() {
        let mut live = uncore();
        service(&mut live, 0, 10, request(BusOp::Rd, 7, 1));
        let mut base = live.clone();
        let g0 = live.generation();
        // Seed the baseline at the checkpoint; nothing is dirty yet.
        let seed = live.capture_delta(g0);
        assert!(!seed.bus_dirty());
        assert_eq!(seed.map_dirty_lines(), 0);
        assert_eq!(seed.l2_dirty_sets(), 0);
        service(&mut live, 1, 20, request(BusOp::RdX, 7, 2));
        service(&mut live, 0, 30, MemEvent::LockAcquire { id: 1 });
        let delta = live.capture_delta(g0);
        assert!(delta.bus_dirty());
        assert!(delta.map_dirty_lines() >= 1);
        base.apply_delta(delta);
        assert_eq!(base.counters(), live.counters());
        assert_eq!(base.bus(), live.bus());
        assert_eq!(base.map(), live.map());
    }

    #[test]
    fn restore_rewinds_to_the_checkpoint_base() {
        let mut live = uncore();
        service(&mut live, 0, 10, request(BusOp::Rd, 7, 1));
        let base = live.clone();
        let g0 = live.generation();
        let _ = live.capture_delta(g0);
        service(&mut live, 1, 20, request(BusOp::RdX, 9, 2));
        service(&mut live, 2, 25, MemEvent::BarrierArrive { id: 0 });
        live.restore_from(&base, g0);
        assert_eq!(live.counters(), base.counters());
        assert_eq!(live.bus(), base.bus());
        assert_eq!(live.map(), base.map());
    }

    #[test]
    fn unknown_baseline_token_degrades_to_full_restore() {
        let mut live = uncore();
        service(&mut live, 0, 10, request(BusOp::Rd, 7, 1));
        let base = live.clone();
        // No capture was ever taken: the token is unknown, so restore must
        // conservatively rewind everything.
        service(&mut live, 1, 20, request(BusOp::RdX, 9, 2));
        live.restore_from(&base, 12345);
        assert_eq!(live.counters(), base.counters());
        assert_eq!(live.map(), base.map());
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = uncore();
        service(&mut live, 0, 10, request(BusOp::Rd, 7, 1));
        service(&mut live, 1, 20, request(BusOp::RdX, 7, 2));
        service(&mut live, 0, 30, MemEvent::LockAcquire { id: 1 });
        service(&mut live, 1, 31, MemEvent::LockAcquire { id: 1 });
        service(&mut live, 2, 40, MemEvent::BarrierArrive { id: 0 });
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = uncore();
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.counters(), live.counters());
        assert_eq!(restored.bus(), live.bus());
        assert_eq!(restored.map(), live.map());
        // Identical forward behaviour, including the in-flight lock FIFO
        // and the open barrier episode.
        let (da, va) = service(&mut live, 0, 50, MemEvent::LockRelease { id: 1 });
        let (db, vb) = service(&mut restored, 0, 50, MemEvent::LockRelease { id: 1 });
        assert_eq!(da, db);
        assert_eq!(va.len(), vb.len());
        let (da, _) = service(&mut live, 2, 60, request(BusOp::Rd, 99, 3));
        let (db, _) = service(&mut restored, 2, 60, request(BusOp::Rd, 99, 3));
        assert_eq!(da, db);

        let mut truncated = uncore();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 4]);
        assert!(truncated.load_state(&mut r).is_err());
    }

    #[test]
    fn monitor_compaction_flattens_long_runs() {
        let mut u = uncore();
        let mut peak = 0usize;
        for i in 0..400u64 {
            // Touch a fresh line each round so an uncompacted monitor map
            // would grow without bound.
            service(&mut u, 0, 10 * i, request(BusOp::Rd, 1000 + i, i as u32));
            if i % 50 == 49 {
                // The engine compacts at each committed checkpoint: every
                // event at or below the horizon has been serviced.
                u.compact_monitors(Cycle::new(10 * i));
            }
            peak = peak.max(u.counters().get("map_monitor_entries") as usize);
        }
        assert!(
            peak <= 60,
            "monitor map must stay flat under compaction, peaked at {peak}"
        );
        // Lines remain tracked for coherence even after their monitors go.
        assert!(u.counters().get("map_tracked_lines") >= 400);
    }

    #[test]
    fn counters_are_populated() {
        let mut u = uncore();
        service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        let c = u.counters();
        assert_eq!(c.get("bus_transactions"), 1);
        assert_eq!(c.get("coherence_requests"), 1);
        assert_eq!(c.get("l2_misses"), 1);
        assert_eq!(c.get("cores"), 8);
    }

    fn snapshot(u: &CmpUncore) -> Vec<u8> {
        let mut w = ByteWriter::new();
        u.save_state(&mut w);
        w.into_bytes()
    }

    fn dir_uncore(cores: usize) -> CmpUncore {
        CmpUncore::new(&CmpConfig::with_uncore(
            crate::config::UncoreKind::Directory,
            cores,
        ))
    }

    #[test]
    fn directory_cold_read_misses_to_memory() {
        let mut u = dir_uncore(64);
        let (deliveries, violations) = service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        assert!(violations.is_empty());
        assert_eq!(deliveries.len(), 1);
        // grant(10) + lookup(4) + miss(100) + net hop(3).
        assert_eq!(deliveries[0].1.ts, Cycle::new(117));
        assert!(matches!(
            deliveries[0].1.payload,
            MemEvent::Reply {
                grant: crate::mesi::MesiState::Exclusive,
                ..
            }
        ));
    }

    #[test]
    fn directory_violations_are_per_bank() {
        let mut u = dir_uncore(64); // 16 banks
        service(&mut u, 0, 100, request(BusOp::Rd, 16, 1)); // bank 0
                                                            // Earlier timestamp at a different bank: no violation at all.
        let (_, violations) = service(&mut u, 1, 50, request(BusOp::Rd, 17, 2));
        assert!(violations.is_empty(), "different bank, no shared monitor");
        // Earlier timestamp at the same bank, different line: directory
        // violation only.
        let (_, violations) = service(&mut u, 2, 60, request(BusOp::Rd, 32, 3));
        let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![ViolationKind::Directory]);
        // Earlier timestamp on the same line: directory and map classes.
        let (_, violations) = service(&mut u, 3, 70, request(BusOp::Rd, 16, 4));
        let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::Directory));
        assert!(kinds.contains(&ViolationKind::Map));
    }

    #[test]
    fn directory_invalidates_many_sharers_in_core_order() {
        let mut u = dir_uncore(64);
        for i in 0..64u16 {
            service(&mut u, i, 10 + u64::from(i), request(BusOp::Rd, 7, 1));
        }
        let (deliveries, _) = service(&mut u, 5, 1000, request(BusOp::Upgr, 7, 2));
        let invals: Vec<CoreId> = deliveries
            .iter()
            .filter(|(_, e)| matches!(e.payload, MemEvent::Invalidate { .. }))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(invals.len(), 63, "all sharers but the upgrader");
        assert!(invals.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn directory_counters_are_populated() {
        let mut u = dir_uncore(64);
        service(&mut u, 0, 10, request(BusOp::Rd, 7, 1));
        let c = u.counters();
        assert_eq!(c.get("dir_banks"), 16);
        assert_eq!(c.get("dir_transactions"), 1);
        assert_eq!(c.get("map_transitions"), 1);
        assert_eq!(c.get("cores"), 64);
        assert_eq!(c.get("bus_transactions"), 0, "no bus on this path");
    }

    #[test]
    fn directory_delta_roundtrip_matches_full_clone() {
        let mut live = dir_uncore(64);
        service(&mut live, 0, 10, request(BusOp::Rd, 7, 1));
        let mut base = live.clone();
        let g0 = live.generation();
        let seed = live.capture_delta(g0);
        assert_eq!(seed.dirty_banks(), 0, "clean since capture");
        service(&mut live, 1, 20, request(BusOp::RdX, 7, 2));
        service(&mut live, 2, 30, request(BusOp::Rd, 9, 3));
        let delta = live.capture_delta(g0);
        assert!(delta.dirty_banks() >= 1);
        assert!(delta.map_dirty_lines() >= 2);
        base.apply_delta(delta);
        assert_eq!(base.counters(), live.counters());
        assert_eq!(snapshot(&base), snapshot(&live));
    }

    #[test]
    fn directory_restore_rewinds_to_the_checkpoint() {
        let mut live = dir_uncore(64);
        service(&mut live, 0, 10, request(BusOp::Rd, 7, 1));
        let base = live.clone();
        let g0 = live.generation();
        let _ = live.capture_delta(g0);
        service(&mut live, 1, 20, request(BusOp::RdX, 9, 2));
        service(&mut live, 2, 25, MemEvent::BarrierArrive { id: 0 });
        live.restore_from(&base, g0);
        assert_eq!(live.counters(), base.counters());
        assert_eq!(snapshot(&live), snapshot(&base));
    }

    #[test]
    fn directory_save_load_round_trip_is_bit_identical() {
        let mut live = dir_uncore(64);
        for i in 0..40u16 {
            service(&mut live, i, 10 + u64::from(i), request(BusOp::Rd, 7, 1));
        }
        service(&mut live, 0, 100, MemEvent::LockAcquire { id: 1 });
        service(&mut live, 33, 101, MemEvent::LockAcquire { id: 1 });
        service(&mut live, 63, 110, MemEvent::BarrierArrive { id: 0 });
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = dir_uncore(64);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.counters(), live.counters());
        assert_eq!(snapshot(&restored), snapshot(&live));
        let (da, _) = service(&mut live, 50, 200, request(BusOp::RdX, 7, 9));
        let (db, _) = service(&mut restored, 50, 200, request(BusOp::RdX, 7, 9));
        assert_eq!(da, db, "identical forward behaviour after resume");

        // A bus-kind uncore refuses a directory snapshot outright.
        let mut wrong = uncore();
        assert!(wrong.load_state(&mut ByteReader::new(&bytes)).is_err());
    }
}
