//! The manager-side target model: snooping bus + shared L2 + cache status
//! map + synchronisation device, wired together as one
//! [`UncoreModel`].
//!
//! This is the simulation-manager role of SlackSim's architecture
//! (paper Figure 1): it consumes core requests from the global queue in
//! arrival order, arbitrates the bus, consults the cache map, sources data
//! (remote owner, L2, or memory), and delivers completion and snoop events
//! back into core InQs — detecting bus and map violations along the way.

use slacksim_core::checkpoint::{Baseline, Checkpointable, WholeDelta};
use slacksim_core::engine::{ServiceSink, UncoreModel};
use slacksim_core::event::{CoreId, Timestamped};
use slacksim_core::persist::{ByteReader, ByteWriter, PersistError};
use slacksim_core::stats::Counters;
use slacksim_core::time::Cycle;
use slacksim_core::violation::{ViolationEvent, ViolationKind};

use crate::bus::Bus;
use crate::config::{CmpConfig, UncoreKind};
use crate::directory::{Directory, DirectoryDelta};
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
    upgrade_latency: u64,
    cache_to_cache_latency: u64,
    snoop_latency: u64,
    dir_lookup_latency: u64,
    net_latency: u64,
    interconnect: Interconnect,
    l2: L2,
    sync: SyncDevice,
    stats: UncoreStats,
    /// The components' generations at the last capture.
    cp: Baseline<[u64; 4]>,
}

/// The uncore's own counters: its untracked scalars, carried whole by
/// every delta.
#[derive(Debug, Clone, Copy, Default)]
struct UncoreStats {
    c2c_transfers: u64,
    requests: u64,
    writebacks: u64,
}

slacksim_core::persist_fields! { UncoreStats { c2c_transfers, requests, writebacks } }

// Latencies and the core count are configuration; the interconnect's kind
// tag refuses a snapshot of the other kind.
slacksim_core::persist_walk! { CmpUncore, |u| u.interconnect, u.l2, u.sync, u.stats }

/// The coherence interconnect: the paper's snooping bus (with the
/// manager's global status map) or the sharded directory.
#[derive(Debug, Clone)]
enum Interconnect {
    Bus { bus: Bus, map: CacheMap },
    Directory(Directory),
}

impl Interconnect {
    fn kind(&self) -> UncoreKind {
        match self {
            Interconnect::Bus { .. } => UncoreKind::Bus,
            Interconnect::Directory(_) => UncoreKind::Directory,
        }
    }

    /// A `u32` kind tag (0 bus, 1 directory), then the components.
    fn save_state(&self, w: &mut ByteWriter) {
        match self {
            Interconnect::Bus { bus, map } => {
                w.u32(0);
                bus.save_state(w);
                map.save_state(w);
            }
            Interconnect::Directory(dir) => {
                w.u32(1);
                dir.save_state(w);
            }
        }
    }

    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        match (r.u32()?, self) {
            (0, Interconnect::Bus { bus, map }) => {
                bus.load_state(r)?;
                map.load_state(r)
            }
            (1, Interconnect::Directory(dir)) => dir.load_state(r),
            _ => Err(PersistError::Corrupt(
                "snapshot interconnect kind does not match configuration",
            )),
        }
    }
}

/// Incremental state carrier for the [`CmpUncore`]: component deltas plus
/// the uncore's own counters.
#[derive(Debug, Clone)]
pub struct CmpUncoreDelta {
    interconnect: InterconnectDelta,
    l2: L2Delta,
    sync: WholeDelta<SyncDevice>,
    stats: UncoreStats,
}

/// Interconnect-shaped delta matching [`Interconnect`].
#[derive(Debug, Clone)]
enum InterconnectDelta {
    Bus {
        bus: WholeDelta<Bus>,
        map: CacheMapDelta,
    },
    Directory(DirectoryDelta),
}

impl CmpUncoreDelta {
    /// Number of dirty L2 sets carried.
    pub fn l2_dirty_sets(&self) -> usize {
        self.l2.dirty_sets()
    }

    /// Number of dirty coherence lines carried (status-map lines on the
    /// bus path, directory-entry lines summed across banks otherwise).
    pub fn map_dirty_lines(&self) -> usize {
        match &self.interconnect {
            InterconnectDelta::Bus { map, .. } => map.dirty_lines(),
            InterconnectDelta::Directory(d) => d.dirty_lines(),
        }
    }

    /// Whether interconnect-global state is carried (the bus calendars,
    /// or at least one dirty directory bank).
    pub fn bus_dirty(&self) -> bool {
        match &self.interconnect {
            InterconnectDelta::Bus { bus, .. } => bus.is_dirty(),
            InterconnectDelta::Directory(d) => d.dirty_banks() > 0,
        }
    }

    /// Number of directory banks carried (0 on the bus path).
    pub fn dirty_banks(&self) -> usize {
        match &self.interconnect {
            InterconnectDelta::Bus { .. } => 0,
            InterconnectDelta::Directory(d) => d.dirty_banks(),
        }
    }
}

impl CmpUncore {
    /// Builds the uncore for the given target configuration.
    pub fn new(cfg: &CmpConfig) -> Self {
        let u = &cfg.uncore;
        let interconnect = match cfg.uncore_kind {
            UncoreKind::Bus => Interconnect::Bus {
                bus: Bus::new(u.req_bus_cycles, u.resp_bus_cycles),
                map: CacheMap::new(cfg.cores),
            },
            UncoreKind::Directory => {
                Interconnect::Directory(Directory::new(cfg.cores, u.dir_lookup_latency))
            }
        };
        CmpUncore {
            n_cores: cfg.cores,
            upgrade_latency: u.upgrade_latency,
            cache_to_cache_latency: u.cache_to_cache_latency,
            snoop_latency: u.snoop_latency,
            dir_lookup_latency: u.dir_lookup_latency,
            net_latency: u.net_latency,
            interconnect,
            l2: L2::new(u.l2, u.l2_hit_latency, u.l2_miss_latency),
            sync: SyncDevice::new(cfg.cores, u.barrier_latency, u.lock_latency),
            stats: UncoreStats::default(),
            cp: Baseline::default(),
        }
    }

    /// The components' generations: the interconnect's two (bus and map,
    /// or the directory's and zero), the L2's and the sync device's.
    fn part_gens(&self) -> [u64; 4] {
        let (l2, sync) = (self.l2.generation(), self.sync.generation());
        match &self.interconnect {
            Interconnect::Bus { bus, map } => [bus.generation(), map.generation(), l2, sync],
            Interconnect::Directory(dir) => [dir.generation(), 0, l2, sync],
        }
    }

    /// Which interconnect this uncore instantiates.
    pub fn uncore_kind(&self) -> UncoreKind {
        self.interconnect.kind()
    }

    /// The bus model (read access for assertions and reports).
    ///
    /// # Panics
    ///
    /// Panics when the uncore is configured with the directory
    /// interconnect.
    pub fn bus(&self) -> &Bus {
        match &self.interconnect {
            Interconnect::Bus { bus, .. } => bus,
            Interconnect::Directory(_) => panic!("directory uncore has no bus"),
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
            Interconnect::Bus { map, .. } => map,
            Interconnect::Directory(_) => panic!("directory uncore has no status map"),
        }
    }

    /// The directory model (read access for assertions and reports).
    ///
    /// # Panics
    ///
    /// Panics when the uncore is configured with the snooping bus.
    pub fn directory(&self) -> &Directory {
        match &self.interconnect {
            Interconnect::Bus { .. } => panic!("bus uncore has no directory"),
            Interconnect::Directory(dir) => dir,
        }
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
        let [ic, ic_aux, l2, sync] = self.cp.resolve(since_gen, self.part_gens());
        let interconnect = match &mut self.interconnect {
            Interconnect::Bus { bus, map } => InterconnectDelta::Bus {
                bus: bus.capture_delta(ic),
                map: map.capture_delta(ic_aux),
            },
            Interconnect::Directory(dir) => InterconnectDelta::Directory(dir.capture_delta(ic)),
        };
        let delta = CmpUncoreDelta {
            interconnect,
            l2: self.l2.capture_delta(l2),
            sync: self.sync.capture_delta(sync),
            stats: self.stats,
        };
        self.cp.record(self.part_gens());
        delta
    }

    fn apply_delta(&mut self, delta: CmpUncoreDelta) {
        match (&mut self.interconnect, delta.interconnect) {
            (Interconnect::Bus { bus, map }, InterconnectDelta::Bus { bus: bd, map: md }) => {
                bus.apply_delta(bd);
                map.apply_delta(md);
            }
            (Interconnect::Directory(dir), InterconnectDelta::Directory(dd)) => {
                dir.apply_delta(dd);
            }
            _ => unreachable!("delta interconnect kind matches the uncore that captured it"),
        }
        self.l2.apply_delta(delta.l2);
        self.sync.apply_delta(delta.sync);
        self.stats = delta.stats;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let [ic, ic_aux, l2, sync] = self.cp.resolve(since_gen, self.part_gens());
        match (&mut self.interconnect, &base.interconnect) {
            (
                Interconnect::Bus { bus, map },
                Interconnect::Bus {
                    bus: base_bus,
                    map: base_map,
                },
            ) => {
                bus.restore_from(base_bus, ic);
                map.restore_from(base_map, ic_aux);
            }
            (Interconnect::Directory(dir), Interconnect::Directory(base_dir)) => {
                dir.restore_from(base_dir, ic);
            }
            _ => unreachable!("checkpoint interconnect kind matches the live uncore"),
        }
        self.l2.restore_from(&base.l2, l2);
        self.sync.restore_from(&base.sync, sync);
        self.stats = base.stats;
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
            MemEvent::Request {
                op,
                line,
                req,
                ifetch: _,
            } => {
                self.stats.requests += 1;
                match &mut self.interconnect {
                    Interconnect::Bus { bus, map } => {
                        let grant = bus.arbitrate(ts);
                        if grant.violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Bus,
                                ts,
                                high_water: grant.high_water,
                            });
                        }
                        let outcome = map.transition(op, line, from, ts);
                        if outcome.violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Map,
                                ts,
                                high_water: outcome.high_water,
                            });
                        }
                        // Snoop deliveries ride right behind the request
                        // broadcast.
                        let snoop_ts = grant.grant + self.snoop_latency;
                        for c in outcome.invalidate {
                            sink.deliver(
                                c,
                                Timestamped::new(snoop_ts, MemEvent::Invalidate { line }),
                            );
                        }
                        for c in outcome.downgrade {
                            sink.deliver(
                                c,
                                Timestamped::new(snoop_ts, MemEvent::Downgrade { line }),
                            );
                        }
                        // Source the data.
                        let data_ready = if let Some(_owner) = outcome.data_from_owner {
                            self.stats.c2c_transfers += 1;
                            grant.grant + self.cache_to_cache_latency
                        } else if op == BusOp::Upgr {
                            grant.grant + self.upgrade_latency
                        } else {
                            self.l2.access(line, grant.grant).data_ready
                        };
                        let done = bus.respond(data_ready);
                        sink.deliver(
                            from,
                            Timestamped::new(
                                done,
                                MemEvent::Reply {
                                    req,
                                    line,
                                    grant: outcome.grant,
                                },
                            ),
                        );
                    }
                    Interconnect::Directory(dir) => {
                        let access = dir.access(op, line, from, ts);
                        if access.order_violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Directory,
                                ts,
                                high_water: access.order_high_water,
                            });
                        }
                        if access.line_violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Map,
                                ts,
                                high_water: access.line_high_water,
                            });
                        }
                        // The bank finishes its lookup one port occupancy
                        // after the grant; snoops and data are then
                        // point-to-point messages — there is no broadcast
                        // bus or shared response resource to arbitrate.
                        let lookup_done = access.grant + self.dir_lookup_latency;
                        let snoop_ts = lookup_done + self.net_latency;
                        for c in access.invalidate {
                            sink.deliver(
                                c,
                                Timestamped::new(snoop_ts, MemEvent::Invalidate { line }),
                            );
                        }
                        for c in access.downgrade {
                            sink.deliver(
                                c,
                                Timestamped::new(snoop_ts, MemEvent::Downgrade { line }),
                            );
                        }
                        let data_ready = if access.data_from_owner.is_some() {
                            self.stats.c2c_transfers += 1;
                            lookup_done + self.cache_to_cache_latency
                        } else if op == BusOp::Upgr {
                            lookup_done + self.upgrade_latency
                        } else {
                            self.l2.access(line, lookup_done).data_ready
                        };
                        let done = data_ready + self.net_latency;
                        sink.deliver(
                            from,
                            Timestamped::new(
                                done,
                                MemEvent::Reply {
                                    req,
                                    line,
                                    grant: access.grant_state,
                                },
                            ),
                        );
                    }
                }
            }
            MemEvent::Writeback { line } => {
                self.stats.writebacks += 1;
                match &mut self.interconnect {
                    Interconnect::Bus { bus, map } => {
                        let grant = bus.arbitrate(ts);
                        if grant.violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Bus,
                                ts,
                                high_water: grant.high_water,
                            });
                        }
                        let outcome = map.transition(BusOp::Wb, line, from, ts);
                        if outcome.violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Map,
                                ts,
                                high_water: outcome.high_water,
                            });
                        }
                    }
                    Interconnect::Directory(dir) => {
                        let access = dir.access(BusOp::Wb, line, from, ts);
                        if access.order_violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Directory,
                                ts,
                                high_water: access.order_high_water,
                            });
                        }
                        if access.line_violation {
                            sink.report_violation(ViolationEvent {
                                kind: ViolationKind::Map,
                                ts,
                                high_water: access.line_high_water,
                            });
                        }
                    }
                }
                self.l2.write_back(line);
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
            Interconnect::Bus { map, .. } => {
                map.compact_monitor(horizon);
            }
            Interconnect::Directory(dir) => {
                dir.compact_monitors(horizon);
            }
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        match &self.interconnect {
            Interconnect::Bus { bus, map } => {
                c.set("bus_transactions", bus.transactions());
                c.set("bus_conflicts", bus.conflicts());
                c.set("bus_busy_cycles", bus.busy_cycles());
                c.set("bus_violations", bus.violations());
                c.set("map_transitions", map.transitions());
                c.set("map_violations", map.violations());
                c.set("map_tracked_lines", map.tracked_lines() as u64);
                c.set("map_monitor_entries", map.monitor_entries() as u64);
            }
            Interconnect::Directory(dir) => {
                c.set("dir_banks", dir.banks() as u64);
                c.set("dir_transactions", dir.transitions());
                c.set("dir_conflicts", dir.conflicts());
                c.set("dir_busy_cycles", dir.busy_cycles());
                c.set("dir_violations", dir.order_violations());
                c.set("map_transitions", dir.transitions());
                c.set("map_violations", dir.line_violations());
                c.set("map_tracked_lines", dir.tracked_lines() as u64);
                c.set("map_monitor_entries", dir.monitor_entries() as u64);
            }
        }
        c.set("l2_hits", self.l2.hits());
        c.set("l2_misses", self.l2.misses());
        c.set("l2_writebacks_in", self.l2.writebacks_in());
        c.set("l2_memory_writes", self.l2.memory_writes());
        c.set("coherence_requests", self.stats.requests);
        c.set("writebacks", self.stats.writebacks);
        c.set("cache_to_cache_transfers", self.stats.c2c_transfers);
        c.set("barriers_completed", self.sync.barriers_completed());
        c.set("lock_grants", self.sync.lock_grants());
        c.set("lock_contended", self.sync.lock_contended());
        c.set("cores", self.n_cores as u64);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineAddr;
    use slacksim_core::time::Cycle;

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
        assert_eq!(base.directory(), live.directory());
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
        assert_eq!(live.directory(), base.directory());
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
        assert_eq!(restored.directory(), live.directory());
        let (da, _) = service(&mut live, 50, 200, request(BusOp::RdX, 7, 9));
        let (db, _) = service(&mut restored, 50, 200, request(BusOp::RdX, 7, 9));
        assert_eq!(da, db, "identical forward behaviour after resume");

        // A bus-kind uncore refuses a directory snapshot outright.
        let mut wrong = uncore();
        assert!(wrong.load_state(&mut ByteReader::new(&bytes)).is_err());
    }
}
