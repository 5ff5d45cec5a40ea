//! Pins the durable byte form (`save_state`) of every CMP model, driven
//! into the states whole-run snapshots rarely reach: a spilled directory
//! sharer set and a reclaimed line whose monitor outlives it, a lock with
//! queued waiters beside an open barrier episode, status-map monitors
//! after compaction, a core with misses in flight. Each case is the
//! length and FNV-1a of one model's bytes, so any change to a model's
//! layout fails here by name. Every model must also load its own bytes
//! back and write them out again unchanged.

use slacksim_cmp::bus::Bus;
use slacksim_cmp::cache::{Cache, CacheConfig, LineAddr};
use slacksim_cmp::config::{CmpConfig, CoreConfig, UncoreKind};
use slacksim_cmp::core::CmpCore;
use slacksim_cmp::directory::Directory;
use slacksim_cmp::event::MemEvent;
use slacksim_cmp::isa::{LoopStream, Op};
use slacksim_cmp::l2::L2;
use slacksim_cmp::map::CacheMap;
use slacksim_cmp::mesi::{BusOp, MesiState};
use slacksim_cmp::sync::SyncDevice;
use slacksim_cmp::uncore::CmpUncore;
use slacksim_core::engine::{CoreModel, ServiceSink, TickCtx, UncoreModel};
use slacksim_core::event::{CoreId, Inbox, Timestamped};
use slacksim_core::persist::{fnv1a, ByteReader, ByteWriter, PersistError};
use slacksim_core::time::Cycle;

fn ts(t: u64) -> Cycle {
    Cycle::new(t)
}

fn c(i: u16) -> CoreId {
    CoreId::new(i)
}

fn bytes_of(save: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    save(&mut w);
    w.into_bytes()
}

/// Asserts the pinned length and FNV-1a of `bytes`, printing the found
/// pair on a mismatch.
fn assert_pinned(name: &str, bytes: &[u8], len: usize, fnv: u64) {
    let found = (bytes.len(), fnv1a(bytes));
    assert!(
        found == (len, fnv),
        "{name}: {} bytes with FNV-1a {:#018x}, pinned {len} / {fnv:#018x}",
        found.0,
        found.1
    );
}

/// Loads `bytes` with `load` into a fresh model, requires the reader to
/// end exactly at the end, and requires the reloaded model to write the
/// same bytes again.
fn assert_reloads<T>(
    bytes: &[u8],
    mut fresh: T,
    load: impl FnOnce(&mut T, &mut ByteReader<'_>) -> Result<(), PersistError>,
    save: impl FnOnce(&T, &mut ByteWriter),
) {
    let mut r = ByteReader::new(bytes);
    load(&mut fresh, &mut r).expect("a model loads its own bytes");
    r.finish().expect("no trailing bytes");
    assert!(
        bytes_of(|w| save(&fresh, w)) == bytes,
        "reload rewrites the same bytes"
    );
}

fn small_cache() -> CacheConfig {
    CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 32,
    }
}

#[test]
fn cache_and_l2_bytes_are_pinned() {
    let mut cache = Cache::new(small_cache());
    for (i, line) in [1u64, 5, 9, 2, 5, 13, 1].into_iter().enumerate() {
        let state = [MesiState::Shared, MesiState::Exclusive, MesiState::Modified][i % 3];
        if cache.probe(LineAddr::new(line)).is_none() {
            cache.fill(LineAddr::new(line), state);
        }
    }
    cache.invalidate(LineAddr::new(2));
    let bytes = bytes_of(|w| cache.save_state(w));
    assert_pinned("cache", &bytes, 54, 0x9437_7ba7_29ee_ef1e);
    assert_reloads(
        &bytes,
        Cache::new(small_cache()),
        Cache::load_state,
        Cache::save_state,
    );

    let mut l2 = L2::new(small_cache(), 8, 100);
    l2.write_back(LineAddr::new(0));
    for line in [4u64, 8, 12, 3, 4] {
        l2.access(LineAddr::new(line), ts(line * 10));
    }
    let bytes = bytes_of(|w| l2.save_state(w));
    assert_pinned("l2", &bytes, 83, 0xa850_ffa5_ecfc_9b87);
    assert_reloads(
        &bytes,
        L2::new(small_cache(), 8, 100),
        L2::load_state,
        L2::save_state,
    );
}

#[test]
fn bus_and_status_map_bytes_are_pinned() {
    let mut bus = Bus::new(2, 1);
    for t in [5u64, 5, 2, 40, 41, 300] {
        bus.arbitrate(ts(t));
    }
    bus.respond(ts(110));
    bus.respond(ts(30));
    let bytes = bytes_of(|w| bus.save_state(w));
    assert_pinned("bus", &bytes, 128, 0xb4fc_283f_9dde_d7af);
    assert_reloads(&bytes, Bus::new(2, 1), Bus::load_state, Bus::save_state);

    let mut map = CacheMap::new(8);
    map.transition(BusOp::Rd, LineAddr::new(0x40), c(0), ts(10));
    map.transition(BusOp::Rd, LineAddr::new(0x40), c(3), ts(12));
    map.transition(BusOp::RdX, LineAddr::new(0x41), c(5), ts(20));
    map.transition(BusOp::Rd, LineAddr::new(0x42), c(7), ts(4));
    map.transition(BusOp::Wb, LineAddr::new(0x41), c(5), ts(30));
    map.transition(BusOp::Rd, LineAddr::new(0x40), c(1), ts(8));
    map.compact_monitor(ts(5));
    let bytes = bytes_of(|w| map.save_state(w));
    assert_pinned("map", &bytes, 80, 0x0622_2981_cd32_35c4);
    assert_reloads(
        &bytes,
        CacheMap::new(8),
        CacheMap::load_state,
        CacheMap::save_state,
    );
}

#[test]
fn directory_bytes_are_pinned() {
    let mut dir = Directory::new(64, 4);
    // 40 sharers spill the inline set; an RdX then shrinks another line.
    for i in 0..40u16 {
        dir.access(BusOp::Rd, LineAddr::new(0x80), c(i), ts(10 + u64::from(i)));
    }
    for i in [3u16, 9, 27, 50, 63, 12] {
        dir.access(BusOp::Rd, LineAddr::new(0x91), c(i), ts(60 + u64::from(i)));
    }
    dir.access(BusOp::RdX, LineAddr::new(0x91), c(27), ts(200));
    // A reclaimed line whose monitor stays, and an order violation.
    dir.access(BusOp::RdX, LineAddr::new(0x81), c(5), ts(100));
    dir.access(BusOp::Wb, LineAddr::new(0x81), c(5), ts(110));
    dir.access(BusOp::Rd, LineAddr::new(0x82), c(9), ts(50));
    dir.compact_monitors(ts(15));
    let bytes = bytes_of(|w| dir.save_state(w));
    assert_pinned("directory", &bytes, 1_683, 0x5cdf_4992_0cb5_7d23);
    assert_reloads(
        &bytes,
        Directory::new(64, 4),
        Directory::load_state,
        Directory::save_state,
    );
}

#[test]
fn sync_device_bytes_are_pinned() {
    let mut dev = SyncDevice::new(8, 4, 2);
    dev.barrier_arrive(c(0), 7, ts(100));
    dev.barrier_arrive(c(6), 7, ts(50));
    dev.barrier_arrive(c(2), 3, ts(70));
    for i in 0..8u16 {
        dev.barrier_arrive(c(i), 1, ts(10 + u64::from(i)));
    }
    dev.lock_acquire(c(0), 9, ts(10));
    dev.lock_acquire(c(1), 9, ts(11));
    dev.lock_acquire(c(5), 9, ts(13));
    dev.lock_acquire(c(2), 4, ts(20));
    dev.lock_release(c(2), 4, ts(25));
    dev.lock_acquire(c(7), 2, ts(30));
    let bytes = bytes_of(|w| dev.save_state(w));
    assert_pinned("sync", &bytes, 145, 0xd2c1_24b1_273e_2b26);
    assert_reloads(
        &bytes,
        SyncDevice::new(8, 4, 2),
        SyncDevice::load_state,
        SyncDevice::save_state,
    );
}

fn ops() -> Vec<Op> {
    vec![
        Op::IntAlu,
        Op::Load { addr: 0x8000 },
        Op::Load { addr: 0x8004 },
        Op::Branch { mispredict: true },
        Op::Store { addr: 0x9040 },
        Op::IntMul,
        Op::LockAcquire { id: 3 },
        Op::Load { addr: 0xA000 },
        Op::LockRelease { id: 3 },
        Op::FpMul,
        Op::Barrier { id: 1 },
    ]
}

fn core() -> CmpCore {
    CmpCore::new(&CoreConfig::default(), Box::new(LoopStream::new(ops())))
}

#[test]
fn core_bytes_are_pinned() {
    let mut core = core();
    let mut inbox = Inbox::new();
    // Requests are answered 30 cycles later and sync 20 cycles later, so
    // misses are in flight and a spin may be under way at the snapshot.
    for t in 0..200u64 {
        let mut out = Vec::new();
        let mut ctx = TickCtx::new(ts(t), &mut inbox, &mut out);
        core.tick(&mut ctx);
        for ev in out {
            let reply = match ev.payload {
                MemEvent::Request { req, line, .. } => Some((
                    30,
                    MemEvent::Reply {
                        req,
                        line,
                        grant: MesiState::Exclusive,
                    },
                )),
                MemEvent::LockAcquire { id } => Some((20, MemEvent::LockGranted { id })),
                MemEvent::BarrierArrive { id } => Some((20, MemEvent::BarrierRelease { id })),
                _ => None,
            };
            if let Some((delay, reply)) = reply {
                inbox.deliver(Timestamped::new(ev.ts + delay, reply));
            }
        }
    }
    let bytes = bytes_of(|w| core.save_state(w));
    assert_pinned("core", &bytes, 827, 0x5323_d440_237f_9966);
    assert_reloads(
        &bytes,
        self::core(),
        CmpCore::load_state,
        CmpCore::save_state,
    );
}

/// The uncore facade of both kinds, driven through its service interface.
#[test]
fn uncore_bytes_are_pinned() {
    for (kind, cores, len, fnv) in [
        (UncoreKind::Bus, 8, 4_249, 0xd128_80f6_04c8_f18f),
        (UncoreKind::Directory, 32, 4_317, 0x133c_699f_aaa6_3d9a),
    ] {
        let cfg = CmpConfig::with_uncore(kind, cores);
        let mut uncore = CmpUncore::new(&cfg);
        let mut sink = ServiceSink::new();
        for i in 0..120u64 {
            let from = c((i * 7 % cores as u64) as u16);
            let ev = match i % 6 {
                0..=2 => MemEvent::Request {
                    op: [BusOp::Rd, BusOp::RdX, BusOp::Upgr][(i % 3) as usize],
                    line: LineAddr::new(i % 17),
                    req: i as u32,
                    ifetch: false,
                },
                3 => MemEvent::Writeback {
                    line: LineAddr::new(i % 13),
                },
                4 => MemEvent::LockAcquire { id: (i % 2) as u32 },
                _ => MemEvent::LockRelease { id: (i % 2) as u32 },
            };
            // Timestamps run mostly forward with stragglers.
            let at = 10 * i + 60 - (i % 5) * 15;
            uncore.service(from, Timestamped::new(ts(at), ev), &mut sink);
            let _ = sink.take_deliveries().count();
            let _ = sink.take_violations().count();
        }
        uncore.service(
            c(1),
            Timestamped::new(ts(2000), MemEvent::BarrierArrive { id: 4 }),
            &mut sink,
        );
        let bytes = bytes_of(|w| uncore.save_state(w));
        assert_pinned(&format!("{kind} uncore"), &bytes, len, fnv);
        assert_reloads(
            &bytes,
            CmpUncore::new(&cfg),
            CmpUncore::load_state,
            CmpUncore::save_state,
        );
    }
}
