//! Proves the window loop (under its threaded and batched names, barrier
//! windows and greedy rounds) and the sequential burst loop are
//! allocation-free at steady state, and that persisting checkpoints
//! recycles its two snapshot buffers instead of allocating per checkpoint.
//!
//! Strategy: a counting `#[global_allocator]` wraps the system allocator.
//! For each engine, two identical runs that differ only in commit target
//! (X vs 3X) are measured; the difference in allocation count is what the
//! extra ~2X of simulated work cost. Under cycle-by-cycle pacing the two
//! engines perform bit-identical simulation work, so the *models*
//! (caches, MSHRs, bus bookkeeping) contribute the same allocation growth
//! to both — any scaling difference is the window loop's own machinery:
//! the per-core spans, the staged-event service, a round's service order
//! and the hand-off to its workers.
//!
//! The loop reuses its staging buffers, spans and order scratch, and
//! records metrics through pre-interned keys, so its steady state performs
//! no heap allocation. One allocation per serviced event would add ~5% to
//! the delta below; one per window or round (they far outnumber events)
//! would multiply it. Both trip the threshold.
//!
//! This lives in its own integration-test binary so the allocator wrapper
//! cannot perturb any other test; the engine tests in it share one
//! process-wide counter, so each holds [`serial`] for its whole body.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocation calls of at least [`BIG`] bytes, process-wide: the size
/// class of a snapshot buffer, which no small bookkeeping reaches.
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
const BIG: usize = 64 << 10;

thread_local! {
    /// Allocation calls and live heap bytes (wrapping; only differences
    /// are read) of the current thread alone, for the single-threaded
    /// case that asserts exact numbers while the harness and other tests
    /// allocate on theirs. Plain `Cell`s: no lazy initialisation and no
    /// destructor, so the allocator may touch them at any time.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BIG_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(calls: u64, grown: usize, shrunk: usize) {
    ALLOCS.fetch_add(calls, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + calls));
    if grown >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_BIG_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
    let delta = (grown as u64).wrapping_sub(shrunk as u64);
    let _ = THREAD_LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_add(delta)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One engine test at a time: `ALLOCS` is process-wide (the threaded
/// engine allocates on its own threads), and the default test harness
/// runs the tests of a binary on parallel threads.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocation calls of one 8-core run; `lanes` is the threaded engine's
/// lane count (the sequential engine has none to size).
fn allocs_for_run(
    engine: slacksim::EngineKind,
    lanes: usize,
    scheme: slacksim::scheme::Scheme,
    commit: u64,
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = slacksim::Simulation::new(slacksim::Benchmark::Fft)
        .cores(8)
        .commit_target(commit)
        .seed(1)
        .scheme(scheme)
        .engine(engine)
        .host_threads(lanes)
        .run()
        .expect("run");
    assert!(report.committed >= commit);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocation growth attributable to ~2X extra steady-state work.
fn steady_delta(
    engine: slacksim::EngineKind,
    lanes: usize,
    scheme: &slacksim::scheme::Scheme,
) -> u64 {
    // Warm-up run absorbs one-time lazy initialization.
    let _ = allocs_for_run(engine, lanes, scheme.clone(), 5_000);
    let short = allocs_for_run(engine, lanes, scheme.clone(), 20_000);
    let long = allocs_for_run(engine, lanes, scheme.clone(), 60_000);
    long.saturating_sub(short)
}

#[test]
fn threaded_manager_loop_is_allocation_free_at_steady_state() {
    use slacksim::scheme::Scheme;
    use slacksim::EngineKind;
    let _serial = serial();

    // Cycle-by-cycle: both engines do bit-identical simulation work, so
    // the model-side allocation growth cancels out of the comparison.
    let seq_cc = steady_delta(EngineKind::Sequential, 0, &Scheme::CycleByCycle);
    let b16 = Scheme::BoundedSlack { bound: 16 };
    let seq_b16 = steady_delta(EngineKind::Sequential, 0, &b16);

    // Two lanes of four cores each, and the paper's lane per core.
    for lanes in [2, 8] {
        // The window loop's extra growth over sequential must stay a
        // small fraction: per-event or per-window allocation anywhere in
        // it would exceed this immediately (measured headroom was ~1.10x;
        // one alloc per serviced event alone pushes past 1.19x, per
        // window far beyond).
        let thr = steady_delta(EngineKind::Threaded, lanes, &Scheme::CycleByCycle);
        assert!(
            thr as f64 <= seq_cc as f64 * 1.15,
            "threaded steady-state allocation growth on {lanes} lanes ({thr}) \
             exceeds sequential ({seq_cc}) by more than 15% — the manager loop \
             or event transport is allocating per unit of work"
        );

        // Slack pacing exercises the greedy rounds (per-core spans, the
        // seeded service order). Their schedule is not the sequential
        // emulation's, so the threshold is looser, but per-round
        // allocation would still blow far past it.
        let thr = steady_delta(EngineKind::Threaded, lanes, &b16);
        assert!(
            thr as f64 <= seq_b16 as f64 * 1.5,
            "threaded greedy-path steady-state allocation growth on {lanes} \
             lanes ({thr}) far exceeds sequential ({seq_b16})"
        );
    }
}

fn allocs_for_instrumented_run(
    engine: slacksim::EngineKind,
    scheme: slacksim::scheme::Scheme,
    commit: u64,
) -> u64 {
    use std::sync::{Arc, Mutex};
    // Pre-reserved so appending beats never grows the capture buffer —
    // the quantity under test is the engine's and emitter's steady
    // state, not the sink's.
    let capture = Arc::new(Mutex::new(String::with_capacity(1 << 20)));
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = {
        let mut sim = slacksim::Simulation::new(slacksim::Benchmark::Fft);
        sim.cores(8)
            .commit_target(commit)
            .seed(1)
            .scheme(scheme)
            .engine(engine)
            .profile(true)
            .live(
                slacksim::LiveConfig::new()
                    .every(std::time::Duration::from_millis(1))
                    .to_capture(Arc::clone(&capture)),
            );
        sim.run().expect("run")
    };
    assert!(report.committed >= commit);
    assert!(
        !capture.lock().unwrap().is_empty(),
        "emitter beat at least once"
    );
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocation growth of an instrumented (profiler + live emitter) run
/// attributable to ~2X extra steady-state work.
fn steady_delta_instrumented(
    engine: slacksim::EngineKind,
    scheme: &slacksim::scheme::Scheme,
) -> u64 {
    let _ = allocs_for_instrumented_run(engine, scheme.clone(), 5_000);
    let short = allocs_for_instrumented_run(engine, scheme.clone(), 20_000);
    let long = allocs_for_instrumented_run(engine, scheme.clone(), 60_000);
    long.saturating_sub(short)
}

/// Profiling spans are two monotonic clock reads and a few relaxed
/// atomics; heartbeat rendering reuses one pre-sized buffer and the
/// engine publishes telemetry through plain atomic stores. None of it
/// may allocate per unit of simulated work: an instrumented run's
/// steady-state allocation growth must match an uninstrumented one's.
/// Per-run constants (emitter thread, profiler arena, render buffer)
/// cancel out of the short/long difference.
#[test]
fn profiling_and_live_emission_are_allocation_free_at_steady_state() {
    use slacksim::scheme::Scheme;
    use slacksim::EngineKind;
    let _serial = serial();

    for engine in [EngineKind::Sequential, EngineKind::Threaded] {
        let plain = steady_delta(engine, 0, &Scheme::CycleByCycle);
        let instrumented = steady_delta_instrumented(engine, &Scheme::CycleByCycle);
        assert!(
            instrumented as f64 <= plain as f64 * 1.15 + 256.0,
            "{engine:?}: instrumented steady-state allocation growth \
             ({instrumented}) exceeds uninstrumented ({plain}) — a span \
             guard, telemetry store or heartbeat render is allocating per \
             unit of work"
        );
    }
}

/// A target that allocates nothing once warm, so that every allocation of
/// a run over it is the engine's own: each core commits one instruction a
/// cycle and pings the uncore every few cycles, the uncore answers each
/// ping five cycles later.
mod toy {
    use slacksim::slacksim_core::engine::{CoreModel, Home, ServiceSink, TickCtx, UncoreModel};
    use slacksim::slacksim_core::event::{CoreId, Timestamped};
    use slacksim::slacksim_core::stats::Counters;

    #[derive(Debug, Clone)]
    pub struct Core {
        pub period: u64,
        pub committed: u64,
    }

    impl CoreModel for Core {
        type Event = bool;

        fn tick(&mut self, ctx: &mut TickCtx<'_, bool>) -> u32 {
            while ctx.pop_event().is_some() {}
            if ctx.now().as_u64().is_multiple_of(self.period) {
                ctx.emit(true);
            }
            self.committed += 1;
            1
        }

        fn committed(&self) -> u64 {
            self.committed
        }

        fn counters(&self) -> Counters {
            Counters::new()
        }
    }

    #[derive(Debug, Clone)]
    pub struct Uncore;

    impl UncoreModel<bool> for Uncore {
        fn service(&mut self, from: CoreId, ev: Timestamped<bool>, sink: &mut ServiceSink<bool>) {
            sink.deliver(from, Timestamped::new(ev.ts + 5, false));
        }

        fn counters(&self) -> Counters {
            Counters::new()
        }
    }

    /// An uncore of three homes, each answering the cores `c` with
    /// `c % 4 == h`; the cores `c % 4 == 3` are answered by the uncore
    /// itself. Its windows' events are serviced home by home on the
    /// threads that ran the cores.
    #[derive(Debug, Clone)]
    pub struct Homed {
        #[allow(clippy::vec_box)]
        pub homes: Vec<Box<Echo>>,
        pub serviced: u64,
    }

    #[derive(Debug, Clone, Default)]
    pub struct Echo {
        serviced: u64,
    }

    impl Home<bool> for Echo {
        fn service(&mut self, from: CoreId, ev: Timestamped<bool>, sink: &mut ServiceSink<bool>) {
            self.serviced += 1;
            sink.deliver(from, Timestamped::new(ev.ts + 5, false));
        }
    }

    impl UncoreModel<bool> for Homed {
        fn service(&mut self, from: CoreId, ev: Timestamped<bool>, sink: &mut ServiceSink<bool>) {
            match self.home_of(from, &ev.payload) {
                Some(h) => self.homes[h].service(from, ev, sink),
                None => {
                    self.serviced += 1;
                    sink.deliver(from, Timestamped::new(ev.ts + 7, false));
                }
            }
        }

        fn counters(&self) -> Counters {
            Counters::new()
        }

        fn homes(&self) -> usize {
            3
        }

        fn home_of(&self, from: CoreId, _ev: &bool) -> Option<usize> {
            Some(from.index() % 4).filter(|&h| h < 3)
        }

        fn lend_homes(&mut self, out: &mut Vec<Box<dyn Home<bool>>>) {
            out.extend(self.homes.drain(..).map(|h| h as Box<dyn Home<bool>>));
        }

        fn return_homes(&mut self, homes: &mut Vec<Box<dyn Home<bool>>>) {
            self.homes.extend(homes.drain(..).map(|h| {
                let h: Box<dyn std::any::Any> = h;
                h.downcast().expect("an echo home")
            }));
        }
    }

    impl Homed {
        pub fn new() -> Self {
            Homed {
                homes: (0..3).map(|_| Box::default()).collect(),
                serviced: 0,
            }
        }
    }

    slacksim::slacksim_core::impl_checkpointable_by_clone!(Core, Uncore, Homed);
}

/// The batched window loop itself — run, hand-off, barrier, service order,
/// service — allocates nothing once its buffers are warm, on one host
/// thread and on two, with an uncore of one home and one of three (whose
/// windows on two threads lend their homes to the threads and merge the
/// outputs back): tripling the run adds not one allocation. (The merge
/// used to build a `Vec` of drain iterators every window.) Thread spawns
/// and first-use buffer growth happen once per run and cancel.
#[test]
fn batched_window_loop_is_allocation_free_at_steady_state() {
    let _serial = serial();
    batched_loop_is_allocation_free_with(|| toy::Uncore);
    batched_loop_is_allocation_free_with(toy::Homed::new);
}

fn batched_loop_is_allocation_free_with<U>(uncore: impl Fn() -> U)
where
    U: slacksim::slacksim_core::engine::UncoreModel<bool>
        + slacksim::slacksim_core::checkpoint::Checkpointable,
{
    use slacksim::scheme::Scheme;
    use slacksim::slacksim_core::engine::BatchedEngine;
    use slacksim::ProfSite;

    let homes = uncore().homes();
    let allocs = |host_threads: usize, commit: u64| {
        let cores: Vec<_> = (0..12u64)
            .map(|i| toy::Core {
                period: 3 + i % 4,
                committed: 0,
            })
            .collect();
        // 12 cores x 64 cycles clear the hand-off floor on two threads,
        // and both run lengths below are past the point where the
        // workers are spawned.
        let mut cfg = slacksim::EngineConfig::new(Scheme::Quantum { quantum: 64 }, commit);
        cfg.host_threads = host_threads;
        // The one thing the kernel keeps per unit of simulated time is a
        // bound-trace entry per sampling window (it is in the report);
        // none here, so that growing it does not count against the loop.
        cfg.sample_period = 1 << 40;
        // Spans cost no allocation; the count of worker-side services
        // shows the homes went to the threads.
        cfg.prof = Some(slacksim::Profiler::enabled());
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = BatchedEngine::new(cores, uncore(), cfg).run().expect("run");
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(report.committed >= commit);
        let prof = report.prof.expect("profile attached");
        let home_services = prof
            .sites
            .iter()
            .find(|s| s.site == ProfSite::BatchedHome)
            .map_or(0, |s| s.count);
        assert_eq!(
            home_services > 0,
            homes > 1 && host_threads > 1 && commit > 100_000,
            "{homes} homes on {host_threads} host thread(s)"
        );
        after - before
    };
    // The harness allocates on its own thread whenever another test of
    // this binary finishes; strays only ever add, so take the least of a
    // few identical runs.
    let least = |host_threads, commit| {
        (0..3)
            .map(|_| allocs(host_threads, commit))
            .min()
            .expect("three runs")
    };
    for host_threads in [1, 2] {
        let _ = allocs(host_threads, 5_000);
        let short = least(host_threads, 200_000);
        let long = least(host_threads, 600_000);
        assert_eq!(
            long,
            short,
            "{homes} homes, {host_threads} host thread(s): 520 more windows allocated {} more times",
            long.saturating_sub(short)
        );
    }
}

/// The sequential burst loop — window arithmetic, burst pick, ticks and
/// service — allocates nothing once its buffers are warm, under a barrier
/// scheme, a uniform greedy window and per-core (Lax-P2P) windows:
/// tripling the run adds not one allocation. (Lax-P2P's window ends used
/// to be a fresh `Vec` every iteration.)
#[test]
fn sequential_burst_loop_is_allocation_free_at_steady_state() {
    use slacksim::scheme::Scheme;
    use slacksim::slacksim_core::engine::SequentialEngine;
    let _serial = serial();

    let allocs = |scheme: &Scheme, commit: u64| {
        let cores: Vec<_> = (0..12u64)
            .map(|i| toy::Core {
                period: 3 + i % 4,
                committed: 0,
            })
            .collect();
        let mut cfg = slacksim::EngineConfig::new(scheme.clone(), commit);
        // No bound-trace entry per sampling window (see the batched case).
        cfg.sample_period = 1 << 40;
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = SequentialEngine::new(cores, toy::Uncore, cfg)
            .run()
            .expect("run");
        assert!(report.committed >= commit);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    // Strays from the harness thread only ever add: take the least.
    let least = |scheme: &Scheme, commit| {
        (0..3)
            .map(|_| allocs(scheme, commit))
            .min()
            .expect("three runs")
    };
    let schemes = [
        Scheme::CycleByCycle,
        Scheme::BoundedSlack { bound: 16 },
        Scheme::LaxP2p {
            lead: 16,
            period: 100,
            seed: 1,
        },
    ];
    for scheme in &schemes {
        let _ = allocs(scheme, 5_000);
        let short = least(scheme, 60_000);
        let long = least(scheme, 180_000);
        assert_eq!(
            long,
            short,
            "{}: 10 000 more cycles a core allocated {} more times",
            scheme.name(),
            long.saturating_sub(short)
        );
    }
}

/// Allocations of at least [`BIG`] bytes made by `f`: on this thread, and
/// on every other thread of the process.
fn big_allocs_of(f: impl FnOnce()) -> (u64, u64) {
    let (here, everywhere) = (THREAD_BIG_ALLOCS.get(), BIG_ALLOCS.load(Ordering::Relaxed));
    f();
    let here = THREAD_BIG_ALLOCS.get() - here;
    (here, BIG_ALLOCS.load(Ordering::Relaxed) - everywhere - here)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("slacksim-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The writer's two buffers are recycled: once both have held the run's
/// largest snapshot, persisting a checkpoint allocates nothing of a
/// snapshot's size class on either thread, whatever the snapshots after
/// it measure.
#[test]
fn checkpoint_writer_recycles_its_two_buffers() {
    use slacksim::slacksim_core::persist::CheckpointWriter;
    let _serial = serial();

    let dir = scratch_dir("writer");
    std::fs::create_dir_all(&dir).unwrap();
    let mut writer = CheckpointWriter::new(dir.clone(), "fp".to_owned());
    let mut persist = |ordinal: u64, len: usize| {
        let mut w = writer.begin();
        for i in 0..len {
            w.u8(i as u8);
        }
        writer.submit(ordinal, w);
    };
    let (first_two, _) = big_allocs_of(|| {
        persist(1, 300_000);
        persist(2, 300_000);
    });
    assert!(first_two >= 2, "two buffers of 300 KB were allocated");
    let lens = [280_000, 300_000, 260_000, 299_999, 1, 300_000];
    let after = big_allocs_of(|| {
        for (i, len) in lens.into_iter().cycle().take(60).enumerate() {
            persist(3 + i as u64, len);
        }
    });
    assert_eq!(after, (0, 0), "(this thread, the writer thread)");
    drop(writer);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The paper's speculative configuration, persisting or not, on the
/// calling thread. Returns the checkpoints it committed.
fn speculative_water(commit: u64, save_dir: Option<&std::path::Path>) -> u64 {
    use slacksim::{SpeculationConfig, ViolationKind, ViolationSelect};
    let mut sim = slacksim::Simulation::new(slacksim::Benchmark::WaterNsquared);
    sim.cores(8)
        .scheme(slacksim::scheme::Scheme::BoundedSlack { bound: 16 })
        .commit_target(commit)
        .seed(1)
        .speculation(SpeculationConfig::speculative(
            1000,
            ViolationSelect::only(&[ViolationKind::Map]),
        ));
    if let Some(dir) = save_dir {
        sim.save_state(dir);
    }
    sim.run().expect("run").kernel.get("checkpoints")
}

/// A real persisting run: its snapshots pass 64 KiB within a few
/// checkpoints and keep growing while the caches fill, then wander within
/// several percent of their maximum. What persisting adds to the
/// simulation thread's snapshot-sized allocations over the last two
/// thirds of the run — the same run without `save_state` subtracted, the
/// models' own tables being that large too — is the occasional regrowth
/// at a new maximum, far from the several per checkpoint that encoding
/// into fresh `Vec`s costs; and the writer thread allocates nothing of
/// that size at all.
#[test]
fn persisting_run_allocates_no_snapshot_buffers_at_steady_state() {
    let _serial = serial();
    let dir = scratch_dir("run");

    // What `save_state` adds to the big allocations of a run this long:
    // (on the simulation thread, on every other thread, checkpoints).
    let added_by_persisting = |commit: u64| {
        let (plain, _) = big_allocs_of(|| {
            speculative_water(commit, None);
        });
        let mut checkpoints = 0;
        let (here, elsewhere) =
            big_allocs_of(|| checkpoints = speculative_water(commit, Some(&dir)));
        (here - plain, elsewhere, checkpoints)
    };
    let (short, short_elsewhere, short_cps) = added_by_persisting(1_500_000);
    let (long, long_elsewhere, long_cps) = added_by_persisting(4_500_000);
    assert!(short > 0, "the buffers themselves are big allocations");
    assert_eq!(
        (short_elsewhere, long_elsewhere),
        (0, 0),
        "the writer thread only ever borrows the simulation thread's buffers"
    );
    let (extra, cps) = (long.saturating_sub(short), long_cps - short_cps);
    assert!(cps > 150, "{cps} checkpoints between the two run lengths");
    assert!(
        extra * 4 <= cps,
        "{extra} snapshot-sized allocations over {cps} steady-state checkpoints"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged sequence length costs no memory beyond the bytes behind it: a
/// snapshot whose bound-trace count reads `u32::MAX`, re-sealed so that
/// its checksum holds, is refused on resume without one allocation of a
/// snapshot's size class on the resuming thread (the trace is 16 bytes an
/// entry, so reserving for the count would be).
#[test]
fn a_forged_bound_trace_length_is_refused_without_preallocating() {
    use slacksim::slacksim_cmp::cache::CacheConfig;
    use slacksim::slacksim_core::persist::{decode_container, encode_container};
    let _serial = serial();

    let mut cmp = slacksim::CmpConfig::with_uncore(slacksim::UncoreKind::Bus, 2);
    let l1 = CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 32,
    };
    (cmp.core.l1i, cmp.core.l1d) = (l1, l1);
    cmp.uncore.l2 = CacheConfig {
        size_bytes: 1024,
        ..l1
    };
    let dir = scratch_dir("forged");
    let mut sim = slacksim::Simulation::new(slacksim::Benchmark::Fft);
    sim.cmp_config(cmp.clone())
        .scheme(slacksim::scheme::Scheme::UnboundedSlack)
        .commit_target(400)
        .speculation(slacksim::SpeculationConfig::checkpoint_only(50))
        .save_state(&dir);
    let checkpoints = sim.run().expect("run").kernel.get("checkpoints");
    let snap = dir.join(format!("cp-{checkpoints:08}"));
    let bytes = std::fs::read(&snap).expect("snapshot");
    let (fingerprint, payload) = decode_container(&bytes).expect("container");
    // The payload ends with the bound trace — empty without a slack
    // bound, so just its `u32` count — and the `u64` clock spread.
    let mut forged = payload.to_vec();
    let count = forged.len() - 12;
    assert_eq!(forged[count..count + 4], [0; 4], "an empty bound trace");
    forged[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&snap, encode_container(fingerprint, &forged)).unwrap();

    let mut resumed = slacksim::Simulation::new(slacksim::Benchmark::Fft);
    resumed
        .cmp_config(cmp)
        .scheme(slacksim::scheme::Scheme::UnboundedSlack)
        .commit_target(800)
        .speculation(slacksim::SpeculationConfig::checkpoint_only(50))
        .resume(&snap);
    let (here, _) = big_allocs_of(|| {
        let err = resumed.run().expect_err("a forged bound trace is refused");
        assert!(err.to_string().contains("truncated"), "{err}");
    });
    assert_eq!(
        here, 0,
        "snapshot-sized allocations while refusing the resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// True while a thread named like the checkpoint writer's exists.
#[cfg(target_os = "linux")]
fn checkpoint_writer_thread_is_alive() -> bool {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .flatten()
        .any(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim() == "cp-writer")
        })
}

/// The writer thread is spawned by the first persisted checkpoint, not by
/// `save_state`: a run that ends before it commits one — the
/// `commit_target(1)` run that set-up time is measured on — never has a
/// thread of that name, however often a watcher looks; a run that
/// persists has one for the watcher to find.
#[cfg(target_os = "linux")]
#[test]
fn a_run_that_persists_no_checkpoint_spawns_no_writer_thread() {
    use slacksim::SpeculationConfig;
    use std::sync::atomic::AtomicBool;
    let _serial = serial();
    let dir = scratch_dir("spawn");

    // Runs `body` over and over until a concurrent watcher has looked for
    // the writer thread `looks` times while it ran (or has found it).
    let watched = |looks: u64, body: &dyn Fn()| -> bool {
        let (seen, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let polls = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    if checkpoint_writer_thread_is_alive() {
                        seen.store(true, Ordering::Release);
                    }
                    polls.fetch_add(1, Ordering::Release);
                }
            });
            while polls.load(Ordering::Acquire) < looks && !seen.load(Ordering::Acquire) {
                body();
            }
            stop.store(true, Ordering::Release);
        });
        seen.into_inner()
    };
    let run = |commit: u64| {
        slacksim::Simulation::new(slacksim::Benchmark::Fft)
            .cores(2)
            .commit_target(commit)
            .speculation(SpeculationConfig::checkpoint_only(700))
            .save_state(&dir)
            .run()
            .expect("run")
            .kernel
            .get("checkpoints")
    };
    assert!(
        !watched(2_000, &|| assert_eq!(run(1), 0)),
        "a run without a checkpoint had a writer thread"
    );
    assert!(
        watched(1_000_000, &|| assert!(run(100_000) > 10)),
        "the watcher can see a writer thread when there is one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives bus transactions and directory accesses `range` at `num / den`
/// requests per simulated cycle over a fixed set of lines, each read by
/// one fixed core (so no sharer list or snoop vector ever grows).
fn drive_interconnects(
    bus: &mut slacksim::slacksim_cmp::bus::Bus,
    dir: &mut slacksim::slacksim_cmp::directory::Directory,
    range: std::ops::Range<u64>,
    (num, den): (u64, u64),
) {
    use slacksim::slacksim_cmp::cache::LineAddr;
    use slacksim::slacksim_cmp::mesi::BusOp;
    use slacksim::slacksim_cmp::sharers::SMALL_CAP;
    use slacksim::slacksim_core::event::CoreId;
    for i in range {
        let ts = slacksim::Cycle::new(i * den / num);
        let grant = bus.arbitrate(ts).grant;
        std::hint::black_box(bus.respond(grant + 8));
        let (line, core) = (LineAddr::new(i % 256), CoreId::new((i % 4) as u16));
        std::hint::black_box(dir.access(BusOp::Rd, line, core, ts));
        // 64 more lines that up to `SMALL_CAP` cores share: runs of reads
        // grow every sharer set to that many, and the writes and upgrades
        // after them invalidate all but the writer — snoop targets on
        // almost every access, at every count up to the inline capacity.
        let line = LineAddr::new(256 + i % 64);
        let core = CoreId::new(((i / 64) % SMALL_CAP as u64) as u16);
        let op = match (i / 256) % 4 {
            0 | 1 => BusOp::Rd,
            2 => BusOp::RdX,
            _ => BusOp::Upgr,
        };
        std::hint::black_box(dir.access(op, line, core, ts));
    }
}

/// The slot calendars behind the bus and every directory bank port are
/// fixed-size rings and a directory access names its snoop targets
/// without a vector: servicing traffic — reads, writes and upgrades of
/// lines that several cores share, as well as private reads — allocates
/// nothing once the directory's line tables are warm, and the heap the
/// two interconnects hold does not depend on how dense the traffic is.
#[test]
fn interconnect_service_is_allocation_free_with_a_density_independent_footprint() {
    use slacksim::slacksim_cmp::bus::Bus;
    use slacksim::slacksim_cmp::directory::Directory;
    // Reads its own thread's counters only, but what it allocates lands
    // in the process-wide one the engine tests read.
    let _serial = serial();

    let footprint_at = |rate: (u64, u64)| {
        let before = THREAD_LIVE_BYTES.get();
        let (mut bus, mut dir) = (Bus::new(1, 1), Directory::new(64, 4));
        drive_interconnects(&mut bus, &mut dir, 0..20_000, rate);
        let allocs = THREAD_ALLOCS.get();
        drive_interconnects(&mut bus, &mut dir, 20_000..220_000, rate);
        assert_eq!(
            THREAD_ALLOCS.get() - allocs,
            0,
            "200 K warm transactions at {rate:?} requests per cycle allocated"
        );
        THREAD_LIVE_BYTES.get().wrapping_sub(before)
    };
    let sparse = footprint_at((1, 20));
    let dense = footprint_at((9, 10));
    assert_eq!(sparse, dense, "heap held at 0.05 vs 0.9 requests per cycle");
}
