//! The conformance suite: the differential oracle matrix and the exact
//! matrices of the window loop at every host-thread count.
//!
//! Budget control: commit targets scale with the build profile.

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::{
    Benchmark, EngineKind, SimReport, Simulation, SpeculationConfig, UncoreKind, ViolationSelect,
};
use slacksim_conformance::{
    check_invariants, fingerprint, kernel_fingerprint, run_engine, run_engine_on, run_resumed,
    run_resumed_on, run_speculative,
};

/// Commit target for matrix cells: small enough for debug CI, larger in
/// release where the engines are ~20x faster.
fn target() -> u64 {
    if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    }
}

const BENCHES: [Benchmark; 2] = [Benchmark::Fft, Benchmark::WaterNsquared];
const CORE_COUNTS: [usize; 3] = [1, 4, 8];

fn schemes() -> [Scheme; 3] {
    [
        Scheme::CycleByCycle,
        Scheme::BoundedSlack { bound: 8 },
        Scheme::Quantum { quantum: 64 },
    ]
}

/// Two runs the design guarantees identical: same fingerprint and same
/// deterministic kernel counters (checkpoints, rollbacks, wasted and
/// replayed cycles, detected violations, interval statistics, finish
/// reason).
fn assert_exact(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(fingerprint(a), fingerprint(b), "{label}");
    assert_eq!(
        kernel_fingerprint(a),
        kernel_fingerprint(b),
        "{label}: kernel counters"
    );
}

/// Every engine across the full {scheme x workload x cores} matrix:
/// every cell completes and upholds the metamorphic invariants.
#[test]
fn differential_matrix_upholds_invariants_on_every_engine() {
    for bench in BENCHES {
        for scheme in schemes() {
            for cores in CORE_COUNTS {
                for engine in [
                    EngineKind::Sequential,
                    EngineKind::Threaded,
                    EngineKind::Batched,
                ] {
                    let r = run_engine(bench, cores, &scheme, target(), 1, engine);
                    assert!(
                        r.committed >= target(),
                        "{engine:?}/{bench}/{cores}c/{}: commit target missed",
                        scheme.name()
                    );
                    check_invariants(&r, &scheme).unwrap_or_else(|e| {
                        panic!("{engine:?}/{bench}/{cores}c/{}: {e}", scheme.name())
                    });
                }
            }
        }
    }
}

/// Cycle-by-cycle runs are engine-independent: the sequential, the
/// threaded and the batched engine must be fingerprint-identical.
#[test]
fn cycle_by_cycle_is_exact_across_all_three_engines() {
    for bench in BENCHES {
        for cores in [1, 4] {
            let scheme = Scheme::CycleByCycle;
            let seq = run_engine(bench, cores, &scheme, target(), 1, EngineKind::Sequential);
            for engine in [EngineKind::Threaded, EngineKind::Batched] {
                let r = run_engine(bench, cores, &scheme, target(), 1, engine);
                assert_exact(
                    &seq,
                    &r,
                    &format!("{bench}/{cores}c: sequential vs {engine:?}"),
                );
            }
        }
    }
}

/// Quantum runs are engine-independent where the design guarantees it:
/// the batched (quantum-compiled) engine must reproduce the sequential
/// engine's fingerprint bit-for-bit across {FFT, WATER} x {1, 4, 8}
/// cores — barrier servicing defers every cross-core event to the quantum
/// boundary and resolves in timestamp order, so collapsing the per-cycle
/// dispatch into one `run_window` call per core must be invisible.
#[test]
fn quantum_is_exact_between_sequential_and_batched_engines() {
    let scheme = Scheme::Quantum { quantum: 64 };
    for bench in BENCHES {
        for cores in CORE_COUNTS {
            let seq = run_engine(bench, cores, &scheme, target(), 1, EngineKind::Sequential);
            let bat = run_engine(bench, cores, &scheme, target(), 1, EngineKind::Batched);
            assert_exact(
                &seq,
                &bat,
                &format!("{bench}/{cores}c: sequential vs batched"),
            );
            check_invariants(&bat, &scheme)
                .unwrap_or_else(|e| panic!("{bench}/{cores}c batched: {e}"));
        }
    }
}

/// The batched engine's host-thread count decides who runs a window's
/// cores, never what they compute: cores interact only through events the
/// manager merges in (timestamp, core id, staging order) after every lane
/// is back, so no schedule of the workers can show in the result and the
/// matrix needs no virtual-schedule vocabulary — on 1, 2, 3, 5 and
/// `cores` host threads, {4, 16, 64} cores x {FFT, WATER} x {quantum-50,
/// cycle-by-cycle, quantum-50 with checkpoints} all agree on fingerprint
/// and deterministic kernel counters. The reference is the sequential
/// engine, except with checkpoints under a quantum, where the two engines
/// have always stopped a window apart when the commit target is crossed
/// on a checkpoint boundary: there it is the batched engine on one
/// thread. (Windows under the hand-off floor — every cycle-by-cycle one,
/// and quantum-50 on one core per thread — run inline, as does the first
/// stretch of every run; the rest, half of each run or more, go to the
/// workers.)
#[test]
fn batched_is_exact_at_every_host_thread_count() {
    let commits = if cfg!(debug_assertions) {
        60_000
    } else {
        100_000
    };
    let q50 = Scheme::Quantum { quantum: 50 };
    let modes = [
        ("quantum-50", q50.clone(), None),
        ("cycle-by-cycle", Scheme::CycleByCycle, None),
        (
            "checkpoint-only",
            q50,
            Some(SpeculationConfig::checkpoint_only(500)),
        ),
    ];
    for (cores, uncore) in [
        (4, UncoreKind::Bus),
        (16, UncoreKind::Directory),
        (64, UncoreKind::Directory),
    ] {
        for bench in BENCHES {
            for (mode, scheme, speculation) in &modes {
                let run = |engine, host_threads| {
                    let mut sim = Simulation::new(bench);
                    sim.uncore(uncore)
                        .cores(cores)
                        .scheme(scheme.clone())
                        .engine(engine)
                        .host_threads(host_threads)
                        .commit_target(commits)
                        .seed(1);
                    if let Some(spec) = speculation {
                        sim.speculation(*spec);
                    }
                    sim.run()
                        .unwrap_or_else(|e| panic!("{engine:?}/{bench}/{cores}c/{mode}: {e}"))
                };
                let reference = if speculation.is_some() {
                    let solo = run(EngineKind::Batched, 1);
                    assert!(solo.kernel.get("checkpoints") > 0, "{mode}: no checkpoints");
                    solo
                } else {
                    run(EngineKind::Sequential, 0)
                };
                for host_threads in [1, 2, 3, 5, cores] {
                    assert_exact(
                        &reference,
                        &run(EngineKind::Batched, host_threads),
                        &format!("{bench}/{cores}c/{mode}: batched on {host_threads} host threads"),
                    );
                }
            }
        }
    }
}

/// A threaded barrier-scheme run is handed to the batched engine, whose
/// host-thread count decides which thread steps a core, never what the
/// core computes. On 1, 2, 3 and `cores` host threads, {4, 6, 16} cores x
/// {bus, directory} x {FFT, WATER} x {cycle-by-cycle, cycle-by-cycle with
/// checkpoints, quantum 50} all agree with the sequential engine on
/// fingerprint and deterministic kernel counters (3 threads asked for is 2
/// lanes at 4 cores, 3 even ones of 2 cores at 6, 3 uneven ones at 16:
/// 6 + 6 + 4).
#[test]
fn threaded_barrier_schemes_are_exact_at_every_lane_count() {
    let modes = [
        ("cycle-by-cycle", Scheme::CycleByCycle, None),
        // Often enough that 16 cores reach a few before the debug target.
        (
            "checkpoint-only",
            Scheme::CycleByCycle,
            Some(SpeculationConfig::checkpoint_only(100)),
        ),
        ("quantum-50", Scheme::Quantum { quantum: 50 }, None),
    ];
    for cores in [4, 6, 16] {
        for uncore in [UncoreKind::Bus, UncoreKind::Directory] {
            for bench in BENCHES {
                for (mode, scheme, speculation) in &modes {
                    let run = |engine, lanes| {
                        let mut sim = Simulation::new(bench);
                        sim.uncore(uncore)
                            .cores(cores)
                            .scheme(scheme.clone())
                            .engine(engine)
                            .host_threads(lanes)
                            .commit_target(target())
                            .seed(1);
                        if let Some(spec) = speculation {
                            sim.speculation(*spec);
                        }
                        sim.run().unwrap_or_else(|e| {
                            panic!("{engine:?}/{bench}/{uncore}/{cores}c/{mode}: {e}")
                        })
                    };
                    let reference = run(EngineKind::Sequential, 0);
                    if speculation.is_some() {
                        let taken = reference.kernel.get("checkpoints");
                        assert!(taken > 0, "{mode}: no checkpoints");
                    }
                    for lanes in [1, 2, 3, cores] {
                        assert_exact(
                            &reference,
                            &run(EngineKind::Threaded, lanes),
                            &format!("{bench}/{uncore}/{cores}c/{mode}: threaded on {lanes} lanes"),
                        );
                    }
                }
            }
        }
    }
}

/// Greedy slack on the window loop is exact: its seeded rounds draw
/// every burst from (seed, core, local time) and every service order from
/// (seed, global time), so no host-thread count — and so no lane cut, no
/// hand-off — can show in a result. On 8-core bus Water and 64-core
/// directory FFT, bounded-16, adaptive, Lax-P2P, `unbounded` and
/// speculative bounded-8 rolling back on every violation each print one
/// report (fingerprint, every kernel, core and uncore counter) at 1, 2, 3
/// and `cores` host threads. The runs are long enough for the workers to
/// take rounds: past the first 64 K core-cycles, every round above 96
/// core-cycles a lane goes to them.
#[test]
fn greedy_schemes_are_exact_at_every_host_thread_count() {
    let commits = if cfg!(debug_assertions) {
        30_000
    } else {
        100_000
    };
    let rollback = SpeculationConfig::speculative(500, ViolationSelect::all());
    let cells = [
        ("bounded-16", Scheme::BoundedSlack { bound: 16 }, None),
        (
            "adaptive",
            Scheme::Adaptive(AdaptiveConfig::default()),
            None,
        ),
        (
            "p2p",
            Scheme::LaxP2p {
                lead: 16,
                period: 500,
                seed: 1,
            },
            None,
        ),
        ("unbounded", Scheme::UnboundedSlack, None),
        (
            "speculative bounded-8",
            Scheme::BoundedSlack { bound: 8 },
            Some(rollback),
        ),
    ];
    for (cores, uncore, bench) in [
        (8, UncoreKind::Bus, Benchmark::WaterNsquared),
        (64, UncoreKind::Directory, Benchmark::Fft),
    ] {
        for (name, scheme, speculation) in &cells {
            let run = |host_threads| {
                let mut sim = Simulation::new(bench);
                sim.uncore(uncore)
                    .cores(cores)
                    .scheme(scheme.clone())
                    .engine(EngineKind::Threaded)
                    .host_threads(host_threads)
                    .commit_target(commits)
                    .seed(1);
                if let Some(spec) = speculation {
                    sim.speculation(*spec);
                }
                sim.run()
                    .unwrap_or_else(|e| panic!("{bench}/{cores}c/{name}: {e}"))
            };
            let solo = run(1);
            let label = format!("{bench}/{cores}c/{name}");
            assert!(solo.committed >= commits, "{label}: commit target missed");
            check_invariants(&solo, scheme).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(
                solo.kernel.get("violations_detected_total") > 0,
                "{label}: a greedy run reordered nothing"
            );
            if speculation.is_some() {
                assert!(solo.kernel.get("rollbacks") > 0, "{label}: no rollback");
            }
            for host_threads in [2, 3, cores] {
                let r = run(host_threads);
                let label = format!("{label} on {host_threads} host threads");
                assert_exact(&solo, &r, &label);
                assert_eq!(solo.kernel, r.kernel, "{label}: kernel counters");
                assert_eq!(solo.per_core, r.per_core, "{label}: core counters");
                assert_eq!(solo.uncore, r.uncore, "{label}: uncore counters");
                assert_eq!(solo.bound_trace, r.bound_trace, "{label}: bound trace");
            }
        }
    }
}

/// The directory uncore's homes are serviced on the threads that ran the
/// window, each home's events in the window's order and the outputs
/// merged back into it (DESIGN §15.1). At 64 cores a quantum-50 FFT run
/// and a bounded-16 Barnes run rolling back on every violation — whose
/// rounds on several threads select their rollbacks in the middle of a
/// merge — print one report at 1, 2, 3 and 4 host threads; and from 2 up
/// the homes did go to the workers: the runs are past the first 64 K
/// core-cycles with every lane above the hand-off floor, and the profile
/// counts worker-side home services.
#[test]
fn directory_homes_are_exact_at_every_host_thread_count() {
    let rollback = SpeculationConfig::speculative(500, ViolationSelect::all());
    let cells = [
        (
            Benchmark::Fft,
            Scheme::Quantum { quantum: 50 },
            None,
            if cfg!(debug_assertions) {
                60_000
            } else {
                300_000
            },
        ),
        (
            Benchmark::Barnes,
            Scheme::BoundedSlack { bound: 16 },
            Some(rollback),
            100_000,
        ),
    ];
    for (bench, scheme, speculation, commits) in cells {
        let run = |host_threads| {
            let mut sim = Simulation::new(bench);
            sim.uncore(UncoreKind::Directory)
                .cores(64)
                .scheme(scheme.clone())
                .engine(EngineKind::Batched)
                .host_threads(host_threads)
                .commit_target(commits)
                .seed(1)
                .profile(true);
            if let Some(spec) = speculation {
                sim.speculation(spec);
            }
            sim.run()
                .unwrap_or_else(|e| panic!("{bench}/64c/{scheme:?}: {e}"))
        };
        let home_services = |r: &SimReport| {
            let prof = r.prof.as_ref().expect("profile attached");
            prof.sites
                .iter()
                .find(|s| s.site == slacksim::ProfSite::BatchedHome)
                .map_or(0, |s| s.count)
        };
        let solo = run(1);
        let label = format!("{bench}/64c/{scheme:?}");
        assert!(solo.committed >= commits, "{label}: commit target missed");
        check_invariants(&solo, &scheme).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            home_services(&solo),
            0,
            "{label}: one thread has no workers"
        );
        if speculation.is_some() {
            assert!(solo.kernel.get("rollbacks") > 0, "{label}: no rollback");
        }
        for host_threads in [2, 3, 4] {
            let r = run(host_threads);
            let label = format!("{label} on {host_threads} host threads");
            assert_exact(&solo, &r, &label);
            assert_eq!(solo.kernel, r.kernel, "{label}: kernel counters");
            assert_eq!(solo.per_core, r.per_core, "{label}: core counters");
            assert_eq!(solo.uncore, r.uncore, "{label}: uncore counters");
            assert!(home_services(&r) > 0, "{label}: no home went to a worker");
        }
    }
}

/// Greedy (bounded-slack) speculation across the engine matrix: every
/// cell completes past its commit target, takes checkpoints, and upholds
/// the metamorphic invariants. Cross-engine equality is deliberately not
/// asserted — the window loop's rounds are not the sequential emulation's
/// bursts; that the delta-maintained checkpoint base equals a fresh clone
/// is proven per model in `crates/cmp/tests/delta_roundtrip.rs`.
#[test]
fn speculative_greedy_matrix_upholds_invariants_on_both_engines() {
    let scheme = Scheme::BoundedSlack { bound: 16 };
    for engine in [EngineKind::Sequential, EngineKind::Threaded] {
        let spec = SpeculationConfig::speculative(500, ViolationSelect::all());
        let r = run_speculative(Benchmark::Fft, 4, &scheme, target(), 1, engine, spec);
        assert!(r.committed >= target(), "{engine:?}: commit target missed");
        assert!(
            r.kernel.get("checkpoints") > 0,
            "{engine:?}: no checkpoints"
        );
        check_invariants(&r, &scheme).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
    }
}

/// Checkpointing is invisible to a cycle-by-cycle run: on all three
/// engines a checkpoint-only CC run stays violation-free, reproduces the
/// un-checkpointed CC fingerprint, and agrees with the other engines on
/// every deterministic kernel counter (same checkpoints at the same
/// cycles, same interval grid).
#[test]
fn checkpoint_only_cc_has_the_plain_cc_fingerprint_on_all_three_engines() {
    let scheme = Scheme::CycleByCycle;
    let plain = run_engine(
        Benchmark::Fft,
        4,
        &scheme,
        target(),
        1,
        EngineKind::Sequential,
    );
    let spec = SpeculationConfig::checkpoint_only(500);
    let run = |engine| run_speculative(Benchmark::Fft, 4, &scheme, target(), 1, engine, spec);
    let seq = run(EngineKind::Sequential);
    assert!(seq.kernel.get("checkpoints") > 0, "no checkpoints");
    assert!(seq.kernel.get("intervals_total") > 0, "no intervals closed");
    for engine in [
        EngineKind::Sequential,
        EngineKind::Threaded,
        EngineKind::Batched,
    ] {
        let r = run(engine);
        assert_eq!(
            r.violations.total(),
            0,
            "{engine:?}: CC must be violation-free"
        );
        assert_eq!(
            fingerprint(&r),
            fingerprint(&plain),
            "{engine:?}: checkpointing perturbed the CC fingerprint"
        );
        assert_exact(&seq, &r, &format!("sequential vs {engine:?}"));
    }
}

/// The durable-snapshot cells: cycle-by-cycle on both engines, and the
/// window loop's greedy rounds, whose stateless draws a resumed run
/// draws again.
fn resume_cells() -> [(EngineKind, Scheme); 4] {
    [
        (EngineKind::Sequential, Scheme::CycleByCycle),
        (EngineKind::Threaded, Scheme::CycleByCycle),
        (EngineKind::Threaded, Scheme::BoundedSlack { bound: 16 }),
        (
            EngineKind::Threaded,
            Scheme::Adaptive(AdaptiveConfig::default()),
        ),
    ]
}

/// Durable-snapshot oracle (DESIGN §13): persist a run's checkpoints to
/// disk, resume the newest snapshot — state having round-tripped through
/// the versioned byte format — and continue to the full commit target.
/// In every cell the resumed run must reproduce the uninterrupted run's
/// fingerprint and deterministic kernel counters exactly, which proves
/// every model save/load pair restores bit-identical state.
#[test]
fn durable_snapshot_resume_matches_uninterrupted_run() {
    let interval = 300;
    for bench in BENCHES {
        for (engine, scheme) in resume_cells() {
            let spec = SpeculationConfig::checkpoint_only(interval);
            let baseline = run_speculative(bench, 4, &scheme, target(), 1, engine, spec);
            let resumed = run_resumed(bench, 4, &scheme, target(), 1, engine, interval);
            assert_exact(
                &resumed,
                &baseline,
                &format!(
                    "{engine:?}/{bench}/{}: resumed run diverged from uninterrupted run",
                    scheme.name()
                ),
            );
        }
    }
}

/// Directory-uncore rows of the differential matrix: past the snooping
/// bus's 16-core cap, the sharded directory must be just as
/// engine-independent as the bus. At {16, 64} cores the sequential, the
/// native threaded and the batched engine must reproduce identical
/// fingerprints wherever the design guarantees exactness — cycle-by-cycle
/// for sequential vs threaded, quantum for sequential vs batched — and
/// every run must route all coherence through the banks (directory
/// transactions observed, zero bus transactions).
#[test]
fn directory_uncore_is_exact_across_all_three_engines() {
    for bench in BENCHES {
        for cores in [16usize, 64] {
            let cc = Scheme::CycleByCycle;
            let seq = run_engine_on(
                UncoreKind::Directory,
                bench,
                cores,
                &cc,
                target(),
                1,
                EngineKind::Sequential,
            );
            assert!(
                seq.uncore.get("dir_transactions") > 0,
                "{bench}/{cores}c: no directory traffic"
            );
            assert_eq!(
                seq.uncore.get("bus_transactions"),
                0,
                "{bench}/{cores}c: bus traffic under the directory uncore"
            );
            let thr = run_engine_on(
                UncoreKind::Directory,
                bench,
                cores,
                &cc,
                target(),
                1,
                EngineKind::Threaded,
            );
            assert_exact(
                &seq,
                &thr,
                &format!("{bench}/{cores}c: directory sequential vs threaded-native"),
            );
            check_invariants(&thr, &cc)
                .unwrap_or_else(|e| panic!("{bench}/{cores}c directory threaded: {e}"));

            let quantum = Scheme::Quantum { quantum: 64 };
            let seq_q = run_engine_on(
                UncoreKind::Directory,
                bench,
                cores,
                &quantum,
                target(),
                1,
                EngineKind::Sequential,
            );
            let bat = run_engine_on(
                UncoreKind::Directory,
                bench,
                cores,
                &quantum,
                target(),
                1,
                EngineKind::Batched,
            );
            assert_exact(
                &seq_q,
                &bat,
                &format!("{bench}/{cores}c: directory sequential vs batched"),
            );
            check_invariants(&bat, &quantum)
                .unwrap_or_else(|e| panic!("{bench}/{cores}c directory batched: {e}"));
        }
    }
}

/// Directory banks under bounded slack still uphold the metamorphic
/// invariants at 64 cores on every engine that accepts the scheme, and
/// the per-bank timestamp monitors actually fire (the violation tally
/// includes the `directory` class once slack is allowed).
#[test]
fn directory_uncore_upholds_invariants_under_slack_at_scale() {
    let scheme = Scheme::BoundedSlack { bound: 8 };
    for engine in [EngineKind::Sequential, EngineKind::Threaded] {
        let r = run_engine_on(
            UncoreKind::Directory,
            Benchmark::Fft,
            64,
            &scheme,
            target(),
            1,
            engine,
        );
        assert!(r.committed >= target(), "{engine:?}: commit target missed");
        check_invariants(&r, &scheme).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
    }
}

/// Durable-snapshot oracle for the directory uncore: a 64-core run
/// persists checkpoints, a second process-independent run resumes the
/// newest snapshot — bank states, sharer sets and per-bank monitors
/// having crossed the versioned byte format — and must reproduce the
/// uninterrupted fingerprint and kernel counters exactly, in every cell
/// of [`resume_cells`].
#[test]
fn directory_durable_resume_matches_uninterrupted_run() {
    let interval = 300;
    for (engine, scheme) in resume_cells() {
        let spec = SpeculationConfig::checkpoint_only(interval);
        let baseline = slacksim::Simulation::new(Benchmark::Fft)
            .uncore(UncoreKind::Directory)
            .cores(64)
            .scheme(scheme.clone())
            .engine(engine)
            .commit_target(target())
            .seed(1)
            .speculation(spec)
            .run()
            .expect("directory baseline run");
        let resumed = run_resumed_on(
            UncoreKind::Directory,
            Benchmark::Fft,
            64,
            &scheme,
            target(),
            1,
            engine,
            interval,
        );
        assert_exact(
            &resumed,
            &baseline,
            &format!(
                "{engine:?}/{}: directory resumed run diverged from uninterrupted run",
                scheme.name()
            ),
        );
    }
}

/// Violations are monotone non-decreasing as the slack bound grows
/// (sequential engine, pinned seeds — the paper's Figure 4 relation).
#[test]
fn violations_monotone_in_slack_bound() {
    for bench in BENCHES {
        let mut prev = 0u64;
        for bound in [1u64, 4, 16, 64] {
            let r = run_engine(
                bench,
                4,
                &Scheme::BoundedSlack { bound },
                target(),
                1,
                EngineKind::Sequential,
            );
            let v = r.violations.total();
            assert!(
                v >= prev,
                "{bench}: violations dropped from {prev} to {v} at bound {bound}"
            );
            prev = v;
        }
    }
}

/// Self-profiling and live telemetry are observation-only: a run with
/// `--profile` and a live heartbeat emitter attached must be
/// bit-identical to an uninstrumented run, on every engine under
/// cycle-by-cycle, bounded slack and a quantum — every one of them is
/// deterministic, so any perturbation would surface exactly.
#[test]
fn profiling_and_live_telemetry_leave_fingerprints_bit_identical() {
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use slacksim::LiveConfig;

    for engine in [
        EngineKind::Sequential,
        EngineKind::Threaded,
        EngineKind::Batched,
    ] {
        let schemes = [
            Scheme::CycleByCycle,
            Scheme::BoundedSlack { bound: 8 },
            Scheme::Quantum { quantum: 50 },
        ];
        for scheme in schemes {
            let plain = run_engine(Benchmark::Fft, 4, &scheme, target(), 1, engine);
            let capture = Arc::new(Mutex::new(String::new()));
            let mut sim = Simulation::new(Benchmark::Fft);
            sim.cores(4)
                .scheme(scheme.clone())
                .engine(engine)
                .commit_target(target())
                .seed(1)
                .profile(true)
                .live(
                    LiveConfig::new()
                        .every(Duration::from_millis(1))
                        .to_capture(Arc::clone(&capture)),
                );
            let instrumented = sim.run().expect("instrumented run completes");
            assert_eq!(
                fingerprint(&plain),
                fingerprint(&instrumented),
                "{engine:?}/{scheme:?}: instrumentation perturbed the simulation"
            );
            let prof = instrumented.prof.as_ref().expect("profile attached");
            assert!(prof.total_self_ns() > 0, "profile recorded host time");
            assert!(
                !capture.lock().unwrap().is_empty(),
                "emitter produced at least the terminal beat"
            );
        }
    }
}
