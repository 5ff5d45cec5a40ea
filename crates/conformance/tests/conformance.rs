//! The conformance suite: differential oracle matrix, deterministic
//! schedule fuzzing, and the seeded-mutation detection proof.
//!
//! Budget control: commit targets scale with the build profile, and the
//! number of schedule seeds per loop comes from
//! [`smoke_seeds`] (`SLACKSIM_CONFORMANCE_SEEDS` in CI).
//!
//! Any failing virtual-schedule assertion prints a
//! `conformance-repro v1 ...` line; paste it into
//! `slacksim_conformance::run_repro` to replay the exact schedule.

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::{Benchmark, EngineKind, SimReport, SpeculationConfig, UncoreKind, ViolationSelect};
use slacksim_conformance::{
    check_invariants, fingerprint, kernel_fingerprint, run_engine, run_engine_on, run_repro,
    run_resumed, run_resumed_on, run_speculative, run_virtual, shrink, smoke_seeds, Mutation,
    SchedPolicy, VirtCase,
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

fn virt_case(
    policy: SchedPolicy,
    sched_seed: u64,
    bench: Benchmark,
    cores: usize,
    scheme: Scheme,
) -> VirtCase {
    VirtCase {
        policy,
        sched_seed,
        mutation: Mutation::None,
        bench,
        cores,
        scheme,
        target: target(),
        seed: 1,
    }
}

/// Sequential vs threaded-native across the full
/// {scheme x workload x cores} matrix — plus the batched engine on the
/// quantum cells, the only scheme it accepts: every cell completes and
/// upholds the metamorphic invariants on every engine.
#[test]
fn differential_matrix_upholds_invariants_on_both_engines() {
    for bench in BENCHES {
        for scheme in schemes() {
            for cores in CORE_COUNTS {
                let mut engines = vec![EngineKind::Sequential, EngineKind::Threaded];
                if matches!(scheme, Scheme::Quantum { .. }) {
                    engines.push(EngineKind::Batched);
                }
                for engine in engines {
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

/// Cycle-by-cycle runs are engine-independent: the sequential engine,
/// the native threaded engine and a virtually-scheduled threaded run
/// must be fingerprint-identical.
#[test]
fn cycle_by_cycle_is_exact_across_all_three_engines() {
    for bench in BENCHES {
        for cores in [1, 4] {
            let scheme = Scheme::CycleByCycle;
            let seq = run_engine(bench, cores, &scheme, target(), 1, EngineKind::Sequential);
            let thr = run_engine(bench, cores, &scheme, target(), 1, EngineKind::Threaded);
            let case = virt_case(SchedPolicy::RandomWalk, 1, bench, cores, scheme);
            let (virt, diag) = run_virtual(&case);
            assert_exact(
                &seq,
                &thr,
                &format!("{bench}/{cores}c: sequential vs threaded-native"),
            );
            assert_exact(
                &seq,
                &virt,
                &format!("{bench}/{cores}c: sequential vs threaded-virtual (`{case}`)"),
            );
            assert_eq!(diag.lost_wakeups, 0, "`{case}`");
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
    use slacksim::Simulation;

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
    use slacksim::Simulation;

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

/// Multi-core lanes under adversarial schedules: 6 cores folded onto 3
/// lanes are the manager, stepping lane 0, plus 2 spawned lane tasks of
/// 2 cores each to the virtual scheduler, so every policy runs against
/// them unchanged (`starve:1` starves lane 1). The greedy schemes —
/// bounded slack plain and speculative, so that `Snapshot` and `Rewind`
/// carry two cores a lane on the manager and on the lane threads;
/// adaptive, whose windows shrink while a stop point is pending; Lax-P2P,
/// whose windows are per core — must finish, uphold the invariants and
/// lose no wake-up (one unpark per spawned lane per publish, none when no
/// window moved, is all the lanes get). A stop point below some core
/// would never fill: the run would stall instead of finishing. Every
/// speculative case rolls back and replays, so the replay boundary — the
/// one place the manager waits for every core to stand at a window's end
/// — runs under every policy. (Barrier schemes never reach the scheduler:
/// `barrier_schemes_never_reach_the_host_scheduler`.)
#[test]
fn adversarial_schedules_lose_no_wakeups_on_multi_core_lanes() {
    use slacksim::Simulation;
    use slacksim_conformance::VirtualSched;

    let policies = [
        SchedPolicy::RandomWalk,
        SchedPolicy::ParkRace,
        SchedPolicy::Starve { victim: 1 },
        SchedPolicy::DrainPreempt,
    ];
    // Long enough, in either build profile, for every rollback case to
    // finish a replay: its cycles count once the checkpoint that ends it
    // commits, and a short run can end inside its only one.
    let commits = 10_000;
    let run = |policy, sched_seed, scheme: &Scheme, speculation: Option<SpeculationConfig>| {
        let sched = VirtualSched::new(2, policy, sched_seed, Mutation::None);
        let mut sim = Simulation::new(Benchmark::Fft);
        sim.cores(6)
            .host_threads(3)
            .scheme(scheme.clone())
            .engine(EngineKind::Threaded)
            .commit_target(commits)
            .seed(1)
            .host_sched(slacksim::SchedRef::new(sched.clone()));
        if let Some(spec) = speculation {
            sim.speculation(spec);
        }
        let label = format!(
            "{policy:?}/sched seed {sched_seed}/{}/{}",
            scheme.name(),
            if speculation.is_some() {
                "speculative"
            } else {
                "plain"
            }
        );
        let report = sim.run().unwrap_or_else(|e| panic!("{label}: {e}"));
        let diag = sched.diagnostics();
        assert_eq!(diag.lost_wakeups, 0, "{label}");
        assert!(!diag.timeout_fallback, "{label}");
        assert!(diag.decisions > 0 && diag.switches > 0, "{label}");
        (report, label)
    };
    let b8 = Scheme::BoundedSlack { bound: 8 };
    let rollback = SpeculationConfig::speculative(500, ViolationSelect::all());
    let greedy = [
        (b8.clone(), None),
        (b8, Some(rollback)),
        (Scheme::Adaptive(AdaptiveConfig::default()), Some(rollback)),
        (
            Scheme::LaxP2p {
                lead: 8,
                period: 100,
                seed: 1,
            },
            Some(rollback),
        ),
    ];
    for policy in policies {
        for sched_seed in 0..smoke_seeds() {
            for (scheme, speculation) in &greedy {
                let (r, label) = run(policy, sched_seed, scheme, *speculation);
                assert!(r.committed >= commits, "{label}");
                check_invariants(&r, scheme).unwrap_or_else(|e| panic!("{label}: {e}"));
                if speculation.is_some() {
                    assert!(r.kernel.get("checkpoints") > 0, "{label}: no checkpoints");
                    assert!(r.kernel.get("replay_cycles") > 0, "{label}: no replay");
                }
            }
        }
    }
}

/// Barrier schemes service only at window boundaries, a schedule the
/// batched engine compiles once: a threaded cycle-by-cycle or quantum run
/// is handed to it and so never reaches the host scheduler. Under every
/// policy and schedule seed the virtual scheduler makes no decision, and
/// the run keeps the sequential fingerprint.
#[test]
fn barrier_schemes_never_reach_the_host_scheduler() {
    let bench = Benchmark::Fft;
    let cores = 4;
    let policies = [
        SchedPolicy::RandomWalk,
        SchedPolicy::ParkRace,
        SchedPolicy::Starve { victim: 2 },
        SchedPolicy::DrainPreempt,
    ];
    for scheme in [Scheme::CycleByCycle, Scheme::Quantum { quantum: 64 }] {
        let reference = fingerprint(&run_engine(
            bench,
            cores,
            &scheme,
            target(),
            1,
            EngineKind::Sequential,
        ));
        for policy in policies {
            for sched_seed in 0..smoke_seeds() {
                let case = virt_case(policy, sched_seed, bench, cores, scheme.clone());
                let (r, diag) = run_virtual(&case);
                assert_eq!(fingerprint(&r), reference, "`{case}`");
                assert_eq!(diag.decisions, 0, "`{case}`");
                assert_eq!(diag.lost_wakeups, 0, "`{case}`");
                assert!(!diag.timeout_fallback, "`{case}`");
            }
        }
    }
}

/// Adversarial schedules against the slack schemes — bounded, and
/// `unbounded`, whose windows only the lead cap ends: the unmutated
/// protocol must never lose a wakeup or trip the livelock fallback, and
/// every run must uphold the invariants.
#[test]
fn adversarial_schedules_lose_no_wakeups_under_slack() {
    let policies = [
        SchedPolicy::RandomWalk,
        SchedPolicy::ParkRace,
        SchedPolicy::Starve { victim: 1 },
        SchedPolicy::DrainPreempt,
    ];
    for scheme in [Scheme::BoundedSlack { bound: 8 }, Scheme::UnboundedSlack] {
        for policy in policies {
            for sched_seed in 0..smoke_seeds() {
                let case = virt_case(policy, sched_seed, Benchmark::Fft, 4, scheme.clone());
                let (r, diag) = run_virtual(&case);
                assert!(r.committed >= target(), "`{case}`");
                check_invariants(&r, &scheme).unwrap_or_else(|e| panic!("`{case}`: {e}"));
                assert_eq!(diag.lost_wakeups, 0, "`{case}`");
                assert!(!diag.timeout_fallback, "`{case}`");
                assert!(diag.decisions > 0 && diag.switches > 0, "`{case}`");
            }
        }
    }
}

/// Checkpoint hand-off mid-drain: speculation under the virtual
/// scheduler exercises the stop point, the lanes' `Snapshot` replies and
/// the base-hand-back rollback path, and a fixed case replays to the
/// identical final committed state.
#[test]
fn speculative_checkpoint_handoff_replays_deterministically() {
    let run = |sched_seed: u64| {
        // 4 cores, a lane each: the manager steps lane 0, 3 are spawned.
        let sched = slacksim_conformance::VirtualSched::new(
            3,
            SchedPolicy::DrainPreempt,
            sched_seed,
            Mutation::None,
        );
        let report = slacksim::Simulation::new(Benchmark::Fft)
            .cores(4)
            .scheme(Scheme::BoundedSlack { bound: 16 })
            .engine(EngineKind::Threaded)
            .commit_target(target())
            .seed(1)
            .speculation(SpeculationConfig::speculative(500, ViolationSelect::all()))
            .host_sched(slacksim::SchedRef::new(sched.clone()))
            .run()
            .expect("speculative virtual run");
        (report, sched.diagnostics())
    };
    let (a, diag_a) = run(3);
    let (b, diag_b) = run(3);
    assert!(a.committed >= target());
    assert!(a.kernel.get("checkpoints") > 0, "checkpoints taken");
    assert_eq!(diag_a.lost_wakeups, 0);
    assert!(!diag_a.timeout_fallback);
    // Same schedule seed -> bit-identical run, including diagnostics.
    assert_exact(&a, &b, "same schedule seed");
    assert_eq!(diag_a, diag_b);
}

/// Greedy (bounded-slack) speculation across the engine matrix: every
/// cell completes past its commit target, takes checkpoints, and upholds
/// the metamorphic invariants. Cross-engine equality is deliberately not
/// asserted — threaded slack timing is host-nondeterministic; that the
/// delta-maintained checkpoint base equals a fresh clone is proven per
/// model in `crates/cmp/tests/delta_roundtrip.rs`.
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

/// Durable-snapshot oracle (DESIGN §13): persist a cycle-by-cycle run's
/// checkpoints to disk, resume the newest snapshot — state having
/// round-tripped through the versioned byte format — and continue to the
/// full commit target. On both engines the resumed run must reproduce
/// the uninterrupted run's fingerprint exactly, which proves every model
/// save/load pair restores bit-identical state.
#[test]
fn durable_snapshot_resume_matches_uninterrupted_run() {
    let scheme = Scheme::CycleByCycle;
    let interval = 300;
    for bench in BENCHES {
        for engine in [EngineKind::Sequential, EngineKind::Threaded] {
            let spec = SpeculationConfig::checkpoint_only(interval);
            let baseline = run_speculative(bench, 4, &scheme, target(), 1, engine, spec);
            let resumed = run_resumed(bench, 4, &scheme, target(), 1, engine, interval);
            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&baseline),
                "{engine:?}/{bench}: resumed run diverged from uninterrupted run"
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

/// Durable-snapshot oracle for the directory uncore: a 64-core
/// cycle-by-cycle run persists checkpoints, a second process-independent
/// run resumes the newest snapshot — bank states, sharer sets and
/// per-bank monitors having crossed the versioned byte format — and
/// must reproduce the uninterrupted fingerprint exactly.
#[test]
fn directory_durable_resume_matches_uninterrupted_run() {
    let scheme = Scheme::CycleByCycle;
    let interval = 300;
    for engine in [EngineKind::Sequential, EngineKind::Threaded] {
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
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&baseline),
            "{engine:?}: directory resumed run diverged from uninterrupted run"
        );
    }
}

/// Identical repro line -> identical run: the whole virtual execution is
/// a pure function of the case.
#[test]
fn virtual_runs_replay_bit_identically() {
    let case = virt_case(
        SchedPolicy::RandomWalk,
        5,
        Benchmark::WaterNsquared,
        4,
        Scheme::BoundedSlack { bound: 8 },
    );
    let (a, diag_a) = run_virtual(&case);
    let (b, diag_b) = run_repro(&case.to_string()).expect("line replays");
    assert_eq!(fingerprint(&a), fingerprint(&b), "`{case}`");
    assert_eq!(diag_a, diag_b, "`{case}`");
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

/// The harness catches a seeded protocol mutation: dropping one unpark
/// delivery strands a core, which the no-timeout virtual parks surface
/// as `lost_wakeups > 0`. The failure then shrinks to a minimal case
/// with a replayable one-line repro.
#[test]
fn dropped_unpark_is_caught_and_shrinks_to_a_repro_line() {
    let fails = |c: &VirtCase| run_virtual(c).1.lost_wakeups > 0;
    let mut found = None;
    'search: for sched_seed in 0..smoke_seeds() {
        for nth in 0..48 {
            let case = VirtCase {
                policy: SchedPolicy::ParkRace,
                sched_seed,
                mutation: Mutation::DropUnpark { nth },
                bench: Benchmark::Fft,
                cores: 2,
                scheme: Scheme::BoundedSlack { bound: 8 },
                target: target(),
                seed: 1,
            };
            if fails(&case) {
                found = Some(case);
                break 'search;
            }
        }
    }
    let found = found.expect("schedule explorer must catch the dropped-unpark mutation");
    let shrunk = shrink(found.clone(), fails);
    let line = shrunk.to_string();
    println!("shrunk repro: {line}");
    let (_, diag) = run_repro(&line).expect("shrunk line replays");
    assert!(diag.dropped_unparks > 0, "{line}");
    assert!(diag.timeout_fallback, "{line}");
    assert!(diag.lost_wakeups > 0, "{line}");
    assert!(shrunk.target <= found.target && shrunk.cores <= found.cores);
}

/// Self-profiling and live telemetry are observation-only: a run with
/// `--profile` and a live heartbeat emitter attached must be
/// bit-identical to an uninstrumented run. The assertion is only
/// meaningful on configurations that are deterministic to begin with —
/// cycle-by-cycle on any engine (its fingerprint is
/// schedule-independent, so any perturbation would surface exactly),
/// plus everything on the sequential and batched engines. The threaded
/// engine under real slack is host-nondeterministic *by design*: two
/// uninstrumented runs may already differ, so bit-identity there would
/// test the host scheduler's mood, not the instrumentation — that combo
/// still runs instrumented and asserts the observation-side contract
/// (run completes, profile attached, heartbeat emitted).
#[test]
fn profiling_and_live_telemetry_leave_fingerprints_bit_identical() {
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use slacksim::{LiveConfig, Simulation};

    for engine in [
        EngineKind::Sequential,
        EngineKind::Threaded,
        EngineKind::Batched,
    ] {
        let schemes = [
            Scheme::CycleByCycle,
            if engine == EngineKind::Batched {
                Scheme::Quantum { quantum: 50 }
            } else {
                Scheme::BoundedSlack { bound: 8 }
            },
        ];
        for scheme in schemes {
            let deterministic = engine != EngineKind::Threaded || scheme == Scheme::CycleByCycle;
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
            if deterministic {
                assert_eq!(
                    fingerprint(&plain),
                    fingerprint(&instrumented),
                    "{engine:?}/{scheme:?}: instrumentation perturbed the simulation"
                );
            } else {
                assert!(
                    instrumented.committed >= target(),
                    "{engine:?}/{scheme:?}: instrumented run fell short of its target"
                );
            }
            let prof = instrumented.prof.as_ref().expect("profile attached");
            assert!(prof.total_self_ns() > 0, "profile recorded host time");
            assert!(
                !capture.lock().unwrap().is_empty(),
                "emitter produced at least the terminal beat"
            );
        }
    }
}

/// The campaign pool under the virtual scheduler: replaying the same
/// schedule seed reproduces the exact per-worker job schedule (steal
/// decisions and all), while job *results* are schedule-independent —
/// the pool may only decide where a job runs, never what it computes.
#[test]
fn campaign_pool_schedule_is_deterministic_under_virtual_sched() {
    use std::sync::Arc;

    use slacksim::slacksim_core::campaign::run_jobs;
    use slacksim::SchedRef;
    use slacksim_conformance::VirtualSched;

    let policies = [
        SchedPolicy::RandomWalk,
        SchedPolicy::ParkRace,
        SchedPolicy::Starve { victim: 1 },
        SchedPolicy::DrainPreempt,
    ];
    let mut schedules = Vec::new();
    for policy in policies {
        for seed in 0..smoke_seeds() {
            let run = |seed: u64| {
                // 3 pool tasks: the manager plus 2 spawned workers, the
                // same task vocabulary as a 3-lane threaded engine.
                let sched = VirtualSched::new(2, policy, seed, Mutation::None);
                let sref = SchedRef::new(Arc::clone(&sched) as Arc<_>);
                let jobs: Vec<u64> = (0..12).collect();
                run_jobs(jobs, 3, &sref, |_, idx, j| {
                    assert_eq!(idx as u64, j);
                    j.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                })
            };
            let (results_a, outcome_a) = run(seed);
            let (results_b, outcome_b) = run(seed);
            assert_eq!(
                outcome_a.per_worker_jobs, outcome_b.per_worker_jobs,
                "{policy:?}/seed {seed}: same seed must replay the same schedule"
            );
            // Exactly-once execution and schedule-independent results,
            // whatever interleaving the policy forced.
            let mut seen: Vec<usize> = outcome_a.per_worker_jobs.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<usize>>());
            assert_eq!(
                results_a,
                (0..12u64)
                    .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect::<Vec<u64>>(),
                "{policy:?}/seed {seed}: results depend only on the job"
            );
            assert_eq!(results_a, results_b);
            schedules.push(outcome_a.per_worker_jobs);
        }
    }
    // The explorer must actually explore: across policies and seeds at
    // least two distinct pool schedules were exercised.
    schedules.sort();
    schedules.dedup();
    assert!(
        schedules.len() > 1,
        "schedule fuzzing never varied the pool schedule"
    );
}

/// Campaign-vs-solo oracle under adversarial pool schedules: simulation
/// jobs run on a virtually-scheduled work-stealing pool must produce
/// reports bit-identical to the same configurations run solo on the
/// native host, for every explored pool interleaving.
#[test]
fn pooled_simulation_jobs_match_solo_fingerprints_under_virtual_sched() {
    use std::sync::Arc;

    use slacksim::slacksim_core::campaign::run_jobs;
    use slacksim::SchedRef;
    use slacksim_conformance::VirtualSched;

    let scheme = Scheme::BoundedSlack { bound: 8 };
    let seeds: Vec<u64> = (1..=4).collect();
    let solo: Vec<_> = seeds
        .iter()
        .map(|&s| {
            fingerprint(&run_engine(
                Benchmark::Fft,
                2,
                &scheme,
                target(),
                s,
                EngineKind::Sequential,
            ))
        })
        .collect();
    for sched_seed in 0..smoke_seeds() {
        let sched = VirtualSched::new(1, SchedPolicy::RandomWalk, sched_seed, Mutation::None);
        let sref = SchedRef::new(Arc::clone(&sched) as Arc<_>);
        let (reports, outcome) = run_jobs(seeds.clone(), 2, &sref, |_, _, seed| {
            run_engine(
                Benchmark::Fft,
                2,
                &scheme,
                target(),
                seed,
                EngineKind::Sequential,
            )
        });
        assert_eq!(outcome.counts().iter().sum::<usize>(), 4);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(
                fingerprint(report),
                solo[i],
                "sched seed {sched_seed}: pooled job {i} diverged from its solo run"
            );
        }
    }
}
