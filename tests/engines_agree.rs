//! Under cycle-by-cycle pacing, the threaded engine (target cores on
//! host threads, at any thread count) and the deterministic sequential
//! engine must produce bit-identical statistics: the barrier protocol
//! fully determinises the parallel execution. Likewise the batched engine
//! under a quantum scheme. Under the greedy schemes the window loop's
//! seeded rounds must keep the sequential emulation's fidelity.

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::{Benchmark, EngineKind, Simulation, ViolationKind};

fn run(benchmark: Benchmark, engine: EngineKind, commit: u64) -> slacksim::SimReport {
    run_under(Scheme::CycleByCycle, benchmark, engine, commit)
}

fn run_under(
    scheme: Scheme,
    benchmark: Benchmark,
    engine: EngineKind,
    commit: u64,
) -> slacksim::SimReport {
    Simulation::new(benchmark)
        .commit_target(commit)
        .scheme(scheme)
        .engine(engine)
        .run()
        .expect("run succeeds")
}

#[test]
fn threaded_cc_matches_sequential_cc_exactly() {
    for benchmark in Benchmark::ALL {
        let seq = run(benchmark, EngineKind::Sequential, 40_000);
        let thr = run(benchmark, EngineKind::Threaded, 40_000);
        assert_eq!(seq.global_cycles, thr.global_cycles, "{benchmark}: cycles");
        assert_eq!(seq.committed, thr.committed, "{benchmark}: committed");
        assert_eq!(seq.violations, thr.violations, "{benchmark}: violations");
        assert_eq!(seq.per_core, thr.per_core, "{benchmark}: per-core stats");
        assert_eq!(seq.uncore, thr.uncore, "{benchmark}: uncore stats");
    }
}

#[test]
fn batched_quantum_matches_sequential_quantum_exactly() {
    // The third engine under the only scheme family it accepts: barrier
    // servicing at quantum boundaries is engine-independent, so the
    // quantum-compiled loop must reproduce the sequential statistics.
    let quantum = Scheme::Quantum { quantum: 50 };
    for benchmark in Benchmark::ALL {
        let seq = run_under(quantum.clone(), benchmark, EngineKind::Sequential, 40_000);
        let bat = run_under(quantum.clone(), benchmark, EngineKind::Batched, 40_000);
        assert_eq!(seq.global_cycles, bat.global_cycles, "{benchmark}: cycles");
        assert_eq!(seq.committed, bat.committed, "{benchmark}: committed");
        assert_eq!(seq.violations, bat.violations, "{benchmark}: violations");
        assert_eq!(seq.per_core, bat.per_core, "{benchmark}: per-core stats");
        assert_eq!(seq.uncore, bat.uncore, "{benchmark}: uncore stats");
    }
}

#[test]
fn batched_matches_sequential_at_every_host_thread_count() {
    // The host-thread count partitions who runs a window's cores, never
    // what they compute or the order the boundary services their events
    // in: 16 directory cores on 1, 2, 3, 5 and 16 host threads (the last
    // falls under the hand-off floor and runs inline) are all the
    // sequential run. 200 K commits: the workers take over a fifth of
    // the way in.
    use slacksim::UncoreKind;
    let quantum = Scheme::Quantum { quantum: 50 };
    let sim = |engine| {
        let mut sim = Simulation::new(Benchmark::WaterNsquared);
        sim.uncore(UncoreKind::Directory)
            .cores(16)
            .commit_target(200_000)
            .scheme(quantum.clone())
            .engine(engine);
        sim
    };
    let seq = sim(EngineKind::Sequential).run().expect("run succeeds");
    // The sequential engine samples its clock spread mid-window; every
    // other kernel counter is pinned through one host thread.
    let solo = sim(EngineKind::Batched)
        .host_threads(1)
        .run()
        .expect("run succeeds");
    for threads in [1, 2, 3, 5, 16] {
        let bat = sim(EngineKind::Batched)
            .host_threads(threads)
            .run()
            .expect("run succeeds");
        assert_eq!(seq.global_cycles, bat.global_cycles, "{threads}: cycles");
        assert_eq!(seq.committed, bat.committed, "{threads}: committed");
        assert_eq!(seq.violations, bat.violations, "{threads}: violations");
        assert_eq!(seq.per_core, bat.per_core, "{threads}: per-core stats");
        assert_eq!(seq.uncore, bat.uncore, "{threads}: uncore stats");
        assert_eq!(solo.kernel, bat.kernel, "{threads}: kernel counters");
    }
}

#[test]
fn threaded_cc_is_repeatable() {
    let a = run(Benchmark::Lu, EngineKind::Threaded, 30_000);
    let b = run(Benchmark::Lu, EngineKind::Threaded, 30_000);
    assert_eq!(a.global_cycles, b.global_cycles);
    assert_eq!(a.per_core, b.per_core);
    assert_eq!(a.uncore, b.uncore);
}

#[test]
fn threaded_slack_run_completes_with_sane_stats() {
    // Greedy rounds are checked for fidelity above; assert invariants,
    // not exact values.
    let r = Simulation::new(Benchmark::WaterNsquared)
        .commit_target(60_000)
        .scheme(Scheme::BoundedSlack { bound: 8 })
        .engine(EngineKind::Threaded)
        .run()
        .expect("run succeeds");
    assert!(r.committed >= 60_000);
    assert!(r.global_cycles > 0);
    assert_eq!(r.core_total("committed"), r.committed);
    assert!(r.uncore.get("bus_transactions") > 0);
}

#[test]
fn threaded_bounded_slack_keeps_its_cpi_at_every_lane_count() {
    // The fidelity oracle for the window loop's greedy rounds (DESIGN §10,
    // "Seeded rounds"), on {FFT, Water, Barnes, LU} x {bounded-16, -64,
    // -128, unbounded, adaptive, Lax-P2P}:
    //
    // - CPI within 2 points of the sequential emulation's own CPI error
    //   against cycle-by-cycle;
    // - a violation rate of at least a quarter of the emulation's, never
    //   none;
    // - Fig. 3's shape: bus violations dominate map violations, and along
    //   the bound ladder the rate does not fall (up to 5 % of noise).
    //
    // A round's report is the same at every host-thread count (the
    // conformance matrix pins that), so the cells rotate over 1, 2 and 8
    // threads rather than repeat. The four programs run on their own
    // threads to keep the debug build inside its budget.
    const COMMITS: u64 = 200_000;
    let run = |bench, scheme: &Scheme, engine, host_threads, seed| {
        let mut sim = Simulation::new(bench);
        sim.commit_target(COMMITS)
            .scheme(scheme.clone())
            .engine(engine)
            .seed(seed);
        if engine == EngineKind::Threaded {
            sim.host_threads(host_threads);
        }
        sim.run().expect("run succeeds")
    };
    let ladder = [
        Scheme::BoundedSlack { bound: 16 },
        Scheme::BoundedSlack { bound: 64 },
        Scheme::BoundedSlack { bound: 128 },
        Scheme::UnboundedSlack,
    ];
    let check = |bench: Benchmark| {
        for seed in [1, 2] {
            // The CLI's `--scheme adaptive --target 0.2 --band 5` and
            // `--scheme p2p`.
            let others = [
                Scheme::Adaptive(AdaptiveConfig::percent(0.2, 5.0)),
                Scheme::LaxP2p {
                    lead: 8,
                    period: 500,
                    seed,
                },
            ];
            let cc = run(
                bench,
                &Scheme::CycleByCycle,
                EngineKind::Sequential,
                0,
                seed,
            )
            .cpi();
            let error = |r: &slacksim::SimReport| (r.cpi() - cc).abs() / cc * 100.0;
            let mut ladder_rates = Vec::new();
            for (k, scheme) in ladder.iter().chain(&others).enumerate() {
                let emulated = run(bench, scheme, EngineKind::Sequential, 0, seed);
                let host_threads = [1, 2, 8][k % 3];
                let r = run(bench, scheme, EngineKind::Threaded, host_threads, seed);
                let label = format!("{bench}/{scheme:?}/seed {seed} on {host_threads} threads");
                let band = error(&emulated) + 2.0;
                assert!(
                    error(&r) <= band,
                    "{label}: CPI {:.4} is {:.2} % off cycle-by-cycle {cc:.4} (band {band:.2} %)",
                    r.cpi(),
                    error(&r)
                );
                let (rate, floor) = (r.violation_rate(), emulated.violation_rate() / 4.0);
                assert!(
                    rate > 0.0 && rate >= floor,
                    "{label}: violation rate {rate:.5} below a quarter of the emulation's"
                );
                if k < ladder.len() {
                    let bus = r.violations.count(ViolationKind::Bus);
                    let map = r.violations.count(ViolationKind::Map);
                    assert!(
                        bus >= 3 * map,
                        "{label}: bus ({bus}) must dominate map ({map})"
                    );
                    ladder_rates.push(rate);
                }
            }
            assert!(
                ladder_rates.windows(2).all(|w| w[1] >= w[0] * 0.95),
                "{bench}/seed {seed}: rate fell as the bound grew: {ladder_rates:?}"
            );
        }
    };
    std::thread::scope(|s| {
        for bench in Benchmark::ALL {
            s.spawn(move || check(bench));
        }
    });
}

#[test]
fn threaded_unbounded_slack_completes() {
    let r = Simulation::new(Benchmark::Fft)
        .commit_target(60_000)
        .scheme(Scheme::UnboundedSlack)
        .engine(EngineKind::Threaded)
        .run()
        .expect("run succeeds");
    assert!(r.committed >= 60_000);
}
