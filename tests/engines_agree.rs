//! Under cycle-by-cycle pacing, the threaded engine (target cores on
//! host threads, at any lane count) and the deterministic sequential
//! engine must produce bit-identical statistics: the barrier protocol
//! fully determinises the parallel execution. Likewise the batched engine
//! under a quantum scheme.

use slacksim::scheme::Scheme;
use slacksim::{Benchmark, EngineKind, Simulation};

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
    // Slack runs are host-nondeterministic by design; assert invariants,
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
    // How the cores are folded onto host threads changes which cores can
    // drift apart (a lane's own stay within a cycle of each other), not
    // how far the bound lets them: on one lane, two, and a lane per core
    // a bounded-16 run stays within 2 % of the cycle-by-cycle CPI, the
    // band the benchmark holds `thr-b16-fft4` to.
    let cpi = |r: &slacksim::SimReport| r.global_cycles as f64 / r.committed as f64;
    let reference = cpi(&run(Benchmark::Fft, EngineKind::Sequential, 200_000));
    for lanes in [1, 2, 8] {
        let r = Simulation::new(Benchmark::Fft)
            .commit_target(200_000)
            .scheme(Scheme::BoundedSlack { bound: 16 })
            .engine(EngineKind::Threaded)
            .host_threads(lanes)
            .run()
            .expect("run succeeds");
        let error = (cpi(&r) - reference).abs() / reference * 100.0;
        assert!(
            error <= 2.0,
            "{lanes} lanes: CPI {:.4} is {error:.2} % off the cycle-by-cycle {reference:.4}",
            cpi(&r)
        );
    }
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
