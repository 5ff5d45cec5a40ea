//! Under cycle-by-cycle pacing, the threaded engine (one host thread per
//! target core) and the deterministic sequential engine must produce
//! bit-identical statistics: the barrier protocol fully determinises the
//! parallel execution. Likewise the batched engine under a quantum scheme.

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
fn threaded_unbounded_slack_completes() {
    let r = Simulation::new(Benchmark::Fft)
        .commit_target(60_000)
        .scheme(Scheme::UnboundedSlack)
        .engine(EngineKind::Threaded)
        .run()
        .expect("run succeeds");
    assert!(r.committed >= 60_000);
}
