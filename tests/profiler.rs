//! Integration tests of the host-time profiler and live telemetry end to
//! end: a profiled run must attach a per-site profile that covers most of
//! the measured wall-clock, live heartbeats must be valid versioned
//! single-line JSON, and neither may change what the simulation computes.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use slacksim::scheme::Scheme;
use slacksim::slacksim_core::obs::json::Json;
use slacksim::{
    Benchmark, EngineKind, LiveConfig, ProfSite, SimReport, Simulation, SpeculationConfig,
    ViolationSelect, HEARTBEAT_VERSION,
};

fn profiled_run(engine: EngineKind, commit: u64) -> SimReport {
    profiled_run_on(0, engine, commit)
}

/// [`profiled_run`] with the host-thread count pinned (0 = one per host
/// CPU).
fn profiled_run_on(host_threads: usize, engine: EngineKind, commit: u64) -> SimReport {
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.cores(4)
        .host_threads(host_threads)
        .commit_target(commit)
        .seed(7)
        .scheme(Scheme::BoundedSlack { bound: 8 })
        .engine(engine)
        .profile(true);
    sim.run().expect("profiled run completes")
}

#[test]
fn prof_is_absent_without_profile_flag() {
    let report = Simulation::new(Benchmark::Fft)
        .cores(2)
        .commit_target(10_000)
        .scheme(Scheme::UnboundedSlack)
        .run()
        .expect("run completes");
    assert!(
        report.prof.is_none(),
        "no profile requested => none attached"
    );
}

#[test]
fn sequential_profile_covers_most_of_the_wall_clock() {
    let report = profiled_run(EngineKind::Sequential, 60_000);
    let prof = report.prof.as_ref().expect("profile attached");
    assert_eq!(prof.threads, 1);
    assert!(prof.wall_ns > 0);
    // The sequential engine's whole main loop is inside spans, so nearly
    // all host time is attributed. The bound is looser than the observed
    // ~96% to tolerate loaded CI machines.
    assert!(
        prof.coverage() > 0.75,
        "sequential self-time coverage {:.1}% too low",
        prof.coverage() * 100.0
    );
    let ticks = prof
        .sites
        .iter()
        .find(|s| s.site == ProfSite::CoreTick)
        .expect("core-tick site present");
    assert!(ticks.count > 0 && ticks.self_ns > 0);
}

#[test]
fn threaded_profile_covers_the_threads_that_ran() {
    // The coverage denominator is the host threads that recorded spans:
    // the calling thread, plus the window workers where rounds were
    // handed to them. 4-core bounded-8 rounds hold ~18 core-cycles, under
    // the hand-off floor, so they run inline at any thread count; 16-core
    // bounded-64 rounds of bursts up to 64 hold ~260 a lane on two
    // threads, and go to a worker once the run is past its first stretch.
    let wide = |host_threads| {
        let mut sim = Simulation::new(Benchmark::Fft);
        sim.cores(16)
            .host_threads(host_threads)
            .commit_target(200_000)
            .seed(7)
            .scheme(Scheme::BoundedSlack { bound: 64 })
            .max_burst(64)
            .engine(EngineKind::Threaded)
            .profile(true);
        sim.run().expect("profiled run completes")
    };
    let runs = [
        (profiled_run_on(4, EngineKind::Threaded, 60_000), 1),
        (profiled_run_on(1, EngineKind::Threaded, 60_000), 1),
        (wide(2), 2),
        (wide(1), 1),
    ];
    for (report, threads) in runs {
        let prof = report.prof.as_ref().expect("profile attached");
        assert_eq!(prof.threads, threads, "threads that recorded spans");
        // Workers spend their time running cores or in the instrumented
        // barrier wait; the only uncovered host time is loop glue. The
        // bound is deliberately loose: on an oversubscribed host,
        // preempted threads accrue wall-clock outside any span.
        assert!(
            prof.coverage() > 0.5,
            "threaded self-time coverage on {threads} threads {:.1}% too low",
            prof.coverage() * 100.0
        );
        for site in [ProfSite::BatchedRun, ProfSite::BatchedResolve] {
            assert!(
                prof.sites.iter().any(|s| s.site == site && s.count > 0),
                "{site:?} missing from threaded profile on {threads} threads"
            );
        }
    }
}

#[test]
fn profile_table_and_csv_agree_with_the_data() {
    let report = profiled_run(EngineKind::Sequential, 20_000);
    let prof = report.prof.as_ref().unwrap();

    let table = prof.table();
    assert!(table.contains("site"), "table has a header");
    assert!(table.contains("core-tick"));
    assert!(table.contains("coverage"));

    let csv = prof.csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("site,count,total_ns,self_ns,self_share"));
    let mut self_sum = 0u64;
    let mut saw_wall = false;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 5, "malformed CSV row {line:?}");
        match cols[0] {
            "wall_ns" => {
                assert_eq!(cols[2].parse::<u64>().unwrap(), prof.wall_ns);
                saw_wall = true;
            }
            "threads" => assert_eq!(cols[2].parse::<u64>().unwrap(), prof.threads),
            name => {
                assert!(ProfSite::parse(name).is_some(), "unknown site {name:?}");
                self_sum += cols[3].parse::<u64>().unwrap();
            }
        }
    }
    assert!(saw_wall, "CSV carries the wall-clock footer row");
    assert_eq!(
        self_sum,
        prof.total_self_ns(),
        "CSV self-times sum to total"
    );
}

#[test]
fn live_heartbeats_are_valid_versioned_single_line_json() {
    let capture = Arc::new(Mutex::new(String::with_capacity(1 << 16)));
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.cores(2)
        .commit_target(60_000)
        .seed(7)
        .scheme(Scheme::BoundedSlack { bound: 8 })
        .engine(EngineKind::Threaded)
        .profile(true)
        .live(
            LiveConfig::new()
                .every(Duration::from_millis(1))
                .to_capture(Arc::clone(&capture)),
        );
    let report = sim.run().expect("live run completes");

    let out = capture.lock().unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert!(!lines.is_empty(), "at least the terminal beat is emitted");
    let mut last_elapsed = 0.0;
    for line in &lines {
        let beat = Json::parse(line).unwrap_or_else(|e| panic!("invalid beat {line:?}: {e}"));
        assert_eq!(
            beat.get("v").and_then(Json::as_f64),
            Some(HEARTBEAT_VERSION as f64)
        );
        let elapsed = beat.get("elapsed_ms").and_then(Json::as_f64).unwrap();
        assert!(elapsed >= last_elapsed, "elapsed_ms is monotone");
        last_elapsed = elapsed;
        let progress = beat.get("progress").and_then(Json::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&progress));
        for key in [
            "committed",
            "commit_target",
            "commits_per_sec",
            "global_cycle",
            "violations",
            "violation_rate",
            "dropped_traces",
            "checkpoints",
            "rollbacks",
        ] {
            assert!(
                beat.get(key).and_then(Json::as_f64).is_some(),
                "beat missing numeric field {key}: {line}"
            );
        }
        let queues = beat.get("queues").expect("queues object");
        for q in ["outq", "inq", "globalq"] {
            assert!(queues.get(q).and_then(Json::as_f64).is_some());
        }
        assert!(beat.get("sites").and_then(Json::as_object).is_some());
    }

    // The terminal beat observed the finished run.
    let last = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        last.get("committed").and_then(Json::as_f64),
        Some(report.committed as f64)
    );
    assert_eq!(last.get("progress").and_then(Json::as_f64), Some(1.0));
    assert!(
        last.get("commits_per_sec").and_then(Json::as_f64).unwrap() > 0.0,
        "terminal beat reports the lifetime rate, not an empty window"
    );
}

/// Runs `sim` with a capture sink and returns the report with the last
/// (terminal) heartbeat.
fn run_with_terminal_beat(sim: &mut Simulation) -> (SimReport, Json) {
    let capture = Arc::new(Mutex::new(String::new()));
    sim.live(
        LiveConfig::new()
            .every(Duration::from_millis(1))
            .to_capture(Arc::clone(&capture)),
    );
    let report = sim.run().expect("live run completes");
    let out = capture.lock().unwrap();
    let last = out.lines().last().expect("terminal beat emitted");
    let beat = Json::parse(last).unwrap_or_else(|e| panic!("invalid beat {last:?}: {e}"));
    (report, beat)
}

/// The terminal heartbeat is published from the same ledger the report is
/// built from: every gauge the report also carries must agree exactly.
fn assert_terminal_beat_equals_report(label: &str, scheme: Scheme, sim: &mut Simulation) {
    let (report, beat) = run_with_terminal_beat(sim.scheme(scheme.clone()));
    let num = |key: &str| beat.get(key).and_then(Json::as_f64);
    assert_eq!(
        num("global_cycle"),
        Some(report.global_cycles as f64),
        "{label}"
    );
    assert_eq!(num("committed"), Some(report.committed as f64), "{label}");
    assert_eq!(
        num("violations"),
        Some(report.violations.total() as f64),
        "{label}"
    );
    for key in ["checkpoints", "rollbacks"] {
        assert_eq!(
            num(key),
            Some(report.kernel.get(key) as f64),
            "{label}: {key}"
        );
    }
    assert!(report.kernel.get("checkpoints") > 0, "{label}: checkpoints");
    // An adaptive run ends on the last bound it traced (no rollback rewinds
    // the controller in these configurations); any other scheme's bound is
    // fixed by its configuration.
    let bound = match report.bound_trace.last() {
        Some(&(_, b)) if matches!(scheme, Scheme::Adaptive(_)) => Some(b),
        _ => scheme.into_pacer().current_bound(),
    };
    assert_eq!(num("bound"), bound.map(|b| b as f64), "{label}: bound");
    let queues = beat.get("queues").expect("queues object");
    assert_eq!(
        queues.get("globalq").and_then(Json::as_f64),
        Some(0.0),
        "{label}: a finished run has serviced its queue"
    );
}

fn live_sim(engine: EngineKind) -> Simulation {
    let mut sim = Simulation::new(Benchmark::WaterNsquared);
    sim.cores(4).commit_target(40_000).seed(7).engine(engine);
    sim
}

fn adaptive() -> Scheme {
    Scheme::Adaptive(slacksim::scheme::AdaptiveConfig {
        sample_period: 256,
        ..Default::default()
    })
}

#[test]
fn sequential_terminal_heartbeat_equals_the_report() {
    let cp_only = SpeculationConfig::checkpoint_only(500);
    let mut sim = live_sim(EngineKind::Sequential);
    assert_terminal_beat_equals_report("adaptive", adaptive(), sim.speculation(cp_only));
    let rollback = SpeculationConfig::speculative(500, ViolationSelect::all());
    let mut sim = live_sim(EngineKind::Sequential);
    let b16 = Scheme::BoundedSlack { bound: 16 };
    assert_terminal_beat_equals_report("rollback", b16, sim.speculation(rollback));
}

#[test]
fn batched_terminal_heartbeat_equals_the_report() {
    let cp_only = SpeculationConfig::checkpoint_only(500);
    let q50 = Scheme::Quantum { quantum: 50 };
    // On one host thread, and on two with windows big enough (8 cores x
    // 50 cycles) and a run long enough that the workers take over.
    for (threads, commits) in [(1, 40_000), (2, 300_000)] {
        let batched = || {
            let mut sim = live_sim(EngineKind::Batched);
            sim.cores(8).host_threads(threads).commit_target(commits);
            sim
        };
        let mut sim = batched();
        assert_terminal_beat_equals_report("quantum", q50.clone(), sim.speculation(cp_only));
        // The sharp case: the cycle cap lands one quantum after a
        // checkpoint, so the last checkpoint commits in the final loop
        // iteration — after that iteration's in-loop publish. Only a
        // terminal publish that carries every gauge reports it.
        let mut sim = batched();
        sim.commit_target(u64::MAX).max_cycles(1050);
        assert_terminal_beat_equals_report("cycle cap", q50.clone(), sim.speculation(cp_only));
    }
}

#[test]
fn batched_profile_tells_run_from_barrier_wait_from_resolve() {
    let profiled = |threads: usize| {
        let mut sim = Simulation::new(Benchmark::Fft);
        sim.cores(8)
            .commit_target(300_000)
            .seed(7)
            .scheme(Scheme::Quantum { quantum: 50 })
            .engine(EngineKind::Batched)
            .host_threads(threads)
            .profile(true);
        sim.run().expect("profiled run completes").prof.unwrap()
    };
    let count = |prof: &slacksim::ProfData, site| {
        prof.sites
            .iter()
            .find(|s| s.site == site)
            .map_or(0, |s| s.count)
    };

    let solo = profiled(1);
    assert_eq!(solo.threads, 1);
    assert_eq!(
        count(&solo, ProfSite::BatchedBarrier),
        0,
        "nobody to wait for"
    );
    let windows = count(&solo, ProfSite::BatchedResolve);
    assert_eq!(count(&solo, ProfSite::BatchedRun), windows * 8);

    // Two threads: the same spans, whichever thread recorded them, plus
    // one barrier wait per window handed off — every one after the 164
    // (of 400 core-cycles each) that the run steps inline before it
    // spawns its worker.
    let duo = profiled(2);
    assert_eq!(duo.threads, 2, "the manager and one worker ran cores");
    assert_eq!(count(&duo, ProfSite::BatchedResolve), windows);
    assert_eq!(count(&duo, ProfSite::BatchedRun), windows * 8);
    assert!(windows > 164, "the run is long enough to hand windows off");
    assert_eq!(count(&duo, ProfSite::BatchedBarrier), windows - 164);
    // `slacksim report` renders this table: the split is in it.
    let split = duo.table().lines().last().unwrap_or_default().to_owned();
    for part in ["batched windows: run", "barrier wait", "resolve"] {
        assert!(split.contains(part), "{part:?} missing from {split:?}");
    }
}

#[test]
fn threaded_terminal_heartbeat_equals_the_report() {
    let cp_only = SpeculationConfig::checkpoint_only(500);
    let mut sim = live_sim(EngineKind::Threaded);
    assert_terminal_beat_equals_report("adaptive", adaptive(), sim.speculation(cp_only));
    let rollback = SpeculationConfig::speculative(500, ViolationSelect::all());
    let b16 = Scheme::BoundedSlack { bound: 16 };
    // A lane per core, then two cores a lane.
    for lanes in [4, 2] {
        let mut sim = live_sim(EngineKind::Threaded);
        sim.host_threads(lanes).speculation(rollback);
        assert_terminal_beat_equals_report(&format!("rollback/{lanes}"), b16.clone(), &mut sim);
    }
}

#[test]
fn live_status_file_holds_one_complete_beat() {
    let dir = std::env::temp_dir().join(format!("slacksim-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("status.json");
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.cores(2)
        .commit_target(30_000)
        .seed(7)
        .scheme(Scheme::UnboundedSlack)
        .engine(EngineKind::Sequential)
        .live(
            LiveConfig::new()
                .every(Duration::from_millis(2))
                .to_file(&path),
        );
    sim.run().expect("run completes");

    let body = std::fs::read_to_string(&path).expect("status file written");
    assert_eq!(
        body.lines().count(),
        1,
        "atomic replace keeps exactly one beat"
    );
    let beat = Json::parse(body.trim_end()).expect("status file is one valid beat");
    assert_eq!(beat.get("progress").and_then(Json::as_f64), Some(1.0));
    std::fs::remove_dir_all(&dir).ok();
}
