//! Bench: simulated-cycles-per-second of the engines under the main slack
//! schemes (the raw speed behind Figure 4's Y axis).
//!
//! A plain `main()` timing harness over `std::time::Instant` — no external
//! bench framework, so it runs in fully offline builds. Invoke with
//! `cargo bench --bench engine_throughput`.
//!
//! Besides the human-readable table on stdout, the harness writes
//! machine-readable results to `BENCH_threaded.json` at the workspace root
//! (override with `SLACKSIM_BENCH_OUT`) so the repo's perf trajectory can
//! be tracked across PRs, plus the batched (quantum-compiled) engine's
//! rows to `BENCH_batched.json` (override with
//! `SLACKSIM_BENCH_OUT_BATCHED`) together with a
//! `speedup_vs_sequential_quantum` summary — the headline number of the
//! batched engine. Each result row records the engine, scheme, core
//! count, slack bound, wall time and events/sec. The files are re-parsed
//! with the in-tree `obs::json` parser before the process exits, so a
//! malformed emitter fails the bench rather than poisoning the
//! trajectory.
//!
//! Environment knobs:
//!
//! * `SLACKSIM_BENCH_SMOKE=1` — tiny commit target and 2 iterations, for
//!   CI smoke runs;
//! * `SLACKSIM_BENCH_BASELINE=path` — embed a previous `BENCH_threaded.json`
//!   under a `"baseline"` key and report per-row speedups against it;
//! * `SLACKSIM_BENCH_BASELINE_BATCHED=path` — likewise for the batched
//!   results file;
//! * `SLACKSIM_BENCH_OUT_DIRECTORY` / `SLACKSIM_BENCH_BASELINE_DIRECTORY`
//!   — likewise for the directory-uncore rows (64-core FFT through the
//!   sharded MESI banks), written to `BENCH_directory.json` by default;
//! * `SLACKSIM_BENCH_TOLERANCE=R` — with a baseline, fail (exit non-zero)
//!   if any row's median throughput drops below `R×` the baseline row's,
//!   so baseline drift fails CI loudly instead of passing unnoticed (the
//!   gate applies to each results file against its own baseline);
//! * `SLACKSIM_BENCH_PROFILE=1` — run each configuration with the
//!   host-time profiler attached (DESIGN §14) and print the top
//!   per-site self-time shares under each row, to see where a slow
//!   row's wall-clock actually goes. Timing rows then include profiler
//!   overhead, so don't combine with a tolerance gate.

use std::fmt::Write as _;
use std::time::Instant;

use slacksim::scheme::Scheme;
use slacksim::{Benchmark, EngineKind, ProfData, Simulation, SpeculationConfig, UncoreKind};
use slacksim_core::obs::json::Json;

const CORES: usize = 8;

/// Core count of the directory-uncore rows: far past the snooping bus's
/// 16-core cap, where the sharded banks earn their keep.
const DIR_CORES: usize = 64;

struct RunStats {
    wall_ms_median: f64,
    wall_ms_mean: f64,
    committed: u64,
    global_cycles: u64,
    events: u64,
}

struct ResultRow {
    engine: &'static str,
    scheme_name: &'static str,
    uncore: UncoreKind,
    cores: usize,
    slack_bound: Option<u64>,
    stats: RunStats,
}

impl ResultRow {
    /// Uncore events serviced per second of host wall time (median run).
    fn events_per_sec(&self) -> f64 {
        self.stats.events as f64 / (self.stats.wall_ms_median / 1e3)
    }

    /// Committed target instructions per second of host wall time.
    fn commits_per_sec(&self) -> f64 {
        self.stats.committed as f64 / (self.stats.wall_ms_median / 1e3)
    }

    fn key(&self) -> String {
        format!("{}/{}", self.engine, self.scheme_name)
    }
}

fn profiling() -> bool {
    std::env::var("SLACKSIM_BENCH_PROFILE").is_ok_and(|v| v == "1")
}

fn run_once(
    engine: EngineKind,
    scheme: Scheme,
    uncore: UncoreKind,
    cores: usize,
    commit_target: u64,
    spec: Option<SpeculationConfig>,
) -> (std::time::Duration, u64, u64, u64, Option<ProfData>) {
    let t = Instant::now();
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.uncore(uncore)
        .cores(cores)
        .commit_target(commit_target)
        .seed(1)
        .scheme(scheme)
        .engine(engine)
        .profile(profiling());
    if let Some(spec) = spec {
        sim.speculation(spec);
    }
    let report = sim.run().expect("bench run");
    let wall = t.elapsed();
    assert!(report.committed >= commit_target);
    (
        wall,
        report.committed,
        report.global_cycles,
        // Interconnect transactions: whichever uncore is inactive
        // contributes zero, so one events metric covers both.
        report.uncore.get("bus_transactions") + report.uncore.get("dir_transactions"),
        report.prof,
    )
}

#[allow(clippy::too_many_arguments)]
fn bench(
    engine: EngineKind,
    engine_name: &'static str,
    scheme: Scheme,
    scheme_name: &'static str,
    uncore: UncoreKind,
    cores: usize,
    slack_bound: Option<u64>,
    commit_target: u64,
    iters: u32,
    spec: Option<SpeculationConfig>,
) -> ResultRow {
    let _ = run_once(engine, scheme.clone(), uncore, cores, commit_target, spec); // warm-up
    let mut times = Vec::with_capacity(iters as usize);
    let mut committed = 0;
    let mut global_cycles = 0;
    let mut events = 0;
    let mut prof = None;
    for _ in 0..iters {
        let (wall, c, g, e, p) =
            run_once(engine, scheme.clone(), uncore, cores, commit_target, spec);
        times.push(wall);
        committed = c;
        global_cycles = g;
        events = e;
        prof = p;
    }
    times.sort();
    let median = times[times.len() / 2];
    let total: std::time::Duration = times.iter().sum();
    let row = ResultRow {
        engine: engine_name,
        scheme_name,
        uncore,
        cores,
        slack_bound,
        stats: RunStats {
            wall_ms_median: median.as_secs_f64() * 1e3,
            wall_ms_mean: (total / iters).as_secs_f64() * 1e3,
            committed,
            global_cycles,
            events,
        },
    };
    println!(
        "{:<28} median {:>9.2} ms  mean {:>9.2} ms  {:>10.0} events/s  ({iters} iters)",
        row.key(),
        row.stats.wall_ms_median,
        row.stats.wall_ms_mean,
        row.events_per_sec(),
    );
    if let Some(prof) = prof {
        // Top self-time sites of the last iteration, so a slow row shows
        // where its host time went (SLACKSIM_BENCH_PROFILE=1).
        let total = prof.total_self_ns().max(1);
        let mut sites: Vec<_> = prof.sites.iter().collect();
        sites.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
        let shares: Vec<String> = sites
            .iter()
            .take(3)
            .map(|s| {
                format!(
                    "{} {:.1}%",
                    s.site.name(),
                    s.self_ns as f64 / total as f64 * 100.0
                )
            })
            .collect();
        println!(
            "{:<28} prof: {} (coverage {:.1}%)",
            "",
            shares.join(", "),
            prof.coverage() * 100.0
        );
    }
    row
}

/// Formats an `f64` for JSON: finite, plain decimal notation.
fn jnum(v: f64) -> String {
    debug_assert!(v.is_finite());
    format!("{v:.3}")
}

/// Per-row median-throughput ratio against a previous `BENCH_threaded.json`
/// document, keyed `engine/scheme`. Rows the baseline does not know are
/// skipped (new configurations have no trajectory yet).
fn speedups_vs(rows: &[ResultRow], baseline_raw: &str) -> Vec<(String, f64)> {
    let mut speedups = Vec::new();
    if let Ok(doc) = Json::parse(baseline_raw) {
        if let Some(base_rows) = doc.get("results").and_then(Json::as_array) {
            for r in rows {
                let base = base_rows.iter().find(|b| {
                    b.get("engine").and_then(Json::as_str) == Some(r.engine)
                        && b.get("scheme").and_then(Json::as_str) == Some(r.scheme_name)
                });
                if let Some(eps) = base
                    .and_then(|b| b.get("events_per_sec"))
                    .and_then(Json::as_f64)
                {
                    if eps > 0.0 {
                        speedups.push((r.key(), r.events_per_sec() / eps));
                    }
                }
            }
        }
    }
    speedups
}

fn emit_json(
    rows: &[ResultRow],
    header_cores: usize,
    commit_target: u64,
    iters: u32,
    baseline_raw: Option<&str>,
    extra_keys: &[(&str, String)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"engine_throughput\",");
    let _ = writeln!(out, "  \"workload\": \"FFT\",");
    let _ = writeln!(out, "  \"cores\": {header_cores},");
    let _ = writeln!(out, "  \"commit_target\": {commit_target},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let bound = match r.slack_bound {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    {{\"engine\": \"{}\", \"scheme\": \"{}\", \"uncore\": \"{}\", \"cores\": {}, \
             \"slack_bound\": {bound}, \"wall_ms_median\": {}, \"wall_ms_mean\": {}, \
             \"events\": {}, \"events_per_sec\": {}, \"commits_per_sec\": {}, \
             \"committed\": {}, \"global_cycles\": {}}}",
            r.engine,
            r.scheme_name,
            r.uncore,
            r.cores,
            jnum(r.stats.wall_ms_median),
            jnum(r.stats.wall_ms_mean),
            r.stats.events,
            jnum(r.events_per_sec()),
            jnum(r.commits_per_sec()),
            r.stats.committed,
            r.stats.global_cycles,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    for (k, v) in extra_keys {
        let _ = write!(out, ",\n  \"{k}\": {v}");
    }
    if let Some(raw) = baseline_raw {
        // Embed the previous run verbatim (it was validated when written)
        // and report speedups keyed by engine/scheme.
        out.push_str(",\n  \"baseline\": ");
        out.push_str(raw.trim_end());
        let speedups = speedups_vs(rows, raw);
        if !speedups.is_empty() {
            out.push_str(",\n  \"speedup_vs_baseline\": {\n");
            for (i, (k, s)) in speedups.iter().enumerate() {
                let _ = write!(out, "    \"{k}\": {}", jnum(*s));
                out.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
            }
            out.push_str("  }");
        }
    }
    out.push_str("\n}\n");
    out
}

fn main() {
    let smoke = std::env::var("SLACKSIM_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (commit_target, iters) = if smoke { (6_000, 2) } else { (40_000, 5) };
    println!(
        "engine_throughput (FFT, {CORES} cores, {commit_target} commits, {iters} iters{})",
        if smoke { ", smoke" } else { "" }
    );

    let mut rows = Vec::new();
    for (name, bound, scheme) in [
        ("cycle-by-cycle", Some(0), Scheme::CycleByCycle),
        ("bounded-16", Some(16), Scheme::BoundedSlack { bound: 16 }),
        ("unbounded", None, Scheme::UnboundedSlack),
        ("quantum-50", Some(50), Scheme::Quantum { quantum: 50 }),
    ] {
        rows.push(bench(
            EngineKind::Sequential,
            "sequential",
            scheme,
            name,
            UncoreKind::Bus,
            CORES,
            bound,
            commit_target,
            iters,
            None,
        ));
    }
    for (name, bound, scheme) in [
        ("cycle-by-cycle", Some(0), Scheme::CycleByCycle),
        ("bounded-16", Some(16), Scheme::BoundedSlack { bound: 16 }),
        ("bounded-64", Some(64), Scheme::BoundedSlack { bound: 64 }),
        ("unbounded", None, Scheme::UnboundedSlack),
    ] {
        rows.push(bench(
            EngineKind::Threaded,
            "threaded",
            scheme,
            name,
            UncoreKind::Bus,
            CORES,
            bound,
            commit_target,
            iters,
            None,
        ));
    }

    // Checkpoint-cost row (DESIGN §12): bounded-16 with a checkpoint
    // every 5k global cycles on the deterministic engine, at a 10× commit
    // target so the run crosses enough interval boundaries for the
    // capture cost to register against the plain bounded-16 row.
    rows.push(bench(
        EngineKind::Sequential,
        "sequential",
        Scheme::BoundedSlack { bound: 16 },
        "cp5k",
        UncoreKind::Bus,
        CORES,
        Some(16),
        commit_target * 10,
        iters,
        Some(SpeculationConfig::checkpoint_only(5_000)),
    ));

    // Batched engine rows (quantum-compiled BSP stepping, DESIGN §15).
    // The batched engine only accepts barrier schemes, so its rows are
    // the quantum family; they go to a separate BENCH_batched.json so the
    // batched trajectory gates independently of the threaded one.
    let mut batched_rows = Vec::new();
    for (name, bound, scheme) in [
        ("quantum-50", Some(50), Scheme::Quantum { quantum: 50 }),
        ("quantum-500", Some(500), Scheme::Quantum { quantum: 500 }),
    ] {
        batched_rows.push(bench(
            EngineKind::Batched,
            "batched",
            scheme,
            name,
            UncoreKind::Bus,
            CORES,
            bound,
            commit_target,
            iters,
            None,
        ));
    }

    // Directory-uncore rows (sharded MESI banks, DESIGN §17): 64-core
    // FFT, four times past the bus cap, one row per engine at its
    // exactness scheme. They go to BENCH_directory.json so the
    // directory-scale trajectory gates independently.
    let mut directory_rows = Vec::new();
    for (engine, engine_name, name, bound, scheme) in [
        (
            EngineKind::Sequential,
            "sequential",
            "cycle-by-cycle",
            Some(0),
            Scheme::CycleByCycle,
        ),
        (
            EngineKind::Sequential,
            "sequential",
            "bounded-16",
            Some(16),
            Scheme::BoundedSlack { bound: 16 },
        ),
        (
            EngineKind::Threaded,
            "threaded",
            "bounded-16",
            Some(16),
            Scheme::BoundedSlack { bound: 16 },
        ),
        (
            EngineKind::Batched,
            "batched",
            "quantum-50",
            Some(50),
            Scheme::Quantum { quantum: 50 },
        ),
    ] {
        directory_rows.push(bench(
            engine,
            engine_name,
            scheme,
            name,
            UncoreKind::Directory,
            DIR_CORES,
            bound,
            commit_target,
            iters,
            None,
        ));
    }

    let baseline_raw = load_baseline("SLACKSIM_BENCH_BASELINE");
    let json = emit_json(
        &rows,
        CORES,
        commit_target,
        iters,
        baseline_raw.as_deref(),
        &[],
    );
    // Fail loudly if the hand-rolled emitter ever produces malformed JSON.
    Json::parse(&json).expect("emitted BENCH_threaded.json must be well-formed");

    // The batched engine's headline number: median commit throughput of
    // the quantum-50 row over the sequential engine's quantum-50 row —
    // the speedup the quantum-compiled loop buys on identical work.
    let seq_q50 = rows
        .iter()
        .find(|r| r.engine == "sequential" && r.scheme_name == "quantum-50")
        .expect("sequential quantum-50 row");
    let bat_q50 = batched_rows
        .iter()
        .find(|r| r.scheme_name == "quantum-50")
        .expect("batched quantum-50 row");
    let extra_keys = [
        (
            "sequential_quantum_commits_per_sec",
            jnum(seq_q50.commits_per_sec()),
        ),
        (
            "speedup_vs_sequential_quantum",
            jnum(bat_q50.commits_per_sec() / seq_q50.commits_per_sec()),
        ),
    ];
    let batched_baseline_raw = load_baseline("SLACKSIM_BENCH_BASELINE_BATCHED");
    let batched_json = emit_json(
        &batched_rows,
        CORES,
        commit_target,
        iters,
        batched_baseline_raw.as_deref(),
        &extra_keys,
    );
    Json::parse(&batched_json).expect("emitted BENCH_batched.json must be well-formed");
    println!(
        "batched/quantum-50: {:.2}x sequential/quantum-50 commit throughput",
        bat_q50.commits_per_sec() / seq_q50.commits_per_sec()
    );

    // The directory trajectory's headline number: 64-core FFT commit
    // throughput on the deterministic engine.
    let dir_cc = directory_rows
        .iter()
        .find(|r| r.engine == "sequential" && r.scheme_name == "cycle-by-cycle")
        .expect("directory cycle-by-cycle row");
    let directory_extra_keys = [(
        "directory_cc_commits_per_sec",
        jnum(dir_cc.commits_per_sec()),
    )];
    let directory_baseline_raw = load_baseline("SLACKSIM_BENCH_BASELINE_DIRECTORY");
    let directory_json = emit_json(
        &directory_rows,
        DIR_CORES,
        commit_target,
        iters,
        directory_baseline_raw.as_deref(),
        &directory_extra_keys,
    );
    Json::parse(&directory_json).expect("emitted BENCH_directory.json must be well-formed");
    println!(
        "directory/cycle-by-cycle at {DIR_CORES} cores: {:.0} commits/s",
        dir_cc.commits_per_sec()
    );

    // Baseline drift gates (ci.sh bench smoke): every row a baseline
    // knows must keep at least `SLACKSIM_BENCH_TOLERANCE`× its median
    // throughput; anything slower — or a baseline sharing no rows at all —
    // fails the bench rather than letting drift pass unnoticed. Each
    // results file gates against its own baseline.
    if let Some(tol) = std::env::var("SLACKSIM_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        tolerance_gate(
            &rows,
            baseline_raw.as_deref(),
            tol,
            "SLACKSIM_BENCH_BASELINE",
        );
        tolerance_gate(
            &batched_rows,
            batched_baseline_raw.as_deref(),
            tol,
            "SLACKSIM_BENCH_BASELINE_BATCHED",
        );
        tolerance_gate(
            &directory_rows,
            directory_baseline_raw.as_deref(),
            tol,
            "SLACKSIM_BENCH_BASELINE_DIRECTORY",
        );
    }

    let out_path = std::env::var("SLACKSIM_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_threaded.json").to_string()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_threaded.json");
    println!("wrote {out_path}");

    let batched_out_path = std::env::var("SLACKSIM_BENCH_OUT_BATCHED").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batched.json").to_string()
    });
    std::fs::write(&batched_out_path, &batched_json).expect("write BENCH_batched.json");
    println!("wrote {batched_out_path}");

    let directory_out_path = std::env::var("SLACKSIM_BENCH_OUT_DIRECTORY").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_directory.json").to_string()
    });
    std::fs::write(&directory_out_path, &directory_json).expect("write BENCH_directory.json");
    println!("wrote {directory_out_path}");
}

/// Reads and validates a baseline document named by the environment
/// variable `var`. A malformed baseline would otherwise surface as a
/// confusing failure of the emitter's own self-check.
fn load_baseline(var: &str) -> Option<String> {
    std::env::var(var)
        .ok()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .filter(|raw| match Json::parse(raw) {
            Ok(_) => true,
            Err(e) => {
                eprintln!("warning: ignoring malformed {var}: {e}");
                false
            }
        })
}

/// Exits non-zero unless every row the baseline knows keeps at least
/// `tol`× its median throughput.
fn tolerance_gate(rows: &[ResultRow], baseline_raw: Option<&str>, tol: f64, var: &str) {
    let Some(raw) = baseline_raw else {
        eprintln!("error: SLACKSIM_BENCH_TOLERANCE set without a readable {var}");
        std::process::exit(1);
    };
    let speedups = speedups_vs(rows, raw);
    if speedups.is_empty() {
        eprintln!("error: {var} shares no engine/scheme rows with this run");
        std::process::exit(1);
    }
    for r in rows {
        if !speedups.iter().any(|(k, _)| *k == r.key()) {
            eprintln!("bench check: {} has no baseline row yet, skipped", r.key());
        }
    }
    let slow: Vec<&(String, f64)> = speedups.iter().filter(|(_, s)| *s < tol).collect();
    for (k, s) in &slow {
        eprintln!(
            "bench check: {k} at {s:.3}x of baseline median throughput, below tolerance {tol}x"
        );
    }
    if !slow.is_empty() {
        std::process::exit(1);
    }
    println!(
        "bench check: {} rows within {tol}x-of-baseline tolerance",
        speedups.len()
    );
}
