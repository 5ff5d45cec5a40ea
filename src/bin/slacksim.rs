//! `slacksim` — command-line front end: run one configured slack
//! simulation and print the report, run a sweep campaign, or render saved
//! artifacts. The usage text is `HELP` (`slacksim --help`), with
//! `SWEEP_HELP` and `REPORT_HELP` for the subcommands.

use std::path::Path;
use std::time::{Duration, Instant};

use slacksim::slacksim_core::obs::json::Json;
use slacksim::slacksim_core::obs::prof::SiteStat;
use slacksim::sweep::{run_sweep, JobRow, Manifest, SweepOptions, CSV_HEADER, LEGACY_CSV_HEADER};
use slacksim::{
    Benchmark, EngineError, EngineKind, LiveConfig, ObsConfig, ProfData, ProfSite, RunError,
    RunSpec, SchemeKind, UncoreKind, ViolationKind, ViolationSelect, HEARTBEAT_VERSION,
};

/// Flags that take a value in the following argument.
const VALUE_FLAGS: &[&str] = &[
    "--benchmark",
    "--scheme",
    "--bound",
    "--quantum",
    "--target",
    "--band",
    "--period",
    "--engine",
    "--uncore",
    "--cores",
    "--host-threads",
    "--commit",
    "--seed",
    "--checkpoint",
    "--rollback",
    "--trace",
    "--metrics",
    "--sample-every",
    "--save-state",
    "--resume",
    "--profile-csv",
    "--live-status",
    "--live-every",
];

/// The scheme knobs: each scheme reads only its own
/// ([`SchemeKind::knobs`]) and refuses the others.
const SCHEME_FLAGS: &[&str] = &["--bound", "--quantum", "--target", "--band", "--period"];

/// Flags that stand alone.
const BOOL_FLAGS: &[&str] = &["--verbose", "--help", "-h", "--profile", "--live-stderr"];

/// Value flags of the `sweep` subcommand.
const SWEEP_VALUE_FLAGS: &[&str] = &[
    "--spec",
    "--dir",
    "--workers",
    "--live-status",
    "--live-every",
];

/// Standalone flags of the `sweep` subcommand.
const SWEEP_BOOL_FLAGS: &[&str] = &["--help", "-h", "--live-stderr"];

struct Args {
    argv: Vec<String>,
    /// The command whose `--help` the usage-error footer cites: flag
    /// errors under `slacksim sweep` must point at the sweep usage text,
    /// not the main command's.
    help_cmd: &'static str,
}

impl Args {
    fn new(help_cmd: &'static str, argv: &[String]) -> Self {
        let argv = argv.to_vec();
        Args { argv, help_cmd }
    }

    /// Prints a usage error citing this command's help and exits 2.
    fn fail(&self, msg: &str) -> ! {
        usage_error_for(self.help_cmd, msg)
    }

    /// Rejects unknown flags, stray positional arguments, repeated flags
    /// and value flags missing their value against a command's flag
    /// vocabulary — a typo must fail loudly, not silently fall back to a
    /// default configuration or to whichever of two values
    /// [`value`](Args::value) happens to find first. A value flag followed
    /// by another flag is missing its value: `--trace --verbose` must not
    /// write a trace file named `--verbose`.
    fn validate(&self, value_flags: &[&str], bool_flags: &[&str]) {
        let is_flag = |a: &str| value_flags.contains(&a) || bool_flags.contains(&a);
        let mut seen: Vec<&str> = Vec::new();
        let mut args = self.argv.iter().map(String::as_str);
        while let Some(a) = args.next() {
            if !is_flag(a) {
                self.fail(&format!("unknown argument '{a}'"));
            }
            if seen.contains(&a) {
                self.fail(&format!("flag '{a}' given more than once"));
            }
            seen.push(a);
            if value_flags.contains(&a) && args.next().is_none_or(is_flag) {
                self.fail(&format!("flag '{a}' expects a value"));
            }
        }
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    /// The value of `flag` parsed as a `T`, `None` when the flag is absent;
    /// a malformed value is a usage error.
    fn parsed_opt<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("invalid value '{v}' for {flag}")))
        })
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.parsed_opt(flag).unwrap_or(default)
    }

    /// The value of a name flag through `parse`, `None` when the flag is
    /// absent; an unknown name is a usage error listing `tokens`.
    fn named<T>(
        &self,
        flag: &str,
        noun: &str,
        tokens: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        self.value(flag).map(|name| {
            parse(name).unwrap_or_else(|| {
                self.fail(&format!("unknown {noun} '{name}' (expected {tokens})"))
            })
        })
    }

    /// Like [`parsed`](Args::parsed) for the host-side counts where zero
    /// is degenerate: thread and worker counts, and the sampling and
    /// heartbeat periods (a zero period divides by zero downstream). The
    /// run's own values are [`RunSpec::check`]'s.
    fn parsed_nonzero(&self, flag: &str, default: u64) -> u64 {
        let v: u64 = self.parsed(flag, default);
        if v == 0 {
            self.fail(&format!("{flag} must be at least 1 (got 0)"));
        }
        v
    }

    fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }
}

/// Prints a usage error citing `help_cmd`'s help text and exits 2.
fn usage_error_for(help_cmd: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `{help_cmd} --help` for usage");
    std::process::exit(2);
}

/// Parses the run flags into a checked [`RunSpec`]. An unknown name, a
/// malformed number, a scheme knob the scheme does not read and every
/// fault [`RunSpec::check`] finds are usage errors.
fn run_spec(args: &Args) -> RunSpec {
    let d = RunSpec::default();
    let benchmark = args.named(
        "--benchmark",
        "benchmark",
        Benchmark::TOKENS,
        Benchmark::parse,
    );
    let scheme = args
        .named("--scheme", "scheme", SchemeKind::TOKENS, SchemeKind::parse)
        .unwrap_or(d.scheme);
    let unread =
        |a: &&String| SCHEME_FLAGS.contains(&a.as_str()) && !scheme.knobs().contains(&&a[2..]);
    if let Some(flag) = args.argv.iter().find(unread) {
        args.fail(&format!("--scheme {} does not read {flag}", scheme.name()));
    }
    let run = RunSpec {
        benchmark: benchmark.unwrap_or(d.benchmark),
        scheme,
        bound: args.parsed("--bound", d.bound),
        quantum: args.parsed("--quantum", d.quantum),
        target_pct: args.parsed("--target", d.target_pct),
        band_pct: args.parsed("--band", d.band_pct),
        period: args.parsed("--period", d.period),
        engine: args
            .named("--engine", "engine", EngineKind::TOKENS, EngineKind::parse)
            .unwrap_or(d.engine),
        uncore: args
            .named("--uncore", "uncore", UncoreKind::TOKENS, UncoreKind::parse)
            .unwrap_or(d.uncore),
        cores: args.parsed("--cores", d.cores),
        commit: args.parsed("--commit", d.commit),
        seed: args.parsed("--seed", d.seed),
        max_cycles: d.max_cycles,
        rollback: args.named("--rollback", "rollback selection", "all|map|none", rollback),
        checkpoint: args.parsed_opt("--checkpoint"),
    };
    // A RunError's message starts with the name of the value, which is
    // also its flag's.
    if let Err(e) = run.check() {
        let hint = match e {
            RunError::RollbackWithoutCheckpoint => {
                args.fail("--rollback requires --checkpoint INTERVAL")
            }
            RunError::Cores(cores, UncoreKind::Bus) if cores > 16 => {
                "; use --uncore directory for up to 1024 cores"
            }
            _ => "",
        };
        args.fail(&format!("--{e}{hint}"));
    }
    run
}

/// The `--rollback` vocabulary.
fn rollback(name: &str) -> Option<ViolationSelect> {
    match name {
        "all" => Some(ViolationSelect::all()),
        "map" => Some(ViolationSelect::only(&[ViolationKind::Map])),
        "none" => Some(ViolationSelect::none()),
        _ => None,
    }
}

/// The live-telemetry flags a run and a sweep share: heartbeat sinks and
/// their cadence, `None` without a sink.
fn live_config(args: &Args) -> Option<LiveConfig> {
    let every = args.parsed_nonzero("--live-every", 250);
    let mut live = LiveConfig::new().every(Duration::from_millis(every));
    if args.has("--live-stderr") {
        live = live.to_stderr();
    }
    if let Some(path) = args.value("--live-status") {
        live = live.to_file(path);
    }
    if !live.has_sink() && args.has("--live-every") {
        args.fail("--live-every requires --live-stderr or --live-status FILE");
    }
    live.has_sink().then_some(live)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The `report` subcommand takes positional paths, which the flag
    // validator rejects — intercept it before validation. `sweep` brings
    // its own flag vocabulary, so it is intercepted the same way.
    if raw.first().map(String::as_str) == Some("report") {
        report_main(&raw[1..]);
        return;
    }
    if raw.first().map(String::as_str) == Some("sweep") {
        sweep_main(&raw[1..]);
        return;
    }
    let args = Args::new("slacksim", &raw);
    if args.has("--help") || args.has("-h") {
        println!("{}", HELP);
        return;
    }
    args.validate(VALUE_FLAGS, BOOL_FLAGS);

    let run = run_spec(&args);
    let mut sim = run.simulation();
    // The host threads the window loop folds the cores onto. Absent, the
    // engine sizes itself from the host's available parallelism.
    if args.has("--host-threads") {
        if run.engine == EngineKind::Sequential {
            args.fail(
                "--host-threads requires --engine threaded or batched (the sequential \
                 engine steps every core on one thread)",
            );
        }
        sim.host_threads(args.parsed_nonzero("--host-threads", 1) as usize);
    }
    if let Some(dir) = args.value("--save-state") {
        if run.checkpoint.is_none() {
            args.fail("--save-state requires --checkpoint INTERVAL");
        }
        sim.save_state(dir);
    }
    if let Some(path) = args.value("--resume") {
        sim.resume(path);
    }
    let trace_path = args.value("--trace");
    let metrics_path = args.value("--metrics");
    if trace_path.is_some() || metrics_path.is_some() || args.has("--sample-every") {
        let every = args.parsed_nonzero("--sample-every", 1024);
        sim.observability(ObsConfig::default().with_sample_every(every));
    }
    let profile_csv_path = args.value("--profile-csv");
    sim.profile(args.has("--profile") || profile_csv_path.is_some());
    if let Some(live) = live_config(&args) {
        sim.live(live);
    }

    let scheme = run.build_scheme();
    eprintln!("running {} under {} ...", run.benchmark, scheme.name());
    match sim.run() {
        Ok(mut report) => {
            println!("{report}");
            // Artifact writes happen outside the engine, so the engine's
            // profiler cannot see them; time them here and bill them to the
            // export site before the profile is rendered.
            let mut export_writes = 0u64;
            let mut export_ns = 0u64;
            if let Some(obs) = &report.obs {
                if let Some(path) = trace_path {
                    let t0 = Instant::now();
                    let body = slacksim::slacksim_core::obs::export::chrome_trace_json_with_prof(
                        obs,
                        report.prof.as_ref(),
                    );
                    write_artifact(path, body, "trace");
                    export_writes += 1;
                    export_ns += t0.elapsed().as_nanos() as u64;
                    eprintln!("trace written to {path} (open in https://ui.perfetto.dev)");
                }
                if let Some(path) = metrics_path {
                    let t0 = Instant::now();
                    write_artifact(path, obs.metrics_csv(), "metrics");
                    export_writes += 1;
                    export_ns += t0.elapsed().as_nanos() as u64;
                    eprintln!("metrics written to {path}");
                }
            }
            if let Some(prof) = &mut report.prof {
                if export_writes > 0 {
                    prof.record(ProfSite::Export, export_writes, export_ns);
                }
            }
            if let Some(prof) = &report.prof {
                println!("\nhost-time profile:\n{}", prof.table().trim_end());
                if let Some(path) = profile_csv_path {
                    write_artifact(path, prof.csv(), "profile");
                    eprintln!("profile written to {path}");
                }
            }
            if args.has("--verbose") {
                if let Some(obs) = &report.obs {
                    println!("\n{}", obs.summary().trim_end());
                }
                println!("\nuncore counters:\n{}", report.uncore);
                println!("\nkernel counters:\n{}", report.kernel);
                for (i, core) in report.per_core.iter().enumerate() {
                    println!("\ncore {i}:\n{core}");
                }
            }
        }
        Err(e @ (EngineError::Resume(_) | EngineError::Persist(_) | EngineError::Config(_))) => {
            // Bad snapshot, mismatched configuration or unusable save
            // directory: a usage-class failure, same exit code as flag
            // validation so scripts can tell it from a simulation fault.
            args.fail(&e.to_string());
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes one run artifact, or exits 1 naming it.
fn write_artifact(path: &str, body: String, what: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("failed to write {what} {path}: {e}");
        std::process::exit(1);
    }
}

/// Entry point for `slacksim sweep`: runs (or resumes) a design-space
/// campaign described by a sweep-spec file.
///
/// Usage-class failures — unknown flags, a missing `--dir`, an
/// unreadable or invalid spec, a spec/manifest mismatch — exit 2 with
/// the accepted values enumerated, like the main command's flag
/// validation. Individual job failures do not abort the fleet: every
/// other grid point still settles, the failures are listed, and the
/// process exits 1.
fn sweep_main(raw: &[String]) {
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", SWEEP_HELP);
        return;
    }
    let args = Args::new("slacksim sweep", raw);
    args.validate(SWEEP_VALUE_FLAGS, SWEEP_BOOL_FLAGS);

    let Some(dir) = args.value("--dir") else {
        args.fail("sweep requires --dir DIR (the campaign directory)");
    };
    let spec_src = args.value("--spec").map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| args.fail(&format!("cannot read sweep spec {path}: {e}")))
    });

    let opts = SweepOptions {
        workers: args
            .has("--workers")
            .then(|| args.parsed_nonzero("--workers", 1) as usize),
        live: live_config(&args),
    };

    match run_sweep(spec_src.as_deref(), Path::new(dir), &opts) {
        Ok(outcome) => {
            let settled = outcome.rows.len();
            println!(
                "campaign: {settled} jobs settled ({} skipped, {} resumed, {} failed) on {} workers",
                outcome.skipped,
                outcome.resumed,
                outcome.failed.len(),
                outcome.pool.per_worker_jobs.len(),
            );
            let counts = outcome.pool.counts();
            if counts.iter().any(|&c| c > 0) {
                println!(
                    "  jobs/worker: {}",
                    counts
                        .iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
            if outcome.failed.is_empty() {
                println!(
                    "  aggregate: {}",
                    Path::new(dir).join("aggregate.csv").display()
                );
            } else {
                for (token, e) in &outcome.failed {
                    eprintln!("job {token} failed: {e}");
                }
                eprintln!(
                    "{} of {} jobs failed; rerun `slacksim sweep --dir {dir}` to retry them",
                    outcome.failed.len(),
                    settled + outcome.failed.len(),
                );
                std::process::exit(1);
            }
        }
        Err(e) => args.fail(&e.to_string()),
    }
}

/// Entry point for `slacksim report PATH...`: renders saved run
/// artifacts into human-readable summaries.
///
/// Artifact types are detected by content, not extension: live-status
/// heartbeat JSONL, profile CSV, metrics CSV and Chrome Trace JSON.
/// Unreadable, empty, truncated or unrecognized artifacts are a
/// usage-class failure: the diagnostic names the file and the parse
/// position, and the process exits 2 like the flag validators, so
/// scripts can tell a bad artifact path from a rendering fault.
fn report_main(paths: &[String]) {
    if paths.iter().any(|p| p == "--help" || p == "-h") {
        println!("{}", REPORT_HELP);
        return;
    }
    if paths.is_empty() {
        usage_error_for("slacksim report", "report expects at least one PATH");
    }
    let mut failed = false;
    for (i, path) in paths.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                failed = true;
            }
            Ok(body) if body.is_empty() => {
                eprintln!("error: {path}: empty artifact (0 bytes)");
                failed = true;
            }
            Ok(body) => match render_artifact(path, &body) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    failed = true;
                }
            },
        }
    }
    if failed {
        std::process::exit(2);
    }
}

/// Dispatches one artifact body to the renderer matching its content.
fn render_artifact(path: &str, body: &str) -> Result<String, String> {
    let trimmed = body.trim_start();
    if trimmed.starts_with("site,count,total_ns") {
        return render_profile_csv(path, body);
    }
    if trimmed.starts_with("metric,cycle,value") {
        return render_metrics_csv(path, body);
    }
    if trimmed.starts_with(CSV_HEADER) || trimmed.starts_with(LEGACY_CSV_HEADER) {
        return render_campaign_csv(path, body);
    }
    if trimmed.starts_with('{') {
        // JSON artifacts are told apart by their discriminating fields,
        // not by extension: a Chrome trace is one document with
        // "traceEvents"; a campaign manifest has "canonical"; heartbeat
        // logs and campaign aggregates are one object per line, with
        // campaign beats flagged "campaign":true and aggregate rows
        // keyed "job". Classify on the first object, then render the
        // whole body with the matching line-oriented renderer.
        if let Ok(doc) = Json::parse(body.trim()) {
            if doc.get("traceEvents").is_some() {
                return render_chrome_trace(path, &doc);
            }
            if doc.get("canonical").is_some() {
                return render_manifest(path, body);
            }
        }
        let first_line = trimmed.lines().next().unwrap_or_default().trim();
        match Json::parse(first_line) {
            Ok(first) => {
                if first.get("campaign").and_then(Json::as_bool) == Some(true) {
                    return render_campaign_heartbeats(path, body);
                }
                if first.get("job").is_some() {
                    return render_campaign_jsonl(path, body);
                }
                if first.get("v").is_some() {
                    return render_heartbeats(path, body);
                }
            }
            Err(e) => {
                // Looked like JSON but the first object does not parse —
                // typically a truncated write. Name the position so the
                // bad artifact is diagnosable, not just "unrecognized".
                return Err(format!(
                    "truncated or invalid JSON at line 1 ({} bytes in file): {e}",
                    body.len()
                ));
            }
        }
    }
    Err(format!(
        "unrecognized artifact ({} bytes; detection looks at line 1): expected \
         heartbeat JSONL, profile CSV, metrics CSV, Chrome Trace JSON, campaign \
         manifest, campaign aggregate JSONL/CSV or campaign heartbeat JSONL",
        body.len()
    ))
}

/// Summarizes a campaign manifest.
fn render_manifest(path: &str, body: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let manifest = Manifest::parse(body.trim())?;
    let mut out = String::new();
    let _ = writeln!(out, "{path}: campaign manifest");
    let _ = writeln!(out, "  grid size  : {} jobs", manifest.total);
    let _ = writeln!(out, "  fingerprint: {}", manifest.canonical);
    Ok(out)
}

/// Parses a heartbeat log: one beat of this build's version per non-empty
/// line, each a campaign beat when `campaign` is set.
fn parse_beats(body: &str, campaign: bool) -> Result<Vec<Json>, String> {
    let kind = if campaign {
        "campaign heartbeat"
    } else {
        "heartbeat"
    };
    let mut beats = Vec::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let beat =
            Json::parse(line).map_err(|e| format!("line {}: invalid {kind} JSON: {e}", ln + 1))?;
        let v = beat
            .get("v")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing heartbeat version field 'v'", ln + 1))?;
        if v as u64 != HEARTBEAT_VERSION {
            return Err(format!(
                "line {}: unsupported heartbeat version {v} (expected {HEARTBEAT_VERSION})",
                ln + 1
            ));
        }
        if campaign && beat.get("campaign").and_then(Json::as_bool) != Some(true) {
            return Err(format!("line {}: not a campaign heartbeat", ln + 1));
        }
        beats.push(beat);
    }
    Ok(beats)
}

/// Summarizes a campaign heartbeat log: beat count plus the final
/// beat's fleet state.
fn render_campaign_heartbeats(path: &str, body: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let beats = parse_beats(body, true)?;
    let last = beats.last().ok_or("no campaign heartbeat lines")?;
    let num = |k: &str| last.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(out, "{path}: campaign heartbeats (v{HEARTBEAT_VERSION})");
    let _ = writeln!(out, "  beats      : {}", beats.len());
    let _ = writeln!(out, "  elapsed    : {:.2} s", num("elapsed_ms") / 1e3);
    let _ = writeln!(
        out,
        "  progress   : {:.1}% ({} of {} jobs settled)",
        num("progress") * 100.0,
        (num("done") + num("failed") + num("skipped")) as u64,
        num("total") as u64,
    );
    let _ = writeln!(
        out,
        "  jobs       : {} done, {} skipped, {} resumed, {} failed",
        num("done") as u64,
        num("skipped") as u64,
        num("resumed") as u64,
        num("failed") as u64,
    );
    let _ = writeln!(
        out,
        "  concurrency: {} running now, {} peak",
        num("running") as u64,
        num("max_running") as u64,
    );
    let _ = writeln!(out, "  speed      : {:.2} jobs/s", num("jobs_per_sec"));
    Ok(out)
}

/// Summarizes a streamed campaign aggregate (`aggregate.jsonl`): one
/// validated [`JobRow`] per line.
fn render_campaign_jsonl(path: &str, body: &str) -> Result<String, String> {
    let mut rows = Vec::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        rows.push(JobRow::parse_json(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    render_campaign_rows(path, "streamed campaign aggregate", rows)
}

/// Summarizes a final campaign aggregate (`aggregate.csv`). Aggregates
/// written before the uncore column existed are read too, with every
/// row's uncore defaulting to `bus`.
fn render_campaign_csv(path: &str, body: &str) -> Result<String, String> {
    let legacy = !body.trim_start().starts_with(CSV_HEADER);
    let want = if legacy { 11 } else { 12 };
    let mut rows = Vec::new();
    for (ln, line) in body.lines().enumerate().skip(1) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != want {
            return Err(format!("line {}: expected {want} CSV columns", ln + 1));
        }
        let num = |i: usize| {
            cols[i]
                .parse::<u64>()
                .map_err(|_| format!("line {}: invalid number '{}'", ln + 1, cols[i]))
        };
        // The uncore column sits between scheme and bound; legacy rows
        // lack it, shifting every numeric column left by one.
        let (uncore, off) = if legacy {
            ("bus".to_string(), 0)
        } else {
            (cols[4].to_string(), 1)
        };
        rows.push(JobRow {
            token: cols[0].to_string(),
            index: num(1)?,
            workload: cols[2].to_string(),
            scheme: cols[3].to_string(),
            uncore,
            bound: num(4 + off)?,
            quantum: num(5 + off)?,
            cores: num(6 + off)?,
            seed: num(7 + off)?,
            cycles: num(8 + off)?,
            committed: num(9 + off)?,
            violations: num(10 + off)?,
        });
    }
    render_campaign_rows(path, "campaign aggregate", rows)
}

/// Shared summary body for both aggregate renderings; no rows is an error.
fn render_campaign_rows(path: &str, kind: &str, rows: Vec<JobRow>) -> Result<String, String> {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    if rows.is_empty() {
        return Err("no campaign aggregate rows".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(out, "{path}: {kind}");
    let _ = writeln!(out, "  jobs: {}", rows.len());
    // Group by scheme: the axis campaigns most often sweep, and the
    // paper's own presentation (execution time per scheme).
    let mut by_scheme: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for row in &rows {
        let entry = by_scheme.entry(&row.scheme).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += row.cycles;
        entry.2 += row.violations;
    }
    for (scheme, (n, cycles, violations)) in &by_scheme {
        let _ = writeln!(
            out,
            "  {scheme:<10} {n:>4} jobs, mean {} cycles, {violations} violations",
            cycles / n.max(&1),
        );
    }
    Ok(out)
}

/// Summarizes a `--live-status` heartbeat log: beat count plus the final
/// beat's progress, speed, slack bound, violation and queue state.
fn render_heartbeats(path: &str, body: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let beats = parse_beats(body, false)?;
    let last = beats.last().ok_or("no heartbeat lines")?;
    let num = |k: &str| last.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(out, "{path}: live-status heartbeats (v{HEARTBEAT_VERSION})");
    let _ = writeln!(out, "  beats      : {}", beats.len());
    let _ = writeln!(out, "  elapsed    : {:.2} s", num("elapsed_ms") / 1e3);
    let _ = writeln!(
        out,
        "  progress   : {:.1}% ({} / {} commits, global cycle {})",
        num("progress") * 100.0,
        num("committed") as u64,
        num("commit_target") as u64,
        num("global_cycle") as u64,
    );
    let _ = writeln!(
        out,
        "  speed      : {:.0} commits/s",
        num("commits_per_sec")
    );
    match last.get("bound").and_then(Json::as_f64) {
        Some(b) => {
            let _ = writeln!(out, "  slack bound: {}", b as u64);
        }
        None => {
            let _ = writeln!(out, "  slack bound: unbounded");
        }
    }
    let _ = writeln!(
        out,
        "  violations : {} ({:.4}% of cycles)",
        num("violations") as u64,
        num("violation_rate") * 100.0,
    );
    if let Some(q) = last.get("queues") {
        let qn = |k: &str| q.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let _ = writeln!(
            out,
            "  queues     : outq {} inq {} globalq {}",
            qn("outq"),
            qn("inq"),
            qn("globalq"),
        );
    }
    let _ = writeln!(
        out,
        "  checkpoints: {} taken, {} rollbacks, {} traces dropped",
        num("checkpoints") as u64,
        num("rollbacks") as u64,
        num("dropped_traces") as u64,
    );
    if let Some(sites) = last.get("sites").and_then(Json::as_object) {
        let mut shares: Vec<(&str, f64)> = sites
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|s| (k.as_str(), s)))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, share) in shares.iter().take(5) {
            let _ = writeln!(out, "  host time  : {:<18} {:.1}%", name, share * 100.0);
        }
    }
    Ok(out)
}

/// Re-renders a `--profile-csv` artifact as the aligned profile table.
fn render_profile_csv(path: &str, body: &str) -> Result<String, String> {
    let mut prof = ProfData::default();
    for (ln, line) in body.lines().enumerate().skip(1) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 5 {
            return Err(format!("line {}: expected 5 CSV columns", ln + 1));
        }
        let parse = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("line {}: invalid number '{s}'", ln + 1))
        };
        match cols[0] {
            "wall_ns" => prof.wall_ns = parse(cols[2])?,
            "threads" => prof.threads = parse(cols[2])?,
            name => {
                let site = ProfSite::parse(name)
                    .ok_or_else(|| format!("line {}: unknown profile site '{name}'", ln + 1))?;
                prof.sites.push(SiteStat {
                    site,
                    count: parse(cols[1])?,
                    total_ns: parse(cols[2])?,
                    self_ns: parse(cols[3])?,
                });
            }
        }
    }
    if prof.sites.is_empty() {
        return Err("no profile rows".to_string());
    }
    Ok(format!("{path}: host-time profile\n{}", prof.table()))
}

/// Summarizes a `--metrics` CSV: row/series counts and each series'
/// final value.
fn render_metrics_csv(path: &str, body: &str) -> Result<String, String> {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut series: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut rows = 0u64;
    for (ln, line) in body.lines().enumerate().skip(1) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 3 {
            return Err(format!("line {}: expected 3 CSV columns", ln + 1));
        }
        let value: f64 = cols[2]
            .parse()
            .map_err(|_| format!("line {}: invalid value '{}'", ln + 1, cols[2]))?;
        let entry = series.entry(cols[0].to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 = value;
        rows += 1;
    }
    if rows == 0 {
        return Err("no metric rows".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(out, "{path}: metrics CSV");
    let _ = writeln!(out, "  {} rows across {} series", rows, series.len());
    for (name, (n, last)) in &series {
        let _ = writeln!(out, "  {name:<32} {n:>6} rows, last {last}");
    }
    Ok(out)
}

/// Summarizes a Chrome Trace JSON artifact: event counts by phase and
/// the counter tracks it carries.
fn render_chrome_trace(path: &str, doc: &Json) -> Result<String, String> {
    use std::collections::BTreeSet;
    use std::fmt::Write as _;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("traceEvents is not an array")?;
    let mut spans = 0u64;
    let mut instants = 0u64;
    let mut counter_points = 0u64;
    let mut counter_names = BTreeSet::new();
    for event in events {
        match event.get("ph").and_then(Json::as_str) {
            Some("X") => spans += 1,
            Some("i") | Some("I") => instants += 1,
            Some("C") => {
                counter_points += 1;
                if let Some(name) = event.get("name").and_then(Json::as_str) {
                    counter_names.insert(name.to_string());
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{path}: Chrome Trace JSON");
    let _ = writeln!(
        out,
        "  {} events: {spans} spans, {instants} instants, {counter_points} counter points",
        events.len(),
    );
    for name in &counter_names {
        let _ = writeln!(out, "  counter track: {name}");
    }
    let _ = writeln!(out, "  open in chrome://tracing or https://ui.perfetto.dev");
    Ok(out)
}

/// Usage text for `slacksim sweep`.
const SWEEP_HELP: &str = "\
slacksim sweep — run a design-space-exploration campaign

USAGE:
  slacksim sweep --spec FILE --dir DIR [--workers N]
                 [--live-stderr] [--live-status FILE] [--live-every MS]
  slacksim sweep --dir DIR            # resume from DIR's campaign manifest

A sweep spec is one JSON document describing a {scheme x bound x quantum
x uncore x cores x workload x seed} grid plus shared per-job settings:

  {
    \"v\": 1,
    \"commit\": 20000,            per-job committed-instruction target
    \"engine\": \"seq\",            seq|threaded|batched (default seq)
    \"checkpoint\": 2000,         durable checkpoint interval (optional)
    \"max_cycles\": 100000000,    per-job simulated-cycle cap (optional)
    \"workers\": 3,               default pool width (optional)
    \"axes\": {
      \"scheme\":   [\"cc\", \"bounded\"],      cc|bounded|unbounded|quantum|adaptive|p2p
      \"bound\":    [8, 16],                 default [8]
      \"quantum\":  [50],                    default [50]
      \"uncore\":   [\"bus\"],                 bus|directory, default [\"bus\"]
      \"cores\":    [2],                     1..=16 (bus) / 1..=1024 (directory),
                                           default [8]
      \"workload\": [\"fft\", \"water\"],        barnes|fft|lu|water
      \"seed\":     [1, 2]                   default [1]
    }
  }

The grid is the full cartesian product of the seven axes. Every cores
value must fit the most restrictive uncore on the axis (the product
pairs each with each). Jobs run on a pool of workers (--workers, else
the spec's, else host parallelism); each worker takes the next unclaimed
job from one shared counter. Each job writes durable checkpoints (when
\"checkpoint\" is set) and an atomic report.json under DIR/jobs/<job>/.
Kill the campaign at any point and rerun `slacksim sweep --dir DIR`:
settled jobs are skipped, in-flight jobs resume from their newest
checkpoint, and the final aggregate is byte-identical to an
uninterrupted campaign's.

Artifacts in DIR: manifest.json (grid identity), aggregate.jsonl
(streamed, one row per settled job — `tail -f`-able), aggregate.csv
(final, grid order). Campaign heartbeats (--live-stderr /
--live-status) are single-line JSON flagged \"campaign\":true. All are
readable back through `slacksim report`.

Exit status: 0 campaign complete, 1 one or more jobs failed, 2 usage
or spec error.";

/// Usage text for `slacksim report`.
const REPORT_HELP: &str = "\
slacksim report — render saved run artifacts as human-readable summaries

USAGE:
  slacksim report PATH...

Each PATH is detected by content, not extension:
  live-status heartbeat JSONL   (--live-status FILE)
  host-time profile CSV         (--profile-csv OUT.csv)
  metrics CSV                   (--metrics OUT.csv)
  Chrome Trace JSON             (--trace OUT.json)
  campaign manifest             (sweep DIR/manifest.json)
  campaign aggregate JSONL/CSV  (sweep DIR/aggregate.jsonl, .csv)
  campaign heartbeat JSONL      (sweep --live-status FILE)

Exit status: 0 all artifacts rendered, 2 usage error or any artifact
unreadable, empty, truncated or unrecognized (the diagnostic names the
file and the parse position).";

const HELP: &str = "\
slacksim — run one slack simulation of the paper's 8-core CMP

USAGE:
  slacksim [--benchmark barnes|fft|lu|water] [--scheme cc|bounded|unbounded|quantum|adaptive|p2p]
           [--bound N] [--quantum N] [--target PCT] [--band PCT] [--period N]
           [--engine seq|threaded|batched] [--uncore bus|directory]
           [--cores N] [--host-threads N] [--commit N] [--seed N]
           [--checkpoint INTERVAL] [--rollback all|map|none]
           [--save-state DIR] [--resume FILE]
           [--verbose]
           [--trace OUT.json] [--metrics OUT.csv] [--sample-every CYCLES]
           [--profile] [--profile-csv OUT.csv]
           [--live-stderr] [--live-status FILE] [--live-every MS]
  slacksim sweep --spec FILE --dir DIR [--workers N]
           [--live-stderr] [--live-status FILE] [--live-every MS]
  slacksim sweep --dir DIR
  slacksim report PATH...

SCHEMES:
  --scheme S            each scheme reads only its own knobs and refuses the
                        others: bounded --bound (8), quantum --quantum (50),
                        adaptive --target --band (0.2, 5), p2p --bound
                        --period (8, 500; paired by --seed); cc and
                        unbounded none

ENGINES:
  --engine seq          deterministic single-threaded engine with a seeded
                        burst scheduler (default; accuracy experiments)
  --engine threaded     the target cores on one host thread per host CPU
                        (one per core where there are enough) — the
                        paper's CMP-on-CMP execution (wall-clock runs);
                        the same window loop as batched
  --engine batched      window loop: every core runs a whole window per
                        step and cross-core events are serviced only at
                        its end — a quantum in timestamp order (cc runs as
                        quantum 1, bit-identical to seq but much faster),
                        or, under bounded, unbounded, adaptive and p2p, a
                        round of seeded bursts serviced in a seeded core
                        order (deterministic, but not seq's schedule)
  --host-threads N      threaded and batched engines: step the cores on N
                        host threads (contiguous lanes of cores, one per
                        thread; the calling thread steps the first lane),
                        and service a window's events on the threads that
                        stepped it, one group of directory homes each
                        (the calling thread merges them back in order);
                        a host knob —
                        the report is identical for every N, under every
                        scheme (default: the host's available
                        parallelism, capped at the core count; 1 = no
                        threads at all)

UNCORE:
  --uncore bus          the paper's split request/response snooping bus:
                        one shared resource, one monitoring variable,
                        at most 16 cores (default)
  --uncore directory    sharded directory-MESI: address-interleaved
                        directory banks, one timestamp monitor per bank,
                        up to 1024 cores
  --cores N             number of target cores (default 8); 1..=16 on the
                        bus, 1..=1024 on the directory

SPECULATION:
  --checkpoint N        take a checkpoint every N global cycles (the models
                        are cloned once as a base; each checkpoint captures
                        only state dirtied since the previous one, and a
                        rollback copies back only what diverged)
  --rollback SEL        violation kinds that trigger a rollback
                        (all|map|none; default none = checkpoint-only)

DURABLE STATE:
  --save-state DIR      persist every committed checkpoint to DIR as a
                        versioned, checksummed snapshot file (cp-NNNNNNNN,
                        written atomically, older files pruned); requires
                        --checkpoint. Written behind the simulation:
                        checkpoint N is durable before checkpoint N+1
                        commits and before the run ends
  --resume FILE         restore a snapshot written by --save-state and
                        continue the run from it; the snapshot's config
                        fingerprint (benchmark/scheme/uncore/cores/seed/
                        checkpoint interval) must match the flags given here,
                        otherwise slacksim refuses with exit code 2

OBSERVABILITY:
  --trace OUT.json      record a per-core timeline and write it as Chrome
                        Trace Event Format JSON (open in chrome://tracing or
                        https://ui.perfetto.dev): run/wait/replay spans per
                        core, violation instants, slack-bound and queue-depth
                        counter tracks
  --metrics OUT.csv     dump sampled gauge time series and histogram
                        summaries as long-format CSV (metric,cycle,value)
  --sample-every N      metrics sampling cadence in global cycles
                        (default 1024); also enables observability on its own
  --verbose             additionally prints the observability summary when
                        tracing/metrics are enabled

PROFILING:
  --profile             self-profile the host: record scoped spans at every
                        engine site (core ticks, manager drains, each tier of
                        the yield/park wait ladder, checkpoint capture/
                        apply/restore, persist I/O, export) and print a
                        per-site host-time table after the run; never
                        perturbs simulation results
  --profile-csv OUT     additionally write the profile as CSV
                        (site,count,total_ns,self_ns,self_share); implies
                        --profile

LIVE TELEMETRY:
  --live-stderr         emit single-line JSON heartbeats to stderr while the
                        run is in flight: progress, commits/s, ETA, current
                        slack bound, violation rate, queue depths, dropped
                        traces and per-site host-time shares
  --live-status FILE    write the latest heartbeat to FILE via atomic
                        replace, so `tail -f`/`jq` always sees one complete
                        JSON object
  --live-every MS       heartbeat cadence in host milliseconds (default 250);
                        requires --live-stderr or --live-status

CAMPAIGNS:
  slacksim sweep --spec FILE --dir DIR
                        expand FILE's {scheme x bound x quantum x uncore x
                        cores x workload x seed} grid and run every job on a
                        pool of host workers, with durable per-job
                        checkpoints and streamed aggregation into DIR;
                        rerun with --dir alone to resume after a crash
                        (see `slacksim sweep --help`)

REPORT:
  slacksim report PATH...
                        render saved artifacts (heartbeat log, profile CSV,
                        metrics CSV, Chrome trace, campaign manifest/
                        aggregate/heartbeats) as human-readable summaries;
                        type is detected by content

EXAMPLES:
  slacksim --benchmark barnes --scheme unbounded --engine threaded
  slacksim --scheme cc --engine threaded --cores 8 --host-threads 2
  slacksim --uncore directory --cores 64 --benchmark fft --scheme bounded --bound 8
  slacksim --benchmark fft --scheme quantum --quantum 50 --engine batched
  slacksim --uncore directory --cores 64 --scheme quantum --engine batched --host-threads 2
  slacksim --scheme adaptive --target 0.2 --band 5
  slacksim --scheme bounded --bound 16 --checkpoint 5000 --rollback all --verbose
  slacksim --benchmark fft --scheme adaptive --engine threaded --checkpoint 2000 \\
           --trace /tmp/t.json --metrics /tmp/m.csv
  slacksim --cores 2 --checkpoint 1000 --save-state /tmp/cps
  slacksim --cores 2 --checkpoint 1000 --resume /tmp/cps/cp-00000004
  slacksim --engine threaded --profile --live-status /tmp/live.json --live-every 100
  slacksim sweep --spec sweep.json --dir /tmp/campaign --workers 3 --live-stderr
  slacksim report /tmp/live.json /tmp/prof.csv /tmp/campaign/aggregate.csv";
