//! Measuring one workload: set-up time, timed samples, peak heap, the
//! traced pass, and the correctness checks every run goes through.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use slacksim::{EngineError, ProfData, SimReport, Simulation, UncoreKind, ViolationKind};

use crate::alloc;
use crate::fingerprint::{self, Fingerprint};
use crate::stats::{median, Summary};
use crate::trace::{self, Layer, TraceResult};
use crate::workloads::Workload;

/// Largest simulated-time error the slack-mode threaded run may show
/// against the cycle-by-cycle reference (measured: 0.22 %).
const MAX_THREADED_SIM_ERROR_PCT: f64 = 2.0;

/// Timed samples a measurement needs at least, however short `--seconds`.
const MIN_SAMPLES: usize = 5;

/// `setup_s` is the median over batches of the median set-up time within a
/// batch of this many repetitions: single repetitions of ~100 us scatter by
/// 20 %, batch medians by a few per cent.
const SETUP_BATCH: usize = 31;
/// At least this many batches, then more until [`SETUP_SECONDS`] have passed.
const SETUP_MIN_BATCHES: usize = 5;
const SETUP_SECONDS: f64 = 0.5;

/// Untimed runs without `save_state` behind `core.persist.share`.
const NO_SAVE_RUNS: usize = 3;

/// What the command line fixes for every workload of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed; reaches the program only as `Simulation::seed`.
    pub seed: u64,
    /// How long the timed samples of one workload go on for.
    pub seconds: f64,
    /// Commit targets are divided by this (1 = full size; tests use 50).
    pub scale: u64,
    /// Where results, the trace and the saved checkpoints go.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed on one workload.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulation runs started.
    pub attempted: u64,
    /// Runs that returned an error, missed their commit target or failed a
    /// correctness check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, workload: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        self.failures.push(format!("{workload}: {why}"));
    }
}

/// The end-to-end metrics of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Committed target instructions per host second, whole
    /// `Simulation::run()` calls.
    pub commits_per_s: Summary,
    /// Wall seconds of the same configuration with a commit target of 1.
    pub setup_s: Summary,
    /// Peak live heap of one run, MiB.
    pub peak_heap_mb: f64,
    /// Wall seconds of the timed samples.
    pub wall_s: Summary,
    /// Exact counts of the warm-up run.
    pub fingerprint: Fingerprint,
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The per-layer metrics of one workload.
#[derive(Debug, Clone)]
pub struct Layered {
    /// Metric name to value and unit.
    pub metrics: Metrics,
    /// What the traced run recorded.
    pub trace: TraceResult,
    /// Traced wall seconds.
    pub traced_wall_s: f64,
}

/// Measures one workload and keeps its tally of operations.
pub struct Session<'a> {
    w: &'a Workload,
    opts: &'a Options,
    target: u64,
    /// Attempts and failures so far.
    pub tally: Tally,
    reference: Option<Fingerprint>,
    bless: bool,
}

struct Samples {
    walls: Vec<f64>,
    rates: Vec<f64>,
}

impl<'a> Session<'a> {
    /// Starts measuring `w`. With `bless`, the golden comparison is skipped
    /// (the caller is about to rewrite the goldens).
    pub fn new(w: &'a Workload, opts: &'a Options, bless: bool) -> Self {
        Session {
            w,
            opts,
            target: w.commit_target(opts.scale),
            tally: Tally::default(),
            reference: None,
            bless,
        }
    }

    fn save_dir(&self) -> Option<PathBuf> {
        self.w
            .speculative
            .then(|| self.opts.out_dir.join(format!("save-{}", self.w.name)))
    }

    /// The workload as users run it, with `save_state` on where it applies.
    fn simulation(&self, target: u64) -> Simulation {
        self.w
            .simulation(self.opts.seed, target, self.save_dir().as_deref())
    }

    /// Runs `sim` once, timed around the whole `run()` call, and applies the
    /// checks every run must pass. A failed run yields no sample.
    fn run_once(&mut self, sim: &Simulation, target: u64) -> Option<(SimReport, f64)> {
        // Every run creates its save directory, as a user's first run does.
        self.clean_up();
        let start = Instant::now();
        let result = sim.run();
        let wall = start.elapsed().as_secs_f64();
        let report = self.admit(result, target, |report| report)?;
        Some((report, wall))
    }

    /// Counts one attempted operation and applies the checks every finished
    /// run must pass; a run that fails them is a failed operation.
    fn admit<T>(
        &mut self,
        result: Result<T, EngineError>,
        target: u64,
        report_of: impl Fn(&T) -> &SimReport,
    ) -> Option<T> {
        self.tally.attempted += 1;
        let checked = result
            .map_err(|e| format!("run failed: {e}"))
            .and_then(|run| check_report(report_of(&run), target).map(|()| run));
        match checked {
            Ok(run) => Some(run),
            Err(why) => {
                self.tally.fail(self.w.name, why);
                None
            }
        }
    }

    /// Fingerprint of the sequential cycle-by-cycle run of the same target,
    /// computed once and never timed.
    fn reference(&mut self) -> Option<Fingerprint> {
        if self.reference.is_none() {
            let sim = self.w.reference(self.opts.seed, self.target);
            let (report, _) = self.run_once(&sim, self.target)?;
            self.reference = Some(Fingerprint::of(&report));
        }
        self.reference.clone()
    }

    /// |CPI − reference CPI| as a percentage of the reference CPI.
    fn sim_error_pct(&mut self, fp: &Fingerprint) -> Option<f64> {
        let reference = self.reference()?;
        Some(((fp.cpi() - reference.cpi()) / reference.cpi()).abs() * 100.0)
    }

    /// The checks on exact counts: golden, cross-engine, and (via `first`)
    /// run-to-run. Returns whether `fp` passed.
    fn check_counts(&mut self, fp: &Fingerprint, first: Option<&Fingerprint>) -> bool {
        let name = self.w.name;
        if !self.w.deterministic() {
            return match self.sim_error_pct(fp) {
                Some(err) if err <= MAX_THREADED_SIM_ERROR_PCT => true,
                Some(err) => {
                    self.tally.fail(
                        name,
                        format!("sim_error_pct {err:.3} > {MAX_THREADED_SIM_ERROR_PCT}"),
                    );
                    false
                }
                None => false,
            };
        }
        if let Some(first) = first {
            if fp != first {
                self.tally.fail(
                    name,
                    "fingerprint differs from an earlier run of the same seed",
                );
                return false;
            }
            // Golden and reference were checked on the first run.
            return true;
        }
        let golden_applies =
            self.opts.seed == fingerprint::GOLDEN_SEED && self.opts.scale == 1 && !self.bless;
        if golden_applies && fingerprint::goldens().get(name) != Some(fp) {
            self.tally.fail(name, "fingerprint differs from benchmark/golden.json (rerun with --bless if the model changed on purpose)");
            return false;
        }
        if self.w.engine == slacksim::EngineKind::Threaded {
            let Some(reference) = self.reference() else {
                return false;
            };
            if *fp != reference {
                self.tally.fail(
                    name,
                    "threaded cycle-by-cycle fingerprint differs from the sequential one",
                );
                return false;
            }
        }
        true
    }

    fn setup(&mut self) -> Option<Summary> {
        let sim = self.simulation(1);
        let mut batches = Vec::new();
        let start = Instant::now();
        while batches.len() < SETUP_MIN_BATCHES || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            let mut walls = Vec::with_capacity(SETUP_BATCH);
            for _ in 0..SETUP_BATCH {
                walls.push(self.run_once(&sim, 1)?.1);
            }
            batches.push(median(&walls));
        }
        Summary::of(&batches)
    }

    /// The discarded warm-up run, which doubles as the heap measurement:
    /// it is the one run whose time does not count, so the counting
    /// allocator may slow it down.
    pub fn warm_up(&mut self) -> Option<(Fingerprint, f64)> {
        let sim = self.simulation(self.target);
        let (run, heap) = alloc::measure(|| self.run_once(&sim, self.target));
        let fp = Fingerprint::of(&run?.0);
        self.check_counts(&fp, None)
            .then_some((fp, heap.peak_bytes as f64 / (1 << 20) as f64))
    }

    /// Timed samples of `sim` until `seconds` have passed, at least
    /// [`MIN_SAMPLES`] good ones, giving up after as many failures.
    fn samples(&mut self, sim: &Simulation, seconds: f64, first: &Fingerprint) -> Samples {
        let mut s = Samples {
            walls: Vec::new(),
            rates: Vec::new(),
        };
        let failed_before = self.tally.failed;
        let start = Instant::now();
        while s.walls.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
            if self.tally.failed - failed_before >= MIN_SAMPLES as u64 {
                break;
            }
            let Some((report, wall)) = self.run_once(sim, self.target) else {
                continue;
            };
            if self.check_counts(&Fingerprint::of(&report), Some(first)) {
                s.walls.push(wall);
                s.rates.push(report.committed as f64 / wall);
            }
        }
        s
    }

    /// Set-up time, warm-up with peak heap, then timed samples.
    pub fn end_to_end(&mut self) -> Option<EndToEnd> {
        let setup_s = self.setup()?;
        let (fingerprint, peak_heap_mb) = self.warm_up()?;
        let sim = self.simulation(self.target);
        let s = self.samples(&sim, self.opts.seconds, &fingerprint);
        self.clean_up();
        Some(EndToEnd {
            commits_per_s: Summary::of(&s.rates)?,
            setup_s,
            peak_heap_mb,
            wall_s: Summary::of(&s.walls)?,
            fingerprint,
        })
    }

    /// A shorter untraced measurement, for a traced pass that has no
    /// end-to-end result to compare itself with.
    pub fn baseline(&mut self) -> Option<(f64, Fingerprint)> {
        let (fingerprint, _) = self.warm_up()?;
        let sim = self.simulation(self.target);
        let s = self.samples(&sim, self.opts.seconds / 2.0, &fingerprint);
        self.clean_up();
        Some((Summary::of(&s.walls)?.median, fingerprint))
    }

    /// The traced pass and everything derived from it. `timed_wall_s` and
    /// `untraced` come from [`end_to_end`](Self::end_to_end) or
    /// [`baseline`](Self::baseline).
    pub fn layered(&mut self, timed_wall_s: f64, untraced: &Fingerprint) -> Option<Layered> {
        let w = self.w;
        // The facade's snapshot encoder is private, so the traced pass runs
        // without `save_state`, and what persisting costs is the difference
        // between untraced runs with and without it.
        let mut untraced_wall_s = timed_wall_s;
        let mut persist_share = 0.0;
        if w.speculative {
            let sim = w.simulation(self.opts.seed, self.target, None);
            let mut walls = Vec::new();
            for _ in 0..NO_SAVE_RUNS {
                let (report, wall) = self.run_once(&sim, self.target)?;
                if self.check_counts(&Fingerprint::of(&report), Some(untraced)) {
                    walls.push(wall);
                }
            }
            untraced_wall_s = Summary::of(&walls)?.median;
            persist_share = (timed_wall_s - untraced_wall_s) / timed_wall_s;
        }

        let (traced, heap) = alloc::measure(|| self.traced(self.target));
        let trace = traced?;
        let fp = Fingerprint::of(&trace.report);
        if w.deterministic() {
            if fp != *untraced {
                self.tally.fail(w.name, "traced fingerprint differs from untraced: the wrappers or the mirrored EngineConfig are not transparent");
                return None;
            }
        } else if !self.check_counts(&fp, None) {
            return None;
        }
        // Allocations after the first tenth of the commits: the whole run
        // minus a run that stops at a tenth.
        let (tenth, warm_heap) = alloc::measure(|| self.traced(self.target.div_ceil(10)));
        tenth?;

        let sim_error_pct = if w.has_slack() {
            self.sim_error_pct(&fp)?
        } else {
            0.0
        };

        let run_ns = trace.total(Layer::Run).ns as f64;
        let traced_wall_s = run_ns / 1e9;
        let mut metrics = layer_metrics(w, &trace, &fp);
        let mut put = |name: &str, value: f64, unit| {
            metrics.insert(name.to_owned(), (value, unit));
        };
        put("core.persist.share", persist_share, "share");
        put(
            "alloc.count",
            heap.count.saturating_sub(warm_heap.count) as f64,
            "count",
        );
        put(
            "alloc.bytes",
            heap.bytes.saturating_sub(warm_heap.bytes) as f64,
            "B",
        );
        put(
            "trace_overhead_pct",
            (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
            "%",
        );
        put("sim_error_pct", sim_error_pct, "%");
        Some(Layered {
            metrics,
            trace,
            traced_wall_s,
        })
    }

    fn traced(&mut self, target: u64) -> Option<TraceResult> {
        let result = trace::traced_run(self.w, self.opts.seed, target);
        self.admit(result, target, |trace| &trace.report)
    }

    /// One run with the program's own host profiler on, for the column
    /// printed beside the layer table.
    pub fn profiled(&mut self) -> Option<ProfData> {
        let mut sim = self.w.simulation(self.opts.seed, self.target, None);
        sim.profile(true);
        let (report, _) = self.run_once(&sim, self.target)?;
        report.prof
    }

    /// Removes the saved checkpoints; a directory that is not there is fine.
    fn clean_up(&self) {
        if let Some(dir) = self.save_dir() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The checks every finished run must pass.
fn check_report(report: &SimReport, target: u64) -> Result<(), String> {
    if report.kernel.get("finish_commit_target") != 1 || report.committed < target {
        return Err(format!(
            "missed its commit target: {} of {target}",
            report.committed
        ));
    }
    let per_core = report.core_total("committed");
    if per_core != report.committed {
        return Err(format!(
            "per-core commits sum to {per_core}, the report says {}",
            report.committed
        ));
    }
    Ok(())
}

/// The metrics read straight off the traced run.
fn layer_metrics(w: &Workload, t: &TraceResult, fp: &Fingerprint) -> Metrics {
    let threaded = w.engine == slacksim::EngineKind::Threaded;
    let run_ns = t.total(Layer::Run).ns as f64;
    let engine_ns = t.total(Layer::Engine).ns as f64;
    let tick = t.total(Layer::CoreTick);
    let service = t.total(Layer::UncoreService);
    let checkpoint = [
        ("capture", t.total(Layer::CpCapture)),
        ("apply", t.total(Layer::CpApply)),
        ("restore", t.total(Layer::CpRestore)),
        ("clone", t.total(Layer::CpClone)),
    ];
    let core_cycles = fp.core_cycles_total().max(1) as f64;
    // Children cover the engine's time only where they ran on its thread.
    let children: f64 = [
        Layer::CoreTick,
        Layer::UncoreService,
        Layer::CpCapture,
        Layer::CpApply,
        Layer::CpRestore,
        Layer::CpClone,
    ]
    .iter()
    .map(|&l| t.busy_ns_on_engine_thread(l))
    .sum();
    let engine_self = engine_ns - children;
    // Host threads that tick cores: one per target core on the threaded
    // engine, the engine's own thread otherwise.
    let tick_threads = if threaded { w.cores as f64 } else { 1.0 };
    let tick_share = tick.busy_ns() / (run_ns * tick_threads);

    let mut m = Metrics::new();
    let mut put = |name: String, value: f64, unit| {
        m.insert(name, (value, unit));
    };
    put(
        "cmp.core.tick_ns".into(),
        tick.busy_ns() / core_cycles,
        "ns",
    );
    put("cmp.core.ticks".into(), tick.calls as f64, "count");
    put("cmp.core.busy_share".into(), tick_share, "share");
    for (kind, name, conflicts) in [
        (UncoreKind::Bus, "bus", "bus_conflicts"),
        (UncoreKind::Directory, "directory", "dir_conflicts"),
    ] {
        // Never both: the interconnect the workload does not have reads 0.
        let s = if w.uncore == kind {
            Some(&service)
        } else {
            None
        };
        let per_call = s.map_or(0.0, |s| s.busy_ns() / s.calls.max(1) as f64);
        put(format!("cmp.{name}.service_ns"), per_call, "ns");
        put(
            format!("cmp.{name}.events"),
            s.map_or(0.0, |s| s.calls as f64),
            "count",
        );
        put(
            format!("cmp.{name}.conflicts"),
            t.report.uncore.get(conflicts) as f64,
            "count",
        );
    }
    put(
        "cmp.uncore.service_share".into(),
        service.busy_ns() / run_ns,
        "share",
    );
    put(
        "core.engine.self_ns_per_core_cycle".into(),
        engine_self / core_cycles,
        "ns",
    );
    put(
        "core.engine.self_share".into(),
        engine_self / run_ns,
        "share",
    );
    put(
        "core.engine.core_wait_share".into(),
        if threaded { 1.0 - tick_share } else { 0.0 },
        "share",
    );
    for (op, stat) in &checkpoint {
        put(format!("core.checkpoint.{op}_ns"), stat.busy_ns(), "ns");
    }
    put(
        "core.checkpoint.ops".into(),
        checkpoint.iter().map(|(_, s)| s.calls).sum::<u64>() as f64,
        "count",
    );
    put(
        "core.checkpoint.share".into(),
        checkpoint.iter().map(|(_, s)| s.busy_ns()).sum::<f64>() / run_ns,
        "share",
    );
    let kernel = &t.report.kernel;
    put(
        "core.speculative.wasted_share".into(),
        (kernel.get("wasted_cycles") + kernel.get("replay_cycles")) as f64
            / fp.global_cycles.max(1) as f64,
        "share",
    );
    put(
        "core.violation.rate".into(),
        t.report.violation_rate(),
        "1/cycle",
    );
    for (kind, name) in [
        (ViolationKind::Bus, "bus"),
        (ViolationKind::Map, "map"),
        (ViolationKind::Directory, "directory"),
    ] {
        put(
            format!("core.violation.rate.{name}"),
            t.report.violations.rate(kind, fp.global_cycles),
            "1/cycle",
        );
    }
    put(
        "cmp.setup.build_ns".into(),
        t.total(Layer::Build).ns as f64,
        "ns",
    );
    m
}

/// File-system type of the mount that holds `path`, from `/proc/mounts`;
/// `unknown` where that cannot be read.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs.to_owned())
}
