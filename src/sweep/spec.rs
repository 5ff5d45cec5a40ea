//! Sweep-spec parsing and design-space grid expansion.
//!
//! A sweep spec is one JSON document (parsed with the in-tree
//! [`obs::json`](slacksim_core::obs::json) parser, matching the
//! no-external-crates policy) describing a {scheme × bound × quantum ×
//! uncore × cores × workload × seed} grid plus the fixed per-job settings
//! every point shares:
//!
//! ```json
//! {
//!   "v": 1,
//!   "commit": 20000,
//!   "engine": "seq",
//!   "checkpoint": 2000,
//!   "max_cycles": 10000000,
//!   "workers": 3,
//!   "axes": {
//!     "scheme": ["cc", "bounded"],
//!     "bound": [8, 16],
//!     "quantum": [50],
//!     "cores": [2],
//!     "workload": ["fft", "water"],
//!     "seed": [1, 2]
//!   }
//! }
//! ```
//!
//! Expansion is the full cartesian product of the seven axes in the
//! fixed nesting order scheme → bound → quantum → uncore → cores →
//! workload → seed, so the grid cardinality is exactly the product of
//! the axis lengths and job ordering is stable across parses. Every job
//! carries its axis values in its identity token even when its scheme
//! consumes only some of them (a cycle-by-cycle job ignores `bound`),
//! which keeps job IDs unique by construction; axes whose values an
//! author does not want multiplied out simply stay single-valued.
//!
//! Validation is strict and errors are enumerated: unknown fields,
//! unknown axis names, duplicate axis values (which would mint duplicate
//! job IDs), zero quantities and out-of-range core counts are all
//! refused with a [`SpecError`] naming the accepted values, never
//! silently defaulted — the same contract as the CLI's flag validation.
//! Scheme, engine, uncore and workload names go through the same parse
//! functions as the CLI's flags.

use std::fmt;

use slacksim_core::obs::json::Json;
use slacksim_core::scheme::Scheme;

use crate::{Benchmark, EngineKind, SchemeKind, SchemeParams, UncoreKind};

/// Version of the sweep-spec JSON schema (the `v` field).
pub const SPEC_VERSION: u64 = 1;

/// Hard cap on expanded grid size: a runaway product (seven axes multiply
/// fast) is refused at parse time instead of exhausting memory.
pub const MAX_GRID_JOBS: u64 = 100_000;

/// Everything that can be wrong with a sweep spec. Every variant's
/// `Display` names the offending value and enumerates what is accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(String),
    /// The document is valid JSON but not an object.
    NotAnObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// The `v` field is not [`SPEC_VERSION`].
    BadVersion(f64),
    /// A field that must be a non-negative integer is not one.
    NotAnInteger {
        /// The field or axis name.
        field: &'static str,
        /// The offending JSON fragment, rendered.
        found: String,
    },
    /// A quantity that must be at least 1 was 0.
    ZeroValue(&'static str),
    /// A `cores` axis value outside the range supported by every uncore
    /// on the `uncore` axis.
    CoresOutOfRange {
        /// The offending core count.
        value: u64,
        /// The most restrictive uncore on the axis.
        uncore: &'static str,
        /// That uncore's core ceiling.
        max: u64,
    },
    /// An unknown `scheme` axis value.
    UnknownScheme(String),
    /// An unknown `uncore` axis value.
    UnknownUncore(String),
    /// An unknown `engine` value.
    UnknownEngine(String),
    /// A `workload` axis value no benchmark answers to.
    UnknownWorkload(String),
    /// A top-level or axis field this schema version does not define —
    /// refused so a typo cannot silently drop an axis.
    UnknownField(String),
    /// An axis that must be a JSON array is not one.
    NotAnArray(&'static str),
    /// An axis array with no values.
    EmptyAxis(&'static str),
    /// The same value appears twice in one axis, which would mint two
    /// jobs with identical IDs.
    DuplicateAxisValue {
        /// The axis name.
        axis: &'static str,
        /// The repeated value, rendered.
        value: String,
    },
    /// A workload axis entry that is not a non-empty string.
    BadWorkload(String),
    /// The expanded grid would exceed [`MAX_GRID_JOBS`].
    GridTooLarge(u64),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "sweep spec is not valid JSON: {e}"),
            SpecError::NotAnObject => write!(f, "sweep spec must be a JSON object"),
            SpecError::MissingField(name) => {
                write!(f, "sweep spec is missing required field '{name}'")
            }
            SpecError::BadVersion(v) => write!(
                f,
                "unsupported sweep-spec version {v} (this build reads v={SPEC_VERSION})"
            ),
            SpecError::NotAnInteger { field, found } => {
                write!(f, "'{field}' must be a non-negative integer (got {found})")
            }
            SpecError::ZeroValue(name) => {
                write!(f, "'{name}' must be at least 1 (got 0)")
            }
            SpecError::CoresOutOfRange { value, uncore, max } => {
                write!(
                    f,
                    "'cores' axis value {value} out of range for the {uncore} uncore \
                     (expected 1..={max})"
                )
            }
            SpecError::UnknownScheme(s) => {
                write!(
                    f,
                    "unknown scheme '{s}' in axis (expected {})",
                    SchemeKind::TOKENS
                )
            }
            SpecError::UnknownUncore(s) => {
                write!(
                    f,
                    "unknown uncore '{s}' in axis (expected {})",
                    UncoreKind::TOKENS
                )
            }
            SpecError::UnknownEngine(s) => {
                write!(f, "unknown engine '{s}' (expected {})", EngineKind::TOKENS)
            }
            SpecError::UnknownWorkload(s) => {
                write!(
                    f,
                    "unknown workload '{s}' in axis (expected {})",
                    Benchmark::TOKENS
                )
            }
            SpecError::UnknownField(s) => {
                write!(f, "unknown sweep-spec field '{s}'")
            }
            SpecError::NotAnArray(name) => {
                write!(f, "axis '{name}' must be a JSON array")
            }
            SpecError::EmptyAxis(name) => {
                write!(f, "axis '{name}' must hold at least one value")
            }
            SpecError::DuplicateAxisValue { axis, value } => write!(
                f,
                "axis '{axis}' repeats value {value}, which would duplicate job IDs"
            ),
            SpecError::BadWorkload(s) => {
                write!(
                    f,
                    "workload axis entries must be non-empty strings (got {s})"
                )
            }
            SpecError::GridTooLarge(n) => write!(
                f,
                "expanded grid holds {n} jobs, over the {MAX_GRID_JOBS} cap"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// The seven sweep axes. Missing axes default to one neutral value so a
/// spec only spells out what it varies.
#[derive(Debug, Clone, PartialEq)]
pub struct Axes {
    /// Synchronisation schemes (required, at least one).
    pub schemes: Vec<SchemeKind>,
    /// Slack bounds / p2p leads (default `[8]`).
    pub bounds: Vec<u64>,
    /// Quantum lengths (default `[50]`).
    pub quantums: Vec<u64>,
    /// Uncore interconnects (default `[bus]`). Every `cores` value must
    /// fit the most restrictive uncore on this axis, so every expanded
    /// (uncore, cores) pair is runnable.
    pub uncores: Vec<UncoreKind>,
    /// Target core counts (default `[8]`).
    pub cores: Vec<u64>,
    /// Workloads (required, at least one), each with the author's
    /// lowercased spelling, which names its jobs: `water` and `water-nsq`
    /// are two axis values running the same benchmark.
    pub workloads: Vec<(String, Benchmark)>,
    /// Run seeds (default `[1]`).
    pub seeds: Vec<u64>,
}

/// A parsed, validated sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Committed-instruction target per job.
    pub commit: u64,
    /// Engine every job runs under.
    pub engine: EngineKind,
    /// Durable per-job checkpoint interval in global cycles (enables
    /// crash-safe job resume).
    pub checkpoint: Option<u64>,
    /// Per-job simulated-cycle cap (resource cap; jobs hitting it stall
    /// out and are reported as failed rather than running forever).
    pub max_cycles: Option<u64>,
    /// Suggested worker-pool width (the runner may override).
    pub workers: Option<u64>,
    /// The sweep axes.
    pub axes: Axes,
}

/// One expanded grid point: everything needed to run one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Dense grid index in expansion order (stable across parses).
    pub index: u64,
    /// The scheme-axis point.
    pub kind: SchemeKind,
    /// The fully parameterised scheme this job runs under.
    pub scheme: Scheme,
    /// The bound-axis value (carried even by schemes that ignore it, so
    /// job IDs stay unique over the full product).
    pub bound: u64,
    /// The quantum-axis value (ditto).
    pub quantum: u64,
    /// The uncore-axis point.
    pub uncore: UncoreKind,
    /// Target core count.
    pub cores: u64,
    /// Workload name, as the spec spells it (lowercased).
    pub workload: String,
    /// The benchmark that name parses to.
    pub benchmark: Benchmark,
    /// Run seed.
    pub seed: u64,
}

impl Job {
    /// The job's deterministic identity token: every axis value, in a
    /// filesystem-safe shape. Unique within a grid by construction
    /// (duplicate axis values are refused at parse time). Bus jobs keep
    /// the historical six-part shape so existing campaign directories
    /// still resume; only directory jobs carry the `-dir` suffix.
    pub fn token(&self) -> String {
        let mut token = format!(
            "{}-{}-b{}-q{}-c{}-s{}",
            self.workload,
            self.kind.name(),
            self.bound,
            self.quantum,
            self.cores,
            self.seed,
        );
        if self.uncore == UncoreKind::Directory {
            token.push_str("-dir");
        }
        token
    }
}

impl SweepSpec {
    /// Parses and validates a sweep spec document.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found; messages enumerate the
    /// accepted values.
    pub fn parse(src: &str) -> Result<SweepSpec, SpecError> {
        let doc = Json::parse(src).map_err(SpecError::Json)?;
        let obj = doc.as_object().ok_or(SpecError::NotAnObject)?;
        for key in obj.keys() {
            match key.as_str() {
                "v" | "commit" | "engine" | "checkpoint" | "max_cycles" | "workers" | "axes" => {}
                other => return Err(SpecError::UnknownField(other.to_string())),
            }
        }

        let v = doc
            .get("v")
            .ok_or(SpecError::MissingField("v"))?
            .as_f64()
            .ok_or(SpecError::MissingField("v"))?;
        if v != SPEC_VERSION as f64 {
            return Err(SpecError::BadVersion(v));
        }

        let commit = required_u64(&doc, "commit")?;
        if commit == 0 {
            return Err(SpecError::ZeroValue("commit"));
        }

        let engine = match doc.get("engine") {
            None => EngineKind::Sequential,
            Some(j) => {
                let name = j.as_str().ok_or(SpecError::UnknownEngine(render(j)))?;
                EngineKind::parse(name).ok_or_else(|| SpecError::UnknownEngine(name.to_string()))?
            }
        };

        let checkpoint = match doc.get("checkpoint") {
            None => None,
            Some(j) => {
                let interval = json_u64(j, "checkpoint")?;
                if interval == 0 {
                    return Err(SpecError::ZeroValue("checkpoint"));
                }
                Some(interval)
            }
        };

        let max_cycles = match doc.get("max_cycles") {
            None => None,
            Some(j) => {
                let v = json_u64(j, "max_cycles")?;
                if v == 0 {
                    return Err(SpecError::ZeroValue("max_cycles"));
                }
                Some(v)
            }
        };

        let workers = match doc.get("workers") {
            None => None,
            Some(j) => {
                let v = json_u64(j, "workers")?;
                if v == 0 {
                    return Err(SpecError::ZeroValue("workers"));
                }
                Some(v)
            }
        };

        let axes_doc = doc.get("axes").ok_or(SpecError::MissingField("axes"))?;
        let axes_obj = axes_doc
            .as_object()
            .ok_or(SpecError::MissingField("axes"))?;
        for key in axes_obj.keys() {
            match key.as_str() {
                "scheme" | "bound" | "quantum" | "uncore" | "cores" | "workload" | "seed" => {}
                other => {
                    return Err(SpecError::UnknownField(format!("axes.{other}")));
                }
            }
        }

        let schemes = {
            let arr =
                axis_array(axes_doc, "scheme")?.ok_or(SpecError::MissingField("axes.scheme"))?;
            let mut out = Vec::with_capacity(arr.len());
            for j in arr {
                let name = j
                    .as_str()
                    .ok_or_else(|| SpecError::UnknownScheme(render(j)))?;
                let kind = SchemeKind::parse(name)
                    .ok_or_else(|| SpecError::UnknownScheme(name.to_string()))?;
                if out.contains(&kind) {
                    return Err(SpecError::DuplicateAxisValue {
                        axis: "scheme",
                        value: format!("'{}'", kind.name()),
                    });
                }
                out.push(kind);
            }
            out
        };

        let defaults = SchemeParams::default();
        let bounds = numeric_axis(axes_doc, "bound", defaults.bound, |v| {
            if v == 0 {
                Err(SpecError::ZeroValue("bound"))
            } else {
                Ok(())
            }
        })?;
        let quantums = numeric_axis(axes_doc, "quantum", defaults.quantum, |v| {
            if v == 0 {
                Err(SpecError::ZeroValue("quantum"))
            } else {
                Ok(())
            }
        })?;
        let uncores = match axis_array(axes_doc, "uncore")? {
            None => vec![UncoreKind::Bus],
            Some(arr) => {
                if arr.is_empty() {
                    return Err(SpecError::EmptyAxis("uncore"));
                }
                let mut out = Vec::with_capacity(arr.len());
                for j in arr {
                    let name = j
                        .as_str()
                        .ok_or_else(|| SpecError::UnknownUncore(render(j)))?;
                    let kind = UncoreKind::parse(name)
                        .ok_or_else(|| SpecError::UnknownUncore(name.to_string()))?;
                    if out.contains(&kind) {
                        return Err(SpecError::DuplicateAxisValue {
                            axis: "uncore",
                            value: format!("'{kind}'"),
                        });
                    }
                    out.push(kind);
                }
                out
            }
        };

        // Every cores value must fit the most restrictive uncore on the
        // axis: the grid is a full product, so a 64-core point paired
        // with the 16-core bus would mint an unrunnable job.
        let strictest = *uncores
            .iter()
            .min_by_key(|u| u.max_cores())
            .expect("uncore axis is non-empty");
        let max = strictest.max_cores() as u64;
        let cores = numeric_axis(axes_doc, "cores", 8, |v| {
            if !(1..=max).contains(&v) {
                Err(SpecError::CoresOutOfRange {
                    value: v,
                    uncore: strictest.as_str(),
                    max,
                })
            } else {
                Ok(())
            }
        })?;
        let seeds = numeric_axis(axes_doc, "seed", defaults.seed, |_| Ok(()))?;

        let workloads = {
            let arr = axis_array(axes_doc, "workload")?
                .ok_or(SpecError::MissingField("axes.workload"))?;
            let mut out: Vec<(String, Benchmark)> = Vec::with_capacity(arr.len());
            for j in arr {
                let name = j
                    .as_str()
                    .ok_or_else(|| SpecError::BadWorkload(render(j)))?;
                if name.is_empty() {
                    return Err(SpecError::BadWorkload("\"\"".to_string()));
                }
                let canon = name.to_ascii_lowercase();
                if out.iter().any(|(n, _)| *n == canon) {
                    return Err(SpecError::DuplicateAxisValue {
                        axis: "workload",
                        value: format!("'{canon}'"),
                    });
                }
                let benchmark = Benchmark::parse(&canon)
                    .ok_or_else(|| SpecError::UnknownWorkload(canon.clone()))?;
                out.push((canon, benchmark));
            }
            out
        };

        let spec = SweepSpec {
            commit,
            engine,
            checkpoint,
            max_cycles,
            workers,
            axes: Axes {
                schemes,
                bounds,
                quantums,
                uncores,
                cores,
                workloads,
                seeds,
            },
        };
        let total = spec.cardinality();
        if total > MAX_GRID_JOBS {
            return Err(SpecError::GridTooLarge(total));
        }
        Ok(spec)
    }

    /// The expanded grid size: the product of the seven axis lengths.
    pub fn cardinality(&self) -> u64 {
        let a = &self.axes;
        (a.schemes.len() as u64)
            .saturating_mul(a.bounds.len() as u64)
            .saturating_mul(a.quantums.len() as u64)
            .saturating_mul(a.uncores.len() as u64)
            .saturating_mul(a.cores.len() as u64)
            .saturating_mul(a.workloads.len() as u64)
            .saturating_mul(a.seeds.len() as u64)
    }

    /// Expands the grid in the fixed nesting order scheme → bound →
    /// quantum → uncore → cores → workload → seed. Stable across parses
    /// of the same document; specs without an `uncore` axis expand
    /// exactly as before (one implicit bus).
    pub fn expand(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.cardinality() as usize);
        let a = &self.axes;
        for &kind in &a.schemes {
            for &bound in &a.bounds {
                for &quantum in &a.quantums {
                    for &uncore in &a.uncores {
                        for &cores in &a.cores {
                            for (workload, benchmark) in &a.workloads {
                                for &seed in &a.seeds {
                                    let scheme = kind.build(&SchemeParams {
                                        bound,
                                        quantum,
                                        seed,
                                        ..SchemeParams::default()
                                    });
                                    jobs.push(Job {
                                        index: jobs.len() as u64,
                                        kind,
                                        scheme,
                                        bound,
                                        quantum,
                                        uncore,
                                        cores,
                                        workload: workload.clone(),
                                        benchmark: *benchmark,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// A canonical one-line rendering of everything that affects
    /// simulation results: the campaign fingerprint recorded in the
    /// manifest, compared on resume so a changed spec is refused instead
    /// of silently producing a mixed-grid aggregate. Worker-pool width is
    /// deliberately excluded — resuming on a different host shape is
    /// legal and changes nothing about any job's result.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let a = &self.axes;
        let mut out = format!(
            "v{SPEC_VERSION};commit={};engine={}",
            self.commit,
            self.engine.name()
        );
        match self.checkpoint {
            None => out.push_str(";checkpoint=off"),
            Some(interval) => {
                let _ = write!(out, ";checkpoint={interval}");
            }
        }
        match self.max_cycles {
            None => out.push_str(";max_cycles=off"),
            Some(mc) => {
                let _ = write!(out, ";max_cycles={mc}");
            }
        }
        let _ = write!(out, ";scheme=");
        join(&mut out, a.schemes.iter().map(|s| s.name().to_string()));
        let _ = write!(out, ";bound=");
        join(&mut out, a.bounds.iter().map(u64::to_string));
        let _ = write!(out, ";quantum=");
        join(&mut out, a.quantums.iter().map(u64::to_string));
        let _ = write!(out, ";uncore=");
        join(&mut out, a.uncores.iter().map(|u| u.as_str().to_string()));
        let _ = write!(out, ";cores=");
        join(&mut out, a.cores.iter().map(u64::to_string));
        let _ = write!(out, ";workload=");
        join(&mut out, a.workloads.iter().map(|(name, _)| name.clone()));
        let _ = write!(out, ";seed=");
        join(&mut out, a.seeds.iter().map(u64::to_string));
        out
    }
}

fn join(out: &mut String, items: impl Iterator<Item = String>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
}

/// Renders an arbitrary JSON fragment for error messages.
fn render(j: &Json) -> String {
    match j {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{s}\""),
        Json::Arr(_) => "an array".to_string(),
        Json::Obj(_) => "an object".to_string(),
    }
}

/// Reads a required non-negative integer field.
fn required_u64(doc: &Json, field: &'static str) -> Result<u64, SpecError> {
    json_u64(doc.get(field).ok_or(SpecError::MissingField(field))?, field)
}

/// Converts one JSON value to a non-negative integer.
fn json_u64(j: &Json, field: &'static str) -> Result<u64, SpecError> {
    let v = j.as_f64().ok_or(SpecError::NotAnInteger {
        field,
        found: render(j),
    })?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 || v > (1u64 << 53) as f64 {
        return Err(SpecError::NotAnInteger {
            field,
            found: render(j),
        });
    }
    Ok(v as u64)
}

/// Fetches one axis as an array, `Ok(None)` when absent.
fn axis_array<'a>(axes: &'a Json, name: &'static str) -> Result<Option<&'a [Json]>, SpecError> {
    match axes.get(name) {
        None => Ok(None),
        Some(j) => j.as_array().map(Some).ok_or(SpecError::NotAnArray(name)),
    }
}

/// Parses one numeric axis, defaulting to `[default]` when absent, and
/// rejecting duplicates and per-value range violations.
fn numeric_axis(
    axes: &Json,
    name: &'static str,
    default: u64,
    check: impl Fn(u64) -> Result<(), SpecError>,
) -> Result<Vec<u64>, SpecError> {
    let Some(arr) = axis_array(axes, name)? else {
        return Ok(vec![default]);
    };
    if arr.is_empty() {
        return Err(SpecError::EmptyAxis(name));
    }
    let mut out = Vec::with_capacity(arr.len());
    for j in arr {
        let v = json_u64(j, name)?;
        check(v)?;
        if out.contains(&v) {
            return Err(SpecError::DuplicateAxisValue {
                axis: name,
                value: v.to_string(),
            });
        }
        out.push(v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "v": 1,
        "commit": 5000,
        "engine": "seq",
        "axes": {
            "scheme": ["cc", "bounded"],
            "bound": [8, 16],
            "cores": [2],
            "workload": ["fft", "water"],
            "seed": [1, 2]
        }
    }"#;

    #[test]
    fn parse_expands_to_the_axis_product() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        // 2 schemes x 2 bounds x 1 quantum x 1 cores x 2 workloads x 2 seeds
        assert_eq!(spec.cardinality(), 16);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 16);
        assert_eq!(jobs[0].index, 0);
        assert_eq!(jobs[0].kind, SchemeKind::Cc);
        assert_eq!(jobs[0].workload, "fft");
        assert_eq!(jobs[0].benchmark, Benchmark::Fft);
        assert_eq!(jobs.last().unwrap().index, 15);
        assert_eq!(jobs.last().unwrap().kind, SchemeKind::Bounded);
        assert_eq!(jobs.last().unwrap().bound, 16);

        // The committed CI smoke spec: {cc, bounded, quantum} x 2 seeds.
        let smoke = SweepSpec::parse(include_str!("../../experiments/campaign-smoke.json"))
            .expect("the smoke spec parses");
        assert_eq!(smoke.expand().len(), 6);
    }

    #[test]
    fn job_tokens_are_unique_and_stable() {
        let a = SweepSpec::parse(SPEC).unwrap().expand();
        let b = SweepSpec::parse(SPEC).unwrap().expand();
        assert_eq!(a, b, "expansion is stable across parses");
        let mut tokens: Vec<String> = a.iter().map(Job::token).collect();
        tokens.sort();
        tokens.dedup();
        assert_eq!(tokens.len(), a.len(), "job IDs are unique");

        // Two spellings of one benchmark are two axis values.
        let both = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{"scheme":["cc"],"workload":["water","water-nsq"]}}"#,
        )
        .unwrap()
        .expand();
        assert_eq!(both[0].token(), "water-cc-b8-q50-c8-s1");
        assert_eq!(both[1].token(), "water-nsq-cc-b8-q50-c8-s1");
    }

    #[test]
    fn schemes_consume_their_axes() {
        let spec = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{
                "scheme":["bounded","quantum","p2p"],
                "bound":[32],"quantum":[77],
                "workload":["lu"],"seed":[9]}}"#,
        )
        .unwrap();
        let jobs = spec.expand();
        assert_eq!(jobs[0].scheme, Scheme::BoundedSlack { bound: 32 });
        assert_eq!(jobs[1].scheme, Scheme::Quantum { quantum: 77 });
        assert_eq!(
            jobs[2].scheme,
            Scheme::LaxP2p {
                lead: 32,
                period: 500,
                seed: 9
            }
        );
    }

    #[test]
    fn batched_engine_takes_every_scheme() {
        let spec = SweepSpec::parse(
            r#"{"v":1,"commit":10,"engine":"batched","axes":{
                "scheme":["cc","quantum","bounded"],"quantum":[4],"bound":[16],
                "workload":["fft"]}}"#,
        )
        .unwrap();
        assert_eq!(spec.engine, EngineKind::Batched);
        let jobs = spec.expand();
        assert_eq!(jobs[0].scheme, Scheme::CycleByCycle);
        assert_eq!(jobs[1].scheme, Scheme::Quantum { quantum: 4 });
        assert_eq!(jobs[2].scheme, Scheme::BoundedSlack { bound: 16 });
    }

    #[test]
    fn canonical_excludes_workers() {
        let with = SweepSpec::parse(
            r#"{"v":1,"commit":10,"workers":7,
                "axes":{"scheme":["cc"],"workload":["fft"]}}"#,
        )
        .unwrap();
        let without = SweepSpec::parse(
            r#"{"v":1,"commit":10,
                "axes":{"scheme":["cc"],"workload":["fft"]}}"#,
        )
        .unwrap();
        assert_eq!(with.canonical(), without.canonical());
    }

    #[test]
    fn rejections_are_enumerated() {
        let cases: &[(&str, &str)] = &[
            ("{", "not valid JSON"),
            ("[1]", "must be a JSON object"),
            (
                r#"{"v":2,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "version 2",
            ),
            (
                r#"{"commit":1,"axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "missing required field 'v'",
            ),
            (
                r#"{"v":1,"axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "'commit'",
            ),
            (
                r#"{"v":1,"commit":0,"axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "'commit' must be at least 1",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["warp"],"workload":["fft"]}}"#,
                "cc|bounded|unbounded|quantum|adaptive|p2p",
            ),
            (
                r#"{"v":1,"commit":1,"engine":"turbo","axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "seq|threaded|batched",
            ),
            (
                r#"{"v":1,"commit":1,"checkpoint":100,"checkpoint_mode":"delta","axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "unknown sweep-spec field 'checkpoint_mode'",
            ),
            (
                r#"{"v":1,"commit":1,"frobnicate":3,"axes":{"scheme":["cc"],"workload":["fft"]}}"#,
                "unknown sweep-spec field 'frobnicate'",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"],"warp":[1]}}"#,
                "axes.warp",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"],"bound":[]}}"#,
                "at least one value",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"],"bound":[8,8]}}"#,
                "repeats value 8",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc","cc"],"workload":["fft"]}}"#,
                "repeats value 'cc'",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"],"bound":[0]}}"#,
                "'bound' must be at least 1",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"],"cores":[17]}}"#,
                "out of range",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"],"workload":["fft"],"seed":[1.5]}}"#,
                "'seed' must be a non-negative integer",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"scheme":["cc"]}}"#,
                "axes.workload",
            ),
            (
                r#"{"v":1,"commit":1,"axes":{"workload":["fft"]}}"#,
                "axes.scheme",
            ),
        ];
        for (src, expect) in cases {
            let err = SweepSpec::parse(src).expect_err(src);
            let msg = err.to_string();
            assert!(
                msg.contains(expect),
                "for {src}: expected {expect:?} in {msg:?}"
            );
        }
    }

    #[test]
    fn uncore_axis_lifts_the_core_cap() {
        let spec = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{
                "scheme":["cc"],"uncore":["directory"],"cores":[16,64],
                "workload":["fft"]}}"#,
        )
        .unwrap();
        assert_eq!(spec.axes.uncores, vec![UncoreKind::Directory]);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].cores, 64);
        assert_eq!(jobs[1].uncore, UncoreKind::Directory);
        assert!(
            jobs[1].token().ends_with("-dir"),
            "directory jobs are suffixed: {}",
            jobs[1].token()
        );
    }

    /// The removed manager tree's axis is refused under every engine and
    /// at every value, the old default included.
    fn shards_axis_error(engine: &str, shards: &str) -> SpecError {
        SweepSpec::parse(&format!(
            r#"{{"v":1,"commit":10,"engine":"{engine}","axes":{{
                "scheme":["cc"],"shards":[{shards}],"workload":["fft"]}}}}"#
        ))
        .unwrap_err()
    }

    #[test]
    fn a_threaded_shards_axis_is_an_unknown_field() {
        let err = shards_axis_error("threaded", "1,4");
        assert_eq!(err, SpecError::UnknownField("axes.shards".to_owned()));
        assert!(
            err.to_string().contains("unknown sweep-spec field"),
            "{err}"
        );
    }

    #[test]
    fn a_default_shards_axis_is_an_unknown_field() {
        let err = shards_axis_error("threaded", "1");
        assert_eq!(err, SpecError::UnknownField("axes.shards".to_owned()));
    }

    #[test]
    fn a_shards_axis_is_unknown_under_every_engine() {
        for (engine, shards) in [("seq", "2"), ("seq", "0"), ("batched", "1")] {
            let err = shards_axis_error(engine, shards);
            assert_eq!(
                err,
                SpecError::UnknownField("axes.shards".to_owned()),
                "{engine} {shards}"
            );
        }
    }

    #[test]
    fn bus_tokens_keep_their_historical_shape() {
        let jobs = SweepSpec::parse(SPEC).unwrap().expand();
        assert_eq!(jobs[0].token(), "fft-cc-b8-q50-c2-s1");
    }

    #[test]
    fn cores_must_fit_the_strictest_uncore() {
        // A mixed axis pairs every cores value with the bus too, so the
        // bus ceiling governs.
        let err = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{
                "scheme":["cc"],"uncore":["bus","directory"],"cores":[64],
                "workload":["fft"]}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::CoresOutOfRange {
                value: 64,
                uncore: "bus",
                max: 16
            }
        );
        assert!(err.to_string().contains("for the bus uncore"));
    }

    #[test]
    fn uncore_rejections_are_enumerated() {
        let err = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{
                "scheme":["cc"],"uncore":["ring"],"workload":["fft"]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("bus|directory"), "{err}");
        let err = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{
                "scheme":["cc"],"uncore":["bus","bus"],"workload":["fft"]}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("repeats value 'bus'"), "{err}");
    }

    #[test]
    fn canonical_covers_the_uncore_axis() {
        let bus =
            SweepSpec::parse(r#"{"v":1,"commit":10,"axes":{"scheme":["cc"],"workload":["fft"]}}"#)
                .unwrap();
        let dir = SweepSpec::parse(
            r#"{"v":1,"commit":10,"axes":{"scheme":["cc"],"uncore":["directory"],"workload":["fft"]}}"#,
        )
        .unwrap();
        assert!(bus.canonical().contains(";uncore=bus;"));
        assert_ne!(bus.canonical(), dir.canonical());

        // Every axis at once. A campaign directory resumes only if its
        // manifest's canonical string and its job directory names are
        // spelled as they were when it started: these literals were
        // written by an earlier build and must never change.
        let every = SweepSpec::parse(
            r#"{"v":1,"commit":3000,"engine":"batched","checkpoint":500,"max_cycles":10000000,
                "axes":{"scheme":["cc","bounded","unbounded","quantum","adaptive","p2p"],
                "bound":[8],"quantum":[50],"uncore":["bus","directory"],"cores":[2],
                "workload":["fft","Water-Nsq"],"seed":[3]}}"#,
        )
        .unwrap();
        assert_eq!(
            every.canonical(),
            "v1;commit=3000;engine=batched;checkpoint=500;max_cycles=10000000;\
             scheme=cc,bounded,unbounded,quantum,adaptive,p2p;bound=8;quantum=50;\
             uncore=bus,directory;cores=2;workload=fft,water-nsq;seed=3"
        );
        let jobs = every.expand();
        assert_eq!(jobs.len(), 24);
        assert_eq!(jobs[0].token(), "fft-cc-b8-q50-c2-s3");
        assert_eq!(jobs[23].token(), "water-nsq-p2p-b8-q50-c2-s3-dir");
        assert_eq!(jobs[23].benchmark, Benchmark::WaterNsquared);
    }

    #[test]
    fn grid_too_large_is_refused() {
        // 6 schemes x 100 bounds x 100 quantums x 16 cores... fake it
        // with seeds: 6 * 20000 seeds * 1 * 1 > cap? Use bounds x seeds.
        let bounds: Vec<String> = (1..=400).map(|v| v.to_string()).collect();
        let seeds: Vec<String> = (0..400).map(|v| v.to_string()).collect();
        let src = format!(
            r#"{{"v":1,"commit":1,"axes":{{"scheme":["cc"],"workload":["fft"],
               "bound":[{}],"seed":[{}]}}}}"#,
            bounds.join(","),
            seeds.join(","),
        );
        let err = SweepSpec::parse(&src).unwrap_err();
        assert!(matches!(err, SpecError::GridTooLarge(160_000)));
    }
}
