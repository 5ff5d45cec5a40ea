//! What the benchmark prints and writes: the header, one block per
//! workload, the microbenchmark table, `results.json` and `trace.json`.

use std::fmt::Write as _;
use std::process::Command;

use slacksim::slacksim_core::obs::json::Json;
use slacksim::{EngineKind, ProfData};

use crate::layers::Micro;
use crate::run::{EndToEnd, Layered, Options, Tally};
use crate::stats::Summary;
use crate::trace::Layer;
use crate::workloads::Workload;

/// The benchmark's contract with the acceptance driver, compiled in so that
/// bounds and names have one source.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Name, unit, direction and (end-to-end only) regress bound of a metric
/// declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` lists under `section`.
pub fn metric_specs(section: &str) -> Vec<MetricSpec> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let list = doc
        .get(section)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists its metrics");
    list.iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str).expect("metric field");
            MetricSpec {
                name: text("name").to_owned(),
                unit: text("unit").to_owned(),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// Everything measured on one workload.
pub struct WorkloadResult {
    /// Which workload.
    pub workload: &'static Workload,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics, when that pass ran and succeeded.
    pub end_to_end: Option<EndToEnd>,
    /// Per-layer metrics, when the traced pass ran and succeeded.
    pub layered: Option<Layered>,
    /// The program's own profile of one more run (full report only).
    pub prof: Option<ProfData>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host and build facts printed above every report, as `(key, value)`.
pub fn header(opts: &Options) -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("host_cpus", cpus.to_string()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("scale", format!("1/{}", opts.scale)),
        ("save_dir_fs", crate::run::fs_type(&opts.out_dir)),
    ]
}

/// The header as text.
pub fn header_text(opts: &Options) -> String {
    let mut s = String::from("slacksim benchmark\n");
    for (k, v) in header(opts) {
        let _ = writeln!(s, "  {k:<12} {v}");
    }
    s.push_str(
        "  note         host-time metrics of the simulator; the simulated model is unvalidated\n  \
                      against hardware, so sim_error_pct is error against the sequential\n  \
                      cycle-by-cycle run of the same model, not against a machine\n",
    );
    s
}

/// Every end-to-end metric `BENCHMARK.json` declares, with its measurement.
fn end_to_end_rows(e: &EndToEnd) -> Vec<(MetricSpec, Summary)> {
    metric_specs("end_to_end")
        .into_iter()
        .map(|spec| {
            let summary = match spec.name.as_str() {
                "commits_per_s" => e.commits_per_s,
                "setup_s" => e.setup_s,
                "peak_heap_mb" => Summary::of(&[e.peak_heap_mb]).expect("one value"),
                other => panic!("BENCHMARK.json declares {other}, which nothing measures"),
            };
            (spec, summary)
        })
        .collect()
}

/// One workload's block of the text report.
pub fn workload_text(r: &WorkloadResult, micro: &[Micro]) -> String {
    let w = r.workload;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\n== {}   failed/attempted {}/{}",
        w.name, r.tally.failed, r.tally.attempted
    );
    let _ = writeln!(s, "   why: {}", w.why);
    for failure in &r.tally.failures {
        let _ = writeln!(s, "   FAILED {failure}");
    }
    if let Some(e) = &r.end_to_end {
        let _ = writeln!(s, "   end-to-end (host time, tracing off):");
        for (spec, sum) in end_to_end_rows(e) {
            let _ = writeln!(
                s,
                "     {:<14} {:>14.6} {:<5} median of {:>3} [{:.6} .. {:.6}] spread {:>5.2} %  {} is better, regress bound {:.0} %",
                spec.name,
                sum.median,
                spec.unit,
                sum.n,
                sum.min,
                sum.max,
                sum.spread * 100.0,
                if spec.higher_is_better { "higher" } else { "lower" },
                spec.bound.unwrap_or(0.0) * 100.0,
            );
        }
        let f = &e.fingerprint;
        let _ = writeln!(
            s,
            "   simulated (exact counts{}):\n     global_cycles {}  committed {}  cpi {:.6}  violations bus/map/dir/workload/other {:?}\n     interconnect transactions {}  checkpoints {}  rollbacks {}  core cycles {}",
            if w.deterministic() { "" } else { " of the warm-up run; this workload is non-deterministic by design" },
            f.global_cycles, f.committed, f.cpi(), f.violations, f.transactions, f.checkpoints, f.rollbacks, f.core_cycles_total()
        );
    }
    if let Some(l) = &r.layered {
        layered_text(&mut s, r, l, micro);
    }
    s
}

fn layered_text(s: &mut String, r: &WorkloadResult, l: &Layered, micro: &[Micro]) {
    let t = &l.trace;
    let run_ns = t.total(Layer::Run).ns as f64;
    let get = |name: &str| l.metrics.get(name).map_or(0.0, |m| m.0);
    let _ = writeln!(
        s,
        "   per-layer (one traced run, wall {:.3} s, trace_overhead_pct {:.2}):",
        l.traced_wall_s,
        get("trace_overhead_pct")
    );
    let _ = writeln!(
        s,
        "     {:<26} {:>5} {:>12} {:>12} {:>12} {:>8}",
        "layer", "lane", "calls", "busy ms", "max us", "of wall"
    );
    for row in &t.rows {
        let _ = writeln!(
            s,
            "     {:<26} {:>5} {:>12} {:>12.3} {:>12.1} {:>7.2}%",
            row.name,
            row.lane,
            row.stat.calls,
            row.stat.busy_ns() / 1e6,
            row.stat.max_ns as f64 / 1e3,
            row.stat.busy_ns() / run_ns * 100.0
        );
    }
    if r.workload.engine != EngineKind::Threaded {
        // Self times: run glue, build, engine self and the leaves.
        let leaves: f64 = [
            "cmp.core.busy_share",
            "cmp.uncore.service_share",
            "core.checkpoint.share",
            "core.engine.self_share",
        ]
        .iter()
        .map(|m| get(m))
        .sum();
        let build = get("cmp.setup.build_ns") / run_ns;
        let glue =
            (run_ns - t.total(Layer::Build).ns as f64 - t.total(Layer::Engine).ns as f64) / run_ns;
        let _ = writeln!(
            s,
            "     self times: engine {:.2} % + core tick {:.2} % + service {:.2} % + checkpoint {:.2} % + build {:.2} % + run glue {:.2} % = {:.2} % of traced wall",
            get("core.engine.self_share") * 100.0,
            get("cmp.core.busy_share") * 100.0,
            get("cmp.uncore.service_share") * 100.0,
            get("core.checkpoint.share") * 100.0,
            build * 100.0,
            glue * 100.0,
            (leaves + build + glue) * 100.0
        );
    }
    for (name, (value, unit)) in &l.metrics {
        let _ = writeln!(s, "     {name:<38} {value:>16.6} {unit}");
    }
    if !micro.is_empty() {
        attribution_text(s, r, l, micro);
    }
    if let Some(prof) = &r.prof {
        let total = prof.total_self_ns().max(1) as f64;
        let _ = writeln!(
            s,
            "   the program's own profiler, one more run (site, share of its self time):"
        );
        for site in prof.sites.iter().filter(|site| site.self_ns > 0) {
            let _ = writeln!(
                s,
                "     {:<26} {:>12} calls {:>7.2}%",
                site.site.name(),
                site.count,
                site.self_ns as f64 / total * 100.0
            );
        }
    }
}

/// Microbenchmark cost times event count, per workload: how much of the
/// traced wall the isolated costs explain, and what is left over.
fn attribution_text(s: &mut String, r: &WorkloadResult, l: &Layered, micro: &[Micro]) {
    let w = r.workload;
    let report = &l.trace.report;
    let cost = |name: &str| {
        micro
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.summary.median)
    };
    let events = l.trace.total(Layer::UncoreService).calls as f64;
    let probes = ["l1d_hits", "l1d_misses", "l1i_hits", "l1i_misses"]
        .iter()
        .map(|c| report.core_total(c))
        .sum::<u64>() as f64;
    let scheme = match w.scheme.name() {
        "cycle-by-cycle" => "cc",
        "quantum" => "quantum",
        _ => "bounded",
    };
    let stream = format!(
        "workloads.stream_ns_per_instr.{}",
        w.benchmark.name().to_lowercase()
    );
    let mut rows = vec![
        (
            "workloads.stream x committed",
            cost(&stream) * report.committed as f64,
        ),
        (
            "cmp.cache.probe x L1 accesses",
            cost("cmp.cache.probe_ns.in16k") * probes,
        ),
        (
            "cmp.bus.arbitrate x transactions",
            cost("cmp.bus.arbitrate_ns.monotone") * report.uncore.get("bus_transactions") as f64,
        ),
        (
            "cmp.directory.access x transactions",
            cost("cmp.directory.access_ns.monotone") * report.uncore.get("dir_transactions") as f64,
        ),
        (
            "core.event.inbox x 2 x events",
            cost("core.event.inbox_ns_per_op") * 2.0 * events,
        ),
        (
            "core.scheme.window x global cycles",
            cost(&format!("core.scheme.window_ns.{scheme}")) * report.global_cycles as f64,
        ),
    ];
    match w.engine {
        // The batched engine merges staged buffers and never pops the queue.
        EngineKind::Batched => {}
        EngineKind::Sequential => rows.push((
            "core.event.gq x 2 x events",
            cost("core.event.gq_ns_per_op.push_pop") * 2.0 * events,
        )),
        EngineKind::Threaded => {
            rows.push((
                "core.event.gq x 2 x events",
                cost("core.event.gq_ns_per_op.push_pop") * 2.0 * events,
            ));
            rows.push((
                "core.sync.spsc x 2 x events",
                cost("core.sync.spsc_ns_per_op.push_pop_ring") * 2.0 * events,
            ));
        }
    }
    let threads = if w.engine == EngineKind::Threaded {
        w.cores as f64 + 1.0
    } else {
        1.0
    };
    let wall_ns = l.traced_wall_s * 1e9 * threads;
    let _ = writeln!(s, "   attribution (isolated ns/op x event count, share of traced wall x {threads} thread(s)):");
    let mut explained = 0.0;
    for (label, ns) in rows.iter().filter(|(_, ns)| *ns > 0.0) {
        explained += ns;
        let _ = writeln!(
            s,
            "     {label:<38} {:>10.3} ms {:>7.2}%",
            ns / 1e6,
            ns / wall_ns * 100.0
        );
    }
    let _ = writeln!(
        s,
        "     explained_share {:.4}   unattributed_share {:.4}",
        explained / wall_ns,
        1.0 - explained / wall_ns
    );
    if w.speculative {
        let mb = cost("core.persist.snapshot_bytes") / (1 << 20) as f64;
        let per_checkpoint = (cost("core.persist.encode_ns_per_mb.models")
            + cost("core.persist.encode_ns_per_mb.container"))
            * mb
            + cost("core.persist.write_atomic_ns");
        let ns = per_checkpoint * report.kernel.get("checkpoints") as f64;
        let _ = writeln!(
            s,
            "     persist (encode + write_atomic) x checkpoints = {:.3} ms; core.persist.share says {:.3} ms",
            ns / 1e6,
            l.metrics.get("core.persist.share").map_or(0.0, |m| m.0)
                * r.end_to_end.as_ref().map_or(0.0, |e| e.wall_s.median)
                * 1e3
        );
    }
}

/// The microbenchmark table.
pub fn micro_text(micro: &[Micro]) -> String {
    let mut s = String::from(
        "\n== isolated layer microbenchmarks (median [min .. max] of n batches; no gate)\n",
    );
    for m in micro {
        let _ = writeln!(
            s,
            "   {:<46} {:>14.3} {:<7} [{:.3} .. {:.3}] n={}",
            m.name, m.summary.median, m.unit, m.summary.min, m.summary.max, m.summary.n
        );
    }
    s
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn summary_json(sum: &Summary, unit: &str) -> String {
    format!(
        "{{\"median\":{},\"min\":{},\"max\":{},\"n\":{},\"spread\":{},\"unit\":\"{unit}\"}}",
        num(sum.median),
        num(sum.min),
        num(sum.max),
        sum.n,
        num(sum.spread)
    )
}

/// `results.json`: what `compare` reads.
pub fn results_json(opts: &Options, results: &[WorkloadResult], micro: &[Micro]) -> String {
    let header: Vec<String> = header(opts)
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":\"{}\"",
                slacksim::slacksim_core::obs::escape_json(v)
            )
        })
        .collect();
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                format!("\"attempted\":{}", r.tally.attempted),
                format!("\"failed\":{}", r.tally.failed),
                format!("\"deterministic\":{}", r.workload.deterministic()),
            ];
            if let Some(e) = &r.end_to_end {
                let metrics: Vec<String> = end_to_end_rows(e)
                    .iter()
                    .map(|(spec, sum)| {
                        format!("\"{}\":{}", spec.name, summary_json(sum, &spec.unit))
                    })
                    .collect();
                fields.push(format!("\"end_to_end\":{{{}}}", metrics.join(",")));
                fields.push(format!("\"fingerprint\":{}", e.fingerprint.to_json()));
            }
            if let Some(l) = &r.layered {
                let metrics: Vec<String> = l
                    .metrics
                    .iter()
                    .map(|(name, (v, unit))| {
                        format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
                    })
                    .collect();
                fields.push(format!("\"per_layer\":{{{}}}", metrics.join(",")));
            }
            format!("    \"{}\":{{{}}}", r.workload.name, fields.join(","))
        })
        .collect();
    let layers: Vec<String> = micro
        .iter()
        .map(|m| format!("    \"{}\":{}", m.name, summary_json(&m.summary, m.unit)))
        .collect();
    format!(
        "{{\n  \"schema\":1,\n  \"header\":{{{}}},\n  \"workloads\":{{\n{}\n  }},\n  \"layers\":{{\n{}\n  }}\n}}\n",
        header.join(","),
        workloads.join(",\n"),
        layers.join(",\n")
    )
}

/// `trace.json`: per workload, the aggregate rows and the first raw spans.
pub fn trace_json(results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .filter_map(|r| {
            Some(format!(
                "\"{}\":{}",
                r.workload.name,
                r.layered.as_ref()?.trace.to_json()
            ))
        })
        .collect();
    format!("{{{}}}\n", workloads.join(",\n"))
}

/// The line the acceptance driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every end-to-end metric or
/// every per-layer metric of `BENCHMARK.json`.
pub fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let mut metrics = Vec::new();
    if traced {
        if let Some(l) = &r.layered {
            for spec in metric_specs("per_layer") {
                let value = l.metrics.get(&spec.name).map_or(0.0, |m| m.0);
                metrics.push(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    spec.name,
                    num(value),
                    spec.unit
                ));
            }
        }
    } else if let Some(e) = &r.end_to_end {
        for (spec, sum) in end_to_end_rows(e) {
            metrics.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                spec.name,
                num(sum.median),
                spec.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.tally.failed == 0 && !metrics.is_empty(),
        r.tally.attempted.max(1),
        r.tally.failed,
        metrics.join(",")
    )
}
