//! The harness run small: every workload at 1/50 size through the same
//! code the command line uses, checked against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use slacksim::slacksim_core::obs::json::Json;
use slacksim_benchmark::alloc::CountingAlloc;
use slacksim_benchmark::report::{self, metric_specs, WorkloadResult, BENCHMARK_JSON};
use slacksim_benchmark::run::Options;
use slacksim_benchmark::{cli, compare, layers, workloads};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn options(dir: &str) -> Options {
    Options {
        seed: 7,
        seconds: 0.1,
        scale: 50,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

fn keys(v: &Json) -> BTreeSet<String> {
    v.as_object()
        .expect("a JSON object")
        .keys()
        .cloned()
        .collect()
}

fn names(specs: &[report::MetricSpec]) -> BTreeSet<String> {
    specs.iter().map(|m| m.name.clone()).collect()
}

/// One test, because the counting allocator measures one run at a time.
#[test]
fn every_workload_runs_small_and_reports_the_declared_schema() {
    let opts = options("schema");
    let results: Vec<WorkloadResult> = workloads::ALL
        .iter()
        .map(|w| cli::measure(w, &opts, None))
        .collect();

    for r in &results {
        let name = r.workload.name;
        assert_eq!(r.tally.failed, 0, "{name}: {:?}", r.tally.failures);
        // Wrapper transparency is one of the checks behind `failed == 0`:
        // a traced fingerprint that differs yields no `layered`.
        let (e, l) = (r.end_to_end.as_ref().unwrap(), r.layered.as_ref().unwrap());
        assert!(
            e.commits_per_s.n >= 5 && e.commits_per_s.median > 0.0,
            "{name}"
        );
        assert!(e.setup_s.median > 0.0 && e.peak_heap_mb > 0.0, "{name}");
        assert!(l.metrics["cmp.core.ticks"].0 > 0.0, "{name}");
        let speculative = r.workload.speculative;
        // The threaded engine clones the uncore once at start; nothing else
        // touches the checkpoint layer with speculation off.
        assert_eq!(
            l.metrics["core.checkpoint.ops"].0 > 1.0,
            speculative,
            "{name}"
        );
        assert_eq!(
            l.metrics["core.persist.share"].0 != 0.0,
            speculative,
            "{name}"
        );
        let (bus, dir) = (
            l.metrics["cmp.bus.events"].0,
            l.metrics["cmp.directory.events"].0,
        );
        assert!(
            (bus > 0.0) != (dir > 0.0),
            "{name}: never both interconnects"
        );

        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = Json::parse(&report::contract_line(r, traced)).unwrap();
            let expected = ["attempted", "correct", "failed", "metrics"].map(String::from);
            assert_eq!(keys(&line), BTreeSet::from(expected), "{name}");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{name}");
            let metrics = line.get("metrics").unwrap();
            assert_eq!(
                keys(metrics),
                names(&metric_specs(section)),
                "{name} {section}"
            );
            for spec in metric_specs(section) {
                let m = metrics.get(&spec.name).unwrap();
                assert_eq!(keys(m), BTreeSet::from(["unit", "value"].map(String::from)));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(spec.unit.as_str())
                );
            }
        }
    }

    let text: String = results
        .iter()
        .map(|r| report::workload_text(r, &[]))
        .collect();
    let file = report::results_json(&opts, &results, &[]);
    let doc = Json::parse(&file).unwrap();
    for w in &workloads::ALL {
        assert!(text.contains(w.name) && doc.get("workloads").unwrap().get(w.name).is_some());
    }
    for spec in metric_specs("end_to_end")
        .iter()
        .chain(&metric_specs("per_layer"))
    {
        assert!(text.contains(&spec.name), "{} is not printed", spec.name);
    }
    Json::parse(&report::trace_json(&results)).expect("trace.json is valid JSON");

    // `compare` on the real file against itself, then against synthetic
    // slowdowns of the first workload: 30 % is past the 25 % bound, 2 % is
    // inside it.
    let (table, any_worse) = compare::compare(&file, &file).unwrap();
    assert!(!any_worse && !table.contains("DIFFER"), "{table}");
    assert_eq!(
        table.matches("exact counts identical").count(),
        6,
        "{table}"
    );
    let slowed = |factor: f64| {
        let mut results: Vec<WorkloadResult> = workloads::ALL
            .iter()
            .zip(&results)
            .map(|(w, r)| WorkloadResult {
                workload: w,
                tally: r.tally.clone(),
                end_to_end: r.end_to_end.clone(),
                layered: None,
                prof: None,
            })
            .collect();
        for r in &mut results {
            let e = r.end_to_end.as_mut().unwrap();
            // Spreads inside every bound, so the verdict is about the median.
            e.commits_per_s.spread = 0.01;
            e.setup_s.spread = 0.01;
            if r.workload.name == workloads::ALL[0].name {
                e.commits_per_s.median *= factor;
            }
        }
        report::results_json(&opts, &results, &[])
    };
    let base = slowed(1.0);
    let (table, any_worse) = compare::compare(&base, &slowed(0.7)).unwrap();
    assert!(
        any_worse && table.matches(" worse (").count() == 1,
        "{table}"
    );
    let (table, any_worse) = compare::compare(&base, &slowed(0.98)).unwrap();
    assert!(!any_worse && !table.contains(" worse ("), "{table}");
    assert!(table.matches(" same (").count() >= 6, "{table}");
}

#[test]
fn benchmark_json_and_the_workload_table_agree() {
    let doc = Json::parse(BENCHMARK_JSON).unwrap();
    let declared: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            let text = |k| w.get(k).and_then(Json::as_str).unwrap();
            (text("name"), text("why"))
        })
        .collect();
    let table: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, table);

    let legal = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let specs: Vec<_> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| metric_specs(s))
        .collect();
    for spec in &specs {
        assert!(legal(&spec.name, "_.-", 64), "{}", spec.name);
        assert!(
            legal(&spec.unit, "_/%.-", 16),
            "{} {}",
            spec.name,
            spec.unit
        );
    }
    assert_eq!(
        names(&specs).len(),
        specs.len(),
        "a metric name is used once"
    );
    for spec in metric_specs("end_to_end") {
        assert!(
            spec.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
            "{}",
            spec.name
        );
    }
    assert!(metric_specs("per_layer").iter().all(|m| m.bound.is_none()));
}

#[test]
fn every_layer_the_issue_names_has_a_microbenchmark() {
    let micro = layers::run_all(&options("layers").out_dir);
    for prefix in [
        "core.event.gq_ns_per_op",
        "core.event.inbox_ns_per_op",
        "core.sync.spsc_ns_per_op",
        "core.scheme.window_ns",
        "cmp.cache.probe_ns",
        "cmp.bus.arbitrate_ns",
        "cmp.directory.access_ns",
        "workloads.stream_ns_per_instr",
        "core.persist.encode_ns_per_mb",
        "core.persist.decode_ns_per_mb",
        "core.persist.write_atomic_ns",
    ] {
        let found = micro.iter().find(|m| m.name.starts_with(prefix));
        let m = found.unwrap_or_else(|| panic!("no microbenchmark for {prefix}"));
        assert!(m.summary.median > 0.0 && m.summary.n >= 5, "{}", m.name);
    }
}
