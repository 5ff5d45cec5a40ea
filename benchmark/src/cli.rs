//! Command line of the `benchmark` binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::fingerprint::{self, Fingerprint};
use crate::report::{self, WorkloadResult};
use crate::run::{Options, Session};
use crate::workloads::{self, Workload};
use crate::{compare, layers};

const USAGE: &str = "\
usage:
  benchmark [--workload NAME]... [--seed N] [--seconds S] [--out-dir DIR]
      every end-to-end and per-layer metric of the chosen workloads (default:
      all six), the layer microbenchmarks and the attribution table; writes
      DIR/results.json and DIR/trace.json (default DIR: benchmark/out)
  benchmark --workload NAME --seed N --seconds S --trace 0|1
      one workload for the acceptance driver: --trace 0 measures the
      end-to-end metrics, --trace 1 the per-layer ones; the last line of
      standard output is one JSON object
  benchmark layers [--out-dir DIR]
      the isolated layer microbenchmarks alone
  benchmark compare A.json B.json
      B against A per workload and end-to-end metric; exit 1 on any `worse`
  benchmark --bless
      rewrite benchmark/golden.json from this build (seed 1, full size)
";

struct Args {
    workloads: Vec<&'static Workload>,
    opts: Options,
    trace: Option<bool>,
    bless: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        opts: Options {
            seed: 1,
            seconds: 10.0,
            scale: 1,
            out_dir: PathBuf::from("benchmark/out"),
        },
        trace: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            parsed.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed
                .workloads
                .push(workloads::by_name(value).ok_or(format!("unknown workload {value}"))?),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--out-dir" => parsed.opts.out_dir = PathBuf::from(value),
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.trace.is_some() && parsed.workloads.len() != 1 {
        return Err("--trace takes exactly one --workload".to_owned());
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = workloads::ALL.iter().collect();
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Measures one workload: end to end, traced, or both (`trace: None`).
pub fn measure(w: &'static Workload, opts: &Options, trace: Option<bool>) -> WorkloadResult {
    let mut session = Session::new(w, opts, false);
    let mut result = WorkloadResult {
        workload: w,
        tally: Default::default(),
        end_to_end: None,
        layered: None,
        prof: None,
    };
    if trace != Some(true) {
        result.end_to_end = session.end_to_end();
    }
    if trace != Some(false) {
        let baseline = match &result.end_to_end {
            Some(e) => Some((e.wall_s.median, e.fingerprint.clone())),
            None if trace.is_some() => session.baseline(),
            None => None,
        };
        if let Some((wall_s, fingerprint)) = baseline {
            result.layered = session.layered(wall_s, &fingerprint);
        }
    }
    if trace.is_none() {
        result.prof = session.profiled();
    }
    result.tally = session.tally;
    result
}

fn run(args: &Args) -> Result<bool, String> {
    let opts = &args.opts;
    print!("{}", report::header_text(opts));
    let micro = if args.trace.is_none() {
        let micro = layers::run_all(&opts.out_dir);
        print!("{}", report::micro_text(&micro));
        micro
    } else {
        Vec::new()
    };
    let mut results = Vec::new();
    for w in &args.workloads {
        let result = measure(w, opts, args.trace);
        print!("{}", report::workload_text(&result, &micro));
        results.push(result);
    }
    if args.trace != Some(false) {
        write_file(
            &opts.out_dir.join("trace.json"),
            &report::trace_json(&results),
        )?;
    }
    let ok = results.iter().all(|r| {
        r.tally.failed == 0
            && (args.trace == Some(true) || r.end_to_end.is_some())
            && (args.trace == Some(false) || r.layered.is_some())
    });
    match args.trace {
        Some(traced) => println!("{}", report::contract_line(&results[0], traced)),
        None => {
            let path = opts.out_dir.join("results.json");
            write_file(&path, &report::results_json(opts, &results, &micro))?;
            println!(
                "\nwrote {} and trace.json beside it; {}",
                path.display(),
                if ok {
                    "every check passed"
                } else {
                    "CHECKS FAILED"
                }
            );
        }
    }
    Ok(ok)
}

fn bless(opts: &Options) -> Result<bool, String> {
    if opts.seed != fingerprint::GOLDEN_SEED {
        return Err(format!("goldens are for seed {}", fingerprint::GOLDEN_SEED));
    }
    let mut goldens: BTreeMap<String, Fingerprint> = BTreeMap::new();
    for w in workloads::ALL.iter().filter(|w| w.deterministic()) {
        let mut session = Session::new(w, opts, true);
        let Some((fp, _)) = session.warm_up() else {
            return Err(session.tally.failures.join("\n"));
        };
        println!("blessed {}", w.name);
        goldens.insert(w.name.to_owned(), fp);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    write_file(&path, &fingerprint::render_goldens(&goldens))?;
    println!("wrote {}; rebuild to compile it in", path.display());
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two result files".to_owned());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (table, any_worse) = compare::compare(&read(a)?, &read(b)?)?;
            print!("{table}");
            Ok(!any_worse)
        }
        Some("layers") => {
            let parsed = parse(&args[1..])?;
            print!("{}", report::header_text(&parsed.opts));
            print!(
                "{}",
                report::micro_text(&layers::run_all(&parsed.opts.out_dir))
            );
            Ok(true)
        }
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(true)
        }
        _ => {
            let parsed = parse(args)?;
            if parsed.bless {
                bless(&parsed.opts)
            } else {
                run(&parsed)
            }
        }
    }
}

/// Runs the command line; the exit code is 0 when every check passed, 1
/// when one failed (or `compare` found a `worse`), 2 on a usage error.
pub fn main(args: Vec<String>) -> ExitCode {
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
