//! Integration tests for the `slacksim` binary's usage surface: `--help`
//! must enumerate every accepted `--scheme`/`--engine`/`--benchmark`
//! value, and invalid flag values must fail with exit code 2 and an error
//! message that enumerates the accepted values — never silently fall back
//! to a default configuration.

use std::process::{Command, Output};

fn slacksim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(args)
        .output()
        .expect("spawn slacksim binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts a usage failure: exit code 2, an `error:` line mentioning every
/// expected token, and the pointer at `--help`.
fn assert_usage_error(out: &Output, expect: &[&str]) {
    assert_eq!(out.status.code(), Some(2), "usage errors exit with code 2");
    let err = stderr(out);
    assert!(
        err.starts_with("error: "),
        "stderr starts with error:, got {err:?}"
    );
    for token in expect {
        assert!(
            err.contains(token),
            "stderr must mention {token:?}, got {err:?}"
        );
    }
    assert!(
        err.contains("slacksim --help"),
        "stderr points at --help, got {err:?}"
    );
}

#[test]
fn help_enumerates_scheme_engine_and_benchmark_values() {
    for flag in ["--help", "-h"] {
        let out = slacksim(&[flag]);
        assert!(out.status.success(), "{flag} exits 0");
        let text = stdout(&out);
        assert!(
            text.contains("cc|bounded|unbounded|quantum|adaptive|p2p"),
            "help enumerates --scheme values"
        );
        assert!(
            text.contains("seq|threaded|batched"),
            "help enumerates --engine values"
        );
        assert!(
            text.contains("barnes|fft|lu|water"),
            "help enumerates --benchmark values"
        );
        assert!(
            text.contains("all|map|none"),
            "help enumerates --rollback values"
        );
    }
}

#[test]
fn unknown_scheme_enumerates_accepted_values() {
    let out = slacksim(&["--scheme", "warp"]);
    assert_usage_error(&out, &["warp", "cc|bounded|unbounded|quantum|adaptive|p2p"]);
}

#[test]
fn unknown_engine_enumerates_accepted_values() {
    let out = slacksim(&["--engine", "turbo"]);
    assert_usage_error(&out, &["turbo", "seq|threaded|batched"]);
}

/// `--engine batched` takes the greedy schemes too, as seeded rounds on
/// its window loop: a bounded run prints a report with violations in it,
/// the same one `--engine threaded` prints.
#[test]
fn batched_engine_runs_greedy_schemes() {
    let report = |engine: &str| {
        let out = slacksim(&[
            "--engine", engine, "--scheme", "bounded", "--bound", "8", "--commit", "20000",
        ]);
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        stdout(&out)
            .lines()
            .filter(|l| !l.starts_with("wall clock") && !l.starts_with("speed"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let batched = report("batched");
    assert!(batched.contains("committed"), "{batched}");
    assert!(
        batched
            .lines()
            .any(|l| l.starts_with("violations") && !l.contains(": 0 ")),
        "{batched}"
    );
    assert_eq!(batched, report("threaded"));
    // The default scheme, cycle-by-cycle, is a quantum of one and runs.
    let out = slacksim(&["--engine", "batched", "--commit", "2000"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

/// `--engine batched --scheme cc` is the sequential engine's cycle-by-cycle
/// run: the verbose report is the same apart from the host-time lines.
#[test]
fn batched_cc_prints_the_sequential_report() {
    let report = |engine: &str| {
        let out = slacksim(&[
            "--engine",
            engine,
            "--scheme",
            "cc",
            "--benchmark",
            "water",
            "--cores",
            "8",
            "--commit",
            "20000",
            "--verbose",
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        stdout(&out)
            .lines()
            .filter(|l| !l.starts_with("wall clock") && !l.starts_with("speed"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let sequential = report("seq");
    assert!(
        sequential.iter().any(|l| l.contains("rollbacks")),
        "verbose report printed: {sequential:?}"
    );
    assert_eq!(report("batched"), sequential);
}

#[test]
fn batched_engine_rejects_a_zero_quantum() {
    let out = slacksim(&[
        "--engine",
        "batched",
        "--scheme",
        "quantum",
        "--quantum",
        "0",
    ]);
    assert_usage_error(&out, &["--quantum"]);
}

#[test]
fn batched_quantum_run_succeeds_and_matches_sequential() {
    let batched = slacksim(&[
        "--engine",
        "batched",
        "--scheme",
        "quantum",
        "--quantum",
        "50",
        "--benchmark",
        "fft",
        "--cores",
        "4",
        "--commit",
        "20000",
    ]);
    assert!(batched.status.success(), "batched run exits 0");
    let sequential = slacksim(&[
        "--engine",
        "seq",
        "--scheme",
        "quantum",
        "--quantum",
        "50",
        "--benchmark",
        "fft",
        "--cores",
        "4",
        "--commit",
        "20000",
    ]);
    assert!(sequential.status.success(), "sequential run exits 0");
    let pick = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| {
                l.starts_with("execution time")
                    || l.starts_with("committed")
                    || l.starts_with("violations")
            })
            .map(str::to_string)
            .collect()
    };
    let (b, s) = (pick(&batched), pick(&sequential));
    assert_eq!(b.len(), 3, "report lines present: {b:?}");
    assert_eq!(b, s, "batched and sequential reports diverge");
}

#[test]
fn out_of_range_cores_fail_with_exit_2_not_a_panic() {
    // Regression: these used to panic inside config construction and die
    // with a raw backtrace instead of the enumerated usage contract.
    let out = slacksim(&["--cores", "32"]);
    assert_usage_error(
        &out,
        &[
            "--cores must be between 1 and 16 for the bus uncore (got 32)",
            "--uncore directory",
        ],
    );
    let out = slacksim(&["--cores", "0"]);
    assert_usage_error(&out, &["--cores must be between 1 and 16", "(got 0)"]);
    // The directory uncore has its own (much higher) ceiling.
    let out = slacksim(&["--uncore", "directory", "--cores", "2048"]);
    assert_usage_error(
        &out,
        &["--cores must be between 1 and 1024 for the directory uncore (got 2048)"],
    );
}

/// The sharded manager tree is gone: its flag is an unknown argument on
/// every engine, whatever its value.
#[test]
fn the_removed_shards_flag_is_an_unknown_argument_on_every_engine() {
    let out = slacksim(&["--shards", "4"]);
    assert_usage_error(&out, &["unknown argument '--shards'"]);
    let out = slacksim(&[
        "--engine", "batched", "--scheme", "quantum", "--shards", "2",
    ]);
    assert_usage_error(&out, &["unknown argument '--shards'"]);
    let out = slacksim(&["--engine", "threaded", "--shards", "0"]);
    assert_usage_error(&out, &["unknown argument '--shards'"]);
}

#[test]
fn a_sharded_threaded_run_is_refused_and_help_drops_shards() {
    let out = slacksim(&[
        "--engine", "threaded", "--shards", "2", "--cores", "4", "--commit", "2000",
    ]);
    assert_usage_error(&out, &["unknown argument '--shards'"]);
    assert!(stdout(&out).is_empty(), "no report printed");
    let help = slacksim(&["--help"]);
    assert!(help.status.success());
    assert!(!stdout(&help).contains("shards"), "help still lists it");
}

#[test]
fn host_threads_on_the_sequential_engine_are_rejected() {
    // The sequential engine steps every core on one thread: accepting
    // the flag there would silently do nothing.
    let out = slacksim(&["--host-threads", "2"]);
    assert_usage_error(
        &out,
        &["--host-threads requires --engine threaded or batched"],
    );
    let out = slacksim(&["--engine", "seq", "--host-threads", "1"]);
    assert_usage_error(
        &out,
        &["--host-threads requires --engine threaded or batched"],
    );
    let out = slacksim(&["--engine", "threaded", "--host-threads", "0"]);
    assert_usage_error(&out, &["--host-threads must be at least 1 (got 0)"]);
    let batched = ["--engine", "batched", "--scheme", "quantum"];
    let out = slacksim(&[&batched[..], &["--host-threads", "0"]].concat());
    assert_usage_error(&out, &["--host-threads must be at least 1 (got 0)"]);
    let out = slacksim(&[&batched[..], &["--host-threads", "two"]].concat());
    assert_usage_error(&out, &["invalid value 'two' for --host-threads"]);
    let out = slacksim(&[&batched[..], &["--host-threads"]].concat());
    assert_usage_error(&out, &["flag '--host-threads' expects a value"]);
}

#[test]
fn barrier_runs_print_one_report_at_every_host_thread_count() {
    for (engine, scheme) in [("batched", "quantum"), ("threaded", "cc")] {
        let report = |threads: &str| {
            let out = slacksim(&[
                "--engine",
                engine,
                "--scheme",
                scheme,
                "--cores",
                "8",
                "--commit",
                "20000",
                "--host-threads",
                threads,
            ]);
            assert!(out.status.success(), "stderr: {}", stderr(&out));
            // Everything but the two host-time lines.
            stdout(&out)
                .lines()
                .filter(|l| !l.starts_with("wall clock") && !l.starts_with("speed"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let one = report("1");
        assert!(one.len() >= 4, "report printed to stdout: {one:?}");
        // More threads than cores is capped, not refused.
        for threads in ["2", "3", "64"] {
            assert_eq!(report(threads), one, "{engine} --host-threads {threads}");
        }
    }
    let help = slacksim(&["--help"]);
    assert!(
        stdout(&help).contains("--host-threads N"),
        "help documents --host-threads"
    );
}

#[test]
fn unknown_uncore_enumerates_accepted_values() {
    let out = slacksim(&["--uncore", "ring"]);
    assert_usage_error(&out, &["ring", "bus|directory"]);
}

#[test]
fn help_enumerates_uncore_values() {
    let out = slacksim(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("bus|directory"),
        "help enumerates --uncore values"
    );
    assert!(
        text.contains("--uncore directory --cores 64"),
        "help shows a directory-scale example"
    );
}

#[test]
fn directory_uncore_run_succeeds_past_the_bus_cap() {
    let out = slacksim(&[
        "--uncore",
        "directory",
        "--benchmark",
        "fft",
        "--scheme",
        "bounded",
        "--bound",
        "8",
        "--cores",
        "64",
        "--commit",
        "5000",
    ]);
    assert!(
        out.status.success(),
        "64-core directory run exits 0: {}",
        stderr(&out)
    );
    assert!(!stdout(&out).is_empty(), "report printed to stdout");
}

#[test]
fn unknown_benchmark_enumerates_accepted_values() {
    let out = slacksim(&["--benchmark", "raytrace"]);
    assert_usage_error(&out, &["raytrace", "barnes|fft|lu|water"]);
}

#[test]
fn unknown_rollback_selection_enumerates_accepted_values() {
    let out = slacksim(&["--checkpoint", "1000", "--rollback", "sometimes"]);
    assert_usage_error(&out, &["sometimes", "all|map|none"]);
}

#[test]
fn rollback_without_checkpoint_is_rejected() {
    let out = slacksim(&["--rollback", "all"]);
    assert_usage_error(&out, &["--rollback requires --checkpoint"]);
}

/// The capture-mode flag was removed with the mode; it must be refused by
/// name like any unknown flag, not ignored. Spelled in two pieces so a
/// grep for the removed flag finds nothing in the tree.
#[test]
fn the_removed_checkpoint_mode_flag_is_rejected_by_name() {
    let removed = ["--checkpoint", "mode"].join("-");
    let out = slacksim(&["--checkpoint", "1000", &removed, "delta"]);
    assert_usage_error(&out, &["unknown argument", &removed]);
    let help = slacksim(&["--help"]);
    assert!(help.status.success());
    assert!(!stdout(&help).contains(&removed), "help still lists it");
}

#[test]
fn small_speculative_run_succeeds() {
    let out = slacksim(&[
        "--scheme",
        "bounded",
        "--cores",
        "2",
        "--commit",
        "2000",
        "--checkpoint",
        "500",
        "--rollback",
        "all",
    ]);
    assert!(
        out.status.success(),
        "speculative run exits 0: {}",
        stderr(&out)
    );
    assert!(!stdout(&out).is_empty(), "report printed to stdout");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = slacksim(&["--frobnicate"]);
    assert_usage_error(&out, &["unknown argument '--frobnicate'"]);
}

#[test]
fn stray_positional_argument_is_rejected() {
    let out = slacksim(&["fft"]);
    assert_usage_error(&out, &["unknown argument 'fft'"]);
}

#[test]
fn value_flag_missing_its_value_is_rejected() {
    let out = slacksim(&["--scheme"]);
    assert_usage_error(&out, &["'--scheme' expects a value"]);
}

#[test]
fn repeated_flag_is_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--cores", "2", "--cores", "64", "--commit", "1000"],
            "--cores",
        ),
        (&["--verbose", "--commit", "1000", "--verbose"], "--verbose"),
    ];
    for (args, flag) in cases {
        let out = slacksim(args);
        assert_usage_error(&out, &[&format!("flag '{flag}' given more than once")]);
    }
}

#[test]
fn value_flag_followed_by_a_flag_is_missing_its_value() {
    // The flag after `--trace` is not its file name: no trace may be
    // written to a file called `--verbose`.
    let dir = sweep_scratch("swallow");
    let out = Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(["--trace", "--verbose", "--commit", "1000"])
        .current_dir(&dir)
        .output()
        .expect("spawn slacksim binary");
    assert_usage_error(&out, &["flag '--trace' expects a value"]);
    assert!(
        !dir.join("--verbose").exists(),
        "a trace was written to a file named after the next flag"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_numeric_value_is_rejected() {
    for (flag, bad) in [("--cores", "many"), ("--commit", "1e9"), ("--bound", "-3")] {
        let out = slacksim(&["--scheme", "bounded", flag, bad]);
        assert_usage_error(&out, &[&format!("invalid value '{bad}' for {flag}")]);
    }
}

#[test]
fn zero_valued_quantities_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (&["--checkpoint", "0"], "--checkpoint"),
        (&["--scheme", "bounded", "--bound", "0"], "--bound"),
        (&["--scheme", "quantum", "--quantum", "0"], "--quantum"),
        (&["--scheme", "p2p", "--bound", "0"], "--bound"),
        (&["--scheme", "p2p", "--period", "0"], "--period"),
        (&["--sample-every", "0"], "--sample-every"),
    ];
    for (args, flag) in cases {
        let out = slacksim(args);
        assert_usage_error(&out, &[&format!("{flag} must be at least 1 (got 0)")]);
    }
}

#[test]
fn degenerate_adaptive_target_and_band_are_rejected() {
    for bad in ["0", "-0.5", "nan", "inf"] {
        let out = slacksim(&["--scheme", "adaptive", "--target", bad]);
        assert_usage_error(&out, &["--target must be a finite percentage > 0"]);
    }
    for bad in ["-1", "nan", "-inf"] {
        let out = slacksim(&["--scheme", "adaptive", "--band", bad]);
        assert_usage_error(&out, &["--band must be a finite percentage >= 0"]);
    }
}

#[test]
fn save_state_without_checkpoint_is_rejected() {
    let out = slacksim(&["--save-state", "/tmp/nowhere"]);
    assert_usage_error(&out, &["--save-state requires --checkpoint"]);
}

#[test]
fn resume_from_missing_file_is_refused_with_exit_2() {
    let out = slacksim(&[
        "--checkpoint",
        "500",
        "--resume",
        "/nonexistent/slacksim-snapshot",
    ]);
    // Unlike flag validation this fails after the run banner, so the
    // error line is not the first stderr line — but the exit code and
    // message style are the same usage-error contract.
    assert_eq!(out.status.code(), Some(2), "refused resume exits 2");
    let err = stderr(&out);
    for token in [
        "error: cannot resume",
        "/nonexistent/slacksim-snapshot",
        "slacksim --help",
    ] {
        assert!(err.contains(token), "stderr mentions {token:?}: {err:?}");
    }
}

#[test]
fn help_documents_save_state_and_resume() {
    let out = slacksim(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("--save-state"), "help documents --save-state");
    assert!(text.contains("--resume"), "help documents --resume");
}

#[test]
fn small_valid_run_succeeds_and_prints_a_report() {
    let out = slacksim(&[
        "--benchmark",
        "fft",
        "--scheme",
        "bounded",
        "--bound",
        "8",
        "--cores",
        "2",
        "--commit",
        "2000",
    ]);
    assert!(out.status.success(), "valid run exits 0: {}", stderr(&out));
    let text = stdout(&out);
    assert!(!text.is_empty(), "report printed to stdout");
}

#[test]
fn help_documents_profiling_live_telemetry_and_report() {
    let out = slacksim(&["--help"]);
    let text = stdout(&out);
    for token in [
        "--profile",
        "--profile-csv",
        "--live-stderr",
        "--live-status",
        "--live-every",
        "slacksim report PATH...",
    ] {
        assert!(text.contains(token), "help must document {token}");
    }
}

#[test]
fn live_every_without_a_sink_is_rejected() {
    let out = slacksim(&["--live-every", "100"]);
    assert_usage_error(&out, &["--live-every", "--live-stderr", "--live-status"]);
}

#[test]
fn profiled_run_prints_the_host_time_table_and_writes_csv() {
    let dir = std::env::temp_dir().join(format!("slacksim-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("prof.csv");
    let status_path = dir.join("live.json");
    let out = slacksim(&[
        "--cores",
        "2",
        "--commit",
        "20000",
        "--profile",
        "--profile-csv",
        csv_path.to_str().unwrap(),
        "--live-status",
        status_path.to_str().unwrap(),
        "--live-every",
        "5",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("host-time profile:"), "table printed: {text}");
    assert!(text.contains("core-tick"), "table lists the tick site");
    assert!(text.contains("coverage"), "table footer states coverage");

    let csv = std::fs::read_to_string(&csv_path).expect("profile CSV written");
    assert!(csv.starts_with("site,count,total_ns,self_ns,self_share"));
    let status = std::fs::read_to_string(&status_path).expect("status file written");
    assert_eq!(status.lines().count(), 1, "one atomic beat in the file");

    // `slacksim report` renders both artifacts and exits 0.
    let rep = slacksim(&[
        "report",
        csv_path.to_str().unwrap(),
        status_path.to_str().unwrap(),
    ]);
    assert!(rep.status.success(), "stderr: {}", stderr(&rep));
    let rendered = stdout(&rep);
    assert!(rendered.contains("host-time profile"));
    assert!(rendered.contains("live-status heartbeats"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_without_paths_exits_2() {
    let out = slacksim(&["report"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("report expects at least one PATH"));
}

// --- `slacksim sweep` usage surface ---------------------------------

/// Fresh scratch directory for one sweep test.
fn sweep_scratch(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slacksim-cli-sweep-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts a usage failure on the sweep path: exit 2, an `error:` line
/// mentioning every token, and the pointer at the *sweep* help — both
/// flag validation and `run_sweep` setup errors cite `sweep --help`,
/// never the single-run help.
fn assert_sweep_error(out: &Output, expect: &[&str]) {
    assert_eq!(out.status.code(), Some(2), "sweep errors exit with code 2");
    let err = stderr(out);
    assert!(
        err.contains("error: "),
        "stderr carries an error line, got {err:?}"
    );
    for token in expect {
        assert!(
            err.contains(token),
            "stderr must mention {token:?}, got {err:?}"
        );
    }
    assert!(
        err.contains("slacksim sweep --help"),
        "stderr points at sweep --help, got {err:?}"
    );
}

#[test]
fn sweep_without_dir_is_rejected() {
    let out = slacksim(&["sweep", "--workers", "2"]);
    assert_sweep_error(&out, &["--dir"]);
}

#[test]
fn sweep_unknown_flag_is_rejected() {
    let out = slacksim(&["sweep", "--dir", "/tmp/nowhere", "--frobnicate"]);
    assert_sweep_error(&out, &["unknown argument '--frobnicate'"]);
}

#[test]
fn sweep_repeated_flag_is_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (&["sweep", "--dir", "/tmp/a", "--dir", "/tmp/b"], "--dir"),
        (
            &[
                "sweep",
                "--dir",
                "/tmp/nowhere",
                "--live-stderr",
                "--live-stderr",
            ],
            "--live-stderr",
        ),
    ];
    for (args, flag) in cases {
        let out = slacksim(args);
        assert_sweep_error(&out, &[&format!("flag '{flag}' given more than once")]);
    }
}

#[test]
fn sweep_zero_workers_is_rejected() {
    let out = slacksim(&["sweep", "--dir", "/tmp/nowhere", "--workers", "0"]);
    assert_sweep_error(&out, &["--workers must be at least 1 (got 0)"]);
}

#[test]
fn sweep_live_every_without_a_sink_is_rejected() {
    let out = slacksim(&["sweep", "--dir", "/tmp/nowhere", "--live-every", "50"]);
    assert_sweep_error(&out, &["--live-every", "--live-stderr", "--live-status"]);
}

#[test]
fn sweep_unreadable_spec_is_rejected() {
    let out = slacksim(&[
        "sweep",
        "--dir",
        "/tmp/nowhere",
        "--spec",
        "/nonexistent/sweep.json",
    ]);
    assert_sweep_error(&out, &["cannot read sweep spec", "/nonexistent/sweep.json"]);
}

#[test]
fn sweep_without_spec_or_manifest_is_rejected() {
    let dir = sweep_scratch("nomanifest");
    let out = slacksim(&["sweep", "--dir", dir.to_str().unwrap()]);
    assert_sweep_error(&out, &["no sweep spec given", "manifest"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_bad_grid_values_are_rejected_with_enumerated_errors() {
    let cases: &[(&str, &[&str])] = &[
        (
            r#"{"v":1,"commit":100,"axes":{"scheme":["warp"],"workload":["fft"]}}"#,
            &["warp", "cc|bounded|unbounded|quantum|adaptive|p2p"],
        ),
        (
            r#"{"v":1,"commit":100,"axes":{"scheme":["cc"],"workload":["raytrace"]}}"#,
            &["raytrace", "barnes|fft|lu|water"],
        ),
        (
            r#"{"v":1,"commit":100,"axes":{"scheme":["cc"],"workload":["fft"],"cores":[17]}}"#,
            &["17", "out of range"],
        ),
        (
            r#"{"v":1,"commit":100,"axes":{"scheme":["cc"],"workload":["fft"],"bound":[8,8]}}"#,
            &["repeats value 8"],
        ),
        (
            r#"{"v":1,"commit":100,"axes":{"scheme":["cc"],"workload":["fft"],"uncore":["ring"]}}"#,
            &["ring", "bus|directory"],
        ),
        (
            // A mixed uncore axis caps cores at the *strictest* member:
            // the grid is a full product, so 64-core bus cells would be
            // unrunnable.
            r#"{"v":1,"commit":100,"axes":{"scheme":["cc"],"workload":["fft"],"uncore":["bus","directory"],"cores":[64]}}"#,
            &["64", "bus", "out of range"],
        ),
        (
            // The removed manager tree's axis, even on the threaded engine.
            r#"{"v":1,"commit":100,"engine":"threaded","axes":{"scheme":["cc"],"workload":["fft"],"shards":[1,4]}}"#,
            &["unknown sweep-spec field 'axes.shards'"],
        ),
    ];
    let dir = sweep_scratch("badgrid");
    for (i, (spec, expect)) in cases.iter().enumerate() {
        let spec_path = dir.join(format!("spec-{i}.json"));
        std::fs::write(&spec_path, spec).unwrap();
        let out = slacksim(&[
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--dir",
            dir.join(format!("camp-{i}")).to_str().unwrap(),
        ]);
        assert_sweep_error(&out, expect);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batched campaign runs a `cc` axis as quantum 1: its job settles with
/// the sequential engine's cycle-by-cycle numbers.
#[test]
fn sweep_batched_engine_runs_a_cc_axis() {
    let dir = sweep_scratch("batchedcc");
    let outcome = |engine: &str| {
        let spec = dir.join(format!("{engine}.json"));
        std::fs::write(
            &spec,
            format!(
                r#"{{"v":1,"commit":2000,"engine":"{engine}","axes":{{
                    "scheme":["cc"],"cores":[4],"workload":["fft"],"seed":[1]}}}}"#
            ),
        )
        .unwrap();
        let camp = dir.join(engine);
        let out = slacksim(&[
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--dir",
            camp.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("campaign: 1 jobs settled (0 skipped, 0 resumed, 0 failed)"),
            "{engine}: {}",
            stdout(&out)
        );
        let row = std::fs::read_to_string(camp.join("aggregate.jsonl")).unwrap();
        let at = row.find("\"cycles\"").expect("a cycles field");
        row[at..].to_owned()
    };
    assert_eq!(outcome("batched"), outcome("seq"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batched campaign takes a greedy axis: its one bounded job settles,
/// with the threaded engine's numbers, which are the same window loop's.
#[test]
fn sweep_batched_engine_runs_a_greedy_axis() {
    let dir = sweep_scratch("batchedgreedy");
    let outcome = |engine: &str| {
        let spec = dir.join(format!("{engine}.json"));
        std::fs::write(
            &spec,
            format!(
                r#"{{"v":1,"commit":2000,"engine":"{engine}","axes":{{
                    "scheme":["bounded"],"bound":[16],"cores":[4],"workload":["fft"],"seed":[1]}}}}"#
            ),
        )
        .unwrap();
        let camp = dir.join(engine);
        let out = slacksim(&[
            "sweep",
            "--spec",
            spec.to_str().unwrap(),
            "--dir",
            camp.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("campaign: 1 jobs settled (0 skipped, 0 resumed, 0 failed)"),
            "{engine}: {}",
            stdout(&out)
        );
        let row = std::fs::read_to_string(camp.join("aggregate.jsonl")).unwrap();
        let at = row.find("\"cycles\"").expect("a cycles field");
        row[at..].to_owned()
    };
    assert_eq!(outcome("batched"), outcome("threaded"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_conflicting_spec_against_manifest_is_rejected() {
    let dir = sweep_scratch("mismatch");
    let camp = dir.join("camp");
    let spec_a = dir.join("a.json");
    std::fs::write(
        &spec_a,
        r#"{"v":1,"commit":200,"axes":{"scheme":["cc"],"cores":[1],"workload":["fft"]}}"#,
    )
    .unwrap();
    let out = slacksim(&[
        "sweep",
        "--spec",
        spec_a.to_str().unwrap(),
        "--dir",
        camp.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "first campaign exits 0: {}",
        stderr(&out)
    );
    // A different grid against the same directory must be refused.
    let spec_b = dir.join("b.json");
    std::fs::write(
        &spec_b,
        r#"{"v":1,"commit":400,"axes":{"scheme":["cc"],"cores":[1],"workload":["fft"]}}"#,
    )
    .unwrap();
    let out = slacksim(&[
        "sweep",
        "--spec",
        spec_b.to_str().unwrap(),
        "--dir",
        camp.to_str().unwrap(),
    ]);
    assert_sweep_error(&out, &["does not match the campaign recorded in"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_help_documents_the_spec_format() {
    let out = slacksim(&["sweep", "--help"]);
    assert!(out.status.success(), "sweep --help exits 0");
    let text = stdout(&out);
    for token in [
        "--spec",
        "--dir",
        "--workers",
        "cc|bounded|unbounded|quantum|adaptive|p2p",
        "barnes|fft|lu|water",
        "seq|threaded|batched",
    ] {
        assert!(text.contains(token), "sweep help must document {token}");
    }
    let main = slacksim(&["--help"]);
    assert!(
        stdout(&main).contains("slacksim sweep --spec FILE --dir DIR"),
        "main help must point at the sweep subcommand"
    );
}

#[test]
fn report_renders_every_campaign_artifact() {
    let dir = sweep_scratch("report");
    let camp = dir.join("camp");
    let spec = dir.join("sweep.json");
    std::fs::write(
        &spec,
        r#"{"v":1,"commit":500,"axes":{
            "scheme":["cc","bounded"],"bound":[8],"cores":[2],
            "workload":["fft"],"seed":[1]}}"#,
    )
    .unwrap();
    let beats = dir.join("beats.jsonl");
    let out = slacksim(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--dir",
        camp.to_str().unwrap(),
        "--workers",
        "2",
        "--live-status",
        beats.to_str().unwrap(),
        "--live-every",
        "5",
    ]);
    assert!(out.status.success(), "campaign exits 0: {}", stderr(&out));
    assert!(
        stdout(&out).contains("campaign: 2 jobs settled"),
        "summary line printed: {}",
        stdout(&out)
    );

    // Every artifact the campaign wrote renders through `report`.
    let rep = slacksim(&[
        "report",
        camp.join("aggregate.csv").to_str().unwrap(),
        camp.join("aggregate.jsonl").to_str().unwrap(),
        camp.join("manifest.json").to_str().unwrap(),
        beats.to_str().unwrap(),
    ]);
    assert!(rep.status.success(), "report exits 0: {}", stderr(&rep));
    let text = stdout(&rep);
    assert!(text.contains("campaign aggregate"), "CSV rendered: {text}");
    assert!(
        text.contains("streamed campaign aggregate"),
        "JSONL rendered: {text}"
    );
    assert!(
        text.contains("campaign manifest"),
        "manifest rendered: {text}"
    );
    assert!(
        text.contains("campaign heartbeats"),
        "heartbeats rendered: {text}"
    );
    assert!(text.contains("cc"), "per-scheme grouping present: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `slacksim report` on anything it cannot render exits 2 with a
/// diagnostic that names the offending file and where detection gave up
/// — an empty file, a truncated JSON artifact, free text and a missing
/// path must all refuse loudly, never render as an empty report.
#[test]
fn report_on_unreadable_or_empty_artifacts_exits_2_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("slacksim-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "not an artifact\n").unwrap();
    let out = slacksim(&["report", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unrecognized artifact"), "{err}");
    assert!(err.contains("bad.txt"), "diagnostic names the file: {err}");

    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").unwrap();
    let out = slacksim(&["report", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("empty artifact (0 bytes)"), "{err}");
    assert!(err.contains("empty.json"), "{err}");

    let truncated = dir.join("cut.json");
    std::fs::write(&truncated, "{\"v\":1,\"jobs\":[").unwrap();
    let out = slacksim(&["report", truncated.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("truncated or invalid JSON at line 1"),
        "parse position reported: {err}"
    );
    assert!(err.contains("cut.json"), "{err}");

    let missing = dir.join("does-not-exist");
    let out = slacksim(&["report", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"));
    std::fs::remove_dir_all(&dir).ok();
}
