//! Crash-safe resume integration tests for the `slacksim` binary.
//!
//! The central proof is kill-and-resume: a run persisting checkpoints
//! with `--save-state` is SIGKILLed mid-run, resumed from the snapshot
//! it left behind, and — under cycle-by-cycle, where the outcome is
//! engine- and schedule-independent — must finish with a report
//! bit-identical to the same run never having been interrupted. The
//! remaining tests pin the refusal paths: mismatched configuration,
//! truncated files and corrupted bytes all exit with code 2 and a clean
//! `error:` line, never a panic or a silently diverging run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn slacksim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(args)
        .output()
        .expect("spawn slacksim binary")
}

/// Fresh scratch directory for one test's checkpoint files.
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slacksim-persist-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The report lines a resume must reproduce exactly: simulated outcome
/// only, not wall-clock lines.
fn outcome_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            l.starts_with("execution time")
                || l.starts_with("committed")
                || l.starts_with("CPI")
                || l.starts_with("violations")
        })
        .map(str::to_owned)
        .collect()
}

/// Newest durable `cp-*` snapshot in `dir`, if any. A `cp-*.tmp` is the
/// unrenamed half of an atomic write: it may be empty or torn, it sorts
/// after its renamed sibling, and it is not a snapshot.
fn newest_checkpoint(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("cp-") && !name.ends_with(".tmp")
        })
        .max_by_key(std::fs::DirEntry::file_name)
        .map(|e| e.path())
}

/// Common flags for one kill-and-resume configuration. Cycle-by-cycle
/// keeps both engines bit-identical and schedule-independent, so the
/// resumed report is comparable across a SIGKILL.
fn config_flags(engine: &str) -> Vec<String> {
    [
        "--scheme",
        "cc",
        "--cores",
        "2",
        "--commit",
        "200000",
        "--checkpoint",
        "700",
        "--engine",
        engine,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

fn kill_and_resume(engine: &str) {
    let dir = scratch_dir(engine);
    let flags = config_flags(engine);

    let baseline = slacksim(&flags.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(baseline.status.success(), "baseline run exits 0");
    let want = outcome_lines(&baseline);
    assert!(!want.is_empty(), "baseline printed a report");

    // Start the persisting run and SIGKILL it as soon as the first
    // snapshot lands. Atomic rename means an existing cp-* file is
    // always complete, however brutal the kill.
    let mut child = Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(&flags)
        .args(["--save-state", dir.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn persisting run");
    let deadline = Instant::now() + Duration::from_secs(60);
    while newest_checkpoint(&dir).is_none() {
        assert!(
            Instant::now() < deadline,
            "no snapshot appeared within the deadline"
        );
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill it — still resumable
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    let snapshot = newest_checkpoint(&dir).expect("a snapshot survived the kill");
    let mut resume_flags: Vec<&str> = flags.iter().map(String::as_str).collect();
    let snapshot_str = snapshot.to_str().unwrap();
    resume_flags.extend(["--resume", snapshot_str]);
    let resumed = slacksim(&resume_flags);
    assert!(
        resumed.status.success(),
        "resumed run exits 0: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        outcome_lines(&resumed),
        want,
        "{engine}: resumed report must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_matches_uninterrupted_run_sequential() {
    kill_and_resume("seq");
}

#[test]
fn kill_and_resume_matches_uninterrupted_run_threaded() {
    kill_and_resume("threaded");
}

/// `bytes`, a version-2 container, with a two-entry shard section (`u32`
/// count, then one `u64` forwarded-event counter per remote shard)
/// appended to its payload, stamped `version` and resealed: at version 3,
/// what the removed sharded manager tree wrote.
fn with_shard_section(bytes: &[u8], version: u32) -> Vec<u8> {
    use slacksim::slacksim_core::persist::{decode_container, encode_container};

    let (fingerprint, payload) = decode_container(bytes).expect("valid container");
    let mut payload = payload.to_vec();
    payload.extend_from_slice(&2u32.to_le_bytes());
    for forwarded in [1_871u64, 1_902] {
        payload.extend_from_slice(&forwarded.to_le_bytes());
    }
    let mut out = encode_container(fingerprint, &payload);
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out
}

/// One cycle-by-cycle configuration run to `commit`, with `extra` flags.
fn cc_run(commit: &str, extra: &[&str]) -> Output {
    let flags = ["--scheme", "cc", "--cores", "2", "--checkpoint", "500"];
    slacksim(&[&flags[..], &["--commit", commit], extra].concat())
}

/// Format version 3 was written only by the removed sharded manager tree
/// (`--shards`). No reader for it is left, so such a snapshot is refused
/// with its version named instead of being misread.
#[test]
fn a_version_3_snapshot_is_refused_as_an_unsupported_version() {
    let (dir, snap) = persisted_snapshot("v3");
    let v3 = dir.join("v3");
    std::fs::write(&v3, with_shard_section(&std::fs::read(&snap).unwrap(), 3)).unwrap();
    let out = cc_run("5000", &["--resume", v3.to_str().unwrap()]);
    assert_resume_refused(&out, "unsupported snapshot format version 3");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-2 payload never ends in a shard section: those bytes are
/// trailing garbage, refused as corrupt.
#[test]
fn a_version_2_snapshot_with_a_shard_section_is_refused() {
    let (dir, snap) = persisted_snapshot("v2-section");
    let forged = dir.join("forged");
    std::fs::write(
        &forged,
        with_shard_section(&std::fs::read(&snap).unwrap(), 2),
    )
    .unwrap();
    let out = cc_run("5000", &["--resume", forged.to_str().unwrap()]);
    assert_resume_refused(&out, "corrupt: trailing bytes after payload");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batched engine's host-thread count is a host knob: it is in no
/// snapshot and no fingerprint, so a snapshot written on two host threads
/// resumes on one (and the reverse) to the report of a run that was never
/// interrupted. Both legs are long enough (8 cores x 50 cycles, 64 Ki
/// core-cycles stepped inline first) that the workers, when there are
/// any, run windows on either side of the snapshot.
#[test]
fn batched_snapshots_resume_across_host_thread_counts() {
    let flags = |threads: &'static str, commit: &'static str| {
        vec![
            "--engine",
            "batched",
            "--scheme",
            "quantum",
            "--quantum",
            "50",
            "--cores",
            "8",
            "--benchmark",
            "water",
            "--checkpoint",
            "500",
            "--host-threads",
            threads,
            "--commit",
            commit,
        ]
    };
    let baseline = slacksim(&flags("1", "400000"));
    assert!(baseline.status.success(), "baseline run exits 0");
    let want = outcome_lines(&baseline);
    assert!(!want.is_empty(), "baseline printed a report");

    for (writer, reader) in [("2", "1"), ("1", "2"), ("3", "2")] {
        let dir = scratch_dir(&format!("bat-h{writer}-h{reader}"));
        let mut write = flags(writer, "150000");
        write.extend(["--save-state", dir.to_str().unwrap()]);
        assert!(slacksim(&write).status.success(), "persisting run exits 0");
        let snapshot = newest_checkpoint(&dir).expect("snapshot persisted");

        let mut resume = flags(reader, "400000");
        resume.extend(["--resume", snapshot.to_str().unwrap()]);
        let resumed = slacksim(&resume);
        assert!(
            resumed.status.success(),
            "resumed run exits 0: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            outcome_lines(&resumed),
            want,
            "written on {writer} host threads, resumed on {reader}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The threaded engine's lane count is a host knob too: clocks, queues
/// and snapshots are per core, so a cycle-by-cycle snapshot written on
/// two lanes (two cores each) resumes on one lane of four (and the
/// reverse) to the report of a run that was never interrupted.
#[test]
fn threaded_snapshots_resume_across_lane_counts() {
    let flags = |lanes: &'static str, commit: &'static str| {
        vec![
            "--engine",
            "threaded",
            "--scheme",
            "cc",
            "--cores",
            "4",
            "--benchmark",
            "water",
            "--checkpoint",
            "500",
            "--host-threads",
            lanes,
            "--commit",
            commit,
        ]
    };
    let baseline = slacksim(&flags("4", "120000"));
    assert!(baseline.status.success(), "baseline run exits 0");
    let want = outcome_lines(&baseline);
    assert!(!want.is_empty(), "baseline printed a report");

    for (writer, reader) in [("2", "1"), ("1", "2"), ("2", "4")] {
        let dir = scratch_dir(&format!("thr-l{writer}-l{reader}"));
        let mut write = flags(writer, "50000");
        write.extend(["--save-state", dir.to_str().unwrap()]);
        assert!(slacksim(&write).status.success(), "persisting run exits 0");
        let snapshot = newest_checkpoint(&dir).expect("snapshot persisted");

        let mut resume = flags(reader, "120000");
        resume.extend(["--resume", snapshot.to_str().unwrap()]);
        let resumed = slacksim(&resume);
        assert!(
            resumed.status.success(),
            "resumed run exits 0: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            outcome_lines(&resumed),
            want,
            "written on {writer} lanes, resumed on {reader}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The lanes' commands carry a whole lane's cores: a speculative run
/// on two lanes of two cores that rolls back (`Rewind` and `Snapshot`
/// over multi-core lanes) persists snapshots a one-lane run resumes, and
/// the reverse. Slack on host threads is non-deterministic, so the
/// resumed run is held to finishing past its commit target, not to a
/// report.
#[test]
fn speculative_threaded_snapshots_resume_across_lane_counts() {
    let flags = |lanes: &'static str, commit: &'static str| {
        vec![
            "--engine",
            "threaded",
            "--scheme",
            "unbounded",
            "--cores",
            "4",
            "--benchmark",
            "water",
            "--checkpoint",
            "500",
            "--rollback",
            "all",
            "--verbose",
            "--host-threads",
            lanes,
            "--commit",
            commit,
        ]
    };
    let counter = |out: &Output, name: &str| -> u64 {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| {
                let value = l.trim().strip_prefix(name)?;
                value.split_whitespace().next()?.parse().ok()
            })
            .unwrap_or_else(|| panic!("report has no {name:?} line"))
    };
    let mut rolled_back = false;
    for (writer, reader) in [("2", "1"), ("1", "2")] {
        // One core per lane-pass keeps a single lane's cores within a
        // cycle of each other, so only the two-lane leg can roll back;
        // whether it does is up to the host, so give it a few goes.
        for _attempt in 0..8 {
            let dir = scratch_dir(&format!("thr-spec-l{writer}-l{reader}"));
            let mut write = flags(writer, "150000");
            write.extend(["--save-state", dir.to_str().unwrap()]);
            let written = slacksim(&write);
            assert!(written.status.success(), "persisting run exits 0");
            let snapshot = newest_checkpoint(&dir).expect("snapshot persisted");

            let mut resume = flags(reader, "300000");
            resume.extend(["--resume", snapshot.to_str().unwrap()]);
            let resumed = slacksim(&resume);
            assert!(
                resumed.status.success(),
                "written on {writer} lanes, resumed on {reader}: {}",
                String::from_utf8_lossy(&resumed.stderr)
            );
            assert!(counter(&resumed, "committed      :") >= 300_000);
            let _ = std::fs::remove_dir_all(&dir);
            let rollbacks = counter(&written, "rollbacks:") + counter(&resumed, "rollbacks:");
            rolled_back |= rollbacks > 0;
            if rolled_back {
                break;
            }
        }
    }
    assert!(rolled_back, "no run on two lanes rolled back");
}

/// Writes one snapshot quickly and returns its path (plus the scratch
/// dir for cleanup).
fn persisted_snapshot(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    let out = slacksim(&[
        "--scheme",
        "cc",
        "--cores",
        "2",
        "--commit",
        "5000",
        "--checkpoint",
        "500",
        "--save-state",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "persisting run exits 0");
    let snap = newest_checkpoint(&dir).expect("snapshot persisted");
    (dir, snap)
}

fn assert_resume_refused(out: &Output, expect: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "refused resume exits with code 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: "),
        "stderr carries an error line, got {err:?}"
    );
    assert!(
        err.contains(expect),
        "stderr mentions {expect:?}, got {err:?}"
    );
}

#[test]
fn resume_with_mismatched_config_is_refused_with_exit_2() {
    let (dir, snap) = persisted_snapshot("mismatch");
    let snap = snap.to_str().unwrap().to_owned();
    // Wrong core count, wrong seed, wrong scheme, wrong checkpoint
    // interval: every divergence from the persisted fingerprint refuses.
    for (scheme, cores, seed, interval) in [
        ("cc", "4", "1", "500"),
        ("cc", "2", "9", "500"),
        ("bounded", "2", "1", "500"),
        ("cc", "2", "1", "900"),
    ] {
        let out = slacksim(&[
            "--scheme",
            scheme,
            "--cores",
            cores,
            "--seed",
            seed,
            "--commit",
            "5000",
            "--checkpoint",
            interval,
            "--resume",
            &snap,
        ]);
        assert_resume_refused(&out, "config mismatch");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots written while checkpoints still had a capture mode carry
/// `cpmode=full@N` or `cpmode=delta@N` in their header. Nothing reads that
/// spelling as today's `cpmode=N` any more: it is a different
/// configuration, refused like any other.
#[test]
fn legacy_capture_mode_fingerprints_are_refused_as_a_config_mismatch() {
    use slacksim::slacksim_core::persist;

    let (dir, snap) = persisted_snapshot("legacy");
    let bytes = std::fs::read(&snap).expect("read snapshot");
    let (fingerprint, payload) = persist::decode_container(&bytes).expect("valid container");
    let head = fingerprint
        .strip_suffix("/cpmode=500")
        .unwrap_or_else(|| panic!("unexpected fingerprint {fingerprint:?}"));
    let legacy = dir.join("legacy");
    for mode in ["full", "delta"] {
        // Re-encode the container exactly as the old writer did: same
        // format version, same payload, the old fingerprint string.
        let old = persist::encode_container(&format!("{head}/cpmode={mode}@500"), payload);
        std::fs::write(&legacy, old).unwrap();
        let out = cc_run("5000", &["--resume", legacy.to_str().unwrap()]);
        assert_resume_refused(&out, "config mismatch");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_truncated_or_corrupted_snapshot_is_refused_cleanly() {
    let (dir, snap) = persisted_snapshot("corrupt");
    let bytes = std::fs::read(&snap).expect("read snapshot");

    let truncated = dir.join("truncated");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();

    let flipped = dir.join("flipped");
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xff; // payload corruption -> checksum mismatch
    std::fs::write(&flipped, &bad).unwrap();

    let garbage = dir.join("garbage");
    std::fs::write(&garbage, b"not a snapshot at all").unwrap();

    for (path, expect) in [
        (&truncated, "truncated"),
        (&flipped, "checksum"),
        (&garbage, "error: "),
    ] {
        let out = slacksim(&[
            "--scheme",
            "cc",
            "--cores",
            "2",
            "--commit",
            "5000",
            "--checkpoint",
            "500",
            "--resume",
            path.to_str().unwrap(),
        ]);
        assert_resume_refused(&out, expect);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cp-*` names in `dir`, sorted.
fn checkpoint_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("cp-"))
        .collect();
    names.sort();
    names
}

/// A directory that an earlier, SIGKILLed run left in a state: an old
/// checkpoint, the temp half of the atomic write the kill interrupted,
/// and a file that is none of the simulator's business. The first save of
/// the next run sweeps the first two; nothing ever touches the third.
#[test]
fn first_save_clears_a_predecessors_checkpoints_and_temp_debris() {
    let dir = scratch_dir("debris");
    std::fs::write(dir.join("cp-00000003"), b"stale").unwrap();
    std::fs::write(dir.join("cp-00000007.tmp"), b"torn").unwrap();
    std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
    let out = slacksim(&[
        "--scheme",
        "cc",
        "--cores",
        "2",
        "--commit",
        "5000",
        "--checkpoint",
        "500",
        "--save-state",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "persisting run exits 0");
    assert_eq!(checkpoint_names(&dir), ["cp-00000012"]);
    assert_eq!(std::fs::read(dir.join("notes.txt")).unwrap(), b"keep me");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write-behind changed when a checkpoint reaches the disk, not what
/// reaches it: the last file of this run is, byte for byte, the one the
/// synchronous writer before it produced for the same flags (its FNV-1a
/// over the whole file is pinned here, from that commit's binary).
#[test]
fn checkpoint_files_are_byte_identical_to_the_synchronous_writers() {
    use slacksim::slacksim_core::persist::fnv1a;

    let (dir, snap) = persisted_snapshot("pinned");
    assert_eq!(snap.file_name().unwrap(), "cp-00000012");
    let bytes = std::fs::read(&snap).expect("read snapshot");
    assert_eq!(bytes.len(), 21_359);
    assert_eq!(fnv1a(&bytes), 0xcae8_3d0c_a4de_a564);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whole-file pins of what the 2-core bus case above never writes: the
/// directory banks with their sharer sets, a speculative run that rolls
/// back with locks in play, and the two pacers that carry state (the
/// adaptive controller, the peer-to-peer pairing). Each value is the
/// sequential engine's last checkpoint file for the flags given, as
/// length and FNV-1a over the whole file.
#[test]
fn snapshot_files_are_pinned_across_uncores_and_schemes() {
    use slacksim::slacksim_core::persist::fnv1a;

    let cases: [(&str, &[&str], &str, usize, u64); 4] = [
        (
            "dir16-cc",
            &[
                "--uncore",
                "directory",
                "--cores",
                "16",
                "--scheme",
                "cc",
                "--commit",
                "20000",
            ],
            "cp-00000006",
            90_446,
            0x2e96_8227_f4c7_2745,
        ),
        (
            "barnes8-b16-rollback",
            &[
                "--benchmark",
                "barnes",
                "--cores",
                "8",
                "--scheme",
                "bounded",
                "--bound",
                "16",
                "--seed",
                "3",
                "--rollback",
                "all",
                "--commit",
                "40000",
            ],
            "cp-00000015",
            128_906,
            0xd045_2b0f_d045_40db,
        ),
        (
            "adaptive4",
            &["--scheme", "adaptive", "--cores", "4", "--commit", "40000"],
            "cp-00000031",
            122_924,
            0xac34_c2d6_6afd_3a55,
        ),
        (
            "p2p4",
            &["--scheme", "p2p", "--cores", "4", "--commit", "40000"],
            "cp-00000030",
            121_507,
            0x5baa_739b_eefb_3f31,
        ),
    ];
    for (name, flags, file, len, fnv) in cases {
        let dir = scratch_dir(name);
        let save = ["--checkpoint", "500", "--save-state", dir.to_str().unwrap()];
        let out = slacksim(&[flags, &save[..]].concat());
        assert!(out.status.success(), "{name}: persisting run exits 0");
        let snap = newest_checkpoint(&dir).expect("snapshot persisted");
        assert_eq!(snap.file_name().unwrap(), file, "{name}");
        let bytes = std::fs::read(&snap).expect("read snapshot");
        let found = (bytes.len(), fnv1a(&bytes));
        assert!(
            found == (len, fnv),
            "{name}: snapshot is {} bytes with FNV-1a {:#018x}, pinned {len} / {fnv:#018x}",
            found.0,
            found.1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `run()` returns only once the last checkpoint is renamed into place:
/// under every engine the directory then holds exactly one `cp-*`, it is
/// the checkpoint the report counted last, and no `.tmp` is in sight.
#[test]
fn run_returns_with_its_last_checkpoint_durable_under_every_engine() {
    use slacksim::scheme::Scheme;
    use slacksim::slacksim_core::persist::decode_container;
    use slacksim::{Benchmark, EngineKind, Simulation, SpeculationConfig};

    for (engine, scheme) in [
        (EngineKind::Sequential, Scheme::CycleByCycle),
        (EngineKind::Threaded, Scheme::CycleByCycle),
        (EngineKind::Batched, Scheme::Quantum { quantum: 50 }),
    ] {
        let dir = scratch_dir(&format!("drain-{engine:?}"));
        let report = Simulation::new(Benchmark::Fft)
            .cores(2)
            .scheme(scheme)
            .engine(engine)
            .commit_target(40_000)
            .speculation(SpeculationConfig::checkpoint_only(300))
            .save_state(&dir)
            .run()
            .expect("run");
        let checkpoints = report.kernel.get("checkpoints");
        assert!(checkpoints > 10, "{engine:?}: {checkpoints} checkpoints");
        // Read the directory at once: nothing may still be settling.
        assert_eq!(
            checkpoint_names(&dir),
            [format!("cp-{checkpoints:08}")],
            "{engine:?}"
        );
        let bytes = std::fs::read(dir.join(format!("cp-{checkpoints:08}"))).unwrap();
        decode_container(&bytes).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What a crash at any instant would leave behind, sampled: a reader
/// polling the directory throughout a run and decoding the newest
/// `cp-<ordinal>` always finds a valid container, and never an older
/// ordinal than it has seen before.
#[test]
fn a_concurrent_reader_only_ever_sees_valid_checkpoints_in_order() {
    use slacksim::slacksim_core::persist::decode_container;
    use slacksim::{Benchmark, Simulation, SpeculationConfig};
    use std::sync::atomic::AtomicBool;

    /// Ordinal of the newest durable checkpoint, decoded; `None` when
    /// there is none yet or it was pruned between listing and reading.
    fn newest_valid_ordinal(dir: &Path) -> Option<u64> {
        let ordinal: u64 = std::fs::read_dir(dir)
            .ok()?
            .flatten()
            .filter_map(|e| e.file_name().to_str()?.strip_prefix("cp-")?.parse().ok())
            .max()?;
        let bytes = std::fs::read(dir.join(format!("cp-{ordinal:08}"))).ok()?;
        let (_, payload) = decode_container(&bytes)
            .unwrap_or_else(|e| panic!("cp-{ordinal:08} is not a valid container: {e}"));
        // The payload opens with the ordinal it was taken at.
        assert_eq!(payload[..8], ordinal.to_le_bytes());
        Some(ordinal)
    }

    let dir = scratch_dir("reader");
    let done = AtomicBool::new(false);
    let (report, seen) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut last, mut seen) = (0, 0u64);
            while !done.load(Ordering::Acquire) {
                if let Some(ordinal) = newest_valid_ordinal(&dir) {
                    assert!(ordinal >= last, "cp-{ordinal:08} after cp-{last:08}");
                    seen += u64::from(ordinal > last);
                    last = ordinal;
                }
            }
            seen
        });
        let report = Simulation::new(Benchmark::Fft)
            .cores(2)
            .commit_target(200_000)
            .speculation(SpeculationConfig::checkpoint_only(700))
            .save_state(&dir)
            .run();
        done.store(true, Ordering::Release);
        (report, reader.join().expect("reader thread"))
    });
    let checkpoints = report.expect("run").kernel.get("checkpoints");
    assert_eq!(newest_valid_ordinal(&dir), Some(checkpoints));
    assert!(
        seen > 1,
        "the reader caught the run at {seen} distinct checkpoints"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_state_prunes_older_checkpoints() {
    let (dir, snap) = persisted_snapshot("prune");
    let survivors: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("cp-"))
        .collect();
    assert_eq!(
        survivors.len(),
        1,
        "only the newest checkpoint file is kept"
    );
    assert_eq!(survivors[0].path(), snap);
    let _ = std::fs::remove_dir_all(&dir);
}
