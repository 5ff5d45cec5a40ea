#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format. No network access required.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> non-test line counts (report only)"
# The counts ROADMAP's simplicity claims quote: Rust outside benchmark/
# and every tests/ directory, each file counted up to its first
# `#[cfg(test)]` line.
count_lines() { # count_lines DIR...
    find "$@" -name '*.rs' -not -path '*/target/*' -not -path '*/benchmark/*' \
        -not -path '*/tests/*' -print0 |
        xargs -0 awk 'FNR == 1 { stop = 0 } /^#\[cfg\(test\)\]/ { stop = 1 }
            !stop { n++ } END { print n + 0 }' |
        awk '{ sum += $1 } END { print sum + 0 }'
}
echo "tree $(count_lines .), crates/core/src/engine $(count_lines crates/core/src/engine)," \
    "src $(count_lines src)"

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test -q"
cargo test --workspace -q --offline

echo "==> cargo test -q --release"
cargo test --workspace -q --release --offline

echo "==> cache differential soak (flat tag store against the per-set oracle, 1 M operations)"
# The tier-1 run of crates/cmp/tests/cache_differential.rs drives 10 k
# operations per geometry; its ignored twin drives a million, in release.
cargo test -p slacksim-cmp -q --release --offline --test cache_differential -- --ignored

echo "==> conformance smoke (exact matrices)"
# The conformance matrices from crates/conformance in release.
cargo test -p slacksim-conformance -q --release --offline

echo "==> speculative smoke (threaded, bounded slack, rollback on every violation)"
# One end-to-end threaded speculative run through the release binary
# under a greedy (bounded) scheme: checkpoints that cap every round at
# the kernel's stop point, delta capture and rollback with its
# one-cycle replay all run for real.
# (That a delta-maintained base equals a fresh clone is proven per model
# in crates/cmp/tests/delta_roundtrip.rs, which the test tiers above run.)
./target/release/slacksim --scheme bounded --bound 16 --engine threaded \
    --commit 20000 --checkpoint 2000 --rollback all \
    > /dev/null

echo "==> kill-and-resume smoke (durable snapshots, SIGKILL mid-run; 2-core bus, 64-core directory, 16-core directory with rollbacks, threaded greedy rounds with rollbacks, sequential cc)"
# Crash-safety proof on the release binary (DESIGN §13): a
# cycle-by-cycle run persisting checkpoints is SIGKILLed as soon as the
# first snapshot lands, resumed from the surviving cp-* file, and must
# report the exact simulated outcome of an uninterrupted baseline. The
# `bus` and `directory` runs ask for `--engine threaded`, which hands
# every barrier-scheme run to the batched engine (DESIGN §19), so they
# prove the batched engine's durable path and the hand-off's save hook
# and resume.
# The in-process twin of this check (both engines, refusal paths) runs
# in tests/persist_resume.rs; this stage exercises the shipped binary
# end to end, kill included. It runs twice: on the 2-core snooping bus,
# and on a 64-core directory (DESIGN §17) — four times past the bus's
# cap — where bank states, sharer sets and per-bank monitors must all
# cross the versioned byte format (the in-process conformance twin,
# {16,64} cores and all three engines, runs in crates/conformance).
# A third run takes the directory through speculation on the sequential
# engine: 16-core Barnes under bounded slack rolls back on every
# violation, so the snapshots carry directory entries, per-line monitors
# and port calendars left behind by rollbacks and monitor compaction.
# A fourth does the same on the threaded engine's greedy rounds, whose
# bursts and service order are stateless draws a resumed run draws again
# (DESIGN §10, "Seeded rounds").
# A fifth takes cc through the sequential engine (the default), whose
# snapshots carry its burst RNG as the one-cycle windows left it (DESIGN
# §19, "One-cycle windows"); the `bus` and `directory` runs never reach
# that engine.
kill_and_resume() { # kill_and_resume LABEL FLAGS...
    local label="$1"; shift
    local cps baseline victim snapshot resumed
    cps="$(mktemp -d /tmp/slacksim-ci-cps.XXXXXX)"
    baseline="$(./target/release/slacksim "$@" \
        | grep -E '^(execution time|committed|violations)')"
    ./target/release/slacksim "$@" --save-state "$cps" > /dev/null 2>&1 &
    victim=$!
    for _ in $(seq 1 2000); do
        compgen -G "$cps/cp-*[0-9]" > /dev/null && break
        kill -0 "$victim" 2> /dev/null || break
        sleep 0.005
    done
    kill -KILL "$victim" 2> /dev/null || true
    wait "$victim" 2> /dev/null || true
    snapshot="$(ls "$cps"/cp-* | grep -v '\.tmp$' | sort | tail -n 1)"
    resumed="$(./target/release/slacksim "$@" --resume "$snapshot" \
        | grep -E '^(execution time|committed|violations)')"
    [ "$baseline" = "$resumed" ] || {
        echo "ci: $label resumed report diverged from uninterrupted baseline" >&2
        printf 'baseline:\n%s\nresumed:\n%s\n' "$baseline" "$resumed" >&2
        exit 1
    }
    rm -rf "$cps"
}
kill_and_resume bus --scheme cc --engine threaded --cores 2 --commit 200000 --checkpoint 700
kill_and_resume directory --uncore directory --cores 64 --benchmark fft --scheme cc \
    --engine threaded --commit 200000 --checkpoint 700
kill_and_resume directory-rollback --uncore directory --cores 16 --benchmark barnes \
    --scheme bounded --bound 16 --seed 3 --commit 400000 --checkpoint 700 --rollback all
kill_and_resume threaded-greedy --engine threaded --scheme bounded --bound 16 --cores 8 \
    --checkpoint 700 --rollback all
kill_and_resume seq-cc --scheme cc --cores 8 --benchmark water --commit 200000 --checkpoint 700

echo "==> host-parallel batched smoke (64-core directory quantum-50 FFT and bounded-16 Barnes rolling back on every violation, --host-threads 1/2/3, two threads on one CPU)"
# Host-parallel windows on the release binary (DESIGN §15.1): the
# batched engine's host-thread count is a host knob, so the whole
# verbose report — headline, uncore, kernel and per-core counters,
# everything but the two host-time lines — must be byte-equal on 1, 2
# and 3 host threads. Then the oversubscribed case: two host threads
# pinned to one CPU must still finish, with the same report. The one wait
# ladder has no tiers of its own for this: a waiter yields from its first
# wait, which hands the CPU to the thread it waits for. Past one thread
# the directory's homes are serviced on the threads that ran the window;
# the Barnes rounds select rollbacks in the middle of merging their
# homes' outputs. The in-process twins run in crates/conformance and
# tests/report_digest.rs.
sim_report() { # the simulated report of one run: sim_report COMMAND...
    "$@" 2> /dev/null | grep -vE '^(wall clock|speed) '
}
host_parallel_exact() { # host_parallel_exact FLAGS...: one report at 1/2/3 threads and on one CPU
    local one
    one="$(sim_report ./target/release/slacksim "$@" --host-threads 1)"
    grep -q '^committed' <<< "$one" || {
        echo "ci: batched run printed no report" >&2; exit 1; }
    for h in 2 3; do
        [ "$one" = "$(sim_report ./target/release/slacksim "$@" --host-threads "$h")" ] || {
            echo "ci: batched report on $h host threads differs from the one on 1 ($*)" >&2; exit 1; }
    done
    if command -v taskset > /dev/null; then
        [ "$one" = "$(sim_report timeout 120 taskset -c 0 \
            ./target/release/slacksim "$@" --host-threads 2)" ] || {
            echo "ci: two host threads pinned to one CPU hung or changed the report ($*)" >&2; exit 1; }
    fi
}
host_parallel_exact --uncore directory --cores 64 --benchmark fft --scheme quantum \
    --quantum 50 --engine batched --commit 1000000 --verbose
host_parallel_exact --uncore directory --cores 64 --benchmark barnes --scheme bounded \
    --bound 16 --engine batched --commit 1000000 --checkpoint 500 --rollback all --verbose

echo "==> greedy-exactness smoke (8-core cc routed to batched and bounded-16/adaptive/p2p rounds, each at --host-threads 1/2/8 and on one CPU; unbounded/adaptive/p2p rollback)"
# The window loop's results never depend on the host-thread count
# (DESIGN §10, §19): on 1, 2 and 8 host threads, and with two threads
# pinned to one CPU, the verbose report — headline, uncore, kernel and
# per-core counters, everything but the two host-time lines — is
# byte-equal. Cycle-by-cycle on the threaded and the batched engine
# prints the sequential engine's report; bounded-16, adaptive and
# Lax-P2P Water run as seeded rounds, whose bursts and service order are
# stateless draws from the seed, and must report violations. The
# in-process twins run in crates/conformance and tests/report_digest.rs.
# Last, speculative runs under unbounded, adaptive and Lax-P2P (adaptive
# also on one CPU): a stop point that lies below some core never fills,
# and would hang rather than fail, so each runs under a timeout.
one_cpu() { # one_cpu COMMAND...: the command pinned to one CPU, if taskset exists
    if command -v taskset > /dev/null; then timeout 120 taskset -c 0 "$@"; else "$@"; fi
}
cc_flags=(--benchmark fft --scheme cc --cores 8 --commit 200000 --verbose)
cc_seq="$(sim_report ./target/release/slacksim "${cc_flags[@]}" --engine seq)"
grep -q '^committed' <<< "$cc_seq" || {
    echo "ci: sequential cc run printed no report" >&2; exit 1; }
for engine in threaded batched; do
    for h in 1 2 8; do
        [ "$cc_seq" = "$(sim_report ./target/release/slacksim "${cc_flags[@]}" \
            --engine "$engine" --host-threads "$h")" ] || {
            echo "ci: $engine cc report on $h host threads differs from the sequential one" >&2
            exit 1
        }
    done
done
[ "$cc_seq" = "$(sim_report one_cpu ./target/release/slacksim "${cc_flags[@]}" \
    --engine threaded --host-threads 2)" ] || {
    echo "ci: threaded cc on two host threads pinned to one CPU hung or changed the report" >&2
    exit 1
}
for scheme in "bounded --bound 16" adaptive p2p; do
    # shellcheck disable=SC2206 # the scheme and its bound are two words
    greedy_flags=(--benchmark water --scheme $scheme --engine threaded --cores 8
        --commit 200000 --verbose)
    greedy_one="$(sim_report ./target/release/slacksim "${greedy_flags[@]}" --host-threads 1)"
    grep -qE '^violations +: [1-9]' <<< "$greedy_one" || {
        echo "ci: threaded $scheme rounds reported no violations" >&2; exit 1; }
    for h in 2 8; do
        [ "$greedy_one" = "$(sim_report ./target/release/slacksim "${greedy_flags[@]}" \
            --host-threads "$h")" ] || {
            echo "ci: threaded $scheme report on $h host threads differs from the one on 1" >&2
            exit 1
        }
    done
    [ "$greedy_one" = "$(sim_report one_cpu ./target/release/slacksim "${greedy_flags[@]}" \
        --host-threads 2)" ] || {
        echo "ci: threaded $scheme on two host threads pinned to one CPU hung or changed the report" >&2
        exit 1
    }
done
spec_run() { # spec_run SCHEME HOST_THREADS [COMMAND PREFIX...]
    local scheme="$1" h="$2"; shift 2
    timeout 60 "$@" ./target/release/slacksim --benchmark water --scheme "$scheme" --engine threaded \
        --cores 4 --checkpoint 500 --rollback all --host-threads "$h" --commit 2000000 > /dev/null || {
        echo "ci: speculative $scheme run on $h host threads ${*:+($*) }hung or failed" >&2; exit 1; }
}
spec_run unbounded 1
for scheme in unbounded adaptive p2p; do
    spec_run "$scheme" 2
done
if command -v taskset > /dev/null; then
    spec_run adaptive 2 taskset -c 0
fi

echo "==> sequential scale smoke (1024-core directory: cc on seq and batched, bounded-16 Barnes)"
# The sequential engine's burst pick is O(log n) a burst (DESIGN §19
# "Burst scheduler"), so it runs 1024 target cores within a fixed
# budget: cycle-by-cycle FFT, 300 k commits, must print the batched
# engine's verbose report apart from the two host-time lines (the CC
# fingerprint is equal across engines at 1024 cores), and bounded-16
# Barnes, 1 M commits, must finish. A driver that passes over every
# core on every burst takes ~70 s and ~19 s on them on a 2-CPU host, so
# the timeouts catch it.
scale_cc=(--uncore directory --cores 1024 --benchmark fft --scheme cc --commit 300000 --verbose)
scale_seq="$(sim_report timeout 20 ./target/release/slacksim "${scale_cc[@]}" --engine seq)"
grep -q '^committed' <<< "$scale_seq" || {
    echo "ci: 1024-core sequential cc run timed out or printed no report" >&2; exit 1; }
[ "$scale_seq" = "$(sim_report timeout 20 ./target/release/slacksim "${scale_cc[@]}" \
    --engine batched)" ] || {
    echo "ci: 1024-core batched cc report differs from the sequential one" >&2; exit 1; }
timeout 10 ./target/release/slacksim --uncore directory --cores 1024 --benchmark barnes \
    --scheme bounded --bound 16 --commit 1000000 > /dev/null || {
    echo "ci: 1024-core sequential bounded-16 Barnes timed out or failed" >&2; exit 1; }

echo "==> benchmark/ self-tests + golden-fingerprint smoke"
# The acceptance driver judges every PR with benchmark/ (BENCHMARK.json),
# and that package is its own workspace, so nothing above builds or tests
# it. Its tests run every workload at 1/50 size; the one-second passes
# then check full-size runs against benchmark/golden.json, so a change
# that moves simulated results fails here, before the driver sees it:
# seq-cc-fft8 for the engine loop, seq-spec-water8 for speculation and
# the durable path (every one of its runs persists 831 checkpoints
# through the write-behind writer and must still count what the golden
# file says). The last output line is one JSON object; the binary
# already exits 1 when a check fails.
(cd benchmark && cargo test --release --offline -q)
bench_out="$(mktemp -d /tmp/slacksim-ci-benchmark.XXXXXX)"
for workload in seq-cc-fft8 seq-spec-water8; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 --out-dir "$bench_out" \
        | tail -n 1 | grep -q '"correct":true' || {
        echo "ci: benchmark smoke ($workload) failed its golden-fingerprint check" >&2
        exit 1
    }
done
rm -rf "$bench_out"

echo "==> profiler + live-telemetry smoke (artifact validity)"
# Self-profiling proof on the release binary (DESIGN §14): a profiled
# threaded slack run — seeded rounds of bursts and their service — with
# a live status file must produce a
# host-time table covering the run, a valid heartbeat and a valid
# profile CSV — both validated
# through `slacksim report`, which parses them with the in-tree
# obs::json parser and exits non-zero on any malformed artifact. What
# profiling costs is not gated: a best-of-five plain/profiled speed ratio
# on a shared two-CPU host passed or failed with the host's load, not
# with the profiler.
prof_dir="$(mktemp -d /tmp/slacksim-ci-prof.XXXXXX)"
prof_flags=(--scheme bounded --bound 16 --engine threaded --cores 8 --commit 500000)
prof_out="$(./target/release/slacksim "${prof_flags[@]}" --profile \
    --profile-csv "$prof_dir/prof.csv" --live-status "$prof_dir/live.json" \
    --live-every 50)"
grep -q "host-time profile:" <<< "$prof_out" || {
    echo "ci: profiled run printed no host-time table" >&2; exit 1; }
test -s "$prof_dir/live.json" || {
    echo "ci: live run left no status file" >&2; exit 1; }
[ "$(wc -l < "$prof_dir/live.json")" -eq 1 ] || {
    echo "ci: status file must hold exactly one heartbeat line" >&2; exit 1; }
./target/release/slacksim report "$prof_dir/live.json" "$prof_dir/prof.csv" \
    > /dev/null || {
    echo "ci: emitted artifacts failed report validation" >&2; exit 1; }
rm -rf "$prof_dir"

echo "==> campaign smoke (6-job sweep, kill-free resume, report validation)"
# Campaign-runner proof on the release binary (DESIGN §16): a tiny
# 6-job design-space sweep — the {cc, bounded, quantum} x 2-seed grid
# committed as experiments/campaign-smoke.json — runs to completion on 3
# workers, its streamed and final aggregates validate through
# `slacksim report`, and an immediate rerun against the same directory
# skips every settled job. The SIGKILL variant of this stage (campaign
# kill-and-resume, aggregate bit-identity) runs in tests/campaign.rs.
camp_dir="$(mktemp -d /tmp/slacksim-ci-camp.XXXXXX)"
./target/release/slacksim sweep --spec experiments/campaign-smoke.json \
    --dir "$camp_dir/campaign" --workers 3 \
    --live-status "$camp_dir/beats.jsonl" --live-every 50 > /dev/null
[ "$(tail -n +2 "$camp_dir/campaign/aggregate.csv" | wc -l)" -eq 6 ] || {
    echo "ci: campaign aggregate must hold 6 job rows" >&2; exit 1; }
./target/release/slacksim report "$camp_dir/campaign/aggregate.csv" \
    "$camp_dir/campaign/aggregate.jsonl" "$camp_dir/campaign/manifest.json" \
    "$camp_dir/beats.jsonl" > /dev/null || {
    echo "ci: campaign artifacts failed report validation" >&2; exit 1; }
rerun="$(./target/release/slacksim sweep --dir "$camp_dir/campaign")"
grep -q "6 skipped" <<< "$rerun" || {
    echo "ci: campaign rerun must skip all settled jobs, got: $rerun" >&2
    exit 1
}
rm -rf "$camp_dir"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings"
# Broken intra-doc links are errors, as clippy's lints are.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "ci: all green"
