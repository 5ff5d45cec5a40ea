//! Seeded property tests for sweep-spec grid expansion, driven by the
//! in-tree deterministic [`Xoshiro256`] RNG (no external crates,
//! bit-identical on every run).
//!
//! The properties a design-space grid must uphold, over randomly
//! generated specs:
//!
//! * cardinality is exactly the product of the six axis lengths;
//! * expansion yields that many jobs with dense indices `0..n`;
//! * job identity tokens are unique across the whole grid;
//! * expansion order is stable across independent parses of the same
//!   document, and the canonical fingerprint is reproduced;
//! * a randomly corrupted spec is rejected with an error message that
//!   names the offence — never silently defaulted or reordered.

use slacksim::slacksim_core::rng::Xoshiro256;
use slacksim::sweep::{Job, SpecError, SweepSpec};

const CASES: u64 = 64;

const SCHEMES: [&str; 6] = ["cc", "bounded", "unbounded", "quantum", "adaptive", "p2p"];
const WORKLOADS: [&str; 4] = ["barnes", "fft", "lu", "water"];

/// Picks a random non-empty subset of `pool`, preserving pool order (the
/// spec parser rejects duplicates, so subsets keep values distinct).
fn subset<'a>(rng: &mut Xoshiro256, pool: &[&'a str]) -> Vec<&'a str> {
    loop {
        let picked: Vec<&str> = pool.iter().copied().filter(|_| rng.chance(1, 2)).collect();
        if !picked.is_empty() {
            return picked;
        }
    }
}

/// Generates 1–3 strictly increasing values in `[lo, hi]` — distinct by
/// construction, as the duplicate-refusing parser requires.
fn increasing(rng: &mut Xoshiro256, lo: u64, hi: u64) -> Vec<u64> {
    let n = 1 + rng.next_below(3);
    let mut out = Vec::with_capacity(n as usize);
    let mut v = rng.next_range(lo, hi);
    for _ in 0..n {
        out.push(v);
        if v >= hi {
            break;
        }
        v = rng.next_range(v + 1, hi);
    }
    out
}

fn list(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn quoted(values: &[&str]) -> String {
    values
        .iter()
        .map(|v| format!("\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders one random, valid sweep spec and returns it with its
/// expected cardinality.
fn random_spec(rng: &mut Xoshiro256) -> (String, u64) {
    let schemes = subset(rng, &SCHEMES);
    let workloads = subset(rng, &WORKLOADS);
    let bounds = increasing(rng, 1, 128);
    let quantums = increasing(rng, 1, 1000);
    let cores = increasing(rng, 1, 16);
    let seeds = increasing(rng, 0, 1 << 20);
    let commit = rng.next_range(1, 1_000_000);

    let mut extras = String::new();
    if rng.chance(1, 2) {
        extras.push_str(&format!(",\"checkpoint\":{}", rng.next_range(1, 100_000)));
    }
    if rng.chance(1, 2) {
        extras.push_str(&format!(",\"workers\":{}", rng.next_range(1, 64)));
    }
    if rng.chance(1, 2) {
        extras.push_str(&format!(",\"max_cycles\":{}", rng.next_range(1, 1 << 40)));
    }

    let src = format!(
        r#"{{"v":1,"commit":{commit}{extras},"axes":{{
            "scheme":[{}],"bound":[{}],"quantum":[{}],
            "cores":[{}],"workload":[{}],"seed":[{}]}}}}"#,
        quoted(&schemes),
        list(&bounds),
        list(&quantums),
        list(&cores),
        quoted(&workloads),
        list(&seeds),
    );
    let cardinality = (schemes.len()
        * bounds.len()
        * quantums.len()
        * cores.len()
        * workloads.len()
        * seeds.len()) as u64;
    (src, cardinality)
}

#[test]
fn cardinality_is_the_product_of_axis_lengths() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x5EED_0001 + case);
        let (src, want) = random_spec(&mut rng);
        let spec = SweepSpec::parse(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        assert_eq!(spec.cardinality(), want, "case {case}");
        let jobs = spec.expand();
        assert_eq!(jobs.len() as u64, want, "case {case}: expansion size");
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i as u64, "case {case}: indices are dense");
        }
    }
}

#[test]
fn job_ids_are_unique_across_the_grid() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x5EED_0002 + case);
        let (src, _) = random_spec(&mut rng);
        let jobs = SweepSpec::parse(&src).unwrap().expand();
        let mut tokens: Vec<String> = jobs.iter().map(Job::token).collect();
        tokens.sort();
        let before = tokens.len();
        tokens.dedup();
        assert_eq!(
            tokens.len(),
            before,
            "case {case}: duplicate job IDs\n{src}"
        );
    }
}

#[test]
fn expansion_order_and_fingerprint_are_stable_across_parses() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x5EED_0003 + case);
        let (src, _) = random_spec(&mut rng);
        let a = SweepSpec::parse(&src).unwrap();
        let b = SweepSpec::parse(&src).unwrap();
        assert_eq!(a, b, "case {case}: parse is deterministic");
        assert_eq!(a.expand(), b.expand(), "case {case}: expansion is stable");
        assert_eq!(a.canonical(), b.canonical(), "case {case}: fingerprint");
    }
}

/// The capture-mode key is gone with the mode: a spec that still carries
/// it is refused by name (not silently ignored), and the canonical string
/// records the interval alone.
#[test]
fn the_removed_checkpoint_mode_key_is_an_unknown_field() {
    let axes = r#""axes":{"scheme":["cc"],"workload":["fft"]}"#;
    for mode in ["full", "delta"] {
        let src =
            format!(r#"{{"v":1,"commit":5,"checkpoint":2000,"checkpoint_mode":"{mode}",{axes}}}"#);
        assert_eq!(
            SweepSpec::parse(&src).expect_err(&src),
            SpecError::UnknownField("checkpoint_mode".to_owned())
        );
    }
    let with = SweepSpec::parse(&format!(r#"{{"v":1,"commit":5,"checkpoint":2000,{axes}}}"#));
    let canonical = with.expect("valid spec").canonical();
    assert!(canonical.contains(";checkpoint=2000;"), "{canonical}");
    let without = SweepSpec::parse(&format!(r#"{{"v":1,"commit":5,{axes}}}"#));
    let canonical = without.expect("valid spec").canonical();
    assert!(canonical.contains(";checkpoint=off;"), "{canonical}");
}

/// One corruption kind per iteration, applied to a fresh valid spec:
/// every corrupted document must be refused with a message that names
/// the offence (the parse error enumerations under test).
#[test]
fn corrupted_specs_are_rejected_with_enumerated_errors() {
    // (corruption, expected error fragment)
    type Corruption = fn(&mut Xoshiro256) -> String;
    let corruptions: &[(Corruption, &str)] = &[
        (
            |rng| {
                let b = rng.next_range(1, 100);
                format!(
                    r#"{{"v":1,"commit":5,"axes":{{"scheme":["cc"],"workload":["fft"],"bound":[{b},{b}]}}}}"#
                )
            },
            "repeats value",
        ),
        (
            |rng| {
                let c = 17 + rng.next_below(100);
                format!(
                    r#"{{"v":1,"commit":5,"axes":{{"scheme":["cc"],"workload":["fft"],"cores":[{c}]}}}}"#
                )
            },
            "out of range",
        ),
        (
            |rng| {
                let v = 2 + rng.next_below(100);
                format!(r#"{{"v":{v},"commit":5,"axes":{{"scheme":["cc"],"workload":["fft"]}}}}"#)
            },
            "unsupported sweep-spec version",
        ),
        (
            |_| r#"{"v":1,"commit":5,"axes":{"scheme":["warp9"],"workload":["fft"]}}"#.to_string(),
            "cc|bounded|unbounded|quantum|adaptive|p2p",
        ),
        (
            |rng| {
                let f = format!("field{}", rng.next_below(1000));
                format!(
                    r#"{{"v":1,"commit":5,"{f}":1,"axes":{{"scheme":["cc"],"workload":["fft"]}}}}"#
                )
            },
            "unknown sweep-spec field",
        ),
        (
            |rng| {
                let s = format!("{}.5", rng.next_below(1000));
                format!(
                    r#"{{"v":1,"commit":5,"axes":{{"scheme":["cc"],"workload":["fft"],"seed":[{s}]}}}}"#
                )
            },
            "non-negative integer",
        ),
        (
            |_| r#"{"v":1,"commit":0,"axes":{"scheme":["cc"],"workload":["fft"]}}"#.to_string(),
            "at least 1",
        ),
    ];
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x5EED_0004 + case);
        let (gen, expect) = corruptions[rng.next_below(corruptions.len() as u64) as usize];
        let src = gen(&mut rng);
        let err = SweepSpec::parse(&src).expect_err(&src).to_string();
        assert!(
            err.contains(expect),
            "case {case}: expected {expect:?} in {err:?} for\n{src}"
        );
    }
}
