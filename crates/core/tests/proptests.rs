//! Randomised property tests for the kernel's data structures and
//! invariants, driven by the in-tree deterministic [`Xoshiro256`] RNG so
//! they need no external crates and reproduce bit-identically on every
//! run.

use slacksim_core::event::{CoreId, GlobalQueue, Inbox, Timestamped};
use slacksim_core::model::{speculative_time, SpeculativeModelInputs};
use slacksim_core::rng::Xoshiro256;
use slacksim_core::scheme::{AdaptiveConfig, AdaptiveController, PaceSample, Pacer, Scheme};
use slacksim_core::speculative::IntervalTracker;
use slacksim_core::time::Cycle;
use slacksim_core::violation::{TimestampMonitor, ViolationKind, ViolationTally};

const CASES: u64 = 64;

/// The monitor must flag exactly the operations that are strictly smaller
/// than the running maximum of everything seen before.
#[test]
fn monitor_matches_brute_force_oracle() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xA11C + case);
        let len = 1 + rng.next_below(200) as usize;
        let mut monitor = TimestampMonitor::new();
        let mut max_seen = 0u64;
        for _ in 0..len {
            let t = rng.next_below(1000);
            let expected = t < max_seen;
            let got = monitor.observe(Cycle::new(t));
            assert_eq!(got, expected, "case {case}, ts {t}");
            max_seen = max_seen.max(t);
        }
    }
}

/// Draining the global queue after pushing yields events sorted by
/// (timestamp, core, arrival order).
#[test]
fn global_queue_pops_in_canonical_order() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xC33E + case);
        let len = 1 + rng.next_below(100) as usize;
        let events: Vec<(u64, u16)> = (0..len)
            .map(|_| (rng.next_below(100), rng.next_below(8) as u16))
            .collect();
        let mut gq: GlobalQueue<usize> = GlobalQueue::new();
        for (i, &(ts, core)) in events.iter().enumerate() {
            gq.push(CoreId::new(core), Timestamped::new(Cycle::new(ts), i));
        }
        let mut expected: Vec<(u64, u16, usize)> = events
            .iter()
            .enumerate()
            .map(|(i, &(ts, core))| (ts, core, i))
            .collect();
        expected.sort();
        let mut got = Vec::new();
        while let Some((core, ev)) = gq.pop() {
            got.push((ev.ts.as_u64(), core.index() as u16, ev.payload));
        }
        assert_eq!(got, expected, "case {case}");
    }
}

/// The inbox never releases an event before its timestamp, and releases
/// everything by the time `now` passes the maximum.
#[test]
fn inbox_due_semantics() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xD44F + case);
        let n_events = 1 + rng.next_below(60) as usize;
        let events: Vec<u64> = (0..n_events).map(|_| rng.next_below(100)).collect();
        let n_probes = 1 + rng.next_below(40) as usize;
        let mut probes: Vec<u64> = (0..n_probes).map(|_| rng.next_below(120)).collect();
        let mut inbox: Inbox<u64> = Inbox::new();
        for &ts in &events {
            inbox.deliver(Timestamped::new(Cycle::new(ts), ts));
        }
        probes.sort_unstable();
        let mut released = 0usize;
        for &now in &probes {
            while let Some(ev) = inbox.pop_due(Cycle::new(now)) {
                assert!(ev.ts.as_u64() <= now, "case {case}: early release");
                released += 1;
            }
        }
        while inbox.pop_due(Cycle::new(1000)).is_some() {
            released += 1;
        }
        assert_eq!(released, events.len(), "case {case}");
    }
}

/// The interval tracker agrees with a brute-force recomputation.
#[test]
fn interval_tracker_matches_oracle() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xE550 + case);
        let n_viol = rng.next_below(100) as usize;
        let mut sorted: Vec<u64> = (0..n_viol).map(|_| rng.next_below(5_000)).collect();
        sorted.sort_unstable();
        let interval = rng.next_range(10, 500);
        let end = rng.next_range(5_000, 6_000);

        let mut tracker = IntervalTracker::new(interval);
        // Feed violations in time order, closing intervals as we pass them
        // (as the engine does).
        for &v in &sorted {
            tracker.close_intervals_up_to(Cycle::new(v));
            tracker.observe_violation(Cycle::new(v));
        }
        tracker.close_intervals_up_to(Cycle::new(end));

        // The same stream *without* interleaved closes must agree: a
        // violation stamped past the current interval closes the
        // overtaken intervals itself before attributing.
        let mut ahead = IntervalTracker::new(interval);
        for &v in &sorted {
            ahead.observe_violation(Cycle::new(v));
        }
        ahead.close_intervals_up_to(Cycle::new(end));
        assert_eq!(ahead.intervals_total(), tracker.intervals_total());
        assert_eq!(ahead.intervals_violating(), tracker.intervals_violating());
        assert!(
            (ahead.mean_first_distance() - tracker.mean_first_distance()).abs() < 1e-9,
            "case {case}: self-closing path diverged"
        );

        // Oracle: bucket violations by interval index.
        let total = end / interval;
        let mut first: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &v in &sorted {
            let idx = v / interval;
            if idx < total {
                first.entry(idx).or_insert(v - idx * interval);
            }
        }
        assert_eq!(tracker.intervals_total(), total, "case {case}");
        assert_eq!(
            tracker.intervals_violating(),
            first.len() as u64,
            "case {case}"
        );
        if !first.is_empty() {
            let mean = first.values().sum::<u64>() as f64 / first.len() as f64;
            assert!(
                (tracker.mean_first_distance() - mean).abs() < 1e-9,
                "case {case}"
            );
        }
    }
}

/// Tally `since` and `merge` are inverse-ish: a.merge(b.since(a)) == b
/// when b dominates a.
#[test]
fn tally_merge_since_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0xF661 + case);
        let mut a = ViolationTally::new();
        let mut b = ViolationTally::new();
        for kind in ViolationKind::ALL {
            let x = rng.next_below(50);
            let extra = rng.next_below(50);
            for _ in 0..x {
                a.record(kind);
                b.record(kind);
            }
            for _ in 0..extra {
                b.record(kind);
            }
        }
        let delta = b.since(&a);
        let mut a2 = a;
        a2.merge(&delta);
        assert_eq!(a2, b, "case {case}");
    }
}

/// Every pacer keeps its window strictly ahead of global time (liveness)
/// and monotone in global time; Lax-P2P's per-core windows always give a
/// core at the minimum local time a window above its local time, whatever
/// the clocks and however often the pairing is redrawn.
#[test]
fn pacer_windows_are_live_and_monotone() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x1772 + case);
        let bound = rng.next_range(1, 500);
        let quantum = rng.next_range(1, 500);
        let len = 2 + rng.next_below(48) as usize;
        let mut sorted: Vec<u64> = (0..len).map(|_| rng.next_below(100_000)).collect();
        sorted.sort_unstable();
        let p2p = Scheme::LaxP2p {
            lead: rng.next_range(1, 8),
            period: rng.next_range(1, 200),
            seed: case,
        };
        for scheme in [
            Scheme::CycleByCycle,
            Scheme::BoundedSlack { bound },
            Scheme::UnboundedSlack,
            Scheme::Quantum { quantum },
            Scheme::Adaptive(AdaptiveConfig::default()),
            p2p.clone(),
        ] {
            let p = scheme.clone().into_pacer();
            let mut last = Cycle::ZERO;
            for &g in &sorted {
                let w = p.window_end(Cycle::new(g));
                assert!(w > Cycle::new(g), "case {case}: {} stalls", scheme.name());
                assert!(w >= last, "case {case}: {} regressed", scheme.name());
                last = w;
            }
        }

        // Per-core windows over clocks that move as a run moves them: each
        // core to somewhere in `[local, window end]`.
        let mut pacer: Pacer = p2p.into_pacer();
        let n = 1 + rng.next_below(16) as usize;
        let mut locals: Vec<Cycle> = (0..n).map(|_| Cycle::new(rng.next_below(4))).collect();
        let mut ends = Vec::new();
        for step in 0..64 {
            assert!(
                pacer.window_ends(&locals, &mut ends),
                "case {case}: p2p paces per core"
            );
            assert_eq!(ends.len(), n, "case {case} step {step}");
            let min = locals.iter().copied().min().expect("n >= 1");
            for (i, (&local, &end)) in locals.iter().zip(&ends).enumerate() {
                assert!(
                    local != min || end > local,
                    "case {case} step {step}: core {i} at the minimum {local} got window {end}"
                );
            }
            for (local, &end) in locals.iter_mut().zip(&ends) {
                if end > *local {
                    *local += rng.next_below((end - *local).min(100) + 1);
                }
            }
        }
    }
}

/// The adaptive controller's published bound always stays within the
/// configured limits, whatever the violation history.
#[test]
fn adaptive_bound_stays_in_limits() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x2883 + case);
        let min_bound = rng.next_range(1, 8);
        let max_bound = min_bound + rng.next_below(120);
        let n_samples = 1 + rng.next_below(100) as usize;
        let mut ctl = AdaptiveController::new(AdaptiveConfig {
            min_bound,
            max_bound,
            initial_bound: min_bound,
            ..AdaptiveConfig::default()
        });
        let mut global = 0u64;
        for _ in 0..n_samples {
            let cycles = rng.next_range(1, 5_000);
            let violations = rng.next_below(500);
            global += cycles;
            ctl.on_sample(&PaceSample {
                global: Cycle::new(global),
                window_cycles: cycles,
                window_violations: violations,
            });
            let b = ctl.bound();
            assert!(
                b >= min_bound && b <= max_bound,
                "case {case}: bound {b} outside [{min_bound}, {max_bound}]"
            );
        }
        assert_eq!(ctl.samples(), n_samples as u64, "case {case}");
    }
}

/// A uniformly noisier history never ends with a larger bound than a
/// quieter one (monotone response of the default policy).
#[test]
fn adaptive_response_is_monotone_in_noise() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x3994 + case);
        let len = 10 + rng.next_below(50) as usize;
        let boost = rng.next_range(1, 10);
        let mut quiet = AdaptiveController::new(AdaptiveConfig::default());
        let mut noisy = AdaptiveController::new(AdaptiveConfig::default());
        let mut global = 0u64;
        for _ in 0..len {
            let v = rng.next_below(4);
            global += 1024;
            let s = |violations| PaceSample {
                global: Cycle::new(global),
                window_cycles: 1024,
                window_violations: violations,
            };
            quiet.on_sample(&s(v));
            noisy.on_sample(&s(v + boost));
        }
        assert!(
            noisy.fractional_bound() <= quiet.fractional_bound(),
            "case {case}"
        );
    }
}

/// The analytical model is monotone in F and Dr, and equals Tcpt when no
/// interval violates.
#[test]
fn speculative_model_monotonicity() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x4AA5 + case);
        let t_cc = 1.0 + rng.next_f64() * 999.0;
        let t_cpt = 1.0 + rng.next_f64() * 999.0;
        let f = rng.next_f64();
        let dr = rng.next_f64() * 10_000.0;
        let interval = 10_000.0 + rng.next_f64() * 90_000.0;
        let base = SpeculativeModelInputs {
            t_cc,
            t_cpt,
            fraction_violating: f,
            rollback_distance: dr,
            interval,
        };
        let ts = speculative_time(&base);
        assert!(ts >= 0.0, "case {case}");
        // No violations: exactly the checkpointing run.
        let clean = SpeculativeModelInputs {
            fraction_violating: 0.0,
            ..base
        };
        assert!(
            (speculative_time(&clean) - t_cpt).abs() < 1e-9,
            "case {case}"
        );
        // The F-derivative of the model is Tcc − Tcpt·(1 − Dr/I): more
        // violating intervals cost more exactly when the CC replay is
        // slower than the normal-simulation time they displace.
        let df = t_cc - t_cpt * (1.0 - dr / interval);
        let worse = SpeculativeModelInputs {
            fraction_violating: (f + 0.1).min(1.0),
            ..base
        };
        let delta = speculative_time(&worse) - ts;
        if worse.fraction_violating > f {
            assert!(
                (delta - df * (worse.fraction_violating - f)).abs() < 1e-6,
                "case {case}: model must be affine in F"
            );
        }
        // Longer rollback distance can only cost more.
        let farther = SpeculativeModelInputs {
            rollback_distance: dr + 100.0,
            ..base
        };
        assert!(speculative_time(&farther) >= ts - 1e-9, "case {case}");
    }
}

/// Bounded RNG draws stay in range for arbitrary bounds and seeds.
#[test]
fn rng_bounded_draws() {
    for case in 0..CASES {
        let mut meta = Xoshiro256::new(0x5BB6 + case);
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(u64::MAX - 1);
        let n = 1 + meta.next_below(100);
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..n {
            assert!(rng.next_below(bound) < bound, "case {case}");
        }
    }
}

/// Cycle arithmetic: saturating ops never panic and ordering holds.
#[test]
fn cycle_arithmetic() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x6CC7 + case);
        let a = rng.next_u64();
        let b = rng.next_u64();
        let ca = Cycle::new(a);
        let cb = Cycle::new(b);
        assert_eq!(ca.max(cb).as_u64(), a.max(b), "case {case}");
        assert_eq!(ca.min(cb).as_u64(), a.min(b), "case {case}");
        assert_eq!(ca.saturating_sub(cb), a.saturating_sub(b), "case {case}");
        assert!(
            ca.saturating_add(b).as_u64() >= a || a.checked_add(b).is_none(),
            "case {case}"
        );
    }
}

/// `next_multiple_of` lands strictly above on an exact multiple.
#[test]
fn cycle_next_multiple() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x7DD8 + case);
        let raw = rng.next_below(1_000_000);
        let q = rng.next_range(1, 10_000);
        let n = Cycle::new(raw).next_multiple_of(q);
        assert!(n.as_u64() > raw, "case {case}");
        assert_eq!(n.as_u64() % q, 0, "case {case}");
        assert!(n.as_u64() - raw <= q, "case {case}");
    }
}

/// Degenerate checkpoint interval of 1: every violation lands at offset
/// 0, every closed cycle is its own interval, and the statistics stay
/// exact.
#[test]
fn interval_tracker_interval_of_one() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::new(0x1111 + case);
        let end = rng.next_range(50, 300);
        let n_viol = rng.next_below(50) as usize;
        let mut cycles: Vec<u64> = (0..n_viol).map(|_| rng.next_below(end)).collect();
        cycles.sort_unstable();
        cycles.dedup();

        let mut t = IntervalTracker::new(1);
        for &v in &cycles {
            t.close_intervals_up_to(Cycle::new(v));
            t.observe_violation(Cycle::new(v));
        }
        t.close_intervals_up_to(Cycle::new(end));

        assert_eq!(t.intervals_total(), end, "case {case}");
        assert_eq!(t.intervals_violating(), cycles.len() as u64, "case {case}");
        // With I = 1 the only possible offset is 0.
        assert_eq!(t.mean_first_distance(), 0.0, "case {case}");
        let f = cycles.len() as f64 / end as f64;
        assert!((t.fraction_violating() - f).abs() < 1e-12, "case {case}");
    }
}

/// The engines disable speculation by parking the next checkpoint
/// trigger at `u64::MAX`. The tracker must tolerate the same sentinel:
/// an (effectively) unreachable interval never closes and reports empty
/// statistics without overflowing, and the one violation stamp that *can*
/// reach the interval's end (`u64::MAX` itself) rolls into a successor
/// interval whose end saturates out of the cycle range.
#[test]
fn interval_tracker_unreachable_checkpoint_guard() {
    let mut t = IntervalTracker::new(u64::MAX);
    t.observe_violation(Cycle::new(0));
    t.close_intervals_up_to(Cycle::new(u64::MAX - 1));
    assert_eq!(
        t.intervals_total(),
        0,
        "the unreachable interval never closes"
    );
    assert_eq!(t.intervals_violating(), 0);
    assert_eq!(t.fraction_violating(), 0.0);
    assert_eq!(t.mean_first_distance(), 0.0);
    assert_eq!(t.current_start(), Cycle::ZERO);

    // Exactly at the interval's end: closes [0, MAX) with its distance-0
    // observation and opens [MAX, ..) whose end overflows u64 — that
    // successor can never close, and closing must not loop or wrap.
    t.observe_violation(Cycle::new(u64::MAX));
    assert_eq!(t.intervals_total(), 1);
    assert_eq!(t.intervals_violating(), 1);
    assert_eq!(t.mean_first_distance(), 0.0);
    assert_eq!(t.current_start(), Cycle::new(u64::MAX));
    t.close_intervals_up_to(Cycle::new(u64::MAX));
    assert_eq!(t.intervals_total(), 1, "overflowing interval never closes");
}

/// Rollback landing exactly on the checkpoint boundary: a violation
/// stamped at `start + I` closes the interval it overtook *clean* and is
/// attributed to the next interval at distance 0, and `reopen_current` —
/// the rollback restarting the interval — erases exactly the current
/// observation while already-closed intervals stay counted.
#[test]
fn interval_tracker_rollback_on_the_checkpoint_boundary() {
    let interval = 100u64;
    let mut t = IntervalTracker::new(interval);

    // Violation exactly at [0, 100)'s closing boundary: the first
    // interval closes clean, the stamp lands at offset 0 of [100, 200).
    t.observe_violation(Cycle::new(interval));
    t.close_intervals_up_to(Cycle::new(interval));
    assert_eq!(t.intervals_total(), 1);
    assert_eq!(t.intervals_violating(), 0, "overtaken interval is clean");

    // A rollback restarts the current interval before it closes: its
    // boundary observation is erased.
    t.reopen_current();
    t.close_intervals_up_to(Cycle::new(2 * interval));
    assert_eq!(t.intervals_total(), 2);
    assert_eq!(t.intervals_violating(), 0, "reopened interval closed clean");

    // The CC replay after the rollback re-detects on the boundary again:
    // attributed to [200, 300) at distance 0.
    t.observe_violation(Cycle::new(2 * interval));
    t.close_intervals_up_to(Cycle::new(3 * interval));
    assert_eq!(t.intervals_total(), 3);
    assert_eq!(t.intervals_violating(), 1);
    assert_eq!(t.mean_first_distance(), 0.0);
}
