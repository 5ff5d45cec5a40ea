//! Seeded multi-thread stress tests for the lock-free SPSC ring that
//! carries the threaded engine's OutQ/InQ traffic.
//!
//! The schedules are randomized (batch sizes, API choice, artificial
//! stalls) but driven by the in-tree seeded [`Xoshiro256`] generator, so a
//! failure reproduces from its printed seed. The assertions are the
//! contract the engine depends on: strict FIFO order end to end,
//! including across the ring→spill overflow boundary, and no lost or
//! duplicated items under concurrent producer/consumer interleavings.

use slacksim_core::rng::Xoshiro256;
use slacksim_core::sync::SpscRing;

/// One seeded producer/consumer round trip over a deliberately tiny ring,
/// mixing single-item and batch APIs on both sides.
fn stress_round(seed: u64, total: u64, ring_capacity: usize) {
    let ring: SpscRing<u64> = SpscRing::with_capacity(ring_capacity);
    let mut producer_rng = Xoshiro256::new(seed);
    let mut consumer_rng = Xoshiro256::new(seed ^ 0x9e37_79b9_7f4a_7c15);

    std::thread::scope(|scope| {
        let ring = &ring;
        scope.spawn(move || {
            let mut next = 0u64;
            let mut batch: Vec<u64> = Vec::new();
            while next < total {
                if producer_rng.chance(1, 2) {
                    // Batch push of a random run length (often larger than
                    // the ring, forcing the overflow spill).
                    let len = producer_rng.next_range(1, 64).min(total - next);
                    batch.clear();
                    batch.extend(next..next + len);
                    next += len;
                    ring.push_batch(&mut batch);
                    assert!(batch.is_empty(), "push_batch must consume its input");
                } else {
                    ring.push(next);
                    next += 1;
                }
                if producer_rng.chance(1, 16) {
                    std::thread::yield_now();
                }
            }
        });

        let mut seen = 0u64;
        let mut drained: Vec<u64> = Vec::new();
        while seen < total {
            if consumer_rng.chance(1, 2) {
                drained.clear();
                ring.drain_into(&mut drained);
                for &v in &drained {
                    assert_eq!(v, seen, "FIFO violated at item {seen} (seed {seed})");
                    seen += 1;
                }
            } else if let Some(v) = ring.pop() {
                assert_eq!(v, seen, "FIFO violated at item {seen} (seed {seed})");
                seen += 1;
            }
            if consumer_rng.chance(1, 16) {
                std::thread::yield_now();
            }
        }
        assert!(ring.pop().is_none(), "ring must be empty after all items");
        assert_eq!(ring.depth_hint(), 0);
    });
}

#[test]
fn seeded_interleavings_preserve_fifo_across_spill() {
    // Tiny ring so the spill path is exercised constantly; several seeds
    // so the interleavings differ even on a single-CPU host.
    for seed in [1, 2, 3, 0xdead_beef, 0x5eed_5eed] {
        stress_round(seed, 20_000, 8);
    }
}

#[test]
fn seeded_interleavings_large_ring() {
    // Mostly-lock-free regime: ring big enough that spill is rare.
    for seed in [7, 42] {
        stress_round(seed, 50_000, 1024);
    }
}

#[test]
fn push_exactly_capacity_fills_ring_without_spill_and_wraps() {
    // Filling to exactly `capacity` must stay on the lock-free path, and
    // the wrap-around of the power-of-two indices must preserve FIFO at
    // every possible ring offset.
    const CAP: usize = 8;
    let ring: SpscRing<u64> = SpscRing::with_capacity(CAP);
    let mut next = 0u64;
    for offset in 0..2 * CAP as u64 {
        // Stagger the ring's head by `offset` before each full fill.
        for _ in 0..offset % CAP as u64 {
            ring.push(next);
            assert_eq!(ring.pop(), Some(next));
            next += 1;
        }
        for _ in 0..CAP as u64 {
            ring.push(next);
            next += 1;
        }
        assert_eq!(ring.depth_hint(), CAP, "exactly full, nothing spilled");
        for expect in next - CAP as u64..next {
            assert_eq!(ring.pop(), Some(expect), "FIFO across wrap at {offset}");
        }
        assert!(ring.pop().is_none());
        assert_eq!(ring.depth_hint(), 0);
    }
}

#[test]
fn push_capacity_plus_one_spills_one_item_and_preserves_fifo() {
    const CAP: usize = 8;
    for extra in 1..=3u64 {
        let ring: SpscRing<u64> = SpscRing::with_capacity(CAP);
        let total = CAP as u64 + extra;
        for v in 0..total {
            ring.push(v);
        }
        assert_eq!(
            ring.depth_hint() as u64,
            total,
            "depth_hint counts ring + spill"
        );
        for expect in 0..total {
            assert_eq!(ring.pop(), Some(expect), "spill items come out last");
        }
        assert!(ring.pop().is_none(), "spill fully drained");
        // The queue must fully recover the lock-free regime after a
        // spill: a fresh fill of exactly `capacity` works again.
        for v in 0..CAP as u64 {
            ring.push(v);
        }
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), CAP);
        assert_eq!(out, (0..CAP as u64).collect::<Vec<_>>());
    }
}

#[test]
fn seeded_drain_interleaved_batches_across_spill_boundary() {
    // Single-threaded but seeded: alternate batch pushes (frequently
    // larger than the ring) with partial drains so the consumer crosses
    // the ring→spill boundary mid-drain in many different states.
    for seed in [11u64, 23, 0xfeed_f00d] {
        let mut rng = Xoshiro256::new(seed);
        let ring: SpscRing<u64> = SpscRing::with_capacity(8);
        let mut pushed = 0u64;
        let mut seen = 0u64;
        let mut batch: Vec<u64> = Vec::new();
        let mut out: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            let len = rng.next_range(1, 24);
            batch.clear();
            batch.extend(pushed..pushed + len);
            pushed += len;
            ring.push_batch(&mut batch);
            if rng.chance(1, 2) {
                out.clear();
                ring.drain_into(&mut out);
                for &v in &out {
                    assert_eq!(v, seen, "FIFO violated at {seen} (seed {seed})");
                    seen += 1;
                }
            } else {
                // Partial drain through the single-item path.
                let take = rng.next_range(0, len + 1);
                for _ in 0..take {
                    if let Some(v) = ring.pop() {
                        assert_eq!(v, seen, "FIFO violated at {seen} (seed {seed})");
                        seen += 1;
                    }
                }
            }
        }
        out.clear();
        ring.drain_into(&mut out);
        for &v in &out {
            assert_eq!(v, seen, "FIFO violated at {seen} (seed {seed})");
            seen += 1;
        }
        assert_eq!(seen, pushed, "no items lost or duplicated (seed {seed})");
        assert_eq!(ring.depth_hint(), 0);
    }
}

#[test]
fn producer_role_handoff_between_threads_is_safe_when_synchronized() {
    // A ring role may pass between threads only through a synchronizing
    // hand-off, such as a join. Model that: producer A pushes, joins
    // (synchronizes), then producer B pushes more.
    let ring: SpscRing<u64> = SpscRing::with_capacity(4);
    std::thread::scope(|scope| {
        let r = &ring;
        scope.spawn(move || {
            for v in 0..100 {
                r.push(v);
            }
        });
    });
    // First producer joined: this thread may now produce.
    for v in 100..200 {
        ring.push(v);
    }
    let mut out = Vec::new();
    ring.drain_into(&mut out);
    assert_eq!(out, (0..200).collect::<Vec<_>>());
}
