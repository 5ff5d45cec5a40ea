//! The batched engine's boundary merge: a timestamp sweep over the
//! per-core staging buffers.

use crate::event::Timestamped;

/// [`sweep`]'s marker for a core with nothing staged. No event carries it:
/// the cycle cap stops every run far below.
pub(super) const NO_HEAD: u64 = u64::MAX;

/// Timestamp of the event an armed buffer yields next.
pub(super) fn head_ts<E>(buf: &[Timestamped<E>]) -> u64 {
    buf.last().map_or(NO_HEAD, |ev| ev.ts.as_u64())
}

/// Reverses a staging buffer, so that `pop` yields its events in staging
/// order without shifting the rest, and returns its head timestamp.
pub(super) fn arm<E>(buf: &mut [Timestamped<E>]) -> u64 {
    buf.reverse();
    head_ts(buf)
}

/// The boundary merge. `heads[i]` is the timestamp of core `i`'s next
/// staged event (or [`NO_HEAD`]); `serve(i)` consumes that event and
/// returns the core's new head. Each staging buffer is already sorted (a
/// core stages events as its clock advances) and every timestamp lies in
/// `[from, window_end)`, so visiting timestamps in ascending order and,
/// within one, cores in index order — draining each core's run of equal
/// timestamps before moving on, then jumping to the smallest head seen —
/// serves exactly (timestamp, core id, staging order). One pass over the
/// dense `heads` array per distinct timestamp replaces a min-scan over
/// every buffer per event.
pub(super) fn sweep(heads: &mut [u64], from: u64, mut serve: impl FnMut(usize) -> u64) {
    let mut ts = from;
    loop {
        let mut next = NO_HEAD;
        for (i, head) in heads.iter_mut().enumerate() {
            while *head == ts {
                *head = serve(i);
            }
            next = next.min(*head);
        }
        if next == NO_HEAD {
            return;
        }
        ts = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycle;

    /// The merge this engine shipped with: a min-scan over every
    /// buffer's head per event, replacing the candidate only on a strictly
    /// smaller timestamp so ties go to the lowest core id. Kept as the
    /// reference [`sweep`] is compared against.
    fn min_scan_order(staged: Vec<Vec<Timestamped<u32>>>) -> Vec<(usize, u64, u32)> {
        let mut heads: Vec<_> = staged
            .into_iter()
            .map(|b| b.into_iter().peekable())
            .collect();
        let mut order = Vec::new();
        loop {
            let mut best: Option<(Cycle, usize)> = None;
            for (i, it) in heads.iter_mut().enumerate() {
                if let Some(head) = it.peek() {
                    if best.is_none_or(|(ts, _)| head.ts < ts) {
                        best = Some((head.ts, i));
                    }
                }
            }
            let Some((_, idx)) = best else { break };
            let ev = heads[idx].next().expect("peeked head");
            order.push((idx, ev.ts.as_u64(), ev.payload));
        }
        order
    }

    fn sweep_order(mut staged: Vec<Vec<Timestamped<u32>>>, from: u64) -> Vec<(usize, u64, u32)> {
        let mut heads: Vec<u64> = staged.iter_mut().map(|b| arm(b)).collect();
        let mut order = Vec::new();
        sweep(&mut heads, from, |i| {
            let ev = staged[i].pop().expect("a finite head names an event");
            order.push((i, ev.ts.as_u64(), ev.payload));
            head_ts(&staged[i])
        });
        assert!(staged.iter().all(Vec::is_empty), "every event served");
        order
    }

    #[test]
    fn sweep_serves_the_min_scan_order_element_by_element() {
        use crate::rng::Xoshiro256;
        let (from, to) = (1000u64, 1050u64);
        let sorted = |rng: &mut Xoshiro256, len: u64, tag: &mut u32| {
            let mut ts: Vec<u64> = (0..len).map(|_| rng.next_range(from, to)).collect();
            ts.sort_unstable();
            ts.into_iter()
                .map(|t| {
                    *tag += 1;
                    Timestamped::new(Cycle::new(t), *tag)
                })
                .collect::<Vec<_>>()
        };
        let mut cases: Vec<Vec<Vec<Timestamped<u32>>>> = Vec::new();
        let mut rng = Xoshiro256::new(0x5eed);
        for round in 0..200u64 {
            let cores = rng.next_range(1, 70) as usize;
            let mut tag = 0;
            // Few distinct timestamps on even rounds, so ties across
            // cores and runs of equal timestamps within one are common;
            // a third of the cores stage nothing.
            cases.push(
                (0..cores)
                    .map(|_| {
                        let len = if rng.chance(1, 3) {
                            0
                        } else {
                            rng.next_below(9)
                        };
                        let mut buf = sorted(&mut rng, len, &mut tag);
                        if round % 2 == 0 {
                            for ev in &mut buf {
                                ev.ts = Cycle::new(from + ev.ts.as_u64() % 4);
                            }
                            buf.sort_by_key(|ev| ev.ts);
                        }
                        buf
                    })
                    .collect(),
            );
        }
        // One core holding every event, nothing staged at all, and a lone
        // event in the window's last cycle.
        let mut tag = 0;
        let mut hog = vec![Vec::new(); 64];
        hog[17] = sorted(&mut rng, 300, &mut tag);
        cases.push(hog);
        cases.push(vec![Vec::new(); 64]);
        let mut lone = vec![Vec::new(); 64];
        lone[63] = vec![Timestamped::new(Cycle::new(to - 1), 1)];
        cases.push(lone);

        for (n, staged) in cases.into_iter().enumerate() {
            let want = min_scan_order(staged.clone());
            let got = sweep_order(staged, from);
            assert_eq!(want.len(), got.len(), "case {n}: serviced count");
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w, g, "case {n}: element {k} (core, ts, tag)");
            }
        }
    }
}
