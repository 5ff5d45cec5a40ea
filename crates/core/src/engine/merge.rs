//! The window loop's service order: which staged event the end of a
//! window services when.

use crate::event::Timestamped;
use crate::time::Cycle;

/// One staged event: its timestamp, its core and its index in the core's
/// staging buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Staged {
    pub(super) ts: Cycle,
    pub(super) core: u32,
    pub(super) idx: u32,
}

impl Staged {
    pub(super) fn new(ts: Cycle, core: usize, idx: usize) -> Self {
        Staged {
            ts,
            core: core as u32,
            idx: idx as u32,
        }
    }
}

/// The staged events of core `core`, in staging order.
pub(super) fn staged_of<E>(
    core: usize,
    staged: &[Timestamped<E>],
) -> impl Iterator<Item = Staged> + '_ {
    staged
        .iter()
        .enumerate()
        .map(move |(idx, ev)| Staged::new(ev.ts, core, idx))
}

/// Timestamp bits one pass of [`by_timestamp`] sorts on: a pass buckets
/// at most 2^10 cycles, so a window of any width sorts in bounded memory.
const DIGIT_BITS: u32 = 10;

/// [`by_timestamp`]'s scratch: one pass's buckets and the array it
/// places into. Neither shrinks.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    counts: Vec<u32>,
    spare: Vec<Staged>,
}

/// A barrier window's service order in `order`: every event staged by
/// the `n` cores whose buffers `staged` names, in (timestamp, core id,
/// staging order) — the sequential engine's pop order (timestamp, then
/// core id as fixed bus arbitration priority, then FIFO). Every
/// timestamp lies in `[from, from + width)`.
///
/// A stable radix sort on `ts − from`, [`DIGIT_BITS`] a pass from the
/// lowest: the events start core by core in staging order, and each
/// pass counts its digit's events, turns the counts into each digit's
/// first position by a prefix sum and places every event, in the order
/// the last pass left, at its digit's next position. A window up to
/// 2^10 cycles wide — every quantum the benchmark runs — takes one pass,
/// a one-cycle window (cc, a replay) none.
pub(super) fn by_timestamp<'s, E: 's>(
    n: usize,
    staged: impl Fn(usize) -> &'s [Timestamped<E>],
    (from, width): (u64, u64),
    scratch: &mut Scratch,
    order: &mut Vec<Staged>,
) {
    order.clear();
    for core in 0..n {
        order.extend(staged_of(core, staged(core)));
    }
    debug_assert!(order.iter().all(|s| s.ts.as_u64() - from < width));
    let Scratch { counts, spare } = scratch;
    let bits = u64::BITS - width.saturating_sub(1).leading_zeros();
    let mut shift = 0;
    while shift < bits {
        let digit_bits = DIGIT_BITS.min(bits - shift);
        let mask = (1 << digit_bits) - 1;
        let digit = |s: &Staged| ((s.ts.as_u64() - from) >> shift) as usize & mask;
        counts.clear();
        counts.resize(mask + 2, 0);
        for s in order.iter() {
            counts[digit(s) + 1] += 1;
        }
        for b in 1..counts.len() {
            counts[b] += counts[b - 1];
        }
        spare.resize(order.len(), Staged::new(Cycle::ZERO, 0, 0));
        for s in order.iter() {
            let at = &mut counts[digit(s)];
            spare[*at as usize] = *s;
            *at += 1;
        }
        std::mem::swap(order, spare);
        shift += digit_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merge this engine shipped with: a min-scan over every
    /// buffer's head per event, replacing the candidate only on a strictly
    /// smaller timestamp so ties go to the lowest core id. Kept as the
    /// reference [`by_timestamp`] is compared against.
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

    fn sorted_order(
        staged: &[Vec<Timestamped<u32>>],
        window: (u64, u64),
    ) -> Vec<(usize, u64, u32)> {
        let mut order = Vec::new();
        let mut scratch = Scratch::default();
        by_timestamp(
            staged.len(),
            |i| &staged[i],
            window,
            &mut scratch,
            &mut order,
        );
        order
            .iter()
            .map(|s| {
                let ev = &staged[s.core as usize][s.idx as usize];
                (s.core as usize, ev.ts.as_u64(), ev.payload)
            })
            .collect()
    }

    #[test]
    fn the_timestamp_order_is_the_min_scan_order_element_by_element() {
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

        // Each case in the window of the timestamps drawn (`[from, to]`),
        // which one pass sorts; in windows that take two and seven passes
        // (a quantum of thousands of cycles, and the widest there is);
        // and squeezed into one cycle (cc, a replay), which takes none.
        let one_cycle = |staged: &Vec<Vec<Timestamped<u32>>>| {
            let mut staged = staged.clone();
            staged
                .iter_mut()
                .flatten()
                .for_each(|ev| ev.ts = Cycle::new(from));
            staged
        };
        // Spread over all 64 bits by `t · (2^58 − 1) = t · 2^58 − t`:
        // the order of `t` is carried by the top digit alone, and the
        // lowest digit runs against it.
        let spread = |staged: &Vec<Vec<Timestamped<u32>>>| {
            let mut staged = staged.clone();
            staged.iter_mut().flatten().for_each(|ev| {
                let t = ev.ts.as_u64() - from;
                ev.ts = Cycle::new(from + t * ((1 << 58) - 1))
            });
            staged
        };
        let windows = cases.iter().flat_map(|staged| {
            [
                (staged.clone(), to - from + 1),
                (staged.clone(), 1 << 20),
                (spread(staged), u64::MAX - from),
                (one_cycle(staged), 1),
            ]
        });
        for (n, (staged, width)) in windows.enumerate() {
            let want = min_scan_order(staged.clone());
            let got = sorted_order(&staged, (from, width));
            assert_eq!(want.len(), got.len(), "case {n}: serviced count");
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w, g,
                    "case {n} at width {width}: element {k} (core, ts, tag)"
                );
            }
        }
    }
}
