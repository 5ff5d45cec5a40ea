//! Building blocks shared by all benchmark generators: filler-op mixes,
//! program-counter walking, and address-region helpers.

use slacksim_cmp::isa::Op;
use slacksim_core::rng::Xoshiro256;

/// Walks program counters through a code loop, emitting a wrap-around
/// branch at the end of each traversal — a compact model of an inner loop
/// body that keeps the I-cache warm after the first traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeWalker {
    base: u64,
    bytes: u64,
    cursor: u64,
}

impl CodeWalker {
    /// Creates a walker over `bytes` of code at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 8` (a loop needs at least two instructions).
    pub fn new(base: u64, bytes: u64) -> Self {
        assert!(bytes >= 8, "code loop too small");
        CodeWalker {
            base,
            bytes,
            cursor: 0,
        }
    }

    /// The PC for the next instruction.
    pub fn pc(&self) -> u64 {
        self.base + self.cursor
    }

    /// Advances to the next instruction slot; returns `true` when the
    /// walker wrapped (the natural place for a loop branch).
    pub fn advance(&mut self) -> bool {
        self.cursor += 4;
        if self.cursor >= self.bytes {
            self.cursor = 0;
            true
        } else {
            false
        }
    }

    /// Jumps to a different loop region (phase change).
    pub fn rebase(&mut self, base: u64, bytes: u64) {
        assert!(bytes >= 8, "code loop too small");
        self.base = base;
        self.bytes = bytes;
        self.cursor = 0;
    }
}

/// A generator's refill queue: the operations of one refill, held inline
/// in a ring. Generators refill only once it is drained, so it holds at
/// most one refill — Water's 27 operations are the largest.
#[derive(Debug, Clone)]
pub(crate) struct OpQueue {
    ops: [Op; OpQueue::CAPACITY],
    /// Read and write cursors; they wrap, and index modulo the capacity.
    head: u8,
    tail: u8,
}

impl OpQueue {
    /// Operations the queue holds.
    const CAPACITY: usize = 32;

    /// An empty queue.
    pub(crate) fn new() -> Self {
        OpQueue {
            ops: [Op::IntAlu; Self::CAPACITY],
            head: 0,
            tail: 0,
        }
    }

    /// Whether every queued operation has been taken.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Appends an operation.
    #[inline]
    pub(crate) fn push_back(&mut self, op: Op) {
        debug_assert!(
            usize::from(self.tail.wrapping_sub(self.head)) < Self::CAPACITY,
            "a refill overflowed the op queue"
        );
        self.ops[usize::from(self.tail) % Self::CAPACITY] = op;
        self.tail = self.tail.wrapping_add(1);
    }

    /// Takes the oldest operation.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<Op> {
        if self.is_empty() {
            return None;
        }
        let op = self.ops[usize::from(self.head) % Self::CAPACITY];
        self.head = self.head.wrapping_add(1);
        Some(op)
    }
}

/// Ratios (out of 256) of filler operation classes between memory
/// references; the remainder is integer ALU work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillerMix {
    /// FP add/compare share.
    pub fp: u16,
    /// FP multiply share.
    pub fp_mul: u16,
    /// Integer multiply share.
    pub mul: u16,
    /// Branch share.
    pub branch: u16,
    /// Of branches, mispredicted share (out of 256).
    pub mispredict: u16,
}

impl FillerMix {
    /// An integer-dominated mix (Barnes/LU-style bookkeeping code).
    pub const INT: FillerMix = FillerMix {
        fp: 32,
        fp_mul: 16,
        mul: 8,
        branch: 40,
        mispredict: 16,
    };

    /// A floating-point-dominated mix (FFT butterflies, Water forces).
    pub const FP: FillerMix = FillerMix {
        fp: 88,
        fp_mul: 56,
        mul: 4,
        branch: 24,
        mispredict: 8,
    };

    /// Draws one filler operation.
    pub fn draw(&self, rng: &mut Xoshiro256) -> Op {
        let r = rng.next_below(256) as u16;
        if r < self.fp {
            Op::FpAlu
        } else if r < self.fp + self.fp_mul {
            Op::FpMul
        } else if r < self.fp + self.fp_mul + self.mul {
            Op::IntMul
        } else if r < self.fp + self.fp_mul + self.mul + self.branch {
            Op::Branch {
                mispredict: rng.next_below(256) as u16 % 256 < self.mispredict,
            }
        } else {
            Op::IntAlu
        }
    }
}

/// Address-space layout shared by all benchmarks.
///
/// | region | base | contents |
/// |---|---|---|
/// | code | `0x0000_1000` | per-phase instruction loops |
/// | private | `0x1000_0000 + tid · 16 MiB` | per-thread data |
/// | shared | `0x8000_0000` | globally shared structures |
/// | thread-shared | `0xA000_0000 + tid · 16 MiB` | data owned by one thread but read by others (transpose sources, molecule blocks) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Regions {
    tid: u64,
}

impl Regions {
    /// Code-region base.
    pub const CODE: u64 = 0x0000_1000;
    /// Globally-shared base.
    pub const SHARED: u64 = 0x8000_0000;

    /// Creates the layout view for thread `tid`.
    pub fn new(tid: usize) -> Self {
        Regions { tid: tid as u64 }
    }

    /// This thread's private-region base.
    pub fn private(&self) -> u64 {
        0x1000_0000 + self.tid * 0x0100_0000
    }

    /// Thread `t`'s exported (read-shared) region base.
    pub fn thread_shared(t: usize) -> u64 {
        0xA000_0000 + t as u64 * 0x0100_0000
    }

    /// Code base for phase `phase` (keeps distinct loops per phase so the
    /// I-cache exhibits phase-change misses).
    pub fn code(phase: u64) -> u64 {
        Self::CODE + phase * 0x4000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_walker_wraps_at_loop_end() {
        let mut w = CodeWalker::new(0x1000, 16); // 4 instructions
        assert_eq!(w.pc(), 0x1000);
        assert!(!w.advance());
        assert!(!w.advance());
        assert!(!w.advance());
        assert!(w.advance()); // wrapped
        assert_eq!(w.pc(), 0x1000);
    }

    #[test]
    fn code_walker_rebase_resets() {
        let mut w = CodeWalker::new(0x1000, 64);
        w.advance();
        w.rebase(0x2000, 32);
        assert_eq!(w.pc(), 0x2000);
    }

    #[test]
    #[should_panic(expected = "code loop too small")]
    fn tiny_loop_rejected() {
        let _ = CodeWalker::new(0, 4);
    }

    #[test]
    fn filler_mix_distribution_sane() {
        let mut rng = Xoshiro256::new(7);
        let mut fp = 0;
        let mut br = 0;
        let n = 20_000;
        for _ in 0..n {
            match FillerMix::FP.draw(&mut rng) {
                Op::FpAlu | Op::FpMul => fp += 1,
                Op::Branch { .. } => br += 1,
                _ => {}
            }
        }
        // FP mix: (88+56)/256 ≈ 56% fp, 24/256 ≈ 9.4% branches.
        let fp_frac = fp as f64 / n as f64;
        let br_frac = br as f64 / n as f64;
        assert!((0.50..0.63).contains(&fp_frac), "fp fraction {fp_frac}");
        assert!((0.06..0.13).contains(&br_frac), "branch fraction {br_frac}");
    }

    #[test]
    fn filler_mix_is_deterministic() {
        let mut a = Xoshiro256::new(9);
        let mut b = Xoshiro256::new(9);
        for _ in 0..100 {
            assert_eq!(FillerMix::INT.draw(&mut a), FillerMix::INT.draw(&mut b));
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let r0 = Regions::new(0);
        let r7 = Regions::new(7);
        assert!(r0.private() + 0x0100_0000 <= r7.private());
        assert!(r7.private() + 0x0100_0000 <= Regions::SHARED);
        assert!(Regions::SHARED < Regions::thread_shared(0));
        assert!(Regions::thread_shared(0) + 0x0100_0000 <= Regions::thread_shared(1));
        assert!(Regions::code(100) < 0x1000_0000);
    }
}
