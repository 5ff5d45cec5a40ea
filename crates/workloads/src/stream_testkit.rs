//! Shared test helpers for stream generators (compiled into unit tests
//! and usable by downstream integration tests).

use slacksim_cmp::isa::{Instr, InstrStream, Op};

/// Operation counts observed over a stream prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCensus {
    /// Load instructions.
    pub loads: u64,
    /// Store instructions.
    pub stores: u64,
    /// FP operations (add + mul classes).
    pub fp: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Barrier arrivals.
    pub barriers: u64,
    /// Lock acquires.
    pub locks: u64,
    /// Lock releases.
    pub unlocks: u64,
}

/// Tallies the first `n` operations of a stream.
pub fn op_census(stream: &mut dyn InstrStream, n: u64) -> OpCensus {
    let mut c = OpCensus::default();
    for _ in 0..n {
        match stream.next_instr().op {
            Op::Load { .. } => c.loads += 1,
            Op::Store { .. } => c.stores += 1,
            Op::FpAlu | Op::FpMul => c.fp += 1,
            Op::Branch { .. } => c.branches += 1,
            Op::Barrier { .. } => c.barriers += 1,
            Op::LockAcquire { .. } => c.locks += 1,
            Op::LockRelease { .. } => c.unlocks += 1,
            _ => {}
        }
    }
    c
}

/// Collects the barrier ids in the first `n` operations.
pub fn barrier_ids(stream: &mut dyn InstrStream, n: u64) -> Vec<u32> {
    let mut ids = Vec::new();
    for _ in 0..n {
        if let Op::Barrier { id } = stream.next_instr().op {
            ids.push(id);
        }
    }
    ids
}

/// Asserts that two streams built by the same constructor produce
/// identical prefixes, and that `clone_box` preserves position.
///
/// # Panics
///
/// Panics when determinism or clone fidelity is violated.
pub fn determinism_check(make: impl Fn() -> Box<dyn InstrStream>) {
    let mut a = make();
    let mut b = make();
    for i in 0..5_000 {
        assert_eq!(a.next_instr(), b.next_instr(), "diverged at {i}");
    }
    // Clone mid-stream and compare continuations.
    let mut c = a.clone_box();
    for i in 0..5_000 {
        assert_eq!(a.next_instr(), c.next_instr(), "clone diverged at {i}");
    }
}

/// Asserts that drawing a stream through [`InstrStream::fill`] in blocks
/// of 1, 7 and 16 yields exactly its [`InstrStream::next_instr`] sequence.
///
/// # Panics
///
/// Panics at the first instruction where a block fill diverges.
pub fn block_fill_check(make: impl Fn() -> Box<dyn InstrStream>) {
    const N: usize = 20_000;
    let mut one_by_one = make();
    let expected: Vec<Instr> = (0..N).map(|_| one_by_one.next_instr()).collect();
    for block in [1, 7, 16] {
        let mut stream = make();
        let mut got = vec![Instr::new(Op::IntAlu, 0); N.next_multiple_of(block)];
        got.chunks_mut(block).for_each(|chunk| stream.fill(chunk));
        if let Some(i) = (0..N).find(|&i| got[i] != expected[i]) {
            panic!("blocks of {block} diverged at instruction {i}");
        }
    }
}
