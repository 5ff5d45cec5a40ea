//! Synthetic blocked LU decomposition (256×256 matrix, paper Table 1).
//!
//! SPLASH-2 LU factorises the matrix in steps: at each step every thread
//! reads the shared pivot block, then updates the blocks it owns
//! (owner-computes), with a barrier separating steps. Shared traffic is
//! dominated by *read-only* pivot sharing; updates are private. This gives
//! LU the lowest bus density and the lowest fraction of violating
//! checkpoint intervals in the paper (Table 3: 13–31 %).

use slacksim_cmp::isa::{Instr, InstrStream, Op};
use slacksim_core::rng::Xoshiro256;

use crate::mix::{CodeWalker, FillerMix, OpQueue, Regions};
use crate::params::WorkloadParams;

/// Instructions spent reading the pivot block per step.
const PIVOT_LEN: u64 = 900;
/// Instructions spent updating owned blocks per step.
const UPDATE_LEN: u64 = 13_000;
/// Pivot block bytes (one 16×16 block of doubles = 2 KiB).
const PIVOT_BYTES: u64 = 2 * 1024;
/// Number of distinct pivot blocks cycled through (matrix diagonal).
const PIVOT_BLOCKS: u64 = 16;
/// Per-thread owned-blocks working set (slightly exceeds the L1).
const OWNED_BYTES: u64 = 12 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pivot,
    Update,
}

/// Per-thread LU instruction stream.
#[derive(Debug, Clone)]
pub struct LuStream {
    tid: usize,
    rng: Xoshiro256,
    code: CodeWalker,
    queue: OpQueue,
    phase: Phase,
    phase_left: i64,
    episode: u32,
    step: u64,
    pivot_cursor: u64,
    owned_cursor: u64,
}

impl LuStream {
    /// Creates the stream for one workload thread.
    pub fn new(params: &WorkloadParams) -> Self {
        LuStream {
            tid: params.thread_id,
            rng: Xoshiro256::new(params.thread_seed(0x1_0)),
            code: CodeWalker::new(Regions::code(2), 1024),
            queue: OpQueue::new(),
            phase: Phase::Pivot,
            phase_left: PIVOT_LEN as i64,
            episode: 0,
            step: 0,
            pivot_cursor: 0,
            owned_cursor: 0,
        }
    }

    fn pivot_base(&self) -> u64 {
        Regions::SHARED + (self.step % PIVOT_BLOCKS) * PIVOT_BYTES
    }

    fn refill(&mut self) {
        if self.phase_left <= 0 {
            match self.phase {
                Phase::Pivot => {
                    // Pivot read done: update owned blocks (no barrier
                    // between pivot and update — reads are already safe
                    // after the step barrier).
                    self.phase = Phase::Update;
                    self.phase_left = UPDATE_LEN as i64;
                    self.code.rebase(Regions::code(3), 4096);
                    // Fall through to an update chunk below.
                }
                Phase::Update => {
                    // Step finished: barrier, next pivot.
                    self.queue.push_back(Op::Barrier { id: self.episode });
                    self.episode += 1;
                    self.step += 1;
                    self.phase = Phase::Pivot;
                    self.phase_left = PIVOT_LEN as i64;
                    self.pivot_cursor = 0;
                    self.code.rebase(Regions::code(2), 1024);
                    self.phase_left -= 1;
                    return;
                }
            }
        }
        let chunk = match self.phase {
            Phase::Pivot => self.pivot_chunk(),
            Phase::Update => self.update_chunk(),
        };
        self.phase_left -= chunk as i64;
    }

    /// Read-share the pivot block: sequential loads, FP factorisation
    /// work, no stores.
    fn pivot_chunk(&mut self) -> u64 {
        let base = self.pivot_base();
        self.queue.push_back(Op::Load {
            addr: base + self.pivot_cursor,
        });
        self.pivot_cursor = (self.pivot_cursor + 8) % PIVOT_BYTES;
        let mut count = 1u64;
        for _ in 0..5 {
            self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
            count += 1;
        }
        count
    }

    /// Update an owned block: private load-compute-store with a daxpy
    /// flavour.
    fn update_chunk(&mut self) -> u64 {
        let base = Regions::new(self.tid).private();
        let mut count = 0u64;
        for _ in 0..2 {
            self.queue.push_back(Op::Load {
                addr: base + self.owned_cursor,
            });
            self.owned_cursor = (self.owned_cursor + 8) % OWNED_BYTES;
            count += 1;
            for _ in 0..6 {
                self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
                count += 1;
            }
        }
        self.queue.push_back(Op::Store {
            addr: base + self.owned_cursor,
        });
        count += 1;
        for _ in 0..5 {
            self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
            count += 1;
        }
        count
    }
}

impl InstrStream for LuStream {
    fn next_instr(&mut self) -> Instr {
        if self.queue.is_empty() {
            self.refill();
        }
        let op = self.queue.pop_front().expect("refill fills the queue");
        let pc = self.code.pc();
        self.code.advance();
        Instr::new(op, pc)
    }

    fn clone_box(&self) -> Box<dyn InstrStream> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_testkit::{barrier_ids, block_fill_check, determinism_check, op_census};

    fn stream(tid: usize) -> LuStream {
        LuStream::new(&WorkloadParams::new(tid, 8, 42))
    }

    #[test]
    fn deterministic_per_seed() {
        determinism_check(|| Box::new(stream(2)));
    }

    #[test]
    fn block_fills_match_single_draws() {
        block_fill_check(|| Box::new(stream(2)));
    }

    #[test]
    fn barriers_align_across_threads() {
        let a = barrier_ids(&mut stream(0), 60_000);
        let b = barrier_ids(&mut stream(7), 60_000);
        let shared = a.len().min(b.len());
        assert!(shared >= 3);
        assert_eq!(a[..shared], b[..shared]);
    }

    #[test]
    fn sync_is_sparse() {
        // LU's hallmark: long update phases, few barriers, no locks.
        let census = op_census(&mut stream(1), 60_000);
        assert!(census.barriers <= 6, "barriers: {census:?}");
        assert_eq!(census.locks, 0);
        assert!(census.loads > 5_000, "loads: {census:?}");
        assert!(census.stores > 2_000, "stores: {census:?}");
    }

    #[test]
    fn pivot_reads_are_shared_and_updates_private() {
        let mut s = stream(3);
        let mut shared_loads = 0u64;
        let mut shared_stores = 0u64;
        let priv_base = Regions::new(3).private();
        for _ in 0..60_000 {
            match s.next_instr().op {
                Op::Load { addr } if addr >= Regions::SHARED => shared_loads += 1,
                Op::Store { addr } => {
                    if addr >= Regions::SHARED {
                        shared_stores += 1;
                    } else {
                        assert!(
                            (priv_base..priv_base + 0x0100_0000).contains(&addr),
                            "stores stay in the owner's region"
                        );
                    }
                }
                _ => {}
            }
        }
        assert!(shared_loads > 500, "pivot loads: {shared_loads}");
        assert_eq!(shared_stores, 0, "LU never writes shared data");
    }

    #[test]
    fn pivot_block_advances_with_steps() {
        let mut s = stream(0);
        let mut bases = std::collections::BTreeSet::new();
        for _ in 0..200_000 {
            if let Op::Load { addr } = s.next_instr().op {
                if addr >= Regions::SHARED {
                    bases.insert((addr - Regions::SHARED) / PIVOT_BYTES);
                }
            }
        }
        assert!(bases.len() >= 4, "distinct pivot blocks: {}", bases.len());
    }
}
