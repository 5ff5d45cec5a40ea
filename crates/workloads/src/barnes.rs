//! Synthetic Barnes-Hut N-body (1024 bodies, paper Table 1).
//!
//! SPLASH-2 Barnes spends most of its time walking a shared octree with
//! data-dependent, irregular reads, punctuated by locked updates of shared
//! tree cells and occasional whole-phase barriers. The generator
//! reproduces that signature: random-line loads over a shared tree region
//! much larger than the L1, frequent short lock/update/unlock episodes on
//! hashed cell locks, and a barrier every major phase. This gives Barnes
//! the highest bus density and the highest fraction of violating
//! checkpoint intervals in the paper (Table 3: 83–94 %).

use slacksim_cmp::isa::{Instr, InstrStream, Op};
use slacksim_core::rng::Xoshiro256;

use crate::mix::{CodeWalker, FillerMix, OpQueue, Regions};
use crate::params::WorkloadParams;

/// Shared octree size (1024 bodies ≈ 2k cells × 128 B ≈ 256 KiB).
const TREE_BYTES: u64 = 256 * 1024;
/// Tree region offset inside the shared segment.
const TREE_OFFSET: u64 = 0x10_0000;
/// Distinct cell locks.
const CELL_LOCKS: u32 = 64;
/// Instructions between locked cell updates (mean).
const LOCK_PERIOD: u64 = 400;
/// Instructions per major phase (tree build / force / advance).
const PHASE_LEN: u64 = 40_000;
/// Private body array.
const BODY_BYTES: u64 = 16 * 1024;

/// Per-thread Barnes instruction stream.
#[derive(Debug, Clone)]
pub struct BarnesStream {
    tid: usize,
    rng: Xoshiro256,
    code: CodeWalker,
    queue: OpQueue,
    episode: u32,
    phase_left: i64,
    until_lock: u64,
    body_cursor: u64,
    /// Current subtree (pointer-chase locality state).
    subtree: u64,
    /// Line within the current subtree.
    walk_line: u64,
}

impl BarnesStream {
    /// Creates the stream for one workload thread.
    pub fn new(params: &WorkloadParams) -> Self {
        let mut rng = Xoshiro256::new(params.thread_seed(0xBA2));
        let subtree = rng.next_below(TREE_BYTES / 4096);
        let walk_line = rng.next_below(4096 / 32);
        BarnesStream {
            tid: params.thread_id,
            rng,
            code: CodeWalker::new(Regions::code(4), 3072),
            queue: OpQueue::new(),
            episode: 0,
            phase_left: PHASE_LEN as i64,
            until_lock: LOCK_PERIOD,
            body_cursor: 0,
            subtree,
            walk_line,
        }
    }

    fn tree_addr(&mut self) -> u64 {
        // Pointer-chase with strong temporal locality: the walk dwells
        // inside one L1-resident subtree (4 KiB) for a long stretch, then
        // jumps to a random subtree — the irregular component that
        // periodically floods the bus with a burst of misses.
        const SUBTREE_LINES: u64 = 4096 / 32;
        if self.rng.chance(1, 600) {
            self.subtree = self.rng.next_below(TREE_BYTES / 4096);
        }
        if self.rng.chance(1, 3) {
            self.walk_line = (self.walk_line + 1) % SUBTREE_LINES;
        } else {
            self.walk_line = self.rng.next_below(SUBTREE_LINES);
        }
        Regions::SHARED
            + TREE_OFFSET
            + self.subtree * 4096
            + self.walk_line * 32
            + self.rng.next_below(4) * 8
    }

    fn refill(&mut self) {
        if self.phase_left <= 0 {
            self.queue.push_back(Op::Barrier { id: self.episode });
            self.episode += 1;
            self.phase_left = PHASE_LEN as i64;
            self.phase_left -= 1;
            return;
        }
        let chunk = if self.until_lock == 0 {
            self.until_lock = LOCK_PERIOD / 2 + self.rng.next_below(LOCK_PERIOD);
            self.lock_episode()
        } else {
            self.walk_chunk()
        };
        self.phase_left -= chunk as i64;
    }

    /// A locked update of a shared tree cell: acquire, read-modify-write,
    /// release.
    fn lock_episode(&mut self) -> u64 {
        let id = self.rng.next_below(u64::from(CELL_LOCKS)) as u32;
        let cell = self.tree_addr();
        self.queue.push_back(Op::LockAcquire { id });
        self.queue.push_back(Op::Load { addr: cell });
        self.queue.push_back(FillerMix::INT.draw(&mut self.rng));
        self.queue.push_back(Op::Store { addr: cell });
        self.queue.push_back(Op::LockRelease { id });
        5
    }

    /// A few steps of tree walking plus private body bookkeeping.
    fn walk_chunk(&mut self) -> u64 {
        let mut count = 0u64;
        let addr = self.tree_addr();
        self.queue.push_back(Op::Load { addr });
        count += 1;
        for _ in 0..9 {
            self.queue.push_back(FillerMix::INT.draw(&mut self.rng));
            count += 1;
        }
        if self.rng.chance(1, 6) {
            let base = Regions::new(self.tid).private();
            self.queue.push_back(Op::Store {
                addr: base + self.body_cursor,
            });
            self.body_cursor = (self.body_cursor + 8) % BODY_BYTES;
            count += 1;
        }
        self.until_lock = self.until_lock.saturating_sub(count);
        count
    }
}

impl InstrStream for BarnesStream {
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

    fn stream(tid: usize) -> BarnesStream {
        BarnesStream::new(&WorkloadParams::new(tid, 8, 42))
    }

    #[test]
    fn deterministic_per_seed() {
        determinism_check(|| Box::new(stream(4)));
    }

    #[test]
    fn block_fills_match_single_draws() {
        block_fill_check(|| Box::new(stream(4)));
    }

    #[test]
    fn locks_are_frequent_and_balanced() {
        let census = op_census(&mut stream(0), 60_000);
        assert!(census.locks > 80, "lock episodes: {census:?}");
        assert_eq!(census.locks, census.unlocks, "acquire/release pairs");
    }

    #[test]
    fn lock_sequences_are_well_formed() {
        // Between an acquire and its release there is no other sync op.
        let mut s = stream(1);
        let mut held: Option<u32> = None;
        for _ in 0..100_000 {
            match s.next_instr().op {
                Op::LockAcquire { id } => {
                    assert!(held.is_none(), "nested lock");
                    held = Some(id);
                }
                Op::LockRelease { id } => {
                    assert_eq!(held, Some(id), "release matches acquire");
                    held = None;
                }
                Op::Barrier { .. } => assert!(held.is_none(), "barrier inside lock"),
                _ => {}
            }
        }
    }

    #[test]
    fn barriers_align_across_threads() {
        let a = barrier_ids(&mut stream(0), 200_000);
        let b = barrier_ids(&mut stream(3), 200_000);
        let shared = a.len().min(b.len());
        assert!(shared >= 2);
        assert_eq!(a[..shared], b[..shared]);
    }

    #[test]
    fn tree_walk_is_shared_and_irregular() {
        let mut s = stream(2);
        let mut shared_lines = std::collections::BTreeSet::new();
        let mut shared_loads = 0u64;
        for _ in 0..30_000 {
            if let Op::Load { addr } = s.next_instr().op {
                if addr >= Regions::SHARED {
                    shared_loads += 1;
                    shared_lines.insert(addr / 32);
                }
            }
        }
        assert!(shared_loads > 2_000, "shared loads: {shared_loads}");
        // Irregular: the walk visits many distinct tree lines across
        // subtree jumps (far more than one resident subtree's 128 lines).
        assert!(
            shared_lines.len() > 300,
            "distinct lines: {}",
            shared_lines.len()
        );
    }

    #[test]
    fn different_threads_walk_differently() {
        let mut a = stream(0);
        let mut b = stream(1);
        let mut same = 0;
        for _ in 0..1000 {
            if a.next_instr().op == b.next_instr().op {
                same += 1;
            }
        }
        assert!(same < 900, "threads must not be clones of each other");
    }
}
