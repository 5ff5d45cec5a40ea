//! Synthetic Water-Nsquared (216 molecules, paper Table 1).
//!
//! SPLASH-2 Water-Nsquared computes O(n²) pairwise molecular interactions:
//! floating-point-heavy inner loops that read the partner molecule from a
//! shared array and accumulate forces under per-molecule locks, with
//! barriers separating the force phase from the (private) integration
//! phase. Shared traffic is read-mostly with regular locked
//! read-modify-writes — an intermediate violation profile between Barnes
//! and LU (Table 3: 55–100 %).

use slacksim_cmp::isa::{Instr, InstrStream, Op};
use slacksim_core::rng::Xoshiro256;

use crate::mix::{CodeWalker, FillerMix, OpQueue, Regions};
use crate::params::WorkloadParams;

/// Number of molecules (paper input set).
const MOLECULES: u64 = 216;
/// Bytes per molecule record (positions, velocities, forces).
const MOLECULE_BYTES: u64 = 672;
/// Instructions per force phase.
const FORCE_LEN: u64 = 11_000;
/// Instructions per integration phase.
const INTEGRATE_LEN: u64 = 2_500;
/// Pair interactions between locked force accumulations.
const PAIRS_PER_LOCK: u64 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Force,
    Integrate,
}

/// Per-thread Water-Nsquared instruction stream.
#[derive(Debug, Clone)]
pub struct WaterStream {
    tid: usize,
    rng: Xoshiro256,
    code: CodeWalker,
    queue: OpQueue,
    phase: Phase,
    phase_left: i64,
    episode: u32,
    pair_counter: u64,
    own_molecule: u64,
    integrate_cursor: u64,
}

impl WaterStream {
    /// Creates the stream for one workload thread.
    pub fn new(params: &WorkloadParams) -> Self {
        let span = MOLECULES / params.n_threads as u64;
        WaterStream {
            tid: params.thread_id,
            rng: Xoshiro256::new(params.thread_seed(0x3A7E2)),
            code: CodeWalker::new(Regions::code(6), 2048),
            queue: OpQueue::new(),
            phase: Phase::Force,
            phase_left: FORCE_LEN as i64,
            episode: 0,
            pair_counter: 0,
            own_molecule: params.thread_id as u64 * span,
            integrate_cursor: 0,
        }
    }

    fn molecule_addr(&self, index: u64, field: u64) -> u64 {
        Regions::SHARED + 0x20_0000 + index * MOLECULE_BYTES + field * 8
    }

    fn refill(&mut self) {
        if self.phase_left <= 0 {
            self.queue.push_back(Op::Barrier { id: self.episode });
            self.episode += 1;
            self.phase = match self.phase {
                Phase::Force => {
                    self.phase_left = INTEGRATE_LEN as i64;
                    self.code.rebase(Regions::code(7), 1024);
                    Phase::Integrate
                }
                Phase::Integrate => {
                    self.phase_left = FORCE_LEN as i64;
                    self.code.rebase(Regions::code(6), 2048);
                    Phase::Force
                }
            };
            self.phase_left -= 1;
            return;
        }
        let chunk = match self.phase {
            Phase::Force => self.pair_interaction(),
            Phase::Integrate => self.integrate_chunk(),
        };
        self.phase_left -= chunk as i64;
    }

    /// One pairwise interaction: read both molecules, heavy FP, and
    /// periodically a locked force accumulation on the partner.
    fn pair_interaction(&mut self) -> u64 {
        // Sweep partners sequentially (the O(n²) loop structure) so each
        // molecule's lines are reused across its two field loads.
        let partner = (self.own_molecule + self.pair_counter) % MOLECULES;
        let mut count = 0u64;
        // Read own molecule (usually L1-resident) and the partner.
        self.queue.push_back(Op::Load {
            addr: self.molecule_addr(self.own_molecule, 0),
        });
        self.queue.push_back(Op::Load {
            addr: self.molecule_addr(partner, 0),
        });
        count += 2;
        for _ in 0..20 {
            self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
            count += 1;
        }
        self.pair_counter += 1;
        if self.pair_counter.is_multiple_of(PAIRS_PER_LOCK) {
            // Accumulate force into the partner's record under its lock.
            let id = (partner % MOLECULES) as u32;
            let addr = self.molecule_addr(partner, 8);
            self.queue.push_back(Op::LockAcquire { id });
            self.queue.push_back(Op::Load { addr });
            self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
            self.queue.push_back(Op::Store { addr });
            self.queue.push_back(Op::LockRelease { id });
            count += 5;
        }
        count
    }

    /// Integrate own molecules: private streaming update.
    fn integrate_chunk(&mut self) -> u64 {
        let base = Regions::new(self.tid).private();
        self.queue.push_back(Op::Load {
            addr: base + self.integrate_cursor,
        });
        self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
        self.queue.push_back(Op::Store {
            addr: base + self.integrate_cursor,
        });
        self.integrate_cursor = (self.integrate_cursor + 8) % (16 * 1024);
        self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
        4
    }
}

impl InstrStream for WaterStream {
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

    fn stream(tid: usize) -> WaterStream {
        WaterStream::new(&WorkloadParams::new(tid, 8, 42))
    }

    #[test]
    fn deterministic_per_seed() {
        determinism_check(|| Box::new(stream(6)));
    }

    #[test]
    fn block_fills_match_single_draws() {
        block_fill_check(|| Box::new(stream(6)));
    }

    #[test]
    fn fp_dominated_mix_with_locks() {
        let census = op_census(&mut stream(0), 50_000);
        assert!(census.fp > 12_000, "fp ops: {census:?}");
        assert!(census.locks > 100, "locked accumulations: {census:?}");
        assert_eq!(census.locks, census.unlocks);
        assert!(census.barriers >= 3, "phases: {census:?}");
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
    fn partner_reads_span_the_molecule_array() {
        let mut s = stream(1);
        let mut molecules = std::collections::BTreeSet::new();
        let array = Regions::SHARED + 0x20_0000;
        for _ in 0..60_000 {
            if let Op::Load { addr } = s.next_instr().op {
                if addr >= array && addr < array + MOLECULES * MOLECULE_BYTES {
                    molecules.insert((addr - array) / MOLECULE_BYTES);
                }
            }
        }
        assert!(
            molecules.len() as u64 > MOLECULES / 2,
            "pair reads cover the array: {}",
            molecules.len()
        );
    }

    #[test]
    fn lock_ids_match_molecules() {
        let mut s = stream(2);
        for _ in 0..60_000 {
            if let Op::LockAcquire { id } = s.next_instr().op {
                assert!(u64::from(id) < MOLECULES);
            }
        }
    }
}
