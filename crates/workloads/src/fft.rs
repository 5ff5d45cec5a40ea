//! Synthetic FFT (64 K points, paper Table 1).
//!
//! The SPLASH-2 radix-√N FFT alternates *compute* phases — streaming
//! butterfly arithmetic over thread-local rows — with all-to-all
//! *transpose* phases in which every thread reads blocks written by every
//! other thread, separated by global barriers. The generator reproduces
//! that signature: long FP-heavy streaming bursts over a private working
//! set that exceeds the L1, then short bursts of remote reads from other
//! threads' exported matrix regions (cache-to-cache transfers and
//! invalidation traffic), with a barrier between every phase.

use slacksim_cmp::isa::{Instr, InstrStream, Op};
use slacksim_core::rng::Xoshiro256;

use crate::mix::{CodeWalker, FillerMix, OpQueue, Regions};
use crate::params::WorkloadParams;

/// Instructions per compute phase.
const COMPUTE_LEN: u64 = 6_000;
/// Instructions per transpose phase.
const TRANSPOSE_LEN: u64 = 1_600;
/// Per-thread matrix slice: 64 K points × 8 B / 8 threads = 64 KiB.
const SLICE_BYTES: u64 = 64 * 1024;
/// Private scratch working set (mostly L1-resident).
const SCRATCH_BYTES: u64 = 12 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compute,
    Transpose,
}

/// Per-thread FFT instruction stream.
#[derive(Debug, Clone)]
pub struct FftStream {
    tid: usize,
    n_threads: usize,
    rng: Xoshiro256,
    code: CodeWalker,
    queue: OpQueue,
    phase: Phase,
    phase_left: i64,
    episode: u32,
    scratch_cursor: u64,
    slice_cursor: u64,
    remote_cursor: u64,
    partner: usize,
}

impl FftStream {
    /// Creates the stream for one workload thread.
    pub fn new(params: &WorkloadParams) -> Self {
        FftStream {
            tid: params.thread_id,
            n_threads: params.n_threads,
            rng: Xoshiro256::new(params.thread_seed(0xFF7)),
            code: CodeWalker::new(Regions::code(0), 2048),
            queue: OpQueue::new(),
            phase: Phase::Compute,
            phase_left: COMPUTE_LEN as i64,
            episode: 0,
            scratch_cursor: 0,
            slice_cursor: 0,
            remote_cursor: 0,
            partner: (params.thread_id + 1) % params.n_threads.max(1),
        }
    }

    fn next_partner(&mut self) {
        if self.n_threads > 1 {
            self.partner = (self.partner + 1) % self.n_threads;
            if self.partner == self.tid {
                self.partner = (self.partner + 1) % self.n_threads;
            }
        }
    }

    fn refill(&mut self) {
        if self.phase_left <= 0 {
            // Phase boundary: barrier, then switch.
            self.queue.push_back(Op::Barrier { id: self.episode });
            self.episode += 1;
            self.phase = match self.phase {
                Phase::Compute => {
                    self.phase_left = TRANSPOSE_LEN as i64;
                    self.code.rebase(Regions::code(1), 1024);
                    Phase::Transpose
                }
                Phase::Transpose => {
                    self.phase_left = COMPUTE_LEN as i64;
                    self.code.rebase(Regions::code(0), 2048);
                    self.next_partner();
                    Phase::Compute
                }
            };
            self.phase_left -= 1;
            return;
        }
        let chunk: u64 = match self.phase {
            Phase::Compute => self.compute_chunk(),
            Phase::Transpose => self.transpose_chunk(),
        };
        self.phase_left -= chunk as i64;
    }

    /// One butterfly: two loads from the (mostly resident) private
    /// scratch, a long FP tail, and one streaming store into the thread's
    /// exported matrix slice.
    fn compute_chunk(&mut self) -> u64 {
        let scratch = Regions::new(self.tid).private();
        let slice = Regions::thread_shared(self.tid);
        let mut count = 0u64;
        for _ in 0..2 {
            self.queue.push_back(Op::Load {
                addr: scratch + self.scratch_cursor,
            });
            self.scratch_cursor = (self.scratch_cursor + 8) % SCRATCH_BYTES;
            count += 1;
            for _ in 0..4 {
                self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
                count += 1;
            }
        }
        // Stores revisit a 4 KiB per-phase segment of the slice: resident
        // after the first traversal, so bus writes concentrate at phase
        // starts (as real row-major butterflies do).
        let segment = (self.episode as u64 % (SLICE_BYTES / 4096)) * 4096;
        self.queue.push_back(Op::Store {
            addr: slice + segment + self.slice_cursor,
        });
        self.slice_cursor = (self.slice_cursor + 8) % 4096;
        count += 1;
        for _ in 0..8 {
            self.queue.push_back(FillerMix::FP.draw(&mut self.rng));
            count += 1;
        }
        count
    }

    /// One transpose step: a line-strided remote read from the current
    /// partner's slice plus a local store.
    fn transpose_chunk(&mut self) -> u64 {
        let remote = Regions::thread_shared(self.partner);
        let own = Regions::thread_shared(self.tid);
        let mut count = 0u64;
        self.queue.push_back(Op::Load {
            addr: remote + self.remote_cursor,
        });
        // Line-strided: every access is a fresh line of the remote slice.
        self.remote_cursor = (self.remote_cursor + 32) % SLICE_BYTES;
        count += 1;
        for _ in 0..8 {
            self.queue.push_back(FillerMix::INT.draw(&mut self.rng));
            count += 1;
        }
        self.queue.push_back(Op::Store {
            addr: own + (self.remote_cursor % SCRATCH_BYTES),
        });
        count += 1;
        for _ in 0..2 {
            self.queue.push_back(FillerMix::INT.draw(&mut self.rng));
            count += 1;
        }
        if self.rng.chance(1, 4) {
            self.next_partner();
        }
        count
    }
}

impl InstrStream for FftStream {
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

    fn stream(tid: usize) -> FftStream {
        FftStream::new(&WorkloadParams::new(tid, 8, 42))
    }

    #[test]
    fn deterministic_per_seed() {
        determinism_check(|| Box::new(stream(3)));
    }

    #[test]
    fn block_fills_match_single_draws() {
        block_fill_check(|| Box::new(stream(3)));
    }

    #[test]
    fn barriers_align_across_threads() {
        let a = barrier_ids(&mut stream(0), 40_000);
        let b = barrier_ids(&mut stream(5), 40_000);
        let shared = a.len().min(b.len());
        assert!(shared >= 3, "several phases in 40k instructions");
        assert_eq!(a[..shared], b[..shared], "same barrier sequence");
        // Episode ids are consecutive.
        assert!(a.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn mix_has_fp_and_memory() {
        let census = op_census(&mut stream(1), 30_000);
        assert!(census.loads > 3_000, "loads: {census:?}");
        assert!(census.stores > 1_000, "stores: {census:?}");
        assert!(census.fp > 5_000, "fp: {census:?}");
        assert!(census.barriers >= 3, "barriers: {census:?}");
        assert_eq!(census.locks, 0, "FFT uses no locks");
    }

    #[test]
    fn transpose_reads_remote_regions() {
        let mut s = stream(2);
        let mut remote_reads = 0;
        for _ in 0..40_000 {
            if let Op::Load { addr } = s.next_instr().op {
                let own = Regions::thread_shared(2);
                if (Regions::thread_shared(0)..Regions::thread_shared(16)).contains(&addr)
                    && !(own..own + 0x0100_0000).contains(&addr)
                {
                    remote_reads += 1;
                }
            }
        }
        assert!(remote_reads > 500, "remote reads: {remote_reads}");
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let mut s = FftStream::new(&WorkloadParams::new(0, 1, 1));
        for _ in 0..20_000 {
            let _ = s.next_instr();
        }
    }
}
