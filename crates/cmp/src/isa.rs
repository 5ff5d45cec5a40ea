//! The abstract target instruction set.
//!
//! SlackSim simulates SimpleScalar's PISA ISA; for slack-simulation
//! behaviour only the *timing class* of each instruction matters (latency,
//! memory behaviour, synchronisation), so the substrate models instructions
//! as timing operations rather than encodings. Workload generators produce
//! infinite [`InstrStream`]s of these operations.

use std::fmt;

/// One decoded target instruction: its timing operation plus the program
/// counter it was fetched from (drives the I-cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Timing operation.
    pub op: Op,
    /// Fetch address (byte-granular; the core maps it to an I-cache line).
    pub pc: u64,
}

impl Instr {
    /// Creates an instruction.
    pub const fn new(op: Op, pc: u64) -> Self {
        Instr { op, pc }
    }
}

slacksim_core::persist_fields! { Instr { op, pc } }

/// Timing operation classes, with NetBurst-like execution latencies
/// configured in [`CoreConfig`](crate::config::CoreConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined in spirit).
    IntDiv,
    /// Floating-point add/compare class.
    FpAlu,
    /// Floating-point multiply/divide class.
    FpMul,
    /// Memory load from the given byte address.
    Load {
        /// Effective byte address.
        addr: u64,
    },
    /// Memory store to the given byte address.
    Store {
        /// Effective byte address.
        addr: u64,
    },
    /// Conditional branch; `mispredict` stalls the front end for the
    /// configured penalty.
    Branch {
        /// Whether the target branch predictor mispredicts this branch.
        mispredict: bool,
    },
    /// Global barrier: the core drains its window, notifies the
    /// synchronisation device and spins until released. Executed reliably
    /// inside the simulator (à la MP_Simplesim), so no workload-state
    /// violations can occur.
    Barrier {
        /// Barrier identity (an episode counter, not an address).
        id: u32,
    },
    /// Lock acquire on the given lock id; spins until granted.
    LockAcquire {
        /// Lock identity.
        id: u32,
    },
    /// Lock release.
    LockRelease {
        /// Lock identity.
        id: u32,
    },
}

impl Op {
    /// Whether this operation references data memory.
    pub const fn is_memory(self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Whether this operation is a synchronisation primitive.
    pub const fn is_sync(self) -> bool {
        matches!(
            self,
            Op::Barrier { .. } | Op::LockAcquire { .. } | Op::LockRelease { .. }
        )
    }
}

slacksim_core::persist_enum!(Op, "unknown instruction tag" {
    0 => IntAlu,
    1 => IntMul,
    2 => IntDiv,
    3 => FpAlu,
    4 => FpMul,
    5 => Load { addr },
    6 => Store { addr },
    7 => Branch { mispredict },
    8 => Barrier { id },
    9 => LockAcquire { id },
    10 => LockRelease { id },
});

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::IntAlu => write!(f, "int"),
            Op::IntMul => write!(f, "mul"),
            Op::IntDiv => write!(f, "div"),
            Op::FpAlu => write!(f, "fadd"),
            Op::FpMul => write!(f, "fmul"),
            Op::Load { addr } => write!(f, "ld 0x{addr:x}"),
            Op::Store { addr } => write!(f, "st 0x{addr:x}"),
            Op::Branch { mispredict } => {
                write!(f, "br{}", if *mispredict { "!" } else { "" })
            }
            Op::Barrier { id } => write!(f, "barrier#{id}"),
            Op::LockAcquire { id } => write!(f, "lock#{id}"),
            Op::LockRelease { id } => write!(f, "unlock#{id}"),
        }
    }
}

/// An infinite, deterministic stream of target instructions for one core.
///
/// Streams are infinite by contract — a simulation ends on its committed-
/// instruction target, never on stream exhaustion — and must be
/// deterministic per seed so that runs are reproducible. Implementations
/// must also provide `clone_box` so core models (and thus simulation
/// checkpoints) can be cloned.
pub trait InstrStream: Send {
    /// Produces the next instruction. Never ends.
    fn next_instr(&mut self) -> Instr;

    /// Fills `out` with the next `out.len()` instructions, exactly as that
    /// many [`next_instr`](InstrStream::next_instr) calls would. Through a
    /// `dyn InstrStream` this is one dynamic call per block, and the
    /// default body is compiled per implementation, so the calls inside it
    /// are static.
    fn fill(&mut self, out: &mut [Instr]) {
        for slot in out {
            *slot = self.next_instr();
        }
    }

    /// Clones the stream, preserving its exact position.
    fn clone_box(&self) -> Box<dyn InstrStream>;
}

impl Clone for Box<dyn InstrStream> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A trivial stream for tests and smoke runs: a fixed sequence repeated
/// forever, with PCs advancing 4 bytes per instruction from `0x1000`.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::isa::{Instr, InstrStream, LoopStream, Op};
///
/// let mut s = LoopStream::new(vec![Op::IntAlu, Op::Load { addr: 64 }]);
/// assert_eq!(s.next_instr().op, Op::IntAlu);
/// assert_eq!(s.next_instr().op, Op::Load { addr: 64 });
/// assert_eq!(s.next_instr().op, Op::IntAlu); // wraps around
/// ```
#[derive(Debug, Clone)]
pub struct LoopStream {
    ops: Vec<Op>,
    pos: usize,
}

impl LoopStream {
    /// Creates a stream repeating `ops` forever.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "loop body must not be empty");
        LoopStream { ops, pos: 0 }
    }
}

impl InstrStream for LoopStream {
    fn next_instr(&mut self) -> Instr {
        let op = self.ops[self.pos];
        let pc = 0x1000 + 4 * self.pos as u64;
        self.pos = (self.pos + 1) % self.ops.len();
        Instr::new(op, pc)
    }

    fn clone_box(&self) -> Box<dyn InstrStream> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::Load { addr: 0 }.is_memory());
        assert!(Op::Store { addr: 0 }.is_memory());
        assert!(!Op::IntAlu.is_memory());
        assert!(Op::Barrier { id: 0 }.is_sync());
        assert!(Op::LockAcquire { id: 1 }.is_sync());
        assert!(Op::LockRelease { id: 1 }.is_sync());
        assert!(!Op::Branch { mispredict: false }.is_sync());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::Load { addr: 0x40 }.to_string(), "ld 0x40");
        assert_eq!(Op::Branch { mispredict: true }.to_string(), "br!");
        assert_eq!(Op::Barrier { id: 3 }.to_string(), "barrier#3");
    }

    #[test]
    fn every_op_round_trips() {
        use slacksim_core::persist::{ByteReader, ByteWriter, Persist};

        let ops = [
            Op::IntAlu,
            Op::IntMul,
            Op::IntDiv,
            Op::FpAlu,
            Op::FpMul,
            Op::Load { addr: 0x1234 },
            Op::Store { addr: 0x4321 },
            Op::Branch { mispredict: true },
            Op::Barrier { id: 2 },
            Op::LockAcquire { id: 3 },
            Op::LockRelease { id: 4 },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let instr = Instr::new(op, 0x1000 + 4 * i as u64);
            let mut w = ByteWriter::new();
            instr.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(Instr::load(&mut r).unwrap(), instr);
            r.finish().unwrap();
        }
        let mut bad = ByteReader::new(&[0xee]);
        assert!(Instr::load(&mut bad).is_err());
    }

    #[test]
    fn loop_stream_wraps_and_pcs_advance() {
        let mut s = LoopStream::new(vec![Op::IntAlu, Op::FpAlu, Op::IntMul]);
        let a = s.next_instr();
        let b = s.next_instr();
        let c = s.next_instr();
        let a2 = s.next_instr();
        assert_eq!(a.pc + 4, b.pc);
        assert_eq!(b.pc + 4, c.pc);
        assert_eq!(a, a2);
    }

    #[test]
    fn boxed_stream_clone_preserves_position() {
        let mut s: Box<dyn InstrStream> = Box::new(LoopStream::new(vec![Op::IntAlu, Op::FpAlu]));
        let _ = s.next_instr();
        let mut t = s.clone();
        assert_eq!(s.next_instr(), t.next_instr());
    }

    #[test]
    #[should_panic(expected = "loop body must not be empty")]
    fn empty_loop_rejected() {
        let _ = LoopStream::new(Vec::new());
    }
}
