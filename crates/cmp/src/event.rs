//! The event vocabulary exchanged between core threads and the simulation
//! manager over OutQ/InQ (paper §2).

use crate::cache::LineAddr;
use crate::mesi::{BusOp, MesiState};

/// Per-core request tag matching replies to MSHRs.
pub type ReqId = u32;

/// Events flowing between a core thread and the manager.
///
/// The first group travels core → manager (requests placed in the core's
/// OutQ); the second travels manager → core (completions and snoop actions
/// delivered into the core's InQ). Timestamps live in the enclosing
/// [`Timestamped`](slacksim_core::event::Timestamped) wrapper: a request's
/// timestamp is the issuing core's local time, a reply's timestamp is the
/// manager-computed completion time on the response bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemEvent {
    // ---- core → manager ------------------------------------------------
    /// A coherence transaction for the request bus.
    Request {
        /// Transaction type.
        op: BusOp,
        /// Line concerned.
        line: LineAddr,
        /// Requester-local tag for matching the reply.
        req: ReqId,
        /// `true` when this is an instruction fetch (no coherence state is
        /// installed in remote caches' data arrays).
        ifetch: bool,
    },
    /// Eviction notice for a dirty line (bus writeback; no reply).
    Writeback {
        /// Line being written back.
        line: LineAddr,
    },
    /// The core reached a global barrier and is spinning.
    BarrierArrive {
        /// Barrier episode id.
        id: u32,
    },
    /// The core wants a lock and is spinning.
    LockAcquire {
        /// Lock id.
        id: u32,
    },
    /// The core released a lock (fire-and-forget).
    LockRelease {
        /// Lock id.
        id: u32,
    },

    // ---- manager → core ------------------------------------------------
    /// Completion of a [`MemEvent::Request`]: data (or ownership) is
    /// available at the event's timestamp.
    Reply {
        /// Tag of the completed request.
        req: ReqId,
        /// Line concerned.
        line: LineAddr,
        /// State the line enters in the requester's L1.
        grant: MesiState,
    },
    /// Snoop-induced invalidation of a remote copy.
    Invalidate {
        /// Line to drop.
        line: LineAddr,
    },
    /// Snoop-induced downgrade (M/E → S) of a remote copy.
    Downgrade {
        /// Line to downgrade.
        line: LineAddr,
    },
    /// All cores arrived: resume from the barrier.
    BarrierRelease {
        /// Barrier episode id.
        id: u32,
    },
    /// The lock is now held by this core.
    LockGranted {
        /// Lock id.
        id: u32,
    },
}

impl MemEvent {
    /// Whether this event travels core → manager.
    pub const fn is_request(&self) -> bool {
        matches!(
            self,
            MemEvent::Request { .. }
                | MemEvent::Writeback { .. }
                | MemEvent::BarrierArrive { .. }
                | MemEvent::LockAcquire { .. }
                | MemEvent::LockRelease { .. }
        )
    }

    /// Whether this event occupies the snooping bus (and therefore
    /// participates in bus-order violation detection). Synchronisation
    /// traffic is executed reliably inside the simulator and bypasses the
    /// modelled bus, exactly as SlackSim executes the MP_Simplesim
    /// parallel-programming APIs.
    pub const fn uses_bus(&self) -> bool {
        matches!(self, MemEvent::Request { .. } | MemEvent::Writeback { .. })
    }
}

slacksim_core::persist_enum!(MemEvent, "unknown memory-event tag" {
    0 => Request { op, line, req, ifetch },
    1 => Writeback { line },
    2 => BarrierArrive { id },
    3 => LockAcquire { id },
    4 => LockRelease { id },
    5 => Reply { req, line, grant },
    6 => Invalidate { line },
    7 => Downgrade { line },
    8 => BarrierRelease { id },
    9 => LockGranted { id },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_classification() {
        assert!(MemEvent::Writeback {
            line: LineAddr::new(1)
        }
        .is_request());
        assert!(MemEvent::BarrierArrive { id: 0 }.is_request());
        assert!(!MemEvent::Reply {
            req: 0,
            line: LineAddr::new(0),
            grant: MesiState::Shared
        }
        .is_request());
        assert!(!MemEvent::BarrierRelease { id: 0 }.is_request());
    }

    #[test]
    fn every_variant_round_trips() {
        use slacksim_core::persist::{ByteReader, ByteWriter, Persist};

        let events = [
            MemEvent::Request {
                op: BusOp::RdX,
                line: LineAddr::new(0x40),
                req: 7,
                ifetch: true,
            },
            MemEvent::Writeback {
                line: LineAddr::new(0x99),
            },
            MemEvent::BarrierArrive { id: 3 },
            MemEvent::LockAcquire { id: 4 },
            MemEvent::LockRelease { id: 5 },
            MemEvent::Reply {
                req: 9,
                line: LineAddr::new(0x7),
                grant: MesiState::Shared,
            },
            MemEvent::Invalidate {
                line: LineAddr::new(0x8),
            },
            MemEvent::Downgrade {
                line: LineAddr::new(0x9),
            },
            MemEvent::BarrierRelease { id: 6 },
            MemEvent::LockGranted { id: 7 },
        ];
        for ev in &events {
            let mut w = ByteWriter::new();
            ev.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&MemEvent::load(&mut r).unwrap(), ev);
            r.finish().unwrap();
        }
        let mut bad = ByteReader::new(&[0xff]);
        assert!(MemEvent::load(&mut bad).is_err());
    }

    #[test]
    fn bus_usage_classification() {
        assert!(MemEvent::Request {
            op: BusOp::Rd,
            line: LineAddr::new(3),
            req: 1,
            ifetch: false
        }
        .uses_bus());
        assert!(MemEvent::Writeback {
            line: LineAddr::new(3)
        }
        .uses_bus());
        assert!(!MemEvent::LockAcquire { id: 1 }.uses_bus());
        assert!(!MemEvent::BarrierArrive { id: 1 }.uses_bus());
    }
}
