//! The MESI coherence protocol: line states and the transition tables used
//! on both sides of the bus (core-side L1 controllers and the manager's
//! global cache-status map).
//!
//! The target keeps L1 caches coherent with a MESI protocol on a
//! request/response snooping bus (paper §2.1): requests are broadcast on
//! the request bus, all L1s plus the L2 snoop them, and data moves on the
//! response bus.

use std::fmt;

/// MESI line states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// Modified: this cache owns the only, dirty copy.
    Modified,
    /// Exclusive: this cache owns the only, clean copy.
    Exclusive,
    /// Shared: one of possibly several clean copies.
    Shared,
    /// Invalid (modelled as absence in the tag arrays, but needed as an
    /// explicit message/transition value).
    Invalid,
}

impl MesiState {
    /// Whether a local load hits in this state.
    pub const fn readable(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// Whether a local store can complete without a bus transaction.
    pub const fn writable(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// Whether an eviction of this line must write data back.
    pub const fn dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }
}

slacksim_core::persist_enum!(MesiState, "unknown MESI state tag" {
    0 => Modified,
    1 => Exclusive,
    2 => Shared,
    3 => Invalid,
});

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            MesiState::Modified => 'M',
            MesiState::Exclusive => 'E',
            MesiState::Shared => 'S',
            MesiState::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// Bus transaction types a core can place on the request bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Read for sharing (load miss): `BusRd`.
    Rd,
    /// Read for ownership (store miss): `BusRdX`.
    RdX,
    /// Upgrade an S copy to M without data transfer: `BusUpgr`.
    Upgr,
    /// Write back a dirty evicted line to the L2.
    Wb,
}

impl BusOp {
    /// The state the requester's line enters once the transaction
    /// completes, given whether other sharers remain.
    ///
    /// # Panics
    ///
    /// Panics for [`BusOp::Wb`], which installs nothing at the requester.
    pub fn granted_state(self, other_sharers: bool) -> MesiState {
        match self {
            BusOp::Rd => {
                if other_sharers {
                    MesiState::Shared
                } else {
                    MesiState::Exclusive
                }
            }
            BusOp::RdX | BusOp::Upgr => MesiState::Modified,
            BusOp::Wb => panic!("writebacks install no state at the requester"),
        }
    }

    /// What a *remote* snooping cache holding the line must do.
    pub fn snoop_action(self, held: MesiState) -> SnoopAction {
        match (self, held) {
            (BusOp::Rd, MesiState::Modified) => SnoopAction::FlushAndDowngrade,
            (BusOp::Rd, MesiState::Exclusive) => SnoopAction::Downgrade,
            (BusOp::Rd, MesiState::Shared) => SnoopAction::None,
            (BusOp::RdX, MesiState::Modified) => SnoopAction::FlushAndInvalidate,
            (BusOp::RdX, MesiState::Exclusive | MesiState::Shared) => SnoopAction::Invalidate,
            (BusOp::Upgr, MesiState::Shared) => SnoopAction::Invalidate,
            // An Upgr race against an M/E holder cannot arise in the
            // target (the requester held S), but slack reordering can
            // present it; treat it like RdX snoops for robustness.
            (BusOp::Upgr, MesiState::Modified) => SnoopAction::FlushAndInvalidate,
            (BusOp::Upgr, MesiState::Exclusive) => SnoopAction::Invalidate,
            (BusOp::Wb, _) => SnoopAction::None,
            (_, MesiState::Invalid) => SnoopAction::None,
        }
    }
}

slacksim_core::persist_enum!(BusOp, "unknown bus-op tag" {
    0 => Rd,
    1 => RdX,
    2 => Upgr,
    3 => Wb,
});

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusOp::Rd => write!(f, "BusRd"),
            BusOp::RdX => write!(f, "BusRdX"),
            BusOp::Upgr => write!(f, "BusUpgr"),
            BusOp::Wb => write!(f, "BusWb"),
        }
    }
}

/// What a remote cache does in response to a snooped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopAction {
    /// Ignore.
    None,
    /// Drop to Shared (clean copy, no data movement modelled).
    Downgrade,
    /// Supply dirty data and drop to Shared.
    FlushAndDowngrade,
    /// Drop to Invalid.
    Invalidate,
    /// Supply dirty data and drop to Invalid.
    FlushAndInvalidate,
}

impl SnoopAction {
    /// Whether the remote cache supplies the data (cache-to-cache
    /// transfer).
    pub const fn supplies_data(self) -> bool {
        matches!(
            self,
            SnoopAction::FlushAndDowngrade | SnoopAction::FlushAndInvalidate
        )
    }

    /// Whether the remote copy ends up invalid.
    pub const fn invalidates(self) -> bool {
        matches!(
            self,
            SnoopAction::Invalidate | SnoopAction::FlushAndInvalidate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(MesiState::Modified.readable());
        assert!(MesiState::Shared.readable());
        assert!(!MesiState::Invalid.readable());
        assert!(MesiState::Modified.writable());
        assert!(MesiState::Exclusive.writable());
        assert!(!MesiState::Shared.writable());
        assert!(MesiState::Modified.dirty());
        assert!(!MesiState::Exclusive.dirty());
    }

    #[test]
    fn granted_states() {
        assert_eq!(BusOp::Rd.granted_state(true), MesiState::Shared);
        assert_eq!(BusOp::Rd.granted_state(false), MesiState::Exclusive);
        assert_eq!(BusOp::RdX.granted_state(true), MesiState::Modified);
        assert_eq!(BusOp::Upgr.granted_state(false), MesiState::Modified);
    }

    #[test]
    #[should_panic(expected = "writebacks install no state")]
    fn wb_grants_nothing() {
        let _ = BusOp::Wb.granted_state(false);
    }

    #[test]
    fn snoop_table_exhaustive() {
        use MesiState::*;
        use SnoopAction::*;
        let cases = [
            (BusOp::Rd, Modified, FlushAndDowngrade),
            (BusOp::Rd, Exclusive, Downgrade),
            (BusOp::Rd, Shared, None),
            (BusOp::Rd, Invalid, None),
            (BusOp::RdX, Modified, FlushAndInvalidate),
            (BusOp::RdX, Exclusive, Invalidate),
            (BusOp::RdX, Shared, Invalidate),
            (BusOp::RdX, Invalid, None),
            (BusOp::Upgr, Modified, FlushAndInvalidate),
            (BusOp::Upgr, Exclusive, Invalidate),
            (BusOp::Upgr, Shared, Invalidate),
            (BusOp::Upgr, Invalid, None),
            (BusOp::Wb, Modified, None),
            (BusOp::Wb, Shared, None),
        ];
        for (op, held, want) in cases {
            assert_eq!(op.snoop_action(held), want, "{op} snooped in {held}");
        }
    }

    #[test]
    fn snoop_action_predicates() {
        assert!(SnoopAction::FlushAndInvalidate.supplies_data());
        assert!(SnoopAction::FlushAndDowngrade.supplies_data());
        assert!(!SnoopAction::Invalidate.supplies_data());
        assert!(SnoopAction::Invalidate.invalidates());
        assert!(SnoopAction::FlushAndInvalidate.invalidates());
        assert!(!SnoopAction::Downgrade.invalidates());
    }

    #[test]
    fn display() {
        assert_eq!(MesiState::Modified.to_string(), "M");
        assert_eq!(BusOp::RdX.to_string(), "BusRdX");
    }
}
