//! Target CMP configuration, defaulting to the paper's experimental setup
//! (§2.1): an 8-core CMP, 4-way-issue OoO cores with 64 in-flight
//! instructions, 16 KB L1 I/D caches, a 256 KB shared L2 with 8-cycle
//! access, 100-cycle L2 miss latency, and a MESI request/response snooping
//! bus.

use crate::cache::CacheConfig;
use crate::directory::MAX_DIRECTORY_CORES;

/// Which interconnect model the uncore instantiates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum UncoreKind {
    /// The paper's split request/response snooping bus — one shared
    /// resource, one monitoring variable, at most 16 cores.
    #[default]
    Bus,
    /// Sharded directory-MESI: address-interleaved banks, one monitor
    /// per bank, up to [`MAX_DIRECTORY_CORES`] cores.
    Directory,
}

impl UncoreKind {
    /// Every spelling [`parse`](UncoreKind::parse) accepts, for error
    /// messages.
    pub const TOKENS: &'static str = "bus|directory";

    /// Largest supported target core count for this interconnect.
    pub fn max_cores(self) -> usize {
        match self {
            UncoreKind::Bus => 16,
            UncoreKind::Directory => MAX_DIRECTORY_CORES,
        }
    }

    /// The CLI/spec spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            UncoreKind::Bus => "bus",
            UncoreKind::Directory => "directory",
        }
    }

    /// Parses the CLI/spec spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bus" => Some(UncoreKind::Bus),
            "directory" => Some(UncoreKind::Directory),
            _ => None,
        }
    }
}

impl std::fmt::Display for UncoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued (and retired) per cycle.
    pub issue_width: u32,
    /// Maximum in-flight instructions (the instruction window).
    pub window: usize,
    /// Outstanding L1 misses supported (lock-up-free L1).
    pub mshrs: usize,
    /// L1 hit latency in cycles (load-to-use).
    pub l1_hit_latency: u64,
    /// Integer ALU latency.
    pub int_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Integer divide latency.
    pub div_latency: u64,
    /// FP add/compare latency.
    pub fp_latency: u64,
    /// FP multiply/divide latency.
    pub fp_mul_latency: u64,
    /// Front-end stall after a mispredicted branch.
    pub mispredict_penalty: u64,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            issue_width: 4,
            window: 64,
            mshrs: 8,
            l1_hit_latency: 2,
            int_latency: 1,
            mul_latency: 3,
            div_latency: 12,
            fp_latency: 4,
            fp_mul_latency: 6,
            mispredict_penalty: 10,
            l1i: CacheConfig::l1(),
            l1d: CacheConfig::l1(),
        }
    }
}

/// Uncore (manager-side) parameters: the snooping bus, the shared L2 and
/// the synchronisation device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoreConfig {
    /// Request-bus occupancy per transaction, in cycles. One cycle makes
    /// bus conflicts possible at a critical latency of 1 (paper §1).
    pub req_bus_cycles: u64,
    /// Response-bus occupancy per data transfer, in cycles.
    pub resp_bus_cycles: u64,
    /// L2 hit latency (paper: 8 cycles).
    pub l2_hit_latency: u64,
    /// L2 miss (memory) latency (paper: 100 cycles).
    pub l2_miss_latency: u64,
    /// Latency of a cache-to-cache transfer from a remote M owner.
    pub cache_to_cache_latency: u64,
    /// Latency of an ownership upgrade without data transfer.
    pub upgrade_latency: u64,
    /// Snoop-delivery latency of invalidations/downgrades after the grant.
    pub snoop_latency: u64,
    /// Latency from last barrier arrival to release.
    pub barrier_latency: u64,
    /// Lock grant/handover latency.
    pub lock_latency: u64,
    /// Directory-bank lookup occupancy per transaction (directory uncore
    /// only): the bank port is busy this long per access.
    pub dir_lookup_latency: u64,
    /// Point-to-point network hop latency between a core and a directory
    /// bank (directory uncore only; replaces the broadcast bus cycle).
    pub net_latency: u64,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
}

impl Default for UncoreConfig {
    fn default() -> Self {
        UncoreConfig {
            req_bus_cycles: 1,
            resp_bus_cycles: 1,
            l2_hit_latency: 8,
            l2_miss_latency: 100,
            cache_to_cache_latency: 10,
            upgrade_latency: 3,
            snoop_latency: 1,
            barrier_latency: 4,
            lock_latency: 2,
            dir_lookup_latency: 4,
            net_latency: 3,
            l2: CacheConfig::l2(),
        }
    }
}

/// Full target-CMP configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmpConfig {
    /// Number of target cores (paper: 8).
    pub cores: usize,
    /// Which interconnect the uncore instantiates (paper: the bus).
    pub uncore_kind: UncoreKind,
    /// Per-core parameters.
    pub core: CoreConfig,
    /// Shared-resource parameters.
    pub uncore: UncoreConfig,
}

impl CmpConfig {
    /// The paper's 8-core target.
    pub fn paper() -> Self {
        CmpConfig::default()
    }

    /// A target with a different core count but otherwise paper
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or exceeds 16 (the sharer bitmask width used
    /// by the cache status map).
    pub fn with_cores(cores: usize) -> Self {
        assert!(
            (1..=16).contains(&cores),
            "core count must be between 1 and 16"
        );
        CmpConfig {
            cores,
            ..CmpConfig::default()
        }
    }

    /// A target with the given interconnect and core count but otherwise
    /// paper parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or exceeds the interconnect's ceiling
    /// ([`UncoreKind::max_cores`]); callers with unvalidated input should
    /// check the ceiling first.
    pub fn with_uncore(kind: UncoreKind, cores: usize) -> Self {
        let max = kind.max_cores();
        assert!(
            (1..=max).contains(&cores),
            "core count must be between 1 and {max} for the {kind} uncore"
        );
        CmpConfig {
            cores,
            uncore_kind: kind,
            ..CmpConfig::default()
        }
    }
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig {
            cores: 8,
            uncore_kind: UncoreKind::default(),
            core: CoreConfig::default(),
            uncore: UncoreConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = CmpConfig::paper();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.core.issue_width, 4);
        assert_eq!(cfg.core.window, 64);
        assert_eq!(cfg.uncore.l2_hit_latency, 8);
        assert_eq!(cfg.uncore.l2_miss_latency, 100);
        assert_eq!(cfg.core.l1d.size_bytes, 16 * 1024);
        assert_eq!(cfg.uncore.l2.size_bytes, 256 * 1024);
    }

    #[test]
    fn with_cores() {
        assert_eq!(CmpConfig::with_cores(4).cores, 4);
    }

    #[test]
    #[should_panic(expected = "between 1 and 16")]
    fn zero_cores_rejected() {
        let _ = CmpConfig::with_cores(0);
    }

    #[test]
    #[should_panic(expected = "between 1 and 16")]
    fn too_many_cores_rejected() {
        let _ = CmpConfig::with_cores(17);
    }

    #[test]
    fn directory_uncore_lifts_the_core_cap() {
        let cfg = CmpConfig::with_uncore(UncoreKind::Directory, 64);
        assert_eq!(cfg.cores, 64);
        assert_eq!(cfg.uncore_kind, UncoreKind::Directory);
        assert_eq!(UncoreKind::Bus.max_cores(), 16);
        assert_eq!(UncoreKind::Directory.max_cores(), 1024);
    }

    #[test]
    #[should_panic(expected = "between 1 and 1024")]
    fn directory_core_cap_still_enforced() {
        let _ = CmpConfig::with_uncore(UncoreKind::Directory, 2048);
    }

    #[test]
    fn uncore_kind_spellings_round_trip() {
        for kind in [UncoreKind::Bus, UncoreKind::Directory] {
            assert_eq!(UncoreKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(UncoreKind::parse("ring"), None);
    }
}
