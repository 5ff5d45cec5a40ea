//! The simulated synchronisation device.
//!
//! Barriers and locks are executed *reliably inside the simulator* — the
//! SlackSim approach inherited from MP_Simplesim's parallel-programming
//! APIs — which is why simulated-workload-state violations cannot occur
//! (paper §3). The device lives in the manager; cores spin (burning
//! simulated cycles) until released, so synchronisation still distorts
//! timing under slack even though it can never corrupt workload state.

use std::collections::{HashMap, VecDeque};

use slacksim_core::checkpoint::Tracking;
use slacksim_core::event::CoreId;
use slacksim_core::time::Cycle;

use crate::sharers::SharerSet;

/// Barrier arrival state for one episode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BarrierState {
    arrived: SharerSet,
    latest_ts: Cycle,
}

slacksim_core::persist_fields! { BarrierState { arrived, latest_ts } }

/// Lock state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LockState {
    holder: Option<CoreId>,
    free_at: Cycle,
    waiters: VecDeque<(CoreId, Cycle)>,
}

slacksim_core::persist_fields! { LockState { holder, free_at, waiters } }

/// Manager-side barrier and lock device.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::sync::SyncDevice;
/// use slacksim_core::event::CoreId;
/// use slacksim_core::time::Cycle;
///
/// let mut dev = SyncDevice::new(2, 4, 2);
/// assert!(dev.barrier_arrive(CoreId::new(0), 1, Cycle::new(10)).is_none());
/// let (release, cores) = dev.barrier_arrive(CoreId::new(1), 1, Cycle::new(30)).unwrap();
/// assert_eq!(release, Cycle::new(34)); // last arrival + barrier latency
/// assert_eq!(cores.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncDevice {
    n_cores: usize,
    barrier_latency: u64,
    lock_latency: u64,
    barriers: HashMap<u32, BarrierState>,
    locks: HashMap<u32, LockState>,
    barriers_completed: u64,
    lock_grants: u64,
    lock_contended: u64,
    /// Mutation generation. Synchronisation episodes are rare relative to
    /// checkpoint intervals, so a whole-struct generation keeps the
    /// device's delta all-or-nothing — and usually empty.
    gen: Tracking<u64>,
}

slacksim_core::impl_checkpointable_whole!(SyncDevice);

// Core count and latencies are configuration: the core count validates
// every core the bytes name.
slacksim_core::persist_walk! {
    SyncDevice, |d| d.barriers, d.locks, d.barriers_completed, d.lock_grants, d.lock_contended;
    cores d.n_cores
}

impl SyncDevice {
    /// Creates a device for `n_cores` participants with the given
    /// release/handover latencies.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds
    /// [`MAX_DIRECTORY_CORES`](crate::directory::MAX_DIRECTORY_CORES)
    /// (the arrival set scales with the directory uncore's ceiling).
    pub fn new(n_cores: usize, barrier_latency: u64, lock_latency: u64) -> Self {
        let max = crate::directory::MAX_DIRECTORY_CORES;
        assert!(
            (1..=max).contains(&n_cores),
            "core count must be between 1 and {max}"
        );
        SyncDevice {
            n_cores,
            barrier_latency,
            lock_latency,
            barriers: HashMap::new(),
            locks: HashMap::new(),
            barriers_completed: 0,
            lock_grants: 0,
            lock_contended: 0,
            gen: Tracking(0),
        }
    }

    /// Registers `core`'s arrival at barrier episode `id` at simulated
    /// time `ts`. When the last participant arrives, returns the release
    /// time and the cores to release.
    ///
    /// Duplicate arrivals by the same core in one episode are idempotent.
    pub fn barrier_arrive(
        &mut self,
        core: CoreId,
        id: u32,
        ts: Cycle,
    ) -> Option<(Cycle, Vec<CoreId>)> {
        *self.gen += 1;
        let n = self.n_cores;
        let st = self.barriers.entry(id).or_default();
        st.arrived.insert(core);
        st.latest_ts = st.latest_ts.max(ts);
        if st.arrived.len() == n {
            let release = st.latest_ts + self.barrier_latency;
            self.barriers.remove(&id);
            self.barriers_completed += 1;
            Some((release, CoreId::all(n).collect()))
        } else {
            None
        }
    }

    /// Requests lock `id` for `core` at time `ts`. Returns the grant time
    /// when the lock is free, or `None` when the core is queued behind the
    /// current holder.
    pub fn lock_acquire(&mut self, core: CoreId, id: u32, ts: Cycle) -> Option<Cycle> {
        *self.gen += 1;
        let latency = self.lock_latency;
        let st = self.locks.entry(id).or_default();
        if st.holder.is_none() {
            st.holder = Some(core);
            let grant = ts.max(st.free_at) + latency;
            self.lock_grants += 1;
            Some(grant)
        } else {
            self.lock_contended += 1;
            st.waiters.push_back((core, ts));
            None
        }
    }

    /// Releases lock `id` at time `ts`; if a waiter is queued, returns the
    /// next holder and its grant time.
    ///
    /// Releases of unheld locks are ignored (they can only arise from
    /// malformed workloads, never from slack reordering, because a core's
    /// own event order is preserved).
    pub fn lock_release(&mut self, core: CoreId, id: u32, ts: Cycle) -> Option<(CoreId, Cycle)> {
        *self.gen += 1;
        let latency = self.lock_latency;
        let st = self.locks.entry(id).or_default();
        if st.holder != Some(core) {
            return None;
        }
        st.holder = None;
        st.free_at = ts;
        if let Some((next, req_ts)) = st.waiters.pop_front() {
            st.holder = Some(next);
            let grant = req_ts.max(ts) + latency;
            self.lock_grants += 1;
            Some((next, grant))
        } else {
            None
        }
    }

    /// Barrier episodes completed.
    pub fn barriers_completed(&self) -> u64 {
        self.barriers_completed
    }

    /// Lock grants issued (immediate + handovers).
    pub fn lock_grants(&self) -> u64 {
        self.lock_grants
    }

    /// Acquire requests that found the lock held.
    pub fn lock_contended(&self) -> u64 {
        self.lock_contended
    }

    /// Barrier episodes currently waiting for arrivals.
    pub fn open_barriers(&self) -> usize {
        self.barriers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slacksim_core::persist::{ByteReader, ByteWriter};

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn ts(t: u64) -> Cycle {
        Cycle::new(t)
    }

    #[test]
    fn barrier_releases_at_last_arrival_plus_latency() {
        let mut dev = SyncDevice::new(3, 4, 2);
        assert!(dev.barrier_arrive(c(0), 7, ts(100)).is_none());
        assert!(dev.barrier_arrive(c(2), 7, ts(50)).is_none());
        let (release, cores) = dev.barrier_arrive(c(1), 7, ts(80)).unwrap();
        assert_eq!(release, ts(104));
        assert_eq!(cores, vec![c(0), c(1), c(2)]);
        assert_eq!(dev.barriers_completed(), 1);
        assert_eq!(dev.open_barriers(), 0);
    }

    #[test]
    fn barrier_episodes_are_independent() {
        let mut dev = SyncDevice::new(2, 0, 0);
        assert!(dev.barrier_arrive(c(0), 1, ts(5)).is_none());
        assert!(dev.barrier_arrive(c(0), 2, ts(6)).is_none());
        assert!(dev.barrier_arrive(c(1), 2, ts(7)).is_some());
        assert!(dev.barrier_arrive(c(1), 1, ts(8)).is_some());
    }

    #[test]
    fn duplicate_arrival_is_idempotent() {
        let mut dev = SyncDevice::new(2, 0, 0);
        assert!(dev.barrier_arrive(c(0), 1, ts(5)).is_none());
        assert!(dev.barrier_arrive(c(0), 1, ts(9)).is_none());
        let (release, _) = dev.barrier_arrive(c(1), 1, ts(6)).unwrap();
        // Latest timestamp still honoured.
        assert_eq!(release, ts(9));
    }

    #[test]
    fn free_lock_grants_immediately() {
        let mut dev = SyncDevice::new(4, 4, 2);
        assert_eq!(dev.lock_acquire(c(0), 9, ts(10)), Some(ts(12)));
        assert_eq!(dev.lock_grants(), 1);
    }

    #[test]
    fn contended_lock_queues_fifo() {
        let mut dev = SyncDevice::new(4, 4, 2);
        dev.lock_acquire(c(0), 9, ts(10));
        assert_eq!(dev.lock_acquire(c(1), 9, ts(11)), None);
        assert_eq!(dev.lock_acquire(c(2), 9, ts(12)), None);
        assert_eq!(dev.lock_contended(), 2);
        let (next, grant) = dev.lock_release(c(0), 9, ts(30)).unwrap();
        assert_eq!(next, c(1));
        assert_eq!(grant, ts(32));
        let (next2, grant2) = dev.lock_release(c(1), 9, ts(40)).unwrap();
        assert_eq!(next2, c(2));
        assert_eq!(grant2, ts(42));
        assert!(dev.lock_release(c(2), 9, ts(50)).is_none());
    }

    #[test]
    fn release_reflects_waiter_request_time() {
        let mut dev = SyncDevice::new(4, 4, 2);
        dev.lock_acquire(c(0), 1, ts(10));
        dev.lock_acquire(c(1), 1, ts(100));
        // Released before the waiter even asked (slack skew): grant at the
        // waiter's own request time.
        let (_, grant) = dev.lock_release(c(0), 1, ts(20)).unwrap();
        assert_eq!(grant, ts(102));
    }

    #[test]
    fn foreign_release_is_ignored() {
        let mut dev = SyncDevice::new(4, 4, 2);
        dev.lock_acquire(c(0), 1, ts(10));
        assert!(dev.lock_release(c(3), 1, ts(15)).is_none());
        // Lock still held by core 0.
        assert_eq!(dev.lock_acquire(c(2), 1, ts(20)), None);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = SyncDevice::new(4, 4, 2);
        live.barrier_arrive(c(0), 7, ts(100)); // open episode
        live.barrier_arrive(c(2), 7, ts(50));
        live.lock_acquire(c(0), 9, ts(10)); // held lock ...
        live.lock_acquire(c(1), 9, ts(11)); // ... with queued waiters
        live.lock_acquire(c(3), 9, ts(12));
        live.lock_acquire(c(2), 5, ts(20));
        live.lock_release(c(2), 5, ts(25)); // released lock, free_at set

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = SyncDevice::new(4, 4, 2);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, live);
        // The open barrier and FIFO waiter order must survive: identical
        // future behaviour on both devices.
        assert_eq!(
            restored.barrier_arrive(c(1), 7, ts(80)),
            live.barrier_arrive(c(1), 7, ts(80))
        );
        assert_eq!(
            restored.lock_release(c(0), 9, ts(30)),
            live.lock_release(c(0), 9, ts(30))
        );
        // A core index out of range must be rejected, not trusted.
        let mut small = SyncDevice::new(2, 4, 2);
        assert!(small.load_state(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn relock_after_release_uses_free_time() {
        let mut dev = SyncDevice::new(4, 4, 2);
        dev.lock_acquire(c(0), 1, ts(10));
        dev.lock_release(c(0), 1, ts(50));
        // New acquire stamped before the release: serialised after it.
        assert_eq!(dev.lock_acquire(c(1), 1, ts(20)), Some(ts(52)));
    }
}
