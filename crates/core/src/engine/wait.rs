//! The spin → yield → park wait ladder of a host thread with nothing to do
//! until another one makes progress: the threaded engine's manager, and
//! both sides of the batched engine's window hand-off.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::time::Duration;

use crate::obs::ProfSite;
use crate::sched::{HostSched, SchedSite};

/// Spin iterations before an idle manager starts yielding.
const MGR_SPIN_ITERS: u32 = 32;
/// Yield iterations before an idle manager parks.
const MGR_YIELD_ITERS: u32 = 32;
/// Yield iterations before an idle manager parks on an oversubscribed
/// host (the spin tier is skipped there: spinning steals the quanta the
/// core threads need, while yielding hands the CPU over within a few
/// scheduler decisions).
const MGR_YIELD_ITERS_OVERSUB: u32 = 128;
/// Manager park timeout: nobody unparks the manager, so this is the
/// polling cadence once the ladder bottoms out.
const MGR_PARK_TIMEOUT: Duration = Duration::from_micros(20);

/// Spin and yield iterations before either side of a batched-engine
/// window hand-off parks. Far deeper than the manager's: a worker idles
/// through every boundary resolution (~60 us at 64 directory cores) and
/// a park inside one costs the next window ~35 us of wake-up latency
/// (DESIGN §15.1), so the busy tiers must outlast a resolution; parking
/// is for the long serial stretches (a durable checkpoint, a run of
/// windows too small to hand off).
const WINDOW_SPIN_ITERS: u32 = 1024;
const WINDOW_YIELD_ITERS: u32 = 8192;
/// Park-timeout backstop of a window hand-off.
const WINDOW_PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Yield-tier depth used under a virtual scheduler (every ladder): the
/// spin tier is skipped and the yield tier pinned to a short,
/// machine-independent count so explored schedules do not depend on the
/// host's core count or timing.
pub(super) const VIRT_YIELD_ITERS: u32 = 2;

/// CPUs this process may run on (its affinity mask and cgroup quota), 1
/// where that cannot be told. Asked once per process: the answer costs a
/// system call and several file reads, ~11 us where an engine's whole
/// set-up is a few hundred.
pub(super) fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Target cores per lane when `cores` of them fold onto `host_threads`
/// host threads (`0` = [`host_cpus`]) in contiguous, equally wide lanes:
/// `ceil(cores / min(host_threads, cores))`. Lane `j` steps cores
/// `j * width .. (j + 1) * width`, so there are `ceil(cores / width)`
/// lanes — never more than asked for, and fewer where an extra thread
/// would not shorten the widest lane (4 cores on 3 threads: 2 + 2).
pub(super) fn lane_width(host_threads: usize, cores: usize) -> usize {
    let want = match host_threads {
        0 => host_cpus(),
        h => h,
    };
    cores.div_ceil(want.min(cores))
}

/// True when the host cannot run `threads` engine threads concurrently.
/// Spinning in that regime only burns the quanta the productive threads
/// need, so the wait ladders skip their spin tier and lead with
/// `yield_now`.
pub(super) fn host_oversubscribed(threads: usize) -> bool {
    host_cpus() < threads
}

/// The adaptive wait ladder: spin, then yield, then park with a timeout.
/// Reset on any progress. On oversubscribed hosts the spin tier is
/// skipped and the yield tier shortened: nothing can advance while the
/// waiter holds the CPU, so burning it is counterproductive.
pub(super) struct Backoff {
    idle: u32,
    pub(super) parks: u64,
    spin_iters: u32,
    park_after: u32,
    park_timeout: Duration,
}

impl Backoff {
    pub(super) fn manager(oversubscribed: bool, virtualized: bool) -> Self {
        let (spin_iters, yield_iters) = if virtualized {
            (0, VIRT_YIELD_ITERS)
        } else if oversubscribed {
            (0, MGR_YIELD_ITERS_OVERSUB)
        } else {
            (MGR_SPIN_ITERS, MGR_YIELD_ITERS)
        };
        Backoff::new(spin_iters, yield_iters, MGR_PARK_TIMEOUT)
    }

    /// The ladder both sides of a batched-engine window hand-off wait
    /// through: a worker for the next dispatched window, the manager for
    /// the workers' lanes. Each side unparks the other when it publishes,
    /// so the park timeout is a backstop only.
    pub(super) fn window(oversubscribed: bool) -> Self {
        let (spin_iters, yield_iters) = if oversubscribed {
            (0, MGR_YIELD_ITERS_OVERSUB)
        } else {
            (WINDOW_SPIN_ITERS, WINDOW_YIELD_ITERS)
        };
        Backoff::new(spin_iters, yield_iters, WINDOW_PARK_TIMEOUT)
    }

    fn new(spin_iters: u32, yield_iters: u32, park_timeout: Duration) -> Self {
        Backoff {
            idle: 0,
            parks: 0,
            spin_iters,
            park_after: spin_iters + yield_iters,
            park_timeout,
        }
    }

    #[inline]
    pub(super) fn reset(&mut self) {
        self.idle = 0;
    }

    /// Profiler site the *next* `wait` call will land in, so the caller
    /// can open the matching span before entering the ladder.
    #[inline]
    pub(super) fn next_site(&self) -> ProfSite {
        let next = self.idle.saturating_add(1);
        if next <= self.spin_iters {
            ProfSite::ManagerWaitSpin
        } else if next <= self.park_after {
            ProfSite::ManagerWaitYield
        } else {
            ProfSite::ManagerWaitPark
        }
    }

    pub(super) fn wait(&mut self, sched: &dyn HostSched, site: SchedSite) {
        self.idle = self.idle.saturating_add(1);
        if self.idle <= self.spin_iters {
            sched.idle_spin(site);
        } else if self.idle <= self.park_after {
            sched.idle_yield(site);
        } else {
            self.parks += 1;
            sched.park_timeout(site, self.park_timeout);
        }
    }
}
