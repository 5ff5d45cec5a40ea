//! The one yield → park wait ladder every host thread of the two
//! host-parallel drivers waits through when it has nothing to do until
//! another one makes progress: the threaded engine's manager and lane
//! threads, and both sides of the batched engine's window hand-off.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::time::Duration;

use crate::obs::ProfSite;
use crate::sched::{HostSched, SchedSite};

/// Yield iterations before a waiter parks; there is no spin tier before
/// them. A spin holds the CPU for ~20 ns that, on a host with fewer CPUs
/// than waiters, the awaited thread needs, and costs that on every wait;
/// a yield hands the CPU over instead (DESIGN §10, "One wait ladder").
/// Deep enough to outlast a batched boundary resolution (~60 us at 64
/// directory cores), whose worker would otherwise park inside it and
/// wake the next window late (DESIGN §15.1).
const YIELD_ITERS: u32 = 8192;
/// Park timeout: a backstop where the other side unparks the waiter, the
/// polling cadence of the threaded manager, whom nobody unparks.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Yield-tier depth under a virtual scheduler: every virtual yield is a
/// scheduling decision, so the native depth would balloon an explored
/// run.
const VIRT_YIELD_ITERS: u32 = 2;

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

/// The wait ladder: yield, then park with a timeout. Reset on any
/// progress.
pub(super) struct Backoff {
    idle: u32,
    pub(super) parks: u64,
    /// Yields before the park tier.
    yields: u32,
}

impl Backoff {
    /// The ladder; `virtualized` pins its depth for a virtual scheduler.
    pub(super) fn new(virtualized: bool) -> Self {
        Backoff {
            idle: 0,
            parks: 0,
            yields: if virtualized {
                VIRT_YIELD_ITERS
            } else {
                YIELD_ITERS
            },
        }
    }

    #[inline]
    pub(super) fn reset(&mut self) {
        self.idle = 0;
    }

    /// Which of a waiter's `[yield, park]` profiler sites the *next* wait
    /// lands in, so the caller can open the matching span before entering
    /// the ladder.
    #[inline]
    pub(super) fn next_site(&self, [yield_, park]: [ProfSite; 2]) -> ProfSite {
        if self.idle < self.yields {
            yield_
        } else {
            park
        }
    }

    /// One wait, parking on the scheduler itself at the park tier.
    pub(super) fn wait(&mut self, sched: &dyn HostSched, site: SchedSite) {
        self.wait_with(sched, site, |timeout| sched.park_timeout(site, timeout));
    }

    /// One wait, with `park` — handed the timeout — as the park tier.
    pub(super) fn wait_with(
        &mut self,
        sched: &dyn HostSched,
        site: SchedSite,
        park: impl FnOnce(Duration),
    ) {
        if self.idle < self.yields {
            self.idle += 1;
            sched.idle_yield(site);
        } else {
            self.parks += 1;
            park(PARK_TIMEOUT);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::sched::TaskId;

    /// A scheduler that only records which tier each wait reached.
    #[derive(Debug, Default)]
    struct Tally(Mutex<Vec<&'static str>>);

    impl Tally {
        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl HostSched for Tally {
        fn register(&self, _name: &str) -> TaskId {
            TaskId(0)
        }

        fn unregister(&self) {}

        fn idle_yield(&self, _site: SchedSite) {
            self.0.lock().unwrap().push("yield");
        }

        fn park_timeout(&self, _site: SchedSite, _timeout: Duration) {
            self.0.lock().unwrap().push("sched-park");
        }

        fn unpark(&self, _target: TaskId) {}
    }

    /// Waits `n` times through `b`, its park tier recording the timeout.
    fn climb(b: &mut Backoff, sched: &Tally, n: usize) -> (Vec<&'static str>, Vec<Duration>) {
        let mut parks = Vec::new();
        for _ in 0..n {
            b.wait_with(sched, SchedSite::CoreIdle, |t| parks.push(t));
        }
        (sched.take(), parks)
    }

    #[test]
    fn the_ladder_yields_then_parks_and_reset_restarts_it() {
        let sched = Tally::default();
        let y = YIELD_ITERS as usize;
        let sites = [ProfSite::CoreWaitYield, ProfSite::CoreWaitPark];
        let mut b = Backoff::new(false);
        for _ in 0..2 {
            assert_eq!(b.next_site(sites), ProfSite::CoreWaitYield);
            let (tiers, parks) = climb(&mut b, &sched, y + 3);
            assert_eq!(tiers, vec!["yield"; y], "the park tier is the closure's");
            assert_eq!(parks, vec![PARK_TIMEOUT; 3]);
            assert_eq!(b.next_site(sites), ProfSite::CoreWaitPark);
            b.reset();
        }
        assert_eq!(b.parks, 6);
    }

    #[test]
    fn a_virtual_ladder_yields_twice() {
        let sched = Tally::default();
        let mut b = Backoff::new(true);
        let (tiers, parks) = climb(&mut b, &sched, 4);
        assert_eq!(tiers, ["yield", "yield"]);
        assert_eq!(parks, vec![PARK_TIMEOUT; 2]);

        // The plain wait parks on the scheduler.
        b.reset();
        for _ in 0..3 {
            b.wait(&sched, SchedSite::ManagerIdle);
        }
        assert_eq!(sched.take(), ["yield", "yield", "sched-park"]);
    }
}
