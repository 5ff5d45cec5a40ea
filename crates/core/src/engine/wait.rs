//! The one yield → park wait ladder both sides of the window loop's
//! hand-off wait through when they have nothing to do until the other
//! makes progress.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::time::Duration;

/// Yield iterations before a waiter parks; there is no spin tier before
/// them. A spin holds the CPU for ~20 ns that, on a host with fewer CPUs
/// than waiters, the awaited thread needs, and costs that on every wait;
/// a yield hands the CPU over instead (DESIGN §10, "One wait ladder").
/// Deep enough to outlast a window's service (~60 us at 64 directory
/// cores), whose worker would otherwise park inside it and wake the next
/// window late (DESIGN §15.1).
const YIELD_ITERS: u32 = 8192;
/// Park timeout: a backstop where the other side unparks the waiter.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// CPUs this process may run on (its affinity mask and cgroup quota), 1
/// where that cannot be told. Asked once per process: the answer costs a
/// system call and several file reads, ~11 us where an engine's whole
/// set-up is a few hundred.
fn host_cpus() -> usize {
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
}

impl Backoff {
    pub(super) fn new() -> Self {
        Backoff { idle: 0 }
    }

    #[inline]
    pub(super) fn reset(&mut self) {
        self.idle = 0;
    }

    /// One wait: a yield, or once [`YIELD_ITERS`] of them went unanswered,
    /// a timed park. Returns whether it parked.
    pub(super) fn wait(&mut self) -> bool {
        if self.idle < YIELD_ITERS {
            self.idle += 1;
            std::thread::yield_now();
            false
        } else {
            std::thread::park_timeout(PARK_TIMEOUT);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_yields_then_parks_and_reset_restarts_it() {
        let mut b = Backoff::new();
        for _ in 0..2 {
            let parked: Vec<bool> = (0..YIELD_ITERS + 2).map(|_| b.wait()).collect();
            assert!(parked[..YIELD_ITERS as usize].iter().all(|&p| !p));
            assert_eq!(parked[YIELD_ITERS as usize..], [true, true]);
            b.reset();
        }
    }

    #[test]
    fn lanes_are_equally_wide_and_never_outnumber_the_threads() {
        assert_eq!(lane_width(2, 8), 4);
        assert_eq!(lane_width(3, 4), 2);
        assert_eq!(lane_width(16, 4), 1);
        assert_eq!(lane_width(1, 64), 64);
    }
}
