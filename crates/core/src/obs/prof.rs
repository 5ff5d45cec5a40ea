//! Host-time self-profiler: scoped spans over a fixed site enum.
//!
//! The tracer and metrics registry observe *simulated* time; this module
//! answers the complementary question — where does the *host's* wall clock
//! go? Every interesting stretch of engine code (a core burst, a manager
//! drain, each tier of the yield→park wait ladder, checkpoint capture
//! and restore, persist I/O, export) is bracketed by a [`ProfScope`] guard
//! tagged with a [`ProfSite`]. On drop the guard reads the monotonic clock
//! and accumulates the elapsed nanoseconds into shared per-site atomics,
//! splitting *total* time from *self* time (total minus time spent in
//! nested scopes on the same thread).
//!
//! The cost model:
//!
//! * **disabled** (the default): entering a scope is one relaxed atomic
//!   load and the guard is inert — cheap enough to leave in release-mode
//!   hot loops;
//! * **enabled**: two monotonic-clock reads per scope plus three relaxed
//!   `fetch_add`s on drop. No locks, no allocation, ever.
//!
//! Because accumulation goes straight into the shared [`Profiler`] atomics
//! (rather than thread-local tables merged at the end), a concurrent
//! observer — the live-telemetry emitter in [`super::live`] — can read
//! per-site totals mid-run without stalling any engine thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum supported scope nesting depth per thread. Deeper nesting still
/// times correctly in *total* terms; self-time attribution just stops
/// subtracting children past this depth (the engines nest at most 2 deep).
const MAX_DEPTH: usize = 8;

/// Every instrumented stretch of engine code. The set is fixed at compile
/// time so per-site accumulators live in a flat array indexed without
/// hashing or allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfSite {
    /// A core advancing target cycles inside its slack window (both
    /// engines' burst loops).
    CoreTick = 0,
    /// The manager moving events from core OutQs into the global queue.
    ManagerDrain = 1,
    /// The manager servicing the global queue through the uncore model.
    ManagerService = 2,
    /// Capturing a checkpoint (the base clone at run start, then deltas).
    CheckpointCapture = 3,
    /// Committing a captured checkpoint into the standing base (delta
    /// merge / bookkeeping after a successful interval).
    CheckpointApply = 4,
    /// Restoring model state from a checkpoint during rollback.
    CheckpointRestore = 5,
    /// Durable snapshot encode + atomic write (`--save-state`).
    PersistIo = 6,
    /// Rendering/writing report artifacts after the run.
    Export = 7,
    /// The batched engine's inner loop: one lane of cores each running
    /// its whole window in a single `run_window` call.
    BatchedRun = 8,
    /// The batched engine's quantum-boundary resolution: staged cross-core
    /// events serviced in timestamp order.
    BatchedResolve = 9,
    /// The batched engine's manager waiting, after its own lane, for the
    /// window workers to finish theirs (host-parallel windows only).
    BatchedBarrier = 10,
}

/// Number of profiling sites (length of [`ProfSite::ALL`]).
pub const SITE_COUNT: usize = 11;

impl ProfSite {
    /// Every site, in index order.
    pub const ALL: [ProfSite; SITE_COUNT] = [
        ProfSite::CoreTick,
        ProfSite::ManagerDrain,
        ProfSite::ManagerService,
        ProfSite::CheckpointCapture,
        ProfSite::CheckpointApply,
        ProfSite::CheckpointRestore,
        ProfSite::PersistIo,
        ProfSite::Export,
        ProfSite::BatchedRun,
        ProfSite::BatchedResolve,
        ProfSite::BatchedBarrier,
    ];

    /// Stable kebab-case name used in tables, CSV and heartbeat JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProfSite::CoreTick => "core-tick",
            ProfSite::ManagerDrain => "manager-drain",
            ProfSite::ManagerService => "manager-service",
            ProfSite::CheckpointCapture => "checkpoint-capture",
            ProfSite::CheckpointApply => "checkpoint-apply",
            ProfSite::CheckpointRestore => "checkpoint-restore",
            ProfSite::PersistIo => "persist-io",
            ProfSite::Export => "export",
            ProfSite::BatchedRun => "batched-run",
            ProfSite::BatchedResolve => "batched-resolve",
            ProfSite::BatchedBarrier => "batched-barrier",
        }
    }

    /// Parses a stable site name back to the site (inverse of
    /// [`name`](Self::name)).
    pub fn parse(name: &str) -> Option<ProfSite> {
        ProfSite::ALL.iter().copied().find(|s| s.name() == name)
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// One site's shared accumulators.
#[derive(Debug)]
struct SiteAtom {
    count: AtomicU64,
    self_ns: AtomicU64,
    total_ns: AtomicU64,
}

impl SiteAtom {
    const fn zero() -> SiteAtom {
        SiteAtom {
            count: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct ProfShared {
    enabled: AtomicBool,
    sites: [SiteAtom; SITE_COUNT],
}

/// The shared half of the profiler: the enable flag plus the per-site
/// accumulators. Cloning is cheap (`Arc`); every clone and every
/// [`ProfHandle`] observes the same flag and feeds the same totals.
///
/// # Examples
///
/// ```
/// use slacksim_core::obs::prof::{ProfSite, Profiler};
///
/// let prof = Profiler::enabled();
/// let handle = prof.handle();
/// {
///     let _outer = handle.enter(ProfSite::ManagerService);
///     let _inner = handle.enter(ProfSite::CheckpointCapture);
/// }
/// let (count, self_ns, total_ns) = prof.site_totals(ProfSite::ManagerService);
/// assert_eq!(count, 1);
/// assert!(self_ns <= total_ns);
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    shared: Arc<ProfShared>,
}

impl Profiler {
    fn with_enabled(on: bool) -> Self {
        Profiler {
            shared: Arc::new(ProfShared {
                enabled: AtomicBool::new(on),
                sites: [const { SiteAtom::zero() }; SITE_COUNT],
            }),
        }
    }

    /// Creates an enabled profiler.
    pub fn enabled() -> Self {
        Profiler::with_enabled(true)
    }

    /// Creates a disabled profiler: every [`ProfHandle::enter`] costs one
    /// relaxed atomic load and returns an inert guard.
    pub fn disabled() -> Self {
        Profiler::with_enabled(false)
    }

    /// Whether timing is currently enabled (relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Creates a per-thread scope handle. Handles are `Send` (move one
    /// onto each engine thread) but not `Sync`: the nesting stack is
    /// thread-local by construction.
    pub fn handle(&self) -> ProfHandle {
        ProfHandle {
            shared: Arc::clone(&self.shared),
            depth: Cell::new(0),
            child_ns: [const { Cell::new(0) }; MAX_DEPTH],
        }
    }

    /// A site's accumulated `(count, self_ns, total_ns)` so far (relaxed
    /// loads — safe to call concurrently with recording threads; the live
    /// emitter does exactly that).
    pub fn site_totals(&self, site: ProfSite) -> (u64, u64, u64) {
        let a = &self.shared.sites[site.idx()];
        (
            a.count.load(Ordering::Relaxed),
            a.self_ns.load(Ordering::Relaxed),
            a.total_ns.load(Ordering::Relaxed),
        )
    }

    /// Sum of self-time over every site, in nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.shared
            .sites
            .iter()
            .map(|a| a.self_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Freezes the accumulated totals into a [`ProfData`] for the final
    /// report. `wall` is the run's measured wall-clock and `threads` the
    /// number of host threads that were recording (the calling thread plus
    /// any window workers; 1 on the sequential engine) — together they define
    /// the coverage denominator.
    pub fn snapshot(&self, wall: Duration, threads: u64) -> ProfData {
        let mut sites = Vec::new();
        for site in ProfSite::ALL {
            let (count, self_ns, total_ns) = self.site_totals(site);
            if count > 0 {
                sites.push(SiteStat {
                    site,
                    count,
                    self_ns,
                    total_ns,
                });
            }
        }
        ProfData {
            sites,
            wall_ns: wall.as_nanos() as u64,
            threads: threads.max(1),
        }
    }
}

/// A per-thread handle that opens [`ProfScope`] guards and tracks their
/// nesting so self-time can be attributed (total minus nested children).
#[derive(Debug)]
pub struct ProfHandle {
    shared: Arc<ProfShared>,
    depth: Cell<usize>,
    child_ns: [Cell<u64>; MAX_DEPTH],
}

impl ProfHandle {
    /// Opens a scope over `site`; timing stops when the guard drops.
    ///
    /// When the profiler is disabled this is one relaxed atomic load and
    /// the returned guard is inert.
    #[inline]
    pub fn enter(&self, site: ProfSite) -> ProfScope<'_> {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return ProfScope { inner: None };
        }
        let depth = self.depth.get();
        if depth < MAX_DEPTH {
            self.child_ns[depth].set(0);
        }
        self.depth.set(depth + 1);
        ProfScope {
            inner: Some(ScopeInner {
                handle: self,
                site,
                start: Instant::now(),
            }),
        }
    }

    /// Whether the owning profiler is enabled (relaxed load) — lets
    /// callers skip argument computation for scope-adjacent work.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct ScopeInner<'a> {
    handle: &'a ProfHandle,
    site: ProfSite,
    start: Instant,
}

/// An RAII span guard: drop it to stop the clock and accumulate the
/// elapsed time into the profiler (see [`ProfHandle::enter`]).
#[derive(Debug)]
#[must_use = "a ProfScope times the span until it is dropped"]
pub struct ProfScope<'a> {
    inner: Option<ScopeInner<'a>>,
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let total = inner.start.elapsed().as_nanos() as u64;
        let h = inner.handle;
        let depth = h.depth.get().saturating_sub(1);
        h.depth.set(depth);
        let child = if depth < MAX_DEPTH {
            h.child_ns[depth].get()
        } else {
            0
        };
        if depth > 0 && depth - 1 < MAX_DEPTH {
            let parent = &h.child_ns[depth - 1];
            parent.set(parent.get().saturating_add(total));
        }
        let atom = &h.shared.sites[inner.site.idx()];
        atom.count.fetch_add(1, Ordering::Relaxed);
        atom.self_ns
            .fetch_add(total.saturating_sub(child), Ordering::Relaxed);
        atom.total_ns.fetch_add(total, Ordering::Relaxed);
    }
}

/// One site's frozen statistics in a [`ProfData`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteStat {
    /// The instrumented site.
    pub site: ProfSite,
    /// Number of spans recorded.
    pub count: u64,
    /// Nanoseconds spent in the site itself (nested scopes subtracted).
    pub self_ns: u64,
    /// Nanoseconds spent in the site including nested scopes.
    pub total_ns: u64,
}

/// The host-time profile attached to a finished run's `SimReport`:
/// per-site span counts and self/total nanoseconds, plus the wall-clock
/// and thread count that define coverage.
#[derive(Debug, Clone, Default)]
pub struct ProfData {
    /// Per-site statistics, in [`ProfSite::ALL`] order, sites with at
    /// least one span only.
    pub sites: Vec<SiteStat>,
    /// The run's measured wall-clock, in nanoseconds.
    pub wall_ns: u64,
    /// Host threads that were recording (coverage denominator is
    /// `wall_ns × threads`).
    pub threads: u64,
}

impl ProfData {
    /// Adds externally measured host time to a site (used by the CLI to
    /// account export/write time that happens after the engine returned).
    pub fn record(&mut self, site: ProfSite, count: u64, ns: u64) {
        match self.sites.iter_mut().find(|s| s.site == site) {
            Some(s) => {
                s.count += count;
                s.self_ns += ns;
                s.total_ns += ns;
            }
            None => self.sites.push(SiteStat {
                site,
                count,
                self_ns: ns,
                total_ns: ns,
            }),
        }
    }

    /// Sum of self-time over every site, in nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.sites.iter().map(|s| s.self_ns).sum()
    }

    /// Fraction of the available host time (`wall × threads`) accounted
    /// for by self-time, in `[0, 1]`-ish (can exceed 1 slightly when
    /// clock reads straddle scope edges). 0 when no wall-clock was set.
    pub fn coverage(&self) -> f64 {
        let denom = self.wall_ns.saturating_mul(self.threads.max(1));
        if denom == 0 {
            return 0.0;
        }
        self.total_self_ns() as f64 / denom as f64
    }

    /// Renders the per-site table as aligned text (see
    /// [`super::export::prof_table`]).
    pub fn table(&self) -> String {
        super::export::prof_table(self)
    }

    /// Renders the per-site table as CSV (see
    /// [`super::export::prof_csv`]).
    pub fn csv(&self) -> String {
        super::export::prof_csv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, site) in ProfSite::ALL.into_iter().enumerate() {
            assert_eq!(site.idx(), i, "ALL order matches discriminants");
            assert!(seen.insert(site.name()), "duplicate name {}", site.name());
            assert_eq!(ProfSite::parse(site.name()), Some(site));
        }
        assert_eq!(seen.len(), SITE_COUNT);
        assert_eq!(ProfSite::parse("no-such-site"), None);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let prof = Profiler::disabled();
        let h = prof.handle();
        for _ in 0..100 {
            let _s = h.enter(ProfSite::CoreTick);
        }
        assert_eq!(prof.site_totals(ProfSite::CoreTick), (0, 0, 0));
        assert!(prof.snapshot(Duration::from_secs(1), 1).sites.is_empty());
    }

    #[test]
    fn scopes_accumulate_counts_and_time() {
        let prof = Profiler::enabled();
        let h = prof.handle();
        for _ in 0..10 {
            let _s = h.enter(ProfSite::ManagerDrain);
        }
        let (count, self_ns, total_ns) = prof.site_totals(ProfSite::ManagerDrain);
        assert_eq!(count, 10);
        assert_eq!(self_ns, total_ns, "no nesting => self equals total");
    }

    #[test]
    fn nested_scope_time_is_subtracted_from_parent_self() {
        let prof = Profiler::enabled();
        let h = prof.handle();
        {
            let _outer = h.enter(ProfSite::ManagerService);
            {
                let _inner = h.enter(ProfSite::CheckpointCapture);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let (_, outer_self, outer_total) = prof.site_totals(ProfSite::ManagerService);
        let (_, inner_self, inner_total) = prof.site_totals(ProfSite::CheckpointCapture);
        assert!(
            inner_self >= 10_000_000,
            "inner slept ~20ms: {inner_self}ns"
        );
        assert_eq!(inner_self, inner_total);
        assert!(
            outer_total >= inner_total,
            "outer total {outer_total} contains inner {inner_total}"
        );
        assert!(
            outer_self < outer_total / 2,
            "outer self {outer_self} must exclude the inner sleep ({outer_total} total)"
        );
    }

    #[test]
    fn handles_merge_across_threads() {
        let prof = Profiler::enabled();
        let joins: Vec<_> = (0..4)
            .map(|_| {
                let h = prof.handle();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let _s = h.enter(ProfSite::CoreTick);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().expect("profiled thread");
        }
        let (count, _, _) = prof.site_totals(ProfSite::CoreTick);
        assert_eq!(count, 100);
    }

    #[test]
    fn snapshot_and_record_roundtrip() {
        let prof = Profiler::enabled();
        let h = prof.handle();
        drop(h.enter(ProfSite::CoreTick));
        let mut data = prof.snapshot(Duration::from_millis(100), 2);
        assert_eq!(data.threads, 2);
        assert_eq!(data.sites.len(), 1);
        data.record(ProfSite::Export, 1, 5_000);
        data.record(ProfSite::Export, 1, 5_000);
        let exp = data
            .sites
            .iter()
            .find(|s| s.site == ProfSite::Export)
            .expect("export site added");
        assert_eq!(exp.count, 2);
        assert_eq!(exp.self_ns, 10_000);
        assert!(data.total_self_ns() >= 10_000);
        assert!(data.coverage() > 0.0);
    }

    #[test]
    fn deep_nesting_past_cap_still_counts_totals() {
        let prof = Profiler::enabled();
        let h = prof.handle();
        fn nest(h: &ProfHandle, n: usize) {
            if n == 0 {
                return;
            }
            let _s = h.enter(ProfSite::CoreTick);
            nest(h, n - 1);
        }
        nest(&h, MAX_DEPTH + 4);
        let (count, _, _) = prof.site_totals(ProfSite::CoreTick);
        assert_eq!(count as usize, MAX_DEPTH + 4);
    }
}
