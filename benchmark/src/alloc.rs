//! A counting global allocator that is a pass-through while timed samples
//! run: one relaxed load per call decides whether anything is recorded.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; [`measure`] switches the counting on around one
//! run and returns what the run allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
/// Live bytes since counting was switched on. Signed: a block allocated
/// before the switch and freed after it takes the count below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Pass-through to the system allocator that counts while switched on.
pub struct CountingAlloc;

fn grew(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as isize, Relaxed) + size as isize;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with this layout, and this
        // allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What one measured region allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Highest number of live bytes above the level at the start.
    pub peak_bytes: u64,
    /// Allocation calls (reallocations included).
    pub count: u64,
    /// Bytes requested over all calls.
    pub bytes: u64,
}

/// Runs `f` with counting on. All zeros when the running binary did not
/// install [`CountingAlloc`]. Not reentrant: the benchmark measures one run
/// at a time.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    ON.store(true, Relaxed);
    let result = f();
    ON.store(false, Relaxed);
    let stats = AllocStats {
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    };
    (result, stats)
}
