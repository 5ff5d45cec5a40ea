//! A std-only single-producer/single-consumer event channel.
//!
//! No engine uses it any more: the window loop hands whole lanes between
//! threads instead of streaming events. It stays while the benchmark's
//! layer table still measures it.
//!
//! [`SpscRing`] is a lock-free bounded ring of
//! Acquire/Release atomics with cached indices (one cache-line handoff
//! per batch in the common case) backed by a mutex-protected overflow
//! spill, so the queue keeps unbounded FIFO semantics while the
//! steady state never takes a lock or allocates.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pads a value to its own cache line so the producer and consumer
/// indices of a ring never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// A lock-free bounded SPSC FIFO ring with a mutex-backed overflow spill.
///
/// The ring proper is a power-of-two array of slots indexed by two
/// monotonically increasing counters: `tail` (written by the producer
/// with Release ordering) and `head` (written by the consumer with
/// Release ordering). Each side keeps a cached copy of the other side's
/// counter and only reloads it (Acquire) when the cache says the ring
/// looks full/empty, so steady-state operation is one atomic store per
/// push/pop and no shared-line ping-pong on the fast path.
///
/// When the ring fills, pushes overflow into a mutex-protected
/// `VecDeque` *spill*. FIFO order across the boundary is preserved by
/// two invariants:
///
/// 1. the producer never pushes into the ring while the spill is
///    non-empty (spill entries are always newer than ring entries);
/// 2. the consumer always drains the ring before touching the spill.
///
/// The producer can check "is the spill empty" with a relaxed load of
/// `spill_len` because the producer is the only thread that ever
/// *increments* it: a zero it reads is exact.
///
/// # Threading contract
///
/// At most one thread may act as producer (`push`, `push_batch`) and at
/// most one as consumer (`pop`, `drain_into`, `clear`) at any instant.
/// The roles may be handed between threads if the handoff itself
/// synchronizes (e.g. a `join` of the previous holder's thread).
/// Violating the contract is a logic error that can lose or duplicate
/// elements; memory safety is still preserved for the index bookkeeping
/// but slot reads may race.
///
/// # Examples
///
/// ```
/// use slacksim_core::sync::SpscRing;
///
/// let q: SpscRing<u32> = SpscRing::with_capacity(4);
/// for i in 0..10 {
///     q.push(i); // 4 in the ring, 6 spilled
/// }
/// let mut out = Vec::new();
/// q.drain_into(&mut out);
/// assert_eq!(out, (0..10).collect::<Vec<_>>());
/// ```
#[derive(Debug)]
pub struct SpscRing<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer position (next slot to pop). Written by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Producer position (next slot to fill). Written by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Producer-private cache of `head` (accessed only by the producer).
    head_cache: CachePadded<UnsafeCell<usize>>,
    /// Consumer-private cache of `tail` (accessed only by the consumer).
    tail_cache: CachePadded<UnsafeCell<usize>>,
    /// Overflow spill; entries here are always newer than ring entries.
    spill: Mutex<VecDeque<T>>,
    /// Spill length mirror; raised only by the producer (Release, under
    /// the spill lock), lowered only by the consumer.
    spill_len: AtomicUsize,
    /// Relaxed element counter for `depth_hint`.
    depth: AtomicUsize,
}

// SAFETY: the SPSC contract above restricts each field to one role;
// cross-thread element handoff is ordered by the Release store of `tail`
// (producer) and the Acquire load in the consumer (and vice versa for
// slot reuse through `head`).
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a ring with at least `capacity` lock-free slots (rounded
    /// up to a power of two, minimum 2). Pushes beyond the ring capacity
    /// spill to the mutex-backed overflow, so the queue as a whole is
    /// unbounded.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            mask: cap - 1,
            buf,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            head_cache: CachePadded(UnsafeCell::new(0)),
            tail_cache: CachePadded(UnsafeCell::new(0)),
            spill: Mutex::new(VecDeque::new()),
            spill_len: AtomicUsize::new(0),
            depth: AtomicUsize::new(0),
        }
    }

    /// Creates a ring with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Number of lock-free slots.
    pub fn ring_capacity(&self) -> usize {
        self.mask + 1
    }

    /// Appends one element (producer side).
    pub fn push(&self, value: T) {
        if self.spill_len.load(Ordering::Relaxed) == 0 {
            let tail = self.tail.0.load(Ordering::Relaxed);
            // SAFETY: head_cache is touched only by the (single) producer.
            let cache = unsafe { &mut *self.head_cache.0.get() };
            if tail.wrapping_sub(*cache) == self.ring_capacity() {
                *cache = self.head.0.load(Ordering::Acquire);
            }
            if tail.wrapping_sub(*cache) < self.ring_capacity() {
                // SAFETY: slot `tail` is free — the consumer has not
                // passed it (checked above) and only this producer fills
                // slots.
                unsafe {
                    (*self.buf[tail & self.mask].get()).write(value);
                }
                self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
                self.depth.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.spill_push(value);
    }

    /// Appends every element of `src` in order, draining it (producer
    /// side). One cached-index check and one Release store cover the
    /// whole batch when it fits in the ring.
    pub fn push_batch(&self, src: &mut Vec<T>) {
        if src.is_empty() {
            return;
        }
        let n = src.len();
        let mut drained = src.drain(..);
        if self.spill_len.load(Ordering::Relaxed) == 0 {
            let tail = self.tail.0.load(Ordering::Relaxed);
            // SAFETY: producer-private cache (see `push`).
            let cache = unsafe { &mut *self.head_cache.0.get() };
            if self.ring_capacity() - tail.wrapping_sub(*cache) < n {
                *cache = self.head.0.load(Ordering::Acquire);
            }
            let free = self.ring_capacity() - tail.wrapping_sub(*cache);
            let into_ring = free.min(n);
            for (i, value) in drained.by_ref().take(into_ring).enumerate() {
                // SAFETY: slots `tail..tail+into_ring` are free (bounded
                // by `free` above).
                unsafe {
                    (*self.buf[tail.wrapping_add(i) & self.mask].get()).write(value);
                }
            }
            if into_ring > 0 {
                self.tail
                    .0
                    .store(tail.wrapping_add(into_ring), Ordering::Release);
                self.depth.fetch_add(into_ring, Ordering::Relaxed);
            }
        }
        for value in drained {
            self.spill_push(value);
        }
    }

    fn spill_push(&self, value: T) {
        let mut s = self.spill.lock().expect("spill poisoned");
        s.push_back(value);
        // Release pairs with the consumer's Acquire load in `pop` /
        // `drain_into`: a consumer that observes this spill entry must
        // also observe every ring entry committed before it, or it could
        // hand out the (newer) spill item while older ring items are
        // still invisible to its stale `tail` view.
        self.spill_len.store(s.len(), Ordering::Release);
        drop(s);
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes and returns the oldest ring element, if the ring looks
    /// non-empty from the consumer's current view (consumer side).
    fn pop_ring(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        // SAFETY: tail_cache is touched only by the (single) consumer.
        let cache = unsafe { &mut *self.tail_cache.0.get() };
        if head == *cache {
            *cache = self.tail.0.load(Ordering::Acquire);
        }
        if head != *cache {
            // SAFETY: slot `head` was filled by the producer (tail has
            // passed it, Acquire-observed above) and not yet consumed.
            let value = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
            self.head.0.store(head.wrapping_add(1), Ordering::Release);
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Some(value);
        }
        None
    }

    /// Removes and returns the oldest element, if any (consumer side).
    pub fn pop(&self) -> Option<T> {
        if let Some(value) = self.pop_ring() {
            return Some(value);
        }
        // Ring looked empty: the spill (if any) holds the remaining items.
        if self.spill_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        // The spill only ever receives items pushed while the ring was
        // full, so a non-empty spill means up to a full lap of OLDER ring
        // entries may exist that the empty-check above missed through a
        // stale `tail`. The Acquire load pairs with `spill_push`'s
        // Release store, making those tail stores visible — re-check the
        // ring before touching the strictly newer spill. (The producer
        // cannot re-enter the ring path until the spill drains, so no
        // newer ring entry can slip ahead of the spill here.)
        if let Some(value) = self.pop_ring() {
            return Some(value);
        }
        let mut s = self.spill.lock().expect("spill poisoned");
        let value = s.pop_front();
        self.spill_len.store(s.len(), Ordering::Relaxed);
        drop(s);
        if value.is_some() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        value
    }

    /// Moves every currently visible ring element into `out` and returns
    /// how many were moved (consumer side). One Release store covers the
    /// whole sweep.
    fn drain_ring_into(&self, out: &mut Vec<T>) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        // SAFETY: consumer-private cache (see `pop`).
        unsafe {
            *self.tail_cache.0.get() = tail;
        }
        let n = tail.wrapping_sub(head);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: slots `head..tail` are filled and unconsumed.
            let value =
                unsafe { (*self.buf[head.wrapping_add(i) & self.mask].get()).assume_init_read() };
            out.push(value);
        }
        if n > 0 {
            self.head.0.store(tail, Ordering::Release);
            self.depth.fetch_sub(n, Ordering::Relaxed);
        }
        n
    }

    /// Moves every currently queued element into `out`, preserving FIFO
    /// order, and returns how many were moved (consumer side). The ring
    /// portion is consumed with a single Release store.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut moved = self.drain_ring_into(out);
        if self.spill_len.load(Ordering::Acquire) != 0 {
            // Same stale-tail hazard as `pop`: the spill is strictly
            // newer than any committed ring entry, and the Acquire load
            // (pairing with `spill_push`'s Release) makes those entries
            // visible — sweep the ring once more before the spill.
            moved += self.drain_ring_into(out);
            let mut s = self.spill.lock().expect("spill poisoned");
            let k = s.len();
            out.extend(s.drain(..));
            self.spill_len.store(0, Ordering::Relaxed);
            drop(s);
            self.depth.fetch_sub(k, Ordering::Relaxed);
            moved += k;
        }
        moved
    }

    /// Discards every queued element (consumer side).
    pub fn clear(&self) {
        while self.pop().is_some() {}
    }

    /// Approximate number of queued elements: a relaxed counter read,
    /// safe from any thread and never taking the spill lock. Exact when
    /// both sides are quiescent.
    pub fn depth_hint(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Returns `true` when the queue looks empty (same caveats as
    /// [`depth_hint`](Self::depth_hint)).
    pub fn is_empty_hint(&self) -> bool {
        self.depth_hint() == 0
    }
}

impl<T> Default for SpscRing<T> {
    fn default() -> Self {
        SpscRing::new()
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drop the unconsumed ring slots; the spill's VecDeque drops
        // itself.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in 0..tail.wrapping_sub(head) {
            // SAFETY: &mut self — no concurrent access; slots head..tail
            // are initialized.
            unsafe {
                (*self.buf[head.wrapping_add(i) & self.mask].get()).assume_init_drop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_fifo_within_capacity() {
        let q: SpscRing<u32> = SpscRing::with_capacity(8);
        for i in 0..8 {
            q.push(i);
        }
        assert_eq!(q.depth_hint(), 8);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
        assert!(q.is_empty_hint());
    }

    #[test]
    fn ring_capacity_rounds_to_power_of_two() {
        let q: SpscRing<u8> = SpscRing::with_capacity(5);
        assert_eq!(q.ring_capacity(), 8);
        let q: SpscRing<u8> = SpscRing::with_capacity(0);
        assert_eq!(q.ring_capacity(), 2);
    }

    #[test]
    fn ring_overflow_spills_and_keeps_order() {
        let q: SpscRing<u32> = SpscRing::with_capacity(4);
        for i in 0..20 {
            q.push(i);
        }
        assert_eq!(q.depth_hint(), 20);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn ring_interleaved_across_spill_boundary() {
        // Alternate pushes and pops around the full mark so elements
        // cross ring → spill → ring-refill boundaries in every pattern.
        let q: SpscRing<u32> = SpscRing::with_capacity(2);
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for round in 0..100u32 {
            for _ in 0..(round % 7) {
                q.push(next_push);
                next_push += 1;
            }
            for _ in 0..(round % 5) {
                if let Some(v) = q.pop() {
                    assert_eq!(v, next_pop);
                    next_pop += 1;
                }
            }
        }
        while let Some(v) = q.pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn ring_push_batch_and_drain_into() {
        let q: SpscRing<u32> = SpscRing::with_capacity(4);
        let mut batch: Vec<u32> = (0..10).collect();
        q.push_batch(&mut batch); // 4 ring + 6 spill
        assert!(batch.is_empty());
        let mut batch2: Vec<u32> = (10..13).collect();
        q.push_batch(&mut batch2); // all spill (spill non-empty)
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 13);
        assert_eq!(out, (0..13).collect::<Vec<_>>());
        assert_eq!(q.depth_hint(), 0);
    }

    #[test]
    fn ring_clear_discards_everything() {
        let q: SpscRing<String> = SpscRing::with_capacity(2);
        for i in 0..10 {
            q.push(format!("item{i}"));
        }
        q.clear();
        assert_eq!(q.pop(), None);
        assert_eq!(q.depth_hint(), 0);
    }

    #[test]
    fn ring_drop_releases_unconsumed_items() {
        // Drop with live ring + spill contents; Miri/leak checkers would
        // flag a leak here if Drop missed the slots.
        let q: SpscRing<Box<u64>> = SpscRing::with_capacity(4);
        for i in 0..10 {
            q.push(Box::new(i));
        }
        let _ = q.pop();
        drop(q);
    }

    #[test]
    fn ring_cross_thread_fifo() {
        let q: Arc<SpscRing<u64>> = Arc::new(SpscRing::with_capacity(16));
        let producer = Arc::clone(&q);
        let handle = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                producer.push(i);
            }
        });
        let mut expected = 0u64;
        while expected < 50_000 {
            if let Some(v) = q.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        handle.join().expect("producer finishes");
        assert_eq!(q.pop(), None);
    }
}
