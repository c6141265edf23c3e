//! Byte-counting allocator for the memory-cost metric.
//!
//! The paper reports the "memory cost" of each algorithm (Table V,
//! Figs. 5(c)/(g)/(k)). [`CountingAllocator`] is a global-allocator
//! wrapper counting live and peak heap bytes process-wide; the `repro`
//! binary installs it with `#[global_allocator]`.
//!
//! The structural `approx_bytes()` estimates in the simulator remain
//! useful for cross-checking (they exclude transient allocations).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live/peak byte counters. Global so the allocator can be a ZST.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A byte-counting wrapper around the system allocator.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: com_bench::CountingAllocator = com_bench::CountingAllocator;
/// ```
pub struct CountingAllocator;

impl CountingAllocator {
    /// Peak live heap bytes since process start (or the last
    /// [`CountingAllocator::reset_peak`]).
    pub fn peak_bytes() -> usize {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Reset the peak to the current live value.
    pub fn reset_peak() {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn record_alloc(size: usize) {
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`, only adding relaxed
// atomic bookkeeping; size/layout pairs mirror the delegated calls.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            Self::record_dealloc(layout.size());
            Self::record_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
impl CountingAllocator {
    /// Currently live heap bytes.
    fn live_bytes() -> usize {
        LIVE_BYTES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counting allocator is NOT installed as the global allocator in
    // unit tests (that would affect the whole test binary); we exercise
    // the bookkeeping directly.

    /// The counters are process-wide and tests run on parallel threads:
    /// each test holds this lock so another's frees cannot land between
    /// its reads.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn alloc_dealloc_bookkeeping() {
        let _serial = COUNTERS.lock().expect("a counter test panicked");
        let a = CountingAllocator;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before_live = CountingAllocator::live_bytes();
        let ptr = unsafe { a.alloc(layout) };
        assert!(!ptr.is_null());
        assert!(CountingAllocator::live_bytes() >= before_live + 4096);
        assert!(CountingAllocator::peak_bytes() >= before_live + 4096);
        unsafe { a.dealloc(ptr, layout) };
        assert!(CountingAllocator::live_bytes() <= before_live + 4096);
    }

    #[test]
    fn realloc_adjusts_counts() {
        let _serial = COUNTERS.lock().expect("a counter test panicked");
        let a = CountingAllocator;
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let ptr = unsafe { a.alloc(layout) };
        let live_after_alloc = CountingAllocator::live_bytes();
        let new_ptr = unsafe { a.realloc(ptr, layout, 2048) };
        assert!(!new_ptr.is_null());
        assert!(CountingAllocator::live_bytes() >= live_after_alloc + 1024 - 1024);
        let new_layout = Layout::from_size_align(2048, 8).unwrap();
        unsafe { a.dealloc(new_ptr, new_layout) };
    }
}
