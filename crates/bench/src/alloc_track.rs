//! A tracking global allocator for the benchmark harness.
//!
//! Wraps the system allocator with two process-wide atomic counters — live
//! bytes and the high-water mark — so measurements can report peak
//! allocation per run. The offline build environment has no allocation
//! profiler crates, so the counter lives here; every target that links
//! `disc-bench` (the experiment runner and the crate's tests) allocates
//! through it.
//!
//! The counters use relaxed ordering: they are statistics, not
//! synchronization, and a few bytes of cross-thread skew in the peak is
//! irrelevant next to the megabytes the miners allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bytes currently allocated and not yet freed.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator instrumented with live/peak byte counters.
pub struct TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

fn on_alloc(bytes: usize) {
    let live = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper only
// updates counters and never touches the returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                on_dealloc(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Serializes peak measurements: the counters are process-wide, so one
/// region's [`reset_peak`] would cut into another's peak. Hold the guard
/// from the reset to the last read (the harness's measure functions do).
pub fn measuring() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resets the peak to the current live-byte count. Call immediately before
/// the region of interest, under [`measuring`].
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The high-water mark of live allocated bytes since the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_large_allocation() {
        let _measuring = measuring();
        reset_peak();
        let before = peak_bytes();
        let buf = vec![0u8; 1 << 20];
        let during = peak_bytes();
        drop(buf);
        assert!(
            during >= before + (1 << 20),
            "peak should rise by at least the 1 MiB allocation: before={before} during={during}"
        );
        // After the drop the peak stays at the high-water mark…
        assert!(peak_bytes() >= during);
        // …until a reset brings it back down to the live count.
        reset_peak();
        assert!(peak_bytes() < during);
    }
}
