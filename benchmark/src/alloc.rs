//! Counting global allocator: wraps `System`, off by default.
//!
//! Off, every allocation pays one relaxed flag load. On (traced runs and
//! the memory phase only), it tracks live bytes relative to the moment
//! counting started, the peak of that, and the number and volume of
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// All statistics: none of them publishes other data, so `Relaxed` throughout.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            // Memory allocated before counting started may be freed now, so
            // LIVE is signed and relative to the start of counting.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if ON.load(Relaxed) && !p.is_null() {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What one counted region allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocStats {
    /// Peak of live bytes above the level at `start()`.
    pub peak_live_bytes: u64,
    pub count: u64,
    pub bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting and return what the region since `start()` did.
pub fn stop() -> AllocStats {
    ON.store(false, Relaxed);
    AllocStats {
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
