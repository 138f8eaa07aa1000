//! Live-heap accounting for the capacity benchmarks.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and keeps a live-bytes
//! counter plus a high-water mark, so `bench_scale` and the capacity
//! tests report *measured* resident bytes per stack. Binaries opt in
//! with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dpu_bench::mem::CountingAlloc = dpu_bench::mem::CountingAlloc::new();
//! ```
//!
//! The counters are plain relaxed atomics: the probes read them from the
//! same thread that just finished building or running a simulation, and a
//! handful of bytes of cross-thread slop is far below measurement noise.
//!
//! This is the one module in the crate allowed to use `unsafe` (the
//! `GlobalAlloc` contract), mirroring how `dpu-reactor` confines its raw
//! epoll FFI to `sys.rs`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that tracks live and peak heap bytes.
pub struct CountingAlloc {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter (const so it can be a `#[global_allocator]` static).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    /// Heap bytes currently allocated and not yet freed.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::live`] since process start (or the last
    /// [`Self::reset_peak`]).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark from the current live level, so a probe
    /// can measure the peak of one phase (e.g. a churn window) in isolation.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    /// Total successful allocation calls since process start (frees not
    /// subtracted) — the counter steady-state guards difference across a
    /// measured phase to assert "~0 allocations per operation".
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    fn add(&self, n: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        self.live.fetch_sub(n as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Grow before shrink order doesn't matter for a saturating-free
            // counter pair: account the delta exactly.
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        p
    }
}
