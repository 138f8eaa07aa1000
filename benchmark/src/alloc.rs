//! The benchmark's own counting allocator: live bytes, their high-water
//! mark and the number of allocation calls, read around a timed region to
//! give `bytes_per_stack`, `sim.bytes_per_stack_*` and
//! `core.heap_allocs_per_event`.
//!
//! Counters are relaxed atomics: they publish no other data, and every
//! reading is taken by the thread that has just joined or synchronised
//! with the threads it measured.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc {
    live: AtomicU64,
    peak: AtomicU64,
    calls: AtomicU64,
}

#[global_allocator]
pub static ALLOC: CountingAlloc =
    CountingAlloc { live: AtomicU64::new(0), peak: AtomicU64::new(0), calls: AtomicU64::new(0) };

impl CountingAlloc {
    /// Heap bytes allocated and not yet freed.
    pub fn live(&self) -> u64 {
        self.live.load(Relaxed)
    }

    /// High-water mark of [`Self::live`] since the last [`Self::reset_peak`].
    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Relaxed);
    }

    /// Allocation calls since process start (frees not subtracted).
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    fn add(&self, n: usize) {
        self.calls.fetch_add(1, Relaxed);
        let live = self.live.fetch_add(n as u64, Relaxed) + n as u64;
        self.peak.fetch_max(live, Relaxed);
    }

    fn sub(&self, n: usize) {
        self.live.fetch_sub(n as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the counters
// never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        p
    }
}
