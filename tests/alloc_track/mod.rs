//! A counting global allocator for allocation-free-path and
//! bounded-memory verification.
//!
//! The hot-path contract (see `ccsim_core`'s crate docs) promises zero
//! steady-state heap allocations per simulated trace record, and the
//! campaign promises a heap that does not grow with trace length. Both
//! claims are only checkable from outside the allocator, so this module
//! provides a [`CountingAlloc`] that `tests/alloc_free.rs` and
//! `tests/bounded_memory.rs` install with `#[global_allocator]`. It
//! counts allocations (one relaxed atomic increment each) and tracks the
//! live heap bytes and their peak. Each test binary uses a subset of the
//! functions below.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation (including
/// reallocations) in a process-wide counter, and the bytes live and at
/// their peak.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters are relaxed atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

/// Heap allocations observed so far (0 forever unless a [`CountingAlloc`]
/// is installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// How far the heap rose above its level at the call while `f` ran
/// (single-threaded callers only: other threads' allocations count too).
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base))
}

/// `true` if a [`CountingAlloc`] is actually installed: performs one heap
/// allocation and checks that the counter moved.
pub fn counting_enabled() -> bool {
    let before = allocations();
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    drop(probe);
    allocations() > before
}
