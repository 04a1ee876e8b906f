//! A counting global allocator for allocation-free-path verification.
//!
//! The hot-path contract (see `ccsim_core`'s crate docs) promises zero
//! steady-state heap allocations per simulated trace record. That claim is
//! only checkable from outside the allocator, so this module provides a
//! [`CountingAlloc`] that `tests/alloc_free.rs` installs with
//! `#[global_allocator]`. Counting is a single relaxed atomic increment per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation (including
/// reallocations) in a process-wide counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations observed so far (0 forever unless a [`CountingAlloc`]
/// is installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
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
