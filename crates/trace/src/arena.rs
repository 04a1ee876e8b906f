//! Instrumented-execution arena.
//!
//! [`TraceArena`] stands in for a binary-instrumentation tracer (Intel PIN /
//! the ChampSim tracer): it lays program data structures out in a synthetic
//! virtual address space and records every load and store they receive,
//! tagged with a static *code site* (a pseudo-PC). Algorithms written
//! against [`TracedVec`] therefore produce the same address streams their
//! native counterparts would, with a realistic (small) set of distinct PCs —
//! the property the paper identifies as decisive for learned replacement
//! policies.
//!
//! # Examples
//!
//! Summing an array through the arena records one load per element, all from
//! the same code site:
//!
//! ```
//! use ccsim_trace::TraceArena;
//!
//! let arena = TraceArena::new("sum");
//! let site = arena.code_site();
//! let xs = arena.vec_of((0..64u64).collect::<Vec<_>>());
//! let mut total = 0;
//! for i in 0..xs.len() {
//!     total += xs.get(site, i);
//!     arena.work(2); // loop increment + add
//! }
//! drop(xs);
//! let trace = arena.finish();
//! assert_eq!(total, 64 * 63 / 2);
//! assert_eq!(trace.len(), 64);
//! assert!(trace.iter().all(|r| r.pc == site.addr()));
//! ```

use std::cell::{Cell, RefCell};

use crate::{Trace, TraceBuffer};

/// Base of the synthetic code segment (pseudo-PC space).
const CODE_BASE: u64 = 0x0040_0000;
/// Base of the synthetic data segment.
const DATA_BASE: u64 = 0x1000_0000;
/// Alignment and guard spacing between arena allocations.
const REGION_ALIGN: u64 = 4096;

/// A static code site (pseudo program counter) handed out by
/// [`TraceArena::code_site`].
///
/// Every syntactic load/store location in an instrumented kernel should use
/// its own `Pc`, mirroring how a compiled binary has one instruction address
/// per memory operation in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pc(u64);

impl Pc {
    /// The raw pseudo-PC address.
    #[inline]
    pub fn addr(self) -> u64 {
        self.0
    }
}

/// Types that may be stored in a [`TracedVec`].
///
/// The trait is sealed to scalar types whose size (1..=8 bytes) matches a
/// single architectural memory operand.
pub trait TraceScalar: Copy + private::Sealed {}

mod private {
    pub trait Sealed {}
}

macro_rules! impl_trace_scalar {
    ($($t:ty),*) => {$(
        impl private::Sealed for $t {}
        impl TraceScalar for $t {}
    )*};
}

impl_trace_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Virtual-address-space allocator plus trace recorder for instrumented
/// execution.
///
/// See the [crate-level docs](crate) for an end-to-end arena example.
#[derive(Debug)]
pub struct TraceArena {
    buf: RefCell<TraceBuffer>,
    next_base: Cell<u64>,
    next_pc: Cell<u64>,
}

impl TraceArena {
    /// Creates an arena recording a workload called `name` in memory.
    pub fn new(name: impl Into<String>) -> Self {
        TraceArena::with_buffer(TraceBuffer::new(name))
    }

    /// Creates an arena recording into `buf` — in memory or to a stream,
    /// whichever `buf` does. [`TraceArena::into_buffer`] hands it back.
    pub fn with_buffer(buf: TraceBuffer) -> Self {
        TraceArena {
            buf: RefCell::new(buf),
            next_base: Cell::new(DATA_BASE),
            next_pc: Cell::new(CODE_BASE),
        }
    }

    /// Allocates a fresh code site. Sites are 4 bytes apart, mimicking
    /// x86-64 instruction spacing.
    pub fn code_site(&self) -> Pc {
        let pc = self.next_pc.get();
        self.next_pc.set(pc + 4);
        Pc(pc)
    }

    /// Allocates `n` consecutive code sites (convenience for kernels that
    /// declare all their sites up front).
    pub fn code_sites<const N: usize>(&self) -> [Pc; N] {
        std::array::from_fn(|_| self.code_site())
    }

    /// Accounts `n` non-memory instructions (arithmetic, branches, address
    /// generation) at the current point of execution.
    #[inline]
    pub fn work(&self, n: u64) {
        self.buf.borrow_mut().nonmem(n);
    }

    /// Moves `init` into the arena's address space, returning a traced view.
    ///
    /// The region is page-aligned and followed by a guard gap so distinct
    /// structures never share a cache block.
    pub fn vec_of<T: TraceScalar>(&self, init: Vec<T>) -> TracedVec<'_, T> {
        let elem = std::mem::size_of::<T>() as u64;
        let base = self.next_base.get();
        let bytes = (init.len() as u64 * elem).max(1);
        let padded = bytes.div_ceil(REGION_ALIGN) * REGION_ALIGN + REGION_ALIGN;
        self.next_base.set(base + padded);
        TracedVec { arena: self, base, data: init }
    }

    /// Allocates a zero-filled traced vector of `len` elements.
    pub fn zeroed<T: TraceScalar + Default>(&self, len: usize) -> TracedVec<'_, T> {
        self.vec_of(vec![T::default(); len])
    }

    /// Records a raw load outside any [`TracedVec`] (used for auxiliary
    /// structures such as visit stacks modelled at address granularity).
    #[inline]
    pub fn raw_load(&self, pc: Pc, vaddr: u64, size: u8) {
        self.buf.borrow_mut().load(pc.0, vaddr, size);
    }

    /// Records a raw store outside any [`TracedVec`].
    #[inline]
    pub fn raw_store(&self, pc: Pc, vaddr: u64, size: u8) {
        self.buf.borrow_mut().store(pc.0, vaddr, size);
    }

    /// Number of memory records captured so far.
    pub fn recorded(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Total instructions (memory + non-memory) captured so far.
    pub fn instructions(&self) -> u64 {
        self.buf.borrow().instructions()
    }

    /// Finalizes the arena into an immutable [`Trace`].
    ///
    /// All [`TracedVec`]s borrow the arena, so the borrow checker guarantees
    /// they have been dropped (or their data extracted via
    /// [`TracedVec::into_inner`]) before `finish` can be called.
    pub fn finish(self) -> Trace {
        self.into_buffer().finish()
    }

    /// Returns the buffer the arena recorded into, to finish or to
    /// record more into. The same borrow rule as
    /// [`TraceArena::finish`] applies.
    pub fn into_buffer(self) -> TraceBuffer {
        self.buf.into_inner()
    }
}

/// A vector living in a [`TraceArena`]'s address space whose element
/// accesses are recorded as loads and stores.
#[derive(Debug)]
pub struct TracedVec<'a, T> {
    arena: &'a TraceArena,
    base: u64,
    data: Vec<T>,
}

impl<'a, T: TraceScalar> TracedVec<'a, T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Base virtual address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Virtual address of element `i` (no bounds check, no trace emission).
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// Reads element `i`, recording a load at code site `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, pc: Pc, i: usize) -> T {
        let v = self.data[i];
        self.arena.raw_load(pc, self.addr_of(i), std::mem::size_of::<T>() as u8);
        v
    }

    /// Writes element `i`, recording a store at code site `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, pc: Pc, i: usize, v: T) {
        self.data[i] = v;
        self.arena.raw_store(pc, self.addr_of(i), std::mem::size_of::<T>() as u8);
    }

    /// Read-modify-write of element `i`: records a load at `pc_load` and a
    /// store at `pc_store`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn update(&mut self, pc_load: Pc, pc_store: Pc, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.get(pc_load, i);
        self.set(pc_store, i, f(v));
    }

    /// Untraced view of the underlying data (for result verification).
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Untraced mutable view (initialization that should not be traced).
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the view, returning the underlying data untraced.
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    #[test]
    fn regions_are_disjoint_and_page_aligned() {
        let arena = TraceArena::new("t");
        let a = arena.vec_of(vec![0u64; 100]);
        let b = arena.vec_of(vec![0u32; 7]);
        assert_eq!(a.base() % REGION_ALIGN, 0);
        assert_eq!(b.base() % REGION_ALIGN, 0);
        let a_end = a.addr_of(99) + 8;
        assert!(b.base() >= a_end + REGION_ALIGN, "guard gap missing");
    }

    #[test]
    fn get_set_record_correct_addresses_and_kinds() {
        let arena = TraceArena::new("t");
        let s_load = arena.code_site();
        let s_store = arena.code_site();
        let mut v = arena.vec_of(vec![1u32, 2, 3]);
        assert_eq!(v.get(s_load, 2), 3);
        v.set(s_store, 0, 9);
        assert_eq!(v.raw(), &[9, 2, 3]);
        let base = v.base();
        drop(v);
        let t = arena.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].vaddr, base + 8);
        assert_eq!(t.records()[0].kind, AccessKind::Load);
        assert_eq!(t.records()[0].size, 4);
        assert_eq!(t.records()[1].vaddr, base);
        assert_eq!(t.records()[1].kind, AccessKind::Store);
    }

    #[test]
    fn update_records_load_then_store() {
        let arena = TraceArena::new("t");
        let [lp, sp] = arena.code_sites::<2>();
        let mut v = arena.vec_of(vec![10i64]);
        v.update(lp, sp, 0, |x| x + 5);
        assert_eq!(v.raw()[0], 15);
        drop(v);
        let t = arena.finish();
        assert_eq!(t.records()[0].pc, lp.addr());
        assert_eq!(t.records()[1].pc, sp.addr());
    }

    #[test]
    fn code_sites_are_distinct() {
        let arena = TraceArena::new("t");
        let sites = arena.code_sites::<8>();
        for (i, a) in sites.iter().enumerate() {
            for b in sites.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn work_accumulates_nonmem_instructions() {
        let arena = TraceArena::new("t");
        let s = arena.code_site();
        let v = arena.vec_of(vec![0u8; 4]);
        arena.work(10);
        v.get(s, 0);
        drop(v);
        let t = arena.finish();
        assert_eq!(t.records()[0].nonmem_before, 10);
        assert_eq!(t.instructions(), 11);
    }

    #[test]
    fn raw_access_is_untraced() {
        let arena = TraceArena::new("t");
        let mut v = arena.vec_of(vec![0u16; 3]);
        v.raw_mut()[1] = 7;
        assert_eq!(v.raw()[1], 7);
        assert_eq!(v.into_inner(), vec![0, 7, 0]);
        assert_eq!(arena.finish().len(), 0);
    }

    #[test]
    fn empty_vec_still_gets_a_region() {
        let arena = TraceArena::new("t");
        let a = arena.vec_of(Vec::<u64>::new());
        let b = arena.vec_of(vec![0u64; 1]);
        assert!(a.is_empty());
        assert_ne!(a.base(), b.base());
    }
}
