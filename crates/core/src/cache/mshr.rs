//! Miss-status holding registers: bounded outstanding-miss tracking, with
//! same-block merging at the LLC.
//!
//! [`MshrSlots`] is the bandwidth half every level has: when each register
//! frees. [`MshrBank`] adds the block each register holds, which only the
//! LLC keeps — L1D and L2 merge nothing (a tag hit on a line whose fill has
//! not landed waits on that slot's `ready_at` in the hierarchy instead). A
//! register forgets its block once another miss takes it.
//!
//! The LLC asks the bank for a block on every lookup, and the block is
//! almost never in flight, so the bank keeps a filter in front of the
//! register scan: per hash bucket, how many registers hold a block of that
//! bucket. An empty bucket answers "none" without the scan.

use super::TAG_INVALID;
use crate::config::MAX_MSHRS;

/// Outcome of requesting an MSHR for a missing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrGrant {
    /// A new miss may issue; the slot index must be passed to
    /// [`MshrBank::complete`], and `start_at` is when the miss can leave
    /// (delayed past `ready` if all MSHRs were busy).
    Issue {
        /// Slot to fill in later.
        slot: u32,
        /// Earliest cycle the miss can be sent downstream.
        start_at: u64,
    },
    /// An outstanding miss to the same block absorbs this one; it completes
    /// when that miss fills.
    Merged {
        /// Completion cycle of the outstanding miss.
        completes_at: u64,
    },
}

/// The registers of a bank: each remembers when it frees, and a full bank
/// delays new misses until the earliest one frees (modelling
/// miss-bandwidth limits).
#[derive(Debug, Clone)]
pub struct MshrSlots {
    free_at: Vec<u64>,
}

impl MshrSlots {
    /// `count` registers, all free.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: u32) -> Self {
        assert!(count > 0, "mshr bank must have at least one register");
        MshrSlots { free_at: vec![0; count as usize] }
    }

    /// The register a miss observed at cycle `ready` takes, and the cycle
    /// it can leave.
    #[inline]
    pub fn issue(&self, ready: u64) -> (u32, u64) {
        // Any already-free slot is as good as the earliest-freeing one
        // (`start_at` is `ready` either way), so stop at the first — the
        // common case in steady state; the full min-scan only runs while
        // the bank is saturated.
        let mut slot = 0usize;
        let mut free = self.free_at[0];
        if free > ready {
            for (i, &f) in self.free_at.iter().enumerate().skip(1) {
                if f <= ready {
                    (slot, free) = (i, f);
                    break;
                }
                if f < free {
                    (slot, free) = (i, f);
                }
            }
        }
        (slot as u32, ready.max(free))
    }

    /// Marks `slot` busy until `completes_at`.
    #[inline]
    pub fn complete(&mut self, slot: u32, completes_at: u64) {
        self.free_at[slot as usize] = completes_at;
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Always false: the constructor requires at least one register.
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }
}

/// Buckets of [`MshrBank`]'s in-flight filter: a power of two, several
/// times the registers of a modelled bank, so most buckets are empty.
const FILTER_BUCKETS: usize = 512;

/// The filter bucket of `block` (a Fibonacci hash: strided blocks spread).
#[inline]
fn bucket(block: u64) -> usize {
    (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_BUCKETS.trailing_zeros())) as usize
}

/// The LLC's bank of MSHRs: [`MshrSlots`] plus the block each register
/// holds, through which misses to an already-outstanding block merge.
#[derive(Debug)]
pub struct MshrBank {
    slots: MshrSlots,
    /// The block of each register's last miss, or [`TAG_INVALID`].
    blocks: Vec<u64>,
    /// Per [`bucket`], how many registers hold a block of it. A bank has
    /// at most [`MAX_MSHRS`] registers, so a count fits a byte.
    holders: Box<[u8; FILTER_BUCKETS]>,
}

impl MshrBank {
    /// Creates a bank of `count` registers, all free and holding no block.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or above [`MAX_MSHRS`].
    pub fn new(count: u32) -> Self {
        assert!(count <= MAX_MSHRS, "an mshr bank holds at most {MAX_MSHRS} registers");
        MshrBank {
            slots: MshrSlots::new(count),
            blocks: vec![TAG_INVALID; count as usize],
            holders: Box::new([0; FILTER_BUCKETS]),
        }
    }

    /// The register holding `block`, if any: none without a scan when no
    /// register holds a block of its bucket.
    #[inline]
    fn holding(&self, block: u64) -> Option<usize> {
        if self.holders[bucket(block)] == 0 {
            return None;
        }
        self.blocks.iter().position(|&b| b == block)
    }

    /// Points register `i` at `block` (or [`TAG_INVALID`]), keeping the
    /// filter's counts.
    fn hold(&mut self, i: usize, block: u64) {
        let old = std::mem::replace(&mut self.blocks[i], block);
        if old != TAG_INVALID {
            self.holders[bucket(old)] -= 1;
        }
        if block != TAG_INVALID {
            self.holders[bucket(block)] += 1;
        }
    }

    /// Whether the filter's count for every bucket equals a recount of the
    /// registers' blocks: a consistency check for tests.
    pub fn filter_is_exact(&self) -> bool {
        let mut recount = [0u8; FILTER_BUCKETS];
        for &block in self.blocks.iter().filter(|&&b| b != TAG_INVALID) {
            recount[bucket(block)] += 1;
        }
        *self.holders == recount
    }

    /// Requests a register for a miss to `block` observed at cycle `ready`:
    /// the register holding `block` merges it if it frees after `ready`.
    pub fn acquire(&mut self, block: u64, ready: u64) -> MshrGrant {
        if let Some(i) = self.holding(block) {
            let completes_at = self.slots.free_at[i];
            if completes_at > ready {
                return MshrGrant::Merged { completes_at };
            }
            // The miss already completed: clearing its register keeps each
            // block in at most one register.
            self.hold(i, TAG_INVALID);
        }
        let (slot, start_at) = self.slots.issue(ready);
        MshrGrant::Issue { slot, start_at }
    }

    /// Records that the miss in `slot` for `block` completes at
    /// `completes_at`, freeing the register at that time.
    pub fn complete(&mut self, slot: u32, block: u64, completes_at: u64) {
        self.slots.complete(slot, completes_at);
        self.hold(slot as usize, block);
    }

    /// Completion time of the miss to `block` that a register still
    /// holds, if any. Used by the hit path: a tag hit on a block whose
    /// fill is still in flight cannot return data before the fill arrives.
    pub fn pending(&self, block: u64) -> Option<u64> {
        self.holding(block).map(|i| self.slots.free_at[i])
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false: constructor requires at least one register.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_issues_immediately() {
        let mut b = MshrBank::new(2);
        match b.acquire(0xA, 100) {
            MshrGrant::Issue { start_at, .. } => assert_eq!(start_at, 100),
            g => panic!("expected issue, got {g:?}"),
        }
    }

    #[test]
    fn same_block_merges_while_outstanding() {
        let mut b = MshrBank::new(2);
        let MshrGrant::Issue { slot, .. } = b.acquire(0xA, 10) else { panic!() };
        b.complete(slot, 0xA, 500);
        assert_eq!(b.acquire(0xA, 20), MshrGrant::Merged { completes_at: 500 });
        // After completion time, no merge.
        match b.acquire(0xA, 600) {
            MshrGrant::Issue { .. } => {}
            g => panic!("expected fresh issue, got {g:?}"),
        }
    }

    #[test]
    fn full_bank_delays_new_misses() {
        let mut b = MshrBank::new(1);
        let MshrGrant::Issue { slot, start_at } = b.acquire(0xA, 0) else { panic!() };
        assert_eq!(start_at, 0);
        b.complete(slot, 0xA, 300);
        match b.acquire(0xB, 10) {
            MshrGrant::Issue { start_at, .. } => {
                assert_eq!(start_at, 300, "must wait for the busy mshr");
            }
            g => panic!("expected delayed issue, got {g:?}"),
        }
    }

    #[test]
    fn distinct_blocks_use_distinct_slots() {
        let mut b = MshrBank::new(2);
        let MshrGrant::Issue { slot: s0, .. } = b.acquire(0xA, 0) else { panic!() };
        b.complete(s0, 0xA, 1000);
        let MshrGrant::Issue { slot: s1, start_at } = b.acquire(0xB, 5) else { panic!() };
        assert_ne!(s0, s1);
        assert_eq!(start_at, 5, "second mshr is free");
        b.complete(s1, 0xB, 900);
    }

    #[test]
    fn a_reassigned_register_forgets_its_block() {
        let mut b = MshrBank::new(1);
        let MshrGrant::Issue { slot, .. } = b.acquire(0xA, 0) else { panic!() };
        b.complete(slot, 0xA, 100);
        assert_eq!(b.acquire(0xB, 50), MshrGrant::Issue { slot, start_at: 100 });
        b.complete(slot, 0xB, 300);
        assert_eq!(b.acquire(0xA, 60), MshrGrant::Issue { slot, start_at: 300 });
        assert_eq!(b.pending(0xA), None);
    }

    #[test]
    fn a_freed_holder_leaves_the_filter() {
        let mut b = MshrBank::new(2);
        let MshrGrant::Issue { slot, .. } = b.acquire(0xA, 0) else { panic!() };
        b.complete(slot, 0xA, 100);
        assert!(b.filter_is_exact() && b.holders.iter().map(|&n| u32::from(n)).sum::<u32>() == 1);
        // A miss after the fill landed clears the holder.
        assert!(matches!(b.acquire(0xA, 200), MshrGrant::Issue { .. }));
        assert!(b.filter_is_exact() && b.holders.iter().all(|&n| n == 0));
        assert_eq!(b.pending(0xA), None);
    }

    #[test]
    #[should_panic(expected = "at most 255 registers")]
    fn oversized_bank_rejected() {
        let _ = MshrBank::new(MAX_MSHRS + 1);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_mshrs_rejected() {
        let _ = MshrBank::new(0);
    }
}
