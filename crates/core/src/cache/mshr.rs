//! Miss-status holding registers: bounded outstanding-miss tracking, with
//! same-block merging at the LLC.
//!
//! [`MshrSlots`] is the bandwidth half every level has: when each register
//! frees. [`MshrBank`] adds the outstanding-miss map that only the LLC
//! keeps — L1D and L2 merge nothing (a tag hit on a line whose fill has not
//! landed waits on that slot's `ready_at` in the hierarchy instead), so the
//! map, its hasher and its pruning serve one level.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for block addresses. The outstanding-miss map —
/// the LLC's alone — is consulted on every LLC lookup and updated on every
/// LLC miss; SipHash (the `HashMap` default) was a measurable fraction of
/// the per-record cost on miss-heavy traces. Block addresses are already
/// high-entropy in the low bits, so a Fibonacci multiply followed by a
/// down-mix is collision-adequate and compiles to a few cycles. Not
/// DoS-resistant — fine for simulator-internal keys.
#[derive(Debug, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by MshrBank).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type BlockMap = HashMap<u64, u64, BuildHasherDefault<BlockHasher>>;

/// Minimum reserved capacity for a bank's outstanding-miss map. The live
/// window scales with the core's ROB depth, not the bank size (an LLC
/// bank of a few dozen registers can have hundreds of
/// completed-but-unretired misses in flight), so small banks still
/// reserve room for a deep window.
const RESERVE_FLOOR: usize = 1024;

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

/// The LLC's bank of MSHRs: [`MshrSlots`] plus the outstanding-miss map,
/// through which misses to an already-outstanding block merge.
#[derive(Debug)]
pub struct MshrBank {
    slots: MshrSlots,
    outstanding: BlockMap,
    /// Map length that triggers the next stale-entry prune. Doubles past
    /// the surviving length after each prune (floored at 4x the bank) so
    /// pruning costs amortized O(1) per miss even when the retirement
    /// frontier lags far behind the fill frontier and most entries are
    /// still live — a fixed threshold made every acquire rescan the map
    /// on ROB-deep miss streams. Capped at [`MshrBank::prune_cap`] so the
    /// map's length can never cross the half-capacity line where a
    /// tombstone-triggered rehash would reallocate instead of rehashing
    /// in place: steady-state misses stay allocation-free.
    prune_at: usize,
}

impl MshrBank {
    /// Capacity the outstanding-miss map reserves on its first insert:
    /// well past the prune band. hashbrown reallocates (rather than
    /// rehashing tombstones in place) once length exceeds half the table,
    /// so keeping `prune_at` <= reserve/2 pins the table's allocation for
    /// the bank's lifetime under any bounded-lag workload.
    fn reserve(&self) -> usize {
        RESERVE_FLOOR.max(16 * self.slots.len())
    }

    /// Upper bound for `prune_at`: half the reserved capacity, so inserts
    /// only ever rehash in place (see [`MshrBank::reserve`]).
    fn prune_cap(&self) -> usize {
        self.reserve() / 2
    }

    /// Creates a bank of `count` registers. The outstanding-miss map
    /// allocates on its first insert, not here: a bank whose level merges
    /// nothing (the hierarchy's L1D and L2 time misses with
    /// [`MshrSlots`] alone) never pays for it.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: u32) -> Self {
        let slots = MshrSlots::new(count);
        MshrBank { slots, outstanding: BlockMap::default(), prune_at: 4 * count as usize }
    }

    /// Requests a register for a miss to `block` observed at cycle `ready`.
    pub fn acquire(&mut self, block: u64, ready: u64) -> MshrGrant {
        if let Some(&completes) = self.outstanding.get(&block) {
            if completes > ready {
                return MshrGrant::Merged { completes_at: completes };
            }
            // Stale entry: the miss already completed.
            self.outstanding.remove(&block);
        }
        // Opportunistic pruning keeps the map proportional to the live
        // miss window. Dropping a stale entry (completes <= ready) never
        // changes behaviour — a lookup would discard it anyway — so the
        // schedule is free to amortize: prune only once the map doubles
        // past the last prune's survivors.
        if self.outstanding.len() > self.prune_at {
            self.outstanding.retain(|_, &mut c| c > ready);
            self.prune_at =
                (2 * self.outstanding.len()).clamp(4 * self.slots.len(), self.prune_cap());
        }
        let (slot, start_at) = self.slots.issue(ready);
        MshrGrant::Issue { slot, start_at }
    }

    /// Records that the miss in `slot` for `block` completes at
    /// `completes_at`, freeing the register at that time.
    pub fn complete(&mut self, slot: u32, block: u64, completes_at: u64) {
        self.slots.complete(slot, completes_at);
        if self.outstanding.capacity() == 0 {
            self.outstanding.reserve(self.reserve());
        }
        self.outstanding.insert(block, completes_at);
    }

    /// Completion time of an outstanding (or recently completed) miss to
    /// `block`, if one was recorded. Used by the hit path: a tag hit on a
    /// block whose fill is still in flight cannot return data before the
    /// fill arrives.
    pub fn pending(&self, block: u64) -> Option<u64> {
        self.outstanding.get(&block).copied()
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
    fn the_outstanding_map_is_reserved_on_its_first_insert() {
        let mut b = MshrBank::new(8);
        assert_eq!(b.outstanding.capacity(), 0, "a new bank allocates no map");
        let MshrGrant::Issue { slot, .. } = b.acquire(0xA, 0) else { panic!() };
        assert_eq!((b.pending(0xA), b.outstanding.capacity()), (None, 0));
        b.complete(slot, 0xA, 100);
        assert!(b.outstanding.capacity() >= RESERVE_FLOOR, "{}", b.outstanding.capacity());
        assert_eq!(b.pending(0xA), Some(100));
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_mshrs_rejected() {
        let _ = MshrBank::new(0);
    }
}
