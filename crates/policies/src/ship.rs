//! SHiP-PC: Signature-based Hit Predictor
//! (Wu et al., MICRO 2011).
//!
//! Each filled line remembers a 14-bit *signature* (hashed PC) and an
//! *outcome* bit. A Signature History Counter Table (SHCT) of saturating
//! counters learns, per signature, whether lines it inserts are re-used:
//! re-references increment the signature's counter, evictions of never-hit
//! lines decrement it. Fills whose signature has a zero counter are
//! predicted dead and inserted at the distant RRPV; everything else inserts
//! at the long RRPV (SRRIP behaviour).

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::rrip::{RrpvTable, RRPV_BITS, RRPV_LONG, RRPV_MAX};
use crate::util::{hash_bits, SatCounter};

/// Signature width: 14 bits -> 16 K SHCT entries, per the paper.
const SIGNATURE_BITS: u32 = 14;
/// SHCT counter width (2-bit saturating counters, per the paper).
const SHCT_BITS: u32 = 2;

/// Per-line SHiP metadata.
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    signature: u16,
    outcome: bool,
    valid: bool,
}

/// SHiP-PC over an SRRIP backend.
#[derive(Debug)]
pub struct Ship {
    table: RrpvTable,
    ways: u32,
    meta: Vec<LineMeta>,
    shct: Vec<SatCounter>,
    predicted_dead: u64,
    predicted_live: u64,
}

impl Ship {
    /// Creates SHiP state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Ship {
            table: RrpvTable::new(sets, ways, RRPV_BITS),
            ways,
            meta: vec![LineMeta::default(); (sets * ways) as usize],
            // Initialize counters to 1 (weakly live) so cold signatures are
            // not immediately treated as dead.
            shct: vec![SatCounter::new(SHCT_BITS, 1); 1 << SIGNATURE_BITS],
            predicted_dead: 0,
            predicted_live: 0,
        }
    }

    #[inline]
    fn signature(pc: u64) -> u16 {
        hash_bits(pc, SIGNATURE_BITS) as u16
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }
}

impl ReplacementPolicy for Ship {
    fn name(&self) -> &'static str {
        "ship"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        Victim::Way(self.table.find_victim(set))
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo) {
        if !info.kind.is_demand() {
            return;
        }
        self.table.set(set, way, 0);
        let i = self.idx(set, way);
        if self.meta[i].valid && !self.meta[i].outcome {
            self.meta[i].outcome = true;
            self.shct[self.meta[i].signature as usize].inc();
        }
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        let i = self.idx(set, way);
        // Train on the displaced line: never re-used => its signature
        // produced a dead block.
        if self.meta[i].valid && !self.meta[i].outcome {
            self.shct[self.meta[i].signature as usize].dec();
        }
        if info.kind.is_demand() {
            let sig = Self::signature(info.pc);
            let predicted_dead = self.shct[sig as usize].get() == 0;
            let insertion = if predicted_dead {
                self.predicted_dead += 1;
                RRPV_MAX
            } else {
                self.predicted_live += 1;
                RRPV_LONG
            };
            self.table.set(set, way, insertion);
            self.meta[i] = LineMeta { signature: sig, outcome: false, valid: true };
        } else {
            // Writebacks carry no signature; insert distant, untracked.
            self.table.set(set, way, RRPV_MAX);
            self.meta[i] = LineMeta::default();
        }
    }

    fn diag(&self) -> String {
        format!("fills predicted dead={} live={}", self.predicted_dead, self.predicted_live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;

    fn load(pc: u64, set: u32) -> AccessInfo {
        AccessInfo { pc, block: 0x10, set, kind: AccessType::Load }
    }

    fn wb(set: u32) -> AccessInfo {
        AccessInfo { pc: 0, block: 0x10, set, kind: AccessType::Writeback }
    }

    /// Drives fills at `pc` in way 0 with no intervening hit so the
    /// signature is repeatedly detrained.
    fn detrain(p: &mut Ship, pc: u64, times: usize) {
        for _ in 0..times {
            p.on_fill(0, 0, &load(pc, 0), None);
        }
    }

    #[test]
    fn streaming_signature_becomes_dead_and_inserts_distant() {
        let mut p = Ship::new(4, 4);
        let pc = 0xBEEF;
        detrain(&mut p, pc, 4); // counter 1 -> 0 after first untouched refill
        p.on_fill(0, 1, &load(pc, 0), None);
        assert_eq!(p.table.get(0, 1), RRPV_MAX, "dead signature must insert distant");
    }

    #[test]
    fn rereferenced_signature_stays_live() {
        let mut p = Ship::new(4, 4);
        let pc = 0xCAFE;
        for _ in 0..8 {
            p.on_fill(0, 2, &load(pc, 0), None);
            p.on_hit(0, 2, &load(pc, 0)); // always re-used: trains live
        }
        p.on_fill(0, 3, &load(pc, 0), None);
        assert_eq!(p.table.get(0, 3), RRPV_LONG);
    }

    #[test]
    fn outcome_trains_shct_once_per_line() {
        let mut p = Ship::new(4, 4);
        let pc = 0x1234;
        let sig = Ship::signature(pc) as usize;
        p.on_fill(0, 0, &load(pc, 0), None);
        let before = p.shct[sig].get();
        p.on_hit(0, 0, &load(pc, 0));
        p.on_hit(0, 0, &load(pc, 0));
        p.on_hit(0, 0, &load(pc, 0));
        assert_eq!(p.shct[sig].get(), before + 1, "only first hit increments");
    }

    #[test]
    fn writeback_fills_are_untracked_and_distant() {
        let mut p = Ship::new(4, 4);
        p.on_fill(1, 0, &wb(1), None);
        assert_eq!(p.table.get(1, 0), RRPV_MAX);
        assert!(!p.meta[p.idx(1, 0)].valid);
    }

    #[test]
    fn writeback_hit_does_not_promote_or_train() {
        let mut p = Ship::new(4, 4);
        let pc = 0x77;
        p.on_fill(0, 0, &load(pc, 0), None);
        let sig = Ship::signature(pc) as usize;
        let before = p.shct[sig].get();
        p.on_hit(0, 0, &wb(0));
        assert_eq!(p.table.get(0, 0), RRPV_LONG);
        assert_eq!(p.shct[sig].get(), before);
    }
}
