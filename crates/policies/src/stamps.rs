//! Recency stamps: the backend of LRU (the paper's baseline), FIFO and
//! DIP (Qureshi et al., ISCA 2007).
//!
//! Every line carries a stamp from the policy's monotone clock; the
//! victim is the minimum stamp in the set, lowest way on ties. The three
//! policies differ only in when they stamp: LRU on hit and on fill, FIFO
//! on fill only, DIP on hit and — when set dueling picks BIP — at fill
//! time *below* the set's minimum instead of at MRU.

use crate::duel::{bimodal_cold, SetDuel};
use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::util::SplitMix64;

/// The stamp store: one `u64` per line and the clock that issues them.
#[derive(Debug)]
struct Stamps {
    ways: u32,
    clock: u64,
    stamps: Vec<u64>,
}

impl Stamps {
    /// A store whose first issued stamp is `origin + 1`.
    fn new(sets: u32, ways: u32, origin: u64) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Stamps { ways, clock: origin, stamps: vec![0; (sets * ways) as usize] }
    }

    #[inline]
    fn of_set(&self, set: u32) -> &[u64] {
        let base = (set * self.ways) as usize;
        &self.stamps[base..base + self.ways as usize]
    }

    /// Stamps `set`/`way` most recent.
    #[inline]
    fn touch(&mut self, set: u32, way: u32) {
        self.clock += 1;
        self.stamps[(set * self.ways + way) as usize] = self.clock;
    }

    /// BIP's LRU insertion: one below the set's minimum (saturating at
    /// 0), so the next miss evicts this line unless it hits first.
    fn insert_below_min(&mut self, set: u32, way: u32) {
        let min = self.of_set(set).iter().copied().min().expect("ways > 0");
        self.stamps[(set * self.ways + way) as usize] = min.saturating_sub(1);
    }

    #[inline]
    fn victim(&self, set: u32) -> Victim {
        let (way, _) =
            self.of_set(set).iter().enumerate().min_by_key(|&(_, &s)| s).expect("ways > 0");
        Victim::Way(way as u32)
    }
}

/// True LRU: hits and fills stamp the line most recent. Writeback hits
/// refresh recency like demand hits, matching ChampSim's base LRU.
#[derive(Debug)]
pub struct Lru(Stamps);

impl Lru {
    /// Creates LRU state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Lru(Stamps::new(sets, ways, 0))
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        self.0.victim(set)
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, _info: &AccessInfo) {
        self.0.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, _info: &AccessInfo, _evicted: Option<u64>) {
        self.0.touch(set, way);
    }
}

/// First in, first out: only fills stamp, so the victim is the oldest
/// fill — a contrast policy showing how much of LRU is hit promotion.
#[derive(Debug)]
pub struct Fifo(Stamps);

impl Fifo {
    /// Creates FIFO state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Fifo(Stamps::new(sets, ways, 0))
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        self.0.victim(set)
    }

    #[inline]
    fn on_hit(&mut self, _set: u32, _way: u32, _info: &AccessInfo) {}

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, _info: &AccessInfo, _evicted: Option<u64>) {
        self.0.touch(set, way);
    }
}

/// Dynamic Insertion Policy: set dueling between LRU insertion and BIP
/// (insert at LRU except for a 1/32 trickle at MRU), which protects
/// against thrashing working sets. The precursor of DRRIP, kept for
/// ablations although the paper does not evaluate it.
#[derive(Debug)]
pub struct Dip {
    stamps: Stamps,
    duel: SetDuel,
    rng: SplitMix64,
}

impl Dip {
    /// Creates DIP state for a `sets x ways` cache.
    pub fn new(sets: u32, ways: u32) -> Self {
        Dip {
            stamps: Stamps::new(sets, ways, 1),
            duel: SetDuel::new(),
            rng: SplitMix64::new(0xD1B2),
        }
    }
}

impl ReplacementPolicy for Dip {
    fn name(&self) -> &'static str {
        "dip"
    }

    #[inline]
    fn victim(&mut self, set: u32, _info: &AccessInfo) -> Victim {
        self.stamps.victim(set)
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, _info: &AccessInfo) {
        self.stamps.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, _evicted: Option<u64>) {
        // The RNG is drawn only when BIP applies.
        if self.duel.fill(set, info.kind.is_demand()) && bimodal_cold(&mut self.rng) {
            self.stamps.insert_below_min(set, way);
        } else {
            self.stamps.touch(set, way);
        }
    }

    fn diag(&self) -> String {
        self.duel.diag(["lru", "bip"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;
    use crate::{PolicyDispatch, PolicyKind};

    fn load(set: u32) -> AccessInfo {
        AccessInfo { pc: 0x400, block: 0xAB, set, kind: AccessType::Load }
    }

    #[test]
    #[should_panic(expected = "cache geometry must be non-zero")]
    fn zero_ways_rejected() {
        let _ = Lru::new(4, 0);
    }

    /// What one conformance row does to a set before it reads the
    /// victim order.
    #[derive(Clone, Copy)]
    enum Op {
        Fill(u32),
        Hit(u32),
    }

    /// Applies `ops` to `set`, then evicts `ways` times (each victim is
    /// refilled) and returns the order.
    fn victim_order(p: &mut PolicyDispatch, set: u32, ways: u32, ops: &[Op]) -> Vec<u32> {
        for &op in ops {
            match op {
                Op::Fill(w) => p.on_fill(set, w, &load(set), None),
                Op::Hit(w) => p.on_hit(set, w, &load(set)),
            }
        }
        (0..ways)
            .map(|_| {
                let Victim::Way(w) = p.victim(set, &load(set)) else { panic!("no bypass") };
                p.on_fill(set, w, &load(set), Some(0));
                w
            })
            .collect()
    }

    /// Conformance rows of the stamp store, run against every policy
    /// that uses it: the victim order after each row's operations. Each
    /// policy serves all its rows, one set per row, so the rows also show
    /// that sets are independent. DIP rows run in follower sets (LRU
    /// insertion while PSEL is 0) and in BIP leader sets 33 and 97.
    #[test]
    fn stamp_victim_order_rows_hold_for_lru_fifo_and_dip() {
        use Op::{Fill, Hit};
        let fill4 = [Fill(0), Fill(1), Fill(2), Fill(3)];
        let fill4_hit2 = [Fill(0), Fill(1), Fill(2), Fill(3), Hit(2)];
        let scrambled = [Fill(2), Fill(0), Fill(3), Fill(1), Hit(0), Hit(2)];
        let fill4_hit_down = [Fill(0), Fill(1), Fill(2), Fill(3), Hit(3), Hit(2), Hit(1), Hit(0)];
        let rows: [(PolicyKind, u32, &[Op], [u32; 4]); 10] = [
            // Never-stamped ways tie at 0: lowest way first.
            (PolicyKind::Lru, 1, &[], [0, 1, 2, 3]),
            (PolicyKind::Lru, 2, &fill4_hit2, [0, 1, 3, 2]),
            (PolicyKind::Lru, 3, &scrambled, [3, 1, 0, 2]),
            (PolicyKind::Fifo, 1, &[], [0, 1, 2, 3]),
            (PolicyKind::Fifo, 2, &fill4_hit2, [0, 1, 2, 3]),
            (PolicyKind::Fifo, 3, &scrambled, [2, 0, 3, 1]),
            (PolicyKind::Dip, 1, &fill4_hit2, [0, 1, 3, 2]),
            (PolicyKind::Dip, 2, &scrambled, [3, 1, 0, 2]),
            // BIP: each refill lands below the minimum and is the next
            // victim again — the thrash protection.
            (PolicyKind::Dip, 33, &fill4, [0, 0, 0, 0]),
            (PolicyKind::Dip, 97, &fill4_hit_down, [3, 3, 3, 3]),
        ];
        let mut policies = [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Dip]
            .map(|kind| (kind, kind.build_dispatch(128, 4)));
        for (kind, set, ops, order) in rows {
            let (_, p) = policies.iter_mut().find(|(k, _)| *k == kind).unwrap();
            assert_eq!(victim_order(p, set, 4, ops), order, "{kind} set {set}");
        }
    }

    #[test]
    fn dip_draws_its_rng_only_when_bip_applies() {
        // LRU leader 0, follower 1 and BIP leader 33 interleaved (PSEL
        // stays below 2): only set-33 fills draw, so a twin RNG drawn
        // there alone predicts which fills land below the minimum and
        // are the next victim.
        let mut p = Dip::new(64, 2);
        let mut twin = SplitMix64::new(0xD1B2);
        let mut trickles = 0;
        for _ in 0..200 {
            for set in [0, 1, 33] {
                p.on_hit(set, 0, &load(set));
                p.on_fill(set, 1, &load(set), None);
                let cold = set == 33 && bimodal_cold(&mut twin);
                trickles += u32::from(set == 33 && !cold);
                assert_eq!(p.victim(set, &load(set)), Victim::Way(u32::from(cold)), "set {set}");
            }
        }
        assert!(trickles > 0, "the 1/32 trickle never fired");
        assert_eq!(p.diag(), "psel=0 (lru)");
        // Once BIP wins, followers draw too.
        for _ in 0..512 {
            p.on_fill(0, 0, &load(0), None);
        }
        for _ in 0..100 {
            for set in [1, 2] {
                p.on_hit(set, 0, &load(set));
                p.on_fill(set, 1, &load(set), None);
                let cold = bimodal_cold(&mut twin);
                assert_eq!(p.victim(set, &load(set)), Victim::Way(u32::from(cold)), "set {set}");
            }
        }
        assert_eq!(p.diag(), "psel=512 (bip)");
    }

    #[test]
    fn stamp_origins_are_per_policy() {
        // DIP's clock starts at 1, LRU's and FIFO's at 0; BIP's
        // below-minimum arithmetic saturates at 0.
        assert_eq!((Lru::new(1, 1).0.clock, Fifo::new(1, 1).0.clock), (0, 0));
        assert_eq!(Dip::new(1, 1).stamps.clock, 1);
        let mut s = Stamps::new(1, 2, 1);
        s.insert_below_min(0, 0);
        s.touch(0, 1);
        s.touch(0, 0);
        assert_eq!(s.stamps, [3, 2]);
        s.insert_below_min(0, 0);
        assert_eq!(s.stamps, [1, 2]);
    }
}
