//! Set dueling (Qureshi et al., ISCA 2007) and bimodal insertion: the
//! monitor DIP and DRRIP share, and the 1/32 trickle BIP, BRRIP and
//! DRRIP's bimodal side share.
//!
//! Each 64-set period dedicates one leader set to each of two insertion
//! rules — 32 + 32 leaders on the paper's 2048-set LLC. A demand fill (a
//! miss) in a first-rule leader increments a 10-bit saturating PSEL, one
//! in a second-rule leader decrements it; follower sets take the second
//! (bimodal) rule while PSEL's MSB is set, i.e. from 512 up. Writeback
//! fills never vote: they say nothing about demand locality.

use crate::util::{SatCounter, SplitMix64};

/// One leader set of each rule per this many sets.
const LEADER_PERIOD: u32 = 64;
/// Offset of the second (bimodal) rule's leader within each period.
const BIMODAL_LEADER_OFFSET: u32 = 33;
/// PSEL width: values 0..=1023.
const PSEL_BITS: u32 = 10;
/// A bimodal rule inserts at the warm end once every this many fills.
const BIMODAL_EPSILON: u64 = 32;

/// One bimodal insertion decision, drawing the policy's RNG once: `true`
/// (cold end) except for a 1-in-32 trickle.
#[inline]
pub(crate) fn bimodal_cold(rng: &mut SplitMix64) -> bool {
    !rng.one_in(BIMODAL_EPSILON)
}

/// The set-dueling monitor: PSEL plus the leader-miss counts `diag`
/// strings report.
#[derive(Debug)]
pub(crate) struct SetDuel {
    psel: SatCounter,
    /// Demand fills seen by the first-rule and the bimodal-rule leaders.
    leader_misses: [u64; 2],
}

impl SetDuel {
    /// PSEL starts at zero: followers begin with the first rule.
    pub(crate) fn new() -> Self {
        SetDuel { psel: SatCounter::new(PSEL_BITS, 0), leader_misses: [0; 2] }
    }

    /// Accounts a fill into `set` (a demand fill in a leader set votes)
    /// and returns whether that fill inserts with the bimodal rule.
    #[inline]
    pub(crate) fn fill(&mut self, set: u32, demand: bool) -> bool {
        match set % LEADER_PERIOD {
            0 => {
                if demand {
                    self.psel.inc();
                    self.leader_misses[0] += 1;
                }
                false
            }
            BIMODAL_LEADER_OFFSET => {
                if demand {
                    self.psel.dec();
                    self.leader_misses[1] += 1;
                }
                true
            }
            _ => self.bimodal_winning(),
        }
    }

    /// `true` while followers insert with the bimodal rule.
    fn bimodal_winning(&self) -> bool {
        self.psel.msb()
    }

    /// `psel=<value> (<winner>)`, naming the rules `[first, bimodal]`.
    pub(crate) fn diag(&self, rules: [&str; 2]) -> String {
        format!("psel={} ({})", self.psel.get(), rules[self.bimodal_winning() as usize])
    }

    /// Demand fills seen by the `[first, bimodal]` leaders.
    pub(crate) fn leader_misses(&self) -> [u64; 2] {
        self.leader_misses
    }
}

#[cfg(test)]
mod tests {
    use crate::{AccessInfo, AccessType, PolicyDispatch, PolicyKind, ReplacementPolicy};

    fn fill(p: &mut PolicyDispatch, set: u32, kind: AccessType) {
        p.on_fill(set, 0, &AccessInfo { pc: 0x400, block: 0x10, set, kind }, None);
    }

    /// PSEL and the winner as the policy's `diag` reports them.
    fn psel(p: &PolicyDispatch) -> (u16, String) {
        let diag = p.diag();
        let mut words = diag.split_whitespace();
        let value = words.next().unwrap().strip_prefix("psel=").unwrap().parse().unwrap();
        (value, words.next().unwrap().trim_matches(|c| c == '(' || c == ')').to_owned())
    }

    /// One demand fill into every set, starting from PSEL 512: the
    /// number of sets that moved PSEL up (first-rule leaders) and down.
    fn leaders(kind: PolicyKind, sets: u32) -> (u32, u32) {
        let mut p = kind.build_dispatch(sets, 4);
        for _ in 0..512 {
            fill(&mut p, 0, AccessType::Load);
        }
        let (mut up, mut down) = (0, 0);
        for set in 0..sets {
            let before = psel(&p).0;
            fill(&mut p, set, AccessType::Load);
            match psel(&p).0.cmp(&before) {
                std::cmp::Ordering::Greater => up += 1,
                std::cmp::Ordering::Less => down += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        (up, down)
    }

    /// Conformance rows of the set-dueling monitor, run against both
    /// policies that duel.
    #[test]
    fn dueling_rows_hold_for_dip_and_drrip() {
        for (kind, rules) in
            [(PolicyKind::Dip, ["lru", "bip"]), (PolicyKind::Drrip, ["srrip", "brrip"])]
        {
            // 32 + 32 leaders on the paper's 2048-set LLC.
            assert_eq!(leaders(kind, 2048), (32, 32), "{kind}");
            // `SimConfig::tiny` has 8 LLC sets, 32 at the golden's largest
            // scale: no bimodal leader exists below 34 sets, so PSEL can
            // only rise and every tiny DIP/DRRIP number is a one-sided duel.
            for sets in [8, 16, 32] {
                assert_eq!(leaders(kind, sets).1, 0, "{kind} at {sets} sets");
            }
            assert_eq!(leaders(kind, 34), (1, 1), "{kind}");

            let mut p = kind.build_dispatch(2048, 4);
            assert_eq!(psel(&p), (0, rules[0].to_owned()), "{kind}: starts at the first rule");
            // Writeback fills never vote, in either leader.
            for set in [0, 33, 64, 97] {
                fill(&mut p, set, AccessType::Writeback);
            }
            assert_eq!(psel(&p).0, 0, "{kind}");
            // Saturation at 0, and back.
            fill(&mut p, 33, AccessType::Load);
            assert_eq!(psel(&p).0, 0, "{kind}: saturates at 0");
            fill(&mut p, 64, AccessType::Rfo);
            assert_eq!(psel(&p).0, 1, "{kind}: comes back from 0");
            // Followers flip at 512.
            for _ in 1..511 {
                fill(&mut p, 0, AccessType::Load);
            }
            assert_eq!(psel(&p), (511, rules[0].to_owned()), "{kind}");
            fill(&mut p, 0, AccessType::Load);
            assert_eq!(psel(&p), (512, rules[1].to_owned()), "{kind}: flips at 512");
            fill(&mut p, 97, AccessType::Load);
            assert_eq!(psel(&p), (511, rules[0].to_owned()), "{kind}: flips back");
            // Saturation at 1023, and back.
            for _ in 0..600 {
                fill(&mut p, 128, AccessType::Load);
            }
            assert_eq!(psel(&p).0, 1023, "{kind}: saturates at 1023");
            fill(&mut p, 33, AccessType::Load);
            assert_eq!(psel(&p).0, 1022, "{kind}: comes back from 1023");
        }
    }

    #[test]
    fn drrip_diag_counts_leader_misses_of_demand_fills_only() {
        let mut p = PolicyKind::Drrip.build_dispatch(128, 4);
        fill(&mut p, 0, AccessType::Load);
        fill(&mut p, 0, AccessType::Writeback);
        fill(&mut p, 33, AccessType::Rfo);
        fill(&mut p, 1, AccessType::Load);
        assert_eq!(p.diag(), "psel=0 (srrip) leader_misses: srrip=1 brrip=1");
    }
}
