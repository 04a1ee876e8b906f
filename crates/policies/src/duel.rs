//! Set dueling (Qureshi et al., ISCA 2007) and bimodal insertion: DRRIP's
//! monitor, and the 1/32 trickle of BRRIP's bimodal rule it duels against
//! SRRIP's.
//!
//! Each 64-set period dedicates one leader set to each of two insertion
//! rules — 32 + 32 leaders on the paper's 2048-set LLC. A demand fill (a
//! miss) in an SRRIP leader increments a 10-bit saturating PSEL, one in a
//! BRRIP leader decrements it; follower sets take the bimodal rule while
//! PSEL's MSB is set, i.e. from 512 up. Writeback fills never vote: they
//! say nothing about demand locality.

use crate::util::{SatCounter, SplitMix64};

/// One leader set of each rule per this many sets.
const LEADER_PERIOD: u32 = 64;
/// Offset of the BRRIP (bimodal) leader within each period.
const BIMODAL_LEADER_OFFSET: u32 = 33;
/// PSEL width: values 0..=1023.
const PSEL_BITS: u32 = 10;
/// The bimodal rule inserts at the warm end once every this many fills.
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
    /// Demand fills seen by the SRRIP and the BRRIP leaders.
    leader_misses: [u64; 2],
}

impl SetDuel {
    /// PSEL starts at zero: followers begin with SRRIP's rule.
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

    /// `psel=<value> (<winner>)`, the winner `srrip` or `brrip`.
    pub(crate) fn diag(&self) -> String {
        let winner = if self.bimodal_winning() { "brrip" } else { "srrip" };
        format!("psel={} ({winner})", self.psel.get())
    }

    /// Demand fills seen by the `[srrip, brrip]` leaders.
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
    /// number of sets that moved PSEL up (SRRIP leaders) and down.
    fn leaders(sets: u32) -> (u32, u32) {
        let mut p = PolicyKind::Drrip.build_dispatch(sets, 4);
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

    /// Conformance rows of the set-dueling monitor, run through DRRIP.
    #[test]
    fn dueling_rows_hold_for_drrip() {
        // 32 + 32 leaders on the paper's 2048-set LLC.
        assert_eq!(leaders(2048), (32, 32));
        // `SimConfig::tiny` has 8 LLC sets, 32 at the golden's largest
        // scale: no bimodal leader exists below 34 sets, so PSEL can only
        // rise and every tiny DRRIP number is a one-sided duel.
        for sets in [8, 16, 32] {
            assert_eq!(leaders(sets).1, 0, "{sets} sets");
        }
        assert_eq!(leaders(34), (1, 1));

        let mut p = PolicyKind::Drrip.build_dispatch(2048, 4);
        assert_eq!(psel(&p), (0, "srrip".to_owned()), "starts at SRRIP's rule");
        // Writeback fills never vote, in either leader.
        for set in [0, 33, 64, 97] {
            fill(&mut p, set, AccessType::Writeback);
        }
        assert_eq!(psel(&p).0, 0);
        // Saturation at 0, and back.
        fill(&mut p, 33, AccessType::Load);
        assert_eq!(psel(&p).0, 0, "saturates at 0");
        fill(&mut p, 64, AccessType::Rfo);
        assert_eq!(psel(&p).0, 1, "comes back from 0");
        // Followers flip at 512.
        for _ in 1..511 {
            fill(&mut p, 0, AccessType::Load);
        }
        assert_eq!(psel(&p), (511, "srrip".to_owned()));
        fill(&mut p, 0, AccessType::Load);
        assert_eq!(psel(&p), (512, "brrip".to_owned()), "flips at 512");
        fill(&mut p, 97, AccessType::Load);
        assert_eq!(psel(&p), (511, "srrip".to_owned()), "flips back");
        // Saturation at 1023, and back.
        for _ in 0..600 {
            fill(&mut p, 128, AccessType::Load);
        }
        assert_eq!(psel(&p).0, 1023, "saturates at 1023");
        fill(&mut p, 33, AccessType::Load);
        assert_eq!(psel(&p).0, 1022, "comes back from 1023");
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
