//! # ccsim-policies
//!
//! Last-level-cache replacement policies behind a ChampSim-style hook
//! interface, for the ccsim characterization suite.
//!
//! The paper evaluates six state-of-the-art policies against an LRU
//! baseline; this crate implements those seven, and an offline Belady
//! oracle for headroom analysis. Each replacement mechanism is written
//! once — a policy is a backend plus its own insertion or training rule:
//!
//! | Policy | Type | Backend | Own rule | Source |
//! |--------|------|---------|----------|--------|
//! | LRU (baseline) | [`Lru`] | recency stamps | stamp on hit and fill | — |
//! | SRRIP | [`Rrip::srrip`] | 2-bit RRPVs | long insertion | Jaleel et al., ISCA 2010 |
//! | DRRIP | [`Rrip::drrip`] | 2-bit RRPVs + set dueling | SRRIP vs BRRIP (bimodal) insertion | Jaleel et al., ISCA 2010 |
//! | SHiP-PC | [`Ship`] | 2-bit RRPVs | SHCT-predicted insertion | Wu et al., MICRO 2011 |
//! | Hawkeye | [`Hawkeye`] | 3-bit ages | OPT-trained PC predictor | Jain & Lin, ISCA 2016 |
//! | Glider | [`Glider`] | 3-bit ages | OPT-trained ISVMs | Shi et al., MICRO 2019 |
//! | MPPPB | [`Mpppb`] | 3-bit RRPVs | perceptron placement/promotion/bypass | Jiménez & Teran, MICRO 2017 |
//! | Belady OPT | [`belady`] | — | offline oracle | — |
//!
//! # Example
//!
//! ```
//! use ccsim_policies::{AccessInfo, PolicyKind, ReplacementPolicy, Victim};
//!
//! let mut policy = PolicyKind::Srrip.build_dispatch(2048, 11);
//! let info = AccessInfo::load(0x400123, 0xABCD, 17);
//! policy.on_fill(17, 3, &info, None);
//! policy.on_hit(17, 3, &info);
//! let victim = policy.victim(17, &info);
//! assert!(matches!(victim, Victim::Way(w) if w < 11));
//! ```

#![warn(missing_docs)]

pub mod belady;
mod dispatch;
mod duel;
pub mod glider;
pub mod hawkeye;
pub mod mpppb;
mod policy;
pub mod rrip;
mod ship;
mod stamps;
pub mod util;

pub use dispatch::PolicyDispatch;
pub use glider::Glider;
pub use hawkeye::Hawkeye;
pub use mpppb::Mpppb;
pub use policy::{AccessInfo, AccessType, ReplacementPolicy, Victim};
pub use rrip::Rrip;
pub use ship::Ship;
pub use stamps::Lru;

use std::fmt;
use std::str::FromStr;

/// Enumerates every online policy the crate can instantiate: the paper's
/// LRU baseline and the six policies it evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum PolicyKind {
    /// Least recently used (the paper's baseline).
    Lru,
    /// Static RRIP.
    Srrip,
    /// Dynamic RRIP (set-dueling SRRIP/BRRIP).
    Drrip,
    /// Signature-based Hit Predictor.
    Ship,
    /// OPT-trained PC classifier.
    Hawkeye,
    /// ISVM over PC history, OPT-trained.
    Glider,
    /// Multiperspective perceptron with placement/promotion/bypass.
    Mpppb,
}

impl PolicyKind {
    /// All kinds, in a stable display order: [`PolicyKind::Lru`], then
    /// [`PolicyKind::PAPER_POLICIES`].
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Hawkeye,
        PolicyKind::Glider,
        PolicyKind::Mpppb,
    ];

    /// The six policies the paper evaluates (Figure 3), in figure order.
    pub const PAPER_POLICIES: [PolicyKind; 6] = [
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Hawkeye,
        PolicyKind::Glider,
        PolicyKind::Mpppb,
    ];

    /// Stable lowercase identifier.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Srrip => "srrip",
            PolicyKind::Drrip => "drrip",
            PolicyKind::Ship => "ship",
            PolicyKind::Hawkeye => "hawkeye",
            PolicyKind::Glider => "glider",
            PolicyKind::Mpppb => "mpppb",
        }
    }

    /// Instantiates the policy for a `sets x ways` cache. This is the
    /// crate's only `PolicyKind` → policy table; the result is the
    /// statically dispatched [`PolicyDispatch`] the simulator's hot path
    /// drives.
    pub fn build_dispatch(self, sets: u32, ways: u32) -> PolicyDispatch {
        match self {
            PolicyKind::Lru => PolicyDispatch::Lru(Lru::new(sets, ways)),
            PolicyKind::Srrip => PolicyDispatch::Rrip(Rrip::srrip(sets, ways)),
            PolicyKind::Drrip => PolicyDispatch::Rrip(Rrip::drrip(sets, ways)),
            PolicyKind::Ship => PolicyDispatch::Ship(Ship::new(sets, ways)),
            PolicyKind::Hawkeye => PolicyDispatch::Hawkeye(Hawkeye::new(sets, ways)),
            PolicyKind::Glider => PolicyDispatch::Glider(Glider::new(sets, ways)),
            PolicyKind::Mpppb => PolicyDispatch::Mpppb(Mpppb::new(sets, ways)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    name: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown policy {:?}, expected one of: ", self.name)?;
        for (i, k) in PolicyKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(k.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParsePolicyError { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
        }
    }

    #[test]
    fn parse_error_lists_alternatives() {
        let err = "nope".parse::<PolicyKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("hawkeye"));
    }

    #[test]
    fn paper_policies_are_the_figure_three_set() {
        let names: Vec<_> = PolicyKind::PAPER_POLICIES.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["srrip", "drrip", "ship", "hawkeye", "glider", "mpppb"]);
    }

    #[test]
    fn all_is_the_lru_baseline_then_the_paper_policies() {
        let mut want = vec![PolicyKind::Lru];
        want.extend(PolicyKind::PAPER_POLICIES);
        assert_eq!(PolicyKind::ALL.to_vec(), want);
    }

    /// Smoke: every policy survives a pseudo-random access storm and always
    /// returns legal victims.
    #[test]
    fn storm_smoke_all_policies() {
        use crate::util::SplitMix64;
        let (sets, ways) = (64u32, 4u32);
        for kind in PolicyKind::ALL {
            let mut p = kind.build_dispatch(sets, ways);
            let mut rng = SplitMix64::new(kind as u64 + 1);
            let mut occupancy = vec![0u32; sets as usize];
            for _ in 0..20_000 {
                let set = (rng.below(sets as u64)) as u32;
                let block = rng.below(1 << 20);
                let pc = 0x400_000 + rng.below(64) * 4;
                let kind_a = if rng.one_in(10) {
                    AccessType::Writeback
                } else if rng.one_in(4) {
                    AccessType::Rfo
                } else {
                    AccessType::Load
                };
                let info = AccessInfo { pc, block, set, kind: kind_a };
                if occupancy[set as usize] < ways {
                    let way = occupancy[set as usize];
                    occupancy[set as usize] += 1;
                    p.on_fill(set, way, &info, None);
                } else if rng.one_in(3) {
                    match p.victim(set, &info) {
                        Victim::Way(w) => {
                            assert!(w < ways, "{}: victim way {w} out of range", p.name());
                            p.on_fill(set, w, &info, Some(block ^ 1));
                        }
                        Victim::Bypass => {}
                    }
                } else {
                    let way = (rng.below(ways as u64)) as u32;
                    p.on_hit(set, way, &info);
                }
            }
        }
    }
}
