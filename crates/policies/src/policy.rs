//! The replacement-policy framework: ChampSim-style hooks.
//!
//! A cache level owns a [`PolicyDispatch`](crate::PolicyDispatch) — an
//! enum over the built-in policies (six types covering the seven
//! [`PolicyKind`](crate::PolicyKind)s) plus one boxed
//! [`ReplacementPolicy`] extension point — and drives it through three
//! events: a *victim query* when a fill finds its set full, a *hit
//! notification*, and a *fill notification*. The policy never sees the
//! cache's tag array; it maintains whatever per-line, per-set or global
//! metadata its algorithm requires from the hit and fill notifications.

use std::fmt;

/// The kind of access, as seen by the cache level the policy manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Demand read caused by a load instruction.
    Load,
    /// Read-for-ownership caused by a store instruction.
    Rfo,
    /// Dirty eviction arriving from the level above. Writebacks carry no
    /// meaningful PC and most policies neither train on nor promote them.
    Writeback,
}

impl AccessType {
    /// `true` for demand accesses (loads and RFOs), `false` for writebacks.
    #[inline]
    pub fn is_demand(self) -> bool {
        !matches!(self, AccessType::Writeback)
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Load => f.write_str("load"),
            AccessType::Rfo => f.write_str("rfo"),
            AccessType::Writeback => f.write_str("writeback"),
        }
    }
}

/// Everything a policy may inspect about one access.
#[derive(Debug, Clone, Copy)]
pub struct AccessInfo {
    /// Program counter of the triggering instruction (0 for writebacks).
    pub pc: u64,
    /// 64-byte block address (full address >> 6).
    pub block: u64,
    /// Set index the access maps to.
    pub set: u32,
    /// Access kind.
    pub kind: AccessType,
}

impl AccessInfo {
    /// Convenience constructor for a demand load.
    pub fn load(pc: u64, block: u64, set: u32) -> Self {
        AccessInfo { pc, block, set, kind: AccessType::Load }
    }
}

/// A victim decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// Evict the line in this way.
    Way(u32),
    /// Do not cache the incoming block at all (dead-on-arrival bypass).
    /// Only meaningful for policies that support bypassing (e.g. MPPPB);
    /// the cache honours it for demand fills and ignores it for writebacks.
    Bypass,
}

/// An LLC replacement policy.
///
/// Implementations are single-threaded state machines; the simulator drives
/// one instance per cache. All hooks receive the set index already computed
/// by the cache.
///
/// # Contract
///
/// * [`victim`](ReplacementPolicy::victim) is only called when every way in
///   the set holds a valid line; the returned way must be `< ways`.
/// * [`on_fill`](ReplacementPolicy::on_fill) is called exactly once per
///   allocation, after the victim (if any) has been evicted.
/// * [`on_hit`](ReplacementPolicy::on_hit) is called for every access that
///   hits, including writeback hits (policies typically ignore those for
///   training, see [`AccessType::is_demand`]).
pub trait ReplacementPolicy: fmt::Debug {
    /// Short stable identifier (`"lru"`, `"srrip"`, ...).
    fn name(&self) -> &'static str;

    /// Chooses a victim way for `info` in a full `set`, ranking the ways
    /// from the metadata the policy built up in
    /// [`on_hit`](ReplacementPolicy::on_hit) and
    /// [`on_fill`](ReplacementPolicy::on_fill).
    fn victim(&mut self, set: u32, info: &AccessInfo) -> Victim;

    /// Chooses a victim way for `info` in a full `set` when bypassing is
    /// not permitted — the cache asks this for writeback fills, whose
    /// incoming dirty block must be cached somewhere.
    ///
    /// The default re-queries [`victim`](ReplacementPolicy::victim) and
    /// falls back to way 0 if the policy still insists on bypassing.
    /// Policies that can bypass (e.g. MPPPB) should override this with
    /// their aging order so the forced eviction follows the same ranking
    /// as their ordinary victims.
    fn forced_victim(&mut self, set: u32, info: &AccessInfo) -> u32 {
        match self.victim(set, info) {
            Victim::Way(way) => way,
            Victim::Bypass => 0,
        }
    }

    /// Notifies the policy of a hit in `set`/`way`.
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo);

    /// Notifies the policy that `info.block` has been filled into
    /// `set`/`way`, replacing `evicted` (if a valid line was displaced).
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, evicted: Option<u64>);

    /// One-line diagnostic string (predictor occupancies, PSEL values, ...)
    /// surfaced by the experiment harness; empty by default.
    fn diag(&self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_type_predicates() {
        assert!(AccessType::Load.is_demand());
        assert!(AccessType::Rfo.is_demand());
        assert!(!AccessType::Writeback.is_demand());
        assert_eq!(AccessType::Rfo.to_string(), "rfo");
    }

    #[test]
    fn access_info_load_constructor() {
        let a = AccessInfo::load(0x400, 0x1234, 7);
        assert_eq!(a.kind, AccessType::Load);
        assert_eq!(a.set, 7);
    }

    #[test]
    fn victim_equality() {
        assert_eq!(Victim::Way(3), Victim::Way(3));
        assert_ne!(Victim::Way(3), Victim::Bypass);
    }
}
