//! Static dispatch over the built-in policies.
//!
//! A cache level drives its replacement policy on every hit, fill and
//! victim query — the hottest calls in the simulator. Routing them through
//! `Box<dyn ReplacementPolicy>` costs an indirect call (and defeats
//! inlining) per event, which the eviction-heavy benchmark shows directly.
//! [`PolicyDispatch`] wraps every concrete built-in policy in an enum so
//! those calls compile to a jump table whose arms inline the concrete hook
//! bodies. [`PolicyKind::build_dispatch`](crate::PolicyKind::build_dispatch)
//! is the one constructor; [`PolicyDispatch::Custom`] is the one
//! extension point (and the hook for test fakes): a boxed external
//! [`ReplacementPolicy`] that, like every built-in, keeps its own
//! per-line metadata from the `on_fill`/`on_hit` notifications.
//!
//! `PolicyDispatch` is itself a [`ReplacementPolicy`], so a cache level
//! is generic over its policy: the LLC holds a `PolicyDispatch`, while a
//! level that always runs one policy (the simulator's LRU L1D and L2)
//! holds that policy's type and pays no dispatch at all.
//!
//! # Examples
//!
//! ```
//! use ccsim_policies::{AccessInfo, PolicyDispatch, PolicyKind, ReplacementPolicy, Victim};
//!
//! let mut policy: PolicyDispatch = PolicyKind::Srrip.build_dispatch(64, 8);
//! let info = AccessInfo::load(0x400, 0xBEEF, 3);
//! policy.on_fill(3, 0, &info, None);
//! assert!(matches!(policy.victim(3, &info), Victim::Way(_)));
//! assert_eq!(policy.name(), "srrip");
//! ```

use crate::policy::{AccessInfo, ReplacementPolicy, Victim};
use crate::{Glider, Hawkeye, Lru, Mpppb, Rrip, Ship};

/// A replacement policy with enum (static) dispatch for every built-in
/// implementation and a boxed escape hatch for external ones.
#[derive(Debug)]
#[non_exhaustive]
pub enum PolicyDispatch {
    /// Least recently used.
    Lru(Lru),
    /// SRRIP or DRRIP (one policy, with or without set dueling).
    Rrip(Rrip),
    /// SHiP-PC.
    Ship(Ship),
    /// Hawkeye.
    Hawkeye(Hawkeye),
    /// Glider.
    Glider(Glider),
    /// MPPPB.
    Mpppb(Mpppb),
    /// Any external [`ReplacementPolicy`], dynamically dispatched.
    Custom(Box<dyn ReplacementPolicy>),
}

/// Forwards one call to whichever variant is live.
macro_rules! each_policy {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PolicyDispatch::Lru($p) => $body,
            PolicyDispatch::Rrip($p) => $body,
            PolicyDispatch::Ship($p) => $body,
            PolicyDispatch::Hawkeye($p) => $body,
            PolicyDispatch::Glider($p) => $body,
            PolicyDispatch::Mpppb($p) => $body,
            PolicyDispatch::Custom($p) => $body,
        }
    };
}

impl ReplacementPolicy for PolicyDispatch {
    #[inline]
    fn name(&self) -> &'static str {
        each_policy!(self, p => p.name())
    }

    #[inline]
    fn victim(&mut self, set: u32, info: &AccessInfo) -> Victim {
        each_policy!(self, p => p.victim(set, info))
    }

    #[inline]
    fn forced_victim(&mut self, set: u32, info: &AccessInfo) -> u32 {
        each_policy!(self, p => p.forced_victim(set, info))
    }

    #[inline]
    fn on_hit(&mut self, set: u32, way: u32, info: &AccessInfo) {
        each_policy!(self, p => p.on_hit(set, way, info))
    }

    #[inline]
    fn on_fill(&mut self, set: u32, way: u32, info: &AccessInfo, evicted: Option<u64>) {
        each_policy!(self, p => p.on_fill(set, way, info, evicted))
    }

    fn diag(&self) -> String {
        each_policy!(self, p => p.diag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessType;
    use crate::PolicyKind;

    fn info(set: u32) -> AccessInfo {
        AccessInfo { pc: 0x400, block: 0x10, set, kind: AccessType::Load }
    }

    #[test]
    fn every_kind_dispatches_statically() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build_dispatch(16, 4);
            assert_eq!(p.name(), kind.name());
            for way in 0..4 {
                p.on_fill(1, way, &info(1), None);
            }
            p.on_hit(1, 0, &info(1));
            match p.victim(1, &info(1)) {
                Victim::Way(w) => assert!(w < 4, "{kind}: way {w}"),
                Victim::Bypass => {}
            }
            let w = p.forced_victim(1, &info(1));
            assert!(w < 4, "{kind}: forced way {w}");
            let _ = p.diag();
        }
    }

    #[test]
    fn custom_escape_hatch_wraps_trait_objects() {
        let mut p = PolicyDispatch::Custom(Box::new(Lru::new(8, 2)));
        assert_eq!(p.name(), "lru");
        p.on_fill(0, 0, &info(0), None);
        p.on_fill(0, 1, &info(0), None);
        p.on_hit(0, 0, &info(0));
        assert_eq!(p.victim(0, &info(0)), Victim::Way(1));
    }
}
