//! Simulator configuration.
//!
//! Defaults model the paper's experimental setup (§I-C): a single Cascade
//! Lake core with 32 KB L1D, 1 MB L2, 1.375 MB 11-way LLC and 8 GB of
//! DDR4-2933. All latencies are in core clock cycles (4 GHz nominal).

use std::fmt;

/// Compile-time ceiling on cache associativity.
///
/// A bound on spec input, not a limit of any data structure: a probe and
/// most victim searches scan every way of a set, so a mistyped
/// associativity would make each access a long linear search, and no
/// modelled cache comes near 64 ways. [`CacheConfig::validate`] enforces
/// the bound, so every constructed cache can rely on it.
pub const MAX_WAYS: u32 = 64;

/// Ceiling on a level's miss-status holding registers.
///
/// Like [`MAX_WAYS`], a bound on spec input: the LLC's MSHR bank counts
/// the registers of each filter bucket in a byte, and no modelled cache
/// comes near 255 outstanding misses.
pub const MAX_MSHRS: u32 = u8::MAX as u32;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Access (hit) latency in cycles, charged on every traversal.
    pub latency: u64,
    /// Miss-status holding registers: maximum outstanding misses.
    pub mshrs: u32,
}

impl CacheConfig {
    /// Total capacity in bytes (sets x ways x 64 B).
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * 64
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message if sets/ways/mshrs are zero, sets is not a power
    /// of two (the set-index mapping requires it), ways exceeds
    /// [`MAX_WAYS`], or mshrs exceeds [`MAX_MSHRS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || self.ways == 0 {
            return Err("cache must have non-zero sets and ways".into());
        }
        if !self.sets.is_power_of_two() {
            return Err(format!("sets must be a power of two, got {}", self.sets));
        }
        if self.ways > MAX_WAYS {
            return Err(format!("ways must be <= {MAX_WAYS}, got {}", self.ways));
        }
        if self.mshrs == 0 {
            return Err("cache must have at least one mshr".into());
        }
        if self.mshrs > MAX_MSHRS {
            return Err(format!("mshrs must be <= {MAX_MSHRS}, got {}", self.mshrs));
        }
        Ok(())
    }
}

/// DDR4 timing in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (single channel).
    pub banks: u32,
    /// Blocks per row (row-buffer size / 64 B).
    pub row_blocks: u32,
    /// Column access latency (tCAS) for a row-buffer hit.
    pub t_cas: u64,
    /// Row activation latency (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// Data-burst duration for one 64 B line.
    pub t_burst: u64,
    /// Fixed controller/queueing overhead per request.
    pub t_controller: u64,
}

impl DramConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if banks or row size are zero or not powers of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(format!("banks must be a non-zero power of two, got {}", self.banks));
        }
        if self.row_blocks == 0 || !self.row_blocks.is_power_of_two() {
            return Err(format!(
                "row_blocks must be a non-zero power of two, got {}",
                self.row_blocks
            ));
        }
        Ok(())
    }
}

/// Out-of-order core proxy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity (instruction window).
    pub rob_size: u32,
    /// Instructions dispatched (and retired) per cycle.
    pub width: u32,
}

impl CoreConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if the ROB or width is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.rob_size == 0 || self.width == 0 {
            return Err("core must have non-zero rob and width".into());
        }
        Ok(())
    }
}

/// An LLC scale factor [`SimConfig::try_with_llc_scale`] rejects: not a
/// power of two, or one that overflows the `u32` set count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcScaleError {
    /// The rejected factor.
    pub factor: u32,
    /// LLC sets of the unscaled config.
    pub sets: u32,
}

impl fmt::Display for LlcScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let LlcScaleError { factor, sets } = *self;
        if factor.is_power_of_two() {
            write!(f, "llc scale {factor} overflows the set count ({sets} sets x {factor})")
        } else {
            write!(f, "llc scale {factor} must be a power of two")
        }
    }
}

impl std::error::Error for LlcScaleError {}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache (the policy under study plugs in here).
    pub llc: CacheConfig,
    /// Memory.
    pub dram: DramConfig,
    /// Core model.
    pub core: CoreConfig,
}

impl SimConfig {
    /// The paper's Cascade Lake-like setup: 32 KB/8-way L1D (4 cycles),
    /// 1 MB/16-way L2 (14 cycles), 1.375 MB/11-way LLC (44 cycles),
    /// DDR4-2933 with 16 banks, 352-entry window, width 4.
    pub fn cascade_lake() -> Self {
        SimConfig {
            l1d: CacheConfig { sets: 64, ways: 8, latency: 4, mshrs: 8 },
            l2: CacheConfig { sets: 1024, ways: 16, latency: 14, mshrs: 32 },
            llc: CacheConfig { sets: 2048, ways: 11, latency: 44, mshrs: 64 },
            dram: DramConfig {
                banks: 16,
                row_blocks: 128,
                t_cas: 58,
                t_rcd: 58,
                t_rp: 58,
                t_burst: 11,
                t_controller: 20,
            },
            core: CoreConfig { rob_size: 352, width: 4 },
        }
    }

    /// A tiny configuration for fast unit tests: 2-set/2-way caches, short
    /// latencies.
    pub fn tiny() -> Self {
        SimConfig {
            l1d: CacheConfig { sets: 2, ways: 2, latency: 1, mshrs: 2 },
            l2: CacheConfig { sets: 4, ways: 2, latency: 4, mshrs: 4 },
            llc: CacheConfig { sets: 8, ways: 2, latency: 10, mshrs: 4 },
            dram: DramConfig {
                banks: 2,
                row_blocks: 4,
                t_cas: 20,
                t_rcd: 20,
                t_rp: 20,
                t_burst: 4,
                t_controller: 4,
            },
            core: CoreConfig { rob_size: 16, width: 2 },
        }
    }

    /// Returns a copy with the LLC scaled to `factor` times the default
    /// capacity by multiplying the set count (associativity preserved).
    ///
    /// # Panics
    ///
    /// Panics where [`SimConfig::try_with_llc_scale`] errors — check
    /// factors that come from outside the program with that instead.
    pub fn with_llc_scale(self, factor: u32) -> Self {
        self.try_with_llc_scale(factor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimConfig::with_llc_scale`] for untrusted factors (spec files,
    /// command lines).
    ///
    /// # Errors
    ///
    /// Returns [`LlcScaleError`] if `factor` is not a power of two or the
    /// scaled set count does not fit its `u32`.
    pub fn try_with_llc_scale(mut self, factor: u32) -> Result<Self, LlcScaleError> {
        let sets = self.llc.sets;
        let scaled = if factor.is_power_of_two() { sets.checked_mul(factor) } else { None };
        self.llc.sets = scaled.ok_or(LlcScaleError { factor, sets })?;
        Ok(self)
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), String> {
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        self.l2.validate().map_err(|e| format!("l2: {e}"))?;
        self.llc.validate().map_err(|e| format!("llc: {e}"))?;
        self.dram.validate().map_err(|e| format!("dram: {e}"))?;
        self.core.validate().map_err(|e| format!("core: {e}"))?;
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::cascade_lake()
    }
}

impl fmt::Display for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1D {}KB/{}w, L2 {}KB/{}w, LLC {}KB/{}w, {} banks DDR4, ROB {}",
            self.l1d.capacity_bytes() / 1024,
            self.l1d.ways,
            self.l2.capacity_bytes() / 1024,
            self.l2.ways,
            self.llc.capacity_bytes() / 1024,
            self.llc.ways,
            self.dram.banks,
            self.core.rob_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_lake_matches_paper_geometry() {
        let c = SimConfig::cascade_lake();
        assert_eq!(c.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(c.l2.capacity_bytes(), 1024 * 1024);
        assert_eq!(c.llc.capacity_bytes(), 1408 * 1024); // 1.375 MB
        assert_eq!(c.llc.ways, 11);
        assert_eq!(c.llc.sets, 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn tiny_validates() {
        assert!(SimConfig::tiny().validate().is_ok());
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        let mut c = SimConfig::tiny();
        c.llc.sets = 3;
        let err = c.validate().unwrap_err();
        assert!(err.contains("llc") && err.contains("power of two"));
    }

    #[test]
    fn oversized_associativity_rejected() {
        let mut c = SimConfig::tiny();
        c.llc.ways = MAX_WAYS + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("llc") && err.contains("ways must be <= 64"), "{err}");
        c.llc.ways = MAX_WAYS;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_mshrs_rejected() {
        let mut c = SimConfig::tiny();
        c.l2.mshrs = 0;
        assert!(c.validate().unwrap_err().contains("l2"));
    }

    #[test]
    fn oversized_mshr_bank_rejected() {
        let mut c = SimConfig::tiny();
        c.llc.mshrs = MAX_MSHRS + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("llc") && err.contains("mshrs must be <= 255"), "{err}");
        c.llc.mshrs = MAX_MSHRS;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn llc_scaling_multiplies_sets() {
        let c = SimConfig::cascade_lake().with_llc_scale(4);
        assert_eq!(c.llc.sets, 8192);
        assert_eq!(c.llc.capacity_bytes(), 4 * 1408 * 1024);
    }

    #[test]
    fn llc_scaling_rejects_bad_factors_identically_in_debug_and_release() {
        let base = SimConfig::cascade_lake();
        let odd = base.try_with_llc_scale(3).unwrap_err();
        assert!(odd.to_string().contains("llc scale 3 must be a power of two"), "{odd}");
        // 2048 sets x 2^21 = 2^32: one past u32, wrapped to 0 sets in
        // release before the multiplication was checked.
        let err = base.try_with_llc_scale(1 << 21).unwrap_err();
        assert_eq!(err, LlcScaleError { factor: 1 << 21, sets: 2048 });
        assert!(err.to_string().contains("llc scale 2097152 overflows"), "{err}");
        assert_eq!(base.try_with_llc_scale(1 << 20).unwrap().llc.sets, 1 << 31);
        assert!(std::panic::catch_unwind(|| base.with_llc_scale(1 << 21)).is_err());
    }

    #[test]
    fn display_mentions_capacities() {
        let s = SimConfig::cascade_lake().to_string();
        assert!(s.contains("1408KB"));
        assert!(s.contains("ROB 352"));
    }
}
