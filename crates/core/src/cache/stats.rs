//! Per-cache-level statistics.

/// Hit/miss/traffic counters for one cache level.
///
/// *Demand* covers loads and RFOs; writebacks arriving from the level above
/// are tracked separately — MPKI, the paper's figure-2 metric, counts demand
/// misses only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (load + RFO) lookups.
    pub demand_accesses: u64,
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Demand misses merged into an already-outstanding MSHR (LLC only:
    /// L1D and L2 never merge, so theirs is always 0).
    pub mshr_merges: u64,
    /// Writeback lookups arriving from the level above.
    pub writeback_accesses: u64,
    /// Writebacks that hit (updated in place).
    pub writeback_hits: u64,
    /// Lines allocated (fills), demand and writeback.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty evictions emitted to the level below.
    pub writebacks_out: u64,
    /// Demand fills the policy chose not to cache.
    pub bypasses: u64,
    /// Writeback fills where the policy proposed a bypass and was
    /// overridden (writebacks cannot bypass; the eviction falls back to
    /// the policy's bypass-forbidden aging order).
    pub writeback_bypass_overrides: u64,
}

impl CacheStats {
    /// Demand hit rate in [0, 1]; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            return 0.0;
        }
        self.demand_hits as f64 / self.demand_accesses as f64
    }

    /// Demand misses per kilo-instruction given the run's instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.demand_misses as f64 * 1000.0 / instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn mpki_scales_per_kilo_instruction() {
        let s = CacheStats { demand_misses: 50, ..Default::default() };
        assert!((s.mpki(1000) - 50.0).abs() < 1e-12);
        assert!((s.mpki(2000) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_fraction() {
        let s = CacheStats {
            demand_accesses: 10,
            demand_hits: 7,
            demand_misses: 3,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
    }
}
