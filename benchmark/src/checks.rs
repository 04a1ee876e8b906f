//! Output checks: every workload verifies what the program produced, and
//! the counts become the result's `attempted` / `failed`.

use ccsim_campaign::journal::sim_result_to_json;
use ccsim_core::SimResult;
use ccsim_ingest::Fnv64;

/// Running tally of checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What failed, for the operator.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// Counts one failed check.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("check failed: {what}");
        self.failures.push(what);
    }

    /// One check per cell: `got[i]` must be bit-equal to `want[i]`.
    pub fn cells_equal(&mut self, label: &str, got: &[SimResult], want: &[SimResult]) {
        self.check(got.len() == want.len(), || {
            format!("{label}: {} cells, expected {}", got.len(), want.len())
        });
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            self.check(g == w, || {
                format!("{label}: cell {i} ({} {}) differs", w.workload, w.policy)
            });
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Failed ÷ attempted (0 when nothing was checked).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over the exact counters of every cell. Information, not a
/// metric: a speed-only change must leave it unchanged, and a modelling fix
/// re-blesses it without "failing".
pub fn stats_digest<'a>(cells: impl IntoIterator<Item = &'a SimResult>) -> String {
    let mut hasher = Fnv64::new();
    for cell in cells {
        hasher.update(sim_result_to_json(cell).to_string().as_bytes());
    }
    format!("{:016x}", hasher.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_core::{simulate, SimConfig};
    use ccsim_policies::PolicyKind;
    use ccsim_trace::TraceBuffer;

    fn cell() -> SimResult {
        let mut buf = TraceBuffer::new("t");
        for i in 0..256u64 {
            buf.load(0x400, i * 64, 8);
        }
        simulate(&buf.finish(), &SimConfig::tiny(), PolicyKind::Lru)
    }

    #[test]
    fn a_corrupted_cell_fails_its_check_and_moves_the_digest() {
        let good = [cell(), cell()];
        let mut checks = Checks::default();
        checks.cells_equal("same", &good, &good);
        assert_eq!((checks.attempted, checks.failed), (3, 0));
        assert_eq!(checks.failed_share(), 0.0);

        let mut bad = good.clone();
        bad[1].llc.demand_misses += 1;
        checks.cells_equal("corrupted", &bad, &good);
        assert_eq!((checks.attempted, checks.failed), (6, 1));
        assert!(checks.failed_share() > 0.0);
        assert_ne!(stats_digest(&bad), stats_digest(&good));
        assert_eq!(stats_digest(&good), stats_digest(&good.clone()));
    }

    #[test]
    fn a_missing_cell_is_a_failure() {
        let good = [cell()];
        let mut checks = Checks::default();
        checks.cells_equal("short", &[], &good);
        assert_eq!(checks.failed, 1);
    }
}
