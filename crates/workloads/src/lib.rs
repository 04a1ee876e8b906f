//! # ccsim-workloads
//!
//! Benchmark-suite assembly for the ccsim characterization study: the GAP
//! kernel x graph grid of the paper's Figure 2, plus the SPEC-like,
//! XSBench-like and Qualcomm-server-like proxy suites of Figure 3.
//!
//! Every workload has a canonical name, [`Suite::member_names`] lists
//! them without building anything, and one generator per name records
//! its trace: into memory ([`build_workload_seeded`]) or straight to a
//! `CCTR` file, chunk by chunk ([`write_workload`]) — the two are byte
//! for byte the same trace.
//!
//! # Example
//!
//! ```
//! use ccsim_workloads::{build_workload_seeded, Suite, SuiteScale};
//!
//! let names = Suite::XsBench.member_names();
//! assert_eq!(names.len(), 3);
//! let trace = build_workload_seeded(&names[0], SuiteScale::Quick, 0).unwrap();
//! assert_eq!(trace.name(), "xsbench.small");
//! assert!(build_workload_seeded("nope.nothing", SuiteScale::Quick, 0).is_err());
//! ```

#![warn(missing_docs)]

pub mod gap;
pub mod qualcomm;
pub mod spec;
pub mod xsbench;

pub use gap::{GapGraph, GapKernel, GapWorkload};
pub use qualcomm::QUALCOMM_NAMES;
pub use spec::SPEC_NAMES;
pub use xsbench::XSBENCH_NAMES;

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use ccsim_trace::{Trace, TraceBuffer, WrittenTrace};

/// Trace-size preset, shared by every suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteScale {
    /// Figure-quality length: GAP property arrays exceed the 1.375 MB LLC,
    /// proxies emit ~1-2 M memory records per workload.
    Full,
    /// Small graphs and short traces for tests and smoke runs.
    Quick,
}

impl SuiteScale {
    /// Stable lowercase name (`"full"` / `"quick"`), used in campaign
    /// specs and trace-cache keys.
    pub fn name(self) -> &'static str {
        match self {
            SuiteScale::Full => "full",
            SuiteScale::Quick => "quick",
        }
    }
}

impl std::fmt::Display for SuiteScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SuiteScale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(SuiteScale::Full),
            "quick" => Ok(SuiteScale::Quick),
            other => Err(format!("unknown scale {other:?}, expected \"quick\" or \"full\"")),
        }
    }
}

/// Builds any workload the crate knows by its canonical name — a GAP
/// `kernel.graph` pair or a synthetic-suite member (`spec.*`, `xsbench.*`,
/// `qcom.srv*`) — in memory, without materializing the rest of its suite.
///
/// This and [`write_workload`] are the name-to-trace entry points: the
/// CLI and the campaign engine stream through [`write_workload`]; the
/// benchmark, the examples and the tests build here. `seed` perturbs the stochastic
/// components of synthesis (0 reproduces the paper's traces exactly;
/// purely streaming proxies are seed-insensitive by construction);
/// campaigns thread their spec seed through, and the trace cache keys
/// on it.
///
/// # Errors
///
/// Returns a message naming the unknown workload.
pub fn build_workload_seeded(name: &str, scale: SuiteScale, seed: u64) -> Result<Trace, String> {
    let mut buf = TraceBuffer::new(name);
    generate(name, scale, seed, &mut buf)?;
    Ok(buf.finish())
}

/// Writes the trace [`build_workload_seeded`] builds, byte for byte as
/// [`ccsim_trace::write_trace`] would encode it, to a new `CCTR` file at
/// `path` — while the generator runs, a 4,096-record chunk at a time,
/// so the trace is never resident whatever its length. Returns the
/// trace's totals.
///
/// # Errors
///
/// Returns a message naming an unknown workload (no file is created) or
/// the I/O failure; a file the failure leaves behind is the caller's to
/// remove.
pub fn write_workload(
    name: &str,
    scale: SuiteScale,
    seed: u64,
    path: &Path,
) -> Result<WrittenTrace, String> {
    if !is_known_workload(name) {
        return Err(unknown_workload(name));
    }
    let io_err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let file = File::create(path).map_err(io_err)?;
    let mut buf = TraceBuffer::streaming(name, BufWriter::new(file)).map_err(io_err)?;
    generate(name, scale, seed, &mut buf)?;
    buf.finish_stream().map_err(io_err)
}

/// Runs `name`'s generator into `buf`.
fn generate(name: &str, scale: SuiteScale, seed: u64, buf: &mut TraceBuffer) -> Result<(), String> {
    let known = match Suite::of_workload(name) {
        Suite::Spec => spec::spec_workload(name, scale, seed, buf),
        Suite::XsBench => xsbench::xsbench_workload(name, scale, seed, buf),
        Suite::Qualcomm => qualcomm::qualcomm_workload(name, scale, seed, buf),
        Suite::Gapbs => name.parse::<GapWorkload>().map(|w| w.trace_into(scale, seed, buf)).is_ok(),
    };
    if known {
        Ok(())
    } else {
        Err(unknown_workload(name))
    }
}

fn unknown_workload(name: &str) -> String {
    format!("unknown workload {name:?}; try `ccsim workloads`")
}

/// `true` if [`build_workload_seeded`] would succeed for `name`, without
/// building anything (used to validate campaign specs cheaply).
pub fn is_known_workload(name: &str) -> bool {
    name.parse::<GapWorkload>().is_ok()
        || SPEC_NAMES.contains(&name)
        || XSBENCH_NAMES.contains(&name)
        || QUALCOMM_NAMES.contains(&name)
}

/// The four benchmark suites of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2006/2017 proxy.
    Spec,
    /// XSBench proxy.
    XsBench,
    /// Qualcomm server-trace proxy.
    Qualcomm,
    /// The GAP benchmark suite (kernels on synthetic inputs).
    Gapbs,
}

impl Suite {
    /// All suites in the paper's figure order.
    pub const ALL: [Suite; 4] = [Suite::Spec, Suite::XsBench, Suite::Qualcomm, Suite::Gapbs];

    /// Display name matching the figure.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec => "SPEC",
            Suite::XsBench => "XSBench",
            Suite::Qualcomm => "Qualcomm",
            Suite::Gapbs => "GAPBS",
        }
    }

    /// Canonical member workload names, in suite (figure) order. These are
    /// names [`build_workload_seeded`] accepts, and expanding them is free
    /// — no trace is materialized.
    pub fn member_names(self) -> Vec<String> {
        match self {
            Suite::Spec => SPEC_NAMES.iter().map(|s| (*s).to_owned()).collect(),
            Suite::XsBench => XSBENCH_NAMES.iter().map(|s| (*s).to_owned()).collect(),
            Suite::Qualcomm => QUALCOMM_NAMES.iter().map(|s| (*s).to_owned()).collect(),
            Suite::Gapbs => gap::paper_workloads().iter().map(|w| w.to_string()).collect(),
        }
    }

    /// Resolves a suite selector name (`"spec"`, `"xsbench"`,
    /// `"qualcomm"`/`"qcom"`, `"gap"`/`"gapbs"`), case-sensitive lowercase.
    pub fn from_selector(s: &str) -> Option<Suite> {
        match s {
            "spec" => Some(Suite::Spec),
            "xsbench" => Some(Suite::XsBench),
            "qualcomm" | "qcom" => Some(Suite::Qualcomm),
            "gap" | "gapbs" => Some(Suite::Gapbs),
            _ => None,
        }
    }

    /// The suite a canonical workload name belongs to, by its prefix
    /// (anything that is not `spec.*` / `xsbench.*` / `qcom.*` is a GAP
    /// `kernel.graph` pair).
    pub fn of_workload(name: &str) -> Suite {
        match name.split('.').next() {
            Some("spec") => Suite::Spec,
            Some("xsbench") => Suite::XsBench,
            Some("qcom") => Suite::Qualcomm,
            _ => Suite::Gapbs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_match_figure_three() {
        let names: Vec<_> = Suite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["SPEC", "XSBench", "Qualcomm", "GAPBS"]);
    }

    #[test]
    fn every_synthetic_member_builds_by_name() {
        for suite in [Suite::Spec, Suite::XsBench, Suite::Qualcomm] {
            for name in suite.member_names() {
                let trace = build_workload_seeded(&name, SuiteScale::Quick, 0).unwrap();
                assert_eq!(trace.name(), name);
                assert!(!trace.is_empty(), "{name} has an empty trace");
                assert_eq!(Suite::of_workload(&name), suite, "{name}");
            }
        }
        assert_eq!(Suite::Gapbs.member_names().len(), 35);
    }

    #[test]
    fn every_member_name_is_known() {
        for suite in Suite::ALL {
            for name in suite.member_names() {
                assert!(is_known_workload(&name), "{name}");
                assert_eq!(Suite::of_workload(&name), suite, "{name}");
            }
        }
        assert!(!is_known_workload("spec.nothing"));
        assert!(!is_known_workload("bfs.mars"));
    }

    #[test]
    fn seed_perturbs_stochastic_workloads() {
        // A nonzero seed actually reaches synthesis...
        for name in ["xsbench.small", "qcom.srv0", "spec.hotcold", "bfs.kron"] {
            let a = build_workload_seeded(name, SuiteScale::Quick, 0).unwrap();
            let b = build_workload_seeded(name, SuiteScale::Quick, 0xDEAD).unwrap();
            assert_ne!(a, b, "{name}: seed must perturb the trace");
            let b2 = build_workload_seeded(name, SuiteScale::Quick, 0xDEAD).unwrap();
            assert_eq!(b, b2, "{name}: seeded synthesis must stay deterministic");
        }
        // ...and purely streaming proxies are seed-insensitive.
        let s0 = build_workload_seeded("spec.stream", SuiteScale::Quick, 0).unwrap();
        let s1 = build_workload_seeded("spec.stream", SuiteScale::Quick, 1).unwrap();
        assert_eq!(s0, s1);
    }

    #[test]
    fn suite_selectors_resolve() {
        assert_eq!(Suite::from_selector("spec"), Some(Suite::Spec));
        assert_eq!(Suite::from_selector("qcom"), Some(Suite::Qualcomm));
        assert_eq!(Suite::from_selector("qualcomm"), Some(Suite::Qualcomm));
        assert_eq!(Suite::from_selector("gap"), Some(Suite::Gapbs));
        assert_eq!(Suite::from_selector("gapbs"), Some(Suite::Gapbs));
        assert_eq!(Suite::from_selector("xsbench"), Some(Suite::XsBench));
        assert_eq!(Suite::from_selector("mars"), None);
    }

    #[test]
    fn suite_scale_parses_and_displays() {
        assert_eq!("quick".parse::<SuiteScale>().unwrap(), SuiteScale::Quick);
        assert_eq!("full".parse::<SuiteScale>().unwrap(), SuiteScale::Full);
        assert!("medium".parse::<SuiteScale>().is_err());
        assert_eq!(SuiteScale::Quick.to_string(), "quick");
    }
}
