//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] describes a full experiment grid — workloads (by
//! name or `suite:` selector), LLC replacement policies, and `SimConfig`
//! variants (an LLC capacity sweep over a base platform) — and parses from
//! a small JSON format so campaigns can be checked into the repo:
//!
//! ```json
//! {
//!   "name": "policy_sweep_quick",
//!   "scale": "quick",
//!   "seed": 0,
//!   "base_config": "cascade_lake",
//!   "llc_scales": [1, 2, 4],
//!   "workloads": ["bfs.kron", "suite:xsbench"],
//!   "policies": ["lru", "srrip", "hawkeye"]
//! }
//! ```
//!
//! `name`, `workloads` and `policies` are required; `scale` defaults to
//! `"quick"`, `seed` to `0`, `base_config` to `"cascade_lake"` and
//! `llc_scales` to `[1]`.

use ccsim_core::SimConfig;
use ccsim_policies::PolicyKind;
use ccsim_workloads::{is_known_workload, Suite, SuiteScale};

use crate::json::Json;

/// The platform a campaign's config variants are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseConfig {
    /// The paper's Cascade Lake-like setup ([`SimConfig::cascade_lake`]).
    CascadeLake,
    /// The tiny test setup ([`SimConfig::tiny`]) — for fast smoke specs.
    Tiny,
}

impl BaseConfig {
    /// Stable spec-file identifier.
    pub fn name(self) -> &'static str {
        match self {
            BaseConfig::CascadeLake => "cascade_lake",
            BaseConfig::Tiny => "tiny",
        }
    }

    /// Materializes the base [`SimConfig`].
    pub fn config(self) -> SimConfig {
        match self {
            BaseConfig::CascadeLake => SimConfig::cascade_lake(),
            BaseConfig::Tiny => SimConfig::tiny(),
        }
    }

    fn parse(s: &str) -> Result<BaseConfig, String> {
        match s {
            "cascade_lake" => Ok(BaseConfig::CascadeLake),
            "tiny" => Ok(BaseConfig::Tiny),
            other => {
                Err(format!("unknown base_config {other:?}, expected \"cascade_lake\" or \"tiny\""))
            }
        }
    }
}

/// A declarative description of one experiment campaign: the full
/// (workload x policy x config) grid plus naming and seeding.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (also names output files) — `[a-z0-9_-]+`.
    pub name: String,
    /// Synthesis seed, threaded into the stochastic components of every
    /// workload's generation (0 reproduces the paper's traces); also part
    /// of the trace-cache key and the report identity.
    pub seed: u64,
    /// Workload scale preset applied to every workload.
    pub scale: SuiteScale,
    /// Workload selectors in declaration order: canonical workload names
    /// (`bfs.kron`, `spec.stream`, ...), `suite:<spec|xsbench|qualcomm|gap>`,
    /// or `trace:<path>` — an external ChampSim/CVP/CCTR trace file,
    /// ingested on first use (relative paths resolve against the working
    /// directory of the run).
    pub workloads: Vec<String>,
    /// Policies to sweep, in column order.
    pub policies: Vec<PolicyKind>,
    /// Base platform for every config variant.
    pub base_config: BaseConfig,
    /// LLC capacity multipliers (each a power of two); one config variant
    /// per entry.
    pub llc_scales: Vec<u32>,
}

impl CampaignSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field, unknown
    /// policy, or invalid workload selector.
    pub fn from_json_str(text: &str) -> Result<CampaignSpec, String> {
        let root = Json::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        let Json::Obj(_) = root else {
            return Err("spec must be a JSON object".into());
        };

        let name = root
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec needs a string \"name\"")?
            .to_owned();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c))
        {
            return Err(format!("campaign name {name:?} must match [a-z0-9_-]+"));
        }

        let seed = match root.get("seed") {
            None => 0,
            Some(v) => v.as_u64().ok_or("\"seed\" must be a non-negative integer")?,
        };

        let scale = match root.get("scale") {
            None => SuiteScale::Quick,
            Some(v) => v.as_str().ok_or("\"scale\" must be a string")?.parse()?,
        };

        let base_config = match root.get("base_config") {
            None => BaseConfig::CascadeLake,
            Some(v) => BaseConfig::parse(v.as_str().ok_or("\"base_config\" must be a string")?)?,
        };

        let llc_scales = match root.get("llc_scales") {
            None => vec![1],
            Some(v) => {
                let items = v.as_array().ok_or("\"llc_scales\" must be an array")?;
                let base = base_config.config();
                let scales: Vec<u32> = items
                    .iter()
                    .map(|i| {
                        let scale = i
                            .as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| format!("llc scale {i} must be a power of two"))?;
                        // `configs()` scales infallibly: reject here what
                        // it could not build.
                        base.try_with_llc_scale(scale).map(|_| scale).map_err(|e| e.to_string())
                    })
                    .collect::<Result<_, _>>()?;
                if scales.is_empty() {
                    return Err("\"llc_scales\" must not be empty".into());
                }
                if let Some(d) = first_duplicate(&scales) {
                    return Err(format!("duplicate llc scale {d}"));
                }
                scales
            }
        };

        let workloads = string_list(&root, "workloads")?;
        if workloads.is_empty() {
            return Err("\"workloads\" must not be empty".into());
        }
        let policies: Vec<PolicyKind> = string_list(&root, "policies")?
            .iter()
            .map(|p| p.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
        if policies.is_empty() {
            return Err("\"policies\" must not be empty".into());
        }
        if let Some(d) = first_duplicate(&policies) {
            return Err(format!("duplicate policy {:?}", d.name()));
        }

        let known = ["name", "seed", "scale", "base_config", "llc_scales", "workloads", "policies"];
        if let Json::Obj(pairs) = &root {
            for (k, _) in pairs {
                if !known.contains(&k.as_str()) {
                    return Err(format!("unknown spec field {k:?}"));
                }
            }
        }

        let spec = CampaignSpec { name, seed, scale, workloads, policies, base_config, llc_scales };
        spec.expand_workloads()?; // validate selectors eagerly
        Ok(spec)
    }

    /// Reads and parses a spec file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and parse errors with the path prepended.
    pub fn from_file(path: &std::path::Path) -> Result<CampaignSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Resolves the workload selectors into concrete workload names, in
    /// declaration order, deduplicated (first occurrence wins).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid selector.
    pub fn expand_workloads(&self) -> Result<Vec<String>, String> {
        let mut names: Vec<String> = Vec::new();
        let mut push = |n: String| {
            if !names.contains(&n) {
                names.push(n);
            }
        };
        for sel in &self.workloads {
            if let Some(suite) = sel.strip_prefix("suite:") {
                let suite = Suite::from_selector(suite).ok_or_else(|| {
                    format!("unknown suite selector {sel:?}, expected suite:<spec|xsbench|qualcomm|gap>")
                })?;
                suite.member_names().into_iter().for_each(&mut push);
            } else if let Some(path) = sel.strip_prefix("trace:") {
                // External trace file: the path is validated for shape
                // here and for existence/decodability when first used.
                if path.is_empty() {
                    return Err(format!("{sel:?} names no file, expected trace:<path>"));
                }
                push(sel.clone());
            } else if is_known_workload(sel) {
                push(sel.clone());
            } else {
                return Err(format!("unknown workload {sel:?}; try `ccsim workloads`"));
            }
        }
        Ok(names)
    }

    /// The config variants of the grid: `(label, config)` pairs, one per
    /// LLC scale, labelled `llc_x<scale>`.
    pub fn configs(&self) -> Vec<(String, SimConfig)> {
        self.llc_scales
            .iter()
            .map(|&s| (format!("llc_x{s}"), self.base_config.config().with_llc_scale(s)))
            .collect()
    }

    /// The canonical JSON form: every field explicit, workloads fully
    /// expanded. Two specs that describe the same grid render identically,
    /// which makes this the input to [`CampaignSpec::digest`] and the spec
    /// echo embedded in reports.
    pub fn canonical_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("seed", Json::int(self.seed)),
            ("scale", Json::str(self.scale.name())),
            ("base_config", Json::str(self.base_config.name())),
            (
                "llc_scales",
                Json::Arr(self.llc_scales.iter().map(|&s| Json::int(s as u64)).collect()),
            ),
            (
                "workloads",
                Json::Arr(
                    self.expand_workloads()
                        .expect("spec was validated at parse time")
                        .into_iter()
                        .map(Json::Str)
                        .collect(),
                ),
            ),
            ("policies", Json::Arr(self.policies.iter().map(|p| Json::str(p.name())).collect())),
        ])
    }

    /// FNV-1a digest of the canonical JSON, as 16 hex digits. Campaign
    /// journals record it so a resumed run can tell whether the journal
    /// belongs to the same grid.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_json().to_string().as_bytes()))
    }
}

/// The first value that appears more than once, if any. Duplicate
/// policies/scales would make distinct grid cells share a journal id.
fn first_duplicate<T: PartialEq + Copy>(items: &[T]) -> Option<T> {
    items.iter().enumerate().find(|(i, v)| items[..*i].contains(v)).map(|(_, v)| *v)
}

fn string_list(root: &Json, field: &str) -> Result<Vec<String>, String> {
    root.get(field)
        .and_then(Json::as_array)
        .ok_or(format!("spec needs an array \"{field}\""))?
        .iter()
        .map(|v| {
            v.as_str().map(str::to_owned).ok_or(format!("\"{field}\" entries must be strings"))
        })
        .collect()
}

/// 64-bit FNV-1a hash of one byte string — [`ccsim_ingest::Fnv64`] in
/// one call (used for cache filenames and spec digests, not security).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = ccsim_ingest::Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "name": "mini",
        "workloads": ["xsbench.small"],
        "policies": ["lru", "srrip"]
    }"#;

    #[test]
    fn minimal_spec_gets_defaults() {
        let s = CampaignSpec::from_json_str(MINIMAL).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.seed, 0);
        assert_eq!(s.scale, SuiteScale::Quick);
        assert_eq!(s.base_config, BaseConfig::CascadeLake);
        assert_eq!(s.llc_scales, vec![1]);
        assert_eq!(s.policies, vec![PolicyKind::Lru, PolicyKind::Srrip]);
        assert_eq!(s.configs().len(), 1);
        assert_eq!(s.configs()[0].0, "llc_x1");
    }

    #[test]
    fn trace_selectors_pass_validation_and_expand_verbatim() {
        let s = CampaignSpec::from_json_str(
            r#"{"name": "x",
                "workloads": ["trace:/data/gap/bfs.champsim", "xsbench.small",
                              "trace:/data/gap/bfs.champsim"],
                "policies": ["lru"]}"#,
        )
        .unwrap();
        let w = s.expand_workloads().unwrap();
        assert_eq!(w, ["trace:/data/gap/bfs.champsim", "xsbench.small"], "dedup keeps order");
        // The selector survives the canonical echo and affects the digest.
        let text = s.canonical_json().to_pretty();
        let back = CampaignSpec::from_json_str(&text).unwrap();
        assert_eq!(back.digest(), s.digest());
        let err = CampaignSpec::from_json_str(
            r#"{"name": "x", "workloads": ["trace:"], "policies": ["lru"]}"#,
        )
        .unwrap_err();
        assert!(err.contains("trace:<path>"), "{err}");
    }

    #[test]
    fn suite_selectors_expand_in_order_and_dedup() {
        let s = CampaignSpec::from_json_str(
            r#"{"name": "x", "workloads": ["xsbench.large", "suite:xsbench"],
                "policies": ["lru"]}"#,
        )
        .unwrap();
        let w = s.expand_workloads().unwrap();
        assert_eq!(w, ["xsbench.large", "xsbench.small", "xsbench.xl"]);
    }

    #[test]
    fn gap_suite_expands_to_35_members() {
        let s = CampaignSpec::from_json_str(
            r#"{"name": "g", "workloads": ["suite:gap"], "policies": ["lru"]}"#,
        )
        .unwrap();
        assert_eq!(s.expand_workloads().unwrap().len(), 35);
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let cases = [
            (r#"{"workloads": ["bfs.kron"], "policies": ["lru"]}"#, "name"),
            (r#"{"name": "Bad Name", "workloads": ["bfs.kron"], "policies": ["lru"]}"#, "name"),
            (r#"{"name": "x", "workloads": [], "policies": ["lru"]}"#, "workloads"),
            (r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["zap"]}"#, "zap"),
            (r#"{"name": "x", "workloads": ["nope.x"], "policies": ["lru"]}"#, "nope.x"),
            (r#"{"name": "x", "workloads": ["suite:mars"], "policies": ["lru"]}"#, "suite"),
            (
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                    "llc_scales": [3]}"#,
                "power of two",
            ),
            (
                // A power of two that fits u32, but 2048 sets x 2^21
                // overflows the set count.
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                    "llc_scales": [2097152]}"#,
                "llc scale 2097152 overflows the set count",
            ),
            (
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                    "base_config": "xeon"}"#,
                "base_config",
            ),
            (
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                    "scale": "huge"}"#,
                "scale",
            ),
            (
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                    "surprise": 1}"#,
                "surprise",
            ),
            (
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru", "lru"]}"#,
                "duplicate policy",
            ),
            (
                r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                    "llc_scales": [2, 2]}"#,
                "duplicate llc scale",
            ),
        ];
        for (src, needle) in cases {
            let err = CampaignSpec::from_json_str(src).unwrap_err();
            assert!(err.contains(needle), "{src}: {err}");
        }
    }

    /// DIP is not one of the seven policies: a spec naming it is refused
    /// with the parse error, which names it and the seven.
    #[test]
    fn a_spec_naming_a_removed_policy_is_refused() {
        let err = CampaignSpec::from_json_str(
            r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru", "dip"]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "unknown policy \"dip\", expected one of: lru, srrip, drrip, ship, hawkeye, glider, \
             mpppb"
        );
    }

    #[test]
    fn digest_is_stable_across_formatting_but_not_content() {
        let a = CampaignSpec::from_json_str(MINIMAL).unwrap();
        let b = CampaignSpec::from_json_str(
            r#"{"policies":["lru","srrip"],"workloads":["xsbench.small"],"name":"mini","seed":0}"#,
        )
        .unwrap();
        assert_eq!(a.digest(), b.digest(), "field order must not matter");
        let mut c = a.clone();
        c.seed = 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn canonical_json_roundtrips_through_parser() {
        let s = CampaignSpec::from_json_str(
            r#"{"name": "rt", "workloads": ["suite:gap", "bfs.kron"], "policies": ["lru"]}"#,
        )
        .unwrap();
        let text = s.canonical_json().to_pretty();
        let back = CampaignSpec::from_json_str(&text).unwrap();
        assert_eq!(back.name, "rt");
        assert_eq!(back.expand_workloads().unwrap(), s.expand_workloads().unwrap());
        assert_eq!(back.digest(), s.digest());
    }

    #[test]
    fn llc_scale_configs_grow_capacity() {
        let s = CampaignSpec::from_json_str(
            r#"{"name": "x", "workloads": ["bfs.kron"], "policies": ["lru"],
                "llc_scales": [1, 4], "base_config": "tiny"}"#,
        )
        .unwrap();
        let configs = s.configs();
        assert_eq!(configs[0].0, "llc_x1");
        assert_eq!(configs[1].0, "llc_x4");
        assert_eq!(configs[1].1.llc.capacity_bytes(), 4 * configs[0].1.llc.capacity_bytes());
    }
}
