//! `workloads`, `policies`: the names the other commands accept.

use ccsim_policies::PolicyKind;
use ccsim_workloads::Suite;

use crate::args::{Args, Command};

pub const WORKLOADS: Command = Command {
    path: &["workloads"],
    positionals: &[],
    flags: &[],
    about: "list available workload names",
    run: workloads,
};

pub const POLICIES: Command = Command {
    path: &["policies"],
    positionals: &[],
    flags: &[],
    about: "list available policy names",
    run: policies,
};

fn workloads(_: &Args) -> Result<(), String> {
    print!("{}", workload_listing());
    Ok(())
}

/// Every suite's member names under one header per suite — names only,
/// so listing builds no trace.
fn workload_listing() -> String {
    let mut out = String::new();
    for suite in Suite::ALL {
        out += &format!("{}:\n", suite.name());
        for name in suite.member_names() {
            out += &format!("  {name}\n");
        }
    }
    out
}

fn policies(_: &Args) -> Result<(), String> {
    for k in PolicyKind::ALL {
        println!("{}", k.name());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ccsim;

    #[test]
    fn listings_do_not_fail() {
        ccsim(&["workloads"]).unwrap();
        ccsim(&["policies"]).unwrap();
    }

    #[test]
    fn workloads_lists_every_member_once() {
        let listing = workload_listing();
        let names: Vec<&str> = listing.lines().filter_map(|l| l.strip_prefix("  ")).collect();
        assert_eq!(names.len(), 51, "{listing}");
        for suite in Suite::ALL {
            assert!(listing.contains(&format!("{}:\n", suite.name())), "{listing}");
            for name in suite.member_names() {
                assert_eq!(names.iter().filter(|n| **n == name).count(), 1, "{name}");
            }
        }
    }
}
