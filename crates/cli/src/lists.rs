//! `workloads`, `policies`: the names the other commands accept.

use ccsim_policies::PolicyKind;
use ccsim_workloads::{paper_workloads, qualcomm_suite, spec_suite, xsbench_suite, SuiteScale};

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
    println!("GAP (kernel.graph):");
    for w in paper_workloads() {
        println!("  {w}");
    }
    println!("SPEC-like:");
    for t in spec_suite(SuiteScale::Quick) {
        println!("  {}", t.name());
    }
    println!("XSBench-like:");
    for t in xsbench_suite(SuiteScale::Quick) {
        println!("  {}", t.name());
    }
    println!("Qualcomm-like:");
    for t in qualcomm_suite(SuiteScale::Quick) {
        println!("  {}", t.name());
    }
    Ok(())
}

fn policies(_: &Args) -> Result<(), String> {
    for k in PolicyKind::ALL {
        println!("{}", k.name());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::ccsim;

    #[test]
    fn listings_do_not_fail() {
        ccsim(&["workloads"]).unwrap();
        ccsim(&["policies"]).unwrap();
    }
}
