//! `ccsim` — command-line front end for the simulation suite, and the
//! workspace's only executable: the paper's figures are specs under
//! `campaigns/` run by `ccsim campaign`.
//!
//! [`COMMANDS`] is the CLI. Each row is an [`args::Command`] written next
//! to its handler, in the file of its subcommand family; [`args::Args::parse`]
//! reads argv against the selected row, and `ccsim --help`,
//! `ccsim <cmd> --help` and every argument error render the same row, so
//! no synopsis is kept by hand — run `ccsim --help` for it.

use std::process::ExitCode;

use args::{Args, Command};

mod args;
mod campaign;
mod dist;
mod lists;
mod report_diff;
mod sim;
mod trace;

/// Every subcommand, in the order `ccsim --help` lists them.
static COMMANDS: [&Command; 11] = [
    &trace::GEN,
    &trace::STATS,
    &trace::INGEST,
    &sim::SIM,
    &campaign::CAMPAIGN,
    &dist::WORKER,
    &dist::ASSEMBLE,
    &dist::WATCH,
    &report_diff::REPORT_DIFF,
    &lists::WORKLOADS,
    &lists::POLICIES,
];

/// What bare `ccsim` and `ccsim --help` print.
fn help() -> String {
    let mut out =
        String::from("ccsim — trace-driven LLC replacement-policy characterization\n\nUSAGE:\n");
    for cmd in COMMANDS {
        out += &format!("{}\n", cmd.synopsis());
    }
    out += "\nCOMMANDS:\n";
    for cmd in COMMANDS {
        let summary = cmd.about.lines().next().unwrap_or_default();
        out += &format!("    {:<20}{summary}\n", cmd.path.join(" "));
    }
    out + "\n`ccsim <command> --help` describes one command.\n"
}

/// Selects the row with the longest path that prefixes `argv` and runs it.
fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(first) = argv.first().filter(|a| !args::is_help(a)) else {
        print!("{}", help());
        return Ok(());
    };
    let selected = COMMANDS
        .iter()
        .filter(|cmd| {
            cmd.path.len() <= argv.len() && cmd.path.iter().zip(argv).all(|(p, a)| p == a)
        })
        .max_by_key(|cmd| cmd.path.len());
    let Some(cmd) = selected else {
        return Err(format!("ccsim: unknown command {first:?}; `ccsim --help` lists them"));
    };
    match Args::parse(cmd, &argv[cmd.path.len()..])? {
        Some(args) => (cmd.run)(&args),
        None => {
            print!("{}", cmd.help());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one command line through [`dispatch`], as every CLI test does.
    pub(crate) fn ccsim(argv: &[&str]) -> Result<(), String> {
        dispatch(&argv.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    /// A scratch dir holding `spec` as `spec.json`: `(dir, spec path)`.
    pub(crate) fn spec_dir(tag: &str, spec: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        std::fs::write(&spec_path, spec).unwrap();
        let spec_path = spec_path.to_str().unwrap().to_owned();
        (dir, spec_path)
    }

    #[test]
    fn bench_is_an_unknown_command() {
        // Performance is measured by `benchmark/run.sh`, not by this binary.
        let err = ccsim(&["bench", "--quick"]).unwrap_err();
        assert!(err.starts_with("ccsim: unknown command \"bench\""), "{err}");
    }

    #[test]
    fn every_row_renders_its_flags_and_the_help_renders_every_row() {
        let help = help();
        assert_eq!(COMMANDS.iter().map(|c| c.flags.len()).sum::<usize>(), 36);
        for (i, cmd) in COMMANDS.iter().enumerate() {
            let name = cmd.path.join(" ");
            assert!(COMMANDS[..i].iter().all(|c| c.path != cmd.path), "{name} has two rows");
            let synopsis = cmd.synopsis();
            assert!(synopsis.lines().all(|l| l.len() <= 80), "{synopsis}");
            assert!(help.contains(&synopsis), "`ccsim --help` lacks {name}");
            assert!(cmd.help().starts_with(&format!("USAGE:\n{synopsis}\n")), "{name}");
            assert!(!cmd.about.lines().next().unwrap().is_empty(), "{name} has no summary");
            for (j, flag) in cmd.flags.iter().enumerate() {
                assert!(flag.name.starts_with("--"), "{name} {}", flag.name);
                assert!(
                    cmd.flags[..j].iter().all(|f| f.name != flag.name),
                    "{name} declares {} twice",
                    flag.name
                );
                let rendered =
                    flag.metavar.map_or(flag.name.to_owned(), |m| format!("{} <{m}>", flag.name));
                assert!(
                    synopsis.replace("\n             ", "").contains(&rendered),
                    "{name} {rendered}"
                );
                assert!(!(flag.repeatable || flag.required) || flag.metavar.is_some());
            }
        }
        // The synopsis is not static text: this is what the table renders.
        assert!(help.contains(
            "    ccsim campaign worker <spec.json> --shared-dir <dir> [--worker-id <id>]\n"
        ));
        assert!(help.contains("[--policy <name>]..."), "{help}");
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_flag_is_a_bug_the_tests_catch() {
        let args = Args::parse(&lists::POLICIES, &[]).unwrap().unwrap();
        args.has("--json");
    }

    /// The parser's whole contract, through `dispatch`: each line is an
    /// argv and how its error must read (`None`: it must run).
    #[test]
    fn argument_errors_come_from_the_table() {
        let dir = std::env::temp_dir().join(format!("ccsim_cli_args_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let (t, out, unwritten) = (path("t.cctr"), path("o.cctr"), path("u.cctr"));
        let champsim =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/ingest_v1.champsim");
        ccsim(&["trace-gen", "--quick", "xsbench.small", &t]).expect("flags before positionals");
        let nope = path("nope.cctr");
        let cannot_open = format!("cannot open {nope}: No such file");
        let cases: &[(&[&str], Option<&str>)] = &[
            // Unknown flags, wherever a command has none of its own.
            (&["sim", &t, "--frob"], Some("ccsim sim: unknown flag \"--frob\"")),
            (&["policies", "--bogus", "extra"], Some("ccsim policies: unknown flag \"--bogus\"")),
            (&["trace-stats", &t, "--json"], Some("ccsim trace-stats: unknown flag \"--json\"")),
            // A flag is given once, unless the table says otherwise.
            (
                &["sim", &t, "--threads", "2", "--threads", "0"],
                Some("ccsim sim: --threads given more than once"),
            ),
            (&["sim", &t, "--json", "--json"], Some("ccsim sim: --json given more than once")),
            (&["sim", "--policy", "lru", "--llc-scale", "2", "--policy", "srrip", &t], None),
            (
                &["trace-gen", "xsbench.small", &unwritten, "--quick", "--quick"],
                Some("ccsim trace-gen: --quick given more than once"),
            ),
            (
                &["campaign", "watch", "spec.json", "--shared-dir", &out, "--shared-dir", &out],
                Some("ccsim campaign watch: --shared-dir given more than once"),
            ),
            // A value flag takes a value, and a declared flag is not one.
            (&["sim", &t, "--policy"], Some("ccsim sim: --policy needs a value <name>")),
            (
                &["ingest", champsim, &out, "--name", "--lossy"],
                Some("ccsim ingest: --name needs a value <name>"),
            ),
            (&["ingest", champsim, &out, "--name", "--odd-but-a-name"], None),
            (&["sim", &t, "--threads", "--help"], Some("ccsim sim: --threads needs a value <n>")),
            (&["sim", &t, "--threads", "two"], Some("ccsim sim: --threads needs a valid value")),
            (&["sim", &t, "--threads", "0"], Some("ccsim sim: --threads must be at least 1")),
            (
                &["campaign", "watch", "spec.json", "--shared-dir", &out, "--max-idle-ms", "0"],
                Some("ccsim campaign watch: --max-idle-ms must be at least 1"),
            ),
            // Positionals are counted.
            (&["sim"], Some("ccsim sim: missing <in>")),
            (&["ingest", champsim], Some("ccsim ingest: missing <out.cctr>")),
            (&["sim", &t, &out], Some("ccsim sim: unexpected argument")),
            (&["workloads", "extra"], Some("ccsim workloads: unexpected argument \"extra\"")),
            (
                &["campaign", "assemble", "spec.json", "extra", "--shared-dir", &out],
                Some("ccsim campaign assemble: unexpected argument \"extra\""),
            ),
            // Required flags are the table's too.
            (
                &["campaign", "watch", "spec.json"],
                Some("ccsim campaign watch: needs --shared-dir <dir>"),
            ),
            // A threshold is a finite number, at least 0.
            (
                &["report-diff", "a", "b", "--threshold", "nan"],
                Some("ccsim report-diff: --threshold must be a non-negative number"),
            ),
            (
                &["report-diff", "a", "b", "--threshold", "inf"],
                Some("ccsim report-diff: --threshold must be a non-negative number"),
            ),
            (
                &["report-diff", "a", "b", "--threshold", "-5"],
                Some("ccsim report-diff: --threshold must be a non-negative number"),
            ),
            // A run-time error (no `ccsim <cmd>:` prefix, no synopsis)
            // says what failed: here the open, not an ingest.
            (&["trace-stats", &nope], Some(&cannot_open)),
            // A removed policy is an unknown one, refused before the input
            // is opened.
            (
                &["sim", "x", "--policy", "fifo"],
                Some(
                    "unknown policy \"fifo\", expected one of: lru, srrip, drrip, ship, hawkeye, \
                     glider, mpppb",
                ),
            ),
            // `--help` wins over what else is on the line and runs nothing.
            (&["sim", "--help"], None),
            (&["campaign", "worker", "-h"], None),
            (&["campaign", "watch", "--help", "--shared-dir"], None),
        ];
        for (argv, expected) in cases {
            match (ccsim(argv), expected) {
                (Ok(()), None) => {}
                (Err(err), Some(expected)) if !expected.starts_with("ccsim ") => {
                    assert!(err.starts_with(expected), "{argv:?}: {err}");
                    assert!(!err.contains("USAGE") && !err.contains("ingest"), "{argv:?}: {err}");
                }
                (Err(err), Some(expected)) => {
                    assert!(err.starts_with(expected), "{argv:?}: {err}");
                    let usage = err.split_once("\n\nUSAGE:\n").expect(&err).1;
                    let cmd = expected.split(':').next().unwrap();
                    assert!(usage.trim_start().starts_with(cmd), "{argv:?}: {err}");
                    assert!(usage.lines().count() <= 4, "only that command's synopsis: {err}");
                }
                (got, _) => panic!("{argv:?}: expected {expected:?}, got {got:?}"),
            }
        }
        assert!(!std::path::Path::new(&unwritten).exists(), "a rejected line must run nothing");
        let sim_help = sim::SIM.help();
        assert!(sim_help.contains("[--policy <name>]...") && sim_help.contains("one-workload"));
        assert!(
            sim_help.lines().count() < 30 && !sim_help.contains("ccsim campaign"),
            "{sim_help}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
