//! `ccsim-benchmark`: see `README.md`, or run it through `run.sh` and
//! `compare.sh`.

use std::path::PathBuf;
use std::process::ExitCode;

use ccsim_benchmark::alloc::CountingAlloc;
use ccsim_benchmark::compare::compare;
use ccsim_benchmark::suite::{self, Options};
use ccsim_benchmark::workloads::Workload;
use ccsim_campaign::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]
              [--smoke] [--out FILE] [--dir DIR]
       compare.sh A.json B.json

  --workload NAME  gap_miss | hit_resident | grid_band | campaign_cold (default: all
                   four); with it, the last line of stdout is the one-line result
  --seed N         seed of every input (default 42)
  --seconds S      seconds of timed reps per workload (default 20)
  --trace 1        traced run: per-layer metrics, span files, cost model (--traced)
  --smoke          tiny inputs and one rep; marks the output \"smoke\": true
  --out FILE       write the result document there instead of stdout
  --dir DIR        working files go to DIR/scratch (removed at exit), span files to
                   DIR/out (default benchmark/target)";

fn parse(args: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let mut o = Options {
        seed: 42,
        workload: None,
        seconds: 20.0,
        traced: false,
        smoke: false,
        dir: PathBuf::from("benchmark/target"),
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(0.0..=600.0).contains(&o.seconds) {
                    return Err(format!("--seconds {} is outside 0..=600", o.seconds));
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => o.traced = false,
                "1" => o.traced = true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            },
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--dir" => o.dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((o, out))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    if let [cmd, a, b] = args {
        if cmd == "compare" {
            let comparison = compare(&read_json(a)?, &read_json(b)?)?;
            print!("{}", comparison.render());
            return Ok(if comparison.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE });
        }
    }
    let (options, out) = parse(args)?;
    let document = suite::run(&options)?;
    let pretty = document.to_json()?.to_pretty();
    match &out {
        Some(path) => {
            std::fs::write(path, &pretty).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => print!("{pretty}"),
    }
    if options.workload.is_some() {
        println!("{}", document.contract_line()?);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; measure optimized code (run.sh builds --release)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
