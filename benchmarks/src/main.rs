//! `bench` — the repo benchmark.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
//! bench compare <a.json> <b.json>
//! ```
//!
//! One process per workload. Every metric is printed as `name value unit`;
//! the last line of standard output is the result object. See README.md.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod replay;
mod report;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod timed;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use timed::Args;
use workload::Workload;

const USAGE: &str = "usage:
  bench --workload <tpch_scan|tpch_join|behavioral|serve_mixed> [--seed <n>] [--seconds <s>]
        [--trace <0|1>] [--smoke] [--out <file>]
  bench compare <a.json> <b.json>";

/// Where the traced run leaves its Chrome trace: `out/` of this package.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Cli {
    run: Args,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut smoke, mut out) =
        (420u64, 28u64, false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli { run: Args { workload, seed, seconds, smoke }, traced, out })
}

/// Run one workload and print its result. Failed operations are part of
/// the result (`correct`, `failed`), not of the exit code.
fn run(cli: &Cli) -> Result<(), String> {
    let report = if cli.traced {
        let (report, log) = traced::run(&cli.run)?;
        let path = PathBuf::from(OUT_DIR).join(format!("{}.trace.json", report.workload));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, log.to_chrome_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report
    } else {
        timed::run(&cli.run)?
    };
    if let Some(path) = &cli.out {
        std::fs::write(path, report.to_json().to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.listing());
    println!("{}", report.contract_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((first, rest)) if first == "compare" => match rest {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&args).and_then(|cli| run(&cli)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
