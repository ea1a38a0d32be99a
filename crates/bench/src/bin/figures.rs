//! Regenerate the paper's figures and run the verify / chaos / trace sweeps.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|all] [--full] [--smoke] [--sf <f64>]
//!         [--placements <p,p,...>] [--packet-rows <n>] [--threads <n,n,...>]
//!         [--verify | --chaos [--seed <n>]] [--users <n>] [--out <path>]
//!         [--trace <path>] [--profile]
//! ```
//!
//! Default sizes are scaled down (each figure function in
//! `hape_bench::figures` documents its rule); `--full` uses paper-scale
//! inputs where host memory permits (slow). `--smoke` shrinks every figure
//! to seconds of runtime — the CI guard that keeps this harness runnable.
//! Wall-clock timing is the repo benchmark's job (`benchmarks/`), not this
//! binary's.
//!
//! `--placements` selects the Proteus series of fig8 by name (`cpu`,
//! `gpu`, `hybrid`, `auto` — `Placement`'s `FromStr`); `auto` plots the
//! cost-based optimizer against the manual placements. `--packet-rows`
//! overrides the auto packet-sizing heuristic for sweeps; `--threads`
//! pins the data-plane pool size (its first value is used).
//!
//! `--verify` runs the static-verification sweep instead: every benchmark
//! query × placement through the static IR checker, cross-checked
//! against the engine's runtime verdict (`--users` sizes the behavioral
//! event log). Written to `VERIFY_tpch.json` (`--out` overrides); the
//! process exits non-zero unless every cell agrees.
//!
//! `--chaos` runs the fault-injection sweep instead: every benchmark
//! query × placement executed clean and under the canonical seeded fault
//! plan (`--seed` varies the schedule), recording fired faults, priced
//! retries/replans and the degraded/clean makespan ratio per cell, and
//! asserting the answers survive recovery — the process exits non-zero
//! when any cell's rows diverge. Written to `CHAOS_tpch.json` (`--out`
//! overrides); CI smoke runs it and uploads the artifact.
//!
//! `--trace <path>` runs the TPC-H workload under the cost-based
//! optimizer with the execution tracing plane attached and writes the
//! Chrome trace JSON (sim-time and wall-time lanes, workers as threads —
//! load it in `chrome://tracing` or Perfetto). `--profile` prints the
//! deterministic plain-text predicted-vs-observed profile table instead
//! (the two flags compose: one traced run feeds both exporters).
//!
//! Unknown `--flags`, unknown figure ids and flag values that do not parse
//! (`--sf abc`, `--placements foo`) are rejected with an error and the
//! usage synopsis (exit code 2) — a typo like `--trase x.json` or `fig10`
//! aborts instead of silently running something else, or nothing. An
//! artifact that cannot be written (`--trace`, `--out`) is an error on
//! stderr and exit code 1.

use hape_bench::chaos::{chaos_tpch, print_chaos};
use hape_bench::figures::{fig5, fig6, fig7, fig8_opts, fig9, print_figure};
use hape_bench::trace::{trace_tpch, write_chrome_trace};
use hape_bench::verify::{print_verify, verify_tpch};
use hape_core::Placement;

/// Flags that take a value.
const VALUE_FLAGS: [&str; 8] = [
    "--sf",
    "--placements",
    "--packet-rows",
    "--threads",
    "--out",
    "--users",
    "--trace",
    "--seed",
];
/// Flags that stand alone.
const BOOL_FLAGS: [&str; 5] = ["--full", "--smoke", "--profile", "--verify", "--chaos"];
/// The positional figure ids.
const FIGURE_IDS: [&str; 6] = ["fig5", "fig6", "fig7", "fig8", "fig9", "all"];

const USAGE: &str = "usage: figures [fig5|fig6|fig7|fig8|fig9|all] [--full] [--smoke] \
                     [--sf <f64>] [--placements <p,p,...>] [--packet-rows <n>] \
                     [--threads <n,n,...>] [--verify | --chaos [--seed <n>]] [--users <n>] \
                     [--out <path>] [--trace <path>] [--profile]";

/// A rejected command line — typed, so a typo aborts with the usage
/// synopsis instead of silently running without the intended flag.
#[derive(Debug)]
enum CliError {
    /// A `--flag` that is neither a value flag nor a boolean flag.
    UnknownFlag(String),
    /// A value flag at the end of the line, with nothing following it.
    MissingValue(String),
    /// A positional argument that names no figure.
    UnknownFigure(String),
    /// A flag's value that does not parse as what the flag takes.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What followed it.
        value: String,
    },
    /// An artifact (`--trace`, `--out`) could not be written. The one
    /// variant that is not a usage error: exit code 1, no synopsis.
    Write {
        /// The path given.
        path: String,
        /// Why the write failed.
        error: std::io::Error,
    },
}

impl CliError {
    /// 2 for a rejected command line, 1 for a failed run.
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Write { .. } => 1,
            _ => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} expects a value"),
            CliError::UnknownFigure(id) => write!(f, "unknown figure: {id}"),
            CliError::BadValue { flag, value } => write!(f, "bad value for {flag}: {value}"),
            CliError::Write { path, error } => write!(f, "writing {path}: {error}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Every argument must be a known flag, a known flag's value (`--sf 0.1`
/// must not make `0.1` the figure id), or a positional figure id. Returns
/// the first figure id given.
fn validate_args(args: &[String]) -> Result<Option<&str>, CliError> {
    let mut is_value = false;
    let mut figure = None;
    for a in args {
        if is_value {
            is_value = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            is_value = true;
            continue;
        }
        if BOOL_FLAGS.contains(&a.as_str()) {
            continue;
        }
        if a.starts_with("--") {
            return Err(CliError::UnknownFlag(a.clone()));
        }
        if !FIGURE_IDS.contains(&a.as_str()) {
            return Err(CliError::UnknownFigure(a.clone()));
        }
        figure = figure.or(Some(a.as_str()));
    }
    if is_value {
        return Err(CliError::MissingValue(args.last().expect("non-empty").clone()));
    }
    Ok(figure)
}

/// The value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
}

/// The value following `flag` run through `parse`; one that does not
/// parse is a typed refusal, never a silent default.
fn parsed<T, E>(
    args: &[String],
    flag: &'static str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Option<T>, CliError> {
    flag_value(args, flag)
        .map(|v| parse(v).map_err(|_| CliError::BadValue { flag, value: v.clone() }))
        .transpose()
}

/// `--threads`: the data-plane pool size (of a list, the first value).
fn first_count(list: &str) -> Result<usize, std::num::ParseIntError> {
    list.split(',').next().unwrap_or_default().parse::<usize>().map(|n| n.max(1))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("{e}");
        if e.exit_code() == 2 {
            eprintln!("{USAGE}");
        }
        std::process::exit(e.exit_code());
    }
}

/// A failed write of the artifact at `path`, as the error `run` returns.
fn unwritable(path: &str) -> impl FnOnce(std::io::Error) -> CliError + '_ {
    move |error| CliError::Write { path: path.to_string(), error }
}

/// Check the whole command line — arguments, then every typed flag value,
/// before any work starts — and run what it asks for.
fn run(args: &[String]) -> Result<(), CliError> {
    let figure = validate_args(args)?;
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let sf = parsed(args, "--sf", str::parse)?.unwrap_or(if full {
        1.0
    } else if smoke {
        0.01
    } else {
        0.05
    });
    let placements = parsed(args, "--placements", |v| v.split(',').map(str::parse).collect())?
        .unwrap_or_else(|| {
            vec![Placement::CpuOnly, Placement::Hybrid, Placement::GpuOnly, Placement::Auto]
        });
    let packet_rows: Option<usize> = parsed(args, "--packet-rows", str::parse)?;
    let threads = parsed(args, "--threads", first_count)?;
    let users =
        parsed(args, "--users", str::parse)?.unwrap_or(if smoke { 2_000 } else { 20_000 });
    let seed: u64 = parsed(args, "--seed", str::parse)?.unwrap_or(42);

    // `--trace` / `--profile`: one traced TPC-H run under Auto feeds both
    // exporters — the Chrome JSON artifact and/or the profile table.
    let trace_path = flag_value(args, "--trace");
    let profile = args.iter().any(|a| a == "--profile");
    if trace_path.is_some() || profile {
        let trace = trace_tpch(sf, threads, packet_rows);
        if let Some(path) = trace_path {
            write_chrome_trace(&trace, path).map_err(unwritable(path))?;
            println!(
                "wrote {path} ({} spans, {} counters)",
                trace.spans.len(),
                trace.counters.len()
            );
        }
        if profile {
            print!("{}", trace.render_profile());
        }
        return Ok(());
    }

    if args.iter().any(|a| a == "--verify") {
        let out = flag_value(args, "--out").map(String::as_str).unwrap_or("VERIFY_tpch.json");
        let sweep = verify_tpch(sf, users);
        print_verify(&sweep);
        std::fs::write(out, hape_bench::verify::to_json(&sweep) + "\n")
            .map_err(unwritable(out))?;
        println!("wrote {out}");
        if !sweep.clean() {
            eprintln!("static and runtime verdicts disagree — see {out}");
            std::process::exit(1);
        }
        return Ok(());
    }

    if args.iter().any(|a| a == "--chaos") {
        let out = flag_value(args, "--out").map(String::as_str).unwrap_or("CHAOS_tpch.json");
        let sweep = chaos_tpch(sf, users, seed);
        print_chaos(&sweep);
        std::fs::write(out, hape_bench::chaos::to_json(&sweep) + "\n")
            .map_err(unwritable(out))?;
        println!("wrote {out}");
        if !sweep.rows_identical() {
            eprintln!("a fault schedule changed an answer — see {out}");
            std::process::exit(1);
        }
        return Ok(());
    }

    let run = |id: &str| figure.is_none_or(|f| f == "all" || f == id);

    if run("fig5") {
        let tuples = if full {
            32 << 20
        } else if smoke {
            1 << 17
        } else {
            1 << 20
        };
        let sizes: &[usize] =
            if smoke { &[256, 1024, 4096] } else { &[128, 256, 512, 1024, 2048, 4096] };
        print_figure(&fig5(tuples, sizes));
    }
    if run("fig6") {
        let sizes: Vec<usize> = if full {
            vec![1 << 20, 1 << 23, 1 << 25, 1 << 27]
        } else if smoke {
            vec![1 << 19, 1 << 21]
        } else {
            vec![1 << 20, 1 << 21, 1 << 22, 1 << 23]
        };
        print_figure(&fig6(&sizes));
    }
    if run("fig7") {
        let sizes: Vec<usize> = if full {
            vec![256 << 20, 512 << 20, 1024 << 20]
        } else if smoke {
            vec![1 << 20, 1 << 21]
        } else {
            vec![1 << 21, 1 << 22, 1 << 23, 1 << 24]
        };
        print_figure(&fig7(&sizes));
    }
    if run("fig8") {
        print_figure(&fig8_opts(sf, &placements, packet_rows, threads));
    }
    if run("fig9") {
        print_figure(&fig9(sf));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flags_and_figure_ids_are_rejected() {
        assert!(matches!(validate_args(&args("--sf 0.01 fig8 --smoke")), Ok(Some("fig8"))));
        assert!(matches!(validate_args(&args("--chaos --seed 7 --users 100")), Ok(None)));
        // A flag's value is not mistaken for a figure id.
        assert!(matches!(validate_args(&args("--out fig10")), Ok(None)));
        assert!(matches!(
            validate_args(&args("--trase x.json")),
            Err(CliError::UnknownFlag(f)) if f == "--trase"
        ));
        assert!(matches!(
            validate_args(&args("fig10 --smoke")),
            Err(CliError::UnknownFigure(id)) if id == "fig10"
        ));
        assert!(matches!(
            validate_args(&args("fig8 --sf")),
            Err(CliError::MissingValue(f)) if f == "--sf"
        ));
    }

    #[test]
    fn flag_values_that_do_not_parse_are_rejected() {
        // Every typed value is checked before any work starts, so a bad one
        // returns at once.
        let lines =
            "--sf abc|--placements cpu,foo|--packet-rows x|--threads x,2|--users -3|--seed 1.5";
        for line in lines.split('|') {
            let (flag, value) = line.split_once(' ').expect("flag and value");
            let err = run(&args(&format!("--smoke {line}"))).expect_err(line);
            assert!(
                matches!(&err, CliError::BadValue { flag: f, value: v } if *f == flag && v == value),
                "{line}: {err}"
            );
        }
        let threads = parsed(&args("--threads 4,8"), "--threads", first_count);
        assert!(matches!(threads, Ok(Some(4))));
        assert!(matches!(parsed(&args("--smoke"), "--sf", str::parse::<f64>), Ok(None)));
    }

    #[test]
    fn an_unwritable_artifact_is_an_error_with_exit_code_1_not_a_panic() {
        let err =
            run(&args("--smoke --trace /nonexistent-dir/trace.json")).expect_err("no dir");
        assert!(
            matches!(&err, CliError::Write { path, .. } if path == "/nonexistent-dir/trace.json"),
            "{err}"
        );
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().starts_with("writing /nonexistent-dir/trace.json: "), "{err}");
        // Usage errors keep their own code.
        assert_eq!(CliError::UnknownFlag("--x".into()).exit_code(), 2);
    }
}
