//! Regenerate the paper's figures.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|all] [--full] [--smoke] [--sf <f64>]
//!         [--placements <p,p,...>] [--packet-rows <n>]
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
//! overrides the auto packet-sizing heuristic, which changes the simulated
//! routing.
//!
//! Unknown `--flags`, unknown figure ids and flag values that do not parse
//! (`--sf abc`, `--placements foo`) are rejected with an error and the
//! usage synopsis (exit code 2) — a typo like `--placement auto` or `fig10`
//! aborts instead of silently running something else, or nothing.

use hape_bench::figures::{fig5, fig6, fig7, fig8, fig9, print_figure};
use hape_core::Placement;

/// Flags that take a value.
const VALUE_FLAGS: [&str; 3] = ["--sf", "--placements", "--packet-rows"];
/// Flags that stand alone.
const BOOL_FLAGS: [&str; 2] = ["--full", "--smoke"];
/// The positional figure ids.
const FIGURE_IDS: [&str; 6] = ["fig5", "fig6", "fig7", "fig8", "fig9", "all"];

const USAGE: &str = "usage: figures [fig5|fig6|fig7|fig8|fig9|all] [--full] [--smoke] \
                     [--sf <f64>] [--placements <p,p,...>] [--packet-rows <n>]";

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
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} expects a value"),
            CliError::UnknownFigure(id) => write!(f, "unknown figure: {id}"),
            CliError::BadValue { flag, value } => write!(f, "bad value for {flag}: {value}"),
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    }
}

/// Check the whole command line — arguments, then every typed flag value,
/// before any work starts — and print the figures it asks for.
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
        print_figure(&fig8(sf, &placements, packet_rows));
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
        // A flag's value is not mistaken for a figure id.
        assert!(matches!(validate_args(&args("--placements fig10")), Ok(None)));
        // Tracing, sweeps and thread counts are other tools' flags.
        for flag in ["--trace", "--profile", "--verify", "--chaos", "--threads", "--out"] {
            assert!(
                matches!(validate_args(&args(flag)), Err(CliError::UnknownFlag(f)) if f == flag),
                "{flag}"
            );
        }
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
        for line in ["--sf abc", "--placements cpu,foo", "--packet-rows x"] {
            let (flag, value) = line.split_once(' ').expect("flag and value");
            let err = run(&args(&format!("--smoke {line}"))).expect_err(line);
            assert!(
                matches!(&err, CliError::BadValue { flag: f, value: v } if *f == flag && v == value),
                "{line}: {err}"
            );
        }
        assert!(matches!(parsed(&args("--smoke"), "--sf", str::parse::<f64>), Ok(None)));
    }
}
