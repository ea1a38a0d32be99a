//! TPC-H on HAPE: run Q1/Q5/Q6/Q9* under a CLI-selectable placement list
//! (the paper's Figure 8 setting) and print the outcome, including the Q9
//! GPU-only out-of-memory failure and the cost-based optimizer (`auto`)
//! planning the §5 intra-operator co-processing stage that completes it —
//! no hand-written fallback anywhere.
//!
//! The queries are logical `Query` builders over named columns; the
//! session lowers them (with automatic projection pushdown and memoised
//! shared build sides), optimizes (`auto` only: per-stage device subsets
//! — and probe execution modes — from the hardware model), places them
//! (explicit per-device segments + exchange operators — pass `--explain`
//! to see Q9's placed plan with the co-process stage and cost estimates),
//! and interprets the placed plans.
//!
//! ```text
//! cargo run --release --example tpch_hybrid [sf] [--explain]
//!     [--placements cpu,gpu,hybrid,auto] [--packet-rows <n>] [--threads <n>]
//!     [--concurrency <n>] [--trace <path>] [--profile]
//! ```
//!
//! `--packet-rows` overrides the engine's auto packet-sizing heuristic
//! (`ExecConfig::auto_packet_rows`) and `--threads` pins the data-plane
//! worker pool — both sweepable without recompiling. Simulated times are
//! thread-count-invariant; packet size genuinely changes the routing.
//!
//! `--concurrency N` additionally drives the whole matrix through the
//! concurrent serving layer: every (query, placement) cell is submitted N
//! times to one `SessionServer` sharing the fleet, so the run exercises
//! device-aware admission (GPU-hungry queries queue instead of OOMing the
//! fleet) and the cross-query build cache (repeats skip memoised builds) —
//! and prints the batch summary next to the solo table.
//!
//! `--concurrency` **composes with `--placements`**: the batch contains
//! `queries × placements × N` submissions, so narrowing the placement list
//! shrinks the concurrent workload too (e.g. `--placements auto
//! --concurrency 8` serves 32 optimizer-planned queries and nothing else).
//! Per-cell failures (Q9's manual GPU OOM) stay isolated inside the batch,
//! exactly as in the solo table. `--packet-rows` and `--threads` apply to
//! every submission in both modes.
//!
//! `--trace <path>` re-runs the four queries under the cost-based
//! optimizer with the execution tracing plane attached and writes the
//! Chrome trace JSON (load it in `chrome://tracing` or Perfetto);
//! `--profile` prints the deterministic predicted-vs-observed per-stage
//! profile table from the same traced run.
//!
//! Unknown `--flags` are rejected with an error and the usage synopsis —
//! a typo like `--concurency 4` aborts instead of silently running the
//! solo matrix.

use hape::core::serve::SessionServer;
use hape::core::trace::TraceRecorder;
use hape::core::{ExecConfig, JoinAlgo, PlacedStage, Placement};
use hape::sim::topology::Server;
use hape::tpch::queries::{q1_query, q5_query, q6_query, q9_query, tpch_session};

/// Flags that take a value.
const VALUE_FLAGS: [&str; 5] =
    ["--placements", "--packet-rows", "--threads", "--concurrency", "--trace"];
/// Flags that stand alone.
const BOOL_FLAGS: [&str; 2] = ["--explain", "--profile"];

const USAGE: &str = "usage: tpch_hybrid [sf] [--explain] \
                     [--placements cpu,gpu,hybrid,auto] [--packet-rows <n>] \
                     [--threads <n>] [--concurrency <n>] [--trace <path>] [--profile]";

/// A rejected command line — typed, so a typo aborts with the usage
/// synopsis instead of silently running without the intended flag.
#[derive(Debug)]
enum CliError {
    /// A `--flag` that is neither a value flag nor a boolean flag.
    UnknownFlag(String),
    /// A value flag at the end of the line, with nothing following it.
    MissingValue(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} expects a value"),
        }
    }
}

impl std::error::Error for CliError {}

/// Every argument must be a known flag, a known flag's value, or the
/// positional scale factor.
fn validate_args(args: &[String]) -> Result<(), CliError> {
    let mut is_value = false;
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
    }
    if is_value {
        return Err(CliError::MissingValue(args.last().expect("non-empty").clone()));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = validate_args(&args) {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    }
    let value_at: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| VALUE_FLAGS.contains(&a.as_str()))
        .map(|(i, _)| i + 1)
        .collect();
    // The scale factor is the first positional argument — skipping flags
    // and their values.
    let sf: f64 = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && !value_at.contains(i))
        .and_then(|(_, a)| a.parse().ok())
        .unwrap_or(0.05);
    let flag_value =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let placements: Vec<Placement> = flag_value("--placements")
        .map(|list| {
            list.split(',')
                .map(|p| p.parse::<Placement>().unwrap_or_else(|e| panic!("{e}")))
                .collect()
        })
        .unwrap_or_else(|| {
            vec![Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto]
        });
    let packet_rows: Option<usize> = flag_value("--packet-rows")
        .map(|v| v.parse().unwrap_or_else(|_| panic!("--packet-rows expects a row count")));
    let threads: Option<usize> = flag_value("--threads")
        .map(|v| v.parse().unwrap_or_else(|_| panic!("--threads expects a thread count")));
    let concurrency: Option<usize> = flag_value("--concurrency")
        .map(|v| v.parse().unwrap_or_else(|_| panic!("--concurrency expects a copy count")));
    let trace_path: Option<String> = flag_value("--trace").cloned();
    let profile = args.iter().any(|a| a == "--profile");
    println!("generating TPC-H at SF {sf} …");
    let data = hape::tpch::generate(sf, 42);
    // GPU memory scales with SF so the paper's SF-100 capacity effects hold.
    let session = tpch_session(&data, Server::tpch_scaled(sf));

    let mk_cfg = |placement: Placement| {
        let mut cfg = ExecConfig::new(placement);
        cfg.packet_rows = packet_rows;
        cfg.threads = threads;
        cfg
    };

    if args.iter().any(|a| a == "--explain") {
        // Q9 under Auto renders the optimizer's headline decision: the
        // stream stage becomes a co-processing stage (CPU co-partition →
        // per-GPU single-pass joins) with its cost decomposition.
        let q9 = q9_query(JoinAlgo::Partitioned);
        let cfg = mk_cfg(*placements.last().unwrap_or(&Placement::Auto));
        println!("{}", session.explain_with(&q9, &cfg).expect("Q9 places"));
    }

    let queries = vec![
        ("Q1", q1_query()),
        ("Q5", q5_query(JoinAlgo::Partitioned)),
        ("Q6", q6_query()),
        ("Q9*", q9_query(JoinAlgo::Partitioned)),
    ];
    print!("{:<5}", "query");
    for p in &placements {
        print!(" {:>16}", p.to_string());
    }
    println!();
    for (name, query) in &queries {
        print!("{name:<5}");
        for &placement in &placements {
            let cfg = mk_cfg(placement);
            // Q9's hash tables exceed GPU memory (§6.4): the manual GPU
            // placements report the OOM, while `auto` plans the §5
            // co-processing stage and completes — flagged in the cell.
            let cell = match session.execute_with(query, &cfg) {
                Ok(r) => {
                    // Only the optimizer can plan a co-processing stage;
                    // manual placements never do, so only `auto` cells pay
                    // the extra placement pass for the tag.
                    let coproc = placement == Placement::Auto
                        && session.place_with(query, &cfg).is_ok_and(|placed| {
                            placed
                                .stages
                                .iter()
                                .any(|s| matches!(s, PlacedStage::CoProcess { .. }))
                        });
                    if coproc {
                        format!("{} (coproc)", r.time)
                    } else {
                        format!("{}", r.time)
                    }
                }
                Err(_) => "OOM".to_string(),
            };
            print!(" {cell:>16}");
        }
        println!();
    }

    // `--concurrency N`: re-run the whole matrix through the serving layer
    // — N copies of every cell interleaved over one shared fleet. Failures
    // (Q9's manual GPU OOM) stay per-query; repeats hit the build cache.
    if let Some(copies) = concurrency {
        let mut server = SessionServer::new(session.clone());
        let mut handles = Vec::new();
        for (name, query) in &queries {
            for &placement in &placements {
                for _ in 0..copies {
                    handles.push((
                        name,
                        placement,
                        server.submit_with(query, &mk_cfg(placement)),
                    ));
                }
            }
        }
        let submitted = handles.len();
        println!("\nserving {submitted} concurrent queries ({copies} copies per cell) …");
        let batch = server.run_all();
        let (mut ok, mut failed) = (0usize, 0usize);
        for (name, placement, handle) in &handles {
            match batch.report(*handle) {
                Ok(_) => ok += 1,
                Err(e) => {
                    failed += 1;
                    println!("  {name}/{placement}: {e}");
                }
            }
        }
        let stats = server.cache_stats();
        println!(
            "completed {ok}/{submitted} ({failed} failed), admission waits {}, \
             cache-served builds {} (hits {}, misses {})",
            batch.total_admission_waits(),
            batch.total_builds_cached(),
            stats.hits,
            stats.misses
        );
    }

    // `--trace` / `--profile`: one traced run of the four queries under
    // the optimizer feeds both exporters. Recording is a pure observer —
    // the traced makespans match the `auto` column above bit-for-bit.
    if trace_path.is_some() || profile {
        let recorder = TraceRecorder::new();
        for (name, query) in &queries {
            let cfg = mk_cfg(Placement::Auto).with_trace(recorder.clone());
            session
                .execute_with(query, &cfg)
                .unwrap_or_else(|e| panic!("{name} completes under auto: {e}"));
        }
        let trace = recorder.snapshot();
        if let Some(path) = &trace_path {
            std::fs::write(path, trace.to_chrome_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!(
                "\nwrote {path} ({} spans, {} counters)",
                trace.spans.len(),
                trace.counters.len()
            );
        }
        if profile {
            println!();
            print!("{}", trace.render_profile());
        }
    }
}
