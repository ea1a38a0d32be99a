//! The tracing front-end of the bench harness: run the TPC-H workload
//! under the cost-based optimizer with a [`TraceRecorder`] attached and
//! export the result — `figures --trace <path>` writes the Chrome trace
//! JSON (load it in `chrome://tracing` or Perfetto), `figures --profile`
//! prints the plain-text predicted-vs-observed profile table.
//!
//! The simulated side of everything exported here is deterministic: the
//! profile table is bit-identical across runs and thread counts, while
//! the Chrome export's wall-time lane reflects the real elapsed time of
//! this particular run.

use hape_core::{ExecConfig, Placement, Trace, TraceRecorder};

use crate::tpch_suite;

/// Run Q1/Q5/Q6/Q9* once each under [`Placement::Auto`] with tracing on
/// and return the combined [`Trace`]: per-query/stage/packet spans, the
/// optimizer's estimates next to observed stage times, and the engine
/// counters. `threads` pins the data-plane pool (wall-clock only);
/// `packet_rows` overrides the auto packet-sizing heuristic.
pub fn trace_tpch(sf: f64, threads: Option<usize>, packet_rows: Option<usize>) -> Trace {
    let recorder = TraceRecorder::new();
    for (engine, q) in tpch_suite(sf) {
        let mut cfg = ExecConfig::new(Placement::Auto).with_trace(recorder.clone());
        cfg.threads = threads;
        cfg.packet_rows = packet_rows;
        engine
            .run(&q.catalog, &q.plan, &cfg)
            .unwrap_or_else(|e| panic!("{} completes under Auto: {e}", q.plan.name));
    }
    recorder.snapshot()
}

/// Write a trace's Chrome JSON export to `path` (conventionally
/// `TRACE_tpch.json`, uploaded by CI next to the verify and chaos sweeps).
pub fn write_chrome_trace(trace: &Trace, path: &str) -> std::io::Result<()> {
    std::fs::write(path, trace.to_chrome_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_core::SpanKind;

    #[test]
    fn traced_tpch_smoke_exports_all_layers() {
        let trace = trace_tpch(0.01, Some(1), None);
        // All four layers left spans: optimizer estimates, query roots,
        // stages, packets.
        for kind in [SpanKind::Optimize, SpanKind::Query, SpanKind::Stage, SpanKind::Packet] {
            assert!(trace.spans.iter().any(|s| s.kind == kind), "no {kind} span in traced run");
        }
        assert_eq!(trace.spans.iter().filter(|s| s.kind == SpanKind::Query).count(), 4);
        // Every stage span of an Auto run carries the estimate side.
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Stage)
            .all(|s| s.estimate.is_some()));
        let json = trace.to_chrome_json();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains("\"sim-time\"") && json.contains("\"wall-time\""));
        let profile = trace.render_profile();
        assert!(profile.contains("Q5") && profile.contains("est/act"));
    }
}
