//! Determinism of the two-plane runtime across data-plane thread counts.
//!
//! The engine's control plane (router + sim-time accounting) runs
//! sequentially on the coordinator while the data plane (kernels, per-class
//! pricing, per-worker aggregation folds) fans out over the `runtime` pool.
//! The guarantee under test: **`ExecConfig::threads` is a pure wall-clock
//! knob** — result rows, simulated makespans, packet routing counts and
//! h2d traffic are bit-identical for threads ∈ {1, 2, 8} across the TPC-H
//! × placement matrix, including Q9's optimizer-planned co-processing
//! stage, and typed failures (Q9's §6.4 GPU OOM) reproduce identically
//! too. A tiny-packet stress run hammers the pool with thousands of
//! packets per stage to shake out ordering bugs.

mod common;

use common::assert_reports_identical;
use hape::core::{ExecConfig, JoinAlgo, Placement, Query, QueryReport, Session};
use hape::ops::{col, AggFunc};
use hape::sim::topology::Server;
use hape::storage::datagen::gen_key_fk_table;
use hape::tpch::queries::{self, q1_query, q5_query, q6_query, q9_query};

const SF: f64 = 0.01;
const THREADS: [usize; 3] = [1, 2, 8];

fn tpch_session() -> Session {
    queries::tpch_session(&hape::tpch::generate(SF, 7170), Server::tpch_scaled(SF))
}

#[test]
fn simulated_results_are_bit_identical_across_thread_counts() {
    let session = tpch_session();
    let queries: Vec<Query> = vec![
        q1_query(),
        q5_query(JoinAlgo::NonPartitioned),
        q5_query(JoinAlgo::Partitioned),
        q6_query(),
        q9_query(JoinAlgo::NonPartitioned),
    ];
    let placements =
        [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto];
    for query in &queries {
        for placement in placements {
            let mut reference: Option<Result<QueryReport, String>> = None;
            for threads in THREADS {
                let cfg = ExecConfig::new(placement).with_threads(threads);
                let outcome = session.execute_with(query, &cfg).map_err(|e| format!("{e}"));
                match (&reference, &outcome) {
                    (None, _) => reference = Some(outcome),
                    (Some(Ok(want)), Ok(got)) => {
                        let ctx = format!("{}/{placement:?} threads={threads}", query.name);
                        assert_reports_identical(got, want, &ctx);
                    }
                    (Some(Err(want)), Err(got)) => {
                        assert_eq!(
                            got, want,
                            "{}/{placement:?}: error diverged at threads={threads}",
                            query.name
                        );
                    }
                    (Some(want), got) => panic!(
                        "{}/{placement:?}: success/failure flipped at threads={threads}: \
                         {want:?} vs {got:?}",
                        query.name
                    ),
                }
            }
        }
    }
}

#[test]
fn q9_coprocess_stage_is_thread_count_invariant() {
    // Q9 under Auto exercises every runtime path at once: parallel build
    // stages, the CPU prefix through the packet loop, the co-processing
    // join, and the chunked parallel fold.
    let session = tpch_session();
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    let mut reports = Vec::new();
    // 140 leaves the partition pass a shortfall larger than one chunk at
    // this scale: the count must stay a wall-clock knob there too.
    for threads in THREADS.into_iter().chain([140]) {
        let cfg = ExecConfig::new(Placement::Auto).with_threads(threads);
        reports.push(session.execute_with(&q9, &cfg).expect("Q9 Auto completes"));
    }
    assert!(reports[0].packets_gpu > 0, "co-partitions must reach the GPUs");
    for rep in &reports[1..] {
        assert_eq!(rep.rows, reports[0].rows);
        assert_eq!(rep.time, reports[0].time);
        assert_eq!(rep.h2d_bytes, reports[0].h2d_bytes);
        assert_eq!(rep.packets_gpu, reports[0].packets_gpu);
    }
}

#[test]
fn concurrent_serving_is_thread_count_invariant() {
    // The serving layer interleaves many queries over the shared fleet;
    // its per-query sim-time isolation must compose with the two-plane
    // runtime's guarantee: the whole batch's reports are bit-identical at
    // any data-plane thread count.
    use hape::core::serve::SessionServer;
    let session = tpch_session();
    let queries: Vec<Query> = vec![q1_query(), q5_query(JoinAlgo::Partitioned), q6_query()];
    let placements = [Placement::CpuOnly, Placement::Hybrid, Placement::Auto];
    let mut reference: Option<Vec<QueryReport>> = None;
    for threads in THREADS {
        let mut server = SessionServer::new(session.clone());
        let mut handles = Vec::new();
        for query in &queries {
            for placement in placements {
                let cfg = ExecConfig::new(placement).with_threads(threads);
                handles.push(server.submit_with(query, &cfg));
            }
        }
        let batch = server.run_all();
        let reports: Vec<QueryReport> = handles
            .iter()
            .map(|&h| batch.report(h).as_ref().expect("batch completes").clone())
            .collect();
        match &reference {
            None => reference = Some(reports),
            Some(want) => {
                for (got, want) in reports.iter().zip(want) {
                    assert_reports_identical(got, want, &format!("serve threads={threads}"));
                    assert_eq!(got.builds_cached, want.builds_cached);
                }
            }
        }
    }
}

#[test]
fn behavioral_suite_is_invariant_across_threads_and_submission_orders() {
    // The stateful operators thread per-user state through user-aligned
    // packets; the guarantee extends to them unchanged: the whole
    // behavioral suite served concurrently is bit-identical at any thread
    // count AND in any submission order — interleaving, admission and the
    // user-aligned packet split never leak into a report.
    use hape::core::serve::SessionServer;
    use hape::tpch::events::{behavioral_queries, generate_events};
    let mut session = Session::new(Server::paper_testbed());
    session.register(generate_events(2_000, 7172));
    let queries = behavioral_queries();
    let placements = [Placement::CpuOnly, Placement::Hybrid, Placement::Auto];
    let mut reference: Option<Vec<QueryReport>> = None;
    for threads in THREADS {
        for reverse in [false, true] {
            let mut server = SessionServer::new(session.clone());
            let mut order: Vec<(usize, Placement)> = Vec::new();
            for (i, _) in queries.iter().enumerate() {
                for placement in placements {
                    order.push((i, placement));
                }
            }
            if reverse {
                order.reverse();
            }
            let mut handles: Vec<(usize, Placement, _)> = Vec::new();
            for &(i, placement) in &order {
                let cfg = ExecConfig::new(placement).with_threads(threads);
                handles.push((i, placement, server.submit_with(&queries[i], &cfg)));
            }
            let batch = server.run_all();
            // Reports keyed back to (query, placement) so both submission
            // orders compare the same matrix slot.
            let mut reports: Vec<((usize, u8), QueryReport)> = handles
                .iter()
                .map(|&(i, placement, h)| {
                    let key =
                        (i, placements.iter().position(|&p| p == placement).unwrap() as u8);
                    (key, batch.report(h).as_ref().expect("behavioral serve").clone())
                })
                .collect();
            reports.sort_by_key(|(key, _)| *key);
            let reports: Vec<QueryReport> = reports.into_iter().map(|(_, r)| r).collect();
            match &reference {
                None => reference = Some(reports),
                Some(want) => {
                    for (got, want) in reports.iter().zip(want) {
                        let ctx = format!("behavioral threads={threads} reverse={reverse}");
                        assert_reports_identical(got, want, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn tracing_is_a_pure_observer_at_any_thread_count() {
    // The tracing plane must never perturb execution: with a recorder
    // attached, result rows and simulated makespans stay bit-identical to
    // the untraced reference run at every thread count — while the trace
    // itself actually captured the run.
    use hape::core::trace::{SpanKind, TraceRecorder};
    let session = tpch_session();
    let queries: Vec<Query> = vec![q1_query(), q5_query(JoinAlgo::Partitioned), q6_query()];
    let placements = [Placement::CpuOnly, Placement::Hybrid, Placement::Auto];
    for query in &queries {
        for placement in placements {
            let untraced = session
                .execute_with(query, &ExecConfig::new(placement).with_threads(1))
                .expect("reference run completes");
            for threads in THREADS {
                let recorder = TraceRecorder::new();
                let cfg = ExecConfig::new(placement)
                    .with_threads(threads)
                    .with_trace(recorder.clone());
                let traced = session.execute_with(query, &cfg).expect("traced run completes");
                let ctx = format!("{}/{placement:?} traced threads={threads}", query.name);
                assert_reports_identical(&traced, &untraced, &ctx);
                let trace = recorder.snapshot();
                assert!(
                    trace.spans.iter().any(|s| s.kind == SpanKind::Query),
                    "{ctx}: no query span"
                );
                assert!(
                    trace.spans.iter().any(|s| s.kind == SpanKind::Packet),
                    "{ctx}: no packet spans"
                );
                assert!(!trace.counters.is_empty(), "{ctx}: no counters");
            }
        }
    }
}

#[test]
fn tiny_packet_stress_hammers_the_pool_deterministically() {
    // 2^17 rows at 64 rows/packet = 2048 stream packets (plus the build's
    // auto-sized ones) per run — thousands of scatter jobs and fold
    // batches racing through the pool, same answer every time.
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 17, 1 << 17, 91));
    session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 92));
    let q = session
        .query("stress")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
    let mut reference: Option<QueryReport> = None;
    for threads in [1, 2, 8, 32] {
        let mut cfg = ExecConfig::new(Placement::Hybrid).with_threads(threads);
        cfg.packet_rows = Some(64);
        let rep = session.execute_with(&q, &cfg).unwrap();
        assert_eq!(rep.rows[0].1[0], (1 << 12) as f64, "every dim key matches once");
        assert!(rep.packets_cpu + rep.packets_gpu >= 2048, "tiny packets routed");
        match &reference {
            None => reference = Some(rep),
            Some(want) => {
                assert_eq!(rep.rows, want.rows, "threads={threads}");
                assert_eq!(rep.time, want.time, "threads={threads}");
                assert_eq!(rep.packets_cpu, want.packets_cpu, "threads={threads}");
                assert_eq!(rep.packets_gpu, want.packets_gpu, "threads={threads}");
            }
        }
    }
}

#[test]
fn fault_injection_is_thread_count_invariant() {
    // The fault plane fires off control-plane coordinates (stage barriers,
    // committed-GPU-packet ordinals, sim time) that the router assigns
    // sequentially, so an injected fault — and the whole recovery path it
    // triggers (priced retries, mid-query re-placement on the survivors) —
    // must land on the same packet and produce bit-identical reports at
    // every data-plane thread count.
    use hape::core::FaultPlan;
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 18, 1));
    session.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
    let q = session
        .query("faulted")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
    let placements = [Placement::GpuOnly, Placement::Hybrid, Placement::Auto];
    for seed in [1u64, 7, 42] {
        for placement in placements {
            let mut reference: Option<Result<QueryReport, String>> = None;
            for threads in THREADS {
                let cfg = ExecConfig::new(placement)
                    .with_threads(threads)
                    .with_faults(FaultPlan::canonical(seed));
                let outcome = session.execute_with(&q, &cfg).map_err(|e| format!("{e}"));
                match (&reference, &outcome) {
                    (None, _) => reference = Some(outcome),
                    (Some(Ok(want)), Ok(got)) => {
                        let ctx =
                            format!("faulted seed={seed} {placement:?} threads={threads}");
                        assert_reports_identical(got, want, &ctx);
                        assert_eq!(got.retries, want.retries, "{ctx}: retries");
                        assert_eq!(got.replans, want.replans, "{ctx}: replans");
                    }
                    (Some(Err(want)), Err(got)) => {
                        assert_eq!(
                            got, want,
                            "faulted seed={seed} {placement:?}: error diverged at \
                             threads={threads}"
                        );
                    }
                    (Some(want), got) => panic!(
                        "faulted seed={seed} {placement:?}: success/failure flipped at \
                         threads={threads}: {want:?} vs {got:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn explicit_packet_rows_rides_the_config_into_the_stream_stage() {
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 16, 3));
    session.register_as("dim", gen_key_fk_table(1 << 10, 1 << 10, 4));
    let q = session
        .query("sized")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k"))]);
    // Auto sizing clamps to >= 2K rows per packet; explicit 256-row
    // packets must multiply the routed stream-packet count accordingly.
    let auto = session.execute_with(&q, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    let tiny = session
        .execute_with(&q, &ExecConfig::new(Placement::CpuOnly).with_packet_rows(256))
        .unwrap();
    assert_eq!(auto.rows, tiny.rows);
    assert!(
        tiny.packets_cpu > auto.packets_cpu,
        "explicit packet_rows must shrink packets: {} !> {}",
        tiny.packets_cpu,
        auto.packets_cpu
    );
    assert_eq!(tiny.packets_cpu, (1 << 16) / 256);
}
