//! Determinism of the two-plane runtime across data-plane thread counts,
//! where one fixed query reaches a path the differential harness
//! (`tests/differential.rs`, which sweeps thread counts over generated
//! queries and the benchmark corpus) does not: Q9's optimizer-planned
//! co-processing stage up to 140 threads, and a tiny-packet stress run that
//! hammers the pool with thousands of packets per stage.

use hape::core::{ExecConfig, JoinAlgo, Placement, Query, QueryReport, Session};
use hape::ops::{col, AggFunc};
use hape::sim::topology::Server;
use hape::storage::datagen::gen_key_fk_table;
use hape::tpch::queries::{self, q9_query};

const SF: f64 = 0.01;
const THREADS: [usize; 3] = [1, 2, 8];

fn tpch_session() -> Session {
    queries::tpch_session(&hape::tpch::generate(SF, 7170), Server::tpch_scaled(SF))
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
