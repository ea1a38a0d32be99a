//! Determinism of the two-plane runtime, where fixed queries reach a path
//! the differential harness (`tests/differential.rs`, which sweeps thread
//! counts over generated queries and the benchmark corpus) does not pin to
//! the bit: Q9's optimizer-planned co-processing stage up to 140 threads, a
//! tiny-packet stress run that hammers the pool with thousands of packets
//! per stage, the stream fold against a packet-order oracle, and a stream's
//! rows under a fault plan that moves packets between workers.

use hape::core::provider::{run_ops, Scratch, TableStore, GPU_PACKET_SHARE};
use hape::core::trace::{SpanKind, TraceRecorder};
use hape::core::{
    ExecConfig, FaultKind, FaultPlan, FaultSpec, JoinAlgo, PlacedStage, Placement, Query,
    QueryReport, RetryPolicy, Session, Trigger,
};
use hape::ops::agg::AggState;
use hape::ops::{col, lit, AggFunc, GroupKey};
use hape::sim::topology::{DeviceId, Server};
use hape::storage::datagen::gen_key_fk_table;
use hape::tpch::queries::{self, q1_query, q5_query, q6_query, q9_query};

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

type Rows = Vec<(GroupKey, Vec<f64>)>;

/// Rows with every value as its bits: `==` on these is to the bit.
fn bits(rows: &Rows) -> Vec<(GroupKey, Vec<u64>)> {
    rows.iter().map(|(k, v)| (*k, v.iter().map(|x| x.to_bits()).collect())).collect()
}

/// The fold oracle of `query`'s stream stage under `cfg`: the engine's
/// packets cut again (its sizing rule over the stage's workers), each
/// packet's rows through `run_ops` against the tables the plan's builds
/// produced, folded by `AggState::update` from empty and merged in packet
/// order. Also how many packets no row survived.
fn packet_order_oracle(session: &Session, query: &Query, cfg: &ExecConfig) -> (Rows, usize) {
    let (engine, server) = (session.engine(), &session.engine().server);
    let lowered = session.lower(query).expect("the query lowers");
    let placed = engine.place(&lowered.catalog, &lowered.plan, cfg).expect("it places");
    let last = placed.stages.len() - 1;
    let mut exec = engine.begin(&lowered.catalog, &placed).expect("it binds");
    while exec.stage_index() < last {
        exec.step().expect("its builds run");
    }
    let mut tables = TableStore::new();
    for stage in &placed.stages[..last] {
        if let PlacedStage::Build { name, .. } = stage {
            tables.insert(name.clone(), exec.built_table(name).expect("a built table"));
        }
    }
    let stage = &placed.stages[last];
    assert!(matches!(stage, PlacedStage::Stream { .. }), "{}: a stream stage", query.name);
    let shares = (stage.devices().iter())
        .map(|d| match *d {
            DeviceId::Cpu(s) => server.cpus[s].cores,
            DeviceId::Gpu(_) => GPU_PACKET_SHARE,
        })
        .sum();
    let pipeline = stage.pipeline();
    let source = lowered.catalog.lookup(&pipeline.source).expect("a catalog source");
    let rows = ExecConfig::auto_packet_rows(source.rows(), shares, cfg.packet_rows);
    let spec = pipeline.agg.clone().expect("a stream aggregates");
    let (mut merged, mut scratch, mut empty) = (AggState::new(spec.clone()), Scratch::new(), 0);
    for packet in pipeline.packets(&source.data, rows) {
        let work = run_ops(packet, pipeline, &tables, &mut scratch).expect("kernels run");
        empty += usize::from(work.out.rows() == 0);
        let mut state = AggState::new(spec.clone());
        state.update(&work.out);
        merged.merge(&state);
    }
    (merged.finish(), empty)
}

#[test]
fn a_stream_folds_each_packet_from_empty_and_merges_in_packet_order() {
    let session = tpch_session();
    // An ungrouped stream no row survives.
    let none = Query::new("none")
        .from_table("lineitem")
        .filter(col("l_quantity").lt(lit(0.0)))
        .agg(vec![(AggFunc::Sum, col("l_extendedprice")), (AggFunc::Count, col("l_tax"))]);
    let q5 = q5_query(JoinAlgo::NonPartitioned);
    let mut emptied = 0;
    for (query, packet_rows) in [
        (q1_query(), None),
        (q5, None),
        (q6_query(), None),
        (q6_query(), Some(64)),
        (none, None),
    ] {
        for placement in [Placement::CpuOnly, Placement::Hybrid] {
            let mut cfg = ExecConfig::new(placement);
            cfg.packet_rows = packet_rows;
            let (want, empty) = packet_order_oracle(&session, &query, &cfg);
            emptied += empty;
            assert_eq!(want.is_empty(), query.name == "none", "{}", query.name);
            for threads in [1, 2] {
                let got = session.execute_with(&query, &cfg.clone().with_threads(threads));
                let ctx =
                    format!("{}/{placement} {packet_rows:?} threads={threads}", query.name);
                assert_eq!(bits(&got.unwrap().rows), bits(&want), "{ctx}");
            }
        }
    }
    assert!(emptied > 0, "some packet keeps no row");
}

#[test]
fn a_stream_answers_alike_however_its_packets_were_routed() {
    // Packets routed per worker, read off the run's packet spans.
    let routed = |trace: &TraceRecorder| {
        let mut lanes: Vec<String> = (trace.snapshot().spans.into_iter())
            .filter(|s| s.kind == SpanKind::Packet)
            .filter_map(|s| s.lane)
            .collect();
        lanes.sort();
        lanes
    };
    let session = tpch_session();
    let q1 = q1_query();
    let trace = TraceRecorder::new();
    let cfg = ExecConfig::new(Placement::Hybrid);
    let clean = session.execute_with(&q1, &cfg.clone().with_trace(trace.clone())).unwrap();
    let clean_routed = routed(&trace);
    let slow = FaultSpec {
        gpu: 0,
        kind: FaultKind::DeviceSlow { factor: 8.0 },
        trigger: Trigger::AtStage(0),
    };
    let faults = FaultPlan::new(vec![slow], RetryPolicy::default());
    for threads in [1, 2] {
        let trace = TraceRecorder::new();
        let cfg = cfg.clone().with_threads(threads).with_faults(faults.clone());
        let slowed = session.execute_with(&q1, &cfg.with_trace(trace.clone())).unwrap();
        assert_eq!(slowed.replans, 0, "a slow link re-places nothing");
        assert_ne!(routed(&trace), clean_routed, "the slow link moves packets between workers");
        assert_eq!(bits(&slowed.rows), bits(&clean.rows), "threads={threads}");
    }
}
