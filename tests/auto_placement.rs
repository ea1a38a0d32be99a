//! Cost-based auto-placement properties.
//!
//! 1. **Capacity guard** (deterministic property sweep — the Q9
//!    regression guard): across GPU memory scalings and hash-table sizes,
//!    `Placement::Auto` never selects a placement whose *estimated* GPU
//!    hash-table footprint exceeds device capacity, and the placement it
//!    does select executes to the `CpuOnly` reference rows.
//! 2. **TPC-H**: `Auto` answers every query, Q9 included where the manual
//!    GPU placements hit the §6.4 out-of-memory failure — swept over the
//!    corpus by the differential harness (`tests/differential.rs`).
//! 3. **Makespan**: on Q1/Q5/Q6 the optimizer's simulated makespan is no
//!    worse than the best of the three manual placements.
//! 4. **Explain snapshot**: Q5 under `Auto` renders the chosen subsets
//!    with per-stage cost estimates.
//! 5. **Co-processing regression** (the tentpole): Auto plans Q9's stream
//!    as a first-class `PlacedStage::CoProcess`, beats the CPU-routed
//!    placement, and is no slower than the deleted hand-written
//!    `run_q9_hybrid` path (its makespan pinned).

use hape::core::engine::EngineError;
use hape::core::{ExecConfig, HapeError, JoinAlgo, PlacedStage, Placement, Query, Session};
use hape::ops::{col, lit, AggFunc};
use hape::sim::topology::{DeviceId, Server};
use hape::storage::datagen::gen_key_fk_table;
use hape::tpch::queries::{self, q1_query, q5_query, q6_query, q9_query};
use hape::tpch::reference::rows_approx_eq;

const SF: f64 = 0.01;

fn tpch_session() -> Session {
    queries::tpch_session(&hape::tpch::generate(SF, 31337), Server::tpch_scaled(SF))
}

/// The Q9 regression guard as a property: whatever the ratio between
/// hash-table size and GPU memory, the optimizer either keeps the tables
/// off the GPUs or proves (on its own estimates) that they fit — and the
/// chosen placement always executes to the CPU reference rows.
#[test]
fn auto_never_overcommits_gpu_memory() {
    for dim_rows in [1usize << 10, 1 << 13, 1 << 16] {
        for mem_factor in [1.0, 1.0 / 256.0, 1.0 / 4096.0, 1.0 / 65536.0] {
            let mut session = Session::new(Server::paper_testbed_gpu_mem_scaled(mem_factor))
                .with_placement(Placement::Auto);
            session.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 7));
            session.register_as("dim", gen_key_fk_table(dim_rows, dim_rows, 8));
            let q = session
                .query("guard")
                .from_table("fact")
                .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
                .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
            let ctx = format!("dim_rows={dim_rows} mem_factor={mem_factor}");
            let placed = session.place(&q).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let costs = placed.costs.as_ref().expect("auto plans carry cost estimates");
            for (i, cost) in costs.stages.iter().enumerate() {
                assert!(
                    cost.fits_gpu_memory(),
                    "{ctx}: stage {i} estimated footprint {} exceeds capacity {:?}",
                    cost.gpu_required,
                    cost.gpu_capacity
                );
                // The estimate is attached to the stage that actually uses
                // GPUs — broadcast segments or co-processing lanes; pure
                // CPU stages have no capacity bound.
                let uses_gpu = placed.stages[i].devices().iter().any(DeviceId::is_gpu);
                assert_eq!(cost.gpu_capacity.is_some(), uses_gpu, "{ctx}: stage {i}");
            }
            let auto = session.execute(&q).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let cpu = session
                .execute_with(&q, &ExecConfig::new(Placement::CpuOnly))
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(auto.rows, cpu.rows, "{ctx}: rows diverge from CpuOnly");
        }
    }
}

#[test]
fn auto_completes_q9_through_a_coprocess_stage() {
    let session = tpch_session();
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    // The manual GPU placements reproduce the §6.4 failure…
    for placement in [Placement::GpuOnly, Placement::Hybrid] {
        match session.execute_with(&q9, &ExecConfig::new(placement)).unwrap_err() {
            HapeError::Engine(EngineError::GpuMemoryExceeded { required, capacity }) => {
                assert!(required > capacity, "{placement:?}");
            }
            e => panic!("{placement:?}: unexpected error {e}"),
        }
    }
    // …while the optimizer plans the §5 intra-operator co-processing
    // stage: CPU segments co-partition the stream against the oversized
    // orders table, the GPUs run single-pass joins.
    let placed = session.place_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    let stream = placed.stages.last().unwrap();
    let PlacedStage::CoProcess { pipeline, gpus, .. } = stream else {
        let text = placed.render(&session.engine().server);
        panic!("Q9's stream must place as a co-process stage:\n{text}");
    };
    let (_, ht) = pipeline.last_probe().expect("a co-process stage probes");
    assert_eq!(ht, "Q9*.orders", "the oversized final probe is co-processed");
    assert_eq!(gpus.len(), 2, "both GPUs serve as single-pass join lanes");
    let cost = &placed.costs.as_ref().unwrap().stages.last().unwrap();
    let cp = cost.coprocess.as_ref().expect("co-process stages carry the §5 decomposition");
    assert_eq!(cp.ht, "Q9*.orders");
    assert!(cp.cpu_partition_seconds > 0.0 && cp.gpu_pass_seconds > 0.0);
    // Explain renders the decision and its cost decomposition.
    let text = session.explain_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    assert!(text.contains("stream (co-process \"Q9*.orders\")"), "{text}");
    assert!(text.contains("co-process: cpu co-partition \"Q9*.orders\""), "{text}");
    assert!(text.contains("est: co-process cpu-partition"), "{text}");
    // The co-processed run matches the CPU reference rows and beats the
    // CPU-routed stream placement the old optimizer fell back to.
    let auto = session.execute_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    let cpu = session.execute_with(&q9, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    assert!(rows_approx_eq(&auto.rows, &cpu.rows));
    assert!(
        auto.time < cpu.time,
        "co-processing {} must beat the CPU-routed stream {}",
        auto.time,
        cpu.time
    );
    assert!(auto.packets_gpu > 0, "co-partitions must reach the GPUs");
    assert!(auto.h2d_bytes > 0, "co-partitions must cross PCIe");
}

/// Q9* ends in its co-processed probe; a filter on the build side's
/// payload keeps an operator *after* it, so the joined rows re-enter the
/// packet loop on the CPU workers — the co-process stage's other branch.
#[test]
fn coprocess_stage_runs_operators_after_its_final_probe() {
    let session = tpch_session();
    let algo = JoinAlgo::NonPartitioned;
    let query = Query::new("late")
        .from_table("lineitem")
        .join(Query::scan("partsupp"), "l_pskey", "ps_pskey", algo)
        .join(Query::scan("orders"), "l_orderkey", "o_orderkey", algo)
        .filter(col("o_year").gt(lit(1994)))
        .group_by(&["o_year"])
        .agg(vec![(
            AggFunc::Sum,
            col("l_extendedprice").sub(col("ps_supplycost").mul(col("l_quantity"))),
        )]);
    let auto = |threads| ExecConfig::new(Placement::Auto).with_threads(threads);
    let placed = session.place_with(&query, &auto(1)).unwrap();
    let Some(PlacedStage::CoProcess { pipeline, .. }) = placed.stages.last() else {
        let text = placed.render(&session.engine().server);
        panic!("the stream must place as a co-process stage:\n{text}");
    };
    let (probe, _) = pipeline.last_probe().expect("a co-process stage probes");
    assert_eq!(pipeline.ops.len(), probe + 2, "one operator follows the final probe");
    let one = session.execute_with(&query, &auto(1)).unwrap();
    let two = session.execute_with(&query, &auto(2)).unwrap();
    assert_eq!((one.time, &one.rows), (two.time, &two.rows), "thread count is wall-clock only");
    assert!(one.packets_cpu > 0 && one.packets_gpu > 0, "prefix, lanes and suffix all ran");
    let cpu = session.execute_with(&query, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    assert!(!cpu.rows.is_empty() && rows_approx_eq(&one.rows, &cpu.rows));
}

/// The deleted `run_q9_hybrid` path is the makespan yardstick: the
/// optimizer-planned co-processing stage must be no slower than the
/// hand-written escape hatch it replaces (CPU-materialised lineitem-side
/// intermediate, a direct `coprocess_join` against orders, an analytic
/// fold). Its makespan on this fixture is pinned: the engine no longer
/// has the bare-pipeline entry that path was built on.
#[test]
fn auto_q9_is_no_slower_than_the_old_hand_written_hybrid() {
    let old_hybrid = f64::from_bits(0x3f30_c188_c651_e6f0); // 255.676 µs
    let session = tpch_session();
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    let auto = session.execute_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    assert!(
        auto.time.as_secs() <= old_hybrid,
        "Auto Q9 {} must be no slower than the old hand-written hybrid {old_hybrid} s",
        auto.time,
    );
}

#[test]
fn auto_makespan_is_no_worse_than_the_best_manual_placement() {
    let session = tpch_session();
    for query in [q1_query(), q5_query(JoinAlgo::Partitioned), q6_query()] {
        let auto =
            session.execute_with(&query, &ExecConfig::new(Placement::Auto)).unwrap().time;
        let mut best = None::<hape::sim::SimTime>;
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            if let Ok(rep) = session.execute_with(&query, &ExecConfig::new(placement)) {
                best = Some(best.map_or(rep.time, |b: hape::sim::SimTime| b.min(rep.time)));
            }
        }
        let best = best.expect("at least one manual placement runs");
        assert!(auto <= best, "{}: Auto {auto} slower than best manual {best}", query.name);
    }
}

const Q5_AUTO_EXPLAIN: &str = "\
PlacedPlan Q5
stage 0: build Q5.region (key col 0)
  pipeline: scan(region) | filter
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
  est: total 0.0000 ms = stream 0.0000 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 1: build Q5.nation (key col 0)
  pipeline: scan(nation) | join(Q5.region)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
  est: total 0.0000 ms = stream 0.0000 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 2: build Q5.customer (key col 0)
  pipeline: scan(customer) | join(Q5.nation)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
  est: total 0.0005 ms = stream 0.0005 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 3: build Q5.orders (key col 0)
  pipeline: scan(Q5.orders) | filter | join(Q5.customer)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
  est: total 0.0034 ms = stream 0.0034 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 4: build Q5.supplier (key col 0)
  pipeline: scan(supplier) | join(Q5.nation)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
  est: total 0.0000 ms = stream 0.0000 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 5: stream
  pipeline: scan(Q5.lineitem) | join(Q5.orders) | join(Q5.supplier) | filter | agg
  Router(1 -> 26)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
  segment gpu0: Gpu dop=1 mem=gmem0
    MemMove(dram0 -> gmem0)
    DeviceCrossing(Cpu -> Gpu)
    MemMove(dram0 -> gmem0, broadcast \"Q5.orders\")
    MemMove(dram0 -> gmem0, broadcast \"Q5.supplier\")
  segment gpu1: Gpu dop=1 mem=gmem1
    MemMove(dram0 -> gmem1)
    DeviceCrossing(Cpu -> Gpu)
    MemMove(dram0 -> gmem1, broadcast \"Q5.orders\")
    MemMove(dram0 -> gmem1, broadcast \"Q5.supplier\")
  est: total 0.0522 ms = stream 0.0373 ms + broadcast 0.0149 ms + d2h 0.0000 ms
  est: gpu hash tables 179280 B (448200 B with working space) of 858993 B
est makespan: 0.0562 ms
verified: 6 stages, 0 diagnostics
";

#[test]
fn q5_auto_explain_renders_subsets_and_cost_estimates() {
    let session = tpch_session();
    let q5 = q5_query(JoinAlgo::NonPartitioned);
    let text = session.explain_with(&q5, &ExecConfig::new(Placement::Auto)).unwrap();
    assert_eq!(text, Q5_AUTO_EXPLAIN, "Auto snapshot diverged:\n{text}");
    // Manual placements render no cost lines.
    let manual = session.explain_with(&q5, &ExecConfig::new(Placement::Hybrid)).unwrap();
    assert!(!manual.contains("est:"), "{manual}");
}

/// Q9\* under `Auto` against values pinned **from the commit before the
/// co-processing stage stopped materialising its joined batch**: the fold
/// now gathers, chunk by chunk, only the columns it reads, and its claim
/// that chunk boundaries, in-chunk row order and merge order are the old
/// ones — so every `f64` sum keeps its bits — is checked against that
/// parent here, not only against itself. The 175 rows are pinned as an
/// FNV-1a digest over every key component and every value's bit pattern,
/// plus the first and last row in the clear.
#[test]
fn q9_auto_rows_and_makespan_are_the_parents_bit_for_bit() {
    let session = tpch_session();
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    for threads in [1, 2, 8] {
        let cfg = ExecConfig::new(Placement::Auto).with_threads(threads);
        let rep = session.execute_with(&q9, &cfg).unwrap();
        assert_eq!(rep.time.as_secs().to_bits(), 0x3f2e_e9e2_d2dc_d061, "threads={threads}");
        assert_eq!(rep.rows.len(), 175, "threads={threads}");
        let words = rep.rows.iter().flat_map(|(key, vals)| {
            key.iter().map(|&k| k as u64).chain(vals.iter().map(|v| v.to_bits()))
        });
        let digest = words
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3));
        assert_eq!(digest, 0xd815_8a72_c743_a7f3, "threads={threads}");
        let bits = |i: usize| (rep.rows[i].0, rep.rows[i].1[0].to_bits());
        assert_eq!(bits(0), ([0, 1992, 0, 0], 0x413f_e8b5_0cd9_9e69), "threads={threads}");
        assert_eq!(bits(174), ([24, 1998, 0, 0], 0x4125_edbb_ec8c_3387), "threads={threads}");
    }
}
