//! Cross-crate integration tests: the paper's qualitative claims hold
//! end-to-end through the logical `Query` front-end lowered against the
//! base catalog (that the engine, the baselines and the references agree
//! on every query is the differential harness's, `tests/differential.rs`).

use hape::baselines::DbmsG;
use hape::core::engine::EngineError;
use hape::core::{Engine, ExecConfig, JoinAlgo, LoweredQuery, Placement};
use hape::sim::topology::Server;
use hape::tpch::queries::{base_catalog, q1_query, q5_query, q6_query, q9_query};
use hape::tpch::reference::{q6_reference, q9_reference, rows_approx_eq};

const SF: f64 = 0.01;

fn setup() -> (hape::tpch::TpchData, hape::core::Catalog, Engine) {
    let data = hape::tpch::generate(SF, 777);
    let catalog = base_catalog(&data);
    let engine = Engine::new(Server::tpch_scaled(SF));
    (data, catalog, engine)
}

fn lower(q: &hape::core::Query, catalog: &hape::core::Catalog) -> LoweredQuery {
    q.lower(catalog).expect("TPC-H query lowers")
}

#[test]
fn q9_gpu_only_oom_but_auto_coprocessing_succeeds() {
    let (data, catalog, engine) = setup();
    let reference = q9_reference(&data);
    // GPU-only must fail with the capacity error (the paper's §6.4).
    let q9p = lower(&q9_query(JoinAlgo::Partitioned), &catalog);
    let err =
        engine.run(&q9p.catalog, &q9p.plan, &ExecConfig::new(Placement::GpuOnly)).unwrap_err();
    assert!(matches!(err, EngineError::GpuMemoryExceeded { .. }), "{err}");
    // CPU-only works and matches the reference.
    let q9 = lower(&q9_query(JoinAlgo::NonPartitioned), &catalog);
    let cpu = engine.run(&q9.catalog, &q9.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    assert!(rows_approx_eq(&cpu.rows, &reference));
    // Auto plans the intra-operator co-processing stage (§5): it matches
    // the reference and beats the CPU-routed stream — the old hand-written
    // hybrid runner with no hand-writing left.
    let auto = engine.run(&q9.catalog, &q9.plan, &ExecConfig::new(Placement::Auto)).unwrap();
    assert!(rows_approx_eq(&auto.rows, &reference));
    assert!(
        auto.time.as_secs() < cpu.time.as_secs(),
        "co-processed auto {} !< cpu {}",
        auto.time,
        cpu.time
    );
    assert!(auto.packets_gpu > 0, "the co-processing stage must use the GPUs");
}

#[test]
fn dbms_g_runs_only_q6_of_the_four() {
    let (data, catalog, engine) = setup();
    let g = DbmsG::new(engine.server);
    let q6 = lower(&q6_query(), &catalog);
    assert!(g.run_plan(&q6.catalog, &q6.plan).is_ok());
    let q1 = lower(&q1_query(), &catalog);
    assert!(g.run_plan(&q1.catalog, &q1.plan).is_err());
    let q5 = lower(&q5_query(JoinAlgo::NonPartitioned), &catalog);
    assert!(g.run_plan(&q5.catalog, &q5.plan).is_err());
    let q9 = lower(&q9_query(JoinAlgo::NonPartitioned), &catalog);
    assert!(g.run_plan(&q9.catalog, &q9.plan).is_err());
    // And where it runs, it agrees.
    let rep = g.run_plan(&q6.catalog, &q6.plan).unwrap();
    assert!(rows_approx_eq(&rep.rows, &q6_reference(&data)));
}

#[test]
fn hybrid_is_never_slower_than_both_single_device_configs() {
    // The paper's headline Figure 8 claim: "in all four experiments the
    // multi-CPU multi-GPU hybrid configuration outperforms both".
    let (_, catalog, engine) = setup();
    for q in [
        lower(&q1_query(), &catalog),
        lower(&q6_query(), &catalog),
        lower(&q5_query(JoinAlgo::Partitioned), &catalog),
    ] {
        let cpu =
            engine.run(&q.catalog, &q.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        let gpu =
            engine.run(&q.catalog, &q.plan, &ExecConfig::new(Placement::GpuOnly)).unwrap();
        let hybrid =
            engine.run(&q.catalog, &q.plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        let best = cpu.time.min(gpu.time);
        assert!(
            hybrid.time.as_secs() <= best.as_secs() * 1.05,
            "{}: hybrid {} vs best single-device {}",
            q.plan.name,
            hybrid.time,
            best
        );
    }
}

#[test]
fn scan_bound_queries_prefer_cpu_join_heavy_prefer_gpu() {
    // Figure 8's two regimes: Q1/Q6 scan-bound (CPU wins: local DRAM beats
    // PCIe), Q5 join-heavy (GPU wins despite the transfers).
    let (_, catalog, engine) = setup();
    for q in [lower(&q1_query(), &catalog), lower(&q6_query(), &catalog)] {
        let cpu =
            engine.run(&q.catalog, &q.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        let gpu =
            engine.run(&q.catalog, &q.plan, &ExecConfig::new(Placement::GpuOnly)).unwrap();
        assert!(
            cpu.time.as_secs() < gpu.time.as_secs(),
            "{}: CPU {} should beat GPU {}",
            q.plan.name,
            cpu.time,
            gpu.time
        );
    }
    // Q5 (join-heavy): in the paper GPU-only wins 1.4×. At our reduced
    // scale the join/scan cost ratio shrinks (fixed per-packet costs weigh
    // more against smaller joins), so we
    // assert the weaker scale-robust property: GPU-only is competitive on
    // Q5 (within 1.5×) while it loses by >2.5× on the scan-bound queries.
    let q5 = lower(&q5_query(JoinAlgo::Partitioned), &catalog);
    let cpu = engine.run(&q5.catalog, &q5.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    let gpu = engine.run(&q5.catalog, &q5.plan, &ExecConfig::new(Placement::GpuOnly)).unwrap();
    assert!(
        gpu.time.as_secs() < 1.5 * cpu.time.as_secs(),
        "Q5: GPU {} should be competitive with CPU {}",
        gpu.time,
        cpu.time
    );
    let q6 = lower(&q6_query(), &catalog);
    let q6_cpu =
        engine.run(&q6.catalog, &q6.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    let q6_gpu =
        engine.run(&q6.catalog, &q6.plan, &ExecConfig::new(Placement::GpuOnly)).unwrap();
    let q6_ratio = q6_gpu.time.as_secs() / q6_cpu.time.as_secs();
    let q5_ratio = gpu.time.as_secs() / cpu.time.as_secs();
    assert!(
        q5_ratio < q6_ratio,
        "GPU must be relatively better on join-heavy Q5 ({q5_ratio:.2}) than on \
         scan-bound Q6 ({q6_ratio:.2})"
    );
}

/// The GPU clock of Q1, Q5 (under both join algorithms) and Q6 under the
/// two placements that price packets on the simulated GPUs, pinned bit for
/// bit: every `KernelReport` the GPU workers add up, from the filter, fold
/// and probe kernels to the scratchpad and coalescing counters beneath
/// them, reaches `QueryReport::time`. A faster counter that changes one
/// cycle anywhere moves one of these.
#[test]
fn gpu_priced_makespans_are_pinned_bit_for_bit() {
    let (_, catalog, engine) = setup();
    let queries = [
        ("Q1", q1_query()),
        ("Q5/npj", q5_query(JoinAlgo::NonPartitioned)),
        ("Q5/radix", q5_query(JoinAlgo::Partitioned)),
        ("Q6", q6_query()),
    ];
    // Taken from the commit before the counters' fast paths; `[gpu, hybrid]`.
    let pins: [[u64; 2]; 4] = [
        [0x3f1b_37ea_1e36_b7ce, 0x3efa_bc17_4bba_0206],
        [0x3f16_991e_996a_81c2, 0x3f07_f4db_d71a_1602],
        [0x3f15_d007_adb6_5e0a, 0x3f07_f4db_d71a_1602],
        [0x3f10_28d8_b87c_ac78, 0x3eea_2c0d_0e85_4db8],
    ];
    let mut got = Vec::new();
    for ((name, q), want) in queries.iter().zip(pins) {
        let q = lower(q, &catalog);
        for (placement, want) in [Placement::GpuOnly, Placement::Hybrid].into_iter().zip(want) {
            let rep = engine.run(&q.catalog, &q.plan, &ExecConfig::new(placement)).unwrap();
            got.push((format!("{name}/{placement:?}"), rep.time.as_secs().to_bits(), want));
        }
    }
    for (cell, bits, want) in &got {
        assert_eq!(bits, want, "{cell}: {bits:#018x}; all cells: {got:#x?}");
    }
}

/// A GPU whose blocks get 8 KiB of scratchpad — less than the 16 KiB the
/// aggregation kernel asks for — still runs GPU-placed aggregates, and
/// Auto still prices them: the request is clamped to the block's share.
#[test]
fn small_scratchpad_gpus_run_gpu_placed_aggregates() {
    let (data, catalog, _) = setup();
    let mut server = Server::tpch_scaled(SF);
    for gpu in &mut server.gpus {
        gpu.smem_per_block = 8 << 10;
    }
    let engine = Engine::new(server);
    let q6 = lower(&q6_query(), &catalog);
    for placement in [Placement::GpuOnly, Placement::Auto] {
        let rep = engine.run(&q6.catalog, &q6.plan, &ExecConfig::new(placement)).unwrap();
        assert!(rows_approx_eq(&rep.rows, &q6_reference(&data)), "{placement:?}");
    }
}
