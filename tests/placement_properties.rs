//! Placement-layer properties.
//!
//! 1. **Placement invariance** (deterministic property sweep): for every
//!    TPC-H query and every placement, the placed plan executes to
//!    row-identical results vs. the `CpuOnly` reference — identical group keys and row counts, values equal up to
//!    the float-fold rounding that different packet partitionings imply.
//! 2. **Explain snapshots**: `Session::explain` renders Q5's placed plan
//!    with the Router / MemMove / DeviceCrossing operators derived from
//!    its device subsets visible in all three placements.

use hape::core::engine::EngineError;
use hape::core::{ExecConfig, HapeError, JoinAlgo, Placement, Query, Session};
use hape::sim::topology::Server;
use hape::tpch::queries::{self, q1_query, q5_query, q6_query, q9_query};
use hape::tpch::reference::rows_approx_eq;

const SF: f64 = 0.01;

const PLACEMENTS: [Placement; 3] = [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid];

fn tpch_session() -> Session {
    queries::tpch_session(&hape::tpch::generate(SF, 31337), Server::tpch_scaled(SF))
}

#[test]
fn every_query_is_placement_and_policy_invariant() {
    let session = tpch_session();
    let queries: Vec<Query> = vec![
        q1_query(),
        q5_query(JoinAlgo::NonPartitioned),
        q5_query(JoinAlgo::Partitioned),
        q6_query(),
    ];
    for query in &queries {
        let reference =
            session.execute_with(query, &ExecConfig::new(Placement::CpuOnly)).unwrap().rows;
        assert!(!reference.is_empty(), "{}: empty CpuOnly reference", query.name);
        for placement in PLACEMENTS {
            let cfg = ExecConfig::new(placement);
            // Every plan the pass pipeline produces must verify statically
            // clean before it runs.
            session
                .verify_with(query, &cfg)
                .unwrap_or_else(|e| panic!("{}/{placement:?}: {e}", query.name));
            let rep = session
                .execute_with(query, &cfg)
                .unwrap_or_else(|e| panic!("{}/{placement:?}: {e}", query.name));
            assert_eq!(
                rep.rows.len(),
                reference.len(),
                "{}/{placement:?}: row count",
                query.name
            );
            for (got, want) in rep.rows.iter().zip(&reference) {
                assert_eq!(got.0, want.0, "{}/{placement:?}: group keys", query.name);
            }
            assert!(
                rows_approx_eq(&rep.rows, &reference),
                "{}/{placement:?}: values diverge from CpuOnly",
                query.name
            );
        }
    }
}

#[test]
fn q9_fails_capacity_on_gpu_placements_under_every_policy() {
    // Q9's hash tables exceed device memory (§6.4): every placement that
    // includes a GPU surfaces the typed capacity error; CPU-only agrees
    // with itself.
    let session = tpch_session();
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    let reference =
        session.execute_with(&q9, &ExecConfig::new(Placement::CpuOnly)).unwrap().rows;
    for placement in [Placement::GpuOnly, Placement::Hybrid] {
        match session.execute_with(&q9, &ExecConfig::new(placement)).unwrap_err() {
            HapeError::Engine(EngineError::GpuMemoryExceeded { required, capacity }) => {
                assert!(required > capacity, "{placement:?}");
            }
            e => panic!("{placement:?}: unexpected error {e}"),
        }
    }
    let rep = session.execute_with(&q9, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    assert!(rows_approx_eq(&rep.rows, &reference), "Q9 CpuOnly");
}

/// The build-stage preamble is placement-independent: builds run CPU-side
/// under every manual placement so their tables end up host-resident for
/// broadcasting. The shared ASIA-nations chain (region → nation) is
/// lowered **once**: both the customer and the supplier builds probe the
/// same `Q5.nation` table (the structural-hash memo in `Query::lower`).
const Q5_BUILD_PREAMBLE: &str = "\
PlacedPlan Q5
stage 0: build Q5.region (key col 0)
  pipeline: scan(region) | filter
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
stage 1: build Q5.nation (key col 0)
  pipeline: scan(nation) | join(Q5.region)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
stage 2: build Q5.customer (key col 0)
  pipeline: scan(customer) | join(Q5.nation)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
stage 3: build Q5.orders (key col 0)
  pipeline: scan(Q5.orders) | filter | join(Q5.customer)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
stage 4: build Q5.supplier (key col 0)
  pipeline: scan(supplier) | join(Q5.nation)
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
";

const Q5_STREAM_CPU_ONLY: &str = "\
stage 5: stream
  pipeline: scan(Q5.lineitem) | join(Q5.orders) | join(Q5.supplier) | filter | agg
  Router(1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0
  segment cpu1: Cpu dop=12 mem=dram0
";

const Q5_STREAM_GPU_ONLY: &str = "\
stage 5: stream
  pipeline: scan(Q5.lineitem) | join(Q5.orders) | join(Q5.supplier) | filter | agg
  Router(1 -> 2)
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
";

const Q5_STREAM_HYBRID: &str = "\
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
";

#[test]
fn q5_explain_snapshots_show_exchange_operators() {
    let session = tpch_session();
    let q5 = q5_query(JoinAlgo::NonPartitioned);
    for (placement, stream) in [
        (Placement::CpuOnly, Q5_STREAM_CPU_ONLY),
        (Placement::GpuOnly, Q5_STREAM_GPU_ONLY),
        (Placement::Hybrid, Q5_STREAM_HYBRID),
    ] {
        let text = session.explain_with(&q5, &ExecConfig::new(placement)).unwrap();
        let expected =
            format!("{Q5_BUILD_PREAMBLE}{stream}verified: 6 stages, 0 diagnostics\n");
        assert_eq!(text, expected, "{placement:?} snapshot diverged:\n{text}");
    }
    // The hybrid render makes every HetExchange operator kind visible.
    let hybrid = session.explain_with(&q5, &ExecConfig::new(Placement::Hybrid)).unwrap();
    for needle in ["Router(", "MemMove(", "DeviceCrossing(", "broadcast"] {
        assert!(hybrid.contains(needle), "missing {needle} in hybrid render");
    }
}
