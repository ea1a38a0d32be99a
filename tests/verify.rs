//! The static-verifier mutation self-test corpus.
//!
//! Strategy: start from a plan the pass pipeline itself produced (so it
//! verifies clean — asserted first), corrupt **one** invariant at a
//! time through the placed IR's public fields, and assert the verifier
//! reports the *specific* typed [`DiagnosticKind`] for that corruption
//! class — not merely "some diagnostic". Each test is one corruption
//! class; together they cover every pass (schema dataflow, device/capacity
//! audit, determinism contracts). A placed plan stores only its device
//! subsets, so what placement derives from them (traits, exchanges,
//! routers) has no corruption class. A binding-class corruption whose
//! *first* finding is all that matters is a row of the refusal table
//! (`tests/plan_binding.rs`); the ones here assert exactly one finding, or
//! a pass tag, which the table does not.
//!
//! The positive side — every plan the pass pipeline produces binds clean —
//! is the differential harness's (`tests/differential.rs`); here are the
//! diagnostic-rendering contract (locations + pass tags in `Display`, the
//! `explain`-footer shape).

// Test-corpus setup helpers unwrap freely (`allow-unwrap-in-tests` only
// covers `#[test]` bodies, not shared helpers in integration tests).
#![allow(clippy::unwrap_used)]

use hape::core::verify::{check_placed, explain_footer, DiagnosticKind, Pass};
use hape::core::{
    EngineError, ExecConfig, JoinAlgo, LoweredQuery, PipeOp, PlacedPlan, PlacedStage,
    Placement, Query, Session,
};
use hape::ops::{Expr, StatefulAgg};
use hape::sim::topology::{DeviceId, Server};
use hape::tpch::events::{behavioral_queries, generate_events};
use hape::tpch::queries::{self, q5_query, q6_query};

const SF: f64 = 0.01;

fn tpch_session() -> Session {
    queries::tpch_session(&hape::tpch::generate(SF, 31337), Server::tpch_scaled(SF))
}

/// `query` lowered + placed under `placement`, asserted clean before any
/// mutation (a corrupted seed would make every test vacuous).
fn placed_clean(
    session: &Session,
    query: &Query,
    placement: Placement,
) -> (LoweredQuery, PlacedPlan) {
    let lowered = session.lower(query).unwrap();
    let placed = session.place_with(query, &ExecConfig::new(placement)).unwrap();
    assert!(
        check_placed(&placed, &lowered.catalog, &session.engine().server).is_empty(),
        "seed plan must verify clean before mutation"
    );
    (lowered, placed)
}

fn q5_placed(session: &Session, placement: Placement) -> (LoweredQuery, PlacedPlan) {
    placed_clean(session, &q5_query(JoinAlgo::NonPartitioned), placement)
}

fn kinds(
    session: &Session,
    lowered: &LoweredQuery,
    placed: &PlacedPlan,
) -> Vec<(Pass, DiagnosticKind)> {
    check_placed(placed, &lowered.catalog, &session.engine().server)
        .into_iter()
        .map(|d| (d.pass, d.kind))
        .collect()
}

/// The Q5 stream stage (index 5) as mutable parts.
fn stream_parts(
    placed: &mut PlacedPlan,
) -> (&mut hape::core::Pipeline, &mut Vec<hape::core::Segment>) {
    match placed.stages.last_mut().unwrap() {
        PlacedStage::Stream { pipeline, segments } => (pipeline, segments),
        other => panic!("Q5's last stage should be the stream, got {other:?}"),
    }
}

/// Assert `ks` holds a finding of pass `$pass` whose `DiagnosticKind` matches.
macro_rules! finds {
    ($ks:expr, $pass:ident, $($kind:tt)+) => {
        let found = |(p, k): &(Pass, DiagnosticKind)| {
            *p == Pass::$pass && matches!(k, DiagnosticKind::$($kind)+)
        };
        assert!($ks.iter().any(found), "{:?}", $ks)
    };
}

fn gpu_segment(segments: &mut [hape::core::Segment]) -> &mut hape::core::Segment {
    segments.iter_mut().find(|s| s.target.is_gpu()).expect("a GPU segment")
}

// ===================== device & capacity audit =====================

#[test]
fn mutation_segment_on_absent_device() {
    let session = tpch_session();
    for device in [DeviceId::Gpu(7), DeviceId::Cpu(7)] {
        let (lowered, mut placed) = q5_placed(&session, Placement::CpuOnly);
        stream_parts(&mut placed).1[0].target = device;
        let ks = kinds(&session, &lowered, &placed);
        assert_eq!(ks, [(Pass::DeviceAudit, DiagnosticKind::DeviceNotPresent { device })]);
        // Everything derived from the subsets is total on the absent
        // device, and the engine refuses it typed, in every build profile.
        let text = placed.render(&session.engine().server);
        assert!(text.contains(&format!("segment {device}: ")), "{text}");
        let err = session.engine().run_placed(&lowered.catalog, &placed).unwrap_err();
        assert!(matches!(err, EngineError::DeviceNotPresent { .. }), "{device}: {err}");
    }
}

#[test]
fn broadcast_over_capacity_is_predicted_statically() {
    // Not a hand-mutation: shrink the GPUs until Q5's broadcast tables
    // (with working space) cannot fit, and the verifier must report the
    // same §6.4 capacity violation the engine refuses with at runtime.
    let data = hape::tpch::generate(SF, 31337);
    let mut session = Session::new(Server::paper_testbed_gpu_mem_scaled(1.0 / 1048576.0));
    session.register(data.lineitem.clone());
    session.register(data.orders.clone());
    session.register(data.customer.clone());
    session.register(data.supplier.clone());
    session.register(data.nation.clone());
    session.register(data.region);
    let q5 = q5_query(JoinAlgo::NonPartitioned);
    let lowered = session.lower(&q5).unwrap();
    let placed = session.place_with(&q5, &ExecConfig::new(Placement::GpuOnly)).unwrap();
    let ks = kinds(&session, &lowered, &placed);
    finds!(ks, DeviceAudit, BroadcastOverCapacity { required, capacity, .. }
        if required > capacity);
    // The runtime verdict agrees.
    assert!(session.execute_with(&q5, &ExecConfig::new(Placement::GpuOnly)).is_err());
}

/// Rebuild a CPU-placed plan's stream stage (its last) as a co-process
/// stage over the same sockets and `gpus`.
fn coprocessed(mut placed: PlacedPlan, gpus: Vec<usize>) -> PlacedPlan {
    let Some(PlacedStage::Stream { pipeline, segments }) = placed.stages.pop() else {
        panic!("the last stage is the stream")
    };
    let socket = |target| match target {
        DeviceId::Cpu(socket) => socket,
        gpu => panic!("{gpu} is not a CPU socket"),
    };
    let cpus = segments.iter().map(|s| socket(s.target)).collect();
    placed.stages.push(PlacedStage::CoProcess { pipeline, cpus, gpus });
    placed
}

#[test]
fn mutation_coprocess_without_gpu_lanes() {
    let session = tpch_session();
    let (lowered, placed) = q5_placed(&session, Placement::CpuOnly);
    let placed = coprocessed(placed, Vec::new());
    let ks = kinds(&session, &lowered, &placed);
    finds!(ks, DeviceAudit, CoProcessNoGpuLane);
}

#[test]
fn mutation_coprocess_stage_without_a_probe() {
    // Q6 probes nothing: there is no table to co-process, so no
    // co-partitioning fanout exists, and the engine refuses the stage.
    let session = tpch_session();
    let (lowered, placed) = placed_clean(&session, &q6_query(), Placement::CpuOnly);
    let placed = coprocessed(placed, vec![0]);
    let infeasible = DiagnosticKind::CoProcessInfeasibleFanout { ht: String::new() };
    assert_eq!(kinds(&session, &lowered, &placed), [(Pass::DeviceAudit, infeasible)]);
    let err = session.engine().run_placed(&lowered.catalog, &placed).unwrap_err();
    assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
}

#[test]
fn mutation_coprocess_lane_on_absent_gpu() {
    let session = tpch_session();
    let (lowered, placed) = q5_placed(&session, Placement::CpuOnly);
    let placed = coprocessed(placed, vec![9]);
    let ks = kinds(&session, &lowered, &placed);
    finds!(ks, DeviceAudit, DeviceNotPresent { device: DeviceId::Gpu(9) });
}

// ====================== determinism contracts ======================

fn behavioral_session() -> Session {
    let mut session = Session::new(Server::paper_testbed());
    session.register(generate_events(2_000, 7171));
    session
}

fn behavioral_placed(session: &Session, idx: usize) -> (LoweredQuery, PlacedPlan) {
    placed_clean(session, &behavioral_queries()[idx], Placement::Hybrid)
}

/// A behavioral plan's one stage: its stream pipeline.
fn behavioral_stream(placed: &mut PlacedPlan) -> &mut hape::core::Pipeline {
    let [PlacedStage::Stream { pipeline, .. }] = &mut placed.stages[..] else {
        panic!("a behavioral plan is one stream")
    };
    pipeline
}

fn stateful_op(placed: &mut PlacedPlan) -> &mut StatefulAgg {
    let mut ops = behavioral_stream(placed).ops.iter_mut();
    ops.find_map(|op| if let PipeOp::Stateful(agg) = op { Some(agg) } else { None })
        .expect("a stateful op")
}

// ===================== rendering contracts =====================

#[test]
fn diagnostics_carry_locations_and_pass_tags() {
    let session = tpch_session();
    let (lowered, mut placed) = q5_placed(&session, Placement::Hybrid);
    gpu_segment(stream_parts(&mut placed).1).target = DeviceId::Gpu(7);
    let diagnostics = check_placed(&placed, &lowered.catalog, &session.engine().server);
    let rendered: Vec<String> = diagnostics.iter().map(ToString::to_string).collect();
    assert!(!rendered.is_empty());
    // Each line locates the finding and names the pass, explain-style.
    assert!(
        rendered.iter().any(|d| d.starts_with("stage 5 segment gpu7")
            && d.contains("[device-audit]")
            && d.contains("not on the server")),
        "{rendered:?}"
    );
}

#[test]
fn explain_footer_renders_diagnostics_on_a_broken_plan() {
    let session = tpch_session();
    let (lowered, mut placed) = q5_placed(&session, Placement::Hybrid);
    gpu_segment(stream_parts(&mut placed).1).target = DeviceId::Gpu(7);
    let footer = explain_footer(&placed, &lowered.catalog, &session.engine().server);
    assert!(footer.starts_with("verified: 6 stages, 1 diagnostic\n"), "{footer}");
    assert!(
        footer.contains(
            "  stage 5 segment gpu7: [device-audit] device gpu7 is not on the server"
        ),
        "{footer}"
    );
}

#[test]
fn verify_error_display_lists_every_finding() {
    let session = tpch_session();
    let q5 = q5_query(JoinAlgo::NonPartitioned);
    let lowered = session.lower(&q5).unwrap();
    let mut placed = session.place_with(&q5, &ExecConfig::new(Placement::Hybrid)).unwrap();
    gpu_segment(stream_parts(&mut placed).1).target = DeviceId::Gpu(7);
    let err =
        hape::core::verify::verify_placed(&placed, &lowered.catalog, &session.engine().server)
            .unwrap_err();
    let text = err.to_string();
    assert!(text.starts_with("verify Q5: "), "{text}");
    assert_eq!(
        text.lines().count(),
        1 + err.diagnostics.len(),
        "one header plus one line per finding:\n{text}"
    );
}

// ===================== pass 1: schema dataflow =====================
//
// Each corruption below yields exactly one diagnostic of exactly its kind:
// the walk reports a bad reference once and keeps flowing.

#[test]
fn mutation_numeric_filter_is_one_kind_mismatch() {
    use hape::ops::expr::ExprKind;
    let session = tpch_session();
    let (lowered, mut placed) = q5_placed(&session, Placement::CpuOnly);
    stream_parts(&mut placed).0.ops.insert(0, PipeOp::Filter(Expr::col(0)));
    let mismatch = DiagnosticKind::ExprKindMismatch {
        context: "filter",
        expected: ExprKind::Bool,
        found: ExprKind::Num,
    };
    assert_eq!(kinds(&session, &lowered, &placed), [(Pass::SchemaDataflow, mismatch)]);
}

#[test]
fn mutation_empty_projection() {
    let session = tpch_session();
    let (lowered, mut placed) = q5_placed(&session, Placement::CpuOnly);
    stream_parts(&mut placed).0.ops.insert(0, PipeOp::Project(Vec::new()));
    assert_eq!(
        kinds(&session, &lowered, &placed),
        [(Pass::SchemaDataflow, DiagnosticKind::EmptyProject)]
    );
}

#[test]
fn mutation_group_by_over_a_float_column() {
    use hape::storage::DataType;
    let session = tpch_session();
    let (lowered, mut placed) = q5_placed(&session, Placement::CpuOnly);
    // Source columns keep their index through Q5's probes (which append).
    let fields = &lowered.catalog.get("Q5.lineitem").unwrap().schema.fields;
    let column = fields.iter().position(|f| f.dtype == DataType::F64).unwrap();
    stream_parts(&mut placed).0.agg.as_mut().unwrap().group_by.push(column);
    let expected =
        DiagnosticKind::KeyType { context: "group-by", column, found: DataType::F64 };
    assert_eq!(kinds(&session, &lowered, &placed), [(Pass::SchemaDataflow, expected)]);
}

#[test]
fn mutation_build_key_over_a_string_column() {
    use hape::storage::DataType;
    let session = tpch_session();
    let (lowered, mut placed) = q5_placed(&session, Placement::CpuOnly);
    let PlacedStage::Build { key_col, pipeline, .. } = &mut placed.stages[0] else {
        panic!("stage 0 is a build")
    };
    // Stage 0 builds the ASIA region filter: its scan carries `r_name`.
    let fields = &lowered.catalog.get(&pipeline.source).unwrap().schema.fields;
    *key_col = fields.iter().position(|f| f.dtype == DataType::Str).unwrap();
    let (context, column) = ("build key", *key_col);
    let expected = DiagnosticKind::KeyType { context, column, found: DataType::Str };
    assert_eq!(kinds(&session, &lowered, &placed), [(Pass::SchemaDataflow, expected)]);
}

#[test]
fn mutation_stateful_ts_column_outside_source() {
    let session = behavioral_session();
    let (lowered, mut placed) = behavioral_placed(&session, 0);
    {
        let StatefulAgg::Sessionize { ts_col, .. } = stateful_op(&mut placed) else {
            panic!("B1 sessionizes")
        };
        *ts_col = 99;
    }
    let ks = kinds(&session, &lowered, &placed);
    assert!(
        matches!(
            ks.as_slice(),
            [(
                Pass::Determinism,
                DiagnosticKind::StatefulAlignmentInvalid { role: "ts", user_col: 99, .. }
            )]
        ),
        "{ks:?}"
    );
}
