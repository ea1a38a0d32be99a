//! Chaos suite: the fault-injection plane and degradation-aware recovery.
//!
//! The invariant — **faults may change how long a query takes, never what
//! it returns** — is swept over generated queries and the benchmark corpus
//! by the differential harness (`tests/differential.rs`): canonical fault
//! plans, every placement, repeated runs and CPU-only runs the GPU faults
//! cannot touch. The inputs here are exact-integer tables, so rows compare
//! bit for bit even though recovery legitimately re-routes packets.
//!
//! Targeted scenarios pin each recovery layer:
//! priced transfer retries, permanent-loss re-placement (down to a full
//! GPU-fleet loss degrading GpuOnly onto the surviving CPUs), broadcast
//! OOM quarantine, the bounded replan budget's typed exhaustion error,
//! and the serving layer's `Outcome::Degraded` reporting.

use hape::core::fault::{FaultKind, FaultPlan, FaultSpec, RetryPolicy, Trigger};
use hape::core::serve::{Outcome, SessionServer};
use hape::core::{
    Catalog, Engine, EngineError, ExecConfig, JoinAlgo, Placement, Query, QueryPlan,
    QueryReport, Session,
};
use hape::ops::{col, AggFunc, AggSpec, Expr};
use hape::sim::topology::Server;
use hape::sim::SimTime;
use hape::storage::datagen::gen_key_fk_table;

/// Exact-integer join + aggregation inputs: every aggregated value is an
/// integer-valued f64, so sums are exact under any packet routing and
/// bit-identity across degraded re-executions is well-defined.
fn setup() -> (Catalog, QueryPlan) {
    let mut catalog = Catalog::new();
    catalog.register_as("fact", gen_key_fk_table(1 << 16, 1 << 18, 1));
    catalog.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
    let join_agg = QueryPlan::try_new(
        "join_agg",
        vec![
            hape::core::Stage::Build {
                name: "dim_ht".into(),
                key_col: 0,
                pipeline: hape::core::Pipeline::scan("dim"),
            },
            hape::core::Stage::Stream {
                pipeline: hape::core::Pipeline::scan("fact")
                    .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                    .aggregate(AggSpec::ungrouped(vec![
                        (AggFunc::Count, Expr::col(0)),
                        (AggFunc::Sum, Expr::col(2)),
                    ])),
            },
        ],
    )
    .expect("join_agg plan is valid");
    (catalog, join_agg)
}

/// `(gpu, kind, trigger)` faults under the default retry policy.
fn faults(specs: &[(usize, FaultKind, Trigger)]) -> FaultPlan {
    let specs = specs.iter().map(|&(gpu, kind, trigger)| FaultSpec { gpu, kind, trigger });
    FaultPlan::new(specs.collect(), RetryPolicy::default())
}

/// The join plan under `placement` and `faults`.
fn run(placement: Placement, faults: FaultPlan) -> Result<QueryReport, String> {
    let (catalog, plan) = setup();
    let cfg = ExecConfig::new(placement).with_faults(faults);
    Engine::new(Server::paper_testbed()).run(&catalog, &plan, &cfg).map_err(|e| e.to_string())
}

/// Both GPUs fail at their first packet.
const FLEET_LOSS: [(usize, FaultKind, Trigger); 2] = [
    (0, FaultKind::GpuFailed, Trigger::AtGpuPacket(1)),
    (1, FaultKind::GpuFailed, Trigger::AtGpuPacket(1)),
];

#[test]
fn transfer_faults_are_priced_retries_not_result_changes() {
    let clean = run(Placement::GpuOnly, FaultPlan::off()).expect("clean run");
    let transfer = (0, FaultKind::TransferError { failures: 2 }, Trigger::AtGpuPacket(1));
    let faulted = run(Placement::GpuOnly, faults(&[transfer])).expect("retries recover");
    assert_eq!(clean.rows, faulted.rows, "rows diverged");
    assert_eq!(faulted.retries, 2, "both transfer failures priced as retries");
    assert_eq!(faulted.replans, 0);
    assert!(
        faulted.time > clean.time,
        "backoff + re-sent transfers must cost simulated time: {} vs {}",
        faulted.time,
        clean.time
    );
}

#[test]
fn permanent_gpu_loss_replans_on_the_survivors() {
    let clean = run(Placement::Hybrid, FaultPlan::off()).expect("clean run");
    let loss = faults(&[(1, FaultKind::GpuFailed, Trigger::AtGpuPacket(2))]);
    let faulted = run(Placement::Hybrid, loss).expect("loss of one GPU recovers");
    assert_eq!(clean.rows, faulted.rows, "rows diverged after re-placement");
    assert_eq!(faulted.replans, 1, "one mid-query re-placement");
}

#[test]
fn gpu_only_degrades_onto_surviving_cpus_when_the_whole_gpu_fleet_dies() {
    let clean = run(Placement::GpuOnly, FaultPlan::off()).expect("clean run");
    let faulted = run(Placement::GpuOnly, faults(&FLEET_LOSS))
        .expect("full GPU loss falls back to the surviving CPUs");
    assert_eq!(clean.rows, faulted.rows, "rows diverged after CPU fallback");
    assert!(faulted.replans >= 1 && faulted.replans <= 2, "replans: {}", faulted.replans);
}

#[test]
fn broadcast_oom_quarantines_the_device_and_replans() {
    let clean = run(Placement::GpuOnly, FaultPlan::off()).expect("clean run");
    let oom = faults(&[(0, FaultKind::BroadcastOom, Trigger::AtStage(1))]);
    let faulted =
        run(Placement::GpuOnly, oom).expect("OOM quarantine recovers on the other GPU");
    assert_eq!(clean.rows, faulted.rows, "rows diverged after OOM recovery");
    assert_eq!(faulted.replans, 1);
}

#[test]
fn device_slow_changes_timing_but_never_rows() {
    let clean = run(Placement::GpuOnly, FaultPlan::off()).expect("clean run");
    let slow = faults(&[(0, FaultKind::DeviceSlow { factor: 4.0 }, Trigger::AtStage(0))]);
    let faulted = run(Placement::GpuOnly, slow).expect("slow run");
    assert_eq!(clean.rows, faulted.rows, "a slow link must not change results");
    assert!(
        faulted.time >= clean.time,
        "a 4x slower PCIe link cannot make the query faster: {} vs {}",
        faulted.time,
        clean.time
    );
    assert_eq!(faulted.replans, 0, "slow-down is not a loss");
}

#[test]
fn exhausted_replan_budget_is_a_typed_recovery_failure() {
    let (catalog, plan) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let retry = RetryPolicy { max_replans: 1, ..RetryPolicy::default() };
    let faults = FaultPlan::new(faults(&FLEET_LOSS).faults().to_vec(), retry);
    let cfg = ExecConfig::new(Placement::GpuOnly).with_faults(faults);
    let err = engine.run(&catalog, &plan, &cfg).expect_err("budget of 1 cannot absorb 2");
    assert!(
        matches!(err, EngineError::RecoveryFailed { .. }),
        "expected RecoveryFailed, got: {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("replan budget"), "{msg}");
}

/// The logical front-end face of the synthetic join + aggregation.
fn served_query(name: &str) -> Query {
    Query::new(name)
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))])
}

fn served_session() -> Session {
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 18, 1));
    session.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
    session
}

#[test]
fn serving_layer_reports_degraded_outcomes_with_identical_rows() {
    let session = served_session();
    let query = served_query("served");
    let cfg = ExecConfig::new(Placement::GpuOnly);
    let clean = session.execute_with(&query, &cfg).expect("clean solo run");

    let loss = faults(&[(1, FaultKind::GpuFailed, Trigger::AtGpuPacket(2))]);
    let mut server = SessionServer::new(session).with_faults(loss);
    let handle = server.submit_with(&query, &cfg);
    let batch = server.run_all();
    let outcome = batch.outcome(handle);
    match outcome.outcome {
        Outcome::Degraded { replans, .. } => assert!(replans >= 1, "replans: {replans}"),
        other => panic!("expected Degraded, got {other:?}"),
    }
    let report = outcome.report.as_ref().expect("degraded query still completes");
    assert_eq!(report.rows, clean.rows, "degraded served rows diverged from clean solo");
    // The loss is fleet-wide state: gpu1 stays quarantined, so the
    // admission budget now reflects the surviving fleet only.
    assert!(server.health().is_failed(1), "gpu1 quarantined server-wide");
    assert!(server.gpu_budget().is_some(), "gpu0 survives");
}

#[test]
fn timed_out_query_finishes_with_partial_report_not_error() {
    let session = served_session();
    let query = served_query("deadlined");
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let mut server = SessionServer::new(session);
    // A deadline no multi-stage query can meet: one femtosecond.
    let handle = server.submit_with_budget(&query, &cfg, SimTime::from_ns(0.000_001));
    let batch = server.run_all();
    let outcome = batch.outcome(handle);
    match outcome.outcome {
        Outcome::TimedOut { budget, elapsed } => {
            assert!(elapsed > budget, "elapsed {elapsed} must exceed budget {budget}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(outcome.report.is_ok(), "a deadline is a scheduling outcome, not an error");
}

#[test]
fn canceled_query_stops_at_the_next_stage_barrier() {
    let session = served_session();
    let query = served_query("canceled");
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let mut server = SessionServer::new(session);
    let handle = server.submit_with(&query, &cfg);
    let token = server.cancel_token(handle).expect("pending submission has a token");
    assert!(!token.is_canceled());
    assert!(server.cancel(handle), "known handle cancels");
    assert!(token.is_canceled());
    let batch = server.run_all();
    let outcome = batch.outcome(handle);
    assert_eq!(outcome.outcome, Outcome::Canceled);
    assert!(outcome.report.is_ok(), "cancellation keeps the partial report");
}
