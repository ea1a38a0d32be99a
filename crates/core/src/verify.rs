//! Static plan verification: a multi-pass IR checker for [`QueryPlan`]
//! and [`PlacedPlan`] — the engine's MIR/HLO-style validator.
//!
//! The engine's correctness rests on a web of IR invariants that the
//! lower/optimize/place passes are supposed to uphold: every
//! [`crate::traits::HetTraits`] mismatch must be discharged by exactly the
//! right [`Exchange`], stateful aggregates need user-aligned packets in
//! source coordinates, co-process stages need a final probe and ≥ 1 GPU
//! lane, broadcast hash tables must fit the receiving GPU. A buggy pass
//! otherwise only fails deep inside the interpreter — or worse, runs
//! wrong. This module checks the invariants *statically*, before
//! execution, and reports violations as typed [`Diagnostic`]s carrying
//! (stage, segment, op) locations.
//!
//! ## Invariants ↔ passes ↔ diagnostics ↔ paper sections
//!
//! | invariant | pass | diagnostic | paper § |
//! |---|---|---|---|
//! | every column reference resolves in the dataflow schema | [`Pass::SchemaDataflow`] | [`DiagnosticKind::ColumnOutOfRange`] | §3 (operator fusion) |
//! | scan sources exist in the catalog | [`Pass::SchemaDataflow`] | [`DiagnosticKind::UnknownSource`] | §3 |
//! | probe keys are `i32`/date typed | [`Pass::SchemaDataflow`] | [`DiagnosticKind::ProbeKeyType`] | §4.1 (hash joins) |
//! | probe payloads index the build's output | [`Pass::SchemaDataflow`] | [`DiagnosticKind::PayloadOutOfRange`] | §4.1 |
//! | probes reference earlier builds | [`Pass::SchemaDataflow`] | [`DiagnosticKind::ProbeUnbuilt`] | §3 (stage order) |
//! | builds never aggregate; the one stream does | [`Pass::SchemaDataflow`] | [`DiagnosticKind::BuildAggregates`] / [`DiagnosticKind::StreamMissingAgg`] / [`DiagnosticKind::NotExactlyOneStream`] | §3 |
//! | only filters precede a stateful aggregate | [`Pass::SchemaDataflow`] | [`DiagnosticKind::StatefulAfterReshape`] | PR 7 order contract |
//! | stateful user/ts/event columns are correctly typed | [`Pass::SchemaDataflow`] | [`DiagnosticKind::StatefulColumnType`] | PR 7 |
//! | segment traits match the device's recomputed traits | [`Pass::TraitCoherence`] | [`DiagnosticKind::TraitsMismatch`] | §3 (trait tuples) |
//! | every trait mismatch has its converter | [`Pass::TraitCoherence`] | [`DiagnosticKind::MissingExchange`] / [`DiagnosticKind::MissingBroadcast`] / [`DiagnosticKind::MissingRouter`] | §3, Fig. 3 |
//! | no dead converters exist | [`Pass::TraitCoherence`] | [`DiagnosticKind::DeadExchange`] / [`DiagnosticKind::UnexpectedBroadcast`] | §3 |
//! | the router converts dop 1 → the stage's fan-out | [`Pass::TraitCoherence`] | [`DiagnosticKind::RouterDopMismatch`] | §4.2 (router) |
//! | every segment's device exists on the server | [`Pass::DeviceAudit`] | [`DiagnosticKind::DeviceNotPresent`] | §2.1 |
//! | broadcast footprints fit the receiving GPU | [`Pass::DeviceAudit`] | [`DiagnosticKind::BroadcastOverCapacity`] | §6.4 |
//! | co-process stages end in a probe of their table | [`Pass::DeviceAudit`] | [`DiagnosticKind::CoProcessFinalProbeMismatch`] | §5 |
//! | co-process stages have ≥ 1 GPU lane, CPU-only segments | [`Pass::DeviceAudit`] | [`DiagnosticKind::CoProcessNoGpuLane`] / [`DiagnosticKind::CoProcessGpuSegment`] | §5 |
//! | a co-partitioning fanout exists within CPU bounds | [`Pass::DeviceAudit`] | [`DiagnosticKind::CoProcessInfeasibleFanout`] | §5 |
//! | stateful user column is valid in source coordinates | [`Pass::Determinism`] | [`DiagnosticKind::StatefulAlignmentInvalid`] | PR 7 (user-aligned packets) |
//! | the stage barrier covers every routed worker | [`Pass::Determinism`] | [`DiagnosticKind::BarrierCoverage`] | PR 5 (control plane) |
//! | packetization makes progress | [`Pass::Determinism`] | [`DiagnosticKind::InvalidPacketRows`] | PR 5 |
//!
//! ## Structural vs. runtime-checked diagnostics
//!
//! Not every diagnostic should abort execution in debug builds. The
//! engine already rejects some conditions with *typed runtime errors* —
//! an absent device is [`crate::error::EngineError::DeviceNotPresent`],
//! an unbuilt probe is
//! [`crate::error::EngineError::HashTableNotBuilt`], an over-capacity
//! broadcast is [`crate::error::EngineError::GpuMemoryExceeded`], a
//! stateful aggregate whose columns do not fit its source table is
//! [`crate::error::PlanError::StatefulColumn`] — and those conditions
//! depend on catalog/server *state*, not on the correctness of the pass
//! pipeline. The always-on `debug_assertions` hook (`debug_check_placed`)
//! therefore panics only on **structural** diagnostics
//! ([`DiagnosticKind::is_structural`]): the invariants whose violation
//! the runtime would otherwise silently mis-execute. Explicit
//! verification ([`verify_placed`], [`crate::session::Session::verify`],
//! `figures --verify`) always reports the full set.
//!
//! Verification is a **pure reader** of the IR: it never mutates the
//! plan, the catalog or the server, so running it cannot perturb the
//! engine's bit-identical determinism guarantees.

use std::collections::HashMap;

use hape_sim::topology::{DeviceId, Server};
use hape_storage::DataType;

use crate::catalog::Catalog;
use crate::cost::{CostModel, HtEstimates};
use crate::exchange::Exchange;
use crate::place::{segment_traits, PlacedPlan, PlacedStage, Segment};
use crate::plan::{PipeOp, Pipeline, QueryPlan, Stage};
use crate::provider::GPU_HT_WORKING_FACTOR;
use crate::traits::HetTraits;

/// Which verifier pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Pass 1: walk every pipeline propagating the available column
    /// set/types; reject dropped/unknown column references and malformed
    /// operator orders.
    SchemaDataflow,
    /// Pass 2: recompute the [`HetTraits`] flow across placed segments;
    /// assert every mismatch is discharged by exactly the right exchange
    /// and no dead exchanges exist.
    TraitCoherence,
    /// Pass 3: devices exist on the server, broadcast footprints fit the
    /// receiving GPUs, co-process stages are §5-shaped.
    DeviceAudit,
    /// Pass 4: stateful stages carry a valid user-aligned packetization
    /// contract; stage barriers cover every routed worker.
    Determinism,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Pass::SchemaDataflow => "schema-dataflow",
            Pass::TraitCoherence => "trait-coherence",
            Pass::DeviceAudit => "device-audit",
            Pass::Determinism => "determinism",
        };
        write!(f, "{s}")
    }
}

/// What exactly is wrong — one variant per invariant class the verifier
/// checks (the mutation self-test corpus in `tests/verify.rs` corrupts a
/// valid plan one class at a time and asserts the specific variant).
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosticKind {
    /// A pipeline scans a table the catalog does not have.
    UnknownSource {
        /// The missing source table.
        table: String,
    },
    /// An expression or operator references a column the dataflow schema
    /// does not have at that point.
    ColumnOutOfRange {
        /// The out-of-range column index.
        column: usize,
        /// The schema width at that point.
        width: usize,
        /// Where the reference appears (`filter`, `project`, `probe key`,
        /// `agg`, `group-by`, `build key`).
        context: &'static str,
    },
    /// A probe key column is not `i32`/date typed in the dataflow schema.
    ProbeKeyType {
        /// The probed hash table.
        ht: String,
        /// The key column.
        key_col: usize,
        /// The type the dataflow found there.
        found: DataType,
    },
    /// A probe's build-payload index exceeds the build stage's output
    /// width.
    PayloadOutOfRange {
        /// The probed hash table.
        ht: String,
        /// The offending payload column index.
        column: usize,
        /// The build pipeline's output width.
        build_width: usize,
    },
    /// A pipeline probes a hash table no earlier stage builds.
    ProbeUnbuilt {
        /// The unbuilt table.
        ht: String,
    },
    /// A build stage's pipeline ends in an aggregation.
    BuildAggregates {
        /// The offending build stage name.
        name: String,
    },
    /// A stream stage's pipeline has no terminal aggregation.
    StreamMissingAgg,
    /// The plan does not have exactly one stream stage.
    NotExactlyOneStream {
        /// How many it has.
        streams: usize,
    },
    /// A stateful aggregate appears after a row-reshaping operator.
    StatefulAfterReshape,
    /// A stateful aggregate's user/ts/event column has the wrong type.
    StatefulColumnType {
        /// The column index.
        column: usize,
        /// Which role the column plays (`user`, `ts`, `event`).
        role: &'static str,
        /// The type the dataflow found there.
        found: DataType,
    },
    /// A segment's stored traits disagree with the traits recomputed from
    /// its device and the server.
    TraitsMismatch {
        /// The traits recomputed from the device.
        expected: HetTraits,
        /// The traits the segment carries.
        found: HetTraits,
    },
    /// A trait mismatch on a segment's input edge has no converting
    /// exchange.
    MissingExchange {
        /// Rendered form of the missing exchange.
        expected: String,
    },
    /// An exchange exists on an edge with no trait mismatch requiring it
    /// (or with the wrong endpoints).
    DeadExchange {
        /// Rendered form of the dead exchange.
        exchange: String,
    },
    /// A device-local segment probes a hash table its input edge never
    /// broadcasts.
    MissingBroadcast {
        /// The un-broadcast table.
        ht: String,
    },
    /// A broadcast exists for a table the pipeline does not probe, or
    /// duplicates another broadcast of the same table.
    UnexpectedBroadcast {
        /// The spurious broadcast's table.
        ht: String,
    },
    /// The stage fans out over more than one worker but has no router.
    MissingRouter {
        /// The stage's total degree of parallelism.
        total_dop: usize,
    },
    /// The router's dop conversion does not match the stage: the source
    /// side must be 1 and the consumer side the segments' summed dop.
    RouterDopMismatch {
        /// Router producer-side dop.
        from_dop: usize,
        /// Router consumer-side dop.
        to_dop: usize,
        /// The segments' summed dop.
        total_dop: usize,
    },
    /// A segment (or co-process lane) targets a device the server does
    /// not have.
    DeviceNotPresent {
        /// The absent device.
        device: DeviceId,
    },
    /// The broadcast hash tables (with working space) exceed the
    /// receiving GPU's memory — the §6.4 capacity constraint, checked on
    /// the cost model's estimates.
    BroadcastOverCapacity {
        /// The receiving GPU.
        device: DeviceId,
        /// Estimated bytes required (tables × working factor).
        required: u64,
        /// The device's capacity.
        capacity: u64,
    },
    /// A co-process stage's named table is not its pipeline's final
    /// probe.
    CoProcessFinalProbeMismatch {
        /// The table the stage claims to co-process.
        ht: String,
    },
    /// A co-process stage has no GPU lanes.
    CoProcessNoGpuLane,
    /// A co-process stage's CPU prefix has a GPU segment.
    CoProcessGpuSegment {
        /// The offending segment's device.
        device: DeviceId,
    },
    /// No legal co-partitioning fanout exists for the co-processed probe
    /// within the CPU's multi-pass bound.
    CoProcessInfeasibleFanout {
        /// The co-processed table.
        ht: String,
    },
    /// A stateful aggregate's user column is not a valid column of the
    /// *source* table — the engine aligns packet boundaries on it in
    /// source coordinates, so an invalid index breaks the user-aligned
    /// packetization contract.
    StatefulAlignmentInvalid {
        /// The user column the aggregate carries.
        user_col: usize,
        /// The source table's width.
        source_width: usize,
    },
    /// The stage router routes packets to a different worker count than
    /// the segments instantiate, so the stage barrier would not cover
    /// every worker that received packets.
    BarrierCoverage {
        /// Workers the router routes to.
        to_dop: usize,
        /// Workers the segments instantiate (and the barrier waits on).
        total_dop: usize,
    },
    /// The plan pins packetization to zero rows per packet.
    InvalidPacketRows,
}

impl DiagnosticKind {
    /// True for invariants whose violation the runtime would silently
    /// mis-execute — the ones the `debug_assertions` hook aborts on.
    /// False for conditions the engine already rejects with typed runtime
    /// errors (absent devices, unbuilt probes, capacity, co-process
    /// lane shape, a stateful aggregate's columns against its source
    /// table), which depend on catalog/server state rather than on the
    /// pass pipeline's correctness.
    pub fn is_structural(&self) -> bool {
        !matches!(
            self,
            DiagnosticKind::UnknownSource { .. }
                | DiagnosticKind::ProbeUnbuilt { .. }
                | DiagnosticKind::DeviceNotPresent { .. }
                | DiagnosticKind::BroadcastOverCapacity { .. }
                | DiagnosticKind::CoProcessNoGpuLane
                | DiagnosticKind::CoProcessInfeasibleFanout { .. }
                | DiagnosticKind::StatefulColumnType { .. }
                | DiagnosticKind::StatefulAlignmentInvalid { .. }
        )
    }
}

impl std::fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiagnosticKind::UnknownSource { table } => {
                write!(f, "scan source {table:?} is not in the catalog")
            }
            DiagnosticKind::ColumnOutOfRange { column, width, context } => {
                write!(f, "column {column} out of range in {context} (schema width {width})")
            }
            DiagnosticKind::ProbeKeyType { ht, key_col, found } => {
                write!(f, "probe of {ht:?} keys on column {key_col} of type {found:?} (need i32/date)")
            }
            DiagnosticKind::PayloadOutOfRange { ht, column, build_width } => {
                write!(
                    f,
                    "probe of {ht:?} appends build column {column} but the build output \
                     has {build_width} columns"
                )
            }
            DiagnosticKind::ProbeUnbuilt { ht } => {
                write!(f, "hash table {ht:?} probed but never built by an earlier stage")
            }
            DiagnosticKind::BuildAggregates { name } => {
                write!(f, "build stage {name:?} must not aggregate")
            }
            DiagnosticKind::StreamMissingAgg => {
                write!(f, "stream pipeline has no terminal aggregation")
            }
            DiagnosticKind::NotExactlyOneStream { streams } => {
                write!(f, "plan needs exactly one stream stage (got {streams})")
            }
            DiagnosticKind::StatefulAfterReshape => {
                write!(f, "stateful aggregate preceded by a row-reshaping operator")
            }
            DiagnosticKind::StatefulColumnType { column, role, found } => {
                write!(f, "stateful {role} column {column} has type {found:?}")
            }
            DiagnosticKind::TraitsMismatch { expected, found } => {
                write!(f, "segment traits {found:?} disagree with recomputed {expected:?}")
            }
            DiagnosticKind::MissingExchange { expected } => {
                write!(f, "missing exchange {expected}")
            }
            DiagnosticKind::DeadExchange { exchange } => {
                write!(f, "dead exchange {exchange}")
            }
            DiagnosticKind::MissingBroadcast { ht } => {
                write!(f, "probed table {ht:?} is never broadcast to this segment")
            }
            DiagnosticKind::UnexpectedBroadcast { ht } => {
                write!(f, "broadcast of {ht:?} not required by any probe (or duplicated)")
            }
            DiagnosticKind::MissingRouter { total_dop } => {
                write!(f, "stage fans out over {total_dop} workers but has no router")
            }
            DiagnosticKind::RouterDopMismatch { from_dop, to_dop, total_dop } => {
                write!(
                    f,
                    "router converts {from_dop} -> {to_dop} but the stage needs 1 -> {total_dop}"
                )
            }
            DiagnosticKind::DeviceNotPresent { device } => {
                write!(f, "device {device} is not on the server")
            }
            DiagnosticKind::BroadcastOverCapacity { device, required, capacity } => {
                write!(
                    f,
                    "broadcast tables need {required} B (with working space) but {device} \
                     has {capacity} B"
                )
            }
            DiagnosticKind::CoProcessFinalProbeMismatch { ht } => {
                write!(f, "co-process stage's final probe does not target {ht:?}")
            }
            DiagnosticKind::CoProcessNoGpuLane => {
                write!(f, "co-process stage has no GPU lanes")
            }
            DiagnosticKind::CoProcessGpuSegment { device } => {
                write!(f, "co-process CPU prefix has a GPU segment on {device}")
            }
            DiagnosticKind::CoProcessInfeasibleFanout { ht } => {
                write!(f, "no legal co-partitioning fanout for {ht:?} within CPU bounds")
            }
            DiagnosticKind::StatefulAlignmentInvalid { user_col, source_width } => {
                write!(
                    f,
                    "stateful user column {user_col} is outside the source schema \
                     (width {source_width}); packet alignment would be undefined"
                )
            }
            DiagnosticKind::BarrierCoverage { to_dop, total_dop } => {
                write!(
                    f,
                    "router routes to {to_dop} workers but the stage barrier waits on {total_dop}"
                )
            }
            DiagnosticKind::InvalidPacketRows => {
                write!(f, "packet_rows = 0 cannot make progress")
            }
        }
    }
}

/// One verifier finding, located in the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stage index, when the finding is stage-local.
    pub stage: Option<usize>,
    /// Segment device, when the finding is segment-local.
    pub segment: Option<DeviceId>,
    /// Pipeline operator index, when the finding is operator-local.
    pub op: Option<usize>,
    /// The pass that found it.
    pub pass: Pass,
    /// What is wrong.
    pub kind: DiagnosticKind,
}

impl std::fmt::Display for Diagnostic {
    /// Renders like one indented line of
    /// [`Session::explain`](crate::session::Session::explain):
    /// `stage 5 segment gpu0 op 1: [trait-coherence] missing exchange ...`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stage {
            Some(s) => write!(f, "stage {s}")?,
            None => write!(f, "plan")?,
        }
        if let Some(d) = self.segment {
            write!(f, " segment {d}")?;
        }
        if let Some(op) = self.op {
            write!(f, " op {op}")?;
        }
        write!(f, ": [{}] {}", self.pass, self.kind)
    }
}

/// A failed verification: the plan's name plus every diagnostic, in
/// (stage, segment, op) order.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// The verified plan's display name.
    pub plan: String,
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyError {
    /// Keep only the structural diagnostics
    /// ([`DiagnosticKind::is_structural`]); `None` when none are.
    pub fn structural(&self) -> Option<VerifyError> {
        let diagnostics: Vec<Diagnostic> =
            self.diagnostics.iter().filter(|d| d.kind.is_structural()).cloned().collect();
        if diagnostics.is_empty() {
            None
        } else {
            Some(VerifyError { plan: self.plan.clone(), diagnostics })
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "verify {}: {} diagnostic{}",
            self.plan,
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" }
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verify a logical-level physical plan (pass 1 only — the placed-IR
/// passes need segments to look at). Ok when no diagnostics.
pub fn verify_plan(plan: &QueryPlan, catalog: &Catalog) -> Result<(), VerifyError> {
    let diagnostics = check_plan(plan, catalog);
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { plan: plan.name.clone(), diagnostics })
    }
}

/// Verify a placed plan: all four passes. Ok when no diagnostics.
pub fn verify_placed(
    placed: &PlacedPlan,
    catalog: &Catalog,
    server: &Server,
) -> Result<(), VerifyError> {
    let diagnostics = check_placed(placed, catalog, server);
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { plan: placed.name.clone(), diagnostics })
    }
}

/// The `debug_assertions` hook: abort on structural diagnostics (the
/// invariants whose violation the runtime would silently mis-execute),
/// leave runtime-checked conditions to the engine's typed errors. Called
/// by [`crate::engine::Engine::begin`] and the optimizer on every chosen
/// candidate in debug builds; compiled out entirely in release builds.
#[cfg(debug_assertions)]
pub(crate) fn debug_check_placed(placed: &PlacedPlan, catalog: &Catalog, server: &Server) {
    if let Err(e) = verify_placed(placed, catalog, server) {
        if let Some(structural) = e.structural() {
            panic!("placed plan failed static verification (pass-pipeline bug):\n{structural}");
        }
    }
}

/// The one-line footer [`Session::explain`](crate::session::Session::explain)
/// appends — `verified: N stages, M diagnostics` — followed by one
/// rendered line per diagnostic when any exist.
pub fn explain_footer(placed: &PlacedPlan, catalog: &Catalog, server: &Server) -> String {
    use std::fmt::Write as _;
    let diagnostics = check_placed(placed, catalog, server);
    let mut out = format!(
        "verified: {} stage{}, {} diagnostic{}\n",
        placed.stages.len(),
        if placed.stages.len() == 1 { "" } else { "s" },
        diagnostics.len(),
        if diagnostics.len() == 1 { "" } else { "s" }
    );
    for d in &diagnostics {
        let _ = writeln!(out, "  {d}");
    }
    out
}

/// Run pass 1 over a logical-level plan, returning every diagnostic.
pub fn check_plan(plan: &QueryPlan, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut cx = Checker::new(catalog);
    let mut streams = 0usize;
    for (si, stage) in plan.stages.iter().enumerate() {
        match stage {
            Stage::Build { name, key_col, pipeline } => {
                cx.check_build(si, name, *key_col, pipeline);
            }
            Stage::Stream { pipeline } => {
                streams += 1;
                cx.check_stream(si, pipeline);
            }
        }
    }
    cx.check_stream_count(streams);
    cx.diagnostics
}

/// Run all four passes over a placed plan, returning every diagnostic.
/// `catalog` must be the catalog the plan's scans resolve against — for
/// lowered queries, the derived catalog in
/// [`crate::query::LoweredQuery::catalog`].
pub fn check_placed(
    placed: &PlacedPlan,
    catalog: &Catalog,
    server: &Server,
) -> Vec<Diagnostic> {
    let mut cx = Checker::new(catalog);

    // -------- pass 1: schema dataflow over every placed pipeline --------
    let mut streams = 0usize;
    for (si, stage) in placed.stages.iter().enumerate() {
        match stage {
            PlacedStage::Build { name, key_col, pipeline, .. } => {
                cx.check_build(si, name, *key_col, pipeline);
            }
            PlacedStage::Stream { pipeline, .. } | PlacedStage::CoProcess { pipeline, .. } => {
                streams += 1;
                cx.check_stream(si, pipeline);
            }
        }
    }
    cx.check_stream_count(streams);

    // -------- passes 2–4 over the placed segments --------
    let devices = server.devices();
    let model = CostModel::new(server, catalog);
    let mut hts = HtEstimates::new();
    for (si, stage) in placed.stages.iter().enumerate() {
        let pipeline = stage.pipeline();

        // Pass 3 (first half): device existence — segments and lanes.
        // Segments on absent devices are excluded from trait recomputation
        // (there is no spec to recompute against).
        let mut present: Vec<&Segment> = Vec::new();
        for seg in stage.segments() {
            if devices.contains(&seg.target) {
                present.push(seg);
            } else {
                cx.push(si, Some(seg.target), None, Pass::DeviceAudit, {
                    DiagnosticKind::DeviceNotPresent { device: seg.target }
                });
            }
        }

        // Pass 2: recompute the HetTraits flow and diff the exchanges.
        cx.check_trait_coherence(si, stage, pipeline, &present, server);

        // Pass 3 (second half): capacity + co-process shape, on the same
        // estimates the optimizer prices with. Estimation failures
        // (unknown source, unbuilt probe) were already flagged by pass 1.
        let est = model.estimate_pipeline(pipeline, &hts).ok();
        if let Some(est) = &est {
            cx.check_capacity(si, stage, est, server);
            if let PlacedStage::Build { name, .. } = stage {
                hts.insert(name.clone(), est.table_estimate());
            }
        }
        if let PlacedStage::CoProcess { ht, segments, gpus, .. } = stage {
            cx.check_coprocess(
                si,
                pipeline,
                ht,
                segments,
                gpus,
                est.as_ref(),
                &devices,
                &model,
            );
        }

        // Pass 4: determinism contracts.
        cx.check_determinism(si, stage, pipeline);
    }
    if placed.packet_rows == Some(0) {
        cx.push(usize::MAX, None, None, Pass::Determinism, DiagnosticKind::InvalidPacketRows);
    }
    cx.diagnostics
}

/// Internal state shared by the passes: the catalog, the accumulated
/// diagnostics, and the build-output schemas discovered so far.
struct Checker<'a> {
    catalog: &'a Catalog,
    diagnostics: Vec<Diagnostic>,
    /// Output column types of each build stage, by hash-table name.
    build_outputs: HashMap<String, Vec<DataType>>,
}

impl<'a> Checker<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Checker { catalog, diagnostics: Vec::new(), build_outputs: HashMap::new() }
    }

    fn push(
        &mut self,
        stage: usize,
        segment: Option<DeviceId>,
        op: Option<usize>,
        pass: Pass,
        kind: DiagnosticKind,
    ) {
        let stage = if stage == usize::MAX { None } else { Some(stage) };
        self.diagnostics.push(Diagnostic { stage, segment, op, pass, kind });
    }

    // ---------------- pass 1: schema dataflow ----------------

    fn check_build(&mut self, si: usize, name: &str, key_col: usize, pipeline: &Pipeline) {
        if pipeline.agg.is_some() {
            self.push(si, None, None, Pass::SchemaDataflow, {
                DiagnosticKind::BuildAggregates { name: name.to_string() }
            });
        }
        let Some(out) = self.dataflow(si, pipeline) else { return };
        if key_col >= out.len() {
            self.push(si, None, None, Pass::SchemaDataflow, {
                DiagnosticKind::ColumnOutOfRange {
                    column: key_col,
                    width: out.len(),
                    context: "build key",
                }
            });
        }
        self.build_outputs.insert(name.to_string(), out);
    }

    fn check_stream(&mut self, si: usize, pipeline: &Pipeline) {
        let out = self.dataflow(si, pipeline);
        match &pipeline.agg {
            None => {
                self.push(
                    si,
                    None,
                    None,
                    Pass::SchemaDataflow,
                    DiagnosticKind::StreamMissingAgg,
                );
            }
            Some(_) if out.is_none() => {}
            Some(spec) => {
                let out = out.as_deref().unwrap_or(&[]);
                for &g in &spec.group_by {
                    if g >= out.len() {
                        self.push(si, None, None, Pass::SchemaDataflow, {
                            DiagnosticKind::ColumnOutOfRange {
                                column: g,
                                width: out.len(),
                                context: "group-by",
                            }
                        });
                    }
                }
                for (_, expr) in &spec.aggs {
                    for c in expr.columns_used() {
                        if c >= out.len() {
                            self.push(si, None, None, Pass::SchemaDataflow, {
                                DiagnosticKind::ColumnOutOfRange {
                                    column: c,
                                    width: out.len(),
                                    context: "agg",
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    fn check_stream_count(&mut self, streams: usize) {
        if streams != 1 {
            self.push(usize::MAX, None, None, Pass::SchemaDataflow, {
                DiagnosticKind::NotExactlyOneStream { streams }
            });
        }
    }

    /// Walk one pipeline's operators, propagating the column types, and
    /// return the output schema. Out-of-range references are flagged but
    /// the walk continues with each operator's declared output shape, so
    /// one corruption yields one diagnostic, not a cascade. An unknown
    /// source is `None`: with no schema to flow there is nothing sound to
    /// check downstream, so the walk stops at its one diagnostic (the
    /// engine's typed `MissingTable` owns the condition at runtime).
    fn dataflow(&mut self, si: usize, pipeline: &Pipeline) -> Option<Vec<DataType>> {
        let mut cols: Vec<DataType> = match self.catalog.get(&pipeline.source) {
            Some(t) => t.schema.fields.iter().map(|f| f.dtype).collect(),
            None => {
                self.push(si, None, None, Pass::SchemaDataflow, {
                    DiagnosticKind::UnknownSource { table: pipeline.source.clone() }
                });
                return None;
            }
        };
        let mut reshaped = false;
        for (oi, op) in pipeline.ops.iter().enumerate() {
            match op {
                PipeOp::Filter(expr) => {
                    self.check_expr_cols(si, oi, expr, cols.len(), "filter");
                }
                PipeOp::Project(exprs) => {
                    for e in exprs {
                        self.check_expr_cols(si, oi, e, cols.len(), "project");
                    }
                    cols = vec![DataType::F64; exprs.len()];
                    reshaped = true;
                }
                PipeOp::JoinProbe { ht, key_col, build_payload_cols, .. } => {
                    if *key_col >= cols.len() {
                        self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                            DiagnosticKind::ColumnOutOfRange {
                                column: *key_col,
                                width: cols.len(),
                                context: "probe key",
                            }
                        });
                    } else {
                        let found = cols[*key_col];
                        if !matches!(found, DataType::I32 | DataType::Date) {
                            self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                                DiagnosticKind::ProbeKeyType {
                                    ht: ht.clone(),
                                    key_col: *key_col,
                                    found,
                                }
                            });
                        }
                    }
                    match self.build_outputs.get(ht).cloned() {
                        None => {
                            self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                                DiagnosticKind::ProbeUnbuilt { ht: ht.clone() }
                            });
                            // Unknown build output: assume the payloads are
                            // wide floats so the walk can continue.
                            cols.extend(build_payload_cols.iter().map(|_| DataType::F64));
                        }
                        Some(build) => {
                            for &p in build_payload_cols {
                                match build.get(p) {
                                    Some(t) => cols.push(*t),
                                    None => {
                                        self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                                            DiagnosticKind::PayloadOutOfRange {
                                                ht: ht.clone(),
                                                column: p,
                                                build_width: build.len(),
                                            }
                                        });
                                        cols.push(DataType::F64);
                                    }
                                }
                            }
                        }
                    }
                    reshaped = true;
                }
                PipeOp::Stateful(agg) => {
                    if reshaped {
                        self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                            DiagnosticKind::StatefulAfterReshape
                        });
                    }
                    self.check_stateful_types(si, oi, agg, &cols);
                    cols = vec![DataType::I64; agg.out_width()];
                    reshaped = true;
                }
            }
        }
        Some(cols)
    }

    fn check_expr_cols(
        &mut self,
        si: usize,
        oi: usize,
        expr: &hape_ops::Expr,
        width: usize,
        context: &'static str,
    ) {
        for c in expr.columns_used() {
            if c >= width {
                self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                    DiagnosticKind::ColumnOutOfRange { column: c, width, context }
                });
            }
        }
    }

    /// Type-check a stateful aggregate's columns against the dataflow
    /// schema (range of the *user* column is the determinism pass's
    /// alignment contract; here only in-range columns are type-checked).
    fn check_stateful_types(
        &mut self,
        si: usize,
        oi: usize,
        agg: &hape_ops::StatefulAgg,
        cols: &[DataType],
    ) {
        for (role, column, accepted) in crate::plan::stateful_inputs(agg) {
            if let Some(&found) = cols.get(column).filter(|found| !accepted.contains(found)) {
                self.push(si, None, Some(oi), Pass::SchemaDataflow, {
                    DiagnosticKind::StatefulColumnType { column, role, found }
                });
            }
        }
    }

    // ---------------- pass 2: trait coherence ----------------

    /// Recompute each present segment's traits from its device, rebuild
    /// the exchange list the placement pass would insert, and diff.
    fn check_trait_coherence(
        &mut self,
        si: usize,
        stage: &PlacedStage,
        pipeline: &Pipeline,
        present: &[&Segment],
        server: &Server,
    ) {
        let source = HetTraits::cpu_seq();
        let mut probed: Vec<&str> = Vec::new();
        for t in pipeline.tables_probed() {
            if !probed.contains(&t) {
                probed.push(t);
            }
        }
        for seg in present {
            let expected = segment_traits(seg.target, server);
            if seg.traits != expected {
                self.push(si, Some(seg.target), None, Pass::TraitCoherence, {
                    DiagnosticKind::TraitsMismatch { expected, found: seg.traits }
                });
            }
            // The canonical exchange list for this edge.
            let mut want: Vec<Exchange> = Vec::new();
            if source.needs_mem_move(&expected) {
                want.push(Exchange::MemMove {
                    from: source.locality,
                    to: expected.locality,
                    table: None,
                });
            }
            if source.needs_device_crossing(&expected) {
                want.push(Exchange::DeviceCrossing {
                    from: source.device,
                    to: expected.device,
                });
            }
            if source.needs_mem_move(&expected) {
                for ht in &probed {
                    want.push(Exchange::MemMove {
                        from: source.locality,
                        to: expected.locality,
                        table: Some((*ht).to_string()),
                    });
                }
            }
            // Set-diff: each expected exchange must appear once; anything
            // beyond that is dead. Broadcasts are reported by table name.
            let mut have: Vec<&Exchange> = seg.exchanges.iter().collect();
            for w in &want {
                match have.iter().position(|h| *h == w) {
                    Some(i) => {
                        have.remove(i);
                    }
                    None => {
                        let kind = match w {
                            Exchange::MemMove { table: Some(ht), .. } => {
                                DiagnosticKind::MissingBroadcast { ht: ht.clone() }
                            }
                            other => {
                                DiagnosticKind::MissingExchange { expected: other.to_string() }
                            }
                        };
                        self.push(si, Some(seg.target), None, Pass::TraitCoherence, kind);
                    }
                }
            }
            for h in have {
                let kind = match h {
                    Exchange::MemMove { table: Some(ht), .. } => {
                        DiagnosticKind::UnexpectedBroadcast { ht: ht.clone() }
                    }
                    other => DiagnosticKind::DeadExchange { exchange: other.to_string() },
                };
                self.push(si, Some(seg.target), None, Pass::TraitCoherence, kind);
            }
        }
        // The stage-level router: present iff the summed dop differs from
        // the source's, converting exactly 1 -> total. (The consumer-side
        // coverage equation — to_dop == total — is the determinism pass's
        // barrier check.)
        let total_dop: usize = stage.segments().iter().map(|s| s.traits.dop).sum();
        match stage.router() {
            None => {
                if total_dop != source.dop {
                    self.push(si, None, None, Pass::TraitCoherence, {
                        DiagnosticKind::MissingRouter { total_dop }
                    });
                }
            }
            Some(Exchange::Router { from_dop, to_dop, .. }) => {
                if total_dop == source.dop {
                    self.push(si, None, None, Pass::TraitCoherence, {
                        DiagnosticKind::DeadExchange {
                            exchange: format!("Router(_, {from_dop} -> {to_dop})"),
                        }
                    });
                } else if *from_dop != source.dop {
                    self.push(si, None, None, Pass::TraitCoherence, {
                        DiagnosticKind::RouterDopMismatch {
                            from_dop: *from_dop,
                            to_dop: *to_dop,
                            total_dop,
                        }
                    });
                }
            }
            Some(other) => {
                self.push(si, None, None, Pass::TraitCoherence, {
                    DiagnosticKind::DeadExchange { exchange: other.to_string() }
                });
            }
        }
    }

    // ---------------- pass 3: device & capacity audit ----------------

    /// Check each GPU segment's broadcast footprint (with working space)
    /// against the device's capacity, on the cost model's estimates —
    /// the same numbers the optimizer prunes with (§6.4).
    fn check_capacity(
        &mut self,
        si: usize,
        stage: &PlacedStage,
        est: &crate::cost::PipelineEstimate,
        server: &Server,
    ) {
        for seg in stage.segments() {
            let DeviceId::Gpu(g) = seg.target else { continue };
            let Some(spec) = server.gpus.get(g) else { continue };
            // The exchanges are the authoritative list of what this
            // segment installs; estimate each distinct broadcast table.
            let mut seen: Vec<&str> = Vec::new();
            let mut bytes = 0u64;
            for x in seg.broadcast_moves() {
                let Exchange::MemMove { table: Some(ht), .. } = x else { continue };
                if seen.contains(&ht.as_str()) {
                    continue;
                }
                seen.push(ht);
                if let Some(p) = est.probes.iter().find(|p| &p.ht == ht) {
                    bytes += p.ht_bytes;
                }
            }
            if bytes == 0 {
                continue;
            }
            let required = (bytes as f64 * GPU_HT_WORKING_FACTOR) as u64;
            let capacity = spec.dram_capacity as u64;
            if required > capacity {
                self.push(si, Some(seg.target), None, Pass::DeviceAudit, {
                    DiagnosticKind::BroadcastOverCapacity {
                        device: seg.target,
                        required,
                        capacity,
                    }
                });
            }
        }
    }

    /// §5 co-process shape: final probe targets the named table, the CPU
    /// prefix has no GPU segments, at least one (present) GPU lane, and a
    /// legal co-partitioning fanout exists.
    #[allow(clippy::too_many_arguments)]
    fn check_coprocess(
        &mut self,
        si: usize,
        pipeline: &Pipeline,
        ht: &str,
        segments: &[Segment],
        gpus: &[DeviceId],
        est: Option<&crate::cost::PipelineEstimate>,
        devices: &[DeviceId],
        model: &CostModel,
    ) {
        if pipeline.last_probe().is_none_or(|(_, t)| t != ht) {
            self.push(si, None, None, Pass::DeviceAudit, {
                DiagnosticKind::CoProcessFinalProbeMismatch { ht: ht.to_string() }
            });
        }
        for seg in segments {
            if seg.target.is_gpu() {
                self.push(si, Some(seg.target), None, Pass::DeviceAudit, {
                    DiagnosticKind::CoProcessGpuSegment { device: seg.target }
                });
            }
        }
        if gpus.is_empty() {
            self.push(si, None, None, Pass::DeviceAudit, DiagnosticKind::CoProcessNoGpuLane);
            return;
        }
        let mut lanes_ok = true;
        for &g in gpus {
            if !devices.contains(&g) {
                lanes_ok = false;
                self.push(si, Some(g), None, Pass::DeviceAudit, {
                    DiagnosticKind::DeviceNotPresent { device: g }
                });
            }
        }
        // Fanout feasibility, priced exactly as the optimizer does. Only
        // meaningful when the estimate resolved and the lanes exist.
        if let (Some(est), true) = (est, lanes_ok) {
            let cpus: Vec<DeviceId> =
                segments.iter().map(|s| s.target).filter(|d| !d.is_gpu()).collect();
            if !cpus.is_empty() {
                match model.coprocess_cost(est, &cpus, gpus) {
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => {
                        self.push(si, None, None, Pass::DeviceAudit, {
                            DiagnosticKind::CoProcessInfeasibleFanout { ht: ht.to_string() }
                        });
                    }
                }
            }
        }
    }

    // ---------------- pass 4: determinism contracts ----------------

    /// Stateful stages must carry a user column that is valid in *source*
    /// coordinates (the engine aligns packet boundaries on it there), and
    /// the stage router must route to exactly the workers the barrier
    /// waits on.
    fn check_determinism(&mut self, si: usize, stage: &PlacedStage, pipeline: &Pipeline) {
        if let Some(agg) = pipeline.stateful_agg() {
            if let Some(table) = self.catalog.get(&pipeline.source) {
                let source_width = table.schema.fields.len();
                if agg.user_col() >= source_width {
                    self.push(si, None, None, Pass::Determinism, {
                        DiagnosticKind::StatefulAlignmentInvalid {
                            user_col: agg.user_col(),
                            source_width,
                        }
                    });
                }
            }
        }
        let total_dop: usize = stage.segments().iter().map(|s| s.traits.dop).sum();
        if let Some(Exchange::Router { to_dop, .. }) = stage.router() {
            if *to_dop != total_dop {
                self.push(si, None, None, Pass::Determinism, {
                    DiagnosticKind::BarrierCoverage { to_dop: *to_dop, total_dop }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExecConfig, Placement};
    use crate::place::place;
    use crate::plan::JoinAlgo;
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_storage::datagen::gen_key_fk_table;

    fn setup() -> (Catalog, Server) {
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 1));
        catalog.register_as("dim", gen_key_fk_table(1 << 10, 1 << 10, 2));
        (catalog, Server::paper_testbed())
    }

    fn join_plan() -> QueryPlan {
        QueryPlan::try_new(
            "v",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .expect("valid plan")
    }

    #[test]
    fn valid_plans_verify_clean_on_every_manual_placement() {
        let (catalog, server) = setup();
        let plan = join_plan();
        assert_eq!(check_plan(&plan, &catalog), Vec::new());
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            let placed =
                place(&plan, &ExecConfig::new(placement), &server).expect("placement succeeds");
            let diags = check_placed(&placed, &catalog, &server);
            assert_eq!(diags, Vec::new(), "{placement:?}");
            assert!(verify_placed(&placed, &catalog, &server).is_ok());
        }
    }

    #[test]
    fn diagnostics_render_with_locations() {
        let d = Diagnostic {
            stage: Some(5),
            segment: Some(DeviceId::Gpu(0)),
            op: Some(1),
            pass: Pass::TraitCoherence,
            kind: DiagnosticKind::MissingExchange {
                expected: "DeviceCrossing(Cpu -> Gpu)".into(),
            },
        };
        assert_eq!(
            d.to_string(),
            "stage 5 segment gpu0 op 1: [trait-coherence] missing exchange \
             DeviceCrossing(Cpu -> Gpu)"
        );
        let e = VerifyError { plan: "Q5".into(), diagnostics: vec![d] };
        let text = e.to_string();
        assert!(text.starts_with("verify Q5: 1 diagnostic\n"), "{text}");
        assert!(text.contains("[trait-coherence]"), "{text}");
    }

    #[test]
    fn structural_filter_keeps_runtime_checked_kinds_out() {
        let mk = |kind| Diagnostic {
            stage: Some(0),
            segment: None,
            op: None,
            pass: Pass::DeviceAudit,
            kind,
        };
        let e = VerifyError {
            plan: "p".into(),
            diagnostics: vec![
                mk(DiagnosticKind::DeviceNotPresent { device: DeviceId::Gpu(7) }),
                mk(DiagnosticKind::BroadcastOverCapacity {
                    device: DeviceId::Gpu(0),
                    required: 10,
                    capacity: 1,
                }),
                mk(DiagnosticKind::ProbeUnbuilt { ht: "x".into() }),
            ],
        };
        assert!(e.structural().is_none(), "runtime-checked kinds are not structural");
        let e2 = VerifyError {
            plan: "p".into(),
            diagnostics: vec![mk(DiagnosticKind::StatefulAfterReshape)],
        };
        assert_eq!(e2.structural().expect("structural").diagnostics.len(), 1);
    }

    #[test]
    fn explain_footer_counts_stages_and_diagnostics() {
        let (catalog, server) = setup();
        let placed =
            place(&join_plan(), &ExecConfig::new(Placement::Hybrid), &server).expect("places");
        let footer = explain_footer(&placed, &catalog, &server);
        assert_eq!(footer, "verified: 2 stages, 0 diagnostics\n");
    }
}
