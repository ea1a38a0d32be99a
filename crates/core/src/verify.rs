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
//! Pass 1 — everything that judges the *caller's* pipelines — does not
//! live here: it is the binding walk in [`crate::plan`]
//! ([`crate::plan::QueryPlan::bind`] documents it invariant by invariant,
//! with the error each refusal surfaces as), which `QueryPlan::validate`,
//! every executor and this module all call. Passes 2–4, over what *our*
//! placement passes add, are below.
//!
//! ## Invariants ↔ passes ↔ diagnostics ↔ paper sections
//!
//! | invariant | pass | diagnostic | paper § |
//! |---|---|---|---|
//! | every column reference resolves in the dataflow schema | [`Pass::SchemaDataflow`] | [`DiagnosticKind::ColumnOutOfRange`] | §3 (operator fusion) |
//! | scan sources exist in the catalog | [`Pass::SchemaDataflow`] | [`DiagnosticKind::UnknownSource`] | §3 |
//! | probe and build keys are `i32`/date typed, group keys not `f64` | [`Pass::SchemaDataflow`] | [`DiagnosticKind::ProbeKeyType`] / [`DiagnosticKind::KeyType`] | §4.1 (hash joins), §3 |
//! | filters are boolean; projections, aggregate arguments and operands of the kind their operator takes | [`Pass::SchemaDataflow`] | [`DiagnosticKind::ExprKindMismatch`] | §3 (operator fusion) |
//! | projections have a column | [`Pass::SchemaDataflow`] | [`DiagnosticKind::EmptyProject`] | §3 |
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
//! | stateful user/ts/event columns are valid in source coordinates | [`Pass::Determinism`] | [`DiagnosticKind::StatefulAlignmentInvalid`] | PR 7 (user-aligned packets) |
//! | the stage barrier covers every routed worker | [`Pass::Determinism`] | [`DiagnosticKind::BarrierCoverage`] | PR 5 (control plane) |
//! | packetization makes progress | [`Pass::Determinism`] | [`DiagnosticKind::InvalidPacketRows`] | PR 5 |
//!
//! ## Structural vs. runtime-checked diagnostics
//!
//! Pass 1 is **enforced at binding, in every build profile**: no executor
//! ([`crate::engine::Engine::begin`], the baselines) moves a packet of a
//! plan with a pass-1 diagnostic; the first one surfaces as a typed error.
//! The `debug_assertions` hook (`debug_check_placed`) covers passes 2–4 —
//! it asserts our own passes, after binding, so it cannot fire on a
//! caller's input — and panics only on **structural** diagnostics
//! ([`DiagnosticKind::is_structural`]): the ones that say the IR is
//! malformed. The rest depend on catalog/server *state* (an absent device,
//! an over-capacity broadcast, a table or column that is not there) and
//! stay with the interpreter's typed refusals. `is_structural` is also what
//! mid-query recovery and serving admission gate on. Explicit verification
//! ([`verify_placed`], [`crate::session::Session::verify`], `figures
//! --verify`) always reports the full set.
//!
//! Verification is a **pure reader** of the IR: it never mutates the
//! plan, the catalog or the server, so running it cannot perturb the
//! engine's bit-identical determinism guarantees.

use hape_ops::expr::ExprKind;
use hape_sim::topology::{DeviceId, Server};
use hape_storage::DataType;

use crate::catalog::Catalog;
use crate::cost::{CostModel, HtEstimates};
use crate::exchange::Exchange;
use crate::place::{input_exchanges, segment_traits, PlacedPlan, PlacedStage, Segment};
use crate::plan::{bind, Pipeline, QueryPlan};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// A build key is not `i32`/date typed, or a group-by column is `f64`
    /// typed, in its pipeline's output.
    KeyType {
        /// Which key (`build key`, `group-by`).
        context: &'static str,
        /// The key column.
        column: usize,
        /// The type the dataflow found there.
        found: DataType,
    },
    /// An expression, or an operand inside it, evaluates to the wrong kind:
    /// filters and `and`/`or` operands are boolean; projections, aggregate
    /// arguments and the operands of arithmetic and comparisons numeric.
    ExprKindMismatch {
        /// Where the expression appears (`filter`, `project`, `agg`).
        context: &'static str,
        /// The kind the position takes.
        expected: ExprKind,
        /// The kind found there.
        found: ExprKind,
    },
    /// A projection with no output columns (it would drop every row).
    EmptyProject,
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
    /// A stateful aggregate's user (or ts / event) column is not a valid
    /// column of the *source* table — the engine aligns packet boundaries
    /// on the user column in source coordinates, so an invalid index breaks
    /// the user-aligned packetization contract.
    StatefulAlignmentInvalid {
        /// Which role the column plays (`user`, `ts`, `event`).
        role: &'static str,
        /// The column the aggregate carries for that role.
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
    /// True for invariants that say the IR itself is malformed — what
    /// recovery and serving admission refuse on, and the `debug_assertions`
    /// hook aborts on for passes 2–4. False for conditions that depend on
    /// catalog/server state rather than on the IR's shape (absent devices,
    /// unbuilt probes, capacity, co-process lane shape, a stateful
    /// aggregate's columns against its source table), which the engine
    /// refuses with typed errors of their own.
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
            DiagnosticKind::KeyType { context, column, found } => {
                write!(f, "{context} column {column} has type {found:?}")
            }
            DiagnosticKind::ExprKindMismatch { context, expected, found } => {
                write!(f, "{context} expression takes {expected:?} where it has {found:?}")
            }
            DiagnosticKind::EmptyProject => write!(f, "projection has no output columns"),
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
            DiagnosticKind::StatefulAlignmentInvalid { role, user_col, source_width } => {
                write!(
                    f,
                    "stateful {role} column {user_col} is outside the source schema \
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    verdict(&plan.name, check_plan(plan, catalog))
}

/// Verify a placed plan: all four passes. Ok when no diagnostics.
pub fn verify_placed(
    placed: &PlacedPlan,
    catalog: &Catalog,
    server: &Server,
) -> Result<(), VerifyError> {
    verdict(&placed.name, check_placed(placed, catalog, server))
}

fn verdict(plan: &str, diagnostics: Vec<Diagnostic>) -> Result<(), VerifyError> {
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { plan: plan.to_string(), diagnostics })
    }
}

/// The `debug_assertions` hook on *our* passes: abort when passes 2–4
/// find a structural diagnostic in a plan the placement passes or the
/// optimizer just emitted. Pass 1 judges the caller's input and is enforced
/// by binding, in every profile, as typed errors — so this cannot fire on
/// user input. Called by [`crate::engine::Engine::begin`] (after binding)
/// and the optimizer on its chosen candidate; compiled out of release
/// builds.
#[cfg(debug_assertions)]
pub(crate) fn debug_check_placed(placed: &PlacedPlan, catalog: &Catalog, server: &Server) {
    let ours = check_placement(placed, catalog, server, Vec::new());
    if let Some(structural) = verdict(&placed.name, ours).err().and_then(|e| e.structural()) {
        panic!("placed plan failed static verification (pass-pipeline bug):\n{structural}");
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

/// Run pass 1 — the binding walk, [`crate::plan::QueryPlan::bind`]'s —
/// over a logical-level plan, returning every diagnostic.
pub fn check_plan(plan: &QueryPlan, catalog: &Catalog) -> Vec<Diagnostic> {
    bind(plan.views(), Some(catalog))
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
    check_placement(placed, catalog, server, bind(placed.views(), Some(catalog)))
}

/// Passes 2–4 over the placed segments, appended to `diagnostics` (pass
/// 1's, or none for the debug hook).
fn check_placement(
    placed: &PlacedPlan,
    catalog: &Catalog,
    server: &Server,
    diagnostics: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut cx = Checker { diagnostics };
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
                cx.push(Some(si), Some(seg.target), Pass::DeviceAudit, {
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
        cx.check_determinism(si, stage);
    }
    if placed.packet_rows == Some(0) {
        cx.push(None, None, Pass::Determinism, DiagnosticKind::InvalidPacketRows);
    }
    cx.diagnostics
}

/// The diagnostics passes 2–4 accumulate (none of theirs is
/// operator-local).
struct Checker {
    diagnostics: Vec<Diagnostic>,
}

impl Checker {
    fn push(
        &mut self,
        stage: Option<usize>,
        segment: Option<DeviceId>,
        pass: Pass,
        kind: DiagnosticKind,
    ) {
        self.diagnostics.push(Diagnostic { stage, segment, op: None, pass, kind });
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
        let probed = pipeline.tables_probed();
        for seg in present {
            let expected = segment_traits(seg.target, server);
            if seg.traits != expected {
                self.push(Some(si), Some(seg.target), Pass::TraitCoherence, {
                    DiagnosticKind::TraitsMismatch { expected, found: seg.traits }
                });
            }
            // The canonical exchange list for this edge.
            let want = input_exchanges(&expected, &probed);
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
                        self.push(Some(si), Some(seg.target), Pass::TraitCoherence, kind);
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
                self.push(Some(si), Some(seg.target), Pass::TraitCoherence, kind);
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
                    self.push(Some(si), None, Pass::TraitCoherence, {
                        DiagnosticKind::MissingRouter { total_dop }
                    });
                }
            }
            Some(Exchange::Router { from_dop, to_dop, .. }) => {
                if total_dop == source.dop {
                    self.push(Some(si), None, Pass::TraitCoherence, {
                        DiagnosticKind::DeadExchange {
                            exchange: format!("Router({from_dop} -> {to_dop})"),
                        }
                    });
                } else if *from_dop != source.dop {
                    self.push(Some(si), None, Pass::TraitCoherence, {
                        DiagnosticKind::RouterDopMismatch {
                            from_dop: *from_dop,
                            to_dop: *to_dop,
                            total_dop,
                        }
                    });
                }
            }
            Some(other) => {
                self.push(Some(si), None, Pass::TraitCoherence, {
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
                self.push(Some(si), Some(seg.target), Pass::DeviceAudit, {
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
            self.push(Some(si), None, Pass::DeviceAudit, {
                DiagnosticKind::CoProcessFinalProbeMismatch { ht: ht.to_string() }
            });
        }
        for seg in segments {
            if seg.target.is_gpu() {
                self.push(Some(si), Some(seg.target), Pass::DeviceAudit, {
                    DiagnosticKind::CoProcessGpuSegment { device: seg.target }
                });
            }
        }
        if gpus.is_empty() {
            self.push(Some(si), None, Pass::DeviceAudit, DiagnosticKind::CoProcessNoGpuLane);
            return;
        }
        let mut lanes_ok = true;
        for &g in gpus {
            if !devices.contains(&g) {
                lanes_ok = false;
                self.push(Some(si), Some(g), Pass::DeviceAudit, {
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
                        self.push(Some(si), None, Pass::DeviceAudit, {
                            DiagnosticKind::CoProcessInfeasibleFanout { ht: ht.to_string() }
                        });
                    }
                }
            }
        }
    }

    // ---------------- pass 4: determinism contracts ----------------

    /// The stage router must route to exactly the workers the barrier
    /// waits on. (The other determinism contract — a stateful aggregate's
    /// columns valid in *source* coordinates, where the engine aligns packet
    /// boundaries — is judged where the schema flows, by the binding walk.)
    fn check_determinism(&mut self, si: usize, stage: &PlacedStage) {
        let total_dop: usize = stage.segments().iter().map(|s| s.traits.dop).sum();
        if let Some(Exchange::Router { to_dop, .. }) = stage.router() {
            if *to_dop != total_dop {
                self.push(Some(si), None, Pass::Determinism, {
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
    use crate::plan::{JoinAlgo, Stage};
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
