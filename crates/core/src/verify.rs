//! Static plan verification: an IR checker for [`QueryPlan`] and
//! [`PlacedPlan`] — the engine's MIR/HLO-style validator.
//!
//! A placed plan is its pipelines plus the device subsets placement chose;
//! the traits, exchanges and routers HetExchange derives from a placement
//! are functions of those subsets ([`mod@crate::place`]), so no consistency
//! between them is left to check. What this module checks is *judgement*
//! against a catalog and a server — whether the caller's pipelines bind,
//! whether the subsets name devices the server has, whether broadcast hash
//! tables fit the receiving GPUs, whether a co-processing stage can
//! co-partition — *statically*, before execution, reporting each violation
//! as a typed [`Diagnostic`] carrying its (stage, segment, op) location.
//!
//! Everything that judges the *caller's* pipelines
//! ([`Pass::SchemaDataflow`], [`Pass::Determinism`]) does not live here:
//! it is the binding walk in [`crate::plan`]
//! ([`crate::plan::QueryPlan::bind`] documents it invariant by invariant),
//! which `QueryPlan::validate`, `Engine::place`, every executor and this
//! module all call — and every one of them but this module refuses with
//! its first finding, as [`crate::PlanError::Unbound`]. The device audit
//! over the subsets is below.
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
//! | a group-by has at most 4 columns | [`Pass::SchemaDataflow`] | [`DiagnosticKind::TooManyGroupColumns`] | §3 |
//! | stateful user/ts/event columns are correctly typed | [`Pass::SchemaDataflow`] | [`DiagnosticKind::StatefulColumnType`] | PR 7 |
//! | every segment's and lane's device exists on the server | [`Pass::DeviceAudit`] | [`DiagnosticKind::DeviceNotPresent`] | §2.1 |
//! | broadcast footprints fit the receiving GPU | [`Pass::DeviceAudit`] | [`DiagnosticKind::BroadcastOverCapacity`] | §6.4 |
//! | co-process stages have ≥ 1 GPU lane | [`Pass::DeviceAudit`] | [`DiagnosticKind::CoProcessNoGpuLane`] | §5 |
//! | a co-partitioning fanout exists within CPU bounds (none without a probe) | [`Pass::DeviceAudit`] | [`DiagnosticKind::CoProcessInfeasibleFanout`] | §5 |
//! | stateful user/ts/event columns are valid in source coordinates | [`Pass::Determinism`] | [`DiagnosticKind::StatefulAlignmentInvalid`] | PR 7 (user-aligned packets) |
//!
//! The binding walk is **enforced in every build profile**: no executor
//! ([`crate::engine::Engine::begin`], the baselines) moves a packet of a
//! plan it refuses; the first finding surfaces as the refusal, so the
//! static and runtime verdicts agree kind for kind. Explicit
//! verification ([`verify_placed`], [`crate::session::Session::verify`],
//! [`check_placed`]) reports every finding, the device audit's included;
//! the differential harness (`tests/differential.rs`) asserts the audit is
//! empty exactly when the engine runs the placed plan.
//!
//! Verification is a **pure reader** of the IR: it never mutates the
//! plan, the catalog or the server, so running it cannot perturb the
//! engine's bit-identical determinism guarantees.

use hape_ops::expr::ExprKind;
use hape_sim::topology::{DeviceId, Server};
use hape_storage::DataType;

use crate::catalog::Catalog;
use crate::cost::{CostModel, HtEstimates};
use crate::place::{PlacedPlan, PlacedStage};
use crate::plan::{bind, QueryPlan};
use crate::provider::GPU_HT_WORKING_FACTOR;

/// Which check produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The binding walk: every pipeline propagates the available column
    /// set/types; dropped/unknown column references and malformed operator
    /// orders are rejected.
    SchemaDataflow,
    /// Devices exist on the server, broadcast footprints fit the receiving
    /// GPUs, co-process stages have lanes and a feasible co-partitioning.
    DeviceAudit,
    /// Stateful stages carry a valid user-aligned packetization contract
    /// (judged by the binding walk, where the schema flows).
    Determinism,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Pass::SchemaDataflow => "schema-dataflow",
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
    /// A group-by names more columns than a group key holds.
    TooManyGroupColumns {
        /// The group-by's arity.
        got: usize,
        /// The most a group key holds.
        max: usize,
    },
    /// A stateful aggregate's user/ts/event column has the wrong type.
    StatefulColumnType {
        /// The column index.
        column: usize,
        /// Which role the column plays (`user`, `ts`, `event`).
        role: &'static str,
        /// The type the dataflow found there.
        found: DataType,
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
    /// A co-process stage has no GPU lanes.
    CoProcessNoGpuLane,
    /// No legal co-partitioning fanout exists for the co-processed probe
    /// within the CPU's multi-pass bound — or the pipeline has no probe to
    /// co-process.
    CoProcessInfeasibleFanout {
        /// The co-processed table (empty when the pipeline probes none).
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
            DiagnosticKind::TooManyGroupColumns { got, max } => {
                write!(f, "group-by has {got} columns, a group key holds {max}")
            }
            DiagnosticKind::StatefulColumnType { column, role, found } => {
                write!(f, "stateful {role} column {column} has type {found:?}")
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
            DiagnosticKind::CoProcessNoGpuLane => {
                write!(f, "co-process stage has no GPU lanes")
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
    /// `stage 5 segment gpu7: [device-audit] device gpu7 is not on the server`.
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

/// Verify a logical-level physical plan (the binding walk only — the
/// device audit needs placed stages to look at). Ok when no diagnostics.
pub fn verify_plan(plan: &QueryPlan, catalog: &Catalog) -> Result<(), VerifyError> {
    verdict(&plan.name, check_plan(plan, catalog))
}

/// Verify a placed plan: the binding walk and the device audit. Ok when no
/// diagnostics.
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

/// Run the binding walk, [`crate::plan::QueryPlan::bind`]'s, over a
/// logical-level plan, returning every diagnostic.
pub fn check_plan(plan: &QueryPlan, catalog: &Catalog) -> Vec<Diagnostic> {
    bind(plan.views(), Some(catalog))
}

/// Run the binding walk and the device audit over a placed plan, returning
/// every diagnostic. `catalog` must be the catalog the plan's scans resolve
/// against — for lowered queries, the derived catalog in
/// [`crate::query::LoweredQuery::catalog`].
pub fn check_placed(
    placed: &PlacedPlan,
    catalog: &Catalog,
    server: &Server,
) -> Vec<Diagnostic> {
    let mut diagnostics = bind(placed.views(), Some(catalog));
    let mut audit = |stage, segment, kind| {
        diagnostics.push(Diagnostic {
            stage: Some(stage),
            segment,
            op: None,
            pass: Pass::DeviceAudit,
            kind,
        });
    };
    let present = server.devices();
    let model = CostModel::new(server, catalog);
    let mut hts = HtEstimates::new();
    for (si, stage) in placed.stages.iter().enumerate() {
        let pipeline = stage.pipeline();
        let absent: Vec<DeviceId> =
            stage.devices().into_iter().filter(|d| !present.contains(d)).collect();
        for &device in &absent {
            audit(si, Some(device), DiagnosticKind::DeviceNotPresent { device });
        }
        // Capacity and co-process feasibility, on the same estimates the
        // optimizer prices with. Estimation failures (unknown source,
        // unbuilt probe) were already flagged by the binding walk.
        let est = model.estimate_pipeline(pipeline, &hts).ok();
        match stage {
            PlacedStage::Build { segments, .. } | PlacedStage::Stream { segments, .. } => {
                let Some(est) = &est else { continue };
                // A GPU segment installs every table its pipeline probes
                // (its broadcast mem-moves), with working space (§6.4).
                let bytes: u64 = pipeline
                    .tables_probed()
                    .into_iter()
                    .filter_map(|ht| est.probes.iter().find(|p| p.ht == ht))
                    .map(|p| p.ht_bytes)
                    .sum();
                let required = (bytes as f64 * GPU_HT_WORKING_FACTOR) as u64;
                for seg in segments {
                    let DeviceId::Gpu(g) = seg.target else { continue };
                    let Some(spec) = server.gpus.get(g) else { continue };
                    let capacity = spec.dram_capacity as u64;
                    if required > capacity {
                        let device = seg.target;
                        let kind = DiagnosticKind::BroadcastOverCapacity {
                            device,
                            required,
                            capacity,
                        };
                        audit(si, Some(device), kind);
                    }
                }
                if let PlacedStage::Build { name, .. } = stage {
                    hts.insert(name.clone(), est.table_estimate());
                }
            }
            PlacedStage::CoProcess { cpus, gpus, .. } => {
                if gpus.is_empty() {
                    audit(si, None, DiagnosticKind::CoProcessNoGpuLane);
                } else if let (Some(est), true) = (&est, absent.is_empty()) {
                    // Fanout feasibility, priced exactly as the optimizer
                    // prices it — a stage with no probe has none.
                    let cpus: Vec<DeviceId> = cpus.iter().map(|&s| DeviceId::Cpu(s)).collect();
                    let gpus: Vec<DeviceId> = gpus.iter().map(|&g| DeviceId::Gpu(g)).collect();
                    if !matches!(model.coprocess_cost(est, &cpus, &gpus), Ok(Some(_))) {
                        let ht = pipeline.last_probe().map_or("", |(_, ht)| ht).to_string();
                        audit(si, None, DiagnosticKind::CoProcessInfeasibleFanout { ht });
                    }
                }
            }
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExecConfig, Placement};
    use crate::place::place;
    use crate::plan::{JoinAlgo, Pipeline, Stage};
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
        let device = DeviceId::Gpu(7);
        let absent = Diagnostic {
            stage: Some(5),
            segment: Some(device),
            op: None,
            pass: Pass::DeviceAudit,
            kind: DiagnosticKind::DeviceNotPresent { device },
        };
        assert_eq!(
            absent.to_string(),
            "stage 5 segment gpu7: [device-audit] device gpu7 is not on the server"
        );
        let empty = Diagnostic {
            stage: Some(5),
            segment: None,
            op: Some(1),
            pass: Pass::SchemaDataflow,
            kind: DiagnosticKind::EmptyProject,
        };
        assert_eq!(
            empty.to_string(),
            "stage 5 op 1: [schema-dataflow] projection has no output columns"
        );
        let e = VerifyError { plan: "Q5".into(), diagnostics: vec![absent] };
        let text = e.to_string();
        assert!(text.starts_with("verify Q5: 1 diagnostic\n"), "{text}");
        assert!(text.contains("[device-audit]"), "{text}");
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
