//! Typed errors for plan construction, placement and execution.
//!
//! Everything that can go wrong while *describing* a query surfaces as a
//! [`PlanError`] from the logical front-end ([`crate::query`]) or from
//! [`crate::plan::QueryPlan::try_new`]; everything that goes wrong while
//! *placing* or *running* one surfaces as an [`EngineError`] from the
//! placement pass ([`mod@crate::place`]) or the engine interpreter. The
//! crate-level [`HapeError`] unifies the two for callers (the
//! [`crate::session::Session`] front door returns it), so `?` works across
//! the whole build→lower→place→execute path without `unwrap`s or panics.

use hape_storage::DataType;

/// Why a logical query could not be built or lowered, or why a physical
/// plan failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A scanned or joined table is not in the catalog.
    UnknownTable {
        /// The missing table name.
        table: String,
    },
    /// A logical query was lowered before `.scan(..)` gave it a source.
    MissingScan {
        /// The query name.
        query: String,
    },
    /// A column reference did not resolve against the visible schema.
    UnknownColumn {
        /// The unresolved column name.
        column: String,
        /// Where resolution was attempted (table or pipeline position).
        context: String,
    },
    /// An expression or column has the wrong type for its position.
    TypeMismatch {
        /// Where the mismatch was found.
        context: String,
        /// What the position requires.
        expected: &'static str,
        /// What the expression/column actually is.
        found: String,
    },
    /// A string literal was compared against a non-dictionary column.
    StringComparedToNonString {
        /// The literal.
        literal: String,
        /// Where the comparison appears.
        context: String,
    },
    /// A pipeline probes a hash table no earlier stage built.
    ProbeBeforeBuild {
        /// The unbuilt table name.
        table: String,
    },
    /// A build stage's pipeline ends in an aggregation.
    BuildWithAggregate {
        /// The offending build stage.
        stage: String,
    },
    /// A stream stage's pipeline (or a logical query being lowered for
    /// execution) has no terminal aggregation.
    StreamWithoutAggregate {
        /// The plan or query name.
        name: String,
    },
    /// A plan must have exactly one stream stage.
    NotExactlyOneStream {
        /// The plan name.
        plan: String,
        /// How many stream stages it has.
        streams: usize,
    },
    /// More group-by columns than the execution layer supports.
    TooManyGroupColumns {
        /// Requested group-by arity.
        got: usize,
        /// Supported maximum.
        max: usize,
    },
    /// A `select` projection produced no output columns.
    EmptySelect {
        /// The query whose select is empty.
        query: String,
    },
    /// A stateful per-user aggregate appears after an operator that
    /// reshapes rows (projection, join probe, or another stateful
    /// aggregate). The engine aligns packet boundaries on the aggregate's
    /// user column in *source* order; only filters preserve that contract.
    StatefulAfterReshape {
        /// The plan or query name.
        name: String,
    },
    /// A stateful aggregate's user / ts / event column is missing from the
    /// table it scans, or has a type its role does not accept (the
    /// vocabulary of [`crate::verify::DiagnosticKind::StatefulColumnType`]
    /// and `StatefulAlignmentInvalid`): the kernels and the user-aligned
    /// packet split index these columns unchecked.
    StatefulColumn {
        /// The scanned table.
        table: String,
        /// Which role the column plays (`user`, `ts`, `event`).
        role: &'static str,
        /// The column index the aggregate carries.
        column: usize,
        /// The type found there; `None` when the index lies outside the
        /// table's schema.
        found: Option<DataType>,
    },
    /// The plan does not bind to the catalog it was about to run against —
    /// the invariants of [`crate::plan::QueryPlan::bind`] that no older
    /// variant names (a column out of range, a wrong kind or key type, an
    /// empty projection). Lowering refuses the same mistakes by name.
    Unbound(Box<crate::verify::Diagnostic>),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable { table } => {
                write!(f, "unknown table {table:?}")
            }
            PlanError::MissingScan { query } => {
                write!(f, "query {query:?} has no scan source")
            }
            PlanError::UnknownColumn { column, context } => {
                write!(f, "unknown column {column:?} in {context}")
            }
            PlanError::TypeMismatch { context, expected, found } => {
                write!(f, "type mismatch in {context}: expected {expected}, found {found}")
            }
            PlanError::StringComparedToNonString { literal, context } => {
                write!(
                    f,
                    "string literal {literal:?} compared to a non-string column in {context}"
                )
            }
            PlanError::ProbeBeforeBuild { table } => {
                write!(f, "hash table {table:?} probed before built")
            }
            PlanError::BuildWithAggregate { stage } => {
                write!(f, "build stage {stage:?} must not aggregate")
            }
            PlanError::StreamWithoutAggregate { name } => {
                write!(f, "stream pipeline of {name:?} must end in an aggregation")
            }
            PlanError::NotExactlyOneStream { plan, streams } => {
                write!(f, "plan {plan:?} needs exactly one stream stage (got {streams})")
            }
            PlanError::TooManyGroupColumns { got, max } => {
                write!(f, "{got} group-by columns requested, at most {max} supported")
            }
            PlanError::EmptySelect { query } => {
                write!(f, "select in query {query:?} projects no columns")
            }
            PlanError::StatefulAfterReshape { name } => {
                write!(
                    f,
                    "stateful aggregate in {name:?} must come before any projection, \
                     join or other stateful aggregate (only filters may precede it)"
                )
            }
            PlanError::StatefulColumn { table, role, column, found: Some(found) } => {
                write!(f, "stateful {role} column {column} of {table:?} has type {found:?}")
            }
            PlanError::StatefulColumn { table, role, column, found: None } => {
                write!(f, "stateful {role} column {column} is outside the schema of {table:?}")
            }
            PlanError::Unbound(diagnostic) => write!(f, "plan does not bind: {diagnostic}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Why a (structurally valid) plan could not be placed or executed.
#[derive(Debug)]
pub enum EngineError {
    /// The plan's hash tables exceed a device's memory (with working
    /// space) — the paper's Q9 GPU-only failure (§6.4).
    GpuMemoryExceeded {
        /// Bytes the tables (plus working space) require.
        required: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// A table referenced by the plan is missing from the catalog.
    MissingTable(String),
    /// The plan failed structural validation before execution started.
    InvalidPlan(PlanError),
    /// The placement selects a device class the server does not have.
    NoWorkers {
        /// The placement description.
        placement: String,
    },
    /// A pipeline probes a hash table that no earlier placed stage built —
    /// only reachable through hand-assembled [`crate::place::PlacedPlan`]s
    /// that bypass plan validation.
    HashTableNotBuilt {
        /// The missing hash-table name.
        table: String,
    },
    /// A placed segment targets a device the engine's server does not
    /// have (e.g. a plan placed against a larger topology).
    DeviceNotPresent {
        /// The absent device (`cpu<n>` / `gpu<n>`).
        device: String,
    },
    /// `Placement::Auto` was handed to the trait-driven placement pass
    /// directly. Auto placement needs catalog statistics and must go
    /// through the cost-based optimizer
    /// ([`crate::optimize::optimize`]) — the `Session` and `Engine`
    /// front doors do this automatically.
    AutoWithoutOptimizer,
    /// [`crate::place::place_on`] was handed a device-subset list whose
    /// length does not match the plan's stage count.
    SubsetCountMismatch {
        /// Stages in the plan.
        stages: usize,
        /// Subsets supplied.
        subsets: usize,
    },
    /// A co-processing stage found a co-partition too large for every
    /// selected GPU even at maximum fanout — the skew case the paper's §5
    /// single-pass guarantee excludes.
    OversizedCoPartition {
        /// The offending co-partition index.
        partition: usize,
        /// Its size in bytes (both sides + working space).
        bytes: u64,
        /// The largest GPU budget it had to fit in.
        budget: u64,
    },
    /// A co-processing stage needs a higher CPU co-partitioning fanout
    /// than the CPU spec can produce
    /// ([`hape_join::coprocess::COPROCESS_MAX_PASSES`] passes of
    /// `CpuSpec::max_partition_fanout` each).
    CoPartitionFanoutExceeded {
        /// Radix bits the GPU budget demands.
        required_bits: u32,
        /// Radix bits the CPU can produce.
        max_bits: u32,
    },
    /// A stage cannot run as a co-processing stage: it is not a stream
    /// that probes, placed on CPUs, with at least one GPU lane — only
    /// reachable through hand-assembled [`crate::place::PlacedPlan`]s.
    InvalidCoProcessStage {
        /// The stage pipeline's scan source.
        scan: String,
    },
    /// A runtime configuration knob (e.g. the `HAPE_THREADS` environment
    /// variable) holds a value the engine refuses to guess around.
    InvalidConfig {
        /// What is wrong, and with which knob.
        what: String,
    },
    /// A device the plan depends on was lost permanently (injected
    /// `GpuFailed` or quarantined by the fleet health registry) and the
    /// stage cannot run on it.
    DeviceFailed {
        /// The lost device (`gpu<n>`).
        device: String,
    },
    /// A transient transfer fault outlived the
    /// [`crate::fault::RetryPolicy`]'s bounded retry budget.
    TransferRetriesExhausted {
        /// The device whose link kept faulting.
        device: String,
        /// Retry attempts the policy allowed (all priced and spent).
        attempts: u32,
    },
    /// Mid-query re-placement on the surviving fleet failed: no valid
    /// degraded plan exists (or the replan budget ran out).
    RecoveryFailed {
        /// Why the degraded topology admits no plan.
        reason: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::GpuMemoryExceeded { required, capacity } => {
                write!(f, "hash tables require {required} bytes but GPU memory is {capacity}")
            }
            EngineError::MissingTable(t) => write!(f, "missing table {t:?}"),
            EngineError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            EngineError::NoWorkers { placement } => {
                write!(f, "placement {placement} selects no available workers")
            }
            EngineError::HashTableNotBuilt { table } => {
                write!(f, "hash table {table:?} was never built by an earlier stage")
            }
            EngineError::DeviceNotPresent { device } => {
                write!(f, "placed segment targets device {device} absent from the server")
            }
            EngineError::AutoWithoutOptimizer => {
                write!(
                    f,
                    "Placement::Auto requires the cost-based optimizer \
                     (optimize::optimize), not the bare placement pass"
                )
            }
            EngineError::SubsetCountMismatch { stages, subsets } => {
                write!(f, "plan has {stages} stages but {subsets} device subsets were supplied")
            }
            EngineError::OversizedCoPartition { partition, bytes, budget } => write!(
                f,
                "co-partition {partition} needs {bytes} bytes > GPU budget {budget} \
                 (skewed key?)"
            ),
            EngineError::CoPartitionFanoutExceeded { required_bits, max_bits } => write!(
                f,
                "co-partitioning needs 2^{required_bits} fanout but the CPU tops out \
                 at 2^{max_bits}"
            ),
            EngineError::InvalidCoProcessStage { scan } => write!(
                f,
                "stage over {scan:?} cannot co-process: it needs a final hash-table probe, \
                 CPU segments and a GPU lane"
            ),
            EngineError::InvalidConfig { what } => {
                write!(f, "invalid runtime configuration: {what}")
            }
            EngineError::DeviceFailed { device } => {
                write!(f, "device {device} failed permanently and was quarantined")
            }
            EngineError::TransferRetriesExhausted { device, attempts } => {
                write!(f, "transfer to {device} still failing after {attempts} priced retries")
            }
            EngineError::RecoveryFailed { reason } => {
                write!(f, "degraded re-placement failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hape_join::coprocess::CoprocessError> for EngineError {
    /// Surface a co-processing join failure as the engine's typed
    /// vocabulary: capacity/skew failures keep their detail, device-shape
    /// failures map onto the existing worker/device variants.
    fn from(e: hape_join::coprocess::CoprocessError) -> Self {
        use hape_join::coprocess::CoprocessError as CE;
        match e {
            CE::OversizedCoPartition { partition, bytes, budget } => {
                EngineError::OversizedCoPartition { partition, bytes, budget }
            }
            CE::NoGpus => {
                EngineError::NoWorkers { placement: "co-process (no GPUs)".to_string() }
            }
            CE::NoCpus => {
                EngineError::NoWorkers { placement: "co-process (no CPUs)".to_string() }
            }
            CE::UnknownGpu { gpu } => {
                EngineError::DeviceNotPresent { device: format!("gpu{gpu}") }
            }
            CE::MissingLink { gpu } => {
                EngineError::DeviceNotPresent { device: format!("pcie{gpu}") }
            }
            CE::FanoutExceeded { required_bits, max_bits } => {
                EngineError::CoPartitionFanoutExceeded { required_bits, max_bits }
            }
        }
    }
}

/// The crate-level error: a plan-time, verification-time or
/// execution-time failure.
#[derive(Debug)]
pub enum HapeError {
    /// The query could not be built or lowered.
    Plan(PlanError),
    /// The engine could not place or execute the (valid) plan.
    Engine(EngineError),
    /// The static plan verifier ([`mod@crate::verify`]) found diagnostics.
    Verify(crate::verify::VerifyError),
}

impl std::fmt::Display for HapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HapeError::Plan(e) => write!(f, "plan error: {e}"),
            HapeError::Engine(e) => write!(f, "engine error: {e}"),
            HapeError::Verify(e) => write!(f, "verify error: {e}"),
        }
    }
}

impl std::error::Error for HapeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HapeError::Plan(e) => Some(e),
            HapeError::Engine(e) => Some(e),
            HapeError::Verify(e) => Some(e),
        }
    }
}

impl From<PlanError> for HapeError {
    fn from(e: PlanError) -> Self {
        HapeError::Plan(e)
    }
}

impl From<EngineError> for HapeError {
    fn from(e: EngineError) -> Self {
        HapeError::Engine(e)
    }
}

impl From<crate::verify::VerifyError> for HapeError {
    fn from(e: crate::verify::VerifyError) -> Self {
        HapeError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = PlanError::UnknownColumn { column: "l_foo".into(), context: "lineitem".into() };
        assert!(e.to_string().contains("l_foo"));
        assert!(e.to_string().contains("lineitem"));
        let e = PlanError::ProbeBeforeBuild { table: "ghost".into() };
        assert!(e.to_string().contains("probed before built"));
        let h: HapeError = e.into();
        assert!(h.to_string().contains("plan error"));
        let h: HapeError = EngineError::MissingTable("fact".into()).into();
        assert!(h.to_string().contains("engine error"));
        assert!(std::error::Error::source(&h).is_some());
        let e = EngineError::HashTableNotBuilt { table: "ht".into() };
        assert!(e.to_string().contains("never built"));
        let e = EngineError::DeviceNotPresent { device: "gpu7".into() };
        assert!(e.to_string().contains("gpu7"));
        let e = EngineError::InvalidConfig { what: "HAPE_THREADS=0".into() };
        assert!(e.to_string().contains("HAPE_THREADS=0"));
        let e = EngineError::DeviceFailed { device: "gpu1".into() };
        assert!(e.to_string().contains("gpu1"));
        assert!(e.to_string().contains("quarantined"));
        let e = EngineError::TransferRetriesExhausted { device: "gpu0".into(), attempts: 3 };
        assert!(e.to_string().contains("3 priced retries"));
        let e = EngineError::RecoveryFailed { reason: "no surviving workers".into() };
        assert!(e.to_string().contains("no surviving workers"));
    }
}
