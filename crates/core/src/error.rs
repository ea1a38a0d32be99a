//! Typed errors, one enum per owner.
//!
//! - [`PlanError`] is what lowering ([`crate::query`]) finds *by name* — an
//!   unknown table or column, a missing scan, a type mismatch, a string
//!   compared to a non-string column, an empty select — plus
//!   [`PlanError::Unbound`]: the first finding of the binding walk
//!   ([`crate::plan::QueryPlan::bind`]). `Unbound` is the one refusal of a
//!   plan that does not bind, from every door: bare from
//!   [`crate::plan::QueryPlan::try_new`] / `validate`, and as
//!   [`EngineError::InvalidPlan`] from `Engine::place` / `run` /
//!   `run_placed` and the baselines.
//! - [`EngineError`] is what depends on state the plan does not carry: the
//!   server a plan is placed on and run against (absent devices and
//!   workers, GPU capacity, co-partition skew), runtime configuration,
//!   faults, and the engine's typed lookups after binding.
//! - [`HapeError`] unifies both with the verifier's [`VerifyError`] for the
//!   [`crate::session::Session`] front door, so `?` works across the whole
//!   lower → place → execute path without `unwrap`s or panics.
//!
//! [`VerifyError`]: crate::verify::VerifyError

/// Why a logical query could not be lowered, or why a physical plan does
/// not bind.
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
    /// A `select` projection produced no output columns.
    EmptySelect {
        /// The query whose select is empty.
        query: String,
    },
    /// The plan does not bind: the binding walk's first finding, for any
    /// invariant [`crate::plan::QueryPlan::bind`] lists. Lowering refuses
    /// what it can by name first.
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
            PlanError::EmptySelect { query } => {
                write!(f, "select in query {query:?} projects no columns")
            }
            PlanError::Unbound(diagnostic) => write!(f, "plan does not bind: {diagnostic}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Why a plan could not be placed or executed.
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
    /// A table the engine looked up is missing from the catalog — a
    /// lookup after binding, which refuses an unknown scan source first.
    MissingTable(String),
    /// The plan does not bind ([`PlanError::Unbound`]); refused before
    /// placement or execution started.
    InvalidPlan(PlanError),
    /// The placement selects a device class the server does not have.
    NoWorkers {
        /// The placement description.
        placement: String,
    },
    /// A hash table the engine looked up was never built — a lookup after
    /// binding, which refuses a probe of an unbuilt table first.
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
        let kind = crate::verify::DiagnosticKind::ProbeUnbuilt { ht: "ghost".into() };
        let (stage, segment, op, pass) =
            (Some(1), None, Some(0), crate::verify::Pass::SchemaDataflow);
        let e = PlanError::Unbound(Box::new(crate::verify::Diagnostic {
            stage,
            segment,
            op,
            pass,
            kind,
        }));
        assert!(e.to_string().contains("stage 1 op 0: [schema-dataflow] hash table \"ghost\""));
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
