//! # hape-baselines — the commercial-system stand-ins
//!
//! The paper compares against two closed-source systems (§6.1):
//!
//! * **DBMS C** — "a CPU-based columnar DBMS … based on MonetDB/X100, uses
//!   SIMD vector-at-a-time execution and supports multi-CPU execution".
//!   [`DbmsC`] is a vector-at-a-time executor: operators exchange ~1K-row
//!   vectors that are fully materialised between operators, so every extra
//!   operator is an extra in-cache pass — the overhead the paper blames for
//!   its Q1 gap (§6.4). Its join is a non-partitioned hash join.
//!
//! * **DBMS G** — "a GPU-based DBMS that supports multi-GPU execution and
//!   uses just-in-time code generation for the in-GPU kernels", optimised
//!   for star schemas and *in-GPU* processing. [`DbmsG`] is an
//!   operator-at-a-time GPU executor that materialises every intermediate
//!   in device memory and refuses queries whose working set exceeds the
//!   aggregate GPU memory (why it runs only Q6 of the four, §6.4), and
//!   falls off a cliff on out-of-GPU joins (UVA-style access over PCIe,
//!   Fig. 7).
//!
//! Both are *pricing models*, not executors. The one stage driver below
//! (`run_stage`) cuts a stage's source into the system's packet size —
//! DBMS C's 1 024-row vectors, DBMS G's one whole-table packet — and pushes
//! each packet through the engine's kernel pass
//! ([`hape_core::provider::run_ops`], the workspace's only `PipeOp`
//! interpreter); each system's `price` function then replays its execution
//! model's charges from the recorded [`PacketWork`] statistics (row counts,
//! chain lengths, the payload bytes entering and leaving every operator),
//! exactly as the engine's own device providers price a packet. Results
//! are the engine's by construction; only the clocks differ.

#![forbid(unsafe_code)]

pub mod dbms_c;
pub mod dbms_g;

pub use dbms_c::DbmsC;
pub use dbms_g::{DbmsG, GpuUnsupported};

use std::sync::Arc;

use hape_core::engine::EngineError;
use hape_core::plan::{JoinTable, Pipeline, Stage};
use hape_core::provider::{run_ops, PacketWork, Scratch, TableStore};
use hape_core::Catalog;
use hape_ops::agg::AggState;
use hape_ops::stateful::split_user_aligned;
use hape_ops::GroupKey;
use hape_sim::SimTime;
use hape_storage::Batch;

/// Why a baseline refused or failed a query.
#[derive(Debug)]
pub enum BaselineError {
    /// Shared execution failure (missing table, invalid plan, a server
    /// without the device class the system runs on, …).
    Engine(EngineError),
    /// The query exceeds the system's capabilities (DBMS G's in-GPU
    /// working-set constraint).
    Unsupported(GpuUnsupported),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Engine(e) => write!(f, "{e}"),
            BaselineError::Unsupported(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Engine(e) => Some(e),
            BaselineError::Unsupported(e) => Some(e),
        }
    }
}

impl From<EngineError> for BaselineError {
    fn from(e: EngineError) -> Self {
        BaselineError::Engine(e)
    }
}

impl From<GpuUnsupported> for BaselineError {
    fn from(e: GpuUnsupported) -> Self {
        BaselineError::Unsupported(e)
    }
}

/// A baseline query result.
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// Aggregated rows (same shape as the engine's).
    pub rows: Vec<(GroupKey, Vec<f64>)>,
    /// Simulated latency.
    pub time: SimTime,
}

/// The stage driver both stand-ins share. Looks up the stage's source,
/// splits it into packets of at most `packet_rows` rows (aligned on user
/// runs when the pipeline carries a stateful aggregate, as the engine
/// aligns its packets), pushes each through [`run_ops`], hands the recorded
/// [`PacketWork`] to `price`, and folds `work.out` into the stream's
/// aggregation or keeps it as build output. A build stage ends by
/// installing its [`JoinTable`] in `tables` and returns no rows; the stream
/// stage returns the finished aggregate.
pub(crate) fn run_stage(
    catalog: &Catalog,
    stage: &Stage,
    packet_rows: usize,
    tables: &mut TableStore,
    mut price: impl FnMut(&Pipeline, &PacketWork, &TableStore) -> Result<(), BaselineError>,
) -> Result<Vec<(GroupKey, Vec<f64>)>, BaselineError> {
    let (Stage::Build { pipeline, .. } | Stage::Stream { pipeline }) = stage;
    let source = &catalog.lookup(&pipeline.source)?.data;
    let packet_rows = packet_rows.min(source.rows()).max(1);
    let packets = match pipeline.stateful_agg() {
        Some(sagg) => split_user_aligned(source, sagg.user_col(), packet_rows),
        None => source.split(packet_rows),
    };
    let mut agg = pipeline.agg.clone().map(AggState::new);
    let mut outputs = Vec::new();
    let mut scratch = Scratch::new();
    for packet in packets {
        let work = run_ops(packet, pipeline, tables, &mut scratch)?;
        price(pipeline, &work, tables)?;
        match &mut agg {
            Some(state) if work.out.rows() > 0 => state.update(&work.out),
            Some(_) => {}
            None => outputs.push(work.out),
        }
    }
    if let Stage::Build { name, key_col, .. } = stage {
        let table = JoinTable::build(Batch::concat(outputs), *key_col);
        tables.insert(name.clone(), Arc::new(table));
    }
    Ok(agg.map_or_else(Vec::new, |state| state.finish()))
}

/// Commonly used items.
pub mod prelude {
    pub use crate::dbms_c::DbmsC;
    pub use crate::dbms_g::DbmsG;
    pub use crate::{BaselineError, BaselineReport};
}
