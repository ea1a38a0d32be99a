//! # hape-core — the HAPE engine
//!
//! The paper's primary contribution (§3): a Heterogeneity-conscious
//! Analytical query Processing Engine that decomposes heterogeneous
//! execution into
//!
//! 1. **efficient single-device execution** — relational operators are
//!    heterogeneity-*oblivious* but hardware-*conscious*; per-device
//!    [`provider`]s ("device providers") compile a pipeline's operators into
//!    fused per-packet code for their target (the code-generation interface
//!    of §4.2), unified behind the [`provider::DeviceProvider`] trait, and
//! 2. **efficient multi-device execution** — the HetExchange-style
//!    meta-operators in [`exchange`]: the load-aware *router* (parallelism
//!    trait), the *device crossing* (target-device trait) and the
//!    *mem-move* (locality trait); the packing trait is fixed at untagged
//!    packets, so *pack/unpack* is the executor's packet granularity, not
//!    an operator. The [`mod@place`] pass makes them explicit: it turns a
//!    [`plan::QueryPlan`] into a [`place::PlacedPlan`] that stores only each
//!    stage's device subset; every segment's [`traits::HetTraits`] and the
//!    [`exchange::Exchange`] operators on its edges are derived from it.
//!
//! The [`engine::Engine`] interprets placed plans over the simulated
//! server as a deterministic discrete-event simulation: packets of real
//! data flow through compiled pipelines; CPU workers, GPUs and PCIe links
//! are clocked resources; the reported latency is the makespan.
//!
//! The interpreter itself is split into two planes (the [`mod@runtime`]
//! module): a **deterministic control plane** — routing picks and
//! `SimTime` accounting replayed sequentially on the coordinator from
//! worker `ready_at` state — and a **parallel data plane** — the real
//! columnar kernel work ([`provider::run_ops`]), per-device-class cost
//! pricing, and per-worker aggregation folds, dispatched to a scoped
//! `std::thread` worker pool. [`engine::ExecConfig::threads`] (or the
//! `HAPE_THREADS` environment variable) sizes the pool; it is a pure
//! wall-clock knob — **simulated makespans and result rows are
//! bit-identical at any thread count**, which the differential harness
//! (`tests/differential.rs`) asserts over generated queries and the TPC-H
//! and behavioral suites, under every placement.
//!
//! Between lowering and placement sits the **cost-based optimizer**
//! ([`mod@optimize`], backed by the analytic [`mod@cost`] model derived
//! from the hardware specs): [`engine::Placement::Auto`] enumerates
//! candidate device subsets per stage, prunes the ones whose estimated
//! GPU hash-table footprint exceeds device capacity (the paper's §6.4
//! constraint), and places each stage on its minimum-makespan subset.
//! When a stream's tables overflow *every* GPU, the optimizer can place
//! the stage as the §5 intra-operator co-processing join — CPU
//! co-partitioning feeding single-pass per-GPU radix joins
//! ([`place::PlacedStage::CoProcess`]) — instead of retreating to CPU-only
//! execution.
//!
//! ## Quickstart: lower → optimize → place → run
//!
//! ```
//! use hape_core::{ExecConfig, JoinAlgo, Placement, Query, Session};
//! use hape_ops::{col, AggFunc};
//! use hape_sim::topology::Server;
//! use hape_storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 43));
//! let query = session
//!     .query("q")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Count, col("k"))]);
//!
//! // Lowering resolves names into the physical plan; placement picks
//! // per-device segments, from which the trait-conversion exchanges are
//! // derived; the engine interprets the placed plan. `execute` chains all
//! // three.
//! let placed = session.place(&query).unwrap();
//! assert_eq!(placed.stages.len(), 2); // build dim, stream fact
//!
//! // `explain` renders the placed plan — under the default hybrid
//! // placement the GPU segments show their mem-move, device crossing, and
//! // hash-table broadcast operators.
//! let text = session.explain(&query).unwrap();
//! assert!(text.contains("DeviceCrossing(Cpu -> Gpu)"));
//!
//! let report = session.execute(&query).unwrap();
//! assert_eq!(report.rows[0].1[0], (1 << 12) as f64);
//!
//! // The manual `Placement` arms are sugar selecting which devices
//! // participate.
//! let cpu = session
//!     .execute_with(&query, &ExecConfig::new(Placement::CpuOnly))
//!     .unwrap();
//! assert_eq!(cpu.rows, report.rows);
//!
//! // `Placement::Auto` runs the cost-based optimizer instead: per-stage
//! // device subsets follow from the hardware model, the chosen plan
//! // carries the optimizer's cost estimates, and `explain` renders them.
//! let auto = session.place_with(&query, &ExecConfig::new(Placement::Auto)).unwrap();
//! let costs = auto.costs.as_ref().expect("optimized plans carry estimates");
//! assert!(costs.stages.iter().all(|c| c.fits_gpu_memory()));
//! let report = session
//!     .execute_with(&query, &ExecConfig::new(Placement::Auto))
//!     .unwrap();
//! assert_eq!(report.rows, cpu.rows);
//! ```
//!
//! ## Quickstart: serving many queries concurrently
//!
//! One session serves one query at a time; the [`mod@serve`] layer serves
//! many over the *same* fleet. [`serve::SessionServer::submit`] queues
//! lowered-and-placed queries; [`serve::SessionServer::run_all`] admits
//! them against the fleet's GPU memory (a GPU-hungry query queues while
//! broadcast hash tables fill the budget, instead of OOMing), interleaves
//! admitted queries fairly with per-query sim-time isolation — every
//! report stays bit-identical to a solo run — and serves repeated build
//! sides from a catalog-versioned cross-query cache.
//!
//! ```
//! use hape_core::serve::SessionServer;
//! use hape_core::{JoinAlgo, Query, Session};
//! use hape_ops::{col, AggFunc};
//! use hape_sim::topology::Server;
//! use hape_storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 43));
//! let query = session
//!     .query("q")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Count, col("k"))]);
//! let solo = session.execute(&query).unwrap();
//!
//! let mut server = SessionServer::new(session);
//! let a = server.submit(&query);
//! let b = server.submit(&query); // same shape: hits the build cache
//! let batch = server.run_all();
//!
//! // Concurrency never perturbs results or simulated time...
//! let ra = batch.report(a).as_ref().unwrap();
//! assert_eq!(ra.rows, solo.rows);
//! assert_eq!(ra.time, solo.time);
//! // ...and the repeated query skipped its build via the cache.
//! let rb = batch.report(b).as_ref().unwrap();
//! assert_eq!(rb.rows, solo.rows);
//! assert_eq!(rb.builds_cached, 1);
//! assert_eq!(server.cache_stats().hits, 1);
//! ```
//!
//! ## Quickstart: verifying a plan statically
//!
//! The [`mod@verify`] module is the IR's validator: the binding walk,
//! [`plan::QueryPlan::bind`] (schema dataflow and determinism contracts over
//! the pipelines a caller supplies), plus a device/capacity audit of the
//! subsets placement chose, each violation a typed [`verify::Diagnostic`]
//! with a (stage, segment, op) location. The binding walk runs on every
//! plan every executor begins, in every build profile, and refuses with its
//! first finding — [`PlanError::Unbound`] — before a packet moves; what
//! placement adds is derived from the device subsets, so only their
//! judgement against the server is left. The explicit API reports the full
//! diagnostic list.
//!
//! ```
//! use hape_core::verify::{self, DiagnosticKind, Pass};
//! use hape_core::{EngineError, JoinAlgo, PlanError, Query, Session};
//! use hape_ops::{col, AggFunc};
//! use hape_sim::topology::{DeviceId, Server};
//! use hape_storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 43));
//! let query = session
//!     .query("q")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Count, col("k"))]);
//!
//! // A session-built plan verifies clean on every placement...
//! session.verify(&query).unwrap();
//! // ...and `explain` renders the verdict as a footer.
//! let text = session.explain(&query).unwrap();
//! assert!(text.contains("verified: 2 stages, 0 diagnostics"));
//!
//! // Move a stream segment by hand onto a GPU the server lacks, and the
//! // device audit reports exactly that, located.
//! let lowered = session.lower(&query).unwrap();
//! let mut placed = session.place(&query).unwrap();
//! if let hape_core::PlacedStage::Stream { segments, .. } = &mut placed.stages[1] {
//!     segments[0].target = DeviceId::Gpu(7);
//! }
//! let err = verify::verify_placed(&placed, &lowered.catalog, &session.engine().server)
//!     .unwrap_err();
//! let [d] = err.diagnostics.as_slice() else { panic!("one finding: {err}") };
//! let absent = DiagnosticKind::DeviceNotPresent { device: DeviceId::Gpu(7) };
//! assert_eq!((d.pass, &d.kind), (Pass::DeviceAudit, &absent));
//! assert_eq!(
//!     d.to_string(),
//!     "stage 1 segment gpu7: [device-audit] device gpu7 is not on the server"
//! );
//!
//! // Scan a table the catalog lacks, and the engine refuses the plan with
//! // the verifier's first finding.
//! let mut plan = lowered.plan.clone();
//! if let hape_core::Stage::Stream { pipeline } = &mut plan.stages[1] {
//!     pipeline.source = "ghost".into();
//! }
//! let first = &verify::verify_plan(&plan, &lowered.catalog).unwrap_err().diagnostics[0];
//! let cpu = hape_core::ExecConfig::new(hape_core::Placement::CpuOnly);
//! match session.engine().run(&lowered.catalog, &plan, &cpu) {
//!     Err(EngineError::InvalidPlan(PlanError::Unbound(d))) => assert_eq!(*d, *first),
//!     other => panic!("expected the binding refusal, got {other:?}"),
//! }
//! assert_eq!(first.kind, DiagnosticKind::UnknownSource { table: "ghost".into() });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cost;
pub mod engine;
pub mod error;
pub mod exchange;
pub mod fault;
pub mod optimize;
pub mod place;
pub mod plan;
pub mod provider;
pub mod query;
pub mod runtime;
pub mod serve;
pub mod session;
pub mod trace;
pub mod traits;
pub mod verify;

pub use catalog::{Catalog, TableRegistration};
pub use cost::{CoprocessCost, CostModel, PlanCost, StageCost};
pub use engine::{Engine, ExecConfig, ParsePlacementError, Placement, QueryExec, QueryReport};
pub use error::{EngineError, HapeError, PlanError};
pub use exchange::{Exchange, WorkerId};
pub use fault::{FaultKind, FaultPlan, FaultSpec, HealthRegistry, RetryPolicy, Trigger};
pub use optimize::{optimize, optimize_on};
pub use place::{place, place_on, PlacedPlan, PlacedStage, Segment};
pub use plan::{JoinAlgo, PipeOp, Pipeline, QueryPlan, Stage};
pub use provider::DeviceProvider;
pub use query::{LoweredQuery, Query};
pub use runtime::resolve_threads;
pub use serve::{
    BuildCache, CacheStats, CancelToken, Outcome, QueryHandle, QueryOutcome, ServeReport,
    SessionServer,
};
pub use session::Session;
pub use trace::{Ledger, Span, SpanKind, Trace, TraceRecorder};
pub use traits::{DeviceType, HetTraits};
pub use verify::{verify_placed, verify_plan, Diagnostic, DiagnosticKind, Pass, VerifyError};

/// Commonly used items.
pub mod prelude {
    pub use crate::catalog::Catalog;
    pub use crate::cost::{CostModel, PlanCost, StageCost};
    pub use crate::engine::{Engine, ExecConfig, Placement, QueryReport};
    pub use crate::error::{EngineError, HapeError, PlanError};
    pub use crate::exchange::Exchange;
    pub use crate::fault::{FaultKind, FaultPlan, FaultSpec, RetryPolicy, Trigger};
    pub use crate::optimize::optimize;
    pub use crate::place::{place, PlacedPlan, PlacedStage, Segment};
    pub use crate::plan::{JoinAlgo, PipeOp, Pipeline, QueryPlan, Stage};
    pub use crate::provider::DeviceProvider;
    pub use crate::query::{LoweredQuery, Query};
    pub use crate::serve::{QueryHandle, ServeReport, SessionServer};
    pub use crate::session::Session;
    pub use crate::trace::{Trace, TraceRecorder};
    pub use crate::traits::{DeviceType, HetTraits};
    pub use crate::verify::{verify_placed, verify_plan, Diagnostic, VerifyError};
}
