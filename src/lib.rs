//! # HAPE — Heterogeneity-conscious Analytical query Processing Engine
//!
//! A Rust reproduction of *"Hardware-conscious Query Processing in
//! GPU-accelerated Analytical Engines"* (Chrysogelos, Sioulas, Ailamaki —
//! CIDR 2019).
//!
//! This meta-crate re-exports the workspace crates under one roof:
//!
//! * [`sim`] — the hardware simulation substrate (CPU/GPU device models,
//!   memory hierarchies, PCIe interconnects, discrete-event timeline).
//! * [`storage`] — columnar storage, chunked tables, data generators.
//! * [`ops`] — relational operators (scan/filter/project/aggregate).
//! * [`join`] — hardware-conscious join algorithms (CPU/GPU radix joins,
//!   non-partitioned joins, and the co-processing join).
//! * [`core`] — the HAPE engine itself: heterogeneity traits, HetExchange
//!   operators, device providers (code generation), and the executor.
//! * [`tpch`] — TPC-H data generation and the paper's Q1/Q5/Q6/Q9* plans.
//! * [`baselines`] — the commercial-system stand-ins DBMS-C and DBMS-G.
//!
//! ## Quickstart: lower → optimize → place → run
//!
//! Describe queries logically on a [`core::Session`] — named columns,
//! fallible construction. Execution flows through four explicit layers:
//! *lowering* resolves names into the physical plan (projection pushdown,
//! positional indices, build/stream stages, memoised shared build sides);
//! the cost-based *optimizer* (under [`core::Placement::Auto`]) picks
//! per-stage device subsets from the hardware model; *placement*
//! records every pipeline's per-device segments, from which each
//! segment's [`core::HetTraits`] and the trait-conversion exchange
//! operators (router, mem-move, device crossing) are derived; the engine
//! then *interprets* the placed plan over its device providers:
//!
//! ```
//! use hape::core::{ExecConfig, HapeError, JoinAlgo, Placement, PlanError, Query, Session};
//! use hape::ops::{col, lit, AggFunc};
//! use hape::sim::topology::Server;
//! use hape::storage::datagen::gen_key_fk_table;
//!
//! // A server with 2 CPU sockets and 2 GPUs, like the paper's testbed;
//! // hybrid placement by default.
//! let mut session = Session::new(Server::paper_testbed());
//!
//! // Two 4-byte-key/4-byte-payload tables, joined and counted, with a
//! // mid-chain computed projection.
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 14, 1 << 14, 43));
//! let query = session
//!     .query("quickstart")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::Partitioned)
//!     .select(vec![("v2", col("v").mul(lit(2.0)))])
//!     .agg(vec![(AggFunc::Count, col("v2"))]);
//!
//! // `explain` renders the placed plan: segments, traits, and the
//! // HetExchange operators derived from them.
//! let text = session.explain(&query).unwrap();
//! assert!(text.contains("Router("));
//! assert!(text.contains("DeviceCrossing(Cpu -> Gpu)"));
//!
//! // `execute` = lower + place + run; the manual `Placement` arms are
//! // sugar selecting which devices participate in the placement pass.
//! let report = session.execute(&query).unwrap();
//! assert_eq!(report.rows[0].1[0], (1 << 14) as f64);
//! let cpu = session
//!     .execute_with(&query, &ExecConfig::new(Placement::CpuOnly))
//!     .unwrap();
//! assert_eq!(cpu.rows, report.rows);
//!
//! // `Placement::Auto` adds the optimize layer: per-stage device subsets
//! // chosen by the analytic cost model (and shown by `explain`).
//! let auto = session
//!     .execute_with(&query, &ExecConfig::new(Placement::Auto))
//!     .unwrap();
//! assert_eq!(auto.rows, report.rows);
//!
//! // Misdescribed queries are typed errors, not panics: lowering names the
//! // column it cannot resolve.
//! let bad = session.query("bad").from_table("fact")
//!     .filter(col("missing").lt(lit(1)))
//!     .agg(vec![(AggFunc::Count, col("k"))]);
//! let err = session.execute(&bad).unwrap_err();
//! assert!(matches!(
//!     err,
//!     HapeError::Plan(PlanError::UnknownColumn { ref column, .. }) if column == "missing"
//! ));
//! ```
//!
//! ## Q9 under plain `Placement::Auto`
//!
//! The paper's hardest case — TPC-H Q9, whose hash tables exceed GPU
//! memory (§6.4) — needs no special treatment: the manual GPU placements
//! report the typed out-of-memory error, while the optimizer plans the
//! stream as a first-class §5 **co-processing stage** (CPU co-partitioning
//! feeding single-pass per-GPU radix joins) and the engine runs it to
//! completion, faster than retreating to the CPUs:
//!
//! ```
//! use hape::core::{ExecConfig, JoinAlgo, PlacedStage, Placement, Session};
//! use hape::sim::topology::Server;
//! use hape::tpch::queries::q9_query;
//!
//! let sf = 0.01; // GPU memory scales with SF: the capacity cliff holds
//! let data = hape::tpch::generate(sf, 42);
//! let mut session = Session::new(Server::tpch_scaled(sf));
//! for t in [&data.lineitem, &data.orders, &data.customer, &data.supplier,
//!           &data.partsupp, &data.nation, &data.region] {
//!     session.register(t.clone());
//! }
//! let q9 = q9_query(JoinAlgo::NonPartitioned);
//! let gpu_cfg = ExecConfig::new(Placement::GpuOnly);
//! assert!(session.execute_with(&q9, &gpu_cfg).is_err(), "the §6.4 OOM");
//!
//! let auto_cfg = ExecConfig::new(Placement::Auto);
//! let placed = session.place_with(&q9, &auto_cfg).unwrap();
//! assert!(matches!(placed.stages.last(), Some(PlacedStage::CoProcess { .. })));
//! let auto = session.execute_with(&q9, &auto_cfg).unwrap();
//! let cpu = session.execute_with(&q9, &ExecConfig::new(Placement::CpuOnly)).unwrap();
//! assert!(auto.time < cpu.time, "co-processing beats the CPU retreat");
//! ```
//!
//! ## The two-plane runtime: parallel data plane, deterministic sim time
//!
//! The interpreter splits into a **deterministic control plane** (routing
//! picks + `SimTime` accounting, replayed sequentially from worker
//! `ready_at` state) and a **parallel data plane** (the real columnar
//! kernel work and per-worker aggregation folds, on a scoped
//! `std::thread` worker pool — [`core::runtime`]). The thread count is a
//! pure wall-clock knob: simulated makespans and result rows are
//! bit-identical at any value.
//!
//! ```
//! use hape::core::{ExecConfig, JoinAlgo, Placement, Query, Session};
//! use hape::ops::{col, AggFunc};
//! use hape::sim::topology::Server;
//! use hape::storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 43));
//! let q = session
//!     .query("planes")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Sum, col("v"))]);
//!
//! // `threads` sizes the data-plane pool; `packet_rows` overrides the
//! // auto packet-sizing heuristic (`ExecConfig::auto_packet_rows`).
//! let seq = ExecConfig::new(Placement::Hybrid).with_threads(1);
//! let par = ExecConfig::new(Placement::Hybrid).with_threads(8);
//! let a = session.execute_with(&q, &seq).unwrap();
//! let b = session.execute_with(&q, &par).unwrap();
//! assert_eq!(a.rows, b.rows);   // bit-identical results…
//! assert_eq!(a.time, b.time);   // …and bit-identical simulated makespan
//! ```
//!
//! ## Fault injection + degradation-aware recovery
//!
//! A seeded [`core::FaultPlan`] ([`core::ExecConfig::with_faults`], or
//! [`core::serve::SessionServer::with_faults`] for batches — off by
//! default, one branch per hook when disabled) schedules typed device
//! and link faults at control-plane coordinates, so injection is as
//! deterministic as the runtime itself: bit-identical at any thread
//! count. Transient transfer faults retry with exponential backoff
//! priced into the simulated clock; permanent loss re-places the
//! remaining stages on the surviving fleet and resumes from the stage
//! barrier. The serving layer quarantines failed devices fleet-wide
//! (admission and the build cache follow the shared
//! [`core::HealthRegistry`]) and reports per-query
//! [`core::serve::Outcome`]s — `Degraded`, `TimedOut` (sim-time budgets
//! via [`core::serve::SessionServer::submit_with_budget`]) and
//! `Canceled` ([`core::serve::CancelToken`]) are results, not errors:
//!
//! ```
//! use hape::core::{ExecConfig, FaultKind, FaultPlan, FaultSpec, JoinAlgo,
//!                  Placement, Query, RetryPolicy, Session, Trigger};
//! use hape::ops::{col, AggFunc};
//! use hape::sim::topology::Server;
//! use hape::storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 18, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 43));
//! let q = session
//!     .query("chaos")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
//! let clean = session.execute_with(&q, &ExecConfig::new(Placement::Hybrid)).unwrap();
//!
//! // GPU 0's link drops one transfer (retried, backoff on the sim
//! // clock), then GPU 1 dies for good after its second committed packet
//! // (the engine re-places the rest of the query on the survivors).
//! let plan = FaultPlan::new(
//!     vec![
//!         FaultSpec {
//!             gpu: 0,
//!             kind: FaultKind::TransferError { failures: 1 },
//!             trigger: Trigger::AtGpuPacket(1),
//!         },
//!         FaultSpec {
//!             gpu: 1,
//!             kind: FaultKind::GpuFailed,
//!             trigger: Trigger::AtGpuPacket(2),
//!         },
//!     ],
//!     RetryPolicy::default(),
//! );
//! let cfg = ExecConfig::new(Placement::Hybrid).with_faults(plan);
//! let faulted = session.execute_with(&q, &cfg).unwrap();
//!
//! // Recovery is visible (priced retries, a re-placement) — and never
//! // changes the answer.
//! assert_eq!(faulted.rows, clean.rows);
//! assert_eq!((faulted.retries, faulted.replans), (1, 1));
//! ```
//!
//! ## Observability: the tracing + metrics plane
//!
//! Hand a [`core::TraceRecorder`] to any run ([`core::ExecConfig::with_trace`],
//! or [`core::serve::SessionServer::with_trace`] for batches) and every
//! layer records into it: query → stage → packet spans stamped with both
//! the simulated and the wall clock, engine counters (rows per operator,
//! PCIe bytes, packets per worker), and — under [`core::Placement::Auto`]
//! — the optimizer's per-stage cost estimate next to the observed stage
//! time. Recording is a pure observer: results and simulated makespans
//! stay bit-identical to untraced runs at any thread count. Export with
//! [`core::Trace::to_chrome_json`] (open in `chrome://tracing`/Perfetto)
//! or [`core::Trace::render_profile`] / [`core::Session::profile`]:
//!
//! ```
//! use hape::core::trace::{SpanKind, TraceRecorder};
//! use hape::core::{ExecConfig, JoinAlgo, Placement, Query, Session};
//! use hape::ops::{col, AggFunc};
//! use hape::sim::topology::Server;
//! use hape::storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 43));
//! let q = session
//!     .query("traced")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Count, col("k"))]);
//!
//! // Tracing never perturbs execution: same rows, same makespan.
//! let plain = session.execute_with(&q, &ExecConfig::new(Placement::Auto)).unwrap();
//! let recorder = TraceRecorder::new();
//! let cfg = ExecConfig::new(Placement::Auto).with_trace(recorder.clone());
//! let traced = session.execute_with(&q, &cfg).unwrap();
//! assert_eq!(traced.rows, plain.rows);
//! assert_eq!(traced.time, plain.time);
//!
//! // The trace holds every layer's spans plus the engine counters…
//! let trace = recorder.snapshot();
//! for kind in [SpanKind::Query, SpanKind::Stage, SpanKind::Packet] {
//!     assert!(trace.spans.iter().any(|s| s.kind == kind));
//! }
//! assert!(trace.to_chrome_json().contains("\"wall-time\""));
//!
//! // …and `Session::profile` renders predicted-vs-observed per stage.
//! let profile = session.profile(&q).unwrap();
//! assert!(profile.contains("est/act"));
//! ```
//!
//! ## Beyond TPC-H: the behavioral-analytics suite
//!
//! Order-sensitive stateful aggregates — `sessionize`, `window_funnel`,
//! `retention`, `sequence_match` ([`ops::StatefulAgg`]) — run over a
//! deterministic web-analytics event log ([`tpch::events`], sorted by
//! `(user, ts)`; packetization never splits a user's run). Their
//! sequential per-user state is exactly what GPUs are bad at, so they
//! stress the placement layer where TPC-H doesn't: the optimizer routes
//! them to the CPUs because the cost model's sequential-state arm *prices*
//! the GPU penalty — not by rule, as the flip test in
//! `tests/behavioral.rs` shows by scaling GPU memory bandwidth:
//!
//! ```
//! use hape::core::{ExecConfig, Placement, Session};
//! use hape::ops::{col, AggFunc};
//! use hape::sim::topology::Server;
//! use hape::tpch::events::{behavioral_queries, generate_events, SESSION_GAP};
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register(generate_events(500, 7171));
//!
//! // Stateful ops are ordinary Query vocabulary: sessionize the
//! // clickstream at a 30-minute gap, then aggregate per-user results.
//! let q = session
//!     .query("sessions")
//!     .from_table("events")
//!     .sessionize("user_id", "ts", SESSION_GAP)
//!     .agg(vec![(AggFunc::Sum, col("sessions")), (AggFunc::Count, col("user_id"))]);
//!
//! // Under Auto the optimizer prices the GPUs out of the device subset…
//! let auto_cfg = ExecConfig::new(Placement::Auto);
//! let plan = session.explain_with(&q, &auto_cfg).unwrap();
//! assert!(!plan.contains("segment gpu"));
//!
//! // …while the results match any manual placement bit-for-bit: the GPU
//! // *can* run the sequential-state kernels, it is just priced out.
//! let auto = session.execute_with(&q, &auto_cfg).unwrap();
//! let cpu = session.execute_with(&q, &ExecConfig::new(Placement::CpuOnly)).unwrap();
//! let hybrid = session.execute_with(&q, &ExecConfig::new(Placement::Hybrid)).unwrap();
//! assert_eq!(auto.rows, cpu.rows);
//! assert_eq!(auto.rows, hybrid.rows);
//!
//! // The canonical suite (B1 sessions, B2 funnel, B3 retention, B4
//! // sequence-match) ships ready-made for benchmarks and tests.
//! for q in behavioral_queries() {
//!     assert!(session.execute_with(&q, &auto_cfg).is_ok());
//! }
//! ```
//!
//! The physical [`core::QueryPlan`]/[`core::Stage`]/[`core::Pipeline`]
//! layer the session lowers into remains public — benchmarks and the
//! baseline systems execute it directly under their own cost models — and
//! so is the placed [`core::PlacedPlan`] IR the placement pass produces
//! ([`core::place()`] + [`core::Engine::run_placed`]).

#![forbid(unsafe_code)]

pub use hape_baselines as baselines;
pub use hape_core as core;
pub use hape_join as join;
pub use hape_ops as ops;
pub use hape_sim as sim;
pub use hape_storage as storage;
pub use hape_tpch as tpch;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use hape_core::prelude::*;
    pub use hape_join::prelude::*;
    pub use hape_ops::prelude::*;
    pub use hape_sim::prelude::*;
    pub use hape_storage::prelude::*;
}
