//! The session: the engine's front door.
//!
//! A [`Session`] owns an [`Engine`] over a simulated server, a [`Catalog`]
//! of registered tables, and a default [`ExecConfig`]. Queries are
//! described logically with [`Session::query`] and flow through three
//! explicit layers:
//!
//! 1. **lower** ([`Session::lower`]) — resolve names against the catalog,
//!    push projections down, produce the physical [`crate::plan::QueryPlan`];
//! 2. **place** ([`Session::place`]) — give every pipeline its
//!    [`crate::place::Segment`]s, producing the [`PlacedPlan`] IR
//!    ([`Session::explain`] renders it with the traits and trait-conversion
//!    exchanges derived from them);
//! 3. **run** ([`Session::execute`] / [`Session::execute_with`]) — the
//!    engine interprets the placed plan over its device providers.
//!
//! All failures surface as the unified [`HapeError`].

use hape_sim::topology::Server;
use hape_storage::Table;

use crate::catalog::{Catalog, TableRegistration};
use crate::engine::{Engine, ExecConfig, Placement, QueryReport};
use crate::error::HapeError;
use crate::place::PlacedPlan;
use crate::query::{LoweredQuery, Query};
use crate::trace::TraceRecorder;
use crate::verify;

/// An engine + catalog + default execution config.
#[derive(Debug, Clone)]
pub struct Session {
    engine: Engine,
    catalog: Catalog,
    config: ExecConfig,
}

impl Session {
    /// A session over a server, empty catalog, hybrid placement.
    pub fn new(server: Server) -> Self {
        Session {
            engine: Engine::new(server),
            catalog: Catalog::new(),
            config: ExecConfig::new(Placement::Hybrid),
        }
    }

    /// Replace the default execution config.
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the default placement, keeping the other config defaults.
    pub fn with_placement(self, placement: Placement) -> Self {
        self.with_config(ExecConfig::new(placement))
    }

    /// The engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The default execution config.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Register a table under its own name.
    pub fn register(&mut self, table: Table) {
        self.catalog.register(table);
    }

    /// Register a table under an explicit name.
    pub fn register_as(&mut self, name: impl Into<String>, table: Table) {
        self.catalog.register_as(name, table);
    }

    /// Register a table under an explicit name, reporting whether the
    /// registration was [`TableRegistration::Fresh`] or
    /// [`TableRegistration::Replaced`] — the typed invalidation path. Every
    /// registration (typed or not) bumps the catalog version, which the
    /// serving layer's cross-query build cache
    /// ([`crate::serve::SessionServer`]) keys its entries on: replacing a
    /// table mid-session invalidates any cached hash tables built over the
    /// old contents instead of silently serving stale rows.
    pub fn register_table(
        &mut self,
        name: impl Into<String>,
        table: Table,
    ) -> TableRegistration {
        self.catalog.register_table(name, table)
    }

    /// Start describing a named query.
    pub fn query(&self, name: impl Into<String>) -> Query {
        Query::new(name)
    }

    /// Lower a logical query against this session's catalog.
    pub fn lower(&self, query: &Query) -> Result<LoweredQuery, HapeError> {
        Ok(query.lower(&self.catalog)?)
    }

    /// Lower and place a logical query under the session's default config:
    /// the explicit [`PlacedPlan`] IR — per-stage device subsets, from which
    /// each segment's [`crate::traits::HetTraits`] and exchange operators are
    /// derived.
    pub fn place(&self, query: &Query) -> Result<PlacedPlan, HapeError> {
        self.place_with(query, &self.config)
    }

    /// Lower and place under an explicit config.
    pub fn place_with(
        &self,
        query: &Query,
        config: &ExecConfig,
    ) -> Result<PlacedPlan, HapeError> {
        let lowered = self.lower(query)?;
        self.place_lowered(&lowered, config)
    }

    /// Place an already-lowered query ([`Engine::place`] against the
    /// lowered catalog, whose scan statistics the optimizer reads).
    pub(crate) fn place_lowered(
        &self,
        lowered: &LoweredQuery,
        config: &ExecConfig,
    ) -> Result<PlacedPlan, HapeError> {
        Ok(self.engine.place(&lowered.catalog, &lowered.plan, config)?)
    }

    /// Render the placed plan for a query under the session's default
    /// config: segments, and the traits and Router / MemMove /
    /// DeviceCrossing operators derived for them on this session's server
    /// ([`PlacedPlan::render`]), then a `verified: N stages, M diagnostics`
    /// footer from the static verifier (diagnostics render one per line
    /// below it).
    pub fn explain(&self, query: &Query) -> Result<String, HapeError> {
        self.explain_with(query, &self.config)
    }

    /// Render the placed plan under an explicit config.
    pub fn explain_with(
        &self,
        query: &Query,
        config: &ExecConfig,
    ) -> Result<String, HapeError> {
        let lowered = self.lower(query)?;
        let placed = self.place_lowered(&lowered, config)?;
        let mut text = placed.render(&self.engine.server);
        text.push_str(&verify::explain_footer(&placed, &lowered.catalog, &self.engine.server));
        Ok(text)
    }

    /// Statically verify a query under the session's default config: the
    /// binding walk and the device audit ([`mod@crate::verify`]) over the
    /// placed plan.
    /// `Err(HapeError::Verify(..))` carries every diagnostic.
    pub fn verify(&self, query: &Query) -> Result<(), HapeError> {
        self.verify_with(query, &self.config)
    }

    /// Statically verify under an explicit config.
    pub fn verify_with(&self, query: &Query, config: &ExecConfig) -> Result<(), HapeError> {
        let lowered = self.lower(query)?;
        let placed = self.place_lowered(&lowered, config)?;
        self.verify_placed(&lowered.catalog, &placed)
    }

    /// Statically verify an already-placed plan against an explicit
    /// catalog (for lowered queries, the derived
    /// [`LoweredQuery::catalog`] the plan's scans resolve against) and
    /// this session's server.
    pub fn verify_placed(
        &self,
        catalog: &Catalog,
        placed: &PlacedPlan,
    ) -> Result<(), HapeError> {
        Ok(verify::verify_placed(placed, catalog, &self.engine.server)?)
    }

    /// Lower, place and execute under the session's default config.
    ///
    /// Lowering and placement run per call; to execute one query many
    /// times (e.g. sweeping placements), [`Session::lower`] once and hand
    /// the [`LoweredQuery`] to [`Engine::run`] directly.
    pub fn execute(&self, query: &Query) -> Result<QueryReport, HapeError> {
        self.execute_with(query, &self.config)
    }

    /// Lower, place and execute under an explicit config. Under
    /// [`Placement::Auto`] the full four-layer flow runs: lower →
    /// optimize → place → run.
    pub fn execute_with(
        &self,
        query: &Query,
        config: &ExecConfig,
    ) -> Result<QueryReport, HapeError> {
        let lowered = self.lower(query)?;
        let placed = self.place_lowered(&lowered, config)?;
        let exec = self.engine.begin(&lowered.catalog, &placed)?;
        Ok(exec.with_trace(&config.trace).with_faults(&config.faults).run()?)
    }

    /// Execute a query with tracing enabled and render the plain-text
    /// profile: per-stage predicted-vs-observed cost rows (the estimate
    /// side requires [`Placement::Auto`]), per-query totals, and the
    /// engine's counters. Runs under [`Placement::Auto`] so every stage
    /// carries the optimizer's estimate.
    pub fn profile(&self, query: &Query) -> Result<String, HapeError> {
        self.profile_with(query, &ExecConfig::new(Placement::Auto))
    }

    /// Execute under an explicit config (a fresh recorder is layered on
    /// top — any recorder already in `config` is replaced for this run)
    /// and render the profile table.
    pub fn profile_with(
        &self,
        query: &Query,
        config: &ExecConfig,
    ) -> Result<String, HapeError> {
        let recorder = TraceRecorder::new();
        let cfg = config.clone().with_trace(recorder.clone());
        self.execute_with(query, &cfg)?;
        Ok(recorder.snapshot().render_profile())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlanError;
    use crate::plan::JoinAlgo;
    use crate::query::Query;
    use hape_ops::{col, lit, AggFunc};
    use hape_storage::datagen::gen_key_fk_table;

    fn session() -> Session {
        let mut s = Session::new(Server::paper_testbed());
        s.register_as("fact", gen_key_fk_table(1 << 16, 1 << 16, 1));
        s.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 2));
        s
    }

    #[test]
    fn session_runs_a_join_query_on_all_placements() {
        let s = session();
        let q = s
            .query("smoke")
            .from_table("fact")
            .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
        let mut rows = Vec::new();
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            let rep = s.execute_with(&q, &ExecConfig::new(placement)).unwrap();
            // Unique fact keys over 2^16, dim keys over 2^12: the join
            // keeps exactly the dim-sized key range.
            assert_eq!(rep.rows[0].1[0], (1 << 12) as f64, "{placement:?}");
            rows.push(rep.rows);
        }
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[1], rows[2]);
    }

    #[test]
    fn place_and_explain_surface_the_ir() {
        let s = session();
        let q = s
            .query("placed")
            .from_table("fact")
            .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k"))]);
        let placed = s.place(&q).unwrap();
        assert_eq!(placed.name, "placed");
        assert_eq!(placed.stages.len(), 2);
        // Default hybrid placement: the stream fans out over CPUs + GPUs.
        let stream = placed.stages.last().unwrap();
        assert_eq!(stream.devices().len(), 4);
        let text = s.explain(&q).unwrap();
        assert!(text.contains("Router("), "{text}");
        assert!(text.contains("DeviceCrossing(Cpu -> Gpu)"), "{text}");
        assert!(text.contains("broadcast \"placed.dim\""), "{text}");
        // The placed plan is directly executable.
        let lowered = s.lower(&q).unwrap();
        let rep = s.engine().run_placed(&lowered.catalog, &placed).unwrap();
        assert_eq!(rep.rows[0].1[0], (1 << 12) as f64);
    }

    #[test]
    fn zero_packet_rows_runs_one_row_packets_in_every_profile() {
        let mut s = Session::new(Server::paper_testbed());
        s.register_as("fact", gen_key_fk_table(1 << 9, 1 << 9, 1));
        let q = s.query("tiny").from_table("fact").agg(vec![(AggFunc::Sum, col("v"))]);
        let cfg = |rows| ExecConfig::new(Placement::CpuOnly).with_packet_rows(rows);
        let zero = s.execute_with(&q, &cfg(0)).unwrap();
        let one = s.execute_with(&q, &cfg(1)).unwrap();
        assert_eq!(zero.packets_cpu, 1 << 9, "one row per packet");
        assert_eq!((zero.rows, zero.time), (one.rows, one.time));
    }

    #[test]
    fn execute_surfaces_plan_errors() {
        let s = session();
        let q = s
            .query("bad")
            .from_table("fact")
            .filter(col("missing").lt(lit(1)))
            .agg(vec![(AggFunc::Count, col("k"))]);
        match s.execute(&q).unwrap_err() {
            HapeError::Plan(PlanError::UnknownColumn { column, .. }) => {
                assert_eq!(column, "missing");
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn execute_surfaces_engine_errors() {
        // GPU memory scaled down so the dim hash table cannot fit.
        let mut s = Session::new(Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0))
            .with_placement(Placement::GpuOnly);
        s.register_as("fact", gen_key_fk_table(1 << 16, 1 << 16, 1));
        s.register_as("dim", gen_key_fk_table(1 << 14, 1 << 14, 2));
        let q = s
            .query("oom")
            .from_table("fact")
            .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k"))]);
        match s.execute(&q).unwrap_err() {
            HapeError::Engine(e) => assert!(e.to_string().contains("GPU memory")),
            e => panic!("unexpected error {e}"),
        }
    }
}
