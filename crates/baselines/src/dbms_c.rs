//! DBMS C: the MonetDB/X100-style vector-at-a-time CPU columnar engine.

use std::collections::HashSet;

use hape_core::engine::EngineError;
use hape_core::plan::{Pipeline, QueryPlan};
use hape_core::provider::{OpTrace, PacketWork, TableStore};
use hape_core::Catalog;
use hape_join::{cpu_npj, cpu_radix, JoinInput, JoinOutcome, OutputMode};
use hape_ops::{cpu as cpu_ops, GroupKey};
use hape_sim::topology::Server;
use hape_sim::{CpuCostModel, SimTime};

use crate::{run_stage, BaselineError, BaselineReport};

/// X100-style vector length.
const VECTOR_ROWS: usize = 1024;
/// Effective cache bandwidth for re-reading materialised vectors, bytes/s
/// per core.
const VECTOR_CACHE_BW: f64 = 25.0e9;
/// Interpretation overhead per operator per vector.
const INTERP_NS: f64 = 90.0;
/// Parallel efficiency across cores.
const PAR_EFF: f64 = 0.88;

/// The DBMS C stand-in.
#[derive(Debug, Clone)]
pub struct DbmsC {
    /// The host server (only the CPU sockets are used).
    pub server: Server,
}

impl DbmsC {
    /// DBMS C on a server.
    pub fn new(server: Server) -> Self {
        DbmsC { server }
    }

    /// The per-core cost model of the first socket; a CPU-less server is
    /// the typed `DeviceNotPresent`.
    fn model(&self) -> Result<CpuCostModel, EngineError> {
        let no_cpu = || EngineError::DeviceNotPresent { device: "cpu0".into() };
        let spec = self.server.cpus.first().ok_or_else(no_cpu)?;
        Ok(CpuCostModel::new(spec.clone(), spec.cores))
    }

    /// The vector materialisation + interpretation surcharge for one
    /// operator boundary over one vector of `bytes`.
    fn vector_overhead(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(2.0 * bytes as f64 / VECTOR_CACHE_BW) + SimTime::from_ns(INTERP_NS)
    }

    /// Run a query plan vector-at-a-time. Results are the engine's (the
    /// shared stage driver runs its kernel pass over 1 024-row vectors);
    /// the cost model charges one full materialisation (+ re-read) per
    /// operator per vector, which is the execution-model difference the
    /// paper highlights on Q1.
    pub fn run_plan(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
    ) -> Result<BaselineReport, BaselineError> {
        plan.bind(catalog)?;
        let model = self.model()?;
        let mut tables = TableStore::new();
        let mut report = BaselineReport::default();
        for stage in &plan.stages {
            let mut t = SimTime::ZERO;
            let mut groups = HashSet::new();
            let rows =
                run_stage(catalog, stage, VECTOR_ROWS, &mut tables, |p, work, tables| {
                    self.price(&model, p, work, tables, &mut groups, &mut t)
                })?;
            report.rows.extend(rows); // only the stream stage returns any
            report.time += t / (self.server.total_cpu_cores() as f64 * PAR_EFF);
        }
        Ok(report)
    }

    /// Add one vector's charges to the stage clock `t`, replayed from the
    /// kernel pass's recorded statistics in the order a vector-at-a-time
    /// interpreter incurs them. `groups` mirrors the stream's group table
    /// (the distinct keys of the vectors priced so far), exactly as the
    /// engine's CPU worker derives its cumulative group count at commit.
    fn price(
        &self,
        model: &CpuCostModel,
        pipeline: &Pipeline,
        work: &PacketWork,
        tables: &TableStore,
        groups: &mut HashSet<GroupKey>,
        t: &mut SimTime,
    ) -> Result<(), BaselineError> {
        *t += cpu_ops::scan_cost(work.bytes, model);
        for op in &work.ops {
            // Vector-at-a-time: the operator's input vector was
            // materialised by its producer and is re-read here.
            *t += self.vector_overhead(op.bytes_in());
            *t += op.cpu_cost(model, tables)?;
            // Probes and stateful aggregates (whose per-user runs are intact
            // inside the user-aligned vectors) write a new vector out.
            if matches!(op, OpTrace::Probe { .. } | OpTrace::Stateful { .. }) {
                *t += model.seq_write(op.bytes_out());
            }
        }
        if let (Some(spec), Some(numbered)) = (&pipeline.agg, &work.groups) {
            let rows = work.out.rows() as u64;
            *t += self.vector_overhead(work.out.bytes());
            // Vectorised aggregation runs one primitive per aggregate, each
            // reading its argument vector and materialising a result
            // vector — the "multiple in-L1 passes" the paper blames for
            // DBMS C's Q1 gap (§6.4). Each expression node is its own
            // primitive too (x100-style: `1-disc`, `price*tmp`, … are
            // separate map primitives over temporary vectors).
            let expr_passes: f64 = spec.aggs.iter().map(|(_, e)| e.ops_per_row()).sum();
            let passes = spec.aggs.len() + expr_passes.ceil() as usize;
            for _ in 0..passes {
                *t += self.vector_overhead(rows * 16);
            }
            groups.extend(&numbered.keys);
            *t += cpu_ops::agg_cost(spec, rows, groups.len(), model);
        }
        Ok(())
    }

    /// DBMS C's equi-join for the Figure 6 microbenchmark: a
    /// non-partitioned hash join with vector-at-a-time overheads. A
    /// CPU-less server is refused as in [`DbmsC::run_plan`].
    pub fn join_microbench(
        &self,
        r: JoinInput<'_>,
        s: JoinInput<'_>,
    ) -> Result<JoinOutcome, BaselineError> {
        let cores = self.server.total_cpu_cores();
        let mut out = cpu_npj(r, s, &self.model()?, cores, OutputMode::AggregateOnly);
        out.time = out.time * 1.25; // vector materialisation between phases
        Ok(out)
    }

    /// DBMS C's join for the out-of-GPU sizes of Figure 7: internally a
    /// multi-pass partitioned join, but paying full vector materialisation
    /// between the passes — which is why its throughput stays "significantly
    /// lower than the PCIe throughput" (§6.3). A CPU-less server is refused
    /// as in [`DbmsC::run_plan`].
    pub fn join_large(
        &self,
        r: JoinInput<'_>,
        s: JoinInput<'_>,
    ) -> Result<JoinOutcome, BaselineError> {
        let cores = self.server.total_cpu_cores();
        let mut out = cpu_radix(r, s, &self.model()?, cores, OutputMode::AggregateOnly);
        out.time = out.time * 1.5;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_core::{Engine, ExecConfig, JoinAlgo, Placement};
    use hape_storage::datagen::gen_unique_keys;
    use hape_tpch::queries::{base_catalog, q1_query, q5_query};
    use hape_tpch::reference::{q1_reference, q5_reference, rows_approx_eq};

    #[test]
    fn q1_results_match_reference() {
        let data = hape_tpch::generate(0.002, 31);
        let q1 = q1_query().lower(&base_catalog(&data)).unwrap();
        let dbms = DbmsC::new(Server::paper_testbed());
        let rep = dbms.run_plan(&q1.catalog, &q1.plan).unwrap();
        assert!(rows_approx_eq(&rep.rows, &q1_reference(&data)));
    }

    #[test]
    fn q5_results_match_reference() {
        let data = hape_tpch::generate(0.002, 32);
        let q5 = q5_query(JoinAlgo::NonPartitioned).lower(&base_catalog(&data)).unwrap();
        let dbms = DbmsC::new(Server::paper_testbed());
        let rep = dbms.run_plan(&q5.catalog, &q5.plan).unwrap();
        assert!(rows_approx_eq(&rep.rows, &q5_reference(&data)));
    }

    #[test]
    fn cpu_less_server_is_a_typed_refusal() {
        let data = hape_tpch::generate(0.002, 31);
        let q1 = q1_query().lower(&base_catalog(&data)).unwrap();
        let server = Server { cpus: Vec::new(), ..Server::paper_testbed() };
        let dbms = DbmsC::new(server);
        let (keys, vals) = (gen_unique_keys(1 << 10, 5), vec![0u32; 1 << 10]);
        let r = JoinInput::new(&keys, &vals);
        let errs = [
            dbms.run_plan(&q1.catalog, &q1.plan).err(),
            dbms.join_microbench(r, r).err(),
            dbms.join_large(r, r).err(),
        ];
        for err in errs {
            assert!(
                matches!(
                    err,
                    Some(BaselineError::Engine(EngineError::DeviceNotPresent { .. }))
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn slower_than_proteus_cpu_on_q1() {
        // The paper's Figure 8: multiple aggregates make DBMS C pay for its
        // vector-at-a-time passes where JIT fusion does not.
        let data = hape_tpch::generate(0.1, 33);
        let q1 = q1_query().lower(&base_catalog(&data)).unwrap();
        let server = Server::paper_testbed();
        let dbms = DbmsC::new(server.clone());
        let t_c = dbms.run_plan(&q1.catalog, &q1.plan).unwrap().time;
        let engine = Engine::new(server);
        let t_proteus = engine
            .run(&q1.catalog, &q1.plan, &ExecConfig::new(Placement::CpuOnly))
            .unwrap()
            .time;
        assert!(
            t_c.as_secs() > 1.3 * t_proteus.as_secs(),
            "DBMS C {t_c} vs Proteus CPU {t_proteus}"
        );
    }

    #[test]
    fn microbench_join_slower_than_plain_npj() {
        let n = 1 << 16;
        let keys = gen_unique_keys(n, 5);
        let vals = vec![0u32; n];
        let r = JoinInput::new(&keys, &vals);
        let server = Server::paper_testbed();
        let dbms = DbmsC::new(server.clone());
        let out = dbms.join_microbench(r, r).unwrap();
        assert_eq!(out.stats.matches, n as u64);
        let plain = cpu_npj(
            r,
            r,
            &CpuCostModel::new(server.cpus[0].clone(), server.cpus[0].cores),
            server.total_cpu_cores(),
            OutputMode::AggregateOnly,
        );
        assert!(out.time > plain.time);
    }
}
