//! DBMS G: the GPU operator-at-a-time engine.

use hape_core::engine::EngineError;
use hape_core::plan::QueryPlan;
use hape_core::provider::{OpTrace, PacketWork, TableStore};
use hape_core::Catalog;
use hape_join::{gpu_npj, JoinInput, JoinOutcome, OutputMode};
use hape_ops::stateful::GPU_SEQ_CHAIN_FACTOR;
use hape_sim::gpu::OutOfGpuMemory;
use hape_sim::topology::Server;
use hape_sim::{Fidelity, GpuSim, GpuSpec, SimTime};

use crate::{run_stage, BaselineError, BaselineReport};

/// Why DBMS G refused a query.
#[derive(Debug, Clone)]
pub struct GpuUnsupported {
    /// Human-readable reason (matches the paper's capacity argument).
    pub reason: String,
}

impl std::fmt::Display for GpuUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DBMS G cannot run this query: {}", self.reason)
    }
}

impl std::error::Error for GpuUnsupported {}

/// Operator-at-a-time materialisation overhead versus a fused pipeline
/// (extra kernels + full intermediate writes/reads in device memory).
const MATERIALISE_FACTOR: f64 = 1.15;

/// The DBMS G stand-in.
#[derive(Debug, Clone)]
pub struct DbmsG {
    /// Host server (its GPUs and PCIe links are used).
    pub server: Server,
}

impl DbmsG {
    /// DBMS G on a server. A GPU-less server is accepted here and refused,
    /// typed, by [`DbmsG::run_plan`].
    pub fn new(server: Server) -> Self {
        DbmsG { server }
    }

    /// The first GPU; a GPU-less server is the typed `DeviceNotPresent`.
    fn gpu(&self) -> Result<&GpuSpec, EngineError> {
        let no_gpu = || EngineError::DeviceNotPresent { device: "gpu0".into() };
        self.server.gpus.first().ok_or_else(no_gpu)
    }

    /// Run a plan operator-at-a-time, entirely in GPU memory.
    ///
    /// Every operator is a separate kernel launch over the *whole* column
    /// set — the shared stage driver runs the engine's kernel pass over one
    /// whole-table packet per stage — reading its materialised input and
    /// materialising its output in device memory, so the query's working
    /// set is inputs + every intermediate + the hash tables, all at once.
    /// Queries that do not fit return [`GpuUnsupported`] (in the paper
    /// DBMS G could run only Q6 of the four, §6.4).
    pub fn run_plan(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
    ) -> Result<BaselineReport, BaselineError> {
        plan.bind(catalog)?;
        let gpu = self.gpu()?;
        let mut tables = TableStore::new();
        let mut report = BaselineReport::default();
        let mut resident: u64 = 0; // input + intermediate bytes pinned in device memory
        for stage in &plan.stages {
            let rows =
                run_stage(catalog, stage, usize::MAX, &mut tables, |_, work, tables| {
                    self.price(gpu, work, tables, &mut resident, &mut report.time)
                })?;
            report.rows.extend(rows); // only the stream stage returns any
        }
        Ok(report)
    }

    /// Add one stage's charges (its single whole-table packet) to the query
    /// clock `total`, replayed from the kernel pass's recorded statistics:
    /// the input transfer, one kernel per operator, the capacity check over
    /// everything `resident` plus the hash tables built so far, and the
    /// final aggregation kernel.
    fn price(
        &self,
        gpu: &GpuSpec,
        work: &PacketWork,
        tables: &TableStore,
        resident: &mut u64,
        total: &mut SimTime,
    ) -> Result<(), BaselineError> {
        let n_gpus = self.server.gpus.len() as f64;
        let pcie_bw: f64 = self.server.pcie.iter().map(|l| l.bw).sum();
        // Transfer the inputs (split across the PCIe links).
        *resident += work.bytes;
        *total += SimTime::from_secs(work.bytes as f64 / pcie_bw + 20e-6);

        // Operator-at-a-time execution over the whole input.
        let mut t_stage = SimTime::ZERO;
        for op in &work.ops {
            let rows = op.rows_in() as f64;
            match op {
                OpTrace::Filter { .. } | OpTrace::Project { .. } => {}
                // Random device-memory probes over-fetch a line each.
                OpTrace::Probe { avg_chain, .. } => {
                    t_stage += SimTime::from_secs(
                        rows * (1.0 + avg_chain) * gpu.l1.line as f64 / (gpu.dram_bw * n_gpus),
                    );
                }
                // The per-user runs stay intact in the whole-table packet —
                // but every row is one step of a serial state chain the GPU
                // cannot latency-hide (the engine's sequential-state term,
                // at full strength).
                OpTrace::Stateful { state_bytes, .. } => {
                    t_stage += SimTime::from_secs(
                        rows * gpu.random_access_ns((*state_bytes).max(64))
                            * GPU_SEQ_CHAIN_FACTOR
                            / 1e9
                            / n_gpus,
                    );
                }
            }
            *resident += op.bytes_out();
            // One kernel per operator: stream in + materialise out.
            t_stage += SimTime::from_secs(
                (op.bytes_in() + op.bytes_out()) as f64 * MATERIALISE_FACTOR
                    / (gpu.dram_bw * n_gpus),
            ) + SimTime::from_ns(gpu.launch_overhead_ns);
        }
        let pinned = *resident + tables.values().map(|jt| jt.bytes()).sum::<u64>();
        let capacity: u64 = self.server.gpus.iter().map(|g| g.dram_capacity as u64).sum();
        if pinned > capacity {
            let reason =
                format!("working set {pinned} bytes exceeds aggregate GPU memory {capacity}");
            return Err(GpuUnsupported { reason }.into());
        }
        *total += t_stage;
        if work.folds && work.out.rows() > 0 {
            // Final aggregation kernel.
            *total += SimTime::from_secs(work.out.bytes() as f64 / (gpu.dram_bw * n_gpus))
                + SimTime::from_ns(gpu.launch_overhead_ns);
        }
        Ok(())
    }

    /// DBMS G's equi-join for Figure 6 (data pre-loaded in GPU memory):
    /// a non-partitioned join plus operator-at-a-time materialisation. A
    /// join that does not fit one GPU's memory is [`GpuUnsupported`]; a
    /// GPU-less server is refused as in [`DbmsG::run_plan`].
    pub fn join_microbench(
        &self,
        r: JoinInput<'_>,
        s: JoinInput<'_>,
    ) -> Result<JoinOutcome, BaselineError> {
        let sim = GpuSim::new(self.gpu()?.clone(), Fidelity::Analytic);
        let unsupported = |e: OutOfGpuMemory| GpuUnsupported { reason: e.to_string() };
        // Materialised join output must also fit (before aggregation).
        let pool_extra = (r.len() as u64) * 16;
        let mut probe_pool = hape_sim::GpuMemPool::for_spec(sim.spec());
        probe_pool
            .alloc(r.bytes() + s.bytes() + r.bytes() * 3 + pool_extra)
            .map_err(unsupported)?;
        let mut out = gpu_npj(&sim, r, s, OutputMode::AggregateOnly).map_err(unsupported)?;
        out.time = out.time * MATERIALISE_FACTOR
            + SimTime::from_secs(pool_extra as f64 / sim.spec().dram_bw);
        Ok(out)
    }

    /// DBMS G on out-of-GPU data (Figure 7): UVA-style access over the
    /// interconnect. Every hash-table access drags a cache line across
    /// PCIe, so the join collapses to interconnect random-access throughput
    /// — "not designed for out-of-GPU datasets … performs poorly even after
    /// 512 million tuples" (§6.3). A GPU-less server is refused as in
    /// [`DbmsG::run_plan`].
    pub fn join_uva_time(&self, n_tuples: u64) -> Result<SimTime, BaselineError> {
        let line = self.gpu()?.l1.line as f64;
        let pcie_bw: f64 = self.server.pcie.iter().map(|l| l.bw).sum();
        // Build: stream r over PCIe + random HT writes (line each).
        // Probe: stream s + ~1.5 chain accesses, a line each.
        let stream = 2.0 * (n_tuples * 8) as f64 / pcie_bw;
        let random = (n_tuples as f64) * (1.0 + 1.5) * line / pcie_bw;
        Ok(SimTime::from_secs(stream + random))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_core::JoinAlgo;
    use hape_storage::datagen::gen_unique_keys;
    use hape_tpch::queries::{base_catalog, q1_query, q5_query, q6_query, q9_query};
    use hape_tpch::reference::{q6_reference, rows_approx_eq};

    fn scaled_server(sf: f64) -> Server {
        Server::tpch_scaled(sf)
    }

    #[test]
    fn q6_runs_and_matches_reference() {
        let sf = 0.01;
        let data = hape_tpch::generate(sf, 41);
        let q6 = q6_query().lower(&base_catalog(&data)).unwrap();
        let dbms = DbmsG::new(scaled_server(sf));
        let rep = dbms.run_plan(&q6.catalog, &q6.plan).unwrap();
        assert!(rows_approx_eq(&rep.rows, &q6_reference(&data)));
    }

    #[test]
    fn q1_q5_q9_unsupported_at_paper_scale() {
        // With GPU memory scaled to the data's scale factor (as at SF 100),
        // DBMS G can run only Q6 of the four (§6.4).
        let sf = 0.01;
        let data = hape_tpch::generate(sf, 42);
        let catalog = base_catalog(&data);
        let dbms = DbmsG::new(scaled_server(sf));
        let lower = |q: hape_core::Query| q.lower(&catalog).unwrap();
        let q1 = lower(q1_query());
        assert!(dbms.run_plan(&q1.catalog, &q1.plan).is_err(), "Q1 should not fit");
        let q5 = lower(q5_query(JoinAlgo::NonPartitioned));
        assert!(dbms.run_plan(&q5.catalog, &q5.plan).is_err(), "Q5 should not fit");
        let q9 = lower(q9_query(JoinAlgo::NonPartitioned));
        assert!(dbms.run_plan(&q9.catalog, &q9.plan).is_err(), "Q9 should not fit");
        let q6 = lower(q6_query());
        assert!(dbms.run_plan(&q6.catalog, &q6.plan).is_ok(), "Q6 must fit");
    }

    #[test]
    fn gpu_less_server_is_a_typed_refusal() {
        let data = hape_tpch::generate(0.002, 41);
        let q6 = q6_query().lower(&base_catalog(&data)).unwrap();
        let dbms = DbmsG::new(Server::cpu_only());
        let (keys, vals) = (gen_unique_keys(1 << 10, 6), vec![0u32; 1 << 10]);
        let r = JoinInput::new(&keys, &vals);
        let errs = [
            dbms.run_plan(&q6.catalog, &q6.plan).err(),
            dbms.join_microbench(r, r).err(),
            dbms.join_uva_time(1 << 10).err(),
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
    fn microbench_join_works_in_gpu_sizes() {
        let n = 1 << 16;
        let keys = gen_unique_keys(n, 6);
        let vals = vec![0u32; n];
        let r = JoinInput::new(&keys, &vals);
        let dbms = DbmsG::new(Server::paper_testbed());
        let out = dbms.join_microbench(r, r).unwrap();
        assert_eq!(out.stats.matches, n as u64);
    }

    #[test]
    fn uva_join_collapses_out_of_gpu() {
        let dbms = DbmsG::new(Server::paper_testbed());
        let t_256m = dbms.join_uva_time(256 << 20).unwrap();
        let t_512m = dbms.join_uva_time(512 << 20).unwrap();
        // Linear in n but at PCIe random-access throughput: seconds, not ms.
        assert!(t_256m.as_secs() > 1.0, "{t_256m}");
        assert!(t_512m.as_secs() > 1.9 * t_256m.as_secs() * 0.9);
    }
}
