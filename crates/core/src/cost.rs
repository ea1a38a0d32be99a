//! The analytic cost model behind [`Placement::Auto`](crate::Placement).
//!
//! The paper's thesis is that placement must follow from the *hardware
//! model*, not from a user-chosen enum: which devices run a pipeline is a
//! function of compute throughput, memory bandwidth, interconnect cost and
//! device memory capacity (§2.1, §6). This module derives per-stage cost
//! estimates from exactly the specs the simulator executes against — the
//! same [`CpuSpec`](hape_sim::CpuSpec)/[`GpuSpec`](hape_sim::GpuSpec)
//! numbers, the same [`Link`](hape_sim::interconnect::Link) bandwidths —
//! so the optimizer ([`crate::optimize::optimize`]) and the engine agree about the
//! hardware by construction.
//!
//! ## Cost formulas ↔ paper hardware parameters
//!
//! | formula term | hardware parameter (paper §) | spec accessor |
//! |---|---|---|
//! | CPU scan ns/byte = `1e9 / socket_scan_bw` | socket DRAM bandwidth, per-core issue limit (§2.1) | [`CpuSpec::socket_scan_bw`](hape_sim::CpuSpec::socket_scan_bw) |
//! | CPU probe ns/access (cache blend, MLP, TLB) | cache hierarchy + memory-level parallelism (§2.1, §4.1) | [`CpuCostModel::random_access_ns`] |
//! | GPU stream ns/byte = `max(link, kernel)` | PCIe 3 x16 ≈ 12 GB/s vs GDDR5X 280 GB/s (§2.1) | [`Link::bw`](hape_sim::interconnect::Link), [`GpuSpec::dram_bw`](hape_sim::GpuSpec) |
//! | GPU probe ns/access (L2 vs device memory line) | fat cache hierarchy, line over-fetch (§2.1, §4.1) | [`GpuSpec::random_access_ns`](hape_sim::GpuSpec::random_access_ns) |
//! | per-packet fixed ns = `link latency + launch overhead` | DMA setup, kernel launch (§2.2) | [`Link::latency`](hape_sim::interconnect::Link), [`GpuSpec::launch_overhead_ns`](hape_sim::GpuSpec) |
//! | broadcast s = `Σ ht bytes / link bw` per GPU | hash-table mem-move over PCIe (§4.2) | [`Link::bw`](hape_sim::interconnect::Link) |
//! | capacity bound = `Σ ht bytes × working factor ≤ DRAM` | GPU device memory, Q9's §6.4 failure | [`GpuSpec::dram_capacity`](hape_sim::GpuSpec), [`GPU_HT_WORKING_FACTOR`] |
//! | co-partition fanout: `2(R+S) >> bits ≤ 0.9 × DRAM` | §5 "just small enough to fit in GPU-memory" | [`hape_join::plan_cpu_bits`], [`hape_join::gpu_budget`] |
//! | co-partition s = `Σ passes partition_pass(n, 8, 2^bits) / workers` | TLB-bounded multi-pass CPU partitioning (§4.1, §5) | [`CpuCostModel::partition_pass`], [`CpuSpec::max_partition_fanout`](hape_sim::CpuSpec::max_partition_fanout) |
//! | co-process single pass s = `max((R+S)/Σ link bw, 4(R+S)/Σ gpu bw)` | each co-partition pair crosses PCIe once, joined at device bandwidth (§5) | [`Link::bw`](hape_sim::interconnect::Link), [`GpuSpec::dram_bw`](hape_sim::GpuSpec) |
//! | CPU stateful s = `compute_simd(rows, ops) + users × random_access` | per-user state machines scan sorted runs; state stays cache-resident (§2.1) | [`CpuCostModel::compute_simd`], [`CpuCostModel::random_accesses`] |
//! | GPU stateful ns/row = `random_access_ns × seq-chain factor` | serial per-user dependency chain defeats the GPU's latency hiding — the paper's random-access term, unamortised (§2.1, §4.1) | [`GpuSpec::random_access_ns`](hape_sim::GpuSpec::random_access_ns), [`hape_ops::stateful::GPU_SEQ_CHAIN_FACTOR`] |
//! | stateful packet floor s = `max over devices of packet_bytes × ns/B` | a participating worker processes at least one user-aligned packet — a slow device bounds the stage even when summed rates look fast | [`CostModel::stage_cost`] |
//! | retry delay s = `Σ_{a=1..n} base·2^(a−1) + transfer replay` | transient transfer failure: each attempt pays exponential backoff plus the re-sent packet crossing PCIe, charged to the GPU's sim clock before commit (fault plane, PR 10) | [`RetryPolicy::backoff`](crate::fault::RetryPolicy::backoff), [`Link::bw`](hape_sim::interconnect::Link) |
//! | replan penalty s = `base·2^(replan)` + degraded placement | permanent device loss mid-query: the control plane pays one backoff per re-placement, then runs the remaining stages on the surviving fleet's (slower) plan (fault plane, PR 10) | [`RetryPolicy::backoff`](crate::fault::RetryPolicy::backoff), [`optimize_on`](crate::optimize::optimize_on) |
//!
//! Cardinalities are estimated from the catalog's *actual* table sizes
//! (the scan views lowering pushes down), with classic default
//! selectivities for filters and foreign-key match rates for joins; the
//! estimated hash-table footprint mirrors the executor's
//! [`JoinTable`](crate::plan::JoinTable) layout (batch payload plus
//! chained-table heads/next arrays). Estimates are deliberately mildly
//! conservative — an over-estimated broadcast footprint refuses a GPU that
//! might have fit, never the reverse, which is the safe direction for the
//! paper's Q9 capacity cliff.

use std::collections::HashMap;

use hape_sim::topology::{DeviceId, Server};
use hape_sim::CpuCostModel;

use crate::catalog::Catalog;
use crate::engine::ExecConfig;
use crate::error::EngineError;
use crate::plan::{PipeOp, Pipeline};
use crate::provider::{GPU_HT_WORKING_FACTOR, GPU_PACKET_SHARE};

/// Default selectivity charged per filter operator (no per-column
/// statistics yet; the classic textbook third-to-half compromise).
pub const FILTER_SELECTIVITY: f64 = 0.4;

/// Default join match rate: TPC-H joins are foreign-key joins, so each
/// probe row is assumed to survive with one match.
pub const JOIN_MATCH_RATE: f64 = 1.0;

/// Estimated bytes per payload/projection column when the physical plan no
/// longer carries type information (conservative: the widest column kind).
pub const EST_COLUMN_BYTES: f64 = 8.0;

/// Estimated chain accesses per hash-table probe (head + one entry).
const PROBE_ACCESSES: f64 = 2.0;

/// Scalar ops per probed row (hash + compare), charged on CPU cores.
const PROBE_OPS: f64 = 8.0;

/// Estimated events per user run for stateful aggregates (no per-column
/// statistics yet; matches the behavioral generator's average run length).
pub const STATEFUL_EVENTS_PER_USER: f64 = 32.0;

/// Estimated size of a built hash table: the executor's
/// [`JoinTable`](crate::plan::JoinTable) footprint for an estimated build
/// output.
#[derive(Debug, Clone, Copy)]
pub struct HtEstimate {
    /// Estimated build rows.
    pub rows: f64,
    /// Estimated total footprint (batch payload + chained table).
    pub bytes: u64,
}

/// Estimated hash-table footprints, by build-stage name — accumulated in
/// stage order as the optimizer walks the plan.
pub type HtEstimates = HashMap<String, HtEstimate>;

/// One hash-table probe inside a pipeline, with its estimated load.
#[derive(Debug, Clone)]
pub struct ProbeEstimate {
    /// Name of the probed hash table.
    pub ht: String,
    /// Estimated rows reaching this probe.
    pub rows: f64,
    /// Estimated footprint of the probed table (the probe's working set).
    pub ht_bytes: u64,
    /// Estimated build rows of the probed table (the co-processing arm
    /// co-partitions these against the stream).
    pub ht_rows: f64,
}

/// Cardinality walk over one pipeline.
#[derive(Debug, Clone)]
pub struct PipelineEstimate {
    /// Rows the scan produces (exact, from the catalog).
    pub in_rows: f64,
    /// Bytes the scan reads (exact, post-pushdown).
    pub in_bytes: f64,
    /// Estimated output rows.
    pub out_rows: f64,
    /// Estimated output bytes.
    pub out_bytes: f64,
    /// The probes, in pipeline order.
    pub probes: Vec<ProbeEstimate>,
    /// Rows entering a stateful per-user aggregate (0 when the pipeline
    /// has none).
    pub stateful_rows: f64,
    /// Estimated distinct users those rows cover.
    pub stateful_users: f64,
    /// Estimated per-user state working set, summed over users.
    pub stateful_state_bytes: f64,
    /// State-machine operations per input row.
    pub stateful_ops_per_row: f64,
}

impl PipelineEstimate {
    /// Estimated [`JoinTable`](crate::plan::JoinTable) footprint of a hash
    /// table built over this pipeline's output: the batch payload plus the
    /// chained table's heads (next power of two of the row count) and next
    /// pointers, 4 bytes each — mirroring
    /// [`ChainedTable::build`](hape_join::common::ChainedTable::build).
    pub fn table_estimate(&self) -> HtEstimate {
        let rows = self.out_rows.max(1.0);
        let heads = (rows as u64).max(2).next_power_of_two();
        let chained = (heads + rows as u64) * 4;
        HtEstimate { rows, bytes: chained + self.out_bytes as u64 }
    }
}

/// The co-processing components of a [`StageCost`], present when the
/// stage is priced as a
/// [`PlacedStage::CoProcess`](crate::place::PlacedStage::CoProcess) (§5):
/// the CPU-side co-partitioning and the per-GPU single-pass transfer/join
/// — the same decomposition `hape_join::coprocess_join` executes.
#[derive(Debug, Clone)]
pub struct CoprocessCost {
    /// The oversized hash table executed as the co-processing join.
    pub ht: String,
    /// CPU co-partitioning time: all partition passes of both sides,
    /// spread over the subset's workers.
    pub cpu_partition_seconds: f64,
    /// Single PCIe pass + in-GPU join time, load-balanced over the
    /// subset's GPUs.
    pub gpu_pass_seconds: f64,
    /// Planned CPU-side radix bits.
    pub cpu_bits: u32,
    /// Estimated bytes of one co-partition pair with the join's working
    /// space (what must fit one GPU).
    pub per_partition_bytes: u64,
}

/// Per-stage cost estimate for one candidate device subset. This is what
/// the optimizer minimises and what
/// [`Session::explain`](crate::session::Session::explain) renders for
/// [`Placement::Auto`](crate::Placement) plans.
#[derive(Debug, Clone)]
pub struct StageCost {
    /// The candidate devices.
    pub devices: Vec<DeviceId>,
    /// Estimated streaming makespan: input bytes over the subset's summed
    /// effective rates (the load-aware router balances by rate). For a
    /// [`PlacedStage::CoProcess`](crate::place::PlacedStage::CoProcess)
    /// this is the CPU-side prefix (everything up to the co-processed
    /// probe) plus the final aggregation.
    pub stream_seconds: f64,
    /// Upfront hash-table broadcast time (max over the subset's GPUs;
    /// dedicated links broadcast in parallel).
    pub broadcast_seconds: f64,
    /// Device-to-host return of a build stage's output produced on GPUs
    /// (zero for stream stages and CPU-only subsets).
    pub d2h_seconds: f64,
    /// Estimated broadcast footprint per GPU (raw table bytes).
    pub ht_bytes: u64,
    /// The footprint with working space ([`GPU_HT_WORKING_FACTOR`]); for
    /// co-processing stages, one co-partition pair's footprint instead.
    pub gpu_required: u64,
    /// Smallest device-memory capacity among the subset's GPUs (`None`
    /// when the subset has no GPU).
    pub gpu_capacity: Option<u64>,
    /// The co-processing decomposition when the stage is priced as a
    /// [`PlacedStage::CoProcess`](crate::place::PlacedStage::CoProcess);
    /// `None` for broadcast stages.
    pub coprocess: Option<CoprocessCost>,
}

impl StageCost {
    /// Total estimated stage makespan.
    pub fn total_seconds(&self) -> f64 {
        let cp = self
            .coprocess
            .as_ref()
            .map_or(0.0, |c| c.cpu_partition_seconds + c.gpu_pass_seconds);
        self.stream_seconds + self.broadcast_seconds + self.d2h_seconds + cp
    }

    /// Whether every GPU in the subset can hold its working set — the
    /// broadcast tables with working space for broadcasting stages (the
    /// §6.4 capacity constraint), one co-partition pair for
    /// [`PlacedStage::CoProcess`](crate::place::PlacedStage::CoProcess)
    /// stages — checked on estimates.
    pub fn fits_gpu_memory(&self) -> bool {
        self.gpu_capacity.is_none_or(|cap| self.gpu_required <= cap)
    }

    /// Compact label of the chosen device subset (`cpu0+gpu1`), in subset
    /// order — what the tracing plane's profile table prints per stage.
    pub fn devices_label(&self) -> String {
        self.devices.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("+")
    }
}

/// Whole-plan cost estimate: one chosen [`StageCost`] per placed stage.
#[derive(Debug, Clone)]
pub struct PlanCost {
    /// Per-stage estimates, in stage order.
    pub stages: Vec<StageCost>,
}

impl PlanCost {
    /// Estimated plan makespan (stages run sequentially).
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(StageCost::total_seconds).sum()
    }
}

/// The analytic cost model: a server topology plus the catalog the plan's
/// scans resolve against.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    server: &'a Server,
    catalog: &'a Catalog,
}

impl<'a> CostModel<'a> {
    /// A model over `server`, with scan statistics from `catalog`.
    pub fn new(server: &'a Server, catalog: &'a Catalog) -> Self {
        CostModel { server, catalog }
    }

    /// Walk a pipeline's cardinalities: exact scan statistics from the
    /// catalog, default selectivities for the operators.
    pub fn estimate_pipeline(
        &self,
        pipeline: &Pipeline,
        hts: &HtEstimates,
    ) -> Result<PipelineEstimate, EngineError> {
        let table = self.catalog.lookup(&pipeline.source)?;
        let in_rows = table.rows().max(1) as f64;
        let in_bytes = (table.bytes().max(1)) as f64;
        let mut rows = in_rows;
        let mut width = in_bytes / in_rows;
        let mut probes = Vec::new();
        let mut stateful_rows = 0.0f64;
        let mut stateful_users = 0.0f64;
        let mut stateful_state_bytes = 0.0f64;
        let mut stateful_ops_per_row = 0.0f64;
        for op in &pipeline.ops {
            match op {
                PipeOp::Filter(_) => rows *= FILTER_SELECTIVITY,
                PipeOp::Project(exprs) => width = exprs.len() as f64 * EST_COLUMN_BYTES,
                PipeOp::JoinProbe { ht, build_payload_cols, .. } => {
                    let est = hts
                        .get(ht)
                        .copied()
                        .ok_or_else(|| EngineError::HashTableNotBuilt { table: ht.clone() })?;
                    probes.push(ProbeEstimate {
                        ht: ht.clone(),
                        rows,
                        ht_bytes: est.bytes,
                        ht_rows: est.rows,
                    });
                    rows *= JOIN_MATCH_RATE;
                    width += build_payload_cols.len() as f64 * EST_COLUMN_BYTES;
                }
                PipeOp::Stateful(agg) => {
                    let users = (rows / STATEFUL_EVENTS_PER_USER).max(1.0);
                    stateful_rows += rows;
                    stateful_users += users;
                    stateful_state_bytes += users * agg.state_bytes_per_user() as f64;
                    stateful_ops_per_row = agg.ops_per_row();
                    rows = users;
                    width = agg.out_width() as f64 * EST_COLUMN_BYTES;
                }
            }
        }
        Ok(PipelineEstimate {
            in_rows,
            in_bytes,
            out_rows: rows,
            out_bytes: rows * width,
            probes,
            stateful_rows,
            stateful_users,
            stateful_state_bytes,
            stateful_ops_per_row,
        })
    }

    /// Estimate one stage's makespan on a candidate device subset, from a
    /// precomputed cardinality walk (the walk is subset-independent, so
    /// callers enumerating subsets run [`CostModel::estimate_pipeline`]
    /// once per stage).
    ///
    /// `returns_output` marks build stages, whose GPU-produced output must
    /// travel back to host memory (the built table ends up host-resident
    /// for broadcasting).
    pub fn stage_cost(
        &self,
        est: &PipelineEstimate,
        devices: &[DeviceId],
        returns_output: bool,
    ) -> Result<StageCost, EngineError> {
        // The engine's packet-sizing rule on the scan's row count, which
        // `in_rows` holds exactly (< 2^53). For such `r`, f64 `r / d`
        // truncates to the integer `r / d`, so pricing in f64 would size
        // the same packets.
        let shares: usize = devices
            .iter()
            .map(|d| match d {
                DeviceId::Cpu(s) => self.cpu_spec(*s).map(|c| c.cores),
                DeviceId::Gpu(_) => Ok(GPU_PACKET_SHARE),
            })
            .sum::<Result<usize, _>>()?;
        let packet_rows = ExecConfig::auto_packet_rows(est.in_rows as usize, shares, None);
        let packet_bytes = packet_rows as f64 * (est.in_bytes / est.in_rows);

        // A pipeline may probe the same table at several sites (memoised
        // build sides); the broadcast moves — and capacity-counts — each
        // distinct table once.
        let mut seen_hts: Vec<&str> = Vec::new();
        let broadcast_bytes: u64 = est
            .probes
            .iter()
            .filter(|p| {
                let fresh = !seen_hts.contains(&p.ht.as_str());
                if fresh {
                    seen_hts.push(&p.ht);
                }
                fresh
            })
            .map(|p| p.ht_bytes)
            .sum();
        let mut rates = 0.0f64; // bytes per ns, summed over the subset
        let mut gpu_rates: Vec<(usize, f64)> = Vec::new();
        let mut broadcast_seconds = 0.0f64;
        let mut gpu_capacity: Option<u64> = None;
        let mut slowest_packet_seconds = 0.0f64;
        for &device in devices {
            match device {
                DeviceId::Cpu(s) => {
                    let ns = self.cpu_ns_per_byte(s, est)?;
                    rates += 1.0 / ns;
                    slowest_packet_seconds =
                        slowest_packet_seconds.max(packet_bytes * ns / 1e9);
                }
                DeviceId::Gpu(g) => {
                    let ns = self.gpu_ns_per_byte(g, est, packet_bytes)?;
                    let rate = 1.0 / ns;
                    rates += rate;
                    gpu_rates.push((g, rate));
                    slowest_packet_seconds =
                        slowest_packet_seconds.max(packet_bytes * ns / 1e9);
                    let (spec, link) = self.gpu_spec(g)?;
                    gpu_capacity = Some(gpu_capacity.map_or(spec.dram_capacity as u64, |c| {
                        c.min(spec.dram_capacity as u64)
                    }));
                    // Dedicated links broadcast in parallel: the slowest
                    // GPU's copy bounds the setup time.
                    let t =
                        broadcast_bytes as f64 / link.bw + seen_hts.len() as f64 * link.latency;
                    broadcast_seconds = broadcast_seconds.max(t);
                }
            }
        }
        let mut stream_seconds = est.in_bytes / rates / 1e9;
        if est.stateful_rows > 0.0 {
            // Every device in the subset processes at least one user-aligned
            // packet, so a latency-bound device puts a floor under the stage
            // even when the subset's summed rate looks attractive. This is
            // what lets the model *price out* a GPU for sequential-state
            // work instead of hard-pinning it to the CPU.
            stream_seconds = stream_seconds.max(slowest_packet_seconds);
        }
        // A GPU-built table's output rides its link back to the host.
        let mut d2h_seconds = 0.0f64;
        if returns_output {
            for &(g, rate) in &gpu_rates {
                let (_, link) = self.gpu_spec(g)?;
                let share = est.out_bytes * (rate / rates);
                d2h_seconds = d2h_seconds.max(share / link.bw + link.latency);
            }
        }
        Ok(StageCost {
            devices: devices.to_vec(),
            stream_seconds,
            broadcast_seconds,
            d2h_seconds,
            ht_bytes: broadcast_bytes,
            gpu_required: (broadcast_bytes as f64 * GPU_HT_WORKING_FACTOR) as u64,
            gpu_capacity,
            coprocess: None,
        })
    }

    /// Price a stream stage as a
    /// [`PlacedStage::CoProcess`](crate::place::PlacedStage::CoProcess)
    /// (§5): the CPUs in `cpus` run the pipeline prefix (every operator
    /// before the final probe) and co-partition the stream against the
    /// final probe's oversized table; the GPUs in `gpus` each receive co-partition
    /// pairs over their own links for single-pass radix joins. The
    /// decomposition mirrors `hape_join::coprocess_join` term by term —
    /// fanout planning included, via the shared
    /// [`hape_join::plan_cpu_bits`] — so the optimizer's estimate and the
    /// engine's execution agree about the hardware by construction.
    ///
    /// Returns `Ok(None)` when the stage has no probe, a subset side is
    /// empty, or no legal co-partitioning fanout exists (the CPU's
    /// multi-pass bound) — the candidate simply does not form.
    pub fn coprocess_cost(
        &self,
        est: &PipelineEstimate,
        cpus: &[DeviceId],
        gpus: &[DeviceId],
    ) -> Result<Option<StageCost>, EngineError> {
        let Some(big) = est.probes.last() else {
            return Ok(None);
        };
        if cpus.is_empty() || gpus.is_empty() {
            return Ok(None);
        }
        // The §5 co-partition inputs are (key, row-index) pairs: 8 bytes
        // per tuple on each side, regardless of payload width.
        let s_rows = big.rows.max(1.0);
        let r_rows = big.ht_rows.max(1.0);
        let s_bytes = (s_rows * 8.0) as u64;
        let r_bytes = (r_rows * 8.0) as u64;

        // Per-GPU budgets, link and device bandwidths from each device's
        // own spec.
        let mut lanes: Vec<(u64, f64, f64, f64)> = Vec::new(); // (budget, link bw, dram bw, fixed s)
        for &d in gpus {
            let DeviceId::Gpu(g) = d else { continue };
            let (spec, link) = self.gpu_spec(g)?;
            lanes.push((
                hape_join::gpu_budget(spec.dram_capacity),
                link.bw,
                spec.dram_bw,
                link.latency + spec.launch_overhead_ns / 1e9,
            ));
        }
        let min_budget = lanes.iter().map(|l| l.0).min().unwrap_or(0);
        let max_budget = lanes.iter().map(|l| l.0).max().unwrap_or(0);
        if max_budget == 0 {
            return Ok(None);
        }
        let first_socket = cpus.iter().find_map(|d| match d {
            DeviceId::Cpu(s) => Some(*s),
            DeviceId::Gpu(_) => None,
        });
        let Some(first_socket) = first_socket else { return Ok(None) };
        let cpu0 = self.cpu_spec(first_socket)?;
        let mut workers = 0usize;
        for &d in cpus {
            let DeviceId::Cpu(s) = d else { continue };
            workers += self.cpu_spec(s)?.cores;
        }
        let n_sockets = cpus.iter().filter(|d| !d.is_gpu()).count().max(1);

        // The executing join's co-partitioning plan: fanout, the budget it
        // fits, and the CPU passes over both sides spread over all workers.
        let Ok((bits, planned_budget, t_cpu)) = hape_join::coprocess(
            (r_rows as u64, r_bytes),
            (s_rows as u64, s_bytes),
            (min_budget, max_budget),
            cpu0,
            (workers, n_sockets),
        ) else {
            return Ok(None);
        };
        let per_partition_bytes = (2 * (r_bytes + s_bytes)) >> bits;

        // Only GPUs a planned co-partition actually fits receive work —
        // the executing join skips the rest, so the estimate's aggregate
        // bandwidths must too (a tiny second GPU must not halve the
        // estimated pass time it will never serve).
        let mut link_bw = 0.0f64;
        let mut gpu_bw = 0.0f64;
        let mut fixed_seconds = 0.0f64;
        let mut eligible = 0usize;
        for &(budget, lbw, dbw, fixed) in &lanes {
            if per_partition_bytes > budget {
                continue;
            }
            link_bw += lbw;
            gpu_bw += dbw;
            fixed_seconds = fixed_seconds.max(fixed);
            eligible += 1;
        }
        if eligible == 0 {
            return Ok(None);
        }

        // CPU prefix: the stream with every probe but the last, priced on
        // the CPU subset exactly like an ordinary CPU-only stream stage.
        let prefix = PipelineEstimate {
            probes: est.probes[..est.probes.len() - 1].to_vec(),
            ..est.clone()
        };
        let mut rates = 0.0f64;
        for &d in cpus {
            let DeviceId::Cpu(s) = d else { continue };
            rates += 1.0 / self.cpu_ns_per_byte(s, &prefix)?;
        }
        let prefix_seconds = est.in_bytes / rates / 1e9;
        let cpu_partition_seconds = t_cpu.as_secs();

        // Single pass over PCIe, pipelined against the in-GPU radix joins
        // (partition-continue + build + probe ≈ 4 device-memory trips),
        // plus the per-co-partition fixed costs amortised over the lanes.
        let pass_bytes = (r_bytes + s_bytes) as f64;
        let transfer = pass_bytes / link_bw;
        let kernel = 4.0 * pass_bytes / gpu_bw;
        let co_partitions = (1u64 << bits) as f64;
        let gpu_pass_seconds =
            transfer.max(kernel) + co_partitions * fixed_seconds / eligible as f64;

        // The final aggregation folds the match pairs CPU-side (the pair
        // indices are tiny against the co-partition traffic; the executed
        // path charges their consumption in the post-join packet loop,
        // which this term mirrors).
        let matches = s_rows * JOIN_MATCH_RATE;
        let per_socket = (workers / n_sockets).max(1);
        let model = CpuCostModel::new(cpu0.clone(), per_socket.min(cpu0.cores));
        let agg_seconds = model.random_accesses(matches as u64, 1 << 16).as_secs()
            / (workers.max(1) as f64 * 0.9);

        let mut devices = cpus.to_vec();
        devices.extend_from_slice(gpus);
        Ok(Some(StageCost {
            devices,
            stream_seconds: prefix_seconds + agg_seconds,
            broadcast_seconds: 0.0,
            d2h_seconds: 0.0,
            ht_bytes: big.ht_bytes,
            gpu_required: per_partition_bytes,
            gpu_capacity: Some(planned_budget),
            coprocess: Some(CoprocessCost {
                ht: big.ht.clone(),
                cpu_partition_seconds,
                gpu_pass_seconds,
                cpu_bits: bits,
                per_partition_bytes,
            }),
        }))
    }

    /// Effective processing cost of one input byte on a CPU socket, in
    /// nanoseconds, all cores active: sequential scan at the socket's
    /// bandwidth, plus the latency-bound hash probes (cache-blend model,
    /// spread over the cores).
    fn cpu_ns_per_byte(
        &self,
        socket: usize,
        est: &PipelineEstimate,
    ) -> Result<f64, EngineError> {
        let spec = self.cpu_spec(socket)?;
        let model = CpuCostModel::new(spec.clone(), spec.cores);
        let cores = spec.cores as f64;
        let mut ns = 1e9 / spec.socket_scan_bw();
        for probe in &est.probes {
            let per_row = PROBE_ACCESSES * model.random_access_ns(probe.ht_bytes)
                + PROBE_OPS / (spec.clock_hz * spec.ipc) * 1e9;
            ns += (probe.rows / est.in_bytes) * per_row / cores;
        }
        if est.stateful_rows > 0.0 {
            // One worker scans sorted user runs; the socket spreads packets
            // across its cores, so aggregate the single-worker time the same
            // way the probe term does.
            let t = hape_ops::stateful::cpu_cost(
                est.stateful_rows as u64,
                est.stateful_users as u64,
                est.stateful_state_bytes as u64,
                est.stateful_ops_per_row,
                &model,
            );
            ns += t.as_ns() / est.in_bytes / cores;
        }
        Ok(ns)
    }

    /// Effective processing cost of one input byte on a GPU: the maximum
    /// of the PCIe transfer and the kernel-side work (transfers pipeline
    /// against kernels), plus per-packet fixed costs (DMA setup, kernel
    /// launch) amortised over the packet.
    fn gpu_ns_per_byte(
        &self,
        gpu: usize,
        est: &PipelineEstimate,
        packet_bytes: f64,
    ) -> Result<f64, EngineError> {
        let (spec, link) = self.gpu_spec(gpu)?;
        let link_ns = 1e9 / link.bw + link.latency * 1e9 / packet_bytes;
        let mut kernel_ns = 1e9 / spec.dram_bw + spec.launch_overhead_ns / packet_bytes;
        for probe in &est.probes {
            kernel_ns += (probe.rows / est.in_bytes)
                * PROBE_ACCESSES
                * spec.random_access_ns(probe.ht_bytes);
        }
        if est.stateful_rows > 0.0 {
            // The per-user dependency chain serialises the warp: every event
            // pays the uncoalesced random-access latency without the usual
            // thousands-of-threads overlap (§2.1) — the paper's random-access
            // term, unamortised.
            kernel_ns += (est.stateful_rows / est.in_bytes)
                * spec.random_access_ns((est.stateful_state_bytes as u64).max(64))
                * hape_ops::stateful::GPU_SEQ_CHAIN_FACTOR;
        }
        Ok(link_ns.max(kernel_ns))
    }

    fn cpu_spec(&self, socket: usize) -> Result<&hape_sim::CpuSpec, EngineError> {
        self.server
            .cpus
            .get(socket)
            .ok_or_else(|| EngineError::DeviceNotPresent { device: format!("cpu{socket}") })
    }

    fn gpu_spec(
        &self,
        gpu: usize,
    ) -> Result<(&hape_sim::GpuSpec, &hape_sim::interconnect::Link), EngineError> {
        self.server
            .gpus
            .get(gpu)
            .zip(self.server.pcie.get(gpu))
            .ok_or_else(|| EngineError::DeviceNotPresent { device: format!("gpu{gpu}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgo;
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_storage::datagen::gen_key_fk_table;

    fn setup() -> (Catalog, Server) {
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 1));
        catalog.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 2));
        (catalog, Server::paper_testbed())
    }

    fn join_pipeline() -> Pipeline {
        Pipeline::scan("fact")
            .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
            .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))]))
    }

    fn dim_estimates(model: &CostModel) -> HtEstimates {
        let est = model.estimate_pipeline(&Pipeline::scan("dim"), &HtEstimates::new()).unwrap();
        let mut hts = HtEstimates::new();
        hts.insert("dim_ht".into(), est.table_estimate());
        hts
    }

    #[test]
    fn scan_statistics_are_exact_and_filters_reduce() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let p = Pipeline::scan("fact").filter(Expr::lt(Expr::col(0), Expr::LitI32(5)));
        let est = model.estimate_pipeline(&p, &HtEstimates::new()).unwrap();
        assert_eq!(est.in_rows, (1 << 18) as f64);
        assert_eq!(est.in_bytes, catalog.expect("fact").bytes() as f64);
        assert_eq!(est.out_rows, est.in_rows * FILTER_SELECTIVITY);
    }

    #[test]
    fn ht_estimate_mirrors_chained_layout() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let est = model.estimate_pipeline(&Pipeline::scan("dim"), &HtEstimates::new()).unwrap();
        let ht = est.table_estimate();
        assert_eq!(ht.rows, (1 << 12) as f64);
        // heads (2^12) + next (2^12) pointers plus the payload batch.
        let chained = ((1u64 << 12) + (1 << 12)) * 4;
        assert_eq!(ht.bytes, chained + catalog.expect("dim").bytes());
    }

    #[test]
    fn unbuilt_probe_is_a_typed_error() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let err = model.estimate_pipeline(&join_pipeline(), &HtEstimates::new()).unwrap_err();
        assert!(matches!(err, EngineError::HashTableNotBuilt { .. }));
    }

    fn estimate(model: &CostModel, p: &Pipeline, hts: &HtEstimates) -> PipelineEstimate {
        model.estimate_pipeline(p, hts).unwrap()
    }

    #[test]
    fn more_devices_stream_faster() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let hts = dim_estimates(&model);
        let est = estimate(&model, &join_pipeline(), &hts);
        let cpu1 = model.stage_cost(&est, &[DeviceId::Cpu(0)], false).unwrap();
        let cpus =
            model.stage_cost(&est, &[DeviceId::Cpu(0), DeviceId::Cpu(1)], false).unwrap();
        let all = model.stage_cost(&est, &server.devices(), false).unwrap();
        assert!(cpus.stream_seconds < cpu1.stream_seconds);
        assert!(all.stream_seconds < cpus.stream_seconds);
    }

    #[test]
    fn gpu_subsets_charge_broadcast_and_capacity() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let hts = dim_estimates(&model);
        let est = estimate(&model, &join_pipeline(), &hts);
        let cpu = model.stage_cost(&est, &[DeviceId::Cpu(0)], false).unwrap();
        assert_eq!(cpu.broadcast_seconds, 0.0);
        assert!(cpu.gpu_capacity.is_none());
        assert!(cpu.fits_gpu_memory());
        let gpu = model.stage_cost(&est, &[DeviceId::Gpu(0)], false).unwrap();
        assert!(gpu.broadcast_seconds > 0.0);
        assert_eq!(gpu.ht_bytes, hts["dim_ht"].bytes);
        assert_eq!(
            gpu.gpu_required,
            (hts["dim_ht"].bytes as f64 * GPU_HT_WORKING_FACTOR) as u64
        );
        assert!(gpu.fits_gpu_memory(), "8 GiB fits a 4K-row table");
    }

    #[test]
    fn duplicate_probes_of_one_table_broadcast_it_once() {
        // Memoised build sides let a pipeline probe the same table at two
        // sites; the broadcast footprint and capacity requirement must
        // count the table once (it lives in device memory once).
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let hts = dim_estimates(&model);
        let twice = Pipeline::scan("fact")
            .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
            .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
            .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))]));
        let est = estimate(&model, &twice, &hts);
        assert_eq!(est.probes.len(), 2, "probe work is charged per site");
        let gpu = model.stage_cost(&est, &[DeviceId::Gpu(0)], false).unwrap();
        assert_eq!(gpu.ht_bytes, hts["dim_ht"].bytes, "broadcast counted once");
        assert_eq!(
            gpu.gpu_required,
            (hts["dim_ht"].bytes as f64 * GPU_HT_WORKING_FACTOR) as u64
        );
    }

    #[test]
    fn capacity_check_fails_on_scaled_down_gpu() {
        let (catalog, _) = setup();
        let server = Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0);
        let model = CostModel::new(&server, &catalog);
        let hts = dim_estimates(&model);
        let est = estimate(&model, &join_pipeline(), &hts);
        let cost = model.stage_cost(&est, &[DeviceId::Gpu(0)], false).unwrap();
        assert!(!cost.fits_gpu_memory(), "{cost:?}");
    }

    #[test]
    fn build_output_on_gpu_pays_the_return_trip() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let est = estimate(&model, &Pipeline::scan("dim"), &HtEstimates::new());
        let on_cpu = model.stage_cost(&est, &[DeviceId::Cpu(0)], true).unwrap();
        let on_gpu = model.stage_cost(&est, &[DeviceId::Gpu(0)], true).unwrap();
        assert_eq!(on_cpu.d2h_seconds, 0.0);
        assert!(on_gpu.d2h_seconds > 0.0);
    }

    #[test]
    fn absent_device_is_typed() {
        let (catalog, server) = setup();
        let model = CostModel::new(&server, &catalog);
        let est = estimate(&model, &Pipeline::scan("dim"), &HtEstimates::new());
        let err = model.stage_cost(&est, &[DeviceId::Gpu(7)], false).unwrap_err();
        assert!(matches!(err, EngineError::DeviceNotPresent { .. }));
    }
}
