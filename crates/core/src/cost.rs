//! The analytic cost model behind [`Placement::Auto`](crate::Placement).
//!
//! The paper's thesis is that placement must follow from the *hardware
//! model*, not from a user-chosen enum: which devices run a pipeline is a
//! function of compute throughput, memory bandwidth, interconnect cost and
//! device memory capacity (§2.1, §6). This module states none of that
//! hardware itself. It estimates what a stage's packets look like and
//! prices one of them with the functions the device providers charge every
//! executed packet with — the same [`CpuCostModel`] formulas, the same GPU
//! kernels on a [`GpuSim`], the same [`Link`] transfers — so the
//! optimizer ([`crate::optimize::optimize`]) and the
//! engine agree about the hardware by construction. What separates an
//! estimate from the run is cardinality: the default selectivities below.
//!
//! ## Cost terms ↔ paper hardware parameters
//!
//! | term | hardware parameter (paper §) | priced by |
//! |---|---|---|
//! | CPU packet: scan + fused filter / project / probe / stateful | per-core share of socket DRAM bandwidth, SIMD issue, cache-blend random access (§2.1, §4.1) | [`cpu_packet_cost`] — what [`CpuWorker::charge`](crate::provider::CpuWorker) charges |
//! | CPU fold of a packet's surviving rows | group-table random accesses (§2.1) | [`hape_ops::cpu::agg_cost`] — what [`CpuWorker::commit_packet`](crate::provider::CpuWorker) charges |
//! | GPU packet: filter / project / probe / stateful / aggregation kernels | GDDR5X bandwidth, L2 vs device-memory lines, scratchpad, the serial per-user chain (§2.1, §4.1) | [`gpu_packet_cost`] — what [`GpuWorker::charge`](crate::provider::GpuWorker) charges |
//! | GPU packet input | PCIe 3 x16 ≈ 12 GB/s plus DMA setup (§2.2) | [`Link::duration`](hape_sim::interconnect::Link::duration) — what [`GpuWorker::commit_packet`](crate::provider::GpuWorker) moves |
//! | stage stream time = the subset's packets spread over its workers, the packet priced once per class of alike devices | load-aware routing over interchangeable device instances: each packet to the worker believed to finish it first, so every worker reached takes one and the slowest bounds the stage (§4.2) | [`route`] replayed on the packets [`ExecConfig::auto_packet_rows`] cuts; prices cached by [`Server::class`] |
//! | broadcast s = `Σ ht bytes / link bw` per GPU | hash-table mem-move over PCIe (§4.2) | [`Link::bw`](hape_sim::interconnect::Link) |
//! | d2h s = a GPU's share of the build output over its link | built tables end up host-resident (§4.2) | [`Link::bw`](hape_sim::interconnect::Link) |
//! | capacity bound = `Σ ht bytes × working factor ≤ DRAM` | GPU device memory, Q9's §6.4 failure | [`PipelineEstimate::gpu_footprint`] (also the verifier's audit and serving's admission), [`GpuSpec::dram_capacity`](hape_sim::GpuSpec) |
//! | co-partition fanout: `2(R+S) >> bits ≤ min(0.9 × DRAM, DRAM − 64 KiB)` | §5 "just small enough to fit in GPU-memory", beside the GPU join's fixed tails buffer | [`hape_join::plan_cpu_bits`], [`hape_join::gpu_budget`] |
//! | co-partition s = `Σ passes partition_pass(n, 8, 2^bits) / workers` | TLB-bounded multi-pass CPU partitioning (§4.1, §5) | [`CpuCostModel::partition_pass`], [`CpuSpec::max_partition_fanout`](hape_sim::CpuSpec::max_partition_fanout) |
//! | co-process single pass s = `max((R+S)/Σ link bw, 4(R+S)/Σ gpu bw)` | each co-partition pair crosses PCIe once, joined at device bandwidth (§5) | [`Link::bw`](hape_sim::interconnect::Link), [`GpuSpec::dram_bw`](hape_sim::GpuSpec) |
//! | co-process prefix and fold | the CPUs' packets up to the co-processed probe; the fused fold of its matches (§5) | [`CostModel::stage_cost`]; [`hape_ops::cpu::agg_cost`] spread as the stage spreads it |
//! | retry delay s = `Σ_{a=1..n} base·2^(a−1) + transfer replay` | transient transfer failure: each attempt pays exponential backoff plus the re-sent packet crossing PCIe, charged to the GPU's sim clock before commit (fault plane, PR 10) | [`RetryPolicy::backoff`](crate::fault::RetryPolicy::backoff), [`Link::bw`](hape_sim::interconnect::Link) |
//! | replan penalty s = `base·2^(replan)` + degraded placement | permanent device loss mid-query: the control plane pays one backoff per re-placement, then runs the remaining stages on the surviving fleet's (slower) plan (fault plane, PR 10) | [`RetryPolicy::backoff`](crate::fault::RetryPolicy::backoff), [`optimize_on`](crate::optimize::optimize_on) |
//!
//! Cardinalities are estimated from the catalog's *actual* table sizes and
//! column types (the scan views lowering pushes down), with classic default
//! selectivities for filters and foreign-key match rates for joins — a
//! probe keeps the share of its table's rows the build kept; the
//! estimated hash-table footprint mirrors what the executor's
//! [`JoinTable`](crate::plan::JoinTable) is priced at (batch payload plus
//! the paper's chained layout, heads and next pointers, counted by
//! [`ProbeTable::bytes`](hape_join::ProbeTable::bytes) whatever layout the
//! host probes). Estimates are deliberately mildly
//! conservative — an over-estimated broadcast footprint refuses a GPU that
//! might have fit, never the reverse, which is the safe direction for the
//! paper's Q9 capacity cliff.

use std::cell::RefCell;
use std::collections::HashMap;

use hape_join::probe::chained_bits;
use hape_ops::gpu as gpu_ops;
use hape_sim::interconnect::Link;
use hape_sim::topology::{DeviceId, Server};
use hape_sim::{CpuCostModel, CpuSpec, Fidelity, GpuSim, GpuSpec, SimTime};
use hape_storage::Column;

use crate::catalog::Catalog;
use crate::engine::{fold_span, ExecConfig};
use crate::error::EngineError;
use crate::exchange::{route, CandidateLoad};
use crate::plan::{PipeOp, Pipeline};
use crate::provider::{
    cpu_packet_cost, gpu_packet_cost, update_estimate, FoldStats, OpTrace, ProbedTable,
    ProbedTables, CPU_WORKER_SEED_NS_PER_BYTE, GPU_HT_WORKING_FACTOR, GPU_PACKET_SHARE,
    GPU_WORKER_SEED_NS_PER_BYTE,
};

/// Default selectivity charged per filter operator (no per-column
/// statistics yet; the classic textbook third-to-half compromise).
pub const FILTER_SELECTIVITY: f64 = 0.4;

/// Default join match rate: TPC-H joins are foreign-key joins, so each
/// probe row is assumed to survive with one match.
pub const JOIN_MATCH_RATE: f64 = 1.0;

/// Estimated bytes per column an operator produces when the walk does not
/// track its type (conservative: the widest column kind) — build payloads;
/// projections and stateful outputs are this wide for real.
pub const EST_COLUMN_BYTES: f64 = 8.0;

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
    /// Estimated share of the scanned rows the build kept: a foreign key
    /// finds its row in the table this often.
    pub kept: f64,
}

impl HtEstimate {
    /// Bucket count of the chained layout over the estimated rows, as
    /// pricing reads it off a built table
    /// ([`chained_bits`]).
    fn heads(&self) -> u64 {
        1 << chained_bits(self.rows as usize)
    }

    /// Estimated chain entries a probe walks: its match plus half the
    /// table's load of colliding entries (dense keys collide less under the
    /// multiplicative hash, scattered ones more).
    fn chain(&self) -> f64 {
        1.0 + self.rows / self.heads() as f64 / 2.0
    }
}

/// Estimated hash-table footprints, by build-stage name — accumulated in
/// stage order as the optimizer walks the plan.
pub type HtEstimates = HashMap<String, HtEstimate>;

impl ProbedTables for HtEstimates {
    fn probed(&self, ht: &str) -> Result<ProbedTable, EngineError> {
        let est = self
            .get(ht)
            .ok_or_else(|| EngineError::HashTableNotBuilt { table: ht.to_string() })?;
        Ok(ProbedTable { bytes: est.bytes, bits: est.heads().trailing_zeros() })
    }
}

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
    /// The walked pipeline, the scan's column widths and the probed
    /// tables: what [`PipelineEstimate::packet`] walks again at packet
    /// scale.
    pipeline: Pipeline,
    widths: Vec<u64>,
    tables: HtEstimates,
    /// Each class of alike devices' ([`Server::class`]) price of a packet
    /// of so many rows, as priced so far: the candidate subsets of a stage
    /// share classes and packet sizes.
    prices: RefCell<Vec<(DeviceId, usize, f64)>>,
}

/// Rows leaving `op` when `rows` enter it: the walk's default
/// selectivities, a probe's scaled by the share of its table's rows the
/// build kept.
fn rows_out(op: &PipeOp, rows: f64, tables: &HtEstimates) -> f64 {
    match op {
        PipeOp::Filter(_) => rows * FILTER_SELECTIVITY,
        PipeOp::Project(_) => rows,
        PipeOp::JoinProbe { ht, .. } => {
            rows * JOIN_MATCH_RATE * tables.get(ht).map_or(1.0, |t| t.kept)
        }
        PipeOp::Stateful(_) => (rows / STATEFUL_EVENTS_PER_USER).max(1.0),
    }
}

/// Column widths leaving `op` when columns of `widths` enter it.
fn widths_out(op: &PipeOp, widths: &[u64]) -> Vec<u64> {
    let est = EST_COLUMN_BYTES as u64;
    match op {
        PipeOp::Filter(_) => widths.to_vec(),
        PipeOp::Project(exprs) => vec![est; exprs.len()],
        PipeOp::JoinProbe { build_payload_cols, .. } => {
            let payload = std::iter::repeat_n(est, build_payload_cols.len());
            widths.iter().copied().chain(payload).collect()
        }
        PipeOp::Stateful(agg) => vec![est; agg.out_width()],
    }
}

/// One estimated packet: the walk at packet scale, as the statistics the
/// providers price an executed packet by.
struct EstPacket {
    /// Input payload bytes.
    bytes: u64,
    /// Per-operator statistics, in pipeline order.
    ops: Vec<OpTrace>,
    /// What reaches the terminal aggregation, when rows do.
    fold: Option<FoldStats>,
}

impl PipelineEstimate {
    /// Estimated [`JoinTable`](crate::plan::JoinTable) footprint of a hash
    /// table built over this pipeline's output: the batch payload plus the
    /// chained layout's heads (next power of two of the row count) and next
    /// pointers, 4 bytes each — what
    /// [`ProbeTable::bytes`](hape_join::ProbeTable::bytes) prices.
    pub fn table_estimate(&self) -> HtEstimate {
        let rows = self.out_rows.max(1.0);
        let chained = ((1 << chained_bits(rows as usize)) + rows as u64) * 4;
        let kept = (self.out_rows / self.in_rows).min(1.0);
        HtEstimate { rows, bytes: chained + self.out_bytes as u64, kept }
    }

    /// The estimated packet of `rows` scanned rows: filters keep uniform
    /// per-block survivors, probes see a foreign key spread evenly over the
    /// estimated table (only GPU kernels read the keys, so only `keyed`
    /// packets carry them), a stateful operator the users *of the packet*.
    /// An operator no row reaches is left out, as
    /// [`run_ops`](crate::provider::run_ops) leaves it out.
    fn packet(&self, rows: usize, keyed: bool) -> EstPacket {
        let sum = |w: &[u64]| w.iter().sum::<u64>();
        let (mut r, mut widths) = (rows as f64, self.widths.clone());
        let mut ops = Vec::with_capacity(self.pipeline.ops.len());
        for op in &self.pipeline.ops {
            let (out, out_widths) = (rows_out(op, r, &self.tables), widths_out(op, &widths));
            let (rows_in, rows_out) = (r.round() as usize, out.round() as usize);
            let bytes_in = rows_in as u64 * sum(&widths);
            let bytes_out = rows_out as u64 * sum(&out_widths);
            let trace = match op {
                PipeOp::Filter(pred) => {
                    let block = gpu_ops::ITEMS_PER_BLOCK;
                    let survivors = (0..rows_in.div_ceil(block))
                        .map(|b| {
                            let n = (rows_in - b * block).min(block);
                            (n as f64 * FILTER_SELECTIVITY).round() as u32
                        })
                        .collect();
                    OpTrace::Filter {
                        rows_in,
                        pred_ops: pred.ops_per_row(),
                        pred_row_bytes: pred.row_bytes(&widths).max(1),
                        out_row_bytes: sum(&widths),
                        survivors,
                        bytes_in,
                        bytes_out,
                    }
                }
                PipeOp::Project(exprs) => OpTrace::Project {
                    rows_in,
                    ops: exprs.iter().map(|e| e.ops_per_row()).sum(),
                    bytes_in,
                    bytes_out,
                },
                PipeOp::JoinProbe { ht, build_payload_cols, algo, .. } => {
                    let table = self.tables[ht];
                    let reaching =
                        self.probes.iter().find(|p| p.ht == *ht).map_or(1.0, |p| p.rows);
                    let step = table.rows / reaching.max(1.0);
                    let keys =
                        (0..rows_in * usize::from(keyed)).map(|i| (i as f64 * step) as i32);
                    OpTrace::Probe {
                        ht: ht.clone(),
                        algo: *algo,
                        rows_in,
                        avg_chain: table.chain(),
                        keys: Column::from_i32(keys.collect()),
                        rows_out,
                        payload_cols: build_payload_cols.len(),
                        bytes_in,
                        bytes_out,
                    }
                }
                PipeOp::Stateful(agg) => {
                    let read = [Some(agg.user_col()), Some(agg.ts_col()), agg.event_col()];
                    OpTrace::Stateful {
                        rows_in,
                        users: rows_out,
                        row_bytes: read.iter().flatten().map(|&c| widths[c]).sum(),
                        state_bytes: rows_out as u64 * agg.state_bytes_per_user(),
                        ops_per_row: agg.ops_per_row(),
                        bytes_in,
                        bytes_out,
                    }
                }
            };
            if rows_in > 0 {
                ops.push(trace);
            }
            (r, widths) = (out, out_widths);
        }
        let folded = r.round() as usize;
        let fold = self.pipeline.agg.as_ref().filter(|_| folded > 0).map(|spec| FoldStats {
            rows: folded,
            row_bytes: gpu_ops::agg_row_bytes(spec, &widths),
            bytes: folded as u64 * sum(&widths),
        });
        EstPacket { bytes: rows as u64 * sum(&self.widths), ops, fold }
    }

    /// What a GPU running the stage receives ahead of it: each distinct
    /// table the pipeline probes, once — as (tables, bytes).
    fn broadcast(&self) -> (usize, u64) {
        (self.tables.len(), self.tables.values().map(|t| t.bytes).sum())
    }

    /// Device memory each GPU running the stage needs: its broadcast with
    /// working space ([`GPU_HT_WORKING_FACTOR`], §6.4) — what the optimizer
    /// prunes a subset by, the verifier audits a placed GPU segment against
    /// and the serving layer admits a manually placed query on.
    pub fn gpu_footprint(&self) -> u64 {
        (self.broadcast().1 as f64 * GPU_HT_WORKING_FACTOR) as u64
    }

    /// The stream up to (not including) its final probe, feeding no
    /// aggregation: what a co-processing stage's CPUs run before the join.
    fn prefix(&self) -> Option<PipelineEstimate> {
        let (pipeline, _, _) = self.pipeline.split_at_last_probe()?;
        let mut prefix = self.clone();
        prefix.prices = RefCell::default();
        prefix.pipeline = pipeline;
        let big = prefix.probes.pop()?;
        if prefix.probes.iter().all(|p| p.ht != big.ht) {
            prefix.tables.remove(&big.ht);
        }
        Some(prefix)
    }
}

/// The workers one device of a candidate subset adds: `workers` identical
/// workers taking `time` seconds of device time per packet, which a GPU
/// receives over its link in `moved` seconds; `seed` is the router's
/// belief of a fresh worker's rate, in ns per byte.
struct Lane {
    workers: usize,
    time: f64,
    moved: f64,
    seed: f64,
}

/// Spread `packets` packets of `bytes` each — the last one `last` of a full
/// one — over `lanes` the way the engine's control plane does: [`route`]
/// sends each packet to the worker it believes finishes it first (a fresh
/// worker at its seed rate, a busy one at the rate its packets calibrated),
/// and a GPU's link moves one packet while its kernels run the one before.
/// Every worker the router reaches takes at least one packet, so the
/// slowest of them bounds the stage. Returns the makespan and the packets
/// each lane took.
fn spread(lanes: &[Lane], packets: usize, bytes: u64, last: f64) -> (f64, Vec<usize>) {
    let mut taken = vec![0usize; lanes.len()];
    // The router's view of each lane's next worker, and when the lane's
    // link and that worker are free.
    let fresh = |l: &Lane| CandidateLoad {
        ready_at: SimTime::from_secs(l.moved),
        est_ns_per_byte: l.seed,
    };
    let mut view: Vec<CandidateLoad> = lanes.iter().map(fresh).collect();
    let mut clocks = vec![(0.0f64, 0.0f64); lanes.len()];
    let (mut left, mut end) = (packets, 0.0f64);
    while left > 0 && !lanes.is_empty() {
        let i = route(bytes, &view);
        let (lane, (link, free)) = (&lanes[i], &mut clocks[i]);
        // The lane's workers are alike: its idle ones take a packet each,
        // at one belief, before any takes a second.
        let n = (lane.workers - taken[i] % lane.workers).min(left);
        (left, taken[i]) = (left - n, taken[i] + n);
        *link += lane.moved;
        let done = free.max(*link) + lane.time;
        let partial = if left == 0 && n == 1 { (1.0 - last) * lane.time } else { 0.0 };
        end = end.max(done - partial);
        if taken[i].is_multiple_of(lane.workers) {
            *free = done;
            let time = SimTime::from_secs(lane.time);
            update_estimate(&mut view[i].est_ns_per_byte, time, bytes.max(1));
        }
        view[i].ready_at = SimTime::from_secs(free.max(*link + lane.moved));
    }
    (end, taken)
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
    /// Estimated streaming makespan: the stage's packets, each priced on
    /// every device of the subset, spread over its workers the way the
    /// router spreads them. For a
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
    /// Workers whose device prices a packet within the estimated stream
    /// time — the optimizer's tie-break between subsets.
    pub capable_workers: usize,
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
#[derive(Debug, Clone)]
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
        let widths: Vec<u64> =
            table.data.columns.iter().map(|c| c.data_type().width() as u64).collect();
        let in_rows = table.rows().max(1) as f64;
        let (mut rows, mut out_widths) = (in_rows, widths.clone());
        let (mut probes, mut tables) = (Vec::new(), HtEstimates::new());
        for op in &pipeline.ops {
            if let PipeOp::JoinProbe { ht, .. } = op {
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
                tables.insert(ht.clone(), est);
            }
            (rows, out_widths) = (rows_out(op, rows, hts), widths_out(op, &out_widths));
        }
        Ok(PipelineEstimate {
            in_rows,
            in_bytes: table.bytes().max(1) as f64,
            out_rows: rows,
            out_bytes: rows * out_widths.iter().sum::<u64>() as f64,
            probes,
            pipeline: pipeline.clone(),
            widths,
            tables,
            prices: RefCell::default(),
        })
    }

    /// Estimate one stage's makespan on a candidate device subset, from a
    /// precomputed cardinality walk (the walk is subset-independent, so
    /// callers enumerating subsets run [`CostModel::estimate_pipeline`]
    /// once per stage).
    ///
    /// The scan splits into packets by the engine's own rule
    /// ([`ExecConfig::auto_packet_rows`]); one estimated packet is priced on
    /// every device of the subset by the functions its provider charges an
    /// executed packet with, and the packets are spread over the subset's
    /// workers the way the router spreads them.
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
        self.stage_cost_below(est, devices, returns_output, f64::INFINITY)
    }

    /// [`CostModel::stage_cost`], except that a subset whose CPUs and GPU
    /// links cannot carry the packets in under `bound` seconds — its GPU
    /// kernels taken as free — is not priced on its GPUs: its stream time
    /// is that floor.
    pub(crate) fn stage_cost_below(
        &self,
        est: &PipelineEstimate,
        devices: &[DeviceId],
        returns_output: bool,
        bound: f64,
    ) -> Result<StageCost, EngineError> {
        // The engine's packet-sizing rule on the scan's row count, which
        // `in_rows` holds exactly.
        let scanned = est.in_rows as usize;
        let packet_rows = ExecConfig::auto_packet_rows(scanned, self.shares(devices)?, None);
        let (rows, packets) = (packet_rows.min(scanned), scanned.div_ceil(packet_rows));
        let last = (scanned - (packets - 1) * packet_rows) as f64 / rows as f64;

        let (tables, broadcast_bytes) = est.broadcast();
        let mut broadcast_seconds = 0.0f64;
        let mut gpu_capacity: Option<u64> = None;
        for &device in devices {
            let DeviceId::Gpu(g) = device else { continue };
            let (spec, link) = gpu_spec(self.server, g)?;
            let capacity = spec.dram_capacity as u64;
            gpu_capacity = Some(gpu_capacity.map_or(capacity, |c| c.min(capacity)));
            // Dedicated links broadcast in parallel: the slowest GPU's copy
            // bounds the setup time.
            let t = broadcast_bytes as f64 / link.bw + tables as f64 * link.latency;
            broadcast_seconds = broadcast_seconds.max(t);
        }
        let mut cost = StageCost {
            devices: devices.to_vec(),
            stream_seconds: f64::INFINITY,
            broadcast_seconds,
            d2h_seconds: 0.0,
            ht_bytes: broadcast_bytes,
            gpu_required: est.gpu_footprint(),
            gpu_capacity,
            coprocess: None,
            capable_workers: 0,
        };
        // A subset whose GPUs cannot hold the tables cannot run the stage:
        // its packets are not priced.
        if !cost.fits_gpu_memory() {
            return Ok(cost);
        }
        // Each device's workers; a GPU's packets cross its link, pipelined
        // against its kernels.
        let bytes = rows as u64 * est.widths.iter().sum::<u64>();
        let mut lanes = Vec::with_capacity(devices.len());
        for &device in devices {
            lanes.push(match device {
                DeviceId::Cpu(s) => {
                    let workers = cpu_spec(self.server, s)?.cores.max(1);
                    Lane { workers, time: 0.0, moved: 0.0, seed: CPU_WORKER_SEED_NS_PER_BYTE }
                }
                DeviceId::Gpu(g) => {
                    let moved = gpu_spec(self.server, g)?.1.duration(bytes.max(1)).as_secs();
                    Lane { workers: 1, time: 0.0, moved, seed: GPU_WORKER_SEED_NS_PER_BYTE }
                }
            });
        }
        // The estimated packet at this subset's size, priced on each
        // device: the CPUs first, which bound the stage with the GPUs'
        // links (a worker finishes a packet per period at most).
        for (lane, &device) in lanes.iter_mut().zip(devices).filter(|(_, d)| !d.is_gpu()) {
            lane.time = self.price(est, device, rows)?;
        }
        let rate: f64 = lanes.iter().map(|l| l.workers as f64 / l.time.max(l.moved)).sum();
        let floor = (packets - 1) as f64 / rate;
        if floor >= bound {
            cost.stream_seconds = floor;
            return Ok(cost);
        }
        for (lane, &device) in lanes.iter_mut().zip(devices).filter(|(_, d)| d.is_gpu()) {
            lane.time = self.price(est, device, rows)?;
        }
        let (stream_seconds, taken) = spread(&lanes, packets, bytes, last);
        cost.stream_seconds = stream_seconds;
        let capable = lanes.iter().filter(|l| l.time <= stream_seconds);
        cost.capable_workers = capable.map(|l| l.workers).sum();
        // A GPU-built table's output rides its link back to the host: each
        // GPU returns the share of the packets it took.
        if returns_output {
            for (&device, &n) in devices.iter().zip(&taken) {
                let DeviceId::Gpu(g) = device else { continue };
                let (_, link) = gpu_spec(self.server, g)?;
                let share = est.out_bytes * n as f64 / packets as f64;
                cost.d2h_seconds = cost.d2h_seconds.max(share / link.bw + link.latency);
            }
        }
        Ok(cost)
    }

    /// The estimated packet of `rows` scanned rows
    /// ([`PipelineEstimate::packet`]) priced on `device` by the functions
    /// its provider charges an executed packet with, in seconds.
    fn price(
        &self,
        est: &PipelineEstimate,
        device: DeviceId,
        rows: usize,
    ) -> Result<f64, EngineError> {
        let class = self.server.class(device);
        let priced =
            est.prices.borrow().iter().find(|p| (p.0, p.1) == (class, rows)).map(|p| p.2);
        if let Some(t) = priced {
            return Ok(t);
        }
        let packet = est.packet(rows, device.is_gpu());
        let fold = est.pipeline.agg.as_ref().zip(packet.fold);
        let t = match device {
            DeviceId::Cpu(s) => {
                let spec = cpu_spec(self.server, s)?;
                let model = CpuCostModel::new(spec.clone(), spec.cores);
                let mut t = cpu_packet_cost(&model, packet.bytes, &packet.ops, &est.tables)?;
                if let Some((agg, f)) = fold {
                    t += hape_ops::cpu::agg_cost(agg, f.rows as u64, 1, &model);
                }
                t
            }
            DeviceId::Gpu(g) => {
                let sim = GpuSim::new(gpu_spec(self.server, g)?.0.clone(), Fidelity::Analytic);
                let (bytes, ops, none) = (packet.bytes, &packet.ops, &HashMap::new());
                gpu_packet_cost(&sim, bytes, ops, fold, &est.tables, none)?
            }
        };
        est.prices.borrow_mut().push((class, rows, t.as_secs()));
        Ok(t.as_secs())
    }

    /// Packet shares `devices` request from the engine's packet sizer — a
    /// CPU's cores.
    fn shares(&self, devices: &[DeviceId]) -> Result<usize, EngineError> {
        devices
            .iter()
            .map(|d| match d {
                DeviceId::Cpu(s) => cpu_spec(self.server, *s).map(|c| c.cores),
                DeviceId::Gpu(_) => Ok(GPU_PACKET_SHARE),
            })
            .sum()
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
        let (Some(big), Some(prefix)) = (est.probes.last(), est.prefix()) else {
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
            let (spec, link) = gpu_spec(self.server, g)?;
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
        let (cpu0, workers) = (cpu_spec(self.server, first_socket)?, self.shares(cpus)?);
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

        // CPU prefix: the stream's packets up to the co-processed probe,
        // priced on the CPU subset like any stage's.
        let prefix_seconds = self.stage_cost(&prefix, cpus, false)?.stream_seconds;
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

        // The fused fold of the match pairs, charged and spread over the
        // CPU workers the way the stage runs it.
        let model = CpuCostModel::new(cpu0.clone(), cpu0.cores);
        let matches = (s_rows * JOIN_MATCH_RATE) as u64;
        let fold_seconds = est.pipeline.agg.as_ref().map_or(0.0, |spec| {
            fold_span(hape_ops::cpu::agg_cost(spec, matches, 1, &model), workers).as_secs()
        });

        let mut devices = cpus.to_vec();
        devices.extend_from_slice(gpus);
        Ok(Some(StageCost {
            devices,
            stream_seconds: prefix_seconds + fold_seconds,
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
            capable_workers: 0,
        }))
    }
}

/// CPU socket `socket`'s spec on `server`, or
/// [`EngineError::DeviceNotPresent`].
pub(crate) fn cpu_spec(server: &Server, socket: usize) -> Result<&CpuSpec, EngineError> {
    let absent = || EngineError::DeviceNotPresent { device: format!("cpu{socket}") };
    server.cpus.get(socket).ok_or_else(absent)
}

/// GPU `gpu`'s spec and PCIe link on `server`, or
/// [`EngineError::DeviceNotPresent`].
pub(crate) fn gpu_spec(server: &Server, gpu: usize) -> Result<(&GpuSpec, &Link), EngineError> {
    let absent = || EngineError::DeviceNotPresent { device: format!("gpu{gpu}") };
    server.gpus.get(gpu).zip(server.pcie.get(gpu)).ok_or_else(absent)
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
    fn estimate_is_the_engines_makespan_when_the_walk_knows_every_cardinality() {
        // scan → ungrouped aggregate guesses no selectivity: all that is
        // left between the estimate and the run is the hardware, which the
        // cost model and the engine price with the same functions.
        use crate::engine::{Engine, Placement};
        use crate::place::place_on;
        use crate::plan::{QueryPlan, Stage};
        let (catalog, server) = setup();
        let pipeline = Pipeline::scan("fact").aggregate(AggSpec::ungrouped(vec![
            (AggFunc::Count, Expr::col(0)),
            (AggFunc::Sum, Expr::col(1)),
        ]));
        let stages = vec![Stage::Stream { pipeline: pipeline.clone() }];
        let plan = QueryPlan::try_new("scan", stages).unwrap();
        let model = CostModel::new(&server, &catalog);
        let est = estimate(&model, &pipeline, &HtEstimates::new());
        let (engine, cfg) = (Engine::new(server.clone()), ExecConfig::new(Placement::Hybrid));
        let (cpu, gpu) = ([0, 1].map(DeviceId::Cpu), [0, 1].map(DeviceId::Gpu));
        for devices in [&cpu[..1], &cpu[..], &gpu[..1], &gpu[..]] {
            let estimate = model.stage_cost(&est, devices, false).unwrap().total_seconds();
            let placed = place_on(&plan, &cfg, &server, &[devices.to_vec()]).unwrap();
            let actual = engine.run_placed(&catalog, &placed).unwrap().time.as_secs();
            let ratio = estimate / actual;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{devices:?}: {estimate} s est, {actual} s run"
            );
        }
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
