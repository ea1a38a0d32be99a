//! Device providers — the per-device code-generation back-ends (§4.2).
//!
//! A provider "compiles" a pipeline for its device: it runs a packet through
//! all fused operators in one pass, charging device-appropriate costs. The
//! CPU provider charges the analytic Xeon model; the GPU provider executes
//! the operators as kernels on the simulator (fused: one launch per packet
//! per pipeline, not per operator — the HorseQC/MapD argument of §2.2).
//!
//! Providers are what make relational operators device-*portable*: the same
//! [`Pipeline`] runs on either device type, and the device-crossing operator
//! merely swaps the provider. The [`DeviceProvider`] trait is that swap
//! point made explicit: the engine interprets a
//! [`crate::place::PlacedPlan`] over `dyn DeviceProvider` workers — one
//! [`CpuWorker`] per core, one [`GpuWorker`] per GPU — and never branches
//! on a placement enum. New device classes implement the trait and slot
//! into the same interpreter.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hape_ops::agg::{group_ids, AggState, GroupIds};
use hape_ops::{cpu as cpu_ops, gpu as gpu_ops, stateful, AggSpec, GroupKey};
use hape_sim::des::Resource;
use hape_sim::interconnect::Link;
use hape_sim::{CpuCostModel, Fidelity, GpuSim, GpuSpec, KernelReport, Region, SimTime};
use hape_storage::{Batch, Column};

use crate::error::EngineError;
use crate::exchange::WorkerId;
use crate::plan::{JoinAlgo, JoinTable, PipeOp, Pipeline};

/// The built hash tables visible to probes.
pub type TableStore = HashMap<String, Arc<JoinTable>>;

/// Working space multiplier for GPU-resident hash tables (buffer
/// management, as the paper notes when sizing Q9, §6.4). Calibrated so
/// Q9's broadcast tables exceed the SF-scaled GPU memory even with the
/// front-end's minimal pushed-down projections, reproducing the paper's
/// GPU-only failure mode.
pub const GPU_HT_WORKING_FACTOR: f64 = 2.5;

/// Seed for a CPU worker's calibrated ns-per-byte processing estimate (the
/// router tie-breaker before the first packet lands): roughly one core's
/// share of socket bandwidth on the paper's Xeon. Only the router's
/// beliefs read it — the cost model's replay of them included; packets are
/// priced from the socket spec.
pub const CPU_WORKER_SEED_NS_PER_BYTE: f64 = 0.25;

/// Seed for a GPU worker's calibrated ns-per-byte estimate: PCIe-bound
/// streaming on a x16 link (~12 GB/s ≈ 0.08 ns/B) plus kernel overheads.
pub const GPU_WORKER_SEED_NS_PER_BYTE: f64 = 0.12;

/// Packet shares a GPU worker requests from the packet sizer: GPUs pipeline
/// PCIe transfers against kernels, so they run deeper queues than a core.
pub const GPU_PACKET_SHARE: usize = 4;

/// What a [`DeviceProvider`] reports after the control plane commits one
/// routed packet against its clocks.
#[derive(Debug, Clone, Copy)]
pub struct CommitOutcome {
    /// When the worker finishes the packet (input transfer + device time +
    /// any device-to-host return of build output).
    pub done: SimTime,
    /// Bytes the packet moved host-to-device to reach the worker.
    pub h2d_bytes: u64,
}

/// Reusable per-thread scratch buffers for the data plane's functional
/// kernels: selection vectors for filters and join match indices. One
/// lives on each pool thread and is cleared (not freed) between packets,
/// killing the per-packet allocation churn on the probe path.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Surviving-row / probe-side match indices.
    pub sel: Vec<u32>,
    /// Build-side match indices.
    pub build_sel: Vec<u32>,
}

impl Scratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Per-operator record of the canonical functional pass ([`run_ops`]):
/// the statistics each device class's cost model needs to price the
/// operator *without re-running it* — the engine's two device providers,
/// and the `hape-baselines` stand-ins, whose materialising execution
/// models price the payload bytes entering and leaving every operator.
/// Column references are Arc-backed views — recording a trace copies no
/// data.
#[derive(Debug, Clone)]
pub enum OpTrace {
    /// A fused filter.
    Filter {
        /// Rows entering the filter.
        rows_in: usize,
        /// Predicate operations per row.
        pred_ops: f64,
        /// Bytes per row the predicate touches.
        pred_row_bytes: u64,
        /// Bytes per surviving row (all columns).
        out_row_bytes: u64,
        /// Survivor count per GPU thread block (see
        /// [`hape_ops::gpu::block_survivors`]).
        survivors: Vec<u32>,
        /// Batch payload bytes entering the filter.
        bytes_in: u64,
        /// Payload bytes of the surviving rows.
        bytes_out: u64,
    },
    /// A fused projection.
    Project {
        /// Rows entering the projection.
        rows_in: usize,
        /// Total expression operations per row.
        ops: f64,
        /// Batch payload bytes at this operator.
        bytes_in: u64,
        /// Payload bytes of the projected columns.
        bytes_out: u64,
    },
    /// A fused hash-join probe.
    Probe {
        /// The probed table.
        ht: String,
        /// Probe algorithm.
        algo: JoinAlgo,
        /// Rows entering the probe.
        rows_in: usize,
        /// Measured average chain length.
        avg_chain: f64,
        /// The probe-key column (zero-copy view).
        keys: Column,
        /// Match rows produced.
        rows_out: usize,
        /// Build payload columns gathered per match.
        payload_cols: usize,
        /// Batch payload bytes entering the probe.
        bytes_in: u64,
        /// Payload bytes of the joined batch.
        bytes_out: u64,
    },
    /// A fused stateful per-user aggregate ([`hape_ops::stateful`]).
    Stateful {
        /// Rows entering the state machines.
        rows_in: usize,
        /// Distinct users (= output rows) in the packet.
        users: usize,
        /// Bytes per input row the operator touches (user + ts + event).
        row_bytes: u64,
        /// Per-user state footprint times the packet's user count — the
        /// working set the random-access terms price against.
        state_bytes: u64,
        /// State-machine operations per input row.
        ops_per_row: f64,
        /// Batch payload bytes entering the state machines.
        bytes_in: u64,
        /// Payload bytes of the per-user output rows.
        bytes_out: u64,
    },
}

impl OpTrace {
    /// The tracing plane's rows-in / rows-out counter names for the
    /// operator kind.
    pub fn row_counters(&self) -> [&'static str; 2] {
        match self {
            OpTrace::Filter { .. } => ["rows.filter.in", "rows.filter.out"],
            OpTrace::Project { .. } => ["rows.project.in", "rows.project.out"],
            OpTrace::Probe { .. } => ["rows.probe.in", "rows.probe.out"],
            OpTrace::Stateful { .. } => ["rows.stateful.in", "rows.stateful.out"],
        }
    }

    /// Rows entering the operator.
    pub fn rows_in(&self) -> u64 {
        match self {
            OpTrace::Filter { rows_in, .. }
            | OpTrace::Project { rows_in, .. }
            | OpTrace::Probe { rows_in, .. }
            | OpTrace::Stateful { rows_in, .. } => *rows_in as u64,
        }
    }

    /// Payload bytes entering the operator.
    pub fn bytes_in(&self) -> u64 {
        match self {
            OpTrace::Filter { bytes_in, .. }
            | OpTrace::Project { bytes_in, .. }
            | OpTrace::Probe { bytes_in, .. }
            | OpTrace::Stateful { bytes_in, .. } => *bytes_in,
        }
    }

    /// Payload bytes leaving the operator.
    pub fn bytes_out(&self) -> u64 {
        match self {
            OpTrace::Filter { bytes_out, .. }
            | OpTrace::Project { bytes_out, .. }
            | OpTrace::Probe { bytes_out, .. }
            | OpTrace::Stateful { bytes_out, .. } => *bytes_out,
        }
    }

    /// Rows leaving the operator: filter survivors, probe matches,
    /// stateful per-user outputs; projections preserve cardinality.
    pub fn rows_out(&self) -> u64 {
        match self {
            OpTrace::Filter { survivors, .. } => survivors.iter().map(|&s| s as u64).sum(),
            OpTrace::Project { rows_in, .. } => *rows_in as u64,
            OpTrace::Probe { rows_out, .. } => *rows_out as u64,
            OpTrace::Stateful { users, .. } => *users as u64,
        }
    }

    /// The operator's cost as one *fused* CPU operator under `model` — the
    /// term [`CpuWorker`] charges per operator, and the one the DBMS C
    /// stand-in surrounds with its vector materialisation charges.
    pub fn cpu_cost(
        &self,
        model: &CpuCostModel,
        tables: &impl ProbedTables,
    ) -> Result<SimTime, EngineError> {
        let rows = self.rows_in();
        Ok(match self {
            OpTrace::Filter { pred_ops, .. } => cpu_ops::filter_cost(rows, *pred_ops, model),
            OpTrace::Project { ops, .. } => cpu_ops::project_cost(rows, *ops, model),
            // Fused probe: random table accesses only — the gathered
            // payloads ride in registers to the next operator.
            OpTrace::Probe { ht, avg_chain, .. } => {
                model.ht_probe(rows, *avg_chain, tables.probed(ht)?.bytes)
            }
            OpTrace::Stateful { users, state_bytes, ops_per_row, .. } => {
                stateful::cpu_cost(rows, *users as u64, *state_bytes, *ops_per_row, model)
            }
        })
    }
}

/// What a probe's price reads of the table it probes: the footprint (its
/// working set) and the chained table's bucket bits.
#[derive(Debug, Clone, Copy)]
pub struct ProbedTable {
    /// Footprint: chained table plus build rows.
    pub bytes: u64,
    /// log2 of the bucket count.
    pub bits: u32,
}

/// The hash tables a packet's probes are priced against, by name: the
/// engine's built tables, or the optimizer's estimates of them
/// ([`crate::cost::HtEstimates`]) — one set of charge functions prices
/// both.
pub trait ProbedTables {
    /// Table `ht`'s statistics, or the typed
    /// [`EngineError::HashTableNotBuilt`].
    fn probed(&self, ht: &str) -> Result<ProbedTable, EngineError>;
}

impl ProbedTables for TableStore {
    fn probed(&self, ht: &str) -> Result<ProbedTable, EngineError> {
        let jt = lookup_ht(self, ht)?;
        Ok(ProbedTable { bytes: jt.bytes(), bits: jt.bits() })
    }
}

/// What the GPU aggregation kernel reads of the rows a packet folds.
#[derive(Debug, Clone, Copy)]
pub struct FoldStats {
    /// Rows reaching the aggregation.
    pub rows: usize,
    /// Bytes per row the aggregation reads ([`gpu_ops::agg_row_bytes`]).
    pub row_bytes: u64,
    /// Payload bytes of the rows (the kernel's input region).
    pub bytes: u64,
}

/// A packet's price on one CPU core under `model`: the source scan of its
/// `bytes` plus every fused operator of `ops` — what [`CpuWorker::charge`]
/// charges. The terminal aggregation is the commit's
/// ([`hape_ops::cpu::agg_cost`]): its price depends on the routed worker's
/// group count.
pub fn cpu_packet_cost(
    model: &CpuCostModel,
    bytes: u64,
    ops: &[OpTrace],
    tables: &impl ProbedTables,
) -> Result<SimTime, EngineError> {
    let mut time = cpu_ops::scan_cost(bytes, model);
    for op in ops {
        time += op.cpu_cost(model, tables)?;
    }
    Ok(time)
}

/// A packet's price as GPU kernels on `sim`: every fused operator of `ops`
/// over an input of `bytes`, probes against the device-memory `regions`
/// the broadcast assigned (a table without one is priced at a default
/// residence), and the terminal aggregation `fold` when it has rows —
/// what [`GpuWorker::charge`] charges. Transfers are the commit's.
pub fn gpu_packet_cost(
    sim: &GpuSim,
    bytes: u64,
    ops: &[OpTrace],
    fold: Option<(&AggSpec, FoldStats)>,
    tables: &impl ProbedTables,
    regions: &HashMap<String, Region>,
) -> Result<SimTime, EngineError> {
    let mut time = SimTime::ZERO;
    let in_region = Region::at(1 << 24, bytes.max(1));
    for op in ops {
        match op {
            OpTrace::Filter {
                rows_in,
                pred_ops,
                pred_row_bytes,
                out_row_bytes,
                survivors,
                ..
            } => {
                time += gpu_ops::filter_cost(
                    sim,
                    in_region,
                    *rows_in,
                    *pred_row_bytes,
                    *out_row_bytes,
                    *pred_ops,
                    survivors,
                )
                .time;
            }
            OpTrace::Project { ops, bytes_in, .. } => {
                // Fused projection: stream + compute, outputs stay in
                // registers for the next fused operator.
                time += gpu_ops::stream_pass(sim, in_region, *bytes_in, *ops);
            }
            OpTrace::Probe { ht, algo, avg_chain, keys, rows_out, payload_cols, .. } => {
                let table = tables.probed(ht)?;
                let region = regions
                    .get(ht)
                    .copied()
                    .unwrap_or_else(|| Region::at(1 << 44, table.bytes.max(1)));
                if !keys.is_empty() {
                    let keys = keys.as_i32();
                    time +=
                        gpu_probe_cost(sim, keys, table.bits, region, *avg_chain, *algo).time;
                }
                time += SimTime::from_ns((*rows_out * *payload_cols) as f64 * 0.05);
            }
            OpTrace::Stateful { rows_in, row_bytes, state_bytes, ops_per_row, .. } => {
                time += stateful::gpu_cost(
                    sim,
                    in_region,
                    *rows_in,
                    *row_bytes,
                    *state_bytes,
                    *ops_per_row,
                );
            }
        }
    }
    if let Some((spec, f)) = fold {
        let region = Region::at(1 << 24, f.bytes.max(1));
        time += gpu_ops::agg_cost(sim, region, f.rows, f.row_bytes, spec).time;
    }
    Ok(time)
}

/// The GPU join-probe kernel: `keys` against a device-resident chained
/// table of `2^bits` buckets at `region`, walking `avg_chain` entries per
/// key. Callers skip a packet without keys: it launches nothing.
fn gpu_probe_cost(
    sim: &GpuSim,
    keys: &[i32],
    bits: u32,
    region: Region,
    avg_chain: f64,
    algo: JoinAlgo,
) -> KernelReport {
    let n = keys.len();
    let cfg = gpu_ops::grid_for(n);
    match algo {
        JoinAlgo::NonPartitioned => sim.launch(&cfg, |blk| {
            let start = blk.block_idx * gpu_ops::ITEMS_PER_BLOCK;
            let end = (start + gpu_ops::ITEMS_PER_BLOCK).min(n);
            if start >= end {
                return;
            }
            let cn = (end - start) as u64;
            blk.global_read_stream(&region, 0, cn * 8);
            blk.compute(cn, 6.0);
            // Random head + chain loads through L1/L2 — each drags a
            // whole line for 8 bytes of use.
            let offs: Vec<u64> = keys[start..end]
                .iter()
                .map(|&k| hape_join::hash32(k, bits) as u64 * 4)
                .collect();
            blk.global_read(&region, &offs, 4);
            let chain_loads = (cn as f64 * avg_chain).ceil() as usize;
            let chain_offs: Vec<u64> = (keys[start..end].iter().cycle().zip(0..chain_loads))
                .map(|(&k, _)| {
                    (hape_join::hash32(k, bits.max(4)) as u64).wrapping_mul(2654435761)
                        % region.bytes.max(128)
                })
                .collect();
            blk.global_read(&region, &chain_offs, 12);
        }),
        JoinAlgo::Partitioned => sim.launch(&cfg, |blk| {
            let start = blk.block_idx * gpu_ops::ITEMS_PER_BLOCK;
            let end = (start + gpu_ops::ITEMS_PER_BLOCK).min(n);
            if start >= end {
                return;
            }
            let cn = (end - start) as u64;
            // Partition the probe packet (read + consolidated write +
            // read back), then probe scratchpad-resident tables.
            blk.global_read_stream(&region, 0, cn * 8);
            blk.global_write_stream(cn * 8);
            blk.global_read_stream(&region, 0, cn * 8);
            blk.compute(cn, 9.0);
            let words: Vec<u32> =
                keys[start..end].iter().map(|&k| hape_join::hash32(k, 12)).collect();
            blk.smem_access(&words);
            let extra = ((cn as f64) * (avg_chain - 1.0).max(0.0)) as usize;
            let extra_words: Vec<u32> =
                words[..extra.min(words.len())].iter().map(|&w| w + 1).collect();
            blk.smem_access(&extra_words);
        }),
    }
}

/// Everything one packet's trip through the fused operator chain produced:
/// the functional result plus the per-operator cost statistics. Computed
/// once per packet on the data plane ([`run_ops`]), priced once per class
/// of alike devices ([`DeviceProvider::charge`]), and committed against
/// the routed worker's clocks by the control plane
/// ([`DeviceProvider::commit_packet`]).
#[derive(Debug, Clone)]
pub struct PacketWork {
    /// Input packet payload bytes.
    pub bytes: u64,
    /// Per-operator cost statistics, in pipeline order (truncated at the
    /// first operator that saw zero rows).
    pub ops: Vec<OpTrace>,
    /// Rows leaving the operator chain: the build output, or the rows the
    /// terminal aggregation folds. A folding pipeline's `out` may carry a
    /// selection ([`Batch::selection`]); only the fold (the engine's
    /// [`SlotFold::fold_numbered`], [`DeviceProvider::fold_packet`]),
    /// [`Batch::rows`] and [`Batch::bytes`] read it. A build output never
    /// carries one.
    ///
    /// [`SlotFold::fold_numbered`]: hape_ops::agg::SlotFold::fold_numbered
    pub out: Batch,
    /// True when the pipeline ends in an aggregation (`out` feeds the
    /// stage's fold instead of the stage output).
    pub folds: bool,
    /// The group ids of `out` under the pipeline's aggregation, when
    /// `folds` and rows survived: pricing reads their `keys` (the routed
    /// worker's group-count mirror among them), and the packet's fold
    /// ([`SlotFold::fold_numbered`], on the pool thread that ran its
    /// kernels) their `ids`.
    ///
    /// [`SlotFold::fold_numbered`]: hape_ops::agg::SlotFold::fold_numbered
    pub groups: Option<GroupIds>,
}

/// The canonical functional pass: push one packet through the fused
/// operator chain exactly once, recording per-operator statistics rich
/// enough for *every* device class's cost model to replay its charge
/// bit-exactly (the CPU model from row counts and chain lengths, the GPU
/// simulator from per-block survivor counts and the key column itself).
///
/// Functional results are device-independent — this is the same
/// heterogeneity-oblivious operator semantics both providers always
/// shared — so the engine runs kernels once per packet on the data plane
/// regardless of how many device classes participate in the stage. It is
/// the only code in the workspace that executes a [`PipeOp`]: the
/// `hape-baselines` stand-ins (DBMS C, DBMS G) call it too, on their own
/// packet sizes, and price the recorded [`OpTrace`]s with their own
/// execution models (CI greps that no second interpreter reappears there).
///
/// A filter gathers nothing: it leaves a selection on the batch
/// ([`hape_ops::expr::select`]), and a filter after it refines that
/// selection. `Project`, `JoinProbe` and `Stateful` compact the batch
/// first ([`Batch::compact`], the one gather of a filter's survivors), and
/// so does a pipeline that does not fold, before its output leaves; a
/// folding pipeline hands the selection to the fold. The recorded statistics
/// describe the simulated device, which materialises every operator's
/// output either way: `rows()` and `bytes()` of a selected batch equal its
/// compaction's, so no [`OpTrace`] field and no charge depends on it.
///
/// A folding packet's groups are numbered here, once
/// ([`PacketWork::groups`]): its pricing and its fold both read them.
pub fn run_ops(
    packet: Batch,
    pipeline: &Pipeline,
    tables: &TableStore,
    scratch: &mut Scratch,
) -> Result<PacketWork, EngineError> {
    let bytes = packet.bytes();
    let mut ops_trace = Vec::with_capacity(pipeline.ops.len());
    let mut cur = packet;
    for op in &pipeline.ops {
        let (rows_in, bytes_in) = (cur.rows(), cur.bytes());
        match op {
            PipeOp::Filter(pred) => {
                let widths = widths(&cur);
                let pred_row_bytes = pred.row_bytes(&widths).max(1);
                let out_row_bytes = widths.iter().sum();
                scratch.sel.clear();
                hape_ops::expr::select(pred, &cur, &mut scratch.sel);
                // Survivors are counted per block of the filter's input rows:
                // a refined selection counts them by their rank in the one it
                // refines.
                let survivors = match cur.selection() {
                    None => gpu_ops::block_survivors(&scratch.sel, rows_in),
                    Some(prev) => gpu_ops::block_survivors(&ranks(prev, &scratch.sel), rows_in),
                };
                // A filter every row passes leaves the batch as it is.
                if scratch.sel.len() < rows_in {
                    cur = cur.with_selection(scratch.sel.as_slice().into());
                }
                ops_trace.push(OpTrace::Filter {
                    rows_in,
                    pred_ops: pred.ops_per_row(),
                    pred_row_bytes,
                    out_row_bytes,
                    survivors,
                    bytes_in,
                    bytes_out: cur.bytes(),
                });
            }
            PipeOp::Project(exprs) => {
                cur = cur.compact();
                let ops: f64 = exprs.iter().map(|e| e.ops_per_row()).sum();
                let cols = exprs.iter().map(|e| cpu_ops::project_column(e, &cur)).collect();
                cur = Batch::new(cols);
                let bytes_out = cur.bytes();
                ops_trace.push(OpTrace::Project { rows_in, ops, bytes_in, bytes_out });
            }
            PipeOp::JoinProbe { ht, key_col, build_payload_cols, algo } => {
                cur = cur.compact();
                let jt = lookup_ht(tables, ht)?;
                let keys = cur.col(*key_col).clone();
                let (out, avg_chain) =
                    probe_join_with(&cur, jt, *key_col, build_payload_cols, scratch);
                ops_trace.push(OpTrace::Probe {
                    ht: ht.clone(),
                    algo: *algo,
                    rows_in,
                    avg_chain,
                    keys,
                    rows_out: out.rows(),
                    payload_cols: build_payload_cols.len(),
                    bytes_in,
                    bytes_out: out.bytes(),
                });
                cur = out;
            }
            PipeOp::Stateful(agg) => {
                cur = cur.compact();
                let mut row_bytes = cur.col(agg.user_col()).data_type().width() as u64
                    + cur.col(agg.ts_col()).data_type().width() as u64;
                if let Some(ev) = agg.event_col() {
                    row_bytes += cur.col(ev).data_type().width() as u64;
                }
                let (out, users) = stateful::run_stateful(agg, &cur);
                ops_trace.push(OpTrace::Stateful {
                    rows_in,
                    users,
                    row_bytes,
                    state_bytes: users as u64 * agg.state_bytes_per_user(),
                    ops_per_row: agg.ops_per_row(),
                    bytes_in,
                    bytes_out: out.bytes(),
                });
                cur = out;
            }
        }
        // An empty batch still takes every operator's shape — an empty
        // build side keeps its pipeline's columns — but leaves nothing to
        // price.
        if rows_in == 0 {
            ops_trace.pop();
        }
    }
    // Only a fold reads a selection; any other consumer gets the rows.
    let folds = pipeline.agg.is_some();
    if !folds {
        cur = cur.compact();
    }
    let groups = match &pipeline.agg {
        Some(spec) if cur.rows() > 0 => Some(group_ids(spec, &cur)),
        _ => None,
    };
    Ok(PacketWork { bytes, ops: ops_trace, out: cur, folds, groups })
}

/// Bytes per value of each of `batch`'s columns.
fn widths(batch: &Batch) -> Vec<u64> {
    batch.columns.iter().map(|c| c.data_type().width() as u64).collect()
}

/// The rank of each row of `sub` in `rows` (both ascending, `sub` ⊆ `rows`).
fn ranks(rows: &[u32], sub: &[u32]) -> Vec<u32> {
    let mut at = 0;
    sub.iter()
        .map(|&r| {
            at += rows[at..].iter().take_while(|&&x| x < r).count();
            at as u32
        })
        .collect()
}

/// A placed worker instance: one router consumer executing packets of a
/// compiled pipeline on a concrete device.
///
/// The trait unifies everything the engine's two planes need. The **data
/// plane** calls the `&self` methods from pool threads: [`charge`] prices
/// a packet's recorded statistics on this worker's device, and the
/// canonical kernels run through the free [`run_ops`]. The **control
/// plane** calls the `&mut self` methods sequentially on the coordinator:
/// [`install_tables`] executes the broadcast mem-moves and
/// [`commit_packet`] advances the worker's simulated clocks for a routed
/// packet. A worker prices the fold of the packets routed to it; it does
/// not fold them: the engine folds every packet into a partial of its own
/// on the data plane ([`SlotFold`]), whichever worker the router picks.
/// The interpreter holds `Box<dyn DeviceProvider>` workers and treats CPU
/// cores and GPUs identically.
///
/// [`charge`]: DeviceProvider::charge
/// [`install_tables`]: DeviceProvider::install_tables
/// [`commit_packet`]: DeviceProvider::commit_packet
/// [`SlotFold`]: hape_ops::agg::SlotFold
pub trait DeviceProvider: Send + Sync {
    /// This worker's identity.
    fn id(&self) -> WorkerId;

    /// Relative packet-sizing weight: how many packet shares this worker
    /// wants in flight (GPUs pipeline transfers against kernels, so they
    /// run deeper queues).
    fn packet_share(&self) -> usize {
        1
    }

    /// Earliest time this worker could *start* a packet of `bytes` that
    /// becomes ready at `start`, including any input mem-move on the
    /// worker's exchange path.
    fn ready_at(&self, start: SimTime, bytes: u64) -> SimTime;

    /// Calibrated processing-cost estimate (ns per byte), updated after
    /// every committed packet — the router's tie-breaker.
    fn est_ns_per_byte(&self) -> f64;

    /// Install the hash tables `pipeline` probes ahead of the stage (the
    /// broadcast mem-move plus any device-side preparation), checking the
    /// device's capacity. Returns the host-to-device bytes moved.
    fn install_tables(
        &mut self,
        pipeline: &Pipeline,
        tables: &TableStore,
        start: SimTime,
    ) -> Result<u64, EngineError>;

    /// Price one packet's recorded statistics on this worker's device:
    /// the base device time, *excluding* transfer legs and any cost term
    /// that depends on routing history (those are applied by
    /// [`DeviceProvider::commit_packet`]). `agg` is the stage's
    /// aggregation spec, when it has one. Pure w.r.t. the worker's clocks
    /// — safe to call from pool threads. The workers of one stage on alike
    /// devices ([`Server::class`](hape_sim::topology::Server::class))
    /// charge a packet alike: the engine charges it once per class.
    fn charge(
        &self,
        work: &PacketWork,
        agg: Option<&AggSpec>,
        tables: &TableStore,
    ) -> Result<SimTime, EngineError>;

    /// Account one routed packet against this worker's simulated clocks:
    /// the input transfer on the worker's exchange path, the `base` device
    /// time from [`DeviceProvider::charge`] plus any history-dependent
    /// terms (the CPU model's cumulative group-table growth), the
    /// device-to-host return of build output, and the calibrated-estimate
    /// update. Control-plane only — called sequentially in packet order.
    fn commit_packet(
        &mut self,
        work: &PacketWork,
        base: SimTime,
        start: SimTime,
    ) -> CommitOutcome;

    /// Fold a bare batch into the worker's own aggregation state,
    /// numbering its groups afresh ([`AggState::update`]) — for callers
    /// that drive a worker by hand. The engine does not call it: it folds
    /// each packet through the ids [`run_ops`] carried into a partial of
    /// its own ([`SlotFold::fold_numbered`]) and merges the partials in
    /// packet order.
    ///
    /// [`SlotFold::fold_numbered`]: hape_ops::agg::SlotFold::fold_numbered
    fn fold_packet(&mut self, batch: &Batch) {
        if let Some(state) = self.agg_mut() {
            state.update(batch);
        }
    }

    /// The worker's own aggregation state (stream stages): the spec its
    /// fold is priced under, and what [`DeviceProvider::fold_packet`] folds
    /// into. The engine's answers never read it.
    fn agg_mut(&mut self) -> Option<&mut AggState>;

    /// Total simulated busy time of the worker's compute resource.
    fn busy(&self) -> SimTime;

    /// Pure (no-queueing) duration of one `bytes` transfer on this
    /// worker's exchange path — what one failed transfer attempt wastes.
    /// Workers without a transfer leg charge nothing.
    fn transfer_duration(&self, _bytes: u64) -> SimTime {
        SimTime::ZERO
    }

    /// Charge a fault-recovery delay (retry backoff plus wasted transfer
    /// attempts) to this worker's simulated clock starting no earlier than
    /// `at`, so recovery is priced into busy time and makespan. Returns
    /// when the worker is free again. Control-plane only.
    fn charge_fault_delay(&mut self, at: SimTime, delay: SimTime) -> SimTime {
        at + delay
    }
}

/// Probe `packet` against `jt`, producing the joined batch (probe columns
/// followed by the selected build payload columns) and the measured average
/// chain length — the *functional* operator is heterogeneity-oblivious;
/// only the costing differs. The match-index selection vectors live in
/// reusable per-worker `scratch` buffers instead of fresh `Vec`s every
/// packet — this is the hot probe path the data plane runs.
pub fn probe_join_with(
    packet: &Batch,
    jt: &JoinTable,
    key_col: usize,
    build_payload_cols: &[usize],
    scratch: &mut Scratch,
) -> (Batch, f64) {
    let keys = packet.col(key_col).as_i32();
    let (probe_sel, build_sel) = (&mut scratch.sel, &mut scratch.build_sel);
    probe_sel.clear();
    build_sel.clear();
    let steps_total = jt.table().probe(keys, probe_sel, build_sel, |_| {});
    let out = gather_matches(packet, jt, probe_sel, build_sel, build_payload_cols);
    let avg_chain = if keys.is_empty() { 0.0 } else { steps_total as f64 / keys.len() as f64 };
    (out, avg_chain)
}

/// Assemble the joined batch from match pairs: the probe side's columns
/// gathered by `probe_sel` (handed through as views, uncopied, when the
/// selection is the identity), followed by the selected build payload
/// columns gathered by `build_sel` — [`probe_join_with`]'s output. A
/// co-processed probe ([`crate::place::PlacedStage::CoProcess`]) never
/// builds it whole: its stage gathers the same layout chunk by chunk, and
/// only the columns the rest of its pipeline reads.
pub fn gather_matches(
    probe: &Batch,
    jt: &JoinTable,
    probe_sel: &[u32],
    build_sel: &[u32],
    build_payload_cols: &[usize],
) -> Batch {
    // A foreign-key probe matches every probe row exactly once, in order:
    // the selection is the identity and the probe side passes through as
    // the views it already is (same rows, same `byte_len`, nothing copied).
    let identity = probe_sel.len() == probe.rows()
        && probe_sel.iter().enumerate().all(|(i, &s)| s as usize == i);
    let mut cols: Vec<Column> = if identity {
        probe.columns.clone()
    } else {
        probe.columns.iter().map(|c| c.take(probe_sel)).collect()
    };
    for &b in build_payload_cols {
        cols.push(jt.batch.col(b).take(build_sel));
    }
    Batch::new(cols)
}

fn lookup_ht<'a>(tables: &'a TableStore, ht: &str) -> Result<&'a Arc<JoinTable>, EngineError> {
    tables.get(ht).ok_or_else(|| EngineError::HashTableNotBuilt { table: ht.to_string() })
}

/// Exponentially-weighted update of a worker's ns-per-byte estimate.
pub(crate) fn update_estimate(est: &mut f64, time: SimTime, bytes: u64) {
    *est = 0.7 * *est + 0.3 * (time.as_ns() / bytes as f64);
}

/// One CPU core as a placed worker.
#[derive(Debug)]
pub struct CpuWorker {
    socket: usize,
    core: usize,
    res: Resource,
    /// Per-worker cost model (bandwidth share folded in).
    model: CpuCostModel,
    agg: Option<AggState>,
    /// Distinct group keys of the packets committed to this worker so far
    /// — the group count a private table of its routed packets would hold,
    /// which prices the cumulative group-table random-access term. Pricing
    /// only: the engine folds each packet into a partial of its own on the
    /// data plane, whichever worker the router picks.
    groups_seen: HashSet<GroupKey>,
    est: f64,
}

impl CpuWorker {
    /// A worker for `core` of `socket`, charging `model` (the per-core
    /// share of the socket's bandwidth is already folded in).
    pub fn new(socket: usize, core: usize, model: CpuCostModel, agg: Option<AggState>) -> Self {
        CpuWorker {
            socket,
            core,
            res: Resource::new(format!("cpu{socket}.{core}")),
            model,
            agg,
            groups_seen: HashSet::new(),
            est: CPU_WORKER_SEED_NS_PER_BYTE,
        }
    }
}

impl DeviceProvider for CpuWorker {
    fn id(&self) -> WorkerId {
        WorkerId::CpuCore { socket: self.socket, core: self.core }
    }

    fn ready_at(&self, start: SimTime, _bytes: u64) -> SimTime {
        self.res.free_at().max(start)
    }

    fn est_ns_per_byte(&self) -> f64 {
        self.est
    }

    fn install_tables(
        &mut self,
        _pipeline: &Pipeline,
        _tables: &TableStore,
        _start: SimTime,
    ) -> Result<u64, EngineError> {
        // Built tables already live in host memory: no mem-move needed.
        Ok(0)
    }

    /// Source scan + per-operator charges. Excludes the terminal
    /// aggregation entirely — on the CPU model its cost depends on the
    /// routed worker's cumulative group count, which the control plane
    /// applies at commit time ([`hape_ops::cpu::agg_cost`]).
    fn charge(
        &self,
        work: &PacketWork,
        _agg: Option<&AggSpec>,
        tables: &TableStore,
    ) -> Result<SimTime, EngineError> {
        cpu_packet_cost(&self.model, work.bytes, &work.ops, tables)
    }

    fn commit_packet(
        &mut self,
        work: &PacketWork,
        base: SimTime,
        start: SimTime,
    ) -> CommitOutcome {
        let bytes = work.bytes.max(1);
        let mut time = base;
        if let (Some(state), Some(groups)) = (&self.agg, &work.groups) {
            self.groups_seen.extend(&groups.keys);
            let rows = work.out.rows() as u64;
            time += cpu_ops::agg_cost(state.spec(), rows, self.groups_seen.len(), &self.model);
        }
        let (_, done) = self.res.acquire(start, time);
        update_estimate(&mut self.est, time, bytes);
        CommitOutcome { done, h2d_bytes: 0 }
    }

    fn agg_mut(&mut self) -> Option<&mut AggState> {
        self.agg.as_mut()
    }

    fn busy(&self) -> SimTime {
        self.res.busy_time()
    }
}

/// One GPU as a placed worker: packets (and broadcast hash tables) reach
/// it over its PCIe link — realising the mem-move exchanges its segment
/// carries.
#[derive(Debug)]
pub struct GpuWorker {
    idx: usize,
    res: Resource,
    /// The kernel simulator for the target GPU.
    sim: GpuSim,
    link: Link,
    dram_capacity: u64,
    dram_bw: f64,
    /// Hash tables this worker's segment broadcasts to it (from the
    /// segment's `MemMove { table: Some(_) }` exchanges, in order).
    broadcast: Vec<String>,
    /// Broadcast tables already resident in device memory from an earlier
    /// run of the shared fleet (the serving layer's cross-query build
    /// cache): they still occupy capacity and get regions, but skip the
    /// PCIe transfer and the partition prep.
    resident: HashSet<String>,
    ht_regions: HashMap<String, Region>,
    agg: Option<AggState>,
    est: f64,
}

impl GpuWorker {
    /// A worker for GPU `idx` with spec `spec`, reached over `link`.
    ///
    /// `broadcast` names the hash tables the worker's segment moves into
    /// device memory ahead of the stage — the IR's broadcast mem-move
    /// exchanges, which [`GpuWorker::install_tables`] executes.
    pub fn new(
        idx: usize,
        spec: GpuSpec,
        mut link: Link,
        fidelity: Fidelity,
        agg: Option<AggState>,
        broadcast: Vec<String>,
    ) -> Self {
        link.reset();
        GpuWorker {
            idx,
            res: Resource::new(format!("gpu{idx}")),
            dram_capacity: spec.dram_capacity as u64,
            dram_bw: spec.dram_bw,
            sim: GpuSim::new(spec, fidelity),
            link,
            broadcast,
            resident: HashSet::new(),
            ht_regions: HashMap::new(),
            agg,
            est: GPU_WORKER_SEED_NS_PER_BYTE,
        }
    }

    /// Mark broadcast tables as already device-resident (retained from an
    /// earlier query of the same serving fleet): [`GpuWorker::install_tables`]
    /// still assigns their regions and counts them against capacity, but
    /// skips the PCIe transfer and device-side prep.
    pub fn with_resident(mut self, resident: HashSet<String>) -> Self {
        self.resident = resident;
        self
    }
}

impl DeviceProvider for GpuWorker {
    fn id(&self) -> WorkerId {
        WorkerId::Gpu(self.idx)
    }

    fn packet_share(&self) -> usize {
        GPU_PACKET_SHARE
    }

    fn ready_at(&self, start: SimTime, bytes: u64) -> SimTime {
        let arrive = self.link.free_at().max(start) + self.link.duration(bytes);
        self.res.free_at().max(arrive)
    }

    fn est_ns_per_byte(&self) -> f64 {
        self.est
    }

    /// Execute the segment's broadcast mem-moves: every table the worker
    /// was built with (each table the stage's pipeline probes, its
    /// segment's `MemMove { table: Some(_) }` exchanges) crosses this
    /// worker's PCIe link into device memory, after the capacity check
    /// against this device's own spec.
    fn install_tables(
        &mut self,
        pipeline: &Pipeline,
        tables: &TableStore,
        start: SimTime,
    ) -> Result<u64, EngineError> {
        if self.broadcast.is_empty() {
            return Ok(0);
        }
        self.ht_regions.clear();
        // `occupied` counts every broadcast table against capacity;
        // `moved` is the subset actually crossing the link this stage —
        // tables already device-resident (cross-query cache hits) occupy
        // memory and get regions, but skip the transfer.
        let mut occupied: u64 = 0;
        let mut moved: u64 = 0;
        let mut region_base = 1u64 << 44;
        for name in &self.broadcast {
            // Defensive dedupe: a table listed twice (duplicate probe
            // sites of a memoised build) still crosses the link — and
            // occupies device memory — once.
            if self.ht_regions.contains_key(name) {
                continue;
            }
            let jt = lookup_ht(tables, name)?;
            occupied += jt.bytes();
            if !self.resident.contains(name) {
                moved += jt.bytes();
            }
            self.ht_regions.insert(name.clone(), Region::at(region_base, jt.bytes().max(1)));
            region_base += jt.bytes().max(128) * 2;
        }
        // Partitioned probes pre-partition the device-resident build side
        // on the GPU (once per distinct table; resident tables were
        // prepped when they first arrived).
        let mut prep = SimTime::ZERO;
        let mut prepped: Vec<&str> = Vec::new();
        for op in &pipeline.ops {
            if let PipeOp::JoinProbe { ht, algo: JoinAlgo::Partitioned, .. } = op {
                if self.ht_regions.contains_key(ht)
                    && !self.resident.contains(ht)
                    && !prepped.contains(&ht.as_str())
                {
                    prepped.push(ht);
                    let jt = lookup_ht(tables, ht)?;
                    prep += SimTime::from_secs(4.0 * jt.bytes() as f64 / self.dram_bw);
                }
            }
        }
        // The capacity constraint — this device's own memory, with working
        // space (the paper's Q9 GPU-only failure, §6.4). Resident tables
        // still occupy their share.
        let required = (occupied as f64 * GPU_HT_WORKING_FACTOR) as u64;
        if required > self.dram_capacity {
            return Err(EngineError::GpuMemoryExceeded {
                required,
                capacity: self.dram_capacity,
            });
        }
        if moved > 0 || prep > SimTime::ZERO {
            let (_, arrived) = self.link.transfer(start, moved);
            let (_, ready) = self.res.acquire(arrived, prep);
            debug_assert!(ready >= arrived);
        }
        Ok(moved)
    }

    /// Price the packet as GPU kernels against the broadcast hash tables'
    /// device-memory residences. The per-block survivor counts and the
    /// zero-copy key column recorded by [`run_ops`] let the simulator
    /// replay exactly the kernels an interleaved implementation would
    /// launch — including the terminal aggregation kernel, whose GPU cost
    /// is packet-local (per-block scratchpad tables, no cumulative term).
    fn charge(
        &self,
        work: &PacketWork,
        agg: Option<&AggSpec>,
        tables: &TableStore,
    ) -> Result<SimTime, EngineError> {
        let fold = match (agg, &work.groups) {
            (Some(spec), Some(_)) => {
                let row_bytes = gpu_ops::agg_row_bytes(spec, &widths(&work.out));
                let (rows, bytes) = (work.out.rows(), work.out.bytes());
                Some((spec, FoldStats { rows, row_bytes, bytes }))
            }
            _ => None,
        };
        gpu_packet_cost(&self.sim, work.bytes, &work.ops, fold, tables, &self.ht_regions)
    }

    fn commit_packet(
        &mut self,
        work: &PacketWork,
        base: SimTime,
        start: SimTime,
    ) -> CommitOutcome {
        let bytes = work.bytes.max(1);
        let (_, arrived) = self.link.transfer(start, bytes);
        let (_, done) = self.res.acquire(arrived, base);
        // A build pipeline's output is consumed host-side (the hash table
        // is built in host memory for broadcasting): it rides the link
        // back, and the packet is not finished until the return lands.
        let done = if !work.folds && work.out.rows() > 0 {
            self.link.transfer(done, work.out.bytes().max(1)).1
        } else {
            done
        };
        update_estimate(&mut self.est, base, bytes);
        CommitOutcome { done, h2d_bytes: bytes }
    }

    fn agg_mut(&mut self) -> Option<&mut AggState> {
        self.agg.as_mut()
    }

    fn busy(&self) -> SimTime {
        self.res.busy_time()
    }

    fn transfer_duration(&self, bytes: u64) -> SimTime {
        self.link.duration(bytes)
    }

    /// Retry backoff and wasted transfer attempts occupy the device (it is
    /// stalled waiting on its link), so the delay lands on the compute
    /// resource: busy time and every later packet's start shift by it.
    fn charge_fault_delay(&mut self, at: SimTime, delay: SimTime) -> SimTime {
        self.res.acquire(at, delay).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_sim::{CpuSpec, Fidelity, GpuSpec};
    use hape_storage::Column;

    /// Both probe kernels' whole reports on seeded key packets — runs of
    /// repeated keys, a small key domain, uniform keys; up to 50 000 keys
    /// — on the paper's GPU and on a 2-SM GPU whose two-block waves
    /// complete mid-grid, pinned from before the warp counters' fast
    /// paths.
    #[test]
    fn probe_kernel_reports_are_pinned_bit_for_bit() {
        let narrow = GpuSpec { sms: 2, max_threads_per_sm: 512, ..GpuSpec::gtx_1080() };
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut reports = Vec::new();
        for case in 0..48u64 {
            let spec = if case % 2 == 0 { GpuSpec::gtx_1080() } else { narrow.clone() };
            let sim = GpuSim::new(spec, Fidelity::Analytic);
            let n = (next() % 50_000) as usize;
            let keys: Vec<i32> = match case % 3 {
                0 => (0..n).map(|i| (i / (1 + (case as usize % 7))) as i32).collect(),
                1 => (0..n).map(|_| (next() % 25) as i32).collect(),
                _ => (0..n).map(|_| next() as i32).collect(),
            };
            let bits = 4 + (next() % 13) as u32;
            let avg_chain = [1.0, 1.25, 2.5][(case / 3 % 3) as usize];
            let region = Region::at(1 << 40, 1 + next() % (1 << 24));
            for algo in [JoinAlgo::NonPartitioned, JoinAlgo::Partitioned] {
                reports.push(gpu_probe_cost(&sim, &keys, bits, region, avg_chain, algo));
            }
        }
        assert_eq!(reports.len(), 96);
        assert_eq!(KernelReport::digest(&reports), 0xe752_a573_14e7_5bb5);
    }

    fn packet(n: usize) -> Batch {
        Batch::new(vec![
            Column::from_i32((0..n as i32).collect()),
            Column::from_f64((0..n).map(|i| i as f64).collect()),
        ])
    }

    fn dim_table() -> Arc<JoinTable> {
        // keys 0..100 step 2, payload = key*10
        let keys: Vec<i32> = (0..50).map(|i| i * 2).collect();
        let pay: Vec<f64> = keys.iter().map(|&k| (k * 10) as f64).collect();
        let batch = Batch::new(vec![Column::from_i32(keys), Column::from_f64(pay)]);
        Arc::new(JoinTable::build(batch, 0))
    }

    fn pipeline() -> Pipeline {
        Pipeline::scan("t")
            .filter(Expr::lt(Expr::col(0), Expr::LitI32(100)))
            .join("d", 0, vec![1], JoinAlgo::NonPartitioned)
            .aggregate(AggSpec::ungrouped(vec![
                (AggFunc::Count, Expr::col(0)),
                (AggFunc::Sum, Expr::col(2)), // build payload
            ]))
    }

    fn cpu_worker(agg: Option<&AggSpec>) -> CpuWorker {
        let model = CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12);
        CpuWorker::new(0, 0, model, agg.cloned().map(AggState::new))
    }

    fn gpu_worker(agg: Option<&AggSpec>, broadcast: Vec<String>) -> GpuWorker {
        GpuWorker::new(
            0,
            GpuSpec::gtx_1080(),
            Link::pcie3_x16("pcie0"),
            Fidelity::Analytic,
            agg.cloned().map(AggState::new),
            broadcast,
        )
    }

    /// One packet the way the engine runs it: kernels, class pricing, fold.
    fn run(
        w: &mut dyn DeviceProvider,
        pkt: Batch,
        p: &Pipeline,
        tables: &TableStore,
    ) -> Result<(PacketWork, SimTime), EngineError> {
        let work = run_ops(pkt, p, tables, &mut Scratch::new())?;
        let time = w.charge(&work, p.agg.as_ref(), tables)?;
        if work.folds && work.out.rows() > 0 {
            w.fold_packet(&work.out);
        }
        Ok((work, time))
    }

    #[test]
    fn cpu_and_gpu_providers_agree_on_results() {
        let mut tables = TableStore::new();
        tables.insert("d".into(), dim_table());
        let p = pipeline();

        let mut cpu = cpu_worker(p.agg.as_ref());
        let (w1, t1) = run(&mut cpu, packet(1000), &p, &tables).unwrap();
        let mut gpu = gpu_worker(p.agg.as_ref(), Vec::new());
        let (w2, t2) = run(&mut gpu, packet(1000), &p, &tables).unwrap();
        assert!(w1.folds && w2.folds);

        let a = cpu.agg_mut().unwrap().finish();
        let b = gpu.agg_mut().unwrap().finish();
        assert_eq!(a, b);
        // 50 keys of 0..100 are even and survive the filter.
        assert_eq!(a[0].1[0], 50.0);
        assert_eq!(a[0].1[1], (0..50).map(|i| (i * 2 * 10) as f64).sum::<f64>());
        assert!(t1.as_ns() > 0.0);
        assert!(t2.as_ns() > 0.0);
    }

    /// A packet whose every key hits `dim_table` exactly once.
    fn fk_packet(n: usize) -> Batch {
        Batch::new(vec![
            Column::from_i32((0..n as i32).map(|i| (i * 7 % 50) * 2).collect()),
            Column::from_f64((0..n).map(|i| i as f64).collect()),
        ])
    }

    #[test]
    fn identity_selection_passes_the_probe_side_through_uncopied() {
        let (pkt, jt) = (fk_packet(64).slice(8, 40), dim_table());
        let aliases = |out: &Batch| {
            out.col(0).as_i32().as_ptr() == pkt.col(0).as_i32().as_ptr()
                && out.col(1).as_f64().as_ptr() == pkt.col(1).as_f64().as_ptr()
        };
        let build_sel: Vec<u32> = (0..40).collect();
        let identity: Vec<u32> = (0..40).collect();
        let out = gather_matches(&pkt, &jt, &identity, &build_sel, &[1]);
        assert!(aliases(&out), "a foreign-key probe copies no probe-side column");
        assert_eq!(out.col(0).as_i32(), pkt.col(0).as_i32());
        assert_eq!(out.col(2).as_f64()[3], 60.0, "the build payload is still gathered");
        assert_eq!(out.bytes(), 40 * (4 + 8 + 8), "a view's bytes are its length");
        // A duplicate match, a missing row and a permutation are gathers.
        let mut duplicate = identity.clone();
        duplicate.insert(5, 4);
        let mut missing = identity.clone();
        missing.remove(39);
        let mut permuted = identity;
        permuted.swap(0, 1);
        for sel in [duplicate, missing, permuted] {
            let out = gather_matches(&pkt, &jt, &sel, &build_sel[..sel.len().min(40)], &[]);
            assert!(!aliases(&out), "{sel:?}");
            let want: Vec<i32> = sel.iter().map(|&i| pkt.col(0).as_i32()[i as usize]).collect();
            assert_eq!(out.col(0).as_i32(), want);
        }
    }

    #[test]
    fn foreign_key_probe_reports_the_trace_it_always_did() {
        // Pinned from the commit before the pass-through existed: the
        // simulated device materialises the probe's output either way, so
        // no statistic a cost model reads may notice that the host did not.
        let mut tables = TableStore::new();
        tables.insert("d".into(), dim_table());
        let p = Pipeline::scan("t").join("d", 0, vec![1], JoinAlgo::NonPartitioned);
        let work = run_ops(fk_packet(64), &p, &tables, &mut Scratch::new()).unwrap();
        let OpTrace::Probe { rows_in, rows_out, avg_chain, bytes_in, bytes_out, keys, .. } =
            &work.ops[0]
        else {
            panic!("{:?}", work.ops);
        };
        assert_eq!((*rows_in, *rows_out), (64, 64));
        assert_eq!(avg_chain.to_bits(), 0x3ff3_c000_0000_0000, "{avg_chain}");
        assert_eq!((*bytes_in, *bytes_out), (64 * 12, 64 * 20));
        assert_eq!((work.bytes, keys.len(), work.out.rows()), (64 * 12, 64, 64));
        assert_eq!(work.out.col(2).as_f64()[1], 140.0);
    }

    /// One filter the way `run_ops` ran it before selections: `eval_bool`,
    /// then a gather of every column — the per-block survivors and the
    /// materialised batch.
    fn filtered_by_copy(pred: &Expr, b: &Batch) -> (Vec<u32>, Batch) {
        let keep: Vec<u32> = hape_ops::eval_bool(pred, b)
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| i as u32)
            .collect();
        let out = Batch::new(b.columns.iter().map(|c| c.take(&keep)).collect());
        (gpu_ops::block_survivors(&keep, b.rows()), out)
    }

    #[test]
    fn stacked_filters_leave_a_selection_that_traces_like_the_copies_it_replaces() {
        // Over several GPU blocks, a second filter refining the first's
        // selection: survivors must be counted per block of *its* input.
        let n = 3 * gpu_ops::ITEMS_PER_BLOCK + 17;
        let first = Expr::and(
            Expr::ge(Expr::col(1), Expr::LitF64(100.0)),
            Expr::lt(Expr::col(0), Expr::LitI32(20_000)),
        );
        let second = Expr::or(
            Expr::lt(Expr::col(0), Expr::LitI32(9_000)),
            Expr::gt(Expr::col(1), Expr::LitF64(15_000.5)),
        );
        let spec = AggSpec::ungrouped(vec![
            (AggFunc::Count, Expr::col(0)),
            (AggFunc::Sum, Expr::mul(Expr::col(1), Expr::LitF64(0.5))),
            (AggFunc::Max, Expr::col(0)),
        ]);
        let build = Pipeline::scan("t").filter(first.clone()).filter(second.clone());
        let fold = build.clone().aggregate(spec.clone());

        let (s1, mid) = filtered_by_copy(&first, &packet(n));
        let (s2, last) = filtered_by_copy(&second, &mid);
        let mut want_state = AggState::new(spec.clone());
        want_state.update(&last);
        let want = [
            (n, s1, packet(n).bytes(), mid.bytes()),
            (mid.rows(), s2, mid.bytes(), last.bytes()),
        ];

        for p in [&build, &fold] {
            let work = run_ops(packet(n), p, &TableStore::new(), &mut Scratch::new()).unwrap();
            assert_eq!(work.ops.len(), 2);
            for (op, (rows, survivors, bytes_in, bytes_out)) in work.ops.iter().zip(&want) {
                let OpTrace::Filter {
                    rows_in,
                    survivors: got,
                    pred_row_bytes,
                    out_row_bytes,
                    ..
                } = op
                else {
                    panic!("{op:?}");
                };
                assert_eq!(
                    (rows_in, got, *pred_row_bytes, *out_row_bytes),
                    (rows, survivors, 12, 12)
                );
                assert_eq!((op.bytes_in(), op.bytes_out()), (*bytes_in, *bytes_out));
            }
            assert_eq!((work.out.rows(), work.out.bytes()), (last.rows(), last.bytes()));
            assert_eq!(
                work.out.selection().is_some(),
                work.folds,
                "only a fold reads a selection"
            );
            let mut state = AggState::new(spec.clone());
            state.update(&work.out);
            let bits = |s: &AggState| -> Vec<Vec<u64>> {
                s.finish()
                    .iter()
                    .map(|(_, v)| v.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&state), bits(&want_state));
            assert_eq!(work.out.clone().compact().col(1).as_f64(), last.col(1).as_f64());
        }
    }

    #[test]
    fn a_q1_shaped_packet_folds_through_its_carried_ids_like_the_wrapper() {
        // Q1's shape over more rows than the fold's 16 384-row block: a
        // date filter that leaves a selection, two dictionary group keys,
        // sums of computed arguments, averages and a count.
        let n = 40_000;
        let flags = ["A", "N", "R"];
        let packet = Batch::new(vec![
            Column::from_strs((0..n).map(|i| flags[i * 7 % 3])),
            Column::from_strs((0..n).map(|i| ["F", "O"][i * 5 % 11 % 2])),
            Column::from_f64((0..n).map(|i| (i % 50 + 1) as f64).collect()),
            Column::from_f64((0..n).map(|i| 900.0 + i as f64 * 1.37).collect()),
            Column::from_f64((0..n).map(|i| (i % 11) as f64 * 0.01).collect()),
            Column::from_i32((0..n as i32).map(|i| 8_000 + i % 2_600).collect()),
        ]);
        let disc_price = Expr::mul(Expr::col(3), Expr::sub(Expr::LitF64(1.0), Expr::col(4)));
        let charge = Expr::mul(disc_price.clone(), Expr::add(Expr::LitF64(1.0), Expr::col(4)));
        let spec = AggSpec::grouped(
            vec![0, 1],
            vec![
                (AggFunc::Sum, Expr::col(2)),
                (AggFunc::Sum, Expr::col(3)),
                (AggFunc::Sum, disc_price),
                (AggFunc::Sum, charge),
                (AggFunc::Avg, Expr::col(2)),
                (AggFunc::Avg, Expr::col(3)),
                (AggFunc::Avg, Expr::col(4)),
                (AggFunc::Count, Expr::col(2)),
            ],
        );
        let p = Pipeline::scan("lineitem")
            .filter(Expr::le(Expr::col(5), Expr::LitI32(10_500)))
            .aggregate(spec.clone());
        let work = run_ops(packet, &p, &TableStore::new(), &mut Scratch::new()).unwrap();
        assert!(work.out.selection().is_some() && work.out.rows() > 1 << 14);
        let groups = work.groups.as_ref().unwrap();

        let (mut carried, mut wrapper) = (cpu_worker(Some(&spec)), cpu_worker(Some(&spec)));
        carried.agg_mut().unwrap().fold(&work.out, groups);
        wrapper.fold_packet(&work.out);
        let result = |w: &mut CpuWorker| {
            let state = w.agg_mut().unwrap();
            let rows: Vec<(GroupKey, Vec<u64>)> = (state.finish().into_iter())
                .map(|(k, v)| (k, v.into_iter().map(f64::to_bits).collect()))
                .collect();
            (rows, state.n_groups(), state.rows_seen)
        };
        let carried = result(&mut carried);
        assert_eq!(carried, result(&mut wrapper));
        assert_eq!(carried.1, 6);
    }

    #[test]
    fn build_pipeline_returns_output() {
        let p = Pipeline::scan("t").filter(Expr::lt(Expr::col(0), Expr::LitI32(10)));
        let (work, _) =
            run(&mut cpu_worker(None), packet(100), &p, &TableStore::new()).unwrap();
        assert!(!work.folds && work.groups.is_none());
        assert_eq!(work.out.rows(), 10);
        // A computed projection materialises its values, and the trace
        // records the payload on either side of the operator.
        let p = Pipeline::scan("t").project(vec![Expr::mul(Expr::col(1), Expr::LitF64(2.0))]);
        let work = run_ops(packet(10), &p, &TableStore::new(), &mut Scratch::new()).unwrap();
        assert_eq!(work.out.col(0).as_f64()[3], 6.0);
        assert_eq!((work.ops[0].bytes_in(), work.ops[0].bytes_out()), (10 * 12, 10 * 8));
    }

    #[test]
    fn unbuilt_hash_table_is_a_typed_error() {
        let p = Pipeline::scan("t").join("ghost", 0, vec![], JoinAlgo::NonPartitioned);
        let err = run(&mut cpu_worker(None), packet(16), &p, &TableStore::new()).unwrap_err();
        assert!(
            matches!(err, EngineError::HashTableNotBuilt { ref table } if table == "ghost")
        );
        // Pricing a recorded probe against a store that lost the table is
        // the same typed error on either device, not a panic.
        let mut tables = TableStore::new();
        tables.insert("ghost".into(), dim_table());
        let work = run_ops(packet(16), &p, &tables, &mut Scratch::new()).unwrap();
        let workers: [&dyn DeviceProvider; 2] =
            [&cpu_worker(None), &gpu_worker(None, Vec::new())];
        for w in workers {
            let err = w.charge(&work, None, &TableStore::new()).unwrap_err();
            assert!(matches!(err, EngineError::HashTableNotBuilt { .. }));
        }
    }

    #[test]
    fn partitioned_probe_cheaper_for_large_tables() {
        // A large device-resident table: random NPJ probes over-fetch;
        // the partitioned probe stays in the scratchpad.
        let n = 1 << 20;
        let keys: Vec<i32> = (0..n as i32).collect();
        let pay: Vec<f64> = vec![0.0; n];
        let jt = Arc::new(JoinTable::build(
            Batch::new(vec![Column::from_i32(keys), Column::from_f64(pay)]),
            0,
        ));
        let mut tables = TableStore::new();
        tables.insert("big".into(), jt);

        let probe = packet(1 << 18);
        let count = AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))]);
        let price = |algo| {
            let p = Pipeline::scan("t").join("big", 0, vec![1], algo).aggregate(count.clone());
            let mut gpu = gpu_worker(p.agg.as_ref(), vec!["big".into()]);
            gpu.install_tables(&p, &tables, SimTime::ZERO).unwrap();
            let (_, time) = run(&mut gpu, probe.clone(), &p, &tables).unwrap();
            (gpu.agg_mut().unwrap().finish(), time)
        };
        let (rows_npj, t_npj) = price(JoinAlgo::NonPartitioned);
        let (rows_part, t_part) = price(JoinAlgo::Partitioned);
        assert_eq!(rows_npj, rows_part);
        assert!(t_part.as_secs() < t_npj.as_secs(), "partitioned {t_part} !< npj {t_npj}");
    }

    #[test]
    fn workers_unify_devices_behind_the_trait() {
        let mut tables = TableStore::new();
        tables.insert("d".into(), dim_table());
        let p = pipeline();
        let agg = p.agg.clone().unwrap();
        let mut workers: Vec<Box<dyn DeviceProvider>> = vec![
            Box::new(cpu_worker(Some(&agg))),
            Box::new(gpu_worker(Some(&agg), vec!["d".into()])),
        ];
        let mut merged = AggState::new(agg.clone());
        let mut scratch = Scratch::new();
        for w in &mut workers {
            let h2d = w.install_tables(&p, &tables, SimTime::ZERO).unwrap();
            // Only the GPU worker needs the broadcast mem-move.
            assert_eq!(h2d > 0, w.id().is_gpu(), "{:?}", w.id());
            // Data plane: kernels + class pricing; control plane: commit.
            // The worker's own state takes a bare-batch fold.
            let work = run_ops(packet(1000), &p, &tables, &mut scratch).unwrap();
            assert!(work.folds);
            let base = w.charge(&work, Some(&agg), &tables).unwrap();
            assert!(base.as_ns() > 0.0, "{:?}", w.id());
            let out = w.commit_packet(&work, base, SimTime::ZERO);
            assert!(out.done.as_ns() > 0.0);
            w.fold_packet(&work.out);
            assert!(w.busy().as_ns() > 0.0);
            merged.merge(w.agg_mut().unwrap());
        }
        let rows = merged.finish();
        assert_eq!(rows[0].1[0], 100.0); // both workers saw 50 matches
    }

    #[test]
    fn duplicate_broadcast_entries_install_once() {
        let mut tables = TableStore::new();
        tables.insert("d".into(), dim_table());
        let p = Pipeline::scan("t").join("d", 0, vec![1], JoinAlgo::NonPartitioned).join(
            "d",
            0,
            vec![1],
            JoinAlgo::NonPartitioned,
        );
        let mut once = gpu_worker(None, vec!["d".into()]);
        let mut twice = gpu_worker(None, vec!["d".into(), "d".into()]);
        let a = once.install_tables(&p, &tables, SimTime::ZERO).unwrap();
        let b = twice.install_tables(&p, &tables, SimTime::ZERO).unwrap();
        assert_eq!(a, b, "a duplicated table must cross the link once");
        assert_eq!(a, dim_table().bytes());
    }

    #[test]
    fn gpu_build_output_rides_the_link_back() {
        // A build pipeline (no aggregation) produces output the host
        // consumes: the worker is not done until the d2h return lands —
        // at least two link trips for a pass-through scan.
        let mut w = gpu_worker(None, Vec::new());
        let pkt = packet(100_000);
        let bytes = pkt.bytes();
        let tables = TableStore::new();
        let p = Pipeline::scan("t");
        let work = run_ops(pkt, &p, &tables, &mut Scratch::new()).unwrap();
        assert!(!work.folds && work.out.rows() > 0);
        let base = w.charge(&work, None, &tables).unwrap();
        let out = w.commit_packet(&work, base, SimTime::ZERO);
        let two_trips = Link::pcie3_x16("x").duration(bytes) * 2.0;
        assert!(out.done >= two_trips, "{} < {}", out.done, two_trips);
    }

    #[test]
    fn gpu_worker_rejects_oversized_tables_on_its_own_capacity() {
        let mut tables = TableStore::new();
        tables.insert("d".into(), dim_table());
        let p = pipeline();
        let mut spec = GpuSpec::gtx_1080();
        spec.dram_capacity = 64; // far below the table bytes
        let mut w = GpuWorker::new(
            0,
            spec,
            Link::pcie3_x16("pcie0"),
            Fidelity::Analytic,
            None,
            vec!["d".into()],
        );
        let err = w.install_tables(&p, &tables, SimTime::ZERO).unwrap_err();
        match err {
            EngineError::GpuMemoryExceeded { required, capacity } => {
                assert_eq!(capacity, 64);
                assert!(required > capacity);
            }
            e => panic!("unexpected error {e}"),
        }
    }
}
