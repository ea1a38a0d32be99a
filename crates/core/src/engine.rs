//! The HAPE engine: discrete-event execution of placed plans over the
//! simulated server (§4.2, §5).
//!
//! | `engine` IS | `engine` IS NOT |
//! |---|---|
//! | an interpreter of a verified [`PlacedPlan`] | a planner |
//! | the only writer of the per-query [`Ledger`] | a stats keeper |
//! | where device-aware work is realised | a validator |
//!
//! *Interpreter, not planner*: a placed plan is the only thing it runs —
//! [`Engine::begin`] → [`QueryExec::step`] per stage is the one way in.
//! Each placed stage instantiates one [`DeviceProvider`] worker per
//! operator instance of its segments (a [`CpuWorker`] per core, a
//! [`GpuWorker`] per GPU) and routes the source packets over them with the
//! one load-aware pick ([`crate::exchange::route`]). Nothing branches on
//! [`Placement`]: device subsets, exchanges and the co-processing decision
//! are read back from the IR ([`mod@crate::place`],
//! [`mod@crate::optimize`]), and mid-query re-placement calls those same
//! passes. *Only writer, not stats keeper*:
//! every control-plane decision — tables installed, packet committed,
//! fault fired, retry priced, build served from cache, stage done — is
//! reported to the ledger exactly once; [`QueryReport`] fields, trace
//! counters and spans are derived there ([`crate::trace`]), nothing is
//! tallied here. *Realised, not validated*: GPU workers charge the
//! mem-move across their PCIe link, broadcast the probed hash tables into
//! device memory first (the Q9 capacity constraint, §6.4) and swap in the
//! GPU back-end (the device crossing); the plan is validated once at
//! `begin` ([`QueryPlan::bind`]'s walk, in every build profile); what
//! remains here are the state-dependent refusals (absent device,
//! capacity).
//!
//! Every packet folds into a private partial state; partials merge at the
//! stage barrier — no cross-device shared mutable structures, the paper's
//! answer to missing system-wide cache coherence.
//!
//! **Determinism.** A packet loop has two beats, one per plane:
//!
//! 1. *data plane* (the [`runtime`] pool, parallel, one scope per stage
//!    attempt) — every packet runs the fused-kernel pass ([`run_ops`])
//!    exactly once, is priced once per class of alike workers
//!    ([`Server::class`], [`DeviceProvider::charge`]) and, in a stream
//!    stage, folds into a partial of its own through the group ids the
//!    kernel pass computed ([`PacketWork::groups`], [`SlotFold`]): pure
//!    per packet, so the pool's schedule cannot matter;
//! 2. *control plane* (one sequential loop) — per packet, in packet order:
//!    the candidates' `ready_at` state, the router's pick, the fault
//!    plane's verdict, the commit against the routed worker's simulated
//!    clocks ([`DeviceProvider::commit_packet`]), and one ledger entry;
//!    then the packets' partials merge into the stage's state in packet
//!    order.
//!
//! The router's pick is a scheduling fact (§4.2): it moves simulated time,
//! never an answer. A stream's rows depend only on the data and the packet
//! split, so they are bit-identical however its packets were routed — warm
//! or cold, retried or not.
//!
//! Everything observable — rows, makespans, the report, spans, counters,
//! which fault fired where — is therefore derived on the control plane,
//! in packet order, from one ledger, and is bit-identical at any thread
//! count, traced or not; wall timestamps ride along in spans and never
//! feed back (the differential harness, `tests/differential.rs`, and
//! `tests/trace.rs` pin this).

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError};

use hape_ops::agg::{AggState, SlotFold, SlotPartial};
use hape_ops::expr::{same_expr, Program};
use hape_ops::{AggFunc, AggSpec, Expr, GroupKey};
use hape_sim::interconnect::Link;
use hape_sim::topology::{DeviceId, Server};
use hape_sim::{CpuCostModel, CpuSpec, Fidelity, GpuSpec, SimTime};
use hape_storage::{Batch, Column};

use hape_join::{
    coprocess_join_parts, BuildProbeVariant, CoprocessConfig, JoinInput, OutputMode, PairRuns,
};

use crate::catalog::Catalog;
use crate::cost::{cpu_spec, gpu_spec};
use crate::error::PlanError;
use crate::exchange::{route, CandidateLoad};
use crate::fault::{FaultPlan, FaultSession, HealthRegistry};
use crate::place::{participants, place, place_on, PlacedPlan, PlacedStage};
use crate::plan::{JoinTable, Pipeline, QueryPlan};
use crate::provider::{
    cpu_packet_cost, run_ops, CpuWorker, DeviceProvider, GpuWorker, PacketWork, Scratch,
    TableStore,
};
use crate::runtime;
use crate::trace::{Ledger, Span, SpanKind, TraceRecorder};
use crate::verify::{Diagnostic, DiagnosticKind, Pass};

pub use crate::error::EngineError;

/// Which devices execute the stream stage.
///
/// Since the placement pass, the manual arms are *sugar only*: they select
/// the participating devices in [`crate::place::participants`] and nothing
/// on the execution path branches on them. [`Placement::Auto`] instead
/// invokes the cost-based optimizer ([`crate::optimize::optimize`]), which
/// picks per-stage device subsets from the hardware model — the engine
/// interprets the resulting [`crate::place::PlacedPlan`] exactly like a
/// manually placed one. New device mixes (per-GPU subsets, remote
/// backends) extend the placement/optimizer passes, not the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All CPU cores, no GPUs (Proteus CPU in Figure 8).
    CpuOnly,
    /// GPUs only (Proteus GPU).
    GpuOnly,
    /// Everything (Proteus Hybrid).
    Hybrid,
    /// Cost-based: the optimizer picks per-stage device subsets from the
    /// hardware model (compute throughput, interconnect cost, device
    /// memory capacity).
    Auto,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Placement::CpuOnly => "cpu",
            Placement::GpuOnly => "gpu",
            Placement::Hybrid => "hybrid",
            Placement::Auto => "auto",
        })
    }
}

/// A placement name that [`Placement`]'s `FromStr` did not recognise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlacementError {
    /// The unrecognised input.
    pub input: String,
}

impl std::fmt::Display for ParsePlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown placement {:?} (expected cpu, gpu, hybrid or auto)", self.input)
    }
}

impl std::error::Error for ParsePlacementError {}

impl std::str::FromStr for Placement {
    type Err = ParsePlacementError;

    /// Parse a CLI-style placement name: `cpu`/`cpu-only`, `gpu`/
    /// `gpu-only`, `hybrid`, `auto` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" | "cpu-only" | "cpuonly" => Ok(Placement::CpuOnly),
            "gpu" | "gpu-only" | "gpuonly" => Ok(Placement::GpuOnly),
            "hybrid" => Ok(Placement::Hybrid),
            "auto" => Ok(Placement::Auto),
            _ => Err(ParsePlacementError { input: s.to_string() }),
        }
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Device placement.
    pub placement: Placement,
    /// Rows per packet (`None` = auto: see
    /// [`ExecConfig::auto_packet_rows`]). `Some(0)` means one-row packets,
    /// exactly like `Some(1)`, in every build profile.
    pub packet_rows: Option<usize>,
    /// Data-plane threads (`None` = the `HAPE_THREADS` environment
    /// variable, else the host's available parallelism — see
    /// [`crate::runtime::resolve_threads`]). A pure wall-clock knob.
    pub threads: Option<usize>,
    /// The execution tracing plane's recorder (disabled by default).
    /// When enabled ([`ExecConfig::with_trace`]), runs through
    /// [`Engine::run`] / [`crate::session::Session`] record query, stage
    /// and packet spans plus counters into it — a pure observer.
    pub trace: TraceRecorder,
    /// The fault-injection plane's schedule (off by default, zero-cost
    /// when disabled — the tracer's discipline). When armed
    /// ([`ExecConfig::with_faults`]), runs fire the plan's deterministic
    /// faults and recover through priced retries and mid-query
    /// re-placement on the surviving fleet (see [`crate::fault`]).
    pub faults: FaultPlan,
}

impl ExecConfig {
    /// Default config for a placement.
    pub fn new(placement: Placement) -> Self {
        ExecConfig {
            placement,
            packet_rows: None,
            threads: None,
            trace: TraceRecorder::off(),
            faults: FaultPlan::off(),
        }
    }

    /// Explicit packet sizing; `0` means one-row packets, like `1`
    /// ([`ExecConfig::auto_packet_rows`] takes at least one row).
    pub fn with_packet_rows(mut self, rows: usize) -> Self {
        self.packet_rows = Some(rows);
        self
    }

    /// Explicit data-plane thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Record spans and counters into `trace` while queries run under
    /// this config (see [`crate::trace`]). Clone the recorder before
    /// handing it over to snapshot the trace afterwards.
    pub fn with_trace(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Arm the fault-injection plane: queries run under this config fire
    /// `faults`' deterministic schedule and recover through the
    /// [`crate::fault`] machinery (priced retries, re-placement on the
    /// surviving fleet).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The engine's packet-sizing rule for a stream of `rows` rows over
    /// `shares` worker packet shares: the `explicit` override when set (at
    /// least one row, so `Some(0)` is one-row packets), else about four
    /// packets per share, clamped to [2K, 1M] rows. The cost model's
    /// packet-size estimate ([`crate::cost`]) calls this rule, and the
    /// `figures` binary / `tpch_hybrid` example expose the override as
    /// `--packet-rows` for sweeps.
    pub fn auto_packet_rows(rows: usize, shares: usize, explicit: Option<usize>) -> usize {
        if let Some(r) = explicit {
            return r.max(1);
        }
        (rows / (4 * shares.max(1))).clamp(2 << 10, 1 << 20)
    }
}

/// The result of running a query.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// Aggregated result rows, sorted by group key.
    pub rows: Vec<(GroupKey, Vec<f64>)>,
    /// End-to-end simulated latency.
    pub time: SimTime,
    /// Aggregate CPU busy time.
    pub cpu_busy: SimTime,
    /// Aggregate GPU busy time.
    pub gpu_busy: SimTime,
    /// Host-to-device bytes moved (packet mem-moves and hash-table
    /// broadcasts, across all stages).
    pub h2d_bytes: u64,
    /// *Stream-stage* packets routed to CPU workers (build-stage packets
    /// are not counted — builds are plumbing, not the measured workload).
    pub packets_cpu: usize,
    /// *Stream-stage* packets routed to GPUs.
    pub packets_gpu: usize,
    /// Build stages served from the serving layer's cross-query build
    /// cache instead of executing (always 0 for solo [`Engine::run`] /
    /// [`Engine::run_placed`] runs, which start cold).
    pub builds_cached: usize,
    /// Transient transfer retries priced into the makespan (0 unless the
    /// fault plane fired a `TransferError`).
    pub retries: usize,
    /// Mid-query re-placements on the surviving fleet (0 unless the fault
    /// plane fired a permanent loss / OOM the query recovered from).
    pub replans: usize,
}

/// The engine.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The server topology.
    pub server: Server,
}

/// Aggregated result rows, sorted by group key.
type AggRows = Vec<(GroupKey, Vec<f64>)>;

/// What a packet loop hands back: the packets' outputs (build pipelines),
/// the workers' merged aggregate (aggregating ones) and when the last
/// packet finished. Everything else that happened is in the ledger.
struct Streamed {
    outputs: Vec<Batch>,
    rows: AggRows,
    end: SimTime,
    /// How many workers ran it.
    workers: usize,
}

/// The one way into the packet loop: everything a stage's interpretation
/// reads or reports through, borrowed from its [`QueryExec`] once per
/// stage attempt.
struct StageEnv<'a> {
    engine: &'a Engine,
    catalog: &'a Catalog,
    tables: &'a TableStore,
    /// Tables already in device memory (the serving layer's cross-query
    /// cache installed them): GPU workers still account their footprint
    /// but skip the broadcast transfer and partition prep.
    resident: &'a HashSet<String>,
    threads: usize,
    packet_rows: Option<usize>,
    faults: &'a FaultSession,
    ledger: &'a mut Ledger,
}

impl Engine {
    /// Engine over a server; GPUs are priced by the analytic memory model.
    pub fn new(server: Server) -> Self {
        Engine { server }
    }

    /// The placement step, the only place-or-optimize dispatch: manual
    /// placements go through [`crate::place::place`]; [`Placement::Auto`]
    /// goes through the cost-based optimizer
    /// ([`crate::optimize::optimize`]), which consumes the catalog's scan
    /// statistics to pick per-stage device subsets. Either way the
    /// interpreter sees only the placed IR.
    ///
    /// The plan binds to `catalog` first ([`QueryPlan::bind`]): a plan that
    /// does not is refused with the walk's first finding under every
    /// placement, before the optimizer prices it.
    pub fn place(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        cfg: &ExecConfig,
    ) -> Result<PlacedPlan, EngineError> {
        plan.bind(catalog)?;
        match cfg.placement {
            Placement::Auto => crate::optimize::optimize(plan, catalog, cfg, &self.server),
            _ => place(plan, cfg, &self.server),
        }
    }

    /// Place and run `plan` against `catalog` under `cfg`: sugar for
    /// [`Engine::place`] followed by a traced, fault-armed
    /// [`QueryExec::run`].
    pub fn run(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        cfg: &ExecConfig,
    ) -> Result<QueryReport, EngineError> {
        let placed = self.place(catalog, plan, cfg)?;
        self.begin(catalog, &placed)?.with_trace(&cfg.trace).with_faults(&cfg.faults).run()
    }

    /// Interpret a placed plan: stages in order, each over the workers its
    /// segments instantiate. Sugar for driving a [`QueryExec`] to
    /// completion — the serving layer ([`crate::serve::SessionServer`])
    /// instead steps many `QueryExec`s round-robin over the shared fleet.
    pub fn run_placed(
        &self,
        catalog: &Catalog,
        placed: &PlacedPlan,
    ) -> Result<QueryReport, EngineError> {
        self.begin(catalog, placed)?.run()
    }

    /// Start interpreting a placed plan without driving it to completion:
    /// the returned [`QueryExec`] owns every piece of per-query execution
    /// state (the run's table store, its simulated clock, its ledger,
    /// partial results) and advances one stage per [`QueryExec::step`].
    /// The engine itself stays stateless across queries — workers (and
    /// their clocks, aggregation states and calibrated estimates) are
    /// instantiated per stage inside the step — so one engine (one
    /// simulated fleet) serves any number of interleaved `QueryExec`s
    /// re-entrantly.
    ///
    /// Fallible: a plan that does not bind to `catalog` is refused here,
    /// before its first stage, with the walk's first finding
    /// ([`QueryPlan::bind`]); a set-but-invalid `HAPE_THREADS` surfaces
    /// as [`EngineError::InvalidConfig`] instead of silently falling back.
    pub fn begin<'a>(
        &'a self,
        catalog: &'a Catalog,
        placed: &'a PlacedPlan,
    ) -> Result<QueryExec<'a>, EngineError> {
        // Bind once, in every profile: the pipelines are the caller's
        // input. What placement adds is the device subsets, and everything
        // the interpreter reads of them is derived from them.
        crate::plan::bind_to(placed.views(), catalog)?;
        Ok(QueryExec {
            engine: self,
            catalog,
            placed: Cow::Borrowed(placed),
            threads: runtime::resolve_threads(placed.threads)?,
            tables: TableStore::new(),
            resident: HashSet::new(),
            clock: SimTime::ZERO,
            rows: Vec::new(),
            next_stage: 0,
            ledger: Ledger::default(),
            faults: FaultSession::disabled(),
        })
    }
}

/// The terminal aggregation an aggregating stage carries — binding has
/// refused a plan whose stream does not.
fn stream_agg(pipeline: &Pipeline) -> Result<&AggSpec, EngineError> {
    pipeline.agg.as_ref().ok_or_else(|| {
        let (kind, pass) = (DiagnosticKind::StreamMissingAgg, Pass::SchemaDataflow);
        let d = Diagnostic { stage: None, segment: None, op: None, pass, kind };
        EngineError::InvalidPlan(PlanError::Unbound(Box::new(d)))
    })
}

/// The co-processing stage's fold spec and the columns it reads past the
/// joined layout of `n_cols` columns: `spec` with each argument that is
/// not a count's, not a bare column, and reads only probe-side columns (the
/// prefix's `packets`) replaced by `Col(n_cols + j)`, and column `j` that
/// argument evaluated over the packets' rows in order by one register
/// [`Program`], one packet per job on the pool. Arguments that evaluate to
/// the same bits share one column.
fn evaluate_probe_args(
    spec: &AggSpec,
    packets: &[Batch],
    n_cols: usize,
    threads: usize,
) -> (AggSpec, Vec<Column>) {
    let n_probe = packets.first().map_or(0, |b| b.columns.len());
    let mut fold_spec = spec.clone();
    let mut exprs: Vec<Expr> = Vec::new();
    for (func, arg) in fold_spec.aggs.iter_mut() {
        let cols = arg.columns_used();
        let probe_only = !cols.is_empty() && cols.iter().all(|&c| c < n_probe);
        if *func == AggFunc::Count || matches!(arg, Expr::Col(_)) || !probe_only {
            continue;
        }
        let j = exprs.iter().position(|e| same_expr(e, arg)).unwrap_or_else(|| {
            exprs.push(arg.clone());
            exprs.len() - 1
        });
        *arg = Expr::Col(n_cols + j);
    }
    if exprs.is_empty() {
        return (fold_spec, Vec::new());
    }
    let n = packets.iter().map(Batch::rows).sum();
    let mut values: Vec<Vec<f64>> = vec![vec![0.0; n]; exprs.len()];
    let mut blocks: Vec<Vec<&mut [f64]>> = packets.iter().map(|_| Vec::new()).collect();
    for column in values.iter_mut() {
        let mut rest = &mut column[..];
        for (packet, block) in packets.iter().zip(blocks.iter_mut()) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(packet.rows());
            block.push(head);
            rest = tail;
        }
    }
    // A job locks only its own packet's slices, once: nothing contends.
    let blocks: Vec<Mutex<Vec<&mut [f64]>>> = blocks.into_iter().map(Mutex::new).collect();
    let program = Program::new(&exprs);
    runtime::scatter(
        threads,
        packets.len(),
        |_| (),
        |i, _| {
            let mut dsts = blocks[i].lock().unwrap_or_else(PoisonError::into_inner);
            program.eval_into(&packets[i], &mut dsts);
        },
    );
    (fold_spec, values.into_iter().map(Column::from_f64).collect())
}

/// How long a co-processing stage's fused fold of `busy` single-core work
/// takes spread over its `workers` CPU workers (90% parallel efficiency) —
/// the engine's rule, and the cost model's estimate of it.
pub(crate) fn fold_span(busy: SimTime, workers: usize) -> SimTime {
    busy / (workers.max(1) as f64 * 0.9)
}

impl StageEnv<'_> {
    /// Instantiate the workers that run `pipeline` on `devices`: one
    /// [`CpuWorker`] per core of a CPU socket, one [`GpuWorker`] per GPU,
    /// which installs every table the pipeline probes (its segment's
    /// broadcast mem-moves, [`crate::place::Segment::exchanges`]), each
    /// with a clone of the stage's compiled `agg`, the spec its share of
    /// the fold is priced under. A device this server lacks is the typed
    /// [`EngineError::DeviceNotPresent`].
    ///
    /// The fault plane hooks in here: a segment targeting a quarantined
    /// GPU is the typed [`EngineError::DeviceFailed`] (which the stepper
    /// recovers from by re-placing on the surviving fleet), and a GPU
    /// under an active `DeviceSlow` fault gets its PCIe link bandwidth
    /// derated before the worker prices anything.
    fn workers_for(
        &self,
        devices: &[DeviceId],
        pipeline: &Pipeline,
        agg: Option<&AggState>,
    ) -> Result<Vec<Box<dyn DeviceProvider>>, EngineError> {
        let server = self.server();
        let mut workers: Vec<Box<dyn DeviceProvider>> = Vec::new();
        for &device in devices {
            match device {
                DeviceId::Cpu(socket) => {
                    let spec = cpu_spec(&server, socket)?;
                    let model = CpuCostModel::new(spec.clone(), spec.cores);
                    for core in 0..spec.cores {
                        workers.push(Box::new(CpuWorker::new(
                            socket,
                            core,
                            model.clone(),
                            agg.cloned(),
                        )));
                    }
                }
                DeviceId::Gpu(idx) => {
                    let (spec, link) = self.gpu_lane(&server, idx)?;
                    let broadcast =
                        pipeline.tables_probed().into_iter().map(str::to_string).collect();
                    workers.push(Box::new(
                        GpuWorker::new(
                            idx,
                            spec.clone(),
                            link.clone(),
                            Fidelity::Analytic,
                            agg.cloned(),
                            broadcast,
                        )
                        .with_resident(self.resident.clone()),
                    ));
                }
            }
        }
        Ok(workers)
    }

    /// GPU `idx`'s spec and PCIe link on `server`: a lane the fault plane
    /// quarantined is the recoverable [`EngineError::DeviceFailed`], one
    /// the server lacks [`EngineError::DeviceNotPresent`].
    fn gpu_lane<'s>(
        &self,
        server: &'s Server,
        idx: usize,
    ) -> Result<(&'s GpuSpec, &'s Link), EngineError> {
        if self.faults.is_active() && self.faults.is_excluded(idx) {
            return Err(EngineError::DeviceFailed { device: format!("gpu{idx}") });
        }
        gpu_spec(server, idx)
    }

    /// The server as the fault plane has it: a slowed device's link runs
    /// at `1/factor`, so every transfer a stage prices over it —
    /// broadcasts, packets, build pulls, §5 lanes — pays the derated
    /// bandwidth.
    fn server(&self) -> Cow<'_, Server> {
        let mut server = Cow::Borrowed(&self.engine.server);
        if self.faults.is_active() {
            for g in 0..server.pcie.len() {
                if let Some(f) = self.faults.health().slow_factor(g) {
                    server.to_mut().pcie[g].bw /= f;
                }
            }
        }
        server
    }

    /// Run a placed co-processing stage
    /// ([`crate::place::PlacedStage::CoProcess`], §5):
    ///
    /// 1. the CPU sockets' device providers run the pipeline *prefix*
    ///    (every operator before the final probe) through the ordinary
    ///    packet loop; the packet outputs become the intermediate — columns
    ///    that passed the prefix untouched (a scan through foreign-key
    ///    probes) stay views of the base table, and of the columns an
    ///    operator produced only the key and those step 3 gathers are
    ///    concatenated;
    /// 2. the intermediate's key column is co-partitioned on the stage's
    ///    sockets against the final probe's hash table (the co-processed
    ///    table) and joined over the stage's GPU lanes — each
    ///    lane priced and capacity-checked against its own spec, link
    ///    (derated when slowed) and budget; what comes back is (build row,
    ///    probe row) match pairs, no columns, left in one vector pair per
    ///    co-partition (`hape_join::coprocess_join_parts`): a fold chunk
    ///    reads its rows of their concatenation ([`PairRuns`]) without it
    ///    being built;
    /// 3. the rest of the pipeline (the operators after the final probe and
    ///    the aggregation) consumes the pairs fused, chunk by chunk: each
    ///    chunk gathers the columns the rest reads into the layout an
    ///    in-pipeline probe produces, runs through [`run_ops`] and folds into
    ///    a [`SlotFold`] partial — the joined batch is never materialised.
    ///    When no operator follows the probe, a chunk runs no operator and
    ///    numbers no group: its pairs' groups come from the two sides' group
    ///    columns, numbered once per stage, and it gathers no column only the
    ///    group-by reads. Then, too, each aggregate argument that reads only
    ///    probe-side columns (not a count's, not a bare column) is evaluated
    ///    once over the prefix's output packets, in row order, into an `f64`
    ///    column the fold's spec reads instead; a chunk gathers that column
    ///    rather than every column the argument reads, and a column only such
    ///    arguments read is never concatenated either. The charge is the
    ///    rest's operators plus the fold of the *original* spec
    ///    ([`hape_ops::cpu::agg_cost`]), spread over the CPU workers
    ///    ([`fold_span`]): the pre-evaluation is host work the CPU plan does
    ///    not price either, so no simulated time moves, and its values are
    ///    the same element-wise `f64` operations the fold would have made,
    ///    summed in the same pair order, so no bit of an answer moves.
    ///
    /// Returns the aggregated rows and the stage's end time. All failures
    /// are typed [`EngineError`]s — a pipeline with no probe is
    /// [`EngineError::InvalidCoProcessStage`], the skew/capacity cases
    /// [`EngineError::OversizedCoPartition`], never a panic.
    fn run_coprocess_stage(
        &mut self,
        pipeline: &Pipeline,
        cpus: &[usize],
        gpus: &[usize],
        start: SimTime,
    ) -> Result<(AggRows, SimTime), EngineError> {
        let agg_spec = stream_agg(pipeline)?;
        // The co-processed join drives its GPU lanes outside the generic
        // packet loop, so the stage's lanes are checked up front.
        for &g in gpus {
            self.gpu_lane(&self.engine.server, g)?;
        }
        // ---- Split the pipeline at its final probe.
        let invalid = || EngineError::InvalidCoProcessStage { scan: pipeline.source.clone() };
        let (prefix, (ht, key_col, build_payload_cols), rest) =
            pipeline.split_at_last_probe().ok_or_else(invalid)?;
        let (tables, threads) = (self.tables, self.threads);
        let jt = tables
            .get(ht)
            .ok_or_else(|| EngineError::HashTableNotBuilt { table: ht.to_string() })?;
        // The prefix runs on the stage's sockets, and the join plans its
        // co-partitioning on their spec and count.
        let sockets: Vec<DeviceId> = cpus.iter().map(|&s| DeviceId::Cpu(s)).collect();
        let socket_specs: Vec<CpuSpec> = cpus
            .iter()
            .map(|&c| cpu_spec(&self.engine.server, c).cloned())
            .collect::<Result<_, _>>()?;

        // ---- 1. CPU prefix through the device providers.
        let wall_prefix_start = self.ledger.recorder().now_ns();
        let pre = self.run_workers(&sockets, &prefix, start)?;
        let dop = pre.workers;
        let outputs: Vec<Batch> =
            pre.outputs.into_iter().map(Batch::compact).filter(|b| b.rows() > 0).collect();
        // What step 3 reads of the intermediate. A chunk of match pairs is
        // gathered into the joined layout an in-pipeline probe produces
        // (probe columns, then the build payload), so `rest`'s indices hold
        // as they are. It gathers only what `rest` reads: every column when
        // operators remain; otherwise the group-by ∪ the arguments the fold
        // evaluates (column 0 when the spec reads none, for the row count),
        // every other position a clone of the first gathered column — a
        // view of the right length, never looked at. With no operator after
        // the probe, the fold's spec reads its probe-side arguments
        // pre-evaluated, packet by packet, into columns past the joined
        // layout ([`evaluate_probe_args`]).
        let n_probe = outputs.first().map_or(0, |b| b.columns.len());
        let n_cols = n_probe + build_payload_cols.len();
        let (fold_spec, evaluated) = if rest.ops.is_empty() && !outputs.is_empty() {
            evaluate_probe_args(agg_spec, &outputs, n_cols, threads)
        } else {
            (agg_spec.clone(), Vec::new())
        };
        let rest = Pipeline { agg: Some(fold_spec.clone()), ..rest };
        let args = fold_spec.aggs.iter().filter(|(f, _)| *f != AggFunc::Count);
        let mut reads: Vec<usize> = args.flat_map(|(_, e)| e.columns_used()).collect();
        let group_by = &fold_spec.group_by;
        if !rest.ops.is_empty() {
            reads = (0..n_cols).collect();
        }
        // The intermediate concatenates the key column and the columns a
        // chunk reads; every other position holds the key column, never
        // looked at — so a column only a pre-evaluated argument reads is
        // never copied.
        let inter = match outputs.first() {
            None => Batch::empty(),
            Some(_) => {
                let column = |c: usize| {
                    Column::concat(
                        &outputs.iter().map(|b| b.col(c).clone()).collect::<Vec<_>>(),
                    )
                };
                let keys = column(key_col);
                let read = |c| c != key_col && (reads.contains(&c) || group_by.contains(&c));
                Batch::new(
                    (0..n_probe)
                        .map(|c| if read(c) { column(c) } else { keys.clone() })
                        .collect(),
                )
            }
        };
        let wall_prefix_end = self.ledger.recorder().now_ns();

        // ---- 2. Co-partition + single-pass GPU joins on the stage's
        // lanes. Sides follow the §5 convention: the (smaller) build side
        // is R, the streamed intermediate is S; values are row indices so
        // the match pairs address both batches.
        let mut pairs = Vec::new();
        let mut join_time = SimTime::ZERO;
        let mut first_join_done = SimTime::ZERO;
        let mut cpu_partition_time = SimTime::ZERO;
        if inter.rows() > 0 {
            // Zero-copy: the co-partitioner reads the Arc-backed key
            // column slice directly; no per-stage key vector is built.
            let probe_keys: &[i32] = inter.col(key_col).as_i32();
            let probe_vals: Vec<u32> = (0..inter.rows() as u32).collect();
            let build_vals: Vec<u32> = (0..jt.rows() as u32).collect();
            let cfg = CoprocessConfig {
                n_gpus: gpus.len(),
                cpu_workers: dop,
                variant: BuildProbeVariant::Sm,
                mode: OutputMode::MatchIndices,
                fidelity: Fidelity::Analytic,
                threads,
            };
            let rep;
            (rep, pairs) = coprocess_join_parts(
                &self.server(),
                &socket_specs,
                gpus,
                JoinInput::new(jt.batch.col(jt.key_col).as_i32(), &build_vals),
                JoinInput::new(probe_keys, &probe_vals),
                &cfg,
            )?;
            join_time = rep.outcome.time;
            first_join_done = rep.first_join_done;
            cpu_partition_time = rep.cpu_partition_time;
            // One co-partition assignment per lane is one GPU packet.
            let lanes = gpus.iter().copied().zip(rep.per_gpu_assignments.iter().copied());
            self.ledger.lanes_joined(lanes, rep.h2d_bytes);
            self.ledger.busy(cpu_partition_time, rep.gpu_busy);
        }
        // The pairs stay in the co-partitions' vectors; the fold reads them
        // by position in their concatenation.
        let pairs = PairRuns::new(pairs);
        let n_joined = pairs.len();
        let join_end = pre.end + join_time;
        let wall_join_end = self.ledger.recorder().now_ns();

        // ---- 3. The rest of the pipeline — the operators after the final
        // probe, then the aggregation — folds the match pairs chunk by chunk
        // on the CPU workers. Match pairs stream back as co-partitions
        // complete, so the fold overlaps the join phase (§5's pipelining) —
        // but it cannot start before the first co-partition's join lands
        // *and* the CPUs have finished the co-partitioning passes; the stage
        // ends when both the last join and the fold have finished.
        let fold_start = pre.end + first_join_done.max(cpu_partition_time);
        let spec = socket_specs.first().ok_or_else(invalid)?;
        let model = CpuCostModel::new(spec.clone(), spec.cores);
        let chunk_rows = ExecConfig::auto_packet_rows(n_joined, dop, None);
        // Each chunk runs through `run_ops` on the worker pool and folds
        // into a partial state; the partials merge in chunk order, so the
        // result is thread-count-independent. The charge is what `run_ops`
        // recorded for `rest`'s operators (the pairs stream through
        // registers: no scan) plus the fold's expression work and random
        // accesses into the final group table.
        //
        // With no operator after the probe, a chunk's groups are its pairs'
        // (numbered once per stage), so a chunk neither runs `run_ops` nor
        // gathers a column only the group-by reads.
        let sides = (&inter, &jt.batch, n_probe, build_payload_cols);
        let mut fold = SlotFold::new(fold_spec.clone(), rest.ops.is_empty().then_some(sides));
        if !fold.numbers_pairs() {
            reads.extend(group_by);
        }
        let lead = reads.first().copied().unwrap_or(0);
        let chunks = runtime::scatter(
            threads,
            n_joined.div_ceil(chunk_rows),
            |_| (Scratch::new(), Vec::new()),
            |i, (scratch, local)| {
                let (lo, hi) = (i * chunk_rows, n_joined.min((i + 1) * chunk_rows));
                let (build, probe) = pairs.rows(lo..hi);
                let (build, probe) = (&*build, &*probe);
                let take = |c: usize| match (c.checked_sub(n_probe), c.checked_sub(n_cols)) {
                    (None, _) => inter.col(c).take(probe),
                    (Some(b), None) => jt.batch.col(build_payload_cols[b]).take(build),
                    (_, Some(e)) => evaluated[e].take(probe),
                };
                let (first, own) = (take(lead), |c| c != lead && reads.contains(&c));
                let width = n_cols + evaluated.len();
                let columns = (0..width).map(|c| if own(c) { take(c) } else { first.clone() });
                let batch = Batch::new(columns.collect());
                let (partial, ops) = if fold.numbers_pairs() {
                    (fold.fold_pairs(&batch, (build, probe), local), Vec::new())
                } else {
                    let work = run_ops(batch, &rest, tables, scratch)?;
                    (fold.fold_numbered(&work.out, work.groups.as_ref()), work.ops)
                };
                Ok::<_, EngineError>((partial, cpu_packet_cost(&model, 0, &ops, tables)?))
            },
        );
        let mut ops_busy = SimTime::ZERO;
        for chunk in chunks {
            let (partial, busy) = chunk?;
            fold.merge(&partial);
            ops_busy += busy;
        }
        let state = fold.state();
        let (folded, groups) = (state.rows_seen, state.n_groups());
        // Priced as the original spec: the pre-evaluation is not a charge.
        let fold_busy = ops_busy + hape_ops::cpu::agg_cost(agg_spec, folded, groups, &model);
        self.ledger.busy(fold_busy, SimTime::ZERO);
        let rows = state.finish();
        let end = (fold_start + fold_span(fold_busy, dop)).max(join_end);

        // The §5 phase spans: CPU prefix, the co-partitioned GPU lanes,
        // and the overlapping CPU fold.
        let wall_fold_end = self.ledger.recorder().now_ns();
        let (n_inter, n_joined, n_rows) =
            (inter.rows() as u64, n_joined as u64, rows.len() as u64);
        self.ledger.phase(|| {
            Span::new(SpanKind::Phase, "coprocess prefix", "")
                .at_sim(start, pre.end)
                .at_wall(wall_prefix_start, wall_prefix_end)
                .rows(0, n_inter)
        });
        self.ledger.phase(|| {
            Span::new(SpanKind::Phase, format!("coprocess lanes {ht}"), "")
                .at_sim(pre.end, join_end)
                .at_wall(wall_prefix_end, wall_join_end)
                .rows(n_inter, n_joined)
        });
        self.ledger.phase(|| {
            Span::new(SpanKind::Phase, "coprocess fold", "")
                .at_sim(fold_start, end)
                .at_wall(wall_join_end, wall_fold_end)
                .rows(n_joined, n_rows)
        });
        Ok((rows, end))
    }

    /// The packet loop (the module header's two beats) over a catalog
    /// source: one router, N `dyn DeviceProvider` workers on `devices`
    /// ([`StageEnv::workers_for`]), no knowledge of device types beyond the
    /// trait.
    fn run_workers(
        &mut self,
        devices: &[DeviceId],
        pipeline: &Pipeline,
        start: SimTime,
    ) -> Result<Streamed, EngineError> {
        // The stage's aggregation compiles once: the workers' pricing
        // states are clones of the fold's.
        let fold = pipeline.agg.clone().map(|spec| SlotFold::new(spec, None));
        let mut workers =
            self.workers_for(devices, pipeline, fold.as_ref().map(SlotFold::state))?;
        let table = self.catalog.lookup(&pipeline.source)?;
        if workers.is_empty() {
            return Err(EngineError::NoWorkers { placement: "placed stage".to_string() });
        }
        let shares: usize = workers.iter().map(|w| w.packet_share()).sum();
        let rows_per_packet =
            ExecConfig::auto_packet_rows(table.rows(), shares, self.packet_rows);
        // Split once, before any worker sees a packet: identical at every
        // thread count.
        let packets = pipeline.packets(&table.data, rows_per_packet);
        let (tables, threads) = (self.tables, self.threads);

        // ---- Broadcast the probed hash tables along each worker's input
        // exchanges (a no-op for host-local workers) and check capacities.
        // An armed `BroadcastOom` fault fires here: the allocation for the
        // broadcast copy fails, the device is quarantined, and the typed
        // `DeviceFailed` hands recovery to the stepper's re-placement
        // loop.
        for w in workers.iter_mut() {
            if let Some(g) = w.id().gpu().filter(|&g| self.faults.oom_at_install(g)) {
                self.ledger.fault_fired(|| format!("broadcast OOM on gpu{g}"));
                return Err(EngineError::DeviceFailed { device: format!("gpu{g}") });
            }
            self.ledger.tables_installed(w.install_tables(pipeline, tables, start)?);
        }

        // ---- Alike workers (the server's device classes) price every
        // packet alike: one charge per packet per class, not per worker.
        let classes: Vec<DeviceId> =
            workers.iter().map(|w| self.engine.server.class(w.id().device())).collect();
        let mut reps: Vec<usize> = Vec::new();
        let class_of: Vec<usize> = (0..workers.len())
            .map(|i| match reps.iter().position(|&r| classes[r] == classes[i]) {
                Some(c) => c,
                None => {
                    reps.push(i);
                    reps.len() - 1
                }
            })
            .collect();

        // ---- Phase 1, data plane: per packet, on the pool thread that
        // takes it, the kernels once, the price once per class, and — a
        // stream's packet — the fold into a partial of its own.
        let agg_spec = pipeline.agg.as_ref();
        let shared: &[Box<dyn DeviceProvider>] = &workers;
        // Per-packet wall interval + the pool thread that computed it —
        // measured on the data plane (zeros when the recorder is off),
        // shipped back with the results, entered on the control plane.
        type PacketWall = (u64, u64, usize);
        type Charged = (PacketWork, Vec<SimTime>, Option<SlotPartial>, PacketWall);
        let rec = self.ledger.recorder();
        let charged = runtime::scatter(
            threads,
            packets.len(),
            |t| (Scratch::new(), t),
            |i, state: &mut (Scratch, usize)| {
                let wall_start = rec.now_ns();
                let work = run_ops(packets[i].clone(), pipeline, tables, &mut state.0)?;
                let costs = reps
                    .iter()
                    .map(|&r| shared[r].charge(&work, agg_spec, tables))
                    .collect::<Result<Vec<SimTime>, EngineError>>()?;
                // Through the group ids `run_ops` numbered for pricing; a
                // packet no row survived carries none and folds nothing.
                let partial =
                    fold.as_ref().map(|f| f.fold_numbered(&work.out, work.groups.as_ref()));
                let wall = (wall_start, rec.now_ns(), state.1);
                Ok::<Charged, EngineError>((work, costs, partial, wall))
            },
        );
        // First error in packet order — the same packet the sequential
        // loop would have tripped on.
        let mut works: Vec<Charged> = Vec::with_capacity(charged.len());
        for r in charged {
            works.push(r?);
        }

        // ---- Phase 2, control plane: sequential routing + sim-time
        // accounting, replaying worker `ready_at` state in packet order.
        let mut end = start;
        let mut candidates: Vec<CandidateLoad> = Vec::with_capacity(workers.len());
        for (i, (work, costs, _, wall)) in works.iter().enumerate() {
            let bytes = work.bytes.max(1);
            candidates.clear();
            candidates.extend(workers.iter().map(|w| CandidateLoad {
                ready_at: w.ready_at(start, bytes),
                est_ns_per_byte: w.est_ns_per_byte(),
            }));
            let pick = route(packets[i].bytes(), &candidates);
            let sim_ready = candidates[pick].ready_at;
            let worker = &mut workers[pick];
            // ---- Fault plane: triggers keyed on the routed GPU's
            // control-plane packet ordinal. A `TransferError` comes back
            // already priced onto the worker (before the commit); a
            // `GpuFailed` aborts the stage with the recoverable
            // `DeviceFailed`.
            match self.faults.before_commit(worker.as_mut(), start, bytes) {
                Ok(0) => {}
                Ok(failures) => self.ledger.retry_priced(failures, || {
                    format!("transfer to {} retried {failures}x at packet {i}", worker.id())
                }),
                Err(e) => {
                    if matches!(e, EngineError::DeviceFailed { .. }) {
                        self.ledger
                            .fault_fired(|| format!("{} failed at packet {i}", worker.id()));
                    }
                    return Err(e);
                }
            }
            let outcome = worker.commit_packet(work, costs[class_of[pick]], start);
            end = end.max(outcome.done);
            // The span's sim interval is the routed worker's occupancy;
            // its wall interval is the data-plane pass.
            self.ledger.packet_committed(worker.id(), outcome.h2d_bytes, &work.ops, || {
                Span::new(SpanKind::Packet, format!("packet {i}"), "")
                    .pool_thread(wall.2)
                    .at_sim(sim_ready, outcome.done)
                    .at_wall(wall.0, wall.1)
                    .rows(packets[i].rows() as u64, work.out.rows() as u64)
            });
        }

        // ---- The stage's result: the packets' outputs (build), or their
        // partials merged into the stage's state in packet order (stream),
        // whichever workers the router picked.
        let (outputs, rows) = match fold {
            Some(mut fold) => {
                works.iter().filter_map(|w| w.2.as_ref()).for_each(|p| fold.merge(p));
                (Vec::new(), fold.state().finish())
            }
            None => (works.into_iter().map(|(work, ..)| work.out).collect(), AggRows::new()),
        };

        let busy_of = |gpu: bool| {
            workers.iter().filter(|w| w.id().is_gpu() == gpu).map(|w| w.busy()).sum()
        };
        self.ledger.busy(busy_of(false), busy_of(true));
        Ok(Streamed { outputs, rows, end, workers: workers.len() })
    }
}

/// The per-query execution state of one in-flight placed plan: the table
/// store accumulating built hash tables, the query's private simulated
/// clock (always starting at [`SimTime::ZERO`], regardless of what else
/// the fleet is serving), its ledger and partial results.
///
/// Created by [`Engine::begin`]; advanced one placed stage at a time by
/// [`QueryExec::step`]; consumed by [`QueryExec::finish`]. Because all
/// worker state (clocks, aggregation states, calibrated estimates) is
/// instantiated per stage *inside* the step, interleaving steps of many
/// `QueryExec`s over the same engine — as the serving layer's scheduler
/// does — leaves every query's simulated makespan and result rows
/// bit-identical to running it solo.
pub struct QueryExec<'a> {
    engine: &'a Engine,
    catalog: &'a Catalog,
    // Borrowed for the common fault-free run; re-placement on the
    // surviving fleet swaps in an owned degraded plan mid-query.
    placed: Cow<'a, PlacedPlan>,
    threads: usize,
    tables: TableStore,
    resident: HashSet<String>,
    clock: SimTime,
    rows: AggRows,
    next_stage: usize,
    ledger: Ledger,
    faults: FaultSession,
}

impl<'a> QueryExec<'a> {
    /// Record this execution into `trace` (see [`crate::trace`]): a query
    /// span over the whole run, one stage span per [`QueryExec::step`] —
    /// carrying the optimizer's estimate when the plan has one — and
    /// per-packet spans from the packet loop. A disabled recorder keeps
    /// this a no-op.
    pub fn with_trace(mut self, trace: &TraceRecorder) -> Self {
        self.ledger = Ledger::new(trace.clone(), &self.placed.name);
        self
    }

    /// Arm the fault plane for this execution with a private health
    /// registry (solo runs — each query sees its own fleet health).
    pub fn with_faults(self, plan: &FaultPlan) -> Self {
        self.with_fault_health(plan, HealthRegistry::new())
    }

    /// Arm the fault plane with a *shared* health registry — the serving
    /// layer's: a device a query loses permanently stays quarantined for
    /// every later admission on the same [`crate::serve::SessionServer`].
    pub fn with_fault_health(mut self, plan: &FaultPlan, health: HealthRegistry) -> Self {
        self.faults = FaultSession::new(plan.clone(), health);
        self
    }

    /// The query's private simulated clock (sim time elapsed so far) —
    /// what the serving layer's per-query deadline checks against.
    pub fn sim_time(&self) -> SimTime {
        self.clock
    }

    /// True once every placed stage has run (or been served from cache).
    pub fn is_done(&self) -> bool {
        self.next_stage >= self.placed.stages.len()
    }

    /// Index of the next stage [`QueryExec::step`] would run.
    pub fn stage_index(&self) -> usize {
        self.next_stage
    }

    /// The placed plan this execution interprets — the degraded
    /// re-placement once mid-query recovery has swapped one in.
    pub fn placed(&self) -> &PlacedPlan {
        &self.placed
    }

    /// Pre-install a built hash table under `name`, as the serving
    /// layer's cross-query cache does at admission: the matching
    /// [`PlacedStage::Build`] stage is then skipped entirely — no build
    /// work, no clock advance — and counted in
    /// [`QueryReport::builds_cached`] when the execution reaches it. With
    /// `device_resident`, GPU workers additionally treat the table as
    /// already broadcast: its footprint still counts against device
    /// memory, but the PCIe transfer and partition prep are skipped.
    pub fn install_cached_build(
        &mut self,
        name: &str,
        table: Arc<JoinTable>,
        device_resident: bool,
    ) {
        self.tables.insert(name.to_string(), table);
        if device_resident {
            self.resident.insert(name.to_string());
        }
    }

    /// A hash table built (or cache-installed) so far, by name — how the
    /// serving layer harvests freshly built tables into its cache.
    pub fn built_table(&self, name: &str) -> Option<Arc<JoinTable>> {
        self.tables.get(name).cloned()
    }

    /// Drive the execution to completion — the one begin → step → finish
    /// loop every solo front door ([`Engine::run`],
    /// [`Engine::run_placed`], [`crate::session::Session::execute_with`])
    /// goes through.
    pub fn run(mut self) -> Result<QueryReport, EngineError> {
        while !self.is_done() {
            self.step()?;
        }
        Ok(self.finish())
    }

    /// Run the next placed stage to completion. A no-op once
    /// [`QueryExec::is_done`]; errors leave the execution positioned
    /// after the failed stage (per-query failure isolation: other
    /// in-flight queries are unaffected).
    ///
    /// With the fault plane armed, the stage-barrier faults fire first
    /// and a stage lost to a (recoverable) [`EngineError::DeviceFailed`]
    /// is re-placed on the surviving fleet and re-run from this barrier —
    /// bounded by [`crate::fault::RetryPolicy::max_replans`], after which the typed
    /// [`EngineError::RecoveryFailed`] surfaces. Aborted attempts leave
    /// no trace in the query's clock, report or counters (only their
    /// fault spans): the ledger publishes a stage when it returns `Ok`.
    pub fn step(&mut self) -> Result<(), EngineError> {
        let idx = self.next_stage;
        let Some(stage) = self.placed.stages.get(idx) else {
            return Ok(());
        };
        let is_build = matches!(stage, PlacedStage::Build { .. });
        self.next_stage += 1;
        self.ledger.open_stage(idx, is_build);
        // Stage-/time-triggered faults fire at the barrier, before any of
        // the stage's workers exist: permanent losses land in the health
        // registry, slow-downs derate links, OOMs arm for the next
        // broadcast install.
        for spec in self.faults.begin_stage(idx, self.clock) {
            self.ledger.fault_fired(|| {
                format!("injected {:?} on gpu{} at stage {idx} barrier", spec.kind, spec.gpu)
            });
        }
        loop {
            match self.run_stage_at(idx) {
                Err(EngineError::DeviceFailed { device }) if self.faults.is_active() => {
                    let policy = self.faults.retry_policy();
                    if self.ledger.tally().replans >= policy.max_replans as usize {
                        return Err(EngineError::RecoveryFailed {
                            reason: format!(
                                "replan budget ({}) exhausted after losing {device}",
                                policy.max_replans
                            ),
                        });
                    }
                    self.replan_surviving(idx, &device)?;
                    self.ledger.open_stage(idx, is_build);
                }
                other => return other,
            }
        }
    }

    /// Interpret one placed stage by index — the retried unit of the
    /// recovery loop. Clones the stage up front: the plan may be
    /// `Cow::Owned` after a re-placement and the interpretation mutates
    /// `self` throughout.
    fn run_stage_at(&mut self, idx: usize) -> Result<(), EngineError> {
        let Some(stage) = self.placed.stages.get(idx).cloned() else {
            return Ok(());
        };
        let pipeline = stage.pipeline();
        let (start, wall_start) = (self.clock, self.ledger.recorder().now_ns());
        let mut env = StageEnv {
            engine: self.engine,
            catalog: self.catalog,
            tables: &self.tables,
            resident: &self.resident,
            threads: self.threads,
            packet_rows: self.placed.packet_rows,
            faults: &self.faults,
            ledger: &mut self.ledger,
        };
        let rows_out = match &stage {
            PlacedStage::Build { name, key_col, .. } => {
                if env.tables.contains_key(name) {
                    // Served from the cross-query cache at admission.
                    env.ledger.build_served(name, start, wall_start);
                    return Ok(());
                }
                // Build stages always auto-size: plumbing, not the workload.
                env.packet_rows = None;
                let out = env.run_workers(&stage.devices(), pipeline, start)?;
                self.clock = out.end;
                let table = Arc::new(JoinTable::build(Batch::concat(out.outputs), *key_col));
                let rows = table.rows();
                self.tables.insert(name.clone(), table);
                rows
            }
            PlacedStage::Stream { .. } => {
                stream_agg(pipeline)?;
                let out = env.run_workers(&stage.devices(), pipeline, start)?;
                (self.rows, self.clock) = (out.rows, out.end);
                self.rows.len()
            }
            PlacedStage::CoProcess { cpus, gpus, .. } => {
                (self.rows, self.clock) =
                    env.run_coprocess_stage(pipeline, cpus, gpus, start)?;
                self.rows.len()
            }
        };
        // The predicted-vs-observed record: the optimizer's chosen
        // estimate (Auto plans only) rides the stage span next to the
        // observed simulated elapsed time and row counts.
        let (catalog, end, wall_end) =
            (self.catalog, self.clock, self.ledger.recorder().now_ns());
        let estimate = self.placed.costs.as_ref().and_then(|c| c.stages.get(idx));
        self.ledger.stage_done(|| {
            let name = match &stage {
                PlacedStage::Build { name, .. } => format!("build {name}"),
                PlacedStage::Stream { .. } => format!("stream {}", pipeline.source),
                PlacedStage::CoProcess { .. } => {
                    format!("coprocess {}", pipeline.last_probe().map_or("", |(_, ht)| ht))
                }
            };
            let rows_in = catalog.lookup(&pipeline.source).map_or(0, |t| t.rows() as u64);
            let span = Span::new(SpanKind::Stage, name, "")
                .at_sim(start, end)
                .at_wall(wall_start, wall_end)
                .rows(rows_in, rows_out as u64);
            match estimate {
                Some(est) => span.estimate(est.clone()),
                None => span,
            }
        });
        Ok(())
    }

    /// Mid-query re-placement after losing `lost`: re-derive the logical
    /// plan, route it around the quarantined devices through the ordinary
    /// placement passes, price one backoff onto the sim clock and swap the
    /// degraded plan in. Nothing is re-verified: the pipelines already bound
    /// at [`Engine::begin`], and the new plan adds only device subsets. The
    /// stage at `idx` then re-runs from its barrier; completed builds stay
    /// in the table store as host copies (device-resident copies on the old
    /// fleet are dropped).
    fn replan_surviving(&mut self, idx: usize, lost: &str) -> Result<(), EngineError> {
        let excluded = self.faults.excluded();
        let server = &self.engine.server;
        let survives = |d: &DeviceId| match d {
            DeviceId::Gpu(g) => !excluded.contains(g),
            DeviceId::Cpu(_) => true,
        };
        let logical = self.placed.logical();
        let mut cfg = ExecConfig::new(Placement::Auto);
        cfg.packet_rows = self.placed.packet_rows;
        cfg.threads = self.placed.threads;
        let replaced = if self.placed.costs.is_some() {
            // The optimizer placed this plan: re-optimize every stage
            // against the surviving pool.
            let pool: Vec<DeviceId> =
                participants(Placement::Auto, server).into_iter().filter(survives).collect();
            crate::optimize::optimize_on(&logical, self.catalog, &cfg, server, &pool)
        } else {
            // Manual placement: keep each stage's device set minus the
            // quarantined GPUs; a stage left empty falls back to the
            // surviving CPUs.
            let cpu_survivors = participants(Placement::CpuOnly, server);
            let subsets: Vec<Vec<DeviceId>> = self
                .placed
                .stages
                .iter()
                .map(|stage| {
                    let kept: Vec<DeviceId> =
                        stage.devices().into_iter().filter(|d| survives(d)).collect();
                    if kept.is_empty() {
                        cpu_survivors.clone()
                    } else {
                        kept
                    }
                })
                .collect();
            place_on(&logical, &cfg, server, &subsets)
        };
        // A degraded plan that genuinely cannot fit fails in the interpreter
        // with the same typed error a fault-free run would produce.
        let new_placed = replaced.map_err(|e| EngineError::RecoveryFailed {
            reason: format!("lost {lost}; re-placement refused: {e}"),
        })?;
        self.resident.clear();
        // Recovery is priced: one backoff per replan attempt lands on the
        // query's simulated clock (see the cost-formula table).
        let attempt = self.ledger.tally().replans as u32 + 1;
        self.clock += self.faults.retry_policy().backoff(attempt);
        self.ledger.replanned(|| {
            format!("replanned stage {idx} on surviving fleet after losing {lost}")
        });
        self.placed = Cow::Owned(new_placed);
        Ok(())
    }

    /// Consume the execution into its final report — read off the ledger.
    pub fn finish(self) -> QueryReport {
        self.ledger.query_done(self.clock, self.rows.len() as u64);
        QueryReport { rows: self.rows, time: self.clock, ..self.ledger.tally().clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinAlgo, Pipeline, Stage};
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_storage::datagen::gen_key_fk_table;

    fn setup() -> (Catalog, QueryPlan) {
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 1));
        catalog.register_as("dim", gen_key_fk_table(1 << 14, 1 << 14, 2));
        let plan = QueryPlan::try_new(
            "test",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![
                            (AggFunc::Count, Expr::col(0)),
                            (AggFunc::Sum, Expr::col(2)),
                        ])),
                },
            ],
        )
        .unwrap();
        (catalog, plan)
    }

    #[test]
    fn all_placements_agree_on_results() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let mut results = Vec::new();
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            let rep = engine.run(&catalog, &plan, &ExecConfig::new(placement)).unwrap();
            assert_eq!(rep.rows[0].1[0], (1 << 14) as f64, "{placement:?}");
            results.push(rep.rows.clone());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn hybrid_uses_both_device_kinds() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        assert!(rep.packets_cpu > 0, "no CPU packets");
        assert!(rep.packets_gpu > 0, "no GPU packets");
        assert!(rep.h2d_bytes > 0);
        assert!(rep.gpu_busy.as_ns() > 0.0);
        assert!(rep.cpu_busy.as_ns() > 0.0);
    }

    #[test]
    fn gpu_only_moves_everything_over_pcie() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::GpuOnly)).unwrap();
        assert_eq!(rep.packets_cpu, 0);
        assert!(rep.packets_gpu > 0);
        // Fact table + hash-table broadcast both crossed PCIe.
        let fact_bytes = catalog.expect("fact").bytes();
        assert!(rep.h2d_bytes > fact_bytes);
    }

    #[test]
    fn oversized_hash_table_rejected_on_gpu() {
        let (catalog, plan) = setup();
        // GPU memory scaled to ~96 KiB: the 16K-entry table cannot fit.
        let engine = Engine::new(Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0));
        let err =
            engine.run(&catalog, &plan, &ExecConfig::new(Placement::GpuOnly)).unwrap_err();
        assert!(matches!(err, EngineError::GpuMemoryExceeded { .. }), "{err}");
        // CPU-only still works.
        assert!(engine.run(&catalog, &plan, &ExecConfig::new(Placement::CpuOnly)).is_ok());
    }

    #[test]
    fn missing_table_reported() {
        let (_, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let err = engine
            .run(&Catalog::new(), &plan, &ExecConfig::new(Placement::CpuOnly))
            .unwrap_err();
        let kind = unbound_kind(err);
        assert_eq!(kind, DiagnosticKind::UnknownSource { table: "dim".into() });
    }

    #[test]
    fn gpu_placement_on_cpu_only_server_is_a_typed_error() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::cpu_only());
        let err =
            engine.run(&catalog, &plan, &ExecConfig::new(Placement::GpuOnly)).unwrap_err();
        assert!(matches!(err, EngineError::NoWorkers { .. }), "{err}");
        // Hybrid degrades gracefully to the CPUs that do exist.
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        assert_eq!(rep.packets_gpu, 0);
        assert!(rep.packets_cpu > 0);
    }

    #[test]
    fn placed_plan_against_smaller_server_is_a_typed_error() {
        // Place against the 2-GPU testbed, run on a 1-GPU server: the
        // second GPU segment must surface DeviceNotPresent, not panic.
        let (catalog, plan) = setup();
        let placed = crate::place::place(
            &plan,
            &ExecConfig::new(Placement::GpuOnly),
            &Server::paper_testbed(),
        )
        .unwrap();
        let engine = Engine::new(Server::single_gpu());
        let err = engine.run_placed(&catalog, &placed).unwrap_err();
        assert!(matches!(err, EngineError::DeviceNotPresent { .. }), "{err}");
    }

    #[test]
    fn unbuilt_hash_table_is_a_typed_error_not_a_panic() {
        // A hand-assembled placed plan whose stream probes a table no
        // stage built — only constructible by bypassing plan validation.
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let mut placed =
            crate::place::place(&plan, &ExecConfig::new(Placement::CpuOnly), &engine.server)
                .unwrap();
        placed.stages.remove(0); // drop the build stage
        let err = engine.run_placed(&catalog, &placed).unwrap_err();
        assert_eq!(unbound_kind(err), DiagnosticKind::ProbeUnbuilt { ht: "dim_ht".into() });
    }

    /// A stateful plan assembled by hand over `ev(user i32, ts i64, score
    /// f64)` — no lowering has type-checked its column indices.
    fn hand_built_sessionize(user_col: usize) -> (Catalog, QueryPlan) {
        use hape_storage::{Batch, Column, DataType, Schema, Table};
        let mut catalog = Catalog::new();
        catalog.register(Table::new(
            "ev",
            Schema::new([
                ("user", DataType::I32),
                ("ts", DataType::I64),
                ("score", DataType::F64),
            ]),
            Batch::new(vec![
                Column::from_i32(vec![1, 1, 2]),
                Column::from_i64(vec![0, 5_000, 10]),
                Column::from_f64(vec![0.5, 1.5, 2.5]),
            ]),
        ));
        let sessions = hape_ops::StatefulAgg::Sessionize { user_col, ts_col: 1, gap: 1_800 };
        let pipeline = Pipeline::scan("ev")
            .stateful(sessions)
            .aggregate(AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))]));
        (catalog, QueryPlan::try_new("sessions", vec![Stage::Stream { pipeline }]).unwrap())
    }

    /// The kind of a refusal's finding; panics on any other error.
    fn unbound_kind(err: EngineError) -> DiagnosticKind {
        match err {
            EngineError::InvalidPlan(PlanError::Unbound(d)) => d.kind,
            other => panic!("expected InvalidPlan(Unbound), got {other:?}"),
        }
    }

    /// `Engine::run` refuses the hand-built plan with `expected` under
    /// every placement (so also before the optimizer), without panicking.
    fn assert_stateful_refused(user_col: usize, expected: &DiagnosticKind) {
        let (catalog, plan) = hand_built_sessionize(user_col);
        let engine = Engine::new(Server::paper_testbed());
        for p in [Placement::CpuOnly, Placement::Hybrid, Placement::Auto] {
            let err = engine.run(&catalog, &plan, &ExecConfig::new(p)).unwrap_err();
            assert_eq!(&unbound_kind(err), expected, "{p:?}");
        }
    }

    #[test]
    fn hand_built_stateful_plan_runs_when_its_columns_fit() {
        let (catalog, plan) = hand_built_sessionize(0);
        let engine = Engine::new(Server::paper_testbed());
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        assert_eq!(rep.rows[0].1, vec![3.0], "user 1 has two sessions, user 2 one");
    }

    #[test]
    fn stateful_over_a_float_column_is_refused_not_a_panic() {
        // Release builds run no verifier before `run_workers`; the kernels
        // used to panic `stateful aggregate over a float column`.
        let found = hape_storage::DataType::F64;
        assert_stateful_refused(
            2,
            &DiagnosticKind::StatefulColumnType { column: 2, role: "user", found },
        );
    }

    #[test]
    fn stateful_column_outside_the_source_is_refused_not_a_panic() {
        // Used to panic `index out of bounds` in the user-aligned split.
        let kind = DiagnosticKind::StatefulAlignmentInvalid {
            role: "user",
            user_col: 7,
            source_width: 3,
        };
        assert_stateful_refused(7, &kind);
        let (catalog, plan) = hand_built_sessionize(7);
        let err = plan.bind(&catalog).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid plan: plan does not bind: stage 0 op 0: [determinism] stateful user \
             column 7 is outside the source schema (width 3); packet alignment would be undefined"
        );
    }

    #[test]
    fn placement_parses_and_displays_round_trip() {
        for p in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto] {
            assert_eq!(p.to_string().parse::<Placement>().unwrap(), p);
        }
        assert_eq!("CPU-only".parse::<Placement>().unwrap(), Placement::CpuOnly);
        assert_eq!("gpuonly".parse::<Placement>().unwrap(), Placement::GpuOnly);
        assert_eq!("AUTO".parse::<Placement>().unwrap(), Placement::Auto);
        let err = "both".parse::<Placement>().unwrap_err();
        assert!(err.to_string().contains("both"), "{err}");
    }

    #[test]
    fn auto_runs_through_the_optimizer_and_matches_manual_results() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let auto = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Auto)).unwrap();
        let cpu = engine.run(&catalog, &plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        assert_eq!(auto.rows, cpu.rows);
        // Handing Auto to the bare placement pass is a typed error.
        let err = crate::place::place(
            &plan,
            &ExecConfig::new(Placement::Auto),
            &Server::paper_testbed(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::AutoWithoutOptimizer), "{err}");
    }

    #[test]
    fn deterministic_execution() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let a = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        let b = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.time, b.time);
        assert_eq!(a.packets_gpu, b.packets_gpu);
    }
}
