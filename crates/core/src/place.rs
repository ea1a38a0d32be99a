//! The placement pass: [`QueryPlan`] + [`ExecConfig`] → [`PlacedPlan`].
//!
//! This is the HetExchange separation (§3) made explicit as an IR layer:
//! relational operators stay heterogeneity-oblivious while a *placement*
//! decides where each pipeline runs. A placed plan stores that decision and
//! nothing else — per stage, the devices it runs on: one [`Segment`] per
//! participating device, or a §5 co-processing stage's CPU sockets and GPU
//! lanes. Everything HetExchange derives from a placement is a function of
//! those subsets, the server and the pipeline, computed where it is read:
//! [`Segment::traits`] (the [`HetTraits`] a segment's operators execute
//! under), [`Segment::exchanges`] (an [`Exchange::MemMove`] /
//! [`Exchange::DeviceCrossing`] wherever the source traits and the
//! segment's disagree, by [`HetTraits::needs_mem_move`] /
//! [`HetTraits::needs_device_crossing`]) and [`PlacedStage::router`] (the
//! [`Exchange::Router`], by [`HetTraits::needs_router`]). A placed plan
//! therefore cannot state them inconsistently. The engine interprets the
//! placed plan generically over [`crate::provider::DeviceProvider`]s; no
//! placement-enum branching survives on the execution path —
//! [`Placement`] is only sugar selecting which devices participate here.

use hape_sim::topology::{DeviceId, Server};

use crate::cost::PlanCost;
use crate::engine::{ExecConfig, Placement};
use crate::error::EngineError;
use crate::exchange::Exchange;
use crate::plan::{PipeOp, Pipeline, QueryPlan, Stage};
use crate::traits::{DeviceType, HetTraits};

/// One pipeline segment placed on a concrete device: the unit the router
/// feeds. Its operator instances all run on `target`; its traits and the
/// exchanges on its input edge are derived ([`Segment::traits`],
/// [`Segment::exchanges`]), never stored.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The device the segment's operator instances run on.
    pub target: DeviceId,
}

impl Segment {
    /// The traits the segment's operators execute under on `server`.
    ///
    /// CPU segments run one instance per core of their socket and keep host
    /// (`dram0`) locality: workers stream socket-0 resident packets in place
    /// (NUMA placement is not modelled, so the cross-socket link never
    /// appears on the packet path). GPU segments run one instance in device
    /// memory — their packets must be mem-moved across PCIe. A socket the
    /// server lacks has dop 0.
    pub fn traits(&self, server: &Server) -> HetTraits {
        let dop = match self.target {
            DeviceId::Cpu(socket) => server.cpus.get(socket).map_or(0, |cpu| cpu.cores),
            DeviceId::Gpu(_) => 1,
        };
        HetTraits { dop, ..self.edge_traits() }
    }

    /// The device and locality traits, which follow from the target alone
    /// (the dop is converted stage-wide, by the router).
    fn edge_traits(&self) -> HetTraits {
        match self.target {
            DeviceId::Cpu(_) => HetTraits::cpu_seq(),
            DeviceId::Gpu(_) => {
                HetTraits { device: DeviceType::Gpu, dop: 1, locality: self.target.local_mem() }
            }
        }
    }

    /// The exchanges on the segment's input edge when it runs `pipeline`, in
    /// conversion order: the streaming mem-move, the device crossing, then
    /// one broadcast mem-move per table the pipeline probes (built hash
    /// tables live in host memory) — the tables a GPU worker installs. A CPU
    /// segment shares the source's traits and has none. (The router is
    /// stage-level: [`PlacedStage::router`].)
    pub fn exchanges(&self, pipeline: &Pipeline) -> Vec<Exchange> {
        let (source, traits) = (HetTraits::cpu_seq(), self.edge_traits());
        let mem_move = |table: Option<&str>| Exchange::MemMove {
            from: source.locality,
            to: traits.locality,
            table: table.map(str::to_string),
        };
        let mut exchanges = Vec::new();
        if source.needs_mem_move(&traits) {
            exchanges.push(mem_move(None));
        }
        if source.needs_device_crossing(&traits) {
            exchanges.push(Exchange::DeviceCrossing { from: source.device, to: traits.device });
        }
        if source.needs_mem_move(&traits) {
            exchanges.extend(pipeline.tables_probed().into_iter().map(|ht| mem_move(Some(ht))));
        }
        exchanges
    }
}

/// One placed stage: the stage's pipeline plus where it runs.
#[derive(Debug, Clone)]
pub enum PlacedStage {
    /// Build a named hash table over the pipeline's output.
    Build {
        /// Name under which probes reference the table.
        name: String,
        /// Key column of the pipeline's output.
        key_col: usize,
        /// The producing pipeline.
        pipeline: Pipeline,
        /// The placed segments, in router candidate order.
        segments: Vec<Segment>,
    },
    /// Run the pipeline into its terminal aggregation.
    Stream {
        /// The aggregating pipeline.
        pipeline: Pipeline,
        /// The placed segments, in router candidate order.
        segments: Vec<Segment>,
    },
    /// Run the pipeline as an intra-operator co-processing stage (§5): the
    /// CPU sockets execute the pipeline prefix and co-partition the stream
    /// against its final probe's oversized hash table
    /// ([`Pipeline::last_probe`]); every co-partition pair makes a single
    /// PCIe pass and joins on one of `gpus` — each priced and
    /// capacity-checked against its own spec. The chosen aggregation then
    /// folds CPU-side. The optimizer chooses this over a
    /// [`PlacedStage::Stream`], which broadcasts every probed table, when a
    /// probed table exceeds every GPU's memory (§6.4).
    CoProcess {
        /// The aggregating pipeline (its final probe is co-processed).
        pipeline: Pipeline,
        /// The CPU sockets running the prefix and the co-partitioning.
        cpus: Vec<usize>,
        /// The GPUs receiving co-partition pairs for single-pass joins.
        gpus: Vec<usize>,
    },
}

impl PlacedStage {
    /// The stage's pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        match self {
            PlacedStage::Build { pipeline, .. }
            | PlacedStage::Stream { pipeline, .. }
            | PlacedStage::CoProcess { pipeline, .. } => pipeline,
        }
    }

    /// The devices the stage's router fans packets out over, in candidate
    /// order: the segments' targets (a co-processing stage's CPU sockets).
    fn routed(&self) -> Vec<DeviceId> {
        match self {
            PlacedStage::Build { segments, .. } | PlacedStage::Stream { segments, .. } => {
                segments.iter().map(|s| s.target).collect()
            }
            PlacedStage::CoProcess { cpus, .. } => {
                cpus.iter().map(|&s| DeviceId::Cpu(s)).collect()
            }
        }
    }

    /// Every device the stage runs on: the routed devices, then a
    /// co-processing stage's GPU lanes. What `verify` audits against the
    /// server, and the seed the fault plane filters against a degraded fleet
    /// before handing [`place_on`] its per-stage subsets.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut devices = self.routed();
        if let PlacedStage::CoProcess { gpus, .. } = self {
            devices.extend(gpus.iter().map(|&g| DeviceId::Gpu(g)));
        }
        devices
    }

    /// The stage-level router on `server`: present when the routed devices'
    /// summed dop differs from the sequential source's, converting 1 → that
    /// sum.
    pub fn router(&self, server: &Server) -> Option<Exchange> {
        let source = HetTraits::cpu_seq();
        let dop = self.routed().into_iter().map(|target| Segment { target }.traits(server).dop);
        let target = HetTraits { dop: dop.sum(), ..source };
        source
            .needs_router(&target)
            .then_some(Exchange::Router { from_dop: source.dop, to_dop: target.dop })
    }
}

/// A fully placed physical plan: the executable IR the engine interprets.
#[derive(Debug, Clone)]
pub struct PlacedPlan {
    /// Display name (e.g. `"Q5"`).
    pub name: String,
    /// Rows per packet for the *stream* stage (`None` = auto: ~4 packets
    /// per worker share; `Some(0)` is one-row packets, like `Some(1)` —
    /// [`ExecConfig::auto_packet_rows`]). Build stages always auto-size —
    /// they are plumbing, not the tunable workload.
    pub packet_rows: Option<usize>,
    /// Data-plane threads for the interpreter's worker pool (`None` =
    /// resolve from the environment; see
    /// [`crate::runtime::resolve_threads`]). Purely a wall-clock knob —
    /// simulated results are thread-count-invariant.
    pub threads: Option<usize>,
    /// The placed stages, executed in order.
    pub stages: Vec<PlacedStage>,
    /// Per-stage cost estimates, attached when the cost-based optimizer
    /// ([`crate::optimize::optimize`]) chose the subsets; `None` for
    /// manually placed plans. Rendered by [`PlacedPlan::render`].
    pub costs: Option<PlanCost>,
}

/// The devices a placement selects on a server — [`Placement`] survives
/// only as this sugar; nothing downstream branches on it. For
/// [`Placement::Auto`] this is the *candidate pool* (every device): the
/// cost-based optimizer narrows it to per-stage subsets.
pub fn participants(placement: Placement, server: &Server) -> Vec<DeviceId> {
    server
        .devices()
        .into_iter()
        .filter(|d| match placement {
            Placement::CpuOnly => !d.is_gpu(),
            Placement::GpuOnly => d.is_gpu(),
            Placement::Hybrid | Placement::Auto => true,
        })
        .collect()
}

/// Run the placement pass: pick the participating devices for `cfg` and
/// place every stage on them ([`place_on`], which also validates `plan`'s
/// structure — this pass and the optimizer both end there).
///
/// Under a manual placement, build stages always run CPU-side (dimension
/// pipelines are scan-light and their tables must end up host-resident
/// for broadcasting) and the stream stage runs on the placement's
/// devices. A placement that selects no existing device — e.g.
/// [`Placement::GpuOnly`] on a zero-GPU server — is the typed
/// [`EngineError::NoWorkers`], not a panic.
///
/// [`Placement::Auto`] has no fixed device pool to fan over: it needs the
/// catalog statistics the cost-based optimizer consumes, so handing it to
/// this pass directly is the typed [`EngineError::AutoWithoutOptimizer`].
/// [`crate::session::Session`] and [`crate::engine::Engine::run`] route
/// `Auto` through [`crate::optimize::optimize`] automatically.
pub fn place(
    plan: &QueryPlan,
    cfg: &ExecConfig,
    server: &Server,
) -> Result<PlacedPlan, EngineError> {
    if cfg.placement == Placement::Auto {
        return Err(EngineError::AutoWithoutOptimizer);
    }
    let stream_devices = participants(cfg.placement, server);
    if stream_devices.is_empty() {
        return Err(EngineError::NoWorkers { placement: format!("{:?}", cfg.placement) });
    }
    let build_devices = participants(Placement::CpuOnly, server);
    let subsets: Vec<Vec<DeviceId>> = plan
        .stages
        .iter()
        .map(|stage| match stage {
            Stage::Build { .. } => build_devices.clone(),
            Stage::Stream { .. } => stream_devices.clone(),
        })
        .collect();
    place_on(plan, cfg, server, &subsets)
}

/// Rewrite a placed *stream* stage into a co-processing stage
/// ([`PlacedStage::CoProcess`]): the stream's CPU segments keep running
/// the pipeline prefix, while `gpus` become the single-pass join lanes for
/// its final probe. This is the entry point the cost-based optimizer uses
/// after [`place_on`] placed the stage's CPU side.
///
/// The stage must be a stream that probes, placed on CPUs only (the
/// co-partitioning is CPU work), and `gpus` must be a non-empty list of
/// GPUs; anything else is the typed [`EngineError::InvalidCoProcessStage`].
pub fn into_coprocess_stage(
    stage: PlacedStage,
    gpus: &[DeviceId],
) -> Result<PlacedStage, EngineError> {
    let (pipeline, segments) = match stage {
        PlacedStage::Stream { pipeline, segments } => (pipeline, segments),
        other => {
            let scan = other.pipeline().source.clone();
            return Err(EngineError::InvalidCoProcessStage { scan });
        }
    };
    let cpus: Option<Vec<usize>> = segments
        .iter()
        .map(|s| match s.target {
            DeviceId::Cpu(socket) => Some(socket),
            DeviceId::Gpu(_) => None,
        })
        .collect();
    let lanes: Option<Vec<usize>> = gpus
        .iter()
        .map(|d| match *d {
            DeviceId::Gpu(g) => Some(g),
            DeviceId::Cpu(_) => None,
        })
        .collect();
    match (cpus, lanes) {
        (Some(cpus), Some(gpus)) if !gpus.is_empty() && pipeline.last_probe().is_some() => {
            Ok(PlacedStage::CoProcess { pipeline, cpus, gpus })
        }
        _ => Err(EngineError::InvalidCoProcessStage { scan: pipeline.source }),
    }
}

/// Place each stage of `plan` on an explicit device subset — the entry
/// point the cost-based optimizer drives, one subset per stage in stage
/// order. A stage handed an empty subset is the typed
/// [`EngineError::NoWorkers`]; a subset naming a device `server` lacks is
/// the typed [`EngineError::DeviceNotPresent`]; a subset list whose length
/// does not match the plan's stage count is the typed
/// [`EngineError::SubsetCountMismatch`].
pub fn place_on(
    plan: &QueryPlan,
    cfg: &ExecConfig,
    server: &Server,
    subsets: &[Vec<DeviceId>],
) -> Result<PlacedPlan, EngineError> {
    plan.validate().map_err(EngineError::InvalidPlan)?;
    if subsets.len() != plan.stages.len() {
        return Err(EngineError::SubsetCountMismatch {
            stages: plan.stages.len(),
            subsets: subsets.len(),
        });
    }
    let present = server.devices();
    let mut stages = Vec::with_capacity(plan.stages.len());
    for (stage, devices) in plan.stages.iter().zip(subsets) {
        if devices.is_empty() {
            return Err(EngineError::NoWorkers {
                placement: "empty device subset".to_string(),
            });
        }
        if let Some(absent) = devices.iter().find(|d| !present.contains(d)) {
            return Err(EngineError::DeviceNotPresent { device: absent.to_string() });
        }
        let segments = devices.iter().map(|&target| Segment { target }).collect();
        stages.push(match stage {
            Stage::Build { name, key_col, pipeline } => PlacedStage::Build {
                name: name.clone(),
                key_col: *key_col,
                pipeline: pipeline.clone(),
                segments,
            },
            Stage::Stream { pipeline } => {
                PlacedStage::Stream { pipeline: pipeline.clone(), segments }
            }
        });
    }
    Ok(PlacedPlan {
        name: plan.name.clone(),
        packet_rows: cfg.packet_rows,
        threads: cfg.threads,
        stages,
        costs: None,
    })
}

impl PlacedPlan {
    /// The stages as the binding walk ([`crate::plan::QueryPlan::bind`])
    /// sees them.
    pub(crate) fn views(&self) -> impl Iterator<Item = crate::plan::StageView<'_>> {
        self.stages.iter().map(|stage| match stage {
            PlacedStage::Build { name, key_col, pipeline, .. } => {
                (Some((name.as_str(), *key_col)), pipeline)
            }
            PlacedStage::Stream { pipeline, .. } | PlacedStage::CoProcess { pipeline, .. } => {
                (None, pipeline)
            }
        })
    }

    /// Reconstruct the logical [`QueryPlan`] this placed plan realises —
    /// the input the `optimize`/`place_on` passes need to re-place the
    /// query on a *degraded* topology after permanent device loss.
    /// Co-processing stages collapse back to the stream stage they were
    /// rewritten from (`into_coprocess_stage` keeps the probe in the
    /// pipeline, so the reconstruction is lossless).
    pub fn logical(&self) -> QueryPlan {
        QueryPlan {
            name: self.name.clone(),
            stages: self
                .stages
                .iter()
                .map(|s| match s {
                    PlacedStage::Build { name, key_col, pipeline, .. } => Stage::Build {
                        name: name.clone(),
                        key_col: *key_col,
                        pipeline: pipeline.clone(),
                    },
                    PlacedStage::Stream { pipeline, .. }
                    | PlacedStage::CoProcess { pipeline, .. } => {
                        Stage::Stream { pipeline: pipeline.clone() }
                    }
                })
                .collect(),
        }
    }

    /// Render the placed plan for humans: one block per stage listing the
    /// pipeline shape, the router, and each segment with the traits and
    /// input-edge exchanges derived for it on `server`. Optimized plans
    /// additionally render the chosen subset's per-stage cost estimate and
    /// the estimated plan makespan. This is what
    /// [`crate::session::Session::explain`] returns.
    pub fn render(&self, server: &Server) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "PlacedPlan {}", self.name);
        for (i, stage) in self.stages.iter().enumerate() {
            let pipeline = stage.pipeline();
            let coprocessed = pipeline.last_probe().map_or("", |(_, ht)| ht);
            match stage {
                PlacedStage::Build { name, key_col, .. } => {
                    let _ = writeln!(out, "stage {i}: build {name} (key col {key_col})");
                }
                PlacedStage::Stream { .. } => {
                    let _ = writeln!(out, "stage {i}: stream");
                }
                PlacedStage::CoProcess { .. } => {
                    let _ = writeln!(out, "stage {i}: stream (co-process {coprocessed:?})");
                }
            }
            let _ = writeln!(out, "  pipeline: {}", render_pipeline(pipeline));
            if let Some(router) = stage.router(server) {
                let _ = writeln!(out, "  {router}");
            }
            for target in stage.routed() {
                let seg = Segment { target };
                let t = seg.traits(server);
                let _ = writeln!(
                    out,
                    "  segment {target}: {:?} dop={} mem={}",
                    t.device, t.dop, t.locality
                );
                for x in seg.exchanges(pipeline) {
                    let _ = writeln!(out, "    {x}");
                }
            }
            if let PlacedStage::CoProcess { gpus, .. } = stage {
                let lanes: Vec<String> =
                    gpus.iter().map(|&g| DeviceId::Gpu(g).to_string()).collect();
                let _ = writeln!(
                    out,
                    "  co-process: cpu co-partition {coprocessed:?} -> single-pass join on {}",
                    lanes.join(", "),
                );
            }
            if let Some(cost) = self.costs.as_ref().and_then(|c| c.stages.get(i)) {
                let _ = writeln!(
                    out,
                    "  est: total {} = stream {} + broadcast {} + d2h {}",
                    fmt_ms(cost.total_seconds()),
                    fmt_ms(cost.stream_seconds),
                    fmt_ms(cost.broadcast_seconds),
                    fmt_ms(cost.d2h_seconds),
                );
                if let Some(cp) = &cost.coprocess {
                    let _ = writeln!(
                        out,
                        "  est: co-process cpu-partition {} (2^{} fanout) + gpu pass {}",
                        fmt_ms(cp.cpu_partition_seconds),
                        cp.cpu_bits,
                        fmt_ms(cp.gpu_pass_seconds),
                    );
                    let _ = writeln!(
                        out,
                        "  est: co-partition pair {} B of {} B gpu budget",
                        cp.per_partition_bytes,
                        cost.gpu_capacity.unwrap_or(0),
                    );
                } else if let Some(cap) = cost.gpu_capacity {
                    let _ = writeln!(
                        out,
                        "  est: gpu hash tables {} B ({} B with working space) of {cap} B",
                        cost.ht_bytes, cost.gpu_required,
                    );
                }
            }
        }
        if let Some(costs) = &self.costs {
            let _ = writeln!(out, "est makespan: {}", fmt_ms(costs.total_seconds()));
        }
        out
    }
}

/// Fixed-format milliseconds for cost rendering (snapshot-stable).
fn fmt_ms(seconds: f64) -> String {
    format!("{:.4} ms", seconds * 1e3)
}

/// One-line pipeline shape: `scan(src) | filter | join(ht) | ... | agg`.
fn render_pipeline(p: &Pipeline) -> String {
    let mut parts = vec![format!("scan({})", p.source)];
    for op in &p.ops {
        parts.push(match op {
            PipeOp::Filter(_) => "filter".to_string(),
            PipeOp::Project(exprs) => format!("project[{}]", exprs.len()),
            PipeOp::JoinProbe { ht, .. } => format!("join({ht})"),
            PipeOp::Stateful(agg) => agg.label(),
        });
    }
    if p.agg.is_some() {
        parts.push("agg".to_string());
    }
    parts.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgo;
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_sim::topology::MemNode;

    fn join_plan() -> QueryPlan {
        QueryPlan::try_new(
            "t",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .unwrap()
    }

    fn segments(stage: &PlacedStage) -> &[Segment] {
        match stage {
            PlacedStage::Build { segments, .. } | PlacedStage::Stream { segments, .. } => {
                segments
            }
            PlacedStage::CoProcess { .. } => panic!("a co-processing stage has no segments"),
        }
    }

    #[test]
    fn cpu_only_placement_has_no_device_exchanges() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::CpuOnly), &server).unwrap();
        assert_eq!(placed.stages.len(), 2);
        let stream = placed.stages.last().unwrap();
        assert_eq!(segments(stream).len(), 2); // one per socket
        for seg in segments(stream) {
            let traits = seg.traits(&server);
            assert_eq!(traits.device, DeviceType::Cpu);
            assert_eq!(traits.locality, MemNode::CpuDram(0));
            assert!(seg.exchanges(stream.pipeline()).is_empty(), "no trait mismatch on CPUs");
        }
        // 1 -> 24 parallelism conversion: the router is required.
        match stream.router(&server) {
            Some(Exchange::Router { from_dop: 1, to_dop: 24, .. }) => {}
            r => panic!("unexpected router {r:?}"),
        }
    }

    #[test]
    fn gpu_segments_get_mem_move_crossing_and_broadcasts() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::Hybrid), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        // CPU sockets first (router candidate order), then GPUs.
        assert_eq!(segments(stream).len(), 4);
        let gpu1 = &segments(stream)[3];
        assert_eq!(gpu1.target, DeviceId::Gpu(1));
        assert_eq!(gpu1.traits(&server).device, DeviceType::Gpu);
        assert_eq!(gpu1.traits(&server).locality, MemNode::GpuDram(1));
        assert_eq!(
            gpu1.exchanges(stream.pipeline()),
            vec![
                Exchange::MemMove {
                    from: MemNode::CpuDram(0),
                    to: MemNode::GpuDram(1),
                    table: None,
                },
                Exchange::DeviceCrossing { from: DeviceType::Cpu, to: DeviceType::Gpu },
                Exchange::MemMove {
                    from: MemNode::CpuDram(0),
                    to: MemNode::GpuDram(1),
                    table: Some("dim_ht".into()),
                },
            ]
        );
        // Hybrid router fans 1 -> 24 cores + 2 GPUs.
        match stream.router(&server) {
            Some(Exchange::Router { from_dop: 1, to_dop: 26, .. }) => {}
            r => panic!("unexpected router {r:?}"),
        }
    }

    #[test]
    fn derivations_are_total_on_devices_the_server_lacks() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let mut placed = place(&plan, &ExecConfig::new(Placement::CpuOnly), &server).unwrap();
        let PlacedStage::Stream { segments: stream, .. } = &mut placed.stages[1] else {
            panic!("stage 1 is the stream")
        };
        stream[0].target = DeviceId::Cpu(7);
        stream[1].target = DeviceId::Gpu(7);
        let stream = &placed.stages[1];
        assert_eq!(segments(stream)[0].traits(&server).dop, 0);
        assert_eq!(segments(stream)[1].traits(&server).locality, MemNode::GpuDram(7));
        assert_eq!(stream.router(&server), None, "0 + 1 instances: no dop conversion");
        let text = placed.render(&server);
        assert!(text.contains("segment cpu7: Cpu dop=0 mem=dram0"), "{text}");
        assert!(text.contains("segment gpu7: Gpu dop=1 mem=gmem7"), "{text}");
    }

    #[test]
    fn builds_stay_cpu_side_even_under_gpu_only() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::GpuOnly), &server).unwrap();
        assert!(placed.stages[0].devices().iter().all(|d| !d.is_gpu()));
        assert!(placed.stages[1].devices().iter().all(DeviceId::is_gpu));
    }

    #[test]
    fn gpu_only_on_zero_gpu_server_is_a_typed_error() {
        let plan = join_plan();
        let err = place(&plan, &ExecConfig::new(Placement::GpuOnly), &Server::cpu_only())
            .unwrap_err();
        assert!(matches!(err, EngineError::NoWorkers { .. }), "{err}");
    }

    #[test]
    fn hybrid_on_zero_gpu_server_degrades_to_cpu_segments() {
        let plan = join_plan();
        let placed =
            place(&plan, &ExecConfig::new(Placement::Hybrid), &Server::cpu_only()).unwrap();
        assert_eq!(placed.stages[1].devices(), [DeviceId::Cpu(0), DeviceId::Cpu(1)]);
    }

    #[test]
    fn single_worker_placement_needs_no_router() {
        // A single GPU is a 1 -> 1 parallelism "conversion": the
        // needs_router predicate correctly suppresses the exchange.
        let plan = join_plan();
        let server = Server::single_gpu();
        let placed = place(&plan, &ExecConfig::new(Placement::GpuOnly), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        assert!(stream.router(&server).is_none());
        assert_eq!(stream.devices().len(), 1);
    }

    #[test]
    fn duplicate_probes_broadcast_once() {
        // Memoised lowering can probe one hash table at two sites; the
        // GPU segment's input edge carries a single broadcast for it.
        let plan = QueryPlan::try_new(
            "t",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .unwrap();
        let placed =
            place(&plan, &ExecConfig::new(Placement::GpuOnly), &Server::paper_testbed())
                .unwrap();
        let stream = placed.stages.last().unwrap();
        for seg in segments(stream) {
            let broadcasts = seg
                .exchanges(stream.pipeline())
                .into_iter()
                .filter(|x| matches!(x, Exchange::MemMove { table: Some(_), .. }));
            assert_eq!(broadcasts.count(), 1, "{}", seg.target);
        }
    }

    #[test]
    fn into_coprocess_rewrites_streams_and_rejects_everything_else() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::CpuOnly), &server).unwrap();
        let lanes = || vec![DeviceId::Gpu(0), DeviceId::Gpu(1)];
        // A build stage cannot co-process.
        let err = into_coprocess_stage(placed.stages[0].clone(), &lanes()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
        // The co-partitioning is CPU work: a stream with GPU segments cannot.
        let hybrid = place(&plan, &ExecConfig::new(Placement::Hybrid), &server).unwrap();
        let err = into_coprocess_stage(hybrid.stages[1].clone(), &lanes()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
        let stream = placed.stages[1].clone();
        // At least one GPU lane is required, and lanes are GPUs.
        for bad in [Vec::new(), vec![DeviceId::Cpu(0)]] {
            let err = into_coprocess_stage(stream.clone(), &bad).unwrap_err();
            assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
        }
        let cp = into_coprocess_stage(stream, &lanes()).unwrap();
        let PlacedStage::CoProcess { pipeline, cpus, gpus } = &cp else {
            panic!("rewrite must produce a co-process stage")
        };
        assert_eq!((cpus.as_slice(), gpus.as_slice()), ([0, 1].as_slice(), [0, 1].as_slice()));
        assert_eq!(pipeline.last_probe(), Some((0, "dim_ht")), "the final probe is the table");
        assert_eq!(cp.devices(), [vec![DeviceId::Cpu(0), DeviceId::Cpu(1)], lanes()].concat());
    }

    #[test]
    fn place_on_subset_count_mismatch_is_typed() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let err = place_on(
            &plan,
            &ExecConfig::new(Placement::CpuOnly),
            &server,
            &[vec![DeviceId::Cpu(0)]], // 1 subset for 2 stages
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::SubsetCountMismatch { stages: 2, subsets: 1 }),
            "{err}"
        );
    }

    #[test]
    fn place_on_refuses_devices_the_server_lacks() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        for absent in [DeviceId::Cpu(7), DeviceId::Gpu(7)] {
            let subsets = [vec![DeviceId::Cpu(0)], vec![absent]];
            let err = place_on(&plan, &ExecConfig::new(Placement::Hybrid), &server, &subsets)
                .unwrap_err();
            assert!(matches!(err, EngineError::DeviceNotPresent { .. }), "{absent}: {err}");
        }
    }

    #[test]
    fn invalid_plan_rejected_before_placement() {
        let plan = QueryPlan {
            name: "bad".into(),
            stages: vec![Stage::Stream { pipeline: Pipeline::scan("t") }],
        };
        let err = place(&plan, &ExecConfig::new(Placement::CpuOnly), &Server::paper_testbed())
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidPlan(_)));
    }

    #[test]
    fn render_shows_exchanges() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::Hybrid), &server).unwrap();
        let text = placed.render(&server);
        assert!(text.contains("Router(1 -> 26)"), "{text}");
        assert!(text.contains("MemMove(dram0 -> gmem0)"), "{text}");
        assert!(text.contains("DeviceCrossing(Cpu -> Gpu)"), "{text}");
        assert!(text.contains("broadcast \"dim_ht\""), "{text}");
        assert!(text.contains("pipeline: scan(fact) | join(dim_ht) | agg"), "{text}");
    }
}
