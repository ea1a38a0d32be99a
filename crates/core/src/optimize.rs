//! The cost-based placement optimizer: the decision layer between
//! lowering and placement that [`Placement::Auto`](crate::Placement)
//! invokes.
//!
//! Manual placements fan every stream stage over *all* devices of a
//! class-selected pool. [`optimize`] instead enumerates candidate device
//! subsets per stage: alike devices ([`Server::class`]) price every packet
//! alike, so a candidate is how many devices of each class the stage uses.
//! It prices each candidate with the [`CostModel`] — one estimated packet
//! per stage, priced by the functions the device providers charge an
//! executed packet with, spread over the subset's workers the way the
//! router spreads them — prunes subsets whose estimated GPU hash-table
//! footprint exceeds device capacity (the paper's §6.4 constraint — this
//! is what routes Q9 away from the GPU-only out-of-memory failure
//! automatically), and places each stage on its minimum-makespan subset;
//! on a tie, the subset with more workers able to price a packet within
//! the stage. Build stages choose among CPU subsets, as under every manual
//! placement: the table they build is the host-side broadcast source
//! (§4.2).
//!
//! The output is an ordinary [`PlacedPlan`] — the engine interprets it
//! with zero knowledge that an optimizer chose the subsets — annotated
//! with the chosen per-stage [`crate::cost::StageCost`]
//! estimates so [`Session::explain`](crate::session::Session::explain)
//! can render the decision.

use hape_sim::topology::{DeviceId, Server};

use crate::catalog::Catalog;
use crate::cost::{CostModel, HtEstimates, PlanCost, StageCost};
use crate::engine::{ExecConfig, Placement};
use crate::error::EngineError;
use crate::place::{participants, place_on, PlacedPlan};
use crate::plan::{QueryPlan, Stage};
use crate::trace::{Span, SpanKind};

/// Candidate device subsets for one stage, in deterministic order.
///
/// Alike devices ([`Server::class`]) price every stage alike, so a subset
/// is fixed by how many devices of each class it uses: for each class a
/// count from none to all of its members, always its first members in
/// pool order. The non-empty combinations come in the order of their
/// bitmasks over pool positions, each subset in pool order — for a pool
/// of pairwise unlike devices, the whole power set.
pub fn candidate_subsets(server: &Server, pool: &[DeviceId]) -> Vec<Vec<DeviceId>> {
    // Each class's pool positions, in pool order.
    let mut classes: Vec<(DeviceId, Vec<usize>)> = Vec::new();
    for (i, &d) in pool.iter().enumerate() {
        let class = server.class(d);
        match classes.iter_mut().find(|c| c.0 == class) {
            Some(c) => c.1.push(i),
            None => classes.push((class, vec![i])),
        }
    }
    let mut subsets: Vec<Vec<usize>> = vec![Vec::new()];
    for (_, members) in &classes {
        subsets = subsets
            .iter()
            .flat_map(|s| (0..=members.len()).map(move |n| [s, &members[..n]].concat()))
            .collect();
    }
    subsets.retain(|s| !s.is_empty());
    subsets.iter_mut().for_each(|s| s.sort_unstable());
    // Bitmask order: the highest position where two subsets differ
    // belongs to the later one.
    subsets.sort_by(|a, b| a.iter().rev().cmp(b.iter().rev()));
    subsets.into_iter().map(|s| s.into_iter().map(|i| pool[i]).collect()).collect()
}

/// Run the cost-based optimizer: lower → **optimize** → place.
///
/// Walks the plan's stages in order, maintaining estimated hash-table
/// footprints for every build, prices every candidate subset per stage,
/// discards candidates whose estimated GPU footprint exceeds capacity,
/// and places each stage on the cheapest surviving subset. If *no*
/// candidate survives for a stage (a zero-CPU server whose GPUs cannot
/// hold the tables), the capacity violation surfaces as the typed
/// [`EngineError::GpuMemoryExceeded`] — estimated, before any packet
/// moves.
pub fn optimize(
    plan: &QueryPlan,
    catalog: &Catalog,
    cfg: &ExecConfig,
    server: &Server,
) -> Result<PlacedPlan, EngineError> {
    let pool = participants(Placement::Auto, server);
    optimize_on(plan, catalog, cfg, server, &pool)
}

/// [`optimize`] against an explicit device pool — the degraded-topology
/// entry point. The fault plane's mid-query recovery calls this with the
/// surviving fleet (the full pool minus failed/quarantined devices), so a
/// degraded topology is just another input to the same pass, never a
/// special case.
pub fn optimize_on(
    plan: &QueryPlan,
    catalog: &Catalog,
    cfg: &ExecConfig,
    server: &Server,
    pool: &[DeviceId],
) -> Result<PlacedPlan, EngineError> {
    if pool.is_empty() {
        return Err(EngineError::NoWorkers { placement: "Auto (empty server)".to_string() });
    }
    // The largest subsets go first, so that a good incumbent leaves
    // smaller ones unpriced; the tie-break keeps the enumeration's order.
    let mut candidates: Vec<(usize, Vec<DeviceId>)> =
        candidate_subsets(server, pool).into_iter().enumerate().collect();
    candidates.sort_by_key(|(_, subset)| std::cmp::Reverse(subset.len()));
    let model = CostModel::new(server, catalog).with_packet_rows(cfg.packet_rows);
    let mut hts = HtEstimates::new();
    let mut subsets: Vec<Vec<DeviceId>> = Vec::with_capacity(plan.stages.len());
    let mut costs: Vec<StageCost> = Vec::with_capacity(plan.stages.len());
    // The stages that place as a `PlacedStage::CoProcess` on the pool's
    // GPUs after `place_on` runs.
    let mut coprocessed: Vec<usize> = Vec::new();
    let cpus: Vec<DeviceId> = pool.iter().copied().filter(|d| !d.is_gpu()).collect();
    let gpus: Vec<DeviceId> = pool.iter().copied().filter(|d| d.is_gpu()).collect();
    for stage in &plan.stages {
        let (pipeline, is_build) = match stage {
            Stage::Build { pipeline, .. } => (pipeline, true),
            Stage::Stream { pipeline } => (pipeline, false),
        };
        // The cardinality walk is subset-independent: run it once per
        // stage and price every candidate subset against it.
        let est = model.estimate_pipeline(pipeline, &hts)?;
        let mut best: Option<(usize, StageCost)> = None;
        let mut over_capacity: Option<(u64, u64)> = None;
        let mut gpu_subset_fits = false;
        // Builds stay host-side, as under every manual placement: the
        // table they build is the broadcast source (§4.2).
        for &(i, ref subset) in &candidates {
            if is_build && subset.iter().any(|d| d.is_gpu()) {
                continue;
            }
            let bound = best.as_ref().map_or(f64::INFINITY, |b| b.1.total_seconds());
            let cost = model.stage_cost_below(&est, subset, is_build, bound)?;
            if !cost.fits_gpu_memory() {
                let cap = cost.gpu_capacity.unwrap_or(0);
                if over_capacity.is_none_or(|(r, _)| cost.gpu_required < r) {
                    over_capacity = Some((cost.gpu_required, cap));
                }
                continue;
            }
            gpu_subset_fits |= subset.iter().any(|d| d.is_gpu());
            // On a tie the subset with more workers able to price a packet
            // within the stage wins — the estimate says they take none, but
            // should the busy ones run slower than estimated, the router
            // hands them packets — then the one with fewer devices, then
            // the earlier candidate.
            let wins = |(bi, b): &(usize, StageCost)| {
                let (t, tb) = (cost.total_seconds(), b.total_seconds());
                let rank = |c: &StageCost, i: usize| {
                    (c.capable_workers, std::cmp::Reverse((c.devices.len(), i)))
                };
                t < tb || (t == tb && rank(&cost, i) > rank(b, *bi))
            };
            if best.as_ref().is_none_or(wins) {
                best = Some((i, cost));
            }
        }
        let mut best = best.map(|(_, cost)| cost);
        // The §5 co-processing arm: when the stream's probed tables
        // overflow *every* GPU (all GPU-bearing subsets were pruned), the
        // choice is no longer "CPUs or nothing" — CPU-side co-partitioning
        // can feed single-pass GPU joins of the stage's final probe.
        // Priced like any other candidate; the cheaper mode wins.
        if !is_build && !gpu_subset_fits && over_capacity.is_some() {
            if let Some(cost) = model.coprocess_cost(&est, &cpus, &gpus)? {
                if best.as_ref().is_none_or(|b| cost.total_seconds() < b.total_seconds()) {
                    best = Some(cost);
                }
            }
        }
        let chosen = match best {
            Some(c) => c,
            None => {
                // Only reachable when the pool has no CPU fallback.
                let (required, capacity) = over_capacity.unwrap_or((0, 0));
                return Err(EngineError::GpuMemoryExceeded { required, capacity });
            }
        };
        if let Stage::Build { name, .. } = stage {
            hts.insert(name.clone(), est.table_estimate());
        }
        if chosen.coprocess.is_some() {
            // `place_on` places the CPU side; the GPU lanes ride the stage
            // rewrite below.
            coprocessed.push(subsets.len());
            subsets.push(cpus.clone());
        } else {
            subsets.push(chosen.devices.clone());
        }
        if cfg.trace.is_enabled() {
            // The estimate side of the predicted-vs-observed record: a
            // zero-duration event carrying the chosen decomposition, one
            // per stage, before any packet moves. The matching observation
            // rides the engine's stage span for the same stage index.
            let now = cfg.trace.now_ns();
            cfg.trace.record(
                Span::new(
                    SpanKind::Optimize,
                    format!("optimize stage {}", costs.len()),
                    plan.name.clone(),
                )
                .stage(costs.len())
                .at_wall(now, now)
                .estimate(chosen.clone()),
            );
            cfg.trace.add("optimize.stages_costed", 1);
        }
        costs.push(chosen);
    }
    let mut placed = place_on(plan, cfg, server, &subsets)?;
    for i in coprocessed {
        let stage = placed.stages[i].clone();
        placed.stages[i] = crate::place::into_coprocess_stage(stage, &gpus)?;
    }
    placed.costs = Some(PlanCost { stages: costs });
    Ok(placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinAlgo, Pipeline};
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_storage::datagen::gen_key_fk_table;

    fn setup() -> (Catalog, QueryPlan) {
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 1));
        catalog.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
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
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .unwrap();
        (catalog, plan)
    }

    /// The enumeration `candidate_subsets` replaced, kept as its oracle:
    /// the power set in bitmask order, then the first subset of each shape
    /// (its devices' classes, sorted), a device's class being the first
    /// device with its spec and, for a GPU, its link.
    fn first_of_each_shape(server: &Server, pool: &[DeviceId]) -> Vec<Vec<DeviceId>> {
        let link = |g: usize| server.pcie.get(g).map(|l| (l.bw, l.latency));
        let alike = |a: DeviceId, b: DeviceId| match (a, b) {
            (DeviceId::Cpu(a), DeviceId::Cpu(b)) => server.cpus[a] == server.cpus[b],
            (DeviceId::Gpu(a), DeviceId::Gpu(b)) => {
                server.gpus[a] == server.gpus[b] && link(a) == link(b)
            }
            _ => false,
        };
        let devices = server.devices();
        let class = |d: DeviceId| devices.iter().copied().find(|&c| alike(c, d)).unwrap_or(d);
        let (mut shapes, mut priced) = (Vec::new(), Vec::new());
        for mask in 1u32..(1 << pool.len()) {
            let subset: Vec<DeviceId> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &d)| d)
                .collect();
            let mut shape: Vec<DeviceId> = subset.iter().map(|&d| class(d)).collect();
            shape.sort_unstable();
            if !shapes.contains(&shape) {
                shapes.push(shape);
                priced.push(subset);
            }
        }
        priced
    }

    #[test]
    fn candidates_are_the_first_subset_of_each_shape() {
        let servers = [
            Server::paper_testbed(),
            Server::paper_testbed_gpu_mem_scaled(1.0 / 64.0),
            Server::tpch_scaled(0.01),
            Server::tpch_scaled(0.05),
            Server::single_gpu(),
            Server::cpu_only(),
        ];
        for server in &servers {
            let full = server.devices();
            let pools = std::iter::once(full.clone())
                .chain((0..server.gpus.len()).map(|g| {
                    full.iter().copied().filter(|&d| d != DeviceId::Gpu(g)).collect()
                }));
            for pool in pools {
                let want = first_of_each_shape(server, &pool);
                assert_eq!(candidate_subsets(server, &pool), want, "pool {pool:?}");
            }
        }
        let testbed = Server::paper_testbed();
        let lost_gpu = [DeviceId::Cpu(0), DeviceId::Cpu(1), DeviceId::Gpu(0)];
        assert_eq!(candidate_subsets(&testbed, &testbed.devices()).len(), 8);
        assert_eq!(candidate_subsets(&testbed, &lost_gpu).len(), 5);
        assert_eq!(
            candidate_subsets(&Server::cpu_only(), &[DeviceId::Cpu(0), DeviceId::Cpu(1)]).len(),
            2
        );

        // Pairwise unlike devices: the power set, in bitmask order.
        let mut unlike = Server::paper_testbed();
        unlike.cpus[1].cores = 8;
        unlike.pcie[1].bw /= 2.0;
        unlike.gpus.push(hape_sim::GpuSpec::gtx_1080_scaled(0.5));
        unlike.pcie.push(hape_sim::interconnect::Link::pcie3_x16("pcie2"));
        unlike.gpu_socket.push(1);
        let pool = unlike.devices();
        assert_eq!(candidate_subsets(&unlike, &pool), first_of_each_shape(&unlike, &pool));
    }

    #[test]
    fn exhaustive_enumeration_covers_the_power_set() {
        // Pairwise unlike devices — a socket with fewer cores, a GPU on a
        // slower link — share no class, so every subset is its own shape.
        let mut server = Server::paper_testbed();
        server.cpus[1].cores = 8;
        server.pcie[1].bw /= 2.0;
        let pool = server.devices();
        let subsets = candidate_subsets(&server, &pool);
        assert_eq!(subsets.len(), 15); // 2^4 - 1
                                       // Deterministic, in bitmask order: first is {cpu0}, third
                                       // {cpu0, cpu1}, last the full pool.
        assert_eq!(subsets[0], vec![DeviceId::Cpu(0)]);
        assert_eq!(subsets[2], pool[..2].to_vec());
        assert_eq!(subsets.last().unwrap(), &pool);

        // A fifth unlike device, a GPU of another spec: 2^5 - 1.
        server.gpus.push(hape_sim::GpuSpec::gtx_1080_scaled(0.5));
        server.pcie.push(hape_sim::interconnect::Link::pcie3_x16("pcie2"));
        server.gpu_socket.push(1);
        assert_eq!(candidate_subsets(&server, &server.devices()).len(), 31);
    }

    #[test]
    fn large_pools_prune_to_the_class_lattice() {
        // Past ten devices the lattice stays whole: 8 alike CPUs and 8
        // alike GPUs give 9 × 9 − 1 count combinations, not 2^16 − 1.
        let mut big = Server::paper_testbed();
        big.cpus = vec![big.cpus[0].clone(); 8];
        big.gpus = vec![big.gpus[0].clone(); 8];
        big.pcie = vec![big.pcie[0].clone(); 8];
        big.gpu_socket = vec![0; 8];
        let pool = big.devices();
        let subsets = candidate_subsets(&big, &pool);
        assert_eq!(subsets.len(), 80);
        assert!(subsets.contains(&pool));
        assert!(subsets.iter().any(|s| s.iter().all(|d| !d.is_gpu()) && s.len() == 8));
    }

    #[test]
    fn auto_uses_every_device_on_scan_bound_streams() {
        // A broadcast-free scan: every device adds streaming throughput,
        // so the min-makespan subset is the full pool.
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 22, 1 << 22, 1));
        let plan = QueryPlan::try_new(
            "scan",
            vec![Stage::Stream {
                pipeline: Pipeline::scan("fact")
                    .aggregate(AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))])),
            }],
        )
        .unwrap();
        let server = Server::paper_testbed();
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        assert_eq!(stream.devices().len(), 4);
        let costs = placed.costs.as_ref().expect("optimizer attaches costs");
        assert_eq!(costs.stages.len(), 1);
        assert!(costs.total_seconds() > 0.0);
    }

    #[test]
    fn auto_join_placement_is_feasible_and_costed() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        assert_eq!(placed.stages.len(), 2);
        let costs = placed.costs.as_ref().expect("optimizer attaches costs");
        assert_eq!(costs.stages.len(), 2);
        for cost in &costs.stages {
            assert!(cost.fits_gpu_memory());
            assert!(cost.total_seconds() > 0.0);
        }
    }

    #[test]
    fn auto_routes_away_from_over_capacity_gpus() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0);
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        assert!(
            stream.devices().iter().all(|d| !d.is_gpu()),
            "scaled-down GPUs must be pruned"
        );
        for cost in &placed.costs.as_ref().unwrap().stages {
            assert!(cost.fits_gpu_memory());
        }
    }

    #[test]
    fn builds_stay_on_cpus_for_small_dimensions() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        let build = &placed.stages[0];
        assert!(build.devices().iter().all(|d| !d.is_gpu()));
    }

    #[test]
    fn zero_gpu_capacity_without_cpu_fallback_is_typed() {
        let (catalog, plan) = setup();
        let mut server = Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0);
        server.cpus.clear();
        let err =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap_err();
        assert!(matches!(err, EngineError::GpuMemoryExceeded { .. }), "{err}");
    }

    #[test]
    fn degraded_pool_routes_around_excluded_gpus() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        // The surviving fleet after losing gpu1: the optimizer must place
        // every stage without it, through the ordinary pass.
        let pool: Vec<DeviceId> =
            server.devices().into_iter().filter(|d| *d != DeviceId::Gpu(1)).collect();
        let placed =
            optimize_on(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server, &pool)
                .unwrap();
        for stage in &placed.stages {
            assert!(
                !stage.devices().contains(&DeviceId::Gpu(1)),
                "excluded device must not be placed on"
            );
        }
        assert!(placed.costs.is_some(), "degraded plans are costed like any other");
    }

    #[test]
    fn empty_server_is_typed() {
        let (catalog, plan) = setup();
        let mut server = Server::paper_testbed();
        server.cpus.clear();
        server.gpus.clear();
        server.pcie.clear();
        server.gpu_socket.clear();
        let err =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap_err();
        assert!(matches!(err, EngineError::NoWorkers { .. }));
    }
}
