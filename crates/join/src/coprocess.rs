//! The co-processing radix join (§5, Sioulas et al. \[30\]).
//!
//! When the inputs exceed GPU memory, the CPU performs a *low-fanout*
//! co-partitioning local to the data — fanout chosen just large enough that
//! each co-partition (plus the GPU join's working space) fits GPU memory.
//! Low fanout keeps the CPU side near DRAM bandwidth. Each co-partition pair
//! then makes a **single pass over PCIe** and is joined on a GPU with the
//! hardware-conscious radix join, whose radix continues where the CPU's
//! stopped. With several GPUs on dedicated links, co-partitions are
//! load-balanced across them (Fig. 7's 1.7× scaling from a second GPU).
//!
//! The join is **heterogeneity-aware**: every selected GPU is priced and
//! capacity-checked against *its own* spec, budget, link and kernel
//! simulator ([`coprocess_join_on`]), so a server mixing GPU models (or
//! links of different widths) schedules each co-partition onto the device
//! where it finishes earliest — and never onto one it does not fit.
//!
//! Like the engine's packet loop, the join runs on **two planes**. What a
//! GPU makes of a co-partition — its match pairs and its simulated join
//! time — depends on the pair and on the GPU's *spec* alone, never on
//! which lane runs it or when. So a parallel *data plane* joins every
//! co-partition on the pool ([`hape_pool::scatter`]), once per distinct
//! spec group with a lane it fits, and a sequential *control plane* then
//! replays lane picks and link / GPU reservations in partition order from
//! the outcome of the group each pick lands on: the thread count cannot
//! reach a simulated time, a statistic or the order of the pairs.
//!
//! What the lanes materialise is the host work a CPU plan has no
//! counterpart for, so it is kept to the join's own output. The CPU
//! co-partitioning is the one sequential pass of [`crate::partition`], which
//! scatters straight from the inputs into its final buffers; threads reach
//! only the per-co-partition joins. A co-partition's GPU join partitions
//! and hashes its keys in place above the CPU's bits rather than on a
//! shifted copy, and its passes are priced from per-partition
//! runs, not per-tuple address lists; a join's match pairs are sized for
//! its probe side. The pairs — `(build row, probe row)` — are the only
//! thing a stage reads back: [`coprocess_join_parts`] hands them over as
//! the chosen joins made them, one vector pair per co-partition, and
//! [`coprocess_join_on`] concatenates them once, into vectors reserved at
//! their exact total.

use std::borrow::Cow;

use hape_sim::des::Resource;
use hape_sim::spec::CpuSpec;
use hape_sim::topology::Server;
use hape_sim::{Fidelity, GpuSim, SimTime};

use crate::common::{JoinInput, JoinOutcome, JoinStats, OutputMode};
use crate::gpu_radix::{gpu_radix_with_shift, BuildProbeVariant, GPU_RADIX_TAILS_BYTES};
use crate::partition::radix_partition;
use hape_sim::CpuCostModel;

/// Maximum CPU-side partition passes the co-partitioning may take. Each
/// pass streams both inputs at near-DRAM bandwidth (§5's low-fanout
/// argument); together with [`CpuSpec::max_partition_fanout`] this bounds
/// the total fanout the planner may request.
pub const COPROCESS_MAX_PASSES: u32 = 3;

/// Configuration of a co-processing run.
#[derive(Debug, Clone, Copy)]
pub struct CoprocessConfig {
    /// GPUs to use (must not exceed the server's).
    pub n_gpus: usize,
    /// CPU cores performing the co-partitioning.
    pub cpu_workers: usize,
    /// GPU-side build & probe variant.
    pub variant: BuildProbeVariant,
    /// Output mode.
    pub mode: OutputMode,
    /// GPU memory-model fidelity.
    pub fidelity: Fidelity,
    /// Real threads executing the per-co-partition joins; the
    /// co-partitioning is one sequential pass (the simulated cost is
    /// governed by `cpu_workers`; this knob only changes the wall clock —
    /// results are byte-identical at any value).
    pub threads: usize,
}

impl Default for CoprocessConfig {
    fn default() -> Self {
        CoprocessConfig {
            n_gpus: 1,
            cpu_workers: 24,
            variant: BuildProbeVariant::Sm,
            mode: OutputMode::AggregateOnly,
            fidelity: Fidelity::Analytic,
            threads: 1,
        }
    }
}

/// Errors of the co-processing join.
#[derive(Debug)]
pub enum CoprocessError {
    /// A single co-partition exceeds every selected GPU's memory even at
    /// maximum fanout — the skew case the paper's single-pass guarantee
    /// excludes (§5).
    OversizedCoPartition {
        /// The offending partition index.
        partition: usize,
        /// Its size in bytes (both sides + working space).
        bytes: u64,
        /// The largest GPU budget it had to fit in.
        budget: u64,
    },
    /// No GPUs configured (or none of the requested ids exist).
    NoGpus,
    /// The co-partitioning needs CPUs, but the server has none.
    NoCpus,
    /// A selected GPU id is beyond the server's GPU list.
    UnknownGpu {
        /// The requested GPU index.
        gpu: usize,
    },
    /// A selected GPU has no PCIe link in the server topology (the
    /// topology lists fewer links than GPUs) — co-partitions could never
    /// reach it.
    MissingLink {
        /// The link-less GPU index.
        gpu: usize,
    },
    /// The inputs need a higher co-partitioning fanout than the CPU can
    /// produce in [`COPROCESS_MAX_PASSES`] passes (each bounded by
    /// [`CpuSpec::max_partition_fanout`]).
    FanoutExceeded {
        /// Radix bits the GPU budget demands.
        required_bits: u32,
        /// Radix bits the CPU can produce.
        max_bits: u32,
    },
}

impl std::fmt::Display for CoprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoprocessError::OversizedCoPartition { partition, bytes, budget } => write!(
                f,
                "co-partition {partition} needs {bytes} bytes > GPU budget {budget} \
                 (skewed key?)"
            ),
            CoprocessError::NoGpus => write!(f, "co-processing requires at least one GPU"),
            CoprocessError::NoCpus => {
                write!(f, "co-processing requires CPUs for the co-partitioning")
            }
            CoprocessError::UnknownGpu { gpu } => {
                write!(f, "selected gpu{gpu} does not exist on this server")
            }
            CoprocessError::MissingLink { gpu } => {
                write!(f, "selected gpu{gpu} has no PCIe link in the topology")
            }
            CoprocessError::FanoutExceeded { required_bits, max_bits } => write!(
                f,
                "co-partitioning needs 2^{required_bits} fanout but the CPU tops out at \
                 2^{max_bits} in {COPROCESS_MAX_PASSES} passes"
            ),
        }
    }
}

impl std::error::Error for CoprocessError {}

/// Detailed result of a co-processing run.
#[derive(Debug, Clone)]
pub struct CoprocessReport {
    /// Join results and end-to-end simulated time.
    pub outcome: JoinOutcome,
    /// CPU-side partitioning time (before overlap).
    pub cpu_partition_time: SimTime,
    /// Aggregate PCIe busy time across links.
    pub transfer_busy: SimTime,
    /// Aggregate GPU busy time.
    pub gpu_busy: SimTime,
    /// Host-to-device bytes moved (every co-partition pair crosses its
    /// GPU's link exactly once — the single-pass guarantee).
    pub h2d_bytes: u64,
    /// When the *first* co-partition's join completed — the earliest
    /// moment any match pairs exist (consumers overlapping with the join
    /// cannot start before this).
    pub first_join_done: SimTime,
    /// Number of co-partitions.
    pub co_partitions: usize,
    /// CPU-side radix bits.
    pub cpu_bits: u32,
    /// Per-GPU co-partition assignment counts (indexed like the selected
    /// GPU ids).
    pub per_gpu_assignments: Vec<usize>,
}

/// The fraction of a GPU's device memory the co-partitioning may plan
/// against (the rest is bookkeeping slack). It covers the GPU join's fixed
/// partition-tails buffer only on GPUs of at least 640 KiB, so
/// [`gpu_budget`] also subtracts that buffer itself.
const GPU_BUDGET_FRACTION: f64 = 0.9;

/// A GPU's co-partition budget: the device memory available to one
/// resident co-partition pair plus the join's double buffers — what is left
/// beside the join's fixed 64 KiB tails buffer, and at most 90 % of the
/// device.
pub fn gpu_budget(dram_capacity: usize) -> u64 {
    let beside_tails = dram_capacity.saturating_sub(GPU_RADIX_TAILS_BYTES) as u64;
    ((dram_capacity as f64 * GPU_BUDGET_FRACTION) as u64).min(beside_tails)
}

/// Pick the CPU-side fanout: the smallest power of two such that one
/// co-partition pair plus the GPU join's double-buffered working space fits
/// in `budget` bytes of GPU memory (§5: partitions "just small enough to
/// fit in GPU-memory").
///
/// The fanout is bounded by what `cpu` can produce in
/// [`COPROCESS_MAX_PASSES`] passes of at most
/// [`CpuSpec::max_partition_fanout`] each; inputs that would need more are
/// the typed [`CoprocessError::FanoutExceeded`], surfaced at *planning*
/// time instead of silently under-partitioning and failing later with a
/// misleading skew error.
pub fn plan_cpu_bits(
    r_bytes: u64,
    s_bytes: u64,
    budget: u64,
    cpu: &CpuSpec,
) -> Result<u32, CoprocessError> {
    // gpu_radix allocates in+out buffers for both sides: 2×(r+s) per
    // co-partition, plus slack for tails/bookkeeping.
    let max_pass_bits = cpu.max_partition_fanout().trailing_zeros().max(1);
    let max_bits = max_pass_bits * COPROCESS_MAX_PASSES;
    let mut bits = 0u32;
    while (2 * (r_bytes + s_bytes)) >> bits > budget.max(1) {
        bits += 1;
        if bits > max_bits {
            return Err(CoprocessError::FanoutExceeded { required_bits: bits, max_bits });
        }
    }
    // At least 8 co-partitions: enough packets to pipeline transfers with
    // GPU execution and to load-balance across GPUs, while the fanout stays
    // far below the TLB bound (so the CPU side keeps its near-DRAM
    // throughput, §5).
    Ok(bits.max(3))
}

/// The §5 co-partitioning plan, one statement for the executing join
/// ([`coprocess_join_on`]) and the optimizer's estimate of it: the CPU
/// fanout in radix bits, the GPU budget it was planned against, and the
/// simulated time of the CPU partition passes.
///
/// The fanout is the smallest at which a co-partition pair fits every
/// selected GPU (`min_budget`, see [`plan_cpu_bits`]); when none within the
/// CPU's bound does, the largest budget's (`max_budget`), and GPUs a pair
/// does not fit receive none. The bits split into passes of at most
/// [`CpuSpec::max_partition_fanout`]; each pass streams both sides' `(key,
/// row index)` pairs — `r` and `s` as `(tuples, bytes)` — near DRAM
/// bandwidth through `cpu`'s cost model at the per-socket share of
/// `workers` cores over `sockets`, and the passes spread over all `workers`.
pub fn coprocess(
    r: (u64, u64),
    s: (u64, u64),
    (min_budget, max_budget): (u64, u64),
    cpu: &CpuSpec,
    (workers, sockets): (usize, usize),
) -> Result<(u32, u64, SimTime), CoprocessError> {
    let (bits, budget) = match plan_cpu_bits(r.1, s.1, min_budget, cpu) {
        Ok(bits) => (bits, min_budget),
        Err(_) => (plan_cpu_bits(r.1, s.1, max_budget, cpu)?, max_budget),
    };
    let max_pass_bits = cpu.max_partition_fanout().trailing_zeros().max(1);
    let per_socket = (workers / sockets.max(1)).max(1);
    let model = CpuCostModel::new(cpu.clone(), per_socket.min(cpu.cores));
    let mut time = SimTime::ZERO;
    let mut rem = bits;
    while rem > 0 {
        let pass = rem.min(max_pass_bits);
        time += model.partition_pass(r.0, 8, 1 << pass);
        time += model.partition_pass(s.0, 8, 1 << pass);
        rem -= pass;
    }
    Ok((bits, budget, time / (workers.max(1) as f64 * 0.92)))
}

/// Run the co-processing join on `server` (CPU-resident inputs), using the
/// first `cfg.n_gpus` GPUs. See [`coprocess_join_on`] for explicit device
/// selection.
pub fn coprocess_join(
    server: &Server,
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    cfg: &CoprocessConfig,
) -> Result<CoprocessReport, CoprocessError> {
    let ids: Vec<usize> = (0..cfg.n_gpus.min(server.gpus.len())).collect();
    coprocess_join_on(server, &ids, r, s, cfg)
}

/// One selected GPU with its own spec-derived state: budget, link, kernel
/// simulator and clocked resources — no device borrows another's spec.
struct GpuLane {
    budget: u64,
    link: hape_sim::interconnect::Link,
    gpu: Resource,
    /// Index into the distinct-spec simulator list (GPUs sharing a spec
    /// share per-partition join pricing, computed once).
    sim_group: usize,
}

/// One joined co-partition's match pairs: its build rows and its probe
/// rows, position for position.
pub type MatchPairs = (Vec<u32>, Vec<u32>);

/// The co-partitions' match pairs ([`coprocess_join_parts`]) read by
/// position in their concatenation, which is never built.
#[derive(Debug)]
pub struct PairRuns {
    /// The non-empty co-partitions' pairs, in partition order.
    parts: Vec<MatchPairs>,
    /// Where each part begins in the concatenation, then its length.
    starts: Vec<usize>,
}

impl PairRuns {
    /// Read `parts` as one sequence.
    pub fn new(mut parts: Vec<MatchPairs>) -> PairRuns {
        parts.retain(|(_, probe)| !probe.is_empty());
        let mut starts = vec![0];
        starts.extend(parts.iter().scan(0, |at, (_, probe)| {
            *at += probe.len();
            Some(*at)
        }));
        PairRuns { parts, starts }
    }

    /// Pairs in all.
    pub fn len(&self) -> usize {
        self.starts[self.parts.len()]
    }

    /// True when no co-partition matched.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Pairs `range` of the concatenation, as (build rows, probe rows):
    /// borrowed when one part holds them, else copied out of the parts they
    /// span.
    pub fn rows(&self, range: std::ops::Range<usize>) -> (Cow<'_, [u32]>, Cow<'_, [u32]>) {
        let first = self.starts.partition_point(|&s| s <= range.start) - 1;
        let (build, probe) = &self.parts[first];
        let within = range.start - self.starts[first]..range.end - self.starts[first];
        if within.end <= probe.len() {
            return (Cow::Borrowed(&build[within.clone()]), Cow::Borrowed(&probe[within]));
        }
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        for ((build, probe), &s) in self.parts[first..].iter().zip(&self.starts[first..]) {
            if s >= range.end {
                break;
            }
            let span = range.start.max(s) - s..(range.end - s).min(probe.len());
            build_rows.extend_from_slice(&build[span.clone()]);
            probe_rows.extend_from_slice(&probe[span]);
        }
        (Cow::Owned(build_rows), Cow::Owned(probe_rows))
    }
}

/// Run the co-processing join on an explicit GPU subset (`gpu_ids` index
/// into `server.gpus`), co-partitioned on every CPU socket of `server`.
/// Every GPU is validated, priced and capacity-checked against its own
/// spec, budget and PCIe link.
pub fn coprocess_join_on(
    server: &Server,
    gpu_ids: &[usize],
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    cfg: &CoprocessConfig,
) -> Result<CoprocessReport, CoprocessError> {
    let (mut report, parts) = coprocess_join_parts(server, &server.cpus, gpu_ids, r, s, cfg)?;
    report.outcome.pairs = (cfg.mode == OutputMode::MatchIndices).then(|| {
        let total = parts.iter().map(|(r, _)| r.len()).sum();
        let (mut pr, mut ps) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for (jr, js) in &parts {
            pr.extend_from_slice(jr);
            ps.extend_from_slice(js);
        }
        (pr, ps)
    });
    Ok(report)
}

/// [`coprocess_join_on`], with the match pairs left as the joins made
/// them: one `(build rows, probe rows)` pair of vectors per joined
/// co-partition, in partition order — `coprocess_join_on`'s pairs are their
/// concatenation, and the report's `outcome.pairs` is `None`. A consumer
/// that reads the pairs by position (the engine's §5 fold) spares the
/// concatenated copy.
///
/// `cpus` are the sockets that co-partition: the plan ([`coprocess`]) reads
/// the first one's spec and counts them, so a stage on some of a server's
/// sockets is planned on those alone.
pub fn coprocess_join_parts(
    server: &Server,
    cpus: &[CpuSpec],
    gpu_ids: &[usize],
    r: JoinInput<'_>,
    s: JoinInput<'_>,
    cfg: &CoprocessConfig,
) -> Result<(CoprocessReport, Vec<MatchPairs>), CoprocessError> {
    if gpu_ids.is_empty() || server.gpus.is_empty() {
        return Err(CoprocessError::NoGpus);
    }
    let Some(cpu_spec) = cpus.first() else {
        return Err(CoprocessError::NoCpus);
    };
    // ---- Validate the subset up front: every GPU must exist *and* have a
    // PCIe link (a topology listing fewer links than GPUs is a typed
    // error, not an out-of-bounds panic).
    let mut sims: Vec<GpuSim> = Vec::new();
    let mut lanes: Vec<GpuLane> = Vec::with_capacity(gpu_ids.len());
    for &g in gpu_ids {
        let spec = server.gpus.get(g).ok_or(CoprocessError::UnknownGpu { gpu: g })?;
        let link = server.pcie.get(g).ok_or(CoprocessError::MissingLink { gpu: g })?;
        let sim_group = match sims.iter().position(|s| s.spec() == spec) {
            Some(i) => i,
            None => {
                sims.push(GpuSim::new(spec.clone(), cfg.fidelity));
                sims.len() - 1
            }
        };
        let mut link = link.clone();
        link.reset();
        lanes.push(GpuLane {
            budget: gpu_budget(spec.dram_capacity),
            link,
            gpu: Resource::new(format!("gpu{g}")),
            sim_group,
        });
    }
    let min_budget = lanes.iter().map(|l| l.budget).min().unwrap_or(0);
    let max_budget = lanes.iter().map(|l| l.budget).max().unwrap_or(0);

    // ---- Plan (`coprocess`) and execute the CPU-side co-partitioning;
    // the per-partition routing below skips GPUs a pair does not fit.
    let (cpu_bits, _, t_cpu) = coprocess(
        (r.len() as u64, r.bytes()),
        (s.len() as u64, s.bytes()),
        (min_budget, max_budget),
        cpu_spec,
        (cfg.cpu_workers, cpus.len()),
    )?;
    let max_pass_bits = cpu_spec.max_partition_fanout().trailing_zeros().max(1);
    let (rp, _) = radix_partition(r, cpu_bits, max_pass_bits);
    let (sp, _) = radix_partition(s, cpu_bits, max_pass_bits);
    let fanout = rp.fanout();

    // ---- Data plane: a join's outcome is a pure function of (spec group,
    // co-partition), so every pair is joined on the pool before any lane is
    // picked — once per distinct spec group that has a lane the pair fits
    // (pairs no lane fits are the control plane's typed error below).
    let joins = hape_pool::scatter(
        cfg.threads,
        fanout,
        |_| (),
        |p, _| {
            let (rpart, spart) = (rp.part(p), sp.part(p));
            let pair_bytes = rpart.bytes() + spart.bytes();
            let join = |(g, sim)| {
                let fits = |l: &GpuLane| l.sim_group == g && 2 * pair_bytes <= l.budget;
                (pair_bytes > 0 && lanes.iter().any(fits)).then(|| {
                    gpu_radix_with_shift(sim, rpart, spart, cpu_bits, cfg.variant, cfg.mode)
                })
            };
            sims.iter().enumerate().map(join).collect::<Vec<_>>()
        },
    );

    // ---- Control plane: schedule co-partitions over GPUs (load-aware
    // routing), sequentially, in partition order.
    let mut assignments = vec![0usize; lanes.len()];
    let mut stats = JoinStats::default();
    // The chosen joins' match pairs, in partition order.
    let mut chosen_pairs: Vec<MatchPairs> = Vec::new();
    let mut makespan = SimTime::ZERO;
    let mut first_join_done: Option<SimTime> = None;
    let mut h2d_bytes = 0u64;
    // Per-spec-group join-time estimate for the load-aware pick, seeded
    // from the spec (single-pass radix join ≈ a few device-memory trips
    // plus the launch overhead) and replaced by each observed join time —
    // the time the chosen lane's own simulator gave the co-partition on
    // the data plane. Co-partitions are near-equal sized, so the previous
    // partition's time is an accurate predictor; with homogeneous GPUs (one
    // group) the estimate is identical for every lane and the pick reduces
    // to the link/queue comparison.
    let mut group_est: Vec<Option<SimTime>> = vec![None; sims.len()];

    for (p, mut joined) in joins.into_iter().enumerate() {
        let pair_bytes = rp.part(p).bytes() + sp.part(p).bytes();
        if pair_bytes == 0 {
            continue;
        }
        if 2 * pair_bytes > max_budget {
            return Err(CoprocessError::OversizedCoPartition {
                partition: p,
                bytes: 2 * pair_bytes,
                budget: max_budget,
            });
        }
        // The co-partition becomes available as the CPU pass streams through
        // the data (pipelined production).
        let ready = t_cpu * ((p + 1) as f64 / fanout as f64);

        // Load-aware GPU choice among the devices the co-partition fits:
        // earliest estimated completion wins, each lane priced with its
        // own link and its own spec group's join-time estimate.
        let mut best: Option<usize> = None;
        let mut best_end: Option<SimTime> = None;
        for (i, lane) in lanes.iter().enumerate() {
            if 2 * pair_bytes > lane.budget {
                continue;
            }
            let join_time = group_est[lane.sim_group].unwrap_or_else(|| {
                let spec = sims[lane.sim_group].spec();
                SimTime::from_ns(
                    4.0 * pair_bytes as f64 / spec.dram_bw * 1e9 + spec.launch_overhead_ns,
                )
            });
            let t_start = lane.link.free_at().max(ready);
            let t_arrive = t_start + lane.link.duration(pair_bytes);
            let end = lane.gpu.free_at().max(t_arrive) + join_time;
            if best_end.is_none_or(|b| end < b) {
                best_end = Some(end);
                best = Some(i);
            }
        }
        let Some(best) = best else {
            return Err(CoprocessError::OversizedCoPartition {
                partition: p,
                bytes: 2 * pair_bytes,
                budget: max_budget,
            });
        };
        // The in-GPU join on the chosen lane's own simulator: priced for
        // every group with a lane the pair fits, and `best` is such a lane.
        // A join that failed surfaces only here, if its group is chosen.
        let group = lanes[best].sim_group;
        let join =
            joined[group].take().expect("the chosen lane's group was joined").map_err(|e| {
                CoprocessError::OversizedCoPartition {
                    partition: p,
                    bytes: e.requested,
                    budget: e.available,
                }
            })?;
        group_est[group] = Some(join.time);
        stats.merge(&join.stats);
        chosen_pairs.extend(join.pairs);
        let lane = &mut lanes[best];
        let (_, arrived) = lane.link.transfer(ready, pair_bytes);
        let (_, done) = lane.gpu.acquire(arrived, join.time);
        assignments[best] += 1;
        h2d_bytes += pair_bytes;
        makespan = makespan.max(done);
        first_join_done = Some(first_join_done.map_or(done, |f| f.min(done)));
    }
    let transfer_busy = lanes.iter().map(|l| l.link.busy_time()).sum::<SimTime>();
    let gpu_busy = lanes.iter().map(|l| l.gpu.busy_time()).sum::<SimTime>();

    let report = CoprocessReport {
        outcome: JoinOutcome { stats, pairs: None, time: makespan },
        cpu_partition_time: t_cpu,
        transfer_busy,
        gpu_busy,
        h2d_bytes,
        first_join_done: first_join_done.unwrap_or(SimTime::ZERO),
        co_partitions: fanout,
        cpu_bits,
        per_gpu_assignments: assignments,
    };
    Ok((report, chosen_pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_join;
    use hape_sim::spec::GpuSpec;
    use hape_storage::datagen::{gen_unique_keys, gen_zipf_i32};

    fn small_gpu_server(capacity_factor: f64) -> Server {
        Server::paper_testbed_gpu_mem_scaled(capacity_factor)
    }

    /// The parent's `coprocess_join_on`, kept verbatim as the oracle of the
    /// two-plane join: one sequential loop that picks a lane and *then* runs
    /// the one in-GPU join on that lane's simulator, co-partition after
    /// co-partition. The differential below holds the two-plane join to it
    /// field by field (`cargo test --release -p hape-join -- --ignored
    /// coprocess` runs 10^3 cases in CI).
    fn coprocess_join_on_sequential(
        server: &Server,
        gpu_ids: &[usize],
        r: JoinInput<'_>,
        s: JoinInput<'_>,
        cfg: &CoprocessConfig,
    ) -> Result<CoprocessReport, CoprocessError> {
        if gpu_ids.is_empty() || server.gpus.is_empty() {
            return Err(CoprocessError::NoGpus);
        }
        if server.cpus.is_empty() {
            return Err(CoprocessError::NoCpus);
        }
        // ---- Validate the subset up front: every GPU must exist *and* have a
        // PCIe link (a topology listing fewer links than GPUs is a typed
        // error, not an out-of-bounds panic).
        let mut sims: Vec<GpuSim> = Vec::new();
        let mut lanes: Vec<GpuLane> = Vec::with_capacity(gpu_ids.len());
        for &g in gpu_ids {
            let spec = server.gpus.get(g).ok_or(CoprocessError::UnknownGpu { gpu: g })?;
            let link = server.pcie.get(g).ok_or(CoprocessError::MissingLink { gpu: g })?;
            let sim_group = match sims.iter().position(|s| s.spec() == spec) {
                Some(i) => i,
                None => {
                    sims.push(GpuSim::new(spec.clone(), cfg.fidelity));
                    sims.len() - 1
                }
            };
            let mut link = link.clone();
            link.reset();
            lanes.push(GpuLane {
                budget: gpu_budget(spec.dram_capacity),
                link,
                gpu: Resource::new(format!("gpu{g}")),
                sim_group,
            });
        }
        let min_budget = lanes.iter().map(|l| l.budget).min().unwrap_or(0);
        let max_budget = lanes.iter().map(|l| l.budget).max().unwrap_or(0);
        let cpu_spec = &server.cpus[0];

        // ---- Plan (`coprocess`) and execute the CPU-side co-partitioning;
        // the per-partition routing below skips GPUs a pair does not fit.
        let (cpu_bits, _, t_cpu) = coprocess(
            (r.len() as u64, r.bytes()),
            (s.len() as u64, s.bytes()),
            (min_budget, max_budget),
            cpu_spec,
            (cfg.cpu_workers, server.cpus.len()),
        )?;
        let max_pass_bits = cpu_spec.max_partition_fanout().trailing_zeros().max(1);
        let (rp, _) = radix_partition(r, cpu_bits, max_pass_bits);
        let (sp, _) = radix_partition(s, cpu_bits, max_pass_bits);
        let fanout = rp.fanout();

        // ---- Schedule co-partitions over GPUs (load-aware routing).
        let mut assignments = vec![0usize; lanes.len()];
        let mut stats = JoinStats::default();
        let mut pairs = match cfg.mode {
            OutputMode::MatchIndices => Some((Vec::new(), Vec::new())),
            OutputMode::AggregateOnly => None,
        };
        let mut makespan = SimTime::ZERO;
        let mut first_join_done: Option<SimTime> = None;
        let mut h2d_bytes = 0u64;
        // Per-spec-group join-time estimate for the load-aware pick, seeded
        // from the spec (single-pass radix join ≈ a few device-memory trips
        // plus the launch overhead) and replaced by each observed join time —
        // so the real join executes exactly once per co-partition, on the
        // chosen lane's own simulator. Co-partitions are near-equal sized, so
        // the previous partition's time is an accurate predictor; with
        // homogeneous GPUs (one group) the estimate is identical for every
        // lane and the pick reduces to the link/queue comparison.
        let mut group_est: Vec<Option<SimTime>> = vec![None; sims.len()];

        for p in 0..fanout {
            let rpart = rp.part(p);
            let spart = sp.part(p);
            if rpart.is_empty() && spart.is_empty() {
                continue;
            }
            let pair_bytes = rpart.bytes() + spart.bytes();
            if 2 * pair_bytes > max_budget {
                return Err(CoprocessError::OversizedCoPartition {
                    partition: p,
                    bytes: 2 * pair_bytes,
                    budget: max_budget,
                });
            }
            // The co-partition becomes available as the CPU pass streams through
            // the data (pipelined production).
            let ready = t_cpu * ((p + 1) as f64 / fanout as f64);

            // Load-aware GPU choice among the devices the co-partition fits:
            // earliest estimated completion wins, each lane priced with its
            // own link and its own spec group's join-time estimate.
            let mut best: Option<usize> = None;
            let mut best_end: Option<SimTime> = None;
            for (i, lane) in lanes.iter().enumerate() {
                if 2 * pair_bytes > lane.budget {
                    continue;
                }
                let join_time = group_est[lane.sim_group].unwrap_or_else(|| {
                    let spec = sims[lane.sim_group].spec();
                    SimTime::from_ns(
                        4.0 * pair_bytes as f64 / spec.dram_bw * 1e9 + spec.launch_overhead_ns,
                    )
                });
                let t_start = lane.link.free_at().max(ready);
                let t_arrive = t_start + lane.link.duration(pair_bytes);
                let end = lane.gpu.free_at().max(t_arrive) + join_time;
                if best_end.is_none_or(|b| end < b) {
                    best_end = Some(end);
                    best = Some(i);
                }
            }
            let Some(best) = best else {
                return Err(CoprocessError::OversizedCoPartition {
                    partition: p,
                    bytes: 2 * pair_bytes,
                    budget: max_budget,
                });
            };
            // The in-GPU join, once, on the chosen lane's own simulator.
            let group = lanes[best].sim_group;
            let join = gpu_radix_with_shift(
                &sims[group],
                rpart,
                spart,
                cpu_bits,
                cfg.variant,
                cfg.mode,
            )
            .map_err(|e| CoprocessError::OversizedCoPartition {
                partition: p,
                bytes: e.requested,
                budget: e.available,
            })?;
            group_est[group] = Some(join.time);
            stats.merge(&join.stats);
            if let (Some((pr, ps)), Some((jr, js))) = (pairs.as_mut(), join.pairs.as_ref()) {
                pr.extend_from_slice(jr);
                ps.extend_from_slice(js);
            }
            let lane = &mut lanes[best];
            let (_, arrived) = lane.link.transfer(ready, pair_bytes);
            let (_, done) = lane.gpu.acquire(arrived, join.time);
            assignments[best] += 1;
            h2d_bytes += pair_bytes;
            makespan = makespan.max(done);
            first_join_done = Some(first_join_done.map_or(done, |f| f.min(done)));
        }
        let transfer_busy = lanes.iter().map(|l| l.link.busy_time()).sum::<SimTime>();
        let gpu_busy = lanes.iter().map(|l| l.gpu.busy_time()).sum::<SimTime>();

        Ok(CoprocessReport {
            outcome: JoinOutcome { stats, pairs, time: makespan },
            cpu_partition_time: t_cpu,
            transfer_busy,
            gpu_busy,
            h2d_bytes,
            first_join_done: first_join_done.unwrap_or(SimTime::ZERO),
            co_partitions: fanout,
            cpu_bits,
            per_gpu_assignments: assignments,
        })
    }

    /// Holds the two-plane join at four thread counts to the oracle's one
    /// run, field by field, errors included (`CoprocessError` has no
    /// `PartialEq`; its `Debug` form carries the variant and every field).
    /// Returns whether the oracle's run succeeded.
    fn assert_equals_sequential(
        server: &Server,
        gpu_ids: &[usize],
        r: JoinInput<'_>,
        s: JoinInput<'_>,
        cfg: &CoprocessConfig,
        what: &str,
    ) -> bool {
        let oracle = coprocess_join_on_sequential(server, gpu_ids, r, s, cfg);
        for threads in [1, 2, 8, 140] {
            let what = format!("{what} threads={threads}");
            let cfg = CoprocessConfig { threads, ..*cfg };
            match (coprocess_join_on(server, gpu_ids, r, s, &cfg), &oracle) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.outcome.stats, b.outcome.stats, "{what}");
                    assert_eq!(a.outcome.pairs, b.outcome.pairs, "{what}");
                    assert_eq!(a.outcome.time, b.outcome.time, "{what}");
                    assert_eq!(a.first_join_done, b.first_join_done, "{what}");
                    assert_eq!(a.h2d_bytes, b.h2d_bytes, "{what}");
                    assert_eq!(a.per_gpu_assignments, b.per_gpu_assignments, "{what}");
                    assert_eq!(a.transfer_busy, b.transfer_busy, "{what}");
                    assert_eq!(a.gpu_busy, b.gpu_busy, "{what}");
                    assert_eq!(a.cpu_partition_time, b.cpu_partition_time, "{what}");
                    assert_eq!(
                        (a.co_partitions, a.cpu_bits),
                        (b.co_partitions, b.cpu_bits),
                        "{what}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}"),
                (a, b) => panic!("{what}: {:?}, the oracle {:?}", a.err(), b.as_ref().err()),
            }
        }
        oracle.is_ok()
    }

    /// SplitMix64: the differential's only source of randomness.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Seeded cases over input size (2^8–2^16), key distribution of the
    /// streamed side (unique, or Zipf over the build side's universe — skew
    /// that may overflow a co-partition, so typed errors are compared too),
    /// both output modes, GPU memory (128 KiB–4 MiB), and three servers: one
    /// GPU, two identical GPUs, and a heterogeneous pair (half the memory,
    /// twice the launch overhead, a quarter of the link — two spec groups are
    /// priced).
    fn differential(cases: u64) {
        let (mut oks, mut errs) = (0, 0);
        for case in 0..cases {
            let mut rng = case.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x5EED;
            let n = 1usize << (8 + next(&mut rng) % 9);
            let rk = gen_unique_keys(n, next(&mut rng));
            let sk = match next(&mut rng) % 3 {
                0 => gen_unique_keys(n, next(&mut rng)),
                1 => gen_zipf_i32(n, n, 0.5, next(&mut rng)),
                _ => gen_zipf_i32(n, n, 0.9, next(&mut rng)),
            };
            let rv: Vec<u32> = (0..n as u32).collect();
            let sv: Vec<u32> = (0..n as u32).map(|i| i ^ 5).collect();
            let mut server = small_gpu_server(1.0 / (1u64 << (11 + next(&mut rng) % 6)) as f64);
            let gpu_ids: &[usize] = match next(&mut rng) % 3 {
                0 => &[0],
                1 => &[0, 1],
                _ => {
                    server.gpus[1].dram_capacity /= 2;
                    server.pcie[1].bw /= 4.0;
                    // …and twice the launch overhead, so the two groups'
                    // join *times* differ on the smallest input and a
                    // mixed-up group cannot go unnoticed.
                    server.gpus[1].launch_overhead_ns *= 2.0;
                    &[0, 1]
                }
            };
            let mode = match next(&mut rng) % 2 {
                0 => OutputMode::MatchIndices,
                _ => OutputMode::AggregateOnly,
            };
            let cfg = CoprocessConfig { mode, ..Default::default() };
            let (r, s) = (JoinInput::new(&rk, &rv), JoinInput::new(&sk, &sv));
            let what = format!("case {case}");
            match assert_equals_sequential(&server, gpu_ids, r, s, &cfg, &what) {
                true => oks += 1,
                false => errs += 1,
            }
        }
        // The generator must exercise both outcomes, not only one of them.
        assert!(oks > cases / 2 && (errs > 0 || cases < 40), "{oks} ok, {errs} errors");
    }

    #[test]
    fn two_plane_join_equals_the_sequential_oracle_on_seeded_inputs() {
        differential(40);
    }

    /// The CI-only depth (`cargo test --release -p hape-join -- --ignored
    /// coprocess`): seconds in release.
    #[test]
    #[ignore = "10^3 cases: run in release (CI does)"]
    fn two_plane_join_equals_the_sequential_oracle_on_a_thousand_seeded_inputs() {
        differential(1_000);
    }

    #[test]
    fn two_plane_join_raises_the_oracles_errors() {
        // `skewed_key_detected`'s input: one key, a co-partition no fanout
        // can split — the max-budget check, on one GPU and on a server whose
        // second GPU is too small for anything.
        let n = 1 << 14;
        let keys = vec![42i32; n];
        let vals = vec![0u32; n];
        let r = JoinInput::new(&keys, &vals);
        let cfg = CoprocessConfig::default();
        let server = small_gpu_server(1.0 / 1_000_000.0);
        assert_equals_sequential(&server, &[0], r, r, &cfg, "skewed");
        let mut tiny = small_gpu_server(1.0 / 65536.0);
        tiny.gpus[1].dram_capacity = 16;
        assert_equals_sequential(&tiny, &[0, 1], r, r, &cfg, "skewed, tiny second gpu");
        // The same server on an input that fits GPU 0 only: the tiny GPU's
        // spec group is never joined, and never chosen.
        let rk = gen_unique_keys(n, 83);
        let r = JoinInput::new(&rk, &vals);
        assert_equals_sequential(&tiny, &[0, 1], r, r, &cfg, "tiny second gpu");
    }

    #[test]
    fn matches_reference() {
        let n = 1 << 14;
        let rk = gen_unique_keys(n, 71);
        let sk = gen_unique_keys(n, 72);
        let rv: Vec<u32> = (0..n as u32).collect();
        let sv: Vec<u32> = (0..n as u32).map(|i| i + 3).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        // GPU memory scaled way down so the join is genuinely out-of-GPU.
        let server = small_gpu_server(1.0 / 65536.0); // 128 KiB
        let cfg = CoprocessConfig { mode: OutputMode::MatchIndices, ..Default::default() };
        let rep = coprocess_join(&server, r, s, &cfg).unwrap();
        let reference = reference_join(r, s);
        assert_eq!(rep.outcome.stats, reference.stats);
        assert_eq!(rep.outcome.sorted_pairs(), reference.sorted_pairs());
        assert!(rep.co_partitions > 1, "expected real co-partitioning");
        assert!(rep.h2d_bytes > 0, "co-partitions must cross PCIe");
    }

    #[test]
    fn second_gpu_speeds_up() {
        let n = 1 << 16;
        let rk = gen_unique_keys(n, 73);
        let rv = vec![1u32; n];
        let r = JoinInput::new(&rk, &rv);
        let server = small_gpu_server(1.0 / 65536.0);
        let one =
            coprocess_join(&server, r, r, &CoprocessConfig { n_gpus: 1, ..Default::default() })
                .unwrap();
        let two =
            coprocess_join(&server, r, r, &CoprocessConfig { n_gpus: 2, ..Default::default() })
                .unwrap();
        assert_eq!(one.outcome.stats, two.outcome.stats);
        let speedup = one.outcome.time / two.outcome.time;
        assert!(speedup > 1.3, "2-GPU speedup only {speedup:.2}x");
        assert!(speedup < 2.2, "2-GPU speedup implausible: {speedup:.2}x");
        assert!(
            two.per_gpu_assignments.iter().all(|&a| a > 0),
            "{:?}",
            two.per_gpu_assignments
        );
    }

    #[test]
    fn partition_threads_are_a_pure_wall_clock_knob() {
        // Same results, pairs, simulated times and transfer bytes at any
        // real-thread count: the per-co-partition joins on the pool may
        // not leak into anything observable.
        let n = 1 << 14;
        let rk = gen_unique_keys(n, 91);
        let sk = gen_unique_keys(n, 92);
        let rv: Vec<u32> = (0..n as u32).collect();
        let sv: Vec<u32> = (0..n as u32).map(|i| i + 7).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        let server = small_gpu_server(1.0 / 65536.0);
        let cfg = CoprocessConfig { mode: OutputMode::MatchIndices, ..Default::default() };
        let base = coprocess_join(&server, r, s, &cfg).unwrap();
        for threads in [2, 8, 24, 140, 192] {
            let rep =
                coprocess_join(&server, r, s, &CoprocessConfig { threads, ..cfg }).unwrap();
            assert_eq!(rep.outcome.stats, base.outcome.stats, "threads={threads}");
            assert_eq!(rep.outcome.pairs, base.outcome.pairs, "threads={threads}");
            assert_eq!(rep.outcome.time, base.outcome.time, "threads={threads}");
            assert_eq!(rep.cpu_partition_time, base.cpu_partition_time, "threads={threads}");
            assert_eq!(rep.h2d_bytes, base.h2d_bytes, "threads={threads}");
            assert_eq!(rep.per_gpu_assignments, base.per_gpu_assignments, "threads={threads}");
        }
    }

    #[test]
    fn skewed_key_detected() {
        // All tuples share one key: the co-partition cannot be split.
        let n = 1 << 14;
        let keys = vec![42i32; n];
        let vals = vec![0u32; n];
        let r = JoinInput::new(&keys, &vals);
        let server = small_gpu_server(1.0 / 1_000_000.0);
        let err = coprocess_join(&server, r, r, &CoprocessConfig::default()).unwrap_err();
        assert!(matches!(err, CoprocessError::OversizedCoPartition { .. }), "{err}");
    }

    #[test]
    fn moderate_zipf_still_works() {
        let n = 1 << 14;
        let keys = gen_zipf_i32(n, 1 << 13, 0.5, 5);
        let vals = vec![1u32; n];
        let r = JoinInput::new(&keys, &vals);
        let server = small_gpu_server(1.0 / 16384.0);
        let rep = coprocess_join(&server, r, r, &CoprocessConfig::default()).unwrap();
        assert!(rep.outcome.stats.matches >= n as u64);
    }

    #[test]
    fn fanout_planning_fits_budget() {
        let gpu = GpuSpec::gtx_1080();
        let cpu = CpuSpec::xeon_e5_2650l_v3();
        let budget = gpu_budget(gpu.dram_capacity);
        let bits = plan_cpu_bits(16 << 30, 16 << 30, budget, &cpu).unwrap();
        // 2*(32GB) >> bits <= 0.9*8GB  →  bits >= 4.
        assert!(bits >= 4);
        assert!(((2u64 * 32) << 30) >> bits <= budget);
    }

    #[test]
    fn fanout_planning_goes_beyond_the_old_16_bit_break() {
        // A budget small enough to need a ~18-bit fanout: the old code
        // silently broke out at 16 bits, under-partitioned, and failed
        // later with a skew error; the fanout now follows the CPU spec.
        let cpu = CpuSpec::xeon_e5_2650l_v3();
        let max_pass_bits = cpu.max_partition_fanout().trailing_zeros().max(1);
        assert!(
            max_pass_bits * COPROCESS_MAX_PASSES > 16,
            "spec-derived bound must exceed the old hard-coded 16"
        );
        let total: u64 = 1 << 40; // 1 TiB of input
        let budget: u64 = 8 << 20; // 8 MiB per co-partition
        let bits = plan_cpu_bits(total / 2, total / 2, budget, &cpu).unwrap();
        assert!(bits > 16, "needed {bits} bits");
        assert!((2 * total) >> bits <= budget);
        // Past the spec bound the planner errs out, typed.
        let err = plan_cpu_bits(total / 2, total / 2, 16, &cpu).unwrap_err();
        assert!(matches!(err, CoprocessError::FanoutExceeded { .. }), "{err}");
    }

    #[test]
    fn missing_pcie_link_is_a_typed_error_not_a_panic() {
        let n = 1 << 12;
        let rk = gen_unique_keys(n, 77);
        let rv = vec![1u32; n];
        let r = JoinInput::new(&rk, &rv);
        // Two GPUs, one PCIe link: the old code indexed links[1] out of
        // bounds mid-schedule.
        let mut server = small_gpu_server(1.0 / 65536.0);
        server.pcie.truncate(1);
        let err =
            coprocess_join(&server, r, r, &CoprocessConfig { n_gpus: 2, ..Default::default() })
                .unwrap_err();
        assert!(matches!(err, CoprocessError::MissingLink { gpu: 1 }), "{err}");
    }

    #[test]
    fn unknown_gpu_and_empty_servers_are_typed() {
        let n = 1 << 10;
        let rk = gen_unique_keys(n, 78);
        let rv = vec![1u32; n];
        let r = JoinInput::new(&rk, &rv);
        let server = small_gpu_server(1.0 / 65536.0);
        let err =
            coprocess_join_on(&server, &[7], r, r, &CoprocessConfig::default()).unwrap_err();
        assert!(matches!(err, CoprocessError::UnknownGpu { gpu: 7 }), "{err}");
        let mut no_cpus = small_gpu_server(1.0 / 65536.0);
        no_cpus.cpus.clear();
        let err = coprocess_join(&no_cpus, r, r, &CoprocessConfig::default()).unwrap_err();
        assert!(matches!(err, CoprocessError::NoCpus), "{err}");
        let err =
            coprocess_join_on(&server, &[], r, r, &CoprocessConfig::default()).unwrap_err();
        assert!(matches!(err, CoprocessError::NoGpus), "{err}");
    }

    #[test]
    fn heterogeneous_gpus_match_reference_and_respect_budgets() {
        let n = 1 << 14;
        let rk = gen_unique_keys(n, 81);
        let sk = gen_unique_keys(n, 82);
        let rv: Vec<u32> = (0..n as u32).collect();
        let sv: Vec<u32> = (0..n as u32).map(|i| i + 9).collect();
        let r = JoinInput::new(&rk, &rv);
        let s = JoinInput::new(&sk, &sv);
        // GPU 1 has half GPU 0's memory and a slower link.
        let mut server = small_gpu_server(1.0 / 8192.0);
        server.gpus[1].dram_capacity /= 2;
        server.pcie[1].bw /= 4.0;
        let cfg =
            CoprocessConfig { n_gpus: 2, mode: OutputMode::MatchIndices, ..Default::default() };
        let rep = coprocess_join(&server, r, s, &cfg).unwrap();
        let reference = reference_join(r, s);
        assert_eq!(rep.outcome.stats, reference.stats);
        assert_eq!(rep.outcome.sorted_pairs(), reference.sorted_pairs());
        // Planned for the *smaller* budget, so both devices stay usable —
        // and the faster link still attracts more co-partitions.
        let small_budget = gpu_budget(server.gpus[1].dram_capacity);
        let max_pair = (2 * (r.bytes() + s.bytes())) >> rep.cpu_bits;
        assert!(
            max_pair <= small_budget,
            "per-partition {max_pair} B exceeds the small GPU's {small_budget} B"
        );
        assert!(
            rep.per_gpu_assignments.iter().all(|&a| a > 0),
            "{:?}",
            rep.per_gpu_assignments
        );
    }

    #[test]
    fn tiny_second_gpu_is_skipped_not_overcommitted() {
        let n = 1 << 14;
        let rk = gen_unique_keys(n, 83);
        let rv = vec![1u32; n];
        let r = JoinInput::new(&rk, &rv);
        // GPU 1 is so small that min-budget planning would exceed the
        // fanout bound; the planner falls back to GPU 0's budget and the
        // routing never assigns GPU 1 a partition it cannot hold.
        let mut server = small_gpu_server(1.0 / 65536.0);
        server.gpus[1].dram_capacity = 16;
        let cfg = CoprocessConfig { n_gpus: 2, ..Default::default() };
        let rep = coprocess_join(&server, r, r, &cfg).unwrap();
        let reference = reference_join(r, r);
        assert_eq!(rep.outcome.stats, reference.stats);
        assert_eq!(rep.per_gpu_assignments[1], 0, "{:?}", rep.per_gpu_assignments);
        assert!(rep.per_gpu_assignments[0] > 0);
    }
}
