//! Direct-call replays of the data-plane functions over a workload's own
//! packets and columns, single-threaded. They split what the engine's
//! packet loop lumps together — kernels (`run_ops`), pricing (`charge`)
//! and folds (`fold_packet`) — and time the operator and join kernels with
//! no engine around them.

use std::time::Instant;

use hape_core::provider::{
    run_ops, CpuWorker, GpuWorker, Scratch, TableStore, GPU_PACKET_SHARE,
};
use hape_core::{DeviceProvider, ExecConfig, LoweredQuery, PlacedPlan, PlacedStage};
use hape_join::{
    coprocess_join_on, cpu_radix, plan_radix_cpu, radix_partition_with_threads,
    BuildProbeVariant, CoprocessConfig, JoinInput, OutputMode,
};
use hape_ops::agg::AggState;
use hape_ops::stateful::split_user_aligned;
use hape_ops::{eval, eval_bool, run_stateful, AggFunc, StatefulAgg};
use hape_sim::topology::{DeviceId, Server};
use hape_sim::{CpuCostModel, Fidelity};
use hape_tpch::TpchData;

use crate::stats::typical;

/// Repetitions of each replay; the typical (fast-decile) time is reported.
const REPS: usize = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Wall seconds of one pass over a cell's packets, by function.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderReplay {
    pub run_ops_s: f64,
    pub charge_cpu_s: f64,
    pub charge_gpu_s: f64,
    pub fold_s: f64,
    pub packets: u64,
    pub rows: u64,
    /// Simulated seconds the timed `charge` calls returned.
    pub charged_sim_s: f64,
}

impl ProviderReplay {
    pub fn add(&mut self, other: &ProviderReplay) {
        self.run_ops_s += other.run_ops_s;
        self.charge_cpu_s += other.charge_cpu_s;
        self.charge_gpu_s += other.charge_gpu_s;
        self.fold_s += other.fold_s;
        self.packets += other.packets;
        self.rows += other.rows;
        self.charged_sim_s += other.charged_sim_s;
    }
}

/// Replay a cell whose placed plan is one probe-free stream stage (Q1, Q6,
/// B1–B4): split its source exactly as the engine would, then per packet
/// `run_ops`, `charge` on a CPU worker and on a GPU worker built from the
/// server's specs, and `fold_packet`. `None` for any other plan shape.
pub fn provider_replay(
    server: &Server,
    lowered: &LoweredQuery,
    placed: &PlacedPlan,
) -> Result<Option<ProviderReplay>, String> {
    let [PlacedStage::Stream { pipeline, segments, .. }] = placed.stages.as_slice() else {
        return Ok(None);
    };
    if !pipeline.tables_probed().is_empty() {
        return Ok(None);
    }
    let table = lowered.catalog.lookup(&pipeline.source).map_err(|e| e.to_string())?;
    let shares: usize = segments
        .iter()
        .map(|seg| match seg.target {
            DeviceId::Cpu(socket) => server.cpus.get(socket).map_or(0, |c| c.cores),
            DeviceId::Gpu(_) => GPU_PACKET_SHARE,
        })
        .sum();
    let rows_per_packet =
        ExecConfig::auto_packet_rows(table.rows(), shares, placed.packet_rows);
    let packets = match pipeline.stateful_agg() {
        Some(agg) => split_user_aligned(&table.data, agg.user_col(), rows_per_packet),
        None => table.data.split(rows_per_packet),
    };
    let cpu_spec = server.cpus.first().ok_or("server has no CPU")?;
    let tables = TableStore::new();
    let agg = pipeline.agg.as_ref();

    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut cpu = CpuWorker::new(
            0,
            0,
            CpuCostModel::new(cpu_spec.clone(), cpu_spec.cores),
            agg.cloned().map(AggState::new),
        );
        let gpu = server.gpus.first().zip(server.pcie.first()).map(|(spec, link)| {
            GpuWorker::new(0, spec.clone(), link.clone(), Fidelity::Analytic, None, Vec::new())
        });
        let mut scratch = Scratch::new();
        let mut r = ProviderReplay { packets: packets.len() as u64, ..Default::default() };
        for packet in &packets {
            r.rows += packet.rows() as u64;
            let (work, dt) = timed(|| run_ops(packet.clone(), pipeline, &tables, &mut scratch));
            let work = work.map_err(|e| e.to_string())?;
            r.run_ops_s += dt;
            let (sim, dt) = timed(|| cpu.charge(&work, agg, &tables));
            r.charged_sim_s += sim.map_err(|e| e.to_string())?.as_secs();
            r.charge_cpu_s += dt;
            if let Some(gpu) = &gpu {
                let (sim, dt) = timed(|| gpu.charge(&work, agg, &tables));
                r.charged_sim_s += sim.map_err(|e| e.to_string())?.as_secs();
                r.charge_gpu_s += dt;
            }
            if work.folds {
                r.fold_s += timed(|| cpu.fold_packet(&work.out)).1;
            }
        }
        reps.push(r);
    }
    let pick = |f: fn(&ProviderReplay) -> f64| typical(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(Some(ProviderReplay {
        run_ops_s: pick(|r| r.run_ops_s),
        charge_cpu_s: pick(|r| r.charge_cpu_s),
        charge_gpu_s: pick(|r| r.charge_gpu_s),
        fold_s: pick(|r| r.fold_s),
        ..reps[0]
    }))
}

/// Rows per second of the expression and aggregation kernels over Q1's
/// own scan: (`eval_bool` of its predicate plus `eval` of its four summed
/// expressions, `AggState::update` of its two-column group-by).
pub fn q1_kernels(lowered: &LoweredQuery) -> Result<(f64, f64), String> {
    let pipeline = lowered
        .plan
        .stages
        .iter()
        .find_map(|s| match s {
            hape_core::Stage::Stream { pipeline } => Some(pipeline),
            hape_core::Stage::Build { .. } => None,
        })
        .ok_or("Q1 has no stream stage")?;
    let spec = pipeline.agg.as_ref().ok_or("Q1 does not aggregate")?;
    let batch = &lowered.catalog.lookup(&pipeline.source).map_err(|e| e.to_string())?.data;
    let rows = batch.rows() as f64;
    let sums: Vec<_> =
        spec.aggs.iter().filter(|(f, _)| *f == AggFunc::Sum).map(|(_, e)| e).collect();
    let mut eval_s = Vec::with_capacity(REPS);
    let mut agg_s = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        eval_s.push(
            timed(|| {
                for op in &pipeline.ops {
                    if let hape_core::PipeOp::Filter(pred) = op {
                        std::hint::black_box(eval_bool(pred, batch));
                    }
                }
                for e in &sums {
                    std::hint::black_box(eval(e, batch));
                }
            })
            .1,
        );
        let mut state = AggState::new(spec.clone());
        agg_s.push(timed(|| state.update(batch)).1);
    }
    Ok((rows / typical(&eval_s), rows / typical(&agg_s)))
}

/// Events per second of `run_stateful` over a behavioral query's whole log.
pub fn stateful_kernel(lowered: &LoweredQuery) -> Result<(&'static str, f64), String> {
    let (pipeline, agg) = lowered
        .plan
        .stages
        .iter()
        .find_map(|s| match s {
            hape_core::Stage::Stream { pipeline } => {
                pipeline.stateful_agg().map(|a| (pipeline, a))
            }
            hape_core::Stage::Build { .. } => None,
        })
        .ok_or("query has no stateful stage")?;
    let batch = &lowered.catalog.lookup(&pipeline.source).map_err(|e| e.to_string())?.data;
    let kind = match agg {
        StatefulAgg::Sessionize { .. } => "sessionize",
        StatefulAgg::WindowFunnel { .. } => "window_funnel",
        StatefulAgg::Retention { .. } => "retention",
        StatefulAgg::SequenceMatch { .. } => "sequence_match",
    };
    let secs: Vec<f64> = (0..REPS).map(|_| timed(|| run_stateful(agg, batch)).1).collect();
    Ok((kind, batch.rows() as f64 / typical(&secs)))
}

#[derive(Debug, Clone, Copy)]
pub struct JoinReplay {
    pub partition_rows_s: f64,
    pub partition_rows_s_tn: f64,
    pub cpu_radix_s: f64,
    pub coprocess_s: f64,
    pub coprocess_sim_s: f64,
}

/// The join kernels on Q9*'s real key columns, `orders.o_orderkey` ⋈
/// `lineitem.l_orderkey`.
pub fn join_kernels(
    server: &Server,
    data: &TpchData,
    threads_n: usize,
) -> Result<JoinReplay, String> {
    let r_keys = data.orders.column("o_orderkey").as_i32();
    let s_keys = data.lineitem.column("l_orderkey").as_i32();
    let r_vals: Vec<u32> = (0..r_keys.len() as u32).collect();
    let s_vals: Vec<u32> = (0..s_keys.len() as u32).collect();
    let r = JoinInput::new(r_keys, &r_vals);
    let s = JoinInput::new(s_keys, &s_vals);
    let cpu_spec = server.cpus.first().ok_or("server has no CPU")?;
    let model = CpuCostModel::new(cpu_spec.clone(), cpu_spec.cores);
    let plan = plan_radix_cpu(r.len().max(2), 8, cpu_spec);
    let pass_bits = plan.pass_bits.iter().copied().max().unwrap_or(1);
    let partition = |threads: usize| {
        let secs: Vec<f64> = (0..REPS)
            .map(|_| {
                timed(|| radix_partition_with_threads(s, plan.total_bits, pass_bits, threads)).1
            })
            .collect();
        s.len() as f64 / typical(&secs)
    };
    let radix: Vec<f64> = (0..REPS)
        .map(|_| timed(|| cpu_radix(r, s, &model, cpu_spec.cores, OutputMode::AggregateOnly)).1)
        .collect();
    let gpus: Vec<usize> = (0..server.gpus.len()).collect();
    let config = CoprocessConfig {
        n_gpus: gpus.len(),
        cpu_workers: server.total_cpu_cores(),
        variant: BuildProbeVariant::Sm,
        mode: OutputMode::MatchIndices,
        fidelity: Fidelity::Analytic,
        threads: threads_n,
    };
    let mut coprocess = Vec::with_capacity(REPS);
    let mut coprocess_sim_s = 0.0;
    for _ in 0..REPS {
        let (report, dt) = timed(|| coprocess_join_on(server, &gpus, r, s, &config));
        coprocess_sim_s = report.map_err(|e| e.to_string())?.outcome.time.as_secs();
        coprocess.push(dt);
    }
    Ok(JoinReplay {
        partition_rows_s: partition(1),
        partition_rows_s_tn: partition(threads_n),
        cpu_radix_s: typical(&radix),
        coprocess_s: typical(&coprocess),
        coprocess_sim_s,
    })
}
