//! Figure regeneration functions.

use hape_baselines::{DbmsC, DbmsG};
use hape_core::{Engine, ExecConfig, JoinAlgo, Placement};
use hape_join::gpu_radix::build_probe_phase;
use hape_join::{
    coprocess_join, cpu_npj, cpu_radix, gpu_npj, gpu_radix, radix_partition, BuildProbeVariant,
    CoprocessConfig, JoinInput, OutputMode,
};
use hape_sim::topology::Server;
use hape_sim::{CpuCostModel, Fidelity, GpuSim, GpuSpec};
use hape_storage::datagen::{gen_balanced_partition_keys, gen_unique_keys};
use hape_tpch::queries::{base_catalog, q1_query, q5_query, q6_query, q9_query, tpch_session};

/// One line/bar series of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's).
    pub label: String,
    /// `(x, seconds)` points; `None` y marks "system cannot run this point"
    /// (out of GPU memory / unsupported), which the paper renders as a
    /// missing bar.
    pub points: Vec<(f64, Option<f64>)>,
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id, e.g. `"fig6"`.
    pub id: String,
    /// Title (the paper's caption).
    pub title: String,
    /// X-axis meaning.
    pub xlabel: String,
    /// The series.
    pub series: Vec<Series>,
}

/// Print a figure as an aligned table.
pub fn print_figure(fig: &Figure) {
    println!("== {} — {}", fig.id, fig.title);
    // Each series column is as wide as its label plus one space, and never
    // narrower than a value, so adjacent labels cannot run together.
    let widths: Vec<usize> = fig.series.iter().map(|s| (s.label.len() + 1).max(18)).collect();
    print!("{:>24}", fig.xlabel);
    for (s, w) in fig.series.iter().zip(&widths) {
        print!("{:>w$}", s.label);
    }
    println!();
    let n = fig.series.first().map_or(0, |s| s.points.len());
    for i in 0..n {
        print!("{:>24}", fig.series[0].points[i].0);
        for (s, w) in fig.series.iter().zip(&widths) {
            match s.points[i].1 {
                Some(y) => print!("{y:>w$.6}"),
                None => print!("{:>w$}", "-"),
            }
        }
        println!();
    }
    println!();
}

fn vals_for(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// **Figure 5** — Scratchpad (SM) vs L1 during the GPU radix join's probe
/// phase: execution time vs partition size, over balanced co-partitions of
/// a `tuples`-row table (paper: 32M; default 1M), exact cache simulation.
pub fn fig5(tuples: usize, partition_sizes: &[usize]) -> Figure {
    let sim = GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Exact);
    let mut series: Vec<Series> =
        [BuildProbeVariant::Sm, BuildProbeVariant::SmL1, BuildProbeVariant::L1]
            .iter()
            .map(|v| Series { label: v.label().to_string(), points: Vec::new() })
            .collect();
    for &psize in partition_sizes {
        let fanout = (tuples / psize).next_power_of_two();
        let bits = fanout.trailing_zeros();
        let n = psize * fanout; // exact multiple so partitions balance
        let keys = gen_balanced_partition_keys(n, bits, 42);
        let vals = vals_for(n);
        let input = JoinInput::new(&keys, &vals);
        let (rp, _) = radix_partition(input, bits, bits.clamp(1, 8));
        let skeys = gen_balanced_partition_keys(n, bits, 43);
        let sinput = JoinInput::new(&skeys, &vals);
        let (sp, _) = radix_partition(sinput, bits, bits.clamp(1, 8));
        for (si, variant) in
            [BuildProbeVariant::Sm, BuildProbeVariant::SmL1, BuildProbeVariant::L1]
                .iter()
                .enumerate()
        {
            let (out, _) =
                build_probe_phase(&sim, &rp, &sp, *variant, OutputMode::AggregateOnly);
            assert_eq!(out.stats.matches, n as u64, "balanced key sets must fully match");
            series[si].points.push((psize as f64, Some(out.time.as_secs())));
        }
    }
    Figure {
        id: "fig5".into(),
        title: "Scratchpad (SM) vs L1 during GPU radix's probing phase".into(),
        xlabel: "partition size (#elements)".into(),
        series,
    }
}

/// Default table sizes for Figure 6 (paper: 1M..128M).
pub const FIG6_DEFAULT_SIZES: [usize; 4] = [1 << 20, 1 << 21, 1 << 22, 1 << 23];

/// **Figure 6** — parallel CPU and (single-)GPU joins, data pre-loaded on
/// the executing device: Partitioned/Non-partitioned × CPU/GPU + DBMS C/G.
pub fn fig6(sizes: &[usize]) -> Figure {
    let server = Server::paper_testbed();
    let workers = server.total_cpu_cores();
    let model = CpuCostModel::new(server.cpus[0].clone(), server.cpus[0].cores);
    let sim = GpuSim::new(server.gpus[0].clone(), Fidelity::Analytic);
    let dbms_c = DbmsC::new(server.clone());
    let dbms_g = DbmsG::new(server);
    let mut series: Vec<Series> = [
        "Partitioned CPU",
        "Partitioned GPU",
        "Non-partitioned CPU",
        "Non-partitioned GPU",
        "DBMS C",
        "DBMS G",
    ]
    .iter()
    .map(|l| Series { label: l.to_string(), points: Vec::new() })
    .collect();
    for &n in sizes {
        let rk = gen_unique_keys(n, 1);
        let sk = gen_unique_keys(n, 2);
        let vals = vals_for(n);
        let r = JoinInput::new(&rk, &vals);
        let s = JoinInput::new(&sk, &vals);
        let x = n as f64 / 1e6;
        let expect = n as u64;
        let push = |ser: &mut Series, out: Option<hape_join::JoinOutcome>| match out {
            Some(o) => {
                assert_eq!(o.stats.matches, expect);
                ser.points.push((x, Some(o.time.as_secs())));
            }
            None => ser.points.push((x, None)),
        };
        push(&mut series[0], Some(cpu_radix(r, s, &model, workers, OutputMode::AggregateOnly)));
        push(
            &mut series[1],
            gpu_radix(&sim, r, s, BuildProbeVariant::Sm, OutputMode::AggregateOnly).ok(),
        );
        push(&mut series[2], Some(cpu_npj(r, s, &model, workers, OutputMode::AggregateOnly)));
        push(&mut series[3], gpu_npj(&sim, r, s, OutputMode::AggregateOnly).ok());
        push(&mut series[4], Some(dbms_c.join_microbench(r, s).expect("the testbed has CPUs")));
        push(&mut series[5], dbms_g.join_microbench(r, s).ok());
    }
    Figure {
        id: "fig6".into(),
        title: "Comparison of parallel CPU and (single) GPU joins".into(),
        xlabel: "table size (Mtuples)".into(),
        series,
    }
}

/// Default sizes for Figure 7 (paper: 256M..2048M; these are scaled, with
/// GPU memory shrunk proportionally so the joins are genuinely out-of-GPU).
pub const FIG7_DEFAULT_SIZES: [usize; 4] = [1 << 21, 1 << 22, 1 << 23, 1 << 24];

/// **Figure 7** — join co-processing on CPU-resident data too large for GPU
/// memory: 1 GPU, 2 GPUs, DBMS C, DBMS G.
///
/// GPU capacity is scaled as `capacity × n / 256M`, preserving the paper's
/// data-to-memory ratio at every point.
pub fn fig7(sizes: &[usize]) -> Figure {
    let mut series: Vec<Series> = ["1 GPU", "2 GPUs", "DBMS C", "DBMS G"]
        .iter()
        .map(|l| Series { label: l.to_string(), points: Vec::new() })
        .collect();
    for &n in sizes {
        let mem_factor = n as f64 / (256 << 20) as f64;
        let server = Server::paper_testbed_gpu_mem_scaled(mem_factor);
        let rk = gen_unique_keys(n, 5);
        let sk = gen_unique_keys(n, 6);
        let vals = vals_for(n);
        let r = JoinInput::new(&rk, &vals);
        let s = JoinInput::new(&sk, &vals);
        let x = n as f64 / 1e6;
        for (si, gpus) in [(0usize, 1usize), (1, 2)] {
            let cfg = CoprocessConfig { n_gpus: gpus, ..Default::default() };
            let rep = coprocess_join(&server, r, s, &cfg).expect("co-processing failed");
            assert_eq!(rep.outcome.stats.matches, n as u64);
            series[si].points.push((x, Some(rep.outcome.time.as_secs())));
        }
        let dbms_c = DbmsC::new(server.clone());
        let out = dbms_c.join_large(r, s).expect("the testbed has CPUs");
        assert_eq!(out.stats.matches, n as u64);
        series[2].points.push((x, Some(out.time.as_secs())));
        // DBMS G: UVA out-of-GPU access; the paper stops plotting it after
        // 512M (scaled: 2× the base size) because it "performs poorly".
        let dbms_g = DbmsG::new(server);
        let uva = dbms_g.join_uva_time(n as u64).expect("the testbed has GPUs");
        series[3].points.push((x, (mem_factor <= 2.0).then(|| uva.as_secs())));
    }
    Figure {
        id: "fig7".into(),
        title: "Comparison of join co-processing using 1 and 2 GPUs".into(),
        xlabel: "table size (Mtuples)".into(),
        series,
    }
}

/// The Proteus series label for a placement (paper legend style).
fn proteus_label(placement: Placement) -> &'static str {
    match placement {
        Placement::CpuOnly => "Proteus CPUs",
        Placement::GpuOnly => "Proteus GPUs",
        Placement::Hybrid => "Proteus Hybrid",
        Placement::Auto => "Proteus Auto",
    }
}

/// **Figure 8** — TPC-H Q1/Q5/Q6/Q9* over seed-420 data (the repo
/// benchmark's setup) end-to-end: DBMS C, one Proteus series per entry of
/// `placements`, DBMS G (the paper's legend is cpu, hybrid, gpu; pass
/// `Placement::Auto` to plot the cost-based optimizer against them). GPU
/// memory scales with `sf/100` so the paper's SF-100 capacity effects
/// reproduce: Q9's broadcast tables overflow the GPUs, so the manual GPU
/// placements fail while Auto plans the §5 co-processing stage.
/// `packet_rows` overrides the auto heuristic
/// ([`ExecConfig::auto_packet_rows`]); packet size changes the simulated
/// routing.
pub fn fig8(sf: f64, placements: &[Placement], packet_rows: Option<usize>) -> Figure {
    let server = Server::tpch_scaled(sf);
    let session = tpch_session(&hape_tpch::generate(sf, 420), server.clone());
    let dbms_c = DbmsC::new(server.clone());
    let dbms_g = DbmsG::new(server);
    let mut series: Vec<Series> = std::iter::once("DBMS C")
        .chain(placements.iter().map(|&p| proteus_label(p)))
        .chain(std::iter::once("DBMS G"))
        .map(|l| Series { label: l.to_string(), points: Vec::new() })
        .collect();
    let part = JoinAlgo::Partitioned;
    for (qi, query) in
        [q1_query(), q5_query(part), q6_query(), q9_query(part)].iter().enumerate()
    {
        let q = session.lower(query).expect("TPC-H lowers");
        let x = qi as f64 + 1.0;
        series[0].points.push((
            x,
            Some(dbms_c.run_plan(&q.catalog, &q.plan).expect("DBMS-C runs").time.as_secs()),
        ));
        for (si, &placement) in placements.iter().enumerate() {
            // Q9's hash tables exceed GPU memory (§6.4): the manual GPU
            // placements are missing bars, while Auto completes it through
            // the optimizer-planned co-processing stage — no special-cased
            // fallback here.
            let mut cfg = ExecConfig::new(placement);
            cfg.packet_rows = packet_rows;
            let t =
                session.engine().run(&q.catalog, &q.plan, &cfg).ok().map(|r| r.time.as_secs());
            series[1 + si].points.push((x, t));
        }
        let last = series.len() - 1;
        series[last]
            .points
            .push((x, dbms_g.run_plan(&q.catalog, &q.plan).ok().map(|r| r.time.as_secs())));
    }
    Figure {
        id: "fig8".into(),
        title: "CPU-, GPU-only and Hybrid performance on TPC-H (x = Q1,Q5,Q6,Q9*)".into(),
        xlabel: "query".into(),
        series,
    }
}

/// **Figure 9** — partitioned vs non-partitioned GPU-side join inside
/// TPC-H Q5, for GPU-only and Hybrid execution.
pub fn fig9(sf: f64) -> Figure {
    let data = hape_tpch::generate(sf, 421);
    let catalog = base_catalog(&data);
    let server = Server::tpch_scaled(sf);
    let engine = Engine::new(server);
    let mut series: Vec<Series> = ["Non-partitioned join", "Partitioned join"]
        .iter()
        .map(|l| Series { label: l.to_string(), points: Vec::new() })
        .collect();
    for (xi, placement) in [(1.0, Placement::GpuOnly), (2.0, Placement::Hybrid)] {
        for (si, algo) in [(0usize, JoinAlgo::NonPartitioned), (1, JoinAlgo::Partitioned)] {
            let q5 = q5_query(algo).lower(&catalog).expect("Q5 lowers");
            let t = engine
                .run(&q5.catalog, &q5.plan, &ExecConfig::new(placement))
                .expect("Q5 fits GPU memory")
                .time
                .as_secs();
            series[si].points.push((xi, Some(t)));
        }
    }
    Figure {
        id: "fig9".into(),
        title: "Partitioned vs non-partitioned join on TPC-H Q5 (x=1: GPU, x=2: Hybrid)".into(),
        xlabel: "configuration".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_sm_flat_and_fastest() {
        let fig = fig5(1 << 17, &[256, 1024, 4096]);
        let sm = &fig.series[0];
        let sml1 = &fig.series[1];
        let l1 = &fig.series[2];
        for i in 0..sm.points.len() {
            let (s, m, l) =
                (sm.points[i].1.unwrap(), sml1.points[i].1.unwrap(), l1.points[i].1.unwrap());
            assert!(s <= m * 1.05, "SM {s} !<= SM+L1 {m} at point {i}");
            assert!(m <= l * 1.05, "SM+L1 {m} !<= L1 {l} at point {i}");
        }
        // L1 degrades with partition size; SM stays near-flat.
        let sm_ratio = sm.points.last().unwrap().1.unwrap() / sm.points[0].1.unwrap();
        let l1_ratio = l1.points.last().unwrap().1.unwrap() / l1.points[0].1.unwrap();
        assert!(l1_ratio > sm_ratio, "L1 should degrade faster: {l1_ratio} vs {sm_ratio}");
    }

    #[test]
    fn fig6_shape_partitioned_gpu_wins() {
        let fig = fig6(&[1 << 19, 1 << 21]);
        let last = fig.series[0].points.len() - 1;
        let p_cpu = fig.series[0].points[last].1.unwrap();
        let p_gpu = fig.series[1].points[last].1.unwrap();
        let np_cpu = fig.series[2].points[last].1.unwrap();
        let np_gpu = fig.series[3].points[last].1.unwrap();
        assert!(p_gpu < np_gpu, "partitioned GPU {p_gpu} !< NPJ GPU {np_gpu}");
        assert!(p_gpu < p_cpu, "partitioned GPU {p_gpu} !< partitioned CPU {p_cpu}");
        assert!(p_cpu < np_cpu, "partitioned CPU {p_cpu} !< NPJ CPU {np_cpu}");
    }

    #[test]
    fn fig8_auto_bar_completes_q9_where_gpu_only_cannot() {
        let fig = fig8(0.01, &[Placement::GpuOnly, Placement::Auto], None);
        assert_eq!(fig.series[1].label, "Proteus GPUs");
        assert_eq!(fig.series[2].label, "Proteus Auto");
        let q9 = fig.series[1].points.len() - 1;
        assert!(fig.series[1].points[q9].1.is_none(), "Q9 GPU-only must be a missing bar");
        assert!(fig.series[2].points[q9].1.is_some(), "Q9 Auto must complete");
        assert!(fig.series[2].points.iter().all(|p| p.1.is_some()), "Auto runs every query");
    }

    #[test]
    fn fig7_shape_two_gpus_faster_dbmsg_collapses() {
        let fig = fig7(&[1 << 20, 1 << 21]);
        for i in 0..2 {
            let one = fig.series[0].points[i].1.unwrap();
            let two = fig.series[1].points[i].1.unwrap();
            assert!(two < one, "2 GPUs {two} !< 1 GPU {one}");
            let g = fig.series[3].points[i].1.unwrap();
            assert!(g > two * 3.0, "DBMS G should collapse out-of-GPU: {g} vs {two}");
        }
    }
}
