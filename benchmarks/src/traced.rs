//! The traced run (`--trace 1`): per-layer metrics, never end-to-end ones.
//!
//! "Traced" is three things, all from this package's own files:
//!
//! 1. *harness spans* ([`crate::spans`]) around every public call of a
//!    hand-stepped query — `Query::lower`, `optimize` / `place`,
//!    `verify_placed`, `Engine::begin`, each `QueryExec::step`, `finish` —
//!    and of every served wave (`submit_with`, `run_all`);
//! 2. the engine's own `TraceRecorder`, switched on through
//!    `ExecConfig::with_trace`, read for stage and packet wall spans;
//! 3. the direct-call replays of [`crate::replay`].
//!
//! Every pass runs each cell three ways at both thread counts — plain
//! `execute_with`, `execute_with` under the recorder, hand-stepped, in an
//! order that rotates with the pass — so the three are comparable: recorder-on over plain is
//! the tracing overhead, hand-stepped over plain is the span coverage.

use std::time::Instant;

use hape_core::{
    optimize, place, verify_placed, HapeError, LoweredQuery, PlacedPlan, PlacedStage,
    Placement, Query, QueryReport, SpanKind, Trace, TraceRecorder,
};
use hape_ops::{col, AggFunc};
use hape_storage::datagen::gen_key_fk_table;

use crate::replay::{self, ProviderReplay};
use crate::report::{CellRow, MetricSet, RunReport, PER_LAYER};
use crate::spans::{Span, SpanLog};
use crate::stats::{geomean, summary, typical};
use crate::timed::Args;
use crate::workload::{nproc, Cell, Fixture, Scale, COLD_EVERY};

/// Iterations of the one-packet dispatch probe per thread count.
const DISPATCH_ITERS: usize = 200;

/// Wall seconds of one hand-stepped query, by public call.
struct Stepped {
    lower_s: f64,
    /// `optimize` under `Placement::Auto`, `place` otherwise.
    plan_s: f64,
    verify_s: f64,
    begin_s: f64,
    build_s: f64,
    stream_s: f64,
    finish_s: f64,
    report: QueryReport,
    /// Per costed stage: (estimated, actual) simulated seconds.
    est_act: Vec<(f64, f64)>,
    lowered: LoweredQuery,
    placed: PlacedPlan,
}

impl Stepped {
    /// What `Session::execute_with` also does (it never verifies in a
    /// release build).
    fn covered_s(&self) -> f64 {
        self.lower_s + self.plan_s + self.begin_s + self.build_s + self.stream_s + self.finish_s
    }
}

/// `Session::execute_with`, taken apart into its public calls, each under
/// a harness span.
fn step_through(
    fixture: &Fixture,
    cell: &Cell,
    threads: usize,
    log: &mut SpanLog,
) -> Result<Stepped, HapeError> {
    let session = fixture.session();
    let engine = session.engine();
    let subject = format!("{} t={threads}", cell.label);
    let query = log.fresh_query();
    let root = log.open("query", &subject, query, None);
    let parent = Some(root);
    let config = cell.config(threads);

    let (lowered, lower_s) = log
        .time("Query::lower", &subject, query, parent, || cell.query.lower(session.catalog()));
    let lowered = lowered?;
    let (placed, plan_s) = if cell.placement == Placement::Auto {
        log.time("optimize", &subject, query, parent, || {
            optimize(&lowered.plan, &lowered.catalog, &config, &engine.server)
        })
    } else {
        log.time("place", &subject, query, parent, || {
            place(&lowered.plan, &config, &engine.server)
        })
    };
    let placed = placed?;
    let (verdict, verify_s) = log.time("verify_placed", &subject, query, parent, || {
        verify_placed(&placed, &lowered.catalog, &engine.server)
    });
    verdict?;
    let (exec, begin_s) = log.time("Engine::begin", &subject, query, parent, || {
        engine.begin(&lowered.catalog, &placed)
    });
    let mut exec = exec?;
    let (mut build_s, mut stream_s) = (0.0, 0.0);
    let mut est_act = Vec::new();
    while !exec.is_done() {
        let index = exec.stage_index();
        let before = exec.sim_time();
        let is_build = matches!(placed.stages[index], PlacedStage::Build { .. });
        let name = if is_build { "QueryExec::step(build)" } else { "QueryExec::step(stream)" };
        let (stepped, dt) = log.time(name, &subject, query, parent, || exec.step());
        stepped?;
        *(if is_build { &mut build_s } else { &mut stream_s }) += dt;
        if let Some(cost) = placed.costs.as_ref().and_then(|c| c.stages.get(index)) {
            let actual = exec.sim_time().saturating_sub(before).as_secs();
            est_act.push((cost.total_seconds(), actual));
        }
    }
    let (report, finish_s) =
        log.time("QueryExec::finish", &subject, query, parent, || exec.finish());
    log.close(root);
    Ok(Stepped {
        lower_s,
        plan_s,
        verify_s,
        begin_s,
        build_s,
        stream_s,
        finish_s,
        report,
        est_act,
        lowered,
        placed,
    })
}

/// Per-cell samples of one thread count.
#[derive(Default, Clone)]
struct CellSamples {
    plain_ms: Vec<f64>,
    recorded_ms: Vec<f64>,
    /// Hand-stepped: Σ of the spans `execute_with` also covers.
    covered_ms: Vec<f64>,
    lower_us: Vec<f64>,
    plan_us: Vec<f64>,
    verify_us: Vec<f64>,
    begin_us: Vec<f64>,
    build_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    finish_us: Vec<f64>,
}

/// Σ over cells of each cell's typical (fast-decile) value.
fn sum_typical<'a>(cells: impl Iterator<Item = &'a Vec<f64>>) -> f64 {
    cells.filter(|s| !s.is_empty()).map(|s| typical(s)).sum()
}

/// Σ wall nanoseconds of a trace's stage spans, and of its packet spans.
fn stage_and_packet_wall_ns(trace: &Trace) -> (u64, u64) {
    let wall = |kind: SpanKind| -> u64 {
        trace.spans.iter().filter(|s| s.kind == kind).map(|s| s.wall_elapsed_ns()).sum()
    };
    (wall(SpanKind::Stage), wall(SpanKind::Packet))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Typical latency of a one-packet query at `threads_n` minus at
/// threads=1: what dispatching a stage to the pool costs when there is
/// nothing to parallelise.
fn dispatch_overhead_us(fixture: &mut Fixture) -> Result<f64, String> {
    fixture.server.register_table("bench_tiny", gen_key_fk_table(1024, 1024, 1));
    let query =
        Query::new("tiny").from_table("bench_tiny").agg(vec![(AggFunc::Count, col("k"))]);
    let session = fixture.session();
    let mut us = [Vec::with_capacity(DISPATCH_ITERS), Vec::with_capacity(DISPATCH_ITERS)];
    for _ in 0..DISPATCH_ITERS {
        for (slot, threads) in [fixture.threads_n, 1].into_iter().enumerate() {
            let config = hape_core::ExecConfig::new(Placement::CpuOnly).with_threads(threads);
            let t = Instant::now();
            let report = session.execute_with(&query, &config).map_err(|e| e.to_string())?;
            us[slot].push(t.elapsed().as_secs_f64() * 1e6);
            if report.rows.first().map(|r| r.1[0]) != Some(1024.0) {
                return Err("dispatch probe miscounted".into());
            }
        }
    }
    Ok(typical(&us[0]) - typical(&us[1]))
}

pub fn run(args: &Args) -> Result<(RunReport, SpanLog), String> {
    let scale = if args.smoke { Scale::SMOKE } else { Scale::FULL };
    let passes = ((args.seconds * 3 / 5) as usize).max(3);
    let waves = (args.seconds as usize).max(COLD_EVERY);

    let (mut fixture, setup) = Fixture::setup(args.workload, scale, args.seed)?;
    let threads_n = fixture.threads_n;
    let n_cells = fixture.cells.len();
    let thread_counts = [threads_n, 1];
    let mut log = SpanLog::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // ---- Solo passes: plain, recorder-on and hand-stepped, interleaved.
    let mut samples =
        [vec![CellSamples::default(); n_cells], vec![CellSamples::default(); n_cells]];
    let mut first_steps: Vec<Option<Stepped>> = (0..n_cells).map(|_| None).collect();
    let (mut stage_wall_ns, mut packet_wall_ns) = (0u64, 0u64);
    let (mut engine_spans, mut recorded_queries) = (0usize, 0usize);
    for pass in 0..passes {
        for (slot, &threads) in thread_counts.iter().enumerate() {
            for (index, cell) in fixture.cells.iter().enumerate() {
                let s = &mut samples[slot][index];
                let config = cell.config(threads);
                // Whichever variant goes first finds the caches cold, so
                // the order of the three rotates with the pass.
                for variant in (0..3).map(|k| (k + pass) % 3) {
                    match variant {
                        0 => {
                            let t = Instant::now();
                            let report = fixture.session().execute_with(&cell.query, &config);
                            s.plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            check(cell.solo_ok(report.as_ref()));
                        }
                        1 => {
                            let recorder = TraceRecorder::new();
                            let traced_config = config.clone().with_trace(recorder.clone());
                            let t = Instant::now();
                            let report =
                                fixture.session().execute_with(&cell.query, &traced_config);
                            s.recorded_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            check(cell.solo_ok(report.as_ref()));
                            let trace = recorder.snapshot();
                            engine_spans += trace.spans.len();
                            recorded_queries += 1;
                            if threads == 1 {
                                let (stages, packets) = stage_and_packet_wall_ns(&trace);
                                stage_wall_ns += stages;
                                packet_wall_ns += packets;
                            }
                        }
                        _ => match step_through(&fixture, cell, threads, &mut log) {
                            Ok(step) => {
                                s.covered_ms.push(step.covered_s() * 1e3);
                                s.lower_us.push(step.lower_s * 1e6);
                                s.plan_us.push(step.plan_s * 1e6);
                                s.verify_us.push(step.verify_s * 1e6);
                                s.begin_us.push(step.begin_s * 1e6);
                                s.build_ms.push(step.build_s * 1e3);
                                s.stream_ms.push(step.stream_s * 1e3);
                                s.finish_us.push(step.finish_s * 1e6);
                                check(cell.solo_ok(Ok(&step.report)));
                                if slot == 0 && first_steps[index].is_none() {
                                    first_steps[index] = Some(step);
                                }
                            }
                            Err(_) => check(false),
                        },
                    }
                }
            }
        }
    }
    let first_steps: Vec<Stepped> = first_steps
        .into_iter()
        .zip(&fixture.cells)
        .map(|(s, c)| s.ok_or_else(|| format!("{}: could not be hand-stepped", c.label)))
        .collect::<Result<_, _>>()?;

    // ---- Served waves, each call under a harness span.
    let cache_before = fixture.server.cache_stats();
    let mut submit_us = Vec::new();
    let (mut warm_ms, mut run_all_ms) = (Vec::new(), Vec::new());
    let (mut admission_waits, mut warm_builds_cached, mut gpu_reserved_max) =
        (0usize, 0usize, 0u64);
    for index in 0..waves {
        let wave = fixture.wave(index);
        let id = log.fresh_query();
        let subject =
            format!("wave {index}{}", if Fixture::is_cold(index) { " cold" } else { "" });
        let base = log.ns_of(wave.started);
        let at = |seconds: f64| base + (seconds * 1e9) as u64;
        let span = |name, subject: String, parent, start: f64, seconds: f64| Span {
            name,
            subject,
            query: id,
            parent,
            start_ns: at(start),
            end_ns: at(start + seconds),
        };
        let root = log.record(span("wave", subject.clone(), None, 0.0, wave.wall_s));
        for &(cell, start, seconds) in &wave.submits {
            let label = fixture.cells[cell].label.clone();
            log.record(span("SessionServer::submit_with", label, Some(root), start, seconds));
            submit_us.push(seconds * 1e6);
        }
        let (start, seconds) = wave.run_all;
        log.record(span("SessionServer::run_all", subject, Some(root), start, seconds));
        for (cell, report) in fixture.cells.iter().zip(&wave.reports) {
            check(cell.served_ok(report.as_ref()));
        }
        admission_waits += wave.admission_waits;
        gpu_reserved_max = gpu_reserved_max.max(wave.gpu_reserved_max);
        if !Fixture::is_cold(index) {
            warm_ms.push(wave.wall_s * 1e3);
            run_all_ms.push(seconds * 1e3);
            warm_builds_cached += wave.builds_cached;
        }
    }
    let cache_after = fixture.server.cache_stats();
    let lookups = (cache_after.hits + cache_after.misses)
        .saturating_sub(cache_before.hits + cache_before.misses);

    // ---- Replays over the workload's own packets and columns.
    let server = fixture.session().engine().server.clone();
    let mut provider = ProviderReplay::default();
    let (mut eval_rows_s, mut agg_rows_s) = (0.0, 0.0);
    let mut stateful = [0.0f64; 4];
    let mut replayed: Vec<&str> = Vec::new();
    for (cell, step) in fixture.cells.iter().zip(&first_steps) {
        if let Some(r) = replay::provider_replay(&server, &step.lowered, &step.placed)? {
            provider.add(&r);
        }
        // One kernel replay per query, on its first cell.
        if replayed.contains(&cell.query.name.as_str()) {
            continue;
        }
        replayed.push(&cell.query.name);
        if cell.query.name == "Q1" {
            (eval_rows_s, agg_rows_s) = replay::q1_kernels(&step.lowered)?;
        }
        if let Ok((kind, events_s)) = replay::stateful_kernel(&step.lowered) {
            let slot = ["sessionize", "window_funnel", "retention", "sequence_match"]
                .iter()
                .position(|k| *k == kind)
                .expect("stateful_kernel names one of the four kinds");
            stateful[slot] = events_s;
        }
    }
    let join = match &fixture.tpch {
        Some(data) if fixture.cells.iter().any(|c| c.query.name == "Q9*") => {
            Some(replay::join_kernels(&server, data, threads_n)?)
        }
        _ => None,
    };
    let dispatch_us = dispatch_overhead_us(&mut fixture)?;

    // ---- Metrics.
    let [tn, t1] = &samples;
    let sum_tn = |f: fn(&CellSamples) -> &Vec<f64>| sum_typical(tn.iter().map(f));
    let sum_t1 = |f: fn(&CellSamples) -> &Vec<f64>| sum_typical(t1.iter().map(f));
    let is_auto = |index: usize| fixture.cells[index].placement == Placement::Auto;
    let plan_us = |auto: bool| {
        sum_typical(
            tn.iter().enumerate().filter(|(i, _)| is_auto(*i) == auto).map(|(_, s)| &s.plan_us),
        )
    };
    let ratios: Vec<f64> = first_steps
        .iter()
        .flat_map(|s| &s.est_act)
        .filter(|(est, act)| *est > 0.0 && *act > 0.0)
        .map(|(est, act)| est / act)
        .collect();
    // Worst sim(auto) / min sim(manual) over queries that have both.
    let auto_vs_manual = fixture
        .cells
        .iter()
        .filter(|c| c.placement == Placement::Auto)
        .filter_map(|auto| {
            fixture
                .cells
                .iter()
                .filter(|c| c.query.name == auto.query.name && c.placement != Placement::Auto)
                .map(|c| c.sim.as_secs())
                .reduce(f64::min)
                .map(|best| auto.sim.as_secs() / best)
        })
        .reduce(f64::max);
    // Per cell, both thread counts pooled: eight 2-thread samples alone
    // scatter by ±10 % on a box that covers 100 %.
    let coverage = samples[0]
        .iter()
        .zip(&samples[1])
        .map(|(tn, t1)| {
            (typical(&tn.covered_ms) + typical(&t1.covered_ms))
                / (typical(&tn.plain_ms) + typical(&t1.plain_ms))
        })
        .reduce(f64::min)
        .unwrap_or(0.0);
    let reports = || first_steps.iter().map(|s| &s.report);
    let plain_tn_ms = sum_tn(|s| &s.plain_ms);
    let sim_ms: f64 = fixture.cells.iter().map(|c| c.sim.as_ms()).sum();
    let warm_wave_ms = typical(&warm_ms);
    let warm_waves = warm_ms.len();

    let mut m = MetricSet::new(&PER_LAYER);
    m.put("tpch.generate_s", setup.generate_s);
    m.put("tpch.rows", fixture.generated_rows as f64);
    m.put("query.lower_us", sum_tn(|s| &s.lower_us));
    m.put("optimize.optimize_us", plan_us(true));
    let or_zero = |v: Option<f64>| v.unwrap_or(0.0);
    m.put("optimize.est_over_act_min", or_zero(ratios.iter().copied().reduce(f64::min)));
    m.put("optimize.est_over_act_max", or_zero(ratios.iter().copied().reduce(f64::max)));
    m.put(
        "optimize.est_over_act_geomean",
        if ratios.is_empty() { 0.0 } else { geomean(&ratios) },
    );
    m.put("optimize.auto_vs_best_manual", or_zero(auto_vs_manual));
    m.put("place.place_us", plan_us(false));
    m.put("verify.verify_us", sum_tn(|s| &s.verify_us));
    m.put("engine.begin_us", sum_tn(|s| &s.begin_us));
    m.put("engine.build_stages_ms", sum_tn(|s| &s.build_ms));
    m.put("engine.build_stages_ms_t1", sum_t1(|s| &s.build_ms));
    m.put("engine.stream_stages_ms", sum_tn(|s| &s.stream_ms));
    m.put("engine.stream_stages_ms_t1", sum_t1(|s| &s.stream_ms));
    m.put("engine.finish_us", sum_tn(|s| &s.finish_us));
    m.put("engine.stages", first_steps.iter().map(|s| s.placed.stages.len() as f64).sum());
    m.put("engine.packets_cpu", reports().map(|r| r.packets_cpu as f64).sum());
    m.put("engine.packets_gpu", reports().map(|r| r.packets_gpu as f64).sum());
    m.put("engine.h2d_mb", reports().map(|r| r.h2d_bytes as f64).sum::<f64>() / 1e6);
    m.put("engine.sim_cpu_busy_ms", reports().map(|r| r.cpu_busy.as_ms()).sum());
    m.put("engine.sim_gpu_busy_ms", reports().map(|r| r.gpu_busy.as_ms()).sum());
    m.put("engine.wall_per_sim", plain_tn_ms / sim_ms);
    m.put(
        "engine.unattributed_share",
        if stage_wall_ns == 0 {
            0.0
        } else {
            1.0 - packet_wall_ns as f64 / stage_wall_ns as f64
        },
    );
    let per_s =
        |count: u64, seconds: f64| if seconds > 0.0 { count as f64 / seconds } else { 0.0 };
    m.put("provider.run_ops_ms", provider.run_ops_s * 1e3);
    m.put("provider.run_ops_mrows_s", per_s(provider.rows, provider.run_ops_s) / 1e6);
    m.put("provider.charge_cpu_ms", provider.charge_cpu_s * 1e3);
    m.put("provider.charge_gpu_ms", provider.charge_gpu_s * 1e3);
    m.put("provider.fold_ms", provider.fold_s * 1e3);
    m.put("provider.packets", provider.packets as f64);
    m.put("runtime.thread_speedup", sum_t1(|s| &s.plain_ms) / plain_tn_ms);
    m.put("runtime.dispatch_overhead_us", dispatch_us);
    m.put("ops.eval_mrows_s", eval_rows_s / 1e6);
    m.put("ops.agg_update_mrows_s", agg_rows_s / 1e6);
    m.put("ops.stateful.sessionize_mev_s", stateful[0] / 1e6);
    m.put("ops.stateful.window_funnel_mev_s", stateful[1] / 1e6);
    m.put("ops.stateful.retention_mev_s", stateful[2] / 1e6);
    m.put("ops.stateful.sequence_match_mev_s", stateful[3] / 1e6);
    m.put("join.partition_mrows_s", join.map_or(0.0, |j| j.partition_rows_s / 1e6));
    m.put("join.partition_mrows_s_tn", join.map_or(0.0, |j| j.partition_rows_s_tn / 1e6));
    m.put("join.cpu_radix_ms", join.map_or(0.0, |j| j.cpu_radix_s * 1e3));
    m.put("join.coprocess_ms", join.map_or(0.0, |j| j.coprocess_s * 1e3));
    m.put("join.coprocess_sim_ms", join.map_or(0.0, |j| j.coprocess_sim_s * 1e3));
    let charge_s = provider.charge_cpu_s + provider.charge_gpu_s;
    m.put(
        "sim.host_us_per_sim_us",
        if provider.charged_sim_s > 0.0 { charge_s / provider.charged_sim_s } else { 0.0 },
    );
    m.put_summary("serve.submit_us_p10", summary(&submit_us));
    m.put_summary("serve.run_all_ms_p10", summary(&run_all_ms));
    m.put("serve.admission_waits_per_wave", admission_waits as f64 / waves as f64);
    m.put("serve.builds_cached_per_wave", warm_builds_cached as f64 / warm_waves as f64);
    m.put(
        "serve.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache_after.hits.saturating_sub(cache_before.hits) as f64 / lookups as f64
        },
    );
    m.put(
        "serve.cache_evictions",
        cache_after.evictions.saturating_sub(cache_before.evictions) as f64,
    );
    m.put("serve.gpu_reserved_mb_max", gpu_reserved_max as f64 / 1e6);
    m.put("serve.overhead_share", 1.0 - plain_tn_ms / warm_wave_ms);
    m.put(
        "trace.overhead_share",
        (sum_tn(|s| &s.recorded_ms) + sum_t1(|s| &s.recorded_ms))
            / (plain_tn_ms + sum_t1(|s| &s.plain_ms))
            - 1.0,
    );
    m.put("trace.spans_per_query", engine_spans as f64 / recorded_queries as f64);
    m.put("trace.span_coverage_min", coverage);
    m.put("process.peak_rss_mb", peak_rss_mb());

    let cells = fixture
        .cells
        .iter()
        .zip(tn.iter().zip(t1))
        .map(|(c, (tn, t1))| CellRow {
            label: c.label.clone(),
            tn_ms: summary(&tn.plain_ms),
            t1_ms: summary(&t1.plain_ms),
            sim_ms: c.sim.as_ms(),
        })
        .collect();
    let report = RunReport {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        traced: true,
        smoke: args.smoke,
        valid: !args.smoke,
        nproc: nproc(),
        threads_n,
        attempted,
        failed,
        metrics: m.finish(),
        cells,
    };
    Ok((report, log))
}
