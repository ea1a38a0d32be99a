//! The timed run (`--trace 0`): every tracer off, end-to-end metrics only.
//!
//! Set-up runs [`SETUPS`] times and reports its median; every other timing
//! is the fast decile of its samples ([`crate::stats::typical`]).
//! Measurement proceeds in *rounds* until the requested seconds have
//! passed and the round floor is met. A round runs every cell solo at
//! `threads_n`, every cell solo at threads=1, and one warm and one cold
//! served wave of all cells. Rounds interleave everything a run measures,
//! so a noisy neighbour taxes every cell, both thread counts and both kinds
//! of wave alike instead of one block of samples.

use std::time::Instant;

use crate::report::{CellRow, MetricSet, RunReport, END_TO_END};
use crate::stats::{geomean, median, summary, Summary};
use crate::workload::{nproc, Fixture, Scale, Workload, COLD_EVERY};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Rounds a full run never goes below: 20 samples of every timing, two
/// of them under the fast decile.
pub const MIN_ROUNDS: usize = 20;

/// Rounds of a smoke run.
const SMOKE_ROUNDS: usize = 2;

/// Measurement stops here even below the round floor, to stay inside the
/// contract's exit limit; the run is then marked invalid.
const HARD_STOP_S: f64 = 120.0;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

pub fn run(args: &Args) -> Result<RunReport, String> {
    let scale = if args.smoke { Scale::SMOKE } else { Scale::FULL };
    let min_rounds = if args.smoke { SMOKE_ROUNDS } else { MIN_ROUNDS };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Drop the previous fixture first: set-ups must not overlap in
        // memory, or the later ones measure a bigger heap.
        drop(fixture.take());
        let (f, times) = Fixture::setup(args.workload, scale, args.seed)?;
        setup_s.push(times.total_s);
        fixture = Some(f);
    }
    let mut fixture = fixture.expect("SETUPS > 0");
    let n_cells = fixture.cells.len();
    let threads_n = fixture.threads_n;

    let mut tn_ms = vec![Vec::new(); n_cells];
    let mut t1_ms = vec![Vec::new(); n_cells];
    let mut warm_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let started = Instant::now();
    let mut round = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if (elapsed >= args.seconds as f64 && round >= min_rounds) || elapsed >= HARD_STOP_S {
            break;
        }
        for (threads, samples) in [(threads_n, &mut tn_ms), (1, &mut t1_ms)] {
            for (cell, cell_samples) in fixture.cells.iter().zip(samples.iter_mut()) {
                let config = cell.config(threads);
                let t = Instant::now();
                let report = fixture.session().execute_with(&cell.query, &config);
                cell_samples.push(t.elapsed().as_secs_f64() * 1e3);
                attempted += 1;
                failed += u64::from(!cell.solo_ok(report.as_ref()));
            }
        }
        // One cold cycle: the warm wave first, it finds the cache the
        // previous round's cold wave filled.
        for index in round * COLD_EVERY..(round + 1) * COLD_EVERY {
            let wave = fixture.wave(index);
            let target = if Fixture::is_cold(index) { &mut cold_ms } else { &mut warm_ms };
            target.push(wave.wall_s * 1e3);
            for (cell, report) in fixture.cells.iter().zip(&wave.reports) {
                attempted += 1;
                failed += u64::from(!cell.served_ok(report.as_ref()));
            }
        }
        round += 1;
    }

    let tn: Vec<Summary> = tn_ms.iter().map(|s| summary(s)).collect();
    let t1: Vec<Summary> = t1_ms.iter().map(|s| summary(s)).collect();
    let geomean_of = |cells: &[Summary], pick: fn(&Summary) -> f64| {
        geomean(&cells.iter().map(pick).collect::<Vec<_>>())
    };
    let scan_rows: u64 = fixture.cells.iter().map(|c| c.scan_rows).sum();
    let rows_per_s = |pick: fn(&Summary) -> f64| {
        scan_rows as f64 / (tn.iter().map(pick).sum::<f64>() * 1e-3)
    };

    let mut m = MetricSet::new(&END_TO_END);
    let setups = summary(&setup_s);
    m.put_banded("setup_s", median(&setup_s), (setups.p25, setups.p75), SETUPS);
    for (name, cells) in [("query_ms_geomean", &tn), ("query_ms_geomean_t1", &t1)] {
        m.put_banded(
            name,
            geomean_of(cells, |s| s.p10),
            (geomean_of(cells, |s| s.p25), geomean_of(cells, |s| s.p75)),
            round,
        );
    }
    m.put_banded(
        "rows_per_s",
        rows_per_s(|s| s.p10),
        (rows_per_s(|s| s.p75), rows_per_s(|s| s.p25)),
        round,
    );
    m.put_summary("wave_ms_p10", summary(&warm_ms));
    m.put_summary("cold_wave_ms_p10", summary(&cold_ms));
    // Closed loop, one client: throughput is the cells of a wave over its
    // typical wall, warm and cold waves pooled as the client sees them.
    let waves = summary(&[warm_ms, cold_ms].concat());
    let qps = |wave_ms: f64| n_cells as f64 / (wave_ms * 1e-3);
    m.put_banded("serve_qps", qps(waves.p10), (qps(waves.p75), qps(waves.p25)), waves.n);
    m.put("sim_ms_total", fixture.cells.iter().map(|c| c.sim.as_ms()).sum());

    let cells = fixture
        .cells
        .iter()
        .zip(tn.iter().zip(&t1))
        .map(|(c, (tn, t1))| CellRow {
            label: c.label.clone(),
            tn_ms: *tn,
            t1_ms: *t1,
            sim_ms: c.sim.as_ms(),
        })
        .collect();
    Ok(RunReport {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        smoke: args.smoke,
        valid: !args.smoke && round >= MIN_ROUNDS,
        nproc: nproc(),
        threads_n,
        attempted,
        failed,
        metrics: m.finish(),
        cells,
    })
}
