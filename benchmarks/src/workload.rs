//! The four workloads: their data, their cells and their set-up.
//!
//! A *cell* is one (query, placement) pair. Every workload runs its cells
//! two ways: solo through `Session::execute_with` and together as one
//! served wave through `SessionServer`. Set-up generates the data from the
//! seed, registers it, computes the reference answers and runs every cell
//! once, checked, both ways.

use std::time::Instant;

use hape_core::serve::SessionServer;
use hape_core::{
    EngineError, ExecConfig, HapeError, JoinAlgo, Placement, Query, QueryReport, Session,
};
use hape_ops::GroupKey;
use hape_sim::topology::Server;
use hape_sim::SimTime;
use hape_storage::Table;
use hape_tpch::reference::rows_approx_eq;
use hape_tpch::TpchData;

/// Result rows of a query.
pub type Rows = Vec<(GroupKey, Vec<f64>)>;

/// A wave is cold when its index is `COLD_EVERY - 1` modulo `COLD_EVERY`:
/// warm and cold waves alternate, so a run gives both the same number of
/// samples.
pub const COLD_EVERY: usize = 2;

const MANUAL_AND_AUTO: [Placement; 4] =
    [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto];

/// Input sizes. `FULL` is what every reported number is measured at;
/// `SMOKE` exists for the unit tests only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub sf: f64,
    pub users: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { sf: 0.05, users: 20_000 };
    pub const SMOKE: Scale = Scale { sf: 0.01, users: 2_000 };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchScan,
    TpchJoin,
    Behavioral,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TpchScan, Workload::TpchJoin, Workload::Behavioral, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchScan => "tpch_scan",
            Workload::TpchJoin => "tpch_join",
            Workload::Behavioral => "behavioral",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn uses_tpch(self) -> bool {
        self != Workload::Behavioral
    }

    fn uses_events(self) -> bool {
        matches!(self, Workload::Behavioral | Workload::ServeMixed)
    }
}

/// How a cell's rows are compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compare {
    /// Against a `hape_tpch::reference` oracle: parallel folds reorder
    /// float sums, so values match to a relative 1e-9.
    Approx,
    /// Against the cell's own cpu / threads=1 rows, bit for bit.
    Exact,
}

/// One (query, placement) pair with everything needed to check a run of it.
pub struct Cell {
    pub label: String,
    pub query: Query,
    pub placement: Placement,
    reference: Rows,
    compare: Compare,
    /// Simulated makespan of a solo run; identical at every thread count.
    pub sim: SimTime,
    /// Rows of every table the cell's stages scan.
    pub scan_rows: u64,
}

impl Cell {
    fn rows_match(&self, rows: &Rows) -> bool {
        match self.compare {
            Compare::Approx => rows_approx_eq(rows, &self.reference),
            Compare::Exact => *rows == self.reference,
        }
    }

    /// A solo run is correct when its rows match the reference and its
    /// simulated makespan is the one set-up recorded.
    pub fn solo_ok(&self, report: Result<&QueryReport, &HapeError>) -> bool {
        report.is_ok_and(|r| self.rows_match(&r.rows) && r.time == self.sim)
    }

    /// A served run must return the solo rows. Its simulated makespan is
    /// the solo one unless the build cache served it tables, which can
    /// only shorten it.
    pub fn served_ok(&self, report: Result<&QueryReport, &HapeError>) -> bool {
        report.is_ok_and(|r| {
            self.rows_match(&r.rows)
                && if r.builds_cached == 0 { r.time == self.sim } else { r.time <= self.sim }
        })
    }

    pub fn config(&self, threads: usize) -> ExecConfig {
        ExecConfig::new(self.placement).with_threads(threads)
    }
}

/// Wall seconds of the parts of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
}

/// A workload ready to measure.
pub struct Fixture {
    pub server: SessionServer,
    pub cells: Vec<Cell>,
    /// Re-registered before a cold wave: the catalog version moves, so
    /// every build-cache entry is invalid.
    bump: Table,
    pub tpch: Option<TpchData>,
    pub threads_n: usize,
    /// Base submission order of a wave, shuffled from the seed.
    order: Vec<usize>,
    /// Rows generated across all tables.
    pub generated_rows: u64,
}

/// One served wave: what came back, and when each call ran.
pub struct Wave {
    /// When the wave began (before a cold wave's re-registration).
    pub started: Instant,
    /// Per `submit_with`, in submission order: (cell, start, seconds), the
    /// start in seconds after `started`.
    pub submits: Vec<(usize, f64, f64)>,
    /// `run_all`: (start, seconds).
    pub run_all: (f64, f64),
    pub wall_s: f64,
    /// Reports in cell order.
    pub reports: Vec<Result<QueryReport, HapeError>>,
    pub admission_waits: usize,
    pub builds_cached: usize,
    pub gpu_reserved_max: u64,
}

/// Cores the host offers; printed with every result that depends on threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Data-plane threads of the `threads_n` measurements.
pub fn threads_n() -> usize {
    nproc().min(4)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

fn label(query: &Query, placement: Placement) -> String {
    format!("{}/{placement}", query.name)
}

impl Fixture {
    /// Generate, register, compute references, and run every cell once at
    /// threads=1, once at `threads_n` and twice served (a cold wave, then a
    /// warm one), all checked. Any mismatch is an error: a workload whose
    /// set-up does not verify is not measured.
    pub fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
    ) -> Result<(Fixture, SetupTimes), String> {
        let started = Instant::now();
        let tpch = workload.uses_tpch().then(|| hape_tpch::generate(scale.sf, seed));
        let events =
            workload.uses_events().then(|| hape_tpch::generate_events(scale.users, seed));
        let generate_s = started.elapsed().as_secs_f64();

        let server = match workload {
            Workload::Behavioral => Server::paper_testbed(),
            _ => Server::tpch_scaled(scale.sf),
        };
        let mut session = Session::new(server);
        let mut generated_rows = 0u64;
        if let Some(d) = &tpch {
            for t in [
                &d.lineitem,
                &d.orders,
                &d.customer,
                &d.supplier,
                &d.partsupp,
                &d.nation,
                &d.region,
            ] {
                generated_rows += t.rows() as u64;
                session.register(t.clone());
            }
        }
        if let Some(e) = &events {
            generated_rows += e.rows() as u64;
            session.register(e.clone());
        }
        let bump = match (&tpch, &events) {
            (Some(d), _) => d.nation.clone(),
            (None, Some(e)) => e.clone(),
            (None, None) => unreachable!("every workload has data"),
        };

        let algo = JoinAlgo::Partitioned;
        let mut pairs: Vec<(Query, Placement)> = Vec::new();
        let all = |pairs: &mut Vec<(Query, Placement)>, q: Query, ps: &[Placement]| {
            pairs.extend(ps.iter().map(|&p| (q.clone(), p)));
        };
        match workload {
            Workload::TpchScan => {
                all(&mut pairs, hape_tpch::q1_query(), &MANUAL_AND_AUTO);
                all(&mut pairs, hape_tpch::q6_query(), &MANUAL_AND_AUTO);
            }
            Workload::TpchJoin => {
                all(&mut pairs, hape_tpch::q5_query(algo), &MANUAL_AND_AUTO);
                all(
                    &mut pairs,
                    hape_tpch::q9_query(algo),
                    &[Placement::CpuOnly, Placement::Auto],
                );
            }
            Workload::Behavioral => {
                for q in hape_tpch::behavioral_queries() {
                    all(
                        &mut pairs,
                        q,
                        &[Placement::CpuOnly, Placement::Hybrid, Placement::Auto],
                    );
                }
            }
            Workload::ServeMixed => {
                all(
                    &mut pairs,
                    hape_tpch::q1_query(),
                    &[Placement::CpuOnly, Placement::Hybrid],
                );
                all(
                    &mut pairs,
                    hape_tpch::q5_query(algo),
                    &[Placement::Hybrid, Placement::Auto],
                );
                all(
                    &mut pairs,
                    hape_tpch::q6_query(),
                    &[Placement::GpuOnly, Placement::Hybrid],
                );
                all(
                    &mut pairs,
                    hape_tpch::q9_query(algo),
                    &[Placement::CpuOnly, Placement::Auto],
                );
                for q in hape_tpch::behavioral_queries() {
                    all(&mut pairs, q, &[Placement::Auto]);
                }
            }
        }

        let threads_n = threads_n();
        let mut cells = Vec::with_capacity(pairs.len());
        for (query, placement) in pairs {
            let label = label(&query, placement);
            let lowered = session.lower(&query).map_err(|e| format!("{label}: {e}"))?;
            let scan_rows = lowered
                .plan
                .stages
                .iter()
                .map(|stage| {
                    let pipeline = match stage {
                        hape_core::Stage::Build { pipeline, .. }
                        | hape_core::Stage::Stream { pipeline, .. } => pipeline,
                    };
                    lowered.catalog.get(&pipeline.source).map_or(0, |t| t.rows() as u64)
                })
                .sum();
            let t1 = session
                .execute_with(&query, &ExecConfig::new(placement).with_threads(1))
                .map_err(|e| format!("{label}: {e}"))?;
            let same_query = cells.iter().find(|c: &&Cell| c.query.name == query.name);
            let (reference, compare) = match (same_query, &tpch, query.name.as_str()) {
                (Some(c), _, _) => (c.reference.clone(), c.compare),
                (None, Some(d), "Q1") => (hape_tpch::q1_reference(d), Compare::Approx),
                (None, Some(d), "Q5") => (hape_tpch::q5_reference(d), Compare::Approx),
                (None, Some(d), "Q6") => (hape_tpch::q6_reference(d), Compare::Approx),
                (None, Some(d), "Q9*") => (hape_tpch::q9_reference(d), Compare::Approx),
                // B1–B4 have no scale-free oracle: the cpu / threads=1
                // rows are the reference every other run must equal.
                _ => {
                    let cpu = ExecConfig::new(Placement::CpuOnly).with_threads(1);
                    let rows = session
                        .execute_with(&query, &cpu)
                        .map_err(|e| format!("{label}: {e}"))?;
                    (rows.rows, Compare::Exact)
                }
            };
            let cell =
                Cell { label, query, placement, reference, compare, sim: t1.time, scan_rows };
            let tn = session.execute_with(&cell.query, &cell.config(threads_n));
            if !cell.solo_ok(Ok(&t1)) || !cell.solo_ok(tn.as_ref()) {
                return Err(format!("{}: warm-up run differs from its reference", cell.label));
            }
            cells.push(cell);
        }

        if workload == Workload::TpchJoin {
            // The §6.4 cliff: Q9*'s broadcast tables do not fit a GPU, so
            // the manual GPU placements must refuse with the typed error.
            for placement in [Placement::GpuOnly, Placement::Hybrid] {
                let refused = session.execute_with(
                    &hape_tpch::q9_query(algo),
                    &ExecConfig::new(placement).with_threads(threads_n),
                );
                if !matches!(
                    refused,
                    Err(HapeError::Engine(EngineError::GpuMemoryExceeded { .. }))
                ) {
                    return Err(format!("Q9*/{placement}: expected the GPU-memory refusal"));
                }
            }
        }

        let order = shuffled(cells.len(), seed);
        let mut fixture = Fixture {
            server: SessionServer::new(session),
            cells,
            bump,
            tpch,
            threads_n,
            order,
            generated_rows,
        };
        for index in [COLD_EVERY - 1, 0] {
            let wave = fixture.wave(index);
            if let Some(bad) =
                fixture.cells.iter().zip(&wave.reports).find(|(c, r)| !c.served_ok(r.as_ref()))
            {
                return Err(format!("{}: warm-up wave differs from the solo run", bad.0.label));
            }
        }
        let total_s = started.elapsed().as_secs_f64();
        Ok((fixture, SetupTimes { total_s, generate_s }))
    }

    /// The session solo runs go through.
    pub fn session(&self) -> &Session {
        self.server.session()
    }

    pub fn is_cold(wave_index: usize) -> bool {
        wave_index % COLD_EVERY == COLD_EVERY - 1
    }

    /// Run wave `index`: closed loop, one client. Every cell is submitted
    /// (order rotated by the wave index), then one blocking `run_all`.
    pub fn wave(&mut self, index: usize) -> Wave {
        let started = Instant::now();
        if Fixture::is_cold(index) {
            self.server.register_table(self.bump.name.clone(), self.bump.clone());
        }
        let n = self.cells.len();
        let mut handles = vec![None; n];
        let mut submits = Vec::with_capacity(n);
        for k in 0..n {
            let cell_index = self.order[(k + index) % n];
            let cell = &self.cells[cell_index];
            let config = cell.config(self.threads_n);
            let at = started.elapsed().as_secs_f64();
            let handle = self.server.submit_with(&cell.query, &config);
            submits.push((cell_index, at, started.elapsed().as_secs_f64() - at));
            handles[cell_index] = Some(handle);
        }
        let at = started.elapsed().as_secs_f64();
        let mut batch = self.server.run_all();
        let wall_s = started.elapsed().as_secs_f64();
        let admission_waits = batch.total_admission_waits();
        let builds_cached = batch.total_builds_cached();
        let gpu_reserved_max = batch.outcomes.iter().map(|o| o.gpu_reserved).max().unwrap_or(0);
        let mut reports = Vec::with_capacity(n);
        for handle in handles.into_iter().flatten() {
            let found = batch
                .outcomes
                .iter()
                .position(|o| o.handle == handle)
                .expect("run_all reports every submitted handle");
            reports.push(batch.outcomes.swap_remove(found).report);
        }
        Wave {
            started,
            submits,
            run_all: (at, wall_s - at),
            wall_s,
            reports,
            admission_waits,
            builds_cached,
            gpu_reserved_max,
        }
    }
}
