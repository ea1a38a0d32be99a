//! The chaos sweep: clean-vs-faulted execution across the benchmark matrix.
//!
//! [`chaos_tpch`] runs every benchmark query — TPC-H Q1/Q5/Q6/Q9 over the
//! scaled paper testbed and the behavioral B1–B4 suite over the paper
//! testbed — under each placement (`cpu`, `gpu`, `hybrid`, `auto`) twice:
//! once clean and once under the canonical fault plan
//! (`FaultPlan::canonical(seed)`: a slow link, transient transfer
//! failures, a permanent GPU loss and a broadcast OOM, all seeded and
//! recoverable by construction). Each cell records:
//!
//! - how many faults actually fired (`injected`, from the traced run's
//!   `fault.injected` counter) plus the priced `retries` and `replans`;
//! - the **degradation ratio**: faulted makespan / clean makespan — the
//!   simulated cost of surviving the schedule;
//! - the **`rows_identical` bit**: result rows identical clean vs
//!   faulted, or — for cells the clean engine refuses (Q9's §6.4 GPU
//!   capacity cliff) — the identical typed refusal. Degradation must
//!   never change an answer; this is the machine-checkable acceptance
//!   bit CI asserts. Group keys and row counts must match exactly;
//!   float aggregates must agree to within [`REL_TOL`] relative error,
//!   because recovery legitimately re-routes packets (a priced retry
//!   shifts the sim clock, a replan moves lanes) and f64 summation is
//!   not associative — exact-integer workloads (`tests/differential.rs`) stay
//!   bit-identical, TPC-H's float sums agree to accumulation round-off.
//!   Each cell records the worst relative error observed (`max_rel_err`)
//!   so the artifact quantifies the round-off instead of hiding it.
//!
//! [`to_json`] serialises to `CHAOS_tpch.json` (through the sweeps' shared
//! envelope, [`crate::sweep_json`]), regenerated by CI smoke and uploaded
//! next to the `VERIFY_*` artifact.

use hape_core::trace::{json_escape, TraceRecorder};
use hape_core::{ExecConfig, FaultPlan, Placement};

use crate::{suite, sweep_json, SuiteQuery, PLACEMENTS};

/// One `(query, placement)` chaos cell: a clean run vs a faulted run.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Query label (`Q1`, ..., `B1_sessions`, ...).
    pub query: String,
    /// Device placement.
    pub placement: Placement,
    /// The clean run completed (false: a typed refusal, e.g. Q9 `gpu`).
    pub clean_ok: bool,
    /// The faulted run completed.
    pub faulted_ok: bool,
    /// Faults that actually fired during the faulted run.
    pub injected: u64,
    /// Transient transfer retries priced into the faulted makespan.
    pub retries: usize,
    /// Mid-query re-placements on the surviving fleet.
    pub replans: usize,
    /// Faulted makespan / clean makespan (1.0 when nothing fired or the
    /// cell refused — a refusal has no makespan to degrade).
    pub degraded_ratio: f64,
    /// Rows identical clean vs faulted — exact keys/arity, aggregates
    /// within [`REL_TOL`] — or identical typed refusals.
    pub rows_identical: bool,
    /// Worst relative error across all aggregate values (0.0 when the
    /// rows are bit-identical or the cell refused).
    pub max_rel_err: f64,
}

/// The whole sweep plus its verdict.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// TPC-H scale factor.
    pub sf: f64,
    /// Users in the behavioral event log.
    pub n_users: usize,
    /// Seed fed to [`FaultPlan::canonical`].
    pub seed: u64,
    /// Every `(query, placement)` cell.
    pub points: Vec<ChaosPoint>,
}

impl ChaosSweep {
    /// True when every cell's answer survived its faults bit-identically —
    /// the acceptance bit CI checks.
    pub fn rows_identical(&self) -> bool {
        self.points.iter().all(|p| p.rows_identical)
    }

    /// Total faults fired across the sweep.
    pub fn total_injected(&self) -> u64 {
        self.points.iter().map(|p| p.injected).sum()
    }
}

/// Relative tolerance for comparing float aggregates clean vs faulted.
/// Recovery re-orders the (non-associative) f64 aggregation folds, so
/// sums of floats agree only to accumulation round-off; observed errors
/// sit around 1e-16–1e-13, so 1e-9 separates round-off from a real
/// result change by four orders of magnitude.
pub const REL_TOL: f64 = 1e-9;

/// Exact group keys and arity; values within [`REL_TOL`] relative error.
/// Returns the verdict plus the worst relative error observed.
fn rows_match<K: PartialEq>(a: &[(K, Vec<f64>)], b: &[(K, Vec<f64>)]) -> (bool, f64) {
    if a.len() != b.len() {
        return (false, f64::INFINITY);
    }
    let mut max_rel = 0.0f64;
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        if ka != kb || va.len() != vb.len() {
            return (false, f64::INFINITY);
        }
        for (&x, &y) in va.iter().zip(vb) {
            let denom = x.abs().max(y.abs()).max(1.0);
            max_rel = max_rel.max((x - y).abs() / denom);
        }
    }
    (max_rel <= REL_TOL, max_rel)
}

fn chaos_one((engine, lowered): &SuiteQuery, placement: Placement, seed: u64) -> ChaosPoint {
    let (catalog, plan) = (&lowered.catalog, &lowered.plan);
    let clean = engine.run(catalog, plan, &ExecConfig::new(placement));
    let recorder = TraceRecorder::new();
    let faulted_cfg = ExecConfig::new(placement)
        .with_faults(FaultPlan::canonical(seed))
        .with_trace(recorder.clone());
    let faulted = engine.run(catalog, plan, &faulted_cfg);
    let injected = recorder.snapshot().counters.get("fault.injected").copied().unwrap_or(0);
    let (retries, replans) = faulted.as_ref().map_or((0, 0), |r| (r.retries, r.replans));
    let (rows_identical, max_rel_err, degraded_ratio) = match (&clean, &faulted) {
        (Ok(c), Ok(f)) => {
            let (same, err) = rows_match(&c.rows, &f.rows);
            (same, err, f.time / c.time)
        }
        // Both refused: degradation must not change *which* typed error
        // the engine reports (Q9 gpu refuses for capacity either way).
        (Err(c), Err(f)) => (c.to_string() == f.to_string(), 0.0, 1.0),
        // A fault flipping success/failure is a lost answer.
        _ => (false, f64::INFINITY, 1.0),
    };
    ChaosPoint {
        query: plan.name.clone(),
        placement,
        clean_ok: clean.is_ok(),
        faulted_ok: faulted.is_ok(),
        injected,
        retries,
        replans,
        degraded_ratio,
        rows_identical,
        max_rel_err,
    }
}

/// Sweep the TPC-H Q1/Q5/Q6/Q9 + behavioral B1–B4 × placement matrix:
/// run every cell clean and under `FaultPlan::canonical(seed)`, recording
/// fired faults, priced recovery work, the degradation ratio and the
/// rows-identical bit.
pub fn chaos_tpch(sf: f64, n_users: usize, seed: u64) -> ChaosSweep {
    let points = suite(sf, n_users)
        .iter()
        .flat_map(|q| PLACEMENTS.map(|placement| chaos_one(q, placement, seed)))
        .collect();
    ChaosSweep { sf, n_users, seed, points }
}

/// Render the sweep as an aligned table plus the verdict line.
pub fn print_chaos(sweep: &ChaosSweep) {
    println!(
        "== chaos sweep (sf={}, {} users, seed={}): {} combos",
        sweep.sf,
        sweep.n_users,
        sweep.seed,
        sweep.points.len()
    );
    println!(
        "{:>12} {:>8} {:>6} {:>8} {:>7} {:>7} {:>8} {:>9} {:>9}",
        "query",
        "place",
        "clean",
        "faulted",
        "fired",
        "retries",
        "replans",
        "degraded",
        "rel-err"
    );
    for p in &sweep.points {
        println!(
            "{:>12} {:>8} {:>6} {:>8} {:>7} {:>7} {:>8} {:>8.2}x {:>9.1e} {}",
            p.query,
            p.placement.to_string(),
            if p.clean_ok { "runs" } else { "refuse" },
            if p.faulted_ok { "runs" } else { "refuse" },
            p.injected,
            p.retries,
            p.replans,
            p.degraded_ratio,
            p.max_rel_err,
            if p.rows_identical { "" } else { "ROWS DIVERGED" },
        );
    }
    println!(
        "faults fired: {}   rows identical everywhere: {}",
        sweep.total_injected(),
        sweep.rows_identical()
    );
}

/// Serialise the sweep to JSON. Stable shape: `{sf, n_users, seed, combos,
/// faults_fired, rows_identical, points: [{query, placement, clean_ok,
/// faulted_ok, injected, retries, replans, degraded_ratio, max_rel_err,
/// rows_identical}]}`.
pub fn to_json(sweep: &ChaosSweep) -> String {
    let header = [
        ("sf", sweep.sf.to_string()),
        ("n_users", sweep.n_users.to_string()),
        ("seed", sweep.seed.to_string()),
        ("combos", sweep.points.len().to_string()),
        ("faults_fired", sweep.total_injected().to_string()),
        ("rows_identical", sweep.rows_identical().to_string()),
    ];
    let point = |p: &ChaosPoint| {
        format!(
            "{{\"query\": \"{}\", \"placement\": \"{}\", \"clean_ok\": {}, \
             \"faulted_ok\": {}, \"injected\": {}, \"retries\": {}, \"replans\": {}, \
             \"degraded_ratio\": {:.6}, \"max_rel_err\": {:e}, \
             \"rows_identical\": {}}}",
            json_escape(&p.query),
            p.placement,
            p.clean_ok,
            p.faulted_ok,
            p.injected,
            p.retries,
            p.replans,
            p.degraded_ratio,
            p.max_rel_err,
            p.rows_identical,
        )
    };
    sweep_json(&header, &sweep.points.iter().map(point).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_survives_faults_with_identical_rows() {
        let sweep = chaos_tpch(0.01, 1_000, 42);
        // (4 TPC-H + 4 behavioral) × 4 placements.
        assert_eq!(sweep.points.len(), 32);
        assert!(
            sweep.rows_identical(),
            "a fault schedule changed an answer: {:?}",
            sweep.points.iter().filter(|p| !p.rows_identical).collect::<Vec<_>>()
        );
        // The canonical schedule must actually exercise the fault plane on
        // GPU-bearing placements, and recovery must actually run.
        assert!(sweep.total_injected() > 0, "no fault ever fired");
        assert!(sweep.points.iter().any(|p| p.replans > 0), "no cell ever replanned");
        // The tolerance has four orders of magnitude of headroom over the
        // round-off actually observed; a drift toward it is a regression.
        for p in &sweep.points {
            assert!(
                p.max_rel_err <= 1e-12,
                "{}/{}: round-off grew suspiciously large ({:e})",
                p.query,
                p.placement,
                p.max_rel_err
            );
        }
        // CPU-only cells may still *arm* stage-triggered GPU faults at the
        // barrier (the device state changes), but no lane uses the device:
        // no recovery work, no degradation.
        for p in sweep.points.iter().filter(|p| p.placement == Placement::CpuOnly) {
            assert_eq!(p.retries, 0, "{}/cpu retried", p.query);
            assert_eq!(p.replans, 0, "{}/cpu replanned", p.query);
            assert_eq!(p.degraded_ratio, 1.0, "{}/cpu degraded", p.query);
        }
        // Recovery is priced, never free: a cell that replanned or
        // retried must not get *faster* than its clean run.
        for p in &sweep.points {
            if p.clean_ok && p.faulted_ok && (p.retries > 0 || p.replans > 0) {
                assert!(
                    p.degraded_ratio >= 1.0,
                    "{}/{}: recovery made the query faster ({:.3}x)",
                    p.query,
                    p.placement,
                    p.degraded_ratio
                );
            }
        }
        let json = to_json(&sweep);
        assert!(json.contains("\"rows_identical\": true"));
        assert!(json.contains("\"combos\": 32"));
        assert!(json.ends_with('}'));
    }
}
