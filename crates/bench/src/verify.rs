//! The static-verification sweep: TPC-H + behavioral × placement.
//!
//! [`verify_tpch`] runs the static plan verifier (`hape_core::verify`)
//! over every plan the benchmark suites execute — TPC-H Q1/Q5/Q6/Q9 over
//! the scaled paper testbed and the behavioral B1–B4 suite over the
//! paper testbed — under each placement (`cpu`, `gpu`, `hybrid`,
//! `auto`), then *executes* the same plan and records whether the two
//! verdicts agree:
//!
//! - a plan the engine runs to completion must verify with **zero
//!   diagnostics**;
//! - a plan the engine rejects (Q9's §6.4 GPU capacity cliff under a
//!   manual `gpu` placement) must be flagged by the verifier too — the
//!   static analysis predicts the runtime refusal.
//!
//! [`to_json`] serialises to `VERIFY_tpch.json` (through the sweeps'
//! shared envelope, [`crate::sweep_json`]), regenerated by CI smoke and
//! uploaded next to the `CHAOS_*`/`TRACE_*` artifacts; the top-level
//! `"clean"` flag is the machine-checkable acceptance bit.

use hape_core::trace::json_escape;
use hape_core::verify::check_placed;
use hape_core::{ExecConfig, Placement};

use crate::{suite, sweep_json, SuiteQuery, PLACEMENTS};

/// One `(query, placement)` verification cell.
#[derive(Debug, Clone)]
pub struct VerifyPoint {
    /// Query label (`Q1`, ..., `B1_sessions`, ...).
    pub query: String,
    /// Device placement.
    pub placement: Placement,
    /// False when placement/optimization itself refused the combination
    /// (no placed plan exists; the engine would refuse identically).
    pub placed: bool,
    /// Placed stages verified.
    pub stages: usize,
    /// Rendered verifier diagnostics (empty for a clean plan).
    pub diagnostics: Vec<String>,
    /// Whether the engine ran the placed plan to completion.
    pub engine_accepts: bool,
    /// Static and runtime verdicts agree: the engine completes iff the
    /// verifier found nothing.
    pub agree: bool,
}

/// The whole sweep plus its verdict.
#[derive(Debug, Clone)]
pub struct VerifySweep {
    /// TPC-H scale factor.
    pub sf: f64,
    /// Users in the behavioral event log.
    pub n_users: usize,
    /// Every `(query, placement)` cell.
    pub points: Vec<VerifyPoint>,
}

impl VerifySweep {
    /// True when every cell agrees — the acceptance bit CI checks.
    pub fn clean(&self) -> bool {
        self.points.iter().all(|p| p.agree)
    }
}

fn verify_one((engine, lowered): &SuiteQuery, placement: Placement) -> VerifyPoint {
    let (catalog, plan) = (&lowered.catalog, &lowered.plan);
    let Ok(placed) = engine.place(catalog, plan, &ExecConfig::new(placement)) else {
        // The combination does not even place (the optimizer refused);
        // the engine would refuse identically, so the verdicts agree.
        return VerifyPoint {
            query: plan.name.clone(),
            placement,
            placed: false,
            stages: 0,
            diagnostics: Vec::new(),
            engine_accepts: false,
            agree: true,
        };
    };
    let diagnostics: Vec<String> = check_placed(&placed, catalog, &engine.server)
        .iter()
        .map(ToString::to_string)
        .collect();
    let engine_accepts = engine.run_placed(catalog, &placed).is_ok();
    VerifyPoint {
        query: plan.name.clone(),
        placement,
        placed: true,
        stages: placed.stages.len(),
        agree: diagnostics.is_empty() == engine_accepts,
        diagnostics,
        engine_accepts,
    }
}

/// Sweep the TPC-H Q1/Q5/Q6/Q9 + behavioral B1–B4 × placement matrix:
/// statically verify every placed plan, execute it, and record whether
/// the static and runtime verdicts agree.
pub fn verify_tpch(sf: f64, n_users: usize) -> VerifySweep {
    let points = suite(sf, n_users)
        .iter()
        .flat_map(|q| PLACEMENTS.map(|placement| verify_one(q, placement)))
        .collect();
    VerifySweep { sf, n_users, points }
}

/// Render the sweep as an aligned table plus the verdict line.
pub fn print_verify(sweep: &VerifySweep) {
    println!(
        "== static-verification sweep (sf={}, {} users): {} combos",
        sweep.sf,
        sweep.n_users,
        sweep.points.len()
    );
    println!(
        "{:>12} {:>8} {:>7} {:>6} {:>7} {:>6}",
        "query", "place", "stages", "diags", "engine", "agree"
    );
    for p in &sweep.points {
        println!(
            "{:>12} {:>8} {:>7} {:>6} {:>7} {:>6}",
            p.query,
            p.placement.to_string(),
            if p.placed { p.stages.to_string() } else { "-".to_string() },
            p.diagnostics.len(),
            if p.engine_accepts { "runs" } else { "refuse" },
            p.agree
        );
        for d in &p.diagnostics {
            println!("             {d}");
        }
    }
    println!("clean: {}", sweep.clean());
}

/// Serialise the sweep to JSON. Stable shape: `{sf, n_users, combos,
/// clean, points: [{query, placement, placed, stages, engine_accepts,
/// agree, diagnostics: [..]}]}`.
pub fn to_json(sweep: &VerifySweep) -> String {
    let header = [
        ("sf", sweep.sf.to_string()),
        ("n_users", sweep.n_users.to_string()),
        ("combos", sweep.points.len().to_string()),
        ("clean", sweep.clean().to_string()),
    ];
    let point = |p: &VerifyPoint| {
        let diags = p
            .diagnostics
            .iter()
            .map(|d| format!("\"{}\"", json_escape(d)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"query\": \"{}\", \"placement\": \"{}\", \"placed\": {}, \
             \"stages\": {}, \"engine_accepts\": {}, \"agree\": {}, \
             \"diagnostics\": [{diags}]}}",
            json_escape(&p.query),
            p.placement,
            p.placed,
            p.stages,
            p.engine_accepts,
            p.agree,
        )
    };
    sweep_json(&header, &sweep.points.iter().map(point).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_agrees_everywhere_and_json_is_stable() {
        let sweep = verify_tpch(0.01, 1_000);
        // (4 TPC-H + 4 behavioral) × 4 placements.
        assert_eq!(sweep.points.len(), 32);
        assert!(sweep.clean(), "static and runtime verdicts must agree: {sweep:?}");
        // Every cell the engine runs verified with zero diagnostics.
        for p in &sweep.points {
            if p.engine_accepts {
                assert!(
                    p.diagnostics.is_empty(),
                    "{}/{}: {:?}",
                    p.query,
                    p.placement,
                    p.diagnostics
                );
            }
        }
        // Q9 under the manual gpu placement is the §6.4 capacity cliff:
        // the engine refuses and the verifier must have predicted it.
        let q9_gpu = sweep
            .points
            .iter()
            .find(|p| p.query == "Q9*" && p.placement == Placement::GpuOnly)
            .expect("Q9 gpu cell present");
        if q9_gpu.placed && !q9_gpu.engine_accepts {
            assert!(
                q9_gpu.diagnostics.iter().any(|d| d.contains("broadcast tables need")),
                "verifier must flag Q9's over-capacity broadcast: {q9_gpu:?}"
            );
        }
        let json = to_json(&sweep);
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"combos\": 32"));
        assert!(json.ends_with('}'));
    }
}
