//! Helpers shared by the integration tests (`mod common;`): the report
//! comparison, the mutable [`Parts`] view both plan IRs share, every
//! executor's [`verdicts`] on a hand-corrupted plan, and the differential
//! harness's generator and reference ([`gen`]).

// Each test binary compiles every helper and uses only some.
#![allow(dead_code)]

pub mod gen;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hape::baselines::{BaselineError, DbmsC, DbmsG};
use hape::core::{
    place, Catalog, Engine, EngineError, ExecConfig, Pipeline, PlacedPlan, PlacedStage,
    Placement, QueryPlan, QueryReport, Stage,
};
use hape::sim::topology::Server;

/// Assert everything a report exposes is identical between two runs — the
/// bit-identity the thread-count, tracing, fault and serving sweeps promise.
pub fn assert_reports_identical(got: &QueryReport, want: &QueryReport, ctx: &str) {
    assert_eq!(got.rows, want.rows, "{ctx}: rows");
    assert_eq!(got.time, want.time, "{ctx}: makespan");
    assert_eq!(got.cpu_busy, want.cpu_busy, "{ctx}: cpu busy");
    assert_eq!(got.gpu_busy, want.gpu_busy, "{ctx}: gpu busy");
    assert_eq!(got.h2d_bytes, want.h2d_bytes, "{ctx}: h2d bytes");
    assert_eq!(got.packets_cpu, want.packets_cpu, "{ctx}: cpu packets");
    assert_eq!(got.packets_gpu, want.packets_gpu, "{ctx}: gpu packets");
    assert_eq!(got.builds_cached, want.builds_cached, "{ctx}: cached builds");
    assert_eq!((got.retries, got.replans), (want.retries, want.replans), "{ctx}: recovery");
}

/// One stage's mutable parts, from either IR: the build key column (build
/// stages only) and the pipeline.
pub type Parts<'a> = (Option<&'a mut usize>, &'a mut Pipeline);

pub fn plan_parts(plan: &mut QueryPlan) -> Vec<Parts<'_>> {
    plan.stages
        .iter_mut()
        .map(|stage| match stage {
            Stage::Build { key_col, pipeline, .. } => (Some(key_col), pipeline),
            Stage::Stream { pipeline } => (None, pipeline),
        })
        .collect()
}

pub fn placed_parts(placed: &mut PlacedPlan) -> Vec<Parts<'_>> {
    placed
        .stages
        .iter_mut()
        .map(|stage| match stage {
            PlacedStage::Build { key_col, pipeline, .. } => (Some(key_col), pipeline),
            PlacedStage::Stream { pipeline, .. } | PlacedStage::CoProcess { pipeline, .. } => {
                (None, pipeline)
            }
        })
        .collect()
}

/// What an executor did with a plan.
#[derive(Debug)]
pub enum Verdict {
    Answered,
    Refused(EngineError),
    /// A baseline's refusal for size (`BaselineError::Unsupported`).
    TooBig,
    Panicked,
}

/// Every executor that takes a hand-built plan, on `clean` with `corrupt`
/// applied through its [`Parts`]: `Engine::run` under cpu, hybrid and auto,
/// `Engine::run_placed` of `clean` placed under cpu and hybrid, then
/// corrupted — and DBMS C and DBMS G. Panics are caught and reported.
pub fn verdicts(
    catalog: &Catalog,
    clean: &QueryPlan,
    corrupt: &dyn Fn(&mut [Parts<'_>]),
) -> Vec<(String, Verdict)> {
    let server = Server::paper_testbed();
    let engine = Engine::new(server.clone());
    let mut plan = clean.clone();
    corrupt(&mut plan_parts(&mut plan));
    let verdict =
        |run: &dyn Fn() -> Result<(), BaselineError>| match catch_unwind(AssertUnwindSafe(run))
        {
            Err(_) => Verdict::Panicked,
            Ok(Ok(())) => Verdict::Answered,
            Ok(Err(BaselineError::Engine(e))) => Verdict::Refused(e),
            Ok(Err(BaselineError::Unsupported(_))) => Verdict::TooBig,
        };
    let cfg = ExecConfig::new;
    let mut out = Vec::new();
    for p in [Placement::CpuOnly, Placement::Hybrid, Placement::Auto] {
        let run = || Ok(engine.run(catalog, &plan, &cfg(p)).map(drop)?);
        out.push((format!("Engine::run/{p}"), verdict(&run)));
    }
    for p in [Placement::CpuOnly, Placement::Hybrid] {
        let run = || {
            let mut placed = place(clean, &cfg(p), &server).expect("a clean plan places");
            corrupt(&mut placed_parts(&mut placed));
            Ok(engine.run_placed(catalog, &placed).map(drop)?)
        };
        out.push((format!("Engine::run_placed/{p}"), verdict(&run)));
    }
    let c = || DbmsC::new(server.clone()).run_plan(catalog, &plan).map(drop);
    out.push(("DbmsC::run_plan".into(), verdict(&c)));
    let g = || DbmsG::new(server.clone()).run_plan(catalog, &plan).map(drop);
    out.push(("DbmsG::run_plan".into(), verdict(&g)));
    out
}
