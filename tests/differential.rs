//! The differential harness: seeded generated queries (`common::gen`) and a
//! fixed corpus — Q1, Q5 under both join algorithms, Q6 and Q9\* at SF 0.01
//! against `hape_tpch::reference`, B1–B4 against their cpu rows — swept
//! over every axis the engine claims invariance on. Per query:
//!
//! - **placement**: cpu, gpu, hybrid and auto, one thread each, answer the
//!   reference or refuse typed — cpu never, the others only with
//!   `GpuMemoryExceeded` (an auto refusal is an optimizer finding, counted);
//!   the lowered plan binds clean;
//! - **threads** 2 and 8: the report is the one-thread report;
//! - **traced**: the untraced report, with query and packet spans recorded;
//! - **faulted** (`FaultPlan::canonical`): the clean run's rows, or its
//!   error — or, where the clean run refused, the reference, since recovery
//!   may re-place onto the CPUs; under cpu the clean report itself; no
//!   faster when it retried or re-placed; the same twice;
//! - **served**: one cache-less `SessionServer` batch per fixture, forward at
//!   one thread and reversed at eight, reports exactly the solo runs; a
//!   warm, cached submission answers the cold one's rows, no slower;
//! - **baselines**: DBMS C answers the reference; DBMS G too, or refuses
//!   as `Unsupported`.
//!
//! Placement runs for every query; the other axes rotate with the seed, one
//! per query (all of them in the `--ignored` variants). Generated plan
//! mutants check that the static verifier refuses exactly the plans
//! `Engine::run` refuses, and that no executor panics on any of them.

mod common;

use std::ops::Range;

use common::gen::{self, Op};
use common::{assert_reports_identical, plan_parts, verdicts, Parts, Verdict};
use hape::baselines::{BaselineError, DbmsC, DbmsG};
use hape::core::serve::{QueryHandle, ServeReport, SessionServer};
use hape::core::trace::{SpanKind, TraceRecorder};
use hape::core::verify::verify_plan;
use hape::core::{
    EngineError, ExecConfig, FaultPlan, HapeError, JoinAlgo, PipeOp, PlacedStage, Placement,
    Query, QueryReport, Session, Stage,
};
use hape::ops::GroupKey;
use hape::sim::topology::Server;
use hape::storage::Table;
use hape::tpch::events::{behavioral_queries, generate_events};
use hape::tpch::queries::{q1_query, q5_query, q6_query, q9_query, tpch_session};
use hape::tpch::reference::rows_approx_eq;
use hape::tpch::reference::{q1_reference, q5_reference, q6_reference, q9_reference};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Rows = Vec<(GroupKey, Vec<f64>)>;
type Run = Result<QueryReport, String>;

const PLACEMENTS: [Placement; 4] =
    [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto];

/// The axes swept after placement.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    Threads,
    Traced,
    Faulted,
    Served,
    Baselines,
}

const AXES: [Axis; 5] =
    [Axis::Threads, Axis::Traced, Axis::Faulted, Axis::Served, Axis::Baselines];

/// GPU memory on the scaled fixture: 8 KiB of each GPU's 8 GiB, which the
/// probed hash tables overflow.
const SCALE: f64 = 1.0 / 1_048_576.0;

fn cfg(p: Placement, threads: usize) -> ExecConfig {
    ExecConfig::new(p).with_threads(threads)
}

/// A query, its session, and the rows it must answer — bit for bit, or,
/// for a TPC-H oracle whose sums are not integer-valued (so depend on the
/// fold order), through `rows_approx_eq`.
struct Subject<'a> {
    session: &'a Session,
    query: Query,
    want: Rows,
    approx: bool,
}

impl Subject<'_> {
    fn agree(&self, a: &Rows, b: &Rows) -> bool {
        (self.approx && rows_approx_eq(a, b)) || a == b
    }

    fn answers(&self, got: &Rows) -> bool {
        self.agree(got, &self.want)
    }
}

/// Submissions queued for a fixture's served batch: query, placement and
/// the solo run.
type Queue = Vec<(Query, Placement, Run)>;

fn same(got: &Run, want: &Run, ctx: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_reports_identical(g, w, ctx),
        _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{ctx}"),
    }
}

fn served(batch: &ServeReport, h: QueryHandle) -> Run {
    batch.report(h).as_ref().map_err(ToString::to_string).cloned()
}

/// Sweep one subject over placement and `axes`; `seed` picks the fault plan
/// and the thread count the traced and faulted runs use. Returns the
/// placements that refused with `GpuMemoryExceeded`.
fn sweep(s: &Subject, seed: u64, axes: &[Axis], queue: &mut Queue) -> Vec<Placement> {
    let name = &s.query.name;
    let run = |c: ExecConfig| s.session.execute_with(&s.query, &c).map_err(|e| e.to_string());
    let lowered = s.session.lower(&s.query).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (catalog, plan) = (&lowered.catalog, &lowered.plan);
    assert!(verify_plan(plan, catalog).is_ok(), "{name}: {:?}", verify_plan(plan, catalog));
    let threads = [1, 2, 8][seed as usize / 5 % 3];
    let mut refused = Vec::new();
    for p in PLACEMENTS {
        let ctx = format!("{name}/{p}");
        let solo = s.session.execute_with(&s.query, &cfg(p, 1));
        match &solo {
            Ok(rep) => assert!(s.answers(&rep.rows), "{ctx}: answered {:?}", rep.rows),
            Err(HapeError::Engine(EngineError::GpuMemoryExceeded { .. }))
                if p != Placement::CpuOnly =>
            {
                refused.push(p);
            }
            Err(e) => panic!("{ctx}: {e}"),
        }
        let solo = solo.map_err(|e| e.to_string());
        for axis in axes {
            match axis {
                Axis::Threads => {
                    for t in [2, 8] {
                        same(&run(cfg(p, t)), &solo, &format!("{ctx} threads={t}"));
                    }
                }
                Axis::Traced => {
                    let trace = TraceRecorder::new();
                    same(&run(cfg(p, threads).with_trace(trace.clone())), &solo, &ctx);
                    let spans = trace.snapshot().spans;
                    for kind in [SpanKind::Query, SpanKind::Packet] {
                        let seen = spans.iter().any(|span| span.kind == kind);
                        assert!(solo.is_err() || seen, "{ctx}: no {kind:?} span");
                    }
                }
                Axis::Faulted => faulted(s, p, threads, seed, &solo),
                Axis::Served => queue.push((s.query.clone(), p, solo.clone())),
                Axis::Baselines => {}
            }
        }
    }
    if !axes.contains(&Axis::Baselines) {
        return refused;
    }
    let server = &s.session.engine().server;
    let c = DbmsC::new(server.clone()).run_plan(catalog, plan);
    assert!(s.answers(&c.unwrap_or_else(|e| panic!("{name}: {e}")).rows), "{name}: C");
    match DbmsG::new(server.clone()).run_plan(catalog, plan) {
        Ok(g) => assert!(s.answers(&g.rows), "{name}: DBMS G"),
        Err(e) => assert!(matches!(e, BaselineError::Unsupported(_)), "{name}: {e}"),
    }
    // A warm submission reuses the cold one's builds.
    let (p, mut server) =
        (PLACEMENTS[seed as usize % 4], SessionServer::new(s.session.clone()));
    let (cold, warm) =
        (server.submit_with(&s.query, &cfg(p, 1)), server.submit_with(&s.query, &cfg(p, 1)));
    let batch = server.run_all();
    match (served(&batch, cold), served(&batch, warm)) {
        (Ok(c), Ok(w)) => assert!(w.rows == c.rows && w.time <= c.time, "{name}/{p}: warm"),
        (c, w) => assert_eq!(c.err(), w.err(), "{name}/{p}: warm"),
    }
    refused
}

fn faulted(s: &Subject, p: Placement, threads: usize, seed: u64, clean: &Run) {
    let ctx = format!("{}/{p} faulted", s.query.name);
    let faults = cfg(p, threads).with_faults(FaultPlan::canonical(seed));
    let run = || s.session.execute_with(&s.query, &faults).map_err(|e| e.to_string());
    let got = run();
    same(&run(), &got, &ctx);
    match (clean, &got) {
        (Ok(c), Ok(f)) => {
            assert!(s.agree(&f.rows, &c.rows), "{ctx}: rows");
            if p == Placement::CpuOnly {
                assert_reports_identical(f, c, &ctx);
            }
            assert!(f.retries + f.replans == 0 || f.time >= c.time, "{ctx}: faster");
        }
        (Err(_), Ok(f)) => assert!(s.answers(&f.rows), "{ctx}: recovered rows"),
        _ => same(&got, clean, &ctx),
    }
}

/// One cache-less batch of the queued submissions, forward at one thread and
/// reversed at eight: every report is the solo run's.
fn serve(session: &Session, queue: &Queue) {
    for (threads, reverse) in [(1, false), (8, true)] {
        let mut server = SessionServer::new(session.clone()).with_build_cache_capacity(0);
        let mut order: Vec<_> = queue.iter().collect();
        if reverse {
            order.reverse();
        }
        let handles: Vec<_> =
            order.iter().map(|(q, p, _)| server.submit_with(q, &cfg(*p, threads))).collect();
        let batch = server.run_all();
        for ((q, p, solo), h) in order.into_iter().zip(handles) {
            same(&served(&batch, h), solo, &format!("{}/{p} served threads={threads}", q.name));
        }
    }
}

/// The generated tables, registered on the paper's testbed and on GPUs
/// scaled by [`SCALE`].
fn fixture(seed: u64) -> (Vec<Table>, [Session; 2]) {
    let tables = gen::tables(seed);
    let servers = [Server::paper_testbed(), Server::paper_testbed_gpu_mem_scaled(SCALE)];
    let sessions = servers.map(|server| {
        let mut session = Session::new(server);
        tables.iter().for_each(|t| session.register(t.clone()));
        session
    });
    (tables, sessions)
}

/// What generated cases reach, counted per case.
const REACHED: [&str; 6] =
    ["hashed group-by", "shared build", "sessionize", "sequence", "gpu refusal", "co-process"];

/// Cases `seeds` over one fixture per hundred: placement, and one rotated
/// axis per case — or every axis when `full`. Prints what they reached.
fn generated(seeds: Range<u64>, full: bool) {
    let (mut reached, mut auto_refused) = ([0usize; 6], Vec::new());
    for start in seeds.clone().step_by(100) {
        let (tables, sessions) = fixture(start);
        let mut queues = [Queue::new(), Queue::new()];
        for seed in start..(start + 100).min(seeds.end) {
            let case = gen::case(seed);
            let session = &sessions[usize::from(case.scaled)];
            let (query, want) = (case.to_query(), case.reference(&tables));
            let subject = Subject { session, query, want, approx: false };
            let axes = if full { &AXES[..] } else { &AXES[seed as usize % 5..][..1] };
            let refused = sweep(&subject, seed, axes, &mut queues[usize::from(case.scaled)]);
            let plan = session.lower(&subject.query).expect("generated queries lower").plan;
            let ops = plan.stages.iter().flat_map(|s| match s {
                Stage::Build { pipeline, .. } | Stage::Stream { pipeline } => &pipeline.ops,
            });
            let probes = ops.filter(|op| matches!(op, PipeOp::JoinProbe { .. })).count();
            let auto = session.place_with(&subject.query, &cfg(Placement::Auto, 1));
            let has = |f: fn(&Op) -> bool| case.chain.ops.iter().any(f);
            let hits = [
                case.group_by.contains(&"f_hi"),
                probes >= plan.stages.len(),
                has(|op| matches!(op, Op::Sessionize(_))),
                has(|op| matches!(op, Op::SequenceMatch(_))),
                refused.iter().any(|&p| p != Placement::Auto),
                auto.is_ok_and(|a| {
                    a.stages.iter().any(|s| matches!(s, PlacedStage::CoProcess { .. }))
                }),
            ];
            reached.iter_mut().zip(hits).for_each(|(n, hit)| *n += usize::from(hit));
            auto_refused.extend(refused.contains(&Placement::Auto).then_some(seed));
        }
        serve(&sessions[0], &queues[0]);
        serve(&sessions[1], &queues[1]);
    }
    let reached: Vec<_> = REACHED.iter().zip(reached).collect();
    println!("{seeds:?}: {reached:?}, auto refused {auto_refused:?}");
    // No generated case reaches the co-process stage: at 4 096 rows the cost
    // model prices it above the CPU join (Q9* in the fixed corpus does).
    assert!(reached[..5].iter().all(|(_, n)| *n > 0), "{reached:?}");
}

#[test]
fn generated_queries_0_to_99() {
    generated(0..100, false);
}

#[test]
fn generated_queries_100_to_199() {
    generated(100..200, false);
}

/// 10^4 generated cases over the full axis product, in two halves (CI runs
/// them in release).
#[test]
#[ignore]
fn generated_queries_full_product_first_half() {
    generated(0..5_000, true);
}

#[test]
#[ignore]
fn generated_queries_full_product_second_half() {
    generated(5_000..10_000, true);
}

#[test]
fn fixed_corpus_answers_its_oracles_on_every_axis() {
    let data = hape::tpch::generate(0.01, 31337);
    let tpch = tpch_session(&data, Server::tpch_scaled(0.01));
    let mut events = Session::new(Server::paper_testbed());
    events.register(generate_events(2_000, 7171));
    let (np, pt) = (JoinAlgo::NonPartitioned, JoinAlgo::Partitioned);
    let oracles = [
        (q1_query(), q1_reference(&data)),
        (q5_query(np), q5_reference(&data)),
        (q5_query(pt), q5_reference(&data)),
        (q6_query(), q6_reference(&data)),
        (q9_query(np), q9_reference(&data)),
    ];
    let mut subjects: Vec<Subject> = (oracles.into_iter())
        .map(|(query, want)| Subject { session: &tpch, query, want, approx: true })
        .collect();
    for query in behavioral_queries() {
        let want = events.execute_with(&query, &cfg(Placement::CpuOnly, 1)).unwrap().rows;
        subjects.push(Subject { session: &events, query, want, approx: false });
    }
    let mut queues = [Queue::new(), Queue::new()];
    for (i, s) in subjects.iter().enumerate() {
        let refused = sweep(s, i as u64, &AXES, &mut queues[usize::from(i >= 5)]);
        assert!(!refused.contains(&Placement::Auto), "{}: auto refused", s.query.name);
    }
    serve(&tpch, &queues[0]);
    serve(&events, &queues[1]);
}

/// Mutants of generated plans: static refusal ⇔ `Engine::run` refusal, and
/// no panic from any executor `tests/plan_binding.rs` drives.
fn mutants(seeds: Range<u64>) {
    let ((_, [session, _]), mut refused) = (fixture(7), 0);
    for seed in seeds.clone() {
        let lowered =
            session.lower(&gen::case(seed).to_query()).expect("generated queries lower");
        let catalog = &lowered.catalog;
        let mut plan = lowered.plan.clone();
        let builds = plan.stages.iter().filter_map(|s| match s {
            Stage::Build { name, .. } => Some(name.clone()),
            Stage::Stream { .. } => None,
        });
        let names: Vec<String> =
            builds.chain(["fact", "dim1", "ev", "ghost"].map(String::from)).collect();
        let mutate = |parts: &mut [Parts<'_>]| {
            gen::mutate(&mut StdRng::seed_from_u64(seed), parts, &names)
        };
        let ctx = format!("mutant {seed} ({})", mutate(&mut plan_parts(&mut plan)));
        let verdicts = verdicts(catalog, &lowered.plan, &|parts| {
            mutate(parts);
        });
        for (entry, verdict) in &verdicts {
            assert!(!matches!(verdict, Verdict::Panicked), "{ctx}: {entry} panicked");
        }
        let (statically, cpu) = (verify_plan(&plan, catalog), &verdicts[0].1);
        assert_eq!(statically.is_err(), matches!(cpu, Verdict::Refused(_)), "{ctx}: {cpu:?}");
        refused += usize::from(statically.is_err());
    }
    println!("{seeds:?}: {refused} mutants refused");
    assert!(refused > 0 && refused < seeds.count(), "both verdicts occur");
}

#[test]
fn generated_plan_mutants_are_refused_statically_iff_at_runtime() {
    mutants(0..200);
}

/// 2 000 more mutants (CI runs them in release).
#[test]
#[ignore]
fn generated_plan_mutants_two_thousand_more() {
    mutants(200..2_200);
}
