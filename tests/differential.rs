//! The differential harness: seeded generated queries (`common::gen`) and a
//! fixed corpus — Q1, Q5 and Q9\* under both join algorithms and Q6 at SF
//! 0.01 against `hape_tpch::reference`, B1–B4 over 2 000 users against
//! their cpu rows, and the same corpus at the benchmark's SF 0.05 / 20 000
//! users under `--ignored` — swept over every axis the engine claims
//! invariance on. Per query:
//!
//! - **placement**: cpu, gpu, hybrid and auto, one thread each, answer the
//!   reference or refuse typed — cpu never, the others only with
//!   `GpuMemoryExceeded` (an auto refusal is an optimizer finding, counted);
//!   the lowered plan binds clean; in the fixed corpus the static device
//!   audit of the lowered plan placed under each is empty exactly where the
//!   run succeeded, and names only the §6.4 broadcast overflow where it
//!   refused, auto never refuses and its simulated makespan is no longer
//!   than the best manual placement's (1e-9 relative), and Q9\*/auto
//!   places a co-processing stage;
//! - **threads** 2 and 8: the report is the one-thread report;
//! - **traced**: the untraced report, with query and packet spans recorded;
//! - **faulted** (`FaultPlan::canonical`): the clean run's rows, or its
//!   error — bit for bit when no stage was re-placed (a retry or a slow
//!   link moves the routing, and the routing moves no answer); after a
//!   re-placement, which changes the packet split, TPC-H's `f64` sums within
//!   1e-12 relative, a round-off canary far inside the oracle's 1e-9; or,
//!   where the clean run refused, the reference, since recovery may
//!   re-place onto the CPUs; under cpu the clean report itself; no faster
//!   when it retried or re-placed; the same twice; across the fixed corpus
//!   some run retried and some re-placed;
//! - **served**: one cache-less `SessionServer` batch per fixture, forward at
//!   one thread and reversed at eight, reports exactly the solo runs; a
//!   warm, cached submission answers the cold one's rows bit for bit (its
//!   cached builds move the routing, not the placement), no slower;
//! - **baselines**: DBMS C answers the reference; DBMS G too, or refuses
//!   as `Unsupported`.
//!
//! Placement runs for every query; the other axes rotate with the seed, one
//! per query (all of them in the `--ignored` variants). Generated plan
//! mutants check that every executor refuses exactly the plans the static
//! verifier refuses, with its first finding's kind, and never panics.

mod common;

use std::ops::Range;

use common::gen::{self, Op};
use common::{assert_reports_identical, plan_parts, verdicts, Parts, Verdict};
use hape::baselines::{BaselineError, DbmsC, DbmsG};
use hape::core::serve::{QueryHandle, ServeReport, SessionServer};
use hape::core::trace::{SpanKind, TraceRecorder};
use hape::core::verify::{check_placed, verify_plan, DiagnosticKind};
use hape::core::{
    Catalog, EngineError, ExecConfig, FaultPlan, HapeError, JoinAlgo, PipeOp, PlacedStage,
    Placement, PlanError, Query, QueryPlan, QueryReport, Session, Stage,
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
/// fold order), through `rows_approx_eq`. The fixed corpus is `audited`:
/// the device audit's estimates predict its runs' capacity refusals.
struct Subject<'a> {
    session: &'a Session,
    query: Query,
    want: Rows,
    approx: bool,
    audited: bool,
}

impl Subject<'_> {
    fn agree(&self, a: &Rows, b: &Rows) -> bool {
        (self.approx && rows_approx_eq(a, b)) || a == b
    }

    fn answers(&self, got: &Rows) -> bool {
        self.agree(got, &self.want)
    }

    /// A re-routed run's rows (faulted, or warm from the build cache)
    /// against the plain run's. A run that placed every stage where the
    /// plain run did (no re-placement) split its packets alike, and the
    /// routing moves no answer: its rows are the plain run's bit for bit.
    /// One that re-placed a stage split that stage's packets anew: a TPC-H
    /// oracle's `f64` sums then agree within 1e-12 relative, the
    /// accumulation round-off `rows_approx_eq` hides.
    fn rerouted(&self, got: &QueryReport, plain: &Rows) -> bool {
        let close =
            |(x, y): (&f64, &f64)| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0);
        let rounded = got.rows.len() == plain.len()
            && got.rows.iter().zip(plain).all(|((ka, va), (kb, vb))| {
                ka == kb && va.len() == vb.len() && va.iter().zip(vb).all(close)
            });
        let bits = |rows: &Rows| -> Vec<(GroupKey, Vec<u64>)> {
            rows.iter().map(|(k, v)| (*k, v.iter().map(|x| x.to_bits()).collect())).collect()
        };
        (self.approx && got.replans > 0 && rounded) || bits(&got.rows) == bits(plain)
    }
}

/// What one subject's sweep saw: the placements that ran and their
/// simulated makespans, the ones that refused with `GpuMemoryExceeded`, and
/// how many faulted runs retried a transfer and re-placed stages.
#[derive(Default)]
struct Swept {
    ran: Vec<(Placement, f64)>,
    refused: Vec<Placement>,
    retried: usize,
    replanned: usize,
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
/// and the thread count the traced and faulted runs use.
fn sweep(s: &Subject, seed: u64, axes: &[Axis], queue: &mut Queue) -> Swept {
    let name = &s.query.name;
    let run = |c: ExecConfig| s.session.execute_with(&s.query, &c).map_err(|e| e.to_string());
    let lowered = s.session.lower(&s.query).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (catalog, plan) = (&lowered.catalog, &lowered.plan);
    assert!(verify_plan(plan, catalog).is_ok(), "{name}: {:?}", verify_plan(plan, catalog));
    let threads = [1, 2, 8][seed as usize / 5 % 3];
    let mut swept = Swept::default();
    for p in PLACEMENTS {
        let ctx = format!("{name}/{p}");
        let solo = s.session.execute_with(&s.query, &cfg(p, 1));
        if s.audited {
            audit(s, catalog, plan, p, &solo);
        }
        match &solo {
            Ok(rep) => {
                assert!(s.answers(&rep.rows), "{ctx}: answered {:?}", rep.rows);
                swept.ran.push((p, rep.time.as_secs()));
            }
            Err(HapeError::Engine(EngineError::GpuMemoryExceeded { .. }))
                if p != Placement::CpuOnly =>
            {
                swept.refused.push(p);
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
                Axis::Faulted => {
                    if let Ok(f) = faulted(s, p, threads, seed, &solo) {
                        swept.retried += usize::from(f.retries > 0);
                        swept.replanned += usize::from(f.replans > 0);
                    }
                }
                Axis::Served => queue.push((s.query.clone(), p, solo.clone())),
                Axis::Baselines => {}
            }
        }
    }
    if !axes.contains(&Axis::Baselines) {
        return swept;
    }
    let server = &s.session.engine().server;
    let c = DbmsC::new(server.clone()).run_plan(catalog, plan);
    assert!(s.answers(&c.unwrap_or_else(|e| panic!("{name}: {e}")).rows), "{name}: C");
    match DbmsG::new(server.clone()).run_plan(catalog, plan) {
        Ok(g) => assert!(s.answers(&g.rows), "{name}: DBMS G"),
        Err(e) => assert!(matches!(e, BaselineError::Unsupported(_)), "{name}: {e}"),
    }
    // A warm submission reuses the cold one's builds. Both placed at
    // submission, before either ran, so alike.
    let (p, mut server) =
        (PLACEMENTS[seed as usize % 4], SessionServer::new(s.session.clone()));
    let (cold, warm) =
        (server.submit_with(&s.query, &cfg(p, 1)), server.submit_with(&s.query, &cfg(p, 1)));
    let batch = server.run_all();
    match (served(&batch, cold), served(&batch, warm)) {
        (Ok(c), Ok(w)) => {
            assert_eq!(w.replans + c.replans, 0, "{name}/{p}: no fault, no re-placement");
            assert!(s.rerouted(&w, &c.rows), "{name}/{p}: warm rows {:?}", w.rows);
            assert!(w.time <= c.time, "{name}/{p}: warm {} > cold {}", w.time, c.time);
        }
        (c, w) => assert_eq!(c.err(), w.err(), "{name}/{p}: warm"),
    }
    swept
}

/// The faulted run, checked against the clean one.
fn faulted(s: &Subject, p: Placement, threads: usize, seed: u64, clean: &Run) -> Run {
    let ctx = format!("{}/{p} faulted", s.query.name);
    let faults = cfg(p, threads).with_faults(FaultPlan::canonical(seed));
    let run = || s.session.execute_with(&s.query, &faults).map_err(|e| e.to_string());
    let got = run();
    same(&run(), &got, &ctx);
    match (clean, &got) {
        (Ok(c), Ok(f)) => {
            assert!(s.rerouted(f, &c.rows), "{ctx}: rows");
            if p == Placement::CpuOnly {
                assert_reports_identical(f, c, &ctx);
            }
            assert!(f.retries + f.replans == 0 || f.time >= c.time, "{ctx}: faster");
        }
        (Err(_), Ok(f)) => assert!(s.answers(&f.rows), "{ctx}: recovered rows"),
        _ => same(&got, clean, &ctx),
    }
    got
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
            let subject = Subject { session, query, want, approx: false, audited: false };
            let axes = if full { &AXES[..] } else { &AXES[seed as usize % 5..][..1] };
            let queue = &mut queues[usize::from(case.scaled)];
            let refused = sweep(&subject, seed, axes, queue).refused;
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
    // No generated case reaches the co-process stage: their tables overflow
    // only the scaled fixture's 8 KiB GPUs, which the GPU join's fixed 64 KiB
    // working space alone exceeds (Q9* in the fixed corpus does co-process).
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

/// The static device audit of `plan` placed under `p` against the solo
/// run: empty exactly where the run succeeded, and on a refusal only the
/// §6.4 broadcast overflow.
fn audit(
    s: &Subject,
    catalog: &Catalog,
    plan: &QueryPlan,
    p: Placement,
    solo: &Result<QueryReport, HapeError>,
) {
    let ctx = format!("{}/{p}", s.query.name);
    let engine = s.session.engine();
    let placed =
        engine.place(catalog, plan, &cfg(p, 1)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let kinds: Vec<_> =
        check_placed(&placed, catalog, &engine.server).into_iter().map(|d| d.kind).collect();
    let over = |k: &DiagnosticKind| matches!(k, DiagnosticKind::BroadcastOverCapacity { .. });
    assert!(
        kinds.is_empty() == solo.is_ok() && kinds.iter().all(over),
        "{ctx}: the device audit found {kinds:?}, the runtime said {:?}",
        solo.as_ref().err()
    );
}

/// Q1, Q5 and Q9\* under both join algorithms and Q6 over TPC-H at `sf`
/// against the reference, and B1–B4 over `users` users against their cpu
/// rows, on every axis.
fn fixed_corpus(sf: f64, users: usize) {
    let data = hape::tpch::generate(sf, 31337);
    let tpch = tpch_session(&data, Server::tpch_scaled(sf));
    let mut events = Session::new(Server::paper_testbed());
    events.register(generate_events(users, 7171));
    let (np, pt) = (JoinAlgo::NonPartitioned, JoinAlgo::Partitioned);
    let oracles = [
        (q1_query(), q1_reference(&data)),
        (q5_query(np), q5_reference(&data)),
        (q5_query(pt), q5_reference(&data)),
        (q6_query(), q6_reference(&data)),
        (q9_query(np), q9_reference(&data)),
        (q9_query(pt), q9_reference(&data)),
    ];
    let n_tpch = oracles.len();
    let mut subjects: Vec<Subject> = (oracles.into_iter())
        .map(|(query, want)| Subject {
            session: &tpch,
            query,
            want,
            approx: true,
            audited: true,
        })
        .collect();
    for query in behavioral_queries() {
        let cpu = events.execute_with(&query, &cfg(Placement::CpuOnly, 1));
        let want = cpu.unwrap_or_else(|e| panic!("{}: {e}", query.name)).rows;
        subjects.push(Subject { session: &events, query, want, approx: false, audited: true });
    }
    let (mut queues, mut retried, mut replanned) = ([Queue::new(), Queue::new()], 0, 0);
    for (i, s) in subjects.iter().enumerate() {
        let swept = sweep(s, i as u64, &AXES, &mut queues[usize::from(i >= n_tpch)]);
        assert!(!swept.refused.contains(&Placement::Auto), "{}: auto refused", s.query.name);
        let name = &s.query.name;
        // Auto is never slower than the best manual placement that ran.
        let sim = |p| swept.ran.iter().find(|r| r.0 == p).map(|r| r.1);
        let best = PLACEMENTS[..3].iter().filter_map(|&p| sim(p)).fold(f64::INFINITY, f64::min);
        let auto = sim(Placement::Auto).unwrap_or(f64::INFINITY);
        assert!(auto <= best * (1.0 + 1e-9), "{name}: auto {auto} s, best manual {best} s");
        if name == "Q9*" {
            let placed = s.session.place_with(&s.query, &cfg(Placement::Auto, 1));
            let placed = placed.unwrap_or_else(|e| panic!("{name}: {e}"));
            let coprocessed = |st: &PlacedStage| matches!(st, PlacedStage::CoProcess { .. });
            assert!(placed.stages.iter().any(coprocessed), "{name}: auto co-processes");
        }
        (retried, replanned) = (retried + swept.retried, replanned + swept.replanned);
    }
    // The fault plane fires and recovery runs: some faulted run retried a
    // transfer, and some re-placed stages on the surviving fleet.
    assert!(retried > 0 && replanned > 0, "{retried} runs retried, {replanned} replanned");
    serve(&tpch, &queues[0]);
    serve(&events, &queues[1]);
}

#[test]
fn fixed_corpus_answers_its_oracles_on_every_axis() {
    fixed_corpus(0.01, 2_000);
}

/// The fixed corpus at the repo benchmark's scale (CI runs it in release).
#[test]
#[ignore]
fn fixed_corpus_at_the_benchmarks_scale() {
    fixed_corpus(0.05, 20_000);
}

/// Mutants of generated plans: every executor `tests/plan_binding.rs` drives
/// refuses a mutant exactly when the static verifier does, as `Unbound` of
/// its first finding's kind, and none panics (DBMS G may refuse for size a
/// plan that binds).
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
        let statically = verify_plan(&plan, catalog).err();
        let first = statically.as_ref().map(|e| &e.diagnostics[0].kind);
        for (door, verdict) in &verdicts {
            let agrees = match verdict {
                Verdict::Refused(EngineError::InvalidPlan(PlanError::Unbound(d))) => {
                    first == Some(&d.kind)
                }
                Verdict::Answered | Verdict::TooBig => first.is_none(),
                Verdict::Refused(_) | Verdict::Panicked => false,
            };
            assert!(agrees, "{ctx}: {door} {verdict:?}, statically {first:?}");
        }
        refused += usize::from(first.is_some());
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
