//! The refusal table: hand-built plans that do not bind are refused with
//! typed errors before a packet moves — never a panic, never an answer —
//! from every entry point that executes a plan, in every build profile
//! (CI runs this file under `--release` too: the profile with no debug
//! hook, where 12 of the first 13 rows used to panic and the 13th returned
//! zero rows for a `COUNT(*)`).
//!
//! Each row is one well-formed *shape* plus one corruption of it, applied
//! through the mutable parts [`QueryPlan`] and [`PlacedPlan`] share, so the
//! same row drives `Engine::run` (under `CpuOnly`, `Hybrid` and `Auto`),
//! `Engine::run_placed` (a placed clean plan, then corrupted),
//! `DbmsC::run_plan` and `DbmsG::run_plan`. The static verifier must agree
//! with the runtime on every row and on every clean plan.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{plan_parts, verdicts, Parts, Verdict};
use hape::baselines::{DbmsC, DbmsG};
use hape::core::verify::{verify_plan, DiagnosticKind as K};
use hape::core::{
    Catalog, Engine, EngineError, ExecConfig, JoinAlgo, PipeOp, Pipeline, Placement, PlanError,
    QueryPlan, Stage,
};
use hape::ops::expr::ExprKind;
use hape::ops::{AggFunc, AggSpec, Expr, StatefulAgg};
use hape::sim::topology::Server;
use hape::storage::{Batch, Column, DataType, Schema, Table};

const ROWS: usize = 6_000;

/// `fact(k i32, price f64, tag i32)`, `dim(k i32, weight f64)` and
/// `ev(user i32, ts i64, score f64)` — whose timestamps descend within each
/// user: an unsorted log is answered, the same by every executor, not a
/// debug-build panic.
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(Table::new(
        "fact",
        Schema::new([("k", DataType::I32), ("price", DataType::F64), ("tag", DataType::I32)]),
        Batch::new(vec![
            Column::from_i32((0..ROWS).map(|i| (i % 64) as i32).collect()),
            Column::from_f64((0..ROWS).map(|i| i as f64 * 0.5).collect()),
            Column::from_i32((0..ROWS).map(|i| (i % 4) as i32).collect()),
        ]),
    ));
    catalog.register(Table::new(
        "dim",
        Schema::new([("k", DataType::I32), ("weight", DataType::F64)]),
        Batch::new(vec![
            Column::from_i32((0..64).collect()),
            Column::from_f64((0..64).map(f64::from).collect()),
        ]),
    ));
    catalog.register(Table::new(
        "ev",
        Schema::new([("user", DataType::I32), ("ts", DataType::I64), ("score", DataType::F64)]),
        Batch::new(vec![
            Column::from_i32((0..ROWS).map(|i| (i / 6) as i32).collect()),
            Column::from_i64((0..ROWS).map(|i| (5 - i % 6) as i64 * 1_000).collect()),
            Column::from_f64(vec![1.0; ROWS]),
        ]),
    ));
    catalog
}

fn count_and_sum() -> AggSpec {
    AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0)), (AggFunc::Sum, Expr::col(1))])
}

fn small_keys() -> Expr {
    Expr::lt(Expr::col(0), Expr::LitI32(32))
}

fn plan(name: &str, stages: Vec<Stage>) -> QueryPlan {
    QueryPlan::try_new(name, stages).expect("the shapes are well formed")
}

// ------------------------------ the shapes ------------------------------

fn scan_shape() -> QueryPlan {
    let pipeline = Pipeline::scan("fact").filter(small_keys()).aggregate(count_and_sum());
    plan("scan", vec![Stage::Stream { pipeline }])
}

fn group_shape() -> QueryPlan {
    let spec = AggSpec::grouped(vec![2], vec![(AggFunc::Sum, Expr::col(1))]);
    plan("group", vec![Stage::Stream { pipeline: Pipeline::scan("fact").aggregate(spec) }])
}

fn project_shape() -> QueryPlan {
    let doubled = Expr::mul(Expr::col(1), Expr::LitF64(2.0));
    let pipeline =
        Pipeline::scan("fact").project(vec![Expr::col(1), doubled]).aggregate(count_and_sum());
    plan("project", vec![Stage::Stream { pipeline }])
}

fn join_shape() -> QueryPlan {
    let spec = AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(3))]);
    plan(
        "join",
        vec![
            Stage::Build { name: "dim_ht".into(), key_col: 0, pipeline: Pipeline::scan("dim") },
            Stage::Stream {
                pipeline: Pipeline::scan("fact")
                    .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                    .aggregate(spec),
            },
        ],
    )
}

fn stateful_shape() -> QueryPlan {
    let sessions = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1_800 };
    let pipeline = Pipeline::scan("ev")
        .stateful(sessions)
        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))]));
    plan("stateful", vec![Stage::Stream { pipeline }])
}

const SHAPES: [fn() -> QueryPlan; 5] =
    [scan_shape, group_shape, project_shape, join_shape, stateful_shape];

// ---------------------------- the corruptions ----------------------------

/// The stream stage's pipeline (every shape's last stage).
fn stream<'a, 'b>(parts: &'a mut [Parts<'b>]) -> &'a mut Pipeline {
    parts.last_mut().expect("a stream stage").1
}

fn stream_agg<'a>(parts: &'a mut [Parts<'_>]) -> &'a mut AggSpec {
    stream(parts).agg.as_mut().expect("the stream aggregates")
}

fn probe<'a>(
    parts: &'a mut [Parts<'_>],
) -> (&'a mut String, &'a mut usize, &'a mut Vec<usize>) {
    match &mut stream(parts).ops[0] {
        PipeOp::JoinProbe { ht, key_col, build_payload_cols, .. } => {
            (ht, key_col, build_payload_cols)
        }
        other => panic!("the join shape's stream starts with its probe, got {other:?}"),
    }
}

fn build_key<'a>(parts: &'a mut [Parts<'_>]) -> &'a mut usize {
    parts[0].0.as_deref_mut().expect("the join shape's first stage builds")
}

fn user_col<'a>(parts: &'a mut [Parts<'_>]) -> &'a mut usize {
    match &mut stream(parts).ops[0] {
        PipeOp::Stateful(StatefulAgg::Sessionize { user_col, .. }) => user_col,
        other => panic!("the stateful shape sessionizes, got {other:?}"),
    }
}

/// One row of the refusal table.
struct Case {
    name: &'static str,
    shape: fn() -> QueryPlan,
    corrupt: fn(&mut [Parts<'_>]),
    /// The refusal every entry point must give.
    refusal: fn(&EngineError) -> bool,
}

/// `InvalidPlan(Unbound(d))` with `d.kind` accepted by `kind`.
fn unbound(e: &EngineError, kind: impl Fn(&K) -> bool) -> bool {
    matches!(e, EngineError::InvalidPlan(PlanError::Unbound(d)) if kind(&d.kind))
}

fn out_of_range(e: &EngineError, column: usize, context: &str) -> bool {
    unbound(e, |k| {
        matches!(k, K::ColumnOutOfRange { column: c, context: cx, .. }
            if *c == column && *cx == context)
    })
}

fn wrong_kind(e: &EngineError, context: &str, expected: ExprKind) -> bool {
    unbound(e, |k| {
        matches!(k, K::ExprKindMismatch { context: cx, expected: want, found }
            if *cx == context && *want == expected && found != want)
    })
}

/// Column 1 — an `f64` — as the key `context` names.
fn mistyped_key(e: &EngineError, context: &'static str) -> bool {
    unbound(e, |k| *k == K::KeyType { context, column: 1, found: DataType::F64 })
}

/// The 13 plans `QueryPlan::try_new` accepts and nothing used to refuse.
const UNBOUND: [Case; 13] = [
    Case {
        name: "filter column out of range",
        shape: scan_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Filter(Expr::lt(Expr::col(9), Expr::LitI32(1))),
        refusal: |e| out_of_range(e, 9, "filter"),
    },
    Case {
        name: "aggregate argument column out of range",
        shape: scan_shape,
        corrupt: |p| stream_agg(p).aggs[1].1 = Expr::col(9),
        refusal: |e| out_of_range(e, 9, "agg"),
    },
    Case {
        name: "group-by column out of range",
        shape: group_shape,
        corrupt: |p| stream_agg(p).group_by = vec![9],
        refusal: |e| out_of_range(e, 9, "group-by"),
    },
    Case {
        name: "build key out of range",
        shape: join_shape,
        corrupt: |p| *build_key(p) = 9,
        refusal: |e| out_of_range(e, 9, "build key"),
    },
    Case {
        name: "probe payload out of range",
        shape: join_shape,
        corrupt: |p| *probe(p).2 = vec![9],
        refusal: |e| unbound(e, |k| matches!(k, K::PayloadOutOfRange { column: 9, .. })),
    },
    Case {
        name: "numeric filter",
        shape: scan_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Filter(Expr::col(0)),
        refusal: |e| wrong_kind(e, "filter", ExprKind::Bool),
    },
    Case {
        name: "numeric operand under `and`",
        shape: scan_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Filter(Expr::and(Expr::col(0), small_keys())),
        refusal: |e| wrong_kind(e, "filter", ExprKind::Bool),
    },
    Case {
        name: "boolean projection",
        shape: project_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Project(vec![small_keys(), Expr::col(1)]),
        refusal: |e| wrong_kind(e, "project", ExprKind::Num),
    },
    Case {
        name: "boolean aggregate argument",
        shape: scan_shape,
        corrupt: |p| stream_agg(p).aggs[1].1 = small_keys(),
        refusal: |e| wrong_kind(e, "agg", ExprKind::Num),
    },
    Case {
        name: "group-by over an f64 column",
        shape: group_shape,
        corrupt: |p| stream_agg(p).group_by = vec![1],
        refusal: |e| mistyped_key(e, "group-by"),
    },
    Case {
        name: "probe key over an f64 column",
        shape: join_shape,
        corrupt: |p| *probe(p).1 = 1,
        refusal: |e| {
            unbound(e, |k| {
                matches!(k, K::ProbeKeyType { key_col: 1, found: DataType::F64, .. })
            })
        },
    },
    Case {
        name: "build key over an f64 column",
        shape: join_shape,
        corrupt: |p| *build_key(p) = 1,
        refusal: |e| mistyped_key(e, "build key"),
    },
    Case {
        name: "empty projection",
        shape: project_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Project(Vec::new()),
        refusal: |e| unbound(e, |k| *k == K::EmptyProject),
    },
];

/// Refusals with a pinned type: conditions the runtime already refused,
/// which binding moved ahead of the first stage — and a group-by wider than
/// a group key, which cpu and hybrid used to answer with one merged row.
const PINNED: [Case; 5] = [
    Case {
        name: "unknown source table",
        shape: scan_shape,
        corrupt: |p| stream(p).source = "ghost".into(),
        refusal: |e| matches!(e, EngineError::MissingTable(t) if t == "ghost"),
    },
    Case {
        // Placement's catalog-less structural check and binding name the
        // same condition differently; the test after the table pins which
        // entry point says which.
        name: "probe of an unbuilt table",
        shape: join_shape,
        corrupt: |p| *probe(p).0 = "ghost".into(),
        refusal: |e| match e {
            EngineError::InvalidPlan(PlanError::ProbeBeforeBuild { table })
            | EngineError::HashTableNotBuilt { table } => table == "ghost",
            _ => false,
        },
    },
    Case {
        name: "stateful user column over an f64 column",
        shape: stateful_shape,
        corrupt: |p| *user_col(p) = 2,
        refusal: |e| {
            let found = Some(DataType::F64);
            let want = PlanError::StatefulColumn {
                table: "ev".into(),
                role: "user",
                column: 2,
                found,
            };
            matches!(e, EngineError::InvalidPlan(got) if *got == want)
        },
    },
    Case {
        name: "stateful user column out of range",
        shape: stateful_shape,
        corrupt: |p| *user_col(p) = 7,
        refusal: |e| {
            let found = None;
            let want = PlanError::StatefulColumn {
                table: "ev".into(),
                role: "user",
                column: 7,
                found,
            };
            matches!(e, EngineError::InvalidPlan(got) if *got == want)
        },
    },
    Case {
        name: "five group-by columns",
        shape: group_shape,
        corrupt: |p| stream_agg(p).group_by = vec![2; 5],
        refusal: |e| {
            matches!(
                e,
                EngineError::InvalidPlan(PlanError::TooManyGroupColumns { got: 5, max: 4 })
            )
        },
    },
];

// ------------------------------ the harness ------------------------------

const PLACEMENTS: [Placement; 3] = [Placement::CpuOnly, Placement::Hybrid, Placement::Auto];

fn corrupted(case: &Case) -> QueryPlan {
    let mut plan = (case.shape)();
    (case.corrupt)(&mut plan_parts(&mut plan));
    plan
}

fn assert_all_refused(cases: &[Case]) {
    let catalog = catalog();
    let mut failures = Vec::new();
    for case in cases {
        for (label, verdict) in verdicts(&catalog, &(case.shape)(), &case.corrupt) {
            if !matches!(&verdict, Verdict::Refused(e) if (case.refusal)(e)) {
                failures.push(format!("{} via {label}: {verdict:?}", case.name));
            }
        }
    }
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn the_thirteen_unbound_plans_are_refused_with_typed_errors_everywhere() {
    for case in &UNBOUND {
        // They are exactly the plans the structural check lets through.
        let plan = corrupted(case);
        assert!(plan.validate().is_ok(), "{}: {:?}", case.name, plan.validate());
    }
    assert_all_refused(&UNBOUND);
}

#[test]
fn refusals_the_runtime_already_typed_keep_their_types() {
    assert_all_refused(&PINNED);
}

#[test]
fn probe_of_an_unbuilt_table_keeps_its_types() {
    let case = &PINNED[1];
    let verdicts = verdicts(&catalog(), &(case.shape)(), &case.corrupt);
    // Placing a hand-assembled plan: the structural check's name for it.
    let run = &verdicts[0].1;
    let Verdict::Refused(EngineError::InvalidPlan(PlanError::ProbeBeforeBuild { table })) = run
    else {
        panic!("{run:?}")
    };
    assert_eq!(table, "ghost");
    // Running a placed one: the runtime's.
    let placed = &verdicts[3].1;
    let Verdict::Refused(EngineError::HashTableNotBuilt { table }) = placed else {
        panic!("{placed:?}")
    };
    assert_eq!(table, "ghost");
}

/// The five structural invariants on plans assembled past `try_new` (the
/// fields are public). `place` ends in `place_on`'s structural check;
/// under `Auto` the optimizer's cost walk reads the plan first, and names
/// an unbuilt probe the way the runtime does.
#[test]
fn structurally_malformed_plans_keep_their_refusals_under_every_placement() {
    let catalog = catalog();
    let engine = Engine::new(Server::paper_testbed());
    let assemble = |name: &str, stages| QueryPlan { name: name.into(), stages };
    let (scan, join, stateful) = (scan_shape(), join_shape(), stateful_shape());
    let [Stage::Stream { pipeline: scan }] = &scan.stages[..] else { panic!("one stream") };
    let [build, Stage::Stream { pipeline: probing }] = &join.stages[..] else {
        panic!("a build and a stream")
    };
    let [Stage::Stream { pipeline: sessions }] = &stateful.stages[..] else {
        panic!("one stream")
    };
    let stream = |pipeline: &Pipeline| Stage::Stream { pipeline: pipeline.clone() };
    let aggregating_build =
        Stage::Build { name: "scan_ht".into(), key_col: 0, pipeline: scan.clone() };
    let mut reshaped = sessions.clone();
    reshaped.ops.insert(0, PipeOp::Project(vec![Expr::col(0), Expr::col(1)]));
    let mut aggless = scan.clone();
    aggless.agg = None;
    type Want = fn(&PlanError) -> bool;
    let rows: [(QueryPlan, Want); 5] = [
        (
            assemble("agg-build", vec![aggregating_build, stream(scan)]),
            |e| matches!(e, PlanError::BuildWithAggregate { stage } if stage == "scan_ht"),
        ),
        (
            assemble("aggless", vec![stream(&aggless)]),
            |e| matches!(e, PlanError::StreamWithoutAggregate { name } if name == "aggless"),
        ),
        (assemble("two-streams", vec![stream(scan), stream(scan)]), |e| {
            matches!(e, PlanError::NotExactlyOneStream { streams: 2, .. })
        }),
        (
            assemble("late-build", vec![stream(probing), build.clone()]),
            |e| matches!(e, PlanError::ProbeBeforeBuild { table } if table == "dim_ht"),
        ),
        (
            assemble("reshaped", vec![stream(&reshaped)]),
            |e| matches!(e, PlanError::StatefulAfterReshape { name } if name == "reshaped"),
        ),
    ];
    for (plan, want) in &rows {
        assert!(matches!(plan.validate(), Err(e) if want(&e)), "{}", plan.name);
        for p in PLACEMENTS {
            let got = catch_unwind(AssertUnwindSafe(|| {
                engine.run(&catalog, plan, &ExecConfig::new(p)).map(|_| ())
            }))
            .unwrap_or_else(|_| panic!("{}/{p}: panicked", plan.name));
            let cost_walk_first = p == Placement::Auto && plan.name == "late-build";
            let kept = match &got {
                Err(EngineError::HashTableNotBuilt { table }) => {
                    cost_walk_first && table == "dim_ht"
                }
                Err(EngineError::InvalidPlan(e)) => !cost_walk_first && want(e),
                _ => false,
            };
            assert!(kept, "{}/{p}: {got:?}", plan.name);
        }
    }
}

#[test]
fn well_formed_controls_run_everywhere() {
    let catalog = catalog();
    let server = Server::paper_testbed();
    let engine = Engine::new(server.clone());
    for shape in SHAPES {
        let plan = shape();
        assert!(verify_plan(&plan, &catalog).is_ok(), "{}", plan.name);
        let mut answers = Vec::new();
        for p in PLACEMENTS {
            let rep = engine
                .run(&catalog, &plan, &ExecConfig::new(p))
                .unwrap_or_else(|e| panic!("{}/{p}: {e}", plan.name));
            answers.push(rep.rows);
        }
        let c = DbmsC::new(server.clone()).run_plan(&catalog, &plan);
        answers.push(c.unwrap_or_else(|e| panic!("{}/DBMS C: {e}", plan.name)).rows);
        let g = DbmsG::new(server.clone()).run_plan(&catalog, &plan);
        answers.push(g.unwrap_or_else(|e| panic!("{}/DBMS G: {e}", plan.name)).rows);
        assert!(!answers[0].is_empty(), "{}: a control answers something", plan.name);
        assert!(answers.iter().all(|a| *a == answers[0]), "{}: {answers:?}", plan.name);
    }
}

#[test]
fn static_and_runtime_verdicts_agree_on_every_row() {
    let catalog = catalog();
    let engine = Engine::new(Server::paper_testbed());
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let clean = SHAPES.iter().map(|shape| shape());
    let broken = UNBOUND.iter().chain(&PINNED).map(corrupted);
    for plan in clean.chain(broken) {
        let runtime = catch_unwind(AssertUnwindSafe(|| engine.run(&catalog, &plan, &cfg)))
            .unwrap_or_else(|_| panic!("{}: Engine::run panicked", plan.name));
        assert_eq!(
            verify_plan(&plan, &catalog).is_err(),
            runtime.is_err(),
            "{}: static {:?} vs runtime {:?}",
            plan.name,
            verify_plan(&plan, &catalog).err(),
            runtime.err()
        );
    }
}

#[test]
fn static_and_runtime_verdicts_agree_on_the_benchmark_suites() {
    use hape::core::Session;
    use hape::tpch::events::{behavioral_queries, generate_events};
    use hape::tpch::queries::{q1_query, q5_query, q6_query, q9_query, tpch_session};
    const SF: f64 = 0.01;
    let tpch = tpch_session(&hape::tpch::generate(SF, 31337), Server::tpch_scaled(SF));
    let algo = JoinAlgo::Partitioned;
    let tpch_queries = vec![q1_query(), q5_query(algo), q6_query(), q9_query(algo)];
    let mut behavioral = Session::new(Server::paper_testbed());
    behavioral.register(generate_events(2_000, 7171));
    let suites = [(&tpch, tpch_queries), (&behavioral, behavioral_queries())];
    for (session, queries) in &suites {
        for query in queries {
            let lowered = session.lower(query).expect("the suites lower");
            assert!(
                verify_plan(&lowered.plan, &lowered.catalog).is_ok(),
                "{}: {:?}",
                query.name,
                verify_plan(&lowered.plan, &lowered.catalog)
            );
            let cfg = ExecConfig::new(Placement::CpuOnly);
            let run = session.engine().run(&lowered.catalog, &lowered.plan, &cfg);
            assert!(run.is_ok(), "{}: {:?}", query.name, run.err());
        }
    }
}
