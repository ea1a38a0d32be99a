//! The refusal table: hand-built plans that do not bind are refused before
//! a packet moves — never a panic, never an answer — by every entry point
//! that executes a plan, in every build profile (CI runs this file under
//! `--release` too: the profile with no debug hook, where 12 of the first
//! 13 rows used to panic and the 13th returned zero rows for a
//! `COUNT(*)`).
//!
//! Each row is one well-formed *shape*, one corruption of it, applied
//! through the mutable parts [`QueryPlan`] and [`PlacedPlan`] share, and
//! the one [`DiagnosticKind`] it breaks. Every door — `Engine::run` under
//! `CpuOnly`, `Hybrid` and `Auto`, `Engine::run_placed` (a placed clean
//! plan, then corrupted), `DbmsC::run_plan`, `DbmsG::run_plan` and
//! `QueryPlan::validate` — refuses it as `Unbound` of a finding of that
//! kind, and that kind is the static verifier's first finding, on the plan
//! and on the placed plan.
//!
//! [`PlacedPlan`]: hape::core::PlacedPlan

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{placed_parts, plan_parts, verdicts, Parts, Verdict};
use hape::baselines::{DbmsC, DbmsG};
use hape::core::verify::{check_placed, verify_plan, DiagnosticKind as K};
use hape::core::{
    place, Catalog, Engine, EngineError, ExecConfig, JoinAlgo, PipeOp, Pipeline, Placement,
    PlanError, QueryPlan, Stage,
};
use hape::ops::expr::ExprKind;
use hape::ops::{AggFunc, AggSpec, Expr, StatefulAgg};
use hape::sim::topology::Server;
use hape::storage::{Batch, Column, DataType, Schema, Table};

const ROWS: usize = 6_000;

/// `fact(k i32, price f64, tag i32)`, `dim(k i32, weight f64)` and
/// `ev(user i32, ts i64, score f64, event str)` — whose timestamps descend
/// within each user: an unsorted log is answered, the same by every
/// executor, not a debug-build panic.
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
    let events = ["view", "cart", "buy"];
    catalog.register(Table::new(
        "ev",
        Schema::new([
            ("user", DataType::I32),
            ("ts", DataType::I64),
            ("score", DataType::F64),
            ("event", DataType::Str),
        ]),
        Batch::new(vec![
            Column::from_i32((0..ROWS).map(|i| (i / 6) as i32).collect()),
            Column::from_i64((0..ROWS).map(|i| (5 - i % 6) as i64 * 1_000).collect()),
            Column::from_f64(vec![1.0; ROWS]),
            Column::from_strs((0..ROWS).map(|i| events[i % 3])),
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

fn funnel_shape() -> QueryPlan {
    let funnel = StatefulAgg::WindowFunnel {
        user_col: 0,
        ts_col: 1,
        event_col: 3,
        steps: vec![0, 1],
        window: 5_000,
    };
    let pipeline = Pipeline::scan("ev")
        .stateful(funnel)
        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))]));
    plan("funnel", vec![Stage::Stream { pipeline }])
}

const SHAPES: [fn() -> QueryPlan; 6] =
    [scan_shape, group_shape, project_shape, join_shape, stateful_shape, funnel_shape];

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

fn event_col<'a>(parts: &'a mut [Parts<'_>]) -> &'a mut usize {
    match &mut stream(parts).ops[0] {
        PipeOp::Stateful(StatefulAgg::WindowFunnel { event_col, .. }) => event_col,
        other => panic!("the funnel shape is a window funnel, got {other:?}"),
    }
}

/// One row of the refusal table.
struct Case {
    name: &'static str,
    shape: fn() -> QueryPlan,
    corrupt: fn(&mut [Parts<'_>]),
    /// The finding every door refuses the corrupted plan with.
    kind: fn() -> K,
}

fn out_of_range(column: usize, width: usize, context: &'static str) -> K {
    K::ColumnOutOfRange { column, width, context }
}

fn wrong_kind(context: &'static str, expected: ExprKind) -> K {
    let found = if expected == ExprKind::Bool { ExprKind::Num } else { ExprKind::Bool };
    K::ExprKindMismatch { context, expected, found }
}

/// Column 1 — an `f64` — as the key `context` names.
fn mistyped_key(context: &'static str) -> K {
    K::KeyType { context, column: 1, found: DataType::F64 }
}

const TABLE: [Case; 19] = [
    Case {
        name: "filter column out of range",
        shape: scan_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Filter(Expr::lt(Expr::col(9), Expr::LitI32(1))),
        kind: || out_of_range(9, 3, "filter"),
    },
    Case {
        name: "aggregate argument column out of range",
        shape: scan_shape,
        corrupt: |p| stream_agg(p).aggs[1].1 = Expr::col(9),
        kind: || out_of_range(9, 3, "agg"),
    },
    Case {
        name: "group-by column out of range",
        shape: group_shape,
        corrupt: |p| stream_agg(p).group_by = vec![9],
        kind: || out_of_range(9, 3, "group-by"),
    },
    Case {
        name: "build key out of range",
        shape: join_shape,
        corrupt: |p| *build_key(p) = 9,
        kind: || out_of_range(9, 2, "build key"),
    },
    Case {
        name: "probe payload out of range",
        shape: join_shape,
        corrupt: |p| *probe(p).2 = vec![9],
        kind: || K::PayloadOutOfRange { ht: "dim_ht".into(), column: 9, build_width: 2 },
    },
    Case {
        name: "numeric filter",
        shape: scan_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Filter(Expr::col(0)),
        kind: || wrong_kind("filter", ExprKind::Bool),
    },
    Case {
        name: "numeric operand under `and`",
        shape: scan_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Filter(Expr::and(Expr::col(0), small_keys())),
        kind: || wrong_kind("filter", ExprKind::Bool),
    },
    Case {
        name: "boolean projection",
        shape: project_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Project(vec![small_keys(), Expr::col(1)]),
        kind: || wrong_kind("project", ExprKind::Num),
    },
    Case {
        name: "boolean aggregate argument",
        shape: scan_shape,
        corrupt: |p| stream_agg(p).aggs[1].1 = small_keys(),
        kind: || wrong_kind("agg", ExprKind::Num),
    },
    Case {
        name: "group-by over an f64 column",
        shape: group_shape,
        corrupt: |p| stream_agg(p).group_by = vec![1],
        kind: || mistyped_key("group-by"),
    },
    Case {
        name: "probe key over an f64 column",
        shape: join_shape,
        corrupt: |p| *probe(p).1 = 1,
        kind: || K::ProbeKeyType { ht: "dim_ht".into(), key_col: 1, found: DataType::F64 },
    },
    Case {
        name: "build key over an f64 column",
        shape: join_shape,
        corrupt: |p| *build_key(p) = 1,
        kind: || mistyped_key("build key"),
    },
    Case {
        name: "empty projection",
        shape: project_shape,
        corrupt: |p| stream(p).ops[0] = PipeOp::Project(Vec::new()),
        kind: || K::EmptyProject,
    },
    Case {
        name: "unknown source table",
        shape: scan_shape,
        corrupt: |p| stream(p).source = "ghost".into(),
        kind: || K::UnknownSource { table: "ghost".into() },
    },
    Case {
        name: "probe of an unbuilt table",
        shape: join_shape,
        corrupt: |p| *probe(p).0 = "ghost".into(),
        kind: || K::ProbeUnbuilt { ht: "ghost".into() },
    },
    Case {
        name: "stateful user column over an f64 column",
        shape: stateful_shape,
        corrupt: |p| *user_col(p) = 2,
        kind: || K::StatefulColumnType { column: 2, role: "user", found: DataType::F64 },
    },
    Case {
        name: "stateful event column over an f64 column",
        shape: funnel_shape,
        corrupt: |p| *event_col(p) = 2,
        kind: || K::StatefulColumnType { column: 2, role: "event", found: DataType::F64 },
    },
    Case {
        name: "stateful user column out of range",
        shape: stateful_shape,
        corrupt: |p| *user_col(p) = 7,
        kind: || K::StatefulAlignmentInvalid { role: "user", user_col: 7, source_width: 4 },
    },
    Case {
        // cpu and hybrid used to answer this with one merged row.
        name: "five group-by columns",
        shape: group_shape,
        corrupt: |p| stream_agg(p).group_by = vec![2; 5],
        kind: || K::TooManyGroupColumns { got: 5, max: 4 },
    },
];

// ------------------------------ the harness ------------------------------

const PLACEMENTS: [Placement; 3] = [Placement::CpuOnly, Placement::Hybrid, Placement::Auto];

/// The kind of a `PlanError::Unbound` refusal.
fn unbound(e: &PlanError) -> Option<&K> {
    match e {
        PlanError::Unbound(d) => Some(&d.kind),
        _ => None,
    }
}

/// The kind of an engine refusal of a plan that does not bind.
fn refused(e: &EngineError) -> Option<&K> {
    match e {
        EngineError::InvalidPlan(e) => unbound(e),
        _ => None,
    }
}

/// Every door refuses each row as its kind, and so do the static
/// verifier's first findings: on the plan, and on the clean plan placed
/// under hybrid and then corrupted.
#[test]
fn static_and_runtime_verdicts_agree_on_every_row() {
    let catalog = catalog();
    let server = Server::paper_testbed();
    let mut failures = Vec::new();
    for case in &TABLE {
        let want = (case.kind)();
        let mut check = |door: &str, got: Option<&K>, seen: &dyn std::fmt::Debug| {
            if got != Some(&want) {
                failures.push(format!("{} via {door}: {seen:?}", case.name));
            }
        };
        for (door, verdict) in verdicts(&catalog, &(case.shape)(), &case.corrupt) {
            let got = match &verdict {
                Verdict::Refused(e) => refused(e),
                _ => None,
            };
            check(&door, got, &verdict);
        }
        let mut plan = (case.shape)();
        (case.corrupt)(&mut plan_parts(&mut plan));
        // Without a catalog, only structure is judged.
        if let Err(e) = plan.validate() {
            check("QueryPlan::validate", unbound(&e), &e);
        }
        let statically = verify_plan(&plan, &catalog).err();
        let first = statically.as_ref().and_then(|e| e.diagnostics.first());
        check("verify_plan", first.map(|d| &d.kind), &statically);
        let cfg = ExecConfig::new(Placement::Hybrid);
        let mut placed = place(&(case.shape)(), &cfg, &server).expect("a clean plan places");
        (case.corrupt)(&mut placed_parts(&mut placed));
        let findings = check_placed(&placed, &catalog, &server);
        check("check_placed", findings.first().map(|d| &d.kind), &findings);
    }
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
}

/// A structural corruption: an edit of a plan's stage list, or of its
/// pipelines, that `try_new` refuses to build (the fields are public) and
/// that reads the same on a lowered plan and on a placed one.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// The first stage (a build) aggregates.
    AggregatingBuild,
    /// The stream stage loses its aggregation.
    Aggless,
    /// The stream stage runs twice.
    TwoStreams,
    /// The stream stage goes.
    NoStream,
    /// The build runs after the stream that probes it.
    LateBuild,
    /// A projection reshapes the input of the stream's stateful operator.
    Reshaped,
}

impl Edit {
    /// The clean shape the edit corrupts.
    fn shape(self) -> QueryPlan {
        match self {
            Edit::AggregatingBuild | Edit::NoStream | Edit::LateBuild => join_shape(),
            Edit::Aggless | Edit::TwoStreams => scan_shape(),
            Edit::Reshaped => stateful_shape(),
        }
    }
}

/// `edit`'s change to the stage list, if it makes one.
fn restage<S: Clone>(edit: Edit, stages: &mut Vec<S>) {
    match edit {
        Edit::TwoStreams => {
            let stream = stages.last().cloned();
            stages.extend(stream);
        }
        Edit::NoStream => {
            stages.pop();
        }
        Edit::LateBuild => stages.rotate_left(1),
        Edit::AggregatingBuild | Edit::Aggless | Edit::Reshaped => {}
    }
}

/// `edit`'s change to the pipelines, if it makes one.
fn repipe(edit: Edit, parts: &mut [Parts<'_>]) {
    match edit {
        Edit::AggregatingBuild => parts[0].1.agg = Some(count_and_sum()),
        Edit::Aggless => stream(parts).agg = None,
        Edit::Reshaped => {
            stream(parts).ops.insert(0, PipeOp::Project(vec![Expr::col(0), Expr::col(1)]));
        }
        Edit::TwoStreams | Edit::NoStream | Edit::LateBuild => {}
    }
}

/// The six structural invariants on plans assembled past `try_new` —
/// plans `place` will not place: `validate`, the static verifier,
/// `Engine::run` under every placement (binding ahead of placement and the
/// optimizer) and both baselines find the same kind, and so does
/// `check_placed` on the clean shape placed under hybrid and then given the
/// same edit.
#[test]
fn structurally_malformed_plans_keep_their_refusals_under_every_placement() {
    let catalog = catalog();
    let server = Server::paper_testbed();
    let engine = Engine::new(server.clone());
    let rows = [
        ("agg-build", Edit::AggregatingBuild, K::BuildAggregates { name: "dim_ht".into() }),
        ("aggless", Edit::Aggless, K::StreamMissingAgg),
        ("two-streams", Edit::TwoStreams, K::NotExactlyOneStream { streams: 2 }),
        ("no-stream", Edit::NoStream, K::NotExactlyOneStream { streams: 0 }),
        ("late-build", Edit::LateBuild, K::ProbeUnbuilt { ht: "dim_ht".into() }),
        ("reshaped", Edit::Reshaped, K::StatefulAfterReshape),
    ];
    for (name, edit, want) in &rows {
        let mut plan = edit.shape();
        restage(*edit, &mut plan.stages);
        repipe(*edit, &mut plan_parts(&mut plan));
        let plan = &plan;
        let validated = plan.validate();
        assert_eq!(validated.as_ref().err().and_then(unbound), Some(want), "{name}");
        let statically = verify_plan(plan, &catalog).err();
        let first = statically.as_ref().and_then(|e| e.diagnostics.first());
        assert_eq!(first.map(|d| &d.kind), Some(want), "{name}");
        let mut placed = place(&edit.shape(), &ExecConfig::new(Placement::Hybrid), &server)
            .expect("a clean plan places");
        restage(*edit, &mut placed.stages);
        repipe(*edit, &mut placed_parts(&mut placed));
        let findings = check_placed(&placed, &catalog, &server);
        assert_eq!(findings.first().map(|d| &d.kind), Some(want), "{name}/check_placed");
        for p in PLACEMENTS {
            let got = catch_unwind(AssertUnwindSafe(|| {
                engine.run(&catalog, plan, &ExecConfig::new(p)).map(|_| ())
            }))
            .unwrap_or_else(|_| panic!("{name}/{p}: panicked"));
            let e = got.expect_err("refused");
            assert_eq!(refused(&e), Some(want), "{name}/{p}: {e}");
        }
        for (door, got) in [
            ("DBMS C", DbmsC::new(server.clone()).run_plan(&catalog, plan).map(drop)),
            ("DBMS G", DbmsG::new(server.clone()).run_plan(&catalog, plan).map(drop)),
        ] {
            let e = match got {
                Err(hape::baselines::BaselineError::Engine(e)) => e,
                other => panic!("{name}/{door}: {other:?}"),
            };
            assert_eq!(refused(&e), Some(want), "{name}/{door}: {e}");
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
