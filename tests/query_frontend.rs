//! The Session/Query front-end: TPC-H through the logical builder matches
//! the reference oracles on every placement, and misdescribed queries
//! surface typed `PlanError`s instead of panicking: lowering's by name, the
//! binding walk's as `Unbound` of its first finding.

use hape::core::error::{HapeError, PlanError};
use hape::core::verify::DiagnosticKind;
use hape::core::{ExecConfig, JoinAlgo, Placement, Query, Session};
use hape::ops::{col, lit, AggFunc};
use hape::sim::topology::Server;
use hape::tpch::queries::{self, q1_query, q5_query, q6_query, q9_query};
use hape::tpch::reference::{
    q1_reference, q5_reference, q6_reference, q9_reference, rows_approx_eq,
};

const SF: f64 = 0.01;

fn tpch_session() -> (hape::tpch::TpchData, Session) {
    let data = hape::tpch::generate(SF, 4242);
    let session = queries::tpch_session(&data, Server::tpch_scaled(SF));
    (data, session)
}

#[test]
fn tpch_queries_match_oracles_on_every_placement() {
    let (data, session) = tpch_session();
    let cases = [
        (q1_query(), q1_reference(&data)),
        (q5_query(JoinAlgo::Partitioned), q5_reference(&data)),
        (q5_query(JoinAlgo::NonPartitioned), q5_reference(&data)),
        (q6_query(), q6_reference(&data)),
    ];
    for (query, reference) in cases {
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            let rep = session
                .execute_with(&query, &ExecConfig::new(placement))
                .unwrap_or_else(|e| panic!("{}/{placement:?}: {e}", query.name));
            assert!(
                rows_approx_eq(&rep.rows, &reference),
                "{}/{placement:?} diverges from the oracle",
                query.name
            );
        }
    }
    // Q9: CPU-only matches; GPU-only is the paper's documented OOM; Auto
    // plans the §5 co-processing stage through the same front door and
    // matches too — no hand-written fallback.
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    let reference = q9_reference(&data);
    let cpu = session.execute_with(&q9, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    assert!(rows_approx_eq(&cpu.rows, &reference));
    assert!(matches!(
        session.execute_with(&q9, &ExecConfig::new(Placement::GpuOnly)),
        Err(HapeError::Engine(_))
    ));
    let auto = session.execute_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    assert!(rows_approx_eq(&auto.rows, &reference));
}

#[test]
fn mid_chain_select_reaches_project_and_matches_the_oracle() {
    // Q6 rewritten with a computed projection: the revenue term is
    // materialised by a mid-chain `select` instead of inside the
    // aggregate, exercising `PipeOp::Project` from the front-end on every
    // placement.
    let (data, session) = tpch_session();
    let lo = hape::tpch::date(1994, 1, 1);
    let hi = hape::tpch::date(1995, 1, 1);
    let q = session
        .query("Q6-select")
        .from_table("lineitem")
        .filter(
            col("l_shipdate").between(lit(lo), lit(hi)).and(
                col("l_discount")
                    .ge(lit(0.0499))
                    .and(col("l_discount").le(lit(0.0701)))
                    .and(col("l_quantity").lt(lit(24.0))),
            ),
        )
        .select(vec![("revenue_item", col("l_extendedprice").mul(col("l_discount")))])
        .agg(vec![(AggFunc::Sum, col("revenue_item"))]);
    // The select lowers to a physical projection.
    let lowered = session.lower(&q).unwrap();
    let has_project = lowered.plan.stages.iter().any(|s| match s {
        hape::core::Stage::Stream { pipeline } | hape::core::Stage::Build { pipeline, .. } => {
            pipeline.ops.iter().any(|op| matches!(op, hape::core::PipeOp::Project(_)))
        }
    });
    assert!(has_project, "select did not lower to PipeOp::Project");
    // And the result matches the Q6 oracle on every placement.
    let reference = q6_reference(&data);
    for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
        let rep = session.execute_with(&q, &ExecConfig::new(placement)).unwrap();
        assert!(
            rows_approx_eq(&rep.rows, &reference),
            "{placement:?}: {:?} vs {reference:?}",
            rep.rows
        );
    }
    // Columns not re-selected are gone: referencing one downstream is a
    // typed error, not silence.
    let bad = session
        .query("bad")
        .from_table("lineitem")
        .select(vec![("revenue_item", col("l_extendedprice").mul(col("l_discount")))])
        .agg(vec![(AggFunc::Sum, col("l_quantity"))]);
    match refusal(&session, &bad) {
        PlanError::UnknownColumn { column, .. } => assert_eq!(column, "l_quantity"),
        e => panic!("unexpected error {e}"),
    }
}

/// The `PlanError` `session` refuses `q` with.
fn refusal(session: &Session, q: &Query) -> PlanError {
    match session.execute(q).expect_err("the query is refused") {
        HapeError::Plan(e) => e,
        e => panic!("unexpected error {e}"),
    }
}

/// The binding walk's finding `session` refuses `q` with.
fn unbound(session: &Session, q: &Query) -> DiagnosticKind {
    match refusal(session, q) {
        PlanError::Unbound(d) => d.kind,
        e => panic!("unexpected error {e}"),
    }
}

/// `COUNT(l_orderkey)` over `lineitem` through `ops`.
fn count_lineitem(session: &Session, ops: impl FnOnce(Query) -> Query) -> Query {
    ops(session.query("bad").from_table("lineitem"))
        .agg(vec![(AggFunc::Count, col("l_orderkey"))])
}

#[test]
fn unknown_table_is_a_typed_error() {
    let (_, session) = tpch_session();
    let q = count_lineitem(&session, |q| q.from_table("lineitems"));
    assert_eq!(refusal(&session, &q), PlanError::UnknownTable { table: "lineitems".into() });
}

#[test]
fn unknown_column_is_a_typed_error() {
    let (_, session) = tpch_session();
    let q = count_lineitem(&session, |q| q.filter(col("l_shipmode").eq(lit(1))));
    match refusal(&session, &q) {
        PlanError::UnknownColumn { column, .. } => assert_eq!(column, "l_shipmode"),
        e => panic!("unexpected error {e}"),
    }
}

#[test]
fn stream_without_aggregate_is_a_typed_error() {
    let (_, session) = tpch_session();
    let q = session.query("bad").from_table("lineitem");
    assert_eq!(unbound(&session, &q), DiagnosticKind::StreamMissingAgg);
}

#[test]
fn aggregating_build_side_is_a_typed_error() {
    let (_, session) = tpch_session();
    let build = Query::scan("orders").agg(vec![(AggFunc::Count, col("o_orderkey"))]);
    let q = count_lineitem(&session, |q| {
        q.join(build, "l_orderkey", "o_orderkey", JoinAlgo::NonPartitioned)
    });
    let name = "bad.orders".into();
    assert_eq!(unbound(&session, &q), DiagnosticKind::BuildAggregates { name });
}

#[test]
fn five_group_by_columns_are_a_typed_error() {
    let (_, session) = tpch_session();
    let keys = ["l_orderkey", "l_pskey", "l_suppkey", "l_returnflag", "l_linestatus"];
    let q = count_lineitem(&session, |q| q.group_by(&keys));
    assert_eq!(unbound(&session, &q), DiagnosticKind::TooManyGroupColumns { got: 5, max: 4 });
}

#[test]
fn type_mismatches_are_typed_errors() {
    let (_, session) = tpch_session();
    let mismatch =
        |ops: fn(Query) -> Query| match refusal(&session, &count_lineitem(&session, ops)) {
            PlanError::TypeMismatch { expected, .. } => expected,
            e => panic!("unexpected error {e}"),
        };
    // Numeric filter where a boolean predicate is required.
    assert_eq!(mismatch(|q| q.filter(col("l_quantity").add(lit(1)))), "boolean predicate");
    // Arithmetic over a dictionary-encoded string column.
    mismatch(|q| q.filter(col("l_returnflag").add(lit(1)).gt(lit(0))));
    // Grouping by a float column.
    mismatch(|q| q.group_by(&["l_extendedprice"]));
    // Joining on a float key.
    mismatch(|q| {
        q.join(Query::scan("orders"), "l_extendedprice", "o_orderkey", JoinAlgo::NonPartitioned)
    });
}

#[test]
fn string_literals_resolve_through_dictionaries() {
    let (data, session) = tpch_session();
    // Count ASIA nations: the literal resolves to a dictionary code.
    let q = session
        .query("asia")
        .from_table("nation")
        .join(
            Query::scan("region").filter(col("r_name").eq(lit("ASIA"))),
            "n_regionkey",
            "r_regionkey",
            JoinAlgo::NonPartitioned,
        )
        .agg(vec![(AggFunc::Count, col("n_nationkey"))]);
    let rep = session.execute(&q).unwrap();
    let expected = data
        .nation
        .column("n_regionkey")
        .as_i32()
        .iter()
        .filter(|&&r| {
            let asia =
                data.region.column("r_name").dict().unwrap().code_of("ASIA").unwrap() as i32;
            r == asia
        })
        .count();
    assert_eq!(rep.rows[0].1[0], expected as f64);

    // An absent literal selects nothing instead of erroring.
    let q = session
        .query("atlantis")
        .from_table("region")
        .filter(col("r_name").eq(lit("ATLANTIS")))
        .agg(vec![(AggFunc::Count, col("r_regionkey"))]);
    let rep = session.execute(&q).unwrap();
    assert!(rep.rows.is_empty() || rep.rows[0].1[0] == 0.0);

    // A string literal against a numeric column is a typed error (caught
    // by inference before dictionary resolution).
    let q = session
        .query("bad")
        .from_table("nation")
        .filter(col("n_nationkey").eq(lit("ASIA")))
        .agg(vec![(AggFunc::Count, col("n_nationkey"))]);
    assert!(matches!(refusal(&session, &q), PlanError::TypeMismatch { .. }));

    // Equality between two string *columns* is rejected: their
    // dictionaries assign codes independently, so the comparison would
    // silently return wrong rows.
    let q = session
        .query("bad")
        .from_table("lineitem")
        .filter(col("l_returnflag").eq(col("l_linestatus")))
        .agg(vec![(AggFunc::Count, col("l_orderkey"))]);
    match refusal(&session, &q) {
        PlanError::TypeMismatch { found, .. } => assert_eq!(found, "two string columns"),
        e => panic!("unexpected error {e}"),
    }

    // A stray string literal outside any comparison is its own typed
    // error.
    let q = session
        .query("bad")
        .from_table("region")
        .filter(lit("ASIA").eq(lit("ATLANTIS")))
        .agg(vec![(AggFunc::Count, col("r_regionkey"))]);
    assert!(matches!(refusal(&session, &q), PlanError::StringComparedToNonString { .. }));
}

#[test]
fn probe_before_build_is_a_typed_error_on_the_physical_layer() {
    // The logical builder cannot express this ordering violation — only a
    // hand-assembled physical plan can, and `try_new` rejects it.
    use hape::core::{Pipeline, QueryPlan, Stage};
    use hape::ops::{AggSpec, Expr};
    let Err(PlanError::Unbound(d)) = QueryPlan::try_new(
        "bad",
        vec![Stage::Stream {
            pipeline: Pipeline::scan("fact")
                .join("ghost", 0, vec![], JoinAlgo::NonPartitioned)
                .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
        }],
    ) else {
        panic!("an unbuilt probe does not bind")
    };
    assert_eq!(d.kind, DiagnosticKind::ProbeUnbuilt { ht: "ghost".into() });
}
