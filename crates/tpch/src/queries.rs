//! The paper's TPC-H queries as logical [`Query`]s (§6.4).
//!
//! Q1 and Q6 are scan-bound aggregations (they "stress the interconnect and
//! memory bandwidth utilization"); Q5 and Q9* are join-heavy. Q9 follows the
//! paper: no `LIKE` condition and no join to the filtered `part` table.
//!
//! The queries are written against *named columns* of the base tables in
//! [`base_catalog`]; lowering derives the per-query columnar projections
//! automatically (each scan reads exactly the referenced columns, so scan
//! and transfer costs are charged on exactly the touched bytes — what the
//! old hand-maintained `prepare_catalog` projections did manually).
//!
//! The paper's hybrid Q9 — hash tables exceed GPU memory, so the heavy
//! lineitem⋈orders join runs as the §5 co-processing join while the CPU
//! materialises the lineitem-side intermediate ("the cornerstone for
//! evaluating Q9") — no longer needs a hand-written runner: the cost-based
//! optimizer plans it as a first-class co-processing stage. Execute
//! [`q9_query`] under `Placement::Auto` and the placed plan carries a
//! `PlacedStage::CoProcess` the engine drives through its device
//! providers.

use hape_core::{Catalog, JoinAlgo, Query, Session};
use hape_ops::{col, lit, AggFunc};
use hape_sim::topology::Server;
use hape_storage::Table;

use crate::dates::date;
use crate::gen::TpchData;

/// The seven base tables, in registration order.
fn base_tables(data: &TpchData) -> [&Table; 7] {
    [
        &data.lineitem,
        &data.orders,
        &data.customer,
        &data.supplier,
        &data.partsupp,
        &data.nation,
        &data.region,
    ]
}

/// Register the base tables in a catalog.
///
/// Queries reference columns by name; lowering pushes the per-query
/// projections down onto these tables as zero-copy views.
pub fn base_catalog(data: &TpchData) -> Catalog {
    let mut c = Catalog::new();
    for t in base_tables(data) {
        c.register(t.clone());
    }
    c
}

/// A [`Session`] over `server` with the base tables registered — the
/// fixture the integration tests, the examples and the bench sweeps share.
pub fn tpch_session(data: &TpchData, server: Server) -> Session {
    let mut session = Session::new(server);
    for t in base_tables(data) {
        session.register(t.clone());
    }
    session
}

/// TPC-H Q1: pricing summary report.
pub fn q1_query() -> Query {
    let threshold = date(1998, 12, 1) - 90;
    let disc_price = col("l_extendedprice").mul(lit(1.0).sub(col("l_discount")));
    Query::new("Q1")
        .from_table("lineitem")
        .filter(col("l_shipdate").le(lit(threshold)))
        .group_by(&["l_returnflag", "l_linestatus"])
        .agg(vec![
            (AggFunc::Sum, col("l_quantity")),
            (AggFunc::Sum, col("l_extendedprice")),
            (AggFunc::Sum, disc_price.clone()),
            (AggFunc::Sum, disc_price.mul(lit(1.0).add(col("l_tax")))),
            (AggFunc::Avg, col("l_quantity")),
            (AggFunc::Avg, col("l_extendedprice")),
            (AggFunc::Avg, col("l_discount")),
            (AggFunc::Count, col("l_quantity")),
        ])
}

/// TPC-H Q6: forecasting revenue change.
pub fn q6_query() -> Query {
    let lo = date(1994, 1, 1);
    let hi = date(1995, 1, 1);
    Query::new("Q6")
        .from_table("lineitem")
        .filter(
            col("l_shipdate").between(lit(lo), lit(hi)).and(
                col("l_discount")
                    .ge(lit(0.0499))
                    .and(col("l_discount").le(lit(0.0701)))
                    .and(col("l_quantity").lt(lit(24.0))),
            ),
        )
        .agg(vec![(AggFunc::Sum, col("l_extendedprice").mul(col("l_discount")))])
}

/// TPC-H Q5: local supplier volume (region = ASIA, orders of 1994), with
/// `algo` selecting the GPU join flavour (the Figure 9 toggle).
///
/// The `"ASIA"` literal resolves through the region dictionary during
/// lowering — no manual code lookup.
pub fn q5_query(algo: JoinAlgo) -> Query {
    let lo = date(1994, 1, 1);
    let hi = date(1995, 1, 1);
    let asia_regions = Query::scan("region").filter(col("r_name").eq(lit("ASIA")));
    let asia_nations =
        Query::scan("nation").join(asia_regions, "n_regionkey", "r_regionkey", algo);
    let customers =
        Query::scan("customer").join(asia_nations.clone(), "c_nationkey", "n_nationkey", algo);
    let orders = Query::scan("orders")
        .filter(col("o_orderdate").between(lit(lo), lit(hi)))
        .join(customers, "o_custkey", "c_custkey", algo);
    let suppliers =
        Query::scan("supplier").join(asia_nations, "s_nationkey", "n_nationkey", algo);
    Query::new("Q5")
        .from_table("lineitem")
        .join(orders, "l_orderkey", "o_orderkey", algo)
        .join(suppliers, "l_suppkey", "s_suppkey", algo)
        // Customer and supplier in the same nation.
        .filter(col("c_nationkey").eq(col("s_nationkey")))
        .group_by(&["n_name"])
        .agg(vec![(AggFunc::Sum, col("l_extendedprice").mul(lit(1.0).sub(col("l_discount"))))])
}

/// TPC-H Q9* (no LIKE / no part join, as run in the paper): product-type
/// profit by nation and year.
pub fn q9_query(algo: JoinAlgo) -> Query {
    Query::new("Q9*")
        .from_table("lineitem")
        .join(Query::scan("partsupp"), "l_pskey", "ps_pskey", algo)
        .join(q9_suppliers(algo), "l_suppkey", "s_suppkey", algo)
        .join(Query::scan("orders"), "l_orderkey", "o_orderkey", algo)
        .group_by(&["n_name", "o_year"])
        .agg(vec![(
            AggFunc::Sum,
            // price*(1-disc) - supplycost*qty
            col("l_extendedprice")
                .mul(lit(1.0).sub(col("l_discount")))
                .sub(col("ps_supplycost").mul(col("l_quantity"))),
        )])
}

/// Suppliers with their nation name attached — Q9's build side.
fn q9_suppliers(algo: JoinAlgo) -> Query {
    Query::scan("supplier").join(Query::scan("nation"), "s_nationkey", "n_nationkey", algo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::reference;
    use hape_core::{Engine, ExecConfig, Placement};
    use hape_sim::topology::Server;

    #[test]
    fn q1_matches_reference_on_cpu() {
        let data = generate(0.002, 11);
        let catalog = base_catalog(&data);
        let engine = Engine::new(Server::paper_testbed());
        let q1 = q1_query().lower(&catalog).unwrap();
        let rep =
            engine.run(&q1.catalog, &q1.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        let reference = reference::q1_reference(&data);
        assert!(
            reference::rows_approx_eq(&rep.rows, &reference),
            "{:?}\n{:?}",
            rep.rows,
            reference
        );
        assert_eq!(rep.rows.len(), 4); // A/F, N/F, N/O, R/F
    }

    #[test]
    fn q1_projection_is_pushed_down() {
        let data = generate(0.002, 11);
        let catalog = base_catalog(&data);
        let q1 = q1_query().lower(&catalog).unwrap();
        // The lineitem scan reads exactly the 7 referenced columns.
        let view = q1.catalog.get("Q1.lineitem").expect("projected lineitem view");
        assert_eq!(view.schema.len(), 7);
        assert!(view.schema.contains("l_shipdate"));
        assert!(!view.schema.contains("l_orderkey"));
    }

    #[test]
    fn q5_shared_asia_chain_builds_once() {
        use hape_core::plan::Stage;
        let data = generate(0.002, 13);
        let catalog = base_catalog(&data);
        let q5 = q5_query(JoinAlgo::NonPartitioned).lower(&catalog).unwrap();
        // The ASIA-nations chain (region → nation) is shared by the
        // customer and supplier sub-queries; the structural-hash memo
        // lowers it once: 5 builds + 1 stream, no `#2` duplicates.
        assert_eq!(q5.plan.stages.len(), 6);
        let builds: Vec<&str> = q5
            .plan
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::Build { name, .. } => Some(name.as_str()),
                Stage::Stream { .. } => None,
            })
            .collect();
        assert_eq!(
            builds,
            vec!["Q5.region", "Q5.nation", "Q5.customer", "Q5.orders", "Q5.supplier"]
        );
        // Both the customer and the supplier builds probe the one shared
        // nation table.
        let probes_nation = |i: usize| -> bool {
            let Stage::Build { pipeline, .. } = &q5.plan.stages[i] else { return false };
            pipeline.tables_probed() == vec!["Q5.nation"]
        };
        assert!(probes_nation(2), "customer probes the shared nation table");
        assert!(probes_nation(4), "supplier probes the shared nation table");
    }

    #[test]
    fn q5_payloads_ride_the_latest_providing_join() {
        use hape_core::plan::{PipeOp, Stage};
        let data = generate(0.002, 13);
        let catalog = base_catalog(&data);
        let q5 = q5_query(JoinAlgo::NonPartitioned).lower(&catalog).unwrap();
        // The paper's hand-written plan shape: the orders join carries only
        // c_nationkey; n_name rides the small supplier build (not the whole
        // orders→customers→nations chain).
        let Some(Stage::Stream { pipeline }) = q5.plan.stages.last() else {
            panic!("stream stage last");
        };
        let probes: Vec<&PipeOp> =
            pipeline.ops.iter().filter(|op| matches!(op, PipeOp::JoinProbe { .. })).collect();
        assert_eq!(probes.len(), 2);
        let PipeOp::JoinProbe { build_payload_cols: orders_payload, .. } = probes[0] else {
            unreachable!()
        };
        let PipeOp::JoinProbe { build_payload_cols: supplier_payload, .. } = probes[1] else {
            unreachable!()
        };
        assert_eq!(orders_payload.len(), 1, "orders join carries only c_nationkey");
        assert_eq!(supplier_payload.len(), 2, "supplier join carries s_nationkey + n_name");
    }

    #[test]
    fn q6_matches_reference_all_placements() {
        let data = generate(0.002, 12);
        let catalog = base_catalog(&data);
        let engine = Engine::new(Server::paper_testbed());
        let reference = reference::q6_reference(&data);
        let q6 = q6_query().lower(&catalog).unwrap();
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            let rep = engine.run(&q6.catalog, &q6.plan, &ExecConfig::new(placement)).unwrap();
            assert!(
                reference::rows_approx_eq(&rep.rows, &reference),
                "{placement:?}: {:?} vs {reference:?}",
                rep.rows
            );
        }
    }

    #[test]
    fn q5_matches_reference() {
        let data = generate(0.002, 13);
        let catalog = base_catalog(&data);
        let engine = Engine::new(Server::paper_testbed());
        let reference = reference::q5_reference(&data);
        for algo in [JoinAlgo::NonPartitioned, JoinAlgo::Partitioned] {
            let q5 = q5_query(algo).lower(&catalog).unwrap();
            let rep =
                engine.run(&q5.catalog, &q5.plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
            assert!(
                reference::rows_approx_eq(&rep.rows, &reference),
                "{algo:?}: {:?} vs {reference:?}",
                rep.rows
            );
        }
    }

    #[test]
    fn q9_matches_reference_on_cpu_and_under_auto() {
        let data = generate(0.002, 14);
        let catalog = base_catalog(&data);
        let engine = Engine::new(Server::paper_testbed());
        let reference = reference::q9_reference(&data);
        let q9 = q9_query(JoinAlgo::NonPartitioned).lower(&catalog).unwrap();
        let rep =
            engine.run(&q9.catalog, &q9.plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        assert!(reference::rows_approx_eq(&rep.rows, &reference));
        // Auto replaces the old hand-written hybrid runner: whatever mode
        // the optimizer picks on this (full-memory) server must agree.
        let auto =
            engine.run(&q9.catalog, &q9.plan, &ExecConfig::new(Placement::Auto)).unwrap();
        assert!(
            reference::rows_approx_eq(&auto.rows, &reference),
            "{:?} vs {reference:?}",
            auto.rows
        );
    }
}
