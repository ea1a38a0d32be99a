//! # hape-bench — the paper-figure regeneration harness
//!
//! One function per evaluation figure (§6). Each returns a [`Figure`] whose
//! series mirror the paper's legend, with simulated-time y-values. Default
//! input sizes are scaled down from the paper's (the shapes, crossovers and
//! ratios are the reproduction target — the scaling rule sits next to each
//! figure function in [`figures`]); `full` variants run at paper scale
//! where memory permits. Beside them: the [`verify`], [`chaos`] and
//! [`trace`] sweeps CI runs through the `figures` binary — each keeps only
//! its per-cell function and per-point formatter; the query matrix
//! ([`suite`] × [`PLACEMENTS`]) and the JSON envelope ([`sweep_json`]) are
//! said once, here.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod figures;
pub mod trace;
pub mod verify;

pub use chaos::{chaos_tpch, print_chaos, ChaosPoint, ChaosSweep};
pub use figures::{
    fig5, fig6, fig7, fig8, fig9, print_figure, Figure, Series, FIG6_DEFAULT_SIZES,
    FIG7_DEFAULT_SIZES,
};
pub use trace::{trace_tpch, write_chrome_trace};
pub use verify::{print_verify, verify_tpch, VerifyPoint, VerifySweep};

use hape_core::{Engine, JoinAlgo, LoweredQuery, Placement, Query, Session};
use hape_sim::topology::Server;
use hape_tpch::events::{behavioral_queries, generate_events};
use hape_tpch::queries::{q1_query, q5_query, q6_query, q9_query, tpch_session};

/// The placement axis of every sweep.
pub const PLACEMENTS: [Placement; 4] =
    [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto];

/// One query of the sweep matrix: the engine that runs it and its lowered
/// plan + pushed-down catalog (its label — `Q1`, ..., `B1`, ... — is the
/// plan's name).
pub type SuiteQuery = (Engine, LoweredQuery);

fn lower_all(session: &Session, queries: &[Query]) -> Vec<SuiteQuery> {
    let lower = |q| (session.engine().clone(), session.lower(q).expect("suite query lowers"));
    queries.iter().map(lower).collect()
}

/// The TPC-H half of [`suite`]: Q1/Q5/Q6/Q9* over seed-420 data on the
/// SF-scaled paper testbed (the repo benchmark's setup).
pub fn tpch_suite(sf: f64) -> Vec<SuiteQuery> {
    let session = tpch_session(&hape_tpch::generate(sf, 420), Server::tpch_scaled(sf));
    let part = JoinAlgo::Partitioned;
    lower_all(&session, &[q1_query(), q5_query(part), q6_query(), q9_query(part)])
}

/// Every query the sweeps run: [`tpch_suite`], then the behavioral B1–B4
/// suite over a seed-7171 event log of `users` users on the paper testbed.
pub fn suite(sf: f64, users: usize) -> Vec<SuiteQuery> {
    let mut session = Session::new(Server::paper_testbed());
    session.register(generate_events(users, 7171));
    let mut all = tpch_suite(sf);
    all.extend(lower_all(&session, &behavioral_queries()));
    all
}

/// The JSON envelope the sweep artifacts share (hand-rolled — no serde in
/// the offline workspace): the `header` fields with pre-rendered values,
/// then `"points"`, one pre-rendered object per line.
pub fn sweep_json(header: &[(&str, String)], points: &[String]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        out.push_str(&format!("    {p}{comma}\n"));
    }
    out.push_str("  ]\n}");
    out
}

/// Commonly used items.
pub mod prelude {
    pub use crate::chaos::{chaos_tpch, print_chaos};
    pub use crate::figures::{fig5, fig6, fig7, fig8, fig9, print_figure};
    pub use crate::trace::{trace_tpch, write_chrome_trace};
    pub use crate::verify::{print_verify, verify_tpch};
}
