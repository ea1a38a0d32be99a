//! End-to-end behavioral-analytics suite: reference oracles on a tiny
//! hand-computed event log, golden rows (result identity across
//! placements and thread counts is the differential harness's,
//! `tests/differential.rs`), and the cost-model routing guarantee — `Placement::Auto` keeps
//! stateful pipelines off the GPU **because the priced sequential-state
//! penalty exceeds the CPU cost**, not because of a hard-coded pin:
//! scaling the GPU's memory system up flips the decision.

use hape::core::{ExecConfig, Placement, Query, QueryReport, Session};
use hape::ops::{col, AggFunc};
use hape::sim::topology::Server;
use hape::storage::{Batch, Column, DataType, Schema, Table};
use hape::tpch::events::{behavioral_queries, generate_events};

/// A 3-user log whose behavioral answers are computed by hand below.
fn tiny_events() -> Table {
    // user 1: signup, then a view→cart→purchase burst, a visit later on.
    // user 2: two views 10000s apart (two sessions, no funnel progress).
    // user 3: view+search burst, then visit/purchase a week+ later.
    let user_id = vec![1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3];
    let ts: Vec<i64> = vec![0, 100, 200, 300, 5000, 0, 10_000, 0, 50, 700_000, 700_100];
    let event = [
        "signup", "view", "cart", "purchase", "visit", "view", "view", "view", "search",
        "visit", "purchase",
    ];
    Table::new(
        "events",
        Schema::new([
            ("user_id", DataType::I32),
            ("ts", DataType::I64),
            ("event", DataType::Str),
        ]),
        Batch::new(vec![
            Column::from_i32(user_id),
            Column::from_i64(ts),
            Column::from_strs(event),
        ]),
    )
}

fn tiny_session() -> Session {
    let mut session = Session::new(Server::paper_testbed());
    session.register(tiny_events());
    session
}

fn events_session(n_users: usize) -> Session {
    let mut session = Session::new(Server::paper_testbed());
    session.register(generate_events(n_users, 7171));
    session
}

fn run(session: &Session, q: &Query, placement: Placement, threads: usize) -> QueryReport {
    let cfg = ExecConfig::new(placement).with_threads(threads);
    session.execute_with(q, &cfg).unwrap_or_else(|e| panic!("{}/{placement:?}: {e}", q.name))
}

#[test]
fn sessionize_matches_hand_computed_oracle() {
    // Gaps: u1 = {100,100,100,4700} → 2 sessions of 5 events;
    // u2 = {10000} → 2 sessions of 2 events; u3 = {50,699950,100} → 2
    // sessions of 4 events. Totals: 6 sessions, 11 events, 3 users.
    let session = tiny_session();
    let q = Query::new("sessions").from_table("events").sessionize("user_id", "ts", 1_800).agg(
        vec![
            (AggFunc::Sum, col("sessions")),
            (AggFunc::Sum, col("events")),
            (AggFunc::Count, col("user_id")),
        ],
    );
    let rep = run(&session, &q, Placement::CpuOnly, 1);
    assert_eq!(rep.rows.len(), 1);
    assert_eq!(rep.rows[0].1, vec![6.0, 11.0, 3.0]);
}

#[test]
fn funnel_matches_hand_computed_oracle() {
    // u1 completes view@100→cart@200→purchase@300 inside the hour
    // (depth 3); u2 and u3 only ever reach view (depth 1).
    let session = tiny_session();
    let q = Query::new("funnel")
        .from_table("events")
        .window_funnel("user_id", "ts", "event", &["view", "cart", "purchase"], 3_600)
        .group_by(&["funnel_depth"])
        .agg(vec![(AggFunc::Count, col("user_id"))]);
    let rep = run(&session, &q, Placement::CpuOnly, 1);
    let mut by_depth: Vec<(i64, f64)> = rep.rows.iter().map(|(k, v)| (k[0], v[0])).collect();
    by_depth.sort_unstable_by_key(|&(d, _)| d);
    assert_eq!(by_depth, vec![(1, 2.0), (3, 1.0)]);
}

#[test]
fn retention_matches_hand_computed_oracle() {
    // Only u1 signs up (cohort size 1); their visit@5000 lands in week 1
    // and nothing returns in week 2.
    let session = tiny_session();
    let q = Query::new("retention")
        .from_table("events")
        .retention("user_id", "ts", "event", "signup", &["visit", "visit"], 604_800)
        .agg(vec![
            (AggFunc::Sum, col("in_cohort")),
            (AggFunc::Sum, col("ret1")),
            (AggFunc::Sum, col("ret2")),
        ]);
    let rep = run(&session, &q, Placement::CpuOnly, 1);
    assert_eq!(rep.rows[0].1, vec![1.0, 1.0, 0.0]);
}

#[test]
fn sequence_match_matches_hand_computed_oracle() {
    // search→visit in order: only u3 (search@50, visit@700000).
    let session = tiny_session();
    let q = Query::new("sequence")
        .from_table("events")
        .sequence_match("user_id", "ts", "event", &["search", "visit"])
        .agg(vec![(AggFunc::Sum, col("matched")), (AggFunc::Count, col("user_id"))]);
    let rep = run(&session, &q, Placement::CpuOnly, 1);
    assert_eq!(rep.rows[0].1, vec![1.0, 3.0]);
}

#[test]
fn unknown_event_name_matches_no_rows() {
    // A pattern naming an event absent from the dictionary resolves to
    // the -1 sentinel and matches nothing — SQL semantics, not an error.
    let session = tiny_session();
    let q = Query::new("ghost")
        .from_table("events")
        .sequence_match("user_id", "ts", "event", &["checkout"])
        .agg(vec![(AggFunc::Sum, col("matched"))]);
    let rep = run(&session, &q, Placement::CpuOnly, 1);
    assert_eq!(rep.rows[0].1, vec![0.0]);
}

#[test]
fn behavioral_answers_match_the_pinned_golden_rows() {
    // The answers the row-at-a-time kernels (before the typed, in-place
    // rewrite) gave at 3 000 users, seed 7171 — so a kernel change is
    // checked end to end against its predecessor, not only against the
    // oracle that lives beside it.
    let session = events_session(3_000);
    let rows = |i: usize| run(&session, &behavioral_queries()[i], Placement::CpuOnly, 2).rows;
    let ungrouped = |i: usize| rows(i)[0].1.clone();
    assert_eq!(ungrouped(0), [30203.0, 93784.0, 3001.0], "B1 sessions, events, users");
    let mut users_by_depth: Vec<(i64, f64)> =
        rows(1).iter().map(|(key, values)| (key[0], values[0])).collect();
    users_by_depth.sort_unstable_by_key(|&(depth, _)| depth);
    assert_eq!(
        users_by_depth,
        [(0, 83.0), (1, 1050.0), (2, 1344.0), (3, 524.0)],
        "B2 users per funnel depth"
    );
    assert_eq!(ungrouped(2), [1520.0, 1092.0, 596.0], "B3 cohort, week 1, week 2");
    assert_eq!(ungrouped(3), [1584.0, 2968.0], "B4 matched, users");
}

#[test]
fn auto_prices_stateful_pipelines_off_the_gpu_and_the_lever_flips_it() {
    // On the paper testbed the sequential-state penalty prices every
    // behavioral query onto the CPUs under Auto: the optimizer selects a
    // CPU-only device subset and, consequently, no packet reaches a GPU.
    let session = events_session(3_000);
    let cfg = ExecConfig::new(Placement::Auto).with_threads(2);
    for q in behavioral_queries() {
        let plan = session.explain_with(&q, &cfg).unwrap();
        assert!(
            !plan.contains("segment gpu"),
            "{}: Auto must price the GPUs out of the subset:\n{plan}",
            q.name
        );
        let rep = run(&session, &q, Placement::Auto, 2);
        assert_eq!(rep.packets_gpu, 0, "{}: GPU must be priced out", q.name);
        assert!(rep.packets_cpu > 0, "{}: CPUs must stream the packets", q.name);
    }
    // ...but the pin is a *price*, not a rule: give the GPUs a memory
    // system fast enough to collapse the random-access term and the same
    // optimizer puts GPU segments back into the placed plan.
    let mut server = Server::paper_testbed();
    for g in &mut server.gpus {
        g.dram_bw *= 1e4;
    }
    let mut fast = Session::new(server);
    fast.register(generate_events(3_000, 7171));
    let mut flipped = false;
    for q in behavioral_queries() {
        let plan = fast.explain_with(&q, &cfg).unwrap();
        flipped |= plan.contains("segment gpu");
    }
    assert!(flipped, "scaled-up GPU memory must flip at least one placement decision");
}

#[test]
fn auto_matches_the_best_manual_placement_at_smoke_scale() {
    // The optimizer prices the GPU's sequential-state penalty instead of
    // pinning stateful pipelines by rule, so Auto ties the best manual
    // placement (same device subset) up to float noise. The differential
    // harness asserts the same for B1–B4 at the benchmark's 20 000 users
    // (`tests/differential.rs::fixed_corpus_at_the_benchmarks_scale`).
    let session = events_session(2_000);
    for q in behavioral_queries() {
        let sim = |p| run(&session, &q, p, 2).time.as_secs();
        let best_manual = [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid]
            .into_iter()
            .map(sim)
            .fold(f64::INFINITY, f64::min);
        let auto = sim(Placement::Auto);
        assert!(
            auto <= best_manual * (1.0 + 1e-9),
            "{}: auto ({auto}s) must match the best manual placement ({best_manual}s)",
            q.name
        );
    }
}
