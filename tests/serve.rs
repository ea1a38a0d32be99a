//! The concurrent serving layer: determinism under interleaving, GPU
//! admission control, and the cross-query build-side cache.
//!
//! The guarantees under test:
//!
//! 1. **Concurrency never perturbs a query.** With the build cache off,
//!    every report of a `SessionServer` batch, typed failures included, is
//!    bit-identical to a solo run at any thread count and in either
//!    submission order — swept by the differential harness
//!    (`tests/differential.rs`), which also checks warm against cold rows.
//! 2. **Admission bounds GPU memory.** Two broadcast-heavy queries whose
//!    combined working sets exceed the fleet's GPU capacity run back to
//!    back: the second queues (counted in `admission_wait`) instead of
//!    OOM-failing, then completes.
//! 3. **The build cache is correct.** Warm submissions skip memoised
//!    builds (and their broadcasts), reported via `builds_cached`;
//!    replacing a table via the typed `register_table` path invalidates,
//!    a lost device downgrades, and the bound evicts least-recently-used.

use hape::core::serve::{CacheStats, SessionServer};
use hape::core::{ExecConfig, JoinAlgo, Placement, Query, Session};
use hape::ops::{col, AggFunc};
use hape::sim::topology::Server;
use hape::storage::datagen::gen_key_fk_table;

#[test]
fn admission_queues_second_gpu_heavy_query_instead_of_oom() {
    // GPU memory scaled to 512 KiB: each dim's broadcast working set
    // (~480 KiB with working space) fits alone, but two do not.
    let mut session = Session::new(Server::paper_testbed_gpu_mem_scaled(1.0 / 16384.0));
    session.register_as("fact_a", gen_key_fk_table(1 << 16, 1 << 16, 11));
    session.register_as("fact_b", gen_key_fk_table(1 << 16, 1 << 16, 12));
    session.register_as("dim_a", gen_key_fk_table(1 << 14, 1 << 14, 13));
    session.register_as("dim_b", gen_key_fk_table(1 << 14, 1 << 14, 14));
    let q = |fact: &str, dim: &str| {
        Query::new(format!("{fact}_x_{dim}"))
            .from_table(fact)
            .join(Query::scan(dim), "k", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k"))])
    };
    let qa = q("fact_a", "dim_a");
    let qb = q("fact_b", "dim_b");
    let cfg = ExecConfig::new(Placement::GpuOnly);

    // Each runs solo on the scaled-down fleet.
    assert!(session.execute_with(&qa, &cfg).is_ok());
    assert!(session.execute_with(&qb, &cfg).is_ok());

    let mut server = SessionServer::new(session);
    let budget = server.gpu_budget().expect("fleet has GPUs");
    let ha = server.submit_with(&qa, &cfg);
    let hb = server.submit_with(&qb, &cfg);
    let batch = server.run_all();

    let oa = batch.outcome(ha);
    let ob = batch.outcome(hb);
    // Combined footprints genuinely exceed the budget...
    assert!(oa.gpu_reserved > 0 && ob.gpu_reserved > 0);
    assert!(oa.gpu_reserved <= budget && ob.gpu_reserved <= budget);
    assert!(oa.gpu_reserved + ob.gpu_reserved > budget, "test must oversubscribe the GPU");
    // ...so the second queued (instead of OOMing or thrashing) and then
    // completed with correct rows.
    assert_eq!(oa.admission_wait, 0, "head of line admitted immediately");
    assert!(ob.admission_wait > 0, "second query must wait for the GPU budget");
    assert!(batch.total_admission_waits() > 0);
    let ra = oa.report.as_ref().expect("first completes");
    let rb = ob.report.as_ref().expect("queued query completes after the first frees the GPU");
    assert_eq!(ra.rows[0].1[0], (1 << 14) as f64);
    assert_eq!(rb.rows[0].1[0], (1 << 14) as f64);
}

#[test]
fn oversized_query_is_admitted_solo_and_fails_like_solo_execution() {
    // One query whose hash table exceeds GPU memory outright: admission
    // must not dead-queue it — it runs alone and fails with the same typed
    // error solo execution produces, without poisoning the batch.
    let mut session = Session::new(Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0));
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 16, 21));
    session.register_as("dim", gen_key_fk_table(1 << 14, 1 << 14, 22));
    let q = Query::new("oversized")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k"))]);
    let small = Query::new("small").from_table("fact").agg(vec![(AggFunc::Sum, col("v"))]);
    let gpu = ExecConfig::new(Placement::GpuOnly);
    let solo_err = format!("{}", session.execute_with(&q, &gpu).unwrap_err());

    let mut server = SessionServer::new(session);
    let hq = server.submit_with(&q, &gpu);
    let hs = server.submit_with(&small, &gpu);
    let batch = server.run_all();
    let got = batch.report(hq).as_ref().map_err(|e| format!("{e}")).unwrap_err();
    assert_eq!(got, solo_err, "failure isolated and identical to solo");
    assert!(batch.report(hs).is_ok(), "other queries in the batch are unaffected");
}

#[test]
fn build_cache_hits_skip_build_and_broadcast_and_invalidates_on_replace() {
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 16, 31));
    session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 32));
    let q = Query::new("repeat")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k"))]);
    let cfg = ExecConfig::new(Placement::Hybrid);

    let mut server = SessionServer::new(session);
    let cold = server.submit_with(&q, &cfg);
    let warm = server.submit_with(&q, &cfg);
    let batch = server.run_all();
    let cold = batch.report(cold).as_ref().unwrap();
    let warm = batch.report(warm).as_ref().unwrap();

    assert_eq!(cold.builds_cached, 0);
    assert_eq!(warm.builds_cached, 1, "second submission served from the cache");
    assert_eq!(warm.rows, cold.rows, "cached build must not change results");
    assert!(warm.time < cold.time, "skipping the build must shorten the makespan");
    assert!(
        warm.h2d_bytes < cold.h2d_bytes,
        "device-resident hit must also skip the broadcast: {} !< {}",
        warm.h2d_bytes,
        cold.h2d_bytes
    );
    assert_eq!(server.cache_stats().hits, 1);
    assert_eq!(server.cache_stats().misses, 1);
    assert_eq!(server.cached_builds(), 1);

    // Replacing the dimension table through the typed path bumps the
    // catalog version; the next submission must rebuild from the new
    // contents, counting an invalidation — never serving stale rows.
    let reg = server.register_table("dim", gen_key_fk_table(1 << 11, 1 << 11, 33));
    assert!(reg.replaced());
    let fresh = server.submit_with(&q, &cfg);
    let batch = server.run_all();
    let fresh = batch.report(fresh).as_ref().unwrap();
    assert_eq!(fresh.builds_cached, 0, "stale entry must not serve");
    assert_eq!(fresh.rows[0].1[0], (1 << 11) as f64, "results reflect the new table");
    assert_eq!(server.cache_stats().invalidations, 1);
}

#[test]
fn device_failure_downgrades_broadcast_cache_entries_to_host_resident() {
    // A broadcast-resident cache entry is only valid for the fleet it was
    // broadcast to. Entries are keyed by the health epoch at insert time;
    // losing a GPU bumps the epoch, so the next hit must downgrade to a
    // host-resident serve (re-broadcasting to the current fleet) instead
    // of trusting a device copy that may live on the dead card.
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 16, 41));
    session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 42));
    let q = Query::new("epoch")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k"))]);
    let cfg = ExecConfig::new(Placement::Hybrid);

    let mut server = SessionServer::new(session);
    let cold = server.submit_with(&q, &cfg);
    let warm = server.submit_with(&q, &cfg);
    let batch = server.run_all();
    let cold = batch.report(cold).as_ref().unwrap().clone();
    let warm = batch.report(warm).as_ref().unwrap().clone();
    assert_eq!(warm.builds_cached, 1);
    assert!(warm.h2d_bytes < cold.h2d_bytes, "broadcast hit skips the h2d copy");

    // A device dies between batches: the epoch moves, the entry stays.
    assert!(server.health().fail(1), "fresh failure bumps the epoch");
    let stale = server.submit_with(&q, &cfg);
    let batch = server.run_all();
    let stale = batch.report(stale).as_ref().unwrap().clone();
    assert_eq!(stale.builds_cached, 1, "the built table itself is still valid");
    assert_eq!(stale.rows, warm.rows, "downgraded hit serves identical rows");
    assert!(
        stale.h2d_bytes > warm.h2d_bytes,
        "downgraded hit must re-broadcast to the surviving fleet: {} !> {}",
        stale.h2d_bytes,
        warm.h2d_bytes
    );
    assert_eq!(server.cache_stats().invalidations, 1, "downgrade is counted");

    // The downgrade is sticky: the entry was re-keyed to the current
    // epoch, so a further hit at the same epoch serves host-resident
    // without counting another invalidation.
    let again = server.submit_with(&q, &cfg);
    let batch = server.run_all();
    let again = batch.report(again).as_ref().unwrap().clone();
    assert_eq!(again.builds_cached, 1);
    assert_eq!(again.rows, warm.rows);
    assert_eq!(server.cache_stats().invalidations, 1, "no double-count");
}

#[test]
fn bounded_build_cache_evicts_lru_first_and_never_serves_stale() {
    // Three distinct build sides through a 2-entry cache. The bound must
    // evict least-recently-used first — recency meaning hits as well as
    // inserts — and an evicted entry must silently rebuild with correct
    // rows, never serve stale state or fail.
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 51));
    session.register_as("dim_a", gen_key_fk_table(1 << 10, 1 << 10, 52));
    session.register_as("dim_b", gen_key_fk_table(1 << 10, 1 << 10, 53));
    session.register_as("dim_c", gen_key_fk_table(1 << 10, 1 << 10, 54));
    let q = |dim: &str| {
        Query::new(format!("fact_x_{dim}"))
            .from_table("fact")
            .join(Query::scan(dim), "k", "k", JoinAlgo::NonPartitioned)
            .agg(vec![(AggFunc::Count, col("k"))])
    };
    let (qa, qb, qc) = (q("dim_a"), q("dim_b"), q("dim_c"));
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let solo_a = session.execute_with(&qa, &cfg).unwrap().rows;

    let mut server = SessionServer::new(session).with_build_cache_capacity(2);

    // Batch 1 builds a, b, c in order: inserting c overflows the bound
    // and evicts a — the oldest entry.
    server.submit_with(&qa, &cfg);
    server.submit_with(&qb, &cfg);
    server.submit_with(&qc, &cfg);
    let batch = server.run_all();
    assert_eq!(batch.builds_evicted, 1, "third insert must evict exactly one entry");
    assert_eq!(server.cached_builds(), 2, "cache stays at capacity");

    // Batch 2: b (still cached) hits, bumping its recency past c's; a
    // (evicted) misses and rebuilds with correct rows — its re-insert then
    // evicts c, not the freshly-touched b.
    let hb = server.submit_with(&qb, &cfg);
    let ha = server.submit_with(&qa, &cfg);
    let batch = server.run_all();
    assert_eq!(batch.report(hb).as_ref().unwrap().builds_cached, 1, "b survived batch 1");
    let ra = batch.report(ha).as_ref().unwrap();
    assert_eq!(ra.builds_cached, 0, "evicted entry must rebuild, not serve");
    assert_eq!(ra.rows, solo_a, "rebuilt rows identical to solo execution");
    assert_eq!(batch.builds_evicted, 1);

    // Batch 3 confirms the LRU order of batch 2: b (hit-protected) is
    // still resident although it was inserted before c; c was evicted.
    let hb = server.submit_with(&qb, &cfg);
    let hc = server.submit_with(&qc, &cfg);
    let batch = server.run_all();
    assert_eq!(batch.report(hb).as_ref().unwrap().builds_cached, 1, "hits protect recency");
    assert_eq!(batch.report(hc).as_ref().unwrap().builds_cached, 0, "c was the LRU victim");
    assert_eq!(server.cache_stats().evictions, 3);
}

#[test]
fn capacity_zero_turns_the_build_cache_off() {
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 61));
    session.register_as("dim", gen_key_fk_table(1 << 10, 1 << 10, 62));
    let q = Query::new("fact_x_dim")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k"))]);
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let mut server = SessionServer::new(session).with_build_cache_capacity(0);
    for _ in 0..2 {
        server.submit_with(&q, &cfg);
        server.submit_with(&q, &cfg);
        assert_eq!(server.run_all().total_builds_cached(), 0, "capacity 0 serves no build");
    }
    assert_eq!(server.cached_builds(), 0, "capacity 0 holds no entry");
    assert_eq!(server.cache_stats(), CacheStats::default(), "nothing is counted");
}

#[test]
fn submit_reports_preparation_errors_per_query_without_aborting_the_batch() {
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 41));
    let good = Query::new("good").from_table("fact").agg(vec![(AggFunc::Count, col("k"))]);
    let bad =
        Query::new("bad").from_table("missing_table").agg(vec![(AggFunc::Count, col("k"))]);
    let mut server = SessionServer::new(session);
    let hb = server.submit(&bad);
    let hg = server.submit(&good);
    assert_eq!(server.pending(), 2);
    let batch = server.run_all();
    assert!(batch.report(hb).is_err(), "lowering failure surfaces on the handle");
    let rep = batch.report(hg).as_ref().unwrap();
    assert_eq!(rep.rows[0].1[0], (1 << 14) as f64);
    assert_eq!(batch.outcome(hb).query, "bad");
    assert_eq!(batch.outcome(hg).query, "good");
    assert_eq!(server.pending(), 0);
}
