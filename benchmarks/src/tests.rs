//! Whole-benchmark tests: the smoke run of every workload against the
//! declarations in `BENCHMARK.json`, and the `--out` file's round trip
//! through `bench compare`.

use crate::compare::{benchmark_json_path, compare_docs, declared_metrics};
use crate::json::{self, Json};
use crate::report::{Metric, RunReport, END_TO_END, PER_LAYER};
use crate::timed::{self, Args};
use crate::traced;
use crate::workload::Workload;

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(benchmark_json_path()).unwrap();
    json::parse(&text).unwrap()
}

fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap().to_string();
    benchmark
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn emitted(report: &RunReport) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

fn name_ok(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.chars().all(allowed)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_mirrors_the_code() {
    let benchmark = benchmark_json();
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&benchmark, "end_to_end"), table(&END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let metrics = declared_metrics(&benchmark).unwrap();
    for m in &metrics {
        assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
        assert!(m.bound.is_none_or(|b| (0.0..=0.25).contains(&b)), "{}: bound", m.name);
    }
    let setup = metrics.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(!setup.higher_is_better && setup.bound.is_some());
    let seconds = benchmark.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds));
}

/// A smoke run of both modes: zero failed operations, exactly the declared
/// metric names and units, every end-to-end value positive, the contract
/// line well-formed, and `compare` refusing the (invalid) smoke file.
fn smoke(workload: Workload) {
    let benchmark = benchmark_json();
    let args = Args { workload, seed: 3, seconds: 1, smoke: true };

    let timed = timed::run(&args).unwrap();
    assert_eq!(emitted(&timed), declared(&benchmark, "end_to_end"));
    assert!(timed.correct() && timed.attempted > 0, "{} failed", timed.failed);
    for m in &timed.metrics {
        assert!(m.value.is_finite() && m.value > 0.0, "{} = {}", m.name, m.value);
    }
    assert!(!timed.valid, "a smoke run is never a valid measurement");

    let (traced, log) = traced::run(&args).unwrap();
    assert_eq!(emitted(&traced), declared(&benchmark, "per_layer"));
    assert!(traced.correct(), "{} failed", traced.failed);
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    assert!(json::parse(&log.to_chrome_json())
        .unwrap()
        .as_arr()
        .is_some_and(|a| !a.is_empty()));

    for report in [&timed, &traced] {
        let line = json::parse(&report.contract_line()).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").and_then(Json::as_obj).unwrap().len(),
            report.metrics.len()
        );
        let doc = json::parse(&report.to_json().to_pretty()).unwrap();
        assert!(compare_docs(&benchmark, &doc, &doc).is_err(), "compare must refuse smoke");
    }
}

#[test]
fn smoke_tpch_scan() {
    smoke(Workload::TpchScan);
}

#[test]
fn smoke_tpch_join() {
    smoke(Workload::TpchJoin);
}

#[test]
fn smoke_behavioral() {
    smoke(Workload::Behavioral);
}

#[test]
fn smoke_serve_mixed() {
    smoke(Workload::ServeMixed);
}

fn valid_report(query_ms: f64, failed: u64) -> Json {
    let metric = |name, unit, value: f64, spread: f64| Metric {
        name,
        unit,
        value,
        band: Some((value * (1.0 - spread / 2.0), value * (1.0 + spread / 2.0))),
        n: Some(48),
    };
    let report = RunReport {
        workload: "tpch_scan",
        seed: 420,
        seconds: 25,
        traced: false,
        smoke: false,
        valid: true,
        nproc: 2,
        threads_n: 2,
        attempted: 100,
        failed,
        metrics: vec![
            metric("query_ms_geomean", "ms", query_ms, 0.02),
            metric("rows_per_s", "rows/s", 1e7, 0.3),
        ],
        cells: Vec::new(),
    };
    json::parse(&report.to_json().to_pretty()).unwrap()
}

#[test]
fn out_file_round_trips_through_compare() {
    let benchmark = benchmark_json();
    let base = valid_report(10.0, 0);
    let (table, ok) = compare_docs(&benchmark, &base, &base).unwrap();
    assert!(ok);
    assert!(table.contains("query_ms_geomean") && table.contains("unchanged"), "{table}");
    // rows_per_s is inside its bound, but its own band is wider.
    assert!(table.contains("unresolved"), "{table}");
    assert!(table.contains("base 10 ms"), "every ratio names its base: {table}");

    let (table, ok) = compare_docs(&benchmark, &base, &valid_report(13.0, 0)).unwrap();
    assert!(!ok && table.contains("regressed"), "{table}");
    let (table, ok) = compare_docs(&benchmark, &base, &valid_report(7.0, 0)).unwrap();
    assert!(ok && table.contains("improved"), "{table}");
    let (_, ok) = compare_docs(&benchmark, &base, &valid_report(10.0, 1)).unwrap();
    assert!(!ok, "a larger failed share fails the comparison");
}
