//! What a run reports: the metric tables (names and units, mirrored by
//! `BENCHMARK.json`), and the result document in its three forms — the
//! `name value unit` listing, the contract's last stdout line, and the
//! `--out` JSON file that `bench compare` reads.

use crate::json::Json;
use crate::stats::Summary;

/// End-to-end metrics, measured with every tracer off (`--trace 0`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_ms_geomean", "ms"),
    ("query_ms_geomean_t1", "ms"),
    ("rows_per_s", "rows/s"),
    ("wave_ms_p10", "ms"),
    ("cold_wave_ms_p10", "ms"),
    ("serve_qps", "1/s"),
    ("sim_ms_total", "sim_ms"),
];

/// Per-layer metrics, measured by the traced run (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("tpch.generate_s", "s"),
    ("tpch.rows", "count"),
    ("query.lower_us", "us"),
    ("optimize.optimize_us", "us"),
    ("optimize.est_over_act_min", "ratio"),
    ("optimize.est_over_act_max", "ratio"),
    ("optimize.est_over_act_geomean", "ratio"),
    ("optimize.auto_vs_best_manual", "ratio"),
    ("place.place_us", "us"),
    ("verify.verify_us", "us"),
    ("engine.begin_us", "us"),
    ("engine.build_stages_ms", "ms"),
    ("engine.build_stages_ms_t1", "ms"),
    ("engine.stream_stages_ms", "ms"),
    ("engine.stream_stages_ms_t1", "ms"),
    ("engine.finish_us", "us"),
    ("engine.stages", "count"),
    ("engine.packets_cpu", "count"),
    ("engine.packets_gpu", "count"),
    ("engine.h2d_mb", "MB"),
    ("engine.sim_cpu_busy_ms", "sim_ms"),
    ("engine.sim_gpu_busy_ms", "sim_ms"),
    ("engine.wall_per_sim", "ratio"),
    ("engine.unattributed_share", "ratio"),
    ("provider.run_ops_ms", "ms"),
    ("provider.run_ops_mrows_s", "Mrows/s"),
    ("provider.charge_cpu_ms", "ms"),
    ("provider.charge_gpu_ms", "ms"),
    ("provider.fold_ms", "ms"),
    ("provider.packets", "count"),
    ("runtime.thread_speedup", "ratio"),
    ("runtime.dispatch_overhead_us", "us"),
    ("ops.eval_mrows_s", "Mrows/s"),
    ("ops.agg_update_mrows_s", "Mrows/s"),
    ("ops.stateful.sessionize_mev_s", "Mev/s"),
    ("ops.stateful.window_funnel_mev_s", "Mev/s"),
    ("ops.stateful.retention_mev_s", "Mev/s"),
    ("ops.stateful.sequence_match_mev_s", "Mev/s"),
    ("join.partition_mrows_s", "Mrows/s"),
    ("join.partition_mrows_s_tn", "Mrows/s"),
    ("join.cpu_radix_ms", "ms"),
    ("join.coprocess_ms", "ms"),
    ("join.coprocess_sim_ms", "sim_ms"),
    ("sim.host_us_per_sim_us", "ratio"),
    ("serve.submit_us_p10", "us"),
    ("serve.run_all_ms_p10", "ms"),
    ("serve.admission_waits_per_wave", "count"),
    ("serve.builds_cached_per_wave", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.gpu_reserved_mb_max", "MB"),
    ("serve.overhead_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans_per_query", "count"),
    ("trace.span_coverage_min", "ratio"),
    ("process.peak_rss_mb", "MB"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The p25–p75 band around a timing, oriented like `value`.
    pub band: Option<(f64, f64)>,
    /// Samples behind the value.
    pub n: Option<usize>,
}

/// Collects a run's metrics against one of the tables above: a name that
/// is not in the table, set twice, or left unset is a bug in the benchmark.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet { table, metrics: Vec::with_capacity(table.len()) }
    }

    fn push(&mut self, name: &str, value: f64, band: Option<(f64, f64)>, n: Option<usize>) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.metrics.iter().all(|m| m.name != name), "metric {name} set twice");
        self.metrics.push(Metric { name, unit, value, band, n });
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.push(name, value, None, None);
    }

    /// A timing: its fast decile, with the quartile band beside it.
    pub fn put_summary(&mut self, name: &str, s: Summary) {
        self.push(name, s.p10, Some((s.p25, s.p75)), Some(s.n));
    }

    pub fn put_banded(&mut self, name: &str, value: f64, band: (f64, f64), n: usize) {
        self.push(name, value, Some(band), Some(n));
    }

    /// The metrics in table order.
    pub fn finish(mut self) -> Vec<Metric> {
        let position = |m: &Metric| self.table.iter().position(|(n, _)| *n == m.name);
        self.metrics.sort_by_key(position);
        let missing: Vec<_> = self
            .table
            .iter()
            .filter(|(n, _)| self.metrics.iter().all(|m| m.name != *n))
            .map(|(n, _)| *n)
            .collect();
        assert!(missing.is_empty(), "metrics never set: {missing:?}");
        self.metrics
    }
}

/// One cell's solo latency, for the `--out` file and the listing.
#[derive(Debug, Clone)]
pub struct CellRow {
    pub label: String,
    pub tn_ms: Summary,
    pub t1_ms: Summary,
    pub sim_ms: f64,
}

#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    /// False when the run was a smoke run or a sample fell below its floor;
    /// `bench compare` refuses such a file.
    pub valid: bool,
    pub nproc: usize,
    pub threads_n: usize,
    /// Operations attempted: timed `execute_with` calls and served queries.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub cells: Vec<CellRow>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `name value unit`, one metric per line.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "# {:<12} t={} {:>9.3} ms [{:.3}, {:.3}]  t=1 {:>9.3} ms  sim {:.6} ms  n={}\n",
                c.label,
                self.threads_n,
                c.tn_ms.p50,
                c.tn_ms.p25,
                c.tn_ms.p75,
                c.t1_ms.p50,
                c.sim_ms,
                c.tn_ms.n
            ));
        }
        for m in &self.metrics {
            out.push_str(&format!("{} {} {}", m.name, m.value, m.unit));
            if let (Some((lo, hi)), Some(n)) = (m.band, m.n) {
                out.push_str(&format!("  # p25..p75 [{lo}, {hi}] n={n}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "# {} seed={} threads_n={} nproc={} attempted={} failed={} valid={}\n",
            self.workload,
            self.seed,
            self.threads_n,
            self.nproc,
            self.attempted,
            self.failed,
            self.valid
        ));
        out
    }

    /// The contract's result object: the last line of standard output.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .to_line()
    }

    /// The `--out` document.
    pub fn to_json(&self) -> Json {
        let summary = |s: &Summary| {
            Json::obj([
                ("p10", Json::Num(s.p10)),
                ("p25", Json::Num(s.p25)),
                ("p50", Json::Num(s.p50)),
                ("p75", Json::Num(s.p75)),
                ("n", Json::Num(s.n as f64)),
            ])
        };
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("smoke", Json::Bool(self.smoke)),
            ("valid", Json::Bool(self.valid)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads_n", Json::Num(self.threads_n as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let mut fields =
                        vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    if let Some((lo, hi)) = m.band {
                        fields.push(("p25", Json::Num(lo)));
                        fields.push(("p75", Json::Num(hi)));
                    }
                    if let Some(n) = m.n {
                        fields.push(("n", Json::Num(n as f64)));
                    }
                    (m.name, Json::obj(fields))
                })),
            ),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("cell", Json::str(c.label.clone())),
                                ("threads_n_ms", summary(&c.tn_ms)),
                                ("threads_1_ms", summary(&c.t1_ms)),
                                ("sim_ms", Json::Num(c.sim_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
