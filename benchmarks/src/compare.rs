//! `bench compare <a.json> <b.json>`: judge run `b` against run `a` with
//! each metric's direction and bound from `BENCHMARK.json`.
//!
//! One row per metric. For an end-to-end metric the verdict is
//!
//! * `regressed` — `b` is worse than `a` by more than the bound;
//! * `improved` — `b` is better by more than the bound;
//! * `unresolved` — the change is inside the bound, but either side's own
//!   p25–p75 band is wider than the bound, so the runs cannot tell;
//! * `unchanged` — otherwise.
//!
//! Per-layer metrics carry no bound; they are listed as `same` or
//! `changed` so that exact counts can be checked for identity. The exit
//! code is non-zero on any regression or a larger failed share.

use std::path::Path;

use crate::json::{self, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub higher_is_better: bool,
    /// `None` for a per-layer metric.
    pub bound: Option<f64>,
}

/// The metric declarations of `BENCHMARK.json`.
pub fn declared_metrics(benchmark: &Json) -> Result<Vec<Bounded>, String> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = benchmark
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for entry in list {
            let name = entry.get("name").and_then(Json::as_str);
            let better = entry.get("better").and_then(Json::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!("BENCHMARK.json: malformed {section} entry"));
            };
            out.push(Bounded {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: entry.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    Same,
    Changed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "changed",
        }
    }
}

/// One side of a comparison: the value and its relative p25–p75 width.
#[derive(Debug, Clone, Copy)]
struct Side {
    value: f64,
    spread: f64,
}

fn side(metric: &Json) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    let spread = match (
        metric.get("p25").and_then(Json::as_f64),
        metric.get("p75").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) if value != 0.0 => ((hi - lo) / value).abs(),
        _ => 0.0,
    };
    Some(Side { value, spread })
}

fn judge(decl: &Bounded, a: Side, b: Side) -> Verdict {
    let Some(bound) = decl.bound else {
        return if a.value == b.value { Verdict::Same } else { Verdict::Changed };
    };
    // Share of the base by which `b` is worse (negative: better).
    let worse = if a.value == 0.0 {
        0.0
    } else if decl.higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn failed_share(doc: &Json) -> f64 {
    let num = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    num("failed") / num("attempted").max(1.0)
}

/// Compare two `--out` documents; `Ok(true)` when nothing regressed.
pub fn compare_docs(benchmark: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (which, doc) in [("first", a), ("second", b)] {
        if doc.get("valid").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "the {which} file is not a valid run (smoke, or a sample below its floor)"
            ));
        }
    }
    let header = |doc: &Json, key| doc.get(key).cloned();
    for key in ["workload", "traced"] {
        if header(a, key) != header(b, key) {
            return Err(format!("the files differ in {key:?}: nothing to compare"));
        }
    }
    let workload = a.get("workload").and_then(Json::as_str).unwrap_or("?");
    let (Some(ma), Some(mb)) = (a.get("metrics"), b.get("metrics")) else {
        return Err("a file has no metrics object".into());
    };
    let mut out = String::new();
    let mut ok = true;
    for decl in declared_metrics(benchmark)? {
        let (Some(ja), Some(jb)) = (ma.get(&decl.name), mb.get(&decl.name)) else {
            continue; // the other trace mode's metric
        };
        let unit = ja.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
        let (Some(sa), Some(sb)) = (side(ja), side(jb)) else {
            return Err(format!("{}: metric without a value", decl.name));
        };
        let verdict = judge(&decl, sa, sb);
        ok &= verdict != Verdict::Regressed;
        let ratio = if sa.value == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:.4}", sb.value / sa.value)
        };
        out.push_str(&format!(
            "{workload:<12} {:<36} {:<10} b/a = {ratio} (base {} {unit}, b {}{})\n",
            decl.name,
            verdict.label(),
            sa.value,
            sb.value,
            decl.bound.map_or(String::new(), |bd| format!(", bound {bd}")),
        ));
    }
    let (fa, fb) = (failed_share(a), failed_share(b));
    out.push_str(&format!("{workload:<12} failed share: a {fa}, b {fb}\n"));
    ok &= fb <= fa;
    Ok((out, ok))
}

/// `BENCHMARK.json` sits at the repo root, one level above this package.
pub fn benchmark_json_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let benchmark = load(&benchmark_json_path())?;
    let (table, ok) = compare_docs(&benchmark, &load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: Option<f64>) -> Bounded {
        Bounded { name: "m".into(), higher_is_better: higher, bound }
    }

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = decl(false, Some(0.10));
        assert_eq!(judge(&lower, s(100.0, 0.0), s(111.0, 0.0)), Verdict::Regressed);
        assert_eq!(judge(&lower, s(100.0, 0.0), s(109.0, 0.0)), Verdict::Unchanged);
        assert_eq!(judge(&lower, s(100.0, 0.0), s(89.0, 0.0)), Verdict::Improved);
        assert_eq!(judge(&lower, s(100.0, 0.2), s(105.0, 0.0)), Verdict::Unresolved);
        let higher = decl(true, Some(0.10));
        assert_eq!(judge(&higher, s(100.0, 0.0), s(89.0, 0.0)), Verdict::Regressed);
        assert_eq!(judge(&higher, s(100.0, 0.0), s(111.0, 0.0)), Verdict::Improved);
        let layer = decl(false, None);
        assert_eq!(judge(&layer, s(3.0, 0.0), s(3.0, 0.0)), Verdict::Same);
        assert_eq!(judge(&layer, s(3.0, 0.0), s(4.0, 0.0)), Verdict::Changed);
    }
}
