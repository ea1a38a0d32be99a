//! Order statistics for timing samples.
//!
//! The box this benchmark runs on shares its cores, and the noise that
//! sharing adds is one-sided: it only ever makes a sample slower. Over
//! ten-run sets the per-run *median* of a latency moved by 10–22 % in a
//! noisy phase while the *fast decile* (p10) of the same samples moved by
//! 3–10 %, so [`typical`] — the p10 — is the statistic every reported
//! timing is built from. The quartiles and the sample count go to the
//! `--out` file beside it.

/// A sample's fast decile, quartiles and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p10: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The fast decile of a non-empty sample: its typical undisturbed value
/// (see the module docs).
pub fn typical(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.1)
}

/// Fast decile and quartiles of a non-empty sample.
pub fn summary(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        p10: quantile_sorted(&v, 0.1),
        p25: quantile_sorted(&v, 0.25),
        p50: quantile_sorted(&v, 0.5),
        p75: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = summary(&[5.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.p25, s.p50, s.p75, s.n), (2.0, 3.0, 4.0, 5));
        assert!((s.p10 - 1.4).abs() < 1e-12 && s.p10 == typical(&[5.0, 1.0, 2.0, 3.0, 4.0]));
        let one = summary(&[7.0]);
        assert_eq!((one.p10, one.p25, one.p50, one.p75, one.n), (7.0, 7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
    }
}
