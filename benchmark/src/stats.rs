//! Exact order statistics over raw samples. Latencies are kept as raw
//! microsecond values and sorted: the bucketed `obs::Histogram` quantises
//! by 4–6 %, which would eat the regression bounds.

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending slice: the
/// smallest value with at least `p` percent of the samples at or below
/// it. 0 for an empty slice.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    match rank(sorted.len(), p) {
        0 => 0,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples (0 for
/// none). The small slack keeps products like 99.9 % × 20 000, which are
/// whole numbers on paper, from rounding up to the next rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// The highest of p99.9, p99, p95, p90 that still has at least ten
/// samples beyond it, with its value; falls back to the median.
pub fn highest_supported(sorted: &[u32]) -> (f64, u32) {
    for p in [99.9, 99.0, 95.0, 90.0] {
        if sorted.len() - rank(sorted.len(), p) >= 10 {
            return (p, percentile(sorted, p));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// measures spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median, in percent.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m * 100.0
}
