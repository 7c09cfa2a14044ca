//! The benchmark's own statistics: exact order statistics over the samples
//! it timed itself, and exact means from sums. Nothing here reads a
//! histogram's buckets, so a change to the crates' histogram resolution can
//! never redefine a benchmark metric.

/// Fewest samples that must lie strictly beyond a reported tail percentile.
/// A p99 therefore needs at least 1000 samples and a p90 at least 100.
pub const MIN_BEYOND: usize = 10;

/// Samples of `n` that lie beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples,
/// `⌈q·n⌉` clamped to `1..=n`.
fn nearest_rank(n: usize, q: f64) -> usize {
    // Round before the ceiling so 0.99 × 1000 lands on 990, not 991.
    let scaled = (q.clamp(0.0, 1.0) * n as f64 * 1e9).round() / 1e9;
    (scaled.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q`-quantile of `values`. `None` when there are no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// A tail quantile under the percentile rule: `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    quantile(values, q)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Exact mean from a sum and a count, 0 when nothing was counted.
pub fn mean_of(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Median over passes of a per-pass figure; NaN (which fails the run) when
/// any pass could not produce it.
pub fn median_of_passes<T>(passes: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(f).collect();
    if values.iter().any(|v| !v.is_finite()) {
        return f64::NAN;
    }
    median(&values).unwrap_or(f64::NAN)
}
