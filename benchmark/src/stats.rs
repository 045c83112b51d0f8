//! Order statistics shared by the run and `compare`.

/// `values` sorted ascending (NaN-free input assumed; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Nearest-rank percentile: the smallest sample with at least `percent`%
/// of the samples at or below it.  `None` for an empty sample.
pub fn percentile(values: &[f64], percent: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let data = sorted(values);
    let rank = nearest_rank(data.len(), percent).max(1);
    Some(data[rank - 1])
}

/// 1-based nearest rank of the `percent`th percentile among `n` samples.
fn nearest_rank(n: usize, percent: u32) -> usize {
    (n * percent as usize).div_ceil(100)
}

/// How many of `n` samples lie strictly beyond the `percent`th
/// nearest-rank percentile.
pub fn samples_beyond(n: usize, percent: u32) -> usize {
    n - nearest_rank(n, percent).min(n)
}

/// A percentile is reported as supported only with at least ten samples
/// beyond it.
pub fn supports_percentile(n: usize, percent: u32) -> bool {
    samples_beyond(n, percent) >= 10
}

/// The median (mean of the middle two for an even count), as Python's
/// `statistics.median` computes it.  `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive").
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => return None,
        1 => return Some((data[0], data[0], data[0])),
        _ => {}
    }
    let m = len as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (data[j - 1] * (4 - delta) as f64 + data[j] * delta as f64) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50), Some(50.0));
        assert_eq!(percentile(&values, 95), Some(95.0));
        assert_eq!(percentile(&values, 100), Some(100.0));
        assert_eq!(percentile(&[7.0], 95), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), Some(2.0));
        // Rank rounds up: the 95th percentile of 10 samples is the 10th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 95), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 95), 5);
        assert!(!supports_percentile(100, 95));
        assert_eq!(samples_beyond(199, 95), 9);
        assert!(!supports_percentile(199, 95));
        assert_eq!(samples_beyond(200, 95), 10);
        assert!(supports_percentile(200, 95));
        assert!(supports_percentile(20, 50));
        assert!(!supports_percentile(19, 50));
        assert_eq!(samples_beyond(0, 95), 0);
    }

    #[test]
    fn median_ignores_one_slow_repetition() {
        // One slow set-up does not move the median of five.
        assert_eq!(median(&[10.0, 11.0, 9.0, 50.0, 10.5]), Some(10.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
    }
}
