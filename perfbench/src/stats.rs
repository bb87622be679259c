//! Order statistics shared by every workload: interpolated percentiles,
//! the tail-percentile rule and Python-compatible quartiles.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Linear-interpolated percentile (`p` in `0..=100`) of unsorted samples;
/// `NaN` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of [`TAIL_CANDIDATES`] that leaves at least ten of `n`
/// samples beyond it, or `None` when even the lowest does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A tail of time-ordered samples that one burst cannot dominate: the
/// samples are cut into `parts` consecutive segments, and the median of
/// the segments' tails is returned with the percentile used, the highest
/// that leaves ten samples of a segment beyond it.
pub fn segmented_tail(samples: &[f64], parts: usize) -> Option<(f64, f64)> {
    let seg = samples.len() / parts.max(1);
    let p = tail_percentile(seg)?;
    let tails: Vec<f64> = samples
        .chunks(seg)
        .take(parts)
        .map(|c| percentile(c, p))
        .collect();
    Some((p, median(&tails)))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the steadiness figure).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
        for n in [40, 100, 250, 1_000, 5_000, 20_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn segmented_tail_ignores_one_bad_segment() {
        let mut v: Vec<f64> = (0..2000).map(|i| (i % 100) as f64).collect();
        // A burst of slow samples inside one segment.
        for x in &mut v[100..160] {
            *x = 1e4;
        }
        let (p, t) = segmented_tail(&v, 4).unwrap();
        assert_eq!(p, 98.0);
        assert!(t < 100.0, "{t}");
        assert!(percentile(&v, 99.0) >= 1e4);
        assert_eq!(segmented_tail(&v[..100], 4), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
