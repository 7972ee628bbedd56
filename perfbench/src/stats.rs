//! Order statistics over repeated measurements.

/// The median of `xs` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The first and third quartiles, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Fewer than two values give `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// The interquartile range as a share of the median: the spread measure
/// the benchmark's bounds are stated in.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// The highest of the standard tail percentiles (p99, p95, p90, p75)
/// that leaves at least ten samples beyond it, with its value; the
/// median (p50) when there are too few samples for any of them.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    for p in [99u32, 95, 90, 75] {
        let beyond = v.len() as f64 * f64::from(100 - p) / 100.0;
        if beyond >= 10.0 {
            let idx = ((v.len() as f64 * f64::from(p) / 100.0).ceil() as usize).saturating_sub(1);
            return (p, v[idx.min(v.len() - 1)]);
        }
    }
    (50, median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), (95, 190.0));
        assert_eq!(tail(&xs[..20]).0, 50);
    }
}
