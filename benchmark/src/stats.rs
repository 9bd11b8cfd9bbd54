//! Order statistics over latency samples and over sets of runs.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two closest ranks; 0 for an empty slice.
///
/// Interpolating keeps every digit of the neighbouring samples, so two
/// runs never report the same figure by rounding alone.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort `values` ascending in place (total order on floats).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Samples strictly above the `q`-quantile — the count that says
/// whether a tail percentile is supported (the rule is at least ten).
pub fn samples_beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.iter().filter(|v| **v > p).count()
}

/// First, second and third quartile of a set of runs, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so `compare` agrees with the driver's own
/// spread figure. Needs at least two values; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.125), 15.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 interpolates to 95.05: 96..=100 lie beyond it.
        assert_eq!(samples_beyond(&v, 0.95), 5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
