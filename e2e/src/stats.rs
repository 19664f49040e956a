//! The few order statistics the benchmark reports.

/// The `q`-quantile of an ascending slice, by nearest rank; 0 when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples of an ascending slice lie beyond its `q`-quantile.
#[must_use]
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.iter().filter(|v| **v > p).count()
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = ascending(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (its default "exclusive" method), since that is how the
/// benchmark's own spread is judged.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = ascending(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // Position k*(n+1)/4, 1-based; clamped, then interpolated (or
        // extrapolated) from the clamped position, as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((k * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(beyond(&v, 0.5), 2);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
